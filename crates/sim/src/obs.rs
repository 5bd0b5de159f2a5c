//! Engine instrumentation: the observer hook the telemetry layer plugs
//! into.
//!
//! The engine drives an [`EngineObserver`] through every run: task
//! lifecycle edges (start/end) and one callback per epoch carrying the
//! piecewise-constant per-GPU counters the rate model reported for that
//! epoch. Observation is strictly pull-free and allocation-free on the
//! engine side: every callback borrows engine state, and the default
//! [`NullObserver`] sets [`EngineObserver::ENABLED`] to `false` so the
//! instrumentation compiles away entirely for unobserved runs.

use crate::{GpuId, Label, StreamKind, TaskId};

/// Per-GPU telemetry counters for one engine epoch, as a simulated NVML
/// poll would see them: all values are held constant over the epoch.
///
/// Rate models report these through [`RateModel::counters`]
/// (`crate::RateModel`); models that do not override it report an idle
/// device. The engine overwrites [`power_w`](GpuCounters::power_w) with
/// the power it already collects, so the two never disagree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuCounters {
    /// Fraction of SMs doing work (compute kernel plus any co-resident
    /// collective's channel kernels), in `[0, 1]`.
    pub sm_occupancy: f64,
    /// HBM bandwidth utilization, in `[0, 1]`.
    pub hbm_util: f64,
    /// Link/copy-engine utilization, in `[0, 1]`.
    pub link_util: f64,
    /// Core-clock factor selected by DVFS, in `(0, 1]`.
    pub freq_factor: f64,
    /// Instantaneous board power, watts.
    pub power_w: f64,
}

impl Default for GpuCounters {
    fn default() -> Self {
        GpuCounters {
            sm_occupancy: 0.0,
            hbm_util: 0.0,
            link_util: 0.0,
            freq_factor: 1.0,
            power_w: 0.0,
        }
    }
}

/// Receives engine instrumentation callbacks during a run.
///
/// All callbacks borrow engine state — an observer that wants to keep an
/// event must copy what it needs. Every method has an empty default, so
/// sinks implement only what they consume.
pub trait EngineObserver {
    /// Compile-time switch: when `false` (the [`NullObserver`]) the engine
    /// skips all instrumentation work, including assembling the per-epoch
    /// counter slice, so unobserved runs pay nothing.
    const ENABLED: bool = true;

    /// A task was promoted to running at `now_s`.
    fn on_task_start(
        &mut self,
        now_s: f64,
        id: TaskId,
        label: Label,
        participants: &[GpuId],
        stream: StreamKind,
    ) {
        let _ = (now_s, id, label, participants, stream);
    }

    /// A task retired at `now_s`.
    fn on_task_end(
        &mut self,
        now_s: f64,
        id: TaskId,
        label: Label,
        participants: &[GpuId],
        stream: StreamKind,
    ) {
        let _ = (now_s, id, label, participants, stream);
    }

    /// One engine epoch `[start_s, end_s)` elapsed with the given per-GPU
    /// counters (indexed by device) held constant throughout.
    fn on_epoch(&mut self, start_s: f64, end_s: f64, counters: &[GpuCounters]) {
        let _ = (start_s, end_s, counters);
    }
}

/// The do-nothing observer behind [`Engine::run`](crate::Engine::run):
/// `ENABLED = false` compiles every instrumentation point away.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl EngineObserver for NullObserver {
    const ENABLED: bool = false;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_counters_are_an_idle_device_at_nominal_clock() {
        let c = GpuCounters::default();
        assert_eq!(c.sm_occupancy, 0.0);
        assert_eq!(c.hbm_util, 0.0);
        assert_eq!(c.link_util, 0.0);
        assert_eq!(c.freq_factor, 1.0);
        assert_eq!(c.power_w, 0.0);
    }

    #[test]
    fn null_observer_is_compile_time_disabled() {
        const { assert!(!NullObserver::ENABLED) };
        // The default methods are callable no-ops.
        let mut obs = NullObserver;
        obs.on_task_start(0.0, TaskId(0), "k".into(), &[GpuId(0)], StreamKind::Compute);
        obs.on_task_end(1.0, TaskId(0), "k".into(), &[GpuId(0)], StreamKind::Compute);
        obs.on_epoch(0.0, 1.0, &[GpuCounters::default()]);
    }
}
