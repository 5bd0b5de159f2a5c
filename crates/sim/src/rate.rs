//! The rate-model trait: where domain physics plugs into the engine.

use crate::{GpuCounters, GpuId, Label, StreamKind, TaskId};

/// A view of one currently-running task handed to the [`RateModel`].
#[derive(Debug)]
pub struct RunningTask<'a, P> {
    /// The task's id.
    pub id: TaskId,
    /// The task's label.
    pub label: Label,
    /// Devices the task occupies.
    pub participants: &'a [GpuId],
    /// The stream it occupies on each device.
    pub stream: StreamKind,
    /// Fraction of the task still to be done, in `(0, 1]`.
    pub remaining: f64,
    /// The opaque payload.
    pub payload: &'a P,
}

/// Supplies execution rates and instantaneous power for running tasks.
///
/// The engine calls [`assign_rates`](RateModel::assign_rates) every time the
/// set of running tasks changes (an *epoch boundary*). Within an epoch, rates
/// and power are constant — the simulation is piecewise-fluid.
///
/// Implementations express contention by inspecting the whole running set:
/// e.g. if a communication task shares a device with a compute kernel, the
/// model may hand the kernel a lower rate than it would get alone, and report
/// a higher device power. This is exactly the mechanism the overlap-lab
/// harness uses to model the paper's SM/bandwidth/power contention.
pub trait RateModel {
    /// Payload type the model can interpret.
    type Payload;

    /// Assigns a rate to every running task and a power draw to every device.
    ///
    /// * `rates[i]` must be set to the progress rate of `running[i]` in
    ///   fraction-of-task per second; values must be finite and positive.
    /// * `power[g]` must be set to the instantaneous draw of device `g` in
    ///   watts (devices with no running task should report idle power).
    ///
    /// Both slices arrive zero-filled (`rates.len() == running.len()`,
    /// `power.len() == n_gpus`).
    fn assign_rates(
        &mut self,
        running: &[RunningTask<'_, Self::Payload>],
        rates: &mut [f64],
        power: &mut [f64],
    );

    /// Time-aware variant of [`assign_rates`](RateModel::assign_rates).
    ///
    /// `now` is the simulation time at the start of the epoch, in seconds.
    /// Models whose physics depend on wall-clock position (fault windows,
    /// scheduled throttles) override this; the default ignores `now` and
    /// delegates, so stationary models need not change.
    fn assign_rates_at(
        &mut self,
        now: f64,
        running: &[RunningTask<'_, Self::Payload>],
        rates: &mut [f64],
        power: &mut [f64],
    ) {
        let _ = now;
        self.assign_rates(running, rates, power)
    }

    /// The next instant strictly after `now` at which this model's rates
    /// change for a reason *other than* a task completing (a fault window
    /// opening or closing, a watchdog deadline, ...).
    ///
    /// The engine clamps each epoch to the earlier of the next task
    /// completion and this boundary, re-querying rates at the boundary so a
    /// piecewise-constant external timeline is honored exactly. Stationary
    /// models keep the default `None`. Boundaries at or before `now` are
    /// ignored by the engine, so returning a stale boundary is safe (but
    /// each *distinct* boundary must eventually advance, or the model set is
    /// malformed).
    fn next_boundary(&mut self, now: f64) -> Option<f64> {
        let _ = now;
        None
    }

    /// Telemetry counters for device `gpu` over the epoch whose rates were
    /// just assigned — what a simulated NVML poll would read during that
    /// epoch (SM occupancy, HBM/link utilization, clock factor).
    ///
    /// The engine queries this only for observed runs, after
    /// [`assign_rates_at`](RateModel::assign_rates_at), and overwrites
    /// [`GpuCounters::power_w`] with the power the model already reported.
    /// The default reports an idle device at nominal clock, so models
    /// without telemetry need not change.
    fn counters(&self, gpu: usize) -> GpuCounters {
        let _ = gpu;
        GpuCounters::default()
    }
}

impl<M: RateModel + ?Sized> RateModel for &mut M {
    type Payload = M::Payload;

    fn assign_rates(
        &mut self,
        running: &[RunningTask<'_, Self::Payload>],
        rates: &mut [f64],
        power: &mut [f64],
    ) {
        (**self).assign_rates(running, rates, power)
    }

    fn assign_rates_at(
        &mut self,
        now: f64,
        running: &[RunningTask<'_, Self::Payload>],
        rates: &mut [f64],
        power: &mut [f64],
    ) {
        (**self).assign_rates_at(now, running, rates, power)
    }

    fn next_boundary(&mut self, now: f64) -> Option<f64> {
        (**self).next_boundary(now)
    }

    fn counters(&self, gpu: usize) -> GpuCounters {
        (**self).counters(gpu)
    }
}

/// A trivial rate model: every task takes `duration_secs` seconds and every
/// device draws `busy_watts` while any task runs on it. Useful in tests.
#[derive(Debug, Clone, Copy)]
pub struct ConstantRate {
    /// Seconds each task takes when running.
    pub duration_secs: f64,
    /// Watts drawn by a device with at least one running task.
    pub busy_watts: f64,
}

impl Default for ConstantRate {
    fn default() -> Self {
        ConstantRate {
            duration_secs: 1.0,
            busy_watts: 100.0,
        }
    }
}

impl RateModel for ConstantRate {
    type Payload = ();

    fn assign_rates(
        &mut self,
        running: &[RunningTask<'_, ()>],
        rates: &mut [f64],
        power: &mut [f64],
    ) {
        for (i, task) in running.iter().enumerate() {
            rates[i] = 1.0 / self.duration_secs;
            for gpu in task.participants {
                power[gpu.index()] = self.busy_watts;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_rate_fills_rates_and_power() {
        let mut model = ConstantRate::default();
        let payload = ();
        let running = [RunningTask {
            id: TaskId(0),
            label: "k".into(),
            participants: &[GpuId(1)],
            stream: StreamKind::Compute,
            remaining: 1.0,
            payload: &payload,
        }];
        let mut rates = [0.0];
        let mut power = [0.0, 0.0];
        model.assign_rates(&running, &mut rates, &mut power);
        assert_eq!(rates[0], 1.0);
        assert_eq!(power, [0.0, 100.0]);
    }
}
