//! The [`Recorder`]: an [`EngineObserver`] that turns raw engine
//! callbacks into the typed event stream and a merged piecewise-constant
//! counter timeline.
//!
//! The engine reports one callback per epoch; epochs are often much finer
//! than anything telemetry cares about (a task edge elsewhere on the node
//! splits an epoch without changing any counter). The recorder merges
//! contiguous epochs whose counters are identical, so the stored timeline
//! is the minimal piecewise-constant representation — sampling cost then
//! scales with actual telemetry changes, not engine granularity. DVFS
//! transitions are detected here too: whenever a GPU's clock factor
//! changes between epochs, a [`ObsEvent::DvfsTransition`] is emitted.

use crate::event::{EventBus, ObsEvent};
use olab_sim::{EngineObserver, GpuCounters, GpuId, Label, StreamKind, TaskId};

/// One maximal run of engine epochs with identical per-GPU counters.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterEpoch {
    /// Epoch start, seconds.
    pub start_s: f64,
    /// Epoch end, seconds.
    pub end_s: f64,
    /// Per-GPU counters, indexed by device, constant over the epoch.
    pub counters: Vec<GpuCounters>,
}

/// Collects events and counters from one observed run.
#[derive(Debug, Default)]
pub struct Recorder {
    bus: EventBus,
    epochs: Vec<CounterEpoch>,
    last_freq: Vec<f64>,
}

impl Recorder {
    /// A recorder delivering events to `bus`.
    pub fn new(bus: EventBus) -> Self {
        Recorder {
            bus,
            epochs: Vec::new(),
            last_freq: Vec::new(),
        }
    }

    /// The merged counter timeline recorded so far, in time order.
    pub fn epochs(&self) -> &[CounterEpoch] {
        &self.epochs
    }

    /// End of the recorded timeline, seconds (0 before any epoch).
    pub fn makespan_s(&self) -> f64 {
        self.epochs.last().map_or(0.0, |e| e.end_s)
    }

    /// Mutable access to the bus, for emitting prologue/epilogue events
    /// (fault windows, watchdog episodes) around the engine run.
    pub fn bus(&mut self) -> &mut EventBus {
        &mut self.bus
    }
}

impl EngineObserver for Recorder {
    fn on_task_start(
        &mut self,
        now_s: f64,
        id: TaskId,
        label: Label,
        participants: &[GpuId],
        stream: StreamKind,
    ) {
        let event = match stream {
            StreamKind::Compute => ObsEvent::TaskStart {
                t_s: now_s,
                id: u64::from(id.0),
                label,
                gpus: participants,
            },
            StreamKind::Comm => ObsEvent::CollectiveStart {
                t_s: now_s,
                id: u64::from(id.0),
                label,
                gpus: participants,
            },
        };
        self.bus.emit(&event);
    }

    fn on_task_end(
        &mut self,
        now_s: f64,
        id: TaskId,
        label: Label,
        participants: &[GpuId],
        stream: StreamKind,
    ) {
        let event = match stream {
            StreamKind::Compute => ObsEvent::TaskEnd {
                t_s: now_s,
                id: u64::from(id.0),
                label,
                gpus: participants,
            },
            StreamKind::Comm => ObsEvent::CollectiveEnd {
                t_s: now_s,
                id: u64::from(id.0),
                label,
                gpus: participants,
            },
        };
        self.bus.emit(&event);
    }

    fn on_epoch(&mut self, start_s: f64, end_s: f64, counters: &[GpuCounters]) {
        // DVFS edges: compare each GPU's clock factor with the previous
        // epoch's (first epoch establishes the baseline silently when the
        // clock is nominal).
        if self.last_freq.len() < counters.len() {
            self.last_freq.resize(counters.len(), 1.0);
        }
        for (gpu, c) in counters.iter().enumerate() {
            let prev = self.last_freq[gpu];
            if c.freq_factor != prev {
                self.bus.emit(&ObsEvent::DvfsTransition {
                    t_s: start_s,
                    gpu,
                    from: prev,
                    to: c.freq_factor,
                });
                self.last_freq[gpu] = c.freq_factor;
            }
        }

        // Zero-duration epochs carry no time and would only split merges.
        if end_s <= start_s {
            return;
        }
        if let Some(last) = self.epochs.last_mut() {
            if last.end_s == start_s && last.counters.as_slice() == counters {
                last.end_s = end_s;
                return;
            }
        }
        self.epochs.push(CounterEpoch {
            start_s,
            end_s,
            counters: counters.to_vec(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::JsonlSink;

    fn counters(freq: f64, power: f64) -> Vec<GpuCounters> {
        vec![GpuCounters {
            sm_occupancy: 0.5,
            hbm_util: 0.25,
            link_util: 0.0,
            freq_factor: freq,
            power_w: power,
        }]
    }

    fn recorder_with_log() -> (Recorder, std::rc::Rc<std::cell::RefCell<String>>) {
        let (sink, buf) = JsonlSink::new();
        let mut bus = EventBus::new();
        bus.subscribe(Box::new(sink));
        (Recorder::new(bus), buf)
    }

    #[test]
    fn contiguous_equal_epochs_merge() {
        let (mut rec, _) = recorder_with_log();
        rec.on_epoch(0.0, 1.0, &counters(1.0, 500.0));
        rec.on_epoch(1.0, 2.0, &counters(1.0, 500.0));
        rec.on_epoch(2.0, 3.0, &counters(1.0, 400.0));
        assert_eq!(rec.epochs().len(), 2);
        assert_eq!(rec.epochs()[0].start_s, 0.0);
        assert_eq!(rec.epochs()[0].end_s, 2.0);
        assert_eq!(rec.makespan_s(), 3.0);
    }

    #[test]
    fn zero_duration_epochs_are_dropped_without_splitting_merges() {
        let (mut rec, _) = recorder_with_log();
        rec.on_epoch(0.0, 1.0, &counters(1.0, 500.0));
        rec.on_epoch(1.0, 1.0, &counters(1.0, 999.0));
        rec.on_epoch(1.0, 2.0, &counters(1.0, 500.0));
        assert_eq!(rec.epochs().len(), 1, "{:?}", rec.epochs());
        assert_eq!(rec.epochs()[0].end_s, 2.0);
    }

    #[test]
    fn clock_changes_emit_dvfs_transitions() {
        let (mut rec, buf) = recorder_with_log();
        rec.on_epoch(0.0, 1.0, &counters(1.0, 500.0));
        rec.on_epoch(1.0, 2.0, &counters(0.75, 420.0));
        rec.on_epoch(2.0, 3.0, &counters(0.75, 420.0));
        rec.on_epoch(3.0, 4.0, &counters(1.0, 500.0));
        let text = buf.borrow();
        let dvfs: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("dvfs_transition"))
            .collect();
        assert_eq!(dvfs.len(), 2, "{text}");
        assert!(dvfs[0].contains("\"from\": 1.000000") && dvfs[0].contains("\"to\": 0.750000"));
        assert!(dvfs[1].contains("\"from\": 0.750000") && dvfs[1].contains("\"to\": 1.000000"));
    }

    #[test]
    fn task_edges_route_by_stream_kind() {
        let (mut rec, buf) = recorder_with_log();
        let gpus = [GpuId(0)];
        rec.on_task_start(0.0, TaskId(0), "gemm".into(), &gpus, StreamKind::Compute);
        rec.on_task_start(0.0, TaskId(1), "ar".into(), &gpus, StreamKind::Comm);
        rec.on_task_end(1.0, TaskId(0), "gemm".into(), &gpus, StreamKind::Compute);
        rec.on_task_end(2.0, TaskId(1), "ar".into(), &gpus, StreamKind::Comm);
        let text = buf.borrow();
        let kinds: Vec<&str> = text
            .lines()
            .map(|l| {
                l.split("\"event\": \"")
                    .nth(1)
                    .unwrap()
                    .split('"')
                    .next()
                    .unwrap()
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                "task_start",
                "collective_start",
                "task_end",
                "collective_end"
            ]
        );
    }
}
