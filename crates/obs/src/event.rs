//! The typed event bus: every notable thing a run does, as one enum.
//!
//! Events are *borrowed*: an [`ObsEvent`] holds references into the state
//! of whoever raised it, and [`EventBus::emit`] with no subscribed sinks
//! is a branch and a return — no clone, no allocation, nothing. Sinks
//! that keep an event copy what they need (usually by serializing it
//! straight into a buffer with [`to_jsonl`]).

use olab_core::fmtutil::json_escape;
use olab_sim::{GpuId, Label};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

/// One structured run event. Times are simulation seconds; all string and
/// slice fields borrow from the emitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ObsEvent<'a> {
    /// A compute task was promoted to running.
    TaskStart {
        /// Simulation time, seconds.
        t_s: f64,
        /// Task id within the workload.
        id: u64,
        /// Task label.
        label: Label,
        /// Participating GPUs.
        gpus: &'a [GpuId],
    },
    /// A compute task retired.
    TaskEnd {
        /// Simulation time, seconds.
        t_s: f64,
        /// Task id within the workload.
        id: u64,
        /// Task label.
        label: Label,
        /// Participating GPUs.
        gpus: &'a [GpuId],
    },
    /// A collective (comm-stream task) started.
    CollectiveStart {
        /// Simulation time, seconds.
        t_s: f64,
        /// Task id within the workload.
        id: u64,
        /// Collective label.
        label: Label,
        /// Participating GPUs.
        gpus: &'a [GpuId],
    },
    /// A collective completed.
    CollectiveEnd {
        /// Simulation time, seconds.
        t_s: f64,
        /// Task id within the workload.
        id: u64,
        /// Collective label.
        label: Label,
        /// Participating GPUs.
        gpus: &'a [GpuId],
    },
    /// The DVFS governor moved a GPU to a different clock.
    DvfsTransition {
        /// Simulation time of the transition, seconds.
        t_s: f64,
        /// Device index.
        gpu: usize,
        /// Clock factor before the transition.
        from: f64,
        /// Clock factor after the transition.
        to: f64,
    },
    /// A straggler throttle window of the fault timeline (known up front,
    /// emitted as a prologue before the run).
    FaultThrottle {
        /// Window open, seconds.
        start_s: f64,
        /// Window close, seconds.
        end_s: f64,
        /// Throttled device.
        gpu: usize,
        /// Clock factor imposed inside the window.
        freq_factor: f64,
    },
    /// A link degradation/outage window of the fault timeline.
    FaultLink {
        /// Window open, seconds.
        start_s: f64,
        /// Window close, seconds (`None` = permanent).
        end_s: Option<f64>,
        /// The afflicted link, e.g. `gpu1<->gpu2`.
        link: &'a str,
        /// Surviving bandwidth fraction (`0` = outage).
        bw_factor: f64,
    },
    /// The watchdog observed a collective stalled on an outage.
    WatchdogStall {
        /// Stall start, seconds.
        start_s: f64,
        /// Stall resolution, seconds.
        end_s: f64,
        /// Label of the stalled collective.
        label: &'a str,
    },
    /// The watchdog exhausted retries and rebuilt the communicator on the
    /// surviving ring.
    WatchdogRebuild {
        /// Rebuild start, seconds.
        start_s: f64,
        /// Rebuild end, seconds.
        end_s: f64,
        /// Label of the degraded collective.
        label: &'a str,
    },
    /// The watchdog gave up and killed the run.
    WatchdogAbort {
        /// Abort time, seconds.
        t_s: f64,
        /// Label of the unreachable collective.
        label: &'a str,
        /// Retries spent before giving up.
        retries: u32,
    },
    /// A recovery policy drained durable state (weights + optimizer) to
    /// host storage.
    Checkpoint {
        /// Write start, seconds.
        start_s: f64,
        /// Write end (barrier included), seconds.
        end_s: f64,
        /// 1-based checkpoint sequence number within the job.
        sequence: u32,
        /// Durable state drained per GPU, bytes.
        bytes_per_gpu: f64,
    },
    /// The job restarted from its last completed checkpoint after a fatal
    /// fault.
    Restore {
        /// The failure time the restart recovers from, seconds.
        t_s: f64,
        /// Sequence number of the checkpoint restored (`0` = from
        /// scratch: the job died before its first write).
        sequence: u32,
        /// Time to recover: restore + re-init + warmup, seconds.
        ttr_s: f64,
    },
    /// A dead rank was evicted and its state re-sharded onto the
    /// survivors.
    Reshard {
        /// Re-shard start (the failure time), seconds.
        t_s: f64,
        /// The evicted rank.
        evicted: usize,
        /// World size before the shrink.
        from_ranks: usize,
        /// World size after the shrink.
        to_ranks: usize,
        /// Total durable state redistributed, bytes.
        bytes: f64,
        /// Wall-clock of the re-shard exchange, seconds.
        reshard_s: f64,
    },
    /// A sweep cell was served from cache.
    CacheHit {
        /// Cache tier label (`memory-hit` / `disk-hit`).
        tier: &'a str,
        /// The cell's canonical descriptor.
        descriptor: &'a str,
    },
    /// A sweep cell missed the cache and was simulated.
    CacheMiss {
        /// The cell's canonical descriptor.
        descriptor: &'a str,
    },
    /// A guarded sweep cell is starting a retry attempt after a failed
    /// earlier attempt.
    CellRetry {
        /// The cell's canonical descriptor.
        descriptor: &'a str,
        /// 1-based retry attempt (the first retry is 1).
        attempt: u32,
    },
    /// A guarded sweep cell exhausted every attempt against its per-cell
    /// wall-clock deadline.
    CellTimeout {
        /// The cell's canonical descriptor.
        descriptor: &'a str,
        /// The per-attempt deadline that was missed, seconds.
        deadline_s: f64,
        /// Total attempts made.
        attempts: u32,
    },
    /// The size-cap policy evicted cold entries from the disk cache tier.
    CacheEvict {
        /// Entries evicted by this pass.
        evicted: usize,
        /// Bytes left on disk after the pass.
        disk_bytes: u64,
        /// The configured cap, bytes.
        max_bytes: u64,
    },
    /// The disk cache tier latched into memory-only degradation (e.g.
    /// ENOSPC or permission loss on write).
    CacheDegraded {
        /// Human-readable reason recorded by the latch.
        reason: &'a str,
    },
    /// A serving front-end admitted a cell request (`olab serve`).
    RequestStart {
        /// The requested cell's canonical descriptor.
        descriptor: &'a str,
        /// The request's own deadline, milliseconds (0 = none given).
        timeout_ms: u64,
    },
    /// A serving front-end finished a cell request, one way or another.
    RequestDone {
        /// The requested cell's canonical descriptor.
        descriptor: &'a str,
        /// The HTTP status written back.
        status: u16,
        /// How it resolved (`executed`, `coalesced`, `cached`, `shed`,
        /// `timeout`, `error`).
        outcome: &'a str,
        /// Wall-clock from admission to response, milliseconds.
        wall_ms: u64,
    },
}

impl ObsEvent<'_> {
    /// The stable lowercase kind tag used in serialized streams.
    pub fn kind(&self) -> &'static str {
        match self {
            ObsEvent::TaskStart { .. } => "task_start",
            ObsEvent::TaskEnd { .. } => "task_end",
            ObsEvent::CollectiveStart { .. } => "collective_start",
            ObsEvent::CollectiveEnd { .. } => "collective_end",
            ObsEvent::DvfsTransition { .. } => "dvfs_transition",
            ObsEvent::FaultThrottle { .. } => "fault_throttle",
            ObsEvent::FaultLink { .. } => "fault_link",
            ObsEvent::WatchdogStall { .. } => "watchdog_stall",
            ObsEvent::WatchdogRebuild { .. } => "watchdog_rebuild",
            ObsEvent::WatchdogAbort { .. } => "watchdog_abort",
            ObsEvent::Checkpoint { .. } => "checkpoint",
            ObsEvent::Restore { .. } => "restore",
            ObsEvent::Reshard { .. } => "reshard",
            ObsEvent::CacheHit { .. } => "cache_hit",
            ObsEvent::CacheMiss { .. } => "cache_miss",
            ObsEvent::CellRetry { .. } => "cell_retry",
            ObsEvent::CellTimeout { .. } => "cell_timeout",
            ObsEvent::CacheEvict { .. } => "cache_evict",
            ObsEvent::CacheDegraded { .. } => "cache_degraded",
            ObsEvent::RequestStart { .. } => "request_start",
            ObsEvent::RequestDone { .. } => "request_done",
        }
    }
}

/// Serializes one event as a single JSON line (no trailing newline).
///
/// Times are fixed to microsecond precision so the stream is byte-stable
/// across platforms; the output is valid JSON per
/// [`olab_core::fmtutil::validate_json`].
pub fn to_jsonl(event: &ObsEvent<'_>) -> String {
    let mut out = String::with_capacity(96);
    let _ = write!(out, "{{\"event\": \"{}\"", event.kind());
    let gpu_list = |out: &mut String, gpus: &[GpuId]| {
        out.push_str(", \"gpus\": [");
        for (i, g) in gpus.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}", g.0);
        }
        out.push(']');
    };
    match *event {
        ObsEvent::TaskStart {
            t_s,
            id,
            label,
            gpus,
        }
        | ObsEvent::TaskEnd {
            t_s,
            id,
            label,
            gpus,
        }
        | ObsEvent::CollectiveStart {
            t_s,
            id,
            label,
            gpus,
        }
        | ObsEvent::CollectiveEnd {
            t_s,
            id,
            label,
            gpus,
        } => {
            let _ = write!(
                out,
                ", \"t_s\": {t_s:.6}, \"id\": {id}, \"label\": \"{}\"",
                json_escape(&label.to_string())
            );
            gpu_list(&mut out, gpus);
        }
        ObsEvent::DvfsTransition { t_s, gpu, from, to } => {
            let _ = write!(
                out,
                ", \"t_s\": {t_s:.6}, \"gpu\": {gpu}, \"from\": {from:.6}, \"to\": {to:.6}"
            );
        }
        ObsEvent::FaultThrottle {
            start_s,
            end_s,
            gpu,
            freq_factor,
        } => {
            let _ = write!(
                out,
                ", \"start_s\": {start_s:.6}, \"end_s\": {end_s:.6}, \"gpu\": {gpu}, \
                 \"freq_factor\": {freq_factor:.6}"
            );
        }
        ObsEvent::FaultLink {
            start_s,
            end_s,
            link,
            bw_factor,
        } => {
            let _ = write!(out, ", \"start_s\": {start_s:.6}, \"end_s\": ");
            match end_s {
                Some(e) => {
                    let _ = write!(out, "{e:.6}");
                }
                None => out.push_str("null"),
            }
            let _ = write!(
                out,
                ", \"link\": \"{}\", \"bw_factor\": {bw_factor:.6}",
                json_escape(link)
            );
        }
        ObsEvent::WatchdogStall {
            start_s,
            end_s,
            label,
        }
        | ObsEvent::WatchdogRebuild {
            start_s,
            end_s,
            label,
        } => {
            let _ = write!(
                out,
                ", \"start_s\": {start_s:.6}, \"end_s\": {end_s:.6}, \"label\": \"{}\"",
                json_escape(label)
            );
        }
        ObsEvent::WatchdogAbort {
            t_s,
            label,
            retries,
        } => {
            let _ = write!(
                out,
                ", \"t_s\": {t_s:.6}, \"label\": \"{}\", \"retries\": {retries}",
                json_escape(label)
            );
        }
        ObsEvent::Checkpoint {
            start_s,
            end_s,
            sequence,
            bytes_per_gpu,
        } => {
            let _ = write!(
                out,
                ", \"start_s\": {start_s:.6}, \"end_s\": {end_s:.6}, \
                 \"sequence\": {sequence}, \"bytes_per_gpu\": {bytes_per_gpu:.0}"
            );
        }
        ObsEvent::Restore {
            t_s,
            sequence,
            ttr_s,
        } => {
            let _ = write!(
                out,
                ", \"t_s\": {t_s:.6}, \"sequence\": {sequence}, \"ttr_s\": {ttr_s:.6}"
            );
        }
        ObsEvent::Reshard {
            t_s,
            evicted,
            from_ranks,
            to_ranks,
            bytes,
            reshard_s,
        } => {
            let _ = write!(
                out,
                ", \"t_s\": {t_s:.6}, \"evicted\": {evicted}, \"from_ranks\": {from_ranks}, \
                 \"to_ranks\": {to_ranks}, \"bytes\": {bytes:.0}, \"reshard_s\": {reshard_s:.6}"
            );
        }
        ObsEvent::CacheHit { tier, descriptor } => {
            let _ = write!(
                out,
                ", \"tier\": \"{}\", \"descriptor\": \"{}\"",
                json_escape(tier),
                json_escape(descriptor)
            );
        }
        ObsEvent::CacheMiss { descriptor } => {
            let _ = write!(out, ", \"descriptor\": \"{}\"", json_escape(descriptor));
        }
        ObsEvent::CellRetry {
            descriptor,
            attempt,
        } => {
            let _ = write!(
                out,
                ", \"descriptor\": \"{}\", \"attempt\": {attempt}",
                json_escape(descriptor)
            );
        }
        ObsEvent::CellTimeout {
            descriptor,
            deadline_s,
            attempts,
        } => {
            let _ = write!(
                out,
                ", \"descriptor\": \"{}\", \"deadline_s\": {deadline_s:.6}, \
                 \"attempts\": {attempts}",
                json_escape(descriptor)
            );
        }
        ObsEvent::CacheEvict {
            evicted,
            disk_bytes,
            max_bytes,
        } => {
            let _ = write!(
                out,
                ", \"evicted\": {evicted}, \"disk_bytes\": {disk_bytes}, \
                 \"max_bytes\": {max_bytes}"
            );
        }
        ObsEvent::CacheDegraded { reason } => {
            let _ = write!(out, ", \"reason\": \"{}\"", json_escape(reason));
        }
        ObsEvent::RequestStart {
            descriptor,
            timeout_ms,
        } => {
            let _ = write!(
                out,
                ", \"descriptor\": \"{}\", \"timeout_ms\": {timeout_ms}",
                json_escape(descriptor)
            );
        }
        ObsEvent::RequestDone {
            descriptor,
            status,
            outcome,
            wall_ms,
        } => {
            let _ = write!(
                out,
                ", \"descriptor\": \"{}\", \"status\": {status}, \"outcome\": \"{}\", \
                 \"wall_ms\": {wall_ms}",
                json_escape(descriptor),
                json_escape(outcome)
            );
        }
    }
    out.push('}');
    out
}

/// Receives typed run events. Observers run on the thread that raised the
/// event; sweeps observe per-cell, so implementations need no internal
/// synchronization.
pub trait Observer {
    /// One event happened. The borrow ends when the call returns — copy
    /// what you keep.
    fn on_event(&mut self, event: &ObsEvent<'_>);
}

/// A fan-out bus of boxed [`Observer`] sinks.
///
/// With no subscribers, [`EventBus::emit`] does nothing and allocates
/// nothing — instrumented code can emit unconditionally.
#[derive(Default)]
pub struct EventBus {
    sinks: Vec<Box<dyn Observer>>,
}

impl EventBus {
    /// An empty bus (emitting is free until someone subscribes).
    pub fn new() -> Self {
        EventBus::default()
    }

    /// Subscribes a sink; events are delivered in subscription order.
    pub fn subscribe(&mut self, sink: Box<dyn Observer>) {
        self.sinks.push(sink);
    }

    /// Number of subscribed sinks.
    pub fn sinks(&self) -> usize {
        self.sinks.len()
    }

    /// Delivers `event` to every sink (no-op, no allocation when empty).
    pub fn emit(&mut self, event: &ObsEvent<'_>) {
        for sink in &mut self.sinks {
            sink.on_event(event);
        }
    }
}

impl std::fmt::Debug for EventBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventBus")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

/// A sink serializing every event into a shared JSONL buffer (one event
/// per line, in emission order).
///
/// The buffer is handed out as an `Rc<RefCell<String>>` so the driver can
/// keep reading it after the sink is boxed into a bus:
///
/// ```
/// use olab_obs::{EventBus, JsonlSink, ObsEvent};
/// let (sink, buf) = JsonlSink::new();
/// let mut bus = EventBus::new();
/// bus.subscribe(Box::new(sink));
/// bus.emit(&ObsEvent::CacheMiss { descriptor: "cell" });
/// assert!(buf.borrow().starts_with("{\"event\": \"cache_miss\""));
/// ```
#[derive(Debug)]
pub struct JsonlSink {
    buf: Rc<RefCell<String>>,
}

impl JsonlSink {
    /// A sink plus the shared buffer it appends to.
    pub fn new() -> (Self, Rc<RefCell<String>>) {
        let buf = Rc::new(RefCell::new(String::new()));
        (
            JsonlSink {
                buf: Rc::clone(&buf),
            },
            buf,
        )
    }
}

impl Observer for JsonlSink {
    fn on_event(&mut self, event: &ObsEvent<'_>) {
        let mut buf = self.buf.borrow_mut();
        buf.push_str(&to_jsonl(event));
        buf.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olab_core::fmtutil::validate_json;

    fn sample_events<'a>(gpus: &'a [GpuId]) -> Vec<ObsEvent<'a>> {
        vec![
            ObsEvent::TaskStart {
                t_s: 0.0,
                id: 0,
                label: "fwd \"L0\"".into(),
                gpus,
            },
            ObsEvent::CollectiveStart {
                t_s: 0.25,
                id: 1,
                label: "ag L1".into(),
                gpus,
            },
            ObsEvent::DvfsTransition {
                t_s: 0.5,
                gpu: 2,
                from: 1.0,
                to: 0.75,
            },
            ObsEvent::FaultThrottle {
                start_s: 0.1,
                end_s: 0.9,
                gpu: 0,
                freq_factor: 0.5,
            },
            ObsEvent::FaultLink {
                start_s: 0.2,
                end_s: None,
                link: "gpu1<->gpu2",
                bw_factor: 0.0,
            },
            ObsEvent::WatchdogStall {
                start_s: 0.2,
                end_s: 0.4,
                label: "ar",
            },
            ObsEvent::WatchdogAbort {
                t_s: 0.4,
                label: "ar",
                retries: 3,
            },
            ObsEvent::Checkpoint {
                start_s: 0.3,
                end_s: 0.35,
                sequence: 2,
                bytes_per_gpu: 1.5e9,
            },
            ObsEvent::Restore {
                t_s: 0.4,
                sequence: 2,
                ttr_s: 0.12,
            },
            ObsEvent::Reshard {
                t_s: 0.4,
                evicted: 2,
                from_ranks: 4,
                to_ranks: 3,
                bytes: 6.0e9,
                reshard_s: 0.08,
            },
            ObsEvent::CacheHit {
                tier: "memory-hit",
                descriptor: "olab-cell ...",
            },
            ObsEvent::CellRetry {
                descriptor: "olab-cell ...",
                attempt: 2,
            },
            ObsEvent::CellTimeout {
                descriptor: "olab-cell ...",
                deadline_s: 1.5,
                attempts: 3,
            },
            ObsEvent::CacheEvict {
                evicted: 7,
                disk_bytes: 4096,
                max_bytes: 8192,
            },
            ObsEvent::CacheDegraded {
                reason: "no space left on device",
            },
            ObsEvent::RequestStart {
                descriptor: "olab-cell ...",
                timeout_ms: 2500,
            },
            ObsEvent::RequestDone {
                descriptor: "olab-cell ...",
                status: 200,
                outcome: "coalesced",
                wall_ms: 41,
            },
        ]
    }

    #[test]
    fn every_event_serializes_to_valid_json_with_its_kind() {
        let gpus = [GpuId(0), GpuId(3)];
        for event in sample_events(&gpus) {
            let line = to_jsonl(&event);
            validate_json(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert!(
                line.contains(&format!("\"event\": \"{}\"", event.kind())),
                "{line}"
            );
        }
    }

    #[test]
    fn labels_with_quotes_are_escaped() {
        let line = to_jsonl(&ObsEvent::TaskStart {
            t_s: 0.0,
            id: 9,
            label: "fwd \"block\"".into(),
            gpus: &[],
        });
        validate_json(&line).expect("escaped label must stay valid JSON");
        assert!(line.contains("fwd \\\"block\\\""));
    }

    #[test]
    fn jsonl_sink_appends_one_line_per_event_in_order() {
        let (sink, buf) = JsonlSink::new();
        let mut bus = EventBus::new();
        bus.subscribe(Box::new(sink));
        assert_eq!(bus.sinks(), 1);
        let gpus = [GpuId(1)];
        for event in sample_events(&gpus) {
            bus.emit(&event);
        }
        let text = buf.borrow();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), sample_events(&gpus).len());
        for line in &lines {
            validate_json(line).expect("each line is standalone JSON");
        }
        assert!(lines[0].contains("task_start"));
        assert!(lines[1].contains("collective_start"));
    }

    #[test]
    fn empty_bus_emit_is_a_no_op() {
        let mut bus = EventBus::new();
        bus.emit(&ObsEvent::CacheMiss { descriptor: "d" });
        assert_eq!(bus.sinks(), 0);
    }
}
