//! Structural validation of completed traces.
//!
//! The engine's accounting is also checked by property tests, but exposing
//! a validator lets downstream users (custom rate models, hand-built
//! schedules) assert the same invariants over their own runs.

use crate::{GpuId, SimTrace, StreamKind, TaskId, Workload};
use std::fmt;

/// Absolute slack allowed on every floating-point comparison.
const EPS: f64 = 1e-9;

/// One violated trace invariant.
///
/// Every task-level variant carries the record index (`task.index()`) in
/// addition to the label, so violations stay unambiguous even when a
/// workload reuses labels (e.g. one `all_gather` per layer per micro-step).
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A record ends before it starts.
    EndBeforeStart {
        /// The offending task (its index is `task.index()`).
        task: TaskId,
        /// The task's label.
        label: String,
    },
    /// A record ends after the trace's makespan.
    EndsAfterMakespan {
        /// The offending task.
        task: TaskId,
        /// The task's label.
        label: String,
        /// When the task ended, seconds.
        end_s: f64,
        /// The trace makespan, seconds.
        makespan_s: f64,
    },
    /// A record's co-active time exceeds its wall-clock duration.
    CoactiveExceedsDuration {
        /// The offending task.
        task: TaskId,
        /// The task's label.
        label: String,
    },
    /// A task started before one of its explicit dependencies ended.
    DependencyOrder {
        /// The offending task.
        task: TaskId,
        /// The task's label.
        label: String,
        /// The dependency that had not finished.
        dep: TaskId,
        /// The dependency's label.
        dep_label: String,
        /// When the task started, seconds.
        start_s: f64,
        /// When the dependency ended, seconds.
        dep_end_s: f64,
    },
    /// Two tasks sharing a `(device, stream)` queue ran overlapped.
    QueueOverlap {
        /// The device whose queue was violated.
        gpu: GpuId,
        /// The stream whose queue was violated.
        stream: StreamKind,
        /// The later-pushed task that overlaps.
        task: TaskId,
        /// Its label.
        label: String,
        /// The earlier-pushed task it overlaps with.
        predecessor: TaskId,
        /// The predecessor's label.
        predecessor_label: String,
    },
    /// Two tasks sharing a `(device, stream)` queue ran out of push (FIFO)
    /// order: a later-pushed task started strictly before an earlier one.
    ///
    /// Distinct from [`Violation::QueueOverlap`]: an inverted pair need not
    /// overlap at all, and after an inversion the naive "previous end"
    /// bookkeeping would regress, masking real overlaps — so order is
    /// checked explicitly, with ties (equal starts, e.g. zero-duration
    /// tasks) treated as FIFO-consistent.
    QueueOrder {
        /// The device whose queue was violated.
        gpu: GpuId,
        /// The stream whose queue was violated.
        stream: StreamKind,
        /// The later-pushed task that started early.
        task: TaskId,
        /// Its label.
        label: String,
        /// The earlier-pushed task that started after it.
        predecessor: TaskId,
        /// The predecessor's label.
        predecessor_label: String,
    },
    /// A device with a non-empty timeline has no power segments.
    MissingPowerTrace {
        /// The device.
        gpu: GpuId,
    },
    /// A device's power trace does not start at time zero.
    PowerTraceStart {
        /// The device.
        gpu: GpuId,
        /// Where the first segment actually starts, seconds.
        start_s: f64,
    },
    /// Consecutive power segments leave a gap (or overlap backwards).
    PowerTraceGap {
        /// The device.
        gpu: GpuId,
        /// Where the discontinuity sits, seconds.
        at_s: f64,
    },
    /// A device's power trace does not end at the makespan.
    PowerTraceEnd {
        /// The device.
        gpu: GpuId,
        /// Where the last segment ends, seconds.
        end_s: f64,
        /// The trace makespan, seconds.
        makespan_s: f64,
    },
    /// A power segment carries a non-finite or negative draw, or a
    /// negative-duration window.
    InvalidPowerSegment {
        /// The device.
        gpu: GpuId,
        /// Index of the segment within the device's trace.
        segment: usize,
        /// The recorded draw, watts.
        watts: f64,
    },
    /// A device's power segments do not tile `[0, makespan)` exactly once:
    /// the summed segment durations disagree with the makespan, so the
    /// trace's energy integral (`energy == average_power × makespan`) is
    /// inconsistent.
    EnergyInconsistent {
        /// The device.
        gpu: GpuId,
        /// Sum of segment durations, seconds.
        covered_s: f64,
        /// The trace makespan, seconds.
        makespan_s: f64,
    },
}

impl Violation {
    /// The task this violation is about, when it is task-scoped.
    pub fn task(&self) -> Option<TaskId> {
        match self {
            Violation::EndBeforeStart { task, .. }
            | Violation::EndsAfterMakespan { task, .. }
            | Violation::CoactiveExceedsDuration { task, .. }
            | Violation::DependencyOrder { task, .. }
            | Violation::QueueOverlap { task, .. }
            | Violation::QueueOrder { task, .. } => Some(*task),
            _ => None,
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::EndBeforeStart { task, label } => {
                write!(f, "record {} '{label}': end before start", task.index())
            }
            Violation::EndsAfterMakespan {
                task,
                label,
                end_s,
                makespan_s,
            } => write!(
                f,
                "record {} '{label}': ends at {end_s} after makespan {makespan_s}",
                task.index()
            ),
            Violation::CoactiveExceedsDuration { task, label } => write!(
                f,
                "record {} '{label}': coactive exceeds duration",
                task.index()
            ),
            Violation::DependencyOrder {
                task,
                label,
                dep,
                dep_label,
                start_s,
                dep_end_s,
            } => write!(
                f,
                "record {} '{label}': starts at {start_s} before dependency record {} \
                 '{dep_label}' ends at {dep_end_s}",
                task.index(),
                dep.index()
            ),
            Violation::QueueOverlap {
                gpu,
                stream,
                task,
                label,
                predecessor,
                predecessor_label,
            } => write!(
                f,
                "{gpu}/{stream}: record {} '{label}' overlaps queue predecessor record {} \
                 '{predecessor_label}'",
                task.index(),
                predecessor.index()
            ),
            Violation::QueueOrder {
                gpu,
                stream,
                task,
                label,
                predecessor,
                predecessor_label,
            } => write!(
                f,
                "{gpu}/{stream}: record {} '{label}' started before earlier-pushed record {} \
                 '{predecessor_label}' (FIFO order violated)",
                task.index(),
                predecessor.index()
            ),
            Violation::MissingPowerTrace { gpu } => write!(f, "{gpu}: no power segments"),
            Violation::PowerTraceStart { gpu, start_s } => {
                write!(f, "{gpu}: power trace starts at {start_s}, not 0")
            }
            Violation::PowerTraceGap { gpu, at_s } => {
                write!(f, "{gpu}: power trace has a gap at {at_s}")
            }
            Violation::PowerTraceEnd {
                gpu,
                end_s,
                makespan_s,
            } => write!(
                f,
                "{gpu}: power trace ends at {end_s}, makespan {makespan_s}"
            ),
            Violation::InvalidPowerSegment {
                gpu,
                segment,
                watts,
            } => write!(f, "{gpu}: power segment {segment} is invalid ({watts} W)"),
            Violation::EnergyInconsistent {
                gpu,
                covered_s,
                makespan_s,
            } => write!(
                f,
                "{gpu}: power segments cover {covered_s} s of a {makespan_s} s makespan; \
                 energy integral is inconsistent"
            ),
        }
    }
}

/// Checks every structural invariant of a completed trace against its
/// workload. Returns the list of violations (empty = valid).
///
/// Invariants:
/// 1. every record has `start <= end <= makespan`;
/// 2. every dependency finishes before its dependent starts;
/// 3. tasks sharing a `(device, stream)` queue run without overlap, in
///    push (FIFO) order — order is checked explicitly, so inversions are
///    reported even when the inverted pair does not overlap and ties
///    (equal starts) stay FIFO-consistent;
/// 4. co-active time never exceeds task duration;
/// 5. per-device power segments are contiguous, span `[0, makespan)`,
///    carry finite non-negative draws, and tile the makespan exactly once
///    (so `energy_joules == average_power × makespan`).
pub fn verify_trace<P>(workload: &Workload<P>, trace: &SimTrace) -> Vec<Violation> {
    let mut violations = Vec::new();
    let makespan = trace.makespan().as_secs();
    let records = trace.records();

    for rec in records {
        if rec.end.as_secs() < rec.start.as_secs() {
            violations.push(Violation::EndBeforeStart {
                task: rec.id,
                label: rec.label.to_string(),
            });
        }
        if rec.end.as_secs() > makespan + EPS {
            violations.push(Violation::EndsAfterMakespan {
                task: rec.id,
                label: rec.label.to_string(),
                end_s: rec.end.as_secs(),
                makespan_s: makespan,
            });
        }
        if rec.coactive.as_secs() > rec.duration().as_secs() + EPS {
            violations.push(Violation::CoactiveExceedsDuration {
                task: rec.id,
                label: rec.label.to_string(),
            });
        }
    }

    for (i, spec) in workload.tasks().iter().enumerate() {
        let rec = &records[i];
        for dep in &spec.deps {
            let dep_rec = &records[dep.index()];
            if dep_rec.end.as_secs() > rec.start.as_secs() + EPS {
                violations.push(Violation::DependencyOrder {
                    task: rec.id,
                    label: rec.label.to_string(),
                    dep: *dep,
                    dep_label: dep_rec.label.to_string(),
                    start_s: rec.start.as_secs(),
                    dep_end_s: dep_rec.end.as_secs(),
                });
            }
        }
    }

    for g in 0..workload.n_gpus() {
        let gpu = GpuId(g as u16);
        for stream in StreamKind::ALL {
            // `max_end`/`holder` track the latest completion seen so far —
            // deliberately not "the previous task's end": after an order
            // inversion the previous task may end early, and resetting to
            // it would mask overlaps with the earlier long-runner.
            let mut max_end = 0.0f64;
            let mut holder: Option<TaskId> = None;
            let mut last_start = f64::NEG_INFINITY;
            let mut last_id: Option<TaskId> = None;
            for (i, spec) in workload.tasks().iter().enumerate() {
                if spec.stream != stream || !spec.participants.contains(&gpu) {
                    continue;
                }
                let rec = &records[i];
                let start = rec.start.as_secs();
                if let Some(prev) = holder {
                    if start < max_end - EPS {
                        violations.push(Violation::QueueOverlap {
                            gpu,
                            stream,
                            task: rec.id,
                            label: rec.label.to_string(),
                            predecessor: prev,
                            predecessor_label: records[prev.index()].label.to_string(),
                        });
                    }
                }
                if let Some(prev) = last_id {
                    if start < last_start - EPS {
                        violations.push(Violation::QueueOrder {
                            gpu,
                            stream,
                            task: rec.id,
                            label: rec.label.to_string(),
                            predecessor: prev,
                            predecessor_label: records[prev.index()].label.to_string(),
                        });
                    }
                }
                if rec.end.as_secs() > max_end {
                    max_end = rec.end.as_secs();
                    holder = Some(rec.id);
                }
                last_start = start;
                last_id = Some(rec.id);
            }
        }

        let segments = &trace.gpus()[g].power;
        if makespan > 0.0 {
            if segments.is_empty() {
                violations.push(Violation::MissingPowerTrace { gpu });
                continue;
            }
            if segments[0].window.start.as_secs().abs() > EPS {
                violations.push(Violation::PowerTraceStart {
                    gpu,
                    start_s: segments[0].window.start.as_secs(),
                });
            }
            for pair in segments.windows(2) {
                if (pair[0].window.end.as_secs() - pair[1].window.start.as_secs()).abs() > EPS {
                    violations.push(Violation::PowerTraceGap {
                        gpu,
                        at_s: pair[0].window.end.as_secs(),
                    });
                    break;
                }
            }
            let end = segments.last().expect("non-empty").window.end.as_secs();
            if (end - makespan).abs() > EPS {
                violations.push(Violation::PowerTraceEnd {
                    gpu,
                    end_s: end,
                    makespan_s: makespan,
                });
            }

            let mut covered = 0.0f64;
            for (si, seg) in segments.iter().enumerate() {
                let dt = seg.window.end.as_secs() - seg.window.start.as_secs();
                if !seg.watts.is_finite() || seg.watts < 0.0 || dt < -EPS {
                    violations.push(Violation::InvalidPowerSegment {
                        gpu,
                        segment: si,
                        watts: seg.watts,
                    });
                }
                covered += dt.max(0.0);
            }
            // Tolerance scales with the makespan: each comparison above
            // allows EPS of absolute slack per segment boundary.
            let slack = EPS * (segments.len() as f64 + 1.0) + EPS * makespan;
            if (covered - makespan).abs() > slack {
                violations.push(Violation::EnergyInconsistent {
                    gpu,
                    covered_s: covered,
                    makespan_s: makespan,
                });
            }
        }
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConstantRate, Engine, GpuId, TaskSpec};

    #[test]
    fn engine_output_always_validates() {
        let mut w = Workload::new(2);
        let a = w.push(TaskSpec::compute("a", GpuId(0), ()));
        w.push(TaskSpec::comm("c", GpuId(0), ()).after(a));
        w.push(TaskSpec::collective("ar", vec![GpuId(0), GpuId(1)], ()));
        let trace = Engine::new(ConstantRate::default()).run(&w).unwrap();
        let violations = verify_trace(&w, &trace);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn empty_workload_validates() {
        let w = Workload::<()>::new(1);
        let trace = Engine::new(ConstantRate::default()).run(&w).unwrap();
        assert!(verify_trace(&w, &trace).is_empty());
    }

    #[test]
    fn violations_name_the_record_index() {
        // Duplicate labels must stay distinguishable through the index.
        let v = Violation::EndBeforeStart {
            task: crate::TaskId(7),
            label: "all_gather".into(),
        };
        assert_eq!(v.to_string(), "record 7 'all_gather': end before start");
        assert_eq!(v.task(), Some(crate::TaskId(7)));
    }

    #[test]
    fn display_is_implemented_for_every_variant() {
        let samples = [
            Violation::EndsAfterMakespan {
                task: crate::TaskId(1),
                label: "x".into(),
                end_s: 2.0,
                makespan_s: 1.0,
            },
            Violation::QueueOrder {
                gpu: GpuId(0),
                stream: crate::StreamKind::Comm,
                task: crate::TaskId(2),
                label: "b".into(),
                predecessor: crate::TaskId(1),
                predecessor_label: "a".into(),
            },
            Violation::EnergyInconsistent {
                gpu: GpuId(1),
                covered_s: 0.5,
                makespan_s: 1.0,
            },
        ];
        for v in samples {
            assert!(!v.to_string().is_empty());
            assert!(v.task().is_some() || matches!(v, Violation::EnergyInconsistent { .. }));
        }
    }
}
