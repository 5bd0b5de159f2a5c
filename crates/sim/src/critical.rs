//! Critical-path analysis over completed traces.
//!
//! After a run, the makespan is determined by a chain of tasks linked by
//! dependency edges, stream (FIFO) order, and collective rendezvous. This
//! module reconstructs that chain and per-task slack — the first question a
//! scheduling engineer asks of a timeline ("what do I shorten to make the
//! iteration faster?").

use crate::{Label, SimTrace, StreamKind, TaskId, Workload};

/// One step of the critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalStep {
    /// The task.
    pub id: TaskId,
    /// Its label (copied out of the trace).
    pub label: Label,
    /// Its stream.
    pub stream: StreamKind,
    /// Wall-clock duration, seconds.
    pub duration_s: f64,
}

/// Result of the analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Tasks on the path, in execution order.
    pub steps: Vec<CriticalStep>,
    /// Total makespan, seconds.
    pub makespan_s: f64,
    /// Seconds of the path spent in communication tasks.
    pub comm_s: f64,
    /// Seconds of the path spent in compute tasks.
    pub compute_s: f64,
    /// Seconds of the path not covered by any task (rendezvous waits where
    /// the predecessor chain has gaps; ~0 on well-formed schedules).
    pub idle_s: f64,
}

impl CriticalPath {
    /// Fraction of the makespan attributable to communication.
    pub fn comm_fraction(&self) -> f64 {
        if self.makespan_s > 0.0 {
            self.comm_s / self.makespan_s
        } else {
            0.0
        }
    }
}

/// Reconstructs the critical path of a completed run.
///
/// Walks backwards from the task that finishes last: at each step the
/// predecessor is the latest-finishing task among (a) explicit
/// dependencies, (b) the previous task on each of the task's stream queues,
/// where "previous" is identified by matching end time to start time —
/// choosing whichever finished last and no later than the current task's
/// start.
pub fn critical_path<P>(workload: &Workload<P>, trace: &SimTrace) -> CriticalPath {
    let records = trace.records();
    if records.is_empty() {
        return CriticalPath {
            steps: Vec::new(),
            makespan_s: 0.0,
            comm_s: 0.0,
            compute_s: 0.0,
            idle_s: 0.0,
        };
    }

    let last = records
        .iter()
        .max_by(|a, b| a.end.as_secs().total_cmp(&b.end.as_secs()))
        .expect("non-empty trace");

    let mut steps_rev: Vec<CriticalStep> = Vec::new();
    let mut current = last.id;
    let mut guard = records.len() + 1;
    loop {
        let rec = &records[current.index()];
        steps_rev.push(CriticalStep {
            id: rec.id,
            label: rec.label,
            stream: rec.stream,
            duration_s: rec.duration().as_secs(),
        });
        guard -= 1;
        if guard == 0 {
            break;
        }

        let start = rec.start.as_secs();
        if start <= 1e-12 {
            break;
        }

        // Candidate predecessors: explicit deps + any task on a shared
        // queue that ends exactly when (or before) this one starts.
        let spec = &workload.tasks()[current.index()];
        let mut best: Option<TaskId> = None;
        let mut best_end = f64::NEG_INFINITY;
        let mut consider = |id: TaskId| {
            let end = records[id.index()].end.as_secs();
            if end <= start + 1e-12 && end > best_end {
                best_end = end;
                best = Some(id);
            }
        };
        for dep in &spec.deps {
            consider(*dep);
        }
        for other in records {
            if other.id == current {
                continue;
            }
            let other_spec = &workload.tasks()[other.id.index()];
            let shares_queue = other_spec.stream == spec.stream
                && other_spec
                    .participants
                    .iter()
                    .any(|g| spec.participants.contains(g));
            // Rendezvous: a collective also waits for each participant's
            // compute stream to release the head-of-queue slot.
            let blocks_rendezvous = spec.participants.len() > 1
                && other_spec
                    .participants
                    .iter()
                    .any(|g| spec.participants.contains(g));
            if shares_queue || blocks_rendezvous {
                consider(other.id);
            }
        }

        match best {
            Some(prev) => current = prev,
            None => break,
        }
    }

    steps_rev.reverse();
    let comm_s: f64 = steps_rev
        .iter()
        .filter(|s| s.stream == StreamKind::Comm)
        .map(|s| s.duration_s)
        .sum();
    let compute_s: f64 = steps_rev
        .iter()
        .filter(|s| s.stream == StreamKind::Compute)
        .map(|s| s.duration_s)
        .sum();
    let makespan_s = trace.makespan().as_secs();
    CriticalPath {
        steps: steps_rev,
        makespan_s,
        comm_s,
        compute_s,
        idle_s: (makespan_s - comm_s - compute_s).max(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConstantRate, Engine, GpuId, TaskSpec};

    #[test]
    fn chain_path_includes_every_task() {
        let mut w = Workload::new(1);
        let a = w.push(TaskSpec::compute("a", GpuId(0), ()));
        let b = w.push(TaskSpec::compute("b", GpuId(0), ()).after(a));
        let _c = w.push(TaskSpec::comm("c", GpuId(0), ()).after(b));
        let trace = Engine::new(ConstantRate::default()).run(&w).unwrap();
        let path = critical_path(&w, &trace);
        assert_eq!(path.steps.len(), 3);
        assert_eq!(path.steps[0].label, "a");
        assert_eq!(path.steps[2].label, "c");
        assert!((path.comm_s - 1.0).abs() < 1e-9);
        assert!((path.compute_s - 2.0).abs() < 1e-9);
        assert!(path.idle_s < 1e-9);
    }

    #[test]
    fn parallel_branches_pick_the_longer_one() {
        // gpu0 runs two tasks; gpu1 runs one; a collective joins them.
        let mut w = Workload::new(2);
        let a0 = w.push(TaskSpec::compute("a0", GpuId(0), ()));
        let a1 = w.push(TaskSpec::compute("a1", GpuId(0), ()).after(a0));
        let _b0 = w.push(TaskSpec::compute("b0", GpuId(1), ()));
        let _coll = w.push(TaskSpec::collective("coll", vec![GpuId(0), GpuId(1)], ()).after(a1));
        let trace = Engine::new(ConstantRate::default()).run(&w).unwrap();
        let path = critical_path(&w, &trace);
        let labels: Vec<Label> = path.steps.iter().map(|s| s.label).collect();
        assert_eq!(labels, vec!["a0", "a1", "coll"], "the gpu0 chain dominates");
        assert!((path.makespan_s - 3.0).abs() < 1e-9);
    }

    #[test]
    fn comm_fraction_reflects_path_composition() {
        let mut w = Workload::new(1);
        let a = w.push(TaskSpec::compute("a", GpuId(0), ()));
        w.push(TaskSpec::comm("c", GpuId(0), ()).after(a));
        let trace = Engine::new(ConstantRate::default()).run(&w).unwrap();
        let path = critical_path(&w, &trace);
        assert!((path.comm_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_yields_empty_path() {
        let w = Workload::<()>::new(1);
        let trace = Engine::new(ConstantRate::default()).run(&w).unwrap();
        let path = critical_path(&w, &trace);
        assert!(path.steps.is_empty());
        assert_eq!(path.makespan_s, 0.0);
    }
}
