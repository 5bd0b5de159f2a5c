//! Task specifications and workload construction.

use crate::{GpuId, Label, Participants, SimError, StreamKind, TaskId};

/// Specification of one task in a [`Workload`].
///
/// A task occupies the `stream` queue on every device in `participants`.
/// Single-participant tasks model kernels; multi-participant tasks model
/// collectives, which start only when they reach the head of every
/// participant's queue (rendezvous semantics, like NCCL).
#[derive(Debug, Clone)]
pub struct TaskSpec<P> {
    /// Human-readable label, carried into the trace and rendered only by
    /// exporters.
    pub label: Label,
    /// Devices this task occupies, deduplicated and sorted by [`Workload::push`].
    pub participants: Participants,
    /// The stream the task occupies on each participant.
    pub stream: StreamKind,
    /// Explicit dependencies in addition to stream ordering.
    pub deps: Vec<TaskId>,
    /// Opaque payload interpreted by the [`RateModel`](crate::RateModel).
    pub payload: P,
}

impl<P> TaskSpec<P> {
    /// Creates a task spec with no explicit dependencies.
    pub fn new(
        label: impl Into<Label>,
        participants: impl Into<Participants>,
        stream: StreamKind,
        payload: P,
    ) -> Self {
        TaskSpec {
            label: label.into(),
            participants: participants.into(),
            stream,
            deps: Vec::new(),
            payload,
        }
    }

    /// Convenience constructor for a single-device compute task.
    pub fn compute(label: impl Into<Label>, gpu: GpuId, payload: P) -> Self {
        Self::new(label, Participants::One(gpu), StreamKind::Compute, payload)
    }

    /// Convenience constructor for a single-device communication task.
    pub fn comm(label: impl Into<Label>, gpu: GpuId, payload: P) -> Self {
        Self::new(label, Participants::One(gpu), StreamKind::Comm, payload)
    }

    /// Convenience constructor for a multi-device collective on the comm stream.
    pub fn collective(
        label: impl Into<Label>,
        participants: impl Into<Participants>,
        payload: P,
    ) -> Self {
        Self::new(label, participants, StreamKind::Comm, payload)
    }

    /// Adds an explicit dependency and returns `self` for chaining.
    pub fn after(mut self, dep: TaskId) -> Self {
        self.deps.push(dep);
        self
    }

    /// Adds several explicit dependencies and returns `self` for chaining.
    pub fn after_all(mut self, deps: impl IntoIterator<Item = TaskId>) -> Self {
        self.deps.extend(deps);
        self
    }
}

/// An ordered collection of tasks forming the DAG the engine executes.
///
/// Stream order is implied by push order: two tasks on the same
/// `(device, stream)` queue run in the order they were pushed, exactly like
/// kernels launched on a CUDA stream.
#[derive(Debug, Clone)]
pub struct Workload<P> {
    n_gpus: usize,
    tasks: Vec<TaskSpec<P>>,
}

impl<P> Workload<P> {
    /// Creates an empty workload for a node with `n_gpus` devices.
    ///
    /// # Panics
    ///
    /// Panics if `n_gpus` is zero.
    pub fn new(n_gpus: usize) -> Self {
        assert!(n_gpus > 0, "workload needs at least one device");
        Workload {
            n_gpus,
            tasks: Vec::new(),
        }
    }

    /// Number of devices in the node.
    pub fn n_gpus(&self) -> usize {
        self.n_gpus
    }

    /// Number of tasks pushed so far.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the workload holds no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Adds a task and returns its id.
    ///
    /// Participants are deduplicated and sorted; a shared group that is
    /// already strictly sorted is kept as is. Dependencies may reference
    /// any task id already pushed; forward references are rejected at
    /// [`Engine::run`](crate::Engine::run) time.
    ///
    /// # Panics
    ///
    /// Panics if the task has no participants or references a device outside
    /// the node.
    pub fn push(&mut self, mut spec: TaskSpec<P>) -> TaskId {
        assert!(
            !spec.participants.is_empty(),
            "task {:?} has no participants",
            spec.label
        );
        if !spec.participants.is_strictly_sorted() {
            let mut gpus = spec.participants.to_vec();
            gpus.sort_unstable();
            gpus.dedup();
            spec.participants = Participants::from(gpus);
        }
        for gpu in &spec.participants {
            assert!(
                gpu.index() < self.n_gpus,
                "task {:?} references {} but the node has {} devices",
                spec.label,
                gpu,
                self.n_gpus
            );
        }
        let id = TaskId(u32::try_from(self.tasks.len()).expect("too many tasks"));
        self.tasks.push(spec);
        id
    }

    /// The tasks in push order.
    pub fn tasks(&self) -> &[TaskSpec<P>] {
        &self.tasks
    }

    /// Looks up one task spec.
    pub fn get(&self, id: TaskId) -> Option<&TaskSpec<P>> {
        self.tasks.get(id.index())
    }

    /// Serializes the workload per device, in place.
    ///
    /// Walking the tasks in push order, every task gains a dependency on
    /// the previously pushed task of each of its participants, whatever
    /// stream either task is on, unless that edge already exists. Nothing
    /// on a device can then run concurrently with anything else on it.
    /// Task count, order and every other field are unchanged, and applying
    /// the pass twice adds nothing the first application did not.
    pub fn serialized(mut self) -> Self {
        let mut last_on_gpu: Vec<Option<TaskId>> = vec![None; self.n_gpus];
        for (i, task) in self.tasks.iter_mut().enumerate() {
            let id = TaskId(i as u32);
            for gpu in &task.participants {
                let last = &mut last_on_gpu[gpu.index()];
                if let Some(prev) = *last {
                    if !task.deps.contains(&prev) {
                        task.deps.push(prev);
                    }
                }
                *last = Some(id);
            }
        }
        self
    }

    /// Validates structural invariants (dependency ids in range, no
    /// self-dependency). Called by the engine before running.
    pub fn validate(&self) -> Result<(), SimError> {
        for (i, task) in self.tasks.iter().enumerate() {
            for dep in &task.deps {
                if dep.index() >= self.tasks.len() {
                    return Err(SimError::UnknownDependency {
                        task: TaskId(i as u32),
                        dep: *dep,
                    });
                }
                if dep.index() == i {
                    return Err(SimError::SelfDependency {
                        task: TaskId(i as u32),
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_assigns_sequential_ids() {
        let mut w = Workload::new(2);
        let a = w.push(TaskSpec::compute("a", GpuId(0), ()));
        let b = w.push(TaskSpec::comm("b", GpuId(1), ()));
        assert_eq!(a, TaskId(0));
        assert_eq!(b, TaskId(1));
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn participants_are_deduplicated_and_sorted() {
        let mut w = Workload::new(4);
        let id = w.push(TaskSpec::collective(
            "ar",
            vec![GpuId(3), GpuId(1), GpuId(3), GpuId(0)],
            (),
        ));
        let spec = w.get(id).unwrap();
        assert_eq!(*spec.participants, [GpuId(0), GpuId(1), GpuId(3)]);
    }

    #[test]
    fn a_sorted_shared_group_is_kept_and_an_unsorted_one_resorted() {
        let group = Participants::from(vec![GpuId(0), GpuId(2)]);
        let mut w = Workload::new(4);
        let a = w.push(TaskSpec::collective("a", group.clone(), ()));
        match (&w.tasks()[a.index()].participants, &group) {
            (Participants::Many(kept), Participants::Many(shared)) => {
                assert!(
                    std::sync::Arc::ptr_eq(kept, shared),
                    "no copy of a sorted group"
                )
            }
            other => panic!("expected a shared group, got {other:?}"),
        }
        let b = w.push(TaskSpec::collective(
            "b",
            Participants::Many(vec![GpuId(3), GpuId(3), GpuId(1)].into()),
            (),
        ));
        assert_eq!(*w.tasks()[b.index()].participants, [GpuId(1), GpuId(3)]);
        let c = w.push(TaskSpec::collective(
            "c",
            Participants::Many(vec![GpuId(2), GpuId(2)].into()),
            (),
        ));
        assert!(matches!(
            w.tasks()[c.index()].participants,
            Participants::One(GpuId(2))
        ));
    }

    #[test]
    #[should_panic(expected = "task \"st0.L1.ag\" has no participants")]
    fn empty_participants_panic_with_the_rendered_label() {
        let mut w = Workload::new(2);
        w.push(TaskSpec::collective(
            crate::label!("st{}.L{}.ag", 0, 1),
            Vec::new(),
            (),
        ));
    }

    #[test]
    #[should_panic(expected = "task \"ar\" references gpu5 but the node has 4 devices")]
    fn out_of_range_group_member_panics() {
        let mut w = Workload::new(4);
        w.push(TaskSpec::collective("ar", vec![GpuId(0), GpuId(5)], ()));
    }

    #[test]
    fn validate_rejects_unknown_and_self_dependencies() {
        let mut w = Workload::new(1);
        w.push(TaskSpec::compute("a", GpuId(0), ()).after(TaskId(5)));
        assert!(matches!(
            w.validate(),
            Err(SimError::UnknownDependency { .. })
        ));

        let mut w = Workload::new(1);
        w.push(TaskSpec::compute("a", GpuId(0), ()).after(TaskId(0)));
        assert!(matches!(w.validate(), Err(SimError::SelfDependency { .. })));
    }

    #[test]
    #[should_panic(expected = "references gpu2")]
    fn out_of_range_device_panics() {
        let mut w = Workload::new(2);
        w.push(TaskSpec::compute("a", GpuId(2), ()));
    }

    #[test]
    fn serialized_chains_a_collective_on_every_participant() {
        let mut w = Workload::new(3);
        let a0 = w.push(TaskSpec::compute("a0", GpuId(0), ()));
        let a1 = w.push(TaskSpec::compute("a1", GpuId(1), ()));
        let a2 = w.push(TaskSpec::comm("a2", GpuId(2), ()));
        let ar = w.push(TaskSpec::collective(
            "ar",
            vec![GpuId(0), GpuId(1), GpuId(2)],
            (),
        ));
        let w = w.serialized();
        assert_eq!(w.tasks()[ar.index()].deps, vec![a0, a1, a2]);
    }

    #[test]
    fn serialized_chains_across_streams_and_skips_existing_edges() {
        let mut w = Workload::new(1);
        let a = w.push(TaskSpec::compute("a", GpuId(0), ()));
        let b = w.push(TaskSpec::comm("b", GpuId(0), ()).after(a));
        let c = w.push(TaskSpec::compute("c", GpuId(0), ()));
        let w = w.serialized();
        assert_eq!(w.tasks()[a.index()].deps, vec![]);
        assert_eq!(w.tasks()[b.index()].deps, vec![a], "edge not duplicated");
        assert_eq!(w.tasks()[c.index()].deps, vec![b]);
    }

    #[test]
    fn serialized_is_idempotent_and_keeps_task_order() {
        let mut w = Workload::new(2);
        w.push(TaskSpec::compute("a", GpuId(0), ()));
        w.push(TaskSpec::comm("b", GpuId(1), ()));
        w.push(TaskSpec::collective("ar", vec![GpuId(0), GpuId(1)], ()));
        w.push(TaskSpec::compute("c", GpuId(1), ()).after(TaskId(0)));
        w.push(TaskSpec::comm("d", GpuId(0), ()));
        let labels =
            |w: &Workload<()>| -> Vec<Label> { w.tasks().iter().map(|t| t.label).collect() };
        let deps = |w: &Workload<()>| -> Vec<Vec<TaskId>> {
            w.tasks().iter().map(|t| t.deps.clone()).collect()
        };
        let before = labels(&w);
        let once = w.serialized();
        assert_eq!(labels(&once), before);
        assert_eq!(once.n_gpus(), 2);
        let once_deps = deps(&once);
        assert_eq!(
            once_deps,
            vec![
                vec![],
                vec![],
                vec![TaskId(0), TaskId(1)],
                vec![TaskId(0), TaskId(2)],
                vec![TaskId(2)],
            ]
        );
        let twice = once.serialized();
        assert_eq!(labels(&twice), before);
        assert_eq!(deps(&twice), once_deps);
    }

    #[test]
    fn after_all_extends_dependencies() {
        let mut w = Workload::new(1);
        let a = w.push(TaskSpec::compute("a", GpuId(0), ()));
        let b = w.push(TaskSpec::compute("b", GpuId(0), ()));
        let c = TaskSpec::compute("c", GpuId(0), ()).after_all([a, b]);
        assert_eq!(c.deps, vec![a, b]);
    }
}
