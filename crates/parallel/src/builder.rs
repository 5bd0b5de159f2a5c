//! Schedule construction.

use crate::{ExecutionMode, Op};
use olab_gpu::KernelKind;
use olab_sim::{GpuId, Label, TaskId, TaskSpec, Workload, MAX_LABEL_ARGS};

/// Builds a [`Workload`] of [`Op`]s in program order.
///
/// Every schedule is built overlapped. In [`ExecutionMode::Sequential`],
/// [`build`](Self::build) then applies [`Workload::serialized`]: every task
/// additionally depends on the previously pushed task of *every*
/// participant GPU, regardless of stream, so nothing on a GPU ever runs
/// concurrently with anything else on that GPU. Tasks must therefore be
/// pushed in a valid execution order (schedules here always are: they are
/// emitted in program order).
#[derive(Debug)]
pub struct ScheduleBuilder {
    workload: Workload<Op>,
    mode: ExecutionMode,
}

impl ScheduleBuilder {
    /// Creates a builder for an `n_gpus` node.
    pub fn new(n_gpus: usize, mode: ExecutionMode) -> Self {
        ScheduleBuilder {
            workload: Workload::new(n_gpus),
            mode,
        }
    }

    /// The execution mode [`build`](Self::build) serializes for.
    pub fn mode(&self) -> ExecutionMode {
        self.mode
    }

    /// Pushes a task in program order.
    pub fn push(&mut self, spec: TaskSpec<Op>) -> TaskId {
        self.workload.push(spec)
    }

    /// Pushes one kernel sequence on the compute stream of every GPU in
    /// `gpus`, GPU by GPU, and returns the last task per GPU. The first
    /// kernel on each GPU depends on `first_deps`.
    ///
    /// Kernel `ki` on GPU `g` is labelled by `template`, whose holes take
    /// `prefix`, then `ki`, then `g`'s index: `"st{}.L{}.f.k{}.gpu{}"` with
    /// prefix `[0, 3]` labels kernel 2 on GPU 1 `st0.L3.f.k2.gpu1`.
    pub fn push_kernels(
        &mut self,
        template: &'static str,
        prefix: &[u32],
        gpus: &[GpuId],
        kernels: &[KernelKind],
        first_deps: &[TaskId],
        op: impl Fn(&KernelKind) -> Op,
    ) -> Vec<TaskId> {
        let (ki_at, gpu_at) = (prefix.len(), prefix.len() + 1);
        debug_assert_eq!(Label::holes(template), gpu_at + 1, "{template}");
        let mut args = [0; MAX_LABEL_ARGS];
        args[..ki_at].copy_from_slice(prefix);
        let mut last = Vec::with_capacity(gpus.len());
        for &gpu in gpus {
            args[gpu_at] = u32::from(gpu.0);
            let mut id = None;
            for (ki, k) in kernels.iter().enumerate() {
                args[ki_at] = ki as u32;
                let mut spec =
                    TaskSpec::compute(Label::new(template, &args[..=gpu_at]), gpu, op(k));
                if ki == 0 {
                    spec.deps.extend_from_slice(first_deps);
                }
                id = Some(self.push(spec));
            }
            last.push(id.unwrap_or(TaskId(0)));
        }
        last
    }

    /// Finishes construction, serializing the schedule in
    /// [`ExecutionMode::Sequential`].
    pub fn build(self) -> Workload<Op> {
        match self.mode {
            ExecutionMode::Overlapped => self.workload,
            ExecutionMode::Sequential => self.workload.serialized(),
        }
    }

    /// Number of tasks pushed so far.
    pub fn len(&self) -> usize {
        self.workload.len()
    }

    /// Whether no task has been pushed.
    pub fn is_empty(&self) -> bool {
        self.workload.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ComputeOp;
    use olab_gpu::{Datapath, KernelKind, Precision};
    use olab_sim::{GpuId, StreamKind};

    fn op() -> Op {
        Op::Compute(ComputeOp::new(
            KernelKind::gemm(4, 4, 4),
            Precision::Fp16,
            Datapath::TensorCore,
        ))
    }

    #[test]
    fn sequential_mode_chains_across_streams() {
        let mut b = ScheduleBuilder::new(1, ExecutionMode::Sequential);
        let a = b.push(TaskSpec::compute("a", GpuId(0), op()));
        let c = b.push(TaskSpec::comm("c", GpuId(0), op()));
        let w = b.build();
        assert_eq!(w.tasks()[c.index()].deps, vec![a]);
    }

    #[test]
    fn overlapped_mode_adds_no_deps() {
        let mut b = ScheduleBuilder::new(1, ExecutionMode::Overlapped);
        b.push(TaskSpec::compute("a", GpuId(0), op()));
        let c = b.push(TaskSpec::comm("c", GpuId(0), op()));
        let w = b.build();
        assert!(w.tasks()[c.index()].deps.is_empty());
    }

    #[test]
    fn sequential_collectives_chain_on_every_participant() {
        let mut b = ScheduleBuilder::new(2, ExecutionMode::Sequential);
        let a0 = b.push(TaskSpec::compute("a0", GpuId(0), op()));
        let a1 = b.push(TaskSpec::compute("a1", GpuId(1), op()));
        let coll = b.push(TaskSpec::new(
            "ar",
            vec![GpuId(0), GpuId(1)],
            StreamKind::Comm,
            op(),
        ));
        let w = b.build();
        let deps = &w.tasks()[coll.index()].deps;
        assert!(deps.contains(&a0) && deps.contains(&a1));
    }
}
