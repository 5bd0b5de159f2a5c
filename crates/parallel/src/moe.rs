//! Mixture-of-Experts expert parallelism with all-to-all overlap.
//!
//! The paper's related work (Tutel, Lancet, Lina) optimizes MoE training by
//! overlapping the all-to-all exchanges of expert activations with expert
//! computation. This module reproduces that workload class:
//!
//! * every `moe_every`-th layer replaces its MLP with `experts` experts
//!   distributed across the ranks (expert parallelism); the remaining
//!   layers keep their dense MLP;
//! * tokens are routed top-1 and exchanged with an **all-to-all**, the
//!   experts run, and a second all-to-all brings results home;
//! * with [`MoePlan::chunks`] > 1 the token batch is split Tutel-style:
//!   chunk *c+1*'s dispatch overlaps chunk *c*'s expert compute, and
//!   combines overlap the next chunk — turning the exposed all-to-alls
//!   into hidden ones.

use crate::{ComputeOp, ExecutionMode, Op, ScheduleBuilder};
use olab_ccl::{lower, Algorithm, Collective, CollectiveKind};
use olab_gpu::{Datapath, GpuSku, KernelKind, Precision};
use olab_models::{ops, TransformerConfig};
use olab_net::Topology;
use olab_sim::{label, GpuId, Label, Participants, TaskId, TaskSpec, Workload};

/// Label templates of one pass, with the pass letter (`f` or `b`) baked in.
/// Kernel templates end in the kernel and GPU holes
/// [`ScheduleBuilder::push_kernels`] fills.
struct PassLabels {
    /// Kernel-cost multiplier (backward = dgrad + wgrad).
    cost: u32,
    attn: &'static str,
    router: &'static str,
    dispatch: &'static str,
    expert: &'static str,
    combine: &'static str,
    residual: &'static str,
    mlp: &'static str,
}

const PASSES: [PassLabels; 2] = [
    PassLabels {
        cost: 1,
        attn: "L{}.f{}.attn.k{}.gpu{}",
        router: "L{}.f.router.k{}.gpu{}",
        dispatch: "a2a.d.L{}.f.c{}",
        expert: "L{}.f.exp.c{}.k{}.gpu{}",
        combine: "a2a.c.L{}.f.c{}",
        residual: "L{}.f.res.k{}.gpu{}",
        mlp: "L{}.f{}.mlp.k{}.gpu{}",
    },
    PassLabels {
        cost: 2,
        attn: "L{}.b{}.attn.k{}.gpu{}",
        router: "L{}.b.router.k{}.gpu{}",
        dispatch: "a2a.d.L{}.b.c{}",
        expert: "L{}.b.exp.c{}.k{}.gpu{}",
        combine: "a2a.c.L{}.b.c{}",
        residual: "L{}.b.res.k{}.gpu{}",
        mlp: "L{}.b{}.mlp.k{}.gpu{}",
    },
];

const _: () = {
    let mut p = 0;
    while p < PASSES.len() {
        let t = &PASSES[p];
        assert!(Label::holes(t.attn) == 4 && Label::holes(t.mlp) == 4);
        assert!(Label::holes(t.router) == 3 && Label::holes(t.residual) == 3);
        assert!(Label::holes(t.expert) == 4);
        assert!(Label::holes(t.dispatch) == 2 && Label::holes(t.combine) == 2);
        p += 1;
    }
};

/// Configuration of one MoE training iteration.
#[derive(Debug, Clone)]
pub struct MoePlan {
    /// The base (dense) architecture; MoE layers reuse its shapes.
    pub model: TransformerConfig,
    /// Expert-parallel ranks (= GPUs).
    pub ranks: usize,
    /// Per-rank batch size.
    pub batch_per_rank: u64,
    /// Sequence length.
    pub seq: u64,
    /// Total experts (must divide by `ranks`).
    pub experts: u32,
    /// Every `moe_every`-th layer is an MoE layer (2 = GShard-style).
    pub moe_every: u32,
    /// All-to-all/compute chunking factor (1 = no overlap, Tutel uses 2–4).
    pub chunks: u32,
    /// Training precision.
    pub precision: Precision,
    /// Datapath for matrix kernels.
    pub datapath: Datapath,
}

impl MoePlan {
    /// Bytes of one full dispatch (all tokens' activations).
    pub fn dispatch_bytes(&self) -> u64 {
        self.batch_per_rank * self.seq * self.model.hidden * self.precision.bytes()
    }

    /// Number of MoE layers in the model.
    pub fn moe_layers(&self) -> u32 {
        self.model.layers / self.moe_every
    }
}

/// Builds the task DAG of one MoE iteration.
///
/// # Panics
///
/// Panics if `ranks < 2`, `experts` does not divide by `ranks`, `chunks`
/// is zero, or the topology is smaller than `ranks`.
pub fn moe_timeline(
    plan: &MoePlan,
    sku: &GpuSku,
    topo: &Topology,
    mode: ExecutionMode,
) -> Workload<Op> {
    assert!(plan.ranks >= 2, "expert parallelism needs at least 2 ranks");
    assert!(plan.chunks >= 1, "need at least one chunk");
    assert_eq!(
        plan.experts as usize % plan.ranks,
        0,
        "experts must divide across ranks"
    );
    assert!(topo.n_gpus() >= plan.ranks, "topology too small");

    let n = plan.ranks;
    let gpus: Vec<GpuId> = (0..n as u16).map(GpuId).collect();
    let group = Participants::from(gpus.clone());
    let layers = plan.model.layers as usize;
    let mut b = ScheduleBuilder::new(n, mode);

    let compute_op =
        |k: &KernelKind| Op::Compute(ComputeOp::new(*k, plan.precision, plan.datapath));
    let all_to_all = |bytes: u64| {
        let c = Collective::new(CollectiveKind::AllToAll, bytes, gpus.clone());
        Op::Comm(lower(&c, Algorithm::Direct, sku, topo, plan.precision))
    };

    let dense = ops::layer_kernels(&plan.model, plan.batch_per_rank, plan.seq);
    let t = plan.batch_per_rank * plan.seq;
    let h = plan.model.hidden;
    let chunk_tokens = (t / u64::from(plan.chunks)).max(1);
    let chunk_bytes = plan.dispatch_bytes() / u64::from(plan.chunks);

    // Attention sub-block of the dense layer (first 7 kernels: LN, QKV,
    // scores, softmax, context, proj, residual).
    let attn_fwd: Vec<KernelKind> = dense.forward[..7].to_vec();
    let router = vec![
        KernelKind::Gemm {
            m: t,
            n: u64::from(plan.experts),
            k: h,
        },
        KernelKind::Softmax {
            rows: t,
            cols: u64::from(plan.experts),
        },
    ];
    // One chunk's expert FFN (tokens are balanced across ranks, so each
    // rank computes `chunk_tokens` tokens' worth of expert work).
    let expert_chunk = [
        KernelKind::Gemm {
            m: chunk_tokens,
            n: plan.model.ffn_hidden,
            k: h,
        },
        KernelKind::Elementwise {
            elems: chunk_tokens * plan.model.ffn_hidden,
            flops_per_elem: 8,
            streams: 2,
        },
        KernelKind::Gemm {
            m: chunk_tokens,
            n: h,
            k: plan.model.ffn_hidden,
        },
    ];

    // Forward + backward, layer by layer. Backward reuses the forward
    // structure at 2x kernel cost (dgrad + wgrad), with the all-to-alls
    // reversed — close enough for the characterization workload, which
    // cares about the comm/compute interleaving, not autograd detail.
    let mut barrier: Vec<TaskId> = Vec::new();
    let mut moe_layer_sequence: Vec<bool> = Vec::new();
    for i in 0..layers {
        moe_layer_sequence
            .push(plan.moe_every > 0 && (i as u32 + 1).is_multiple_of(plan.moe_every));
    }

    for pass in &PASSES {
        let layer_order: Vec<usize> = if pass.cost == 1 {
            (0..layers).collect()
        } else {
            (0..layers).rev().collect()
        };
        let cost = pass.cost;
        for &i in &layer_order {
            let li = i as u32;
            // Attention block (dense backward cost modeled by repetition).
            for rep in 0..cost {
                barrier = b.push_kernels(
                    pass.attn,
                    &[li, rep],
                    &gpus,
                    &attn_fwd,
                    &barrier,
                    compute_op,
                );
            }
            if moe_layer_sequence[i] {
                barrier = b.push_kernels(pass.router, &[li], &gpus, &router, &barrier, compute_op);
                // Chunked dispatch -> expert -> combine pipeline.
                let mut prev_dispatch: Option<TaskId> = None;
                let mut expert_done: Vec<Vec<TaskId>> = Vec::new();
                let mut combines: Vec<TaskId> = Vec::new();
                for c in 0..plan.chunks {
                    let mut spec = TaskSpec::collective(
                        Label::new(pass.dispatch, &[li, c]),
                        group.clone(),
                        all_to_all(chunk_bytes),
                    );
                    if c == 0 {
                        spec.deps.extend(barrier.iter().copied());
                    } else if let Some(prev) = prev_dispatch {
                        spec.deps.push(prev);
                    }
                    let dispatch = b.push(spec);
                    prev_dispatch = Some(dispatch);

                    let mut expert_kernels = Vec::new();
                    for _ in 0..cost {
                        expert_kernels.extend(expert_chunk.iter().copied());
                    }
                    let done = b.push_kernels(
                        pass.expert,
                        &[li, c],
                        &gpus,
                        &expert_kernels,
                        &[dispatch],
                        compute_op,
                    );
                    expert_done.push(done);
                }
                for (c, done) in (0u32..).zip(&expert_done) {
                    let mut spec = TaskSpec::collective(
                        Label::new(pass.combine, &[li, c]),
                        group.clone(),
                        all_to_all(chunk_bytes),
                    );
                    spec.deps.extend(done.iter().copied());
                    combines.push(b.push(spec));
                }
                let residual = KernelKind::Elementwise {
                    elems: t * h,
                    flops_per_elem: 1,
                    streams: 3,
                };
                barrier = b.push_kernels(
                    pass.residual,
                    &[li],
                    &gpus,
                    std::slice::from_ref(&residual),
                    &combines,
                    compute_op,
                );
            } else {
                // Dense MLP block (remaining forward kernels).
                let mlp: Vec<KernelKind> = dense.forward[7..].to_vec();
                for rep in 0..cost {
                    barrier =
                        b.push_kernels(pass.mlp, &[li, rep], &gpus, &mlp, &barrier, compute_op);
                }
            }
        }
    }

    // Data-parallel gradient sync for the replicated (non-expert) weights.
    let dense_params: u64 = plan.model.layer_params() / 2 * u64::from(plan.model.layers);
    let mut spec = TaskSpec::collective("ar.dense", group.clone(), {
        let c = Collective::all_reduce(dense_params * plan.precision.bytes(), gpus.clone());
        let algo = Algorithm::auto(c.kind, c.bytes, c.group_size());
        Op::Comm(lower(&c, algo, sku, topo, plan.precision))
    });
    spec.deps.extend(barrier.iter().copied());
    let sync = b.push(spec);

    let shard_params = plan.model.param_count() / n as u64;
    for gpu in &gpus {
        let mut opt = TaskSpec::compute(
            label!("adam.gpu{}", gpu.0),
            *gpu,
            compute_op(&KernelKind::AdamStep {
                params: shard_params,
            }),
        );
        opt.deps.push(sync);
        b.push(opt);
    }

    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use olab_models::ModelPreset;

    fn plan(chunks: u32) -> MoePlan {
        MoePlan {
            model: ModelPreset::Gpt3Xl.config(),
            ranks: 4,
            batch_per_rank: 4,
            seq: 256,
            experts: 8,
            moe_every: 2,
            chunks,
            precision: Precision::Fp16,
            datapath: Datapath::TensorCore,
        }
    }

    fn node() -> (GpuSku, Topology) {
        let sku = GpuSku::h100();
        let topo = Topology::nvswitch(4, sku.link_bw_unidir_gbs, sku.link_latency_us);
        (sku, topo)
    }

    #[test]
    fn a2a_count_scales_with_chunks_and_moe_layers() {
        let (sku, topo) = node();
        for chunks in [1u32, 2, 4] {
            let p = plan(chunks);
            let w = moe_timeline(&p, &sku, &topo, ExecutionMode::Overlapped);
            let a2a = w
                .tasks()
                .iter()
                .filter(|t| t.label.to_string().starts_with("a2a."))
                .count() as u32;
            // dispatch + combine per chunk, forward and backward.
            assert_eq!(a2a, p.moe_layers() * chunks * 2 * 2, "chunks {chunks}");
        }
    }

    #[test]
    fn chunking_preserves_total_bytes_and_flops() {
        let (sku, topo) = node();
        let sum = |w: &Workload<Op>| -> (f64, f64) {
            let bytes: f64 = w
                .tasks()
                .iter()
                .filter_map(|t| t.payload.as_comm())
                .map(|c| c.wire_bytes_per_rank)
                .sum();
            let flops: f64 = w
                .tasks()
                .iter()
                .filter_map(|t| t.payload.as_compute())
                .map(|c| c.kernel.flops())
                .sum();
            (bytes, flops)
        };
        let (b1, f1) = sum(&moe_timeline(
            &plan(1),
            &sku,
            &topo,
            ExecutionMode::Overlapped,
        ));
        let (b4, f4) = sum(&moe_timeline(
            &plan(4),
            &sku,
            &topo,
            ExecutionMode::Overlapped,
        ));
        assert!((b1 / b4 - 1.0).abs() < 0.01, "bytes {b1} vs {b4}");
        assert!((f1 / f4 - 1.0).abs() < 0.01, "flops {f1} vs {f4}");
    }

    #[test]
    fn moe_every_2_makes_half_the_layers_sparse() {
        let p = plan(2);
        assert_eq!(p.moe_layers(), p.model.layers / 2);
    }

    #[test]
    fn both_modes_validate() {
        let (sku, topo) = node();
        for mode in ExecutionMode::ALL {
            moe_timeline(&plan(2), &sku, &topo, mode)
                .validate()
                .expect("valid DAG");
        }
    }

    #[test]
    #[should_panic(expected = "experts must divide")]
    fn indivisible_experts_are_rejected() {
        let (sku, topo) = node();
        let mut p = plan(2);
        p.experts = 6;
        moe_timeline(&p, &sku, &topo, ExecutionMode::Overlapped);
    }
}
