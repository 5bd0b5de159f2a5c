//! Megatron-style tensor (intra-layer) parallelism.
//!
//! Every transformer layer is sharded across all ranks: the QKV and MLP-up
//! projections are column-parallel, the output and MLP-down projections
//! row-parallel. Each layer therefore ends in an **all-reduce of the
//! activations** in the forward pass (2 per layer) and of the input
//! gradients in the backward pass (2 per layer).
//!
//! Forward all-reduces sit on the critical path — nothing is available to
//! hide them under (this is exactly the gap the paper's Domino citation
//! attacks with tensor slicing). Backward all-reduces *can* overlap: the
//! weight-gradient GEMMs have no downstream consumer until the optimizer,
//! so Megatron launches the input-gradient all-reduce and computes wgrads
//! concurrently — reproduced here by splitting each layer's backward into
//! dgrad / wgrad halves around the collective.

use crate::{ComputeOp, ExecutionMode, Op, ScheduleBuilder};
use olab_ccl::{lower, Algorithm, Collective};
use olab_gpu::{Datapath, GpuSku, KernelKind, Precision};
use olab_models::memory::ActivationPolicy;
use olab_models::{Family, TransformerConfig};
use olab_net::Topology;
use olab_sim::{label, GpuId, Label, Participants, TaskId, TaskSpec, Workload};

/// Configuration of one tensor-parallel training iteration.
#[derive(Debug, Clone)]
pub struct TensorPlan {
    /// The model to train.
    pub model: TransformerConfig,
    /// Tensor-parallel ranks (= GPUs); must divide the head count.
    pub ranks: usize,
    /// Global batch size (every rank sees every sample).
    pub batch: u64,
    /// Sequence length.
    pub seq: u64,
    /// Training precision.
    pub precision: Precision,
    /// Datapath for matrix kernels.
    pub datapath: Datapath,
    /// Whether activations are recomputed in the backward pass.
    pub activation_policy: ActivationPolicy,
}

impl TensorPlan {
    /// Bytes of one boundary activation tensor (the all-reduce payload).
    pub fn activation_bytes(&self) -> u64 {
        self.batch * self.seq * self.model.hidden * self.precision.bytes()
    }
}

/// Per-rank kernels of one tensor-parallel layer, split at the collective
/// boundaries.
struct TpLayer {
    /// Attention block: LN, col-parallel QKV, attention, row-parallel proj.
    attn_forward: Vec<KernelKind>,
    /// MLP block: LN, col-parallel up, activation, row-parallel down.
    mlp_forward: Vec<KernelKind>,
    /// Residual adds after each block's all-reduce.
    residual: KernelKind,
    /// dgrad halves (produce the input gradients the all-reduce needs).
    mlp_dgrad: Vec<KernelKind>,
    attn_dgrad: Vec<KernelKind>,
    /// wgrad halves (free to overlap the all-reduces).
    mlp_wgrad: Vec<KernelKind>,
    attn_wgrad: Vec<KernelKind>,
}

fn tp_layer(cfg: &TransformerConfig, ranks: u64, batch: u64, seq: u64) -> TpLayer {
    let t = batch * seq;
    let h = cfg.hidden;
    let hd = cfg.head_dim();
    let heads_local = u64::from(cfg.heads) / ranks;
    let bh = batch * heads_local;
    let ffn_local = cfg.ffn_hidden / ranks;

    let attn_forward = vec![
        KernelKind::LayerNorm { elems: t * h },
        KernelKind::Gemm {
            m: t,
            n: 3 * h / ranks,
            k: h,
        }, // col-parallel QKV
        KernelKind::BatchedGemm {
            batch: bh,
            m: seq,
            n: seq,
            k: hd,
        },
        KernelKind::Softmax {
            rows: bh * seq,
            cols: seq,
        },
        KernelKind::BatchedGemm {
            batch: bh,
            m: seq,
            n: hd,
            k: seq,
        },
        KernelKind::Gemm {
            m: t,
            n: h,
            k: h / ranks,
        }, // row-parallel proj
    ];
    let mlp_forward = match cfg.family {
        Family::Gpt => vec![
            KernelKind::LayerNorm { elems: t * h },
            KernelKind::Gemm {
                m: t,
                n: ffn_local,
                k: h,
            },
            KernelKind::Elementwise {
                elems: t * ffn_local,
                flops_per_elem: 8,
                streams: 2,
            },
            KernelKind::Gemm {
                m: t,
                n: h,
                k: ffn_local,
            },
        ],
        Family::Llama => vec![
            KernelKind::LayerNorm { elems: t * h },
            KernelKind::Gemm {
                m: t,
                n: 2 * ffn_local,
                k: h,
            },
            KernelKind::Elementwise {
                elems: t * ffn_local,
                flops_per_elem: 6,
                streams: 3,
            },
            KernelKind::Gemm {
                m: t,
                n: h,
                k: ffn_local,
            },
        ],
    };
    let residual = KernelKind::Elementwise {
        elems: t * h,
        flops_per_elem: 1,
        streams: 3,
    };

    // Backward: dgrad = dY·Wᵀ per GEMM, wgrad = Xᵀ·dY; non-GEMM kernels'
    // backward goes into the dgrad half (it is on the gradient path).
    let split = |forward: &[KernelKind]| -> (Vec<KernelKind>, Vec<KernelKind>) {
        let mut dgrad = Vec::new();
        let mut wgrad = Vec::new();
        for k in forward.iter().rev() {
            match *k {
                KernelKind::Gemm { m, n, k } => {
                    dgrad.push(KernelKind::Gemm { m, n: k, k: n });
                    wgrad.push(KernelKind::Gemm { m: k, n, k: m });
                }
                KernelKind::BatchedGemm { batch, m, n, k } => {
                    dgrad.push(KernelKind::BatchedGemm {
                        batch,
                        m,
                        n: k,
                        k: n,
                    });
                    wgrad.push(KernelKind::BatchedGemm {
                        batch,
                        m: k,
                        n,
                        k: m,
                    });
                }
                other => dgrad.push(other),
            }
        }
        (dgrad, wgrad)
    };
    let (mlp_dgrad, mlp_wgrad) = split(&mlp_forward);
    let (attn_dgrad, attn_wgrad) = split(&attn_forward);

    TpLayer {
        attn_forward,
        mlp_forward,
        residual,
        mlp_dgrad,
        attn_dgrad,
        mlp_wgrad,
        attn_wgrad,
    }
}

/// Builds the task DAG of one tensor-parallel iteration.
///
/// # Panics
///
/// Panics if `ranks < 2`, the head count or MLP width is not divisible by
/// `ranks`, or the topology is smaller than `ranks`.
pub fn tensor_timeline(
    plan: &TensorPlan,
    sku: &GpuSku,
    topo: &Topology,
    mode: ExecutionMode,
) -> Workload<Op> {
    assert!(plan.ranks >= 2, "tensor parallelism needs at least 2 ranks");
    assert!(topo.n_gpus() >= plan.ranks, "topology too small");
    let ranks = plan.ranks as u64;
    assert_eq!(
        u64::from(plan.model.heads) % ranks,
        0,
        "head count must divide across ranks"
    );
    assert_eq!(
        plan.model.ffn_hidden % ranks,
        0,
        "MLP width must divide across ranks"
    );

    let n = plan.ranks;
    let gpus: Vec<GpuId> = (0..n as u16).map(GpuId).collect();
    let group = Participants::from(gpus.clone());
    let layers = plan.model.layers as usize;
    let mut b = ScheduleBuilder::new(n, mode);

    let compute_op =
        |k: &KernelKind| Op::Compute(ComputeOp::new(*k, plan.precision, plan.datapath));
    let allreduce = |bytes: u64| {
        let c = Collective::all_reduce(bytes, gpus.clone());
        let algo = Algorithm::auto_for(c.kind, c.bytes, &c.group, topo);
        Op::Comm(lower(&c, algo, sku, topo, plan.precision))
    };

    let layer = tp_layer(&plan.model, ranks, plan.batch, plan.seq);
    let act_bytes = plan.activation_bytes();

    let push_allreduce = |b: &mut ScheduleBuilder, label: Label, deps: &[TaskId]| -> TaskId {
        let mut spec = TaskSpec::collective(label, group.clone(), allreduce(act_bytes));
        spec.deps.extend_from_slice(deps);
        b.push(spec)
    };
    let residual = std::slice::from_ref(&layer.residual);

    // ---- Forward ----
    // Forward all-reduces are on the critical path: the residual add needs
    // the reduced activations.
    let mut fwd_barrier: Vec<TaskId> = Vec::new(); // carried dependency between blocks
    for i in 0..layers {
        let li = i as u32;
        let attn = b.push_kernels(
            "L{}.f.attn.k{}.gpu{}",
            &[li],
            &gpus,
            &layer.attn_forward,
            &fwd_barrier,
            compute_op,
        );
        let ar1 = push_allreduce(&mut b, label!("ar.f1.L{}", i), &attn);
        let res1 = b.push_kernels(
            "L{}.f.res1.k{}.gpu{}",
            &[li],
            &gpus,
            residual,
            &[ar1],
            compute_op,
        );
        let mlp = b.push_kernels(
            "L{}.f.mlp.k{}.gpu{}",
            &[li],
            &gpus,
            &layer.mlp_forward,
            &res1,
            compute_op,
        );
        let ar2 = push_allreduce(&mut b, label!("ar.f2.L{}", i), &mlp);
        fwd_barrier = b.push_kernels(
            "L{}.f.res2.k{}.gpu{}",
            &[li],
            &gpus,
            residual,
            &[ar2],
            compute_op,
        );
    }

    // ---- Backward ----
    // Recomputation replays the layer's forward before its backward.
    let mut bwd_barrier: Vec<TaskId> = fwd_barrier.clone();
    for i in (0..layers).rev() {
        let li = i as u32;
        if plan.activation_policy == ActivationPolicy::Recompute {
            let ra = b.push_kernels(
                "L{}.rc.attn.k{}.gpu{}",
                &[li],
                &gpus,
                &layer.attn_forward,
                &bwd_barrier,
                compute_op,
            );
            bwd_barrier = b.push_kernels(
                "L{}.rc.mlp.k{}.gpu{}",
                &[li],
                &gpus,
                &layer.mlp_forward,
                &ra,
                compute_op,
            );
        }
        // MLP backward: dgrads produce the input gradient; the all-reduce
        // of that gradient overlaps the wgrads.
        let mlp_dgrad = b.push_kernels(
            "L{}.b.mlp.dgrad.k{}.gpu{}",
            &[li],
            &gpus,
            &layer.mlp_dgrad,
            &bwd_barrier,
            compute_op,
        );
        let ar_b2 = push_allreduce(&mut b, label!("ar.b2.L{}", i), &mlp_dgrad);
        let _mlp_wgrad = b.push_kernels(
            "L{}.b.mlp.wgrad.k{}.gpu{}",
            &[li],
            &gpus,
            &layer.mlp_wgrad,
            &[],
            compute_op,
        );

        // Attention backward needs the reduced MLP input gradient.
        let attn_dgrad = b.push_kernels(
            "L{}.b.attn.dgrad.k{}.gpu{}",
            &[li],
            &gpus,
            &layer.attn_dgrad,
            &[ar_b2],
            compute_op,
        );
        let ar_b1 = push_allreduce(&mut b, label!("ar.b1.L{}", i), &attn_dgrad);
        let _attn_wgrad = b.push_kernels(
            "L{}.b.attn.wgrad.k{}.gpu{}",
            &[li],
            &gpus,
            &layer.attn_wgrad,
            &[],
            compute_op,
        );
        bwd_barrier = vec![ar_b1];
        // Next layer's backward must also follow this layer's wgrads only
        // through stream order (same compute stream), which is implicit.
    }

    // ---- Optimizer: each rank owns 1/N of the parameters ----
    let shard_params = plan.model.param_count() / ranks;
    for gpu in &gpus {
        let mut spec = TaskSpec::compute(
            label!("adam.gpu{}", gpu.0),
            *gpu,
            compute_op(&KernelKind::AdamStep {
                params: shard_params,
            }),
        );
        spec.deps.extend(bwd_barrier.iter().copied());
        b.push(spec);
    }

    b.build()
}

/// Number of all-reduces one tensor-parallel iteration issues:
/// 2 forward + 2 backward per layer.
pub fn collective_count(layers: u32) -> u32 {
    4 * layers
}

#[cfg(test)]
mod tests {
    use super::*;
    use olab_models::ModelPreset;

    fn plan() -> TensorPlan {
        TensorPlan {
            model: ModelPreset::Gpt3Xl.config(),
            ranks: 4,
            batch: 8,
            seq: 256,
            precision: Precision::Fp16,
            datapath: Datapath::TensorCore,
            activation_policy: ActivationPolicy::Full,
        }
    }

    fn node() -> (GpuSku, Topology) {
        let sku = GpuSku::h100();
        let topo = Topology::nvswitch(4, sku.link_bw_unidir_gbs, sku.link_latency_us);
        (sku, topo)
    }

    #[test]
    fn collective_count_is_four_per_layer() {
        let (sku, topo) = node();
        let w = tensor_timeline(&plan(), &sku, &topo, ExecutionMode::Overlapped);
        let comms = w
            .tasks()
            .iter()
            .filter(|t| matches!(t.payload, Op::Comm(_)))
            .count();
        assert_eq!(comms as u32, collective_count(plan().model.layers));
    }

    #[test]
    fn per_rank_compute_shrinks_with_ranks() {
        let cfg = ModelPreset::Gpt3Xl.config();
        let l4 = tp_layer(&cfg, 4, 8, 256);
        let l2 = tp_layer(&cfg, 2, 8, 256);
        let flops = |l: &TpLayer| -> f64 {
            l.attn_forward
                .iter()
                .chain(&l.mlp_forward)
                .map(|k| k.flops())
                .sum()
        };
        // Per-rank FLOPs roughly halve going from 2 to 4 ranks (LayerNorms
        // and attention softmax stay replicated/sharded differently).
        let ratio = flops(&l2) / flops(&l4);
        assert!((1.6..2.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn dgrad_and_wgrad_halves_cover_the_backward() {
        let cfg = ModelPreset::Gpt3Xl.config();
        let l = tp_layer(&cfg, 4, 8, 256);
        let fwd: f64 = l
            .attn_forward
            .iter()
            .chain(&l.mlp_forward)
            .map(|k| k.flops())
            .sum();
        let bwd: f64 = l
            .mlp_dgrad
            .iter()
            .chain(&l.attn_dgrad)
            .chain(&l.mlp_wgrad)
            .chain(&l.attn_wgrad)
            .map(|k| k.flops())
            .sum();
        let ratio = bwd / fwd;
        assert!((1.8..2.3).contains(&ratio), "backward/forward {ratio}");
    }

    #[test]
    fn both_modes_validate() {
        let (sku, topo) = node();
        for mode in ExecutionMode::ALL {
            tensor_timeline(&plan(), &sku, &topo, mode)
                .validate()
                .expect("valid DAG");
        }
    }

    #[test]
    fn recompute_adds_forward_replays() {
        let (sku, topo) = node();
        let mut p = plan();
        let full = tensor_timeline(&p, &sku, &topo, ExecutionMode::Overlapped).len();
        p.activation_policy = ActivationPolicy::Recompute;
        let ckpt = tensor_timeline(&p, &sku, &topo, ExecutionMode::Overlapped).len();
        assert!(ckpt > full);
    }

    #[test]
    #[should_panic(expected = "head count must divide")]
    fn indivisible_heads_are_rejected() {
        let (sku, topo) = node();
        let mut p = plan();
        p.ranks = 3;
        let topo3 = topo;
        tensor_timeline(&p, &sku, &topo3, ExecutionMode::Overlapped);
    }
}
