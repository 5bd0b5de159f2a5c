//! Golden digests of every builder's task labels.
//!
//! Labels reach the Chrome-trace, obs-event and fault-event exporters as
//! rendered text, so each builder's rendering is pinned byte for byte: the
//! newline-joined labels of a timeline hash (FNV-1a, 64-bit) to a recorded
//! digest, next to the timeline's task count. The digests were recorded
//! from the `format!`-built labels the structured labels replaced.

use olab_gpu::{Datapath, GpuSku, Precision};
use olab_models::memory::ActivationPolicy;
use olab_models::ModelPreset;
use olab_net::Topology;
use olab_parallel::fsdp::{fsdp_timeline, FsdpOverlap, FsdpPlan};
use olab_parallel::moe::{moe_timeline, MoePlan};
use olab_parallel::pipeline::{pipeline_timeline, PipelinePlan, PipelineSchedule};
use olab_parallel::tensor::{tensor_timeline, TensorPlan};
use olab_parallel::{ExecutionMode, Op};
use olab_sim::Workload;

fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// `(digest of the newline-joined rendered labels, task count)`.
fn digest(w: &Workload<Op>) -> (u64, usize) {
    let text = w
        .tasks()
        .iter()
        .map(|t| t.label.to_string())
        .collect::<Vec<_>>()
        .join("\n");
    (fnv1a_64(text.as_bytes()), w.len())
}

fn node() -> (GpuSku, Topology) {
    let sku = GpuSku::h100();
    let topo = Topology::nvswitch(4, sku.link_bw_unidir_gbs, sku.link_latency_us);
    (sku, topo)
}

fn fsdp(accum: u32, prefetch: bool) -> Workload<Op> {
    let (sku, topo) = node();
    let mut plan = FsdpPlan::new(
        ModelPreset::Gpt3Xl.config(),
        4,
        4,
        256,
        Precision::Fp16,
        Datapath::TensorCore,
        ActivationPolicy::Full,
    );
    plan.grad_accum_steps = accum;
    plan.overlap = FsdpOverlap {
        prefetch_all_gather: prefetch,
        overlap_reduce_scatter: true,
    };
    fsdp_timeline(&plan, &sku, &topo, ExecutionMode::Overlapped)
}

fn pipeline(schedule: PipelineSchedule) -> Workload<Op> {
    let (sku, topo) = node();
    let plan = PipelinePlan {
        model: ModelPreset::Gpt3Xl.config(),
        stages: 4,
        microbatches: 4,
        batch_total: 16,
        seq: 256,
        precision: Precision::Fp16,
        datapath: Datapath::TensorCore,
        activation_policy: ActivationPolicy::Full,
        schedule,
    };
    pipeline_timeline(&plan, &sku, &topo, ExecutionMode::Overlapped)
}

fn tensor(policy: ActivationPolicy) -> Workload<Op> {
    let (sku, topo) = node();
    let plan = TensorPlan {
        model: ModelPreset::Gpt3Xl.config(),
        ranks: 4,
        batch: 4,
        seq: 256,
        precision: Precision::Fp16,
        datapath: Datapath::TensorCore,
        activation_policy: policy,
    };
    tensor_timeline(&plan, &sku, &topo, ExecutionMode::Overlapped)
}

/// MoE plans carry no activation policy; the two variants differ in the
/// all-to-all chunking, which is what its labels encode.
fn moe(chunks: u32) -> Workload<Op> {
    let (sku, topo) = node();
    let plan = MoePlan {
        model: ModelPreset::Gpt3Xl.config(),
        ranks: 4,
        batch_per_rank: 4,
        seq: 256,
        experts: 8,
        moe_every: 2,
        chunks,
        precision: Precision::Fp16,
        datapath: Datapath::TensorCore,
    };
    moe_timeline(&plan, &sku, &topo, ExecutionMode::Overlapped)
}

/// Prefetch changes only dependency edges, so both prefetch settings
/// share a digest.
#[test]
fn fsdp_labels_match_the_golden_digests() {
    const ACCUM_1: (u64, usize) = (0xc182_876e_aeb8_adad, 3184);
    const ACCUM_3: (u64, usize) = (0x0ba1_c4fb_b727_bd0d, 9688);
    assert_eq!(digest(&fsdp(1, true)), ACCUM_1, "accum 1, prefetch");
    assert_eq!(digest(&fsdp(1, false)), ACCUM_1, "accum 1, no prefetch");
    assert_eq!(digest(&fsdp(3, true)), ACCUM_3, "accum 3, prefetch");
    assert_eq!(digest(&fsdp(3, false)), ACCUM_3, "accum 3, no prefetch");
}

#[test]
fn pipeline_labels_match_the_golden_digests() {
    assert_eq!(
        digest(&pipeline(PipelineSchedule::OneFOneB)),
        (0x74af_e3f2_6abf_1c8d, 3137),
        "1F1B"
    );
    assert_eq!(
        digest(&pipeline(PipelineSchedule::GPipe)),
        (0x7625_e74b_41e0_b6eb, 3137),
        "GPipe"
    );
}

#[test]
fn tensor_labels_match_the_golden_digests() {
    assert_eq!(
        digest(&tensor(ActivationPolicy::Full)),
        (0xdb49_cd1d_ab85_6dd9, 2788),
        "full"
    );
    assert_eq!(
        digest(&tensor(ActivationPolicy::Recompute)),
        (0x9621_371f_e330_1361, 3748),
        "recompute"
    );
}

#[test]
fn moe_labels_match_the_golden_digests() {
    assert_eq!(digest(&moe(1)), (0xe1dd_114f_f92e_8e17, 3509), "1 chunk");
    assert_eq!(digest(&moe(4)), (0xa887_f484_9dba_d3af, 4949), "4 chunks");
}
