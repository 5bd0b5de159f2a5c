//! Differential test of sequential-mode serialization.
//!
//! Sequential schedules are built overlapped and then serialized by
//! [`Workload::serialized`]. This suite pins that pass to the push-time rule
//! it replaced: replaying the overlapped schedule through a reference
//! builder that chains each task after the previous task of every
//! participant *as it is pushed* must give the same workload, task for
//! task, with dependencies in the same order.

use olab_gpu::{Datapath, GpuSku, Precision};
use olab_models::memory::ActivationPolicy;
use olab_models::ModelPreset;
use olab_net::Topology;
use olab_parallel::fsdp::{fsdp_timeline, FsdpOverlap, FsdpPlan};
use olab_parallel::moe::{moe_timeline, MoePlan};
use olab_parallel::pipeline::{pipeline_timeline, PipelinePlan, PipelineSchedule};
use olab_parallel::tensor::{tensor_timeline, TensorPlan};
use olab_parallel::{ExecutionMode, Op};
use olab_sim::{TaskId, Workload};

const POLICIES: [ActivationPolicy; 2] = [ActivationPolicy::Full, ActivationPolicy::Recompute];

/// The push-time serialization rule: before a task is pushed, it gains an
/// edge to the last task pushed on each of its participants (in
/// participant order) unless it already depends on it.
fn push_time_reference(overlapped: &Workload<Op>) -> Workload<Op> {
    let mut out = Workload::new(overlapped.n_gpus());
    let mut last_on_gpu: Vec<Option<TaskId>> = vec![None; overlapped.n_gpus()];
    for task in overlapped.tasks() {
        let mut spec = task.clone();
        for &gpu in &spec.participants.clone() {
            if let Some(prev) = last_on_gpu[gpu.index()] {
                if !spec.deps.contains(&prev) {
                    spec.deps.push(prev);
                }
            }
        }
        let id = out.push(spec);
        for gpu in &out.tasks()[id.index()].participants {
            last_on_gpu[gpu.index()] = Some(id);
        }
    }
    out
}

/// Asserts the sequential build equals the reference replay of the
/// overlapped build, field by field.
fn assert_matches_reference(what: &str, build: impl Fn(ExecutionMode) -> Workload<Op>) {
    let overlapped = build(ExecutionMode::Overlapped);
    let sequential = build(ExecutionMode::Sequential);
    let reference = push_time_reference(&overlapped);

    assert_eq!(sequential.n_gpus(), reference.n_gpus(), "{what}");
    assert_eq!(sequential.len(), reference.len(), "{what}: task count");
    let mut added = 0;
    for (i, (got, want)) in sequential.tasks().iter().zip(reference.tasks()).enumerate() {
        let at = format!("{what}: task {i} ({})", want.label);
        assert_eq!(got.label, want.label, "{at}: label");
        assert_eq!(got.participants, want.participants, "{at}: participants");
        assert_eq!(got.stream, want.stream, "{at}: stream");
        assert_eq!(got.payload, want.payload, "{at}: payload");
        assert_eq!(got.deps, want.deps, "{at}: deps");
        added += got.deps.len() - overlapped.tasks()[i].deps.len();
    }
    assert!(added > 0, "{what}: serialization added no edges");
    sequential.validate().expect("valid DAG");
}

fn node(sku: GpuSku) -> (GpuSku, Topology) {
    let topo = Topology::nvswitch(4, sku.link_bw_unidir_gbs, sku.link_latency_us);
    (sku, topo)
}

#[test]
fn fsdp_matches_push_time_rule_under_every_overlap_policy() {
    let (sku, topo) = node(GpuSku::h100());
    for policy in POLICIES {
        for overlap in FsdpOverlap::all_policies() {
            for grad_accum_steps in [1, 3] {
                let mut plan = FsdpPlan::new(
                    ModelPreset::Gpt3Xl.config(),
                    4,
                    4,
                    256,
                    Precision::Fp16,
                    Datapath::TensorCore,
                    policy,
                );
                plan.overlap = overlap;
                plan.grad_accum_steps = grad_accum_steps;
                assert_matches_reference(
                    &format!("fsdp {policy:?} {overlap} accum {grad_accum_steps}"),
                    |mode| fsdp_timeline(&plan, &sku, &topo, mode),
                );
            }
        }
    }
}

#[test]
fn pipeline_matches_push_time_rule_under_both_schedules() {
    let (sku, topo) = node(GpuSku::a100());
    for policy in POLICIES {
        for schedule in [PipelineSchedule::OneFOneB, PipelineSchedule::GPipe] {
            let plan = PipelinePlan {
                model: ModelPreset::Gpt3Xl.config(),
                stages: 4,
                microbatches: 4,
                batch_total: 32,
                seq: 256,
                precision: Precision::Fp16,
                datapath: Datapath::TensorCore,
                activation_policy: policy,
                schedule,
            };
            assert_matches_reference(&format!("pipeline {policy:?} {schedule}"), |mode| {
                pipeline_timeline(&plan, &sku, &topo, mode)
            });
        }
    }
}

#[test]
fn tensor_matches_push_time_rule() {
    let (sku, topo) = node(GpuSku::h100());
    for policy in POLICIES {
        let plan = TensorPlan {
            model: ModelPreset::Gpt3Xl.config(),
            ranks: 4,
            batch: 8,
            seq: 256,
            precision: Precision::Fp16,
            datapath: Datapath::TensorCore,
            activation_policy: policy,
        };
        assert_matches_reference(&format!("tensor {policy:?}"), |mode| {
            tensor_timeline(&plan, &sku, &topo, mode)
        });
    }
}

/// MoE plans carry no activation policy; chunking is the schedule-shaping
/// knob instead (one chunk serializes all-to-all, four overlap it).
#[test]
fn moe_matches_push_time_rule() {
    let (sku, topo) = node(GpuSku::h100());
    for chunks in [1, 4] {
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
        assert_matches_reference(&format!("moe chunks {chunks}"), |mode| {
            moe_timeline(&plan, &sku, &topo, mode)
        });
    }
}
