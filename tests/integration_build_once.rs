//! `Experiment::run` builds each cell's schedule once: the overlapped and
//! ideal legs share the overlapped workload and the sequential leg runs it
//! serialized in place. This suite pins that the single build reports
//! exactly what three independent builds (one per leg) report, bit for bit.

use olab_core::{
    execute, execute_lean, CellMetrics, Experiment, ExperimentReport, Jitter, Machine,
    OverlapMetrics, Strategy,
};
use olab_gpu::SkuKind;
use olab_models::memory::ActivationPolicy;
use olab_models::ModelPreset;
use olab_parallel::ExecutionMode;

fn small(sku: SkuKind, model: ModelPreset, strategy: Strategy) -> Experiment {
    Experiment::new(sku, 4, model, strategy, 8).with_seq(256)
}

/// One FSDP and one pipeline cell per SKU, a tensor-parallel cell and a
/// cell that needs activation recomputation.
fn cells() -> Vec<Experiment> {
    let mut cells = Vec::new();
    for sku in SkuKind::ALL {
        cells.push(small(sku, ModelPreset::Gpt3Xl, Strategy::Fsdp));
        cells.push(small(
            sku,
            ModelPreset::Gpt3Xl,
            Strategy::Pipeline { microbatch_size: 2 },
        ));
    }
    cells.push(small(
        SkuKind::H100,
        ModelPreset::Gpt3Xl,
        Strategy::TensorParallel,
    ));
    cells.push(recompute_cell());
    cells
}

fn recompute_cell() -> Experiment {
    small(SkuKind::H100, ModelPreset::Gpt3_13B, Strategy::Fsdp)
}

/// The three-build reference: every leg builds its own schedule in its
/// own mode, in the order overlapped, sequential, ideal.
fn three_build_reference(exp: &Experiment, machine: &Machine) -> ExperimentReport {
    let policy = exp.validate().expect("cell fits");
    let build = |mode| exp.timeline(mode, policy).expect("timeline builds");
    let overlapped = execute(&build(ExecutionMode::Overlapped), machine).unwrap();
    let sequential = execute(&build(ExecutionMode::Sequential), machine).unwrap();
    let ideal = execute_lean(&build(ExecutionMode::Overlapped), &machine.uncontended()).unwrap();
    let sampled = overlapped.gpus[0].power.sample(exp.sampler());
    ExperimentReport {
        experiment: exp.clone(),
        activation_policy: policy,
        metrics: OverlapMetrics::derive(&overlapped, &sequential),
        sampled_avg_w: sampled.average().unwrap_or(0.0),
        sampled_peak_w: sampled.peak().unwrap_or(0.0),
        ideal_simulated_e2e_s: ideal.e2e_s,
        overlapped,
        sequential,
    }
}

fn assert_bit_identical(what: &str, got: &ExperimentReport, want: &ExperimentReport) {
    assert_eq!(
        CellMetrics::from_report(got),
        CellMetrics::from_report(want),
        "{what}: cell metrics"
    );
    for (name, g, w) in [
        (
            "ideal_simulated_e2e_s",
            got.ideal_simulated_e2e_s,
            want.ideal_simulated_e2e_s,
        ),
        ("sampled_avg_w", got.sampled_avg_w, want.sampled_avg_w),
        ("sampled_peak_w", got.sampled_peak_w, want.sampled_peak_w),
        (
            "sequential e2e_s",
            got.sequential.e2e_s,
            want.sequential.e2e_s,
        ),
    ] {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: {name} {g} vs {w}");
    }
}

#[test]
fn run_matches_three_independent_builds() {
    let cells = cells();
    assert_eq!(
        recompute_cell().validate().unwrap(),
        ActivationPolicy::Recompute,
        "the recompute cell must select recomputation"
    );
    for exp in &cells {
        let got = exp.run().unwrap_or_else(|e| panic!("{exp}: {e}"));
        let want = three_build_reference(exp, &exp.machine());
        assert_bit_identical(&exp.label(), &got, &want);
    }
}

#[test]
fn run_jittered_matches_three_independent_builds() {
    let (seed, sigma) = (7, 0.05);
    for exp in [
        small(SkuKind::H100, ModelPreset::Gpt3Xl, Strategy::Fsdp),
        small(
            SkuKind::Mi250,
            ModelPreset::Gpt3Xl,
            Strategy::Pipeline { microbatch_size: 2 },
        ),
    ] {
        let got = exp.run_jittered(seed, sigma).unwrap();
        let machine = exp.machine().with_jitter(Jitter { seed, sigma });
        let want = three_build_reference(&exp, &machine);
        assert_bit_identical(&exp.label(), &got, &want);
    }
}
