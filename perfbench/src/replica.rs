//! The traced replica: re-drives a cell through the same public steps the
//! program takes, with a span around each call into a crate.
//!
//! `run_cell` mirrors `Experiment::run` (validate, three schedule builds,
//! two full legs and a lean ideal leg on the uncontended machine, then
//! derive and sample); `run_fault_cell` mirrors `olab_faults::run_with_faults`
//! (validate, one build, the fault-free leg, timeline expansion, the faulty
//! leg under `FaultyMachine`, then the scorecard). The callers check that
//! the replica's results equal the sweep's, so the replica stays faithful.
//!
//! A leg's span is named after the route the executor's counters report
//! for it: `core.fast_path` when the analytic path served it, otherwise
//! `sim.event_loop`.

use crate::trace::Tracer;
use olab_core::{
    execute, execute_lean, execute_model, fastpath, CellClassifier, CellError, CellMetrics,
    CellOutcome, Experiment, ExperimentError, ExperimentReport, Machine, OverlapMetrics, RunResult,
};
use olab_faults::{
    CachedFaultCell, FaultCell, FaultStats, FaultTimeline, FaultyMachine, ResilienceMetrics,
};
use olab_models::memory::ActivationPolicy;
use olab_parallel::{ExecutionMode, Op};
use olab_sim::{SimError, Workload};

/// Work counted over one pass of the replica.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    /// Tasks in every schedule built (sum of `Workload::len`).
    pub tasks: u64,
    pub event_loop_legs: u64,
    /// Tasks of the schedules the event loop simulated.
    pub event_loop_tasks: u64,
    pub fast_legs: u64,
    /// Legs the fast-path classifier called eligible (classifying passes
    /// only).
    pub eligible_legs: u64,
    /// Eligible legs that still ended on the event loop: the speculative
    /// closed-form schedule was built and thrown away.
    pub fallbacks: u64,
    /// Cells that stopped at validation.
    pub infeasible: u64,
    /// Simulated end-to-end seconds of every leg.
    pub simulated_s: f64,
}

fn build(
    exp: &Experiment,
    mode: ExecutionMode,
    policy: ActivationPolicy,
    id: u64,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> Result<Workload<Op>, ExperimentError> {
    let open = tr.begin(id);
    let workload = exp.timeline(mode, policy);
    tr.end(open, "parallel.build");
    let workload = workload?;
    counts.tasks += workload.len() as u64;
    Ok(workload)
}

/// Runs one leg on a plain `Machine`, naming its span by route.
fn leg<R>(
    id: u64,
    tr: &mut Tracer,
    counts: &mut Counts,
    workload: &Workload<Op>,
    machine: &Machine,
    classify: bool,
    run: impl FnOnce(&Workload<Op>, &Machine) -> Result<R, SimError>,
) -> Result<R, SimError> {
    let eligible = classify && CellClassifier::classify(workload, machine, false).is_eligible();
    let fast_before = fastpath::fast_runs();
    let open = tr.begin(id);
    let result = run(workload, machine);
    let fast = fastpath::fast_runs() > fast_before;
    tr.end(
        open,
        if fast {
            "core.fast_path"
        } else {
            "sim.event_loop"
        },
    );
    if fast {
        counts.fast_legs += 1;
    } else {
        counts.event_loop_legs += 1;
        counts.event_loop_tasks += workload.len() as u64;
    }
    if eligible {
        counts.eligible_legs += 1;
        counts.fallbacks += u64::from(!fast);
    }
    result
}

/// Drops a schedule inside a `parallel.build` span: tearing down the
/// task list is part of what the schedule representation costs.
fn release(workload: Workload<Op>, id: u64, tr: &mut Tracer) {
    let open = tr.begin(id);
    drop(workload);
    tr.end(open, "parallel.build");
}

/// One grid cell, as `Experiment::run` followed by `CellMetrics::from_report`.
pub fn run_cell(
    exp: &Experiment,
    id: u64,
    tr: &mut Tracer,
    counts: &mut Counts,
    classify: bool,
) -> CellOutcome {
    let root = tr.begin(id);
    let outcome = cell_steps(exp, id, tr, counts, classify);
    tr.end(root, "cell");
    outcome.map_err(CellError::from)
}

fn cell_steps(
    exp: &Experiment,
    id: u64,
    tr: &mut Tracer,
    counts: &mut Counts,
    classify: bool,
) -> Result<CellMetrics, ExperimentError> {
    let open = tr.begin(id);
    let policy = exp.validate();
    tr.end(open, "models.validate");
    let policy = policy.inspect_err(|_| counts.infeasible += 1)?;

    let open = tr.begin(id);
    let machine = exp.machine();
    tr.end(open, "core.machine");

    let workload = build(exp, ExecutionMode::Overlapped, policy, id, tr, counts)?;
    let overlapped = leg(id, tr, counts, &workload, &machine, classify, execute)?;
    release(workload, id, tr);
    let workload = build(exp, ExecutionMode::Sequential, policy, id, tr, counts)?;
    let sequential = leg(id, tr, counts, &workload, &machine, classify, execute)?;
    release(workload, id, tr);
    let workload = build(exp, ExecutionMode::Overlapped, policy, id, tr, counts)?;
    let open = tr.begin(id);
    let uncontended = machine.uncontended();
    tr.end(open, "core.machine");
    let ideal = leg(
        id,
        tr,
        counts,
        &workload,
        &uncontended,
        classify,
        execute_lean,
    )?;
    release(workload, id, tr);
    counts.simulated_s += overlapped.e2e_s + sequential.e2e_s + ideal.e2e_s;

    let open = tr.begin(id);
    let metrics = OverlapMetrics::derive(&overlapped, &sequential);
    tr.end(open, "core.derive");

    let open = tr.begin(id);
    let sampled = overlapped.gpus[0].power.sample(exp.sampler());
    let sampled_avg_w = sampled.average().unwrap_or(0.0);
    let sampled_peak_w = sampled.peak().unwrap_or(0.0);
    drop(sampled);
    tr.end(open, "power.sample");

    // The report's traces are released here, as the sweep job releases
    // them once it has extracted the compact cell.
    let open = tr.begin(id);
    let report = ExperimentReport {
        experiment: exp.clone(),
        activation_policy: policy,
        metrics,
        sampled_avg_w,
        sampled_peak_w,
        ideal_simulated_e2e_s: ideal.e2e_s,
        overlapped,
        sequential,
    };
    let cell = CellMetrics::from_report(&report);
    drop(report);
    tr.end(open, "core.derive");
    Ok(cell)
}

/// One faults cell, as `FaultCell`'s grid job runs it.
pub fn run_fault_cell(
    cell: &FaultCell,
    id: u64,
    tr: &mut Tracer,
    counts: &mut Counts,
    classify: bool,
) -> CachedFaultCell {
    let root = tr.begin(id);
    let outcome = fault_steps(cell, id, tr, counts, classify);
    tr.end(root, "cell");
    outcome.unwrap_or_else(|e| CachedFaultCell::Infeasible(e.to_string()))
}

fn fault_steps(
    cell: &FaultCell,
    id: u64,
    tr: &mut Tracer,
    counts: &mut Counts,
    classify: bool,
) -> Result<CachedFaultCell, ExperimentError> {
    let exp = &cell.experiment;
    let open = tr.begin(id);
    let policy = exp.validate();
    tr.end(open, "models.validate");
    let policy = policy.inspect_err(|_| counts.infeasible += 1)?;

    let open = tr.begin(id);
    let machine = exp.machine();
    tr.end(open, "core.machine");

    let workload = build(exp, ExecutionMode::Overlapped, policy, id, tr, counts)?;
    let fault_free = leg(id, tr, counts, &workload, &machine, classify, execute)?;

    let open = tr.begin(id);
    let timeline = FaultTimeline::generate(&cell.spec, exp.n_gpus, fault_free.e2e_s);
    tr.end(open, "faults.timeline_gen");

    let open = tr.begin(id);
    let mut injected = FaultyMachine::new(machine, timeline);
    let faulty = execute_model(&workload, &mut injected);
    tr.end(open, "faults.faulty_exec");
    counts.event_loop_legs += 1;
    counts.event_loop_tasks += workload.len() as u64;
    release(workload, id, tr);
    let faulty = faulty?;
    counts.simulated_s += fault_free.e2e_s + faulty.e2e_s;

    if let Some(info) = injected.abort() {
        return Ok(CachedFaultCell::Aborted {
            at_s: info.at_s,
            collective: info.collective.clone(),
            retries: info.retries,
        });
    }
    let open = tr.begin(id);
    let metrics = scorecard(&fault_free, &faulty, injected.stats());
    drop((fault_free, faulty, injected));
    tr.end(open, "core.derive");
    Ok(CachedFaultCell::Ok(metrics))
}

/// The resilience scorecard exactly as `olab_faults::run_with_faults`
/// derives it.
fn scorecard(fault_free: &RunResult, faulty: &RunResult, stats: &FaultStats) -> ResilienceMetrics {
    let base_overlap = fault_free.overlap_ratio();
    let faulty_overlap = faulty.overlap_ratio();
    ResilienceMetrics {
        fault_free_e2e_s: fault_free.e2e_s,
        faulty_e2e_s: faulty.e2e_s,
        time_lost_s: faulty.e2e_s - fault_free.e2e_s,
        stall_s: stats.stall_s,
        retries: stats.retries,
        degraded_collectives: stats.degraded_collectives,
        ecc_kernels: stats.ecc_kernels,
        fault_free_overlap_ratio: base_overlap,
        faulty_overlap_ratio: faulty_overlap,
        overlap_efficiency: if base_overlap > 0.0 {
            faulty_overlap / base_overlap
        } else {
            1.0
        },
    }
}
