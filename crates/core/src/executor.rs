//! Executing schedules and collecting run statistics.

use crate::Machine;
use olab_parallel::Op;
use olab_power::PowerTrace;
use olab_sim::{
    Engine, EngineObserver, GpuId, NullObserver, SimError, SimTrace, StreamKind, Workload,
};

/// Per-GPU statistics of one run.
#[derive(Debug, Clone)]
pub struct GpuRunStats {
    /// Sum of compute-kernel durations, seconds.
    pub compute_s: f64,
    /// Sum of communication-task durations, seconds.
    pub comm_s: f64,
    /// Compute time co-active with communication, seconds (Eq. 2 numerator).
    pub overlapped_compute_s: f64,
    /// Communication time co-active with compute — the *hidden* comm time.
    pub hidden_comm_s: f64,
    /// Exact power trace.
    pub power: PowerTrace,
    /// Overlap windows (both streams busy), as (start, end) seconds.
    pub overlap_windows: Vec<(f64, f64)>,
}

/// Output of executing one schedule.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The raw simulation trace.
    pub trace: SimTrace,
    /// End-to-end iteration time, seconds.
    pub e2e_s: f64,
    /// Per-GPU statistics.
    pub gpus: Vec<GpuRunStats>,
}

impl RunResult {
    /// Total compute time across GPUs, seconds.
    pub fn compute_s(&self) -> f64 {
        self.gpus.iter().map(|g| g.compute_s).sum()
    }

    /// Total communication time across GPUs, seconds.
    pub fn comm_s(&self) -> f64 {
        self.gpus.iter().map(|g| g.comm_s).sum()
    }

    /// Total compute time co-active with communication, seconds.
    pub fn overlapped_compute_s(&self) -> f64 {
        self.gpus.iter().map(|g| g.overlapped_compute_s).sum()
    }

    /// Total hidden (co-active) communication time, seconds.
    pub fn hidden_comm_s(&self) -> f64 {
        self.gpus.iter().map(|g| g.hidden_comm_s).sum()
    }

    /// Eq. 2: fraction of compute time overlapped with communication.
    pub fn overlap_ratio(&self) -> f64 {
        let c = self.compute_s();
        if c > 0.0 {
            self.overlapped_compute_s() / c
        } else {
            0.0
        }
    }

    /// Mean over GPUs of the time-average power, watts.
    pub fn average_power_w(&self) -> f64 {
        if self.gpus.is_empty() {
            return 0.0;
        }
        self.gpus.iter().map(|g| g.power.average()).sum::<f64>() / self.gpus.len() as f64
    }

    /// One-pass power summary: (mean average watts, peak watts, total
    /// joules). Matches [`average_power_w`](RunResult::average_power_w),
    /// [`peak_power_w`](RunResult::peak_power_w) and
    /// [`energy_j`](RunResult::energy_j) bit-for-bit while walking each
    /// GPU's segments once instead of three times.
    pub fn power_summary(&self) -> (f64, f64, f64) {
        let (mut avg, mut peak, mut energy) = (0.0f64, 0.0f64, 0.0f64);
        for g in &self.gpus {
            let s = g.power.stats();
            avg += s.average_w;
            peak = peak.max(s.peak_w);
            energy += s.energy_j;
        }
        let avg = if self.gpus.is_empty() {
            0.0
        } else {
            avg / self.gpus.len() as f64
        };
        (avg, peak, energy)
    }

    /// Highest instantaneous draw across GPUs, watts.
    pub fn peak_power_w(&self) -> f64 {
        self.gpus
            .iter()
            .map(|g| g.power.peak_instantaneous())
            .fold(0.0, f64::max)
    }

    /// Total energy across GPUs, joules.
    pub fn energy_j(&self) -> f64 {
        self.gpus.iter().map(|g| g.power.energy_j()).sum()
    }
}

/// Output of [`execute_lean`]: the makespan of one run and nothing else.
///
/// The ideal leg of [`Experiment::run`](crate::Experiment::run) reports
/// only the contention-free end-to-end time, so this is all the lean
/// executor computes — no trace, task records, per-GPU statistics or power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeanRun {
    /// End-to-end iteration time, seconds.
    pub e2e_s: f64,
}

/// Runs a schedule on a machine.
///
/// When the cell qualifies (see [`CellClassifier`](crate::CellClassifier))
/// the run is served by the contention-free analytic fast path instead of
/// the event loop; the result is the same to floating-point rounding (the
/// differential suite in `olab-oracle` pins this) and
/// [`fastpath::fast_runs`](crate::fastpath::fast_runs) /
/// [`SweepStats::fast_path`](crate::SweepStats) record which path ran.
/// Generic models going through [`execute_model`] — fault injectors,
/// wrappers — never reach the classifier: only plain `Machine` execution
/// can skip the event loop.
///
/// # Errors
///
/// Propagates [`SimError`] from the engine (malformed DAG, deadlock, or a
/// misbehaving rate model).
pub fn execute(workload: &Workload<Op>, machine: &Machine) -> Result<RunResult, SimError> {
    let start = olab_metrics::now_if_enabled();
    if crate::fastpath::machine_eligible(machine) {
        if let Some(result) = crate::analytic::execute_fast(workload, machine) {
            crate::fastpath::note_fast_run();
            let m = crate::fastpath::route_metrics();
            m.fast_full.inc();
            m.fast_full_ns.observe_since(start);
            return Ok(result);
        }
    }
    crate::fastpath::note_event_loop_run();
    let result = execute_model(workload, machine.clone());
    let m = crate::fastpath::route_metrics();
    m.event_loop_full.inc();
    m.event_loop_full_ns.observe_since(start);
    result
}

/// Runs a schedule on a machine, producing only its makespan.
///
/// A fast-path-eligible run reads the makespan straight off the closed-form
/// schedule without pricing power or materializing task records; an
/// ineligible run falls back to the event loop and keeps only its `e2e_s`.
/// Both are bit-identical to [`execute`]'s `e2e_s` on the same inputs.
/// Path routing and counters match [`execute`] exactly.
///
/// # Errors
///
/// Propagates [`SimError`] from the engine (malformed DAG, deadlock, or a
/// misbehaving rate model).
pub fn execute_lean(workload: &Workload<Op>, machine: &Machine) -> Result<LeanRun, SimError> {
    let start = olab_metrics::now_if_enabled();
    if crate::fastpath::machine_eligible(machine) {
        if let Some(e2e_s) = crate::analytic::fast_makespan(workload, machine) {
            crate::fastpath::note_fast_run();
            let m = crate::fastpath::route_metrics();
            m.fast_lean.inc();
            m.fast_lean_ns.observe_since(start);
            return Ok(LeanRun { e2e_s });
        }
    }
    crate::fastpath::note_event_loop_run();
    let e2e_s = execute_model(workload, machine.clone())?.e2e_s;
    let m = crate::fastpath::route_metrics();
    m.event_loop_lean.inc();
    m.event_loop_lean_ns.observe_since(start);
    Ok(LeanRun { e2e_s })
}

/// Runs a schedule on a machine through the event loop unconditionally,
/// bypassing the fast-path classifier (and its counters). This is the
/// reference implementation the differential harness and the `cell_cost`
/// benchmark compare against.
///
/// # Errors
///
/// Propagates [`SimError`] from the engine.
pub fn execute_event_loop(
    workload: &Workload<Op>,
    machine: &Machine,
) -> Result<RunResult, SimError> {
    execute_model(workload, machine.clone())
}

/// Like [`execute`], driving an [`EngineObserver`] through the run so
/// telemetry sinks see task edges and per-epoch counters as they happen.
///
/// A disabled observer (`O::ENABLED == false`) compiles the instrumentation
/// away, so the run routes through [`execute`] and stays fast-path
/// eligible; an enabled observer forces the event loop (only it can drive
/// task-edge and epoch callbacks).
///
/// # Errors
///
/// Propagates [`SimError`] from the engine.
pub fn execute_observed<O: EngineObserver>(
    workload: &Workload<Op>,
    machine: &Machine,
    obs: &mut O,
) -> Result<RunResult, SimError> {
    if !O::ENABLED {
        return execute(workload, machine);
    }
    execute_model_observed(workload, machine.clone(), obs)
}

/// Runs a schedule on any [`RateModel`] pricing [`Op`] payloads — the hook
/// that lets wrappers (fault injectors, what-if models) reuse the standard
/// per-GPU statistics pipeline. Pass `&mut model` to inspect the model's
/// state after the run.
///
/// # Errors
///
/// Propagates [`SimError`] from the engine.
pub fn execute_model<M>(workload: &Workload<Op>, model: M) -> Result<RunResult, SimError>
where
    M: olab_sim::RateModel<Payload = Op>,
{
    execute_model_observed(workload, model, &mut NullObserver)
}

/// Like [`execute_model`], driving an [`EngineObserver`] through the run —
/// the instrumented path under the `olab-obs` telemetry layer.
///
/// # Errors
///
/// Propagates [`SimError`] from the engine.
pub fn execute_model_observed<M, O>(
    workload: &Workload<Op>,
    model: M,
    obs: &mut O,
) -> Result<RunResult, SimError>
where
    M: olab_sim::RateModel<Payload = Op>,
    O: EngineObserver,
{
    let trace = Engine::new(model).run_observed(workload, obs)?;
    Ok(run_result_from_trace(trace, workload.n_gpus()))
}

/// Derives the per-GPU statistics of a [`RunResult`] from a trace. Both
/// execution paths (event loop and analytic fast path) funnel through this,
/// so the statistics derivation is shared by construction.
pub(crate) fn run_result_from_trace(trace: SimTrace, n_gpus: usize) -> RunResult {
    // One pass over the records accumulates all four per-(GPU, stream)
    // sums. Each (gpu, stream) bucket sees its records in the same order
    // `SimTrace::stream_time_on`/`coactive_time_on` would visit them, so
    // the totals are bit-identical to the accessor-per-quantity derivation
    // this replaces — at 2×streams×gpus fewer record walks.
    let mut busy = vec![[olab_sim::SimTime::ZERO; 2]; n_gpus];
    let mut coactive = vec![[olab_sim::SimTime::ZERO; 2]; n_gpus];
    for r in trace.records() {
        let s = r.stream.index();
        for g in &r.participants {
            busy[g.index()][s] += r.duration();
            coactive[g.index()][s] += r.coactive;
        }
    }
    let mut gpus = Vec::with_capacity(n_gpus);
    for g in 0..n_gpus {
        let activity = trace.gpu(GpuId(g as u16));
        gpus.push(GpuRunStats {
            compute_s: busy[g][StreamKind::Compute.index()].as_secs(),
            comm_s: busy[g][StreamKind::Comm.index()].as_secs(),
            overlapped_compute_s: coactive[g][StreamKind::Compute.index()].as_secs(),
            hidden_comm_s: coactive[g][StreamKind::Comm.index()].as_secs(),
            power: PowerTrace::from_segments(&activity.power),
            overlap_windows: activity
                .overlap_windows
                .iter()
                .map(|w| (w.start.as_secs(), w.end.as_secs()))
                .collect(),
        });
    }
    RunResult {
        e2e_s: trace.makespan().as_secs(),
        trace,
        gpus,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olab_gpu::{Datapath, GpuSku, Precision};
    use olab_models::{memory::ActivationPolicy, ModelPreset};
    use olab_parallel::{fsdp, ExecutionMode};

    fn tiny_fsdp(mode: ExecutionMode) -> RunResult {
        let sku = GpuSku::h100();
        let machine = Machine::stock(sku.clone(), 4);
        let plan = fsdp::FsdpPlan {
            model: ModelPreset::Gpt3Xl.config(),
            ranks: 4,
            batch_per_rank: 2,
            seq: 128,
            precision: Precision::Fp16,
            datapath: Datapath::TensorCore,
            activation_policy: ActivationPolicy::Full,
            grad_accum_steps: 1,
            overlap: Default::default(),
        };
        let w = fsdp::fsdp_timeline(&plan, &sku, &machine.config().topology, mode);
        execute(&w, &machine).expect("fsdp executes")
    }

    #[test]
    fn overlapped_beats_sequential_end_to_end() {
        let ovl = tiny_fsdp(ExecutionMode::Overlapped);
        let seq = tiny_fsdp(ExecutionMode::Sequential);
        assert!(
            ovl.e2e_s < seq.e2e_s,
            "overlap {} should beat sequential {}",
            ovl.e2e_s,
            seq.e2e_s
        );
    }

    #[test]
    fn sequential_mode_has_zero_overlap_ratio() {
        let seq = tiny_fsdp(ExecutionMode::Sequential);
        assert!(seq.overlap_ratio() < 1e-9, "got {}", seq.overlap_ratio());
    }

    #[test]
    fn overlapped_mode_hides_communication() {
        let ovl = tiny_fsdp(ExecutionMode::Overlapped);
        assert!(ovl.overlap_ratio() > 0.02, "got {}", ovl.overlap_ratio());
        assert!(ovl.hidden_comm_s() > 0.0);
        assert!(!ovl.gpus[0].overlap_windows.is_empty());
    }

    #[test]
    fn compute_time_is_larger_under_overlap_than_sequential() {
        // Eq. 1's numerator: contention stretches compute kernels.
        let ovl = tiny_fsdp(ExecutionMode::Overlapped);
        let seq = tiny_fsdp(ExecutionMode::Sequential);
        assert!(ovl.compute_s() > seq.compute_s());
    }

    #[test]
    fn power_statistics_are_populated() {
        let ovl = tiny_fsdp(ExecutionMode::Overlapped);
        assert!(ovl.average_power_w() > GpuSku::h100().idle_w);
        assert!(ovl.peak_power_w() > ovl.average_power_w());
        assert!(ovl.energy_j() > 0.0);
    }

    /// The ideal leg of `Experiment::run` is the lean makespan, so on both
    /// fast-path shapes of a cell — the overlapped schedule on the
    /// uncontended machine and the sequential schedule on the contended
    /// one — it must equal the full result's bit for bit, not merely within
    /// the differential suite's band. The event-loop fallback (the jittered
    /// ideal leg of `Experiment::run_jittered`) must equal the reference
    /// engine's makespan, and an empty workload takes no time.
    #[test]
    fn lean_and_full_makespans_agree_bit_for_bit() {
        use crate::{Experiment, Jitter, Strategy};
        use olab_gpu::SkuKind;

        let jitter = Jitter {
            seed: 7,
            sigma: 0.05,
        };

        let cells = [
            Experiment::new(SkuKind::H100, 4, ModelPreset::Gpt3Xl, Strategy::Fsdp, 8).with_seq(128),
            Experiment::new(
                SkuKind::A100,
                4,
                ModelPreset::Gpt3Xl,
                Strategy::Pipeline { microbatch_size: 2 },
                8,
            )
            .with_seq(128),
        ];
        for exp in &cells {
            let policy = exp.validate().expect("cell fits");
            let machine = exp.machine();
            for (mode, m) in [
                (ExecutionMode::Overlapped, machine.uncontended()),
                (ExecutionMode::Sequential, machine.clone()),
            ] {
                let w = exp.timeline(mode, policy).expect("timeline builds");
                assert!(
                    crate::analytic::fast_makespan(&w, &m).is_some(),
                    "{} {mode:?}: the fast path must serve this shape",
                    exp.label()
                );
                let lean = execute_lean(&w, &m).expect("lean runs").e2e_s;
                let full = execute(&w, &m).expect("full runs").e2e_s;
                assert_eq!(
                    lean.to_bits(),
                    full.to_bits(),
                    "{} {mode:?}: lean {lean} vs full {full}",
                    exp.label()
                );
            }

            let jittered = machine.with_jitter(jitter).uncontended();
            assert!(!crate::fastpath::machine_eligible(&jittered));
            let w = exp
                .timeline(ExecutionMode::Overlapped, policy)
                .expect("timeline builds");
            let lean = execute_lean(&w, &jittered).expect("lean runs").e2e_s;
            let reference = execute_event_loop(&w, &jittered)
                .expect("reference runs")
                .e2e_s;
            assert_eq!(
                lean.to_bits(),
                reference.to_bits(),
                "{} jittered: lean {lean} vs event loop {reference}",
                exp.label()
            );
        }

        let empty = Workload::<Op>::new(4);
        let stock = Machine::stock(GpuSku::h100(), 4);
        for m in [stock.clone(), stock.with_jitter(jitter)] {
            assert_eq!(execute_lean(&empty, &m).expect("empty runs").e2e_s, 0.0);
        }
    }
}
