//! The fast-path differential suite: the analytic fast path must be
//! observationally equivalent to the event loop on every eligible cell,
//! and must *never* fire on cells it cannot legally serve.
//!
//! The fast-path run counters are process-wide atomics, so every test here
//! serializes on one mutex: each test asserts on counter deltas, and the
//! lock keeps another test's runs from landing inside its window.

use olab_core::fastpath;
use olab_core::{execute, execute_event_loop, execute_observed, Experiment, Jitter, Strategy};
use olab_gpu::SkuKind;
use olab_grid::Pool;
use olab_models::ModelPreset;
use olab_oracle::{check_fastpath_equivalence, random_experiment};
use olab_parallel::ExecutionMode;
use olab_sim::{EngineObserver, GpuCounters};
use std::sync::Mutex;

/// Serializes the tests in this binary (they read deltas of the
/// process-global run counters). `unwrap_or_else(into_inner)` keeps a
/// poisoned lock usable: a failed test must not cascade into lock panics
/// elsewhere.
static GUARD: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

/// A stock FSDP cell whose overlapped timeline genuinely overlaps compute
/// and communication (the executor tests pin overlap_ratio > 0.02 on it).
fn overlapping_cell() -> Experiment {
    Experiment::new(SkuKind::H100, 4, ModelPreset::Gpt3Xl, Strategy::Fsdp, 8).with_seq(128)
}

#[test]
fn fast_path_matches_event_loop_on_200_contention_free_cells() {
    let _guard = locked();
    // Collect feasible cells first (OOM cells are legitimate skips), then
    // fan the comparisons across the pool. 260 seeds leave slack above the
    // 200-cell floor.
    let cells: Vec<Experiment> = (0..260u64)
        .map(random_experiment)
        .filter(|e| e.validate().is_ok())
        .collect();
    assert!(cells.len() >= 200, "only {} feasible cells", cells.len());

    let fast_before = fastpath::fast_runs();
    let reports = Pool::with_available_parallelism().map(&cells, |exp| {
        check_fastpath_equivalence(exp).expect("validated cell must run")
    });
    let fast_served = fastpath::fast_runs() - fast_before;

    let dirty: Vec<String> = reports
        .iter()
        .filter(|r| !r.is_clean())
        .map(|r| r.to_string())
        .collect();
    assert!(
        dirty.is_empty(),
        "{} of {} cells diverged between the fast path and the event loop:\n{}",
        dirty.len(),
        reports.len(),
        dirty.join("\n")
    );
    // Each cell compares two eligible shapes (sequential/contended and
    // overlapped/uncontended); the fast path must have actually served the
    // overwhelming majority — a trivially-green suite where everything
    // fell back to the event loop would prove nothing.
    assert!(
        fast_served >= cells.len() as u64,
        "fast path served only {fast_served} of {} eligible runs",
        2 * cells.len()
    );
}

#[test]
fn contended_overlap_never_takes_the_fast_path() {
    let _guard = locked();
    let exp = overlapping_cell();
    let policy = exp.validate().expect("cell fits");
    let w = exp
        .timeline(ExecutionMode::Overlapped, policy)
        .expect("timeline builds");
    let machine = exp.machine();

    let fast_before = fastpath::fast_runs();
    let loop_before = fastpath::event_loop_runs();
    let routed = execute(&w, &machine).expect("runs");
    assert_eq!(
        fastpath::fast_runs() - fast_before,
        0,
        "a contended overlapped schedule must fall back to the event loop"
    );
    assert_eq!(fastpath::event_loop_runs() - loop_before, 1);

    // And the fallback is exactly the reference engine.
    let reference = execute_event_loop(&w, &machine).expect("runs");
    assert_eq!(routed.e2e_s, reference.e2e_s);
}

#[test]
fn jittered_machines_never_take_the_fast_path() {
    let _guard = locked();
    let exp = overlapping_cell();
    let policy = exp.validate().expect("cell fits");
    let w = exp
        .timeline(ExecutionMode::Sequential, policy)
        .expect("timeline builds");
    let jittered = exp.machine().with_jitter(Jitter {
        seed: 11,
        sigma: 0.02,
    });

    let fast_before = fastpath::fast_runs();
    execute(&w, &jittered).expect("runs");
    assert_eq!(
        fastpath::fast_runs() - fast_before,
        0,
        "jitter only exists epoch by epoch; the closed form must decline"
    );
}

#[test]
fn freq_capped_machines_never_take_the_fast_path() {
    let _guard = locked();
    let exp = overlapping_cell();
    let policy = exp.validate().expect("cell fits");
    let w = exp
        .timeline(ExecutionMode::Sequential, policy)
        .expect("timeline builds");
    let mut capped = exp.machine();
    capped.set_gpu_freq_caps(vec![0.6; exp.n_gpus]);

    let fast_before = fastpath::fast_runs();
    execute(&w, &capped).expect("runs");
    assert_eq!(
        fastpath::fast_runs() - fast_before,
        0,
        "transient frequency caps are event-loop-only state"
    );
}

/// An enabled observer that merely counts callbacks — enough to force the
/// event loop (only it can drive task edges and epochs).
#[derive(Default)]
struct CountingObserver {
    starts: usize,
    epochs: usize,
}

impl EngineObserver for CountingObserver {
    const ENABLED: bool = true;

    fn on_task_start(
        &mut self,
        _now_s: f64,
        _id: olab_sim::TaskId,
        _label: olab_sim::Label,
        _participants: &[olab_sim::GpuId],
        _stream: olab_sim::StreamKind,
    ) {
        self.starts += 1;
    }

    fn on_epoch(&mut self, _start_s: f64, _end_s: f64, _counters: &[GpuCounters]) {
        self.epochs += 1;
    }
}

#[test]
fn observed_runs_never_take_the_fast_path() {
    let _guard = locked();
    let exp = overlapping_cell();
    let policy = exp.validate().expect("cell fits");
    let w = exp
        .timeline(ExecutionMode::Sequential, policy)
        .expect("timeline builds");
    let machine = exp.machine();

    let mut obs = CountingObserver::default();
    let fast_before = fastpath::fast_runs();
    execute_observed(&w, &machine, &mut obs).expect("runs");
    assert_eq!(
        fastpath::fast_runs() - fast_before,
        0,
        "an enabled observer needs the event loop's callbacks"
    );
    assert_eq!(obs.starts, w.tasks().len(), "observer saw every task");
    assert!(obs.epochs > 0, "observer saw the epochs");
}

#[test]
fn routed_fast_path_matches_the_event_loop_reference() {
    let _guard = locked();
    let exp = overlapping_cell();
    let policy = exp.validate().expect("cell fits");
    let w = exp
        .timeline(ExecutionMode::Sequential, policy)
        .expect("timeline builds");
    let machine = exp.machine();

    let fast_before = fastpath::fast_runs();
    let routed = execute(&w, &machine).expect("runs");
    assert_eq!(
        fastpath::fast_runs() - fast_before,
        1,
        "a sequential schedule on a deterministic machine is eligible"
    );

    let reference_before = fastpath::fast_runs();
    let reference = execute_event_loop(&w, &machine).expect("runs");
    assert_eq!(
        fastpath::fast_runs() - reference_before,
        0,
        "the reference entry point bypasses the fast path"
    );

    // Within oracle tolerance, not bit-identical: the event loop
    // accumulates `now += dt` per epoch while the closed form sums spans.
    let tol = 1e-9 * reference.e2e_s.abs() + 1e-9;
    assert!(
        (routed.e2e_s - reference.e2e_s).abs() <= tol,
        "{} vs {}",
        routed.e2e_s,
        reference.e2e_s
    );
}
