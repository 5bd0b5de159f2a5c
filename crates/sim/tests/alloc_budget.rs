//! The arena contract of the engine hot path: once a [`SimArena`] is warm,
//! a run allocates only for the *output* it hands back (the `SimTrace`, its
//! records vec and its per-GPU vectors) — the event loop itself is
//! allocation-free, and so is each task record.
//!
//! Pinned with a counting global allocator, like `olab-obs/tests/alloc.rs`
//! (the library forbids unsafe code; a separate integration-test crate is
//! the only place Rust lets us count). The count is per thread: the test
//! harness runs these tests in parallel, and each one measures only the
//! allocations its own thread makes.

use olab_sim::{ConstantRate, Engine, GpuId, SimArena, TaskSpec, Workload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Const-initialized and drop-free, so touching it from inside the
    // allocator never allocates or registers a destructor.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` only fails during thread teardown, when nothing measures.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made by the calling thread so far.
fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const N_GPUS: usize = 4;
const TASKS_PER_GPU: usize = 16;
const N_TASKS: usize = N_GPUS * TASKS_PER_GPU;

/// A dependency-chained compute/comm mix: every GPU alternates streams,
/// with a cross-GPU dependency every fourth task so promotion and retire
/// both do real work.
fn workload() -> Workload<()> {
    let mut w = Workload::new(N_GPUS);
    let mut ids = Vec::new();
    for i in 0..N_TASKS {
        let gpu = GpuId((i % N_GPUS) as u16);
        let mut spec = if i % 2 == 0 {
            TaskSpec::compute(olab_sim::label!("k{}", i), gpu, ())
        } else {
            TaskSpec::comm(olab_sim::label!("c{}", i), gpu, ())
        };
        if i >= 4 && i % 4 == 0 {
            spec = spec.after(ids[i - 4]);
        }
        ids.push(w.push(spec));
    }
    w
}

fn allocations_per_run(engine: &mut Engine<ConstantRate>, w: &Workload<()>, warm: bool) -> usize {
    const RUNS: usize = 10;
    let mut arena = SimArena::new();
    // Warm-up: grow the arena (and the trace-side capacities) to steady state.
    engine.run_in(w, &mut arena).expect("workload runs");
    let before = allocations();
    for _ in 0..RUNS {
        if warm {
            engine.run_in(w, &mut arena).expect("workload runs");
        } else {
            engine
                .run_in(w, &mut SimArena::new())
                .expect("workload runs");
        }
    }
    (allocations() - before) / RUNS
}

/// The documented steady-state budget, derived from what legitimately
/// escapes the run:
///
/// * the records vec, allocated once at its final length — a record's
///   label is `Copy` and its participants share the spec's, so records
///   themselves allocate nothing;
/// * the per-GPU activity vec, and the growth of each GPU's power-segment
///   and overlap-window vecs (amortized doubling, O(log epochs) each);
/// * the per-run view buffer the rate model reads.
///
/// That measures 7 for this 64-task workload. 32 leaves headroom for
/// growth in the per-GPU vecs, and stays below `N_TASKS`, so one
/// allocation per task or per epoch cannot hide.
const WARM_BUDGET: usize = 32;

#[test]
fn warm_arena_runs_stay_within_the_allocation_budget() {
    let w = workload();
    let mut engine = Engine::new(ConstantRate::default());
    let per_run = allocations_per_run(&mut engine, &w, true);
    assert!(
        per_run <= WARM_BUDGET,
        "warm steady-state run allocates {per_run} times for {N_TASKS} tasks \
         (budget {WARM_BUDGET}) — the engine hot path regressed"
    );
}

/// Self-telemetry must be invisible to the arena contract: recording is
/// pure atomics, so the warm budget holds with the registry disabled
/// (default) *and* enabled. Registration itself allocates, which is why
/// the families are touched before counting starts — that cost is paid
/// once per process, never per run.
#[test]
fn metrics_recording_stays_within_the_warm_budget() {
    let w = workload();
    let mut engine = Engine::new(ConstantRate::default());
    olab_sim::metrics::touch();

    olab_metrics::set_enabled(true);
    let enabled = allocations_per_run(&mut engine, &w, true);
    olab_metrics::set_enabled(false);
    let disabled = allocations_per_run(&mut engine, &w, true);

    assert!(
        enabled <= WARM_BUDGET,
        "warm run with metrics enabled allocates {enabled} times \
         (budget {WARM_BUDGET}) — recording must stay allocation-free"
    );
    assert!(
        disabled <= WARM_BUDGET,
        "warm run with metrics disabled allocates {disabled} times \
         (budget {WARM_BUDGET}) — the disabled path regressed"
    );
}

#[test]
fn warm_arena_beats_a_cold_arena() {
    let w = workload();
    let mut engine = Engine::new(ConstantRate::default());
    let warm = allocations_per_run(&mut engine, &w, true);
    let cold = allocations_per_run(&mut engine, &w, false);
    assert!(
        warm < cold,
        "arena reuse must save allocations: warm {warm} vs cold {cold}"
    );
}
