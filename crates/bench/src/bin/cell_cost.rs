//! Per-cell cost microbenchmark: the perf trajectory behind the hot-path
//! work. Measures the median wall-clock of executing one representative
//! grid-cell schedule several ways —
//!
//! * `event_loop_cold_arena` — the engine with a fresh [`SimArena`] every
//!   run (the pre-arena allocation behavior);
//! * `event_loop_warm_arena` — the engine reusing one arena (the shipping
//!   configuration of [`olab_core::execute_event_loop`]);
//! * `event_loop_full_stats` — the engine plus the full per-GPU statistics
//!   derivation ([`olab_core::execute_event_loop`]);
//! * `event_loop_lean` — the makespan read off
//!   [`olab_core::execute_event_loop`], which is what
//!   [`olab_core::execute_lean`] falls back to: the engine must run every
//!   epoch before any makespan exists;
//! * `fast_path_full` — [`olab_core::execute`] routed through the
//!   contention-free analytic closed form, materializing the same full
//!   [`RunResult`](olab_core::RunResult);
//! * `fast_path_lean` — [`olab_core::execute_lean`] served analytically:
//!   the closed-form schedule's makespan, with no power, statistics or
//!   trace behind it.
//!
//! Every row above times the same schedule: the *sequential* timeline on
//! the stock (contended) machine, the one shape both the full and the lean
//! fast path serve. Production sends this shape to [`olab_core::execute`]
//! only; its `execute_lean` traffic is the ideal leg of
//! `Experiment::run`, timed by its own row below.
//!
//! Four stage rows time the cell around those legs:
//!
//! * `schedule_build_overlapped` — [`Experiment::timeline`] in overlapped
//!   mode, the one schedule build a cell pays;
//! * `serialize_pass` — [`olab_sim::Workload::serialized`] over that
//!   schedule, which derives the sequential leg's schedule (the copy it
//!   consumes is made outside the timer);
//! * `ideal_leg` — the production ideal leg: [`olab_core::execute_lean`]
//!   on the overlapped schedule on the uncontended machine;
//! * `experiment_run` — the whole cell, [`Experiment::run`]: one build,
//!   three legs, metric derivation and power sampling.
//!
//! The headline `fast_path_speedup` compares like for like at the makespan
//! level — `event_loop_lean / fast_path_lean` — which is how the ideal leg
//! consumes a run; `fast_path_full_speedup` is the full-result comparison.
//!
//! Writes a single snapshot (override the path with `--out <path>`) and
//! prints the same JSON to stdout; `--smoke` shrinks the cell and
//! iteration count for CI. Each snapshot is stamped with the commit and
//! mode so the `trend` binary can append it to the `BENCH_cell.json`
//! trajectory and gate future runs against it. The differential suite in
//! `olab-oracle` pins that all paths produce the same answers; this
//! binary pins what they cost.

use olab_core::fmtutil::{json_escape, validate_json};
use olab_core::{execute, execute_event_loop, execute_lean, fastpath, Experiment, Strategy};
use olab_gpu::SkuKind;
use olab_models::ModelPreset;
use olab_parallel::ExecutionMode;
use olab_sim::{Engine, SimArena};
use std::time::Instant;

fn median_ns(samples: &[u128]) -> u128 {
    quantile_ns(samples, 0.5)
}

fn p99_ns(samples: &[u128]) -> u128 {
    quantile_ns(samples, 0.99)
}

fn quantile_ns(samples: &[u128], q: f64) -> u128 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_cell.json".to_string());

    let seq = if smoke { 64 } else { 128 };
    let iters = if smoke { 10 } else { 40 };
    let exp =
        Experiment::new(SkuKind::H100, 4, ModelPreset::Gpt3Xl, Strategy::Fsdp, 8).with_seq(seq);
    let policy = exp.validate().expect("benchmark cell fits in memory");
    let machine = exp.machine();
    // The sequential schedule on the stock (contended) machine: fast-path
    // eligible — no co-resident compute/comm pair — yet priced through the
    // full contention model, so both paths do representative work.
    let workload = exp
        .timeline(ExecutionMode::Sequential, policy)
        .expect("timeline builds");

    // Engine-level arena comparison (trace production only, no stats).
    let mut engine = Engine::new(machine.clone());
    let mut warm_arena = SimArena::new();
    engine
        .run_in(&workload, &mut warm_arena)
        .expect("workload runs");
    let mut cold = Vec::with_capacity(iters);
    let mut warm = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        engine
            .run_in(&workload, &mut SimArena::new())
            .expect("workload runs");
        cold.push(t.elapsed().as_nanos());

        let t = Instant::now();
        engine
            .run_in(&workload, &mut warm_arena)
            .expect("workload runs");
        warm.push(t.elapsed().as_nanos());
    }

    // Executor-level path comparison: full results and lean (makespan-only)
    // results, through the fast path and through the event loop.
    execute(&workload, &machine).expect("workload runs");
    execute_lean(&workload, &machine).expect("workload runs");
    let fast_before = fastpath::fast_runs();
    let mut fast_full = Vec::with_capacity(iters);
    let mut fast_lean = Vec::with_capacity(iters);
    let mut loop_full = Vec::with_capacity(iters);
    let mut loop_lean = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        execute(&workload, &machine).expect("workload runs");
        fast_full.push(t.elapsed().as_nanos());

        let t = Instant::now();
        execute_lean(&workload, &machine).expect("workload runs");
        fast_lean.push(t.elapsed().as_nanos());

        let t = Instant::now();
        execute_event_loop(&workload, &machine).expect("workload runs");
        loop_full.push(t.elapsed().as_nanos());

        let t = Instant::now();
        let e2e_s = execute_event_loop(&workload, &machine)
            .expect("workload runs")
            .e2e_s;
        loop_lean.push(t.elapsed().as_nanos());
        assert!(e2e_s > 0.0);
    }
    assert_eq!(
        fastpath::fast_runs() - fast_before,
        2 * iters as u64,
        "the benchmark cell must be fast-path eligible on both fast runs"
    );

    // Stage rows: the cell's one schedule build, the serialization pass,
    // the ideal leg and the whole cell.
    let uncontended = machine.uncontended();
    let mut build = Vec::with_capacity(iters);
    let mut serialize = Vec::with_capacity(iters);
    let mut ideal = Vec::with_capacity(iters);
    let mut run = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        let overlapped = exp
            .timeline(ExecutionMode::Overlapped, policy)
            .expect("timeline builds");
        build.push(t.elapsed().as_nanos());

        let t = Instant::now();
        execute_lean(&overlapped, &uncontended).expect("ideal leg runs");
        ideal.push(t.elapsed().as_nanos());

        let t = Instant::now();
        let sequential = overlapped.serialized();
        serialize.push(t.elapsed().as_nanos());
        assert_eq!(sequential.len(), workload.len());

        let t = Instant::now();
        exp.run().expect("benchmark cell runs");
        run.push(t.elapsed().as_nanos());
    }

    let cold_ns = median_ns(&cold);
    let warm_ns = median_ns(&warm);
    let fast_full_ns = median_ns(&fast_full);
    let fast_lean_ns = median_ns(&fast_lean);
    let loop_full_ns = median_ns(&loop_full);
    let loop_lean_ns = median_ns(&loop_lean);
    let speedup = loop_lean_ns as f64 / fast_lean_ns as f64;
    let full_speedup = loop_full_ns as f64 / fast_full_ns as f64;
    let arena_savings = 1.0 - warm_ns as f64 / cold_ns as f64;
    let mode = if smoke { "smoke" } else { "full" };
    let commit = olab_bench::trend::current_commit();

    let json = format!(
        "{{\n  \"bench\": \"cell_cost\",\n  \"commit\": \"{}\",\n  \"mode\": \"{}\",\n  \"cell\": \"{}\",\n  \"tasks\": {},\n  \"iters\": {},\n  \"median_ns\": {{\n    \"event_loop_cold_arena\": {},\n    \"event_loop_warm_arena\": {},\n    \"event_loop_full_stats\": {},\n    \"event_loop_lean\": {},\n    \"fast_path_full\": {},\n    \"fast_path_lean\": {},\n    \"schedule_build_overlapped\": {},\n    \"serialize_pass\": {},\n    \"ideal_leg\": {},\n    \"experiment_run\": {}\n  }},\n  \"p99_ns\": {{\n    \"event_loop_cold_arena\": {},\n    \"event_loop_warm_arena\": {},\n    \"event_loop_full_stats\": {},\n    \"event_loop_lean\": {},\n    \"fast_path_full\": {},\n    \"fast_path_lean\": {},\n    \"schedule_build_overlapped\": {},\n    \"serialize_pass\": {},\n    \"ideal_leg\": {},\n    \"experiment_run\": {}\n  }},\n  \"fast_path_speedup\": {:.2},\n  \"fast_path_full_speedup\": {:.2},\n  \"warm_arena_savings_frac\": {:.4}\n}}\n",
        json_escape(&commit),
        mode,
        json_escape(&exp.label()),
        workload.len(),
        iters,
        cold_ns,
        warm_ns,
        loop_full_ns,
        loop_lean_ns,
        fast_full_ns,
        fast_lean_ns,
        median_ns(&build),
        median_ns(&serialize),
        median_ns(&ideal),
        median_ns(&run),
        p99_ns(&cold),
        p99_ns(&warm),
        p99_ns(&loop_full),
        p99_ns(&loop_lean),
        p99_ns(&fast_full),
        p99_ns(&fast_lean),
        p99_ns(&build),
        p99_ns(&serialize),
        p99_ns(&ideal),
        p99_ns(&run),
        speedup,
        full_speedup,
        arena_savings,
    );
    validate_json(&json).expect("benchmark JSON is well-formed");
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    print!("{json}");
    eprintln!(
        "cell_cost: lean fast path {speedup:.1}x, full fast path {full_speedup:.1}x vs event loop ({} tasks, {} iters) -> {out_path}",
        workload.len(),
        iters
    );
}
