//! The two grid workloads' shared harness: timed sweep passes for the
//! end-to-end metrics, and registry plus replica passes for the traced
//! per-layer breakdown.

use crate::calib::Calibration;
use crate::reference::Reference;
use crate::replica::Counts;
use crate::report::Outcome;
use crate::stats::{median, peak_rss_mb};
use crate::trace::Tracer;
use crate::Args;
use olab_grid::{CacheValue, CellProgress, GridJob, ProgressSink, Reader, Writer};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// A grid workload: a cell list, a fresh engine per pass, and a replica
/// of the per-cell steps for the traced run.
pub trait GridBench {
    type Job: GridJob<Output = Self::Out>;
    type Engine;
    type Out: CacheValue + PartialEq;

    /// Cell-list generation and construction of an engine with `workers`
    /// threads: what `setup_s` times.
    fn setup(&self, workers: usize) -> (Vec<Self::Job>, Self::Engine);

    /// One pass over `jobs`; `None` marks a cell the engine failed
    /// (panic, timeout, exhausted retries).
    fn run(
        engine: &Self::Engine,
        jobs: &[Self::Job],
        sink: Option<&dyn ProgressSink>,
    ) -> Vec<Option<Self::Out>>;

    /// Whether a resolved cell still counts as a failed operation.
    fn is_failure(out: &Self::Out) -> bool;

    fn replica(
        job: &Self::Job,
        id: u64,
        tr: &mut Tracer,
        counts: &mut Counts,
        classify: bool,
    ) -> Self::Out;

    fn reference(&self) -> Reference;

    /// Deterministic per-layer statistics of one pass's results.
    fn result_metrics(&self, outs: &[Self::Out], m: &mut Outcome);
}

/// Per-cell latency from progress updates: the time since the same
/// worker's previous completion (or since the pass started).
#[derive(Default)]
struct LatencySink {
    last_s: Mutex<HashMap<ThreadId, f64>>,
    latencies_ms: Mutex<Vec<f64>>,
}

impl ProgressSink for LatencySink {
    fn on_cell(&self, p: &CellProgress<'_>) {
        let id = std::thread::current().id();
        let prev = self
            .last_s
            .lock()
            .expect("latency map poisoned")
            .insert(id, p.wall_s)
            .unwrap_or(0.0);
        self.latencies_ms
            .lock()
            .expect("latency list poisoned")
            .push((p.wall_s - prev) * 1e3);
    }
}

/// Failed operations of one pass: engine failures, failure outcomes, and
/// results whose encoding differs from the reference.
fn check<B: GridBench>(reference: &Reference, jobs: &[B::Job], outs: &[Option<B::Out>]) -> u64 {
    jobs.iter()
        .zip(outs)
        .filter(|(job, out)| match out {
            Some(out) => B::is_failure(out) || !reference.matches(&job.descriptor(), out),
            None => true,
        })
        .count() as u64
}

pub fn run<B: GridBench>(bench: &B, args: &Args) -> Outcome {
    let reference = bench.reference();
    let mut m = Outcome::default();
    if args.trace {
        traced(bench, args, &reference, &mut m);
    } else {
        untraced(bench, args, &reference, &mut m);
    }
    m
}

fn untraced<B: GridBench>(bench: &B, args: &Args, reference: &Reference, m: &mut Outcome) {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut setups, mut walls, mut latencies) = (Vec::new(), Vec::new(), Vec::new());
    let mut calib = Calibration::default();
    // The first pass runs serially in the fresh process, where the
    // allocator's state and the order of allocations are the same on
    // every run: its peak RSS is the memory metric. It is checked, not
    // timed.
    let (jobs, engine) = bench.setup(1);
    let outs = B::run(&engine, &jobs, None);
    m.count(jobs.len() as u64, check::<B>(reference, &jobs, &outs));
    let serial_rss = peak_rss_mb();
    while walls.len() < 3 || Instant::now() < deadline {
        calib.sample();
        let start = Instant::now();
        let (jobs, engine) = black_box(bench.setup(crate::JOBS));
        setups.push(start.elapsed().as_secs_f64());
        let sink = LatencySink::default();
        let start = Instant::now();
        let outs = B::run(&engine, &jobs, Some(&sink));
        walls.push(start.elapsed().as_secs_f64());
        latencies.extend(
            sink.latencies_ms
                .into_inner()
                .expect("latency list poisoned"),
        );
        m.count(jobs.len() as u64, check::<B>(reference, &jobs, &outs));
    }
    calib.sample();
    let cells = jobs.len() as f64;
    calib.report_end_to_end(
        m,
        median(&setups),
        cells / median(&walls),
        &latencies,
        serial_rss,
    );
}

/// Median encode-plus-decode time of the pass's results, microseconds.
fn codec_us<V: CacheValue>(outs: &[V]) -> f64 {
    let samples: Vec<f64> = outs
        .iter()
        .map(|v| {
            let start = Instant::now();
            let mut w = Writer::new();
            v.encode(&mut w);
            let bytes = w.into_bytes();
            black_box(V::decode(&mut Reader::new(&bytes)));
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// One serial replica pass; returns its wall time and outputs.
fn replica_pass<B: GridBench>(
    jobs: &[B::Job],
    tr: &mut Tracer,
    counts: &mut Counts,
    classify: bool,
) -> (f64, Vec<B::Out>) {
    let start = Instant::now();
    let outs = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| B::replica(job, i as u64, tr, counts, classify))
        .collect();
    (start.elapsed().as_secs_f64(), outs)
}

/// The traced run. Three kinds of pass share the time budget:
///
/// * sweep passes on the 2-worker engine with the `olab-metrics`
///   registry enabled, for the pool and cache families;
/// * serial replica passes with spans, for each layer's self time;
/// * the same replica passes without spans, alternating with the traced
///   ones, so `trace.overhead_frac` compares like with like.
fn traced<B: GridBench>(bench: &B, args: &Args, reference: &Reference, m: &mut Outcome) {
    let budget = Duration::from_secs_f64(args.seconds);
    let (jobs, _) = bench.setup(crate::JOBS);
    let n = jobs.len() as u64;

    olab_metrics::set_enabled(true);
    let mut registry: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut sweep_outs = Vec::new();
    let registry_end = Instant::now() + budget / 3;
    while registry.is_empty() || Instant::now() < registry_end {
        let (jobs, engine) = bench.setup(crate::JOBS);
        olab_metrics::reset();
        let outs = B::run(&engine, &jobs, None);
        let mut readings = BTreeMap::new();
        crate::registry::grid_families(&mut readings);
        for (name, v) in readings {
            registry.entry(name).or_default().push(v);
        }
        m.count(n, check::<B>(reference, &jobs, &outs));
        sweep_outs = outs;
    }
    olab_metrics::set_enabled(false);
    let sweep_outs: Vec<B::Out> = sweep_outs.into_iter().flatten().collect();
    for (name, v) in &registry {
        m.set(name, median(v));
    }
    m.set("grid.codec_us", codec_us(&sweep_outs));
    bench.result_metrics(&sweep_outs, m);

    // Warm-up pass: classifies every leg for the fast-path ratio and
    // checks the replica against the sweep.
    let mut untraced = Tracer::new(false);
    let mut eligibility = Counts::default();
    let (_, outs) = replica_pass::<B>(&jobs, &mut untraced, &mut eligibility, true);
    m.count(n, mismatches(&outs, &sweep_outs));

    let mut tracer = Tracer::new(true);
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut per_pass: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let replica_end = Instant::now() + budget * 2 / 3;
    while traced_walls.len() < 2 || Instant::now() < replica_end {
        // Alternate which kind of pass goes first, so neither always runs
        // on the other's warm caches.
        for traced in [false, true].map(|t| t ^ (traced_walls.len() % 2 == 1)) {
            let tr = if traced { &mut tracer } else { &mut untraced };
            let mark = tr.mark();
            let mut counts = Counts::default();
            let (wall, outs) = replica_pass::<B>(&jobs, tr, &mut counts, false);
            m.count(n, mismatches(&outs, &sweep_outs));
            if !traced {
                plain_walls.push(wall);
                continue;
            }
            traced_walls.push(wall);
            let self_ns = tracer.self_ns_since(mark);
            for (name, v) in layer_metrics(&self_ns, &counts, wall) {
                per_pass.entry(name).or_default().push(v);
            }
        }
    }
    for (name, v) in &per_pass {
        m.set(name, median(v));
    }
    m.set(
        "core.fast_path_ratio",
        eligibility.fast_legs as f64 / eligibility.eligible_legs.max(1) as f64,
    );
    m.set("core.fast_path_fallbacks", eligibility.fallbacks as f64);
    m.set(
        "trace.overhead_frac",
        median(&traced_walls) / median(&plain_walls) - 1.0,
    );
    crate::write_spans(args, &[&tracer]);
}

/// Replica results that differ from the sweep's (all of them when a
/// sweep cell failed and the lists cannot be aligned).
fn mismatches<V: PartialEq>(outs: &[V], expected: &[V]) -> u64 {
    if outs.len() != expected.len() {
        return outs.len() as u64;
    }
    outs.iter().zip(expected).filter(|(a, b)| a != b).count() as u64
}

/// Per-layer self times and counts of one traced replica pass.
fn layer_metrics(
    self_ns: &BTreeMap<&'static str, u64>,
    counts: &Counts,
    wall_s: f64,
) -> Vec<(&'static str, f64)> {
    let ns = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64;
    let event_loop_ns = ns("sim.event_loop") + ns("faults.faulty_exec");
    let layers_ns: f64 = self_ns
        .iter()
        .filter(|(name, _)| **name != "cell")
        .map(|(_, v)| *v as f64)
        .sum();
    vec![
        ("models.validate_us", ns("models.validate") / 1e3),
        ("models.infeasible_cells", counts.infeasible as f64),
        ("core.machine_us", ns("core.machine") / 1e3),
        ("parallel.build_ms", ns("parallel.build") / 1e6),
        ("parallel.tasks", counts.tasks as f64),
        ("sim.event_loop_ms", event_loop_ns / 1e6),
        ("sim.event_loop_legs", counts.event_loop_legs as f64),
        (
            "sim.host_ns_per_task",
            event_loop_ns / counts.event_loop_tasks.max(1) as f64,
        ),
        ("core.fast_path_ms", ns("core.fast_path") / 1e6),
        ("core.fast_path_legs", counts.fast_legs as f64),
        ("core.derive_ms", ns("core.derive") / 1e6),
        ("power.sample_us", ns("power.sample") / 1e3),
        ("faults.faulty_exec_ms", ns("faults.faulty_exec") / 1e6),
        ("faults.timeline_gen_us", ns("faults.timeline_gen") / 1e3),
        ("sim.simulated_s", counts.simulated_s),
        ("trace.pass_ms", wall_s * 1e3),
        ("trace.attributed_frac", layers_ns / 1e9 / wall_s),
    ]
}
