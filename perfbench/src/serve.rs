//! `serve_mixed`: an in-process `olab serve` daemon under two closed-loop
//! clients.
//!
//! The daemon runs as deployed (no coalescing hold, no chaos plan) with a
//! disk cache tier. Each round starts a fresh daemon on a fresh copy of a
//! disk tier pre-seeded with a seed-chosen half of a fixed 32-query pool,
//! then the two clients send a fixed seeded sequence of `GET /v1/cell`
//! requests, one at a time each. Every pool query appears in the sequence,
//! so each round writes the unseeded half (misses simulate and store),
//! reads the seeded half from disk on first touch, and serves every
//! repeat from memory. Every 200 body must equal the body rendered from
//! an offline `Sweep` of the same cell.

use crate::calib::Calibration;
use crate::registry::{counter, histogram};
use crate::report::Outcome;
use crate::stats::{median, peak_rss_mb, quantile, Rng};
use crate::trace::Tracer;
use crate::{Args, JOBS, OUT_DIR};
use olab_core::sweep::{cell_descriptor, CachedCell};
use olab_core::{CellOutcome, Sweep};
use olab_grid::{CacheValue, Reader, Writer};
use olab_serve::{parse_query, render_cell_body, ServeConfig};
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Requests per round, across both clients.
const ROUND_REQUESTS: usize = 400;

/// Zipf exponent of the repeat draws.
const ZIPF_S: f64 = 1.1;

/// `/readyz` probes before a round gives up on a fresh daemon.
const READY_ATTEMPTS: usize = 1000;

/// The query pool: pairs of one configuration in FP16 and in BF16. Both
/// members of a pair build the same schedule, so they cost the same to
/// simulate and are both feasible or both not, and the seed's choice of
/// which member to pre-seed does not move the cost of a round.
fn pool() -> Vec<[String; 2]> {
    let mut pairs = Vec::new();
    for sku in ["a100", "h100", "mi210", "mi250"] {
        for model in ["gpt3-xl", "gpt3-6.7b"] {
            for (strategy, batch) in [("fsdp", 8), ("pp", 32)] {
                pairs.push(["fp16", "bf16"].map(|precision| {
                    format!(
                        "sku={sku}&model={model}&strategy={strategy}&batch={batch}&precision={precision}"
                    )
                }));
            }
        }
    }
    pairs
}

struct Query {
    text: String,
    outcome: CellOutcome,
    /// The body an offline sweep renders for this query.
    body: String,
    preseeded: bool,
}

/// How a request was resolved, from the client's knowledge of the
/// sequence: a repeat, or the first touch of a seeded or unseeded query.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Hit,
    DiskHit,
    Miss,
    /// First touch of an infeasible query: validation answers it.
    Rejected,
}

struct Sample {
    kind: Kind,
    latency_ms: f64,
    ok: bool,
}

/// The seeded round: pool indices in request order.
fn sequence(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut ranked: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut ranked);
    let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    let mut seq: Vec<usize> = (0..n).collect();
    while seq.len() < ROUND_REQUESTS {
        let mut u = rng.unit() * total;
        let mut rank = 0;
        while rank + 1 < n && u >= weights[rank] {
            u -= weights[rank];
            rank += 1;
        }
        seq.push(ranked[rank]);
    }
    rng.shuffle(&mut seq);
    seq
}

fn classify(seq: &[usize], queries: &[Query]) -> Vec<Kind> {
    let mut seen = HashSet::new();
    seq.iter()
        .map(|&q| {
            if !seen.insert(q) {
                Kind::Hit
            } else if queries[q].preseeded {
                Kind::DiskHit
            } else if queries[q].outcome.is_ok() {
                Kind::Miss
            } else {
                Kind::Rejected
            }
        })
        .collect()
}

/// One HTTP/1.1 exchange on a fresh connection: status and body.
fn get(addr: SocketAddr, target: &str, id: u64, tr: &mut Tracer) -> io::Result<(u16, Vec<u8>)> {
    let open = tr.begin(id);
    let stream = TcpStream::connect(addr);
    tr.end(open, "serve.connect");
    let mut stream = stream?;
    let open = tr.begin(id);
    let mut raw = Vec::with_capacity(1024);
    let exchange = stream
        .write_all(format!("GET {target} HTTP/1.1\r\nHost: perfbench\r\n\r\n").as_bytes())
        .and_then(|()| stream.read_to_end(&mut raw));
    tr.end(open, "serve.exchange");
    exchange?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no header terminator"))?;
    let status = String::from_utf8_lossy(&raw[..split])
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no status code"))?;
    Ok((status, raw[split + 4..].to_vec()))
}

fn copy_cells(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "cell") {
            std::fs::copy(&path, to.join(path.file_name().expect("entry has a name")))?;
        }
    }
    Ok(())
}

struct Round {
    setup_s: f64,
    wall_s: f64,
    samples: Vec<Sample>,
    /// Dropped connections, wrong responses, and stranded workers.
    failed: u64,
    /// Registry readings (traced rounds only).
    registry: BTreeMap<&'static str, f64>,
    /// Client thread time inside request spans, over the round.
    span_busy_s: f64,
    connect_spans_ms: Vec<f64>,
}

struct Workload {
    queries: Vec<Query>,
    seq: Vec<usize>,
    kinds: Vec<Kind>,
    template: PathBuf,
    scratch: PathBuf,
}

impl Workload {
    fn prepare(seed: u64, scratch: PathBuf) -> io::Result<Self> {
        let mut rng = Rng::new(seed);
        let mut texts = Vec::new();
        let mut preseeded = Vec::new();
        for pair in pool() {
            let pick = rng.below(2);
            for (i, text) in pair.into_iter().enumerate() {
                preseeded.push(i == pick);
                texts.push(text);
            }
        }
        let experiments: Vec<_> = texts
            .iter()
            .map(|t| parse_query(t).expect("pool queries parse").experiment)
            .collect();
        // Serial, so the process's memory state before the first round is
        // the same on every run.
        let outcomes = Sweep::new().with_jobs(1).run(&experiments).cells;
        let template = scratch.join("template");
        let seeded: Vec<_> = experiments
            .iter()
            .zip(&preseeded)
            .filter(|(_, p)| **p)
            .map(|(e, _)| e.clone())
            .collect();
        Sweep::new()
            .with_jobs(1)
            .with_disk_cache(&template)?
            .run(&seeded);
        let queries: Vec<Query> = texts
            .into_iter()
            .zip(experiments.iter().zip(outcomes))
            .zip(preseeded)
            .map(|((text, (e, outcome)), preseeded)| Query {
                text,
                body: render_cell_body(&cell_descriptor(e), &outcome),
                outcome,
                preseeded,
            })
            .collect();
        let seq = sequence(&mut rng, queries.len());
        let kinds = classify(&seq, &queries);
        Ok(Workload {
            queries,
            seq,
            kinds,
            template,
            scratch,
        })
    }

    fn round(&self, index: usize, traced: bool, tracers: &mut [Tracer; JOBS]) -> io::Result<Round> {
        let dir = self.scratch.join(format!("round-{index}"));
        copy_cells(&self.template, &dir)?;
        let start = Instant::now();
        let handle = olab_serve::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            jobs: JOBS,
            cache_dir: Some(dir.clone()),
            http_workers: JOBS,
            ..ServeConfig::default()
        })?;
        let addr = handle.addr();
        let mut ready = false;
        for _ in 0..READY_ATTEMPTS {
            if get(addr, "/readyz", 0, &mut Tracer::new(false))?.0 == 200 {
                ready = true;
                break;
            }
        }
        let setup_s = start.elapsed().as_secs_f64();
        if !ready {
            handle.shutdown();
            return Err(io::Error::other("the daemon never reported ready"));
        }
        if traced {
            olab_metrics::reset();
        }

        let marks: Vec<usize> = tracers.iter().map(Tracer::mark).collect();
        let next = AtomicUsize::new(0);
        let base_id = (index * ROUND_REQUESTS) as u64;
        let start = Instant::now();
        let per_client: Vec<(Vec<Sample>, u64)> = std::thread::scope(|s| {
            let workers: Vec<_> = tracers
                .iter_mut()
                .map(|tr| {
                    let next = &next;
                    s.spawn(move || self.client(addr, next, base_id, tr))
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("client thread panicked"))
                .collect()
        });
        let wall_s = start.elapsed().as_secs_f64();

        let registry = if traced {
            read_registry()
        } else {
            BTreeMap::new()
        };
        let stranded = handle.shutdown().stranded_workers;
        std::fs::remove_dir_all(&dir)?;

        let mut samples = Vec::new();
        let mut failed = stranded as u64;
        for (client_samples, dropped) in per_client {
            samples.extend(client_samples);
            failed += dropped;
        }
        failed += samples.iter().filter(|s| !s.ok).count() as u64;
        let (mut span_busy_s, mut connect_spans_ms) = (0.0, Vec::new());
        if traced {
            for (tr, &mark) in tracers.iter().zip(&marks) {
                span_busy_s += tr.durations_since(mark, "request").iter().sum::<f64>() / 1e9;
                connect_spans_ms.extend(
                    tr.durations_since(mark, "serve.connect")
                        .into_iter()
                        .map(|ns| ns / 1e6),
                );
            }
        }
        Ok(Round {
            setup_s,
            wall_s,
            samples,
            failed,
            registry,
            span_busy_s,
            connect_spans_ms,
        })
    }

    /// One closed-loop client: takes the next request of the sequence
    /// until the round is done. Returns its samples and its dropped
    /// connections.
    fn client(
        &self,
        addr: SocketAddr,
        next: &AtomicUsize,
        base_id: u64,
        tr: &mut Tracer,
    ) -> (Vec<Sample>, u64) {
        let (mut samples, mut dropped) = (Vec::new(), 0);
        let mut queue_depth_max = 0i64;
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= self.seq.len() {
                break;
            }
            let query = &self.queries[self.seq[i]];
            let target = format!("/v1/cell?{}", query.text);
            let id = base_id + i as u64;
            let start = Instant::now();
            let root = tr.begin(id);
            let response = get(addr, &target, id, tr);
            tr.end(root, "request");
            let latency_ms = start.elapsed().as_secs_f64() * 1e3;
            if tr.is_on() {
                queue_depth_max =
                    queue_depth_max.max(olab_serve::metrics::serve_metrics().queue_depth.get());
            }
            match response {
                Ok((status, body)) => samples.push(Sample {
                    kind: self.kinds[i],
                    latency_ms,
                    ok: status == 200 && body == query.body.as_bytes(),
                }),
                Err(_) => dropped += 1,
            }
        }
        QUEUE_DEPTH_MAX.fetch_max(queue_depth_max as usize, Ordering::Relaxed);
        (samples, dropped)
    }
}

/// Deepest admission queue the clients saw, sampled at each request.
static QUEUE_DEPTH_MAX: AtomicUsize = AtomicUsize::new(0);

/// The daemon's own registry families for one round.
fn read_registry() -> BTreeMap<&'static str, f64> {
    let mut r = BTreeMap::new();
    let request = histogram("olab_serve_request_ns");
    r.insert("serve.request_p50_ms", request.p50() as f64 / 1e6);
    r.insert("serve.request_p99_ms", request.p99() as f64 / 1e6);
    r.insert("serve.executed", counter("olab_serve_executed_total"));
    r.insert("serve.coalesced", counter("olab_serve_coalesced_total"));
    r.insert("serve.shed", counter("olab_serve_shed_total"));
    crate::registry::grid_families(&mut r);
    let event_loop_ns = histogram("olab_core_cell_event_loop_full_ns").sum
        + histogram("olab_core_cell_event_loop_lean_ns").sum;
    let fast_ns =
        histogram("olab_core_cell_fast_full_ns").sum + histogram("olab_core_cell_fast_lean_ns").sum;
    r.insert("sim.event_loop_ms", event_loop_ns as f64 / 1e6);
    r.insert(
        "sim.event_loop_legs",
        counter("olab_core_route_event_loop_full_total")
            + counter("olab_core_route_event_loop_lean_total"),
    );
    r.insert("core.fast_path_ms", fast_ns as f64 / 1e6);
    r.insert(
        "core.fast_path_legs",
        counter("olab_core_route_fast_full_total") + counter("olab_core_route_fast_lean_total"),
    );
    r
}

/// Median wall time of `f` over the pool, microseconds.
fn time_each<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let samples: Vec<f64> = items
        .iter()
        .map(|item| {
            let start = Instant::now();
            f(item);
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

pub fn run(args: &Args) -> Outcome {
    let scratch = Path::new(OUT_DIR).join(format!("serve-{}", std::process::id()));
    let mut m = Outcome::default();
    let result = measure(args, &scratch, &mut m);
    let _ = std::fs::remove_dir_all(&scratch);
    if let Err(e) = result {
        eprintln!("perfbench: serve_mixed: {e}");
        m.count(1, 1);
    }
    m
}

fn measure(args: &Args, scratch: &Path, m: &mut Outcome) -> io::Result<()> {
    let w = Workload::prepare(args.seed, scratch.to_path_buf())?;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut tracers = [Tracer::new(true), Tracer::new(true)];
    let mut untraced = [Tracer::new(false), Tracer::new(false)];
    let (mut rounds, mut plain_walls) = (Vec::new(), Vec::new());
    let mut index = 0;
    let mut calib = Calibration::default();
    let mut first_round_rss = 0.0;
    while rounds.len() < 3 || Instant::now() < deadline {
        calib.sample();
        // A traced run alternates untraced rounds, whose wall times are
        // the base of the tracing overhead.
        if args.trace && index % 2 == 0 {
            let round = w.round(index, false, &mut untraced)?;
            m.count(ROUND_REQUESTS as u64, round.failed);
            plain_walls.push(round.wall_s);
        } else {
            let round = w.round(index, args.trace, &mut tracers)?;
            m.count(ROUND_REQUESTS as u64, round.failed);
            rounds.push(round);
        }
        if index == 0 {
            // The first round follows the serial preparation in a fresh
            // process: its peak RSS is the memory metric.
            first_round_rss = peak_rss_mb();
        }
        index += 1;
    }
    calib.sample();

    let latencies: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.samples.iter().map(|s| s.latency_ms))
        .collect();
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    if !args.trace {
        calib.report_end_to_end(
            m,
            median(&rounds.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
            ROUND_REQUESTS as f64 / median(&walls),
            &latencies,
            first_round_rss,
        );
        return Ok(());
    }

    let p50_of = |kind: Kind| {
        let v: Vec<f64> = rounds
            .iter()
            .flat_map(|r| {
                r.samples
                    .iter()
                    .filter(|s| s.kind == kind)
                    .map(|s| s.latency_ms)
            })
            .collect();
        quantile(&v, 0.5)
    };
    m.set("serve.hit_p50_ms", p50_of(Kind::Hit));
    m.set("serve.disk_hit_p50_ms", p50_of(Kind::DiskHit));
    m.set("serve.miss_p50_ms", p50_of(Kind::Miss));
    let connect: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.connect_spans_ms.iter().copied())
        .collect();
    m.set("serve.connect_ms", quantile(&connect, 0.5));
    let mut registry: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for round in &rounds {
        for (k, v) in &round.registry {
            registry.entry(k).or_default().push(*v);
        }
    }
    for (k, v) in registry {
        m.set(k, median(&v));
    }
    m.set(
        "serve.queue_depth_max",
        QUEUE_DEPTH_MAX.load(Ordering::Relaxed) as f64,
    );
    m.set(
        "serve.parse_us",
        time_each(&w.queries, |q| {
            black_box(parse_query(&q.text).ok());
        }),
    );
    m.set(
        "serve.render_us",
        time_each(&w.queries, |q| {
            black_box(render_cell_body(
                &cell_descriptor(&parse_query(&q.text).expect("parses").experiment),
                &q.outcome,
            ));
        }),
    );
    let cells: Vec<CachedCell> = w
        .queries
        .iter()
        .map(|q| CachedCell(q.outcome.clone()))
        .collect();
    m.set(
        "grid.codec_us",
        time_each(&cells, |c| {
            let mut wr = Writer::new();
            c.encode(&mut wr);
            let bytes = wr.into_bytes();
            black_box(CachedCell::decode(&mut Reader::new(&bytes)));
        }),
    );
    // Simulated seconds of the cells a round's misses simulate: exact.
    let simulated_s: f64 = w
        .kinds
        .iter()
        .zip(&w.seq)
        .filter(|(k, _)| **k == Kind::Miss)
        .filter_map(|(_, &q)| w.queries[q].outcome.as_ref().ok())
        .map(|c| {
            c.metrics.e2e_overlapped_s
                + c.metrics.e2e_sequential_measured_s
                + c.ideal_simulated_e2e_s
        })
        .sum();
    m.set("sim.simulated_s", simulated_s);
    let traced_wall = median(&walls);
    m.set("trace.pass_ms", traced_wall * 1e3);
    m.set(
        "trace.attributed_frac",
        median(
            &rounds
                .iter()
                .map(|r| r.span_busy_s / (JOBS as f64 * r.wall_s))
                .collect::<Vec<_>>(),
        ),
    );
    m.set(
        "trace.overhead_frac",
        traced_wall / median(&plain_walls) - 1.0,
    );
    crate::write_spans(args, &[&tracers[0], &tracers[1]]);
    Ok(())
}
