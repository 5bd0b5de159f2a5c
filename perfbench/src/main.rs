//! overlap-lab's benchmark.
//!
//! ```text
//! olab-perfbench --workload <grid_cold|faults_event_loop|serve_mixed>
//!                --seed <n> --seconds <s> --trace <0|1>
//! olab-perfbench --write-reference
//! ```
//!
//! Each run measures one workload for `--seconds`, checks every output,
//! and prints one JSON result line last on stdout. An untraced run
//! (`--trace 0`) reports the end-to-end metrics; a traced run
//! (`--trace 1`) reports the per-layer breakdown and writes its spans to
//! `.perfbench-out/`. `--write-reference` recomputes the output digests
//! under `perfbench/reference/`.

mod calib;
mod faults;
mod grid;
mod grid_cold;
mod reference;
mod registry;
mod replica;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::Path;
use std::process::ExitCode;

/// Engine workers and client connections: the benchmark box has 2 cores.
pub const JOBS: usize = 2;

/// Scratch space for spans and disk cache tiers, under the directory the
/// benchmark runs from.
pub const OUT_DIR: &str = ".perfbench-out";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = argv.next() {
        if flag == "--write-reference" {
            return Ok(None);
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot parse '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// Writes every recorded span as JSON lines to
/// `.perfbench-out/<workload>-seed<n>.spans.jsonl`.
pub fn write_spans(args: &Args, tracers: &[&trace::Tracer]) {
    let mut out = String::new();
    for (thread, tracer) in tracers.iter().enumerate() {
        tracer.write_jsonl(thread, &mut out);
    }
    let path = Path::new(OUT_DIR).join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, out));
    if let Err(e) = written {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("reference");
            return match reference::write(&dir) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: writing the reference: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "grid_cold" => grid::run(&grid_cold::GridCold, &args),
        "faults_event_loop" => grid::run(&faults::FaultsEventLoop { seed: args.seed }, &args),
        "serve_mixed" => serve::run(&args),
        other => {
            eprintln!("perfbench: unknown workload '{other}'");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: {} seed {} ({}): {} attempted, {} failed",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        outcome.attempted,
        outcome.failed
    );
    match report::render(&outcome, args.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}; no result");
            ExitCode::FAILURE
        }
    }
}
