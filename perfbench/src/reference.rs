//! Output check: a digest of every cell's `CacheValue` encoding against
//! a reference kept beside the benchmark.
//!
//! Each reference file maps a cell's cache key to the FNV-1a digest of
//! its encoded result, one `key digest` pair of hex numbers per line.
//! Regenerate both files with `--write-reference` after a change that is
//! meant to alter simulated results.

use olab_core::sweep::CachedCell;
use olab_core::{registry, Sweep};
use olab_faults::{CachedFaultCell, FaultCell};
use olab_grid::{fnv1a_64, CacheValue, Executor, GridJob, Writer};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

const GRID_REFERENCE: &str = include_str!("../reference/grid_cold.txt");
const FAULTS_REFERENCE: &str = include_str!("../reference/faults_event_loop.txt");

/// The FNV-1a digest of a value's cache encoding.
pub fn digest<V: CacheValue>(value: &V) -> u64 {
    let mut w = Writer::new();
    value.encode(&mut w);
    fnv1a_64(&w.into_bytes())
}

pub struct Reference(HashMap<u64, u64>);

impl Reference {
    fn parse(text: &str) -> Self {
        let entries = text
            .lines()
            .filter_map(|line| {
                let (key, digest) = line.split_once(' ')?;
                Some((
                    u64::from_str_radix(key, 16).ok()?,
                    u64::from_str_radix(digest, 16).ok()?,
                ))
            })
            .collect();
        Reference(entries)
    }

    pub fn grid() -> Self {
        Self::parse(GRID_REFERENCE)
    }

    pub fn faults() -> Self {
        Self::parse(FAULTS_REFERENCE)
    }

    /// Whether `value` is the reference result of the job with
    /// `descriptor`. A job missing from the reference fails.
    pub fn matches<V: CacheValue>(&self, descriptor: &str, value: &V) -> bool {
        self.0.get(&fnv1a_64(descriptor.as_bytes())) == Some(&digest(value))
    }
}

fn render<J: GridJob>(jobs: &[J], values: &[J::Output]) -> String {
    let mut lines: Vec<String> = jobs
        .iter()
        .zip(values)
        .map(|(job, value)| {
            format!(
                "{:016x} {:016x}",
                fnv1a_64(job.descriptor().as_bytes()),
                digest(value)
            )
        })
        .collect();
    lines.sort();
    lines.dedup();
    let mut out = String::new();
    for line in lines {
        let _ = writeln!(out, "{line}");
    }
    out
}

/// Recomputes both reference files into `dir`.
pub fn write(dir: &Path) -> std::io::Result<()> {
    let grid = registry::main_grid();
    let outcome = Sweep::new().with_jobs(crate::JOBS).run(&grid);
    let cells: Vec<CachedCell> = outcome.cells.into_iter().map(CachedCell).collect();
    std::fs::write(dir.join("grid_cold.txt"), render(&grid, &cells))?;

    let jobs: Vec<FaultCell> = crate::faults::reference_cells();
    let run = Executor::<CachedFaultCell>::new()
        .with_jobs(crate::JOBS)
        .run(&jobs);
    let values: Vec<CachedFaultCell> = run
        .outputs
        .into_iter()
        .map(|r| r.expect("reference cells run without failures"))
        .collect();
    std::fs::write(dir.join("faults_event_loop.txt"), render(&jobs, &values))?;
    Ok(())
}
