//! `grid_cold`: the paper's main grid (Figs. 4–6), every cell simulated
//! on a fresh two-worker `Sweep` with a memory-only cache each pass.

use crate::grid::GridBench;
use crate::reference::Reference;
use crate::replica::{self, Counts};
use crate::report::Outcome;
use crate::trace::Tracer;
use olab_core::sweep::CachedCell;
use olab_core::{registry, CellError, Experiment, Sweep};
use olab_grid::ProgressSink;

/// The paper abstract's mean compute slowdown under overlap, percent.
const PAPER_SLOWDOWN_PCT: f64 = 18.9;
/// The paper abstract's mean sequential-vs-overlapped gap, percent.
const PAPER_SEQ_GAP_PCT: f64 = 10.2;

pub struct GridCold;

impl GridBench for GridCold {
    type Job = Experiment;
    type Engine = Sweep;
    type Out = CachedCell;

    fn setup(&self, workers: usize) -> (Vec<Experiment>, Sweep) {
        (registry::main_grid(), Sweep::new().with_jobs(workers))
    }

    fn run(
        engine: &Sweep,
        jobs: &[Experiment],
        sink: Option<&dyn ProgressSink>,
    ) -> Vec<Option<CachedCell>> {
        engine
            .run_with_progress(jobs, sink)
            .cells
            .into_iter()
            .map(|cell| Some(CachedCell(cell)))
            .collect()
    }

    fn is_failure(out: &CachedCell) -> bool {
        matches!(
            out.0,
            Err(CellError::Panic(_)
                | CellError::Timeout { .. }
                | CellError::Sim(_)
                | CellError::RetriesExhausted { .. })
        )
    }

    fn replica(
        job: &Experiment,
        id: u64,
        tr: &mut Tracer,
        counts: &mut Counts,
        classify: bool,
    ) -> CachedCell {
        CachedCell(replica::run_cell(job, id, tr, counts, classify))
    }

    fn reference(&self) -> Reference {
        Reference::grid()
    }

    /// The simulator's error against the paper's abstract, computed over
    /// the feasible cells exactly as the `headline` regenerator does.
    fn result_metrics(&self, outs: &[CachedCell], m: &mut Outcome) {
        let feasible: Vec<_> = outs.iter().filter_map(|c| c.0.as_ref().ok()).collect();
        let n = feasible.len().max(1) as f64;
        let slowdown = feasible
            .iter()
            .map(|c| c.metrics.compute_slowdown)
            .sum::<f64>()
            / n;
        let seq_gap = feasible
            .iter()
            .map(|c| c.metrics.sequential_vs_overlapped())
            .sum::<f64>()
            / n;
        m.set(
            "paper_err.slowdown_pp",
            (slowdown * 100.0 - PAPER_SLOWDOWN_PCT).abs(),
        );
        m.set(
            "paper_err.seq_gap_pp",
            (seq_gap * 100.0 - PAPER_SEQ_GAP_PCT).abs(),
        );
    }
}
