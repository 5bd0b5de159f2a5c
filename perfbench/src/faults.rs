//! `faults_event_loop`: every feasible main-grid cell under every fault
//! severity, each under a seed-chosen fault scenario, on a fresh
//! two-worker `Executor<CachedFaultCell>` each pass. The faulty leg always
//! runs on the event loop.
//!
//! The seed picks each base cell's scenario seed. Every pass holds every
//! feasible base, so the cost of a pass barely depends on the seed: a
//! seed-chosen subset of bases would swing it by a third, as a cell's
//! cost ranges from 1 to 40 ms with its batch and strategy.

use crate::grid::GridBench;
use crate::reference::Reference;
use crate::replica::{self, Counts};
use crate::report::Outcome;
use crate::stats::Rng;
use crate::trace::Tracer;
use olab_core::{registry, Experiment};
use olab_faults::{severity_grid, CachedFaultCell, FaultCell, Severity};
use olab_grid::{Executor, ProgressSink};

/// Scenario seeds a base cell may be paired with. The reference covers
/// every feasible base under each of them.
const SCENARIO_SEEDS: [u64; 4] = [1, 2, 3, 4];

pub struct FaultsEventLoop {
    pub seed: u64,
}

fn feasible_bases() -> Vec<Experiment> {
    registry::main_grid()
        .into_iter()
        .filter(|e| e.validate().is_ok())
        .collect()
}

/// Every cell the workload can draw, for the reference file.
pub fn reference_cells() -> Vec<FaultCell> {
    feasible_bases()
        .iter()
        .flat_map(|base| severity_grid(base, &SCENARIO_SEEDS, &Severity::ALL))
        .collect()
}

impl GridBench for FaultsEventLoop {
    type Job = FaultCell;
    type Engine = Executor<CachedFaultCell>;
    type Out = CachedFaultCell;

    fn setup(&self, workers: usize) -> (Vec<FaultCell>, Executor<CachedFaultCell>) {
        let mut rng = Rng::new(self.seed);
        let cells = feasible_bases()
            .iter()
            .flat_map(|base| {
                let scenario = SCENARIO_SEEDS[rng.below(SCENARIO_SEEDS.len())];
                severity_grid(base, &[scenario], &Severity::ALL)
            })
            .collect();
        (cells, Executor::new().with_jobs(workers))
    }

    fn run(
        engine: &Executor<CachedFaultCell>,
        jobs: &[FaultCell],
        sink: Option<&dyn ProgressSink>,
    ) -> Vec<Option<CachedFaultCell>> {
        engine
            .run_with_progress(jobs, sink)
            .outputs
            .into_iter()
            .map(Result::ok)
            .collect()
    }

    /// Every base is feasible, so an infeasible outcome can only be a
    /// simulation error.
    fn is_failure(out: &CachedFaultCell) -> bool {
        matches!(out, CachedFaultCell::Infeasible(_))
    }

    fn replica(
        job: &FaultCell,
        id: u64,
        tr: &mut Tracer,
        counts: &mut Counts,
        classify: bool,
    ) -> CachedFaultCell {
        replica::run_fault_cell(job, id, tr, counts, classify)
    }

    fn reference(&self) -> Reference {
        Reference::faults()
    }

    /// Simulated fault counts: they must repeat exactly for a seed.
    fn result_metrics(&self, outs: &[CachedFaultCell], m: &mut Outcome) {
        let (mut retries, mut degraded, mut ecc) = (0u64, 0u64, 0u64);
        for out in outs {
            if let CachedFaultCell::Ok(r) = out {
                retries += u64::from(r.retries);
                degraded += u64::from(r.degraded_collectives);
                ecc += u64::from(r.ecc_kernels);
            }
        }
        m.set("faults.retries", retries as f64);
        m.set("faults.degraded_collectives", degraded as f64);
        m.set("faults.ecc_kernels", ecc as f64);
    }
}
