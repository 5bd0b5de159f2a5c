//! The Fig. 8 microbenchmark: an N×N matrix multiplication executed
//! concurrently with a 1 GB all-reduce, compared against the same GEMMs
//! with no communication in flight.

use crate::{execute, Machine};
use olab_ccl::{lower, Algorithm, Collective};
use olab_gpu::{Datapath, Precision, SkuKind};
use olab_parallel::{ComputeOp, Op};
use olab_sim::{label, GpuId, SimError, StreamKind, TaskSpec, Workload};

/// Result of one microbenchmark point.
#[derive(Debug, Clone, PartialEq)]
pub struct MicrobenchResult {
    /// GEMM dimension (N×N×N).
    pub n: u64,
    /// Total GEMM time with no communication, seconds.
    pub isolated_gemm_s: f64,
    /// Total GEMM time with the all-reduce in flight, seconds.
    pub overlapped_gemm_s: f64,
    /// Average power of the isolated run, watts.
    pub avg_power_isolated_w: f64,
    /// Peak power of the isolated run, watts.
    pub peak_power_isolated_w: f64,
    /// Average power of the overlapped run, watts.
    pub avg_power_overlapped_w: f64,
    /// Peak power of the overlapped run, watts.
    pub peak_power_overlapped_w: f64,
}

impl MicrobenchResult {
    /// GEMM slowdown caused by the concurrent all-reduce.
    pub fn slowdown(&self) -> f64 {
        if self.isolated_gemm_s > 0.0 {
            self.overlapped_gemm_s / self.isolated_gemm_s - 1.0
        } else {
            0.0
        }
    }
}

/// Runs the microbenchmark on one SKU: `reps` back-to-back N×N×N GEMMs on
/// every GPU, once alone and once concurrent with a ring all-reduce of
/// `allreduce_bytes` over all GPUs.
///
/// # Errors
///
/// Propagates engine errors (none are expected for this fixed DAG).
pub fn gemm_vs_allreduce(
    sku: SkuKind,
    n_gpus: usize,
    n: u64,
    reps: usize,
    allreduce_bytes: u64,
    precision: Precision,
    datapath: Datapath,
) -> Result<MicrobenchResult, SimError> {
    let machine = Machine::stock(sku.sku(), n_gpus);
    let gemm = Op::Compute(ComputeOp::new(
        olab_gpu::KernelKind::gemm(n, n, n),
        precision,
        datapath,
    ));

    let build = |with_comm: bool| -> Workload<Op> {
        let mut w = Workload::new(n_gpus);
        for g in 0..n_gpus as u16 {
            for r in 0..reps {
                w.push(TaskSpec::compute(
                    label!("gemm{}.r{}.g{}", n, r, g),
                    GpuId(g),
                    gemm.clone(),
                ));
            }
        }
        if with_comm {
            let group: Vec<GpuId> = (0..n_gpus as u16).map(GpuId).collect();
            let c = Collective::all_reduce(allreduce_bytes, group.clone());
            let op = lower(
                &c,
                Algorithm::Ring,
                &machine.config().sku,
                &machine.config().topology,
                precision,
            );
            w.push(TaskSpec::new(
                "ar.1g",
                group,
                StreamKind::Comm,
                Op::Comm(op),
            ));
        }
        w
    };

    let isolated = execute(&build(false), &machine)?;
    let overlapped = execute(&build(true), &machine)?;

    let gemm_time = |run: &crate::RunResult| run.gpus[0].compute_s;
    // Power statistics are taken over the GEMM phase only — the all-reduce
    // tail after the last GEMM would otherwise dilute the averages.
    let gemm_end = |run: &crate::RunResult| {
        run.trace
            .records()
            .iter()
            .filter(|r| r.stream == StreamKind::Compute)
            .map(|r| r.end.as_secs())
            .fold(0.0, f64::max)
    };
    let window_stats = |run: &crate::RunResult| {
        let end = gemm_end(run);
        let avg = run
            .gpus
            .iter()
            .map(|g| g.power.average_over(0.0, end))
            .sum::<f64>()
            / run.gpus.len() as f64;
        let peak = run
            .gpus
            .iter()
            .map(|g| g.power.peak_over(0.0, end))
            .fold(0.0, f64::max);
        (avg, peak)
    };
    let (avg_iso, peak_iso) = window_stats(&isolated);
    let (avg_ovl, peak_ovl) = window_stats(&overlapped);

    Ok(MicrobenchResult {
        n,
        isolated_gemm_s: gemm_time(&isolated),
        overlapped_gemm_s: gemm_time(&overlapped),
        avg_power_isolated_w: avg_iso,
        peak_power_isolated_w: peak_iso,
        avg_power_overlapped_w: avg_ovl,
        peak_power_overlapped_w: peak_ovl,
    })
}

/// The paper's Fig. 8 sweep: N from 1Ki to 16Ki, 1 GB all-reduce.
pub fn fig8_sweep(sku: SkuKind, n_gpus: usize) -> Result<Vec<MicrobenchResult>, SimError> {
    [1024u64, 2048, 4096, 8192, 16384]
        .iter()
        .map(|&n| {
            // Keep total GEMM time comparable across N: work scales as N^3.
            let reps = match n {
                1024 => 64,
                2048 => 16,
                4096 => 4,
                _ => 2,
            };
            gemm_vs_allreduce(
                sku,
                n_gpus,
                n,
                reps,
                1 << 30,
                Precision::Fp16,
                Datapath::TensorCore,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_slows_gemms_and_raises_power() {
        let r = gemm_vs_allreduce(
            SkuKind::H100,
            4,
            4096,
            4,
            1 << 30,
            Precision::Fp16,
            Datapath::TensorCore,
        )
        .unwrap();
        assert!(r.slowdown() > 0.0, "slowdown {}", r.slowdown());
        assert!(r.peak_power_overlapped_w > r.peak_power_isolated_w);
    }

    #[test]
    fn amd_slowdown_exceeds_nvidia_slowdown() {
        let h = gemm_vs_allreduce(
            SkuKind::H100,
            4,
            4096,
            4,
            1 << 30,
            Precision::Fp16,
            Datapath::TensorCore,
        )
        .unwrap();
        let m = gemm_vs_allreduce(
            SkuKind::Mi250,
            4,
            4096,
            4,
            1 << 30,
            Precision::Fp16,
            Datapath::TensorCore,
        )
        .unwrap();
        assert!(m.slowdown() > h.slowdown());
    }

    #[test]
    fn sweep_produces_all_points() {
        let points = fig8_sweep(SkuKind::A100, 4).unwrap();
        assert_eq!(points.len(), 5);
        assert!(points.iter().all(|p| p.isolated_gemm_s > 0.0));
    }
}
