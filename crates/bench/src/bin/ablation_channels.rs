//! Ablation: collective channel count.
//!
//! Each NCCL/RCCL channel is a persistent kernel occupying SMs. More
//! channels move bytes faster but steal more compute — the direct knob
//! behind the paper's SM-contention mechanism. This study forces channel
//! counts on an H100 all-reduce overlapping a GEMM stream and reports both
//! sides of the trade.

use olab_bench::emit;
use olab_ccl::{lower, Algorithm, Collective};
use olab_core::report::{pct, Table};
use olab_core::{execute, Machine};
use olab_gpu::{Datapath, GpuSku, KernelKind, Precision};
use olab_parallel::{ComputeOp, Op};
use olab_sim::{label, GpuId, StreamKind, TaskSpec, Workload};

fn main() {
    let sku = GpuSku::h100();
    let machine = Machine::stock(sku.clone(), 4);
    let profile = sku.contention();
    let group: Vec<GpuId> = (0..4).map(GpuId).collect();
    let base = lower(
        &Collective::all_reduce(1 << 28, group.clone()),
        Algorithm::Ring,
        &sku,
        &machine.config().topology,
        Precision::Fp16,
    );

    let gemm = Op::Compute(ComputeOp::new(
        KernelKind::gemm(8192, 8192, 8192),
        Precision::Fp16,
        Datapath::TensorCore,
    ));

    let run = |channels: u32| {
        // Channels scale the achievable wire rate (up to the link) and the
        // SM footprint together.
        let mut op = base.clone();
        op.channels = channels;
        op.sm_fraction = profile.comm_sm_fraction(channels);
        let full_rate = op.wire_rate_bytes_per_sec;
        op.wire_rate_bytes_per_sec = full_rate * (f64::from(channels) / 16.0).min(1.0);

        let mut w = Workload::new(4);
        for g in 0..4u16 {
            for r in 0..4 {
                w.push(TaskSpec::compute(
                    label!("gemm.g{}.r{}", g, r),
                    GpuId(g),
                    gemm.clone(),
                ));
            }
        }
        w.push(TaskSpec::new(
            "ar",
            group.clone(),
            StreamKind::Comm,
            Op::Comm(op),
        ));
        execute(&w, &machine).expect("ablation runs")
    };

    // GEMM-only baseline.
    let mut baseline = Workload::new(4);
    for g in 0..4u16 {
        for r in 0..4 {
            baseline.push(TaskSpec::compute(
                label!("gemm.g{}.r{}", g, r),
                GpuId(g),
                gemm.clone(),
            ));
        }
    }
    let iso = execute(&baseline, &machine).expect("baseline runs");
    let iso_gemm = iso.gpus[0].compute_s;

    let mut table = Table::new([
        "Channels",
        "SM fraction",
        "All-reduce time",
        "GEMM slowdown",
        "E2E",
    ]);
    for channels in [1u32, 2, 4, 8, 16] {
        let r = run(channels);
        let ar = r
            .trace
            .records()
            .iter()
            .find(|t| t.label == "ar")
            .expect("all-reduce record");
        table.row([
            channels.to_string(),
            format!("{:.3}", profile.comm_sm_fraction(channels)),
            format!("{:.2} ms", ar.duration().as_secs() * 1e3),
            pct(r.gpus[0].compute_s / iso_gemm - 1.0),
            format!("{:.2} ms", r.e2e_s * 1e3),
        ]);
    }
    emit(
        "Ablation: channel count (H100, 256 MiB all-reduce under a GEMM stream)",
        &table,
    );
}
