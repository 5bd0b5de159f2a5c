//! Grid cache-key stability.
//!
//! The sweep cache is content-addressed: the key is a hash of a versioned
//! textual descriptor of the cell configuration, and *nothing else* — in
//! particular not the execution path (event loop vs analytic fast path),
//! which both produce the same answers. These tests pin that contract
//! two ways:
//!
//! * a **golden vector**: the exact descriptor string and FNV-1a key of a
//!   fixed cell under fixed schema/calibration versions. If this test
//!   fails, the descriptor format changed — which silently invalidates (or
//!   worse, aliases) every existing on-disk cache. Bump
//!   [`CELL_SCHEMA_VERSION`](olab_core::sweep::CELL_SCHEMA_VERSION) instead
//!   of editing the format in place, then re-pin here;
//! * **attribution**: `SweepStats::fast_path` (not the key) is what
//!   records which path served the cells, and the swept metrics agree with
//!   the reference event loop's.

use olab_core::sweep::cell_descriptor_versioned;
use olab_core::{execute_event_loop, Experiment, OverlapMetrics, Strategy, Sweep};
use olab_gpu::SkuKind;
use olab_models::ModelPreset;
use olab_parallel::ExecutionMode;

fn golden_cell() -> Experiment {
    Experiment::new(SkuKind::H100, 4, ModelPreset::Gpt3Xl, Strategy::Fsdp, 8).with_seq(256)
}

#[test]
fn descriptor_and_key_match_the_golden_vector() {
    // Fixed versions, NOT the live ones: this pins the *format*, and must
    // keep passing when CELL_SCHEMA_VERSION or CALIBRATION_VERSION bump.
    let descriptor = cell_descriptor_versioned(&golden_cell(), 1, 1);
    assert_eq!(descriptor, GOLDEN_DESCRIPTOR, "descriptor format changed");
    assert_eq!(
        olab_grid::fnv1a_64(descriptor.as_bytes()),
        GOLDEN_KEY,
        "descriptor hash changed"
    );
}

const GOLDEN_DESCRIPTOR: &str = "olab-cell schema=1 calib=1 sku=H100 gpus=4 model=Gpt3Xl \
     strategy=Fsdp batch=8 seq=256 precision=Fp16 datapath=TensorCore power_cap=None \
     freq_cap=None schedule=OneFOneB grad_accum=1 fsdp_overlap=FsdpOverlap { \
     prefetch_all_gather: true, overlap_reduce_scatter: true }";
const GOLDEN_KEY: u64 = 0x06ac_15d7_ee86_ad91;

#[test]
fn sweep_stats_attribute_the_path_and_paths_agree() {
    let cells = vec![
        Experiment::new(SkuKind::H100, 2, ModelPreset::Gpt3Xl, Strategy::Fsdp, 4).with_seq(64),
        Experiment::new(SkuKind::A100, 2, ModelPreset::Gpt3Xl, Strategy::Fsdp, 4).with_seq(64),
    ];

    let fast = Sweep::new().run(&cells);
    assert!(
        fast.stats.fast_path > 0,
        "eligible cells must be attributed to the fast path"
    );

    for (exp, f) in cells.iter().zip(&fast.cells) {
        let f = f.as_ref().expect("cell simulates");
        let policy = exp.validate().expect("cell fits");
        let machine = exp.machine();
        let leg = |mode| {
            let w = exp.timeline(mode, policy).expect("timeline builds");
            execute_event_loop(&w, &machine).expect("reference runs")
        };
        let r = OverlapMetrics::derive(
            &leg(ExecutionMode::Overlapped),
            &leg(ExecutionMode::Sequential),
        );
        for (a, b) in [
            (f.metrics.e2e_overlapped_s, r.e2e_overlapped_s),
            (
                f.metrics.e2e_sequential_measured_s,
                r.e2e_sequential_measured_s,
            ),
            (f.metrics.overlap_ratio, r.overlap_ratio),
        ] {
            assert!(
                (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1e-9),
                "paths disagree: {a} vs {b}"
            );
        }
    }
}
