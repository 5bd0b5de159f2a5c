//! A fixed calibration loop, timed between passes, that tracks how fast
//! the host runs allocation- and cache-heavy code right now.
//!
//! On a shared two-core virtual machine the simulator's pass time drifts
//! by up to 2x over minutes as neighbours load the shared last-level cache
//! and memory. The calibration loop is benchmark code and never changes
//! with the program, so scaling a time by the loop's slowdown against a
//! fixed reference removes much of that drift while leaving any change in
//! the program's own speed in full view.

use crate::report::Outcome;
use crate::stats::{median, quantile};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The reference every calibrated time is scaled to: the loop's typical
/// wall time on the two-core box the baselines were taken on,
/// milliseconds.
const REFERENCE_MS: f64 = 18.0;

/// One calibration sample: the hash-map, vector and sort churn below on
/// every worker thread at once, milliseconds.
fn sample_ms() -> f64 {
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..crate::JOBS {
            s.spawn(churn);
        }
    });
    start.elapsed().as_secs_f64() * 1e3
}

fn churn() {
    let mut map: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut x = 7u64;
    for i in 0..60_000u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let v: Vec<u64> = (0..(x >> 58) + 4).map(|k| k ^ x).collect();
        map.insert(x % 20_000, v);
        if i % 3 == 0 {
            map.remove(&(x.rotate_left(7) % 20_000));
        }
    }
    let mut sums: Vec<u64> = map.values().map(|v| v.iter().sum()).collect();
    sums.sort_unstable();
    black_box(sums);
}

#[derive(Default)]
pub struct Calibration {
    samples_ms: Vec<f64>,
}

impl Calibration {
    pub fn sample(&mut self) {
        self.samples_ms.push(sample_ms());
    }

    /// How much slower than the reference the host ran during the run:
    /// a measured time divided by this is the calibrated time.
    pub fn slowdown(&self) -> f64 {
        median(&self.samples_ms) / REFERENCE_MS
    }
}

impl Calibration {
    /// Sets the end-to-end metrics from raw measurements, every time
    /// scaled by the run's slowdown. The raw values go to stderr.
    pub fn report_end_to_end(
        &self,
        m: &mut Outcome,
        setup_s: f64,
        ops_per_s: f64,
        latencies_ms: &[f64],
        peak_rss_mb: f64,
    ) {
        let slowdown = self.slowdown();
        let p50 = quantile(latencies_ms, 0.50);
        let p99 = quantile(latencies_ms, 0.99);
        eprintln!(
            "perfbench: raw setup {setup_s:.6} s, {ops_per_s:.3} ops/s, p50 {p50:.4} ms, \
             p99 {p99:.4} ms; host slowdown {slowdown:.3} over {} calibration samples",
            self.samples_ms.len()
        );
        m.set("setup_s", setup_s / slowdown);
        m.set("ops_per_s", ops_per_s * slowdown);
        m.set("op_p50_ms", p50 / slowdown);
        m.set("op_p99_ms", p99 / slowdown);
        m.set("peak_rss_mb", peak_rss_mb);
    }
}
