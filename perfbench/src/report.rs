//! The metric catalog and the result line.
//!
//! Every workload reports every metric of the catalog: the end-to-end
//! set in an untraced run, the per-layer set in a traced one.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (untraced run): name, unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run): name, unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("models.validate_us", "us"),
    ("models.infeasible_cells", "count"),
    ("core.machine_us", "us"),
    ("parallel.build_ms", "ms"),
    ("parallel.tasks", "count"),
    ("sim.event_loop_ms", "ms"),
    ("sim.event_loop_legs", "count"),
    ("sim.host_ns_per_task", "ns"),
    ("core.fast_path_ms", "ms"),
    ("core.fast_path_legs", "count"),
    ("core.fast_path_fallbacks", "count"),
    ("core.fast_path_ratio", "ratio"),
    ("core.derive_ms", "ms"),
    ("power.sample_us", "us"),
    ("grid.pool_busy_ms", "ms"),
    ("grid.pool_idle_ms", "ms"),
    ("grid.steals", "count"),
    ("grid.cache_lookup_memory_us", "us"),
    ("grid.cache_lookup_disk_us", "us"),
    ("grid.cache_lookup_miss_us", "us"),
    ("grid.cache_insert_us", "us"),
    ("grid.cache_hits_memory", "count"),
    ("grid.cache_hits_disk", "count"),
    ("grid.cache_misses", "count"),
    ("grid.cache_hit_ratio", "ratio"),
    ("grid.codec_us", "us"),
    ("faults.faulty_exec_ms", "ms"),
    ("faults.timeline_gen_us", "us"),
    ("faults.retries", "count"),
    ("faults.degraded_collectives", "count"),
    ("faults.ecc_kernels", "count"),
    ("serve.connect_ms", "ms"),
    ("serve.request_p50_ms", "ms"),
    ("serve.request_p99_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.disk_hit_p50_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.render_us", "us"),
    ("serve.executed", "count"),
    ("serve.coalesced", "count"),
    ("serve.shed", "count"),
    ("serve.queue_depth_max", "count"),
    ("sim.simulated_s", "s"),
    ("paper_err.slowdown_pp", "pp"),
    ("paper_err.seq_gap_pp", "pp"),
    ("trace.pass_ms", "ms"),
    ("trace.attributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records `n` attempted operations of which `bad` failed.
    pub fn count(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Prints the human table to stderr and returns the result line. An
/// untraced run must have measured every end-to-end metric; a layer a
/// workload does not exercise reads 0.
pub fn render(outcome: &Outcome, traced: bool) -> Result<String, String> {
    let catalog = if traced { PER_LAYER } else { END_TO_END };
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted, outcome.failed
    );
    for (i, (name, unit)) in catalog.iter().enumerate() {
        let value = match outcome.metrics.get(name) {
            Some(v) => *v,
            None if traced => 0.0,
            None => return Err(format!("{name} was not measured")),
        };
        eprintln!("  {name:<30} {value:>16.6} {unit}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        );
    }
    line.push_str("}}");
    Ok(line)
}
