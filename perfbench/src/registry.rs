//! Readings of the program's own `olab-metrics` registry.

use olab_metrics::{Determinism, HistogramSnapshot};
use std::collections::BTreeMap;

pub fn counter(name: &'static str) -> f64 {
    olab_metrics::counter(name, Determinism::Wall, "").get() as f64
}

pub fn histogram(name: &'static str) -> HistogramSnapshot {
    olab_metrics::histogram(name, "").snapshot()
}

/// The grid engine's pool and cache families since the last reset.
pub fn grid_families(out: &mut BTreeMap<&'static str, f64>) {
    out.insert(
        "grid.pool_busy_ms",
        histogram("olab_pool_worker_busy_ns").sum as f64 / 1e6,
    );
    out.insert(
        "grid.pool_idle_ms",
        histogram("olab_pool_worker_idle_ns").sum as f64 / 1e6,
    );
    out.insert("grid.steals", counter("olab_pool_steals_total"));
    let memory = counter("olab_cache_memory_hits_total");
    let disk = counter("olab_cache_disk_hits_total");
    let misses = counter("olab_cache_misses_total");
    out.insert("grid.cache_hits_memory", memory);
    out.insert("grid.cache_hits_disk", disk);
    out.insert("grid.cache_misses", misses);
    out.insert(
        "grid.cache_hit_ratio",
        (memory + disk) / (memory + disk + misses).max(1.0),
    );
    for (metric, family) in [
        (
            "grid.cache_lookup_memory_us",
            "olab_cache_lookup_memory_hit_ns",
        ),
        ("grid.cache_lookup_disk_us", "olab_cache_lookup_disk_hit_ns"),
        ("grid.cache_lookup_miss_us", "olab_cache_lookup_miss_ns"),
        ("grid.cache_insert_us", "olab_cache_insert_ns"),
    ] {
        out.insert(metric, histogram(family).p50() as f64 / 1e3);
    }
}
