//! Power traces and sampled telemetry.

use crate::Sampler;
use olab_sim::PowerSegment;

/// One telemetry reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSample {
    /// Center of the averaging window, seconds.
    pub time_s: f64,
    /// Average draw over the window, watts.
    pub watts: f64,
}

/// One-pass summary of a piecewise-constant power trace.
///
/// Computing average, peak, and energy separately walks the segment list
/// three times (and [`PowerTrace::from_segments`] copies it first); this
/// struct folds all of them in a single pass directly over the engine's
/// segments. Each field matches the corresponding [`PowerTrace`] accessor
/// bit-for-bit: the accumulation order is identical.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerStats {
    /// Time-weighted average draw, watts (0 for an empty trace).
    pub average_w: f64,
    /// True instantaneous peak draw, watts.
    pub peak_w: f64,
    /// Total energy, joules.
    pub energy_j: f64,
    /// End of the trace, seconds.
    pub duration_s: f64,
}

impl PowerStats {
    /// Summarizes engine power segments in one pass without copying them.
    pub fn from_segments(segments: &[PowerSegment]) -> Self {
        let (mut energy, mut span, mut peak) = (0.0f64, 0.0f64, 0.0f64);
        for seg in segments {
            let t0 = seg.window.start.as_secs();
            let t1 = seg.window.end.as_secs();
            energy += seg.watts * (t1 - t0);
            span += t1 - t0;
            peak = peak.max(seg.watts);
        }
        PowerStats {
            average_w: if span > 0.0 { energy / span } else { 0.0 },
            peak_w: peak,
            energy_j: energy,
            duration_s: segments.last().map_or(0.0, |s| s.window.end.as_secs()),
        }
    }
}

/// An exact piecewise-constant power trace for one device.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PowerTrace {
    segments: Vec<(f64, f64, f64)>, // (start, end, watts)
}

impl PowerTrace {
    /// Builds a trace from engine power segments.
    pub fn from_segments(segments: &[PowerSegment]) -> Self {
        PowerTrace {
            segments: segments
                .iter()
                .map(|s| (s.window.start.as_secs(), s.window.end.as_secs(), s.watts))
                .collect(),
        }
    }

    /// End of the trace, seconds.
    pub fn duration_s(&self) -> f64 {
        self.segments.last().map_or(0.0, |s| s.1)
    }

    /// True instantaneous peak draw, watts.
    pub fn peak_instantaneous(&self) -> f64 {
        self.segments.iter().map(|s| s.2).fold(0.0, f64::max)
    }

    /// Time-weighted average draw, watts.
    pub fn average(&self) -> f64 {
        let (mut energy, mut span) = (0.0, 0.0);
        for (t0, t1, w) in &self.segments {
            energy += w * (t1 - t0);
            span += t1 - t0;
        }
        if span > 0.0 {
            energy / span
        } else {
            0.0
        }
    }

    /// Total energy, joules.
    pub fn energy_j(&self) -> f64 {
        self.segments.iter().map(|(t0, t1, w)| w * (t1 - t0)).sum()
    }

    /// One-pass summary: average, peak, energy, and duration together,
    /// matching the individual accessors bit-for-bit.
    pub fn stats(&self) -> PowerStats {
        let (mut energy, mut span, mut peak) = (0.0f64, 0.0f64, 0.0f64);
        for (t0, t1, w) in &self.segments {
            energy += w * (t1 - t0);
            span += t1 - t0;
            peak = peak.max(*w);
        }
        PowerStats {
            average_w: if span > 0.0 { energy / span } else { 0.0 },
            peak_w: peak,
            energy_j: energy,
            duration_s: self.duration_s(),
        }
    }

    /// Average draw over `[a, b)`, watts (0 if the interval is empty).
    pub fn average_over(&self, a: f64, b: f64) -> f64 {
        average_within(&self.segments, a, b)
    }

    /// Energy delivered within `[a, b)`, joules (0 if the interval is
    /// empty or lies outside the trace). The windowed complement of
    /// [`PowerTrace::energy_j`]: summing `energy_over` across a partition
    /// of `[0, duration_s)` reproduces the total exactly.
    pub fn energy_over(&self, a: f64, b: f64) -> f64 {
        if b <= a {
            return 0.0;
        }
        energy_within(&self.segments, a, b)
    }

    /// Peak instantaneous draw within `[a, b)`, watts.
    pub fn peak_over(&self, a: f64, b: f64) -> f64 {
        self.segments
            .iter()
            .filter(|s| s.1.min(b) > s.0.max(a))
            .map(|s| s.2)
            .fold(0.0, f64::max)
    }

    /// Samples the trace the way a telemetry tool would: one reading per
    /// `sampler.interval_s`, each the average over its window.
    ///
    /// Boundary semantics (locked in by unit tests, and mirrored by the
    /// `olab-obs` counter sampler):
    ///
    /// * window `k` covers `[k·dt, min((k+1)·dt, duration))` — boundaries
    ///   are exact multiples of the interval, never accumulated sums, so
    ///   long traces do not drift;
    /// * the final partial window is included when the cadence does not
    ///   divide the trace length, and its reading averages only the
    ///   covered span;
    /// * each reading is stamped at the center of its (possibly partial)
    ///   window;
    /// * zero-duration segments carry no energy and never affect samples;
    /// * an empty trace yields no samples.
    ///
    /// Each reading equals [`PowerTrace::average_over`] of its window bit
    /// for bit, but the trace is swept once. This relies on the segments
    /// starting in time order, as the engine emits them: a window's
    /// overlapping segments then lie between two cursors that only move
    /// forward, and they are added in the order `average_over` adds them.
    ///
    /// # Panics
    ///
    /// Panics if the sampler's interval is not positive and finite (a
    /// hand-rolled `Sampler` bypassing [`Sampler::with_interval`]).
    pub fn sample(&self, sampler: Sampler) -> SampledTrace {
        let dur = self.duration_s();
        let dt = sampler.interval_s;
        assert!(dt.is_finite() && dt > 0.0, "invalid sampling interval {dt}");
        debug_assert!(
            self.segments.windows(2).all(|p| p[0].0 <= p[1].0),
            "power segments out of time order"
        );
        let mut samples = Vec::new();
        let (mut first, mut last) = (0, 0);
        let mut k = 0u64;
        loop {
            let t = k as f64 * dt;
            if t >= dur {
                break;
            }
            let end = (t + dt).min(dur);
            // Segments ending by `t` overlap neither this window nor any
            // later one; those starting at or after `end` overlap none up
            // to `end`.
            while self.segments.get(first).is_some_and(|s| s.1 <= t) {
                first += 1;
            }
            last = last.max(first);
            while self.segments.get(last).is_some_and(|s| s.0 < end) {
                last += 1;
            }
            samples.push(PowerSample {
                time_s: (t + end) / 2.0,
                watts: average_within(&self.segments[first..last], t, end),
            });
            k += 1;
        }
        SampledTrace { sampler, samples }
    }
}

/// Energy `segments` deliver within `[a, b)`, joules, summed in segment
/// order.
fn energy_within(segments: &[(f64, f64, f64)], a: f64, b: f64) -> f64 {
    let mut energy = 0.0;
    for (t0, t1, w) in segments {
        let lo = t0.max(a);
        let hi = t1.min(b);
        if hi > lo {
            energy += w * (hi - lo);
        }
    }
    energy
}

/// Average draw of `segments` over `[a, b)`, watts (0 if the interval is
/// empty).
fn average_within(segments: &[(f64, f64, f64)], a: f64, b: f64) -> f64 {
    if b <= a {
        return 0.0;
    }
    energy_within(segments, a, b) / (b - a)
}

/// A sequence of telemetry readings from one sampler.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledTrace {
    /// The sampler that produced the readings.
    pub sampler: Sampler,
    /// The readings, in time order.
    pub samples: Vec<PowerSample>,
}

impl SampledTrace {
    /// Highest reading, if any.
    pub fn peak(&self) -> Option<f64> {
        self.samples
            .iter()
            .map(|s| s.watts)
            .fold(None, |acc, w| Some(acc.map_or(w, |a: f64| a.max(w))))
    }

    /// Mean of the readings, if any.
    pub fn average(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(self.samples.iter().map(|s| s.watts).sum::<f64>() / self.samples.len() as f64)
    }

    /// Readings normalized by `tdp_w` (for the paper's x TDP axes).
    pub fn normalized(&self, tdp_w: f64) -> Vec<PowerSample> {
        self.samples
            .iter()
            .map(|s| PowerSample {
                time_s: s.time_s,
                watts: s.watts / tdp_w,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olab_sim::{SimTime, Window};

    fn seg(a: f64, b: f64, w: f64) -> PowerSegment {
        PowerSegment {
            window: Window {
                start: SimTime::from_secs(a),
                end: SimTime::from_secs(b),
            },
            watts: w,
        }
    }

    fn spike_trace() -> PowerTrace {
        // 95 ms at 100 W, 5 ms spike at 600 W.
        PowerTrace::from_segments(&[seg(0.0, 0.095, 100.0), seg(0.095, 0.100, 600.0)])
    }

    #[test]
    fn exact_statistics() {
        let t = spike_trace();
        assert_eq!(t.peak_instantaneous(), 600.0);
        assert!((t.average() - 125.0).abs() < 1e-9);
        assert!((t.energy_j() - 12.5).abs() < 1e-9);
        assert!((t.duration_s() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn coarse_sampling_hides_spikes_fine_sampling_sees_them() {
        // The reason Fig. 7 uses the MI250: 1 ms sampling sees the spike,
        // 100 ms sampling averages it away.
        let t = spike_trace();
        let nvml = t.sample(Sampler::nvml());
        let fine = t.sample(Sampler::rocm_smi_fine());
        assert!((nvml.peak().unwrap() - 125.0).abs() < 1e-9);
        assert!((fine.peak().unwrap() - 600.0).abs() < 1e-9);
    }

    #[test]
    fn sample_count_matches_duration_over_interval() {
        let t = spike_trace();
        let fine = t.sample(Sampler::rocm_smi_fine());
        assert_eq!(fine.samples.len(), 100);
    }

    #[test]
    fn average_over_clamps_to_segments() {
        let t = spike_trace();
        assert!((t.average_over(0.0, 0.095) - 100.0).abs() < 1e-9);
        assert_eq!(t.average_over(1.0, 2.0), 0.0);
        assert_eq!(t.average_over(0.5, 0.5), 0.0);
    }

    #[test]
    fn energy_over_partitions_sum_to_total() {
        let t = spike_trace();
        // Exact windowed integrals.
        assert!((t.energy_over(0.0, 0.095) - 9.5).abs() < 1e-9);
        assert!((t.energy_over(0.095, 0.100) - 3.0).abs() < 1e-9);
        // A partition of the full span reproduces energy_j.
        let parts =
            t.energy_over(0.0, 0.03) + t.energy_over(0.03, 0.097) + t.energy_over(0.097, 1.0);
        assert!((parts - t.energy_j()).abs() < 1e-9);
        // Degenerate and out-of-range windows are zero.
        assert_eq!(t.energy_over(0.5, 0.5), 0.0);
        assert_eq!(t.energy_over(2.0, 1.0), 0.0);
        assert_eq!(t.energy_over(5.0, 6.0), 0.0);
    }

    #[test]
    fn final_partial_window_is_included_and_averages_only_its_span() {
        // 0.25 s trace, 0.1 s cadence: windows [0,0.1), [0.1,0.2), [0.2,0.25).
        let t = PowerTrace::from_segments(&[seg(0.0, 0.2, 100.0), seg(0.2, 0.25, 400.0)]);
        let s = t.sample(Sampler::nvml());
        assert_eq!(s.samples.len(), 3);
        let last = s.samples[2];
        // Center of the partial window, not of a full one.
        assert!((last.time_s - 0.225).abs() < 1e-12);
        // Average over [0.2, 0.25) only: all at 400 W, undiluted by the
        // missing 0.05 s the full window would have had.
        assert!((last.watts - 400.0).abs() < 1e-9);
    }

    #[test]
    fn cadence_not_dividing_duration_yields_ceil_windows() {
        // 0.1 s trace at 0.03 s cadence: 3 full windows + 0.01 s partial.
        let t = PowerTrace::from_segments(&[seg(0.0, 0.1, 100.0)]);
        let s = t.sample(Sampler::with_interval("odd", 0.03));
        assert_eq!(s.samples.len(), 4);
        assert!((s.samples[3].time_s - 0.095).abs() < 1e-12);
        for sample in &s.samples {
            assert!((sample.watts - 100.0).abs() < 1e-9);
        }
    }

    #[test]
    fn window_boundaries_do_not_drift_on_long_traces() {
        // 10 s at 1 ms cadence: exactly 10_000 windows; an accumulating
        // `t += dt` loop drifts off the k·dt grid well before this.
        let t = PowerTrace::from_segments(&[seg(0.0, 10.0, 100.0)]);
        let s = t.sample(Sampler::rocm_smi_fine());
        assert_eq!(s.samples.len(), 10_000);
        let mid = s.samples[9_999];
        assert!((mid.time_s - 9.9995).abs() < 1e-9);
    }

    #[test]
    fn zero_duration_segments_carry_no_energy_and_do_not_skew_samples() {
        // A zero-width 999 W glitch between two plateaus.
        let t = PowerTrace::from_segments(&[
            seg(0.0, 0.05, 100.0),
            seg(0.05, 0.05, 999.0),
            seg(0.05, 0.1, 200.0),
        ]);
        assert!((t.average() - 150.0).abs() < 1e-9);
        assert!((t.energy_j() - 15.0).abs() < 1e-9);
        let s = t.sample(Sampler::nvml());
        assert_eq!(s.samples.len(), 1);
        assert!((s.samples[0].watts - 150.0).abs() < 1e-9);
        // peak_over ignores the empty segment; peak_instantaneous (a
        // segment-wise statistic, not a time integral) still reports it.
        assert_eq!(t.peak_over(0.0, 0.1), 200.0);
        assert_eq!(t.peak_instantaneous(), 999.0);
    }

    /// The per-window reference the one-pass sweep must reproduce.
    fn sample_by_windows(t: &PowerTrace, dt: f64) -> Vec<(u64, u64)> {
        let dur = t.duration_s();
        let mut out = Vec::new();
        let mut k = 0u64;
        while (k as f64 * dt) < dur {
            let a = k as f64 * dt;
            let b = (a + dt).min(dur);
            out.push((((a + b) / 2.0).to_bits(), t.average_over(a, b).to_bits()));
            k += 1;
        }
        out
    }

    fn sample_bits(t: &PowerTrace, dt: f64) -> Vec<(u64, u64)> {
        t.sample(Sampler::with_interval("t", dt))
            .samples
            .iter()
            .map(|s| (s.time_s.to_bits(), s.watts.to_bits()))
            .collect()
    }

    #[test]
    fn one_pass_sampling_matches_per_window_averages_bit_for_bit() {
        let mut rng = olab_sim::SeededRng::seed_from_u64(17);
        let mut checked = 0;
        for _ in 0..200 {
            // Contiguous segments of random length, a fifth of them empty.
            let mut segments = Vec::new();
            let mut at = 0.0;
            for _ in 0..1 + (rng.next_f64() * 40.0) as usize {
                let len = if rng.next_f64() < 0.2 {
                    0.0
                } else {
                    rng.next_f64() * 0.03
                };
                segments.push(seg(at, at + len, 50.0 + 800.0 * rng.next_f64()));
                at += len;
            }
            let t = PowerTrace::from_segments(&segments);
            // Cadences from finer than a segment to coarser than the trace;
            // most leave a partial final window.
            let dt = 0.0005 + 0.2 * rng.next_f64() * rng.next_f64();
            let reference = sample_by_windows(&t, dt);
            assert_eq!(sample_bits(&t, dt), reference, "dt {dt}, trace {t:?}");
            checked += reference.len();
        }
        assert!(checked > 1000, "only {checked} windows compared");

        // Hand-picked edges: an empty trace, zero-length segments on and
        // between window boundaries, and a partial final window.
        let edges = PowerTrace::from_segments(&[
            seg(0.0, 0.0, 700.0),
            seg(0.0, 0.1, 100.0),
            seg(0.1, 0.1, 999.0),
            seg(0.1, 0.25, 300.0),
            seg(0.25, 0.25, 5.0),
        ]);
        for dt in [0.1, 0.05, 0.03, 1.0] {
            assert_eq!(sample_bits(&edges, dt), sample_by_windows(&edges, dt));
        }
        assert!(sample_bits(&PowerTrace::default(), 0.1).is_empty());
    }

    #[test]
    #[should_panic(expected = "invalid sampling interval")]
    fn hand_rolled_zero_interval_sampler_is_rejected() {
        let t = spike_trace();
        t.sample(Sampler {
            name: "bad",
            interval_s: 0.0,
        });
    }

    #[test]
    fn normalization_divides_by_tdp() {
        let t = spike_trace().sample(Sampler::rocm_smi_fine());
        let norm = t.normalized(400.0);
        let peak = norm.iter().map(|s| s.watts).fold(0.0, f64::max);
        assert!((peak - 1.5).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_is_well_behaved() {
        let t = PowerTrace::default();
        assert_eq!(t.average(), 0.0);
        assert_eq!(t.duration_s(), 0.0);
        let s = t.sample(Sampler::nvml());
        assert!(s.peak().is_none());
        assert!(s.average().is_none());
    }
}
