//! The contention-free analytic fast path: classifier and counters.
//!
//! The paper's core claim is that real overlap diverges from the "constant
//! compute/communication latency" assumption *only under contention*. The
//! contrapositive is an optimization: a cell with no contention, no faults,
//! and no observer attached can legally skip the event loop, because every
//! task then runs at the rate [`Machine`](crate::Machine) would assign it in
//! isolation and the whole schedule collapses to a closed form
//! (`crate::analytic::execute_fast`). This module decides when that is safe
//! and keeps the process-wide accounting honest.
//!
//! Routing is semantic-free by construction: the fast path prices tasks
//! through the *same* per-GPU pricing code the event loop uses
//! (`Machine::gpu_epoch`), so both paths agree to floating-point rounding.
//! The differential suite in `olab-oracle` pins that equivalence; see
//! `docs/FASTPATH.md` for the rules and the guarantee.
//!
//! The run counters are process-wide atomics: cache keys in `olab-grid`
//! must *not* depend on the execution path (the answers are the same), but
//! [`SweepStats`](crate::SweepStats) reports how many cells took which path
//! so artifacts stay auditable. Callers that need the reference engine call
//! [`execute_event_loop`](crate::execute_event_loop) directly.

use crate::Machine;
use olab_metrics::{counter, Counter, Determinism, Histogram};
use olab_parallel::Op;
use olab_sim::Workload;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

static FAST_RUNS: AtomicU64 = AtomicU64::new(0);
static EVENT_LOOP_RUNS: AtomicU64 = AtomicU64::new(0);

/// Registry-backed route attribution: per-route cell counts (cross-run
/// deterministic) and per-route cell-latency histograms (wall-clock), for
/// the `olab-metrics` expositions. The legacy `fast_runs`/`event_loop_runs`
/// atomics above stay authoritative for [`SweepStats`](crate::SweepStats).
pub(crate) struct RouteMetrics {
    pub fast_full: &'static Counter,
    pub fast_lean: &'static Counter,
    pub event_loop_full: &'static Counter,
    pub event_loop_lean: &'static Counter,
    pub fast_full_ns: &'static Histogram,
    pub fast_lean_ns: &'static Histogram,
    pub event_loop_full_ns: &'static Histogram,
    pub event_loop_lean_ns: &'static Histogram,
}

pub(crate) fn route_metrics() -> &'static RouteMetrics {
    static M: OnceLock<RouteMetrics> = OnceLock::new();
    M.get_or_init(|| RouteMetrics {
        fast_full: counter(
            "olab_core_route_fast_full_total",
            Determinism::CrossRun,
            "Cells served by the analytic fast path with full statistics.",
        ),
        fast_lean: counter(
            "olab_core_route_fast_lean_total",
            Determinism::CrossRun,
            "Cells served by the analytic fast path, makespan only.",
        ),
        event_loop_full: counter(
            "olab_core_route_event_loop_full_total",
            Determinism::CrossRun,
            "Cells that fell back to the event loop with full statistics.",
        ),
        event_loop_lean: counter(
            "olab_core_route_event_loop_lean_total",
            Determinism::CrossRun,
            "Cells that fell back to the event loop, makespan only.",
        ),
        fast_full_ns: olab_metrics::histogram(
            "olab_core_cell_fast_full_ns",
            "Cell latency through the fast path, full statistics.",
        ),
        fast_lean_ns: olab_metrics::histogram(
            "olab_core_cell_fast_lean_ns",
            "Cell latency through the fast path, makespan only.",
        ),
        event_loop_full_ns: olab_metrics::histogram(
            "olab_core_cell_event_loop_full_ns",
            "Cell latency through the event loop, full statistics.",
        ),
        event_loop_lean_ns: olab_metrics::histogram(
            "olab_core_cell_event_loop_lean_ns",
            "Cell latency through the event loop, makespan only.",
        ),
    })
}

/// Forces registration of this crate's engine-telemetry families (and those
/// of the crates underneath) so expositions are complete even before any
/// cell executes.
pub fn touch_metrics() {
    let _ = route_metrics();
    olab_sim::metrics::touch();
    olab_grid::metrics::touch();
}

/// Number of executions served by the analytic fast path since process
/// start. Monotone (process-wide, shared by every thread).
pub fn fast_runs() -> u64 {
    FAST_RUNS.load(Ordering::Relaxed)
}

/// Number of classified executions that went through the event loop since
/// process start. Monotone (process-wide, shared by every thread).
pub fn event_loop_runs() -> u64 {
    EVENT_LOOP_RUNS.load(Ordering::Relaxed)
}

/// The O(1) machine-level gate the executor checks before attempting the
/// analytic schedule: no jitter, no transient frequency caps.
/// The per-task rules ([`FastPathDecision::ForwardDep`],
/// [`FastPathDecision::MixedStream`]) are enforced inside the schedule
/// builder itself, which bails to the event loop on first violation — so
/// the executor never pays a separate O(n) classification pass. The public
/// [`CellClassifier`] reports the same decisions for diagnostics.
pub(crate) fn machine_eligible(machine: &Machine) -> bool {
    !machine.has_jitter() && !machine.has_gpu_freq_caps()
}

pub(crate) fn note_fast_run() {
    FAST_RUNS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn note_event_loop_run() {
    EVENT_LOOP_RUNS.fetch_add(1, Ordering::Relaxed);
}

/// Why a cell did or did not qualify for the analytic fast path.
///
/// `Eligible` is necessary but not sufficient: on a contended machine the
/// closed form additionally requires that the schedule exhibit no actual
/// co-residency, which is only known after the speculative schedule is
/// built — `execute_fast` returns `None` in that case and the cell falls
/// back to the event loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastPathDecision {
    /// All static preconditions hold; the analytic schedule may be used.
    Eligible,
    /// An observer is attached; the event loop is the only path that can
    /// drive task-edge and epoch callbacks.
    Observed,
    /// The machine adds per-epoch measurement noise, which only exists
    /// epoch by epoch.
    Jittered,
    /// Transient per-GPU frequency caps are active (fault layers mutate
    /// these at epoch boundaries).
    FreqCapped,
    /// A task depends on a later-pushed task; the one-pass schedule
    /// requires backward dependencies.
    ForwardDep,
    /// A task's payload kind disagrees with its stream (a compute op on
    /// the comm stream or vice versa). The engine prices by payload while
    /// the closed form's co-residency sweep walks streams, so such hybrids
    /// stay on the event loop.
    MixedStream,
}

impl FastPathDecision {
    /// Whether the decision permits the analytic schedule.
    pub fn is_eligible(self) -> bool {
        self == FastPathDecision::Eligible
    }
}

/// Decides whether a (workload, machine) cell may skip the event loop.
///
/// The rules, in order:
///
/// 1. no observer may be attached (`observed == false`);
/// 2. the machine must be deterministic: no jitter, no transient per-GPU
///    frequency caps (fault wrappers are excluded at the type level — only
///    `Machine`-typed execution reaches this classifier at all);
/// 3. every dependency must point backward in push order;
/// 4. every task's payload kind must match its stream (compute payloads on
///    the compute stream, comm payloads on the comm stream).
///
/// Contention is *not* a static disqualifier: a contended machine is fine
/// as long as the resulting schedule has no co-resident compute/comm pair,
/// which `execute_fast` verifies a posteriori.
#[derive(Debug, Clone, Copy)]
pub struct CellClassifier;

impl CellClassifier {
    /// Classifies one cell. See the type-level docs for the rules.
    pub fn classify(
        workload: &Workload<Op>,
        machine: &Machine,
        observed: bool,
    ) -> FastPathDecision {
        if observed {
            return FastPathDecision::Observed;
        }
        if machine.has_jitter() {
            return FastPathDecision::Jittered;
        }
        if machine.has_gpu_freq_caps() {
            return FastPathDecision::FreqCapped;
        }
        for (i, task) in workload.tasks().iter().enumerate() {
            if task.deps.iter().any(|d| d.index() >= i) {
                return FastPathDecision::ForwardDep;
            }
            let stream_matches = match &task.payload {
                Op::Compute(_) => task.stream == olab_sim::StreamKind::Compute,
                Op::Comm(_) => task.stream == olab_sim::StreamKind::Comm,
            };
            if !stream_matches {
                return FastPathDecision::MixedStream;
            }
        }
        FastPathDecision::Eligible
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Jitter;
    use olab_gpu::GpuSku;
    use olab_sim::{GpuId, TaskId, TaskSpec};

    fn machine() -> Machine {
        Machine::stock(GpuSku::h100(), 2)
    }

    fn tiny_workload() -> Workload<Op> {
        let mut w = Workload::new(2);
        w.push(TaskSpec::compute(
            "k",
            GpuId(0),
            Op::Compute(olab_parallel::ComputeOp::new(
                olab_gpu::KernelKind::gemm(256, 256, 256),
                olab_gpu::Precision::Fp16,
                olab_gpu::Datapath::TensorCore,
            )),
        ));
        w
    }

    #[test]
    fn classifier_screens_static_disqualifiers() {
        let w = tiny_workload();
        let m = machine();
        assert!(CellClassifier::classify(&w, &m, false).is_eligible());
        assert_eq!(
            CellClassifier::classify(&w, &m, true),
            FastPathDecision::Observed
        );
        let jittered = m.with_jitter(Jitter {
            seed: 7,
            sigma: 0.01,
        });
        assert_eq!(
            CellClassifier::classify(&w, &jittered, false),
            FastPathDecision::Jittered
        );
        let mut capped = machine();
        capped.set_gpu_freq_caps(vec![0.5, 1.0]);
        assert_eq!(
            CellClassifier::classify(&w, &capped, false),
            FastPathDecision::FreqCapped
        );
        // A cap of exactly 1.0 is a no-op and must not disqualify.
        let mut uncapped = machine();
        uncapped.set_gpu_freq_caps(vec![1.0, 1.0]);
        assert!(CellClassifier::classify(&w, &uncapped, false).is_eligible());

        let mut fwd = tiny_workload();
        let mut t = TaskSpec::comm("c", GpuId(1), dummy_comm());
        t.deps.push(TaskId(2));
        fwd.push(t);
        fwd.push(TaskSpec::compute(
            "k2",
            GpuId(1),
            Op::Compute(olab_parallel::ComputeOp::new(
                olab_gpu::KernelKind::gemm(256, 256, 256),
                olab_gpu::Precision::Fp16,
                olab_gpu::Datapath::TensorCore,
            )),
        ));
        assert_eq!(
            CellClassifier::classify(&fwd, &m, false),
            FastPathDecision::ForwardDep
        );

        // A comm payload pushed onto the compute stream is priced by
        // payload in the engine but walked by stream in the closed form.
        let mut mixed = tiny_workload();
        mixed.push(TaskSpec::compute("hybrid", GpuId(1), dummy_comm()));
        assert_eq!(
            CellClassifier::classify(&mixed, &m, false),
            FastPathDecision::MixedStream
        );
    }

    fn dummy_comm() -> Op {
        use olab_ccl::{lower, Algorithm, Collective};
        let m = machine();
        let group: Vec<GpuId> = (0..2).map(GpuId).collect();
        Op::Comm(lower(
            &Collective::all_reduce(1 << 20, group),
            Algorithm::Ring,
            &m.config().sku,
            &m.config().topology,
            olab_gpu::Precision::Fp16,
        ))
    }
}
