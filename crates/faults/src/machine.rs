//! The faulty machine: a [`Machine`] wrapped in a fault timeline.
//!
//! `FaultyMachine` is a [`RateModel`] that delegates pricing to the healthy
//! contention model, then applies the fault timeline on top at every epoch:
//!
//! * active throttle windows become per-GPU clock caps on the wrapped
//!   machine (so both the slower rate *and* the lower dynamic power are
//!   priced by the real DVFS model);
//! * ECC-selected compute kernels pay a fixed re-execution latency;
//! * collectives whose ring crosses a degraded link run at the surviving
//!   bandwidth fraction;
//! * collectives whose ring crosses a link *outage* stall, and an
//!   NCCL-style watchdog adjudicates the stall: resume after retries,
//!   degrade onto the surviving ring (paying a communicator rebuild), or
//!   abort the run.
//!
//! The wrapper also reports every fault-window edge and watchdog deadline
//! through [`RateModel::next_boundary`], so the engine re-queries rates
//! exactly at those instants and the piecewise timeline is honored exactly
//! — the foundation of the bit-identical reproducibility guarantee.

use crate::scenario::{FaultTimeline, EDGE_TOL};
use olab_ccl::{adjudicate, relower_degraded, CommOp, FailAction, WatchdogVerdict};
use olab_core::Machine;
use olab_net::{ring_links, Link};
use olab_parallel::Op;
use olab_sim::{GpuCounters, Label, RateModel, RunningTask, TaskId};
use std::collections::HashMap;
use std::io::Write as _;

/// Progress rate of a stalled task: effectively zero, but positive so the
/// engine's invariants hold (the epoch is bounded by the next watchdog
/// boundary, not by this rate).
const STALL_RATE: f64 = 1e-9;

/// Progress rate after an abort: the simulation drains instantly so the
/// run wrapper can surface the typed error without simulating the corpse.
const DRAIN_RATE: f64 = 1e30;

/// Why and when the watchdog gave up.
#[derive(Debug, Clone, PartialEq)]
pub struct AbortInfo {
    /// Simulation time of the abort, seconds.
    pub at_s: f64,
    /// Label of the collective that exhausted its retries.
    pub collective: String,
    /// Retries spent before giving up.
    pub retries: u32,
}

/// What a recorded fault event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEventKind {
    /// A collective stalled on a link outage (watchdog running).
    Stall,
    /// A communicator rebuild after retry exhaustion.
    Rebuild,
}

/// One resolved fault episode, for trace annotation and reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Label of the afflicted task.
    pub label: String,
    /// Episode start, seconds.
    pub start_s: f64,
    /// Episode end, seconds.
    pub end_s: f64,
    /// What happened.
    pub kind: FaultEventKind,
}

/// Per-run fault accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultStats {
    /// Watchdog retries spent across all stalls.
    pub retries: u32,
    /// Seconds of collective progress lost to stalls and rebuilds.
    pub stall_s: f64,
    /// Collectives re-lowered onto a surviving ring.
    pub degraded_collectives: u32,
    /// Compute kernels that paid an ECC retry.
    pub ecc_kernels: u32,
    /// Every resolved stall/rebuild episode, in resolution order.
    pub events: Vec<FaultEvent>,
}

/// What a stalled collective does when its stall window closes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum AfterStall {
    /// The outage ended within the retry budget: resume at full rate.
    Resume,
    /// Retries exhausted, communicator rebuilt: continue at the degraded
    /// rate factor.
    Degrade(f64),
    /// Retries exhausted and no surviving path (or abort policy): kill the
    /// run, reporting the retries spent.
    Abort(u32),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum CommState {
    /// Stalled until the given instant, then transition.
    Stalled { until: f64, next: AfterStall },
    /// Running on a rebuilt (degraded) communicator.
    Degraded(f64),
}

/// A [`Machine`] with a fault timeline injected at epoch boundaries.
#[derive(Debug, Clone)]
pub struct FaultyMachine {
    base: Machine,
    timeline: FaultTimeline,
    n_gpus: usize,
    states: HashMap<TaskId, CommState>,
    /// The ECC verdict of each task id seen so far: the hash is fixed per
    /// task, so a kernel's label is rendered, and a selected kernel
    /// counted, once rather than every epoch it runs.
    ecc_verdicts: Vec<Option<bool>>,
    /// Reused buffer the hash input is rendered into.
    ecc_bytes: Vec<u8>,
    /// Links whose communicator has already been rebuilt: later collectives
    /// crossing them degrade immediately instead of re-paying the watchdog.
    rebuilt: Vec<Link>,
    stats: FaultStats,
    abort: Option<AbortInfo>,
}

impl FaultyMachine {
    /// Wraps a machine in a fault timeline.
    pub fn new(base: Machine, timeline: FaultTimeline) -> Self {
        let n_gpus = base.config().topology.n_gpus();
        FaultyMachine {
            base,
            timeline,
            n_gpus,
            states: HashMap::new(),
            ecc_verdicts: Vec::new(),
            ecc_bytes: Vec::new(),
            rebuilt: Vec::new(),
            stats: FaultStats::default(),
            abort: None,
        }
    }

    /// Fault accounting accumulated so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// The abort, if the watchdog killed the run.
    pub fn abort(&self) -> Option<&AbortInfo> {
        self.abort.as_ref()
    }

    /// The timeline being injected.
    pub fn timeline(&self) -> &FaultTimeline {
        &self.timeline
    }

    /// Whether the ECC model selects this kernel, by pure hash of
    /// `(seed, task id, rendered label)` — stable under any epoch
    /// interleaving. Decided once per task and cached; a selected kernel
    /// is counted in [`FaultStats::ecc_kernels`] when it is decided.
    fn ecc_selects(&mut self, id: TaskId, label: Label) -> bool {
        if self.timeline.ecc.rate <= 0.0 {
            return false;
        }
        let slot = id.index();
        if self.ecc_verdicts.len() <= slot {
            self.ecc_verdicts.resize(slot + 1, None);
        }
        if let Some(verdict) = self.ecc_verdicts[slot] {
            return verdict;
        }
        let bytes = &mut self.ecc_bytes;
        bytes.clear();
        bytes.extend_from_slice(&self.timeline.ecc.seed.to_le_bytes());
        bytes.extend_from_slice(&id.0.to_le_bytes());
        write!(bytes, "{label}").expect("rendering into a Vec cannot fail");
        let hash = olab_grid::fnv1a_64(bytes);
        let verdict = (hash as f64 / u64::MAX as f64) < self.timeline.ecc.rate;
        self.ecc_verdicts[slot] = Some(verdict);
        self.stats.ecc_kernels += u32::from(verdict);
        verdict
    }

    /// Rate factor for a collective re-lowered around `dead`: the ratio of
    /// healthy to degraded isolated duration (`None` when no path survives).
    fn degrade_factor(&self, op: &CommOp, dead: Link) -> Option<f64> {
        let topo = &self.base.config().topology;
        relower_degraded(op, dead, topo)
            .ok()
            .map(|d| op.isolated_duration_s() / d.isolated_duration_s())
    }

    /// Resolves a comm task's fault state at `now`, returning the rate
    /// factor to apply (`None` = the task is stalled this epoch).
    fn comm_factor(
        &mut self,
        now: f64,
        id: TaskId,
        label: Label,
        participants: &[olab_sim::GpuId],
        op: &CommOp,
    ) -> Option<f64> {
        // Advance a pending stall first.
        if let Some(CommState::Stalled { until, next }) = self.states.get(&id).copied() {
            if now < until - EDGE_TOL {
                return None;
            }
            match next {
                AfterStall::Resume => {
                    self.states.remove(&id);
                }
                AfterStall::Degrade(factor) => {
                    self.states.insert(id, CommState::Degraded(factor));
                }
                AfterStall::Abort(retries) => {
                    self.abort = Some(AbortInfo {
                        at_s: until,
                        collective: label.to_string(),
                        retries,
                    });
                    return None;
                }
            }
        }

        let mut factor = match self.states.get(&id) {
            Some(CommState::Degraded(f)) => *f,
            _ => 1.0,
        };

        let ring = ring_links(participants);
        for fault in self.timeline.link_faults.clone() {
            if !fault.active_at(now) || !ring.contains(&fault.link) {
                continue;
            }
            if !fault.is_outage() {
                factor = factor.min(fault.bw_factor);
                continue;
            }
            if self.rebuilt.contains(&fault.link) {
                // The communicator was already rebuilt around this link;
                // this collective was lowered on the surviving ring.
                match self.degrade_factor(op, fault.link) {
                    Some(f) => {
                        factor = factor.min(f);
                        self.states.insert(id, CommState::Degraded(factor));
                    }
                    None => {
                        self.abort = Some(AbortInfo {
                            at_s: now,
                            collective: label.to_string(),
                            retries: 0,
                        });
                        return None;
                    }
                }
                continue;
            }
            // A fresh stall: fix the watchdog's verdict now, in closed form.
            let cfg = self.timeline.watchdog;
            match adjudicate(now, fault.end_s, &cfg) {
                WatchdogVerdict::Resumed { at, retries } => {
                    self.stats.retries += retries;
                    self.stats.stall_s += at - now;
                    self.stats.events.push(FaultEvent {
                        label: label.to_string(),
                        start_s: now,
                        end_s: at,
                        kind: FaultEventKind::Stall,
                    });
                    self.states.insert(
                        id,
                        CommState::Stalled {
                            until: at,
                            next: AfterStall::Resume,
                        },
                    );
                }
                WatchdogVerdict::Exhausted {
                    give_up_at,
                    retries,
                } => {
                    self.stats.retries += retries;
                    let degrade = match cfg.on_exhaustion {
                        FailAction::Degrade => self.degrade_factor(op, fault.link),
                        FailAction::Abort => None,
                    };
                    match degrade {
                        Some(f) => {
                            let rebuild_end =
                                give_up_at + cfg.rebuild_s(op.collective.group_size());
                            self.stats.stall_s += rebuild_end - now;
                            self.stats.degraded_collectives += 1;
                            self.stats.events.push(FaultEvent {
                                label: label.to_string(),
                                start_s: now,
                                end_s: give_up_at,
                                kind: FaultEventKind::Stall,
                            });
                            self.stats.events.push(FaultEvent {
                                label: label.to_string(),
                                start_s: give_up_at,
                                end_s: rebuild_end,
                                kind: FaultEventKind::Rebuild,
                            });
                            self.rebuilt.push(fault.link);
                            self.states.insert(
                                id,
                                CommState::Stalled {
                                    until: rebuild_end,
                                    next: AfterStall::Degrade(f),
                                },
                            );
                        }
                        None => {
                            self.stats.stall_s += give_up_at - now;
                            self.stats.events.push(FaultEvent {
                                label: label.to_string(),
                                start_s: now,
                                end_s: give_up_at,
                                kind: FaultEventKind::Stall,
                            });
                            self.states.insert(
                                id,
                                CommState::Stalled {
                                    until: give_up_at,
                                    next: AfterStall::Abort(retries),
                                },
                            );
                        }
                    }
                }
            }
            return None;
        }
        Some(factor)
    }
}

impl RateModel for FaultyMachine {
    type Payload = Op;

    fn assign_rates(
        &mut self,
        running: &[RunningTask<'_, Op>],
        rates: &mut [f64],
        power: &mut [f64],
    ) {
        // The engine always calls the time-aware variant; a direct call
        // means "time zero".
        self.assign_rates_at(0.0, running, rates, power)
    }

    fn assign_rates_at(
        &mut self,
        now: f64,
        running: &[RunningTask<'_, Op>],
        rates: &mut [f64],
        power: &mut [f64],
    ) {
        // Straggler windows become per-GPU clock caps on the real machine,
        // so throttled rate and throttled power stay consistent.
        let caps: Vec<f64> = (0..self.n_gpus)
            .map(|g| self.timeline.freq_cap_at(g, now))
            .collect();
        self.base.set_gpu_freq_caps(caps);
        self.base.assign_rates_at(now, running, rates, power);

        if self.abort.is_some() {
            rates.iter_mut().for_each(|r| *r = DRAIN_RATE);
            return;
        }

        for (i, task) in running.iter().enumerate() {
            match task.payload {
                Op::Compute(_) => {
                    if self.ecc_selects(task.id, task.label) {
                        // Duration gains the fixed retry latency:
                        // 1/r' = 1/r + retry_s.
                        let r = rates[i];
                        rates[i] = r / (1.0 + r * self.timeline.ecc.retry_s);
                    }
                }
                Op::Comm(op) => {
                    match self.comm_factor(now, task.id, task.label, task.participants, op) {
                        Some(factor) => rates[i] *= factor.max(f64::MIN_POSITIVE),
                        None => rates[i] = STALL_RATE,
                    }
                }
            }
        }

        if self.abort.is_some() {
            // The abort fired inside this epoch's resolution: drain.
            rates.iter_mut().for_each(|r| *r = DRAIN_RATE);
        }
    }

    fn counters(&self, gpu: usize) -> GpuCounters {
        // Telemetry comes from the wrapped machine: throttle windows are
        // already applied as clock caps before pricing, so the base
        // counters reflect the faulted frequency, power, and utilization.
        self.base.counters(gpu)
    }

    fn next_boundary(&mut self, now: f64) -> Option<f64> {
        if self.abort.is_some() {
            return None;
        }
        let mut best: Option<f64> = None;
        let mut consider = |t: f64| {
            if t > now + EDGE_TOL && best.is_none_or(|b| t < b) {
                best = Some(t);
            }
        };
        for w in &self.timeline.throttles {
            consider(w.start_s);
            consider(w.end_s);
        }
        for f in &self.timeline.link_faults {
            consider(f.start_s);
            if let Some(e) = f.end_s {
                consider(e);
            }
        }
        for s in self.states.values() {
            if let CommState::Stalled { until, .. } = s {
                consider(*until);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{EccFaults, LinkFault, ThrottleWindow};
    use olab_ccl::{lower, Algorithm, Collective, WatchdogConfig};
    use olab_gpu::{Datapath, GpuSku, KernelKind, Precision};
    use olab_parallel::ComputeOp;
    use olab_sim::{Engine, GpuId, StreamKind, TaskSpec, Workload};

    fn quiet_timeline() -> FaultTimeline {
        FaultTimeline {
            throttles: vec![],
            link_faults: vec![],
            ecc: EccFaults {
                seed: 0,
                rate: 0.0,
                retry_s: 0.0,
            },
            watchdog: WatchdogConfig::degrade(0.05),
            horizon_s: 1.0,
        }
    }

    fn machine() -> Machine {
        Machine::stock(GpuSku::h100(), 4)
    }

    fn allreduce(machine: &Machine, bytes: u64) -> Op {
        let group: Vec<GpuId> = (0..4).map(GpuId).collect();
        let c = Collective::all_reduce(bytes, group);
        Op::Comm(lower(
            &c,
            Algorithm::Ring,
            &machine.config().sku,
            &machine.config().topology,
            Precision::Fp16,
        ))
    }

    fn gemm() -> Op {
        Op::Compute(ComputeOp::new(
            KernelKind::gemm(4096, 4096, 4096),
            Precision::Fp16,
            Datapath::TensorCore,
        ))
    }

    fn ar_workload(machine: &Machine) -> Workload<Op> {
        let mut w = Workload::new(4);
        w.push(TaskSpec::new(
            "ar",
            (0..4).map(GpuId).collect::<Vec<_>>(),
            StreamKind::Comm,
            allreduce(machine, 1 << 28),
        ));
        w
    }

    fn makespan(faulty: &mut FaultyMachine, w: &Workload<Op>) -> f64 {
        Engine::new(faulty).run(w).unwrap().makespan().as_secs()
    }

    #[test]
    fn a_quiet_timeline_reproduces_the_healthy_machine() {
        let m = machine();
        let w = ar_workload(&m);
        let healthy = Engine::new(m.clone()).run(&w).unwrap().makespan().as_secs();
        let mut faulty = FaultyMachine::new(m, quiet_timeline());
        assert_eq!(makespan(&mut faulty, &w), healthy);
        assert_eq!(faulty.stats(), &FaultStats::default());
    }

    #[test]
    fn a_degraded_link_slows_only_collectives_crossing_it() {
        let m = machine();
        let w = ar_workload(&m);
        let healthy = Engine::new(m.clone()).run(&w).unwrap().makespan().as_secs();

        let mut timeline = quiet_timeline();
        timeline.link_faults.push(LinkFault {
            link: Link::new(GpuId(1), GpuId(2)),
            start_s: 0.0,
            end_s: None,
            bw_factor: 0.5,
        });
        let mut faulty = FaultyMachine::new(m.clone(), timeline.clone());
        let slowed = makespan(&mut faulty, &w);
        assert!(
            (slowed / healthy - 2.0).abs() < 0.2,
            "half bandwidth ≈ double duration: {slowed} vs {healthy}"
        );

        // A collective not touching the link is unaffected.
        let mut w2 = Workload::new(4);
        w2.push(TaskSpec::new(
            "p2p",
            vec![GpuId(0), GpuId(3)],
            StreamKind::Comm,
            Op::Comm(lower(
                &Collective::p2p(1 << 24, GpuId(0), GpuId(3)),
                Algorithm::Direct,
                &m.config().sku,
                &m.config().topology,
                Precision::Fp16,
            )),
        ));
        let healthy_p2p = Engine::new(m.clone())
            .run(&w2)
            .unwrap()
            .makespan()
            .as_secs();
        let mut faulty2 = FaultyMachine::new(m, timeline);
        assert_eq!(makespan(&mut faulty2, &w2), healthy_p2p);
    }

    #[test]
    fn a_transient_outage_stalls_then_resumes() {
        let m = machine();
        let w = ar_workload(&m);
        let healthy = Engine::new(m.clone()).run(&w).unwrap().makespan().as_secs();

        let mut timeline = quiet_timeline();
        // Outage from t=0; ends inside the first timeout.
        let outage_end = 0.5 * timeline.watchdog.timeout_s;
        timeline.link_faults.push(LinkFault {
            link: Link::new(GpuId(0), GpuId(1)),
            start_s: 0.0,
            end_s: Some(outage_end),
            bw_factor: 0.0,
        });
        let mut faulty = FaultyMachine::new(m, timeline);
        let stalled = makespan(&mut faulty, &w);
        assert!(
            (stalled - (healthy + outage_end)).abs() < 1e-6,
            "stall shifts completion by the outage: {stalled} vs {healthy} + {outage_end}"
        );
        assert_eq!(faulty.stats().retries, 0);
        assert_eq!(faulty.stats().events.len(), 1);
        assert!((faulty.stats().stall_s - outage_end).abs() < 1e-9);
        assert!(faulty.abort().is_none());
    }

    #[test]
    fn a_dead_link_degrades_after_exhausting_retries() {
        let m = machine();
        let w = ar_workload(&m);
        let healthy = Engine::new(m.clone()).run(&w).unwrap().makespan().as_secs();

        let mut timeline = quiet_timeline();
        timeline.link_faults.push(LinkFault {
            link: Link::new(GpuId(2), GpuId(3)),
            start_s: 0.0,
            end_s: None,
            bw_factor: 0.0,
        });
        let mut faulty = FaultyMachine::new(m, timeline.clone());
        let degraded = makespan(&mut faulty, &w);
        let patience = timeline.watchdog.patience_s() + timeline.watchdog.rebuild_s(4);
        assert!(
            degraded > healthy + patience,
            "must pay full patience + rebuild + degraded run: {degraded}"
        );
        assert_eq!(faulty.stats().degraded_collectives, 1);
        assert_eq!(faulty.stats().retries, timeline.watchdog.max_retries);
        assert!(faulty.abort().is_none(), "degrade, not abort");
        assert!(faulty
            .stats()
            .events
            .iter()
            .any(|e| e.kind == FaultEventKind::Rebuild));
    }

    #[test]
    fn abort_policy_kills_the_run_instead() {
        let m = machine();
        let w = ar_workload(&m);
        let mut timeline = quiet_timeline();
        timeline.watchdog = WatchdogConfig::abort(0.05);
        timeline.link_faults.push(LinkFault {
            link: Link::new(GpuId(0), GpuId(1)),
            start_s: 0.0,
            end_s: None,
            bw_factor: 0.0,
        });
        let mut faulty = FaultyMachine::new(m, timeline);
        let _ = makespan(&mut faulty, &w);
        let abort = faulty.abort().expect("watchdog must abort");
        assert_eq!(abort.collective, "ar");
        assert_eq!(abort.retries, 3);
    }

    #[test]
    fn throttle_windows_slow_the_straggler_mid_run() {
        let m = machine();
        let mut w = Workload::new(4);
        w.push(TaskSpec::compute("g0", GpuId(0), gemm()));
        let healthy = Engine::new(m.clone()).run(&w).unwrap().makespan().as_secs();

        let mut timeline = quiet_timeline();
        timeline.throttles.push(ThrottleWindow {
            gpu: 0,
            start_s: healthy * 0.25,
            end_s: healthy * 10.0,
            freq_factor: 0.5,
        });
        let mut faulty = FaultyMachine::new(m, timeline);
        let throttled = makespan(&mut faulty, &w);
        assert!(
            throttled > healthy * 1.3,
            "mid-run throttle must stretch the kernel: {throttled} vs {healthy}"
        );
    }

    #[test]
    fn ecc_retries_add_fixed_latency_to_selected_kernels() {
        let m = machine();
        let mut w = Workload::new(4);
        w.push(TaskSpec::compute("k0", GpuId(0), gemm()));
        let healthy = Engine::new(m.clone()).run(&w).unwrap().makespan().as_secs();

        let mut timeline = quiet_timeline();
        timeline.ecc = EccFaults {
            seed: 9,
            rate: 1.0, // select everything
            retry_s: 0.25,
        };
        let mut faulty = FaultyMachine::new(m, timeline);
        let with_ecc = makespan(&mut faulty, &w);
        assert!(
            (with_ecc - (healthy + 0.25)).abs() < 1e-6,
            "retry adds its fixed latency: {with_ecc} vs {healthy} + 0.25"
        );
        assert_eq!(faulty.stats().ecc_kernels, 1);
    }
}
