//! The machine model: pricing compute and communication sharing a GPU.
//!
//! This is the paper's core phenomenon rendered as a rate model. Each epoch
//! (whenever the running-task set changes) the model decides, per GPU:
//!
//! 1. **SM occupancy** — a co-resident collective's channel kernels occupy
//!    `sm_fraction` of the SMs; the compute kernel's FLOP side slows by
//!    `1/(1 - sm_fraction)`.
//! 2. **HBM sharing** — the collective streams `hbm_bytes_per_wire_byte`
//!    bytes of device memory per wire byte; if combined demand exceeds the
//!    effective HBM bandwidth, both sides are scaled proportionally.
//! 3. **Cache interference** — a fixed multiplicative penalty
//!    (`l2_interference`) applies to compute while communication is
//!    co-resident.
//! 4. **Power / DVFS** — component power is summed; the governor throttles
//!    the core clock if the (strict or transient) limit is exceeded,
//!    slowing the FLOP side of every kernel.
//!
//! With `contended = false` the model prices every task as if it ran alone
//! (used to cross-check the paper's Eq. 4 "ideal" derivation).

use olab_ccl::CommOp;
use olab_gpu::power::Utilization;
use olab_gpu::roofline::KernelDemand;
use olab_gpu::{roofline, ContentionProfile, DvfsGovernor, GpuSku, PowerProfile};
use olab_net::Topology;
use olab_parallel::{ComputeOp, Op};
use olab_sim::{GpuCounters, GpuId, RateModel, RunningTask, SeededRng};

/// Fraction of datasheet HBM bandwidth usable when compute and
/// communication interleave access streams.
const SHARED_HBM_EFFICIENCY: f64 = 0.88;

/// Run-to-run measurement noise, mirroring the variability real systems
/// show (clock jitter, scheduling noise, thermal state). The paper averages
/// every metric over 25 runs for exactly this reason.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Jitter {
    /// RNG seed (same seed => identical run).
    pub seed: u64,
    /// Relative rate noise per task-epoch (~coefficient of variation).
    pub sigma: f64,
}

/// Configuration of a simulated node.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// The GPU SKU populating the node (homogeneous).
    pub sku: GpuSku,
    /// The interconnect.
    pub topology: Topology,
    /// The DVFS governor (power limit + frequency cap).
    pub governor: DvfsGovernor,
    /// Whether co-resident tasks contend for resources.
    pub contended: bool,
    /// Optional per-epoch rate noise (None = fully deterministic).
    pub jitter: Option<Jitter>,
}

impl MachineConfig {
    /// Stock configuration for a SKU: vendor-appropriate topology, stock
    /// power limit, contention on.
    pub fn stock(sku: GpuSku, n_gpus: usize) -> Self {
        let topology = match sku.vendor {
            olab_gpu::Vendor::Nvidia => {
                Topology::nvswitch(n_gpus, sku.link_bw_unidir_gbs, sku.link_latency_us)
            }
            olab_gpu::Vendor::Amd => {
                Topology::full_mesh(n_gpus, sku.link_bw_unidir_gbs, sku.link_latency_us)
            }
        };
        let governor = DvfsGovernor::stock(sku.tdp_w);
        MachineConfig {
            sku,
            topology,
            governor,
            contended: true,
            jitter: None,
        }
    }
}

/// The rate model for one node.
#[derive(Debug, Clone)]
pub struct Machine {
    config: MachineConfig,
    power_profile: PowerProfile,
    contention: ContentionProfile,
    rng: Option<SeededRng>,
    /// Transient per-GPU frequency caps in `(0, 1]` (empty = none). Fault
    /// layers update these at epoch boundaries to model thermal throttle
    /// windows; the governor then prices both the slower clock and its
    /// lower dynamic power.
    gpu_freq_caps: Vec<f64>,
    /// Telemetry for the epoch whose rates were last assigned, indexed by
    /// GPU — what the simulated NVML poll reads through
    /// [`RateModel::counters`].
    last_counters: Vec<GpuCounters>,
    /// Per-epoch scratch (reused across epochs to keep the rate-assignment
    /// hot path allocation-free once warm).
    scratch_compute_on: Vec<Option<usize>>,
    scratch_comm_on: Vec<Option<usize>>,
    scratch_epochs: Vec<GpuEpoch>,
}

#[derive(Debug, Clone, Copy)]
struct GpuEpoch {
    /// Available SM fraction for the compute kernel.
    sm_avail: f64,
    /// Fraction of the compute kernel's achievable bandwidth it gets.
    compute_bw_fraction: f64,
    /// Rate factor applied to a co-resident collective.
    comm_factor: f64,
    /// Cache-interference multiplier on compute duration.
    l2: f64,
    /// Selected core-clock factor.
    freq: f64,
    /// Board power this epoch, watts.
    power_w: f64,
    /// Demand decomposition of the co-resident compute kernel, if any
    /// (computed once per epoch and reused by the rate loop).
    demand: Option<KernelDemand>,
}

impl Default for GpuEpoch {
    fn default() -> Self {
        GpuEpoch {
            sm_avail: 1.0,
            compute_bw_fraction: 1.0,
            comm_factor: 1.0,
            l2: 1.0,
            freq: 1.0,
            power_w: 0.0,
            demand: None,
        }
    }
}

impl Machine {
    /// Creates a machine from a configuration.
    pub fn new(config: MachineConfig) -> Self {
        let power_profile = config.sku.power();
        let contention = config.sku.contention();
        let rng = config.jitter.map(|j| SeededRng::seed_from_u64(j.seed));
        Machine {
            config,
            power_profile,
            contention,
            rng,
            gpu_freq_caps: Vec::new(),
            last_counters: Vec::new(),
            scratch_compute_on: Vec::new(),
            scratch_comm_on: Vec::new(),
            scratch_epochs: Vec::new(),
        }
    }

    /// Replaces the transient per-GPU frequency caps: `caps[g]` caps GPU
    /// `g`'s clock factor this epoch (values `>= 1.0` and missing entries
    /// mean uncapped; an empty vector clears all caps).
    pub fn set_gpu_freq_caps(&mut self, caps: Vec<f64>) {
        self.gpu_freq_caps = caps;
    }

    /// The same machine with per-epoch measurement noise.
    pub fn with_jitter(&self, jitter: Jitter) -> Self {
        let mut config = self.config.clone();
        config.jitter = Some(jitter);
        Self::new(config)
    }

    /// Stock machine for a SKU (see [`MachineConfig::stock`]).
    pub fn stock(sku: GpuSku, n_gpus: usize) -> Self {
        Self::new(MachineConfig::stock(sku, n_gpus))
    }

    /// The same machine with contention disabled (each task priced alone).
    pub fn uncontended(&self) -> Self {
        let mut config = self.config.clone();
        config.contended = false;
        Self::new(config)
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Effective HBM byte rate of a co-resident collective, bytes/s
    /// (its wire rate amplified by staging traffic).
    fn comm_hbm_demand(&self, op: &CommOp) -> f64 {
        if op.wire_bytes_per_rank <= 0.0 {
            return 0.0;
        }
        let amplification = op.hbm_bytes_per_rank / op.wire_bytes_per_rank;
        op.wire_rate_bytes_per_sec * amplification
    }

    /// Prices one GPU for an epoch in which `kernel` and/or `comm` are
    /// co-resident on it: contention factors, DVFS decision, board power,
    /// and telemetry counters.
    ///
    /// This is the single source of pricing truth. [`Machine::assign_rates`]
    /// calls it per GPU per epoch; the analytic fast path
    /// (`olab_core::analytic`) calls it per schedule segment, which is what
    /// guarantees the two execution paths agree by construction.
    fn gpu_epoch(
        &self,
        g: usize,
        kernel: Option<&ComputeOp>,
        comm: Option<&CommOp>,
    ) -> (GpuEpoch, GpuCounters) {
        let sku = &self.config.sku;
        let raw_bw = sku.mem_bw_gbs * 1e9;
        let capacity = raw_bw * SHARED_HBM_EFFICIENCY;
        let contended = self.config.contended;
        let mut epoch = GpuEpoch {
            demand: kernel.map(|c| roofline::demand(&c.kernel, sku, c.precision, c.datapath)),
            ..GpuEpoch::default()
        };

        // SM occupancy + cache interference.
        if let (true, Some(op)) = (contended && kernel.is_some(), comm) {
            epoch.sm_avail = (1.0 - op.sm_fraction).max(0.05);
            epoch.l2 = self.contention.l2_interference;
        }

        // HBM sharing.
        let comm_demand = comm.map_or(0.0, |op| self.comm_hbm_demand(op));
        let compute_demand = epoch.demand.as_ref().map_or(0.0, |d| d.bandwidth_demand());
        if contended && comm_demand + compute_demand > capacity && comm_demand > 0.0 {
            let scale = capacity / (comm_demand + compute_demand);
            epoch.comm_factor = scale;
            if let Some(d) = &epoch.demand {
                epoch.compute_bw_fraction =
                    (compute_demand * scale / d.bytes_per_sec).clamp(0.05, 1.0);
            }
        }

        // Power components.
        let mut util = Utilization::idle();
        let mut flop_busy = 0.0;
        if let Some(d) = &epoch.demand {
            let t_flop = d.compute_time(1.0) / epoch.sm_avail;
            let t_mem = d.memory_time(epoch.compute_bw_fraction);
            let span = t_flop.max(t_mem) + d.launch_s;
            flop_busy = (t_flop / span).clamp(0.0, 1.0);
            if d.on_tensor_core {
                util.tensor = flop_busy;
                util.vector = 0.15 * flop_busy; // address gen, epilogues
            } else {
                util.vector = flop_busy;
            }
            util.mem += (d.bytes / span) / raw_bw;
        }
        if let Some(op) = comm {
            // Links, PHYs and copy engines are busy for the whole
            // transfer even when protocol overheads cap the *useful*
            // rate, so comm-engine activity tracks the share factor,
            // not the bus efficiency.
            util.comm = epoch.comm_factor.clamp(0.0, 1.0);
            util.mem += self.comm_hbm_demand(op) * epoch.comm_factor / raw_bw;
        }
        util.mem = util.mem.clamp(0.0, 1.0);

        let governor = match self.gpu_freq_caps.get(g) {
            Some(&cap) if cap < 1.0 => self.config.governor.capped(cap),
            _ => self.config.governor,
        };
        if contended {
            let decision = governor.decide(&self.power_profile, &util);
            epoch.freq = decision.freq_factor;
            epoch.power_w = decision.power_w;
        } else {
            epoch.freq = governor.max_freq_factor;
            epoch.power_w = self.power_profile.instantaneous(&util, epoch.freq);
        }

        // Telemetry: compute kernels occupy their busy share of the
        // SMs they were granted; a co-resident collective's channel
        // kernels pin `sm_fraction` on top.
        let comm_sm = comm.map_or(0.0, |op| op.sm_fraction);
        let counters = GpuCounters {
            sm_occupancy: (flop_busy * epoch.sm_avail + comm_sm).clamp(0.0, 1.0),
            hbm_util: util.mem,
            link_util: util.comm,
            freq_factor: epoch.freq,
            power_w: epoch.power_w,
        };
        (epoch, counters)
    }

    /// Duration of a compute op running with nothing co-resident on GPU
    /// `g`, priced exactly as [`Machine::assign_rates`] would price it
    /// (including DVFS and any transient frequency cap on `g`).
    pub(crate) fn solo_compute_duration(&self, g: usize, c: &ComputeOp) -> f64 {
        let (epoch, _) = self.gpu_epoch(g, Some(c), None);
        let d = epoch.demand.expect("kernel demand computed");
        let t_flop = d.compute_time(epoch.freq) / epoch.sm_avail;
        let t_mem = d.memory_time(epoch.compute_bw_fraction);
        (t_flop.max(t_mem) + d.launch_s) * epoch.l2
    }

    /// Duration of a collective running with nothing co-resident on any
    /// participant, priced exactly as [`Machine::assign_rates`] would.
    ///
    /// Note this is *not* always `op.isolated_duration_s()`: on a contended
    /// machine a collective's HBM staging traffic alone can oversubscribe
    /// the shared-bandwidth capacity and throttle its own wire rate.
    pub(crate) fn solo_comm_duration(&self, participants: &[GpuId], op: &CommOp) -> f64 {
        let factor = participants
            .iter()
            .map(|g| self.gpu_epoch(g.index(), None, Some(op)).0.comm_factor)
            .fold(1.0_f64, f64::min);
        op.latency_s + op.wire_bytes_per_rank / (op.wire_rate_bytes_per_sec * factor.max(0.05))
    }

    /// Board power of GPU `g` for a segment with the given co-resident set,
    /// matching the engine's per-epoch power assignment (idle draw when
    /// nothing runs).
    pub(crate) fn segment_power_w(
        &self,
        g: usize,
        kernel: Option<&ComputeOp>,
        comm: Option<&CommOp>,
    ) -> f64 {
        if kernel.is_none() && comm.is_none() {
            self.power_profile.idle_w
        } else {
            self.gpu_epoch(g, kernel, comm).0.power_w
        }
    }

    /// Whether per-epoch rate noise is configured.
    pub(crate) fn has_jitter(&self) -> bool {
        self.config.jitter.is_some()
    }

    /// Whether any transient per-GPU frequency cap is active.
    pub(crate) fn has_gpu_freq_caps(&self) -> bool {
        self.gpu_freq_caps.iter().any(|&c| c < 1.0)
    }

    /// Whether co-resident tasks contend for resources.
    pub(crate) fn is_contended(&self) -> bool {
        self.config.contended
    }
}

impl RateModel for Machine {
    type Payload = Op;

    fn assign_rates(
        &mut self,
        running: &[RunningTask<'_, Op>],
        rates: &mut [f64],
        power: &mut [f64],
    ) {
        let n_gpus = power.len();

        // Index the (at most one) compute and comm task per GPU. The index
        // and epoch buffers are machine-owned scratch, reused every epoch.
        let mut compute_on = std::mem::take(&mut self.scratch_compute_on);
        let mut comm_on = std::mem::take(&mut self.scratch_comm_on);
        let mut epochs = std::mem::take(&mut self.scratch_epochs);
        compute_on.clear();
        compute_on.resize(n_gpus, None);
        comm_on.clear();
        comm_on.resize(n_gpus, None);
        epochs.clear();
        epochs.resize(n_gpus, GpuEpoch::default());
        for (i, task) in running.iter().enumerate() {
            match task.payload {
                Op::Compute(_) => {
                    for g in task.participants {
                        debug_assert!(compute_on[g.index()].is_none());
                        compute_on[g.index()] = Some(i);
                    }
                }
                Op::Comm(_) => {
                    for g in task.participants {
                        debug_assert!(comm_on[g.index()].is_none());
                        comm_on[g.index()] = Some(i);
                    }
                }
            }
        }

        // Per-GPU epoch state: contention factors, frequency, power.
        self.last_counters.clear();
        self.last_counters.resize(n_gpus, GpuCounters::default());
        for g in 0..n_gpus {
            let comm = comm_on[g].and_then(|i| running[i].payload.as_comm());
            let kernel = compute_on[g].and_then(|i| running[i].payload.as_compute());
            let (epoch, counters) = self.gpu_epoch(g, kernel, comm);
            self.last_counters[g] = counters;
            epochs[g] = epoch;
        }

        // Rates.
        for (i, task) in running.iter().enumerate() {
            rates[i] = match task.payload {
                Op::Compute(_) => {
                    let g = task.participants[0].index();
                    let epoch = &epochs[g];
                    let d = epoch.demand.expect("kernel demand computed");
                    let t_flop = d.compute_time(epoch.freq) / epoch.sm_avail;
                    let t_mem = d.memory_time(epoch.compute_bw_fraction);
                    let duration = (t_flop.max(t_mem) + d.launch_s) * epoch.l2;
                    1.0 / duration
                }
                Op::Comm(ref op) => {
                    let factor = task
                        .participants
                        .iter()
                        .map(|g| epochs[g.index()].comm_factor)
                        .fold(1.0_f64, f64::min);
                    let duration = op.latency_s
                        + op.wire_bytes_per_rank / (op.wire_rate_bytes_per_sec * factor.max(0.05));
                    1.0 / duration
                }
            };
        }

        // Measurement noise: an approximately-Gaussian multiplicative
        // factor per task-epoch (sum of four uniforms), clamped so rates
        // stay positive.
        if let Some(rng) = &mut self.rng {
            let sigma = self.config.jitter.map(|j| j.sigma).unwrap_or(0.0);
            for rate in rates.iter_mut() {
                let u: f64 = (0..4).map(|_| rng.next_f64() - 0.5).sum::<f64>() / 2.0;
                *rate *= (1.0 + sigma * u * 3.464).clamp(0.7, 1.3);
            }
        }

        for g in 0..n_gpus {
            power[g] = if compute_on[g].is_some() || comm_on[g].is_some() {
                epochs[g].power_w
            } else {
                self.power_profile.idle_w
            };
        }

        self.scratch_compute_on = compute_on;
        self.scratch_comm_on = comm_on;
        self.scratch_epochs = epochs;
    }

    fn counters(&self, gpu: usize) -> GpuCounters {
        self.last_counters.get(gpu).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olab_ccl::{lower, Algorithm, Collective};
    use olab_gpu::{Datapath, KernelKind, Precision};
    use olab_parallel::ComputeOp;
    use olab_sim::{Engine, GpuId, StreamKind, TaskSpec, Workload};

    fn h100_machine() -> Machine {
        Machine::stock(GpuSku::h100(), 4)
    }

    fn gemm_op() -> Op {
        Op::Compute(ComputeOp::new(
            KernelKind::gemm(8192, 8192, 8192),
            Precision::Fp16,
            Datapath::TensorCore,
        ))
    }

    fn allreduce_op(machine: &Machine, bytes: u64) -> Op {
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

    /// Runs a two-task workload (one GEMM on gpu0, optionally a concurrent
    /// all-reduce) and returns the GEMM's duration.
    fn gemm_duration(machine: &Machine, with_comm: bool) -> f64 {
        let mut w = Workload::new(4);
        w.push(TaskSpec::compute("gemm", GpuId(0), gemm_op()));
        if with_comm {
            w.push(TaskSpec::new(
                "ar",
                (0..4).map(GpuId).collect::<Vec<_>>(),
                StreamKind::Comm,
                allreduce_op(machine, 1 << 30),
            ));
        }
        let trace = Engine::new(machine.clone()).run(&w).unwrap();
        trace.records()[0].duration().as_secs()
    }

    #[test]
    fn overlap_slows_compute() {
        let m = h100_machine();
        let alone = gemm_duration(&m, false);
        let overlapped = gemm_duration(&m, true);
        let slowdown = overlapped / alone - 1.0;
        assert!(
            slowdown > 0.05 && slowdown < 0.5,
            "H100 GEMM slowdown under a 1 GiB all-reduce: {slowdown}"
        );
    }

    #[test]
    fn uncontended_machine_shows_no_slowdown() {
        let m = h100_machine().uncontended();
        let alone = gemm_duration(&m, false);
        let overlapped = gemm_duration(&m, true);
        assert!((overlapped / alone - 1.0).abs() < 1e-9);
    }

    #[test]
    fn amd_interference_exceeds_nvidia_interference() {
        let h = h100_machine();
        let m = Machine::stock(GpuSku::mi250(), 4);
        let h_slow = gemm_duration(&h, true) / gemm_duration(&h, false);
        let m_slow = gemm_duration(&m, true) / gemm_duration(&m, false);
        assert!(m_slow > h_slow, "MI250 {m_slow} vs H100 {h_slow}");
    }

    #[test]
    fn power_rises_when_comm_joins_compute() {
        let m = h100_machine();
        // Compute alone.
        let mut w = Workload::new(4);
        w.push(TaskSpec::compute("gemm", GpuId(0), gemm_op()));
        let alone = Engine::new(m.clone()).run(&w).unwrap();
        let p_alone = alone
            .gpu(GpuId(0))
            .power
            .iter()
            .map(|s| s.watts)
            .fold(0.0, f64::max);

        let mut w = Workload::new(4);
        w.push(TaskSpec::compute("gemm", GpuId(0), gemm_op()));
        w.push(TaskSpec::new(
            "ar",
            (0..4).map(GpuId).collect::<Vec<_>>(),
            StreamKind::Comm,
            allreduce_op(&m, 1 << 30),
        ));
        let both = Engine::new(m.clone()).run(&w).unwrap();
        let p_both = both
            .gpu(GpuId(0))
            .power
            .iter()
            .map(|s| s.watts)
            .fold(0.0, f64::max);
        assert!(p_both > p_alone + 30.0, "{p_both} vs {p_alone}");
    }

    #[test]
    fn strict_power_cap_throttles_compute() {
        let sku = GpuSku::a100();
        let mut config = MachineConfig::stock(sku, 4);
        config.governor.limit = olab_gpu::PowerLimit::strict(150.0);
        let capped = Machine::new(config);
        let stock = Machine::stock(GpuSku::a100(), 4);
        let t_capped = gemm_duration(&capped, false);
        let t_stock = gemm_duration(&stock, false);
        assert!(
            t_capped > 1.3 * t_stock,
            "150 W cap must slow the A100 GEMM: {t_capped} vs {t_stock}"
        );
    }

    #[test]
    fn per_gpu_freq_caps_slow_only_the_capped_gpu() {
        let healthy = h100_machine();
        let mut throttled = h100_machine();
        throttled.set_gpu_freq_caps(vec![0.5, 1.0, 1.0, 1.0]);

        let durations = |m: &Machine| {
            let mut w = Workload::new(4);
            w.push(TaskSpec::compute("g0", GpuId(0), gemm_op()));
            w.push(TaskSpec::compute("g1", GpuId(1), gemm_op()));
            let trace = Engine::new(m.clone()).run(&w).unwrap();
            (
                trace.records()[0].duration().as_secs(),
                trace.records()[1].duration().as_secs(),
            )
        };
        let (h0, h1) = durations(&healthy);
        let (t0, t1) = durations(&throttled);
        assert!(t0 > 1.5 * h0, "capped GPU must slow: {t0} vs {h0}");
        assert!((t1 - h1).abs() < 1e-12, "uncapped GPU must be untouched");
    }

    #[derive(Default)]
    struct FirstEpoch {
        counters: Option<Vec<GpuCounters>>,
    }

    impl olab_sim::EngineObserver for FirstEpoch {
        fn on_epoch(&mut self, _start_s: f64, _end_s: f64, counters: &[GpuCounters]) {
            if self.counters.is_none() {
                self.counters = Some(counters.to_vec());
            }
        }
    }

    #[test]
    fn telemetry_counters_track_overlap_contention() {
        let m = h100_machine();
        let mut w = Workload::new(4);
        w.push(TaskSpec::compute("gemm", GpuId(0), gemm_op()));
        w.push(TaskSpec::new(
            "ar",
            (0..4).map(GpuId).collect::<Vec<_>>(),
            StreamKind::Comm,
            allreduce_op(&m, 1 << 30),
        ));
        let mut obs = FirstEpoch::default();
        Engine::new(m.clone()).run_observed(&w, &mut obs).unwrap();
        let counters = obs.counters.expect("at least one epoch");
        assert_eq!(counters.len(), 4);
        // gpu0 runs GEMM + collective: all counters engaged.
        let c0 = &counters[0];
        assert!(c0.sm_occupancy > 0.5, "occupancy {}", c0.sm_occupancy);
        assert!(c0.hbm_util > 0.0 && c0.hbm_util <= 1.0);
        assert!(c0.link_util > 0.0 && c0.link_util <= 1.0);
        assert!(c0.freq_factor > 0.0 && c0.freq_factor <= 1.0);
        assert!(c0.power_w > GpuSku::h100().idle_w);
        // gpu3 only participates in the collective: link busy, SMs only
        // carry the channel kernels.
        let c3 = &counters[3];
        assert!(c3.link_util > 0.0);
        assert!(c3.sm_occupancy < c0.sm_occupancy);
    }

    #[test]
    fn telemetry_counters_are_idle_defaults_for_idle_gpus() {
        let m = h100_machine();
        let mut w = Workload::new(4);
        w.push(TaskSpec::compute("gemm", GpuId(0), gemm_op()));
        let mut obs = FirstEpoch::default();
        Engine::new(m.clone()).run_observed(&w, &mut obs).unwrap();
        let counters = obs.counters.unwrap();
        let c3 = &counters[3];
        assert_eq!(c3.sm_occupancy, 0.0);
        assert_eq!(c3.hbm_util, 0.0);
        assert_eq!(c3.link_util, 0.0);
        // Engine fills power with the model's idle draw.
        assert_eq!(c3.power_w, GpuSku::h100().power().idle_w);
    }

    #[test]
    fn idle_gpus_report_idle_power() {
        let m = h100_machine();
        let mut w = Workload::new(4);
        w.push(TaskSpec::compute("gemm", GpuId(0), gemm_op()));
        let trace = Engine::new(m.clone()).run(&w).unwrap();
        let idle = trace.gpu(GpuId(3)).power[0].watts;
        assert_eq!(idle, GpuSku::h100().power().idle_w);
    }

    /// An H100 with artificially narrow HBM, so a collective's staging
    /// traffic oversubscribes the shared bandwidth deterministically.
    fn narrow_hbm_machine() -> Machine {
        let mut sku = GpuSku::h100();
        sku.mem_bw_gbs = 600.0;
        Machine::stock(sku, 4)
    }

    #[test]
    fn memory_bound_kernels_slow_under_hbm_contention() {
        // A streaming kernel saturates its share of HBM; a co-resident
        // collective's staging traffic pushes combined demand past the
        // shared capacity and the kernel must slow by more than the
        // SM-occupancy/cache terms alone explain.
        let m = narrow_hbm_machine();
        let streaming = Op::Compute(ComputeOp::new(
            KernelKind::Elementwise {
                elems: 1 << 28,
                flops_per_elem: 1,
                streams: 3,
            },
            Precision::Fp16,
            Datapath::Vector,
        ));
        let duration = |with_comm: bool| {
            let mut w = Workload::new(4);
            w.push(TaskSpec::compute("stream", GpuId(0), streaming.clone()));
            if with_comm {
                w.push(TaskSpec::new(
                    "ar",
                    (0..4).map(GpuId).collect::<Vec<_>>(),
                    StreamKind::Comm,
                    allreduce_op(&m, 1 << 30),
                ));
            }
            let trace = Engine::new(m.clone()).run(&w).unwrap();
            trace.records()[0].duration().as_secs()
        };
        let alone = duration(false);
        let contended = duration(true);
        let profile = m.config().sku.contention();
        // Pure cache interference would be l2_interference; HBM sharing
        // must add on top for a bandwidth-saturating kernel.
        assert!(
            contended / alone > profile.l2_interference * 1.1,
            "contended {contended} vs alone {alone}"
        );
    }

    #[test]
    fn collective_rate_is_limited_by_its_slowest_rank() {
        // A collective shared with a busy GPU runs slower than the same
        // collective over idle GPUs, because the busy rank's HBM share
        // throttles everyone (min-over-ranks).
        let m = narrow_hbm_machine();
        let streaming = Op::Compute(ComputeOp::new(
            KernelKind::Elementwise {
                elems: 1 << 29,
                flops_per_elem: 1,
                streams: 3,
            },
            Precision::Fp16,
            Datapath::Vector,
        ));
        let ar_duration = |busy_rank: bool| {
            let mut w = Workload::new(4);
            if busy_rank {
                w.push(TaskSpec::compute("stream", GpuId(0), streaming.clone()));
            }
            let id = w.push(TaskSpec::new(
                "ar",
                (0..4).map(GpuId).collect::<Vec<_>>(),
                StreamKind::Comm,
                allreduce_op(&m, 1 << 30),
            ));
            let trace = Engine::new(m.clone()).run(&w).unwrap();
            trace.record(id).unwrap().duration().as_secs()
        };
        assert!(ar_duration(true) > ar_duration(false) * 1.01);
    }

    #[test]
    fn collectives_finish_at_their_isolated_speed_when_alone() {
        let m = h100_machine();
        let op = allreduce_op(&m, 1 << 28);
        let isolated = op.as_comm().unwrap().isolated_duration_s();
        let mut w = Workload::new(4);
        w.push(TaskSpec::new(
            "ar",
            (0..4).map(GpuId).collect::<Vec<_>>(),
            StreamKind::Comm,
            op,
        ));
        let trace = Engine::new(m.clone()).run(&w).unwrap();
        let simulated = trace.records()[0].duration().as_secs();
        assert!((simulated / isolated - 1.0).abs() < 1e-6);
    }
}
