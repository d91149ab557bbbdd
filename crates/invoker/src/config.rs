//! Node configuration and the simulator's calibration constants.
//!
//! The constants below are the bridge between the simulator and the
//! paper's physical testbed. Each is anchored to a number the paper itself
//! reports, named in its doc comment, and no run varies it. The one
//! calibration value an experiment sweeps, the one-way network hop, is a
//! [`NodeConfig`] field instead (the hop ablation). ROADMAP's measured-state
//! table records how closely the calibrated simulator tracks Table III and
//! Table V.

use faas_core::SchedulerConfig;
use faas_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Which resource-management regime the node runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NodeMode {
    /// Unmodified OpenWhisk: greedy container creation, memory-proportional
    /// CPU shares, OS preemption, FIFO overflow queue.
    Baseline,
    /// The paper's container management plus one of the five queue policies.
    Scheduled(SchedulerConfig),
}

impl NodeMode {
    /// Display label matching the paper's figures.
    pub fn label(&self) -> String {
        match self {
            NodeMode::Baseline => "baseline".to_string(),
            NodeMode::Scheduled(cfg) => cfg.policy.name().to_string(),
        }
    }
}

/// Bounds of the CPU work of a full cold start (docker pull/create/init),
/// in core-seconds; each cold start draws uniformly on `[lo, hi)`. §VI:
/// "It takes 500 ms on the average \[21\] (and, in our measurements, up to
/// 2 s) to fully initialize a new container".
pub const COLDSTART_WORK_SECS: (f64, f64) = (0.5, 2.0);

/// Fraction of the full cold-start work still needed when promoting a
/// prewarmed runtime container (function code injection only).
pub const PREWARM_INIT_FRACTION: f64 = 0.35;

/// Per-call container-management cost (docker pause/unpause, log
/// collection, result plumbing), expressed in *seconds of management per
/// second of processing per node core*. A call with processing time `p` on
/// a node with `c` action cores keeps its container (and, under the paper's
/// one-core-per-container regime, its core) busy for an extra
/// `MGMT_PER_CORE · c · p` seconds after the response is sent.
///
/// Two observations in the paper pin this form down. (a) §V-B: container
/// management "may require more time, on average per call, than executing
/// the function itself", and the FIFO medians across 5/10/20 cores
/// (Table III) fit an overhead that scales with the core count — the
/// management stack (dockerd, containerd, invoker JVM) degrades with the
/// container population, which §V-A's warm-up makes proportional to
/// `cores`. (b) SEPT's sub-second medians under overload (Table III) rule
/// out a *constant* per-call cost: short calls must occupy their core only
/// briefly, so the cost must scale with the call's duration (log volume
/// and memory to reconcile grow with runtime).
pub const MGMT_PER_CORE: f64 = 0.27;

/// Duration-independent part of the per-call management cost under the
/// paper's regime, in seconds: docker pause/unpause and activation
/// bookkeeping have a fixed cost even for millisecond calls. Pinned by
/// SEPT's ~1 s response medians under overload (Table III), which stay
/// sub-second even on 20 cores at intensity 120 — so the floor must NOT
/// grow with the core count (pause/unpause of one container is a
/// constant-cost docker operation).
pub const MGMT_FLOOR: f64 = 0.35;

/// Context-switch capacity penalty `kappa` of the baseline's shared-CPU
/// regime (see `faas_cpu::gps`). Calibrated against the baseline's 20-core
/// collapse in Fig. 3/Table III.
pub const CTX_SWITCH_PENALTY: f64 = 0.12;

/// Cap on the GPS capacity-loss divisor (see `faas_cpu::GpsParams`).
pub const CTX_SWITCH_PENALTY_CAP: f64 = 2.0;

/// How much heavier per-call container management is on the *baseline*
/// node than under the paper's regime. The baseline's free pool churns
/// (greedy creation, evictions, pause/unpause of a large fluctuating
/// population — §VI and Fig. 2a), so each call's docker housekeeping costs
/// a multiple of the disciplined pool's. Calibrated against the baseline's
/// knife-edge between intensity 30 and 40 on 10 cores (median 2.8 s ->
/// 61 s, Table III).
pub const BASELINE_MGMT_MULTIPLIER: f64 = 4.4;

/// Load-dependence of the baseline's management hold: the hold is scaled
/// by `1 + BASELINE_CHURN_PENALTY · leased / cores`, modelling dockerd
/// degradation as the live-container population grows. Calibrated against
/// the growth of the baseline's medians with intensity (Table III) and its
/// 20-core collapse.
pub const BASELINE_CHURN_PENALTY: f64 = 1.3;

/// Duration-independent part of the baseline's per-call management hold,
/// in seconds per node core: docker pause/unpause and activation
/// bookkeeping cost roughly the same for a 10 ms call as for a 10 s one.
pub const BASELINE_MGMT_FLOOR_PER_CORE: f64 = 0.10;

/// Upper bound on the churn scale factor, *per core*: dockerd degradation
/// saturates once the pool is fully thrashing, and larger nodes saturate
/// later (more dockerd/containerd parallelism). The effective cap is
/// `BASELINE_CHURN_CAP_PER_CORE · cores`.
pub const BASELINE_CHURN_CAP_PER_CORE: f64 = 1.2;

/// Delay before a consumed prewarm container is replaced by a fresh one
/// (one replacement per promoted stemcell, in both regimes). A replacement
/// that finds no free memory when it is due is dropped.
pub const PREWARM_REPLACEMENT_DELAY: SimDuration = SimDuration::from_secs(1);

/// Management (cleanup) time after a call with processing time
/// `processing_secs` on a node with `cores` action cores, in seconds: a
/// per-call floor plus a duration-proportional part, both scaling with the
/// node's container population (~ cores).
pub fn mgmt_secs(cores: u32, processing_secs: f64) -> f64 {
    MGMT_FLOOR + MGMT_PER_CORE * cores as f64 * processing_secs
}

/// Baseline-node management hold for one call, given the number of
/// currently leased containers (load-dependent churn).
///
/// The duration-proportional part saturates at 10 cores: dockerd's
/// per-call cost stops growing with node size once its own parallelism is
/// exhausted (the paper's 20-core baseline is ~1.8x worse than its FIFO at
/// every intensity, not 3.6x).
pub fn baseline_mgmt_secs(cores: u32, processing_secs: f64, leased: usize) -> f64 {
    let oversub = leased as f64 / cores as f64;
    let churn =
        (1.0 + BASELINE_CHURN_PENALTY * oversub).min(BASELINE_CHURN_CAP_PER_CORE * cores as f64);
    let effective_cores = (cores as f64).min(10.0);
    (BASELINE_MGMT_FLOOR_PER_CORE * cores as f64
        + BASELINE_MGMT_MULTIPLIER * (MGMT_PER_CORE * effective_cores * processing_secs))
        * churn
}

/// Static configuration of one worker node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeConfig {
    /// CPU cores available to action containers (`c`).
    pub cores: u32,
    /// Memory pool available to action containers, MiB. The paper settles on
    /// 32 GiB after the Fig. 2 sweep.
    pub memory_mb: u64,
    /// Number of prewarmed runtime (stemcell) containers kept ready;
    /// OpenWhisk defaults to 2 per runtime kind.
    pub prewarm_count: u32,
    /// Busy-container limit as a multiple of the core count. The paper
    /// fixes 1.0 ("we limit the number of busy containers with the number
    /// of available CPU cores") but explicitly flags the trade-off for
    /// I/O-intensive actions, whose dedicated cores sit idle (§IV-A). A
    /// factor above 1.0 admits more concurrent containers; CPU-bound work
    /// then slows proportionally to the oversubscription, frozen at
    /// dispatch from the summed CPU fraction of the running calls.
    pub busy_limit_factor: f64,
    /// Memory bandwidth available to action containers, in bandwidth
    /// units (one unit saturates the working set of one fully CPU-bound
    /// container of the reference footprint). `0.0` means the memory axis
    /// is *unmodeled* — the sentinel rather than infinity, because the
    /// config is serialized as JSON, which cannot represent infinities.
    /// With `0.0` every simulation is bit-identical to the pre-DRF,
    /// CPU-only model; a positive value enables dominant-share (DRF)
    /// scheduling on the baseline node's GPS bank and the
    /// bandwidth-pressure slowdown on the scheduled node.
    pub mem_bandwidth: f64,
    /// One-way network latency between client and invoker (NGINX +
    /// controller + Kafka), paid once on the request and once on the
    /// response. Table I's caption attributes ~10 ms of round-trip
    /// overhead to this path; the paper's node splits it evenly (5 ms).
    /// The hop ablation sweeps it.
    pub hop: SimDuration,
}

impl NodeConfig {
    /// The paper's standard node: given cores, 32 GiB memory pool.
    pub fn paper(cores: u32) -> Self {
        NodeConfig {
            cores,
            memory_mb: 32 * 1024,
            prewarm_count: 2,
            busy_limit_factor: 1.0,
            mem_bandwidth: 0.0,
            hop: SimDuration::from_millis(5),
        }
    }

    /// Same node with a different memory pool (Fig. 2 sweep).
    pub fn with_memory_mb(mut self, memory_mb: u64) -> Self {
        self.memory_mb = memory_mb;
        self
    }

    /// Same node with an oversubscribed busy-container limit (§IV-A
    /// ablation).
    pub fn with_busy_limit_factor(mut self, factor: f64) -> Self {
        assert!(factor >= 1.0, "busy limit cannot be below the core count");
        self.busy_limit_factor = factor;
        self
    }

    /// Same node with a modeled memory-bandwidth capacity (DRF axis).
    /// The capacity must be positive and finite; pass it in bandwidth
    /// units (see [`NodeConfig::mem_bandwidth`]).
    pub fn with_mem_bandwidth(mut self, bandwidth: f64) -> Self {
        assert!(
            bandwidth > 0.0 && bandwidth.is_finite(),
            "memory bandwidth must be positive and finite (0.0 in the \
             field itself means unmodeled)"
        );
        self.mem_bandwidth = bandwidth;
        self
    }

    /// The busy-container limit in containers.
    pub fn busy_limit(&self) -> u32 {
        ((self.cores as f64 * self.busy_limit_factor).round() as u32).max(self.cores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_core::Policy;

    #[test]
    fn paper_node_defaults() {
        let n = NodeConfig::paper(10);
        assert_eq!(n.cores, 10);
        assert_eq!(n.memory_mb, 32 * 1024);
        assert_eq!(n.prewarm_count, 2);
    }

    #[test]
    fn busy_limit_scales_with_factor() {
        let n = NodeConfig::paper(10);
        assert_eq!(n.busy_limit(), 10);
        assert_eq!(n.with_busy_limit_factor(1.5).busy_limit(), 15);
        assert_eq!(n.with_busy_limit_factor(2.0).busy_limit(), 20);
    }

    #[test]
    #[should_panic(expected = "below the core count")]
    fn busy_limit_below_one_rejected() {
        NodeConfig::paper(4).with_busy_limit_factor(0.5);
    }

    #[test]
    fn paper_node_leaves_the_memory_axis_unmodeled() {
        let n = NodeConfig::paper(10);
        assert_eq!(n.mem_bandwidth, 0.0, "0.0 is the unmodeled sentinel");
        assert_eq!(n.with_mem_bandwidth(6.5).mem_bandwidth, 6.5);
    }

    #[test]
    #[should_panic(expected = "memory bandwidth must be positive")]
    fn zero_mem_bandwidth_rejected_by_builder() {
        NodeConfig::paper(4).with_mem_bandwidth(0.0);
    }

    #[test]
    fn memory_override() {
        let n = NodeConfig::paper(10).with_memory_mb(2048);
        assert_eq!(n.memory_mb, 2048);
        assert_eq!(n.cores, 10);
    }

    #[test]
    fn mgmt_scales_with_cores_and_duration() {
        // The paper's mean function (~1.042 s) costs ~3 s of management on a
        // 10-core node: management comparable to execution (SSV-B).
        assert!((mgmt_secs(10, 1.042) - 3.16).abs() < 0.05);
        // The proportional part doubles with the cores; the floor does not.
        let prop10 = mgmt_secs(10, 1.0) - MGMT_FLOOR;
        let prop20 = mgmt_secs(20, 1.0) - MGMT_FLOOR;
        assert!((prop20 - 2.0 * prop10).abs() < 1e-12);
        // Short calls pay the floor, not the proportional part.
        assert!(mgmt_secs(10, 0.002) < 0.7);
        assert!(mgmt_secs(20, 0.002) < 0.7);
    }

    #[test]
    fn mode_labels() {
        assert_eq!(NodeMode::Baseline.label(), "baseline");
        assert_eq!(
            NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice)).label(),
            "FC"
        );
    }

    #[test]
    fn hop_overhead_totals_ten_ms() {
        let hop = NodeConfig::paper(10).hop;
        assert_eq!(hop + hop, SimDuration::from_millis(10));
    }
}
