//! # faas-invoker
//!
//! The OpenWhisk invoker substrate: container lifecycle and the two
//! node-level resource-management regimes the paper compares.
//!
//! * [`config`] — node configuration and the calibration constants that tie
//!   the simulator to the paper's measured testbed behaviour.
//! * [`pool`] — the container pool (§III): free (warm) pool, prewarm pool,
//!   memory accounting, LRU eviction, cold-start bookkeeping.
//! * [`baseline`] — the unmodified-OpenWhisk node: greedy container
//!   creation, memory-proportional CPU shares time-sliced by the OS
//!   (generalized processor sharing with a context-switch penalty), FIFO
//!   overflow queue.
//! * [`ours`] — the paper's node (§IV): a policy-driven priority queue in
//!   front of at most `cores` busy containers, each pinned to a full core,
//!   non-preemptive execution.
//! * [`result`] — per-run outcome collection.
//! * [`step`] — the resumable step API both nodes expose
//!   (`advance_to(horizon)` windows, cross-node failover handoffs), the
//!   substrate of the cluster crate's coupled engine.
//!
//! Both node simulations consume the same [`faas_workload::Scenario`]s and
//! produce the same [`result::NodeResult`], so every experiment in the paper
//! is a like-for-like comparison.

pub mod baseline;
pub mod config;
mod fault_rt;
pub mod ours;
pub mod pool;
pub mod result;
pub mod step;

pub use config::{Calibration, NodeConfig, NodeMode};
pub use pool::{ContainerPool, PoolStats};
pub use result::{DroppedCall, FaultStats, NodeResult};
pub use step::{Handoff, NodeProgress};

use faas_simcore::time::SimTime;

use faas_core::SchedulerConfig;
use faas_workload::faults::FaultSpec;
use faas_workload::sebs::Catalogue;
use faas_workload::trace::Call;
use faas_workload::weight::WeightTable;
use faas_workload::Scenario;

/// Simulate one node serving `calls` (release-ordered) under the given
/// mode, with uniform container weights and no faults.
///
/// `node_index` tags the resulting outcomes (multi-node experiments run one
/// simulation per worker).
pub fn simulate_calls(
    catalogue: &Catalogue,
    calls: &[Call],
    mode: &NodeMode,
    cfg: &NodeConfig,
    seed: u64,
    node_index: u16,
) -> NodeResult {
    let weights = WeightTable::uniform(catalogue.len());
    let none = FaultSpec::none();
    simulate_calls_faulted(
        catalogue, calls, mode, cfg, &weights, &none, seed, node_index,
    )
}

/// Run one [`NodeSim`] to completion: build it, inject every call, advance
/// to [`SimTime::MAX`] and finish. The one run-to-completion helper.
///
/// `weights` are per-function container weights and rate caps (the
/// weighted-container axis of [`faas_workload::WorkloadSpec`]). They shape
/// the *baseline* node only: its soft CPU shares are memory-proportional,
/// which is exactly what the GPS weight models. The paper's regime pins
/// every busy container to one full core, so [`NodeMode::Scheduled`] is
/// weight-invariant.
///
/// `faults` is the fault plan: dynamic capacity, node crash/restart,
/// transient failures and the retry/timeout/backoff policy (see
/// [`faas_workload::faults`] for the model, and the `baseline` / `ours`
/// module docs for the per-regime semantics). The node's fault timeline is
/// derived from `(faults, node_index)` inside the invoker, so multi-node
/// runs stay shard-invariant. [`FaultSpec::none`] gates every fault path
/// off, bit-for-bit.
#[allow(clippy::too_many_arguments)]
pub fn simulate_calls_faulted(
    catalogue: &Catalogue,
    calls: &[Call],
    mode: &NodeMode,
    cfg: &NodeConfig,
    weights: &WeightTable,
    faults: &FaultSpec,
    seed: u64,
    node_index: u16,
) -> NodeResult {
    let mut sim = NodeSim::new(
        catalogue, mode, cfg, weights, faults, seed, node_index, false,
    );
    sim.inject(calls);
    sim.advance_to(SimTime::MAX);
    sim.finish()
}

/// Simulate a full scenario (warm-up plus burst) on a single node.
pub fn simulate_scenario(
    catalogue: &Catalogue,
    scenario: &Scenario,
    mode: &NodeMode,
    cfg: &NodeConfig,
    seed: u64,
) -> NodeResult {
    let calls = scenario.all_calls();
    simulate_calls(catalogue, &calls, mode, cfg, seed, 0)
}

/// Convenience constructor for the scheduled mode.
pub fn scheduled(sched: SchedulerConfig) -> NodeMode {
    NodeMode::Scheduled(sched)
}

/// A mode-dispatching resumable node simulator: one enum over the two
/// regimes, exposing the step API of [`step`] so the cluster engine can
/// drive either node kind through conservative time windows without
/// caring which regime it is. Boxed per variant — the two simulators are
/// large and a cluster holds many.
pub enum NodeSim<'a> {
    /// The unmodified-OpenWhisk node.
    Baseline(Box<baseline::NodeSim<'a>>),
    /// The paper's scheduled node.
    Scheduled(Box<ours::NodeSim<'a>>),
}

impl<'a> NodeSim<'a> {
    /// Build an empty resumable node for `mode`; see
    /// [`baseline::NodeSim::new`] / [`ours::NodeSim::new`].
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        catalogue: &'a Catalogue,
        mode: &NodeMode,
        cfg: &'a NodeConfig,
        weights: &'a WeightTable,
        faults: &'a FaultSpec,
        seed: u64,
        node_index: u16,
        failover: bool,
    ) -> NodeSim<'a> {
        match mode {
            NodeMode::Baseline => NodeSim::Baseline(Box::new(baseline::NodeSim::new(
                catalogue, cfg, weights, faults, seed, node_index, failover,
            ))),
            NodeMode::Scheduled(sched) => NodeSim::Scheduled(Box::new(ours::NodeSim::new(
                catalogue, cfg, *sched, faults, seed, node_index, failover,
            ))),
        }
    }

    /// Append a release-sorted batch of calls and schedule their arrivals.
    pub fn inject(&mut self, calls: &[Call]) {
        match self {
            NodeSim::Baseline(s) => s.inject(calls),
            NodeSim::Scheduled(s) => s.inject(calls),
        }
    }

    /// Re-inject a call another node failed over (see
    /// [`step::Handoff`]).
    pub fn inject_handoff(&mut self, h: &Handoff, deliver_at: SimTime) {
        match self {
            NodeSim::Baseline(s) => s.inject_handoff(h, deliver_at),
            NodeSim::Scheduled(s) => s.inject_handoff(h, deliver_at),
        }
    }

    /// Drain every event with `time <= horizon`, then report progress.
    pub fn advance_to(&mut self, horizon: SimTime) -> NodeProgress {
        match self {
            NodeSim::Baseline(s) => s.advance_to(horizon),
            NodeSim::Scheduled(s) => s.advance_to(horizon),
        }
    }

    /// The current [`NodeProgress`] snapshot.
    pub fn progress(&self) -> NodeProgress {
        match self {
            NodeSim::Baseline(s) => s.progress(),
            NodeSim::Scheduled(s) => s.progress(),
        }
    }

    /// Timestamp of the earliest still-queued event.
    pub fn next_event_time(&self) -> Option<SimTime> {
        match self {
            NodeSim::Baseline(s) => s.next_event_time(),
            NodeSim::Scheduled(s) => s.next_event_time(),
        }
    }

    /// Take the pending failover outbox.
    pub fn take_handoffs(&mut self) -> Vec<Handoff> {
        match self {
            NodeSim::Baseline(s) => s.take_handoffs(),
            NodeSim::Scheduled(s) => s.take_handoffs(),
        }
    }

    /// Check conservation and assemble the [`NodeResult`].
    pub fn finish(self) -> NodeResult {
        match self {
            NodeSim::Baseline(s) => s.finish(),
            NodeSim::Scheduled(s) => s.finish(),
        }
    }
}
