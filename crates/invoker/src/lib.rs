//! # faas-invoker
//!
//! The OpenWhisk invoker substrate: container lifecycle and the two
//! node-level resource-management regimes the paper compares.
//!
//! * [`config`] — node configuration and the calibration constants that tie
//!   the simulator to the paper's measured testbed behaviour.
//! * [`pool`] — the container pool (§III): free (warm) pool, prewarm pool,
//!   memory accounting, LRU eviction, cold-start bookkeeping.
//! * [`NodeSim`] — one invoker node. It owns the call lifecycle both
//!   regimes share: arrival hops, container leases, cleanup, retries,
//!   crashes and cross-node failover. A [`NodeMode`] picks the CPU regime
//!   behind it:
//!   * [`NodeMode::Baseline`] — the unmodified-OpenWhisk node: greedy
//!     container creation, memory-proportional CPU shares time-sliced by
//!     the OS (generalized processor sharing with a context-switch
//!     penalty), FIFO overflow queue;
//!   * [`NodeMode::Scheduled`] — the paper's node (§IV): a policy-driven
//!     priority queue in front of at most `cores` busy containers, each
//!     pinned to a full core, non-preemptive execution.
//! * [`result`] — per-run outcome collection.
//! * [`step`] — the resumable step API the node exposes
//!   (`advance_to(horizon)` windows, cross-node failover handoffs), the
//!   substrate of the cluster crate's coupled engine.
//!
//! Both regimes consume the same [`faas_workload::Scenario`]s and produce
//! the same [`result::NodeResult`], so every experiment in the paper is a
//! like-for-like comparison.

mod baseline;
pub mod config;
mod node;
mod ours;
pub mod pool;
pub mod result;
pub mod step;

pub use config::{NodeConfig, NodeMode};
pub use node::NodeSim;
pub use pool::{ContainerPool, PoolStats};
pub use result::{DroppedCall, FaultStats, NodeResult};
pub use step::{Handoff, NodeProgress};

use faas_simcore::time::SimTime;

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
/// [`faas_workload::faults`] for the model; the crate's `node` module
/// documents the shared fault lifecycle, and the `baseline` / `ours`
/// modules what each regime changes). The node's fault timeline is
/// derived from `(faults, node_index)` inside the invoker, so multi-node
/// runs stay shard-invariant. Under the inert [`FaultSpec::none`] the
/// same lifecycle runs and finds nothing to do: the fault-free run.
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
