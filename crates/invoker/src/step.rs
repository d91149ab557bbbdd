//! The resumable step API of the node simulator.
//!
//! # Contract
//!
//! [`crate::NodeSim`] exposes one lifecycle, whichever CPU regime its
//! [`crate::NodeMode`] selects:
//!
//! ```text
//! new(..) ──▶ inject(calls)* ──▶ [ advance_to(horizon) ]* ──▶ finish()
//!                  ▲                      │
//!                  └── inject_handoff ◀───┘ (between windows, via the
//!                                            cluster engine)
//! ```
//!
//! * `new` builds an empty simulator and schedules the node's fault
//!   timeline (nothing else).
//! * `inject` appends a release-sorted batch of calls and schedules their
//!   arrivals. Calls may only be injected at (or after) the node's current
//!   clock: the event queue rejects scheduling into the past, so a caller
//!   must hand a node every call whose release falls inside a window
//!   *before* advancing through that window.
//! * `advance_to(horizon)` drains exactly the events with `time <=
//!   horizon` ([`faas_simcore::events::EventQueue::pop_at_or_before`]) and
//!   reports a [`NodeProgress`] snapshot. The node's clock never passes the
//!   horizon, so the caller can interleave any number of nodes in
//!   lock-step windows. `advance_to(SimTime::MAX)` runs to completion.
//!   Between windows, `next_event_time` tells the caller whether a node
//!   has work due, and `take_handoffs` empties its failover outbox.
//! * `finish` checks the conservation invariant (every injected call
//!   completed XOR dropped XOR was handed off) and assembles the
//!   [`crate::result::NodeResult`].
//!
//! The run-to-completion helper [`crate::simulate_calls_faulted`] is
//! *defined* as `new`, then one `inject` of the whole call list, then
//! `advance_to(SimTime::MAX)`, then `finish`. The digest pins in the
//! workspace's `tests/determinism.rs` fix its event order, RNG consumption
//! and `peak_events` accounting.
//!
//! # Cross-node failover
//!
//! With failover enabled (`new(.., failover: true)`, cluster runs only), a
//! failed attempt that still has retries left is not retried locally:
//! the call leaves the node as a [`Handoff`] carrying the attempts
//! consumed so far and the instant its retry backoff expires. The cluster
//! engine collects outboxes at each window barrier and re-injects every
//! handoff on the least-loaded healthy node via `inject_handoff`, which
//! charges one fresh dispatch hop (`NodeConfig::hop`) like any arrival —
//! failover goes back through the controller, unlike a local retry. The
//! call's attempt counter carries across nodes, so a policy of `n`
//! attempts spends `n` attempts cluster-wide, wherever they ran.

use faas_simcore::time::SimTime;
use faas_workload::trace::Call;

/// Snapshot returned by every `advance_to` call: what the load balancer is
/// allowed to observe about a node between windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeProgress {
    /// Calls waiting in the node's pending structure (baseline FIFO /
    /// scheduled priority queue). The scheduled queue reaps stale entries
    /// lazily, so under faults this is an upper bound — exactly the noisy
    /// signal a real controller polls.
    pub queue_depth: usize,
    /// Calls currently holding a container (admitted, not yet cleaned up):
    /// the container pool's lease count.
    pub inflight: usize,
    /// False between a crash and its restart.
    pub alive: bool,
    /// Dominant-share resource consumption at the last snapshot, in
    /// thousandths: the maximum over modeled resource axes (CPU always;
    /// memory bandwidth when [`crate::NodeConfig::mem_bandwidth`] is set)
    /// of `consumption / capacity`, rounded to milli-units. Integer so the
    /// snapshot stays `Eq`-comparable; `1000` means some axis is
    /// saturated, and values above `1000` are possible transiently on the
    /// scheduled node (queued work oversubscribing the busy limit).
    pub dominant_milli: u32,
}

impl NodeProgress {
    /// The queue-depth signal feedback balancers route on: queued plus
    /// in-flight calls — the node's total backlog.
    pub fn backlog(&self) -> usize {
        self.queue_depth + self.inflight
    }
}

/// A call leaving a node for cross-node failover: one failed attempt's
/// retry, redirected to another node by the cluster engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Handoff {
    /// The call to re-deliver (original id, func and release).
    pub call: Call,
    /// Attempts consumed so far (the receiving node continues the count).
    pub attempts: u32,
    /// When the retry backoff expires: the earliest instant the next
    /// attempt may be dispatched.
    pub due: SimTime,
    /// Node the attempt failed on.
    pub from: u16,
}
