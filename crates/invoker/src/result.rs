//! Per-run result collection.

use crate::pool::PoolStats;
use faas_simcore::time::SimTime;
use faas_workload::faults::DropReason;
use faas_workload::sebs::FuncId;
use faas_workload::trace::{CallId, CallOutcome};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// A call that never completed: every retry attempt was consumed (node
/// crash or transient failure on each) or the pending timeout fired on the
/// final attempt. Dropped calls are excluded from `outcomes` — latency
/// statistics describe goodput — and reported here with their reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DroppedCall {
    /// The call's id.
    pub id: CallId,
    /// Function invoked.
    pub func: FuncId,
    /// Release (arrival) time of the call.
    pub release: SimTime,
    /// Node that dropped it.
    pub node: u16,
    /// Why the call was given up on.
    pub reason: DropReason,
    /// Attempts consumed (equals the policy's `max_attempts` for
    /// [`DropReason::ExhaustedRetries`]).
    pub attempts: u32,
}

/// Robustness counters a faulted node simulation accumulates. All zero on
/// a fault-free run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Node crash events processed.
    pub crashes: u64,
    /// Dynamic-capacity events processed (degradation and restoration).
    pub capacity_events: u64,
    /// Attempts whose response was lost to a transient failure.
    pub transient_failures: u64,
    /// In-flight attempts killed by a node crash.
    pub crash_kills: u64,
    /// Attempts abandoned by the pending timeout.
    pub timeouts: u64,
    /// Retry attempts scheduled (attempt ≥ 2 dispatches).
    pub retries: u64,
    /// Calls dropped (matches the length of [`NodeResult::drops`]).
    pub dropped: u64,
    /// Failed attempts handed off to another node for their retry
    /// (cross-node failover; always zero outside the coupled cluster
    /// engine). Counted on the node the attempt failed on.
    pub failovers: u64,
}

impl FaultStats {
    fn add(self, b: FaultStats) -> FaultStats {
        FaultStats {
            crashes: self.crashes + b.crashes,
            capacity_events: self.capacity_events + b.capacity_events,
            transient_failures: self.transient_failures + b.transient_failures,
            crash_kills: self.crash_kills + b.crash_kills,
            timeouts: self.timeouts + b.timeouts,
            retries: self.retries + b.retries,
            dropped: self.dropped + b.dropped,
            failovers: self.failovers + b.failovers,
        }
    }
}

/// Everything a node simulation produces.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeResult {
    /// One outcome per call (warm-up calls included, flagged by kind).
    pub outcomes: Vec<CallOutcome>,
    /// Container-pool statistics accumulated over the *measured* phase
    /// (from the first measured arrival on), which is what Fig. 2 counts.
    pub measured_pool_stats: PoolStats,
    /// Container-pool statistics over the whole run (warm-up included).
    pub total_pool_stats: PoolStats,
    /// Largest pending-queue length observed.
    pub peak_queue: usize,
    /// Largest number of simultaneously leased containers observed.
    pub peak_concurrency: usize,
    /// Largest number of live entries in the simulator's event queue. This
    /// is a simulator-health metric, not a modelled quantity: it bounds the
    /// event heap's memory and guards against stale-event buildup.
    pub peak_events: usize,
    /// Largest live window a node held: the calls from its oldest
    /// unresolved one to its newest injected one, whose runtime it keeps
    /// (see the crate's `node` module). On a stable load it follows the
    /// calls in flight, not how many the node received; a call a priority
    /// queue holds back widens it by every later call. Counts calls
    /// injected but not yet arrived, so it moves with a cluster run's
    /// ingestion chunk. Merges take the max.
    pub peak_live_calls: usize,
    /// Largest number of calls resident in the ingestion buffer of a trace
    /// replay — the bounded-memory RSS proxy, at most one `chunk`. Zero
    /// for runs that materialize their call list up front. Unlike the
    /// other peaks, merges *sum* this field; a cluster run charges its one
    /// controller-side buffer to node 0, so the merge reports it once.
    pub peak_resident_calls: u64,
    /// Completion time of the last measured call.
    pub last_completion: SimTime,
    /// CPU work served by the node's processor model, in core-seconds.
    /// On the baseline node this is the GPS bank's completed work across
    /// every CPU phase (cold-start init, execution, warm-up included);
    /// on the scheduled node it is the intrinsic CPU work of completed
    /// executions. Cluster merges sum it.
    pub served_cpu_secs: f64,
    /// Memory-bandwidth work served, in bandwidth-unit-seconds. Zero
    /// whenever the memory axis is unmodeled
    /// (`NodeConfig::mem_bandwidth == 0.0`) or no task demanded it.
    /// Cluster merges sum it.
    pub served_mem_units: f64,
    /// Calls that never completed (fault runs only; empty otherwise).
    pub drops: Vec<DroppedCall>,
    /// Robustness counters (all zero on fault-free runs).
    pub fault_stats: FaultStats,
}

impl NodeResult {
    /// Outcomes of measured (non-warm-up) calls only.
    pub fn measured(&self) -> impl Iterator<Item = &CallOutcome> {
        self.outcomes.iter().filter(|o| o.is_measured())
    }

    /// Number of measured calls.
    pub fn measured_len(&self) -> usize {
        self.measured().count()
    }

    /// Cold starts among measured calls (what Fig. 2 reports).
    pub fn measured_cold_starts(&self) -> usize {
        self.measured().filter(|o| o.start_kind.is_cold()).count()
    }

    /// Fold `other` into `self`, whose `outcomes` and `drops` are already
    /// in the canonical order of [`NodeResult::merge`]: `other`'s runs
    /// merge into them in place (see `merge_run`), pool stats sum, peaks
    /// and the last completion max (except `peak_resident_calls`, which
    /// sums — see its doc).
    fn merge_from(&mut self, other: NodeResult) {
        merge_run(&mut self.outcomes, other.outcomes, outcome_order);
        merge_run(&mut self.drops, other.drops, drop_order);
        self.measured_pool_stats = add_stats(self.measured_pool_stats, other.measured_pool_stats);
        self.total_pool_stats = add_stats(self.total_pool_stats, other.total_pool_stats);
        self.peak_queue = self.peak_queue.max(other.peak_queue);
        self.peak_concurrency = self.peak_concurrency.max(other.peak_concurrency);
        self.peak_events = self.peak_events.max(other.peak_events);
        self.peak_live_calls = self.peak_live_calls.max(other.peak_live_calls);
        self.peak_resident_calls += other.peak_resident_calls;
        self.last_completion = self.last_completion.max(other.last_completion);
        self.served_cpu_secs += other.served_cpu_secs;
        self.served_mem_units += other.served_mem_units;
        self.fault_stats = self.fault_stats.add(other.fault_stats);
    }

    /// Merge the results of several nodes (multi-node experiments).
    ///
    /// `outcomes` and `drops` come out in the canonical order
    /// `(release, id, node)`. The node breaks the ties between the
    /// per-node warm-up replicas, which share a release and an id. A node
    /// can still hold two records under one key — its own replica and
    /// another node's, handed to it by failover — so the remaining fields
    /// order those: only identical records tie, and the merged vectors do
    /// not depend on how they were sorted.
    ///
    /// A node already holds its outcomes in that order on a static run
    /// (it stores them by injection index), so nothing is re-sorted: only
    /// a node whose vector is out of order — a coupled run's failover
    /// handoffs can leave one — is sorted first. The sorted runs then
    /// merge pairwise, back to front, into the first result's vector,
    /// which grows once (`reserve_exact`) to the merged size. Each other
    /// node's vector is freed after its merge and no scratch buffer is
    /// allocated, so the memory peak is the merged vector plus the node
    /// vectors not yet merged — no more than the inputs plus the output.
    pub fn merge(results: Vec<NodeResult>) -> NodeResult {
        assert!(!results.is_empty(), "merge of zero results");
        let total: usize = results.iter().map(|r| r.outcomes.len()).sum();
        let mut iter = results.into_iter();
        let mut acc = iter.next().expect("non-empty");
        sort_run(&mut acc.outcomes, outcome_order);
        sort_run(&mut acc.drops, drop_order);
        acc.outcomes.reserve_exact(total - acc.outcomes.len());
        for r in iter {
            acc.merge_from(r);
        }
        acc
    }
}

/// The canonical merged order of outcomes (see [`NodeResult::merge`]):
/// `(release, id, node)`, then the remaining fields, so only identical
/// outcomes tie.
fn outcome_order(a: &CallOutcome, b: &CallOutcome) -> Ordering {
    let key = |o: &CallOutcome| (o.release, o.id, o.node);
    let rest = |o: &CallOutcome| {
        (
            o.invoker_receive,
            o.exec_start,
            o.exec_end,
            o.completion,
            o.processing,
            o.func,
            o.kind as u8,
            o.start_kind as u8,
        )
    };
    key(a).cmp(&key(b)).then_with(|| rest(a).cmp(&rest(b)))
}

/// The canonical merged order of drops, by the same rule as
/// [`outcome_order`].
fn drop_order(a: &DroppedCall, b: &DroppedCall) -> Ordering {
    let key = |d: &DroppedCall| (d.release, d.id, d.node, d.attempts, d.reason as u8, d.func);
    key(a).cmp(&key(b))
}

/// Sort `run` by `order` unless it already is in order. Only identical
/// elements tie under either order, so the unstable sort's choice among
/// them cannot show, and it needs no scratch buffer.
fn sort_run<T>(run: &mut [T], order: impl Fn(&T, &T) -> Ordering) {
    if !run.is_sorted_by(|a, b| order(a, b).is_le()) {
        run.sort_unstable_by(order);
    }
}

/// Merge `run` into `acc`, which is sorted by `order`, keeping `acc`
/// sorted. `run` is sorted first if it is out of order. The merge works in
/// place, back to front: `acc` grows by `run`'s length, and each step
/// moves the greater of the two unmerged tails to the free slot at the
/// back, which never overtakes an unmerged `acc` element. `run` is freed
/// on return.
fn merge_run<T: Copy>(acc: &mut Vec<T>, mut run: Vec<T>, order: impl Fn(&T, &T) -> Ordering) {
    sort_run(&mut run, &order);
    let (mut i, mut j) = (acc.len(), run.len());
    // Grow to the merged length; the loop overwrites the copied tail.
    acc.extend_from_slice(&run);
    let mut k = acc.len();
    while i > 0 && j > 0 {
        k -= 1;
        if order(&run[j - 1], &acc[i - 1]).is_ge() {
            j -= 1;
            acc[k] = run[j];
        } else {
            i -= 1;
            acc[k] = acc[i];
        }
    }
    // What is left of `acc` is already in place; what is left of `run`
    // precedes it.
    acc[..j].copy_from_slice(&run[..j]);
}

fn add_stats(a: PoolStats, b: PoolStats) -> PoolStats {
    PoolStats {
        warm_hits: a.warm_hits + b.warm_hits,
        prewarm_hits: a.prewarm_hits + b.prewarm_hits,
        cold_creates: a.cold_creates + b.cold_creates,
        evictions: a.evictions + b.evictions,
        placement_failures: a.placement_failures + b.placement_failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_simcore::time::SimDuration;
    use faas_workload::sebs::FuncId;
    use faas_workload::trace::{CallId, CallKind, ColdStartKind};

    fn outcome(id: u64, kind: CallKind, cold: ColdStartKind, node: u16) -> CallOutcome {
        let t = SimTime::from_secs(id);
        CallOutcome {
            id: CallId(id),
            func: FuncId(0),
            kind,
            release: t,
            invoker_receive: t,
            exec_start: t,
            exec_end: t + SimDuration::from_secs(1),
            completion: t + SimDuration::from_secs(1),
            processing: SimDuration::from_secs(1),
            start_kind: cold,
            node,
        }
    }

    fn result(outcomes: Vec<CallOutcome>) -> NodeResult {
        let last = outcomes
            .iter()
            .map(|o| o.completion)
            .max()
            .unwrap_or(SimTime::ZERO);
        NodeResult {
            outcomes,
            measured_pool_stats: PoolStats::default(),
            total_pool_stats: PoolStats::default(),
            peak_queue: 3,
            peak_concurrency: 2,
            peak_events: 5,
            peak_live_calls: 4,
            peak_resident_calls: 7,
            last_completion: last,
            served_cpu_secs: 1.5,
            served_mem_units: 0.5,
            drops: Vec::new(),
            fault_stats: FaultStats::default(),
        }
    }

    #[test]
    fn measured_filters_warmup() {
        let r = result(vec![
            outcome(0, CallKind::Warmup, ColdStartKind::Cold, 0),
            outcome(1, CallKind::Measured, ColdStartKind::Warm, 0),
            outcome(2, CallKind::Measured, ColdStartKind::Cold, 0),
        ]);
        assert_eq!(r.measured_len(), 2);
        assert_eq!(r.measured_cold_starts(), 1, "warm-up colds excluded");
    }

    #[test]
    fn merge_combines_and_sorts() {
        let a = result(vec![outcome(3, CallKind::Measured, ColdStartKind::Warm, 0)]);
        let b = result(vec![outcome(1, CallKind::Measured, ColdStartKind::Warm, 1)]);
        let m = NodeResult::merge(vec![a, b]);
        assert_eq!(m.outcomes.len(), 2);
        assert_eq!(m.outcomes[0].id, CallId(1), "sorted by release");
        assert_eq!(m.last_completion, SimTime::from_secs(4));
        assert_eq!(m.peak_queue, 3);
    }

    #[test]
    #[should_panic(expected = "zero results")]
    fn merge_empty_panics() {
        NodeResult::merge(vec![]);
    }

    #[test]
    fn merge_from_accumulates_in_place() {
        let mut acc = result(vec![
            outcome(2, CallKind::Measured, ColdStartKind::Warm, 0),
            outcome(4, CallKind::Measured, ColdStartKind::Warm, 0),
        ]);
        let extra = result(vec![
            outcome(1, CallKind::Measured, ColdStartKind::Cold, 1),
            outcome(3, CallKind::Measured, ColdStartKind::Cold, 1),
        ]);
        acc.merge_from(extra);
        let ids: Vec<u64> = acc.outcomes.iter().map(|o| o.id.0).collect();
        assert_eq!(ids, [1, 2, 3, 4], "merge_from interleaves the two runs");
        assert_eq!(acc.last_completion, SimTime::from_secs(5));
        assert_eq!(acc.peak_events, 5, "event peak maxes across nodes");
        assert_eq!(acc.peak_live_calls, 4, "live-window peak maxes too");
        assert_eq!(
            acc.peak_resident_calls, 14,
            "resident peak sums across nodes"
        );
        assert_eq!(acc.served_cpu_secs, 3.0, "served CPU work sums");
        assert_eq!(acc.served_mem_units, 1.0, "served bandwidth work sums");
    }

    #[test]
    fn merge_accumulates_drops_and_fault_stats() {
        let drop = |id: u64, node: u16| DroppedCall {
            id: CallId(id),
            func: FuncId(0),
            release: SimTime::from_secs(id),
            node,
            reason: DropReason::ExhaustedRetries,
            attempts: 3,
        };
        let mut a = result(vec![outcome(0, CallKind::Measured, ColdStartKind::Warm, 0)]);
        a.drops.push(drop(7, 0));
        a.fault_stats.retries = 2;
        a.fault_stats.dropped = 1;
        let mut b = result(vec![outcome(1, CallKind::Measured, ColdStartKind::Warm, 1)]);
        b.drops.push(drop(3, 1));
        b.fault_stats.crashes = 1;
        b.fault_stats.dropped = 1;
        let m = NodeResult::merge(vec![a, b]);
        assert_eq!(m.drops.len(), 2);
        assert_eq!(m.drops[0].id, CallId(3), "drops sorted by release");
        assert_eq!(m.fault_stats.retries, 2);
        assert_eq!(m.fault_stats.crashes, 1);
        assert_eq!(m.fault_stats.dropped, 2);
    }

    #[test]
    fn merge_matches_pairwise_merge_from() {
        let a = result(vec![outcome(5, CallKind::Measured, ColdStartKind::Warm, 0)]);
        let b = result(vec![outcome(4, CallKind::Warmup, ColdStartKind::Cold, 1)]);
        let merged = NodeResult::merge(vec![a.clone(), b.clone()]);
        let mut manual = a;
        manual.merge_from(b);
        assert_eq!(merged.outcomes, manual.outcomes);
        assert_eq!(merged.peak_events, manual.peak_events);
    }
}
