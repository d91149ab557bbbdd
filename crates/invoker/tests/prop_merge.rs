//! Differential property test of the cluster merge.
//!
//! `NodeResult::merge` merges per-node runs instead of sorting their
//! concatenation. The oracle is that concatenation sorted by the canonical
//! order: `(release, id, node)`, then the remaining fields (here the
//! receive time and a serial number that only break ties). The runs mix
//! what real nodes produce: vectors already in order (a node stores
//! outcomes by injection index), one vector out of order (failover
//! handoffs arrive after later releases), and `(release, id)` pairs shared
//! across nodes (the per-node warm-up replicas) or repeated within one (a
//! replica handed off to a node that ran its own).

use faas_invoker::{DroppedCall, FaultStats, NodeResult, PoolStats};
use faas_simcore::rng::Xoshiro256;
use faas_simcore::time::{SimDuration, SimTime};
use faas_workload::faults::DropReason;
use faas_workload::sebs::FuncId;
use faas_workload::trace::{CallId, CallKind, CallOutcome, ColdStartKind};
use proptest::prelude::*;

/// A node's result holding `outcomes` and `drops`; the counters do not
/// take part in the order.
fn node_result(outcomes: Vec<CallOutcome>, drops: Vec<DroppedCall>) -> NodeResult {
    NodeResult {
        outcomes,
        measured_pool_stats: PoolStats::default(),
        total_pool_stats: PoolStats::default(),
        peak_queue: 0,
        peak_concurrency: 0,
        peak_events: 0,
        peak_live_calls: 0,
        peak_resident_calls: 0,
        last_completion: SimTime::ZERO,
        served_cpu_secs: 0.0,
        served_mem_units: 0.0,
        drops,
        fault_stats: FaultStats::default(),
    }
}

/// A draw from a small `(release, id)` grid, so keys collide often within
/// and across nodes.
fn draw_key(rng: &mut Xoshiro256) -> (SimTime, CallId) {
    let release = SimTime::from_millis(rng.next_u64() % 24);
    (release, CallId(rng.next_u64() % 16))
}

/// Node `node`'s outcomes and drops; each record carries a serial number
/// (in `exec_start` and `attempts`) so a misplaced tie shows, and each
/// outcome a receive time that often ties too. Sorted by `(release, id)`,
/// as a node injects them, unless `disorder`.
fn node_runs(
    rng: &mut Xoshiro256,
    node: u16,
    serial: &mut u64,
    disorder: bool,
) -> (Vec<CallOutcome>, Vec<DroppedCall>) {
    let mut outcomes: Vec<CallOutcome> = (0..rng.next_u64() % 48)
        .map(|_| {
            let (release, id) = draw_key(rng);
            let receive = release + SimDuration::from_millis(rng.next_u64() % 3);
            *serial += 1;
            let t = SimTime::from_nanos(*serial);
            CallOutcome {
                id,
                func: FuncId(0),
                kind: CallKind::Measured,
                release,
                invoker_receive: receive,
                exec_start: t,
                exec_end: t,
                completion: release + SimDuration::from_secs(1),
                processing: SimDuration::ZERO,
                start_kind: ColdStartKind::Warm,
                node,
            }
        })
        .collect();
    let mut drops: Vec<DroppedCall> = (0..rng.next_u64() % 6)
        .map(|_| {
            let (release, id) = draw_key(rng);
            *serial += 1;
            DroppedCall {
                id,
                func: FuncId(0),
                release,
                node,
                reason: DropReason::ExhaustedRetries,
                attempts: *serial as u32,
            }
        })
        .collect();
    if !disorder {
        outcomes.sort_by_key(|o| (o.release, o.id));
        drops.sort_by_key(|d| (d.release, d.id));
    }
    (outcomes, drops)
}

proptest! {
    /// Merging per-node runs equals sorting their concatenation.
    #[test]
    fn merge_equals_the_sorted_concatenation(
        seed in any::<u64>(),
        nodes in 1u16..7
    ) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let disordered = (rng.next_u64() % (u64::from(nodes) + 1)) as u16;
        let mut serial = 0;
        let results: Vec<NodeResult> = (0..nodes)
            .map(|node| {
                let disorder = node == disordered;
                let (outcomes, drops) = node_runs(&mut rng, node, &mut serial, disorder);
                node_result(outcomes, drops)
            })
            .collect();
        let mut want_outcomes: Vec<CallOutcome> =
            results.iter().flat_map(|r| r.outcomes.iter().copied()).collect();
        want_outcomes
            .sort_by_key(|o| (o.release, o.id, o.node, o.invoker_receive, o.exec_start));
        let mut want_drops: Vec<DroppedCall> =
            results.iter().flat_map(|r| r.drops.iter().copied()).collect();
        want_drops.sort_by_key(|d| (d.release, d.id, d.node, d.attempts));
        let merged = NodeResult::merge(results);
        prop_assert_eq!(merged.outcomes, want_outcomes);
        prop_assert_eq!(merged.drops, want_drops);
    }
}
