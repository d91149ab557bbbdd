//! Load-balancing policies of the controller.
//!
//! OpenWhisk's ShardingContainerPoolBalancer hashes each action to a home
//! invoker and overflows to the next when the home is saturated; many
//! deployments fall back to plain rotation. We implement both; the §VIII
//! experiments use round-robin, which spreads the paper's equal-per-function
//! load evenly (matching the paper's observation that the per-core intensity
//! is what determines node behaviour).
//!
//! # Static vs feedback policies
//!
//! [`LoadBalancer::RoundRobin`] and [`LoadBalancer::FunctionHash`] are
//! *static*: the assignment is a pure function of the call sequence, so the
//! whole burst can be sharded up front and every node simulated
//! independently. [`LoadBalancer::JoinShortestQueue`],
//! [`LoadBalancer::PowerOfTwoChoices`] and their dominant-share twins
//! [`LoadBalancer::JoinShortestDominant`] /
//! [`LoadBalancer::PowerOfTwoDominant`] are *feedback* policies: they
//! route on the per-node state the coupled engine observes at each
//! conservative-window barrier (see `crate::coupled`) — queue depths for
//! the former pair, `(dominant resource share, backlog)` keys for the
//! latter — so they only exist there; [`LoadBalancer::assign`] panics for
//! them.
//!
//! Feedback routing is deterministic by construction: every random draw
//! (tie-breaks, the two probes of power-of-two) is a counter-based
//! function of `(policy seed, decision index)`, never a shared mutable
//! stream. The decision sequence therefore depends only on the order in
//! which calls are routed — not on how the engine batches them into
//! windows or threads — which is what makes coupled runs bit-identical
//! across thread counts.

use faas_workload::sebs::FuncId;
use faas_workload::trace::Call;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The controller's call-assignment policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LoadBalancer {
    /// Calls rotate across workers in arrival order.
    RoundRobin,
    /// Each function has a home worker (hash of the function id); successive
    /// calls of one function rotate through workers starting at its home,
    /// approximating the sharding balancer's locality with overflow.
    FunctionHash,
    /// Join-the-shortest-queue: each call goes to the healthy node with the
    /// smallest observed backlog (queued + in-flight), ties broken by a
    /// seeded deterministic draw. Feedback policy — coupled engine only.
    JoinShortestQueue {
        /// Seed of the counter-based tie-break draws.
        seed: u64,
    },
    /// Power-of-two-choices: probe two seeded-random healthy nodes, route
    /// to the less loaded (first probe on a tie). The classic
    /// load-balancing result: two probes capture most of JSQ's benefit
    /// without global state. Feedback policy — coupled engine only.
    PowerOfTwoChoices {
        /// Seed of the counter-based probe draws.
        seed: u64,
    },
    /// Join-shortest-queue on the *dominant resource share*: each call
    /// goes to the healthy node with the smallest observed
    /// [`NodeView::dominant_milli`], backlog as the secondary key (so
    /// nodes with an unmodeled or idle memory axis still spread by queue
    /// depth). Routes multi-resource load around memory-bandwidth
    /// hotspots that plain backlog counting cannot see. Feedback policy —
    /// coupled engine only.
    JoinShortestDominant {
        /// Seed of the counter-based tie-break draws.
        seed: u64,
    },
    /// Power-of-two-choices on the dominant resource share: probe two
    /// seeded-random healthy nodes, route to the one with the smaller
    /// `(dominant_milli, backlog)` key (first probe on a tie). Feedback
    /// policy — coupled engine only.
    PowerOfTwoDominant {
        /// Seed of the counter-based probe draws.
        seed: u64,
    },
}

impl LoadBalancer {
    /// Whether this policy routes on observed node state and therefore
    /// requires the coupled cluster engine.
    pub fn is_feedback(&self) -> bool {
        matches!(
            self,
            LoadBalancer::JoinShortestQueue { .. }
                | LoadBalancer::PowerOfTwoChoices { .. }
                | LoadBalancer::JoinShortestDominant { .. }
                | LoadBalancer::PowerOfTwoDominant { .. }
        )
    }

    /// Assign every call to a node in `0..nodes`. Assignment is by arrival
    /// order and deterministic. Panics for feedback policies — they have
    /// no static assignment; route them through the coupled engine.
    pub fn assign(&self, calls: &[Call], nodes: u16) -> Vec<u16> {
        assert!(nodes > 0, "cluster needs at least one node");
        match self {
            LoadBalancer::RoundRobin => (0..calls.len())
                .map(|i| (i % nodes as usize) as u16)
                .collect(),
            LoadBalancer::FunctionHash => {
                let mut counters = BTreeMap::new();
                calls
                    .iter()
                    .map(|call| hash_rotation(&mut counters, call.func, nodes))
                    .collect()
            }
            LoadBalancer::JoinShortestQueue { .. }
            | LoadBalancer::PowerOfTwoChoices { .. }
            | LoadBalancer::JoinShortestDominant { .. }
            | LoadBalancer::PowerOfTwoDominant { .. } => {
                panic!("feedback policies have no static assignment: use the coupled engine")
            }
        }
    }
}

/// What a feedback balancer observes about one node at a window barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeView {
    /// Queued plus in-flight calls ([`faas_invoker::NodeProgress::backlog`]
    /// at the last barrier, plus the calls routed there since).
    pub backlog: usize,
    /// False between a crash and its restart.
    pub alive: bool,
    /// Dominant resource share at the last barrier, in thousandths
    /// ([`faas_invoker::NodeProgress::dominant_milli`]): the maximum over
    /// modeled resource axes of `consumption / capacity`. Stale by one
    /// window like `backlog`; calls routed since the barrier bump the
    /// backlog but not this share. Zero on a node whose axes are all
    /// unmodeled or idle.
    pub dominant_milli: u32,
}

/// SplitMix64 finalizer: the counter-based draw behind every feedback
/// routing decision.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// The routing state of a feedback [`LoadBalancer`]: a decision counter.
/// Each [`FeedbackRouter::route`] call consumes exactly one counter value,
/// so the decision sequence is a pure function of `(policy seed, decision
/// order)` — independent of window widths, shard partitions and thread
/// counts.
#[derive(Debug, Clone)]
pub struct FeedbackRouter {
    lb: LoadBalancer,
    decisions: u64,
}

impl FeedbackRouter {
    /// Build a router for a feedback policy (panics on a static one).
    pub fn new(lb: LoadBalancer) -> FeedbackRouter {
        assert!(lb.is_feedback(), "static policies need no feedback router");
        FeedbackRouter { lb, decisions: 0 }
    }

    /// Route one call given the per-node views. Dead nodes are skipped
    /// while any node is alive; with the whole cluster down the call is
    /// routed as if all were up (like OpenWhisk committing to a down
    /// invoker's topic — it queues until the restart).
    pub fn route(&mut self, views: &[NodeView]) -> u16 {
        assert!(!views.is_empty(), "cluster needs at least one node");
        let d = self.decisions;
        self.decisions += 1;
        let any_alive = views.iter().any(|v| v.alive);
        let candidate = |n: usize| !any_alive || views[n].alive;
        // The dominant policies key on (dominant share, backlog): the share
        // routes around saturated resource axes, the backlog discriminates
        // when shares agree (all idle, or the memory axis unmodeled — then
        // they degenerate to their backlog-only twins, tie-broken the same
        // way).
        let dominant = matches!(
            self.lb,
            LoadBalancer::JoinShortestDominant { .. } | LoadBalancer::PowerOfTwoDominant { .. }
        );
        let key = |n: u16| {
            let v = &views[n as usize];
            (if dominant { v.dominant_milli } else { 0 }, v.backlog)
        };
        let candidates = (0..views.len()).filter(|&n| candidate(n)).map(|n| n as u16);
        match self.lb {
            LoadBalancer::JoinShortestQueue { seed }
            | LoadBalancer::JoinShortestDominant { seed } => {
                let best = candidates.clone().map(key).min().expect("a candidate");
                let ties: Vec<u16> = candidates.filter(|&n| key(n) == best).collect();
                ties[(splitmix64(seed ^ d) % ties.len() as u64) as usize]
            }
            LoadBalancer::PowerOfTwoChoices { seed }
            | LoadBalancer::PowerOfTwoDominant { seed } => {
                let alive: Vec<u16> = candidates.collect();
                let r = splitmix64(seed ^ d);
                // Two probes from one draw (independent halves).
                let a = alive[(r as u32 as u64 % alive.len() as u64) as usize];
                let b = alive[((r >> 32) % alive.len() as u64) as usize];
                // First probe wins ties: each probe is uniform, so tie
                // decisions stay unbiased (min-index would favour node 0).
                if key(a) <= key(b) {
                    a
                } else {
                    b
                }
            }
            _ => unreachable!("checked in new()"),
        }
    }
}

/// Route one call under [`LoadBalancer::FunctionHash`]: per-function
/// rotation seeded at the function's home node, `counters` holding the
/// calls of each function routed so far.
pub(crate) fn hash_rotation(counters: &mut BTreeMap<FuncId, u64>, func: FuncId, nodes: u16) -> u16 {
    let counter = counters.entry(func).or_insert(0);
    let node = (home_node(func, nodes) as u64 + *counter) % nodes as u64;
    *counter += 1;
    node as u16
}

/// The home worker of a function under [`LoadBalancer::FunctionHash`].
pub fn home_node(func: FuncId, nodes: u16) -> u16 {
    // SplitMix-style scramble so consecutive FuncIds spread out.
    let mut x = func.0 as u64;
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    (x % nodes as u64) as u16
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_simcore::time::SimTime;
    use faas_workload::trace::{CallId, CallKind};

    fn calls(n: usize) -> Vec<Call> {
        (0..n)
            .map(|i| Call {
                id: CallId(i as u64),
                func: FuncId((i % 4) as u16),
                release: SimTime::from_millis(i as u64),
                kind: CallKind::Measured,
            })
            .collect()
    }

    #[test]
    fn round_robin_is_balanced() {
        let cs = calls(100);
        let assign = LoadBalancer::RoundRobin.assign(&cs, 4);
        for node in 0..4u16 {
            let count = assign.iter().filter(|&&n| n == node).count();
            assert_eq!(count, 25);
        }
        // Deterministic rotation.
        assert_eq!(&assign[..4], &[0, 1, 2, 3]);
    }

    #[test]
    fn function_hash_balances_per_function() {
        let cs = calls(400);
        let assign = LoadBalancer::FunctionHash.assign(&cs, 4);
        // Each function's 100 calls spread evenly.
        for func in 0..4u16 {
            for node in 0..4u16 {
                let count = cs
                    .iter()
                    .zip(&assign)
                    .filter(|(c, &n)| c.func == FuncId(func) && n == node)
                    .count();
                assert_eq!(count, 25, "func {func} node {node}");
            }
        }
    }

    #[test]
    fn function_hash_first_call_goes_home() {
        let cs = calls(4);
        let assign = LoadBalancer::FunctionHash.assign(&cs, 3);
        for (c, &n) in cs.iter().zip(&assign) {
            if cs.iter().position(|x| x.func == c.func) == cs.iter().position(|x| x.id == c.id) {
                assert_eq!(n, home_node(c.func, 3));
            }
        }
    }

    #[test]
    fn single_node_assigns_everything_to_zero() {
        let cs = calls(10);
        for lb in [LoadBalancer::RoundRobin, LoadBalancer::FunctionHash] {
            let assign = lb.assign(&cs, 1);
            assert!(assign.iter().all(|&n| n == 0));
        }
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        LoadBalancer::RoundRobin.assign(&calls(1), 0);
    }

    #[test]
    fn home_nodes_spread() {
        let homes: std::collections::BTreeSet<u16> =
            (0..11).map(|f| home_node(FuncId(f), 4)).collect();
        assert!(
            homes.len() >= 3,
            "11 functions should cover most of 4 nodes"
        );
    }

    #[test]
    fn function_hash_is_deterministic_across_runs() {
        let cs = calls(257);
        for nodes in [2u16, 3, 8] {
            let a = LoadBalancer::FunctionHash.assign(&cs, nodes);
            let b = LoadBalancer::FunctionHash.assign(&cs, nodes);
            assert_eq!(a, b, "{nodes} nodes");
        }
    }

    #[test]
    fn home_node_load_is_balanced_over_many_functions() {
        // With many functions no node should be the home of more than ~2x
        // the mean share (the SplitMix scramble spreads consecutive ids).
        for nodes in [4u16, 8, 16] {
            let functions = 512u16;
            let mut counts = vec![0usize; nodes as usize];
            for f in 0..functions {
                counts[home_node(FuncId(f), nodes) as usize] += 1;
            }
            let mean = functions as usize / nodes as usize;
            for (node, &c) in counts.iter().enumerate() {
                assert!(
                    c <= 2 * mean,
                    "{nodes} nodes: node {node} is home to {c} functions (mean {mean})"
                );
                assert!(c > 0, "{nodes} nodes: node {node} is home to nothing");
            }
        }
    }

    #[test]
    fn overflow_rotates_in_order_from_home() {
        // Successive calls of one function must visit home, home+1, ...,
        // wrapping around the ring — the sharding balancer's overflow order.
        let func = FuncId(3);
        let nodes = 5u16;
        let cs: Vec<Call> = (0..12)
            .map(|i| Call {
                id: CallId(i as u64),
                func,
                release: SimTime::from_millis(i as u64),
                kind: CallKind::Measured,
            })
            .collect();
        let assign = LoadBalancer::FunctionHash.assign(&cs, nodes);
        let home = home_node(func, nodes);
        let expected: Vec<u16> = (0..12).map(|k| (home + k as u16) % nodes).collect();
        assert_eq!(assign, expected);
    }

    #[test]
    fn feedback_flag_partitions_the_policies() {
        assert!(!LoadBalancer::RoundRobin.is_feedback());
        assert!(!LoadBalancer::FunctionHash.is_feedback());
        assert!(LoadBalancer::JoinShortestQueue { seed: 0 }.is_feedback());
        assert!(LoadBalancer::PowerOfTwoChoices { seed: 0 }.is_feedback());
        assert!(LoadBalancer::JoinShortestDominant { seed: 0 }.is_feedback());
        assert!(LoadBalancer::PowerOfTwoDominant { seed: 0 }.is_feedback());
    }

    #[test]
    #[should_panic(expected = "no static assignment")]
    fn feedback_policies_refuse_static_assignment() {
        LoadBalancer::JoinShortestQueue { seed: 1 }.assign(&calls(3), 2);
    }

    #[test]
    #[should_panic(expected = "no feedback router")]
    fn static_policies_refuse_a_router() {
        FeedbackRouter::new(LoadBalancer::RoundRobin);
    }

    #[test]
    fn jsq_routes_to_the_least_loaded_node() {
        let mut router = FeedbackRouter::new(LoadBalancer::JoinShortestQueue { seed: 9 });
        let views = [
            NodeView {
                backlog: 4,
                alive: true,
                dominant_milli: 0,
            },
            NodeView {
                backlog: 1,
                alive: true,
                dominant_milli: 0,
            },
            NodeView {
                backlog: 7,
                alive: true,
                dominant_milli: 0,
            },
        ];
        for _ in 0..10 {
            assert_eq!(router.route(&views), 1);
        }
    }

    #[test]
    fn dominant_jsq_routes_around_the_saturated_axis() {
        // Node 1 has the shortest queue but a saturated memory axis; the
        // dominant-share policy must send load to node 0 instead, where
        // plain JSQ would pile onto node 1.
        let views = [
            NodeView {
                backlog: 3,
                alive: true,
                dominant_milli: 400,
            },
            NodeView {
                backlog: 1,
                alive: true,
                dominant_milli: 1000,
            },
            NodeView {
                backlog: 5,
                alive: true,
                dominant_milli: 700,
            },
        ];
        let mut dominant = FeedbackRouter::new(LoadBalancer::JoinShortestDominant { seed: 9 });
        for _ in 0..10 {
            assert_eq!(dominant.route(&views), 0);
        }
        let mut jsq = FeedbackRouter::new(LoadBalancer::JoinShortestQueue { seed: 9 });
        assert_eq!(jsq.route(&views), 1);
    }

    #[test]
    fn dominant_jsq_degenerates_to_jsq_when_shares_agree() {
        // All shares equal (e.g. the memory axis unmodeled everywhere and
        // CPU idle): the backlog key takes over and both policies route
        // identically, draw for draw (same seed, same tie-break stream).
        let views = [
            NodeView {
                backlog: 4,
                alive: true,
                dominant_milli: 0,
            },
            NodeView {
                backlog: 2,
                alive: true,
                dominant_milli: 0,
            },
            NodeView {
                backlog: 2,
                alive: true,
                dominant_milli: 0,
            },
        ];
        let mut dominant = FeedbackRouter::new(LoadBalancer::JoinShortestDominant { seed: 5 });
        let mut jsq = FeedbackRouter::new(LoadBalancer::JoinShortestQueue { seed: 5 });
        for _ in 0..32 {
            assert_eq!(dominant.route(&views), jsq.route(&views));
        }
    }

    #[test]
    fn dominant_power_of_two_prefers_the_smaller_key() {
        // Two nodes: node 0 has the smaller (dominant, backlog) key, so it
        // wins every draw whose probes differ — only the draws where both
        // probes land on node 1 (a quarter in expectation) go there. Note
        // plain power-of-two would prefer node 1 (smaller backlog).
        let views = [
            NodeView {
                backlog: 9,
                alive: true,
                dominant_milli: 200,
            },
            NodeView {
                backlog: 1,
                alive: true,
                dominant_milli: 900,
            },
        ];
        let mut router = FeedbackRouter::new(LoadBalancer::PowerOfTwoDominant { seed: 3 });
        let rounds = 256;
        let to_zero = (0..rounds).filter(|_| router.route(&views) == 0).count();
        assert!(
            to_zero > rounds / 2,
            "node 0 won only {to_zero} of {rounds} draws"
        );
        let mut backlog = FeedbackRouter::new(LoadBalancer::PowerOfTwoChoices { seed: 3 });
        let to_one = (0..rounds).filter(|_| backlog.route(&views) == 1).count();
        assert!(to_one > rounds / 2, "backlog P2C must prefer node 1");
    }

    #[test]
    fn dead_cluster_still_routes_somewhere() {
        // All nodes down: the controller commits anyway (the call queues
        // until a restart), instead of panicking.
        let views = [NodeView {
            backlog: 0,
            alive: false,
            dominant_milli: 0,
        }; 3];
        for lb in [
            LoadBalancer::JoinShortestQueue { seed: 2 },
            LoadBalancer::PowerOfTwoChoices { seed: 2 },
            LoadBalancer::JoinShortestDominant { seed: 2 },
            LoadBalancer::PowerOfTwoDominant { seed: 2 },
        ] {
            let mut router = FeedbackRouter::new(lb);
            let n = router.route(&views);
            assert!(n < 3);
        }
    }

    #[test]
    fn interleaved_functions_keep_independent_rotations() {
        // Two functions interleaved in arrival order: each one's rotation
        // advances only on its own calls.
        let nodes = 4u16;
        let cs: Vec<Call> = (0..8)
            .map(|i| Call {
                id: CallId(i as u64),
                func: FuncId((i % 2) as u16),
                release: SimTime::from_millis(i as u64),
                kind: CallKind::Measured,
            })
            .collect();
        let assign = LoadBalancer::FunctionHash.assign(&cs, nodes);
        for f in 0..2u16 {
            let seq: Vec<u16> = cs
                .iter()
                .zip(&assign)
                .filter(|(c, _)| c.func == FuncId(f))
                .map(|(_, &n)| n)
                .collect();
            let home = home_node(FuncId(f), nodes);
            let expected: Vec<u16> = (0..seq.len() as u16).map(|k| (home + k) % nodes).collect();
            assert_eq!(seq, expected, "function {f}");
        }
    }
}
