//! Property tests of the cluster layer.

use faas_cluster::lb::home_node;
use faas_cluster::{LoadBalancer, NodeView, Router};
use faas_simcore::time::SimTime;
use faas_workload::sebs::FuncId;
use faas_workload::trace::{Call, CallId, CallKind};
use proptest::prelude::*;

fn calls(n: usize, funcs: u16) -> Vec<Call> {
    (0..n)
        .map(|i| Call {
            id: CallId(i as u64),
            func: FuncId((i as u16) % funcs),
            release: SimTime::from_millis(i as u64),
            kind: CallKind::Measured,
        })
        .collect()
}

/// The static routing rules, written out independently of [`Router`]:
/// round-robin strides the call ids, function hash sends a function's
/// `k`-th call to `home + k` around the ring.
fn route(lb: LoadBalancer, cs: &[Call], nodes: u16) -> Vec<u16> {
    let mut seen = std::collections::BTreeMap::new();
    cs.iter()
        .map(|call| match lb {
            LoadBalancer::RoundRobin => call.stride_node(nodes),
            _ => {
                let k = seen.entry(call.func).or_insert(0u64);
                let node = (home_node(call.func, nodes) as u64 + *k) % nodes as u64;
                *k += 1;
                node as u16
            }
        })
        .collect()
}

proptest! {
    /// Both static routing rules produce a total assignment onto valid
    /// nodes, per-node loads are near-balanced, and the engine's
    /// [`Router`] assigns every call as the rules say.
    #[test]
    fn balancers_partition_evenly(
        n in 1usize..500,
        nodes in 1u16..9,
        funcs in 1u16..12
    ) {
        let cs = calls(n, funcs);
        for lb in [LoadBalancer::RoundRobin, LoadBalancer::FunctionHash] {
            let assign = route(lb, &cs, nodes);
            prop_assert_eq!(assign.len(), n);
            let mut router = Router::new(lb);
            let views = vec![NodeView { backlog: 0, alive: true, dominant_milli: 0 }; nodes as usize];
            let routed: Vec<u16> = cs.iter().map(|call| router.route(call, &views)).collect();
            prop_assert_eq!(&routed, &assign, "{:?}", lb);
            let mut counts = vec![0usize; nodes as usize];
            for &a in &assign {
                prop_assert!(a < nodes);
                counts[a as usize] += 1;
            }
            let max = *counts.iter().max().unwrap();
            let min = *counts.iter().min().unwrap();
            // Round-robin is perfectly balanced; function-hash is balanced
            // up to one call per function.
            let slack = match lb {
                LoadBalancer::RoundRobin => 1,
                LoadBalancer::FunctionHash => funcs as usize,
                LoadBalancer::JoinShortestQueue { .. }
                | LoadBalancer::PowerOfTwoChoices { .. }
                | LoadBalancer::JoinShortestDominant { .. }
                | LoadBalancer::PowerOfTwoDominant { .. } => {
                    unreachable!("feedback policies have no static assignment")
                }
            };
            prop_assert!(max - min <= slack, "{lb:?}: {counts:?}");
        }
    }
}

fn feedback_policies(seed: u64) -> [LoadBalancer; 4] {
    [
        LoadBalancer::JoinShortestQueue { seed },
        LoadBalancer::PowerOfTwoChoices { seed },
        LoadBalancer::JoinShortestDominant { seed },
        LoadBalancer::PowerOfTwoDominant { seed },
    ]
}

/// The call a feedback decision routes: feedback policies read only the
/// views.
fn any_call() -> Call {
    calls(1, 1)[0]
}

/// A pseudo-random but deterministic view sequence for the router to react
/// to (the proptest inputs seed it).
fn view_sequence(len: usize, nodes: usize, salt: u64) -> Vec<Vec<NodeView>> {
    (0..len)
        .map(|i| {
            (0..nodes)
                .map(|n| {
                    let h =
                        (salt ^ (i as u64) << 17 ^ n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    NodeView {
                        backlog: (h >> 32) as usize % 7,
                        // Keep at least node 0 alive so routing stays defined.
                        alive: n == 0 || h & 0xFF > 40,
                        // Span idle through transiently oversubscribed so
                        // the dominant-share policies see real variation.
                        dominant_milli: ((h >> 16) % 1300) as u32,
                    }
                })
                .collect()
        })
        .collect()
}

proptest! {
    /// Feedback routing is a pure function of (policy seed, decision
    /// index, views): two routers fed the same sequence agree decision by
    /// decision.
    #[test]
    fn feedback_routing_reruns_identically(
        len in 1usize..300,
        nodes in 1usize..8,
        seed in any::<u64>(),
        salt in any::<u64>(),
    ) {
        let (views, call) = (view_sequence(len, nodes, salt), any_call());
        for lb in feedback_policies(seed) {
            let mut a = Router::new(lb);
            let mut b = Router::new(lb);
            for v in &views {
                prop_assert_eq!(a.route(&call, v), b.route(&call, v));
            }
        }
    }

    /// Decisions are keyed by the decision counter, not by a shared RNG
    /// stream, so any partition of the sequence reproduces the unsharded
    /// run: a router cloned mid-stream continues bit-identically, wherever
    /// the split lands (chunk) and however the halves interleave (stride —
    /// both clones advance independently yet agree with the reference).
    #[test]
    fn feedback_routing_is_partition_invariant(
        len in 2usize..300,
        nodes in 1usize..8,
        split_frac in 0.0f64..1.0,
        seed in any::<u64>(),
        salt in any::<u64>(),
    ) {
        let (views, call) = (view_sequence(len, nodes, salt), any_call());
        let split = ((len as f64 * split_frac) as usize).min(len - 1);
        for lb in feedback_policies(seed) {
            let mut whole = Router::new(lb);
            let reference: Vec<u16> = views.iter().map(|v| whole.route(&call, v)).collect();

            let mut first = Router::new(lb);
            for v in &views[..split] {
                first.route(&call, v);
            }
            let mut second = first.clone();
            let tail_a: Vec<u16> = views[split..].iter().map(|v| first.route(&call, v)).collect();
            let tail_b: Vec<u16> = views[split..].iter().map(|v| second.route(&call, v)).collect();
            prop_assert_eq!(&tail_a, &reference[split..]);
            prop_assert_eq!(&tail_b, &reference[split..]);
        }
    }

    /// Routing never lands on a dead node while any node is alive.
    #[test]
    fn feedback_routing_respects_liveness(
        len in 1usize..300,
        nodes in 1usize..8,
        seed in any::<u64>(),
        salt in any::<u64>(),
    ) {
        let (views, call) = (view_sequence(len, nodes, salt), any_call());
        for lb in feedback_policies(seed) {
            let mut router = Router::new(lb);
            for v in &views {
                let choice = router.route(&call, v) as usize;
                prop_assert!(choice < nodes);
                prop_assert!(v[choice].alive);
            }
        }
    }

    /// Tie-breaking is fair: with every node equally loaded, the seeded
    /// draw spreads decisions across the cluster with bounded imbalance
    /// (no node starves, no node hoards).
    #[test]
    fn feedback_tie_breaking_has_bounded_imbalance(
        nodes in 2usize..8,
        seed in any::<u64>(),
    ) {
        let rounds = 2048usize;
        let flat = vec![NodeView { backlog: 3, alive: true, dominant_milli: 250 }; nodes];
        let call = any_call();
        for lb in feedback_policies(seed) {
            let mut router = Router::new(lb);
            let mut counts = vec![0usize; nodes];
            for _ in 0..rounds {
                counts[router.route(&call, &flat) as usize] += 1;
            }
            let expect = rounds / nodes;
            for (n, &c) in counts.iter().enumerate() {
                prop_assert!(
                    c > expect / 2 && c < expect * 2,
                    "{lb:?}: node {n} got {c} of {rounds} over {nodes} nodes"
                );
            }
        }
    }
}
