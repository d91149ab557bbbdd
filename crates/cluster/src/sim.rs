//! Multi-node experiment engine (§VIII of the paper).
//!
//! The paper's cloud experiment fixes the *total* load (1320 requests for
//! 10-core workers, 2376 for 18-core workers, uniform over 60 s) and varies
//! the number of workers from 4 down to 1, so that `k` workers see per-core
//! intensity `120/k`. Every worker is warmed up before the burst.

use crate::coupled::{coupled_engine, new_nodes, Routing};
use crate::lb::LoadBalancer;
use faas_invoker::{NodeConfig, NodeMode, NodeResult};
use faas_simcore::rng::Xoshiro256;
use faas_simcore::time::{SimDuration, SimTime};
use faas_workload::arrival::ArrivalSpec;
use faas_workload::faults::FaultSpec;
use faas_workload::generate::WorkloadSpec;
use faas_workload::mix::MixSpec;
use faas_workload::scenario::{warmup_calls_for_waves, warmup_waves as warmup_waves_for};
use faas_workload::sebs::{Catalogue, FuncId};
use faas_workload::trace::Call;
use faas_workload::weight::{WeightSpec, WeightTable};
use serde::{Deserialize, Serialize};

/// Configuration of one cluster run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of worker nodes.
    pub nodes: u16,
    /// Per-worker configuration.
    pub node: NodeConfig,
    /// Controller load-balancing policy.
    pub lb: LoadBalancer,
    /// Conservative-window width of the cluster engine (see
    /// `crate::coupled`): between windows the controller observes node
    /// state and routes the next slice of arrivals.
    /// [`SimDuration::MAX`] couples nothing: only the ingestion cap cuts
    /// windows, and with a static policy every node runs as if alone.
    pub lookahead: SimDuration,
    /// Cross-node failover: a failed attempt with retries left is
    /// re-routed to the least-loaded healthy node at the next window
    /// barrier instead of retrying locally. Requires a finite `lookahead`
    /// and a fault plan.
    pub failover: bool,
}

impl ClusterConfig {
    /// A cluster of independent nodes: infinite lookahead, no failover —
    /// the configuration every pre-coupling experiment runs under.
    pub fn independent(nodes: u16, node: NodeConfig, lb: LoadBalancer) -> ClusterConfig {
        ClusterConfig {
            nodes,
            node,
            lb,
            lookahead: SimDuration::MAX,
            failover: false,
        }
    }

    /// The same cluster coupled through windows of `lookahead`, with
    /// cross-node failover on or off.
    pub fn coupled(self, lookahead: SimDuration, failover: bool) -> ClusterConfig {
        ClusterConfig {
            lookahead,
            failover,
            ..self
        }
    }
}

/// A generated multi-node scenario: one shared burst plus per-node warm-ups.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterScenario {
    /// The measured burst (shared across node-count configurations, as in
    /// the paper: "we send the same sequence of requests").
    pub burst: Vec<Call>,
    /// Start of the burst window.
    pub burst_start: SimTime,
    /// Burst window length.
    pub burst_window: SimDuration,
    /// Per-function warm-up wave times (each node replays these locally).
    pub(crate) warmup_waves: Vec<(FuncId, SimTime)>,
}

/// Per-node simulation seeds, derived sequentially in node order so the
/// RNG stream order is fixed regardless of how the node loop is scheduled.
pub(crate) fn node_seeds(seed: u64, nodes: u16) -> Vec<(u16, u64)> {
    let mut root = Xoshiro256::seed_from_u64(seed ^ 0xC1u64.rotate_left(32));
    (0..nodes)
        .map(|node| (node, root.derive_stream(node as u64).next_u64()))
        .collect()
}

impl ClusterScenario {
    /// Generate the paper's fixed-total-load burst: `per_function` calls of
    /// each function, uniform over `window`, preceded by per-node warm-up
    /// waves of `cores` parallel calls per function.
    ///
    /// A thin adapter over the workload subsystem
    /// ([`WorkloadSpec::generate_sorted`] with uniform arrivals and the
    /// equal split), bit-for-bit identical to the pre-subsystem generator
    /// (pinned below).
    pub fn generate(
        catalogue: &Catalogue,
        per_function: usize,
        cores: u32,
        window: SimDuration,
        seed: u64,
    ) -> ClusterScenario {
        let mut root = Xoshiro256::seed_from_u64(seed);
        let mut rng_times = root.derive_stream(0xC101);
        let mut rng_assign = root.derive_stream(0xC102);

        let (warmup_waves, burst_start) = warmup_waves_for(catalogue);
        let spec = WorkloadSpec {
            arrival: ArrivalSpec::Uniform {
                count: per_function * catalogue.len(),
            },
            mix: MixSpec::Equal,
            weights: WeightSpec::Uniform,
            window,
        };
        let burst =
            spec.generate_sorted(catalogue, burst_start, &mut rng_times, &mut rng_assign, 0);
        let _ = cores; // cores shapes only the per-node warm-up.

        ClusterScenario {
            burst,
            burst_start,
            burst_window: window,
            warmup_waves,
        }
    }

    /// The warm-up calls one node issues (with ids offset to stay unique
    /// within that node's simulation).
    pub(crate) fn node_warmup(&self, cores: u32, id_base: u64) -> Vec<Call> {
        warmup_calls_for_waves(&self.warmup_waves, cores, id_base)
    }
}

/// Run a cluster experiment on a materialized scenario: every node
/// replays the warm-up waves, then the burst is routed through the window
/// loop of [`crate::coupled`] — static policies by [`LoadBalancer::assign`]
/// in arrival order, feedback policies on the barrier views. The burst is
/// already resident, so no ingestion cap applies. Fault-free, with
/// uniform container weights; see [`crate::run_cluster_source`] for
/// weighted specs, traces and fault plans. Bit-identical across reruns and
/// thread counts.
pub fn run_cluster(
    catalogue: &Catalogue,
    scenario: &ClusterScenario,
    mode: &NodeMode,
    cfg: &ClusterConfig,
    seed: u64,
) -> NodeResult {
    let routing = if cfg.lb.is_feedback() {
        Routing::of(cfg.lb)
    } else {
        Routing::Fixed(cfg.lb.assign(&scenario.burst, cfg.nodes).into_iter())
    };
    let (weights, faults) = (WeightTable::uniform(catalogue.len()), FaultSpec::none());
    // Warm-up ids start above the burst ids so each node's ids are unique.
    let warmup = scenario.node_warmup(cfg.node.cores, scenario.burst.len() as u64);
    let nodes = new_nodes(catalogue, mode, cfg, &weights, &faults, seed, &warmup);
    let arrivals = scenario.burst.iter().copied();
    let threads = rayon::current_num_threads();
    let (results, _) = coupled_engine(nodes, cfg, arrivals, routing, usize::MAX, threads);
    NodeResult::merge(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_core::{Policy, SchedulerConfig};

    fn catalogue() -> Catalogue {
        Catalogue::sebs()
    }

    fn scenario(per_function: usize, seed: u64) -> ClusterScenario {
        ClusterScenario::generate(
            &catalogue(),
            per_function,
            10,
            SimDuration::from_secs(60),
            seed,
        )
    }

    #[test]
    fn burst_size_matches_paper_formula() {
        // 10-core experiment: 1320 requests = 120 per function x 11.
        let sc = scenario(120, 1);
        assert_eq!(sc.burst.len(), 1320);
    }

    #[test]
    fn burst_is_shared_across_node_counts() {
        // The same scenario object is reused for 1-4 nodes; its burst is
        // by construction identical (the paper sends the same sequence).
        let sc = scenario(12, 2);
        let cat = catalogue();
        let cfg1 = ClusterConfig::independent(1, NodeConfig::paper(10), LoadBalancer::RoundRobin);
        let cfg2 = ClusterConfig { nodes: 2, ..cfg1 };
        let mode = NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice));
        let r1 = run_cluster(&cat, &sc, &mode, &cfg1, 3);
        let r2 = run_cluster(&cat, &sc, &mode, &cfg2, 3);
        assert_eq!(
            r1.outcomes.iter().filter(|o| o.is_measured()).count(),
            r2.outcomes.iter().filter(|o| o.is_measured()).count(),
        );
    }

    #[test]
    fn every_measured_call_served_once() {
        let sc = scenario(12, 3);
        let cat = catalogue();
        let cfg = ClusterConfig::independent(3, NodeConfig::paper(10), LoadBalancer::RoundRobin);
        let r = run_cluster(&cat, &sc, &NodeMode::Baseline, &cfg, 4);
        let measured: Vec<_> = r.outcomes.iter().filter(|o| o.is_measured()).collect();
        assert_eq!(measured.len(), sc.burst.len());
        let mut ids: Vec<u64> = measured.iter().map(|o| o.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), sc.burst.len(), "no duplicates");
    }

    #[test]
    fn outcomes_carry_node_indices() {
        let sc = scenario(12, 5);
        let cat = catalogue();
        let cfg = ClusterConfig::independent(4, NodeConfig::paper(10), LoadBalancer::RoundRobin);
        let mode = NodeMode::Scheduled(SchedulerConfig::paper(Policy::Fifo));
        let r = run_cluster(&cat, &sc, &mode, &cfg, 6);
        let nodes: std::collections::BTreeSet<u16> = r
            .outcomes
            .iter()
            .filter(|o| o.is_measured())
            .map(|o| o.node)
            .collect();
        assert_eq!(nodes.len(), 4, "all nodes serve traffic");
    }

    #[test]
    fn more_nodes_reduce_response_time() {
        let sc = scenario(30, 7);
        let cat = catalogue();
        let mode = NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice));
        let avg = |nodes: u16| {
            let cfg =
                ClusterConfig::independent(nodes, NodeConfig::paper(10), LoadBalancer::RoundRobin);
            let r = run_cluster(&cat, &sc, &mode, &cfg, 8);
            let v: Vec<f64> = r
                .outcomes
                .iter()
                .filter(|o| o.is_measured())
                .map(|o| o.response_time().as_secs_f64())
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let one = avg(1);
        let four = avg(4);
        assert!(
            four < one,
            "4 nodes ({four:.1}s) must beat 1 node ({one:.1}s)"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let sc = scenario(12, 9);
        let cat = catalogue();
        let cfg = ClusterConfig::independent(2, NodeConfig::paper(10), LoadBalancer::FunctionHash);
        let a = run_cluster(&cat, &sc, &NodeMode::Baseline, &cfg, 10);
        let b = run_cluster(&cat, &sc, &NodeMode::Baseline, &cfg, 10);
        assert_eq!(a.outcomes, b.outcomes);
    }

    /// FNV-1a over little-endian u64 words (regression pinning).
    fn fnv1a(acc: &mut u64, x: u64) {
        for b in x.to_le_bytes() {
            *acc = (*acc ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    #[test]
    fn cluster_scenarios_are_bit_identical_to_pre_subsystem_generator() {
        // Digests computed from the pre-`faas-workload`-subsystem generator;
        // `ClusterScenario::generate` is now an adapter and must reproduce
        // the original burst, warm-up waves and window bit for bit.
        let cat = catalogue();
        let digests: Vec<u64> = [101u64, 202, 303, 404, 505]
            .iter()
            .map(|&seed| {
                let sc = ClusterScenario::generate(&cat, 120, 10, SimDuration::from_secs(60), seed);
                let mut acc = 0xcbf2_9ce4_8422_2325u64;
                fnv1a(&mut acc, sc.burst_start.as_nanos());
                fnv1a(&mut acc, sc.burst_window.as_nanos());
                for &(func, at) in &sc.warmup_waves {
                    fnv1a(&mut acc, func.0 as u64);
                    fnv1a(&mut acc, at.as_nanos());
                }
                for call in &sc.burst {
                    fnv1a(&mut acc, call.id.0);
                    fnv1a(&mut acc, call.func.0 as u64);
                    fnv1a(&mut acc, call.release.as_nanos());
                }
                acc
            })
            .collect();
        let pinned: Vec<u64> = vec![
            17028776068084473943,
            17273010920469456298,
            16964004179114674755,
            12243102530036631855,
            5828814471167295050,
        ];
        assert_eq!(digests, pinned, "pinned cluster digests");
    }

    #[test]
    fn warmup_ids_do_not_collide_with_burst() {
        let sc = scenario(12, 11);
        let warm = sc.node_warmup(10, sc.burst.len() as u64);
        let burst_max = sc.burst.iter().map(|c| c.id.0).max().unwrap();
        assert!(warm.iter().all(|c| c.id.0 > burst_max));
    }
}
