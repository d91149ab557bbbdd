//! Integration tests of cluster-level trace replay: ingestion-window
//! invariance, call conservation and the bounded-working-set contract,
//! under both static policies at infinite lookahead. Thread-count
//! invariance is tested inside the crate, where the worker count is an
//! argument rather than process-global state.

use faas_cluster::{run_cluster_trace, ClusterConfig, LoadBalancer};
use faas_core::{Policy, SchedulerConfig};
use faas_invoker::{NodeConfig, NodeMode};
use faas_simcore::time::{SimDuration, SimTime};
use faas_workload::faults::FaultSpec;
use faas_workload::sebs::Catalogue;
use faas_workload::synth::{SynthSpec, SyntheticTrace};
use faas_workload::trace_source::TraceSource;
use proptest::prelude::*;

fn trace(catalogue: &Catalogue, rate: f64, secs: u64, seed: u64) -> SyntheticTrace {
    SyntheticTrace::new(
        &SynthSpec::azure(rate, SimDuration::from_secs(secs)),
        catalogue,
        SimTime::ZERO,
        seed,
    )
}

fn fc_mode() -> NodeMode {
    NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice))
}

proptest! {
    // Each case replays a few hundred calls through a full cluster sim;
    // keep the case count in the tens.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The ingestion window is invisible: any chunk size produces the
    /// same outcomes as routing the whole trace in one window, every call
    /// is served exactly once, and the working set stays within one
    /// chunk.
    #[test]
    fn replay_is_window_invariant_and_conserves_calls(
        seed in any::<u64>(),
        chunk in 1usize..200,
        nodes in 1u16..5,
        hash in any::<bool>()
    ) {
        let cat = Catalogue::sebs();
        let t = trace(&cat, 6.0, 30, seed);
        let lb = if hash { LoadBalancer::FunctionHash } else { LoadBalancer::RoundRobin };
        let cfg = ClusterConfig::independent(nodes, NodeConfig::paper(10), lb);
        let none = FaultSpec::none();
        let windowed = run_cluster_trace(&cat, &t, &fc_mode(), &cfg, &none, 5, chunk);
        let whole = t.len().max(1) as usize;
        let whole = run_cluster_trace(&cat, &t, &fc_mode(), &cfg, &none, 5, whole);
        prop_assert_eq!(&windowed.outcomes, &whole.outcomes);
        let mut ids: Vec<u64> = windowed.outcomes.iter().map(|o| o.id.0).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..t.len()).collect::<Vec<u64>>());
        prop_assert!(
            windowed.peak_resident_calls <= chunk as u64,
            "working set {} vs bound {}",
            windowed.peak_resident_calls,
            chunk
        );
    }
}
