//! Coupled-engine trajectory: `experiments bench` → `BENCH_coupled.json`.
//!
//! Times the conservative-window cluster engine against the independent
//! path on the identical workload:
//!
//! * **Overhead**: the §VIII fixed total load on a 4-node cluster under a
//!   static round-robin policy, run through
//!   [`faas_cluster::run_cluster_streamed`] (every node simulated to
//!   completion independently) and through
//!   [`faas_cluster::run_cluster_streamed_coupled`] with a finite
//!   lookahead (lock-step windows on node workers spawned once per run,
//!   one spinning handshake per window). Both produce bit-identical
//!   results — the ratio is the pure price of windowing, and
//!   `experiments check-bench` fails it below
//!   [`crate::bench_schema::COUPLED_SPEEDUP_FLOOR`].
//! * **Feedback**: the same cluster under the strict crash preset routed
//!   by join-shortest-queue with cross-node failover — the workload the
//!   coupled engine exists for, so its wall-clock rides the trajectory
//!   too.
//!
//! The worker-thread count the runs used is recorded alongside so
//! trajectory points from different machines and pool sizes stay
//! comparable.

use faas_cluster::{
    run_cluster_streamed, run_cluster_streamed_coupled, ClusterConfig, LoadBalancer,
};
use faas_invoker::{NodeConfig, NodeMode};
use faas_simcore::time::SimDuration;
use faas_workload::arrival::ArrivalSpec;
use faas_workload::faults::FaultSpec;
use faas_workload::mix::MixSpec;
use faas_workload::scenario::warmup_waves;
use faas_workload::sebs::Catalogue;
use faas_workload::weight::WeightSpec;
use faas_workload::WorkloadSpec;

pub use crate::bench_gps::BenchEntry;

/// Worker count of the benchmark cluster (the acceptance bar asks for the
/// coupled-vs-independent overhead at 4+ nodes).
const NODES: u16 = 4;
/// Cores per node (the paper's node).
const CORES: u32 = 10;
/// Per-core intensity of the fixed total load.
const INTENSITY: u32 = 60;
/// Conservative-window width of the windowed runs.
const LOOKAHEAD: SimDuration = SimDuration::from_millis(250);
const SAMPLES: usize = 5;

/// Run the coupled-engine benchmarks at the standard level.
pub fn run() -> Vec<BenchEntry> {
    run_level(INTENSITY)
}

/// Run the benchmarks at an explicit intensity (the unit test uses a
/// reduced configuration; `experiments bench` the full one).
pub fn run_level(intensity: u32) -> Vec<BenchEntry> {
    let catalogue = Catalogue::sebs();
    let count = catalogue.len() * CORES as usize * intensity as usize / 10;
    let window = SimDuration::from_secs(60);
    let spec = WorkloadSpec {
        arrival: ArrivalSpec::Uniform { count },
        mix: MixSpec::Equal,
        weights: WeightSpec::Uniform,
        window,
    };
    let mode = NodeMode::Baseline;
    let rr = ClusterConfig::independent(NODES, NodeConfig::paper(CORES), LoadBalancer::RoundRobin);
    let rr_windowed = rr.coupled(LOOKAHEAD, false);
    let none = FaultSpec::none();

    let independent = crate::median_ns(SAMPLES, || {
        let r = run_cluster_streamed(&catalogue, &spec, &mode, &rr, 7, 8);
        r.outcomes.len() as f64
    });
    let windowed = crate::median_ns(SAMPLES, || {
        let r = run_cluster_streamed_coupled(&catalogue, &spec, &mode, &rr_windowed, &none, 7, 8);
        r.outcomes.len() as f64
    });

    // The engine's raison d'être: feedback routing + failover under the
    // strict crash preset.
    let (_, burst_start) = warmup_waves(&catalogue);
    let faults = FaultSpec::crash_strict(7, burst_start, window);
    let jsq = ClusterConfig::independent(
        NODES,
        NodeConfig::paper(CORES),
        LoadBalancer::JoinShortestQueue { seed: 7 },
    )
    .coupled(LOOKAHEAD, true);
    let feedback = crate::median_ns(SAMPLES, || {
        let r = run_cluster_streamed_coupled(&catalogue, &spec, &mode, &jsq, &faults, 7, 8);
        r.outcomes.len() as f64
    });

    let mut entries = vec![
        BenchEntry {
            name: format!("coupled_n{NODES}_v{intensity}_independent"),
            value: independent / 1e6,
            unit: "ms/run".into(),
        },
        BenchEntry {
            name: format!("coupled_n{NODES}_v{intensity}_windowed"),
            value: windowed / 1e6,
            unit: "ms/run".into(),
        },
        // Above 1 the windowed engine is faster than the independent
        // path; below 1 its barriers cost that factor. Either way the
        // trajectory shows window overhead drifting.
        BenchEntry {
            name: format!("coupled_n{NODES}_v{intensity}_speedup"),
            value: independent / windowed,
            unit: "x".into(),
        },
        BenchEntry {
            name: format!("coupled_n{NODES}_v{intensity}_jsq_crash"),
            value: feedback / 1e6,
            unit: "ms/run".into(),
        },
    ];
    // The windowed engine splits the nodes over this many workers.
    entries.push(BenchEntry {
        name: "coupled_threads".into(),
        value: crate::bench_gps::used_threads(),
        unit: "count".into(),
    });
    entries
}

/// Human-readable rendering of the entries.
pub fn render(entries: &[BenchEntry]) -> String {
    let mut out =
        String::from("Coupled-engine benchmarks (conservative windows vs independent node runs)\n");
    for e in entries {
        out.push_str(&format!("  {:<44} {:>14.1} {}\n", e.name, e.value, e.unit));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_the_overhead_pair_plus_feedback_and_threads() {
        // Reduced intensity: the shape (names, units, positivity) is what
        // the schema check and dashboards key on.
        let entries = run_level(10);
        assert_eq!(entries.len(), 5);
        for e in &entries {
            assert!(e.value > 0.0, "{} must be positive", e.name);
        }
        assert!(entries
            .iter()
            .any(|e| e.name == "coupled_n4_v10_independent" && e.unit == "ms/run"));
        assert!(entries
            .iter()
            .any(|e| e.name == "coupled_n4_v10_windowed" && e.unit == "ms/run"));
        assert!(entries
            .iter()
            .any(|e| e.name == "coupled_n4_v10_speedup" && e.unit == "x"));
        assert!(entries
            .iter()
            .any(|e| e.name == "coupled_n4_v10_jsq_crash" && e.unit == "ms/run"));
        assert!(entries.iter().any(|e| e.name == "coupled_threads"));
    }

    #[test]
    fn full_level_is_the_acceptance_configuration() {
        // Overhead must be measured at 4+ nodes; const block so the check
        // fires at compile time instead of tripping assertions_on_constants.
        const { assert!(NODES >= 4) };
        assert_eq!(INTENSITY, 60);
    }

    #[test]
    fn bench_emits_a_valid_schema_shape() {
        let entries = run_level(10);
        crate::bench_schema::validate_entries("BENCH_coupled.json", &entries).unwrap();
    }
}
