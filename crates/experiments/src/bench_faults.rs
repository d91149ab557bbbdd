//! Dynamic-capacity trajectory: `experiments bench` → `BENCH_faults.json`.
//!
//! Times the fault subsystem's hot path — capacity events landing on a
//! loaded GPS bank — at two layers:
//!
//! * **Kernel**: [`faas_cpu::bench_support::run_capacity_churn`] runs the
//!   weighted completion-driven churn loop with a `set_capacity` resize
//!   every few events (the shape of a degradation ramp). The production
//!   kernel re-anchors its virtual clocks in O(log n) per resize; the
//!   seed integrator re-deplets every task slot, so the pair yields the
//!   usual incremental/reference/speedup trajectory per task level.
//! * **Node**: one full baseline-node simulation under the
//!   [`FaultSpec::degradation`] preset next to the identical fault-free
//!   run — the end-to-end price of fault injection (timeline merge,
//!   per-call fault state, capacity reschedules) on a real scenario.
//!
//! The thread/core count is recorded alongside so trajectory points from
//! different machines stay comparable.

use faas_cpu::bench_support::run_capacity_churn;
use faas_cpu::{GpsCpu, ReferenceGpsCpu};
use faas_invoker::{simulate_calls, simulate_calls_faulted, NodeConfig, NodeMode};
use faas_simcore::time::SimDuration;
use faas_workload::faults::FaultSpec;
use faas_workload::scenario::BurstScenario;
use faas_workload::sebs::Catalogue;
use faas_workload::weight::WeightTable;

pub use crate::bench_gps::BenchEntry;

/// Task-count levels of the kernel workload.
const CHURN_TASKS: [usize; 3] = [100, 1_000, 10_000];
/// Completion events per kernel run.
const CHURN_COMPLETIONS: usize = 1_000;
/// A capacity resize lands every this many completion events.
const RESIZE_EVERY: usize = 4;
/// Node-level workload shape (the paper's 10-core node, stressed burst).
const NODE_CORES: u32 = 10;
const NODE_INTENSITY: u32 = 60;
const SAMPLES: usize = 5;

/// Run the dynamic-capacity benchmarks at the standard levels.
pub fn run() -> Vec<BenchEntry> {
    run_levels(&CHURN_TASKS, CHURN_COMPLETIONS, NODE_INTENSITY)
}

/// Run the benchmarks at explicit levels (the unit test uses a reduced
/// configuration; `experiments bench` the full one).
pub fn run_levels(
    task_levels: &[usize],
    completions: usize,
    node_intensity: u32,
) -> Vec<BenchEntry> {
    let mut entries = Vec::new();
    for &tasks in task_levels {
        let params = faas_cpu::bench_support::weighted_churn_params(tasks);
        let incremental = crate::median_ns(SAMPLES, || {
            let mut kernel = GpsCpu::new(params);
            run_capacity_churn(&mut kernel, tasks, completions, RESIZE_EVERY)
        });
        let reference = crate::median_ns(SAMPLES, || {
            let mut kernel = ReferenceGpsCpu::new(params);
            run_capacity_churn(&mut kernel, tasks, completions, RESIZE_EVERY)
        });
        entries.push(BenchEntry {
            name: format!("faults_capacity_churn_n{tasks}_incremental"),
            value: incremental,
            unit: "ns/iter".into(),
        });
        entries.push(BenchEntry {
            name: format!("faults_capacity_churn_n{tasks}_reference"),
            value: reference,
            unit: "ns/iter".into(),
        });
        entries.push(BenchEntry {
            name: format!("faults_capacity_churn_n{tasks}_speedup"),
            value: reference / incremental,
            unit: "x".into(),
        });
    }

    // End-to-end: the degradation preset against the identical fault-free
    // run on the paper's baseline node.
    let catalogue = Catalogue::sebs();
    let scenario = BurstScenario::standard(NODE_CORES, node_intensity).generate(&catalogue, 42);
    let calls = scenario.all_calls();
    let cfg = NodeConfig::paper(NODE_CORES);
    let weights = WeightTable::uniform(catalogue.len());
    let faults = FaultSpec::degradation(42, scenario.burst_start, SimDuration::from_secs(60));
    let clean = crate::median_ns(SAMPLES, || {
        let r = simulate_calls(&catalogue, &calls, &NodeMode::Baseline, &cfg, 42, 0);
        r.outcomes.len() as f64
    });
    let degraded = crate::median_ns(SAMPLES, || {
        let mode = NodeMode::Baseline;
        let r = simulate_calls_faulted(&catalogue, &calls, &mode, &cfg, &weights, &faults, 42, 0);
        r.outcomes.len() as f64
    });
    entries.push(BenchEntry {
        name: format!("faults_node_c{NODE_CORES}_v{node_intensity}_clean"),
        value: clean / 1e6,
        unit: "ms/run".into(),
    });
    entries.push(BenchEntry {
        name: format!("faults_node_c{NODE_CORES}_v{node_intensity}_degraded"),
        value: degraded / 1e6,
        unit: "ms/run".into(),
    });

    // The workloads are single-threaded; the machine's parallelism is
    // recorded so trajectory points are attributable to their host shape.
    entries.push(BenchEntry {
        name: "faults_threads".into(),
        value: crate::bench_gps::used_threads(),
        unit: "count".into(),
    });
    entries
}

/// Human-readable rendering of the entries.
pub fn render(entries: &[BenchEntry]) -> String {
    let mut out =
        String::from("Dynamic-capacity benchmarks (incremental set_capacity vs O(n) refresh)\n");
    for e in entries {
        out.push_str(&format!("  {:<44} {:>14.1} {}\n", e.name, e.value, e.unit));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_entries_for_every_level_plus_node_pair_and_threads() {
        // Smoke-check the shape on a reduced configuration (timings are
        // environment-dependent and debug builds are slow at 10^4 tasks).
        let entries = run_levels(&[50, 200], 100, 10);
        assert_eq!(entries.len(), 2 * 3 + 2 + 1);
        for e in &entries {
            assert!(e.value > 0.0, "{} must be positive", e.name);
        }
        assert!(entries.iter().any(|e| e.name == "faults_threads"));
        assert!(entries
            .iter()
            .any(|e| e.name == "faults_capacity_churn_n200_speedup" && e.unit == "x"));
        assert!(entries
            .iter()
            .any(|e| e.name == "faults_node_c10_v10_degraded" && e.unit == "ms/run"));
    }

    #[test]
    fn full_levels_include_the_acceptance_workload() {
        assert!(CHURN_TASKS.contains(&10_000));
    }
}
