//! GPS-kernel performance trajectory: `experiments bench`.
//!
//! Times the virtual-time `GpsCpu` against the seed reference integrator on
//! the completion-driven churn workload (the baseline invoker's access
//! pattern) at increasing oversubscription, plus one end-to-end
//! baseline-node run, and writes the numbers as `BENCH_gps.json` in the
//! `{"name", "value", "unit"}` entry style used by continuous-benchmark
//! dashboards (occlum/ngo's `data.js`), so successive PRs accumulate a
//! perf trajectory.

use faas_cpu::bench_support::{churn_params, run_churn};
use faas_cpu::{GpsCpu, ReferenceGpsCpu};
use faas_invoker::{simulate_scenario, NodeConfig, NodeMode};
use faas_workload::scenario::BurstScenario;
use faas_workload::sebs::Catalogue;
use serde::{Deserialize, Serialize};

/// One dashboard data point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchEntry {
    /// Stable metric name (dashboards key on it across commits).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit string, e.g. `"ns/iter"` or `"x"`.
    pub unit: String,
}

/// Concurrency levels benchmarked (n tasks on 10 cores; n >> cores is the
/// paper's stressed baseline regime).
const CHURN_TASKS: [usize; 3] = [16, 64, 512];
const CHURN_COMPLETIONS: usize = 2_000;
const SAMPLES: usize = 7;

/// Run the GPS micro-benchmarks and the end-to-end baseline-node benchmark.
pub fn run() -> Vec<BenchEntry> {
    let mut entries = Vec::new();
    for tasks in CHURN_TASKS {
        let optimized = crate::median_ns(SAMPLES, || {
            let mut kernel = GpsCpu::new(churn_params(10.0));
            run_churn(&mut kernel, tasks, CHURN_COMPLETIONS)
        });
        let reference = crate::median_ns(SAMPLES, || {
            let mut kernel = ReferenceGpsCpu::new(churn_params(10.0));
            run_churn(&mut kernel, tasks, CHURN_COMPLETIONS)
        });
        entries.push(BenchEntry {
            name: format!("gps_churn_n{tasks}_virtual_time"),
            value: optimized,
            unit: "ns/iter".into(),
        });
        entries.push(BenchEntry {
            name: format!("gps_churn_n{tasks}_reference"),
            value: reference,
            unit: "ns/iter".into(),
        });
        entries.push(BenchEntry {
            name: format!("gps_churn_n{tasks}_speedup"),
            value: reference / optimized,
            unit: "x".into(),
        });
    }

    // End-to-end: one baseline-mode node at the top of the intensity grid,
    // where the GPS bank holds hundreds of containers.
    let catalogue = Catalogue::sebs();
    let scenario = BurstScenario::standard(10, 90).generate(&catalogue, 42);
    let node = NodeConfig::paper(10);
    let wall = crate::median_ns(SAMPLES, || {
        let result = simulate_scenario(&catalogue, &scenario, &NodeMode::Baseline, &node, 42);
        result.outcomes.len() as f64
    });
    entries.push(BenchEntry {
        name: "baseline_node_c10_v90_wall".into(),
        value: wall / 1e6,
        unit: "ms/run".into(),
    });
    // The kernels are single-threaded; the host parallelism is recorded so
    // trajectory points stay attributable to their machine shape (and the
    // check-bench schema requires it of every artifact).
    entries.push(BenchEntry {
        name: "gps_threads".into(),
        value: used_threads(),
        unit: "count".into(),
    });
    entries
}

/// The worker-thread count the parallel sections actually use (the pool
/// size, which honours `RAYON_NUM_THREADS`), shared by the bench modules'
/// thread stamp entries.
pub(crate) fn used_threads() -> f64 {
    rayon::current_num_threads() as f64
}

/// Human-readable rendering of the entries.
pub fn render(entries: &[BenchEntry]) -> String {
    let mut out = String::from("GPS kernel benchmarks\n");
    for e in entries {
        out.push_str(&format!("  {:<40} {:>14.1} {}\n", e.name, e.value, e.unit));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_entries_for_every_concurrency_level() {
        // Smoke-check the shape only (timings are environment-dependent).
        let entries = run();
        assert_eq!(entries.len(), CHURN_TASKS.len() * 3 + 2);
        for e in &entries {
            assert!(e.value > 0.0, "{} must be positive", e.name);
        }
        crate::bench_schema::validate_entries("BENCH_gps.json", &entries).unwrap();
    }
}
