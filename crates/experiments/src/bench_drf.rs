//! DRF GPS-kernel trajectory: `experiments bench` → `BENCH_drf.json`.
//!
//! Times the multi-resource dominant-share kernel in `GpsCpu` (incremental
//! DRF partition: per-axis water levels maintained across membership
//! churn) against the seed integrator's O(n)-per-event re-derivation
//! (`ReferenceGpsCpu`) on completion-driven *multi-resource* churn — every
//! task carrying one of the [`faas_cpu::bench_support::DRF_CHURN_SIGNATURES`]
//! demand vectors, with a finite memory-bandwidth capacity installed so
//! both resource axes genuinely compete for the binding constraint and
//! the dominant axis flips as the pool churns.
//!
//! The headline configuration is the 10^4-task level — the acceptance
//! workload where the incremental partition must beat the O(n) reference
//! re-derivation. The thread/core count is recorded alongside the
//! speedups so trajectory points from different machines stay comparable.

use faas_cpu::bench_support::{run_drf_churn, weighted_churn_params};
use faas_cpu::{GpsCpu, ReferenceGpsCpu};

pub use crate::bench_gps::BenchEntry;

/// Task-count levels; the last is the acceptance-criteria 10^4 workload.
const CHURN_TASKS: [usize; 3] = [100, 1_000, 10_000];
/// Completion events per run (each event is next_completion +
/// finished_tasks + remove + replacement add — the invoker tick pattern).
const CHURN_COMPLETIONS: usize = 1_000;
const SAMPLES: usize = 5;

/// Run the DRF churn benchmarks at the standard levels.
pub fn run() -> Vec<BenchEntry> {
    run_levels(&CHURN_TASKS, CHURN_COMPLETIONS)
}

/// Run the DRF churn benchmarks at explicit levels (the unit test uses a
/// reduced configuration; `experiments bench` the full one).
pub fn run_levels(task_levels: &[usize], completions: usize) -> Vec<BenchEntry> {
    let mut entries = Vec::new();
    for &tasks in task_levels {
        let params = weighted_churn_params(tasks);
        let incremental = crate::median_ns(SAMPLES, || {
            let mut kernel = GpsCpu::new(params);
            run_drf_churn(&mut kernel, tasks, completions)
        });
        let reference = crate::median_ns(SAMPLES, || {
            let mut kernel = ReferenceGpsCpu::new(params);
            run_drf_churn(&mut kernel, tasks, completions)
        });
        entries.push(BenchEntry {
            name: format!("drf_gps_churn_n{tasks}_incremental"),
            value: incremental,
            unit: "ns/iter".into(),
        });
        entries.push(BenchEntry {
            name: format!("drf_gps_churn_n{tasks}_reference"),
            value: reference,
            unit: "ns/iter".into(),
        });
        entries.push(BenchEntry {
            name: format!("drf_gps_churn_n{tasks}_speedup"),
            value: reference / incremental,
            unit: "x".into(),
        });
    }
    // The kernels are single-threaded; the machine's parallelism is
    // recorded so trajectory points are attributable to their host shape.
    entries.push(BenchEntry {
        name: "drf_gps_threads".into(),
        value: crate::bench_gps::used_threads(),
        unit: "count".into(),
    });
    entries
}

/// Human-readable rendering of the entries.
pub fn render(entries: &[BenchEntry]) -> String {
    let mut out = String::from("DRF GPS kernel benchmarks (incremental dominant-share vs O(n))\n");
    for e in entries {
        out.push_str(&format!("  {:<40} {:>14.1} {}\n", e.name, e.value, e.unit));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_entries_for_every_level_plus_thread_count() {
        // Smoke-check the shape on a reduced configuration (timings are
        // environment-dependent and debug builds are slow at 10^4 tasks).
        let entries = run_levels(&[50, 200], 100);
        assert_eq!(entries.len(), 2 * 3 + 1);
        for e in &entries {
            assert!(e.value > 0.0, "{} must be positive", e.name);
        }
        assert!(entries.iter().any(|e| e.name == "drf_gps_threads"));
        assert!(entries
            .iter()
            .any(|e| e.name == "drf_gps_churn_n200_speedup"));
    }

    #[test]
    fn full_levels_include_the_acceptance_workload() {
        // The standard configuration names the 10^4-task level the
        // acceptance criteria pin (checked without timing it).
        assert!(CHURN_TASKS.contains(&10_000));
    }
}
