//! Weighted GPS-kernel trajectory: `experiments bench` →
//! `BENCH_weighted_gps.json`.
//!
//! Times the two-clock general-mode kernel in `GpsCpu` (incremental
//! capped/uncapped partition + per-family completion heaps) against the
//! seed integrator's O(n)-per-event accounting (`ReferenceGpsCpu`) on
//! completion-driven *weighted* churn — every task carrying one of the
//! heterogeneous weight/cap tiers of
//! [`faas_cpu::bench_support::WEIGHTED_CHURN_SIGNATURES`], so the bank
//! never leaves general mode and the capped/uncapped boundary is populated
//! on both sides. Two workloads per task level:
//!
//! * `churn` — the membership-churn loop PR 4 introduced (every event
//!   removes and replaces a task), dominated by the rate refresh;
//! * `probe` — the advance/next_completion-heavy variant
//!   ([`faas_cpu::bench_support::run_weighted_probe_churn`]): several
//!   membership-preserving advance + next-completion probes between
//!   completion events, the regime where the old per-slot `advance` and
//!   full-scan `next_completion` paid O(n) per call and the two-clock
//!   kernel pays O(1)/O(log n) — the end-to-end win of the clock rewrite.
//!
//! The headline configuration is the 10^4-task level; the thread/core
//! count is recorded alongside the speedups so trajectory points from
//! different machines stay comparable.

use faas_cpu::bench_support::{
    run_weighted_churn, run_weighted_probe_churn, weighted_churn_params,
};
use faas_cpu::{GpsCpu, ReferenceGpsCpu};

pub use crate::bench_gps::BenchEntry;

/// Task-count levels; the last is the acceptance-criteria 10^4 workload.
const CHURN_TASKS: [usize; 3] = [100, 1_000, 10_000];
/// Completion events per run (each event is next_completion +
/// finished_tasks + remove + replacement add — the invoker tick pattern).
const CHURN_COMPLETIONS: usize = 1_000;
/// Completion events of the probe workload (each carries
/// [`PROBES_PER_EVENT`] extra advance/next_completion pairs).
const PROBE_COMPLETIONS: usize = 250;
/// Membership-preserving advance/next_completion probes between
/// consecutive completion events of the probe workload.
const PROBES_PER_EVENT: usize = 8;
const SAMPLES: usize = 5;

/// Run the weighted churn benchmarks at the standard levels.
pub fn run() -> Vec<BenchEntry> {
    run_levels(&CHURN_TASKS, CHURN_COMPLETIONS, PROBE_COMPLETIONS)
}

/// Run the weighted churn benchmarks at explicit levels (the unit test
/// uses a reduced configuration; `experiments bench` the full one).
pub fn run_levels(
    task_levels: &[usize],
    completions: usize,
    probe_completions: usize,
) -> Vec<BenchEntry> {
    let mut entries = Vec::new();
    for &tasks in task_levels {
        let params = weighted_churn_params(tasks);
        let incremental = crate::median_ns(SAMPLES, || {
            let mut kernel = GpsCpu::new(params);
            run_weighted_churn(&mut kernel, tasks, completions)
        });
        let reference = crate::median_ns(SAMPLES, || {
            let mut kernel = ReferenceGpsCpu::new(params);
            run_weighted_churn(&mut kernel, tasks, completions)
        });
        entries.push(BenchEntry {
            name: format!("weighted_gps_churn_n{tasks}_incremental"),
            value: incremental,
            unit: "ns/iter".into(),
        });
        entries.push(BenchEntry {
            name: format!("weighted_gps_churn_n{tasks}_reference"),
            value: reference,
            unit: "ns/iter".into(),
        });
        entries.push(BenchEntry {
            name: format!("weighted_gps_churn_n{tasks}_speedup"),
            value: reference / incremental,
            unit: "x".into(),
        });
        let probe_incremental = crate::median_ns(SAMPLES, || {
            let mut kernel = GpsCpu::new(params);
            run_weighted_probe_churn(&mut kernel, tasks, probe_completions, PROBES_PER_EVENT)
        });
        let probe_reference = crate::median_ns(SAMPLES, || {
            let mut kernel = ReferenceGpsCpu::new(params);
            run_weighted_probe_churn(&mut kernel, tasks, probe_completions, PROBES_PER_EVENT)
        });
        entries.push(BenchEntry {
            name: format!("weighted_gps_probe_n{tasks}_incremental"),
            value: probe_incremental,
            unit: "ns/iter".into(),
        });
        entries.push(BenchEntry {
            name: format!("weighted_gps_probe_n{tasks}_reference"),
            value: probe_reference,
            unit: "ns/iter".into(),
        });
        entries.push(BenchEntry {
            name: format!("weighted_gps_probe_n{tasks}_speedup"),
            value: probe_reference / probe_incremental,
            unit: "x".into(),
        });
    }
    // The kernels are single-threaded; the machine's parallelism is
    // recorded so trajectory points are attributable to their host shape.
    entries.push(BenchEntry {
        name: "weighted_gps_threads".into(),
        value: crate::bench_gps::used_threads(),
        unit: "count".into(),
    });
    entries
}

/// Human-readable rendering of the entries.
pub fn render(entries: &[BenchEntry]) -> String {
    let mut out = String::from("Weighted GPS kernel benchmarks (incremental partition vs O(n))\n");
    for e in entries {
        out.push_str(&format!("  {:<44} {:>14.1} {}\n", e.name, e.value, e.unit));
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
        let entries = run_levels(&[50, 200], 100, 40);
        assert_eq!(entries.len(), 2 * 6 + 1);
        for e in &entries {
            assert!(e.value > 0.0, "{} must be positive", e.name);
        }
        assert!(entries.iter().any(|e| e.name == "weighted_gps_threads"));
        assert!(entries
            .iter()
            .any(|e| e.name == "weighted_gps_churn_n200_speedup"));
        assert!(entries
            .iter()
            .any(|e| e.name == "weighted_gps_probe_n200_speedup"));
    }

    #[test]
    fn full_levels_include_the_acceptance_workload() {
        // The standard configuration names the 10^4-task level the
        // acceptance criteria pin (checked without timing it).
        assert!(CHURN_TASKS.contains(&10_000));
    }
}
