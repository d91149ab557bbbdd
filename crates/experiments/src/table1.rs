//! Table I reproduction: idle-system function latencies.
//!
//! §V-A: "we benchmarked each function in an idle on-premises setup: we
//! warmed up the corresponding containers, and then we called this function
//! 50 times." We replay exactly that protocol on a simulated idle node and
//! report the 5th percentile, median and 95th percentile of the client-side
//! response time per function.

use crate::grid::mode_for;
use crate::TRACE_CHUNK;
use faas_cluster::{run_cluster_source, ClusterConfig, LoadBalancer};
use faas_invoker::{simulate_calls, NodeConfig};
use faas_metrics::compare::Strategy;
use faas_metrics::table::TextTable;
use faas_simcore::stats::select_percentiles;
use faas_simcore::time::{SimDuration, SimTime};
use faas_workload::faults::FaultSpec;
use faas_workload::sebs::{Catalogue, FunctionSpec};
use faas_workload::trace::{Call, CallId, CallKind, CallOutcome};
use faas_workload::trace_source::WorkloadSource;
use serde::{Deserialize, Serialize};

/// Per-function idle-system latency quantiles (milliseconds).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Row {
    /// Function name.
    pub name: String,
    /// Measured 5th percentile (ms).
    pub p5_ms: f64,
    /// Measured median (ms).
    pub median_ms: f64,
    /// Measured 95th percentile (ms).
    pub p95_ms: f64,
    /// Paper's published 5th percentile (ms).
    pub paper_p5_ms: f64,
    /// Paper's published median (ms).
    pub paper_median_ms: f64,
    /// Paper's published 95th percentile (ms).
    pub paper_p95_ms: f64,
}

/// The full Table I result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Result {
    /// One row per SeBS function, in the paper's (descending median) order.
    pub rows: Vec<Table1Row>,
}

/// Run the idle-system benchmark: 50 sequential calls per warmed function.
pub fn run(seed: u64) -> Table1Result {
    let catalogue = Catalogue::sebs();
    let cfg = NodeConfig::paper(4);
    let mode = mode_for(Strategy::Fifo);

    let mut rows = Vec::with_capacity(catalogue.len());
    for (func, spec) in catalogue.iter() {
        // Warm up one container, then 50 sequential calls spaced far enough
        // apart that the node is always idle (the slowest function takes
        // ~9 s; cleanup at 4 cores adds ~1.2x processing).
        let mut calls = vec![Call {
            id: CallId(0),
            func,
            release: SimTime::ZERO,
            kind: CallKind::Warmup,
        }];
        let spacing = SimDuration::from_secs(30);
        let mut at = SimTime::from_secs(30);
        for i in 0..50u64 {
            calls.push(Call {
                id: CallId(i + 1),
                func,
                release: at,
                kind: CallKind::Measured,
            });
            at += spacing;
        }
        let result = simulate_calls(&catalogue, &calls, &mode, &cfg, seed ^ func.0 as u64, 0);
        rows.push(row(spec, result.measured()));
    }
    Table1Result { rows }
}

/// Per-function latency quantiles over an arbitrary [`WorkloadSource`] —
/// the trace-backed counterpart of [`run`], whose row builder it shares:
/// replay the source on the paper's idle-benchmark node (4 cores, FIFO)
/// and report each called function's client-side response-time quantiles
/// next to the paper's published idle-system numbers. Functions the
/// source never calls are omitted; under real (non-idle) load the
/// measured quantiles include queueing, so they upper-bound the paper's
/// idle columns rather than reproduce them. Errors are
/// [`run_cluster_source`]'s (a recorded trace was read when its spec was
/// loaded).
pub fn run_source(source: &WorkloadSource, seed: u64) -> std::io::Result<Table1Result> {
    let catalogue = Catalogue::sebs();
    let cfg = ClusterConfig::independent(1, NodeConfig::paper(4), LoadBalancer::RoundRobin);
    let result = run_cluster_source(
        &catalogue,
        source,
        &mode_for(Strategy::Fifo),
        &cfg,
        &FaultSpec::none(),
        seed,
        seed ^ 0xC1u64,
        TRACE_CHUNK,
    )?;
    let rows = catalogue
        .iter()
        .filter(|&(func, _)| result.measured().any(|o| o.func == func))
        .map(|(func, spec)| row(spec, result.measured().filter(|o| o.func == func)))
        .collect();
    Ok(Table1Result { rows })
}

/// One function's row from its measured calls.
fn row<'a>(spec: &FunctionSpec, calls: impl Iterator<Item = &'a CallOutcome>) -> Table1Row {
    let resp_ms: Vec<f64> = calls.map(|o| o.response_time().as_millis_f64()).collect();
    let [p5_ms, median_ms, p95_ms] = select_percentiles(resp_ms, [0.05, 0.50, 0.95]);
    Table1Row {
        name: spec.name.to_string(),
        p5_ms,
        median_ms,
        p95_ms,
        paper_p5_ms: spec.client_p5_ms,
        paper_median_ms: spec.client_median_ms,
        paper_p95_ms: spec.client_p95_ms,
    }
}

/// Render the result with paper-vs-measured columns.
pub fn render(result: &Table1Result) -> String {
    let mut t = TextTable::new([
        "function",
        "p5 (paper)",
        "p5 (ours)",
        "median (paper)",
        "median (ours)",
        "p95 (paper)",
        "p95 (ours)",
    ]);
    for r in &result.rows {
        t.row([
            r.name.clone(),
            format!("{:.0} ms", r.paper_p5_ms),
            format!("{:.0} ms", r.p5_ms),
            format!("{:.0} ms", r.paper_median_ms),
            format!("{:.0} ms", r.median_ms),
            format!("{:.0} ms", r.paper_p95_ms),
            format!("{:.0} ms", r.p95_ms),
        ]);
    }
    format!(
        "Table I: idle-system response times (50 warm calls per function)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_track_paper_within_tolerance() {
        let result = run(42);
        assert_eq!(result.rows.len(), 11);
        for row in &result.rows {
            let rel = (row.median_ms - row.paper_median_ms).abs() / row.paper_median_ms;
            assert!(
                rel < 0.15,
                "{}: measured median {:.1} vs paper {:.1}",
                row.name,
                row.median_ms,
                row.paper_median_ms
            );
        }
    }

    #[test]
    fn quantiles_ordered() {
        let result = run(7);
        for row in &result.rows {
            assert!(row.p5_ms <= row.median_ms && row.median_ms <= row.p95_ms);
        }
    }

    #[test]
    fn spec_and_trace_sources_report_called_functions() {
        use faas_workload::arrival::ArrivalSpec;
        use faas_workload::generate::WorkloadSpec;
        use faas_workload::mix::MixSpec;
        use faas_workload::synth::SynthSpec;
        use faas_workload::trace_source::TraceSpec;
        use faas_workload::weight::WeightSpec;
        // An equal-mix spec calls every function: all 11 rows appear with
        // ordered quantiles.
        let spec = WorkloadSource::Spec(WorkloadSpec {
            arrival: ArrivalSpec::Uniform { count: 110 },
            mix: MixSpec::Equal,
            weights: WeightSpec::Uniform,
            window: SimDuration::from_secs(600),
        });
        let r = run_source(&spec, 3).unwrap();
        assert_eq!(r.rows.len(), 11);
        for row in &r.rows {
            assert!(row.p5_ms <= row.median_ms && row.median_ms <= row.p95_ms);
        }
        // A synthetic trace reports exactly the functions it draws — a
        // Zipf tail function may legitimately be absent.
        let trace = WorkloadSource::Trace(TraceSpec::Synthetic(SynthSpec::azure(
            2.0,
            SimDuration::from_secs(60),
        )));
        let r = run_source(&trace, 3).unwrap();
        assert!(!r.rows.is_empty() && r.rows.len() <= 11);
        for row in &r.rows {
            assert!(row.p5_ms <= row.median_ms && row.median_ms <= row.p95_ms);
        }
    }

    #[test]
    fn render_contains_all_functions() {
        let result = run(1);
        let s = render(&result);
        for row in &result.rows {
            assert!(s.contains(&row.name));
        }
    }
}
