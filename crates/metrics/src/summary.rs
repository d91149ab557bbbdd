//! Response-time and stretch aggregation (§II of the paper).
//!
//! All times are reported relative to the start of the measured burst
//! window, matching the paper's plots (the warm-up phase happens at negative
//! time, so to speak). Stretch uses each function's median idle-system
//! response time from Table I as the denominator (§V-A), which is why values
//! below 1 are possible.
//!
//! Each value is derived once. [`MetricSummary`] selects only the ranks it
//! reports (p50, p75, p95, p99 and the maximum), through the one selection
//! helper `faas_simcore::stats::select_percentiles`, in expected O(n) and
//! equal bit for bit to sorting the values and interpolating.
//! [`RunSummary::from_outcomes`] reads the outcomes once, filling the
//! response times, the stretches and `max c(i)` in the same traversal, and
//! selects in those vectors without copying them again;
//! [`RobustnessSummary::from_outcomes`] selects only its p99, in the
//! response times it builds. The helpers that compute stretches convert
//! each function's reference to seconds once per call, not per outcome.

use faas_simcore::stats::{mean, select_percentiles};
use faas_simcore::time::SimTime;
use faas_workload::sebs::Catalogue;
use faas_workload::trace::CallOutcome;
use serde::{Deserialize, Serialize};

/// Summary of one metric (seconds for response time, dimensionless for
/// stretch) over the measured calls of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricSummary {
    /// Number of calls aggregated.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// 50th percentile.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl MetricSummary {
    /// Build from raw observations by selection in one copy of them.
    /// Panics on empty input or NaNs.
    pub fn from_values(values: &[f64]) -> MetricSummary {
        MetricSummary::from_vec(values.to_vec())
    }

    /// [`MetricSummary::from_values`] on a buffer the caller has just
    /// built and no longer needs: the mean is taken in input order, then
    /// the selection consumes the buffer.
    fn from_vec(values: Vec<f64>) -> MetricSummary {
        assert!(!values.is_empty(), "summary of empty data");
        let (count, mean) = (values.len(), mean(&values));
        let [p50, p75, p95, p99, max] = select_percentiles(values, [0.50, 0.75, 0.95, 0.99, 1.0]);
        MetricSummary {
            count,
            mean,
            p50,
            p75,
            p95,
            p99,
            max,
        }
    }
}

/// The full per-run summary row, mirroring one line of the paper's
/// Table III/IV: response-time stats, stretch stats, and `max c(i)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Response-time statistics, seconds.
    pub response: MetricSummary,
    /// Stretch statistics.
    pub stretch: MetricSummary,
    /// Completion time of the last measured call, seconds from burst start
    /// (the paper's `max c(i)` column).
    pub max_completion: f64,
}

/// Response times (seconds) of the measured calls.
pub fn response_times(outcomes: &[&CallOutcome]) -> Vec<f64> {
    let mut out = Vec::new();
    response_times_into(outcomes, &mut out);
    out
}

/// Fill `out` (cleared first) with the response times of the measured
/// calls. Grid/sweep loops pass a reused scratch buffer so thousands of
/// runs stop allocating per run.
pub fn response_times_into(outcomes: &[&CallOutcome], out: &mut Vec<f64>) {
    out.clear();
    out.extend(outcomes.iter().map(|o| o.response_time().as_secs_f64()));
}

/// Stretch values of the measured calls, using Table I medians.
pub fn stretches(outcomes: &[&CallOutcome], catalogue: &Catalogue) -> Vec<f64> {
    let mut out = Vec::new();
    stretches_into(outcomes, catalogue, &mut out);
    out
}

/// Fill `out` (cleared first) with the stretch values of the measured
/// calls; the buffer-reusing twin of [`stretches`].
pub fn stretches_into(outcomes: &[&CallOutcome], catalogue: &Catalogue, out: &mut Vec<f64>) {
    let references = reference_secs(catalogue);
    out.clear();
    out.extend(
        outcomes
            .iter()
            .map(|o| o.stretch_secs(references[o.func.index()])),
    );
}

/// Each function's stretch reference in seconds, indexed by `FuncId`:
/// converted once per summary, not once per outcome.
fn reference_secs(catalogue: &Catalogue) -> Vec<f64> {
    catalogue
        .iter()
        .map(|(_, spec)| spec.stretch_reference().as_secs_f64())
        .collect()
}

impl RunSummary {
    /// Summarise the measured calls of a run.
    ///
    /// `burst_start` anchors `max c(i)`; response time and stretch are
    /// anchored to each call's own release time so they need no shifting.
    /// One traversal of `outcomes` fills the response times, the stretches
    /// and `max c(i)`; each metric is then summarised by selection in the
    /// vector just filled, not by sorting.
    pub fn from_outcomes(
        outcomes: &[&CallOutcome],
        catalogue: &Catalogue,
        burst_start: SimTime,
    ) -> RunSummary {
        assert!(!outcomes.is_empty(), "summary of zero calls");
        let references = reference_secs(catalogue);
        let mut resp = Vec::with_capacity(outcomes.len());
        let mut st = Vec::with_capacity(outcomes.len());
        let mut max_completion = 0.0f64;
        for o in outcomes {
            resp.push(o.response_time().as_secs_f64());
            st.push(o.stretch_secs(references[o.func.index()]));
            max_completion =
                max_completion.max(o.completion.saturating_since(burst_start).as_secs_f64());
        }
        RunSummary {
            response: MetricSummary::from_vec(resp),
            stretch: MetricSummary::from_vec(st),
            max_completion,
        }
    }
}

/// Fault counters feeding a [`RobustnessSummary`]. Mirrors the invoker's
/// per-run fault statistics without coupling the metrics crate to it —
/// experiment code copies the fields over.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCounts {
    /// Retry attempts delivered (attempt ≥ 2).
    pub retries: u64,
    /// Attempts abandoned by the pending timeout.
    pub timeouts: u64,
    /// Attempts whose response was lost to a transient failure.
    pub transient_failures: u64,
    /// Node crash events.
    pub crashes: u64,
    /// Retries handed off to another node by the coupled engine's
    /// cross-node failover (zero on independent-engine runs).
    pub failovers: u64,
}

/// Robustness view of one (possibly faulted) run: how much of the offered
/// load was actually served, at what retry cost, and what the delivered
/// tail looked like under the fault plan. All-zero counters and a goodput
/// of 1 on fault-free runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RobustnessSummary {
    /// Measured calls that completed.
    pub delivered: usize,
    /// Measured calls dropped (retries exhausted or timed out).
    pub dropped: usize,
    /// `delivered / (delivered + dropped)`.
    pub goodput: f64,
    /// `dropped / (delivered + dropped)`.
    pub drop_rate: f64,
    /// Fault counters accumulated over the run.
    pub counts: FaultCounts,
    /// 99th-percentile response time of the *delivered* measured calls,
    /// seconds — the paper-style tail metric under degradation.
    pub p99_response: f64,
}

impl RobustnessSummary {
    /// Summarise the delivered measured calls plus the drop/fault
    /// counters of one run. Only the p99 of the response times is
    /// selected, in the vector of response times built here; no other
    /// statistic is computed.
    pub fn from_outcomes(
        outcomes: &[&CallOutcome],
        dropped: usize,
        counts: FaultCounts,
    ) -> RobustnessSummary {
        let delivered = outcomes.len();
        let offered = delivered + dropped;
        assert!(offered > 0, "robustness summary of zero calls");
        let p99_response = if delivered == 0 {
            0.0
        } else {
            let [p99] = select_percentiles(response_times(outcomes), [0.99]);
            p99
        };
        RobustnessSummary {
            delivered,
            dropped,
            goodput: delivered as f64 / offered as f64,
            drop_rate: dropped as f64 / offered as f64,
            counts,
            p99_response,
        }
    }
}

/// Served-resource totals of one node (or any other aggregation unit the
/// caller chooses). Mirrors the invoker's per-run served counters without
/// coupling the metrics crate to it — experiment code copies the fields
/// over, exactly like [`FaultCounts`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ResourceUsage {
    /// CPU work served, core-seconds.
    pub cpu_secs: f64,
    /// Memory-bandwidth work served, bandwidth-unit-seconds. Zero when
    /// the memory axis is unmodeled.
    pub mem_units: f64,
}

/// Multi-resource view of one run: per-resource utilization of the
/// offered capacity, plus the spread of per-node *dominant shares* — each
/// node's busiest axis relative to its capacity, the quantity DRF
/// equalizes. `min`/`max` bound the spread; Jain's fairness index
/// summarizes it (1 when every node carries the same dominant share,
/// `1/n` when one node carries everything).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResourceSummary {
    /// Served CPU work over offered CPU capacity:
    /// `Σ cpu_secs / (nodes × cores × horizon)`.
    pub cpu_utilization: f64,
    /// Served memory-bandwidth work over offered bandwidth capacity;
    /// zero when the memory axis is unmodeled.
    pub mem_utilization: f64,
    /// Smallest per-node dominant share.
    pub dominant_min: f64,
    /// Largest per-node dominant share.
    pub dominant_max: f64,
    /// Jain's fairness index of the per-node dominant shares; 1 when the
    /// whole cluster degenerates to zero served work.
    pub dominant_jain: f64,
}

impl ResourceSummary {
    /// Summarise per-node served totals against a homogeneous cluster:
    /// every node offers `cores` CPU capacity and `mem_bandwidth`
    /// memory-bandwidth capacity (`0.0` = the axis is unmodeled) over
    /// `horizon_secs` of simulated time.
    pub fn from_usages(
        usages: &[ResourceUsage],
        cores: f64,
        mem_bandwidth: f64,
        horizon_secs: f64,
    ) -> ResourceSummary {
        assert!(!usages.is_empty(), "resource summary of zero nodes");
        assert!(
            cores > 0.0 && horizon_secs > 0.0,
            "resource summary needs positive capacity and horizon"
        );
        let n = usages.len() as f64;
        let cpu_total: f64 = usages.iter().map(|u| u.cpu_secs).sum();
        let mem_total: f64 = usages.iter().map(|u| u.mem_units).sum();
        let dominant: Vec<f64> = usages
            .iter()
            .map(|u| {
                let mut share = u.cpu_secs / (cores * horizon_secs);
                if mem_bandwidth > 0.0 {
                    share = share.max(u.mem_units / (mem_bandwidth * horizon_secs));
                }
                share
            })
            .collect();
        let sum: f64 = dominant.iter().sum();
        let sum_sq: f64 = dominant.iter().map(|d| d * d).sum();
        let jain = if sum_sq > 0.0 {
            (sum * sum) / (n * sum_sq)
        } else {
            1.0
        };
        ResourceSummary {
            cpu_utilization: cpu_total / (n * cores * horizon_secs),
            mem_utilization: if mem_bandwidth > 0.0 {
                mem_total / (n * mem_bandwidth * horizon_secs)
            } else {
                0.0
            },
            dominant_min: dominant.iter().copied().fold(f64::INFINITY, f64::min),
            dominant_max: dominant.iter().copied().fold(0.0, f64::max),
            dominant_jain: jain,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_simcore::time::SimDuration;
    use faas_workload::sebs::FuncId;
    use faas_workload::trace::{CallId, CallKind, ColdStartKind};

    fn outcome(func: FuncId, release_s: u64, resp_s: f64) -> CallOutcome {
        let release = SimTime::from_secs(release_s);
        let completion = release + SimDuration::from_secs_f64(resp_s);
        CallOutcome {
            id: CallId(release_s),
            func,
            kind: CallKind::Measured,
            release,
            invoker_receive: release,
            exec_start: release,
            exec_end: completion,
            completion,
            processing: SimDuration::from_secs_f64(resp_s),
            start_kind: ColdStartKind::Warm,
            node: 0,
        }
    }

    fn catalogue() -> Catalogue {
        Catalogue::sebs()
    }

    #[test]
    fn response_summary_basic() {
        let cat = catalogue();
        let outs = [
            outcome(FuncId(0), 10, 1.0),
            outcome(FuncId(0), 11, 3.0),
            outcome(FuncId(0), 12, 2.0),
        ];
        let refs: Vec<&CallOutcome> = outs.iter().collect();
        let s = RunSummary::from_outcomes(&refs, &cat, SimTime::from_secs(10));
        assert_eq!(s.response.count, 3);
        assert!((s.response.mean - 2.0).abs() < 1e-12);
        assert_eq!(s.response.p50, 2.0);
        // Last completion: release 12 + 2.0 = 14, minus burst start 10 = 4.
        assert!((s.max_completion - 4.0).abs() < 1e-12);
    }

    #[test]
    fn stretch_uses_table1_reference() {
        let cat = catalogue();
        let bfs = cat.by_name("graph-bfs").unwrap();
        // graph-bfs reference is 12 ms; a 1.2 s response is stretch 100.
        let outs = [outcome(bfs, 0, 1.2)];
        let refs: Vec<&CallOutcome> = outs.iter().collect();
        let s = RunSummary::from_outcomes(&refs, &cat, SimTime::ZERO);
        assert!((s.stretch.mean - 100.0).abs() < 1e-9);
    }

    #[test]
    fn stretch_below_one_is_possible() {
        let cat = catalogue();
        let dna = cat.by_name("dna-visualisation").unwrap();
        // dna reference 8.552 s; a 6 s response gives stretch < 1 (§V-A).
        let outs = [outcome(dna, 0, 6.0)];
        let refs: Vec<&CallOutcome> = outs.iter().collect();
        let s = RunSummary::from_outcomes(&refs, &cat, SimTime::ZERO);
        assert!(s.stretch.mean < 1.0);
    }

    #[test]
    fn percentiles_are_ordered() {
        let cat = catalogue();
        let outs: Vec<CallOutcome> = (0..100)
            .map(|i| outcome(FuncId(0), i, (i as f64 + 1.0) * 0.1))
            .collect();
        let refs: Vec<&CallOutcome> = outs.iter().collect();
        let s = RunSummary::from_outcomes(&refs, &cat, SimTime::ZERO);
        let r = s.response;
        assert!(r.p50 <= r.p75 && r.p75 <= r.p95 && r.p95 <= r.p99 && r.p99 <= r.max);
    }

    #[test]
    #[should_panic(expected = "statistics input contained NaN")]
    fn metric_summary_rejects_a_lone_nan() {
        MetricSummary::from_values(&[f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "statistics input contained NaN")]
    fn metric_summary_rejects_nan_among_values() {
        MetricSummary::from_values(&[1.0, f64::NAN, 3.0]);
    }

    #[test]
    #[should_panic(expected = "zero calls")]
    fn empty_summary_panics() {
        let cat = catalogue();
        RunSummary::from_outcomes(&[], &cat, SimTime::ZERO);
    }

    #[test]
    fn robustness_summary_fault_free() {
        let outs = [outcome(FuncId(0), 0, 1.0), outcome(FuncId(0), 1, 2.0)];
        let refs: Vec<&CallOutcome> = outs.iter().collect();
        let s = RobustnessSummary::from_outcomes(&refs, 0, FaultCounts::default());
        assert_eq!(s.delivered, 2);
        assert_eq!(s.goodput, 1.0);
        assert_eq!(s.drop_rate, 0.0);
        // p99 interpolates between the two samples, landing just below max.
        assert!(s.p99_response > 1.9 && s.p99_response <= 2.0);
    }

    #[test]
    fn robustness_summary_with_drops() {
        let outs = [outcome(FuncId(0), 0, 1.0); 3];
        let refs: Vec<&CallOutcome> = outs.iter().collect();
        let counts = FaultCounts {
            retries: 5,
            timeouts: 1,
            transient_failures: 2,
            crashes: 1,
            failovers: 3,
        };
        let s = RobustnessSummary::from_outcomes(&refs, 1, counts);
        assert_eq!(s.delivered, 3);
        assert_eq!(s.dropped, 1);
        assert!((s.goodput - 0.75).abs() < 1e-12);
        assert!((s.drop_rate - 0.25).abs() < 1e-12);
        assert_eq!(s.counts, counts);
    }

    #[test]
    fn robustness_summary_total_loss() {
        // Every call dropped: goodput 0, tail undefined → reported as 0.
        let s = RobustnessSummary::from_outcomes(&[], 4, FaultCounts::default());
        assert_eq!(s.goodput, 0.0);
        assert_eq!(s.drop_rate, 1.0);
        assert_eq!(s.p99_response, 0.0);
    }

    #[test]
    #[should_panic(expected = "zero calls")]
    fn robustness_summary_of_nothing_panics() {
        RobustnessSummary::from_outcomes(&[], 0, FaultCounts::default());
    }

    #[test]
    fn resource_summary_equal_nodes_are_perfectly_fair() {
        // Two identical nodes, CPU-dominant: utilization is the per-node
        // share and Jain's index is exactly 1.
        let usages = [ResourceUsage {
            cpu_secs: 40.0,
            mem_units: 5.0,
        }; 2];
        let s = ResourceSummary::from_usages(&usages, 10.0, 2.0, 10.0);
        assert!((s.cpu_utilization - 0.4).abs() < 1e-12);
        assert!((s.mem_utilization - 0.25).abs() < 1e-12);
        // Dominant axis per node: max(40/100, 5/20) = 0.4.
        assert!((s.dominant_min - 0.4).abs() < 1e-12);
        assert!((s.dominant_max - 0.4).abs() < 1e-12);
        assert!((s.dominant_jain - 1.0).abs() < 1e-12);
    }

    #[test]
    fn resource_summary_dominant_axis_can_be_memory() {
        // One node's memory axis dominates its CPU axis: the dominant
        // share must pick it up, and the skew shows in Jain < 1.
        let usages = [
            ResourceUsage {
                cpu_secs: 10.0,
                mem_units: 18.0,
            },
            ResourceUsage {
                cpu_secs: 10.0,
                mem_units: 2.0,
            },
        ];
        let s = ResourceSummary::from_usages(&usages, 10.0, 2.0, 10.0);
        // Node 0: max(0.1, 0.9) = 0.9; node 1: max(0.1, 0.1) = 0.1.
        assert!((s.dominant_max - 0.9).abs() < 1e-12);
        assert!((s.dominant_min - 0.1).abs() < 1e-12);
        assert!(s.dominant_jain < 0.7, "skew must lower Jain's index");
    }

    #[test]
    fn resource_summary_unmodeled_memory_axis_reads_zero() {
        // mem_bandwidth 0.0 = unmodeled: memory never contributes, even
        // with nonzero served mem units recorded.
        let usages = [ResourceUsage {
            cpu_secs: 30.0,
            mem_units: 99.0,
        }];
        let s = ResourceSummary::from_usages(&usages, 10.0, 0.0, 10.0);
        assert_eq!(s.mem_utilization, 0.0);
        assert!((s.dominant_max - 0.3).abs() < 1e-12);
    }

    #[test]
    fn resource_summary_idle_cluster_is_fair() {
        let usages = [ResourceUsage::default(); 3];
        let s = ResourceSummary::from_usages(&usages, 10.0, 2.0, 10.0);
        assert_eq!(s.cpu_utilization, 0.0);
        assert_eq!(s.dominant_jain, 1.0);
    }

    #[test]
    #[should_panic(expected = "zero nodes")]
    fn resource_summary_of_nothing_panics() {
        ResourceSummary::from_usages(&[], 10.0, 2.0, 10.0);
    }
}
