//! `experiments sweep`: cross arrival process × function mix × container
//! weights × scheduling policy — the scenario-diversity experiment the
//! workload subsystem unlocks — plus a cluster-size sweep through the
//! streamed multi-node engine.
//!
//! The paper evaluates its policies under exactly one load shape (uniform
//! burst, equal split, uniform containers). The sweep replays the *same*
//! mean load through every combination of the subsystem's axes — uniform /
//! Poisson / MMPP / diurnal arrivals against equal / fairness / Zipf
//! popularity against uniform / tiered / Zipf-correlated container weights
//! — under each strategy, and reports response-time and stretch statistics
//! next to a per-combination sim-health view (calls generated, peak
//! pending queue, peak live event-heap size).
//!
//! The second table fixes the paper's §VIII total load and sweeps the
//! worker count through [`faas_cluster::run_cluster_source`] (static
//! round-robin over the burst's generation indices), crossed with the
//! weighted-container axis.
//!
//! The trace table replays Azure-style synthetic traces — Zipf mean
//! rates, diurnal phase, MMPP bursts, correlated chains — through the
//! cluster engine's bounded-memory trace cursor
//! ([`faas_cluster::run_cluster_source`] over a
//! [`TraceSpec::Synthetic`] source), putting a recorded-workload-shaped
//! scenario column next to the parametric axes and reporting the
//! ingestion working set per combination.
//!
//! The multi-resource table is the DRF-vs-single-resource comparison the
//! PR 10 refactor exists for: the fixed total load under the
//! memory-correlated tier model, routed by backlog- and dominant-share-
//! keyed policies through the per-node coupled entry point, reporting
//! per-resource utilization and the cross-node dominant-share Jain index
//! next to a single-resource (memory-unmodeled) control.
//!
//! Every table is pooled like every other artefact (see the crate docs):
//! its rows are crossed with the seeds, seeds innermost, every run goes
//! through the crate's one parallel fan-out, and row `i` pools the `i`-th
//! chunk of `seeds.len()` records by position, in seed order. The cluster
//! tables run in parallel too, each run nesting the cluster engine's own
//! node workers, as fig6 does.

use crate::grid::mode_for;
use crate::{pooled, Effort, TRACE_CHUNK};
use faas_cluster::{run_cluster_source, run_cluster_source_per_node, ClusterConfig, LoadBalancer};
use faas_invoker::{simulate_calls_faulted, FaultStats, NodeConfig, NodeResult};
use faas_metrics::compare::Strategy;
use faas_metrics::summary::{
    response_times, stretches, FaultCounts, MetricSummary, ResourceSummary, ResourceUsage,
    RobustnessSummary,
};
use faas_metrics::table::{fmt_secs, TextTable};
use faas_simcore::time::{SimDuration, SimTime};
use faas_workload::arrival::ArrivalSpec;
use faas_workload::faults::FaultSpec;
use faas_workload::generate::WorkloadSpec;
use faas_workload::mix::MixSpec;
use faas_workload::scenario::{warmup_waves, Scenario};
use faas_workload::sebs::Catalogue;
use faas_workload::synth::SynthSpec;
use faas_workload::trace::{Call, CallOutcome};
use faas_workload::trace_source::{TraceSpec, WorkloadSource};
use faas_workload::weight::WeightSpec;
use serde::{Deserialize, Serialize};

/// Stream tag for sweep release times.
const STREAM_TIMES: u64 = 0x5EE1;
/// Stream tag for sweep function assignment.
const STREAM_ASSIGN: u64 = 0x5EE2;

/// One (arrival, mix, weights, strategy) combination, pooled over seeds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepRow {
    /// Arrival-process label.
    pub arrival: String,
    /// Function-mix label.
    pub mix: String,
    /// Container-weight-model label.
    pub weights: String,
    /// Scheduling strategy.
    pub strategy: Strategy,
    /// Measured calls pooled over all seeds.
    pub calls: usize,
    /// Response-time statistics, seconds.
    pub response: MetricSummary,
    /// Stretch statistics.
    pub stretch: MetricSummary,
    /// Measured-phase cold starts, summed over seeds.
    pub cold_starts: usize,
    /// Sim health: largest pending-queue length over the seeds.
    pub peak_queue: usize,
    /// Sim health: largest live event-heap size over the seeds.
    pub peak_events: usize,
}

/// One (nodes, weights, strategy) cluster combination at the fixed §VIII
/// total load, pooled over seeds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterSweepRow {
    /// Worker count.
    pub nodes: u16,
    /// Container-weight-model label.
    pub weights: String,
    /// Scheduling strategy.
    pub strategy: Strategy,
    /// Measured calls pooled over all seeds.
    pub calls: usize,
    /// Response-time statistics, seconds.
    pub response: MetricSummary,
    /// Measured-phase cold starts, summed over seeds.
    pub cold_starts: usize,
    /// Sim health: largest live event-heap size over the seeds.
    pub peak_events: usize,
}

/// One (fault scenario, strategy) robustness combination, pooled over
/// seeds: the paper's uniform/equal burst replayed under a seeded fault
/// plan.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultSweepRow {
    /// Fault-scenario label.
    pub scenario: String,
    /// Scheduling strategy.
    pub strategy: Strategy,
    /// Goodput, drop rate, fault counters and the delivered p99.
    pub robustness: RobustnessSummary,
    /// Delivered response-time statistics (goodput latency), seconds.
    pub response: MetricSummary,
}

/// One (load balancer, strategy) row of the coupled robustness table: the
/// §VIII cluster under the strict crash preset, routed by a static or
/// feedback policy through the coupled engine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoupledSweepRow {
    /// Load-balancer label (`static-rr` is the no-feedback control).
    pub lb: String,
    /// Whether cross-node failover was enabled.
    pub failover: bool,
    /// Scheduling strategy.
    pub strategy: Strategy,
    /// Goodput, drop rate, fault counters (including failovers) and the
    /// delivered p99.
    pub robustness: RobustnessSummary,
    /// Delivered response-time statistics, seconds.
    pub response: MetricSummary,
}

/// One (resource configuration, strategy) row of the multi-resource
/// table: the §VIII fixed total load under the memory-correlated tier
/// model, routed by a backlog- or dominant-share-keyed policy, with the
/// per-resource utilization and cross-node dominant-share fairness the
/// DRF refactor makes observable. The `cpu-only` row is the
/// single-resource control (memory axis unmodeled — its utilization must
/// read zero).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResourceSweepRow {
    /// Configuration label (`cpu-only/jsq`, `mem/jsq`, `mem/jsd`).
    pub config: String,
    /// Scheduling strategy.
    pub strategy: Strategy,
    /// Measured calls pooled over all seeds.
    pub calls: usize,
    /// Response-time statistics, seconds.
    pub response: MetricSummary,
    /// Per-resource utilization and dominant-share fairness, pooled over
    /// seeds (served work and horizons summed before dividing).
    pub resource: ResourceSummary,
}

/// One (trace, strategy) row of the trace-replay table: a synthetic
/// Azure-style trace streamed through the bounded-memory trace engine,
/// pooled over seeds (each seed draws its own trace realization).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceSweepRow {
    /// Trace label (from [`SynthSpec::label`]).
    pub trace: String,
    /// Scheduling strategy.
    pub strategy: Strategy,
    /// Measured calls pooled over all seeds.
    pub calls: usize,
    /// Response-time statistics, seconds.
    pub response: MetricSummary,
    /// Cold starts, summed over seeds (traces run without warm-up, so
    /// every call is measured).
    pub cold_starts: usize,
    /// Sim health: largest ingestion working set (resident calls summed
    /// over nodes) of any seed — bounded by chunk × nodes regardless of
    /// trace length.
    pub peak_resident: u64,
    /// Sim health: largest live event-heap size over the seeds.
    pub peak_events: usize,
}

/// The sweep result set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepResult {
    /// Cores per node used by every run.
    pub cores: u32,
    /// Intensity-equivalent load (the mean call count matches the paper's
    /// `1.1 · cores · intensity` burst).
    pub intensity: u32,
    /// All single-node rows, ordered by (arrival, mix, weights, strategy).
    pub rows: Vec<SweepRow>,
    /// Cluster-size rows (streamed generation, fixed total load).
    pub cluster_rows: Vec<ClusterSweepRow>,
    /// Fault-scenario rows (robustness axis), ordered by
    /// (scenario, strategy).
    pub fault_rows: Vec<FaultSweepRow>,
    /// Coupled-engine robustness rows (LB-policy axis under the strict
    /// crash preset), ordered by (lb, strategy).
    pub coupled_rows: Vec<CoupledSweepRow>,
    /// Trace-replay rows (synthetic Azure-style traces through the
    /// streamed trace engine), ordered by (trace, strategy).
    pub trace_rows: Vec<TraceSweepRow>,
    /// Multi-resource rows (DRF vs single-resource control under the
    /// memory-correlated tiers), ordered by (config, strategy).
    pub resource_rows: Vec<ResourceSweepRow>,
}

impl SweepResult {
    /// Look up one single-node row.
    pub fn row(
        &self,
        arrival: &str,
        mix: &str,
        weights: &str,
        strategy: Strategy,
    ) -> Option<&SweepRow> {
        self.rows.iter().find(|r| {
            r.arrival == arrival && r.mix == mix && r.weights == weights && r.strategy == strategy
        })
    }

    /// Look up one cluster row.
    #[cfg(test)]
    pub fn cluster_row(
        &self,
        nodes: u16,
        weights: &str,
        strategy: Strategy,
    ) -> Option<&ClusterSweepRow> {
        self.cluster_rows
            .iter()
            .find(|r| r.nodes == nodes && r.weights == weights && r.strategy == strategy)
    }

    /// Look up one fault-scenario row.
    #[cfg(test)]
    pub fn fault_row(&self, scenario: &str, strategy: Strategy) -> Option<&FaultSweepRow> {
        self.fault_rows
            .iter()
            .find(|r| r.scenario == scenario && r.strategy == strategy)
    }

    /// Look up one coupled-engine robustness row.
    #[cfg(test)]
    pub fn coupled_row(&self, lb: &str, strategy: Strategy) -> Option<&CoupledSweepRow> {
        self.coupled_rows
            .iter()
            .find(|r| r.lb == lb && r.strategy == strategy)
    }

    /// Look up one trace-replay row.
    #[cfg(test)]
    pub fn trace_row(&self, trace: &str, strategy: Strategy) -> Option<&TraceSweepRow> {
        self.trace_rows
            .iter()
            .find(|r| r.trace == trace && r.strategy == strategy)
    }

    /// Look up one multi-resource row.
    #[cfg(test)]
    pub fn resource_row(&self, config: &str, strategy: Strategy) -> Option<&ResourceSweepRow> {
        self.resource_rows
            .iter()
            .find(|r| r.config == config && r.strategy == strategy)
    }
}

/// The arrival axis: same mean load (`count` calls over `window`), four
/// shapes.
fn arrival_axis(count: usize, window: SimDuration, quick: bool) -> Vec<ArrivalSpec> {
    let rate = count as f64 / window.as_secs_f64();
    let mut axis = vec![
        ArrivalSpec::Uniform { count },
        ArrivalSpec::Poisson { rate },
    ];
    if !quick {
        axis.push(ArrivalSpec::Mmpp {
            // On-off bursts averaging `rate`: 1.8x/0.2x with equal 8 s
            // sojourns.
            rate_on: 1.8 * rate,
            rate_off: 0.2 * rate,
            mean_on_secs: 8.0,
            mean_off_secs: 8.0,
        });
        axis.push(ArrivalSpec::day_shape(rate));
    }
    axis
}

/// The mix axis.
fn mix_axis(quick: bool) -> Vec<MixSpec> {
    let mut axis = vec![MixSpec::Equal, MixSpec::Zipf { s: 1.2 }];
    if !quick {
        axis.push(MixSpec::Fairness {
            rare_function: "dna-visualisation".into(),
            rare_calls: 10,
        });
    }
    axis
}

/// The weighted-container axis. The tiered model and its cgroup-lag
/// variant (warm-up cold starts initialise at the default share until the
/// cgroup update lands) ride along even in quick mode so the CI smoke run
/// covers both the weighted GPS path and the per-phase warm-up shares.
fn weight_axis(quick: bool) -> Vec<WeightSpec> {
    let mut axis = vec![
        WeightSpec::Uniform,
        WeightSpec::paper_tiers(),
        WeightSpec::paper_tiers_cgroup_lag(),
    ];
    if !quick {
        axis.push(WeightSpec::ZipfCorrelated { s: 1.0 });
    }
    axis
}

/// The strategy axis: the paper's headline comparison plus the strongest
/// size-based policy.
fn strategy_axis(quick: bool) -> Vec<Strategy> {
    if quick {
        HEADLINE.to_vec()
    } else {
        vec![
            Strategy::Baseline,
            Strategy::Fifo,
            Strategy::Sept,
            Strategy::Fc,
        ]
    }
}

/// Worker counts of the cluster-size sweep.
fn node_axis(quick: bool) -> Vec<u16> {
    if quick {
        vec![1, 2]
    } else {
        vec![1, 2, 4]
    }
}

/// The trace axis: Azure-style synthetic traces (Zipf mean rates,
/// diurnal phase, MMPP bursts, correlated chains) at two cluster-wide
/// mean rates over the §VIII window. The steady rate keeps the
/// [`TRACE_NODES`]-worker cluster comfortably inside capacity; the
/// stressed rate is where scheduling policy starts to matter.
fn trace_axis(window: SimDuration, quick: bool) -> Vec<SynthSpec> {
    let mut axis = vec![SynthSpec::azure(2.0, window)];
    if !quick {
        axis.push(SynthSpec::azure(6.0, window));
    }
    axis
}

/// Worker count of the trace-replay table.
const TRACE_NODES: u16 = 2;

/// Ingestion cap of the spec-sourced cluster runs: above every sweep
/// burst, so a burst at infinite lookahead is one window.
const SPEC_CHUNK: usize = 8192;

/// The paper's headline pair, the strategy axis of every table but the
/// first: the cluster, robustness, trace and multi-resource tables are
/// about scaling and regimes, not the policy grid.
const HEADLINE: [Strategy; 2] = [Strategy::Baseline, Strategy::Fc];

/// Cross a table's keys with its strategies, strategies innermost.
fn cross<K: Copy>(
    keys: impl IntoIterator<Item = K>,
    strategies: &[Strategy],
) -> Vec<(K, Strategy)> {
    keys.into_iter()
        .flat_map(|k| strategies.iter().map(move |&s| (k, s)))
        .collect()
}

/// The paper's burst shape: `count` calls released uniformly over
/// `window`, split equally over the functions, under `weights`.
fn paper_burst(count: usize, weights: WeightSpec, window: SimDuration) -> WorkloadSpec {
    WorkloadSpec {
        arrival: ArrivalSpec::Uniform { count },
        mix: MixSpec::Equal,
        weights,
        window,
    }
}

/// One run of a sweep table: its measured outcomes and counters. A row
/// is reduced from its runs' records.
#[derive(Default)]
struct SeedOut {
    outcomes: Vec<CallOutcome>,
    cold_starts: usize,
    peak_queue: usize,
    peak_events: usize,
    peak_resident: u64,
    /// Measured calls dropped (set by the robustness tables).
    dropped: usize,
    faults: FaultStats,
    /// Served work per node (multi-resource table only).
    usages: Vec<ResourceUsage>,
    /// Latest completion over the nodes, seconds (multi-resource table
    /// only).
    horizon_secs: f64,
}

impl SeedOut {
    fn of(result: &NodeResult) -> Self {
        SeedOut {
            outcomes: result.measured().copied().collect(),
            cold_starts: result.measured_cold_starts(),
            peak_queue: result.peak_queue,
            peak_events: result.peak_events,
            peak_resident: result.peak_resident_calls,
            faults: result.fault_stats,
            ..SeedOut::default()
        }
    }
}

/// The latency and sim-health columns of one row, pooled over its runs:
/// calls and response times concatenated, cold starts summed, peaks
/// maximised.
struct Latency {
    calls: usize,
    response: MetricSummary,
    cold_starts: usize,
    peak_queue: usize,
    peak_events: usize,
    peak_resident: u64,
}

fn latency(runs: &[SeedOut]) -> Latency {
    let resp: Vec<f64> = runs
        .iter()
        .flat_map(|r| &r.outcomes)
        .map(|o| o.response_time().as_secs_f64())
        .collect();
    Latency {
        calls: resp.len(),
        response: MetricSummary::from_values(&resp),
        cold_starts: runs.iter().map(|r| r.cold_starts).sum(),
        peak_queue: runs.iter().map(|r| r.peak_queue).max().unwrap_or(0),
        peak_events: runs.iter().map(|r| r.peak_events).max().unwrap_or(0),
        peak_resident: runs.iter().map(|r| r.peak_resident).max().unwrap_or(0),
    }
}

/// Goodput, drops, fault counters and the delivered response times of
/// one robustness row, pooled over its runs.
fn robustness(runs: &[SeedOut]) -> (RobustnessSummary, MetricSummary) {
    let refs: Vec<&CallOutcome> = runs.iter().flat_map(|r| &r.outcomes).collect();
    let sum = |f: fn(&FaultStats) -> u64| runs.iter().map(|r| f(&r.faults)).sum();
    let counts = FaultCounts {
        retries: sum(|f| f.retries),
        timeouts: sum(|f| f.timeouts),
        transient_failures: sum(|f| f.transient_failures),
        crashes: sum(|f| f.crashes),
        failovers: sum(|f| f.failovers),
    };
    let dropped = runs.iter().map(|r| r.dropped).sum();
    (
        RobustnessSummary::from_outcomes(&refs, dropped, counts),
        MetricSummary::from_values(&response_times(&refs)),
    )
}

/// What every table of one sweep shares.
struct Setup {
    catalogue: Catalogue,
    cores: u32,
    /// Measured calls of the paper-shaped burst: `1.1 · cores ·
    /// intensity`.
    count: usize,
    window: SimDuration,
    effort: Effort,
}

/// Run the sweep.
pub fn run(effort: Effort) -> SweepResult {
    // Both modes keep the paper's 10-core node at an intensity where
    // scheduling matters; the full sweep runs the stressed regime.
    let (cores, intensity) = if effort.quick { (10, 60) } else { (10, 90) };
    let catalogue = Catalogue::sebs();
    let count = catalogue.len() * cores as usize * intensity as usize / 10;
    let s = Setup {
        catalogue,
        cores,
        count,
        window: SimDuration::from_secs(60),
        effort,
    };
    SweepResult {
        cores,
        intensity,
        rows: s.rows(),
        cluster_rows: s.cluster_rows(),
        fault_rows: s.fault_rows(),
        coupled_rows: s.coupled_rows(),
        trace_rows: s.trace_rows(),
        resource_rows: s.resource_rows(),
    }
}

impl Setup {
    /// The node's warm-up waves followed by `spec`'s burst drawn from
    /// `seed` on the sweep's streams, and the first burst call id
    /// (warm-up ids lie below it).
    fn warmed_burst(&self, spec: &WorkloadSpec, seed: u64) -> (Vec<Call>, u64) {
        let tags = [STREAM_TIMES, STREAM_ASSIGN];
        let scenario = Scenario::warmed(&self.catalogue, self.cores, spec, seed, tags);
        (scenario.all_calls(), scenario.warmup.len() as u64)
    }

    /// A `nodes`-worker cluster of the paper's node under `lb`.
    fn cluster(&self, nodes: u16, lb: LoadBalancer) -> ClusterConfig {
        ClusterConfig::independent(nodes, NodeConfig::paper(self.cores), lb)
    }

    /// The single-node table: every (arrival, mix, weights, strategy)
    /// combination at the same mean load, after the warm-up waves.
    fn rows(&self) -> Vec<SweepRow> {
        let quick = self.effort.quick;
        let arrivals = arrival_axis(self.count, self.window, quick);
        let (mixes, weight_specs) = (&mix_axis(quick), &weight_axis(quick));
        let keys = arrivals.iter().flat_map(|a| {
            mixes
                .iter()
                .flat_map(move |m| weight_specs.iter().map(move |w| (a, m, w)))
        });
        let rows = cross(keys, &strategy_axis(quick));
        let catalogue = &self.catalogue;
        pooled(
            &rows,
            self.effort.seed_set(),
            |&((arrival, mix, weights), strategy), seed| {
                let spec = WorkloadSpec {
                    arrival: arrival.clone(),
                    mix: mix.clone(),
                    weights: weights.clone(),
                    window: self.window,
                };
                let (calls, _) = self.warmed_burst(&spec, seed);
                SeedOut::of(&simulate_calls_faulted(
                    catalogue,
                    &calls,
                    &mode_for(strategy),
                    &NodeConfig::paper(self.cores),
                    &spec.weights.table(catalogue),
                    &FaultSpec::none(),
                    seed,
                    0,
                ))
            },
            |&((arrival, mix, weights), strategy), runs| {
                let l = latency(runs);
                let refs: Vec<&CallOutcome> = runs.iter().flat_map(|r| &r.outcomes).collect();
                SweepRow {
                    arrival: arrival.label(),
                    mix: mix.label(),
                    weights: weights.label(),
                    strategy,
                    calls: l.calls,
                    response: l.response,
                    stretch: MetricSummary::from_values(&stretches(&refs, catalogue)),
                    cold_starts: l.cold_starts,
                    peak_queue: l.peak_queue,
                    peak_events: l.peak_events,
                }
            },
        )
    }

    /// The robustness sweep: the paper's uniform/equal burst replayed
    /// under each fault scenario (see [`fault_axis`]) per strategy —
    /// goodput, drop rate, retry cost and the delivered p99 next to the
    /// fault-free control.
    fn fault_rows(&self) -> Vec<FaultSweepRow> {
        let (_, burst_start) = warmup_waves(&self.catalogue);
        let labels: Vec<String> = fault_axis(0, burst_start, self.window)
            .into_iter()
            .map(|(label, _)| label)
            .collect();
        pooled(
            &cross(0..labels.len(), &HEADLINE),
            self.effort.seed_set(),
            |&(scenario, strategy), seed| {
                // The fault draws are seeded per run seed, so pooling over
                // seeds samples fault realizations too.
                let (_, faults) =
                    fault_axis(seed ^ 0xFA17, burst_start, self.window).swap_remove(scenario);
                let spec = paper_burst(self.count, WeightSpec::Uniform, self.window);
                let (calls, id_base) = self.warmed_burst(&spec, seed);
                let result = simulate_calls_faulted(
                    &self.catalogue,
                    &calls,
                    &mode_for(strategy),
                    &NodeConfig::paper(self.cores),
                    &spec.weights.table(&self.catalogue),
                    &faults,
                    seed,
                    0,
                );
                SeedOut {
                    // Measured drops only: burst ids start at `id_base`.
                    dropped: result.drops.iter().filter(|d| d.id.0 >= id_base).count(),
                    ..SeedOut::of(&result)
                }
            },
            |&(scenario, strategy), runs| {
                let (robustness, response) = robustness(runs);
                FaultSweepRow {
                    scenario: labels[scenario].clone(),
                    strategy,
                    robustness,
                    response,
                }
            },
        )
    }

    /// The cluster-size sweep: the paper's fixed-total-load design
    /// (§VIII) under static round-robin, crossed with the weighted axis.
    fn cluster_rows(&self) -> Vec<ClusterSweepRow> {
        let weight_specs = &weight_axis(self.effort.quick);
        let keys = node_axis(self.effort.quick)
            .into_iter()
            .flat_map(|n| weight_specs.iter().map(move |w| (n, w)));
        pooled(
            &cross(keys, &HEADLINE),
            self.effort.seed_set(),
            |&((nodes, weights), strategy), seed| {
                let spec = paper_burst(self.count, weights.clone(), self.window);
                let result = run_cluster_source(
                    &self.catalogue,
                    &WorkloadSource::Spec(spec),
                    &mode_for(strategy),
                    &self.cluster(nodes, LoadBalancer::RoundRobin),
                    &FaultSpec::none(),
                    seed,
                    seed ^ 0xC1u64,
                    SPEC_CHUNK,
                );
                SeedOut::of(&result.expect("spec sources cannot fail"))
            },
            |&((nodes, weights), strategy), runs| {
                let l = latency(runs);
                ClusterSweepRow {
                    nodes,
                    weights: weights.label(),
                    strategy,
                    calls: l.calls,
                    response: l.response,
                    cold_starts: l.cold_starts,
                    peak_events: l.peak_events,
                }
            },
        )
    }

    /// The coupled-engine robustness sweep: the §VIII fixed total load on
    /// [`COUPLED_NODES`] workers under [`FaultSpec::crash_strict`] — node
    /// 0 dies mid-burst while an impatient client times queued calls out
    /// — per LB policy and strategy. Static round-robin keeps committing
    /// calls to the dead node's shard and drops them; the feedback
    /// policies route around the outage and fail killed attempts over,
    /// which is exactly the goodput gap this table exists to show.
    fn coupled_rows(&self) -> Vec<CoupledSweepRow> {
        let (_, burst_start) = warmup_waves(&self.catalogue);
        let axis = coupled_lb_axis(0);
        pooled(
            &cross(0..axis.len(), &HEADLINE),
            self.effort.seed_set(),
            |&(policy, strategy), seed| {
                let (_, lb, failover) = coupled_lb_axis(seed).swap_remove(policy);
                let spec = paper_burst(self.count, WeightSpec::Uniform, self.window);
                let result = run_cluster_source(
                    &self.catalogue,
                    &WorkloadSource::Spec(spec),
                    &mode_for(strategy),
                    &self
                        .cluster(COUPLED_NODES, lb)
                        .coupled(COUPLED_LOOKAHEAD, failover),
                    &FaultSpec::crash_strict(seed ^ 0xFA17, burst_start, self.window),
                    seed,
                    seed ^ 0xC1u64,
                    SPEC_CHUNK,
                )
                .expect("spec sources cannot fail");
                SeedOut {
                    // Measured drops only: burst ids are below `count`
                    // (warmup ids start at the burst length).
                    dropped: result
                        .drops
                        .iter()
                        .filter(|d| (d.id.0 as usize) < self.count)
                        .count(),
                    ..SeedOut::of(&result)
                }
            },
            |&(policy, strategy), runs| {
                let (robustness, response) = robustness(runs);
                CoupledSweepRow {
                    lb: axis[policy].0.clone(),
                    failover: axis[policy].2,
                    strategy,
                    robustness,
                    response,
                }
            },
        )
    }

    /// The trace-replay sweep: each synthetic trace of [`trace_axis`]
    /// replayed through [`run_cluster_source`] on [`TRACE_NODES`]
    /// workers with a [`TRACE_CHUNK`]-call ingestion window, per
    /// strategy. The trace seed is derived per run seed, so pooling over
    /// seeds pools over trace realizations of the same synthesizer spec;
    /// a trace is the complete call log, so no warm-up is injected and
    /// every outcome is measured.
    fn trace_rows(&self) -> Vec<TraceSweepRow> {
        let specs = trace_axis(self.window, self.effort.quick);
        pooled(
            &cross(&specs, &HEADLINE),
            self.effort.seed_set(),
            |&(spec, strategy), seed| {
                let result = run_cluster_source(
                    &self.catalogue,
                    &WorkloadSource::Trace(TraceSpec::Synthetic(spec.clone())),
                    &mode_for(strategy),
                    &self.cluster(TRACE_NODES, LoadBalancer::RoundRobin),
                    &FaultSpec::none(),
                    seed ^ 0x7AC3,
                    seed ^ 0xC1u64,
                    TRACE_CHUNK,
                );
                SeedOut::of(&result.expect("synthetic sources cannot fail"))
            },
            |&(spec, strategy), runs| {
                let l = latency(runs);
                TraceSweepRow {
                    trace: spec.label(),
                    strategy,
                    calls: l.calls,
                    response: l.response,
                    cold_starts: l.cold_starts,
                    peak_resident: l.peak_resident,
                    peak_events: l.peak_events,
                }
            },
        )
    }

    /// The multi-resource sweep: the §VIII fixed total load on
    /// [`RESOURCE_NODES`] workers under the memory-correlated tier model,
    /// per resource configuration (see [`resource_lb_axis`]) and
    /// strategy. Runs through the per-node coupled entry point so each
    /// node's served CPU/memory work is observable, then reduces to
    /// per-resource utilization and the cross-node dominant-share
    /// fairness index: served work and horizons are summed over seeds
    /// before dividing, so the pooled utilization is the work-weighted
    /// mean of the per-seed ones.
    fn resource_rows(&self) -> Vec<ResourceSweepRow> {
        let axis = resource_lb_axis(0);
        pooled(
            &cross(0..axis.len(), &HEADLINE),
            self.effort.seed_set(),
            |&(config, strategy), seed| {
                let (_, lb, mem_modeled) = resource_lb_axis(seed).swap_remove(config);
                let mut cfg = self.cluster(RESOURCE_NODES, lb);
                if mem_modeled {
                    cfg.node = cfg.node.with_mem_bandwidth(RESOURCE_MEM_BW);
                }
                let spec = paper_burst(self.count, WeightSpec::paper_tiers_mem(), self.window);
                let per_node = run_cluster_source_per_node(
                    &self.catalogue,
                    &WorkloadSource::Spec(spec),
                    &mode_for(strategy),
                    &cfg.coupled(COUPLED_LOOKAHEAD, false),
                    &FaultSpec::none(),
                    (seed, seed ^ 0xC1u64),
                    SPEC_CHUNK,
                )
                .expect("spec sources cannot fail");
                let horizon = per_node.iter().map(|r| r.last_completion).max();
                SeedOut {
                    outcomes: per_node
                        .iter()
                        .flat_map(|r| r.measured().copied())
                        .collect(),
                    usages: per_node
                        .iter()
                        .map(|r| ResourceUsage {
                            cpu_secs: r.served_cpu_secs,
                            mem_units: r.served_mem_units,
                        })
                        .collect(),
                    horizon_secs: horizon.expect("at least one node").as_secs_f64(),
                    ..SeedOut::default()
                }
            },
            |&(config, strategy), runs| {
                let mut usages = vec![ResourceUsage::default(); RESOURCE_NODES as usize];
                for run in runs {
                    for (acc, u) in usages.iter_mut().zip(&run.usages) {
                        acc.cpu_secs += u.cpu_secs;
                        acc.mem_units += u.mem_units;
                    }
                }
                let horizon_secs = runs.iter().map(|r| r.horizon_secs).sum();
                let (label, _, mem_modeled) = &axis[config];
                let mem_bandwidth = if *mem_modeled { RESOURCE_MEM_BW } else { 0.0 };
                let l = latency(runs);
                ResourceSweepRow {
                    config: label.clone(),
                    strategy,
                    calls: l.calls,
                    response: l.response,
                    resource: ResourceSummary::from_usages(
                        &usages,
                        self.cores as f64,
                        mem_bandwidth,
                        horizon_secs,
                    ),
                }
            },
        )
    }
}

/// The fault-scenario axis: a fault-free control plus the three seeded
/// presets, anchored to the measured burst window.
fn fault_axis(seed: u64, burst_start: SimTime, window: SimDuration) -> Vec<(String, FaultSpec)> {
    vec![
        ("none".into(), FaultSpec::none()),
        (
            "degrade".into(),
            FaultSpec::degradation(seed, burst_start, window),
        ),
        (
            "crash".into(),
            FaultSpec::crash_restart(seed, burst_start, window),
        ),
        ("retry-storm".into(), FaultSpec::retry_storm(seed)),
    ]
}

/// The LB-policy axis of the coupled robustness table: the static
/// round-robin control (no feedback, no failover — every node as if
/// alone) against the two feedback policies with cross-node
/// failover. LB seeds are derived per run seed so pooling over seeds
/// samples tie-break realizations too.
fn coupled_lb_axis(seed: u64) -> Vec<(String, LoadBalancer, bool)> {
    let lb_seed = seed ^ 0x1BA1;
    vec![
        ("static-rr".into(), LoadBalancer::RoundRobin, false),
        (
            "jsq".into(),
            LoadBalancer::JoinShortestQueue { seed: lb_seed },
            true,
        ),
        (
            "p2c".into(),
            LoadBalancer::PowerOfTwoChoices { seed: lb_seed },
            true,
        ),
    ]
}

/// Conservative-window width of the coupled sweep: a health-poll-scale
/// lookahead, wide enough to amortize barriers, narrow enough that the
/// balancers see a crashed node within a fraction of its outage.
const COUPLED_LOOKAHEAD: SimDuration = SimDuration::from_millis(250);

/// Worker count of the coupled robustness table (the acceptance bar asks
/// for the crash-failover story at 4+ nodes).
const COUPLED_NODES: u16 = 4;

/// The resource-configuration axis of the multi-resource table: a
/// single-resource control (memory unmodeled, backlog-keyed JSQ — the
/// pre-DRF semantics), the same backlog routing with the memory axis
/// modeled, and dominant-share routing on the modeled axis. LB seeds are
/// derived per run seed so pooling over seeds samples tie-break
/// realizations too. The bool marks whether the memory axis is modeled.
fn resource_lb_axis(seed: u64) -> Vec<(String, LoadBalancer, bool)> {
    let lb_seed = seed ^ 0xD2F;
    vec![
        (
            "cpu-only/jsq".into(),
            LoadBalancer::JoinShortestQueue { seed: lb_seed },
            false,
        ),
        (
            "mem/jsq".into(),
            LoadBalancer::JoinShortestQueue { seed: lb_seed },
            true,
        ),
        (
            "mem/jsd".into(),
            LoadBalancer::JoinShortestDominant { seed: lb_seed },
            true,
        ),
    ]
}

/// Worker count of the multi-resource table.
const RESOURCE_NODES: u16 = 4;

/// Per-node memory-bandwidth capacity of the modeled rows, in bandwidth
/// units. Against the 10-core node and [`WeightSpec::paper_tiers_mem`]'s
/// demand profile (the popular 4x tier streams 2 bandwidth units per CPU
/// unit) this makes the memory axis the binding constraint for the
/// big-memory tier, so dominant shares genuinely diverge from backlogs.
const RESOURCE_MEM_BW: f64 = 8.0;

/// Render the sweep comparison tables.
pub fn render(result: &SweepResult) -> String {
    let mut t = TextTable::new([
        "arrival/mix/weights/strategy",
        "calls",
        "R avg",
        "R p50",
        "R p95",
        "S avg",
        "cold",
        "peakQ",
        "peakEv",
    ]);
    for r in &result.rows {
        t.row([
            format!(
                "{}/{}/{}/{}",
                r.arrival,
                r.mix,
                r.weights,
                r.strategy.name()
            ),
            r.calls.to_string(),
            fmt_secs(r.response.mean),
            fmt_secs(r.response.p50),
            fmt_secs(r.response.p95),
            fmt_secs(r.stretch.mean),
            r.cold_starts.to_string(),
            r.peak_queue.to_string(),
            r.peak_events.to_string(),
        ]);
    }
    let mut c = TextTable::new([
        "nodes/weights/strategy",
        "calls",
        "R avg",
        "R p50",
        "R p95",
        "cold",
        "peakEv",
    ]);
    for r in &result.cluster_rows {
        c.row([
            format!("{}/{}/{}", r.nodes, r.weights, r.strategy.name()),
            r.calls.to_string(),
            fmt_secs(r.response.mean),
            fmt_secs(r.response.p50),
            fmt_secs(r.response.p95),
            r.cold_starts.to_string(),
            r.peak_events.to_string(),
        ]);
    }
    let mut f = TextTable::new([
        "scenario/strategy",
        "served",
        "drop",
        "goodput",
        "retries",
        "t/o",
        "crash",
        "R p99",
    ]);
    for r in &result.fault_rows {
        f.row([
            format!("{}/{}", r.scenario, r.strategy.name()),
            r.robustness.delivered.to_string(),
            r.robustness.dropped.to_string(),
            format!("{:.4}", r.robustness.goodput),
            r.robustness.counts.retries.to_string(),
            r.robustness.counts.timeouts.to_string(),
            r.robustness.counts.crashes.to_string(),
            fmt_secs(r.robustness.p99_response),
        ]);
    }
    let mut cp = TextTable::new([
        "lb/strategy",
        "served",
        "drop",
        "goodput",
        "retries",
        "t/o",
        "failover",
        "R p99",
    ]);
    for r in &result.coupled_rows {
        cp.row([
            format!("{}/{}", r.lb, r.strategy.name()),
            r.robustness.delivered.to_string(),
            r.robustness.dropped.to_string(),
            format!("{:.4}", r.robustness.goodput),
            r.robustness.counts.retries.to_string(),
            r.robustness.counts.timeouts.to_string(),
            r.robustness.counts.failovers.to_string(),
            fmt_secs(r.robustness.p99_response),
        ]);
    }
    let mut tr = TextTable::new([
        "trace/strategy",
        "calls",
        "R avg",
        "R p50",
        "R p95",
        "cold",
        "peakRes",
        "peakEv",
    ]);
    for r in &result.trace_rows {
        tr.row([
            format!("{}/{}", r.trace, r.strategy.name()),
            r.calls.to_string(),
            fmt_secs(r.response.mean),
            fmt_secs(r.response.p50),
            fmt_secs(r.response.p95),
            r.cold_starts.to_string(),
            r.peak_resident.to_string(),
            r.peak_events.to_string(),
        ]);
    }
    let mut rs = TextTable::new([
        "config/strategy",
        "calls",
        "R avg",
        "R p95",
        "cpuUtil",
        "memUtil",
        "domMin",
        "domMax",
        "jain",
    ]);
    for r in &result.resource_rows {
        rs.row([
            format!("{}/{}", r.config, r.strategy.name()),
            r.calls.to_string(),
            fmt_secs(r.response.mean),
            fmt_secs(r.response.p95),
            format!("{:.3}", r.resource.cpu_utilization),
            format!("{:.3}", r.resource.mem_utilization),
            format!("{:.3}", r.resource.dominant_min),
            format!("{:.3}", r.resource.dominant_max),
            format!("{:.4}", r.resource.dominant_jain),
        ]);
    }
    format!(
        "Workload sweep: arrival x mix x weights x strategy at {} cores, \
         intensity-equivalent {}\n{}\n\
         Cluster-size sweep (streamed generation, fixed total load)\n{}\n\
         Fault-scenario sweep (robustness axis)\n{}\n\
         Coupled-engine robustness ({} nodes, strict crash preset, \
         lookahead {} ms)\n{}\n\
         Trace-replay sweep ({} nodes, streamed ingestion, chunk {})\n{}\n\
         Multi-resource sweep ({} nodes, mem bandwidth {} units, \
         memory-correlated tiers)\n{}",
        result.cores,
        result.intensity,
        t.render(),
        c.render(),
        f.render(),
        COUPLED_NODES,
        COUPLED_LOOKAHEAD.as_millis_f64(),
        cp.render(),
        TRACE_NODES,
        TRACE_CHUNK,
        tr.render(),
        RESOURCE_NODES,
        RESOURCE_MEM_BW,
        rs.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The quick sweep is shared across tests: it runs 16 node sims plus 8
    /// cluster sims, so compute it once.
    fn quick() -> &'static SweepResult {
        static QUICK: OnceLock<SweepResult> = OnceLock::new();
        QUICK.get_or_init(|| {
            run(Effort {
                seeds: 1,
                quick: true,
            })
        })
    }

    /// Expected row count of each table, derived from the very axis lists
    /// the sweep crosses — adding an arrival shape, LB policy or fault
    /// scenario can't silently desynchronize the tests.
    fn expected_rows(quick: bool) -> usize {
        arrival_axis(1, SimDuration::from_secs(60), quick).len()
            * mix_axis(quick).len()
            * weight_axis(quick).len()
            * strategy_axis(quick).len()
    }

    fn expected_cluster_rows(quick: bool) -> usize {
        // The cluster and robustness tables fix the headline strategy pair.
        node_axis(quick).len() * weight_axis(quick).len() * 2
    }

    fn expected_fault_rows() -> usize {
        fault_axis(0, SimTime::ZERO, SimDuration::from_secs(60)).len() * 2
    }

    fn expected_coupled_rows() -> usize {
        coupled_lb_axis(0).len() * 2
    }

    fn expected_trace_rows(quick: bool) -> usize {
        trace_axis(SimDuration::from_secs(60), quick).len() * 2
    }

    fn expected_resource_rows() -> usize {
        resource_lb_axis(0).len() * 2
    }

    #[test]
    fn quick_sweep_covers_the_reduced_axes() {
        let r = quick();
        assert_eq!(r.rows.len(), expected_rows(true));
        assert!(r
            .row("uniform", "equal", "w-uniform", Strategy::Baseline)
            .is_some());
        assert!(r
            .row("poisson", "zipf1.2", "w-tiers3", Strategy::Fc)
            .is_some());
        assert!(r
            .row("uniform", "equal", "w-tiers3+wu-i1x1", Strategy::Baseline)
            .is_some());
    }

    #[test]
    fn uniform_equal_count_matches_paper_formula() {
        let r = quick();
        let row = r
            .row("uniform", "equal", "w-uniform", Strategy::Fc)
            .unwrap();
        // 10 cores, intensity 60: 1.1 * 10 * 60 = 660 calls, 1 seed.
        assert_eq!(row.calls, 660);
    }

    #[test]
    fn fc_beats_baseline_across_shapes() {
        let r = quick();
        for arrival in ["uniform", "poisson"] {
            let fc = r.row(arrival, "equal", "w-uniform", Strategy::Fc).unwrap();
            let base = r
                .row(arrival, "equal", "w-uniform", Strategy::Baseline)
                .unwrap();
            assert!(
                fc.response.mean <= base.response.mean,
                "{arrival}: FC {} vs baseline {}",
                fc.response.mean,
                base.response.mean
            );
        }
    }

    #[test]
    fn weighted_column_changes_the_baseline_but_not_the_paper_mode() {
        let r = quick();
        // Weights shape the baseline's GPS bank...
        let base_u = r
            .row("uniform", "equal", "w-uniform", Strategy::Baseline)
            .unwrap();
        let base_w = r
            .row("uniform", "equal", "w-tiers3", Strategy::Baseline)
            .unwrap();
        assert!(
            (base_u.response.mean - base_w.response.mean).abs() > 1e-9,
            "tiered weights must move the baseline means"
        );
        // ...and are inert under the paper's one-core-per-container regime.
        let fc_u = r
            .row("uniform", "equal", "w-uniform", Strategy::Fc)
            .unwrap();
        let fc_w = r.row("uniform", "equal", "w-tiers3", Strategy::Fc).unwrap();
        assert_eq!(fc_u.response.mean, fc_w.response.mean);
    }

    #[test]
    fn warmup_phase_column_is_present_and_sane() {
        let r = quick();
        let lagged = r
            .row("uniform", "equal", "w-tiers3+wu-i1x1", Strategy::Baseline)
            .unwrap();
        // The cgroup-lag column carries the full measured load and healthy
        // sim counters, like every other column.
        assert_eq!(lagged.calls, 660);
        assert!(lagged.peak_events > 0);
        // It only diverges from plain tiers through the warm-up phase, and
        // is inert under the paper's one-core-per-container regime.
        let fc_plain = r.row("uniform", "equal", "w-tiers3", Strategy::Fc).unwrap();
        let fc_lagged = r
            .row("uniform", "equal", "w-tiers3+wu-i1x1", Strategy::Fc)
            .unwrap();
        assert_eq!(fc_plain.response.mean, fc_lagged.response.mean);
    }

    #[test]
    fn cluster_sweep_covers_nodes_and_weights() {
        let r = quick();
        assert_eq!(r.cluster_rows.len(), expected_cluster_rows(true));
        for row in &r.cluster_rows {
            assert_eq!(row.calls, 660, "fixed total load on {} nodes", row.nodes);
        }
        let weighted = r.cluster_row(2, "w-tiers3", Strategy::Baseline).unwrap();
        assert!(weighted.peak_events > 0);
        // Fixed total load: two workers beat one for the same strategy.
        let one = r.cluster_row(1, "w-uniform", Strategy::Fc).unwrap();
        let two = r.cluster_row(2, "w-uniform", Strategy::Fc).unwrap();
        assert!(
            two.response.mean <= one.response.mean,
            "2 nodes ({}) must not lose to 1 node ({})",
            two.response.mean,
            one.response.mean
        );
    }

    #[test]
    fn fault_sweep_covers_scenarios_and_controls() {
        let r = quick();
        assert_eq!(r.fault_rows.len(), expected_fault_rows());
        // The fault-free control: full goodput, zero counters.
        for strategy in [Strategy::Baseline, Strategy::Fc] {
            let none = r.fault_row("none", strategy).unwrap();
            assert_eq!(none.robustness.goodput, 1.0);
            assert_eq!(none.robustness.dropped, 0);
            assert_eq!(none.robustness.counts, FaultCounts::default());
            assert_eq!(none.robustness.delivered, 660);
        }
    }

    #[test]
    fn degradation_raises_the_delivered_tail() {
        let r = quick();
        for strategy in [Strategy::Baseline, Strategy::Fc] {
            let none = r.fault_row("none", strategy).unwrap();
            let deg = r.fault_row("degrade", strategy).unwrap();
            assert_eq!(deg.robustness.dropped, 0, "degradation drops nothing");
            assert!(
                deg.robustness.p99_response >= none.robustness.p99_response,
                "{:?}: p99 {} under degradation vs {} clean",
                strategy,
                deg.robustness.p99_response,
                none.robustness.p99_response
            );
        }
    }

    #[test]
    fn crash_and_retry_storm_populate_fault_counters() {
        let r = quick();
        let crash = r.fault_row("crash", Strategy::Fc).unwrap();
        assert_eq!(crash.robustness.counts.crashes, 1, "one crash per seed");
        assert!(crash.robustness.counts.retries > 0);
        let storm = r.fault_row("retry-storm", Strategy::Baseline).unwrap();
        assert!(storm.robustness.counts.transient_failures > 0);
        assert!(storm.robustness.counts.retries > 0);
        assert!(
            storm.robustness.goodput > 0.9,
            "five attempts at 15% failure keep goodput near 1, got {}",
            storm.robustness.goodput
        );
        // Conservation surfaces in the summary arithmetic.
        for row in &r.fault_rows {
            let rb = &row.robustness;
            assert_eq!(rb.delivered + rb.dropped, 660);
            assert!((rb.goodput + rb.drop_rate - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn coupled_table_covers_the_lb_axis_and_conserves_calls() {
        let r = quick();
        assert_eq!(r.coupled_rows.len(), expected_coupled_rows());
        for row in &r.coupled_rows {
            let rb = &row.robustness;
            assert_eq!(
                rb.delivered + rb.dropped,
                660,
                "{}/{:?}: cluster call conservation",
                row.lb,
                row.strategy
            );
            assert_eq!(rb.counts.crashes, 1, "one crash per seed");
        }
        // The control row runs without failover, the feedback rows with.
        assert!(!r.coupled_row("static-rr", Strategy::Fc).unwrap().failover);
        assert!(r.coupled_row("jsq", Strategy::Fc).unwrap().failover);
    }

    #[test]
    fn feedback_routing_beats_static_round_robin_under_the_crash() {
        // The acceptance bar of the coupled engine: with node 0 down and
        // an impatient client, JSQ + failover must deliver measurably more
        // of the offered load than the static control, for both regimes.
        let r = quick();
        for strategy in [Strategy::Baseline, Strategy::Fc] {
            let rr = r.coupled_row("static-rr", strategy).unwrap();
            let jsq = r.coupled_row("jsq", strategy).unwrap();
            assert!(
                rr.robustness.dropped > 0,
                "{strategy:?}: the strict crash preset must hurt static RR"
            );
            assert!(
                jsq.robustness.goodput > rr.robustness.goodput,
                "{strategy:?}: JSQ goodput {} must beat static RR {}",
                jsq.robustness.goodput,
                rr.robustness.goodput
            );
            assert_eq!(
                rr.robustness.counts.failovers, 0,
                "no failover on the control row"
            );
        }
        // Failovers are structural under the queued regime: FairChoice
        // holds calls pending, so strict timeouts with retries left migrate
        // across nodes throughout the run. (Under the baseline's greedy
        // dispatch only in-flight kills at the crash instant migrate, which
        // can legitimately round to zero at light per-node load.)
        let jsq_fc = r.coupled_row("jsq", Strategy::Fc).unwrap();
        assert!(
            jsq_fc.robustness.counts.failovers > 0,
            "timed-out retries must hand off under JSQ/FC"
        );
    }

    #[test]
    fn trace_table_covers_the_axis_with_bounded_ingestion() {
        let r = quick();
        assert_eq!(r.trace_rows.len(), expected_trace_rows(true));
        let labels: Vec<String> = trace_axis(SimDuration::from_secs(60), true)
            .iter()
            .map(|s| s.label())
            .collect();
        for label in &labels {
            let base = r.trace_row(label, Strategy::Baseline).unwrap();
            let fc = r.trace_row(label, Strategy::Fc).unwrap();
            // The same trace feeds both strategies: identical call counts.
            assert_eq!(base.calls, fc.calls, "{label}: shared trace");
            assert!(base.calls > 0, "{label}: trace produced calls");
            for row in [base, fc] {
                assert!(row.peak_events > 0, "{label}: sim health populated");
                // The bounded-memory contract, end to end: the ingestion
                // working set never exceeds chunk × nodes.
                assert!(
                    row.peak_resident > 0
                        && row.peak_resident <= (TRACE_CHUNK * TRACE_NODES as usize) as u64,
                    "{label}: peak resident {} vs bound {}",
                    row.peak_resident,
                    TRACE_CHUNK * TRACE_NODES as usize
                );
            }
        }
    }

    #[test]
    fn resource_table_covers_the_axis_and_models_the_memory_column() {
        let r = quick();
        assert_eq!(r.resource_rows.len(), expected_resource_rows());
        for row in &r.resource_rows {
            // The fixed total load reaches every configuration.
            assert_eq!(row.calls, 660, "{}/{:?}", row.config, row.strategy);
            assert!(
                row.resource.cpu_utilization > 0.0 && row.resource.cpu_utilization <= 1.0,
                "{}: cpu utilization {} in (0, 1]",
                row.config,
                row.resource.cpu_utilization
            );
            assert!(
                row.resource.dominant_min <= row.resource.dominant_max,
                "{}: dominant share ordering",
                row.config
            );
            assert!(
                row.resource.dominant_jain > 0.0 && row.resource.dominant_jain <= 1.0,
                "{}: Jain index {} in (0, 1]",
                row.config,
                row.resource.dominant_jain
            );
        }
        for strategy in [Strategy::Baseline, Strategy::Fc] {
            // The single-resource control: memory axis unmodeled, so its
            // utilization reads zero and the dominant axis is the CPU one.
            let control = r.resource_row("cpu-only/jsq", strategy).unwrap();
            assert_eq!(control.resource.mem_utilization, 0.0);
            // The modeled rows observe genuine bandwidth consumption: the
            // memory-correlated tiers demand it on two of three tiers.
            for config in ["mem/jsq", "mem/jsd"] {
                let row = r.resource_row(config, strategy).unwrap();
                assert!(
                    row.resource.mem_utilization > 0.0,
                    "{config}/{strategy:?}: modeled memory axis must be consumed"
                );
            }
        }
    }

    #[test]
    fn modeling_the_memory_axis_slows_the_bandwidth_hungry_tier() {
        // The single-resource control pretends bandwidth is free; once the
        // axis is modeled the big-memory tier competes for 8 units/node
        // and response times cannot improve.
        let r = quick();
        for strategy in [Strategy::Baseline, Strategy::Fc] {
            let control = r.resource_row("cpu-only/jsq", strategy).unwrap();
            let modeled = r.resource_row("mem/jsq", strategy).unwrap();
            assert!(
                modeled.response.mean >= control.response.mean,
                "{strategy:?}: modeled memory contention ({}) must not beat \
                 the unmodeled control ({})",
                modeled.response.mean,
                control.response.mean
            );
        }
    }

    #[test]
    fn sim_health_is_populated() {
        let r = quick();
        for row in &r.rows {
            assert!(
                row.peak_events > 0,
                "{}/{} peak_events",
                row.arrival,
                row.mix
            );
            assert!(row.calls > 0);
        }
    }

    #[test]
    fn render_contains_health_and_weight_columns() {
        let s = render(quick());
        assert!(s.contains("peakQ") && s.contains("peakEv"));
        assert!(s.contains("uniform/equal/w-uniform/"));
        assert!(s.contains("w-tiers3"), "weighted column rendered");
        assert!(s.contains("Cluster-size sweep"));
        assert!(s.contains("Fault-scenario sweep"));
        assert!(s.contains("goodput") && s.contains("retry-storm/"));
        assert!(s.contains("Coupled-engine robustness"));
        assert!(s.contains("static-rr/") && s.contains("jsq/") && s.contains("failover"));
        assert!(s.contains("Trace-replay sweep"));
        assert!(s.contains("synth(") && s.contains("peakRes"));
        assert!(s.contains("Multi-resource sweep"));
        assert!(s.contains("cpu-only/jsq/") && s.contains("mem/jsd/") && s.contains("jain"));
    }
}
