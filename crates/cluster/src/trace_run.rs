//! Workload sources through the cluster engine: analytic specs and
//! bounded-memory trace replay.
//!
//! [`run_cluster_source`] runs any [`WorkloadSource`] under any
//! [`ClusterConfig`] on the one window loop of [`crate::coupled`]. A spec
//! source is generated in parallel chunks, sorted and routed; every node
//! first replays the warm-up waves. A trace source is a fixed,
//! release-ordered log addressed by index ([`faas_workload::trace_source`]),
//! which may be a recorded file or a lazily-synthesized 10^8-call day. Its
//! contract — `call(i)` is pure in `(source, index)` and `call(i).id ==
//! CallId(i)` — lets the controller page the log on demand.
//!
//! # Bounded memory
//!
//! A trace is never materialized. The controller reads it through one
//! read-ahead cursor of at most `chunk` calls, and the engine routes at
//! most `chunk` arrivals per window, so a trace replays in bounded memory
//! even at infinite lookahead. The cursor's peak is reported as
//! [`NodeResult::peak_resident_calls`] — the replay RSS proxy, at most
//! `chunk` however long the trace is. (Event-queue pressure is what
//! [`NodeResult::peak_events`] already tracks.)
//!
//! # No warm-up
//!
//! Trace runs inject no warm-up calls: a trace is the complete log of
//! what the cluster received — if the recorded system was warmed, the
//! warming calls are in the log.

use crate::coupled::{coupled_engine, new_nodes, Routing};
use crate::sim::ClusterConfig;
use faas_invoker::{NodeMode, NodeResult};
use faas_simcore::time::SimTime;
use faas_workload::faults::FaultSpec;
use faas_workload::generate::{ShardedGenerator, WorkloadSpec};
use faas_workload::scenario::{warmup_calls_for_waves, warmup_waves};
use faas_workload::sebs::Catalogue;
use faas_workload::trace::Call;
use faas_workload::trace_source::{TraceSource, WorkloadSource};
use faas_workload::weight::WeightTable;
use std::collections::VecDeque;

/// Run any [`WorkloadSource`] under any [`ClusterConfig`]: the entry point
/// the experiment layers call. Spec sources draw their calls from
/// `scenario_seed`; trace sources are opened (synthetic traces start at
/// [`SimTime::ZERO`] and draw from `scenario_seed`) and paged through the
/// `chunk`-call cursor. A window routes at most `chunk` arrivals either
/// way. The only fallible path is opening a recorded trace file.
#[allow(clippy::too_many_arguments)]
pub fn run_cluster_source(
    catalogue: &Catalogue,
    source: &WorkloadSource,
    mode: &NodeMode,
    cfg: &ClusterConfig,
    faults: &FaultSpec,
    scenario_seed: u64,
    sim_seed: u64,
    chunk: usize,
) -> std::io::Result<NodeResult> {
    let seeds = (scenario_seed, sim_seed);
    let threads = rayon::current_num_threads();
    source_nodes(catalogue, source, mode, cfg, faults, seeds, chunk, threads).map(NodeResult::merge)
}

/// Per-node variant of [`run_cluster_source`]: the same run, but each
/// node's [`NodeResult`] is returned separately (index = node id) instead
/// of merged. The resource-utilization experiments need the per-node
/// `served_cpu_secs` / `served_mem_units` split to compute cross-node
/// dominant-share fairness, which a merged result erases. A trace's
/// cursor peak is charged to node 0.
#[allow(clippy::too_many_arguments)]
pub fn run_cluster_source_per_node(
    catalogue: &Catalogue,
    source: &WorkloadSource,
    mode: &NodeMode,
    cfg: &ClusterConfig,
    faults: &FaultSpec,
    scenario_seed: u64,
    sim_seed: u64,
    chunk: usize,
) -> std::io::Result<Vec<NodeResult>> {
    let seeds = (scenario_seed, sim_seed);
    let threads = rayon::current_num_threads();
    source_nodes(catalogue, source, mode, cfg, faults, seeds, chunk, threads)
}

/// Any source on an explicit worker count.
#[allow(clippy::too_many_arguments)]
pub(crate) fn source_nodes(
    catalogue: &Catalogue,
    source: &WorkloadSource,
    mode: &NodeMode,
    cfg: &ClusterConfig,
    faults: &FaultSpec,
    seeds: (u64, u64),
    chunk: usize,
    threads: usize,
) -> std::io::Result<Vec<NodeResult>> {
    Ok(match source {
        WorkloadSource::Spec(spec) => {
            spec_nodes(catalogue, spec, mode, cfg, faults, seeds, chunk, threads)
        }
        WorkloadSource::Trace(tspec) => {
            let trace = tspec.open(catalogue, SimTime::ZERO, seeds.0)?;
            let trace = trace.as_ref();
            trace_nodes(catalogue, trace, mode, cfg, faults, seeds.1, chunk, threads)
        }
    })
}

/// Replay an open trace: [`run_cluster_source`] for a [`TraceSource`] the
/// caller already holds. Bit-identical across reruns and thread counts.
pub fn run_cluster_trace(
    catalogue: &Catalogue,
    trace: &dyn TraceSource,
    mode: &NodeMode,
    cfg: &ClusterConfig,
    faults: &FaultSpec,
    sim_seed: u64,
    chunk: usize,
) -> NodeResult {
    let threads = rayon::current_num_threads();
    NodeResult::merge(trace_nodes(
        catalogue, trace, mode, cfg, faults, sim_seed, chunk, threads,
    ))
}

/// A spec source on an explicit worker count.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spec_nodes(
    catalogue: &Catalogue,
    spec: &WorkloadSpec,
    mode: &NodeMode,
    cfg: &ClusterConfig,
    faults: &FaultSpec,
    (scenario_seed, sim_seed): (u64, u64),
    chunk: usize,
    threads: usize,
) -> Vec<NodeResult> {
    let (waves, burst_start) = warmup_waves(catalogue);
    let generator = ShardedGenerator::new(spec, catalogue, burst_start, scenario_seed);
    let weights = spec.weights.table(catalogue);
    let mut burst = generator.generate_parallel();
    burst.sort_by_key(|c| (c.release, c.id));
    // Warm-up ids start above the burst ids, which are generation indices.
    let warmup = warmup_calls_for_waves(&waves, cfg.node.cores, generator.len());
    let nodes = new_nodes(catalogue, mode, cfg, &weights, faults, sim_seed, &warmup);
    let routing = Routing::of(cfg.lb);
    coupled_engine(nodes, cfg, burst.into_iter(), routing, chunk, threads).0
}

/// A chunked read-ahead cursor over a trace: at most `chunk` calls
/// resident, refilled on demand, tracking its own peak residency.
struct TraceCursor<'a> {
    trace: &'a dyn TraceSource,
    next_index: u64,
    buf: VecDeque<Call>,
    chunk: usize,
    peak_resident: u64,
}

impl Iterator for TraceCursor<'_> {
    type Item = Call;

    /// The next call, refilling the buffer with the next `chunk` calls
    /// once it runs dry.
    fn next(&mut self) -> Option<Call> {
        if self.buf.is_empty() {
            let hi = (self.next_index + self.chunk as u64).min(self.trace.len());
            self.buf.extend(self.trace.iter_chunk(self.next_index, hi));
            self.next_index = hi;
            self.peak_resident = self.peak_resident.max(self.buf.len() as u64);
        }
        self.buf.pop_front()
    }
}

/// A trace replay on an explicit worker count.
#[allow(clippy::too_many_arguments)]
pub(crate) fn trace_nodes(
    catalogue: &Catalogue,
    trace: &dyn TraceSource,
    mode: &NodeMode,
    cfg: &ClusterConfig,
    faults: &FaultSpec,
    sim_seed: u64,
    chunk: usize,
    threads: usize,
) -> Vec<NodeResult> {
    let weights = WeightTable::uniform(catalogue.len());
    let nodes = new_nodes(catalogue, mode, cfg, &weights, faults, sim_seed, &[]);
    let mut cursor = TraceCursor {
        trace,
        next_index: 0,
        buf: VecDeque::with_capacity(chunk.min(trace.len() as usize)),
        chunk,
        peak_resident: 0,
    };
    let routing = Routing::of(cfg.lb);
    let (mut results, _) = coupled_engine(nodes, cfg, &mut cursor, routing, chunk, threads);
    results[0].peak_resident_calls = cursor.peak_resident;
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lb::LoadBalancer;
    use faas_core::{Policy, SchedulerConfig};
    use faas_invoker::NodeConfig;
    use faas_simcore::time::SimDuration;
    use faas_workload::arrival::ArrivalSpec;
    use faas_workload::mix::MixSpec;
    use faas_workload::synth::{SynthSpec, SyntheticTrace};
    use faas_workload::trace_source::TraceSpec;
    use faas_workload::weight::WeightSpec;

    fn catalogue() -> Catalogue {
        Catalogue::sebs()
    }

    fn synth(mean_rate: f64, seed: u64) -> SyntheticTrace {
        SyntheticTrace::new(
            &SynthSpec::azure(mean_rate, SimDuration::from_secs(60)),
            &catalogue(),
            SimTime::ZERO,
            seed,
        )
    }

    fn fair_choice() -> NodeMode {
        NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice))
    }

    fn spec(count: usize) -> WorkloadSpec {
        WorkloadSpec {
            arrival: ArrivalSpec::Uniform { count },
            mix: MixSpec::Equal,
            weights: WeightSpec::Uniform,
            window: SimDuration::from_secs(60),
        }
    }

    /// A spec source on two workers, every burst in one ingestion chunk.
    fn run_spec(
        cat: &Catalogue,
        spec: &WorkloadSpec,
        mode: &NodeMode,
        cfg: &ClusterConfig,
        faults: &FaultSpec,
        seeds: (u64, u64),
    ) -> NodeResult {
        NodeResult::merge(spec_nodes(cat, spec, mode, cfg, faults, seeds, 8192, 2))
    }

    fn node_map(r: &NodeResult) -> Vec<(u64, u16)> {
        let mut v: Vec<(u64, u16)> = r.measured().map(|o| (o.id.0, o.node)).collect();
        v.sort_unstable();
        v
    }

    fn same(a: &NodeResult, b: &NodeResult) {
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.drops, b.drops);
        assert_eq!(a.fault_stats, b.fault_stats);
        assert_eq!(a.peak_events, b.peak_events);
        assert_eq!(a.peak_resident_calls, b.peak_resident_calls);
    }

    #[test]
    fn replay_serves_every_call_once_and_reruns_identically() {
        let cat = catalogue();
        let trace = synth(8.0, 3);
        let cfg = ClusterConfig::independent(3, NodeConfig::paper(10), LoadBalancer::RoundRobin);
        let none = FaultSpec::none();
        let r = run_cluster_trace(&cat, &trace, &fair_choice(), &cfg, &none, 5, 64);
        assert_eq!(
            node_map(&r).len() as u64,
            trace.len(),
            "each call served once"
        );
        assert!(node_map(&r)
            .iter()
            .enumerate()
            .all(|(i, &(id, node))| { id == i as u64 && id % 3 == node as u64 }));
        let again = run_cluster_trace(&cat, &trace, &fair_choice(), &cfg, &none, 5, 64);
        same(&r, &again);
    }

    #[test]
    fn ingestion_windows_do_not_change_the_replay() {
        // A capped window ends just before the next unrouted release, so
        // the outcomes are the same whatever the chunking: one call per
        // window, 64-call windows and the whole trace in one window.
        let cat = catalogue();
        let trace = synth(6.0, 7);
        let mode = NodeMode::Baseline;
        for lb in [LoadBalancer::RoundRobin, LoadBalancer::FunctionHash] {
            let cfg = ClusterConfig::independent(2, NodeConfig::paper(10), lb);
            let run =
                |chunk| run_cluster_trace(&cat, &trace, &mode, &cfg, &FaultSpec::none(), 9, chunk);
            let whole = run(trace.len() as usize);
            assert_eq!(run(1).outcomes, whole.outcomes, "{lb:?}");
            let capped = run(64);
            assert_eq!(capped.outcomes, whole.outcomes, "{lb:?}");
            // The cap keeps most of the trace out of the event queues.
            assert!(capped.peak_events < whole.peak_events, "{lb:?}");
        }
    }

    #[test]
    fn function_hash_replay_follows_the_static_assignment() {
        let cat = catalogue();
        let trace = synth(6.0, 11);
        let lb = LoadBalancer::FunctionHash;
        let cfg = ClusterConfig::independent(3, NodeConfig::paper(10), lb);
        let r = run_cluster_trace(
            &cat,
            &trace,
            &NodeMode::Baseline,
            &cfg,
            &FaultSpec::none(),
            13,
            32,
        );
        let calls: Vec<Call> = trace.iter_chunk(0, trace.len()).collect();
        let assigned: Vec<(u64, u16)> = calls
            .iter()
            .zip(lb.assign(&calls, 3))
            .map(|(c, node)| (c.id.0, node))
            .collect();
        assert_eq!(node_map(&r), assigned);
    }

    #[test]
    fn replay_routes_feedback_policies() {
        let cat = catalogue();
        let trace = synth(8.0, 17);
        let run = |lb: LoadBalancer| {
            let cfg = ClusterConfig::independent(3, NodeConfig::paper(10), lb)
                .coupled(SimDuration::from_millis(500), false);
            run_cluster_trace(
                &cat,
                &trace,
                &fair_choice(),
                &cfg,
                &FaultSpec::none(),
                19,
                64,
            )
        };
        let jsq = run(LoadBalancer::JoinShortestQueue { seed: 1 });
        let rr = run(LoadBalancer::RoundRobin);
        for r in [&jsq, &rr] {
            assert_eq!(r.measured().count() as u64, trace.len());
        }
        assert_ne!(node_map(&jsq), node_map(&rr), "JSQ must route differently");
        let again = run(LoadBalancer::JoinShortestQueue { seed: 1 });
        assert_eq!(jsq.outcomes, again.outcomes);
    }

    #[test]
    fn replay_is_thread_invariant() {
        // Static round-robin at infinite lookahead and JSQ at 500 ms
        // windows: one worker or three, the same run.
        let cat = catalogue();
        let trace = synth(8.0, 0x7A12);
        let node = NodeConfig::paper(10);
        let jsq = LoadBalancer::JoinShortestQueue { seed: 7 };
        for cfg in [
            ClusterConfig::independent(3, node, LoadBalancer::RoundRobin),
            ClusterConfig::independent(3, node, jsq).coupled(SimDuration::from_millis(500), false),
        ] {
            let none = FaultSpec::none();
            let run = |threads| {
                let per_node =
                    trace_nodes(&cat, &trace, &fair_choice(), &cfg, &none, 5, 64, threads);
                NodeResult::merge(per_node)
            };
            let serial = run(1);
            same(&run(3), &serial);
            assert_eq!(serial.outcomes.len() as u64, trace.len());
        }
    }

    #[test]
    fn capped_feedback_windows_conserve_calls_and_are_thread_invariant() {
        // At 40 calls/s a 250 ms window holds ten calls on average, so a
        // 4-call cap cuts windows short while JSQ routes on their views.
        let cat = catalogue();
        let trace = synth(40.0, 0xCA9);
        let chunk = 4;
        let window = SimDuration::from_millis(250);
        let crowded = (0..trace.len() - chunk as u64)
            .any(|i| trace.call(i + chunk as u64).release <= trace.call(i).release + window);
        assert!(crowded, "some window must hold more than `chunk` arrivals");
        let cfg = ClusterConfig::independent(
            3,
            NodeConfig::paper(10),
            LoadBalancer::JoinShortestQueue { seed: 7 },
        )
        .coupled(window, false);
        let none = FaultSpec::none();
        let run = |threads| {
            let per_node =
                trace_nodes(&cat, &trace, &fair_choice(), &cfg, &none, 5, chunk, threads);
            NodeResult::merge(per_node)
        };
        let serial = run(1);
        same(&run(3), &serial);
        assert_eq!(
            node_map(&serial).len() as u64,
            trace.len(),
            "each call served once"
        );
        assert!(serial.peak_resident_calls <= chunk as u64);
    }

    #[test]
    fn peak_resident_calls_is_bounded_by_chunk() {
        // However long the trace, the controller holds at most one chunk.
        let cat = catalogue();
        let cfg = ClusterConfig::independent(3, NodeConfig::paper(10), LoadBalancer::RoundRobin);
        let chunk = 32usize;
        let mut peaks = Vec::new();
        for (rate, lookahead) in [
            (4.0, SimDuration::MAX),
            (16.0, SimDuration::MAX),
            (8.0, SimDuration::from_millis(500)),
        ] {
            let trace = synth(rate, 23);
            let cfg = cfg.coupled(lookahead, false);
            let r = run_cluster_trace(
                &cat,
                &trace,
                &NodeMode::Baseline,
                &cfg,
                &FaultSpec::none(),
                25,
                chunk,
            );
            assert!(r.peak_resident_calls > 0);
            peaks.push(r.peak_resident_calls);
        }
        assert_eq!(
            peaks, [chunk as u64; 3],
            "residency is independent of length"
        );
    }

    #[test]
    fn run_cluster_source_runs_specs_and_traces() {
        let cat = catalogue();
        let cfg = ClusterConfig::independent(2, NodeConfig::paper(10), LoadBalancer::RoundRobin);
        let mode = NodeMode::Baseline;
        let none = FaultSpec::none();
        let via_spec = run_cluster_source(
            &cat,
            &WorkloadSource::Spec(spec(66)),
            &mode,
            &cfg,
            &none,
            1,
            2,
            64,
        )
        .expect("spec source");
        assert_eq!(via_spec.measured().count(), 66);
        assert_eq!(via_spec.peak_resident_calls, 0, "a spec is materialized");

        // Synthetic trace sources replay through the bounded cursor, at
        // infinite and finite lookahead alike.
        let synth_spec = SynthSpec::azure(6.0, SimDuration::from_secs(60));
        let trace = SyntheticTrace::new(&synth_spec, &cat, SimTime::ZERO, 1);
        let source = WorkloadSource::Trace(TraceSpec::Synthetic(synth_spec));
        for cfg in [cfg, cfg.coupled(SimDuration::from_millis(500), false)] {
            let r = run_cluster_source(&cat, &source, &mode, &cfg, &none, 1, 2, 64)
                .expect("synthetic source");
            assert_eq!(r.measured().count() as u64, trace.len());
            assert!(r.peak_resident_calls > 0 && r.peak_resident_calls <= 64);
        }
    }

    #[test]
    fn per_node_results_sum_to_the_merged_entry_point() {
        // The per-node variant is the same run: one result per node, and
        // outcome counts / served work that merge to exactly what the
        // merged entry point reports, dominant routing included.
        let cat = catalogue();
        let mut spec = spec(132);
        spec.weights = WeightSpec::paper_tiers_mem();
        let source = WorkloadSource::Spec(spec);
        let cfg = ClusterConfig::independent(
            3,
            NodeConfig::paper(10).with_mem_bandwidth(8.0),
            LoadBalancer::JoinShortestDominant { seed: 11 },
        )
        .coupled(SimDuration::from_millis(250), false);
        let (mode, none) = (NodeMode::Baseline, FaultSpec::none());
        let per_node = run_cluster_source_per_node(&cat, &source, &mode, &cfg, &none, 5, 6, 64)
            .expect("spec source");
        assert_eq!(per_node.len(), 3, "one result per node");
        let merged =
            run_cluster_source(&cat, &source, &mode, &cfg, &none, 5, 6, 64).expect("spec source");
        assert_eq!(
            per_node.iter().map(|r| r.outcomes.len()).sum::<usize>(),
            merged.outcomes.len(),
            "outcomes partition across nodes"
        );
        let cpu: f64 = per_node.iter().map(|r| r.served_cpu_secs).sum();
        let mem: f64 = per_node.iter().map(|r| r.served_mem_units).sum();
        assert!((cpu - merged.served_cpu_secs).abs() < 1e-9);
        assert!((mem - merged.served_mem_units).abs() < 1e-9);
        assert!(mem > 0.0, "the memory-tiered spec exercises the mem axis");
    }

    #[test]
    fn faulted_replay_conserves_calls_and_fails_over() {
        let cat = catalogue();
        let trace = synth(10.0, 29);
        let n = trace.len();
        let mut faults = FaultSpec::crash_restart(21, SimTime::ZERO, SimDuration::from_secs(60));
        faults.transient_failure = 0.05;
        let cfg = ClusterConfig::independent(3, NodeConfig::paper(10), LoadBalancer::RoundRobin)
            .coupled(SimDuration::from_millis(500), true);
        let r = run_cluster_trace(&cat, &trace, &fair_choice(), &cfg, &faults, 31, 64);
        let measured = r.measured().count() as u64;
        assert_eq!(
            measured + r.drops.len() as u64,
            n,
            "replay call conservation"
        );
        assert_eq!(r.fault_stats.crashes, 1);
        let again = run_cluster_trace(&cat, &trace, &fair_choice(), &cfg, &faults, 31, 64);
        assert_eq!(r.outcomes, again.outcomes);
        assert_eq!(r.fault_stats, again.fault_stats);
    }

    #[test]
    fn spec_round_robin_strides_the_nodes_exactly() {
        let cat = catalogue();
        let cfg = ClusterConfig::independent(3, NodeConfig::paper(10), LoadBalancer::RoundRobin);
        let r = run_spec(
            &cat,
            &spec(132),
            &NodeMode::Baseline,
            &cfg,
            &FaultSpec::none(),
            (1, 2),
        );
        let map = node_map(&r);
        assert_eq!(map.len(), 132, "each call served once");
        // Stride assignment balances nodes exactly (132 = 3 x 44).
        assert!(map
            .iter()
            .enumerate()
            .all(|(i, &(id, node))| id == i as u64 && id % 3 == node as u64));
    }

    #[test]
    fn scenario_seed_changes_workload_sim_seed_does_not() {
        let cat = catalogue();
        let cfg = ClusterConfig::independent(2, NodeConfig::paper(10), LoadBalancer::RoundRobin);
        let releases = |seeds| -> Vec<u64> {
            let r = run_spec(
                &cat,
                &spec(66),
                &NodeMode::Baseline,
                &cfg,
                &FaultSpec::none(),
                seeds,
            );
            let mut v: Vec<u64> = r.measured().map(|o| o.release.as_nanos()).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(
            releases((1, 2)),
            releases((1, 3)),
            "sim seed leaves workload"
        );
        assert_ne!(
            releases((1, 2)),
            releases((9, 2)),
            "scenario seed changes it"
        );
    }

    #[test]
    fn weighted_specs_reach_every_node() {
        // The tiered model includes a 0.5-core cap, which binds even on an
        // uncontended baseline node: the same calls are served, on a
        // different schedule, under both static policies.
        let cat = catalogue();
        let mut tiered = spec(132);
        tiered.weights = WeightSpec::paper_tiers();
        for lb in [LoadBalancer::RoundRobin, LoadBalancer::FunctionHash] {
            let cfg = ClusterConfig::independent(2, NodeConfig::paper(10), lb);
            let none = FaultSpec::none();
            let weighted = run_spec(&cat, &tiered, &NodeMode::Baseline, &cfg, &none, (7, 8));
            let uniform = run_spec(&cat, &spec(132), &NodeMode::Baseline, &cfg, &none, (7, 8));
            assert_ne!(weighted.outcomes, uniform.outcomes, "{lb:?}");
            let ids = |r: &NodeResult| {
                node_map(r)
                    .into_iter()
                    .map(|(id, _)| id)
                    .collect::<Vec<_>>()
            };
            assert_eq!(ids(&weighted), ids(&uniform), "{lb:?}");
            assert_eq!(ids(&weighted).len(), 132);
        }
    }

    #[test]
    fn fault_timelines_are_routing_invariant() {
        // Every node derives its fault timeline from `(faults, node)`
        // alone, so degrading node 1 shows up the same under both static
        // policies (they route different calls, so only the fault
        // accounting is comparable).
        let cat = catalogue();
        let (_, burst_start) = warmup_waves(&cat);
        let faults = FaultSpec::degradation(31, burst_start, SimDuration::from_secs(60));
        let run_with = |lb: LoadBalancer| {
            let cfg = ClusterConfig::independent(2, NodeConfig::paper(10), lb);
            run_spec(
                &cat,
                &spec(132),
                &NodeMode::Baseline,
                &cfg,
                &faults,
                (31, 32),
            )
        };
        let rr = run_with(LoadBalancer::RoundRobin);
        let fh = run_with(LoadBalancer::FunctionHash);
        assert_eq!(
            rr.fault_stats.capacity_events,
            fh.fault_stats.capacity_events
        );
        assert!(rr.fault_stats.capacity_events > 0);
        assert!(rr.drops.is_empty() && fh.drops.is_empty());
    }
}
