//! Bounded-memory trace-replay cluster engines.
//!
//! The streamed engines of [`crate::sim`] and [`crate::coupled`] pull a
//! *generator* — calls that are cheap to rematerialize anywhere. These
//! engines pull a [`TraceSource`]: a fixed, release-ordered log addressed
//! by index ([`faas_workload::trace_source`]), which may be a recorded
//! file or a lazily-synthesized 10^8-call day. The contract they exploit
//! is the same in both cases: `call(i)` is pure in `(source, index)` and
//! `call(i).id == CallId(i)`, so any node can page any slice of the log
//! on demand.
//!
//! # Bounded memory
//!
//! No engine here ever materializes the trace. Ingestion runs through
//! windowed cursors: a node fills a buffer of at most `chunk` calls,
//! injects it, drains its simulator up to (just before) the next window's
//! first release, and refills. The largest number of calls resident in
//! these ingestion buffers is reported as
//! [`NodeResult::peak_resident_calls`] — the replay RSS proxy, bounded by
//! `chunk × nodes` however long the trace is. (Event-queue pressure is
//! what [`NodeResult::peak_events`] already tracks.)
//!
//! # No warm-up
//!
//! Trace runs inject no warm-up calls: a trace is the complete log of
//! what the cluster received — if the recorded system was warmed, the
//! warming calls are in the log.
//!
//! # Engine selection
//!
//! [`run_cluster_trace_streamed`] is the independent-node engine (static
//! policies only): round-robin strides the index space exactly as
//! [`crate::sim::run_cluster_streamed`] does, and function-hash has each
//! node replay the per-function rotation counters over a sequential scan
//! (an `O(len)` scan per node, the price of a routing that needs global
//! arrival order without materializing it). [`run_cluster_trace_coupled`]
//! serves feedback policies, finite lookahead and cross-node failover: it
//! feeds the one window loop of [`crate::coupled`] from a chunked
//! read-ahead cursor instead of a slice. [`run_cluster_source`] dispatches: any
//! [`WorkloadSource`] × any [`ClusterConfig`] lands on the right engine.

use crate::coupled::{coupled_engine, new_nodes, Routing};
use crate::lb::{hash_rotation, LoadBalancer};
use crate::sim::{node_seeds, ClusterConfig};
use faas_invoker::{NodeMode, NodeResult, NodeSim};
use faas_simcore::time::{SimDuration, SimTime};
use faas_workload::faults::FaultSpec;
use faas_workload::sebs::{Catalogue, FuncId};
use faas_workload::trace::Call;
use faas_workload::trace_source::{TraceSource, WorkloadSource};
use faas_workload::weight::WeightTable;
use rayon::prelude::*;
use std::collections::{BTreeMap, VecDeque};

/// One nanosecond before `t` (clamped at zero): the drain horizon between
/// ingestion windows. Draining to *just before* the next injected release
/// keeps every event at that release in the queue together, so windowing
/// never reorders same-timestamp work relative to a materialized run.
fn just_before(t: SimTime) -> SimTime {
    SimTime::from_nanos(t.as_nanos().saturating_sub(1))
}

/// Replay a trace on independent nodes (static load balancing only; the
/// feedback policies panic — route them through
/// [`run_cluster_trace_coupled`]). Each node pages its own share of the
/// log through a `chunk`-call ingestion window; see the module docs for
/// the memory bound. Bit-identical across reruns and thread counts.
pub fn run_cluster_trace_streamed(
    catalogue: &Catalogue,
    trace: &dyn TraceSource,
    mode: &NodeMode,
    cfg: &ClusterConfig,
    faults: &FaultSpec,
    sim_seed: u64,
    chunk: usize,
) -> NodeResult {
    assert!(cfg.nodes > 0, "cluster needs at least one node");
    assert!(chunk > 0, "ingestion window must hold at least one call");
    let weights = WeightTable::uniform(catalogue.len());
    let seeds = node_seeds(sim_seed, cfg.nodes);
    let n = trace.len();

    match cfg.lb {
        LoadBalancer::RoundRobin => {
            // A call's id is its index, so its stride node is its
            // round-robin assignment: node k pages every `nodes`-th call.
            let results: Vec<NodeResult> = seeds
                .par_iter()
                .map(|&(node, node_seed)| {
                    let mut sim = NodeSim::new(
                        catalogue, mode, &cfg.node, &weights, faults, node_seed, node, false,
                    );
                    let mut buf: Vec<Call> = Vec::with_capacity(chunk.min(n as usize));
                    let mut peak = 0u64;
                    let mut next = node as u64;
                    while next < n {
                        buf.clear();
                        while buf.len() < chunk && next < n {
                            buf.push(trace.call(next));
                            next += cfg.nodes as u64;
                        }
                        peak = peak.max(buf.len() as u64);
                        sim.inject(&buf);
                        if next < n {
                            sim.advance_to(just_before(trace.call(next).release));
                        }
                    }
                    sim.advance_to(SimTime::MAX);
                    let mut r = sim.finish();
                    r.peak_resident_calls = peak;
                    r
                })
                .collect();
            NodeResult::merge(results)
        }
        LoadBalancer::FunctionHash => {
            // Per-function rotation needs the global arrival order, which
            // for a trace is just the index order: every node streams the
            // whole log (O(1) resident per scan position), replays the
            // rotation counters, and keeps its own calls.
            let results: Vec<NodeResult> = seeds
                .par_iter()
                .map(|&(node, node_seed)| {
                    let mut sim = NodeSim::new(
                        catalogue, mode, &cfg.node, &weights, faults, node_seed, node, false,
                    );
                    let mut counters: BTreeMap<FuncId, u64> = BTreeMap::new();
                    let mut buf: Vec<Call> = Vec::with_capacity(chunk.min(n as usize));
                    let mut peak = 0u64;
                    for call in trace.iter_chunk(0, n) {
                        if hash_rotation(&mut counters, call.func, cfg.nodes) != node {
                            continue;
                        }
                        buf.push(call);
                        if buf.len() >= chunk {
                            peak = peak.max(buf.len() as u64);
                            sim.inject(&buf);
                            let resume = just_before(call.release);
                            buf.clear();
                            sim.advance_to(resume);
                        }
                    }
                    if !buf.is_empty() {
                        peak = peak.max(buf.len() as u64);
                        sim.inject(&buf);
                    }
                    sim.advance_to(SimTime::MAX);
                    let mut r = sim.finish();
                    r.peak_resident_calls = peak;
                    r
                })
                .collect();
            NodeResult::merge(results)
        }
        LoadBalancer::JoinShortestQueue { .. }
        | LoadBalancer::PowerOfTwoChoices { .. }
        | LoadBalancer::JoinShortestDominant { .. }
        | LoadBalancer::PowerOfTwoDominant { .. } => {
            panic!("feedback policies need the coupled trace engine: run_cluster_trace_coupled")
        }
    }
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

/// Replay a trace on the conservative-window engine of [`crate::coupled`],
/// where feedback routing, finite lookahead and failover compose with
/// trace ingestion. Arrivals page through one `chunk`-call read-ahead
/// cursor, whose peak is the result's [`NodeResult::peak_resident_calls`].
pub fn run_cluster_trace_coupled(
    catalogue: &Catalogue,
    trace: &dyn TraceSource,
    mode: &NodeMode,
    cfg: &ClusterConfig,
    faults: &FaultSpec,
    sim_seed: u64,
    chunk: usize,
) -> NodeResult {
    let threads = rayon::current_num_threads();
    trace_coupled(
        catalogue, trace, mode, cfg, faults, sim_seed, chunk, threads,
    )
}

/// [`run_cluster_trace_coupled`] on an explicit worker count.
#[allow(clippy::too_many_arguments)]
pub(crate) fn trace_coupled(
    catalogue: &Catalogue,
    trace: &dyn TraceSource,
    mode: &NodeMode,
    cfg: &ClusterConfig,
    faults: &FaultSpec,
    sim_seed: u64,
    chunk: usize,
    threads: usize,
) -> NodeResult {
    let weights = WeightTable::uniform(catalogue.len());
    let nodes = new_nodes(catalogue, mode, cfg, &weights, faults, sim_seed, &[]);
    assert!(chunk > 0, "ingestion window must hold at least one call");
    let mut cursor = TraceCursor {
        trace,
        next_index: 0,
        buf: VecDeque::with_capacity(chunk.min(trace.len() as usize)),
        chunk,
        peak_resident: 0,
    };
    let routing = Routing::of(cfg.lb);
    let results = coupled_engine(nodes, cfg, &mut cursor, routing, threads);
    let mut merged = NodeResult::merge(results);
    merged.peak_resident_calls = cursor.peak_resident;
    merged
}

/// Run any [`WorkloadSource`] under any [`ClusterConfig`]: the one entry
/// point the experiment layers call. Spec sources go to the existing
/// generator engines; trace sources are opened (synthetic traces start at
/// [`SimTime::ZERO`] and draw from `scenario_seed`) and replayed through
/// the bounded-memory engines above. Feedback policies, a finite
/// lookahead or failover select the coupled variant either way. `chunk`
/// sizes the trace ingestion windows (unused by spec sources). The only
/// fallible path is opening a recorded trace file.
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
    let coupled = cfg.lb.is_feedback() || cfg.lookahead < SimDuration::MAX || cfg.failover;
    match source {
        WorkloadSource::Spec(spec) => Ok(if coupled {
            crate::coupled::run_cluster_streamed_coupled(
                catalogue,
                spec,
                mode,
                cfg,
                faults,
                scenario_seed,
                sim_seed,
            )
        } else {
            crate::sim::run_cluster_streamed_faulted(
                catalogue,
                spec,
                mode,
                cfg,
                faults,
                scenario_seed,
                sim_seed,
            )
        }),
        WorkloadSource::Trace(tspec) => {
            let trace = tspec.open(catalogue, SimTime::ZERO, scenario_seed)?;
            Ok(if coupled {
                run_cluster_trace_coupled(
                    catalogue,
                    trace.as_ref(),
                    mode,
                    cfg,
                    faults,
                    sim_seed,
                    chunk,
                )
            } else {
                run_cluster_trace_streamed(
                    catalogue,
                    trace.as_ref(),
                    mode,
                    cfg,
                    faults,
                    sim_seed,
                    chunk,
                )
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_core::{Policy, SchedulerConfig};
    use faas_invoker::NodeConfig;
    use faas_simcore::time::SimDuration;
    use faas_workload::synth::{SynthSpec, SyntheticTrace};
    use faas_workload::trace_source::TraceSpec;

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

    fn node_map(r: &NodeResult) -> Vec<(u64, u16)> {
        let mut v: Vec<(u64, u16)> = r
            .outcomes
            .iter()
            .filter(|o| o.is_measured())
            .map(|o| (o.id.0, o.node))
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn streamed_replay_serves_every_call_once_and_reruns_identically() {
        let cat = catalogue();
        let trace = synth(8.0, 3);
        let cfg = ClusterConfig::independent(3, NodeConfig::paper(10), LoadBalancer::RoundRobin);
        let mode = NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice));
        let r = run_cluster_trace_streamed(&cat, &trace, &mode, &cfg, &FaultSpec::none(), 5, 64);
        let measured: Vec<_> = r.outcomes.iter().filter(|o| o.is_measured()).collect();
        assert_eq!(measured.len() as u64, trace.len());
        let mut ids: Vec<u64> = measured.iter().map(|o| o.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len() as u64, trace.len(), "each call served once");
        assert!(measured.iter().all(|o| o.id.0 % 3 == o.node as u64));
        let again =
            run_cluster_trace_streamed(&cat, &trace, &mode, &cfg, &FaultSpec::none(), 5, 64);
        assert_eq!(r.outcomes, again.outcomes);
        assert_eq!(r.peak_resident_calls, again.peak_resident_calls);
    }

    #[test]
    fn ingestion_windows_do_not_change_the_replay() {
        // Draining to just-before each window's first release keeps the
        // event schedule identical whatever the chunking — one window per
        // call, 64-call windows and inject-everything all agree.
        let cat = catalogue();
        let trace = synth(6.0, 7);
        let cfg = ClusterConfig::independent(2, NodeConfig::paper(10), LoadBalancer::RoundRobin);
        let mode = NodeMode::Baseline;
        let run = |chunk: usize| {
            run_cluster_trace_streamed(&cat, &trace, &mode, &cfg, &FaultSpec::none(), 9, chunk)
        };
        let tiny = run(1);
        let medium = run(64);
        let whole = run(usize::MAX >> 8);
        assert_eq!(tiny.outcomes, medium.outcomes);
        assert_eq!(medium.outcomes, whole.outcomes);
    }

    #[test]
    fn function_hash_replay_matches_the_coupled_assignment() {
        // Both trace engines replay the identical per-function rotation:
        // the sequential-scan counters and the window-loop counters see
        // the calls in the same (index) order.
        let cat = catalogue();
        let trace = synth(6.0, 11);
        let cfg = ClusterConfig::independent(3, NodeConfig::paper(10), LoadBalancer::FunctionHash);
        let mode = NodeMode::Baseline;
        let streamed =
            run_cluster_trace_streamed(&cat, &trace, &mode, &cfg, &FaultSpec::none(), 13, 32);
        let coupled =
            run_cluster_trace_coupled(&cat, &trace, &mode, &cfg, &FaultSpec::none(), 13, 32);
        assert_eq!(node_map(&streamed), node_map(&coupled));
        assert_eq!(streamed.outcomes.len(), coupled.outcomes.len());
    }

    #[test]
    fn coupled_replay_routes_feedback_policies() {
        let cat = catalogue();
        let trace = synth(8.0, 17);
        let mode = NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice));
        let run = |lb: LoadBalancer| {
            let cfg = ClusterConfig::independent(3, NodeConfig::paper(10), lb)
                .coupled(SimDuration::from_millis(500), false);
            run_cluster_trace_coupled(&cat, &trace, &mode, &cfg, &FaultSpec::none(), 19, 64)
        };
        let jsq = run(LoadBalancer::JoinShortestQueue { seed: 1 });
        let rr = run(LoadBalancer::RoundRobin);
        for r in [&jsq, &rr] {
            let measured = r.outcomes.iter().filter(|o| o.is_measured()).count();
            assert_eq!(measured as u64, trace.len());
        }
        assert_ne!(node_map(&jsq), node_map(&rr), "JSQ must route differently");
        let again = run(LoadBalancer::JoinShortestQueue { seed: 1 });
        assert_eq!(jsq.outcomes, again.outcomes);
    }

    #[test]
    fn coupled_replay_is_thread_invariant() {
        let cat = catalogue();
        let trace = synth(8.0, 0x7A12);
        let cfg = ClusterConfig::independent(
            3,
            NodeConfig::paper(10),
            LoadBalancer::JoinShortestQueue { seed: 7 },
        )
        .coupled(SimDuration::from_millis(500), false);
        let mode = NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice));
        let run = |threads| {
            trace_coupled(
                &cat,
                &trace,
                &mode,
                &cfg,
                &FaultSpec::none(),
                5,
                64,
                threads,
            )
        };
        let serial = run(1);
        let parallel = run(3);
        assert_eq!(parallel.outcomes, serial.outcomes);
        assert_eq!(parallel.drops, serial.drops);
        assert_eq!(parallel.fault_stats, serial.fault_stats);
        assert_eq!(parallel.peak_events, serial.peak_events);
        assert_eq!(parallel.peak_resident_calls, serial.peak_resident_calls);
        assert_eq!(parallel.outcomes.len() as u64, trace.len());
    }

    #[test]
    fn peak_resident_calls_is_bounded_by_chunk_times_nodes() {
        // The acceptance bound: however long the trace, the ingestion
        // working set stays under chunk × nodes calls.
        let cat = catalogue();
        let cfg = ClusterConfig::independent(3, NodeConfig::paper(10), LoadBalancer::RoundRobin);
        let mode = NodeMode::Baseline;
        let chunk = 32usize;
        let bound = (chunk * 3) as u64;
        let mut peaks = Vec::new();
        for rate in [4.0, 16.0] {
            let trace = synth(rate, 23);
            let r = run_cluster_trace_streamed(
                &cat,
                &trace,
                &mode,
                &cfg,
                &FaultSpec::none(),
                25,
                chunk,
            );
            assert!(
                r.peak_resident_calls <= bound,
                "{} calls resident for a {}-call trace (bound {bound})",
                r.peak_resident_calls,
                trace.len()
            );
            assert!(r.peak_resident_calls > 0);
            peaks.push(r.peak_resident_calls);
        }
        assert_eq!(peaks[0], peaks[1], "residency is independent of length");
        // The coupled cursor is one shared window: at most `chunk` calls.
        let trace = synth(8.0, 23);
        let ccfg = cfg.coupled(SimDuration::from_millis(500), false);
        let r =
            run_cluster_trace_coupled(&cat, &trace, &mode, &ccfg, &FaultSpec::none(), 25, chunk);
        assert!(r.peak_resident_calls <= chunk as u64);
    }

    #[test]
    fn run_cluster_source_dispatches_specs_and_traces() {
        use faas_workload::arrival::ArrivalSpec;
        use faas_workload::generate::WorkloadSpec;
        use faas_workload::mix::MixSpec;
        use faas_workload::weight::WeightSpec;

        let cat = catalogue();
        let cfg = ClusterConfig::independent(2, NodeConfig::paper(10), LoadBalancer::RoundRobin);
        let mode = NodeMode::Baseline;
        let spec = WorkloadSpec {
            arrival: ArrivalSpec::Uniform { count: 66 },
            mix: MixSpec::Equal,
            weights: WeightSpec::Uniform,
            window: SimDuration::from_secs(60),
        };
        // Spec sources reproduce the existing streamed engine bit for bit.
        let via_source = run_cluster_source(
            &cat,
            &WorkloadSource::Spec(spec.clone()),
            &mode,
            &cfg,
            &FaultSpec::none(),
            1,
            2,
            64,
        )
        .expect("spec source");
        let direct = crate::sim::run_cluster_streamed(&cat, &spec, &mode, &cfg, 1, 2);
        assert_eq!(via_source.outcomes, direct.outcomes);

        // Synthetic trace sources replay through the bounded engine.
        let synth_spec = SynthSpec::azure(6.0, SimDuration::from_secs(60));
        let trace = SyntheticTrace::new(&synth_spec, &cat, SimTime::ZERO, 1);
        let via_trace = run_cluster_source(
            &cat,
            &WorkloadSource::Trace(TraceSpec::Synthetic(synth_spec)),
            &mode,
            &cfg,
            &FaultSpec::none(),
            1,
            2,
            64,
        )
        .expect("synthetic source");
        assert_eq!(
            via_trace
                .outcomes
                .iter()
                .filter(|o| o.is_measured())
                .count() as u64,
            trace.len()
        );
        assert!(via_trace.peak_resident_calls > 0);

        // A finite lookahead selects the coupled variant (shared cursor:
        // peak residency is at most one chunk).
        let ccfg = cfg.coupled(SimDuration::from_millis(500), false);
        let synth_spec = SynthSpec::azure(6.0, SimDuration::from_secs(60));
        let via_coupled = run_cluster_source(
            &cat,
            &WorkloadSource::Trace(TraceSpec::Synthetic(synth_spec)),
            &mode,
            &ccfg,
            &FaultSpec::none(),
            1,
            2,
            64,
        )
        .expect("coupled source");
        assert!(via_coupled.peak_resident_calls <= 64);
        assert_eq!(
            via_coupled
                .outcomes
                .iter()
                .filter(|o| o.is_measured())
                .count() as u64,
            trace.len()
        );
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
        let mode = NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice));
        let r = run_cluster_trace_coupled(&cat, &trace, &mode, &cfg, &faults, 31, 64);
        let measured = r.outcomes.iter().filter(|o| o.is_measured()).count() as u64;
        let dropped = r.drops.len() as u64;
        assert_eq!(measured + dropped, n, "replay call conservation");
        assert_eq!(r.fault_stats.crashes, 1);
        let again = run_cluster_trace_coupled(&cat, &trace, &mode, &cfg, &faults, 31, 64);
        assert_eq!(r.outcomes, again.outcomes);
        assert_eq!(r.fault_stats, again.fault_stats);
    }

    #[test]
    #[should_panic(expected = "coupled trace engine")]
    fn streamed_replay_rejects_feedback_policies() {
        let cat = catalogue();
        let trace = synth(2.0, 1);
        let cfg = ClusterConfig::independent(
            2,
            NodeConfig::paper(10),
            LoadBalancer::JoinShortestQueue { seed: 1 },
        );
        run_cluster_trace_streamed(
            &cat,
            &trace,
            &NodeMode::Baseline,
            &cfg,
            &FaultSpec::none(),
            1,
            64,
        );
    }
}
