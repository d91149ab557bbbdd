//! The one cluster run behind every entry point, and the workload sources
//! it runs: materialized bursts, analytic specs and bounded-memory trace
//! replay.
//!
//! Every run goes through one crate-private `Run`, which builds the nodes,
//! their warm-up and the container weights from a resident burst or a
//! paged trace and hands the arrivals to the window loop of
//! [`crate::coupled`]. The three public wrappers — [`crate::run_cluster`],
//! [`run_cluster_source`] and [`run_cluster_source_per_node`] — differ only
//! in where the arrivals come from and whether the results are merged.
//!
//! A spec source is generated in parallel chunks, sorted and routed as a
//! burst; every node first replays the warm-up waves. A trace source is a
//! fixed, release-ordered log addressed by index
//! ([`faas_workload::trace_source`]), which may be a recorded file or a
//! lazily-synthesized 10^8-call day. Its contract — `call(i)` is pure in
//! `(source, index)` and `call(i).id == CallId(i)` — lets the controller
//! page the log on demand.
//!
//! # Bounded memory
//!
//! A trace is never materialized. Two kinds of per-call state are bounded
//! however long the trace is:
//!
//! * **The ingest cursor.** The controller reads the trace through one
//!   read-ahead cursor of at most `chunk` calls, and the engine routes at
//!   most `chunk` arrivals per window, even at infinite lookahead. The
//!   cursor's peak is [`NodeResult::peak_resident_calls`]. Routed calls
//!   wait for their nodes in at most one window in the window loop; a
//!   streamed run (a static balancer at infinite lookahead on two or more
//!   threads) lets the controller route ahead, and each node worker's
//!   one-window channel bounds its routed but unstepped calls at two
//!   windows, one queued and one being routed, so at most two chunks in
//!   all.
//! * **Each node's runtime.** A node keeps a call's runtime only in its
//!   live window, from its oldest unresolved call to its newest injected
//!   one; the peak is [`NodeResult::peak_live_calls`]. On a stable load
//!   that is about the calls in flight plus one chunk. A priority policy
//!   that holds one call back while later ones complete widens the window
//!   by every call released meanwhile.
//!
//! What still grows O(n) is the result: every node keeps one 64-byte
//! `CallOutcome` per call it served. At the end [`NodeResult::merge`]
//! merges the per-node vectors, each already in release order, into the
//! canonical `(release, id, node)` order in place, with no full sort and
//! no scratch buffer, so the merge's peak is the merged vector plus the
//! node vectors not yet merged into it. (Event-queue pressure is what
//! [`NodeResult::peak_events`] tracks.)
//!
//! The trace is read in release order at every level: the cursor pulls
//! contiguous chunks through [`TraceSource::iter_chunk`] (a synthetic
//! trace walks its intensity profile forward from call to call instead
//! of searching it per call), and each node queues its arrivals in its
//! event queue's in-order lane instead of its heap.

use crate::coupled::{coupled_engine, Windows};
use crate::sim::{ClusterConfig, ClusterScenario};
use faas_invoker::{NodeMode, NodeResult, NodeSim};
use faas_simcore::rng::Xoshiro256;
use faas_simcore::time::{SimDuration, SimTime};
use faas_workload::faults::FaultSpec;
use faas_workload::generate::ShardedGenerator;
use faas_workload::scenario::{warmup_calls_for_waves, warmup_waves};
use faas_workload::sebs::Catalogue;
use faas_workload::trace::Call;
use faas_workload::trace_source::{TraceSource, WorkloadSource};
use faas_workload::weight::WeightTable;
use std::collections::VecDeque;
use std::io;

/// Run any [`WorkloadSource`] under any [`ClusterConfig`]: the entry point
/// the experiment layers call. Spec sources draw their calls from
/// `scenario_seed`; trace sources are opened (synthetic traces start at
/// [`SimTime::ZERO`] and draw from `scenario_seed`) and paged through the
/// `chunk`-call cursor. A window routes at most `chunk` arrivals either
/// way. Fails with [`std::io::ErrorKind::InvalidInput`], before any call
/// is generated, on a configuration the engine cannot run: zero nodes, a
/// zero `chunk`, failover without a fault plan or at an infinite
/// lookahead, or a malformed fault plan ([`FaultSpec::check`]). A
/// recorded trace was read when its
/// [`TraceSpec::load`](faas_workload::TraceSpec::load) ran, so running
/// it reads no file.
#[allow(clippy::too_many_arguments)] // perfbench calls this signature
pub fn run_cluster_source(
    catalogue: &Catalogue,
    source: &WorkloadSource,
    mode: &NodeMode,
    cfg: &ClusterConfig,
    faults: &FaultSpec,
    scenario_seed: u64,
    sim_seed: u64,
    chunk: usize,
) -> io::Result<NodeResult> {
    let seeds = (scenario_seed, sim_seed);
    run_cluster_source_per_node(catalogue, source, mode, cfg, faults, seeds, chunk)
        .map(NodeResult::merge)
}

/// [`run_cluster_source`] with its seeds paired as `(scenario_seed,
/// sim_seed)` and one [`NodeResult`] per node (index = node id): the
/// resource experiments need the per-node served work for cross-node
/// dominant-share fairness. A trace's cursor peak is charged to node 0.
pub fn run_cluster_source_per_node(
    catalogue: &Catalogue,
    source: &WorkloadSource,
    mode: &NodeMode,
    cfg: &ClusterConfig,
    faults: &FaultSpec,
    (scenario_seed, sim_seed): (u64, u64),
    chunk: usize,
) -> io::Result<Vec<NodeResult>> {
    Run::new(catalogue, mode, cfg, faults, sim_seed, chunk).source(source, scenario_seed)
}

/// Where a run's arrivals come from.
#[derive(Clone, Copy)]
pub(crate) enum Arrivals<'s> {
    /// A resident, `(release, id)`-sorted burst whose ids are its
    /// positions, under these container weights. Every node first replays
    /// the scenario's warm-up waves.
    Burst(&'s ClusterScenario, &'s WeightTable),
    /// A trace paged through a `chunk`-call cursor, under uniform weights.
    /// No warm-up: a trace is the complete log of what the cluster
    /// received, so a warmed system's warming calls are in the log.
    Trace(&'s dyn TraceSource),
}

/// One cluster run: everything but its arrivals.
pub(crate) struct Run<'a> {
    pub(crate) catalogue: &'a Catalogue,
    pub(crate) mode: &'a NodeMode,
    pub(crate) cfg: &'a ClusterConfig,
    pub(crate) faults: &'a FaultSpec,
    pub(crate) sim_seed: u64,
    /// The most arrivals one window routes.
    pub(crate) chunk: usize,
    /// How many node workers a streamed run (see `crate::coupled`) splits
    /// the nodes over, clamped to `[1, nodes]`; the calling thread routes,
    /// so the run uses one thread more than this count. The window loop
    /// ignores it: a coupled or feedback run, or any run at one thread,
    /// steps every window inline on the calling thread.
    pub(crate) threads: usize,
}

impl<'a> Run<'a> {
    /// A run on the ambient worker pool: the one place the engine reads
    /// the thread count, so tests can set it per run instead.
    pub(crate) fn new(
        catalogue: &'a Catalogue,
        mode: &'a NodeMode,
        cfg: &'a ClusterConfig,
        faults: &'a FaultSpec,
        sim_seed: u64,
        chunk: usize,
    ) -> Run<'a> {
        let threads = rayon::current_num_threads();
        Run {
            catalogue,
            mode,
            cfg,
            faults,
            sim_seed,
            chunk,
            threads,
        }
    }

    /// Fail with [`io::ErrorKind::InvalidInput`] on a configuration the
    /// engine cannot run: zero nodes, a zero `chunk`, failover without a
    /// fault plan or at [`SimDuration::MAX`] width (handoffs are delivered
    /// at window barriers), or a malformed fault plan
    /// ([`FaultSpec::check`]). Every public entry point calls this before
    /// it generates a call.
    pub(crate) fn check(&self) -> io::Result<()> {
        let lookahead = self.cfg.lookahead;
        let unrunnable = [
            (self.cfg.nodes == 0, "a cluster needs at least one node"),
            (self.chunk == 0, "a window must route at least one call"),
            (
                lookahead.failover() && self.faults.is_none(),
                "failover needs a fault plan",
            ),
            (
                lookahead.failover() && lookahead.width() == SimDuration::MAX,
                "failover needs a finite lookahead",
            ),
        ];
        let problem = unrunnable
            .iter()
            .find(|(bad, _)| *bad)
            .map(|(_, p)| p.to_string());
        match problem.or_else(|| self.faults.check().err()) {
            Some(problem) => Err(io::Error::new(io::ErrorKind::InvalidInput, problem)),
            None => Ok(()),
        }
    }

    /// Run a workload source: generate a spec's burst from
    /// `scenario_seed`, or open a trace. A configuration the engine cannot
    /// run is rejected first ([`Run::check`]).
    pub(crate) fn source(
        &self,
        source: &WorkloadSource,
        scenario_seed: u64,
    ) -> io::Result<Vec<NodeResult>> {
        self.check()?;
        let catalogue = self.catalogue;
        let results = match source {
            WorkloadSource::Spec(spec) => {
                let (warmup_waves, burst_start) = warmup_waves(catalogue);
                let generator = ShardedGenerator::new(spec, catalogue, burst_start, scenario_seed);
                let mut burst = generator.generate_parallel();
                burst.sort_by_key(|c| (c.release, c.id));
                let scenario = ClusterScenario {
                    burst,
                    burst_start,
                    burst_window: spec.window,
                    warmup_waves,
                };
                let weights = spec.weights.table(catalogue);
                self.execute(Arrivals::Burst(&scenario, &weights))
            }
            WorkloadSource::Trace(tspec) => {
                let trace = tspec.open(catalogue, SimTime::ZERO, scenario_seed);
                self.execute(Arrivals::Trace(trace.as_ref()))
            }
        };
        Ok(results.0)
    }

    /// Build the nodes, with their warm-up and weights, and run `arrivals`
    /// through the window loop. Returns each node's result and the run's
    /// window tally.
    pub(crate) fn execute(&self, arrivals: Arrivals) -> (Vec<NodeResult>, Windows) {
        let (cat, cfg) = (self.catalogue, self.cfg);
        assert!(cfg.nodes > 0, "cluster needs at least one node");
        assert!(self.chunk > 0, "a window must route at least one call");
        let uniform = WeightTable::uniform(cat.len());
        let (weights, warmup) = match arrivals {
            // Warm-up ids start above the burst ids, so each node's ids are
            // unique.
            Arrivals::Burst(sc, weights) => {
                let id_base = sc.burst.len() as u64;
                (
                    weights,
                    warmup_calls_for_waves(&sc.warmup_waves, cfg.node.cores, id_base),
                )
            }
            Arrivals::Trace(_) => (&uniform, Vec::new()),
        };
        // Per-node simulation seeds, derived sequentially in node order so
        // the RNG stream order is fixed however the nodes are stepped.
        let mut root = Xoshiro256::seed_from_u64(self.sim_seed ^ 0xC1u64.rotate_left(32));
        let (faults, failover) = (self.faults, cfg.lookahead.failover());
        let nodes = (0..cfg.nodes)
            .map(|node| {
                let seed = root.derive_stream(node as u64).next_u64();
                let mut sim = NodeSim::new(
                    cat, self.mode, &cfg.node, weights, faults, seed, node, failover,
                );
                sim.inject(&warmup);
                sim
            })
            .collect();
        match arrivals {
            Arrivals::Burst(scenario, _) => {
                coupled_engine(nodes, scenario.burst.iter().copied(), self)
            }
            Arrivals::Trace(trace) => {
                let mut cursor = TraceCursor {
                    trace,
                    next_index: 0,
                    buf: VecDeque::with_capacity(self.chunk.min(trace.len() as usize)),
                    chunk: self.chunk,
                    peak_resident: 0,
                };
                let (mut results, windows) = coupled_engine(nodes, &mut cursor, self);
                results[0].peak_resident_calls = cursor.peak_resident;
                (results, windows)
            }
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
            let hi = (self.next_index.saturating_add(self.chunk as u64)).min(self.trace.len());
            self.buf.extend(self.trace.iter_chunk(self.next_index, hi));
            self.next_index = hi;
            self.peak_resident = self.peak_resident.max(self.buf.len() as u64);
        }
        self.buf.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lb::{home_node, LoadBalancer};
    use faas_core::{Policy, SchedulerConfig};
    use faas_invoker::NodeConfig;
    use faas_workload::arrival::ArrivalSpec;
    use faas_workload::generate::WorkloadSpec;
    use faas_workload::mix::MixSpec;
    use faas_workload::synth::{SynthSpec, SyntheticTrace};
    use faas_workload::trace_source::TraceSpec;
    use faas_workload::weight::WeightSpec;
    use std::collections::BTreeMap;

    fn catalogue() -> Catalogue {
        Catalogue::sebs()
    }

    /// An Azure-style synthetic trace source averaging `mean_rate`
    /// calls/s over a minute.
    fn synth_source(mean_rate: f64) -> WorkloadSource {
        let spec = SynthSpec::azure(mean_rate, SimDuration::from_secs(60));
        WorkloadSource::Trace(TraceSpec::Synthetic(spec))
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
        cfg: &ClusterConfig,
        faults: &FaultSpec,
        (scenario_seed, sim_seed): (u64, u64),
    ) -> NodeResult {
        let mode = NodeMode::Baseline;
        let run = Run {
            threads: 2,
            ..Run::new(cat, &mode, cfg, faults, sim_seed, 8192)
        };
        let results = run.source(&WorkloadSource::Spec(spec.clone()), scenario_seed);
        NodeResult::merge(results.expect("spec sources cannot fail"))
    }

    fn node_map(r: &NodeResult) -> Vec<(u64, u16)> {
        let mut v: Vec<(u64, u16)> = r.measured().map(|o| (o.id.0, o.node)).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn function_hash_replay_follows_the_static_assignment() {
        let cat = catalogue();
        let lb = LoadBalancer::FunctionHash;
        let cfg = ClusterConfig::independent(3, NodeConfig::paper(10), lb);
        let (mode, none) = (NodeMode::Baseline, FaultSpec::none());
        let r = run_cluster_source(&cat, &synth_source(6.0), &mode, &cfg, &none, 11, 13, 32)
            .expect("synthetic source");
        let synth = SynthSpec::azure(6.0, SimDuration::from_secs(60));
        let trace = SyntheticTrace::new(&synth, &cat, SimTime::ZERO, 11);
        // A function's `k`-th call goes to `home + k` around the ring.
        let mut seen = BTreeMap::new();
        let assigned: Vec<(u64, u16)> = trace
            .iter_chunk(0, trace.len())
            .map(|c| {
                let k = seen.entry(c.func).or_insert(0u64);
                let node = (home_node(c.func, 3) as u64 + *k) % 3;
                *k += 1;
                (c.id.0, node as u16)
            })
            .collect();
        assert_eq!(node_map(&r), assigned);
    }

    #[test]
    fn peak_resident_calls_is_bounded_by_chunk() {
        // However long the trace, the controller holds at most one chunk,
        // and at infinite lookahead the cap keeps most of the trace out of
        // the event queues.
        let cat = catalogue();
        let cfg = ClusterConfig::independent(3, NodeConfig::paper(10), LoadBalancer::RoundRobin);
        let (mode, none) = (NodeMode::Baseline, FaultSpec::none());
        let chunk = 32usize;
        let mut peaks = Vec::new();
        for (rate, lookahead) in [
            (4.0, SimDuration::MAX),
            (16.0, SimDuration::MAX),
            (8.0, SimDuration::from_millis(500)),
        ] {
            let cfg = cfg.coupled(lookahead, false);
            let run = |chunk| {
                run_cluster_source(&cat, &synth_source(rate), &mode, &cfg, &none, 23, 25, chunk)
                    .expect("synthetic source")
            };
            let capped = run(chunk);
            assert!(capped.peak_resident_calls > 0);
            peaks.push(capped.peak_resident_calls);
            if lookahead == SimDuration::MAX {
                assert!(capped.peak_events < run(usize::MAX).peak_events, "{rate}");
            }
        }
        assert_eq!(
            peaks, [chunk as u64; 3],
            "residency is independent of length"
        );
    }

    #[test]
    fn peak_live_calls_is_bounded_by_calls_in_flight_not_trace_length() {
        // A node keeps runtime only from its oldest unresolved call on. On
        // a stable load that window is the calls injected but not yet
        // arrived (at most one chunk), queued or running, plus the few
        // that finished behind an older one still in service: twice the
        // in-flight bound covers it, however long the trace.
        let cat = catalogue();
        let cfg = ClusterConfig::independent(3, NodeConfig::paper(10), LoadBalancer::RoundRobin);
        let none = FaultSpec::none();
        let chunk = 32usize;
        let fair_choice = NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice));
        for mode in [NodeMode::Baseline, fair_choice] {
            let run = |minutes: u64| {
                let spec = SynthSpec::azure(4.0, SimDuration::from_secs(60 * minutes));
                let source = WorkloadSource::Trace(TraceSpec::Synthetic(spec));
                run_cluster_source_per_node(&cat, &source, &mode, &cfg, &none, (23, 25), chunk)
                    .expect("synthetic source")
            };
            let (short, long) = (run(1), run(10));
            let served = |rs: &[NodeResult]| rs.iter().map(|r| r.outcomes.len()).sum::<usize>();
            assert!(served(&long) >= 8 * served(&short), "{mode:?}");
            for r in short.iter().chain(&long) {
                let bound = 2 * (chunk + r.peak_queue + r.peak_concurrency);
                assert!(
                    r.peak_live_calls > 0 && r.peak_live_calls <= bound,
                    "{mode:?}: live window {} over {bound} ({} calls served)",
                    r.peak_live_calls,
                    r.outcomes.len()
                );
            }
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
        let per_node = run_cluster_source_per_node(&cat, &source, &mode, &cfg, &none, (5, 6), 64)
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
    fn scenario_seed_changes_workload_sim_seed_does_not() {
        let cat = catalogue();
        let cfg = ClusterConfig::independent(2, NodeConfig::paper(10), LoadBalancer::RoundRobin);
        let releases = |seeds| -> Vec<u64> {
            let r = run_spec(&cat, &spec(66), &cfg, &FaultSpec::none(), seeds);
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
            let weighted = run_spec(&cat, &tiered, &cfg, &none, (7, 8));
            let uniform = run_spec(&cat, &spec(132), &cfg, &none, (7, 8));
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

    /// The error both source entry points return for a cluster of `nodes`
    /// with windows of `chunk` calls and failover on or off, under
    /// `faults`, over a spec source.
    fn unrunnable(nodes: u16, chunk: usize, failover: bool, faults: &FaultSpec) -> io::ErrorKind {
        let cat = catalogue();
        let cfg =
            ClusterConfig::independent(nodes, NodeConfig::paper(10), LoadBalancer::RoundRobin)
                .coupled(SimDuration::from_millis(500), failover);
        let mode = NodeMode::Baseline;
        let source = WorkloadSource::Spec(spec(66));
        let merged = run_cluster_source(&cat, &source, &mode, &cfg, faults, 1, 2, chunk);
        let per_node =
            run_cluster_source_per_node(&cat, &source, &mode, &cfg, faults, (1, 2), chunk);
        let kind = per_node.expect_err("the run is rejected").kind();
        assert_eq!(merged.err().map(|e| e.kind()), Some(kind));
        kind
    }

    #[test]
    fn zero_nodes_is_an_error() {
        let none = FaultSpec::none();
        assert_eq!(unrunnable(0, 64, false, &none), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn zero_chunk_is_an_error() {
        let none = FaultSpec::none();
        assert_eq!(unrunnable(2, 0, false, &none), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn failover_without_a_fault_plan_is_an_error() {
        let none = FaultSpec::none();
        assert_eq!(unrunnable(2, 64, true, &none), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn a_malformed_fault_plan_is_an_error() {
        // Each plan would panic in `NodeSim::new`; the entry points refuse
        // it before generating a call.
        let (_, burst_start) = warmup_waves(&catalogue());
        let mut plans = vec![FaultSpec::none(); 3];
        plans[0].transient_failure = 1.5;
        plans[1].retry.max_attempts = 0;
        plans[2].retry.jitter = f64::NAN;
        plans.push(FaultSpec::degradation(
            1,
            burst_start,
            SimDuration::from_secs(60),
        ));
        plans[3].capacity[0].floor = 0.0;
        for faults in &plans {
            let kind = unrunnable(2, 64, false, faults);
            assert_eq!(kind, io::ErrorKind::InvalidInput, "{:?}", faults.check());
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
            run_spec(&cat, &spec(132), &cfg, &faults, (31, 32))
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
