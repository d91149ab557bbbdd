//! The coupled cluster engine: conservative time windows, feedback load
//! balancing, cross-node failover.
//!
//! # The conservative-window protocol
//!
//! The independent engine ([`crate::sim::run_cluster`]) shards the whole
//! burst up front and runs every node to completion in isolation — sound
//! only because nothing a node does can influence another node or the
//! controller. Feedback load balancing and cross-node failover break that
//! independence: the controller's routing decision for a call depends on
//! node state *at the call's release time*, and a failed attempt may
//! resume on a different node.
//!
//! The coupled engine recovers parallelism with the classic conservative
//! lookahead argument of parallel discrete-event simulation. Nodes only
//! interact through the controller, and every controller→node delivery
//! charges at least one network hop, so events on one node cannot affect
//! another within less than the hop latency. The engine therefore advances
//! all nodes in lock-step windows:
//!
//! ```text
//! loop {
//!     t       = earliest pending work anywhere
//!               (node event, unrouted arrival, undelivered handoff)
//!     horizon = t + lookahead
//!     1. route every arrival with release <= horizon      (sequential)
//!     2. deliver every handoff with due <= horizon        (sequential)
//!     3. every node worker injects its nodes' deliveries  (parallel)
//!        and advances them to `horizon`
//!     4. collect the nodes' failover outboxes             (sequential)
//! }
//! ```
//!
//! Routing (steps 1–2) sees the [`NodeProgress`] snapshots of the previous
//! barrier plus the calls it has routed since — a stale-by-at-most-one-
//! window view, exactly the staleness a real controller's health polling
//! has. Step 3 is the only parallel section and each node's simulator is
//! self-contained, so the run is a pure function of `(seed, lookahead)`:
//! bit-identical across reruns *and thread counts*. Narrower windows give
//! the controller fresher queue signals; wider windows amortize barrier
//! overhead. `lookahead = `[`SimDuration::MAX`] degenerates to one window
//! — with a static policy that is the independent engine bit-for-bit.
//!
//! # Node workers
//!
//! The workers are spawned once per run, not once per window: the engine
//! reads the pool size once, splits the nodes into that many contiguous
//! chunks (at most one per node) and opens one thread scope for the whole
//! run. The controller thread advances chunk 0 itself; every other chunk
//! belongs to one worker for the run. A window hands each worker its
//! nodes' deliveries through a per-worker slot, bumps that slot's window
//! counter, and waits for a completion count; a worker whose nodes have
//! nothing due is not woken. A window holds little work — about 1 µs of
//! routing and node simulation on a 4-node faulted cluster at 250 ms
//! windows — so the waits spin before they yield. Measured per window on
//! a 2-core VM, the synchronisation costs ~70 µs when threads are spawned
//! per window, ~18 µs when the threads park on a `std::sync::Barrier`,
//! and ~1 µs with the spinning handshake. Spinning assumes a core per
//! worker, which the default pool size (the core count) gives. With one
//! thread no worker is spawned and the controller runs every node inline.
//! A panic on a worker ends the run and resumes on the caller's thread.
//!
//! # Cross-node failover
//!
//! With [`ClusterConfig::failover`] on, a failed attempt with retries left
//! leaves its node as a [`Handoff`] instead of backing off locally. The
//! engine collects outboxes at each barrier and re-injects every due
//! handoff on the least-loaded healthy node (lowest index on ties,
//! preferring nodes other than the one that failed), no earlier than the
//! barrier at which it was collected — failover cannot run ahead of the
//! window protocol, which is why it requires a finite lookahead. The
//! attempt counter carries across nodes: a policy of `n` attempts spends
//! `n` attempts cluster-wide.

use crate::lb::{hash_rotation, FeedbackRouter, LoadBalancer, NodeView};
use crate::sim::{node_seeds, ClusterConfig, ClusterScenario};
use faas_invoker::{Handoff, NodeMode, NodeResult, NodeSim};
use faas_simcore::time::{SimDuration, SimTime};
use faas_workload::faults::FaultSpec;
use faas_workload::generate::{ShardedGenerator, WorkloadSpec};
use faas_workload::scenario::{warmup_calls_for_waves, warmup_waves as warmup_waves_for};
use faas_workload::sebs::{Catalogue, FuncId};
use faas_workload::trace::Call;
use faas_workload::weight::WeightTable;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Run a materialized [`ClusterScenario`] on the coupled engine. With a
/// static policy and infinite lookahead this reproduces
/// [`crate::sim::run_cluster_faulted`] bit-for-bit; feedback policies and
/// failover require this entry point.
pub fn run_cluster_coupled(
    catalogue: &Catalogue,
    scenario: &ClusterScenario,
    mode: &NodeMode,
    cfg: &ClusterConfig,
    weights: &WeightTable,
    faults: &FaultSpec,
    seed: u64,
) -> NodeResult {
    let routing = if cfg.lb.is_feedback() {
        Routing::of(cfg.lb)
    } else {
        Routing::Fixed(cfg.lb.assign(&scenario.burst, cfg.nodes).into_iter())
    };
    let warmup = scenario.node_warmup(cfg.node.cores, scenario.burst.len() as u64);
    let nodes = new_nodes(catalogue, mode, cfg, weights, faults, seed, &warmup);
    let arrivals = scenario.burst.iter().copied();
    let threads = rayon::current_num_threads();
    NodeResult::merge(coupled_engine(nodes, cfg, arrivals, routing, threads))
}

/// Run a [`WorkloadSpec`] on the coupled engine (the streamed-generation
/// counterpart of [`run_cluster_coupled`]; the burst is generated in
/// parallel chunks, then routed through the windows). Under
/// [`crate::lb::LoadBalancer::RoundRobin`] the static assignment strides
/// the generation-index space — the same shard
/// [`crate::sim::run_cluster_streamed`] gives node `k` — so infinite
/// lookahead reproduces the streamed engine bit-for-bit.
pub fn run_cluster_streamed_coupled(
    catalogue: &Catalogue,
    spec: &WorkloadSpec,
    mode: &NodeMode,
    cfg: &ClusterConfig,
    faults: &FaultSpec,
    scenario_seed: u64,
    sim_seed: u64,
) -> NodeResult {
    let seeds = (scenario_seed, sim_seed);
    let threads = rayon::current_num_threads();
    NodeResult::merge(streamed_coupled(
        catalogue, spec, mode, cfg, faults, seeds, threads,
    ))
}

/// Per-node variant of [`run_cluster_streamed_coupled`]: the same engine
/// and bit-identical routing, but each node's [`NodeResult`] is returned
/// separately (index = node id) instead of merged. The resource-
/// utilization experiments need the per-node `served_cpu_secs` /
/// `served_mem_units` split to compute cross-node dominant-share fairness,
/// which a merged result erases.
pub fn run_cluster_streamed_coupled_per_node(
    catalogue: &Catalogue,
    spec: &WorkloadSpec,
    mode: &NodeMode,
    cfg: &ClusterConfig,
    faults: &FaultSpec,
    scenario_seed: u64,
    sim_seed: u64,
) -> Vec<NodeResult> {
    let seeds = (scenario_seed, sim_seed);
    let threads = rayon::current_num_threads();
    streamed_coupled(catalogue, spec, mode, cfg, faults, seeds, threads)
}

/// The streamed entry points on an explicit worker count.
fn streamed_coupled(
    catalogue: &Catalogue,
    spec: &WorkloadSpec,
    mode: &NodeMode,
    cfg: &ClusterConfig,
    faults: &FaultSpec,
    (scenario_seed, sim_seed): (u64, u64),
    threads: usize,
) -> Vec<NodeResult> {
    let (warmup_waves, burst_start) = warmup_waves_for(catalogue);
    let generator = ShardedGenerator::new(spec, catalogue, burst_start, scenario_seed);
    let weights = spec.weights.table(catalogue);
    let id_base = generator.len();
    let mut burst = generator.generate_parallel();
    burst.sort_by_key(|c| (c.release, c.id));
    let warmup = warmup_calls_for_waves(&warmup_waves, cfg.node.cores, id_base);
    let nodes = new_nodes(catalogue, mode, cfg, &weights, faults, sim_seed, &warmup);
    let routing = Routing::of(cfg.lb);
    coupled_engine(nodes, cfg, burst.into_iter(), routing, threads)
}

/// Build the cluster's nodes, each warmed with `warmup`.
pub(crate) fn new_nodes<'a>(
    catalogue: &'a Catalogue,
    mode: &NodeMode,
    cfg: &'a ClusterConfig,
    weights: &'a WeightTable,
    faults: &'a FaultSpec,
    sim_seed: u64,
    warmup: &[Call],
) -> Vec<NodeSim<'a>> {
    let (node_cfg, failover) = (&cfg.node, cfg.failover);
    let build = |(node, seed): (u16, u64)| {
        let mut sim = NodeSim::new(
            catalogue, mode, node_cfg, weights, faults, seed, node, failover,
        );
        sim.inject(warmup);
        sim
    };
    let seeds = node_seeds(sim_seed, cfg.nodes);
    seeds.into_iter().map(build).collect()
}

/// How the window loop routes each arrival.
pub(crate) enum Routing {
    /// A precomputed assignment, one node per arrival in order.
    Fixed(std::vec::IntoIter<u16>),
    /// Round-robin over generation indices: the call's id strides the
    /// nodes ([`Call::stride_node`]).
    Stride,
    /// Function-hash rotation counters, advanced in arrival order —
    /// identical to [`LoadBalancer::assign`] over the same sequence.
    Hash(BTreeMap<FuncId, u64>),
    /// Feedback policy routing on barrier snapshots.
    Feedback(FeedbackRouter),
}

impl Routing {
    /// The routing `lb` applies to arrivals whose ids are their
    /// generation (or trace) indices.
    pub(crate) fn of(lb: LoadBalancer) -> Routing {
        match lb {
            LoadBalancer::RoundRobin => Routing::Stride,
            LoadBalancer::FunctionHash => Routing::Hash(BTreeMap::new()),
            _ => Routing::Feedback(FeedbackRouter::new(lb)),
        }
    }

    fn route(&mut self, call: &Call, views: &[NodeView]) -> usize {
        let nodes = views.len() as u16;
        (match self {
            Routing::Fixed(assignment) => assignment.next().expect("one node per call"),
            Routing::Stride => call.stride_node(nodes),
            Routing::Hash(counters) => hash_rotation(counters, call.func, nodes),
            Routing::Feedback(router) => router.route(views),
        }) as usize
    }
}

/// Pick the failover target: least-loaded healthy node, lowest index on
/// ties, preferring nodes other than the one the attempt failed on. With
/// nothing else alive the handoff goes back to `from` (it queues there
/// until the restart), and with the whole cluster down liveness is
/// ignored.
fn failover_target(views: &[NodeView], from: u16) -> usize {
    let pick = |pred: &dyn Fn(usize) -> bool| {
        (0..views.len())
            .filter(|&n| pred(n))
            .min_by_key(|&n| (views[n].backlog, n))
    };
    pick(&|n| views[n].alive && n as u16 != from)
        .or_else(|| pick(&|n| views[n].alive))
        .or_else(|| pick(&|_| true))
        .expect("cluster needs at least one node")
}

/// One node's traffic through a window: what the controller delivers and
/// what the node reports back at the barrier.
#[derive(Clone)]
struct NodeWork {
    /// Calls routed to the node, release-sorted.
    batch: Vec<Call>,
    /// Handoffs delivered to the node, with their delivery instants.
    handoffs: Vec<(Handoff, SimTime)>,
    /// The node's snapshot at the barrier.
    view: NodeView,
    /// Its earliest queued event after the barrier.
    next_event: Option<SimTime>,
    /// Handoffs it emitted during the window.
    outbox: Vec<Handoff>,
}

impl NodeWork {
    fn new(node: &NodeSim) -> NodeWork {
        NodeWork {
            batch: Vec::new(),
            handoffs: Vec::new(),
            view: NodeView {
                backlog: 0,
                alive: true,
                dominant_milli: 0,
            },
            next_event: node.next_event_time(),
            outbox: Vec::new(),
        }
    }

    /// Nothing to deliver and no event due by `horizon`: advancing the
    /// node would leave it, and its snapshot, exactly as they are.
    fn idle(&self, horizon: SimTime) -> bool {
        let due = self.next_event.is_some_and(|t| t <= horizon);
        self.batch.is_empty() && self.handoffs.is_empty() && !due
    }

    /// Deliver the window's traffic, then advance `node` to `horizon`.
    fn step(&mut self, node: &mut NodeSim, horizon: SimTime) {
        if self.idle(horizon) {
            return;
        }
        if !self.batch.is_empty() {
            node.inject(&self.batch);
            self.batch.clear();
        }
        for (h, at) in self.handoffs.drain(..) {
            node.inject_handoff(&h, at);
        }
        let p = node.advance_to(horizon);
        self.view = NodeView {
            backlog: p.backlog(),
            alive: p.alive,
            dominant_milli: p.dominant_milli,
        };
        self.outbox.extend(node.take_handoffs());
        self.next_event = node.next_event_time();
    }
}

/// One worker's mailbox: the last window handed to it, that window's
/// horizon in nanoseconds, and its chunk's [`NodeWork`]. The controller
/// swaps the work in and stores the horizon, then publishes the window
/// with a `Release` store that the worker's `Acquire` load pairs with; the
/// worker's `Release` increment of the shared done count pairs with the
/// controller's `Acquire` wait the same way. The lock is never contended.
struct Slot {
    window: AtomicU64,
    horizon: AtomicU64,
    work: Mutex<Vec<NodeWork>>,
}

impl Slot {
    /// Trade the controller's copy of the chunk for the slot's.
    fn swap(&self, chunk: &mut [NodeWork]) {
        let mut held = self.work.lock().expect("no worker panicked holding it");
        held.swap_with_slice(chunk);
    }
}

/// Spin, then yield, until `ready` holds.
fn wait_until(ready: impl Fn() -> bool) {
    let mut spins = 0u32;
    while !ready() {
        spins += 1;
        if spins < 1 << 10 {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// A worker's run: advance its chunk of nodes through every window handed
/// to it, counting each into `done`, until `stop`.
fn worker(nodes: &mut [NodeSim], slot: &Slot, done: &AtomicU64, stop: &AtomicBool) {
    let mut seen = 0;
    loop {
        wait_until(|| stop.load(Ordering::Acquire) || slot.window.load(Ordering::Acquire) != seen);
        if stop.load(Ordering::Acquire) {
            return;
        }
        seen = slot.window.load(Ordering::Acquire);
        let horizon = SimTime::from_nanos(slot.horizon.load(Ordering::Relaxed));
        let mut work = slot
            .work
            .lock()
            .expect("the controller never panics holding it");
        for (node, w) in nodes.iter_mut().zip(work.iter_mut()) {
            w.step(node, horizon);
        }
        drop(work);
        done.fetch_add(1, Ordering::Release);
    }
}

/// The one window loop behind every coupled entry point. Arrivals must
/// come in `(release, id)` order; `threads` is clamped to `[1, nodes]`.
pub(crate) fn coupled_engine(
    mut nodes: Vec<NodeSim>,
    cfg: &ClusterConfig,
    arrivals: impl Iterator<Item = Call>,
    mut routing: Routing,
    threads: usize,
) -> Vec<NodeResult> {
    assert!(cfg.nodes > 0, "cluster needs at least one node");
    assert!(
        !cfg.failover || cfg.lookahead < SimDuration::MAX,
        "failover handoffs are delivered at window barriers: a finite \
         lookahead is required"
    );
    let mut arrivals = arrivals.peekable();
    let threads = threads.clamp(1, nodes.len());
    // Chunk k is nodes[bounds[k]..bounds[k + 1]]; the controller owns 0.
    let bounds: Vec<usize> = (0..=threads).map(|k| k * nodes.len() / threads).collect();
    let mut work: Vec<NodeWork> = nodes.iter().map(NodeWork::new).collect();
    let slots: Vec<Slot> = (1..threads)
        .map(|k| Slot {
            window: AtomicU64::new(0),
            horizon: AtomicU64::new(0),
            work: Mutex::new(work[bounds[k]..bounds[k + 1]].to_vec()),
        })
        .collect();
    let (done, stop) = (AtomicU64::new(0), AtomicBool::new(false));

    std::thread::scope(|scope| {
        let (own, mut rest) = nodes.split_at_mut(bounds[1]);
        let mut workers = Vec::with_capacity(slots.len());
        for (k, slot) in slots.iter().enumerate() {
            let (chunk, tail) = rest.split_at_mut(bounds[k + 2] - bounds[k + 1]);
            rest = tail;
            let (done, stop) = (&done, &stop);
            workers.push(scope.spawn(move || worker(chunk, slot, done, stop)));
        }
        let run = catch_unwind(AssertUnwindSafe(|| {
            // The controller's view: each node's backlog at the last
            // barrier plus the calls routed there since (self-feedback
            // within a window), and its last observed liveness.
            let mut views: Vec<NodeView> = work.iter().map(|w| w.view).collect();
            // Collected but not yet delivered handoffs, sorted by (due, id).
            let mut pending: VecDeque<Handoff> = VecDeque::new();
            let mut barrier = SimTime::ZERO;
            let mut sent = 0; // windows handed to workers so far
            for window in 1.. {
                // The earliest pending work anywhere bounds the next window.
                let t = work.iter().filter_map(|w| w.next_event);
                let t = t.chain(arrivals.peek().map(|c| c.release));
                let Some(t) = t.chain(pending.front().map(|h| h.due)).min() else {
                    break;
                };
                let horizon = t + cfg.lookahead; // saturates at SimTime::MAX

                // 1. Route this window's arrivals. Batches stay (release,
                // id)-sorted because arrivals come in that order.
                while let Some(call) = arrivals.next_if(|c| c.release <= horizon) {
                    let node = routing.route(&call, &views);
                    views[node].backlog += 1;
                    work[node].batch.push(call);
                }
                // 2. Deliver due handoffs, never earlier than the barrier
                // they were collected at (the engine cannot deliver into a
                // window that already ran).
                while pending.front().is_some_and(|h| h.due <= horizon) {
                    let h = pending.pop_front().expect("checked");
                    let target = failover_target(&views, h.from);
                    views[target].backlog += 1;
                    work[target].handoffs.push((h, h.due.max(barrier)));
                }

                // 3. Hand each worker with a busy node its chunk, advance
                // the controller's own chunk, then wait for the others.
                // Each simulator is self-contained, so the snapshots are
                // thread-invariant.
                for (k, slot) in slots.iter().enumerate() {
                    let chunk = &mut work[bounds[k + 1]..bounds[k + 2]];
                    if chunk.iter().all(|w| w.idle(horizon)) {
                        continue;
                    }
                    slot.swap(chunk);
                    slot.horizon.store(horizon.as_nanos(), Ordering::Relaxed);
                    slot.window.store(window, Ordering::Release);
                    sent += 1;
                }
                for (node, w) in own.iter_mut().zip(&mut work) {
                    w.step(node, horizon);
                }
                // A worker only returns early by panicking.
                let dead = || workers.iter().any(|w| w.is_finished());
                wait_until(|| done.load(Ordering::Acquire) == sent || dead());
                assert!(!dead(), "a node worker panicked");
                for (k, slot) in slots.iter().enumerate() {
                    if slot.window.load(Ordering::Relaxed) == window {
                        slot.swap(&mut work[bounds[k + 1]..bounds[k + 2]]);
                    }
                }

                // 4. Collect failover outboxes in node order
                // (deterministic), keep the pending list sorted by (due, id).
                for (v, w) in views.iter_mut().zip(&mut work) {
                    *v = w.view;
                    pending.extend(w.outbox.drain(..));
                }
                pending
                    .make_contiguous()
                    .sort_by_key(|h| (h.due, h.call.id));
                barrier = horizon;
            }
            assert!(pending.is_empty(), "every handoff was delivered");
        }));
        stop.store(true, Ordering::Release);
        // A worker's own panic outranks the controller's report of it.
        for w in workers {
            if let Err(p) = w.join() {
                resume_unwind(p);
            }
        }
        if let Err(p) = run {
            resume_unwind(p);
        }
    });
    nodes.into_iter().map(|n| n.finish()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lb::LoadBalancer;
    use crate::sim::{run_cluster_faulted, run_cluster_streamed, run_cluster_streamed_faulted};
    use faas_core::{Policy, SchedulerConfig};
    use faas_invoker::NodeConfig;
    use faas_workload::arrival::ArrivalSpec;
    use faas_workload::faults::CapacityRamp;
    use faas_workload::mix::MixSpec;
    use faas_workload::weight::WeightSpec;

    fn catalogue() -> Catalogue {
        Catalogue::sebs()
    }

    fn streamed_spec(count: usize) -> WorkloadSpec {
        WorkloadSpec {
            arrival: ArrivalSpec::Uniform { count },
            mix: MixSpec::Equal,
            weights: WeightSpec::Uniform,
            window: SimDuration::from_secs(60),
        }
    }

    fn crash_faults(seed: u64) -> FaultSpec {
        let (_, burst_start) = warmup_waves_for(&catalogue());
        let mut faults = FaultSpec::crash_restart(seed, burst_start, SimDuration::from_secs(60));
        faults.transient_failure = 0.05;
        faults
    }

    #[test]
    fn infinite_lookahead_static_lb_reproduces_the_streamed_engine() {
        // The tentpole regression: one window + static sharding IS the
        // independent engine — outcomes, drops, fault stats, pool stats,
        // every peak, bit for bit. Both LB policies, both node modes,
        // with and without faults.
        let cat = catalogue();
        let spec = streamed_spec(132);
        let faults = crash_faults(21);
        for lb in [LoadBalancer::RoundRobin, LoadBalancer::FunctionHash] {
            for mode in [
                NodeMode::Baseline,
                NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice)),
            ] {
                let cfg = ClusterConfig::independent(3, NodeConfig::paper(10), lb);
                let plain = run_cluster_streamed(&cat, &spec, &mode, &cfg, 1, 2);
                let coupled = run_cluster_streamed_coupled(
                    &cat,
                    &spec,
                    &mode,
                    &cfg,
                    &FaultSpec::none(),
                    1,
                    2,
                );
                assert_eq!(plain.outcomes, coupled.outcomes, "{lb:?}");
                assert_eq!(plain.peak_events, coupled.peak_events, "{lb:?}");
                assert_eq!(plain.measured_pool_stats, coupled.measured_pool_stats);
                let plainf = run_cluster_streamed_faulted(&cat, &spec, &mode, &cfg, &faults, 1, 2);
                let coupledf =
                    run_cluster_streamed_coupled(&cat, &spec, &mode, &cfg, &faults, 1, 2);
                assert_eq!(plainf.outcomes, coupledf.outcomes, "{lb:?} faulted");
                assert_eq!(plainf.drops, coupledf.drops, "{lb:?} faulted");
                assert_eq!(plainf.fault_stats, coupledf.fault_stats, "{lb:?} faulted");
            }
        }
    }

    #[test]
    fn infinite_lookahead_materialized_matches_run_cluster_faulted() {
        let cat = catalogue();
        let scenario = ClusterScenario::generate(&cat, 12, 10, SimDuration::from_secs(60), 2);
        let weights = WeightTable::uniform(cat.len());
        let faults = crash_faults(33);
        let cfg = ClusterConfig::independent(2, NodeConfig::paper(10), LoadBalancer::FunctionHash);
        let mode = NodeMode::Baseline;
        let plain = run_cluster_faulted(&cat, &scenario, &mode, &cfg, &weights, &faults, 3);
        let coupled = run_cluster_coupled(&cat, &scenario, &mode, &cfg, &weights, &faults, 3);
        assert_eq!(plain.outcomes, coupled.outcomes);
        assert_eq!(plain.drops, coupled.drops);
        assert_eq!(plain.fault_stats, coupled.fault_stats);
        assert_eq!(plain.peak_events, coupled.peak_events);
    }

    #[test]
    fn finite_windows_conserve_calls_and_rerun_bit_identically() {
        let cat = catalogue();
        let spec = streamed_spec(264);
        let cfg = ClusterConfig::independent(3, NodeConfig::paper(10), LoadBalancer::RoundRobin)
            .coupled(SimDuration::from_millis(250), false);
        let mode = NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice));
        let r = run_cluster_streamed_coupled(&cat, &spec, &mode, &cfg, &FaultSpec::none(), 5, 6);
        assert_eq!(
            r.outcomes.iter().filter(|o| o.is_measured()).count(),
            264,
            "windowing must not lose calls"
        );
        let again =
            run_cluster_streamed_coupled(&cat, &spec, &mode, &cfg, &FaultSpec::none(), 5, 6);
        assert_eq!(r.outcomes, again.outcomes);
        assert_eq!(r.peak_events, again.peak_events);
    }

    #[test]
    fn per_node_results_sum_to_the_merged_entry_point() {
        // The per-node variant is the same engine: node count of results,
        // and outcome counts / served work that merge to exactly what the
        // merged entry point reports, dominant routing included.
        let cat = catalogue();
        let mut spec = streamed_spec(132);
        spec.weights = WeightSpec::paper_tiers_mem();
        let cfg = ClusterConfig::independent(
            3,
            NodeConfig::paper(10).with_mem_bandwidth(8.0),
            LoadBalancer::JoinShortestDominant { seed: 11 },
        )
        .coupled(SimDuration::from_millis(250), false);
        let mode = NodeMode::Baseline;
        let per_node = run_cluster_streamed_coupled_per_node(
            &cat,
            &spec,
            &mode,
            &cfg,
            &FaultSpec::none(),
            5,
            6,
        );
        assert_eq!(per_node.len(), 3, "one result per node");
        let merged =
            run_cluster_streamed_coupled(&cat, &spec, &mode, &cfg, &FaultSpec::none(), 5, 6);
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
    fn coupled_runs_are_thread_count_invariant() {
        // The whole point of the conservative protocol: the schedule is a
        // pure function of (seed, lookahead), however many worker threads
        // advance the nodes.
        let cat = catalogue();
        let spec = streamed_spec(132);
        let cfg = ClusterConfig::independent(
            4,
            NodeConfig::paper(10),
            LoadBalancer::JoinShortestQueue { seed: 7 },
        )
        .coupled(SimDuration::from_millis(500), true);
        let faults = crash_faults(41);
        let mode = NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice));
        let run = |threads| streamed_coupled(&cat, &spec, &mode, &cfg, &faults, (7, 8), threads);
        let serial = NodeResult::merge(run(1));
        let parallel = NodeResult::merge(run(4));
        assert_eq!(parallel.outcomes, serial.outcomes);
        assert_eq!(parallel.drops, serial.drops);
        assert_eq!(parallel.fault_stats, serial.fault_stats);
        assert_eq!(parallel.peak_events, serial.peak_events);
    }

    /// The benchmark's faulted-cluster shape on `nodes` nodes: a crash on
    /// node 0, a capacity ramp on the last node, transient failures.
    fn ramp_and_crash_faults(nodes: u16) -> FaultSpec {
        let (_, burst_start) = warmup_waves_for(&catalogue());
        let mut faults = crash_faults(43);
        faults.capacity.push(CapacityRamp {
            node: Some(nodes - 1),
            start: burst_start + SimDuration::from_secs(10),
            floor: 0.5,
            steps_down: 2,
            step_every: SimDuration::from_secs(2),
            hold: SimDuration::from_secs(10),
            steps_up: 3,
        });
        faults.validate();
        faults
    }

    #[test]
    fn uneven_partitions_are_thread_count_invariant() {
        // Every split of nodes over workers — more workers than nodes,
        // chunks of unequal size — reproduces the one-thread run exactly,
        // on both the spec and the trace arrival cursors.
        use crate::trace_run::trace_coupled;
        use faas_workload::synth::{SynthSpec, SyntheticTrace};
        let cat = catalogue();
        let mut spec = streamed_spec(198);
        spec.weights = WeightSpec::paper_tiers_mem();
        let trace = SyntheticTrace::new(
            &SynthSpec::azure(4.0, SimDuration::from_secs(60)),
            &cat,
            SimTime::ZERO,
            3,
        );
        let mode = NodeMode::Baseline;
        let same = |a: &NodeResult, b: &NodeResult, what: &str| {
            assert_eq!(a.outcomes, b.outcomes, "{what}");
            assert_eq!(a.drops, b.drops, "{what}");
            assert_eq!(a.fault_stats, b.fault_stats, "{what}");
            assert_eq!(a.peak_events, b.peak_events, "{what}");
            assert_eq!(a.served_cpu_secs, b.served_cpu_secs, "{what}");
            assert_eq!(a.served_mem_units, b.served_mem_units, "{what}");
        };
        for nodes in [1u16, 2, 3, 5] {
            let cfg = ClusterConfig::independent(
                nodes,
                NodeConfig::paper(10).with_mem_bandwidth(8.0),
                LoadBalancer::JoinShortestDominant { seed: 5 },
            )
            .coupled(SimDuration::from_millis(250), true);
            let faults = ramp_and_crash_faults(nodes);
            let spec_run = |t| streamed_coupled(&cat, &spec, &mode, &cfg, &faults, (5, 6), t);
            let trace_run = |t| trace_coupled(&cat, &trace, &mode, &cfg, &faults, 6, 32, t);
            let (spec_serial, trace_serial) = (spec_run(1), trace_run(1));
            assert_eq!(spec_serial.len(), nodes as usize);
            for threads in [2, 3, 4, 8] {
                for (a, b) in spec_run(threads).iter().zip(&spec_serial) {
                    same(a, b, &format!("spec, {nodes} nodes, {threads} threads"));
                }
                let what = format!("trace, {nodes} nodes, {threads} threads");
                same(&trace_run(threads), &trace_serial, &what);
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn a_worker_panic_resumes_on_the_caller() {
        // An out-of-order arrival reaches the worker-owned node 1 after its
        // clock has passed the release (the call in between goes to node
        // 0), so the node panics on the worker thread; the run must end
        // with that panic instead of spinning.
        use faas_workload::sebs::FuncId;
        use faas_workload::trace::{CallId, CallKind};
        let cat = catalogue();
        let (weights, faults) = (WeightTable::uniform(cat.len()), FaultSpec::none());
        let cfg = ClusterConfig::independent(2, NodeConfig::paper(10), LoadBalancer::RoundRobin)
            .coupled(SimDuration::from_millis(250), false);
        let call = |id, secs| Call {
            id: CallId(id),
            func: FuncId(0),
            release: SimTime::from_secs(secs),
            kind: CallKind::Measured,
        };
        let arrivals = vec![call(0, 10), call(1, 20), call(2, 1)];
        let nodes = new_nodes(&cat, &NodeMode::Baseline, &cfg, &weights, &faults, 1, &[]);
        let routing = Routing::Fixed(vec![1, 0, 1].into_iter());
        coupled_engine(nodes, &cfg, arrivals.into_iter(), routing, 2);
    }

    #[test]
    fn feedback_policies_route_every_call_and_differ_from_round_robin() {
        let cat = catalogue();
        let spec = streamed_spec(264);
        let mode = NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice));
        let run = |lb: LoadBalancer| {
            let cfg = ClusterConfig::independent(3, NodeConfig::paper(10), lb)
                .coupled(SimDuration::from_millis(500), false);
            run_cluster_streamed_coupled(&cat, &spec, &mode, &cfg, &FaultSpec::none(), 9, 10)
        };
        let rr = run(LoadBalancer::RoundRobin);
        let jsq = run(LoadBalancer::JoinShortestQueue { seed: 1 });
        let p2c = run(LoadBalancer::PowerOfTwoChoices { seed: 1 });
        for r in [&rr, &jsq, &p2c] {
            let measured: Vec<_> = r.outcomes.iter().filter(|o| o.is_measured()).collect();
            assert_eq!(measured.len(), 264);
            let mut ids: Vec<u64> = measured.iter().map(|o| o.id.0).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 264, "each call served exactly once");
            let nodes: std::collections::BTreeSet<u16> = measured.iter().map(|o| o.node).collect();
            assert_eq!(nodes.len(), 3, "every node serves traffic");
        }
        assert_ne!(rr.outcomes, jsq.outcomes, "JSQ must route differently");
        assert_ne!(
            jsq.outcomes, p2c.outcomes,
            "two probes differ from global min"
        );
    }

    #[test]
    fn dominant_share_policies_route_every_call_and_rerun_identically() {
        // The dominant-share feedback policies run the same window
        // protocol: every call resolves exactly once, every node serves
        // traffic, and reruns are bit-identical. With a memory-bandwidth
        // axis modeled the dominant signal carries real information (some
        // functions are bandwidth-heavy), so the routing may legitimately
        // differ from plain JSQ's.
        let cat = catalogue();
        let spec = streamed_spec(264);
        let mode = NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice));
        let node = NodeConfig::paper(10).with_mem_bandwidth(4.0);
        let run = |lb: LoadBalancer| {
            let cfg = ClusterConfig::independent(3, node, lb)
                .coupled(SimDuration::from_millis(500), false);
            run_cluster_streamed_coupled(&cat, &spec, &mode, &cfg, &FaultSpec::none(), 9, 10)
        };
        for lb in [
            LoadBalancer::JoinShortestDominant { seed: 1 },
            LoadBalancer::PowerOfTwoDominant { seed: 1 },
        ] {
            let r = run(lb);
            let measured: Vec<_> = r.outcomes.iter().filter(|o| o.is_measured()).collect();
            assert_eq!(measured.len(), 264, "{lb:?}");
            let mut ids: Vec<u64> = measured.iter().map(|o| o.id.0).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 264, "{lb:?}: each call served exactly once");
            let nodes: std::collections::BTreeSet<u16> = measured.iter().map(|o| o.node).collect();
            assert_eq!(nodes.len(), 3, "{lb:?}: every node serves traffic");
            let again = run(lb);
            assert_eq!(r.outcomes, again.outcomes, "{lb:?} rerun");
        }
    }

    #[test]
    fn failover_moves_retries_across_nodes_and_conserves_calls() {
        // Crash node 0 mid-burst with a strict no-local-timeout policy:
        // killed attempts must resume on the surviving nodes, and every
        // call still resolves exactly once cluster-wide.
        let cat = catalogue();
        let spec = streamed_spec(660);
        let faults = crash_faults(21);
        let cfg = ClusterConfig::independent(3, NodeConfig::paper(10), LoadBalancer::RoundRobin)
            .coupled(SimDuration::from_millis(500), true);
        let mode = NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice));
        let r = run_cluster_streamed_coupled(&cat, &spec, &mode, &cfg, &faults, 21, 22);
        let measured = r.outcomes.iter().filter(|o| o.is_measured()).count();
        let measured_drops = r.drops.iter().filter(|d| d.id.0 < 660).count();
        assert_eq!(measured + measured_drops, 660, "cluster call conservation");
        assert!(r.fault_stats.failovers > 0, "crash kills must hand off");
        assert_eq!(r.fault_stats.crashes, 1);
        // A failed-over retry lands on a healthy node: node 0 crashed, so
        // some calls released to node 0's shard complete elsewhere.
        let moved = r
            .outcomes
            .iter()
            .filter(|o| o.is_measured() && o.id.0 % 3 == 0 && o.node != 0)
            .count();
        assert!(moved > 0, "some node-0 calls must finish on other nodes");
        let again = run_cluster_streamed_coupled(&cat, &spec, &mode, &cfg, &faults, 21, 22);
        assert_eq!(r.outcomes, again.outcomes);
        assert_eq!(r.fault_stats, again.fault_stats);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn failover_requires_a_finite_lookahead() {
        let cat = catalogue();
        let faults = crash_faults(5);
        let cfg = ClusterConfig::independent(2, NodeConfig::paper(10), LoadBalancer::RoundRobin)
            .coupled(SimDuration::MAX, true);
        run_cluster_streamed_coupled(
            &cat,
            &streamed_spec(22),
            &NodeMode::Baseline,
            &cfg,
            &faults,
            1,
            2,
        );
    }

    #[test]
    fn narrower_windows_only_change_feedback_schedules() {
        // With a static policy the routing is window-invariant, so any
        // lookahead yields the same assignment (the service schedule may
        // shift only through handoff timing — disabled here). Sanity: the
        // call-to-node mapping is identical across window widths.
        let cat = catalogue();
        let spec = streamed_spec(132);
        let mode = NodeMode::Baseline;
        let node_of = |lookahead: SimDuration| {
            let cfg =
                ClusterConfig::independent(3, NodeConfig::paper(10), LoadBalancer::RoundRobin)
                    .coupled(lookahead, false);
            let r =
                run_cluster_streamed_coupled(&cat, &spec, &mode, &cfg, &FaultSpec::none(), 3, 4);
            let mut v: Vec<(u64, u16)> = r
                .outcomes
                .iter()
                .filter(|o| o.is_measured())
                .map(|o| (o.id.0, o.node))
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(
            node_of(SimDuration::from_millis(100)),
            node_of(SimDuration::MAX)
        );
    }
}
