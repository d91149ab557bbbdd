//! The cluster engine: one conservative-window loop behind every entry
//! point, with feedback load balancing and cross-node failover.
//!
//! # The conservative-window protocol
//!
//! Nodes interact only through the controller. Under a *static* policy
//! nothing a node does can influence another node or the routing, so any
//! window width yields the same per-node schedules. Feedback load
//! balancing and cross-node failover break that independence: the
//! controller's routing decision for a call depends on node state *at the
//! call's release time*, and a failed attempt may resume on a different
//! node.
//!
//! The engine keeps parallelism with the classic conservative lookahead
//! argument of parallel discrete-event simulation. Every controller→node
//! delivery charges at least one network hop, so events on one node cannot
//! affect another within less than the hop latency. The engine therefore
//! advances all nodes in lock-step windows:
//!
//! ```text
//! loop {
//!     t       = earliest pending work anywhere
//!               (node event, unrouted arrival, undelivered handoff)
//!     horizon = t + lookahead
//!     1. route the arrivals with release <= horizon,       (sequential)
//!        at most `chunk` of them; a full window ends
//!        1 ns before the next unrouted release
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
//! self-contained, so the run is a pure function of `(seed, lookahead,
//! chunk)`: bit-identical across reruns *and thread counts*. Narrower
//! windows give the controller fresher queue signals; wider windows
//! amortize barrier overhead. With `lookahead = `[`SimDuration::MAX`] only
//! the ingestion cap cuts windows — the paper's §VIII setting of static
//! round-robin over independent workers.
//!
//! [`NodeProgress`]: faas_invoker::NodeProgress
//!
//! # The ingestion cap
//!
//! A window routes at most `chunk` arrivals, so the controller never holds
//! more than one chunk of routed calls whatever the stream's length: a
//! trace at infinite lookahead is paged, never materialized. A window the
//! cap cuts short ends one nanosecond before the next unrouted release, so
//! the nodes stop before any work at that release, even with a zero
//! dispatch hop. A late call's arrival event then queues behind events
//! already scheduled for its instant, where injecting every call up front
//! would put it first; only an exact nanosecond tie between an arrival and
//! another event can tell the two apart. Service and cold-start times are
//! continuous draws, so for a static policy the outcomes are the same for
//! every `chunk` — the pinned digests and the chunk-invariance tests hold
//! it — and only `peak_events` sees the shorter event queues.
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
use crate::sim::{node_seeds, ClusterConfig};
use faas_invoker::{Handoff, NodeMode, NodeResult, NodeSim};
use faas_simcore::time::{SimDuration, SimTime};
use faas_workload::faults::FaultSpec;
use faas_workload::sebs::{Catalogue, FuncId};
use faas_workload::trace::Call;
use faas_workload::weight::WeightTable;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

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

/// One nanosecond before `t` (clamped at zero): where a window the
/// ingestion cap cut short ends (see the module docs).
fn just_before(t: SimTime) -> SimTime {
    SimTime::from_nanos(t.as_nanos().saturating_sub(1))
}

/// The one window loop behind every entry point. Arrivals must come in
/// `(release, id)` order; a window routes at most `chunk` of them;
/// `threads` is clamped to `[1, nodes]`.
pub(crate) fn coupled_engine(
    mut nodes: Vec<NodeSim>,
    cfg: &ClusterConfig,
    arrivals: impl Iterator<Item = Call>,
    mut routing: Routing,
    chunk: usize,
    threads: usize,
) -> Vec<NodeResult> {
    assert!(cfg.nodes > 0, "cluster needs at least one node");
    assert!(chunk > 0, "ingestion window must hold at least one call");
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
                let mut horizon = t + cfg.lookahead; // saturates at SimTime::MAX

                // 1. Route this window's arrivals, at most `chunk`. Batches
                // stay (release, id)-sorted because arrivals come in that
                // order. A full window ends just before the next release.
                for _ in 0..chunk {
                    let Some(call) = arrivals.next_if(|c| c.release <= horizon) else {
                        break;
                    };
                    let node = routing.route(&call, &views);
                    views[node].backlog += 1;
                    work[node].batch.push(call);
                }
                if let Some(next) = arrivals.peek().filter(|c| c.release <= horizon) {
                    horizon = just_before(next.release);
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
    use crate::trace_run::{spec_nodes, trace_nodes};
    use faas_core::{Policy, SchedulerConfig};
    use faas_invoker::NodeConfig;
    use faas_workload::arrival::ArrivalSpec;
    use faas_workload::faults::CapacityRamp;
    use faas_workload::generate::WorkloadSpec;
    use faas_workload::mix::MixSpec;
    use faas_workload::scenario::warmup_waves as warmup_waves_for;
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

    /// A spec run on two workers, every burst in one ingestion chunk.
    fn run(
        cat: &Catalogue,
        spec: &WorkloadSpec,
        mode: &NodeMode,
        cfg: &ClusterConfig,
        faults: &FaultSpec,
        seeds: (u64, u64),
    ) -> NodeResult {
        NodeResult::merge(spec_nodes(cat, spec, mode, cfg, faults, seeds, 8192, 2))
    }

    fn crash_faults(seed: u64) -> FaultSpec {
        let (_, burst_start) = warmup_waves_for(&catalogue());
        let mut faults = FaultSpec::crash_restart(seed, burst_start, SimDuration::from_secs(60));
        faults.transient_failure = 0.05;
        faults
    }

    #[test]
    fn finite_windows_conserve_calls_and_rerun_bit_identically() {
        let cat = catalogue();
        let spec = streamed_spec(264);
        let cfg = ClusterConfig::independent(3, NodeConfig::paper(10), LoadBalancer::RoundRobin)
            .coupled(SimDuration::from_millis(250), false);
        let mode = NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice));
        let r = run(&cat, &spec, &mode, &cfg, &FaultSpec::none(), (5, 6));
        assert_eq!(
            r.outcomes.iter().filter(|o| o.is_measured()).count(),
            264,
            "windowing must not lose calls"
        );
        let again = run(&cat, &spec, &mode, &cfg, &FaultSpec::none(), (5, 6));
        assert_eq!(r.outcomes, again.outcomes);
        assert_eq!(r.peak_events, again.peak_events);
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
        let run = |threads| spec_nodes(&cat, &spec, &mode, &cfg, &faults, (7, 8), 8192, threads);
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
            let spec_run = |t| spec_nodes(&cat, &spec, &mode, &cfg, &faults, (5, 6), 8192, t);
            let trace_run = |t| trace_nodes(&cat, &trace, &mode, &cfg, &faults, 6, 32, t);
            let (spec_serial, trace_serial) = (spec_run(1), trace_run(1));
            assert_eq!(spec_serial.len(), nodes as usize);
            for threads in [2, 3, 4, 8] {
                for (a, b) in spec_run(threads).iter().zip(&spec_serial) {
                    same(a, b, &format!("spec, {nodes} nodes, {threads} threads"));
                }
                let what = format!("trace, {nodes} nodes, {threads} threads");
                for (a, b) in trace_run(threads).iter().zip(&trace_serial) {
                    same(a, b, &what);
                }
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
        coupled_engine(nodes, &cfg, arrivals.into_iter(), routing, usize::MAX, 2);
    }

    #[test]
    fn feedback_policies_route_every_call_and_differ_from_round_robin() {
        let cat = catalogue();
        let spec = streamed_spec(264);
        let mode = NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice));
        let run = |lb: LoadBalancer| {
            let cfg = ClusterConfig::independent(3, NodeConfig::paper(10), lb)
                .coupled(SimDuration::from_millis(500), false);
            run(&cat, &spec, &mode, &cfg, &FaultSpec::none(), (9, 10))
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
            run(&cat, &spec, &mode, &cfg, &FaultSpec::none(), (9, 10))
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
        let r = run(&cat, &spec, &mode, &cfg, &faults, (21, 22));
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
        let again = run(&cat, &spec, &mode, &cfg, &faults, (21, 22));
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
        run(
            &cat,
            &streamed_spec(22),
            &NodeMode::Baseline,
            &cfg,
            &faults,
            (1, 2),
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
            let r = run(&cat, &spec, &mode, &cfg, &FaultSpec::none(), (3, 4));
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
