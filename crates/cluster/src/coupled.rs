//! The cluster engine: one conservative-window loop behind every entry
//! point, with feedback load balancing and cross-node failover, streamed
//! through persistent node workers when no window needs a barrier.
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
//! The engine bounds that coupling with the classic conservative lookahead
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
//!     3. every node injects its deliveries and advances   (sequential)
//!        to `horizon`
//!     4. collect the nodes' failover outboxes             (sequential)
//! }
//! ```
//!
//! Step 1 routes every arrival through one [`Router`], whatever the
//! balancer; step 2 places each handoff by `failover_target`. Both see
//! the [`NodeProgress`] snapshots of the previous
//! barrier plus the calls routed since — a stale-by-at-most-one-
//! window view, exactly the staleness a real controller's health polling
//! has. Only a streamed run (below) steps nodes in parallel, and then
//! overlaps step 3 with step 1 of later windows. Each node's simulator is
//! self-contained, so the run is a pure function of `(seed, lookahead,
//! chunk)`: bit-identical across reruns *and thread counts*. Narrower
//! windows give the controller fresher queue signals; wider windows
//! amortize barrier overhead. With
//! `lookahead = `[`SimDuration::MAX`] only the ingestion cap cuts windows —
//! the paper's §VIII setting of static round-robin over independent
//! workers.
//!
//! [`NodeProgress`]: faas_invoker::NodeProgress
//! [`SimDuration::MAX`]: faas_simcore::time::SimDuration::MAX
//! [`SimTime::MAX`]: faas_simcore::time::SimTime::MAX
//! [`Lookahead::failover`]: crate::sim::Lookahead::failover
//!
//! # The ingestion cap
//!
//! A window routes at most `chunk` arrivals, so the controller never holds
//! more than one chunk of routed calls in the window loop, and at most two
//! per node worker in a streamed run (see below), whatever the stream's
//! length: a trace at infinite lookahead is paged, never materialized. A
//! window the cap cuts short ends one nanosecond before the next unrouted
//! release, so the nodes stop before any work at that release, even with
//! a zero dispatch hop. A late call's arrival event then queues behind
//! events already scheduled for its instant, where injecting every call up
//! front would put it first; only an exact nanosecond tie between an
//! arrival and another event can tell the two apart. Service and
//! cold-start times are continuous draws, so for a static policy the
//! outcomes are the same for every `chunk` — the pinned digests and the
//! configuration-space property hold it — and only `peak_events` sees the
//! shorter event queues.
//!
//! # Node workers
//!
//! A streamed run splits the nodes into as many contiguous chunks as the
//! run has threads (at most one per node); every other run steps them all
//! on the calling thread.
//!
//! **Streamed runs.** A static balancer at infinite lookahead (which rules
//! out failover) routes without reading node state, and every horizon is
//! either [`SimTime::MAX`] or just before the next unrouted release, so
//! the windows are fixed by the arrivals alone: no node can affect another
//! node or the routing, and nothing needs a barrier (Nicol, JACM 1993;
//! Fujimoto, CACM 1990). On two or more threads such a run streams: one
//! persistent worker per chunk owns its nodes for the whole run, and the
//! controller routes ahead, sending each worker its nodes' batches and the
//! window's horizon over a bounded channel. A worker steps every window
//! in order through the same `NodeWork::step` as the loop, so each node
//! sees the loop's inject/advance sequence and every result field,
//! `peak_events` and `peak_live_calls` included, is the one-thread run's.
//! The channel holds one window, so at most two of a worker's windows are
//! routed and not yet stepped: one queued and one being routed. The
//! controller only routes, so a streamed run has one thread more than its
//! thread count; on a 2-vCPU host that beat letting the controller step
//! chunk 0 between windows, whose routing then held up its own nodes. A
//! panic on a worker resumes on the caller once every worker has stopped.
//! The paper's §VIII runs (fig5, fig6) and azure-replay stream.
//!
//! **Coupled and feedback runs**, and every run on one thread, step each
//! window inline: the calling thread advances every node in node order,
//! whatever the run's thread count.
//!
//! # Cross-node failover
//!
//! With [`Lookahead::failover`] on, a failed attempt with retries left
//! leaves its node as a [`Handoff`] instead of backing off locally. The
//! engine collects outboxes at each barrier and re-injects every due
//! handoff on the least-loaded healthy node (lowest index on ties,
//! preferring nodes other than the one that failed), no earlier than the
//! barrier at which it was collected — failover cannot run ahead of the
//! window protocol, which is why only a finite lookahead can carry it
//! (every entry point rejects failover at [`SimDuration::MAX`] with
//! [`std::io::ErrorKind::InvalidInput`]). The
//! attempt counter carries across nodes: a policy of `n` attempts spends
//! `n` attempts cluster-wide.

use crate::lb::{NodeView, Router};
use crate::trace_run::Run;
use faas_invoker::{Handoff, NodeResult, NodeSim};
use faas_simcore::time::{SimDuration, SimTime};
use faas_workload::trace::Call;
use std::collections::VecDeque;
use std::iter::Peekable;
use std::panic::resume_unwind;
use std::sync::mpsc::sync_channel;
use std::thread::ScopedJoinHandle;

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

/// How many windows a run stepped inline on the calling thread or
/// streamed through node workers; one of the two is zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[cfg_attr(not(test), allow(dead_code))] // only the tests read the tally
pub(crate) struct Windows {
    pub(crate) inline: u64,
    pub(crate) streamed: u64,
}

/// Split `items` into the chunks `bounds[k]..bounds[k + 1]`.
fn chunks<'a, T>(mut items: &'a mut [T], bounds: &[usize]) -> Vec<&'a mut [T]> {
    let chunks = bounds.windows(2).map(|b| {
        let (chunk, rest) = std::mem::take(&mut items).split_at_mut(b[1] - b[0]);
        items = rest;
        chunk
    });
    chunks.collect()
}

/// Join every worker, then resume the first one's panic, if any, on the
/// caller.
fn join_all(workers: Vec<ScopedJoinHandle<'_, ()>>) {
    let panics: Vec<_> = workers.into_iter().filter_map(|w| w.join().err()).collect();
    if let Some(panic) = panics.into_iter().next() {
        resume_unwind(panic);
    }
}

/// One nanosecond before `t` (clamped at zero): where a window the
/// ingestion cap cut short ends (see the module docs).
fn just_before(t: SimTime) -> SimTime {
    SimTime::from_nanos(t.as_nanos().saturating_sub(1))
}

/// The controller's routing state: the arrivals not yet routed, in
/// `(release, id)` order, the balancer, and its view of the nodes.
struct Controller<I: Iterator<Item = Call>> {
    arrivals: Peekable<I>,
    router: Router,
    /// The most arrivals one window routes.
    chunk: usize,
    /// Each node's backlog at the last barrier plus the calls routed there
    /// since (self-feedback within a window), and its last observed
    /// liveness.
    views: Vec<NodeView>,
}

impl<I: Iterator<Item = Call>> Controller<I> {
    /// Step 1 of a window: route at most `chunk` of the arrivals released
    /// by `horizon`, handing each to `deliver` with its node, in `(release,
    /// id)` order. Returns the window's horizon: `horizon`, or just before
    /// the next release if the cap left one at or before it.
    fn route(&mut self, horizon: SimTime, mut deliver: impl FnMut(usize, Call)) -> SimTime {
        for _ in 0..self.chunk {
            let Some(call) = self.arrivals.next_if(|c| c.release <= horizon) else {
                break;
            };
            let node = self.router.route(&call, &self.views) as usize;
            self.views[node].backlog += 1;
            deliver(node, call);
        }
        match self.arrivals.peek() {
            Some(next) if next.release <= horizon => just_before(next.release),
            _ => horizon,
        }
    }
}

/// Stream a run whose routing and horizons read no node state (see the
/// module docs) through persistent workers: worker `k` owns the nodes
/// `bounds[k]..bounds[k + 1]` for the whole run and steps every window
/// through [`NodeWork::step`], while the calling thread routes ahead. Each
/// worker's channel holds one window, so at most two of its windows are
/// routed and not yet stepped: one queued, one being routed. A panic on a
/// worker resumes on the caller once every worker has stopped. Returns
/// the number of windows.
fn stream<I: Iterator<Item = Call>>(
    nodes: &mut [NodeSim],
    bounds: &[usize],
    controller: &mut Controller<I>,
) -> u64 {
    std::thread::scope(|scope| {
        let (senders, workers): (Vec<_>, Vec<_>) = chunks(nodes, bounds)
            .into_iter()
            .map(|own| {
                let (tx, rx) = sync_channel::<(Vec<Vec<Call>>, SimTime)>(1);
                let worker = scope.spawn(move || {
                    let mut work: Vec<NodeWork> = own.iter().map(NodeWork::new).collect();
                    for (batches, horizon) in rx {
                        for ((node, w), batch) in own.iter_mut().zip(&mut work).zip(batches) {
                            w.batch = batch;
                            w.step(node, horizon);
                        }
                    }
                });
                (tx, worker)
            })
            .unzip();
        let mut batches: Vec<Vec<Call>> = vec![Vec::new(); bounds[bounds.len() - 1]];
        let mut windows = 0;
        // An infinite lookahead puts every horizon at `SimTime::MAX`
        // unless the cap cuts it, so the window that routes the last
        // arrival runs every node dry: the loop's windows exactly.
        'windows: loop {
            let horizon = controller.route(SimTime::MAX, |node, call| batches[node].push(call));
            windows += 1;
            for (tx, b) in senders.iter().zip(bounds.windows(2)) {
                let window = batches[b[0]..b[1]].iter_mut().map(std::mem::take);
                if tx.send((window.collect(), horizon)).is_err() {
                    break 'windows; // the worker panicked
                }
            }
            if horizon == SimTime::MAX {
                break;
            }
        }
        drop(senders);
        join_all(workers);
        windows
    })
}

/// The one window loop behind every entry point: `run`'s nodes, routed
/// by its balancer through windows of its lookahead. Arrivals must come in
/// `(release, id)` order; a window routes at most `run.chunk` of them. A
/// run whose routing and horizons read no node state streams on
/// `run.threads` node workers, clamped to `[1, nodes]`, when that is two
/// or more; every other run steps each window inline on the calling thread
/// (see the module docs). Returns each node's result and the run's window
/// tally.
pub(crate) fn coupled_engine(
    mut nodes: Vec<NodeSim>,
    arrivals: impl Iterator<Item = Call>,
    run: &Run,
) -> (Vec<NodeResult>, Windows) {
    let mut work: Vec<NodeWork> = nodes.iter().map(NodeWork::new).collect();
    let mut controller = Controller {
        arrivals: arrivals.peekable(),
        router: Router::new(run.cfg.lb),
        chunk: run.chunk,
        views: work.iter().map(|w| w.view).collect(),
    };
    let lookahead = run.cfg.lookahead;
    let threads = run.threads.clamp(1, nodes.len());
    let mut tally = Windows::default();
    let independent =
        !run.cfg.lb.is_feedback() && lookahead.width() == SimDuration::MAX && !lookahead.failover();
    if independent && threads > 1 {
        // Chunk k holds nodes[bounds[k]..bounds[k + 1]].
        let bounds: Vec<usize> = (0..=threads).map(|k| k * nodes.len() / threads).collect();
        tally.streamed = stream(&mut nodes, &bounds, &mut controller);
        return (nodes.into_iter().map(|n| n.finish()).collect(), tally);
    }
    // Collected but not yet delivered handoffs, sorted by (due, id).
    let mut pending: VecDeque<Handoff> = VecDeque::new();
    let mut barrier = SimTime::ZERO;
    loop {
        // The earliest pending work anywhere bounds the next window.
        let t = work.iter().filter_map(|w| w.next_event);
        let t = t.chain(controller.arrivals.peek().map(|c| c.release));
        let Some(t) = t.chain(pending.front().map(|h| h.due)).min() else {
            break;
        };

        // 1. Route this window's arrivals, at most `chunk`. Batches stay
        // (release, id)-sorted because arrivals come in that order.
        let horizon = controller.route(t + lookahead.width(), |node, call| {
            work[node].batch.push(call);
        });
        // 2. Deliver due handoffs, never earlier than the barrier they
        // were collected at (the engine cannot deliver into a window that
        // already ran).
        let views = &mut controller.views;
        while pending.front().is_some_and(|h| h.due <= horizon) {
            let h = pending.pop_front().expect("checked");
            let target = failover_target(views, h.from);
            views[target].backlog += 1;
            work[target].handoffs.push((h, h.due.max(barrier)));
        }

        // 3. Advance every node to the horizon, in node order.
        tally.inline += 1;
        for (node, w) in nodes.iter_mut().zip(&mut work) {
            w.step(node, horizon);
        }

        // 4. Collect failover outboxes in node order (deterministic), keep
        // the pending list sorted by (due, id).
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
    (nodes.into_iter().map(|n| n.finish()).collect(), tally)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lb::LoadBalancer;
    use crate::sim::{ClusterConfig, ClusterScenario};
    use crate::trace_run::Arrivals;
    use faas_core::{Policy, SchedulerConfig};
    use faas_invoker::{NodeConfig, NodeMode};
    use faas_simcore::time::SimDuration;
    use faas_workload::arrival::ArrivalSpec;
    use faas_workload::faults::{CapacityRamp, FaultSpec};
    use faas_workload::generate::{ShardedGenerator, WorkloadSpec};
    use faas_workload::mix::MixSpec;
    use faas_workload::scenario::warmup_waves;
    use faas_workload::sebs::Catalogue;
    use faas_workload::synth::{SynthSpec, SyntheticTrace};
    use faas_workload::trace_source::{TraceSource, TraceSpec, WorkloadSource};
    use faas_workload::weight::{WeightSpec, WeightTable};
    use proptest::prelude::*;

    fn catalogue() -> Catalogue {
        Catalogue::sebs()
    }

    fn fair_choice() -> NodeMode {
        NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice))
    }

    /// A `count`-call uniform spec run on two workers, every burst in one
    /// ingestion chunk.
    fn run(
        count: usize,
        mode: &NodeMode,
        cfg: &ClusterConfig,
        faults: &FaultSpec,
        (scenario_seed, sim_seed): (u64, u64),
    ) -> NodeResult {
        let cat = catalogue();
        let source = WorkloadSource::Spec(WorkloadSpec {
            arrival: ArrivalSpec::Uniform { count },
            mix: MixSpec::Equal,
            weights: WeightSpec::Uniform,
            window: SimDuration::from_secs(60),
        });
        let run = Run {
            threads: 2,
            ..Run::new(&cat, mode, cfg, faults, sim_seed, 8192)
        };
        let results = run.source(&source, scenario_seed);
        NodeResult::merge(results.expect("spec sources cannot fail"))
    }

    fn crash_faults(seed: u64) -> FaultSpec {
        let (_, burst_start) = warmup_waves(&catalogue());
        let mut faults = FaultSpec::crash_restart(seed, burst_start, SimDuration::from_secs(60));
        faults.transient_failure = 0.05;
        faults
    }

    /// Two runs of one node produced the same result.
    fn same(a: &NodeResult, b: &NodeResult, what: &str) {
        assert_eq!(a.outcomes, b.outcomes, "{what}");
        assert_eq!(a.drops, b.drops, "{what}");
        assert_eq!(a.fault_stats, b.fault_stats, "{what}");
        assert_eq!(a.peak_events, b.peak_events, "{what}");
        assert_eq!(a.peak_live_calls, b.peak_live_calls, "{what}");
        assert_eq!(a.served_cpu_secs, b.served_cpu_secs, "{what}");
        assert_eq!(a.served_mem_units, b.served_mem_units, "{what}");
        assert_eq!(a.peak_resident_calls, b.peak_resident_calls, "{what}");
    }

    /// The span of the property's workloads; its faults fire inside it.
    const SPAN: SimDuration = SimDuration::from_secs(30);

    /// The benchmark's faulted-cluster shape on `nodes` nodes, for a
    /// workload starting at `start`: a crash on node 0, a capacity ramp on
    /// the last node, transient failures.
    fn ramp_and_crash_faults(nodes: u16, start: SimTime) -> FaultSpec {
        let mut faults = FaultSpec::crash_restart(43, start, SPAN);
        faults.transient_failure = 0.05;
        faults.capacity.push(CapacityRamp {
            node: Some(nodes - 1),
            start: start + SimDuration::from_secs(10),
            floor: 0.5,
            steps_down: 2,
            step_every: SimDuration::from_secs(2),
            hold: SimDuration::from_secs(10),
            steps_up: 3,
        });
        faults.validate();
        faults
    }

    proptest! {
        // Each case runs a few hundred calls through up to four cluster
        // runs; keep the case count in the tens.
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Over the configuration space — node mode, all six balancers,
        /// 1–5 nodes, unbounded or finite lookahead, no faults or a crash
        /// with transient failures and a capacity ramp, failover on a
        /// finite lookahead with faults, uniform or memory-tiered weights, a spec or a synthetic
        /// trace, 1–8 threads and a chunk of 1–256:
        ///
        /// * every issued call is measured or dropped exactly once;
        /// * a rerun, and the run on one thread, reproduce every node's
        ///   result;
        /// * a trace's cursor holds at most one chunk, a spec's none;
        /// * a static balancer without failover gives the same outcomes at
        ///   any chunk and lookahead as with the whole workload in one
        ///   unbounded window, and round-robin keeps every call on its id
        ///   stride.
        #[test]
        fn coupled_runs_conserve_calls_and_are_thread_chunk_and_window_invariant(
            seed in any::<u64>(),
            scheduled in any::<bool>(),
            balancer in 0usize..6,
            nodes in 1u16..6,
            window_ms in prop_oneof![Just(None), (10u64..1000).prop_map(Some)],
            failover in any::<bool>(),
            faulty in any::<bool>(),
            tiered in any::<bool>(),
            trace in any::<bool>(),
            rate in 2.0f64..10.0,
            threads in 1usize..9,
            chunk in prop_oneof![1usize..8, 8usize..257]
        ) {
            let cat = catalogue();
            let lb = [
                LoadBalancer::RoundRobin,
                LoadBalancer::FunctionHash,
                LoadBalancer::JoinShortestQueue { seed },
                LoadBalancer::PowerOfTwoChoices { seed },
                LoadBalancer::JoinShortestDominant { seed },
                LoadBalancer::PowerOfTwoDominant { seed },
            ][balancer];
            let mut node = NodeConfig::paper(10);
            if tiered {
                node = node.with_mem_bandwidth(8.0);
            }
            let independent = ClusterConfig::independent(nodes, node, lb);
            // Failover needs a finite window and a fault plan.
            let failover = failover && faulty && window_ms.is_some();
            let cfg = match window_ms {
                Some(ms) => independent.coupled(SimDuration::from_millis(ms), failover),
                None => independent,
            };
            let mode = if scheduled { fair_choice() } else { NodeMode::Baseline };
            let (source, start, issued) = if trace {
                let synth = SynthSpec::azure(rate, SPAN);
                let issued = SyntheticTrace::new(&synth, &cat, SimTime::ZERO, seed).len();
                (WorkloadSource::Trace(TraceSpec::Synthetic(synth)), SimTime::ZERO, issued)
            } else {
                let weights = if tiered {
                    WeightSpec::paper_tiers_mem()
                } else {
                    WeightSpec::Uniform
                };
                let spec = WorkloadSpec {
                    arrival: ArrivalSpec::Poisson { rate },
                    mix: MixSpec::Zipf { s: 1.1 },
                    weights,
                    window: SPAN,
                };
                let (_, start) = warmup_waves(&cat);
                let issued = ShardedGenerator::new(&spec, &cat, start, seed).len();
                (WorkloadSource::Spec(spec), start, issued)
            };
            let faults = if faulty {
                ramp_and_crash_faults(nodes, start)
            } else {
                FaultSpec::none()
            };
            let run = |threads, chunk, cfg: &ClusterConfig| {
                let run = Run { threads, ..Run::new(&cat, &mode, cfg, &faults, !seed, chunk) };
                run.source(&source, seed).expect("synthetic sources cannot fail")
            };
            let results = run(threads, chunk, &cfg);
            prop_assert_eq!(results.len(), nodes as usize);

            let mut ids: Vec<u64> = results
                .iter()
                .flat_map(|r| {
                    let dropped = r.drops.iter().map(|d| d.id.0).filter(|&id| id < issued);
                    r.measured().map(|o| o.id.0).chain(dropped)
                })
                .collect();
            ids.sort_unstable();
            prop_assert_eq!(ids, (0..issued).collect::<Vec<u64>>(), "each call once");
            let crashes: u64 = results.iter().map(|r| r.fault_stats.crashes).sum();
            prop_assert_eq!(crashes, faulty as u64);
            let resident = results[0].peak_resident_calls;
            if trace {
                prop_assert!(resident <= chunk as u64 && (resident > 0) == (issued > 0));
            } else {
                prop_assert_eq!(resident, 0, "a spec is materialized");
            }

            for (what, threads) in [("rerun", threads), ("one thread", 1)] {
                for (a, b) in run(threads, chunk, &cfg).iter().zip(&results) {
                    same(a, b, what);
                }
            }

            if !lb.is_feedback() && !failover {
                let whole = run(threads, usize::MAX, &independent);
                for (a, b) in results.iter().zip(&whole) {
                    prop_assert_eq!(&a.outcomes, &b.outcomes, "chunk and lookahead");
                    prop_assert_eq!(&a.drops, &b.drops, "chunk and lookahead");
                }
                if lb == LoadBalancer::RoundRobin {
                    let on_stride = results
                        .iter()
                        .flat_map(|r| r.measured())
                        .all(|o| o.node as u64 == o.id.0 % nodes as u64);
                    prop_assert!(on_stride, "round-robin strides the ids");
                }
            }
        }
    }

    /// Each node's result and the run's window tally for a crash and
    /// transient failures on four nodes behind `lb` at infinite lookahead,
    /// on `threads` threads with windows of at most `chunk` arrivals:
    /// Fair-Choice nodes on an Azure-style trace, or baseline nodes on a
    /// spec's burst after the warm-up waves.
    fn independent_run(
        trace: bool,
        lb: LoadBalancer,
        threads: usize,
        chunk: usize,
    ) -> (Vec<NodeResult>, Windows) {
        let cat = catalogue();
        let cfg = ClusterConfig::independent(4, NodeConfig::paper(10), lb);
        let seed = 29;
        if trace {
            let mut faults = FaultSpec::crash_restart(seed, SimTime::ZERO, SPAN);
            faults.transient_failure = 0.05;
            let mode = fair_choice();
            let run = Run {
                threads,
                ..Run::new(&cat, &mode, &cfg, &faults, seed, chunk)
            };
            let source = TraceSpec::Synthetic(SynthSpec::azure(8.0, SPAN));
            let trace = source.open(&cat, SimTime::ZERO, seed);
            run.execute(Arrivals::Trace(trace.as_ref()))
        } else {
            let spec = WorkloadSpec {
                arrival: ArrivalSpec::Poisson { rate: 8.0 },
                mix: MixSpec::Zipf { s: 1.1 },
                weights: WeightSpec::paper_tiers_mem(),
                window: SPAN,
            };
            let (warmup_waves, start) = warmup_waves(&cat);
            let mut faults = FaultSpec::crash_restart(seed, start, SPAN);
            faults.transient_failure = 0.05;
            let mut burst = ShardedGenerator::new(&spec, &cat, start, seed).generate_serial();
            burst.sort_by_key(|c| (c.release, c.id));
            let scenario = ClusterScenario {
                burst,
                burst_start: start,
                burst_window: spec.window,
                warmup_waves,
            };
            let (mode, weights) = (NodeMode::Baseline, spec.weights.table(&cat));
            let run = Run {
                threads,
                ..Run::new(&cat, &mode, &cfg, &faults, seed, chunk)
            };
            run.execute(Arrivals::Burst(&scenario, &weights))
        }
    }

    #[test]
    fn streamed_runs_match_the_one_thread_window_loop() {
        // Every field of every node's result, its debug form printing each
        // float to the bit, equals the one-thread run's, and the streamed
        // windows are the loop's windows. Three threads split four nodes
        // unevenly; eight are clamped to four.
        for (trace, lb) in [
            (true, LoadBalancer::RoundRobin),
            (false, LoadBalancer::FunctionHash),
        ] {
            for chunk in [1, 64] {
                let (serial, one) = independent_run(trace, lb, 1, chunk);
                assert_eq!(one.streamed, 0);
                let crashes: u64 = serial.iter().map(|r| r.fault_stats.crashes).sum();
                assert_eq!(crashes, 1, "the crash fires");
                let failures: u64 = serial
                    .iter()
                    .map(|r| r.fault_stats.transient_failures)
                    .sum();
                assert!(failures > 0, "transient failures fire");
                for threads in [2, 3, 8] {
                    let (streamed, tally) = independent_run(trace, lb, threads, chunk);
                    let what = format!("trace {trace}, chunk {chunk}, {threads} threads");
                    let windows = Windows {
                        streamed: one.inline,
                        ..Windows::default()
                    };
                    assert_eq!(tally, windows, "{what}");
                    assert_eq!(format!("{streamed:?}"), format!("{serial:?}"), "{what}");
                }
            }
        }
    }

    /// Stream three independent nodes on two threads, one window per
    /// call, through a window that injects a call into `node` after its
    /// clock has passed the call's release. Round-robin strides the ids:
    /// ids `node` and `node + 3` land on `node`. The call at 10 s comes
    /// first, the next window (a call at 20 s on another node) ends just
    /// before 20 s, so `node`'s clock passes 10 s; the call released at
    /// 1 s then reaches `node`, which panics there.
    fn late_call_in_a_streamed_run(node: u64) {
        use faas_workload::sebs::FuncId;
        use faas_workload::trace::{CallId, CallKind};
        let cat = catalogue();
        let cfg = ClusterConfig::independent(3, NodeConfig::paper(10), LoadBalancer::RoundRobin);
        let call = |id, secs| Call {
            id: CallId(id),
            func: FuncId(0),
            release: SimTime::from_secs(secs),
            kind: CallKind::Measured,
        };
        let other = (node + 1) % 3;
        let burst = vec![call(node, 10), call(other, 20), call(node + 3, 1)];
        let scenario = ClusterScenario {
            burst,
            burst_start: SimTime::ZERO,
            burst_window: SimDuration::from_secs(20),
            warmup_waves: Vec::new(),
        };
        let (mode, weights, faults) = (
            NodeMode::Baseline,
            WeightTable::uniform(cat.len()),
            FaultSpec::none(),
        );
        let run = Run {
            threads: 2,
            ..Run::new(&cat, &mode, &cfg, &faults, 1, 1)
        };
        run.execute(Arrivals::Burst(&scenario, &weights));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn a_streamed_worker_panic_resumes_on_the_caller() {
        // The run must end with the worker's own panic, once the other
        // worker has stopped too.
        late_call_in_a_streamed_run(2);
    }

    /// Each node's result and the run's window tally for on-off bursts
    /// on `threads` threads: dense bursts between sparse stretches, on
    /// four dominant-share-routed nodes with failover through a crash.
    fn bursty_run(threads: usize) -> (Vec<NodeResult>, Windows) {
        let cat = catalogue();
        let spec = WorkloadSpec {
            arrival: ArrivalSpec::Mmpp {
                rate_on: 1600.0,
                rate_off: 2.0,
                mean_on_secs: 0.5,
                mean_off_secs: 10.0,
            },
            mix: MixSpec::Zipf { s: 1.1 },
            weights: WeightSpec::paper_tiers_mem(),
            window: SimDuration::from_secs(30),
        };
        let mut burst = ShardedGenerator::new(&spec, &cat, SimTime::ZERO, 17).generate_serial();
        burst.sort_by_key(|c| (c.release, c.id));
        let scenario = ClusterScenario {
            burst,
            burst_start: SimTime::ZERO,
            burst_window: spec.window,
            warmup_waves: Vec::new(),
        };
        let mut faults = FaultSpec::crash_restart(3, SimTime::ZERO, spec.window);
        faults.transient_failure = 0.05;
        let node = NodeConfig::paper(10).with_mem_bandwidth(8.0);
        let cfg =
            ClusterConfig::independent(4, node, LoadBalancer::JoinShortestDominant { seed: 5 })
                .coupled(SimDuration::from_millis(250), true);
        let (mode, weights) = (NodeMode::Baseline, spec.weights.table(&cat));
        let run = Run {
            threads,
            ..Run::new(&cat, &mode, &cfg, &faults, 9, 8192)
        };
        run.execute(Arrivals::Burst(&scenario, &weights))
    }

    #[test]
    fn coupled_runs_step_inline_at_every_thread_count() {
        // A coupled run steps every window on the calling thread, so its
        // window count and every field of every node's result, compared
        // through the debug form, are the one-thread run's.
        let (serial, one) = bursty_run(1);
        for threads in [1, 2, 3, 4, 8] {
            let (parallel, tally) = bursty_run(threads);
            let what = format!("{threads} threads");
            let windows = Windows {
                inline: one.inline,
                streamed: 0,
            };
            assert_eq!(tally, windows, "{what}");
            let failovers: u64 = parallel.iter().map(|r| r.fault_stats.failovers).sum();
            assert!(failovers > 0, "{what}");
            assert_eq!(format!("{parallel:?}"), format!("{serial:?}"), "{what}");
        }
    }

    #[test]
    fn feedback_policies_spread_the_load_and_differ_from_round_robin() {
        // On memory-bandwidth nodes every policy, backlog- or
        // dominant-share-keyed, has every node serve traffic; JSQ routes
        // differently from round-robin, and its global minimum differently
        // from two probes.
        let mode = fair_choice();
        let node = NodeConfig::paper(10).with_mem_bandwidth(4.0);
        let run = |lb: LoadBalancer| {
            let cfg = ClusterConfig::independent(3, node, lb)
                .coupled(SimDuration::from_millis(500), false);
            run(264, &mode, &cfg, &FaultSpec::none(), (9, 10))
        };
        let rr = run(LoadBalancer::RoundRobin);
        let jsq = run(LoadBalancer::JoinShortestQueue { seed: 1 });
        let p2c = run(LoadBalancer::PowerOfTwoChoices { seed: 1 });
        let jsd = run(LoadBalancer::JoinShortestDominant { seed: 1 });
        let p2d = run(LoadBalancer::PowerOfTwoDominant { seed: 1 });
        for r in [&rr, &jsq, &p2c, &jsd, &p2d] {
            let nodes: std::collections::BTreeSet<u16> = r.measured().map(|o| o.node).collect();
            assert_eq!(nodes.len(), 3, "every node serves traffic");
        }
        assert_ne!(rr.outcomes, jsq.outcomes, "JSQ must route differently");
        assert_ne!(
            jsq.outcomes, p2c.outcomes,
            "two probes differ from global min"
        );
    }

    #[test]
    fn failover_moves_retries_across_nodes_and_conserves_calls() {
        // Crash node 0 mid-burst: killed attempts must resume on the
        // surviving nodes, and every call still resolves exactly once
        // cluster-wide.
        let faults = crash_faults(21);
        let cfg = ClusterConfig::independent(3, NodeConfig::paper(10), LoadBalancer::RoundRobin)
            .coupled(SimDuration::from_millis(500), true);
        let r = run(660, &fair_choice(), &cfg, &faults, (21, 22));
        let measured = r.measured().count();
        let measured_drops = r.drops.iter().filter(|d| d.id.0 < 660).count();
        assert_eq!(measured + measured_drops, 660, "cluster call conservation");
        assert!(r.fault_stats.failovers > 0, "crash kills must hand off");
        assert_eq!(r.fault_stats.crashes, 1);
        // A failed-over retry lands on a healthy node: node 0 crashed, so
        // some calls released to node 0's shard complete elsewhere.
        let moved = r
            .measured()
            .filter(|o| o.id.0 % 3 == 0 && o.node != 0)
            .count();
        assert!(moved > 0, "some node-0 calls must finish on other nodes");
    }
}
