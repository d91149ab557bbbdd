//! One invoker node: the OpenWhisk call lifecycle shared by both regimes.
//!
//! The paper changes exactly two things in the stock invoker: it queues
//! requests by their history and limits each running call to one core
//! (§IV vs §III). Everything else — the container pool, the dispatch
//! hops, retries, crashes and cross-node failover — is the same substrate.
//! [`NodeSim`] owns that substrate once; a private [`Regime`] supplies what
//! differs:
//!
//! * `crate::baseline` — the stock node: greedy placement with a FIFO
//!   overflow queue, every CPU phase time-sliced under generalized
//!   processor sharing.
//! * `crate::ours` — the paper's node: a policy-ordered pending queue in
//!   front of at most a busy limit of leased containers, each on a
//!   dedicated core, non-preemptive execution.
//!
//! A regime decides how a delivered call is admitted, how its execution
//! consumes CPU, how a capacity fault and a crash touch its CPU model, and
//! how a timed-out queue entry leaves its queue. The shell below decides
//! everything else, so the two regimes cannot drift apart on it. That
//! includes the count of busy containers: the shell's [`ContainerPool`]
//! counts every lease once, and both regimes read it — the baseline's
//! memory-bounded concurrency and the scheduled node's busy limit alike.
//! It also includes the prewarm stock: a lease that promotes a stemcell
//! schedules its one replacement (`Shell::lease`).
//!
//! # Per-call fault lifecycle
//!
//! Every call tracks its current delivery attempt and where that attempt
//! sits, in its [`CallRuntime`]. The state machine is the same in both
//! regimes; only the queued structure differs (baseline FIFO vs scheduled
//! pending queue):
//!
//! ```text
//!             begin_attempt                place
//! Idle ──────────────────────▶ Queued ──────────▶ Running ──▶ Done
//!                                │  timeout         │ crash / transient
//!                                ▼                  ▼
//!                              Backoff ◀────── fail_attempt
//!                                │ retry (attempts left)
//!                                ├──────▶ Dropped (exhausted)
//!                                └──────▶ Migrated (attempts left, cluster
//!                                         failover on: the retry leaves
//!                                         the node as a `Handoff`)
//! ```
//!
//! * **Capacity** events rescale the regime's CPU model.
//! * **Crash** kills every in-flight attempt (cold-start init or
//!   execution) and retries it per policy. Queued calls survive: the load
//!   balancer has already committed them to the invoker's topic, so they
//!   wait for the restart. Every container is lost and the node restarts
//!   cold. Timers scheduled before the crash (execution end, cleanup,
//!   prewarm) carry the incarnation they were scheduled under and are
//!   dropped when stale — correct because no attempt survives a crash.
//! * **Transient failures** are drawn per attempt when its execution ends:
//!   the work was consumed and the container still cleans up, but the
//!   response is lost and the attempt fails.
//! * The **pending timeout** abandons an attempt still queued after the
//!   policy's deadline.
//!
//! A call whose attempts are exhausted is dropped — excluded from
//! `outcomes`, reported in [`NodeResult::drops`] — so every call resolves
//! exactly once: completed XOR dropped XOR handed off.
//!
//! A fault-free run takes the same path under the inert
//! [`FaultSpec::none`] plan: its timeline is empty, its zero failure
//! probability fails no attempt without a draw, and it arms no pending
//! timeout. So no event is added, no random stream moves, and every call
//! goes `Idle → Queued → Running → Done` once.
//!
//! # Live calls
//!
//! Like the paper's invoker, which keeps per-request state only while a
//! request is queued or holds its core (§IV), a node keeps a call's
//! [`CallRuntime`] only while the call is live: in a [`LiveCalls`] window
//! from the oldest unresolved call to the newest injected one. Events,
//! the regime queues and the outcome slots keep addressing a call by its
//! injection index. A resolved call (`Done`, `Dropped` or `Migrated`)
//! retires once every older call has resolved too. The readers that can
//! still meet it are the stale ones — a lazily skipped pending-queue
//! entry, an old pending timeout — and they treat a retired call as
//! resolved. The window spans calls in flight plus those that resolved
//! behind an older live one, so under a priority policy that holds one
//! call back it also spans every later call; its peak is reported as
//! [`NodeResult::peak_live_calls`].

use crate::config::{
    NodeConfig, NodeMode, COLDSTART_WORK_SECS, PREWARM_INIT_FRACTION, PREWARM_REPLACEMENT_DELAY,
};
use crate::pool::{ContainerId, ContainerPool, PoolStats};
use crate::result::{DroppedCall, FaultStats, NodeResult};
use crate::step::{Handoff, NodeProgress};
use crate::{baseline, ours};
use faas_simcore::dist::LogNormal;
use faas_simcore::events::EventQueue;
use faas_simcore::rng::Xoshiro256;
use faas_simcore::time::{SimDuration, SimTime};
use faas_workload::faults::{DropReason, FaultEvent, FaultKind, FaultSpec};
use faas_workload::sebs::{Catalogue, FuncId};
use faas_workload::trace::{Call, CallKind, CallOutcome, ColdStartKind};
use faas_workload::weight::WeightTable;

/// Every event either regime schedules.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ev {
    /// A delivery of a call reaches the invoker (first arrival or
    /// failover handoff).
    Arrive(u32),
    /// The earliest GPS task completion is due (baseline only). It is the
    /// queue's one timer, so at most one tick is live at any time:
    /// membership changes re-arm it via [`EventQueue::set_timer`].
    GpsTick,
    /// A call's execution ends and its response leaves (the baseline's I/O
    /// phase or the scheduled node's dedicated-core run). The second field
    /// is the node incarnation the attempt ran under: a crash bumps the
    /// counter, so timers of killed attempts are recognisably stale.
    ExecDone(u32, u32),
    /// A container finishes post-response cleanup (incarnation-guarded).
    /// Carries the container, not the call: a retried call may already
    /// hold a *new* container when its failed attempt's cleanup fires.
    CleanupDone(ContainerId, u32),
    /// A prewarm replacement becomes ready (incarnation-guarded).
    PrewarmReady(u32),
    /// Fault-timeline event at this index fires.
    Fault(u32),
    /// A failed call's retry backoff expired: re-deliver the next attempt.
    Retry(u32),
    /// The pending timeout of `(call, attempt)` fired: abandon the attempt
    /// if it is still queued.
    PendingTimeout(u32, u32),
}

/// Where a call's current delivery attempt sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum FaultPhase {
    /// Not yet arrived at the invoker.
    #[default]
    Idle,
    /// Waiting in the pending structure, not yet executing.
    Queued,
    /// Executing on the node (init or execution in flight).
    Running,
    /// A failed attempt is waiting out its retry backoff.
    Backoff,
    /// Outcome written: the call completed.
    Done,
    /// Every attempt consumed: the call was dropped.
    Dropped,
    /// The call left this node as a cross-node failover handoff; it
    /// resolves (completes, drops, or migrates again) elsewhere.
    Migrated,
}

impl FaultPhase {
    /// Whether the call is resolved on this node: it can never run here
    /// again, so its runtime may retire.
    fn is_resolved(self) -> bool {
        matches!(
            self,
            FaultPhase::Done | FaultPhase::Dropped | FaultPhase::Migrated
        )
    }
}

/// Per-call runtime of the current attempt.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CallRuntime {
    /// Scheduling priority of the latest delivery (scheduled node only).
    pub priority: f64,
    pub invoker_receive: SimTime,
    pub exec_start: SimTime,
    /// Intrinsic processing time drawn for the call (contention-free).
    pub p: f64,
    pub start_kind: ColdStartKind,
    pub container: Option<ContainerId>,
    /// Delivery attempts begun so far (1-based once arrived).
    pub attempt: u32,
    /// Lifecycle position of the current attempt.
    pub phase: FaultPhase,
}

// One 48-byte slot per live call: the attempt counter and phase fit in the
// padding of the other fields, so a fault-free run pays no memory for them.
const _: () = assert!(std::mem::size_of::<CallRuntime>() == 48);

impl CallRuntime {
    /// A call that has begun `attempt` deliveries and is not yet arrived.
    const fn idle(attempt: u32) -> CallRuntime {
        CallRuntime {
            priority: 0.0,
            invoker_receive: SimTime::ZERO,
            exec_start: SimTime::ZERO,
            p: 0.0,
            start_kind: ColdStartKind::Warm,
            container: None,
            attempt,
            phase: FaultPhase::Idle,
        }
    }
}

/// The runtime of every call from the oldest unresolved one on, addressed
/// by injection index. A call resolves when it reaches `Done`, `Dropped` or
/// `Migrated`; the resolved prefix then retires, and the slots compact once
/// the retired prefix is at least half of them. So retiring costs amortized
/// O(1), an index is one subtraction, and a node holds runtime for its live
/// calls, not for every call it ever received.
#[derive(Default)]
pub(crate) struct LiveCalls {
    /// Injection index of `slots[0]`.
    base: u32,
    /// Leading slots already resolved, awaiting compaction.
    retired: usize,
    slots: Vec<CallRuntime>,
    /// Largest live window held (see [`NodeResult::peak_live_calls`]).
    peak: usize,
}

impl LiveCalls {
    fn push(&mut self, rt: CallRuntime) {
        self.slots.push(rt);
        self.peak = self.peak.max(self.slots.len() - self.retired);
    }

    /// Call `i`'s phase, or `None` once it has retired. Only the stale
    /// readers (a lazily skipped queue entry, an old pending timeout) and
    /// the crash's kill walk, whose kills may retire calls as it goes, can
    /// meet a retired call; they treat it as resolved.
    pub fn phase(&self, i: u32) -> Option<FaultPhase> {
        let k = i.checked_sub(self.base)? as usize;
        (k >= self.retired).then(|| self.slots[k].phase)
    }

    /// Injection indices of the calls not yet retired, oldest first.
    fn live(&self) -> std::ops::Range<u32> {
        self.base + self.retired as u32..self.base + self.slots.len() as u32
    }

    /// Resolve call `i` into `phase`, then retire the resolved prefix.
    fn resolve(&mut self, i: u32, phase: FaultPhase) {
        debug_assert!(phase.is_resolved());
        self[i].phase = phase;
        if (i - self.base) as usize != self.retired {
            return; // an older call is still live
        }
        while self
            .slots
            .get(self.retired)
            .is_some_and(|rt| rt.phase.is_resolved())
        {
            self.retired += 1;
        }
        if 2 * self.retired >= self.slots.len() {
            self.slots.drain(..self.retired);
            self.base += self.retired as u32;
            self.retired = 0;
        }
    }
}

impl std::ops::Index<u32> for LiveCalls {
    type Output = CallRuntime;
    /// Call `i`'s runtime. `i` must be live: a retired call panics once
    /// its slot is compacted away.
    fn index(&self, i: u32) -> &CallRuntime {
        &self.slots[(i - self.base) as usize]
    }
}

impl std::ops::IndexMut<u32> for LiveCalls {
    fn index_mut(&mut self, i: u32) -> &mut CallRuntime {
        &mut self.slots[(i - self.base) as usize]
    }
}

/// What differs between the two CPU regimes. Every hook receives the
/// shared [`Shell`]; the shell owns the call lifecycle and the container
/// pool, whose lease count is the node's busy-container count, and calls
/// these at fixed points of the lifecycle.
pub(crate) trait Regime {
    /// Stream ids of the service-time and cold-start generators, derived
    /// from the node seed.
    const RNG_STREAMS: [u64; 2];
    /// Admit call `i`'s freshly begun delivery: start it or queue it.
    fn admit(&mut self, sh: &mut Shell, now: SimTime, i: u32);
    /// Start whatever queued work now fits: a container finished cleanup
    /// and went back to the pool (its lease is already released), a
    /// prewarm container became ready, or the node restarted.
    fn drain(&mut self, sh: &mut Shell, now: SimTime);
    /// Call `i`'s execution ended: settle the CPU model and return the
    /// container's cleanup hold and the call's processing time.
    fn end_exec(&mut self, sh: &mut Shell, now: SimTime, i: u32) -> (SimDuration, SimDuration);
    /// A capacity fault scales the node's CPU to `factor` of nominal.
    fn set_capacity(&mut self, sh: &mut Shell, now: SimTime, factor: f64);
    /// The node crashed: tear down the CPU model (the shell then kills the
    /// attempts and the containers, leases included).
    fn crash(&mut self, sh: &mut Shell, now: SimTime);
    /// Call `i`'s queued attempt timed out and leaves the queue.
    fn abandon(&mut self, i: u32);
    /// The GPS completion tick fired.
    fn tick(&mut self, _sh: &mut Shell, _now: SimTime) {
        unreachable!("only the GPS regime schedules ticks")
    }
    /// Calls waiting in the regime's queue.
    fn queue_len(&self) -> usize;
    /// Dominant-share consumption over the modeled resource axes (see
    /// [`NodeProgress::dominant_milli`]).
    fn dominant_share(&self, sh: &Shell) -> f64;
    /// Check the regime drained and fill in its queue peak and served work.
    fn settle(self, sh: &Shell, result: &mut NodeResult);
}

/// The regime-independent state of one node.
pub(crate) struct Shell<'a> {
    pub catalogue: &'a Catalogue,
    pub cfg: &'a NodeConfig,
    pub node_index: u16,
    pub events: EventQueue<Ev>,
    pub pool: ContainerPool,
    /// Runtime of the live calls, by injection index.
    pub runtime: LiveCalls,
    /// One slot per injected call, by injection index: pending until the
    /// call completes, and the call's identity (id, function, release,
    /// kind) throughout. Unlike `runtime`, it never retires: it is the
    /// result.
    pub outcomes: Vec<CallOutcome>,
    /// Slots of `outcomes` already overwritten with a real completion.
    outcomes_filled: usize,
    /// Each function's service-time distribution, by function index:
    /// fitted once per node, not at every dispatch.
    service: Vec<LogNormal>,
    rng_service: Xoshiro256,
    pub rng_cold: Xoshiro256,
    /// Pool statistics when the first measured call arrived, so the
    /// reported counters cover only the measured phase (Fig. 2).
    measured_snapshot: Option<PoolStats>,
    last_completion: SimTime,
    peak_events: usize,
    /// The fault plan (the inert [`FaultSpec::none`] on fault-free runs).
    faults: &'a FaultSpec,
    /// This node's compiled fault timeline, indexed by [`Ev::Fault`].
    timeline: Vec<FaultEvent>,
    /// False between a crash and its restart.
    pub alive: bool,
    /// Bumped on every crash; timer events carry the value they were
    /// scheduled under and are dropped when stale.
    pub incarnation: u32,
    fault_stats: FaultStats,
    drops: Vec<DroppedCall>,
    /// Cross-node failover enabled (coupled cluster runs only): a failed
    /// attempt with retries left leaves the node as a [`Handoff`] instead
    /// of scheduling a local [`Ev::Retry`].
    failover: bool,
    /// Outbox of pending handoffs, drained by the cluster engine at each
    /// window barrier.
    handoffs: Vec<Handoff>,
    /// Calls that left this node via failover (their pending outcome slot
    /// is discarded at `finish`).
    migrated: usize,
}

/// The node's CPU regime, boxed: both are large and a cluster holds many
/// nodes.
enum Cpu<'a> {
    Gps(Box<baseline::Gps<'a>>),
    Cores(Box<ours::Cores>),
}

/// One invoker node as a resumable simulator, in either regime (see
/// [`crate::step`] for the lifecycle contract).
/// [`crate::simulate_calls_faulted`] runs it to completion: `new` +
/// `inject` + `advance_to(SimTime::MAX)` + `finish`.
pub struct NodeSim<'a> {
    sh: Shell<'a>,
    cpu: Cpu<'a>,
}

impl<'a> NodeSim<'a> {
    /// Build an empty node for `mode`: no calls yet, only the node's fault
    /// timeline scheduled (before any arrival, so a same-instant fault
    /// fires first). `weights` shape the baseline's GPS shares only.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        catalogue: &'a Catalogue,
        mode: &NodeMode,
        cfg: &'a NodeConfig,
        weights: &'a WeightTable,
        faults: &'a FaultSpec,
        seed: u64,
        node_index: u16,
        failover: bool,
    ) -> NodeSim<'a> {
        let (cpu, streams) = match mode {
            NodeMode::Baseline => {
                let gps = baseline::Gps::new(catalogue, cfg, weights);
                (Cpu::Gps(Box::new(gps)), baseline::Gps::RNG_STREAMS)
            }
            NodeMode::Scheduled(sched) => {
                let cores = ours::Cores::new(catalogue, cfg, *sched);
                (Cpu::Cores(Box::new(cores)), ours::Cores::RNG_STREAMS)
            }
        };
        assert!(
            !failover || !faults.is_none(),
            "failover needs a fault plan"
        );
        // Compiling the timeline validates the plan.
        let timeline = faults.timeline_for_node(node_index).events;
        let mut root = Xoshiro256::seed_from_u64(seed);
        let rng_service = root.derive_stream(streams[0]);
        let rng_cold = root.derive_stream(streams[1]);
        // Stemcells use the default action memory size.
        let prewarm_mem_mb = catalogue
            .iter()
            .map(|(_, f)| f.memory_mb as u64)
            .min()
            .unwrap_or(256);
        let mut events = EventQueue::new();
        // Fault-timeline events go in before the arrivals: a fault at the
        // same instant as an arrival gets the smaller sequence number and
        // fires first. The inert plan's timeline is empty, so arrival
        // sequence numbers are unchanged.
        for (k, fault) in timeline.iter().enumerate() {
            events.schedule(fault.at, Ev::Fault(k as u32));
        }
        let sh = Shell {
            catalogue,
            cfg,
            node_index,
            events,
            pool: ContainerPool::new(
                cfg.memory_mb,
                catalogue.len(),
                cfg.prewarm_count,
                prewarm_mem_mb,
            ),
            runtime: LiveCalls::default(),
            outcomes: Vec::new(),
            outcomes_filled: 0,
            service: catalogue.iter().map(|(_, f)| f.service_dist()).collect(),
            rng_service,
            rng_cold,
            measured_snapshot: None,
            last_completion: SimTime::ZERO,
            peak_events: 0,
            faults,
            timeline,
            alive: true,
            incarnation: 0,
            fault_stats: FaultStats::default(),
            drops: Vec::new(),
            failover,
            handoffs: Vec::new(),
            migrated: 0,
        };
        NodeSim { sh, cpu }
    }

    /// Append a release-sorted batch of calls and schedule their arrivals.
    /// Every release must be at or after the node's clock (events cannot be
    /// scheduled into the past). Arrivals go through the event queue's
    /// in-order lane ([`EventQueue::append`]): batches come in release
    /// order, so each costs O(1) instead of a heap push.
    pub fn inject(&mut self, calls: &[Call]) {
        let sh = &mut self.sh;
        sh.runtime.slots.reserve(calls.len());
        sh.outcomes.reserve(calls.len());
        for (k, call) in calls.iter().enumerate() {
            debug_assert!(
                k == 0 || calls[k - 1].release <= call.release,
                "calls must be sorted by release"
            );
            let (at, ev) = sh.push_call(call, call.release, 0);
            sh.events.append(at, ev);
        }
    }

    /// Re-inject a call another node failed over: the attempt counter
    /// carries across, and the delivery is a fresh dispatch through the
    /// controller — one request hop after `deliver_at` (the backoff
    /// expiry, barrier-aligned by the cluster engine).
    pub fn inject_handoff(&mut self, h: &Handoff, deliver_at: SimTime) {
        let sh = &mut self.sh;
        assert!(
            !sh.faults.is_none(),
            "handoffs only exist under a fault plan"
        );
        let (at, ev) = sh.push_call(&h.call, deliver_at, h.attempts);
        sh.events.schedule(at, ev);
    }

    /// Drain every event with `time <= horizon`, then report progress.
    /// `advance_to(SimTime::MAX)` runs to completion.
    pub fn advance_to(&mut self, horizon: SimTime) -> NodeProgress {
        match &mut self.cpu {
            Cpu::Gps(r) => self.sh.advance(&mut **r, horizon),
            Cpu::Cores(r) => self.sh.advance(&mut **r, horizon),
        }
    }

    /// Timestamp of the earliest still-queued event.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.sh.events.peek_time()
    }

    /// Take the pending failover outbox (cluster engine, between windows).
    pub fn take_handoffs(&mut self) -> Vec<Handoff> {
        std::mem::take(&mut self.sh.handoffs)
    }

    /// Check conservation and assemble the [`NodeResult`]. Call after the
    /// final `advance_to` has drained the node (`next_event_time() ==
    /// None`).
    pub fn finish(self) -> NodeResult {
        let NodeSim { mut sh, cpu } = self;
        assert!(
            sh.events.is_empty(),
            "finish with {} events still queued",
            sh.events.len()
        );
        assert_eq!(sh.pool.leased(), 0, "finish with containers still leased");
        assert!(
            sh.handoffs.is_empty(),
            "finish with {} handoffs not collected",
            sh.handoffs.len()
        );
        assert_eq!(
            sh.outcomes_filled + sh.drops.len() + sh.migrated,
            sh.outcomes.len(),
            "every call must resolve exactly once: completed XOR dropped XOR handed off"
        );
        if !sh.drops.is_empty() || sh.migrated > 0 {
            // Dropped and migrated calls never overwrote their pending
            // slot: remove them so `outcomes` contains completions only
            // (goodput; a migrated call's outcome is owned by the node
            // that resolved it).
            sh.outcomes.retain(|o| o.completion != SimTime::ZERO);
        }
        sh.drops.sort_unstable_by_key(|d| (d.release, d.id));
        let total = sh.pool.stats();
        let mut result = NodeResult {
            outcomes: std::mem::take(&mut sh.outcomes),
            measured_pool_stats: total.since(sh.measured_snapshot.unwrap_or(total)),
            total_pool_stats: total,
            peak_queue: 0,
            peak_concurrency: sh.pool.peak_leased() as usize,
            peak_events: sh.peak_events,
            peak_live_calls: sh.runtime.peak,
            peak_resident_calls: 0,
            last_completion: sh.last_completion,
            served_cpu_secs: 0.0,
            served_mem_units: 0.0,
            drops: std::mem::take(&mut sh.drops),
            fault_stats: sh.fault_stats,
        };
        match cpu {
            Cpu::Gps(r) => r.settle(&sh, &mut result),
            Cpu::Cores(r) => r.settle(&sh, &mut result),
        }
        result
    }
}

impl Shell<'_> {
    /// Append the slots of a call that has begun `attempts` deliveries
    /// and return the event of its next one, due one request hop after
    /// `sent`, for the caller to queue.
    fn push_call(&mut self, call: &Call, sent: SimTime, attempts: u32) -> (SimTime, Ev) {
        let idx = self.outcomes.len() as u32;
        self.runtime.push(CallRuntime::idle(attempts));
        self.outcomes
            .push(CallOutcome::pending(call, self.node_index));
        (sent + self.cfg.hop, Ev::Arrive(idx))
    }

    /// Draw an intrinsic processing time for a call of `func`.
    pub fn sample_service(&mut self, func: FuncId) -> f64 {
        self.service[func.index()].sample(&mut self.rng_service)
    }

    fn advance<R: Regime>(&mut self, r: &mut R, horizon: SimTime) -> NodeProgress {
        loop {
            self.peak_events = self.peak_events.max(self.events.len());
            let Some((now, ev)) = self.events.pop_at_or_before(horizon) else {
                break;
            };
            match ev {
                Ev::Arrive(i) => self.deliver(r, now, i),
                Ev::GpsTick => r.tick(self, now),
                Ev::ExecDone(i, inc) => {
                    if inc == self.incarnation {
                        self.on_exec_done(r, now, i);
                    }
                }
                Ev::CleanupDone(container, inc) => {
                    if inc == self.incarnation {
                        self.pool.release_idle(container, now);
                        r.drain(self, now);
                    }
                }
                Ev::PrewarmReady(inc) => {
                    if inc == self.incarnation {
                        self.pool.replenish_prewarm();
                        r.drain(self, now);
                    }
                }
                Ev::Fault(k) => self.on_fault(r, now, k),
                Ev::Retry(i) => {
                    debug_assert_eq!(self.runtime[i].phase, FaultPhase::Backoff);
                    self.deliver(r, now, i);
                }
                Ev::PendingTimeout(i, attempt) => self.on_pending_timeout(r, now, i, attempt),
            }
        }
        NodeProgress {
            queue_depth: r.queue_len(),
            inflight: self.pool.leased() as usize,
            alive: self.alive,
            dominant_milli: (r.dominant_share(self) * 1000.0).round() as u32,
        }
    }

    /// A delivery of call `i` reaches the invoker: its first arrival, a
    /// failover handoff, or a local retry after backoff. Retries go
    /// through the regime's admission again, like any delivery.
    fn deliver<R: Regime>(&mut self, r: &mut R, now: SimTime, i: u32) {
        let idx = i as usize;
        if self.measured_snapshot.is_none() && self.outcomes[idx].kind == CallKind::Measured {
            // Arrivals preserve release order (constant hop), so this is
            // the first measured arrival.
            self.measured_snapshot = Some(self.pool.stats());
        }
        self.runtime[i].invoker_receive = now;
        self.begin_attempt(now, i);
        r.admit(self, now, i);
    }

    /// Start the next delivery attempt of call `i`: bump the attempt
    /// counter and arm the pending timeout, if the plan has one.
    fn begin_attempt(&mut self, now: SimTime, i: u32) {
        let rt = &mut self.runtime[i];
        rt.attempt += 1;
        rt.phase = FaultPhase::Queued;
        let attempt = rt.attempt;
        if attempt > 1 {
            self.fault_stats.retries += 1;
        }
        if let Some(timeout) = self.faults.retry.pending_timeout {
            self.events
                .schedule(now + timeout, Ev::PendingTimeout(i, attempt));
        }
    }

    /// Lease a container for call `i`'s attempt, mark it running and
    /// return its cold-start initialisation work in core-seconds: none
    /// when warm, a fraction of a cold start when a prewarm stemcell is
    /// promoted. `None` when memory cannot fit the container even after
    /// eviction.
    ///
    /// A promoted stemcell is backfilled once, in both regimes: one
    /// [`Ev::PrewarmReady`] fires [`PREWARM_REPLACEMENT_DELAY`] later,
    /// and a refill that then finds no memory is dropped.
    pub fn lease(&mut self, i: u32) -> Option<f64> {
        let idx = i as usize;
        let func = self.outcomes[idx].func;
        let memory_mb = self.catalogue.spec(func).memory_mb as u64;
        let placement = self.pool.place(func, memory_mb)?;
        let rt = &mut self.runtime[i];
        rt.start_kind = placement.kind;
        rt.container = Some(placement.container);
        rt.phase = FaultPhase::Running;
        let (lo, hi) = COLDSTART_WORK_SECS;
        Some(match placement.kind {
            ColdStartKind::Warm => 0.0,
            ColdStartKind::Prewarm => {
                if self.pool.prewarm_deficit() > 0 {
                    self.events.schedule(
                        self.events.now() + PREWARM_REPLACEMENT_DELAY,
                        Ev::PrewarmReady(self.incarnation),
                    );
                }
                self.rng_cold.uniform_f64(lo, hi) * PREWARM_INIT_FRACTION
            }
            ColdStartKind::Cold => self.rng_cold.uniform_f64(lo, hi),
        })
    }

    /// Call `i`'s execution ended: start its container's cleanup, then
    /// either fail the attempt (transient failure) or write its outcome.
    fn on_exec_done<R: Regime>(&mut self, r: &mut R, now: SimTime, i: u32) {
        let idx = i as usize;
        let (hold, processing) = r.end_exec(self, now, i);
        let rt = self.runtime[i];
        // The container cleans up whether or not the response survives
        // the transient-failure draw below: the work was consumed.
        let container = rt.container.expect("executed call must hold a container");
        self.events
            .schedule(now + hold, Ev::CleanupDone(container, self.incarnation));
        let call = self.outcomes[idx].call();
        if self.faults.attempt_fails(call.id, rt.attempt) {
            self.fault_stats.transient_failures += 1;
            self.fail_attempt(now, i, DropReason::ExhaustedRetries);
            return;
        }
        let completion = now + self.cfg.hop;
        // A hard assert (one branch per call, negligible next to the event
        // loop): together with the final filled-count check it guarantees
        // every slot is written exactly once, in release builds too.
        assert_eq!(
            self.outcomes[idx].completion,
            SimTime::ZERO,
            "outcome written twice"
        );
        self.outcomes_filled += 1;
        self.runtime.resolve(i, FaultPhase::Done);
        self.outcomes[idx] = CallOutcome {
            id: call.id,
            func: call.func,
            kind: call.kind,
            release: call.release,
            invoker_receive: rt.invoker_receive,
            exec_start: rt.exec_start,
            exec_end: now,
            completion,
            processing,
            start_kind: rt.start_kind,
            node: self.node_index,
        };
        if call.kind == CallKind::Measured {
            self.last_completion = self.last_completion.max(completion);
        }
    }

    /// A delivery attempt of call `i` just failed (transient failure,
    /// crash kill, or pending timeout): schedule the retry per policy —
    /// locally, or as a cross-node handoff when failover is on — or drop
    /// the call with `exhausted_reason` when no attempts remain.
    fn fail_attempt(&mut self, now: SimTime, i: u32, exhausted_reason: DropReason) {
        let idx = i as usize;
        let attempt = self.runtime[i].attempt;
        let call = self.outcomes[idx].call();
        if attempt < self.faults.retry.max_attempts {
            let wait = self
                .faults
                .retry
                .backoff(self.faults.seed, call.id, attempt);
            if self.failover {
                // The retry leaves the node: the cluster engine re-routes
                // it to the least-loaded healthy node at the next barrier.
                self.runtime.resolve(i, FaultPhase::Migrated);
                self.migrated += 1;
                self.fault_stats.failovers += 1;
                self.handoffs.push(Handoff {
                    call,
                    attempts: attempt,
                    due: now + wait,
                    from: self.node_index,
                });
                return;
            }
            self.runtime[i].phase = FaultPhase::Backoff;
            self.events.schedule(now + wait, Ev::Retry(i));
        } else {
            assert_eq!(
                self.outcomes[idx].completion,
                SimTime::ZERO,
                "dropped a call that already completed"
            );
            self.runtime.resolve(i, FaultPhase::Dropped);
            self.fault_stats.dropped += 1;
            self.drops.push(DroppedCall {
                id: call.id,
                func: call.func,
                release: call.release,
                node: self.node_index,
                reason: exhausted_reason,
                attempts: attempt,
            });
        }
    }

    /// The pending timeout of `(i, attempt)` fired. If that attempt is
    /// still queued the client has given up on it: the entry leaves the
    /// regime's queue and the attempt fails. Stale timeouts (the attempt
    /// started executing, a later attempt is current, or the call resolved
    /// and may have retired) no-op.
    fn on_pending_timeout<R: Regime>(&mut self, r: &mut R, now: SimTime, i: u32, attempt: u32) {
        if self.runtime.phase(i) != Some(FaultPhase::Queued) || self.runtime[i].attempt != attempt {
            return;
        }
        r.abandon(i);
        self.fault_stats.timeouts += 1;
        self.fail_attempt(now, i, DropReason::TimedOut);
    }

    fn on_fault<R: Regime>(&mut self, r: &mut R, now: SimTime, k: u32) {
        match self.timeline[k as usize].kind {
            FaultKind::SetCapacityFactor(f) => {
                self.fault_stats.capacity_events += 1;
                r.set_capacity(self, now, f);
            }
            FaultKind::Crash => {
                assert!(self.alive, "crash on a node that is already down");
                self.alive = false;
                self.incarnation += 1;
                self.fault_stats.crashes += 1;
                r.crash(self, now);
                // Kill every in-flight attempt; their pending timers are
                // stale under the bumped incarnation. Only live calls can
                // be running, and index order keeps the retry schedule
                // deterministic. A kill may retire calls mid-walk, so each
                // is looked up afresh.
                for i in self.runtime.live() {
                    if self.runtime.phase(i) == Some(FaultPhase::Running) {
                        self.fault_stats.crash_kills += 1;
                        self.fail_attempt(now, i, DropReason::ExhaustedRetries);
                    }
                }
                self.pool.crash();
            }
            FaultKind::Restart => {
                assert!(!self.alive, "restart on a live node");
                self.alive = true;
                // Cold boot: rebuild the prewarm stock at once, exactly
                // like `ContainerPool::new` does at time zero.
                while self.pool.replenish_prewarm() {}
                r.drain(self, now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_core::{Policy, SchedulerConfig};
    use faas_workload::faults::{CapacityRamp, RetryPolicy};
    use faas_workload::scenario::BurstScenario;

    /// Both regimes, the scheduled one under `policy`.
    fn modes(policy: Policy) -> [NodeMode; 2] {
        [
            NodeMode::Baseline,
            NodeMode::Scheduled(SchedulerConfig::paper(policy)),
        ]
    }

    fn faulted(
        mode: &NodeMode,
        cfg: &NodeConfig,
        cores: u32,
        intensity: u32,
        seed: u64,
        faults: &FaultSpec,
    ) -> NodeResult {
        let cat = Catalogue::sebs();
        let scenario = BurstScenario::standard(cores, intensity).generate(&cat, seed);
        let weights = WeightTable::uniform(cat.len());
        crate::simulate_calls_faulted(
            &cat,
            &scenario.all_calls(),
            mode,
            cfg,
            &weights,
            faults,
            seed,
            0,
        )
    }

    fn run(mode: &NodeMode, cores: u32, intensity: u32, seed: u64) -> NodeResult {
        let cfg = NodeConfig::paper(cores);
        faulted(mode, &cfg, cores, intensity, seed, &FaultSpec::none())
    }

    #[test]
    fn inert_fault_machinery_reproduces_the_plain_run() {
        // A capacity ramp whose floor is 1.0 adds timeline events that
        // cannot change the simulation: every capacity event rescales the
        // CPU model to its nominal size. Under the standard retry policy
        // and a zero failure probability the run must reproduce the plain
        // run everywhere but the event-queue peak, which counts the ramp's
        // own events.
        let spec = FaultSpec {
            seed: 99,
            capacity: vec![CapacityRamp {
                node: None,
                start: SimTime::from_secs(130),
                floor: 1.0,
                steps_down: 2,
                step_every: SimDuration::from_secs(2),
                hold: SimDuration::from_secs(5),
                steps_up: 2,
            }],
            crashes: Vec::new(),
            transient_failure: 0.0,
            retry: RetryPolicy::standard(),
        };
        for mode in &modes(Policy::Sept) {
            let plain = run(mode, 10, 30, 14);
            let ramped = faulted(mode, &NodeConfig::paper(10), 10, 30, 14, &spec);
            assert_eq!(plain.outcomes, ramped.outcomes, "{mode:?}");
            assert_eq!(plain.drops, ramped.drops, "{mode:?}");
            assert!(ramped.drops.is_empty());
            assert_eq!(plain.measured_pool_stats, ramped.measured_pool_stats);
            assert_eq!(plain.total_pool_stats, ramped.total_pool_stats);
            assert_eq!(plain.peak_queue, ramped.peak_queue, "{mode:?}");
            assert_eq!(plain.peak_concurrency, ramped.peak_concurrency);
            assert_eq!(plain.last_completion, ramped.last_completion);
            assert_eq!(
                plain.served_cpu_secs.to_bits(),
                ramped.served_cpu_secs.to_bits(),
                "{mode:?}"
            );
            assert_eq!(
                plain.served_mem_units.to_bits(),
                ramped.served_mem_units.to_bits(),
                "{mode:?}"
            );
            assert_eq!(ramped.fault_stats.capacity_events, 4);
            assert_eq!(ramped.fault_stats.retries, 0);
        }
    }

    #[test]
    fn capacity_degradation_slows_the_contended_run() {
        let cat = Catalogue::sebs();
        let scenario = BurstScenario::standard(10, 60).generate(&cat, 15);
        let spec = FaultSpec::degradation(15, scenario.burst_start, SimDuration::from_secs(60));
        for mode in &modes(Policy::Sept) {
            let plain = run(mode, 10, 60, 15);
            let degraded = faulted(mode, &NodeConfig::paper(10), 10, 60, 15, &spec);
            assert!(degraded.drops.is_empty(), "degradation drops nothing");
            assert_eq!(degraded.outcomes.len(), plain.outcomes.len());
            assert_ne!(plain.outcomes, degraded.outcomes, "capacity must bite");
            assert!(
                degraded.last_completion > plain.last_completion,
                "{mode:?}: losing capacity mid-burst must delay the drain: {:?} vs {:?}",
                degraded.last_completion,
                plain.last_completion
            );
        }
    }

    #[test]
    fn crash_kills_in_flight_calls_and_restart_drains_the_rest() {
        let cat = Catalogue::sebs();
        let scenario = BurstScenario::standard(10, 60).generate(&cat, 16);
        let total = scenario.all_calls().len();
        let spec = FaultSpec::crash_restart(16, scenario.burst_start, SimDuration::from_secs(60));
        let cfg = NodeConfig::paper(10);
        for mode in &modes(Policy::Sept) {
            let r = faulted(mode, &cfg, 10, 60, 16, &spec);
            assert_eq!(r.fault_stats.crashes, 1);
            assert!(
                r.fault_stats.crash_kills > 0,
                "a loaded node has in-flight calls"
            );
            assert_eq!(
                r.outcomes.len() + r.drops.len(),
                total,
                "call conservation: completed XOR dropped"
            );
            assert_eq!(r.fault_stats.dropped, r.drops.len() as u64);
            // The standard policy retries crash-killed attempts: with 3
            // attempts and one crash, every kill should eventually complete.
            assert!(
                r.drops.is_empty(),
                "one crash under 3 attempts drops nothing"
            );
            assert!(r.fault_stats.retries >= r.fault_stats.crash_kills);
            // Bit-identical reproduction.
            let again = faulted(mode, &cfg, 10, 60, 16, &spec);
            assert_eq!(r.outcomes, again.outcomes);
            assert_eq!(r.drops, again.drops);
            assert_eq!(r.fault_stats, again.fault_stats);
        }
    }

    #[test]
    fn retry_storm_drops_only_fully_exhausted_calls() {
        let cat = Catalogue::sebs();
        let scenario = BurstScenario::standard(10, 30).generate(&cat, 17);
        let total = scenario.all_calls().len();
        let spec = FaultSpec::retry_storm(17);
        for mode in &modes(Policy::Fifo) {
            let r = faulted(mode, &NodeConfig::paper(10), 10, 30, 17, &spec);
            assert!(r.fault_stats.transient_failures > 0);
            assert!(r.fault_stats.retries > 0);
            assert_eq!(r.outcomes.len() + r.drops.len(), total);
            // p_drop = 0.15^5 ≈ 8e-5: with ~360 calls, drops are possible
            // but every drop must be a genuine exhaustion.
            for d in &r.drops {
                assert_eq!(d.reason, DropReason::ExhaustedRetries);
                assert_eq!(d.attempts, spec.retry.max_attempts);
            }
            // The survivors dominate: goodput stays near 1.
            assert!(r.drops.len() < total / 20);
        }
    }

    #[test]
    fn pending_timeout_abandons_queued_calls() {
        // Starve the node (tiny memory bounds concurrency) with a tight
        // no-retry timeout: the queue backs up and queued calls are
        // abandoned with `TimedOut` — removed eagerly from the baseline
        // FIFO, skipped lazily by the scheduled queue.
        let cat = Catalogue::sebs();
        let total = BurstScenario::standard(4, 60)
            .generate(&cat, 18)
            .all_calls()
            .len();
        let mut spec = FaultSpec::none();
        spec.retry = RetryPolicy {
            max_attempts: 1,
            pending_timeout: Some(SimDuration::from_secs(5)),
            backoff_base: SimDuration::ZERO,
            backoff_factor: 1.0,
            jitter: 0.0,
        };
        let cfg = NodeConfig::paper(4).with_memory_mb(1024);
        for mode in &modes(Policy::Fifo) {
            let r = faulted(mode, &cfg, 4, 60, 18, &spec);
            assert!(!r.drops.is_empty(), "a starved queue must time calls out");
            assert!(r.drops.iter().all(|d| d.reason == DropReason::TimedOut));
            assert_eq!(r.fault_stats.timeouts, r.drops.len() as u64);
            assert_eq!(r.outcomes.len() + r.drops.len(), total);
        }
    }

    #[test]
    fn a_promoted_stemcell_is_backfilled_after_the_replacement_delay() {
        // Both regimes refill the stemcell a lease promoted one replacement
        // delay after the lease, whether or not a container was released
        // since: the call still holds its container when the refill lands.
        let cat = Catalogue::sebs();
        let cfg = NodeConfig::paper(2);
        let weights = WeightTable::uniform(cat.len());
        let none = FaultSpec::none();
        let call = Call {
            id: faas_workload::trace::CallId(0),
            func: cat.by_name("sleep").unwrap(),
            release: SimTime::ZERO,
            kind: CallKind::Measured,
        };
        let leased_at = call.release + cfg.hop;
        let refill_at = leased_at + PREWARM_REPLACEMENT_DELAY;
        for mode in &modes(Policy::Fifo) {
            let mut sim = NodeSim::new(&cat, mode, &cfg, &weights, &none, 1, 0, false);
            sim.inject(&[call]);
            sim.advance_to(leased_at);
            assert_eq!(sim.sh.pool.prewarm_deficit(), 1, "{mode:?}: promoted");
            sim.advance_to(SimTime::from_nanos(refill_at.as_nanos() - 1));
            assert_eq!(sim.sh.pool.prewarm_deficit(), 1, "{mode:?}: too early");
            sim.advance_to(refill_at);
            assert_eq!(sim.sh.pool.prewarm_deficit(), 0, "{mode:?}: backfilled");
            assert_eq!(sim.sh.pool.leased(), 1, "{mode:?}: container held");
            sim.advance_to(SimTime::MAX);
            let r = sim.finish();
            assert_eq!(r.outcomes[0].start_kind, ColdStartKind::Prewarm);
        }
    }

    #[test]
    fn degraded_scheduled_node_reports_saturation() {
        // Past the degradation ramp's step-down the scheduled node runs on
        // 40% of its cores. With calls still queued every remaining core
        // is busy, so the dominant share must read as saturated.
        let cat = Catalogue::sebs();
        let scenario = BurstScenario::standard(10, 60).generate(&cat, 19);
        let window = SimDuration::from_secs(60);
        let spec = FaultSpec::degradation(19, scenario.burst_start, window);
        let ramp = &spec.capacity[0];
        let steps = ramp.steps_down as f64 + 0.5;
        let past_floor =
            ramp.start + SimDuration::from_secs_f64(ramp.step_every.as_secs_f64() * steps);
        let cfg = NodeConfig::paper(10);
        let weights = WeightTable::uniform(cat.len());
        let mode = NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice));
        let mut sim = NodeSim::new(&cat, &mode, &cfg, &weights, &spec, 19, 0, false);
        sim.inject(&scenario.all_calls());
        let p = sim.advance_to(past_floor);
        assert!(p.queue_depth > 0, "the burst must still be queued");
        assert_eq!(p.inflight, 4, "40% of 10 cores stay busy");
        assert!(
            p.dominant_milli >= 1000,
            "a saturated degraded node reads {} milli",
            p.dominant_milli
        );
        sim.advance_to(SimTime::MAX);
        assert_eq!(sim.finish().outcomes.len(), scenario.all_calls().len());
    }
}
