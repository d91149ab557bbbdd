//! The paper's node: priority queue + dedicated cores (§IV).
//!
//! Event structure of one call:
//!
//! ```text
//! release ──hop──▶ Arrive (r', priority computed, queued)
//!   └─ dispatch when a core is free and the call is at the queue head:
//!        [cold-start init] → execution (p drawn from the function's
//!        distribution, full core, non-preemptive) → ExecDone
//! ExecDone ──hop──▶ completion at the client; container enters cleanup
//! CleanupDone: container → free pool, core released, dispatch again
//! ```
//!
//! The container is unavailable during cleanup and the core is held: this is
//! the per-call management cost (docker pause/unpause, log collection) that
//! the paper identifies as comparable to the execution time itself (§V-B).
//!
//! # Fault semantics ([`crate::simulate_calls_faulted`])
//!
//! Same model as the baseline (see `baseline` module docs), adapted to the
//! dedicated-core regime:
//!
//! * **Capacity** events resize the [`CorePool`]. Execution is
//!   non-preemptive, so a shrink never interrupts running calls — the pool
//!   just hands out nothing until completions drain it below the new
//!   total. The oversubscription slowdown keeps using the configured core
//!   count (a documented approximation: at the paper's busy limit the
//!   slowdown is exactly 1 and the capacity squeeze is fully captured by
//!   the reduced parallelism).
//! * **Crash** kills in-flight attempts, releases every core, and loses
//!   every container; queued calls survive in the pending queue. Stale
//!   `ExecDone`/`CleanupDone`/`PrewarmReady` timers are invalidated by the
//!   incarnation counter in their payload.
//! * **Pending timeouts** skip lazily: [`PendingQueue`] has no removal, so
//!   a timed-out entry stays queued and `dispatch` discards it on pop
//!   (its phase is no longer `Queued`). A retried call is pushed again
//!   with a fresh priority; whichever entry pops first while the call is
//!   `Queued` dispatches it, the rest are stale.
//! * Re-delivered attempts go through [`SchedulerState::on_receive`] again
//!   — the scheduler sees every delivery, like OpenWhisk's controller.

use crate::config::NodeConfig;
use crate::fault_rt::{FaultCall, FaultPhase};
use crate::pool::{ContainerId, ContainerPool};
use crate::result::{DroppedCall, FaultStats, NodeResult};
use crate::step::{Handoff, NodeProgress};
use faas_core::{PendingQueue, SchedulerConfig, SchedulerState};
use faas_cpu::CorePool;
use faas_simcore::dist::Sampler;
use faas_simcore::events::EventQueue;
use faas_simcore::rng::Xoshiro256;
use faas_simcore::time::{SimDuration, SimTime};
use faas_workload::faults::{DropReason, FaultEvent, FaultKind, FaultSpec};
use faas_workload::sebs::Catalogue;
use faas_workload::trace::{Call, CallKind, CallOutcome, ColdStartKind};

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A call reaches the invoker.
    Arrive(u32),
    /// A call's execution finishes on its container. The second field is
    /// the node incarnation the attempt ran under: a crash bumps the
    /// counter, so timers of killed attempts are recognisably stale.
    ExecDone(u32, u32),
    /// A container's post-response cleanup finishes
    /// (incarnation-guarded).
    CleanupDone(ContainerId, u32),
    /// A prewarm replacement container becomes ready
    /// (incarnation-guarded).
    PrewarmReady(u32),
    /// Fault-timeline event at this index fires (fault runs only).
    Fault(u32),
    /// A failed call's retry backoff expired: re-deliver the next attempt.
    Retry(u32),
    /// The pending timeout of `(call, attempt)` fired: abandon the attempt
    /// if it is still queued.
    PendingTimeout(u32, u32),
}

#[derive(Debug, Clone, Copy)]
struct CallRuntime {
    priority: f64,
    invoker_receive: SimTime,
    exec_start: SimTime,
    processing: f64,
    start_kind: ColdStartKind,
    container: Option<ContainerId>,
}

impl CallRuntime {
    fn empty() -> Self {
        CallRuntime {
            priority: 0.0,
            invoker_receive: SimTime::ZERO,
            exec_start: SimTime::ZERO,
            processing: 0.0,
            start_kind: ColdStartKind::Warm,
            container: None,
        }
    }
}

/// The paper's node as a resumable simulator (see [`crate::step`] for the
/// lifecycle contract), mirroring [`crate::baseline::NodeSim`] so both
/// invoker paths share one structure. [`crate::simulate_calls_faulted`]
/// runs it to completion: `new` + `inject` + `advance_to(SimTime::MAX)` +
/// `finish`, pinned bit-identical to the pre-refactor run-to-completion
/// loop.
pub struct NodeSim<'a> {
    catalogue: &'a Catalogue,
    cfg: &'a NodeConfig,
    node_index: u16,
    events: EventQueue<Ev>,
    pending: PendingQueue<u32>,
    sched: SchedulerState,
    pool: ContainerPool,
    cores: CorePool,
    /// Summed CPU fraction of currently executing calls, for the
    /// oversubscription slowdown (zero-cost at the default busy limit).
    cpu_load: f64,
    /// Summed memory-bandwidth demand of currently executing calls, in
    /// bandwidth units — each call's working-set footprint
    /// (`memory_mb / 1024`) as a proxy for its bandwidth draw. Maintained
    /// unconditionally, but only read when
    /// [`NodeConfig::mem_bandwidth`] models the axis, so the default
    /// configuration is bit-identical to the CPU-only model.
    mem_load: f64,
    /// Intrinsic CPU work of completed executions, core-seconds.
    served_cpu_secs: f64,
    /// Memory-bandwidth work of completed executions,
    /// bandwidth-unit-seconds (zero while the axis is unmodeled).
    served_mem_units: f64,
    runtime: Vec<CallRuntime>,
    /// One slot per injected call, indexed like `runtime`: pending until
    /// the call completes, and the call's identity (id, function, release,
    /// kind) throughout.
    outcomes: Vec<CallOutcome>,
    /// Slots of `outcomes` already overwritten with a real completion.
    outcomes_filled: usize,
    rng_service: Xoshiro256,
    rng_cold: Xoshiro256,
    // Pool statistics are snapshotted when the first measured call arrives,
    // so the reported counters cover only the measured phase (Fig. 2).
    measured_snapshot: Option<crate::pool::PoolStats>,
    last_completion: SimTime,
    peak_events: usize,
    /// The fault plan (the inert [`FaultSpec::none`] on fault-free runs).
    faults: &'a FaultSpec,
    /// This node's compiled fault timeline, indexed by [`Ev::Fault`].
    timeline: Vec<FaultEvent>,
    /// False iff `faults.is_none()`: every fault code path is gated on
    /// this, keeping the fault-free run bit-identical to the pre-fault
    /// simulator.
    fault_on: bool,
    /// False between a crash and its restart.
    alive: bool,
    /// Bumped on every crash; timer events carry the value they were
    /// scheduled under and are dropped when stale.
    incarnation: u32,
    /// Per-call attempt/phase state (empty on fault-free runs).
    fstate: Vec<FaultCall>,
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

impl<'a> NodeSim<'a> {
    /// Build an empty scheduled node: no calls yet, only the node's fault
    /// timeline scheduled (before any arrival, so a same-instant fault
    /// fires first).
    pub fn new(
        catalogue: &'a Catalogue,
        cfg: &'a NodeConfig,
        sched_cfg: SchedulerConfig,
        faults: &'a FaultSpec,
        seed: u64,
        node_index: u16,
        failover: bool,
    ) -> NodeSim<'a> {
        faults.validate();
        let fault_on = !faults.is_none();
        assert!(!failover || fault_on, "failover needs a fault plan");
        let timeline = if fault_on {
            faults.timeline_for_node(node_index).events
        } else {
            Vec::new()
        };
        let mut root = Xoshiro256::seed_from_u64(seed);
        let rng_service = root.derive_stream(0xA001);
        let rng_cold = root.derive_stream(0xA002);

        let mut sim = NodeSim {
            catalogue,
            cfg,
            node_index,
            events: EventQueue::new(),
            pending: PendingQueue::new(),
            sched: SchedulerState::new(catalogue.len(), sched_cfg),
            pool: ContainerPool::new(
                cfg.memory_mb,
                catalogue.len(),
                cfg.prewarm_count,
                prewarm_mem_mb(catalogue),
            ),
            cores: CorePool::new(cfg.busy_limit()),
            cpu_load: 0.0,
            mem_load: 0.0,
            served_cpu_secs: 0.0,
            served_mem_units: 0.0,
            runtime: Vec::new(),
            outcomes: Vec::new(),
            outcomes_filled: 0,
            rng_service,
            rng_cold,
            measured_snapshot: None,
            last_completion: SimTime::ZERO,
            peak_events: 0,
            faults,
            timeline,
            fault_on,
            alive: true,
            incarnation: 0,
            fstate: Vec::new(),
            fault_stats: FaultStats::default(),
            drops: Vec::new(),
            failover,
            handoffs: Vec::new(),
            migrated: 0,
        };

        // Fault-timeline events go in before the arrivals: a fault at the
        // same instant as an arrival gets the smaller sequence number and
        // fires first. A no-op loop on fault-free runs (empty timeline),
        // so arrival sequence numbers are unchanged.
        for k in 0..sim.timeline.len() {
            let at = sim.timeline[k].at;
            sim.events.schedule(at, Ev::Fault(k as u32));
        }
        sim
    }

    /// Append a release-sorted batch of calls and schedule their arrivals.
    /// Every release must be at or after the node's clock (events cannot be
    /// scheduled into the past).
    pub fn inject(&mut self, calls: &[Call]) {
        self.runtime.reserve(calls.len());
        self.outcomes.reserve(calls.len());
        if self.fault_on {
            self.fstate.reserve(calls.len());
        }
        for (k, call) in calls.iter().enumerate() {
            debug_assert!(
                k == 0 || calls[k - 1].release <= call.release,
                "calls must be sorted by release"
            );
            let idx = self.outcomes.len() as u32;
            self.runtime.push(CallRuntime::empty());
            self.outcomes
                .push(CallOutcome::pending(call, self.node_index));
            if self.fault_on {
                self.fstate.push(FaultCall::default());
            }
            self.events.schedule(
                call.release + self.cfg.calibration.hop_request,
                Ev::Arrive(idx),
            );
        }
    }

    /// Re-inject a call another node failed over: the attempt counter
    /// carries across, and the delivery is a fresh dispatch through the
    /// controller — one `hop_request` after `deliver_at` (the backoff
    /// expiry, barrier-aligned by the cluster engine).
    pub fn inject_handoff(&mut self, h: &Handoff, deliver_at: SimTime) {
        assert!(self.fault_on, "handoffs only exist under a fault plan");
        let idx = self.outcomes.len() as u32;
        self.runtime.push(CallRuntime::empty());
        self.outcomes
            .push(CallOutcome::pending(&h.call, self.node_index));
        self.fstate.push(FaultCall {
            attempt: h.attempts,
            phase: FaultPhase::Idle,
        });
        self.events.schedule(
            deliver_at + self.cfg.calibration.hop_request,
            Ev::Arrive(idx),
        );
    }

    /// Drain every event with `time <= horizon`, then report progress.
    /// `advance_to(SimTime::MAX)` runs to completion.
    pub fn advance_to(&mut self, horizon: SimTime) -> NodeProgress {
        loop {
            self.peak_events = self.peak_events.max(self.events.len());
            let Some((now, ev)) = self.events.pop_at_or_before(horizon) else {
                break;
            };
            match ev {
                Ev::Arrive(i) => self.on_arrive(now, i),
                Ev::ExecDone(i, inc) => self.on_exec_done(now, i, inc),
                Ev::CleanupDone(container, inc) => {
                    if inc == self.incarnation {
                        self.on_cleanup_done(now, container);
                    }
                }
                Ev::PrewarmReady(inc) => {
                    if inc == self.incarnation {
                        self.pool.replenish_prewarm();
                        self.dispatch(now);
                    }
                }
                Ev::Fault(k) => self.on_fault(now, k),
                Ev::Retry(i) => self.on_retry(now, i),
                Ev::PendingTimeout(i, attempt) => self.on_pending_timeout(now, i, attempt),
            }
        }
        self.progress()
    }

    /// The [`NodeProgress`] snapshot `advance_to` returns. Queue depth is
    /// the pending queue's raw length — stale (timed-out) entries are
    /// reaped lazily, so under faults this over-reports, exactly like the
    /// noisy queue metric a real controller polls.
    pub fn progress(&self) -> NodeProgress {
        // Dominant share on the dedicated-core node: core occupancy, or
        // bandwidth pressure when the memory axis is modeled — whichever
        // axis is tighter (the DRF signal feedback balancers route on).
        let mut share = self.cores.busy() as f64 / self.cfg.busy_limit() as f64;
        if self.cfg.mem_bandwidth > 0.0 {
            share = share.max(self.mem_load / self.cfg.mem_bandwidth);
        }
        NodeProgress {
            now: self.events.now(),
            next_event: self.events.peek_time(),
            queue_depth: self.pending.len(),
            inflight: self.cores.busy() as usize,
            alive: self.alive,
            dominant_milli: (share * 1000.0).round() as u32,
            completed: self.outcomes_filled,
            dropped: self.drops.len(),
            handoffs: self.handoffs.len(),
        }
    }

    /// Timestamp of the earliest still-queued event.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.events.peek_time()
    }

    /// Take the pending failover outbox (cluster engine, between windows).
    pub fn take_handoffs(&mut self) -> Vec<Handoff> {
        std::mem::take(&mut self.handoffs)
    }

    /// Check conservation and assemble the [`NodeResult`]. Call after the
    /// final `advance_to` has drained the node (`next_event_time() ==
    /// None`).
    pub fn finish(mut self) -> NodeResult {
        assert!(
            self.events.is_empty(),
            "finish with {} events still queued",
            self.events.len()
        );
        assert!(
            self.handoffs.is_empty(),
            "finish with {} handoffs not collected",
            self.handoffs.len()
        );
        assert_eq!(
            self.outcomes_filled + self.drops.len() + self.migrated,
            self.outcomes.len(),
            "every call must resolve exactly once: completed XOR dropped XOR handed off"
        );
        if !self.drops.is_empty() || self.migrated > 0 {
            // Dropped and migrated calls never overwrote their pending
            // slot: remove them so `outcomes` contains completions only
            // (goodput; a migrated call's outcome is owned by the node
            // that resolved it).
            self.outcomes.retain(|o| o.completion != SimTime::ZERO);
        }
        self.drops.sort_unstable_by_key(|d| (d.release, d.id));

        // Fault runs skip timed-out queue entries lazily, so stale entries
        // may remain; anything still genuinely queued is a stuck call.
        while let Some(i) = self.pending.pop() {
            assert!(
                self.fault_on && self.fstate[i as usize].phase != FaultPhase::Queued,
                "simulation ended with call {i} stuck in the pending queue \
                 (memory smaller than one container?)"
            );
        }
        let total_stats = self.pool.stats();
        let measured_stats = diff_stats(total_stats, self.measured_snapshot.unwrap_or(total_stats));

        NodeResult {
            outcomes: self.outcomes,
            measured_pool_stats: measured_stats,
            total_pool_stats: total_stats,
            peak_queue: self.pending.peak_len(),
            peak_concurrency: self.cores.peak_busy() as usize,
            peak_events: self.peak_events,
            peak_resident_calls: 0,
            last_completion: self.last_completion,
            served_cpu_secs: self.served_cpu_secs,
            served_mem_units: self.served_mem_units,
            drops: self.drops,
            fault_stats: self.fault_stats,
        }
    }

    fn on_arrive(&mut self, now: SimTime, i: u32) {
        let idx = i as usize;
        if self.measured_snapshot.is_none() && self.outcomes[idx].kind == CallKind::Measured {
            // Arrivals preserve release order (constant hop), so this is
            // the first measured arrival.
            self.measured_snapshot = Some(self.pool.stats());
        }
        let func = self.outcomes[idx].func;
        let prio = self.sched.on_receive(func, now);
        self.runtime[idx].priority = prio;
        self.runtime[idx].invoker_receive = now;
        if self.fault_on {
            self.begin_attempt(now, i);
        }
        self.pending.push(prio, i);
        self.dispatch(now);
    }

    /// Start the next delivery attempt of call `i` (fault runs only):
    /// bump the attempt counter and arm the pending timeout.
    fn begin_attempt(&mut self, now: SimTime, i: u32) {
        let idx = i as usize;
        self.fstate[idx].attempt += 1;
        self.fstate[idx].phase = FaultPhase::Queued;
        if self.fstate[idx].attempt > 1 {
            self.fault_stats.retries += 1;
        }
        if let Some(timeout) = self.faults.retry.pending_timeout {
            self.events.schedule(
                now + timeout,
                Ev::PendingTimeout(i, self.fstate[idx].attempt),
            );
        }
    }

    fn on_exec_done(&mut self, now: SimTime, i: u32, inc: u32) {
        if inc != self.incarnation {
            return; // the attempt was killed by a crash; timer is stale
        }
        let idx = i as usize;
        let call = self.outcomes[idx].call();
        let rt = self.runtime[idx];
        let spec = self.catalogue.spec(call.func);
        self.cpu_load -= spec.cpu_fraction;
        self.mem_load -= mem_units(spec.memory_mb);
        // The work was consumed whether or not the response survives the
        // transient-failure draw below, so it counts as served either way.
        self.served_cpu_secs += rt.processing * spec.cpu_fraction;
        if self.cfg.mem_bandwidth > 0.0 {
            self.served_mem_units +=
                now.saturating_since(rt.exec_start).as_secs_f64() * mem_units(spec.memory_mb);
        }
        let calib = self.cfg.calibration;
        let processing = SimDuration::from_secs_f64(rt.processing);
        let container = rt.container.expect("executed call must hold a container");
        let mgmt = SimDuration::from_secs_f64(calib.mgmt_secs(self.cfg.cores, rt.processing));
        // The paper's invoker stores "the processing time" measured around
        // the whole container interaction (SSIV-B); on a loaded node that
        // window includes the per-call container management, so the stored
        // estimate is the held interval, not the bare execution time. The
        // invoker measures it whether or not the response survives the
        // transient-failure draw below, and the container cleans up either
        // way — the work was consumed.
        self.sched.on_complete(call.func, processing + mgmt, now);
        self.events
            .schedule(now + mgmt, Ev::CleanupDone(container, self.incarnation));
        if self.fault_on && self.faults.attempt_fails(call.id, self.fstate[idx].attempt) {
            self.fault_stats.transient_failures += 1;
            self.fail_attempt(now, i, DropReason::ExhaustedRetries);
            return;
        }
        let completion = now + calib.hop_response;
        // A hard assert (one branch per call, negligible next to the event
        // loop): together with the final filled-count check it guarantees
        // every slot is written exactly once, in release builds too.
        assert_eq!(
            self.outcomes[idx].completion,
            SimTime::ZERO,
            "outcome written twice"
        );
        self.outcomes_filled += 1;
        if self.fault_on {
            self.fstate[idx].phase = FaultPhase::Done;
        }
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
        let attempt = self.fstate[idx].attempt;
        if attempt < self.faults.retry.max_attempts {
            let wait = self
                .faults
                .retry
                .backoff(self.faults.seed, self.outcomes[idx].id, attempt);
            if self.failover {
                // The retry leaves the node: the cluster engine re-routes
                // it to the least-loaded healthy node at the next barrier.
                self.fstate[idx].phase = FaultPhase::Migrated;
                self.migrated += 1;
                self.fault_stats.failovers += 1;
                self.handoffs.push(Handoff {
                    call: self.outcomes[idx].call(),
                    attempts: attempt,
                    due: now + wait,
                    from: self.node_index,
                });
                return;
            }
            self.fstate[idx].phase = FaultPhase::Backoff;
            self.events.schedule(now + wait, Ev::Retry(i));
        } else {
            assert_eq!(
                self.outcomes[idx].completion,
                SimTime::ZERO,
                "dropped a call that already completed"
            );
            self.fstate[idx].phase = FaultPhase::Dropped;
            self.fault_stats.dropped += 1;
            self.drops.push(DroppedCall {
                id: self.outcomes[idx].id,
                func: self.outcomes[idx].func,
                release: self.outcomes[idx].release,
                node: self.node_index,
                reason: exhausted_reason,
                attempts: attempt,
            });
        }
    }

    /// A failed attempt's backoff expired: re-deliver the call through the
    /// scheduler (a fresh priority draw, like OpenWhisk's controller
    /// re-sending the request).
    fn on_retry(&mut self, now: SimTime, i: u32) {
        let idx = i as usize;
        debug_assert_eq!(self.fstate[idx].phase, FaultPhase::Backoff);
        let func = self.outcomes[idx].func;
        let prio = self.sched.on_receive(func, now);
        self.runtime[idx].priority = prio;
        self.runtime[idx].invoker_receive = now;
        self.begin_attempt(now, i);
        self.pending.push(prio, i);
        self.dispatch(now);
    }

    /// The pending timeout of `(i, attempt)` fired. If that attempt is
    /// still queued the client has given up on it: fail the attempt. The
    /// queue entry itself stays ([`PendingQueue`] has no removal) and is
    /// skipped lazily by `dispatch` when popped.
    fn on_pending_timeout(&mut self, now: SimTime, i: u32, attempt: u32) {
        let idx = i as usize;
        if self.fstate[idx].phase != FaultPhase::Queued || self.fstate[idx].attempt != attempt {
            return;
        }
        self.fault_stats.timeouts += 1;
        self.fail_attempt(now, i, DropReason::TimedOut);
    }

    fn on_fault(&mut self, now: SimTime, k: u32) {
        match self.timeline[k as usize].kind {
            FaultKind::SetCapacityFactor(f) => {
                self.fault_stats.capacity_events += 1;
                // Scale the busy limit; never below one core. Running
                // calls are non-preemptive, so a shrink only stops new
                // dispatches until the pool drains below the new total.
                let scaled = (self.cfg.busy_limit() as f64 * f).round().max(1.0) as u32;
                self.cores.set_total(scaled);
                self.dispatch(now); // a grow frees cores immediately
            }
            FaultKind::Crash => self.on_crash(now),
            FaultKind::Restart => self.on_restart(now),
        }
    }

    fn on_crash(&mut self, now: SimTime) {
        assert!(self.alive, "crash on a node that is already down");
        self.alive = false;
        self.incarnation += 1;
        self.fault_stats.crashes += 1;
        // Kill every in-flight attempt (init or execution). Their pending
        // ExecDone/CleanupDone timers are stale under the bumped
        // incarnation. Queued calls stay in the pending queue. Index order
        // keeps the retry schedule deterministic.
        for i in 0..self.outcomes.len() as u32 {
            if self.fstate[i as usize].phase == FaultPhase::Running {
                self.fault_stats.crash_kills += 1;
                self.fail_attempt(now, i, DropReason::ExhaustedRetries);
            }
        }
        self.cpu_load = 0.0;
        self.mem_load = 0.0;
        self.cores.release_all();
        self.pool.crash();
    }

    fn on_restart(&mut self, now: SimTime) {
        assert!(!self.alive, "restart on a live node");
        self.alive = true;
        // Cold boot: rebuild the prewarm stock at once, exactly like
        // `ContainerPool::new` does at time zero.
        while self.pool.replenish_prewarm() {}
        self.dispatch(now);
    }

    fn on_cleanup_done(&mut self, now: SimTime, container: ContainerId) {
        self.pool.release_idle(container, now);
        self.cores.release();
        if self.pool.prewarm_deficit() > 0 {
            self.events.schedule(
                now + self.cfg.calibration.prewarm_replacement_delay,
                Ev::PrewarmReady(self.incarnation),
            );
        }
        self.dispatch(now);
    }

    /// Start as many pending calls as free cores and memory allow, in
    /// priority order with head-of-line blocking (the queue is strict).
    /// A no-op on a dead node: arrivals keep queuing until the restart.
    fn dispatch(&mut self, now: SimTime) {
        if self.fault_on && !self.alive {
            return;
        }
        while self.cores.has_free() && !self.pending.is_empty() {
            let i = self.pending.pop().expect("non-empty queue pops");
            let idx = i as usize;
            if self.fault_on && self.fstate[idx].phase != FaultPhase::Queued {
                // Stale entry: the attempt timed out while queued (or a
                // duplicate entry already dispatched this call).
                continue;
            }
            let func = self.outcomes[idx].func;
            let spec = self.catalogue.spec(func);
            match self.pool.place(func, spec.memory_mb as u64, now) {
                Some(placement) => {
                    assert!(self.cores.try_acquire(), "free core checked above");
                    // Cold-start initialisation runs on the call's core at
                    // full speed (dedicated core: work in core-seconds ==
                    // seconds).
                    let calib = self.cfg.calibration;
                    let init_secs = match placement.kind {
                        ColdStartKind::Warm => 0.0,
                        ColdStartKind::Prewarm => {
                            calib.coldstart_work.sample(&mut self.rng_cold)
                                * calib.prewarm_init_fraction
                        }
                        ColdStartKind::Cold => calib.coldstart_work.sample(&mut self.rng_cold),
                    };
                    let p = spec.service_dist().sample(&mut self.rng_service);
                    // Oversubscription slowdown, frozen at dispatch (see the
                    // module docs); exactly 1 at the paper's busy limit.
                    // With a modeled memory axis the slowdown is the
                    // dominant-resource pressure: the max over the CPU and
                    // bandwidth axes (DRF semantics — the binding axis
                    // stretches the execution).
                    self.cpu_load += spec.cpu_fraction;
                    self.mem_load += mem_units(spec.memory_mb);
                    let mut slowdown = (self.cpu_load / self.cfg.cores as f64).max(1.0);
                    if self.cfg.mem_bandwidth > 0.0 {
                        slowdown = slowdown.max(self.mem_load / self.cfg.mem_bandwidth);
                    }
                    let exec_secs = p * (spec.cpu_fraction * slowdown + (1.0 - spec.cpu_fraction));
                    let exec_start = now + SimDuration::from_secs_f64(init_secs);
                    self.runtime[idx].exec_start = exec_start;
                    self.runtime[idx].processing = p;
                    self.runtime[idx].start_kind = placement.kind;
                    self.runtime[idx].container = Some(placement.container);
                    if self.fault_on {
                        self.fstate[idx].phase = FaultPhase::Running;
                    }
                    self.events.schedule(
                        exec_start + SimDuration::from_secs_f64(exec_secs),
                        Ev::ExecDone(i, self.incarnation),
                    );
                }
                None => {
                    // No memory even after eviction: requeue at the same
                    // priority and wait for a container release.
                    self.pending.push(self.runtime[idx].priority, i);
                    break;
                }
            }
        }
    }
}

/// A container's memory-bandwidth demand in bandwidth units: its
/// working-set footprint in GiB (see [`NodeConfig::mem_bandwidth`]).
fn mem_units(memory_mb: u32) -> f64 {
    memory_mb as f64 / 1024.0
}

fn prewarm_mem_mb(catalogue: &Catalogue) -> u64 {
    // Stemcells use the default action memory size.
    catalogue
        .iter()
        .map(|(_, f)| f.memory_mb as u64)
        .min()
        .unwrap_or(256)
}

fn diff_stats(
    total: crate::pool::PoolStats,
    snapshot: crate::pool::PoolStats,
) -> crate::pool::PoolStats {
    crate::pool::PoolStats {
        warm_hits: total.warm_hits - snapshot.warm_hits,
        prewarm_hits: total.prewarm_hits - snapshot.prewarm_hits,
        cold_creates: total.cold_creates - snapshot.cold_creates,
        evictions: total.evictions - snapshot.evictions,
        placement_failures: total.placement_failures - snapshot.placement_failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_core::Policy;
    use faas_workload::scenario::BurstScenario;
    use faas_workload::trace::CallId;

    fn catalogue() -> Catalogue {
        Catalogue::sebs()
    }

    fn simulate_faulted(
        catalogue: &Catalogue,
        calls: &[Call],
        cfg: &NodeConfig,
        sched_cfg: SchedulerConfig,
        faults: &FaultSpec,
        seed: u64,
        node_index: u16,
    ) -> NodeResult {
        let weights = faas_workload::weight::WeightTable::uniform(catalogue.len());
        let mode = crate::NodeMode::Scheduled(sched_cfg);
        crate::simulate_calls_faulted(
            catalogue, calls, &mode, cfg, &weights, faults, seed, node_index,
        )
    }

    fn simulate(
        catalogue: &Catalogue,
        calls: &[Call],
        cfg: &NodeConfig,
        sched_cfg: SchedulerConfig,
        seed: u64,
        node_index: u16,
    ) -> NodeResult {
        let none = FaultSpec::none();
        simulate_faulted(catalogue, calls, cfg, sched_cfg, &none, seed, node_index)
    }

    fn run(policy: Policy, cores: u32, intensity: u32, seed: u64) -> NodeResult {
        let cat = catalogue();
        let scenario = BurstScenario::standard(cores, intensity).generate(&cat, seed);
        simulate(
            &cat,
            &scenario.all_calls(),
            &NodeConfig::paper(cores),
            SchedulerConfig::paper(policy),
            seed,
            0,
        )
    }

    fn faulted(
        policy: Policy,
        cores: u32,
        intensity: u32,
        seed: u64,
        faults: &FaultSpec,
    ) -> NodeResult {
        let cat = catalogue();
        let scenario = BurstScenario::standard(cores, intensity).generate(&cat, seed);
        simulate_faulted(
            &cat,
            &scenario.all_calls(),
            &NodeConfig::paper(cores),
            SchedulerConfig::paper(policy),
            faults,
            seed,
            0,
        )
    }

    use faas_workload::faults::{CapacityRamp, RetryPolicy};

    #[test]
    fn inert_fault_machinery_reproduces_the_plain_run() {
        // Floor 1.0 capacity ramp: every fault gate engages (timeline
        // merge, per-call state, zero-probability transient draws) yet no
        // event can change the schedule.
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
        assert!(!spec.is_none(), "the gate must actually engage");
        let plain = run(Policy::Sept, 10, 30, 14);
        let gated = faulted(Policy::Sept, 10, 30, 14, &spec);
        assert_eq!(plain.outcomes, gated.outcomes);
        assert!(gated.drops.is_empty());
        assert_eq!(gated.fault_stats.capacity_events, 4);
        assert_eq!(gated.fault_stats.retries, 0);
    }

    #[test]
    fn capacity_degradation_slows_the_contended_run() {
        let cat = catalogue();
        let scenario = BurstScenario::standard(10, 60).generate(&cat, 15);
        let spec = FaultSpec::degradation(15, scenario.burst_start, SimDuration::from_secs(60));
        let plain = run(Policy::Sept, 10, 60, 15);
        let degraded = faulted(Policy::Sept, 10, 60, 15, &spec);
        assert!(degraded.drops.is_empty(), "degradation drops nothing");
        assert_eq!(degraded.outcomes.len(), plain.outcomes.len());
        assert_ne!(plain.outcomes, degraded.outcomes, "capacity must bite");
        assert!(
            degraded.last_completion > plain.last_completion,
            "losing cores mid-burst must delay the drain: {:?} vs {:?}",
            degraded.last_completion,
            plain.last_completion
        );
    }

    #[test]
    fn crash_kills_in_flight_calls_and_restart_drains_the_rest() {
        let cat = catalogue();
        let scenario = BurstScenario::standard(10, 60).generate(&cat, 16);
        let total = scenario.all_calls().len();
        let spec = FaultSpec::crash_restart(16, scenario.burst_start, SimDuration::from_secs(60));
        let r = faulted(Policy::Sept, 10, 60, 16, &spec);
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
        assert!(
            r.drops.is_empty(),
            "one crash under 3 attempts drops nothing"
        );
        assert!(r.fault_stats.retries >= r.fault_stats.crash_kills);
        let again = faulted(Policy::Sept, 10, 60, 16, &spec);
        assert_eq!(r.outcomes, again.outcomes);
        assert_eq!(r.drops, again.drops);
        assert_eq!(r.fault_stats, again.fault_stats);
    }

    #[test]
    fn retry_storm_drops_only_fully_exhausted_calls() {
        let cat = catalogue();
        let scenario = BurstScenario::standard(10, 30).generate(&cat, 17);
        let total = scenario.all_calls().len();
        let spec = FaultSpec::retry_storm(17);
        let r = faulted(Policy::Fifo, 10, 30, 17, &spec);
        assert!(r.fault_stats.transient_failures > 0);
        assert!(r.fault_stats.retries > 0);
        assert_eq!(r.outcomes.len() + r.drops.len(), total);
        for d in &r.drops {
            assert_eq!(d.reason, DropReason::ExhaustedRetries);
            assert_eq!(d.attempts, spec.retry.max_attempts);
        }
        assert!(r.drops.len() < total / 20);
    }

    #[test]
    fn pending_timeout_abandons_queued_calls() {
        // Starve the node (tiny memory bounds concurrency) with a tight
        // no-retry timeout: the priority queue backs up and queued calls
        // are abandoned with `TimedOut` via the lazy-skip path.
        let cat = catalogue();
        let scenario = BurstScenario::standard(4, 60).generate(&cat, 18);
        let calls = scenario.all_calls();
        let total = calls.len();
        let mut spec = FaultSpec::none();
        spec.retry = RetryPolicy {
            max_attempts: 1,
            pending_timeout: Some(SimDuration::from_secs(5)),
            backoff_base: SimDuration::ZERO,
            backoff_factor: 1.0,
            jitter: 0.0,
        };
        let cfg = NodeConfig::paper(4).with_memory_mb(1024);
        let r = simulate_faulted(
            &cat,
            &calls,
            &cfg,
            SchedulerConfig::paper(Policy::Fifo),
            &spec,
            18,
            0,
        );
        assert!(!r.drops.is_empty(), "a starved queue must time calls out");
        assert!(r.drops.iter().all(|d| d.reason == DropReason::TimedOut));
        assert_eq!(r.fault_stats.timeouts, r.drops.len() as u64);
        assert_eq!(r.outcomes.len() + r.drops.len(), total);
    }

    #[test]
    fn every_call_completes() {
        let r = run(Policy::Fifo, 10, 30, 1);
        assert_eq!(r.measured_len(), 330);
        for o in r.measured() {
            assert!(o.completion > o.release);
            assert!(o.exec_end >= o.exec_start);
            assert!(o.invoker_receive >= o.release);
        }
    }

    #[test]
    fn warm_pool_eliminates_measured_cold_starts() {
        // With 32 GiB and 10 cores the warm-up creates every container the
        // burst needs: measured cold starts ~ 0 (Fig. 2b plateau).
        let r = run(Policy::Fifo, 10, 30, 2);
        assert_eq!(
            r.measured_cold_starts(),
            0,
            "32 GiB must eliminate measured cold starts"
        );
    }

    #[test]
    fn tiny_memory_causes_cold_starts() {
        let cat = catalogue();
        let scenario = BurstScenario::standard(10, 30).generate(&cat, 3);
        let cfg = NodeConfig::paper(10).with_memory_mb(2048);
        let r = simulate(
            &cat,
            &scenario.all_calls(),
            &cfg,
            SchedulerConfig::paper(Policy::Fifo),
            3,
            0,
        );
        assert!(
            r.measured_cold_starts() > 100,
            "2 GiB must thrash: got {}",
            r.measured_cold_starts()
        );
        assert!(r.total_pool_stats.evictions > 0);
    }

    #[test]
    fn concurrency_never_exceeds_cores() {
        let r = run(Policy::Sept, 5, 60, 4);
        assert!(r.peak_concurrency <= 5, "busy containers bounded by cores");
    }

    #[test]
    fn sept_beats_fifo_on_average_response_under_load() {
        let fifo = run(Policy::Fifo, 10, 60, 5);
        let sept = run(Policy::Sept, 10, 60, 5);
        let avg = |r: &NodeResult| {
            let v: Vec<f64> = r
                .measured()
                .map(|o| o.response_time().as_secs_f64())
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let f = avg(&fifo);
        let s = avg(&sept);
        assert!(
            s < f / 2.0,
            "SEPT ({s:.1}s) must clearly beat FIFO ({f:.1}s) at intensity 60"
        );
    }

    #[test]
    fn fifo_orders_executions_by_receive_time() {
        let r = run(Policy::Fifo, 10, 30, 6);
        let mut measured: Vec<&CallOutcome> = r.measured().collect();
        measured.sort_by_key(|o| o.exec_start);
        // Under FIFO, execution start order must follow receive order.
        for pair in measured.windows(2) {
            assert!(
                pair[0].invoker_receive <= pair[1].invoker_receive,
                "FIFO must not reorder {:?} vs {:?}",
                pair[0].id,
                pair[1].id
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(Policy::FairChoice, 10, 40, 7);
        let b = run(Policy::FairChoice, 10, 40, 7);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.peak_queue, b.peak_queue);
    }

    #[test]
    fn different_policies_differ() {
        let a = run(Policy::Fifo, 10, 40, 8);
        let b = run(Policy::Sept, 10, 40, 8);
        assert_ne!(a.outcomes, b.outcomes);
    }

    #[test]
    fn outcome_ids_match_calls() {
        let cat = catalogue();
        let scenario = BurstScenario::standard(5, 30).generate(&cat, 9);
        let calls = scenario.all_calls();
        let r = simulate(
            &cat,
            &calls,
            &NodeConfig::paper(5),
            SchedulerConfig::paper(Policy::Eect),
            9,
            3,
        );
        assert_eq!(r.outcomes.len(), calls.len());
        for (o, c) in r.outcomes.iter().zip(&calls) {
            assert_eq!(o.id, c.id);
            assert_eq!(o.func, c.func);
            assert_eq!(o.node, 3);
        }
        let _ = CallId(0);
    }

    #[test]
    fn oversubscription_admits_more_busy_containers() {
        let cat = catalogue();
        let scenario = BurstScenario::standard(5, 60).generate(&cat, 21);
        let cfg = NodeConfig::paper(5).with_busy_limit_factor(2.0);
        let r = simulate(
            &cat,
            &scenario.all_calls(),
            &cfg,
            SchedulerConfig::paper(Policy::Fifo),
            21,
            0,
        );
        assert!(
            r.peak_concurrency > 5 && r.peak_concurrency <= 10,
            "peak {} should exceed 5 cores but respect the 2x limit",
            r.peak_concurrency
        );
    }

    #[test]
    fn oversubscription_helps_io_bound_workloads() {
        // A sleep-only catalogue: dedicated cores idle during the wait, so
        // doubling the busy limit nearly doubles throughput (SSIV-A's
        // stated trade-off).
        use faas_workload::sebs::{FunctionSpec, IntensityClass};
        let cat = Catalogue::from_functions(vec![FunctionSpec {
            name: "sleep",
            client_p5_ms: 1020.0,
            client_median_ms: 1022.0,
            client_p95_ms: 1026.0,
            cpu_fraction: 0.02,
            memory_mb: 256,
            class: IntensityClass::Io,
        }]);
        // 2 cores, 80 sleep calls in 60 s: far beyond 2 dedicated cores.
        let scenario = BurstScenario::standard(2, 400).generate(&cat, 22);
        let avg = |factor: f64| {
            let cfg = NodeConfig::paper(2).with_busy_limit_factor(factor);
            let r = simulate(
                &cat,
                &scenario.all_calls(),
                &cfg,
                SchedulerConfig::paper(Policy::Fifo),
                22,
                0,
            );
            let v: Vec<f64> = r
                .measured()
                .map(|o| o.response_time().as_secs_f64())
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let dedicated = avg(1.0);
        let oversub = avg(3.0);
        assert!(
            oversub < dedicated * 0.7,
            "I/O-bound: 3x limit ({oversub:.1}s) must clearly beat 1x ({dedicated:.1}s)"
        );
    }

    #[test]
    fn default_busy_limit_keeps_slowdown_exact() {
        // factor 1.0 must behave identically to the pre-extension model:
        // executed duration equals the drawn processing time.
        let r = run(Policy::Fifo, 5, 30, 23);
        for o in r.measured() {
            let exec = o.exec_end.saturating_since(o.exec_start);
            assert_eq!(exec, o.processing, "no slowdown at the paper's limit");
        }
    }

    #[test]
    fn response_includes_both_hops() {
        // An unloaded call's response is at least init + p + 10 ms.
        let cat = catalogue();
        let func = cat.by_name("sleep").unwrap();
        let calls = vec![Call {
            id: CallId(0),
            func,
            release: SimTime::ZERO,
            kind: CallKind::Measured,
        }];
        let r = simulate(
            &cat,
            &calls,
            &NodeConfig::paper(2),
            SchedulerConfig::paper(Policy::Fifo),
            1,
            0,
        );
        let o = &r.outcomes[0];
        let resp = o.response_time().as_secs_f64();
        // Prewarm init (0.35 x 0.5-2.0s) + ~1.012s sleep + 10ms hops.
        assert!(resp > 1.1, "response {resp}");
        assert!(resp < 3.2, "response {resp}");
        assert_eq!(
            o.start_kind,
            ColdStartKind::Prewarm,
            "stemcell should serve the first call"
        );
    }
}
