//! The unmodified-OpenWhisk baseline node (§III).
//!
//! Semantics reproduced from the paper's description of the stock invoker:
//!
//! * **Greedy admission**: a request that finds no pending queue is placed
//!   immediately — warm free-pool container, else prewarm, else a newly
//!   created container (evicting idle containers if memory is short). Only
//!   when placement is impossible does the request join a FIFO queue.
//! * **Memory-based limits**: the number of simultaneously busy containers
//!   is bounded by the memory pool, *not* by the core count.
//! * **OS preemption**: all CPU phases (cold-start initialisation, function
//!   execution, per-call container management) share the cores under
//!   generalized processor sharing with a context-switch capacity penalty
//!   (`faas_cpu::gps`). I/O phases hold the container but no CPU.
//!
//! Call phase machine:
//!
//! ```text
//! Arrive ─(queue empty? place : enqueue)─▶ [Init (GPS)] ─▶ CpuPhase (GPS)
//!     ─▶ IoPhase (timer) ─▶ respond ─▶ Cleanup (GPS, container held)
//!     ─▶ container idle → drain FIFO queue
//! ```
//!
//! # Fault semantics ([`crate::simulate_calls_faulted`])
//!
//! A non-trivial [`FaultSpec`] merges the node's compiled fault timeline
//! into the event queue (before the arrivals, so a same-instant fault
//! fires first):
//!
//! * **Capacity** events rebase the GPS bank via
//!   [`GpsCpu::set_capacity`] — running calls keep their served work and
//!   share the new capacity.
//! * **Crash** kills every in-flight attempt (init, CPU or I/O phase) and
//!   retries it per policy; queued calls survive in the FIFO — OpenWhisk's
//!   load balancer has already committed them to the invoker's Kafka
//!   topic, so they wait for the restart. Every container is lost; the
//!   node restarts cold. Timer events scheduled before the crash
//!   (I/O, cleanup, prewarm) are invalidated by an incarnation counter
//!   carried in the event payload — correct because no attempt survives a
//!   crash, so every pre-crash timer is dead by construction.
//! * **Transient failures** are drawn per attempt at I/O completion: the
//!   work was consumed and the container still cleans up, but the
//!   response is lost and the attempt fails.
//! * The **pending timeout** abandons an attempt still queued after the
//!   policy's deadline (the FIFO entry is removed eagerly).
//!
//! A call whose attempts are exhausted is dropped — excluded from
//! `outcomes`, reported in [`NodeResult::drops`] — so every call resolves
//! exactly once: completed XOR dropped. On [`FaultSpec::none`] every one
//! of these paths is gated off and the simulation is bit-identical to the
//! weighted node before fault injection existed.
//!
//! # Container weights
//!
//! Each CPU phase (cold-start init and execution) enters the GPS bank with
//! the share [`WeightTable::phase_share`] assigns it: the function's
//! [`faas_workload::weight::TaskShare`] for measured calls, with optional
//! per-phase overrides for warm-up calls (cgroup update latency: a fresh
//! container initialises under the default share until its cgroup update
//! lands). The uniform `(1, 1)` table is the paper's regime and keeps
//! every task on the GPS fast path.

use crate::config::NodeConfig;
use crate::fault_rt::{FaultCall, FaultPhase};
use crate::pool::{ContainerId, ContainerPool};
use crate::result::{DroppedCall, FaultStats, NodeResult};
use crate::step::{Handoff, NodeProgress};
use faas_cpu::{GpsCpu, GpsParams, Resource, ResourceVector, TaskId};
use faas_simcore::dist::Sampler;
use faas_simcore::events::{EventHandle, EventQueue};
use faas_simcore::rng::Xoshiro256;
use faas_simcore::time::{SimDuration, SimTime};
use faas_workload::faults::{DropReason, FaultEvent, FaultKind, FaultSpec};
use faas_workload::sebs::Catalogue;
use faas_workload::trace::{Call, CallKind, CallOutcome, ColdStartKind};
use faas_workload::weight::{CallPhase, TaskShare, WeightTable};
use std::collections::HashMap;
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A call reaches the invoker.
    Arrive(u32),
    /// The earliest GPS task completion is due. There is at most one live
    /// tick at any time: membership changes move it in place via
    /// [`EventQueue::reschedule`].
    GpsTick,
    /// A call's I/O phase finishes. The second field is the node
    /// incarnation the attempt ran under: a crash bumps the counter, so
    /// timers of killed attempts are recognisably stale.
    IoDone(u32, u32),
    /// A container finishes post-response cleanup (incarnation-guarded).
    /// Carries the container, not the call: a retried call may already
    /// hold a *new* container when its failed attempt's cleanup fires.
    CleanupDone(ContainerId, u32),
    /// A prewarm replacement becomes ready (incarnation-guarded).
    PrewarmReady(u32),
    /// Fault-timeline event at this index fires (fault runs only).
    Fault(u32),
    /// A failed call's retry backoff expired: re-deliver the next attempt.
    Retry(u32),
    /// The pending timeout of `(call, attempt)` fired: abandon the attempt
    /// if it is still queued.
    PendingTimeout(u32, u32),
}

/// What a GPS task belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Owner {
    /// Cold-start initialisation of call `i`.
    Init(u32),
    /// CPU phase of call `i`.
    Exec(u32),
}

#[derive(Debug, Clone, Copy)]
struct CallRuntime {
    invoker_receive: SimTime,
    exec_start: SimTime,
    io_secs: f64,
    /// Intrinsic processing time drawn for the call (contention-free).
    p_intrinsic: f64,
    start_kind: ColdStartKind,
    container: Option<ContainerId>,
}

impl CallRuntime {
    fn empty() -> Self {
        CallRuntime {
            invoker_receive: SimTime::ZERO,
            exec_start: SimTime::ZERO,
            io_secs: 0.0,
            p_intrinsic: 0.0,
            start_kind: ColdStartKind::Warm,
            container: None,
        }
    }
}

/// The baseline node as a resumable simulator (see [`crate::step`] for the
/// lifecycle contract). [`crate::simulate_calls_faulted`] runs it to
/// completion: `new` + `inject` + `advance_to(SimTime::MAX)` + `finish`,
/// pinned bit-identical to the pre-refactor run-to-completion loop.
pub struct NodeSim<'a> {
    catalogue: &'a Catalogue,
    cfg: &'a NodeConfig,
    /// Per-function GPS weights/caps (weighted containers). The uniform
    /// table keeps every task on the GPS fast path.
    weights: &'a WeightTable,
    node_index: u16,
    events: EventQueue<Ev>,
    cpu: GpsCpu,
    fifo: VecDeque<u32>,
    pool: ContainerPool,
    /// Each live GPS task's owner and demand profile (per dominant-resource
    /// unit, from `ResourceVector::profile`), so removals can settle the
    /// per-resource served-work counters.
    owners: HashMap<TaskId, (Owner, [f64; 2])>,
    /// Per-resource work served by the GPS bank, in axis units:
    /// `[core-seconds, bandwidth-unit-seconds]`. Accumulated as offered
    /// work at task entry minus the residual returned at removal, so
    /// crash-killed work counts only what actually ran.
    served_work: [f64; 2],
    /// Cached dominant-share consumption in milli-units, refreshed at the
    /// end of every `advance_to` window (see [`NodeProgress::dominant_milli`]).
    dominant_milli: u32,
    runtime: Vec<CallRuntime>,
    /// One slot per injected call, indexed like `runtime`: pending until
    /// the call completes, and the call's identity (id, function, release,
    /// kind) throughout.
    outcomes: Vec<CallOutcome>,
    /// Slots of `outcomes` already overwritten with a real completion.
    outcomes_filled: usize,
    rng_service: Xoshiro256,
    rng_cold: Xoshiro256,
    peak_queue: usize,
    leased: usize,
    peak_leased: usize,
    measured_snapshot: Option<crate::pool::PoolStats>,
    last_completion: SimTime,
    peak_events: usize,
    /// The one pending [`Ev::GpsTick`], rescheduled in place on every GPS
    /// membership change instead of abandoning stale copies in the queue.
    tick: Option<EventHandle>,
    /// Reused buffer for completion collection: the GPS tick is the hottest
    /// event, and `finished_tasks_into` keeps it allocation-free.
    finished_scratch: Vec<TaskId>,
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
    /// Build an empty baseline node: no calls yet, only the node's fault
    /// timeline scheduled (before any arrival, so a same-instant fault
    /// fires first).
    pub fn new(
        catalogue: &'a Catalogue,
        cfg: &'a NodeConfig,
        weights: &'a WeightTable,
        faults: &'a FaultSpec,
        seed: u64,
        node_index: u16,
        failover: bool,
    ) -> NodeSim<'a> {
        assert_eq!(
            weights.len(),
            catalogue.len(),
            "weight table must cover the catalogue"
        );
        faults.validate();
        let fault_on = !faults.is_none();
        assert!(!failover || fault_on, "failover needs a fault plan");
        let timeline = if fault_on {
            faults.timeline_for_node(node_index).events
        } else {
            Vec::new()
        };
        let mut root = Xoshiro256::seed_from_u64(seed);
        let rng_service = root.derive_stream(0xB001);
        let rng_cold = root.derive_stream(0xB002);

        let mut sim = NodeSim {
            catalogue,
            cfg,
            weights,
            node_index,
            events: EventQueue::new(),
            cpu: GpsCpu::new(GpsParams {
                cores: cfg.cores as f64,
                ctx_switch_penalty: cfg.calibration.ctx_switch_penalty,
                penalty_cap: cfg.calibration.ctx_switch_penalty_cap,
            }),
            fifo: VecDeque::new(),
            pool: ContainerPool::new(
                cfg.memory_mb,
                catalogue.len(),
                cfg.prewarm_count,
                catalogue
                    .iter()
                    .map(|(_, f)| f.memory_mb as u64)
                    .min()
                    .unwrap_or(256),
            ),
            owners: HashMap::new(),
            served_work: [0.0; 2],
            dominant_milli: 0,
            runtime: Vec::new(),
            outcomes: Vec::new(),
            outcomes_filled: 0,
            rng_service,
            rng_cold,
            peak_queue: 0,
            leased: 0,
            peak_leased: 0,
            measured_snapshot: None,
            last_completion: SimTime::ZERO,
            peak_events: 0,
            tick: None,
            finished_scratch: Vec::new(),
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

        // A modeled memory-bandwidth capacity enters the GPS bank before
        // any task exists; with the 0.0 sentinel the bank never hears
        // about the axis and stays bit-identical to the CPU-only model.
        if cfg.mem_bandwidth > 0.0 {
            sim.cpu
                .set_resource_capacity(SimTime::ZERO, Resource::Mem, cfg.mem_bandwidth);
        }

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
                Ev::GpsTick => self.on_gps_tick(now),
                Ev::IoDone(i, inc) => self.on_io_done(now, i, inc),
                Ev::CleanupDone(c, inc) => self.on_cleanup_done(now, c, inc),
                Ev::PrewarmReady(inc) => {
                    if inc == self.incarnation {
                        self.pool.replenish_prewarm();
                        self.drain_queue(now);
                    }
                }
                Ev::Fault(k) => self.on_fault(now, k),
                Ev::Retry(i) => self.on_retry(now, i),
                Ev::PendingTimeout(i, attempt) => self.on_pending_timeout(now, i, attempt),
            }
        }
        self.refresh_dominant_share();
        self.progress()
    }

    /// Recompute the cached dominant-share signal: the maximum over
    /// modeled resource axes of the GPS bank's `consumption / capacity`.
    /// One O(live tasks) scan per `advance_to` window; `progress()` then
    /// reads the cache, so the snapshot itself stays `&self`.
    fn refresh_dominant_share(&mut self) {
        let mut share: f64 = 0.0;
        for r in [Resource::Cpu, Resource::Mem] {
            let cap = self.cpu.resource_capacity(r);
            if cap.is_finite() && cap > 0.0 {
                share = share.max(self.cpu.resource_consumption(r) / cap);
            }
        }
        self.dominant_milli = (share * 1000.0).round() as u32;
    }

    /// The [`NodeProgress`] snapshot `advance_to` returns.
    pub fn progress(&self) -> NodeProgress {
        NodeProgress {
            now: self.events.now(),
            next_event: self.events.peek_time(),
            queue_depth: self.fifo.len(),
            inflight: self.leased,
            alive: self.alive,
            dominant_milli: self.dominant_milli,
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
        assert!(
            self.fifo.is_empty(),
            "baseline ended with {} stuck calls",
            self.fifo.len()
        );
        debug_assert!(self.cpu.is_empty(), "GPS bank must drain");
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

        let total_stats = self.pool.stats();
        let snapshot = self.measured_snapshot.unwrap_or(total_stats);
        NodeResult {
            outcomes: self.outcomes,
            measured_pool_stats: crate::pool::PoolStats {
                warm_hits: total_stats.warm_hits - snapshot.warm_hits,
                prewarm_hits: total_stats.prewarm_hits - snapshot.prewarm_hits,
                cold_creates: total_stats.cold_creates - snapshot.cold_creates,
                evictions: total_stats.evictions - snapshot.evictions,
                placement_failures: total_stats.placement_failures - snapshot.placement_failures,
            },
            total_pool_stats: total_stats,
            peak_queue: self.peak_queue,
            peak_concurrency: self.peak_leased,
            peak_events: self.peak_events,
            peak_resident_calls: 0,
            last_completion: self.last_completion,
            // Compensated entry/exit accounting can leave a ±ulp residue
            // around zero; served work is non-negative by construction.
            served_cpu_secs: self.served_work[0].max(0.0),
            served_mem_units: self.served_work[1].max(0.0),
            drops: self.drops,
            fault_stats: self.fault_stats,
        }
    }

    fn on_arrive(&mut self, now: SimTime, i: u32) {
        let idx = i as usize;
        if self.measured_snapshot.is_none() && self.outcomes[idx].kind == CallKind::Measured {
            self.measured_snapshot = Some(self.pool.stats());
        }
        self.runtime[idx].invoker_receive = now;
        if self.fault_on {
            self.begin_attempt(now, i);
        }
        // §III: "When an invoker receives a new request and there are
        // pending requests, the request is added to the queue." A dead
        // node's requests queue too: the LB committed them to the topic.
        let dead = self.fault_on && !self.alive;
        if dead || !self.fifo.is_empty() || !self.try_place(now, i) {
            self.fifo.push_back(i);
            self.peak_queue = self.peak_queue.max(self.fifo.len());
        }
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

    /// Attempt immediate placement; returns false if the call must queue.
    fn try_place(&mut self, now: SimTime, i: u32) -> bool {
        let idx = i as usize;
        let func = self.outcomes[idx].func;
        let spec = self.catalogue.spec(func);
        let Some(placement) = self.pool.place(func, spec.memory_mb as u64, now) else {
            return false;
        };
        self.leased += 1;
        self.peak_leased = self.peak_leased.max(self.leased);
        self.runtime[idx].start_kind = placement.kind;
        self.runtime[idx].container = Some(placement.container);
        if self.fault_on {
            self.fstate[idx].phase = FaultPhase::Running;
        }
        if placement.kind == ColdStartKind::Prewarm && self.pool.prewarm_deficit() > 0 {
            self.events.schedule(
                now + self.cfg.calibration.prewarm_replacement_delay,
                Ev::PrewarmReady(self.incarnation),
            );
        }
        let init_work = match placement.kind {
            ColdStartKind::Warm => 0.0,
            ColdStartKind::Prewarm => {
                self.cfg
                    .calibration
                    .coldstart_work
                    .sample(&mut self.rng_cold)
                    * self.cfg.calibration.prewarm_init_fraction
            }
            ColdStartKind::Cold => self
                .cfg
                .calibration
                .coldstart_work
                .sample(&mut self.rng_cold),
        };
        if init_work > 0.0 {
            // Per-phase lookup: warm-up cold-start init can run at a
            // different share than the function's (cgroup update latency).
            let share = self
                .weights
                .phase_share(func, self.outcomes[idx].kind, CallPhase::Init);
            let (tid, profile) = self.add_share_task(now, init_work, &share);
            self.owners.insert(tid, (Owner::Init(i), profile));
        } else {
            self.start_exec(now, i);
        }
        self.reschedule_tick(now);
        true
    }

    /// Begin the execution phases: CPU work under GPS, then I/O.
    fn start_exec(&mut self, now: SimTime, i: u32) {
        let idx = i as usize;
        let func = self.outcomes[idx].func;
        let spec = self.catalogue.spec(func);
        let p = spec.service_dist().sample(&mut self.rng_service);
        let cpu_work = spec.cpu_fraction * p;
        self.runtime[idx].exec_start = now;
        self.runtime[idx].io_secs = (1.0 - spec.cpu_fraction) * p;
        self.runtime[idx].p_intrinsic = p;
        let share = self
            .weights
            .phase_share(func, self.outcomes[idx].kind, CallPhase::Exec);
        let (tid, profile) = self.add_share_task(now, cpu_work, &share);
        self.owners.insert(tid, (Owner::Exec(i), profile));
    }

    /// Enter a CPU phase of `cpu_work` core-seconds into the GPS bank
    /// under `share`, returning the task and its demand profile. CPU-only
    /// shares take the scalar `add_task` path — bit-identical to the
    /// pre-DRF model. Shares with a memory-bandwidth demand convert work
    /// and rate cap into dominant-resource units
    /// (`ResourceVector::dominant_per_cpu`) so the bank's water-filling
    /// allocates by dominant share (see `faas_cpu::gps`). Offered work is
    /// credited to the per-resource served counters here; removals debit
    /// the unserved residual.
    fn add_share_task(
        &mut self,
        now: SimTime,
        cpu_work: f64,
        share: &TaskShare,
    ) -> (TaskId, [f64; 2]) {
        if share.is_cpu_only() {
            self.served_work[0] += cpu_work;
            let tid = self
                .cpu
                .add_task(now, cpu_work, share.weight, share.max_rate);
            (tid, [1.0, 0.0])
        } else {
            let demand = ResourceVector::per_cpu(share.mem_per_cpu);
            let scale = demand.dominant_per_cpu();
            let profile = demand.profile();
            let work = cpu_work * scale;
            self.served_work[0] += work * profile[0];
            self.served_work[1] += work * profile[1];
            let tid =
                self.cpu
                    .add_task_demand(now, work, share.weight, share.max_rate * scale, demand);
            (tid, profile)
        }
    }

    /// Remove a GPS task and debit the unserved residual from the
    /// per-resource served-work counters.
    fn remove_gps_task(&mut self, now: SimTime, tid: TaskId, profile: [f64; 2]) {
        let residual = self.cpu.remove_task(now, tid);
        self.served_work[0] -= residual * profile[0];
        self.served_work[1] -= residual * profile[1];
    }

    fn on_gps_tick(&mut self, now: SimTime) {
        // The tick just fired; its handle is dead until rescheduled below.
        self.tick = None;
        // Collect every task that finished by now (several can tie) into the
        // reused scratch buffer, snapshotting the set before membership
        // changes below can alter it.
        let mut finished = std::mem::take(&mut self.finished_scratch);
        self.cpu.finished_tasks_into(now, &mut finished);
        for &tid in &finished {
            let (owner, profile) = *self
                .owners
                .get(&tid)
                .expect("finished GPS task must have an owner");
            self.owners.remove(&tid);
            self.remove_gps_task(now, tid, profile);
            match owner {
                Owner::Init(i) => self.start_exec(now, i),
                Owner::Exec(i) => {
                    let io = self.runtime[i as usize].io_secs;
                    self.events.schedule(
                        now + SimDuration::from_secs_f64(io),
                        Ev::IoDone(i, self.incarnation),
                    );
                }
            }
        }
        self.finished_scratch = finished;
        self.reschedule_tick(now);
    }

    fn on_io_done(&mut self, now: SimTime, i: u32, inc: u32) {
        if inc != self.incarnation {
            return; // the attempt was killed by a crash; timer is stale
        }
        let idx = i as usize;
        let call = self.outcomes[idx].call();
        let rt = self.runtime[idx];
        // Post-response cleanup holds the container (docker pause, log
        // collection) but burns no CPU: with containers oversubscribing the
        // cores the OS overlaps this work, unlike the paper's dedicated-core
        // regime where it idles the call's core. It happens whether or not
        // the response survives the transient-failure draw below — the work
        // was consumed either way.
        let mgmt =
            self.cfg
                .calibration
                .baseline_mgmt_secs(self.cfg.cores, rt.p_intrinsic, self.leased);
        self.events.schedule(
            now + SimDuration::from_secs_f64(mgmt),
            Ev::CleanupDone(
                rt.container.expect("completed call must hold a container"),
                self.incarnation,
            ),
        );
        if self.fault_on && self.faults.attempt_fails(call.id, self.fstate[idx].attempt) {
            self.fault_stats.transient_failures += 1;
            self.fail_attempt(now, i, DropReason::ExhaustedRetries);
            return;
        }
        let completion = now + self.cfg.calibration.hop_response;
        let processing = now.saturating_since(rt.exec_start);
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

    fn on_cleanup_done(&mut self, now: SimTime, container: ContainerId, inc: u32) {
        if inc != self.incarnation {
            return; // container died with the crashed node
        }
        self.pool.release_idle(container, now);
        self.leased -= 1;
        self.drain_queue(now);
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

    /// A failed attempt's backoff expired: re-deliver the call.
    fn on_retry(&mut self, now: SimTime, i: u32) {
        let idx = i as usize;
        debug_assert_eq!(self.fstate[idx].phase, FaultPhase::Backoff);
        self.runtime[idx].invoker_receive = now;
        self.begin_attempt(now, i);
        if !self.alive || !self.fifo.is_empty() || !self.try_place(now, i) {
            self.fifo.push_back(i);
            self.peak_queue = self.peak_queue.max(self.fifo.len());
        }
    }

    /// The pending timeout of `(i, attempt)` fired. If that attempt is
    /// still waiting in the FIFO the client has given up on it: remove the
    /// entry eagerly and fail the attempt. Stale timeouts (the attempt
    /// started executing, resolved, or a later attempt is current) no-op.
    fn on_pending_timeout(&mut self, now: SimTime, i: u32, attempt: u32) {
        let idx = i as usize;
        if self.fstate[idx].phase != FaultPhase::Queued || self.fstate[idx].attempt != attempt {
            return;
        }
        let pos = self
            .fifo
            .iter()
            .position(|&c| c == i)
            .expect("a Queued call must sit in the FIFO");
        self.fifo.remove(pos);
        self.fault_stats.timeouts += 1;
        self.fail_attempt(now, i, DropReason::TimedOut);
    }

    fn on_fault(&mut self, now: SimTime, k: u32) {
        match self.timeline[k as usize].kind {
            FaultKind::SetCapacityFactor(f) => {
                self.fault_stats.capacity_events += 1;
                // Capacity-rebase invariant (see `GpsCpu::set_capacity`):
                // served work up to `now` is settled under the old
                // capacity before the parameter swap, then the completion
                // tick moves to the new earliest finisher.
                self.cpu.set_capacity(now, self.cfg.cores as f64 * f);
                self.reschedule_tick(now);
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
        // Tear down the GPS bank. `owners` is a HashMap whose iteration
        // order is arbitrary: collect and sort the task ids first so the
        // bank's float accumulation stays deterministic across runs.
        let mut tasks: Vec<TaskId> = self.owners.keys().copied().collect();
        tasks.sort_unstable();
        for tid in tasks {
            let profile = self.owners[&tid].1;
            self.remove_gps_task(now, tid, profile);
        }
        self.owners.clear();
        // Kill every in-flight attempt (init, CPU or I/O phase). Their
        // pending IoDone/CleanupDone timers are stale under the bumped
        // incarnation. Queued calls stay in the FIFO.
        for i in 0..self.outcomes.len() as u32 {
            if self.fstate[i as usize].phase == FaultPhase::Running {
                self.fault_stats.crash_kills += 1;
                self.fail_attempt(now, i, DropReason::ExhaustedRetries);
            }
        }
        self.pool.crash();
        self.leased = 0;
        self.reschedule_tick(now); // the bank is empty: cancels the tick
    }

    fn on_restart(&mut self, now: SimTime) {
        assert!(!self.alive, "restart on a live node");
        self.alive = true;
        // Cold boot: rebuild the prewarm stock at once, exactly like
        // `ContainerPool::new` does at time zero.
        while self.pool.replenish_prewarm() {}
        self.drain_queue(now);
    }

    /// Serve queued requests in FIFO order until one cannot be placed.
    fn drain_queue(&mut self, now: SimTime) {
        while let Some(&head) = self.fifo.front() {
            if self.try_place(now, head) {
                self.fifo.pop_front();
            } else {
                break;
            }
        }
    }

    /// Keep the single tick event aligned with the next GPS completion:
    /// moved in place when the completion time shifts, cancelled when the
    /// bank drains. The queue never holds stale ticks.
    fn reschedule_tick(&mut self, now: SimTime) {
        match self.cpu.next_completion(now) {
            Some((_, at)) => {
                let at = at.max(now);
                match self.tick {
                    Some(handle) => self.events.reschedule(handle, at),
                    None => self.tick = Some(self.events.schedule(at, Ev::GpsTick)),
                }
            }
            None => {
                if let Some(handle) = self.tick.take() {
                    self.events.cancel(handle);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_workload::scenario::BurstScenario;
    use faas_workload::trace::CallId;

    fn catalogue() -> Catalogue {
        Catalogue::sebs()
    }

    fn simulate_faulted(
        catalogue: &Catalogue,
        calls: &[Call],
        cfg: &NodeConfig,
        weights: &WeightTable,
        faults: &FaultSpec,
        seed: u64,
        node_index: u16,
    ) -> NodeResult {
        let mode = crate::NodeMode::Baseline;
        crate::simulate_calls_faulted(
            catalogue, calls, &mode, cfg, weights, faults, seed, node_index,
        )
    }

    fn simulate_weighted(
        catalogue: &Catalogue,
        calls: &[Call],
        cfg: &NodeConfig,
        weights: &WeightTable,
        seed: u64,
        node_index: u16,
    ) -> NodeResult {
        let none = FaultSpec::none();
        simulate_faulted(catalogue, calls, cfg, weights, &none, seed, node_index)
    }

    fn simulate(
        catalogue: &Catalogue,
        calls: &[Call],
        cfg: &NodeConfig,
        seed: u64,
        node_index: u16,
    ) -> NodeResult {
        let weights = WeightTable::uniform(catalogue.len());
        simulate_weighted(catalogue, calls, cfg, &weights, seed, node_index)
    }

    fn run(cores: u32, intensity: u32, seed: u64) -> NodeResult {
        let cat = catalogue();
        let scenario = BurstScenario::standard(cores, intensity).generate(&cat, seed);
        simulate(
            &cat,
            &scenario.all_calls(),
            &NodeConfig::paper(cores),
            seed,
            0,
        )
    }

    #[test]
    fn every_call_completes() {
        let r = run(10, 30, 1);
        assert_eq!(r.measured_len(), 330);
        for o in r.measured() {
            assert!(o.completion > o.release);
            assert!(o.exec_end >= o.exec_start);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(10, 30, 2);
        let b = run(10, 30, 2);
        assert_eq!(a.outcomes, b.outcomes);
    }

    #[test]
    fn concurrency_exceeds_cores_under_load() {
        // The defining property of the baseline: memory-bounded concurrency,
        // far beyond the core count (§IV-A motivation).
        let r = run(10, 60, 3);
        assert!(
            r.peak_concurrency > 10,
            "baseline should oversubscribe: peak {}",
            r.peak_concurrency
        );
    }

    #[test]
    fn greedy_creation_causes_cold_starts_under_load() {
        // Fig. 2a: the baseline keeps creating containers as load grows.
        let r = run(10, 90, 4);
        assert!(
            r.measured_cold_starts() > 100,
            "greedy baseline must cold-start heavily: got {}",
            r.measured_cold_starts()
        );
    }

    #[test]
    fn short_calls_stay_fast_at_moderate_load() {
        // Processor sharing favours short jobs: at intensity 30 on 10 cores
        // the median response must stay in single-digit seconds even though
        // the tail is long (paper Table III: median 2.82 s, avg 14.78 s).
        let r = run(10, 30, 5);
        let mut resp: Vec<f64> = r
            .measured()
            .map(|o| o.response_time().as_secs_f64())
            .collect();
        resp.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = resp[resp.len() / 2];
        let mean = resp.iter().sum::<f64>() / resp.len() as f64;
        assert!(median < 15.0, "median {median}");
        assert!(mean > median, "PS must skew the mean above the median");
    }

    #[test]
    fn node_index_is_propagated() {
        let cat = catalogue();
        let calls = vec![Call {
            id: CallId(0),
            func: cat.by_name("graph-bfs").unwrap(),
            release: SimTime::ZERO,
            kind: CallKind::Measured,
        }];
        let r = simulate(&cat, &calls, &NodeConfig::paper(4), 1, 9);
        assert_eq!(r.outcomes[0].node, 9);
    }

    #[test]
    fn io_heavy_function_is_insensitive_to_contention() {
        // sleep(1s) has cpu_fraction 0.02: its processing time barely grows
        // even under heavy sharing.
        let r = run(10, 60, 6);
        let cat = catalogue();
        let sleep = cat.by_name("sleep").unwrap();
        let mut times: Vec<f64> = r
            .measured()
            .filter(|o| o.func == sleep && o.start_kind == ColdStartKind::Warm)
            .map(|o| o.processing.as_secs_f64())
            .collect();
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(!times.is_empty());
        let median = times[times.len() / 2];
        assert!(
            median < 3.0,
            "warm sleep executions should stay near 1s, got median {median}"
        );
    }

    #[test]
    fn weighted_simulation_is_deterministic_and_complete() {
        use faas_workload::weight::WeightSpec;
        let cat = catalogue();
        let scenario = BurstScenario::standard(10, 30).generate(&cat, 8);
        let weights = WeightSpec::paper_tiers().table(&cat);
        let run = || {
            simulate_weighted(
                &cat,
                &scenario.all_calls(),
                &NodeConfig::paper(10),
                &weights,
                8,
                0,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.outcomes, b.outcomes, "weighted runs are deterministic");
        assert_eq!(a.measured_len(), 330, "every call completes");
    }

    #[test]
    fn uniform_weight_table_reproduces_the_unweighted_run() {
        use faas_workload::weight::WeightTable;
        let cat = catalogue();
        let scenario = BurstScenario::standard(10, 30).generate(&cat, 9);
        let calls = scenario.all_calls();
        let plain = simulate(&cat, &calls, &NodeConfig::paper(10), 9, 0);
        let uniform = simulate_weighted(
            &cat,
            &calls,
            &NodeConfig::paper(10),
            &WeightTable::uniform(cat.len()),
            9,
            0,
        );
        assert_eq!(plain.outcomes, uniform.outcomes);
    }

    #[test]
    fn tiered_weights_change_the_contended_outcome() {
        use faas_workload::weight::WeightSpec;
        let cat = catalogue();
        let scenario = BurstScenario::standard(10, 60).generate(&cat, 10);
        let calls = scenario.all_calls();
        let plain = simulate(&cat, &calls, &NodeConfig::paper(10), 10, 0);
        let weights = WeightSpec::paper_tiers().table(&cat);
        let tiered = simulate_weighted(&cat, &calls, &NodeConfig::paper(10), &weights, 10, 0);
        assert_ne!(
            plain.outcomes, tiered.outcomes,
            "weighted shares must shift completions under contention"
        );
        assert_eq!(tiered.outcomes.len(), plain.outcomes.len());
    }

    #[test]
    fn warmup_phase_shares_change_overlapping_outcomes() {
        // Cgroup-update latency: with `paper_tiers_cgroup_lag`, a warm-up
        // call's cold-start init runs at the default (1, 1) share instead
        // of the function's tier share. Overlap a warm-up and a measured
        // cold start of a weight-4 function on one core: the banks differ
        // (uniform vs heterogeneous), so the measured completion moves.
        use faas_workload::weight::WeightSpec;
        let cat = catalogue();
        let func = cat.ids().next().unwrap(); // tier index 0: weight 4.0
        let calls = vec![
            Call {
                id: CallId(0),
                func,
                release: SimTime::ZERO,
                kind: CallKind::Warmup,
            },
            Call {
                id: CallId(1),
                func,
                release: SimTime::ZERO,
                kind: CallKind::Measured,
            },
        ];
        let cfg = NodeConfig::paper(1);
        let run =
            |spec: WeightSpec| simulate_weighted(&cat, &calls, &cfg, &spec.table(&cat), 11, 0);
        let plain = run(WeightSpec::paper_tiers());
        let lagged = run(WeightSpec::paper_tiers_cgroup_lag());
        assert_ne!(
            plain.outcomes, lagged.outcomes,
            "warm-up init at the default share must shift the overlap"
        );
        // The override only touches warm-up phases: without warm-up calls
        // the two tables are indistinguishable.
        let measured_only = &calls[1..];
        let plain = simulate_weighted(
            &cat,
            measured_only,
            &cfg,
            &WeightSpec::paper_tiers().table(&cat),
            12,
            0,
        );
        let lagged = simulate_weighted(
            &cat,
            measured_only,
            &cfg,
            &WeightSpec::paper_tiers_cgroup_lag().table(&cat),
            12,
            0,
        );
        assert_eq!(plain.outcomes, lagged.outcomes);
    }

    fn faulted(cores: u32, intensity: u32, seed: u64, faults: &FaultSpec) -> NodeResult {
        let cat = catalogue();
        let scenario = BurstScenario::standard(cores, intensity).generate(&cat, seed);
        simulate_faulted(
            &cat,
            &scenario.all_calls(),
            &NodeConfig::paper(cores),
            &WeightTable::uniform(cat.len()),
            faults,
            seed,
            0,
        )
    }

    use faas_workload::faults::{CapacityRamp, RetryPolicy};

    #[test]
    fn inert_fault_machinery_reproduces_the_plain_run() {
        // A non-trivial spec whose events cannot change the simulation — a
        // capacity ramp whose floor is 1.0 — exercises every fault gate
        // (timeline merge, per-call state, transient draws at zero
        // probability) and must still produce the plain run's outcomes.
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
        let plain = run(10, 30, 14);
        let gated = faulted(10, 30, 14, &spec);
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
        let plain = run(10, 60, 15);
        let degraded = faulted(10, 60, 15, &spec);
        assert!(degraded.drops.is_empty(), "degradation drops nothing");
        assert_eq!(degraded.outcomes.len(), plain.outcomes.len());
        assert_ne!(plain.outcomes, degraded.outcomes, "capacity must bite");
        assert!(
            degraded.last_completion > plain.last_completion,
            "losing capacity mid-burst must delay the drain: {:?} vs {:?}",
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
        let r = faulted(10, 60, 16, &spec);
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
        let again = faulted(10, 60, 16, &spec);
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
        let r = faulted(10, 30, 17, &spec);
        assert!(r.fault_stats.transient_failures > 0);
        assert!(r.fault_stats.retries > 0);
        assert_eq!(r.outcomes.len() + r.drops.len(), total);
        // p_drop = 0.15^5 ≈ 8e-5: with ~360 calls, drops are possible but
        // every drop must be a genuine exhaustion.
        for d in &r.drops {
            assert_eq!(d.reason, DropReason::ExhaustedRetries);
            assert_eq!(d.attempts, spec.retry.max_attempts);
        }
        // The survivors dominate: goodput stays near 1.
        assert!(r.drops.len() < total / 20);
    }

    #[test]
    fn pending_timeout_abandons_queued_calls() {
        // Starve the node (tiny memory, one container at a time) so the
        // FIFO backs up, with a tight no-retry timeout: queued calls are
        // abandoned with `TimedOut`.
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
            &WeightTable::uniform(cat.len()),
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
    fn queue_forms_when_memory_exhausted() {
        let cat = catalogue();
        let scenario = BurstScenario::standard(10, 60).generate(&cat, 7);
        let cfg = NodeConfig::paper(10).with_memory_mb(4 * 1024);
        let r = simulate(&cat, &scenario.all_calls(), &cfg, 7, 0);
        assert!(r.peak_queue > 0, "4 GiB at intensity 60 must queue");
        assert_eq!(r.measured_len(), 660);
    }
}
