//! The paper's regime: priority queue + dedicated cores (§IV).
//!
//! Event structure of one call:
//!
//! ```text
//! release ──hop──▶ Arrive (r', priority computed, queued)
//!   └─ dispatch when a core is free and the call is at the queue head:
//!        [cold-start init] → execution (p drawn from the function's
//!        distribution, full core, non-preemptive) → ExecDone
//! ExecDone ──hop──▶ completion at the client; container enters cleanup
//! CleanupDone: container → free pool (lease released), dispatch again
//! ```
//!
//! A core is busy exactly while its call holds a container lease: the node
//! runs at most `limit` leased containers, counted by the shell's
//! [`ContainerPool`](crate::ContainerPool). The container is unavailable
//! during cleanup and its core idles: this is the per-call management cost
//! (docker pause/unpause, log collection) that the paper identifies as
//! comparable to the execution time itself (§V-B).
//!
//! # Faults
//!
//! The call lifecycle under faults is the shared one (see `crate::node`),
//! adapted here to the dedicated-core regime:
//!
//! * **Capacity** events rescale the busy limit. Execution is
//!   non-preemptive, so a shrink never interrupts running calls — the node
//!   just dispatches nothing until completions drain its leases below the
//!   new limit. The oversubscription slowdown keeps using the configured core
//!   count (a documented approximation: at the paper's busy limit the
//!   slowdown is exactly 1 and the capacity squeeze is fully captured by
//!   the reduced parallelism).
//! * **Crash** loses every lease with the containers; queued calls
//!   survive in the pending queue.
//! * **Pending timeouts** skip lazily: [`PendingQueue`] has no removal, so
//!   a timed-out entry stays queued and `dispatch` discards it on pop
//!   (its phase is no longer `Queued`). A retried call is pushed again
//!   with a fresh priority; whichever entry pops first while the call is
//!   `Queued` dispatches it, the rest are stale.
//! * Re-delivered attempts go through [`SchedulerState::on_receive`] again
//!   — the scheduler sees every delivery, like OpenWhisk's controller.

use crate::config::{mgmt_secs, NodeConfig};
use crate::node::{Ev, FaultPhase, Regime, Shell};
use crate::result::NodeResult;
use faas_core::{PendingQueue, SchedulerConfig, SchedulerState};
use faas_simcore::time::{SimDuration, SimTime};
use faas_workload::sebs::Catalogue;

/// The paper's CPU regime: a policy-ordered pending queue in front of at
/// most `limit` busy containers, each on a dedicated core.
pub(crate) struct Cores {
    pending: PendingQueue<u32>,
    sched: SchedulerState,
    /// Busy-container limit: [`NodeConfig::busy_limit`] rescaled by
    /// capacity faults.
    limit: u32,
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
}

impl Cores {
    pub(crate) fn new(catalogue: &Catalogue, cfg: &NodeConfig, sched: SchedulerConfig) -> Self {
        assert!(cfg.cores > 0, "a node needs at least one action core");
        Cores {
            pending: PendingQueue::new(),
            sched: SchedulerState::new(catalogue.len(), sched),
            limit: cfg.busy_limit(),
            cpu_load: 0.0,
            mem_load: 0.0,
            served_cpu_secs: 0.0,
            served_mem_units: 0.0,
        }
    }

    /// Start as many pending calls as free cores and memory allow, in
    /// priority order with head-of-line blocking (the queue is strict).
    /// A no-op on a dead node: arrivals keep queuing until the restart.
    fn dispatch(&mut self, sh: &mut Shell, now: SimTime) {
        if !sh.alive {
            return;
        }
        while sh.pool.leased() < self.limit && !self.pending.is_empty() {
            let i = self.pending.pop().expect("non-empty queue pops");
            let idx = i as usize;
            if sh.runtime.phase(i) != Some(FaultPhase::Queued) {
                // Stale entry: the attempt timed out while queued (or a
                // duplicate entry already dispatched this call, which may
                // since have resolved and retired). A failed lease
                // requeues before the phase moves, so a fault-free run
                // never pops one.
                continue;
            }
            // Cold-start initialisation runs on the call's core at full
            // speed (dedicated core: work in core-seconds == seconds).
            let Some(init_secs) = sh.lease(i) else {
                // No memory even after eviction: requeue at the same
                // priority and wait for a container release.
                self.pending.push(sh.runtime[i].priority, i);
                break;
            };
            let func = sh.outcomes[idx].func;
            let spec = sh.catalogue.spec(func);
            let p = sh.sample_service(func);
            // Oversubscription slowdown, frozen at dispatch (see the
            // module docs); exactly 1 at the paper's busy limit. With a
            // modeled memory axis the slowdown is the dominant-resource
            // pressure: the max over the CPU and bandwidth axes (DRF
            // semantics — the binding axis stretches the execution).
            self.cpu_load += spec.cpu_fraction;
            self.mem_load += mem_units(spec.memory_mb);
            let mut slowdown = (self.cpu_load / sh.cfg.cores as f64).max(1.0);
            if sh.cfg.mem_bandwidth > 0.0 {
                slowdown = slowdown.max(self.mem_load / sh.cfg.mem_bandwidth);
            }
            let exec_secs = p * (spec.cpu_fraction * slowdown + (1.0 - spec.cpu_fraction));
            let exec_start = now + SimDuration::from_secs_f64(init_secs);
            sh.runtime[i].exec_start = exec_start;
            sh.runtime[i].p = p;
            sh.events.schedule(
                exec_start + SimDuration::from_secs_f64(exec_secs),
                Ev::ExecDone(i, sh.incarnation),
            );
        }
    }
}

impl Regime for Cores {
    const RNG_STREAMS: [u64; 2] = [0xA001, 0xA002];

    fn admit(&mut self, sh: &mut Shell, now: SimTime, i: u32) {
        let prio = self.sched.on_receive(sh.outcomes[i as usize].func, now);
        sh.runtime[i].priority = prio;
        self.pending.push(prio, i);
        self.dispatch(sh, now);
    }

    fn drain(&mut self, sh: &mut Shell, now: SimTime) {
        self.dispatch(sh, now);
    }

    /// The container is held — and its core idles — through the per-call
    /// management cleanup.
    fn end_exec(&mut self, sh: &mut Shell, now: SimTime, i: u32) -> (SimDuration, SimDuration) {
        let rt = sh.runtime[i];
        let func = sh.outcomes[i as usize].func;
        let spec = sh.catalogue.spec(func);
        self.cpu_load -= spec.cpu_fraction;
        self.mem_load -= mem_units(spec.memory_mb);
        // The work was consumed whether or not the response survives the
        // transient-failure draw, so it counts as served either way.
        self.served_cpu_secs += rt.p * spec.cpu_fraction;
        if sh.cfg.mem_bandwidth > 0.0 {
            self.served_mem_units +=
                now.saturating_since(rt.exec_start).as_secs_f64() * mem_units(spec.memory_mb);
        }
        let processing = SimDuration::from_secs_f64(rt.p);
        let mgmt = SimDuration::from_secs_f64(mgmt_secs(sh.cfg.cores, rt.p));
        // The paper's invoker stores "the processing time" measured around
        // the whole container interaction (§IV-B); on a loaded node that
        // window includes the per-call container management, so the stored
        // estimate is the held interval, not the bare execution time. The
        // invoker measures it whether or not the response survives.
        self.sched.on_complete(func, processing + mgmt, now);
        (mgmt, processing)
    }

    fn set_capacity(&mut self, sh: &mut Shell, now: SimTime, factor: f64) {
        // Scale the busy limit; never below one core. Running calls are
        // non-preemptive, so a shrink only stops new dispatches until the
        // leases drain below the new limit.
        self.limit = (sh.cfg.busy_limit() as f64 * factor).round().max(1.0) as u32;
        self.dispatch(sh, now); // a grow frees cores immediately
    }

    fn crash(&mut self, _sh: &mut Shell, _now: SimTime) {
        self.cpu_load = 0.0;
        self.mem_load = 0.0;
    }

    /// Lazy: the entry stays queued and `dispatch` skips it on pop.
    fn abandon(&mut self, _i: u32) {}

    /// Queue depth is the pending queue's raw length — stale (timed-out)
    /// entries are reaped lazily, so under faults this over-reports,
    /// exactly like the noisy queue metric a real controller polls.
    fn queue_len(&self) -> usize {
        self.pending.len()
    }

    /// Leases against the current (possibly degraded) busy limit, or
    /// bandwidth pressure when the memory axis is modeled — whichever axis
    /// is tighter (the DRF signal feedback balancers route on).
    fn dominant_share(&self, sh: &Shell) -> f64 {
        let mut share = sh.pool.leased() as f64 / self.limit as f64;
        if sh.cfg.mem_bandwidth > 0.0 {
            share = share.max(self.mem_load / sh.cfg.mem_bandwidth);
        }
        share
    }

    fn settle(mut self, sh: &Shell, result: &mut NodeResult) {
        // Timed-out queue entries are skipped lazily, so stale entries may
        // remain (their calls possibly retired); anything still genuinely
        // queued is a stuck call.
        while let Some(i) = self.pending.pop() {
            assert!(
                sh.runtime.phase(i) != Some(FaultPhase::Queued),
                "simulation ended with call {i} stuck in the pending queue \
                 (memory smaller than one container?)"
            );
        }
        result.peak_queue = self.pending.peak_len();
        result.served_cpu_secs = self.served_cpu_secs;
        result.served_mem_units = self.served_mem_units;
    }
}

/// A container's memory-bandwidth demand in bandwidth units: its
/// working-set footprint in GiB (see [`NodeConfig::mem_bandwidth`]).
fn mem_units(memory_mb: u32) -> f64 {
    memory_mb as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_core::Policy;
    use faas_workload::scenario::BurstScenario;
    use faas_workload::trace::{Call, CallId, CallKind, CallOutcome, ColdStartKind};

    fn catalogue() -> Catalogue {
        Catalogue::sebs()
    }

    fn simulate(
        catalogue: &Catalogue,
        calls: &[Call],
        cfg: &NodeConfig,
        sched_cfg: SchedulerConfig,
        seed: u64,
        node_index: u16,
    ) -> NodeResult {
        let mode = crate::NodeMode::Scheduled(sched_cfg);
        crate::simulate_calls(catalogue, calls, &mode, cfg, seed, node_index)
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
    #[should_panic(expected = "at least one action core")]
    fn zero_cores_rejected() {
        let sched = SchedulerConfig::paper(Policy::Fifo);
        Cores::new(&catalogue(), &NodeConfig::paper(0), sched);
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
