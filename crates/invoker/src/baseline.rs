//! The unmodified-OpenWhisk baseline regime (§III).
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
//! # Faults
//!
//! The call lifecycle under faults is the shared one (see `crate::node`).
//! In this regime **capacity** events rebase the GPS bank via
//! [`GpsCpu::set_capacity`] — running calls keep their served work and
//! share the new capacity — a **crash** empties the bank (queued calls wait
//! in the FIFO for the restart), and a **pending timeout** removes the
//! timed-out FIFO entry eagerly.
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
use crate::node::{Ev, Regime, Shell};
use crate::result::NodeResult;
use faas_cpu::{GpsCpu, GpsParams, Resource, ResourceVector, TaskId};
use faas_simcore::dist::Sampler;
use faas_simcore::events::EventHandle;
use faas_simcore::time::{SimDuration, SimTime};
use faas_workload::sebs::Catalogue;
use faas_workload::trace::ColdStartKind;
use faas_workload::weight::{CallPhase, TaskShare, WeightTable};
use std::collections::HashMap;
use std::collections::VecDeque;

/// What a GPS task belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Owner {
    /// Cold-start initialisation of call `i`.
    Init(u32),
    /// CPU phase of call `i`.
    Exec(u32),
}

/// The baseline's CPU regime: greedy placement, a FIFO overflow queue and
/// a GPS bank shared by every CPU phase.
pub(crate) struct Gps<'a> {
    /// Per-function GPS weights/caps (weighted containers). The uniform
    /// table keeps every task on the GPS fast path.
    weights: &'a WeightTable,
    cpu: GpsCpu,
    fifo: VecDeque<u32>,
    peak_queue: usize,
    /// Containers leased (placed, not yet cleaned up).
    leased: usize,
    peak_leased: usize,
    /// Each live GPS task's owner and demand profile (per dominant-resource
    /// unit, from `ResourceVector::profile`), so removals can settle the
    /// per-resource served-work counters.
    owners: HashMap<TaskId, (Owner, [f64; 2])>,
    /// Per-resource work served by the GPS bank, in axis units:
    /// `[core-seconds, bandwidth-unit-seconds]`. Accumulated as offered
    /// work at task entry minus the residual returned at removal, so
    /// crash-killed work counts only what actually ran.
    served_work: [f64; 2],
    /// The one pending [`Ev::GpsTick`], rescheduled in place on every GPS
    /// membership change instead of abandoning stale copies in the queue.
    tick: Option<EventHandle>,
    /// Reused buffer for completion collection: the GPS tick is the hottest
    /// event, and `finished_tasks_into` keeps it allocation-free.
    finished_scratch: Vec<TaskId>,
}

impl<'a> Gps<'a> {
    pub(crate) fn new(catalogue: &Catalogue, cfg: &NodeConfig, weights: &'a WeightTable) -> Self {
        assert_eq!(
            weights.len(),
            catalogue.len(),
            "weight table must cover the catalogue"
        );
        let mut cpu = GpsCpu::new(GpsParams {
            cores: cfg.cores as f64,
            ctx_switch_penalty: cfg.calibration.ctx_switch_penalty,
            penalty_cap: cfg.calibration.ctx_switch_penalty_cap,
        });
        // A modeled memory-bandwidth capacity enters the GPS bank before
        // any task exists; with the 0.0 sentinel the bank never hears
        // about the axis and stays bit-identical to the CPU-only model.
        if cfg.mem_bandwidth > 0.0 {
            cpu.set_resource_capacity(SimTime::ZERO, Resource::Mem, cfg.mem_bandwidth);
        }
        Gps {
            weights,
            cpu,
            fifo: VecDeque::new(),
            peak_queue: 0,
            leased: 0,
            peak_leased: 0,
            owners: HashMap::new(),
            served_work: [0.0; 2],
            tick: None,
            finished_scratch: Vec::new(),
        }
    }

    /// Attempt immediate placement; returns false if the call must queue.
    fn try_place(&mut self, sh: &mut Shell, now: SimTime, i: u32) -> bool {
        let Some(kind) = sh.lease(now, i) else {
            return false;
        };
        self.leased += 1;
        self.peak_leased = self.peak_leased.max(self.leased);
        if kind == ColdStartKind::Prewarm && sh.pool.prewarm_deficit() > 0 {
            sh.events.schedule(
                now + sh.cfg.calibration.prewarm_replacement_delay,
                Ev::PrewarmReady(sh.incarnation),
            );
        }
        let init_work = sh.init_work(kind);
        if init_work > 0.0 {
            // Per-phase lookup: warm-up cold-start init can run at a
            // different share than the function's (cgroup update latency).
            let call = &sh.outcomes[i as usize];
            let share = self
                .weights
                .phase_share(call.func, call.kind, CallPhase::Init);
            let (tid, profile) = self.add_share_task(now, init_work, &share);
            self.owners.insert(tid, (Owner::Init(i), profile));
        } else {
            self.start_exec(sh, now, i);
        }
        self.reschedule_tick(sh, now);
        true
    }

    /// Begin the execution phases: CPU work under GPS, then I/O.
    fn start_exec(&mut self, sh: &mut Shell, now: SimTime, i: u32) {
        let idx = i as usize;
        let call = &sh.outcomes[idx];
        let (func, kind) = (call.func, call.kind);
        let spec = sh.catalogue.spec(func);
        let p = spec.service_dist().sample(&mut sh.rng_service);
        let cpu_work = spec.cpu_fraction * p;
        sh.runtime[idx].exec_start = now;
        sh.runtime[idx].p = p;
        let share = self.weights.phase_share(func, kind, CallPhase::Exec);
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

    /// Keep the single tick event aligned with the next GPS completion:
    /// moved in place when the completion time shifts, cancelled when the
    /// bank drains. The queue never holds stale ticks.
    fn reschedule_tick(&mut self, sh: &mut Shell, now: SimTime) {
        match self.cpu.next_completion(now) {
            Some((_, at)) => {
                let at = at.max(now);
                match self.tick {
                    Some(handle) => sh.events.reschedule(handle, at),
                    None => self.tick = Some(sh.events.schedule(at, Ev::GpsTick)),
                }
            }
            None => {
                if let Some(handle) = self.tick.take() {
                    sh.events.cancel(handle);
                }
            }
        }
    }
}

impl Regime for Gps<'_> {
    const RNG_STREAMS: [u64; 2] = [0xB001, 0xB002];

    /// §III: "When an invoker receives a new request and there are pending
    /// requests, the request is added to the queue." A dead node's
    /// requests queue too: the load balancer committed them to the topic.
    fn admit(&mut self, sh: &mut Shell, now: SimTime, i: u32) {
        let dead = sh.fault_on && !sh.alive;
        if dead || !self.fifo.is_empty() || !self.try_place(sh, now, i) {
            self.fifo.push_back(i);
            self.peak_queue = self.peak_queue.max(self.fifo.len());
        }
    }

    /// Serve queued requests in FIFO order until one cannot be placed.
    fn drain(&mut self, sh: &mut Shell, now: SimTime) {
        while let Some(&head) = self.fifo.front() {
            if self.try_place(sh, now, head) {
                self.fifo.pop_front();
            } else {
                break;
            }
        }
    }

    fn release(&mut self, sh: &mut Shell, now: SimTime) {
        self.leased -= 1;
        self.drain(sh, now);
    }

    /// Post-response cleanup holds the container (docker pause, log
    /// collection) but burns no CPU: with containers oversubscribing the
    /// cores the OS overlaps this work, unlike the paper's dedicated-core
    /// regime where it idles the call's core.
    fn end_exec(&mut self, sh: &mut Shell, now: SimTime, i: u32) -> (SimDuration, SimDuration) {
        let rt = sh.runtime[i as usize];
        let mgmt = sh
            .cfg
            .calibration
            .baseline_mgmt_secs(sh.cfg.cores, rt.p, self.leased);
        let processing = now.saturating_since(rt.exec_start);
        (SimDuration::from_secs_f64(mgmt), processing)
    }

    fn set_capacity(&mut self, sh: &mut Shell, now: SimTime, factor: f64) {
        // Capacity-rebase invariant (see `GpsCpu::set_capacity`): served
        // work up to `now` is settled under the old capacity before the
        // parameter swap, then the completion tick moves to the new
        // earliest finisher.
        self.cpu.set_capacity(now, sh.cfg.cores as f64 * factor);
        self.reschedule_tick(sh, now);
    }

    fn crash(&mut self, sh: &mut Shell, now: SimTime) {
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
        self.leased = 0;
        self.reschedule_tick(sh, now); // the bank is empty: cancels the tick
    }

    fn abandon(&mut self, i: u32) {
        let pos = self
            .fifo
            .iter()
            .position(|&c| c == i)
            .expect("a Queued call must sit in the FIFO");
        self.fifo.remove(pos);
    }

    fn tick(&mut self, sh: &mut Shell, now: SimTime) {
        // The tick just fired; its handle is dead until rescheduled below.
        self.tick = None;
        // Collect every task that finished by now (several can tie) into the
        // reused scratch buffer, snapshotting the set before membership
        // changes below can alter it.
        let mut finished = std::mem::take(&mut self.finished_scratch);
        self.cpu.finished_tasks_into(now, &mut finished);
        for &tid in &finished {
            let (owner, profile) = self
                .owners
                .remove(&tid)
                .expect("finished GPS task must have an owner");
            self.remove_gps_task(now, tid, profile);
            match owner {
                Owner::Init(i) => self.start_exec(sh, now, i),
                Owner::Exec(i) => {
                    // The I/O phase: the rest of the intrinsic time.
                    let idx = i as usize;
                    let spec = sh.catalogue.spec(sh.outcomes[idx].func);
                    let io = (1.0 - spec.cpu_fraction) * sh.runtime[idx].p;
                    sh.events.schedule(
                        now + SimDuration::from_secs_f64(io),
                        Ev::ExecDone(i, sh.incarnation),
                    );
                }
            }
        }
        self.finished_scratch = finished;
        self.reschedule_tick(sh, now);
    }

    fn queue_len(&self) -> usize {
        self.fifo.len()
    }

    fn inflight(&self) -> usize {
        self.leased
    }

    /// The maximum over modeled resource axes of the GPS bank's
    /// `consumption / capacity`: one O(live tasks) scan per window.
    fn dominant_share(&mut self, _cfg: &NodeConfig) -> f64 {
        let mut share: f64 = 0.0;
        for r in [Resource::Cpu, Resource::Mem] {
            let cap = self.cpu.resource_capacity(r);
            if cap.is_finite() && cap > 0.0 {
                share = share.max(self.cpu.resource_consumption(r) / cap);
            }
        }
        share
    }

    fn settle(self, _sh: &Shell, result: &mut NodeResult) {
        assert!(
            self.fifo.is_empty(),
            "baseline ended with {} stuck calls",
            self.fifo.len()
        );
        debug_assert!(self.cpu.is_empty(), "GPS bank must drain");
        result.peak_queue = self.peak_queue;
        result.peak_concurrency = self.peak_leased;
        // Compensated entry/exit accounting can leave a ±ulp residue
        // around zero; served work is non-negative by construction.
        result.served_cpu_secs = self.served_work[0].max(0.0);
        result.served_mem_units = self.served_work[1].max(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_workload::faults::FaultSpec;
    use faas_workload::scenario::BurstScenario;
    use faas_workload::trace::{Call, CallId, CallKind};

    fn catalogue() -> Catalogue {
        Catalogue::sebs()
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
        let mode = crate::NodeMode::Baseline;
        crate::simulate_calls_faulted(
            catalogue, calls, &mode, cfg, weights, &none, seed, node_index,
        )
    }

    fn simulate(
        catalogue: &Catalogue,
        calls: &[Call],
        cfg: &NodeConfig,
        seed: u64,
        node_index: u16,
    ) -> NodeResult {
        let mode = crate::NodeMode::Baseline;
        crate::simulate_calls(catalogue, calls, &mode, cfg, seed, node_index)
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
