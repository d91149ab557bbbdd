//! Edge-case integration tests of the invoker substrate: eviction cascades,
//! prewarm replacement, tiny nodes, degenerate workloads.

use faas_core::{Policy, SchedulerConfig};
use faas_invoker::{simulate_calls, simulate_scenario, NodeConfig, NodeMode, NodeSim};
use faas_simcore::time::{SimDuration, SimTime};
use faas_workload::faults::{CrashSpec, FaultSpec, RetryPolicy};
use faas_workload::scenario::BurstScenario;
use faas_workload::sebs::{Catalogue, FuncId};
use faas_workload::trace::{Call, CallId, CallKind};
use faas_workload::weight::WeightTable;

fn catalogue() -> Catalogue {
    Catalogue::sebs()
}

#[test]
fn single_core_node_serialises_everything() {
    let cat = catalogue();
    let scenario = BurstScenario::standard(1, 30).generate(&cat, 1);
    let cfg = NodeConfig::paper(1);
    let r = simulate_scenario(
        &cat,
        &scenario,
        &NodeMode::Scheduled(SchedulerConfig::paper(Policy::Fifo)),
        &cfg,
        1,
    );
    assert_eq!(r.peak_concurrency, 1);
    // Executions never overlap on one core.
    let mut spans: Vec<(SimTime, SimTime)> = r
        .outcomes
        .iter()
        .map(|o| (o.exec_start, o.exec_end))
        .collect();
    spans.sort();
    for w in spans.windows(2) {
        assert!(w[0].1 <= w[1].0, "overlap: {:?} then {:?}", w[0], w[1]);
    }
}

#[test]
fn memory_of_exactly_one_container_still_completes() {
    // Pathological: room for one 256 MiB container (plus no prewarm).
    let cat = catalogue();
    let mut cfg = NodeConfig::paper(1).with_memory_mb(256);
    cfg.prewarm_count = 0;
    let calls: Vec<Call> = (0..20)
        .map(|i| Call {
            id: CallId(i),
            func: cat.by_name("graph-bfs").unwrap(),
            release: SimTime::from_millis(100 * i),
            kind: CallKind::Measured,
        })
        .collect();
    let r = simulate_calls(
        &cat,
        &calls,
        &NodeMode::Scheduled(SchedulerConfig::paper(Policy::Fifo)),
        &cfg,
        2,
        0,
    );
    assert_eq!(r.measured_len(), 20);
    // One container serves everything after its single cold start.
    assert_eq!(r.total_pool_stats.cold_creates, 1);
    assert_eq!(r.total_pool_stats.warm_hits, 19);
}

#[test]
fn alternating_functions_on_tiny_memory_thrash_via_eviction() {
    let cat = catalogue();
    let mut cfg = NodeConfig::paper(1).with_memory_mb(256);
    cfg.prewarm_count = 0;
    let a = cat.by_name("graph-bfs").unwrap();
    let b = cat.by_name("graph-mst").unwrap();
    let calls: Vec<Call> = (0..20)
        .map(|i| Call {
            id: CallId(i),
            func: if i % 2 == 0 { a } else { b },
            release: SimTime::from_millis(500 * i),
            kind: CallKind::Measured,
        })
        .collect();
    let r = simulate_calls(
        &cat,
        &calls,
        &NodeMode::Scheduled(SchedulerConfig::paper(Policy::Fifo)),
        &cfg,
        3,
        0,
    );
    // Every call needs its own container; each creation evicts the previous
    // function's idle container.
    assert_eq!(r.total_pool_stats.cold_creates, 20);
    assert_eq!(r.total_pool_stats.evictions, 19);
    assert_eq!(r.total_pool_stats.warm_hits, 0);
}

#[test]
fn prewarm_pool_replenishes_and_serves_again() {
    let cat = catalogue();
    let mut cfg = NodeConfig::paper(2);
    cfg.prewarm_count = 1;
    let f = cat.by_name("dynamic-html").unwrap();
    let g = cat.by_name("thumbnailer").unwrap();
    // Two different functions far apart in time: both should hit prewarm
    // (the second one the replacement stemcell).
    let calls = vec![
        Call {
            id: CallId(0),
            func: f,
            release: SimTime::ZERO,
            kind: CallKind::Measured,
        },
        Call {
            id: CallId(1),
            func: g,
            release: SimTime::from_secs(30),
            kind: CallKind::Measured,
        },
    ];
    let r = simulate_calls(
        &cat,
        &calls,
        &NodeMode::Scheduled(SchedulerConfig::paper(Policy::Fifo)),
        &cfg,
        4,
        0,
    );
    assert_eq!(
        r.total_pool_stats.prewarm_hits, 2,
        "stats: {:?}",
        r.total_pool_stats
    );
}

#[test]
fn baseline_handles_burst_arriving_in_one_instant() {
    // All calls released at the same nanosecond: a worst-case arrival spike.
    let cat = catalogue();
    let f = cat.by_name("graph-pagerank").unwrap();
    let calls: Vec<Call> = (0..200)
        .map(|i| Call {
            id: CallId(i),
            func: f,
            release: SimTime::from_secs(1),
            kind: CallKind::Measured,
        })
        .collect();
    let r = simulate_calls(
        &cat,
        &calls,
        &NodeMode::Baseline,
        &NodeConfig::paper(4),
        5,
        0,
    );
    assert_eq!(r.measured_len(), 200);
    for o in r.measured() {
        assert!(o.completion > o.release);
    }
}

#[test]
fn scheduled_node_handles_instant_spike_of_long_calls() {
    let cat = catalogue();
    let f = cat.by_name("dna-visualisation").unwrap();
    let calls: Vec<Call> = (0..30)
        .map(|i| Call {
            id: CallId(i),
            func: f,
            release: SimTime::from_secs(1),
            kind: CallKind::Measured,
        })
        .collect();
    let r = simulate_calls(
        &cat,
        &calls,
        &NodeMode::Scheduled(SchedulerConfig::paper(Policy::Sept)),
        &NodeConfig::paper(2),
        6,
        0,
    );
    assert_eq!(r.measured_len(), 30);
    // Ties in priority (same function, same estimate) must serve FIFO.
    // Only warm starts are checked: the two initial prewarm placements
    // dispatch simultaneously and their random init times scramble
    // exec_start without scrambling the dispatch order.
    use faas_workload::trace::ColdStartKind;
    let mut by_start: Vec<_> = r
        .measured()
        .filter(|o| o.start_kind == ColdStartKind::Warm)
        .collect();
    by_start.sort_by_key(|o| o.exec_start);
    for w in by_start.windows(2) {
        assert!(w[0].id < w[1].id, "FIFO tie-break violated");
    }
}

#[test]
fn empty_measured_phase_is_not_a_crash() {
    // A warm-up-only call list exercises the snapshot edge case.
    let cat = catalogue();
    let calls = vec![Call {
        id: CallId(0),
        func: cat.by_name("sleep").unwrap(),
        release: SimTime::ZERO,
        kind: CallKind::Warmup,
    }];
    let r = simulate_calls(
        &cat,
        &calls,
        &NodeMode::Scheduled(SchedulerConfig::paper(Policy::Fifo)),
        &NodeConfig::paper(1),
        7,
        0,
    );
    assert_eq!(r.measured_len(), 0);
    assert_eq!(r.measured_cold_starts(), 0);
}

#[test]
fn event_queue_stays_bounded_by_live_tasks() {
    // Regression for the stale-GpsTick pattern: the baseline invoker used
    // to schedule a fresh generation-stamped tick on every arrival/IO/
    // completion without cancelling the previous one, so every simulated
    // event pushed a dead entry through the heap (plus hash-map traffic on
    // the pop path). With the tick as the queue's one re-armable timer,
    // the queue can never hold more than the live events: the
    // pre-scheduled arrivals, at most one IoDone/CleanupDone per leased
    // container, at most one tick, and a handful of in-flight PrewarmReady
    // events. (See also `timer_re_arm_burst_keeps_len_at_live_events_plus_one`
    // in faas-simcore, which pins the thousands-of-re-arms case at the
    // queue level.)
    let cat = catalogue();
    let scenario = BurstScenario::standard(10, 90).generate(&cat, 42);
    let calls = scenario.all_calls();
    for mode in [
        NodeMode::Baseline,
        NodeMode::Scheduled(SchedulerConfig::paper(Policy::Fifo)),
    ] {
        let r = simulate_calls(&cat, &calls, &mode, &NodeConfig::paper(10), 42, 0);
        let bound = calls.len() + 16;
        assert!(
            r.peak_events <= bound,
            "event queue must stay O(live tasks) under {mode:?}: peak {} > bound {} (calls {})",
            r.peak_events,
            bound,
            calls.len()
        );
    }
}

#[test]
fn retired_calls_survive_stale_timers_queue_entries_and_a_crash() {
    // A node keeps runtime only from its oldest unresolved call on. Here a
    // short pending timeout on an overloaded node times calls out while
    // queued. With retries, they complete and retire, and only then do the
    // stale `PendingTimeout` of the completed attempt and (on the
    // scheduled node) the lazily skipped queue entry of the timed-out one
    // fire. Without retries, the crash drops every call it kills, so its
    // kill walk retires calls, and compacts the window, under its feet.
    // The crash lands mid-burst, when the window has long since retired a
    // prefix. Calls arrive in chunks, as a cluster run feeds them, so the
    // node never holds every call's runtime at once.
    let cat = catalogue();
    let seed = 37;
    let scenario = BurstScenario::standard(4, 30).generate(&cat, seed);
    let calls = scenario.all_calls();
    let weights = WeightTable::uniform(cat.len());
    let cfg = NodeConfig::paper(4);
    for max_attempts in [8, 1] {
        let window = SimDuration::from_secs(60);
        let mut faults = FaultSpec::crash_restart(seed, scenario.burst_start, window);
        faults.retry = RetryPolicy {
            max_attempts,
            pending_timeout: Some(SimDuration::from_secs(2)),
            backoff_base: SimDuration::from_millis(100),
            backoff_factor: 1.0,
            jitter: 0.5,
        };
        for mode in [
            NodeMode::Baseline,
            NodeMode::Scheduled(SchedulerConfig::paper(Policy::Sept)),
        ] {
            let what = format!("{mode:?}, {max_attempts} attempts");
            let run = || {
                let mut sim = NodeSim::new(&cat, &mode, &cfg, &weights, &faults, seed, 0, false);
                for chunk in calls.chunks(16) {
                    sim.advance_to(chunk[0].release);
                    sim.inject(chunk);
                }
                sim.advance_to(SimTime::MAX);
                sim.finish()
            };
            let r = run();
            assert_eq!(r.fault_stats.crashes, 1, "{what}");
            assert!(r.fault_stats.crash_kills > 0, "{what}");
            assert!(r.fault_stats.timeouts > 0, "{what}");
            assert!(r.outcomes.len() > r.drops.len(), "{what}");
            assert_eq!(r.outcomes.len() + r.drops.len(), calls.len(), "{what}");
            assert!(r.peak_live_calls < calls.len(), "{what}: calls retire");
            let again = run();
            assert_eq!(r.outcomes, again.outcomes, "{what}");
            assert_eq!(r.drops, again.drops, "{what}");
            assert_eq!(r.fault_stats, again.fault_stats, "{what}");
            assert_eq!(r.peak_live_calls, again.peak_live_calls, "{what}");
        }
    }
}

#[test]
fn a_crash_at_an_arrival_instant_fires_before_the_arrival() {
    // A node schedules its fault timeline before any arrival, so a crash
    // at the very instant a call arrives holds the smaller sequence number
    // and fires first, although arrivals wait in the event queue's
    // in-order lane and the crash in its heap. The call then reaches a
    // dead node, waits for the restart and loses no attempt; were the tie
    // broken the other way, the crash would kill the attempt it had just
    // started.
    let cat = catalogue();
    let cfg = NodeConfig::paper(4);
    let weights = WeightTable::uniform(cat.len());
    let release = SimTime::from_secs(10);
    let arrival = release + cfg.hop;
    let restart_after = SimDuration::from_secs(5);
    let faults = FaultSpec {
        crashes: vec![CrashSpec {
            node: 0,
            at: arrival,
            restart_after,
        }],
        retry: RetryPolicy::standard(),
        ..FaultSpec::none()
    };
    let call = Call {
        id: CallId(0),
        func: FuncId(0),
        release,
        kind: CallKind::Measured,
    };
    for mode in [
        NodeMode::Baseline,
        NodeMode::Scheduled(SchedulerConfig::paper(Policy::Fifo)),
    ] {
        let mut sim = NodeSim::new(&cat, &mode, &cfg, &weights, &faults, 1, 0, false);
        sim.inject(&[call]);
        sim.advance_to(SimTime::MAX);
        let r = sim.finish();
        assert_eq!(r.fault_stats.crashes, 1, "{mode:?}");
        assert_eq!(
            r.fault_stats.crash_kills, 0,
            "{mode:?}: the crash fires first"
        );
        assert_eq!(r.fault_stats.retries, 0, "{mode:?}");
        assert!(
            r.outcomes[0].exec_start >= arrival + restart_after,
            "{mode:?}: the call waits for the restart"
        );
    }
}

#[test]
fn a_gps_tick_re_armed_onto_an_occupied_instant_fires_after_its_events() {
    // The baseline's GPS tick is the event queue's one re-armable timer,
    // and a re-arm takes a fresh sequence number. Call A's cold-start init
    // arms the tick for instant `t`; call B's arrival at exactly `t` is
    // scheduled after that; call C's init joins the GPS bank before `t`
    // and re-arms the tick onto `t`. So B arrives first: it takes the
    // warm container call D left behind and draws its service time before
    // the tick starts A's execution and A draws its own. Were the re-arm
    // to keep the tick's old sequence number, the tick would fire first
    // and the two draws would trade places.
    let cat = catalogue();
    let cfg = NodeConfig::paper(4);
    let weights = WeightTable::uniform(cat.len());
    let faults = FaultSpec::none();
    let call = |id: u64, func: u16, release: SimTime| Call {
        id: CallId(id),
        func: FuncId(func),
        release,
        kind: CallKind::Measured,
    };
    let d = call(0, 1, SimTime::ZERO);
    let a = call(1, 2, SimTime::from_secs(10));
    let c = call(2, 3, SimTime::from_secs(10) + SimDuration::from_millis(2));
    let a_placed = a.release + cfg.hop + SimDuration::from_millis(1);
    let run = |late: &[Call]| {
        let mut sim = NodeSim::new(
            &cat,
            &NodeMode::Baseline,
            &cfg,
            &weights,
            &faults,
            1,
            0,
            false,
        );
        sim.inject(&[d, a]);
        sim.advance_to(a_placed);
        sim.inject(late);
        sim.advance_to(SimTime::MAX);
        sim.finish()
    };
    // The instant A's init ends (with C in the bank): where B must land.
    let t = run(&[c]).outcomes[1].exec_start;
    let b = call(3, 1, SimTime::from_nanos(t.as_nanos() - cfg.hop.as_nanos()));
    let r = run(&[c, b]);
    let [_, ra, _, rb] = [0, 1, 2, 3].map(|i| r.outcomes[i]);
    assert_eq!(rb.invoker_receive, t, "B arrives at the tick's instant");
    assert_eq!(ra.exec_start, t, "A starts executing at the tick");
    assert_eq!(rb.exec_start, t, "B starts at once on D's warm container");
    // Pinned: B's draw comes first.
    assert_eq!(ra.exec_end, SimTime::from_nanos(11_039_033_868));
    assert_eq!(rb.exec_end, SimTime::from_nanos(11_245_548_176));
}
