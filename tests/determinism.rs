//! Reproducibility guarantees: every layer of the stack is bit-for-bit
//! deterministic given its seed, and sensitive to seed changes.

use faas_scheduling::prelude::*;

#[test]
fn single_node_runs_are_bit_reproducible() {
    let catalogue = Catalogue::sebs();
    for policy in [
        Policy::Fifo,
        Policy::Sept,
        Policy::Eect,
        Policy::Rect,
        Policy::FairChoice,
    ] {
        let scenario = BurstScenario::standard(10, 40).generate(&catalogue, 77);
        let node = NodeConfig::paper(10);
        let mode = NodeMode::Scheduled(SchedulerConfig::paper(policy));
        let a = simulate_scenario(&catalogue, &scenario, &mode, &node, 77);
        let b = simulate_scenario(&catalogue, &scenario, &mode, &node, 77);
        assert_eq!(a.outcomes, b.outcomes, "{policy:?} must be deterministic");
        assert_eq!(a.measured_pool_stats, b.measured_pool_stats);
        assert_eq!(a.peak_queue, b.peak_queue);
    }
}

#[test]
fn baseline_runs_are_bit_reproducible() {
    let catalogue = Catalogue::sebs();
    let scenario = BurstScenario::standard(10, 60).generate(&catalogue, 78);
    let node = NodeConfig::paper(10);
    let a = simulate_scenario(&catalogue, &scenario, &NodeMode::Baseline, &node, 78);
    let b = simulate_scenario(&catalogue, &scenario, &NodeMode::Baseline, &node, 78);
    assert_eq!(a.outcomes, b.outcomes);
}

#[test]
fn different_seeds_change_outcomes() {
    let catalogue = Catalogue::sebs();
    let node = NodeConfig::paper(10);
    let mode = NodeMode::Scheduled(SchedulerConfig::paper(Policy::Sept));
    let s1 = BurstScenario::standard(10, 30).generate(&catalogue, 1);
    let s2 = BurstScenario::standard(10, 30).generate(&catalogue, 2);
    let a = simulate_scenario(&catalogue, &s1, &mode, &node, 1);
    let b = simulate_scenario(&catalogue, &s2, &mode, &node, 2);
    assert_ne!(a.outcomes, b.outcomes);
}

#[test]
fn same_scenario_different_sim_seed_changes_service_times_only() {
    // The scenario fixes the call sequence; the simulation seed drives
    // service-time draws. Changing only the latter must keep the call set
    // identical but change timings.
    let catalogue = Catalogue::sebs();
    let scenario = BurstScenario::standard(5, 30).generate(&catalogue, 9);
    let node = NodeConfig::paper(5);
    let mode = NodeMode::Scheduled(SchedulerConfig::paper(Policy::Fifo));
    let a = simulate_scenario(&catalogue, &scenario, &mode, &node, 100);
    let b = simulate_scenario(&catalogue, &scenario, &mode, &node, 200);
    assert_eq!(a.outcomes.len(), b.outcomes.len());
    for (oa, ob) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(oa.id, ob.id);
        assert_eq!(oa.func, ob.func);
        assert_eq!(oa.release, ob.release);
    }
    assert_ne!(a.outcomes, b.outcomes, "timings must differ");
}

#[test]
fn cluster_runs_are_reproducible() {
    let catalogue = Catalogue::sebs();
    let scenario = ClusterScenario::generate(&catalogue, 24, 10, SimDuration::from_secs(60), 13);
    let cfg = ClusterConfig::independent(3, NodeConfig::paper(10), LoadBalancer::FunctionHash);
    let mode = NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice));
    let a = run_cluster(&catalogue, &scenario, &mode, &cfg, 13);
    let b = run_cluster(&catalogue, &scenario, &mode, &cfg, 13);
    assert_eq!(a.outcomes, b.outcomes);
}

#[test]
fn scenario_generation_is_pure() {
    let catalogue = Catalogue::sebs();
    let a = BurstScenario::standard(20, 60).generate(&catalogue, 5);
    let b = BurstScenario::standard(20, 60).generate(&catalogue, 5);
    assert_eq!(a, b);
    let f1 = FairnessScenario::paper().generate(&catalogue, 5);
    let f2 = FairnessScenario::paper().generate(&catalogue, 5);
    assert_eq!(f1, f2);
}

/// FNV-1a over every outcome and drop field plus the fault counters.
fn outcome_digest(r: &NodeResult) -> u64 {
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |x: u64| {
        for b in x.to_le_bytes() {
            acc = (acc ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    };
    for o in &r.outcomes {
        for x in [
            o.id.0,
            o.func.0 as u64,
            o.release.as_nanos(),
            o.exec_start.as_nanos(),
            o.completion.as_nanos(),
            o.node as u64,
        ] {
            mix(x);
        }
    }
    for d in &r.drops {
        mix(d.id.0);
        mix(d.node as u64);
        mix(d.attempts as u64);
    }
    let fs = &r.fault_stats;
    for x in [
        fs.crashes,
        fs.crash_kills,
        fs.retries,
        fs.failovers,
        fs.dropped,
    ] {
        mix(x);
    }
    acc
}

#[test]
fn coupled_feedback_failover_runs_are_pinned() {
    // The coupled window engine under its hardest configuration: dominant-
    // share feedback routing, cross-node failover, a crash and transient
    // failures, on memory-bandwidth nodes. The engine advances nodes on
    // worker threads; the digest pins the schedule whatever the count.
    use faas_scheduling::cluster::run_cluster_source;
    use faas_scheduling::workload::{
        ArrivalSpec, FaultSpec, MixSpec, WeightSpec, WorkloadSource, WorkloadSpec,
    };
    let catalogue = Catalogue::sebs();
    let spec = WorkloadSpec {
        arrival: ArrivalSpec::Uniform { count: 330 },
        mix: MixSpec::Equal,
        weights: WeightSpec::paper_tiers_mem(),
        window: SimDuration::from_secs(60),
    };
    let (_, burst_start) = faas_scheduling::workload::scenario::warmup_waves(&catalogue);
    let mut faults = FaultSpec::crash_restart(17, burst_start, SimDuration::from_secs(60));
    faults.transient_failure = 0.05;
    let cfg = ClusterConfig::independent(
        3,
        NodeConfig::paper(10).with_mem_bandwidth(8.0),
        LoadBalancer::JoinShortestDominant { seed: 17 },
    )
    .coupled(SimDuration::from_millis(250), true);
    let mode = NodeMode::Baseline;
    let source = WorkloadSource::Spec(spec);
    let run = || {
        run_cluster_source(&catalogue, &source, &mode, &cfg, &faults, 17, 18, 64)
            .expect("spec sources cannot fail")
    };
    let a = run();
    let b = run();
    assert_eq!(a.outcomes, b.outcomes);
    assert_eq!(a.drops, b.drops);
    assert_eq!(a.fault_stats, b.fault_stats);
    let measured = a.measured().count();
    let dropped = a.drops.iter().filter(|d| d.id.0 < 330).count();
    assert_eq!(measured + dropped, 330, "cluster call conservation");
    assert!(a.fault_stats.failovers > 0, "the crash must hand calls off");
    assert_eq!(outcome_digest(&a), 0xd1c3_2c89_d1f9_788d, "digest drifted");
}

/// FNV-1a over every field the cluster engine produces: outcomes, drops,
/// fault stats, peaks and pool stats. Field order matters — it must match
/// the run that captured [`PINNED`].
fn cluster_digest(r: &NodeResult) -> u64 {
    use faas_scheduling::workload::faults::DropReason;
    use faas_scheduling::workload::trace::ColdStartKind;
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |x: u64| {
        for b in x.to_le_bytes() {
            acc = (acc ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    };
    for o in &r.outcomes {
        let start_kind = match o.start_kind {
            ColdStartKind::Warm => 0u64,
            ColdStartKind::Prewarm => 1,
            ColdStartKind::Cold => 2,
        };
        for x in [
            o.id.0,
            o.func.0 as u64,
            matches!(o.kind, CallKind::Measured) as u64,
            o.release.as_nanos(),
            o.invoker_receive.as_nanos(),
            o.exec_start.as_nanos(),
            o.exec_end.as_nanos(),
            o.completion.as_nanos(),
            o.processing.as_nanos(),
            start_kind,
            o.node as u64,
        ] {
            mix(x);
        }
    }
    for d in &r.drops {
        for x in [
            d.id.0,
            d.func.0 as u64,
            d.release.as_nanos(),
            d.node as u64,
            matches!(d.reason, DropReason::TimedOut) as u64,
            d.attempts as u64,
        ] {
            mix(x);
        }
    }
    let fs = &r.fault_stats;
    for x in [
        fs.crashes,
        fs.capacity_events,
        fs.transient_failures,
        fs.crash_kills,
        fs.timeouts,
        fs.retries,
        fs.dropped,
    ] {
        mix(x);
    }
    for x in [
        r.peak_queue as u64,
        r.peak_concurrency as u64,
        r.peak_events as u64,
        r.last_completion.as_nanos(),
        r.measured_pool_stats.warm_hits,
        r.measured_pool_stats.prewarm_hits,
        r.measured_pool_stats.cold_creates,
        r.measured_pool_stats.evictions,
        r.total_pool_stats.warm_hits,
        r.total_pool_stats.cold_creates,
    ] {
        mix(x);
    }
    acc
}

/// Cluster digests captured from the engines that predate the resumable
/// node simulators (commit f565ac7), when static policies ran every node
/// to completion on its own; see the runs below for each configuration.
const PINNED: [u64; 6] = [
    14642674751337349946,
    15214209751175753215,
    16958703615627671419,
    2236528332478866575,
    12442433899240915259,
    7411778174491961696,
];

#[test]
fn static_cluster_runs_match_their_pinned_digests() {
    // The window loop at infinite lookahead, one ingestion chunk per
    // burst: round-robin in both node modes, the materialized
    // function-hash run, two crash-and-retry runs and a one-node cluster.
    use faas_scheduling::cluster::run_cluster_source;
    use faas_scheduling::workload::{
        ArrivalSpec, FaultSpec, MixSpec, WeightSpec, WorkloadSource, WorkloadSpec,
    };
    let cat = Catalogue::sebs();
    let spec = |count| {
        WorkloadSource::Spec(WorkloadSpec {
            arrival: ArrivalSpec::Uniform { count },
            mix: MixSpec::Equal,
            weights: WeightSpec::Uniform,
            window: SimDuration::from_secs(60),
        })
    };
    let fc = NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice));
    let base = NodeMode::Baseline;
    let rr3 = ClusterConfig::independent(3, NodeConfig::paper(10), LoadBalancer::RoundRobin);
    let rr1 = ClusterConfig { nodes: 1, ..rr3 };
    let fh2 = ClusterConfig::independent(2, NodeConfig::paper(10), LoadBalancer::FunctionHash);
    let (_, burst_start) = faas_scheduling::workload::scenario::warmup_waves(&cat);
    let mut crash = FaultSpec::crash_restart(21, burst_start, SimDuration::from_secs(60));
    crash.transient_failure = 0.05;
    let none = FaultSpec::none();
    let run = |source: &WorkloadSource, mode, cfg, faults, seeds: (u64, u64)| {
        let r = run_cluster_source(&cat, source, mode, cfg, faults, seeds.0, seeds.1, 8192);
        cluster_digest(&r.expect("spec sources cannot fail"))
    };
    let scenario = ClusterScenario::generate(&cat, 12, 10, SimDuration::from_secs(60), 2);
    let digests = [
        run(&spec(132), &base, &rr3, &none, (1, 2)),
        run(&spec(132), &fc, &rr3, &none, (1, 2)),
        cluster_digest(&run_cluster(&cat, &scenario, &base, &fh2, 3)),
        run(&spec(660), &fc, &rr3, &crash, (21, 22)),
        run(&spec(660), &base, &rr3, &crash, (21, 22)),
        run(&spec(66), &fc, &rr1, &none, (5, 6)),
    ];
    assert_eq!(digests, PINNED);
}

#[test]
fn fault_path_cluster_runs_are_pinned() {
    // The fault paths the pins above miss: a capacity ramp in both node
    // modes, strict pending timeouts (the baseline removes a timed-out
    // FIFO entry eagerly, the scheduled node skips it lazily) in both
    // modes, and scheduled-node failover under dominant-share routing.
    use faas_scheduling::cluster::run_cluster_source;
    use faas_scheduling::workload::{
        ArrivalSpec, FaultSpec, MixSpec, WeightSpec, WorkloadSource, WorkloadSpec,
    };
    let cat = Catalogue::sebs();
    let spec = |count, weights| {
        WorkloadSource::Spec(WorkloadSpec {
            arrival: ArrivalSpec::Uniform { count },
            mix: MixSpec::Equal,
            weights,
            window: SimDuration::from_secs(60),
        })
    };
    let fc = NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice));
    let base = NodeMode::Baseline;
    let rr3 = ClusterConfig::independent(3, NodeConfig::paper(10), LoadBalancer::RoundRobin);
    let jsd = ClusterConfig::independent(
        3,
        NodeConfig::paper(10).with_mem_bandwidth(8.0),
        LoadBalancer::JoinShortestDominant { seed: 31 },
    )
    .coupled(SimDuration::from_millis(250), true);
    let (_, burst_start) = faas_scheduling::workload::scenario::warmup_waves(&cat);
    let window = SimDuration::from_secs(60);
    let degradation = FaultSpec::degradation(31, burst_start, window);
    let strict = FaultSpec::crash_strict(32, burst_start, window);
    let mut crash = FaultSpec::crash_restart(33, burst_start, window);
    crash.transient_failure = 0.05;
    let run = |source: &WorkloadSource, mode, cfg, faults, seeds: (u64, u64)| {
        run_cluster_source(&cat, source, mode, cfg, faults, seeds.0, seeds.1, 8192)
            .expect("spec sources cannot fail")
    };
    let uniform = spec(660, WeightSpec::Uniform);
    let runs = [
        run(&uniform, &base, &rr3, &degradation, (31, 32)),
        run(&uniform, &fc, &rr3, &degradation, (31, 32)),
        run(&uniform, &base, &rr3, &strict, (32, 33)),
        run(&uniform, &fc, &rr3, &strict, (32, 33)),
        run(
            &spec(330, WeightSpec::paper_tiers_mem()),
            &fc,
            &jsd,
            &crash,
            (33, 34),
        ),
    ];
    for r in &runs[..2] {
        assert!(r.fault_stats.capacity_events > 0, "the ramp must fire");
    }
    for r in &runs[2..4] {
        assert!(r.fault_stats.timeouts > 0, "strict clients must time out");
    }
    assert!(
        runs[4].fault_stats.failovers > 0,
        "the crash must hand calls off"
    );
    let digests = runs.each_ref().map(cluster_digest);
    // Captured on the commit before the two node regimes shared one
    // lifecycle shell.
    let pinned: [u64; 5] = [
        1287695416034016200,
        11137308331021407710,
        5347788904162661987,
        8143861856343295661,
        17527474531317832562,
    ];
    assert_eq!(digests, pinned);
}
