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
