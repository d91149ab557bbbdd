//! Weighted-partition differential tests: the incremental capped/uncapped
//! water-filling in `GpsCpu` pinned to the seed integrator
//! (`gps_reference`) over randomized *weighted* churn schedules —
//! heterogeneous weights and rate caps, the regime PR 4's partition
//! rewrite targets. Built on the reusable harness in `faas_cpu::schedule`.
//!
//! Three suites:
//!
//! * a proptest property over random weighted op sequences (shrinking
//!   encoding, seeded signature pools);
//! * a seeded sweep of 600 weighted churn schedules — the ≥500-schedule
//!   volume the acceptance criteria require, at fixed reproducible cost;
//! * the one-class cost claim: a signature-homogeneous bank is one
//!   pin-ratio class, and it crosses the capped/uncapped boundary (the
//!   only O(n) re-keying it ever does) exactly when the live count crosses
//!   the core count.

use faas_cpu::schedule::{
    boundary_thrash_schedule, random_schedule, run_boundary_thrash_schedule, ChurnOp,
    DifferentialPair, SignaturePool,
};
use faas_cpu::{GpsCpu, GpsParams};
use faas_simcore::rng::Xoshiro256;
use faas_simcore::time::SimTime;
use proptest::prelude::*;

proptest! {
    /// Weighted churn schedules over seeded heterogeneous pools: every
    /// observable matches the reference after every operation.
    #[test]
    fn weighted_schedules_match_reference(
        cores in 1u32..10,
        pool_seed in 0u64..64,
        ops in prop::collection::vec((0u8..4, 1u64..3_000, any::<u64>()), 1..50)
    ) {
        let pool = SignaturePool::weighted(pool_seed);
        let mut pair = DifferentialPair::new(cores as f64, 0.4, pool.clone());
        for (kind, magnitude, pick) in ops {
            let op = match kind {
                0 | 1 => ChurnOp::Add {
                    work_ms: magnitude,
                    sig: (pick % pool.len() as u64) as u8,
                },
                2 => ChurnOp::Advance { dt_ms: magnitude % 1_000 + 1 },
                _ => if pick % 3 == 0 {
                    ChurnOp::Remove { pick }
                } else {
                    ChurnOp::CompleteNext
                },
            };
            pair.apply(op);
        }
        pair.drain();
    }

    /// The one-class cost claim over shrinkable `(1, 1)` schedules without
    /// capacity ops: after every operation the bank is one class on one
    /// side, every observable matches the reference, and
    /// `boundary_crossings` advances on exactly the operations where the
    /// live count crosses the core count.
    #[test]
    fn one_class_crosses_exactly_when_the_live_count_crosses_the_cores(
        cores in 1u32..12,
        kappa in 0.0f64..1.0,
        ops in prop::collection::vec((0u8..4, 1u64..4_000, any::<u64>()), 1..80)
    ) {
        let mut pair = DifferentialPair::new(cores as f64, kappa, SignaturePool::uniform());
        for (kind, magnitude, pick) in ops {
            let op = match kind {
                0 | 1 => ChurnOp::Add { work_ms: magnitude, sig: 0 },
                2 => ChurnOp::Advance { dt_ms: magnitude % 1_200 + 1 },
                _ => if pick % 3 == 0 {
                    ChurnOp::Remove { pick }
                } else {
                    ChurnOp::CompleteNext
                },
            };
            apply_one_class_op(&mut pair, cores as usize, op);
        }
        pair.drain();
    }
}

/// Apply `op` to a `(1, 1)` pair on `cores` cores and check the one-class
/// cost claim: the bank stays one class, and it crossed the boundary iff
/// the live count moved across the core count. Every op a capacity-free
/// schedule emits changes the live count monotonically, so the count
/// crossed the cores iff it started and ended on different sides of them.
fn apply_one_class_op(pair: &mut DifferentialPair, cores: usize, op: ChurnOp) {
    let (before, crossings) = (pair.opt.len(), pair.opt.boundary_crossings());
    pair.apply(op);
    pair.assert_one_class();
    let after = pair.opt.len();
    let crossed = pair.opt.boundary_crossings() != crossings;
    assert_eq!(
        crossed,
        (before > cores) != (after > cores),
        "{op:?} took the live count {before} -> {after} on {cores} cores"
    );
}

/// The acceptance-criteria volume: 600 seeded weighted churn schedules,
/// each with its own heterogeneous signature pool and node shape, driven
/// to completion under the full per-step observable comparison.
#[test]
fn differential_600_weighted_schedules() {
    for seed in 0..600u64 {
        let pool = SignaturePool::weighted(seed);
        if let Err(e) = std::panic::catch_unwind(|| {
            faas_cpu::schedule::run_differential_schedule(seed, &pool, 80)
        }) {
            let msg = e
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "<non-string panic>".into());
            panic!("weighted schedule seed {seed} diverged: {msg}");
        }
    }
}

/// Boundary-thrash differential sweep: seeded schedules built to slam the
/// heavy swing signature in and out of the boundary-ladder pool (each move
/// re-keys a batch of tasks across the capped/uncapped boundary) and to
/// drain whole classes mid-completion-stream (the bank collapses to one
/// class and grows back while completions are being consumed). Every
/// observable is pinned to `gps_reference` after every operation, and the
/// sweep as a whole must actually cross the boundary — a thrash suite that
/// never re-keys is testing nothing.
#[test]
fn differential_boundary_thrash_schedules() {
    let mut total_crossings = 0u64;
    for seed in 0..200u64 {
        match std::panic::catch_unwind(|| run_boundary_thrash_schedule(seed, 6)) {
            Ok(crossings) => total_crossings += crossings,
            Err(e) => {
                let msg = e
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "<non-string panic>".into());
                panic!("boundary-thrash seed {seed} diverged: {msg}");
            }
        }
    }
    assert!(
        total_crossings > 1_000,
        "thrash sweep barely crossed the boundary ({total_crossings} crossings)"
    );
}

/// The thrash schedules must collapse the bank to one class and grow it
/// back while the completion stream is live: many→one (classes drained
/// mid-stream) and one→many (the next block re-populates the ladder),
/// several times per schedule, under the full differential comparison.
#[test]
fn thrash_schedules_collapse_to_one_class_mid_stream() {
    let mut total_flips = 0usize;
    for seed in 0..20u64 {
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xF11B);
        let pool = SignaturePool::boundary_ladder();
        let ops = boundary_thrash_schedule(&mut rng, 6, pool.len() as u8);
        let mut pair = DifferentialPair::new(4.0, 0.2, pool);
        let mut was_one = true;
        for op in ops {
            pair.apply(op);
            let one = pair.opt.class_count() <= 1;
            if one != was_one {
                total_flips += 1;
                was_one = one;
            }
        }
        pair.drain();
    }
    assert!(
        total_flips >= 20 * 4,
        "thrash schedules must collapse to one class repeatedly, saw {total_flips}"
    );
}

/// The weighted sweep must actually exercise the partition: across the
/// seeds, schedules hold several classes with tasks on both sides of the
/// capped/uncapped boundary.
#[test]
fn weighted_schedules_populate_the_partition() {
    let mut saw_classes = false;
    let mut saw_both_sides = false;
    for seed in 0..40u64 {
        let pool = SignaturePool::weighted(seed);
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xBEEF);
        let ops = random_schedule(&mut rng, 60, pool.len() as u8, 2_000, 800);
        let mut cpu = GpsCpu::new(GpsParams {
            cores: 4.0,
            ctx_switch_penalty: 0.2,
            penalty_cap: 100.0,
        });
        let mut live = Vec::new();
        let mut now = SimTime::ZERO;
        for op in ops {
            match op {
                ChurnOp::Add { work_ms, sig } => {
                    let (w, c) = pool.get(sig);
                    live.push(cpu.add_task(now, work_ms as f64 / 1000.0, w, c));
                }
                ChurnOp::Remove { pick } => {
                    if !live.is_empty() {
                        let id = live.remove((pick % live.len() as u64) as usize);
                        cpu.remove_task(now, id);
                    }
                }
                // random_schedule never emits the signature-targeted or
                // capacity ops.
                ChurnOp::RemoveSig { .. }
                | ChurnOp::DrainSig { .. }
                | ChurnOp::SetCapacity { .. }
                | ChurnOp::SetMemCapacity { .. } => {}
                ChurnOp::Advance { dt_ms } => {
                    now += faas_simcore::time::SimDuration::from_millis(dt_ms);
                    cpu.advance(now);
                }
                ChurnOp::CompleteNext => {
                    if let Some((_, at)) = cpu.next_completion(now) {
                        now = now.max(at);
                        for id in cpu.finished_tasks(now) {
                            live.retain(|&l| l != id);
                            cpu.remove_task(now, id);
                        }
                    }
                }
            }
            saw_classes |= cpu.class_count() > 1;
            let (uncapped, capped) = cpu.partition_sizes();
            saw_both_sides |= uncapped > 0 && capped > 0;
        }
    }
    assert!(saw_classes, "weighted schedules never held two classes");
    assert!(
        saw_both_sides,
        "weighted schedules never split the partition across the boundary"
    );
}

/// The one-class cost claim at volume: 50 seeded signature-homogeneous
/// schedules (the invoker's regime) stay one class after every operation,
/// cross the boundary exactly when the live count crosses the core count,
/// and match the reference throughout.
#[test]
fn homogeneous_schedules_stay_one_class() {
    for seed in 0..50u64 {
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x0511_F0A5);
        let cores = 1 + (rng.next_u64() % 12) as usize;
        let kappa = (rng.next_u64() % 100) as f64 / 100.0;
        let ops = random_schedule(&mut rng, 80, 1, 4_000, 1_200);
        let mut pair = DifferentialPair::new(cores as f64, kappa, SignaturePool::uniform());
        for op in ops {
            apply_one_class_op(&mut pair, cores, op);
        }
        pair.drain();
        pair.assert_one_class();
    }
}

/// Class introspection under churn: the partition holds exactly one class
/// per live pin ratio.
#[test]
fn class_introspection_tracks_membership() {
    let mut cpu = GpsCpu::new(GpsParams {
        cores: 2.0,
        ctx_switch_penalty: 0.0,
        penalty_cap: 100.0,
    });
    let t = SimTime::ZERO;
    let a = cpu.add_task(t, 5.0, 1.0, 1.0);
    assert_eq!(cpu.class_count(), 1);
    let b = cpu.add_task(t, 5.0, 2.0, 0.5);
    assert_eq!(cpu.class_count(), 2);
    assert_eq!(
        {
            let (u, c) = cpu.partition_sizes();
            u + c
        },
        2,
        "both live tasks sit in the partition"
    );
    let c = cpu.add_task(t, 5.0, 4.0, 4.0);
    assert_eq!(cpu.class_count(), 2, "ratio 1 joins the first task's class");
    cpu.remove_task(t, b);
    assert_eq!(
        cpu.class_count(),
        1,
        "removing the last member drops a class"
    );
    // Caps 1 + 4 exceed the 2 cores: the class sits uncapped at λ = 2/5.
    assert_eq!(cpu.partition_sizes(), (2, 0));
    assert_eq!(cpu.water_level(), 0.4);
    cpu.remove_task(t, a);
    cpu.remove_task(t, c);
    assert!(cpu.is_empty());
    assert_eq!(cpu.class_count(), 0);
    assert_eq!(cpu.partition_sizes(), (0, 0));
}
