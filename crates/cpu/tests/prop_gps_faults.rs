//! Dynamic-capacity differential tests: `GpsCpu::set_capacity` pinned to
//! the seed integrator (`gps_reference`) across seeded capacity-churn
//! schedules — degradation/restoration ramps interleaved with membership
//! churn, boundary crossings and collapses to a one-class bank.
//!
//! Three suites:
//!
//! * a proptest property over random op sequences that include capacity
//!   changes (shrinking encoding, weighted signature pools);
//! * a seeded sweep of 520 capacity-thrash schedules — the ≥500-schedule
//!   volume the acceptance criteria require — which must also actually
//!   cross the capped/uncapped boundary (a ramp that never re-keys is
//!   testing nothing);
//! * the one-class regression: capacity changes on a homogeneous workload
//!   move its one class across the boundary as a whole, never split it.

use faas_cpu::schedule::{
    capacity_thrash_schedule, run_capacity_thrash_schedule, ChurnOp, DifferentialPair,
    SignaturePool,
};
use faas_simcore::rng::Xoshiro256;
use proptest::prelude::*;

proptest! {
    /// Random schedules mixing adds/advances/removes/completions with
    /// capacity steps between 10% and 300% of the base node: every
    /// observable matches the reference after every operation.
    #[test]
    fn capacity_churn_matches_reference(
        cores in 1u32..10,
        pool_seed in 0u64..64,
        ops in prop::collection::vec((0u8..5, 1u64..3_000, any::<u64>()), 1..50)
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
                3 => ChurnOp::SetCapacity {
                    // 10%..300% of the base capacity, in centi-cores.
                    cores_centi: cores as u64 * (10 + magnitude % 291),
                },
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
}

/// The acceptance-criteria volume: 520 seeded capacity-thrash schedules
/// (ramps + membership churn + one-class collapses over the boundary-ladder
/// pool), each driven to completion under the full per-step observable
/// comparison, and collectively required to exercise the re-keying path.
#[test]
fn differential_520_capacity_thrash_schedules() {
    let mut total_crossings = 0u64;
    for seed in 0..520u64 {
        match std::panic::catch_unwind(|| run_capacity_thrash_schedule(seed, 4)) {
            Ok(crossings) => total_crossings += crossings,
            Err(e) => {
                let msg = e
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "<non-string panic>".into());
                panic!("capacity-thrash seed {seed} diverged: {msg}");
            }
        }
    }
    assert!(
        total_crossings > 1_000,
        "capacity sweep barely crossed the boundary ({total_crossings} crossings)"
    );
}

/// Capacity thrash on a homogeneous workload: the bank rides out every
/// degradation and restoration as one class on one side of the boundary,
/// matching the reference after every operation.
#[test]
fn homogeneous_capacity_churn_stays_one_class() {
    for seed in 0..60u64 {
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xFA57_CAFE);
        let cores = 1 + rng.next_u64() % 12;
        let mut pair = DifferentialPair::new(cores as f64, 0.3, SignaturePool::uniform());
        for _ in 0..60 {
            let op = match rng.next_u64() % 10 {
                0..=3 => ChurnOp::Add {
                    work_ms: 1 + rng.next_u64() % 2_000,
                    sig: 0,
                },
                4..=5 => ChurnOp::Advance {
                    dt_ms: 1 + rng.next_u64() % 800,
                },
                6..=7 => ChurnOp::SetCapacity {
                    cores_centi: cores * (10 + rng.next_u64() % 291),
                },
                _ => ChurnOp::CompleteNext,
            };
            pair.apply(op);
            pair.assert_one_class();
        }
        pair.drain();
    }
}

/// The thrash generator's ramps land on both bank shapes: schedules must
/// apply capacity changes while the bank holds several classes *and* while
/// it is one class (the every-other-block drain).
#[test]
fn capacity_thrash_hits_one_and_many_class_banks() {
    let mut many_hits = 0usize;
    let mut one_hits = 0usize;
    for seed in 0..10u64 {
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x0DD5_EED5);
        let pool = SignaturePool::boundary_ladder();
        let ops = capacity_thrash_schedule(&mut rng, 6, pool.len() as u8, 400);
        let mut pair = DifferentialPair::new(4.0, 0.2, pool);
        for op in ops {
            if matches!(op, ChurnOp::SetCapacity { .. }) && !pair.opt.is_empty() {
                if pair.opt.class_count() == 1 {
                    one_hits += 1;
                } else {
                    many_hits += 1;
                }
            }
            pair.apply(op);
        }
        pair.drain();
    }
    assert!(
        many_hits > 10,
        "no capacity changes on a many-class bank ({many_hits})"
    );
    assert!(
        one_hits > 5,
        "no capacity changes on a one-class bank ({one_hits})"
    );
}
