//! Differential tests: the two-clock `GpsCpu` must reproduce the seed
//! integrator (`ReferenceGpsCpu`) — same completion order, completion times
//! within 1e-6 s, same per-task remaining work, and the same `work_done`
//! accounting — over random add/remove/advance/complete schedules, in both
//! one-class banks and heterogeneous multi-class partitions.
//!
//! The schedule vocabulary and the lockstep driver live in
//! `faas_cpu::schedule` (shared with the weighted-partition suite in
//! `prop_gps_weighted.rs`). Two harnesses consume them here:
//!
//! * a proptest property over random op sequences (shrinking-friendly
//!   op encoding);
//! * a seeded sweep of 1200 random schedules, providing the volume the
//!   acceptance criteria ask for at a fixed, reproducible cost.

use faas_cpu::schedule::{random_schedule, ChurnOp, DifferentialPair, SignaturePool};
use faas_simcore::rng::Xoshiro256;
use proptest::prelude::*;

proptest! {
    /// Uniform-signature schedules (the invoker's regime): every observable
    /// matches the reference after every operation.
    #[test]
    fn uniform_schedules_match_reference(
        cores in 1u32..16,
        kappa in 0.0f64..1.0,
        ops in prop::collection::vec((0u8..4, 1u64..5_000, any::<u64>()), 1..60)
    ) {
        let mut pair = DifferentialPair::new(cores as f64, kappa, SignaturePool::uniform());
        for (kind, magnitude, pick) in ops {
            let op = match kind {
                0 | 1 => ChurnOp::Add { work_ms: magnitude, sig: 0 },
                2 => ChurnOp::Advance { dt_ms: magnitude % 1_500 + 1 },
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

    /// Heterogeneous schedules exercise the water-filling partition and
    /// the class crossings.
    #[test]
    fn heterogeneous_schedules_match_reference(
        cores in 1u32..8,
        ops in prop::collection::vec((0u8..4, 1u64..3_000, any::<u64>()), 1..50)
    ) {
        let mut pair = DifferentialPair::new(cores as f64, 0.3, SignaturePool::paper_mixed());
        for (kind, magnitude, pick) in ops {
            let op = match kind {
                0 | 1 => ChurnOp::Add { work_ms: magnitude, sig: (pick % 4) as u8 },
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
}

/// The volume test the acceptance criteria call for: 1200 random schedules
/// (mixed uniform/heterogeneous), each driven to completion with the full
/// per-step observable comparison. Seeded, so failures reproduce exactly.
fn run_schedule(seed: u64) {
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xD1FF_5EED);
    let cores = 1.0 + (rng.next_u64() % 12) as f64;
    let kappa = (rng.next_u64() % 100) as f64 / 100.0;
    let uniform_only = !seed.is_multiple_of(3);
    let pool = if uniform_only {
        SignaturePool::uniform()
    } else {
        SignaturePool::paper_mixed()
    };
    let steps = 20 + (rng.next_u64() % 60) as usize;
    let ops = random_schedule(&mut rng, steps, pool.len() as u8, 4_000, 1_200);
    let mut pair = DifferentialPair::new(cores, kappa, pool);
    for op in ops {
        pair.apply(op);
    }
    pair.drain();
}

#[test]
fn differential_1200_random_schedules() {
    for seed in 0..1200u64 {
        if let Err(e) = std::panic::catch_unwind(|| run_schedule(seed)) {
            let msg = e
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "<non-string panic>".into());
            panic!("schedule seed {seed} diverged: {msg}");
        }
    }
}
