//! Property tests of the workload-generation subsystem: arrival processes,
//! mixes and the sharded generator.
//!
//! Structural invariants (sorted, in-window, sharded == serial) run under
//! proptest over arbitrary seeds; the statistical rate/skew checks average
//! over a fixed battery of derived seeds so their tolerances can be tight
//! without flaking.

use faas_simcore::rng::Xoshiro256;
use faas_simcore::time::{SimDuration, SimTime};
use faas_workload::arrival::ArrivalSpec;
use faas_workload::generate::{ShardedGenerator, WorkloadSpec};
use faas_workload::mix::MixSpec;
use faas_workload::sebs::Catalogue;
use faas_workload::trace::CallKind;
use faas_workload::weight::WeightSpec;
use proptest::prelude::*;

fn arrival_strategy() -> impl Strategy<Value = ArrivalSpec> {
    prop_oneof![
        Just(ArrivalSpec::Uniform { count: 400 }),
        Just(ArrivalSpec::Poisson { rate: 8.0 }),
        Just(ArrivalSpec::Mmpp {
            rate_on: 14.0,
            rate_off: 2.0,
            mean_on_secs: 6.0,
            mean_off_secs: 6.0,
        }),
        Just(ArrivalSpec::Diurnal {
            mean_rate: 8.0,
            weights: vec![0.25, 0.5, 1.5, 1.75, 1.0, 1.0],
        }),
    ]
}

/// [`arrival_strategy`]'s shapes plus a uniform burst above the
/// generator's serial floor (2^16 calls), which the parallel path splits
/// into chunks.
fn sharded_arrival_strategy() -> impl Strategy<Value = ArrivalSpec> {
    prop_oneof![
        arrival_strategy(),
        arrival_strategy(),
        arrival_strategy(),
        (1usize..4096).prop_map(|extra| ArrivalSpec::Uniform {
            count: (1 << 16) + extra
        }),
    ]
}

fn mix_strategy() -> impl Strategy<Value = MixSpec> {
    prop_oneof![
        Just(MixSpec::Equal),
        Just(MixSpec::Fairness {
            rare_function: "dna-visualisation".into(),
            rare_calls: 10,
        }),
        Just(MixSpec::Zipf { s: 1.2 }),
    ]
}

proptest! {
    /// Every arrival × mix combination produces a sorted burst inside the
    /// window with dense ids, under both generation schemes.
    #[test]
    fn serial_burst_sorted_and_in_window(
        seed in any::<u64>(),
        arrival in arrival_strategy(),
        mix in mix_strategy(),
    ) {
        let catalogue = Catalogue::sebs();
        let spec = WorkloadSpec { arrival, mix, weights: WeightSpec::Uniform, window: SimDuration::from_secs(60) };
        let start = SimTime::from_secs(100);
        let end = start + spec.window;
        let mut root = Xoshiro256::seed_from_u64(seed);
        let mut rng_times = root.derive_stream(1);
        let mut rng_assign = root.derive_stream(2);
        let calls = spec.generate_sorted(&catalogue, start, &mut rng_times, &mut rng_assign, 7);
        let mut prev = SimTime::ZERO;
        for (i, c) in calls.iter().enumerate() {
            prop_assert!(c.release >= start && c.release < end, "call {i} at {:?}", c.release);
            prop_assert!(c.release >= prev, "sorted at {i}");
            prop_assert_eq!(c.id.0, 7 + i as u64, "dense ids");
            prop_assert_eq!(c.kind as u8, CallKind::Measured as u8);
            prev = c.release;
        }
    }

    /// Sharded generation is pure: parallel chunking and per-node strides
    /// reproduce the serial output exactly, for every arrival × mix and
    /// for bursts large enough that the parallel path splits them.
    #[test]
    fn sharded_equals_unsharded(
        seed in any::<u64>(),
        arrival in sharded_arrival_strategy(),
        mix in mix_strategy(),
        nodes in 1u64..12,
    ) {
        let catalogue = Catalogue::sebs();
        let spec = WorkloadSpec { arrival, mix, weights: WeightSpec::Uniform, window: SimDuration::from_secs(60) };
        let g = ShardedGenerator::new(&spec, &catalogue, SimTime::from_secs(50), seed);
        let serial = g.generate_serial();
        prop_assert_eq!(&g.generate_parallel(), &serial, "parallel == serial");
        let mut union: Vec<_> = (0..nodes)
            .flat_map(|k| (k..g.len()).step_by(nodes as usize).map(|i| g.call(i)))
            .collect();
        union.sort_by_key(|c| c.id);
        prop_assert_eq!(&union, &serial, "stride partition == serial");
    }

    /// Sharded calls stay inside the window and ids stay dense.
    #[test]
    fn sharded_calls_in_window(
        seed in any::<u64>(),
        arrival in arrival_strategy(),
    ) {
        let catalogue = Catalogue::sebs();
        let spec = WorkloadSpec {
            arrival,
            mix: MixSpec::Equal,
            weights: WeightSpec::Uniform, window: SimDuration::from_secs(60),
        };
        let start = SimTime::from_secs(9);
        let end = start + spec.window;
        let g = ShardedGenerator::new(&spec, &catalogue, start, seed);
        for (i, c) in g.iter_chunk(0, g.len()).enumerate() {
            prop_assert!(c.release >= start && c.release < end);
            prop_assert_eq!(c.id.0 as usize, i, "id == index");
        }
    }
}

/// Mean count over a battery of seeds derived from one root.
fn mean_count(process: &ArrivalSpec, window: f64, seeds: u64) -> f64 {
    let mut root = Xoshiro256::seed_from_u64(0xA11);
    let mut sum = 0.0;
    for _ in 0..seeds {
        let mut rng = root.derive_stream(1);
        let profile = process.realize(window, &mut rng);
        sum += profile.sample_count(&mut rng) as f64;
    }
    sum / seeds as f64
}

#[test]
fn poisson_mean_rate_within_tolerance_at_large_n() {
    // 100 seeds x mean 4800: sample-mean sd ~ 6.9, so +-3% is >20 sigma.
    let p = ArrivalSpec::Poisson { rate: 8.0 };
    let mean = mean_count(&p, 600.0, 100);
    let expected = 8.0 * 600.0;
    assert!(
        (mean - expected).abs() / expected < 0.03,
        "mean {mean} vs {expected}"
    );
}

#[test]
fn mmpp_mean_rate_within_tolerance_at_large_n() {
    // The dominant noise is the realized on/off path (~100 sojourns per
    // window); averaging 200 windows brings the sample mean within a few
    // percent of the stationary rate.
    let mmpp = ArrivalSpec::Mmpp {
        rate_on: 14.0,
        rate_off: 2.0,
        mean_on_secs: 6.0,
        mean_off_secs: 6.0,
    };
    let mean = mean_count(&mmpp, 600.0, 200);
    // Stationary rate: p_on * rate_on + p_off * rate_off, p_on = 6 / 12.
    let expected = (0.5 * 14.0 + 0.5 * 2.0) * 600.0;
    assert!(
        (mean - expected).abs() / expected < 0.05,
        "mean {mean} vs stationary {expected}"
    );
}

#[test]
fn zipf_mix_hits_every_function_with_configured_skew() {
    let catalogue = Catalogue::sebs();
    let s = 1.2;
    let spec = WorkloadSpec {
        arrival: ArrivalSpec::Uniform { count: 60_000 },
        mix: MixSpec::Zipf { s },
        weights: WeightSpec::Uniform,
        window: SimDuration::from_secs(60),
    };
    let g = ShardedGenerator::new(&spec, &catalogue, SimTime::ZERO, 0x21F);
    let mut counts = vec![0usize; catalogue.len()];
    for c in g.iter_chunk(0, g.len()) {
        counts[c.func.index()] += 1;
    }
    assert!(
        counts.iter().all(|&c| c > 0),
        "every function is hit: {counts:?}"
    );
    // Rank-1 over rank-2 popularity must track 2^s within sampling slack.
    let ratio = counts[0] as f64 / counts[1] as f64;
    let expected = 2f64.powf(s);
    assert!(
        (ratio - expected).abs() / expected < 0.15,
        "rank ratio {ratio} vs 2^{s} = {expected}"
    );
    // And the tail really is rare: the last rank gets well under the
    // uniform share.
    let uniform_share = g.len() as usize / catalogue.len();
    assert!(
        counts[10] * 2 < uniform_share,
        "tail {counts:?} vs uniform {uniform_share}"
    );
}
