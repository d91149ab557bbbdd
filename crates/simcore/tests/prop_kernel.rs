//! Property tests of the simulation kernel.

use faas_simcore::dist::{LogNormal, Z_95};
use faas_simcore::events::EventQueue;
use faas_simcore::rng::Xoshiro256;
use faas_simcore::time::{SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    /// The event queue pops in exact (time, insertion) order whatever the
    /// schedule order.
    #[test]
    fn event_queue_total_order(
        times in prop::collection::vec(0u64..10_000, 1..300)
    ) {
        let mut q = EventQueue::new();
        let mut expected: Vec<(u64, usize)> = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_millis(t), i);
            expected.push((t, i));
        }
        expected.sort_by_key(|&(t, i)| (t, i));
        let got: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop().map(|(t, i)| (t.as_nanos() / 1_000_000, i)))
                .collect();
        prop_assert_eq!(got, expected);
    }

    /// Clock monotonicity: pops never go back in time.
    #[test]
    fn event_queue_clock_is_monotone(
        times in prop::collection::vec(0u64..1_000, 1..200)
    ) {
        let mut q = EventQueue::new();
        for &t in &times {
            q.schedule(SimTime::from_millis(t), ());
        }
        let mut last = SimTime::ZERO;
        while let Some((t, ())) = q.pop() {
            prop_assert!(t >= last);
            prop_assert_eq!(q.now(), t);
            last = t;
        }
    }

    /// Log-normal sample quantiles converge to the analytic quantiles.
    #[test]
    fn lognormal_samples_match_quantile_function(
        median_ms in 10.0f64..10_000.0,
        spread in 1.0f64..3.0,
        seed in any::<u64>()
    ) {
        let p95 = median_ms * spread;
        let ln = LogNormal::from_quantile_triple(median_ms / spread, median_ms, p95);
        prop_assert!(((ln.mu + ln.sigma * Z_95).exp() / p95 - 1.0).abs() < 1e-9);
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut samples: Vec<f64> = (0..4000).map(|_| ln.sample(&mut rng)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let emp_median = samples[2000];
        prop_assert!((emp_median / median_ms - 1.0).abs() < 0.15,
            "median {emp_median} vs {median_ms}");
        let emp_p95 = samples[3800];
        prop_assert!((emp_p95 / p95 - 1.0).abs() < 0.25);
    }

    /// Bounded integer generation is always in range.
    #[test]
    fn below_in_range(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        for _ in 0..100 {
            prop_assert!(rng.below(bound) < bound);
        }
    }

    /// Duration arithmetic never wraps.
    #[test]
    fn duration_arithmetic_saturates(a in any::<u64>(), b in any::<u64>()) {
        let da = SimDuration::from_nanos(a);
        let db = SimDuration::from_nanos(b);
        prop_assert_eq!(da.saturating_add(db).as_nanos(), a.saturating_add(b));
        prop_assert_eq!(da.saturating_sub(db).as_nanos(), a.saturating_sub(b));
        let t = SimTime::from_nanos(a);
        prop_assert!(t + db >= t);
    }
}
