//! Arrival processes.
//!
//! The paper evaluates with exactly one arrival shape: a fixed number of
//! requests i.i.d.-uniform over a 60-second window (§V-B). Real FaaS traffic
//! is Poisson at short scales, bursty (on-off) at medium scales and diurnal
//! at long scales, so [`ArrivalSpec`] has one variant per shape.
//!
//! Every process reduces to the same two-step scheme:
//!
//! 1. [`ArrivalSpec::realize`] samples the scenario's **intensity
//!    profile** — a piecewise-constant arrival-rate curve over the window.
//!    The MMPP samples its hidden on/off path here; the memoryless
//!    processes return a deterministic profile.
//! 2. Given the profile, arrivals are conditionally i.i.d.: the call count
//!    is either fixed (the paper's burst) or Poisson with the profile's
//!    total mass, and each release offset is an independent draw from the
//!    normalized intensity density ([`IntensityProfile::inv_cdf`]).
//!
//! Step 2 is what makes generation *shardable*: once the profile is
//! realized (cheap — O(state switches), not O(calls)), every call can be
//! produced independently from its own derived RNG stream, in any order,
//! on any worker. See [`crate::generate::ShardedGenerator`].

use faas_simcore::rng::Xoshiro256;
use serde::{Deserialize, Serialize};

/// A realized, piecewise-constant arrival-intensity curve over a window.
///
/// Produced by [`ArrivalSpec::realize`]; consumed by the generators to
/// draw call counts and i.i.d. release offsets.
#[derive(Debug, Clone, PartialEq)]
pub struct IntensityProfile {
    /// Segment boundaries in seconds: `bounds[0] == 0`, `bounds[last]` is
    /// the window length. `bounds.len() == rates.len() + 1`.
    bounds: Vec<f64>,
    /// Arrival rate (calls/second) of each segment.
    rates: Vec<f64>,
    /// Cumulative expected arrivals at each boundary (`cum[0] == 0`).
    cum: Vec<f64>,
    /// How the call count is drawn.
    count: CountModel,
}

/// How many calls a realized profile emits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CountModel {
    /// Exactly this many calls (the paper's closed workload).
    Fixed(usize),
    /// Poisson with mean equal to the profile's total mass (open workload).
    Poisson,
}

impl IntensityProfile {
    /// A flat profile emitting exactly `count` calls (the paper's burst).
    pub fn uniform_fixed(window_secs: f64, count: usize) -> IntensityProfile {
        assert!(window_secs > 0.0, "window must be positive");
        let rate = count as f64 / window_secs;
        IntensityProfile {
            bounds: vec![0.0, window_secs],
            rates: vec![rate],
            cum: vec![0.0, count as f64],
            count: CountModel::Fixed(count),
        }
    }

    /// A piecewise-constant profile from `(length_secs, rate)` segments.
    ///
    /// Zero-length segments are dropped; the segments must cover a positive
    /// total length.
    pub fn piecewise(segments: &[(f64, f64)], count: CountModel) -> IntensityProfile {
        let mut bounds = vec![0.0];
        let mut rates = Vec::with_capacity(segments.len());
        let mut cum = vec![0.0];
        let mut t = 0.0;
        let mut mass = 0.0;
        for &(len, rate) in segments {
            assert!(len >= 0.0 && rate >= 0.0, "negative segment");
            if len == 0.0 {
                continue;
            }
            t += len;
            mass += len * rate;
            bounds.push(t);
            rates.push(rate);
            cum.push(mass);
        }
        assert!(t > 0.0, "profile must cover a positive window");
        IntensityProfile {
            bounds,
            rates,
            cum,
            count,
        }
    }

    /// Window length in seconds.
    pub fn window_secs(&self) -> f64 {
        *self.bounds.last().expect("profile has bounds")
    }

    /// Total expected arrivals (the integral of the rate curve).
    pub fn mass(&self) -> f64 {
        *self.cum.last().expect("profile has bounds")
    }

    /// Draw the number of calls this scenario emits.
    ///
    /// Fixed counts consume no randomness. Poisson counts use an exact
    /// exponential-race sampler below mean 256 and the normal approximation
    /// (with continuity correction) above — at such means the approximation
    /// error is far below the run-to-run variance of any experiment, and it
    /// keeps scenario setup O(1) so huge sharded generations are not
    /// bottlenecked on a serial count draw.
    pub fn sample_count(&self, rng: &mut Xoshiro256) -> usize {
        match self.count {
            CountModel::Fixed(n) => n,
            CountModel::Poisson => sample_poisson(self.mass(), rng),
        }
    }

    /// Index of the segment containing release offset `t` (the last
    /// segment at or past the window end).
    ///
    /// `hint` is the segment of an earlier lookup (`None` for none) and
    /// becomes this one's. For non-decreasing `t` the search walks forward
    /// from the hint instead of bisecting (see `locate`); the result is the
    /// same whatever the hint.
    pub(crate) fn segment_at(&self, t: f64, hint: &mut Option<usize>) -> usize {
        locate(&self.bounds, t, hint, self.rates.len())
    }

    /// Invert the normalized arrival-time CDF: map `u ∈ [0, 1)` to a
    /// release offset in `[0, window)` seconds.
    ///
    /// The flat single-segment case computes `u * window` exactly — the
    /// same arithmetic as the pre-subsystem generators' `uniform_f64(0,
    /// window)` — which is what keeps the paper-scenario adapters
    /// bit-for-bit identical.
    pub fn inv_cdf(&self, u: f64) -> f64 {
        self.inv_cdf_from(u, &mut None)
    }

    /// [`IntensityProfile::inv_cdf`] from a hint, which works as
    /// [`IntensityProfile::segment_at`]'s does: for non-decreasing `u` the
    /// segment search walks forward, and the offset is bit-identical to
    /// `inv_cdf(u)` whatever the hint.
    pub(crate) fn inv_cdf_from(&self, u: f64, hint: &mut Option<usize>) -> f64 {
        let window = self.window_secs();
        if self.rates.len() == 1 {
            return u * window;
        }
        let target = u * self.mass();
        // The segment whose cumulative range contains `target`.
        let seg = locate(&self.cum, target, hint, self.rates.len());
        let rate = self.rates[seg];
        let offset = if rate > 0.0 {
            self.bounds[seg] + (target - self.cum[seg]) / rate
        } else {
            // Zero-rate segment can only be hit at its exact boundary mass.
            self.bounds[seg]
        };
        // Guard the half-open invariant against floating-point creep.
        if offset >= window {
            window * (1.0 - f64::EPSILON)
        } else {
            offset.max(0.0)
        }
    }
}

/// The segment (of `segments`) that the non-decreasing boundary array
/// `keys` places `x` in: the entry equal to `x` if the binary search finds
/// one, else the last entry below `x`, clamped to the last segment. With a
/// hint whose entry is below `x`, the search walks forward from it, which
/// costs O(entries crossed) for a non-decreasing `x`. It bisects with no
/// hint, with a hint at or past `x`, or on an exact tie with an entry:
/// duplicate entries (zero-rate segments repeat a `cum` value) leave the
/// choice among them to the binary search, and the walk must not make a
/// different one. `hint` becomes the returned segment.
fn locate(keys: &[f64], x: f64, hint: &mut Option<usize>, segments: usize) -> usize {
    let walked = hint.filter(|&h| keys[h] < x).and_then(|h| {
        let above = h + 1 + keys[h + 1..].iter().take_while(|&&k| k < x).count();
        // Every entry before `above` is below `x`; the walk answers unless
        // the next one equals it.
        (keys.get(above) != Some(&x)).then_some(above - 1)
    });
    let i = walked.unwrap_or_else(|| {
        match keys.binary_search_by(|k| k.partial_cmp(&x).expect("finite profile")) {
            Ok(i) => i,
            Err(i) => i.saturating_sub(1),
        }
    });
    let seg = i.min(segments - 1);
    *hint = Some(seg);
    seg
}

/// Poisson sample: exact exponential race below mean 256, normal
/// approximation with continuity correction above.
fn sample_poisson(mean: f64, rng: &mut Xoshiro256) -> usize {
    assert!(
        mean >= 0.0 && mean.is_finite(),
        "Poisson mean must be finite"
    );
    if mean == 0.0 {
        return 0;
    }
    if mean < 256.0 {
        // Count standard exponentials fitting in `mean`.
        let mut acc = 0.0;
        let mut n = 0usize;
        loop {
            acc += -(1.0 - rng.next_f64()).ln();
            if acc > mean {
                return n;
            }
            n += 1;
        }
    }
    let draw = mean + mean.sqrt() * rng.standard_normal();
    draw.round().max(0.0) as usize
}

/// An arrival process (sweep configs, JSON results).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArrivalSpec {
    /// The paper's §V-B burst: exactly `count` calls i.i.d.-uniform over
    /// the window.
    Uniform {
        /// Exact call count.
        count: usize,
    },
    /// Homogeneous Poisson at `rate` calls/second; the call count is
    /// itself Poisson (open workload).
    Poisson {
        /// Arrival rate, calls/second.
        rate: f64,
    },
    /// Two-state Markov-modulated Poisson process (on-off bursts). The
    /// hidden chain alternates exponential sojourns in the on and off
    /// states, starting from the stationary distribution. Conditional on
    /// the realized path the arrivals are an inhomogeneous Poisson
    /// process, which is exactly what [`IntensityProfile`] represents, so
    /// MMPP generation shards without approximation.
    Mmpp {
        /// On-state rate, calls/second.
        rate_on: f64,
        /// Off-state rate, calls/second.
        rate_off: f64,
        /// Mean on sojourn, seconds.
        mean_on_secs: f64,
        /// Mean off sojourn, seconds.
        mean_off_secs: f64,
    },
    /// Piecewise-constant diurnal curve: the window is split into
    /// `weights.len()` equal-length segments whose rates follow the
    /// relative weights, normalized so the window-average rate is
    /// `mean_rate`. Deterministic (no hidden state).
    Diurnal {
        /// Window-average rate, calls/second.
        mean_rate: f64,
        /// Relative per-segment rates (any non-negative scale).
        weights: Vec<f64>,
    },
}

impl ArrivalSpec {
    /// A day-shaped diurnal curve averaging `mean_rate` calls/second:
    /// quiet night, morning ramp, midday peak, evening tail.
    pub fn day_shape(mean_rate: f64) -> ArrivalSpec {
        ArrivalSpec::Diurnal {
            mean_rate,
            weights: vec![0.25, 0.5, 1.0, 1.75, 1.75, 1.25, 0.75, 0.75],
        }
    }

    /// Short label for report tables (`uniform`, `poisson`, ...).
    pub fn label(&self) -> String {
        match self {
            ArrivalSpec::Uniform { .. } => "uniform",
            ArrivalSpec::Poisson { .. } => "poisson",
            ArrivalSpec::Mmpp { .. } => "mmpp",
            ArrivalSpec::Diurnal { .. } => "diurnal",
        }
        .into()
    }

    /// Realize the scenario's intensity profile over `window_secs`.
    ///
    /// Deterministic given the RNG state: the MMPP draws its on/off path
    /// here; the memoryless processes consume no randomness.
    pub fn realize(&self, window_secs: f64, rng: &mut Xoshiro256) -> IntensityProfile {
        match self {
            ArrivalSpec::Uniform { count } => IntensityProfile::uniform_fixed(window_secs, *count),
            ArrivalSpec::Poisson { rate } => {
                IntensityProfile::piecewise(&[(window_secs, *rate)], CountModel::Poisson)
            }
            &ArrivalSpec::Mmpp {
                rate_on,
                rate_off,
                mean_on_secs,
                mean_off_secs,
            } => {
                assert!(
                    mean_on_secs > 0.0 && mean_off_secs > 0.0,
                    "MMPP sojourn means must be positive"
                );
                assert!(
                    rate_on >= 0.0 && rate_off >= 0.0,
                    "MMPP rates must be non-negative"
                );
                // The initial state is drawn from the stationary
                // distribution, then sojourns alternate.
                let p_on = mean_on_secs / (mean_on_secs + mean_off_secs);
                let mut on = rng.next_f64() < p_on;
                let mut segments: Vec<(f64, f64)> = Vec::new();
                let mut t = 0.0;
                while t < window_secs {
                    let mean = if on { mean_on_secs } else { mean_off_secs };
                    let sojourn = -mean * (1.0 - rng.next_f64()).ln();
                    let len = sojourn.min(window_secs - t);
                    if len > 0.0 {
                        segments.push((len, if on { rate_on } else { rate_off }));
                        t += len;
                    }
                    on = !on;
                }
                IntensityProfile::piecewise(&segments, CountModel::Poisson)
            }
            ArrivalSpec::Diurnal { mean_rate, weights } => {
                assert!(!weights.is_empty(), "diurnal curve needs segments");
                assert!(
                    weights.iter().all(|&w| w >= 0.0),
                    "diurnal weights must be non-negative"
                );
                let sum: f64 = weights.iter().sum();
                assert!(sum > 0.0, "diurnal curve must have positive mass");
                let k = weights.len() as f64;
                let seg_len = window_secs / k;
                let segments: Vec<(f64, f64)> = weights
                    .iter()
                    .map(|&w| (seg_len, mean_rate * w * k / sum))
                    .collect();
                IntensityProfile::piecewise(&segments, CountModel::Poisson)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locate_walks_to_the_binary_search_answer_and_defers_ties() {
        // Duplicate entries (zero-rate segments) and exact hits: the walk
        // must give the bisection's answer for every x, from any hint.
        let keys = [0.0, 1.0, 1.0, 1.0, 2.0, 3.0, 3.0, 5.0];
        let xs: Vec<f64> = (0..=24).map(|k| k as f64 / 4.0).collect();
        for &x in &xs {
            let want = locate(&keys, x, &mut None, keys.len() - 1);
            for h in 0..keys.len() - 1 {
                assert_eq!(
                    locate(&keys, x, &mut Some(h), keys.len() - 1),
                    want,
                    "x={x} hint={h}"
                );
            }
        }
        // A chained hint over a monotone sweep is the same again.
        let mut hint = None;
        for &x in &xs {
            let got = locate(&keys, x, &mut hint, keys.len() - 1);
            assert_eq!(got, locate(&keys, x, &mut None, keys.len() - 1), "x={x}");
            assert_eq!(hint, Some(got));
        }
    }

    #[test]
    fn hinted_lookups_match_the_binary_search_on_piecewise_profiles() {
        // Random integer-valued profiles with zero-rate segments, so `cum`
        // repeats values, swept by monotone `u` (and `t`) that include
        // every exact boundary hit: chaining the hints must give exactly
        // the hint-free (binary-search) results.
        let mut rng = Xoshiro256::seed_from_u64(0xC0FFEE);
        let (mut cum_ties, mut bound_ties) = (0, 0);
        for _ in 0..200 {
            let segments: Vec<(f64, f64)> = (0..1 + rng.next_u64() % 12)
                .map(|_| ((1 + rng.next_u64() % 4) as f64, (rng.next_u64() % 4) as f64))
                .collect();
            if segments.iter().all(|&(_, rate)| rate == 0.0) {
                continue;
            }
            let p = IntensityProfile::piecewise(&segments, CountModel::Poisson);
            let mut us: Vec<f64> = (0..64).map(|_| rng.next_f64()).collect();
            us.extend(p.cum.iter().map(|c| c / p.mass()).filter(|&u| u < 1.0));
            us.sort_by(f64::total_cmp);
            let mut ts: Vec<f64> = us.iter().map(|&u| p.inv_cdf(u)).collect();
            ts.extend(p.bounds.iter().copied());
            ts.sort_by(f64::total_cmp);
            let (mut cum_hint, mut bound_hint) = (None, None);
            for &u in &us {
                cum_ties += usize::from(p.cum.contains(&(u * p.mass())));
                let got = p.inv_cdf_from(u, &mut cum_hint);
                assert_eq!(got.to_bits(), p.inv_cdf(u).to_bits(), "u={u} {segments:?}");
            }
            for &t in &ts {
                bound_ties += usize::from(p.bounds.contains(&t));
                let got = p.segment_at(t, &mut bound_hint);
                assert_eq!(got, p.segment_at(t, &mut None), "t={t} {segments:?}");
            }
        }
        assert!(
            cum_ties > 100 && bound_ties > 100,
            "{cum_ties} {bound_ties}"
        );
    }

    #[test]
    fn uniform_profile_is_flat_and_fixed() {
        let p =
            ArrivalSpec::Uniform { count: 660 }.realize(60.0, &mut Xoshiro256::seed_from_u64(1));
        assert_eq!(p.window_secs(), 60.0);
        assert!((p.mass() - 660.0).abs() < 1e-9);
        assert_eq!(p.sample_count(&mut Xoshiro256::seed_from_u64(2)), 660);
    }

    #[test]
    fn flat_inv_cdf_matches_legacy_arithmetic() {
        // Bit-for-bit contract with the pre-subsystem generators:
        // inv_cdf(u) == u * window exactly.
        let p = ArrivalSpec::Uniform { count: 10 }.realize(60.0, &mut Xoshiro256::seed_from_u64(1));
        let mut rng = Xoshiro256::seed_from_u64(3);
        for _ in 0..1000 {
            let u = rng.next_f64();
            assert_eq!(p.inv_cdf(u).to_bits(), (u * 60.0).to_bits());
        }
    }

    #[test]
    fn poisson_count_tracks_mean() {
        let p =
            ArrivalSpec::Poisson { rate: 11.0 }.realize(60.0, &mut Xoshiro256::seed_from_u64(1));
        let mut rng = Xoshiro256::seed_from_u64(4);
        let samples = 400;
        let mean: f64 = (0..samples)
            .map(|_| p.sample_count(&mut rng) as f64)
            .sum::<f64>()
            / samples as f64;
        // mean 660, sd ~25.7; the sample mean has sd ~1.3 — 5 sigma slack.
        assert!((mean - 660.0).abs() < 7.0, "sample mean {mean}");
    }

    #[test]
    fn poisson_large_mean_uses_normal_tail_sanely() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        let mean = 1_000_000.0;
        for _ in 0..50 {
            let n = sample_poisson(mean, &mut rng) as f64;
            assert!((n - mean).abs() < 6.0 * mean.sqrt(), "sample {n}");
        }
    }

    #[test]
    fn poisson_zero_mean_is_zero() {
        let mut rng = Xoshiro256::seed_from_u64(6);
        assert_eq!(sample_poisson(0.0, &mut rng), 0);
    }

    #[test]
    fn mmpp_profile_covers_window_with_both_rates() {
        let mmpp = ArrivalSpec::Mmpp {
            rate_on: 20.0,
            rate_off: 2.0,
            mean_on_secs: 5.0,
            mean_off_secs: 5.0,
        };
        let p = mmpp.realize(600.0, &mut Xoshiro256::seed_from_u64(7));
        assert_eq!(p.window_secs(), 600.0);
        // Long window: realized mass should be near the stationary mean,
        // p_on * rate_on + p_off * rate_off with p_on = 5 / (5 + 5).
        let expected = (0.5 * 20.0 + 0.5 * 2.0) * 600.0;
        assert!(
            (p.mass() - expected).abs() / expected < 0.5,
            "mass {} vs {}",
            p.mass(),
            expected
        );
    }

    #[test]
    fn mmpp_is_deterministic_given_stream() {
        let mmpp = ArrivalSpec::Mmpp {
            rate_on: 10.0,
            rate_off: 1.0,
            mean_on_secs: 3.0,
            mean_off_secs: 9.0,
        };
        let a = mmpp.realize(60.0, &mut Xoshiro256::seed_from_u64(8));
        let b = mmpp.realize(60.0, &mut Xoshiro256::seed_from_u64(8));
        assert_eq!(a, b);
    }

    #[test]
    fn diurnal_mass_matches_mean_rate() {
        let d = ArrivalSpec::day_shape(11.0);
        let p = d.realize(60.0, &mut Xoshiro256::seed_from_u64(9));
        assert!((p.mass() - 11.0 * 60.0).abs() < 1e-6, "mass {}", p.mass());
    }

    #[test]
    fn inv_cdf_is_monotone_and_in_window() {
        let d = ArrivalSpec::day_shape(5.0);
        let p = d.realize(60.0, &mut Xoshiro256::seed_from_u64(10));
        let mut prev = -1.0;
        for i in 0..=1000 {
            let u = i as f64 / 1001.0;
            let x = p.inv_cdf(u);
            assert!((0.0..60.0).contains(&x), "offset {x}");
            assert!(x >= prev, "monotone inversion");
            prev = x;
        }
    }

    #[test]
    fn inv_cdf_respects_segment_density() {
        // Two segments, all mass in the second half.
        let p = IntensityProfile::piecewise(&[(30.0, 0.0), (30.0, 10.0)], CountModel::Poisson);
        assert!(
            p.inv_cdf(0.01) >= 30.0,
            "low quantile lands in live segment"
        );
        assert!(p.inv_cdf(0.99) < 60.0);
    }

    #[test]
    fn spec_labels_name_the_variant() {
        let specs = [
            ArrivalSpec::Uniform { count: 5 },
            ArrivalSpec::Poisson { rate: 1.0 },
            ArrivalSpec::Mmpp {
                rate_on: 2.0,
                rate_off: 0.5,
                mean_on_secs: 1.0,
                mean_off_secs: 1.0,
            },
            ArrivalSpec::Diurnal {
                mean_rate: 1.0,
                weights: vec![1.0, 2.0],
            },
        ];
        let labels: Vec<String> = specs.iter().map(|s| s.label()).collect();
        assert_eq!(labels, ["uniform", "poisson", "mmpp", "diurnal"]);
    }
}
