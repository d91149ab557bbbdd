//! Azure-Functions-style synthetic trace generation.
//!
//! Published FaaS production traces share three load-shape features the
//! analytic generators of [`crate::arrival`]/[`crate::mix`] only model one
//! at a time: *heavy-tailed* per-function popularity (a few functions
//! dominate), *diurnal* per-function cycles with function-specific phases
//! (different tenants peak at different hours), and *bursty* short-scale
//! on-off behaviour superimposed on both. [`SyntheticTrace`] composes all
//! three — plus optional correlated invocation chains — into one
//! [`crate::trace_source::TraceSource`].
//!
//! # Contract: pure in `(seed, index)`, memory-bounded
//!
//! Construction realizes the *cluster-wide intensity profile* once: every
//! function's mean rate (Zipf over a seeded popularity order), diurnal
//! curve (seeded phase) and MMPP on-off path (seeded sojourns) are merged
//! into one global piecewise-constant profile with a per-segment
//! per-function rate table. That realization is O(segments · functions) —
//! independent of the call count.
//!
//! Each call is then derived lazily from its own RNG stream, exactly like
//! [`crate::generate::ShardedGenerator`]: call `i` of `n` draws its
//! release via the stratified quantile `(i + u_i) / n` through the
//! profile's inverse CDF (monotone in `i`, so the trace is release-ordered
//! by construction), picks its function from the CDF of the segment its
//! release lands in, and redirects along the seeded chain permutation with
//! probability `chain_p`. A 10^8-call day is therefore *addressable*
//! without ever being materialized, any chunk/stride partition reproduces
//! the serial trace bit-for-bit, and reruns are bit-identical across
//! thread counts.

use crate::arrival::{CountModel, IntensityProfile};
use crate::generate::mix64;
use crate::sebs::Catalogue;
use crate::trace::{Call, CallId, CallKind};
use crate::trace_source::TraceSource;
use faas_simcore::rng::Xoshiro256;
use faas_simcore::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Stream tag for the profile realization (popularity order, phases, MMPP
/// paths).
const STREAM_SYNTH_PROFILE: u64 = 0xA701;
/// Stream tag for the call-count draw.
const STREAM_SYNTH_COUNT: u64 = 0xA702;
/// Stream tag for the per-call stream base.
const STREAM_SYNTH_CALLS: u64 = 0xA703;
/// Stream tag for the invocation-chain permutation.
const STREAM_SYNTH_CHAIN: u64 = 0xA704;

/// Bursty on-off modulation superimposed on every function's rate curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MmppBurst {
    /// Multiplicative rate boost while a function's chain is *on*.
    pub rate_boost: f64,
    /// Mean on-state sojourn, seconds.
    pub mean_on_secs: f64,
    /// Mean off-state sojourn, seconds.
    pub mean_off_secs: f64,
}

/// Serializable description of an Azure-style synthetic trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthSpec {
    /// Zipf exponent of the per-function mean-rate distribution (the
    /// heavy tail; which function gets which rank is seeded).
    pub zipf_s: f64,
    /// Cluster-wide mean arrival rate, calls/second, averaged over the
    /// window.
    pub mean_rate: f64,
    /// Trace length (the "day").
    pub window: SimDuration,
    /// Relative amplitude of the per-function diurnal cycle, in `[0, 1]`.
    pub diurnal_amplitude: f64,
    /// Resolution of the piecewise diurnal curve (equal-length segments).
    pub diurnal_segments: u32,
    /// Optional bursty MMPP superposition (one independent on-off chain
    /// per function).
    pub burst: Option<MmppBurst>,
    /// Probability a call is redirected along the seeded invocation chain
    /// (correlated invocations), in `[0, 1]`.
    pub chain_p: f64,
}

impl SynthSpec {
    /// An Azure-flavoured default: strong popularity skew, pronounced
    /// diurnal cycle, minute-scale bursts, mild invocation chaining.
    pub fn azure(mean_rate: f64, window: SimDuration) -> SynthSpec {
        SynthSpec {
            zipf_s: 1.1,
            mean_rate,
            window,
            diurnal_amplitude: 0.6,
            diurnal_segments: 48,
            burst: Some(MmppBurst {
                rate_boost: 3.0,
                mean_on_secs: 60.0,
                mean_off_secs: 300.0,
            }),
            chain_p: 0.15,
        }
    }

    /// Short label for report tables.
    pub fn label(&self) -> String {
        format!("synth(z{:.1},{:.0}/s)", self.zipf_s, self.mean_rate)
    }
}

/// A lazily-evaluated synthetic trace; see the module docs for the model
/// and the purity/memory contract.
pub struct SyntheticTrace {
    start: SimTime,
    /// The merged cluster-wide rate curve (release-offset distribution),
    /// with `S` segments.
    profile: IntensityProfile,
    /// Row-major `S × functions` per-segment cumulative function shares,
    /// one row per `profile` segment; each row ends at 1.0.
    fn_cdf: Vec<f64>,
    functions: u16,
    /// `chain_next[f]` is the seeded successor of function `f` (a single
    /// cycle through all functions, so never the identity for 2+).
    chain_next: Vec<u16>,
    chain_p: f64,
    n: u64,
    base: u64,
}

impl SyntheticTrace {
    /// Realize `spec` against `catalogue` — O(segments · functions) work
    /// and memory, however many calls the trace holds.
    pub fn new(
        spec: &SynthSpec,
        catalogue: &Catalogue,
        start: SimTime,
        seed: u64,
    ) -> SyntheticTrace {
        let nf = catalogue.len();
        assert!(nf > 0, "synthetic trace needs a non-empty catalogue");
        let window = spec.window.as_secs_f64();
        assert!(window > 0.0, "trace window must be positive");
        assert!(
            spec.mean_rate >= 0.0 && spec.mean_rate.is_finite(),
            "mean rate must be finite and non-negative"
        );
        assert!(
            (0.0..=1.0).contains(&spec.diurnal_amplitude),
            "diurnal amplitude must be in [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&spec.chain_p),
            "chain_p must be in [0, 1]"
        );
        assert!(spec.diurnal_segments >= 1, "diurnal curve needs segments");

        let mut root = Xoshiro256::seed_from_u64(seed);
        let mut rng = root.derive_stream(STREAM_SYNTH_PROFILE);

        // Heavy-tailed mean rates: Zipf weights over a seeded popularity
        // order, so which function is hot varies with the seed.
        let mut order: Vec<usize> = (0..nf).collect();
        rng.shuffle(&mut order);
        let zipf: Vec<f64> = (0..nf)
            .map(|r| 1.0 / ((r + 1) as f64).powf(spec.zipf_s))
            .collect();
        let zsum: f64 = zipf.iter().sum();
        let mut mean_rates = vec![0.0f64; nf];
        for (rank, &f) in order.iter().enumerate() {
            mean_rates[f] = spec.mean_rate * zipf[rank] / zsum;
        }

        // Per-function diurnal phase (uniform) and MMPP on-off path.
        let phases: Vec<f64> = (0..nf).map(|_| rng.next_f64()).collect();
        // Each function's realized on/off switch times; the state before
        // the first switch is `mmpp_init[f]`.
        let mut switches: Vec<Vec<f64>> = vec![Vec::new(); nf];
        let mut mmpp_init = vec![false; nf];
        if let Some(b) = spec.burst {
            assert!(
                b.mean_on_secs > 0.0 && b.mean_off_secs > 0.0,
                "MMPP sojourn means must be positive"
            );
            assert!(b.rate_boost >= 0.0, "MMPP boost must be non-negative");
            let p_on = b.mean_on_secs / (b.mean_on_secs + b.mean_off_secs);
            for f in 0..nf {
                let mut on = rng.next_f64() < p_on;
                mmpp_init[f] = on;
                let mut t = 0.0;
                loop {
                    let mean = if on { b.mean_on_secs } else { b.mean_off_secs };
                    t += -mean * (1.0 - rng.next_f64()).ln();
                    if t >= window {
                        break;
                    }
                    switches[f].push(t);
                    on = !on;
                }
            }
        }

        // Global segment boundaries: the diurnal grid plus every MMPP
        // switch of every function; the exact window end is appended last
        // so float creep in the grid arithmetic cannot lose it.
        let mut bounds: Vec<f64> = (0..spec.diurnal_segments)
            .map(|j| window * j as f64 / spec.diurnal_segments as f64)
            .collect();
        for s in &switches {
            bounds.extend(s.iter().copied().filter(|&t| t < window));
        }
        bounds.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite bounds"));
        bounds.dedup();
        bounds.push(window);

        // Per-segment per-function rates, evaluated at segment midpoints
        // (exact: every factor is piecewise-constant on this grid). Every
        // kept segment has positive length, so `fn_cdf` row `i` is the
        // profile's segment `i`.
        let mut segments: Vec<(f64, f64)> = Vec::new();
        let mut fn_cdf: Vec<f64> = Vec::new();
        // Walk each function's switch list with a cursor instead of
        // re-searching per segment.
        let mut sw_cursor = vec![0usize; nf];
        let boost = spec.burst.map_or(1.0, |b| b.rate_boost);
        // Each function's mean rate times its diurnal factor at the middle
        // of each diurnal segment, row `dseg`: many profile segments share
        // one diurnal segment, so each sine is evaluated once.
        let segs = spec.diurnal_segments as usize;
        let diurnal_rates: Vec<f64> = (0..segs)
            .flat_map(|dseg| {
                let dmid = (dseg as f64 + 0.5) / spec.diurnal_segments as f64;
                let (phases, mean_rates) = (&phases, &mean_rates);
                (0..nf).map(move |f| {
                    let diurnal = 1.0
                        + spec.diurnal_amplitude
                            * (std::f64::consts::TAU * (dmid + phases[f])).sin();
                    mean_rates[f] * diurnal.max(0.0)
                })
            })
            .collect();
        for w in bounds.windows(2) {
            let (a, b) = (w[0], w[1]);
            let len = b - a;
            if len <= 0.0 {
                continue;
            }
            let mid = a + len / 2.0;
            let dseg = ((mid / window) * spec.diurnal_segments as f64) as usize;
            let dseg = dseg.min(segs - 1);
            let rates = &diurnal_rates[dseg * nf..(dseg + 1) * nf];
            let mut total = 0.0;
            let row_base = fn_cdf.len();
            for f in 0..nf {
                // Advance this function's on/off cursor past the segment
                // start; parity from the initial state gives the state.
                while sw_cursor[f] < switches[f].len() && switches[f][sw_cursor[f]] <= a {
                    sw_cursor[f] += 1;
                }
                let on = mmpp_init[f] ^ (sw_cursor[f] % 2 == 1);
                let rate = rates[f] * if on { boost } else { 1.0 };
                total += rate;
                fn_cdf.push(total);
            }
            // Normalize the row to a CDF; an all-zero row falls back to
            // uniform so a zero-rate segment still has a defined draw.
            if total > 0.0 {
                for v in &mut fn_cdf[row_base..] {
                    *v /= total;
                }
            } else {
                for (f, v) in fn_cdf[row_base..].iter_mut().enumerate() {
                    *v = (f + 1) as f64 / nf as f64;
                }
            }
            segments.push((len, total));
        }

        let profile = IntensityProfile::piecewise(&segments, CountModel::Poisson);
        let n = profile.sample_count(&mut root.derive_stream(STREAM_SYNTH_COUNT)) as u64;
        let base = root.derive_stream(STREAM_SYNTH_CALLS).next_u64();

        // The invocation chain: one seeded cycle through all functions, so
        // `chain_next` is never the identity when 2+ functions exist.
        let mut cycle: Vec<usize> = (0..nf).collect();
        root.derive_stream(STREAM_SYNTH_CHAIN).shuffle(&mut cycle);
        let mut chain_next = vec![0u16; nf];
        for i in 0..nf {
            chain_next[cycle[i]] = cycle[(i + 1) % nf] as u16;
        }

        SyntheticTrace {
            start,
            profile,
            fn_cdf,
            functions: nf as u16,
            chain_next,
            chain_p: spec.chain_p,
            n,
            base,
        }
    }

    /// The realized expected arrival mass (calls); the drawn count `len()`
    /// is Poisson around it.
    pub fn mass(&self) -> f64 {
        self.profile.mass()
    }
}

impl TraceSource for SyntheticTrace {
    fn len(&self) -> u64 {
        self.n
    }

    fn start(&self) -> SimTime {
        self.start
    }

    fn call(&self, index: u64) -> Call {
        self.call_from(index, &mut ProfileHints::default())
    }

    /// Derive the chunk through one pair of profile hints, so each call's
    /// segment searches walk forward from the previous call's.
    fn iter_chunk(&self, lo: u64, hi: u64) -> Box<dyn Iterator<Item = Call> + '_> {
        debug_assert!(lo <= hi && hi <= self.n);
        let mut hints = ProfileHints::default();
        Box::new((lo..hi).map(move |i| self.call_from(i, &mut hints)))
    }
}

/// Where an earlier call fell in the trace's profile: the segment hints of
/// its two lookups (see [`IntensityProfile::inv_cdf_from`]).
#[derive(Default)]
struct ProfileHints {
    cum: Option<usize>,
    bound: Option<usize>,
}

impl SyntheticTrace {
    /// The `index`-th call, its profile lookups starting from `hints`.
    /// Every hint gives the same call; releases are non-decreasing in the
    /// index, so the hints of call `i` make call `i + 1`'s lookups a short
    /// forward walk.
    fn call_from(&self, index: u64, hints: &mut ProfileHints) -> Call {
        debug_assert!(index < self.n, "call index out of range");
        let mut rng = Xoshiro256::seed_from_u64(self.base ^ mix64(index));
        // Stratified quantile: strictly increasing in the index, uniform
        // within the call's own 1/n stratum — releases are non-decreasing
        // in the index (the TraceSource ordering contract) yet every call
        // remains a pure function of (seed, index).
        let q = (index as f64 + rng.next_f64()) / self.n as f64;
        let offset = self.profile.inv_cdf_from(q, &mut hints.cum);
        let release = self.start + SimDuration::from_secs_f64(offset);
        let seg = self.profile.segment_at(offset, &mut hints.bound);
        let u = rng.next_f64();
        let nf = self.functions as usize;
        let row = &self.fn_cdf[seg * nf..(seg + 1) * nf];
        let f = row.partition_point(|&c| c <= u).min(nf - 1);
        let f = if self.chain_p > 0.0 && rng.next_f64() < self.chain_p {
            self.chain_next[f] as usize
        } else {
            f
        };
        Call {
            id: CallId(index),
            func: crate::sebs::FuncId(f as u16),
            release,
            kind: CallKind::Measured,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalogue() -> Catalogue {
        Catalogue::sebs()
    }

    fn spec() -> SynthSpec {
        SynthSpec::azure(40.0, SimDuration::from_secs(600))
    }

    #[test]
    fn count_tracks_mean_rate() {
        let t = SyntheticTrace::new(&spec(), &catalogue(), SimTime::ZERO, 1);
        // Mass is seed-dependent (MMPP realization); the count should be
        // within a factor of the nominal mean (40/s * 600s = 24k) that
        // generously covers boost/diurnal variance.
        let nominal = 24_000.0;
        assert!(
            (t.len() as f64) > nominal * 0.3 && (t.len() as f64) < nominal * 3.0,
            "len {} vs nominal {nominal}",
            t.len()
        );
    }

    #[test]
    fn calls_are_pure_in_index_and_seed() {
        let a = SyntheticTrace::new(&spec(), &catalogue(), SimTime::from_secs(7), 9);
        let b = SyntheticTrace::new(&spec(), &catalogue(), SimTime::from_secs(7), 9);
        assert_eq!(a.len(), b.len());
        for i in [0, 1, 17, a.len() / 2, a.len() - 1] {
            assert_eq!(a.call(i), b.call(i));
            assert_eq!(a.call(i), a.call(i), "re-evaluation is stable");
        }
        let c = SyntheticTrace::new(&spec(), &catalogue(), SimTime::from_secs(7), 10);
        let moved = (0..100).filter(|&i| c.call(i) != a.call(i)).count();
        assert!(moved > 50, "seeds decorrelate ({moved} moved)");
    }

    #[test]
    fn releases_are_monotone_and_inside_window() {
        let t = SyntheticTrace::new(&spec(), &catalogue(), SimTime::from_secs(100), 3);
        let end = SimTime::from_secs(100) + SimDuration::from_secs(600);
        let mut prev = SimTime::ZERO;
        let step = (t.len() / 2000).max(1);
        let mut i = 0;
        while i < t.len() {
            let c = t.call(i);
            assert!(c.release >= prev, "monotone at {i}");
            assert!(c.release >= SimTime::from_secs(100) && c.release < end);
            assert_eq!(c.id, CallId(i));
            prev = c.release;
            i += step;
        }
    }

    #[test]
    fn popularity_is_heavy_tailed() {
        let t = SyntheticTrace::new(&spec(), &catalogue(), SimTime::ZERO, 5);
        let mut counts = vec![0u64; catalogue().len()];
        for i in 0..t.len().min(20_000) {
            counts[t.call(i).func.index()] += 1;
        }
        let total: u64 = counts.iter().sum();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top2: u64 = counts.iter().take(2).sum();
        assert!(
            top2 as f64 / total as f64 > 0.35,
            "top-2 share {}/{total} not heavy-tailed",
            top2
        );
        assert!(
            counts.iter().all(|&c| c > 0),
            "chaining touches every function"
        );
    }

    #[test]
    fn chain_permutation_is_a_derangement_cycle() {
        let t = SyntheticTrace::new(&spec(), &catalogue(), SimTime::ZERO, 6);
        let nf = t.functions as usize;
        let mut seen = vec![false; nf];
        let mut f = 0usize;
        for _ in 0..nf {
            assert_ne!(t.chain_next[f] as usize, f, "no self-chain");
            f = t.chain_next[f] as usize;
            assert!(!seen[f], "single cycle");
            seen[f] = true;
        }
        assert!(seen.iter().all(|&s| s), "cycle covers every function");
    }

    #[test]
    fn no_burst_and_flat_cycle_is_near_homogeneous() {
        let s = SynthSpec {
            zipf_s: 0.0,
            mean_rate: 20.0,
            window: SimDuration::from_secs(600),
            diurnal_amplitude: 0.0,
            diurnal_segments: 4,
            burst: None,
            chain_p: 0.0,
        };
        let t = SyntheticTrace::new(&s, &catalogue(), SimTime::ZERO, 2);
        assert!((t.mass() - 12_000.0).abs() < 1e-6, "mass {}", t.mass());
        // Equal weights, no modulation: every function's share is ~1/11.
        let mut counts = vec![0u64; catalogue().len()];
        let m = t.len().min(11_000);
        for i in 0..m {
            counts[t.call(i).func.index()] += 1;
        }
        for (f, &c) in counts.iter().enumerate() {
            let share = c as f64 / m as f64;
            assert!((share - 1.0 / 11.0).abs() < 0.02, "func {f} share {share}");
        }
    }
}
