//! Scenario generation: the serial legacy-compatible path and the sharded
//! streaming generator.
//!
//! A [`WorkloadSpec`] is the full description of one measured burst: an
//! arrival process ([`crate::arrival`]), a function mix ([`crate::mix`]) and
//! a window. Two generation schemes consume it:
//!
//! * [`WorkloadSpec::generate_sorted`] — the serial path: release times are
//!   drawn sequentially from one RNG stream and sorted, the function
//!   multiset is materialized and shuffled on a second stream, and ids are
//!   assigned in release order. For the paper's uniform/equal and fairness
//!   scenarios this consumes the streams exactly like the pre-subsystem
//!   generators, so [`crate::scenario`]'s adapters are bit-for-bit
//!   identical (pinned by `tests/regression_scenarios.rs`).
//! * [`ShardedGenerator`] — the scale path: every call is a pure function
//!   of `(seed, call index)`. Each call derives its own RNG stream, draws
//!   its release offset by inverting the realized intensity profile, and
//!   gets its function from the mix via a seeded bijective
//!   [`IndexPermutation`] (so exact-count mixes stay exact). Any partition
//!   of the index space — contiguous chunks, per-node strides — yields the
//!   same calls, which is what lets the cluster engine generate a burst
//!   in parallel chunks and route it by generation index.

use crate::arrival::{ArrivalSpec, IntensityProfile};
use crate::mix::{FunctionMix, MixSpec};
use crate::sebs::Catalogue;
use crate::trace::{Call, CallId, CallKind};
use crate::weight::WeightSpec;
use faas_simcore::rng::{splitmix64, Xoshiro256};
use faas_simcore::time::{SimDuration, SimTime};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Stream tag for profile realization and the count draw.
const STREAM_PROFILE: u64 = 0x9E01;
/// Stream tag for the index permutation key.
const STREAM_PERM: u64 = 0x9E02;
/// Stream tag for the per-call stream base.
const STREAM_CALLS: u64 = 0x9E03;

/// A fully-specified measured workload: arrival × mix × weights × window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// The arrival process.
    pub arrival: ArrivalSpec,
    /// The function mix.
    pub mix: MixSpec,
    /// Per-function container weights/caps ([`crate::weight`]). Purely a
    /// *simulation* axis: weights never consume RNG streams, so the
    /// generated call sequence is independent of this field.
    pub weights: WeightSpec,
    /// Window length.
    pub window: SimDuration,
}

impl WorkloadSpec {
    /// Short `arrival/mix` label for report tables.
    pub fn label(&self, catalogue: &Catalogue) -> String {
        format!("{}/{}", self.arrival.label(), self.mix.label(catalogue))
    }

    /// Serial generation: sorted measured calls starting at `start`, ids
    /// `id_base..`, times from `rng_times`, functions from `rng_assign`.
    ///
    /// This is the legacy-compatible scheme — see the module docs.
    pub fn generate_sorted(
        &self,
        catalogue: &Catalogue,
        start: SimTime,
        rng_times: &mut Xoshiro256,
        rng_assign: &mut Xoshiro256,
        id_base: u64,
    ) -> Vec<Call> {
        let profile = self
            .arrival
            .process()
            .realize(self.window.as_secs_f64(), rng_times);
        let n = profile.sample_count(rng_times);
        let funcs = self.mix.mix(catalogue).materialize(n, rng_assign);
        let mut times: Vec<SimTime> = (0..n)
            .map(|_| start + SimDuration::from_secs_f64(profile.inv_cdf(rng_times.next_f64())))
            .collect();
        times.sort_unstable();
        times
            .into_iter()
            .zip(funcs)
            .enumerate()
            .map(|(i, (release, func))| Call {
                id: CallId(id_base + i as u64),
                func,
                release,
                kind: CallKind::Measured,
            })
            .collect()
    }
}

/// SplitMix64 finalizer: a stateless 64-bit mix for deriving per-call and
/// per-shard stream seeds.
#[inline]
pub(crate) fn mix64(x: u64) -> u64 {
    let mut s = x;
    splitmix64(&mut s)
}

/// A seeded bijection on `[0, n)` (4-round Feistel network with
/// cycle-walking).
///
/// The sharded generator uses it to hand exact-count mixes a *permuted*
/// index: the mix assigns functions by contiguous blocks of permuted
/// positions (keeping counts exact), while the permutation decorrelates a
/// call's function from its index — and therefore from whatever
/// index-based shard or node stripe the call lands on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexPermutation {
    n: u64,
    half_bits: u32,
    half_mask: u64,
    keys: [u64; 4],
}

impl IndexPermutation {
    /// Build a permutation of `[0, n)` keyed by `key`. `n` must be positive.
    pub fn new(n: u64, key: u64) -> IndexPermutation {
        assert!(n > 0, "permutation domain must be non-empty");
        // Smallest even bit-width covering n, at least 2: the Feistel walks
        // a power-of-four domain no larger than 4n.
        let bits = (64 - (n - 1).max(1).leading_zeros()).max(2).div_ceil(2) * 2;
        let half_bits = bits / 2;
        let mut k = key;
        let keys = [
            splitmix64(&mut k),
            splitmix64(&mut k),
            splitmix64(&mut k),
            splitmix64(&mut k),
        ];
        IndexPermutation {
            n,
            half_bits,
            half_mask: (1u64 << half_bits) - 1,
            keys,
        }
    }

    /// The image of `i` under the permutation; `i` must be below `n`.
    pub fn permute(&self, i: u64) -> u64 {
        debug_assert!(i < self.n);
        let mut x = i;
        // Cycle-walk: the Feistel permutes [0, 4n); re-encrypt until the
        // image lands back inside [0, n). Expected < 4 rounds.
        loop {
            x = self.feistel(x);
            if x < self.n {
                return x;
            }
        }
    }

    fn feistel(&self, x: u64) -> u64 {
        let mut l = x >> self.half_bits;
        let mut r = x & self.half_mask;
        for &k in &self.keys {
            let f = mix64(r ^ k) & self.half_mask;
            (l, r) = (r, l ^ f);
        }
        (l << self.half_bits) | r
    }
}

/// Below this many calls [`ShardedGenerator::generate_parallel`] runs
/// serially: the pool spawns its threads on every call, and a small burst
/// saves less than the spawns cost. Measured on a 2-vCPU host at 2
/// threads, uniform bursts of 2^10 to 2^18 calls, serial and split
/// repeats alternating, three sweeps: up to 2^14 calls the split is no
/// faster in median (2^14: 0.87 ms serial, 0.89–1.11 ms split) and its
/// 90th percentile is 3–6 times the serial one; from 2^15 calls up its
/// median is as fast or up to 30% faster and its 90th percentile within
/// twice the serial one. The floor sits in that crossover. End to end,
/// perfbench cluster-faults (3,611-call bursts; 10 alternating 5 s pairs
/// against a build without the floor) peaks at 4.58 MiB instead of 4.95,
/// lower in 10 of 10 pairs; its calls/s (medians 316k vs 297k, faster in
/// 6 of 10) is within noise.
const PARALLEL_FLOOR: u64 = 1 << 16;

/// The sharded streaming generator: calls as pure functions of
/// `(seed, index)`.
pub struct ShardedGenerator {
    start: SimTime,
    profile: IntensityProfile,
    mix: Box<dyn FunctionMix>,
    perm: IndexPermutation,
    n: u64,
    base: u64,
}

impl ShardedGenerator {
    /// Realize `spec` into a generator: the intensity profile and call
    /// count are sampled once (cheap, serial); everything per-call is
    /// deferred to [`ShardedGenerator::call`].
    pub fn new(
        spec: &WorkloadSpec,
        catalogue: &Catalogue,
        start: SimTime,
        seed: u64,
    ) -> ShardedGenerator {
        let mut root = Xoshiro256::seed_from_u64(seed);
        let mut rng_profile = root.derive_stream(STREAM_PROFILE);
        let profile = spec
            .arrival
            .process()
            .realize(spec.window.as_secs_f64(), &mut rng_profile);
        let n = profile.sample_count(&mut rng_profile) as u64;
        let perm = IndexPermutation::new(n.max(1), root.derive_stream(STREAM_PERM).next_u64());
        let base = root.derive_stream(STREAM_CALLS).next_u64();
        ShardedGenerator {
            start,
            profile,
            mix: spec.mix.mix(catalogue),
            perm,
            n,
            base,
        }
    }

    /// Number of measured calls this scenario emits.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// True when the realized scenario has no calls.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Start of the measured window.
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// The `index`-th call. Pure in `(generator, index)`: any shard layout
    /// produces identical calls.
    pub fn call(&self, index: u64) -> Call {
        debug_assert!(index < self.n, "call index out of range");
        let mut rng = Xoshiro256::seed_from_u64(self.base ^ mix64(index));
        let release = self.start + SimDuration::from_secs_f64(self.profile.inv_cdf(rng.next_f64()));
        let func = self
            .mix
            .function_at(self.perm.permute(index), self.n, &mut rng);
        Call {
            id: CallId(index),
            func,
            release,
            kind: CallKind::Measured,
        }
    }

    /// Stream the calls of one contiguous chunk `[lo, hi)`, in index order.
    pub fn iter_chunk(&self, lo: u64, hi: u64) -> impl Iterator<Item = Call> + '_ {
        debug_assert!(lo <= hi && hi <= self.n);
        (lo..hi).map(move |i| self.call(i))
    }

    /// Stream every `stride`-th call starting at `offset` — the per-node
    /// view under round-robin assignment by call index.
    pub fn iter_stride(&self, offset: u64, stride: u64) -> impl Iterator<Item = Call> + '_ {
        assert!(stride > 0, "stride must be positive");
        (offset..self.n)
            .step_by(stride as usize)
            .map(move |i| self.call(i))
    }

    /// Materialize every call serially, in index order (unsorted by
    /// release; sort on `(release, id)` if release order is needed).
    pub fn generate_serial(&self) -> Vec<Call> {
        self.iter_chunk(0, self.n).collect()
    }

    /// Materialize every call in parallel chunks under rayon, or serially
    /// below `PARALLEL_FLOOR` calls. Chunk outputs are concatenated in
    /// index order, so the result is identical to
    /// [`ShardedGenerator::generate_serial`] regardless of thread count.
    pub fn generate_parallel(&self) -> Vec<Call> {
        let threads = rayon::current_num_threads() as u64;
        if threads <= 1 || self.n < PARALLEL_FLOOR {
            return self.generate_serial();
        }
        let chunk = self.n.div_ceil(threads * 4).max(1);
        let ranges: Vec<(u64, u64)> = (0..self.n)
            .step_by(chunk as usize)
            .map(|lo| (lo, (lo + chunk).min(self.n)))
            .collect();
        let parts: Vec<Vec<Call>> = ranges
            .par_iter()
            .map(|&(lo, hi)| self.iter_chunk(lo, hi).collect())
            .collect();
        let mut out = Vec::with_capacity(self.n as usize);
        for part in parts {
            out.extend(part);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalogue() -> Catalogue {
        Catalogue::sebs()
    }

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            arrival: ArrivalSpec::Uniform { count: 660 },
            mix: MixSpec::Equal,
            weights: WeightSpec::Uniform,
            window: SimDuration::from_secs(60),
        }
    }

    #[test]
    fn permutation_is_a_bijection() {
        for n in [1u64, 2, 7, 64, 100, 1023] {
            let p = IndexPermutation::new(n, 0xABCD ^ n);
            let mut seen = vec![false; n as usize];
            for i in 0..n {
                let j = p.permute(i);
                assert!(j < n, "image in range");
                assert!(!seen[j as usize], "injective at {i}");
                seen[j as usize] = true;
            }
        }
    }

    #[test]
    fn permutation_depends_on_key() {
        let a = IndexPermutation::new(1000, 1);
        let b = IndexPermutation::new(1000, 2);
        let moved = (0..1000).filter(|&i| a.permute(i) != b.permute(i)).count();
        assert!(moved > 900, "keys decorrelate ({moved} moved)");
    }

    #[test]
    fn sharded_calls_are_pure_in_index() {
        let g = ShardedGenerator::new(&spec(), &catalogue(), SimTime::from_secs(10), 42);
        let a = g.call(17);
        let b = g.call(17);
        assert_eq!(a, b);
        let g2 = ShardedGenerator::new(&spec(), &catalogue(), SimTime::from_secs(10), 42);
        assert_eq!(g2.call(17), a);
    }

    #[test]
    fn parallel_equals_serial() {
        // One burst below the serial floor, one above it that splits.
        let mut above = spec();
        above.arrival = ArrivalSpec::Uniform {
            count: PARALLEL_FLOOR as usize + 1,
        };
        for spec in [spec(), above] {
            let g = ShardedGenerator::new(&spec, &catalogue(), SimTime::ZERO, 7);
            assert_eq!(g.generate_parallel(), g.generate_serial());
        }
    }

    #[test]
    fn strides_partition_the_call_set() {
        let g = ShardedGenerator::new(&spec(), &catalogue(), SimTime::ZERO, 8);
        let mut union: Vec<Call> = (0..4u64).flat_map(|s| g.iter_stride(s, 4)).collect();
        union.sort_by_key(|c| c.id);
        assert_eq!(union, g.generate_serial());
    }

    #[test]
    fn sharded_equal_split_is_exact() {
        let g = ShardedGenerator::new(&spec(), &catalogue(), SimTime::ZERO, 9);
        let mut counts = [0usize; 11];
        for c in g.iter_chunk(0, g.len()) {
            counts[c.func.index()] += 1;
        }
        assert!(counts.iter().all(|&c| c == 60), "{counts:?}");
    }

    #[test]
    fn sharded_times_inside_window() {
        let g = ShardedGenerator::new(&spec(), &catalogue(), SimTime::from_secs(137), 10);
        let end = SimTime::from_secs(137 + 60);
        for c in g.iter_chunk(0, g.len()) {
            assert!(c.release >= SimTime::from_secs(137) && c.release < end);
        }
    }

    #[test]
    fn generate_sorted_is_sorted_with_dense_ids() {
        let cat = catalogue();
        let mut root = Xoshiro256::seed_from_u64(3);
        let mut t = root.derive_stream(1);
        let mut a = root.derive_stream(2);
        let calls = spec().generate_sorted(&cat, SimTime::from_secs(5), &mut t, &mut a, 100);
        assert_eq!(calls.len(), 660);
        for (i, w) in calls.windows(2).enumerate() {
            assert!(w[0].release <= w[1].release, "sorted at {i}");
        }
        assert_eq!(calls[0].id, CallId(100));
        assert_eq!(calls.last().unwrap().id, CallId(100 + 659));
    }

    #[test]
    fn weights_do_not_perturb_generation() {
        // The weight axis is simulation-only: the same seed produces the
        // same call sequence whatever the weight model says.
        let mut weighted = spec();
        weighted.weights = WeightSpec::paper_tiers();
        let a = ShardedGenerator::new(&spec(), &catalogue(), SimTime::ZERO, 5).generate_serial();
        let b = ShardedGenerator::new(&weighted, &catalogue(), SimTime::ZERO, 5).generate_serial();
        assert_eq!(a, b);
        let mut root = Xoshiro256::seed_from_u64(5);
        let mut t1 = root.derive_stream(1);
        let mut a1 = root.derive_stream(2);
        let sorted_plain = spec().generate_sorted(&catalogue(), SimTime::ZERO, &mut t1, &mut a1, 0);
        let mut root = Xoshiro256::seed_from_u64(5);
        let mut t2 = root.derive_stream(1);
        let mut a2 = root.derive_stream(2);
        let sorted_weighted =
            weighted.generate_sorted(&catalogue(), SimTime::ZERO, &mut t2, &mut a2, 0);
        assert_eq!(sorted_plain, sorted_weighted);
    }

    #[test]
    fn zipf_sharded_generation_works() {
        let s = WorkloadSpec {
            arrival: ArrivalSpec::Poisson { rate: 11.0 },
            mix: MixSpec::Zipf { s: 1.2 },
            weights: WeightSpec::ZipfCorrelated { s: 1.0 },
            window: SimDuration::from_secs(60),
        };
        let g = ShardedGenerator::new(&s, &catalogue(), SimTime::ZERO, 11);
        assert!(g.len() > 400, "rate 11/s over 60s ~ 660 calls");
        let calls = g.generate_parallel();
        assert_eq!(calls.len() as u64, g.len());
    }
}
