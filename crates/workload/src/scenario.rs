//! Experiment scenarios.
//!
//! §V-A/§V-B of the paper define the load shape precisely:
//!
//! * **Warm-up**: `c` parallel calls per function (where `c` is the number of
//!   action cores), so each function ends up with up to `c` warm containers.
//!   Warm-up calls are not measured.
//! * **Burst**: all measured requests are issued uniformly at random inside a
//!   60-second window; after the window no new requests arrive and the
//!   client waits for all responses.
//! * **Intensity** `v`: with `c` cores and 11 functions the burst holds
//!   exactly `1.1 · c · v` requests, split equally across functions
//!   (`c·v/10` calls each).
//! * **Fairness mix** (Fig. 5): 10 CPUs, intensity 90, *exactly 10*
//!   dna-visualisation calls; every other call picks uniformly at random
//!   among the remaining ten functions.

use crate::arrival::ArrivalSpec;
use crate::generate::WorkloadSpec;
use crate::mix::MixSpec;
use crate::sebs::{Catalogue, FuncId};
use crate::trace::{Call, CallId, CallKind};
use crate::weight::WeightSpec;
use faas_simcore::rng::Xoshiro256;
use faas_simcore::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Spacing between per-function warm-up waves. Waves are spaced widely
/// enough that even the slowest function (dna-visualisation, ~8.6 s) plus a
/// cold start finishes before the burst, because the burst start is
/// computed from the last wave plus the warm-up gap.
pub const WARMUP_WAVE_SPACING: SimDuration = SimDuration::from_secs(12);

/// The settle gap between the last warm-up wave and the burst start.
pub const WARMUP_SETTLE_GAP: SimDuration = SimDuration::from_secs(5);

/// The shared per-function warm-up wave times and the burst start after
/// [`WARMUP_SETTLE_GAP`] — multi-node scenarios share the wave *times*
/// while each node replays every wave locally with its own `cores`
/// parallel calls.
pub fn warmup_waves(catalogue: &Catalogue) -> (Vec<(FuncId, SimTime)>, SimTime) {
    let mut waves = Vec::with_capacity(catalogue.len());
    let mut wave_start = SimTime::ZERO;
    for func in catalogue.ids() {
        waves.push((func, wave_start));
        wave_start += WARMUP_WAVE_SPACING;
    }
    (waves, wave_start + WARMUP_SETTLE_GAP)
}

/// The warm-up calls one node issues for the given wave times: `cores`
/// simultaneous calls per wave, ids `id_base..` in wave order. The single
/// place the §V-A warm-up layout is encoded — single-node scenarios and
/// the cluster engine both build from it.
pub fn warmup_calls_for_waves(waves: &[(FuncId, SimTime)], cores: u32, id_base: u64) -> Vec<Call> {
    let mut calls = Vec::with_capacity(waves.len() * cores as usize);
    let mut next_id = id_base;
    for &(func, at) in waves {
        for _ in 0..cores {
            calls.push(Call {
                id: CallId(next_id),
                func,
                release: at,
                kind: CallKind::Warmup,
            });
            next_id += 1;
        }
    }
    calls
}

/// A generated scenario: warm-up calls followed by a measured burst.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Warm-up calls, grouped in per-function waves of `c` parallel calls.
    pub warmup: Vec<Call>,
    /// Measured calls, sorted by release time.
    pub burst: Vec<Call>,
    /// Start of the measured burst window.
    pub burst_start: SimTime,
    /// Length of the burst window.
    pub burst_window: SimDuration,
}

impl Scenario {
    /// The §V-A warm-up (`cores` calls per wave, ids `0..`) followed by
    /// `spec`'s burst (ids from the warm-up's length on), generated
    /// serially on the streams `tags` of `seed`: times on `tags[0]`,
    /// function assignment on `tags[1]`. Every seeded warm-up-plus-burst
    /// scenario is built here; callers differ only in their tags.
    pub fn warmed(
        catalogue: &Catalogue,
        cores: u32,
        spec: &WorkloadSpec,
        seed: u64,
        tags: [u64; 2],
    ) -> Scenario {
        let mut root = Xoshiro256::seed_from_u64(seed);
        let mut rng_times = root.derive_stream(tags[0]);
        let mut rng_assign = root.derive_stream(tags[1]);
        let (waves, burst_start) = warmup_waves(catalogue);
        let warmup = warmup_calls_for_waves(&waves, cores, 0);
        let burst = spec.generate_sorted(
            catalogue,
            burst_start,
            &mut rng_times,
            &mut rng_assign,
            warmup.len() as u64,
        );
        Scenario {
            warmup,
            burst,
            burst_start,
            burst_window: spec.window,
        }
    }

    /// All calls (warm-up first, then burst) in release order.
    pub fn all_calls(&self) -> Vec<Call> {
        let mut calls = self.warmup.clone();
        calls.extend(self.burst.iter().copied());
        calls
    }

    /// Number of measured calls.
    pub fn measured_len(&self) -> usize {
        self.burst.len()
    }
}

/// Parameters of the uniform-burst scenario (§V-B).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurstScenario {
    /// Number of CPU cores available to action containers (`c`).
    pub cores: u32,
    /// Load intensity (`v`); the paper uses multiples of 10.
    pub intensity: u32,
    /// Length of the burst window; the paper fixes 60 s.
    pub window: SimDuration,
}

impl BurstScenario {
    /// The paper's standard configuration: a 60-second window.
    pub fn standard(cores: u32, intensity: u32) -> Self {
        BurstScenario {
            cores,
            intensity,
            window: SimDuration::from_secs(60),
        }
    }

    /// Total number of measured requests: `n_f · c · v / 10` — for the
    /// 11-function SeBS set this is the paper's `1.1 · c · v`.
    pub fn total_requests(&self, catalogue: &Catalogue) -> usize {
        catalogue.len() * self.per_function_requests()
    }

    /// Measured requests per function: `c · v / 10`.
    pub fn per_function_requests(&self) -> usize {
        (self.cores as usize) * (self.intensity as usize) / 10
    }

    /// The equivalent [`WorkloadSpec`] for the measured burst.
    pub fn workload_spec(&self, catalogue: &Catalogue) -> WorkloadSpec {
        WorkloadSpec {
            arrival: ArrivalSpec::Uniform {
                count: self.total_requests(catalogue),
            },
            mix: MixSpec::Equal,
            weights: WeightSpec::Uniform,
            window: self.window,
        }
    }

    /// Generate the scenario with a given seed.
    ///
    /// A thin adapter over the workload subsystem: the warm-up phase issues
    /// `cores` parallel calls per function, one function at a time
    /// (matching §V-A), and the burst starts [`WARMUP_SETTLE_GAP`] after
    /// the last wave; the burst is the uniform-arrival/equal-split
    /// [`WorkloadSpec`] on the same seeded streams the pre-subsystem
    /// generator used, so the output is bit-for-bit identical (pinned by
    /// `tests/regression_scenarios.rs`). Five seeds give the paper's "5
    /// different random sequences of calls".
    pub fn generate(&self, catalogue: &Catalogue, seed: u64) -> Scenario {
        let spec = self.workload_spec(catalogue);
        Scenario::warmed(catalogue, self.cores, &spec, seed, [0x7131, 0x7132])
    }
}

/// Parameters of the fairness scenario of Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FairnessScenario {
    /// Number of CPU cores (`c`); the paper uses 10.
    pub cores: u32,
    /// Load intensity; the paper uses 90.
    pub intensity: u32,
    /// Exact number of calls of the rare long function; the paper uses 10.
    pub rare_calls: usize,
    /// Name of the rare long function; the paper uses dna-visualisation.
    pub rare_function: &'static str,
    /// Burst window.
    pub window: SimDuration,
}

impl FairnessScenario {
    /// The configuration of Fig. 5.
    pub fn paper() -> Self {
        FairnessScenario {
            cores: 10,
            intensity: 90,
            rare_calls: 10,
            rare_function: "dna-visualisation",
            window: SimDuration::from_secs(60),
        }
    }

    /// The equivalent [`WorkloadSpec`] for the measured burst.
    pub fn workload_spec(&self, catalogue: &Catalogue) -> WorkloadSpec {
        let total = catalogue.len() * (self.cores as usize) * (self.intensity as usize) / 10;
        WorkloadSpec {
            arrival: ArrivalSpec::Uniform { count: total },
            mix: MixSpec::Fairness {
                rare_function: self.rare_function.into(),
                rare_calls: self.rare_calls,
            },
            weights: WeightSpec::Uniform,
            window: self.window,
        }
    }

    /// Generate the scenario. Exactly `rare_calls` calls of the rare
    /// function; all other calls pick uniformly at random among the
    /// remaining functions (no partial-uniformity guarantee, matching
    /// §VII-D). A thin adapter over the workload subsystem with the
    /// warm-up of [`BurstScenario::generate`], bit-for-bit identical to the
    /// pre-subsystem generator.
    pub fn generate(&self, catalogue: &Catalogue, seed: u64) -> Scenario {
        let spec = self.workload_spec(catalogue);
        Scenario::warmed(catalogue, self.cores, &spec, seed, [0x7A01, 0x7A02])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalogue() -> Catalogue {
        Catalogue::sebs()
    }

    #[test]
    fn request_count_matches_paper_formula() {
        // §V-B example: 20 cores, intensity 30 -> 660 requests.
        let s = BurstScenario::standard(20, 30);
        assert_eq!(s.total_requests(&catalogue()), 660);
        assert_eq!(s.per_function_requests(), 60);
        // 10 cores, intensity 120 -> 1320 (Fig. 2 discussion).
        let s = BurstScenario::standard(10, 120);
        assert_eq!(s.total_requests(&catalogue()), 1320);
    }

    #[test]
    fn generated_burst_has_equal_function_split() {
        let cat = catalogue();
        let sc = BurstScenario::standard(10, 30).generate(&cat, 1);
        assert_eq!(sc.burst.len(), 330);
        for func in cat.ids() {
            let n = sc.burst.iter().filter(|c| c.func == func).count();
            assert_eq!(n, 30, "function {func:?} call count");
        }
    }

    #[test]
    fn burst_times_inside_window_and_sorted() {
        let sc = BurstScenario::standard(10, 40).generate(&catalogue(), 2);
        let end = sc.burst_start + sc.burst_window;
        let mut prev = SimTime::ZERO;
        for call in &sc.burst {
            assert!(call.release >= sc.burst_start && call.release < end);
            assert!(call.release >= prev, "burst must be sorted");
            prev = call.release;
        }
    }

    #[test]
    fn warmup_has_cores_calls_per_function() {
        let cat = catalogue();
        let sc = BurstScenario::standard(8, 30).generate(&cat, 3);
        assert_eq!(sc.warmup.len(), 8 * cat.len());
        for func in cat.ids() {
            let calls: Vec<_> = sc.warmup.iter().filter(|c| c.func == func).collect();
            assert_eq!(calls.len(), 8);
            // Calls of one wave are simultaneous (parallel warm-up).
            assert!(calls.windows(2).all(|w| w[0].release == w[1].release));
        }
    }

    #[test]
    fn warmup_strictly_precedes_burst() {
        let sc = BurstScenario::standard(10, 60).generate(&catalogue(), 4);
        let last_warm = sc.warmup.iter().map(|c| c.release).max().unwrap();
        assert!(last_warm < sc.burst_start);
        assert!(sc.burst.first().unwrap().release >= sc.burst_start);
    }

    #[test]
    fn same_seed_same_scenario() {
        let cat = catalogue();
        let a = BurstScenario::standard(10, 30).generate(&cat, 42);
        let b = BurstScenario::standard(10, 30).generate(&cat, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let cat = catalogue();
        let a = BurstScenario::standard(10, 30).generate(&cat, 1);
        let b = BurstScenario::standard(10, 30).generate(&cat, 2);
        assert_ne!(a.burst, b.burst);
    }

    #[test]
    fn call_ids_are_unique_and_dense() {
        let sc = BurstScenario::standard(5, 30).generate(&catalogue(), 5);
        let mut ids: Vec<u64> = sc.all_calls().iter().map(|c| c.id.0).collect();
        ids.sort_unstable();
        let expected: Vec<u64> = (0..ids.len() as u64).collect();
        assert_eq!(ids, expected);
    }

    #[test]
    fn fairness_has_exact_rare_count() {
        let cat = catalogue();
        let f = FairnessScenario::paper();
        let sc = f.generate(&cat, 7);
        let rare = cat.by_name("dna-visualisation").unwrap();
        let rare_count = sc.burst.iter().filter(|c| c.func == rare).count();
        assert_eq!(rare_count, 10);
        // Total is still 1.1 * c * v = 990.
        assert_eq!(sc.burst.len(), 990);
    }

    #[test]
    fn fairness_other_functions_roughly_uniform() {
        let cat = catalogue();
        let sc = FairnessScenario::paper().generate(&cat, 11);
        let rare = cat.by_name("dna-visualisation").unwrap();
        for func in cat.ids().filter(|&f| f != rare) {
            let n = sc.burst.iter().filter(|c| c.func == func).count();
            // 980 calls over 10 functions: expect 98, allow wide multinomial
            // slack.
            assert!((58..=138).contains(&n), "{func:?} got {n} calls");
        }
    }

    #[test]
    fn fairness_graph_bfs_share_matches_figure_caption() {
        // Fig. 5 caption: graph-bfs is 9.9% of all calls (98/990 expected).
        let cat = catalogue();
        let bfs = cat.by_name("graph-bfs").unwrap();
        let mut total_share = 0.0;
        let seeds = 20;
        for seed in 0..seeds {
            let sc = FairnessScenario::paper().generate(&cat, seed);
            let n = sc.burst.iter().filter(|c| c.func == bfs).count();
            total_share += n as f64 / sc.burst.len() as f64;
        }
        let share = total_share / seeds as f64;
        assert!((share - 0.099).abs() < 0.01, "share {share}");
    }

    #[test]
    fn measured_len_counts_burst_only() {
        let sc = BurstScenario::standard(5, 30).generate(&catalogue(), 1);
        assert_eq!(sc.measured_len(), sc.burst.len());
        assert!(sc.all_calls().len() > sc.measured_len());
    }
}
