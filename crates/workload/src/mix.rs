//! Function-popularity mixes.
//!
//! The paper uses two mixes: an exact equal split across the eleven SeBS
//! functions (§V-B) and the Fig. 5 fairness mix (exactly ten calls of one
//! rare long function, the rest uniform over the others). Real FaaS
//! popularity is heavy-tailed, so [`MixSpec`] adds a Zipf mix over the
//! catalogue.
//!
//! `MixSpec::mix` realizes a spec against a catalogue and a drawn call
//! count. The realized mix supports two assignment schemes:
//!
//! * `materialize` — build the exact function multiset for `n` calls and
//!   shuffle it into release order. This is the serial, legacy-compatible
//!   path: for the paper's mixes it consumes the RNG stream exactly like
//!   the pre-subsystem generators, which keeps the scenario adapters
//!   bit-for-bit identical.
//! * `function_at` — the function of one call given its *permuted index*
//!   (see [`crate::generate::IndexPermutation`]). This is the
//!   counter-based path the sharded generator uses: any worker can compute
//!   any call's function without touching shared state, while exact-count
//!   mixes stay exact because the permutation is a bijection.

use crate::sebs::{Catalogue, FuncId};
use faas_simcore::rng::Xoshiro256;
use serde::{Deserialize, Serialize};

/// A function-popularity mix (sweep configs, JSON results).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MixSpec {
    /// The paper's equal split: call counts per function differ by at most
    /// one (exactly equal when the count divides evenly, as in every §V
    /// scenario).
    Equal,
    /// The Fig. 5 fairness mix: exactly `rare_calls` calls of one rare
    /// function; every other call picks uniformly among the remaining
    /// functions.
    Fairness {
        /// Name of the rare function (must exist in the catalogue).
        rare_function: String,
        /// Exact number of rare calls.
        rare_calls: usize,
    },
    /// Zipf popularity over the catalogue order: the function at index
    /// `r` has weight `1 / (r + 1)^s`.
    Zipf {
        /// Skew exponent (0 = uniform; SeBS-scale traces fit 0.9–1.5).
        s: f64,
    },
}

impl MixSpec {
    /// Short label for report tables (`equal`, `fairness`, `zipf1.2`).
    pub fn label(&self) -> String {
        match self {
            MixSpec::Equal => "equal".into(),
            MixSpec::Fairness { .. } => "fairness".into(),
            MixSpec::Zipf { s } => format!("zipf{s:.1}"),
        }
    }

    /// Realize the mix against a catalogue for a scenario of `n` calls.
    pub(crate) fn mix(&self, catalogue: &Catalogue, n: usize) -> Mix {
        let functions = catalogue.len();
        match self {
            MixSpec::Equal => Mix::Equal { functions },
            MixSpec::Fairness {
                rare_function,
                rare_calls,
            } => {
                let rare = catalogue
                    .by_name(rare_function)
                    .expect("rare function must exist in the catalogue");
                let others: Vec<FuncId> = catalogue.ids().filter(|&f| f != rare).collect();
                assert!(
                    !others.is_empty(),
                    "fairness mix needs at least two functions"
                );
                assert!(
                    n >= *rare_calls,
                    "total calls {n} cannot fit {rare_calls} rare calls"
                );
                Mix::Fairness {
                    rare,
                    others,
                    rare_calls: *rare_calls,
                }
            }
            MixSpec::Zipf { s } => {
                assert!(*s >= 0.0 && s.is_finite(), "zipf skew must be non-negative");
                let weights: Vec<f64> = (0..functions).map(|r| (r as f64 + 1.0).powf(-s)).collect();
                let total: f64 = weights.iter().sum();
                let mut acc = 0.0;
                let cdf = weights
                    .iter()
                    .map(|w| {
                        acc += w / total;
                        acc
                    })
                    .collect();
                Mix::Zipf { cdf }
            }
        }
    }
}

/// A [`MixSpec`] realized against a catalogue and a call count.
#[derive(Debug)]
pub(crate) enum Mix {
    /// Equal split over `functions` catalogue entries.
    Equal { functions: usize },
    /// Exactly `rare_calls` of `rare`, the rest uniform over `others`.
    Fairness {
        rare: FuncId,
        others: Vec<FuncId>,
        rare_calls: usize,
    },
    /// Cumulative Zipf probability at each function, last entry 1.
    Zipf { cdf: Vec<f64> },
}

impl Mix {
    /// The exact function multiset for `n` calls, shuffled into release
    /// order with `rng` (legacy-compatible serial path).
    pub(crate) fn materialize(&self, n: usize, rng: &mut Xoshiro256) -> Vec<FuncId> {
        let mut funcs: Vec<FuncId> = Vec::with_capacity(n);
        match self {
            &Mix::Equal { functions } => {
                for f in 0..functions {
                    let count = n / functions + usize::from(f < n % functions);
                    funcs.extend(std::iter::repeat_n(FuncId(f as u16), count));
                }
            }
            Mix::Fairness {
                rare,
                others,
                rare_calls,
            } => {
                funcs.extend(std::iter::repeat_n(*rare, *rare_calls));
                funcs.extend((*rare_calls..n).map(|_| *rng.choose(others)));
            }
            // Independent draws are already in release order.
            Mix::Zipf { cdf } => {
                funcs.extend((0..n).map(|_| zipf_draw(cdf, rng)));
                return funcs;
            }
        }
        rng.shuffle(&mut funcs);
        funcs
    }

    /// The function of the call whose permuted index is `permuted` out of
    /// `n` (counter-based sharded path). `rng` is the call's private
    /// stream; the equal split ignores it.
    pub(crate) fn function_at(&self, permuted: u64, n: u64, rng: &mut Xoshiro256) -> FuncId {
        debug_assert!(permuted < n);
        match self {
            // Balanced block assignment over the permuted index space: each
            // function owns a contiguous block of permuted positions, so
            // counts differ by at most one and the (random) permutation
            // decorrelates function from release order and node assignment.
            &Mix::Equal { functions } => {
                FuncId((permuted as u128 * functions as u128 / n as u128) as u16)
            }
            Mix::Fairness {
                rare,
                others,
                rare_calls,
            } => {
                if permuted < *rare_calls as u64 {
                    *rare
                } else {
                    *rng.choose(others)
                }
            }
            Mix::Zipf { cdf } => zipf_draw(cdf, rng),
        }
    }
}

/// One Zipf draw by inverting the cumulative distribution.
fn zipf_draw(cdf: &[f64], rng: &mut Xoshiro256) -> FuncId {
    let u = rng.next_f64();
    FuncId(cdf.partition_point(|&c| c <= u).min(cdf.len() - 1) as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zipf(s: f64, functions: usize) -> Mix {
        let cat = Catalogue::sebs();
        let ids: Vec<_> = cat.ids().take(functions).collect();
        let small = Catalogue::from_functions(ids.iter().map(|&f| cat.spec(f).clone()).collect());
        MixSpec::Zipf { s }.mix(&small, 0)
    }

    #[test]
    fn equal_split_counts_are_balanced() {
        let cat = Catalogue::sebs();
        let mut rng = Xoshiro256::seed_from_u64(1);
        let funcs = MixSpec::Equal.mix(&cat, 660).materialize(660, &mut rng);
        for f in 0..11u16 {
            assert_eq!(funcs.iter().filter(|&&x| x == FuncId(f)).count(), 60);
        }
        // Non-divisible: counts differ by at most one.
        let funcs = MixSpec::Equal.mix(&cat, 25).materialize(25, &mut rng);
        for f in 0..11u16 {
            let c = funcs.iter().filter(|&&x| x == FuncId(f)).count();
            assert!((2..=3).contains(&c), "func {f} got {c}");
        }
    }

    #[test]
    fn equal_split_function_at_is_balanced() {
        let n = 660u64;
        let mix = MixSpec::Equal.mix(&Catalogue::sebs(), n as usize);
        let mut rng = Xoshiro256::seed_from_u64(2);
        let mut counts = [0usize; 11];
        for j in 0..n {
            counts[mix.function_at(j, n, &mut rng).index()] += 1;
        }
        assert!(counts.iter().all(|&c| c == 60), "{counts:?}");
    }

    #[test]
    fn fairness_counter_scheme_keeps_rare_exact() {
        let cat = Catalogue::sebs();
        let n = 990u64;
        let mix = MixSpec::Fairness {
            rare_function: "dna-visualisation".into(),
            rare_calls: 10,
        }
        .mix(&cat, n as usize);
        let rare = cat.by_name("dna-visualisation").unwrap();
        let mut rng = Xoshiro256::seed_from_u64(3);
        let hits = (0..n)
            .filter(|&j| mix.function_at(j, n, &mut rng) == rare)
            .count();
        assert_eq!(hits, 10);
    }

    #[test]
    #[should_panic(expected = "cannot fit")]
    fn fairness_rejects_fewer_calls_than_rare_calls() {
        MixSpec::Fairness {
            rare_function: "dna-visualisation".into(),
            rare_calls: 10,
        }
        .mix(&Catalogue::sebs(), 9);
    }

    #[test]
    fn zipf_is_monotone_decreasing_in_rank() {
        let mix = zipf(1.2, 11);
        let mut rng = Xoshiro256::seed_from_u64(4);
        let mut counts = [0usize; 11];
        for f in mix.materialize(50_000, &mut rng) {
            counts[f.index()] += 1;
        }
        assert!(
            counts[0] > counts[5] && counts[5] > counts[10],
            "{counts:?}"
        );
        assert!(counts.iter().all(|&c| c > 0), "every function is hit");
    }

    #[test]
    fn zipf_zero_skew_is_uniform() {
        let mix = zipf(0.0, 4);
        let mut rng = Xoshiro256::seed_from_u64(5);
        let mut counts = [0usize; 4];
        for f in mix.materialize(40_000, &mut rng) {
            counts[f.index()] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn mix_spec_labels() {
        assert_eq!(MixSpec::Equal.label(), "equal");
        assert_eq!(
            MixSpec::Fairness {
                rare_function: "dna-visualisation".into(),
                rare_calls: 10
            }
            .label(),
            "fairness"
        );
        assert_eq!(MixSpec::Zipf { s: 1.2 }.label(), "zipf1.2");
    }

    #[test]
    #[should_panic(expected = "must exist")]
    fn unknown_rare_function_rejected() {
        MixSpec::Fairness {
            rare_function: "nope".into(),
            rare_calls: 1,
        }
        .mix(&Catalogue::sebs(), 1);
    }
}
