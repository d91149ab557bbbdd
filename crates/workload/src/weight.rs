//! Per-function GPS weights and rate caps — the weighted-container axis.
//!
//! OpenWhisk gives every container a CPU share proportional to its memory
//! limit (§III of the paper), and a single-threaded function cannot exceed
//! one core however large its share. The GPS kernel in `faas-cpu` models
//! both knobs per task (`weight`, `max_rate`). A [`WeightSpec`] is the
//! third workload axis alongside the arrival process and the function
//! mix: it maps every catalogue function to a [`TaskShare`], which the
//! invoker hands to the GPS bank for that function's CPU phases.
//!
//! Weights are a *deterministic* function of the catalogue — they never
//! consume RNG streams, so adding the axis leaves the generated call
//! sequences of every existing scenario bit-for-bit intact (the digest
//! regressions in `tests/regression_scenarios.rs` still pin them).
//!
//! Five models:
//!
//! * [`WeightSpec::Uniform`] — the legacy `(1, 1)` signature: every GPS
//!   task falls in one pin-ratio class.
//! * [`WeightSpec::Tiers`] — explicit weight/cap tiers assigned round-robin
//!   over the catalogue order, the "memory tier" picture: big-memory
//!   containers get proportionally larger shares, a throttled tier is
//!   rate-capped below one core.
//! * [`WeightSpec::ZipfCorrelated`] — weight correlated with catalogue
//!   popularity rank (`(rank + 1)^{-s}`, normalized to mean 1): popular
//!   functions, which under a Zipf mix also dominate the call volume, get
//!   the larger shares. Caps stay at one core.
//! * [`WeightSpec::PhasedWarmup`] — any base model plus distinct
//!   *warm-up* shares per CPU phase. Warm-up calls are the ones that
//!   create the containers, and a container's cgroup update lands only
//!   after creation: until then it runs at the runtime's default share.
//!   Giving the warm-up init phase (and optionally the warm-up exec
//!   phase) its own [`TaskShare`] models that cgroup-update latency
//!   instead of retroactively billing the measured function's share —
//!   see [`WarmupShares`].
//! * [`WeightSpec::ZipfMemCorrelated`] — Zipf weights plus a
//!   memory-bandwidth demand correlated with popularity, the
//!   multi-resource axis (below).
//!
//! # Per-resource demands (DRF)
//!
//! A [`TaskShare`] also carries `mem_per_cpu`: the memory-bandwidth units a
//! function consumes per unit of CPU. The invoker turns it into a
//! `faas_cpu::ResourceVector` and the GPS bank allocates by *dominant
//! share* — each task's water-filling key is its rate on whichever resource
//! axis its profile demands most, so the capped/uncapped partition
//! machinery is reused unchanged across axes (Dominant Resource Fairness on
//! top of weighted water-filling). The invariant the whole stack preserves:
//! **`mem_per_cpu == 0.0` is the degenerate single-resource profile, and
//! every schedule built only from such shares is bit-for-bit identical to
//! the pre-DRF scalar kernel** — the digest regressions in
//! `tests/regression_scenarios.rs` still pin the legacy scenarios
//! unchanged. Tier and Zipf models grow correlated CPU/mem variants
//! ([`WeightSpec::paper_tiers_mem`], [`WeightSpec::ZipfMemCorrelated`]);
//! labels render the memory axis at full precision so distinct specs never
//! alias to one sweep row.

use crate::sebs::{Catalogue, FuncId};
use crate::trace::CallKind;
use serde::{Deserialize, Serialize};

/// The GPS share of one function's containers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskShare {
    /// GPS weight (OpenWhisk: proportional to the container memory limit).
    pub weight: f64,
    /// Service-rate cap in cores (single-threaded functions cannot exceed
    /// one core).
    pub max_rate: f64,
    /// Memory-bandwidth units consumed per unit of CPU. `0.0` (the
    /// default everywhere) is the degenerate single-resource profile: the
    /// invoker places such tasks as the `ResourceVector::CPU_ONLY` demand,
    /// bit-identical to the pre-DRF kernel. Values above `1.0` make the
    /// function memory-dominant under DRF.
    pub mem_per_cpu: f64,
}

impl TaskShare {
    /// The legacy uniform signature.
    pub const UNIFORM: TaskShare = TaskShare {
        weight: 1.0,
        max_rate: 1.0,
        mem_per_cpu: 0.0,
    };

    /// True iff this is bit-for-bit the uniform signature. Introspection
    /// only — the GPS kernel detects uniformity itself from the live
    /// signature set; nothing needs to pre-certify it.
    pub fn is_uniform(&self) -> bool {
        self.weight.to_bits() == 1.0f64.to_bits()
            && self.max_rate.to_bits() == 1.0f64.to_bits()
            && self.mem_per_cpu == 0.0
    }
}

/// The CPU phase a GPS task belongs to, from the weight model's point of
/// view: cold-start initialisation runs before the container's cgroup
/// update has landed, execution after.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CallPhase {
    /// Cold-start initialisation work.
    Init,
    /// Function execution work.
    Exec,
}

/// Per-phase share overrides for *warm-up* calls. `None` falls back to
/// the measured function's share, so `WarmupShares::default()` reproduces
/// the legacy behaviour bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct WarmupShares {
    /// Share of warm-up cold-start initialisation work. The canonical
    /// cgroup-latency model sets this to [`TaskShare::UNIFORM`]: a freshly
    /// created container initialises under the runtime's default share
    /// because its cgroup update has not been applied yet.
    pub init: Option<TaskShare>,
    /// Share of warm-up execution work (after the cgroup update landed).
    pub exec: Option<TaskShare>,
}

/// Serializable description of the per-function weight model.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub enum WeightSpec {
    /// Every container identical: weight 1, cap 1 core (the paper's
    /// regime: one GPS pin-ratio class).
    #[default]
    Uniform,
    /// Explicit tiers assigned round-robin by catalogue index.
    Tiers {
        /// The tier shares, cycled over the catalogue order.
        tiers: Vec<TaskShare>,
    },
    /// Weight `(rank + 1)^{-s}` by catalogue popularity rank, normalized
    /// to mean 1; caps fixed at one core.
    ZipfCorrelated {
        /// Skew exponent (matches the rank order of
        /// [`crate::mix::MixSpec::Zipf`]).
        s: f64,
    },
    /// A base model plus per-phase warm-up share overrides (cgroup update
    /// latency modelling — see [`WarmupShares`]).
    PhasedWarmup {
        /// The model measured calls (and unset warm-up phases) use.
        base: Box<WeightSpec>,
        /// The warm-up phase overrides.
        warmup: WarmupShares,
    },
    /// Zipf weights plus a memory-bandwidth demand correlated with
    /// popularity: rank `r` gets weight `(r + 1)^{-s}` (normalized to
    /// mean 1, as [`WeightSpec::ZipfCorrelated`]) and
    /// `mem_per_cpu = mem_top · (r + 1)^{-s}` — the popular functions
    /// that dominate the call volume are also the bandwidth-hungry ones,
    /// so the memory axis saturates first under a Zipf mix. Caps stay at
    /// one core.
    ZipfMemCorrelated {
        /// Skew exponent (matches the rank order of
        /// [`crate::mix::MixSpec::Zipf`]).
        s: f64,
        /// `mem_per_cpu` of the rank-0 function; later ranks decay by the
        /// same Zipf law. `mem_top > 1.0` makes the head memory-dominant.
        mem_top: f64,
    },
}

impl WeightSpec {
    /// The standard three-tier memory picture used by the experiment
    /// sweeps: a 4x big-memory tier, a baseline tier, and a throttled tier
    /// capped at half a core.
    pub fn paper_tiers() -> WeightSpec {
        WeightSpec::Tiers {
            tiers: vec![
                TaskShare {
                    weight: 4.0,
                    max_rate: 1.0,
                    mem_per_cpu: 0.0,
                },
                TaskShare {
                    weight: 1.0,
                    max_rate: 1.0,
                    mem_per_cpu: 0.0,
                },
                TaskShare {
                    weight: 1.0,
                    max_rate: 0.5,
                    mem_per_cpu: 0.0,
                },
            ],
        }
    }

    /// The three-tier memory picture with correlated bandwidth demands:
    /// the big-memory tier is memory-dominant (2 bandwidth units per CPU
    /// unit — large containers stream large working sets), the baseline
    /// tier is balanced-but-CPU-dominant at 0.5, and the throttled tier is
    /// CPU-only. The multi-resource counterpart of
    /// [`WeightSpec::paper_tiers`] for the DRF sweeps.
    pub fn paper_tiers_mem() -> WeightSpec {
        WeightSpec::Tiers {
            tiers: vec![
                TaskShare {
                    weight: 4.0,
                    max_rate: 1.0,
                    mem_per_cpu: 2.0,
                },
                TaskShare {
                    weight: 1.0,
                    max_rate: 1.0,
                    mem_per_cpu: 0.5,
                },
                TaskShare {
                    weight: 1.0,
                    max_rate: 0.5,
                    mem_per_cpu: 0.0,
                },
            ],
        }
    }

    /// The standard tiers with the canonical cgroup-update-latency model:
    /// warm-up cold-start initialisation runs at the default uniform
    /// share (the per-function cgroup update has not landed when a fresh
    /// container initialises), warm-up execution at the function's tier
    /// share.
    pub fn paper_tiers_cgroup_lag() -> WeightSpec {
        WeightSpec::PhasedWarmup {
            base: Box::new(WeightSpec::paper_tiers()),
            warmup: WarmupShares {
                init: Some(TaskShare::UNIFORM),
                exec: None,
            },
        }
    }

    /// Short label for report tables (`w-uniform`, `w-tiers3`,
    /// `w-zipf1`, `w-tiers3+wu-i1x1`, `w-tiers3-m2x0.5x0`,
    /// `w-zipfmem1x2`). The Zipf skew, warm-up override shares and
    /// memory demands are rendered at full precision: sweep rows are
    /// grouped and looked up purely by label, so two distinct specs must
    /// never alias.
    pub fn label(&self) -> String {
        match self {
            WeightSpec::Uniform => "w-uniform".into(),
            WeightSpec::Tiers { tiers } => {
                let mut label = format!("w-tiers{}", tiers.len());
                if tiers.iter().any(|t| t.mem_per_cpu != 0.0) {
                    label.push_str("-m");
                    for (i, t) in tiers.iter().enumerate() {
                        if i > 0 {
                            label.push('x');
                        }
                        label.push_str(&format!("{}", t.mem_per_cpu));
                    }
                }
                label
            }
            WeightSpec::ZipfCorrelated { s } => format!("w-zipf{s}"),
            WeightSpec::ZipfMemCorrelated { s, mem_top } => format!("w-zipfmem{s}x{mem_top}"),
            WeightSpec::PhasedWarmup { base, warmup } => {
                let mut label = format!("{}+wu", base.label());
                if let Some(s) = warmup.init {
                    label.push_str(&format!("-i{}x{}", s.weight, s.max_rate));
                }
                if let Some(s) = warmup.exec {
                    label.push_str(&format!("-e{}x{}", s.weight, s.max_rate));
                }
                label
            }
        }
    }

    /// Realize the model against a catalogue as a dense per-function
    /// table.
    pub fn table(&self, catalogue: &Catalogue) -> WeightTable {
        if let WeightSpec::PhasedWarmup { base, warmup } = self {
            assert!(
                !matches!(**base, WeightSpec::PhasedWarmup { .. }),
                "warm-up overrides cannot nest"
            );
            for share in [&warmup.init, &warmup.exec].into_iter().flatten() {
                assert!(
                    share.weight > 0.0 && share.max_rate > 0.0,
                    "warm-up shares must be positive"
                );
            }
            let mut table = base.table(catalogue);
            table.warmup = *warmup;
            return table;
        }
        let n = catalogue.len();
        let shares = match self {
            WeightSpec::Uniform => vec![TaskShare::UNIFORM; n],
            WeightSpec::Tiers { tiers } => {
                assert!(!tiers.is_empty(), "tier list cannot be empty");
                for t in tiers {
                    assert!(
                        t.weight > 0.0 && t.max_rate > 0.0,
                        "tier weights and caps must be positive"
                    );
                    assert!(
                        t.mem_per_cpu >= 0.0 && t.mem_per_cpu.is_finite(),
                        "tier memory demand must be finite and non-negative"
                    );
                }
                (0..n).map(|i| tiers[i % tiers.len()]).collect()
            }
            WeightSpec::ZipfCorrelated { s } => zipf_shares(n, *s, 0.0),
            WeightSpec::ZipfMemCorrelated { s, mem_top } => zipf_shares(n, *s, *mem_top),
            WeightSpec::PhasedWarmup { .. } => unreachable!("handled above"),
        };
        WeightTable {
            shares,
            warmup: WarmupShares::default(),
        }
    }
}

/// Zipf-by-rank shares over `n` functions: weight `(r + 1)^{-s}`
/// normalized to mean 1, a one-core cap, and `mem_per_cpu = mem_top ·
/// (r + 1)^{-s}` (so `mem_top = 0` is CPU-only).
fn zipf_shares(n: usize, s: f64, mem_top: f64) -> Vec<TaskShare> {
    assert!(s.is_finite() && s >= 0.0, "zipf skew must be non-negative");
    assert!(
        mem_top.is_finite() && mem_top >= 0.0,
        "mem_top must be finite and non-negative"
    );
    let raw: Vec<f64> = (0..n).map(|r| (r as f64 + 1.0).powf(-s)).collect();
    let mean = raw.iter().sum::<f64>() / n as f64;
    raw.iter()
        .map(|w| TaskShare {
            weight: w / mean,
            max_rate: 1.0,
            // raw[0] is exactly 1.0, so the head function gets mem_top and
            // later ranks decay by the Zipf law.
            mem_per_cpu: mem_top * w,
        })
        .collect()
}

/// A realized weight model: one [`TaskShare`] per catalogue function,
/// plus optional per-phase warm-up overrides.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeightTable {
    shares: Vec<TaskShare>,
    warmup: WarmupShares,
}

impl WeightTable {
    /// The uniform table for a catalogue of `functions` entries.
    pub fn uniform(functions: usize) -> WeightTable {
        WeightTable {
            shares: vec![TaskShare::UNIFORM; functions],
            warmup: WarmupShares::default(),
        }
    }

    /// The share of one function's containers.
    pub fn share(&self, func: FuncId) -> TaskShare {
        self.shares[func.index()]
    }

    /// The share one CPU phase of one call enters the GPS bank with:
    /// measured calls always use the function's share; warm-up calls use
    /// the per-phase override when one is set. This is the single lookup
    /// the invoker performs per GPS task.
    pub fn phase_share(&self, func: FuncId, kind: CallKind, phase: CallPhase) -> TaskShare {
        if kind == CallKind::Warmup {
            let over = match phase {
                CallPhase::Init => self.warmup.init,
                CallPhase::Exec => self.warmup.exec,
            };
            if let Some(share) = over {
                return share;
            }
        }
        self.share(func)
    }

    /// True when every share this table can hand out carries the uniform
    /// signature (including warm-up overrides). Introspection for tests
    /// and reports; the GPS kernel groups live tasks by pin ratio, not by
    /// this table.
    pub fn is_uniform(&self) -> bool {
        self.shares.iter().all(TaskShare::is_uniform)
            && [self.warmup.init, self.warmup.exec]
                .iter()
                .flatten()
                .all(TaskShare::is_uniform)
    }

    /// Number of functions covered.
    pub fn len(&self) -> usize {
        self.shares.len()
    }

    /// True for an empty catalogue.
    pub fn is_empty(&self) -> bool {
        self.shares.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalogue() -> Catalogue {
        Catalogue::sebs()
    }

    #[test]
    fn uniform_table_is_uniform() {
        let t = WeightSpec::Uniform.table(&catalogue());
        assert!(t.is_uniform());
        assert_eq!(t.len(), catalogue().len());
        for func in catalogue().ids() {
            assert!(t.share(func).is_uniform());
        }
    }

    #[test]
    fn tiers_cycle_over_the_catalogue() {
        let spec = WeightSpec::paper_tiers();
        let t = spec.table(&catalogue());
        assert!(!t.is_uniform());
        // 11 functions over 3 tiers: index 0 and 3 share a tier.
        assert_eq!(t.share(FuncId(0)), t.share(FuncId(3)));
        assert_eq!(t.share(FuncId(1)), t.share(FuncId(4)));
        assert!((t.share(FuncId(0)).weight - 4.0).abs() < 1e-12);
        assert!((t.share(FuncId(2)).max_rate - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zipf_weights_decrease_with_rank_and_average_one() {
        let t = WeightSpec::ZipfCorrelated { s: 1.0 }.table(&catalogue());
        assert!(!t.is_uniform());
        let n = t.len();
        let mut sum = 0.0;
        for i in 0..n {
            let share = t.share(FuncId(i as u16));
            sum += share.weight;
            assert!((share.max_rate - 1.0).abs() < 1e-12, "caps stay at 1 core");
            if i > 0 {
                assert!(
                    share.weight < t.share(FuncId(i as u16 - 1)).weight,
                    "weights must decrease with rank"
                );
            }
        }
        assert!((sum / n as f64 - 1.0).abs() < 1e-12, "mean weight 1");
    }

    #[test]
    fn zipf_zero_skew_degenerates_to_uniform_weights() {
        let t = WeightSpec::ZipfCorrelated { s: 0.0 }.table(&catalogue());
        // Every weight is exactly 1.0 (and so is the cap); the table is
        // bit-for-bit uniform.
        assert!(t.is_uniform());
    }

    #[test]
    fn labels_are_stable_and_do_not_alias() {
        assert_eq!(WeightSpec::Uniform.label(), "w-uniform");
        assert_eq!(WeightSpec::paper_tiers().label(), "w-tiers3");
        assert_eq!(WeightSpec::ZipfCorrelated { s: 1.25 }.label(), "w-zipf1.25");
        assert_ne!(
            WeightSpec::ZipfCorrelated { s: 1.15 }.label(),
            WeightSpec::ZipfCorrelated { s: 1.2 }.label(),
            "close skews must not collapse to one sweep row"
        );
    }

    #[test]
    fn phased_warmup_overrides_only_warmup_phases() {
        let t = WeightSpec::paper_tiers_cgroup_lag().table(&catalogue());
        assert!(!t.is_uniform());
        let f = FuncId(0); // tier weight 4.0
                           // Measured calls always use the function's share.
        for phase in [CallPhase::Init, CallPhase::Exec] {
            let s = t.phase_share(f, CallKind::Measured, phase);
            assert!((s.weight - 4.0).abs() < 1e-12);
        }
        // Warm-up init runs pre-cgroup-update at the default share...
        let init = t.phase_share(f, CallKind::Warmup, CallPhase::Init);
        assert!(init.is_uniform(), "warm-up init at the default share");
        // ...and warm-up exec falls back to the function's share (the
        // canonical model leaves `exec` unset).
        let exec = t.phase_share(f, CallKind::Warmup, CallPhase::Exec);
        assert!((exec.weight - 4.0).abs() < 1e-12);
    }

    #[test]
    fn default_warmup_shares_reproduce_the_function_share() {
        let t = WeightSpec::paper_tiers().table(&catalogue());
        for func in catalogue().ids() {
            for kind in [CallKind::Warmup, CallKind::Measured] {
                for phase in [CallPhase::Init, CallPhase::Exec] {
                    assert_eq!(t.phase_share(func, kind, phase), t.share(func));
                }
            }
        }
    }

    #[test]
    fn phased_warmup_label_and_uniformity() {
        let spec = WeightSpec::paper_tiers_cgroup_lag();
        assert_eq!(spec.label(), "w-tiers3+wu-i1x1");
        // A uniform base with a non-uniform warm-up override is not a
        // uniform table.
        let t = WeightSpec::PhasedWarmup {
            base: Box::new(WeightSpec::Uniform),
            warmup: WarmupShares {
                init: Some(TaskShare {
                    weight: 2.0,
                    max_rate: 1.0,
                    mem_per_cpu: 0.0,
                }),
                exec: None,
            },
        }
        .table(&catalogue());
        assert!(!t.is_uniform());
        // And uniform overrides keep a uniform base uniform.
        let u = WeightSpec::PhasedWarmup {
            base: Box::new(WeightSpec::Uniform),
            warmup: WarmupShares {
                init: Some(TaskShare::UNIFORM),
                exec: Some(TaskShare::UNIFORM),
            },
        }
        .table(&catalogue());
        assert!(u.is_uniform());
    }

    #[test]
    #[should_panic(expected = "cannot nest")]
    fn nested_phased_warmup_rejected() {
        WeightSpec::PhasedWarmup {
            base: Box::new(WeightSpec::paper_tiers_cgroup_lag()),
            warmup: WarmupShares::default(),
        }
        .table(&catalogue());
    }

    #[test]
    fn mem_tiers_correlate_and_keep_legacy_shares_cpu_only() {
        let plain = WeightSpec::paper_tiers().table(&catalogue());
        for func in catalogue().ids() {
            assert_eq!(
                plain.share(func).mem_per_cpu,
                0.0,
                "legacy tiers stay CPU-only"
            );
        }
        let mem = WeightSpec::paper_tiers_mem().table(&catalogue());
        // Same weights and caps as the plain tiers; only the memory axis
        // differs, and the big-memory tier is memory-dominant.
        for func in catalogue().ids() {
            let a = plain.share(func);
            let b = mem.share(func);
            assert_eq!(a.weight, b.weight);
            assert_eq!(a.max_rate, b.max_rate);
        }
        assert!((mem.share(FuncId(0)).mem_per_cpu - 2.0).abs() < 1e-12);
        assert_eq!(
            mem.share(FuncId(2)).mem_per_cpu,
            0.0,
            "throttled tier stays CPU-only"
        );
    }

    #[test]
    fn zipf_mem_demand_decays_with_rank() {
        let t = WeightSpec::ZipfMemCorrelated {
            s: 1.0,
            mem_top: 2.0,
        }
        .table(&catalogue());
        assert!(
            (t.share(FuncId(0)).mem_per_cpu - 2.0).abs() < 1e-12,
            "head gets mem_top"
        );
        for i in 1..t.len() {
            let prev = t.share(FuncId(i as u16 - 1));
            let cur = t.share(FuncId(i as u16));
            assert!(
                cur.mem_per_cpu < prev.mem_per_cpu,
                "memory demand decays with rank"
            );
            assert!(cur.weight < prev.weight, "weights still decay with rank");
        }
    }

    #[test]
    fn mem_labels_do_not_alias() {
        assert_eq!(WeightSpec::paper_tiers().label(), "w-tiers3");
        assert_eq!(WeightSpec::paper_tiers_mem().label(), "w-tiers3-m2x0.5x0");
        assert_eq!(
            WeightSpec::ZipfMemCorrelated {
                s: 1.0,
                mem_top: 2.0
            }
            .label(),
            "w-zipfmem1x2"
        );
        assert_ne!(
            WeightSpec::ZipfMemCorrelated {
                s: 1.0,
                mem_top: 2.0
            }
            .label(),
            WeightSpec::ZipfMemCorrelated {
                s: 1.0,
                mem_top: 2.5
            }
            .label(),
            "distinct memory tops must not collapse to one sweep row"
        );
    }

    #[test]
    fn uniform_share_is_cpu_only_and_mem_share_is_not_uniform() {
        assert_eq!(TaskShare::UNIFORM.mem_per_cpu, 0.0);
        let s = TaskShare {
            weight: 1.0,
            max_rate: 1.0,
            mem_per_cpu: 0.5,
        };
        assert!(
            !s.is_uniform(),
            "a memory demand breaks the uniform signature"
        );
        assert_ne!(s.mem_per_cpu, 0.0);
    }

    #[test]
    #[should_panic(expected = "memory demand must be finite")]
    fn negative_tier_mem_rejected() {
        WeightSpec::Tiers {
            tiers: vec![TaskShare {
                weight: 1.0,
                max_rate: 1.0,
                mem_per_cpu: -1.0,
            }],
        }
        .table(&catalogue());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_tier_rejected() {
        WeightSpec::Tiers {
            tiers: vec![TaskShare {
                weight: 0.0,
                max_rate: 1.0,
                mem_per_cpu: 0.0,
            }],
        }
        .table(&catalogue());
    }
}
