//! # faas-workload
//!
//! The workload substrate: the SeBS function catalogue, the pluggable
//! workload-generation subsystem, and the Gatling-style paper scenarios
//! expressed on top of it.
//!
//! ## Modules
//!
//! * [`sebs`] — the eleven SeBS benchmark functions the paper measures
//!   (Table I), each with its published idle-system latency quantiles, an
//!   I/O-vs-CPU intensity class, and a fitted log-normal service-time
//!   distribution.
//! * [`arrival`] — the arrival processes of [`arrival::ArrivalSpec`]: the
//!   paper's uniform-window burst, homogeneous Poisson, a two-state MMPP
//!   (on-off bursts) and a piecewise diurnal curve. Every process realizes
//!   a piecewise-constant [`arrival::IntensityProfile`], after which calls
//!   are conditionally i.i.d. — the property that makes generation
//!   shardable.
//! * [`mix`] — the function-popularity mixes of [`mix::MixSpec`]: the
//!   paper's exact equal split, the Fig. 5 fairness mix (exactly
//!   `rare_calls` of one long function) and Zipf popularity over the
//!   catalogue.
//! * [`weight`] — per-function container weights and rate caps (the
//!   weighted-container axis): uniform, round-robin memory tiers, and
//!   Zipf-correlated shares. Weights never consume RNG streams — they
//!   shape only the GPS simulation, not the generated calls.
//! * [`generate`] — the two generation schemes over a
//!   [`generate::WorkloadSpec`] (arrival × mix × weights × window): the
//!   serial sorted path the paper adapters use, and the counter-based
//!   [`generate::ShardedGenerator`] whose calls are pure functions of
//!   `(seed, index)` so hundreds of nodes can generate their own call
//!   streams in parallel.
//! * [`scenario`] — the paper's experiment scenarios as thin adapters over
//!   the subsystem: the uniform 60-second burst parameterised by
//!   *intensity* (§V-B: `1.1 · cores · intensity` requests), the warm-up
//!   phase (§V-A: `cores` parallel calls per function), and the skewed
//!   fairness mix of Fig. 5. Output is bit-for-bit identical to the
//!   pre-subsystem generators (pinned by `tests/regression_scenarios.rs`).
//! * [`trace`] — call/outcome record types shared by the node and cluster
//!   simulations.
//! * [`trace_source`] — the trace ingestion subsystem: the
//!   [`trace_source::TraceSource`] trait (indexable, memory-bounded access
//!   to a fixed release-ordered call log, pure in `(source, index)` so any
//!   partition of the index space reproduces the serial trace
//!   bit-for-bit), [`trace_source::RecordedTrace`] (JSONL save/load plus a
//!   `record` path capturing any [`generate::WorkloadSpec`]), and
//!   [`trace_source::WorkloadSource`] (spec-or-trace, threaded through the
//!   experiment layers).
//! * [`synth`] — an Azure-Functions-style trace synthesizer: Zipf
//!   per-function mean rates, per-function diurnal phases, MMPP bursts and
//!   correlated invocation chains, all derived lazily per index from
//!   seeded streams so a 10^8-call day is replayed without ever being
//!   materialized.
//! * [`faults`] — seeded deterministic fault injection: capacity
//!   degradation/restoration ramps, node crash/restart, per-call transient
//!   failures and the retry/timeout/backoff policy. Every draw is a pure
//!   hash of `(seed, call, attempt)` and every node timeline a pure
//!   function of `(spec, node)`, so fault scenarios reproduce bit-for-bit
//!   across runs and sharding.
//!
//! ## How the paper's §V scenarios map onto the axes
//!
//! | Paper scenario | Arrival | Mix |
//! |----------------|---------|-----|
//! | §V-B burst (Tables II–IV, Figs. 3–4) | [`ArrivalSpec::Uniform`] with `1.1·c·v` calls | [`MixSpec::Equal`] |
//! | Fig. 5 fairness | [`ArrivalSpec::Uniform`] | [`MixSpec::Fairness`] (10 × dna-visualisation) |
//! | §VIII cluster (Fig. 6, Tables V–VI) | [`ArrivalSpec::Uniform`] with the fixed total load | [`MixSpec::Equal`] |
//! | beyond the paper | [`ArrivalSpec::Poisson`], [`ArrivalSpec::Mmpp`], [`ArrivalSpec::Diurnal`] | [`MixSpec::Zipf`] |

pub mod arrival;
pub mod faults;
pub mod generate;
pub mod mix;
pub mod scenario;
pub mod sebs;
pub mod synth;
pub mod trace;
pub mod trace_source;
pub mod weight;

pub use arrival::{ArrivalSpec, IntensityProfile};
pub use faults::{
    CapacityRamp, CrashSpec, DropReason, FaultEvent, FaultKind, FaultSpec, FaultTimeline,
    RetryPolicy,
};
pub use generate::{IndexPermutation, ShardedGenerator, WorkloadSpec};
pub use mix::MixSpec;
pub use scenario::{BurstScenario, FairnessScenario, Scenario};
pub use sebs::{Catalogue, FuncId, FunctionSpec, IntensityClass};
pub use synth::{MmppBurst, SynthSpec, SyntheticTrace};
pub use trace::{Call, CallKind, CallOutcome, ColdStartKind};
pub use trace_source::{RecordedTrace, TraceSource, TraceSpec, WorkloadSource};
pub use weight::{TaskShare, WeightSpec, WeightTable};
