//! # faas-experiments
//!
//! The experiment harness: one module per table/figure of the paper, each
//! with a `run` function producing a serialisable result and a `render`
//! function printing the reproduced rows next to the paper's published
//! values.
//!
//! | Paper artefact | Module |
//! |----------------|--------|
//! | Table I (idle-system latencies) | [`table1`] |
//! | Fig. 2 (cold starts vs memory) | [`fig2`] |
//! | Figs. 3 & 4 + Tables III & IV (+ appendix Figs. 7–36) | [`grid`] |
//! | Table II (completion-time ratios) | [`grid`] |
//! | Fig. 5 (Fair-Choice fairness) | [`fig5`] |
//! | Fig. 6 + Tables V & VI (+ appendix Figs. 37–38) | [`fig6`] |
//!
//! [`ablations`] goes beyond the paper: hyper-parameter sweeps for the
//! design choices the paper fixes by fiat. [`functions`] renders §II's
//! per-function fairness view for one grid configuration. [`sweep`]
//! crosses the workload subsystem's arrival × mix × container-weight axes
//! with the scheduling strategies — scenario diversity the paper never
//! measured — sweeps cluster sizes through the streamed multi-node
//! engine, and replays Azure-style synthetic traces through the
//! bounded-memory trace engine.
//!
//! This crate holds no timing harness: performance is measured by the
//! repository benchmark in `perfbench/` (declared by `BENCHMARK.json`),
//! whose paper-grid workload runs [`grid`]'s strategy set.
//!
//! All experiments run the 5-seed repetitions in parallel (rayon) and are
//! bit-for-bit reproducible from the seed set.
//!
//! Every artefact pools its seeds the same way: the runs are ordered row
//! by row with the seeds innermost, each run yields one per-seed record,
//! and row `i` pools the `i`-th chunk of `seeds.len()` records by
//! position, in seed order, never by matching labels. A `run_source`
//! twin ([`table1`], [`fig5`], [`fig6`]) differs from its `run` only in
//! where the calls come from; both feed the same row reducer.

pub mod ablations;
pub mod custom;
pub mod fig2;
pub mod fig5;
pub mod fig6;
pub mod functions;
pub mod grid;
pub mod sweep;
pub mod table1;

/// The seeds of the paper's "5 different random sequences of calls".
pub const SEEDS: [u64; 5] = [101, 202, 303, 404, 505];

/// Ingestion window of every trace-backed run (the `run_source` twins and
/// the sweep's trace table): small enough that a trace's resident working
/// set stays bounded, large enough to amortize the windowed drain.
pub(crate) const TRACE_CHUNK: usize = 512;

/// Reduced configuration for smoke tests: fewer seeds and the
/// cheaper corner of the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Effort {
    /// Number of seeds to run (the paper uses 5).
    pub seeds: usize,
    /// If true, restrict grids to a small representative subset.
    pub quick: bool,
}

impl Effort {
    /// Full paper-scale effort.
    pub fn full() -> Self {
        Effort {
            seeds: SEEDS.len(),
            quick: false,
        }
    }

    /// Quick effort for smoke tests.
    pub fn quick() -> Self {
        Effort {
            seeds: 2,
            quick: true,
        }
    }

    /// The seed slice to use.
    pub fn seed_set(&self) -> &'static [u64] {
        &SEEDS[..self.seeds.min(SEEDS.len())]
    }
}
