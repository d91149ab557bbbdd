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
//! Every artefact fans its runs out through one crate-private helper,
//! `pooled` (or its fallible form `try_pooled`): the runs are ordered row
//! by row with the seeds innermost, all of them run in parallel on the
//! rayon pool, each yields one per-seed record, and row `i` pools the
//! `i`-th chunk of `seeds.len()` records by position, in seed order,
//! never by matching labels. The thread count therefore cannot change an
//! output: every artefact is bit-for-bit reproducible from the seed set.
//!
//! A `run_source` twin ([`table1`], [`fig5`], [`fig6`]) differs from its
//! `run` only in where the calls come from; both feed the same row
//! reducer, and the fig5 and fig6 twins fan out through `try_pooled` like
//! every other artefact. A recorded `trace:PATH` source is loaded once,
//! when its `TraceSpec` is built, and every run shares that copy; a
//! synthetic source is realized per run from the run's seed.

pub mod ablations;
pub mod custom;
pub mod fig2;
pub mod fig5;
pub mod fig6;
pub mod functions;
pub mod grid;
pub mod sweep;
pub mod table1;

use rayon::prelude::*;
use std::convert::Infallible;

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

/// Run every (row, seed) pair, seeds innermost, in parallel, and reduce
/// each row from its runs: row `i` pools the `i`-th chunk of
/// `seeds.len()` records, by position and in seed order.
pub(crate) fn pooled<R: Sync, S: Send, T>(
    rows: &[R],
    seeds: &[u64],
    run: impl Fn(&R, u64) -> S + Sync,
    reduce: impl Fn(&R, &[S]) -> T,
) -> Vec<T> {
    let Ok(rows) = try_pooled(
        rows,
        seeds,
        |r, seed| Ok::<S, Infallible>(run(r, seed)),
        reduce,
    );
    rows
}

/// [`pooled`] for fallible runs: the first error in (row, seed) order, if
/// any run fails, else the reduced rows.
pub(crate) fn try_pooled<R: Sync, S: Send, T, E: Send>(
    rows: &[R],
    seeds: &[u64],
    run: impl Fn(&R, u64) -> Result<S, E> + Sync,
    reduce: impl Fn(&R, &[S]) -> T,
) -> Result<Vec<T>, E> {
    assert!(!seeds.is_empty(), "pooling needs at least one seed");
    let tasks: Vec<(&R, u64)> = rows
        .iter()
        .flat_map(|r| seeds.iter().map(move |&seed| (r, seed)))
        .collect();
    let runs: Result<Vec<S>, E> = tasks.par_iter().map(|&(r, seed)| run(r, seed)).collect();
    let runs = runs?;
    Ok(rows
        .iter()
        .zip(runs.chunks(seeds.len()))
        .map(|(r, runs)| reduce(r, runs))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_pool_their_own_runs_by_position_in_seed_order() {
        // Rows 0 and 1 share a label, the case a match on labels would
        // pool into both rows.
        let rows = [(0, "same"), (1, "same"), (2, "other")];
        let pooled = pooled(
            &rows,
            &SEEDS[..3],
            |&(i, _), seed| i * 1000 + seed,
            |_, runs| runs.to_vec(),
        );
        assert_eq!(
            pooled,
            [[101, 202, 303], [1101, 1202, 1303], [2101, 2202, 2303]]
        );
    }

    #[test]
    fn try_pooled_returns_the_first_error_in_row_order() {
        // Rows 1 and 2 fail, row 2 on an earlier seed than row 1: the
        // error of the earlier row wins, whichever run finishes first.
        let rows = [0u64, 1, 2];
        let result = try_pooled(
            &rows,
            &SEEDS[..3],
            |&row, seed| match (row, seed) {
                (1, 303) | (2, 101) => Err(format!("row {row}, seed {seed}")),
                _ => Ok(row * seed),
            },
            |_, runs| runs.iter().sum::<u64>(),
        );
        assert_eq!(result, Err("row 1, seed 303".to_string()));
        let result = try_pooled(
            &rows,
            &SEEDS[..3],
            |&row, seed| Ok::<u64, String>(row * seed),
            |_, runs| runs.iter().sum::<u64>(),
        );
        assert_eq!(result, Ok(vec![0, 606, 1212]));
    }
}
