//! The single-node experiment grid: CPU cores × intensity × strategy ×
//! 5 seeds.
//!
//! One grid run regenerates:
//!
//! * **Table III** — pooled response-time/stretch statistics per
//!   configuration (the paper pools all calls of the 5 repetitions);
//! * **Table IV** — the same statistics per repetition;
//! * **Table II** — the FIFO-to-baseline maximum-completion-time ratio
//!   ranges over the repetitions;
//! * **Figures 3 and 4** — box-plot statistics of response time and stretch
//!   (and the per-seed appendix figures 7–36).
//!
//! Crucially, for a given (cores, intensity, seed) the *same* call sequence
//! is replayed under every strategy, exactly like the paper's methodology.

use crate::{pooled, Effort};
use faas_core::{Policy, SchedulerConfig};
use faas_invoker::{simulate_scenario, NodeConfig, NodeMode};
use faas_metrics::compare::{self, Strategy};
use faas_metrics::summary::{response_times, stretches, MetricSummary, RunSummary};
use faas_metrics::table::{fmt_ratio, fmt_secs, TextTable};
use faas_simcore::stats::BoxPlot;
use faas_workload::scenario::BurstScenario;
use faas_workload::sebs::Catalogue;
use faas_workload::trace::CallOutcome;
use serde::{Deserialize, Serialize};

/// The six strategies in the paper's presentation order.
pub const STRATEGIES: [Strategy; 6] = [
    Strategy::Baseline,
    Strategy::Fifo,
    Strategy::Sept,
    Strategy::Eect,
    Strategy::Rect,
    Strategy::Fc,
];

/// Map a strategy label to the node mode that implements it.
pub fn mode_for(strategy: Strategy) -> NodeMode {
    match strategy {
        Strategy::Baseline => NodeMode::Baseline,
        Strategy::Fifo => NodeMode::Scheduled(SchedulerConfig::paper(Policy::Fifo)),
        Strategy::Sept => NodeMode::Scheduled(SchedulerConfig::paper(Policy::Sept)),
        Strategy::Eect => NodeMode::Scheduled(SchedulerConfig::paper(Policy::Eect)),
        Strategy::Rect => NodeMode::Scheduled(SchedulerConfig::paper(Policy::Rect)),
        Strategy::Fc => NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice)),
    }
}

/// Statistics of one (configuration, strategy, seed) run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SeedRun {
    /// The seed.
    pub seed: u64,
    /// Summary over the measured calls of this repetition.
    pub summary: RunSummary,
    /// Box-plot stats of response time (appendix figures).
    pub response_box: BoxPlot,
    /// Box-plot stats of stretch (appendix figures).
    pub stretch_box: BoxPlot,
    /// Measured-phase cold starts.
    pub cold_starts: usize,
    /// Measured calls generated for this repetition.
    pub calls: usize,
    /// Sim health: largest pending-queue length observed.
    pub peak_queue: usize,
    /// Sim health: largest live event-heap size observed.
    pub peak_events: usize,
}

/// All runs of one (cores, intensity, strategy) cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cell {
    /// CPU cores.
    pub cpus: u32,
    /// Load intensity.
    pub intensity: u32,
    /// Strategy.
    pub strategy: Strategy,
    /// Per-seed statistics (Table IV rows).
    pub per_seed: Vec<SeedRun>,
    /// Statistics pooled over all calls of all seeds (Table III row).
    pub pooled: RunSummary,
    /// Pooled box-plot of response times (Fig. 3).
    pub response_box: BoxPlot,
    /// Pooled box-plot of stretch (Fig. 4).
    pub stretch_box: BoxPlot,
}

/// The whole grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GridResult {
    /// All cells, ordered by (cpus, intensity, strategy order).
    pub cells: Vec<Cell>,
}

impl GridResult {
    /// Look up one cell.
    pub fn cell(&self, cpus: u32, intensity: u32, strategy: Strategy) -> Option<&Cell> {
        self.cells
            .iter()
            .find(|c| c.cpus == cpus && c.intensity == intensity && c.strategy == strategy)
    }

    /// Core counts present.
    pub fn cpu_set(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.cells.iter().map(|c| c.cpus).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Intensities present.
    pub fn intensity_set(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.cells.iter().map(|c| c.intensity).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// Core-count and intensity axes (full grid includes the appendix points).
pub fn axes(effort: Effort) -> (Vec<u32>, Vec<u32>) {
    if effort.quick {
        (vec![10], vec![30, 60])
    } else {
        (vec![5, 10, 20], vec![30, 40, 60, 90, 120])
    }
}

/// Run the grid.
///
/// One run per (cpus, intensity, seed), seeds innermost, replays the same
/// scenario under all six strategies and summarises each; cell
/// `(config, strategy)` then pools, by position and in seed order, the
/// strategy's summary from each of the config's runs.
pub fn run(effort: Effort) -> GridResult {
    let catalogue = Catalogue::sebs();
    let (cpu_axis, intensity_axis) = axes(effort);
    let configs: Vec<(u32, u32)> = cpu_axis
        .iter()
        .flat_map(|&c| intensity_axis.iter().map(move |&v| (c, v)))
        .collect();
    let cells = pooled(
        &configs,
        effort.seed_set(),
        // One (per-seed statistics, response times, stretches) triple per
        // strategy, in `STRATEGIES` order.
        |&(cpus, intensity), seed| {
            let scenario = BurstScenario::standard(cpus, intensity).generate(&catalogue, seed);
            let cfg = NodeConfig::paper(cpus);
            STRATEGIES.map(|strategy| {
                let result =
                    simulate_scenario(&catalogue, &scenario, &mode_for(strategy), &cfg, seed);
                let refs: Vec<&CallOutcome> = result.measured().collect();
                let resp = response_times(&refs);
                let stretch = stretches(&refs, &catalogue);
                let run = SeedRun {
                    seed,
                    summary: RunSummary::from_outcomes(&refs, &catalogue, scenario.burst_start),
                    response_box: BoxPlot::from_data(&resp),
                    stretch_box: BoxPlot::from_data(&stretch),
                    cold_starts: result.measured_cold_starts(),
                    calls: refs.len(),
                    peak_queue: result.peak_queue,
                    peak_events: result.peak_events,
                };
                (run, resp, stretch)
            })
        },
        |&(cpus, intensity), tasks| {
            STRATEGIES
                .iter()
                .enumerate()
                .map(move |(k, &strategy)| {
                    let runs = || tasks.iter().map(|t| &t[k]);
                    let pooled_resp: Vec<f64> = runs().flat_map(|(_, r, _)| r).copied().collect();
                    let pooled_stretch: Vec<f64> =
                        runs().flat_map(|(_, _, s)| s).copied().collect();
                    let per_seed: Vec<SeedRun> = runs().map(|(run, _, _)| run.clone()).collect();
                    let pooled = RunSummary {
                        response: MetricSummary::from_values(&pooled_resp),
                        stretch: MetricSummary::from_values(&pooled_stretch),
                        max_completion: per_seed
                            .iter()
                            .fold(0.0, |m, r| f64::max(m, r.summary.max_completion)),
                    };
                    Cell {
                        cpus,
                        intensity,
                        strategy,
                        per_seed,
                        pooled,
                        response_box: BoxPlot::from_data(&pooled_resp),
                        stretch_box: BoxPlot::from_data(&pooled_stretch),
                    }
                })
                .collect::<Vec<_>>()
        },
    );
    GridResult {
        cells: cells.into_iter().flatten().collect(),
    }
}

/// Render Table III (pooled statistics, with paper reference columns).
pub fn render_table3(grid: &GridResult) -> String {
    let mut t = TextTable::new([
        "CPUs/int/strategy",
        "R avg",
        "paper",
        "R p50",
        "paper",
        "R p95",
        "paper",
        "S avg",
        "paper",
        "max c",
        "paper",
    ]);
    for cell in &grid.cells {
        let paper = compare::table3(cell.cpus, cell.intensity, cell.strategy);
        let pick = |f: fn(&compare::Table3Row) -> f64| {
            paper.map(|r| fmt_secs(f(r))).unwrap_or_else(|| "-".into())
        };
        t.row([
            format!("{}/{}/{}", cell.cpus, cell.intensity, cell.strategy.name()),
            fmt_secs(cell.pooled.response.mean),
            pick(|r| r.r_avg),
            fmt_secs(cell.pooled.response.p50),
            pick(|r| r.r_p50),
            fmt_secs(cell.pooled.response.p95),
            pick(|r| r.r_p95),
            fmt_secs(cell.pooled.stretch.mean),
            pick(|r| r.s_avg),
            fmt_secs(cell.pooled.max_completion),
            pick(|r| r.max_c),
        ]);
    }
    format!(
        "Table III: aggregated single-node results (measured vs paper)\n{}",
        t.render()
    )
}

/// Render Table IV (per-seed statistics, with a per-run sim-health view:
/// calls generated, peak pending queue, peak live event-heap size).
pub fn render_table4(grid: &GridResult) -> String {
    let mut t = TextTable::new([
        "CPUs/int/strategy/seed",
        "R avg",
        "R p50",
        "R p75",
        "R p95",
        "R p99",
        "S avg",
        "S p50",
        "max c",
        "calls",
        "peakQ",
        "peakEv",
    ]);
    for cell in &grid.cells {
        for run in &cell.per_seed {
            t.row([
                format!(
                    "{}/{}/{}/{}",
                    cell.cpus,
                    cell.intensity,
                    cell.strategy.name(),
                    run.seed
                ),
                fmt_secs(run.summary.response.mean),
                fmt_secs(run.summary.response.p50),
                fmt_secs(run.summary.response.p75),
                fmt_secs(run.summary.response.p95),
                fmt_secs(run.summary.response.p99),
                fmt_secs(run.summary.stretch.mean),
                fmt_secs(run.summary.stretch.p50),
                fmt_secs(run.summary.max_completion),
                run.calls.to_string(),
                run.peak_queue.to_string(),
                run.peak_events.to_string(),
            ]);
        }
    }
    format!("Table IV: per-repetition results\n{}", t.render())
}

/// Render Table II: per-configuration FIFO/baseline max-completion ratio
/// ranges, next to the paper's published ranges.
pub fn render_table2(grid: &GridResult) -> String {
    let mut t = TextTable::new(["CPUs/int", "ratio lo", "ratio hi", "paper lo", "paper hi"]);
    for cpus in grid.cpu_set() {
        for intensity in grid.intensity_set() {
            let (Some(fifo), Some(base)) = (
                grid.cell(cpus, intensity, Strategy::Fifo),
                grid.cell(cpus, intensity, Strategy::Baseline),
            ) else {
                continue;
            };
            let ratios: Vec<f64> = fifo
                .per_seed
                .iter()
                .zip(&base.per_seed)
                .map(|(f, b)| f.summary.max_completion / b.summary.max_completion)
                .collect();
            let lo = ratios.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = ratios.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let paper = compare::table2(cpus, intensity);
            t.row([
                format!("{cpus}/{intensity}"),
                fmt_ratio(lo),
                fmt_ratio(hi),
                paper.map(|p| fmt_ratio(p.ratio_lo)).unwrap_or("-".into()),
                paper.map(|p| fmt_ratio(p.ratio_hi)).unwrap_or("-".into()),
            ]);
        }
    }
    format!(
        "Table II: FIFO-to-baseline maximum completion time ratios\n{}",
        t.render()
    )
}

/// Render the box-plot panels of Fig. 3 (response time) or Fig. 4 (stretch).
pub fn render_boxplots(grid: &GridResult, stretch: bool) -> String {
    let mut out = String::new();
    let (name, metric) = if stretch {
        ("Fig. 4 (stretch)", "stretch")
    } else {
        ("Fig. 3 (response time, s)", "response")
    };
    out.push_str(&format!("{name}: box-plot statistics per panel\n"));
    for cpus in grid.cpu_set() {
        for intensity in grid.intensity_set() {
            out.push_str(&format!(
                "-- {cpus} CPUs, intensity {intensity} ({metric})\n"
            ));
            let mut t = TextTable::new(["strategy", "wlo", "p25", "median", "p75", "whi", "mean"]);
            for &strategy in &STRATEGIES {
                if let Some(cell) = grid.cell(cpus, intensity, strategy) {
                    let b = if stretch {
                        cell.stretch_box
                    } else {
                        cell.response_box
                    };
                    t.row([
                        strategy.name().to_string(),
                        fmt_secs(b.whisker_lo),
                        fmt_secs(b.p25),
                        fmt_secs(b.median),
                        fmt_secs(b.p75),
                        fmt_secs(b.whisker_hi),
                        fmt_secs(b.mean),
                    ]);
                }
            }
            out.push_str(&t.render());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_grid() -> GridResult {
        run(Effort {
            seeds: 1,
            quick: true,
        })
    }

    #[test]
    fn grid_has_all_cells() {
        let g = quick_grid();
        // quick: 1 cpu count x 2 intensities x 6 strategies.
        assert_eq!(g.cells.len(), 12);
        assert!(g.cell(10, 30, Strategy::Baseline).is_some());
        assert!(g.cell(10, 60, Strategy::Fc).is_some());
    }

    #[test]
    fn sept_and_fc_beat_fifo_under_load() {
        let g = quick_grid();
        let avg = |s: Strategy| g.cell(10, 60, s).unwrap().pooled.response.mean;
        assert!(avg(Strategy::Sept) < avg(Strategy::Fifo) / 2.0);
        assert!(avg(Strategy::Fc) < avg(Strategy::Fifo) / 2.0);
    }

    #[test]
    fn stretch_improvement_exceeds_response_improvement() {
        // The paper's headline: stretch gains (x18) dwarf response gains
        // (x4) because short calls benefit most.
        let g = quick_grid();
        let cell = |s| g.cell(10, 60, s).unwrap();
        let resp_gain =
            cell(Strategy::Fifo).pooled.response.mean / cell(Strategy::Fc).pooled.response.mean;
        let stretch_gain =
            cell(Strategy::Fifo).pooled.stretch.mean / cell(Strategy::Fc).pooled.stretch.mean;
        assert!(
            stretch_gain > resp_gain,
            "stretch gain {stretch_gain:.1} vs response gain {resp_gain:.1}"
        );
    }

    #[test]
    fn renders_include_paper_references() {
        let g = quick_grid();
        let t3 = render_table3(&g);
        assert!(t3.contains("paper"));
        assert!(t3.contains("10/30/FIFO"));
        let t2 = render_table2(&g);
        assert!(t2.contains("10/30"));
        let t4 = render_table4(&g);
        assert!(t4.contains("/101")); // seed column
        assert!(t4.contains("peakQ") && t4.contains("peakEv")); // sim health
        let f3 = render_boxplots(&g, false);
        assert!(f3.contains("Fig. 3"));
        let f4 = render_boxplots(&g, true);
        assert!(f4.contains("Fig. 4"));
    }

    #[test]
    fn per_seed_carries_sim_health() {
        let g = quick_grid();
        let cell = g.cell(10, 60, Strategy::Baseline).unwrap();
        for run in &cell.per_seed {
            assert_eq!(run.calls, 660, "1.1 * 10 * 60 measured calls");
            assert!(run.peak_events > 0, "event-heap peak is tracked");
            assert!(run.peak_queue > 0, "queue peak is tracked under load");
        }
    }

    #[test]
    fn pooled_max_is_max_over_seeds() {
        let g = run(Effort {
            seeds: 2,
            quick: true,
        });
        let cell = g.cell(10, 30, Strategy::Fifo).unwrap();
        let seed_max = cell
            .per_seed
            .iter()
            .map(|r| r.summary.max_completion)
            .fold(0.0f64, f64::max);
        assert!((cell.pooled.max_completion - seed_max).abs() < 1e-9);
    }
}
