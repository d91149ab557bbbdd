//! Fig. 2 reproduction: cold starts as a function of memory and intensity.
//!
//! §VI: 10 CPU cores, intensities 30–120, memory pool from 2 GiB to
//! 128 GiB, comparing the original OpenWhisk container management (a)
//! against the paper's FIFO variant (b). The paper's conclusions:
//!
//! * baseline cold starts depend strongly on intensity and barely on memory;
//! * the FIFO variant's cold starts fall with memory and plateau (at ~zero)
//!   from 32 GiB, which is why the remaining experiments fix 32 GiB.

use crate::{pooled, Effort};
use faas_core::{Policy, SchedulerConfig};
use faas_invoker::{simulate_scenario, NodeConfig, NodeMode};
use faas_metrics::table::TextTable;
use faas_workload::scenario::BurstScenario;
use faas_workload::sebs::Catalogue;
use serde::{Deserialize, Serialize};

/// Memory points of Fig. 2, MiB.
pub const MEMORY_POINTS_MB: [u64; 7] = [2048, 4096, 8192, 16384, 32768, 65536, 131072];
/// Intensity series of Fig. 2.
pub const INTENSITIES: [u32; 5] = [30, 40, 60, 90, 120];

/// One measured point of Fig. 2.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Fig2Point {
    /// Memory pool, MiB.
    pub memory_mb: u64,
    /// Load intensity.
    pub intensity: u32,
    /// Mean cold starts over the seeds (baseline node).
    pub baseline_cold_starts: f64,
    /// Mean cold starts over the seeds (our FIFO node).
    pub fifo_cold_starts: f64,
}

/// The full Fig. 2 result grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig2Result {
    /// All measured points.
    pub points: Vec<Fig2Point>,
}

/// Run the Fig. 2 sweep on 10-core nodes.
pub fn run(effort: Effort) -> Fig2Result {
    let catalogue = Catalogue::sebs();
    let memories: Vec<u64> = if effort.quick {
        vec![2048, 32768, 131072]
    } else {
        MEMORY_POINTS_MB.to_vec()
    };
    let intensities: Vec<u32> = if effort.quick {
        vec![30, 120]
    } else {
        INTENSITIES.to_vec()
    };
    let cases: Vec<(u64, u32)> = memories
        .iter()
        .flat_map(|&m| intensities.iter().map(move |&v| (m, v)))
        .collect();

    // Each run counts (baseline, FIFO) measured cold starts.
    let points = pooled(
        &cases,
        effort.seed_set(),
        |&(memory_mb, intensity), seed| {
            let scenario = BurstScenario::standard(10, intensity).generate(&catalogue, seed);
            let cfg = NodeConfig::paper(10).with_memory_mb(memory_mb);
            let calls = scenario.all_calls();
            let base = faas_invoker::simulate_calls(
                &catalogue,
                &calls,
                &NodeMode::Baseline,
                &cfg,
                seed,
                0,
            );
            let fifo = simulate_scenario(
                &catalogue,
                &scenario,
                &NodeMode::Scheduled(SchedulerConfig::paper(Policy::Fifo)),
                &cfg,
                seed,
            );
            (base.measured_cold_starts(), fifo.measured_cold_starts())
        },
        |&(memory_mb, intensity), runs| {
            let mean = |pick: fn(&(usize, usize)) -> usize| {
                runs.iter().map(pick).sum::<usize>() as f64 / runs.len() as f64
            };
            Fig2Point {
                memory_mb,
                intensity,
                baseline_cold_starts: mean(|r| r.0),
                fifo_cold_starts: mean(|r| r.1),
            }
        },
    );

    Fig2Result { points }
}

/// Render both panels of Fig. 2 as tables (memory rows x intensity columns).
pub fn render(result: &Fig2Result) -> String {
    let mut memories: Vec<u64> = result.points.iter().map(|p| p.memory_mb).collect();
    memories.sort_unstable();
    memories.dedup();
    let mut intensities: Vec<u32> = result.points.iter().map(|p| p.intensity).collect();
    intensities.sort_unstable();
    intensities.dedup();

    let panel = |pick: &dyn Fn(&Fig2Point) -> f64, title: &str| -> String {
        let mut header = vec!["memory".to_string()];
        header.extend(intensities.iter().map(|v| format!("int {v}")));
        let mut t = TextTable::new(header);
        for &m in &memories {
            let mut row = vec![format!("{} MiB", m)];
            for &v in &intensities {
                let p = result
                    .points
                    .iter()
                    .find(|p| p.memory_mb == m && p.intensity == v)
                    .expect("grid point present");
                row.push(format!("{:.0}", pick(p)));
            }
            t.row(row);
        }
        format!("{title}\n{}", t.render())
    };

    format!(
        "{}\n{}",
        panel(
            &|p| p.baseline_cold_starts,
            "Fig. 2a: cold starts, original OpenWhisk (10 CPUs)"
        ),
        panel(
            &|p| p.fifo_cold_starts,
            "Fig. 2b: cold starts, our approach / FIFO (10 CPUs)"
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Fig2Result {
        run(Effort {
            seeds: 1,
            quick: true,
        })
    }

    #[test]
    fn fifo_plateaus_with_memory() {
        let r = quick();
        // Fig. 2b: at 32 GiB our FIFO has (almost) no cold starts; at 2 GiB
        // it thrashes.
        for &v in &[30u32, 120] {
            let small = r
                .points
                .iter()
                .find(|p| p.memory_mb == 2048 && p.intensity == v)
                .unwrap();
            let big = r
                .points
                .iter()
                .find(|p| p.memory_mb == 32768 && p.intensity == v)
                .unwrap();
            assert!(
                small.fifo_cold_starts > 50.0,
                "2 GiB must thrash at intensity {v}"
            );
            assert!(
                big.fifo_cold_starts < 20.0,
                "32 GiB must (almost) eliminate cold starts at intensity {v}, got {}",
                big.fifo_cold_starts
            );
        }
    }

    #[test]
    fn baseline_cold_starts_grow_with_intensity() {
        let r = quick();
        let at = |v: u32| {
            r.points
                .iter()
                .find(|p| p.memory_mb == 32768 && p.intensity == v)
                .unwrap()
                .baseline_cold_starts
        };
        assert!(
            at(120) > 3.0 * at(30).max(1.0),
            "baseline cold starts must grow strongly with intensity: {} vs {}",
            at(30),
            at(120)
        );
    }

    #[test]
    fn baseline_high_intensity_insensitive_to_memory() {
        // Fig. 2a: at intensity 120 over 80% of requests cold-start, nearly
        // independent of memory.
        let r = quick();
        let at = |m: u64| {
            r.points
                .iter()
                .find(|p| p.memory_mb == m && p.intensity == 120)
                .unwrap()
                .baseline_cold_starts
        };
        let lo = at(32768);
        let hi = at(131072);
        assert!(lo > 800.0, "most of 1320 requests cold-start: {lo}");
        let rel = (lo - hi).abs() / lo;
        assert!(rel < 0.35, "memory dependence should be weak: {lo} vs {hi}");
    }

    #[test]
    fn render_mentions_both_panels() {
        let s = render(&quick());
        assert!(s.contains("Fig. 2a"));
        assert!(s.contains("Fig. 2b"));
    }
}
