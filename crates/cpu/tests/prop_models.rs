//! Property tests of the processor models.

use faas_cpu::{GpsCpu, GpsParams, TaskId};
use faas_simcore::time::{SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    /// GPS with weights: rates order like weights (heavier never slower).
    #[test]
    fn gps_weighted_rates_are_monotone_in_weight(
        cores in 1u32..8,
        weights in prop::collection::vec(0.1f64..8.0, 2..20)
    ) {
        let mut cpu = GpsCpu::new(GpsParams {
            cores: cores as f64,
            ctx_switch_penalty: 0.0,
            penalty_cap: 2.0,
        });
        let ids: Vec<(TaskId, f64)> = weights
            .iter()
            .map(|&w| (cpu.add_task(SimTime::ZERO, 100.0, w, 1.0), w))
            .collect();
        let rates: Vec<(f64, f64)> = ids
            .iter()
            .map(|&(id, w)| (w, cpu.current_rate(id)))
            .collect();
        for &(wa, ra) in &rates {
            for &(wb, rb) in &rates {
                if wa > wb {
                    prop_assert!(ra >= rb - 1e-9, "weight {wa} rate {ra} vs {wb}/{rb}");
                }
            }
        }
    }

    /// Completions predicted by next_completion actually drain the task.
    #[test]
    fn predicted_completion_is_exact(
        cores in 1u32..4,
        works in prop::collection::vec(1u64..5_000, 1..20)
    ) {
        let mut cpu = GpsCpu::new(GpsParams {
            cores: cores as f64,
            ctx_switch_penalty: 0.3,
            penalty_cap: 2.0,
        });
        for &w in &works {
            cpu.add_task(SimTime::ZERO, w as f64 / 1000.0, 1.0, 1.0);
        }
        // Drain completions one by one; each predicted ETA must leave the
        // predicted task with (numerically) zero remaining work.
        let mut now = SimTime::ZERO;
        while let Some((id, at)) = cpu.next_completion(now) {
            prop_assert!(at >= now);
            now = at;
            cpu.advance(now);
            prop_assert!(cpu.remaining(id) < 1e-6, "residual {}", cpu.remaining(id));
            cpu.remove_task(now, id);
        }
        prop_assert!(cpu.is_empty());
        let total: f64 = works.iter().map(|&w| w as f64 / 1000.0).sum();
        prop_assert!((cpu.work_done() - total).abs() < 1e-5);
        let _ = SimDuration::ZERO;
    }

    /// Capacity penalty is monotone: more runnable tasks never increase
    /// effective capacity.
    #[test]
    fn effective_capacity_is_monotone(
        cores in 1.0f64..32.0,
        kappa in 0.0f64..1.0,
        cap in 1.0f64..4.0
    ) {
        let p = GpsParams { cores, ctx_switch_penalty: kappa, penalty_cap: cap };
        let mut last = f64::INFINITY;
        for n in 0..200 {
            let c = p.effective_capacity(n);
            prop_assert!(c <= last + 1e-12);
            prop_assert!(c >= cores / cap - 1e-12, "cap floor");
            last = c;
        }
    }
}
