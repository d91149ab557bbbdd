//! DRF invariant suites for the multi-resource dominant-share kernel.
//!
//! Three angles:
//!
//! * **Sharing incentive** — no unfinished task's rate falls below
//!   `min(its cap, its weighted share of the tightest axis)`: splitting
//!   the cluster per-weight could never give a task more than
//!   `w_i · C_k / Σw` on any axis it demands, so the dominant-share
//!   water-filling never leaves a task worse off than the static split.
//! * **Pareto efficiency** — whenever some unfinished task is below its
//!   rate cap, at least one resource axis is exactly saturated (the
//!   binding axis of the water level); if every task is capped, each runs
//!   at its cap. Either way no rate can be raised without lowering
//!   another.
//! * **Differential volume** — a 520-seed multi-resource churn sweep
//!   (memory-bandwidth capacity churn included) pinning every observable
//!   of the dominant-share kernel to the per-axis reference integrator,
//!   plus a shrink-friendly proptest over DRF op sequences.

use faas_cpu::schedule::{run_drf_differential_schedule, ChurnOp, DifferentialPair, SignaturePool};
use faas_cpu::{GpsCpu, GpsParams, Resource, ResourceVector};
use faas_simcore::time::SimTime;
use proptest::prelude::*;

const WEIGHTS: [f64; 6] = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0];
const CAPS: [f64; 5] = [0.25, 0.5, 1.0, 2.0, 1e6];
const MEMS: [f64; 6] = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0];

fn bank(cores: f64, mem: f64) -> GpsCpu {
    let mut cpu = GpsCpu::new(GpsParams {
        cores,
        // κ = 0 keeps the effective CPU capacity at `cores` exactly, so
        // the invariants below are spec-level arithmetic.
        ctx_switch_penalty: 0.0,
        penalty_cap: 100.0,
    });
    cpu.set_resource_capacity(SimTime::ZERO, Resource::Mem, mem);
    cpu
}

/// Populate a bank from lattice indices; returns per-task
/// `(id, weight, max_rate, profile)` with `max_rate` already in dominant
/// units. Work is huge so nothing finishes and rates are inspected at t=0.
fn populate(
    cpu: &mut GpsCpu,
    tasks: &[(usize, usize, usize)],
) -> Vec<(faas_cpu::TaskId, f64, f64, [f64; 2])> {
    tasks
        .iter()
        .map(|&(wi, ci, mi)| {
            let w = WEIGHTS[wi];
            let v = ResourceVector::per_cpu(MEMS[mi]);
            let cap = CAPS[ci] * v.dominant_per_cpu();
            let id = cpu.add_task_demand(SimTime::ZERO, 1e9, w, cap, v);
            (id, w, cap, v.profile())
        })
        .collect()
}

proptest! {
    /// Sharing incentive: every task's dominant-unit rate is at least
    /// `min(max_rate_i, w_i · min_k C_k / Σw)`. The water level satisfies
    /// λ ≥ C_b / Σw on the binding axis b (the capped tasks' ratios are
    /// ≤ λ, so C_b = λ·W_b + K_b ≤ λ·Σw), and C_b ≥ min_k C_k; uncapped
    /// tasks run at w_i·λ and capped ones at their cap.
    #[test]
    fn sharing_incentive_holds_under_dominant_share_allocation(
        cores in 1u32..9,
        mem_deci in 5u64..100,
        tasks in prop::collection::vec((0usize..6, 0usize..5, 0usize..6), 2..24),
    ) {
        let cores = cores as f64;
        let mem = mem_deci as f64 / 10.0;
        let mut cpu = bank(cores, mem);
        let placed = populate(&mut cpu, &tasks);
        let total_w: f64 = placed.iter().map(|p| p.1).sum();
        let tightest = cores.min(mem);
        for &(id, w, cap, _) in &placed {
            let floor = cap.min(w * tightest / total_w);
            let rate = cpu.current_rate(id);
            prop_assert!(
                rate >= floor - 1e-6 * floor.max(1.0),
                "task below its weighted split: rate={rate} floor={floor} (w={w}, cap={cap})"
            );
        }
    }

    /// Pareto efficiency: unless every unfinished task is pinned at its
    /// own rate cap, the binding axis is exactly saturated — no spare
    /// capacity exists on every axis a rate increase would consume.
    #[test]
    fn pareto_efficiency_saturates_the_binding_axis(
        cores in 1u32..9,
        mem_deci in 5u64..100,
        tasks in prop::collection::vec((0usize..6, 0usize..5, 0usize..6), 2..24),
    ) {
        let cores = cores as f64;
        let mem = mem_deci as f64 / 10.0;
        let mut cpu = bank(cores, mem);
        let placed = populate(&mut cpu, &tasks);
        let all_capped = placed
            .iter()
            .all(|&(id, _, cap, _)| cpu.current_rate(id) >= cap - 1e-6 * cap.max(1.0));
        if !all_capped {
            let used_cpu = cpu.resource_consumption(Resource::Cpu);
            let used_mem = cpu.resource_consumption(Resource::Mem);
            let cpu_sat = used_cpu >= cores - 1e-6 * cores;
            let mem_sat = used_mem >= mem - 1e-6 * mem;
            prop_assert!(
                cpu_sat || mem_sat,
                "uncapped demand left every axis slack: cpu {used_cpu}/{cores}, mem {used_mem}/{mem}"
            );
        }
    }

    /// Multi-resource churn op sequences (shrinking encoding): every
    /// observable matches the per-axis reference after every operation,
    /// including memory-bandwidth capacity churn.
    #[test]
    fn drf_schedules_match_reference(
        cores in 1u32..10,
        mem_deci in 5u64..80,
        pool_seed in 0u64..64,
        ops in prop::collection::vec((0u8..5, 1u64..3_000, any::<u64>()), 1..50)
    ) {
        let pool = SignaturePool::drf_weighted(pool_seed);
        let mut pair = DifferentialPair::new_with_mem(
            cores as f64,
            0.4,
            mem_deci as f64 / 10.0,
            pool.clone(),
        );
        for (kind, magnitude, pick) in ops {
            let op = match kind {
                0 | 1 => ChurnOp::Add {
                    work_ms: magnitude,
                    sig: (pick % pool.len() as u64) as u8,
                },
                2 => ChurnOp::Advance { dt_ms: magnitude % 1_000 + 1 },
                3 => ChurnOp::SetMemCapacity { mem_centi: magnitude },
                _ => if pick % 3 == 0 {
                    ChurnOp::Remove { pick }
                } else {
                    ChurnOp::CompleteNext
                },
            };
            pair.apply(op);
        }
        pair.drain();
    }
}

/// The acceptance-criteria volume: 520 seeded multi-resource churn
/// schedules — alternating the fixed mixed-demand pool and seeded
/// heterogeneous DRF pools, with memory-bandwidth churn in the op mix —
/// driven to completion under the full per-step observable comparison
/// against `gps_reference`.
#[test]
fn differential_520_drf_schedules() {
    for seed in 0..520u64 {
        let pool = if seed % 2 == 0 {
            SignaturePool::drf_weighted(seed)
        } else {
            SignaturePool::drf_mixed()
        };
        if let Err(e) = std::panic::catch_unwind(|| run_drf_differential_schedule(seed, &pool, 80))
        {
            let msg = e
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "<non-string panic>".into());
            panic!("DRF schedule seed {seed} diverged: {msg}");
        }
    }
}

/// The DRF sweep must actually exercise the memory axis: across seeds,
/// schedules reach banks whose memory axis binds the water level (the
/// level set by bandwidth, not cores).
#[test]
fn drf_schedules_bind_the_memory_axis() {
    let mut saw_mem_bound = false;
    for seed in 0..40u64 {
        let pool = SignaturePool::drf_mixed();
        let mut pair = DifferentialPair::new_with_mem(8.0, 0.0, 1.0, pool.clone());
        let mut rng = faas_simcore::rng::Xoshiro256::seed_from_u64(seed ^ 0x3E3E);
        let ops = faas_cpu::schedule::drf_schedule(&mut rng, 60, pool.len() as u8, 2_000, 800, 300);
        for op in ops {
            pair.apply(op);
            // With 8 cores and ≤3 bandwidth units, a memory-saturated
            // bank means the level came from the mem axis.
            let mem_cap = pair.opt.resource_capacity(Resource::Mem);
            let used = pair.opt.resource_consumption(Resource::Mem);
            if mem_cap.is_finite() && used >= mem_cap * (1.0 - 1e-6) {
                saw_mem_bound = true;
            }
        }
        pair.drain();
    }
    assert!(
        saw_mem_bound,
        "40 seeded DRF schedules never saturated the memory axis"
    );
}
