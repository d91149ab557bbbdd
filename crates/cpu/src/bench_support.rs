//! Shared churn drivers for the GPS kernel probe and differential tests.
//!
//! The interesting regime is the paper's baseline node under load: hundreds
//! of concurrent tasks on a handful of cores, with completion-driven churn
//! (every event queries the next completion, collects finishers, removes
//! them, and admits replacements). [`run_churn`] reproduces that access
//! pattern against any [`GpsKernel`]. The drivers feed the repository
//! benchmark's `cpu.gps_events_per_s` probe (`perfbench/`), and the
//! differential tests below run each of them on both the two-clock
//! [`GpsCpu`] and the [`ReferenceGpsCpu`] integrator and compare the
//! results.

use crate::gps::{GpsCpu, GpsParams, Resource, ResourceVector, TaskId};
use crate::gps_reference::ReferenceGpsCpu;
use faas_simcore::time::SimTime;

/// The kernel operations the churn driver needs; implemented by both the
/// production and the reference GPS banks.
pub trait GpsKernel {
    /// See [`GpsCpu::add_task`].
    fn add_task(&mut self, now: SimTime, work: f64, weight: f64, max_rate: f64) -> TaskId;
    /// See [`GpsCpu::remove_task`].
    fn remove_task(&mut self, now: SimTime, id: TaskId) -> f64;
    /// See [`GpsCpu::advance`].
    fn advance(&mut self, now: SimTime);
    /// See [`GpsCpu::next_completion`].
    fn next_completion(&mut self, now: SimTime) -> Option<(TaskId, SimTime)>;
    /// See [`GpsCpu::finished_tasks`].
    fn finished_tasks(&mut self, now: SimTime) -> Vec<TaskId>;
    /// See [`GpsCpu::work_done`].
    fn work_done(&self) -> f64;
    /// See [`GpsCpu::set_capacity`].
    fn set_capacity(&mut self, now: SimTime, cores: f64);
    /// See [`GpsCpu::add_task_demand`].
    fn add_task_demand(
        &mut self,
        now: SimTime,
        work: f64,
        weight: f64,
        max_rate: f64,
        demand: ResourceVector,
    ) -> TaskId;
    /// See [`GpsCpu::set_resource_capacity`].
    fn set_resource_capacity(&mut self, now: SimTime, resource: Resource, capacity: f64);
}

impl GpsKernel for GpsCpu {
    fn add_task(&mut self, now: SimTime, work: f64, weight: f64, max_rate: f64) -> TaskId {
        GpsCpu::add_task(self, now, work, weight, max_rate)
    }
    fn remove_task(&mut self, now: SimTime, id: TaskId) -> f64 {
        GpsCpu::remove_task(self, now, id)
    }
    fn advance(&mut self, now: SimTime) {
        GpsCpu::advance(self, now)
    }
    fn next_completion(&mut self, now: SimTime) -> Option<(TaskId, SimTime)> {
        GpsCpu::next_completion(self, now)
    }
    fn finished_tasks(&mut self, now: SimTime) -> Vec<TaskId> {
        GpsCpu::finished_tasks(self, now)
    }
    fn work_done(&self) -> f64 {
        GpsCpu::work_done(self)
    }
    fn set_capacity(&mut self, now: SimTime, cores: f64) {
        GpsCpu::set_capacity(self, now, cores)
    }
    fn add_task_demand(
        &mut self,
        now: SimTime,
        work: f64,
        weight: f64,
        max_rate: f64,
        demand: ResourceVector,
    ) -> TaskId {
        GpsCpu::add_task_demand(self, now, work, weight, max_rate, demand)
    }
    fn set_resource_capacity(&mut self, now: SimTime, resource: Resource, capacity: f64) {
        GpsCpu::set_resource_capacity(self, now, resource, capacity)
    }
}

impl GpsKernel for ReferenceGpsCpu {
    fn add_task(&mut self, now: SimTime, work: f64, weight: f64, max_rate: f64) -> TaskId {
        ReferenceGpsCpu::add_task(self, now, work, weight, max_rate)
    }
    fn remove_task(&mut self, now: SimTime, id: TaskId) -> f64 {
        ReferenceGpsCpu::remove_task(self, now, id)
    }
    fn advance(&mut self, now: SimTime) {
        ReferenceGpsCpu::advance(self, now)
    }
    fn next_completion(&mut self, now: SimTime) -> Option<(TaskId, SimTime)> {
        ReferenceGpsCpu::next_completion(self, now)
    }
    fn finished_tasks(&mut self, now: SimTime) -> Vec<TaskId> {
        ReferenceGpsCpu::finished_tasks(self, now)
    }
    fn work_done(&self) -> f64 {
        ReferenceGpsCpu::work_done(self)
    }
    fn set_capacity(&mut self, now: SimTime, cores: f64) {
        ReferenceGpsCpu::set_capacity(self, now, cores)
    }
    fn add_task_demand(
        &mut self,
        now: SimTime,
        work: f64,
        weight: f64,
        max_rate: f64,
        demand: ResourceVector,
    ) -> TaskId {
        ReferenceGpsCpu::add_task_demand(self, now, work, weight, max_rate, demand)
    }
    fn set_resource_capacity(&mut self, now: SimTime, resource: Resource, capacity: f64) {
        ReferenceGpsCpu::set_resource_capacity(self, now, resource, capacity)
    }
}

/// The paper's baseline-node shape: `cores` physical cores with the
/// calibrated context-switch penalty.
pub fn churn_params(cores: f64) -> GpsParams {
    GpsParams {
        cores,
        ctx_switch_penalty: 0.5,
        penalty_cap: 100.0,
    }
}

/// Completion-driven churn: keep `tasks` `(1, 1)` tasks (one pin-ratio
/// class) runnable for `completions` completion events. Every event
/// performs the same kernel calls the baseline invoker's GPS tick performs
/// (`next_completion`, `finished_tasks`, `remove_task`, `add_task` for the
/// replacement), so the measured cost is the kernel's per-event cost at
/// concurrency `tasks`.
///
/// Returns `work_done` as a checksum so callers can black-box it (and so
/// differential callers can compare the two kernels).
pub fn run_churn<K: GpsKernel>(kernel: &mut K, tasks: usize, completions: usize) -> f64 {
    run_churn_with(kernel, tasks, completions, |_| (1.0, 1.0))
}

/// The churn loop shared by the one-class and weighted drivers: identical
/// access pattern, with the `k`-th spawned task's `(weight, max_rate)`
/// supplied by `sig`. Keeping one loop keeps the one-class and weighted
/// workloads comparable.
pub fn run_churn_with<K: GpsKernel>(
    kernel: &mut K,
    tasks: usize,
    completions: usize,
    sig: impl Fn(usize) -> (f64, f64),
) -> f64 {
    let mut now = SimTime::ZERO;
    // Deterministic work pattern: spread out so completions rarely tie.
    let work = |k: usize| 0.5 + (k % 97) as f64 * 0.013;
    for k in 0..tasks {
        let (weight, max_rate) = sig(k);
        kernel.add_task(now, work(k), weight, max_rate);
    }
    let mut spawned = tasks;
    for _ in 0..completions {
        let Some((_, at)) = kernel.next_completion(now) else {
            break;
        };
        now = now.max(at);
        for id in kernel.finished_tasks(now) {
            kernel.remove_task(now, id);
            let (weight, max_rate) = sig(spawned);
            kernel.add_task(now, work(spawned), weight, max_rate);
            spawned += 1;
        }
    }
    kernel.work_done()
}

/// Weighted-container churn tiers: weight tiers crossed with rate caps,
/// spanning four distinct pin ratios (`max_rate / weight` from 0.125 to
/// 1.0) so the capped/uncapped boundary is populated on both sides and the
/// seed water-filling runs multiple pinning rounds per refresh.
pub const WEIGHTED_CHURN_SIGNATURES: [(f64, f64); 6] = [
    (1.0, 1.0),
    (2.0, 1.0),
    (4.0, 1.0),
    (1.0, 0.5),
    (2.0, 0.25),
    (8.0, 2.0),
];

/// The shape the weighted churn drivers run at: enough cores relative
/// to the task count that a sizeable fraction of the tiers is rate-capped
/// (the regime where water-filling actually iterates), with the same
/// context-switch penalty as [`churn_params`].
pub fn weighted_churn_params(tasks: usize) -> GpsParams {
    GpsParams {
        cores: (tasks as f64 * 0.75).max(1.0),
        ctx_switch_penalty: 0.5,
        penalty_cap: 100.0,
    }
}

/// Completion-driven churn over the weighted tiers: identical access
/// pattern to [`run_churn`], but every task cycles through
/// [`WEIGHTED_CHURN_SIGNATURES`], keeping the bank permanently in general
/// (heterogeneous) mode, so the differential test checks the incremental
/// partition against the O(n) reference refresh.
pub fn run_weighted_churn<K: GpsKernel>(kernel: &mut K, tasks: usize, completions: usize) -> f64 {
    run_churn_with(kernel, tasks, completions, |k| {
        WEIGHTED_CHURN_SIGNATURES[k % WEIGHTED_CHURN_SIGNATURES.len()]
    })
}

/// Capacity factors a [`run_capacity_churn`] cycle walks through: a
/// degradation ramp to a 0.4 trough and back up past nominal — the shape
/// of the fault subsystem's `CapacityRamp` events.
pub const CAPACITY_CHURN_FACTORS: [f64; 6] = [0.8, 0.6, 0.4, 0.6, 1.0, 1.4];

/// Completion-driven weighted churn with dynamic capacity: identical to
/// [`run_weighted_churn`], but every `resize_every` completion events a
/// `set_capacity` call rescales the bank through
/// [`CAPACITY_CHURN_FACTORS`] — the access pattern of the fault
/// subsystem's degradation ramps landing on a loaded baseline node. The
/// incremental kernel re-anchors its virtual clocks in O(log n) per
/// resize; the reference integrator re-deplets all `tasks` slots.
pub fn run_capacity_churn<K: GpsKernel>(
    kernel: &mut K,
    tasks: usize,
    completions: usize,
    resize_every: usize,
) -> f64 {
    let base = (tasks as f64 * 0.75).max(1.0);
    let mut now = SimTime::ZERO;
    let work = |k: usize| 0.5 + (k % 97) as f64 * 0.013;
    for k in 0..tasks {
        let (weight, max_rate) = WEIGHTED_CHURN_SIGNATURES[k % WEIGHTED_CHURN_SIGNATURES.len()];
        kernel.add_task(now, work(k), weight, max_rate);
    }
    let mut spawned = tasks;
    let mut resizes = 0usize;
    for event in 0..completions {
        let Some((_, at)) = kernel.next_completion(now) else {
            break;
        };
        now = now.max(at);
        for id in kernel.finished_tasks(now) {
            kernel.remove_task(now, id);
            let (weight, max_rate) =
                WEIGHTED_CHURN_SIGNATURES[spawned % WEIGHTED_CHURN_SIGNATURES.len()];
            kernel.add_task(now, work(spawned), weight, max_rate);
            spawned += 1;
        }
        if (event + 1) % resize_every == 0 {
            let factor = CAPACITY_CHURN_FACTORS[resizes % CAPACITY_CHURN_FACTORS.len()];
            kernel.set_capacity(now, base * factor);
            resizes += 1;
        }
    }
    kernel.work_done()
}

/// Multi-resource churn tiers: the weighted `(weight, max_rate)` tiers
/// crossed with memory-per-CPU demand ratios spanning CPU-dominant
/// (`0.0`, `0.25`) through balanced (`1.0`) to memory-dominant (`2.0`,
/// `4.0`), so a DRF churn run keeps tasks on both sides of the dominant
/// axis and the per-axis water levels compete.
pub const DRF_CHURN_SIGNATURES: [(f64, f64, f64); 6] = [
    (1.0, 1.0, 0.0),
    (2.0, 1.0, 0.5),
    (4.0, 1.0, 2.0),
    (1.0, 0.5, 1.0),
    (2.0, 0.25, 4.0),
    (8.0, 2.0, 0.25),
];

/// Memory-bandwidth capacity the DRF churn runs at: scaled to the CPU
/// capacity of [`weighted_churn_params`] so that with the
/// [`DRF_CHURN_SIGNATURES`] demand mix the memory axis genuinely binds
/// part of the pool (its aggregate demand per CPU unit exceeds this
/// ratio for the memory-dominant tiers).
pub fn drf_mem_capacity(tasks: usize) -> f64 {
    (tasks as f64 * 0.5).max(1.0)
}

/// Completion-driven churn over the multi-resource tiers: the
/// [`run_churn`] access pattern with every task carrying a
/// [`DRF_CHURN_SIGNATURES`] demand vector and a finite memory-bandwidth
/// capacity installed up front. It drives the DRF half of
/// `cpu.gps_events_per_s` and checks the incremental dominant-share
/// partition against the O(n) reference re-derivation.
pub fn run_drf_churn<K: GpsKernel>(kernel: &mut K, tasks: usize, completions: usize) -> f64 {
    let mut now = SimTime::ZERO;
    kernel.set_resource_capacity(now, Resource::Mem, drf_mem_capacity(tasks));
    let work = |k: usize| 0.5 + (k % 97) as f64 * 0.013;
    let sig = |k: usize| {
        let (weight, max_rate, mem_per_cpu) = DRF_CHURN_SIGNATURES[k % DRF_CHURN_SIGNATURES.len()];
        let demand = ResourceVector::per_cpu(mem_per_cpu);
        // Work and rate cap are in dominant-resource units, as the invoker
        // scales them (see the baseline node's share conversion).
        let scale = demand.dominant_per_cpu();
        (weight, max_rate * scale, scale, demand)
    };
    for k in 0..tasks {
        let (weight, max_rate, scale, demand) = sig(k);
        kernel.add_task_demand(now, work(k) * scale, weight, max_rate, demand);
    }
    let mut spawned = tasks;
    for _ in 0..completions {
        let Some((_, at)) = kernel.next_completion(now) else {
            break;
        };
        now = now.max(at);
        for id in kernel.finished_tasks(now) {
            kernel.remove_task(now, id);
            let (weight, max_rate, scale, demand) = sig(spawned);
            kernel.add_task_demand(now, work(spawned) * scale, weight, max_rate, demand);
            spawned += 1;
        }
    }
    kernel.work_done()
}

/// Advance/next_completion-heavy weighted churn: the same weighted
/// completion-driven loop as [`run_weighted_churn`], but with `probes`
/// intermediate `advance` + `next_completion` calls between consecutive
/// completion events (the access pattern of an owner that re-queries the
/// bank on every event — monitoring ticks, arrivals that end up queueing,
/// sibling completions on the node). Membership is unchanged between
/// probes, so the two-clock kernel answers each probe in O(1)/O(log n)
/// where the per-slot integrator re-deplets and re-scans all `tasks`
/// slots: this is the workload that measures the *end-to-end* two-clock
/// win, not just the rate-refresh win.
pub fn run_weighted_probe_churn<K: GpsKernel>(
    kernel: &mut K,
    tasks: usize,
    completions: usize,
    probes: usize,
) -> f64 {
    let mut now = SimTime::ZERO;
    let work = |k: usize| 0.5 + (k % 97) as f64 * 0.013;
    for k in 0..tasks {
        let (weight, max_rate) = WEIGHTED_CHURN_SIGNATURES[k % WEIGHTED_CHURN_SIGNATURES.len()];
        kernel.add_task(now, work(k), weight, max_rate);
    }
    let mut spawned = tasks;
    for _ in 0..completions {
        let Some((_, at)) = kernel.next_completion(now) else {
            break;
        };
        let at = at.max(now);
        // Probe strictly inside the interval: each probe advances the
        // clock and re-queries the next completion without changing
        // membership.
        let span = at.saturating_since(now).as_nanos();
        for p in 1..=probes as u64 {
            let t =
                now + faas_simcore::time::SimDuration::from_nanos(span * p / (probes as u64 + 1));
            kernel.advance(t);
            kernel.next_completion(t);
        }
        now = at;
        for id in kernel.finished_tasks(now) {
            kernel.remove_task(now, id);
            let (weight, max_rate) =
                WEIGHTED_CHURN_SIGNATURES[spawned % WEIGHTED_CHURN_SIGNATURES.len()];
            kernel.add_task(now, work(spawned), weight, max_rate);
            spawned += 1;
        }
    }
    kernel.work_done()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_matches_between_kernels() {
        let mut optimized = GpsCpu::new(churn_params(10.0));
        let mut reference = ReferenceGpsCpu::new(churn_params(10.0));
        let a = run_churn(&mut optimized, 64, 200);
        let b = run_churn(&mut reference, 64, 200);
        assert!(
            (a - b).abs() < 1e-6,
            "churn checksum diverged: optimized={a} reference={b}"
        );
    }

    #[test]
    fn weighted_churn_matches_between_kernels() {
        let params = weighted_churn_params(64);
        let mut optimized = GpsCpu::new(params);
        let mut reference = ReferenceGpsCpu::new(params);
        let a = run_weighted_churn(&mut optimized, 64, 200);
        let b = run_weighted_churn(&mut reference, 64, 200);
        assert!(
            (a - b).abs() < 1e-4,
            "weighted churn checksum diverged: optimized={a} reference={b}"
        );
    }

    #[test]
    fn weighted_probe_churn_matches_between_kernels() {
        let params = weighted_churn_params(64);
        let mut optimized = GpsCpu::new(params);
        let mut reference = ReferenceGpsCpu::new(params);
        let a = run_weighted_probe_churn(&mut optimized, 64, 120, 6);
        let b = run_weighted_probe_churn(&mut reference, 64, 120, 6);
        assert!(
            (a - b).abs() < 1e-4,
            "weighted probe churn checksum diverged: optimized={a} reference={b}"
        );
    }

    #[test]
    fn capacity_churn_matches_between_kernels() {
        let params = weighted_churn_params(64);
        let mut optimized = GpsCpu::new(params);
        let mut reference = ReferenceGpsCpu::new(params);
        let a = run_capacity_churn(&mut optimized, 64, 200, 4);
        let b = run_capacity_churn(&mut reference, 64, 200, 4);
        assert!(
            (a - b).abs() < 1e-4,
            "capacity churn checksum diverged: optimized={a} reference={b}"
        );
    }

    #[test]
    fn drf_churn_matches_between_kernels() {
        let params = weighted_churn_params(64);
        let mut optimized = GpsCpu::new(params);
        let mut reference = ReferenceGpsCpu::new(params);
        let a = run_drf_churn(&mut optimized, 64, 200);
        let b = run_drf_churn(&mut reference, 64, 200);
        assert!(
            (a - b).abs() < 1e-4,
            "DRF churn checksum diverged: optimized={a} reference={b}"
        );
    }

    #[test]
    fn drf_churn_signatures_span_both_dominant_axes() {
        // The demand mix must keep tasks on both sides of the dominant
        // axis, or the benchmark degenerates to single-resource churn.
        let cpu_dominant = DRF_CHURN_SIGNATURES
            .iter()
            .filter(|&&(_, _, m)| m < 1.0)
            .count();
        let mem_dominant = DRF_CHURN_SIGNATURES
            .iter()
            .filter(|&&(_, _, m)| m > 1.0)
            .count();
        assert!(cpu_dominant > 0 && mem_dominant > 0);
    }

    #[test]
    fn weighted_churn_populates_both_partition_sides() {
        // The benchmark shape must actually exercise the boundary: after
        // the initial fill, both sides of the partition are non-empty.
        let tasks = 120;
        let mut kernel = GpsCpu::new(weighted_churn_params(tasks));
        for k in 0..tasks {
            let (w, c) = WEIGHTED_CHURN_SIGNATURES[k % WEIGHTED_CHURN_SIGNATURES.len()];
            kernel.add_task(SimTime::ZERO, 1.0, w, c);
        }
        let (uncapped, capped) = kernel.partition_sizes();
        assert!(uncapped > 0 && capped > 0, "({uncapped}, {capped})");
    }
}
