//! The original O(n)-per-event GPS integrator, kept as an executable
//! specification.
//!
//! This is the seed implementation of [`crate::gps::GpsCpu`] before the
//! virtual-time rewrite: `advance` depletes every slot, `compute_rates`
//! rebuilds the whole rate vector on every call, and `next_completion` /
//! `finished_tasks` scan all slots. It is semantically authoritative —
//! the optimized kernel must reproduce its completion order, completion
//! times, and `work_done` accounting — and is exercised against the
//! production kernel by the differential property tests in
//! `tests/prop_gps_diff.rs` and by the churn differential tests in
//! [`crate::bench_support`].
//!
//! Do not use this type in simulations; it exists only as a test oracle.

use crate::gps::{GpsParams, Resource, ResourceVector, TaskId, AXES, WORK_EPSILON};
use faas_simcore::time::{SimDuration, SimTime};

#[derive(Debug, Clone, Copy)]
struct Task {
    /// Remaining work in dominant-resource units.
    remaining: f64,
    /// GPS weight (OpenWhisk: proportional to the container memory limit).
    weight: f64,
    /// Upper bound on the task's service rate in dominant-resource units.
    max_rate: f64,
    /// Dominant-normalized demand profile (see
    /// [`ResourceVector::profile`]); `[1.0, 0.0]` for CPU-only tasks.
    demand: [f64; AXES],
}

/// The seed GPS processor bank: correct, allocation-light, but O(n) on
/// every `advance`/`next_completion`/`finished_tasks` call.
#[derive(Debug, Clone)]
pub struct ReferenceGpsCpu {
    params: GpsParams,
    /// Memory-bandwidth capacity; `+inf` disables the axis.
    mem_capacity: f64,
    slots: Vec<Option<Task>>,
    free_slots: Vec<u32>,
    runnable: usize,
    last_advance: SimTime,
    work_done: f64,
    rates_scratch: Vec<f64>,
}

impl ReferenceGpsCpu {
    /// Create an empty bank.
    pub fn new(params: GpsParams) -> Self {
        params.validate();
        ReferenceGpsCpu {
            params,
            mem_capacity: f64::INFINITY,
            slots: Vec::new(),
            free_slots: Vec::new(),
            runnable: 0,
            last_advance: SimTime::ZERO,
            work_done: 0.0,
            rates_scratch: Vec::new(),
        }
    }

    /// The model parameters.
    pub fn params(&self) -> GpsParams {
        self.params
    }

    /// Number of runnable tasks.
    pub fn len(&self) -> usize {
        self.runnable
    }

    /// True if no task is runnable.
    pub fn is_empty(&self) -> bool {
        self.runnable == 0
    }

    /// Total core-seconds of service delivered so far.
    pub fn work_done(&self) -> f64 {
        self.work_done
    }

    /// Instantaneous service rate of `id` under the current task set.
    pub fn current_rate(&mut self, id: TaskId) -> f64 {
        self.compute_rates();
        self.rates_scratch[id.index() as usize]
    }

    /// Remaining work of a task (after the last `advance`).
    pub fn remaining(&self, id: TaskId) -> f64 {
        self.slots[id.index() as usize]
            .as_ref()
            .expect("remaining() on dead task")
            .remaining
    }

    /// Advance the clock to `now`, depleting every task's remaining work by
    /// the service it received. Must be called with monotone timestamps.
    pub fn advance(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_advance).as_secs_f64();
        self.last_advance = self.last_advance.max(now);
        if dt <= 0.0 || self.runnable == 0 {
            return;
        }
        self.compute_rates();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if let Some(task) = slot {
                let served = self.rates_scratch[i] * dt;
                let consumed = served.min(task.remaining);
                task.remaining -= consumed;
                self.work_done += consumed;
            }
        }
    }

    /// Change the bank's core capacity at `now`. The integrator recomputes
    /// the full rate vector on every query anyway, so this is just: settle
    /// served work under the old capacity and swap the parameter.
    pub fn set_capacity(&mut self, now: SimTime, cores: f64) {
        self.advance(now);
        if cores == self.params.cores {
            return;
        }
        let params = GpsParams {
            cores,
            ..self.params
        };
        params.validate();
        self.params = params;
    }

    /// Change the capacity of an arbitrary resource axis; mirrors
    /// [`crate::gps::GpsCpu::set_resource_capacity`].
    pub fn set_resource_capacity(&mut self, now: SimTime, resource: Resource, capacity: f64) {
        match resource {
            Resource::Cpu => self.set_capacity(now, capacity),
            Resource::Mem => {
                self.advance(now);
                if capacity == self.mem_capacity {
                    return;
                }
                assert!(
                    capacity > 0.0 && !capacity.is_nan(),
                    "memory bandwidth must be positive (+inf disables the axis), got {capacity}"
                );
                self.mem_capacity = capacity;
            }
        }
    }

    /// Add a task with `work` core-seconds of demand.
    pub fn add_task(&mut self, now: SimTime, work: f64, weight: f64, max_rate: f64) -> TaskId {
        self.add_task_demand(now, work, weight, max_rate, ResourceVector::CPU_ONLY)
    }

    /// Add a task with an explicit per-resource demand profile. `work` and
    /// `max_rate` are in dominant-resource units, exactly as in
    /// [`crate::gps::GpsCpu::add_task_demand`].
    pub fn add_task_demand(
        &mut self,
        now: SimTime,
        work: f64,
        weight: f64,
        max_rate: f64,
        demand: ResourceVector,
    ) -> TaskId {
        assert!(work >= 0.0 && work.is_finite(), "invalid work {work}");
        assert!(weight > 0.0, "weight must be positive");
        assert!(max_rate > 0.0, "max_rate must be positive");
        let profile = demand.profile();
        self.advance(now);
        let task = Task {
            remaining: work,
            weight,
            max_rate,
            demand: profile,
        };
        self.runnable += 1;
        if let Some(slot) = self.free_slots.pop() {
            self.slots[slot as usize] = Some(task);
            TaskId::from_index(slot)
        } else {
            self.slots.push(Some(task));
            TaskId::from_index((self.slots.len() - 1) as u32)
        }
    }

    /// Remove a task (completed or aborted), returning its residual work.
    pub fn remove_task(&mut self, now: SimTime, id: TaskId) -> f64 {
        self.advance(now);
        let task = self.slots[id.index() as usize]
            .take()
            .expect("remove_task on dead task");
        self.free_slots.push(id.index());
        self.runnable -= 1;
        task.remaining
    }

    /// The earliest task completion strictly after `now`, as
    /// `(task, completion time)`. Ties resolve to the lowest slot index.
    pub fn next_completion(&mut self, now: SimTime) -> Option<(TaskId, SimTime)> {
        self.advance(now);
        if self.runnable == 0 {
            return None;
        }
        self.compute_rates();
        let mut best: Option<(usize, f64)> = None;
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some(task) = slot {
                let rate = self.rates_scratch[i];
                // Exhausted tasks complete "now" whatever their rate: a
                // numerically-finished task whose water-filling rate
                // underflowed to zero must not be starved out of the scan
                // while `finished_tasks` keeps reporting it (the owner's
                // completion tick would never fire).
                let eta = if task.remaining <= WORK_EPSILON {
                    0.0
                } else if rate <= 0.0 {
                    continue;
                } else {
                    task.remaining / rate
                };
                match best {
                    Some((_, b)) if eta >= b => {}
                    _ => best = Some((i, eta)),
                }
            }
        }
        best.map(|(i, eta)| {
            (
                TaskId::from_index(i as u32),
                now + SimDuration::from_secs_f64(eta),
            )
        })
    }

    /// All tasks whose remaining work is (numerically) exhausted at `now`,
    /// in slot order.
    pub fn finished_tasks(&mut self, now: SimTime) -> Vec<TaskId> {
        self.advance(now);
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s {
                Some(task) if task.remaining <= WORK_EPSILON => Some(TaskId::from_index(i as u32)),
                _ => None,
            })
            .collect()
    }

    /// Water-filling rate computation into `rates_scratch`.
    fn compute_rates(&mut self) {
        self.rates_scratch.clear();
        self.rates_scratch.resize(self.slots.len(), 0.0);
        if self.runnable == 0 {
            return;
        }
        let cap = self.params.effective_capacity(self.runnable);

        // Fast path: uniform weights, max_rates, and demand profiles. The
        // common rate is bounded by every axis the profile touches; axes
        // with zero demand are skipped so the CPU-only case divides by
        // exactly `runnable`, as the scalar integrator did.
        let mut uniform = true;
        let mut first: Option<Task> = None;
        for slot in self.slots.iter().flatten() {
            match first {
                None => first = Some(*slot),
                Some(f) => {
                    if f.weight != slot.weight
                        || f.max_rate != slot.max_rate
                        || f.demand != slot.demand
                    {
                        uniform = false;
                        break;
                    }
                }
            }
        }
        if uniform {
            let f = first.expect("runnable > 0 implies a task exists");
            let mut rate = f.max_rate;
            if f.demand[0] > 0.0 {
                rate = rate.min(cap / (self.runnable as f64 * f.demand[0]));
            }
            if f.demand[1] > 0.0 {
                rate = rate.min(self.mem_capacity / (self.runnable as f64 * f.demand[1]));
            }
            for (i, slot) in self.slots.iter().enumerate() {
                if slot.is_some() {
                    self.rates_scratch[i] = rate;
                }
            }
            return;
        }

        // General water-filling, per resource axis: tasks whose fair share
        // exceeds their cap are pinned at the cap and the surplus
        // redistributed. The shared level is the minimum over axes of
        // (remaining capacity) / (total demand-weighted weight); an axis
        // nobody demands never binds. With CPU-only profiles this reduces
        // bit-for-bit to the scalar loop: axis 0 multiplies by 1.0
        // everywhere and axis 1 accumulates exact zeros.
        let mut active: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| i))
            .collect();
        let mut remaining = [cap, self.mem_capacity];
        while !active.is_empty() {
            let mut total_weight = [0.0f64; AXES];
            for &i in &active {
                let task = self.slots[i].as_ref().unwrap();
                for (k, &d) in task.demand.iter().enumerate() {
                    total_weight[k] += task.weight * d;
                }
            }
            let mut per_weight = f64::INFINITY;
            for k in 0..AXES {
                if total_weight[k] > 0.0 {
                    per_weight = per_weight.min(remaining[k] / total_weight[k]);
                }
            }
            let mut pinned_any = false;
            active.retain(|&i| {
                let task = self.slots[i].as_ref().unwrap();
                if task.weight * per_weight >= task.max_rate {
                    self.rates_scratch[i] = task.max_rate;
                    for (k, &d) in task.demand.iter().enumerate() {
                        remaining[k] -= task.max_rate * d;
                    }
                    pinned_any = true;
                    false
                } else {
                    true
                }
            });
            if !pinned_any {
                for &i in &active {
                    let task = self.slots[i].as_ref().unwrap();
                    self.rates_scratch[i] = task.weight * per_weight;
                }
                break;
            }
        }
    }
}
