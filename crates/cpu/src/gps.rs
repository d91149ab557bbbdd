//! Generalized processor sharing with context-switch overhead: the baseline
//! OpenWhisk CPU regime.
//!
//! # Model
//!
//! Default OpenWhisk gives each container a CPU share proportional to its
//! memory limit (soft limits) and lets the Linux scheduler time-slice the
//! containers across the cores. We model the long-run effect of CFS with
//! *generalized processor sharing* (GPS): at any instant every CPU-consuming
//! task `i` receives a service rate
//!
//! ```text
//! rate_i = min(max_rate_i, C_eff * weight_i / Σ weights)
//! ```
//!
//! subject to water-filling redistribution of capacity unused by rate-capped
//! tasks. `max_rate` is 1.0 core for a single-threaded function call —
//! OpenWhisk's soft limits let a container exceed its share, but a function
//! executing sequential Python cannot use more than one core.
//!
//! Context switching is not free. §IV-A: "If the number of concurrently
//! executed actions is greater than the number of CPU cores, then multiple
//! context switches might be performed by the OS. Such context switching can
//! have a significant negative impact on the response time." We model this
//! as a capacity loss that grows with oversubscription:
//!
//! ```text
//! C_eff = C / (1 + kappa * max(0, n - C) / C)
//! ```
//!
//! where `n` is the number of runnable tasks and `kappa` the calibrated
//! context-switch penalty. With `n <= C` there is no penalty and GPS
//! degenerates to "every task runs at full speed", matching an idle node.
//!
//! The naive integrator (deplete every slot on every `advance`, rescan every
//! slot on every `next_completion`) costs O(events × tasks), and the
//! baseline node oversubscribes hundreds of containers onto a handful of
//! cores. That integrator survives as
//! [`crate::gps_reference::ReferenceGpsCpu`], the executable specification
//! this kernel is differentially tested against.
//!
//! # Classes and the water level
//!
//! The water-filling fixed point has a threshold structure: for the current
//! capacity there is a *water level* `λ` (service per unit weight) with
//!
//! ```text
//! rate_i = min(max_rate_i, weight_i * λ)
//! ```
//!
//! and a task is **capped** (pinned at its `max_rate`) exactly when its
//! *pin ratio* `r_i = max_rate_i / weight_i` satisfies `r_i <= λ`. Tasks
//! with equal pin ratios therefore always sit on the same side of the
//! level, so the kernel partitions **classes** of equal pin ratio, not
//! tasks (Parekh & Gallager define GPS rates per class the same way). Each
//! side keeps an ordered map from pin ratio to the class's member slots,
//! plus running sums `W = Σ weight` over the uncapped side and
//! `K = Σ max_rate` over the capped side (compensated, so incremental
//! updates do not drift), from which `λ = (C_eff − K) / W`. A task joins
//! its class's side directly; a task with a new pin ratio starts on the
//! side the current level puts it. The invoker's homogeneous bank is the
//! one-class case: every add and remove is O(1) membership work.
//!
//! **Water-level monotonicity.** Moving a class in the direction its ratio
//! demands can only *raise* the level: pinning weight `w` at ratio
//! `r <= λ` yields `λ' − λ ∝ w (λ − r) >= 0`, and unpinning weight `w` at
//! ratio `r > λ` yields `λ' − λ ∝ w (r − λ) > 0`. Rebalancing after a
//! membership change is therefore two sweeps — unpin classes from the top
//! of the capped order while `r > λ`, then pin classes from the bottom of
//! the uncapped order while `r <= λ` — and neither sweep can re-enable the
//! other. A class moves whole: after each member moves, the class's ratio
//! still satisfies its side of the new level, so moving it member by member
//! and at once give the same partition.
//!
//! # The two clocks
//!
//! Between membership changes each side of the partition depletes against
//! its own clock:
//!
//! * An **uncapped** task depletes at `weight_i * λ`. The uncapped clock
//!   `U = ∫ λ dt` (service per unit weight) grows by `λ · dt` per
//!   [`GpsCpu::advance`]; a task with `rem` core-seconds left at `U = U₀`
//!   finishes at the **fixed coordinate** `U₀ + rem / weight_i`, however
//!   `λ` moves in between.
//! * A **capped** task depletes at the constant `max_rate_i`, so the real
//!   clock `R` covers it: it finishes at `R₀ + rem / max_rate_i`.
//!
//! Each side keeps its unfinished tasks in a min-heap keyed by the *freeze
//! coordinate* `finish − ε/axis` (`axis` = `weight` uncapped, `max_rate`
//! capped): the clock value at which the remaining work drops to the
//! `WORK_EPSILON` "numerically finished" threshold. Draining each heap
//! while `key <= clock` collects exactly the finished set without scanning
//! slots, and an exhausted task surfaces even when its rate is zero-ish.
//! `advance` is two clock bumps, one compensated `work_done` update from
//! the running per-side sums and the amortized drain; `next_completion`
//! compares the two heap heads (`(finish_U − U)/λ` against `finish_R − R`).
//! Ties resolve to the lowest slot, like the reference scan.
//!
//! **Epochs on class crossing.** A heap key is valid only while its task
//! stays on its side: a crossing changes the axis and the clock its
//! coordinate is expressed in. When a sweep moves a class, each member's
//! remaining work is re-derived from the old coordinate, its slot epoch is
//! bumped and a fresh key goes on the other side's heap; the stale entry is
//! discarded lazily when it surfaces. Members of classes that do not cross
//! keep their coordinates bit-for-bit. Both clocks are rebased to zero when
//! either exceeds 2^14, and whenever the bank idles.
//!
//! # Dynamic capacity and the capacity-rebase invariant
//!
//! The fault-injection layer (`faas_workload::faults`) degrades and
//! restores node capacity mid-run. [`GpsCpu::set_capacity`] is cheap
//! because **every stored completion coordinate is capacity-invariant**:
//! uncapped tasks finish at a fixed `U` coordinate (λ moves, the coordinate
//! does not) and capped tasks deplete at their constant `max_rate` on the
//! real clock. A capacity change settles work under the old capacity,
//! swaps the parameter and runs the two sweeps: exactly the classes whose
//! ratio the level crossed are re-keyed. The capacity-thrash differential
//! suite (`tests/prop_gps_faults.rs`) pins this against the reference
//! integrator.
//!
//! # Multi-resource demands and dominant-share allocation (DRF)
//!
//! Tasks may demand a second resource — memory bandwidth — alongside CPU.
//! A task's [`ResourceVector`] demand is normalized into a *profile*
//! `g = [g_cpu, g_mem]` whose **dominant** component is exactly `1.0`;
//! `work`, `weight`-shares and `max_rate` are then expressed in
//! dominant-resource units. The water filling generalizes axis-wise:
//!
//! ```text
//! W_k = Σ_uncapped weight_i · g_ik     K_k = Σ_capped max_rate_i · g_ik
//! λ_k = (C_k − K_k) / W_k             λ  = min_k λ_k
//! rate_i = min(max_rate_i, weight_i · λ)      (dominant units / sec)
//! ```
//!
//! **The dominant-share invariant:** a task is capped exactly when
//! `r_i <= λ`, with `λ` the *minimum* per-axis level — the level of the
//! binding resource. Unpinning at `r > λ` makes every per-axis level a
//! weighted average of `λ_k` and `r`, and pinning at `r <= λ` moves every
//! level away from `r`, so both sweeps still only raise the minimum level
//! and the two clocks carry over with `U` integrating it. On the binding
//! axis capacity is exactly consumed (`λ·W_b + K_b = C_b`, Pareto
//! efficiency) and `λ >= C_b / Σ w_i` (sharing incentive) — both pinned by
//! `tests/prop_gps_drf.rs`. The single-resource path is the profile
//! `[1.0, 0.0]` with the memory axis disabled (`+∞` capacity): the axis-1
//! sums stay exactly `0.0`, its level is `+∞` and drops out of the `min`.
//!
//! The structure is a pure state machine over simulated time. The owner
//! drives it with [`GpsCpu::advance`] and re-queries
//! [`GpsCpu::next_completion`] after every membership or capacity change,
//! re-arming its one completion timer there.

use faas_simcore::stats::{total_order_bits, CompensatedSum};
use faas_simcore::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

/// Identifier of a task inside a [`GpsCpu`]. Slots are recycled; a `TaskId`
/// is only meaningful until the task completes or is removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(u32);

impl TaskId {
    /// Raw slot index (for diagnostics).
    pub fn index(self) -> u32 {
        self.0
    }

    /// Construct from a raw slot index (crate-internal: the reference
    /// kernel mints ids the same way).
    pub(crate) fn from_index(index: u32) -> Self {
        TaskId(index)
    }
}

/// Tuning parameters of the shared-CPU model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpsParams {
    /// Number of physical cores available to action containers.
    pub cores: f64,
    /// Context-switch penalty `kappa`: fraction of capacity lost per unit of
    /// oversubscription (`(n - cores) / cores`).
    pub ctx_switch_penalty: f64,
    /// Upper bound on the capacity-loss divisor `1 + kappa * oversub`:
    /// context switching degrades throughput but never collapses it — the
    /// OS still schedules runnable work, just with more overhead. Without
    /// the cap, small nodes (5 cores, 128 runnable containers) would lose
    /// almost all capacity, which the paper's 5-core baseline contradicts.
    pub penalty_cap: f64,
}

impl GpsParams {
    /// Panic unless every field is well-formed: finite positive `cores`,
    /// finite non-negative `ctx_switch_penalty`, and a capacity-loss
    /// divisor cap of at least 1 (a smaller cap would *add* capacity under
    /// oversubscription). Malformed parameters would otherwise silently
    /// poison [`GpsParams::effective_capacity`] — a NaN `kappa` turns every
    /// rate into NaN and the completion heaps into garbage — so both
    /// kernels validate at construction and on every capacity change.
    pub fn validate(&self) {
        assert!(
            self.cores.is_finite() && self.cores > 0.0,
            "GPS needs positive finite capacity, got cores={}",
            self.cores
        );
        assert!(
            self.ctx_switch_penalty.is_finite() && self.ctx_switch_penalty >= 0.0,
            "context-switch penalty must be finite and non-negative, got {}",
            self.ctx_switch_penalty
        );
        assert!(
            self.penalty_cap.is_finite() && self.penalty_cap >= 1.0,
            "capacity-loss divisor cap must be finite and at least 1, got {}",
            self.penalty_cap
        );
    }

    /// Effective capacity given `n` runnable tasks.
    pub fn effective_capacity(&self, runnable: usize) -> f64 {
        let n = runnable as f64;
        if n <= self.cores || self.ctx_switch_penalty == 0.0 {
            return self.cores;
        }
        let oversub = (n - self.cores) / self.cores;
        self.cores / (1.0 + self.ctx_switch_penalty * oversub).min(self.penalty_cap)
    }
}

/// The resource axes a task may demand. [`Resource::Cpu`] is the classic
/// scalar axis; [`Resource::Mem`] is the secondary memory-bandwidth axis,
/// disabled (infinite capacity) until the owner sets it via
/// [`GpsCpu::set_resource_capacity`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// CPU cores (subject to the context-switch penalty).
    Cpu,
    /// Memory bandwidth, in arbitrary but consistent bandwidth units
    /// (no oversubscription penalty — bandwidth contention has no
    /// context-switch analogue).
    Mem,
}

impl Resource {
    /// The axis index of this resource in a demand profile.
    pub(crate) fn axis(self) -> usize {
        match self {
            Resource::Cpu => 0,
            Resource::Mem => 1,
        }
    }
}

/// Number of resource axes.
pub(crate) const AXES: usize = 2;

/// A task's demand across the resource axes. Absolute units are arbitrary
/// (only ratios matter): the kernel normalizes the vector into a
/// per-dominant-unit *profile* via [`ResourceVector::profile`], and all
/// `work` / `max_rate` quantities handed to the demand-aware entry points
/// must be expressed in dominant-resource units (see
/// [`ResourceVector::dominant_per_cpu`] for the conversion callers with
/// CPU-denominated work use).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceVector {
    /// CPU demand.
    pub cpu: f64,
    /// Memory-bandwidth demand.
    pub mem: f64,
}

impl ResourceVector {
    /// The classic single-resource demand: all CPU, no memory bandwidth.
    /// Tasks added with this profile leave the memory-axis sums at exactly
    /// zero, so the water filling is the scalar one.
    pub const CPU_ONLY: ResourceVector = ResourceVector { cpu: 1.0, mem: 0.0 };

    /// A demand of one CPU unit plus `mem_per_cpu` memory-bandwidth units
    /// per unit of CPU work. `mem_per_cpu == 0.0` is exactly
    /// [`ResourceVector::CPU_ONLY`]; above `1.0` the task is
    /// memory-dominant.
    pub fn per_cpu(mem_per_cpu: f64) -> Self {
        ResourceVector {
            cpu: 1.0,
            mem: mem_per_cpu,
        }
    }

    /// Panic unless the vector is well-formed: finite non-negative
    /// components, at least one strictly positive.
    pub fn validate(&self) {
        assert!(
            self.cpu.is_finite() && self.cpu >= 0.0,
            "CPU demand must be finite and non-negative, got {}",
            self.cpu
        );
        assert!(
            self.mem.is_finite() && self.mem >= 0.0,
            "memory-bandwidth demand must be finite and non-negative, got {}",
            self.mem
        );
        assert!(
            self.cpu > 0.0 || self.mem > 0.0,
            "demand vector must name at least one resource"
        );
    }

    /// The dominant (largest-demand) resource; CPU wins ties.
    pub fn dominant(&self) -> Resource {
        if self.mem > self.cpu {
            Resource::Mem
        } else {
            Resource::Cpu
        }
    }

    /// The normalized demand profile `[g_cpu, g_mem]`: demand per
    /// *dominant-resource unit*, so the dominant component is exactly
    /// `1.0` and the other lies in `[0, 1]`. Zero components stay exactly
    /// `+0.0`, so the degenerate single-resource profile is bit-exact
    /// `[1.0, 0.0]`.
    pub fn profile(&self) -> [f64; AXES] {
        self.validate();
        let gmax = self.cpu.max(self.mem);
        let norm = |g: f64| if g == 0.0 { 0.0 } else { g / gmax };
        [norm(self.cpu), norm(self.mem)]
    }

    /// Dominant-resource units per CPU unit (`max_component / cpu`):
    /// callers whose work and rate caps are denominated in CPU terms
    /// multiply both by this before handing them to
    /// [`GpsCpu::add_task_demand`]. Exactly `1.0` whenever CPU is the
    /// dominant axis. Panics if the CPU demand is zero.
    pub fn dominant_per_cpu(&self) -> f64 {
        self.validate();
        assert!(
            self.cpu > 0.0,
            "CPU-denominated conversion needs a positive CPU demand"
        );
        self.cpu.max(self.mem) / self.cpu
    }
}

/// Work below this many core-seconds counts as complete; guards against
/// floating-point residue keeping a task alive forever.
pub(crate) const WORK_EPSILON: f64 = 1e-9;

/// Rebase both clocks once either exceeds this magnitude (2^14 seconds of
/// real time or of per-unit-weight service). The epsilon-finish machinery
/// needs `ulp(clock) << WORK_EPSILON`; left unbounded, a never-idle bank
/// would erode that headroom (`ulp(1e7) ≈ 2e-9`). Rebasing is O(live
/// tasks) and fires at most once per 16384 clock units, so it is amortized
/// free; as a bonus it discards all stale heap entries.
const CLOCK_REBASE_THRESHOLD: f64 = 16384.0;

/// Index of the uncapped side: rate `weight · λ`, clock `U = ∫ λ dt`.
const UNCAPPED: usize = 0;
/// Index of the capped side: rate `max_rate`, the real clock `R`.
const CAPPED: usize = 1;

/// Class key: the bits of the pin ratio `max_rate / weight`. Weights and
/// caps are positive, so the IEEE bit pattern orders exactly like the
/// ratio itself.
fn pin_ratio_bits(weight: f64, max_rate: f64) -> u64 {
    (max_rate / weight).to_bits()
}

#[derive(Debug, Clone, Copy)]
enum Body {
    /// Explicit remaining work: a task whose work is numerically exhausted
    /// (waiting in `finished_pending` for the owner to remove it), a task
    /// being added, or a parked task whose coordinate is not representable.
    Settled {
        /// Remaining work in dominant-resource units.
        remaining: f64,
    },
    /// Unfinished: completes when its side's clock reaches `finish`.
    Running {
        /// Clock coordinate at which the work is exhausted.
        finish: f64,
    },
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    weight: f64,
    max_rate: f64,
    /// Normalized demand profile `[g_cpu, g_mem]` (dominant component
    /// exactly `1.0`; single-resource tasks carry `[1.0, 0.0]`).
    demand: [f64; AXES],
    /// Distinguishes reincarnations and crossings in stale heap keys.
    epoch: u64,
    /// True while the task's class sits on the capped side.
    capped: bool,
    /// Position of the slot in its class's member list.
    pos: u32,
    body: Body,
}

impl Slot {
    fn side(&self) -> usize {
        self.capped as usize
    }

    /// The quantity `side` measures the task in: its weight uncapped (rate
    /// `weight · λ`), its cap capped (rate `max_rate`).
    fn axis_on(&self, side: usize) -> f64 {
        if side == CAPPED {
            self.max_rate
        } else {
            self.weight
        }
    }

    fn axis(&self) -> f64 {
        self.axis_on(self.side())
    }
}

/// Heap entry: `key` is the *freeze coordinate* `finish − WORK_EPSILON /
/// axis` (the clock value at which remaining work hits the
/// numerically-finished threshold), `finish` the true completion
/// coordinate. Min-ordered by `(key, slot)`; the slot component keeps ties
/// deterministic.
#[derive(Debug, Clone, Copy)]
struct ClockKey {
    key: f64,
    finish: f64,
    slot: u32,
    epoch: u64,
}

impl ClockKey {
    /// `(key, slot)` packed into one integer with the same order, the key
    /// in `f64::total_cmp` order.
    fn order(&self) -> u128 {
        (u128::from(total_order_bits(self.key)) << 32) | u128::from(self.slot)
    }
}

impl PartialEq for ClockKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for ClockKey {}
impl PartialOrd for ClockKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ClockKey {
    fn cmp(&self, other: &Self) -> Ordering {
        // Inverted for BinaryHeap: earliest (key, slot) on top.
        other.order().cmp(&self.order())
    }
}

/// The GPS processor bank.
#[derive(Debug, Clone)]
pub struct GpsCpu {
    params: GpsParams,
    /// Memory-bandwidth capacity (`+∞` while the axis is disabled —
    /// the degenerate single-resource configuration).
    mem_capacity: f64,
    slots: Vec<Option<Slot>>,
    free_slots: Vec<u32>,
    runnable: usize,
    last_advance: SimTime,
    /// Total core-seconds of work completed, for conservation checks.
    /// Neumaier-compensated: long runs accumulate one blanket update per
    /// `advance` plus overshoot corrections, and plain `+=` would drift
    /// against the freshly-summed reference accounting.
    work_done: CompensatedSum,
    /// Next slot epoch (bumped on every add and crossing, never reused).
    next_epoch: u64,
    /// Slots whose work is exhausted but which still occupy the bank until
    /// the owner removes them (unsorted; sorted on query).
    finished_pending: Vec<u32>,
    /// Per side, the classes keyed by pin-ratio bits, each holding its
    /// member slots. The head of the uncapped map pins next as the level
    /// rises; the tail of the capped map unpins next as it falls.
    classes: [BTreeMap<u64, Vec<u32>>; 2],
    /// Per side and resource axis, `Σ axis·g_k` over the side's tasks:
    /// `W_k` (weights) uncapped, `K_k` (caps) capped.
    side_sums: [[CompensatedSum; AXES]; 2],
    /// The water level `λ` for the current membership; `+∞` while no
    /// uncapped task constrains it.
    water_level: f64,
    /// The side clocks `[U, R]`, since the last rebase.
    clocks: [f64; 2],
    /// Per side, the completion heap over unfinished tasks, keyed by the
    /// freeze coordinate on that side's clock.
    heaps: [BinaryHeap<ClockKey>; 2],
    /// Per side, `Σ axis` over *unfinished* tasks (the blanket `work_done`
    /// charge; finished and parked tasks leave it).
    running_axis: [CompensatedSum; 2],
    /// Per side, the number of unfinished tasks (pins the sum to exact zero).
    running: [usize; 2],
    /// Total task moves across the capped/uncapped boundary (test
    /// introspection: the thrash suites assert their schedules actually
    /// exercise re-keying).
    boundary_crossings: u64,
}

impl GpsCpu {
    /// Create an empty bank.
    pub fn new(params: GpsParams) -> Self {
        params.validate();
        GpsCpu {
            params,
            mem_capacity: f64::INFINITY,
            slots: Vec::new(),
            free_slots: Vec::new(),
            runnable: 0,
            last_advance: SimTime::ZERO,
            work_done: CompensatedSum::ZERO,
            next_epoch: 0,
            finished_pending: Vec::new(),
            classes: [BTreeMap::new(), BTreeMap::new()],
            side_sums: [[CompensatedSum::ZERO; AXES]; 2],
            water_level: f64::INFINITY,
            clocks: [0.0; 2],
            heaps: [BinaryHeap::new(), BinaryHeap::new()],
            running_axis: [CompensatedSum::ZERO; 2],
            running: [0; 2],
            boundary_crossings: 0,
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
        self.work_done.value()
    }

    /// Total number of task moves across the capped/uncapped boundary so
    /// far (exactly the moved tasks are re-keyed); placing a task as it
    /// joins is not a move. Test introspection: the boundary-thrash suites
    /// assert their schedules exercise this path.
    pub fn boundary_crossings(&self) -> u64 {
        self.boundary_crossings
    }

    /// `(uncapped, capped)` task counts of the water-filling partition.
    pub fn partition_sizes(&self) -> (usize, usize) {
        let count = |side: usize| self.classes[side].values().map(Vec::len).sum();
        (count(UNCAPPED), count(CAPPED))
    }

    /// Number of pin-ratio classes in the partition: one for a bank whose
    /// tasks all share a `max_rate / weight` ratio.
    pub fn class_count(&self) -> usize {
        self.classes[UNCAPPED].len() + self.classes[CAPPED].len()
    }

    /// The water level `λ` (service rate per unit weight); `+∞` while every
    /// task is capped within capacity, and on an empty bank.
    pub fn water_level(&self) -> f64 {
        self.water_level
    }

    /// Instantaneous service rate of `id` under the current task set.
    pub fn current_rate(&self, id: TaskId) -> f64 {
        self.slots[id.0 as usize]
            .as_ref()
            .map_or(0.0, |slot| self.rate(slot))
    }

    /// Remaining work of a task (after the last `advance`).
    pub fn remaining(&self, id: TaskId) -> f64 {
        let slot = self.slots[id.0 as usize]
            .as_ref()
            .expect("remaining() on dead task");
        self.remaining_of(slot)
    }

    /// Advance the clock to `now`: two clock bumps, one compensated work
    /// update and an amortized drain of tasks whose freeze coordinate was
    /// passed. Must be called with monotone timestamps.
    pub fn advance(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_advance).as_secs_f64();
        self.last_advance = self.last_advance.max(now);
        if dt <= 0.0 || self.runnable == 0 {
            return;
        }
        // The uncapped clock runs at λ, which is `+∞` while that side is
        // empty and finite otherwise — except when subnormal weights
        // overflow `(C−K)/W`; the finite guard keeps the clock (and the
        // blanket charge, whose unfinished sum is then a subnormal residue)
        // unpoisoned.
        let mut charge = 0.0;
        for (side, speed) in [(UNCAPPED, self.water_level), (CAPPED, 1.0)] {
            if !speed.is_finite() {
                continue;
            }
            self.clocks[side] += speed * dt;
            let sum = self.running_axis[side].value();
            if sum > 0.0 {
                charge += speed * dt * sum;
            }
        }
        // Single compensated update; tasks that exhausted mid-interval are
        // corrected by the drain's overshoot term.
        self.work_done.add(charge);
        self.drain_finished();
        if self.clocks.iter().any(|&c| c >= CLOCK_REBASE_THRESHOLD) {
            self.rebase_clocks();
        }
    }

    /// Change the bank's core capacity at `now` (dynamic capacity: cgroup
    /// throttling, noisy neighbors, autoscale lag). O((1 + k) log n) for
    /// the `k` tasks in the classes whose pin ratio the water level
    /// crosses: cheap when the level barely moves, but a large resize can
    /// cross most tasks.
    ///
    /// Every stored completion coordinate is capacity-invariant (see the
    /// module docs), so this settles served work up to `now` under the old
    /// capacity, swaps the parameter and runs the two rebalance sweeps; the
    /// owner then re-queries [`GpsCpu::next_completion`].
    /// Classes the level did not cross keep their coordinates bit-for-bit.
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
        self.rebalance_partition();
    }

    /// Change one resource axis's capacity at `now`. The CPU axis is
    /// exactly [`GpsCpu::set_capacity`]; the memory-bandwidth axis accepts
    /// any positive capacity including `+∞` (which disables the axis).
    /// Same cost and capacity-rebase invariant: coordinates are
    /// capacity-invariant on *every* axis, so only the partition boundary
    /// moves.
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
                self.rebalance_partition();
            }
        }
    }

    /// The capacity of one resource axis (`Mem` is `+∞` while disabled).
    pub fn resource_capacity(&self, resource: Resource) -> f64 {
        match resource {
            Resource::Cpu => self.params.cores,
            Resource::Mem => self.mem_capacity,
        }
    }

    /// Instantaneous total consumption of `resource` across unfinished
    /// tasks, in that resource's units: an O(n) slot scan, summed in slot
    /// order. Besides the fairness/efficiency suites and the per-resource
    /// utilization metrics, the invoker's `dominant_share` calls it at
    /// every window of the coupled cluster engine for dominant-share
    /// routing (about 11.5k calls per cluster-faults pass), so the sum
    /// order is part of the routing's determinism.
    pub fn resource_consumption(&self, resource: Resource) -> f64 {
        let axis = resource.axis();
        self.slots
            .iter()
            .flatten()
            .filter(|slot| matches!(slot.body, Body::Running { .. }))
            .map(|slot| self.rate(slot) * slot.demand[axis])
            .fold(0.0, |total, used| total + used)
    }

    /// Add a single-resource task with `work` core-seconds of demand.
    /// `advance(now)` must already have been called (or be implied by
    /// event ordering). Exactly [`GpsCpu::add_task_demand`] with the
    /// degenerate [`ResourceVector::CPU_ONLY`] profile.
    pub fn add_task(&mut self, now: SimTime, work: f64, weight: f64, max_rate: f64) -> TaskId {
        self.add_task_demand(now, work, weight, max_rate, ResourceVector::CPU_ONLY)
    }

    /// Add a task with a multi-resource demand vector. `work` and
    /// `max_rate` are in *dominant-resource* units (callers with
    /// CPU-denominated quantities scale by
    /// [`ResourceVector::dominant_per_cpu`]); `demand` is normalized into
    /// the per-dominant-unit profile internally.
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
        self.runnable += 1;
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        let index = match self.free_slots.pop() {
            Some(slot) => slot,
            None => {
                self.slots.push(None);
                (self.slots.len() - 1) as u32
            }
        };
        self.slots[index as usize] = Some(Slot {
            weight,
            max_rate,
            demand: profile,
            epoch,
            capped: false,
            pos: 0,
            body: Body::Settled { remaining: work },
        });
        self.join_class(index);
        self.rebalance_partition();
        // A crossing may already have coordinated the task; otherwise give
        // it a clock coordinate on the side the rebalance left it.
        if let Some(Slot {
            body: Body::Settled { remaining },
            ..
        }) = self.slots[index as usize]
        {
            if remaining <= WORK_EPSILON {
                self.finished_pending.push(index);
            } else {
                self.push_coordinate(index, remaining);
            }
        }
        TaskId(index)
    }

    /// Remove a task (completed or aborted), returning its residual work.
    pub fn remove_task(&mut self, now: SimTime, id: TaskId) -> f64 {
        self.advance(now);
        let slot = self.slots[id.0 as usize]
            .take()
            .expect("remove_task on dead task");
        self.free_slots.push(id.0);
        self.runnable -= 1;
        let residual = self.remaining_of(&slot);
        match slot.body {
            Body::Settled { .. } => self.finished_pending.retain(|&s| s != id.0),
            Body::Running { .. } => self.leave_running(slot.side(), slot.axis()),
        }
        if self.runnable == 0 {
            // Rebase the clocks while idle: bounds their magnitude and
            // discards stale heap entries wholesale.
            self.reset();
        } else {
            self.leave_class(&slot);
            self.rebalance_partition();
        }
        residual
    }

    /// The earliest task completion strictly after `now`, as
    /// `(task, completion time)`. Ties resolve to the lowest slot index for
    /// determinism. Returns `None` when idle.
    pub fn next_completion(&mut self, now: SimTime) -> Option<(TaskId, SimTime)> {
        self.advance(now);
        if self.runnable == 0 {
            return None;
        }
        self.drain_finished();
        if let Some(&slot) = self.finished_pending.iter().min() {
            // Exhausted tasks complete "now" regardless of their rate — a
            // task frozen at a zero-ish water level must not be starved out
            // of the completion stream (the freeze coordinate never
            // involves the rate), exactly like the reference scan.
            return Some((TaskId(slot), now));
        }
        let mut best: Option<(u32, f64)> = None;
        for (side, speed) in [(UNCAPPED, self.water_level), (CAPPED, 1.0)] {
            if !(speed > 0.0 && speed.is_finite()) {
                continue;
            }
            let Some(top) = self.live_top(side) else {
                continue;
            };
            let eta = (top.finish - self.clocks[side]).max(0.0) / speed;
            // Earliest completion wins; a cross-side tie resolves to the
            // lowest slot like the reference scan's strict-minimum rule.
            if best.is_none_or(|(slot, best_eta)| {
                eta < best_eta || (eta == best_eta && top.slot < slot)
            }) {
                best = Some((top.slot, eta));
            }
        }
        best.map(|(slot, eta)| (TaskId(slot), now + SimDuration::from_secs_f64(eta)))
    }

    /// All tasks whose remaining work is (numerically) exhausted at `now`,
    /// in slot order. The owner removes them with [`GpsCpu::remove_task`].
    pub fn finished_tasks(&mut self, now: SimTime) -> Vec<TaskId> {
        let mut out = Vec::new();
        self.finished_tasks_into(now, &mut out);
        out
    }

    /// Allocation-free variant of [`GpsCpu::finished_tasks`]: clears `out`
    /// and fills it with the finished tasks in slot order. Event loops call
    /// this once per completion event; reusing the buffer keeps the hot
    /// path allocation-free.
    pub fn finished_tasks_into(&mut self, now: SimTime, out: &mut Vec<TaskId>) {
        out.clear();
        self.advance(now);
        // Drain the heaps instead of scanning slots: every finished task
        // sits in `finished_pending` afterwards.
        self.drain_finished();
        self.finished_pending.sort_unstable();
        out.extend(self.finished_pending.iter().map(|&s| TaskId(s)));
    }

    /// The rate of one slot given the current water level.
    #[inline]
    fn rate(&self, slot: &Slot) -> f64 {
        if slot.capped {
            slot.max_rate
        } else {
            slot.weight * self.water_level
        }
    }

    /// Remaining work of a slot.
    fn remaining_of(&self, slot: &Slot) -> f64 {
        match slot.body {
            Body::Settled { remaining } => remaining,
            Body::Running { finish } => (finish - self.clocks[slot.side()]).max(0.0) * slot.axis(),
        }
    }

    /// Put a fresh slot into its pin-ratio class: an existing class keeps
    /// its side; a new class starts on the side the current level puts it
    /// (the rebalance that follows corrects the level).
    fn join_class(&mut self, index: u32) {
        let slot = self.slots[index as usize]
            .as_mut()
            .expect("joining a dead slot");
        let ratio = pin_ratio_bits(slot.weight, slot.max_rate);
        let side = if self.classes[CAPPED].contains_key(&ratio) {
            CAPPED
        } else if self.classes[UNCAPPED].contains_key(&ratio) {
            UNCAPPED
        } else {
            (f64::from_bits(ratio) <= self.water_level) as usize
        };
        slot.capped = side == CAPPED;
        let members = self.classes[side].entry(ratio).or_default();
        slot.pos = members.len() as u32;
        members.push(index);
        let axis = slot.axis();
        for (k, &d) in slot.demand.iter().enumerate() {
            if d > 0.0 {
                self.side_sums[side][k].add(axis * d);
            }
        }
    }

    /// Take a (just-removed) slot out of its class and its side's sums.
    fn leave_class(&mut self, slot: &Slot) {
        let side = slot.side();
        let ratio = pin_ratio_bits(slot.weight, slot.max_rate);
        let members = self.classes[side]
            .get_mut(&ratio)
            .expect("live task missing from its class");
        members.swap_remove(slot.pos as usize);
        if let Some(&moved) = members.get(slot.pos as usize) {
            self.slots[moved as usize]
                .as_mut()
                .expect("class holds only live slots")
                .pos = slot.pos;
        } else if members.is_empty() {
            self.classes[side].remove(&ratio);
        }
        let axis = slot.axis();
        for (k, &d) in slot.demand.iter().enumerate() {
            if d > 0.0 {
                self.side_sums[side][k].add(-(axis * d));
            }
        }
    }

    /// One axis's water level from its sums: `(C_k − K_k) / W_k`. With no
    /// uncapped demand on the axis the level is `+∞` while the caps fit
    /// the capacity (the axis cannot bind) and `−∞` once they exceed it
    /// (forcing the rebalance to unpin from the top).
    fn axis_level(cap: f64, w: f64, k: f64) -> f64 {
        if w > 0.0 {
            (cap - k) / w
        } else if k <= cap {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        }
    }

    /// The water level implied by the current sums: the *minimum* per-axis
    /// level `min_k (C_k − K_k) / W_k` — the binding resource's level.
    /// Disabled axes (no uncapped demand, caps within capacity) contribute
    /// `+∞` and drop out of the `min`, so the degenerate single-resource
    /// configuration reduces bit-for-bit to the scalar `(C_eff − K) / W`.
    fn current_level(&self, cap: f64) -> f64 {
        let caps = [cap, self.mem_capacity];
        let mut level = f64::INFINITY;
        for (k, &axis_cap) in caps.iter().enumerate() {
            level = level.min(Self::axis_level(
                axis_cap,
                self.side_sums[UNCAPPED][k].value(),
                self.side_sums[CAPPED][k].value(),
            ));
        }
        level
    }

    /// Restore the capped/uncapped invariant after a membership or capacity
    /// change. Two sweeps over whole classes suffice (see the module docs):
    /// every move — unpinning a capped class whose ratio exceeds the level,
    /// or pinning an uncapped class whose ratio is at or below it — raises
    /// the water level, so unpins cannot re-enable unpins and pins cannot
    /// re-enable either.
    fn rebalance_partition(&mut self) {
        let cap = self.params.effective_capacity(self.runnable);
        // Sweep 1: unpin from the top of the capped order.
        while let Some((&ratio, _)) = self.classes[CAPPED].last_key_value() {
            if f64::from_bits(ratio) <= self.current_level(cap) {
                break;
            }
            self.move_class(CAPPED, ratio);
        }
        // Sweep 2: pin from the bottom of the uncapped order.
        while let Some((&ratio, _)) = self.classes[UNCAPPED].first_key_value() {
            if f64::from_bits(ratio) > self.current_level(cap) {
                break;
            }
            self.move_class(UNCAPPED, ratio);
        }
        // Pin the sums back to exact zero whenever a side empties, so
        // residual compensation cannot accumulate.
        for side in [UNCAPPED, CAPPED] {
            if self.classes[side].is_empty() {
                self.side_sums[side] = [CompensatedSum::ZERO; AXES];
            }
        }
        self.water_level = self.current_level(cap);
        #[cfg(debug_assertions)]
        self.debug_validate_partition();
    }

    /// Move the class at `ratio` from side `from` to the other side, member
    /// by member: shift its sums and re-key each member's coordinate.
    fn move_class(&mut self, from: usize, ratio: u64) {
        let to = 1 - from;
        let members = self.classes[from]
            .remove(&ratio)
            .expect("moving a missing class");
        for &index in &members {
            let slot = self.slots[index as usize]
                .as_mut()
                .expect("class holds only live slots");
            slot.capped = to == CAPPED;
            let (old_axis, new_axis) = (slot.axis_on(from), slot.axis_on(to));
            for (k, &d) in slot.demand.iter().enumerate() {
                if d > 0.0 {
                    self.side_sums[from][k].add(-(old_axis * d));
                    self.side_sums[to][k].add(new_axis * d);
                }
            }
            self.cross_boundary(index, from);
        }
        self.classes[to].insert(ratio, members);
    }

    /// Re-key a task the rebalance just moved off side `from`: its
    /// coordinate was expressed on the old side's clock, so re-derive the
    /// remaining work, bump the slot epoch (invalidating the old heap
    /// entry lazily) and push a fresh key on the new side's heap. Finished
    /// (`Settled`) tasks only flip sides for rate accounting; a parked or
    /// just-added task gets a coordinate attempt on the new side.
    fn cross_boundary(&mut self, index: u32, from: usize) {
        self.boundary_crossings += 1;
        let slot = self.slots[index as usize]
            .as_mut()
            .expect("boundary crossing on a dead slot");
        let remaining = match slot.body {
            Body::Running { finish } => {
                slot.epoch = self.next_epoch;
                self.next_epoch += 1;
                let axis = slot.axis_on(from);
                let remaining = (finish - self.clocks[from]).max(0.0) * axis;
                self.leave_running(from, axis);
                if remaining <= WORK_EPSILON {
                    self.settle(index, remaining);
                    return;
                }
                remaining
            }
            Body::Settled { remaining } if remaining > WORK_EPSILON => remaining,
            Body::Settled { .. } => return,
        };
        self.push_coordinate(index, remaining);
    }

    /// Give an unfinished task a fresh coordinate (and heap key) on its
    /// side's clock. The freeze key is the clock value at which the
    /// remaining work hits [`WORK_EPSILON`].
    ///
    /// Subnormal axes can overflow `remaining / axis` (or the `ε / axis`
    /// freeze offset) past f64 range, turning the key into inf−inf = NaN —
    /// which would defeat every heap comparison and spuriously settle the
    /// task. Such a task's completion is astronomically far away, so it is
    /// **parked** instead: it keeps its exact `Settled` remaining, never
    /// joins the heap or the unfinished sums (it depletes at an
    /// effectively-zero rate), and never reports finished — the starved-task
    /// behaviour the reference's zero-rate skip produces. A boundary
    /// crossing re-attempts the coordinate on the other side.
    fn push_coordinate(&mut self, index: u32, remaining: f64) {
        let slot = self.slots[index as usize]
            .as_mut()
            .expect("coordinate push on a dead slot");
        let (side, axis) = (slot.side(), slot.axis());
        let finish = self.clocks[side] + remaining / axis;
        let key = finish - WORK_EPSILON / axis;
        if !(key.is_finite() && finish.is_finite()) {
            slot.body = Body::Settled { remaining };
            return;
        }
        slot.body = Body::Running { finish };
        self.heaps[side].push(ClockKey {
            key,
            finish,
            slot: index,
            epoch: slot.epoch,
        });
        self.running_axis[side].add(axis);
        self.running[side] += 1;
    }

    fn leave_running(&mut self, side: usize, axis: f64) {
        self.running_axis[side].add(-axis);
        self.running[side] -= 1;
        if self.running[side] == 0 {
            // Pin the sum back to exact zero so residual compensation
            // cannot leak into later blanket charges.
            self.running_axis[side] = CompensatedSum::ZERO;
        }
    }

    /// Mark a task numerically finished with its true sub-epsilon residual.
    fn settle(&mut self, index: u32, remaining: f64) {
        self.slots[index as usize]
            .as_mut()
            .expect("settling a dead slot")
            .body = Body::Settled { remaining };
        self.finished_pending.push(index);
    }

    /// Discard stale keys and return the earliest live entry of a side's
    /// heap. An entry is live while the slot exists, the epoch matches (no
    /// crossing or reincarnation since the push) and the task still runs on
    /// that side.
    fn live_top(&mut self, side: usize) -> Option<ClockKey> {
        while let Some(&top) = self.heaps[side].peek() {
            let live = matches!(
                &self.slots[top.slot as usize],
                Some(slot) if slot.epoch == top.epoch
                    && slot.side() == side
                    && matches!(slot.body, Body::Running { .. })
            );
            if live {
                return Some(top);
            }
            self.heaps[side].pop();
        }
        None
    }

    /// Drain every task whose freeze coordinate was reached: remaining
    /// work is at or below [`WORK_EPSILON`], so the task settles (keeping
    /// its true sub-epsilon residual) and joins `finished_pending`. Tasks
    /// whose *finish* coordinate was strictly passed over-consumed in the
    /// blanket `advance` charge; the overshoot is corrected here.
    fn drain_finished(&mut self) {
        for side in [UNCAPPED, CAPPED] {
            while let Some(top) = self.live_top(side) {
                let clock = self.clocks[side];
                if top.key > clock {
                    break;
                }
                self.heaps[side].pop();
                let axis = self.slots[top.slot as usize]
                    .as_ref()
                    .expect("live top on a dead slot")
                    .axis();
                if top.finish < clock {
                    self.work_done.add(-((clock - top.finish) * axis));
                }
                self.leave_running(side, axis);
                self.settle(top.slot, (top.finish - clock).max(0.0) * axis);
            }
        }
    }

    /// Shift both clocks back to zero, subtracting the old values from
    /// every in-flight coordinate (differences — remaining work — are
    /// preserved to within one rounding each) and rebuilding the heaps,
    /// dropping stale keys wholesale.
    fn rebase_clocks(&mut self) {
        let shift = self.clocks;
        self.clocks = [0.0; 2];
        for heap in &mut self.heaps {
            heap.clear();
        }
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let Some(slot) = slot else { continue };
            let (side, axis, epoch) = (slot.side(), slot.axis(), slot.epoch);
            if let Body::Running { finish } = &mut slot.body {
                *finish = (*finish - shift[side]).max(0.0);
                self.heaps[side].push(ClockKey {
                    key: *finish - WORK_EPSILON / axis,
                    finish: *finish,
                    slot: i as u32,
                    epoch,
                });
            }
        }
    }

    /// Return an idle bank to its initial partition and clocks.
    fn reset(&mut self) {
        self.finished_pending.clear();
        for side in [UNCAPPED, CAPPED] {
            self.classes[side].clear();
            self.side_sums[side] = [CompensatedSum::ZERO; AXES];
            self.clocks[side] = 0.0;
            self.heaps[side].clear();
            self.running_axis[side] = CompensatedSum::ZERO;
            self.running[side] = 0;
        }
        self.water_level = f64::INFINITY;
    }

    /// Debug-build invariant check: class membership matches the per-slot
    /// sides and positions, the running sums match fresh summation, and no
    /// task sits more than a rounding margin on the wrong side of the level.
    #[cfg(debug_assertions)]
    fn debug_validate_partition(&self) {
        let mut sums = [[0.0f64; AXES]; 2];
        let mut running = [(0.0f64, 0usize); 2];
        let mut live = 0usize;
        for (i, slot) in self.slots.iter().enumerate() {
            let Some(slot) = slot else { continue };
            live += 1;
            let (side, ratio) = (slot.side(), slot.max_rate / slot.weight);
            let members = &self.classes[side][&ratio.to_bits()];
            debug_assert_eq!(members[slot.pos as usize], i as u32);
            debug_assert!(!self.classes[1 - side].contains_key(&ratio.to_bits()));
            for (axis, &d) in slot.demand.iter().enumerate() {
                sums[side][axis] += slot.axis() * d;
            }
            if let Body::Running { .. } = slot.body {
                running[side].0 += slot.axis();
                running[side].1 += 1;
            }
            let margin = 1e-9 * (1.0 + ratio.abs() + self.water_level.abs());
            if slot.capped {
                debug_assert!(
                    ratio <= self.water_level + margin,
                    "capped task {i} above the water level: r={ratio} λ={}",
                    self.water_level
                );
            } else {
                debug_assert!(
                    ratio >= self.water_level - margin,
                    "uncapped task {i} below the water level: r={ratio} λ={}",
                    self.water_level
                );
            }
        }
        let (uncapped, capped) = self.partition_sizes();
        debug_assert_eq!(live, uncapped + capped);
        for side in [UNCAPPED, CAPPED] {
            for (axis, &sum) in sums[side].iter().enumerate() {
                let kept = self.side_sums[side][axis].value();
                debug_assert!((sum - kept).abs() <= 1e-9 * (1.0 + sum.abs()));
            }
            let (sum, count) = running[side];
            debug_assert_eq!(count, self.running[side]);
            let kept = self.running_axis[side].value();
            debug_assert!((sum - kept).abs() <= 1e-9 * (1.0 + sum.abs()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(cores: f64, kappa: f64) -> GpsParams {
        GpsParams {
            cores,
            ctx_switch_penalty: kappa,
            penalty_cap: 100.0,
        }
    }

    #[test]
    fn clock_key_order_is_the_total_cmp_slot_tuple() {
        let keys = [
            f64::NEG_INFINITY,
            -2.5,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            1e-9,
            1.0,
            1e300,
            f64::INFINITY,
        ];
        let slots = [0, 1, 7, u32::MAX];
        let entries: Vec<ClockKey> = keys
            .iter()
            .flat_map(|&key| slots.iter().map(move |&slot| (key, slot)))
            .map(|(key, slot)| ClockKey {
                key,
                finish: key,
                slot,
                epoch: 0,
            })
            .collect();
        for a in &entries {
            for b in &entries {
                // `cmp` is inverted for the max-heap.
                let tuple = b.key.total_cmp(&a.key).then(b.slot.cmp(&a.slot));
                assert_eq!(a.cmp(b), tuple, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn effective_capacity_penalty_curve() {
        let p = params(10.0, 0.5);
        assert_eq!(p.effective_capacity(5), 10.0);
        assert_eq!(p.effective_capacity(10), 10.0);
        // n = 20: oversub = 1.0 -> capacity / 1.5
        assert!((p.effective_capacity(20) - 10.0 / 1.5).abs() < 1e-12);
        // kappa = 0 disables the penalty entirely.
        assert_eq!(params(10.0, 0.0).effective_capacity(100), 10.0);
    }

    #[test]
    fn single_task_runs_at_one_core() {
        let mut cpu = GpsCpu::new(params(4.0, 0.0));
        let t0 = SimTime::ZERO;
        let id = cpu.add_task(t0, 2.0, 1.0, 1.0);
        let (done_id, at) = cpu.next_completion(t0).unwrap();
        assert_eq!(done_id, id);
        // 2 core-seconds at 1 core (max_rate cap, not the 4-core capacity).
        assert!((at.as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn equal_sharing_when_oversubscribed() {
        let mut cpu = GpsCpu::new(params(2.0, 0.0));
        let t0 = SimTime::ZERO;
        // Four equal tasks on two cores: each runs at 0.5 cores.
        let ids: Vec<TaskId> = (0..4).map(|_| cpu.add_task(t0, 1.0, 1.0, 1.0)).collect();
        for &id in &ids {
            assert!((cpu.current_rate(id) - 0.5).abs() < 1e-12);
        }
        let (_, at) = cpu.next_completion(t0).unwrap();
        assert!((at.as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn completion_tie_breaks_to_lowest_slot() {
        let mut cpu = GpsCpu::new(params(2.0, 0.0));
        let a = cpu.add_task(SimTime::ZERO, 1.0, 1.0, 1.0);
        let _b = cpu.add_task(SimTime::ZERO, 1.0, 1.0, 1.0);
        let (id, _) = cpu.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(id, a);
    }

    #[test]
    fn advance_depletes_work() {
        let mut cpu = GpsCpu::new(params(1.0, 0.0));
        let id = cpu.add_task(SimTime::ZERO, 3.0, 1.0, 1.0);
        cpu.advance(SimTime::from_secs(1));
        assert!((cpu.remaining(id) - 2.0).abs() < 1e-9);
        cpu.advance(SimTime::from_secs(2));
        assert!((cpu.remaining(id) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rates_rebalance_after_completion() {
        let mut cpu = GpsCpu::new(params(1.0, 0.0));
        let a = cpu.add_task(SimTime::ZERO, 1.0, 1.0, 1.0);
        let b = cpu.add_task(SimTime::ZERO, 1.0, 1.0, 1.0);
        // Both run at 0.5; a completes at t=2.
        let (first, at) = cpu.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(first, a);
        assert!((at.as_secs_f64() - 2.0).abs() < 1e-9);
        cpu.remove_task(at, a);
        // b has 0 remaining? No: b also ran at 0.5 for 2s => done too.
        assert!(cpu.remaining(b) < 1e-9);
    }

    #[test]
    fn weighted_sharing() {
        let mut cpu = GpsCpu::new(params(1.0, 0.0));
        let heavy = cpu.add_task(SimTime::ZERO, 1.0, 3.0, 1.0);
        let light = cpu.add_task(SimTime::ZERO, 1.0, 1.0, 1.0);
        assert!((cpu.current_rate(heavy) - 0.75).abs() < 1e-12);
        assert!((cpu.current_rate(light) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn water_filling_redistributes_capped_surplus() {
        // 3 cores, two tasks: one capped at 1 core with huge weight, the
        // other picks up the rest (but is itself capped at 1).
        let mut cpu = GpsCpu::new(params(3.0, 0.0));
        let capped = cpu.add_task(SimTime::ZERO, 1.0, 100.0, 1.0);
        let other = cpu.add_task(SimTime::ZERO, 1.0, 1.0, 1.0);
        assert!((cpu.current_rate(capped) - 1.0).abs() < 1e-12);
        assert!((cpu.current_rate(other) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn water_filling_with_heterogeneous_caps() {
        let mut cpu = GpsCpu::new(params(2.0, 0.0));
        let slow = cpu.add_task(SimTime::ZERO, 1.0, 1.0, 0.25);
        let fast = cpu.add_task(SimTime::ZERO, 1.0, 1.0, 1.0);
        // slow pinned at 0.25; fast takes min(1.0, remaining 1.75) = 1.0.
        assert!((cpu.current_rate(slow) - 0.25).abs() < 1e-12);
        assert!((cpu.current_rate(fast) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn context_switch_penalty_slows_completion() {
        let mut no_pen = GpsCpu::new(params(1.0, 0.0));
        let mut pen = GpsCpu::new(params(1.0, 1.0));
        for _ in 0..3 {
            no_pen.add_task(SimTime::ZERO, 1.0, 1.0, 1.0);
            pen.add_task(SimTime::ZERO, 1.0, 1.0, 1.0);
        }
        let (_, t_free) = no_pen.next_completion(SimTime::ZERO).unwrap();
        let (_, t_pen) = pen.next_completion(SimTime::ZERO).unwrap();
        assert!(t_pen > t_free, "penalty must delay completions");
        // n=3 on 1 core: oversub 2, capacity 1/3 -> per-task rate 1/9.
        assert!((t_pen.as_secs_f64() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn slots_are_recycled() {
        let mut cpu = GpsCpu::new(params(1.0, 0.0));
        let a = cpu.add_task(SimTime::ZERO, 1.0, 1.0, 1.0);
        cpu.remove_task(SimTime::ZERO, a);
        let b = cpu.add_task(SimTime::ZERO, 1.0, 1.0, 1.0);
        assert_eq!(a.index(), b.index(), "slot should be reused");
        assert_eq!(cpu.len(), 1);
    }

    #[test]
    fn work_conservation_under_churn() {
        // Total work done over time must equal total work injected minus
        // residuals, regardless of membership churn.
        let mut cpu = GpsCpu::new(params(2.0, 0.3));
        let mut t = SimTime::ZERO;
        let mut injected = 0.0;
        let mut residual = 0.0;
        let mut live: Vec<TaskId> = Vec::new();
        for step in 0..50 {
            t += SimDuration::from_millis(100);
            let work = 0.05 + (step % 7) as f64 * 0.03;
            injected += work;
            live.push(cpu.add_task(t, work, 1.0, 1.0));
            if step % 3 == 2 {
                let id = live.remove(0);
                residual += cpu.remove_task(t, id);
            }
        }
        // Drain everything.
        let end = t + SimDuration::from_secs(100);
        cpu.advance(end);
        for id in live {
            residual += cpu.remove_task(end, id);
        }
        assert!(
            (cpu.work_done() + residual - injected).abs() < 1e-6,
            "work not conserved: done={} residual={} injected={}",
            cpu.work_done(),
            residual,
            injected
        );
    }

    #[test]
    fn work_conservation_with_heterogeneous_weights() {
        // Same churn but with varying weights/caps, exercising several
        // classes and the crossings between them.
        let mut cpu = GpsCpu::new(params(4.0, 0.2));
        let mut t = SimTime::ZERO;
        let mut injected = 0.0;
        let mut residual = 0.0;
        let mut live: Vec<TaskId> = Vec::new();
        for step in 0..60 {
            t += SimDuration::from_millis(80);
            let work = 0.05 + (step % 5) as f64 * 0.04;
            let weight = 1.0 + (step % 3) as f64;
            let max_rate = if step % 4 == 0 { 0.5 } else { 1.0 };
            injected += work;
            live.push(cpu.add_task(t, work, weight, max_rate));
            if step % 2 == 1 {
                let id = live.remove(0);
                residual += cpu.remove_task(t, id);
            }
        }
        let end = t + SimDuration::from_secs(100);
        cpu.advance(end);
        for id in live {
            residual += cpu.remove_task(end, id);
        }
        assert!(
            (cpu.work_done() + residual - injected).abs() < 1e-6,
            "work not conserved: done={} residual={} injected={}",
            cpu.work_done(),
            residual,
            injected
        );
    }

    #[test]
    fn zero_work_task_completes_immediately() {
        let mut cpu = GpsCpu::new(params(1.0, 0.0));
        let id = cpu.add_task(SimTime::from_secs(1), 0.0, 1.0, 1.0);
        let (done, at) = cpu.next_completion(SimTime::from_secs(1)).unwrap();
        assert_eq!(done, id);
        assert_eq!(at, SimTime::from_secs(1));
    }

    #[test]
    fn idle_bank_reports_no_completion() {
        let mut cpu = GpsCpu::new(params(4.0, 0.5));
        assert!(cpu.next_completion(SimTime::ZERO).is_none());
        assert!(cpu.is_empty());
    }

    #[test]
    #[should_panic(expected = "dead task")]
    fn double_remove_panics() {
        let mut cpu = GpsCpu::new(params(1.0, 0.0));
        let id = cpu.add_task(SimTime::ZERO, 1.0, 1.0, 1.0);
        cpu.remove_task(SimTime::ZERO, id);
        cpu.remove_task(SimTime::ZERO, id);
    }

    #[test]
    fn class_changes_preserve_remaining_work() {
        let mut cpu = GpsCpu::new(params(2.0, 0.0));
        let mut reference = crate::gps_reference::ReferenceGpsCpu::new(params(2.0, 0.0));
        let t0 = SimTime::ZERO;
        // One class: two equal tasks, each capped at 1 core.
        let a = cpu.add_task(t0, 4.0, 1.0, 1.0);
        let b = cpu.add_task(t0, 4.0, 1.0, 1.0);
        reference.add_task(t0, 4.0, 1.0, 1.0);
        reference.add_task(t0, 4.0, 1.0, 1.0);
        let t1 = SimTime::from_secs(1);
        cpu.advance(t1);
        reference.advance(t1);
        assert!((cpu.remaining(a) - 3.0).abs() < 1e-9);
        // A second class joins; the first crosses to the uncapped side.
        let c = cpu.add_task(t1, 1.0, 5.0, 1.0);
        reference.add_task(t1, 1.0, 5.0, 1.0);
        assert_eq!(cpu.class_count(), 2);
        assert!(
            (cpu.remaining(a) - 3.0).abs() < 1e-9,
            "re-keying is lossless"
        );
        // Removing it leaves the first class alone again.
        let t2 = SimTime::from_secs(2);
        let res = cpu.remove_task(t2, c);
        assert!((res - reference.remove_task(t2, c)).abs() < 1e-9);
        assert_eq!(cpu.class_count(), 1);
        let t3 = SimTime::from_secs(3);
        cpu.advance(t3);
        reference.advance(t3);
        let ra = cpu.remaining(a);
        let rb = cpu.remaining(b);
        assert!((ra - rb).abs() < 1e-9, "equal tasks stay in lockstep");
        assert!((ra - reference.remaining(a)).abs() < 1e-9);
        assert!(ra < 3.0, "work continues depleting after the class leaves");
    }

    #[test]
    fn long_running_bank_stays_precise_across_clock_rebases() {
        // Drive the clocks far past CLOCK_REBASE_THRESHOLD without the
        // bank ever going idle: a long-lived background task pins
        // `runnable > 0` while short tasks churn through. Conservation and
        // completion correctness must survive the rebases.
        let mut cpu = GpsCpu::new(params(2.0, 0.0));
        let mut t = SimTime::ZERO;
        let background = cpu.add_task(t, 1e9, 1.0, 1.0);
        let mut injected = 1e9;
        let mut completed = 0.0;
        for k in 0..400 {
            let work = 90.0 + (k % 7) as f64;
            injected += work;
            let id = cpu.add_task(t, work, 1.0, 1.0);
            let (done, at) = cpu.next_completion(t).expect("two tasks runnable");
            assert_eq!(done, id, "short task finishes before the background");
            // Two equal-weight tasks on 2 cores: both run at 1 core.
            assert!((at.saturating_since(t).as_secs_f64() - work).abs() < 1e-6);
            t = at;
            completed += work - cpu.remove_task(t, id);
        }
        // 400 completions x ~93 s of per-task service ≈ 37_000 core-seconds
        // of clock time: the threshold (16384) was crossed repeatedly.
        let residual = cpu.remove_task(t, background);
        assert!(
            (cpu.work_done() + residual - injected).abs() < 1e-4,
            "conservation across rebases: done={} residual={residual} injected={injected}",
            cpu.work_done()
        );
        assert!((cpu.work_done() - 2.0 * completed).abs() < 1e-4);
    }

    #[test]
    fn all_tasks_capped_leaves_surplus_unused() {
        // 8 cores, three tasks whose caps sum to 1.5: every task is pinned
        // at its cap (fair shares far exceed the caps) and the remaining
        // 6.5 cores stay idle, exactly like the reference.
        let mut cpu = GpsCpu::new(params(8.0, 0.0));
        let a = cpu.add_task(SimTime::ZERO, 1.0, 1.0, 0.5);
        let b = cpu.add_task(SimTime::ZERO, 1.0, 2.0, 0.5);
        let c = cpu.add_task(SimTime::ZERO, 1.0, 4.0, 0.5);
        for id in [a, b, c] {
            assert!((cpu.current_rate(id) - 0.5).abs() < 1e-12);
        }
        let (uncapped, capped) = cpu.partition_sizes();
        assert_eq!((uncapped, capped), (0, 3), "all tasks on the capped side");
        assert_eq!(cpu.water_level(), f64::INFINITY);
        // 1 core-second each at 0.5 cores: all three finish at t=2.
        let (_, at) = cpu.next_completion(SimTime::ZERO).unwrap();
        assert!((at.as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn cap_exactly_at_fair_share_is_a_boundary_tie() {
        // 2 cores, two weight-1 tasks, one capped at exactly its 1.0 fair
        // share. Whether the tied task sits on the capped or uncapped side
        // of the partition, both rates must be exactly 1.0 (the reference
        // pins on `>=`, so it treats the tie as capped).
        let mut cpu = GpsCpu::new(params(2.0, 0.0));
        let tied = cpu.add_task(SimTime::ZERO, 1.0, 1.0, 1.0);
        let free = cpu.add_task(SimTime::ZERO, 1.0, 1.0, 2.0);
        assert_eq!(cpu.class_count(), 2, "two pin ratios, two classes");
        assert!((cpu.current_rate(tied) - 1.0).abs() < 1e-12);
        assert!((cpu.current_rate(free) - 1.0).abs() < 1e-12);
        let level = cpu.water_level();
        assert!((level - 1.0).abs() < 1e-12, "water level sits on the tie");
    }

    #[test]
    fn single_uncapped_task_absorbs_all_surplus() {
        // 4 cores: three tasks pinned at 0.25 leave 3.25 cores for the one
        // uncapped task (its own 10.0 cap never binds).
        let mut cpu = GpsCpu::new(params(4.0, 0.0));
        let mut pinned = Vec::new();
        for _ in 0..3 {
            pinned.push(cpu.add_task(SimTime::ZERO, 1.0, 1.0, 0.25));
        }
        let big = cpu.add_task(SimTime::ZERO, 1.0, 1.0, 10.0);
        for &id in &pinned {
            assert!((cpu.current_rate(id) - 0.25).abs() < 1e-12);
        }
        assert!((cpu.current_rate(big) - 3.25).abs() < 1e-12);
        assert_eq!(cpu.partition_sizes(), (1, 3));
    }

    #[test]
    fn class_churn_keeps_partition_and_remaining_consistent() {
        // A second class joins and leaves four times: remaining work is
        // preserved across every crossing it forces, the partition holds
        // exactly the live tasks, and everything matches the reference.
        let mut cpu = GpsCpu::new(params(2.0, 0.0));
        let mut reference = crate::gps_reference::ReferenceGpsCpu::new(params(2.0, 0.0));
        let t0 = SimTime::ZERO;
        let a = cpu.add_task(t0, 10.0, 1.0, 1.0);
        reference.add_task(t0, 10.0, 1.0, 1.0);
        let mut t = t0;
        for round in 0..4 {
            cpu.advance(t);
            reference.advance(t);
            let before = cpu.remaining(a);
            let cap = 0.5 + round as f64 * 0.25;
            let hetero = cpu.add_task(t, 0.5, 3.0, cap);
            reference.add_task(t, 0.5, 3.0, cap);
            assert_eq!(cpu.class_count(), 2);
            let (uncapped, capped) = cpu.partition_sizes();
            assert_eq!(uncapped + capped, 2, "partition holds both tasks");
            assert!(
                (cpu.remaining(a) - before).abs() < 1e-9,
                "joining is lossless (round {round})"
            );
            assert!((cpu.current_rate(a) - reference.current_rate(a)).abs() < 1e-12);
            t += SimDuration::from_millis(250);
            cpu.advance(t);
            reference.advance(t);
            let before = cpu.remaining(a);
            assert!((before - reference.remaining(a)).abs() < 1e-9);
            let residual = cpu.remove_task(t, hetero);
            assert!((residual - reference.remove_task(t, hetero)).abs() < 1e-9);
            assert_eq!(cpu.partition_sizes(), (0, 1), "one capped task left");
            assert_eq!(cpu.water_level(), f64::INFINITY);
            assert!(
                (cpu.remaining(a) - before).abs() < 1e-9,
                "leaving is lossless (round {round})"
            );
            t += SimDuration::from_millis(250);
        }
        // The long task kept depleting through all four rounds.
        cpu.advance(t);
        reference.advance(t);
        assert!(cpu.remaining(a) < 10.0);
        assert!((cpu.remaining(a) - reference.remaining(a)).abs() < 1e-9);
        assert!((cpu.work_done() - reference.work_done()).abs() < 1e-9);
    }

    #[test]
    fn both_clocks_stay_precise_across_rebases() {
        // Drive both clocks far past CLOCK_REBASE_THRESHOLD: a capped
        // task keeps the real clock's side populated, an uncapped one the
        // uncapped clock's, and
        // both deplete at exactly 1 core/s, so remaining work stays a
        // linear function of time through every rebase.
        let mut cpu = GpsCpu::new(params(2.0, 0.0));
        let t0 = SimTime::ZERO;
        let work = 50_000.0;
        // Uncapped: ratio 2 > λ = 1 (see below), rate = weight * λ = 1.
        let a = cpu.add_task(t0, work, 1.0, 2.0);
        // Capped: ratio 0.5 <= λ, pinned at max_rate = 1.
        let b = cpu.add_task(t0, work, 2.0, 1.0);
        assert_eq!(cpu.water_level(), 1.0);
        let mut t = t0;
        for step in 1..=30 {
            t += SimDuration::from_secs(1_000);
            cpu.advance(t);
            let expect = work - 1_000.0 * step as f64;
            // One rounding per rebase is the promise; 1e-5 over 30 Mcs of
            // clock travel leaves plenty of slack under it.
            assert!(
                (cpu.remaining(a) - expect).abs() < 1e-5,
                "uncapped drift at step {step}: {} vs {expect}",
                cpu.remaining(a)
            );
            assert!((cpu.remaining(b) - expect).abs() < 1e-5);
        }
        // 30_000 s consumed; both finish together at t = 50_000 s.
        let (_, at) = cpu.next_completion(t).unwrap();
        assert!((at.as_secs_f64() - 50_000.0).abs() < 1e-4);
        let end = SimTime::from_secs(60_000);
        cpu.advance(end);
        let finished = cpu.finished_tasks(end);
        assert_eq!(finished, vec![a, b]);
        let residual: f64 = cpu.remove_task(end, a) + cpu.remove_task(end, b);
        assert!(
            (cpu.work_done() + residual - 2.0 * work).abs() < 1e-4,
            "conservation across rebases: done={} residual={residual}",
            cpu.work_done()
        );
    }

    #[test]
    fn exhausted_task_completes_now_even_at_zero_rate() {
        // Regression: an exhausted task whose water-filling rate underflows
        // to exactly 0.0 used to be skipped by the completion
        // scan (`rate <= 0.0 -> continue`) while `finished_tasks` kept
        // reporting it — the owner's completion tick would never fire.
        // Exhausted tasks must complete "now" regardless of rate.
        //
        // Two huge-weight companions drive the water level down to
        // ~1e-307; the tiny subnormal weight then underflows `w * λ` to
        // exactly zero.
        let mut cpu = GpsCpu::new(params(2.0, 0.0));
        let mut reference = crate::gps_reference::ReferenceGpsCpu::new(params(2.0, 0.0));
        let t0 = SimTime::ZERO;
        for kernel_add in [
            (1.0, 1e307, 2.0),  // companion B: rate 1.0
            (1.0, 1e307, 2.0),  // companion C: rate 1.0
            (0.0, 5e-324, 1.0), // exhausted task A: rate underflows to 0.0
        ] {
            let (work, weight, cap) = kernel_add;
            cpu.add_task(t0, work, weight, cap);
            reference.add_task(t0, work, weight, cap);
        }
        let a = TaskId(2);
        assert_eq!(reference.current_rate(a), 0.0, "rate must underflow");
        assert_eq!(cpu.current_rate(a), 0.0, "rate must underflow");
        // Both kernels: the exhausted zero-rate task is the next
        // completion, at `now`, and the finished set reports it.
        assert_eq!(cpu.next_completion(t0), Some((a, t0)));
        assert_eq!(reference.next_completion(t0), Some((a, t0)));
        assert_eq!(cpu.finished_tasks(t0), vec![a]);
        assert_eq!(reference.finished_tasks(t0), vec![a]);
        // Removing it unblocks the stream: the companions complete at t=1.
        cpu.remove_task(t0, a);
        reference.remove_task(t0, a);
        let (_, at) = cpu.next_completion(t0).unwrap();
        let (_, at_ref) = reference.next_completion(t0).unwrap();
        assert!((at.as_secs_f64() - 1.0).abs() < 1e-9);
        assert!((at_ref.as_secs_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unrepresentable_coordinate_parks_instead_of_finishing() {
        // A subnormal weight overflows `remaining / weight` past f64 range
        // (finish = inf, freeze key = inf - inf = NaN): the task must be
        // parked — starved like the reference's zero-rate skip — not
        // spuriously settled as finished with an infinite residual.
        let mut cpu = GpsCpu::new(params(2.0, 0.0));
        let mut reference = crate::gps_reference::ReferenceGpsCpu::new(params(2.0, 0.0));
        let t0 = SimTime::ZERO;
        // Two unit-weight companions (uncapped, rate exactly 1) and the
        // subnormal-weight task whose uncapped coordinate overflows.
        for kernel_add in [(1.0, 1.0, 2.0), (1.0, 1.0, 2.0), (1.0, 5e-324, 1.0)] {
            let (work, weight, cap) = kernel_add;
            cpu.add_task(t0, work, weight, cap);
            reference.add_task(t0, work, weight, cap);
        }
        let parked = TaskId(2);
        // Both kernels: nothing is finished, a companion is next at t=1.
        assert!(cpu.finished_tasks(t0).is_empty());
        assert!(reference.finished_tasks(t0).is_empty());
        let (next, at) = cpu.next_completion(t0).unwrap();
        assert_eq!(next, TaskId(0));
        assert!((at.as_secs_f64() - 1.0).abs() < 1e-9);
        let (next_ref, at_ref) = reference.next_completion(t0).unwrap();
        assert_eq!(next_ref, TaskId(0));
        assert!((at_ref.as_secs_f64() - 1.0).abs() < 1e-9);
        // The parked task keeps its exact remaining through time and
        // removal — no infinities leak into the accounting.
        cpu.advance(SimTime::from_secs(5));
        assert_eq!(cpu.remaining(parked), 1.0);
        assert!(!cpu.finished_tasks(SimTime::from_secs(5)).contains(&parked));
        let residual = cpu.remove_task(SimTime::from_secs(5), parked);
        assert_eq!(residual, 1.0);
        assert!(cpu.work_done().is_finite());
    }

    #[test]
    fn finished_tasks_into_reuses_buffer() {
        let mut cpu = GpsCpu::new(params(1.0, 0.0));
        let a = cpu.add_task(SimTime::ZERO, 0.5, 1.0, 1.0);
        let b = cpu.add_task(SimTime::ZERO, 0.5, 1.0, 1.0);
        let mut buf = vec![TaskId(99)];
        cpu.finished_tasks_into(SimTime::from_secs(1), &mut buf);
        assert_eq!(buf, vec![a, b], "both finished, slot order, buffer cleared");
    }

    #[test]
    #[should_panic(expected = "positive finite capacity")]
    fn non_finite_cores_rejected() {
        GpsCpu::new(params(f64::INFINITY, 0.0));
    }

    #[test]
    #[should_panic(expected = "positive finite capacity")]
    fn nan_cores_rejected() {
        GpsCpu::new(params(f64::NAN, 0.0));
    }

    #[test]
    #[should_panic(expected = "context-switch penalty")]
    fn nan_kappa_rejected() {
        GpsCpu::new(params(4.0, f64::NAN));
    }

    #[test]
    #[should_panic(expected = "context-switch penalty")]
    fn negative_kappa_rejected() {
        GpsCpu::new(params(4.0, -0.1));
    }

    #[test]
    #[should_panic(expected = "capacity-loss divisor cap")]
    fn penalty_cap_below_one_rejected() {
        GpsCpu::new(GpsParams {
            cores: 4.0,
            ctx_switch_penalty: 0.1,
            penalty_cap: 0.5,
        });
    }

    #[test]
    #[should_panic(expected = "capacity-loss divisor cap")]
    fn reference_rejects_malformed_params_too() {
        crate::gps_reference::ReferenceGpsCpu::new(GpsParams {
            cores: 4.0,
            ctx_switch_penalty: 0.1,
            penalty_cap: f64::NAN,
        });
    }

    #[test]
    #[should_panic(expected = "positive finite capacity")]
    fn set_capacity_rejects_invalid_cores() {
        let mut cpu = GpsCpu::new(params(4.0, 0.0));
        cpu.set_capacity(SimTime::ZERO, 0.0);
    }

    #[test]
    fn set_capacity_changes_one_class_rate_going_forward() {
        let mut cpu = GpsCpu::new(params(4.0, 0.0));
        let mut reference = crate::gps_reference::ReferenceGpsCpu::new(params(4.0, 0.0));
        let t0 = SimTime::ZERO;
        // Eight unit tasks on four cores: each runs at 0.5.
        let ids: Vec<TaskId> = (0..8).map(|_| cpu.add_task(t0, 2.0, 1.0, 1.0)).collect();
        for _ in &ids {
            reference.add_task(t0, 2.0, 1.0, 1.0);
        }
        assert!((cpu.current_rate(ids[0]) - 0.5).abs() < 1e-12);
        // One second of service at the old capacity, then halve the node.
        let t1 = SimTime::from_secs(1);
        let crossings = cpu.boundary_crossings();
        cpu.set_capacity(t1, 2.0);
        reference.set_capacity(t1, 2.0);
        assert!((cpu.current_rate(ids[0]) - 0.25).abs() < 1e-12);
        assert_eq!(cpu.current_rate(ids[0]), reference.current_rate(ids[0]));
        // Work served before the change was under the old capacity...
        assert!((cpu.remaining(ids[0]) - 1.5).abs() < 1e-9);
        assert!((cpu.remaining(ids[0]) - reference.remaining(ids[0])).abs() < 1e-9);
        // ...and the completion reflects the degraded rate: 1.5 core-s
        // left at 0.25 cores = 6 more seconds.
        let (_, at) = cpu.next_completion(t1).unwrap();
        let (_, at_ref) = reference.next_completion(t1).unwrap();
        assert!((at.as_secs_f64() - 7.0).abs() < 1e-9);
        assert!((at.as_secs_f64() - at_ref.as_secs_f64()).abs() < 1e-9);
        // The one class stayed uncapped: nothing crossed.
        assert_eq!(cpu.boundary_crossings(), crossings);
        assert_eq!(cpu.class_count(), 1);
    }

    #[test]
    fn set_capacity_moves_the_next_completion_and_is_idempotent() {
        // A task capped at all 4 cores: halving the capacity unpins it and
        // doubles its completion time.
        let mut cpu = GpsCpu::new(params(4.0, 0.0));
        cpu.add_task(SimTime::ZERO, 4.0, 1.0, 4.0);
        let before = cpu.next_completion(SimTime::ZERO);
        cpu.set_capacity(SimTime::ZERO, 2.0);
        let after = cpu.next_completion(SimTime::ZERO);
        assert_ne!(after, before, "the owner must see the new completion");
        let crossings = cpu.boundary_crossings();
        // Re-asserting the same capacity is a no-op (fault plans may emit
        // redundant restoration events).
        cpu.set_capacity(SimTime::ZERO, 2.0);
        assert_eq!(cpu.next_completion(SimTime::ZERO), after);
        assert_eq!(cpu.boundary_crossings(), crossings);
    }

    #[test]
    fn set_capacity_rebalances_the_weighted_partition() {
        // Capped ladder on generous capacity: everyone uncapped... then a
        // degradation pins the low-ratio rungs, and a restoration unpins
        // them — both via the boundary-crossing machinery, matching the
        // reference integrator's freshly-computed rates throughout.
        let mut cpu = GpsCpu::new(params(8.0, 0.0));
        let mut reference = crate::gps_reference::ReferenceGpsCpu::new(params(8.0, 0.0));
        let t0 = SimTime::ZERO;
        let sigs = [(1.0, 0.25), (1.0, 0.5), (1.0, 1.0), (2.0, 1.0)];
        let mut ids = Vec::new();
        for &(w, c) in &sigs {
            ids.push(cpu.add_task(t0, 10.0, w, c));
            reference.add_task(t0, 10.0, w, c);
        }
        let before = cpu.boundary_crossings();
        let t1 = SimTime::from_secs(1);
        cpu.set_capacity(t1, 1.0);
        reference.set_capacity(t1, 1.0);
        assert!(
            cpu.boundary_crossings() > before,
            "degradation must move the capped/uncapped boundary"
        );
        for &id in &ids {
            assert!(
                (cpu.current_rate(id) - reference.current_rate(id)).abs() < 1e-9,
                "degraded rate diverged for {id:?}"
            );
            assert!((cpu.remaining(id) - reference.remaining(id)).abs() < 1e-9);
        }
        let t2 = SimTime::from_secs(2);
        cpu.set_capacity(t2, 8.0);
        reference.set_capacity(t2, 8.0);
        for &id in &ids {
            assert!(
                (cpu.current_rate(id) - reference.current_rate(id)).abs() < 1e-9,
                "restored rate diverged for {id:?}"
            );
        }
        // Drain to completion under one more mid-stream capacity flip.
        let t3 = SimTime::from_secs(3);
        cpu.set_capacity(t3, 2.0);
        reference.set_capacity(t3, 2.0);
        let mut now = t3;
        while !reference.is_empty() {
            let (id, at) = reference.next_completion(now).unwrap();
            let (id_opt, at_opt) = cpu.next_completion(now).unwrap();
            assert_eq!(id, id_opt);
            assert!((at.as_secs_f64() - at_opt.as_secs_f64()).abs() < 1e-6);
            now = now.max(at);
            for done in reference.finished_tasks(now) {
                let ra = cpu.remove_task(now, done);
                let rb = reference.remove_task(now, done);
                assert!((ra - rb).abs() < 1e-6);
            }
        }
        assert!(cpu.is_empty());
        assert!((cpu.work_done() - reference.work_done()).abs() < 1e-6);
    }

    #[test]
    fn profile_normalizes_to_dominant_units() {
        assert_eq!(ResourceVector::CPU_ONLY.profile(), [1.0, 0.0]);
        assert_eq!(ResourceVector::CPU_ONLY.dominant(), Resource::Cpu);
        // CPU-dominant: mem expressed per CPU unit.
        let v = ResourceVector::per_cpu(0.5);
        assert_eq!(v.profile(), [1.0, 0.5]);
        assert_eq!(v.dominant(), Resource::Cpu);
        assert_eq!(v.dominant_per_cpu(), 1.0);
        // Memory-dominant: the profile flips, CPU becomes the fraction.
        let v = ResourceVector::per_cpu(4.0);
        assert_eq!(v.profile(), [0.25, 1.0]);
        assert_eq!(v.dominant(), Resource::Mem);
        assert_eq!(v.dominant_per_cpu(), 4.0);
        // An exact tie is CPU-dominant; -0.0 mem is sanitized to +0.0.
        assert_eq!(
            ResourceVector { cpu: 2.0, mem: 2.0 }.dominant(),
            Resource::Cpu
        );
        let z = ResourceVector {
            cpu: 1.0,
            mem: -0.0,
        };
        assert_eq!(z.profile()[1].to_bits(), 0.0f64.to_bits());
    }

    #[test]
    #[should_panic(expected = "at least one resource")]
    fn all_zero_demand_rejected() {
        ResourceVector { cpu: 0.0, mem: 0.0 }.profile();
    }

    #[test]
    fn cpu_only_demand_is_bit_identical_to_scalar_path() {
        // The degenerate profile must reduce to the scalar kernel exactly:
        // drive a weighted churn through `add_task` and through
        // `add_task_demand(CPU_ONLY)` and require bit-equality on every
        // observable after every step.
        let sigs = [(1.0, 1.0), (2.5, 1.0), (1.0, 0.5), (4.0, 0.25)];
        let mut scalar = GpsCpu::new(params(3.0, 0.2));
        let mut demand = GpsCpu::new(params(3.0, 0.2));
        let mut t = SimTime::ZERO;
        let mut live = Vec::new();
        for step in 0..120u64 {
            t += SimDuration::from_millis(37 + step % 91);
            let (w, c) = sigs[(step % 4) as usize];
            let work = 0.05 + (step % 11) as f64 * 0.07;
            let a = scalar.add_task(t, work, w, c);
            let b = demand.add_task_demand(t, work, w, c, ResourceVector::CPU_ONLY);
            assert_eq!(a, b, "slot allocation diverged");
            live.push(a);
            if step % 3 == 2 {
                let id = live.remove(0);
                let ra = scalar.remove_task(t, id);
                let rb = demand.remove_task(t, id);
                assert_eq!(ra.to_bits(), rb.to_bits(), "residual diverged");
            }
            assert_eq!(scalar.work_done().to_bits(), demand.work_done().to_bits());
            for &id in &live {
                assert_eq!(
                    scalar.remaining(id).to_bits(),
                    demand.remaining(id).to_bits(),
                    "remaining diverged at step {step}"
                );
            }
            assert_eq!(scalar.next_completion(t), demand.next_completion(t));
        }
    }

    #[test]
    fn dominant_share_allocation_on_two_axes() {
        // 4 cores, 2 bandwidth units. A demands both axes equally, B is
        // CPU-only; both uncapped. W_cpu = 2, W_mem = 1, so
        // λ = min(4/2, 2/1) = 2 and both axes are exactly saturated.
        let mut cpu = GpsCpu::new(params(4.0, 0.0));
        cpu.set_resource_capacity(SimTime::ZERO, Resource::Mem, 2.0);
        let a = cpu.add_task_demand(SimTime::ZERO, 1.0, 1.0, 10.0, ResourceVector::per_cpu(1.0));
        let b = cpu.add_task_demand(SimTime::ZERO, 1.0, 1.0, 10.0, ResourceVector::CPU_ONLY);
        assert_eq!(cpu.class_count(), 1, "equal pin ratios share a class");
        assert_eq!(cpu.water_level(), 2.0);
        assert!((cpu.current_rate(a) - 2.0).abs() < 1e-12);
        assert!((cpu.current_rate(b) - 2.0).abs() < 1e-12);
        assert!((cpu.resource_consumption(Resource::Cpu) - 4.0).abs() < 1e-12);
        assert!((cpu.resource_consumption(Resource::Mem) - 2.0).abs() < 1e-12);
        // Halve the bandwidth: the memory axis binds, λ drops to 1, and
        // the CPU axis is left with slack (Pareto: the *binding* axis is
        // consumed).
        let t1 = SimTime::from_secs(0);
        cpu.set_resource_capacity(t1, Resource::Mem, 1.0);
        assert_eq!(cpu.water_level(), 1.0);
        assert!((cpu.current_rate(a) - 1.0).abs() < 1e-12);
        assert!((cpu.current_rate(b) - 1.0).abs() < 1e-12);
        assert!((cpu.resource_consumption(Resource::Mem) - 1.0).abs() < 1e-12);
        assert!((cpu.resource_consumption(Resource::Cpu) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn memory_bound_one_class_bank_binds_on_bandwidth() {
        // Two identical tasks demanding bandwidth 1:1 with CPU on a node
        // with 4 cores but 1 bandwidth unit: the common rate is
        // min(max_rate, 4/2, 1/2) = 0.5, set by the memory axis.
        let mut cpu = GpsCpu::new(params(4.0, 0.0));
        let mut reference = crate::gps_reference::ReferenceGpsCpu::new(params(4.0, 0.0));
        let demand = ResourceVector::per_cpu(1.0);
        cpu.set_resource_capacity(SimTime::ZERO, Resource::Mem, 1.0);
        reference.set_resource_capacity(SimTime::ZERO, Resource::Mem, 1.0);
        let a = cpu.add_task_demand(SimTime::ZERO, 1.0, 1.0, 1.0, demand);
        let _b = cpu.add_task_demand(SimTime::ZERO, 1.0, 1.0, 1.0, demand);
        for _ in 0..2 {
            reference.add_task_demand(SimTime::ZERO, 1.0, 1.0, 1.0, demand);
        }
        assert_eq!(cpu.class_count(), 1);
        assert_eq!(cpu.water_level(), 0.5);
        assert!((cpu.current_rate(a) - 0.5).abs() < 1e-12);
        assert_eq!(cpu.current_rate(a), reference.current_rate(a));
        let (_, at) = cpu.next_completion(SimTime::ZERO).unwrap();
        let (_, at_ref) = reference.next_completion(SimTime::ZERO).unwrap();
        assert!((at.as_secs_f64() - 2.0).abs() < 1e-9);
        assert_eq!(at, at_ref);
        // Restoring infinite bandwidth re-binds on the CPU axis (rate 1.0
        // via the max_rate cap): the class crosses to the capped side.
        cpu.set_resource_capacity(SimTime::ZERO, Resource::Mem, f64::INFINITY);
        reference.set_resource_capacity(SimTime::ZERO, Resource::Mem, f64::INFINITY);
        assert!((cpu.current_rate(a) - 1.0).abs() < 1e-12);
        assert_eq!(cpu.current_rate(a), reference.current_rate(a));
        assert_eq!(cpu.partition_sizes(), (0, 2));
    }

    #[test]
    fn memory_dominant_task_runs_in_bandwidth_units() {
        // One task demanding 4 bandwidth units per CPU unit: work and
        // max_rate are handed over in dominant (bandwidth) units. With 8
        // bandwidth units and plenty of CPU it depletes at its 2.0
        // bandwidth-unit cap: 4 dominant units of work take 2 s, and the
        // CPU consumed is a quarter of the bandwidth.
        let mut cpu = GpsCpu::new(params(4.0, 0.0));
        cpu.set_resource_capacity(SimTime::ZERO, Resource::Mem, 8.0);
        let v = ResourceVector::per_cpu(4.0);
        let scale = v.dominant_per_cpu();
        assert_eq!(scale, 4.0);
        let cpu_work = 1.0;
        let cpu_cap = 0.5;
        let id = cpu.add_task_demand(SimTime::ZERO, cpu_work * scale, 1.0, cpu_cap * scale, v);
        assert!((cpu.current_rate(id) - 2.0).abs() < 1e-12);
        assert!((cpu.resource_consumption(Resource::Mem) - 2.0).abs() < 1e-12);
        assert!((cpu.resource_consumption(Resource::Cpu) - 0.5).abs() < 1e-12);
        let (_, at) = cpu.next_completion(SimTime::ZERO).unwrap();
        assert!((at.as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn set_mem_capacity_moves_the_next_completion_and_is_idempotent() {
        let mut cpu = GpsCpu::new(params(4.0, 0.0));
        assert_eq!(cpu.resource_capacity(Resource::Mem), f64::INFINITY);
        assert_eq!(cpu.resource_capacity(Resource::Cpu), 4.0);
        // A memory-dominant task capped at 4 units/s: 2 units of bandwidth
        // unpin it and double its completion time.
        let demand = ResourceVector::per_cpu(2.0);
        cpu.add_task_demand(SimTime::ZERO, 4.0, 1.0, 4.0, demand);
        let before = cpu.next_completion(SimTime::ZERO);
        cpu.set_resource_capacity(SimTime::ZERO, Resource::Mem, 2.0);
        let after = cpu.next_completion(SimTime::ZERO);
        assert_ne!(after, before, "the owner must see the new completion");
        let crossings = cpu.boundary_crossings();
        cpu.set_resource_capacity(SimTime::ZERO, Resource::Mem, 2.0);
        assert_eq!(cpu.next_completion(SimTime::ZERO), after, "a no-op");
        assert_eq!(cpu.boundary_crossings(), crossings);
    }

    #[test]
    #[should_panic(expected = "memory bandwidth must be positive")]
    fn non_positive_mem_capacity_rejected() {
        let mut cpu = GpsCpu::new(params(4.0, 0.0));
        cpu.set_resource_capacity(SimTime::ZERO, Resource::Mem, 0.0);
    }
}
