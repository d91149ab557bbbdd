//! Generalized processor sharing with context-switch overhead: the baseline
//! OpenWhisk CPU regime, implemented as a **virtual-time kernel**.
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
//! # Virtual-time formulation
//!
//! The interface is driven once per simulation event, and the baseline node
//! oversubscribes hundreds of containers onto a handful of cores — exactly
//! the regime where the naive integrator (deplete every slot on every
//! `advance`, rescan every slot on every `next_completion`) costs
//! O(events × tasks). That integrator survives as
//! [`crate::gps_reference::ReferenceGpsCpu`], the executable specification
//! this kernel is differentially tested against.
//!
//! The production kernel exploits a structural property of GPS: *between
//! membership changes the rate vector is constant*, and in the common
//! uniform case (all tasks share one `(weight, max_rate)` signature — the
//! invoker always uses `(1.0, 1.0)`) every task receives the **same** rate
//! `r = min(C_eff / n, max_rate)`. Define the *virtual time*
//!
//! ```text
//! V(t) = ∫₀ᵗ r(s) ds      (cumulative service per task)
//! ```
//!
//! Then a task that joins at virtual time `V₀` with `w` core-seconds of work
//! finishes exactly when `V` reaches `V₀ + w`, **independently of any later
//! membership changes** — later arrivals merely slow the growth of `V`
//! itself. This turns the kernel into three O(1)/O(log n) pieces:
//!
//! * [`GpsCpu::advance`] is one multiply-add on `V` (plus an amortized
//!   heap drain of tasks whose finish virtual-time was passed);
//! * the per-task rate is memoized on the membership [`GpsCpu::generation`]
//!   and recomputed only when the task set actually changes;
//! * completions live in a min-heap keyed by `(finish_V, slot)`, so
//!   [`GpsCpu::next_completion`] is a heap peek and
//!   [`GpsCpu::finished_tasks`] pops only the tasks that actually finished.
//!   The `(finish_V, slot)` key also preserves the deterministic
//!   lowest-slot tie-break of the reference integrator, because heap order
//!   is membership-invariant in virtual time.
//!
//! # Weighted (general) mode: the incremental capped/uncapped partition
//!
//! Heterogeneous weights or rate caps (weighted containers) break the
//! single-virtual-clock property. The water-filling fixed point has a
//! threshold structure: for the current capacity `C_eff` there is a
//! *water level* `λ` (service per unit weight) such that
//!
//! ```text
//! rate_i = min(max_rate_i, weight_i * λ)
//! ```
//!
//! and a task is **capped** (pinned at its `max_rate`) exactly when its
//! *pin ratio* `r_i = max_rate_i / weight_i` satisfies `r_i <= λ`. The
//! kernel maintains that partition incrementally instead of re-deriving it
//! from scratch on every membership change: two ordered sets keyed by the
//! pin ratio, plus running sums `W = Σ weight` over the uncapped set and
//! `K = Σ max_rate` over the capped set (compensated, so incremental
//! updates do not drift), from which `λ = (C_eff − K) / W`.
//!
//! **Water-level monotonicity.** Moving a boundary task in the direction
//! its ratio demands can only *raise* the level: pinning a task with
//! `r_i <= λ` yields `λ' = (C−K−cap_i)/(W−w_i)` with
//! `λ' − λ ∝ w_i (λ − r_i) >= 0`, and unpinning a task with `r_i > λ`
//! yields `λ' − λ ∝ w_i (r_i − λ) > 0`. Rebalancing after a membership
//! change is therefore two sweeps — unpin from the top of the capped
//! order while `r > λ`, then pin from the bottom of the uncapped order
//! while `r <= λ` — each move `O(log n)`, and neither sweep can
//! re-enable the other because both only raise `λ`. The boundary
//! typically crosses O(1) tasks per event, so the rate refresh is
//! O(log n) amortized where the seed re-ran the full O(n·rounds)
//! water-filling; the O(n log n) partition build happens only on the
//! uniform→general representation switch, which already costs O(n).
//!
//! # The two general-mode clocks
//!
//! The partition makes every *rate* cheap; time progression is made cheap
//! by the observation that between membership changes each side of the
//! partition depletes against its own clock:
//!
//! * An **uncapped** task depletes at `weight_i * λ`. Define the uncapped
//!   virtual clock `U(t) = ∫ λ(s) ds` (service per unit weight —
//!   [`GpsCpu::advance`] adds `λ · dt`). A task that is uncapped with
//!   `rem` core-seconds left at `U = U₀` finishes when `U` reaches the
//!   **fixed coordinate** `U₀ + rem / weight_i`, however `λ` moves in
//!   between: rate changes slow or speed the growth of `U` itself, never
//!   the task's coordinate.
//! * A **capped** task depletes at the constant `max_rate_i`, so plain
//!   real time covers it: with `rem` left at general-mode clock `R₀`
//!   (seconds of general-mode residence), it finishes at the fixed
//!   coordinate `R₀ + rem / max_rate_i`.
//!
//! Each family keeps its unfinished tasks in a min-heap keyed by the
//! *freeze coordinate* `finish − ε/axis` (`axis` = `weight` for the
//! uncapped family, `max_rate` for the capped one), which is exactly the
//! clock value at which the task's remaining work drops to the
//! [`WORK_EPSILON`] "numerically finished" threshold — so draining each
//! heap while `key <= clock` collects precisely the finished set without
//! scanning slots, and an exhausted task surfaces even when its rate is
//! zero-ish (the uniform path's `finished_pending` rule; the freeze
//! coordinate does not involve `λ`). `advance` is then two clock bumps,
//! one compensated `work_done` update from the running unfinished-weight /
//! unfinished-cap sums, and the amortized drain; `next_completion`
//! compares the two family heads (`(finish_U − U)/λ` against
//! `finish_R − R`) in O(log n).
//!
//! **Epoch on boundary crossing.** Heap keys are only valid while the
//! task stays on its side of the partition: a crossing changes the axis
//! (and the clock) its coordinate is expressed in. When a rebalance sweep
//! moves a task across the boundary, the kernel re-derives `rem` from the
//! old coordinate, bumps the slot's epoch (the same slot/epoch discipline
//! the indexed event heap of PR 2 and the uniform heap use), and pushes a
//! fresh key on the other family's heap; the stale entry is discarded
//! lazily when it surfaces, because its epoch no longer matches the slot.
//! Since each sweep move is a boundary crossing and the boundary crosses
//! O(1) tasks per event in steady state, membership churn stays O(log n)
//! amortized end to end — there is no O(n) re-keying, and tasks that do
//! not cross keep their coordinates bit-for-bit.
//!
//! # Dynamic capacity and the capacity-rebase invariant
//!
//! The fault-injection layer (`faas_workload::faults`) degrades and
//! restores node capacity mid-run — cgroup throttling, noisy neighbors,
//! autoscale lag. [`GpsCpu::set_capacity`] supports this in O(log n)
//! amortized because **every stored completion coordinate is
//! capacity-invariant**: uniform-mode tasks finish at a fixed virtual time
//! (capacity only changes how fast `V` grows afterwards), general-mode
//! uncapped tasks finish at a fixed `U`-clock coordinate (λ moves, the
//! coordinate does not), and capped tasks deplete at their constant
//! `max_rate` on the real clock. A capacity change therefore reduces to:
//! settle work under the old capacity, swap the parameter, bump the
//! generation, and in general mode run the two rebalance sweeps — the
//! water level moved, so the boundary-crossing machinery re-keys exactly
//! the tasks whose pin ratio the level crossed. Everything else keeps its
//! coordinate bit-for-bit, which is what the capacity-thrash differential
//! suite (`tests/prop_gps_faults.rs`) pins against the reference
//! integrator.
//!
//! # Multi-resource demands and dominant-share allocation (DRF)
//!
//! Tasks may demand a second resource — memory bandwidth — alongside CPU.
//! A task's [`ResourceVector`] demand is normalized into a *profile*
//! `g = [g_cpu, g_mem]` whose **dominant** component is exactly `1.0` (the
//! other is demand per dominant unit, in `[0, 1]`); `work`, `weight`-shares
//! and `max_rate` are then expressed in dominant-resource units. The
//! water-filling machinery generalizes axis-wise:
//!
//! ```text
//! W_k = Σ_uncapped weight_i · g_ik     K_k = Σ_capped max_rate_i · g_ik
//! λ_k = (C_k − K_k) / W_k             λ  = min_k λ_k
//! rate_i = min(max_rate_i, weight_i · λ)      (dominant units / sec)
//! ```
//!
//! **The dominant-share invariant:** a task is capped exactly when its pin
//! ratio `r_i = max_rate_i / weight_i` satisfies `r_i <= λ`, with `λ` the
//! *minimum* per-axis water level — the level of the binding (saturated)
//! resource. The single-threshold two-sweep structure survives because
//! unpinning a task with `r_i > λ` makes every per-axis level a weighted
//! average of `λ_k` and `r_i` (`λ_k' = (λ_k W_k + r_i w_i g_ik) /
//! (W_k + w_i g_ik)`), so `min_k λ_k` cannot fall below `min(λ, r_i) = λ`,
//! and pinning a task with `r_j <= λ` moves every level away from `r_j`
//! (upward) — both sweeps only raise the minimum level, exactly the
//! monotonicity the scalar proof used. The two-clock progression carries
//! over unchanged with `U = ∫ λ dt` integrating the minimum level. On the
//! binding axis capacity is exactly consumed (`λ·W_b + K_b = C_b`, Pareto
//! efficiency) and `λ >= C_b / Σ w_i` (sharing incentive: no uncapped
//! task's dominant-unit rate falls below its weighted equal split of the
//! contended axis) — both pinned by `tests/prop_gps_drf.rs`.
//!
//! The single-resource path is the degenerate profile `g = [1.0, 0.0]`
//! with the memory axis disabled ([`GpsCpu::set_resource_capacity`] left
//! at the `+∞` default): the axis-1 sums stay exactly `0.0`, the axis-1
//! level is `+∞` and drops out of the `min`, and every floating-point
//! operation sequence reduces bit-for-bit to the scalar kernel's — pinned
//! by the digest-regression and differential suites.
//!
//! The structure is a pure state machine over simulated time. The owner
//! drives it with [`GpsCpu::advance`] and re-queries
//! [`GpsCpu::next_completion`] after every membership change; stale
//! completion events are invalidated by a generation counter.

use faas_simcore::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap, HashMap};

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
    /// Tasks added with this profile take the bit-identical scalar path.
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
    /// `+0.0` (so the degenerate single-resource profile is bit-exact
    /// `[1.0, 0.0]` and `-0.0` inputs cannot split the uniform-mode
    /// signature).
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

/// Rebase the virtual clock once it exceeds this magnitude (2^14
/// core-seconds of per-task service). The epsilon-finish machinery needs
/// `ulp(vt) << WORK_EPSILON`; left unbounded, a never-idle bank would erode
/// that headroom (`ulp(1e7) ≈ 2e-9`). Rebasing is O(live tasks) and fires
/// at most once per 16384 core-seconds of service, so it is amortized
/// free; as a bonus it discards all stale heap entries.
const VT_REBASE_THRESHOLD: f64 = 16384.0;

/// `(weight, max_rate, g_cpu, g_mem)` signature used to detect the uniform
/// fast path. Bit-level equality matches the reference integrator's `!=`
/// comparison (weights are asserted positive, profile components are
/// normalized with zeros pinned to `+0.0`, so `-0.0`/NaN cannot occur).
type Signature = (u64, u64, u64, u64);

fn signature(weight: f64, max_rate: f64, demand: [f64; AXES]) -> Signature {
    (
        weight.to_bits(),
        max_rate.to_bits(),
        demand[0].to_bits(),
        demand[1].to_bits(),
    )
}

/// Partition-order key: `(pin ratio bits, slot)`. Weights and caps are
/// positive, so the IEEE bit pattern of `max_rate / weight` orders exactly
/// like the ratio itself; the slot index makes ties deterministic.
type PartKey = (u64, u32);

fn pin_ratio_bits(weight: f64, max_rate: f64) -> u64 {
    (max_rate / weight).to_bits()
}

/// Neumaier-compensated running sum: the partition sums see a long stream
/// of incremental `+weight`/`-weight` updates, and plain f64 accumulation
/// would slowly drift away from the freshly-summed value the reference
/// integrator computes.
#[derive(Debug, Clone, Copy, Default)]
struct CompensatedSum {
    sum: f64,
    comp: f64,
}

impl CompensatedSum {
    const ZERO: CompensatedSum = CompensatedSum {
        sum: 0.0,
        comp: 0.0,
    };

    fn add(&mut self, x: f64) {
        let t = self.sum + x;
        if self.sum.abs() >= x.abs() {
            self.comp += (self.sum - t) + x;
        } else {
            self.comp += (x - t) + self.sum;
        }
        self.sum = t;
    }

    fn value(&self) -> f64 {
        self.sum + self.comp
    }
}

#[derive(Debug, Clone, Copy)]
enum Body {
    /// Uniform-mode unfinished task: completes when the virtual clock
    /// reaches `finish_vt`.
    Virtual {
        /// Virtual time at which the task's work is exhausted.
        finish_vt: f64,
    },
    /// Explicit remaining work: tasks (in either mode) whose work is
    /// numerically exhausted and which wait in `finished_pending` for the
    /// owner to remove them.
    Settled {
        /// Remaining CPU work in core-seconds.
        remaining: f64,
    },
    /// General-mode unfinished task on the uncapped side: completes when
    /// the uncapped virtual clock reaches `finish_uvt`.
    GenUncapped {
        /// Uncapped-clock coordinate at which the work is exhausted.
        finish_uvt: f64,
    },
    /// General-mode unfinished task pinned at its rate cap: completes
    /// when the general-mode real clock reaches `finish_rt`.
    GenCapped {
        /// Real-clock coordinate at which the work is exhausted.
        finish_rt: f64,
    },
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    weight: f64,
    max_rate: f64,
    /// Normalized demand profile `[g_cpu, g_mem]` (dominant component
    /// exactly `1.0`; single-resource tasks carry `[1.0, 0.0]`).
    demand: [f64; AXES],
    /// Distinguishes reincarnations of a recycled slot in stale heap keys.
    epoch: u64,
    /// General mode: true while the task sits in the capped side of the
    /// water-filling partition (rate pinned at `max_rate`). Meaningless in
    /// uniform mode.
    capped: bool,
    body: Body,
}

/// Min-heap key ordering completions by `(finish_vt, slot)`; the slot
/// component reproduces the reference kernel's lowest-slot tie-break.
#[derive(Debug, Clone, Copy)]
struct HeapKey {
    finish_vt: f64,
    slot: u32,
    epoch: u64,
}

impl PartialEq for HeapKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapKey {}
impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> Ordering {
        // Inverted: BinaryHeap is a max-heap, we want the earliest
        // (finish_vt, slot) on top.
        other
            .finish_vt
            .total_cmp(&self.finish_vt)
            .then_with(|| other.slot.cmp(&self.slot))
    }
}

/// General-mode heap entry: `key` is the *freeze coordinate*
/// `finish − WORK_EPSILON / axis` (the clock value at which remaining work
/// hits the numerically-finished threshold), `finish` the true completion
/// coordinate on the family clock. Min-ordered by `(key, slot)`; the slot
/// component keeps same-signature ties deterministic.
#[derive(Debug, Clone, Copy)]
struct GenKey {
    key: f64,
    finish: f64,
    slot: u32,
    epoch: u64,
}

impl PartialEq for GenKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for GenKey {}
impl PartialOrd for GenKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for GenKey {
    fn cmp(&self, other: &Self) -> Ordering {
        // Inverted for BinaryHeap: earliest (key, slot) on top.
        other
            .key
            .total_cmp(&self.key)
            .then_with(|| other.slot.cmp(&self.slot))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Single `(weight, max_rate)` signature: O(1) virtual-time advance.
    Uniform,
    /// Heterogeneous signatures: incremental water-filling partition with
    /// per-family clock coordinates.
    General,
}

/// The two general-mode completion families, each with its own clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    /// Depletes at `weight * λ`; coordinates on the uncapped virtual clock.
    Uncapped,
    /// Depletes at the constant `max_rate`; coordinates on the real clock.
    Capped,
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
    /// Incremented on every membership change; lets the owner discard stale
    /// completion events, and keys the rate memo.
    generation: u64,
    /// Total core-seconds of work completed, for conservation checks.
    /// Neumaier-compensated: long runs accumulate one blanket update per
    /// `advance` plus overshoot corrections, and plain `+=` would drift
    /// against the freshly-summed reference accounting.
    work_done: CompensatedSum,
    /// Next slot epoch (bumped on every add, never reused).
    next_epoch: u64,
    /// Live-task count per `(weight, max_rate)` signature; a single entry
    /// enables the uniform virtual-time representation.
    sig_counts: HashMap<Signature, usize>,
    mode: Mode,

    // ---- Uniform-mode state ----
    /// The virtual clock: cumulative per-task service since the last rebase.
    vt: f64,
    /// Completion heap over unfinished uniform tasks.
    heap: BinaryHeap<HeapKey>,
    /// Number of live unfinished (`Body::Virtual`) tasks.
    unfinished: usize,
    /// Slots whose work is exhausted but which still occupy the bank until
    /// the owner removes them (unsorted; sorted on query). Shared by both
    /// modes: the general-mode heap drain lands finished tasks here too.
    finished_pending: Vec<u32>,

    // ---- Uniform-rate memo (valid while `rates_generation ==
    // Some(generation)`; general mode keeps its rates implicit in the
    // partition instead) ----
    rates_generation: Option<u64>,
    /// Uniform mode: the common task rate.
    uniform_rate: f64,

    // ---- General-mode partition state ----
    /// Uncapped tasks ordered by pin ratio ascending: the head is the next
    /// task to pin as the water level rises.
    part_uncapped: BTreeSet<PartKey>,
    /// Capped tasks in the same order: the tail is the next task to unpin
    /// as the water level falls.
    part_capped: BTreeSet<PartKey>,
    /// `W_k = Σ weight·g_k` over the uncapped set, per resource axis.
    uncapped_weight: [CompensatedSum; AXES],
    /// `K_k = Σ max_rate·g_k` over the capped set, per resource axis.
    capped_capacity: [CompensatedSum; AXES],
    /// The water level `λ` for the current membership (general mode).
    water_level: f64,

    // ---- General-mode two-clock state ----
    /// The uncapped virtual clock `U = ∫ λ dt`: cumulative service per
    /// unit weight since the last general-mode rebase.
    g_uvt: f64,
    /// The capped real clock `R`: seconds of general-mode residence since
    /// the last rebase (capped tasks deplete at their constant cap).
    g_rt: f64,
    /// Completion heap over unfinished uncapped tasks, keyed by the freeze
    /// coordinate on the `U` axis.
    g_uncapped_heap: BinaryHeap<GenKey>,
    /// Completion heap over unfinished capped tasks, keyed by the freeze
    /// coordinate on the `R` axis.
    g_capped_heap: BinaryHeap<GenKey>,
    /// Σ weight over *unfinished* uncapped tasks (blanket `work_done`
    /// accounting; frozen tasks leave it).
    unf_uncapped_weight: CompensatedSum,
    /// Number of unfinished uncapped tasks (pins the sum to exact zero).
    unf_uncapped_count: usize,
    /// Σ max_rate over *unfinished* capped tasks.
    unf_capped_rate: CompensatedSum,
    /// Number of unfinished capped tasks.
    unf_capped_count: usize,
    /// Total capped/uncapped boundary crossings (test introspection: the
    /// thrash suites assert their schedules actually exercise re-keying).
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
            generation: 0,
            work_done: CompensatedSum::ZERO,
            next_epoch: 0,
            sig_counts: HashMap::new(),
            mode: Mode::Uniform,
            vt: 0.0,
            heap: BinaryHeap::new(),
            unfinished: 0,
            finished_pending: Vec::new(),
            rates_generation: None,
            uniform_rate: 0.0,
            part_uncapped: BTreeSet::new(),
            part_capped: BTreeSet::new(),
            uncapped_weight: [CompensatedSum::ZERO; AXES],
            capped_capacity: [CompensatedSum::ZERO; AXES],
            water_level: 0.0,
            g_uvt: 0.0,
            g_rt: 0.0,
            g_uncapped_heap: BinaryHeap::new(),
            g_capped_heap: BinaryHeap::new(),
            unf_uncapped_weight: CompensatedSum::ZERO,
            unf_uncapped_count: 0,
            unf_capped_rate: CompensatedSum::ZERO,
            unf_capped_count: 0,
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

    /// Current generation; bumped on every add/remove.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Total core-seconds of service delivered so far.
    pub fn work_done(&self) -> f64 {
        self.work_done.value()
    }

    /// Total number of capped/uncapped boundary crossings so far (general
    /// mode re-keys exactly the crossing tasks). Test introspection: the
    /// boundary-thrash suites assert their schedules exercise this path.
    pub fn boundary_crossings(&self) -> u64 {
        self.boundary_crossings
    }

    /// True while the bank runs the uniform virtual-time representation
    /// (single `(weight, max_rate)` signature — the invoker's hot path).
    /// Test/introspection hook: homogeneous workloads must never leave it.
    pub fn is_uniform_mode(&self) -> bool {
        self.mode == Mode::Uniform
    }

    /// `(uncapped, capped)` sizes of the general-mode water-filling
    /// partition; both zero in uniform mode, whose fast path never touches
    /// the partition structure.
    pub fn partition_sizes(&self) -> (usize, usize) {
        (self.part_uncapped.len(), self.part_capped.len())
    }

    /// The general-mode water level `λ` (service rate per unit weight);
    /// `None` in uniform mode.
    pub fn water_level(&self) -> Option<f64> {
        (self.mode == Mode::General).then_some(self.water_level)
    }

    /// Instantaneous service rate of `id` under the current task set.
    pub fn current_rate(&mut self, id: TaskId) -> f64 {
        match self.mode {
            Mode::Uniform => {
                if self.slots[id.0 as usize].is_some() {
                    self.refresh_uniform_rate()
                } else {
                    0.0
                }
            }
            Mode::General => match &self.slots[id.0 as usize] {
                Some(slot) => Self::general_rate(slot, self.water_level),
                None => 0.0,
            },
        }
    }

    /// Remaining work of a task (after the last `advance`).
    pub fn remaining(&self, id: TaskId) -> f64 {
        let slot = self.slots[id.0 as usize]
            .as_ref()
            .expect("remaining() on dead task");
        match slot.body {
            Body::Virtual { finish_vt } => (finish_vt - self.vt).max(0.0),
            Body::Settled { remaining } => remaining,
            Body::GenUncapped { finish_uvt } => (finish_uvt - self.g_uvt).max(0.0) * slot.weight,
            Body::GenCapped { finish_rt } => (finish_rt - self.g_rt).max(0.0) * slot.max_rate,
        }
    }

    /// Advance the clock to `now`. In uniform mode this is O(1) arithmetic
    /// on the virtual clock plus an amortized drain of tasks whose finish
    /// virtual-time was passed. Must be called with monotone timestamps.
    pub fn advance(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_advance).as_secs_f64();
        self.last_advance = self.last_advance.max(now);
        if dt <= 0.0 || self.runnable == 0 {
            return;
        }
        match self.mode {
            Mode::Uniform => {
                let rate = self.refresh_uniform_rate();
                self.vt += rate * dt;
                // Every unfinished task consumed `rate * dt`... except the
                // ones that exhausted mid-interval, corrected in the drain.
                self.work_done.add(self.unfinished as f64 * rate * dt);
                self.drain_exhausted();
                if self.vt >= VT_REBASE_THRESHOLD {
                    self.rebase_vt();
                }
            }
            Mode::General => {
                // The partition (and hence the water level) is kept current
                // by the membership operations themselves: advance is two
                // clock bumps, one compensated work update and the
                // amortized drain of passed/frozen coordinates.
                let level = self.water_level;
                // The level is finite and positive whenever the uncapped
                // side is populated (see the rebalance sweeps) — except
                // when subnormal weights overflow `(C−K)/W`; the finite
                // guard keeps the clock (and the blanket charge, whose
                // unfinished sum is then a subnormal residue) unpoisoned.
                if !self.part_uncapped.is_empty() && level.is_finite() {
                    self.g_uvt += level * dt;
                }
                self.g_rt += dt;
                let mut charge = 0.0;
                let uw = self.unf_uncapped_weight.value();
                if uw > 0.0 && level.is_finite() {
                    charge += level * dt * uw;
                }
                let cr = self.unf_capped_rate.value();
                if cr > 0.0 {
                    charge += dt * cr;
                }
                // Single compensated update; tasks that exhausted
                // mid-interval are corrected by the drain's overshoot term.
                self.work_done.add(charge);
                self.drain_gen_finished();
                if self.g_uvt >= VT_REBASE_THRESHOLD || self.g_rt >= VT_REBASE_THRESHOLD {
                    self.rebase_gen();
                }
            }
        }
    }

    /// Change the bank's core capacity at `now` (dynamic capacity: cgroup
    /// throttling, noisy neighbors, autoscale lag). O((1 + k) log n) for
    /// the `k` tasks whose pin ratio the water level crosses: O(log n)
    /// when the level barely moves, but a large resize can cross most
    /// tasks.
    ///
    /// The capacity-rebase invariant that makes this cheap: **every stored
    /// completion coordinate is capacity-invariant.** Uniform-mode tasks
    /// finish at a fixed *virtual* time `V₀ + work`, and a capacity change
    /// only alters the future growth rate of `V` itself; general-mode
    /// uncapped tasks finish at a fixed coordinate on the `U = ∫ λ dt`
    /// clock (λ moves, the coordinate does not) and capped tasks deplete at
    /// their constant `max_rate` on the real clock regardless of capacity.
    /// So the operation is: settle served work up to `now` under the *old*
    /// capacity, swap the parameter, bump the generation (invalidating the
    /// memoized uniform rate and any owner-held completion events), and in
    /// general mode run the two rebalance sweeps — the water level moved,
    /// so tasks whose pin ratio the level crossed migrate between the
    /// capped and uncapped families, re-keyed onto the other clock by the
    /// same boundary-crossing machinery membership churn uses. Tasks the
    /// level did not cross keep their coordinates bit-for-bit.
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
        self.generation += 1;
        if self.mode == Mode::General {
            self.rebalance_partition();
        }
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
                self.generation += 1;
                if self.mode == Mode::General {
                    self.rebalance_partition();
                }
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
    /// tasks, in that resource's units. O(n) slot scan — introspection for
    /// the fairness/efficiency suites and the per-resource utilization
    /// metrics, not a hot path.
    pub fn resource_consumption(&mut self, resource: Resource) -> f64 {
        let axis = resource.axis();
        if self.runnable == 0 {
            return 0.0;
        }
        let uniform_rate = if self.mode == Mode::Uniform {
            self.refresh_uniform_rate()
        } else {
            0.0
        };
        let level = self.water_level;
        let mut total = 0.0;
        for slot in self.slots.iter().flatten() {
            let rate = match slot.body {
                Body::Virtual { .. } => uniform_rate,
                Body::GenUncapped { .. } | Body::GenCapped { .. } => {
                    Self::general_rate(slot, level)
                }
                Body::Settled { .. } => 0.0,
            };
            total += rate * slot.demand[axis];
        }
        total
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
        self.generation += 1;
        *self
            .sig_counts
            .entry(signature(weight, max_rate, profile))
            .or_insert(0) += 1;
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
        if self.sig_counts.len() > 1 {
            // Heterogeneous signatures: leave (or put) the bank in general
            // mode, splice the task into the water-filling partition, and
            // give it a clock coordinate on whichever side the rebalance
            // leaves it.
            let switched = self.mode == Mode::Uniform;
            self.enter_general_mode();
            self.slots[index as usize] = Some(Slot {
                weight,
                max_rate,
                demand: profile,
                epoch,
                capped: false,
                body: Body::Settled { remaining: work },
            });
            self.partition_insert(index);
            self.rebalance_partition();
            if switched {
                // The representation switch left every carried-over task
                // settled; coordinate them all (O(n), amortized into the
                // O(n) switch itself).
                for i in 0..self.slots.len() as u32 {
                    self.activate_settled(i);
                }
            } else {
                self.activate_settled(index);
            }
        } else {
            // Single signature implies the bank was already uniform (adds
            // cannot shrink the signature set).
            debug_assert_eq!(self.mode, Mode::Uniform);
            let finish_vt = self.vt + work;
            self.slots[index as usize] = Some(Slot {
                weight,
                max_rate,
                demand: profile,
                epoch,
                capped: false,
                body: Body::Virtual { finish_vt },
            });
            self.unfinished += 1;
            self.heap.push(HeapKey {
                finish_vt,
                slot: index,
                epoch,
            });
        }
        TaskId(index)
    }

    /// Remove a task (completed or aborted), returning its residual work.
    pub fn remove_task(&mut self, now: SimTime, id: TaskId) -> f64 {
        self.advance(now);
        self.generation += 1;
        let slot = self.slots[id.0 as usize]
            .take()
            .expect("remove_task on dead task");
        if self.mode == Mode::General {
            self.partition_remove(id.0, &slot);
        }
        self.free_slots.push(id.0);
        self.runnable -= 1;
        let sig = signature(slot.weight, slot.max_rate, slot.demand);
        let count = self
            .sig_counts
            .get_mut(&sig)
            .expect("live task must have a signature count");
        *count -= 1;
        if *count == 0 {
            self.sig_counts.remove(&sig);
        }
        let residual = match slot.body {
            Body::Virtual { finish_vt } => {
                self.unfinished -= 1;
                // The heap entry goes stale and is discarded lazily.
                (finish_vt - self.vt).max(0.0)
            }
            Body::Settled { remaining } => {
                self.finished_pending.retain(|&s| s != id.0);
                remaining
            }
            Body::GenUncapped { finish_uvt } => {
                self.unf_leave_uncapped(slot.weight);
                (finish_uvt - self.g_uvt).max(0.0) * slot.weight
            }
            Body::GenCapped { finish_rt } => {
                self.unf_leave_capped(slot.max_rate);
                (finish_rt - self.g_rt).max(0.0) * slot.max_rate
            }
        };
        if self.runnable == 0 {
            // Rebase the clocks while idle: bounds their magnitude and
            // discards stale heap entries wholesale.
            self.reset_uniform_state();
            self.clear_partition();
            self.reset_gen_state();
            self.mode = Mode::Uniform;
        } else if self.mode == Mode::General {
            if self.sig_counts.len() == 1 {
                self.enter_uniform_mode();
            } else {
                self.rebalance_partition();
            }
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
        match self.mode {
            Mode::Uniform => {
                self.freeze_numerically_finished();
                if let Some(&slot) = self.finished_pending.iter().min() {
                    // Exhausted tasks complete "now"; lowest slot wins ties,
                    // exactly like the reference scan's strict-minimum rule.
                    return Some((TaskId(slot), now));
                }
                let top = self.peek_live_top()?;
                let rate = self.refresh_uniform_rate();
                let eta = (top.finish_vt - self.vt) / rate;
                Some((TaskId(top.slot), now + SimDuration::from_secs_f64(eta)))
            }
            Mode::General => {
                self.drain_gen_finished();
                if let Some(&slot) = self.finished_pending.iter().min() {
                    // Exhausted tasks complete "now" regardless of their
                    // rate — a task frozen at a zero-ish water level must
                    // not be starved out of the completion stream (the
                    // uniform path's `finished_pending` rule; the freeze
                    // coordinate never involves the rate).
                    return Some((TaskId(slot), now));
                }
                let level = self.water_level;
                let uncapped = self
                    .peek_live_gen_top(Family::Uncapped)
                    .filter(|_| level > 0.0 && level.is_finite())
                    .map(|top| (top.slot, (top.finish - self.g_uvt).max(0.0) / level));
                let capped = self
                    .peek_live_gen_top(Family::Capped)
                    .map(|top| (top.slot, (top.finish - self.g_rt).max(0.0)));
                let best = match (uncapped, capped) {
                    (Some((us, ue)), Some((cs, ce))) => {
                        // Earliest completion wins; a cross-family tie
                        // resolves to the lowest slot like the reference
                        // scan's strict-minimum rule.
                        if ue < ce || (ue == ce && us < cs) {
                            Some((us, ue))
                        } else {
                            Some((cs, ce))
                        }
                    }
                    (u, c) => u.or(c),
                };
                best.map(|(slot, eta)| (TaskId(slot), now + SimDuration::from_secs_f64(eta)))
            }
        }
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
        match self.mode {
            Mode::Uniform => {
                self.freeze_numerically_finished();
            }
            Mode::General => {
                // Drain the family heaps instead of scanning slots: every
                // finished task sits in `finished_pending` afterwards.
                self.drain_gen_finished();
            }
        }
        self.finished_pending.sort_unstable();
        out.extend(self.finished_pending.iter().map(|&s| TaskId(s)));
    }

    /// The memoized uniform task rate, recomputed only when the membership
    /// generation moved. In dominant-resource units: `n` identical tasks
    /// each run at `min(max_rate, min_k C_k / (n·g_k))` — the binding axis
    /// is whichever capacity the common profile saturates first. With the
    /// degenerate `[1.0, 0.0]` profile the memory term drops out and this
    /// is bit-identical to the scalar `min(C/n, max_rate)`.
    fn refresh_uniform_rate(&mut self) -> f64 {
        if self.rates_generation != Some(self.generation) {
            let (_, max_rate_bits, g_cpu_bits, g_mem_bits) = *self
                .sig_counts
                .keys()
                .next()
                .expect("uniform rate queried on a non-empty bank");
            let max_rate = f64::from_bits(max_rate_bits);
            let g_cpu = f64::from_bits(g_cpu_bits);
            let g_mem = f64::from_bits(g_mem_bits);
            let cap = self.params.effective_capacity(self.runnable);
            let mut rate = max_rate;
            if g_cpu > 0.0 {
                rate = rate.min(cap / (self.runnable as f64 * g_cpu));
            }
            if g_mem > 0.0 {
                rate = rate.min(self.mem_capacity / (self.runnable as f64 * g_mem));
            }
            self.uniform_rate = rate;
            self.rates_generation = Some(self.generation);
        }
        self.uniform_rate
    }

    /// The general-mode rate of one slot given the water level.
    #[inline]
    fn general_rate(slot: &Slot, level: f64) -> f64 {
        if slot.capped {
            slot.max_rate
        } else {
            slot.weight * level
        }
    }

    /// Insert a live slot into the partition as uncapped (the following
    /// [`GpsCpu::rebalance_partition`] pins it if its ratio sits below the
    /// water level).
    fn partition_insert(&mut self, index: u32) {
        let slot = self.slots[index as usize]
            .as_mut()
            .expect("partition insert of a dead slot");
        slot.capped = false;
        let (weight, max_rate, demand) = (slot.weight, slot.max_rate, slot.demand);
        for (k, &d) in demand.iter().enumerate() {
            if d > 0.0 {
                self.uncapped_weight[k].add(weight * d);
            }
        }
        self.part_uncapped
            .insert((pin_ratio_bits(weight, max_rate), index));
    }

    /// Remove a (just-taken) slot from whichever side of the partition it
    /// occupied.
    fn partition_remove(&mut self, index: u32, slot: &Slot) {
        let key = (pin_ratio_bits(slot.weight, slot.max_rate), index);
        if slot.capped {
            let removed = self.part_capped.remove(&key);
            debug_assert!(removed, "capped task missing from partition");
            for k in 0..AXES {
                if slot.demand[k] > 0.0 {
                    self.capped_capacity[k].add(-(slot.max_rate * slot.demand[k]));
                }
            }
        } else {
            let removed = self.part_uncapped.remove(&key);
            debug_assert!(removed, "uncapped task missing from partition");
            for k in 0..AXES {
                if slot.demand[k] > 0.0 {
                    self.uncapped_weight[k].add(-(slot.weight * slot.demand[k]));
                }
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
                self.uncapped_weight[k].value(),
                self.capped_capacity[k].value(),
            ));
        }
        level
    }

    /// Restore the capped/uncapped invariant after a membership change.
    /// Two sweeps suffice (see the module docs): every move — unpinning a
    /// capped task whose ratio exceeds the level, or pinning an uncapped
    /// task whose ratio is at or below it — raises the water level, so
    /// unpins cannot re-enable unpins and pins cannot re-enable either.
    fn rebalance_partition(&mut self) {
        debug_assert_eq!(self.mode, Mode::General);
        let cap = self.params.effective_capacity(self.runnable);
        // Sweep 1: unpin from the top of the capped order.
        while let Some(&(rb, index)) = self.part_capped.last() {
            if f64::from_bits(rb) <= self.current_level(cap) {
                break;
            }
            self.part_capped.remove(&(rb, index));
            let slot = self.slots[index as usize]
                .as_mut()
                .expect("partition holds only live slots");
            slot.capped = false;
            let (weight, max_rate, demand) = (slot.weight, slot.max_rate, slot.demand);
            for (k, &d) in demand.iter().enumerate() {
                if d > 0.0 {
                    self.capped_capacity[k].add(-(max_rate * d));
                    self.uncapped_weight[k].add(weight * d);
                }
            }
            self.part_uncapped.insert((rb, index));
            self.cross_boundary(index);
        }
        // Sweep 2: pin from the bottom of the uncapped order.
        while let Some(&(rb, index)) = self.part_uncapped.first() {
            if f64::from_bits(rb) > self.current_level(cap) {
                break;
            }
            self.part_uncapped.remove(&(rb, index));
            let slot = self.slots[index as usize]
                .as_mut()
                .expect("partition holds only live slots");
            slot.capped = true;
            let (weight, max_rate, demand) = (slot.weight, slot.max_rate, slot.demand);
            for (k, &d) in demand.iter().enumerate() {
                if d > 0.0 {
                    self.uncapped_weight[k].add(-(weight * d));
                    self.capped_capacity[k].add(max_rate * d);
                }
            }
            self.part_capped.insert((rb, index));
            self.cross_boundary(index);
        }
        // Pin the sums back to exact zero whenever a side empties, so
        // residual compensation cannot accumulate across mode episodes.
        if self.part_uncapped.is_empty() {
            self.uncapped_weight = [CompensatedSum::ZERO; AXES];
        }
        if self.part_capped.is_empty() {
            self.capped_capacity = [CompensatedSum::ZERO; AXES];
        }
        self.water_level = self.current_level(cap);
        #[cfg(debug_assertions)]
        self.debug_validate_partition();
    }

    /// Debug-build invariant check: partition membership matches the
    /// per-slot flags, the running sums match fresh summation, and no task
    /// sits more than a rounding margin on the wrong side of the level.
    #[cfg(debug_assertions)]
    fn debug_validate_partition(&self) {
        let mut w = [0.0f64; AXES];
        let mut k = [0.0f64; AXES];
        let mut live = 0usize;
        for (i, slot) in self.slots.iter().enumerate() {
            let Some(slot) = slot else { continue };
            live += 1;
            let key = (pin_ratio_bits(slot.weight, slot.max_rate), i as u32);
            if slot.capped {
                debug_assert!(self.part_capped.contains(&key));
                for (axis, &d) in slot.demand.iter().enumerate() {
                    k[axis] += slot.max_rate * d;
                }
            } else {
                debug_assert!(self.part_uncapped.contains(&key));
                for (axis, &d) in slot.demand.iter().enumerate() {
                    w[axis] += slot.weight * d;
                }
            }
            let ratio = slot.max_rate / slot.weight;
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
        debug_assert_eq!(live, self.part_uncapped.len() + self.part_capped.len());
        for a in 0..AXES {
            debug_assert!(
                (w[a] - self.uncapped_weight[a].value()).abs() <= 1e-9 * (1.0 + w[a].abs())
            );
            debug_assert!(
                (k[a] - self.capped_capacity[a].value()).abs() <= 1e-9 * (1.0 + k[a].abs())
            );
        }
        // The unfinished sums cover exactly the coordinate bodies.
        let mut uw = 0.0;
        let mut uc = 0usize;
        let mut cr = 0.0;
        let mut cc = 0usize;
        for slot in self.slots.iter().flatten() {
            match slot.body {
                Body::GenUncapped { .. } => {
                    uw += slot.weight;
                    uc += 1;
                }
                Body::GenCapped { .. } => {
                    cr += slot.max_rate;
                    cc += 1;
                }
                _ => {}
            }
        }
        debug_assert_eq!(uc, self.unf_uncapped_count);
        debug_assert_eq!(cc, self.unf_capped_count);
        debug_assert!((uw - self.unf_uncapped_weight.value()).abs() <= 1e-9 * (1.0 + uw.abs()));
        debug_assert!((cr - self.unf_capped_rate.value()).abs() <= 1e-9 * (1.0 + cr.abs()));
    }

    fn clear_partition(&mut self) {
        self.part_uncapped.clear();
        self.part_capped.clear();
        self.uncapped_weight = [CompensatedSum::ZERO; AXES];
        self.capped_capacity = [CompensatedSum::ZERO; AXES];
        self.water_level = 0.0;
    }

    fn reset_gen_state(&mut self) {
        self.g_uvt = 0.0;
        self.g_rt = 0.0;
        self.g_uncapped_heap.clear();
        self.g_capped_heap.clear();
        self.unf_uncapped_weight = CompensatedSum::ZERO;
        self.unf_uncapped_count = 0;
        self.unf_capped_rate = CompensatedSum::ZERO;
        self.unf_capped_count = 0;
    }

    fn unf_join_uncapped(&mut self, weight: f64) {
        self.unf_uncapped_weight.add(weight);
        self.unf_uncapped_count += 1;
    }

    fn unf_leave_uncapped(&mut self, weight: f64) {
        self.unf_uncapped_weight.add(-weight);
        self.unf_uncapped_count -= 1;
        if self.unf_uncapped_count == 0 {
            // Pin the sum back to exact zero so residual compensation
            // cannot leak into later blanket charges.
            self.unf_uncapped_weight = CompensatedSum::ZERO;
        }
    }

    fn unf_join_capped(&mut self, max_rate: f64) {
        self.unf_capped_rate.add(max_rate);
        self.unf_capped_count += 1;
    }

    fn unf_leave_capped(&mut self, max_rate: f64) {
        self.unf_capped_rate.add(-max_rate);
        self.unf_capped_count -= 1;
        if self.unf_capped_count == 0 {
            self.unf_capped_rate = CompensatedSum::ZERO;
        }
    }

    /// Give an unfinished task a fresh coordinate (and heap key) on the
    /// family its `capped` flag names. The freeze key is the clock value
    /// at which the remaining work hits [`WORK_EPSILON`].
    ///
    /// Subnormal axes can overflow `remaining / axis` (or the
    /// `ε / axis` freeze offset) past f64 range, turning the key into
    /// inf−inf = NaN — which would defeat every heap comparison and
    /// spuriously settle the task. Such a task's completion is
    /// astronomically far away, so it is **parked** instead: it keeps its
    /// exact `Settled` remaining, never joins the heap or the unfinished
    /// sums (it depletes at an effectively-zero rate), and never reports
    /// finished — the starved-task behaviour the reference's zero-rate
    /// skip produces. A boundary crossing re-attempts the coordinate on
    /// the other axis.
    fn push_gen_coordinate(&mut self, index: u32, remaining: f64) {
        let slot = self.slots[index as usize]
            .as_mut()
            .expect("coordinate push on a dead slot");
        let epoch = slot.epoch;
        if slot.capped {
            let max_rate = slot.max_rate;
            let finish = self.g_rt + remaining / max_rate;
            let key = finish - WORK_EPSILON / max_rate;
            if !(key.is_finite() && finish.is_finite()) {
                slot.body = Body::Settled { remaining };
                return;
            }
            slot.body = Body::GenCapped { finish_rt: finish };
            self.g_capped_heap.push(GenKey {
                key,
                finish,
                slot: index,
                epoch,
            });
            self.unf_join_capped(max_rate);
        } else {
            let weight = slot.weight;
            let finish = self.g_uvt + remaining / weight;
            let key = finish - WORK_EPSILON / weight;
            if !(key.is_finite() && finish.is_finite()) {
                slot.body = Body::Settled { remaining };
                return;
            }
            slot.body = Body::GenUncapped { finish_uvt: finish };
            self.g_uncapped_heap.push(GenKey {
                key,
                finish,
                slot: index,
                epoch,
            });
            self.unf_join_uncapped(weight);
        }
    }

    /// Coordinate a task whose body is still `Settled` (a fresh add, or a
    /// carry-over from the representation switch): numerically-exhausted
    /// work goes straight to `finished_pending`, the rest onto the family
    /// heap the rebalance left it on. No-op for dead slots and tasks that
    /// already carry a coordinate.
    fn activate_settled(&mut self, index: u32) {
        let Some(slot) = self.slots[index as usize].as_ref() else {
            return;
        };
        let Body::Settled { remaining } = slot.body else {
            return;
        };
        if remaining <= WORK_EPSILON {
            self.finished_pending.push(index);
        } else {
            self.push_gen_coordinate(index, remaining);
        }
    }

    /// Re-key a task the rebalance just moved across the capped/uncapped
    /// boundary: its coordinate was expressed on the old family's clock,
    /// so re-derive the remaining work, bump the slot epoch (invalidating
    /// the old heap entry lazily) and push a fresh key on the new family's
    /// heap. Frozen (`Settled`) tasks only flip sides for rate accounting
    /// and need no re-key.
    fn cross_boundary(&mut self, index: u32) {
        self.boundary_crossings += 1;
        let slot = self.slots[index as usize]
            .as_mut()
            .expect("boundary crossing on a dead slot");
        let remaining = match slot.body {
            Body::GenUncapped { finish_uvt } => {
                debug_assert!(slot.capped, "crossing must have flipped the flag");
                let weight = slot.weight;
                slot.epoch = self.next_epoch;
                self.next_epoch += 1;
                let remaining = (finish_uvt - self.g_uvt).max(0.0) * weight;
                self.unf_leave_uncapped(weight);
                remaining
            }
            Body::GenCapped { finish_rt } => {
                debug_assert!(!slot.capped, "crossing must have flipped the flag");
                let max_rate = slot.max_rate;
                slot.epoch = self.next_epoch;
                self.next_epoch += 1;
                let remaining = (finish_rt - self.g_rt).max(0.0) * max_rate;
                self.unf_leave_capped(max_rate);
                remaining
            }
            // Frozen tasks only flip sides for rate accounting; a parked
            // task (coordinate not representable on the old axis) gets a
            // fresh attempt on the new one.
            Body::Settled { remaining } => {
                if remaining > WORK_EPSILON {
                    self.push_gen_coordinate(index, remaining);
                }
                return;
            }
            Body::Virtual { .. } => unreachable!("general mode holds no virtual bodies"),
        };
        if remaining <= WORK_EPSILON {
            let slot = self.slots[index as usize]
                .as_mut()
                .expect("boundary crossing on a dead slot");
            slot.body = Body::Settled { remaining };
            self.finished_pending.push(index);
        } else {
            self.push_gen_coordinate(index, remaining);
        }
    }

    /// Discard stale keys and return the earliest live entry of a family
    /// heap. An entry is live while the slot exists, the epoch matches
    /// (no boundary crossing or reincarnation since the push) and the body
    /// still carries that family's coordinate.
    fn peek_live_gen_top(&mut self, family: Family) -> Option<GenKey> {
        let (heap, slots) = match family {
            Family::Uncapped => (&mut self.g_uncapped_heap, &self.slots),
            Family::Capped => (&mut self.g_capped_heap, &self.slots),
        };
        while let Some(top) = heap.peek() {
            let live = match (&slots[top.slot as usize], family) {
                (Some(slot), Family::Uncapped) => {
                    slot.epoch == top.epoch && matches!(slot.body, Body::GenUncapped { .. })
                }
                (Some(slot), Family::Capped) => {
                    slot.epoch == top.epoch && matches!(slot.body, Body::GenCapped { .. })
                }
                (None, _) => false,
            };
            if live {
                return Some(*top);
            }
            heap.pop();
        }
        None
    }

    /// Drain every task whose freeze coordinate was reached: remaining
    /// work is at or below [`WORK_EPSILON`], so the task settles (keeping
    /// its true sub-epsilon residual) and joins `finished_pending`. Tasks
    /// whose *finish* coordinate was strictly passed over-consumed in the
    /// blanket `advance` charge; the overshoot is corrected here, exactly
    /// like the uniform drain.
    fn drain_gen_finished(&mut self) {
        while let Some(top) = self.peek_live_gen_top(Family::Uncapped) {
            if top.key > self.g_uvt {
                break;
            }
            self.g_uncapped_heap.pop();
            let weight = self.slots[top.slot as usize]
                .as_ref()
                .expect("live top on a dead slot")
                .weight;
            let residual = (top.finish - self.g_uvt).max(0.0) * weight;
            if top.finish < self.g_uvt {
                self.work_done.add(-((self.g_uvt - top.finish) * weight));
            }
            self.unf_leave_uncapped(weight);
            self.settle_gen_finished(top.slot, residual);
        }
        while let Some(top) = self.peek_live_gen_top(Family::Capped) {
            if top.key > self.g_rt {
                break;
            }
            self.g_capped_heap.pop();
            let max_rate = self.slots[top.slot as usize]
                .as_ref()
                .expect("live top on a dead slot")
                .max_rate;
            let residual = (top.finish - self.g_rt).max(0.0) * max_rate;
            if top.finish < self.g_rt {
                self.work_done.add(-((self.g_rt - top.finish) * max_rate));
            }
            self.unf_leave_capped(max_rate);
            self.settle_gen_finished(top.slot, residual);
        }
    }

    fn settle_gen_finished(&mut self, slot: u32, remaining: f64) {
        self.slots[slot as usize]
            .as_mut()
            .expect("settling a dead slot")
            .body = Body::Settled { remaining };
        self.finished_pending.push(slot);
    }

    /// Shift both general-mode clocks back to zero, subtracting the old
    /// values from every in-flight coordinate (differences — remaining
    /// work — are preserved to within one rounding each) and rebuilding
    /// the family heaps, dropping stale keys wholesale. Same amortization
    /// argument as [`GpsCpu::rebase_vt`].
    fn rebase_gen(&mut self) {
        let du = self.g_uvt;
        let dr = self.g_rt;
        self.g_uvt = 0.0;
        self.g_rt = 0.0;
        self.g_uncapped_heap.clear();
        self.g_capped_heap.clear();
        for i in 0..self.slots.len() {
            let Some(slot) = &mut self.slots[i] else {
                continue;
            };
            match &mut slot.body {
                Body::GenUncapped { finish_uvt } => {
                    *finish_uvt = (*finish_uvt - du).max(0.0);
                    self.g_uncapped_heap.push(GenKey {
                        key: *finish_uvt - WORK_EPSILON / slot.weight,
                        finish: *finish_uvt,
                        slot: i as u32,
                        epoch: slot.epoch,
                    });
                }
                Body::GenCapped { finish_rt } => {
                    *finish_rt = (*finish_rt - dr).max(0.0);
                    self.g_capped_heap.push(GenKey {
                        key: *finish_rt - WORK_EPSILON / slot.max_rate,
                        finish: *finish_rt,
                        slot: i as u32,
                        epoch: slot.epoch,
                    });
                }
                _ => {}
            }
        }
    }

    /// Discard stale heap keys and return the earliest live unfinished one.
    fn peek_live_top(&mut self) -> Option<HeapKey> {
        while let Some(top) = self.heap.peek() {
            let live = matches!(
                self.slots[top.slot as usize],
                Some(Slot {
                    epoch,
                    body: Body::Virtual { .. },
                    ..
                }) if epoch == top.epoch
            );
            if live {
                return Some(*top);
            }
            self.heap.pop();
        }
        None
    }

    /// Settle every task whose finish virtual-time was strictly passed:
    /// remaining drops to exactly zero, and the blanket `rate * dt` service
    /// charged in `advance` is corrected by the overshoot.
    fn drain_exhausted(&mut self) {
        while let Some(top) = self.peek_live_top() {
            if top.finish_vt > self.vt {
                break;
            }
            self.heap.pop();
            self.work_done.add(-(self.vt - top.finish_vt));
            self.settle_finished(top.slot, 0.0);
        }
    }

    /// Settle tasks within `WORK_EPSILON` of their finish virtual-time:
    /// they report as finished (the reference treats `remaining <= ε` as
    /// complete) but keep their true sub-epsilon residual.
    fn freeze_numerically_finished(&mut self) {
        while let Some(top) = self.peek_live_top() {
            if top.finish_vt > self.vt + WORK_EPSILON {
                break;
            }
            self.heap.pop();
            self.settle_finished(top.slot, (top.finish_vt - self.vt).max(0.0));
        }
    }

    fn settle_finished(&mut self, slot: u32, remaining: f64) {
        self.unfinished -= 1;
        self.finished_pending.push(slot);
        self.slots[slot as usize]
            .as_mut()
            .expect("settling a dead slot")
            .body = Body::Settled { remaining };
    }

    /// Switch to the general representation (heterogeneous signatures):
    /// settle every uniform task at its remaining work and build the
    /// water-filling partition from the live tasks. O(n log n), amortized
    /// free: the switch only happens on a membership change that already
    /// costs O(n); the caller rebalances and then coordinates every
    /// settled task onto the family clocks.
    fn enter_general_mode(&mut self) {
        if self.mode == Mode::General {
            return;
        }
        for slot in self.slots.iter_mut().flatten() {
            if let Body::Virtual { finish_vt } = slot.body {
                slot.body = Body::Settled {
                    remaining: (finish_vt - self.vt).max(0.0),
                };
            }
        }
        self.reset_uniform_state();
        self.mode = Mode::General;
        debug_assert!(self.part_uncapped.is_empty() && self.part_capped.is_empty());
        debug_assert!(self.g_uncapped_heap.is_empty() && self.g_capped_heap.is_empty());
        for i in 0..self.slots.len() as u32 {
            if self.slots[i as usize].is_some() {
                self.partition_insert(i);
            }
        }
        // The caller (add_task) rebalances after inserting the new task,
        // then activates the settled bodies onto the family clocks
        // (rebuilding `finished_pending`, which reset_uniform_state just
        // cleared).
    }

    /// Re-enter the uniform virtual-time representation (single signature
    /// left). Rebases the virtual clock to zero and drops the partition
    /// and the general-mode clocks.
    fn enter_uniform_mode(&mut self) {
        debug_assert_eq!(self.mode, Mode::General);
        // Capture the clocks before resetting: the coordinate bodies are
        // still expressed on them.
        let g_uvt = self.g_uvt;
        let g_rt = self.g_rt;
        self.reset_uniform_state();
        self.clear_partition();
        self.reset_gen_state();
        self.mode = Mode::Uniform;
        for i in 0..self.slots.len() {
            let Some(slot) = &mut self.slots[i] else {
                continue;
            };
            let remaining = match slot.body {
                Body::Settled { remaining } => remaining,
                Body::GenUncapped { finish_uvt } => (finish_uvt - g_uvt).max(0.0) * slot.weight,
                Body::GenCapped { finish_rt } => (finish_rt - g_rt).max(0.0) * slot.max_rate,
                Body::Virtual { .. } => unreachable!("general mode holds no virtual bodies"),
            };
            if remaining <= WORK_EPSILON {
                slot.body = Body::Settled { remaining };
                self.finished_pending.push(i as u32);
            } else {
                let finish_vt = self.vt + remaining;
                let epoch = slot.epoch;
                slot.body = Body::Virtual { finish_vt };
                self.unfinished += 1;
                self.heap.push(HeapKey {
                    finish_vt,
                    slot: i as u32,
                    epoch,
                });
            }
        }
    }

    fn reset_uniform_state(&mut self) {
        self.vt = 0.0;
        self.heap.clear();
        self.unfinished = 0;
        self.finished_pending.clear();
    }

    /// Shift the virtual clock back to zero, subtracting the old `vt` from
    /// every in-flight finish virtual-time. Differences (`finish_vt - vt`,
    /// i.e. remaining work) are preserved to within one rounding each, and
    /// future accumulation happens at small-magnitude ulps again. The heap
    /// is rebuilt from the live tasks, dropping stale keys wholesale.
    fn rebase_vt(&mut self) {
        let delta = self.vt;
        self.vt = 0.0;
        self.heap.clear();
        for i in 0..self.slots.len() {
            let Some(slot) = &mut self.slots[i] else {
                continue;
            };
            if let Body::Virtual { finish_vt } = &mut slot.body {
                *finish_vt = (*finish_vt - delta).max(0.0);
                let key = HeapKey {
                    finish_vt: *finish_vt,
                    slot: i as u32,
                    epoch: slot.epoch,
                };
                self.heap.push(key);
            }
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
    fn generation_bumps_on_membership_changes() {
        let mut cpu = GpsCpu::new(params(1.0, 0.0));
        let g0 = cpu.generation();
        let id = cpu.add_task(SimTime::ZERO, 1.0, 1.0, 1.0);
        assert!(cpu.generation() > g0);
        let g1 = cpu.generation();
        cpu.remove_task(SimTime::ZERO, id);
        assert!(cpu.generation() > g1);
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
        // Same churn but with varying weights/caps, exercising the general
        // mode and both representation switches.
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
    fn mode_switches_preserve_remaining_work() {
        let mut cpu = GpsCpu::new(params(2.0, 0.0));
        let t0 = SimTime::ZERO;
        // Uniform phase: two equal tasks at 1 core each... capped to 1.0.
        let a = cpu.add_task(t0, 4.0, 1.0, 1.0);
        let b = cpu.add_task(t0, 4.0, 1.0, 1.0);
        let t1 = SimTime::from_secs(1);
        cpu.advance(t1);
        assert!((cpu.remaining(a) - 3.0).abs() < 1e-9);
        // Heterogeneous task forces general mode.
        let c = cpu.add_task(t1, 1.0, 5.0, 1.0);
        assert!(
            (cpu.remaining(a) - 3.0).abs() < 1e-9,
            "settling is lossless"
        );
        // Removing it re-enters uniform mode.
        let t2 = SimTime::from_secs(2);
        let res = cpu.remove_task(t2, c);
        assert!(res >= 0.0);
        cpu.advance(SimTime::from_secs(3));
        let ra = cpu.remaining(a);
        let rb = cpu.remaining(b);
        assert!((ra - rb).abs() < 1e-9, "equal tasks stay in lockstep");
        assert!(ra < 3.0, "work continues depleting after the switch back");
    }

    #[test]
    fn long_running_bank_stays_precise_across_vt_rebase() {
        // Drive the virtual clock far past VT_REBASE_THRESHOLD without the
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
        // of virtual time: the threshold (16384) was crossed repeatedly.
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
        assert_eq!(cpu.water_level(), Some(f64::INFINITY));
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
        assert!(!cpu.is_uniform_mode(), "two signatures force general mode");
        assert!((cpu.current_rate(tied) - 1.0).abs() < 1e-12);
        assert!((cpu.current_rate(free) - 1.0).abs() < 1e-12);
        let level = cpu.water_level().unwrap();
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
    fn mode_flips_keep_partition_and_remaining_consistent() {
        // Repeated uniform -> general -> uniform flips: remaining work is
        // preserved across every representation switch, and the partition
        // structure drains completely on each return to uniform.
        let mut cpu = GpsCpu::new(params(2.0, 0.0));
        let t0 = SimTime::ZERO;
        let a = cpu.add_task(t0, 10.0, 1.0, 1.0);
        let mut t = t0;
        for round in 0..4 {
            cpu.advance(t);
            let before = cpu.remaining(a);
            let hetero = cpu.add_task(t, 0.5, 3.0, 0.5 + round as f64 * 0.25);
            assert!(!cpu.is_uniform_mode());
            assert_ne!(cpu.partition_sizes(), (0, 0));
            assert!(
                (cpu.remaining(a) - before).abs() < 1e-9,
                "settling is lossless (round {round})"
            );
            t += SimDuration::from_millis(250);
            let before = {
                cpu.advance(t);
                cpu.remaining(a)
            };
            cpu.remove_task(t, hetero);
            assert!(cpu.is_uniform_mode(), "single signature re-enters uniform");
            assert_eq!(cpu.partition_sizes(), (0, 0), "partition fully drained");
            assert_eq!(cpu.water_level(), None);
            assert!(
                (cpu.remaining(a) - before).abs() < 1e-9,
                "un-settling is lossless (round {round})"
            );
            t += SimDuration::from_millis(250);
        }
        // The long task kept depleting through all four flips.
        cpu.advance(t);
        assert!(cpu.remaining(a) < 10.0);
    }

    #[test]
    fn general_mode_stays_precise_across_clock_rebases() {
        // Drive both general-mode clocks far past VT_REBASE_THRESHOLD
        // without the bank leaving general mode: a capped task pins the
        // real clock's family, an uncapped one the virtual clock's, and
        // both deplete at exactly 1 core/s, so remaining work stays a
        // linear function of time through every rebase.
        let mut cpu = GpsCpu::new(params(2.0, 0.0));
        let t0 = SimTime::ZERO;
        let work = 50_000.0;
        // Uncapped: ratio 2 > λ = 1 (see below), rate = weight * λ = 1.
        let a = cpu.add_task(t0, work, 1.0, 2.0);
        // Capped: ratio 0.5 <= λ, pinned at max_rate = 1.
        let b = cpu.add_task(t0, work, 2.0, 1.0);
        assert!(!cpu.is_uniform_mode());
        assert_eq!(cpu.water_level(), Some(1.0));
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
        // to exactly 0.0 used to be skipped by the general-mode completion
        // scan (`rate <= 0.0 -> continue`) while `finished_tasks` kept
        // reporting it — the owner's completion tick would never fire.
        // Exhausted tasks must complete "now" regardless of rate, matching
        // the uniform path's `finished_pending` rule.
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
    fn set_capacity_changes_uniform_rate_going_forward() {
        let mut cpu = GpsCpu::new(params(4.0, 0.0));
        let t0 = SimTime::ZERO;
        // Eight unit tasks on four cores: each runs at 0.5.
        let ids: Vec<TaskId> = (0..8).map(|_| cpu.add_task(t0, 2.0, 1.0, 1.0)).collect();
        assert!((cpu.current_rate(ids[0]) - 0.5).abs() < 1e-12);
        // One second of service at the old capacity, then halve the node.
        let t1 = SimTime::from_secs(1);
        cpu.set_capacity(t1, 2.0);
        assert!((cpu.current_rate(ids[0]) - 0.25).abs() < 1e-12);
        // Work served before the change was under the old capacity...
        assert!((cpu.remaining(ids[0]) - 1.5).abs() < 1e-9);
        // ...and the completion reflects the degraded rate: 1.5 core-s
        // left at 0.25 cores = 6 more seconds.
        let (_, at) = cpu.next_completion(t1).unwrap();
        assert!((at.as_secs_f64() - 7.0).abs() < 1e-9);
        // The bank never left the uniform fast path.
        assert!(cpu.is_uniform_mode());
    }

    #[test]
    fn set_capacity_is_generation_visible_and_idempotent() {
        let mut cpu = GpsCpu::new(params(4.0, 0.0));
        cpu.add_task(SimTime::ZERO, 1.0, 1.0, 1.0);
        let g0 = cpu.generation();
        cpu.set_capacity(SimTime::ZERO, 2.0);
        assert!(cpu.generation() > g0, "owners must see stale completions");
        let g1 = cpu.generation();
        // Re-asserting the same capacity is a no-op (fault plans may emit
        // redundant restoration events).
        cpu.set_capacity(SimTime::ZERO, 2.0);
        assert_eq!(cpu.generation(), g1);
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
        assert!(!cpu.is_uniform_mode());
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
        assert!(
            !cpu.is_uniform_mode(),
            "distinct profiles force general mode"
        );
        assert_eq!(cpu.water_level(), Some(2.0));
        assert!((cpu.current_rate(a) - 2.0).abs() < 1e-12);
        assert!((cpu.current_rate(b) - 2.0).abs() < 1e-12);
        assert!((cpu.resource_consumption(Resource::Cpu) - 4.0).abs() < 1e-12);
        assert!((cpu.resource_consumption(Resource::Mem) - 2.0).abs() < 1e-12);
        // Halve the bandwidth: the memory axis binds, λ drops to 1, and
        // the CPU axis is left with slack (Pareto: the *binding* axis is
        // consumed).
        let t1 = SimTime::from_secs(0);
        cpu.set_resource_capacity(t1, Resource::Mem, 1.0);
        assert_eq!(cpu.water_level(), Some(1.0));
        assert!((cpu.current_rate(a) - 1.0).abs() < 1e-12);
        assert!((cpu.current_rate(b) - 1.0).abs() < 1e-12);
        assert!((cpu.resource_consumption(Resource::Mem) - 1.0).abs() < 1e-12);
        assert!((cpu.resource_consumption(Resource::Cpu) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn memory_bound_uniform_mode_binds_on_bandwidth() {
        // Two identical tasks demanding bandwidth 1:1 with CPU on a node
        // with 4 cores but 1 bandwidth unit: the common rate is
        // min(max_rate, 4/2, 1/2) = 0.5, on the uniform fast path.
        let mut cpu = GpsCpu::new(params(4.0, 0.0));
        cpu.set_resource_capacity(SimTime::ZERO, Resource::Mem, 1.0);
        let a = cpu.add_task_demand(SimTime::ZERO, 1.0, 1.0, 1.0, ResourceVector::per_cpu(1.0));
        let _b = cpu.add_task_demand(SimTime::ZERO, 1.0, 1.0, 1.0, ResourceVector::per_cpu(1.0));
        assert!(cpu.is_uniform_mode(), "identical profiles stay uniform");
        assert!((cpu.current_rate(a) - 0.5).abs() < 1e-12);
        let (_, at) = cpu.next_completion(SimTime::ZERO).unwrap();
        assert!((at.as_secs_f64() - 2.0).abs() < 1e-9);
        // Restoring infinite bandwidth re-binds on the CPU axis (rate 1.0
        // via the max_rate cap).
        cpu.set_resource_capacity(SimTime::ZERO, Resource::Mem, f64::INFINITY);
        assert!((cpu.current_rate(a) - 1.0).abs() < 1e-12);
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
    fn set_mem_capacity_is_generation_visible_and_idempotent() {
        let mut cpu = GpsCpu::new(params(4.0, 0.0));
        assert_eq!(cpu.resource_capacity(Resource::Mem), f64::INFINITY);
        assert_eq!(cpu.resource_capacity(Resource::Cpu), 4.0);
        cpu.add_task(SimTime::ZERO, 1.0, 1.0, 1.0);
        let g0 = cpu.generation();
        cpu.set_resource_capacity(SimTime::ZERO, Resource::Mem, 2.0);
        assert!(cpu.generation() > g0);
        let g1 = cpu.generation();
        cpu.set_resource_capacity(SimTime::ZERO, Resource::Mem, 2.0);
        assert_eq!(cpu.generation(), g1, "re-asserting is a no-op");
    }

    #[test]
    #[should_panic(expected = "memory bandwidth must be positive")]
    fn non_positive_mem_capacity_rejected() {
        let mut cpu = GpsCpu::new(params(4.0, 0.0));
        cpu.set_resource_capacity(SimTime::ZERO, Resource::Mem, 0.0);
    }
}
