//! Reusable churn-schedule test support: random interleavings of
//! add/remove/advance/next-completion over heterogeneous weights and rate
//! caps, plus the differential driver that locks the production kernel to
//! the seed integrator after every step.
//!
//! One schedule vocabulary shared by the differential suites
//! (`tests/prop_gps_diff.rs`, `tests/prop_gps_weighted.rs`,
//! `tests/prop_gps_drf.rs`, `tests/prop_gps_faults.rs`) and any future
//! kernel rewrite:
//!
//! * [`ChurnOp`] — the four kernel operations a schedule interleaves;
//! * [`SignaturePool`] — the `(weight, max_rate)` signatures a schedule
//!   draws from, from the invoker's single `(1, 1)` through heavily
//!   heterogeneous weighted-container pools;
//! * [`random_schedule`] — seeded schedule generation;
//! * [`DifferentialPair`] — drives [`GpsCpu`] and [`ReferenceGpsCpu`] in
//!   lockstep, comparing every observable (live count, `work_done`,
//!   per-task remaining, next completion, finished sets, residuals) after
//!   every operation.

use crate::gps::{GpsCpu, GpsParams, Resource, ResourceVector, TaskId};
use crate::gps_reference::ReferenceGpsCpu;
use faas_simcore::rng::Xoshiro256;
use faas_simcore::time::{SimDuration, SimTime};

/// Tolerance on completion-time agreement, seconds.
pub const TIME_TOL: f64 = 1e-6;
/// Tolerance on remaining-work / `work_done` agreement, core-seconds.
pub const WORK_TOL: f64 = 1e-6;

/// One schedule step. Work and time are in milliseconds (of core-time and
/// simulated time respectively) so schedules stay shrink-friendly integer
/// tuples; `sig` indexes the [`SignaturePool`].
#[derive(Debug, Clone, Copy)]
pub enum ChurnOp {
    /// Add a task with `work_ms` milliseconds of core-work and the pool
    /// signature `sig`.
    Add { work_ms: u64, sig: u8 },
    /// Remove the `pick % live`-th live task (no-op when idle).
    Remove { pick: u64 },
    /// Remove the `pick`-th live task *of pool signature `sig`* (no-op
    /// when no such task is live): lets schedules thrash the water level
    /// by targeting the heavy swing signature.
    RemoveSig { sig: u8, pick: u64 },
    /// Remove *every* live task of pool signature `sig`. Random removal
    /// almost never drains a whole signature, so plain schedules cannot
    /// empty a pin-ratio class on demand; this op can (a class empties when
    /// every signature sharing its ratio is drained).
    DrainSig { sig: u8 },
    /// Advance simulated time by `dt_ms`.
    Advance { dt_ms: u64 },
    /// Jump to the next predicted completion and retire every finished
    /// task.
    CompleteNext,
    /// Set the node capacity to `cores_centi / 100` cores (dynamic
    /// capacity: degradation and restoration ramps). Applied to both
    /// kernels; zero is clamped to one centi-core so shrunk schedules stay
    /// valid.
    SetCapacity { cores_centi: u64 },
    /// Set the memory-bandwidth capacity to `mem_centi / 100` units
    /// (multi-resource DRF schedules only). Zero is clamped to one
    /// centi-unit; applied to both kernels.
    SetMemCapacity { mem_centi: u64 },
}

/// A pool of `(weight, max_rate, demand)` signatures a schedule draws
/// from. Single-resource pools carry [`ResourceVector::CPU_ONLY`] demands,
/// which keeps every pre-DRF suite on the bit-identical degenerate path.
#[derive(Debug, Clone)]
pub struct SignaturePool {
    sigs: Vec<(f64, f64, ResourceVector)>,
}

impl SignaturePool {
    /// Build a CPU-only pool from explicit `(weight, max_rate)` signatures.
    pub fn new(sigs: Vec<(f64, f64)>) -> Self {
        SignaturePool::new_with_demands(
            sigs.into_iter()
                .map(|(w, c)| (w, c, ResourceVector::CPU_ONLY))
                .collect(),
        )
    }

    /// Build a multi-resource pool from explicit
    /// `(weight, max_rate, demand)` signatures.
    pub fn new_with_demands(sigs: Vec<(f64, f64, ResourceVector)>) -> Self {
        assert!(!sigs.is_empty(), "signature pool cannot be empty");
        for &(w, c, d) in &sigs {
            assert!(w > 0.0 && c > 0.0, "invalid signature ({w}, {c})");
            // Profile normalization also validates the vector.
            let _ = d.profile();
        }
        SignaturePool { sigs }
    }

    /// The invoker's single `(1, 1)` signature: the bank is always one
    /// pin-ratio class, which crosses the capped/uncapped boundary exactly
    /// when the live count crosses the core count.
    pub fn uniform() -> Self {
        SignaturePool::new(vec![(1.0, 1.0)])
    }

    /// A four-signature mixed pool: the invoker's `(1, 1)` plus
    /// weighted/capped signatures.
    pub fn paper_mixed() -> Self {
        SignaturePool::new(vec![(1.0, 1.0), (2.5, 1.0), (1.0, 0.5), (4.0, 0.25)])
    }

    /// A seeded heterogeneous weighted-container pool: 6–10 signatures
    /// with weights spanning 0.25–8 and caps 0.125–2, plus one cap that
    /// lands exactly on a unit fair share so boundary ties appear in
    /// random schedules.
    pub fn weighted(seed: u64) -> Self {
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x5166_7001);
        let weights = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0];
        let caps = [0.125, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0];
        let n = 6 + (rng.next_u64() % 5) as usize;
        let mut sigs: Vec<(f64, f64)> = (0..n)
            .map(|_| (*rng.choose(&weights), *rng.choose(&caps)))
            .collect();
        // Always include the exact-tie signature and the plain `(1, 1)` one:
        // the interesting partition boundaries must be reachable from any
        // seed.
        sigs[0] = (1.0, 1.0);
        sigs[1] = (2.0, 1.0);
        SignaturePool::new(sigs)
    }

    /// A ladder of pin ratios around the unit fair share plus one
    /// heavy-weight swing signature: adding or removing a swing task moves
    /// the water level across several ladder rungs at once, so every such
    /// membership change forces a batch of capped/uncapped boundary
    /// crossings (the re-keying path of the two-clock kernel). Signature 0
    /// is the swing; 1 is the plain `(1, 1)` rung, which shares the swing's
    /// ratio, so draining everything else collapses the bank to one class.
    pub fn boundary_ladder() -> Self {
        SignaturePool::new(vec![
            (8.0, 8.0), // swing: ratio 1.0, weight dominates the level
            (1.0, 1.0), // plain rung (also the one-class anchor)
            (1.0, 0.2),
            (1.0, 0.35),
            (1.0, 0.5),
            (1.0, 0.65),
            (1.0, 0.8),
            (2.0, 1.0), // ratio 0.5 at double weight: ties with the mid rung
        ])
    }

    /// A mixed DRF pool: the paper's weighted/capped signatures crossed
    /// with CPU-only, balanced, CPU-heavy and memory-dominant demand
    /// profiles, so schedules exercise every partition shape the
    /// dominant-share kernel distinguishes (pure axis-0, both axes, axis-1
    /// dominant).
    pub fn drf_mixed() -> Self {
        SignaturePool::new_with_demands(vec![
            (1.0, 1.0, ResourceVector::CPU_ONLY),
            (2.5, 1.0, ResourceVector::per_cpu(0.5)),
            (1.0, 0.5, ResourceVector::per_cpu(1.0)),
            (4.0, 0.25, ResourceVector::per_cpu(2.0)),
            (1.0, 1.0, ResourceVector::per_cpu(4.0)),
        ])
    }

    /// A seeded heterogeneous DRF pool: the [`SignaturePool::weighted`]
    /// weight/cap lattice crossed with a seeded memory-per-CPU draw
    /// (including exact zeros, so degenerate and demanding signatures mix
    /// in one schedule). Signature 0 is pinned CPU-only and signature 1 to
    /// the balanced 1:1 profile.
    pub fn drf_weighted(seed: u64) -> Self {
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xD8F5_1CE5);
        let weights = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0];
        let caps = [0.125, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0];
        let mems = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0];
        let n = 6 + (rng.next_u64() % 5) as usize;
        let mut sigs: Vec<(f64, f64, ResourceVector)> = (0..n)
            .map(|_| {
                (
                    *rng.choose(&weights),
                    *rng.choose(&caps),
                    ResourceVector::per_cpu(*rng.choose(&mems)),
                )
            })
            .collect();
        sigs[0] = (1.0, 1.0, ResourceVector::CPU_ONLY);
        sigs[1] = (2.0, 1.0, ResourceVector::per_cpu(1.0));
        SignaturePool::new_with_demands(sigs)
    }

    /// The `sig`-th signature's `(weight, max_rate)` (wrapping).
    pub fn get(&self, sig: u8) -> (f64, f64) {
        let (w, c, _) = self.sigs[sig as usize % self.sigs.len()];
        (w, c)
    }

    /// The `sig`-th full `(weight, max_rate, demand)` signature (wrapping).
    pub fn get_full(&self, sig: u8) -> (f64, f64, ResourceVector) {
        self.sigs[sig as usize % self.sigs.len()]
    }

    /// Number of signatures in the pool.
    pub fn len(&self) -> usize {
        self.sigs.len()
    }

    /// Pools are never empty (asserted at construction).
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Generate a seeded random schedule of `steps` operations drawing
/// signatures `0..sig_range`. Op mix follows the PR 1 harness: 40% adds,
/// 20% advances, 10% removes, 30% completion-driven churn.
pub fn random_schedule(
    rng: &mut Xoshiro256,
    steps: usize,
    sig_range: u8,
    max_work_ms: u64,
    max_dt_ms: u64,
) -> Vec<ChurnOp> {
    assert!(sig_range > 0 && max_work_ms > 0 && max_dt_ms > 0);
    (0..steps)
        .map(|_| match rng.next_u64() % 10 {
            0..=3 => ChurnOp::Add {
                work_ms: 1 + rng.next_u64() % max_work_ms,
                sig: (rng.next_u64() % sig_range as u64) as u8,
            },
            4..=5 => ChurnOp::Advance {
                dt_ms: 1 + rng.next_u64() % max_dt_ms,
            },
            6 => ChurnOp::Remove {
                pick: rng.next_u64(),
            },
            _ => ChurnOp::CompleteNext,
        })
        .collect()
}

/// Generate a seeded multi-resource schedule: the [`random_schedule`] op
/// mix with one slot of the decade re-pointed at memory-bandwidth capacity
/// churn, so DRF schedules move the binding axis (CPU↔memory) while tasks
/// come and go. `mem_centi_range` bounds the bandwidth draw, in
/// centi-units above the one-centi floor.
pub fn drf_schedule(
    rng: &mut Xoshiro256,
    steps: usize,
    sig_range: u8,
    max_work_ms: u64,
    max_dt_ms: u64,
    mem_centi_range: u64,
) -> Vec<ChurnOp> {
    assert!(sig_range > 0 && max_work_ms > 0 && max_dt_ms > 0 && mem_centi_range > 0);
    (0..steps)
        .map(|_| match rng.next_u64() % 10 {
            0..=3 => ChurnOp::Add {
                work_ms: 1 + rng.next_u64() % max_work_ms,
                sig: (rng.next_u64() % sig_range as u64) as u8,
            },
            4..=5 => ChurnOp::Advance {
                dt_ms: 1 + rng.next_u64() % max_dt_ms,
            },
            6 => ChurnOp::Remove {
                pick: rng.next_u64(),
            },
            7 => ChurnOp::SetMemCapacity {
                mem_centi: 1 + rng.next_u64() % mem_centi_range,
            },
            _ => ChurnOp::CompleteNext,
        })
        .collect()
}

/// Generate a seeded schedule that deliberately thrashes the
/// capped/uncapped boundary, for the [`SignaturePool::boundary_ladder`]
/// pool. Each block populates the ladder, slams the heavy swing signature
/// in and out (every swing move shifts the water level across several
/// rungs — a batch of boundary crossings, i.e. heap re-keys), and every
/// other block drains all other classes *mid-completion-stream* so the
/// bank collapses to one class and grows back while completions are being
/// consumed.
pub fn boundary_thrash_schedule(rng: &mut Xoshiro256, blocks: usize, pool_len: u8) -> Vec<ChurnOp> {
    assert!(pool_len > 2, "thrash schedules need swing + anchor + rungs");
    let mut ops = Vec::new();
    for block in 0..blocks {
        // Populate the ladder rungs (signatures 2..) around the boundary.
        for _ in 0..3 + rng.next_u64() % 5 {
            ops.push(ChurnOp::Add {
                work_ms: 200 + rng.next_u64() % 2_500,
                sig: 2 + (rng.next_u64() % (pool_len as u64 - 2)) as u8,
            });
        }
        // Keep a `(1, 1)` anchor alive so the one-class bank has a survivor.
        ops.push(ChurnOp::Add {
            work_ms: 400 + rng.next_u64() % 2_000,
            sig: 1,
        });
        // Swing in: the water level dives, pinning a batch of rungs.
        ops.push(ChurnOp::Add {
            work_ms: 500 + rng.next_u64() % 3_000,
            sig: 0,
        });
        ops.push(ChurnOp::CompleteNext);
        ops.push(ChurnOp::Advance {
            dt_ms: 1 + rng.next_u64() % 400,
        });
        // Swing out: the level jumps back up, unpinning across the rungs.
        ops.push(ChurnOp::RemoveSig {
            sig: 0,
            pick: rng.next_u64(),
        });
        ops.push(ChurnOp::CompleteNext);
        if block % 2 == 1 {
            // Mid-stream collapse: drain every other signature so only the
            // anchor's class survives, consume a completion in the
            // one-class bank, then the next block repopulates the ladder.
            for sig in 2..pool_len {
                ops.push(ChurnOp::DrainSig { sig });
            }
            ops.push(ChurnOp::DrainSig { sig: 0 });
            ops.push(ChurnOp::CompleteNext);
        }
    }
    ops
}

/// Generate a seeded schedule that thrashes the node *capacity* on top of
/// boundary-ladder membership churn, for the
/// [`SignaturePool::boundary_ladder`] pool. Each block populates the
/// ladder, then walks the capacity through a degradation ramp (step-downs
/// with churn and completions between the steps — every step moves the
/// water level, forcing capped/uncapped boundary crossings), holds the
/// trough, and restores — sometimes past the original capacity (autoscale
/// overshoot). Every other block drains every class but the anchor's so
/// capacity changes also land on a one-class bank.
pub fn capacity_thrash_schedule(
    rng: &mut Xoshiro256,
    blocks: usize,
    pool_len: u8,
    base_centi: u64,
) -> Vec<ChurnOp> {
    assert!(pool_len > 2, "thrash schedules need swing + anchor + rungs");
    assert!(base_centi >= 100, "base capacity below one core");
    let mut ops = Vec::new();
    for block in 0..blocks {
        // Populate the ladder rungs and the `(1, 1)` anchor.
        for _ in 0..3 + rng.next_u64() % 5 {
            ops.push(ChurnOp::Add {
                work_ms: 200 + rng.next_u64() % 2_500,
                sig: 2 + (rng.next_u64() % (pool_len as u64 - 2)) as u8,
            });
        }
        ops.push(ChurnOp::Add {
            work_ms: 400 + rng.next_u64() % 2_000,
            sig: 1,
        });
        if rng.next_u64().is_multiple_of(2) {
            // Heavy swing task: its weight dominates the water level, so
            // capacity steps move the boundary across several rungs.
            ops.push(ChurnOp::Add {
                work_ms: 500 + rng.next_u64() % 3_000,
                sig: 0,
            });
        }
        // Degradation ramp: step down to a trough between 10% and 60% of
        // base, in 2–4 steps, with completions and time between the steps.
        let trough = base_centi * (10 + rng.next_u64() % 51) / 100;
        let steps = 2 + rng.next_u64() % 3;
        for step in 1..=steps {
            let level = base_centi - (base_centi - trough) * step / steps;
            ops.push(ChurnOp::SetCapacity { cores_centi: level });
            ops.push(ChurnOp::Advance {
                dt_ms: 1 + rng.next_u64() % 400,
            });
            ops.push(ChurnOp::CompleteNext);
        }
        // Hold the trough under churn, then restore — sometimes
        // overshooting base (autoscale-up adding headroom).
        ops.push(ChurnOp::Remove {
            pick: rng.next_u64(),
        });
        ops.push(ChurnOp::CompleteNext);
        let restored = if rng.next_u64().is_multiple_of(4) {
            base_centi + base_centi * (rng.next_u64() % 50) / 100
        } else {
            base_centi
        };
        ops.push(ChurnOp::SetCapacity {
            cores_centi: restored,
        });
        ops.push(ChurnOp::CompleteNext);
        if block % 2 == 1 {
            // Collapse to the anchor's class mid-stream and thrash capacity
            // there too: the one class crosses the boundary as a whole.
            for sig in 2..pool_len {
                ops.push(ChurnOp::DrainSig { sig });
            }
            ops.push(ChurnOp::DrainSig { sig: 0 });
            ops.push(ChurnOp::SetCapacity {
                cores_centi: trough.max(100),
            });
            ops.push(ChurnOp::CompleteNext);
            ops.push(ChurnOp::SetCapacity {
                cores_centi: base_centi,
            });
        }
    }
    ops
}

/// The production kernel and the seed integrator driven in lockstep.
pub struct DifferentialPair {
    /// The kernel under test.
    pub opt: GpsCpu,
    /// The executable specification.
    pub reference: ReferenceGpsCpu,
    pool: SignaturePool,
    /// Live tasks with the (wrapped) pool signature they were added under,
    /// so signature-targeted ops can find them.
    live: Vec<(TaskId, u8)>,
    now: SimTime,
}

impl DifferentialPair {
    /// Fresh pair over identical parameters.
    pub fn new(cores: f64, kappa: f64, pool: SignaturePool) -> Self {
        let params = GpsParams {
            cores,
            ctx_switch_penalty: kappa,
            penalty_cap: 100.0,
        };
        DifferentialPair {
            opt: GpsCpu::new(params),
            reference: ReferenceGpsCpu::new(params),
            pool,
            live: Vec::new(),
            now: SimTime::ZERO,
        }
    }

    /// Fresh pair with a finite memory-bandwidth capacity on both kernels,
    /// for multi-resource DRF schedules.
    pub fn new_with_mem(cores: f64, kappa: f64, mem: f64, pool: SignaturePool) -> Self {
        let mut pair = DifferentialPair::new(cores, kappa, pool);
        pair.opt
            .set_resource_capacity(SimTime::ZERO, Resource::Mem, mem);
        pair.reference
            .set_resource_capacity(SimTime::ZERO, Resource::Mem, mem);
        pair
    }

    /// Current simulated time of the pair.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of live tasks.
    pub fn live_len(&self) -> usize {
        self.live.len()
    }

    /// Assert the production kernel holds a signature-homogeneous bank as
    /// at most one pin-ratio class, every live task on one side of the
    /// boundary. The one-class suites call this after every operation.
    pub fn assert_one_class(&self) {
        assert!(
            self.opt.class_count() <= 1,
            "homogeneous workload split into {} classes at {:?}",
            self.opt.class_count(),
            self.now
        );
        let (uncapped, capped) = self.opt.partition_sizes();
        assert_eq!(uncapped + capped, self.live.len(), "partition lost a task");
        assert!(
            uncapped == 0 || capped == 0,
            "one class straddles the boundary: ({uncapped}, {capped})"
        );
    }

    fn check_state(&self) {
        assert_eq!(self.opt.len(), self.reference.len(), "live-count mismatch");
        assert!(
            (self.opt.work_done() - self.reference.work_done()).abs() < WORK_TOL,
            "work_done diverged: optimized={} reference={}",
            self.opt.work_done(),
            self.reference.work_done()
        );
        for &(id, _) in &self.live {
            let a = self.opt.remaining(id);
            let b = self.reference.remaining(id);
            assert!(
                (a - b).abs() < WORK_TOL,
                "remaining diverged for {id:?}: optimized={a} reference={b}"
            );
        }
    }

    fn check_next_completion(&mut self) {
        let a = self.opt.next_completion(self.now);
        let b = self.reference.next_completion(self.now);
        match (a, b) {
            (None, None) => {}
            (Some((ida, ta)), Some((idb, tb))) => {
                assert!(
                    (ta.as_secs_f64() - tb.as_secs_f64()).abs() < TIME_TOL,
                    "completion time diverged: optimized=({ida:?}, {ta}) reference=({idb:?}, {tb})"
                );
                if ida != idb {
                    // The kernels may only disagree on a genuine tie: two
                    // tasks whose remaining work is equal in real
                    // arithmetic (floating-point noise breaks the tie
                    // differently in the two algebraic formulations).
                    // Certify the tie; the finished-set comparison after
                    // the completion keeps the kernels in lockstep because
                    // tied tasks finish together.
                    let tie = (self.reference.remaining(ida) - self.reference.remaining(idb)).abs()
                        < WORK_TOL;
                    assert!(
                        tie,
                        "completion order diverged beyond a tie at {:?}: \
                         optimized={ida:?} reference={idb:?} (ref remainings {} vs {})",
                        self.now,
                        self.reference.remaining(ida),
                        self.reference.remaining(idb)
                    );
                }
            }
            (a, b) => panic!("completion presence diverged: optimized={a:?} reference={b:?}"),
        }
    }

    /// Remove one live task from both kernels, comparing residuals.
    fn remove_live(&mut self, index: usize) {
        let (id, _) = self.live.remove(index);
        let ra = self.opt.remove_task(self.now, id);
        let rb = self.reference.remove_task(self.now, id);
        assert!(
            (ra - rb).abs() < WORK_TOL,
            "residual diverged for {id:?}: optimized={ra} reference={rb}"
        );
    }

    /// Apply one operation to both kernels and compare every observable.
    pub fn apply(&mut self, op: ChurnOp) {
        match op {
            ChurnOp::Add { work_ms, sig } => {
                let work = work_ms as f64 / 1000.0;
                let (weight, max_rate, demand) = self.pool.get_full(sig);
                let ida = self
                    .opt
                    .add_task_demand(self.now, work, weight, max_rate, demand);
                let idb = self
                    .reference
                    .add_task_demand(self.now, work, weight, max_rate, demand);
                assert_eq!(ida, idb, "slot allocation diverged");
                self.live
                    .push((ida, (sig as usize % self.pool.len()) as u8));
            }
            ChurnOp::Remove { pick } => {
                if self.live.is_empty() {
                    return;
                }
                self.remove_live((pick % self.live.len() as u64) as usize);
            }
            ChurnOp::RemoveSig { sig, pick } => {
                let sig = (sig as usize % self.pool.len()) as u8;
                let matches: Vec<usize> = self
                    .live
                    .iter()
                    .enumerate()
                    .filter_map(|(i, &(_, s))| (s == sig).then_some(i))
                    .collect();
                if matches.is_empty() {
                    return;
                }
                self.remove_live(matches[(pick % matches.len() as u64) as usize]);
            }
            ChurnOp::DrainSig { sig } => {
                let sig = (sig as usize % self.pool.len()) as u8;
                while let Some(index) = self.live.iter().position(|&(_, s)| s == sig) {
                    self.remove_live(index);
                    // Compare the full observable set after every removal,
                    // not just at the end of the drain: a mid-drain
                    // rebalance is exactly the state the op targets.
                    self.check_state();
                }
            }
            ChurnOp::Advance { dt_ms } => {
                self.now += SimDuration::from_millis(dt_ms);
                self.opt.advance(self.now);
                self.reference.advance(self.now);
            }
            ChurnOp::SetCapacity { cores_centi } => {
                let cores = cores_centi.max(1) as f64 / 100.0;
                self.opt.set_capacity(self.now, cores);
                self.reference.set_capacity(self.now, cores);
            }
            ChurnOp::SetMemCapacity { mem_centi } => {
                let mem = mem_centi.max(1) as f64 / 100.0;
                self.opt.set_resource_capacity(self.now, Resource::Mem, mem);
                self.reference
                    .set_resource_capacity(self.now, Resource::Mem, mem);
            }
            ChurnOp::CompleteNext => {
                let Some((id, at)) = self.reference.next_completion(self.now) else {
                    assert!(self.opt.next_completion(self.now).is_none());
                    return;
                };
                self.check_next_completion();
                self.now = self.now.max(at);
                let fa = self.opt.finished_tasks(self.now);
                let fb = self.reference.finished_tasks(self.now);
                assert_eq!(fa, fb, "finished sets diverged at {:?}", self.now);
                assert!(
                    fb.contains(&id) || self.reference.remaining(id) > 0.0,
                    "predicted completion {id:?} neither finished nor pending"
                );
                for done in fb {
                    self.live.retain(|&(l, _)| l != done);
                    let ra = self.opt.remove_task(self.now, done);
                    let rb = self.reference.remove_task(self.now, done);
                    assert!((ra - rb).abs() < WORK_TOL, "finished residual diverged");
                }
            }
        }
        self.check_state();
        self.check_next_completion();
    }

    /// Drive every remaining task to completion, comparing the full
    /// completion order.
    pub fn drain(&mut self) {
        let mut guard = 0usize;
        while !self.reference.is_empty() {
            self.apply(ChurnOp::CompleteNext);
            guard += 1;
            assert!(guard < 100_000, "drain did not converge");
        }
        assert!(self.opt.is_empty(), "optimized kernel retained tasks");
    }
}

/// Drive one fully seeded random schedule end to end: node shape, schedule
/// and pool choice all derive from `seed`. The volume sweeps call this in
/// a loop; a failing seed reproduces exactly.
pub fn run_differential_schedule(seed: u64, pool: &SignaturePool, max_steps: usize) {
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xD1FF_5EED);
    let cores = 1.0 + (rng.next_u64() % 12) as f64;
    let kappa = (rng.next_u64() % 100) as f64 / 100.0;
    let steps = max_steps / 4 + (rng.next_u64() % (3 * max_steps as u64 / 4).max(1)) as usize;
    let ops = random_schedule(&mut rng, steps, pool.len() as u8, 4_000, 1_200);
    let mut pair = DifferentialPair::new(cores, kappa, pool.clone());
    for op in ops {
        pair.apply(op);
    }
    pair.drain();
}

/// Drive one fully seeded multi-resource DRF schedule end to end: node
/// shape (cores *and* a finite memory-bandwidth capacity), schedule and
/// bandwidth churn all derive from `seed`; every observable is pinned to
/// the reference integrator per step. A failing seed reproduces exactly.
pub fn run_drf_differential_schedule(seed: u64, pool: &SignaturePool, max_steps: usize) {
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xDF00_D0D0);
    let cores = 1.0 + (rng.next_u64() % 12) as f64;
    let kappa = (rng.next_u64() % 100) as f64 / 100.0;
    // Bandwidth envelope 0.5–12 units: below, inside and above the pool's
    // memory demand range, so either axis can bind.
    let mem_centi = 50 + rng.next_u64() % 1_151;
    let steps = max_steps / 4 + (rng.next_u64() % (3 * max_steps as u64 / 4).max(1)) as usize;
    let ops = drf_schedule(&mut rng, steps, pool.len() as u8, 4_000, 1_200, 1_200);
    let mut pair =
        DifferentialPair::new_with_mem(cores, kappa, mem_centi as f64 / 100.0, pool.clone());
    for op in ops {
        pair.apply(op);
    }
    pair.drain();
}

/// Drive one seeded boundary-thrash schedule end to end over the
/// [`SignaturePool::boundary_ladder`] pool, with the node shape derived
/// from `seed`, and return the number of capped/uncapped boundary
/// crossings the production kernel performed (so suites can assert the
/// schedules actually exercise the re-keying path).
pub fn run_boundary_thrash_schedule(seed: u64, blocks: usize) -> u64 {
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xB0BB_1E57);
    // The ladder ratios sit in 0.2–1.0 at ~unit weights: 2–7 cores keeps
    // the water level inside the ladder so the swing moves cross rungs.
    let cores = 2.0 + (rng.next_u64() % 6) as f64;
    let kappa = (rng.next_u64() % 60) as f64 / 100.0;
    let pool = SignaturePool::boundary_ladder();
    let ops = boundary_thrash_schedule(&mut rng, blocks, pool.len() as u8);
    let mut pair = DifferentialPair::new(cores, kappa, pool);
    for op in ops {
        pair.apply(op);
    }
    pair.drain();
    pair.opt.boundary_crossings()
}

/// Drive one seeded capacity-thrash schedule end to end over the
/// [`SignaturePool::boundary_ladder`] pool — dynamic-capacity ramps and
/// restorations interleaved with membership churn and one-class collapses,
/// every observable pinned to the reference integrator per step — and
/// return the number of capped/uncapped boundary crossings the production
/// kernel performed (so suites can assert the ramps actually move the
/// boundary).
pub fn run_capacity_thrash_schedule(seed: u64, blocks: usize) -> u64 {
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xCA9A_C17F);
    // Same envelope as the boundary-thrash runner: the ladder ratios sit
    // in 0.2–1.0 at ~unit weights, so 2–7 cores keeps the water level
    // inside the ladder and every capacity step crosses rungs.
    let cores = 2.0 + (rng.next_u64() % 6) as f64;
    let kappa = (rng.next_u64() % 60) as f64 / 100.0;
    let pool = SignaturePool::boundary_ladder();
    let base_centi = (cores * 100.0) as u64;
    let ops = capacity_thrash_schedule(&mut rng, blocks, pool.len() as u8, base_centi);
    let mut pair = DifferentialPair::new(cores, kappa, pool);
    for op in ops {
        pair.apply(op);
    }
    pair.drain();
    pair.opt.boundary_crossings()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_lookup_wraps() {
        let pool = SignaturePool::paper_mixed();
        assert_eq!(pool.get(0), pool.get(4));
        assert_eq!(pool.len(), 4);
    }

    #[test]
    fn weighted_pools_are_seed_deterministic_and_diverse() {
        let a = SignaturePool::weighted(7);
        let b = SignaturePool::weighted(7);
        assert_eq!(a.sigs, b.sigs, "same seed, same pool");
        assert!(a.len() >= 6);
        let distinct: std::collections::BTreeSet<(u64, u64)> = a
            .sigs
            .iter()
            .map(|&(w, c, _)| (w.to_bits(), c.to_bits()))
            .collect();
        assert!(distinct.len() >= 2, "pool must be heterogeneous");
    }

    #[test]
    fn drf_pools_are_seed_deterministic_and_mix_demand_shapes() {
        let a = SignaturePool::drf_weighted(7);
        let b = SignaturePool::drf_weighted(7);
        assert_eq!(a.sigs, b.sigs, "same seed, same pool");
        assert!(a.len() >= 6);
        let mixed = SignaturePool::drf_mixed();
        let has_cpu_only = mixed.sigs.iter().any(|&(_, _, d)| d.mem == 0.0);
        let has_mem_dominant = mixed.sigs.iter().any(|&(_, _, d)| d.mem > d.cpu);
        assert!(
            has_cpu_only && has_mem_dominant,
            "pool must span demand shapes"
        );
    }

    #[test]
    fn random_schedules_are_seed_deterministic() {
        let gen = |seed: u64| {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            random_schedule(&mut rng, 50, 4, 1_000, 500)
        };
        let fmt = |ops: &[ChurnOp]| format!("{ops:?}");
        assert_eq!(fmt(&gen(3)), fmt(&gen(3)));
        assert_ne!(fmt(&gen(3)), fmt(&gen(4)));
    }

    #[test]
    fn differential_pair_smoke() {
        run_differential_schedule(1, &SignaturePool::paper_mixed(), 60);
        run_differential_schedule(2, &SignaturePool::weighted(2), 60);
    }

    #[test]
    fn drf_differential_pair_smoke() {
        run_drf_differential_schedule(1, &SignaturePool::drf_mixed(), 60);
        run_drf_differential_schedule(2, &SignaturePool::drf_weighted(2), 60);
    }

    #[test]
    fn set_mem_capacity_op_applies_to_both_kernels() {
        let mut pair = DifferentialPair::new_with_mem(4.0, 0.0, 2.0, SignaturePool::drf_mixed());
        pair.apply(ChurnOp::Add {
            work_ms: 900,
            sig: 2,
        });
        pair.apply(ChurnOp::Add {
            work_ms: 900,
            sig: 4,
        });
        pair.apply(ChurnOp::SetMemCapacity { mem_centi: 120 });
        assert_eq!(pair.opt.resource_capacity(crate::gps::Resource::Mem), 1.2);
        pair.apply(ChurnOp::Advance { dt_ms: 300 });
        pair.apply(ChurnOp::SetMemCapacity { mem_centi: 0 });
        assert_eq!(
            pair.opt.resource_capacity(crate::gps::Resource::Mem),
            0.01,
            "zero clamps to a centi-unit"
        );
        pair.apply(ChurnOp::SetMemCapacity { mem_centi: 400 });
        pair.drain();
    }

    #[test]
    fn boundary_thrash_smoke() {
        let crossings = run_boundary_thrash_schedule(1, 4);
        assert!(crossings > 0, "thrash schedule never crossed the boundary");
    }

    #[test]
    fn capacity_thrash_smoke() {
        let crossings = run_capacity_thrash_schedule(1, 4);
        assert!(crossings > 0, "capacity thrash never crossed the boundary");
    }

    #[test]
    fn set_capacity_op_applies_to_both_kernels() {
        let mut pair = DifferentialPair::new(4.0, 0.0, SignaturePool::boundary_ladder());
        pair.apply(ChurnOp::Add {
            work_ms: 900,
            sig: 2,
        });
        pair.apply(ChurnOp::Add {
            work_ms: 900,
            sig: 4,
        });
        pair.apply(ChurnOp::SetCapacity { cores_centi: 120 });
        assert_eq!(pair.opt.params().cores, 1.2);
        assert_eq!(pair.reference.params().cores, 1.2);
        pair.apply(ChurnOp::Advance { dt_ms: 300 });
        pair.apply(ChurnOp::SetCapacity { cores_centi: 0 });
        assert_eq!(pair.opt.params().cores, 0.01, "zero clamps to a centi-core");
        pair.apply(ChurnOp::SetCapacity { cores_centi: 400 });
        pair.drain();
    }

    #[test]
    fn drain_sig_empties_exactly_one_class() {
        // The swing (8, 8) and the anchor (1, 1) share pin ratio 1: one
        // class of two signatures. Rung (1, 0.2) is a class of its own.
        let pool = SignaturePool::boundary_ladder();
        let mut pair = DifferentialPair::new(4.0, 0.0, pool);
        for sig in [0u8, 1, 2, 0, 1, 2] {
            pair.apply(ChurnOp::Add { work_ms: 500, sig });
        }
        assert_eq!(pair.live_len(), 6);
        assert_eq!(pair.opt.class_count(), 2);
        pair.apply(ChurnOp::DrainSig { sig: 0 });
        assert_eq!(pair.live_len(), 4, "both swing tasks removed");
        assert_eq!(pair.opt.class_count(), 2, "the anchor keeps ratio 1 alive");
        pair.apply(ChurnOp::DrainSig { sig: 2 });
        pair.apply(ChurnOp::RemoveSig { sig: 2, pick: 7 });
        assert_eq!(pair.live_len(), 2, "drained class is empty, op is a no-op");
        pair.assert_one_class();
        pair.drain();
    }
}
