//! Seeded, fully deterministic fault injection: dynamic node capacity,
//! node crash/restart, and per-call transient failures with a
//! retry/timeout/backoff policy.
//!
//! # Fault model
//!
//! A [`FaultSpec`] declares, for a whole cluster run:
//!
//! * **Capacity ramps** ([`CapacityRamp`]) — a node's effective core count
//!   degrades to a trough multiplier and later restores, in configurable
//!   steps. One step down models a cgroup throttle landing at once; many
//!   steps model growing noisy-neighbor pressure; a slow restoration
//!   models autoscale lag. Compiled to `SetCapacity` timeline events that
//!   the invokers feed into `faas_cpu::GpsCpu::set_capacity`.
//! * **Crashes** ([`CrashSpec`]) — a node dies at an instant and restarts
//!   after a delay. In-flight attempts on the dead node are killed (and
//!   retried per policy); queued calls survive — OpenWhisk's load balancer
//!   has already committed them to the invoker's Kafka topic, so they wait
//!   for the restarted invoker to resume pulling. Every container is lost,
//!   so the node restarts cold.
//! * **Transient failures** — each delivery *attempt* of a call fails with
//!   probability [`FaultSpec::transient_failure`], drawn at attempt
//!   completion (the work is consumed; the response is lost).
//! * **A [`RetryPolicy`]** — max attempts per call, a pending timeout
//!   (abandon an attempt that has not started executing in time) and
//!   exponential backoff with deterministic jitter between attempts.
//!
//! # Determinism and shard invariance
//!
//! Every random draw is a **pure function** of `(spec.seed, call id,
//! attempt)` — a SplitMix64 hash, not a stateful stream — and every
//! timeline is a pure function of `(spec, node index)`. No draw depends on
//! event order, on which worker thread simulates the node, or on how the
//! call stream was sharded, so a fixed seed reproduces a crash/retry
//! scenario bit-for-bit across runs and across chunk/stride sharding —
//! the same discipline [`crate::generate::ShardedGenerator`] uses for
//! call generation.

use crate::trace::CallId;
use faas_simcore::rng::splitmix64;
use faas_simcore::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Domain-separation tags for the per-call hash draws.
const TAG_TRANSIENT: u64 = 0xFA11_0001;
const TAG_JITTER: u64 = 0xFA11_0002;

/// A uniform `[0, 1)` draw that is a pure function of its arguments: the
/// spec seed, the call, the attempt number and a domain tag. Two rounds of
/// SplitMix64 over the mixed inputs — no stream state, so the draw is
/// independent of simulation event order and sharding.
fn unit_draw(seed: u64, call: CallId, attempt: u32, tag: u64) -> f64 {
    let mut s = seed
        ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ ((call.0 << 32) | attempt as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
    splitmix64(&mut s);
    let x = splitmix64(&mut s);
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Per-call retry/timeout/backoff policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Maximum delivery attempts per call (at least 1; 1 means no retry).
    pub max_attempts: u32,
    /// Abandon an attempt that has not *started executing* within this
    /// long of its (re)arrival at the invoker; `None` disables the
    /// timeout. Models the client/gateway giving up on a queued request.
    pub pending_timeout: Option<SimDuration>,
    /// Backoff before the first retry; retry `k` (1-based) waits
    /// `backoff_base · backoff_factor^(k-1)`, scaled by the jitter draw.
    pub backoff_base: SimDuration,
    /// Exponential backoff multiplier (at least 1).
    pub backoff_factor: f64,
    /// Jitter fraction in `[0, 1]`: the backoff is scaled by `1 + j·u`
    /// with `u` a deterministic per-`(call, attempt)` unit draw.
    pub jitter: f64,
}

impl RetryPolicy {
    /// No retries, no timeout: every attempt is final.
    pub fn no_retry() -> Self {
        RetryPolicy {
            max_attempts: 1,
            pending_timeout: None,
            backoff_base: SimDuration::ZERO,
            backoff_factor: 1.0,
            jitter: 0.0,
        }
    }

    /// A production-shaped default: three attempts, 250 ms initial backoff
    /// doubling per retry, half-range jitter, no pending timeout.
    pub fn standard() -> Self {
        RetryPolicy {
            max_attempts: 3,
            pending_timeout: None,
            backoff_base: SimDuration::from_millis(250),
            backoff_factor: 2.0,
            jitter: 0.5,
        }
    }

    /// Why the policy is malformed, if it is.
    pub fn check(&self) -> Result<(), String> {
        if self.max_attempts < 1 {
            return Err("a call needs at least one attempt".into());
        }
        if !(self.backoff_factor.is_finite() && self.backoff_factor >= 1.0) {
            return Err(format!(
                "backoff factor must be finite and at least 1, got {}",
                self.backoff_factor
            ));
        }
        if !(self.jitter.is_finite() && (0.0..=1.0).contains(&self.jitter)) {
            return Err(format!("jitter must sit in [0, 1], got {}", self.jitter));
        }
        Ok(())
    }

    /// The deterministic backoff before retrying `call` after its failed
    /// `attempt` (1-based). Pure in `(seed, call, attempt)`.
    pub fn backoff(&self, seed: u64, call: CallId, attempt: u32) -> SimDuration {
        let base = self.backoff_base.as_secs_f64();
        if base <= 0.0 {
            return SimDuration::ZERO;
        }
        let exp = self.backoff_factor.powi(attempt.saturating_sub(1) as i32);
        let scale = 1.0 + self.jitter * unit_draw(seed, call, attempt, TAG_JITTER);
        SimDuration::from_secs_f64(base * exp * scale)
    }
}

/// A capacity degradation/restoration ramp on one node (or all nodes).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CapacityRamp {
    /// Target node index, or `None` to degrade every node.
    pub node: Option<u16>,
    /// Onset of the degradation.
    pub start: SimTime,
    /// Capacity multiplier at the trough (`0 < floor`; above 1 models a
    /// temporary burst of extra capacity).
    pub floor: f64,
    /// Equal steps down to the trough (at least 1): 1 is a cgroup
    /// throttle landing at once, many is noisy-neighbor pressure growing.
    pub steps_down: u32,
    /// Time between consecutive steps (down and up).
    pub step_every: SimDuration,
    /// How long the trough holds before restoration begins.
    pub hold: SimDuration,
    /// Equal steps back to full capacity (at least 1): many steps model
    /// autoscale lag clawing capacity back slowly.
    pub steps_up: u32,
}

impl CapacityRamp {
    /// Why the ramp is malformed, if it is.
    pub fn check(&self) -> Result<(), String> {
        if !(self.floor.is_finite() && self.floor > 0.0) {
            return Err(format!(
                "capacity floor must be positive and finite, got {}",
                self.floor
            ));
        }
        if self.steps_down < 1 || self.steps_up < 1 {
            return Err("ramps need steps".into());
        }
        Ok(())
    }

    /// Append this ramp's `SetCapacity` events for `node` to `out`.
    fn compile_into(&self, node: u16, out: &mut Vec<FaultEvent>) {
        match self.node {
            Some(n) if n != node => return,
            _ => {}
        }
        let mut at = self.start;
        for step in 1..=self.steps_down {
            let frac = step as f64 / self.steps_down as f64;
            let factor = 1.0 + (self.floor - 1.0) * frac;
            out.push(FaultEvent {
                at,
                kind: FaultKind::SetCapacityFactor(factor),
            });
            if step < self.steps_down {
                at += self.step_every;
            }
        }
        at += self.hold;
        for step in 1..=self.steps_up {
            let frac = step as f64 / self.steps_up as f64;
            let factor = self.floor + (1.0 - self.floor) * frac;
            at += self.step_every;
            out.push(FaultEvent {
                at,
                kind: FaultKind::SetCapacityFactor(factor),
            });
        }
    }
}

/// A node crash with restart-after-delay.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrashSpec {
    /// The node that dies.
    pub node: u16,
    /// The instant it dies.
    pub at: SimTime,
    /// How long until the invoker process is back (cold: every container
    /// is lost).
    pub restart_after: SimDuration,
}

/// One compiled fault event on a node's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// When the event fires.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// The kinds of compiled fault events.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Scale the node's core capacity to `factor ×` its configured cores.
    SetCapacityFactor(f64),
    /// The node dies: in-flight attempts are killed, containers are lost.
    Crash,
    /// The (cold) invoker process is back; dispatch resumes.
    Restart,
}

impl FaultKind {
    /// Deterministic secondary sort key for same-instant events: capacity
    /// changes apply before a crash, and a crash precedes a restart.
    fn order(&self) -> u8 {
        match self {
            FaultKind::SetCapacityFactor(_) => 0,
            FaultKind::Crash => 1,
            FaultKind::Restart => 2,
        }
    }
}

/// The compiled, time-sorted fault timeline of one node: a pure function
/// of `(spec, node index)`, merged into the node's event queue by the
/// invoker simulations.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultTimeline {
    /// Events sorted by `(time, kind order)`.
    pub events: Vec<FaultEvent>,
}

impl FaultTimeline {
    /// True when nothing ever happens to this node.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// The full fault plan of a run. [`FaultSpec::none`] — the default — is
/// the identity: no capacity events, no crashes, zero failure probability
/// and a no-retry policy. Fault-free runs go through the same per-call
/// lifecycle as fault runs; under this plan it has nothing to act on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Root seed of every deterministic fault draw (transient failures,
    /// backoff jitter). Independent of the workload seeds so fault plans
    /// never perturb call generation.
    pub seed: u64,
    /// Capacity degradation/restoration ramps.
    pub capacity: Vec<CapacityRamp>,
    /// Node crashes.
    pub crashes: Vec<CrashSpec>,
    /// Probability that one delivery attempt fails transiently, in
    /// `[0, 1]`. Drawn per `(call, attempt)` at attempt completion.
    pub transient_failure: f64,
    /// The retry/timeout/backoff policy.
    pub retry: RetryPolicy,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::none()
    }
}

impl FaultSpec {
    /// The identity plan: no faults, no retries. Inert by its data: an
    /// empty timeline on every node, a zero failure probability that
    /// [`FaultSpec::attempt_fails`] answers without a draw, and no pending
    /// timeout. A run under it schedules no fault event and moves no
    /// random stream, so it is the fault-free run.
    pub fn none() -> Self {
        FaultSpec {
            seed: 0,
            capacity: Vec::new(),
            crashes: Vec::new(),
            transient_failure: 0.0,
            retry: RetryPolicy::no_retry(),
        }
    }

    /// True when nothing in the plan can fail an attempt, so no retry can
    /// ever leave a node: cross-node failover needs a plan for which this
    /// is false. A pending timeout counts as a fault source — it can
    /// abandon queued attempts even with no capacity events, crashes or
    /// transient failures. A bare `max_attempts > 1` does not: with
    /// nothing able to fail an attempt, retries are unreachable.
    pub fn is_none(&self) -> bool {
        self.capacity.is_empty()
            && self.crashes.is_empty()
            && self.transient_failure == 0.0
            && self.retry.pending_timeout.is_none()
    }

    /// Why the plan is malformed, if it is: a transient-failure
    /// probability outside `[0, 1]`, or a malformed retry policy or ramp.
    pub fn check(&self) -> Result<(), String> {
        let p = self.transient_failure;
        if !(p.is_finite() && (0.0..=1.0).contains(&p)) {
            return Err(format!(
                "transient failure probability must sit in [0, 1], got {p}"
            ));
        }
        self.retry.check()?;
        self.capacity.iter().try_for_each(CapacityRamp::check)
    }

    /// Panic unless the plan is well-formed ([`FaultSpec::check`]).
    pub fn validate(&self) {
        if let Err(problem) = self.check() {
            panic!("{problem}");
        }
    }

    /// Preset: a mid-window degradation ramp on every node — three steps
    /// down to 40% capacity, a hold, and a slow six-step restoration
    /// (autoscale lag) — with the standard retry policy.
    pub fn degradation(seed: u64, burst_start: SimTime, window: SimDuration) -> Self {
        let quarter = SimDuration::from_secs_f64(window.as_secs_f64() / 4.0);
        FaultSpec {
            seed,
            capacity: vec![CapacityRamp {
                node: None,
                start: burst_start + quarter,
                floor: 0.4,
                steps_down: 3,
                step_every: SimDuration::from_secs(2),
                hold: quarter,
                steps_up: 6,
            }],
            crashes: Vec::new(),
            transient_failure: 0.0,
            retry: RetryPolicy::standard(),
        }
    }

    /// Preset: node 0 crashes a third into the burst window and restarts
    /// after a tenth of the window, with the standard retry policy.
    pub fn crash_restart(seed: u64, burst_start: SimTime, window: SimDuration) -> Self {
        let third = SimDuration::from_secs_f64(window.as_secs_f64() / 3.0);
        let tenth = SimDuration::from_secs_f64(window.as_secs_f64() / 10.0);
        FaultSpec {
            seed,
            capacity: Vec::new(),
            crashes: vec![CrashSpec {
                node: 0,
                at: burst_start + third,
                restart_after: tenth,
            }],
            transient_failure: 0.0,
            retry: RetryPolicy::standard(),
        }
    }

    /// Preset: [`FaultSpec::crash_restart`] under an impatient client —
    /// two attempts and a 1.5 s pending timeout. Queued calls committed to
    /// the dead node now time out instead of waiting for the restart,
    /// which is the regime where routing policy matters: a static balancer
    /// keeps feeding the dead node's shard, while queue-feedback balancers
    /// with cross-node failover steer around it (the coupled engine's
    /// robustness axis).
    pub fn crash_strict(seed: u64, burst_start: SimTime, window: SimDuration) -> Self {
        let mut spec = FaultSpec::crash_restart(seed, burst_start, window);
        spec.retry = RetryPolicy {
            max_attempts: 2,
            pending_timeout: Some(SimDuration::from_millis(1500)),
            backoff_base: SimDuration::from_millis(100),
            backoff_factor: 2.0,
            jitter: 0.5,
        };
        spec
    }

    /// Preset: a retry storm — 15% of attempts fail transiently under an
    /// aggressive five-attempt policy with tight backoff.
    pub fn retry_storm(seed: u64) -> Self {
        FaultSpec {
            seed,
            capacity: Vec::new(),
            crashes: Vec::new(),
            transient_failure: 0.15,
            retry: RetryPolicy {
                max_attempts: 5,
                pending_timeout: None,
                backoff_base: SimDuration::from_millis(100),
                backoff_factor: 2.0,
                jitter: 0.5,
            },
        }
    }

    /// Compile the plan into `node`'s time-sorted fault timeline. Pure in
    /// `(self, node)`: the same spec yields the same timeline whatever
    /// order nodes are simulated in.
    pub fn timeline_for_node(&self, node: u16) -> FaultTimeline {
        self.validate();
        let mut events = Vec::new();
        for ramp in &self.capacity {
            ramp.compile_into(node, &mut events);
        }
        for crash in &self.crashes {
            if crash.node == node {
                events.push(FaultEvent {
                    at: crash.at,
                    kind: FaultKind::Crash,
                });
                events.push(FaultEvent {
                    at: crash.at + crash.restart_after,
                    kind: FaultKind::Restart,
                });
            }
        }
        events.sort_by(|a, b| {
            a.at.cmp(&b.at)
                .then_with(|| a.kind.order().cmp(&b.kind.order()))
        });
        FaultTimeline { events }
    }

    /// Whether delivery attempt `attempt` (1-based) of `call` fails
    /// transiently. Pure in `(seed, call, attempt)`.
    pub fn attempt_fails(&self, call: CallId, attempt: u32) -> bool {
        self.transient_failure > 0.0
            && unit_draw(self.seed, call, attempt, TAG_TRANSIENT) < self.transient_failure
    }
}

/// Why a call left the system without completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DropReason {
    /// Every allowed attempt failed transiently or was killed by a crash.
    ExhaustedRetries,
    /// The pending timeout expired before the attempt started executing
    /// and no attempts remained.
    TimedOut,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_draws_are_pure_and_decorrelated() {
        let a = unit_draw(7, CallId(3), 1, TAG_TRANSIENT);
        let b = unit_draw(7, CallId(3), 1, TAG_TRANSIENT);
        assert_eq!(a, b, "same inputs, same draw");
        assert!((0.0..1.0).contains(&a));
        assert_ne!(a, unit_draw(7, CallId(3), 2, TAG_TRANSIENT));
        assert_ne!(a, unit_draw(7, CallId(4), 1, TAG_TRANSIENT));
        assert_ne!(a, unit_draw(8, CallId(3), 1, TAG_TRANSIENT));
        assert_ne!(a, unit_draw(7, CallId(3), 1, TAG_JITTER));
    }

    #[test]
    fn transient_failure_rate_is_roughly_the_probability() {
        let mut spec = FaultSpec::none();
        spec.transient_failure = 0.2;
        let fails = (0..10_000)
            .filter(|&i| spec.attempt_fails(CallId(i), 1))
            .count();
        assert!((1_700..2_300).contains(&fails), "saw {fails} failures");
        // Zero probability short-circuits without drawing.
        assert!(!FaultSpec::none().attempt_fails(CallId(0), 1));
    }

    #[test]
    fn backoff_grows_exponentially_with_bounded_jitter() {
        let p = RetryPolicy::standard();
        let b1 = p.backoff(42, CallId(9), 1).as_secs_f64();
        let b2 = p.backoff(42, CallId(9), 2).as_secs_f64();
        let b3 = p.backoff(42, CallId(9), 3).as_secs_f64();
        assert!((0.25..=0.375).contains(&b1), "attempt 1 backoff {b1}");
        assert!((0.5..=0.75).contains(&b2), "attempt 2 backoff {b2}");
        assert!((1.0..=1.5).contains(&b3), "attempt 3 backoff {b3}");
        // Deterministic per (seed, call, attempt).
        assert_eq!(p.backoff(42, CallId(9), 2), p.backoff(42, CallId(9), 2));
        assert_ne!(p.backoff(42, CallId(9), 2), p.backoff(42, CallId(10), 2));
        // No base, no wait.
        assert_eq!(
            RetryPolicy::no_retry().backoff(1, CallId(0), 1),
            SimDuration::ZERO
        );
    }

    #[test]
    fn ramp_compiles_to_monotone_steps_down_then_up() {
        let ramp = CapacityRamp {
            node: None,
            start: SimTime::from_secs(100),
            floor: 0.4,
            steps_down: 3,
            step_every: SimDuration::from_secs(2),
            hold: SimDuration::from_secs(10),
            steps_up: 2,
        };
        let spec = FaultSpec {
            capacity: vec![ramp],
            ..FaultSpec::none()
        };
        let tl = spec.timeline_for_node(5);
        let factors: Vec<f64> = tl
            .events
            .iter()
            .map(|e| match e.kind {
                FaultKind::SetCapacityFactor(f) => f,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(factors.len(), 5);
        // Down: 0.8, 0.6, 0.4; up: 0.7, 1.0.
        assert!((factors[0] - 0.8).abs() < 1e-12);
        assert!((factors[1] - 0.6).abs() < 1e-12);
        assert!((factors[2] - 0.4).abs() < 1e-12);
        assert!((factors[3] - 0.7).abs() < 1e-12);
        assert!((factors[4] - 1.0).abs() < 1e-12);
        let times: Vec<SimTime> = tl.events.iter().map(|e| e.at).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "sorted timeline");
        assert_eq!(times[0], SimTime::from_secs(100));
        // Restoration ends at full capacity.
        assert_eq!(factors.last().copied(), Some(1.0));
    }

    #[test]
    fn timelines_are_per_node_and_pure() {
        let spec = FaultSpec {
            capacity: vec![CapacityRamp {
                node: Some(1),
                start: SimTime::from_secs(10),
                floor: 0.5,
                steps_down: 1,
                step_every: SimDuration::from_secs(1),
                hold: SimDuration::from_secs(5),
                steps_up: 1,
            }],
            crashes: vec![CrashSpec {
                node: 0,
                at: SimTime::from_secs(20),
                restart_after: SimDuration::from_secs(4),
            }],
            ..FaultSpec::none()
        };
        let n0 = spec.timeline_for_node(0);
        let n1 = spec.timeline_for_node(1);
        let n2 = spec.timeline_for_node(2);
        assert_eq!(
            n0.events,
            vec![
                FaultEvent {
                    at: SimTime::from_secs(20),
                    kind: FaultKind::Crash
                },
                FaultEvent {
                    at: SimTime::from_secs(24),
                    kind: FaultKind::Restart
                },
            ]
        );
        assert_eq!(n1.events.len(), 2, "ramp targets node 1 only");
        assert!(matches!(
            n1.events[0].kind,
            FaultKind::SetCapacityFactor(f) if (f - 0.5).abs() < 1e-12
        ));
        assert!(n2.is_empty());
        // Purity: recompilation is identical.
        assert_eq!(n0, spec.timeline_for_node(0));
    }

    #[test]
    fn none_plan_is_inert() {
        let spec = FaultSpec::none();
        assert!(spec.is_none());
        assert!(spec.timeline_for_node(0).is_empty());
        assert!(!spec.attempt_fails(CallId(0), 1));
        assert_eq!(spec.retry.max_attempts, 1);
        // Presets are not inert.
        assert!(
            !FaultSpec::degradation(1, SimTime::from_secs(100), SimDuration::from_secs(60))
                .is_none()
        );
        assert!(
            !FaultSpec::crash_restart(1, SimTime::from_secs(100), SimDuration::from_secs(60))
                .is_none()
        );
        assert!(!FaultSpec::retry_storm(1).is_none());
        let strict =
            FaultSpec::crash_strict(1, SimTime::from_secs(100), SimDuration::from_secs(60));
        assert!(!strict.is_none());
        assert_eq!(strict.retry.max_attempts, 2);
        assert_eq!(
            strict.retry.pending_timeout,
            Some(SimDuration::from_millis(1500))
        );
        assert_eq!(strict.crashes.len(), 1, "inherits the crash plan");
        // A pending timeout alone can abandon queued attempts: not inert.
        let mut timed = FaultSpec::none();
        timed.retry.pending_timeout = Some(SimDuration::from_secs(1));
        assert!(!timed.is_none());
    }

    #[test]
    #[should_panic(expected = "transient failure probability")]
    fn invalid_probability_rejected() {
        let mut spec = FaultSpec::none();
        spec.transient_failure = 1.5;
        spec.timeline_for_node(0);
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn zero_attempts_rejected() {
        let mut spec = FaultSpec::none();
        spec.retry.max_attempts = 0;
        spec.timeline_for_node(0);
    }
}
