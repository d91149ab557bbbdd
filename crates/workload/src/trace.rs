//! Call and outcome record types shared by the node and cluster simulations.

use crate::sebs::FuncId;
use faas_simcore::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Unique identifier of a call within one experiment.
///
/// 64 bits wide: trace-scale runs address call logs past the ~4.3e9 calls a
/// `u32` could index (a 10^8-call day is well inside `u32`, but the id also
/// carries the generation index for sharded/stride routing, and the design
/// headroom target is "never the limiting width").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CallId(pub u64);

/// Whether a call is part of the measured burst or the warm-up phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CallKind {
    /// Warm-up call (§V-A): initialises containers, excluded from metrics.
    Warmup,
    /// Measured call issued during the burst window.
    Measured,
}

/// One function invocation as generated by the client (Gatling in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Call {
    /// Identifier, unique per experiment.
    pub id: CallId,
    /// The requested function, `f(i)`.
    pub func: FuncId,
    /// The moment the request is generated by the end-user, `r(i)`.
    pub release: SimTime,
    /// Warm-up or measured.
    pub kind: CallKind,
}

impl Call {
    /// The call's round-robin home node in an `nodes`-worker cluster.
    ///
    /// A burst call's id is its generation index, so node `k` gets every
    /// call whose index is `k` modulo `nodes` — the routing metadata that makes the cluster engine's static round-robin
    /// independent of how arrivals are windowed, and lets tests ask "which
    /// node was this call released to?" when checking cross-node failover.
    pub fn stride_node(&self, nodes: u16) -> u16 {
        assert!(nodes > 0, "cluster needs at least one node");
        (self.id.0 % nodes as u64) as u16
    }
}

/// How a call's container came to exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ColdStartKind {
    /// Served by an idle container already initialised for the function.
    Warm,
    /// Served by a prewarmed runtime container that still had to initialise
    /// the function code.
    Prewarm,
    /// Served by a container created from scratch.
    Cold,
}

impl ColdStartKind {
    /// True for any start that had to run function initialisation (the
    /// paper's Fig. 2 counts these as cold starts).
    pub fn is_cold(self) -> bool {
        !matches!(self, ColdStartKind::Warm)
    }
}

/// The measured outcome of one call.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CallOutcome {
    /// Identifier of the call.
    pub id: CallId,
    /// The requested function.
    pub func: FuncId,
    /// Warm-up or measured.
    pub kind: CallKind,
    /// `r(i)`: generated by the end-user.
    pub release: SimTime,
    /// `r'(i)`: received by the invoker (pulled from Kafka).
    pub invoker_receive: SimTime,
    /// Execution start on the container (after any cold-start init).
    pub exec_start: SimTime,
    /// Execution end on the container.
    pub exec_end: SimTime,
    /// `c(i)`: results obtained by the end-client.
    pub completion: SimTime,
    /// Actual processing time `p(i)` drawn for this call.
    pub processing: SimDuration,
    /// How the serving container was obtained.
    pub start_kind: ColdStartKind,
    /// Index of the worker node that served the call (0 on a single node).
    pub node: u16,
}

impl CallOutcome {
    /// An unfilled outcome slot for `call`.
    ///
    /// The simulators pre-size their outcome buffer with one pending slot
    /// per call (avoiding a second allocation when the run finishes) and
    /// overwrite each slot exactly once on completion; `completion ==
    /// SimTime::ZERO` marks a slot as still pending, since every real
    /// completion is strictly positive.
    pub fn pending(call: &Call, node: u16) -> CallOutcome {
        CallOutcome {
            id: call.id,
            func: call.func,
            kind: call.kind,
            release: call.release,
            invoker_receive: SimTime::ZERO,
            exec_start: SimTime::ZERO,
            exec_end: SimTime::ZERO,
            completion: SimTime::ZERO,
            processing: SimDuration::ZERO,
            start_kind: ColdStartKind::Warm,
            node,
        }
    }

    /// The call this slot belongs to.
    pub fn call(&self) -> Call {
        Call {
            id: self.id,
            func: self.func,
            release: self.release,
            kind: self.kind,
        }
    }

    /// Response time `R(i) = c(i) − r(i)`.
    pub fn response_time(&self) -> SimDuration {
        self.completion.saturating_since(self.release)
    }

    /// Stretch `S(i) = R(i) / reference`, where the reference is the
    /// function's median idle-system response time (§V-A).
    pub fn stretch(&self, reference: SimDuration) -> f64 {
        self.stretch_secs(reference.as_secs_f64())
    }

    /// [`CallOutcome::stretch`] against a reference already in seconds,
    /// for callers that convert each function's reference once.
    pub fn stretch_secs(&self, reference_secs: f64) -> f64 {
        assert!(reference_secs > 0.0, "stretch reference must be positive");
        self.response_time().as_secs_f64() / reference_secs
    }

    /// Queueing delay at the invoker: time between arrival at the invoker
    /// and execution start (includes cold-start initialisation).
    pub fn invoker_delay(&self) -> SimDuration {
        self.exec_start.saturating_since(self.invoker_receive)
    }

    /// True for measured (non-warm-up) calls.
    pub fn is_measured(&self) -> bool {
        self.kind == CallKind::Measured
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> CallOutcome {
        CallOutcome {
            id: CallId(7),
            func: FuncId(2),
            kind: CallKind::Measured,
            release: SimTime::from_millis(1000),
            invoker_receive: SimTime::from_millis(1005),
            exec_start: SimTime::from_millis(1505),
            exec_end: SimTime::from_millis(2505),
            completion: SimTime::from_millis(2510),
            processing: SimDuration::from_millis(1000),
            start_kind: ColdStartKind::Warm,
            node: 0,
        }
    }

    #[test]
    fn response_time_is_client_to_client() {
        assert_eq!(outcome().response_time(), SimDuration::from_millis(1510));
    }

    #[test]
    fn stretch_uses_reference() {
        let o = outcome();
        let s = o.stretch(SimDuration::from_millis(755));
        assert!((s - 2.0).abs() < 1e-12);
        // Stretch below 1 is possible when the reference is the idle-system
        // *response* median (§V-A).
        let s_small = o.stretch(SimDuration::from_millis(3020));
        assert!(s_small < 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_reference_panics() {
        outcome().stretch(SimDuration::ZERO);
    }

    #[test]
    fn invoker_delay_includes_init() {
        assert_eq!(outcome().invoker_delay(), SimDuration::from_millis(500));
    }

    #[test]
    fn cold_kinds() {
        assert!(!ColdStartKind::Warm.is_cold());
        assert!(ColdStartKind::Prewarm.is_cold());
        assert!(ColdStartKind::Cold.is_cold());
    }

    #[test]
    fn stride_node_strides_the_id_space() {
        let call = |id: u64| Call {
            id: CallId(id),
            func: FuncId(0),
            release: SimTime::ZERO,
            kind: CallKind::Measured,
        };
        assert_eq!(call(0).stride_node(3), 0);
        assert_eq!(call(1).stride_node(3), 1);
        assert_eq!(call(5).stride_node(3), 2);
        assert_eq!(call(5).stride_node(1), 0);
    }

    #[test]
    fn measured_flag() {
        let mut o = outcome();
        assert!(o.is_measured());
        o.kind = CallKind::Warmup;
        assert!(!o.is_measured());
    }
}
