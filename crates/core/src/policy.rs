//! The node-level scheduling policies of §IV.
//!
//! Each policy maps a newly received call to a scalar priority; the pending
//! queue executes lower priorities first. Priorities are computed once, on
//! arrival, and never change ("To simplify implementation, once a priority
//! of a particular action call is computed, it does not change").
//!
//! | Policy | Priority of call `i` |
//! |--------|----------------------|
//! | FIFO   | `r'(i)` |
//! | SEPT   | `E(p(i))` |
//! | EECT   | `r'(i) + E(p(i))` |
//! | RECT   | `r̄(i) + E(p(i))` |
//! | FC     | `#(f(i), −T) · E(p(i))` |
//!
//! where `r'(i)` is the invoker receive time, `E(p(i))` the windowed mean of
//! recent processing times, `r̄(i)` the receive time of the previous call of
//! the same function, and `#(f, −T)` the number of calls of `f` in the last
//! `T` seconds.

use faas_simcore::time::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The queue-sequencing policies evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Policy {
    /// First-in first-out: priority is the invoker receive time. This is the
    /// paper's FIFO *variant of the new container-management scheme*, not
    /// the OpenWhisk baseline.
    Fifo,
    /// Shortest expected processing time.
    Sept,
    /// Earliest expected completion time (`r' + E(p)`); starvation-free.
    Eect,
    /// Recent expected completion time (`r̄ + E(p)`); starvation-free.
    Rect,
    /// Fair-Choice: prioritises functions with low recent total resource
    /// consumption (`#(f,−T) · E(p)`).
    FairChoice,
}

impl Policy {
    /// All policies, in the order the paper's figures list them.
    pub const ALL: [Policy; 5] = [
        Policy::Fifo,
        Policy::Sept,
        Policy::Eect,
        Policy::Rect,
        Policy::FairChoice,
    ];

    /// Short display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Fifo => "FIFO",
            Policy::Sept => "SEPT",
            Policy::Eect => "EECT",
            Policy::Rect => "RECT",
            Policy::FairChoice => "FC",
        }
    }

    /// Parse the paper's name (case-insensitive).
    pub fn from_name(name: &str) -> Option<Policy> {
        match name.to_ascii_uppercase().as_str() {
            "FIFO" => Some(Policy::Fifo),
            "SEPT" => Some(Policy::Sept),
            "EECT" => Some(Policy::Eect),
            "RECT" => Some(Policy::Rect),
            "FC" | "FAIR-CHOICE" | "FAIRCHOICE" => Some(Policy::FairChoice),
            _ => None,
        }
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything a policy may look at when computing a priority.
#[derive(Debug, Clone, Copy)]
pub struct PriorityInputs {
    /// `r'(i)`: the moment the invoker received the call.
    pub received: SimTime,
    /// `E(p(i))` in seconds; 0 for never-executed functions.
    pub expected_processing: f64,
    /// `r̄(i)`: receive time of the previous call of the same function;
    /// `None` if this is the first call.
    pub prev_received: Option<SimTime>,
    /// `#(f(i), −T)`: calls of the function in the last `T` seconds,
    /// counted as the scheduler's [`FcCountMode`] says: calls *received*
    /// by default ([`FcCountMode::Arrivals`]), calls *concluded* under
    /// [`FcCountMode::Completions`] (the ablation).
    ///
    /// [`FcCountMode`]: crate::config::FcCountMode
    /// [`FcCountMode::Arrivals`]: crate::config::FcCountMode::Arrivals
    /// [`FcCountMode::Completions`]: crate::config::FcCountMode::Completions
    pub recent_count: usize,
}

/// Compute the scalar priority (lower runs first).
///
/// All priorities are expressed in seconds so that time-based and
/// estimate-based policies share one code path. For RECT's first call of a
/// function, `r̄(i)` falls back to `r'(i)` (equivalently EECT), which is the
/// natural continuous extension — before any history exists the two
/// definitions coincide.
pub fn priority(policy: Policy, inputs: &PriorityInputs) -> f64 {
    let r_prime = inputs.received.as_secs_f64();
    let e_p = inputs.expected_processing;
    debug_assert!(e_p >= 0.0 && e_p.is_finite(), "bad estimate {e_p}");
    match policy {
        Policy::Fifo => r_prime,
        Policy::Sept => e_p,
        Policy::Eect => r_prime + e_p,
        Policy::Rect => {
            let r_bar = inputs
                .prev_received
                .map(|t| t.as_secs_f64())
                .unwrap_or(r_prime);
            r_bar + e_p
        }
        Policy::FairChoice => inputs.recent_count as f64 * e_p,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_simcore::time::SimDuration;

    fn inputs(received_s: f64, e_p: f64) -> PriorityInputs {
        PriorityInputs {
            received: SimTime::from_secs_f64(received_s),
            expected_processing: e_p,
            prev_received: None,
            recent_count: 1,
        }
    }

    #[test]
    fn fifo_orders_by_receive_time() {
        let early = priority(Policy::Fifo, &inputs(1.0, 100.0));
        let late = priority(Policy::Fifo, &inputs(2.0, 0.0));
        assert!(early < late, "FIFO must ignore estimates");
    }

    #[test]
    fn sept_orders_by_estimate() {
        let short = priority(Policy::Sept, &inputs(100.0, 0.01));
        let long = priority(Policy::Sept, &inputs(1.0, 8.5));
        assert!(short < long, "SEPT must ignore receive times");
    }

    #[test]
    fn sept_unknown_function_runs_first() {
        // E(p) = 0 for never-executed functions: they jump the queue.
        let unknown = priority(Policy::Sept, &inputs(5.0, 0.0));
        let known = priority(Policy::Sept, &inputs(5.0, 0.001));
        assert!(unknown < known);
    }

    #[test]
    fn eect_is_receive_plus_estimate() {
        let p = priority(Policy::Eect, &inputs(10.0, 2.5));
        assert!((p - 12.5).abs() < 1e-12);
    }

    #[test]
    fn rect_uses_previous_arrival() {
        let mut i = inputs(10.0, 2.0);
        i.prev_received = Some(SimTime::from_secs(4));
        assert!((priority(Policy::Rect, &i) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn rect_first_call_falls_back_to_eect() {
        let i = inputs(10.0, 2.0);
        assert_eq!(priority(Policy::Rect, &i), priority(Policy::Eect, &i));
    }

    #[test]
    fn fc_scales_with_recent_count() {
        let mut rare = inputs(0.0, 8.5);
        rare.recent_count = 1;
        let mut frequent = inputs(0.0, 0.012);
        frequent.recent_count = 1000;
        // A single 8.5 s call beats a thousand 12 ms calls (8.5 < 12.0):
        // this is exactly the fairness of Fig. 5.
        assert!(priority(Policy::FairChoice, &rare) < priority(Policy::FairChoice, &frequent));
    }

    #[test]
    fn fc_prefers_cheap_functions_at_equal_frequency() {
        let mut a = inputs(0.0, 0.012);
        a.recent_count = 50;
        let mut b = inputs(0.0, 8.5);
        b.recent_count = 50;
        assert!(priority(Policy::FairChoice, &a) < priority(Policy::FairChoice, &b));
    }

    #[test]
    fn eect_bounds_delay_of_waiting_call() {
        // §IV starvation argument: if r'(j) > r'(i) + E(p(i)) then j runs
        // after i, whatever j's estimate is.
        let i = inputs(0.0, 3.0);
        let p_i = priority(Policy::Eect, &i);
        for e_p in [0.0, 0.1, 10.0, 1000.0] {
            let j = inputs(3.0001, e_p);
            assert!(priority(Policy::Eect, &j) > p_i);
        }
    }

    #[test]
    fn names_round_trip() {
        for p in Policy::ALL {
            assert_eq!(Policy::from_name(p.name()), Some(p));
        }
        assert_eq!(Policy::from_name("fair-choice"), Some(Policy::FairChoice));
        assert_eq!(Policy::from_name("bogus"), None);
    }

    #[test]
    fn all_lists_five_policies() {
        assert_eq!(Policy::ALL.len(), 5);
        let _ = SimDuration::ZERO; // keep import used in this cfg(test) module
    }
}
