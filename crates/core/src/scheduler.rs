//! The scheduler state machine embedded in the invoker.
//!
//! Combines the estimator, the call history and the policy into the two
//! hooks the invoker pipeline calls (§IV-B):
//!
//! * [`SchedulerState::on_receive`] — when a request is pulled from Kafka:
//!   compute the call's (immutable) priority;
//! * [`SchedulerState::on_complete`] — when the container returns the
//!   result: store the measured processing time in the per-function buffer.
//!
//! Every policy's estimator records each completion. Beyond that the state
//! keeps only the history its policy reads:
//!
//! | Policy | History kept |
//! |--------|--------------|
//! | FIFO, SEPT, EECT | none |
//! | RECT | the last receive time per function |
//! | FC, [`FcCountMode::Arrivals`] | a `T` window of receives per function |
//! | FC, [`FcCountMode::Completions`] | a `T` window of completions per function |

use crate::config::{FcCountMode, SchedulerConfig};
use crate::estimator::ProcTimeEstimator;
use crate::history::CallHistory;
use crate::policy::{priority, Policy, PriorityInputs};
use faas_simcore::time::{SimDuration, SimTime};
use faas_workload::sebs::FuncId;

/// Per-node scheduler state.
#[derive(Debug, Clone)]
pub struct SchedulerState {
    config: SchedulerConfig,
    estimator: ProcTimeEstimator,
    history: CallHistory,
}

impl SchedulerState {
    /// Create the state for a node hosting `num_functions` functions.
    pub fn new(num_functions: usize, config: SchedulerConfig) -> Self {
        SchedulerState {
            config,
            estimator: ProcTimeEstimator::with_window(num_functions, config.estimate_window),
            history: CallHistory::new(num_functions, config.fc_window),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> SchedulerConfig {
        self.config
    }

    /// The active policy.
    pub fn policy(&self) -> Policy {
        self.config.policy
    }

    /// Read-only access to the estimator (diagnostics, tests).
    pub fn estimator(&self) -> &ProcTimeEstimator {
        &self.estimator
    }

    /// Handle a request of `func` received by the invoker at `received`
    /// (`r'(i)`), returning its priority.
    ///
    /// Only the history the policy reads is touched; the inputs it does not
    /// read stay `None` and 0. Order matters: RECT's `r̄(i)` is the receive
    /// time of the *previous* call, so it is read before this arrival is
    /// recorded; Fair-Choice's arrival count is read after (it includes the
    /// current call).
    pub fn on_receive(&mut self, func: FuncId, received: SimTime) -> f64 {
        let mut inputs = PriorityInputs {
            received,
            expected_processing: self.estimator.estimate_secs(func),
            prev_received: None,
            recent_count: 0,
        };
        match self.config.policy {
            Policy::Fifo | Policy::Sept | Policy::Eect => {}
            Policy::Rect => {
                inputs.prev_received = self.history.prev_arrival(func);
                self.history.note_arrival(func, received);
            }
            Policy::FairChoice => {
                if self.config.fc_count_mode == FcCountMode::Arrivals {
                    self.history.note_call(func, received);
                }
                inputs.recent_count = self.history.count_recent(func, received);
            }
        }
        priority(self.config.policy, &inputs)
    }

    /// Record the measured processing time of a call completed at `now`.
    pub fn on_complete(&mut self, func: FuncId, processing: SimDuration, now: SimTime) {
        self.estimator.record(func, processing);
        if self.config.policy == Policy::FairChoice
            && self.config.fc_count_mode == FcCountMode::Completions
        {
            self.history.note_call(func, now);
        }
    }

    /// Current `E(p)` of a function, seconds.
    pub fn estimate_secs(&self, func: FuncId) -> f64 {
        self.estimator.estimate_secs(func)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(policy: Policy) -> SchedulerState {
        SchedulerState::new(3, SchedulerConfig::paper(policy))
    }

    #[test]
    fn fifo_priorities_increase_with_time() {
        let mut s = state(Policy::Fifo);
        let p1 = s.on_receive(FuncId(0), SimTime::from_secs(1));
        let p2 = s.on_receive(FuncId(1), SimTime::from_secs(2));
        assert!(p1 < p2);
    }

    #[test]
    fn sept_uses_learned_estimates() {
        let mut s = state(Policy::Sept);
        s.on_complete(FuncId(0), SimDuration::from_secs(8), SimTime::ZERO);
        s.on_complete(FuncId(1), SimDuration::from_millis(12), SimTime::ZERO);
        let long = s.on_receive(FuncId(0), SimTime::from_secs(10));
        let short = s.on_receive(FuncId(1), SimTime::from_secs(10));
        assert!(short < long);
    }

    #[test]
    fn estimates_update_with_completions() {
        let mut s = state(Policy::Sept);
        assert_eq!(s.estimate_secs(FuncId(0)), 0.0);
        s.on_complete(FuncId(0), SimDuration::from_secs(2), SimTime::ZERO);
        s.on_complete(FuncId(0), SimDuration::from_secs(4), SimTime::ZERO);
        assert!((s.estimate_secs(FuncId(0)) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn rect_uses_previous_arrival_not_current() {
        let mut s = state(Policy::Rect);
        s.on_complete(FuncId(0), SimDuration::from_secs(2), SimTime::ZERO);
        // First call: falls back to r' + E = 10 + 2.
        let first = s.on_receive(FuncId(0), SimTime::from_secs(10));
        assert!((first - 12.0).abs() < 1e-9);
        // Second call at t=20: r̄ = 10, priority = 10 + 2 = 12 again.
        let second = s.on_receive(FuncId(0), SimTime::from_secs(20));
        assert!((second - 12.0).abs() < 1e-9);
    }

    #[test]
    fn rect_priority_is_monotone_over_function_calls() {
        // §IV: "the value of r̄(i) is increasing in time", which is what
        // prevents starvation.
        let mut s = state(Policy::Rect);
        s.on_complete(FuncId(0), SimDuration::from_secs(1), SimTime::ZERO);
        let mut last = f64::NEG_INFINITY;
        for t in [5u64, 8, 13, 21, 34] {
            let p = s.on_receive(FuncId(0), SimTime::from_secs(t));
            assert!(p >= last, "RECT priority must not decrease");
            last = p;
        }
    }

    #[test]
    fn fc_default_counts_arrivals_including_current() {
        let mut s = state(Policy::FairChoice);
        s.on_complete(FuncId(0), SimDuration::from_secs(1), SimTime::ZERO);
        // First arrival: count = 1 -> priority = E(p).
        let p1 = s.on_receive(FuncId(0), SimTime::from_secs(1));
        assert!((p1 - 1.0).abs() < 1e-9);
        // Second arrival shortly after: count = 2 -> 2 E(p).
        let p2 = s.on_receive(FuncId(0), SimTime::from_secs(2));
        assert!((p2 - 2.0).abs() < 1e-9);
        // 120 s later the 60 s window has emptied again.
        let p3 = s.on_receive(FuncId(0), SimTime::from_secs(125));
        assert!((p3 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fc_completion_mode_counts_concluded_calls_only() {
        let mut cfg = SchedulerConfig::paper(Policy::FairChoice);
        cfg.fc_count_mode = crate::config::FcCountMode::Completions;
        let mut s = SchedulerState::new(3, cfg);
        s.on_complete(FuncId(0), SimDuration::from_secs(1), SimTime::from_secs(1));
        // One concluded call: priority = 1 x E(p), regardless of arrivals.
        let p1 = s.on_receive(FuncId(0), SimTime::from_secs(2));
        assert!((p1 - 1.0).abs() < 1e-9);
        let p2 = s.on_receive(FuncId(0), SimTime::from_secs(3));
        assert!((p2 - 1.0).abs() < 1e-9, "arrivals must not raise the count");
        s.on_complete(FuncId(0), SimDuration::from_secs(1), SimTime::from_secs(4));
        let p3 = s.on_receive(FuncId(0), SimTime::from_secs(5));
        assert!((p3 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_function_has_zero_priority_under_sept_and_fc() {
        let mut s = state(Policy::Sept);
        assert_eq!(s.on_receive(FuncId(2), SimTime::from_secs(9)), 0.0);
        let mut s = state(Policy::FairChoice);
        assert_eq!(s.on_receive(FuncId(2), SimTime::from_secs(9)), 0.0);
    }

    #[test]
    fn eect_priority_exceeds_receive_time() {
        let mut s = state(Policy::Eect);
        s.on_complete(FuncId(0), SimDuration::from_secs(3), SimTime::ZERO);
        let p = s.on_receive(FuncId(0), SimTime::from_secs(7));
        assert!((p - 10.0).abs() < 1e-9);
    }
}
