//! Per-function call history: what RECT and Fair-Choice read besides the
//! processing-time estimate.
//!
//! * **RECT** uses `r̄(i)` — the moment the *previous* call of the same
//!   function was received ([`CallHistory::note_arrival`] /
//!   [`CallHistory::prev_arrival`]);
//! * **Fair-Choice** uses `#(f(i), −T)` — the number of calls of the
//!   function over the last `T = 60 s` ([`CallHistory::note_call`] /
//!   [`CallHistory::count_recent`]). By default
//!   ([`FcCountMode::Arrivals`]) that is the calls *received* in the
//!   window; [`FcCountMode::Completions`], which only the ablation runs,
//!   counts the calls *concluded* in it instead (§IV speaks of "the
//!   recently concluded calls of the same function").
//!
//! The history keeps one window per function, and the caller decides which
//! event feeds it: [`SchedulerState`] notes a call at `r'(i)` (invoker
//! receive time, logged when the request is pulled from Kafka, §IV-B) or,
//! under the completion count, when the invoker receives the container's
//! response. FIFO, SEPT and EECT read neither, so their schedulers record
//! nothing here.
//!
//! [`FcCountMode::Arrivals`]: crate::config::FcCountMode::Arrivals
//! [`FcCountMode::Completions`]: crate::config::FcCountMode::Completions
//! [`SchedulerState`]: crate::scheduler::SchedulerState

use faas_simcore::time::{SimDuration, SimTime};
use faas_workload::sebs::FuncId;
use std::collections::VecDeque;

/// Per-function sliding-window call count plus the latest receive time.
#[derive(Debug, Clone)]
pub struct CallHistory {
    window: SimDuration,
    recent: Vec<VecDeque<SimTime>>,
    last_arrival: Vec<Option<SimTime>>,
}

impl CallHistory {
    /// Create a history with the Fair-Choice window `T`.
    pub fn new(num_functions: usize, window: SimDuration) -> Self {
        assert!(!window.is_zero(), "FC window must be positive");
        CallHistory {
            window,
            recent: (0..num_functions).map(|_| VecDeque::new()).collect(),
            last_arrival: vec![None; num_functions],
        }
    }

    /// The configured window `T`.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// The receive time of the most recent *previous* call of `func`
    /// (`r̄(i)` for a call arriving now). `None` before the first call.
    pub fn prev_arrival(&self, func: FuncId) -> Option<SimTime> {
        self.last_arrival[func.index()]
    }

    /// Record a call of `func` received at `now` as the latest arrival
    /// ([`prev_arrival`](Self::prev_arrival)). Must be called with
    /// non-decreasing timestamps.
    pub fn note_arrival(&mut self, func: FuncId, now: SimTime) {
        if let Some(prev) = self.last_arrival[func.index()] {
            debug_assert!(now >= prev, "arrivals must be monotone per function");
        }
        self.last_arrival[func.index()] = Some(now);
    }

    /// Add a call of `func` at `now` to its window (a receive or a
    /// completion, whichever the caller counts).
    pub fn note_call(&mut self, func: FuncId, now: SimTime) {
        let q = &mut self.recent[func.index()];
        q.push_back(now);
        Self::expire(q, self.window, now);
    }

    /// Number of calls of `func` noted during the last `T` seconds,
    /// including any call noted exactly at `now`.
    pub fn count_recent(&mut self, func: FuncId, now: SimTime) -> usize {
        let q = &mut self.recent[func.index()];
        Self::expire(q, self.window, now);
        q.len()
    }

    fn expire(q: &mut VecDeque<SimTime>, window: SimDuration, now: SimTime) {
        let cutoff = SimTime::from_nanos(now.as_nanos().saturating_sub(window.as_nanos()));
        while let Some(&front) = q.front() {
            if front < cutoff {
                q.pop_front();
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist() -> CallHistory {
        CallHistory::new(2, SimDuration::from_secs(60))
    }

    #[test]
    fn prev_arrival_starts_none() {
        let h = hist();
        assert_eq!(h.prev_arrival(FuncId(0)), None);
    }

    #[test]
    fn prev_arrival_tracks_latest() {
        let mut h = hist();
        h.note_arrival(FuncId(0), SimTime::from_secs(1));
        h.note_arrival(FuncId(0), SimTime::from_secs(3));
        assert_eq!(h.prev_arrival(FuncId(0)), Some(SimTime::from_secs(3)));
        // Other functions unaffected.
        assert_eq!(h.prev_arrival(FuncId(1)), None);
    }

    #[test]
    fn count_includes_window_only() {
        let mut h = hist();
        h.note_call(FuncId(0), SimTime::from_secs(0));
        h.note_call(FuncId(0), SimTime::from_secs(30));
        h.note_call(FuncId(0), SimTime::from_secs(59));
        assert_eq!(h.count_recent(FuncId(0), SimTime::from_secs(59)), 3);
        // At t=90 the t=0 call has expired (90-60=30 cutoff keeps t>=30).
        assert_eq!(h.count_recent(FuncId(0), SimTime::from_secs(90)), 2);
        // At t=200 everything expired.
        assert_eq!(h.count_recent(FuncId(0), SimTime::from_secs(200)), 0);
    }

    #[test]
    fn boundary_arrival_exactly_at_cutoff_is_kept() {
        let mut h = hist();
        h.note_call(FuncId(0), SimTime::from_secs(10));
        // now - T == 10: the call at exactly the cutoff still counts.
        assert_eq!(h.count_recent(FuncId(0), SimTime::from_secs(70)), 1);
        // One nanosecond later it expires.
        assert_eq!(
            h.count_recent(FuncId(0), SimTime::from_nanos(70 * 1_000_000_000 + 1)),
            0
        );
    }

    #[test]
    fn functions_count_independently() {
        let mut h = hist();
        for i in 0..5 {
            h.note_call(FuncId(0), SimTime::from_secs(i));
        }
        h.note_call(FuncId(1), SimTime::from_secs(5));
        assert_eq!(h.count_recent(FuncId(0), SimTime::from_secs(5)), 5);
        assert_eq!(h.count_recent(FuncId(1), SimTime::from_secs(5)), 1);
    }

    #[test]
    fn early_times_do_not_underflow() {
        let mut h = hist();
        h.note_call(FuncId(0), SimTime::from_secs(1));
        // now < window: cutoff saturates at zero, the call stays.
        assert_eq!(h.count_recent(FuncId(0), SimTime::from_secs(2)), 1);
    }

    #[test]
    fn arrivals_and_window_calls_are_recorded_apart() {
        // RECT's last arrival and Fair-Choice's window are fed separately:
        // noting one leaves the other untouched.
        let mut h = hist();
        h.note_arrival(FuncId(0), SimTime::from_secs(4));
        assert_eq!(h.count_recent(FuncId(0), SimTime::from_secs(4)), 0);
        h.note_call(FuncId(1), SimTime::from_secs(5));
        assert_eq!(h.prev_arrival(FuncId(1)), None);
        assert_eq!(h.prev_arrival(FuncId(0)), Some(SimTime::from_secs(4)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_rejected() {
        CallHistory::new(1, SimDuration::ZERO);
    }
}
