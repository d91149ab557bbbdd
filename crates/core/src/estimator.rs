//! Processing-time estimation from recent history.
//!
//! §IV: "we estimate the expected processing time of an action by the
//! average processing time of at most 10 recent executions of the same
//! action. It has been proven empirically that such a number is sufficient
//! \[18\]." And: "if a function has never been executed, we set its estimated
//! execution time to 0."
//!
//! The estimate is maintained per function in a fixed-capacity ring buffer
//! with an incremental sum, so both recording and querying are O(1).

use faas_simcore::time::SimDuration;
use faas_workload::sebs::FuncId;

/// Ring buffer of the most recent processing times of one function.
#[derive(Debug, Clone)]
pub struct RecentWindow {
    buf: Vec<f64>,
    capacity: usize,
    next: usize,
    filled: usize,
    sum: f64,
}

impl RecentWindow {
    /// Create a window keeping at most `capacity` observations.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        RecentWindow {
            buf: vec![0.0; capacity],
            capacity,
            next: 0,
            filled: 0,
            sum: 0.0,
        }
    }

    /// Record one observation (seconds), evicting the oldest if full.
    pub fn record(&mut self, secs: f64) {
        assert!(
            secs >= 0.0 && secs.is_finite(),
            "invalid observation {secs}"
        );
        if self.filled == self.capacity {
            self.sum -= self.buf[self.next];
        } else {
            self.filled += 1;
        }
        self.buf[self.next] = secs;
        self.sum += secs;
        self.next = (self.next + 1) % self.capacity;
    }

    /// Number of stored observations.
    pub fn len(&self) -> usize {
        self.filled
    }

    /// True when no observation has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.filled == 0
    }

    /// Mean of the stored observations; 0 when empty (the paper's
    /// never-executed convention).
    pub fn mean(&self) -> f64 {
        if self.filled == 0 {
            0.0
        } else {
            // Guard against tiny negative drift from incremental updates.
            (self.sum / self.filled as f64).max(0.0)
        }
    }

    /// Recompute the sum from scratch (used by tests to bound drift).
    #[cfg(test)]
    pub fn exact_mean(&self) -> f64 {
        if self.filled == 0 {
            return 0.0;
        }
        self.buf[..self.filled].iter().sum::<f64>() / self.filled as f64
    }
}

/// Per-function processing-time estimator.
#[derive(Debug, Clone)]
pub struct ProcTimeEstimator {
    windows: Vec<RecentWindow>,
    window_size: usize,
}

impl ProcTimeEstimator {
    /// Create an estimator for `num_functions` functions with the paper's
    /// default window of 10 recent executions.
    pub fn new(num_functions: usize) -> Self {
        Self::with_window(num_functions, 10)
    }

    /// Create an estimator with an explicit window size (used by the
    /// window-size ablation).
    pub fn with_window(num_functions: usize, window_size: usize) -> Self {
        ProcTimeEstimator {
            windows: (0..num_functions)
                .map(|_| RecentWindow::new(window_size))
                .collect(),
            window_size,
        }
    }

    /// The configured window size.
    pub fn window_size(&self) -> usize {
        self.window_size
    }

    /// Record a finished execution of `func`.
    pub fn record(&mut self, func: FuncId, processing: SimDuration) {
        self.windows[func.index()].record(processing.as_secs_f64());
    }

    /// Expected processing time `E(p)` of `func`, seconds. Zero when the
    /// function has never been executed on this node.
    pub fn estimate_secs(&self, func: FuncId) -> f64 {
        self.windows[func.index()].mean()
    }

    /// `E(p)` as a duration.
    pub fn estimate(&self, func: FuncId) -> SimDuration {
        SimDuration::from_secs_f64(self.estimate_secs(func))
    }

    /// Number of recorded executions of `func` (capped at the window size).
    pub fn observations(&self, func: FuncId) -> usize {
        self.windows[func.index()].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_estimate_is_zero() {
        let est = ProcTimeEstimator::new(3);
        assert_eq!(est.estimate_secs(FuncId(0)), 0.0);
        assert_eq!(est.estimate(FuncId(2)), SimDuration::ZERO);
        assert_eq!(est.observations(FuncId(1)), 0);
    }

    #[test]
    fn mean_of_partial_window() {
        let mut est = ProcTimeEstimator::new(1);
        est.record(FuncId(0), SimDuration::from_secs(1));
        est.record(FuncId(0), SimDuration::from_secs(3));
        assert!((est.estimate_secs(FuncId(0)) - 2.0).abs() < 1e-12);
        assert_eq!(est.observations(FuncId(0)), 2);
    }

    #[test]
    fn window_evicts_oldest_beyond_ten() {
        let mut est = ProcTimeEstimator::new(1);
        // Ten 1-second runs, then ten 2-second runs: estimate must converge
        // to exactly 2.0 once the old observations are evicted.
        for _ in 0..10 {
            est.record(FuncId(0), SimDuration::from_secs(1));
        }
        assert!((est.estimate_secs(FuncId(0)) - 1.0).abs() < 1e-12);
        for _ in 0..10 {
            est.record(FuncId(0), SimDuration::from_secs(2));
        }
        assert!((est.estimate_secs(FuncId(0)) - 2.0).abs() < 1e-9);
        assert_eq!(est.observations(FuncId(0)), 10);
    }

    #[test]
    fn sliding_mean_mid_eviction() {
        let mut w = RecentWindow::new(3);
        for v in [1.0, 2.0, 3.0, 4.0] {
            w.record(v);
        }
        // Window now holds [2, 3, 4].
        assert!((w.mean() - 3.0).abs() < 1e-12);
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn functions_are_independent() {
        let mut est = ProcTimeEstimator::new(2);
        est.record(FuncId(0), SimDuration::from_secs(5));
        assert_eq!(est.estimate_secs(FuncId(1)), 0.0);
        assert!((est.estimate_secs(FuncId(0)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn custom_window_size() {
        let mut est = ProcTimeEstimator::with_window(1, 2);
        assert_eq!(est.window_size(), 2);
        est.record(FuncId(0), SimDuration::from_secs(1));
        est.record(FuncId(0), SimDuration::from_secs(1));
        est.record(FuncId(0), SimDuration::from_secs(4));
        // Window of 2: [1, 4] -> 2.5.
        assert!((est.estimate_secs(FuncId(0)) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn incremental_sum_does_not_drift() {
        let mut w = RecentWindow::new(10);
        for i in 0..100_000 {
            w.record(0.001 + (i % 997) as f64 * 1e-6);
        }
        assert!((w.mean() - w.exact_mean()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        RecentWindow::new(0);
    }

    #[test]
    #[should_panic(expected = "invalid observation")]
    fn nan_observation_rejected() {
        RecentWindow::new(3).record(f64::NAN);
    }
}
