//! The pending-call priority queue.
//!
//! Replaces the invoker's simple FIFO queue (§IV-B: "We also replace the
//! invoker's simple queue by a priority queue"). Lower priority values run
//! first; ties break in arrival order, which both keeps FIFO-as-a-policy
//! exact and makes every policy deterministic.

use faas_simcore::stats::total_order_bits;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An `f64` priority and an arrival sequence number packed into one
/// integer: the priority's [`total_order_bits`] above the sequence number,
/// so one integer comparison orders by priority (`f64::total_cmp`), then
/// arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key(u128);

impl Key {
    fn new(priority: f64, seq: u64) -> Key {
        Key((u128::from(total_order_bits(priority)) << 64) | u128::from(seq))
    }
}

struct Entry<T> {
    key: Key,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the minimum key on top.
        other.key.cmp(&self.key)
    }
}

/// Min-priority queue of pending calls with stable FIFO tie-break.
pub struct PendingQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
    peak_len: usize,
}

impl<T> Default for PendingQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PendingQueue<T> {
    /// Create an empty queue.
    pub fn new() -> Self {
        PendingQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            peak_len: 0,
        }
    }

    /// Number of pending calls.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Largest queue length observed (diagnostics).
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Insert an item with the given priority. Panics on NaN priorities —
    /// a NaN priority always means a bug in the estimate pipeline.
    pub fn push(&mut self, priority: f64, item: T) {
        assert!(!priority.is_nan(), "NaN priority");
        let key = Key::new(priority, self.next_seq);
        self.next_seq += 1;
        self.heap.push(Entry { key, item });
        self.peak_len = self.peak_len.max(self.heap.len());
    }

    /// Remove and return the lowest-priority item.
    pub fn pop(&mut self) -> Option<T> {
        self.heap.pop().map(|e| e.item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_lowest_priority_first() {
        let mut q = PendingQueue::new();
        q.push(3.0, "c");
        q.push(1.0, "a");
        q.push(2.0, "b");
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), Some("c"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = PendingQueue::new();
        for i in 0..50 {
            q.push(7.0, i);
        }
        for i in 0..50 {
            assert_eq!(q.pop(), Some(i));
        }
    }

    #[test]
    fn fifo_policy_via_equal_priorities_is_exact() {
        // Using receive time as priority with equal times degenerates to
        // insertion order — the FIFO policy contract.
        let mut q = PendingQueue::new();
        q.push(1.0, "first");
        q.push(1.0, "second");
        q.push(0.5, "urgent");
        assert_eq!(q.pop(), Some("urgent"));
        assert_eq!(q.pop(), Some("first"));
        assert_eq!(q.pop(), Some("second"));
    }

    #[test]
    fn zero_priorities_run_first() {
        // Never-executed functions have E(p)=0 under SEPT: they must come
        // out ahead of everything with positive estimates.
        let mut q = PendingQueue::new();
        q.push(0.5, "known");
        q.push(0.0, "unknown");
        assert_eq!(q.pop(), Some("unknown"));
    }

    #[test]
    fn negative_and_infinite_priorities_are_total_ordered() {
        let mut q = PendingQueue::new();
        q.push(f64::INFINITY, "inf");
        q.push(-1.0, "neg");
        q.push(0.0, "zero");
        assert_eq!(q.pop(), Some("neg"));
        assert_eq!(q.pop(), Some("zero"));
        assert_eq!(q.pop(), Some("inf"));
    }

    #[test]
    fn packed_key_orders_as_the_total_cmp_seq_tuple() {
        let priorities = [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -f64::MIN_POSITIVE,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            f64::MIN_POSITIVE,
            0.5,
            1.0,
            1.0 + f64::EPSILON,
            1e300,
            f64::INFINITY,
        ];
        let seqs = [0, 1, u64::MAX / 2, u64::MAX];
        let keys: Vec<(f64, u64)> = priorities
            .iter()
            .flat_map(|&p| seqs.iter().map(move |&s| (p, s)))
            .collect();
        for &(pa, sa) in &keys {
            for &(pb, sb) in &keys {
                let tuple = pa.total_cmp(&pb).then(sa.cmp(&sb));
                assert_eq!(
                    Key::new(pa, sa).cmp(&Key::new(pb, sb)),
                    tuple,
                    "{pa} {sa} vs {pb} {sb}"
                );
            }
        }
        assert!(Key::new(-0.0, 1) < Key::new(0.0, 0), "-0.0 runs before 0.0");
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_priority_panics() {
        PendingQueue::new().push(f64::NAN, ());
    }

    #[test]
    fn peak_len_tracks_high_water() {
        let mut q = PendingQueue::new();
        q.push(1.0, ());
        q.push(2.0, ());
        q.pop();
        q.push(3.0, ());
        assert_eq!(q.peak_len(), 2);
        assert_eq!(q.len(), 2);
    }
}
