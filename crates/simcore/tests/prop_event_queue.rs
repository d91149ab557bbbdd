//! Differential property test of the event queue, its in-order lane and
//! its one timer.
//!
//! The reference model is a naive `Vec` scan: schedule and append both push
//! `(time, seq, id)` (the model has no lane: where the queue keeps an
//! event must not show), the timer is one more model entry that
//! `set_timer` replaces under a fresh sequence number and `clear_timer`
//! removes, and pop scans for the minimum `(time, seq)`. Every operation's
//! observable effect (pop results, clock, length, peek) must match the
//! queue exactly — including the FIFO tie-break at equal timestamps, which
//! the tiny time range below forces constantly, between events in the
//! heap, the lane and the timer alike.

use faas_simcore::events::EventQueue;
use faas_simcore::time::{SimDuration, SimTime};
use proptest::prelude::*;

/// One operation of the random interleaving.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule at `now + dt` milliseconds.
    Schedule(u64),
    /// Append at `dt` milliseconds after the latest append (or `now`, if
    /// later): in-order runs that stay in the lane.
    Append(u64),
    /// Append at `now + dt` milliseconds, often before the latest append:
    /// the lane must hand such an event to the heap.
    AppendEarly(u64),
    /// Arm (or re-arm) the timer at `now + dt` milliseconds.
    SetTimer(u64),
    ClearTimer,
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // dt in 0..6 ms over hundreds of events forces equal-timestamp ties.
    prop_oneof![
        (0u64..6).prop_map(Op::Schedule),
        (0u64..3).prop_map(Op::Append),
        (0u64..3).prop_map(Op::Append),
        (0u64..6).prop_map(Op::AppendEarly),
        (0u64..6).prop_map(Op::SetTimer),
        Just(Op::ClearTimer),
        Just(Op::Pop),
        Just(Op::Pop),
    ]
}

/// The executable specification: a flat vector scanned on every pop. Each
/// entry is `(time, seq, id, is_timer)`.
#[derive(Default)]
struct VecModel {
    live: Vec<(SimTime, u64, usize, bool)>,
    next_seq: u64,
    now: SimTime,
}

impl VecModel {
    fn push(&mut self, time: SimTime, id: usize, is_timer: bool) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live.push((time, seq, id, is_timer));
    }

    fn clear_timer(&mut self) {
        self.live.retain(|&(_, _, _, is_timer)| !is_timer);
    }

    fn set_timer(&mut self, time: SimTime, id: usize) {
        self.clear_timer();
        self.push(time, id, true);
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.live.iter().map(|&(t, ..)| t).min()
    }

    fn pop(&mut self) -> Option<(SimTime, usize)> {
        let best = self
            .live
            .iter()
            .enumerate()
            .min_by_key(|(_, &(t, s, ..))| (t, s))
            .map(|(k, _)| k)?;
        let (time, _, id, _) = self.live.swap_remove(best);
        self.now = time;
        Some((time, id))
    }
}

proptest! {
    /// Arbitrary schedule/append/set_timer/clear_timer/pop interleavings
    /// agree with the Vec-scan model on every observable.
    #[test]
    fn queue_with_timer_matches_vec_scan_model(
        ops in prop::collection::vec(op_strategy(), 1..400)
    ) {
        let mut q = EventQueue::new();
        let mut model = VecModel::default();
        // Payload ids are issue indices, timer arms included.
        let mut next_id = 0usize;
        let mut last_append = SimTime::ZERO;
        for op in ops {
            match op {
                Op::Schedule(dt) => {
                    let t = q.now() + SimDuration::from_millis(dt);
                    q.schedule(t, next_id);
                    model.push(t, next_id, false);
                    next_id += 1;
                }
                Op::Append(dt) | Op::AppendEarly(dt) => {
                    let from = match op {
                        Op::Append(_) => last_append.max(q.now()),
                        _ => q.now(),
                    };
                    let t = from + SimDuration::from_millis(dt);
                    last_append = last_append.max(t);
                    q.append(t, next_id);
                    model.push(t, next_id, false);
                    next_id += 1;
                }
                Op::SetTimer(dt) => {
                    let t = q.now() + SimDuration::from_millis(dt);
                    q.set_timer(t, next_id);
                    model.set_timer(t, next_id);
                    next_id += 1;
                }
                Op::ClearTimer => {
                    q.clear_timer();
                    model.clear_timer();
                }
                Op::Pop => {
                    prop_assert_eq!(q.pop(), model.pop());
                    prop_assert_eq!(q.now(), model.now);
                }
            }
            prop_assert_eq!(q.len(), model.live.len());
            prop_assert_eq!(q.peek_time(), model.peek_time());
        }
        // Drain: the full remaining pop sequence (FIFO ties included) must
        // agree element for element.
        loop {
            let (got, want) = (q.pop(), model.pop());
            prop_assert_eq!(got, want);
            if got.is_none() {
                break;
            }
        }
        prop_assert!(q.is_empty());
    }

    /// Equal-timestamp storms pop in exact issue order, with the timer
    /// taking the FIFO position of its *last* arm.
    #[test]
    fn fifo_tie_break_places_the_timer_at_its_last_arm(
        arms in prop::collection::vec(0usize..=64, 1..32)
    ) {
        const TIMER: usize = usize::MAX;
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        // Arm before event `k` for each `k` in `arms` (64: after them all).
        for k in 0..=64usize {
            if arms.contains(&k) {
                q.set_timer(t, TIMER);
            }
            if k < 64 {
                q.schedule(t, k);
            }
        }
        let last = *arms.iter().max().unwrap();
        let mut order: Vec<usize> = (0..64).collect();
        order.insert(last, TIMER);
        let popped: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, i)| i)).collect();
        prop_assert_eq!(popped, order);
    }
}
