//! A monotonic event queue for discrete-event simulation.
//!
//! The queue orders events by `(time, sequence number)`; the sequence number
//! is assigned at push time, so events scheduled for the same instant fire in
//! FIFO order. This stable tie-break is what makes simulations reproducible:
//! two runs with the same seed push the same events in the same order and
//! therefore pop them in the same order.
//!
//! # A heap, a lane and a timer
//!
//! Ordinary events live in a `std` [`BinaryHeap`] and are never withdrawn:
//! once scheduled, an event pops. Beside the heap sit two cheaper homes:
//!
//! * The FIFO **lane** holds events appended in non-decreasing time by
//!   [`EventQueue::append`] — a node's injected arrivals, which its caller
//!   already delivers in release order. Its head is its earliest event, so
//!   an in-order append and its pop cost O(1) instead of O(log n). An
//!   append earlier than the lane's tail goes to the heap instead, so the
//!   lane stays sorted whatever the caller does.
//! * The one event a simulation needs to move or withdraw (the baseline
//!   node's next GPS completion) is the queue's single re-armable
//!   **timer**. [`EventQueue::set_timer`] arms it, replacing any armed
//!   timer, under a fresh sequence number: a re-arm is observably a
//!   withdraw plus a new schedule, so it fires after events already
//!   scheduled at its instant. [`EventQueue::clear_timer`] withdraws it
//!   (idempotent).
//!
//! [`EventQueue::len`], [`EventQueue::peek_time`], [`EventQueue::pop`] and
//! [`EventQueue::pop_at_or_before`] take the least `(time, seq)` of the
//! heap top, the lane head and an armed timer. Every event draws its
//! sequence number from one counter whichever home it goes to, so the pop
//! order is exactly that of a single heap holding every event. A popped
//! timer is disarmed.
//!
//! Memory is bounded by the live event count however often the timer
//! moves: a re-arm overwrites it instead of leaving a stale copy queued.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    /// `(time, seq)` packed into one integer with the same order.
    fn key(&self) -> u128 {
        (u128::from(self.time.as_nanos()) << 64) | u128::from(self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the earliest on top.
        other.key().cmp(&self.key())
    }
}

/// Which of the queue's three homes holds an entry.
#[derive(Clone, Copy)]
enum Home {
    Heap,
    Lane,
    Timer,
}

/// Priority queue of timestamped events with stable FIFO tie-break, an
/// in-order lane and one re-armable timer (see the module docs).
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Appended events in non-decreasing `(time, seq)`; the head is the
    /// earliest.
    lane: VecDeque<Entry<E>>,
    /// The armed timer, if any; it pops in `(time, seq)` order with `heap`
    /// and `lane`.
    timer: Option<Entry<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lane: VecDeque::new(),
            timer: None,
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current simulated time: the timestamp of the most recently popped
    /// event (zero before the first pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of queued events, the lane's and an armed timer included.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len() + usize::from(self.timer.is_some())
    }

    /// True if no events are queued and no timer is armed.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lane.is_empty() && self.timer.is_none()
    }

    /// Schedule `payload` at absolute time `time`.
    ///
    /// Panics if `time` is before the current clock — scheduling into the
    /// past is always a simulation bug and silently reordering it would
    /// corrupt causality.
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        let entry = self.entry(time, payload);
        self.heap.push(entry);
    }

    /// Schedule `payload` at absolute time `time`, like
    /// [`EventQueue::schedule`], through the FIFO lane: O(1) when `time` is
    /// at or after the lane's latest append, otherwise it falls back to the
    /// heap. Either way the event pops exactly where `schedule` would have
    /// put it.
    ///
    /// Panics if `time` is before the current clock.
    pub fn append(&mut self, time: SimTime, payload: E) {
        let entry = self.entry(time, payload);
        match self.lane.back() {
            Some(tail) if tail.time > time => self.heap.push(entry),
            _ => self.lane.push_back(entry),
        }
    }

    /// Arm the timer at absolute time `time`, replacing any armed timer.
    /// The timer takes a fresh sequence number, exactly as a new
    /// [`EventQueue::schedule`] would.
    ///
    /// Panics if `time` is before the current clock.
    pub fn set_timer(&mut self, time: SimTime, payload: E) {
        self.timer = Some(self.entry(time, payload));
    }

    /// Withdraw the armed timer, if any.
    pub fn clear_timer(&mut self) {
        self.timer = None;
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (home, _) = self.earliest()?;
        Some(self.take(home))
    }

    /// Timestamp of the earliest event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.earliest().map(|(_, time)| time)
    }

    /// Pop the earliest event only if its timestamp is at or before
    /// `horizon`; otherwise leave the queue — and the clock — untouched.
    ///
    /// This is the window primitive of conservative time-stepped
    /// simulation: a simulator advancing to a horizon drains exactly the
    /// events inside the window `(now, horizon]` and stops with every
    /// later event still queued, so it can be resumed with a larger
    /// horizon without ever popping an event out of order.
    pub fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        let (home, time) = self.earliest()?;
        if time <= horizon {
            Some(self.take(home))
        } else {
            None
        }
    }

    /// Where the least `(time, seq)` event lives, and its time, if any
    /// event is queued. Sequence numbers are unique, so the three heads
    /// never tie.
    fn earliest(&self) -> Option<(Home, SimTime)> {
        // Entries order in reverse, so the greater one is the earlier one,
        // and `None` is less than any entry.
        let (heap, lane, timer) = (self.heap.peek(), self.lane.front(), self.timer.as_ref());
        let (home, entry) = if timer > heap && timer > lane {
            (Home::Timer, timer)
        } else if lane > heap {
            (Home::Lane, lane)
        } else {
            (Home::Heap, heap)
        };
        entry.map(|e| (home, e.time))
    }

    /// Remove the head entry of `home` and advance the clock to it.
    fn take(&mut self, home: Home) -> (SimTime, E) {
        let entry = match home {
            Home::Heap => self.heap.pop(),
            Home::Lane => self.lane.pop_front(),
            Home::Timer => self.timer.take(),
        }
        .expect("earliest names a non-empty home");
        self.now = entry.time;
        (entry.time, entry.payload)
    }

    /// A new entry at `time` under the next sequence number.
    fn entry(&mut self, time: SimTime, payload: E) -> Entry<E> {
        assert!(
            time >= self.now,
            "cannot schedule into the past: now={} event={}",
            self.now,
            time
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        Entry { time, seq, payload }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn drain<E>(q: &mut EventQueue<E>) -> Vec<E> {
        std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect()
    }

    #[test]
    fn packed_key_orders_as_the_time_seq_tuple() {
        let values = [0, 1, 2, u64::MAX / 2, u64::MAX - 1, u64::MAX];
        let entries: Vec<Entry<()>> = values
            .iter()
            .flat_map(|&t| values.iter().map(move |&seq| (t, seq)))
            .map(|(t, seq)| Entry {
                time: SimTime::from_nanos(t),
                seq,
                payload: (),
            })
            .collect();
        for a in &entries {
            for b in &entries {
                let tuple = (a.time, a.seq).cmp(&(b.time, b.seq));
                assert_eq!(a.key().cmp(&b.key()), tuple);
            }
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), "c");
        q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(20), "b");
        assert_eq!(drain(&mut q), vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        assert_eq!(drain(&mut q), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        q.pop();
        q.schedule(SimTime::from_secs(1), ());
    }

    #[test]
    fn scheduling_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), 1);
        q.pop();
        q.schedule(SimTime::from_secs(5), 2);
        assert_eq!(q.pop(), Some((SimTime::from_secs(5), 2)));
    }

    #[test]
    fn pop_at_or_before_respects_the_horizon() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(20), "b");
        q.schedule(SimTime::from_millis(30), "c");
        // Horizon before everything: nothing pops, clock untouched.
        assert_eq!(q.pop_at_or_before(SimTime::from_millis(5)), None);
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 3);
        // Inclusive horizon: events at exactly the horizon pop.
        assert_eq!(
            q.pop_at_or_before(SimTime::from_millis(20)),
            Some((SimTime::from_millis(10), "a"))
        );
        assert_eq!(
            q.pop_at_or_before(SimTime::from_millis(20)),
            Some((SimTime::from_millis(20), "b"))
        );
        assert_eq!(q.pop_at_or_before(SimTime::from_millis(20)), None);
        assert_eq!(
            q.now(),
            SimTime::from_millis(20),
            "clock stops at the window edge"
        );
        // Resuming with a larger horizon drains the rest in order.
        assert_eq!(
            q.pop_at_or_before(SimTime::MAX),
            Some((SimTime::from_millis(30), "c"))
        );
        assert_eq!(q.pop_at_or_before(SimTime::MAX), None, "empty queue");
    }

    #[test]
    fn windowed_draining_matches_a_single_run() {
        // Popping through a staircase of horizons yields the same sequence
        // as draining in one go — the property the resumable node
        // simulators rely on.
        let schedule = |q: &mut EventQueue<u64>| {
            let mut state = 0x9E3779B97F4A7C15u64;
            for _ in 0..200 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                q.schedule(SimTime::from_millis(state % 500), state);
            }
        };
        let mut whole = EventQueue::new();
        schedule(&mut whole);
        let one_go: Vec<(SimTime, u64)> = std::iter::from_fn(|| whole.pop()).collect();

        let mut stepped = EventQueue::new();
        schedule(&mut stepped);
        let mut windows = Vec::new();
        for h in (0..=500)
            .step_by(37)
            .map(SimTime::from_millis)
            .chain([SimTime::MAX])
        {
            while let Some(ev) = stepped.pop_at_or_before(h) {
                windows.push(ev);
            }
        }
        assert_eq!(one_go, windows);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), 1);
        let (t, _) = q.pop().unwrap();
        q.schedule(t + SimDuration::from_secs(1), 2);
        q.schedule(t + SimDuration::from_millis(500), 3);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 2);
        assert!(q.is_empty());
    }

    #[test]
    fn timer_re_arms_earlier_and_later() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(20), "b");
        q.schedule(SimTime::from_millis(30), "c");
        q.set_timer(SimTime::from_millis(10), "t");
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(10)));
        // Later: the timer jumps past both events.
        q.set_timer(SimTime::from_millis(40), "t");
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(20)));
        assert_eq!(q.len(), 3, "a re-arm replaces, it does not add");
        // Earlier: back to the front.
        q.set_timer(SimTime::from_millis(5), "t");
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(5)));
        assert_eq!(drain(&mut q), vec!["t", "b", "c"]);
        assert!(q.is_empty(), "a popped timer is disarmed");
    }

    #[test]
    fn re_armed_timer_fires_after_events_already_at_its_instant() {
        // A re-arm takes a fresh sequence number, exactly like a withdraw
        // plus a new schedule: at an occupied instant it queues behind the
        // events already there, and ahead of the ones scheduled after it.
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        q.set_timer(SimTime::from_millis(1), "timer");
        q.schedule(t, "first");
        q.set_timer(t, "timer");
        q.schedule(t, "after");
        assert_eq!(drain(&mut q), vec!["first", "timer", "after"]);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn setting_the_timer_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        q.pop();
        q.set_timer(SimTime::from_secs(1), ());
    }

    #[test]
    fn clear_timer_is_idempotent() {
        let mut q = EventQueue::new();
        q.clear_timer();
        assert!(q.is_empty());
        q.schedule(SimTime::from_millis(2), "a");
        q.set_timer(SimTime::from_millis(1), "t");
        assert_eq!(q.len(), 2);
        q.clear_timer();
        q.clear_timer();
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(2)));
        assert_eq!(drain(&mut q), vec!["a"]);
        q.clear_timer();
        assert!(q.pop().is_none());
    }

    #[test]
    fn timer_re_arm_burst_keeps_len_at_live_events_plus_one() {
        // The invoker's tick pattern: every GPS membership change moves the
        // one tick. However many re-arms, the queue holds the live events
        // plus the timer, never stale copies.
        let mut q = EventQueue::new();
        let live = 10u64;
        for i in 0..live {
            q.schedule(SimTime::from_secs(1000 + i), i);
        }
        for k in 0..5000u64 {
            q.set_timer(SimTime::from_millis(2 + k), u64::MAX);
            assert_eq!(q.len() as u64, live + 1, "no stale entries may pile up");
        }
        q.clear_timer();
        assert_eq!(q.len() as u64, live);
        assert_eq!(drain(&mut q), (0..live).collect::<Vec<_>>());
    }

    #[test]
    fn in_order_appends_stay_in_the_lane_and_late_ones_fall_back() {
        let mut q = EventQueue::new();
        q.append(SimTime::from_millis(10), "a");
        q.append(SimTime::from_millis(10), "b");
        q.append(SimTime::from_millis(30), "d");
        assert_eq!((q.lane.len(), q.heap.len()), (3, 0));
        // Earlier than the lane's tail: the heap takes it.
        q.append(SimTime::from_millis(20), "c");
        assert_eq!((q.lane.len(), q.heap.len()), (3, 1));
        assert_eq!(q.len(), 4, "len counts the lane");
        assert_eq!(drain(&mut q), vec!["a", "b", "c", "d"]);
        // An empty lane takes any time again.
        q.append(SimTime::from_millis(40), "e");
        assert_eq!(q.lane.len(), 1);
    }

    #[test]
    fn same_instant_ties_across_lane_heap_and_timer_pop_in_issue_order() {
        // One instant, three homes: pops follow the sequence numbers, as a
        // single heap would, not the home.
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        q.schedule(t, "heap-1");
        q.append(t, "lane-2");
        q.set_timer(t, "timer-3");
        q.schedule(t, "heap-4");
        q.append(t, "lane-5");
        assert_eq!(q.peek_time(), Some(t));
        assert_eq!(
            drain(&mut q),
            vec!["heap-1", "lane-2", "timer-3", "heap-4", "lane-5"]
        );
    }

    #[test]
    fn seeded_interleaving_pops_in_key_order() {
        // Deterministic stress: schedule/set/clear/pop driven by a cheap
        // xorshift, checked against the (time, seq) key each event was
        // given: pops must come out in strictly increasing key order.
        let mut q = EventQueue::new();
        let mut seq = 0u64;
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut popped = Vec::new();
        for _ in 0..2000 {
            let t = q.now() + SimDuration::from_millis(rng() % 50);
            match rng() % 5 {
                0 | 1 => q.schedule(t, (t, seq)),
                2 => q.set_timer(t, (t, seq)),
                3 => {
                    q.clear_timer();
                    continue;
                }
                _ => {
                    popped.extend(q.pop().map(|(_, key)| key));
                    continue;
                }
            }
            seq += 1;
        }
        popped.extend(drain(&mut q));
        assert!(popped.len() > 500);
        assert!(popped.windows(2).all(|w| w[0] < w[1]), "pops out of order");
        assert!(q.is_empty());
    }
}
