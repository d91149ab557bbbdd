//! Event-queue performance trajectory: `experiments bench`.
//!
//! Times the indexed event heap (`faas_simcore::events::EventQueue`)
//! against the previous lazy-cancellation design (kept here as
//! `LazyEventQueue`, an executable fossil of the `BinaryHeap + HashMap`
//! queue) on the two access patterns that matter:
//!
//! * **tick storm** — the baseline invoker's cancellation-heavy pattern:
//!   a population of live events plus one "next GPS completion" tick that
//!   moves on every event. The lazy queue cannot move it, so every event
//!   abandons a generation-stamped dead tick that must be popped and
//!   discarded later; the indexed queue reschedules one handle in place.
//! * **hold** — the pure pop/schedule path with no cancellation at all.
//!   This one *isolates the cost of index maintenance* (a position-table
//!   write per sift level): the indexed queue pays a modest premium here,
//!   which is the price of the tick-storm win and of bounded memory. The
//!   simulator's pop-heavy consumer (the baseline invoker) always runs
//!   the tick pattern, so the storm entry is the representative one;
//!   end-to-end node wall time (`baseline_node_c10_v90_wall` in
//!   `BENCH_gps.json`) is the tie-breaker.
//!
//! Entries land in `BENCH_events.json` next to `BENCH_gps.json`, in the
//! same `{"name", "value", "unit"}` dashboard style.

use crate::bench_gps::BenchEntry;
use faas_simcore::events::EventQueue;
use faas_simcore::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// The predecessor queue's sequence-number hasher (Fibonacci mix), kept so
/// the lazy baseline pays exactly the hash cost the real pre-PR queue paid
/// — benchmarking it with SipHash would inflate the indexed queue's win.
#[derive(Default)]
struct SeqHasher(u64);

impl Hasher for SeqHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("SeqHasher only hashes u64 sequence numbers");
    }
    fn write_u64(&mut self, seq: u64) {
        self.0 = seq.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// Live-event population for both workloads.
const POPULATION: usize = 256;
/// Operations per sample.
const OPS: usize = 50_000;
const SAMPLES: usize = 7;

/// The pre-indexed-heap event queue: lazy cancellation over
/// `BinaryHeap + HashMap`, preserved verbatim so the benchmark keeps
/// comparing against the real predecessor design.
struct LazyEventQueue<E> {
    heap: BinaryHeap<LazyEntry<E>>,
    next_seq: u64,
    queued: HashMap<u64, bool, BuildHasherDefault<SeqHasher>>,
    cancelled_in_heap: usize,
    now: SimTime,
}

struct LazyEntry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for LazyEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for LazyEntry<E> {}
impl<E> PartialOrd for LazyEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for LazyEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> LazyEventQueue<E> {
    fn new() -> Self {
        LazyEventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            queued: HashMap::default(),
            cancelled_in_heap: 0,
            now: SimTime::ZERO,
        }
    }

    fn schedule(&mut self, time: SimTime, payload: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(LazyEntry { time, seq, payload });
        self.queued.insert(seq, false);
        seq
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.heap.pop() {
            if self.queued.remove(&entry.seq) == Some(true) {
                self.cancelled_in_heap -= 1;
                continue;
            }
            self.now = entry.time;
            return Some((entry.time, entry.payload));
        }
        None
    }
}

/// Deterministic inter-event gaps (xorshift; no external RNG needed).
struct Gaps(u64);

impl Gaps {
    fn next_millis(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        1 + self.0 % 200
    }
}

/// Tick-storm on the indexed queue: the tick is one handle, rescheduled
/// in place; the queue never grows past `POPULATION + 1`.
fn tick_storm_indexed() -> u64 {
    let mut q = EventQueue::new();
    let mut gaps = Gaps(0x9E3779B97F4A7C15);
    for i in 0..POPULATION as u64 {
        q.schedule(SimTime::from_millis(gaps.next_millis() * (i + 1)), i);
    }
    let mut tick = q.schedule(SimTime::ZERO, u64::MAX);
    let mut checksum = 0u64;
    for _ in 0..OPS {
        let (now, id) = q.pop().expect("population never drains");
        if id != u64::MAX {
            checksum = checksum.wrapping_add(id);
            q.schedule(now + SimDuration::from_millis(gaps.next_millis()), id);
            // Every event moves the "next completion": one in-place
            // reschedule of the single live tick.
            q.reschedule(tick, now + SimDuration::from_millis(gaps.next_millis()));
        } else {
            // The tick itself fired; its handle is dead until re-armed.
            tick = q.schedule(now + SimDuration::from_millis(gaps.next_millis()), u64::MAX);
        }
    }
    assert!(q.len() <= POPULATION + 1, "indexed queue must stay bounded");
    checksum
}

/// Tick-storm on the lazy queue: no reschedule exists, so every event
/// schedules a fresh generation-stamped tick and the stale ones are popped
/// and discarded one by one — exactly the pre-PR invoker pattern.
fn tick_storm_lazy() -> u64 {
    let mut q = LazyEventQueue::new();
    let mut gaps = Gaps(0x9E3779B97F4A7C15);
    for i in 0..POPULATION as u64 {
        q.schedule(
            SimTime::from_millis(gaps.next_millis() * (i + 1)),
            Payload::Event(i),
        );
    }
    let mut generation = 0u64;
    q.schedule(SimTime::ZERO, Payload::Tick(generation));
    let mut checksum = 0u64;
    let mut real_ops = 0usize;
    while real_ops < OPS {
        let (now, payload) = q.pop().expect("population never drains");
        match payload {
            Payload::Tick(g) if g != generation => continue, // stale: discard
            Payload::Tick(_) => {}
            Payload::Event(id) => {
                checksum = checksum.wrapping_add(id);
                q.schedule(
                    now + SimDuration::from_millis(gaps.next_millis()),
                    Payload::Event(id),
                );
            }
        }
        real_ops += 1;
        generation += 1;
        q.schedule(
            now + SimDuration::from_millis(gaps.next_millis()),
            Payload::Tick(generation),
        );
    }
    checksum
}

#[derive(Clone, Copy)]
enum Payload {
    Event(u64),
    Tick(u64),
}

/// Hold model (pop + schedule, no cancellation) on the indexed queue.
fn hold_indexed() -> u64 {
    let mut q = EventQueue::new();
    let mut gaps = Gaps(0xD1B54A32D192ED03);
    for i in 0..POPULATION as u64 {
        q.schedule(SimTime::from_millis(gaps.next_millis() * (i + 1)), i);
    }
    let mut checksum = 0u64;
    for _ in 0..OPS {
        let (now, id) = q.pop().expect("population never drains");
        checksum = checksum.wrapping_add(id);
        q.schedule(now + SimDuration::from_millis(gaps.next_millis()), id);
    }
    checksum
}

/// Hold model on the lazy queue.
fn hold_lazy() -> u64 {
    let mut q = LazyEventQueue::new();
    let mut gaps = Gaps(0xD1B54A32D192ED03);
    for i in 0..POPULATION as u64 {
        q.schedule(SimTime::from_millis(gaps.next_millis() * (i + 1)), i);
    }
    let mut checksum = 0u64;
    for _ in 0..OPS {
        let (now, id) = q.pop().expect("population never drains");
        checksum = checksum.wrapping_add(id);
        q.schedule(now + SimDuration::from_millis(gaps.next_millis()), id);
    }
    checksum
}

/// Run the event-queue benchmarks.
pub fn run() -> Vec<BenchEntry> {
    let mut entries = Vec::new();
    let storm_indexed = crate::median_ns(SAMPLES, tick_storm_indexed) / OPS as f64;
    let storm_lazy = crate::median_ns(SAMPLES, tick_storm_lazy) / OPS as f64;
    entries.push(BenchEntry {
        name: format!("event_queue_tick_storm_n{POPULATION}_indexed"),
        value: storm_indexed,
        unit: "ns/op".into(),
    });
    entries.push(BenchEntry {
        name: format!("event_queue_tick_storm_n{POPULATION}_lazy"),
        value: storm_lazy,
        unit: "ns/op".into(),
    });
    entries.push(BenchEntry {
        name: format!("event_queue_tick_storm_n{POPULATION}_speedup"),
        value: storm_lazy / storm_indexed,
        unit: "x".into(),
    });
    let hold_idx = crate::median_ns(SAMPLES, hold_indexed) / OPS as f64;
    let hold_lzy = crate::median_ns(SAMPLES, hold_lazy) / OPS as f64;
    entries.push(BenchEntry {
        name: format!("event_queue_hold_n{POPULATION}_indexed"),
        value: hold_idx,
        unit: "ns/op".into(),
    });
    entries.push(BenchEntry {
        name: format!("event_queue_hold_n{POPULATION}_lazy"),
        value: hold_lzy,
        unit: "ns/op".into(),
    });
    entries.push(BenchEntry {
        name: "event_queue_threads".into(),
        value: crate::bench_gps::used_threads(),
        unit: "count".into(),
    });
    entries
}

/// Human-readable rendering of the entries.
pub fn render(entries: &[BenchEntry]) -> String {
    let mut out = String::from("Event-queue benchmarks\n");
    for e in entries {
        out.push_str(&format!("  {:<44} {:>12.1} {}\n", e.name, e.value, e.unit));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_agree_and_entries_are_positive() {
        // Both queues must serve the same event sequence (same checksum):
        // the benchmark compares equivalent work, not different schedules.
        assert_eq!(tick_storm_indexed(), tick_storm_lazy());
        assert_eq!(hold_indexed(), hold_lazy());
        let entries = run();
        assert_eq!(entries.len(), 6);
        for e in &entries {
            assert!(e.value > 0.0, "{} must be positive", e.name);
        }
        crate::bench_schema::validate_entries("BENCH_events.json", &entries).unwrap();
    }
}
