//! Correctness checks on a pass's outputs, the stability guard and the
//! deterministic counts the simulator reports.

use crate::workloads::{Run, Workload};
use faas_simcore::time::SimTime;

/// What one pass's check found.
pub struct Verdict {
    pub problems: Vec<String>,
    /// Calls simulated (outcomes plus drops), warm-ups included.
    pub calls: usize,
    pub dropped: usize,
    /// FNV-1a digest of every outcome and drop, in run order.
    pub digest: u64,
}

struct Fnv(u64);

impl Fnv {
    fn add(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Call conservation (every injected call ends as exactly one outcome or
/// drop, and the measured ones are exactly the calls the workload
/// generated, with their functions and release times), non-negative
/// response times, and the digest.
pub fn verify(work: &dyn Workload, runs: &[Run]) -> Verdict {
    let mut problems = Vec::new();
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    let (mut calls, mut dropped) = (0, 0);
    for (i, run) in runs.iter().enumerate() {
        let r = &run.result;
        let answered = r.outcomes.len() + r.drops.len();
        if answered != run.injected {
            problems.push(format!(
                "run {i}: {answered} outcomes and drops for {} calls injected",
                run.injected
            ));
        }
        let mut want: Vec<(u64, u16, u64)> = work
            .measured_calls(i)
            .iter()
            .map(|c| (c.id.0, c.func.0, c.release.as_nanos()))
            .collect();
        let mut got: Vec<(u64, u16, u64)> = r
            .measured()
            .map(|o| (o.id.0, o.func.0, o.release.as_nanos()))
            .chain(
                r.drops
                    .iter()
                    .map(|d| (d.id.0, d.func.0, d.release.as_nanos())),
            )
            .collect();
        want.sort_unstable();
        got.sort_unstable();
        if got != want {
            problems.push(format!(
                "run {i}: the {} measured calls answered are not the {} injected",
                got.len(),
                want.len()
            ));
        }
        if let Some(o) = r
            .outcomes
            .iter()
            .find(|o| o.completion < o.release || o.exec_end < o.exec_start)
        {
            problems.push(format!("run {i}: call {} has a negative time", o.id.0));
        }
        for o in &r.outcomes {
            for x in [
                o.id.0,
                o.func.0 as u64,
                o.kind as u64,
                o.node as u64,
                o.release.as_nanos(),
                o.invoker_receive.as_nanos(),
                o.exec_start.as_nanos(),
                o.exec_end.as_nanos(),
                o.completion.as_nanos(),
                o.processing.as_nanos(),
                o.start_kind as u64,
            ] {
                h.add(x);
            }
        }
        for d in &r.drops {
            for x in [
                d.id.0,
                d.node as u64,
                d.release.as_nanos(),
                d.reason as u64,
                d.attempts as u64,
            ] {
                h.add(x);
            }
        }
        calls += answered;
        dropped += r.drops.len();
    }
    Verdict {
        problems,
        calls,
        dropped,
        digest: h.0,
    }
}

/// How long after the last release the last measured call completed: a
/// backlog that drains leaves this near one service time.
pub fn drain_secs(runs: &[Run]) -> f64 {
    runs.iter()
        .map(|run| {
            let r = &run.result;
            let last_release = r
                .measured()
                .map(|o| o.release)
                .chain(r.drops.iter().map(|d| d.release))
                .max()
                .unwrap_or(SimTime::ZERO);
            r.last_completion
                .saturating_since(last_release)
                .as_secs_f64()
        })
        .fold(0.0, f64::max)
}

/// Deterministic counts from the node results: sums over runs, peaks
/// maxed over runs.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub outcomes_len: u64,
    pub cold_starts: u64,
    pub warm_hits: u64,
    pub evictions: u64,
    pub peak_queue: u64,
    pub peak_events: u64,
    pub peak_concurrency: u64,
    pub peak_resident_calls: u64,
    pub retries: u64,
    pub timeouts: u64,
    pub failovers: u64,
    pub dropped: u64,
}

pub fn counts(runs: &[Run]) -> Counts {
    let mut c = Counts::default();
    for run in runs {
        let r = &run.result;
        let pool = r.total_pool_stats;
        c.outcomes_len += r.outcomes.len() as u64;
        c.cold_starts += pool.cold_starts();
        c.warm_hits += pool.warm_hits;
        c.evictions += pool.evictions;
        c.peak_queue = c.peak_queue.max(r.peak_queue as u64);
        c.peak_events = c.peak_events.max(r.peak_events as u64);
        c.peak_concurrency = c.peak_concurrency.max(r.peak_concurrency as u64);
        c.peak_resident_calls = c.peak_resident_calls.max(r.peak_resident_calls);
        c.retries += r.fault_stats.retries;
        c.timeouts += r.fault_stats.timeouts;
        c.failovers += r.fault_stats.failovers;
        c.dropped += r.fault_stats.dropped;
    }
    c
}
