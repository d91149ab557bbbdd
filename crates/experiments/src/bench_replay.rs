//! Trace-replay trajectory: `experiments replay` / `experiments bench` →
//! `BENCH_replay.json`.
//!
//! Times the bounded-memory trace ingestion subsystem end to end: an
//! Azure-style [`SyntheticTrace`] (calls derived lazily per index, never
//! materialized) replayed through
//! [`faas_cluster::run_cluster_trace_streamed`] on the paper's 4-node
//! cluster. Two feeds are compared on the identical trace:
//!
//! * **materialized** — `chunk = len`: every node pages its whole shard
//!   in one window, the replay analogue of generating a `Vec` up front;
//! * **streamed** — `chunk = 8192`: the bounded-memory windowed cursor,
//!   with `peak_resident_calls` recording the actual ingestion working
//!   set.
//!
//! The headline trajectory numbers are `calls_per_sec` at 10^6 and 10^7
//! calls (the scaling claim), plus the working-set proxy at 10^7. The
//! throughput points take the **best of several timed runs** (the
//! minimum wall-clock is the least scheduler-perturbed estimate) and
//! record the sample count as a `*_samples` entry, so the regression
//! gate compares like-for-like measurements instead of tripping on a
//! single noisy run. The 10^8-call point exists but is opt-in via
//! `BENCH_REPLAY_XL=1` — it holds ~10^8 outcome records and takes
//! minutes, which is beyond the default CI budget (it runs
//! single-sample, and says so in its `*_samples` entry).
//!
//! The synthesizer's mean rate is fixed at a sustainable per-cluster load
//! (the window scales with the call count instead), so queues stay
//! bounded and the wall-clock measures ingestion + simulation, not
//! pathological backlog churn.

use faas_cluster::{run_cluster_trace_streamed, ClusterConfig, LoadBalancer};
use faas_invoker::{NodeConfig, NodeMode, NodeResult};
use faas_simcore::time::{SimDuration, SimTime};
use faas_workload::faults::FaultSpec;
use faas_workload::sebs::Catalogue;
use faas_workload::synth::{SynthSpec, SyntheticTrace};
use faas_workload::trace_source::TraceSource;

pub use crate::bench_gps::BenchEntry;

/// Worker count of the benchmark cluster.
const NODES: u16 = 4;
/// Cores per node (the paper's node).
const CORES: u32 = 10;
/// Cluster-wide mean arrival rate (calls/s of simulated time). The
/// slowest SeBS function has an 8.5 s median, so 4 calls/s keeps even a
/// popularity order that favours it inside the 40-core capacity.
const MEAN_RATE: f64 = 4.0;
/// Ingestion window of the streamed feed.
const STREAM_CHUNK: usize = 8192;
const SAMPLES: usize = 3;
/// Timed runs per throughput point (best-of-N); the 10^8 XL point stays
/// single-sample because one run is already minutes-scale.
const THROUGHPUT_SAMPLES: usize = 3;

/// The synthetic benchmark trace for a target call count: the rate is
/// fixed, the simulated window grows with the count (a bigger slice of
/// the same day-like workload).
fn bench_trace(catalogue: &Catalogue, calls: u64) -> SyntheticTrace {
    let window = SimDuration::from_secs_f64(calls as f64 / MEAN_RATE);
    SyntheticTrace::new(
        &SynthSpec::azure(MEAN_RATE, window),
        catalogue,
        SimTime::ZERO,
        0xEEA7,
    )
}

fn replay(catalogue: &Catalogue, trace: &SyntheticTrace, chunk: usize) -> NodeResult {
    let cfg = ClusterConfig::independent(NODES, NodeConfig::paper(CORES), LoadBalancer::RoundRobin);
    run_cluster_trace_streamed(
        catalogue,
        trace,
        &NodeMode::Baseline,
        &cfg,
        &FaultSpec::none(),
        11,
        chunk,
    )
}

/// Run the full trajectory: the materialized/streamed pair at 10^6 calls,
/// throughput at 10^7, and (with `BENCH_REPLAY_XL=1`) the 10^8 point.
pub fn run() -> Vec<BenchEntry> {
    let mut entries = run_level(1_000_000, SAMPLES);
    entries.extend(throughput_level(10_000_000, THROUGHPUT_SAMPLES));
    if std::env::var("BENCH_REPLAY_XL").as_deref() == Ok("1") {
        entries.extend(throughput_level(100_000_000, 1));
    }
    entries
}

/// The materialized-vs-streamed feed comparison at an explicit call count
/// (the unit test uses a reduced one; `experiments bench` 10^6).
pub fn run_level(calls: u64, samples: usize) -> Vec<BenchEntry> {
    let catalogue = Catalogue::sebs();
    let trace = bench_trace(&catalogue, calls);
    let n = trace.len();

    // One untimed streamed run carries the working-set numbers.
    let probe = replay(&catalogue, &trace, STREAM_CHUNK);
    let materialized = crate::median_ns(samples, || {
        replay(&catalogue, &trace, n as usize).outcomes.len() as f64
    });
    let streamed = crate::median_ns(samples, || {
        replay(&catalogue, &trace, STREAM_CHUNK).outcomes.len() as f64
    });

    vec![
        BenchEntry {
            name: format!("replay_c{calls}_materialized"),
            value: materialized / 1e6,
            unit: "ms/run".into(),
        },
        BenchEntry {
            name: format!("replay_c{calls}_streamed"),
            value: streamed / 1e6,
            unit: "ms/run".into(),
        },
        // Above 1 the bounded windows beat the one-shot feed (smaller
        // live set, better locality); below 1 the window/advance
        // interleave costs that factor.
        BenchEntry {
            name: format!("replay_c{calls}_feed_speedup"),
            value: materialized / streamed,
            unit: "x".into(),
        },
        BenchEntry {
            name: format!("replay_c{calls}_calls_per_sec"),
            value: n as f64 / (streamed / 1e9),
            unit: "calls/s".into(),
        },
        BenchEntry {
            name: format!("replay_c{calls}_peak_resident"),
            value: probe.peak_resident_calls as f64,
            unit: "calls".into(),
        },
        BenchEntry {
            name: "replay_threads".into(),
            value: crate::bench_gps::used_threads(),
            unit: "count".into(),
        },
    ]
}

/// Streamed-feed throughput at an explicit call count: best of `samples`
/// timed runs. A single wall-clock sample is at the mercy of one
/// scheduler hiccup — under the CI regression gate that reads as a
/// throughput drop — so the reported rate uses the minimum elapsed time
/// over the runs, and the sample count is recorded next to it so the
/// trajectory never mixes best-of-3 points with single-shot ones
/// unknowingly.
pub fn throughput_level(calls: u64, samples: usize) -> Vec<BenchEntry> {
    let catalogue = Catalogue::sebs();
    let trace = bench_trace(&catalogue, calls);
    let n = trace.len();
    let samples = samples.max(1);
    let mut best = f64::INFINITY;
    let mut peak_resident = 0u64;
    for _ in 0..samples {
        let start = std::time::Instant::now();
        let r = std::hint::black_box(replay(&catalogue, &trace, STREAM_CHUNK));
        let elapsed = start.elapsed().as_secs_f64();
        best = best.min(elapsed);
        peak_resident = peak_resident.max(r.peak_resident_calls);
    }
    vec![
        BenchEntry {
            name: format!("replay_c{calls}_calls_per_sec"),
            value: n as f64 / best,
            unit: "calls/s".into(),
        },
        BenchEntry {
            name: format!("replay_c{calls}_peak_resident"),
            value: peak_resident as f64,
            unit: "calls".into(),
        },
        BenchEntry {
            name: format!("replay_c{calls}_samples"),
            value: samples as f64,
            unit: "count".into(),
        },
    ]
}

/// Human-readable rendering of the entries.
pub fn render(entries: &[BenchEntry]) -> String {
    let mut out =
        String::from("Trace-replay benchmarks (bounded-memory ingestion vs one-shot feed)\n");
    for e in entries {
        out.push_str(&format!("  {:<44} {:>16.1} {}\n", e.name, e.value, e.unit));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_the_feed_pair_throughput_and_residency() {
        let entries = run_level(20_000, 1);
        assert_eq!(entries.len(), 6);
        for e in &entries {
            assert!(e.value > 0.0, "{} must be positive", e.name);
        }
        let find = |suffix: &str| {
            entries
                .iter()
                .find(|e| e.name.ends_with(suffix))
                .unwrap_or_else(|| panic!("missing {suffix}"))
        };
        assert_eq!(find("_materialized").unit, "ms/run");
        assert_eq!(find("_streamed").unit, "ms/run");
        assert_eq!(find("_feed_speedup").unit, "x");
        assert_eq!(find("_calls_per_sec").unit, "calls/s");
        assert_eq!(find("_peak_resident").unit, "calls");
        assert!(entries.iter().any(|e| e.name == "replay_threads"));
        // The bounded feed actually bounds: at most chunk calls resident
        // per node.
        assert!(find("_peak_resident").value <= (STREAM_CHUNK * NODES as usize) as f64);
    }

    #[test]
    fn bench_emits_a_valid_schema_shape() {
        let entries = run_level(20_000, 1);
        crate::bench_schema::validate_entries("BENCH_replay.json", &entries).unwrap();
    }

    #[test]
    fn throughput_level_reports_rate_residency_and_sample_count() {
        let entries = throughput_level(10_000, 2);
        assert_eq!(entries.len(), 3);
        assert!(entries[0].name.ends_with("_calls_per_sec"));
        assert!(entries[0].value > 0.0);
        assert!(entries[1].value <= (STREAM_CHUNK * NODES as usize) as f64);
        assert!(entries[2].name.ends_with("_samples"));
        assert_eq!(entries[2].unit, "count");
        assert_eq!(entries[2].value, 2.0);
        // A zero sample request still measures once.
        let one = throughput_level(10_000, 0);
        assert_eq!(one[2].value, 1.0);
    }
}
