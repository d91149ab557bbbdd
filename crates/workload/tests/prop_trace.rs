//! Property tests of the trace ingestion subsystem: shard invariance
//! (any chunk/stride partition of a [`TraceSource`] reproduces the serial
//! log bit-for-bit), rerun identity, and the record→replay digest
//! contract against direct generation.

use faas_simcore::time::{SimDuration, SimTime};
use faas_workload::arrival::ArrivalSpec;
use faas_workload::generate::ShardedGenerator;
use faas_workload::mix::MixSpec;
use faas_workload::sebs::Catalogue;
use faas_workload::synth::SynthSpec;
use faas_workload::trace::{Call, CallId};
use faas_workload::trace_source::{RecordedTrace, TraceSource};
use faas_workload::weight::WeightSpec;
use faas_workload::WorkloadSpec;
use proptest::prelude::*;

fn spec(rate: f64) -> WorkloadSpec {
    WorkloadSpec {
        arrival: ArrivalSpec::Poisson { rate },
        mix: MixSpec::Zipf { s: 1.1 },
        weights: WeightSpec::Uniform,
        window: SimDuration::from_secs(20),
    }
}

fn serial(t: &dyn TraceSource) -> Vec<Call> {
    t.iter_chunk(0, t.len()).collect()
}

/// The shard-invariance guarantee: any chunk partition and any stride
/// partition of the index space reassembles to the serial log bit for
/// bit, and the serial log honors the ordering contract (`id == index`,
/// releases non-decreasing).
fn assert_partitions(t: &dyn TraceSource, chunk: u64, stride: u64) {
    let n = t.len();
    let log = serial(t);
    let mut prev = t.start();
    for (i, c) in log.iter().enumerate() {
        assert_eq!(c.id, CallId(i as u64), "id == index at {i}");
        assert!(c.release >= prev, "release-ordered at {i}");
        prev = c.release;
    }
    let mut from_chunks: Vec<Call> = Vec::with_capacity(log.len());
    let mut lo = 0;
    while lo < n {
        let hi = (lo + chunk).min(n);
        from_chunks.extend(t.iter_chunk(lo, hi));
        lo = hi;
    }
    assert_eq!(from_chunks, log, "chunk-{chunk} partition");
    let mut from_strides: Vec<Call> = (0..stride)
        .flat_map(|s| (s..n).step_by(stride as usize).map(|i| t.call(i)))
        .collect();
    from_strides.sort_by_key(|c| c.id);
    assert_eq!(from_strides, log, "stride-{stride} partition");
}

proptest! {
    /// Synthetic traces: any partition reproduces the serial log, and the
    /// same (spec, seed) synthesizes the identical trace on a rerun.
    #[test]
    fn synthetic_partitions_and_reruns_are_bit_exact(
        seed in any::<u64>(),
        rate in 0.5f64..20.0,
        chunk in 1u64..97,
        stride in 1u64..8
    ) {
        let cat = Catalogue::sebs();
        let synth = SynthSpec::azure(rate, SimDuration::from_secs(20));
        let t = faas_workload::synth::SyntheticTrace::new(&synth, &cat, SimTime::ZERO, seed);
        assert_partitions(&t, chunk, stride);
        let rerun = faas_workload::synth::SyntheticTrace::new(&synth, &cat, SimTime::ZERO, seed);
        prop_assert_eq!(serial(&rerun), serial(&t));
    }

    /// A synthetic chunk derived through the walking profile hints is,
    /// call for call, the pure per-index `call(i)`, whatever the chunk
    /// bounds: a chunk seeds its hints by binary search and walks from
    /// there.
    #[test]
    fn synthetic_chunks_match_per_index_calls(
        seed in any::<u64>(),
        rate in 0.5f64..30.0,
        lo_frac in 0.0f64..1.0,
        len_frac in 0.0f64..1.0
    ) {
        let cat = Catalogue::sebs();
        let synth = SynthSpec::azure(rate, SimDuration::from_secs(120));
        let t = faas_workload::synth::SyntheticTrace::new(&synth, &cat, SimTime::ZERO, seed);
        let n = t.len();
        let lo = (lo_frac * n as f64) as u64;
        let hi = lo + (len_frac * (n - lo) as f64) as u64;
        let chunk: Vec<Call> = t.iter_chunk(lo, hi).collect();
        let by_index: Vec<Call> = (lo..hi).map(|i| t.call(i)).collect();
        prop_assert_eq!(chunk, by_index);
    }

    /// Recorded traces: any partition reproduces the serial log, and
    /// recording the same (spec, seed) twice captures the identical trace.
    #[test]
    fn recorded_partitions_and_reruns_are_bit_exact(
        seed in any::<u64>(),
        chunk in 1u64..53,
        stride in 1u64..6
    ) {
        let cat = Catalogue::sebs();
        let t = RecordedTrace::record(&spec(8.0), &cat, SimTime::ZERO, seed);
        prop_assert!(!t.is_empty());
        assert_partitions(&t, chunk, stride);
        let rerun = RecordedTrace::record(&spec(8.0), &cat, SimTime::ZERO, seed);
        prop_assert_eq!(rerun.calls(), t.calls());
    }

    /// Record→replay digest identity: capturing a spec moves only the ids
    /// (generation order → release order); the (func, release, kind)
    /// sequence in release order is direct generation's, bit for bit.
    #[test]
    fn record_is_digest_identical_to_direct_generation(seed in any::<u64>()) {
        let cat = Catalogue::sebs();
        let start = SimTime::from_secs(2);
        let mut direct = ShardedGenerator::new(&spec(8.0), &cat, start, seed).generate_serial();
        direct.sort_by_key(|c| (c.release, c.id));
        let t = RecordedTrace::record(&spec(8.0), &cat, start, seed);
        prop_assert_eq!(t.len(), direct.len() as u64);
        for (i, d) in direct.iter().enumerate() {
            let c = t.call(i as u64);
            prop_assert_eq!(
                (c.func, c.release, c.kind),
                (d.func, d.release, d.kind),
                "digest mismatch at {}",
                i
            );
        }
    }
}
