//! The trace ingestion subsystem: indexable, memory-bounded call logs.
//!
//! A [`TraceSource`] is a *fixed, time-ordered* call log addressed by
//! index — the replay counterpart of [`crate::generate::ShardedGenerator`].
//! It honors the same two contracts that make the sharded generator
//! compose with every cluster engine:
//!
//! 1. **Pure in `(source, index)`** — `call(i)` returns the identical
//!    [`Call`] however, whenever and on whatever thread it is evaluated,
//!    so any partition of the index space reproduces the serial trace
//!    bit-for-bit (the shard-invariance guarantee).
//! 2. **Release-ordered** — releases are non-decreasing in the index and
//!    `call(i).id == CallId(i)`. A trace is a log: index order *is*
//!    arrival order. This is what lets the streaming engines pull bounded
//!    windows of calls through a cursor instead of materializing a `Vec`,
//!    and what makes `Call::stride_node` the round-robin assignment.
//!
//! Two implementations live here and in [`crate::synth`]:
//! [`RecordedTrace`] (a materialized log with JSONL save/load and a
//! `record` path capturing any [`WorkloadSpec`]) and
//! [`crate::synth::SyntheticTrace`] (an Azure-Functions-style synthesizer
//! whose calls are derived lazily per index, so a 10^8-call day is
//! generated on the fly, never held in memory). [`WorkloadSource`] is the enum the experiment layers thread
//! through: an analytic spec or a trace, interchangeably.
//!
//! Trace runs inject **no warm-up calls**: a trace is the complete log of
//! what the cluster received, warm-up included if it was recorded.

use crate::generate::{ShardedGenerator, WorkloadSpec};
use crate::sebs::Catalogue;
use crate::synth::SynthSpec;
use crate::trace::{Call, CallId};
use faas_simcore::time::SimTime;
use serde::{Deserialize, Serialize};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;

/// Indexable, memory-bounded access to a fixed, release-ordered call log.
/// See the module docs for the purity and ordering contract.
pub trait TraceSource: Sync {
    /// Number of calls in the log.
    fn len(&self) -> u64;

    /// The log's start time (all releases are at or after it).
    fn start(&self) -> SimTime;

    /// The `index`-th call, pure in `(self, index)`; releases are
    /// non-decreasing in `index` and `call(i).id == CallId(i)`.
    fn call(&self, index: u64) -> Call;

    /// True when the log is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stream one contiguous chunk `[lo, hi)` in index (= release) order.
    fn iter_chunk(&self, lo: u64, hi: u64) -> Box<dyn Iterator<Item = Call> + '_> {
        debug_assert!(lo <= hi && hi <= self.len());
        Box::new((lo..hi).map(move |i| self.call(i)))
    }
}

/// The JSONL trace-file header (first line of the file).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct TraceHeader {
    /// Format version.
    version: u32,
    /// Trace start time.
    start: SimTime,
    /// Number of call records following the header.
    len: u64,
}

const TRACE_FORMAT_VERSION: u32 = 1;

/// A materialized, release-ordered call log.
///
/// The file format is JSONL — one header line, then one [`Call`] per line
/// — so a file is read line by line with no streaming-JSON machinery.
/// [`SimTime`] is integer nanoseconds, so save/load round-trips
/// bit-exactly. A clone shares the calls of the trace it was cloned from.
#[derive(Debug, Clone)]
pub struct RecordedTrace {
    start: SimTime,
    calls: Arc<Vec<Call>>,
}

impl RecordedTrace {
    /// Build a trace from any call list: sorts by `(release, id)` and
    /// re-assigns dense ids in release order, establishing the
    /// [`TraceSource`] contract (`id == index`, releases non-decreasing).
    pub fn from_calls(start: SimTime, mut calls: Vec<Call>) -> RecordedTrace {
        calls.sort_by_key(|c| (c.release, c.id));
        for (i, c) in calls.iter_mut().enumerate() {
            c.id = CallId(i as u64);
        }
        RecordedTrace {
            start,
            calls: Arc::new(calls),
        }
    }

    /// Capture an existing [`WorkloadSpec`] into a trace: realize the
    /// sharded generator for `(spec, seed)`, materialize in parallel, and
    /// establish release order. The captured multiset of
    /// `(func, release, kind)` is digest-identical to direct generation —
    /// only the ids move, from generation order to release order.
    pub fn record(
        spec: &WorkloadSpec,
        catalogue: &Catalogue,
        start: SimTime,
        seed: u64,
    ) -> RecordedTrace {
        let generator = ShardedGenerator::new(spec, catalogue, start, seed);
        RecordedTrace::from_calls(start, generator.generate_parallel())
    }

    /// Save as JSONL (header line + one call per line).
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        let header = TraceHeader {
            version: TRACE_FORMAT_VERSION,
            start: self.start,
            len: self.calls.len() as u64,
        };
        let header_line = serde_json::to_string(&header).map_err(io::Error::other)?;
        w.write_all(header_line.as_bytes())?;
        w.write_all(b"\n")?;
        for call in self.calls.iter() {
            let line = serde_json::to_string(call).map_err(io::Error::other)?;
            w.write_all(line.as_bytes())?;
            w.write_all(b"\n")?;
        }
        w.flush()
    }

    /// Load a JSONL trace file fully into memory (re-establishing the
    /// ordering contract on the way in). A file holding a different number
    /// of calls than its header promises is rejected with
    /// [`io::ErrorKind::InvalidData`].
    pub fn load(path: &Path) -> io::Result<RecordedTrace> {
        let mut lines = BufReader::new(std::fs::File::open(path)?).lines();
        let header_line = lines
            .next()
            .ok_or_else(|| io::Error::other("empty trace file"))??;
        let header: TraceHeader = serde_json::from_str(&header_line).map_err(io::Error::other)?;
        if header.version != TRACE_FORMAT_VERSION {
            return Err(io::Error::other(format!(
                "unsupported trace format version {}",
                header.version
            )));
        }
        let calls = lines
            .map(|line| serde_json::from_str(&line?).map_err(io::Error::other))
            .collect::<io::Result<Vec<Call>>>()?;
        if calls.len() as u64 != header.len {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "trace header promises {} calls, the file holds {}",
                    header.len,
                    calls.len()
                ),
            ));
        }
        Ok(RecordedTrace::from_calls(header.start, calls))
    }

    /// The calls, in release order.
    pub fn calls(&self) -> &[Call] {
        &self.calls
    }
}

impl TraceSource for RecordedTrace {
    fn len(&self) -> u64 {
        self.calls.len() as u64
    }

    fn start(&self) -> SimTime {
        self.start
    }

    fn call(&self, index: u64) -> Call {
        self.calls[index as usize]
    }
}

/// A trace to replay.
#[derive(Debug, Clone)]
pub enum TraceSpec {
    /// Synthesize an Azure-style trace on the fly (never materialized).
    Synthetic(SynthSpec),
    /// Replay a recorded trace, loaded once ([`TraceSpec::load`]) and
    /// shared by every run that opens it.
    Recorded {
        /// The file the trace was loaded from (for labels).
        path: String,
        /// The loaded calls.
        trace: RecordedTrace,
    },
}

impl TraceSpec {
    /// Load a recorded JSONL trace file ([`RecordedTrace::load`]) once,
    /// for every run of the spec to share.
    pub fn load(path: &str) -> io::Result<TraceSpec> {
        Ok(TraceSpec::Recorded {
            path: path.to_string(),
            trace: RecordedTrace::load(Path::new(path))?,
        })
    }

    /// Open the trace this spec describes. `start`/`seed` parameterize
    /// synthetic traces, which each open realizes afresh; a recorded trace
    /// carries its own start time, consumes no randomness and is handed
    /// out as a shared handle, never re-read.
    pub fn open(&self, catalogue: &Catalogue, start: SimTime, seed: u64) -> Box<dyn TraceSource> {
        match self {
            TraceSpec::Synthetic(spec) => Box::new(crate::synth::SyntheticTrace::new(
                spec, catalogue, start, seed,
            )),
            TraceSpec::Recorded { trace, .. } => Box::new(trace.clone()),
        }
    }

    /// Short label for report tables.
    pub fn label(&self) -> String {
        match self {
            TraceSpec::Synthetic(spec) => spec.label(),
            TraceSpec::Recorded { path, .. } => format!(
                "replay({})",
                Path::new(path)
                    .file_name()
                    .map_or_else(|| path.clone(), |f| f.to_string_lossy().into_owned())
            ),
        }
    }
}

/// What drives a run: an analytic workload spec or a fixed trace. The
/// experiment layers thread this through so every engine composes with
/// both generation schemes.
#[derive(Debug, Clone)]
pub enum WorkloadSource {
    /// Generate from an analytic spec (arrival × mix × weights × window).
    Spec(WorkloadSpec),
    /// Replay a fixed trace.
    Trace(TraceSpec),
}

impl WorkloadSource {
    /// Short label for report tables.
    pub fn label(&self) -> String {
        match self {
            WorkloadSource::Spec(spec) => spec.label(),
            WorkloadSource::Trace(trace) => trace.label(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::ArrivalSpec;
    use crate::mix::MixSpec;
    use crate::trace::CallKind;
    use crate::weight::WeightSpec;
    use faas_simcore::time::SimDuration;
    use std::path::PathBuf;

    fn catalogue() -> Catalogue {
        Catalogue::sebs()
    }

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            arrival: ArrivalSpec::Poisson { rate: 9.0 },
            mix: MixSpec::Zipf { s: 1.1 },
            weights: WeightSpec::Uniform,
            window: SimDuration::from_secs(60),
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("faas-trace-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn record_establishes_the_ordering_contract() {
        let t = RecordedTrace::record(&spec(), &catalogue(), SimTime::from_secs(3), 11);
        assert!(!t.is_empty());
        let mut prev = SimTime::ZERO;
        for i in 0..t.len() {
            let c = t.call(i);
            assert_eq!(c.id, CallId(i), "id == index");
            assert!(c.release >= prev, "release-ordered at {i}");
            prev = c.release;
        }
    }

    #[test]
    fn record_is_digest_identical_to_direct_generation() {
        // Only ids move (generation order -> release order); the
        // (func, release, kind) multiset is the generator's, bit for bit.
        let cat = catalogue();
        let g = ShardedGenerator::new(&spec(), &cat, SimTime::from_secs(3), 11);
        let mut direct = g.generate_serial();
        direct.sort_by_key(|c| (c.release, c.id));
        let t = RecordedTrace::record(&spec(), &cat, SimTime::from_secs(3), 11);
        assert_eq!(t.len(), direct.len() as u64);
        for (i, d) in direct.iter().enumerate() {
            let c = t.call(i as u64);
            assert_eq!((c.func, c.release, c.kind), (d.func, d.release, d.kind));
        }
    }

    #[test]
    fn save_load_round_trips_bit_exactly() {
        let t = RecordedTrace::record(&spec(), &catalogue(), SimTime::from_secs(5), 13);
        let path = tmp("roundtrip.jsonl");
        t.save(&path).expect("save");
        let loaded = RecordedTrace::load(&path).expect("load");
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.start(), t.start());
        assert_eq!(loaded.calls(), t.calls());
    }

    #[test]
    fn truncated_trace_file_is_rejected() {
        let t = RecordedTrace::record(&spec(), &catalogue(), SimTime::from_secs(5), 17);
        let path = tmp("truncated.jsonl");
        t.save(&path).expect("save");
        let text = std::fs::read_to_string(&path).expect("read");
        let last_line = text.trim_end().rfind('\n').expect("header plus calls");
        std::fs::write(&path, &text[..=last_line]).expect("write");
        let err = RecordedTrace::load(&path).expect_err("a call is missing");
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn chunks_and_strides_partition_the_trace() {
        let t = RecordedTrace::record(&spec(), &catalogue(), SimTime::ZERO, 19);
        let n = t.len();
        let serial: Vec<Call> = t.iter_chunk(0, n).collect();
        let mut from_strides: Vec<Call> = (0..3)
            .flat_map(|s| (s..n).step_by(3).map(|i| t.call(i)))
            .collect();
        from_strides.sort_by_key(|c| c.id);
        assert_eq!(from_strides, serial);
        let mid = n / 2;
        let mut from_chunks: Vec<Call> = t.iter_chunk(0, mid).collect();
        from_chunks.extend(t.iter_chunk(mid, n));
        assert_eq!(from_chunks, serial);
    }

    #[test]
    fn from_calls_sorts_and_renumbers() {
        let f = catalogue().by_name("sleep").unwrap();
        let mk = |id: u64, ms: u64| Call {
            id: CallId(id),
            func: f,
            release: SimTime::from_millis(ms),
            kind: CallKind::Measured,
        };
        let t = RecordedTrace::from_calls(SimTime::ZERO, vec![mk(5, 30), mk(9, 10), mk(2, 20)]);
        let releases: Vec<u64> = (0..3).map(|i| t.call(i).release.as_nanos()).collect();
        assert_eq!(
            releases,
            vec![
                SimTime::from_millis(10).as_nanos(),
                SimTime::from_millis(20).as_nanos(),
                SimTime::from_millis(30).as_nanos()
            ]
        );
        assert!((0..3).all(|i| t.call(i).id == CallId(i)));
    }

    #[test]
    fn trace_spec_open_and_labels() {
        let cat = catalogue();
        let synth = TraceSpec::Synthetic(SynthSpec::azure(5.0, SimDuration::from_secs(60)));
        let t = synth.open(&cat, SimTime::ZERO, 23);
        assert!(!t.is_empty());
        assert!(synth.label().starts_with("synth("));

        let rec = RecordedTrace::record(&spec(), &cat, SimTime::ZERO, 29);
        let path = tmp("spec-open.jsonl");
        rec.save(&path).expect("save");
        let replay = TraceSpec::load(&path.to_string_lossy()).expect("recorded");
        std::fs::remove_file(&path).ok();
        // Every open shares the one loaded copy: the file is gone.
        for _ in 0..2 {
            let r = replay.open(&cat, SimTime::ZERO, 0);
            assert_eq!(r.len(), rec.len());
            assert_eq!(r.call(0), rec.call(0));
        }
        assert!(TraceSpec::load(&path.to_string_lossy()).is_err());
        assert!(replay.label().starts_with("replay("));
        let src = WorkloadSource::Trace(synth);
        assert!(src.label().starts_with("synth("));
        assert_eq!(WorkloadSource::Spec(spec()).label(), spec().label());
    }
}
