//! Repository benchmark of the FaaS scheduling simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-grid|azure-replay|cluster-faults|all \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Builds the workload's inputs from the seed (set-up, timed on its own),
//! then runs passes over them for `--seconds`; `all` runs the three
//! workloads one after the other in this process. Every pass is checked:
//! call conservation, non-negative response times, and an outcome digest
//! that must repeat across passes and between thread counts. The last
//! line a workload prints is one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics of a traced run (`--trace 1`).
//! See `README.md` next to this crate for what each metric means.

mod check;
mod host;
mod layers;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};
use trace::{Scope, Span, Tracer};
use workloads::{Name, Pass, Workload};

/// The paper-grid seed 101 reproduces the paper's seed set.
const DEFAULT_SEED: u64 = 101;
const DEFAULT_SECONDS: f64 = 20.0;
const MIN_PASSES: usize = 3;
/// A cluster workload whose last call completes longer than this after
/// the last release has a backlog that did not drain: it is mis-sized.
const DRAIN_LIMIT_S: f64 = 300.0;
/// The traced run's spans must cover all but this share of a pass's wall
/// time: the rest is the benchmark's own code between layer calls.
const UNATTRIBUTED_LIMIT: f64 = 0.05;

const USAGE: &str = "usage: perfbench --workload paper-grid|azure-replay|cluster-faults|all \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workloads: Vec<Name>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workloads = Vec::new();
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Name::ALL.to_vec(),
            "--workload" => {
                workloads = vec![Name::parse(&value).ok_or(format!("unknown workload {value}"))?]
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    if workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(Args {
        workloads,
        seed,
        seconds,
        trace,
    })
}

/// The result line.
struct Report {
    problems: Vec<String>,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let threads = host::pin_threads();
    for &name in &args.workloads {
        println!(
            "perfbench {} seed={} seconds={} trace={} threads={threads}",
            name.as_str(),
            args.seed,
            args.seconds,
            args.trace as u8
        );
        let mut report = if args.trace {
            traced(name, &args, threads)
        } else {
            untraced(name, &args, threads)
        };
        if let Some((metric, _, _)) = report.metrics.iter().find(|m| !m.1.is_finite()) {
            report
                .problems
                .push(format!("{metric} is not a finite number"));
            report.metrics.retain(|m| m.1.is_finite());
        }
        for p in &report.problems {
            println!("check failed: {p}");
        }
        println!("{}", report.json());
    }
}

/// What the first pass establishes: the reference digest and the
/// deterministic results later passes must repeat.
struct Reference {
    pass: Pass,
    digest: u64,
    problems: Vec<String>,
}

fn reference(work: &dyn Workload) -> Reference {
    let pass = workloads::pass(work, Scope::OFF);
    let verdict = check::verify(work, &pass.runs);
    let mut problems = verdict.problems;
    let drain = check::drain_secs(&pass.runs);
    let counts = check::counts(&pass.runs);
    println!(
        "reference: {} calls, {} dropped, digest {:016x}, drain {drain:.1} s, peak queue {}",
        verdict.calls, verdict.dropped, verdict.digest, counts.peak_queue
    );
    if work.cluster().is_some() && drain > DRAIN_LIMIT_S {
        problems.push(format!(
            "mis-sized: the backlog did not drain ({drain:.0} s after the last release, \
             limit {DRAIN_LIMIT_S} s; peak queue {})",
            counts.peak_queue
        ));
    }
    Reference {
        digest: verdict.digest,
        pass,
        problems,
    }
}

/// Check a later pass against the reference; returns the calls it
/// simulated and the calls that count as failed.
fn check_pass(
    out: std::thread::Result<Pass>,
    r: &Reference,
    work: &dyn Workload,
    problems: &mut Vec<String>,
) -> (usize, usize) {
    let Ok(pass) = out else {
        problems.push("a pass panicked".into());
        return (work.injected(), work.injected());
    };
    let v = check::verify(work, &pass.runs);
    let mut bad = v.problems;
    if v.digest != r.digest {
        bad.push(format!(
            "digest {:016x} differs from the reference {:016x}",
            v.digest, r.digest
        ));
    }
    if pass.sim != r.pass.sim {
        bad.push("the modelled results differ from the reference".into());
    }
    if bad.is_empty() {
        return (v.calls, v.dropped);
    }
    problems.extend(bad);
    (v.calls, v.calls)
}

/// The end-to-end run: set-up, untimed reference pass, timed passes, and a
/// pass at a different thread count. The set-up is repeated, untimed by
/// the passes, before every timed pass, so `setup_s` (the median) sees the
/// same host conditions as the passes.
fn untraced(name: Name, args: &Args, threads: usize) -> Report {
    let setup = || workloads::setup(name, args.seed, Scope::OFF);
    let (first_setup, work) = host::timed(setup);
    let mut setups = vec![first_setup];
    let work = &*work;
    let r = reference(work);
    let mut problems = r.problems.clone();
    let (mut attempted, mut failed) = (0, 0);
    let (mut rates, mut rss) = (Vec::new(), Vec::new());
    let rss_per_pass = host::reset_peak_rss();
    let start = Instant::now();
    let mut passes = 0;
    while passes < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        setups.push(host::timed(setup).0);
        host::reset_peak_rss();
        let (wall, out) =
            host::timed(|| catch_unwind(AssertUnwindSafe(|| workloads::pass(work, Scope::OFF))));
        rss.extend(host::peak_rss_mb());
        let (calls, bad) = check_pass(out, &r, work, &mut problems);
        attempted += calls;
        failed += bad;
        if bad == 0 {
            rates.push(calls as f64 / wall);
        }
        passes += 1;
    }
    let other = if threads == 1 { 2 } else { 1 };
    let alt = host::with_threads(other, || workloads::pass(work, Scope::OFF));
    let alt_digest = check::verify(work, &alt.runs).digest;
    if alt_digest != r.digest {
        problems.push(format!(
            "{other}-thread digest {alt_digest:016x} differs from {threads}-thread {:016x}",
            r.digest
        ));
    }
    println!(
        "{passes} timed passes; {other}-thread digest {}; peak RSS {}",
        if alt_digest == r.digest {
            "matches"
        } else {
            "DIFFERS"
        },
        if rss_per_pass {
            "reset before each pass"
        } else {
            "of the whole process"
        }
    );
    if rates.is_empty() {
        problems.push("no pass passed its check".into());
        rates.push(0.0);
    }
    let sim = r.pass.sim;
    Report {
        problems,
        attempted,
        failed,
        metrics: vec![
            ("calls_per_s", host::median(&rates), "1/s"),
            (
                "peak_rss_mb",
                if rss.is_empty() {
                    0.0
                } else {
                    host::median(&rss)
                },
                "MiB",
            ),
            ("setup_s", host::median(&setups), "s"),
            ("sim_mean_response_s", sim.mean_response_s, "sim_s"),
            ("sim_p99_response_s", sim.p99_response_s, "sim_s"),
            ("sim_mean_stretch", sim.mean_stretch, "ratio"),
        ],
    }
}

/// Per-pass figures of one traced pass.
struct TracedPass {
    wall: f64,
    self_secs: BTreeMap<&'static str, f64>,
    engine: f64,
    summarize: f64,
    baseline: f64,
    scheduled: f64,
}

/// The traced run: set-up and passes wrapped in spans, untraced passes for
/// the tracing overhead, then the standalone layer probes.
fn traced(name: Name, args: &Args, threads: usize) -> Report {
    let tracer = Tracer::new();
    let work = tracer.root("bench.setup", |s| workloads::setup(name, args.seed, s));
    let setup_spans = tracer.finish();
    let work = &*work;
    let gen_s: f64 = setup_spans
        .iter()
        .filter(|s| s.layer() == "workload")
        .map(Span::secs)
        .sum();
    let r = reference(work);
    let mut problems = r.problems.clone();
    let counts = check::counts(&r.pass.runs);
    let (mut attempted, mut failed) = (0, 0);
    // Untraced and traced passes alternate, so drift in the host's speed
    // does not show up as tracing overhead.
    let mut plain = Vec::new();
    let mut passes: Vec<TracedPass> = Vec::new();
    let mut last_spans = Vec::new();
    let start = Instant::now();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds * 2.0 / 3.0 {
        let (wall, out) =
            host::timed(|| catch_unwind(AssertUnwindSafe(|| workloads::pass(work, Scope::OFF))));
        let (calls, bad) = check_pass(out, &r, work, &mut problems);
        attempted += calls;
        failed += bad;
        plain.push(wall);

        let tracer = Tracer::new();
        let out = catch_unwind(AssertUnwindSafe(|| {
            tracer.root("bench.pass", |s| workloads::pass(work, s))
        }));
        let spans = tracer.finish();
        let (calls, bad) = check_pass(out, &r, work, &mut problems);
        attempted += calls;
        failed += bad;
        passes.push(TracedPass {
            wall: spans[0].secs(),
            self_secs: trace::self_secs(&spans),
            engine: trace::total_secs(&spans, "cluster.engine"),
            summarize: trace::total_secs(&spans, "metrics.summarize"),
            baseline: trace::total_secs(&spans, "invoker.baseline"),
            scheduled: trace::total_secs(&spans, "invoker.scheduled"),
        });
        last_spans = spans;
    }
    let med =
        |f: &dyn Fn(&TracedPass) -> f64| host::median(&passes.iter().map(f).collect::<Vec<_>>());
    let wall = med(&|p| p.wall);
    let self_of = |layer: &'static str| med(&|p| p.self_secs.get(layer).copied().unwrap_or(0.0));
    let engine_s = med(&|p| p.engine);
    let unattributed = self_of("bench") / wall;
    if unattributed > UNATTRIBUTED_LIMIT {
        problems.push(format!(
            "layer spans leave {unattributed:.3} of the pass unattributed (limit {UNATTRIBUTED_LIMIT})"
        ));
    }

    // Node time: timed spans on paper-grid, standalone replays of each
    // node's calls on the cluster workloads.
    let budget = Duration::from_secs_f64((args.seconds / 12.0).max(0.2));
    let catalogue = work.catalogue();
    let (node_s, baseline_s, scheduled_s, node_calls, overhead_s) = match work.cluster() {
        None => {
            let (b, s) = (med(&|p| p.baseline), med(&|p| p.scheduled));
            (b + s, b, s, work.injected() as f64, 0.0)
        }
        Some(shape) => {
            let replay = layers::replay_nodes(catalogue, &shape, &r.pass.runs);
            let overhead = engine_s - replay.per_thread_s(threads);
            (
                replay.own_s(),
                replay.baseline_s,
                replay.scheduled_s,
                replay.calls as f64,
                overhead,
            )
        }
    };
    // DRF churn where the nodes model memory bandwidth, uniform elsewhere.
    let drf = work.cluster().is_some_and(|c| c.node.mem_bandwidth > 0.0);
    let gps = layers::gps_events_per_s(drf, counts.peak_concurrency as usize, budget);
    let sched =
        layers::sched_ops_per_s(catalogue, &r.pass.runs, counts.peak_queue as usize, budget);
    let queue = layers::queue_ops_per_s(counts.peak_events as usize, budget);
    let ingest = host::rate(budget, 3, || work.ingest());

    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-{}.json", name.as_str(), args.seed));
    match trace::write_json(
        &path,
        name.as_str(),
        args.seed,
        &[("setup", &setup_spans), ("pass", &last_spans)],
    ) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => problems.push(format!("writing {}: {e}", path.display())),
    }
    println!(
        "traced pass {wall:.4} s vs untraced {:.4} s; cluster overhead {overhead_s:.4} s of engine {engine_s:.4} s",
        host::median(&plain)
    );

    let c = counts;
    Report {
        problems,
        attempted,
        failed,
        metrics: vec![
            ("host.threads", threads as f64, "count"),
            ("bench.pass_wall_s", wall, "s"),
            ("trace.overhead_s", wall - host::median(&plain), "s"),
            ("trace.unattributed_share", unattributed, "ratio"),
            ("self.bench_s", self_of("bench"), "s"),
            ("self.cluster_s", self_of("cluster"), "s"),
            ("self.invoker_s", self_of("invoker"), "s"),
            ("self.metrics_s", self_of("metrics"), "s"),
            ("cluster.engine_s", engine_s, "s"),
            ("cluster.overhead_s", overhead_s, "s"),
            ("cluster.overhead_share", overhead_s / wall, "ratio"),
            (
                "cluster.peak_resident_calls",
                c.peak_resident_calls as f64,
                "count",
            ),
            ("invoker.node_s", node_s, "s"),
            ("invoker.baseline_s", baseline_s, "s"),
            ("invoker.scheduled_s", scheduled_s, "s"),
            ("invoker.node_calls_per_s", node_calls / node_s, "1/s"),
            ("invoker.outcomes_len", c.outcomes_len as f64, "count"),
            ("invoker.cold_starts", c.cold_starts as f64, "count"),
            ("invoker.warm_hits", c.warm_hits as f64, "count"),
            ("invoker.evictions", c.evictions as f64, "count"),
            ("invoker.peak_queue", c.peak_queue as f64, "count"),
            ("invoker.peak_events", c.peak_events as f64, "count"),
            (
                "invoker.peak_concurrency",
                c.peak_concurrency as f64,
                "count",
            ),
            ("invoker.retries", c.retries as f64, "count"),
            ("invoker.timeouts", c.timeouts as f64, "count"),
            ("invoker.failovers", c.failovers as f64, "count"),
            ("invoker.dropped", c.dropped as f64, "count"),
            ("cpu.gps_events_per_s", gps, "1/s"),
            ("core.sched_ops_per_s", sched, "1/s"),
            ("simcore.queue_ops_per_s", queue, "1/s"),
            ("workload.gen_s", gen_s, "s"),
            ("workload.ingest_calls_per_s", ingest, "1/s"),
            ("metrics.summarize_s", med(&|p| p.summarize), "s"),
            ("guard.drain_s", check::drain_secs(&r.pass.runs), "sim_s"),
        ],
    }
}
