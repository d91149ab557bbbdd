//! Experiment harness CLI: regenerate every table and figure of the paper.
//!
//! ```text
//! experiments <subcommand> [--quick] [--seeds N] [--out DIR] [--per-seed]
//!             [--source synth:RATE|trace:PATH]
//!
//! `--source` replaces the analytic workload of the experiments that
//! thread a `WorkloadSource` (table1, fig5, fig6) with an Azure-style
//! synthetic trace (`synth:RATE`, mean calls/sec over the 60 s window)
//! or a recorded JSONL trace (`trace:PATH`), so they run trace-backed.
//!
//! subcommands:
//!   table1   Idle-system function latencies (paper Table I)
//!   fig2     Cold starts vs memory sweep (paper Fig. 2)
//!   table2   FIFO/baseline completion-time ratios (paper Table II)
//!   table3   Aggregated single-node grid (paper Table III; --per-seed
//!            additionally prints Table IV)
//!   fig3     Response-time box plots (paper Fig. 3; appendix 7-21 via
//!            --per-seed)
//!   fig4     Stretch box plots (paper Fig. 4; appendix 22-36 via
//!            --per-seed)
//!   fig5     Fair-Choice fairness panels (paper Fig. 5)
//!   fig6     Multi-node experiments (paper Fig. 6, Tables V & VI;
//!            appendix 37-38)
//!   ablations  Hyper-parameter sweeps beyond the paper
//!   functions  Per-function fairness breakdown (SSII's view)
//!   sweep      Workload sweep: arrival process x function mix x container
//!              weights x strategy (uniform/Poisson/MMPP/diurnal x
//!              equal/fairness/Zipf x uniform/tiered/Zipf-correlated),
//!              with per-combination sim-health columns, plus a
//!              cluster-size sweep through the streamed multi-node engine,
//!              a fault-scenario robustness sweep (goodput, drop
//!              rate, retries, p99 under degradation), a coupled-engine
//!              robustness table (static vs feedback load balancing with
//!              cross-node failover under the strict crash preset) and a
//!              trace-replay table (Azure-style synthetic traces through
//!              the bounded-memory streamed trace engine)
//!   bench      GPS-kernel (uniform, weighted and multi-resource DRF),
//!              event-queue, workload-generation, dynamic-capacity,
//!              coupled-engine and trace-replay micro-benchmarks; writes
//!              BENCH_gps.json, BENCH_weighted_gps.json, BENCH_drf.json,
//!              BENCH_events.json, BENCH_workload.json, BENCH_faults.json,
//!              BENCH_coupled.json and BENCH_replay.json for the perf
//!              trajectory
//!   replay     Trace-replay benchmark alone at an explicit call count:
//!              replay [--calls N] [--out DIR]; writes BENCH_replay.json
//!   check-bench  Validate the BENCH_*.json artifacts under --out (schema
//!              plus absolute ratio floors, e.g. the coupled engine's
//!              windowed/independent speedup >= 0.25x) and,
//!              with --baseline HISTORY, gate each timing/throughput
//!              entry against the rolling median of the history
//!              (--gate-window K, --gate-timing-pct P,
//!              --gate-throughput-pct P); exits non-zero on schema drift
//!              or a named perf regression
//!   history-append  Fold the current artifacts under --out into the
//!              append-only BENCH_HISTORY.json, stamped with
//!              --commit/--message/--timestamp (GITHUB_SHA is the
//!              commit fallback)
//!   dashboard  Render BENCH_HISTORY.json as a self-contained static
//!              HTML page of SVG sparklines (--history IN, --out HTML)
//!   run        Custom single configuration with per-call CSV trace:
//!              run --cores C --intensity V --policy P [--seed S]
//!   all      Everything above
//! ```
//!
//! Results are also written as JSON under `--out` (default `results/`).

use faas_experiments::bench_history::{BenchHistory, CommitMeta, GateConfig, HISTORY_FILE};
use faas_experiments::{
    ablations, bench_coupled, bench_drf, bench_events, bench_faults, bench_gps, bench_history,
    bench_replay, bench_schema, bench_weighted_gps, bench_workload, custom, dashboard, fig2, fig5,
    fig6, functions, grid, sweep, table1, Effort,
};
use faas_simcore::time::SimDuration;
use faas_workload::synth::SynthSpec;
use faas_workload::trace_source::{TraceSpec, WorkloadSource};
use std::path::PathBuf;
use std::time::Instant;

struct Opts {
    effort: Effort,
    out: PathBuf,
    per_seed: bool,
    /// Replacement workload for the experiments that thread a
    /// [`WorkloadSource`] (table1, fig5, fig6): run trace-backed instead
    /// of on the paper's analytic scenario.
    source: Option<WorkloadSource>,
}

fn usage() -> ! {
    eprintln!(
        "usage: experiments <table1|fig2|table2|table3|fig3|fig4|fig5|fig6|ablations|functions|sweep|bench|check-bench|history-append|dashboard|replay|run|all> \
         [--quick] [--seeds N] [--out DIR] [--per-seed] \
         [--source synth:RATE|trace:PATH]\n\
         (--source runs table1/fig5/fig6 trace-backed: an Azure-style \
         synthetic trace at RATE calls/s, or a recorded JSONL trace)\n\
         (replay: [--calls N] [--out DIR])\n\
         (check-bench: [--out DIR] [--baseline HISTORY] [--gate-window K] \
         [--gate-timing-pct P] [--gate-throughput-pct P])\n\
         (history-append: [--out DIR] [--history PATH] [--commit ID] [--message MSG] \
         [--timestamp TS])\n\
         (dashboard: [--history PATH] [--out HTML])"
    );
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else { usage() };
    if cmd == "run" {
        run_custom(args.collect());
        return;
    }
    if cmd == "replay" {
        run_replay(args.collect());
        return;
    }
    if cmd == "check-bench" {
        run_check_bench(args.collect());
        return;
    }
    if cmd == "history-append" {
        run_history_append(args.collect());
        return;
    }
    if cmd == "dashboard" {
        run_dashboard(args.collect());
        return;
    }
    let mut opts = Opts {
        effort: Effort::full(),
        out: PathBuf::from("results"),
        per_seed: false,
        source: None,
    };
    let rest: Vec<String> = args.collect();
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--quick" => {
                opts.effort.quick = true;
                opts.effort.seeds = opts.effort.seeds.min(2);
            }
            "--per-seed" => opts.per_seed = true,
            "--seeds" => {
                i += 1;
                let n: usize = rest
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                opts.effort.seeds = n.clamp(1, 5);
            }
            "--out" => {
                i += 1;
                opts.out = PathBuf::from(rest.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--source" => {
                i += 1;
                opts.source = Some(parse_source(
                    &rest.get(i).cloned().unwrap_or_else(|| usage()),
                ));
            }
            _ => usage(),
        }
        i += 1;
    }

    let started = Instant::now();
    match cmd.as_str() {
        "table1" => run_table1(&opts),
        "fig2" => run_fig2(&opts),
        "table2" | "table3" | "fig3" | "fig4" => run_grid(&cmd, &opts),
        "fig5" => run_fig5(&opts),
        "fig6" => run_fig6(&opts),
        "ablations" => run_ablations(&opts),
        "functions" => run_functions(&opts),
        "sweep" => run_sweep(&opts),
        "bench" => run_bench(&opts),
        "all" => {
            run_table1(&opts);
            run_fig2(&opts);
            run_grid("all", &opts);
            run_fig5(&opts);
            run_fig6(&opts);
            run_ablations(&opts);
            run_functions(&opts);
            run_sweep(&opts);
            run_bench(&opts);
        }
        _ => usage(),
    }
    eprintln!("[done in {:.1}s]", started.elapsed().as_secs_f64());
}

/// Parse `--source synth:RATE` (an Azure-style synthetic trace at a
/// mean of RATE calls/sec over the paper's 60 s window) or
/// `--source trace:PATH` (a recorded JSONL trace).
fn parse_source(spec: &str) -> WorkloadSource {
    if let Some(rate) = spec.strip_prefix("synth:") {
        let rate: f64 = rate.parse().unwrap_or_else(|_| usage());
        WorkloadSource::Trace(TraceSpec::Synthetic(SynthSpec::azure(
            rate,
            SimDuration::from_secs(60),
        )))
    } else if let Some(path) = spec.strip_prefix("trace:") {
        WorkloadSource::Trace(TraceSpec::Recorded { path: path.into() })
    } else {
        usage()
    }
}

/// Unwrap a trace-backed experiment result (the only error is a recorded
/// trace file that could not be opened).
fn open_source<T>(result: std::io::Result<T>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("failed to open trace: {e}");
        std::process::exit(1);
    })
}

fn run_table1(opts: &Opts) {
    let result = match &opts.source {
        Some(source) => open_source(table1::run_source(source, faas_experiments::SEEDS[0])),
        None => table1::run(faas_experiments::SEEDS[0]),
    };
    println!("{}", table1::render(&result));
    save(opts, "table1.json", &result);
}

fn run_fig2(opts: &Opts) {
    let result = fig2::run(opts.effort);
    println!("{}", fig2::render(&result));
    save(opts, "fig2.json", &result);
}

fn run_grid(which: &str, opts: &Opts) {
    let result = grid::run(opts.effort);
    match which {
        "table2" => println!("{}", grid::render_table2(&result)),
        "table3" => {
            println!("{}", grid::render_table3(&result));
            if opts.per_seed {
                println!("{}", grid::render_table4(&result));
            }
        }
        "fig3" => println!("{}", grid::render_boxplots(&result, false)),
        "fig4" => println!("{}", grid::render_boxplots(&result, true)),
        _ => {
            println!("{}", grid::render_table3(&result));
            if opts.per_seed {
                println!("{}", grid::render_table4(&result));
            }
            println!("{}", grid::render_table2(&result));
            println!("{}", grid::render_boxplots(&result, false));
            println!("{}", grid::render_boxplots(&result, true));
        }
    }
    save(opts, "grid.json", &result);
}

fn run_bench(opts: &Opts) {
    let entries = bench_gps::run();
    println!("{}", bench_gps::render(&entries));
    save(opts, "BENCH_gps.json", &entries);
    let weighted = bench_weighted_gps::run();
    println!("{}", bench_weighted_gps::render(&weighted));
    save(opts, "BENCH_weighted_gps.json", &weighted);
    let drf = bench_drf::run();
    println!("{}", bench_drf::render(&drf));
    save(opts, "BENCH_drf.json", &drf);
    let events = bench_events::run();
    println!("{}", bench_events::render(&events));
    save(opts, "BENCH_events.json", &events);
    let workload = bench_workload::run();
    println!("{}", bench_workload::render(&workload));
    save(opts, "BENCH_workload.json", &workload);
    let faults = bench_faults::run();
    println!("{}", bench_faults::render(&faults));
    save(opts, "BENCH_faults.json", &faults);
    let coupled = bench_coupled::run();
    println!("{}", bench_coupled::render(&coupled));
    save(opts, "BENCH_coupled.json", &coupled);
    let replay = bench_replay::run();
    println!("{}", bench_replay::render(&replay));
    save(opts, "BENCH_replay.json", &replay);
}

/// Replay benchmark at an explicit call count: `experiments replay
/// [--calls N] [--out DIR]`. Writes the same `BENCH_replay.json` shape as
/// `experiments bench` (which runs the full 10^6/10^7 trajectory); the CI
/// smoke run uses a reduced count.
fn run_replay(args: Vec<String>) {
    let mut calls: u64 = 1_000_000;
    let mut out = PathBuf::from("results");
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--calls" => calls = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--out" => out = PathBuf::from(value(&mut i)),
            _ => usage(),
        }
        i += 1;
    }
    let entries = bench_replay::run_level(calls, 3);
    println!("{}", bench_replay::render(&entries));
    let path = out.join("BENCH_replay.json");
    if let Err(e) = faas_metrics::export::write_json(&path, &entries) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

fn run_sweep(opts: &Opts) {
    let result = sweep::run(opts.effort);
    println!("{}", sweep::render(&result));
    save(opts, "sweep.json", &result);
}

/// Validate the `BENCH_*.json` artifacts under `--out`: every file must
/// parse, record the host thread count and carry baseline/candidate
/// timings plus a speedup ratio that matches its own timing pair. With
/// `--baseline HISTORY`, additionally gate every timing and `calls/s`
/// entry against the rolling median of the history and exit non-zero
/// with a named, per-entry report on regression. A missing baseline file
/// (the first run of a fresh history chain) skips the gate instead of
/// failing.
fn run_check_bench(args: Vec<String>) {
    let mut out = PathBuf::from("results");
    let mut baseline: Option<PathBuf> = None;
    let mut cfg = GateConfig::default();
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--out" => out = PathBuf::from(value(&mut i)),
            "--baseline" => baseline = Some(PathBuf::from(value(&mut i))),
            "--gate-window" => {
                cfg.window = value(&mut i).parse().unwrap_or_else(|_| usage());
                if cfg.window == 0 {
                    usage();
                }
            }
            "--gate-timing-pct" => {
                cfg.timing_regress_pct = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--gate-throughput-pct" => {
                cfg.throughput_drop_pct = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            _ => usage(),
        }
        i += 1;
    }
    match bench_schema::validate_dir(&out) {
        Ok(seen) => println!("bench artifacts ok: {}", seen.join(", ")),
        Err(e) => {
            eprintln!("bench artifact schema check failed: {e}");
            std::process::exit(1);
        }
    }
    let Some(baseline) = baseline else { return };
    if !baseline.exists() {
        println!(
            "no baseline history at {} (first run): regression gate skipped",
            baseline.display()
        );
        return;
    }
    let history = match BenchHistory::load_or_empty(&baseline) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("could not load baseline history: {e}");
            std::process::exit(1);
        }
    };
    match bench_history::gate_dir(&cfg, &history, &out) {
        Ok((violations, compared)) if violations.is_empty() => println!(
            "perf regression gate ok: {compared} entr{} within {}%/{}% of the \
             rolling median over up to {} point(s)",
            if compared == 1 { "y" } else { "ies" },
            cfg.timing_regress_pct,
            cfg.throughput_drop_pct,
            cfg.window
        ),
        Ok((violations, _)) => {
            eprint!("{}", bench_history::render_violations(&violations));
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("perf regression gate failed to run: {e}");
            std::process::exit(1);
        }
    }
}

/// Fold the current artifacts under `--out` into the append-only
/// `BENCH_HISTORY.json`. Commit identity comes from `--commit`,
/// `--message` and `--timestamp` (CI passes `git log -1` values); the
/// commit id falls back to `GITHUB_SHA`, and the timestamp to the wall
/// clock — ambient state stays here in the binary, never in the library,
/// so append/gate/render remain deterministic under test.
fn run_history_append(args: Vec<String>) {
    let mut out = PathBuf::from("results");
    let mut history_path: Option<PathBuf> = None;
    let mut commit: Option<String> = None;
    let mut message: Option<String> = None;
    let mut timestamp: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--out" => out = PathBuf::from(value(&mut i)),
            "--history" => history_path = Some(PathBuf::from(value(&mut i))),
            "--commit" => commit = Some(value(&mut i)),
            "--message" => message = Some(value(&mut i)),
            "--timestamp" => timestamp = Some(value(&mut i)),
            _ => usage(),
        }
        i += 1;
    }
    let history_path = history_path.unwrap_or_else(|| out.join(HISTORY_FILE));
    let meta = CommitMeta {
        id: commit
            .or_else(|| std::env::var("GITHUB_SHA").ok())
            .unwrap_or_else(|| "unknown".into()),
        message: message.unwrap_or_default(),
        timestamp: timestamp.unwrap_or_else(|| {
            let secs = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0);
            format!("unix:{secs}")
        }),
    };
    let result = BenchHistory::load_or_empty(&history_path).and_then(|mut history| {
        let keys = history.append(&out, &meta)?;
        history.save(&history_path)?;
        Ok((keys, history.depth()))
    });
    match result {
        Ok((keys, depth)) => println!(
            "history {} now {depth} point(s) deep at commit {} ({} suite(s): {})",
            history_path.display(),
            meta.id,
            keys.len(),
            keys.join(", ")
        ),
        Err(e) => {
            eprintln!("history append failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Render `BENCH_HISTORY.json` as the self-contained static dashboard.
fn run_dashboard(args: Vec<String>) {
    let mut history_path = PathBuf::from("results").join(HISTORY_FILE);
    let mut out = PathBuf::from("results/dashboard.html");
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--history" => history_path = PathBuf::from(value(&mut i)),
            "--out" => out = PathBuf::from(value(&mut i)),
            _ => usage(),
        }
        i += 1;
    }
    let history = match BenchHistory::load_or_empty(&history_path) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("could not load history: {e}");
            std::process::exit(1);
        }
    };
    let html = dashboard::render(&history);
    match faas_metrics::export::write_text(&out, &html) {
        Ok(()) => println!(
            "dashboard written to {} ({} suite(s), {} point(s))",
            out.display(),
            history.series.len(),
            history.depth()
        ),
        Err(e) => {
            eprintln!("could not write {}: {e}", out.display());
            std::process::exit(1);
        }
    }
}

fn run_fig5(opts: &Opts) {
    let result = match &opts.source {
        Some(source) => open_source(fig5::run_source(source, opts.effort)),
        None => fig5::run(opts.effort),
    };
    println!("{}", fig5::render(&result));
    save(opts, "fig5.json", &result);
}

fn run_fig6(opts: &Opts) {
    let result = match &opts.source {
        Some(source) => open_source(fig6::run_source(source, 10, opts.effort)),
        None => fig6::run(opts.effort),
    };
    println!("{}", fig6::render(&result));
    save(opts, "fig6.json", &result);
}

fn run_custom(args: Vec<String>) {
    let mut spec = custom::CustomRun {
        cores: 10,
        intensity: 60,
        policy: Some(faas_core::Policy::FairChoice),
        seed: faas_experiments::SEEDS[0],
    };
    let mut out = PathBuf::from("results");
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--cores" => spec.cores = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--intensity" => spec.intensity = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seed" => spec.seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--out" => out = PathBuf::from(value(&mut i)),
            "--policy" => {
                let name = value(&mut i);
                spec.policy = if name.eq_ignore_ascii_case("baseline") {
                    None
                } else {
                    Some(faas_core::Policy::from_name(&name).unwrap_or_else(|| usage()))
                };
            }
            _ => usage(),
        }
        i += 1;
    }
    let catalogue = faas_workload::sebs::Catalogue::sebs();
    let (scenario, result) = spec.execute(&catalogue);
    println!("{}", custom::render(&catalogue, &spec, &scenario, &result));
    let csv = custom::trace_csv(&catalogue, &scenario, &result);
    let path = out.join(format!("trace-{}.csv", spec.label().replace('/', "-")));
    match csv.write_to(&path) {
        Ok(()) => println!("trace written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write trace: {e}"),
    }
}

fn run_functions(opts: &Opts) {
    let result = functions::run(opts.effort);
    println!("{}", functions::render(&result));
    save(opts, "functions.json", &result);
}

fn run_ablations(opts: &Opts) {
    let result = ablations::run(opts.effort);
    println!("{}", ablations::render(&result));
    save(opts, "ablations.json", &result);
}

fn save<T: serde::Serialize>(opts: &Opts, name: &str, value: &T) {
    let path = opts.out.join(name);
    if let Err(e) = faas_metrics::export::write_json(&path, value) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}
