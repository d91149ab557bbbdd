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
//! Any other subcommand, `all` included, rejects it as a usage error.
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
//!   run        Custom single configuration with per-call CSV trace:
//!              run --cores C --intensity V --policy P [--seed S]
//!   all      Everything above except `run`
//! ```
//!
//! `--seeds N` runs the first N of the paper's five seeds (1 <= N <= 5);
//! `--quick` lowers only the default seed count (5 to 2), never an
//! explicit `--seeds`, in whichever order the two are given.
//!
//! Results are also written as JSON under `--out` (default `results/`).
//! Bad arguments, including out-of-range values such as `--cores 0` or
//! `--seeds 9`, print the usage line and exit with status 2. Performance
//! is measured by the repository benchmark (`perfbench/`), not by this
//! CLI.

use faas_experiments::{
    ablations, custom, fig2, fig5, fig6, functions, grid, sweep, table1, Effort, SEEDS,
};
use faas_simcore::time::SimDuration;
use faas_workload::scenario::BurstScenario;
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
        "usage: experiments <table1|fig2|table2|table3|fig3|fig4|fig5|fig6|ablations|functions|sweep|run|all> \
         [--quick] [--seeds N] [--out DIR] [--per-seed] \
         [--source synth:RATE|trace:PATH]\n\
         (--source runs table1/fig5/fig6 trace-backed: an Azure-style \
         synthetic trace at RATE calls/s, or a recorded JSONL trace)\n\
         (run: [--cores C] [--intensity V] [--policy P|baseline] [--seed S] [--out DIR], \
         with C*V >= 10 so the burst has calls)"
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
    let mut opts = Opts {
        effort: Effort::full(),
        out: PathBuf::from("results"),
        per_seed: false,
        source: None,
    };
    let rest: Vec<String> = args.collect();
    let (mut seeds, mut source) = (None, None);
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--quick" => opts.effort = Effort::quick(),
            "--per-seed" => opts.per_seed = true,
            "--seeds" => {
                i += 1;
                seeds = Some(
                    rest.get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|n| (1..=SEEDS.len()).contains(n))
                        .unwrap_or_else(|| usage()),
                );
            }
            "--out" => {
                i += 1;
                opts.out = PathBuf::from(rest.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--source" => {
                i += 1;
                source = Some(rest.get(i).cloned().unwrap_or_else(|| usage()));
            }
            _ => usage(),
        }
        i += 1;
    }
    if let Some(n) = seeds {
        opts.effort.seeds = n;
    }
    if source.is_some() && !matches!(cmd.as_str(), "table1" | "fig5" | "fig6") {
        eprintln!("experiments {cmd}: --source applies only to table1, fig5 and fig6");
        usage();
    }
    opts.source = source.map(|spec| parse_source(&spec));

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
        "all" => {
            run_table1(&opts);
            run_fig2(&opts);
            run_grid("all", &opts);
            run_fig5(&opts);
            run_fig6(&opts);
            run_ablations(&opts);
            run_functions(&opts);
            run_sweep(&opts);
        }
        _ => usage(),
    }
    eprintln!("[done in {:.1}s]", started.elapsed().as_secs_f64());
}

/// Parse `--source synth:RATE` (an Azure-style synthetic trace at a
/// mean of RATE calls/sec over the paper's 60 s window) or
/// `--source trace:PATH` (a recorded JSONL trace, loaded here once for
/// every run to share). A rate is usage unless its expected call count
/// over the window is a finite number that a trace index (`u64`) can
/// address; a trace file that cannot be loaded exits 1.
fn parse_source(spec: &str) -> WorkloadSource {
    if let Some(rate) = spec.strip_prefix("synth:") {
        let window = SimDuration::from_secs(60);
        let rate = rate
            .parse::<f64>()
            .ok()
            .filter(|&r| r >= 0.0 && r * window.as_secs_f64() < u64::MAX as f64)
            .unwrap_or_else(|| usage());
        WorkloadSource::Trace(TraceSpec::Synthetic(SynthSpec::azure(rate, window)))
    } else if let Some(path) = spec.strip_prefix("trace:") {
        WorkloadSource::Trace(open_source(TraceSpec::load(path)))
    } else {
        usage()
    }
}

/// Unwrap a trace-backed result: a recorded trace file that could not be
/// loaded, or a source with no measured call, exits 1.
fn open_source<T>(result: std::io::Result<T>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("trace-backed run failed: {e}");
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

fn run_sweep(opts: &Opts) {
    let result = sweep::run(opts.effort);
    println!("{}", sweep::render(&result));
    save(opts, "sweep.json", &result);
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
    // `c·v/10` measured calls per function: zero cores, or a burst too
    // small to hold a call, has nothing to run or summarise.
    if BurstScenario::standard(spec.cores, spec.intensity).per_function_requests() == 0 {
        usage();
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
