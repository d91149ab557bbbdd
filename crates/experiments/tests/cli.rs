//! The `experiments` binary's argument contract: input the simulator
//! cannot run is rejected while parsing (usage, exit 2) instead of
//! panicking inside a library (exit 101).

use faas_experiments::fig6::Fig6Result;
use faas_simcore::time::{SimDuration, SimTime};
use faas_workload::arrival::ArrivalSpec;
use faas_workload::generate::WorkloadSpec;
use faas_workload::mix::MixSpec;
use faas_workload::sebs::Catalogue;
use faas_workload::trace_source::RecordedTrace;
use faas_workload::weight::WeightSpec;
use std::path::PathBuf;
use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments binary runs")
}

/// A fresh scratch directory for one test's `--out`.
fn out_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("faas_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_usage(args: &[&str]) {
    let out = experiments(args);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit with usage");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("usage:"), "{args:?} printed {stderr:?}");
}

#[test]
fn out_of_range_arguments_exit_with_usage() {
    assert_usage(&["run", "--cores", "0"]);
    assert_usage(&["run", "--intensity", "0"]);
    // c·v/10 = 0 measured calls per function: nothing to summarise.
    assert_usage(&["run", "--cores", "1", "--intensity", "9"]);
    assert_usage(&["table1", "--source", "synth:-1"]);
    assert_usage(&["table1", "--source", "synth:nan"]);
    // An expected call count that is infinite, or beyond what a trace
    // index can address, is rejected before any trace is built.
    assert_usage(&["table1", "--source", "synth:1e308"]);
    assert_usage(&["fig5", "--source", "synth:1e308"]);
    assert_usage(&["table1", "--source", "synth:1e30"]);
    // The paper has five seeds: 0 and 6+ are rejected, not clamped.
    for n in ["0", "6", "9", "-1", "x"] {
        assert_usage(&["fig6", "--seeds", n]);
        assert_usage(&["fig6", "--quick", "--seeds", n]);
    }
    assert_usage(&["fig6", "--seeds"]);
}

#[test]
fn quick_lowers_only_the_default_seed_count() {
    // `--seeds 3` wins over `--quick` in either order; `--quick` alone
    // runs two seeds.
    for (name, args) in [
        ("quick_first", &["--quick", "--seeds", "3"][..]),
        ("seeds_first", &["--seeds", "3", "--quick"][..]),
        ("quick_only", &["--quick"][..]),
    ] {
        let dir = out_dir(name);
        let mut argv = vec!["fig6"];
        argv.extend_from_slice(args);
        argv.extend(["--out", dir.to_str().unwrap()]);
        let out = experiments(&argv);
        assert_eq!(out.status.code(), Some(0), "{argv:?}");
        let json = std::fs::read_to_string(dir.join("fig6.json")).unwrap();
        let result: Fig6Result = serde_json::from_str(&json).unwrap();
        let want = if name == "quick_only" { 2 } else { 3 };
        assert!(!result.rows.is_empty());
        for row in &result.rows {
            assert_eq!(row.per_seed_avg.len(), want, "{argv:?}");
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn unknown_and_removed_subcommands_exit_with_usage() {
    assert_usage(&[]);
    assert_usage(&["bench"]);
    assert_usage(&["check-bench"]);
}

#[test]
fn source_is_a_usage_error_where_no_artefact_reads_it() {
    for cmd in ["fig2", "table3", "ablations", "functions", "sweep", "all"] {
        let out = experiments(&[cmd, "--quick", "--source", "synth:4"]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{cmd} --source must exit with usage"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        let named = format!("experiments {cmd}: --source");
        assert!(stderr.starts_with(&named), "{cmd} printed {stderr:?}");
        assert!(stderr.contains("usage:"), "{cmd} printed {stderr:?}");
    }
    let dir = out_dir("table1_source");
    let out = experiments(&[
        "table1",
        "--quick",
        "--source",
        "synth:4",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "table1 --source runs: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("table1.json").exists());
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn empty_trace_source_fails_without_panicking() {
    let dir = out_dir("empty_source");
    let out = experiments(&[
        "fig6",
        "--quick",
        "--source",
        "synth:0",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("no measured calls"));
    let _ = std::fs::remove_dir_all(dir);
}

/// FNV-1a over a file's bytes.
fn file_digest(path: &std::path::Path) -> u64 {
    let bytes = std::fs::read(path).expect("the artefact was written");
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |acc, &b| {
        (acc ^ b as u64).wrapping_mul(0x0100_0000_01B3)
    })
}

#[test]
fn recorded_trace_source_runs_fig5() {
    // 330 calls of the fairness mix (ten of them dna-visualisation),
    // recorded and saved as a JSONL trace, then replayed by the CLI.
    let dir = out_dir("trace_source");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = WorkloadSpec {
        arrival: ArrivalSpec::Uniform { count: 330 },
        mix: MixSpec::Fairness {
            rare_function: "dna-visualisation".into(),
            rare_calls: 10,
        },
        weights: WeightSpec::Uniform,
        window: SimDuration::from_secs(60),
    };
    let trace = dir.join("fairness.jsonl");
    RecordedTrace::record(&spec, &Catalogue::sebs(), SimTime::ZERO, 7)
        .save(&trace)
        .unwrap();
    let source = format!("trace:{}", trace.display());
    let out = experiments(&[
        "fig5",
        "--quick",
        "--source",
        &source,
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The panels are pinned: how a recorded trace is loaded and shared
    // must not change what replaying it yields.
    let got = file_digest(&dir.join("fig5.json"));
    assert_eq!(got, 0x0ede_c89c_8d77_b81c, "fig5.json digest {got:#018x}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn missing_or_malformed_trace_files_exit_1() {
    let dir = out_dir("bad_trace");
    std::fs::create_dir_all(&dir).unwrap();
    let malformed = dir.join("malformed.jsonl");
    std::fs::write(&malformed, "not a trace\n").unwrap();
    for path in [dir.join("missing.jsonl"), malformed] {
        let source = format!("trace:{}", path.display());
        for cmd in ["table1", "fig5", "fig6"] {
            let out = experiments(&[cmd, "--quick", "--source", &source]);
            assert_eq!(out.status.code(), Some(1), "{cmd} {source}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.starts_with("trace-backed run failed: "),
                "{cmd} {source} printed {stderr:?}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn small_custom_run_writes_its_trace() {
    let dir = out_dir("run");
    let out = experiments(&[
        "run",
        "--cores",
        "2",
        "--intensity",
        "5",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let traces = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(traces, 1, "one per-call trace CSV under --out");
    let _ = std::fs::remove_dir_all(dir);
}
