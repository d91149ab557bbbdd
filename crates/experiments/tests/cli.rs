//! The `experiments` binary's argument contract: input the simulator
//! cannot run is rejected while parsing (usage, exit 2) instead of
//! panicking inside a library (exit 101).

use faas_experiments::fig6::Fig6Result;
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
