//! Schema validation for the `BENCH_*.json` perf-trajectory artifacts.
//!
//! The continuous-benchmark files are consumed by dashboards keyed on
//! entry names and units, and PR 4 showed that a new file shape can drift
//! silently: nothing asserted that an artifact still parses, still records
//! the host thread count, or still carries the baseline/candidate timing
//! pairs the speedups are computed from. `experiments check-bench` (run by
//! CI right after `experiments bench`) fails loudly instead:
//!
//! * every `BENCH_*.json` in the output directory parses as a
//!   [`BenchEntry`] list with finite values — strictly positive for
//!   timing (`TIMING_UNITS`), ratio (`x`) and throughput (`calls/s`)
//!   entries, `>= 0` for count-style units (a zero `*_peak_resident` or
//!   drop counter is a legitimate measurement, not schema drift);
//! * every file records the host parallelism (an entry whose name
//!   contains `threads`, value an integer ≥ 1) so trajectory points stay
//!   attributable to their machine shape;
//! * every file carries at least one baseline/candidate timing pair (two
//!   or more entries in a wall-clock unit) plus the derived `*_speedup`
//!   ratio in unit `x`, and every `*_speedup` value is cross-validated
//!   against the ratio of its own baseline/candidate timing pair — a
//!   stale or miscomputed speedup fails loudly instead of merely
//!   existing;
//! * the eight canonical artifacts (`BENCH_gps.json`,
//!   `BENCH_weighted_gps.json`, `BENCH_drf.json`, `BENCH_events.json`,
//!   `BENCH_workload.json`, `BENCH_faults.json`, `BENCH_coupled.json`,
//!   `BENCH_replay.json`) are all present;
//! * the replay artifact additionally carries at least one throughput
//!   entry in unit `calls/s` — the trajectory number the 10^6/10^7/10^8
//!   scaling claim is plotted from;
//! * ratio (`x`) entries are exempt from the history gate, so the ratios
//!   that guard a known cost carry absolute floors instead: the coupled
//!   engine's windowed/independent `coupled_*_speedup` must reach
//!   [`COUPLED_SPEEDUP_FLOOR`].

use crate::bench_gps::BenchEntry;
use std::path::Path;

/// The artifacts `experiments bench` must produce.
pub const EXPECTED_ARTIFACTS: [&str; 8] = [
    "BENCH_gps.json",
    "BENCH_weighted_gps.json",
    "BENCH_drf.json",
    "BENCH_events.json",
    "BENCH_workload.json",
    "BENCH_faults.json",
    "BENCH_coupled.json",
    "BENCH_replay.json",
];

/// Wall-clock units a baseline/candidate timing may use.
pub const TIMING_UNITS: [&str; 4] = ["ns/iter", "ns/op", "ms/run", "ms"];

/// Relative tolerance when cross-validating a `*_speedup` value against
/// the ratio of its baseline/candidate timing pair. The ratio is computed
/// from the very floats stored next to it (values round-trip exactly
/// through JSON), so anything beyond rounding slack means the speedup is
/// stale or miscomputed.
const SPEEDUP_RATIO_TOL: f64 = 1e-3;

/// Floor of `BENCH_coupled.json`'s `coupled_*_speedup` (independent over
/// windowed wall time). Below it the per-window handshake, not the nodes,
/// dominates a coupled run: spawning threads every window held the ratio
/// at 0.016x on two threads; workers spawned once per run lift it to
/// ~0.5x.
pub const COUPLED_SPEEDUP_FLOOR: f64 = 0.25;

/// Units whose entries must be strictly positive: a zero timing, speedup
/// or throughput is always a measurement bug. Count-style units (`count`,
/// `calls`, …) legitimately report 0 (an empty working set, no drops).
fn requires_strict_positive(unit: &str) -> bool {
    TIMING_UNITS.contains(&unit) || unit == "x" || unit == "calls/s"
}

/// Validate one artifact's entry list. `name` is used in error messages.
pub fn validate_entries(name: &str, entries: &[BenchEntry]) -> Result<(), String> {
    if entries.is_empty() {
        return Err(format!("{name}: empty entry list"));
    }
    for e in entries {
        if e.name.is_empty() || e.unit.is_empty() {
            return Err(format!("{name}: entry with empty name or unit"));
        }
        if !e.value.is_finite() || e.value < 0.0 {
            return Err(format!(
                "{name}: entry `{}` has non-finite or negative value {}",
                e.name, e.value
            ));
        }
        if e.value == 0.0 && requires_strict_positive(&e.unit) {
            return Err(format!(
                "{name}: entry `{}` is zero in unit `{}` (timings, speedups and \
                 throughputs must be strictly positive)",
                e.name, e.unit
            ));
        }
    }
    let threads = entries
        .iter()
        .find(|e| e.name.contains("threads"))
        .ok_or_else(|| format!("{name}: no thread-count entry (host shape unrecorded)"))?;
    if threads.value < 1.0 || threads.value.fract() != 0.0 {
        return Err(format!(
            "{name}: thread-count entry `{}` is not a positive integer ({})",
            threads.name, threads.value
        ));
    }
    let timings = entries
        .iter()
        .filter(|e| TIMING_UNITS.contains(&e.unit.as_str()))
        .count();
    if timings < 2 {
        return Err(format!(
            "{name}: found {timings} timing entries, need a baseline/candidate pair"
        ));
    }
    if !entries
        .iter()
        .any(|e| e.name.ends_with("_speedup") && e.unit == "x")
    {
        return Err(format!("{name}: no `*_speedup` ratio entry in unit `x`"));
    }
    for speedup in entries
        .iter()
        .filter(|e| e.name.ends_with("_speedup") && e.unit == "x")
    {
        cross_validate_speedup(name, speedup, entries)?;
    }
    if name.contains("replay")
        && !entries
            .iter()
            .any(|e| e.name.ends_with("_calls_per_sec") && e.unit == "calls/s")
    {
        return Err(format!(
            "{name}: no `*_calls_per_sec` throughput entry in unit `calls/s`"
        ));
    }
    Ok(())
}

/// Check the absolute ratio floors of one artifact (see the module docs).
pub fn check_floors(name: &str, entries: &[BenchEntry]) -> Result<(), String> {
    if name != "BENCH_coupled.json" {
        return Ok(());
    }
    let coupled = entries
        .iter()
        .filter(|e| e.name.starts_with("coupled_") && e.name.ends_with("_speedup"));
    for e in coupled {
        if e.value < COUPLED_SPEEDUP_FLOOR {
            return Err(format!(
                "{name}: `{}` = {:.3}x is below the {COUPLED_SPEEDUP_FLOOR}x floor: \
                 the coupled engine's window handshake dominates its run",
                e.name, e.value
            ));
        }
    }
    Ok(())
}

/// Cross-validate one `*_speedup` entry against its baseline/candidate
/// timing pair: strip `_speedup`, then shorten the stem one `_`-segment at
/// a time until at least two timing entries share the prefix (the bench
/// modules name pairs `<stem>_reference`/`<stem>_virtual_time`,
/// `<stem>_serial_wall`/`<stem>_sharded_wall`, …). The speedup must equal
/// the ratio of one ordered pair within [`SPEEDUP_RATIO_TOL`].
fn cross_validate_speedup(
    name: &str,
    speedup: &BenchEntry,
    entries: &[BenchEntry],
) -> Result<(), String> {
    let full_stem = speedup
        .name
        .strip_suffix("_speedup")
        .expect("caller filtered on the suffix");
    let mut stem = full_stem;
    let timings = loop {
        let matches: Vec<&BenchEntry> = entries
            .iter()
            .filter(|e| {
                TIMING_UNITS.contains(&e.unit.as_str())
                    && e.name.len() > stem.len() + 1
                    && e.name.starts_with(stem)
                    && e.name.as_bytes()[stem.len()] == b'_'
            })
            .collect();
        if matches.len() >= 2 {
            break matches;
        }
        match stem.rfind('_') {
            Some(i) => stem = &stem[..i],
            None => {
                return Err(format!(
                    "{name}: speedup `{}` has no `{full_stem}*` baseline/candidate \
                     timing pair to validate against",
                    speedup.name
                ))
            }
        }
    };
    let matched = timings.iter().any(|a| {
        timings.iter().any(|b| {
            a.name != b.name && b.value > 0.0 && {
                let ratio = a.value / b.value;
                (ratio - speedup.value).abs() <= SPEEDUP_RATIO_TOL * speedup.value.max(ratio)
            }
        })
    });
    if matched {
        Ok(())
    } else {
        let candidates: Vec<&str> = timings.iter().map(|e| e.name.as_str()).collect();
        Err(format!(
            "{name}: speedup `{}` = {} does not match the ratio of any `{stem}_*` \
             timing pair (candidates: {candidates:?}) — stale or miscomputed",
            speedup.name, speedup.value
        ))
    }
}

/// Validate every `BENCH_*.json` under `dir` and check the canonical set
/// is present. The append-only [`crate::bench_history::HISTORY_FILE`]
/// shares the `BENCH_` prefix but is a different (multi-commit) document,
/// so it is skipped here. Returns the validated file names.
pub fn validate_dir(dir: &Path) -> Result<Vec<String>, String> {
    let mut seen = Vec::new();
    let listing = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in listing {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let file_name = entry.file_name().to_string_lossy().into_owned();
        if !(file_name.starts_with("BENCH_") && file_name.ends_with(".json"))
            || file_name == crate::bench_history::HISTORY_FILE
        {
            continue;
        }
        let path = entry.path();
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let entries: Vec<BenchEntry> = serde_json::from_str(&text)
            .map_err(|e| format!("{}: does not parse as a bench entry list: {e}", file_name))?;
        validate_entries(&file_name, &entries)?;
        check_floors(&file_name, &entries)?;
        seen.push(file_name);
    }
    for expected in EXPECTED_ARTIFACTS {
        if !seen.iter().any(|s| s == expected) {
            return Err(format!(
                "missing canonical artifact {expected} (found: {seen:?})"
            ));
        }
    }
    seen.sort();
    Ok(seen)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, value: f64, unit: &str) -> BenchEntry {
        BenchEntry {
            name: name.into(),
            value,
            unit: unit.into(),
        }
    }

    fn valid() -> Vec<BenchEntry> {
        vec![
            entry("x_n10_candidate", 120.0, "ns/iter"),
            entry("x_n10_reference", 360.0, "ns/iter"),
            entry("x_n10_speedup", 3.0, "x"),
            entry("x_threads", 4.0, "count"),
        ]
    }

    #[test]
    fn valid_shape_passes() {
        validate_entries("BENCH_x.json", &valid()).unwrap();
    }

    #[test]
    fn missing_threads_is_rejected() {
        let entries: Vec<BenchEntry> = valid()
            .into_iter()
            .filter(|e| !e.name.contains("threads"))
            .collect();
        let err = validate_entries("BENCH_x.json", &entries).unwrap_err();
        assert!(err.contains("thread-count"), "{err}");
    }

    #[test]
    fn missing_timing_pair_is_rejected() {
        let entries = vec![
            entry("x_n10_speedup", 3.0, "x"),
            entry("x_n10_candidate", 120.0, "ns/iter"),
            entry("x_threads", 4.0, "count"),
        ];
        let err = validate_entries("BENCH_x.json", &entries).unwrap_err();
        assert!(err.contains("baseline/candidate"), "{err}");
    }

    #[test]
    fn missing_speedup_and_bad_values_are_rejected() {
        let mut entries = valid();
        entries.retain(|e| !e.name.ends_with("_speedup"));
        assert!(validate_entries("BENCH_x.json", &entries)
            .unwrap_err()
            .contains("speedup"));
        let mut nan = valid();
        nan[0].value = f64::NAN;
        assert!(validate_entries("BENCH_x.json", &nan)
            .unwrap_err()
            .contains("non-finite"));
        let mut frac = valid();
        frac[3].value = 3.5;
        assert!(validate_entries("BENCH_x.json", &frac)
            .unwrap_err()
            .contains("positive integer"));
    }

    #[test]
    fn zero_valued_count_entries_are_legitimate() {
        // A zero working set or drop counter is a real measurement: only
        // timing/ratio/throughput units require strict positivity.
        let mut entries = valid();
        entries.push(entry("x_peak_resident", 0.0, "calls"));
        entries.push(entry("x_drops", 0.0, "count"));
        validate_entries("BENCH_x.json", &entries).unwrap();
    }

    #[test]
    fn zero_timing_ratio_and_throughput_are_rejected() {
        for (name, unit) in [
            ("x_n10_candidate", "ns/iter"),
            ("x_n10_speedup", "x"),
            ("x_rate", "calls/s"),
        ] {
            let mut entries = valid();
            entries.push(entry(name, 0.0, unit));
            let err = validate_entries("BENCH_x.json", &entries).unwrap_err();
            assert!(err.contains("strictly positive"), "{unit}: {err}");
        }
        let mut entries = valid();
        entries.push(entry("x_drops", -1.0, "count"));
        let err = validate_entries("BENCH_x.json", &entries).unwrap_err();
        assert!(err.contains("negative"), "{err}");
    }

    #[test]
    fn stale_speedup_is_rejected() {
        // The pair says 3.0x; a drifted stored ratio fails loudly.
        let mut entries = valid();
        entries
            .iter_mut()
            .find(|e| e.name.ends_with("_speedup"))
            .unwrap()
            .value = 2.4;
        let err = validate_entries("BENCH_x.json", &entries).unwrap_err();
        assert!(err.contains("stale or miscomputed"), "{err}");
    }

    #[test]
    fn speedup_pair_is_found_by_prefix_shortening() {
        // The workload-bench shape: the speedup shares only a shortened
        // prefix with its serial/sharded pair.
        let entries = vec![
            entry("gen_bulk_serial_wall", 200.0, "ms/run"),
            entry("gen_bulk_sharded_wall", 50.0, "ms/run"),
            entry("gen_bulk_sharded_speedup", 4.0, "x"),
            entry("gen_threads", 2.0, "count"),
        ];
        validate_entries("BENCH_x.json", &entries).unwrap();
        // Inverted direction (ratio < 1) also validates: either ordered
        // ratio of the pair may match.
        let entries = vec![
            entry("q_n16_indexed", 544.0, "ns/iter"),
            entry("q_n16_lazy", 432.0, "ns/iter"),
            entry("q_n16_speedup", 432.0 / 544.0, "x"),
            entry("q_threads", 1.0, "count"),
        ];
        validate_entries("BENCH_x.json", &entries).unwrap();
    }

    #[test]
    fn speedup_without_any_pair_names_the_entry() {
        let entries = vec![
            entry("a_left_wall", 100.0, "ms/run"),
            entry("b_right_wall", 100.0, "ms/run"),
            entry("orphan_speedup", 2.0, "x"),
            entry("x_threads", 1.0, "count"),
        ];
        let err = validate_entries("BENCH_x.json", &entries).unwrap_err();
        assert!(err.contains("orphan_speedup"), "{err}");
    }

    #[test]
    fn replay_artifact_requires_a_throughput_entry() {
        // The plain shape passes for any other artifact name but the
        // replay file must also carry calls/s.
        let entries = valid();
        validate_entries("BENCH_coupled.json", &entries).unwrap();
        let err = validate_entries("BENCH_replay.json", &entries).unwrap_err();
        assert!(err.contains("calls_per_sec"), "{err}");
        let mut with_rate = valid();
        with_rate.push(entry("x_c1000_calls_per_sec", 2.5e6, "calls/s"));
        validate_entries("BENCH_replay.json", &with_rate).unwrap();
    }

    #[test]
    fn weighted_bench_emits_a_valid_shape() {
        // Reduced configuration, same entry names and units as the full
        // `experiments bench` artifact: schema drift in the weighted file
        // shape fails the test suite even before CI's check-bench step.
        let weighted = crate::bench_weighted_gps::run_levels(&[40], 40, 20);
        validate_entries("BENCH_weighted_gps.json", &weighted).unwrap();
    }

    #[test]
    fn drf_bench_emits_a_valid_shape() {
        // Same guard for the DRF artifact: the dominant-share kernel
        // timing pair and its speedup must satisfy the schema.
        let drf = crate::bench_drf::run_levels(&[40], 40);
        validate_entries("BENCH_drf.json", &drf).unwrap();
    }

    #[test]
    fn coupled_speedup_has_an_absolute_floor() {
        let coupled = |speedup: f64| {
            vec![
                entry("coupled_n4_v60_independent", 1.0, "ms/run"),
                entry("coupled_n4_v60_windowed", 1.0 / speedup, "ms/run"),
                entry("coupled_n4_v60_speedup", speedup, "x"),
                entry("coupled_threads", 2.0, "count"),
            ]
        };
        let slow = coupled(0.02);
        validate_entries("BENCH_coupled.json", &slow).unwrap();
        let err = check_floors("BENCH_coupled.json", &slow).unwrap_err();
        assert!(err.contains("coupled_n4_v60_speedup"), "{err}");
        check_floors("BENCH_coupled.json", &coupled(0.4)).unwrap();
        // The floor is specific to the coupled artifact.
        check_floors("BENCH_gps.json", &slow).unwrap();
    }

    #[test]
    fn validate_dir_requires_the_canonical_artifacts() {
        let dir = std::env::temp_dir().join("bench_schema_test_dir");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, entries: &[BenchEntry]| {
            faas_metrics::export::write_json(&dir.join(name), &entries.to_vec()).unwrap();
        };
        // Only one artifact present: the canonical-set check trips.
        write("BENCH_gps.json", &valid());
        let err = validate_dir(&dir).unwrap_err();
        assert!(err.contains("missing canonical artifact"), "{err}");
        for name in EXPECTED_ARTIFACTS {
            let mut entries = valid();
            if name.contains("replay") {
                entries.push(entry("x_c1000_calls_per_sec", 2.5e6, "calls/s"));
            }
            write(name, &entries);
        }
        let seen = validate_dir(&dir).unwrap();
        assert_eq!(seen.len(), EXPECTED_ARTIFACTS.len());
        // The append-only history shares the BENCH_ prefix but is not an
        // entry list; it must be skipped, not rejected.
        std::fs::write(
            dir.join(crate::bench_history::HISTORY_FILE),
            "{\"version\": 1, \"lastUpdate\": \"\", \"entries\": {}}",
        )
        .unwrap();
        let seen = validate_dir(&dir).unwrap();
        assert_eq!(seen.len(), EXPECTED_ARTIFACTS.len());
        // A malformed artifact fails the whole directory.
        std::fs::write(dir.join("BENCH_broken.json"), "{not json").unwrap();
        let err = validate_dir(&dir).unwrap_err();
        assert!(err.contains("BENCH_broken.json"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
