//! Every paper artefact at `--quick` scale, pinned by an FNV-1a digest of
//! its serialised JSON (the bytes `experiments all --quick` writes, up to
//! pretty-printing). A refactor of how runs are pooled into rows must keep
//! every digest; a change to the model or to a reduction's arithmetic is a
//! deliberate re-pin, explained where it is made.
//!
//! The trace-backed twins (`run_source` of table1, fig5 and fig6) are
//! pinned on one synthetic Azure-style trace, the `--source synth:4` of the
//! CLI.

use faas_experiments::{ablations, fig2, fig5, fig6, functions, grid, sweep, table1, Effort};
use faas_simcore::time::SimDuration;
use faas_workload::synth::SynthSpec;
use faas_workload::trace_source::{TraceSpec, WorkloadSource};

/// FNV-1a over the compact JSON text of `value`.
fn digest<T: serde::Serialize>(value: &T) -> u64 {
    let json = serde_json::to_string(value).expect("artefacts serialise");
    json.bytes().fold(0xCBF2_9CE4_8422_2325, |acc, b| {
        (acc ^ b as u64).wrapping_mul(0x0100_0000_01B3)
    })
}

fn assert_pinned<T: serde::Serialize>(name: &str, value: &T, pinned: u64) {
    let got = digest(value);
    assert_eq!(
        got, pinned,
        "{name}: digest {got:#018x}, pinned {pinned:#018x}"
    );
}

/// The synthetic trace of `--source synth:4`: 4 calls/s over 60 s.
fn synth_source() -> WorkloadSource {
    WorkloadSource::Trace(TraceSpec::Synthetic(SynthSpec::azure(
        4.0,
        SimDuration::from_secs(60),
    )))
}

#[test]
fn table1_is_pinned() {
    let result = table1::run(faas_experiments::SEEDS[0]);
    assert_pinned("table1", &result, 0x1656_f223_1ae7_333e);
}

#[test]
fn fig2_is_pinned() {
    assert_pinned("fig2", &fig2::run(Effort::quick()), 0x0191_4303_9103_adda);
}

#[test]
fn grid_is_pinned() {
    assert_pinned("grid", &grid::run(Effort::quick()), 0x5d26_09f4_c429_f6ef);
}

#[test]
fn fig5_is_pinned() {
    assert_pinned("fig5", &fig5::run(Effort::quick()), 0x33d8_98e3_9d47_6b7d);
}

#[test]
fn fig6_is_pinned() {
    assert_pinned("fig6", &fig6::run(Effort::quick()), 0x4af2_756d_ffaa_eaac);
}

#[test]
fn ablations_are_pinned() {
    assert_pinned(
        "ablations",
        &ablations::run(Effort::quick()),
        0x7595_3858_e008_2921,
    );
}

#[test]
fn functions_are_pinned() {
    assert_pinned(
        "functions",
        &functions::run(Effort::quick()),
        0x74b2_c997_2ca5_83d1,
    );
}

#[test]
fn sweep_is_pinned() {
    assert_pinned("sweep", &sweep::run(Effort::quick()), 0x3733_e362_6915_31f6);
}

#[test]
fn table1_run_source_is_pinned() {
    let result = table1::run_source(&synth_source(), faas_experiments::SEEDS[0]).unwrap();
    assert_pinned("table1::run_source", &result, 0xd3f4_ca9f_85ab_0a6e);
}

#[test]
fn fig5_run_source_is_pinned() {
    let result = fig5::run_source(&synth_source(), Effort::quick()).unwrap();
    assert_pinned("fig5::run_source", &result, 0x3fbf_e9c2_789a_d640);
}

#[test]
fn fig6_run_source_is_pinned() {
    let result = fig6::run_source(&synth_source(), 10, Effort::quick()).unwrap();
    assert_pinned("fig6::run_source", &result, 0xebd0_f2fd_4542_99f0);
}
