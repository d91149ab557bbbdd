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
    assert_pinned("grid", &grid::run(Effort::quick()), 0x94dc_b730_7531_6d46);
}

#[test]
fn fig5_is_pinned() {
    assert_pinned("fig5", &fig5::run(Effort::quick()), 0xecc8_a0cf_ad27_f043);
}

#[test]
fn fig6_is_pinned() {
    assert_pinned("fig6", &fig6::run(Effort::quick()), 0xcb8a_5932_6922_a6e3);
}

#[test]
fn ablations_are_pinned() {
    assert_pinned(
        "ablations",
        &ablations::run(Effort::quick()),
        0xc268_5d2f_1ae5_4bd2,
    );
}

#[test]
fn functions_are_pinned() {
    assert_pinned(
        "functions",
        &functions::run(Effort::quick()),
        0x0000_9c4e_5137_2b1d,
    );
}

#[test]
fn sweep_is_pinned() {
    assert_pinned("sweep", &sweep::run(Effort::quick()), 0xae82_22e2_76ff_83e6);
}

#[test]
fn table1_run_source_is_pinned() {
    let result = table1::run_source(&synth_source(), faas_experiments::SEEDS[0]).unwrap();
    assert_pinned("table1::run_source", &result, 0x1162_3115_b912_80fc);
}

#[test]
fn fig5_run_source_is_pinned() {
    let result = fig5::run_source(&synth_source(), Effort::quick()).unwrap();
    assert_pinned("fig5::run_source", &result, 0x57d3_e585_e594_f666);
}

#[test]
fn fig6_run_source_is_pinned() {
    let result = fig6::run_source(&synth_source(), 10, Effort::quick()).unwrap();
    assert_pinned("fig6::run_source", &result, 0xfbbf_3c69_a630_5230);
}
