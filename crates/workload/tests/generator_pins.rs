//! Bit-for-bit pins of every workload generator.
//!
//! `regression_scenarios.rs` pins the paper scenarios (uniform arrivals
//! with the equal and fairness mixes, serial path). This file pins the
//! rest of the generator surface by FNV-1a digests, so a refactor of how
//! arrival processes, mixes, weight models or the trace synthesizer are
//! represented must reproduce every call and every share exactly:
//!
//! * every [`ArrivalSpec`] variant x every [`MixSpec`] variant, through
//!   both the serial `generate_sorted` path and
//!   `ShardedGenerator::generate_serial`;
//! * `WeightSpec::table` for all five weight models, over every
//!   function, call kind and CPU phase;
//! * a [`SyntheticTrace`] with its MMPP burst on and off.

use faas_simcore::rng::Xoshiro256;
use faas_simcore::time::{SimDuration, SimTime};
use faas_workload::arrival::ArrivalSpec;
use faas_workload::generate::{ShardedGenerator, WorkloadSpec};
use faas_workload::mix::MixSpec;
use faas_workload::sebs::Catalogue;
use faas_workload::synth::{SynthSpec, SyntheticTrace};
use faas_workload::trace::{Call, CallKind};
use faas_workload::trace_source::TraceSource;
use faas_workload::weight::{CallPhase, TaskShare, WeightSpec};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over little-endian u64 words.
fn fnv1a(acc: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *acc = (*acc ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
}

fn digest_calls<'a>(calls: impl IntoIterator<Item = &'a Call>) -> u64 {
    let mut acc = FNV_OFFSET;
    let mut n = 0u64;
    for call in calls {
        fnv1a(&mut acc, call.id.0);
        fnv1a(&mut acc, call.func.0 as u64);
        fnv1a(&mut acc, call.release.as_nanos());
        fnv1a(&mut acc, matches!(call.kind, CallKind::Measured) as u64);
        n += 1;
    }
    fnv1a(&mut acc, n);
    acc
}

fn arrivals() -> Vec<ArrivalSpec> {
    vec![
        ArrivalSpec::Uniform { count: 500 },
        ArrivalSpec::Poisson { rate: 9.0 },
        ArrivalSpec::Mmpp {
            rate_on: 14.0,
            rate_off: 2.0,
            mean_on_secs: 6.0,
            mean_off_secs: 9.0,
        },
        ArrivalSpec::Diurnal {
            mean_rate: 8.0,
            weights: vec![0.25, 0.5, 1.0, 1.75, 1.75, 1.25, 0.75, 0.75],
        },
    ]
}

fn mixes() -> Vec<MixSpec> {
    vec![
        MixSpec::Equal,
        MixSpec::Fairness {
            rare_function: "dna-visualisation".into(),
            rare_calls: 10,
        },
        MixSpec::Zipf { s: 1.2 },
    ]
}

fn specs() -> Vec<WorkloadSpec> {
    let mut out = Vec::new();
    for arrival in arrivals() {
        for mix in mixes() {
            out.push(WorkloadSpec {
                arrival: arrival.clone(),
                mix,
                weights: WeightSpec::Uniform,
                window: SimDuration::from_secs(60),
            });
        }
    }
    out
}

const SEEDS: [u64; 2] = [101, 0xD1CE];

#[test]
fn serial_sorted_generation_is_pinned() {
    let cat = Catalogue::sebs();
    let digests: Vec<u64> = specs()
        .iter()
        .flat_map(|spec| {
            SEEDS.map(|seed| {
                let mut root = Xoshiro256::seed_from_u64(seed);
                let mut rng_times = root.derive_stream(1);
                let mut rng_assign = root.derive_stream(2);
                let calls = spec.generate_sorted(
                    &cat,
                    SimTime::from_secs(137),
                    &mut rng_times,
                    &mut rng_assign,
                    88,
                );
                digest_calls(&calls)
            })
        })
        .collect();
    let pinned: Vec<u64> = vec![
        10722055888306283209,
        786895452615972101,
        17218248043853876187,
        18342913626379222271,
        13401872003572716161,
        10812095742160992204,
        7841517573383456598,
        6830580636252898452,
        17661694336452863113,
        15037985530806902589,
        13088733048418213404,
        10764990092818378030,
        15371993442310693829,
        5966217299806247834,
        2477765801333322822,
        11069749288011293137,
        2274846623997030623,
        1096729263136674434,
        16671659263221354539,
        11771762623441895294,
        3139484291810158806,
        4403880821586434102,
        12286612425868084813,
        15603436954908695139,
    ];
    assert_eq!(digests, pinned, "serial arrival x mix digests");
}

#[test]
fn sharded_generation_is_pinned() {
    let cat = Catalogue::sebs();
    let digests: Vec<u64> = specs()
        .iter()
        .flat_map(|spec| {
            SEEDS.map(|seed| {
                let g = ShardedGenerator::new(spec, &cat, SimTime::from_secs(137), seed);
                digest_calls(&g.generate_serial())
            })
        })
        .collect();
    let pinned: Vec<u64> = vec![
        67464668782014137,
        5157812048102530839,
        355921762450500904,
        4811599138379210500,
        1466259338828897241,
        12856766933304270242,
        16154120105961284261,
        1806895230534841305,
        9705403164637323889,
        4836001450619732385,
        2455054496970159498,
        9530659404448642605,
        12776312110959221302,
        5442078088106970406,
        12571573879676026360,
        11130911100975756690,
        14442965586046325626,
        6696870792649547299,
        17630050738495793459,
        5435932001625309468,
        16889434327637780140,
        15553900347488087606,
        390330287631978058,
        5418781119246009069,
    ];
    assert_eq!(digests, pinned, "sharded arrival x mix digests");
}

fn digest_share(acc: &mut u64, s: TaskShare) {
    fnv1a(acc, s.weight.to_bits());
    fnv1a(acc, s.max_rate.to_bits());
    fnv1a(acc, s.mem_per_cpu.to_bits());
}

#[test]
fn weight_tables_are_pinned() {
    let cat = Catalogue::sebs();
    let models = [
        WeightSpec::Uniform,
        WeightSpec::paper_tiers(),
        WeightSpec::paper_tiers_mem(),
        WeightSpec::ZipfCorrelated { s: 1.1 },
        WeightSpec::paper_tiers_cgroup_lag(),
        WeightSpec::ZipfMemCorrelated {
            s: 1.1,
            mem_top: 2.0,
        },
    ];
    let digests: Vec<u64> = models
        .iter()
        .map(|spec| {
            let table = spec.table(&cat);
            let mut acc = FNV_OFFSET;
            for func in cat.ids() {
                digest_share(&mut acc, table.share(func));
                for kind in [CallKind::Warmup, CallKind::Measured] {
                    for phase in [CallPhase::Init, CallPhase::Exec] {
                        digest_share(&mut acc, table.phase_share(func, kind, phase));
                    }
                }
            }
            acc
        })
        .collect();
    let pinned: Vec<u64> = vec![
        4158314563042202085,
        11398200947899924117,
        11589730006368017493,
        3984552597065300348,
        7486863481882285669,
        16322649196006800033,
    ];
    assert_eq!(digests, pinned, "weight table digests");
}

#[test]
fn synthetic_traces_are_pinned() {
    let cat = Catalogue::sebs();
    let bursty = SynthSpec::azure(6.0, SimDuration::from_secs(900));
    let flat = SynthSpec {
        burst: None,
        ..bursty.clone()
    };
    let digests: Vec<u64> = [bursty, flat]
        .iter()
        .flat_map(|spec| {
            SEEDS.map(|seed| {
                let t = SyntheticTrace::new(spec, &cat, SimTime::from_secs(20), seed);
                let calls: Vec<Call> = t.iter_chunk(0, t.len()).collect();
                let mut acc = digest_calls(&calls);
                fnv1a(&mut acc, t.mass().to_bits());
                acc
            })
        })
        .collect();
    let pinned: Vec<u64> = vec![
        5234639652269546571,
        2729752925534168213,
        472001128582210707,
        4002901982702062061,
    ];
    assert_eq!(digests, pinned, "synthetic trace digests");
}
