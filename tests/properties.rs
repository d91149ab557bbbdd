//! Property-based tests (proptest) on the core data structures and
//! cross-crate invariants.

use faas_scheduling::core::policy::{priority, PriorityInputs};
use faas_scheduling::core::{
    FcCountMode, PendingQueue, Policy, ProcTimeEstimator, SchedulerConfig, SchedulerState,
};
use faas_scheduling::cpu::{GpsCpu, GpsParams};
use faas_scheduling::metrics::summary::{
    response_times, stretches, FaultCounts, MetricSummary, RobustnessSummary, RunSummary,
};
use faas_scheduling::simcore::stats::{mean, percentile, percentile_sorted, sorted_copy, BoxPlot};
use faas_scheduling::simcore::time::{SimDuration, SimTime};
use faas_scheduling::workload::scenario::BurstScenario;
use faas_scheduling::workload::sebs::{Catalogue, FuncId};
use faas_scheduling::workload::trace::{CallId, CallKind, CallOutcome, ColdStartKind};
use proptest::prelude::*;
use std::fmt::Debug;

/// Bitwise equality of two summaries: `Debug` prints every `f64` in its
/// shortest round-trip form, so equal text means equal bits (and the same
/// sign of zero). The data never holds NaN.
fn assert_same_bits<T: Debug>(got: &T, want: &T, data: &[f64]) {
    assert_eq!(format!("{got:?}"), format!("{want:?}"), "data {data:?}");
}

/// The sorted path that [`BoxPlot::from_data`] must reproduce: whiskers
/// are the first observations inside the fences, walking in from either
/// end of the sorted data, clamped to the hinges.
fn reference_boxplot(data: &[f64]) -> BoxPlot {
    let sorted = sorted_copy(data);
    let p25 = percentile_sorted(&sorted, 0.25);
    let p75 = percentile_sorted(&sorted, 0.75);
    let iqr = p75 - p25;
    let (lo_fence, hi_fence) = (p25 - 1.5 * iqr, p75 + 1.5 * iqr);
    let whisker_lo = sorted
        .iter()
        .copied()
        .find(|&x| x >= lo_fence)
        .unwrap_or(sorted[0])
        .min(p25);
    let whisker_hi = sorted
        .iter()
        .rev()
        .copied()
        .find(|&x| x <= hi_fence)
        .unwrap_or(sorted[sorted.len() - 1])
        .max(p75);
    BoxPlot {
        whisker_lo,
        p25,
        median: percentile_sorted(&sorted, 0.50),
        p75,
        whisker_hi,
        mean: mean(&sorted),
        outliers: sorted
            .iter()
            .filter(|&&x| x < whisker_lo || x > whisker_hi)
            .count(),
    }
}

/// The sorted path that [`MetricSummary::from_values`] must reproduce:
/// sort, read the estimator, take the mean in sorted order.
fn reference_metric(values: &[f64]) -> MetricSummary {
    let sorted = sorted_copy(values);
    let p = |q| percentile_sorted(&sorted, q);
    MetricSummary {
        count: sorted.len(),
        mean: mean(&sorted),
        p50: p(0.50),
        p75: p(0.75),
        p95: p(0.95),
        p99: p(0.99),
        max: sorted[sorted.len() - 1],
    }
}

/// Selection must equal the sorted path on `data` for every summary.
fn assert_selection_matches_sorting(data: &[f64], q: f64) {
    assert_same_bits(
        &MetricSummary::from_values(data),
        &reference_metric(data),
        data,
    );
    assert_same_bits(&BoxPlot::from_data(data), &reference_boxplot(data), data);
    let sorted = sorted_copy(data);
    for q in [q, 0.0, 0.05, 0.5, 0.99, 1.0] {
        assert_same_bits(&percentile(data, q), &percentile_sorted(&sorted, q), data);
    }
}

/// Statistics inputs of 1-300 values, `-0.0` excluded (a `±0` tie may come
/// out of selection with either sign): mixed signs, heavy duplicates from a
/// small set, all-equal data, heavy tails of either sign, and n = 1 and 2.
fn stats_data() -> impl Strategy<Value = Vec<f64>> {
    let heavy = (1e-9f64..1.0, any::<bool>()).prop_map(|(u, neg)| {
        let x = u.powf(-3.0);
        if neg {
            -x
        } else {
            x
        }
    });
    let small_set = prop::sample::select(vec![-2.5, 0.0, 0.1, 0.3, 1.0, 7.0, 1e9]);
    prop_oneof![
        prop::collection::vec(-1e6f64..1e6, 1..301),
        prop::collection::vec(small_set, 1..301),
        (-1e6f64..1e6, 1usize..301).prop_map(|(x, n)| vec![x; n]),
        prop::collection::vec(heavy, 1..301),
        prop::collection::vec(-1e6f64..1e6, 1..3),
    ]
}

/// The scheduler history as it was kept before each policy recorded only
/// what it reads: every receive and every completion of every function,
/// whatever the policy, with the window count taken over the full logs.
struct FullHistory {
    config: SchedulerConfig,
    estimator: ProcTimeEstimator,
    receives: Vec<Vec<SimTime>>,
    completions: Vec<Vec<SimTime>>,
}

impl FullHistory {
    fn new(num_functions: usize, config: SchedulerConfig) -> Self {
        FullHistory {
            config,
            estimator: ProcTimeEstimator::with_window(num_functions, config.estimate_window),
            receives: vec![Vec::new(); num_functions],
            completions: vec![Vec::new(); num_functions],
        }
    }

    fn on_receive(&mut self, func: FuncId, received: SimTime) -> f64 {
        let prev_received = self.receives[func.index()].last().copied();
        self.receives[func.index()].push(received);
        let log = match self.config.fc_count_mode {
            FcCountMode::Arrivals => &self.receives[func.index()],
            FcCountMode::Completions => &self.completions[func.index()],
        };
        let cutoff = received
            .as_nanos()
            .saturating_sub(self.config.fc_window.as_nanos());
        let inputs = PriorityInputs {
            received,
            expected_processing: self.estimator.estimate_secs(func),
            prev_received,
            recent_count: log.iter().filter(|t| t.as_nanos() >= cutoff).count(),
        };
        priority(self.config.policy, &inputs)
    }

    fn on_complete(&mut self, func: FuncId, processing: SimDuration, now: SimTime) {
        self.estimator.record(func, processing);
        self.completions[func.index()].push(now);
    }
}

fn outcome(func: u16, release_ms: u64, resp_ms: u64) -> CallOutcome {
    let release = SimTime::ZERO + SimDuration::from_millis(release_ms);
    let completion = release + SimDuration::from_millis(resp_ms);
    CallOutcome {
        id: CallId(release_ms),
        func: FuncId(func),
        kind: CallKind::Measured,
        release,
        invoker_receive: release,
        exec_start: release,
        exec_end: completion,
        completion,
        processing: SimDuration::from_millis(resp_ms),
        start_kind: ColdStartKind::Warm,
        node: 0,
    }
}

proptest! {
    /// The pending queue is an exact min-priority queue with FIFO ties.
    #[test]
    fn queue_pops_in_sorted_stable_order(
        priorities in prop::collection::vec(0u32..50, 1..200)
    ) {
        let mut q = PendingQueue::new();
        for (i, &p) in priorities.iter().enumerate() {
            q.push(p as f64, (p, i));
        }
        let mut expected: Vec<(u32, usize)> =
            priorities.iter().copied().enumerate().map(|(i, p)| (p, i)).collect();
        // Stable sort by priority reproduces the FIFO tie-break contract.
        expected.sort_by_key(|&(p, _)| p);
        let got: Vec<(u32, usize)> = std::iter::from_fn(|| q.pop()).collect();
        prop_assert_eq!(got, expected);
    }

    /// Interleaved pushes and pops never violate the heap property.
    #[test]
    fn queue_interleaved_ops_never_pop_out_of_order(
        ops in prop::collection::vec((any::<bool>(), 0u32..1000), 1..300)
    ) {
        let mut q = PendingQueue::new();
        let mut last_popped: Option<f64> = None;
        for (push, val) in ops {
            if push {
                let p = val as f64 / 10.0;
                // A push of a priority below the last popped value is legal;
                // it resets the monotonicity watermark.
                if let Some(lp) = last_popped {
                    if p < lp {
                        last_popped = None;
                    }
                }
                q.push(p, p);
            } else if let Some(p) = q.pop() {
                if let Some(lp) = last_popped {
                    prop_assert!(p >= lp, "popped {p} after {lp}");
                }
                last_popped = Some(p);
            }
        }
    }

    /// The estimator equals a brute-force mean of the last k observations.
    #[test]
    fn estimator_matches_reference_model(
        window in 1usize..20,
        observations in prop::collection::vec(0u64..10_000, 0..100)
    ) {
        let mut state = SchedulerState::new(
            1,
            SchedulerConfig {
                estimate_window: window,
                ..SchedulerConfig::paper(Policy::Sept)
            },
        );
        for (i, &ms) in observations.iter().enumerate() {
            state.on_complete(
                FuncId(0),
                SimDuration::from_millis(ms),
                SimTime::from_millis(i as u64),
            );
        }
        let tail: Vec<f64> = observations
            .iter()
            .rev()
            .take(window)
            .map(|&ms| ms as f64 / 1000.0)
            .collect();
        let expected = if tail.is_empty() {
            0.0
        } else {
            tail.iter().sum::<f64>() / tail.len() as f64
        };
        prop_assert!((state.estimate_secs(FuncId(0)) - expected).abs() < 1e-9);
    }

    /// GPS conserves work under arbitrary churn: injected = done + residual.
    #[test]
    fn gps_conserves_work(
        kappa in 0.0f64..1.0,
        cores in 1u32..16,
        tasks in prop::collection::vec((1u64..5_000, 1u64..2_000), 1..60)
    ) {
        let mut cpu = GpsCpu::new(GpsParams {
            cores: cores as f64,
            ctx_switch_penalty: kappa,
            penalty_cap: 3.0,
        });
        let mut t = SimTime::ZERO;
        let mut injected = 0.0;
        let mut live = Vec::new();
        for (i, &(work_ms, gap_ms)) in tasks.iter().enumerate() {
            t += SimDuration::from_millis(gap_ms);
            let work = work_ms as f64 / 1000.0;
            injected += work;
            live.push(cpu.add_task(t, work, 1.0, 1.0));
            if i % 4 == 3 {
                let id = live.remove(0);
                injected -= cpu.remove_task(t, id);
            }
        }
        let end = t + SimDuration::from_secs(100_000);
        cpu.advance(end);
        let mut residual = 0.0;
        for id in live {
            residual += cpu.remove_task(end, id);
        }
        prop_assert!(
            (cpu.work_done() + residual - injected).abs() < 1e-5,
            "done={} residual={} injected={}",
            cpu.work_done(), residual, injected
        );
    }

    /// GPS rates never exceed the per-task cap or the total capacity.
    #[test]
    fn gps_rates_respect_caps(
        cores in 1u32..8,
        n_tasks in 1usize..40,
        kappa in 0.0f64..0.5
    ) {
        let mut cpu = GpsCpu::new(GpsParams {
            cores: cores as f64,
            ctx_switch_penalty: kappa,
            penalty_cap: 3.0,
        });
        let ids: Vec<_> = (0..n_tasks)
            .map(|_| cpu.add_task(SimTime::ZERO, 10.0, 1.0, 1.0))
            .collect();
        let mut total = 0.0;
        for id in ids {
            let rate = cpu.current_rate(id);
            prop_assert!(rate <= 1.0 + 1e-12, "per-task cap");
            prop_assert!(rate > 0.0, "work-conserving");
            total += rate;
        }
        prop_assert!(total <= cores as f64 + 1e-9, "capacity cap");
    }

    /// Percentile estimates are bounded by the data and monotone in q.
    #[test]
    fn percentiles_bounded_and_monotone(
        data in prop::collection::vec(-1e6f64..1e6, 1..200),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0
    ) {
        let sorted = sorted_copy(&data);
        let (lo, hi) = (q1.min(q2), q1.max(q2));
        let p_lo = percentile_sorted(&sorted, lo);
        let p_hi = percentile_sorted(&sorted, hi);
        prop_assert!(p_lo <= p_hi + 1e-9);
        prop_assert!(p_lo >= sorted[0] - 1e-9);
        prop_assert!(p_hi <= sorted[sorted.len() - 1] + 1e-9);
    }

    /// Selection reproduces the sorted path bit for bit: `MetricSummary`,
    /// `BoxPlot` and `percentile` against `sorted_copy` +
    /// `percentile_sorted` + the whisker rule, mean included.
    #[test]
    fn selection_summaries_match_the_sorted_path(
        data in stats_data(),
        q in 0.0f64..1.0
    ) {
        assert_selection_matches_sorting(&data, q);
    }

    /// `RunSummary` (one traversal) and `RobustnessSummary` (p99 only)
    /// equal the sorted composition over `response_times` / `stretches`,
    /// on outcomes with tied and heavy-tailed response times and drops.
    #[test]
    fn run_and_robustness_summaries_match_the_sorted_path(
        calls in prop::collection::vec(
            (0u16..11, 0u64..100_000, prop_oneof![
                prop::sample::select(vec![1u64, 40, 40, 900, 12_000]),
                (1e-6f64..1.0).prop_map(|u| (u.powf(-2.0)) as u64),
            ]),
            0..200,
        ),
        dropped in 0usize..5,
        burst_start_ms in 0u64..50_000
    ) {
        prop_assume!(!calls.is_empty() || dropped > 0);
        let catalogue = Catalogue::sebs();
        let outs: Vec<CallOutcome> =
            calls.iter().map(|&(f, r, d)| outcome(f, r, d)).collect();
        let refs: Vec<&CallOutcome> = outs.iter().collect();
        let resp = response_times(&refs);
        if !refs.is_empty() {
            let burst_start = SimTime::ZERO + SimDuration::from_millis(burst_start_ms);
            let want = RunSummary {
                response: reference_metric(&resp),
                stretch: reference_metric(&stretches(&refs, &catalogue)),
                max_completion: refs
                    .iter()
                    .map(|o| o.completion.saturating_since(burst_start).as_secs_f64())
                    .fold(0.0f64, f64::max),
            };
            let got = RunSummary::from_outcomes(&refs, &catalogue, burst_start);
            assert_same_bits(&got, &want, &resp);
        }
        let counts = FaultCounts { retries: dropped as u64, ..FaultCounts::default() };
        let got = RobustnessSummary::from_outcomes(&refs, dropped, counts);
        let offered = (refs.len() + dropped) as f64;
        let want = RobustnessSummary {
            delivered: refs.len(),
            dropped,
            goodput: refs.len() as f64 / offered,
            drop_rate: dropped as f64 / offered,
            counts,
            p99_response: if refs.is_empty() { 0.0 } else { reference_metric(&resp).p99 },
        };
        assert_same_bits(&got, &want, &resp);
    }

    /// Box-plot invariants: fences ordered, whiskers inside data range.
    #[test]
    fn boxplot_invariants(
        data in prop::collection::vec(0f64..1e4, 1..200)
    ) {
        let b = BoxPlot::from_data(&data);
        prop_assert!(b.whisker_lo <= b.p25 + 1e-9);
        prop_assert!(b.p25 <= b.median + 1e-9);
        prop_assert!(b.median <= b.p75 + 1e-9);
        prop_assert!(b.p75 <= b.whisker_hi + 1e-9);
        let min = data.iter().copied().fold(f64::INFINITY, f64::min);
        let max = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(b.whisker_lo >= min - 1e-9);
        prop_assert!(b.whisker_hi <= max + 1e-9);
        prop_assert!(b.outliers < data.len());
    }

    /// Scenario generation: the request-count formula and window bounds
    /// hold for arbitrary (cores, intensity).
    #[test]
    fn scenario_counts_and_bounds(
        cores in 1u32..24,
        intensity in prop::sample::select(vec![10u32, 20, 30, 40, 60, 90, 120]),
        seed in any::<u64>()
    ) {
        let catalogue = Catalogue::sebs();
        let spec = BurstScenario::standard(cores, intensity);
        let scenario = spec.generate(&catalogue, seed);
        prop_assert_eq!(
            scenario.burst.len(),
            11 * (cores as usize) * (intensity as usize) / 10
        );
        let end = scenario.burst_start + scenario.burst_window;
        for call in &scenario.burst {
            prop_assert!(call.release >= scenario.burst_start);
            prop_assert!(call.release < end);
        }
        // Warm-up: cores calls per function, all before the burst.
        prop_assert_eq!(scenario.warmup.len(), 11 * cores as usize);
        for call in &scenario.warmup {
            prop_assert!(call.release < scenario.burst_start);
        }
    }

    /// Priorities computed by the scheduler are finite for every policy and
    /// any (bounded) history.
    #[test]
    fn priorities_are_always_finite(
        policy_idx in 0usize..5,
        events in prop::collection::vec((0u16..11, 1u64..100_000), 1..200)
    ) {
        let policy = Policy::ALL[policy_idx];
        let catalogue = Catalogue::sebs();
        let mut state = SchedulerState::new(
            catalogue.len(),
            SchedulerConfig::paper(policy),
        );
        let mut t = SimTime::ZERO;
        for (i, &(func, dt_ms)) in events.iter().enumerate() {
            t += SimDuration::from_millis(dt_ms);
            let func = FuncId(func);
            if i % 3 == 2 {
                state.on_complete(func, SimDuration::from_millis(dt_ms), t);
            } else {
                let p = state.on_receive(func, t);
                prop_assert!(p.is_finite(), "{policy:?} produced {p}");
                prop_assert!(p >= 0.0, "{policy:?} produced negative {p}");
            }
        }
    }
}

proptest! {
    /// A scheduler that keeps only the history its policy reads gives every
    /// call the priority a scheduler logging every receive and completion
    /// gives it: every policy, both Fair-Choice counts, three functions,
    /// and time steps that put earlier calls exactly on, one nanosecond
    /// inside and one nanosecond outside the 60 s window's cutoff.
    #[test]
    fn scheduler_priorities_match_a_full_history_reference(
        policy_idx in 0usize..5,
        count_completions in any::<bool>(),
        events in prop::collection::vec(
            (
                0u16..3,
                any::<bool>(),
                prop::sample::select(vec![
                    0u64,
                    1,
                    1_000_000,
                    20_000_000_000,
                    30_000_000_000,
                    59_999_999_999,
                    60_000_000_000,
                    60_000_000_001,
                    120_000_000_000,
                ]),
                1u64..5_000,
            ),
            1..300,
        )
    ) {
        let config = SchedulerConfig {
            fc_count_mode: if count_completions {
                FcCountMode::Completions
            } else {
                FcCountMode::Arrivals
            },
            ..SchedulerConfig::paper(Policy::ALL[policy_idx])
        };
        let mut state = SchedulerState::new(3, config);
        let mut reference = FullHistory::new(3, config);
        let mut t = SimTime::ZERO;
        for &(func, receive, step_ns, processing_ms) in &events {
            t = SimTime::from_nanos(t.as_nanos() + step_ns);
            let func = FuncId(func);
            if receive {
                let got = state.on_receive(func, t);
                let want = reference.on_receive(func, t);
                prop_assert_eq!(got.to_bits(), want.to_bits(), "{:?} at {:?}", config, t);
            } else {
                let processing = SimDuration::from_millis(processing_ms);
                state.on_complete(func, processing, t);
                reference.on_complete(func, processing, t);
            }
        }
    }
}

/// One large tied, heavy-tailed input (2^17 values from a deterministic
/// generator, quantized so most values repeat): selection must still equal
/// the sorted path bit for bit.
#[test]
fn selection_matches_sorting_on_a_large_tied_heavy_tailed_input() {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let data: Vec<f64> = (0..1 << 17)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u = ((state >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
            (u.powf(-1.5) * 4.0).round() / 4.0
        })
        .collect();
    assert_selection_matches_sorting(&data, 0.37);
}

/// DRF smoke: a handful of seeded multi-resource churn schedules, on the
/// fixed mixed-demand pool and on seeded heterogeneous pools, where the
/// incremental dominant-share kernel must match the reference integrator
/// at every step (the full 520-schedule sweep lives in `faas-cpu`).
#[test]
fn drf_kernel_matches_the_reference_integrator() {
    use faas_scheduling::cpu::schedule::{run_drf_differential_schedule, SignaturePool};
    for seed in 0..8u64 {
        run_drf_differential_schedule(seed, &SignaturePool::drf_mixed(), 80);
        run_drf_differential_schedule(seed, &SignaturePool::drf_weighted(seed), 80);
    }
}
