//! Standalone per-layer probes for the traced run. Each one drives a
//! layer's public functions with work taken from the workload: its node
//! call sets, peak concurrency, peak queue and peak event-heap size.

use crate::host;
use crate::workloads::{ClusterShape, Run};
use faas_core::{PendingQueue, Policy, SchedulerConfig, SchedulerState};
use faas_cpu::bench_support::{churn_params, run_churn, run_drf_churn, weighted_churn_params};
use faas_cpu::GpsCpu;
use faas_invoker::{simulate_calls_faulted, NodeMode};
use faas_simcore::rng::Xoshiro256;
use faas_simcore::time::{SimDuration, SimTime};
use faas_simcore::EventQueue;
use faas_workload::sebs::{Catalogue, FuncId};
use faas_workload::trace::{Call, CallKind};
use std::time::Duration;

/// Standalone replays of each node's calls, in seconds per node.
pub struct NodeReplay {
    /// Under the workload's own node mode.
    pub own: Vec<f64>,
    pub baseline_s: f64,
    pub scheduled_s: f64,
    pub calls: u64,
}

impl NodeReplay {
    pub fn own_s(&self) -> f64 {
        self.own.iter().sum()
    }

    /// Node time on the busiest thread when `threads` threads split the
    /// nodes into contiguous chunks, as the vendored rayon pool does.
    pub fn per_thread_s(&self, threads: usize) -> f64 {
        let chunk = self.own.len().div_ceil(threads.max(1)).max(1);
        self.own
            .chunks(chunk)
            .map(|c| c.iter().sum::<f64>())
            .fold(0.0, f64::max)
    }
}

/// Each node's calls, rebuilt from where the cluster run answered them
/// (`CallOutcome::node`, `DroppedCall::node`), in release order.
fn calls_by_node(runs: &[Run], nodes: u16) -> Vec<Vec<Call>> {
    let mut out = vec![Vec::new(); nodes as usize];
    for run in runs {
        let r = &run.result;
        for o in &r.outcomes {
            out[o.node as usize].push(Call {
                id: o.id,
                func: o.func,
                release: o.release,
                kind: o.kind,
            });
        }
        for d in &r.drops {
            out[d.node as usize].push(Call {
                id: d.id,
                func: d.func,
                release: d.release,
                kind: CallKind::Measured,
            });
        }
    }
    for calls in &mut out {
        calls.sort_by_key(|c| (c.release, c.id));
    }
    out
}

/// Replay every node's calls on its own, once under the workload's node
/// mode and once under each of Baseline and Fair-Choice. Exact for static
/// routing; under failover a handed-off call replays on the node that
/// finally answered it, so the split is approximate there.
pub fn replay_nodes(catalogue: &Catalogue, shape: &ClusterShape, runs: &[Run]) -> NodeReplay {
    let per_node = calls_by_node(runs, shape.nodes);
    let replay = |mode: &NodeMode| -> Vec<f64> {
        per_node
            .iter()
            .enumerate()
            .map(|(node, calls)| {
                let (secs, r) = host::timed(|| {
                    simulate_calls_faulted(
                        catalogue,
                        calls,
                        mode,
                        shape.node,
                        shape.weights,
                        shape.faults,
                        shape.sim_seed ^ node as u64,
                        node as u16,
                    )
                });
                std::hint::black_box(r.outcomes.len());
                secs
            })
            .collect()
    };
    let own = replay(shape.mode);
    let fair_choice = NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice));
    let (baseline_s, scheduled_s) = match shape.mode {
        NodeMode::Baseline => (own.iter().sum(), replay(&fair_choice).iter().sum()),
        NodeMode::Scheduled(_) => (replay(&NodeMode::Baseline).iter().sum(), own.iter().sum()),
    };
    NodeReplay {
        own,
        baseline_s,
        scheduled_s,
        calls: per_node.iter().map(|c| c.len() as u64).sum(),
    }
}

/// GPS completion events per second: `faas_cpu::bench_support` churn at
/// `tasks` concurrent tasks, uniform or dominant-resource (DRF).
pub fn gps_events_per_s(drf: bool, tasks: usize, budget: Duration) -> f64 {
    const COMPLETIONS: usize = 20_000;
    let tasks = tasks.max(1);
    host::rate(budget, 3, || {
        let work = if drf {
            let mut kernel = GpsCpu::new(weighted_churn_params(tasks));
            run_drf_churn(&mut kernel, tasks, COMPLETIONS)
        } else {
            let mut kernel = GpsCpu::new(churn_params(10.0));
            run_churn(&mut kernel, tasks, COMPLETIONS)
        };
        std::hint::black_box(work);
        COMPLETIONS as u64
    })
}

/// Scheduler operations per second: each run's measured calls, in receive
/// order, go through `SchedulerState::on_receive` and `PendingQueue::push`;
/// once more than `depth` wait, the best is popped and completed
/// (`on_complete`). Four operations per call.
pub fn sched_ops_per_s(catalogue: &Catalogue, runs: &[Run], depth: usize, budget: Duration) -> f64 {
    let per_run: Vec<Vec<(FuncId, SimTime, SimDuration)>> = runs
        .iter()
        .map(|run| {
            let mut calls: Vec<_> = run
                .result
                .measured()
                .map(|o| (o.func, o.invoker_receive, o.processing))
                .collect();
            calls.sort_by_key(|&(_, received, _)| received);
            calls
        })
        .collect();
    let depth = depth.max(1);
    host::rate(budget, 3, || {
        let mut ops = 0u64;
        for calls in &per_run {
            let mut state =
                SchedulerState::new(catalogue.len(), SchedulerConfig::paper(Policy::FairChoice));
            let mut queue = PendingQueue::new();
            let mut now = SimTime::ZERO;
            for (i, &(func, received, _)) in calls.iter().enumerate() {
                now = received;
                queue.push(state.on_receive(func, received), i);
                if queue.len() > depth {
                    let j = queue.pop().expect("queue is over depth");
                    state.on_complete(calls[j].0, calls[j].2, now);
                }
            }
            while let Some(j) = queue.pop() {
                state.on_complete(calls[j].0, calls[j].2, now);
            }
            ops += 4 * calls.len() as u64;
        }
        ops
    })
}

/// Event-queue operations per second in the classic hold model: `n`
/// events live, each pop followed by one schedule.
pub fn queue_ops_per_s(n: usize, budget: Duration) -> f64 {
    const HOLDS: usize = 200_000;
    let n = n.max(1);
    host::rate(budget, 3, || {
        let mut rng = Xoshiro256::seed_from_u64(0x51);
        let mut queue: EventQueue<u32> = EventQueue::new();
        for i in 0..n {
            queue.schedule(
                SimTime::from_nanos(rng.next_u64() % 1_000_000_000),
                i as u32,
            );
        }
        for _ in 0..HOLDS {
            let (t, payload) = queue.pop().expect("the hold model keeps n events");
            let gap = SimDuration::from_nanos(1 + rng.next_u64() % 1_000_000_000);
            queue.schedule(t + gap, payload);
        }
        (n + 2 * HOLDS) as u64
    })
}
