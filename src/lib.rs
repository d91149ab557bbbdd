//! # faas-scheduling
//!
//! A full reproduction of **"Call Scheduling to Reduce Response Time of a
//! FaaS System"** (Żuk, Przybylski, Rzadca — IEEE CLUSTER 2022,
//! arXiv:2207.13168) as a Rust workspace: the paper's node-level scheduling
//! policies, an OpenWhisk-like simulation substrate calibrated to the
//! paper's testbed, and a harness regenerating every table and figure of
//! the evaluation.
//!
//! This crate is the umbrella: it re-exports the public API of every
//! workspace member under stable module names.
//!
//! ## Quick start
//!
//! ```
//! use faas_scheduling::prelude::*;
//!
//! // The SeBS workload of the paper (Table I).
//! let catalogue = Catalogue::sebs();
//!
//! // A 60-second burst at intensity 30 on a 10-core node (SSV-B).
//! let scenario = BurstScenario::standard(10, 30).generate(&catalogue, 42);
//!
//! // Run the paper's node with the SEPT policy...
//! let node = NodeConfig::paper(10);
//! let sept = simulate_scenario(
//!     &catalogue,
//!     &scenario,
//!     &NodeMode::Scheduled(SchedulerConfig::paper(Policy::Sept)),
//!     &node,
//!     42,
//! );
//! // ...and compare with unmodified OpenWhisk.
//! let baseline = simulate_scenario(&catalogue, &scenario, &NodeMode::Baseline, &node, 42);
//!
//! let avg = |r: &NodeResult| {
//!     let v: Vec<f64> = r.measured().map(|o| o.response_time().as_secs_f64()).collect();
//!     v.iter().sum::<f64>() / v.len() as f64
//! };
//! assert!(avg(&sept) > 0.0 && avg(&baseline) > 0.0);
//! ```
//!
//! ## Layout
//!
//! | Module | Workspace crate | Contents |
//! |--------|-----------------|----------|
//! | [`simcore`] | `faas-simcore` | Discrete-event kernel: time, RNG, distributions, statistics |
//! | [`cpu`] | `faas-cpu` | Dedicated-core and GPS processor models |
//! | [`workload`] | `faas-workload` | SeBS catalogue (Table I), burst/fairness scenarios |
//! | [`core`] | `faas-core` | The paper's contribution: policies, estimator, priority queue |
//! | [`invoker`] | `faas-invoker` | OpenWhisk invoker substrate: container pool, node simulations |
//! | [`cluster`] | `faas-cluster` | Controller, load balancers, multi-node engine |
//! | [`metrics`] | `faas-metrics` | Response/stretch aggregation, paper reference tables |

pub use faas_cluster as cluster;
pub use faas_core as core;
pub use faas_cpu as cpu;
pub use faas_invoker as invoker;
pub use faas_metrics as metrics;
pub use faas_simcore as simcore;
pub use faas_workload as workload;

/// The most commonly used items, for `use faas_scheduling::prelude::*`.
pub mod prelude {
    pub use faas_cluster::{run_cluster, ClusterConfig, ClusterScenario, LoadBalancer};
    pub use faas_core::{Policy, SchedulerConfig, SchedulerState};
    pub use faas_invoker::{simulate_calls, simulate_scenario, NodeConfig, NodeMode, NodeResult};
    pub use faas_metrics::summary::RunSummary;
    pub use faas_simcore::time::{SimDuration, SimTime};
    pub use faas_workload::scenario::{BurstScenario, FairnessScenario, Scenario};
    pub use faas_workload::sebs::{Catalogue, FuncId};
    pub use faas_workload::trace::{Call, CallKind, CallOutcome};
}
