//! # faas-cluster
//!
//! The multi-node substrate: a controller that routes calls to worker nodes
//! (§III: "A controller manages other entities and routes actions
//! invocations to invokers, acting as a load balancer"), plus the
//! multi-node experiment engine of §VIII.
//!
//! Worker nodes do not interact with each other in OpenWhisk — each invoker
//! manages its own container pool and queue — so under a *static* routing
//! policy every node runs as if alone; feedback policies
//! ([`lb::LoadBalancer::JoinShortestQueue`] and its kin) and cross-node
//! failover couple the nodes through the controller. One
//! [`lb::Router`] routes under every policy, and one engine runs both:
//! the [`coupled`] window loop advances every node's resumable simulator in
//! conservative lock-step windows of width [`sim::ClusterConfig::lookahead`]
//! and routes at most one ingestion chunk per window (see the [`coupled`]
//! module docs for the protocol and its determinism argument).
//!
//! Every run takes one crate-private path ([`trace_run`]) that builds the
//! nodes, their warm-up and weights, reads the worker-thread count and
//! hands the arrivals to that loop. Three thin entry points feed it:
//!
//! * [`sim::run_cluster`] replays a materialized [`sim::ClusterScenario`]
//!   (the paper's fixed shared burst);
//! * [`trace_run::run_cluster_source`] runs any
//!   [`faas_workload::WorkloadSource`] — an analytic spec generated in
//!   parallel chunks, or a trace paged through a bounded read-ahead cursor,
//!   so a 10^8-call day streams through the cluster without ever being
//!   materialized;
//! * [`trace_run::run_cluster_source_per_node`] is the same run with one
//!   result per node.

pub mod coupled;
pub mod lb;
pub mod sim;
pub mod trace_run;

pub use lb::{LoadBalancer, NodeView, Router};
pub use sim::{run_cluster, ClusterConfig, ClusterScenario};
pub use trace_run::{run_cluster_source, run_cluster_source_per_node};
