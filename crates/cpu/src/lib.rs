//! # faas-cpu
//!
//! Processor models for the FaaS node simulations.
//!
//! The paper contrasts two CPU-allocation regimes on a worker node:
//!
//! * **Baseline OpenWhisk** (§III, §IV-A): every busy container receives a
//!   *soft* CPU share proportional to its memory limit; the OS preempts and
//!   time-slices freely when containers outnumber cores. We model this with
//!   [`gps::GpsCpu`] — generalized processor sharing with a per-task rate cap
//!   of one core (a single-threaded function cannot exceed one core even if
//!   its share allows it) and a context-switch overhead that shaves effective
//!   capacity as the run-queue oversubscribes the cores.
//!
//! * **The paper's approach** (§IV-A): at most `cores` busy containers, each
//!   pinned to exactly one core, no oversubscription and hence (almost) no
//!   OS preemption. No processor model is needed: `faas-invoker` caps the
//!   node's leased containers at the busy limit.
//!
//! The GPS model is a pure state machine over simulated time; the node
//! simulation in `faas-invoker` owns the event queue and drives it.

pub mod bench_support;
pub mod gps;
pub mod gps_reference;
pub mod schedule;

pub use gps::{GpsCpu, GpsParams, Resource, ResourceVector, TaskId};
pub use gps_reference::ReferenceGpsCpu;
pub use schedule::{ChurnOp, DifferentialPair, SignaturePool};
