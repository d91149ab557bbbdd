//! # faas-simcore
//!
//! Deterministic discrete-event simulation kernel shared by every other crate
//! in the workspace.
//!
//! The crate provides five building blocks:
//!
//! * [`time`] — integer-nanosecond simulated time ([`SimTime`], [`SimDuration`])
//!   with saturating arithmetic, so a simulation can never observe negative
//!   time or silently wrap.
//! * [`rng`] — a self-contained xoshiro256++ PRNG ([`rng::Xoshiro256`]) seeded
//!   via SplitMix64. Every random draw in the workspace flows through this
//!   generator, which makes every experiment bit-for-bit reproducible from a
//!   single `u64` seed.
//! * [`dist`] — the log-normal that models FaaS service times, fitted from
//!   the 5th/50th/95th percentiles published in the paper's Table I.
//! * [`events`] — a monotonic event queue ([`events::EventQueue`]) with a
//!   stable FIFO tie-break: a `std` binary heap of events that always pop,
//!   plus one re-armable timer (the baseline's GPS tick) that can be moved
//!   or withdrawn, so queue memory is bounded by the live event count.
//! * [`stats`] — percentile / box-plot / mean statistics used to aggregate
//!   response times and stretch exactly the way the paper reports them.
//!
//! The kernel is intentionally free of threads: a single simulation run is a
//! sequential event loop. Parallelism lives one level up (the experiment
//! harness runs independent seeds/configurations on a rayon pool), which keeps
//! the hot loop allocation-free and the results deterministic.

pub mod dist;
pub mod events;
pub mod rng;
pub mod stats;
pub mod time;

pub use dist::LogNormal;
pub use events::EventQueue;
pub use rng::Xoshiro256;
pub use time::{SimDuration, SimTime};
