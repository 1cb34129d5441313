//! Deterministic cluster-dynamics and fault-injection subsystem.
//!
//! The paper's elasticity evaluation (§5, Figures 11–12) has Sia
//! re-optimize as cluster composition changes mid-run. This crate supplies
//! the missing timeline: scripted, seed-stable **capacity events** —
//!
//! * node **add** (fresh nodes of an existing GPU kind appear),
//! * abrupt **remove** / kill (jobs evicted, losing progress since their
//!   last checkpoint),
//! * graceful **drain** (no new placements immediately; running jobs
//!   evicted with their progress intact once a grace window expires),
//! * per-node **degrade** / **restore** (straggler multipliers on true
//!   throughput) —
//!
//! expressed as a [`DynamicsScript`] (fluent builder or JSONL, one event
//! object per line) and compiled into a [`DynamicsRuntime`] that mutates a
//! versioned [`sia_cluster::ClusterView`] as simulation time advances.
//! Stochastic workloads come from [`generators`]: Poisson churn and
//! maintenance windows whose randomness is drawn once, at generation time,
//! from named `sia-events` RNG streams — the output is always a plain
//! deterministic script.
//!
//! The simulator drives [`DynamicsRuntime::poll`] from exact-time kernel
//! events, so capacity changes (and every eviction, restart and
//! re-placement they trigger) are identical across same-seed runs.

#![forbid(unsafe_code)]

pub mod generators;
mod runtime;
mod script;

pub use runtime::{CapacityChange, CapacityChangeKind, DynamicsRuntime};
pub use script::{CapacityEvent, DynamicsError, DynamicsScript, ScriptEntry};
