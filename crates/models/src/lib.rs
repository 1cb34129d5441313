//! Performance models for DL training jobs.
//!
//! The Sia scheduler evaluates candidate resource assignments through
//! *goodput* — the product of system throughput (samples/second) and
//! statistical efficiency (progress per sample) introduced by Pollux and
//! reused by Sia. This crate implements:
//!
//! * [`throughput`] — the iteration-time model
//!   `T_iter = (T_grad^γ + T_sync^γ)^{1/γ}` with gradient accumulation,
//!   parameterised per `(job, GPU type)`;
//! * [`efficiency`] — the gradient-noise-scale statistical-efficiency model
//!   `EFF(M) = (φ + M₀) / (φ + M)`;
//! * [`goodput`] — batch-size/accumulation co-optimisation of goodput for a
//!   fixed allocation (§3.1 "Adaptive Executors");
//! * [`fit`] — derivative-free least-squares fitting of throughput
//!   parameters to online observations (Nelder–Mead in log-space);
//! * [`estimator`] — the scheduler-visible per-job estimator, including
//!   Sia's low-overhead bootstrap across GPU types (Eq. 1 of the paper) and
//!   the `Oracle` / `Bootstrap` / `NoProf` profiling modes of §5.7.

#![forbid(unsafe_code)]

pub mod efficiency;
pub mod estimator;
pub mod fit;
pub mod gns;
pub mod goodput;
pub mod throughput;

pub use efficiency::EfficiencyParams;
pub use estimator::{default_sync_prior, JobEstimator, Observation, ProfilingMode, TypeModelState};
pub use fit::{fit_throughput, nelder_mead, FitSample};
pub use gns::{measure_phi, synthesize_stats, GradientStats};
pub use goodput::{optimize_goodput, BatchLimits, GoodputPoint};
pub use throughput::{AllocShape, ShapeModel, ThroughputParams};
