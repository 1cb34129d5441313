//! Deterministic discrete-event simulation kernel.
//!
//! `sia-events` is the core layer under the cluster simulator: a simulation
//! clock plus a pending-event queue, with kernel-level telemetry. It knows
//! nothing about jobs, GPUs or schedulers — `sia-sim` builds its simulation
//! loop on top of it, and any future subsystem (network models, failure
//! injectors, autoscalers) can share the same kernel.
//!
//! Three guarantees shape the design:
//!
//! * **Deterministic ordering.** Events fire in `(time, priority, seq)`
//!   order: earlier timestamps first, then an explicit same-timestamp
//!   priority class from [`EventPayload::priority`], then FIFO by schedule
//!   order. `f64` timestamps are compared with `total_cmp`, so ordering is
//!   identical on every platform — no `PartialOrd` edge cases, no
//!   map-iteration dependence.
//! * **Serializable state.** [`Kernel::export`] captures the clock, the
//!   next sequence number and every live pending event; [`Kernel::import`]
//!   rebuilds a kernel that fires the same events in the same order.
//! * **Cheap cancellation.** [`Kernel::cancel`] is O(log n)-amortized lazy
//!   deletion: cancelled entries are skipped at pop time. Timers are
//!   rescheduled by cancelling and scheduling anew.
//!
//! Kernel telemetry (via `sia-telemetry`, visible in the JSONL sink when one
//! is attached): `events.scheduled`, `events.fired`, `events.cancelled`, and
//! a per-event-type counter `events.fired.<kind>` keyed by
//! [`EventPayload::kind`].

#![forbid(unsafe_code)]

mod kernel;
mod queue;
mod rng;
mod sample;

pub use kernel::{Event, EventId, EventPayload, Kernel, KernelState, QueuedEvent};
pub use queue::EventQueue;
pub use rng::{derive_stream_seed, StreamRngs};
pub use sample::exp_sample;
