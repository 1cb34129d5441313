//! The simulation loop: a steppable discrete-event driver on the
//! `sia-events` kernel.
//!
//! [`SimDriver`] is the only simulation loop. [`Simulator::run`] submits a
//! whole trace up front and drains the kernel; `sia-serve` submits jobs as
//! they arrive on a command stream and steps virtual time with
//! [`SimDriver::step_until`]; `sia-fleet` runs many [`Simulator::run`]s.
//! Instead of scanning every job at a fixed tick, the driver schedules
//! typed events and fast-forwards the clock between them:
//!
//! - `Arrival` — a queued job's submission instant. Only the earliest
//!   queued job not yet announced has one armed, so a daemon's submit is a
//!   queue insert, not a per-job heap entry. An arrival wakes a dormant
//!   round timer; the job itself is admitted by the next round,
//! - `Completion` — the exact instant a job's remaining work hits zero,
//! - `Failure` — a worker failure, sampled as an exponential inter-arrival
//!   process per placement,
//! - `RestartDone` — the instant a job finishes paying its checkpoint
//!   restore and resumes useful work,
//! - `Dynamics` — one or more scripted capacity events fall due,
//! - `RoundTimer` — the recurring scheduling round: admit every queued job
//!   whose submit time has passed, enforce capacity evictions, ask the
//!   policy, apply, and execute one round slice per placed job.
//!
//! Same-timestamp causality is encoded in event priorities: completions
//! happen-before failures happen-before arrivals happen-before restore
//! ends happen-before capacity changes happen-before the round. A job
//! submitted exactly at a boundary is admitted by that boundary's round.
//!
//! When nothing is runnable the timer goes dormant and produces no round;
//! the next arrival (or a failure that revives a finishing job) re-arms it
//! at the next boundary.
//!
//! ## Horizon
//!
//! [`Simulator::run`] puts the horizon ([`SimConfig::max_hours`]) in force
//! from the start: no round runs at or past it, failures past it are not
//! observed, and jobs due after the first boundary past it are never
//! admitted. A driver built with [`SimDriver::new`] has no horizon while it
//! is stepped, so a daemon keeps serving past `max_hours`; draining it with
//! [`SimDriver::run_to_idle`] puts the horizon in force, which bounds the
//! drain even when some job can never be placed.
//!
//! ## Determinism
//!
//! Scheduler-visible noise (bootstrap profiles, restart jitter, execution
//! noise, executor reports) comes from the `engine` stream, a ChaCha8
//! seeded with [`SimConfig::seed`]; failure gaps come from a separate
//! `failure` stream seeded with `derive_stream_seed(seed, "failure")`, so
//! turning failures on never perturbs the noise trajectories. Both streams
//! and the kernel's pending queue are part of a [`SimDriver::snapshot`],
//! so a restored driver emits exactly the records and draws the original
//! would have.
//!
//! [`Simulator::run`]: crate::Simulator::run

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde_json::{json, FromJson, ToJson, Value};
use sia_cluster::{ClusterSpec, ClusterView, FreeGpus, GpuTypeId, JobId, Placement};
use sia_dynamics::{CapacityChange, CapacityChangeKind, DynamicsRuntime};
use sia_events::{
    derive_stream_seed, exp_sample, EventId, EventPayload, Kernel, KernelState, QueuedEvent,
};
use sia_models::{JobEstimator, ProfilingMode};
use sia_telemetry::{
    AllocReason, AuditEvent, AuditRecorder, Counter, FlightRecorder, Gauge, TraceEvent,
};
use sia_workloads::JobSpec;

use crate::engine::{is_fallback, symmetric, JobState, SimConfig, Slice};
use crate::result::{DecisionInfo, JobRecord, RoundLog, SimResult, SolverStats};
use crate::scheduler::{AllocationMap, JobView, Scheduler};

/// Snapshot payload format version understood by [`SimDriver::restore`].
pub const SNAPSHOT_STATE_VERSION: u64 = 2;

/// Kernel event payloads; job indices refer to the admitted-jobs vector.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    /// The earliest not-yet-announced queued job reaches its submit time.
    Arrival,
    /// A job's remaining work reaches zero. `consumed` is the GPU time
    /// already charged for the slice ending here.
    Completion { job: usize, consumed: f64 },
    /// A worker failure under a job's current placement.
    Failure { job: usize },
    /// A job finishes its checkpoint-restore and resumes useful work.
    RestartDone { job: usize },
    /// One or more scripted capacity events fall due at this instant.
    Dynamics,
    /// The recurring scheduling round.
    RoundTimer,
}

impl EventPayload for Ev {
    fn kind(&self) -> &'static str {
        match self {
            Ev::Arrival => "arrival",
            Ev::Completion { .. } => "completion",
            Ev::Failure { .. } => "failure",
            Ev::RestartDone { .. } => "restart_done",
            Ev::Dynamics => "dynamics",
            Ev::RoundTimer => "round_timer",
        }
    }

    /// Same-timestamp order (see the module docs): a capacity event exactly
    /// at a boundary is visible to — and enforced by — that boundary's
    /// round.
    fn priority(&self) -> u8 {
        match self {
            Ev::Completion { .. } => 0,
            Ev::Failure { .. } => 1,
            Ev::Arrival => 2,
            Ev::RestartDone { .. } => 3,
            Ev::Dynamics => 4,
            Ev::RoundTimer => 5,
        }
    }
}

impl Ev {
    fn payload_json(self) -> Value {
        match self {
            Ev::Completion { job, consumed } => {
                json!({"kind": self.kind(), "job": job, "consumed": consumed})
            }
            Ev::Failure { job } | Ev::RestartDone { job } => {
                json!({"kind": self.kind(), "job": job})
            }
            Ev::Arrival | Ev::Dynamics | Ev::RoundTimer => json!({"kind": self.kind()}),
        }
    }

    /// Parses a payload, refusing job indices outside `0..jobs`. Dynamics
    /// events are refused too: the dynamics cursor is not serialized.
    fn parse(v: &Value, jobs: usize) -> Result<Ev, String> {
        let job = || -> Result<usize, String> {
            let j = v
                .get("job")
                .and_then(Value::as_u64)
                .ok_or("snapshot: event missing job")?;
            usize::try_from(j)
                .ok()
                .filter(|&j| j < jobs)
                .ok_or_else(|| format!("snapshot: event names job {j}, but only {jobs} exist"))
        };
        match v.get("kind").and_then(Value::as_str) {
            Some("arrival") => Ok(Ev::Arrival),
            Some("completion") => Ok(Ev::Completion {
                job: job()?,
                consumed: req_f64(v, "consumed")?,
            }),
            Some("failure") => Ok(Ev::Failure { job: job()? }),
            Some("restart_done") => Ok(Ev::RestartDone { job: job()? }),
            Some("round_timer") => Ok(Ev::RoundTimer),
            other => Err(format!("snapshot: unsupported event kind {other:?}")),
        }
    }
}

/// Pending kernel events of one admitted job, parallel to the jobs vector.
#[derive(Debug, Clone, Copy, Default)]
struct JobEvents {
    /// Completion within the current round slice, with the GPU time
    /// charged for that slice.
    completion: Option<(EventId, f64)>,
    /// Next failure under the current placement.
    failure: Option<EventId>,
    /// End of the restore paid in the current round slice.
    restart_done: Option<EventId>,
}

/// What one scheduling round did, for callers that translate driver
/// activity into service events.
#[derive(Debug, Clone, Default)]
pub struct RoundOutcome {
    /// Virtual time of the round boundary.
    pub time: f64,
    /// Per-job allocations in force after the apply pass, sorted by job id.
    pub allocations: Vec<(JobId, GpuTypeId, usize)>,
    /// Jobs whose placement changed this round, in apply order.
    pub changed: Vec<JobId>,
}

/// One thing the driver did while stepping, in simulated-time order.
#[derive(Debug, Clone)]
pub enum StepEvent {
    /// A scheduling round ran.
    Round(RoundOutcome),
    /// A job completed at its exact finish instant.
    Completed {
        /// The job.
        job: JobId,
        /// Finish instant, seconds.
        time: f64,
    },
}

/// Point-in-time health of the most recent *scheduled* round (one whose
/// policy reported solver stats), published through [`RoundWatch`].
#[derive(Debug, Clone, Default)]
pub struct RoundHealth {
    /// Virtual time of the round boundary.
    pub time: f64,
    /// Active jobs the policy saw.
    pub active: usize,
    /// Jobs that ended the round with an allocation.
    pub allocated: usize,
    /// Wall-clock seconds the whole scheduling pass took.
    pub policy_runtime_s: f64,
    /// Wall-clock seconds inside the solver proper.
    pub solve_s: f64,
    /// Relative optimality gap, when the solver reported bounds.
    pub gap_rel: Option<f64>,
    /// Branch-and-bound nodes expanded.
    pub nodes: usize,
    /// Branch-and-bound nodes pruned.
    pub nodes_pruned: usize,
    /// Whether the round was seeded from a warm-start incumbent.
    pub warm_seeded: bool,
    /// Whether the solver fell back to the greedy path.
    pub fallback: bool,
    /// MILP shards solved this round (0 = monolithic solve).
    pub shards: usize,
    /// Whether the per-round time budget expired before optimality was
    /// proven (the anytime incumbent was published instead).
    pub budget_exhausted: bool,
    /// Lagrangian pricing iterations run this round (0 when pricing
    /// didn't run).
    pub lagrangian_iters: usize,
    /// Duality gap left by the Lagrangian pricing pass.
    pub lagrangian_gap: f64,
}

/// Cloneable, thread-safe observation hook over a driver's round loop.
///
/// A stats listener thread holds one clone while the serving thread owns
/// the driver; the watch carries only runtime health — cumulative round
/// counters, the last scheduled round's [`RoundHealth`], and an
/// in-progress marker for stall detection. It is *not* part of snapshots:
/// counters restart from zero on [`SimDriver::restore`], matching the
/// uptime of the new process.
#[derive(Clone, Default)]
pub struct RoundWatch {
    inner: Arc<WatchInner>,
}

#[derive(Default)]
struct WatchInner {
    rounds: AtomicU64,
    scheduled_rounds: AtomicU64,
    warm_seeded_rounds: AtomicU64,
    fallback_rounds: AtomicU64,
    budget_exhausted_rounds: AtomicU64,
    in_round_since: Mutex<Option<Instant>>,
    last: Mutex<Option<RoundHealth>>,
}

impl RoundWatch {
    fn begin_round(&self) {
        *self.inner.in_round_since.lock().unwrap() = Some(Instant::now());
    }

    fn end_round(&self, health: Option<RoundHealth>) {
        self.inner.rounds.fetch_add(1, Ordering::Relaxed);
        if let Some(health) = health {
            self.inner.scheduled_rounds.fetch_add(1, Ordering::Relaxed);
            if health.warm_seeded {
                self.inner
                    .warm_seeded_rounds
                    .fetch_add(1, Ordering::Relaxed);
            }
            if health.fallback {
                self.inner.fallback_rounds.fetch_add(1, Ordering::Relaxed);
            }
            if health.budget_exhausted {
                self.inner
                    .budget_exhausted_rounds
                    .fetch_add(1, Ordering::Relaxed);
            }
            *self.inner.last.lock().unwrap() = Some(health);
        }
        *self.inner.in_round_since.lock().unwrap() = None;
    }

    /// How long the current round has been executing, if one is in
    /// flight. A long-running value is the stall signal a round-deadline
    /// watchdog checks.
    pub fn in_round_for(&self) -> Option<Duration> {
        self.inner
            .in_round_since
            .lock()
            .unwrap()
            .map(|t| t.elapsed())
    }

    /// Rounds executed since this process started (or restored). Idle
    /// boundaries (no active job) run no round and are not counted.
    pub fn rounds(&self) -> u64 {
        self.inner.rounds.load(Ordering::Relaxed)
    }

    /// Rounds whose policy reported solver stats.
    pub fn scheduled_rounds(&self) -> u64 {
        self.inner.scheduled_rounds.load(Ordering::Relaxed)
    }

    /// Scheduled rounds seeded from a warm-start incumbent.
    pub fn warm_seeded_rounds(&self) -> u64 {
        self.inner.warm_seeded_rounds.load(Ordering::Relaxed)
    }

    /// Scheduled rounds that took the greedy fallback path.
    pub fn fallback_rounds(&self) -> u64 {
        self.inner.fallback_rounds.load(Ordering::Relaxed)
    }

    /// Scheduled rounds whose per-round time budget expired before the
    /// solve proved optimality (anytime incumbent published instead).
    pub fn budget_exhausted_rounds(&self) -> u64 {
        self.inner.budget_exhausted_rounds.load(Ordering::Relaxed)
    }

    /// Warm-start hit rate over scheduled rounds, if any ran.
    pub fn warm_hit_ratio(&self) -> Option<f64> {
        let scheduled = self.scheduled_rounds();
        (scheduled > 0).then(|| self.warm_seeded_rounds() as f64 / scheduled as f64)
    }

    /// The most recent scheduled round's health, if any round ran.
    pub fn last(&self) -> Option<RoundHealth> {
        self.inner.last.lock().unwrap().clone()
    }
}

/// Result of a [`SimDriver::cancel`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CancelOutcome {
    /// The job was still queued; it never consumed resources.
    Pending,
    /// The job was active and has been terminated; `gpu_seconds` is what it
    /// consumed up to the cancellation instant.
    Active {
        /// GPU-seconds consumed before cancellation.
        gpu_seconds: f64,
    },
    /// The job already finished; nothing to cancel.
    Finished,
    /// No job with that id was ever submitted.
    NotFound,
}

/// Externally visible status of one submitted job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// Job id.
    pub id: JobId,
    /// True while the job sits in the not-yet-admitted queue.
    pub pending: bool,
    /// True once the job completed (or was cancelled).
    pub finished: bool,
    /// Fraction of the work target completed, in `[0, 1]`.
    pub progress: f64,
    /// GPUs currently held.
    pub gpus: usize,
    /// Placement changes so far.
    pub restarts: u32,
    /// GPU-seconds consumed so far.
    pub gpu_seconds: f64,
    /// Completion instant, if any.
    pub finish_time: Option<f64>,
}

/// Telemetry handles, looked up once per driver.
struct Meters {
    rounds: Counter,
    restarts: Counter,
    failures: Counter,
    churn: Counter,
    active: Gauge,
    queue: Gauge,
}

impl Meters {
    fn new() -> Self {
        Meters {
            rounds: sia_telemetry::counter("engine.rounds"),
            restarts: sia_telemetry::counter("engine.restarts"),
            failures: sia_telemetry::counter("engine.failures"),
            churn: sia_telemetry::counter("engine.alloc_churn"),
            active: sia_telemetry::gauge("engine.active_jobs"),
            queue: sia_telemetry::gauge("engine.queue_depth"),
        }
    }
}

/// The simulation loop: one cluster, one scheduler, jobs submitted over
/// time. See the module docs.
pub struct SimDriver {
    cfg: SimConfig,
    kernel: Kernel<Ev>,
    /// Scheduler-visible noise.
    engine_rng: ChaCha8Rng,
    /// Failure inter-arrival gaps.
    failure_rng: ChaCha8Rng,
    jobs: Vec<JobState>,
    job_events: Vec<JobEvents>,
    /// Submitted jobs not yet admitted, in admission order.
    pending: VecDeque<JobSpec>,
    /// Leading entries of `pending` whose arrival has fired; the next round
    /// admits exactly these.
    announced: usize,
    /// The armed arrival of `pending[announced]`, if any.
    arrival: Option<EventId>,
    /// The pending round timer and its boundary; `None` while dormant.
    timer: Option<(EventId, f64)>,
    dynamics: Option<DynamicsRuntime>,
    /// Capacity changes applied since the last round; the next round
    /// enforces their evictions.
    pending_changes: Vec<CapacityChange>,
    rounds: Vec<RoundLog>,
    makespan: f64,
    audit_round: u64,
    rec: FlightRecorder,
    audit: AuditRecorder,
    view: ClusterView,
    round: f64,
    /// No round runs at or past this instant (infinite while a stepped
    /// driver serves; see the module docs).
    horizon: f64,
    /// Last admissible submit time: the first round boundary at or past
    /// the horizon. Later arrivals are never armed.
    cutoff: f64,
    meters: Meters,
    watch: RoundWatch,
}

impl SimDriver {
    /// Creates an empty driver over `spec`, with no horizon until it is
    /// drained (see the module docs). The scheduler is consulted for the
    /// round duration and the recorder meta records.
    ///
    /// # Panics
    ///
    /// Panics if the round duration is not positive or `cfg.dynamics` is
    /// rejected by the cluster spec (validate scripts up front with
    /// [`sia_dynamics::DynamicsScript::validate`]).
    pub fn new(spec: ClusterSpec, cfg: SimConfig, sched: &dyn Scheduler) -> Self {
        Self::with_horizon(spec, cfg, sched, f64::INFINITY)
    }

    /// [`SimDriver::new`] with `horizon` (seconds) in force from the start.
    pub(crate) fn with_horizon(
        spec: ClusterSpec,
        cfg: SimConfig,
        sched: &dyn Scheduler,
        horizon: f64,
    ) -> Self {
        let round = sched.round_duration();
        assert!(round > 0.0, "round duration must be positive");
        let rec = cfg.flight_recorder(&spec, round);
        let audit = cfg.audit_recorder(sched.name(), round, sched.gap_tolerance());
        let view = ClusterView::new(spec);
        let dynamics = cfg.dynamics.as_ref().map(|s| {
            DynamicsRuntime::new(s, &view).expect("dynamics script rejected by cluster spec")
        });
        let seed = cfg.seed;
        let cutoff = round * (horizon / round).ceil();
        let mut kernel = Kernel::new();
        if let Some(rt) = &dynamics {
            // One kernel event per distinct op time up to the cutoff.
            let mut last = f64::NEG_INFINITY;
            for t in rt.op_times() {
                if t <= cutoff && t != last {
                    kernel.schedule_at(t, Ev::Dynamics);
                    last = t;
                }
            }
        }
        SimDriver {
            cfg,
            kernel,
            engine_rng: ChaCha8Rng::seed_from_u64(seed),
            failure_rng: ChaCha8Rng::seed_from_u64(derive_stream_seed(seed, "failure")),
            jobs: Vec::new(),
            job_events: Vec::new(),
            pending: VecDeque::new(),
            announced: 0,
            arrival: None,
            timer: None,
            dynamics,
            pending_changes: Vec::new(),
            rounds: Vec::new(),
            makespan: 0.0,
            audit_round: 0,
            rec,
            audit,
            view,
            round,
            horizon,
            cutoff,
            meters: Meters::new(),
            watch: RoundWatch::default(),
        }
    }

    /// Current virtual time, seconds.
    pub fn now(&self) -> f64 {
        self.kernel.now()
    }

    /// Scheduling-round duration, seconds.
    pub fn round_duration(&self) -> f64 {
        self.round
    }

    /// Instant of the next pending event, if any: when stepping next has
    /// something to do.
    pub fn next_event_time(&mut self) -> Option<f64> {
        self.kernel.peek_time()
    }

    /// Number of admitted, unfinished jobs.
    pub fn active_count(&self) -> usize {
        self.jobs.iter().filter(|j| !j.finished()).count()
    }

    /// Number of submitted jobs not yet admitted at a round boundary.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// A clone of the round-loop observation hook, for health endpoints
    /// and stall watchdogs running on other threads.
    pub fn round_watch(&self) -> RoundWatch {
        self.watch.clone()
    }

    /// The capacity view the scheduler sees, for capacity-shaped gauges.
    pub fn cluster(&self) -> &ClusterView {
        &self.view
    }

    /// Ids of submitted jobs not yet admitted, in admission order.
    pub fn pending_ids(&self) -> Vec<JobId> {
        self.pending.iter().map(|s| s.id).collect()
    }

    /// Flight-recorder ring evictions so far (see
    /// [`sia_telemetry::FlightRecorder::dropped`]).
    pub fn trace_dropped(&self) -> u64 {
        self.rec.dropped()
    }

    /// Audit-recorder ring evictions so far.
    pub fn audit_dropped(&self) -> u64 {
        self.audit.dropped()
    }

    /// Queues a job for admission at the first round boundary at or after
    /// its `submit_time`. Submissions with equal times are admitted in
    /// submission order. A submit is a queue insert: only the earliest
    /// queued job not yet announced holds an armed arrival.
    pub fn submit(&mut self, spec: JobSpec) {
        let key = spec.submit_time.max(0.0);
        let pos = self
            .pending
            .partition_point(|s| s.submit_time.max(0.0) <= key);
        self.pending.insert(pos, spec);
        if pos < self.announced {
            // Due before jobs already waiting for the pending round: it
            // joins them without an arrival of its own.
            self.announced += 1;
        } else if pos == self.announced {
            self.arm_arrival();
        }
    }

    /// Cancels a job. Pending jobs are silently dropped from the queue;
    /// active jobs are terminated at the current instant: their placement
    /// is released, their queued completion, failure and restore-end
    /// events are cancelled, and a `cancelled` lifecycle record is emitted.
    /// The part of the current round slice after the cancel is given back:
    /// its GPU time and the work it was credited with. Draws no RNG, so
    /// cancellations never perturb the noise stream of other jobs.
    pub fn cancel(&mut self, id: JobId) -> CancelOutcome {
        if let Some(pos) = self.pending.iter().position(|s| s.id == id) {
            self.pending.remove(pos);
            if pos < self.announced {
                self.announced -= 1;
            } else if pos == self.announced {
                self.arm_arrival();
            }
            return CancelOutcome::Pending;
        }
        let Some(i) = self.jobs.iter().position(|j| j.spec.id == id) else {
            return CancelOutcome::NotFound;
        };
        if self.jobs[i].finished() {
            return CancelOutcome::Finished;
        }
        let ev = std::mem::take(&mut self.job_events[i]);
        for e in [ev.completion.map(|(e, _)| e), ev.failure, ev.restart_done]
            .into_iter()
            .flatten()
        {
            self.kernel.cancel(e);
        }
        let now = self.kernel.now();
        let job = &mut self.jobs[i];
        let slice = std::mem::take(&mut job.slice);
        if slice.end > now {
            job.gpu_seconds -= job.placement.total_gpus() as f64 * (slice.end - now);
            job.work_done -= slice.rate * (slice.end - now.max(slice.work_from));
        }
        job.finish_time = Some(now);
        let held = !job.placement.is_empty();
        job.placement = Placement::empty();
        self.rec.record(now, TraceEvent::JobCancelled { job: id.0 });
        if held {
            self.rec.record(
                now,
                TraceEvent::AllocationChanged {
                    job: id.0,
                    gpu_type: None,
                    gpus: 0,
                    reason: AllocReason::Cancelled,
                    restart: false,
                },
            );
        }
        CancelOutcome::Active {
            gpu_seconds: job.gpu_seconds,
        }
    }

    /// Emits one `admission` audit record at the current instant: the typed
    /// outcome of an admission-control decision made by a service layer in
    /// front of this driver (accepted, rejected-with-reason, or a
    /// cancellation refund with a negative charge). Pure recording — the
    /// driver itself admits everything passed to [`SimDriver::submit`].
    pub fn record_admission(
        &mut self,
        job: u64,
        tenant: &str,
        accepted: bool,
        reason: &str,
        charge_gpu_hours: f64,
    ) {
        self.audit.record(
            self.kernel.now(),
            AuditEvent::Admission {
                job,
                tenant: tenant.to_string(),
                accepted,
                reason: reason.to_string(),
                charge_gpu_hours,
            },
        );
    }

    /// Status of a job by id, searching both the pending queue and the
    /// admitted set.
    pub fn job_status(&self, id: JobId) -> Option<JobStatus> {
        if let Some(spec) = self.pending.iter().find(|s| s.id == id) {
            return Some(JobStatus {
                id: spec.id,
                pending: true,
                finished: false,
                progress: 0.0,
                gpus: 0,
                restarts: 0,
                gpu_seconds: 0.0,
                finish_time: None,
            });
        }
        self.jobs
            .iter()
            .find(|j| j.spec.id == id)
            .map(|j| JobStatus {
                id: j.spec.id,
                pending: false,
                finished: j.finished(),
                progress: j.progress(),
                gpus: j.placement.total_gpus(),
                restarts: j.restarts,
                gpu_seconds: j.gpu_seconds,
                finish_time: j.finish_time,
            })
    }

    /// Fires every event due strictly before `t`, then moves the clock to
    /// `t` (replay pacing: a command at `t` sees everything before it, and
    /// a round at exactly `t` runs after it).
    pub fn step_until(&mut self, t: f64, sched: &mut dyn Scheduler) -> Vec<StepEvent> {
        let mut out = Vec::new();
        while self.kernel.peek_time().is_some_and(|next| next < t) {
            self.fire_next(sched, Some(&mut out));
        }
        if t.is_finite() {
            self.kernel.advance_to(t);
        }
        out
    }

    /// Drains: puts the horizon in force, then fires events until the
    /// queue is empty — every job finished (or left running at the horizon)
    /// and nothing admissible pending.
    pub fn run_to_idle(&mut self, sched: &mut dyn Scheduler) -> Vec<StepEvent> {
        self.close_horizon();
        let mut out = Vec::new();
        while self.fire_next(sched, Some(&mut out)) {}
        out
    }

    /// Finalizes the run into a [`SimResult`], consuming the driver. The
    /// scheduler is only consulted for its display name.
    pub fn finish(self, sched: &dyn Scheduler) -> SimResult {
        let records: Vec<JobRecord> = self
            .jobs
            .iter()
            .map(|j| JobRecord {
                id: j.spec.id,
                name: j.spec.name.clone(),
                model: j.spec.model,
                category: j.spec.category,
                submit_time: j.spec.submit_time,
                first_start: j.first_start,
                finish_time: j.finish_time,
                gpu_seconds: j.gpu_seconds,
                restarts: j.restarts,
                failures: j.failures,
                avg_contention: if j.contention_rounds > 0 {
                    j.contention_sum / j.contention_rounds as f64
                } else {
                    1.0
                },
                max_gpus: j.spec.max_gpus,
                work_target: j.spec.work_target,
                work_done: j.work_done,
            })
            .collect();
        SimResult {
            scheduler: sched.name(),
            unfinished: records.iter().filter(|r| r.finish_time.is_none()).count(),
            records,
            rounds: self.rounds,
            makespan: self.makespan,
            trace: self.rec.into_trace(),
            audit: self.audit.into_stream(),
        }
    }

    /// Re-attaches a flight-recorder spill file (snapshots never carry open
    /// file handles; a restored daemon opts back in here).
    pub fn attach_trace_spill(&mut self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        self.rec.attach_spill(path)
    }

    /// Re-attaches an audit-recorder spill file, same contract as
    /// [`SimDriver::attach_trace_spill`].
    pub fn attach_audit_spill(&mut self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        self.audit.attach_spill(path)
    }

    /// Keeps exactly one arrival armed: for `pending[announced]`, at its
    /// submit time (or now, if that has passed), unless it lies past the
    /// cutoff.
    fn arm_arrival(&mut self) {
        if let Some(e) = self.arrival.take() {
            self.kernel.cancel(e);
        }
        let Some(head) = self.pending.get(self.announced) else {
            return;
        };
        if head.submit_time <= self.cutoff {
            let t = head.submit_time.max(self.kernel.now());
            self.arrival = Some(self.kernel.schedule_at(t, Ev::Arrival));
        }
    }

    /// Arms a dormant round timer for the first boundary at or after now
    /// (a boundary exactly at now still works: the timer's priority places
    /// it after every other event at that instant). No timer is armed at
    /// or past the horizon.
    fn wake_timer(&mut self) {
        if self.timer.is_none() {
            let next = (self.kernel.now() / self.round).ceil() * self.round;
            if next < self.horizon {
                self.timer = Some((self.kernel.schedule_at(next, Ev::RoundTimer), next));
            }
        }
    }

    /// Cancels every queued failure: no later round will observe one.
    fn cancel_failures(&mut self) {
        for ev in &mut self.job_events {
            if let Some(f) = ev.failure.take() {
                self.kernel.cancel(f);
            }
        }
    }

    /// Puts the configured horizon in force on a driver that has none (a
    /// no-op for a batch run, which has it from the start): a pending round
    /// at or past it is dropped, with the failures only it would observe,
    /// and a queued job due past the new cutoff loses its arrival.
    fn close_horizon(&mut self) {
        let horizon = self.cfg.max_hours * 3600.0;
        if horizon >= self.horizon {
            return;
        }
        self.horizon = horizon;
        self.cutoff = self.round * (horizon / self.round).ceil();
        if let Some((t, at)) = self.timer {
            if at >= horizon {
                self.kernel.cancel(t);
                self.timer = None;
                self.cancel_failures();
            }
        }
        if self
            .pending
            .get(self.announced)
            .is_some_and(|head| head.submit_time > self.cutoff)
        {
            self.arm_arrival();
        }
    }

    /// Admits the announced prefix of the queue, in order, drawing each
    /// job's bootstrap-profiling noise.
    fn admit_announced(&mut self) {
        for spec in self.pending.drain(..self.announced) {
            let state = JobState::admit(
                spec,
                &self.cfg,
                self.view.spec(),
                &mut self.engine_rng,
                &mut self.rec,
            );
            self.jobs.push(state);
            self.job_events.push(JobEvents::default());
        }
        self.announced = 0;
    }

    /// Re-arms the failure process of job `i` for its current placement.
    fn arm_failure(&mut self, i: usize) {
        let gpus = self.jobs[i].placement.total_gpus();
        let lambda = self.cfg.failure_rate_per_gpu_hour * gpus as f64 / 3600.0;
        let gap = exp_sample(&mut self.failure_rng, lambda);
        if gap.is_finite() {
            self.job_events[i].failure = Some(self.kernel.schedule_in(gap, Ev::Failure { job: i }));
        }
    }

    /// Pops and handles the next event; `false` once the queue is empty.
    /// Rounds and completions are reported into `out` when given.
    pub(crate) fn fire_next(
        &mut self,
        sched: &mut dyn Scheduler,
        out: Option<&mut Vec<StepEvent>>,
    ) -> bool {
        let Some(ev) = self.kernel.pop() else {
            return false;
        };
        let now = ev.time;
        match ev.payload {
            Ev::Arrival => {
                self.arrival = None;
                debug_assert!(self.pending[self.announced].submit_time.max(0.0) <= now);
                self.announced += 1;
                self.arm_arrival();
                self.wake_timer();
                if self.timer.is_none() {
                    // Past the last round: no boundary will admit the job,
                    // so it is admitted (and left unscheduled) right away.
                    self.admit_announced();
                }
            }

            Ev::Completion { job, .. } => {
                let queued = &mut self.job_events[job];
                queued.completion = None;
                if let Some(f) = queued.failure.take() {
                    self.kernel.cancel(f);
                }
                let j = &mut self.jobs[job];
                j.finish_time = Some(now);
                j.placement = Placement::empty();
                self.makespan = self.makespan.max(now);
                self.rec
                    .record(now, TraceEvent::JobCompleted { job: j.spec.id.0 });
                self.rec.record(
                    now,
                    TraceEvent::AllocationChanged {
                        job: j.spec.id.0,
                        gpu_type: None,
                        gpus: 0,
                        reason: AllocReason::Completed,
                        restart: false,
                    },
                );
                if let Some(out) = out {
                    out.push(StepEvent::Completed {
                        job: j.spec.id,
                        time: now,
                    });
                }
            }

            Ev::Failure { job } => {
                self.job_events[job].failure = None;
                // Rounds stop at the horizon; failures past it can no
                // longer be observed.
                if now >= self.horizon
                    || self.jobs[job].finished()
                    || self.jobs[job].placement.is_empty()
                {
                    return true;
                }
                let round = self.round;
                let j = &mut self.jobs[job];
                j.failures += 1;
                self.meters.failures.incr();
                self.rec.record(
                    now,
                    TraceEvent::JobFailed {
                        job: j.spec.id.0,
                        count: 1,
                    },
                );
                if let Some((c, consumed)) = self.job_events[job].completion.take() {
                    // The failure pre-empts the scheduled finish: the job
                    // keeps its GPUs through the end of the round instead
                    // of releasing them at the completion instant.
                    self.kernel.cancel(c);
                    j.gpu_seconds += j.placement.total_gpus() as f64 * (round - consumed);
                    j.slice.end += round - consumed;
                }
                j.work_done = j.checkpointed_work;
                j.slice.rate = 0.0;
                j.restart_remaining =
                    (j.restart_remaining + j.truth.restart_delay).min(4.0 * round);
                self.arm_failure(job);
                // A cancelled completion can leave a running job with no
                // pending round; revive the timer.
                self.wake_timer();
            }

            // The restore instant itself carries no state change (the slice
            // accounting already paid for it).
            Ev::RestartDone { job } => {
                self.job_events[job].restart_done = None;
                debug_assert!(!self.jobs[job].finished(), "restart ended after finish");
                self.rec.record(
                    now,
                    TraceEvent::RestartFinished {
                        job: self.jobs[job].spec.id.0,
                    },
                );
            }

            Ev::Dynamics => {
                if let Some(rt) = self.dynamics.as_mut() {
                    let changes = rt.poll(now, &mut self.view);
                    record_capacity(&changes, &mut self.rec);
                    self.pending_changes.extend(changes);
                }
            }

            Ev::RoundTimer => {
                self.timer = None;
                self.on_round_timer(now, sched, out);
            }
        }
        true
    }

    /// One scheduling round at boundary `now`: admit, enforce capacity
    /// changes, schedule, apply, execute one slice per placed job, re-arm
    /// the timer. With no job active it does nothing more and leaves the
    /// timer dormant. The round's outcome is reported into `out` when
    /// given.
    fn on_round_timer(
        &mut self,
        now: f64,
        sched: &mut dyn Scheduler,
        out: Option<&mut Vec<StepEvent>>,
    ) {
        let round = self.round;
        self.admit_announced();
        // Enforce capacity changes observed since the last boundary: evict
        // jobs whose nodes were removed (kills also roll back to the last
        // checkpoint) before the scheduler sees the round's job views.
        if !self.pending_changes.is_empty() {
            let evicted = self.evict_for_capacity(now);
            self.meters.restarts.add(evicted);
            self.pending_changes.clear();
        }
        let active: Vec<usize> = (0..self.jobs.len())
            .filter(|&i| !self.jobs[i].finished())
            .collect();
        if active.is_empty() {
            return;
        }
        self.watch.begin_round();

        // Ask the policy for placements. The timer also covers the
        // validate/apply pass, so `policy_runtime` is the full per-round
        // scheduling cost.
        let round_t0 = Instant::now();
        let (alloc_map, solver_stats, decisions) = {
            let views: Vec<JobView<'_>> = active.iter().map(|&i| self.jobs[i].view(now)).collect();
            let map = {
                let _span = sia_telemetry::span("engine.schedule");
                sched.schedule(now, &views, &self.view)
            };
            (map, sched.round_stats(), sched.round_decisions())
        };
        let provenance: BTreeMap<JobId, DecisionInfo> =
            decisions.into_iter().map(|d| (d.job, d)).collect();
        self.record_audit_round(now, active.len(), &solver_stats);
        let contention = active.len();
        let applied = self.apply_allocations(
            &active,
            &alloc_map,
            now,
            is_fallback(&solver_stats),
            &provenance,
        );
        if solver_stats.is_some() {
            self.audit_round += 1;
        }
        // The failure process is per placement: reset it for every changed
        // job (after the apply pass; failures draw from their own stream).
        if self.cfg.failure_rate_per_gpu_hour > 0.0 {
            for &i in &applied.changed {
                if let Some(f) = self.job_events[i].failure.take() {
                    self.kernel.cancel(f);
                }
                if !self.jobs[i].placement.is_empty() {
                    self.arm_failure(i);
                }
            }
        }
        let policy_runtime = round_t0.elapsed().as_secs_f64();
        self.rec.record(
            now,
            TraceEvent::RoundScheduled {
                contention,
                policy_runtime,
            },
        );
        self.meters.rounds.incr();
        self.meters.restarts.add(applied.restarts);
        self.meters.churn.add(applied.churn);
        self.meters.active.set(active.len() as f64);
        self.meters
            .queue
            .set((contention - applied.allocations.len()) as f64);

        if let Some(out) = out {
            out.push(StepEvent::Round(RoundOutcome {
                time: now,
                allocations: applied.allocations.clone(),
                changed: applied
                    .changed
                    .iter()
                    .map(|&i| self.jobs[i].spec.id)
                    .collect(),
            }));
        }
        let health = solver_stats.as_ref().map(|s| RoundHealth {
            time: now,
            active: active.len(),
            allocated: applied.allocations.len(),
            policy_runtime_s: policy_runtime,
            solve_s: s.solve_s,
            gap_rel: s.gap_rel(),
            nodes: s.nodes,
            nodes_pruned: s.nodes_pruned,
            warm_seeded: s.incumbent_seed.is_some(),
            fallback: is_fallback(&solver_stats),
            shards: s.shards,
            budget_exhausted: s.budget_exhausted,
            lagrangian_iters: s.lagrangian_iters,
            lagrangian_gap: s.lagrangian_gap,
        });
        self.rounds.push(RoundLog {
            time: now,
            active_jobs: active.len(),
            contention,
            allocations: applied.allocations,
            policy_runtime,
            solver_stats,
        });

        // Execute one round slice per placed job. Jobs that finish within
        // the slice get an exact-time Completion event; their work is
        // committed eagerly so the executor report observes it.
        let execute_span = sia_telemetry::span("engine.execute");
        for &i in &active {
            if self.jobs[i].placement.is_empty() {
                continue;
            }
            let job = &mut self.jobs[i];
            let gpus = job.placement.total_gpus();
            let paid_restart = job.restart_remaining.min(round);
            job.restart_remaining -= paid_restart;
            let usable = round - paid_restart;
            let mut consumed = round; // GPU time held this round
            let mut rate = 0.0;

            if usable > 0.0 {
                if let Some((goodput, point, gpu_type)) = job.true_goodput(&self.view) {
                    let jittered = goodput
                        * (1.0 + self.cfg.execution_noise * symmetric(&mut self.engine_rng));
                    let jittered = jittered.max(0.0);
                    rate = jittered;
                    let needed = job.spec.work_target - job.work_done;
                    if jittered > 0.0 && needed <= jittered * usable {
                        let dt = needed / jittered;
                        // Evaluated as (now + paid) + dt.
                        let finish = now + paid_restart + dt;
                        consumed = paid_restart + dt;
                        job.work_done = job.spec.work_target;
                        let c = self
                            .kernel
                            .schedule_at(finish, Ev::Completion { job: i, consumed });
                        self.job_events[i].completion = Some((c, consumed));
                    } else {
                        job.work_done += jittered * usable;
                        job.advance_checkpoint();
                    }
                    // Executor report (throttled to one per round).
                    job.executor_report(
                        self.view.spec(),
                        self.cfg.measurement_noise,
                        gpu_type,
                        &point,
                        &mut self.engine_rng,
                    );
                }
            }
            job.slice = Slice {
                end: now + consumed,
                work_from: now + paid_restart,
                rate,
            };
            if paid_restart > 0.0 && usable > 0.0 {
                let r = self
                    .kernel
                    .schedule_at(now + paid_restart, Ev::RestartDone { job: i });
                self.job_events[i].restart_done = Some(r);
            }
            self.jobs[i].gpu_seconds += gpus as f64 * consumed;
        }
        drop(execute_span);

        // Next round, if anything will still be runnable: jobs with a
        // pending completion finish before the next boundary and don't
        // count.
        let runnable = active
            .iter()
            .any(|&i| !self.jobs[i].finished() && self.job_events[i].completion.is_none());
        if runnable {
            let next = now + round;
            if next < self.horizon {
                self.timer = Some((self.kernel.schedule_at(next, Ev::RoundTimer), next));
            } else {
                // Horizon reached: no further round will observe a failure.
                self.cancel_failures();
            }
        }
        self.watch.end_round(health);
    }

    /// Emits one audit `round` record from the policy's reported solver
    /// stats (no record when the policy tracks none — baselines produce
    /// meta-only streams).
    fn record_audit_round(&mut self, now: f64, contention: usize, stats: &Option<SolverStats>) {
        let Some(s) = stats else { return };
        self.audit.record(
            now,
            AuditEvent::Round {
                round: self.audit_round,
                contention,
                objective: s.objective,
                best_bound: s.best_bound,
                lp_objective: s.lp_objective,
                outcome: s.outcome.label().to_string(),
                nodes: s.nodes,
                pruned: s.nodes_pruned,
                first_incumbent_node: s.first_incumbent_node.map(|n| n as u64),
                first_incumbent_s: s.first_incumbent_s,
                seed_objective: s.incumbent_seed,
                warm_pivots_saved: s.warm_pivots_saved,
                solve_s: s.solve_s,
                shards: s.shards as u64,
                budget_exhausted: s.budget_exhausted,
                lagrangian_iters: s.lagrangian_iters as u64,
                lagrangian_gap: s.lagrangian_gap,
                lagrangian_norm: s.lagrangian_norm,
            },
        );
    }

    /// Validates and applies one round of placements. Draws restart jitter
    /// from the engine stream, one draw per fresh placement in job order,
    /// and emits the round's `alloc` / `restart_started` flight-recorder
    /// records.
    ///
    /// `fallback` tags this round's allocation changes as decided by a
    /// fallback heuristic (`ilp-infeasible-fallback`) rather than the
    /// policy's primary solve.
    ///
    /// Every allocation change additionally emits one audit `decision`
    /// record: the change's reason plus the chosen/best candidate values
    /// from `provenance` (zeroes when the policy reported none for the job).
    fn apply_allocations(
        &mut self,
        active: &[usize],
        alloc_map: &AllocationMap,
        now: f64,
        fallback: bool,
        provenance: &BTreeMap<JobId, DecisionInfo>,
    ) -> RoundApply {
        let apply_span = sia_telemetry::span("engine.apply");
        let view = &self.view;
        let spec = view.spec();
        // Only placeable capacity enters the pool; a kept placement's slots
        // on Draining nodes are skipped (nothing new can collide with them
        // there).
        let mut free = FreeGpus::for_view(view);
        let contention = active.len();
        let mut out = RoundApply {
            allocations: Vec::new(),
            restarts: 0,
            churn: 0,
            changed: Vec::new(),
        };
        for &i in active {
            let job = &mut self.jobs[i];
            let new = alloc_map
                .get(&job.spec.id)
                .cloned()
                .unwrap_or_else(Placement::empty);
            if !new.is_empty() {
                debug_assert!(
                    new.is_single_type(spec),
                    "scheduler placed {} on mixed GPU types",
                    job.spec.id
                );
                // Capacity-shrink audit: after the boundary's eviction sweep
                // no placement — kept or fresh — may reference a removed
                // node.
                debug_assert!(
                    !view.references_removed(&new),
                    "scheduler placed {} on a removed node",
                    job.spec.id
                );
                free.take_available(view, &new); // panics on over-commit: scheduler bug
            }
            if new != job.placement {
                out.churn += 1;
                out.changed.push(i);
                let restart = !job.placement.is_empty();
                if restart {
                    job.restarts += 1;
                    out.restarts += 1;
                }
                let reason = if fallback {
                    AllocReason::IlpInfeasibleFallback
                } else if new.is_empty() {
                    AllocReason::Preempted
                } else if job.placement.is_empty() {
                    AllocReason::Started
                } else if new.gpu_type(spec) != job.placement.gpu_type(spec) {
                    AllocReason::Migrated
                } else if new.total_gpus() > job.placement.total_gpus() {
                    AllocReason::ScaledUp
                } else if new.total_gpus() < job.placement.total_gpus() {
                    AllocReason::ScaledDown
                } else {
                    // Same type, same size, different nodes: a migration.
                    AllocReason::Migrated
                };
                self.rec.record(
                    now,
                    TraceEvent::AllocationChanged {
                        job: job.spec.id.0,
                        gpu_type: (!new.is_empty()).then(|| new.gpu_type(spec).0),
                        gpus: new.total_gpus(),
                        reason,
                        restart,
                    },
                );
                let d = provenance.get(&job.spec.id);
                self.audit.record(
                    now,
                    AuditEvent::Decision {
                        round: self.audit_round,
                        job: job.spec.id.0,
                        gpu_type: (!new.is_empty()).then(|| new.gpu_type(spec).0),
                        gpus: new.total_gpus(),
                        reason,
                        chosen_value: d.map_or(0.0, |d| d.chosen_value),
                        best_value: d.map_or(0.0, |d| d.best_value),
                    },
                );
                if !new.is_empty() {
                    let jitter = 1.0 + self.cfg.restart_jitter * symmetric(&mut self.engine_rng);
                    job.restart_remaining = job.truth.restart_delay * jitter.max(0.1);
                    // Every (re)placement pays a checkpoint restore,
                    // including the cold start.
                    self.rec.record(
                        now,
                        TraceEvent::RestartStarted {
                            job: job.spec.id.0,
                            checkpoint_cost: job.restart_remaining,
                        },
                    );
                    if job.first_start.is_none() {
                        job.first_start = Some(now);
                    }
                }
                job.placement = new;
            }
            if !job.placement.is_empty() {
                let t = job.placement.gpu_type(spec);
                out.allocations
                    .push((job.spec.id, t, job.placement.total_gpus()));
            }
            job.contention_sum += contention as f64;
            job.contention_rounds += 1;
        }
        drop(apply_span);
        // Deterministic log order: golden files and cross-platform diffs
        // must not depend on how the map handed out allocations.
        out.allocations.sort_unstable_by_key(|&(id, _, _)| id);
        out
    }

    /// Evicts every job whose placement touches a node removed by the
    /// pending capacity changes (abrupt kill or expired drain); returns how
    /// many. Kills also roll progress back to the last epoch checkpoint;
    /// drained jobs keep their work. No RNG is drawn here — the evicted job
    /// pays its restore when (and if) the scheduler re-places it, through
    /// the ordinary apply path.
    fn evict_for_capacity(&mut self, now: f64) -> u64 {
        let mut killed: Vec<usize> = Vec::new();
        let mut drained: Vec<usize> = Vec::new();
        for ch in self.pending_changes.iter().filter(|ch| ch.evicts()) {
            if ch.lose_progress() {
                killed.extend_from_slice(&ch.nodes);
            } else {
                drained.extend_from_slice(&ch.nodes);
            }
        }
        let mut evicted = 0u64;
        for job in &mut self.jobs {
            if job.finished() || job.placement.is_empty() {
                continue;
            }
            let lose = job.slots_touch(&killed);
            if !lose && !job.slots_touch(&drained) {
                continue;
            }
            if lose {
                job.work_done = job.checkpointed_work;
            }
            job.placement = Placement::empty();
            job.restarts += 1;
            evicted += 1;
            self.rec.record(
                now,
                TraceEvent::AllocationChanged {
                    job: job.spec.id.0,
                    gpu_type: None,
                    gpus: 0,
                    reason: AllocReason::CapacityLost,
                    restart: true,
                },
            );
            // Capacity loss is not a solver choice — the decision record
            // tags the change with zero candidate values so regret stays
            // untouched.
            self.audit.record(
                now,
                AuditEvent::Decision {
                    round: self.audit_round,
                    job: job.spec.id.0,
                    gpu_type: None,
                    gpus: 0,
                    reason: AllocReason::CapacityLost,
                    chosen_value: 0.0,
                    best_value: 0.0,
                },
            );
        }
        evicted
    }

    /// Serializes the complete driver state — both RNG streams, the
    /// kernel's pending queue, capacity view, per-job truth-independent
    /// state (estimators included), pending queue, both recorder rings and
    /// the scheduler's durable state — into one JSON value.
    /// [`SimDriver::restore`] rebuilds a driver that emits exactly the
    /// records and RNG draws the original would have emitted next.
    ///
    /// The per-round log ([`SimResult::rounds`]) is deliberately not
    /// captured: it is reporting output, not evolution state, and a
    /// restored daemon's result only carries post-restore rounds.
    ///
    /// Fails when the driver runs a capacity-dynamics script: the script's
    /// cursor is not serialized.
    pub fn snapshot(&self, sched: &dyn Scheduler) -> Result<Value, String> {
        if self.dynamics.is_some() {
            return Err("snapshot: capacity dynamics cannot be snapshotted".into());
        }
        let state = self.kernel.export();
        let events: Vec<Value> = state
            .events
            .iter()
            .map(|e| {
                Value::Array(vec![
                    Value::Float(e.time),
                    Value::from(u64::from(e.priority)),
                    bits(e.seq),
                    e.payload.payload_json(),
                ])
            })
            .collect();
        Ok(json!({
            "version": SNAPSHOT_STATE_VERSION,
            "makespan": self.makespan,
            "audit_round": bits(self.audit_round),
            "round_duration": self.round,
            "horizon": opt_f64(self.horizon.is_finite().then_some(self.horizon)),
            "config": config_to_json(&self.cfg),
            "kernel": json!({
                "clock": state.clock,
                "next_seq": bits(state.next_seq),
                "events": events,
            }),
            "rngs": json!({
                "engine": rng_to_json(&self.engine_rng),
                "failure": rng_to_json(&self.failure_rng),
            }),
            "cluster": self.view.to_json(),
            "jobs": self.jobs.iter().map(job_to_json).collect::<Vec<Value>>(),
            "pending": self.pending.iter().map(ToJson::to_json).collect::<Vec<Value>>(),
            "announced": self.announced,
            "trace_recorder": self.rec.export_state(),
            "audit_recorder": self.audit.export_state(),
            "scheduler": sched.export_state().unwrap_or(Value::Null),
        }))
    }

    /// Rebuilds a driver from a [`SimDriver::snapshot`] payload, feeding
    /// the captured policy state into `sched` via
    /// [`Scheduler::import_state`]. Spill files are not re-attached (see
    /// [`SimDriver::attach_trace_spill`]). Fails — never panics — on a
    /// version mismatch, a malformed payload, a placement that does not fit
    /// the restored cluster, a queued event that names a missing job or
    /// lies before the clock, or a scheduler whose round duration disagrees
    /// with the snapshot.
    pub fn restore(payload: &Value, sched: &mut dyn Scheduler) -> Result<Self, String> {
        let version = payload
            .get("version")
            .and_then(Value::as_u64)
            .ok_or("snapshot: missing version")?;
        if version != SNAPSHOT_STATE_VERSION {
            return Err(format!(
                "snapshot: state version {version} unsupported (expected {SNAPSHOT_STATE_VERSION})"
            ));
        }
        let round = req_f64(payload, "round_duration")?;
        if round != sched.round_duration() {
            return Err(format!(
                "snapshot: round duration {round}s does not match the scheduler's {}s",
                sched.round_duration()
            ));
        }
        let cfg = config_from_json(payload.get("config").ok_or("snapshot: missing config")?)?;
        let view =
            ClusterView::from_json(payload.get("cluster").ok_or("snapshot: missing cluster")?)
                .map_err(|e| format!("snapshot: bad cluster view: {e}"))?;
        let rngs = payload.get("rngs").ok_or("snapshot: missing rngs")?;
        let engine_rng = rng_from_json(rngs.get("engine").ok_or("snapshot: missing engine rng")?)?;
        let failure_rng =
            rng_from_json(rngs.get("failure").ok_or("snapshot: missing failure rng")?)?;
        let jobs = payload
            .get("jobs")
            .and_then(Value::as_array)
            .ok_or("snapshot: missing jobs")?
            .iter()
            .map(|v| job_from_json(v, view.spec()))
            .collect::<Result<Vec<JobState>, String>>()?;
        let pending = payload
            .get("pending")
            .and_then(Value::as_array)
            .ok_or("snapshot: missing pending")?
            .iter()
            .map(|v| JobSpec::from_json(v).map_err(|e| format!("snapshot: bad pending job: {e}")))
            .collect::<Result<VecDeque<JobSpec>, String>>()?;
        let announced = payload
            .get("announced")
            .and_then(Value::as_u64)
            .and_then(|a| usize::try_from(a).ok())
            .filter(|&a| a <= pending.len())
            .ok_or("snapshot: missing or out-of-range announced count")?;
        let kernel = kernel_from_json(
            payload.get("kernel").ok_or("snapshot: missing kernel")?,
            jobs.len(),
        )?;
        // Rebuild the event handles from the queue itself.
        let mut job_events = vec![JobEvents::default(); jobs.len()];
        let (mut arrival, mut timer) = (None, None);
        for e in kernel.export().events {
            let id = Some(e.id());
            match e.payload {
                Ev::Arrival => arrival = id,
                Ev::RoundTimer => timer = Some((e.id(), e.time)),
                Ev::Completion { job, consumed } => {
                    job_events[job].completion = Some((e.id(), consumed));
                }
                Ev::Failure { job } => job_events[job].failure = id,
                Ev::RestartDone { job } => job_events[job].restart_done = id,
                Ev::Dynamics => unreachable!("refused by the payload parser"),
            }
        }
        if arrival.is_some() && announced >= pending.len() {
            return Err("snapshot: queued arrival without a queued job".into());
        }
        let rec = FlightRecorder::from_state(
            payload
                .get("trace_recorder")
                .ok_or("snapshot: missing trace recorder")?,
        )
        .map_err(|e| format!("snapshot: bad trace recorder: {e}"))?;
        let audit = AuditRecorder::from_state(
            payload
                .get("audit_recorder")
                .ok_or("snapshot: missing audit recorder")?,
        )
        .map_err(|e| format!("snapshot: bad audit recorder: {e}"))?;
        if let Some(state) = payload.get("scheduler") {
            if !state.is_null() {
                sched.import_state(state);
            }
        }
        let horizon = match payload.get("horizon") {
            Some(Value::Null) => f64::INFINITY,
            _ => req_f64(payload, "horizon")?,
        };
        if horizon.is_nan() || horizon <= 0.0 {
            return Err(format!("snapshot: horizon {horizon} is not valid"));
        }
        Ok(SimDriver {
            cfg,
            kernel,
            engine_rng,
            failure_rng,
            jobs,
            job_events,
            pending,
            announced,
            arrival,
            timer,
            dynamics: None,
            pending_changes: Vec::new(),
            rounds: Vec::new(),
            makespan: req_f64(payload, "makespan")?,
            audit_round: req_bits(payload, "audit_round")?,
            rec,
            audit,
            view,
            round,
            horizon,
            cutoff: round * (horizon / round).ceil(),
            meters: Meters::new(),
            watch: RoundWatch::default(),
        })
    }
}

/// What one round's validate/apply pass produced.
struct RoundApply {
    /// Per-job allocations after the round, sorted by job id.
    allocations: Vec<(JobId, GpuTypeId, usize)>,
    /// Jobs whose running placement was replaced (restart count delta).
    restarts: u64,
    /// Jobs whose placement changed at all.
    churn: u64,
    /// Indices (into `jobs`) of the changed jobs, in apply order — the
    /// driver re-arms per-placement failure processes from this.
    changed: Vec<usize>,
}

/// Records one flight-recorder event per applied capacity change, stamped
/// with the *scripted* event time.
fn record_capacity(changes: &[CapacityChange], rec: &mut FlightRecorder) {
    for ch in changes {
        let ev = match ch.kind {
            CapacityChangeKind::Added => TraceEvent::CapacityAdded {
                gpu_type: ch.gpu_type.0,
                nodes: ch.nodes.len(),
                gpus: ch.gpus,
            },
            CapacityChangeKind::Removed => TraceEvent::CapacityRemoved {
                gpu_type: ch.gpu_type.0,
                nodes: ch.nodes.len(),
                gpus: ch.gpus,
                graceful: false,
            },
            CapacityChangeKind::DrainFinished => TraceEvent::CapacityRemoved {
                gpu_type: ch.gpu_type.0,
                nodes: ch.nodes.len(),
                gpus: ch.gpus,
                graceful: true,
            },
            CapacityChangeKind::DrainStarted => TraceEvent::DrainStarted {
                gpu_type: ch.gpu_type.0,
                nodes: ch.nodes.len(),
                gpus: ch.gpus,
            },
            CapacityChangeKind::Degraded => TraceEvent::NodeDegraded {
                gpu_type: ch.gpu_type.0,
                nodes: ch.nodes.len(),
                factor: ch.factor,
            },
            CapacityChangeKind::Restored => TraceEvent::NodeDegraded {
                gpu_type: ch.gpu_type.0,
                nodes: ch.nodes.len(),
                factor: 1.0,
            },
        };
        rec.record(ch.time, ev);
    }
}

/// Encodes a full-range `u64` as its `i64` bit pattern (the compat JSON
/// integer is `i64`; RNG words exceed its positive range about half the
/// time).
fn bits(v: u64) -> Value {
    Value::Int(v as i64)
}

/// Decodes a [`bits`]-encoded integer.
fn unbits(v: &Value) -> Option<u64> {
    v.as_i64().map(|i| i as u64)
}

fn req_f64(v: &Value, name: &str) -> Result<f64, String> {
    v.get(name)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("snapshot: missing {name}"))
}

fn req_bits(v: &Value, name: &str) -> Result<u64, String> {
    v.get(name)
        .and_then(unbits)
        .ok_or_else(|| format!("snapshot: missing {name}"))
}

fn opt_f64(v: Option<f64>) -> Value {
    v.map(Value::Float).unwrap_or(Value::Null)
}

fn config_to_json(cfg: &SimConfig) -> Value {
    json!({
        "profiling_mode": cfg.profiling_mode.to_json(),
        "seed": bits(cfg.seed),
        "measurement_noise": cfg.measurement_noise,
        "execution_noise": cfg.execution_noise,
        "restart_jitter": cfg.restart_jitter,
        "max_hours": cfg.max_hours,
        "profiling_gpu_seconds": cfg.profiling_gpu_seconds,
        "failure_rate_per_gpu_hour": cfg.failure_rate_per_gpu_hour,
        "trace_capacity": cfg.trace_capacity,
        "audit_capacity": cfg.audit_capacity,
    })
}

fn config_from_json(v: &Value) -> Result<SimConfig, String> {
    let profiling_mode = ProfilingMode::from_json(
        v.get("profiling_mode")
            .ok_or("snapshot: missing profiling_mode")?,
    )
    .map_err(|e| format!("snapshot: bad profiling_mode: {e}"))?;
    let cap = |name: &str| -> Result<usize, String> {
        let raw = v
            .get(name)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("snapshot: missing {name}"))?;
        usize::try_from(raw).map_err(|_| format!("snapshot: {name} out of range"))
    };
    Ok(SimConfig {
        profiling_mode,
        seed: req_bits(v, "seed")?,
        measurement_noise: req_f64(v, "measurement_noise")?,
        execution_noise: req_f64(v, "execution_noise")?,
        restart_jitter: req_f64(v, "restart_jitter")?,
        max_hours: req_f64(v, "max_hours")?,
        profiling_gpu_seconds: req_f64(v, "profiling_gpu_seconds")?,
        failure_rate_per_gpu_hour: req_f64(v, "failure_rate_per_gpu_hour")?,
        trace_capacity: cap("trace_capacity")?,
        trace_spill: None,
        audit_capacity: cap("audit_capacity")?,
        audit_spill: None,
        dynamics: None,
    })
}

fn rng_to_json(rng: &ChaCha8Rng) -> Value {
    let (key, counter, buf, idx) = rng.export_state();
    json!({
        "key": key.to_vec(),
        "counter": bits(counter),
        "buf": buf.iter().map(|&w| bits(w)).collect::<Vec<Value>>(),
        "idx": idx,
    })
}

fn rng_from_json(v: &Value) -> Result<ChaCha8Rng, String> {
    let key_raw = v
        .get("key")
        .and_then(Value::as_array)
        .ok_or("snapshot: missing rng key")?;
    if key_raw.len() != 8 {
        return Err("snapshot: rng key must have 8 words".into());
    }
    let mut key = [0u32; 8];
    for (slot, w) in key.iter_mut().zip(key_raw) {
        let raw = w.as_u64().ok_or("snapshot: bad rng key word")?;
        *slot = u32::try_from(raw).map_err(|_| "snapshot: rng key word out of range")?;
    }
    let counter = v
        .get("counter")
        .and_then(unbits)
        .ok_or("snapshot: missing rng counter")?;
    let buf_raw = v
        .get("buf")
        .and_then(Value::as_array)
        .ok_or("snapshot: missing rng buf")?;
    if buf_raw.len() != 8 {
        return Err("snapshot: rng buf must have 8 words".into());
    }
    let mut buf = [0u64; 8];
    for (slot, w) in buf.iter_mut().zip(buf_raw) {
        *slot = unbits(w).ok_or("snapshot: bad rng buf word")?;
    }
    let idx = v
        .get("idx")
        .and_then(Value::as_u64)
        .ok_or("snapshot: missing rng idx")?;
    let idx = usize::try_from(idx).map_err(|_| "snapshot: rng idx out of range")?;
    if idx > 8 {
        return Err("snapshot: rng idx out of range".into());
    }
    Ok(ChaCha8Rng::from_state(key, counter, buf, idx))
}

/// Parses the kernel's pending queue; [`Kernel::import`] refuses event
/// times that are not finite or lie before the clock.
fn kernel_from_json(v: &Value, jobs: usize) -> Result<Kernel<Ev>, String> {
    let events = v
        .get("events")
        .and_then(Value::as_array)
        .ok_or("snapshot: missing kernel events")?
        .iter()
        .map(|e| {
            let Some([time, priority, seq, payload]) = e.as_array().map(Vec::as_slice) else {
                return Err("snapshot: kernel event must be [time, priority, seq, payload]".into());
            };
            Ok(QueuedEvent {
                time: time.as_f64().ok_or("snapshot: bad kernel event time")?,
                priority: priority
                    .as_u64()
                    .and_then(|p| u8::try_from(p).ok())
                    .ok_or("snapshot: bad kernel event priority")?,
                seq: unbits(seq).ok_or("snapshot: bad kernel event seq")?,
                payload: Ev::parse(payload, jobs)?,
            })
        })
        .collect::<Result<Vec<QueuedEvent<Ev>>, String>>()?;
    // One armed arrival and one timer at most; per job, one event of each
    // kind at most.
    let mut seen = std::collections::BTreeSet::new();
    for e in &events {
        let key = match e.payload {
            Ev::Completion { job, .. } | Ev::Failure { job } | Ev::RestartDone { job } => {
                (e.payload.kind(), job)
            }
            other => (other.kind(), usize::MAX),
        };
        if !seen.insert(key) {
            return Err(format!("snapshot: duplicate queued {} event", key.0));
        }
    }
    Kernel::import(KernelState {
        clock: req_f64(v, "clock")?,
        next_seq: req_bits(v, "next_seq")?,
        events,
    })
    .map_err(|e| format!("snapshot: bad kernel queue: {e}"))
}

fn job_to_json(j: &JobState) -> Value {
    json!({
        "spec": j.spec.to_json(),
        "estimator": j.estimator.to_json(),
        "placement": j.placement.slots.clone(),
        "restart_remaining": j.restart_remaining,
        "work_done": j.work_done,
        "checkpointed_work": j.checkpointed_work,
        "restarts": j.restarts,
        "failures": j.failures,
        "first_start": opt_f64(j.first_start),
        "finish_time": opt_f64(j.finish_time),
        "gpu_seconds": j.gpu_seconds,
        "contention_sum": j.contention_sum,
        "contention_rounds": bits(j.contention_rounds),
        "slice": [j.slice.end, j.slice.work_from, j.slice.rate],
    })
}

fn job_from_json(v: &Value, cluster: &ClusterSpec) -> Result<JobState, String> {
    let spec = JobSpec::from_json(v.get("spec").ok_or("snapshot: job missing spec")?)
        .map_err(|e| format!("snapshot: bad job spec: {e}"))?;
    let estimator = JobEstimator::from_json(
        v.get("estimator")
            .ok_or("snapshot: job missing estimator")?,
    )
    .map_err(|e| format!("snapshot: bad estimator: {e}"))?;
    let slots = v
        .get("placement")
        .and_then(Value::as_array)
        .ok_or("snapshot: job missing placement")?
        .iter()
        .map(|s| {
            let pair = s.as_array().filter(|a| a.len() == 2);
            let node = pair.and_then(|a| a[0].as_u64());
            let gpus = pair.and_then(|a| a[1].as_u64());
            let (Some(n), Some(g)) = (node, gpus) else {
                return Err("snapshot: bad placement slot".to_string());
            };
            // Placements index the node table directly; refuse any slot
            // the restored cluster cannot hold.
            let capacity = usize::try_from(n)
                .ok()
                .and_then(|n| cluster.nodes().get(n))
                .map(|node| node.num_gpus)
                .ok_or_else(|| format!("snapshot: placement names node {n} outside the cluster"))?;
            match usize::try_from(g) {
                Ok(g) if (1..=capacity).contains(&g) => Ok((n as usize, g)),
                _ => Err(format!(
                    "snapshot: placement slot holds {g} GPUs on a node of {capacity}"
                )),
            }
        })
        .collect::<Result<Vec<(usize, usize)>, String>>()?;
    let count_u32 = |name: &str| -> Result<u32, String> {
        let raw = v
            .get(name)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("snapshot: job missing {name}"))?;
        u32::try_from(raw).map_err(|_| format!("snapshot: job {name} out of range"))
    };
    // The hidden true model is a pure function of the spec and the cluster;
    // re-deriving it keeps truths out of the on-disk payload entirely.
    let truth = spec.model.profile().true_model(cluster);
    let slice = match v.get("slice").and_then(Value::as_array).map(Vec::as_slice) {
        Some([end, work_from, rate]) => Slice {
            end: end.as_f64().ok_or("snapshot: bad job slice")?,
            work_from: work_from.as_f64().ok_or("snapshot: bad job slice")?,
            rate: rate.as_f64().ok_or("snapshot: bad job slice")?,
        },
        _ => return Err("snapshot: job slice must be [end, work_from, rate]".into()),
    };
    Ok(JobState {
        truth,
        estimator,
        placement: Placement::new(slots),
        restart_remaining: req_f64(v, "restart_remaining")?,
        work_done: req_f64(v, "work_done")?,
        checkpointed_work: req_f64(v, "checkpointed_work")?,
        restarts: count_u32("restarts")?,
        failures: count_u32("failures")?,
        first_start: v.get("first_start").and_then(Value::as_f64),
        finish_time: v.get("finish_time").and_then(Value::as_f64),
        gpu_seconds: req_f64(v, "gpu_seconds")?,
        contention_sum: req_f64(v, "contention_sum")?,
        contention_rounds: req_bits(v, "contention_rounds")?,
        slice,
        spec,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use sia_cluster::Configuration;
    use sia_workloads::{Trace, TraceConfig, TraceKind};

    /// One GPU per job, first-fit, placements kept until completion.
    struct OneGpuEach;

    impl Scheduler for OneGpuEach {
        fn name(&self) -> &'static str {
            "one-gpu-each"
        }

        fn schedule(
            &mut self,
            _now: f64,
            jobs: &[JobView<'_>],
            cluster: &ClusterView,
        ) -> AllocationMap {
            let spec = cluster.spec();
            let mut free = FreeGpus::for_view(cluster);
            let mut out = AllocationMap::new();
            for j in jobs {
                if !j.current.is_empty() {
                    free.take_available(cluster, j.current);
                    out.insert(j.id, j.current.clone());
                    continue;
                }
                for t in spec.gpu_types() {
                    if j.gpus_per_replica(spec, t) == Some(1) {
                        if let Ok(p) = free.place(spec, &Configuration::new(1, 1, t)) {
                            out.insert(j.id, p);
                            break;
                        }
                    }
                }
            }
            out
        }
    }

    fn tiny_trace(n: usize) -> Trace {
        let mut t = Trace::generate(&TraceConfig::new(TraceKind::Philly, 3));
        t.jobs.truncate(n);
        for j in &mut t.jobs {
            j.work_target *= 0.02;
        }
        t
    }

    fn new_driver(cfg: &SimConfig) -> SimDriver {
        SimDriver::new(ClusterSpec::heterogeneous_64(), cfg.clone(), &OneGpuEach)
    }

    /// Daemon-style run: each job submitted when virtual time reaches it.
    fn stepped_run(trace: &Trace, cfg: &SimConfig) -> SimResult {
        let mut sched = OneGpuEach;
        let mut drv = new_driver(cfg);
        for j in &trace.jobs {
            drv.step_until(j.submit_time, &mut sched);
            drv.submit(j.clone());
        }
        drv.run_to_idle(&mut sched);
        drv.finish(&sched)
    }

    fn assert_same_run(a: &SimResult, b: &SimResult) {
        assert_eq!(a.records.len(), b.records.len());
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.finish_time, y.finish_time, "job {} finish", x.id);
            assert_eq!(x.gpu_seconds, y.gpu_seconds, "job {} gpu-s", x.id);
            assert_eq!(x.restarts, y.restarts, "job {} restarts", x.id);
            assert_eq!(x.work_done, y.work_done, "job {} work", x.id);
        }
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.trace.canonical_jsonl(), b.trace.canonical_jsonl());
        assert_eq!(a.audit.canonical_jsonl(), b.audit.canonical_jsonl());
    }

    #[test]
    fn stepped_submission_matches_the_batch_run() {
        let trace = tiny_trace(10);
        for cfg in [SimConfig::default(), SimConfig::physical(7)] {
            let batch = Simulator::new(ClusterSpec::heterogeneous_64(), &trace, cfg.clone())
                .run(&mut OneGpuEach);
            let stepped = stepped_run(&trace, &cfg);
            assert_eq!(stepped.unfinished, 0, "workload must complete");
            assert_same_run(&stepped, &batch);
        }
    }

    #[test]
    fn daemon_submits_stay_queue_inserts() {
        // A burst of submits inside one round: no job state is built and
        // at most one arrival (plus the round timer) sits in the kernel.
        let template = tiny_trace(1).jobs[0].clone();
        let mut sched = OneGpuEach;
        let mut drv = new_driver(&SimConfig::default());
        for i in 0..1_000u64 {
            let mut job = template.clone();
            job.id = JobId(i);
            job.submit_time = 1.0 + i as f64 * 0.05;
            drv.step_until(job.submit_time, &mut sched);
            drv.submit(job);
            assert!(drv.kernel.len() <= 2, "{} queued events", drv.kernel.len());
        }
        assert!(drv.jobs.is_empty());
        assert_eq!(drv.pending_count(), 1_000);
        // The round at 60 s admits every job submitted before it.
        drv.step_until(60.5, &mut sched);
        assert_eq!(drv.pending_count(), 0);
        assert_eq!(drv.jobs.len(), 1_000);
    }

    #[test]
    fn stepping_serves_past_the_horizon_and_the_drain_stops_at_it() {
        let mut trace = tiny_trace(1);
        trace.jobs[0].work_target *= 1e9; // never finishes
        trace.jobs[0].submit_time = 0.0;
        let cfg = SimConfig {
            max_hours: 0.5, // 30 rounds of 60 s
            failure_rate_per_gpu_hour: 1.0,
            ..SimConfig::default()
        };
        let mut sched = OneGpuEach;
        let mut drv = new_driver(&cfg);
        drv.submit(trace.jobs[0].clone());
        drv.step_until(7200.0, &mut sched);
        assert_eq!(drv.rounds.len(), 120, "stepping stopped at the horizon");
        let mut late = tiny_trace(2).jobs[1].clone();
        late.submit_time = 7200.0;
        drv.submit(late.clone());
        drv.step_until(7260.5, &mut sched);
        assert_eq!(drv.pending_count(), 0, "a late submit was not admitted");
        // Draining past the horizon runs no further round and terminates
        // although the first job can never finish.
        late.id = JobId(999);
        drv.submit(late);
        let events = drv.run_to_idle(&mut sched);
        assert!(events.iter().all(|e| !matches!(e, StepEvent::Round(_))));
        assert!(drv.kernel.is_empty());
        let result = drv.finish(&sched);
        assert_eq!(
            result.records.len(),
            2,
            "the job due past the cutoff is never admitted"
        );
        assert_eq!(result.unfinished, 2);
    }

    #[test]
    fn idle_stepping_does_not_perturb_parity() {
        // A daemon stepping through idle time before the first arrival
        // must produce the same canonical trace as a batch run.
        let mut trace = tiny_trace(3);
        for j in &mut trace.jobs {
            j.submit_time += 600.0; // ten idle rounds up front
        }
        let cfg = SimConfig::default();
        let batch = Simulator::new(ClusterSpec::heterogeneous_64(), &trace, cfg.clone())
            .run(&mut OneGpuEach);
        let mut sched = OneGpuEach;
        let mut drv = new_driver(&cfg);
        drv.step_until(300.0, &mut sched);
        assert_eq!(drv.now(), 300.0);
        for j in &trace.jobs {
            drv.submit(j.clone());
        }
        drv.run_to_idle(&mut sched);
        let driven = drv.finish(&sched);
        assert_eq!(
            driven.trace.canonical_jsonl(),
            batch.trace.canonical_jsonl()
        );
        assert_eq!(driven.rounds.len(), batch.rounds.len());
    }

    /// Runs `trace` to `cut` seconds, snapshots through a JSON string,
    /// restores and finishes; returns the resumed result and the payload.
    fn cut_and_resume(trace: &Trace, cfg: &SimConfig, cut: f64) -> (SimResult, Value) {
        let mut sched = OneGpuEach;
        let mut drv = new_driver(cfg);
        for j in &trace.jobs {
            drv.submit(j.clone());
        }
        drv.step_until(cut, &mut sched);
        let text = serde_json::to_string(&drv.snapshot(&sched).unwrap()).unwrap();
        drop(drv);
        let payload: Value = serde_json::from_str(&text).unwrap();
        let mut sched = OneGpuEach;
        let mut resumed = SimDriver::restore(&payload, &mut sched).unwrap();
        resumed.run_to_idle(&mut sched);
        (resumed.finish(&sched), payload)
    }

    fn assert_same_streams(a: &SimResult, b: &SimResult, what: &str) {
        assert_eq!(
            a.trace.canonical_jsonl(),
            b.trace.canonical_jsonl(),
            "{what}: flight trace diverged"
        );
        assert_eq!(
            a.audit.canonical_jsonl(),
            b.audit.canonical_jsonl(),
            "{what}: audit stream diverged"
        );
        assert_eq!(a.makespan, b.makespan, "{what}: makespan");
    }

    #[test]
    fn snapshot_restore_is_bit_identical() {
        // Full physical noise profile: the widest RNG surface the snapshot
        // must capture. Cut mid-round, with jobs still pending.
        let trace = tiny_trace(8);
        let cfg = SimConfig::physical(11);
        let uninterrupted = stepped_run(&trace, &cfg);
        for cut in [30.0, 420.0, 1390.0] {
            let (resumed, _) = cut_and_resume(&trace, &cfg, cut);
            assert_same_streams(&resumed, &uninterrupted, &format!("cut at {cut}"));
        }
    }

    #[test]
    fn snapshot_restore_with_failures_is_bit_identical() {
        let mut trace = tiny_trace(6);
        for j in &mut trace.jobs {
            j.work_target *= 20.0;
        }
        let cfg = SimConfig {
            failure_rate_per_gpu_hour: 2.0,
            ..SimConfig::physical(5)
        };
        let uninterrupted = stepped_run(&trace, &cfg);
        assert!(
            uninterrupted.records.iter().any(|r| r.failures > 0),
            "no failure was injected"
        );
        for cut in [610.0, 2410.0] {
            let (resumed, payload) = cut_and_resume(&trace, &cfg, cut);
            let queued = serde_json::to_string(payload.get("kernel").unwrap()).unwrap();
            assert!(queued.contains("\"failure\""), "no queued failure at {cut}");
            assert_same_streams(&resumed, &uninterrupted, &format!("cut at {cut}"));
        }
    }

    #[test]
    fn snapshot_refuses_capacity_dynamics() {
        let cfg = SimConfig {
            dynamics: Some(sia_dynamics::DynamicsScript::new().at(
                600.0,
                sia_dynamics::CapacityEvent::Remove {
                    gpu_type: "a100".to_string(),
                    num_nodes: 1,
                },
            )),
            ..SimConfig::default()
        };
        let drv = new_driver(&cfg);
        let err = drv.snapshot(&OneGpuEach).map(|_| ()).unwrap_err();
        assert!(err.contains("dynamics"), "got: {err}");
    }

    /// A mid-run payload with placed jobs and queued per-job events (every
    /// placed job has a failure armed).
    fn mid_run_payload() -> Value {
        let trace = tiny_trace(4);
        let mut sched = OneGpuEach;
        let mut drv = new_driver(&SimConfig {
            failure_rate_per_gpu_hour: 0.5,
            ..SimConfig::default()
        });
        for j in &trace.jobs {
            let mut j = j.clone();
            j.submit_time = 0.0;
            drv.submit(j);
        }
        drv.step_until(30.0, &mut sched);
        drv.snapshot(&sched).unwrap()
    }

    fn restore_err(payload: &Value) -> String {
        SimDriver::restore(payload, &mut OneGpuEach)
            .map(|_| ())
            .unwrap_err()
    }

    fn field<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
        v.as_object_mut().unwrap().get_mut(key).unwrap()
    }

    fn item(v: &mut Value, i: usize) -> &mut Value {
        match v {
            Value::Array(a) => &mut a[i],
            other => panic!("not an array: {other:?}"),
        }
    }

    /// The first job's first placement slot, `[node, gpus]`.
    fn first_slot(p: &mut Value) -> &mut Value {
        item(field(item(field(p, "jobs"), 0), "placement"), 0)
    }

    /// The `(time, payload)` cells of the first queued event naming a job.
    fn first_job_event(p: &mut Value) -> &mut Value {
        let events = field(field(p, "kernel"), "events");
        let n = events.as_array().unwrap().len();
        let i = (0..n)
            .find(|&i| item(item(events, i), 3).get("job").is_some())
            .expect("a queued job event");
        item(events, i)
    }

    #[test]
    fn mid_run_payload_restores() {
        let p = mid_run_payload();
        assert!(SimDriver::restore(&p, &mut OneGpuEach).is_ok());
    }

    #[test]
    fn restore_rejects_version_one() {
        let mut p = mid_run_payload();
        *field(&mut p, "version") = Value::from(1u64);
        assert!(restore_err(&p).contains("version 1"));
        assert!(restore_err(&json!({})).contains("version"));
    }

    #[test]
    fn restore_rejects_slot_outside_the_cluster() {
        let mut p = mid_run_payload();
        *item(first_slot(&mut p), 0) = Value::from(10_000u64);
        assert!(restore_err(&p).contains("outside the cluster"));
    }

    #[test]
    fn restore_rejects_slot_with_zero_gpus() {
        let mut p = mid_run_payload();
        *item(first_slot(&mut p), 1) = Value::from(0u64);
        assert!(restore_err(&p).contains("GPUs on a node"));
    }

    #[test]
    fn restore_rejects_slot_larger_than_its_node() {
        let mut p = mid_run_payload();
        *item(first_slot(&mut p), 1) = Value::from(9u64);
        assert!(restore_err(&p).contains("GPUs on a node"));
    }

    #[test]
    fn restore_rejects_event_for_a_missing_job() {
        let mut p = mid_run_payload();
        let ev = first_job_event(&mut p);
        *field(item(ev, 3), "job") = Value::from(4u64);
        assert!(restore_err(&p).contains("only 4 exist"));
    }

    #[test]
    fn restore_rejects_non_finite_event_time() {
        let mut p = mid_run_payload();
        *item(first_job_event(&mut p), 0) = Value::Float(f64::NAN);
        assert!(restore_err(&p).contains("kernel"));
    }

    #[test]
    fn restore_rejects_event_before_the_clock() {
        let mut p = mid_run_payload();
        *item(first_job_event(&mut p), 0) = Value::Float(1.0);
        assert!(restore_err(&p).contains("before the clock"));
    }

    #[test]
    fn cancel_pending_and_active_jobs() {
        let trace = tiny_trace(4);
        let mut sched = OneGpuEach;
        let mut drv = new_driver(&SimConfig::default());
        for j in &trace.jobs {
            let mut j = j.clone();
            j.submit_time = 0.0;
            drv.submit(j);
        }
        let victim = trace.jobs[1].id;
        let queued = trace.jobs[3].id;
        // Cancel one job before admission, one after it is running.
        assert_eq!(drv.cancel(queued), CancelOutcome::Pending);
        assert_eq!(drv.cancel(queued), CancelOutcome::NotFound);
        drv.step_until(90.0, &mut sched);
        // Half of the 60-120 s slice is given back.
        let charged = drv.job_status(victim).unwrap().gpu_seconds;
        match drv.cancel(victim) {
            CancelOutcome::Active { gpu_seconds } => assert_eq!(gpu_seconds, charged - 30.0),
            other => panic!("expected active cancel, got {other:?}"),
        }
        assert_eq!(drv.cancel(victim), CancelOutcome::Finished);
        drv.run_to_idle(&mut sched);
        let result = drv.finish(&sched);
        assert_eq!(
            result.records.len(),
            3,
            "cancelled-pending job never admitted"
        );
        let victim_rec = result.records.iter().find(|r| r.id == victim).unwrap();
        assert_eq!(victim_rec.finish_time, Some(90.0));
        assert!(victim_rec.work_done < victim_rec.work_target);
        let report = result.trace.report();
        let stats = report.jobs.iter().find(|j| j.job == victim.0).unwrap();
        assert!(stats.cancelled.is_some());
        assert!(stats.completed.is_none());
        // Everyone else still completes.
        for r in result.records.iter().filter(|r| r.id != victim) {
            assert!(
                r.work_done >= r.work_target * 0.999,
                "job {} unfinished",
                r.id
            );
        }
    }

    #[test]
    fn cancel_drops_queued_completion_failure_and_restore_events() {
        let trace = tiny_trace(6);
        let cfg = SimConfig {
            failure_rate_per_gpu_hour: 0.5,
            ..SimConfig::default()
        };
        let mut sched = OneGpuEach;
        let mut drv = new_driver(&cfg);
        for j in &trace.jobs {
            drv.submit(j.clone());
        }
        // Step until some job holds a queued completion, then cancel it
        // just before that completion.
        let (victim, cut) = loop {
            let t = drv.next_event_time().expect("events left");
            drv.step_until(t + 1e-9, &mut sched);
            let due = drv.job_events.iter().zip(&drv.jobs).find_map(|(e, j)| {
                let (id, _) = e.completion?;
                let at = drv
                    .kernel
                    .export()
                    .events
                    .into_iter()
                    .find(|q| q.id() == id)?
                    .time;
                Some((j.spec.id, at))
            });
            if let Some(found) = due {
                break found;
            }
        };
        let idx = drv.jobs.iter().position(|j| j.spec.id == victim).unwrap();
        assert!(drv.job_events[idx].failure.is_some(), "failure armed");
        let gpu_s_before = drv.jobs[idx].gpu_seconds;
        let makespan_before = drv.makespan;
        let cancel_at = (drv.now() + cut) / 2.0;
        drv.step_until(cancel_at, &mut sched);
        let queued_before = drv.kernel.len();
        let pending_for_victim = {
            let e = drv.job_events[idx];
            [e.completion.map(|c| c.0), e.failure, e.restart_done]
                .into_iter()
                .flatten()
                .count()
        };
        // The slice ends at the queued completion; the cancel gives back
        // its GPU time and work after `cancel_at`.
        let gpus = drv.jobs[idx].placement.total_gpus() as f64;
        let slice = drv.jobs[idx].slice;
        assert!(
            (slice.end - cut).abs() < 1e-6,
            "slice ends at the completion"
        );
        assert!(slice.rate > 0.0 && slice.work_from < cancel_at);
        let target = drv.jobs[idx].spec.work_target;
        assert_eq!(
            drv.jobs[idx].work_done, target,
            "completion credited eagerly"
        );
        let CancelOutcome::Active { gpu_seconds } = drv.cancel(victim) else {
            panic!("victim was not active");
        };
        let expected = gpu_s_before - gpus * (slice.end - cancel_at);
        assert!(
            (gpu_seconds - expected).abs() < 1e-9,
            "{gpu_seconds} vs {expected}"
        );
        assert!(gpu_seconds < gpu_s_before, "unused slice still charged");
        assert_eq!(drv.kernel.len(), queued_before - pending_for_victim);
        drv.run_to_idle(&mut sched);
        let result = drv.finish(&sched);
        let rec = result.records.iter().find(|r| r.id == victim).unwrap();
        assert_eq!(rec.finish_time, Some(cancel_at));
        assert_eq!(rec.gpu_seconds, gpu_seconds, "GPU time charged twice");
        let work = target - slice.rate * (slice.end - cancel_at);
        assert!(
            (rec.work_done - work).abs() <= 1e-9 * target,
            "work {}",
            rec.work_done
        );
        assert!(
            rec.work_done < rec.work_target,
            "cancelled job looks complete"
        );
        assert!(result.makespan >= makespan_before);
        assert!(
            result
                .records
                .iter()
                .filter(|r| r.id != victim)
                .filter_map(|r| r.finish_time)
                .any(|t| t == result.makespan),
            "makespan moved to the cancelled job"
        );
        let report = result.trace.report();
        let stats = report.jobs.iter().find(|j| j.job == victim.0).unwrap();
        assert_eq!(stats.cancelled, Some(cancel_at));
        assert!(stats.completed.is_none(), "cancelled job also completed");
        assert!(
            !result
                .trace
                .records
                .iter()
                .any(|r| r.t > cancel_at && r.ev.job() == Some(victim.0)),
            "records for the cancelled job after the cancel"
        );
    }
}
