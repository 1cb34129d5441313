//! Simulation configuration, per-job state and the batch entry point
//! [`Simulator::run`], which drives the one simulation loop
//! ([`SimDriver`]) over a whole trace.

use std::path::PathBuf;

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use sia_cluster::{ClusterSpec, ClusterView, GpuTypeId, Placement};
use sia_dynamics::DynamicsScript;
use sia_models::{
    default_sync_prior, optimize_goodput, AllocShape, BatchLimits, FitSample, JobEstimator,
    Observation, ProfilingMode,
};
use sia_telemetry::{AuditEvent, AuditRecorder, FlightRecorder, TraceEvent};
use sia_workloads::zoo::TrueModel;
use sia_workloads::{Adaptivity, JobSpec, Trace};

use crate::driver::SimDriver;
use crate::result::SimResult;
use crate::scheduler::{JobView, Scheduler};

/// Simulation-wide configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// How much initial model information each job's estimator gets (§5.7).
    pub profiling_mode: ProfilingMode,
    /// RNG seed for all noise sources.
    pub seed: u64,
    /// Relative standard deviation of reported iteration times (and of the
    /// initial single-GPU profile parameters).
    pub measurement_noise: f64,
    /// Relative jitter applied to actual per-round progress ("physical
    /// cluster" conditions, Figure 4).
    pub execution_noise: f64,
    /// Relative jitter on checkpoint-restore delays.
    pub restart_jitter: f64,
    /// Simulation horizon, hours. [`Simulator::run`] runs no round at or
    /// past it; a [`SimDriver`] stepped by a service keeps serving past it
    /// and only enforces it when drained ([`SimDriver::run_to_idle`]).
    pub max_hours: f64,
    /// GPU-seconds charged per GPU type for bootstrap profiling (§3.2: the
    /// average per-job cost is < 20 GPU-seconds per type).
    pub profiling_gpu_seconds: f64,
    /// Mean worker failures per GPU-hour (§3.5 fault recovery; default 0).
    /// On failure a job falls back to its last epoch checkpoint and pays a
    /// checkpoint-restore delay.
    pub failure_rate_per_gpu_hour: f64,
    /// Flight-recorder ring capacity: at most this many lifecycle events are
    /// kept in memory per run (oldest evicted first, evictions counted in
    /// `SimResult::trace.dropped`). Recording is always on; the default is
    /// plenty for any bench scenario in this repo.
    pub trace_capacity: usize,
    /// Optional full-fidelity JSONL spill for the flight recorder: every
    /// event is appended to this file regardless of the ring bound. The
    /// spill is flushed on drop, so even a panicking run leaves complete
    /// lines behind.
    pub trace_spill: Option<PathBuf>,
    /// Audit-recorder ring capacity: at most this many decision-quality
    /// records (round gap/effort + per-job provenance) are kept in memory
    /// per run (oldest evicted first, evictions counted in
    /// `SimResult::audit.dropped`). Recording is always on.
    pub audit_capacity: usize,
    /// Optional full-fidelity JSONL spill for the audit recorder, same
    /// contract as `trace_spill`.
    pub audit_spill: Option<PathBuf>,
    /// Optional capacity-dynamics timeline: node add/remove/drain/degrade
    /// events applied as simulated time passes (`sia-dynamics`). `None`
    /// (the default) reproduces the static-cluster behavior bit-for-bit.
    pub dynamics: Option<DynamicsScript>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            profiling_mode: ProfilingMode::Bootstrap,
            seed: 0,
            measurement_noise: 0.02,
            execution_noise: 0.0,
            restart_jitter: 0.0,
            max_hours: 400.0,
            profiling_gpu_seconds: 20.0,
            failure_rate_per_gpu_hour: 0.0,
            trace_capacity: 65_536,
            trace_spill: None,
            audit_capacity: 65_536,
            audit_spill: None,
            dynamics: None,
        }
    }
}

impl SimConfig {
    /// Noise settings that mimic a physical-cluster run (Figure 4).
    pub fn physical(seed: u64) -> Self {
        SimConfig {
            seed,
            measurement_noise: 0.06,
            execution_noise: 0.05,
            restart_jitter: 0.3,
            ..SimConfig::default()
        }
    }

    /// Opens a run's flight recorder (ring bound and spill per config) and
    /// stamps the stream header.
    pub(crate) fn flight_recorder(&self, spec: &ClusterSpec, round: f64) -> FlightRecorder {
        let mut rec = match &self.trace_spill {
            Some(path) => {
                FlightRecorder::with_spill(self.trace_capacity, path).unwrap_or_else(|e| {
                    eprintln!(
                        "warning: cannot open trace spill {}: {e}; recording in memory only",
                        path.display()
                    );
                    FlightRecorder::new(self.trace_capacity)
                })
            }
            None => FlightRecorder::new(self.trace_capacity),
        };
        rec.record(
            0.0,
            TraceEvent::Meta {
                gpu_types: spec
                    .gpu_types()
                    .map(|t| spec.kind(t).name.clone())
                    .collect(),
                round_duration: round,
            },
        );
        rec
    }

    /// Opens a run's audit recorder (ring bound and spill per config) and
    /// stamps the stream's meta record.
    pub(crate) fn audit_recorder(
        &self,
        scheduler: &str,
        round: f64,
        gap_tolerance: Option<f64>,
    ) -> AuditRecorder {
        let mut audit = match &self.audit_spill {
            Some(path) => {
                AuditRecorder::with_spill(self.audit_capacity, path).unwrap_or_else(|e| {
                    eprintln!(
                        "warning: cannot open audit spill {}: {e}; recording in memory only",
                        path.display()
                    );
                    AuditRecorder::new(self.audit_capacity)
                })
            }
            None => AuditRecorder::new(self.audit_capacity),
        };
        audit.record(
            0.0,
            AuditEvent::Meta {
                scheduler: scheduler.to_string(),
                round_duration: round,
                gap_tolerance: gap_tolerance.unwrap_or(0.0),
            },
        );
        audit
    }
}

/// The round slice a placed job is executing, kept so that a cancel in
/// the middle of it can give back what the job did not get to use.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Slice {
    /// Instant the job stops holding its GPUs for this slice (its
    /// completion instant, or the slice's end).
    pub(crate) end: f64,
    /// Instant useful work starts (after the restore paid in the slice).
    pub(crate) work_from: f64,
    /// Work per second from `work_from` to `end` (0 once a failure rolled
    /// the slice's work back).
    pub(crate) rate: f64,
}

/// Internal per-job state.
pub(crate) struct JobState {
    pub(crate) spec: JobSpec,
    pub(crate) truth: TrueModel,
    pub(crate) estimator: JobEstimator,
    pub(crate) placement: Placement,
    pub(crate) restart_remaining: f64,
    pub(crate) work_done: f64,
    /// Work at the last epoch checkpoint (§3.5: Sia checkpoints model and
    /// optimizer state every epoch; failures roll back to here).
    pub(crate) checkpointed_work: f64,
    pub(crate) restarts: u32,
    pub(crate) failures: u32,
    pub(crate) first_start: Option<f64>,
    pub(crate) finish_time: Option<f64>,
    pub(crate) gpu_seconds: f64,
    pub(crate) contention_sum: f64,
    pub(crate) contention_rounds: u64,
    /// The slice charged by the last round that placed the job.
    pub(crate) slice: Slice,
}

impl JobState {
    /// Builds a job's initial state (estimator per profiling mode, charging
    /// any profiling overhead). Emits the job's `submitted`/`admitted`
    /// records stamped with the submission instant, although jobs are
    /// admitted at the round boundary that follows it.
    pub(crate) fn admit(
        spec: JobSpec,
        cfg: &SimConfig,
        cluster: &ClusterSpec,
        rng: &mut ChaCha8Rng,
        rec: &mut FlightRecorder,
    ) -> JobState {
        let t_submit = spec.submit_time.max(0.0);
        rec.record(
            t_submit,
            TraceEvent::JobSubmitted {
                job: spec.id.0,
                name: spec.name.clone(),
                model: spec.model.name().to_string(),
            },
        );
        rec.record(t_submit, TraceEvent::JobAdmitted { job: spec.id.0 });
        let truth = spec.model.profile().true_model(cluster);
        let limits = batch_limits_of(&spec);
        let eff_prior = truth.eff0;
        let mut gpu_seconds = 0.0;
        let estimator = match cfg.profiling_mode {
            ProfilingMode::Oracle => {
                JobEstimator::oracle(truth.per_type.clone(), eff_prior, limits)
            }
            ProfilingMode::Bootstrap => {
                // One noisy single-GPU profile per GPU type (§3.2).
                let prior = default_sync_prior();
                let profiles = truth
                    .per_type
                    .iter()
                    .map(|tp| {
                        let eps =
                            |rng: &mut ChaCha8Rng| 1.0 + cfg.measurement_noise * symmetric(rng);
                        sia_models::ThroughputParams {
                            alpha_c: tp.alpha_c * eps(rng).max(0.2),
                            beta_c: tp.beta_c * eps(rng).max(0.2),
                            alpha_n: prior.alpha_n,
                            beta_n: prior.beta_n,
                            alpha_d: prior.alpha_d,
                            beta_d: prior.beta_d,
                            gamma: prior.gamma,
                            max_local_bsz: tp.max_local_bsz,
                        }
                    })
                    .collect();
                gpu_seconds += cfg.profiling_gpu_seconds * cluster.num_gpu_types() as f64;
                JobEstimator::bootstrap(profiles, eff_prior, limits)
            }
            ProfilingMode::NoProf => JobEstimator::no_prof(
                default_sync_prior(),
                cluster.num_gpu_types(),
                eff_prior,
                limits,
            ),
        };
        JobState {
            spec,
            truth,
            estimator,
            placement: Placement::empty(),
            restart_remaining: 0.0,
            work_done: 0.0,
            checkpointed_work: 0.0,
            restarts: 0,
            failures: 0,
            first_start: None,
            finish_time: None,
            gpu_seconds,
            contention_sum: 0.0,
            contention_rounds: 0,
            slice: Slice::default(),
        }
    }

    pub(crate) fn finished(&self) -> bool {
        self.finish_time.is_some()
    }

    pub(crate) fn progress(&self) -> f64 {
        (self.work_done / self.spec.work_target).clamp(0.0, 1.0)
    }

    /// Advances the epoch checkpoint to the last whole epoch of `work_done`
    /// (epochs are ~5% of the total work target).
    pub(crate) fn advance_checkpoint(&mut self) {
        let epoch = self.spec.work_target * 0.05;
        let completed_epochs = (self.work_done / epoch).floor();
        self.checkpointed_work = self.checkpointed_work.max(completed_epochs * epoch);
    }

    /// True if the job's placement uses any of `nodes`.
    pub(crate) fn slots_touch(&self, nodes: &[usize]) -> bool {
        self.placement
            .slots
            .iter()
            .any(|&(n, _)| nodes.contains(&n))
    }

    /// Builds the scheduler-visible view of this job at time `now`.
    pub(crate) fn view(&self, now: f64) -> JobView<'_> {
        JobView {
            id: self.spec.id,
            spec: &self.spec,
            estimator: &self.estimator,
            current: &self.placement,
            age: now - self.spec.submit_time,
            restarts: self.restarts,
            restart_delay: self.truth.restart_delay,
            progress: self.progress(),
        }
    }

    /// GPUs per replica of this job on `gpu_type` (1 unless it is
    /// pipeline-parallel there).
    fn replica_width(&self, cluster: &ClusterSpec, gpu_type: GpuTypeId) -> usize {
        self.spec
            .model
            .profile()
            .pipeline
            .and_then(|p| p.gpus_per_replica(&cluster.kind(gpu_type).name))
            .unwrap_or(1)
    }

    /// The true goodput of the job on its current placement (the executor's
    /// batch choice uses the true model — executors measure their own
    /// performance directly). Straggler multipliers from the capacity view
    /// scale the result; a clean view (all nodes at 1.0) leaves the value
    /// bit-identical to the pre-dynamics computation.
    pub(crate) fn true_goodput(
        &self,
        view: &ClusterView,
    ) -> Option<(f64, sia_models::GoodputPoint, GpuTypeId)> {
        let gpu_type = self.placement.gpu_type(view.spec());
        let gpus = self.placement.total_gpus();
        let width = self.replica_width(view.spec(), gpu_type);
        if !gpus.is_multiple_of(width) || gpus < width {
            return None;
        }
        let replicas = gpus / width;
        let shape = shape_of(&self.placement, replicas);
        let limits = execution_limits(&self.spec, replicas);
        let eff = self.truth.eff_at(self.progress());
        let point = optimize_goodput(&self.truth.per_type[gpu_type.0], &eff, shape, limits)?;
        let mut goodput = point.goodput;
        let mult = view.placement_degradation(&self.placement);
        if mult != 1.0 {
            goodput *= mult;
        }
        Some((goodput, point, gpu_type))
    }

    /// One noisy executor report (throughput sample + measured gradient
    /// noise scale) fed into the job's estimator, once per scheduled round
    /// per running job (iteration-time noise drawn first, then the
    /// phi-measurement noise).
    pub(crate) fn executor_report(
        &mut self,
        cluster: &ClusterSpec,
        measurement_noise: f64,
        gpu_type: GpuTypeId,
        point: &sia_models::GoodputPoint,
        rng: &mut ChaCha8Rng,
    ) {
        let noise = 1.0 + measurement_noise * symmetric(rng);
        let replicas = self.placement.total_gpus() / self.replica_width(cluster, gpu_type);
        let shape = shape_of(&self.placement, replicas);
        let true_iter =
            self.truth.per_type[gpu_type.0].t_iter(shape, point.local_bsz, point.accum_steps);
        let obs = Observation {
            gpu_type,
            sample: FitSample {
                shape,
                local_bsz: point.local_bsz,
                accum_steps: point.accum_steps,
                iter_time: (true_iter * noise).max(1e-6),
            },
            // The executor measures the noise scale via the two-batch
            // gradient-statistics trick rather than observing it directly.
            measured_phi: sia_models::measure_phi(
                self.truth.phi_at(self.progress()),
                point.local_bsz,
                (point.total_bsz).max(point.local_bsz * 2.0),
                measurement_noise.min(1.0) * symmetric(rng) * 10.0,
            ),
        };
        self.estimator.observe(obs);
    }
}

/// A batch simulation: one cluster, one trace, one scheduler run.
pub struct Simulator {
    spec: ClusterSpec,
    trace: Vec<JobSpec>,
    cfg: SimConfig,
}

impl Simulator {
    /// Creates a simulator over a cluster and a trace.
    pub fn new(spec: ClusterSpec, trace: &Trace, cfg: SimConfig) -> Self {
        Simulator {
            spec,
            trace: trace.jobs.clone(),
            cfg,
        }
    }

    /// Runs `sched` to completion (all jobs finished or horizon reached):
    /// a [`SimDriver`] with the horizon ([`SimConfig::max_hours`]) in force
    /// from the start and every trace job submitted up front, stepped until
    /// its event queue drains.
    pub fn run(&self, sched: &mut dyn Scheduler) -> SimResult {
        let horizon = self.cfg.max_hours * 3600.0;
        let mut driver =
            SimDriver::with_horizon(self.spec.clone(), self.cfg.clone(), sched, horizon);
        for spec in &self.trace {
            driver.submit(spec.clone());
        }
        while driver.fire_next(sched, None) {}
        driver.finish(sched)
    }
}

/// Whether this round's solve fell back past the exact ILP (its allocation
/// changes are then tagged `ilp-infeasible-fallback` in the trace).
pub(crate) fn is_fallback(stats: &Option<crate::result::SolverStats>) -> bool {
    matches!(
        stats.as_ref().map(|s| s.outcome),
        Some(crate::result::SolveOutcome::LagrangianFallback)
            | Some(crate::result::SolveOutcome::GreedyFallback)
    )
}

/// Allocation shape of a placement with a known replica count.
fn shape_of(placement: &Placement, replicas: usize) -> AllocShape {
    if replicas <= 1 {
        AllocShape::single()
    } else if placement.is_distributed() {
        AllocShape::dist(replicas)
    } else {
        AllocShape::local(replicas)
    }
}

/// The batch limits a job declares to the scheduler.
pub fn batch_limits_of(spec: &JobSpec) -> BatchLimits {
    let profile = spec.model.profile();
    match spec.adaptivity {
        Adaptivity::Adaptive => profile.batch_limits(),
        Adaptivity::StrongScaling { batch_size } | Adaptivity::Rigid { batch_size, .. } => {
            BatchLimits::fixed(batch_size)
        }
    }
}

/// The batch limits actually used during execution (hybrid-parallel jobs pin
/// the per-replica batch regardless of adaptivity).
fn execution_limits(spec: &JobSpec, replicas: usize) -> BatchLimits {
    if let Some(pipe) = spec.model.profile().pipeline {
        return BatchLimits::fixed(pipe.replica_batch * replicas as f64);
    }
    batch_limits_of(spec)
}

/// Uniform noise in `[-1, 1]`.
pub(crate) fn symmetric(rng: &mut ChaCha8Rng) -> f64 {
    rng.random::<f64>() * 2.0 - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::AllocationMap;
    use sia_cluster::{Configuration, FreeGpus};
    use sia_workloads::{TraceConfig, TraceKind};

    /// A trivial scheduler: gives every job 1 GPU (first-fit) and never
    /// reallocates (drops placements the capacity view no longer allows).
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
                    // Keep the existing placement (Draining slots are kept
                    // but not deducted — they are outside the pool).
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
        // Shrink work targets so the test runs fast in simulated time.
        for j in &mut t.jobs {
            j.work_target *= 0.02;
        }
        t
    }

    #[test]
    fn jobs_finish_under_trivial_scheduler() {
        let spec = ClusterSpec::heterogeneous_64();
        let trace = tiny_trace(10);
        let sim = Simulator::new(spec, &trace, SimConfig::default());
        let result = sim.run(&mut OneGpuEach);
        assert_eq!(result.unfinished, 0, "all jobs must finish");
        assert_eq!(result.records.len(), 10);
        for r in &result.records {
            assert!(r.finish_time.unwrap() > r.submit_time);
            assert!(r.work_done >= r.work_target * 0.999);
            assert!(r.gpu_seconds > 0.0);
        }
        assert!(result.makespan > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let spec = ClusterSpec::heterogeneous_64();
        let trace = tiny_trace(6);
        let cfg = SimConfig {
            seed: 5,
            measurement_noise: 0.05,
            execution_noise: 0.03,
            ..SimConfig::default()
        };
        let a = Simulator::new(spec.clone(), &trace, cfg.clone()).run(&mut OneGpuEach);
        let b = Simulator::new(spec, &trace, cfg).run(&mut OneGpuEach);
        let jct =
            |r: &SimResult| -> Vec<f64> { r.records.iter().filter_map(|j| j.jct()).collect() };
        assert_eq!(jct(&a), jct(&b));
    }

    #[test]
    fn restart_counted_on_reallocation() {
        // A scheduler that bounces each job between two nodes every round.
        struct Bouncer {
            flip: bool,
        }
        impl Scheduler for Bouncer {
            fn name(&self) -> &'static str {
                "bouncer"
            }
            fn schedule(
                &mut self,
                _now: f64,
                jobs: &[JobView<'_>],
                cluster: &ClusterView,
            ) -> AllocationMap {
                self.flip = !self.flip;
                let node = usize::from(self.flip);
                let mut out = AllocationMap::new();
                if let Some(j) = jobs.first() {
                    let _ = cluster;
                    out.insert(j.id, Placement::new(vec![(node, 1)]));
                }
                out
            }
        }
        let spec = ClusterSpec::homogeneous_64();
        let mut trace = tiny_trace(1);
        trace.jobs[0].work_target *= 30.0; // long enough to observe bounces
        let sim = Simulator::new(spec, &trace, SimConfig::default());
        let result = sim.run(&mut Bouncer { flip: false });
        let r = &result.records[0];
        assert!(
            r.restarts >= 3,
            "bouncing must be counted as restarts, got {}",
            r.restarts
        );
    }

    #[test]
    fn restarts_slow_jobs_down() {
        let spec = ClusterSpec::homogeneous_64();
        let trace = tiny_trace(1);
        struct Stable;
        impl Scheduler for Stable {
            fn name(&self) -> &'static str {
                "stable"
            }
            fn schedule(
                &mut self,
                _now: f64,
                jobs: &[JobView<'_>],
                _cluster: &ClusterView,
            ) -> AllocationMap {
                let mut out = AllocationMap::new();
                if let Some(j) = jobs.first() {
                    out.insert(j.id, Placement::new(vec![(0, 1)]));
                }
                out
            }
        }
        struct Bouncy;
        impl Scheduler for Bouncy {
            fn name(&self) -> &'static str {
                "bouncy"
            }
            fn schedule(
                &mut self,
                now: f64,
                jobs: &[JobView<'_>],
                _cluster: &ClusterView,
            ) -> AllocationMap {
                let mut out = AllocationMap::new();
                let node = ((now / 60.0) as usize) % 2;
                if let Some(j) = jobs.first() {
                    out.insert(j.id, Placement::new(vec![(node, 1)]));
                }
                out
            }
        }
        let stable = Simulator::new(spec.clone(), &trace, SimConfig::default()).run(&mut Stable);
        let bouncy = Simulator::new(spec, &trace, SimConfig::default()).run(&mut Bouncy);
        assert!(
            bouncy.avg_jct() > stable.avg_jct(),
            "restart overheads must hurt: {} vs {}",
            bouncy.avg_jct(),
            stable.avg_jct()
        );
    }

    #[test]
    fn horizon_leaves_jobs_unfinished() {
        let spec = ClusterSpec::homogeneous_64();
        let mut trace = tiny_trace(3);
        for j in &mut trace.jobs {
            j.work_target *= 1e6; // effectively infinite
        }
        let cfg = SimConfig {
            max_hours: 0.5,
            ..SimConfig::default()
        };
        let result = Simulator::new(spec, &trace, cfg).run(&mut OneGpuEach);
        assert_eq!(result.unfinished, 3);
        assert!(result.records.iter().all(|r| r.finish_time.is_none()));
    }

    #[test]
    fn contention_tracked() {
        let spec = ClusterSpec::homogeneous_64();
        let trace = tiny_trace(8);
        let result = Simulator::new(spec, &trace, SimConfig::default()).run(&mut OneGpuEach);
        assert!(result.rounds.iter().any(|r| r.contention > 1));
        assert!(result.records.iter().all(|r| r.avg_contention >= 1.0));
    }

    #[test]
    fn high_failure_rates_do_not_saturate() {
        // Failures are exact-time events, not a per-round draw: at
        // lambda ~= 10 failures per round the run must observe far more
        // failures than it has rounds.
        let spec = ClusterSpec::homogeneous_64();
        let mut trace = tiny_trace(1);
        trace.jobs[0].work_target *= 1e9; // never finishes
        trace.jobs[0].submit_time = 0.0;
        let cfg = SimConfig {
            max_hours: 0.5, // 30 rounds of 60 s
            failure_rate_per_gpu_hour: 600.0,
            ..SimConfig::default()
        };
        let result = Simulator::new(spec, &trace, cfg).run(&mut OneGpuEach);
        let rounds = result.rounds.len() as u64;
        let failures = u64::from(result.records[0].failures);
        assert!(
            failures > 3 * rounds,
            "failure sampling saturated: {failures} failures in {rounds} rounds"
        );
    }

    #[test]
    fn failure_streams_do_not_perturb_noise_draws() {
        // Failures draw from their own RNG stream, so turning injection on
        // must not change when jobs would otherwise finish if no failure
        // actually lands before completion. Compare a zero-rate
        // run against a tiny-but-nonzero rate where no failure fires.
        let spec = ClusterSpec::homogeneous_64();
        let trace = tiny_trace(4);
        let run_with = |rate: f64| {
            let cfg = SimConfig {
                seed: 11,
                measurement_noise: 0.05,
                execution_noise: 0.03,
                failure_rate_per_gpu_hour: rate,
                ..SimConfig::default()
            };
            Simulator::new(spec.clone(), &trace, cfg).run(&mut OneGpuEach)
        };
        let clean = run_with(0.0);
        let armed = run_with(1e-9);
        assert_eq!(
            armed.records.iter().map(|r| r.failures).sum::<u32>(),
            0,
            "rate too high for this test's premise"
        );
        let finish = |r: &SimResult| -> Vec<Option<f64>> {
            r.records.iter().map(|j| j.finish_time).collect()
        };
        assert_eq!(finish(&clean), finish(&armed));
    }

    #[test]
    fn estimator_learns_during_simulation() {
        // After running, a job's estimator must have refined the type it ran
        // on (Bootstrap mode: SingleGpuProfile initially; here jobs only get
        // 1 GPU so state stays SingleGpuProfile but phi updates).
        let spec = ClusterSpec::homogeneous_64();
        let trace = tiny_trace(2);
        let result = Simulator::new(spec, &trace, SimConfig::default()).run(&mut OneGpuEach);
        // Indirect check: simulation completed and recorded GPU time
        // includes the profiling overhead (20s * 1 type).
        for r in &result.records {
            assert!(r.gpu_seconds >= 20.0);
        }
    }
}
