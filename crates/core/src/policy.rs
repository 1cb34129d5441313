//! The Sia scheduler policy (implements [`sia_sim::Scheduler`]).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use sia_cluster::{config_set_view, ClusterView, Configuration, GpuTypeId, JobId, Placement};
use sia_sim::{AllocationMap, DecisionInfo, JobView, Scheduler, SolverStats};
use sia_solver::{DecomposeOptions, MilpOptions};

use crate::ilp::{
    solve_assignment_sharded, solve_assignment_warm, ForcedAssignments, ShardSolveOptions,
};
use crate::matrix::{prune_config_set, MatrixCache};
use crate::placer::realize;

/// Tunable parameters of the Sia policy (§4.3 defaults).
#[derive(Debug, Clone)]
pub struct SiaConfig {
    /// Fairness power `p` (default `-0.5`; §5.7 sweeps `[-1, 1]`).
    pub fairness_power: f64,
    /// Queue penalty `lambda` (default `1.1`).
    pub lambda: f64,
    /// Scheduling round duration, seconds (default `60`).
    pub round_duration: f64,
    /// Apply the Eq. 3 restart factor to move candidates (default `true`;
    /// disable only for the ablation study).
    pub use_restart_factor: bool,
    /// Restart-amortization horizon of Eq. 3, seconds (default
    /// [`crate::matrix::DEFAULT_RESTART_HORIZON_SECS`]; §5.7 sweeps it).
    pub restart_horizon_secs: f64,
    /// Worker threads for candidate-matrix evaluation: `0` auto-detects
    /// (see [`crate::pool::resolve_workers`]). Any value yields identical
    /// allocations; only wall-clock time changes.
    pub workers: usize,
    /// Branch-and-bound limits for the per-round ILP.
    pub milp: MilpOptions,
    /// Per-round solve time budget in seconds. `None` (the default) bounds
    /// the solve by `milp.max_nodes` alone. When set, the budget is
    /// converted **once per round** into deterministic node budgets (see
    /// `sia_solver::milp::deterministic_node_budget`), so a round never
    /// blocks the cluster: on expiry the best incumbent — or the rounded
    /// Lagrangian-relaxation solution — is returned with its proven bound,
    /// and the optimality-gap telemetry reports the honest anytime gap.
    pub round_budget: Option<f64>,
    /// Sharded (price-and-decompose) solve path configuration.
    pub shard: ShardConfig,
}

/// Configuration of the sharded solve path (see `sia_solver::decompose`).
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Route rounds through the sharded path instead of the monolithic
    /// branch-and-bound. Off by default: the monolith is exact and fast up
    /// to ~1k GPUs; sharding is what scales rounds to 16k–65k GPUs.
    pub enabled: bool,
    /// Maximum job groups per shard.
    pub max_shard_groups: usize,
    /// Escalate to an exact monolithic solve at or below this many ILP
    /// variables (`0` disables escalation).
    pub escalation_vars: usize,
    /// Subgradient iterations of the Lagrangian pricing pass.
    pub lagrangian_iters: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            enabled: false,
            max_shard_groups: 24,
            escalation_vars: 600,
            lagrangian_iters: 120,
        }
    }
}

impl Default for SiaConfig {
    fn default() -> Self {
        SiaConfig {
            fairness_power: -0.5,
            lambda: 1.1,
            round_duration: 60.0,
            use_restart_factor: true,
            restart_horizon_secs: crate::matrix::DEFAULT_RESTART_HORIZON_SECS,
            workers: 0,
            milp: MilpOptions {
                max_nodes: 20_000,
                time_limit: None,
                gap_tolerance: 1e-9,
            },
            round_budget: None,
            shard: ShardConfig::default(),
        }
    }
}

/// The Sia scheduling policy.
///
/// # Examples
///
/// ```
/// use sia_core::SiaPolicy;
/// use sia_sim::Scheduler;
///
/// let policy = SiaPolicy::default();
/// assert_eq!(policy.name(), "sia");
/// assert_eq!(policy.round_duration(), 60.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SiaPolicy {
    cfg: SiaConfig,
    reservations: ForcedAssignments,
    /// Per-job raw goodput rows cached across rounds; only rows whose job
    /// is dirty (new, refit, config-set change, progress-bucket crossing)
    /// are re-enumerated each round.
    matrix_cache: MatrixCache,
    /// Last round's chosen configurations, used to seed the branch-and-bound
    /// incumbent (warm start) next round.
    prev_assignment: BTreeMap<JobId, Configuration>,
    /// [`ClusterView::version`] the previous assignment was computed under;
    /// a version bump (capacity change) drops the warm-start incumbent, so
    /// the solve proceeds cold instead of seeding from a plan that may
    /// reference vanished GPUs.
    prev_cluster_version: Option<u64>,
    /// Phase breakdown of the most recent `schedule` call, handed to the
    /// engine via [`Scheduler::round_stats`].
    last_stats: Option<SolverStats>,
    /// Per-job decision provenance of the most recent `schedule` call,
    /// handed to the engine via [`Scheduler::round_decisions`]. Values are
    /// ILP objective weights (normalized, restart-discounted,
    /// fairness-powered goodput — what the solver actually traded off).
    last_decisions: Vec<DecisionInfo>,
}

impl SiaPolicy {
    /// Creates the policy with explicit parameters.
    pub fn new(cfg: SiaConfig) -> Self {
        SiaPolicy {
            cfg,
            reservations: ForcedAssignments::new(),
            matrix_cache: MatrixCache::new(),
            prev_assignment: BTreeMap::new(),
            prev_cluster_version: None,
            last_stats: None,
            last_decisions: Vec::new(),
        }
    }

    /// Current configuration.
    pub fn config(&self) -> &SiaConfig {
        &self.cfg
    }

    /// Pins a job to a configuration (non-preemptive jobs / reservations,
    /// §3.4): the ILP is constrained to allocate exactly this bundle every
    /// round until [`SiaPolicy::release_reservation`] is called.
    pub fn reserve(&mut self, job: JobId, cfg: Configuration) {
        self.reservations.insert(job, cfg);
    }

    /// Releases a reservation.
    pub fn release_reservation(&mut self, job: JobId) {
        self.reservations.remove(&job);
    }
}

impl Scheduler for SiaPolicy {
    fn name(&self) -> &'static str {
        "sia"
    }

    fn round_duration(&self) -> f64 {
        self.cfg.round_duration
    }

    fn schedule(
        &mut self,
        _now: f64,
        jobs: &[JobView<'_>],
        cluster: &ClusterView,
    ) -> AllocationMap {
        let _span = sia_telemetry::span("policy.schedule");
        let spec = cluster.spec();
        // Restrict the configuration set to what live jobs can demand: on
        // large clusters the full set grows with the node count while job
        // demand does not, and dropping configurations no job may take
        // cannot change any decision (see `matrix::prune_config_set`).
        let configs = prune_config_set(&config_set_view(cluster), jobs);
        let workers = crate::pool::resolve_workers(self.cfg.workers);

        // Capacity changed since last round: the previous assignment may
        // reference GPUs that no longer exist, so reject it as a warm-start
        // incumbent and let the MILP solve cold this round.
        if self.prev_cluster_version != Some(cluster.version()) {
            if self.prev_cluster_version.is_some() {
                sia_telemetry::counter("policy.warm_start_invalidated").incr();
                self.prev_assignment.clear();
            }
            self.prev_cluster_version = Some(cluster.version());
        }

        // 1a. Re-fit: re-enumerate raw goodput rows for dirty jobs only
        // (queued jobs never change, so their rows are never recomputed);
        // rebuilt rows fan out across the worker pool.
        let refit_t0 = Instant::now();
        let refresh = {
            // Despite its name this span times goodput-row enumeration
            // (`optimize_goodput` per job and configuration); throughput
            // fitting runs in the executor reports of `engine.execute`.
            // The name stays because benchmarks attribute
            // `core.refit_s` to it.
            let _refit = sia_telemetry::span("policy.refit");
            self.matrix_cache.refresh(jobs, cluster, &configs, workers)
        };
        if refresh.rebuilt > 0 {
            sia_telemetry::counter("policy.rows_refit").add(refresh.rebuilt as u64);
        }
        let refit_s = refit_t0.elapsed().as_secs_f64();

        // 1b. Goodput matrix: normalized, restart-discounted,
        // fairness-powered candidates from the cached raw rows.
        let goodput_t0 = Instant::now();
        let mut candidates = Vec::new();
        {
            let _goodput = sia_telemetry::span("policy.goodput");
            for view in jobs {
                let values = self
                    .matrix_cache
                    .row(view.id)
                    .expect("refresh populated every live job");
                candidates.extend(crate::matrix::job_candidates_from_values(
                    view,
                    spec,
                    &configs,
                    values,
                    &crate::matrix::MatrixParams {
                        fairness_power: self.cfg.fairness_power,
                        lambda: self.cfg.lambda,
                        use_restart_factor: self.cfg.use_restart_factor,
                        restart_horizon_secs: self.cfg.restart_horizon_secs,
                    },
                ));
            }
        }
        let goodput_s = goodput_t0.elapsed().as_secs_f64();
        sia_telemetry::counter("policy.candidates").add(candidates.len() as u64);

        // 2. Assignment ILP (Eq. 4). The sharded path prices capacities with
        // a Lagrangian pass and solves per-cohort shards on the worker pool;
        // the monolithic path is warm-started from last round's choices.
        // Either way a `round_budget` is converted once into deterministic
        // node budgets, so the solve is anytime without losing determinism.
        let (chosen, ilp) = if self.cfg.shard.enabled {
            solve_assignment_sharded(
                cluster,
                &candidates,
                &self.reservations,
                &ShardSolveOptions {
                    decompose: DecomposeOptions {
                        max_shard_groups: self.cfg.shard.max_shard_groups,
                        escalation_vars: self.cfg.shard.escalation_vars,
                        lagrangian_iters: self.cfg.shard.lagrangian_iters,
                        milp: self.cfg.milp.clone(),
                    },
                    round_budget: self.cfg.round_budget,
                    workers: self.cfg.workers,
                },
            )
        } else {
            let mut milp = self.cfg.milp.clone();
            if milp.time_limit.is_none() {
                milp.time_limit = self.cfg.round_budget.map(Duration::from_secs_f64);
            }
            solve_assignment_warm(
                cluster,
                &candidates,
                &self.reservations,
                &milp,
                Some(&self.prev_assignment),
            )
        };

        // Decision provenance: for every job, the weight of the chosen
        // configuration vs the best weight it was offered at all — one pass
        // over the candidate list, keyed against the solver's choices.
        let mut provenance: BTreeMap<JobId, DecisionInfo> = jobs
            .iter()
            .map(|v| {
                (
                    v.id,
                    DecisionInfo {
                        job: v.id,
                        chosen_value: 0.0,
                        best_value: 0.0,
                    },
                )
            })
            .collect();
        for c in &candidates {
            if let Some(d) = provenance.get_mut(&c.job) {
                if c.weight > d.best_value {
                    d.best_value = c.weight;
                }
                if chosen.get(&c.job).is_some_and(|cfg| *cfg == c.config) {
                    d.chosen_value = c.weight;
                }
            }
        }
        self.last_decisions = provenance.into_values().collect();

        self.prev_assignment = chosen.clone();

        // 3. Placement under the Sia rules.
        let placement_t0 = Instant::now();
        let current: BTreeMap<JobId, Placement> =
            jobs.iter().map(|v| (v.id, v.current.clone())).collect();
        let decisions: Vec<_> = chosen
            .into_iter()
            .map(|(job, cfg)| {
                let cur = current.get(&job).cloned().unwrap_or_else(Placement::empty);
                (job, cfg, cur)
            })
            .collect();
        let allocations = realize(cluster, &decisions).allocations;
        let placement_s = placement_t0.elapsed().as_secs_f64();

        self.last_stats = Some(SolverStats {
            refit_s,
            goodput_s,
            build_s: ilp.build_s,
            solve_s: ilp.solve_s,
            placement_s,
            candidates: candidates.len(),
            nodes: ilp.nodes,
            pivots: ilp.pivots,
            lp_objective: ilp.lp_objective,
            objective: ilp.objective,
            best_bound: ilp.best_bound,
            nodes_pruned: ilp.nodes_pruned,
            first_incumbent_node: ilp.first_incumbent_node,
            first_incumbent_s: ilp.first_incumbent_s,
            cache_hits: refresh.reused,
            cache_misses: refresh.rebuilt,
            incumbent_seed: ilp.incumbent_seed,
            warm_pivots_saved: ilp.warm_pivots_saved,
            workers,
            shards: ilp.shards,
            budget_exhausted: ilp.budget_exhausted,
            lagrangian_iters: ilp.lagrangian_iters,
            lagrangian_gap: ilp.lagrangian_gap,
            lagrangian_norm: ilp.lagrangian_norm,
            outcome: ilp.outcome,
        });
        allocations
    }

    fn round_stats(&mut self) -> Option<SolverStats> {
        self.last_stats.take()
    }

    fn round_decisions(&mut self) -> Vec<DecisionInfo> {
        std::mem::take(&mut self.last_decisions)
    }

    fn gap_tolerance(&self) -> Option<f64> {
        Some(self.cfg.milp.gap_tolerance)
    }

    /// Exports the warm-start seed: last round's chosen configurations and
    /// the cluster version they were computed under. The matrix cache,
    /// reservations and per-round stats are deliberately not serialized —
    /// the cache is rebuilt lazily (first post-restore round re-enumerates
    /// rows, losing only wall-clock), reservations belong to the embedding
    /// layer, and the stats are consumed within a round.
    fn export_state(&self) -> Option<serde_json::Value> {
        let assignment: Vec<serde_json::Value> = self
            .prev_assignment
            .iter()
            .map(|(job, cfg)| {
                serde_json::json!({
                    "job": job.0,
                    "nodes": cfg.nodes as u64,
                    "gpus": cfg.gpus as u64,
                    "gpu_type": cfg.gpu_type.0 as u64,
                })
            })
            .collect();
        Some(serde_json::json!({
            "prev_assignment": assignment,
            "prev_cluster_version": match self.prev_cluster_version {
                Some(v) => serde_json::json!(v),
                None => serde_json::Value::Null,
            },
        }))
    }

    /// Restores the warm-start seed exported by
    /// [`Scheduler::export_state`]. Malformed entries are skipped — a
    /// partial (or empty) seed only costs the first round a cold solve.
    fn import_state(&mut self, state: &serde_json::Value) {
        self.prev_assignment.clear();
        if let Some(entries) = state.get("prev_assignment").and_then(|v| v.as_array()) {
            for e in entries {
                let (Some(job), Some(nodes), Some(gpus), Some(gpu_type)) = (
                    e.get("job").and_then(|v| v.as_u64()),
                    e.get("nodes").and_then(|v| v.as_u64()),
                    e.get("gpus").and_then(|v| v.as_u64()),
                    e.get("gpu_type").and_then(|v| v.as_u64()),
                ) else {
                    continue;
                };
                if nodes == 0 || gpus < nodes {
                    continue;
                }
                self.prev_assignment.insert(
                    JobId(job),
                    Configuration::new(nodes as usize, gpus as usize, GpuTypeId(gpu_type as usize)),
                );
            }
        }
        self.prev_cluster_version = state.get("prev_cluster_version").and_then(|v| v.as_u64());
        // Derived state starts cold on purpose.
        self.matrix_cache = MatrixCache::new();
        self.last_stats = None;
        self.last_decisions.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_cluster::ClusterSpec;
    use sia_models::{BatchLimits, EfficiencyParams, JobEstimator, ThroughputParams};
    use sia_workloads::{Adaptivity, JobSpec, ModelKind, SizeCategory};

    fn params(speed: f64, sync_alpha: f64) -> ThroughputParams {
        ThroughputParams {
            alpha_c: 0.05 / speed,
            beta_c: 0.002 / speed,
            alpha_n: sync_alpha / 4.0,
            beta_n: sync_alpha / 40.0,
            alpha_d: sync_alpha,
            beta_d: sync_alpha / 10.0,
            gamma: 2.5,
            max_local_bsz: 256.0,
        }
    }

    fn mk_estimator(speeds: &[f64]) -> JobEstimator {
        JobEstimator::oracle(
            speeds.iter().map(|&s| params(s, 0.05)).collect(),
            EfficiencyParams::new(4000.0, 128.0),
            BatchLimits::new(128.0, 8192.0),
        )
    }

    fn mk_spec(id: u64, max_gpus: usize) -> JobSpec {
        JobSpec {
            id: JobId(id),
            name: format!("j{id}"),
            model: ModelKind::ResNet18,
            category: SizeCategory::Small,
            submit_time: 0.0,
            adaptivity: Adaptivity::Adaptive,
            min_gpus: 1,
            max_gpus,
            work_target: 1e9,
        }
    }

    struct Fixture {
        specs: Vec<JobSpec>,
        estimators: Vec<JobEstimator>,
        placements: Vec<Placement>,
    }

    impl Fixture {
        fn new(n: usize, max_gpus: usize, speeds: &[f64]) -> Self {
            Fixture {
                specs: (0..n as u64).map(|i| mk_spec(i, max_gpus)).collect(),
                estimators: (0..n).map(|_| mk_estimator(speeds)).collect(),
                placements: vec![Placement::empty(); n],
            }
        }

        fn views(&self) -> Vec<JobView<'_>> {
            self.specs
                .iter()
                .zip(&self.estimators)
                .zip(&self.placements)
                .map(|((spec, est), cur)| JobView {
                    id: spec.id,
                    spec,
                    estimator: est,
                    current: cur,
                    age: 300.0,
                    restarts: 0,
                    restart_delay: 30.0,
                    progress: 0.1,
                })
                .collect()
        }
    }

    #[test]
    fn every_queued_job_gets_one_gpu_when_capacity_allows() {
        let spec = ClusterSpec::heterogeneous_64();
        let cluster = ClusterView::new(spec.clone());
        let fx = Fixture::new(10, 16, &[1.0, 1.8, 4.0]);
        let mut sia = SiaPolicy::default();
        let allocs = sia.schedule(0.0, &fx.views(), &cluster);
        assert_eq!(allocs.len(), 10, "lambda makes allocation worthwhile");
        for p in allocs.values() {
            assert_eq!(p.total_gpus(), 1, "queued jobs start at one GPU");
        }
    }

    #[test]
    fn running_jobs_scale_up_over_rounds() {
        let spec = ClusterSpec::heterogeneous_64();
        let cluster = ClusterView::new(spec.clone());
        let mut fx = Fixture::new(2, 64, &[1.0, 1.8, 4.0]);
        let mut sia = SiaPolicy::default();
        let mut gpus_seen = Vec::new();
        for _ in 0..6 {
            let allocs = sia.schedule(0.0, &fx.views(), &cluster);
            let total: usize = allocs.values().map(|p| p.total_gpus()).sum();
            gpus_seen.push(total);
            for (i, s) in fx.specs.iter().enumerate() {
                fx.placements[i] = allocs.get(&s.id).cloned().unwrap_or_else(Placement::empty);
            }
        }
        assert!(
            gpus_seen.last().unwrap() > gpus_seen.first().unwrap(),
            "jobs must scale up over rounds: {gpus_seen:?}"
        );
    }

    #[test]
    fn capacity_never_exceeded() {
        let spec = ClusterSpec::heterogeneous_64();
        let cluster = ClusterView::new(spec.clone());
        let fx = Fixture::new(80, 16, &[1.0, 1.8, 4.0]); // heavy contention
        let mut sia = SiaPolicy::default();
        let allocs = sia.schedule(0.0, &fx.views(), &cluster);
        let total: usize = allocs.values().map(|p| p.total_gpus()).sum();
        assert!(total <= spec.total_gpus());
        // Spot-check per-type capacity via FreeGpus (take panics if exceeded).
        let mut free = sia_cluster::FreeGpus::all_free(&spec);
        for p in allocs.values() {
            free.take(p);
        }
    }

    #[test]
    fn faster_type_preferred_under_low_contention() {
        let spec = ClusterSpec::heterogeneous_64();
        let cluster = ClusterView::new(spec.clone());
        let fx = Fixture::new(1, 16, &[1.0, 1.8, 4.0]);
        let mut sia = SiaPolicy::default();
        let allocs = sia.schedule(0.0, &fx.views(), &cluster);
        let p = allocs.values().next().unwrap();
        let a100 = spec.gpu_type_by_name("a100").unwrap();
        assert_eq!(p.gpu_type(&spec), a100);
    }

    #[test]
    fn stable_allocation_without_goodput_changes() {
        // Once running, the restart factor should keep the job in place
        // when nothing material changed.
        let spec = ClusterSpec::heterogeneous_64();
        let cluster = ClusterView::new(spec.clone());
        let mut fx = Fixture::new(4, 8, &[1.0, 1.8, 4.0]);
        let mut sia = SiaPolicy::default();
        let first = sia.schedule(0.0, &fx.views(), &cluster);
        for (i, s) in fx.specs.iter().enumerate() {
            fx.placements[i] = first.get(&s.id).cloned().unwrap_or_else(Placement::empty);
        }
        // Run several rounds; after jobs reach max size the placement must
        // stop changing.
        let mut last = first;
        for _ in 0..8 {
            let next = sia.schedule(0.0, &fx.views(), &cluster);
            for (i, s) in fx.specs.iter().enumerate() {
                fx.placements[i] = next.get(&s.id).cloned().unwrap_or_else(Placement::empty);
            }
            last = next;
        }
        let again = sia.schedule(0.0, &fx.views(), &cluster);
        assert_eq!(last, again, "steady state must be stable");
    }

    #[test]
    fn allocations_identical_across_worker_counts() {
        // The worker pool must never change decisions — only wall-clock.
        let spec = ClusterSpec::heterogeneous_64();
        let cluster = ClusterView::new(spec.clone());
        let run = |workers: usize| {
            let mut fx = Fixture::new(12, 16, &[1.0, 1.8, 4.0]);
            let mut sia = SiaPolicy::new(SiaConfig {
                workers,
                ..SiaConfig::default()
            });
            let mut rounds = Vec::new();
            for _ in 0..4 {
                let allocs = sia.schedule(0.0, &fx.views(), &cluster);
                for (i, s) in fx.specs.iter().enumerate() {
                    fx.placements[i] = allocs.get(&s.id).cloned().unwrap_or_else(Placement::empty);
                }
                rounds.push(allocs);
            }
            rounds
        };
        let serial = run(1);
        for workers in [2usize, 4, 8] {
            assert_eq!(run(workers), serial, "workers={workers}");
        }
    }

    #[test]
    fn sharded_policy_allocations_identical_across_worker_counts() {
        // The sharded path must also be worker-count independent, and its
        // allocations must respect capacity like the monolith's.
        let spec = ClusterSpec::heterogeneous_64();
        let cluster = ClusterView::new(spec.clone());
        let run = |workers: usize| {
            let mut fx = Fixture::new(16, 16, &[1.0, 1.8, 4.0]);
            let mut sia = SiaPolicy::new(SiaConfig {
                workers,
                round_budget: Some(5.0),
                shard: ShardConfig {
                    enabled: true,
                    max_shard_groups: 4,
                    escalation_vars: 0, // force the sharded machinery
                    ..ShardConfig::default()
                },
                ..SiaConfig::default()
            });
            let mut rounds = Vec::new();
            for _ in 0..4 {
                let allocs = sia.schedule(0.0, &fx.views(), &cluster);
                for (i, s) in fx.specs.iter().enumerate() {
                    fx.placements[i] = allocs.get(&s.id).cloned().unwrap_or_else(Placement::empty);
                }
                rounds.push(allocs);
            }
            let stats = sia.round_stats().expect("stats recorded");
            (rounds, stats)
        };
        let (serial, serial_stats) = run(1);
        assert!(serial_stats.shards >= 2, "sharded path must engage");
        assert!(serial_stats.lagrangian_iters > 0);
        for workers in [2usize, 4, 0] {
            let (rounds, stats) = run(workers);
            assert_eq!(rounds, serial, "workers={workers}");
            assert_eq!(stats.objective, serial_stats.objective);
            assert_eq!(stats.shards, serial_stats.shards);
        }
        // Capacity respected in every round.
        let mut free = sia_cluster::FreeGpus::all_free(&spec);
        for p in serial.last().unwrap().values() {
            free.take(p);
        }
    }

    #[test]
    fn reservation_forces_allocation() {
        let spec = ClusterSpec::heterogeneous_64();
        let cluster = ClusterView::new(spec.clone());
        let fx = Fixture::new(40, 16, &[1.0, 1.8, 4.0]);
        let mut sia = SiaPolicy::default();
        let a100 = spec.gpu_type_by_name("a100").unwrap();
        let reserved_cfg = Configuration::new(1, 8, a100);
        sia.reserve(JobId(39), reserved_cfg);
        // Reservations bypass the start-at-1-GPU rule via forced ILP bounds;
        // the candidate must exist, so mark the job as already running at 8.
        let mut fx = fx;
        fx.placements[39] = Placement::new(vec![(9, 8)]); // a100 node
        let allocs = sia.schedule(0.0, &fx.views(), &cluster);
        let p = allocs.get(&JobId(39)).expect("reserved job allocated");
        assert_eq!(p.total_gpus(), 8);
        assert_eq!(p.gpu_type(&spec), a100);
    }

    #[test]
    fn exported_state_restores_warm_start_decisions() {
        // A restored policy must make the same decisions as the original:
        // run a few rounds, export, import into a fresh policy, and compare
        // the next rounds side by side.
        let spec = ClusterSpec::heterogeneous_64();
        let cluster = ClusterView::new(spec.clone());
        let mut fx = Fixture::new(8, 16, &[1.0, 1.8, 4.0]);
        let mut sia = SiaPolicy::default();
        for _ in 0..3 {
            let allocs = sia.schedule(0.0, &fx.views(), &cluster);
            for (i, s) in fx.specs.iter().enumerate() {
                fx.placements[i] = allocs.get(&s.id).cloned().unwrap_or_else(Placement::empty);
            }
        }
        let state = sia.export_state().expect("sia exports state");
        let mut restored = SiaPolicy::default();
        restored.import_state(&state);
        assert_eq!(restored.prev_assignment, sia.prev_assignment);
        assert_eq!(restored.prev_cluster_version, sia.prev_cluster_version);
        for _ in 0..2 {
            let a = sia.schedule(0.0, &fx.views(), &cluster);
            let b = restored.schedule(0.0, &fx.views(), &cluster);
            assert_eq!(a, b, "restored policy must decide identically");
            for (i, s) in fx.specs.iter().enumerate() {
                fx.placements[i] = a.get(&s.id).cloned().unwrap_or_else(Placement::empty);
            }
        }
    }

    #[test]
    fn import_state_skips_malformed_entries() {
        let mut sia = SiaPolicy::default();
        sia.import_state(&serde_json::json!({
            "prev_assignment": [
                {"job": 1, "nodes": 1, "gpus": 4, "gpu_type": 0},
                {"job": 2, "nodes": 2, "gpus": 1, "gpu_type": 0}, // gpus < nodes
                {"job": 3, "nodes": 1, "gpu_type": 0},            // missing gpus
            ],
            "prev_cluster_version": 7,
        }));
        assert_eq!(sia.prev_assignment.len(), 1);
        assert!(sia.prev_assignment.contains_key(&JobId(1)));
        assert_eq!(sia.prev_cluster_version, Some(7));
    }

    #[test]
    fn hybrid_parallel_job_scales_in_replica_units() {
        let spec = ClusterSpec::heterogeneous_64();
        let cluster = ClusterView::new(spec.clone());
        let profile = ModelKind::Gpt2p8b.profile();
        let job = JobSpec {
            id: JobId(0),
            name: "gpt".into(),
            model: ModelKind::Gpt2p8b,
            category: SizeCategory::XxLarge,
            submit_time: 0.0,
            adaptivity: Adaptivity::Adaptive,
            min_gpus: 2,
            max_gpus: 64,
            work_target: 1e9,
        };
        let truth = profile.true_model(&spec);
        let est = JobEstimator::oracle(
            truth.per_type.clone(),
            profile.efficiency_params(),
            profile.batch_limits(),
        );
        let cur = Placement::empty();
        let views = [JobView {
            id: job.id,
            spec: &job,
            estimator: &est,
            current: &cur,
            age: 0.0,
            restarts: 0,
            restart_delay: 250.0,
            progress: 0.0,
        }];
        let mut sia = SiaPolicy::default();
        let allocs = sia.schedule(0.0, &views, &cluster);
        let p = allocs.get(&job.id).expect("GPT job allocated");
        // One replica: 2 GPUs on a100 or 8 on rtx; t4 is impossible.
        let t = p.gpu_type(&spec);
        let name = &spec.kind(t).name;
        let width = profile.pipeline.unwrap().gpus_per_replica(name).unwrap();
        assert_eq!(p.total_gpus(), width, "starts with exactly one replica");
    }
}
