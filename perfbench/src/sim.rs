//! The simulation workloads: `philly64` and `fig9-sharded`.
//!
//! Each run builds the inputs from the seed, then repeats the whole
//! simulation with a fresh policy until the time budget is spent. A
//! forwarding [`Scheduler`] wrapper times every `schedule` call and keeps
//! the policy's per-round [`SolverStats`]; the program itself is driven only
//! through `Trace::generate`, `Simulator::new` and `Simulator::run`.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::Value;
use sia_cluster::{ClusterSpec, ClusterView};
use sia_core::{SiaConfig, SiaPolicy};
use sia_sim::{
    AllocationMap, DecisionInfo, JobView, Scheduler, SimConfig, SimResult, Simulator, SolveOutcome,
    SolverStats,
};
use sia_workloads::{Trace, TraceConfig, TraceKind};

use crate::layers::{ratio, Mark, TimeSplit};
use crate::spans::{traced, SpanLog, Tag};
use crate::stats;
use crate::{digest, Checks, Metric, Report, RunOpts};

/// A simulation workload: cluster, trace, horizon and policy settings.
pub struct SimSpec {
    pub name: &'static str,
    cluster: fn() -> ClusterSpec,
    trace: fn(u64) -> TraceConfig,
    /// Simulation horizon, hours.
    max_hours: f64,
    policy: fn(usize) -> SiaConfig,
}

/// Sia on the 64-GPU heterogeneous cluster, Philly-like trace, run to
/// completion.
pub const PHILLY64: SimSpec = SimSpec {
    name: "philly64",
    cluster: ClusterSpec::heterogeneous_64,
    trace: |seed| TraceConfig::new(TraceKind::Philly, seed).with_max_gpus_cap(16),
    max_hours: 400.0,
    policy: |workers| SiaConfig {
        workers,
        ..SiaConfig::default()
    },
};

/// Sharded Sia (15 s anytime budget) on 1,024 GPUs, Helios-like trace at
/// 320 jobs/h over a 1 h window, 2 h horizon.
pub const FIG9_SHARDED: SimSpec = SimSpec {
    name: "fig9-sharded",
    cluster: || ClusterSpec::heterogeneous_scaled(16),
    trace: |seed| {
        let mut cfg = TraceConfig::new(TraceKind::Helios, seed)
            .with_rate(320.0)
            .with_max_gpus_cap(16);
        cfg.window_hours = 1.0;
        cfg
    },
    max_hours: 2.0,
    policy: |workers| {
        let mut cfg = SiaConfig {
            workers,
            round_budget: Some(15.0),
            ..SiaConfig::default()
        };
        cfg.shard.enabled = true;
        cfg.milp.gap_tolerance = 1e-3;
        cfg
    },
};

/// Times each `schedule` call of the wrapped policy and keeps its
/// per-round stats; everything else is forwarded unchanged.
struct Timed<'a> {
    inner: SiaPolicy,
    decisions: Vec<f64>,
    /// Peak live heap of each round, from its `schedule` call to the next
    /// one, MB.
    round_heap: Vec<f64>,
    stats: Vec<SolverStats>,
    /// Span log and the enclosing `sim.run` span, in traced runs.
    trace: Option<(&'a mut SpanLog, usize)>,
}

impl Scheduler for Timed<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn round_duration(&self) -> f64 {
        self.inner.round_duration()
    }

    fn schedule(&mut self, now: f64, jobs: &[JobView<'_>], cluster: &ClusterView) -> AllocationMap {
        let round = self.decisions.len();
        if round > 0 {
            self.round_heap.push(crate::heap::peak_mb());
        }
        crate::heap::reset_peak();
        let span = self
            .trace
            .as_mut()
            .map(|(log, run)| log.open("core.schedule", Some(*run), Tag::Round(round)));
        let t0 = Instant::now();
        let out = self.inner.schedule(now, jobs, cluster);
        self.decisions.push(t0.elapsed().as_secs_f64());
        if let (Some((log, _)), Some(id)) = (self.trace.as_mut(), span) {
            log.close(id);
        }
        out
    }

    fn round_stats(&mut self) -> Option<SolverStats> {
        let stats = self.inner.round_stats();
        self.stats.extend(stats);
        stats
    }

    fn round_decisions(&mut self) -> Vec<DecisionInfo> {
        self.inner.round_decisions()
    }

    fn gap_tolerance(&self) -> Option<f64> {
        self.inner.gap_tolerance()
    }

    fn export_state(&self) -> Option<Value> {
        self.inner.export_state()
    }

    fn import_state(&mut self, state: &Value) {
        self.inner.import_state(state)
    }
}

/// Deterministic outputs of one run: identical on every repetition, and
/// equal to the manifest's `expected` block for the recorded cell.
type Fingerprint = BTreeMap<String, Value>;

/// One timed simulation.
struct Rep {
    traced: bool,
    wall_s: f64,
    /// Peak live heap of each round (inputs included), MB.
    round_heap: Vec<f64>,
    decisions: Vec<f64>,
    split: TimeSplit,
    fingerprint: Fingerprint,
    jobs: usize,
    finished: usize,
    unfinished: usize,
    avg_jct_h: f64,
    execute_s: f64,
    lagrangian_s: f64,
}

impl Rep {
    fn count(&self, key: &str) -> u64 {
        self.fingerprint
            .get(key)
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("fingerprint has no count {key}"))
    }
}

fn is_fallback(s: &SolverStats) -> bool {
    matches!(
        s.outcome,
        SolveOutcome::LagrangianFallback | SolveOutcome::GreedyFallback
    )
}

fn fingerprint(
    result: &SimResult,
    stats: &[SolverStats],
    after: &Mark,
    before: &Mark,
) -> Fingerprint {
    let sum = |f: fn(&SolverStats) -> usize| stats.iter().map(f).sum::<usize>() as u64;
    let reused = sum(|s| s.cache_hits);
    let rebuilt = sum(|s| s.cache_misses);
    let entries: [(&str, Value); 17] = [
        ("jobs", Value::from(result.records.len() as u64)),
        ("rounds", Value::from(result.rounds.len() as u64)),
        ("rows_reused", Value::from(reused)),
        ("row_lookups", Value::from(reused + rebuilt)),
        ("candidates", Value::from(sum(|s| s.candidates))),
        ("bb_nodes", Value::from(sum(|s| s.nodes))),
        ("pivots", Value::from(sum(|s| s.pivots))),
        ("shards", Value::from(sum(|s| s.shards))),
        ("lagrangian_iters", Value::from(sum(|s| s.lagrangian_iters))),
        (
            "fallback_rounds",
            Value::from(stats.iter().filter(|s| is_fallback(s)).count() as u64),
        ),
        (
            "events_fired",
            Value::from(after.counter_since(before, "events.fired")),
        ),
        (
            "warm_accepted",
            Value::from(after.counter_since(before, "solver.simplex.warm_accepted")),
        ),
        (
            "warm_rejected",
            Value::from(after.counter_since(before, "solver.simplex.warm_rejected")),
        ),
        (
            "flight_records",
            Value::from(result.trace.records.len() as u64),
        ),
        (
            "audit_records",
            Value::from(result.audit.records.len() as u64),
        ),
        (
            "flight_fnv",
            Value::from(digest::hex(&result.trace.canonical_jsonl())),
        ),
        (
            "audit_fnv",
            Value::from(digest::hex(&result.audit.canonical_jsonl())),
        ),
    ];
    entries
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

fn run_rep(spec: &SimSpec, inputs: &Inputs, workers: usize, log: Option<&mut SpanLog>) -> Rep {
    let traced = log.is_some();
    let mut policy = Timed {
        inner: SiaPolicy::new((spec.policy)(workers)),
        decisions: Vec::new(),
        round_heap: Vec::new(),
        stats: Vec::new(),
        trace: log.map(|log| (log, 0)),
    };
    let before = Mark::take();
    if let Some((log, run)) = policy.trace.as_mut() {
        *run = log.open("sim.run", None, Tag::None);
    }
    let t0 = Instant::now();
    let result = inputs.sim.run(&mut policy);
    let wall_s = t0.elapsed().as_secs_f64();
    let after = Mark::take();
    let Timed {
        decisions,
        mut round_heap,
        stats,
        trace,
        ..
    } = policy;
    round_heap.push(crate::heap::peak_mb());
    // Traced runs split time by the spans; untraced ones by the wrapper's
    // own timers. Both must add up.
    let (run_s, schedule_s) = match trace {
        Some((log, run)) => {
            log.close(run);
            let run_s = log.spans()[run].dur_s();
            (run_s, run_s - log.self_s(run))
        }
        None => (wall_s, decisions.iter().sum()),
    };
    let phase = |f: fn(&SolverStats) -> f64| stats.iter().map(f).sum::<f64>();
    let split = TimeSplit {
        run_s,
        schedule_s,
        phases_s: [
            phase(|s| s.refit_s),
            phase(|s| s.goodput_s),
            phase(|s| s.build_s),
            phase(|s| s.solve_s),
            phase(|s| s.placement_s),
        ],
    };
    let finished = result
        .records
        .iter()
        .filter(|r| r.finish_time.is_some())
        .count();
    let fingerprint = fingerprint(&result, &stats, &after, &before);
    Rep {
        traced,
        wall_s,
        round_heap,
        split,
        jobs: inputs.jobs,
        finished,
        unfinished: result.unfinished,
        avg_jct_h: result.avg_jct() / 3600.0,
        execute_s: after.span_s_since(&before, "engine.execute"),
        lagrangian_s: after.span_s_since(&before, "solver.lagrangian.solve"),
        decisions,
        fingerprint,
    }
}

/// Built inputs: the simulator and how many jobs it was given.
struct Inputs {
    sim: Simulator,
    jobs: usize,
}

/// Builds the inputs of the recorded cell: the job trace, then
/// `Simulator::new`, both from `seed`. Returns them with the trace
/// generation time.
fn setup(spec: &SimSpec, seed: u64, mut log: Option<&mut SpanLog>) -> (Inputs, f64) {
    let t0 = Instant::now();
    let trace = traced(&mut log, "workloads.generate", || {
        Trace::generate(&(spec.trace)(seed))
    });
    let generate_s = t0.elapsed().as_secs_f64();
    let cfg = SimConfig {
        seed,
        max_hours: spec.max_hours,
        ..SimConfig::default()
    };
    let sim = traced(&mut log, "sim.new", || {
        Simulator::new((spec.cluster)(), &trace, cfg)
    });
    let jobs = trace.jobs.len();
    (Inputs { sim, jobs }, generate_s)
}

/// Runs a simulation workload. Every run simulates the recorded cell
/// (`recorded_seed` for both the trace and the simulator's noise streams),
/// whatever `opts.seed` is: the per-round solve cost, and with it the tail
/// latency, moves with the seed far more than any bound could allow (see
/// the manifest). So the cell's recorded outputs are checked on every run.
pub fn run(spec: &SimSpec, opts: &RunOpts, recorded_seed: u64, expected: Option<&Value>) -> Report {
    let mut report = Report::new(spec.name, opts);
    let mut log = SpanLog::default();
    let crate::Setups {
        inputs,
        generate_s: generate,
        setup_s: setups,
    } = crate::repeat_setup(|| setup(spec, recorded_seed, opts.trace.then_some(&mut log)));

    let first_mark = Mark::take();
    let mut reps: Vec<Rep> = Vec::new();
    let start = Instant::now();
    loop {
        let traced = opts.trace && crate::traced_turn(reps.len());
        reps.push(run_rep(
            spec,
            &inputs,
            report.workers,
            traced.then_some(&mut log),
        ));
        let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
        let next = stats::median(&walls);
        let min_reps = if opts.trace { 2 } else { crate::MIN_REPS };
        if reps.len() >= min_reps && start.elapsed().as_secs_f64() + next > opts.seconds {
            break;
        }
    }
    let telemetry = Mark::take().delta_json(&first_mark);

    check(&mut report.checks, &reps, expected);
    let first = &reps[0];
    let rounds = first.decisions.len();
    report.reps = reps.len();
    report.fingerprint = Some(Value::Object(first.fingerprint.clone()));
    report.rep_walls = reps.iter().map(|r| r.wall_s).collect();
    report.attempted = (rounds * reps.len()) as u64;
    report.failed = reps.iter().map(|r| r.count("fallback_rounds")).sum();

    let untraced: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
    let wall = stats::median(&untraced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    // Each round's latency is its median over the untraced repetitions.
    // Rounds take milliseconds, and the slowest ones come in bursts that
    // share the host's state of the moment, so a round's fastest
    // repetition is one draw of that state: the per-round minimum put the
    // run-to-run spread of the tail at 0.2-0.3 of its median.
    let per_round = stats::sorted(&stats::columnwise(
        &untraced
            .iter()
            .map(|r| r.decisions.clone())
            .collect::<Vec<_>>(),
        stats::median,
    ));
    let p50_ms = stats::percentile(&per_round, 5_000) * 1e3;
    let tail = stats::tail_bp(rounds);
    let tail_ms = tail.map_or(p50_ms, |bp| stats::percentile(&per_round, bp) * 1e3);
    let tail_label = tail.map_or("p50".to_string(), stats::label);
    let setup_s = stats::median(&setups);
    let rss = crate::peak_rss_mb();
    let heap_p50 = stats::median(&first.round_heap);
    let heap_max = first.round_heap.iter().copied().fold(0.0, f64::max);
    let rounds_per_s = rounds as f64 / wall;

    if !opts.trace {
        report.metric("setup_s", Metric::new(setup_s, "s", setups.len()));
        report.metric(
            "ops_per_s",
            Metric::new(rounds_per_s, "1/s", untraced.len()),
        );
        report.metric("op_p50_ms", Metric::new(p50_ms, "ms", rounds));
        report.metric("op_tail_ms", Metric::new(tail_ms, "ms", rounds));
        report.metric("heap_p50_mb", Metric::new(heap_p50, "MB", rounds));
        report.named("setup_s", Metric::new(setup_s, "s", setups.len()));
        report.named(
            "rounds_per_s",
            Metric::new(rounds_per_s, "1/s", untraced.len()),
        );
        report.named("decision_p50_ms", Metric::new(p50_ms, "ms", rounds));
        report.named(
            &format!("decision_tail_ms ({tail_label})"),
            Metric::new(tail_ms, "ms", rounds),
        );
        report.named(
            "avg_jct_h",
            Metric::new(first.avg_jct_h, "h", first.finished),
        );
        report.named("heap_p50_mb", Metric::new(heap_p50, "MB", rounds));
        report.named("heap_max_mb", Metric::new(heap_max, "MB", rounds));
        report.named("peak_rss_mb", Metric::new(rss, "MB", 1));
        report.named(
            "ops_failed_frac",
            Metric::new(
                ratio(first.count("fallback_rounds") as f64, rounds as f64),
                "frac",
                rounds,
            ),
        );
        return report;
    }

    // The per-layer table comes from one traced repetition (the one with
    // the median run time), so its identities hold exactly.
    let mut traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
    traced.sort_by(|a, b| a.split.run_s.total_cmp(&b.split.run_s));
    let rep = traced[traced.len() / 2];
    let traced_wall = stats::median(&traced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let s = rep.split;
    let reused = rep.count("rows_reused") as f64;
    let lookups = rep.count("row_lookups") as f64;
    let warm_ok = rep.count("warm_accepted") as f64;
    let warm_all = warm_ok + rep.count("warm_rejected") as f64;
    let sec = |v: f64| Metric::new(v, "s", 1);
    let count = |key: &str| Metric::new(rep.count(key) as f64, "count", 1);
    report.metric(
        "workloads.generate_s",
        Metric::new(stats::median(&generate), "s", generate.len()),
    );
    report.metric("sim.run_s", sec(s.run_s));
    report.metric("sim.self_s", sec(s.sim_self_s()));
    report.metric("sim.execute_s", sec(rep.execute_s));
    report.metric("sim.events_fired", count("events_fired"));
    report.metric("telemetry.flight_records", count("flight_records"));
    report.metric("telemetry.audit_records", count("audit_records"));
    report.metric("core.schedule_s", Metric::new(s.schedule_s, "s", rounds));
    report.metric("core.refit_s", sec(s.phases_s[0]));
    report.metric("core.goodput_s", sec(s.phases_s[1]));
    report.metric("core.ilp_build_s", sec(s.phases_s[2]));
    report.metric("solver.solve_s", sec(s.phases_s[3]));
    report.metric("core.placement_s", sec(s.phases_s[4]));
    report.metric("core.unattributed_s", sec(s.unattributed_s()));
    report.metric("core.rows_reused", count("rows_reused"));
    report.metric(
        "core.rows_rebuilt",
        Metric::new(lookups - reused, "count", 1),
    );
    report.metric("core.row_lookups", count("row_lookups"));
    report.metric(
        "core.row_hit_ratio",
        Metric::new(ratio(reused, lookups), "ratio", lookups as usize),
    );
    report.metric("core.candidates", count("candidates"));
    report.metric("solver.bb_nodes", count("bb_nodes"));
    report.metric("solver.pivots", count("pivots"));
    report.metric("solver.warm_attempts", Metric::new(warm_all, "count", 1));
    report.metric(
        "solver.warm_accept_ratio",
        Metric::new(ratio(warm_ok, warm_all), "ratio", warm_all as usize),
    );
    report.metric("solver.lagrangian_s", sec(rep.lagrangian_s));
    report.metric("solver.shards", count("shards"));
    report.metric("solver.lagrangian_iters", count("lagrangian_iters"));
    report.tracing_overhead(traced_wall, wall, traced.len(), untraced.len());
    report.save_spans(opts, &log, telemetry);
    report
}

fn check(checks: &mut Checks, reps: &[Rep], expected: Option<&Value>) {
    let first = &reps[0];
    for (i, r) in reps.iter().enumerate() {
        checks.expect(
            r.finished + r.unfinished == r.jobs
                && r.fingerprint.get("jobs") == Some(&Value::from(r.jobs as u64)),
            "jobs_accounted",
            || {
                format!(
                    "rep {i}: {} finished + {} unfinished != {} submitted",
                    r.finished, r.unfinished, r.jobs
                )
            },
        );
        checks.expect(
            r.decisions.len() as u64 == r.count("rounds"),
            "one_decision_per_round",
            || {
                format!(
                    "rep {i}: {} schedule calls for {} rounds",
                    r.decisions.len(),
                    r.count("rounds")
                )
            },
        );
        checks.expect(
            r.fingerprint == first.fingerprint,
            "deterministic_reruns",
            || {
                format!(
                    "rep {i} differs from rep 0: {:?} vs {:?}",
                    r.fingerprint, first.fingerprint
                )
            },
        );
        let split = r.split.check();
        checks.expect(split.is_ok(), "layers_add_up", || {
            format!("rep {i}: {}", split.unwrap_err())
        });
    }
    if let Some(want) = expected.and_then(Value::as_object) {
        for (key, value) in want {
            checks.expect(
                first.fingerprint.get(key) == Some(value),
                "recorded_seed_outputs",
                || {
                    format!(
                        "{key}: got {:?}, recorded {value:?}",
                        first.fingerprint.get(key)
                    )
                },
            );
        }
    }
}
