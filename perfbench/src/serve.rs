//! The `serve-burst` workload: one in-process `Server` receives 100k
//! `submit` requests inside one scheduling round from four tenants, with a
//! `cancel` every 40 submits, a `query` every 97 and a `metrics` read every
//! 1,000. No round runs, so the solver never does: the workload isolates
//! the serve layers, reads beside writes. The program is driven only
//! through `Trace::generate`, `Server::new` and `Server::handle`.

use std::time::Instant;

use serde_json::{json, ToJson, Value};
use sia_cluster::{ClusterSpec, JobId};
use sia_core::{SiaConfig, SiaPolicy};
use sia_serve::{ServeOptions, Server};
use sia_sim::SimConfig;
use sia_workloads::{Trace, TraceConfig, TraceKind};

use crate::layers::{ratio, Mark};
use crate::spans::{traced, Span, SpanLog, Tag};
use crate::stats;
use crate::{Checks, Metric, Report, RunOpts};

const SUBMITS: usize = 100_000;
const CANCEL_EVERY: usize = 40;
const QUERY_EVERY: usize = 97;
const METRICS_EVERY: usize = 1_000;
const TENANTS: usize = 4;
/// Scheduling round of the default Sia policy, seconds; every request
/// lands before the first round boundary.
const ROUND_S: f64 = 60.0;

/// Request kinds, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Submit,
    Cancel,
    Query,
    Metrics,
}

const KINDS: [Kind; 4] = [Kind::Submit, Kind::Cancel, Kind::Query, Kind::Metrics];

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Submit => "serve.submit",
            Kind::Cancel => "serve.cancel",
            Kind::Query => "serve.query",
            Kind::Metrics => "serve.metrics",
        }
    }
}

/// The request stream: JSONL lines with their ids and kinds.
struct Burst {
    lines: Vec<String>,
    ids: Vec<String>,
    kinds: Vec<Kind>,
    /// Virtual time of the last request.
    last_at: f64,
}

impl Burst {
    fn push(&mut self, id: String, kind: Kind, line: String) {
        self.lines.push(line);
        self.ids.push(id);
        self.kinds.push(kind);
    }

    fn count(&self, kind: Kind) -> usize {
        self.kinds.iter().filter(|&&k| k == kind).count()
    }
}

/// Builds the burst from a template trace: its jobs supply realistic
/// model/size mixes; ids and submit times are reassigned so every request
/// lands inside the first round.
fn build(seed: u64) -> Burst {
    let template =
        Trace::generate(&TraceConfig::new(TraceKind::Philly, seed).with_max_gpus_cap(16));
    let mut burst = Burst {
        lines: Vec::new(),
        ids: Vec::new(),
        kinds: Vec::new(),
        last_at: 0.0,
    };
    for i in 0..SUBMITS {
        let mut job = template.jobs[i % template.jobs.len()].clone();
        job.id = JobId(i as u64);
        job.name = format!("bench-{i}");
        job.submit_time = ROUND_S * 0.9 * i as f64 / SUBMITS as f64;
        let at = job.submit_time;
        burst.last_at = at;
        let id = format!("r{i}");
        let line = json!({
            "id": id.as_str(),
            "cmd": "submit",
            "at": at,
            "tenant": format!("tenant-{}", i % TENANTS),
            "gpu_hours": 1.0,
            "job": job.to_json(),
        });
        let line = serde_json::to_string(&line).expect("request line");
        burst.push(id, Kind::Submit, line);
        if i % CANCEL_EVERY == CANCEL_EVERY - 1 {
            let id = format!("c{i}");
            let line = format!(r#"{{"id":"{id}","cmd":"cancel","at":{at},"job":{i}}}"#);
            burst.push(id, Kind::Cancel, line);
        }
        if i % QUERY_EVERY == QUERY_EVERY - 1 {
            let id = format!("q{i}");
            let line = format!(r#"{{"id":"{id}","cmd":"query","at":{at}}}"#);
            burst.push(id, Kind::Query, line);
        }
        if i % METRICS_EVERY == METRICS_EVERY - 1 {
            let id = format!("m{i}");
            let line = format!(r#"{{"id":"{id}","cmd":"metrics"}}"#);
            burst.push(id, Kind::Metrics, line);
        }
    }
    burst
}

fn server(seed: u64, workers: usize) -> Server {
    Server::new(
        ClusterSpec::heterogeneous_64(),
        SimConfig {
            seed,
            ..SimConfig::default()
        },
        Box::new(SiaPolicy::new(SiaConfig {
            workers,
            ..SiaConfig::default()
        })),
        &ServeOptions {
            default_quota: Some(1e9),
            ..ServeOptions::default()
        },
    )
}

/// One replay of the burst through a fresh server.
struct Rep {
    traced: bool,
    wall_s: f64,
    /// Peak live heap within each request (the request lines and the
    /// server's state included), MB.
    heap: Vec<f64>,
    /// Per-request `handle` latency, seconds, in stream order.
    latencies: Vec<f64>,
    /// `ok:false` replies.
    refused: u64,
    rejected: u64,
    /// The closing service-stats query.
    stats: Value,
}

/// Checks one reply batch: exactly one value answers request `id` and it
/// says `ok:true`. Returns whether the request was refused (`ok:false`).
fn check_reply(checks: &mut Checks, out: &[Value], id: &str) -> bool {
    let answers: Vec<&Value> = out
        .iter()
        .filter(|v| v.get("id").and_then(Value::as_str) == Some(id) && v.get("ok").is_some())
        .collect();
    let ok = answers.len() == 1 && answers[0].get("ok") == Some(&Value::Bool(true));
    checks.expect(ok, "one_ok_reply_per_request", || {
        format!("request {id}: {answers:?}")
    });
    out.iter().any(|v| v.get("ok") == Some(&Value::Bool(false)))
}

fn run_rep(
    burst: &Burst,
    seed: u64,
    workers: usize,
    checks: &mut Checks,
    mut log: Option<&mut SpanLog>,
) -> Rep {
    let is_traced = log.is_some();
    let mut server = traced(&mut log, "serve.new", || server(seed, workers));
    let before = Mark::take();
    let mut latencies = Vec::with_capacity(burst.lines.len());
    let mut heap = Vec::with_capacity(burst.lines.len());
    let mut refused = 0;
    let wall_s = match log.as_deref_mut() {
        None => {
            let t0 = Instant::now();
            for (line, id) in burst.lines.iter().zip(&burst.ids) {
                crate::heap::reset_peak();
                let t = Instant::now();
                let out = server.handle(line);
                latencies.push(t.elapsed().as_secs_f64());
                heap.push(crate::heap::peak_mb());
                refused += u64::from(check_reply(checks, &out, id));
            }
            t0.elapsed().as_secs_f64()
        }
        Some(log) => {
            let run = log.open("serve.run", None, Tag::None);
            for ((line, id), kind) in burst.lines.iter().zip(&burst.ids).zip(&burst.kinds) {
                crate::heap::reset_peak();
                let start_s = log.clock_s();
                let out = server.handle(line);
                let end_s = log.clock_s();
                heap.push(crate::heap::peak_mb());
                latencies.push(end_s - start_s);
                log.push(Span {
                    name: kind.span(),
                    start_s,
                    end_s,
                    parent: Some(run),
                    tag: Tag::Request(id.clone()),
                });
                refused += u64::from(check_reply(checks, &out, id));
            }
            log.close(run);
            log.spans()[run].dur_s()
        }
    };
    let rejected = Mark::take().counter_since(&before, "serve.rejected");
    let at = burst.last_at;
    let stats = traced(&mut log, "serve.stats_query", || {
        server.handle(&format!(r#"{{"id":"final","cmd":"query","at":{at}}}"#))
    })
    .pop()
    .unwrap_or(Value::Null);
    Rep {
        traced: is_traced,
        wall_s,
        heap,
        latencies,
        refused,
        rejected,
        stats,
    }
}

/// The closing `query` must account for every submit and cancel.
fn check_stats(checks: &mut Checks, burst: &Burst, stats: &Value) {
    let get = |k: &str| stats.get(k).and_then(Value::as_u64);
    let submits = burst.count(Kind::Submit) as u64;
    let cancels = burst.count(Kind::Cancel) as u64;
    let ok = get("submitted") == Some(submits)
        && get("admitted") == Some(submits)
        && get("cancelled") == Some(cancels)
        && get("rejected") == Some(0)
        && get("pending").zip(get("active")).map(|(p, a)| p + a) == Some(submits - cancels);
    checks.expect(ok, "service_stats_match", || {
        format!("{submits} submits - {cancels} cancels vs {stats:?}")
    });
}

/// Runs serve-burst; the request count it must produce is the same for
/// every seed.
pub fn run(opts: &RunOpts, expected: Option<&Value>) -> Report {
    let mut report = Report::new("serve-burst", opts);
    let workers = report.workers;
    let mut log = SpanLog::default();
    let crate::Setups {
        inputs: burst,
        generate_s: generate,
        setup_s: setups,
    } = crate::repeat_setup(|| {
        let mut log = opts.trace.then_some(&mut log);
        let t0 = Instant::now();
        let burst = traced(&mut log, "workloads.generate", || build(opts.seed));
        let generate_s = t0.elapsed().as_secs_f64();
        drop(traced(&mut log, "serve.new", || server(opts.seed, workers)));
        (burst, generate_s)
    });
    if let Some(want) = expected
        .and_then(|e| e.get("requests"))
        .and_then(Value::as_u64)
    {
        report.checks.expect(
            burst.lines.len() as u64 == want,
            "recorded_seed_outputs",
            || format!("{} requests, recorded {want}", burst.lines.len()),
        );
    }

    let first_mark = Mark::take();
    let mut reps: Vec<Rep> = Vec::new();
    let start = Instant::now();
    loop {
        let traced = opts.trace && crate::traced_turn(reps.len());
        let rep = run_rep(
            &burst,
            opts.seed,
            workers,
            &mut report.checks,
            traced.then_some(&mut log),
        );
        check_stats(&mut report.checks, &burst, &rep.stats);
        reps.push(rep);
        let next = stats::median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        let min_reps = if opts.trace { 2 } else { crate::MIN_REPS };
        if reps.len() >= min_reps && start.elapsed().as_secs_f64() + next > opts.seconds {
            break;
        }
    }
    let telemetry = Mark::take().delta_json(&first_mark);

    let n = burst.lines.len();
    report.reps = reps.len();
    report.rep_walls = reps.iter().map(|r| r.wall_s).collect();
    report.attempted = (n * reps.len()) as u64;
    report.failed = reps.iter().map(|r| r.refused).sum();
    let untraced: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
    let wall = stats::median(&untraced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    // Each request's latency is its fastest over the untraced repetitions:
    // every repetition replays the same request against the same server
    // state, and contention from the shared host only ever adds time.
    let fastest = stats::sorted(&stats::columnwise(
        &untraced
            .iter()
            .map(|r| r.latencies.clone())
            .collect::<Vec<_>>(),
        stats::min,
    ));
    let tail_bp = stats::tail_bp(n).expect("over 100 requests");
    let us = |bp: u32| stats::percentile(&fastest, bp) * 1e6;
    let setup_s = stats::median(&setups);
    let rss = crate::peak_rss_mb();
    let heap_p50 = stats::median(&reps[0].heap);
    let heap_max = reps[0].heap.iter().copied().fold(0.0, f64::max);
    let req_per_s = n as f64 / wall;

    if !opts.trace {
        report.metric("setup_s", Metric::new(setup_s, "s", setups.len()));
        report.metric("ops_per_s", Metric::new(req_per_s, "1/s", untraced.len()));
        report.metric("op_p50_ms", Metric::new(us(5_000) / 1e3, "ms", n));
        report.metric("op_tail_ms", Metric::new(us(tail_bp) / 1e3, "ms", n));
        report.metric("heap_p50_mb", Metric::new(heap_p50, "MB", n));
        report.named("setup_s", Metric::new(setup_s, "s", setups.len()));
        report.named("req_per_s", Metric::new(req_per_s, "1/s", untraced.len()));
        report.named("req_p50_us", Metric::new(us(5_000), "us", n));
        report.named("req_p99_us", Metric::new(us(9_900), "us", n));
        report.named(
            &format!("req_tail_us ({})", stats::label(tail_bp)),
            Metric::new(us(tail_bp), "us", n),
        );
        report.named("heap_p50_mb", Metric::new(heap_p50, "MB", n));
        report.named("heap_max_mb", Metric::new(heap_max, "MB", n));
        report.named("peak_rss_mb", Metric::new(rss, "MB", 1));
        report.named(
            "ops_failed_frac",
            Metric::new(
                ratio(report.failed as f64, report.attempted as f64),
                "frac",
                report.attempted as usize,
            ),
        );
        return report;
    }

    // Per-layer table from the traced repetition with the median wall time.
    let mut traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
    traced.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    let rep = traced[traced.len() / 2];
    let traced_wall = stats::median(&traced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let of_kind = |kind: Kind| -> Vec<f64> {
        rep.latencies
            .iter()
            .zip(&burst.kinds)
            .filter(|(_, &k)| k == kind)
            .map(|(&l, _)| l)
            .collect()
    };
    report.metric(
        "workloads.generate_s",
        Metric::new(stats::median(&generate), "s", generate.len()),
    );
    for kind in KINDS {
        let lat = of_kind(kind);
        let name = kind.span();
        report.metric(
            &format!("{name}_s"),
            Metric::new(lat.iter().sum(), "s", lat.len()),
        );
        let p50 = stats::median(&lat);
        match kind {
            Kind::Metrics => report.metric(
                &format!("{name}_p50_ms"),
                Metric::new(p50 * 1e3, "ms", lat.len()),
            ),
            Kind::Query => {}
            _ => report.metric(
                &format!("{name}_p50_us"),
                Metric::new(p50 * 1e6, "us", lat.len()),
            ),
        }
    }
    report.metric("serve.run_s", Metric::new(rep.wall_s, "s", n));
    report.metric(
        "serve.rejected",
        Metric::new(rep.rejected as f64, "count", n),
    );
    report.tracing_overhead(traced_wall, wall, traced.len(), untraced.len());
    report.save_spans(opts, &log, telemetry);
    report
}
