//! Sustained-throughput benchmark for the `sia-serve` daemon.
//!
//! Streams a large burst of `submit` requests (plus interleaved cancels
//! and queries) through an in-process [`Server`] in replay pacing and
//! measures end-to-end admission latency — line parse, schema stage,
//! quota stage, audit record, queue insert — per request. Reports
//! jobs/sec and p50/p99 latency to `results/BENCH_serve.json` with the
//! acceptance thresholds (>= 10k submissions/sec, p99 < 10 ms) evaluated
//! in-place.
//!
//! Each repetition also replays the identical workload while a live
//! stats listener is scraped over HTTP at a Prometheus-like cadence,
//! measuring per-scrape latency and the throughput cost of
//! observability. The median of the paired (scraped - quiet) wall-time
//! differences must stay within 1% of the quiet run, or the benchmark
//! fails.
//!
//! Requests arrive in nondecreasing virtual-time order inside a single
//! scheduling round, as `sia-cli trace-to-stream` emits them, so the
//! numbers isolate the admission pipeline rather than the MILP solve.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sia_bench::write_json;
use sia_cluster::ClusterSpec;
use sia_core::SiaPolicy;
use sia_serve::{spawn_tcp, ServeOptions, Server};
use sia_sim::SimConfig;
use sia_workloads::{Trace, TraceConfig, TraceKind};

use serde_json::{json, ToJson, Value};

const SUBMISSIONS: usize = 100_000;
const CANCEL_EVERY: usize = 40;
const QUERY_EVERY: usize = 97;
const MIN_JOBS_PER_SEC: f64 = 10_000.0;
const MAX_P99_S: f64 = 0.010;
/// Wall-time repetitions per mode; the best run of each is compared.
const REPS: usize = 7;
/// Scrape cadence while the daemon is under load (Prometheus defaults to
/// 15 s; this is 60x more aggressive and must still cost < 1%). On a
/// single-core host every scrape's render comes straight out of the
/// serving thread's wall time, so the cadence bounds the overhead floor.
const SCRAPE_INTERVAL: Duration = Duration::from_millis(250);
/// Maximum throughput cost of scraping, percent of the quiet run.
const MAX_SCRAPE_OVERHEAD_PCT: f64 = 1.0;

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn build_lines() -> Vec<String> {
    // One template trace supplies realistic model/size mixes; ids and
    // submit times are reassigned so all requests land inside one round.
    let template = Trace::generate(&TraceConfig::new(TraceKind::Philly, 11).with_max_gpus_cap(16));
    let round_s = 60.0;
    let mut lines = Vec::with_capacity(SUBMISSIONS + SUBMISSIONS / CANCEL_EVERY);
    for i in 0..SUBMISSIONS {
        let mut job = template.jobs[i % template.jobs.len()].clone();
        job.id = sia_cluster::JobId(i as u64);
        job.name = format!("bench-{i}");
        job.submit_time = round_s * 0.9 * (i as f64) / (SUBMISSIONS as f64);
        let tenant = format!("tenant-{}", i % 4);
        let line = json!({
            "id": format!("r{i}"),
            "cmd": "submit",
            "at": job.submit_time,
            "tenant": tenant,
            "gpu_hours": 1.0,
            "job": job.to_json(),
        });
        lines.push(serde_json::to_string(&line).expect("request line"));
        if i % CANCEL_EVERY == CANCEL_EVERY - 1 {
            lines.push(format!(
                r#"{{"id":"c{i}","cmd":"cancel","at":{},"job":{i}}}"#,
                job.submit_time
            ));
        }
        if i % QUERY_EVERY == QUERY_EVERY - 1 {
            lines.push(format!(
                r#"{{"id":"q{i}","cmd":"query","at":{}}}"#,
                job.submit_time
            ));
        }
    }
    lines
}

fn fresh_server() -> Server {
    Server::new(
        ClusterSpec::heterogeneous_64(),
        SimConfig {
            seed: 11,
            ..SimConfig::default()
        },
        Box::new(SiaPolicy::default()),
        &ServeOptions {
            default_quota: Some(1e9),
            quotas: Vec::new(),
            max_pending: None,
            ..ServeOptions::default()
        },
    )
}

/// One full replay of `lines` through a fresh server. With `scraped`,
/// a side thread hits the server's TCP stats listener for the whole run;
/// its per-scrape latencies come back alongside the request latencies.
fn run_once(lines: &[String], scraped: bool) -> (f64, Vec<f64>, Vec<f64>) {
    let mut server = fresh_server();

    let stop = Arc::new(AtomicBool::new(false));
    let (handle, scraper) = if scraped {
        let handle = spawn_tcp("127.0.0.1:0", server.observe()).expect("bind stats listener");
        let addr = handle.endpoint.clone();
        let flag = Arc::clone(&stop);
        let scraper = std::thread::spawn(move || {
            let mut lats = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                let t0 = Instant::now();
                if let Ok(mut conn) = std::net::TcpStream::connect(&addr) {
                    let _ = write!(conn, "GET /metrics HTTP/1.0\r\n\r\n");
                    let mut body = String::new();
                    let _ = conn.read_to_string(&mut body);
                    assert!(body.contains("sia_serve_uptime_seconds"), "bad scrape");
                }
                lats.push(t0.elapsed().as_secs_f64());
                std::thread::sleep(SCRAPE_INTERVAL);
            }
            lats
        });
        (Some(handle), Some(scraper))
    } else {
        (None, None)
    };

    let mut latencies = Vec::with_capacity(lines.len());
    let wall_start = Instant::now();
    for line in lines {
        let t0 = Instant::now();
        let out = server.handle(line);
        latencies.push(t0.elapsed().as_secs_f64());
        debug_assert!(out.iter().all(|v| v.get("ok") != Some(&Value::Bool(false))));
    }
    let wall_s = wall_start.elapsed().as_secs_f64();

    stop.store(true, Ordering::Relaxed);
    let scrape_lats = scraper.map(|t| t.join().unwrap()).unwrap_or_default();
    if let Some(h) = handle {
        h.stop();
    }
    (wall_s, latencies, scrape_lats)
}

fn main() {
    let lines = build_lines();
    let requests = lines.len();

    // Quiet and scraped reps run as back-to-back pairs so slow drift in
    // background load (CPU frequency, page cache, co-tenants) hits both
    // modes alike. The scrape overhead is the MEDIAN of the per-pair
    // (scraped - quiet) differences: pairing cancels the drift and the
    // median discards the occasional one-sided scheduler spike that a
    // best-of-N wall-clock comparison cannot tell apart from real cost.
    let mut best_quiet = f64::INFINITY;
    let mut latencies = Vec::new();
    let mut best_scraped = f64::INFINITY;
    let mut scrape_lats = Vec::new();
    let mut pair_diffs = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let (quiet_s, lats, _) = run_once(&lines, false);
        if quiet_s < best_quiet {
            best_quiet = quiet_s;
            latencies = lats;
        }
        let (scraped_s, _, slats) = run_once(&lines, true);
        if scraped_s < best_scraped {
            best_scraped = scraped_s;
            scrape_lats = slats;
        }
        pair_diffs.push(scraped_s - quiet_s);
    }
    pair_diffs.sort_by(|a, b| a.partial_cmp(b).expect("finite wall times"));
    let median_diff_s = pair_diffs[pair_diffs.len() / 2];

    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    scrape_lats.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let jobs_per_sec = requests as f64 / best_quiet;
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    let max = *latencies.last().unwrap_or(&0.0);
    let scrape_p50 = percentile(&scrape_lats, 0.50);
    let scrape_p99 = percentile(&scrape_lats, 0.99);
    let overhead_pct = (median_diff_s / best_quiet).max(0.0) * 100.0;
    let pass = jobs_per_sec >= MIN_JOBS_PER_SEC
        && p99 < MAX_P99_S
        && overhead_pct < MAX_SCRAPE_OVERHEAD_PCT
        && !scrape_lats.is_empty();

    println!(
        "serve throughput: {requests} requests ({SUBMISSIONS} submissions) in {best_quiet:.3} s \
         = {jobs_per_sec:.0} req/s (best of {REPS})"
    );
    println!(
        "admission latency: p50 {:.1} us, p99 {:.1} us, max {:.1} us",
        p50 * 1e6,
        p99 * 1e6,
        max * 1e6
    );
    println!(
        "scraped run: {best_scraped:.3} s ({overhead_pct:.2}% overhead, median of {REPS} \
         paired diffs, {} scrapes, scrape p50 {:.1} us, p99 {:.1} us)",
        scrape_lats.len(),
        scrape_p50 * 1e6,
        scrape_p99 * 1e6,
    );
    println!(
        "thresholds: >= {MIN_JOBS_PER_SEC:.0} req/s, p99 < {:.0} ms, \
         scrape overhead < {MAX_SCRAPE_OVERHEAD_PCT}% -> {}",
        MAX_P99_S * 1e3,
        if pass { "PASS" } else { "FAIL" }
    );

    write_json(
        "BENCH_serve",
        &json!({
            "submissions": SUBMISSIONS as u64,
            "requests": requests as u64,
            "wall_s": best_quiet,
            "jobs_per_sec": jobs_per_sec,
            "admit_latency_p50_s": p50,
            "admit_latency_p99_s": p99,
            "admit_latency_max_s": max,
            "scraped_wall_s": best_scraped,
            "scrape_overhead_pct": overhead_pct,
            "scrape_overhead_median_diff_s": median_diff_s,
            "scrape_count": scrape_lats.len() as u64,
            "scrape_latency_p50_s": scrape_p50,
            "scrape_latency_p99_s": scrape_p99,
            "min_jobs_per_sec_threshold": MIN_JOBS_PER_SEC,
            "max_p99_latency_s_threshold": MAX_P99_S,
            "max_scrape_overhead_pct_threshold": MAX_SCRAPE_OVERHEAD_PCT,
            "pass": pass,
        }),
    );
    if !pass {
        std::process::exit(1);
    }
}
