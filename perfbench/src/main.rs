//! Benchmark of the Sia scheduler stack: one workload per process.
//!
//! ```text
//! perfbench --workload <philly64|fig9-sharded|serve-burst> --seed <n>
//!           --seconds <s> --trace <0|1> [--spans-out <path>]
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it records spans around every call it makes into the stack
//! and reports the per-layer table. Correctness checks run either way. The
//! last line of standard output is one JSON object (see [`Report::to_json`]);
//! the exit code is 1 when a check failed and 2 on a usage error.

mod digest;
mod heap;
mod layers;
mod serve;
mod sim;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;

use serde_json::{json, Value};

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

/// The manifest: per-workload seeds, layers and recorded outputs.
const MANIFEST: &str = include_str!("../manifest.json");

/// Matrix-evaluation threads of every policy the benchmark builds, set
/// explicitly so timings follow neither the host's core count nor
/// `SIA_WORKERS`. One thread keeps thread start-up and cross-core wake-ups
/// out of the per-round latencies; any count yields identical decisions.
const WORKERS: usize = 1;

/// Set-ups timed per run: at least `SETUP_MIN_REPS`, and more until
/// `SETUP_MIN_S` has passed (at most `SETUP_MAX_REPS`). `setup_s` is their
/// median, so a cold first set-up does not decide it.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_S: f64 = 0.5;
const SETUP_MAX_REPS: usize = 200;

/// Repetitions every untraced run makes, however short its time budget.
const MIN_REPS: usize = 2;

/// Command-line options of one run.
pub struct RunOpts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub spans_out: Option<PathBuf>,
}

/// One reported value with its unit and sample count.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub n: usize,
}

impl Metric {
    pub fn new(value: f64, unit: &'static str, n: usize) -> Self {
        Metric { value, unit, n }
    }

    fn to_json(self) -> Value {
        json!({"value": self.value, "unit": self.unit, "n": self.n as u64})
    }
}

/// Correctness-check outcomes, grouped by check name.
#[derive(Debug, Default)]
pub struct Checks {
    passed: BTreeMap<&'static str, u64>,
    failures: Vec<String>,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, name: &'static str, detail: impl FnOnce() -> String) {
        if ok {
            *self.passed.entry(name).or_default() += 1;
        } else {
            self.fail(name, detail());
        }
    }

    pub fn fail(&mut self, name: &'static str, detail: String) {
        self.passed.entry(name).or_default();
        self.failures.push(format!("{name}: {detail}"));
    }

    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Everything one run reports.
pub struct Report {
    workload: String,
    seed: u64,
    trace: bool,
    pub workers: usize,
    pub reps: usize,
    /// Wall time of every repetition, in run order.
    pub rep_walls: Vec<f64>,
    /// Deterministic outputs (simulation workloads).
    pub fingerprint: Option<Value>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Checks,
    /// Contract metrics: end-to-end (untraced) or per-layer (traced).
    metrics: BTreeMap<String, Metric>,
    /// The end-to-end metrics under their workload-specific names, in
    /// report order.
    named: Vec<(String, Metric)>,
    spans_file: Option<String>,
}

impl Report {
    pub fn new(workload: &str, opts: &RunOpts) -> Self {
        Report {
            workload: workload.to_string(),
            seed: opts.seed,
            trace: opts.trace,
            workers: WORKERS,
            reps: 0,
            rep_walls: Vec::new(),
            fingerprint: None,
            attempted: 0,
            failed: 0,
            checks: Checks::default(),
            metrics: BTreeMap::new(),
            named: Vec::new(),
            spans_file: None,
        }
    }

    /// Records a contract metric: end-to-end in untraced runs, per-layer in
    /// traced ones.
    pub fn metric(&mut self, name: &str, metric: Metric) {
        self.metrics.insert(name.to_string(), metric);
    }

    /// Records an end-to-end metric under its workload-specific name.
    pub fn named(&mut self, name: &str, metric: Metric) {
        self.named.push((name.to_string(), metric));
    }

    /// Reports the tracing overhead: traced over untraced median wall time.
    pub fn tracing_overhead(
        &mut self,
        traced_s: f64,
        untraced_s: f64,
        traced_n: usize,
        untraced_n: usize,
    ) {
        self.metric("bench.traced_wall_s", Metric::new(traced_s, "s", traced_n));
        self.metric(
            "bench.untraced_wall_s",
            Metric::new(untraced_s, "s", untraced_n),
        );
        self.metric(
            "bench.tracing_overhead_frac",
            Metric::new(
                traced_s / untraced_s - 1.0,
                "frac",
                traced_n.min(untraced_n),
            ),
        );
    }

    /// Writes the span log (and the telemetry delta) when asked to.
    pub fn save_spans(&mut self, opts: &RunOpts, log: &spans::SpanLog, telemetry: Value) {
        let Some(path) = &opts.spans_out else { return };
        let extra = json!({
            "workload": self.workload.as_str(),
            "seed": self.seed,
            "telemetry": telemetry,
        });
        match log.save(path, &extra) {
            Ok(()) => self.spans_file = Some(path.display().to_string()),
            Err(e) => self
                .checks
                .fail("spans_written", format!("{}: {e}", path.display())),
        }
    }

    fn to_json(&self) -> Value {
        let metrics: serde_json::Map = self
            .metrics
            .iter()
            .map(|(k, m)| (k.clone(), m.to_json()))
            .collect();
        let named: Vec<Value> = self
            .named
            .iter()
            .map(|(k, m)| {
                let mut v = m.to_json();
                v.as_object_mut()
                    .expect("object")
                    .insert("name".into(), Value::String(k.clone()));
                v
            })
            .collect();
        let checks: serde_json::Map = self
            .checks
            .passed
            .iter()
            .map(|(k, n)| (k.to_string(), Value::from(*n)))
            .collect();
        json!({
            "workload": self.workload.as_str(),
            "seed": self.seed,
            "trace": self.trace,
            "workers": self.workers as u64,
            "reps": self.reps as u64,
            "rep_walls_s": self.rep_walls.clone(),
            "fingerprint": self.fingerprint.clone().unwrap_or(Value::Null),
            "correct": self.checks.ok(),
            "attempted": self.attempted,
            "failed": self.failed,
            "checks": Value::Object(checks),
            "failures": self.checks.failures.clone(),
            "metrics": Value::Object(metrics),
            "named": named,
            "spans_file": self.spans_file.clone().map(Value::String).unwrap_or(Value::Null),
        })
    }
}

/// Whether repetition `i` of a traced run records spans. Traced runs
/// interleave untraced and traced repetitions as U T T U U T T U …, so slow
/// drift of the host and a cold first repetition weigh on both sides alike
/// and the tracing overhead compares like with like.
pub fn traced_turn(i: usize) -> bool {
    matches!(i % 4, 1 | 2)
}

/// Timed set-ups: the inputs of the last one, then the input-generation
/// and whole set-up times of each.
pub struct Setups<T> {
    pub inputs: T,
    pub generate_s: Vec<f64>,
    pub setup_s: Vec<f64>,
}

/// Repeats `setup` (which returns the inputs and their generation time) as
/// set out at [`SETUP_MIN_REPS`], timing each call.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> (T, f64)) -> Setups<T> {
    let start = std::time::Instant::now();
    let mut generate_s = Vec::new();
    let mut setup_s = Vec::new();
    loop {
        let t0 = std::time::Instant::now();
        let (inputs, generated) = setup();
        setup_s.push(t0.elapsed().as_secs_f64());
        generate_s.push(generated);
        let n = setup_s.len();
        if n >= SETUP_MAX_REPS
            || (n >= SETUP_MIN_REPS && start.elapsed().as_secs_f64() >= SETUP_MIN_S)
        {
            return Setups {
                inputs,
                generate_s,
                setup_s,
            };
        }
    }
}

/// Units the manifest may name.
const UNITS: [&str; 8] = ["s", "ms", "us", "1/s", "MB", "count", "ratio", "frac"];

/// Makes the report's metric set exactly the manifest's section for this
/// mode: a per-layer metric a workload has no layer for reads 0 with no
/// samples. A metric missing from, or differing from, the manifest is a bug
/// in the benchmark itself and panics.
fn conform(report: &mut Report, manifest: &Value) {
    let section = if report.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let names = manifest
        .get(section)
        .and_then(Value::as_object)
        .expect("manifest lists the metrics");
    for (name, spec) in names {
        let unit = spec.get("unit").and_then(Value::as_str).unwrap_or("");
        let unit = *UNITS
            .iter()
            .find(|u| **u == unit)
            .unwrap_or_else(|| panic!("{name}: unknown unit {unit:?}"));
        match report.metrics.get(name) {
            Some(m) => assert_eq!(m.unit, unit, "{name}: unit differs from the manifest"),
            None if report.trace => report.metric(name, Metric::new(0.0, unit, 0)),
            None => panic!("{name}: end-to-end metric not measured"),
        }
    }
    for name in report.metrics.keys() {
        assert!(
            names.contains_key(name),
            "{name}: metric missing from the manifest"
        );
    }
}

/// Peak resident set size of this process (VmHWM), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <philly64|fig9-sharded|serve-burst> --seed <n> \
         --seconds <s> --trace <0|1> [--spans-out <path>]"
    );
    std::process::exit(2);
}

fn parse_args() -> RunOpts {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = RunOpts {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        spans_out: None,
    };
    let mut seed = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage("bad --seconds"))
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--spans-out" => opts.spans_out = Some(PathBuf::from(value)),
            other => usage(&format!("unknown option {other}")),
        }
    }
    opts.seed = seed.unwrap_or_else(|| usage("--seed is required"));
    opts
}

fn main() {
    let opts = parse_args();
    let manifest: Value = serde_json::from_str(MANIFEST).expect("manifest.json parses");
    let entry = manifest
        .get("workloads")
        .and_then(|w| w.get(&opts.workload))
        .unwrap_or_else(|| usage(&format!("unknown workload {:?}", opts.workload)));
    let recorded = entry
        .get("seed")
        .and_then(Value::as_u64)
        .expect("manifest records a seed per workload");
    let expected = entry.get("expected");
    let mut report = match opts.workload.as_str() {
        "philly64" => sim::run(&sim::PHILLY64, &opts, recorded, expected),
        "fig9-sharded" => sim::run(&sim::FIG9_SHARDED, &opts, recorded, expected),
        "serve-burst" => serve::run(&opts, expected),
        other => usage(&format!("workload {other} has no runner")),
    };
    conform(&mut report, &manifest);
    for failure in &report.checks.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    println!(
        "{}",
        serde_json::to_string(&report.to_json()).expect("report serializes")
    );
    if !report.checks.ok() {
        std::process::exit(1);
    }
}
