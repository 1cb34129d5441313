//! End-to-end checks on the decision-audit stream (sia-audit): byte
//! identity of the canonical stream between the batch run and a daemon-style
//! stepped driver, reconciliation of the derived
//! report against the simulator's own round log, the JSONL spill file, and
//! the `sia-cli audit` / `trace-report --audit` surfaces.

use std::path::Path;
use std::process::Command;

mod common;

use common::{quick_trace, run_both};
use serde_json::Value;
use sia::cluster::ClusterSpec;
use sia::core::SiaPolicy;
use sia::models::ProfilingMode;
use sia::sim::{Scheduler, SimConfig, SimResult, Simulator};
use sia::telemetry::AuditStream;
use sia::workloads::Trace;

fn run_engine(make: &dyn Fn() -> Box<dyn Scheduler>, trace: &Trace, cfg: &SimConfig) -> SimResult {
    Simulator::new(ClusterSpec::heterogeneous_64(), trace, cfg.clone()).run(make().as_mut())
}

#[test]
fn audit_stream_bit_identical_across_engines() {
    // "Engines" here are the two ways of driving the one simulation loop:
    // the batch run and the daemon-style stepped driver.
    let trace = quick_trace(1);
    let cfg = SimConfig {
        seed: 1,
        ..SimConfig::default()
    };
    for make in [
        (&|| Box::new(SiaPolicy::default()) as Box<dyn Scheduler>)
            as &dyn Fn() -> Box<dyn Scheduler>,
        &|| Box::new(sia::baselines::GavelPolicy::default()),
    ] {
        let (batch, stepped) = run_both(make, &trace, &cfg);
        let (a, b) = (
            batch.audit.canonical_jsonl(),
            stepped.audit.canonical_jsonl(),
        );
        assert!(!a.is_empty(), "batch run recorded no audit stream");
        if a != b {
            for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
                assert_eq!(la, lb, "canonical audit streams diverge at record {i}");
            }
            panic!(
                "canonical audit streams diverge in length: {} vs {} records",
                a.lines().count(),
                b.lines().count()
            );
        }
    }
}

#[test]
fn audit_same_seed_reruns_are_byte_identical() {
    let trace = quick_trace(5);
    let run = || {
        run_engine(
            &|| Box::new(SiaPolicy::default()),
            &trace,
            &SimConfig {
                seed: 5,
                ..SimConfig::default()
            },
        )
    };
    let (a, b) = (run(), run());
    assert!(!a.audit.records.is_empty(), "run recorded no audit stream");
    assert_eq!(
        a.audit.canonical_jsonl(),
        b.audit.canonical_jsonl(),
        "audit stream is not deterministic across same-seed runs"
    );
}

#[test]
fn audit_report_reconciles_with_sim_result() {
    let trace = quick_trace(7);
    let result = run_engine(
        &|| Box::new(SiaPolicy::default()),
        &trace,
        &SimConfig {
            seed: 7,
            profiling_mode: ProfilingMode::Oracle,
            ..SimConfig::default()
        },
    );
    assert_eq!(result.unfinished, 0, "workload must complete");
    assert_eq!(result.audit.dropped, 0, "ring must not have overflowed");
    let report = result.audit.report();

    // One audit Round record per round that ran a solve.
    let solved = result
        .rounds
        .iter()
        .filter(|r| r.solver_stats.is_some())
        .count();
    assert_eq!(report.rounds as usize, solved, "audited round count");
    assert_eq!(report.scheduler, "sia");
    assert!(
        (report.gap_tolerance - 1e-9).abs() < 1e-18,
        "meta record carries the configured gap tolerance"
    );

    // The round-log gap view and the audit-stream gap view agree: with the
    // default tolerance every solve proves (near-)optimality.
    assert_eq!(report.proven_rounds, report.rounds, "all solves proved");
    assert!(report.median_rel_gap <= 1e-6, "median relative gap");
    assert!(report.max_rel_gap <= 1e-6, "max relative gap");
    for s in result.rounds.iter().filter_map(|r| r.solver_stats.as_ref()) {
        if let Some(gap) = s.gap_rel() {
            assert!(gap <= 1e-6, "round-log gap {gap} above tolerance regime");
        }
    }

    // Decisions: provenance must cover every allocation change the engine
    // applied at round boundaries, and regrets are finite and non-negative.
    assert!(report.decisions > 0, "no decision provenance recorded");
    assert!(!report.jobs.is_empty());
    assert!(report.total_regret.is_finite() && report.total_regret >= 0.0);
    for j in &report.jobs {
        assert!(j.total_regret >= -1e-12, "job {} negative regret", j.job);
        assert!(j.max_regret <= j.total_regret + 1e-12);
        assert!(
            result.records.iter().any(|r| r.id.0 == j.job),
            "audit decision for unknown job {}",
            j.job
        );
    }

    // Warm starts engage once the run settles.
    assert!(
        report.warm_seeded_rounds > 0,
        "no round accepted a warm-start seed"
    );
    assert!(report.warm_hit_rate() <= 1.0 + 1e-12);
}

#[test]
fn audit_spill_round_trips_and_serialized_gaps_match() {
    let path =
        std::env::temp_dir().join(format!("sia-audit-spill-rt-{}.jsonl", std::process::id()));
    let trace = quick_trace(7);
    let result = run_engine(
        &|| Box::new(SiaPolicy::default()),
        &trace,
        &SimConfig {
            seed: 7,
            audit_spill: Some(path.clone()),
            ..SimConfig::default()
        },
    );
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let parsed = AuditStream::parse_jsonl(&text).expect("spill parses");
    assert_eq!(result.audit.dropped, 0);
    assert_eq!(
        parsed.records, result.audit.records,
        "spill file must reproduce the in-memory stream exactly"
    );

    // The derived gap/regret fields serialized into the JSONL lines must
    // match what the parsed records recompute.
    for (line, rec) in text.lines().zip(&parsed.records) {
        let v: Value = serde_json::from_str(line).unwrap();
        for (key, expect) in [
            ("gap_abs", rec.ev.gap_abs()),
            ("gap_rel", rec.ev.gap_rel()),
            ("regret", rec.ev.regret()),
        ] {
            if let Some(x) = expect {
                let got = v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
                assert!(
                    (got - x).abs() <= 1e-12 * x.abs().max(1.0),
                    "serialized {key} {got} vs recomputed {x}"
                );
            }
        }
    }
}

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sia-cli"))
}

/// Record a small run through the CLI and return the audit spill path.
fn cli_recorded_audit(dir: &Path) -> std::path::PathBuf {
    let audit = dir.join(format!("sia-audit-cli-{}.jsonl", std::process::id()));
    let out = cli()
        .args([
            "--cluster",
            "hetero64",
            "--trace",
            "philly",
            "--policy",
            "sia",
            "--seed",
            "7",
            "--rate",
            "4",
            "--quiet",
            "--audit-out",
            audit.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "recording run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    audit
}

#[test]
fn cli_audit_reports_gaps_and_regret() {
    let audit = cli_recorded_audit(&std::env::temp_dir());

    let out = cli()
        .args(["audit", audit.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in ["gap tolerance", "rel gap", "warm starts", "total-regret"] {
        assert!(stdout.contains(needle), "missing {needle:?} in: {stdout}");
    }

    let out = cli()
        .args(["audit", audit.to_str().unwrap(), "--json", "--quiet"])
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&audit);
    assert_eq!(out.status.code(), Some(0));
    assert!(out.stderr.is_empty(), "--quiet must silence progress");
    let doc: Value = serde_json::from_str(String::from_utf8_lossy(&out.stdout).trim()).unwrap();
    assert_eq!(doc.get("scheduler").and_then(Value::as_str), Some("sia"));
    let rounds = doc.get("rounds").and_then(Value::as_u64).unwrap();
    assert!(rounds > 0);
    assert_eq!(
        doc.get("proven_rounds").and_then(Value::as_u64),
        Some(rounds)
    );
    let median = doc.get("median_rel_gap").and_then(Value::as_f64).unwrap();
    assert!(median <= 1e-6, "median relative gap {median}");
    assert!(!doc
        .get("jobs")
        .and_then(Value::as_array)
        .unwrap()
        .is_empty());
    assert!(doc.get("warm_hit_rate").and_then(Value::as_f64).is_some());
}

#[test]
fn cli_trace_report_audit_sidebar() {
    let dir = std::env::temp_dir();
    let trace_path = dir.join(format!("sia-audit-tr-{}.jsonl", std::process::id()));
    let audit_path = dir.join(format!("sia-audit-tr-a-{}.jsonl", std::process::id()));
    let out = cli()
        .args([
            "--seed",
            "7",
            "--rate",
            "4",
            "--quiet",
            "--trace-out",
            trace_path.to_str().unwrap(),
            "--trace-format",
            "jsonl",
            "--audit-out",
            audit_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));

    let out = cli()
        .args([
            "trace-report",
            trace_path.to_str().unwrap(),
            "--audit",
            audit_path.to_str().unwrap(),
            "--quiet",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("solver health"),
        "solver-health line missing: {stdout}"
    );

    let out = cli()
        .args([
            "trace-report",
            trace_path.to_str().unwrap(),
            "--audit",
            audit_path.to_str().unwrap(),
            "--json",
            "--quiet",
        ])
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&trace_path);
    let _ = std::fs::remove_file(&audit_path);
    assert_eq!(out.status.code(), Some(0));
    let doc: Value = serde_json::from_str(String::from_utf8_lossy(&out.stdout).trim()).unwrap();
    let health = doc.get("solver_health").expect("solver_health present");
    assert!(health
        .get("median_rel_gap")
        .and_then(Value::as_f64)
        .is_some());
    assert!(health
        .get("warm_hit_rate")
        .and_then(Value::as_f64)
        .is_some());
}

#[test]
fn cli_rejects_unwritable_audit_out() {
    let out = cli()
        .args(["--audit-out", "/nonexistent-dir/audit.jsonl"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "unwritable path must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot open audit output"),
        "stderr was: {stderr}"
    );
}

#[test]
fn cli_audit_rejects_bad_input() {
    let out = cli()
        .args(["audit", "/nonexistent/audit.jsonl"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    let out = cli().arg("audit").output().unwrap();
    assert_eq!(out.status.code(), Some(2), "missing FILE operand");

    let out = cli()
        .args(["audit", "f.jsonl", "--bogus"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "unknown flag");

    // Malformed stream content is a usage error, not a panic.
    let path = std::env::temp_dir().join(format!("sia-audit-bad-{}.jsonl", std::process::id()));
    std::fs::write(&path, "{\"ev\": \"not-an-audit-record\"}\n").unwrap();
    let out = cli()
        .args(["audit", path.to_str().unwrap(), "--quiet"])
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(2), "malformed stream must exit 2");

    // trace-report --audit propagates the same validation.
    let out = cli()
        .args(["trace-report", "t.jsonl", "--audit", "/nonexistent/a.jsonl"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}
