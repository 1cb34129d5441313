//! Batch vs stepped parity of the simulation loop.
//!
//! The one simulation loop ([`SimDriver`]) is driven two ways:
//! `Simulator::run` submits a whole trace up front and drains the event
//! queue, while the `sia-serve` daemon submits each job only when virtual
//! time reaches it ([`SimDriver::step_until`]). Both must be bit-identical
//! — same RNG draws, placements, completion instants and canonical streams.
//! These tests (whose `*_engines_*` names refer to these two drive modes)
//! pin that across the Sia policy and two baselines on the `quick_compare`
//! configuration (hetero-64 cluster, Philly trace), the physical-cluster
//! noise profile, horizon truncation, the sharded solve, failure injection
//! and capacity dynamics, plus same-seed and worker-count determinism.
//! Each scenario's batch run is also checked against its recorded
//! `[flight, audit]` digest (`tests/common/mod.rs`), which pins its
//! absolute output.

mod common;

use common::*;
use sia::baselines::{GavelPolicy, PolluxPolicy};
use sia::cluster::ClusterSpec;
use sia::core::{SiaConfig, SiaPolicy};
use sia::sim::{Scheduler, SimConfig, SimResult, Simulator};

/// Exact per-job parity: identical completion times, GPU-time accounting
/// and restart counts, job by job.
fn assert_bit_parity(batch: &SimResult, stepped: &SimResult) {
    assert_eq!(
        batch.records.len(),
        stepped.records.len(),
        "admission count"
    );
    assert_eq!(batch.unfinished, stepped.unfinished);
    assert_eq!(batch.makespan, stepped.makespan, "makespan");
    for (r, e) in batch.records.iter().zip(&stepped.records) {
        assert_eq!(r.id, e.id, "record order");
        assert_eq!(r.finish_time, e.finish_time, "job {} finish", r.id);
        assert_eq!(r.first_start, e.first_start, "job {} start", r.id);
        assert_eq!(r.gpu_seconds, e.gpu_seconds, "job {} gpu-seconds", r.id);
        assert_eq!(r.restarts, e.restarts, "job {} restarts", r.id);
        assert_eq!(r.failures, e.failures, "job {} failures", r.id);
        assert_eq!(r.work_done, e.work_done, "job {} work", r.id);
    }
    // Scheduling decisions must also match round-for-round.
    assert_eq!(batch.rounds.len(), stepped.rounds.len(), "round count");
    for (a, b) in batch.rounds.iter().zip(&stepped.rounds) {
        assert_eq!(a.time, b.time, "round time");
        assert_eq!(a.active_jobs, b.active_jobs, "active at t={}", a.time);
        assert_eq!(a.allocations, b.allocations, "allocations at t={}", a.time);
    }
    // Both canonical streams must agree record-for-record (the
    // host-wall-clock policy runtime is the only run-specific artifact, and
    // canonicalization erases it).
    assert_eq!(
        batch.audit.canonical_jsonl(),
        stepped.audit.canonical_jsonl(),
        "canonical audit streams diverge"
    );
    let (a, b) = (
        batch.trace.canonical_jsonl(),
        stepped.trace.canonical_jsonl(),
    );
    assert!(!a.is_empty(), "batch run recorded no trace");
    if a != b {
        for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
            assert_eq!(la, lb, "canonical trace diverges at record {i}");
        }
        panic!(
            "canonical traces diverge in length: {} vs {} records",
            a.lines().count(),
            b.lines().count()
        );
    }
}

#[test]
fn sia_engines_bit_identical() {
    let trace = quick_trace(1);
    let cfg = SimConfig {
        seed: 1,
        ..SimConfig::default()
    };
    let (batch, stepped) = run_both(&|| Box::new(SiaPolicy::default()), &trace, &cfg);
    assert_eq!(batch.unfinished, 0, "workload must complete");
    assert_golden("sia", &batch, SIA);
    assert_bit_parity(&batch, &stepped);
}

#[test]
fn baselines_engines_bit_identical() {
    let trace = quick_trace(1);
    let cfg = SimConfig {
        seed: 1,
        ..SimConfig::default()
    };
    let (batch, stepped) = run_both(&|| Box::new(PolluxPolicy::default()), &trace, &cfg);
    assert_golden("pollux", &batch, POLLUX);
    assert_bit_parity(&batch, &stepped);
    let (batch, stepped) = run_both(&|| Box::new(GavelPolicy::default()), &trace, &cfg);
    assert_golden("gavel", &batch, GAVEL);
    assert_bit_parity(&batch, &stepped);
}

#[test]
fn physical_noise_profile_bit_identical() {
    // All three noise sources active (measurement, execution, restart
    // jitter) — the widest RNG draw surface.
    let trace = quick_trace(2);
    let cfg = SimConfig::physical(9);
    let (batch, stepped) = run_both(&|| Box::new(SiaPolicy::default()), &trace, &cfg);
    assert_golden("physical", &batch, PHYSICAL);
    assert_bit_parity(&batch, &stepped);
}

#[test]
fn horizon_truncation_matches() {
    // Jobs left running at the horizon: both drive modes must admit the
    // same set and leave identical partial progress.
    let mut trace = quick_trace(3);
    for j in &mut trace.jobs {
        j.work_target *= 400.0;
    }
    let cfg = SimConfig {
        seed: 3,
        max_hours: 0.5,
        ..SimConfig::default()
    };
    let (batch, stepped) = run_both(&|| Box::new(SiaPolicy::default()), &trace, &cfg);
    assert!(batch.unfinished > 0, "horizon must truncate the workload");
    assert_golden("horizon", &batch, HORIZON);
    assert_bit_parity(&batch, &stepped);
}

#[test]
fn same_seed_reruns_are_byte_identical() {
    // Two runs of the identical configuration must produce byte-identical
    // canonical trace streams (and, modulo wall-clock, identical raw
    // streams — the canonical form only zeroes `policy_runtime_s` and
    // normalizes order).
    let trace = quick_trace(5);
    let run = || {
        Simulator::new(
            ClusterSpec::heterogeneous_64(),
            &trace,
            SimConfig {
                seed: 5,
                ..SimConfig::default()
            },
        )
        .run(Box::new(SiaPolicy::default()).as_mut())
    };
    let (a, b) = (run(), run());
    assert!(!a.trace.records.is_empty(), "run recorded no trace");
    assert_eq!(
        a.trace.canonical_jsonl(),
        b.trace.canonical_jsonl(),
        "not deterministic across same-seed runs"
    );
    // Raw emission order is deterministic too: the record sequence
    // (timestamps, kinds, payloads) matches 1:1; only the wall-clock
    // policy_runtime field may differ.
    assert_eq!(a.trace.records.len(), b.trace.records.len());
    for (ra, rb) in a.trace.records.iter().zip(&b.trace.records) {
        assert_eq!(ra.t, rb.t, "raw emission timestamps diverge");
        assert_eq!(ra.seq, rb.seq);
        assert_eq!(ra.ev.kind(), rb.ev.kind());
        assert_eq!(ra.ev.job(), rb.ev.job());
    }
}

#[test]
fn sharded_engines_bit_identical() {
    // The decomposed solve path must preserve batch/stepped parity.
    let trace = quick_trace(1);
    let cfg = SimConfig {
        seed: 1,
        ..SimConfig::default()
    };
    let (batch, stepped) = run_both(&|| sharded_sia(1), &trace, &cfg);
    assert_golden("sharded", &batch, SHARDED);
    assert_bit_parity(&batch, &stepped);
}

#[test]
fn sharded_worker_counts_are_byte_identical() {
    // Shards are solved on the deterministic worker pool and merged in
    // plan order, so the worker count must never leak into the trace:
    // 1 worker, 2 workers and auto all produce byte-identical canonical
    // streams with the time budget active.
    let trace = quick_trace(6);
    let run = |workers: usize| {
        Simulator::new(
            ClusterSpec::heterogeneous_64(),
            &trace,
            SimConfig {
                seed: 6,
                ..SimConfig::default()
            },
        )
        .run(sharded_sia(workers).as_mut())
    };
    let base = run(1);
    assert!(
        !base.trace.records.is_empty(),
        "sharded run recorded no trace"
    );
    assert!(
        base.rounds
            .iter()
            .filter_map(|r| r.solver_stats)
            .any(|s| s.shards > 1),
        "workload never took the multi-shard path"
    );
    let canon = base.trace.canonical_jsonl();
    for workers in [2, 0] {
        let other = run(workers);
        assert_eq!(
            canon,
            other.trace.canonical_jsonl(),
            "worker count {workers} changed the canonical trace"
        );
    }
}

#[test]
fn monolithic_time_budget_is_deterministic() {
    // `round_budget` on the monolithic path becomes a deterministic node
    // budget (not a wall-clock check), so same-seed reruns with the budget
    // active stay byte-identical even when the budget truncates the search.
    let trace = quick_trace(7);
    let run = || {
        Simulator::new(
            ClusterSpec::heterogeneous_64(),
            &trace,
            SimConfig {
                seed: 7,
                ..SimConfig::default()
            },
        )
        .run(
            Box::new(SiaPolicy::new(SiaConfig {
                // Tight enough to clip branch-and-bound on this trace.
                round_budget: Some(1e-4),
                ..SiaConfig::default()
            }))
            .as_mut(),
        )
    };
    let (a, b) = (run(), run());
    assert!(!a.trace.records.is_empty());
    assert_eq!(
        a.trace.canonical_jsonl(),
        b.trace.canonical_jsonl(),
        "time-budgeted solve is not deterministic across same-seed runs"
    );
}

#[test]
fn failure_injection_stays_on_summary_parity() {
    // Failures are exact-time events drawn from their own stream; the
    // stepped driver must see the same failures at the same instants.
    let trace = quick_trace(4);
    let cfg = SimConfig {
        seed: 4,
        failure_rate_per_gpu_hour: 1.0,
        ..SimConfig::default()
    };
    let (batch, stepped) = run_both(&|| Box::new(SiaPolicy::default()), &trace, &cfg);
    let failures = |r: &SimResult| r.records.iter().map(|j| u64::from(j.failures)).sum::<u64>();
    assert!(failures(&batch) > 0, "no failure was injected");
    assert_golden("failures", &batch, FAILURES);
    assert_bit_parity(&batch, &stepped);
}

#[test]
fn dynamics_engines_bit_identical() {
    let trace = quick_trace(6);
    let cfg = SimConfig {
        seed: 6,
        dynamics: Some(fixed_dynamics()),
        ..SimConfig::default()
    };
    for (name, make, digests) in [
        (
            "dynamics-sia",
            (&|| Box::new(SiaPolicy::default()) as Box<dyn Scheduler>)
                as &dyn Fn() -> Box<dyn Scheduler>,
            DYNAMICS_SIA,
        ),
        (
            "dynamics-gavel",
            &|| Box::new(GavelPolicy::default()),
            DYNAMICS_GAVEL,
        ),
    ] {
        let (batch, stepped) = run_both(make, &trace, &cfg);
        assert_golden(name, &batch, digests);
        assert_bit_parity(&batch, &stepped);
        // The script must actually bite: capacity records present, and at
        // least one job lost its placement to a capacity change.
        let canon = batch.trace.canonical_jsonl();
        for kind in [
            "capacity_removed",
            "capacity_added",
            "drain_started",
            "degraded",
        ] {
            assert!(
                canon.contains(kind),
                "canonical trace records no {kind} event"
            );
        }
        assert!(
            canon.contains("capacity-lost"),
            "no job was evicted by the capacity script"
        );
    }
}

#[test]
fn dynamics_same_seed_reruns_are_byte_identical() {
    let trace = quick_trace(6);
    let run = || {
        Simulator::new(
            ClusterSpec::heterogeneous_64(),
            &trace,
            SimConfig {
                seed: 6,
                dynamics: Some(fixed_dynamics()),
                ..SimConfig::default()
            },
        )
        .run(Box::new(SiaPolicy::default()).as_mut())
    };
    let (a, b) = (run(), run());
    assert_eq!(
        a.trace.canonical_jsonl(),
        b.trace.canonical_jsonl(),
        "not deterministic with dynamics enabled"
    );
}

#[test]
fn empty_dynamics_script_matches_dynamics_none() {
    // Guard for the dynamics=None bit-identity contract: threading an empty
    // script through the runtime must not perturb a single RNG draw,
    // version bump, or trace byte relative to running with no dynamics.
    let trace = quick_trace(7);
    let run = |dynamics: Option<sia::dynamics::DynamicsScript>| {
        Simulator::new(
            ClusterSpec::heterogeneous_64(),
            &trace,
            SimConfig {
                seed: 7,
                dynamics,
                ..SimConfig::default()
            },
        )
        .run(Box::new(SiaPolicy::default()).as_mut())
    };
    let without = run(None);
    assert_golden("no-dynamics", &without, EMPTY_SCRIPT);
    let with = run(Some(sia::dynamics::DynamicsScript::new()));
    assert_eq!(
        without.trace.canonical_jsonl(),
        with.trace.canonical_jsonl(),
        "an empty dynamics script changed the simulation"
    );
}
