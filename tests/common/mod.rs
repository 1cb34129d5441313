//! Scenario builders and recorded digests shared by the simulation-loop
//! tests (`engine_parity`, `sim_golden`, `audit_tools`).
//!
//! The digests are FNV-1a-64 of the canonical flight trace and of the
//! canonical audit stream, `[flight, audit]`, recorded from the batch run
//! of each scenario before the simulation loop was unified. They pin every
//! RNG draw, placement, completion instant and decision record, so a
//! change to the loop's semantics shows up as a digest mismatch. To
//! re-record after an intentional change, run the tests with
//! `-- --nocapture` and copy the printed digests.

#![allow(dead_code)]

use sia::cluster::ClusterSpec;
use sia::core::{SiaConfig, SiaPolicy};
use sia::dynamics::{CapacityEvent, DynamicsScript};
use sia::sim::{Scheduler, SimConfig, SimDriver, SimResult, Simulator};
use sia::workloads::{Trace, TraceConfig, TraceKind};

pub const SIA: [&str; 2] = ["2d5061a5c5ad7fc5", "c6bf37168a6ef659"];
pub const POLLUX: [&str; 2] = ["356d2d55ff85e29e", "182d984001911cdf"];
pub const GAVEL: [&str; 2] = ["e66cead05e7763e9", "6de999fd9acc4c0c"];
pub const PHYSICAL: [&str; 2] = ["caa228dd1f7bba5f", "2f69991376127e0a"];
pub const HORIZON: [&str; 2] = ["bdef834da2a84e68", "f00d0c0fcab083c9"];
pub const SHARDED: [&str; 2] = ["2d5061a5c5ad7fc5", "cead39268b877781"];
pub const FAILURES: [&str; 2] = ["16d26b6be86fa396", "7ed6d8435e5a3202"];
pub const DYNAMICS_SIA: [&str; 2] = ["f8b65587fdc9d9c8", "434c19139e3254c2"];
pub const DYNAMICS_GAVEL: [&str; 2] = ["c62f843230e617f2", "a80075cca7c934ff"];
pub const EMPTY_SCRIPT: [&str; 2] = ["73af12b2fc1d6120", "dee49dac40b8a467"];
pub const ONE_GPU_DEFAULT: [&str; 2] = ["1f86c6422e59b8fc", "5a8d021112edbbe6"];
pub const ONE_GPU_PHYSICAL: [&str; 2] = ["bdebcedad3023329", "5a8d021112edbbe6"];
pub const LATE_ARRIVALS: [&str; 2] = ["be7280548ebdaa15", "14dae2cb32142636"];

/// FNV-1a 64-bit digest, as lowercase hex.
pub fn fnv(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Checks both canonical streams of `result` against the recorded digests
/// `[flight, audit]`.
pub fn assert_golden(name: &str, result: &SimResult, expected: [&str; 2]) {
    let got = [
        fnv(&result.trace.canonical_jsonl()),
        fnv(&result.audit.canonical_jsonl()),
    ];
    println!("{name}: [\"{}\", \"{}\"]", got[0], got[1]);
    assert_eq!(
        [got[0].as_str(), got[1].as_str()],
        expected,
        "{name}: canonical [flight, audit] digests moved"
    );
}

/// The quick_compare workload, shortened for debug-mode test budgets.
pub fn quick_trace(seed: u64) -> Trace {
    let mut t = Trace::generate(&TraceConfig::new(TraceKind::Philly, seed).with_max_gpus_cap(16));
    t.jobs.truncate(24);
    for j in &mut t.jobs {
        j.work_target *= 0.05;
    }
    t
}

/// Runs `trace` on the hetero-64 cluster through the batch entry point and
/// through a stepped driver that submits each job when virtual time
/// reaches its submit instant, as the daemon does, and then drains.
/// Returns `(batch, stepped)`. A daemon has no horizon until it drains, so
/// the stepped run stops stepping at the horizon and drains there.
pub fn run_both(
    make: &dyn Fn() -> Box<dyn Scheduler>,
    trace: &Trace,
    cfg: &SimConfig,
) -> (SimResult, SimResult) {
    let spec = ClusterSpec::heterogeneous_64();
    let batch = Simulator::new(spec.clone(), trace, cfg.clone()).run(make().as_mut());
    let mut sched = make();
    let mut driver = SimDriver::new(spec, cfg.clone(), sched.as_ref());
    let mut jobs = trace.jobs.clone();
    jobs.sort_by(|a, b| a.submit_time.total_cmp(&b.submit_time));
    let horizon = cfg.max_hours * 3600.0;
    for job in jobs {
        driver.step_until(job.submit_time.min(horizon), sched.as_mut());
        driver.submit(job);
    }
    driver.run_to_idle(sched.as_mut());
    (batch, driver.finish(sched.as_ref()))
}

/// Sia with the sharded MILP decomposition and an anytime round budget.
pub fn sharded_sia(workers: usize) -> Box<dyn Scheduler> {
    let mut cfg = SiaConfig {
        round_budget: Some(5.0),
        workers,
        ..SiaConfig::default()
    };
    cfg.shard.enabled = true;
    // Small shards force a real multi-shard decomposition even on the
    // 24-job quick trace; escalation off keeps the decomposed path hot.
    cfg.shard.max_shard_groups = 4;
    cfg.shard.escalation_vars = 0;
    Box::new(SiaPolicy::new(cfg))
}

/// A fixed capacity-dynamics script exercising every event kind inside the
/// first simulated hour: an abrupt a100 kill, a t4 straggler window, a
/// graceful rtx drain, and elastic re-growth.
pub fn fixed_dynamics() -> DynamicsScript {
    DynamicsScript::new()
        .at(
            400.0,
            CapacityEvent::Remove {
                gpu_type: "a100".to_string(),
                num_nodes: 2,
            },
        )
        .at(
            700.0,
            CapacityEvent::Degrade {
                gpu_type: "t4".to_string(),
                num_nodes: 2,
                factor: 0.5,
            },
        )
        .at(
            1500.0,
            CapacityEvent::Drain {
                gpu_type: "rtx".to_string(),
                num_nodes: 3,
                grace: 300.0,
            },
        )
        .at(
            2500.0,
            CapacityEvent::Add {
                gpu_type: "a100".to_string(),
                num_nodes: 2,
                gpus_per_node: 8,
            },
        )
        .at(
            3000.0,
            CapacityEvent::Restore {
                gpu_type: "t4".to_string(),
                num_nodes: 2,
            },
        )
}
