//! Golden digests of the simulation loop under a minimal scheduler.
//!
//! Each scenario runs one workload through `Simulator::run` and compares
//! the FNV-1a-64 digests of its canonical flight trace and audit stream
//! with the recorded constants in `tests/common/mod.rs`. The policy
//! scenarios (Sia, baselines, noise, horizon, sharding, failures,
//! dynamics) check the same table in `tests/engine_parity.rs`, on the
//! batch runs they already make.

mod common;

use common::{assert_golden, LATE_ARRIVALS, ONE_GPU_DEFAULT, ONE_GPU_PHYSICAL};
use sia::cluster::{ClusterSpec, ClusterView, Configuration, FreeGpus};
use sia::sim::{AllocationMap, JobView, Scheduler, SimConfig, SimResult, Simulator};
use sia::workloads::{Trace, TraceConfig, TraceKind};

/// A tiny Philly slice for the one-GPU-per-job scheduler.
fn tiny_trace(n: usize) -> Trace {
    let mut t = Trace::generate(&TraceConfig::new(TraceKind::Philly, 3));
    t.jobs.truncate(n);
    for j in &mut t.jobs {
        j.work_target *= 0.02;
    }
    t
}

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

fn run(sched: &mut dyn Scheduler, trace: &Trace, cfg: SimConfig) -> SimResult {
    Simulator::new(ClusterSpec::heterogeneous_64(), trace, cfg).run(sched)
}

#[test]
fn one_gpu_each_matches_golden() {
    let trace = tiny_trace(10);
    let r = run(&mut OneGpuEach, &trace, SimConfig::default());
    assert_eq!(r.unfinished, 0, "workload must complete");
    assert_golden("one-gpu-default", &r, ONE_GPU_DEFAULT);
    let r = run(&mut OneGpuEach, &trace, SimConfig::physical(7));
    assert_golden("one-gpu-physical", &r, ONE_GPU_PHYSICAL);
}

#[test]
fn late_arrivals_match_golden() {
    // Ten idle rounds before the first arrival.
    let mut trace = tiny_trace(3);
    for j in &mut trace.jobs {
        j.submit_time += 600.0;
    }
    let r = run(&mut OneGpuEach, &trace, SimConfig::default());
    assert_golden("late-arrivals", &r, LATE_ARRIVALS);
}
