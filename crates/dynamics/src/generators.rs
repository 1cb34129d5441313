//! Stochastic script generators.
//!
//! Both generators produce an ordinary [`DynamicsScript`] — all randomness
//! is spent at *generation* time from named `sia-events` RNG streams, so
//! the resulting timeline is a plain deterministic script: same seed, same
//! script, byte-identical simulations.

use rand::Rng;
use sia_cluster::ClusterSpec;
use sia_events::{exp_sample, StreamRngs};

use crate::script::{CapacityEvent, DynamicsScript};

/// Poisson node churn: node kills arrive as a Poisson process with
/// `rate_per_hour` (cluster-wide), each striking a uniformly random GPU
/// type (weighted by node count) and coming back `repair_secs` later as an
/// add of the same shape. Draws come from the `"dynamics.churn"` stream of
/// `seed`, so churn never perturbs engine or failure randomness.
pub fn poisson_churn(
    spec: &ClusterSpec,
    seed: u64,
    rate_per_hour: f64,
    repair_secs: f64,
    horizon_secs: f64,
) -> DynamicsScript {
    let mut rngs = StreamRngs::new(seed);
    let rng = rngs.stream("dynamics.churn");
    let lambda = rate_per_hour / 3600.0;
    let mut script = DynamicsScript::new();
    let mut t = 0.0f64;
    loop {
        t += exp_sample(rng, lambda);
        if !t.is_finite() || t >= horizon_secs {
            break;
        }
        // Node-count-weighted type choice.
        let total = spec.nodes().len();
        let pick = rng.random_range(0..total);
        let node = spec.nodes()[pick];
        let name = spec.kind(node.gpu_type).name.clone();
        script = script.at(
            t,
            CapacityEvent::Remove {
                gpu_type: name.clone(),
                num_nodes: 1,
            },
        );
        let back = t + repair_secs;
        if back < horizon_secs {
            script = script.at(
                back,
                CapacityEvent::Add {
                    gpu_type: name,
                    num_nodes: 1,
                    gpus_per_node: node.num_gpus,
                },
            );
        }
    }
    script
}

/// Timing parameters for [`maintenance_windows`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaintenanceSchedule {
    /// Seconds between window starts.
    pub period_secs: f64,
    /// Uniform jitter added to each start, up to this many seconds.
    pub jitter_secs: f64,
    /// Drain notice before the node leaves.
    pub grace_secs: f64,
    /// How long the node stays out after the drain completes.
    pub duration_secs: f64,
    /// Generate no windows at or past this time.
    pub horizon_secs: f64,
}

/// Periodic maintenance windows: every `period_secs` (with a uniform
/// jitter of up to `jitter_secs` from the `"dynamics.maintenance"` stream)
/// one node of `gpu_type` is gracefully drained with `grace_secs` notice
/// and re-added `duration_secs` after the drain completes.
pub fn maintenance_windows(
    spec: &ClusterSpec,
    seed: u64,
    gpu_type: &str,
    sched: MaintenanceSchedule,
) -> DynamicsScript {
    let t = spec
        .gpu_type_by_name(gpu_type)
        .unwrap_or_else(|| panic!("unknown GPU type {gpu_type:?}"));
    let gpus_per_node = spec.gpus_per_node_of_type(t);
    let mut rngs = StreamRngs::new(seed);
    let rng = rngs.stream("dynamics.maintenance");
    let mut script = DynamicsScript::new();
    let mut start = sched.period_secs;
    while start < sched.horizon_secs {
        let jitter = if sched.jitter_secs > 0.0 {
            rng.random::<f64>() * sched.jitter_secs
        } else {
            0.0
        };
        let at = start + jitter;
        if at >= sched.horizon_secs {
            break;
        }
        script = script.at(
            at,
            CapacityEvent::Drain {
                gpu_type: gpu_type.to_string(),
                num_nodes: 1,
                grace: sched.grace_secs,
            },
        );
        let back = at + sched.grace_secs + sched.duration_secs;
        if back < sched.horizon_secs {
            script = script.at(
                back,
                CapacityEvent::Add {
                    gpu_type: gpu_type.to_string(),
                    num_nodes: 1,
                    gpus_per_node,
                },
            );
        }
        start += sched.period_secs;
    }
    script
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_churn_is_seed_stable_and_paired() {
        let spec = ClusterSpec::heterogeneous_64();
        let a = poisson_churn(&spec, 7, 2.0, 1800.0, 24.0 * 3600.0);
        let b = poisson_churn(&spec, 7, 2.0, 1800.0, 24.0 * 3600.0);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "2/hour over 24h should produce events");
        let c = poisson_churn(&spec, 8, 2.0, 1800.0, 24.0 * 3600.0);
        assert_ne!(a, c, "different seeds should differ");
        // Every event validates against the source spec.
        a.validate(&spec).unwrap();
        // Kills outnumber or equal adds (adds can fall past the horizon).
        let kills = a.entries().iter().filter(|e| e.event.kind() == "remove");
        let adds = a.entries().iter().filter(|e| e.event.kind() == "add");
        assert!(kills.count() >= adds.count());
    }

    #[test]
    fn maintenance_windows_alternate_drain_and_add() {
        let spec = ClusterSpec::heterogeneous_64();
        let sched = MaintenanceSchedule {
            period_secs: 7200.0,
            jitter_secs: 600.0,
            grace_secs: 300.0,
            duration_secs: 1800.0,
            horizon_secs: 8.0 * 3600.0,
        };
        let s = maintenance_windows(&spec, 3, "t4", sched);
        s.validate(&spec).unwrap();
        assert!(s.len() >= 4);
        assert_eq!(s.entries()[0].event.kind(), "drain");
        let same = maintenance_windows(&spec, 3, "t4", sched);
        assert_eq!(s, same);
    }
}
