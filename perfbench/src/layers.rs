//! Per-layer accounting: telemetry deltas and the identities the per-layer
//! table must satisfy.

use std::collections::BTreeMap;

use serde_json::{json, Value};

/// The program's span histograms: snapshotted beside the span log, and
/// `engine.execute` and `solver.lagrangian.solve` feed per-layer metrics.
pub const SPAN_HISTOGRAMS: [&str; 15] = [
    "engine.schedule",
    "engine.execute",
    "engine.apply",
    "policy.schedule",
    "policy.refit",
    "policy.goodput",
    "policy.milp_build",
    "policy.milp_solve",
    "policy.shard_build",
    "policy.shard_solve",
    "placement.realize",
    "solver.decompose.plan",
    "solver.decompose.solve",
    "solver.lagrangian.solve",
    "serve.request_latency_s",
];

/// A point-in-time copy of the program's process-global counters and the
/// span histograms above. Telemetry accumulates over the whole process, so
/// per-run values are differences of two marks.
#[derive(Debug, Clone, Default)]
pub struct Mark {
    counters: BTreeMap<String, u64>,
    /// `(count, sum)` per histogram.
    hists: BTreeMap<&'static str, (u64, f64)>,
}

impl Mark {
    pub fn take() -> Mark {
        Mark {
            counters: sia_telemetry::counters_snapshot().into_iter().collect(),
            hists: SPAN_HISTOGRAMS
                .iter()
                .map(|&name| {
                    let (count, sum) = sia_telemetry::histogram_summary(name)
                        .map_or((0, 0.0), |s| (s.count, s.mean * s.count as f64));
                    (name, (count, sum))
                })
                .collect(),
        }
    }

    /// Counter increase since `before`.
    pub fn counter_since(&self, before: &Mark, name: &str) -> u64 {
        let get = |m: &Mark| m.counters.get(name).copied().unwrap_or(0);
        get(self) - get(before)
    }

    /// Seconds added to span histogram `name` since `before`.
    pub fn span_s_since(&self, before: &Mark, name: &str) -> f64 {
        let get = |m: &Mark| m.hists.get(name).map_or(0.0, |h| h.1);
        get(self) - get(before)
    }

    /// Every counter that moved since `before`, plus the histogram deltas,
    /// as written beside the span log.
    pub fn delta_json(&self, before: &Mark) -> Value {
        let counters: serde_json::Map = self
            .counters
            .keys()
            .filter_map(|k| {
                let d = self.counter_since(before, k);
                (d > 0).then(|| (k.clone(), Value::from(d)))
            })
            .collect();
        let hists: serde_json::Map = self
            .hists
            .iter()
            .filter_map(|(&name, &(count, sum))| {
                let (c0, s0) = before.hists.get(name).copied().unwrap_or((0, 0.0));
                (count > c0).then(|| {
                    let delta = json!({"count": count - c0, "sum_s": sum - s0});
                    (name.to_string(), delta)
                })
            })
            .collect();
        json!({"counters": Value::Object(counters), "span_histograms": Value::Object(hists)})
    }
}

/// `part / whole`, or 0 when the base is empty.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Wall time split of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeSplit {
    /// `Simulator::run` wall time.
    pub run_s: f64,
    /// Sum of `Scheduler::schedule` wall times within the run.
    pub schedule_s: f64,
    /// The policy's own phase timers: refit, goodput, ILP build, solve,
    /// placement.
    pub phases_s: [f64; 5],
}

impl TimeSplit {
    /// Simulator time outside the policy: `run − schedule`.
    pub fn sim_self_s(&self) -> f64 {
        self.run_s - self.schedule_s
    }

    /// Policy time no phase timer covers: `schedule − Σ phases`.
    pub fn unattributed_s(&self) -> f64 {
        self.schedule_s - self.phases_s.iter().sum::<f64>()
    }

    /// Checks that the split adds up and no remainder is negative beyond
    /// timer resolution (a phase timer cannot exceed the call it is in).
    pub fn check(&self) -> Result<(), String> {
        const SLACK_S: f64 = 1e-6;
        let rebuilt_run = self.schedule_s + self.sim_self_s();
        let rebuilt_schedule = self.phases_s.iter().sum::<f64>() + self.unattributed_s();
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
        if !close(rebuilt_run, self.run_s) || !close(rebuilt_schedule, self.schedule_s) {
            return Err(format!("layers do not add up: {self:?}"));
        }
        if self.sim_self_s() < -SLACK_S {
            return Err(format!("schedule time exceeds run time: {self:?}"));
        }
        if self.unattributed_s() < -SLACK_S * self.phases_s.len() as f64 {
            return Err(format!("phase timers exceed schedule time: {self:?}"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split(run_s: f64, schedule_s: f64, phases_s: [f64; 5]) -> TimeSplit {
        TimeSplit {
            run_s,
            schedule_s,
            phases_s,
        }
    }

    #[test]
    fn self_time_arithmetic_adds_up() {
        let s = split(10.0, 6.0, [2.0, 0.5, 0.25, 2.5, 0.5]);
        assert_eq!(s.sim_self_s(), 4.0);
        assert_eq!(s.unattributed_s(), 0.25);
        assert_eq!(s.sim_self_s() + s.schedule_s, s.run_s);
        assert_eq!(
            s.phases_s.iter().sum::<f64>() + s.unattributed_s(),
            s.schedule_s
        );
        assert!(s.check().is_ok());
    }

    #[test]
    fn negative_remainders_are_refused() {
        assert!(split(1.0, 2.0, [0.0; 5]).check().is_err());
        assert!(split(3.0, 2.0, [1.0, 1.0, 0.5, 0.0, 0.0]).check().is_err());
        // Within timer resolution is fine.
        assert!(split(1.0, 1.0 + 1e-7, [0.0; 5]).check().is_ok());
    }

    #[test]
    fn ratio_of_empty_base_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }

    #[test]
    fn marks_difference_counters() {
        let before = Mark::take();
        sia_telemetry::counter("perfbench.test.counter").add(5);
        let after = Mark::take();
        assert_eq!(after.counter_since(&before, "perfbench.test.counter"), 5);
        assert_eq!(after.counter_since(&before, "perfbench.test.absent"), 0);
        let delta = after.delta_json(&before);
        assert_eq!(
            delta
                .get("counters")
                .and_then(|c| c.get("perfbench.test.counter"))
                .and_then(Value::as_u64),
            Some(5)
        );
    }
}
