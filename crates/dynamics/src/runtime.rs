//! Compiled, executable capacity timelines.
//!
//! A [`DynamicsRuntime`] compiles a [`DynamicsScript`](crate::DynamicsScript)
//! against a cluster and applies its events to a
//! [`ClusterView`] as simulation time advances. The simulator drives
//! [`DynamicsRuntime::poll`] from exact-time kernel events, so the sequence
//! of [`CapacityChange`]s (and therefore every downstream effect) is a pure
//! function of the script and the cluster.
//!
//! Concrete node ids are chosen *at apply time* with a deterministic rule
//! (highest-id eligible node of the type first), so a script never names
//! node ids and stays portable across cluster sizes.

use sia_cluster::{ClusterView, GpuTypeId, NodeHealth};

use crate::script::{CapacityEvent, DynamicsError, DynamicsScript};

/// What a capacity change did, for trace/telemetry consumers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapacityChangeKind {
    /// Fresh nodes appeared.
    Added,
    /// Nodes were abruptly killed (evict, losing progress since the last
    /// checkpoint).
    Removed,
    /// Nodes stopped accepting new placements (grace window began).
    DrainStarted,
    /// A drain grace window expired (evict, keeping progress).
    DrainFinished,
    /// Nodes became stragglers.
    Degraded,
    /// Straggler nodes recovered.
    Restored,
}

impl CapacityChangeKind {
    /// Stable label used in telemetry counter names.
    pub fn label(&self) -> &'static str {
        match self {
            CapacityChangeKind::Added => "added",
            CapacityChangeKind::Removed => "removed",
            CapacityChangeKind::DrainStarted => "drain_started",
            CapacityChangeKind::DrainFinished => "drain_finished",
            CapacityChangeKind::Degraded => "degraded",
            CapacityChangeKind::Restored => "restored",
        }
    }
}

/// One applied capacity change: which nodes, when, and what happened.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityChange {
    /// Scripted time of the event (seconds). The simulator may *enforce*
    /// the change later (at a round boundary), but records it at this time.
    pub time: f64,
    /// What happened.
    pub kind: CapacityChangeKind,
    /// The GPU type affected.
    pub gpu_type: GpuTypeId,
    /// Concrete node ids affected, ascending.
    pub nodes: Vec<usize>,
    /// Total GPUs across `nodes`.
    pub gpus: usize,
    /// Straggler multiplier (1.0 except for `Degraded`).
    pub factor: f64,
}

impl CapacityChange {
    /// True if jobs placed on `nodes` must be evicted.
    pub fn evicts(&self) -> bool {
        matches!(
            self.kind,
            CapacityChangeKind::Removed | CapacityChangeKind::DrainFinished
        )
    }

    /// True if evicted jobs also lose progress since their last checkpoint
    /// (abrupt kill, as opposed to a graceful drain).
    pub fn lose_progress(&self) -> bool {
        self.kind == CapacityChangeKind::Removed
    }
}

#[derive(Debug, Clone)]
enum OpKind {
    Add {
        gpu_type: GpuTypeId,
        num_nodes: usize,
        gpus_per_node: usize,
    },
    Kill {
        gpu_type: GpuTypeId,
        num_nodes: usize,
    },
    DrainStart {
        gpu_type: GpuTypeId,
        num_nodes: usize,
        drain: usize,
    },
    DrainFinish {
        gpu_type: GpuTypeId,
        drain: usize,
    },
    Degrade {
        gpu_type: GpuTypeId,
        num_nodes: usize,
        factor: f64,
    },
    Restore {
        gpu_type: GpuTypeId,
        num_nodes: usize,
    },
}

#[derive(Debug, Clone)]
struct Op {
    time: f64,
    kind: OpKind,
}

/// A compiled capacity timeline, applied in time order via
/// [`DynamicsRuntime::poll`].
#[derive(Debug, Clone)]
pub struct DynamicsRuntime {
    ops: Vec<Op>,
    next: usize,
    /// Node ids chosen when each drain started, indexed by drain id.
    drains: Vec<Vec<usize>>,
}

impl DynamicsRuntime {
    /// Compiles a script against a cluster, resolving GPU kind names.
    /// A `Drain { grace }` event compiles to a drain-start op at `t` and a
    /// linked drain-finish op at `t + grace`.
    pub fn new(script: &DynamicsScript, view: &ClusterView) -> Result<Self, DynamicsError> {
        script.validate(view.spec())?;
        let resolve = |name: &str| view.gpu_type_by_name(name).expect("validated above");
        let mut ops = Vec::new();
        let mut n_drains = 0usize;
        for e in script.entries() {
            match &e.event {
                CapacityEvent::Add {
                    gpu_type,
                    num_nodes,
                    gpus_per_node,
                } => ops.push(Op {
                    time: e.time,
                    kind: OpKind::Add {
                        gpu_type: resolve(gpu_type),
                        num_nodes: *num_nodes,
                        gpus_per_node: *gpus_per_node,
                    },
                }),
                CapacityEvent::Remove {
                    gpu_type,
                    num_nodes,
                } => ops.push(Op {
                    time: e.time,
                    kind: OpKind::Kill {
                        gpu_type: resolve(gpu_type),
                        num_nodes: *num_nodes,
                    },
                }),
                CapacityEvent::Drain {
                    gpu_type,
                    num_nodes,
                    grace,
                } => {
                    let t = resolve(gpu_type);
                    ops.push(Op {
                        time: e.time,
                        kind: OpKind::DrainStart {
                            gpu_type: t,
                            num_nodes: *num_nodes,
                            drain: n_drains,
                        },
                    });
                    ops.push(Op {
                        time: e.time + grace,
                        kind: OpKind::DrainFinish {
                            gpu_type: t,
                            drain: n_drains,
                        },
                    });
                    n_drains += 1;
                }
                CapacityEvent::Degrade {
                    gpu_type,
                    num_nodes,
                    factor,
                } => ops.push(Op {
                    time: e.time,
                    kind: OpKind::Degrade {
                        gpu_type: resolve(gpu_type),
                        num_nodes: *num_nodes,
                        factor: *factor,
                    },
                }),
                CapacityEvent::Restore {
                    gpu_type,
                    num_nodes,
                } => ops.push(Op {
                    time: e.time,
                    kind: OpKind::Restore {
                        gpu_type: resolve(gpu_type),
                        num_nodes: *num_nodes,
                    },
                }),
            }
        }
        // Stable by time: a zero-grace drain finishes right after it starts.
        ops.sort_by(|a, b| a.time.total_cmp(&b.time));
        Ok(DynamicsRuntime {
            ops,
            next: 0,
            drains: vec![Vec::new(); n_drains],
        })
    }

    /// The times at which ops fire, in order (drain finishes included).
    /// The simulator schedules one kernel event per distinct time.
    pub fn op_times(&self) -> Vec<f64> {
        self.ops.iter().map(|op| op.time).collect()
    }

    /// The time of the next unapplied op, if any.
    pub fn next_time(&self) -> Option<f64> {
        self.ops.get(self.next).map(|op| op.time)
    }

    /// Applies every op with `time <= now` to the view, returning the
    /// resulting changes in op order. Idempotent per op: each fires once.
    pub fn poll(&mut self, now: f64, view: &mut ClusterView) -> Vec<CapacityChange> {
        let mut out = Vec::new();
        while let Some(op) = self.ops.get(self.next) {
            if op.time > now {
                break;
            }
            let op = op.clone();
            self.next += 1;
            if let Some(change) = self.apply(&op, view) {
                sia_telemetry::counter("dynamics.capacity_events").incr();
                sia_telemetry::counter(&format!("dynamics.{}", change.kind.label())).incr();
                out.push(change);
            }
        }
        out
    }

    /// Highest-id nodes of `gpu_type` satisfying `eligible`, up to `n`,
    /// returned ascending. Highest-first removes the newest capacity first,
    /// which keeps shrink-then-grow scripts from fragmenting low node ids.
    fn select(
        view: &ClusterView,
        gpu_type: GpuTypeId,
        n: usize,
        eligible: impl Fn(&ClusterView, usize) -> bool,
    ) -> Vec<usize> {
        let mut ids: Vec<usize> = view
            .spec()
            .nodes_of_type(gpu_type)
            .map(|nd| nd.id)
            .filter(|&id| eligible(view, id))
            .collect();
        ids.reverse();
        ids.truncate(n);
        ids.reverse();
        ids
    }

    fn apply(&mut self, op: &Op, view: &mut ClusterView) -> Option<CapacityChange> {
        let gpus_of = |view: &ClusterView, ids: &[usize]| -> usize {
            ids.iter().map(|&id| view.spec().nodes()[id].num_gpus).sum()
        };
        match op.kind {
            OpKind::Add {
                gpu_type,
                num_nodes,
                gpus_per_node,
            } => {
                let nodes = view.add_nodes(gpu_type, num_nodes, gpus_per_node);
                Some(CapacityChange {
                    time: op.time,
                    kind: CapacityChangeKind::Added,
                    gpu_type,
                    gpus: num_nodes * gpus_per_node,
                    nodes,
                    factor: 1.0,
                })
            }
            OpKind::Kill {
                gpu_type,
                num_nodes,
            } => {
                let nodes = Self::select(view, gpu_type, num_nodes, |v, id| v.is_placeable(id));
                if nodes.is_empty() {
                    return None;
                }
                for &id in &nodes {
                    view.set_health(id, NodeHealth::Removed);
                }
                Some(CapacityChange {
                    time: op.time,
                    kind: CapacityChangeKind::Removed,
                    gpu_type,
                    gpus: gpus_of(view, &nodes),
                    nodes,
                    factor: 1.0,
                })
            }
            OpKind::DrainStart {
                gpu_type,
                num_nodes,
                drain,
            } => {
                let nodes = Self::select(view, gpu_type, num_nodes, |v, id| v.is_placeable(id));
                if nodes.is_empty() {
                    return None;
                }
                for &id in &nodes {
                    view.set_health(id, NodeHealth::Draining);
                }
                self.drains[drain] = nodes.clone();
                Some(CapacityChange {
                    time: op.time,
                    kind: CapacityChangeKind::DrainStarted,
                    gpu_type,
                    gpus: gpus_of(view, &nodes),
                    nodes,
                    factor: 1.0,
                })
            }
            OpKind::DrainFinish { gpu_type, drain } => {
                let nodes = std::mem::take(&mut self.drains[drain]);
                if nodes.is_empty() {
                    return None;
                }
                for &id in &nodes {
                    view.set_health(id, NodeHealth::Removed);
                }
                Some(CapacityChange {
                    time: op.time,
                    kind: CapacityChangeKind::DrainFinished,
                    gpu_type,
                    gpus: gpus_of(view, &nodes),
                    nodes,
                    factor: 1.0,
                })
            }
            OpKind::Degrade {
                gpu_type,
                num_nodes,
                factor,
            } => {
                let nodes = Self::select(view, gpu_type, num_nodes, |v, id| {
                    v.is_placeable(id) && v.degradation(id) == 1.0
                });
                if nodes.is_empty() {
                    return None;
                }
                for &id in &nodes {
                    view.set_degradation(id, factor);
                }
                Some(CapacityChange {
                    time: op.time,
                    kind: CapacityChangeKind::Degraded,
                    gpu_type,
                    gpus: gpus_of(view, &nodes),
                    nodes,
                    factor,
                })
            }
            OpKind::Restore {
                gpu_type,
                num_nodes,
            } => {
                let nodes =
                    Self::select(view, gpu_type, num_nodes, |v, id| v.degradation(id) != 1.0);
                if nodes.is_empty() {
                    return None;
                }
                for &id in &nodes {
                    view.set_degradation(id, 1.0);
                }
                Some(CapacityChange {
                    time: op.time,
                    kind: CapacityChangeKind::Restored,
                    gpu_type,
                    gpus: gpus_of(view, &nodes),
                    nodes,
                    factor: 1.0,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_cluster::ClusterSpec;

    fn view() -> ClusterView {
        ClusterView::new(ClusterSpec::heterogeneous_64())
    }

    fn script_remove_a100() -> DynamicsScript {
        DynamicsScript::new()
            .at(
                3600.0,
                CapacityEvent::Remove {
                    gpu_type: "a100".into(),
                    num_nodes: 2,
                },
            )
            .at(
                7200.0,
                CapacityEvent::Add {
                    gpu_type: "a100".into(),
                    num_nodes: 2,
                    gpus_per_node: 8,
                },
            )
    }

    #[test]
    fn shrink_then_grow_round_trips_capacity() {
        let mut v = view();
        let a100 = v.gpu_type_by_name("a100").unwrap();
        let mut rt = DynamicsRuntime::new(&script_remove_a100(), &v).unwrap();
        assert_eq!(rt.next_time(), Some(3600.0));
        assert!(rt.poll(1000.0, &mut v).is_empty());
        let removed = rt.poll(3600.0, &mut v);
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].kind, CapacityChangeKind::Removed);
        assert_eq!(removed[0].nodes, vec![9, 10]); // highest-id a100 nodes
        assert_eq!(removed[0].gpus, 16);
        assert!(removed[0].lose_progress());
        assert_eq!(v.gpus_of_type(a100), 0);
        let added = rt.poll(10_000.0, &mut v);
        assert_eq!(added.len(), 1);
        assert_eq!(added[0].kind, CapacityChangeKind::Added);
        assert_eq!(added[0].nodes, vec![11, 12]); // fresh ids
        assert_eq!(v.gpus_of_type(a100), 16);
        assert_eq!(rt.next_time(), None);
    }

    #[test]
    fn drain_splits_into_start_and_finish() {
        let mut v = view();
        let t4 = v.gpu_type_by_name("t4").unwrap();
        let script = DynamicsScript::new().at(
            100.0,
            CapacityEvent::Drain {
                gpu_type: "t4".into(),
                num_nodes: 2,
                grace: 300.0,
            },
        );
        let mut rt = DynamicsRuntime::new(&script, &v).unwrap();
        assert_eq!(rt.op_times(), vec![100.0, 400.0]);
        let start = rt.poll(100.0, &mut v);
        assert_eq!(start.len(), 1);
        assert_eq!(start[0].kind, CapacityChangeKind::DrainStarted);
        assert!(!start[0].evicts());
        assert_eq!(v.gpus_of_type(t4), 16); // 4 of 6 nodes left
        assert_eq!(v.health(5), NodeHealth::Draining);
        let finish = rt.poll(400.0, &mut v);
        assert_eq!(finish.len(), 1);
        assert_eq!(finish[0].kind, CapacityChangeKind::DrainFinished);
        assert_eq!(finish[0].nodes, start[0].nodes);
        assert!(finish[0].evicts());
        assert!(!finish[0].lose_progress());
        assert_eq!(v.health(5), NodeHealth::Removed);
    }

    #[test]
    fn degrade_and_restore_toggle_multipliers() {
        let mut v = view();
        let script = DynamicsScript::new()
            .at(
                10.0,
                CapacityEvent::Degrade {
                    gpu_type: "rtx".into(),
                    num_nodes: 1,
                    factor: 0.4,
                },
            )
            .at(
                20.0,
                CapacityEvent::Restore {
                    gpu_type: "rtx".into(),
                    num_nodes: 1,
                },
            );
        let mut rt = DynamicsRuntime::new(&script, &v).unwrap();
        let deg = rt.poll(10.0, &mut v);
        assert_eq!(deg[0].kind, CapacityChangeKind::Degraded);
        assert_eq!(deg[0].factor, 0.4);
        let node = deg[0].nodes[0];
        assert_eq!(v.degradation(node), 0.4);
        let res = rt.poll(20.0, &mut v);
        assert_eq!(res[0].kind, CapacityChangeKind::Restored);
        assert_eq!(res[0].nodes, deg[0].nodes);
        assert_eq!(v.degradation(node), 1.0);
    }

    #[test]
    fn removal_clamps_to_available_nodes() {
        let mut v = view();
        let script = DynamicsScript::new().at(
            0.0,
            CapacityEvent::Remove {
                gpu_type: "a100".into(),
                num_nodes: 99,
            },
        );
        let mut rt = DynamicsRuntime::new(&script, &v).unwrap();
        let changes = rt.poll(0.0, &mut v);
        assert_eq!(changes[0].nodes.len(), 2);
        // A second removal of the same type finds nothing and emits nothing.
        let script2 = DynamicsScript::new().at(
            1.0,
            CapacityEvent::Remove {
                gpu_type: "a100".into(),
                num_nodes: 1,
            },
        );
        let mut rt2 = DynamicsRuntime::new(&script2, &v).unwrap();
        assert!(rt2.poll(1.0, &mut v).is_empty());
    }

    #[test]
    fn same_seed_compilation_is_deterministic() {
        let s = script_remove_a100();
        let mut va = view();
        let mut vb = view();
        let mut ra = DynamicsRuntime::new(&s, &va).unwrap();
        let mut rb = DynamicsRuntime::new(&s, &vb).unwrap();
        assert_eq!(ra.poll(1e9, &mut va), rb.poll(1e9, &mut vb));
        assert_eq!(va, vb);
    }
}
