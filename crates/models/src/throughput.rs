//! The per-(job, GPU type) iteration-time / throughput model.
//!
//! Following Pollux (OSDI '21), which Sia reuses and extends, one training
//! iteration on `k` data-parallel replicas with per-replica batch `m` and
//! `s` gradient-accumulation steps costs
//!
//! ```text
//! T_grad(m)      = alpha_c + beta_c * m
//! T_sync(k)      = 0                                   if k == 1
//!                = alpha_n + beta_n * max(0, k - 2)    co-located replicas
//!                = alpha_d + beta_d * max(0, k - 2)    replicas across nodes
//! T_iter(k,m,s)  = s * T_grad + (T_grad^gamma + T_sync^gamma)^(1/gamma)
//! ```
//!
//! `gamma >= 1` models the partial overlap of computation and gradient
//! synchronisation (`gamma = 1`: no overlap; `gamma -> inf`: full overlap).
//! Throughput in samples/second is `k * m * (s + 1) / T_iter`.

/// Shape of an allocation as seen by the throughput model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AllocShape {
    /// Number of data-parallel replicas (= GPUs for pure data parallelism).
    pub replicas: usize,
    /// Whether the replicas span more than one node.
    pub distributed: bool,
}

impl AllocShape {
    /// Single-GPU allocation.
    pub fn single() -> Self {
        AllocShape {
            replicas: 1,
            distributed: false,
        }
    }

    /// `k` replicas, co-located on one node.
    pub fn local(k: usize) -> Self {
        AllocShape {
            replicas: k,
            distributed: false,
        }
    }

    /// `k` replicas spanning multiple nodes.
    pub fn dist(k: usize) -> Self {
        AllocShape {
            replicas: k,
            distributed: true,
        }
    }
}

/// Parameters of the iteration-time model for one `(job, GPU type)` pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputParams {
    /// Fixed per-iteration compute overhead (seconds).
    pub alpha_c: f64,
    /// Per-sample compute time (seconds/sample) on this GPU type.
    pub beta_c: f64,
    /// Base all-reduce cost for co-located replicas (seconds).
    pub alpha_n: f64,
    /// Marginal all-reduce cost per extra co-located replica (seconds).
    pub beta_n: f64,
    /// Base all-reduce cost across nodes (seconds).
    pub alpha_d: f64,
    /// Marginal all-reduce cost per extra replica across nodes (seconds).
    pub beta_d: f64,
    /// Compute/communication overlap exponent (`>= 1`).
    pub gamma: f64,
    /// Maximum per-GPU batch size that fits this GPU type's memory.
    pub max_local_bsz: f64,
}

impl ThroughputParams {
    /// Gradient-synchronisation time for the given allocation shape.
    pub fn t_sync(&self, shape: AllocShape) -> f64 {
        if shape.replicas <= 1 {
            return 0.0;
        }
        let extra = (shape.replicas as f64 - 2.0).max(0.0);
        if shape.distributed {
            self.alpha_d + self.beta_d * extra
        } else {
            self.alpha_n + self.beta_n * extra
        }
    }

    /// The model specialised to one allocation shape: `γ`, `1/γ` and
    /// `T_sync^γ` are computed once here instead of once per evaluation.
    pub fn at_shape(&self, shape: AllocShape) -> ShapeModel {
        let gamma = self.gamma.max(1.0);
        ShapeModel {
            replicas: shape.replicas as f64,
            alpha_c: self.alpha_c,
            beta_c: self.beta_c,
            gamma,
            inv_gamma: 1.0 / gamma,
            sync_pow: self.t_sync(shape).powf(gamma),
        }
    }

    /// Time of one training iteration with `s` gradient-accumulation steps.
    ///
    /// With `s > 0`, the first `s` micro-steps compute gradients locally and
    /// only the final step synchronises.
    pub fn t_iter(&self, shape: AllocShape, m: f64, accum_steps: u32) -> f64 {
        self.at_shape(shape).t_iter(m, accum_steps)
    }

    /// Samples processed per second at `(shape, m, s)`.
    pub fn throughput(&self, shape: AllocShape, m: f64, accum_steps: u32) -> f64 {
        self.at_shape(shape).throughput(m, accum_steps)
    }

    /// Returns params validated for basic sanity (all finite, non-negative
    /// where required).
    pub fn is_valid(&self) -> bool {
        let vals = [
            self.alpha_c,
            self.beta_c,
            self.alpha_n,
            self.beta_n,
            self.alpha_d,
            self.beta_d,
            self.gamma,
            self.max_local_bsz,
        ];
        vals.iter().all(|v| v.is_finite() && *v >= 0.0)
            && self.beta_c > 0.0
            && self.gamma >= 1.0
            && self.max_local_bsz >= 1.0
    }
}

/// [`ThroughputParams`] evaluated for one [`AllocShape`]; built by
/// [`ThroughputParams::at_shape`].
///
/// This is the single implementation of the iteration-time formula: the
/// shape-taking methods of [`ThroughputParams`], the goodput optimizer and
/// the fitting loss all evaluate through it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShapeModel {
    /// Number of data-parallel replicas `k`.
    pub(crate) replicas: f64,
    /// Fixed per-iteration compute overhead (seconds).
    pub(crate) alpha_c: f64,
    /// Per-sample compute time (seconds/sample).
    pub(crate) beta_c: f64,
    /// Overlap exponent `γ`, clamped to `>= 1`.
    pub(crate) gamma: f64,
    /// `1/γ`.
    pub(crate) inv_gamma: f64,
    /// `T_sync^γ` for this shape.
    pub(crate) sync_pow: f64,
}

impl ShapeModel {
    /// Gradient-computation time for a per-replica batch of `m` samples.
    pub fn t_grad(&self, m: f64) -> f64 {
        self.alpha_c + self.beta_c * m
    }

    /// Time of one training iteration with `s` gradient-accumulation steps.
    pub fn t_iter(&self, m: f64, accum_steps: u32) -> f64 {
        let tg = self.t_grad(m);
        let overlap = (tg.powf(self.gamma) + self.sync_pow).powf(self.inv_gamma);
        accum_steps as f64 * tg + overlap
    }

    /// Samples processed per second at `(m, s)`.
    pub fn throughput(&self, m: f64, accum_steps: u32) -> f64 {
        let total_batch = self.replicas * m * (accum_steps as f64 + 1.0);
        total_batch / self.t_iter(m, accum_steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ThroughputParams {
        ThroughputParams {
            alpha_c: 0.05,
            beta_c: 0.002,
            alpha_n: 0.02,
            beta_n: 0.005,
            alpha_d: 0.10,
            beta_d: 0.02,
            gamma: 3.0,
            max_local_bsz: 256.0,
        }
    }

    #[test]
    fn single_gpu_has_no_sync_cost() {
        let p = params();
        assert_eq!(p.t_sync(AllocShape::single()), 0.0);
        let t = p.t_iter(AllocShape::single(), 100.0, 0);
        assert!((t - (0.05 + 0.2)).abs() < 1e-12);
    }

    #[test]
    fn distributed_sync_costs_more_than_local() {
        let p = params();
        assert!(p.t_sync(AllocShape::dist(4)) > p.t_sync(AllocShape::local(4)));
    }

    #[test]
    fn sync_grows_with_replicas() {
        let p = params();
        assert!(p.t_sync(AllocShape::local(8)) > p.t_sync(AllocShape::local(2)));
    }

    #[test]
    fn throughput_scales_sublinearly() {
        let p = params();
        let t1 = p.throughput(AllocShape::single(), 128.0, 0);
        let t4 = p.throughput(AllocShape::local(4), 128.0, 0);
        let t8 = p.throughput(AllocShape::dist(8), 128.0, 0);
        assert!(t4 > t1, "more replicas must help at fixed per-GPU batch");
        assert!(t4 < 4.0 * t1, "scaling cannot be superlinear");
        assert!(t8 > t4);
        assert!(t8 < 8.0 * t1);
    }

    #[test]
    fn accumulation_amortizes_sync() {
        // With accumulation, effective samples/sec at the same total batch
        // improves when sync dominates.
        let mut p = params();
        p.alpha_d = 1.0; // expensive sync
        let shape = AllocShape::dist(4);
        // Total batch 512: either m=128,s=0 or m=64,s=1.
        let thr_no_accum = p.throughput(shape, 128.0, 0);
        let thr_accum = p.throughput(shape, 64.0, 1);
        // Both process the same total batch; accumulation pays sync once but
        // computes in two waves, so relative benefit depends on overlap. At
        // minimum the model must be internally consistent: throughput equals
        // total batch / iter time.
        let tb = 4.0 * 64.0 * 2.0;
        assert!((thr_accum - tb / p.t_iter(shape, 64.0, 1)).abs() < 1e-9);
        assert!(thr_no_accum > 0.0);
    }

    #[test]
    fn gamma_controls_overlap() {
        let mut p = params();
        let shape = AllocShape::dist(8);
        p.gamma = 1.0;
        let no_overlap = p.t_iter(shape, 128.0, 0);
        p.gamma = 10.0;
        let overlap = p.t_iter(shape, 128.0, 0);
        assert!(overlap < no_overlap);
        // Full overlap approaches max(tg, ts).
        let tg = p.at_shape(shape).t_grad(128.0);
        let ts = p.t_sync(shape);
        assert!(overlap >= tg.max(ts) - 1e-9);
    }

    #[test]
    fn validation_rejects_bad_params() {
        let mut p = params();
        assert!(p.is_valid());
        p.beta_c = 0.0;
        assert!(!p.is_valid());
        p.beta_c = 0.001;
        p.gamma = 0.5;
        assert!(!p.is_valid());
    }
}
