//! Online fitting of throughput-model parameters.
//!
//! Adaptive Executors report `(allocation shape, batch, accumulation,
//! measured iteration time)` tuples every reporting interval; the Goodput
//! Estimator refits the job's [`ThroughputParams`] for the observed GPU type
//! by derivative-free nonlinear least squares. Parameters are optimised in
//! log-space (positivity by construction) with a weak prior pulling
//! unidentified parameters toward their seed values — e.g. before any
//! multi-GPU observation exists, the sync-cost terms stay at their prior.

use crate::throughput::{AllocShape, ShapeModel, ThroughputParams};

/// One measured iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitSample {
    /// Allocation shape during the measurement.
    pub shape: AllocShape,
    /// Per-GPU batch size.
    pub local_bsz: f64,
    /// Gradient-accumulation steps.
    pub accum_steps: u32,
    /// Measured wall-clock iteration time (seconds).
    pub iter_time: f64,
}

/// Generic Nelder–Mead simplex minimisation.
///
/// Minimises `f` starting from `x0` with an initial simplex of per-dimension
/// radius `step`. Deterministic; runs a fixed iteration budget with early
/// exit on simplex collapse. A vertex whose loss is NaN ranks worst.
pub fn nelder_mead<F: FnMut(&[f64]) -> f64>(
    mut f: F,
    x0: &[f64],
    step: f64,
    max_iters: usize,
) -> Vec<f64> {
    let n = x0.len();
    let (alpha, gamma, rho, sigma) = (1.0, 2.0, 0.5, 0.5);

    let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(n + 1);
    let v0 = f(x0);
    simplex.push((x0.to_vec(), v0));
    for i in 0..n {
        let mut x = x0.to_vec();
        x[i] += step;
        let v = f(&x);
        simplex.push((x, v));
    }

    // Scratch vectors reused across iterations; an accepted trial point is
    // swapped into the simplex and the displaced vertex becomes scratch.
    let mut centroid = vec![0.0; n];
    let mut trial = vec![0.0; n];
    let mut expand = vec![0.0; n];
    for _ in 0..max_iters {
        simplex.sort_by(by_loss);
        let spread = simplex[n].1 - simplex[0].1;
        if spread.abs() < 1e-12 * (1.0 + simplex[0].1.abs()) {
            break;
        }
        // Centroid of all but the worst.
        centroid.fill(0.0);
        for (x, _) in simplex.iter().take(n) {
            for (c, xi) in centroid.iter_mut().zip(x) {
                *c += xi / n as f64;
            }
        }
        let (worst, worst_v) = (&simplex[n].0, simplex[n].1);
        for ((r, c), w) in trial.iter_mut().zip(&centroid).zip(worst) {
            *r = c + alpha * (c - w);
        }
        let fr = f(&trial);
        if fr < simplex[0].1 {
            // Expansion.
            for ((e, c), r) in expand.iter_mut().zip(&centroid).zip(&trial) {
                *e = c + gamma * (r - c);
            }
            let fe = f(&expand);
            if fe < fr {
                std::mem::swap(&mut simplex[n].0, &mut expand);
                simplex[n].1 = fe;
            } else {
                std::mem::swap(&mut simplex[n].0, &mut trial);
                simplex[n].1 = fr;
            }
        } else if fr < simplex[n - 1].1 {
            std::mem::swap(&mut simplex[n].0, &mut trial);
            simplex[n].1 = fr;
        } else {
            // Contraction.
            for ((t, c), w) in trial.iter_mut().zip(&centroid).zip(worst) {
                *t = c + rho * (w - c);
            }
            let fc = f(&trial);
            if fc < worst_v {
                std::mem::swap(&mut simplex[n].0, &mut trial);
                simplex[n].1 = fc;
            } else {
                // Shrink toward the best.
                let (best, rest) = simplex.split_at_mut(1);
                let best = &best[0].0;
                for entry in rest {
                    for (xi, b) in entry.0.iter_mut().zip(best) {
                        *xi = b + sigma * (*xi - b);
                    }
                    entry.1 = f(&entry.0);
                }
            }
        }
    }
    simplex.sort_by(by_loss);
    simplex.swap_remove(0).0
}

/// Orders simplex vertices by loss with [`f64::total_cmp`], a total order,
/// so `sort_by` cannot panic on NaN. Clearing a NaN's sign bit ranks every
/// NaN after `+inf`; NaN-free losses order as `partial_cmp` would.
fn by_loss(a: &(Vec<f64>, f64), b: &(Vec<f64>, f64)) -> std::cmp::Ordering {
    let key = |v: f64| if v.is_nan() { v.abs() } else { v };
    key(a.1).total_cmp(&key(b.1))
}

/// Number of fitted parameters (`max_local_bsz` is measured, not fitted).
const N_PARAMS: usize = 7;

fn encode(p: &ThroughputParams) -> [f64; N_PARAMS] {
    [
        p.alpha_c.max(1e-6).ln(),
        p.beta_c.max(1e-9).ln(),
        p.alpha_n.max(1e-6).ln(),
        p.beta_n.max(1e-9).ln(),
        p.alpha_d.max(1e-6).ln(),
        p.beta_d.max(1e-9).ln(),
        (p.gamma - 1.0).max(1e-6).ln(),
    ]
}

fn decode(z: &[f64], max_local_bsz: f64) -> ThroughputParams {
    ThroughputParams {
        alpha_c: z[0].exp(),
        beta_c: z[1].exp(),
        alpha_n: z[2].exp(),
        beta_n: z[3].exp(),
        alpha_d: z[4].exp(),
        beta_d: z[5].exp(),
        gamma: 1.0 + z[6].exp().min(15.0),
        max_local_bsz,
    }
}

/// Base strength of the prior pulling parameters toward the seed; decays as
/// observations accumulate so data eventually dominates.
const PRIOR_WEIGHT: f64 = 0.05;

/// Fits throughput parameters to observed iterations.
///
/// `seed` provides the starting point and the prior; with few observations
/// the fit stays close to it, with many it is dominated by the data. Returns
/// the seed unchanged when `samples` is empty.
pub fn fit_throughput(seed: &ThroughputParams, samples: &[FitSample]) -> ThroughputParams {
    if samples.is_empty() {
        return *seed;
    }
    let z0 = encode(seed);
    let prior = z0;
    let max_local = seed.max_local_bsz;
    let prior_w = PRIOR_WEIGHT / (1.0 + samples.len() as f64);
    // Per-fit constants: each sample's log iteration time, and its index
    // into the distinct shapes, whose `ShapeModel`s are built once per loss
    // evaluation rather than once per sample.
    let ln_obs: Vec<f64> = samples.iter().map(|s| s.iter_time.max(1e-9).ln()).collect();
    let mut shapes: Vec<AllocShape> = Vec::new();
    let shape_idx: Vec<usize> = samples
        .iter()
        .map(|s| match shapes.iter().position(|&sh| sh == s.shape) {
            Some(i) => i,
            None => {
                shapes.push(s.shape);
                shapes.len() - 1
            }
        })
        .collect();
    let mut models: Vec<ShapeModel> = Vec::with_capacity(shapes.len());
    let mut loss = |z: &[f64]| -> f64 {
        let p = decode(z, max_local);
        models.clear();
        models.extend(shapes.iter().map(|&sh| p.at_shape(sh)));
        let mut l = 0.0;
        for ((s, &i), ln_t) in samples.iter().zip(&shape_idx).zip(&ln_obs) {
            let pred = models[i].t_iter(s.local_bsz, s.accum_steps).max(1e-9);
            l += (pred.ln() - ln_t).powi(2);
        }
        l /= samples.len() as f64;
        for (zi, pi) in z.iter().zip(&prior) {
            l += prior_w * (zi - pi).powi(2);
        }
        l
    };
    // Coarse solve, then a polish restart with a smaller simplex.
    let z = nelder_mead(&mut loss, &z0, 0.8, 900);
    let z = nelder_mead(&mut loss, &z, 0.1, 500);
    decode(&z, max_local)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth() -> ThroughputParams {
        ThroughputParams {
            alpha_c: 0.08,
            beta_c: 0.003,
            alpha_n: 0.03,
            beta_n: 0.008,
            alpha_d: 0.15,
            beta_d: 0.03,
            gamma: 2.5,
            max_local_bsz: 256.0,
        }
    }

    fn rough_seed() -> ThroughputParams {
        ThroughputParams {
            alpha_c: 0.02,
            beta_c: 0.001,
            alpha_n: 0.01,
            beta_n: 0.002,
            alpha_d: 0.05,
            beta_d: 0.01,
            gamma: 2.0,
            max_local_bsz: 256.0,
        }
    }

    fn samples_from(p: &ThroughputParams, shapes: &[AllocShape]) -> Vec<FitSample> {
        let mut out = Vec::new();
        for &shape in shapes {
            for &m in &[16.0, 32.0, 64.0, 128.0, 256.0] {
                out.push(FitSample {
                    shape,
                    local_bsz: m,
                    accum_steps: 0,
                    iter_time: p.t_iter(shape, m, 0),
                });
            }
        }
        out
    }

    #[test]
    fn nelder_mead_minimizes_quadratic() {
        let x = nelder_mead(
            |z| (z[0] - 3.0).powi(2) + (z[1] + 1.0).powi(2),
            &[0.0, 0.0],
            1.0,
            300,
        );
        assert!((x[0] - 3.0).abs() < 1e-3);
        assert!((x[1] + 1.0).abs() < 1e-3);
    }

    #[test]
    fn nelder_mead_rosenbrock() {
        let x = nelder_mead(
            |z| (1.0 - z[0]).powi(2) + 100.0 * (z[1] - z[0] * z[0]).powi(2),
            &[-1.0, 1.0],
            0.5,
            2000,
        );
        assert!((x[0] - 1.0).abs() < 0.02, "x = {x:?}");
        assert!((x[1] - 1.0).abs() < 0.04, "x = {x:?}");
    }

    #[test]
    fn nelder_mead_survives_nan_over_half_the_domain() {
        // The loss is NaN wherever one of a scattered half of the
        // coordinates exceeds 1, so about half the initial vertices are NaN,
        // interleaved with finite ones. With 32 dimensions the simplex is
        // long enough for `sort_by` to check its comparator, and a
        // comparator that calls NaN equal to everything makes it panic.
        // Both NaN signs appear, because x86 arithmetic yields a sign-set NaN.
        let n = 32;
        let loss = |z: &[f64]| {
            for (i, v) in z.iter().enumerate() {
                if (0.414_214 * i as f64).fract() < 0.5 && *v > 1.0 {
                    return if i % 2 == 1 { f64::NAN } else { -f64::NAN };
                }
            }
            z.iter()
                .enumerate()
                .map(|(i, v)| (v - (0.618_034 * i as f64).fract()).powi(2))
                .sum::<f64>()
        };
        let x0 = vec![0.5; n];
        let x = nelder_mead(loss, &x0, 1.0, 2000);
        assert!(x.iter().all(|v| v.is_finite()), "x = {x:?}");
        assert!(loss(&x).is_finite(), "x = {x:?}");
        assert!(loss(&x) < loss(&x0), "x = {x:?}");
    }

    #[test]
    fn fit_recovers_single_gpu_compute_params() {
        let t = truth();
        let samples = samples_from(&t, &[AllocShape::single()]);
        let fitted = fit_throughput(&rough_seed(), &samples);
        // Predicted iteration times must match the truth on held-out batch.
        for &m in &[24.0, 96.0, 200.0] {
            let pred = fitted.t_iter(AllocShape::single(), m, 0);
            let act = t.t_iter(AllocShape::single(), m, 0);
            assert!(
                (pred - act).abs() / act < 0.05,
                "m={m}: pred {pred} vs act {act}"
            );
        }
    }

    #[test]
    fn fit_learns_sync_costs_from_multi_gpu_obs() {
        let t = truth();
        let samples = samples_from(
            &t,
            &[
                AllocShape::single(),
                AllocShape::local(2),
                AllocShape::local(4),
                AllocShape::dist(8),
                AllocShape::dist(16),
            ],
        );
        let fitted = fit_throughput(&rough_seed(), &samples);
        for shape in [AllocShape::local(3), AllocShape::dist(12)] {
            let pred = fitted.t_iter(shape, 64.0, 0);
            let act = t.t_iter(shape, 64.0, 0);
            assert!(
                (pred - act).abs() / act < 0.12,
                "{shape:?}: pred {pred} vs act {act}"
            );
        }
    }

    #[test]
    fn empty_samples_return_seed() {
        let seed = rough_seed();
        let fitted = fit_throughput(&seed, &[]);
        assert_eq!(fitted, seed);
    }

    #[test]
    fn fit_is_robust_to_noise() {
        let t = truth();
        let mut samples = samples_from(&t, &[AllocShape::single(), AllocShape::local(4)]);
        // Deterministic +/-5% multiplicative noise.
        for (i, s) in samples.iter_mut().enumerate() {
            let eps = if i % 2 == 0 { 1.05 } else { 0.95 };
            s.iter_time *= eps;
        }
        let fitted = fit_throughput(&rough_seed(), &samples);
        let pred = fitted.t_iter(AllocShape::local(4), 64.0, 0);
        let act = t.t_iter(AllocShape::local(4), 64.0, 0);
        assert!((pred - act).abs() / act < 0.15);
    }
}
