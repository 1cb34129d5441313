//! Goodput = throughput × statistical efficiency, and its optimisation.
//!
//! Given a fixed allocation (replica count, co-located or distributed) and a
//! job's batch-size limits, the Adaptive Executor picks the per-GPU batch
//! size `m` and gradient-accumulation step count `s` that maximise goodput.
//! Gradient accumulation lets a job reach a statistically desirable total
//! batch even when per-GPU memory is small — the mechanism Sia uses to
//! "fully exploit whichever GPU type" (§3.1).

use crate::efficiency::EfficiencyParams;
use crate::throughput::{AllocShape, ShapeModel, ThroughputParams};

/// Batch-size limits declared by the job submitter (Table 2's ranges).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchLimits {
    /// Minimum (baseline) total batch size `M0`.
    pub min_total: f64,
    /// Maximum total batch size the job tolerates.
    pub max_total: f64,
}

impl BatchLimits {
    /// Creates limits; `0 < min_total <= max_total` required.
    pub fn new(min_total: f64, max_total: f64) -> Self {
        assert!(
            min_total > 0.0 && min_total <= max_total,
            "invalid batch limits"
        );
        BatchLimits {
            min_total,
            max_total,
        }
    }

    /// Limits for a job with a fixed batch size (strong-scaling / rigid).
    pub fn fixed(total: f64) -> Self {
        BatchLimits::new(total, total)
    }
}

/// The goodput-optimal operating point for one allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoodputPoint {
    /// Goodput in efficiency-weighted samples per second.
    pub goodput: f64,
    /// Raw throughput in samples per second.
    pub throughput: f64,
    /// Statistical efficiency at the chosen batch.
    pub efficiency: f64,
    /// Chosen per-GPU batch size.
    pub local_bsz: f64,
    /// Chosen gradient-accumulation steps.
    pub accum_steps: u32,
    /// Total batch size `replicas * local_bsz * (accum_steps + 1)`.
    pub total_bsz: f64,
}

/// Maximum gradient-accumulation steps considered.
const MAX_ACCUM: u32 = 15;
/// Batch grid resolution per accumulation level.
const GRID: usize = 12;
/// Golden-section refinement iterations around the grid optimum.
const REFINE_ITERS: usize = 14;
/// Relative slack on the level bound, far above the few-ulp rounding by
/// which an evaluated goodput can exceed the bound's exact value.
const BOUND_SLACK: f64 = 1e-9;

/// Finds the goodput-maximising `(m, s)` for an allocation.
///
/// Returns `None` when no batch assignment satisfies the limits (e.g. the
/// minimum total batch cannot fit even with maximum accumulation, or the
/// replica count already exceeds `max_total` at batch 1).
///
/// # Examples
///
/// ```
/// use sia_models::{optimize_goodput, AllocShape, BatchLimits, EfficiencyParams, ThroughputParams};
///
/// let thr = ThroughputParams {
///     alpha_c: 0.05, beta_c: 0.002,
///     alpha_n: 0.02, beta_n: 0.005,
///     alpha_d: 0.10, beta_d: 0.02,
///     gamma: 2.5, max_local_bsz: 256.0,
/// };
/// let eff = EfficiencyParams::new(2000.0, 128.0);
/// let point = optimize_goodput(&thr, &eff, AllocShape::local(4),
///                              BatchLimits::new(128.0, 4096.0)).unwrap();
/// assert!(point.goodput > 0.0);
/// assert!(point.total_bsz >= 128.0 && point.total_bsz <= 4096.0);
/// ```
pub fn optimize_goodput(
    thr: &ThroughputParams,
    eff: &EfficiencyParams,
    shape: AllocShape,
    limits: BatchLimits,
) -> Option<GoodputPoint> {
    debug_assert!(shape.replicas >= 1);
    let sm = thr.at_shape(shape);
    let k = sm.replicas;
    let bound_holds = level_bound_holds(&sm, eff);
    let mut best: Option<GoodputPoint> = None;
    let mut had_unbound_level = false;
    for s in 0..=MAX_ACCUM {
        let waves = s as f64 + 1.0;
        // Feasible per-GPU batch window for this accumulation level.
        let m_lo = (limits.min_total / (k * waves)).max(1.0);
        let m_hi = (limits.max_total / (k * waves)).min(thr.max_local_bsz);
        if m_lo > m_hi {
            continue;
        }
        // Skip levels that cannot improve: once a level existed whose window
        // was not clipped by memory, higher accumulation only re-covers the
        // same total-batch range at strictly higher compute cost.
        if had_unbound_level {
            break;
        }
        if limits.max_total / (k * waves) <= thr.max_local_bsz {
            had_unbound_level = true;
        }
        // Only a strictly greater goodput replaces the incumbent, so a level
        // whose bound does not exceed it cannot change the result.
        if let Some(b) = best.filter(|_| bound_holds) {
            let bound = level_bound(&sm, eff, waves, m_lo, m_hi);
            if bound.is_finite() && bound * (1.0 + BOUND_SLACK) <= b.goodput {
                continue;
            }
        }
        let candidate = scan_level(|m| goodput_at(&sm, eff, m, s), m_lo, m_hi);
        if best.map(|b| candidate.goodput > b.goodput).unwrap_or(true) {
            best = Some(candidate);
        }
    }
    best
}

/// The operating point at per-GPU batch `m` and `s` accumulation steps.
fn goodput_at(sm: &ShapeModel, eff: &EfficiencyParams, m: f64, s: u32) -> GoodputPoint {
    let total = sm.replicas * m * (s as f64 + 1.0);
    let throughput = sm.throughput(m, s);
    let efficiency = eff.efficiency(total);
    GoodputPoint {
        goodput: throughput * efficiency,
        throughput,
        efficiency,
        local_bsz: m,
        accum_steps: s,
        total_bsz: total,
    }
}

/// Best point of one accumulation level: a geometric grid over
/// `[m_lo, m_hi]` (both ends included), then golden-section refinement
/// around the grid optimum (goodput is unimodal in `m` for fixed `s` in this
/// model family).
fn scan_level(mut eval: impl FnMut(f64) -> GoodputPoint, m_lo: f64, m_hi: f64) -> GoodputPoint {
    let ratio = m_hi / m_lo;
    let mut bh = eval(m_lo);
    for g in 1..GRID {
        let frac = g as f64 / (GRID - 1) as f64;
        let p = eval(m_lo * ratio.powf(frac));
        if p.goodput > bh.goodput {
            bh = p;
        }
    }
    let step = ratio.powf(1.0 / (GRID - 1) as f64);
    let mut a = (bh.local_bsz / step).max(m_lo);
    let mut b = (bh.local_bsz * step).min(m_hi);
    let phi = 0.618_033_988_749_894_9;
    for _ in 0..REFINE_ITERS {
        let x1 = b - phi * (b - a);
        let x2 = a + phi * (b - a);
        if eval(x1).goodput < eval(x2).goodput {
            a = x1;
        } else {
            b = x2;
        }
    }
    let refined = eval(0.5 * (a + b));
    if refined.goodput > bh.goodput {
        refined
    } else {
        bh
    }
}

/// Whether [`level_bound`]'s derivation holds for these parameters: compute
/// time non-negative and increasing in `m`, efficiency non-increasing, and
/// an overlap term that cannot round below `T_grad`. The last needs a
/// finite `γ`, `T_sync^γ >= 0` and `T_grad^γ` a normal float at the
/// smallest batch (`m = 1`).
fn level_bound_holds(sm: &ShapeModel, eff: &EfficiencyParams) -> bool {
    sm.alpha_c >= 0.0
        && sm.beta_c > 0.0
        && eff.phi >= 0.0
        && eff.m0 > 0.0
        && sm.gamma.is_finite()
        && sm.sync_pow >= 0.0
        && sm.t_grad(1.0).powf(sm.gamma) >= f64::MIN_POSITIVE
}

/// Upper bound on the goodput of every batch in `[m_lo, m_hi]` at one
/// accumulation level (`waves = s + 1`).
///
/// The overlap term is at least `T_grad`, so `T_iter >= waves * T_grad` and
/// throughput is at most `k m / T_grad(m)`, which rises with `m`. Efficiency
/// `EFF(k waves m)` is 1 up to the knee `m0 / (k waves)` and falls after it;
/// past the knee the product peaks at `sqrt(alpha_c phi / (beta_c k waves))`.
/// The bound's maximum over the window is therefore at an end, the knee or
/// the peak, the last two clamped into the window.
fn level_bound(sm: &ShapeModel, eff: &EfficiencyParams, waves: f64, m_lo: f64, m_hi: f64) -> f64 {
    let k = sm.replicas;
    let f = |m: f64| k * m / sm.t_grad(m) * eff.efficiency(k * m * waves);
    let knee = (eff.m0 / (k * waves)).max(m_lo).min(m_hi);
    let peak = (sm.alpha_c * eff.phi / (sm.beta_c * k * waves))
        .sqrt()
        .max(m_lo)
        .min(m_hi);
    f(m_lo).max(f(m_hi)).max(f(knee)).max(f(peak))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn thr() -> ThroughputParams {
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

    fn eff() -> EfficiencyParams {
        EfficiencyParams::new(2000.0, 128.0)
    }

    #[test]
    fn finds_feasible_point_single_gpu() {
        let p = optimize_goodput(
            &thr(),
            &eff(),
            AllocShape::single(),
            BatchLimits::new(128.0, 4096.0),
        )
        .unwrap();
        assert!(p.goodput > 0.0);
        assert!(p.total_bsz >= 128.0 - 1e-9 && p.total_bsz <= 4096.0 + 1e-9);
        assert!(p.local_bsz <= 256.0 + 1e-9);
        assert!((p.goodput - p.throughput * p.efficiency).abs() < 1e-9);
    }

    #[test]
    fn goodput_increases_with_gpus_for_scalable_job() {
        let limits = BatchLimits::new(128.0, 8192.0);
        let g1 = optimize_goodput(&thr(), &eff(), AllocShape::single(), limits)
            .unwrap()
            .goodput;
        let g4 = optimize_goodput(&thr(), &eff(), AllocShape::local(4), limits)
            .unwrap()
            .goodput;
        assert!(g4 > g1);
        assert!(g4 < 4.0 * g1, "statistical efficiency must bite");
    }

    #[test]
    fn accumulation_used_when_memory_binds() {
        // Tiny GPU memory forces accumulation to reach the minimum batch.
        let mut t = thr();
        t.max_local_bsz = 32.0;
        let p = optimize_goodput(
            &t,
            &eff(),
            AllocShape::single(),
            BatchLimits::new(128.0, 512.0),
        )
        .unwrap();
        assert!(p.accum_steps >= 3, "needs >= 4 waves of 32 to reach 128");
        assert!(p.total_bsz >= 128.0 - 1e-6);
    }

    #[test]
    fn infeasible_when_min_batch_unreachable() {
        let mut t = thr();
        t.max_local_bsz = 1.0;
        // 1 GPU x 1 sample x 16 waves = 16 < required 1000.
        let p = optimize_goodput(
            &t,
            &eff(),
            AllocShape::single(),
            BatchLimits::new(1000.0, 2000.0),
        );
        assert!(p.is_none());
    }

    #[test]
    fn infeasible_when_replicas_exceed_max_batch() {
        // 64 replicas at batch >= 1 each => total >= 64 > max 32.
        let p = optimize_goodput(
            &thr(),
            &eff(),
            AllocShape::dist(64),
            BatchLimits::new(16.0, 32.0),
        );
        assert!(p.is_none());
    }

    #[test]
    fn fixed_batch_strong_scaling() {
        let limits = BatchLimits::fixed(512.0);
        let p = optimize_goodput(&thr(), &eff(), AllocShape::local(4), limits).unwrap();
        assert!((p.total_bsz - 512.0).abs() / 512.0 < 0.01);
        // Efficiency at the fixed batch is what it is; goodput tracks
        // throughput.
        assert!((p.efficiency - eff().efficiency(512.0)).abs() < 1e-6);
    }

    #[test]
    fn level_bound_covers_every_evaluated_point() {
        // SplitMix64, so the sweep is deterministic.
        let mut state = 0x5eed_u64;
        let mut unit = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as f64 / u64::MAX as f64
        };
        let mut levels = 0;
        for case in 0..2000 {
            let t = ThroughputParams {
                alpha_c: 1e-3 + 0.5 * unit(),
                beta_c: 1e-4 + 0.05 * unit(),
                alpha_n: if case % 5 == 0 { 0.0 } else { 0.3 * unit() },
                beta_n: 0.05 * unit(),
                alpha_d: 1.0 * unit(),
                beta_d: 0.1 * unit(),
                gamma: if case % 4 == 0 {
                    1.0
                } else {
                    1.0 + 15.0 * unit()
                },
                max_local_bsz: [1.0, 16.0, 32.0, 256.0, 1024.0][case % 5],
            };
            let phi = if case % 7 == 0 { 0.0 } else { 1e4 * unit() };
            let e = EfficiencyParams::new(phi, 1.0 + 511.0 * unit());
            let k = [1, 2, 4, 8, 16, 64][case % 6];
            let shape = if case % 3 == 0 {
                AllocShape::local(k)
            } else {
                AllocShape::dist(k)
            };
            let lo = e.m0 * (0.25 + unit());
            let limits = if case % 11 == 0 {
                BatchLimits::fixed(lo)
            } else {
                BatchLimits::new(lo, lo * (1.0 + 64.0 * unit()))
            };
            let sm = t.at_shape(shape);
            assert!(level_bound_holds(&sm, &e), "{t:?} {e:?}");
            for s in 0..=MAX_ACCUM {
                let waves = s as f64 + 1.0;
                let m_lo = (limits.min_total / (sm.replicas * waves)).max(1.0);
                let m_hi = (limits.max_total / (sm.replicas * waves)).min(t.max_local_bsz);
                if m_lo > m_hi {
                    continue;
                }
                levels += 1;
                let bound = level_bound(&sm, &e, waves, m_lo, m_hi);
                assert!(bound.is_finite());
                scan_level(
                    |m| {
                        let p = goodput_at(&sm, &e, m, s);
                        assert!(
                            p.goodput <= bound * (1.0 + BOUND_SLACK),
                            "s={s} m={m}: goodput {} above bound {bound} ({t:?} {e:?} {shape:?})",
                            p.goodput
                        );
                        p
                    },
                    m_lo,
                    m_hi,
                );
            }
        }
        assert!(levels > 4000, "sweep too narrow: {levels} levels");
    }

    #[test]
    fn level_bound_not_trusted_outside_its_derivation() {
        let sm = |t: ThroughputParams| t.at_shape(AllocShape::dist(4));
        assert!(level_bound_holds(&sm(thr()), &eff()));
        let mut t = thr();
        t.alpha_c = -0.01;
        assert!(!level_bound_holds(&sm(t), &eff()));
        let mut t = thr();
        t.alpha_d = -0.1; // negative sync time
        assert!(!level_bound_holds(&sm(t), &eff()));
        let mut t = thr();
        t.beta_c = 1e-30; // T_grad^gamma underflows
        t.alpha_c = 0.0;
        t.gamma = 16.0;
        assert!(!level_bound_holds(&sm(t), &eff()));
        let mut t = thr();
        t.gamma = f64::INFINITY;
        assert!(!level_bound_holds(&sm(t), &eff()));
        let e = EfficiencyParams {
            phi: -1.0,
            m0: 128.0,
        };
        assert!(!level_bound_holds(&sm(thr()), &e));
    }

    #[test]
    fn larger_memory_gpu_reaches_higher_goodput() {
        // Same compute speed, more memory => at least as good.
        let small = thr();
        let mut big = thr();
        big.max_local_bsz = 1024.0;
        let limits = BatchLimits::new(128.0, 8192.0);
        let gs = optimize_goodput(&small, &eff(), AllocShape::local(2), limits)
            .unwrap()
            .goodput;
        let gb = optimize_goodput(&big, &eff(), AllocShape::local(2), limits)
            .unwrap()
            .goodput;
        assert!(gb >= gs * (1.0 - 1e-6));
    }
}
