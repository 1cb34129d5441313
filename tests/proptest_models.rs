//! Property-based tests for the performance models.

use proptest::prelude::*;
use sia::models::{
    fit_throughput, nelder_mead, optimize_goodput, AllocShape, BatchLimits, EfficiencyParams,
    FitSample, GoodputPoint, ThroughputParams,
};

fn arb_params() -> impl Strategy<Value = ThroughputParams> {
    // Marginal sync costs (`beta_*`) are kept a modest fraction of the base
    // costs (`alpha_*`), matching real all-reduce behaviour (and the model
    // zoo's 10-15% ratios). With adversarial `beta >> alpha` the model
    // legitimately predicts *decreasing* throughput in replicas, which
    // would invalidate the monotonicity property below.
    (
        0.001f64..0.5,   // alpha_c
        0.0001f64..0.05, // beta_c
        0.001f64..0.3,   // alpha_n
        0.0f64..0.3,     // beta_n fraction of alpha_n
        0.0f64..1.0,     // alpha_d extra over alpha_n
        0.0f64..0.3,     // beta_d fraction of alpha_d
        1.0f64..6.0,     // gamma
        16.0f64..1024.0, // max_local_bsz
    )
        .prop_map(
            |(alpha_c, beta_c, alpha_n, bn_frac, alpha_d_extra, bd_frac, gamma, max_local_bsz)| {
                let alpha_d = alpha_n + alpha_d_extra; // distributed >= local
                ThroughputParams {
                    alpha_c,
                    beta_c,
                    alpha_n,
                    beta_n: bn_frac * alpha_n,
                    alpha_d,
                    beta_d: (bd_frac * alpha_d).max(bn_frac * alpha_n),
                    gamma,
                    max_local_bsz: max_local_bsz.floor(),
                }
            },
        )
}

fn arb_eff() -> impl Strategy<Value = EfficiencyParams> {
    (1.0f64..10_000.0, 1.0f64..512.0).prop_map(|(phi, m0)| EfficiencyParams::new(phi, m0))
}

// ---------------------------------------------------------------------------
// Reference copies of the unpruned optimizer, the per-call iteration-time
// formula and the per-sample fitting loss. The production kernels must match
// them bit for bit.
// ---------------------------------------------------------------------------

fn ref_t_iter(p: &ThroughputParams, shape: AllocShape, m: f64, accum_steps: u32) -> f64 {
    let tg = p.alpha_c + p.beta_c * m;
    let ts = p.t_sync(shape);
    let g = p.gamma.max(1.0);
    let overlap = (tg.powf(g) + ts.powf(g)).powf(1.0 / g);
    accum_steps as f64 * tg + overlap
}

fn ref_throughput(p: &ThroughputParams, shape: AllocShape, m: f64, accum_steps: u32) -> f64 {
    let total_batch = shape.replicas as f64 * m * (accum_steps as f64 + 1.0);
    total_batch / ref_t_iter(p, shape, m, accum_steps)
}

/// The goodput optimizer scanning every accumulation level.
fn ref_optimize_goodput(
    thr: &ThroughputParams,
    eff: &EfficiencyParams,
    shape: AllocShape,
    limits: BatchLimits,
) -> Option<GoodputPoint> {
    const MAX_ACCUM: u32 = 15;
    const GRID: usize = 12;
    const REFINE_ITERS: usize = 14;
    let k = shape.replicas as f64;
    let eval = |m: f64, s: u32| -> GoodputPoint {
        let waves = s as f64 + 1.0;
        let total = k * m * waves;
        let throughput = ref_throughput(thr, shape, m, s);
        let efficiency = eff.efficiency(total);
        GoodputPoint {
            goodput: throughput * efficiency,
            throughput,
            efficiency,
            local_bsz: m,
            accum_steps: s,
            total_bsz: total,
        }
    };
    let mut best: Option<GoodputPoint> = None;
    let mut had_unbound_level = false;
    for s in 0..=MAX_ACCUM {
        let waves = s as f64 + 1.0;
        let m_lo = (limits.min_total / (k * waves)).max(1.0);
        let m_hi = (limits.max_total / (k * waves)).min(thr.max_local_bsz);
        if m_lo > m_hi {
            continue;
        }
        if had_unbound_level {
            break;
        }
        if limits.max_total / (k * waves) <= thr.max_local_bsz {
            had_unbound_level = true;
        }
        let ratio = m_hi / m_lo;
        let mut best_here: Option<GoodputPoint> = None;
        for g in 0..GRID {
            let frac = g as f64 / (GRID - 1) as f64;
            let p = eval(m_lo * ratio.powf(frac), s);
            if best_here.map(|b| p.goodput > b.goodput).unwrap_or(true) {
                best_here = Some(p);
            }
        }
        if let Some(bh) = best_here {
            let step = ratio.powf(1.0 / (GRID - 1) as f64);
            let mut a = (bh.local_bsz / step).max(m_lo);
            let mut b = (bh.local_bsz * step).min(m_hi);
            let phi = 0.618_033_988_749_894_9;
            for _ in 0..REFINE_ITERS {
                let x1 = b - phi * (b - a);
                let x2 = a + phi * (b - a);
                if eval(x1, s).goodput < eval(x2, s).goodput {
                    a = x1;
                } else {
                    b = x2;
                }
            }
            let refined = eval(0.5 * (a + b), s);
            let candidate = if refined.goodput > bh.goodput {
                refined
            } else {
                bh
            };
            if best.map(|b| candidate.goodput > b.goodput).unwrap_or(true) {
                best = Some(candidate);
            }
        }
    }
    best
}

/// The throughput fit with the per-sample loss: every sample's shape terms
/// and observed log time recomputed on every loss evaluation.
fn ref_fit_throughput(seed: &ThroughputParams, samples: &[FitSample]) -> ThroughputParams {
    let encode = |p: &ThroughputParams| {
        [
            p.alpha_c.max(1e-6).ln(),
            p.beta_c.max(1e-9).ln(),
            p.alpha_n.max(1e-6).ln(),
            p.beta_n.max(1e-9).ln(),
            p.alpha_d.max(1e-6).ln(),
            p.beta_d.max(1e-9).ln(),
            (p.gamma - 1.0).max(1e-6).ln(),
        ]
    };
    let decode = |z: &[f64]| ThroughputParams {
        alpha_c: z[0].exp(),
        beta_c: z[1].exp(),
        alpha_n: z[2].exp(),
        beta_n: z[3].exp(),
        alpha_d: z[4].exp(),
        beta_d: z[5].exp(),
        gamma: 1.0 + z[6].exp().min(15.0),
        max_local_bsz: seed.max_local_bsz,
    };
    if samples.is_empty() {
        return *seed;
    }
    let z0 = encode(seed);
    let prior = z0;
    let prior_w = 0.05 / (1.0 + samples.len() as f64);
    let loss = |z: &[f64]| -> f64 {
        let p = decode(z);
        let mut l = 0.0;
        for s in samples {
            let pred = ref_t_iter(&p, s.shape, s.local_bsz, s.accum_steps).max(1e-9);
            let d = (pred.ln() - s.iter_time.max(1e-9).ln()).powi(2);
            l += d;
        }
        l /= samples.len() as f64;
        for (zi, pi) in z.iter().zip(&prior) {
            l += prior_w * (zi - pi).powi(2);
        }
        l
    };
    let z = nelder_mead(loss, &z0, 0.8, 900);
    let z = nelder_mead(loss, &z, 0.1, 500);
    decode(&z)
}

fn point_bits(p: &Option<GoodputPoint>) -> Option<(u64, u64, u64, u64, u64, u32)> {
    p.map(|p| {
        (
            p.goodput.to_bits(),
            p.throughput.to_bits(),
            p.efficiency.to_bits(),
            p.local_bsz.to_bits(),
            p.total_bsz.to_bits(),
            p.accum_steps,
        )
    })
}

fn params_bits(p: &ThroughputParams) -> [u64; 8] {
    [
        p.alpha_c,
        p.beta_c,
        p.alpha_n,
        p.beta_n,
        p.alpha_d,
        p.beta_d,
        p.gamma,
        p.max_local_bsz,
    ]
    .map(f64::to_bits)
}

/// Throughput parameters over a wide range with the edge values drawn often:
/// `gamma = 1`, `alpha_n = 0`, and `max_local_bsz` of 1, 16 or 32.
fn arb_wide_params() -> impl Strategy<Value = ThroughputParams> {
    (
        (1e-4f64..1.0, 1e-5f64..0.1),
        (0u8..4, 0.0f64..0.5, 0.0f64..0.1),
        (0.0f64..2.0, 0.0f64..0.2),
        (0u8..4, 1.0f64..16.0),
        (0u8..6, 1.0f64..2048.0),
    )
        .prop_map(
            |(
                (alpha_c, beta_c),
                (an_pick, an, beta_n),
                (alpha_d, beta_d),
                (g_pick, g),
                (mem_pick, mem),
            )| {
                ThroughputParams {
                    alpha_c,
                    beta_c,
                    alpha_n: if an_pick == 0 { 0.0 } else { an },
                    beta_n,
                    alpha_d,
                    beta_d,
                    gamma: if g_pick == 0 { 1.0 } else { g },
                    max_local_bsz: match mem_pick {
                        0 => 1.0,
                        1 => 16.0,
                        2 => 32.0,
                        _ => mem.floor(),
                    },
                }
            },
        )
}

/// Efficiency parameters with `phi = 0` drawn often.
fn arb_wide_eff() -> impl Strategy<Value = EfficiencyParams> {
    (0u8..4, 0.0f64..1e5, 1.0f64..1024.0)
        .prop_map(|(pick, phi, m0)| EfficiencyParams::new(if pick == 0 { 0.0 } else { phi }, m0))
}

/// Local or distributed shapes with up to 64 replicas.
fn arb_shape() -> impl Strategy<Value = AllocShape> {
    (1usize..=64, 0u8..2).prop_map(|(k, dist)| {
        if k == 1 {
            AllocShape::single()
        } else if dist == 0 {
            AllocShape::local(k)
        } else {
            AllocShape::dist(k)
        }
    })
}

/// Batch limits around `m0`, fixed (`BatchLimits::fixed`) a quarter of the
/// time.
fn arb_limits(m0: f64) -> impl Strategy<Value = BatchLimits> {
    (0u8..4, 0.1f64..4.0, 1.0f64..128.0).prop_map(move |(pick, lo, span)| {
        let lo = m0 * lo;
        if pick == 0 {
            BatchLimits::fixed(lo)
        } else {
            BatchLimits::new(lo, lo * span)
        }
    })
}

fn arb_sample() -> impl Strategy<Value = FitSample> {
    (arb_shape(), 1.0f64..512.0, 0u32..4, 1e-3f64..20.0).prop_map(
        |(shape, local_bsz, accum_steps, iter_time)| FitSample {
            shape,
            local_bsz,
            accum_steps,
            iter_time,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    /// The level-bound pruning never changes the optimizer's answer.
    #[test]
    fn optimizer_matches_unpruned_reference(
        p in arb_wide_params(),
        (e, limits) in arb_wide_eff().prop_flat_map(|e| (Just(e), arb_limits(e.m0))),
        shape in arb_shape(),
    ) {
        let got = optimize_goodput(&p, &e, shape, limits);
        let want = ref_optimize_goodput(&p, &e, shape, limits);
        prop_assert_eq!(point_bits(&got), point_bits(&want),
            "{:?} {:?} {:?} {:?}: {:?} vs {:?}", p, e, shape, limits, got, want);
    }

    /// The shape kernel evaluates the iteration-time formula exactly as the
    /// per-call form does.
    #[test]
    fn shape_model_matches_per_call_formula(
        p in arb_wide_params(),
        shape in arb_shape(),
        m in 1.0f64..4096.0,
        s in 0u32..16,
    ) {
        let sm = p.at_shape(shape);
        prop_assert_eq!(sm.t_iter(m, s).to_bits(), ref_t_iter(&p, shape, m, s).to_bits());
        prop_assert_eq!(p.t_iter(shape, m, s).to_bits(), ref_t_iter(&p, shape, m, s).to_bits());
        prop_assert_eq!(
            p.throughput(shape, m, s).to_bits(),
            ref_throughput(&p, shape, m, s).to_bits()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Hoisting the shape terms and the observed log times out of the loss
    /// leaves the fitted parameters unchanged.
    #[test]
    fn fit_matches_per_sample_loss(
        seed in arb_wide_params(),
        samples in proptest::collection::vec(arb_sample(), 1..20),
    ) {
        prop_assert_eq!(
            params_bits(&fit_throughput(&seed, &samples)),
            params_bits(&ref_fit_throughput(&seed, &samples))
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Iteration time is positive and increases with batch size.
    #[test]
    fn iter_time_positive_and_monotone(p in arb_params(), m in 1.0f64..512.0) {
        for shape in [AllocShape::single(), AllocShape::local(4), AllocShape::dist(8)] {
            let t1 = p.t_iter(shape, m, 0);
            let t2 = p.t_iter(shape, m * 2.0, 0);
            prop_assert!(t1 > 0.0);
            prop_assert!(t2 > t1);
        }
    }

    /// Throughput never scales superlinearly with replicas at fixed per-GPU
    /// batch.
    #[test]
    fn no_superlinear_scaling(p in arb_params(), m in 1.0f64..256.0, k in 2usize..32) {
        let t1 = p.throughput(AllocShape::single(), m, 0);
        let tk = p.throughput(AllocShape::dist(k), m, 0);
        prop_assert!(tk <= k as f64 * t1 * (1.0 + 1e-9));
        prop_assert!(tk > 0.0);
    }

    /// Statistical efficiency lies in (0, 1] and is non-increasing in M.
    #[test]
    fn efficiency_bounded_monotone(e in arb_eff(), m in 1.0f64..100_000.0) {
        let v = e.efficiency(m);
        prop_assert!(v > 0.0 && v <= 1.0);
        prop_assert!(e.efficiency(m * 1.5) <= v + 1e-12);
    }

    /// The goodput optimizer returns points within limits, consistent
    /// goodput = throughput * efficiency, and never worse than the
    /// mid-range naive point.
    #[test]
    fn optimizer_feasible_and_dominant(
        p in arb_params(),
        e in arb_eff(),
        k in 1usize..16,
    ) {
        let min_total = e.m0;
        let max_total = e.m0 * 32.0;
        let limits = BatchLimits::new(min_total, max_total);
        let shape = if k == 1 { AllocShape::single() } else { AllocShape::dist(k) };
        if let Some(pt) = optimize_goodput(&p, &e, shape, limits) {
            prop_assert!(pt.total_bsz >= min_total * (1.0 - 1e-6));
            prop_assert!(pt.total_bsz <= max_total * (1.0 + 1e-6));
            prop_assert!(pt.local_bsz <= p.max_local_bsz * (1.0 + 1e-6));
            prop_assert!((pt.goodput - pt.throughput * pt.efficiency).abs()
                <= 1e-9 * pt.goodput.max(1.0));
            // Compare against a naive feasible point at the minimum batch,
            // if one exists without accumulation.
            let m_naive = min_total / k as f64;
            if m_naive >= 1.0 && m_naive <= p.max_local_bsz {
                let naive = p.throughput(shape, m_naive, 0) * e.efficiency(min_total);
                prop_assert!(pt.goodput >= naive * (1.0 - 1e-6),
                    "optimizer {} worse than naive {}", pt.goodput, naive);
            }
        }
    }

    /// Co-located replicas are never slower than the same number of
    /// replicas spread across nodes (intra-node sync <= inter-node sync by
    /// construction).
    #[test]
    fn local_dominates_distributed(p in arb_params(), e in arb_eff(), k in 2usize..16) {
        let limits = BatchLimits::new(e.m0, e.m0 * 64.0);
        let local = optimize_goodput(&p, &e, AllocShape::local(k), limits);
        let dist = optimize_goodput(&p, &e, AllocShape::dist(k), limits);
        if let (Some(l), Some(d)) = (local, dist) {
            prop_assert!(l.goodput >= d.goodput * (1.0 - 1e-6),
                "k={k}: local {} < dist {}", l.goodput, d.goodput);
        }
    }

    /// Within one placement family, the optimizer's goodput never decreases
    /// when sync costs are scaled *down* uniformly.
    #[test]
    fn cheaper_sync_never_hurts(p in arb_params(), e in arb_eff(), k in 2usize..16) {
        let limits = BatchLimits::new(e.m0, e.m0 * 64.0);
        let mut cheap = p;
        cheap.alpha_d *= 0.5;
        cheap.beta_d *= 0.5;
        let base = optimize_goodput(&p, &e, AllocShape::dist(k), limits);
        let better = optimize_goodput(&cheap, &e, AllocShape::dist(k), limits);
        if let (Some(b), Some(c)) = (base, better) {
            prop_assert!(c.goodput >= b.goodput * (1.0 - 1e-6));
        }
    }
}

#[test]
fn restart_factor_of_eq3_is_in_unit_interval() {
    // Deterministic spot checks of the Eq. 3 algebra used by JobView.
    for (t, n, s) in [(0.0, 0, 25.0), (100.0, 3, 250.0), (1e6, 100, 90.0)] {
        let r = (t + n as f64 * s) / (t + (n as f64 + 1.0) * s);
        assert!((0.0..=1.0).contains(&r));
    }
}
