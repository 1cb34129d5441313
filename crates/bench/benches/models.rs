//! Criterion microbenchmarks of the performance-model hot paths: goodput
//! optimization (called `|jobs| x |configs|` times per scheduling round) and
//! online throughput-model fitting (called per executor report).

use criterion::{criterion_group, criterion_main, Criterion};
use sia_models::{
    fit_throughput, optimize_goodput, AllocShape, BatchLimits, EfficiencyParams, FitSample,
    ThroughputParams,
};

fn params() -> ThroughputParams {
    ThroughputParams {
        alpha_c: 0.05,
        beta_c: 0.002,
        alpha_n: 0.02,
        beta_n: 0.005,
        alpha_d: 0.1,
        beta_d: 0.02,
        gamma: 2.5,
        max_local_bsz: 256.0,
    }
}

fn bench_models(c: &mut Criterion) {
    let p = params();
    let eff = EfficiencyParams::new(2000.0, 128.0);
    let limits = BatchLimits::new(128.0, 8192.0);

    c.bench_function("optimize_goodput_single", |b| {
        b.iter(|| optimize_goodput(&p, &eff, AllocShape::single(), limits))
    });
    c.bench_function("optimize_goodput_dist16", |b| {
        b.iter(|| optimize_goodput(&p, &eff, AllocShape::dist(16), limits))
    });
    // Memory-bound: no accumulation level reaches the maximum batch, so all
    // 16 levels are in play.
    let mem32 = ThroughputParams {
        max_local_bsz: 32.0,
        ..params()
    };
    c.bench_function("optimize_goodput_mem32", |b| {
        b.iter(|| optimize_goodput(&mem32, &eff, AllocShape::single(), limits))
    });

    let samples: Vec<FitSample> = [1usize, 2, 4, 8]
        .iter()
        .flat_map(|&k| {
            [32.0, 64.0, 128.0].iter().map(move |&m| {
                let shape = if k == 1 {
                    AllocShape::single()
                } else {
                    AllocShape::local(k)
                };
                FitSample {
                    shape,
                    local_bsz: m,
                    accum_steps: 0,
                    iter_time: params().t_iter(shape, m, 0),
                }
            })
        })
        .collect();
    let seed = params();
    c.bench_function("fit_throughput_12_samples", |b| {
        b.iter(|| fit_throughput(&seed, &samples))
    });
}

criterion_group!(benches, bench_models);
criterion_main!(benches);
