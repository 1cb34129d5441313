//! Distribution sampling helpers shared by event sources: failure
//! injection and churn generators draw exact inter-arrival gaps of a
//! Poisson process with [`exp_sample`].

use rand::Rng;

/// An exponential inter-arrival gap with rate `lambda` (events per unit
/// time). Returns `f64::INFINITY` when `lambda <= 0` (no arrivals).
pub fn exp_sample<R: Rng>(rng: &mut R, lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return f64::INFINITY;
    }
    let u: f64 = rng.random(); // uniform in [0, 1)
    -(1.0 - u).ln() / lambda
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn exp_sample_matches_rate() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let lambda = 0.25;
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| exp_sample(&mut rng, lambda)).sum::<f64>() / n as f64;
        assert!(
            (mean - 1.0 / lambda).abs() < 0.1 / lambda,
            "mean {mean} far from {}",
            1.0 / lambda
        );
        assert_eq!(exp_sample(&mut rng, 0.0), f64::INFINITY);
        assert_eq!(exp_sample(&mut rng, -1.0), f64::INFINITY);
    }
}
