//! Cache-related preemption-delay distributions.
//!
//! The paper: "D(T) was chosen randomly between 0 µs and 100 µs; the mean
//! of this distribution was chosen to be 33.3 µs" (extrapolated from the
//! cache-analysis literature \[23, 24\]). The paper does not name the
//! distribution; a uniform distribution on \[0, 100\] has mean 50, so the
//! authors must have used something right-skewed. [`CacheDelayDist::TruncExp`]
//! is the natural choice matching both the support and the mean; uniform
//! and constant variants exist for sensitivity analysis.

use rand::Rng;

/// A distribution for per-task cache-related preemption delay `D(T)` (µs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CacheDelayDist {
    /// Always the same value.
    Constant(f64),
    /// Uniform on `[lo, hi]`.
    Uniform {
        /// Lower bound (µs).
        lo: f64,
        /// Upper bound (µs).
        hi: f64,
    },
    /// Exponential truncated to `[0, max]` with the given mean — the
    /// paper-matching configuration is `TruncExp { mean: 33.3, max: 100.0 }`
    /// (see [`CacheDelayDist::paper2003`]).
    TruncExp {
        /// Desired mean of the truncated distribution (µs).
        mean: f64,
        /// Truncation point (µs).
        max: f64,
    },
}

impl CacheDelayDist {
    /// The paper's configuration: support \[0, 100\] µs, mean 33.3 µs.
    pub fn paper2003() -> Self {
        CacheDelayDist::TruncExp {
            mean: 33.3,
            max: 100.0,
        }
    }

    /// Samples one delay.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            CacheDelayDist::Constant(v) => v,
            CacheDelayDist::Uniform { lo, hi } => rng.gen_range(lo..=hi),
            CacheDelayDist::TruncExp { mean, max } => {
                trunc_exp_draw(rng, solve_trunc_exp_rate(mean, max), max)
            }
        }
    }

    /// Samples `n` delays: the same draws as `n` calls to
    /// [`sample`](Self::sample), bit for bit, but the truncated-exponential
    /// rate is solved once for the batch instead of once per draw.
    pub fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        match *self {
            CacheDelayDist::TruncExp { mean, max } => {
                let lambda = solve_trunc_exp_rate(mean, max);
                (0..n).map(|_| trunc_exp_draw(rng, lambda, max)).collect()
            }
            _ => (0..n).map(|_| self.sample(rng)).collect(),
        }
    }

    /// The distribution's exact mean (µs).
    pub fn mean(&self) -> f64 {
        match *self {
            CacheDelayDist::Constant(v) => v,
            CacheDelayDist::Uniform { lo, hi } => (lo + hi) / 2.0,
            CacheDelayDist::TruncExp { mean, .. } => mean,
        }
    }
}

/// Mean of Exp(λ) truncated to `[0, max]`:
/// `1/λ − max·e^{−λ·max}/(1 − e^{−λ·max})`.
fn trunc_exp_mean(lambda: f64, max: f64) -> f64 {
    let em = (-lambda * max).exp();
    1.0 / lambda - max * em / (1.0 - em)
}

/// Inverse-CDF draw from Exp(λ) truncated to `[0, max]`:
/// `F(x) = (1 − e^{−λx})/(1 − e^{−λ·max})`.
fn trunc_exp_draw<R: Rng + ?Sized>(rng: &mut R, lambda: f64, max: f64) -> f64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    let z = 1.0 - u * (1.0 - (-lambda * max).exp());
    (-z.ln() / lambda).clamp(0.0, max)
}

/// Solves for the rate λ giving the requested truncated mean by bisection.
/// Requires `0 < mean < max/2` (above `max/2` the truncated exponential
/// degenerates toward uniform; the paper's 33.3 < 50 is safely inside).
///
/// The bisection stops at the first step that leaves both ends unchanged:
/// the step is a pure function of `(lo, hi)`, so every later step would be
/// the same no-op, and λ has the bits the full 200 steps give.
fn solve_trunc_exp_rate(mean: f64, max: f64) -> f64 {
    assert!(
        mean > 0.0 && mean < max / 2.0,
        "mean must lie in (0, max/2)"
    );
    let (mut lo, mut hi) = (1e-9, 1e3);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        // trunc_exp_mean is decreasing in λ.
        let next = if trunc_exp_mean(mid, max) > mean {
            (mid, hi)
        } else {
            (lo, mid)
        };
        if next == (lo, hi) {
            break;
        }
        (lo, hi) = next;
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn trunc_exp_rate_solves_paper_mean() {
        let lambda = solve_trunc_exp_rate(33.3, 100.0);
        let m = trunc_exp_mean(lambda, 100.0);
        assert!((m - 33.3).abs() < 1e-6, "mean {m}");
    }

    #[test]
    fn empirical_mean_matches_paper() {
        let d = CacheDelayDist::paper2003();
        let mut rng = StdRng::seed_from_u64(1);
        let n = 200_000;
        let mean: f64 = d.sample_n(&mut rng, n).iter().sum::<f64>() / n as f64;
        assert!((mean - 33.3).abs() < 0.5, "empirical mean {mean}");
    }

    #[test]
    fn samples_respect_support() {
        let d = CacheDelayDist::paper2003();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((0.0..=100.0).contains(&x));
        }
    }

    #[test]
    fn uniform_and_constant() {
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(CacheDelayDist::Constant(7.0).sample(&mut rng), 7.0);
        assert_eq!(CacheDelayDist::Constant(7.0).mean(), 7.0);
        let u = CacheDelayDist::Uniform { lo: 10.0, hi: 20.0 };
        assert_eq!(u.mean(), 15.0);
        for _ in 0..1000 {
            let x = u.sample(&mut rng);
            assert!((10.0..=20.0).contains(&x));
        }
    }

    #[test]
    fn trunc_exp_is_right_skewed() {
        // Median well below the mean: P(X < mean) > 1/2.
        let d = CacheDelayDist::paper2003();
        let mut rng = StdRng::seed_from_u64(4);
        let below = d
            .sample_n(&mut rng, 50_000)
            .iter()
            .filter(|&&x| x < 33.3)
            .count();
        assert!(below as f64 / 50_000.0 > 0.55);
    }

    /// The bisection as it ran before it stopped early: all 200 steps.
    fn solve_trunc_exp_rate_200(mean: f64, max: f64) -> f64 {
        let (mut lo, mut hi) = (1e-9, 1e3);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if trunc_exp_mean(mid, max) > mean {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    #[test]
    fn early_stop_keeps_the_200_step_rate_bits() {
        for max in [1.0, 10.0, 50.0, 100.0, 250.0, 1_000.0, 1e5] {
            for frac in [
                1e-4, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.333, 0.4, 0.45, 0.49, 0.499,
            ] {
                let mean = frac * max;
                assert_eq!(
                    solve_trunc_exp_rate(mean, max).to_bits(),
                    solve_trunc_exp_rate_200(mean, max).to_bits(),
                    "mean {mean} max {max}"
                );
            }
        }
    }

    #[test]
    fn sample_n_matches_successive_samples() {
        let dists = [
            CacheDelayDist::paper2003(),
            CacheDelayDist::TruncExp {
                mean: 5.0,
                max: 40.0,
            },
            CacheDelayDist::Uniform { lo: 0.0, hi: 100.0 },
            CacheDelayDist::Constant(33.3),
        ];
        for (i, d) in dists.iter().enumerate() {
            for n in [0, 1, 7, 100] {
                let mut batch_rng = StdRng::seed_from_u64(40 + i as u64);
                let mut one_rng = StdRng::seed_from_u64(40 + i as u64);
                let batch = d.sample_n(&mut batch_rng, n);
                let one: Vec<f64> = (0..n).map(|_| d.sample(&mut one_rng)).collect();
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&batch), bits(&one), "{d:?} n={n}");
                // Both leave the generator in the same state.
                assert_eq!(batch_rng.next_u64(), one_rng.next_u64());
            }
        }
    }

    #[test]
    #[should_panic(expected = "mean must lie")]
    fn rejects_degenerate_mean() {
        let _ = solve_trunc_exp_rate(60.0, 100.0);
    }
}
