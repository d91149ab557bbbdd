//! The service-time distribution.
//!
//! The paper characterises each SeBS function by the 5th percentile, median
//! and 95th percentile of its idle-system response time (Table I). We model
//! per-call processing times with a log-normal distribution fitted to that
//! triple: the log-normal is the standard heavy-tailed model for service
//! times, is fully determined by two of the three published quantiles, and
//! lets the third act as a fit sanity check.

use crate::rng::Xoshiro256;
use serde::{Deserialize, Serialize};

/// z-score of the 95th percentile of the standard normal (and, negated, of
/// the 5th percentile).
pub const Z_95: f64 = 1.6448536269514722;

/// Log-normal distribution parameterised by the mean (`mu`) and standard
/// deviation (`sigma`) of the underlying normal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogNormal {
    /// Mean of `ln X`.
    pub mu: f64,
    /// Standard deviation of `ln X`; non-negative.
    pub sigma: f64,
}

impl LogNormal {
    /// Fit a log-normal from the (5th percentile, median, 95th percentile)
    /// triple published in the paper's Table I.
    ///
    /// A two-parameter distribution cannot match all three quantiles exactly;
    /// we take `mu = ln(median)` (exact median match) and average the sigma
    /// implied by each tail quantile, which splits the asymmetry of the
    /// published triple evenly.
    pub fn from_quantile_triple(p5: f64, median: f64, p95: f64) -> Self {
        assert!(
            p5 > 0.0 && median >= p5 && p95 >= median,
            "quantiles must be ordered and positive: {p5}, {median}, {p95}"
        );
        let mu = median.ln();
        let sigma_hi = (p95.ln() - mu) / Z_95;
        let sigma_lo = (mu - p5.ln()) / Z_95;
        LogNormal {
            mu,
            sigma: 0.5 * (sigma_hi + sigma_lo),
        }
    }

    /// The median, `exp(mu)`.
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }

    /// The analytic mean, `exp(mu + sigma^2 / 2)`.
    pub fn mean(&self) -> f64 {
        (self.mu + 0.5 * self.sigma * self.sigma).exp()
    }

    /// Draw one sample.
    pub fn sample(&self, rng: &mut Xoshiro256) -> f64 {
        (self.mu + self.sigma * rng.standard_normal()).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_quantile(samples: &mut [f64], q: f64) -> f64 {
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        samples[((samples.len() as f64 - 1.0) * q) as usize]
    }

    /// The analytic quantile at the standard-normal score `z`.
    fn quantile_at(ln: &LogNormal, z: f64) -> f64 {
        (ln.mu + ln.sigma * z).exp()
    }

    #[test]
    fn lognormal_triple_fit_brackets_tails() {
        // Asymmetric triple like uploader in Table I: 184/192/405 ms.
        let ln = LogNormal::from_quantile_triple(0.184, 0.192, 0.405);
        assert!((ln.median() - 0.192).abs() < 1e-12);
        // The averaged sigma must put the fitted tails between the implied
        // one-sided fits.
        let p95 = quantile_at(&ln, Z_95);
        assert!(p95 > 0.192 && p95 < 0.405 * 1.5, "p95 {p95}");
        let p5 = quantile_at(&ln, -Z_95);
        assert!(p5 < 0.192 && p5 > 0.05, "p5 {p5}");
    }

    #[test]
    fn lognormal_samples_match_quantiles() {
        // A symmetric triple fits both tails exactly.
        let ln = LogNormal::from_quantile_triple(0.5, 1.0, 2.0);
        assert!((quantile_at(&ln, Z_95) - 2.0).abs() < 1e-12);
        let mut rng = Xoshiro256::seed_from_u64(4);
        let mut samples: Vec<f64> = (0..100_000).map(|_| ln.sample(&mut rng)).collect();
        let med = sample_quantile(&mut samples, 0.5);
        let p95 = sample_quantile(&mut samples, 0.95);
        assert!((med - 1.0).abs() < 0.02, "median {med}");
        assert!((p95 - 2.0).abs() < 0.05, "p95 {p95}");
    }

    #[test]
    fn lognormal_mean_formula() {
        let ln = LogNormal {
            mu: 0.0,
            sigma: 0.5,
        };
        assert!((ln.mean() - (0.125f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn zero_sigma_lognormal_is_constant() {
        let ln = LogNormal::from_quantile_triple(2.0, 2.0, 2.0);
        let mut rng = Xoshiro256::seed_from_u64(5);
        for _ in 0..10 {
            assert!((ln.sample(&mut rng) - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "quantiles must be ordered and positive")]
    fn lognormal_rejects_zero_median() {
        LogNormal::from_quantile_triple(0.0, 0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "quantiles must be ordered and positive")]
    fn lognormal_rejects_inverted_quantiles() {
        LogNormal::from_quantile_triple(0.5, 2.0, 1.0);
    }
}
