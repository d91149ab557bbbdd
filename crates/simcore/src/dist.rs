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
    /// Construct directly from the parameters of the underlying normal.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "sigma must be non-negative, got {sigma}");
        LogNormal { mu, sigma }
    }

    /// Fit a log-normal from the median and 95th percentile.
    ///
    /// `median` must be positive and `p95 >= median`. The median of a
    /// log-normal is `exp(mu)`, and `p95 = exp(mu + Z_95 * sigma)`.
    pub fn from_median_p95(median: f64, p95: f64) -> Self {
        assert!(median > 0.0, "median must be positive, got {median}");
        assert!(
            p95 >= median,
            "p95 ({p95}) must not be below the median ({median})"
        );
        let mu = median.ln();
        let sigma = (p95.ln() - mu) / Z_95;
        LogNormal { mu, sigma }
    }

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

    /// The quantile function (inverse CDF) at probability `p` in `(0, 1)`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..1.0).contains(&p) && p > 0.0, "p must be in (0,1)");
        (self.mu + self.sigma * inverse_standard_normal_cdf(p)).exp()
    }

    /// Draw one sample.
    pub fn sample(&self, rng: &mut Xoshiro256) -> f64 {
        (self.mu + self.sigma * rng.standard_normal()).exp()
    }
}

/// Acklam's rational approximation to the inverse standard-normal CDF.
///
/// Max absolute error ~1.15e-9 over (0,1): far below anything the simulation
/// can resolve.
pub fn inverse_standard_normal_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "p must be in (0,1), got {p}");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_quantile(samples: &mut [f64], q: f64) -> f64 {
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        samples[((samples.len() as f64 - 1.0) * q) as usize]
    }

    #[test]
    fn lognormal_median_matches_fit() {
        let ln = LogNormal::from_median_p95(0.120, 0.240);
        assert!((ln.median() - 0.120).abs() < 1e-12);
        // p95 should reproduce the input.
        assert!((ln.quantile(0.95) - 0.240).abs() < 1e-9);
    }

    #[test]
    fn lognormal_triple_fit_brackets_tails() {
        // Asymmetric triple like uploader in Table I: 184/192/405 ms.
        let ln = LogNormal::from_quantile_triple(0.184, 0.192, 0.405);
        assert!((ln.median() - 0.192).abs() < 1e-12);
        // The averaged sigma must put the fitted tails between the implied
        // one-sided fits.
        let p95 = ln.quantile(0.95);
        assert!(p95 > 0.192 && p95 < 0.405 * 1.5, "p95 {p95}");
        let p5 = ln.quantile(0.05);
        assert!(p5 < 0.192 && p5 > 0.05, "p5 {p5}");
    }

    #[test]
    fn lognormal_samples_match_quantiles() {
        let ln = LogNormal::from_median_p95(1.0, 2.0);
        let mut rng = Xoshiro256::seed_from_u64(4);
        let mut samples: Vec<f64> = (0..100_000).map(|_| ln.sample(&mut rng)).collect();
        let med = sample_quantile(&mut samples, 0.5);
        let p95 = sample_quantile(&mut samples, 0.95);
        assert!((med - 1.0).abs() < 0.02, "median {med}");
        assert!((p95 - 2.0).abs() < 0.05, "p95 {p95}");
    }

    #[test]
    fn lognormal_mean_formula() {
        let ln = LogNormal::new(0.0, 0.5);
        assert!((ln.mean() - (0.125f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn zero_sigma_lognormal_is_constant() {
        let ln = LogNormal::from_median_p95(2.0, 2.0);
        let mut rng = Xoshiro256::seed_from_u64(5);
        for _ in 0..10 {
            assert!((ln.sample(&mut rng) - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn inverse_cdf_known_points() {
        assert!(inverse_standard_normal_cdf(0.5).abs() < 1e-9);
        assert!((inverse_standard_normal_cdf(0.95) - Z_95).abs() < 1e-7);
        assert!((inverse_standard_normal_cdf(0.05) + Z_95).abs() < 1e-7);
        // Deep tail should be monotone and finite.
        let q = inverse_standard_normal_cdf(1e-6);
        assert!(q < -4.0 && q.is_finite());
    }

    #[test]
    #[should_panic(expected = "median must be positive")]
    fn lognormal_rejects_zero_median() {
        LogNormal::from_median_p95(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "must not be below")]
    fn lognormal_rejects_inverted_quantiles() {
        LogNormal::from_median_p95(2.0, 1.0);
    }
}
