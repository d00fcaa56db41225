//! Arbiter noise model and its calibration against the paper's measured
//! stability statistics.
//!
//! The paper's Fig. 2 reports that, over 1,000,000 random challenges
//! evaluated 100,000 times each at 0.9 V/25 °C, 39.7 % of challenges give a
//! 100 %-stable `0` and 40.1 % a 100 %-stable `1` — i.e. ≈80 % of CRPs are
//! stable on a single arbiter PUF. Given the delay normalisation
//! `Δ ~ N(0, 1)` (see [`crate::ArbiterPuf::random`]), the stable fraction is
//! a strictly decreasing function of the noise σ, so matching 80 % pins σ
//! uniquely. [`calibrate_noise_sigma`] solves for it; the result
//! (σ ≈ 0.0575) is cached by [`NoiseModel::paper_default`].

use crate::math::{normal_cdf, normal_pdf};
use std::sync::OnceLock;

/// Number of repeated evaluations behind each soft-response measurement in
/// the paper (its on-chip counters sample each challenge 100,000 times).
pub const NOMINAL_EVALUATIONS: u64 = 100_000;

/// Fraction of single-PUF CRPs that are 100 % stable in the paper's
/// nominal-condition silicon measurements (Fig. 2: 39.7 % + 40.1 %).
pub const PAPER_STABLE_FRACTION: f64 = 0.798;

/// Probability that all `n` evaluations agree, given per-evaluation
/// `P(response = 1) = p`: `pⁿ + (1 − p)ⁿ`, computed in log space.
pub fn all_agree_probability(p: f64, n: u64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&p));
    let n_f = n as f64;
    let ones = if p > 0.0 { (n_f * p.ln()).exp() } else { 0.0 };
    let zeros = if p < 1.0 {
        (n_f * (-p).ln_1p()).exp()
    } else {
        0.0
    };
    ones + zeros
}

/// Expected fraction of stable CRPs for a single arbiter PUF with delay
/// difference `Δ ~ N(0, 1)`, noise σ `sigma`, and `n_evals` evaluations per
/// challenge:
///
/// ```text
/// ∫ φ(x) · [Φ(x/σ)ⁿ + (1 − Φ(x/σ))ⁿ] dx
/// ```
///
/// evaluated by composite Simpson quadrature over `x ∈ [−10, 10]`.
///
/// # Panics
///
/// Panics if `sigma` is not positive and finite or `n_evals` is zero.
pub fn stable_fraction(sigma: f64, n_evals: u64) -> f64 {
    assert!(
        sigma > 0.0 && sigma.is_finite(),
        "sigma must be positive and finite"
    );
    assert!(n_evals > 0, "n_evals must be positive");
    const STEPS: usize = 4_000; // even
    const LO: f64 = -10.0;
    const HI: f64 = 10.0;
    let h = (HI - LO) / STEPS as f64;
    let f = |x: f64| normal_pdf(x) * all_agree_probability(normal_cdf(x / sigma), n_evals);
    let mut acc = f(LO) + f(HI);
    for i in 1..STEPS {
        let x = LO + h * i as f64;
        acc += f(x) * if i % 2 == 1 { 4.0 } else { 2.0 };
    }
    acc * h / 3.0
}

/// Solves for the noise σ that produces `target` stable fraction under
/// `n_evals` evaluations per challenge, by bisection.
///
/// # Panics
///
/// Panics if `target` is not strictly inside `(0, 1)`.
///
/// ```
/// use puf_core::noise::{calibrate_noise_sigma, stable_fraction};
/// let sigma = calibrate_noise_sigma(0.8, 100_000);
/// assert!((stable_fraction(sigma, 100_000) - 0.8).abs() < 1e-6);
/// ```
pub fn calibrate_noise_sigma(target: f64, n_evals: u64) -> f64 {
    assert!(
        target > 0.0 && target < 1.0,
        "target stable fraction must be in (0,1)"
    );
    let (mut lo, mut hi) = (1e-6, 10.0);
    // stable_fraction is decreasing in sigma.
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if stable_fraction(mid, n_evals) > target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// The nominal-condition arbiter noise model.
///
/// Wraps the noise σ (in normalised delay units) together with the number of
/// evaluations a counter measurement performs, and provides the analytic
/// soft response.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NoiseModel {
    sigma: f64,
    evaluations: u64,
}

impl NoiseModel {
    /// Creates a noise model with an explicit σ and evaluation count.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is not positive and finite or `evaluations` is 0.
    pub fn new(sigma: f64, evaluations: u64) -> Self {
        assert!(
            sigma > 0.0 && sigma.is_finite(),
            "sigma must be positive and finite"
        );
        assert!(evaluations > 0, "evaluations must be positive");
        Self { sigma, evaluations }
    }

    /// The calibrated paper-default model: σ chosen so that
    /// [`PAPER_STABLE_FRACTION`] of single-PUF CRPs are 100 % stable over
    /// [`NOMINAL_EVALUATIONS`] evaluations. The calibration is solved once
    /// and cached for the process lifetime.
    pub fn paper_default() -> Self {
        static SIGMA: OnceLock<f64> = OnceLock::new();
        let sigma = *SIGMA
            .get_or_init(|| calibrate_noise_sigma(PAPER_STABLE_FRACTION, NOMINAL_EVALUATIONS));
        Self {
            sigma,
            evaluations: NOMINAL_EVALUATIONS,
        }
    }

    /// Noise standard deviation in normalised delay units.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Number of evaluations per counter measurement.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Analytic soft response for a delay difference: `Φ(Δ/σ)`.
    pub fn soft_response(&self, delta: f64) -> f64 {
        normal_cdf(delta / self.sigma)
    }

    /// Probability that a counter measurement of this many evaluations reads
    /// 100 %-stable for a challenge with delay difference `delta`.
    pub fn stability_probability(&self, delta: f64) -> f64 {
        all_agree_probability(self.soft_response(delta), self.evaluations)
    }

    /// Returns a copy with σ scaled by `factor` (used by the environment
    /// model for off-nominal conditions).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive and finite.
    pub fn scaled(&self, factor: f64) -> Self {
        Self::new(self.sigma * factor, self.evaluations)
    }

    /// Returns a copy with a different evaluation count.
    pub fn with_evaluations(&self, evaluations: u64) -> Self {
        Self::new(self.sigma, evaluations)
    }
}

impl Default for NoiseModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_agree_probability_extremes() {
        assert_eq!(all_agree_probability(0.0, 100), 1.0);
        assert_eq!(all_agree_probability(1.0, 100), 1.0);
        let p_half = all_agree_probability(0.5, 10);
        assert!((p_half - 2.0 * 0.5f64.powi(10)).abs() < 1e-15);
    }

    #[test]
    fn all_agree_probability_decreases_toward_half() {
        let n = 1_000;
        let a = all_agree_probability(0.001, n);
        let b = all_agree_probability(0.01, n);
        let c = all_agree_probability(0.2, n);
        assert!(a > b && b > c);
    }

    #[test]
    fn stable_fraction_monotone_decreasing_in_sigma() {
        let f1 = stable_fraction(0.01, 100_000);
        let f2 = stable_fraction(0.05, 100_000);
        let f3 = stable_fraction(0.2, 100_000);
        assert!(f1 > f2 && f2 > f3);
        assert!(f1 < 1.0 && f3 > 0.0);
    }

    #[test]
    fn calibration_hits_paper_stable_fraction() {
        let model = NoiseModel::paper_default();
        let achieved = stable_fraction(model.sigma(), model.evaluations());
        assert!(
            (achieved - PAPER_STABLE_FRACTION).abs() < 1e-6,
            "achieved {achieved}"
        );
        // Sanity: the calibrated sigma is a few percent of the delay spread.
        assert!(
            model.sigma() > 0.02 && model.sigma() < 0.15,
            "sigma = {}",
            model.sigma()
        );
    }

    #[test]
    fn stability_probability_is_symmetric_and_tail_heavy() {
        let model = NoiseModel::paper_default();
        let p_pos = model.stability_probability(1.0);
        let p_neg = model.stability_probability(-1.0);
        assert!((p_pos - p_neg).abs() < 1e-9);
        assert!(p_pos > 0.999, "|Δ| = 1 should be deeply stable: {p_pos}");
        let p_marginal = model.stability_probability(0.0);
        assert!(p_marginal < 1e-3, "Δ = 0 should be unstable: {p_marginal}");
    }

    #[test]
    fn soft_response_midpoint() {
        let model = NoiseModel::new(0.05, 1_000);
        assert!((model.soft_response(0.0) - 0.5).abs() < 1e-7);
        assert!(model.soft_response(0.5) > 0.999);
        assert!(model.soft_response(-0.5) < 0.001);
    }

    #[test]
    fn scaled_and_with_evaluations() {
        let model = NoiseModel::new(0.05, 1_000);
        assert!((model.scaled(2.0).sigma() - 0.1).abs() < 1e-15);
        assert_eq!(model.with_evaluations(5).evaluations(), 5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn new_rejects_zero_sigma() {
        NoiseModel::new(0.0, 10);
    }

    #[test]
    fn fewer_evaluations_make_more_crps_look_stable() {
        // With fewer samples a marginal CRP is more likely to agree by luck.
        let sigma = 0.0575;
        assert!(stable_fraction(sigma, 100) > stable_fraction(sigma, 100_000));
    }
}
