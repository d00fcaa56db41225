//! The linear additive delay model of a single MUX arbiter PUF.

use crate::challenge::{Challenge, FeatureVector};
use crate::math::normal_cdf;
use crate::rngx;
use crate::{PufError, MAX_STAGES};
use rand::Rng;

/// A `k`-stage MUX arbiter PUF under the linear additive delay model.
///
/// The PUF is fully described by its weight vector `w ∈ ℝ^{k+1}`: entry `i`
/// is the accumulated delay-difference contribution of stage `i` and the
/// last entry is the arbiter/bias offset. For a challenge `c` the delay
/// difference between the two racing signal paths is `Δ(c) = w · φ(c)`
/// (see [`Challenge::features`]); the arbiter outputs `1` iff the top path
/// wins, i.e. iff `Δ(c) + ε > 0` for thermal noise `ε`.
///
/// [`ArbiterPuf::random`] draws weights i.i.d. `N(0, 1/(k+1))`, normalising
/// the challenge-population delay difference to `Δ ~ N(0, 1)`; every σ in
/// this workspace (noise, V/T sensitivity, thresholds) is expressed in these
/// normalised delay units.
///
/// ```
/// use puf_core::{ArbiterPuf, Challenge};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let puf = ArbiterPuf::random(32, &mut rng);
/// let c = Challenge::random(32, &mut rng);
/// // Noiseless responses are deterministic.
/// assert_eq!(puf.response(&c), puf.response(&c));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct ArbiterPuf {
    weights: Vec<f64>,
}

impl ArbiterPuf {
    /// Creates a PUF from an explicit weight vector of length `stages + 1`.
    ///
    /// # Errors
    ///
    /// Returns [`PufError::InvalidStageCount`] if the implied stage count is
    /// 0 or exceeds [`MAX_STAGES`], and [`PufError::InvalidParameter`] if
    /// any weight is non-finite.
    pub fn from_weights(weights: Vec<f64>) -> Result<Self, PufError> {
        let stages = weights.len().saturating_sub(1);
        if stages == 0 || stages > MAX_STAGES {
            return Err(PufError::InvalidStageCount { stages });
        }
        if weights.iter().any(|w| !w.is_finite()) {
            return Err(PufError::InvalidParameter {
                name: "weights",
                constraint: "all weights must be finite",
            });
        }
        Ok(Self { weights })
    }

    /// Draws a PUF with process variation `wᵢ ~ N(0, 1/(stages+1))`.
    ///
    /// This normalisation makes the delay difference over random challenges
    /// approximately standard normal, so noise σ and threshold values are
    /// comparable across stage counts.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is 0 or exceeds [`MAX_STAGES`].
    pub fn random<R: Rng + ?Sized>(stages: usize, rng: &mut R) -> Self {
        assert!(
            (1..=MAX_STAGES).contains(&stages),
            "stages must be 1..={MAX_STAGES}, got {stages}"
        );
        let sigma = (1.0 / (stages as f64 + 1.0)).sqrt();
        let mut weights = vec![0.0; stages + 1];
        rngx::fill_normal(rng, sigma, &mut weights);
        Self { weights }
    }

    /// Number of delay stages.
    pub fn stages(&self) -> usize {
        self.weights.len() - 1
    }

    /// The weight vector (length `stages + 1`).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Euclidean norm of the weight vector — the standard deviation of the
    /// delay difference over uniformly random challenges.
    pub fn weight_norm(&self) -> f64 {
        self.weights.iter().map(|w| w * w).sum::<f64>().sqrt()
    }

    /// Delay difference `Δ(c) = w · φ(c)`.
    ///
    /// # Panics
    ///
    /// Panics if the challenge stage count differs from the PUF's; use
    /// [`ArbiterPuf::try_delay_difference`] for a fallible variant.
    pub fn delay_difference(&self, challenge: &Challenge) -> f64 {
        self.try_delay_difference(challenge)
            // puf-lint: allow(L4): documented panicking variant; try_delay_difference is the fallible API
            .expect("challenge/PUF stage mismatch")
    }

    /// Fallible variant of [`ArbiterPuf::delay_difference`].
    ///
    /// # Errors
    ///
    /// Returns [`PufError::StageMismatch`] if the challenge stage count
    /// differs from the PUF's.
    pub fn try_delay_difference(&self, challenge: &Challenge) -> Result<f64, PufError> {
        if challenge.stages() != self.stages() {
            return Err(PufError::StageMismatch {
                expected: self.stages(),
                actual: challenge.stages(),
            });
        }
        Ok(self.delay_difference_from_features(&challenge.features()))
    }

    /// Delay difference from a pre-computed feature vector. Useful in hot
    /// loops where the same `φ(c)` is applied to many PUFs (an XOR bank).
    ///
    /// # Panics
    ///
    /// Panics if the feature length differs from `stages + 1`.
    pub fn delay_difference_from_features(&self, features: &FeatureVector) -> f64 {
        features.dot(&self.weights)
    }

    /// Noiseless (infinite-margin) response: `Δ(c) > 0`.
    ///
    /// # Panics
    ///
    /// Panics on a stage mismatch.
    pub fn response(&self, challenge: &Challenge) -> bool {
        self.delay_difference(challenge) > 0.0
    }

    /// One noisy evaluation: `Δ(c) + ε > 0` with `ε ~ N(0, sigma_noise²)`.
    ///
    /// # Panics
    ///
    /// Panics on a stage mismatch or a negative/non-finite `sigma_noise`.
    pub fn eval_noisy<R: Rng + ?Sized>(
        &self,
        challenge: &Challenge,
        sigma_noise: f64,
        rng: &mut R,
    ) -> bool {
        self.delay_difference(challenge) + rngx::normal(rng, 0.0, sigma_noise) > 0.0
    }

    /// Analytic soft response `Pr(response = 1) = Φ(Δ(c)/σ)`.
    ///
    /// With `sigma_noise == 0` this degenerates to the noiseless hard
    /// response (0.0 or 1.0).
    ///
    /// # Panics
    ///
    /// Panics on a stage mismatch or a negative/non-finite `sigma_noise`.
    pub fn soft_response(&self, challenge: &Challenge, sigma_noise: f64) -> f64 {
        assert!(
            sigma_noise >= 0.0 && sigma_noise.is_finite(),
            "sigma_noise must be finite and non-negative"
        );
        let delta = self.delay_difference(challenge);
        if sigma_noise == 0.0 {
            return if delta > 0.0 { 1.0 } else { 0.0 };
        }
        normal_cdf(delta / sigma_noise)
    }

    /// Returns a copy of this PUF with every weight transformed by `f`,
    /// used by the environment model to derive condition-specific weights.
    pub fn map_weights<F: FnMut(usize, f64) -> f64>(&self, mut f: F) -> Self {
        let weights = self
            .weights
            .iter()
            .enumerate()
            .map(|(i, &w)| f(i, w))
            .collect();
        Self { weights }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixed_puf() -> ArbiterPuf {
        ArbiterPuf::from_weights(vec![0.5, -0.25, 1.0]).unwrap()
    }

    #[test]
    fn from_weights_validation() {
        assert!(matches!(
            ArbiterPuf::from_weights(vec![1.0]),
            Err(PufError::InvalidStageCount { .. })
        ));
        assert!(matches!(
            ArbiterPuf::from_weights(vec![1.0, f64::NAN]),
            Err(PufError::InvalidParameter { .. })
        ));
        assert!(ArbiterPuf::from_weights(vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn delay_difference_hand_computed() {
        // stages = 2, weights = [0.5, -0.25, 1.0].
        // Challenge bits 00: φ = [1, 1, 1]   → Δ = 1.25
        // Challenge bits 10: φ = [-1, -1, 1] → Δ = 0.75
        // Challenge bits 01: φ = [-1, 1, 1]  → Δ = 0.25
        let puf = fixed_puf();
        let cases = [(0b00u128, 1.25), (0b10, 0.75), (0b01, 0.25)];
        for (bits, want) in cases {
            let c = Challenge::from_bits(bits, 2).unwrap();
            assert!(
                (puf.delay_difference(&c) - want).abs() < 1e-12,
                "bits {bits:b}"
            );
        }
    }

    #[test]
    fn stage_mismatch_is_reported() {
        let puf = fixed_puf();
        let c = Challenge::zero(3);
        assert_eq!(
            puf.try_delay_difference(&c),
            Err(PufError::StageMismatch {
                expected: 2,
                actual: 3
            })
        );
    }

    #[test]
    fn soft_response_limits() {
        let puf = fixed_puf();
        let c = Challenge::zero(2); // Δ = 1.25 > 0
        assert_eq!(puf.soft_response(&c, 0.0), 1.0);
        assert!((puf.soft_response(&c, 1e-6) - 1.0).abs() < 1e-12);
        assert!((puf.soft_response(&c, 1e9) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn random_puf_delta_is_roughly_standard_normal() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut norms = Vec::new();
        for _ in 0..200 {
            norms.push(ArbiterPuf::random(32, &mut rng).weight_norm());
        }
        let mean_norm = crate::math::mean(&norms);
        // E[||w||] for 33 dims with variance 1/33 is just under 1.
        assert!(
            (mean_norm - 1.0).abs() < 0.1,
            "mean weight norm {mean_norm}"
        );
    }

    #[test]
    fn noisy_eval_flip_rate_matches_soft_response() {
        let mut rng = StdRng::seed_from_u64(6);
        let puf = ArbiterPuf::from_weights(vec![0.0, 0.05]).unwrap();
        let c = Challenge::zero(1); // Δ = 0.05
        let sigma = 0.1;
        let p_analytic = puf.soft_response(&c, sigma);
        let n = 50_000;
        let ones = (0..n)
            .filter(|_| puf.eval_noisy(&c, sigma, &mut rng))
            .count() as f64;
        let p_emp = ones / n as f64;
        assert!(
            (p_emp - p_analytic).abs() < 0.01,
            "empirical {p_emp} vs analytic {p_analytic}"
        );
    }

    #[test]
    fn map_weights_applies_transform() {
        let puf = fixed_puf();
        let doubled = puf.map_weights(|_, w| 2.0 * w);
        assert_eq!(doubled.weights(), &[1.0, -0.5, 2.0]);
    }

    proptest! {
        #[test]
        fn prop_response_is_sign_of_delta(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let puf = ArbiterPuf::random(32, &mut rng);
            let c = Challenge::random(32, &mut rng);
            prop_assert_eq!(puf.response(&c), puf.delay_difference(&c) > 0.0);
        }

        #[test]
        fn prop_soft_response_monotone_in_delta(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let puf = ArbiterPuf::random(16, &mut rng);
            let c1 = Challenge::random(16, &mut rng);
            let c2 = Challenge::random(16, &mut rng);
            let (d1, d2) = (puf.delay_difference(&c1), puf.delay_difference(&c2));
            let (s1, s2) = (puf.soft_response(&c1, 0.05), puf.soft_response(&c2, 0.05));
            if d1 < d2 {
                prop_assert!(s1 <= s2);
            } else if d1 > d2 {
                prop_assert!(s1 >= s2);
            }
        }

        #[test]
        fn prop_features_path_equals_challenge_path(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let puf = ArbiterPuf::random(24, &mut rng);
            let c = Challenge::random(24, &mut rng);
            let via_features = puf.delay_difference_from_features(&c.features());
            prop_assert!((puf.delay_difference(&c) - via_features).abs() < 1e-12);
        }
    }
}
