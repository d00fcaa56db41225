//! Feed-forward MUX arbiter PUFs.
//!
//! The paper's Ref. 1 (Zhou et al., ISLPED 2016 — "Soft Response
//! Generation and Thresholding Strategies for Linear and Feedforward MUX
//! PUFs") covers this classic variant: an intermediate arbiter taps the
//! race at stage `tap_stage` and its decision drives the select input of a
//! later stage `inject_stage`, replacing that stage's challenge bit. The
//! response is no longer a linear function of the transformed challenge,
//! which defeats plain linear/logistic attacks — at the cost of extra
//! instability (two arbiters can now be marginal).
//!
//! Under the additive delay model the intermediate arbiter decides on the
//! partial sum of stage contributions up to the tap:
//!
//! ```text
//! Δ_tap(c)  = Σ_{i ≤ tap} w_i · φ_i^{(tap)}(c)          (+ tap arbiter bias)
//! c'        = c  with  c[inject] := (Δ_tap + ε > 0)
//! Δ(c)      = w · φ(c')
//! ```

use crate::arbiter::ArbiterPuf;
use crate::challenge::Challenge;
use crate::math::normal_cdf;
use crate::rngx;
use crate::PufError;
use rand::Rng;

/// A feed-forward arbiter PUF: a linear arbiter PUF plus one feed-forward
/// loop from `tap_stage` to `inject_stage`.
#[derive(Clone, Debug, PartialEq)]
pub struct FeedForwardPuf {
    base: ArbiterPuf,
    /// Weights of the intermediate race seen by the tap arbiter
    /// (length `tap_stage + 2`: stages `0..=tap_stage` plus a bias).
    tap_weights: Vec<f64>,
    tap_stage: usize,
    inject_stage: usize,
}

impl FeedForwardPuf {
    /// Draws a random feed-forward PUF.
    ///
    /// # Errors
    ///
    /// Returns [`PufError::InvalidParameter`] unless
    /// `tap_stage < inject_stage < stages`.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is out of the supported range (see
    /// [`ArbiterPuf::random`]).
    pub fn random<R: Rng + ?Sized>(
        stages: usize,
        tap_stage: usize,
        inject_stage: usize,
        rng: &mut R,
    ) -> Result<Self, PufError> {
        if tap_stage >= inject_stage || inject_stage >= stages {
            return Err(PufError::InvalidParameter {
                name: "tap/inject",
                constraint: "requires tap_stage < inject_stage < stages",
            });
        }
        let base = ArbiterPuf::random(stages, rng);
        let sigma = (1.0 / (tap_stage as f64 + 2.0)).sqrt();
        let mut tap_weights = vec![0.0; tap_stage + 2];
        rngx::fill_normal(rng, sigma, &mut tap_weights);
        Ok(Self {
            base,
            tap_weights,
            tap_stage,
            inject_stage,
        })
    }

    /// The paper-geometry default: 32 stages, tap after stage 7 injecting
    /// into stage 23.
    ///
    /// # Panics
    ///
    /// Never — the hard-coded geometry is valid.
    pub fn random_paper_geometry<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // puf-lint: allow(L4): hard-coded geometry constants are statically valid
        Self::random(crate::PAPER_STAGES, 7, 23, rng).expect("valid geometry")
    }

    /// Number of delay stages.
    pub fn stages(&self) -> usize {
        self.base.stages()
    }

    /// The tap stage (the intermediate arbiter's position).
    pub fn tap_stage(&self) -> usize {
        self.tap_stage
    }

    /// The injected stage (whose select bit comes from the tap arbiter).
    pub fn inject_stage(&self) -> usize {
        self.inject_stage
    }

    /// The underlying linear PUF (as deployed, its stage `inject_stage`
    /// select is internal).
    pub fn base(&self) -> &ArbiterPuf {
        &self.base
    }

    /// The intermediate race's delay difference at the tap.
    ///
    /// # Panics
    ///
    /// Panics on a stage mismatch.
    pub fn tap_delay_difference(&self, challenge: &Challenge) -> f64 {
        assert_eq!(
            challenge.stages(),
            self.stages(),
            "challenge/PUF stage mismatch"
        );
        // φ over the truncated (tap_stage+1)-stage prefix.
        let k = self.tap_stage + 1;
        let mut acc = 0.0;
        let mut suffix = 1.0;
        for i in (0..k).rev() {
            suffix *= if challenge.bit(i) { -1.0 } else { 1.0 };
            acc += self.tap_weights[i] * suffix;
        }
        // Recompute with correct ordering: φ_i = Π_{j=i..k-1}(1-2c_j);
        // the loop above accumulated exactly that.
        acc + self.tap_weights[k]
    }

    /// The effective challenge after the feed-forward substitution, given
    /// the tap arbiter's decision.
    fn effective_challenge(&self, challenge: &Challenge, tap_bit: bool) -> Challenge {
        let current = challenge.bit(self.inject_stage);
        if current == tap_bit {
            *challenge
        } else {
            challenge.with_flipped_bit(self.inject_stage)
        }
    }

    /// Final-race delay difference given a noiseless tap decision.
    ///
    /// # Panics
    ///
    /// Panics on a stage mismatch.
    pub fn delay_difference(&self, challenge: &Challenge) -> f64 {
        let tap_bit = self.tap_delay_difference(challenge) > 0.0;
        self.base
            .delay_difference(&self.effective_challenge(challenge, tap_bit))
    }

    /// Noiseless response.
    ///
    /// # Panics
    ///
    /// Panics on a stage mismatch.
    pub fn response(&self, challenge: &Challenge) -> bool {
        self.delay_difference(challenge) > 0.0
    }

    /// One noisy evaluation: both arbiters receive independent noise.
    ///
    /// # Panics
    ///
    /// Panics on a stage mismatch or invalid `sigma_noise`.
    pub fn eval_noisy<R: Rng + ?Sized>(
        &self,
        challenge: &Challenge,
        sigma_noise: f64,
        rng: &mut R,
    ) -> bool {
        let tap_bit =
            self.tap_delay_difference(challenge) + rngx::normal(rng, 0.0, sigma_noise) > 0.0;
        let eff = self.effective_challenge(challenge, tap_bit);
        self.base.delay_difference(&eff) + rngx::normal(rng, 0.0, sigma_noise) > 0.0
    }

    /// Analytic soft response, marginalising over the tap arbiter's noise:
    ///
    /// ```text
    /// P(1) = P(tap=1)·Φ(Δ(c|tap=1)/σ) + P(tap=0)·Φ(Δ(c|tap=0)/σ)
    /// ```
    ///
    /// # Panics
    ///
    /// Panics on a stage mismatch or invalid `sigma_noise`.
    pub fn soft_response(&self, challenge: &Challenge, sigma_noise: f64) -> f64 {
        assert!(
            sigma_noise >= 0.0 && sigma_noise.is_finite(),
            "sigma_noise must be finite and non-negative"
        );
        let tap_delta = self.tap_delay_difference(challenge);
        if sigma_noise == 0.0 {
            return if self.response(challenge) { 1.0 } else { 0.0 };
        }
        let p_tap1 = normal_cdf(tap_delta / sigma_noise);
        let d1 = self
            .base
            .delay_difference(&self.effective_challenge(challenge, true));
        let d0 = self
            .base
            .delay_difference(&self.effective_challenge(challenge, false));
        p_tap1 * normal_cdf(d1 / sigma_noise) + (1.0 - p_tap1) * normal_cdf(d0 / sigma_noise)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ff(seed: u64) -> FeedForwardPuf {
        let mut rng = StdRng::seed_from_u64(seed);
        FeedForwardPuf::random(16, 4, 10, &mut rng).unwrap()
    }

    #[test]
    fn geometry_validation() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(FeedForwardPuf::random(16, 10, 4, &mut rng).is_err());
        assert!(FeedForwardPuf::random(16, 4, 4, &mut rng).is_err());
        assert!(FeedForwardPuf::random(16, 4, 16, &mut rng).is_err());
        assert!(FeedForwardPuf::random(16, 4, 15, &mut rng).is_ok());
        let p = FeedForwardPuf::random_paper_geometry(&mut rng);
        assert_eq!(p.stages(), 32);
        assert_eq!(p.tap_stage(), 7);
        assert_eq!(p.inject_stage(), 23);
    }

    #[test]
    fn response_is_deterministic() {
        let puf = ff(2);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let c = Challenge::random(16, &mut rng);
            assert_eq!(puf.response(&c), puf.response(&c));
        }
    }

    #[test]
    fn injected_bit_is_ignored() {
        // Flipping the injected stage's challenge bit never changes the
        // response: that select input is driven by the tap arbiter.
        let puf = ff(4);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let c = Challenge::random(16, &mut rng);
            let flipped = c.with_flipped_bit(puf.inject_stage());
            assert_eq!(puf.response(&c), puf.response(&flipped));
        }
    }

    #[test]
    fn response_is_not_linear_in_features() {
        // A least-squares linear model fit on the ±1 responses of a
        // feed-forward PUF explains them substantially worse than it does a
        // plain arbiter PUF's.
        use crate::challenge::random_challenges;
        let mut rng = StdRng::seed_from_u64(6);
        let ffp = FeedForwardPuf::random(16, 3, 12, &mut rng).unwrap();
        let linear = ArbiterPuf::random(16, &mut rng);
        let challenges = random_challenges(16, 3_000, &mut rng);

        let fit_r2 = |targets: &[f64]| {
            // Normal-equation fit of targets on φ, returning in-sample R².
            let k = 17;
            let mut xtx = vec![0.0; k * k];
            let mut xty = vec![0.0; k];
            for (c, &t) in challenges.iter().zip(targets) {
                let phi = c.features();
                let p = phi.as_slice();
                for i in 0..k {
                    xty[i] += p[i] * t;
                    for j in 0..k {
                        xtx[i * k + j] += p[i] * p[j];
                    }
                }
            }
            // Jacobi-free: solve by Gaussian elimination (tiny system).
            let mut a = xtx;
            let mut b = xty;
            for col in 0..k {
                let piv = (col..k)
                    .max_by(|&r1, &r2| {
                        a[r1 * k + col]
                            .abs()
                            .partial_cmp(&a[r2 * k + col].abs())
                            .unwrap()
                    })
                    .unwrap();
                a.swap(piv * k + col, col * k + col);
                for j in 0..k {
                    if j != col {
                        a.swap(piv * k + j, col * k + j);
                    }
                }
                b.swap(piv, col);
                let d = a[col * k + col];
                for r in 0..k {
                    if r == col || a[r * k + col] == 0.0 {
                        continue;
                    }
                    let f = a[r * k + col] / d;
                    for j in 0..k {
                        a[r * k + j] -= f * a[col * k + j];
                    }
                    b[r] -= f * b[col];
                }
            }
            let theta: Vec<f64> = (0..k).map(|i| b[i] / a[i * k + i]).collect();
            let mut ss_res = 0.0;
            let mut ss_tot = 0.0;
            let mean = targets.iter().sum::<f64>() / targets.len() as f64;
            for (c, &t) in challenges.iter().zip(targets) {
                let pred: f64 = c
                    .features()
                    .as_slice()
                    .iter()
                    .zip(&theta)
                    .map(|(x, w)| x * w)
                    .sum();
                ss_res += (t - pred) * (t - pred);
                ss_tot += (t - mean) * (t - mean);
            }
            1.0 - ss_res / ss_tot
        };

        let ff_targets: Vec<f64> = challenges
            .iter()
            .map(|c| if ffp.response(c) { 1.0 } else { -1.0 })
            .collect();
        let lin_targets: Vec<f64> = challenges
            .iter()
            .map(|c| if linear.response(c) { 1.0 } else { -1.0 })
            .collect();
        let r2_ff = fit_r2(&ff_targets);
        let r2_lin = fit_r2(&lin_targets);
        assert!(
            r2_ff < r2_lin - 0.1,
            "feed-forward should be less linear: R² {r2_ff} vs {r2_lin}"
        );
    }

    #[test]
    fn soft_response_matches_empirical_rate() {
        let puf = ff(7);
        let mut rng = StdRng::seed_from_u64(8);
        let c = Challenge::random(16, &mut rng);
        let sigma = 0.2;
        let analytic = puf.soft_response(&c, sigma);
        let n = 40_000;
        let ones = (0..n)
            .filter(|_| puf.eval_noisy(&c, sigma, &mut rng))
            .count() as f64;
        assert!(
            (ones / n as f64 - analytic).abs() < 0.015,
            "empirical {} vs analytic {analytic}",
            ones / n as f64
        );
    }

    #[test]
    fn tap_delay_matches_truncated_linear_model() {
        // Hand-check the tap partial sum against a direct product formula.
        let puf = ff(9);
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..50 {
            let c = Challenge::random(16, &mut rng);
            let k = puf.tap_stage() + 1;
            let mut want = puf.tap_weights[k];
            for i in 0..k {
                let mut prod = 1.0;
                for j in i..k {
                    prod *= if c.bit(j) { -1.0 } else { 1.0 };
                }
                want += puf.tap_weights[i] * prod;
            }
            assert!((puf.tap_delay_difference(&c) - want).abs() < 1e-12);
        }
    }

    proptest! {
        #[test]
        fn prop_soft_response_in_unit_interval(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let puf = FeedForwardPuf::random(16, 4, 10, &mut rng).unwrap();
            let c = Challenge::random(16, &mut rng);
            let p = puf.soft_response(&c, 0.1);
            prop_assert!((0.0..=1.0).contains(&p));
        }

        #[test]
        fn prop_zero_noise_soft_is_hard(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let puf = FeedForwardPuf::random(16, 2, 9, &mut rng).unwrap();
            let c = Challenge::random(16, &mut rng);
            let s = puf.soft_response(&c, 0.0);
            prop_assert_eq!(s == 1.0, puf.response(&c));
        }
    }
}
