//! The Interpose PUF (iPUF) — a two-layer composition proposed after this
//! paper (Nguyen et al., CHES 2019) specifically to resist both the MLP
//! attack of Fig. 4 and the reliability attack of Ref. 9, included here as
//! a forward-looking comparison point.
//!
//! An `(x, y)`-iPUF evaluates an upper `x`-XOR PUF on the challenge and
//! *interposes* the resulting bit into the middle of the challenge fed to a
//! lower `y`-XOR PUF (whose members therefore have `stages + 1` stages):
//!
//! ```text
//! b = upper_xor(c)
//! response = lower_xor(c[0..m] ‖ b ‖ c[m..])
//! ```
//!
//! The interposed bit makes the lower layer's effective challenge depend on
//! the upper layer non-linearly, while each layer alone stays a plain XOR
//! PUF — all machinery of this workspace (noise, measurement, attacks)
//! applies unchanged to the parts.

use crate::challenge::Challenge;
use crate::xor::XorPuf;
use crate::PufError;
use rand::Rng;

/// An `(x, y)` Interpose PUF over `stages`-bit challenges.
#[derive(Clone, Debug, PartialEq)]
pub struct InterposePuf {
    upper: XorPuf,
    lower: XorPuf,
    interpose_at: usize,
}

impl InterposePuf {
    /// Draws a random `(x, y)`-iPUF with the interpose position at the
    /// middle of the lower challenge (the reference design's choice —
    /// mid-position maximises the interposed bit's influence).
    ///
    /// # Errors
    ///
    /// Returns [`PufError::InvalidStageCount`] if `stages + 1` exceeds the
    /// supported challenge width, and [`PufError::EmptyXor`] if either
    /// width is zero.
    pub fn random<R: Rng + ?Sized>(
        x: usize,
        y: usize,
        stages: usize,
        rng: &mut R,
    ) -> Result<Self, PufError> {
        if x == 0 || y == 0 {
            return Err(PufError::EmptyXor);
        }
        if stages == 0 || stages + 1 > crate::MAX_STAGES {
            return Err(PufError::InvalidStageCount { stages });
        }
        Ok(Self {
            upper: XorPuf::random(x, stages, rng),
            lower: XorPuf::random(y, stages + 1, rng),
            interpose_at: stages.div_ceil(2),
        })
    }

    /// Challenge width expected at the input.
    pub fn stages(&self) -> usize {
        self.upper.stages()
    }

    /// Upper-layer XOR width `x`.
    pub fn x(&self) -> usize {
        self.upper.n()
    }

    /// Lower-layer XOR width `y`.
    pub fn y(&self) -> usize {
        self.lower.n()
    }

    /// The bit position at which the upper response is interposed.
    pub fn interpose_at(&self) -> usize {
        self.interpose_at
    }

    /// Builds the lower layer's effective challenge for a given upper bit.
    fn interposed_challenge(&self, challenge: &Challenge, bit: bool) -> Challenge {
        let k = challenge.stages();
        let m = self.interpose_at;
        let bits = challenge.bits();
        let low = bits & ((1u128 << m) - 1);
        let high = (bits >> m) << (m + 1);
        let mid = u128::from(bit) << m;
        // puf-lint: allow(L4): k+1 <= MAX_STAGES was validated when the PUF was built
        Challenge::from_bits(low | mid | high, k + 1).expect("stage count validated at build")
    }

    /// Noiseless response.
    ///
    /// # Panics
    ///
    /// Panics on a stage mismatch.
    pub fn response(&self, challenge: &Challenge) -> bool {
        let b = self.upper.response(challenge);
        self.lower
            .response(&self.interposed_challenge(challenge, b))
    }

    /// One noisy evaluation: every arbiter in both layers draws independent
    /// noise; the interposed bit itself can flip, which is the iPUF's extra
    /// instability channel.
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
        let b = self.upper.eval_noisy(challenge, sigma_noise, rng);
        self.lower
            .eval_noisy(&self.interposed_challenge(challenge, b), sigma_noise, rng)
    }

    /// Analytic soft response, marginalising over the upper bit:
    /// `P(1) = P(b=1)·P(lower=1 | b=1) + P(b=0)·P(lower=1 | b=0)`.
    ///
    /// # Panics
    ///
    /// Panics on a stage mismatch or invalid `sigma_noise`.
    pub fn soft_response(&self, challenge: &Challenge, sigma_noise: f64) -> f64 {
        let p_upper = self.upper.soft_response(challenge, sigma_noise);
        let p1 = self
            .lower
            .soft_response(&self.interposed_challenge(challenge, true), sigma_noise);
        let p0 = self
            .lower
            .soft_response(&self.interposed_challenge(challenge, false), sigma_noise);
        p_upper * p1 + (1.0 - p_upper) * p0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::challenge::random_challenges;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ipuf(seed: u64) -> InterposePuf {
        let mut rng = StdRng::seed_from_u64(seed);
        InterposePuf::random(1, 1, 16, &mut rng).unwrap()
    }

    #[test]
    fn construction_validation() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            InterposePuf::random(0, 1, 16, &mut rng),
            Err(PufError::EmptyXor)
        ));
        assert!(matches!(
            InterposePuf::random(1, 1, 128, &mut rng),
            Err(PufError::InvalidStageCount { .. })
        ));
        let p = InterposePuf::random(2, 3, 32, &mut rng).unwrap();
        assert_eq!((p.x(), p.y(), p.stages()), (2, 3, 32));
        assert_eq!(p.interpose_at(), 16);
    }

    #[test]
    fn interposed_challenge_layout() {
        let p = ipuf(2);
        let m = p.interpose_at();
        let c = Challenge::from_bits(0b1111_1111_1111_1111, 16).unwrap();
        let with0 = p.interposed_challenge(&c, false);
        let with1 = p.interposed_challenge(&c, true);
        assert_eq!(with0.stages(), 17);
        assert!(!with0.bit(m));
        assert!(with1.bit(m));
        // Every original bit survives on the correct side.
        for i in 0..m {
            assert!(with0.bit(i));
        }
        for i in (m + 1)..17 {
            assert!(with0.bit(i));
        }
    }

    #[test]
    fn response_is_deterministic_and_depends_on_upper_bit() {
        let p = ipuf(3);
        let mut rng = StdRng::seed_from_u64(4);
        let mut influenced = 0;
        for _ in 0..300 {
            let c = Challenge::random(16, &mut rng);
            assert_eq!(p.response(&c), p.response(&c));
            let forced0 = p.lower.response(&p.interposed_challenge(&c, false));
            let forced1 = p.lower.response(&p.interposed_challenge(&c, true));
            if forced0 != forced1 {
                influenced += 1;
            }
        }
        assert!(
            influenced > 20,
            "the interposed bit should matter for a fair share of challenges: {influenced}/300"
        );
    }

    #[test]
    fn soft_response_matches_empirical() {
        let p = ipuf(5);
        let mut rng = StdRng::seed_from_u64(6);
        let c = Challenge::random(16, &mut rng);
        let sigma = 0.15;
        let analytic = p.soft_response(&c, sigma);
        let n = 30_000;
        let ones = (0..n).filter(|_| p.eval_noisy(&c, sigma, &mut rng)).count() as f64;
        assert!(
            (ones / n as f64 - analytic).abs() < 0.02,
            "empirical {} vs analytic {analytic}",
            ones / n as f64
        );
    }

    #[test]
    fn ipuf_resists_the_linear_attack_better_than_its_layers() {
        // Fit a linear model to ±1 responses (in-sample R²): the iPUF's
        // response must be less linear in φ(c) than a single arbiter PUF.
        let mut rng = StdRng::seed_from_u64(7);
        let ip = InterposePuf::random(1, 1, 16, &mut rng).unwrap();
        let single = crate::ArbiterPuf::random(16, &mut rng);
        let challenges = random_challenges(16, 3_000, &mut rng);
        let corr_with_best_linear = |targets: &[f64]| {
            // Upper bound on linear fit quality: correlation of targets
            // with the best single feature combination ≈ use normalised
            // projection onto the φ basis (orthonormal over random c).
            let k = 17;
            let mut proj = vec![0.0; k];
            for (c, &t) in challenges.iter().zip(targets) {
                for (j, &f) in c.features().as_slice().iter().enumerate() {
                    proj[j] += f * t;
                }
            }
            let n = challenges.len() as f64;
            (proj.iter().map(|p| (p / n) * (p / n)).sum::<f64>()).sqrt()
        };
        let ip_targets: Vec<f64> = challenges
            .iter()
            .map(|c| if ip.response(c) { 1.0 } else { -1.0 })
            .collect();
        let single_targets: Vec<f64> = challenges
            .iter()
            .map(|c| if single.response(c) { 1.0 } else { -1.0 })
            .collect();
        let r_ip = corr_with_best_linear(&ip_targets);
        let r_single = corr_with_best_linear(&single_targets);
        assert!(
            r_ip < r_single,
            "iPUF should be less linear: {r_ip} vs {r_single}"
        );
    }

    #[test]
    fn stability_decreases_relative_to_plain_xor_of_same_size() {
        // The interposed bit is one more noisy arbiter in the chain, so a
        // (1,1)-iPUF is at most as stable as a 1-XOR PUF under the same σ.
        let mut rng = StdRng::seed_from_u64(8);
        let ip = InterposePuf::random(1, 1, 16, &mut rng).unwrap();
        let plain = XorPuf::random(1, 16, &mut rng);
        let sigma = 0.06;
        let challenges = random_challenges(16, 4_000, &mut rng);
        let marginal = |softs: Vec<f64>| {
            softs.iter().filter(|&&s| s > 0.001 && s < 0.999).count() as f64
                / challenges.len() as f64
        };
        let ip_unstable = marginal(
            challenges
                .iter()
                .map(|c| ip.soft_response(c, sigma))
                .collect(),
        );
        let plain_unstable = marginal(
            challenges
                .iter()
                .map(|c| plain.soft_response(c, sigma))
                .collect(),
        );
        assert!(
            ip_unstable >= plain_unstable * 0.9,
            "iPUF should not be magically more stable: {ip_unstable} vs {plain_unstable}"
        );
    }
}
