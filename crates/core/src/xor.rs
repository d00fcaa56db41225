//! XOR arbiter PUFs: `n` parallel arbiter PUFs sharing one challenge, their
//! output bits XOR-ed into the final response (paper Fig. 1, Ref. 8).

use crate::arbiter::ArbiterPuf;
use crate::challenge::Challenge;
use crate::rngx;
use crate::PufError;
use rand::Rng;

/// An `n`-input XOR arbiter PUF.
///
/// All member PUFs receive the same challenge; only the XOR of their
/// response bits is visible at the output (the individual responses are the
/// quantity the paper's fuse-protected enrollment port exposes one time).
///
/// ```
/// use puf_core::{Challenge, XorPuf};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(3);
/// let xor = XorPuf::random(10, 32, &mut rng);
/// assert_eq!(xor.n(), 10);
/// let c = Challenge::random(32, &mut rng);
/// let member_bits: Vec<bool> = xor.members().iter().map(|p| p.response(&c)).collect();
/// let expect = member_bits.iter().fold(false, |acc, &b| acc ^ b);
/// assert_eq!(xor.response(&c), expect);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct XorPuf {
    members: Vec<ArbiterPuf>,
}

impl XorPuf {
    /// Builds an XOR PUF from existing member PUFs.
    ///
    /// # Errors
    ///
    /// Returns [`PufError::EmptyXor`] for an empty member list and
    /// [`PufError::StageMismatch`] if the members disagree on stage count.
    pub fn from_members(members: Vec<ArbiterPuf>) -> Result<Self, PufError> {
        let first = members.first().ok_or(PufError::EmptyXor)?;
        let stages = first.stages();
        for m in &members {
            if m.stages() != stages {
                return Err(PufError::StageMismatch {
                    expected: stages,
                    actual: m.stages(),
                });
            }
        }
        Ok(Self { members })
    }

    /// Draws `n` independent random member PUFs (see [`ArbiterPuf::random`]).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `stages` is out of range.
    pub fn random<R: Rng + ?Sized>(n: usize, stages: usize, rng: &mut R) -> Self {
        assert!(n >= 1, "an XOR PUF needs at least one member");
        let members = (0..n).map(|_| ArbiterPuf::random(stages, rng)).collect();
        Self { members }
    }

    /// Number of member PUFs (`n` in the paper's notation).
    pub fn n(&self) -> usize {
        self.members.len()
    }

    /// Number of delay stages of each member.
    pub fn stages(&self) -> usize {
        self.members[0].stages()
    }

    /// The member PUFs, in XOR order.
    pub fn members(&self) -> &[ArbiterPuf] {
        &self.members
    }

    /// A sub-XOR-PUF over the first `n` members.
    ///
    /// The paper evaluates n = 1..10 on the same bank of physical PUFs; this
    /// accessor lets a fig harness do the same without re-sampling silicon.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds [`XorPuf::n`].
    pub fn prefix(&self, n: usize) -> XorPuf {
        assert!(n >= 1 && n <= self.n(), "prefix size {n} out of range");
        XorPuf {
            members: self.members[..n].to_vec(),
        }
    }

    /// Noiseless XOR response.
    ///
    /// # Panics
    ///
    /// Panics on a stage mismatch.
    pub fn response(&self, challenge: &Challenge) -> bool {
        puf_telemetry::counter!("core.eval.count").inc();
        let features = challenge.features();
        self.members.iter().fold(false, |acc, m| {
            acc ^ (m.delay_difference_from_features(&features) > 0.0)
        })
    }

    /// Noiseless XOR responses for a whole challenge batch.
    ///
    /// Bit-identical to mapping [`XorPuf::response`], but runs through the
    /// [`crate::batch`] engine: one contiguous feature matrix, the unrolled
    /// dot kernel, per-batch latency telemetry (`core.eval.batch` histogram,
    /// `core.eval.count` counter) instead of per-bit overhead.
    ///
    /// # Panics
    ///
    /// Panics on a stage mismatch.
    pub fn responses(&self, challenges: &[Challenge]) -> Vec<bool> {
        let _span = puf_telemetry::span!("core.eval.batch");
        puf_telemetry::counter!("core.eval.count").add(challenges.len() as u64);
        if challenges.is_empty() {
            return Vec::new();
        }
        let features = crate::batch::FeatureMatrix::new(self.stages(), challenges)
            // puf-lint: allow(L4): documented panic contract of the batch entry point
            .expect("challenge stage count does not match the PUF");
        self.response_batch(&features)
    }

    /// One noisy evaluation: each member gets an independent noise draw,
    /// then the bits are XOR-ed.
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
        let features = challenge.features();
        self.members.iter().fold(false, |acc, m| {
            let delta = m.delay_difference_from_features(&features);
            acc ^ (delta + rngx::normal(rng, 0.0, sigma_noise) > 0.0)
        })
    }

    /// Analytic soft response of the XOR output.
    ///
    /// If member `i` outputs `1` with probability `pᵢ` (independently), the
    /// XOR is `1` with probability `(1 − Π(1 − 2pᵢ)) / 2` — the standard
    /// piling-up identity.
    ///
    /// # Panics
    ///
    /// Panics on a stage mismatch or invalid `sigma_noise`.
    pub fn soft_response(&self, challenge: &Challenge, sigma_noise: f64) -> f64 {
        let features = challenge.features();
        let mut prod = 1.0;
        for m in &self.members {
            let delta = m.delay_difference_from_features(&features);
            let p = if sigma_noise == 0.0 {
                if delta > 0.0 {
                    1.0
                } else {
                    0.0
                }
            } else {
                crate::math::normal_cdf(delta / sigma_noise)
            };
            prod *= 1.0 - 2.0 * p;
        }
        (1.0 - prod) / 2.0
    }

    /// Per-member delay differences for a challenge, in member order.
    ///
    /// # Panics
    ///
    /// Panics on a stage mismatch.
    pub fn member_deltas(&self, challenge: &Challenge) -> Vec<f64> {
        let features = challenge.features();
        self.members
            .iter()
            .map(|m| m.delay_difference_from_features(&features))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn from_members_validation() {
        assert_eq!(XorPuf::from_members(vec![]), Err(PufError::EmptyXor));
        let a = ArbiterPuf::from_weights(vec![1.0, 2.0]).unwrap();
        let b = ArbiterPuf::from_weights(vec![1.0, 2.0, 3.0]).unwrap();
        assert!(matches!(
            XorPuf::from_members(vec![a.clone(), b]),
            Err(PufError::StageMismatch { .. })
        ));
        assert!(XorPuf::from_members(vec![a.clone(), a]).is_ok());
    }

    #[test]
    fn single_member_xor_equals_member() {
        let mut rng = StdRng::seed_from_u64(1);
        let member = ArbiterPuf::random(32, &mut rng);
        let xor = XorPuf::from_members(vec![member.clone()]).unwrap();
        for _ in 0..50 {
            let c = Challenge::random(32, &mut rng);
            assert_eq!(xor.response(&c), member.response(&c));
        }
    }

    #[test]
    fn prefix_shares_members() {
        let mut rng = StdRng::seed_from_u64(2);
        let xor = XorPuf::random(8, 16, &mut rng);
        let p3 = xor.prefix(3);
        assert_eq!(p3.n(), 3);
        assert_eq!(p3.members(), &xor.members()[..3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn prefix_rejects_oversize() {
        let mut rng = StdRng::seed_from_u64(2);
        XorPuf::random(2, 16, &mut rng).prefix(3);
    }

    #[test]
    fn batch_responses_match_single_eval() {
        let mut rng = StdRng::seed_from_u64(9);
        let xor = XorPuf::random(4, 16, &mut rng);
        let cs: Vec<Challenge> = (0..20).map(|_| Challenge::random(16, &mut rng)).collect();
        let batch = xor.responses(&cs);
        assert_eq!(batch.len(), cs.len());
        for (c, &b) in cs.iter().zip(&batch) {
            assert_eq!(b, xor.response(c));
        }
    }

    #[test]
    fn soft_response_piling_up_two_members() {
        // Two members with known deltas; check against direct enumeration.
        let a = ArbiterPuf::from_weights(vec![0.0, 0.1]).unwrap();
        let b = ArbiterPuf::from_weights(vec![0.0, -0.05]).unwrap();
        let xor = XorPuf::from_members(vec![a.clone(), b.clone()]).unwrap();
        let c = Challenge::zero(1);
        let sigma = 0.1;
        let pa = a.soft_response(&c, sigma);
        let pb = b.soft_response(&c, sigma);
        let want = pa * (1.0 - pb) + pb * (1.0 - pa);
        assert!((xor.soft_response(&c, sigma) - want).abs() < 1e-12);
    }

    #[test]
    fn noisy_xor_matches_analytic_soft_response() {
        let mut rng = StdRng::seed_from_u64(8);
        let xor = XorPuf::random(3, 8, &mut rng);
        let c = Challenge::random(8, &mut rng);
        let sigma = 0.5;
        let p = xor.soft_response(&c, sigma);
        let n = 40_000;
        let ones = (0..n)
            .filter(|_| xor.eval_noisy(&c, sigma, &mut rng))
            .count() as f64;
        assert!(
            (ones / n as f64 - p).abs() < 0.015,
            "empirical {} vs analytic {p}",
            ones / n as f64
        );
    }

    proptest! {
        #[test]
        fn prop_xor_response_is_fold_of_members(seed in any::<u64>(), n in 1usize..8) {
            let mut rng = StdRng::seed_from_u64(seed);
            let xor = XorPuf::random(n, 16, &mut rng);
            let c = Challenge::random(16, &mut rng);
            let folded = xor
                .members()
                .iter()
                .fold(false, |acc, m| acc ^ m.response(&c));
            prop_assert_eq!(xor.response(&c), folded);
        }

        #[test]
        fn prop_soft_response_in_unit_interval(seed in any::<u64>(), n in 1usize..8) {
            let mut rng = StdRng::seed_from_u64(seed);
            let xor = XorPuf::random(n, 16, &mut rng);
            let c = Challenge::random(16, &mut rng);
            let p = xor.soft_response(&c, 0.05);
            prop_assert!((0.0..=1.0).contains(&p));
        }

        #[test]
        fn prop_member_deltas_len(seed in any::<u64>(), n in 1usize..8) {
            let mut rng = StdRng::seed_from_u64(seed);
            let xor = XorPuf::random(n, 16, &mut rng);
            let c = Challenge::random(16, &mut rng);
            prop_assert_eq!(xor.member_deltas(&c).len(), n);
        }
    }
}
