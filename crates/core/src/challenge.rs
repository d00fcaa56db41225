//! Challenges and the parity feature transform of the linear additive delay
//! model.
//!
//! A challenge is a vector of `k ≤ 128` stage-select bits. The delay model
//! and every machine-learning attack/enrollment model in this workspace work
//! on the *transformed* challenge
//! `φ(c) ∈ {−1, +1}^{k+1}`:
//!
//! ```text
//! φ_i(c) = Π_{j=i}^{k-1} (1 − 2 c_j)   for i in 0..k,   φ_k(c) = 1
//! ```
//!
//! which makes the arbiter delay difference a plain inner product
//! `Δ(c) = w · φ(c)` (Rührmair et al.; the paper's Refs. 1-3).

use crate::{PufError, MAX_STAGES};
use rand::Rng;
use std::fmt;

/// A challenge applied to every stage of a MUX arbiter PUF.
///
/// Bits are stored LSB-first in a `u128`, so any stage count from 1 to 128
/// is supported without allocation; the paper's chips use 32 stages
/// ([`crate::PAPER_STAGES`]) and a 64-stage variant is discussed for the
/// challenge-space argument in its §5.2.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Challenge {
    bits: u128,
    stages: u8,
}

impl Challenge {
    /// Creates a challenge from the low `stages` bits of `bits`.
    ///
    /// # Errors
    ///
    /// Returns [`PufError::InvalidStageCount`] if `stages` is 0 or exceeds
    /// [`MAX_STAGES`].
    ///
    /// ```
    /// use puf_core::Challenge;
    /// let c = Challenge::from_bits(0b1011, 4)?;
    /// assert!(c.bit(0) && c.bit(1) && !c.bit(2) && c.bit(3));
    /// # Ok::<(), puf_core::PufError>(())
    /// ```
    pub fn from_bits(bits: u128, stages: usize) -> Result<Self, PufError> {
        if stages == 0 || stages > MAX_STAGES {
            return Err(PufError::InvalidStageCount { stages });
        }
        let mask = if stages == 128 {
            u128::MAX
        } else {
            (1u128 << stages) - 1
        };
        Ok(Self {
            bits: bits & mask,
            stages: stages as u8,
        })
    }

    /// Creates the all-zero challenge.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is 0 or exceeds [`MAX_STAGES`].
    pub fn zero(stages: usize) -> Self {
        // puf-lint: allow(L4): documented panic contract; from_bits is the fallible API
        Self::from_bits(0, stages).expect("invalid stage count")
    }

    /// Draws a uniformly random challenge.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is 0 or exceeds [`MAX_STAGES`].
    pub fn random<R: Rng + ?Sized>(stages: usize, rng: &mut R) -> Self {
        // puf-lint: allow(L4): documented panic contract; from_bits is the fallible API
        Self::from_bits(rng.gen::<u128>(), stages).expect("invalid stage count")
    }

    /// Number of stages (bits) in this challenge.
    pub fn stages(&self) -> usize {
        self.stages as usize
    }

    /// The raw bit storage, LSB-first.
    pub fn bits(&self) -> u128 {
        self.bits
    }

    /// Returns stage bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.stages()`.
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < self.stages(), "bit index {i} out of range");
        (self.bits >> i) & 1 == 1
    }

    /// Returns a copy with stage bit `i` flipped.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.stages()`.
    pub fn with_flipped_bit(&self, i: usize) -> Self {
        assert!(i < self.stages(), "bit index {i} out of range");
        Self {
            bits: self.bits ^ (1u128 << i),
            stages: self.stages,
        }
    }

    /// Iterates over the stage bits, LSB (stage 0) first.
    pub fn iter_bits(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.stages()).map(move |i| self.bit(i))
    }

    /// Computes the parity feature transform `φ(c)`.
    ///
    /// The returned vector has `stages + 1` entries, each `±1`, with the
    /// constant bias feature last. This is the input representation used by
    /// the delay model, the enrollment linear regression and the MLP attack.
    ///
    /// ```
    /// use puf_core::Challenge;
    /// let c = Challenge::from_bits(0, 3)?; // all-zero challenge
    /// assert_eq!(c.features().as_slice(), &[1.0, 1.0, 1.0, 1.0]);
    /// # Ok::<(), puf_core::PufError>(())
    /// ```
    pub fn features(&self) -> FeatureVector {
        let mut phi = vec![0.0f64; self.stages() + 1];
        self.features_into(&mut phi);
        FeatureVector(phi)
    }

    /// Writes the parity feature transform `φ(c)` into a caller-provided
    /// buffer — the allocation-free form of [`Challenge::features`] used by
    /// batch evaluation and the ML training loops.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.stages() + 1`.
    ///
    /// ```
    /// use puf_core::Challenge;
    /// let c = Challenge::from_bits(0, 3)?;
    /// let mut phi = [0.0f64; 4];
    /// c.features_into(&mut phi);
    /// assert_eq!(phi, [1.0, 1.0, 1.0, 1.0]);
    /// # Ok::<(), puf_core::PufError>(())
    /// ```
    pub fn features_into(&self, out: &mut [f64]) {
        let k = self.stages();
        assert_eq!(out.len(), k + 1, "feature buffer length mismatch");
        out[k] = 1.0;
        // Suffix products: φ_i = (1 − 2 c_i) · φ_{i+1}.
        let mut acc = 1.0;
        for i in (0..k).rev() {
            acc *= if self.bit(i) { -1.0 } else { 1.0 };
            out[i] = acc;
        }
    }
}

impl fmt::Debug for Challenge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Challenge({} stages, ", self.stages)?;
        for i in (0..self.stages()).rev() {
            write!(f, "{}", u8::from(self.bit(i)))?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Challenge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in (0..self.stages()).rev() {
            write!(f, "{}", u8::from(self.bit(i)))?;
        }
        Ok(())
    }
}

/// The transformed challenge `φ(c)` — a `±1` vector of length `stages + 1`.
///
/// Newtype over `Vec<f64>` so signatures distinguish raw challenges from
/// model inputs.
#[derive(Clone, Debug, PartialEq)]
pub struct FeatureVector(pub(crate) Vec<f64>);

impl FeatureVector {
    /// The features as a slice; length is `stages + 1`.
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// Number of features (`stages + 1`).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the vector is empty (never true for a valid transform).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Inner product with a weight vector.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn dot(&self, weights: &[f64]) -> f64 {
        assert_eq!(
            self.0.len(),
            weights.len(),
            "feature/weight length mismatch"
        );
        self.0.iter().zip(weights).map(|(a, b)| a * b).sum()
    }

    /// Consumes the vector and returns the underlying storage.
    pub fn into_inner(self) -> Vec<f64> {
        self.0
    }
}

impl AsRef<[f64]> for FeatureVector {
    fn as_ref(&self) -> &[f64] {
        &self.0
    }
}

impl From<FeatureVector> for Vec<f64> {
    fn from(v: FeatureVector) -> Self {
        v.0
    }
}

/// Generates `count` uniformly random challenges.
///
/// Convenience wrapper used throughout the test benches; duplicates are
/// possible (and astronomically unlikely for 32+ stages), matching the
/// paper's "1,000,000 randomly chosen challenges".
pub fn random_challenges<R: Rng + ?Sized>(
    stages: usize,
    count: usize,
    rng: &mut R,
) -> Vec<Challenge> {
    (0..count).map(|_| Challenge::random(stages, rng)).collect()
}

/// Iterates over **all** `2^stages` challenges in ascending bit order —
/// exact population statistics for small PUFs (uniqueness/uniformity
/// without sampling error, brute-force verification of analytic claims).
///
/// # Panics
///
/// Panics if `stages` is 0 or exceeds 24 (16.7 M challenges) — beyond that
/// exhaustive enumeration stops being a sane tool.
pub fn exhaustive_challenges(stages: usize) -> ExhaustiveChallenges {
    assert!(
        (1..=24).contains(&stages),
        "exhaustive enumeration supports 1..=24 stages, got {stages}"
    );
    ExhaustiveChallenges {
        next: 0,
        end: 1u64 << stages,
        stages: stages as u8,
    }
}

/// Iterator over every challenge of a small PUF; see
/// [`exhaustive_challenges`].
#[derive(Clone, Debug)]
pub struct ExhaustiveChallenges {
    next: u64,
    end: u64,
    stages: u8,
}

impl Iterator for ExhaustiveChallenges {
    type Item = Challenge;

    fn next(&mut self) -> Option<Challenge> {
        if self.next >= self.end {
            return None;
        }
        let c = Challenge {
            bits: u128::from(self.next),
            stages: self.stages,
        };
        self.next += 1;
        Some(c)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.end - self.next) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for ExhaustiveChallenges {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn from_bits_masks_extra_bits() {
        let c = Challenge::from_bits(0b1111_0000, 4).unwrap();
        assert_eq!(c.bits(), 0);
    }

    #[test]
    fn from_bits_rejects_bad_stage_counts() {
        assert_eq!(
            Challenge::from_bits(0, 0),
            Err(PufError::InvalidStageCount { stages: 0 })
        );
        assert_eq!(
            Challenge::from_bits(0, 129),
            Err(PufError::InvalidStageCount { stages: 129 })
        );
        assert!(Challenge::from_bits(u128::MAX, 128).is_ok());
    }

    #[test]
    fn features_of_zero_challenge_are_all_ones() {
        let c = Challenge::zero(32);
        assert!(c.features().as_slice().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn features_length_is_stages_plus_one() {
        for stages in [1, 2, 16, 32, 64, 128] {
            let c = Challenge::zero(stages);
            assert_eq!(c.features().len(), stages + 1);
        }
    }

    #[test]
    fn feature_definition_matches_suffix_product() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..50 {
            let c = Challenge::random(16, &mut rng);
            let phi = c.features();
            for i in 0..16 {
                let mut prod = 1.0;
                for j in i..16 {
                    prod *= 1.0 - 2.0 * f64::from(u8::from(c.bit(j)));
                }
                assert_eq!(phi.as_slice()[i], prod, "feature {i} of {c:?}");
            }
            assert_eq!(phi.as_slice()[16], 1.0);
        }
    }

    #[test]
    fn flipping_last_bit_flips_all_features_but_bias() {
        let c = Challenge::zero(8);
        let f0 = c.features();
        let f1 = c.with_flipped_bit(7).features();
        for i in 0..8 {
            assert_eq!(f0.as_slice()[i], -f1.as_slice()[i]);
        }
        assert_eq!(f1.as_slice()[8], 1.0);
    }

    #[test]
    fn display_and_debug_render_bits() {
        let c = Challenge::from_bits(0b101, 3).unwrap();
        assert_eq!(c.to_string(), "101");
        assert!(format!("{c:?}").contains("101"));
    }

    #[test]
    fn dot_product() {
        let c = Challenge::zero(2);
        let phi = c.features();
        assert_eq!(phi.dot(&[1.0, 2.0, 3.0]), 6.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_panics_on_length_mismatch() {
        Challenge::zero(2).features().dot(&[1.0]);
    }

    #[test]
    fn random_challenges_have_uniform_bits() {
        let mut rng = StdRng::seed_from_u64(21);
        let cs = random_challenges(32, 20_000, &mut rng);
        for i in 0..32 {
            let ones = cs.iter().filter(|c| c.bit(i)).count() as f64;
            let frac = ones / cs.len() as f64;
            assert!((frac - 0.5).abs() < 0.02, "bit {i}: {frac}");
        }
    }

    #[test]
    fn exhaustive_enumeration_is_complete_and_unique() {
        let all: Vec<Challenge> = exhaustive_challenges(10).collect();
        assert_eq!(all.len(), 1024);
        let distinct: std::collections::HashSet<u128> = all.iter().map(|c| c.bits()).collect();
        assert_eq!(distinct.len(), 1024);
        // Each stage bit is exactly half ones.
        for i in 0..10 {
            assert_eq!(all.iter().filter(|c| c.bit(i)).count(), 512);
        }
        let it = exhaustive_challenges(6);
        assert_eq!(it.len(), 64);
    }

    #[test]
    #[should_panic(expected = "1..=24")]
    fn exhaustive_enumeration_rejects_large_stages() {
        exhaustive_challenges(25);
    }

    #[test]
    fn exhaustive_population_delta_moments_match_weights() {
        // Over the FULL challenge population the φ features are exactly
        // orthonormal, so mean(Δ) = w_bias and var(Δ) = Σ_{i<k} w_i².
        let mut rng = StdRng::seed_from_u64(77);
        let puf = crate::ArbiterPuf::random(12, &mut rng);
        let deltas: Vec<f64> = exhaustive_challenges(12)
            .map(|c| puf.delay_difference(&c))
            .collect();
        let mean = crate::math::mean(&deltas);
        let bias = puf.weights()[12];
        assert!((mean - bias).abs() < 1e-10, "mean {mean} vs bias {bias}");
        let var = deltas.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / deltas.len() as f64;
        let want: f64 = puf.weights()[..12].iter().map(|w| w * w).sum();
        assert!((var - want).abs() < 1e-10, "var {var} vs Σw² {want}");
    }

    proptest! {
        #[test]
        fn prop_features_are_pm_one(bits in any::<u128>(), stages in 1usize..=128) {
            let c = Challenge::from_bits(bits, stages).unwrap();
            for &v in c.features().as_slice() {
                prop_assert!(v == 1.0 || v == -1.0);
            }
        }

        #[test]
        fn prop_double_flip_is_identity(bits in any::<u128>(), stages in 1usize..=128, idx in 0usize..128) {
            let idx = idx % stages;
            let c = Challenge::from_bits(bits, stages).unwrap();
            prop_assert_eq!(c.with_flipped_bit(idx).with_flipped_bit(idx), c);
        }

        #[test]
        fn prop_flip_bit_i_changes_prefix_features(bits in any::<u128>(), stages in 2usize..=64, idx in 0usize..64) {
            let idx = idx % stages;
            let c = Challenge::from_bits(bits, stages).unwrap();
            let f0 = c.features();
            let f1 = c.with_flipped_bit(idx).features();
            // Features 0..=idx flip sign; features idx+1.. are untouched.
            for i in 0..=idx {
                prop_assert_eq!(f0.as_slice()[i], -f1.as_slice()[i]);
            }
            for i in (idx + 1)..=stages {
                prop_assert_eq!(f0.as_slice()[i], f1.as_slice()[i]);
            }
        }
    }
}
