//! Transistor aging model (BTI/HCI-style drift).
//!
//! The paper's introduction names "temperature, voltage, and **aging**
//! conditions" as the reliability axes of arbiter PUFs; its evaluation
//! covers the first two. This module extends the substrate with the third
//! so that the challenge-selection margins can be stress-tested over device
//! lifetime.
//!
//! Bias temperature instability and hot-carrier injection shift individual
//! transistor thresholds roughly with the square root (sub-linear power
//! law) of stress time, with device-to-device randomness. On the delay
//! model that appears as a per-stage weight drift:
//!
//! ```text
//! wᵢ(t) = wᵢ(0) + dᵢ · (t / t₀)^exponent,     dᵢ ~ N(0, σ_drift²)
//! ```
//!
//! Because the drift directions `dᵢ` are frozen at fabrication, aging is a
//! *repeatable* shift (unlike noise): a marginal CRP drifts away and stays
//! away — exactly why the β safety margins exist.

use crate::arbiter::ArbiterPuf;
use crate::rngx;
use rand::Rng;

/// Reference stress time of the drift law (hours). Drifts are expressed as
/// the shift accumulated after this long at nominal stress.
pub const REFERENCE_HOURS: f64 = 10_000.0;

/// Population parameters of the aging process.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AgingModel {
    /// Per-stage drift σ accumulated at [`REFERENCE_HOURS`], in normalised
    /// delay units.
    pub sigma_drift: f64,
    /// Time-law exponent; 0.5 is the classic BTI square-root law.
    pub exponent: f64,
}

impl AgingModel {
    /// Default parameters: a worst-case delay-difference drift of roughly
    /// 0.1 normalised units at the 10,000-hour reference — comparable to
    /// one V/T corner, and safely inside the all-V/T β margins.
    pub fn paper_default() -> Self {
        Self {
            sigma_drift: 0.017,
            exponent: 0.5,
        }
    }

    /// No aging at all.
    pub fn none() -> Self {
        Self {
            sigma_drift: 0.0,
            exponent: 0.5,
        }
    }

    /// The scalar drift multiplier at `hours` of stress.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite `hours`.
    pub fn time_factor(&self, hours: f64) -> f64 {
        assert!(
            hours >= 0.0 && hours.is_finite(),
            "hours must be finite and non-negative"
        );
        (hours / REFERENCE_HOURS).powf(self.exponent)
    }
}

impl Default for AgingModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// One PUF's frozen drift directions.
#[derive(Clone, Debug, PartialEq)]
pub struct DriftVector {
    drift: Vec<f64>,
}

impl DriftVector {
    /// Draws per-stage drift directions for a `stages`-stage PUF.
    pub fn random<R: Rng + ?Sized>(stages: usize, model: &AgingModel, rng: &mut R) -> Self {
        let mut drift = vec![0.0; stages + 1];
        rngx::fill_normal(rng, model.sigma_drift, &mut drift);
        Self { drift }
    }

    /// A drift of exactly zero (an unaging PUF).
    pub fn zero(stages: usize) -> Self {
        Self {
            drift: vec![0.0; stages + 1],
        }
    }

    /// The per-stage drifts at the reference time (length `stages + 1`).
    pub fn as_slice(&self) -> &[f64] {
        &self.drift
    }

    /// The PUF's weights after `hours` of stress.
    ///
    /// # Panics
    ///
    /// Panics if the drift length does not match the PUF, or on invalid
    /// `hours`.
    pub fn aged_puf(&self, puf: &ArbiterPuf, model: &AgingModel, hours: f64) -> ArbiterPuf {
        assert_eq!(
            puf.weights().len(),
            self.drift.len(),
            "drift/PUF length mismatch"
        );
        let factor = model.time_factor(hours);
        puf.map_weights(|i, w| w + self.drift[i] * factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::challenge::random_challenges;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn time_factor_square_root_law() {
        let m = AgingModel::paper_default();
        assert_eq!(m.time_factor(0.0), 0.0);
        assert!((m.time_factor(REFERENCE_HOURS) - 1.0).abs() < 1e-12);
        assert!((m.time_factor(REFERENCE_HOURS * 4.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fresh_device_is_unchanged() {
        let mut rng = StdRng::seed_from_u64(1);
        let puf = ArbiterPuf::random(32, &mut rng);
        let model = AgingModel::paper_default();
        let drift = DriftVector::random(32, &model, &mut rng);
        let aged = drift.aged_puf(&puf, &model, 0.0);
        assert_eq!(aged.weights(), puf.weights());
    }

    #[test]
    fn aging_is_repeatable_and_monotone_in_time() {
        let mut rng = StdRng::seed_from_u64(2);
        let puf = ArbiterPuf::random(32, &mut rng);
        let model = AgingModel::paper_default();
        let drift = DriftVector::random(32, &model, &mut rng);
        let a1 = drift.aged_puf(&puf, &model, 1_000.0);
        let a1_again = drift.aged_puf(&puf, &model, 1_000.0);
        assert_eq!(a1.weights(), a1_again.weights(), "aging must be repeatable");
        // Each weight moves monotonically along its drift direction.
        let a4 = drift.aged_puf(&puf, &model, 4_000.0);
        for ((w0, w1), (w4, d)) in puf
            .weights()
            .iter()
            .zip(a1.weights())
            .zip(a4.weights().iter().zip(drift.as_slice()))
        {
            let step1 = w1 - w0;
            let step4 = w4 - w0;
            assert_eq!(step1.signum(), d.signum());
            assert!(step4.abs() >= step1.abs());
        }
    }

    #[test]
    fn aged_device_flips_some_marginal_responses() {
        let mut rng = StdRng::seed_from_u64(3);
        let puf = ArbiterPuf::random(32, &mut rng);
        let model = AgingModel::paper_default();
        let drift = DriftVector::random(32, &model, &mut rng);
        let old = drift.aged_puf(&puf, &model, 10.0 * REFERENCE_HOURS);
        let challenges = random_challenges(32, 10_000, &mut rng);
        let flips = challenges
            .iter()
            .filter(|c| puf.response(c) != old.response(c))
            .count();
        let rate = flips as f64 / challenges.len() as f64;
        assert!(rate > 0.001, "decade-aged device flipped nothing: {rate}");
        assert!(rate < 0.25, "aging model too violent: {rate}");
    }

    #[test]
    fn zero_drift_never_flips() {
        let mut rng = StdRng::seed_from_u64(4);
        let puf = ArbiterPuf::random(16, &mut rng);
        let model = AgingModel::paper_default();
        let drift = DriftVector::zero(16);
        let old = drift.aged_puf(&puf, &model, 100.0 * REFERENCE_HOURS);
        assert_eq!(old.weights(), puf.weights());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_hours_rejected() {
        AgingModel::paper_default().time_factor(-1.0);
    }
}
