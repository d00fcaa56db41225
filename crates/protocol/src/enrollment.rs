//! The enrollment phase of the model-assisted XOR PUF (paper Fig. 6).
//!
//! For each individual PUF behind the fuse port:
//!
//! 1. measure soft responses of a small training set of challenges
//!    (default 5,000, paper §5) with the on-chip counter,
//! 2. fit a linear-regression model of the delay parameters from the soft
//!    responses,
//! 3. derive the `Thr(0)`/`Thr(1)` classification thresholds by comparing
//!    predictions with measurements,
//! 4. fit the β tightening factors on a held-out validation measurement,
//!
//! then blow the fuses. The resulting [`EnrolledPuf`] records are what the
//! server database stores (delay parameters rather than an exhaustive CRP
//! table, per the paper's Refs. 4, 6-7).

use crate::threshold::{fit_betas, Betas, StabilityClass, Thresholds};
use crate::ProtocolError;
use puf_core::batch::FeatureMatrix;
use puf_core::{challenge::random_challenges, Challenge, Condition};
use puf_ml::LinearRegression;
use puf_silicon::{counter, Chip, SiliconError, SoftResponse};
use rand::Rng;

/// Enrollment hyper-parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct EnrollmentConfig {
    /// XOR width to enroll (number of member PUFs).
    pub n: usize,
    /// Training-set size per PUF. Paper default: 5,000.
    pub training_size: usize,
    /// Validation-set size per PUF for β fitting. Default: 2,000.
    pub validation_size: usize,
    /// Counter evaluations per soft-response measurement. Paper: 100,000.
    pub evals: u64,
    /// Ridge regularisation of the linear fit. Default 1e-6 (numerical
    /// stabilisation only).
    pub ridge: f64,
    /// Enrollment condition. Paper: 0.9 V / 25 °C.
    pub condition: Condition,
    /// Conditions at which the validation set is measured for β fitting.
    /// `[Condition::NOMINAL]` reproduces §5.1; the full
    /// [`Condition::paper_grid`] reproduces the stricter §5.2 fit whose
    /// selections survive voltage/temperature corners.
    pub validation_conditions: Vec<Condition>,
}

impl EnrollmentConfig {
    /// The paper's enrollment setup for an `n`-input XOR PUF.
    pub fn paper_default(n: usize) -> Self {
        Self {
            n,
            training_size: 5_000,
            validation_size: 2_000,
            evals: 100_000,
            ridge: 1e-6,
            condition: Condition::NOMINAL,
            validation_conditions: vec![Condition::NOMINAL],
        }
    }

    /// The paper's §5.2 variant: β fitting against measurements at all nine
    /// V/T corners, so selected challenges stay stable across the grid.
    pub fn paper_all_conditions(n: usize) -> Self {
        Self {
            validation_conditions: Condition::paper_grid(),
            ..Self::paper_default(n)
        }
    }

    /// A reduced-scale setup for fast tests.
    pub fn small(n: usize) -> Self {
        Self {
            n,
            training_size: 800,
            validation_size: 400,
            evals: 2_000,
            ridge: 1e-6,
            condition: Condition::NOMINAL,
            validation_conditions: vec![Condition::NOMINAL],
        }
    }
}

/// The enrollment record of one member PUF: its fitted delay-parameter
/// model, raw thresholds and fitted βs.
#[derive(Clone, Debug, PartialEq)]
pub struct EnrolledPuf {
    /// Linear model of the PUF's soft responses.
    pub model: LinearRegression,
    /// Raw training-set thresholds.
    pub thresholds: Thresholds,
    /// Fitted tightening factors.
    pub betas: Betas,
}

impl EnrolledPuf {
    /// Effective (β-adjusted) thresholds used during authentication.
    pub fn effective_thresholds(&self) -> Thresholds {
        self.thresholds.adjusted(self.betas)
    }

    /// Classifies a challenge through the adjusted thresholds.
    pub fn classify(&self, challenge: &Challenge) -> StabilityClass {
        self.effective_thresholds()
            .classify(self.model.predict(challenge))
    }
}

/// The full enrollment record of a chip's XOR PUF.
#[derive(Clone, Debug, PartialEq)]
pub struct EnrolledChip {
    /// The enrolled chip's id.
    pub chip_id: u32,
    /// Number of delay stages.
    pub stages: usize,
    /// One record per member PUF (length `n`).
    pub pufs: Vec<EnrolledPuf>,
}

impl EnrolledChip {
    /// XOR width.
    pub fn n(&self) -> usize {
        self.pufs.len()
    }

    /// Classifies a challenge: `Some(bit)` iff **every** member PUF is
    /// predicted stable, in which case `bit` is the XOR of the members'
    /// predicted bits (paper Fig. 7, "All predicted responses stable?").
    pub fn predict_stable_xor(&self, challenge: &Challenge) -> Option<bool> {
        let mut acc = false;
        for puf in &self.pufs {
            acc ^= puf.classify(challenge).bit()?;
        }
        Some(acc)
    }

    /// Fraction of a challenge list predicted fully stable.
    pub fn predicted_stable_fraction(&self, challenges: &[Challenge]) -> f64 {
        if challenges.is_empty() {
            return f64::NAN;
        }
        challenges
            .iter()
            .filter(|c| self.predict_stable_xor(c).is_some())
            .count() as f64
            / challenges.len() as f64
    }

    /// Overrides every member's βs (e.g. with lot-wide conservative values
    /// or the stricter all-V/T values of §5.2).
    pub fn with_betas(mut self, betas: Betas) -> Self {
        for puf in &mut self.pufs {
            puf.betas = betas;
        }
        self
    }

    /// The most conservative β pair across the member PUFs.
    pub fn conservative_betas(&self) -> Betas {
        self.pufs
            .iter()
            .map(|p| p.betas)
            .fold(Betas::new(f64::MAX, f64::MIN_POSITIVE), |acc, b| {
                acc.most_conservative(b)
            })
    }
}

/// Runs the enrollment phase on a chip (fuses must be intact). Does **not**
/// blow the fuses — the caller decides when to deploy.
///
/// # Errors
///
/// - [`ProtocolError::Silicon`] if the fuses are already blown, the XOR
///   width is 0 or exceeds the chip's bank, or the chip rejects a
///   measurement.
/// - [`ProtocolError::DegenerateTraining`] if a member PUF's training data
///   cannot produce thresholds (all measurements saturated one way).
/// - [`ProtocolError::BetaFitFailed`] if no β tightening filters the
///   validation set.
/// - [`ProtocolError::Fit`] if the regression system is singular.
pub fn enroll<R: Rng + ?Sized>(
    chip: &Chip,
    config: &EnrollmentConfig,
    rng: &mut R,
) -> Result<EnrolledChip, ProtocolError> {
    let training = random_challenges(chip.stages(), config.training_size, rng);
    let validation = random_challenges(chip.stages(), config.validation_size, rng);
    enroll_with_challenges(chip, config, &training, &validation, rng)
}

/// [`enroll`] with caller-supplied training/validation challenge lists
/// (used by the fig harnesses to hold challenges fixed across sweeps).
///
/// # Errors
///
/// See [`enroll`].
pub fn enroll_with_challenges<R: Rng + ?Sized>(
    chip: &Chip,
    config: &EnrollmentConfig,
    training: &[Challenge],
    validation: &[Challenge],
    rng: &mut R,
) -> Result<EnrolledChip, ProtocolError> {
    if config.n == 0 || config.n > chip.bank_size() {
        return Err(ProtocolError::Silicon(SiliconError::XorWidthOutOfRange {
            n: config.n,
            bank_size: chip.bank_size(),
        }));
    }
    if training.is_empty() {
        return Err(ProtocolError::DegenerateTraining { puf: 0 });
    }
    let _span = puf_telemetry::span!("protocol.enroll.duration");
    let _trace = puf_telemetry::trace_span!("protocol.enroll.chip");
    puf_telemetry::counter!("protocol.enroll.pufs").add(config.n as u64);
    // Feature matrices are built once and reused across every member PUF
    // and every validation condition.
    let fm_train = features_for(chip, training)?;
    let fm_val = if validation.is_empty() {
        None
    } else {
        Some(features_for(chip, validation)?)
    };
    let mut pufs = Vec::with_capacity(config.n);
    for puf_idx in 0..config.n {
        // 1. Counter measurements of the training set (batched; the draws
        //    happen in challenge order, identical to per-challenge calls).
        let soft_values: Vec<f64> = chip
            .measure_individual_soft_batch(puf_idx, &fm_train, config.condition, config.evals, rng)?
            .iter()
            .map(SoftResponse::value)
            .collect();

        // 2. Linear regression on the soft responses.
        let model = LinearRegression::fit_challenges(training, &soft_values, config.ridge)?;

        // 3. Thresholds from predicted-vs-measured comparison.
        let pairs: Vec<(f64, f64)> = model
            .predict_batch(training)
            .into_iter()
            .zip(soft_values)
            .collect();
        let thresholds = Thresholds::from_training(&pairs)
            .ok_or(ProtocolError::DegenerateTraining { puf: puf_idx })?;

        // 4. β fitting on held-out measurements; a challenge only counts as
        //    stable if it measures 100 % stable at every validation
        //    condition.
        let triples = match &fm_val {
            Some(fm_val) => stability_triples(
                chip,
                puf_idx,
                &model,
                fm_val,
                &config.validation_conditions,
                config.evals,
                rng,
            )?,
            None => Vec::new(),
        };
        let betas = if triples.is_empty() {
            Betas::IDENTITY
        } else {
            fit_betas(thresholds, &triples).ok_or(ProtocolError::BetaFitFailed { puf: puf_idx })?
        };

        pufs.push(EnrolledPuf {
            model,
            thresholds,
            betas,
        });
    }
    Ok(EnrolledChip {
        chip_id: chip.id(),
        stages: chip.stages(),
        pufs,
    })
}

/// Fits β values for one member PUF against direct measurements of a
/// (typically large) challenge set, optionally across several operating
/// conditions — the paper's §5.1/§5.2 procedure where the 1,000,000-CRP
/// test set itself drives the tightening.
///
/// A challenge counts as *measured stable 0* only if it measures 100 %
/// stable 0 at **every** condition in `conditions` (and likewise for 1);
/// anything else is a violation if classified stable.
///
/// # Errors
///
/// - [`ProtocolError::Silicon`] on measurement failures (e.g. blown fuses).
/// - [`ProtocolError::BetaFitFailed`] if no tightening filters the set.
///
/// # Panics
///
/// Panics if `challenges` or `conditions` is empty.
#[allow(clippy::too_many_arguments)]
pub fn fit_betas_on_measurements<R: Rng + ?Sized>(
    chip: &Chip,
    puf: usize,
    model: &LinearRegression,
    thresholds: Thresholds,
    challenges: &[Challenge],
    conditions: &[Condition],
    evals: u64,
    rng: &mut R,
) -> Result<Betas, ProtocolError> {
    assert!(!challenges.is_empty(), "need challenges to fit betas");
    assert!(!conditions.is_empty(), "need at least one condition");
    let features = features_for(chip, challenges)?;
    let triples = stability_triples(chip, puf, model, &features, conditions, evals, rng)?;
    fit_betas(thresholds, &triples).ok_or(ProtocolError::BetaFitFailed { puf })
}

/// Builds the enrollment feature matrix, mapping a core-layer stage error
/// onto the silicon error the per-challenge measurement path would have
/// produced.
fn features_for(chip: &Chip, challenges: &[Challenge]) -> Result<FeatureMatrix, ProtocolError> {
    FeatureMatrix::new(chip.stages(), challenges).map_err(|_| {
        let actual = challenges
            .iter()
            .find(|c| c.stages() != chip.stages())
            .map_or(chip.stages(), Challenge::stages);
        ProtocolError::Silicon(SiliconError::StageMismatch {
            expected: chip.stages(),
            actual,
        })
    })
}

/// `(prediction, measured-stable-0, measured-stable-1)` per challenge —
/// enrollment-only (individual-PUF) measurements, batched.
///
/// The ground-truth probabilities come from one grid call (one bit-sliced
/// kernel pass per condition, the mismatch term hashed once); the counter
/// draws then replay the scalar order (challenge
/// outer, condition inner, early break once both stabilities are lost), so
/// seeded results are bit-identical to per-challenge measurement.
fn stability_triples<R: Rng + ?Sized>(
    chip: &Chip,
    puf: usize,
    model: &LinearRegression,
    features: &FeatureMatrix,
    conditions: &[Condition],
    evals: u64,
    rng: &mut R,
) -> Result<Vec<(f64, bool, bool)>, ProtocolError> {
    if !chip.fuses_intact() {
        return Err(ProtocolError::Silicon(SiliconError::FusesBlown));
    }
    let cond_probs = chip.ground_truth_soft_grid(puf, features, conditions)?;
    let preds = model.predict_batch(features.challenges());
    let mut draws = 0u64;
    let mut triples = Vec::with_capacity(features.len());
    for (i, pred) in preds.into_iter().enumerate() {
        let mut stable0 = true;
        let mut stable1 = true;
        for probs in &cond_probs {
            draws += 1;
            let s = counter::measure(probs[i], evals, rng);
            stable0 &= s.is_stable_zero();
            stable1 &= s.is_stable_one();
            if !stable0 && !stable1 {
                break;
            }
        }
        triples.push((pred, stable0, stable1));
    }
    puf_telemetry::counter!("silicon.measure.evals").add(draws * evals);
    Ok(triples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use puf_silicon::{ChipConfig, SiliconError};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn enrolled_small(seed: u64) -> (Chip, EnrolledChip, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let chip = Chip::fabricate(7, &ChipConfig::small(), &mut rng);
        let config = EnrollmentConfig::small(2);
        let enrolled = enroll(&chip, &config, &mut rng).expect("enrollment failed");
        (chip, enrolled, rng)
    }

    #[test]
    fn enrollment_produces_records_per_puf() {
        let (_, enrolled, _) = enrolled_small(1);
        assert_eq!(enrolled.n(), 2);
        assert_eq!(enrolled.chip_id, 7);
        for puf in &enrolled.pufs {
            assert!(puf.thresholds.thr0 <= puf.thresholds.thr1);
            assert!(puf.betas.beta0 <= 0.99 + 1e-9);
            assert!(puf.betas.beta1 >= 1.01 - 1e-9);
        }
    }

    #[test]
    fn enrollment_fails_on_blown_fuses() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut chip = Chip::fabricate(0, &ChipConfig::small(), &mut rng);
        chip.blow_fuses();
        let err = enroll(&chip, &EnrollmentConfig::small(2), &mut rng).unwrap_err();
        assert_eq!(err, ProtocolError::Silicon(SiliconError::FusesBlown));
    }

    #[test]
    fn enrollment_rejects_bad_xor_width_before_measuring() {
        let mut rng = StdRng::seed_from_u64(8);
        let chip = Chip::fabricate(0, &ChipConfig::small(), &mut rng);
        for n in [0, chip.bank_size() + 1] {
            let config = EnrollmentConfig::small(n);
            let before = rng.clone();
            let err = enroll(&chip, &config, &mut rng).unwrap_err();
            assert_eq!(
                err,
                ProtocolError::Silicon(SiliconError::XorWidthOutOfRange {
                    n,
                    bank_size: chip.bank_size(),
                })
            );
            // Only the challenge draws happened: no member was measured.
            let mut replay = before;
            let drawn = config.training_size + config.validation_size;
            random_challenges(chip.stages(), drawn, &mut replay);
            assert_eq!(rng, replay, "n = {n}");
        }
    }

    #[test]
    fn predicted_stable_challenges_really_are_stable() {
        let (chip, enrolled, mut rng) = enrolled_small(3);
        let test = random_challenges(chip.stages(), 2_000, &mut rng);
        let mut checked = 0;
        let mut wrong = 0;
        for c in &test {
            let Some(predicted_bit) = enrolled.predict_stable_xor(c) else {
                continue;
            };
            checked += 1;
            // Ground truth: all members far from the decision boundary and
            // the reference XOR bit matches.
            let actual = chip.xor_reference_bit(2, c, Condition::NOMINAL).unwrap();
            if actual != predicted_bit {
                wrong += 1;
            }
        }
        assert!(
            checked > 50,
            "selector found too few stable challenges: {checked}"
        );
        assert_eq!(
            wrong, 0,
            "{wrong}/{checked} predicted-stable challenges had the wrong bit"
        );
    }

    #[test]
    fn predicted_stable_fraction_decreases_with_n() {
        let mut rng = StdRng::seed_from_u64(4);
        let chip = Chip::fabricate(0, &ChipConfig::small(), &mut rng);
        let e2 = enroll(&chip, &EnrollmentConfig::small(2), &mut rng).unwrap();
        let e4 = enroll(&chip, &EnrollmentConfig::small(4), &mut rng).unwrap();
        let test = random_challenges(chip.stages(), 1_500, &mut rng);
        let f2 = e2.predicted_stable_fraction(&test);
        let f4 = e4.predicted_stable_fraction(&test);
        assert!(
            f4 < f2,
            "stable fraction should shrink with n: {f2} vs {f4}"
        );
    }

    #[test]
    fn with_betas_overrides_all_members() {
        let (_, enrolled, _) = enrolled_small(5);
        let strict = Betas::new(0.5, 1.5);
        let overridden = enrolled.with_betas(strict);
        for puf in &overridden.pufs {
            assert_eq!(puf.betas, strict);
        }
        assert_eq!(overridden.conservative_betas(), strict);
    }

    #[test]
    fn effective_thresholds_are_tighter() {
        let (_, enrolled, _) = enrolled_small(6);
        for puf in &enrolled.pufs {
            let eff = puf.effective_thresholds();
            assert!(eff.thr0 <= puf.thresholds.thr0 + 1e-12);
            assert!(eff.thr1 >= puf.thresholds.thr1 - 1e-12);
        }
    }
}
