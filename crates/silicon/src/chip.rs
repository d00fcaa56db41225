//! Fabricated PUF test chips and chip lots.

use crate::counter::{self, SoftResponse};
use crate::fuse::FuseBank;
use crate::SiliconError;
use puf_core::batch::{throughput_guard, FeatureMatrix};
use puf_core::math::{normal_cdf, SATURATED_X};
use puf_core::rngx;
use puf_core::{
    AgingModel, ArbiterPuf, Challenge, Condition, DriftVector, Environment, NoiseModel, Sensitivity,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fabrication parameters for a [`Chip`].
#[derive(Clone, Debug, PartialEq)]
pub struct ChipConfig {
    /// Delay stages per arbiter PUF (the paper's chips have 32).
    pub stages: usize,
    /// Number of arbiter PUFs in the bank (the paper XORs up to 10 and
    /// attacks up to n = 11, so the default bank carries 12).
    pub bank_size: usize,
    /// Population-level voltage/temperature model.
    pub environment: Environment,
    /// Nominal-condition arbiter noise model.
    pub noise: NoiseModel,
    /// Standard deviation of the repeatable per-challenge *model mismatch*
    /// — the nonlinear residual of real silicon relative to the linear
    /// additive delay model, in normalised delay units. The paper's own
    /// data exhibits it: the linear model certifies only ~60 % of CRPs as
    /// stable against ~80 % in measurement. Zero gives an idealised,
    /// perfectly linear chip.
    pub model_mismatch_sigma: f64,
    /// Transistor aging (BTI/HCI drift) population parameters.
    pub aging: AgingModel,
}

impl ChipConfig {
    /// The configuration matching the paper's 32 nm test chips: 32 stages,
    /// a 12-PUF bank, the calibrated noise model and the default V/T model.
    pub fn paper_default() -> Self {
        Self {
            stages: puf_core::PAPER_STAGES,
            bank_size: 12,
            environment: Environment::paper_default(),
            noise: NoiseModel::paper_default(),
            model_mismatch_sigma: 0.09,
            aging: AgingModel::paper_default(),
        }
    }

    /// A small, fast configuration for unit tests: 16 stages, 4 PUFs and a
    /// 1,000-evaluation noise model.
    pub fn small() -> Self {
        Self {
            stages: 16,
            bank_size: 4,
            environment: Environment::paper_default(),
            noise: NoiseModel::paper_default().with_evaluations(1_000),
            model_mismatch_sigma: 0.09,
            aging: AgingModel::paper_default(),
        }
    }

    /// A copy with a different model-mismatch σ (builder style); 0 gives an
    /// idealised, perfectly linear chip.
    pub fn with_model_mismatch(mut self, sigma: f64) -> Self {
        assert!(
            sigma >= 0.0 && sigma.is_finite(),
            "sigma must be finite and non-negative"
        );
        self.model_mismatch_sigma = sigma;
        self
    }
}

impl Default for ChipConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// One simulated die: a bank of arbiter PUFs, their per-stage V/T
/// sensitivities, a fuse bank and the noise model.
///
/// See the crate-level docs for an end-to-end example.
#[derive(Clone, Debug)]
pub struct Chip {
    id: u32,
    pufs: Vec<ArbiterPuf>,
    sensitivities: Vec<Sensitivity>,
    environment: Environment,
    noise: NoiseModel,
    model_mismatch_sigma: f64,
    mismatch_nonces: Vec<u64>,
    aging: AgingModel,
    drifts: Vec<DriftVector>,
    age_hours: f64,
    fuses: FuseBank,
}

impl Chip {
    /// Fabricates a chip: draws process variation for every PUF in the bank
    /// plus its V/T sensitivities.
    ///
    /// # Panics
    ///
    /// Panics if the config has zero stages or an empty bank.
    pub fn fabricate<R: Rng + ?Sized>(id: u32, config: &ChipConfig, rng: &mut R) -> Self {
        assert!(config.bank_size >= 1, "bank_size must be at least 1");
        let pufs: Vec<ArbiterPuf> = (0..config.bank_size)
            .map(|_| ArbiterPuf::random(config.stages, rng))
            .collect();
        let sensitivities = (0..config.bank_size)
            .map(|_| {
                Sensitivity::random(
                    config.stages,
                    config.environment.sigma_v,
                    config.environment.sigma_t,
                    rng,
                )
            })
            .collect();
        let mismatch_nonces = (0..config.bank_size).map(|_| rng.gen()).collect();
        let drifts = (0..config.bank_size)
            .map(|_| DriftVector::random(config.stages, &config.aging, rng))
            .collect();
        Self {
            id,
            pufs,
            sensitivities,
            environment: config.environment.clone(),
            noise: config.noise,
            model_mismatch_sigma: config.model_mismatch_sigma,
            mismatch_nonces,
            aging: config.aging,
            drifts,
            age_hours: 0.0,
            fuses: FuseBank::new(),
        }
    }

    /// Hours of stress the chip has accumulated (0 when fresh).
    pub fn age_hours(&self) -> f64 {
        self.age_hours
    }

    /// Ages the chip to `hours` of total stress: per-stage delays drift
    /// along the chip's frozen BTI/HCI directions (see
    /// [`puf_core::aging`]). Aging is repeatable and affects every
    /// subsequent measurement.
    ///
    /// # Panics
    ///
    /// Panics if `hours` is negative, non-finite, or would rejuvenate the
    /// chip (aging is monotone).
    pub fn set_age(&mut self, hours: f64) {
        assert!(
            hours >= self.age_hours,
            "aging is monotone: cannot go from {} to {hours} hours",
            self.age_hours
        );
        // Validates non-negativity/finiteness as a side effect.
        let _ = self.aging.time_factor(hours);
        self.age_hours = hours;
    }

    /// Chip identifier (die number within the lot).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Delay stages per PUF.
    pub fn stages(&self) -> usize {
        self.pufs[0].stages()
    }

    /// Number of arbiter PUFs in the bank.
    pub fn bank_size(&self) -> usize {
        self.pufs.len()
    }

    /// The chip's environment model.
    pub fn environment(&self) -> &Environment {
        &self.environment
    }

    /// The nominal noise model.
    pub fn noise(&self) -> NoiseModel {
        self.noise
    }

    /// The noise model at an operating condition (σ scaled by the
    /// environment's noise factor).
    pub fn noise_at(&self, cond: Condition) -> NoiseModel {
        self.noise.scaled(self.environment.noise_scale(cond))
    }

    /// Whether the enrollment fuses are still intact.
    pub fn fuses_intact(&self) -> bool {
        self.fuses.is_intact()
    }

    /// Permanently blows the enrollment fuses (idempotent).
    pub fn blow_fuses(&mut self) {
        self.fuses.blow();
    }

    /// Reads the fuse state through the sense path; `glitch` models one
    /// transient sense failure drawn by the caller's seeded fault plan (see
    /// [`crate::fuse::FuseBank::sense`]).
    pub fn fuse_sense(&self, glitch: bool) -> crate::fuse::FuseSense {
        self.fuses.sense(glitch)
    }

    fn check_puf(&self, puf: usize) -> Result<(), SiliconError> {
        if puf >= self.bank_size() {
            return Err(SiliconError::PufIndexOutOfRange {
                index: puf,
                bank_size: self.bank_size(),
            });
        }
        Ok(())
    }

    fn check_challenge(&self, challenge: &Challenge) -> Result<(), SiliconError> {
        if challenge.stages() != self.stages() {
            return Err(SiliconError::StageMismatch {
                expected: self.stages(),
                actual: challenge.stages(),
            });
        }
        Ok(())
    }

    fn check_fuses(&self) -> Result<(), SiliconError> {
        if self.fuses.is_blown() {
            return Err(SiliconError::FusesBlown);
        }
        Ok(())
    }

    fn check_feature_stages(&self, features: &FeatureMatrix) -> Result<(), SiliconError> {
        if features.stages() != self.stages() {
            return Err(SiliconError::StageMismatch {
                expected: self.stages(),
                actual: features.stages(),
            });
        }
        Ok(())
    }

    fn check_xor_width(&self, n: usize) -> Result<(), SiliconError> {
        if n == 0 || n > self.bank_size() {
            return Err(SiliconError::XorWidthOutOfRange {
                n,
                bank_size: self.bank_size(),
            });
        }
        Ok(())
    }

    /// The condition-adjusted arbiter PUF at bank index `puf`.
    ///
    /// This is *simulation ground truth* (physically, the weights exist only
    /// as transistor mismatch); it is exposed for calibration experiments
    /// and oracles in tests — protocol code must go through the measurement
    /// API instead.
    ///
    /// # Errors
    ///
    /// Returns [`SiliconError::PufIndexOutOfRange`] for a bad index.
    pub fn ground_truth_puf(
        &self,
        puf: usize,
        cond: Condition,
    ) -> Result<ArbiterPuf, SiliconError> {
        self.check_puf(puf)?;
        Ok(self
            .environment
            .puf_at(&self.pufs[puf], &self.sensitivities[puf], cond))
    }

    /// Analytic per-evaluation probability that PUF `puf` reads `1` for
    /// `challenge` at `cond`. Simulation ground truth; see
    /// [`Chip::ground_truth_puf`].
    ///
    /// # Errors
    ///
    /// Bad index or stage mismatch.
    pub fn ground_truth_soft(
        &self,
        puf: usize,
        challenge: &Challenge,
        cond: Condition,
    ) -> Result<f64, SiliconError> {
        self.check_puf(puf)?;
        self.check_challenge(challenge)?;
        let adjusted = self.adjusted_puf(&self.aged_puf(puf), puf, cond);
        let delta = adjusted.delay_difference(challenge)
            + self.model_mismatch_sigma
                * rngx::gaussian_hash(self.mismatch_nonces[puf], challenge.bits());
        Ok(self.noise_at(cond).soft_response(delta))
    }

    /// Batched [`Chip::ground_truth_soft`] over a whole feature matrix: the
    /// one-condition case of [`Chip::ground_truth_soft_grid`].
    ///
    /// # Errors
    ///
    /// Bad index or stage mismatch.
    pub fn ground_truth_soft_batch(
        &self,
        puf: usize,
        features: &FeatureMatrix,
        cond: Condition,
    ) -> Result<Vec<f64>, SiliconError> {
        let mut grid = self.ground_truth_soft_grid(puf, features, &[cond])?;
        Ok(grid.pop().unwrap_or_default())
    }

    /// [`Chip::ground_truth_soft`] for every row of a feature matrix at each
    /// condition in `conds`, one vector per condition. The aged PUF and the
    /// condition-independent model-mismatch term `σ_m · gaussian_hash` are
    /// computed **once** and reused for every condition; each condition then
    /// pays one PUF adjustment and one pass of the bit-sliced delta kernel
    /// ([`puf_core::bitslice`], widest available SIMD lane). Bit-identical
    /// to the scalar call per row and condition — the bit-sliced kernel
    /// reproduces the scalar summation order exactly.
    ///
    /// This is the hot loop of enrollment's V/T validation and the testbench
    /// soft sweeps, so it reports throughput under `eval.bitslice.*` rather
    /// than `eval.batch.*`.
    ///
    /// # Errors
    ///
    /// Bad index or stage mismatch.
    pub fn ground_truth_soft_grid(
        &self,
        puf: usize,
        features: &FeatureMatrix,
        conds: &[Condition],
    ) -> Result<Vec<Vec<f64>>, SiliconError> {
        self.check_puf(puf)?;
        self.check_feature_stages(features)?;
        let _span = puf_telemetry::span!("eval.bitslice");
        let _throughput = throughput_guard("eval.bitslice", features.len() * conds.len());
        let aged = self.aged_puf(puf);
        let nonce = self.mismatch_nonces[puf];
        let mismatch: Vec<f64> = features
            .challenges()
            .iter()
            .map(|c| self.model_mismatch_sigma * rngx::gaussian_hash(nonce, c.bits()))
            .collect();
        Ok(conds
            .iter()
            .map(|&cond| {
                let noise = self.noise_at(cond);
                let mut out = vec![0.0f64; features.len()];
                self.adjusted_puf(&aged, puf, cond)
                    .delta_batch_into_bitsliced(features, &mut out);
                for (d, m) in out.iter_mut().zip(&mismatch) {
                    *d = noise.soft_response(*d + m);
                }
                out
            })
            .collect())
    }

    /// PUF `puf` after the chip's accumulated aging (a plain copy when
    /// fresh).
    fn aged_puf(&self, puf: usize) -> ArbiterPuf {
        if self.age_hours > 0.0 {
            self.drifts[puf].aged_puf(&self.pufs[puf], &self.aging, self.age_hours)
        } else {
            self.pufs[puf].clone()
        }
    }

    /// `aged` (PUF `puf` from [`Chip::aged_puf`]) adjusted to `cond`.
    fn adjusted_puf(&self, aged: &ArbiterPuf, puf: usize, cond: Condition) -> ArbiterPuf {
        self.environment
            .puf_at(aged, &self.sensitivities[puf], cond)
    }

    /// One noisy evaluation of an individual PUF — **enrollment only**.
    ///
    /// # Errors
    ///
    /// [`SiliconError::FusesBlown`] after deployment; bad index or stage
    /// mismatch otherwise.
    pub fn eval_individual_once<R: Rng + ?Sized>(
        &self,
        puf: usize,
        challenge: &Challenge,
        cond: Condition,
        rng: &mut R,
    ) -> Result<bool, SiliconError> {
        self.check_fuses()?;
        let p = self.ground_truth_soft(puf, challenge, cond)?;
        Ok(rng.gen::<f64>() < p)
    }

    /// Counter measurement of an individual PUF's soft response over
    /// `evals` evaluations — **enrollment only**.
    ///
    /// # Errors
    ///
    /// [`SiliconError::FusesBlown`] after deployment; bad index or stage
    /// mismatch otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `evals` is zero.
    pub fn measure_individual_soft<R: Rng + ?Sized>(
        &self,
        puf: usize,
        challenge: &Challenge,
        cond: Condition,
        evals: u64,
        rng: &mut R,
    ) -> Result<SoftResponse, SiliconError> {
        self.check_fuses()?;
        let _span = puf_telemetry::span!("silicon.measure.individual");
        let _trace = puf_telemetry::trace_span!("silicon.measure.individual");
        puf_telemetry::counter!("silicon.measure.evals").add(evals);
        let p = self.ground_truth_soft(puf, challenge, cond)?;
        Ok(counter::measure(p, evals, rng))
    }

    /// Batched [`Chip::measure_individual_soft`] over a whole feature
    /// matrix — **enrollment only**. The per-challenge counter draws happen
    /// in row order, so with the same RNG state the result is bit-identical
    /// to calling the scalar method per challenge.
    ///
    /// # Errors
    ///
    /// [`SiliconError::FusesBlown`] after deployment; bad index or stage
    /// mismatch otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `evals` is zero (and the batch is non-empty).
    pub fn measure_individual_soft_batch<R: Rng + ?Sized>(
        &self,
        puf: usize,
        features: &FeatureMatrix,
        cond: Condition,
        evals: u64,
        rng: &mut R,
    ) -> Result<Vec<SoftResponse>, SiliconError> {
        self.check_fuses()?;
        let _span = puf_telemetry::span!("silicon.measure.individual");
        let _trace = puf_telemetry::trace_span!("silicon.measure.individual");
        puf_telemetry::counter!("silicon.measure.evals").add(evals * features.len() as u64);
        let probs = self.ground_truth_soft_batch(puf, features, cond)?;
        Ok(probs
            .into_iter()
            .map(|p| counter::measure(p, evals, rng))
            .collect())
    }

    /// One noisy evaluation of the `n`-input XOR output — always available,
    /// fuses or not (this is the deployed interface, paper Fig. 5).
    ///
    /// # Errors
    ///
    /// Bad XOR width or stage mismatch.
    pub fn eval_xor_once<R: Rng + ?Sized>(
        &self,
        n: usize,
        challenge: &Challenge,
        cond: Condition,
        rng: &mut R,
    ) -> Result<bool, SiliconError> {
        self.check_xor_width(n)?;
        self.check_challenge(challenge)?;
        let _span = puf_telemetry::span!("core.eval");
        let _trace = puf_telemetry::trace_span!("silicon.eval.one_shot");
        puf_telemetry::counter!("core.eval.count").inc();
        let mut acc = false;
        for puf in 0..n {
            let p = self.ground_truth_soft(puf, challenge, cond)?;
            acc ^= rng.gen::<f64>() < p;
        }
        Ok(acc)
    }

    /// Counter measurement of the XOR output's soft response. Available to
    /// anyone holding the chip (an attacker can also average XOR outputs).
    ///
    /// # Errors
    ///
    /// Bad XOR width or stage mismatch.
    ///
    /// # Panics
    ///
    /// Panics if `evals` is zero.
    pub fn measure_xor_soft<R: Rng + ?Sized>(
        &self,
        n: usize,
        challenge: &Challenge,
        cond: Condition,
        evals: u64,
        rng: &mut R,
    ) -> Result<SoftResponse, SiliconError> {
        self.check_xor_width(n)?;
        self.check_challenge(challenge)?;
        let _span = puf_telemetry::span!("silicon.measure.xor");
        let _trace = puf_telemetry::trace_span!("silicon.measure.xor");
        puf_telemetry::counter!("silicon.measure.evals").add(evals);
        // P(xor = 1) via the piling-up identity over independent members.
        let mut prod = 1.0;
        for puf in 0..n {
            let p = self.ground_truth_soft(puf, challenge, cond)?;
            prod *= 1.0 - 2.0 * p;
        }
        let p_xor = (1.0 - prod) / 2.0;
        Ok(counter::measure(p_xor, evals, rng))
    }

    /// Batched [`Chip::eval_xor_once`] over a whole feature matrix. The
    /// per-member probabilities are computed batch-wise (one adjusted PUF
    /// per member), then the noise draws replay the scalar order —
    /// challenge-major, member-minor — so seeded runs are bit-identical to
    /// the scalar loop.
    ///
    /// # Errors
    ///
    /// Bad XOR width or stage mismatch.
    pub fn eval_xor_batch<R: Rng + ?Sized>(
        &self,
        n: usize,
        features: &FeatureMatrix,
        cond: Condition,
        rng: &mut R,
    ) -> Result<Vec<bool>, SiliconError> {
        self.check_xor_width(n)?;
        self.check_feature_stages(features)?;
        let _span = puf_telemetry::span!("eval.batch");
        let _throughput = throughput_guard("eval.batch", features.len());
        puf_telemetry::counter!("core.eval.count").add(features.len() as u64);
        let member_probs = (0..n)
            .map(|puf| self.ground_truth_soft_batch(puf, features, cond))
            .collect::<Result<Vec<_>, _>>()?;
        let rows = features.len();
        Ok((0..rows)
            .map(|i| {
                (0..n).fold(false, |acc, puf| {
                    acc ^ (rng.gen::<f64>() < member_probs[puf][i])
                })
            })
            .collect())
    }

    /// Batched [`Chip::measure_xor_soft`] over a whole feature matrix. The
    /// counter draws happen in row order, so with the same RNG state the
    /// result is bit-identical to calling the scalar method per challenge.
    ///
    /// The member loop is fused: one running piling-up product per row,
    /// multiplied by each member's factor `1 − 2p` in member order (the
    /// scalar method's multiplication sequence), and one reused delta
    /// buffer. A member whose factor is already `∓1` skips the work that
    /// cannot change it (the private `clears_mismatch` and `hashed_factor`).
    ///
    /// # Errors
    ///
    /// Bad XOR width or stage mismatch.
    ///
    /// # Panics
    ///
    /// Panics if `evals` is zero (and the batch is non-empty).
    pub fn measure_xor_soft_batch<R: Rng + ?Sized>(
        &self,
        n: usize,
        features: &FeatureMatrix,
        cond: Condition,
        evals: u64,
        rng: &mut R,
    ) -> Result<Vec<SoftResponse>, SiliconError> {
        self.check_xor_width(n)?;
        self.check_feature_stages(features)?;
        let _span = puf_telemetry::span!("silicon.measure.xor");
        let _trace = puf_telemetry::trace_span!("silicon.measure.xor");
        puf_telemetry::counter!("silicon.measure.evals").add(evals * features.len() as u64);
        let rows = features.len();
        let challenges = features.challenges();
        let sigma = self.noise_at(cond).sigma();
        let mismatch_sigma = self.model_mismatch_sigma;
        let mut prod = vec![1.0f64; rows];
        let mut delta = vec![0.0f64; rows];
        // The current member's rows that fail the pre-check. The pre-check
        // is close to a coin flip per row, so its outcome never becomes a
        // branch: a mispredict every other row would expose the bound's
        // whole latency chain. Pending rows are compacted arithmetically,
        // and a cleared row's factor `∓1` is applied as a sign flip of the
        // product's bits, which is exactly what multiplying by it does.
        let mut pending = vec![0usize; rows];
        let mut saturated = 0u64;
        for puf in 0..n {
            let _span = puf_telemetry::span!("eval.bitslice");
            let _throughput = throughput_guard("eval.bitslice", rows);
            self.adjusted_puf(&self.aged_puf(puf), puf, cond)
                .delta_batch_into_bitsliced(features, &mut delta);
            let nonce = self.mismatch_nonces[puf];
            // P(xor = 1) via the piling-up identity, members in order: each
            // row takes one factor per member, here if it clears the
            // pre-check and in the pending pass below otherwise.
            let mut len = 0;
            for (i, ((p, &d), c)) in prod.iter_mut().zip(&delta).zip(challenges).enumerate() {
                let clear = clears_mismatch(d, sigma, mismatch_sigma, nonce, c.bits());
                let flip = u64::from(clear & (d > 0.0)) << 63;
                *p = f64::from_bits(p.to_bits() ^ flip);
                pending[len] = i;
                len += usize::from(!clear);
            }
            saturated += (rows - len) as u64;
            for &i in &pending[..len] {
                let (factor, clipped) =
                    hashed_factor(delta[i], sigma, mismatch_sigma, nonce, challenges[i].bits());
                prod[i] *= factor;
                saturated += u64::from(clipped);
            }
        }
        puf_telemetry::counter!("silicon.measure.xor_saturated").add(saturated);
        Ok(prod
            .into_iter()
            .map(|prod| counter::measure((1.0 - prod) / 2.0, evals, rng))
            .collect())
    }

    /// Noiseless (majority) XOR response — convenience ground truth used by
    /// characterization experiments.
    ///
    /// # Errors
    ///
    /// Bad XOR width or stage mismatch.
    pub fn xor_reference_bit(
        &self,
        n: usize,
        challenge: &Challenge,
        cond: Condition,
    ) -> Result<bool, SiliconError> {
        self.check_xor_width(n)?;
        self.check_challenge(challenge)?;
        let mut acc = false;
        for puf in 0..n {
            acc ^= self.ground_truth_soft(puf, challenge, cond)? >= 0.5;
        }
        Ok(acc)
    }
}

/// Pre-check (a) of the saturation shortcut for one member-row with
/// bit-sliced delay difference `d`: whether `|d|` clears `SATURATED_X·σ` by
/// more than the largest model mismatch `σ_m·|g|` the row can draw
/// ([`rngx::gaussian_hash_bound`]). If so, `x = (d + σ_m·g)/σ` has the sign
/// of `d` and `|x| > SATURATED_X`, so the factor `1 − 2·Φ(x)` is exactly
/// `−sign(d)` (see [`SATURATED_X`]) and neither the hash nor `erfc` is
/// needed.
fn clears_mismatch(d: f64, sigma: f64, mismatch_sigma: f64, nonce: u64, bits: u128) -> bool {
    d.abs() - SATURATED_X * sigma > mismatch_sigma * rngx::gaussian_hash_bound(nonce, bits)
}

/// The piling-up factor `1 − 2p` of a member-row that failed
/// [`clears_mismatch`], and whether the post-check (b) produced it. `x` is
/// computed exactly as [`NoiseModel::soft_response`] computes its
/// argument; if `|x| ≥ SATURATED_X` the factor is exactly `−sign(x)` and
/// `erfc` is skipped, otherwise it is `1 − 2·normal_cdf(x)` as in the
/// scalar path.
fn hashed_factor(d: f64, sigma: f64, mismatch_sigma: f64, nonce: u64, bits: u128) -> (f64, bool) {
    let x = (d + mismatch_sigma * rngx::gaussian_hash(nonce, bits)) / sigma;
    if x.abs() >= SATURATED_X {
        return (-x.signum(), true);
    }
    (1.0 - 2.0 * normal_cdf(x), false)
}

/// A fabrication lot of chips — the paper tests 10.
#[derive(Clone, Debug)]
pub struct ChipLot {
    chips: Vec<Chip>,
}

impl ChipLot {
    /// Fabricates `count` chips with sequential ids from a single lot seed.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or the config is invalid.
    pub fn fabricate(count: usize, config: &ChipConfig, seed: u64) -> Self {
        assert!(count >= 1, "a lot needs at least one chip");
        let mut rng = StdRng::seed_from_u64(seed);
        let chips = (0..count)
            .map(|id| Chip::fabricate(id as u32, config, &mut rng))
            .collect();
        Self { chips }
    }

    /// Number of chips in the lot.
    pub fn len(&self) -> usize {
        self.chips.len()
    }

    /// Whether the lot is empty (never true for a fabricated lot).
    pub fn is_empty(&self) -> bool {
        self.chips.is_empty()
    }

    /// The chips, in id order.
    pub fn chips(&self) -> &[Chip] {
        &self.chips
    }

    /// Mutable access (needed to blow fuses chip by chip).
    pub fn chips_mut(&mut self) -> &mut [Chip] {
        &mut self.chips
    }

    /// Iterates over the chips.
    pub fn iter(&self) -> std::slice::Iter<'_, Chip> {
        self.chips.iter()
    }
}

impl<'a> IntoIterator for &'a ChipLot {
    type Item = &'a Chip;
    type IntoIter = std::slice::Iter<'a, Chip>;
    fn into_iter(self) -> Self::IntoIter {
        self.chips.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_chip(seed: u64) -> Chip {
        let mut rng = StdRng::seed_from_u64(seed);
        Chip::fabricate(0, &ChipConfig::small(), &mut rng)
    }

    #[test]
    fn fabricate_respects_config() {
        let chip = test_chip(1);
        assert_eq!(chip.stages(), 16);
        assert_eq!(chip.bank_size(), 4);
        assert!(chip.fuses_intact());
    }

    #[test]
    fn individual_access_denied_after_blow() {
        let mut chip = test_chip(2);
        let mut rng = StdRng::seed_from_u64(3);
        let c = Challenge::random(chip.stages(), &mut rng);
        assert!(chip
            .measure_individual_soft(0, &c, Condition::NOMINAL, 100, &mut rng)
            .is_ok());
        assert!(chip
            .eval_individual_once(0, &c, Condition::NOMINAL, &mut rng)
            .is_ok());
        chip.blow_fuses();
        assert_eq!(
            chip.measure_individual_soft(0, &c, Condition::NOMINAL, 100, &mut rng),
            Err(SiliconError::FusesBlown)
        );
        assert_eq!(
            chip.eval_individual_once(0, &c, Condition::NOMINAL, &mut rng),
            Err(SiliconError::FusesBlown)
        );
        // XOR access survives.
        assert!(chip
            .eval_xor_once(2, &c, Condition::NOMINAL, &mut rng)
            .is_ok());
        assert!(chip
            .measure_xor_soft(2, &c, Condition::NOMINAL, 100, &mut rng)
            .is_ok());
    }

    #[test]
    fn index_and_width_validation() {
        let chip = test_chip(4);
        let mut rng = StdRng::seed_from_u64(5);
        let c = Challenge::random(chip.stages(), &mut rng);
        assert!(matches!(
            chip.measure_individual_soft(99, &c, Condition::NOMINAL, 10, &mut rng),
            Err(SiliconError::PufIndexOutOfRange { .. })
        ));
        assert!(matches!(
            chip.eval_xor_once(0, &c, Condition::NOMINAL, &mut rng),
            Err(SiliconError::XorWidthOutOfRange { .. })
        ));
        assert!(matches!(
            chip.eval_xor_once(5, &c, Condition::NOMINAL, &mut rng),
            Err(SiliconError::XorWidthOutOfRange { .. })
        ));
        let wrong = Challenge::zero(8);
        assert!(matches!(
            chip.eval_xor_once(2, &wrong, Condition::NOMINAL, &mut rng),
            Err(SiliconError::StageMismatch { .. })
        ));
    }

    #[test]
    fn xor_once_is_xor_of_individuals_in_noiseless_limit() {
        // With a tiny-noise chip the one-shot XOR must equal the XOR of the
        // members' reference bits.
        let mut rng = StdRng::seed_from_u64(6);
        let config = ChipConfig {
            noise: NoiseModel::new(1e-9, 100),
            ..ChipConfig::small()
        };
        let chip = Chip::fabricate(0, &config, &mut rng);
        for _ in 0..50 {
            let c = Challenge::random(chip.stages(), &mut rng);
            let want = (0..3).fold(false, |acc, i| {
                acc ^ (chip.ground_truth_soft(i, &c, Condition::NOMINAL).unwrap() >= 0.5)
            });
            let got = chip
                .eval_xor_once(3, &c, Condition::NOMINAL, &mut rng)
                .unwrap();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn noise_at_corner_is_larger() {
        let chip = test_chip(7);
        let nominal = chip.noise_at(Condition::NOMINAL).sigma();
        let corner = chip.noise_at(Condition::new(0.8, 60.0)).sigma();
        assert!(corner > nominal);
    }

    #[test]
    fn lot_fabrication_is_deterministic_per_seed() {
        let a = ChipLot::fabricate(3, &ChipConfig::small(), 42);
        let b = ChipLot::fabricate(3, &ChipConfig::small(), 42);
        assert_eq!(a.len(), 3);
        let mut rng = StdRng::seed_from_u64(8);
        let c = Challenge::random(a.chips()[0].stages(), &mut rng);
        for (ca, cb) in a.iter().zip(b.iter()) {
            assert_eq!(
                ca.ground_truth_soft(0, &c, Condition::NOMINAL).unwrap(),
                cb.ground_truth_soft(0, &c, Condition::NOMINAL).unwrap()
            );
        }
        // Different chips carry different process variation.
        let w0 = a.chips()[0]
            .ground_truth_puf(0, Condition::NOMINAL)
            .unwrap();
        let w1 = a.chips()[1]
            .ground_truth_puf(0, Condition::NOMINAL)
            .unwrap();
        assert_ne!(w0.weights(), w1.weights(), "distinct chips share weights");
    }

    #[test]
    fn aging_shifts_responses_monotonically() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut chip = Chip::fabricate(0, &ChipConfig::small(), &mut rng);
        assert_eq!(chip.age_hours(), 0.0);
        let c = Challenge::random(chip.stages(), &mut rng);
        let fresh = chip.ground_truth_soft(0, &c, Condition::NOMINAL).unwrap();
        chip.set_age(50_000.0);
        assert_eq!(chip.age_hours(), 50_000.0);
        let aged = chip.ground_truth_soft(0, &c, Condition::NOMINAL).unwrap();
        let again = chip.ground_truth_soft(0, &c, Condition::NOMINAL).unwrap();
        assert_eq!(aged, again, "aging must be repeatable");
        // Some challenge in a batch shifts.
        let mut any_shift = (fresh - aged).abs() > 0.0;
        for _ in 0..200 {
            let c = Challenge::random(chip.stages(), &mut rng);
            let mut probe = Chip::fabricate(1, &ChipConfig::small(), &mut rng);
            probe.set_age(0.0);
            let _ = probe;
            let f = {
                let mut fresh_chip = chip.clone();
                // cannot rejuvenate — compare against an identically
                // fabricated chip instead
                fresh_chip.age_hours = 0.0;
                fresh_chip
                    .ground_truth_soft(0, &c, Condition::NOMINAL)
                    .unwrap()
            };
            let a = chip.ground_truth_soft(0, &c, Condition::NOMINAL).unwrap();
            if (f - a).abs() > 1e-12 {
                any_shift = true;
                break;
            }
        }
        assert!(any_shift, "50k hours of aging shifted nothing");
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn rejuvenation_is_rejected() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut chip = Chip::fabricate(0, &ChipConfig::small(), &mut rng);
        chip.set_age(100.0);
        chip.set_age(50.0);
    }

    #[test]
    fn batch_measurements_replay_scalar_streams() {
        let mut chip = test_chip(13);
        chip.set_age(5_000.0); // exercise the aged path too
        let mut rng = StdRng::seed_from_u64(14);
        let cs: Vec<Challenge> = (0..37)
            .map(|_| Challenge::random(chip.stages(), &mut rng))
            .collect();
        let fm = FeatureMatrix::from_challenges(&cs).unwrap();
        let cond = Condition::new(0.8, 60.0);

        let probs = chip.ground_truth_soft_batch(1, &fm, cond).unwrap();
        for (c, &p) in cs.iter().zip(&probs) {
            assert_eq!(
                p.to_bits(),
                chip.ground_truth_soft(1, c, cond).unwrap().to_bits()
            );
        }

        let batch = chip
            .measure_individual_soft_batch(1, &fm, cond, 500, &mut StdRng::seed_from_u64(15))
            .unwrap();
        let mut scalar_rng = StdRng::seed_from_u64(15);
        for (c, got) in cs.iter().zip(&batch) {
            let want = chip
                .measure_individual_soft(1, c, cond, 500, &mut scalar_rng)
                .unwrap();
            assert_eq!(*got, want);
        }

        let batch = chip
            .eval_xor_batch(3, &fm, cond, &mut StdRng::seed_from_u64(16))
            .unwrap();
        let mut scalar_rng = StdRng::seed_from_u64(16);
        for (c, &got) in cs.iter().zip(&batch) {
            assert_eq!(
                got,
                chip.eval_xor_once(3, c, cond, &mut scalar_rng).unwrap()
            );
        }

        let batch = chip
            .measure_xor_soft_batch(3, &fm, cond, 500, &mut StdRng::seed_from_u64(17))
            .unwrap();
        let mut scalar_rng = StdRng::seed_from_u64(17);
        for (c, got) in cs.iter().zip(&batch) {
            let want = chip
                .measure_xor_soft(3, c, cond, 500, &mut scalar_rng)
                .unwrap();
            assert_eq!(*got, want);
        }
    }

    /// Chips whose member-rows straddle the saturation shortcut: the paper
    /// noise, a tiny σ (nearly everything saturates before the hash), no
    /// mismatch (the pre-check is exact), and a mismatch σ far above the
    /// noise (the post-check decides).
    fn straddling_chips() -> Vec<Chip> {
        let small = ChipConfig::small();
        let configs = [
            small.clone(),
            ChipConfig {
                noise: NoiseModel::new(1e-3, 1_000),
                ..small.clone()
            },
            small.clone().with_model_mismatch(0.0),
            ChipConfig {
                noise: NoiseModel::new(0.02, 1_000),
                ..small.with_model_mismatch(0.5)
            },
        ];
        let mut rng = StdRng::seed_from_u64(20);
        configs
            .iter()
            .flat_map(|config| {
                let fresh = Chip::fabricate(0, config, &mut rng);
                let mut aged = fresh.clone();
                aged.set_age(20_000.0);
                [fresh, aged]
            })
            .collect()
    }

    #[test]
    fn fused_xor_measurement_replays_scalar_on_straddling_chips() {
        let mut rng = StdRng::seed_from_u64(21);
        let cs: Vec<Challenge> = (0..48).map(|_| Challenge::random(16, &mut rng)).collect();
        let fm = FeatureMatrix::from_challenges(&cs).unwrap();
        for (k, chip) in straddling_chips().iter().enumerate() {
            for cond in Condition::paper_grid() {
                for n in 1..=chip.bank_size() {
                    let seed = 22 + k as u64;
                    let batch = chip
                        .measure_xor_soft_batch(
                            n,
                            &fm,
                            cond,
                            1_000,
                            &mut StdRng::seed_from_u64(seed),
                        )
                        .unwrap();
                    let mut scalar_rng = StdRng::seed_from_u64(seed);
                    for (c, got) in cs.iter().zip(&batch) {
                        let want = chip
                            .measure_xor_soft(n, c, cond, 1_000, &mut scalar_rng)
                            .unwrap();
                        assert_eq!(*got, want, "chip {k}, {cond}, n = {n}");
                    }
                }
            }
        }
    }

    #[test]
    fn shortcut_factors_are_the_unshortcut_factor_bit_for_bit() {
        // Dense deltas on both sides of ±SATURATED_X·σ, widened by the
        // mismatch reach, for both shortcut stages: every factor must equal
        // the plain `1 − 2·soft_response` to the bit.
        let (mut pre, mut post, mut erfc) = (0, 0, 0);
        for (sigma, mismatch_sigma) in [(0.05, 0.0), (0.05, 0.09), (0.01, 0.5), (1e-6, 2.0)] {
            let noise = NoiseModel::new(sigma, 1_000);
            for row in 0..20_000u64 {
                let bits = u128::from(row.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let nonce = 0xC0FFEE ^ row;
                let reach = mismatch_sigma * rngx::gaussian_hash_bound(nonce, bits);
                let edge = SATURATED_X * sigma + reach;
                let d = edge
                    * (0.5 + row as f64 / 10_000.0 * 0.75)
                    * if row % 2 == 0 { 1.0 } else { -1.0 };
                let factor = if clears_mismatch(d, sigma, mismatch_sigma, nonce, bits) {
                    pre += 1;
                    -d.signum()
                } else {
                    let (factor, clipped) = hashed_factor(d, sigma, mismatch_sigma, nonce, bits);
                    if clipped {
                        post += 1;
                    } else {
                        erfc += 1;
                    }
                    factor
                };
                let delta = d + mismatch_sigma * rngx::gaussian_hash(nonce, bits);
                let want = 1.0 - 2.0 * noise.soft_response(delta);
                assert_eq!(
                    factor.to_bits(),
                    want.to_bits(),
                    "σ {sigma} σ_m {mismatch_sigma} d {d}"
                );
            }
        }
        assert!(pre > 0 && post > 0 && erfc > 0, "{pre} {post} {erfc}");
    }

    #[test]
    fn ground_truth_soft_grid_replays_scalar_per_condition() {
        let mut rng = StdRng::seed_from_u64(23);
        let cs: Vec<Challenge> = (0..40).map(|_| Challenge::random(16, &mut rng)).collect();
        let fm = FeatureMatrix::from_challenges(&cs).unwrap();
        let conds = Condition::paper_grid();
        for chip in straddling_chips() {
            for puf in 0..chip.bank_size() {
                let grid = chip.ground_truth_soft_grid(puf, &fm, &conds).unwrap();
                assert_eq!(grid.len(), conds.len());
                for (&cond, probs) in conds.iter().zip(&grid) {
                    for (c, p) in cs.iter().zip(probs) {
                        let want = chip.ground_truth_soft(puf, c, cond).unwrap();
                        assert_eq!(p.to_bits(), want.to_bits());
                    }
                }
            }
        }
        assert!(test_chip(24)
            .ground_truth_soft_grid(0, &fm, &[])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn batch_measurements_validate() {
        let mut chip = test_chip(18);
        let mut rng = StdRng::seed_from_u64(19);
        let fm = FeatureMatrix::from_challenges(&[Challenge::zero(8)]).unwrap();
        assert!(matches!(
            chip.ground_truth_soft_batch(0, &fm, Condition::NOMINAL),
            Err(SiliconError::StageMismatch { .. })
        ));
        let fm = FeatureMatrix::from_challenges(&[Challenge::zero(chip.stages())]).unwrap();
        assert!(matches!(
            chip.ground_truth_soft_batch(99, &fm, Condition::NOMINAL),
            Err(SiliconError::PufIndexOutOfRange { .. })
        ));
        assert!(matches!(
            chip.eval_xor_batch(0, &fm, Condition::NOMINAL, &mut rng),
            Err(SiliconError::XorWidthOutOfRange { .. })
        ));
        chip.blow_fuses();
        assert_eq!(
            chip.measure_individual_soft_batch(0, &fm, Condition::NOMINAL, 100, &mut rng),
            Err(SiliconError::FusesBlown)
        );
        // XOR access survives fuse blow.
        assert!(chip
            .measure_xor_soft_batch(2, &fm, Condition::NOMINAL, 100, &mut rng)
            .is_ok());
    }

    #[test]
    fn ground_truth_soft_is_probability() {
        let chip = test_chip(9);
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..100 {
            let c = Challenge::random(chip.stages(), &mut rng);
            let p = chip.ground_truth_soft(1, &c, Condition::NOMINAL).unwrap();
            assert!((0.0..=1.0).contains(&p));
        }
    }
}
