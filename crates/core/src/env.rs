//! Supply-voltage and temperature variation model.
//!
//! The paper measures its chips at a 3×3 grid of conditions
//! (0.8/0.9/1.0 V × 0/25/60 °C) and observes that (a) the soft-response
//! distribution widens away from the nominal corner, (b) unstable CRPs stay
//! concentrated around soft response 0.5, and (c) marginal CRPs that look
//! stable at nominal can flip at a corner. This module reproduces those
//! effects with a first-order sensitivity model:
//!
//! ```text
//! wᵢ(V, T) = wᵢ · s(V, T)  +  vᵢ · (V − V₀)  +  tᵢ · (T − T₀)
//! σ_noise(V, T) = σ₀ · (V₀/V)² · sqrt(T_K / T₀_K)
//! ```
//!
//! where `vᵢ, tᵢ` are per-stage random sensitivities drawn once per PUF
//! (mismatch in how each stage's delay responds to V/T) and `s(V, T)` is a
//! global delay scaling. The per-stage terms are what make marginal CRPs
//! flip — a pure global scaling would never change the sign of Δ.

use crate::arbiter::ArbiterPuf;
use crate::rngx;
use rand::Rng;
use std::fmt;

/// Nominal supply voltage of the paper's test chips (volts).
pub const NOMINAL_VDD: f64 = 0.9;
/// Nominal test temperature (°C).
pub const NOMINAL_TEMP_C: f64 = 25.0;

/// An operating condition: supply voltage and junction temperature.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Condition {
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Temperature in degrees Celsius.
    pub temp_c: f64,
}

impl Condition {
    /// The nominal enrollment condition: 0.9 V, 25 °C.
    pub const NOMINAL: Condition = Condition {
        vdd: NOMINAL_VDD,
        temp_c: NOMINAL_TEMP_C,
    };

    /// Creates a condition.
    pub fn new(vdd: f64, temp_c: f64) -> Self {
        Self { vdd, temp_c }
    }

    /// The paper's full 3×3 measurement grid:
    /// {0.8, 0.9, 1.0} V × {0, 25, 60} °C.
    pub fn paper_grid() -> Vec<Condition> {
        let mut grid = Vec::with_capacity(9);
        for &vdd in &[0.8, 0.9, 1.0] {
            for &temp in &[0.0, 25.0, 60.0] {
                grid.push(Condition::new(vdd, temp));
            }
        }
        grid
    }

    /// Voltage offset from nominal.
    pub fn dv(&self) -> f64 {
        self.vdd - NOMINAL_VDD
    }

    /// Temperature offset from nominal.
    pub fn dt(&self) -> f64 {
        self.temp_c - NOMINAL_TEMP_C
    }

    /// Whether this is (numerically) the nominal corner.
    pub fn is_nominal(&self) -> bool {
        self.dv() == 0.0 && self.dt() == 0.0
    }
}

impl Default for Condition {
    fn default() -> Self {
        Self::NOMINAL
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}V/{:.0}°C", self.vdd, self.temp_c)
    }
}

/// Per-stage voltage and temperature sensitivities of one arbiter PUF.
///
/// Units: normalised delay difference per volt (`voltage`) and per °C
/// (`temperature`); see [`crate::ArbiterPuf`] for the normalisation.
#[derive(Clone, Debug, PartialEq)]
pub struct Sensitivity {
    voltage: Vec<f64>,
    temperature: Vec<f64>,
}

impl Sensitivity {
    /// Draws random per-stage sensitivities for a PUF with `stages` stages.
    ///
    /// `sigma_v` / `sigma_t` are the per-stage standard deviations in delay
    /// units per volt / per °C.
    pub fn random<R: Rng + ?Sized>(stages: usize, sigma_v: f64, sigma_t: f64, rng: &mut R) -> Self {
        let mut voltage = vec![0.0; stages + 1];
        let mut temperature = vec![0.0; stages + 1];
        rngx::fill_normal(rng, sigma_v, &mut voltage);
        rngx::fill_normal(rng, sigma_t, &mut temperature);
        Self {
            voltage,
            temperature,
        }
    }

    /// A sensitivity of exactly zero everywhere (an idealised PUF whose
    /// behaviour is V/T-independent up to noise scaling).
    pub fn zero(stages: usize) -> Self {
        Self {
            voltage: vec![0.0; stages + 1],
            temperature: vec![0.0; stages + 1],
        }
    }

    /// Per-stage voltage sensitivities (length `stages + 1`).
    pub fn voltage(&self) -> &[f64] {
        &self.voltage
    }

    /// Per-stage temperature sensitivities (length `stages + 1`).
    pub fn temperature(&self) -> &[f64] {
        &self.temperature
    }
}

/// The environment model: global delay scaling, per-stage sensitivities and
/// condition-dependent noise.
///
/// Holds the *population parameters*; per-PUF sensitivity draws live next to
/// the PUF (see `puf_silicon::Chip`).
#[derive(Clone, Debug, PartialEq)]
pub struct Environment {
    /// Per-stage voltage sensitivity σ (delay units per volt).
    pub sigma_v: f64,
    /// Per-stage temperature sensitivity σ (delay units per °C).
    pub sigma_t: f64,
    /// Exponent of the global delay scaling `(V₀/V)^delay_exp`.
    pub delay_exp: f64,
}

impl Environment {
    /// Default population parameters, calibrated (see `puf-bench` fig
    /// binaries and EXPERIMENTS.md) so that the predicted-stable fraction
    /// across the paper's V/T grid decays like the paper's Fig. 12.
    pub fn paper_default() -> Self {
        Self {
            sigma_v: 0.2,
            sigma_t: 0.0005,
            delay_exp: 1.3,
        }
    }

    /// An environment with no V/T dependence at all.
    pub fn ideal() -> Self {
        Self {
            sigma_v: 0.0,
            sigma_t: 0.0,
            delay_exp: 0.0,
        }
    }

    /// Global delay scale factor at a condition: delays grow at low voltage
    /// (`(V₀/V)^delay_exp`) and slightly with temperature.
    pub fn delay_scale(&self, cond: Condition) -> f64 {
        (NOMINAL_VDD / cond.vdd).powf(self.delay_exp) * (1.0 + 0.0005 * cond.dt())
    }

    /// Noise σ multiplier at a condition relative to nominal: thermal noise
    /// grows with absolute temperature and the arbiter's noise margin shrinks
    /// at low supply voltage.
    pub fn noise_scale(&self, cond: Condition) -> f64 {
        let t_kelvin = cond.temp_c + 273.15;
        let t0_kelvin = NOMINAL_TEMP_C + 273.15;
        (NOMINAL_VDD / cond.vdd).powi(2) * (t_kelvin / t0_kelvin).sqrt()
    }

    /// Derives the condition-specific weight vector of a PUF given its
    /// nominal weights and its per-stage sensitivities.
    ///
    /// # Panics
    ///
    /// Panics if the sensitivity length differs from the PUF's.
    pub fn puf_at(&self, puf: &ArbiterPuf, sens: &Sensitivity, cond: Condition) -> ArbiterPuf {
        assert_eq!(
            puf.weights().len(),
            sens.voltage.len(),
            "sensitivity/PUF length mismatch"
        );
        let scale = self.delay_scale(cond);
        let (dv, dt) = (cond.dv(), cond.dt());
        puf.map_weights(|i, w| w * scale + sens.voltage[i] * dv + sens.temperature[i] * dt)
    }
}

impl Default for Environment {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_grid_is_nine_conditions() {
        let grid = Condition::paper_grid();
        assert_eq!(grid.len(), 9);
        assert!(grid.contains(&Condition::NOMINAL));
        assert!(grid.contains(&Condition::new(0.8, 0.0)));
        assert!(grid.contains(&Condition::new(1.0, 60.0)));
    }

    #[test]
    fn nominal_condition_is_fixed_point() {
        let env = Environment::paper_default();
        assert!((env.delay_scale(Condition::NOMINAL) - 1.0).abs() < 1e-12);
        assert!((env.noise_scale(Condition::NOMINAL) - 1.0).abs() < 1e-12);

        let mut rng = StdRng::seed_from_u64(1);
        let puf = ArbiterPuf::random(32, &mut rng);
        let sens = Sensitivity::random(32, env.sigma_v, env.sigma_t, &mut rng);
        let at_nominal = env.puf_at(&puf, &sens, Condition::NOMINAL);
        for (a, b) in puf.weights().iter().zip(at_nominal.weights()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn low_voltage_increases_noise_and_delay() {
        let env = Environment::paper_default();
        let low = Condition::new(0.8, 25.0);
        assert!(env.noise_scale(low) > 1.0);
        assert!(env.delay_scale(low) > 1.0);
        let high = Condition::new(1.0, 25.0);
        assert!(env.noise_scale(high) < 1.0);
        assert!(env.delay_scale(high) < 1.0);
    }

    #[test]
    fn hot_condition_increases_noise() {
        let env = Environment::paper_default();
        assert!(env.noise_scale(Condition::new(0.9, 60.0)) > 1.0);
        assert!(env.noise_scale(Condition::new(0.9, 0.0)) < 1.0);
    }

    #[test]
    fn zero_sensitivity_pure_scaling_never_flips_sign() {
        let mut rng = StdRng::seed_from_u64(2);
        let env = Environment::paper_default();
        let puf = ArbiterPuf::random(32, &mut rng);
        let sens = Sensitivity::zero(32);
        let corner = env.puf_at(&puf, &sens, Condition::new(0.8, 60.0));
        for _ in 0..100 {
            let c = crate::Challenge::random(32, &mut rng);
            assert_eq!(puf.response(&c), corner.response(&c));
        }
    }

    #[test]
    fn per_stage_sensitivity_flips_marginal_challenges() {
        let mut rng = StdRng::seed_from_u64(3);
        let env = Environment::paper_default();
        let puf = ArbiterPuf::random(32, &mut rng);
        let sens = Sensitivity::random(32, env.sigma_v, env.sigma_t, &mut rng);
        let corner = env.puf_at(&puf, &sens, Condition::new(0.8, 60.0));
        let mut flips = 0;
        let trials = 5_000;
        for _ in 0..trials {
            let c = crate::Challenge::random(32, &mut rng);
            if puf.response(&c) != corner.response(&c) {
                flips += 1;
            }
        }
        // A small but nonzero fraction of responses flip at the corner.
        assert!(flips > 0, "corner flipped no responses");
        assert!(
            (flips as f64) < 0.2 * trials as f64,
            "corner flipped {flips}/{trials} responses — model too violent"
        );
    }

    #[test]
    fn condition_display() {
        assert_eq!(Condition::new(0.8, 60.0).to_string(), "0.8V/60°C");
    }

    #[test]
    fn sensitivity_dimensions() {
        let mut rng = StdRng::seed_from_u64(4);
        let s = Sensitivity::random(32, 0.1, 0.001, &mut rng);
        assert_eq!(s.voltage().len(), 33);
        assert_eq!(s.temperature().len(), 33);
    }
}
