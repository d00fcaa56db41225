//! Random sampling helpers built on [`rand`]: standard-normal draws and a
//! binomial sampler with exact tail behaviour.
//!
//! The binomial sampler is the workhorse of the "1 trillion measurements"
//! substitution: instead of literally evaluating a PUF `N = 100_000` times,
//! an on-chip counter measurement draws `k ~ Binomial(N, p)` where `p` is
//! the analytic soft response. The tail events `k = 0` and `k = N` decide
//! whether a CRP is *stable*, so the sampler must realise
//! `P(k = 0) = (1 − p)^N` exactly rather than through a Gaussian blur.

use rand::Rng;

/// Draws one standard normal variate using the Marsaglia polar method.
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// let mut rng = StdRng::seed_from_u64(1);
/// let z = puf_core::rngx::standard_normal(&mut rng);
/// assert!(z.is_finite());
/// ```
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Draws a normal variate with the given mean and standard deviation.
///
/// # Panics
///
/// Panics if `sigma` is negative or non-finite.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sigma: f64) -> f64 {
    assert!(
        sigma >= 0.0 && sigma.is_finite(),
        "normal: sigma must be finite and non-negative, got {sigma}"
    );
    mean + sigma * standard_normal(rng)
}

/// Fills a slice with i.i.d. `N(0, sigma²)` draws.
pub fn fill_normal<R: Rng + ?Sized>(rng: &mut R, sigma: f64, out: &mut [f64]) {
    for v in out {
        *v = normal(rng, 0.0, sigma);
    }
}

/// Threshold below which the mean `n·p` is small enough for exact CDF
/// inversion to be cheap.
const INVERSION_MEAN_LIMIT: f64 = 60.0;

/// Samples `k ~ Binomial(n, p)`.
///
/// Strategy:
/// - If `n·min(p, 1−p)` is small (≤ 60) the binomial CDF is inverted exactly
///   by walking the pmf recurrence — this regime contains the tail events
///   that decide CRP stability, so they occur with exactly the right
///   probability.
/// - Otherwise both tails are ≥ 25σ away and a Gaussian approximation with
///   continuity correction is statistically indistinguishable; the result is
///   clamped to `[0, n]`.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]`.
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// let mut rng = StdRng::seed_from_u64(2);
/// let k = puf_core::rngx::binomial(&mut rng, 100_000, 0.0);
/// assert_eq!(k, 0);
/// let k = puf_core::rngx::binomial(&mut rng, 100_000, 1.0);
/// assert_eq!(k, 100_000);
/// ```
pub fn binomial<R: Rng + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
    assert!((0.0..=1.0).contains(&p), "binomial: p must be in [0,1]");
    if n == 0 || p == 0.0 {
        return 0;
    }
    if p == 1.0 {
        return n;
    }
    // Work with the smaller tail for numerical stability.
    if p > 0.5 {
        return n - binomial(rng, n, 1.0 - p);
    }
    let mean = n as f64 * p;
    if mean <= INVERSION_MEAN_LIMIT {
        binomial_inversion(rng, n, p)
    } else {
        let sigma = (n as f64 * p * (1.0 - p)).sqrt();
        let z = standard_normal(rng);
        let k = (mean + sigma * z + 0.5).floor();
        k.clamp(0.0, n as f64) as u64
    }
}

/// Exact CDF inversion: `P(k=0) = (1−p)^n`, then the pmf recurrence
/// `pmf(k+1) = pmf(k) · (n−k)/(k+1) · p/(1−p)`.
fn binomial_inversion<R: Rng + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
    let q = 1.0 - p;
    // log-space start to survive n = 100_000 with tiny p.
    let mut pmf = (n as f64 * q.ln()).exp();
    let ratio = p / q;
    let mut cdf = pmf;
    let u: f64 = rng.gen();
    let mut k: u64 = 0;
    while u > cdf && k < n {
        pmf *= (n - k) as f64 / (k + 1) as f64 * ratio;
        k += 1;
        cdf += pmf;
        // Guard against floating-point stall far in the tail.
        if pmf < 1e-300 && cdf < u {
            break;
        }
    }
    k
}

/// SplitMix64's finaliser: the 64-bit mixer under [`gaussian_hash`] and
/// [`gaussian_hash_bound`].
#[inline]
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The first hash word of `(seed, x)`; it alone fixes the Box–Muller
/// radius of [`gaussian_hash`].
#[inline]
fn radius_word(seed: u64, x: u128) -> u64 {
    splitmix(seed ^ splitmix(x as u64))
}

/// A deterministic standard-normal value derived by hashing `(seed, x)` —
/// a "frozen Gaussian field" over a 128-bit index space.
///
/// Used to model the *repeatable* nonlinear residual of a real MUX arbiter
/// PUF relative to the idealised linear additive delay model: the value is
/// the same every time for the same `(seed, x)` (unlike thermal noise), yet
/// statistically independent across distinct challenges, so no linear model
/// can learn it.
pub fn gaussian_hash(seed: u64, x: u128) -> f64 {
    // SplitMix64 over the three words, then Box–Muller from two uniforms.
    let h1 = radius_word(seed, x);
    let h2 = splitmix(h1 ^ splitmix((x >> 64) as u64));
    box_muller(h1, h2)
}

/// Box–Muller from two hash words: radius from `h1`, angle from `h2`.
fn box_muller(h1: u64, h2: u64) -> f64 {
    // Map to (0,1); keep u1 strictly positive for the log.
    let u1 = ((h1 >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
    let u2 = (h2 >> 11) as f64 / (1u64 << 53) as f64;
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Relative widening of [`gaussian_hash_bound`] over the exact radius bound,
/// so the few ulps of rounding in `ln`, `sqrt` and the final product can
/// never carry a computed `|gaussian_hash|` past it.
const RADIUS_SLACK: f64 = 1.0 + 1.0 / (1u64 << 30) as f64;

/// An upper bound on `|gaussian_hash(seed, x)|` that costs two SplitMix64
/// rounds, a leading-zero count and one square root — no `ln`, no `cos`.
///
/// The Box–Muller radius is `√(−2 ln u₁)` with `u₁ = (m + 1) / 2⁵³`, where
/// `m = h₁ >> 11` is a 53-bit integer. If `m` has `lz` leading zeros
/// within those 53 bits, then `m ≥ 2^(52 − lz)` (or `m = 0` and `lz = 53`),
/// so `u₁ ≥ 2^−(lz + 1)` and `|g| ≤ √(2 ln 2 · (lz + 1))`. Half of all
/// inputs have `lz = 0` and a bound of ≈ 1.18.
#[inline]
pub fn gaussian_hash_bound(seed: u64, x: u128) -> f64 {
    radius_bound(radius_word(seed, x))
}

/// [`gaussian_hash_bound`] from the first hash word.
#[inline]
fn radius_bound(h1: u64) -> f64 {
    let lz = (h1 >> 11).leading_zeros() - 11;
    (f64::from(lz + 1) * (2.0 * std::f64::consts::LN_2)).sqrt() * RADIUS_SLACK
}

/// Samples the *measured soft response* `k/n` of an `n`-evaluation counter
/// measurement given the analytic soft response `p`.
pub fn measured_soft_response<R: Rng + ?Sized>(rng: &mut R, n: u64, p: f64) -> f64 {
    binomial(rng, n, p) as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sq = 0.0;
        for _ in 0..n {
            let z = standard_normal(&mut rng);
            sum += z;
            sq += z * z;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn binomial_mean_matches_np() {
        let mut rng = StdRng::seed_from_u64(7);
        for &(n, p) in &[(50u64, 0.3), (1_000, 0.001), (100_000, 0.5), (100_000, 0.9)] {
            let trials = 2_000;
            let mut acc = 0.0;
            for _ in 0..trials {
                acc += binomial(&mut rng, n, p) as f64;
            }
            let got = acc / trials as f64;
            let want = n as f64 * p;
            let sigma = (n as f64 * p * (1.0 - p)).sqrt();
            let tol = 5.0 * sigma / (trials as f64).sqrt() + 1e-9;
            assert!(
                (got - want).abs() < tol,
                "n={n} p={p}: mean {got} want {want} tol {tol}"
            );
        }
    }

    #[test]
    fn binomial_zero_tail_probability_is_exact() {
        // With p = 2e-5 and n = 100_000, P(k = 0) = (1-p)^n ≈ exp(-2) ≈ 0.1353.
        let mut rng = StdRng::seed_from_u64(99);
        let (n, p) = (100_000u64, 2e-5);
        let trials = 20_000;
        let zeros = (0..trials)
            .filter(|_| binomial(&mut rng, n, p) == 0)
            .count();
        let got = zeros as f64 / trials as f64;
        let want = (1.0 - p)
            .powi(n as i32)
            .max((n as f64 * (1.0 - p).ln()).exp());
        assert!((got - want).abs() < 0.01, "P(k=0): got {got}, want {want}");
    }

    #[test]
    fn binomial_edge_cases() {
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(binomial(&mut rng, 0, 0.5), 0);
        assert_eq!(binomial(&mut rng, 10, 0.0), 0);
        assert_eq!(binomial(&mut rng, 10, 1.0), 10);
        for _ in 0..100 {
            let k = binomial(&mut rng, 5, 0.5);
            assert!(k <= 5);
        }
    }

    #[test]
    fn measured_soft_response_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..100 {
            let p: f64 = rng.gen();
            let s = measured_soft_response(&mut rng, 1_000, p);
            assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    #[should_panic(expected = "p must be in")]
    fn binomial_rejects_bad_p() {
        let mut rng = StdRng::seed_from_u64(5);
        binomial(&mut rng, 10, 1.5);
    }

    #[test]
    fn gaussian_hash_is_deterministic_and_standard_normal() {
        assert_eq!(gaussian_hash(7, 42), gaussian_hash(7, 42));
        assert_ne!(gaussian_hash(7, 42), gaussian_hash(8, 42));
        assert_ne!(gaussian_hash(7, 42), gaussian_hash(7, 43));
        let n = 100_000u128;
        let mut sum = 0.0;
        let mut sq = 0.0;
        for x in 0..n {
            let v = gaussian_hash(123, x * 0x1234_5678_9ABC + 17);
            sum += v;
            sq += v * v;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn gaussian_hash_bound_covers_random_inputs() {
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..1_000_000 {
            let (seed, x): (u64, u128) = (rng.gen(), rng.gen());
            let (g, bound) = (gaussian_hash(seed, x), gaussian_hash_bound(seed, x));
            assert!(bound >= g.abs(), "seed {seed} x {x}: |{g}| > {bound}");
        }
    }

    #[test]
    fn radius_bound_holds_at_the_edge_of_each_leading_zero_count() {
        // The tightest inputs: m = h1 >> 11 at the smallest value with `lz`
        // leading zeros (so u1 is as close to 2^-(lz+1) as it gets), and an
        // angle word giving cos = +1 (h2 = 0) or cos = -1 (u2 = 1/2).
        for lz in [0u32, 1, 52] {
            let m = 1u64 << (52 - lz);
            for low in [0, (1 << 11) - 1] {
                let h1 = (m << 11) | low;
                assert_eq!((h1 >> 11).leading_zeros() - 11, lz);
                for h2 in [0, 1u64 << 63] {
                    let g = box_muller(h1, h2);
                    let bound = radius_bound(h1);
                    assert!(bound >= g.abs(), "lz {lz}: |{g}| > {bound}");
                    // These inputs sit on the edge: u1 is 2^-(lz+1) to within
                    // a relative 2^(lz-52), so the bound is nearly attained.
                    if lz < 52 {
                        assert!(bound - g.abs() < bound * 1e-6, "lz {lz}: {g} vs {bound}");
                    }
                }
            }
        }
        // m = 0 (all 53 bits zero) gives the largest radius of all.
        let g = box_muller(0, 0);
        assert!(
            radius_bound(0) >= g && g > 8.5,
            "{g} vs {}",
            radius_bound(0)
        );
    }
}
