//! Special functions the standard library lacks: error function, standard
//! normal CDF and its inverse, plus small statistics helpers.
//!
//! The soft response of an arbiter PUF is `Φ(Δ/σ)` and the enrollment
//! thresholding logic of the paper works directly on these probabilities, so
//! accurate and fast `Φ`/`Φ⁻¹` are load-bearing for the whole reproduction.

/// Machine-precision-ish error function, |relative error| < 1.2e-7.
///
/// Uses the rational Chebyshev approximation of `erfc` from Numerical
/// Recipes (Press et al.), which is accurate over the full real line and
/// avoids the catastrophic cancellation of naive series for large `x`.
///
/// ```
/// use puf_core::math::erf;
/// assert!((erf(0.0)).abs() < 1e-7);
/// assert!((erf(1.0) - 0.8427007929497149).abs() < 1e-6);
/// assert!((erf(-1.0) + 0.8427007929497149).abs() < 1e-6);
/// ```
pub fn erf(x: f64) -> f64 {
    1.0 - erfc(x)
}

/// Complementary error function, `erfc(x) = 1 - erf(x)`.
///
/// |relative error| < 1.2e-7 everywhere; asymptotically exact in the tails,
/// which matters because stable-CRP classification lives in the far tail
/// (soft responses within `1/N` of 0 or 1 with `N = 100_000`).
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    // Chebyshev fit of erfc(z) * exp(z^2 + 1.26551223 - ...) from
    // Numerical Recipes in C, 2nd ed., §6.2.
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Standard normal cumulative distribution function `Φ(x)`.
///
/// ```
/// use puf_core::math::normal_cdf;
/// assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
/// assert!((normal_cdf(1.959963984540054) - 0.975).abs() < 1e-7);
/// ```
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x * std::f64::consts::FRAC_1_SQRT_2)
}

/// Where [`normal_cdf`] saturates for the XOR piling-up factor: for
/// `|x| ≥ SATURATED_X`, `1.0 − 2.0 · normal_cdf(x)` is exactly `−1.0` for
/// positive `x` and exactly `+1.0` for negative `x`.
///
/// On this module's [`erfc`] the factor is last different from `∓1` at
/// x = +8.292 (above it `normal_cdf` rounds to exactly 1.0) and x = −8.374
/// (below it `2·normal_cdf(x)` is under half an ulp of 1.0). A threshold of
/// 10 sits 19 % beyond the farther point, so an `x` computed with a few ulps
/// of rounding from an argument proven to exceed 10 is still saturated.
pub const SATURATED_X: f64 = 10.0;

/// Standard normal probability density function `φ(x)`.
pub fn normal_pdf(x: f64) -> f64 {
    const INV_SQRT_2PI: f64 = 0.398_942_280_401_432_7;
    INV_SQRT_2PI * (-0.5 * x * x).exp()
}

/// Inverse of the standard normal CDF (the probit function), via Peter
/// Acklam's rational approximation refined with one Halley step against
/// [`normal_cdf`].
///
/// Consistent with [`normal_cdf`] to better than 1e-9 (so round trips are
/// exact for practical purposes); absolute accuracy against the true probit
/// is bounded by the ~1.2e-7 accuracy of the underlying [`erfc`].
///
/// # Panics
///
/// Panics if `p` is not strictly inside `(0, 1)`.
///
/// ```
/// use puf_core::math::normal_quantile;
/// assert!((normal_quantile(0.975) - 1.959963984540054).abs() < 1e-6);
/// assert!((normal_quantile(0.5)).abs() < 1e-6);
/// ```
pub fn normal_quantile(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "normal_quantile requires p in (0,1), got {p}"
    );
    // Coefficients for Acklam's approximation.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One step of Halley's method against the high-accuracy CDF.
    let e = normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (0.5 * x * x).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Exact binomial CDF `P(X ≤ k)` for `X ~ Binomial(n, p)`, by summing the
/// pmf recurrence. Intended for protocol-sized `n` (≤ a few thousand).
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
///
/// ```
/// use puf_core::math::binomial_cdf;
/// assert!((binomial_cdf(1, 2, 0.5) - 0.75).abs() < 1e-12);
/// assert_eq!(binomial_cdf(2, 2, 0.5), 1.0);
/// ```
pub fn binomial_cdf(k: u64, n: u64, p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p must be in [0,1]");
    if k >= n {
        return 1.0;
    }
    if p == 0.0 {
        return 1.0;
    }
    if p == 1.0 {
        return 0.0; // k < n here
    }
    let q = 1.0 - p;
    // pmf(0) in log space to survive large n.
    let mut log_pmf = n as f64 * q.ln();
    let mut cdf = log_pmf.exp();
    let ratio = p / q;
    for i in 0..k {
        log_pmf += ((n - i) as f64 / (i + 1) as f64).ln() + ratio.ln();
        cdf += log_pmf.exp();
    }
    cdf.min(1.0)
}

/// Arithmetic mean of a slice. Returns `NaN` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Unbiased sample variance (`n - 1` denominator). Returns `NaN` for fewer
/// than two samples.
pub fn variance(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return f64::NAN;
    }
    let m = mean(values);
    values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (values.len() - 1) as f64
}

/// Sample standard deviation; see [`variance`].
pub fn std_dev(values: &[f64]) -> f64 {
    variance(values).sqrt()
}

/// Pearson correlation coefficient of two equal-length slices.
///
/// Returns `NaN` when either slice has zero variance or lengths differ.
pub fn pearson(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() || a.len() < 2 {
        return f64::NAN;
    }
    let (ma, mb) = (mean(a), mean(b));
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va == 0.0 || vb == 0.0 {
        return f64::NAN;
    }
    cov / (va.sqrt() * vb.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values from tables / scipy.
    const ERF_TABLE: &[(f64, f64)] = &[
        (0.0, 0.0),
        (0.1, 0.1124629160182849),
        (0.5, 0.5204998778130465),
        (1.0, 0.8427007929497149),
        (1.5, 0.9661051464753107),
        (2.0, 0.9953222650189527),
        (3.0, 0.9999779095030014),
    ];

    #[test]
    fn erf_matches_reference_values() {
        for &(x, want) in ERF_TABLE {
            assert!(
                (erf(x) - want).abs() < 2e-7,
                "erf({x}) = {} want {want}",
                erf(x)
            );
            assert!((erf(-x) + want).abs() < 2e-7, "erf is odd at {x}");
        }
    }

    #[test]
    fn erfc_tail_is_positive_and_decreasing() {
        let mut prev = erfc(3.0);
        for i in 4..12 {
            let v = erfc(i as f64);
            assert!(v > 0.0, "erfc({i}) underflowed to {v}");
            assert!(v < prev, "erfc not decreasing at {i}");
            prev = v;
        }
    }

    #[test]
    fn piling_up_factor_is_exact_beyond_saturated_x() {
        let factor = |x: f64| 1.0 - 2.0 * normal_cdf(x);
        let step = 1e-4;
        let mut x = SATURATED_X;
        while x <= 60.0 {
            assert_eq!(factor(x).to_bits(), (-1.0f64).to_bits(), "x = {x}");
            assert_eq!(factor(-x).to_bits(), 1.0f64.to_bits(), "x = -{x}");
            x += step;
        }
        assert_eq!(factor(f64::MAX), -1.0);
        assert_eq!(factor(-f64::MAX), 1.0);
        // Below 8.29 the factor is not yet saturated, so the threshold is
        // not vacuous.
        assert!(factor(8.2) > -1.0 && factor(-8.3) < 1.0);
    }

    #[test]
    fn normal_cdf_symmetry() {
        for x in [-3.5, -1.0, -0.3, 0.0, 0.7, 2.2] {
            assert!((normal_cdf(x) + normal_cdf(-x) - 1.0).abs() < 1e-7);
        }
    }

    #[test]
    fn normal_cdf_known_points() {
        assert!((normal_cdf(1.0) - 0.8413447460685429).abs() < 1e-7);
        assert!((normal_cdf(-2.0) - 0.022750131948179195).abs() < 1e-7);
    }

    #[test]
    fn quantile_inverts_cdf() {
        for p in [1e-6, 1e-3, 0.02, 0.25, 0.5, 0.77, 0.999, 1.0 - 1e-6] {
            let x = normal_quantile(p);
            assert!(
                (normal_cdf(x) - p).abs() < 1e-8,
                "round trip failed at p={p}: x={x}, cdf={}",
                normal_cdf(x)
            );
        }
    }

    #[test]
    #[should_panic(expected = "normal_quantile")]
    fn quantile_rejects_zero() {
        normal_quantile(0.0);
    }

    #[test]
    fn pdf_integrates_to_cdf_increment() {
        // Trapezoidal integral of the pdf over [0, 1] ≈ Φ(1) − Φ(0).
        let n = 10_000;
        let mut acc = 0.0;
        for i in 0..n {
            let x0 = i as f64 / n as f64;
            let x1 = (i + 1) as f64 / n as f64;
            acc += 0.5 * (normal_pdf(x0) + normal_pdf(x1)) * (x1 - x0);
        }
        assert!((acc - (normal_cdf(1.0) - 0.5)).abs() < 1e-8);
    }

    #[test]
    fn binomial_cdf_hand_checked() {
        // Binomial(3, 0.5): pmf = 1/8, 3/8, 3/8, 1/8.
        assert!((binomial_cdf(0, 3, 0.5) - 0.125).abs() < 1e-12);
        assert!((binomial_cdf(1, 3, 0.5) - 0.5).abs() < 1e-12);
        assert!((binomial_cdf(2, 3, 0.5) - 0.875).abs() < 1e-12);
        assert_eq!(binomial_cdf(3, 3, 0.5), 1.0);
        assert_eq!(binomial_cdf(5, 3, 0.5), 1.0);
        assert_eq!(binomial_cdf(0, 10, 1.0), 0.0);
        assert_eq!(binomial_cdf(0, 10, 0.0), 1.0);
    }

    #[test]
    fn binomial_cdf_large_n_stays_normalised() {
        let c = binomial_cdf(500, 1_000, 0.5);
        assert!((c - 0.5126).abs() < 1e-3, "median region: {c}");
        assert!((binomial_cdf(999, 1_000, 0.5) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stats_helpers() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((mean(&xs) - 2.5).abs() < 1e-12);
        assert!((variance(&xs) - 5.0 / 3.0).abs() < 1e-12);
        assert!(mean(&[]).is_nan());
        assert!(variance(&[1.0]).is_nan());
    }

    #[test]
    fn pearson_perfect_and_anti() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        let c = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&a, &b) - 1.0).abs() < 1e-12);
        assert!((pearson(&a, &c) + 1.0).abs() < 1e-12);
        assert!(pearson(&a, &[1.0, 1.0, 1.0, 1.0]).is_nan());
    }
}
