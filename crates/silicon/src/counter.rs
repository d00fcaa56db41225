//! On-chip counter measurements: repeated evaluation of one challenge and
//! averaging into a *soft response*.
//!
//! The paper's chips contain counters that sample a response 100,000 times;
//! the average indicates how stable the response is (soft response 0.00 or
//! 1.00 ⇔ 100 % stable). Simulating 10¹² individual evaluations is
//! pointless: conditioned on the analytic per-evaluation probability `p`,
//! the counter value is exactly `Binomial(N, p)`. [`measure`] samples that
//! distribution (with exact tail handling from [`puf_core::rngx::binomial`]);
//! [`measure_literal`] performs the N evaluations one by one and exists to
//! validate the fast path.

use puf_core::rngx;
use rand::Rng;
use std::fmt;

/// The result of an `N`-evaluation counter measurement: `count` of the
/// evaluations read `1`.
///
/// The measured soft response is `count / evals`; the CRP is *100 % stable*
/// iff every evaluation agreed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SoftResponse {
    count: u64,
    evals: u64,
}

impl SoftResponse {
    /// Creates a soft response from a raw counter value.
    ///
    /// # Panics
    ///
    /// Panics if `evals` is zero or `count > evals`.
    pub fn new(count: u64, evals: u64) -> Self {
        assert!(evals > 0, "evals must be positive");
        assert!(count <= evals, "count {count} exceeds evals {evals}");
        Self { count, evals }
    }

    /// Number of evaluations that read `1`.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Total number of evaluations.
    pub fn evals(&self) -> u64 {
        self.evals
    }

    /// The soft response value `count / evals ∈ [0, 1]`.
    pub fn value(&self) -> f64 {
        self.count as f64 / self.evals as f64
    }

    /// All evaluations read `0` — a 100 % stable `0` (the histogram's first
    /// bin in the paper's Fig. 2).
    pub fn is_stable_zero(&self) -> bool {
        self.count == 0
    }

    /// All evaluations read `1` — a 100 % stable `1` (the last bin).
    pub fn is_stable_one(&self) -> bool {
        self.count == self.evals
    }

    /// 100 % stable in either direction.
    pub fn is_stable(&self) -> bool {
        self.is_stable_zero() || self.is_stable_one()
    }

    /// Majority-vote hard response.
    pub fn majority_bit(&self) -> bool {
        2 * self.count >= self.evals
    }

    /// The same measurement read back through a counter register that
    /// saturates at `cap`: counts above the cap are clamped, so the read
    /// under-reports the true soft response (a `cap` of 0 reads every CRP
    /// as a 100 % stable 0). This is the silicon-level fault hook for the
    /// chaos experiments — a too-narrow counter silently biases the
    /// stability classification toward 0.
    pub fn saturated(self, cap: u64) -> SoftResponse {
        if self.count <= cap {
            return self;
        }
        puf_telemetry::counter!("faults.counter.saturations").inc();
        SoftResponse {
            count: cap,
            evals: self.evals,
        }
    }
}

impl fmt::Display for SoftResponse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.5} ({}/{})", self.value(), self.count, self.evals)
    }
}

/// Fast counter measurement: samples the counter value from
/// `Binomial(evals, p)` where `p` is the analytic per-evaluation probability
/// of reading `1`.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]` or `evals` is zero.
pub fn measure<R: Rng + ?Sized>(p: f64, evals: u64, rng: &mut R) -> SoftResponse {
    assert!(evals > 0, "evals must be positive");
    SoftResponse::new(rngx::binomial(rng, evals, p), evals)
}

/// [`measure`] through a saturating counter register: the drawn count is
/// clamped at `cap` (see [`SoftResponse::saturated`]). Consumes exactly the
/// same RNG stream as [`measure`], so a fault-injected run stays replayable
/// against a clean run of the same seed.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]` or `evals` is zero.
pub fn measure_saturating<R: Rng + ?Sized>(
    p: f64,
    evals: u64,
    cap: u64,
    rng: &mut R,
) -> SoftResponse {
    measure(p, evals, rng).saturated(cap)
}

/// Literal counter measurement: runs `eval` once per evaluation and counts
/// the `true` results. Identical in distribution to [`measure`] when `eval`
/// returns `true` with i.i.d. probability `p`; kept for fidelity tests and
/// tiny `evals`.
///
/// # Panics
///
/// Panics if `evals` is zero.
pub fn measure_literal<R, F>(evals: u64, rng: &mut R, mut eval: F) -> SoftResponse
where
    R: Rng + ?Sized,
    F: FnMut(&mut R) -> bool,
{
    assert!(evals > 0, "evals must be positive");
    let mut count = 0;
    for _ in 0..evals {
        if eval(rng) {
            count += 1;
        }
    }
    SoftResponse::new(count, evals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn soft_response_accessors() {
        let s = SoftResponse::new(250, 1_000);
        assert_eq!(s.count(), 250);
        assert_eq!(s.evals(), 1_000);
        assert!((s.value() - 0.25).abs() < 1e-12);
        assert!(!s.is_stable());
        assert!(!s.majority_bit());
        assert!(SoftResponse::new(0, 10).is_stable_zero());
        assert!(SoftResponse::new(10, 10).is_stable_one());
        assert!(SoftResponse::new(6, 10).majority_bit());
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn soft_response_rejects_overflow() {
        SoftResponse::new(11, 10);
    }

    #[test]
    fn display_contains_fraction() {
        let s = SoftResponse::new(1, 4);
        assert!(s.to_string().contains("1/4"));
    }

    #[test]
    fn fast_and_literal_paths_agree_statistically() {
        let mut rng = StdRng::seed_from_u64(10);
        let p = 0.3;
        let evals = 200;
        let trials = 3_000;
        let mut fast_sum = 0.0;
        let mut lit_sum = 0.0;
        for _ in 0..trials {
            fast_sum += measure(p, evals, &mut rng).value();
            lit_sum += measure_literal(evals, &mut rng, |r| r.gen::<f64>() < p).value();
        }
        let fast_mean = fast_sum / trials as f64;
        let lit_mean = lit_sum / trials as f64;
        assert!((fast_mean - p).abs() < 0.01, "fast {fast_mean}");
        assert!((lit_mean - p).abs() < 0.01, "literal {lit_mean}");
    }

    #[test]
    fn deterministic_probabilities_give_stable_measurements() {
        let mut rng = StdRng::seed_from_u64(11);
        assert!(measure(0.0, 100_000, &mut rng).is_stable_zero());
        assert!(measure(1.0, 100_000, &mut rng).is_stable_one());
    }

    #[test]
    fn saturated_counter_clamps_and_biases_toward_zero() {
        let s = SoftResponse::new(900, 1_000);
        let capped = s.saturated(100);
        assert_eq!(capped.count(), 100);
        assert_eq!(capped.evals(), 1_000);
        assert!(
            !capped.is_stable_one(),
            "saturation destroys stable-1 reads"
        );
        // A cap of zero reads everything as a 100 % stable 0.
        assert!(s.saturated(0).is_stable_zero());
        // Counts at or below the cap pass through untouched.
        assert_eq!(
            SoftResponse::new(5, 10).saturated(5),
            SoftResponse::new(5, 10)
        );
    }

    #[test]
    fn measure_saturating_replays_the_measure_stream() {
        let mut a = StdRng::seed_from_u64(20);
        let mut b = StdRng::seed_from_u64(20);
        for _ in 0..200 {
            let clean = measure(0.7, 500, &mut a);
            let faulty = measure_saturating(0.7, 500, 300, &mut b);
            assert_eq!(faulty, clean.saturated(300));
        }
        // Both rngs consumed identical draws.
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn marginal_probability_is_never_stable_at_scale() {
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..50 {
            let s = measure(0.5, 100_000, &mut rng);
            assert!(!s.is_stable(), "p=0.5 measured stable: {s}");
        }
    }
}
