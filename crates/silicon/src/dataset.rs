//! CRP dataset containers used by the modeling attacks and enrollment.

use crate::counter::SoftResponse;
use puf_core::Challenge;
use rand::seq::SliceRandom;
use rand::Rng;

/// A set of hard challenge-response pairs (the attacker's view of an XOR
/// PUF, or a single PUF's hard responses).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CrpSet {
    challenges: Vec<Challenge>,
    responses: Vec<bool>,
}

impl CrpSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a set from parallel vectors.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn from_pairs(challenges: Vec<Challenge>, responses: Vec<bool>) -> Self {
        assert_eq!(
            challenges.len(),
            responses.len(),
            "challenge/response length mismatch"
        );
        Self {
            challenges,
            responses,
        }
    }

    /// Appends one CRP.
    pub fn push(&mut self, challenge: Challenge, response: bool) {
        self.challenges.push(challenge);
        self.responses.push(response);
    }

    /// Number of CRPs.
    pub fn len(&self) -> usize {
        self.challenges.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.challenges.is_empty()
    }

    /// The challenges, in insertion order.
    pub fn challenges(&self) -> &[Challenge] {
        &self.challenges
    }

    /// The responses, parallel to [`CrpSet::challenges`].
    pub fn responses(&self) -> &[bool] {
        &self.responses
    }

    /// Iterates over `(challenge, response)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Challenge, bool)> + '_ {
        self.challenges.iter().zip(self.responses.iter().copied())
    }

    /// Shuffles the CRPs in place (keeping pairs aligned).
    pub fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.shuffle(rng);
        self.challenges = idx.iter().map(|&i| self.challenges[i]).collect();
        self.responses = idx.iter().map(|&i| self.responses[i]).collect();
    }

    /// Splits off the first `ceil(fraction · len)` CRPs as a training set,
    /// leaving the rest as test — the paper's 90 %/10 % protocol.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not within `[0, 1]`.
    pub fn split_at_fraction(&self, fraction: f64) -> (CrpSet, CrpSet) {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
        let cut = ((self.len() as f64) * fraction).ceil() as usize;
        let cut = cut.min(self.len());
        (
            CrpSet {
                challenges: self.challenges[..cut].to_vec(),
                responses: self.responses[..cut].to_vec(),
            },
            CrpSet {
                challenges: self.challenges[cut..].to_vec(),
                responses: self.responses[cut..].to_vec(),
            },
        )
    }

    /// Keeps at most the first `limit` CRPs.
    pub fn truncated(&self, limit: usize) -> CrpSet {
        let cut = limit.min(self.len());
        CrpSet {
            challenges: self.challenges[..cut].to_vec(),
            responses: self.responses[..cut].to_vec(),
        }
    }
}

impl Extend<(Challenge, bool)> for CrpSet {
    fn extend<T: IntoIterator<Item = (Challenge, bool)>>(&mut self, iter: T) {
        for (c, r) in iter {
            self.push(c, r);
        }
    }
}

impl FromIterator<(Challenge, bool)> for CrpSet {
    fn from_iter<T: IntoIterator<Item = (Challenge, bool)>>(iter: T) -> Self {
        let mut set = CrpSet::new();
        set.extend(iter);
        set
    }
}

/// A set of soft challenge-response pairs (counter measurements), the raw
/// material of enrollment model fitting.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SoftCrpSet {
    challenges: Vec<Challenge>,
    softs: Vec<SoftResponse>,
}

impl SoftCrpSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a set from parallel vectors.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn from_pairs(challenges: Vec<Challenge>, softs: Vec<SoftResponse>) -> Self {
        assert_eq!(
            challenges.len(),
            softs.len(),
            "challenge/soft-response length mismatch"
        );
        Self { challenges, softs }
    }

    /// Appends one soft CRP.
    pub fn push(&mut self, challenge: Challenge, soft: SoftResponse) {
        self.challenges.push(challenge);
        self.softs.push(soft);
    }

    /// Number of CRPs.
    pub fn len(&self) -> usize {
        self.challenges.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.challenges.is_empty()
    }

    /// The challenges.
    pub fn challenges(&self) -> &[Challenge] {
        &self.challenges
    }

    /// The soft responses, parallel to [`SoftCrpSet::challenges`].
    pub fn softs(&self) -> &[SoftResponse] {
        &self.softs
    }

    /// Iterates over `(challenge, soft response)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Challenge, SoftResponse)> + '_ {
        self.challenges.iter().zip(self.softs.iter().copied())
    }

    /// Soft-response values as `f64` (for regression targets).
    pub fn values(&self) -> Vec<f64> {
        self.softs.iter().map(|s| s.value()).collect()
    }

    /// Fraction of CRPs that measured 100 % stable.
    pub fn stable_fraction(&self) -> f64 {
        if self.is_empty() {
            return f64::NAN;
        }
        self.softs.iter().filter(|s| s.is_stable()).count() as f64 / self.len() as f64
    }

    /// The subset whose measurements are 100 % stable, with majority bits.
    pub fn stable_crps(&self) -> CrpSet {
        self.iter()
            .filter(|(_, s)| s.is_stable())
            .map(|(c, s)| (*c, s.is_stable_one()))
            .collect()
    }

    /// Reduces to hard CRPs by majority vote (stable or not).
    pub fn to_hard(&self) -> CrpSet {
        self.iter().map(|(c, s)| (*c, s.majority_bit())).collect()
    }
}

impl Extend<(Challenge, SoftResponse)> for SoftCrpSet {
    fn extend<T: IntoIterator<Item = (Challenge, SoftResponse)>>(&mut self, iter: T) {
        for (c, s) in iter {
            self.push(c, s);
        }
    }
}

impl FromIterator<(Challenge, SoftResponse)> for SoftCrpSet {
    fn from_iter<T: IntoIterator<Item = (Challenge, SoftResponse)>>(iter: T) -> Self {
        let mut set = SoftCrpSet::new();
        set.extend(iter);
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_challenges(n: usize) -> Vec<Challenge> {
        let mut rng = StdRng::seed_from_u64(1);
        (0..n).map(|_| Challenge::random(16, &mut rng)).collect()
    }

    #[test]
    fn crpset_roundtrip_and_split() {
        let cs = sample_challenges(10);
        let rs: Vec<bool> = (0..10).map(|i| i % 2 == 0).collect();
        let set = CrpSet::from_pairs(cs.clone(), rs.clone());
        assert_eq!(set.len(), 10);
        let (train, test) = set.split_at_fraction(0.9);
        assert_eq!(train.len(), 9);
        assert_eq!(test.len(), 1);
        assert_eq!(train.challenges()[0], cs[0]);
        assert_eq!(test.responses()[0], rs[9]);
    }

    #[test]
    fn split_edge_fractions() {
        let set = CrpSet::from_pairs(sample_challenges(5), vec![true; 5]);
        let (a, b) = set.split_at_fraction(0.0);
        assert_eq!((a.len(), b.len()), (0, 5));
        let (a, b) = set.split_at_fraction(1.0);
        assert_eq!((a.len(), b.len()), (5, 0));
    }

    #[test]
    fn shuffle_preserves_pairs() {
        let cs = sample_challenges(50);
        // Response encodes the original index's parity of bit 0.
        let rs: Vec<bool> = cs.iter().map(|c| c.bit(0)).collect();
        let mut set = CrpSet::from_pairs(cs, rs);
        let mut rng = StdRng::seed_from_u64(2);
        set.shuffle(&mut rng);
        for (c, r) in set.iter() {
            assert_eq!(c.bit(0), r, "pair alignment broken by shuffle");
        }
    }

    #[test]
    fn truncated_limits_length() {
        let set = CrpSet::from_pairs(sample_challenges(5), vec![true; 5]);
        assert_eq!(set.truncated(3).len(), 3);
        assert_eq!(set.truncated(100).len(), 5);
    }

    #[test]
    fn soft_set_stable_filtering() {
        let cs = sample_challenges(4);
        let softs = vec![
            SoftResponse::new(0, 100),   // stable 0
            SoftResponse::new(100, 100), // stable 1
            SoftResponse::new(50, 100),  // unstable
            SoftResponse::new(99, 100),  // unstable (but majority 1)
        ];
        let set = SoftCrpSet::from_pairs(cs, softs);
        assert!((set.stable_fraction() - 0.5).abs() < 1e-12);
        let stable = set.stable_crps();
        assert_eq!(stable.len(), 2);
        assert_eq!(stable.responses(), &[false, true]);
        let hard = set.to_hard();
        assert_eq!(hard.responses(), &[false, true, true, true]);
    }

    #[test]
    fn collect_from_iterator() {
        let cs = sample_challenges(3);
        let set: CrpSet = cs.iter().map(|c| (*c, true)).collect();
        assert_eq!(set.len(), 3);
        let soft: SoftCrpSet = cs.iter().map(|c| (*c, SoftResponse::new(1, 2))).collect();
        assert_eq!(soft.len(), 3);
        assert!(soft.stable_fraction() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn from_pairs_rejects_mismatch() {
        CrpSet::from_pairs(sample_challenges(2), vec![true]);
    }
}
