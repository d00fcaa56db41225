//! Fleet-scale authentication service: a sharded chip store with
//! cross-session batched verification on the bit-sliced engine.
//!
//! The [`super::session::SessionManager`] state machine authenticates one
//! session at a time and pays scalar-evaluation prices for every
//! challenge it verifies. At fleet scale — a million enrolled chips,
//! millions of concurrent sessions — almost all of that work is the same
//! computation repeated: evaluating a chip's enrolled member models over
//! challenges drawn from a bounded pool. This module restructures the
//! protocol layer around that observation:
//!
//! - **Challenge universe** ([`ChallengeUniverse`]): one pre-expanded,
//!   sign-plane-compressed [`FeatureMatrix`] of `U` distinct challenges
//!   shared by the whole fleet (~4 bits per challenge-feature, the
//!   `core::batch` compression). Sessions draw from this pool instead of
//!   searching the full 2^stages space per round.
//! - **Compact chip store** ([`StoredChip`], [`ShardStore`]): per member
//!   PUF the server keeps one *shifted* weight vector — the enrolled
//!   model's θ with the effective `Thr(1)` threshold folded into the bias
//!   feature — plus a single scalar recovering the `Thr(0)` shift. Since
//!   φ's constant bias feature is last, `θ·φ > thr ⟺ (θ − thr·e_bias)·φ
//!   > 0`, so stability screening and response prediction become pure
//!   sign tests the bit-sliced kernels already compute. Storage stays at
//!   the paper's `n·(stages+1)` floats per chip (+8 bytes).
//! - **Batched warm-up**: the first time sessions touch a chip, its
//!   shifted members are evaluated over the whole universe in a *fleet*
//!   dispatch through [`puf_core::bitslice::xor_response_packed_many`] —
//!   one transpose+expand amortized across every chip warmed that tick —
//!   yielding two packed planes per chip: a predicted-stable mask and the
//!   expected XOR response bits. Every subsequent selection and verdict
//!   for that chip is a bit lookup; no per-request scalar evaluation.
//! - **Event loop with a latency-bounding flush** ([`AuthService`]):
//!   sessions progress on a deterministic logical-tick clock. Delivered
//!   response frames accumulate in a pending-verification queue that is
//!   judged when it fills ([`ServiceConfig::flush_rows`]) **or** when its
//!   oldest row ages past [`ServiceConfig::flush_ticks`] — so p99 verdict
//!   latency stays bounded at low load while high load gets fleet-sized
//!   batches.
//! - **Deterministic shard routing** ([`shard_of`]): chips map to shards
//!   through a named splitmix64 mix of a route seed and the chip id.
//!   Shards share nothing; executing them on 1, 2, 4 or 8 workers yields
//!   bit-identical verdict streams.
//!
//! The session semantics — retries over fresh challenges, exponential
//! backoff bookkeeping, consecutive-failure lockout, degraded fallback —
//! are the session module's state machine, which this event loop drives
//! through the same transitions [`SessionManager::authenticate`] does.
//! [`PoolSource`] lets a sequential `SessionManager` replay consume the
//! *same* challenge stream for equivalence testing and for the
//! batched-vs-sequential speedup gate.
//!
//! **Stability-notion fine print**: the classic server path classifies
//! `θ·φ` against thresholds directly; the shifted sign test computes
//! `(θ − thr·e_bias)·φ > 0`. Algebraically identical, the two can differ
//! by one ulp of rounding for predictions within a float rounding step of
//! a threshold (and the shifted test maps the measure-zero `θ·φ = thr0`
//! case to *unstable* rather than relying on a strict `<`). The service
//! therefore defines predicted stability via the shifted models on **all**
//! of its paths — packed warm planes and the scalar [`PoolSource`] replay
//! agree bit-for-bit, which is the invariant the equivalence proptests
//! pin. The classic [`Server::select_challenges`] path is untouched.
//!
//! [`SessionManager`]: super::session::SessionManager
//! [`SessionManager::authenticate`]: super::session::SessionManager::authenticate
//! [`Server::select_challenges`]: super::server::Server::select_challenges

use crate::auth::Responder;
use crate::enrollment::EnrolledChip;
use crate::server::{ExclusionSet, SelectedChallenge, Server};
use crate::session::{
    exchange, ChallengeSource, Channel, ChipSessionState, SessionMachine, SessionPolicy,
    SessionReport, Step,
};
use crate::ProtocolError;
use puf_core::bitslice::{xor_response_packed_many, PackedBits};
use puf_core::{ArbiterPuf, Challenge, FeatureMatrix, XorPuf};
use rand::Rng;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Deterministic shard routing.
// ---------------------------------------------------------------------------

/// splitmix64 increment (Steele et al.), the stream constant every other
/// fault/bench lane derivation in this workspace uses.
pub const ROUTE_MIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
const ROUTE_MIX_A: u64 = 0xBF58_476D_1CE4_E5B9;
const ROUTE_MIX_B: u64 = 0x94D0_49BB_1331_11EB;

/// Derives an independent 64-bit lane from a master seed — the same
/// splitmix64 finalizer the fault layer uses, public here so service
/// drivers can seed per-session RNGs that are invariant under batching
/// order and worker count.
pub fn service_lane(seed: u64, lane: u64) -> u64 {
    let mut z = seed.wrapping_add(ROUTE_MIX_GAMMA.wrapping_mul(lane.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(ROUTE_MIX_A);
    z = (z ^ (z >> 27)).wrapping_mul(ROUTE_MIX_B);
    z ^ (z >> 31)
}

/// Routes a chip to one of `shard_count` shards: a splitmix64 mix of the
/// route seed and the chip id, reduced mod `shard_count`. Deterministic,
/// data-independent, and stable under re-enrollment — the only inputs are
/// the seed and the id.
pub fn shard_of(route_seed: u64, chip_id: u32, shard_count: usize) -> usize {
    if shard_count <= 1 {
        return 0;
    }
    (service_lane(route_seed, u64::from(chip_id)) % shard_count as u64) as usize
}

// ---------------------------------------------------------------------------
// Challenge universe.
// ---------------------------------------------------------------------------

/// The fleet-shared challenge pool: `U` distinct random challenges held
/// once as a sign-plane-compressed [`FeatureMatrix`], plus a bit-pattern
/// index for O(1) challenge→slot lookups.
///
/// The index is a flat open-addressed probe table (power-of-two capacity,
/// ≥4× the pool size, linear probing): lookups are on the hot path of
/// every device exchange — once per transmitted challenge — and a one- or
/// two-probe table beats both `BTreeMap` pointer chasing and a ~10-probe
/// binary search. Empty buckets are marked by a `u32::MAX` slot sentinel,
/// so any bit pattern (including zero) is a valid key.
#[derive(Clone, Debug)]
pub struct ChallengeUniverse {
    features: FeatureMatrix,
    /// `(bits, slot)` buckets; `slot == u32::MAX` marks an empty bucket.
    index: Vec<(u128, u32)>,
    /// Bucket mask (`capacity - 1`).
    index_mask: usize,
}

/// Mixes a 128-bit challenge pattern down to a bucket hash with the
/// splitmix64 finalizer (same mixer as [`service_lane`]).
fn challenge_bucket_hash(bits: u128) -> u64 {
    let mut z = (bits as u64) ^ ((bits >> 64) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ChallengeUniverse {
    /// Draws `size` *distinct* random challenges of `stages` bits.
    ///
    /// # Errors
    ///
    /// - [`ProtocolError::InvalidPolicy`] on zero `size` or zero `stages`.
    /// - [`ProtocolError::ChallengeSelectionExhausted`] if the draw budget
    ///   (64 draws per requested challenge) cannot find `size` distinct
    ///   patterns — only plausible when `2^stages` is close to `size`.
    pub fn generate<R: Rng + ?Sized>(
        stages: usize,
        size: usize,
        rng: &mut R,
    ) -> Result<Self, ProtocolError> {
        if size == 0 {
            return Err(ProtocolError::InvalidPolicy {
                reason: "challenge universe must hold at least one challenge",
            });
        }
        if stages == 0 {
            return Err(ProtocolError::InvalidPolicy {
                reason: "challenge universe needs at least one stage",
            });
        }
        let budget = size.saturating_mul(64);
        let mut challenges = Vec::with_capacity(size);
        let mut index = BTreeMap::new();
        for _ in 0..budget {
            if challenges.len() == size {
                break;
            }
            let challenge = Challenge::random(stages, rng);
            if let std::collections::btree_map::Entry::Vacant(slot) = index.entry(challenge.bits())
            {
                slot.insert(challenges.len() as u32);
                challenges.push(challenge);
            }
        }
        if challenges.len() < size {
            return Err(ProtocolError::ChallengeSelectionExhausted {
                requested: size,
                found: challenges.len(),
                attempts: budget,
            });
        }
        let features =
            FeatureMatrix::new(stages, &challenges).map_err(|_| ProtocolError::InvalidPolicy {
                reason: "challenge universe feature expansion failed",
            })?;
        let capacity = (size * 4).next_power_of_two();
        let index_mask = capacity - 1;
        let mut table = vec![(0u128, u32::MAX); capacity];
        for (bits, slot) in index {
            let mut bucket = challenge_bucket_hash(bits) as usize & index_mask;
            while table[bucket].1 != u32::MAX {
                bucket = (bucket + 1) & index_mask;
            }
            table[bucket] = (bits, slot);
        }
        Ok(Self {
            features,
            index: table,
            index_mask,
        })
    }

    /// Number of challenges in the pool.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Whether the pool is empty (never true for a generated universe).
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Challenge bit width.
    pub fn stages(&self) -> usize {
        self.features.stages()
    }

    /// The compressed feature planes the bit-sliced kernels consume.
    pub fn features(&self) -> &FeatureMatrix {
        &self.features
    }

    /// The challenge in slot `i`.
    pub fn challenge(&self, i: u32) -> &Challenge {
        &self.features.challenges()[i as usize]
    }

    /// The slot of a challenge bit pattern, if it is in the pool.
    pub fn index_of(&self, bits: u128) -> Option<u32> {
        let mut bucket = challenge_bucket_hash(bits) as usize & self.index_mask;
        loop {
            let (pattern, slot) = self.index[bucket];
            if slot == u32::MAX {
                return None;
            }
            if pattern == bits {
                return Some(slot);
            }
            bucket = (bucket + 1) & self.index_mask;
        }
    }

    /// Approximate heap footprint of the pool: challenge list, compressed
    /// sign planes (4 bits per challenge-feature) and the lookup index.
    pub fn heap_bytes(&self) -> usize {
        let challenges = self.features.len() * std::mem::size_of::<Challenge>();
        // One u32 plane word per 32 features × 64-challenge block, i.e.
        // width × len/32 words ≈ len·width/8 bytes.
        let planes = self.features.len().div_ceil(32) * self.features.width() * 4;
        let index = self.index.len() * std::mem::size_of::<(u128, u32)>();
        challenges + planes + index
    }
}

// ---------------------------------------------------------------------------
// Compact chip store.
// ---------------------------------------------------------------------------

/// One member PUF in shifted form: `up` is the enrolled θ with the
/// effective `Thr(1)` subtracted from the bias weight (sign > 0 ⟺
/// predicted stable-1); adding `lo_bias_delta` to the bias instead yields
/// the `Thr(0)`-shifted model (sign ≤ 0 ⟺ predicted stable-0).
#[derive(Clone, Debug, PartialEq)]
struct StoredMember {
    up: Vec<f64>,
    lo_bias_delta: f64,
}

/// A compact enrollment record: the paper's `n·(stages+1)` floats per
/// chip, pre-shifted so every prediction the service needs is a sign test.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredChip {
    chip_id: u32,
    stages: usize,
    members: Vec<StoredMember>,
}

impl StoredChip {
    /// Compacts an enrollment record into shifted-model form.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::MalformedRecord`] if a member model's weight count
    /// does not match `stages + 1` or a shifted weight is non-finite.
    pub fn from_enrolled(record: &EnrolledChip) -> Result<Self, ProtocolError> {
        let malformed = ProtocolError::MalformedRecord {
            chip_id: record.chip_id,
        };
        if record.pufs.is_empty() {
            return Err(malformed);
        }
        let mut members = Vec::with_capacity(record.pufs.len());
        for puf in &record.pufs {
            let theta = puf.model.theta();
            if theta.len() != record.stages + 1 {
                return Err(malformed);
            }
            let eff = puf.effective_thresholds();
            let mut up = theta.to_vec();
            let bias = up.len() - 1;
            up[bias] -= eff.thr1;
            let lo_bias_delta = eff.thr1 - eff.thr0;
            if !up.iter().all(|w| w.is_finite()) || !lo_bias_delta.is_finite() {
                return Err(malformed);
            }
            members.push(StoredMember { up, lo_bias_delta });
        }
        Ok(Self {
            chip_id: record.chip_id,
            stages: record.stages,
            members,
        })
    }

    /// The chip id.
    pub fn chip_id(&self) -> u32 {
        self.chip_id
    }

    /// Challenge bit width.
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// Number of member PUFs (the XOR width `n`).
    pub fn members(&self) -> usize {
        self.members.len()
    }

    /// Heap bytes this record owns: the shifted weight vectors plus the
    /// per-member scalar — the measured bytes-per-enrolled-chip figure.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .members
                .iter()
                .map(|m| std::mem::size_of::<StoredMember>() + m.up.len() * 8)
                .sum::<usize>()
    }

    /// Rebuilds the shifted member models as evaluable PUFs: one
    /// single-member [`XorPuf`] per member and threshold side, exactly the
    /// objects the bit-sliced fleet kernels and the scalar replay both
    /// evaluate (which is what makes the two paths bit-identical).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::MalformedRecord`] if a weight vector no longer
    /// validates (cannot happen for a [`StoredChip::from_enrolled`] value).
    pub fn shifted_models(&self) -> Result<ShiftedChipModel, ProtocolError> {
        let malformed = ProtocolError::MalformedRecord {
            chip_id: self.chip_id,
        };
        let mut up = Vec::with_capacity(self.members.len());
        let mut lo = Vec::with_capacity(self.members.len());
        for member in &self.members {
            let up_arbiter =
                ArbiterPuf::from_weights(member.up.clone()).map_err(|_| malformed.clone())?;
            let mut lo_weights = member.up.clone();
            let bias = lo_weights.len() - 1;
            lo_weights[bias] += member.lo_bias_delta;
            let lo_arbiter = ArbiterPuf::from_weights(lo_weights).map_err(|_| malformed.clone())?;
            up.push(XorPuf::from_members(vec![up_arbiter]).map_err(|_| malformed.clone())?);
            lo.push(XorPuf::from_members(vec![lo_arbiter]).map_err(|_| malformed.clone())?);
        }
        Ok(ShiftedChipModel { up, lo })
    }
}

/// A [`StoredChip`] rebuilt into evaluable shifted models.
#[derive(Clone, Debug)]
pub struct ShiftedChipModel {
    /// Per member: θ with the bias shifted by −Thr(1). Sign > 0 ⟺ the
    /// member is predicted stable-1.
    up: Vec<XorPuf>,
    /// Per member: θ with the bias shifted by −Thr(0). Sign ≤ 0 ⟺ the
    /// member is predicted stable-0.
    lo: Vec<XorPuf>,
}

impl ShiftedChipModel {
    /// Number of member PUFs.
    pub fn members(&self) -> usize {
        self.up.len()
    }

    /// The Thr(1)-shifted member models (fleet-dispatch order: all `up`
    /// members first, then all `lo` members).
    pub fn up_members(&self) -> &[XorPuf] {
        &self.up
    }

    /// The Thr(0)-shifted member models.
    pub fn lo_members(&self) -> &[XorPuf] {
        &self.lo
    }

    /// Scalar predicted-stability screen: `Some(expected XOR bit)` when
    /// every member is predicted stable, `None` otherwise. Bit-identical
    /// to the packed warm planes (same models, same kernels).
    pub fn stable_expected(&self, challenge: &Challenge) -> Option<bool> {
        let mut expected = false;
        for (up, lo) in self.up.iter().zip(&self.lo) {
            let hi = up.response(challenge);
            let lo_bit = lo.response(challenge);
            if !hi && lo_bit {
                return None; // between the thresholds: predicted unstable
            }
            expected ^= hi;
        }
        Some(expected)
    }
}

/// A chip's warm verification planes over the challenge universe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WarmChip {
    mask: PackedBits,
    expected: PackedBits,
}

impl WarmChip {
    /// Predicted-stable positions in the universe.
    pub fn mask(&self) -> &PackedBits {
        &self.mask
    }

    /// Expected XOR response bits (valid where [`WarmChip::mask`] is set).
    pub fn expected(&self) -> &PackedBits {
        &self.expected
    }

    /// Number of predicted-stable challenges in the universe.
    pub fn stable_count(&self) -> u64 {
        self.mask.count_ones()
    }

    /// Heap bytes of the two packed planes.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + (self.mask.words().len() + self.expected.words().len()) * 8
    }
}

/// Evaluates a batch of chips' shifted models over the universe in one
/// fleet dispatch through [`xor_response_packed_many`] and combines the
/// per-member sign planes into [`WarmChip`] mask/expected planes.
///
/// The returned pairs are in input order. This is the only place the
/// service evaluates enrollment models — everything downstream is bit
/// lookups — so its cost amortizes across every session that ever touches
/// the warmed chips.
pub fn warm_chips(
    universe: &ChallengeUniverse,
    models: &[(u32, ShiftedChipModel)],
) -> Vec<(u32, WarmChip)> {
    if models.is_empty() {
        return Vec::new();
    }
    let mut refs: Vec<&XorPuf> = Vec::new();
    for (_, model) in models {
        refs.extend(model.up_members());
        refs.extend(model.lo_members());
    }
    let packed = xor_response_packed_many(&refs, universe.features());
    let len = universe.len();
    let words = len.div_ceil(64);
    let mut out = Vec::with_capacity(models.len());
    let mut at = 0usize;
    for (chip_id, model) in models {
        let n = model.members();
        let ups = &packed[at..at + n];
        let los = &packed[at + n..at + 2 * n];
        at += 2 * n;
        let mut mask_words = vec![u64::MAX; words];
        let mut expected_words = vec![0u64; words];
        for (up, lo) in ups.iter().zip(los) {
            for w in 0..words {
                // Member predicted stable ⟺ up (stable-1) or !lo
                // (stable-0); the chip is stable where every member is.
                mask_words[w] &= up.words()[w] | !lo.words()[w];
                expected_words[w] ^= up.words()[w];
            }
        }
        out.push((
            *chip_id,
            WarmChip {
                mask: PackedBits::from_words(mask_words, len),
                expected: PackedBits::from_words(expected_words, len),
            },
        ));
    }
    out
}

/// One shard's slice of the chip store: compact records plus the warm
/// planes of chips that have seen traffic.
#[derive(Clone, Debug, Default)]
pub struct ShardStore {
    chips: BTreeMap<u32, StoredChip>,
    warm: BTreeMap<u32, WarmChip>,
}

impl ShardStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a compact record, returning any previous record for the id
    /// (and invalidating its warm planes).
    pub fn insert(&mut self, chip: StoredChip) -> Option<StoredChip> {
        puf_telemetry::counter!("protocol.service.enrolled").inc();
        self.warm.remove(&chip.chip_id);
        self.chips.insert(chip.chip_id, chip)
    }

    /// Number of enrolled chips.
    pub fn len(&self) -> usize {
        self.chips.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.chips.is_empty()
    }

    /// The compact record for a chip.
    pub fn chip(&self, chip_id: u32) -> Option<&StoredChip> {
        self.chips.get(&chip_id)
    }

    /// The warm planes for a chip, if it has been warmed.
    pub fn warm(&self, chip_id: u32) -> Option<&WarmChip> {
        self.warm.get(&chip_id)
    }

    /// Enrolled chip ids in ascending order.
    pub fn chip_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.chips.keys().copied()
    }

    /// Heap bytes of the compact records (the cold store).
    pub fn stored_bytes(&self) -> usize {
        self.chips.values().map(StoredChip::heap_bytes).sum()
    }

    /// Heap bytes of the warm planes (the hot cache).
    pub fn warm_bytes(&self) -> usize {
        self.warm.values().map(WarmChip::heap_bytes).sum()
    }

    /// Number of warmed chips.
    pub fn warm_len(&self) -> usize {
        self.warm.len()
    }
}

// ---------------------------------------------------------------------------
// Pool selection (shared between the event loop and the sequential replay).
// ---------------------------------------------------------------------------

/// The universe-pool selection loop: random slot draws, skipping excluded
/// bit patterns and predicted-unstable challenges. Both the batched event
/// loop (plane-lookup oracle) and the sequential [`PoolSource`] replay
/// (scalar-model oracle) call this exact function, so they consume
/// identical rng streams and select identical challenges — the heart of
/// the batched-vs-sequential equivalence guarantee.
///
/// Exclusion is a caller-supplied predicate over `(slot, bits)` rather
/// than a concrete set: the event loop answers from a per-session slot
/// bitset (one word load per draw), the sequential replay from the
/// session's [`ExclusionSet`] pattern search. Both describe the same
/// membership, so the accept/reject decisions — and therefore the rng
/// stream — are identical.
fn pool_select<R, E, F>(
    universe: &ChallengeUniverse,
    count: usize,
    max_attempts: usize,
    mut excluded: E,
    mut stable_expected: F,
    rng: &mut R,
) -> Result<Vec<(u32, SelectedChallenge)>, ProtocolError>
where
    R: Rng + ?Sized,
    E: FnMut(u32, u128) -> bool,
    F: FnMut(u32) -> Option<bool>,
{
    let pool = universe.len() as u32;
    let mut selected = Vec::with_capacity(count);
    let mut attempted = 0u64;
    for _ in 0..max_attempts {
        if selected.len() == count {
            break;
        }
        attempted += 1;
        let slot = rng.gen_range(0..pool);
        let challenge = universe.challenge(slot);
        if excluded(slot, challenge.bits()) {
            continue;
        }
        if let Some(expected) = stable_expected(slot) {
            selected.push((
                slot,
                SelectedChallenge {
                    challenge: *challenge,
                    expected,
                },
            ));
        }
    }
    puf_telemetry::counter!("protocol.service.pool_attempted").add(attempted);
    puf_telemetry::counter!("protocol.service.pool_accepted").add(selected.len() as u64);
    if selected.len() < count {
        return Err(ProtocolError::ChallengeSelectionExhausted {
            requested: count,
            found: selected.len(),
            attempts: max_attempts,
        });
    }
    Ok(selected)
}

/// A [`ChallengeSource`] that draws from a [`ChallengeUniverse`] pool and
/// screens stability through scalar shifted-model evaluation — the
/// sequential twin of the service's warm-plane lookups. Feeding this to
/// [`SessionManager::authenticate_with_source`] replays a service
/// session's exact challenge stream one scalar evaluation at a time.
///
/// [`SessionManager::authenticate_with_source`]: super::session::SessionManager::authenticate_with_source
#[derive(Clone, Debug)]
pub struct PoolSource {
    universe: Arc<ChallengeUniverse>,
    models: BTreeMap<u32, ShiftedChipModel>,
}

impl PoolSource {
    /// A pool source over `universe` with no registered chips.
    pub fn new(universe: Arc<ChallengeUniverse>) -> Self {
        Self {
            universe,
            models: BTreeMap::new(),
        }
    }

    /// Registers a chip's compact record, rebuilding its scalar models.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::MalformedRecord`] from
    /// [`StoredChip::shifted_models`].
    pub fn register(&mut self, chip: &StoredChip) -> Result<(), ProtocolError> {
        let model = chip.shifted_models()?;
        self.models.insert(chip.chip_id(), model);
        Ok(())
    }

    /// The shared universe.
    pub fn universe(&self) -> &ChallengeUniverse {
        &self.universe
    }
}

impl ChallengeSource for PoolSource {
    fn select<R: Rng + ?Sized>(
        &mut self,
        _server: &Server,
        chip_id: u32,
        count: usize,
        max_attempts: usize,
        exclude: &ExclusionSet,
        rng: &mut R,
    ) -> Result<Vec<SelectedChallenge>, ProtocolError> {
        let model = self
            .models
            .get(&chip_id)
            .ok_or(ProtocolError::UnknownChip { chip_id })?;
        let universe = &self.universe;
        let selected = pool_select(
            universe,
            count,
            max_attempts,
            |_, bits| exclude.contains(bits),
            |slot| model.stable_expected(universe.challenge(slot)),
            rng,
        )?;
        Ok(selected.into_iter().map(|(_, s)| s).collect())
    }
}

// ---------------------------------------------------------------------------
// The batched authentication service.
// ---------------------------------------------------------------------------

/// Event-loop configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServiceConfig {
    /// The session policy every submitted session runs under.
    pub policy: SessionPolicy,
    /// Judge the pending-verification queue when it reaches this many
    /// rows…
    pub flush_rows: usize,
    /// …or when its oldest row has waited this many ticks, whichever
    /// comes first — the latency bound at low load.
    pub flush_ticks: u64,
}

impl ServiceConfig {
    /// A default configuration over `policy`: 4096-row blocks, 4-tick
    /// latency bound.
    pub fn new(policy: SessionPolicy) -> Self {
        Self {
            policy,
            flush_rows: 4096,
            flush_ticks: 4,
        }
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::InvalidPolicy`] on a zero flush threshold or an
    /// invalid session policy.
    pub fn validate(&self) -> Result<(), ProtocolError> {
        self.policy.validate()?;
        if self.flush_rows == 0 {
            return Err(ProtocolError::InvalidPolicy {
                reason: "flush_rows must be positive",
            });
        }
        if self.flush_ticks == 0 {
            return Err(ProtocolError::InvalidPolicy {
                reason: "flush_ticks must be positive",
            });
        }
        Ok(())
    }
}

/// The terminal record of one service session.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionVerdict {
    /// The id assigned by [`AuthService::submit`] (submission order).
    pub session_id: u64,
    /// The chip the session authenticated.
    pub chip_id: u32,
    /// Tick at which the session was submitted.
    pub submitted_tick: u64,
    /// Tick at which the verdict was decided.
    pub decided_tick: u64,
    /// The session report, exactly as a sequential
    /// [`SessionManager::authenticate_with_source`] replay would return
    /// it.
    ///
    /// [`SessionManager::authenticate_with_source`]: super::session::SessionManager::authenticate_with_source
    pub result: Result<SessionReport, ProtocolError>,
}

/// Aggregate event-loop statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Ticks executed.
    pub ticks: u64,
    /// Sessions submitted.
    pub submitted: u64,
    /// Verdicts decided.
    pub decided: u64,
    /// Pending-queue flushes.
    pub flushes: u64,
    /// Flushes triggered by row age rather than queue size.
    pub aged_flushes: u64,
    /// Largest pending block judged by one flush.
    pub max_flush_rows: usize,
    /// Fleet warm-up dispatches through the bit-sliced engine.
    pub warm_batches: u64,
    /// Chips warmed.
    pub warm_chips: u64,
    /// Member-challenge evaluations dispatched through
    /// [`xor_response_packed_many`].
    pub warm_member_evals: u64,
}

/// One in-flight session.
#[derive(Debug)]
struct ActiveSession<C, Ch> {
    chip_id: u32,
    client: C,
    channel: Ch,
    rng: rand::rngs::StdRng,
    submitted_tick: u64,
    not_before: u64,
    started: bool,
    machine: SessionMachine,
    /// Universe slots already issued to this session, one bit per slot —
    /// the event-loop twin of the sequential path's [`ExclusionSet`]
    /// (identical membership, answered by a word load instead of a
    /// pattern search). Allocated lazily on the first attempt.
    excluded_slots: Vec<u64>,
}

/// One delivered response frame awaiting a batched verdict.
#[derive(Debug)]
struct PendingRow {
    session_id: u64,
    enqueued_tick: u64,
    slots: Vec<u32>,
    bits: Vec<bool>,
}

/// The sharded, batched authentication event loop. One `AuthService`
/// instance is one shard; shards share a [`ChallengeUniverse`] and
/// nothing else, so a fleet of them executes deterministically on any
/// worker count.
///
/// Type parameters fix the device population: `C` is the responder type
/// (the device side of every session) and `Ch` the transport channel.
#[derive(Debug)]
pub struct AuthService<C: Responder, Ch: Channel> {
    config: ServiceConfig,
    universe: Arc<ChallengeUniverse>,
    store: ShardStore,
    now: u64,
    next_session_id: u64,
    sessions: BTreeMap<u64, ActiveSession<C, Ch>>,
    chip_fifo: BTreeMap<u32, VecDeque<u64>>,
    chip_states: BTreeMap<u32, ChipSessionState>,
    wakes: BTreeMap<u64, Vec<u64>>,
    pending: VecDeque<PendingRow>,
    verdicts: Vec<SessionVerdict>,
    stats: ServiceStats,
}

impl<C: Responder, Ch: Channel> AuthService<C, Ch> {
    /// A service shard over a shared challenge universe.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::InvalidPolicy`] from [`ServiceConfig::validate`],
    /// or if the universe is empty.
    pub fn new(
        config: ServiceConfig,
        universe: Arc<ChallengeUniverse>,
    ) -> Result<Self, ProtocolError> {
        config.validate()?;
        if universe.is_empty() {
            return Err(ProtocolError::InvalidPolicy {
                reason: "service universe must not be empty",
            });
        }
        Ok(Self {
            config,
            universe,
            store: ShardStore::new(),
            now: 0,
            next_session_id: 0,
            sessions: BTreeMap::new(),
            chip_fifo: BTreeMap::new(),
            chip_states: BTreeMap::new(),
            wakes: BTreeMap::new(),
            pending: VecDeque::new(),
            verdicts: Vec::new(),
            stats: ServiceStats::default(),
        })
    }

    /// Enrolls a chip from a full enrollment record (compacted on entry).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::MalformedRecord`] from
    /// [`StoredChip::from_enrolled`], or [`ProtocolError::InvalidPolicy`]
    /// on a stage-width mismatch with the universe.
    pub fn enroll(&mut self, record: &EnrolledChip) -> Result<Option<StoredChip>, ProtocolError> {
        self.enroll_stored(StoredChip::from_enrolled(record)?)
    }

    /// Enrolls an already-compacted record.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::InvalidPolicy`] on a stage-width mismatch with the
    /// universe.
    pub fn enroll_stored(&mut self, chip: StoredChip) -> Result<Option<StoredChip>, ProtocolError> {
        if chip.stages() != self.universe.stages() {
            return Err(ProtocolError::InvalidPolicy {
                reason: "stored chip stage width does not match the universe",
            });
        }
        Ok(self.store.insert(chip))
    }

    /// Re-enrolls an *already-enrolled* chip from a fresh enrollment
    /// record: replaces the compact store record (evicting its stale warm
    /// planes), clears the `needs_reenrollment` flag and reinstates the
    /// chip — the service twin of
    /// [`super::session::SessionManager::reenroll_chip`]. Returns the
    /// superseded compact record.
    ///
    /// # Errors
    ///
    /// - [`ProtocolError::UnknownChip`] if the chip was never enrolled.
    /// - [`ProtocolError::InvalidPolicy`] if the chip has in-flight
    ///   sessions (their pending rows were selected against the old
    ///   record; swapping mid-session would judge them against the wrong
    ///   planes) or on a stage-width mismatch.
    /// - [`ProtocolError::MalformedRecord`] from
    ///   [`StoredChip::from_enrolled`].
    pub fn reenroll(&mut self, record: &EnrolledChip) -> Result<StoredChip, ProtocolError> {
        self.reenroll_stored(StoredChip::from_enrolled(record)?)
    }

    /// [`AuthService::reenroll`] over an already-compacted record.
    ///
    /// # Errors
    ///
    /// As [`AuthService::reenroll`].
    pub fn reenroll_stored(&mut self, chip: StoredChip) -> Result<StoredChip, ProtocolError> {
        let chip_id = chip.chip_id();
        if self.store.chip(chip_id).is_none() {
            return Err(ProtocolError::UnknownChip { chip_id });
        }
        if self
            .chip_fifo
            .get(&chip_id)
            .is_some_and(|fifo| !fifo.is_empty())
        {
            return Err(ProtocolError::InvalidPolicy {
                reason: "cannot re-enroll a chip with in-flight sessions",
            });
        }
        if chip.stages() != self.universe.stages() {
            return Err(ProtocolError::InvalidPolicy {
                reason: "stored chip stage width does not match the universe",
            });
        }
        let previous = self
            .store
            .insert(chip)
            .ok_or(ProtocolError::UnknownChip { chip_id })?;
        self.chip_states.entry(chip_id).or_default().reenrolled();
        puf_telemetry::counter!("protocol.service.reenrolls").inc();
        Ok(previous)
    }

    /// Submits an authentication session for `chip_id`, to be activated no
    /// earlier than tick `not_before`. Sessions of the same chip execute
    /// serially in submission order (the per-chip FIFO); sessions of
    /// different chips interleave freely. Returns the session id.
    ///
    /// The caller supplies the device responder, the transport channel and
    /// the session rng — seed the rng from a per-session
    /// [`service_lane`] so verdicts are invariant under batching order.
    pub fn submit(
        &mut self,
        chip_id: u32,
        client: C,
        channel: Ch,
        rng: rand::rngs::StdRng,
        not_before: u64,
    ) -> u64 {
        let session_id = self.next_session_id;
        self.next_session_id += 1;
        self.stats.submitted += 1;
        puf_telemetry::counter!("protocol.service.submitted").inc();
        puf_telemetry::trace_instant!("protocol.service.enqueue");
        self.sessions.insert(
            session_id,
            ActiveSession {
                chip_id,
                client,
                channel,
                rng,
                submitted_tick: self.now,
                not_before,
                started: false,
                machine: SessionMachine::default(),
                excluded_slots: Vec::new(),
            },
        );
        let fifo = self.chip_fifo.entry(chip_id).or_default();
        fifo.push_back(session_id);
        if fifo.len() == 1 {
            // Head of the chip's queue: schedule its activation.
            let at = not_before.max(self.now + 1);
            self.wakes.entry(at).or_default().push(session_id);
        }
        session_id
    }

    /// The current logical tick.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Whether any session or pending verification row remains.
    pub fn is_idle(&self) -> bool {
        self.sessions.is_empty() && self.pending.is_empty()
    }

    /// Rows currently awaiting a batched verdict.
    pub fn pending_rows(&self) -> usize {
        self.pending.len()
    }

    /// The shard's chip store.
    pub fn store(&self) -> &ShardStore {
        &self.store
    }

    /// The shared challenge universe.
    pub fn universe(&self) -> &ChallengeUniverse {
        &self.universe
    }

    /// The shared challenge universe handle (cheap to clone into other
    /// fleet components).
    pub fn universe_arc(&self) -> &Arc<ChallengeUniverse> {
        &self.universe
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// Per-chip session state (same bookkeeping as
    /// [`super::session::SessionManager::state`]).
    pub fn chip_state(&self, chip_id: u32) -> Option<&ChipSessionState> {
        self.chip_states.get(&chip_id)
    }

    /// Every chip's session state, in ascending chip-id order — the
    /// iteration the durable layer snapshots and lifecycle harnesses scan
    /// for `needs_reenrollment` flags.
    pub fn chip_states(&self) -> impl Iterator<Item = (u32, &ChipSessionState)> + '_ {
        self.chip_states.iter().map(|(&id, state)| (id, state))
    }

    /// Overwrites one chip's session state wholesale. Recovery-only: the
    /// durable layer uses this to re-materialize the ladder state a
    /// snapshot + WAL replay reconstructs.
    pub(crate) fn restore_chip_state(&mut self, chip_id: u32, state: ChipSessionState) {
        self.chip_states.insert(chip_id, state);
    }

    /// Administratively clears a lockout — see
    /// [`ChipSessionState::reinstate`].
    pub fn reinstate(&mut self, chip_id: u32) {
        if let Some(state) = self.chip_states.get_mut(&chip_id) {
            state.reinstate();
            puf_telemetry::counter!("protocol.service.reinstates").inc();
        }
    }

    /// Drains every decided verdict, in decision order.
    pub fn drain_verdicts(&mut self) -> Vec<SessionVerdict> {
        std::mem::take(&mut self.verdicts)
    }

    /// Advances the event loop one tick: wakes due sessions, warms their
    /// chips in one fleet dispatch, runs their attempts, and flushes the
    /// pending queue if it is full or its oldest row has aged out.
    /// Returns the number of verdicts decided this tick.
    pub fn tick(&mut self) -> usize {
        let decided_before = self.verdicts.len();
        self.now += 1;
        self.stats.ticks += 1;
        puf_telemetry::counter!("protocol.service.ticks").inc();
        let _trace = puf_telemetry::trace_span!("protocol.service.tick");

        // 1. Collect sessions whose wake tick has arrived, in id order.
        let mut due: Vec<u64> = Vec::new();
        loop {
            match self.wakes.first_key_value() {
                Some((&at, _)) if at <= self.now => {
                    if let Some((_, ids)) = self.wakes.pop_first() {
                        due.extend(ids);
                    }
                }
                _ => break,
            }
        }
        due.sort_unstable();

        // 2. Warm every cold chip the due sessions touch — one fleet
        // dispatch through the bit-sliced engine for the whole tick.
        self.warm_due(&due);

        // 3. Run each due session's next attempt.
        for session_id in due {
            self.step_session(session_id);
        }

        // 4. Latency-bounding flush: full block or aged-out head.
        let aged = self.pending.front().is_some_and(|row| {
            self.now.saturating_sub(row.enqueued_tick) >= self.config.flush_ticks
        });
        if self.pending.len() >= self.config.flush_rows || aged {
            if aged && self.pending.len() < self.config.flush_rows {
                self.stats.aged_flushes += 1;
            }
            self.flush();
        }
        puf_telemetry::gauge!("protocol.service.pending").set(self.pending.len() as f64);
        self.verdicts.len() - decided_before
    }

    /// Runs ticks until the shard is idle or `max_ticks` have elapsed.
    /// Returns `true` if the shard drained.
    pub fn run_until_idle(&mut self, max_ticks: u64) -> bool {
        let mut used = 0u64;
        while !self.is_idle() {
            if used >= max_ticks {
                return false;
            }
            self.tick();
            used += 1;
        }
        true
    }

    /// Warms the cold chips among the due sessions' targets in one
    /// [`warm_chips`] fleet dispatch.
    fn warm_due(&mut self, due: &[u64]) {
        let mut cold: Vec<u32> = due
            .iter()
            .filter_map(|id| self.sessions.get(id).map(|s| s.chip_id))
            .filter(|id| self.store.chips.contains_key(id) && !self.store.warm.contains_key(id))
            .collect();
        cold.sort_unstable();
        cold.dedup();
        if cold.is_empty() {
            return;
        }
        let _span = puf_telemetry::span!("protocol.service.warm");
        let _trace = puf_telemetry::trace_span!("protocol.service.warm");
        let mut models: Vec<(u32, ShiftedChipModel)> = Vec::with_capacity(cold.len());
        for chip_id in cold {
            // A record that cannot rebuild is left cold; its sessions
            // fail with MalformedRecord at attempt time.
            if let Some(chip) = self.store.chips.get(&chip_id) {
                if let Ok(model) = chip.shifted_models() {
                    models.push((chip_id, model));
                }
            }
        }
        let member_evals: u64 = models
            .iter()
            .map(|(_, m)| 2 * m.members() as u64 * self.universe.len() as u64)
            .sum();
        let warmed = warm_chips(&self.universe, &models);
        self.stats.warm_batches += 1;
        self.stats.warm_chips += warmed.len() as u64;
        self.stats.warm_member_evals += member_evals;
        puf_telemetry::counter!("protocol.service.warm_chips").add(warmed.len() as u64);
        puf_telemetry::counter!("protocol.service.warm_evals").add(member_evals);
        for (chip_id, warm) in warmed {
            self.store.warm.insert(chip_id, warm);
        }
    }

    /// Wakes one session and runs its next attempt.
    fn step_session(&mut self, session_id: u64) {
        let Some(mut s) = self.sessions.remove(&session_id) else {
            return;
        };
        let step = self.attempt(session_id, &mut s);
        self.advance(session_id, s, step);
    }

    /// One attempt of a woken session: activation on first wake, pool
    /// selection from the warm planes, and the device exchange. A
    /// delivered frame is queued for the batched flush (`Ok(None)`); a
    /// transport failure is handed to the machine at once.
    fn attempt(
        &mut self,
        session_id: u64,
        s: &mut ActiveSession<C, Ch>,
    ) -> Result<Option<Step>, ProtocolError> {
        if !s.started {
            s.started = true;
            let chip = self.chip_states.entry(s.chip_id).or_default();
            s.machine.start(s.chip_id, chip)?;
        }
        s.machine.begin_attempt();
        let _trace = puf_telemetry::trace_span!("protocol.service.attempt");

        // Selection from the warm planes — same rng stream as the scalar
        // PoolSource replay.
        if !self.store.chips.contains_key(&s.chip_id) {
            return Err(ProtocolError::UnknownChip { chip_id: s.chip_id });
        }
        let warm = self
            .store
            .warm
            .get(&s.chip_id)
            .ok_or(ProtocolError::MalformedRecord { chip_id: s.chip_id })?;
        if s.excluded_slots.is_empty() {
            s.excluded_slots = vec![0u64; self.universe.len().div_ceil(64)];
        }
        let excluded_slots = &s.excluded_slots;
        let selected = pool_select(
            &self.universe,
            self.config.policy.rounds,
            self.config.policy.select_budget(),
            |slot, _| (excluded_slots[slot as usize / 64] >> (slot % 64)) & 1 == 1,
            |slot| {
                let i = slot as usize;
                warm.mask.get(i).then(|| warm.expected.get(i))
            },
            &mut s.rng,
        )?;
        let mut fresh = 0;
        for (slot, _) in &selected {
            let word = &mut s.excluded_slots[*slot as usize / 64];
            let bit = 1u64 << (slot % 64);
            if *word & bit == 0 {
                *word |= bit;
                fresh += 1;
            }
        }
        s.machine.issued(selected.len(), fresh);

        let challenges: Vec<Challenge> = selected.iter().map(|(_, sel)| sel.challenge).collect();
        match exchange(&mut s.client, &mut s.channel, &challenges)? {
            Ok(bits) => {
                self.pending.push_back(PendingRow {
                    session_id,
                    enqueued_tick: self.now,
                    slots: selected.iter().map(|(slot, _)| *slot).collect(),
                    bits,
                });
                puf_telemetry::counter!("protocol.service.rows_enqueued").inc();
                Ok(None)
            }
            Err(kind) => s
                .machine
                .transport_failed(&self.config.policy, kind)
                .map(Some),
        }
    }

    /// Acts on a session's latest transition: parks it until its row is
    /// judged (`Ok(None)`) or its backoff wake, or records its verdict.
    fn advance(
        &mut self,
        session_id: u64,
        mut s: ActiveSession<C, Ch>,
        step: Result<Option<Step>, ProtocolError>,
    ) {
        match step {
            Ok(None) => {
                self.sessions.insert(session_id, s);
            }
            Ok(Some(Step::Retry(after))) => {
                // Saturating: a valid policy may back off up to u64::MAX
                // ticks, which must not wrap round to an immediate retry.
                let at = self.now.saturating_add(after.max(1));
                self.wakes.entry(at).or_default().push(session_id);
                self.sessions.insert(session_id, s);
            }
            Ok(Some(Step::Done(outcome))) => {
                let chip = self.chip_states.entry(s.chip_id).or_default();
                let report = std::mem::take(&mut s.machine).finish(outcome, chip);
                self.finalize(session_id, s, Ok(report));
            }
            Err(e) => self.finalize(session_id, s, Err(e)),
        }
    }

    /// Judges every pending row against the warm planes and advances the
    /// owning sessions — accept, lockout, retry or conclude.
    fn flush(&mut self) {
        let _span = puf_telemetry::span!("protocol.service.flush");
        let _trace = puf_telemetry::trace_span!("protocol.service.flush");
        self.stats.flushes += 1;
        self.stats.max_flush_rows = self.stats.max_flush_rows.max(self.pending.len());
        puf_telemetry::counter!("protocol.service.flushes").inc();
        puf_telemetry::counter!("protocol.service.flush_rows").add(self.pending.len() as u64);
        let rows: Vec<PendingRow> = self.pending.drain(..).collect();
        for row in rows {
            self.judge_row(row);
        }
    }

    /// Judges one delivered frame: mismatches are counted against the warm
    /// planes' expected bits, and the machine rules on them.
    fn judge_row(&mut self, row: PendingRow) {
        let Some(mut s) = self.sessions.remove(&row.session_id) else {
            return;
        };
        let step = match self.store.warm.get(&s.chip_id) {
            Some(warm) => {
                let mismatches = row
                    .slots
                    .iter()
                    .zip(&row.bits)
                    .filter(|(&slot, &bit)| warm.expected.get(slot as usize) != bit)
                    .count();
                let chip = self.chip_states.entry(s.chip_id).or_default();
                s.machine
                    .delivered(&self.config.policy, chip, row.bits.len(), mismatches)
            }
            // Re-enrollment between enqueue and flush evicted the planes.
            None => Err(ProtocolError::MalformedRecord { chip_id: s.chip_id }),
        };
        self.advance(row.session_id, s, step.map(Some));
    }

    /// Records the verdict and activates the chip's next queued session.
    fn finalize(
        &mut self,
        session_id: u64,
        s: ActiveSession<C, Ch>,
        result: Result<SessionReport, ProtocolError>,
    ) {
        self.stats.decided += 1;
        puf_telemetry::counter!("protocol.service.verdicts").inc();
        puf_telemetry::trace_instant!("protocol.service.verdict");
        self.verdicts.push(SessionVerdict {
            session_id,
            chip_id: s.chip_id,
            submitted_tick: s.submitted_tick,
            decided_tick: self.now,
            result,
        });
        if let Some(fifo) = self.chip_fifo.get_mut(&s.chip_id) {
            if fifo.front() == Some(&session_id) {
                fifo.pop_front();
            }
            if let Some(&next) = fifo.front() {
                let at = self
                    .sessions
                    .get(&next)
                    .map(|n| n.not_before)
                    .unwrap_or(0)
                    .max(self.now + 1);
                self.wakes.entry(at).or_default().push(next);
            } else {
                self.chip_fifo.remove(&s.chip_id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::{ChipResponder, RandomResponder};
    use crate::enrollment::{enroll, EnrollmentConfig};
    use crate::session::{PerfectChannel, SessionManager, SessionOutcome};
    use puf_core::Condition;
    use puf_silicon::{Chip, ChipConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const TEST_SEED: u64 = 0x5E81_71CE;

    fn enrolled_chip(seed: u64) -> (Chip, EnrolledChip, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let chip = Chip::fabricate(3, &ChipConfig::small(), &mut rng);
        let record = enroll(&chip, &EnrollmentConfig::small(2), &mut rng).unwrap();
        (chip, record, rng)
    }

    #[test]
    fn shard_routing_is_deterministic_and_spread() {
        let mut counts = [0usize; 8];
        for chip_id in 0..4096u32 {
            let shard = shard_of(TEST_SEED, chip_id, 8);
            assert_eq!(shard, shard_of(TEST_SEED, chip_id, 8));
            counts[shard] += 1;
        }
        for (shard, &count) in counts.iter().enumerate() {
            assert!(
                count > 256,
                "shard {shard} got {count}/4096 chips — routing is badly skewed"
            );
        }
        assert_eq!(shard_of(TEST_SEED, 17, 1), 0);
        assert_eq!(shard_of(TEST_SEED, 17, 0), 0);
        // Different route seeds give different partitions.
        let moved = (0..4096u32)
            .filter(|&id| shard_of(TEST_SEED, id, 8) != shard_of(TEST_SEED ^ 1, id, 8))
            .count();
        assert!(moved > 2048);
    }

    #[test]
    fn universe_holds_distinct_indexed_challenges() {
        let mut rng = StdRng::seed_from_u64(TEST_SEED);
        let universe = ChallengeUniverse::generate(16, 300, &mut rng).unwrap();
        assert_eq!(universe.len(), 300);
        assert_eq!(universe.stages(), 16);
        assert!(universe.heap_bytes() > 0);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..300u32 {
            let c = universe.challenge(i);
            assert!(seen.insert(c.bits()), "duplicate challenge in universe");
            assert_eq!(universe.index_of(c.bits()), Some(i));
        }
        assert_eq!(universe.index_of(u128::MAX), None);
        assert!(matches!(
            ChallengeUniverse::generate(16, 0, &mut rng),
            Err(ProtocolError::InvalidPolicy { .. })
        ));
        // 2^2 = 4 < 40 distinct challenges: must exhaust, not loop.
        assert!(matches!(
            ChallengeUniverse::generate(2, 40, &mut rng),
            Err(ProtocolError::ChallengeSelectionExhausted { .. })
        ));
    }

    #[test]
    fn stored_chip_is_compact_and_rebuildable() {
        let (_, record, _) = enrolled_chip(1);
        let stored = StoredChip::from_enrolled(&record).unwrap();
        assert_eq!(stored.chip_id(), record.chip_id);
        assert_eq!(stored.stages(), record.stages);
        assert_eq!(stored.members(), record.pufs.len());
        // n shifted weight vectors of stages+1 floats, plus the per-member
        // scalar and struct headers.
        let weights = record.pufs.len() * (record.stages + 1) * 8;
        assert!(stored.heap_bytes() >= weights);
        assert!(stored.heap_bytes() < weights + 128 * record.pufs.len() + 128);
        let models = stored.shifted_models().unwrap();
        assert_eq!(models.members(), record.pufs.len());
        assert_eq!(models.up_members().len(), models.lo_members().len());
    }

    #[test]
    fn warm_planes_match_scalar_screen_bit_for_bit() {
        let (_, record, mut rng) = enrolled_chip(2);
        let universe = ChallengeUniverse::generate(record.stages, 200, &mut rng).unwrap();
        let stored = StoredChip::from_enrolled(&record).unwrap();
        let models = vec![(record.chip_id, stored.shifted_models().unwrap())];
        let warmed = warm_chips(&universe, &models);
        assert_eq!(warmed.len(), 1);
        let warm = &warmed[0].1;
        let scalar = stored.shifted_models().unwrap();
        let mut stable = 0u64;
        for i in 0..universe.len() {
            let expect = scalar.stable_expected(universe.challenge(i as u32));
            assert_eq!(
                warm.mask.get(i),
                expect.is_some(),
                "mask bit {i} disagrees with the scalar screen"
            );
            if let Some(bit) = expect {
                assert_eq!(warm.expected.get(i), bit, "expected bit {i} disagrees");
                stable += 1;
            }
        }
        assert_eq!(warm.stable_count(), stable);
        assert!(stable > 0, "test universe produced no stable challenges");
        assert!(warm.heap_bytes() > 0);
    }

    #[test]
    fn shifted_screen_tracks_enrollment_classification() {
        // The shifted sign test and the classic threshold classification
        // may differ only within a rounding ulp of the thresholds; on a
        // random universe they should agree essentially everywhere.
        let (_, record, mut rng) = enrolled_chip(3);
        let universe = ChallengeUniverse::generate(record.stages, 500, &mut rng).unwrap();
        let stored = StoredChip::from_enrolled(&record).unwrap();
        let scalar = stored.shifted_models().unwrap();
        let mut disagreements = 0usize;
        for i in 0..universe.len() as u32 {
            let c = universe.challenge(i);
            if scalar.stable_expected(c) != record.predict_stable_xor(c) {
                disagreements += 1;
            }
        }
        assert!(
            disagreements <= 1,
            "{disagreements}/500 shifted-vs-classic disagreements — more than rounding"
        );
    }

    fn service_setup(
        policy: SessionPolicy,
        seed: u64,
    ) -> (
        Chip,
        StoredChip,
        Arc<ChallengeUniverse>,
        AuthService<ChipResponder<'static>, PerfectChannel>,
    ) {
        // Leak the chip so ChipResponder's borrow lives long enough for
        // the service to own it; test-only.
        let mut rng = StdRng::seed_from_u64(seed);
        let chip = Chip::fabricate(3, &ChipConfig::small(), &mut rng);
        let record = enroll(&chip, &EnrollmentConfig::small(2), &mut rng).unwrap();
        let universe = Arc::new(ChallengeUniverse::generate(record.stages, 400, &mut rng).unwrap());
        let stored = StoredChip::from_enrolled(&record).unwrap();
        let mut service =
            AuthService::new(ServiceConfig::new(policy), Arc::clone(&universe)).unwrap();
        service.enroll_stored(stored.clone()).unwrap();
        (chip, stored, universe, service)
    }

    #[test]
    fn genuine_session_accepts_and_matches_sequential_replay() {
        let policy = SessionPolicy::resilient(15);
        let (chip, stored, universe, _) = service_setup(policy, 4);
        let chip_id = stored.chip_id();

        let mut service: AuthService<ChipResponder<'_>, PerfectChannel> =
            AuthService::new(ServiceConfig::new(policy), Arc::clone(&universe)).unwrap();
        service.enroll_stored(stored.clone()).unwrap();
        let session_rng = StdRng::seed_from_u64(service_lane(TEST_SEED, 0));
        let client = ChipResponder::new(&chip, 2, Condition::NOMINAL, 5);
        service.submit(chip_id, client, PerfectChannel, session_rng, 0);
        assert!(service.run_until_idle(10_000));
        let verdicts = service.drain_verdicts();
        assert_eq!(verdicts.len(), 1);
        let batched = verdicts[0].result.clone().unwrap();
        assert_eq!(batched.outcome, SessionOutcome::Accepted);
        assert!(service.stats().warm_batches >= 1);
        assert!(service.stats().warm_member_evals > 0);

        // Sequential replay: same pool, same session rng, scalar screen.
        let mut mgr = SessionManager::new(Server::new(), policy).unwrap();
        let mut source = PoolSource::new(Arc::clone(&universe));
        source.register(&stored).unwrap();
        let mut replay_rng = StdRng::seed_from_u64(service_lane(TEST_SEED, 0));
        let mut client = ChipResponder::new(&chip, 2, Condition::NOMINAL, 5);
        let sequential = mgr
            .authenticate_with_source(
                chip_id,
                &mut client,
                &mut PerfectChannel,
                &mut source,
                &mut replay_rng,
            )
            .unwrap();
        assert_eq!(batched, sequential, "batched and sequential reports differ");
    }

    #[test]
    fn impostor_sessions_lock_out_and_surface_lockout_errors() {
        let policy = SessionPolicy {
            lockout_threshold: 3,
            ..SessionPolicy::resilient(10)
        };
        let (_, stored, universe, _) = service_setup(policy, 5);
        let chip_id = stored.chip_id();
        let mut service: AuthService<RandomResponder, PerfectChannel> =
            AuthService::new(ServiceConfig::new(policy), universe).unwrap();
        service.enroll_stored(stored).unwrap();
        for lane in 0..3u64 {
            let rng = StdRng::seed_from_u64(service_lane(TEST_SEED, lane));
            service.submit(chip_id, RandomResponder::new(lane), PerfectChannel, rng, 0);
        }
        assert!(service.run_until_idle(100_000));
        let verdicts = service.drain_verdicts();
        assert_eq!(verdicts.len(), 3);
        let first = verdicts[0].result.clone().unwrap();
        assert_eq!(first.outcome, SessionOutcome::LockedOut);
        assert!(service.chip_state(chip_id).unwrap().locked_out);
        // Later sessions of the locked chip fail fast, in FIFO order.
        for v in &verdicts[1..] {
            assert!(matches!(v.result, Err(ProtocolError::ChipLockedOut { .. })));
        }
        service.reinstate(chip_id);
        assert!(!service.chip_state(chip_id).unwrap().locked_out);
    }

    #[test]
    fn maximal_backoff_sleeps_without_overflow_or_starving_other_chips() {
        // validate() accepts a u64::MAX backoff. The retry's wake tick must
        // saturate, not overflow (or, in release, wrap to the next tick).
        let policy = SessionPolicy {
            max_retries: 1,
            backoff_base_ticks: u64::MAX,
            backoff_cap_ticks: u64::MAX,
            ..SessionPolicy::resilient(10)
        };
        let mut rng = StdRng::seed_from_u64(TEST_SEED);
        let chips: Vec<Chip> = (0..2)
            .map(|id| Chip::fabricate(id, &ChipConfig::small(), &mut rng))
            .collect();
        let universe =
            Arc::new(ChallengeUniverse::generate(chips[0].stages(), 400, &mut rng).unwrap());
        let mut service: AuthService<ChipResponder<'_>, PerfectChannel> =
            AuthService::new(ServiceConfig::new(policy), universe).unwrap();
        for chip in &chips {
            let record = enroll(chip, &EnrollmentConfig::small(2), &mut rng).unwrap();
            service.enroll(&record).unwrap();
        }
        // Chip 1's silicon answering for chip 0 is an impostor; chip 1's
        // own session is genuine.
        for (lane, chip_id) in [0u32, 1].into_iter().enumerate() {
            let client = ChipResponder::new(&chips[1], 2, Condition::NOMINAL, lane as u64);
            let rng = StdRng::seed_from_u64(service_lane(TEST_SEED, lane as u64));
            service.submit(chip_id, client, PerfectChannel, rng, 0);
        }
        for _ in 0..100 {
            service.tick();
        }
        let verdicts = service.drain_verdicts();
        assert_eq!(verdicts.len(), 1, "only the genuine session decides");
        assert_eq!(verdicts[0].chip_id, 1);
        let report = verdicts[0].result.as_ref().unwrap();
        assert_eq!(report.outcome, SessionOutcome::Accepted);
        // The impostor failed its first attempt and sleeps through the
        // maximal backoff.
        assert!(!service.is_idle());
        assert_eq!(service.chip_state(0).unwrap().consecutive_failures, 1);
    }

    #[test]
    fn unknown_chip_yields_error_verdict() {
        let policy = SessionPolicy::resilient(10);
        let (_, stored, universe, mut service) = service_setup(policy, 6);
        let _ = stored;
        let rng = StdRng::seed_from_u64(service_lane(TEST_SEED, 9));
        service.submit(
            999,
            ChipResponder::new(
                Box::leak(Box::new(Chip::fabricate(
                    1,
                    &ChipConfig::small(),
                    &mut StdRng::seed_from_u64(7),
                ))),
                1,
                Condition::NOMINAL,
                1,
            ),
            PerfectChannel,
            rng,
            0,
        );
        let _ = universe;
        assert!(service.run_until_idle(10_000));
        let verdicts = service.drain_verdicts();
        assert_eq!(verdicts.len(), 1);
        assert!(matches!(
            verdicts[0].result,
            Err(ProtocolError::UnknownChip { chip_id: 999 })
        ));
    }

    #[test]
    fn low_load_verdict_latency_is_bounded_by_flush_ticks() {
        let policy = SessionPolicy::resilient(12);
        let (chip, stored, universe, _) = service_setup(policy, 7);
        let chip_id = stored.chip_id();
        let config = ServiceConfig {
            policy,
            flush_rows: usize::MAX >> 1, // never fill: age must trigger
            flush_ticks: 3,
        };
        let mut service: AuthService<ChipResponder<'_>, PerfectChannel> =
            AuthService::new(config, universe).unwrap();
        service.enroll_stored(stored).unwrap();
        let rng = StdRng::seed_from_u64(service_lane(TEST_SEED, 1));
        service.submit(
            chip_id,
            ChipResponder::new(&chip, 2, Condition::NOMINAL, 6),
            PerfectChannel,
            rng,
            0,
        );
        assert!(service.run_until_idle(1_000));
        let verdicts = service.drain_verdicts();
        assert_eq!(verdicts.len(), 1);
        let latency = verdicts[0].decided_tick - verdicts[0].submitted_tick;
        assert!(
            latency <= 1 + config.flush_ticks + 1,
            "single-session verdict latency {latency} exceeds the flush bound"
        );
        assert!(service.stats().aged_flushes >= 1);
        assert_eq!(service.stats().decided, 1);
    }

    #[test]
    fn config_validation_rejects_degenerate_flush() {
        let policy = SessionPolicy::strict(10);
        let mut config = ServiceConfig::new(policy);
        assert!(config.validate().is_ok());
        config.flush_rows = 0;
        assert!(config.validate().is_err());
        config.flush_rows = 1;
        config.flush_ticks = 0;
        assert!(config.validate().is_err());
    }
}
