//! Durable, crash-recoverable persistence for the authentication service.
//!
//! The fleet service (`protocol::service`) keeps its sharded chip store in
//! memory; a crash loses every enrollment, lockout and challenge-pool
//! account. This module adds the durability layer (DESIGN.md §16):
//!
//! - **Write-ahead log** — every control-plane event (enrollment,
//!   re-enrollment, lockout, reinstatement, pool accounting, state sync)
//!   is appended as a self-delimiting CRC-framed record *before* the
//!   in-memory state advances. Enrollment payloads reuse the
//!   [`crate::storage`] codec verbatim, so a WAL record is as
//!   self-validating as a stored database.
//! - **Compacted snapshots** — every [`DurableLog::snapshot_every`] events
//!   the materialized [`DurableState`] is re-encoded into a single
//!   magic/version/CRC-framed snapshot and the WAL is truncated, bounding
//!   replay time. Compaction is incremental: the record segments of chips
//!   not enrolled or re-enrolled since the previous snapshot are copied
//!   from it byte for byte, and only the changed records are re-encoded.
//! - **Salvaging recovery** — [`recover`] replays snapshot + WAL back into
//!   a [`DurableState`] (and from there a bit-identical
//!   [`AuthService`] via [`DurableState::restore_service`]). Recovery
//!   never trusts a byte the CRCs cannot vouch for: it salvages the
//!   longest valid frame prefix, skips frames a retried flush duplicated
//!   (sequence numbers make duplicates exact, not heuristic), and reports
//!   precisely what was dropped in a [`RecoveryReport`].
//!
//! The byte formats (all integers little-endian):
//!
//! ```text
//! snapshot := "XSNP" | u16 version | u64 last_seq
//!           | u32 n_records | (u32 len | storage-record-db)*
//!           | u32 n_states  | (u32 chip_id | state)*
//!           | u32 n_pools   | (u32 chip_id | u32 n | u128 bits*)*
//!           | u32 crc32(everything before)
//! frame    := "XWAL" | u32 len | u32 crc32(payload) | payload
//! payload  := u64 seq | u8 tag | body
//! state    := u32 consecutive_failures | u8 locked_out
//!           | u8 needs_reenrollment | u64 sessions | u64 clean_accepts
//! ```
//!
//! The storage medium is the caller's: both buffers are plain byte
//! vectors, so the protocol crate stays free of filesystem access and the
//! decade-soak harness can crash, corrupt ([`crate::faults::DiskFault`])
//! and recover them deterministically.

use crate::auth::Responder;
use crate::enrollment::EnrolledChip;
use crate::server::Server;
use crate::service::{AuthService, ChallengeUniverse, ServiceConfig};
use crate::session::{Channel, ChipSessionState, SessionManager, SessionPolicy};
use crate::storage::{self, crc32, DecodeError};
use crate::ProtocolError;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const SNAPSHOT_MAGIC: &[u8; 4] = b"XSNP";
const WAL_MAGIC: &[u8; 4] = b"XWAL";
const SNAPSHOT_VERSION: u16 = 1;
/// Frame header bytes before the payload: magic 4 + len 4 + crc 4.
const FRAME_HEADER: usize = 12;
/// Minimum payload: seq 8 + tag 1.
const MIN_PAYLOAD: usize = 9;

/// One durable control-plane event, in the order the service applies it.
#[derive(Clone, Debug, PartialEq)]
pub enum DurableEvent {
    /// A chip was enrolled (full-fidelity record; the compact service
    /// form is re-derived deterministically on recovery).
    Enroll(EnrolledChip),
    /// An already-enrolled chip was re-measured: fresh model, pool reset,
    /// lockout reinstated, `needs_reenrollment` cleared.
    Reenroll(EnrolledChip),
    /// The chip crossed the lockout threshold.
    Lockout {
        /// The locked-out chip.
        chip_id: u32,
    },
    /// An administrative reinstatement (lockout lifted, failures reset).
    Reinstate {
        /// The reinstated chip.
        chip_id: u32,
    },
    /// Challenge-pool accounting: these bit patterns were issued and must
    /// never be re-exposed to this chip.
    PoolConsume {
        /// The chip whose pool depleted.
        chip_id: u32,
        /// The consumed challenge bit patterns.
        bits: Vec<u128>,
    },
    /// A wholesale sync of one chip's session-ladder state (counters,
    /// flags) — the coarse-grained account the soak harness appends after
    /// each serving batch.
    StateSync {
        /// The chip whose state is synced.
        chip_id: u32,
        /// The state as of this event.
        state: ChipSessionState,
    },
}

impl DurableEvent {
    fn tag(&self) -> u8 {
        match self {
            DurableEvent::Enroll(_) => 1,
            DurableEvent::Reenroll(_) => 2,
            DurableEvent::Lockout { .. } => 3,
            DurableEvent::Reinstate { .. } => 4,
            DurableEvent::PoolConsume { .. } => 5,
            DurableEvent::StateSync { .. } => 6,
        }
    }
}

// ---------------------------------------------------------------------------
// Little-endian slice readers: every read is bounds-checked and returns a
// typed DecodeError instead of panicking (lint rule L4).
// ---------------------------------------------------------------------------

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.at)
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], DecodeError> {
        let end = self.at.checked_add(n).ok_or(DecodeError::Truncated {
            while_reading: what,
        })?;
        let slice = self.bytes.get(self.at..end).ok_or(DecodeError::Truncated {
            while_reading: what,
        })?;
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, DecodeError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, DecodeError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, DecodeError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, DecodeError> {
        let b = self.take(8, what)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(b);
        Ok(u64::from_le_bytes(raw))
    }

    fn u128(&mut self, what: &'static str) -> Result<u128, DecodeError> {
        let b = self.take(16, what)?;
        let mut raw = [0u8; 16];
        raw.copy_from_slice(b);
        Ok(u128::from_le_bytes(raw))
    }
}

fn put_state(out: &mut Vec<u8>, state: &ChipSessionState) {
    out.extend_from_slice(&state.consecutive_failures.to_le_bytes());
    out.push(u8::from(state.locked_out));
    out.push(u8::from(state.needs_reenrollment));
    out.extend_from_slice(&state.sessions.to_le_bytes());
    out.extend_from_slice(&state.clean_accepts.to_le_bytes());
}

fn get_state(r: &mut Reader<'_>) -> Result<ChipSessionState, DecodeError> {
    let consecutive_failures = r.u32("state failures")?;
    let locked_out = match r.u8("state lockout flag")? {
        0 => false,
        1 => true,
        _ => {
            return Err(DecodeError::Corrupt {
                what: "state lockout flag is not a boolean",
            })
        }
    };
    let needs_reenrollment = match r.u8("state reenroll flag")? {
        0 => false,
        1 => true,
        _ => {
            return Err(DecodeError::Corrupt {
                what: "state reenroll flag is not a boolean",
            })
        }
    };
    let sessions = r.u64("state sessions")?;
    let clean_accepts = r.u64("state clean accepts")?;
    Ok(ChipSessionState {
        consecutive_failures,
        locked_out,
        needs_reenrollment,
        sessions,
        clean_accepts,
    })
}

fn put_record(out: &mut Vec<u8>, record: &EnrolledChip) {
    let db = storage::encode_record(record);
    out.extend_from_slice(&(db.len() as u32).to_le_bytes());
    out.extend_from_slice(&db);
}

fn get_record(r: &mut Reader<'_>) -> Result<EnrolledChip, DecodeError> {
    let len = r.u32("record length")? as usize;
    let db = r.take(len, "record body")?;
    let mut records = storage::decode_records(db)?;
    if records.len() != 1 {
        return Err(DecodeError::Corrupt {
            what: "event record database must hold exactly one record",
        });
    }
    records.pop().ok_or(DecodeError::Corrupt {
        what: "event record database must hold exactly one record",
    })
}

/// Where one snapshot record segment (`u32 len | storage-record-db`) sits
/// in the snapshot's bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Segment {
    chip_id: u32,
    at: usize,
    len: usize,
}

/// A snapshot the encoder may copy unchanged record segments from: its
/// bytes, their segment index (strictly ascending by chip id) and the chips
/// whose segments in it are stale because they were enrolled or
/// re-enrolled since it was encoded.
struct Previous<'a> {
    bytes: &'a [u8],
    index: &'a [Segment],
    dirty: &'a BTreeSet<u32>,
    cursor: usize,
}

impl<'a> Previous<'a> {
    fn new(bytes: &'a [u8], index: &'a [Segment], dirty: &'a BTreeSet<u32>) -> Self {
        Self {
            bytes,
            index,
            dirty,
            cursor: 0,
        }
    }

    /// The clean segment of `chip_id`, if the previous snapshot holds one.
    /// Calls must come in ascending chip-id order: the cursor only moves
    /// forward, so a whole snapshot's lookups cost one walk of the index.
    fn clean_segment(&mut self, chip_id: u32) -> Option<&'a [u8]> {
        while self
            .index
            .get(self.cursor)
            .is_some_and(|seg| seg.chip_id < chip_id)
        {
            self.cursor += 1;
        }
        let seg = self.index.get(self.cursor)?;
        if seg.chip_id != chip_id || self.dirty.contains(&chip_id) {
            return None;
        }
        self.bytes.get(seg.at..seg.at.checked_add(seg.len)?)
    }
}

fn put_event(out: &mut Vec<u8>, event: &DurableEvent) {
    out.push(event.tag());
    match event {
        DurableEvent::Enroll(record) | DurableEvent::Reenroll(record) => {
            put_record(out, record);
        }
        DurableEvent::Lockout { chip_id } | DurableEvent::Reinstate { chip_id } => {
            out.extend_from_slice(&chip_id.to_le_bytes());
        }
        DurableEvent::PoolConsume { chip_id, bits } => {
            out.extend_from_slice(&chip_id.to_le_bytes());
            out.extend_from_slice(&(bits.len() as u32).to_le_bytes());
            for b in bits {
                out.extend_from_slice(&b.to_le_bytes());
            }
        }
        DurableEvent::StateSync { chip_id, state } => {
            out.extend_from_slice(&chip_id.to_le_bytes());
            put_state(out, state);
        }
    }
}

fn get_event(r: &mut Reader<'_>) -> Result<DurableEvent, DecodeError> {
    let tag = r.u8("event tag")?;
    let event = match tag {
        1 => DurableEvent::Enroll(get_record(r)?),
        2 => DurableEvent::Reenroll(get_record(r)?),
        3 => DurableEvent::Lockout {
            chip_id: r.u32("lockout chip id")?,
        },
        4 => DurableEvent::Reinstate {
            chip_id: r.u32("reinstate chip id")?,
        },
        5 => {
            let chip_id = r.u32("pool chip id")?;
            let n = r.u32("pool entry count")? as usize;
            // Over-long guard: each entry takes 16 bytes, so the declared
            // count can never exceed what the payload physically holds.
            if n > r.remaining() / 16 {
                return Err(DecodeError::Corrupt {
                    what: "pool entry count exceeds the payload",
                });
            }
            let mut bits = Vec::with_capacity(n);
            for _ in 0..n {
                bits.push(r.u128("pool entry")?);
            }
            DurableEvent::PoolConsume { chip_id, bits }
        }
        6 => DurableEvent::StateSync {
            chip_id: r.u32("sync chip id")?,
            state: get_state(r)?,
        },
        _ => {
            return Err(DecodeError::Corrupt {
                what: "unknown event tag",
            })
        }
    };
    if r.remaining() > 0 {
        return Err(DecodeError::TrailingBytes {
            extra: r.remaining(),
        });
    }
    Ok(event)
}

/// The durable subset of the service: full-fidelity enrollment records,
/// per-chip session-ladder state and per-chip consumed challenge pools.
/// Everything a crash must not lose; everything else (warm planes, event
/// loops, in-flight sessions) is re-derived or abandoned on recovery.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DurableState {
    records: BTreeMap<u32, EnrolledChip>,
    states: BTreeMap<u32, ChipSessionState>,
    pools: BTreeMap<u32, Vec<u128>>,
}

impl DurableState {
    /// An empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies one event. Replaying the same event sequence from the same
    /// starting state always lands in the same state — recovery depends on
    /// nothing else.
    pub fn apply(&mut self, event: &DurableEvent) {
        match event {
            DurableEvent::Enroll(record) => {
                self.records.insert(record.chip_id, record.clone());
                self.states.entry(record.chip_id).or_default();
            }
            DurableEvent::Reenroll(record) => {
                self.records.insert(record.chip_id, record.clone());
                let state = self.states.entry(record.chip_id).or_default();
                state.needs_reenrollment = false;
                state.locked_out = false;
                state.consecutive_failures = 0;
                // Fresh model ⇒ the challenge pool account starts over.
                self.pools.remove(&record.chip_id);
            }
            DurableEvent::Lockout { chip_id } => {
                self.states.entry(*chip_id).or_default().locked_out = true;
            }
            DurableEvent::Reinstate { chip_id } => {
                let state = self.states.entry(*chip_id).or_default();
                state.locked_out = false;
                state.consecutive_failures = 0;
            }
            DurableEvent::PoolConsume { chip_id, bits } => {
                let pool = self.pools.entry(*chip_id).or_default();
                pool.extend_from_slice(bits);
                pool.sort_unstable();
                pool.dedup();
            }
            DurableEvent::StateSync { chip_id, state } => {
                self.states.insert(*chip_id, *state);
            }
        }
    }

    /// The enrollment records, in ascending chip-id order.
    pub fn records(&self) -> impl Iterator<Item = &EnrolledChip> + '_ {
        self.records.values()
    }

    /// One chip's record.
    pub fn record(&self, chip_id: u32) -> Option<&EnrolledChip> {
        self.records.get(&chip_id)
    }

    /// The per-chip session states, in ascending chip-id order.
    pub fn states(&self) -> impl Iterator<Item = (u32, &ChipSessionState)> + '_ {
        self.states.iter().map(|(&id, s)| (id, s))
    }

    /// One chip's session state.
    pub fn state(&self, chip_id: u32) -> Option<&ChipSessionState> {
        self.states.get(&chip_id)
    }

    /// One chip's consumed challenge patterns (ascending, deduplicated).
    pub fn pool(&self, chip_id: u32) -> &[u128] {
        self.pools.get(&chip_id).map_or(&[], Vec::as_slice)
    }

    /// Number of enrolled chips.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no chips are enrolled.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Encodes the state into one CRC-framed snapshot, recording
    /// `last_seq` as the newest WAL sequence number the snapshot covers.
    /// Byte-deterministic: equal states encode to equal bytes.
    pub fn encode_snapshot(&self, last_seq: u64) -> Vec<u8> {
        self.encode_indexed(last_seq, None).0
    }

    /// The one snapshot encoder, also returning the index of the record
    /// segments it wrote. With `prev`, a record whose clean segment the
    /// previous snapshot holds is copied from it instead of re-encoded:
    /// the record codec is deterministic and a record only changes through
    /// `Enroll`/`Reenroll` (which mark it dirty), so the copy is the bytes
    /// a re-encode would write.
    fn encode_indexed(
        &self,
        last_seq: u64,
        mut prev: Option<Previous<'_>>,
    ) -> (Vec<u8>, Vec<Segment>) {
        let mut out = Vec::with_capacity(prev.as_ref().map_or(0, |p| p.bytes.len()));
        out.extend_from_slice(SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&last_seq.to_le_bytes());
        out.extend_from_slice(&(self.records.len() as u32).to_le_bytes());
        let mut index = Vec::with_capacity(self.records.len());
        let mut reencoded = 0u64;
        for (&chip_id, record) in &self.records {
            let at = out.len();
            match prev.as_mut().and_then(|p| p.clean_segment(chip_id)) {
                Some(segment) => out.extend_from_slice(segment),
                None => {
                    put_record(&mut out, record);
                    reencoded += 1;
                }
            }
            index.push(Segment {
                chip_id,
                at,
                len: out.len() - at,
            });
        }
        out.extend_from_slice(&(self.states.len() as u32).to_le_bytes());
        for (chip_id, state) in &self.states {
            out.extend_from_slice(&chip_id.to_le_bytes());
            put_state(&mut out, state);
        }
        out.extend_from_slice(&(self.pools.len() as u32).to_le_bytes());
        for (chip_id, pool) in &self.pools {
            out.extend_from_slice(&chip_id.to_le_bytes());
            out.extend_from_slice(&(pool.len() as u32).to_le_bytes());
            for bits in pool {
                out.extend_from_slice(&bits.to_le_bytes());
            }
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        puf_telemetry::counter!("protocol.durable.records_reencoded").add(reencoded);
        puf_telemetry::gauge!("protocol.durable.snapshot_bytes").set(out.len() as f64);
        (out, index)
    }

    /// Decodes a snapshot, returning the state and its covered `last_seq`.
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`]; the CRC is checked before any structure is
    /// trusted.
    pub fn decode_snapshot(bytes: &[u8]) -> Result<(Self, u64), DecodeError> {
        Self::decode_indexed(bytes).map(|(state, last_seq, _)| (state, last_seq))
    }

    /// [`Self::decode_snapshot`], also returning where each record segment
    /// sits in `bytes`. The index is left empty when the record chip ids
    /// are not strictly ascending (the encoder never writes that), so a
    /// copy from it can only ever reproduce what the encoder would write.
    fn decode_indexed(bytes: &[u8]) -> Result<(Self, u64, Vec<Segment>), DecodeError> {
        if bytes.len() < 4 {
            return Err(DecodeError::Truncated {
                while_reading: "snapshot checksum trailer",
            });
        }
        let (payload, trailer) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
        let computed = crc32(payload);
        if stored != computed {
            return Err(DecodeError::ChecksumMismatch { stored, computed });
        }
        let mut r = Reader::new(payload);
        let magic = r.take(4, "snapshot magic")?;
        if magic != SNAPSHOT_MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let version = r.u16("snapshot version")?;
        if version != SNAPSHOT_VERSION {
            return Err(DecodeError::UnsupportedVersion { found: version });
        }
        let last_seq = r.u64("snapshot last_seq")?;
        let mut state = Self::new();
        let n_records = r.u32("snapshot record count")? as usize;
        let mut index = Vec::new();
        for _ in 0..n_records {
            let at = r.at;
            let record = get_record(&mut r)?;
            index.push(Segment {
                chip_id: record.chip_id,
                at,
                len: r.at - at,
            });
            state.records.insert(record.chip_id, record);
        }
        if index.windows(2).any(|w| w[0].chip_id >= w[1].chip_id) {
            index.clear();
        }
        let n_states = r.u32("snapshot state count")? as usize;
        // Over-long guard: each state entry is a fixed 26 bytes.
        if n_states > r.remaining() / 26 {
            return Err(DecodeError::Corrupt {
                what: "snapshot state count exceeds the payload",
            });
        }
        for _ in 0..n_states {
            let chip_id = r.u32("snapshot state chip id")?;
            state.states.insert(chip_id, get_state(&mut r)?);
        }
        let n_pools = r.u32("snapshot pool count")? as usize;
        if n_pools > r.remaining() / 8 {
            return Err(DecodeError::Corrupt {
                what: "snapshot pool count exceeds the payload",
            });
        }
        for _ in 0..n_pools {
            let chip_id = r.u32("snapshot pool chip id")?;
            let n = r.u32("snapshot pool entry count")? as usize;
            if n > r.remaining() / 16 {
                return Err(DecodeError::Corrupt {
                    what: "snapshot pool entry count exceeds the payload",
                });
            }
            let mut pool = Vec::with_capacity(n);
            for _ in 0..n {
                pool.push(r.u128("snapshot pool entry")?);
            }
            // The encoder writes ascending deduplicated pools; anything
            // else is corruption the CRC happened to miss.
            if pool.windows(2).any(|w| w[0] >= w[1]) {
                return Err(DecodeError::Corrupt {
                    what: "snapshot pool is not strictly ascending",
                });
            }
            state.pools.insert(chip_id, pool);
        }
        if r.remaining() > 0 {
            return Err(DecodeError::TrailingBytes {
                extra: r.remaining(),
            });
        }
        Ok((state, last_seq, index))
    }

    /// Rebuilds a one-shot [`Server`] from the durable records.
    pub fn restore_server(&self) -> Server {
        let mut server = Server::new();
        for record in self.records.values() {
            server.register(record.clone());
        }
        server
    }

    /// Rebuilds a [`SessionManager`] from the durable records and session
    /// states: registered server, then each chip's ladder state restored
    /// wholesale.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::InvalidPolicy`] if `policy` fails validation.
    pub fn restore_session_manager(
        &self,
        policy: SessionPolicy,
    ) -> Result<SessionManager, ProtocolError> {
        let mut manager = SessionManager::new(self.restore_server(), policy)?;
        for (&chip_id, state) in &self.states {
            manager.restore_chip_state(chip_id, *state);
        }
        Ok(manager)
    }

    /// Rebuilds an [`AuthService`] shard bit-identical to one that
    /// enrolled these records and reached these session states: the
    /// compact store is re-derived through the same
    /// [`crate::service::StoredChip::from_enrolled`] compaction, session
    /// states are restored wholesale, and warm planes rebuild lazily (they
    /// are a deterministic function of records × universe).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::InvalidPolicy`] / [`ProtocolError::MalformedRecord`]
    /// as for [`AuthService::enroll`].
    pub fn restore_service<C: Responder, Ch: Channel>(
        &self,
        config: ServiceConfig,
        universe: Arc<ChallengeUniverse>,
    ) -> Result<AuthService<C, Ch>, ProtocolError> {
        let mut service = AuthService::new(config, universe)?;
        for record in self.records.values() {
            service.enroll(record)?;
        }
        for (&chip_id, state) in &self.states {
            service.restore_chip_state(chip_id, *state);
        }
        Ok(service)
    }
}

/// The append-only write-ahead log plus its periodically compacted
/// snapshot, with the materialized [`DurableState`] alongside.
///
/// The two byte buffers are the durable medium: persist them wherever
/// (the soak harness writes them to checkpoint files), corrupt them with
/// [`crate::faults::DiskFault`], and hand them to [`recover`].
#[derive(Clone, Debug)]
pub struct DurableLog {
    state: DurableState,
    snapshot: Vec<u8>,
    /// Where each record segment sits in `snapshot`, ascending by chip id.
    index: Vec<Segment>,
    /// Chips enrolled or re-enrolled since `snapshot` was encoded: their
    /// segments in it (if any) are stale.
    dirty: BTreeSet<u32>,
    wal: Vec<u8>,
    next_seq: u64,
    wal_events: u64,
    snapshot_every: u64,
}

impl DurableLog {
    /// An empty log that compacts after every `snapshot_every` appended
    /// events (clamped to at least 1).
    pub fn new(snapshot_every: u64) -> Self {
        let state = DurableState::new();
        let snapshot = state.encode_snapshot(0);
        Self {
            state,
            snapshot,
            index: Vec::new(),
            dirty: BTreeSet::new(),
            wal: Vec::new(),
            next_seq: 1,
            wal_events: 0,
            snapshot_every: snapshot_every.max(1),
        }
    }

    /// The compaction threshold.
    pub fn snapshot_every(&self) -> u64 {
        self.snapshot_every
    }

    /// Changes the compaction threshold (clamped to at least 1).
    /// [`recover`] returns an eagerly-compacting log; a long-running
    /// harness restores its own threshold here after adopting the salvage.
    pub fn set_snapshot_every(&mut self, snapshot_every: u64) {
        self.snapshot_every = snapshot_every.max(1);
    }

    /// The materialized state.
    pub fn state(&self) -> &DurableState {
        &self.state
    }

    /// The last compacted snapshot bytes.
    pub fn snapshot_bytes(&self) -> &[u8] {
        &self.snapshot
    }

    /// The WAL bytes appended since the last compaction.
    pub fn wal_bytes(&self) -> &[u8] {
        &self.wal
    }

    /// Events currently in the WAL (since the last compaction).
    pub fn wal_events(&self) -> u64 {
        self.wal_events
    }

    /// The sequence number the next append will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Appends one event: the WAL frame is written (logically, to the
    /// durable buffer) before the in-memory state advances, then the log
    /// compacts if the WAL reached the threshold.
    pub fn append(&mut self, event: &DurableEvent) {
        let seq = self.next_seq;
        self.next_seq += 1;
        // The payload is written in place after a zeroed length/CRC slot,
        // which is filled once the payload's extent is known.
        let frame = self.wal.len();
        self.wal.extend_from_slice(WAL_MAGIC);
        self.wal.extend_from_slice(&[0; FRAME_HEADER - 4]);
        self.wal.extend_from_slice(&seq.to_le_bytes());
        put_event(&mut self.wal, event);
        let payload = &self.wal[frame + FRAME_HEADER..];
        let (len, crc) = (payload.len() as u32, crc32(payload));
        self.wal[frame + 4..frame + 8].copy_from_slice(&len.to_le_bytes());
        self.wal[frame + 8..frame + FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
        self.state.apply(event);
        if let DurableEvent::Enroll(record) | DurableEvent::Reenroll(record) = event {
            self.dirty.insert(record.chip_id);
        }
        self.wal_events += 1;
        puf_telemetry::counter!("protocol.durable.appends").inc();
        puf_telemetry::gauge!("protocol.durable.wal_bytes").set(self.wal.len() as f64);
        if self.wal_events >= self.snapshot_every {
            self.compact();
        }
    }

    /// Re-encodes the state into a fresh snapshot and truncates the WAL.
    /// Only the records enrolled or re-enrolled since the last compaction
    /// are encoded; every other record segment is copied from the previous
    /// snapshot, so the bytes equal [`DurableState::encode_snapshot`]'s.
    pub fn compact(&mut self) {
        let _trace = puf_telemetry::trace_span!("protocol.durable.compact");
        let prev = Previous::new(&self.snapshot, &self.index, &self.dirty);
        let (snapshot, index) = self
            .state
            .encode_indexed(self.next_seq.saturating_sub(1), Some(prev));
        self.snapshot = snapshot;
        self.index = index;
        self.dirty.clear();
        self.wal.clear();
        self.wal_events = 0;
        puf_telemetry::counter!("protocol.durable.compactions").inc();
        puf_telemetry::gauge!("protocol.durable.wal_bytes").set(0.0);
    }
}

/// What [`recover`] salvaged and what it had to drop.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryReport {
    /// Whether the snapshot decoded cleanly. When `false` the recovery
    /// started from an empty state and only WAL events survive.
    pub snapshot_recovered: bool,
    /// Why the snapshot was rejected, if it was.
    pub snapshot_error: Option<DecodeError>,
    /// Fresh events replayed from the WAL.
    pub events_applied: u64,
    /// Frames skipped because a retried flush had already delivered their
    /// sequence number.
    pub duplicates_skipped: u64,
    /// WAL bytes covered by fully valid frames.
    pub wal_bytes_salvaged: usize,
    /// WAL bytes abandoned after the last valid frame.
    pub wal_bytes_dropped: usize,
    /// Why the WAL scan stopped early, if it did.
    pub wal_error: Option<DecodeError>,
}

impl RecoveryReport {
    /// Whether recovery was lossless: snapshot intact and every WAL byte
    /// accounted for by a valid (possibly duplicate) frame.
    pub fn is_clean(&self) -> bool {
        self.snapshot_recovered && self.wal_bytes_dropped == 0 && self.wal_error.is_none()
    }
}

/// Replays `snapshot` + `wal` into a fresh [`DurableLog`], salvaging the
/// longest valid prefix of each.
///
/// - A corrupt or truncated snapshot falls back to the empty state (the
///   report says so); the WAL is still replayed on top.
/// - The WAL is scanned frame by frame; the scan stops at the first
///   incomplete frame, checksum mismatch or undecodable payload, and
///   everything after that offset is reported dropped.
/// - Frames whose sequence number was already covered (a retried flush's
///   duplicated tail, or a frame the snapshot already compacted) are
///   skipped and counted, not re-applied.
///
/// The returned log has compacted the salvage into a fresh snapshot, so a
/// subsequent crash replays from here. That snapshot copies the record
/// segments of chips the WAL did not enroll or re-enroll from `snapshot`,
/// and the log keeps their index, so its next compaction is incremental
/// too.
pub fn recover(snapshot: &[u8], wal: &[u8]) -> (DurableLog, RecoveryReport) {
    let _trace = puf_telemetry::trace_span!("protocol.durable.recover");
    puf_telemetry::counter!("protocol.durable.recoveries").inc();
    let (mut state, mut last_seq, index, snapshot_recovered, snapshot_error) =
        match DurableState::decode_indexed(snapshot) {
            Ok((state, last_seq, index)) => (state, last_seq, index, true, None),
            Err(e) => (DurableState::new(), 0, Vec::new(), false, Some(e)),
        };
    let mut dirty = BTreeSet::new();

    let mut at = 0usize;
    let mut events_applied = 0u64;
    let mut duplicates_skipped = 0u64;
    let mut wal_error = None;
    while at < wal.len() {
        let rest = &wal[at..];
        let Some(header) = rest.get(..FRAME_HEADER) else {
            wal_error = Some(DecodeError::Truncated {
                while_reading: "frame header",
            });
            break;
        };
        if &header[..4] != WAL_MAGIC {
            wal_error = Some(DecodeError::BadMagic);
            break;
        }
        let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]) as usize;
        if len < MIN_PAYLOAD {
            wal_error = Some(DecodeError::Corrupt {
                what: "frame payload too short for a sequence number and tag",
            });
            break;
        }
        let stored = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
        let Some(payload) = rest.get(FRAME_HEADER..FRAME_HEADER + len) else {
            wal_error = Some(DecodeError::Truncated {
                while_reading: "frame payload",
            });
            break;
        };
        let computed = crc32(payload);
        if stored != computed {
            wal_error = Some(DecodeError::ChecksumMismatch { stored, computed });
            break;
        }
        let mut r = Reader::new(payload);
        let (seq, event) = match r
            .u64("frame sequence number")
            .and_then(|seq| get_event(&mut r).map(|event| (seq, event)))
        {
            Ok(decoded) => decoded,
            Err(e) => {
                wal_error = Some(e);
                break;
            }
        };
        if seq <= last_seq {
            duplicates_skipped += 1;
        } else {
            state.apply(&event);
            if let DurableEvent::Enroll(record) | DurableEvent::Reenroll(record) = &event {
                dirty.insert(record.chip_id);
            }
            last_seq = seq;
            events_applied += 1;
        }
        at += FRAME_HEADER + len;
    }

    let report = RecoveryReport {
        snapshot_recovered,
        snapshot_error,
        events_applied,
        duplicates_skipped,
        wal_bytes_salvaged: at,
        wal_bytes_dropped: wal.len() - at,
        wal_error,
    };
    puf_telemetry::counter!("protocol.durable.events_replayed").add(events_applied);
    puf_telemetry::counter!("protocol.durable.duplicates_skipped").add(duplicates_skipped);
    puf_telemetry::counter!("protocol.durable.bytes_dropped").add(report.wal_bytes_dropped as u64);

    let (fresh, index) =
        state.encode_indexed(last_seq, Some(Previous::new(snapshot, &index, &dirty)));
    let log = DurableLog {
        state,
        snapshot: fresh,
        index,
        dirty: BTreeSet::new(),
        wal: Vec::new(),
        next_seq: last_seq + 1,
        wal_events: 0,
        // Compact eagerly until the owner restores its own threshold via
        // [`DurableLog::set_snapshot_every`].
        snapshot_every: 1,
    };
    (log, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enrollment::{enroll, EnrollmentConfig};
    use crate::faults::{DiskCorruption, DiskFaultKind, FaultPlan};
    use puf_silicon::{Chip, ChipConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_record(seed: u64, chip_id: u32) -> EnrolledChip {
        let mut rng = StdRng::seed_from_u64(seed);
        let chip = Chip::fabricate(chip_id, &ChipConfig::small(), &mut rng);
        enroll(&chip, &EnrollmentConfig::small(2), &mut rng).unwrap()
    }

    fn sample_events(seed: u64) -> Vec<DurableEvent> {
        let a = sample_record(seed, 1);
        let b = sample_record(seed + 1, 2);
        let b2 = sample_record(seed + 2, 2);
        vec![
            DurableEvent::Enroll(a),
            DurableEvent::Enroll(b),
            DurableEvent::PoolConsume {
                chip_id: 1,
                bits: vec![5, 3, 9],
            },
            DurableEvent::Lockout { chip_id: 2 },
            DurableEvent::StateSync {
                chip_id: 1,
                state: ChipSessionState {
                    consecutive_failures: 2,
                    locked_out: false,
                    needs_reenrollment: true,
                    sessions: 7,
                    clean_accepts: 4,
                },
            },
            DurableEvent::Reinstate { chip_id: 2 },
            DurableEvent::PoolConsume {
                chip_id: 2,
                bits: vec![1, 2, 3, 4],
            },
            DurableEvent::Reenroll(b2),
        ]
    }

    fn replay(events: &[DurableEvent]) -> DurableState {
        let mut state = DurableState::new();
        for e in events {
            state.apply(e);
        }
        state
    }

    #[test]
    fn snapshot_round_trips_and_is_deterministic() {
        let state = replay(&sample_events(10));
        let bytes = state.encode_snapshot(42);
        let (decoded, last_seq) = DurableState::decode_snapshot(&bytes).unwrap();
        assert_eq!(decoded, state);
        assert_eq!(last_seq, 42);
        assert_eq!(
            decoded.encode_snapshot(42),
            bytes,
            "re-encode must be byte-identical"
        );
    }

    #[test]
    fn apply_semantics() {
        let state = replay(&sample_events(20));
        assert_eq!(state.len(), 2);
        // Chip 1: pool sorted/deduped, state synced wholesale.
        assert_eq!(state.pool(1), &[3, 5, 9]);
        let s1 = state.state(1).unwrap();
        assert_eq!(s1.sessions, 7);
        assert!(s1.needs_reenrollment);
        // Chip 2: re-enrollment reset the pool and cleared the ladder.
        assert_eq!(state.pool(2), &[] as &[u128]);
        let s2 = state.state(2).unwrap();
        assert!(!s2.locked_out);
        assert_eq!(s2.consecutive_failures, 0);
        assert!(!s2.needs_reenrollment);
    }

    #[test]
    fn log_replays_to_the_same_state_and_compacts() {
        let events = sample_events(30);
        let mut log = DurableLog::new(3);
        for e in &events {
            log.append(e);
        }
        // 8 events, threshold 3: compacted at 3 and 6, so 2 remain.
        assert_eq!(log.wal_events(), 2);
        assert_eq!(log.next_seq(), 9);
        let (recovered, report) = recover(log.snapshot_bytes(), log.wal_bytes());
        assert!(
            report.is_clean(),
            "clean buffers must recover cleanly: {report:?}"
        );
        assert_eq!(report.events_applied, 2);
        assert_eq!(recovered.state(), &replay(&events));
    }

    #[test]
    fn recovery_from_snapshot_only_and_wal_only() {
        let events = sample_events(40);
        // Everything compacted into the snapshot.
        let mut log = DurableLog::new(1);
        for e in &events {
            log.append(e);
        }
        assert!(log.wal_bytes().is_empty());
        let (recovered, report) = recover(log.snapshot_bytes(), log.wal_bytes());
        assert!(report.is_clean());
        assert_eq!(report.events_applied, 0);
        assert_eq!(recovered.state(), &replay(&events));
        // Nothing compacted: all in the WAL.
        let mut log = DurableLog::new(u64::MAX);
        for e in &events {
            log.append(e);
        }
        let (recovered, report) = recover(log.snapshot_bytes(), log.wal_bytes());
        assert!(report.is_clean());
        assert_eq!(report.events_applied, events.len() as u64);
        assert_eq!(recovered.state(), &replay(&events));
    }

    #[test]
    fn torn_final_record_salvages_the_prefix() {
        let events = sample_events(50);
        let mut log = DurableLog::new(u64::MAX);
        for e in &events {
            log.append(e);
        }
        let plan = FaultPlan::none(51);
        let mut snapshot = log.snapshot_bytes().to_vec();
        let mut wal = log.wal_bytes().to_vec();
        let done = plan
            .disk_faults(DiskFaultKind::TornFinalRecord)
            .corrupt(&mut snapshot, &mut wal);
        let DiskCorruption::TornFinalRecord { dropped } = done else {
            panic!("unexpected corruption {done:?}");
        };
        let (recovered, report) = recover(&snapshot, &wal);
        assert!(report.snapshot_recovered);
        assert!(report.wal_error.is_some(), "the torn tail must be reported");
        assert_eq!(
            report.wal_bytes_salvaged + report.wal_bytes_dropped + dropped,
            log.wal_bytes().len(),
        );
        // The committed prefix: every event whose frame survived whole.
        assert_eq!(
            recovered.state(),
            &replay(&events[..report.events_applied as usize])
        );
    }

    #[test]
    fn duplicated_tail_is_skipped_exactly() {
        let events = sample_events(60);
        let mut log = DurableLog::new(u64::MAX);
        for e in &events {
            log.append(e);
        }
        // Duplicate the final *whole frame* (a retried flush): recovery
        // must skip it by sequence number, not re-apply it.
        let wal = log.wal_bytes().to_vec();
        let mut doubled = wal.clone();
        doubled.extend_from_slice(&wal);
        let (recovered, report) = recover(log.snapshot_bytes(), &doubled);
        assert_eq!(report.events_applied, events.len() as u64);
        assert_eq!(report.duplicates_skipped, events.len() as u64);
        assert_eq!(report.wal_bytes_dropped, 0);
        assert_eq!(recovered.state(), &replay(&events));
        // A raw byte-level duplicated tail (not frame-aligned) ends in a
        // partial frame: the salvage drops it and says how much.
        let plan = FaultPlan::none(61);
        let mut snapshot = log.snapshot_bytes().to_vec();
        let mut torn = wal.clone();
        let done = plan
            .disk_faults(DiskFaultKind::DuplicatedTail)
            .corrupt(&mut snapshot, &mut torn);
        assert!(matches!(done, DiskCorruption::DuplicatedTail { .. }));
        let (recovered, report) = recover(&snapshot, &torn);
        assert_eq!(
            recovered.state(),
            &replay(&events),
            "no event may replay twice"
        );
        assert!(report.duplicates_skipped + report.events_applied >= events.len() as u64);
    }

    #[test]
    fn bit_rot_is_caught_by_the_frame_crc() {
        let events = sample_events(70);
        let mut log = DurableLog::new(u64::MAX);
        for e in &events {
            log.append(e);
        }
        let plan = FaultPlan::none(71);
        let mut snapshot = log.snapshot_bytes().to_vec();
        let mut wal = log.wal_bytes().to_vec();
        let done = plan
            .disk_faults(DiskFaultKind::BitRot)
            .corrupt(&mut snapshot, &mut wal);
        let DiskCorruption::BitRot { in_snapshot, .. } = done else {
            panic!("unexpected corruption {done:?}");
        };
        let (recovered, report) = recover(&snapshot, &wal);
        if in_snapshot {
            assert!(!report.snapshot_recovered);
            assert!(matches!(
                report.snapshot_error,
                Some(DecodeError::ChecksumMismatch { .. })
            ));
        } else {
            // The rotten frame and everything after it are dropped; the
            // prefix before it survives bit-identically.
            assert!(report.wal_error.is_some());
            assert_eq!(
                recovered.state(),
                &replay(&events[..report.events_applied as usize])
            );
        }
    }

    #[test]
    fn truncated_snapshot_falls_back_to_wal_only() {
        let events = sample_events(80);
        // Compact everything, then truncate the snapshot: the events are
        // genuinely lost and recovery must say so, not guess.
        let mut log = DurableLog::new(1);
        for e in &events {
            log.append(e);
        }
        let plan = FaultPlan::none(81);
        let mut snapshot = log.snapshot_bytes().to_vec();
        let mut wal = log.wal_bytes().to_vec();
        let done = plan
            .disk_faults(DiskFaultKind::TruncatedSnapshot)
            .corrupt(&mut snapshot, &mut wal);
        assert!(matches!(done, DiskCorruption::TruncatedSnapshot { .. }));
        let (recovered, report) = recover(&snapshot, &wal);
        assert!(!report.snapshot_recovered);
        assert!(report.snapshot_error.is_some());
        assert!(recovered.state().is_empty());
    }

    #[test]
    fn compaction_copies_only_clean_segments() {
        let events = sample_events(95);
        let mut log = DurableLog::new(u64::MAX);
        for e in &events {
            log.append(e);
        }
        assert_eq!(log.dirty, BTreeSet::from([1, 2]));
        log.compact();
        assert!(log.dirty.is_empty());
        assert_eq!(
            log.index.iter().map(|s| s.chip_id).collect::<Vec<_>>(),
            vec![1, 2]
        );
        // Every indexed segment is the record's own encoding.
        let clean = BTreeSet::new();
        let mut prev = Previous::new(&log.snapshot, &log.index, &clean);
        for record in log.state().records() {
            let mut expected = Vec::new();
            put_record(&mut expected, record);
            assert_eq!(prev.clean_segment(record.chip_id), Some(&expected[..]));
        }
        // A dirty chip's stale segment is never handed out, nor is one the
        // snapshot does not hold.
        let dirty = BTreeSet::from([2]);
        let mut prev = Previous::new(&log.snapshot, &log.index, &dirty);
        assert!(prev.clean_segment(0).is_none());
        assert!(prev.clean_segment(1).is_some());
        assert!(prev.clean_segment(2).is_none());
        assert!(prev.clean_segment(3).is_none());
        // A Reenroll of a chip that was never enrolled marks it dirty too.
        log.append(&DurableEvent::Reenroll(sample_record(96, 7)));
        assert_eq!(log.dirty, BTreeSet::from([7]));
    }

    #[test]
    fn recovery_carries_the_segment_index() {
        let events = sample_events(97);
        let mut log = DurableLog::new(4);
        for e in &events {
            log.append(e);
        }
        let (recovered, report) = recover(log.snapshot_bytes(), log.wal_bytes());
        assert!(report.is_clean());
        assert_eq!(recovered.index.len(), recovered.state().len());
        assert!(recovered.dirty.is_empty());
        // A rejected snapshot leaves no index to copy from.
        let (salvaged, report) = recover(&log.snapshot_bytes()[1..], log.wal_bytes());
        assert!(!report.snapshot_recovered);
        assert_eq!(
            salvaged.snapshot_bytes(),
            &salvaged.state().encode_snapshot(salvaged.next_seq() - 1)[..]
        );
    }

    #[test]
    fn out_of_order_snapshot_records_are_not_indexed() {
        let mut log = DurableLog::new(u64::MAX);
        for e in &sample_events(98)[..2] {
            log.append(e);
        }
        log.compact();
        // Swap the two record segments and re-seal: the CRC holds and the
        // decoder accepts it, but the encoder would never write it, so its
        // segments must not be copied.
        let bytes = log.snapshot_bytes();
        let (_, _, index) = DurableState::decode_indexed(bytes).unwrap();
        let [a, b] = index[..] else {
            panic!("expected two segments, got {index:?}");
        };
        let mut swapped = bytes[..a.at].to_vec();
        swapped.extend_from_slice(&bytes[b.at..b.at + b.len]);
        swapped.extend_from_slice(&bytes[a.at..a.at + a.len]);
        swapped.extend_from_slice(&bytes[b.at + b.len..bytes.len() - 4]);
        let crc = crc32(&swapped);
        swapped.extend_from_slice(&crc.to_le_bytes());
        let (state, _, index) = DurableState::decode_indexed(&swapped).unwrap();
        assert_eq!(&state, log.state());
        assert!(index.is_empty());
        let (recovered, report) = recover(&swapped, &[]);
        assert!(report.is_clean());
        assert_eq!(recovered.snapshot_bytes(), log.snapshot_bytes());
    }

    #[test]
    fn restore_server_preserves_records() {
        let events = sample_events(90);
        let state = replay(&events);
        let server = state.restore_server();
        assert_eq!(server.len(), 2);
        assert_eq!(server.record(1), state.record(1));
        assert_eq!(server.record(2), state.record(2));
    }

    mod proptests {
        use super::*;
        use crate::enrollment::EnrolledPuf;
        use crate::threshold::{Betas, Thresholds};
        use proptest::prelude::*;
        use puf_ml::LinearRegression;

        /// A cheap well-formed record whose model depends on `salt`, so a
        /// re-enrollment really changes the bytes.
        fn synthetic_record(chip_id: u32, salt: u64) -> EnrolledChip {
            let stages = 3;
            let pufs = (0..2u64)
                .map(|k| EnrolledPuf {
                    model: LinearRegression::from_theta(
                        (0..=stages as u64)
                            .map(|i| ((salt ^ (k << 8 | i)) % 1000) as f64 / 7.0 - 50.0)
                            .collect(),
                    ),
                    thresholds: Thresholds::new(-0.5, 0.25 + (salt % 5) as f64),
                    betas: Betas::new(1.0, 1.0 + (salt % 3) as f64),
                })
                .collect();
            EnrolledChip {
                chip_id,
                stages,
                pufs,
            }
        }

        /// One step of a random log workload: `None` is an explicit
        /// compaction. Chip ids are drawn from a small range so events hit
        /// new and already-enrolled chips alike.
        fn step(op: u8, chip_id: u32, salt: u64) -> Option<DurableEvent> {
            Some(match op {
                0 => DurableEvent::Enroll(synthetic_record(chip_id, salt)),
                1 => DurableEvent::Reenroll(synthetic_record(chip_id, salt)),
                2 => DurableEvent::Lockout { chip_id },
                3 => DurableEvent::Reinstate { chip_id },
                4 => DurableEvent::PoolConsume {
                    chip_id,
                    bits: vec![u128::from(salt % 17), u128::from(salt % 5)],
                },
                5 => DurableEvent::StateSync {
                    chip_id,
                    state: ChipSessionState {
                        consecutive_failures: (salt % 4) as u32,
                        locked_out: salt.is_multiple_of(2),
                        needs_reenrollment: salt.is_multiple_of(3),
                        sessions: salt % 100,
                        clean_accepts: salt % 50,
                    },
                },
                _ => return None,
            })
        }

        /// Applies `ops` to `log` and asserts, after every compaction, that
        /// the incremental snapshot equals a from-scratch encode.
        fn drive(log: &mut DurableLog, ops: &[(u8, u32, u64)]) {
            for &(op, chip_id, salt) in ops {
                let compacted = match step(op, chip_id, salt) {
                    Some(event) => {
                        log.append(&event);
                        log.wal_events() == 0
                    }
                    None => {
                        log.compact();
                        true
                    }
                };
                if compacted {
                    prop_assert_eq!(
                        log.snapshot_bytes(),
                        &log.state().encode_snapshot(log.next_seq() - 1)[..]
                    );
                }
            }
        }

        fn arb_ops() -> impl Strategy<Value = Vec<(u8, u32, u64)>> {
            proptest::collection::vec((0u8..7, 0u32..8, any::<u64>()), 0..40)
        }

        const EVERY: [u64; 4] = [1, 3, 7, u64::MAX];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Incremental compaction is byte-identical to encoding the
            /// whole state afresh, whatever the events and thresholds.
            #[test]
            fn prop_incremental_compaction_is_byte_identical(
                ops in arb_ops(),
                every_ix in 0usize..4,
            ) {
                let mut log = DurableLog::new(EVERY[every_ix]);
                drive(&mut log, &ops);
                log.compact();
                prop_assert_eq!(
                    log.snapshot_bytes(),
                    &log.state().encode_snapshot(log.next_seq() - 1)[..]
                );
            }

            /// The log `recover` returns (whose snapshot copies segments
            /// from the recovered one) is byte-identical to a fresh encode,
            /// and stays so after its threshold is restored and more
            /// events arrive.
            #[test]
            fn prop_recovered_log_compacts_byte_identically(
                before in arb_ops(),
                after in arb_ops(),
                every_ix in 0usize..4,
            ) {
                let mut log = DurableLog::new(EVERY[every_ix]);
                drive(&mut log, &before);
                let (mut recovered, report) = recover(log.snapshot_bytes(), log.wal_bytes());
                prop_assert!(report.is_clean());
                prop_assert_eq!(recovered.state(), log.state());
                prop_assert_eq!(
                    recovered.snapshot_bytes(),
                    &recovered.state().encode_snapshot(recovered.next_seq() - 1)[..]
                );
                recovered.set_snapshot_every(EVERY[every_ix]);
                drive(&mut recovered, &after);
                recovered.compact();
                prop_assert_eq!(
                    recovered.snapshot_bytes(),
                    &recovered.state().encode_snapshot(recovered.next_seq() - 1)[..]
                );
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Satellite: the crash-point sweep. For ANY byte offset cut of
            /// the WAL, recovery equals replaying exactly the events whose
            /// frames survived whole — bit-identical at the snapshot level.
            #[test]
            fn prop_crash_at_any_offset_recovers_committed_prefix(
                seed in 0u64..6,
                cut_frac in 0.0f64..1.0,
                every_ix in 0usize..3,
            ) {
                let snapshot_every = [1u64, 3, u64::MAX][every_ix];
                let events = sample_events(100 + seed);
                let mut log = DurableLog::new(snapshot_every);
                for e in &events {
                    log.append(e);
                }
                let wal = log.wal_bytes();
                let cut = (wal.len() as f64 * cut_frac) as usize;
                let (recovered, report) = recover(log.snapshot_bytes(), &wal[..cut.min(wal.len())]);
                // Events the snapshot already covers plus the whole frames
                // in the surviving WAL prefix.
                let compacted = events.len() as u64 - log.wal_events();
                let committed = compacted + report.events_applied;
                prop_assert!(committed <= events.len() as u64);
                let expected = replay(&events[..committed as usize]);
                prop_assert_eq!(recovered.state(), &expected);
                // Bit-identical, not just structurally equal.
                prop_assert_eq!(
                    recovered.snapshot_bytes(),
                    &expected.encode_snapshot(
                        if committed == 0 { 0 } else { committed }
                    )[..]
                );
            }

            /// Any injected disk fault still recovers a committed prefix
            /// (never panics, never invents events).
            #[test]
            fn prop_any_disk_fault_recovers_a_committed_prefix(
                seed in 0u64..2048,
                kind_ix in 0usize..4,
            ) {
                let kind = [
                    DiskFaultKind::TornFinalRecord,
                    DiskFaultKind::BitRot,
                    DiskFaultKind::TruncatedSnapshot,
                    DiskFaultKind::DuplicatedTail,
                ][kind_ix];
                let events = sample_events(200 + (seed % 4));
                let mut log = DurableLog::new(3);
                for e in &events {
                    log.append(e);
                }
                let mut snapshot = log.snapshot_bytes().to_vec();
                let mut wal = log.wal_bytes().to_vec();
                FaultPlan::none(seed).disk_faults(kind).corrupt(&mut snapshot, &mut wal);
                let (recovered, report) = recover(&snapshot, &wal);
                let compacted = events.len() as u64 - log.wal_events();
                if report.snapshot_recovered {
                    let committed = compacted + report.events_applied;
                    prop_assert!(committed <= events.len() as u64);
                    prop_assert_eq!(recovered.state(), &replay(&events[..committed as usize]));
                } else {
                    // Snapshot lost: only WAL events can survive, applied
                    // onto the empty state.
                    prop_assert!(recovered.state().len() <= events.len());
                }
            }

            /// Fuzz: arbitrary byte soup never panics recovery.
            #[test]
            fn prop_recovery_of_arbitrary_bytes_never_panics(
                snapshot in proptest::collection::vec(any::<u8>(), 0..256),
                wal in proptest::collection::vec(any::<u8>(), 0..256),
            ) {
                let (_, report) = recover(&snapshot, &wal);
                prop_assert!(report.wal_bytes_salvaged + report.wal_bytes_dropped == wal.len());
            }
        }
    }
}
