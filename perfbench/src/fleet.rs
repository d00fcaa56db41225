//! fleet_steady and fleet_churn: the operator's side of the system — an
//! enrolled fleet served by the batched [`AuthService`].
//!
//! Both workloads shard the fleet over the run's workers (one service per
//! worker) and drive each service's logical clock themselves — `submit`,
//! `tick`, `drain_verdicts` — so every tick is timed. Sessions arrive on
//! the tick clock, spread evenly over `session_gap_ticks` (an open loop in
//! ticks), and each chip's sessions run one after another (a closed loop
//! per chip). A session's latency runs from the start of the tick at which
//! it was due to the end of the tick that decided it, so a slow tick
//! lengthens both latency and 1/throughput.
//!
//! - fleet_steady warms every active chip during set-up: the timed phase is
//!   the serving hot path on warm planes.
//! - fleet_churn re-enrolls every chip right after its session and logs
//!   every write to a [`DurableLog`], so every session re-warms its chip;
//!   the run ends with a crash and a recovery.

use crate::report::Report;
use crate::spans::{self, layer};
use crate::stats::{self, TickClock};
use crate::{Args, Scale};
use puf_bench::fleet::{
    build_twins, build_universe, enrolled_record, run_sequential, session_channel, session_client,
    session_rng, DeviceTwin, FleetClient, FleetConfig, FleetService,
};
use puf_protocol::{
    recover, shard_of, warm_chips, AuthService, ChallengeUniverse, DurableEvent, DurableLog,
    EnrolledChip, FaultyChannel, ProtocolError, ServiceConfig, ServiceStats, SessionOutcome,
    SessionReport, StoredChip,
};
use rand::rngs::StdRng;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Session uids are `chip × SESSION_CAP + k`; no chip gets this many
/// sessions in one run.
const SESSION_CAP: u32 = 256;
/// Chips per enrollment span while the store loads.
const ENROLL_CHUNK: usize = 4_096;
/// Sessions `k < CHECK_ROUNDS` of every active chip (the warm-up round and
/// the first timed round) form the verdict digest.
const CHECK_ROUNDS: u32 = 2;
/// Tick budget for draining the warm-up round; more means a stuck loop.
const DRAIN_TICKS: u64 = 1_000_000;

/// Which fleet workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Serving on warm planes, reads only.
    Steady,
    /// Sessions beside re-enrollments and durable writes.
    Churn,
}

/// Fleet shape and run structure of one workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FleetScale {
    /// Chips enrolled in the store.
    pub enrolled: u32,
    /// Chips that receive sessions (ids below this).
    pub active: u32,
    /// Chips per re-enrollment round on each shard (churn).
    pub cohort: usize,
    /// Durable events between snapshot compactions (churn).
    pub snapshot_every: u64,
    /// Leading chips whose verdicts `run_sequential` replays (steady).
    pub check_chips: u32,
    /// Chips timed through the warm-plane probe of a traced run.
    pub probe_chips: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

impl FleetScale {
    /// The measured size of `mode`. The steady store (≈1.1 KB per chip)
    /// is several times the host's last-level cache.
    pub fn full(mode: Mode) -> Self {
        match mode {
            Mode::Steady => Self {
                enrolled: 1_000_000,
                active: 50_000,
                cohort: 0,
                snapshot_every: 0,
                check_chips: 8,
                probe_chips: 2_048,
                setups: 3,
            },
            Mode::Churn => Self {
                enrolled: 50_000,
                active: 50_000,
                cohort: 2_048,
                snapshot_every: 16_384,
                check_chips: 0,
                probe_chips: 2_048,
                setups: 3,
            },
        }
    }

    /// A seconds-long size with the same structure, for tests.
    pub fn smoke() -> Self {
        Self {
            enrolled: 4_000,
            active: 400,
            cohort: 64,
            snapshot_every: 500,
            check_chips: 4,
            probe_chips: 64,
            setups: 2,
        }
    }
}

fn fleet_config(fs: &FleetScale, seed: u64, shards: usize) -> FleetConfig {
    FleetConfig {
        enrolled_chips: fs.enrolled,
        active_chips: fs.active,
        sessions_per_chip: SESSION_CAP,
        shards,
        ..FleetConfig::full(seed)
    }
}

fn service_config(config: &FleetConfig) -> ServiceConfig {
    ServiceConfig {
        policy: config.policy,
        flush_rows: config.flush_rows,
        flush_ticks: config.flush_ticks,
    }
}

fn stats_delta(a: &ServiceStats, b: &ServiceStats) -> ServiceStats {
    ServiceStats {
        ticks: b.ticks - a.ticks,
        submitted: b.submitted - a.submitted,
        decided: b.decided - a.decided,
        flushes: b.flushes - a.flushes,
        aged_flushes: b.aged_flushes - a.aged_flushes,
        max_flush_rows: b.max_flush_rows,
        warm_batches: b.warm_batches - a.warm_batches,
        warm_chips: b.warm_chips - a.warm_chips,
        warm_member_evals: b.warm_member_evals - a.warm_member_evals,
    }
}

fn stats_sum(a: &ServiceStats, b: &ServiceStats) -> ServiceStats {
    ServiceStats {
        ticks: a.ticks + b.ticks,
        submitted: a.submitted + b.submitted,
        decided: a.decided + b.decided,
        flushes: a.flushes + b.flushes,
        aged_flushes: a.aged_flushes + b.aged_flushes,
        max_flush_rows: a.max_flush_rows.max(b.max_flush_rows),
        warm_batches: a.warm_batches + b.warm_batches,
        warm_chips: a.warm_chips + b.warm_chips,
        warm_member_evals: a.warm_member_evals + b.warm_member_evals,
    }
}

/// What the shards did during one timed window (or one set-up).
#[derive(Clone, Debug, Default)]
struct Tally {
    decided: u64,
    failed: u64,
    /// (decision time since the epoch, milliseconds) per verdict.
    latencies_ms: Vec<(f64, f64)>,
    latency_ticks: Vec<f64>,
    /// When each verdict was decided, in seconds since the run's epoch.
    decided_at: Vec<f64>,
    tick_warm_s: f64,
    tick_flush_s: f64,
    tick_step_s: f64,
    pending_max: usize,
    stats: ServiceStats,
    reenrolls: u64,
    write_s: f64,
    /// Σ over shards of re-enrollments per second of write time.
    write_rate: f64,
    events: u64,
    compactions: u64,
}

impl Tally {
    fn absorb(&mut self, o: Tally) {
        self.decided += o.decided;
        self.failed += o.failed;
        self.latencies_ms.extend(o.latencies_ms);
        self.latency_ticks.extend(o.latency_ticks);
        self.decided_at.extend(o.decided_at);
        self.tick_warm_s += o.tick_warm_s;
        self.tick_flush_s += o.tick_flush_s;
        self.tick_step_s += o.tick_step_s;
        self.pending_max = self.pending_max.max(o.pending_max);
        self.stats = stats_sum(&self.stats, &o.stats);
        self.reenrolls += o.reenrolls;
        self.write_s += o.write_s;
        self.write_rate += o.write_rate;
        self.events += o.events;
        self.compactions += o.compactions;
    }

    /// Share of sessions whose chip was already warm (base: decided
    /// sessions).
    fn warm_hit_ratio(&self) -> f64 {
        if self.decided == 0 {
            return 0.0;
        }
        (1.0 - self.stats.warm_chips as f64 / self.decided as f64).max(0.0)
    }
}

/// Appends one durable event, timed as a compaction when the log's
/// threshold makes this append compact.
fn append(log: &mut DurableLog, event: &DurableEvent, t: &mut Tally) {
    if log.wal_events() + 1 >= log.snapshot_every() {
        layer("pb.protocol.durable.compact", || log.append(event));
        t.compactions += 1;
    } else {
        layer("pb.protocol.durable.append", || log.append(event));
    }
    t.events += 1;
}

/// One session ready to submit.
struct Arrival {
    chip: u32,
    uid: u64,
    due: u64,
    client: FleetClient,
    channel: FaultyChannel,
    rng: StdRng,
}

impl Arrival {
    fn new(config: &FleetConfig, twin: &DeviceTwin, chip: u32, uid: u64, due: u64) -> Self {
        Self {
            chip,
            uid,
            due,
            client: session_client(config, twin, uid),
            channel: session_channel(config, uid),
            rng: session_rng(config, uid),
        }
    }
}

/// One worker's service and the sessions it drives.
struct Shard {
    service: FleetService,
    twins: BTreeMap<u32, DeviceTwin>,
    active: Vec<u32>,
    /// Session id → (uid, due tick).
    inflight: BTreeMap<u64, (u64, u64)>,
    clock: TickClock,
    /// Steady: the tick round 0 was due at, and the next round to submit.
    round_base: u64,
    next_round: u32,
    /// Churn: the durable log, sessions issued per active chip, where the
    /// next cohort starts, the cohort in flight and its lockouts.
    log: Option<DurableLog>,
    issued: Vec<u32>,
    cursor: usize,
    round: Vec<u32>,
    lockouts: Vec<u32>,
    /// Steady: verdicts kept for the digest and the sequential replay.
    checks: Vec<(u64, Result<SessionReport, ProtocolError>)>,
    check_chips: u32,
    /// Durable writes made while the store loaded.
    setup: Tally,
}

impl Shard {
    /// Loads shard `index`'s slice of the store (and, for churn, logs every
    /// enrollment), builds the device twins of its active chips and, for
    /// steady, serves one untimed warm-up session per active chip. Returns
    /// the shard and the enrollment rate (chips per second) of each chunk of its
    /// store.
    fn build(
        config: &FleetConfig,
        universe: &Arc<ChallengeUniverse>,
        index: usize,
        mode: Mode,
        fs: &FleetScale,
        epoch: Instant,
    ) -> Result<(Self, Vec<f64>), String> {
        let mut service: FleetService =
            AuthService::new(service_config(config), Arc::clone(universe))
                .map_err(|e| format!("service configuration: {e}"))?;
        let mut log = (mode == Mode::Churn).then(|| DurableLog::new(fs.snapshot_every));
        let mut setup = Tally::default();
        let mine: Vec<u32> = (0..config.enrolled_chips)
            .filter(|&id| shard_of(config.seed, id, config.shards) == index)
            .collect();
        let mut enroll_rates = Vec::new();
        for chunk in mine.chunks(ENROLL_CHUNK) {
            let records: Vec<EnrolledChip> = chunk
                .iter()
                .map(|&id| enrolled_record(config, id))
                .collect();
            if let Some(log) = log.as_mut() {
                for record in &records {
                    append(log, &DurableEvent::Enroll(record.clone()), &mut setup);
                }
            }
            let started = Instant::now();
            let stored = layer("pb.protocol.storage.from_enrolled", || {
                records
                    .iter()
                    .map(StoredChip::from_enrolled)
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| format!("compacting a fleet record: {e}"))?;
            layer("pb.protocol.service.enroll", || {
                stored
                    .into_iter()
                    .try_for_each(|chip| service.enroll_stored(chip).map(drop))
            })
            .map_err(|e| format!("enrolling a fleet record: {e}"))?;
            enroll_rates.push(chunk.len() as f64 / started.elapsed().as_secs_f64().max(1e-9));
        }
        let active: Vec<u32> = mine
            .iter()
            .copied()
            .filter(|&id| id < config.active_chips)
            .collect();
        let twins = build_twins(config, universe, &active);
        let first = service.now() + 1;
        let mut shard = Shard {
            service,
            twins,
            issued: vec![0; active.len()],
            active,
            inflight: BTreeMap::new(),
            clock: TickClock::new(first),
            round_base: first,
            next_round: 0,
            log,
            cursor: 0,
            round: Vec::new(),
            lockouts: Vec::new(),
            checks: Vec::new(),
            check_chips: fs.check_chips,
            setup,
        };
        if mode == Mode::Steady {
            shard.submit_round(config);
            let mut warmup = Tally::default();
            let mut budget = DRAIN_TICKS;
            while !shard.inflight.is_empty() {
                if budget == 0 {
                    return Err("the warm-up round did not drain".to_string());
                }
                budget -= 1;
                shard.tick(mode, epoch, &mut warmup);
            }
        }
        Ok((shard, enroll_rates))
    }

    fn submit(&mut self, batch: Vec<Arrival>) {
        let keys: Vec<(u64, u64)> = batch.iter().map(|a| (a.uid, a.due)).collect();
        let service = &mut self.service;
        let ids: Vec<u64> = layer("pb.protocol.service.submit", || {
            batch
                .into_iter()
                .map(|a| service.submit(a.chip, a.client, a.channel, a.rng, a.due))
                .collect()
        });
        self.inflight.extend(ids.into_iter().zip(keys));
    }

    /// Steady: submits session `k = next_round` of every active chip, due
    /// spread over the `gap` ticks of that round.
    fn submit_round(&mut self, config: &FleetConfig) {
        let k = self.next_round;
        let gap = config.session_gap_ticks;
        let base = self.round_base + u64::from(k) * gap;
        let batch: Vec<Arrival> = self
            .active
            .iter()
            .enumerate()
            .map(|(i, &chip)| {
                let due = base + i as u64 % gap;
                Arrival::new(
                    config,
                    &self.twins[&chip],
                    chip,
                    config.session_uid(chip, k),
                    due,
                )
            })
            .collect();
        self.submit(batch);
        self.next_round += 1;
    }

    /// Churn: submits one session for each chip of the next cohort, or
    /// returns `false` when a chip has used up its session uids.
    fn submit_cohort(&mut self, config: &FleetConfig, cohort: usize) -> bool {
        let n = self.active.len();
        if n == 0 {
            return false;
        }
        let size = cohort.min(n);
        let picks: Vec<usize> = (0..size).map(|j| (self.cursor + j) % n).collect();
        if picks.iter().any(|&i| self.issued[i] >= SESSION_CAP) {
            return false;
        }
        let gap = config.session_gap_ticks;
        let base = self.service.now() + 1;
        let mut batch = Vec::with_capacity(size);
        for (j, &i) in picks.iter().enumerate() {
            let chip = self.active[i];
            let uid = config.session_uid(chip, self.issued[i]);
            self.issued[i] += 1;
            batch.push(Arrival::new(
                config,
                &self.twins[&chip],
                chip,
                uid,
                base + j as u64 % gap,
            ));
            self.round.push(chip);
        }
        self.cursor = (self.cursor + size) % n;
        self.submit(batch);
        true
    }

    /// Runs one tick and collects its verdicts.
    fn tick(&mut self, mode: Mode, epoch: Instant, t: &mut Tally) {
        let before = *self.service.stats();
        let service = &mut self.service;
        let start = epoch.elapsed().as_secs_f64();
        layer("pb.protocol.service.tick", || service.tick());
        let end = epoch.elapsed().as_secs_f64();
        let after = *self.service.stats();
        self.clock.record(self.service.now(), start, end);
        let took = end - start;
        if after.warm_batches > before.warm_batches {
            t.tick_warm_s += took;
        } else if after.flushes > before.flushes {
            t.tick_flush_s += took;
        } else {
            t.tick_step_s += took;
        }
        t.pending_max = t.pending_max.max(self.service.pending_rows());
        for verdict in self.service.drain_verdicts() {
            let Some((uid, due)) = self.inflight.remove(&verdict.session_id) else {
                continue;
            };
            t.decided += 1;
            t.decided_at.push(end);
            if let Err(e) = &verdict.result {
                if !matches!(e, ProtocolError::ChipLockedOut { .. }) {
                    t.failed += 1;
                }
            }
            t.latency_ticks
                .push(verdict.decided_tick.saturating_sub(due) as f64);
            if let Some(s) = self.clock.latency(due, verdict.decided_tick) {
                t.latencies_ms.push((end, s * 1e3));
            }
            match mode {
                Mode::Churn => {
                    if let Ok(report) = &verdict.result {
                        if matches!(report.outcome, SessionOutcome::LockedOut) {
                            self.lockouts.push(verdict.chip_id);
                        }
                    }
                }
                Mode::Steady => {
                    let k = uid % u64::from(SESSION_CAP);
                    if k < u64::from(CHECK_ROUNDS) || verdict.chip_id < self.check_chips {
                        self.checks.push((uid, verdict.result));
                    }
                }
            }
        }
    }

    fn checks_pending(&self) -> bool {
        self.inflight
            .values()
            .any(|&(uid, _)| uid % u64::from(SESSION_CAP) < u64::from(CHECK_ROUNDS))
    }

    /// Churn: logs the finished cohort's lockouts and states, then
    /// re-enrolls every chip of it with its same record, which evicts its
    /// warm planes.
    fn write_round(&mut self, config: &FleetConfig, t: &mut Tally) -> Result<(), String> {
        let started = Instant::now();
        let log = self
            .log
            .as_mut()
            .ok_or("a churn shard has no durable log")?;
        for chip_id in self.lockouts.drain(..) {
            append(log, &DurableEvent::Lockout { chip_id }, t);
        }
        for chip in self.round.drain(..) {
            let state = self.service.chip_state(chip).copied().unwrap_or_default();
            append(
                log,
                &DurableEvent::StateSync {
                    chip_id: chip,
                    state,
                },
                t,
            );
            let record = enrolled_record(config, chip);
            let stored = layer("pb.protocol.storage.from_enrolled", || {
                StoredChip::from_enrolled(&record)
            })
            .map_err(|e| format!("compacting chip {chip}: {e}"))?;
            let service = &mut self.service;
            layer("pb.protocol.service.enroll", || {
                service.reenroll_stored(stored)
            })
            .map_err(|e| format!("re-enrolling chip {chip}: {e}"))?;
            append(log, &DurableEvent::Reenroll(record), t);
            t.reenrolls += 1;
        }
        t.write_s += started.elapsed().as_secs_f64();
        Ok(())
    }

    /// Serves sessions until `deadline`. Steady keeps one round of arrivals
    /// scheduled ahead and, past the deadline, only finishes the digest's
    /// sessions; churn stops at the first cohort boundary past it.
    fn serve(
        &mut self,
        config: &FleetConfig,
        mode: Mode,
        cohort: usize,
        epoch: Instant,
        deadline: Instant,
    ) -> Result<Tally, String> {
        let before = *self.service.stats();
        let mut t = Tally::default();
        let gap = config.session_gap_ticks;
        loop {
            let open = Instant::now() < deadline;
            match mode {
                Mode::Steady => {
                    if !open && !self.checks_pending() {
                        break;
                    }
                    let next_due = self.round_base + u64::from(self.next_round) * gap;
                    if open && self.next_round < SESSION_CAP && self.service.now() + gap >= next_due
                    {
                        self.submit_round(config);
                    }
                }
                Mode::Churn => {
                    if self.inflight.is_empty() {
                        if !self.round.is_empty() {
                            self.write_round(config, &mut t)?;
                        }
                        if !open || !self.submit_cohort(config, cohort) {
                            break;
                        }
                    }
                }
            }
            self.tick(mode, epoch, &mut t);
        }
        t.stats = stats_delta(&before, self.service.stats());
        if t.write_s > 0.0 {
            t.write_rate = t.reenrolls as f64 / t.write_s;
        }
        Ok(t)
    }
}

/// Builds every shard on its own worker.
fn build_fleet(
    config: &FleetConfig,
    universe: &Arc<ChallengeUniverse>,
    mode: Mode,
    fs: &FleetScale,
    epoch: Instant,
) -> Result<Vec<(Shard, Vec<f64>)>, String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..config.shards)
            .map(|index| s.spawn(move || Shard::build(config, universe, index, mode, fs, epoch)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a set-up worker panicked".to_string()))
            })
            .collect()
    })
}

/// Serves every shard on its own worker for `seconds`; returns the merged
/// tally, the window's wall time and its start in seconds since `epoch`.
fn serve_all(
    shards: &mut [Shard],
    config: &FleetConfig,
    mode: Mode,
    cohort: usize,
    epoch: Instant,
    seconds: f64,
) -> Result<(Tally, f64, f64), String> {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let parts: Vec<Result<Tally, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = shards
            .iter_mut()
            .map(|shard| s.spawn(move || shard.serve(config, mode, cohort, epoch, deadline)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a serving worker panicked".to_string()))
            })
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    let mut total = Tally::default();
    for part in parts {
        total.absorb(part?);
    }
    Ok((total, wall, started.duration_since(epoch).as_secs_f64()))
}

/// Decided sessions per second over a window that began `origin` seconds
/// after the epoch (median of equal slices).
fn throughput(t: &Tally, wall: f64, origin: f64) -> f64 {
    let events: Vec<(f64, u64)> = t.decided_at.iter().map(|&at| (at - origin, 1)).collect();
    stats::sliced_rate(&events, wall, stats::RATE_SLICES).unwrap_or(0.0)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Steady's checks: the digest of the warm-up and first timed round covers
/// every active chip, and every kept verdict of the leading chips equals
/// the sequential `SessionManager` replay.
fn check_steady(
    shards: &mut [Shard],
    config: &FleetConfig,
    universe: &Arc<ChallengeUniverse>,
    report: &mut Report,
) {
    let mut checks: Vec<(u64, Result<SessionReport, ProtocolError>)> = shards
        .iter_mut()
        .flat_map(|s| std::mem::take(&mut s.checks))
        .collect();
    checks.sort_by_key(|(uid, _)| *uid);
    let cap = u64::from(SESSION_CAP);
    let digested: Vec<_> = checks
        .iter()
        .filter(|(uid, _)| uid % cap < u64::from(CHECK_ROUNDS))
        .collect();
    let expected = u64::from(config.active_chips) * u64::from(CHECK_ROUNDS);
    report.check(digested.len() as u64 == expected, || {
        format!(
            "the digest covers {} sessions, not {expected}",
            digested.len()
        )
    });
    report.digest = Some(digested.iter().fold(FNV_OFFSET, |h, (uid, result)| {
        fnv(fnv(h, &uid.to_le_bytes()), format!("{result:?}").as_bytes())
    }));
    let check_chips = shards.first().map_or(0, |s| s.check_chips);
    let sequential = run_sequential(config, universe, u64::from(check_chips) * cap);
    let mut compared = 0;
    for (uid, result) in &checks {
        if uid / cap < u64::from(check_chips) {
            compared += 1;
            report.check(sequential.get(uid) == Some(result), || {
                format!("session {uid} differs from the sequential replay")
            });
        }
    }
    report.check(compared > 0, || {
        "no verdict was compared with the sequential replay".to_string()
    });
}

/// What the crash and recovery of every shard cost.
#[derive(Clone, Debug, Default)]
struct Recovery {
    recover_s: f64,
    restore_s: f64,
    bytes: usize,
    dropped: usize,
}

/// Churn's ending: each shard crashes (only its snapshot and WAL bytes
/// survive), recovers and restores a service whose chip states and records
/// must equal the live ones.
fn recover_all(
    shards: &[Shard],
    config: &FleetConfig,
    universe: &Arc<ChallengeUniverse>,
    report: &mut Report,
) -> Result<Recovery, String> {
    let mut totals = Recovery::default();
    layer("pb.section.recover", || {
        for shard in shards {
            let log = shard
                .log
                .as_ref()
                .ok_or("a churn shard has no durable log")?;
            let (snapshot, wal) = (log.snapshot_bytes().to_vec(), log.wal_bytes().to_vec());
            let started = Instant::now();
            let (recovered, rep) =
                layer("pb.protocol.durable.recover", || recover(&snapshot, &wal));
            totals.recover_s += started.elapsed().as_secs_f64();
            let started = Instant::now();
            let restored: FleetService = layer("pb.protocol.durable.restore", || {
                recovered
                    .state()
                    .restore_service(service_config(config), Arc::clone(universe))
            })
            .map_err(|e| format!("restoring the service: {e}"))?;
            totals.restore_s += started.elapsed().as_secs_f64();
            totals.bytes += snapshot.len() + wal.len();
            totals.dropped += rep.wal_bytes_dropped;
            report.check(rep.is_clean() && rep.wal_bytes_dropped == 0, || {
                format!("the clean crash did not recover cleanly: {rep:?}")
            });
            let live = &shard.service;
            let differing = restored
                .chip_states()
                .filter(|&(id, state)| live.chip_state(id).copied().unwrap_or_default() != *state)
                .count()
                + live
                    .chip_states()
                    .filter(|&(id, _)| restored.chip_state(id).is_none())
                    .count();
            report.check(differing == 0, || {
                format!("{differing} restored chip states differ from the live ones")
            });
            let records_differ = live
                .store()
                .chip_ids()
                .filter(|&id| live.store().chip(id) != restored.store().chip(id))
                .count();
            report.check(records_differ == 0, || {
                format!("{records_differ} restored chip records differ from the live ones")
            });
        }
        Ok::<(), String>(())
    })?;
    Ok(totals)
}

/// Times `warm_chips` on the stored models of the first shard's chips —
/// the bit-sliced warm-up kernel on its own.
fn warm_probe(
    shards: &[Shard],
    universe: &ChallengeUniverse,
    chips: usize,
) -> Result<(f64, u64), String> {
    let store = shards.first().ok_or("no shard to probe")?.service.store();
    let models = store
        .chip_ids()
        .take(chips)
        .map(|id| {
            let chip = store
                .chip(id)
                .ok_or_else(|| format!("chip {id} left the store"))?;
            chip.shifted_models()
                .map(|model| (id, model))
                .map_err(|e| format!("chip {id}: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let evals: u64 = models
        .iter()
        .map(|(_, m)| 2 * m.members() as u64 * universe.len() as u64)
        .sum();
    let started = Instant::now();
    let warmed = layer("pb.core.bitslice.warm", || warm_chips(universe, &models));
    let secs = started.elapsed().as_secs_f64();
    std::hint::black_box(warmed);
    Ok((secs, evals))
}

/// Runs fleet_steady or fleet_churn.
pub fn run(args: &Args, scale: Scale, workers: usize, mode: Mode) -> Report {
    let fs = match scale {
        Scale::Full => FleetScale::full(mode),
        Scale::Smoke => FleetScale::smoke(),
    };
    let mut report = Report::default();
    if let Err(e) = run_into(args, &fs, workers, mode, &mut report) {
        report.problems.push(e);
    }
    report
}

fn run_into(
    args: &Args,
    fs: &FleetScale,
    workers: usize,
    mode: Mode,
    report: &mut Report,
) -> Result<(), String> {
    let config = fleet_config(fs, args.seed, workers);
    let universe = build_universe(&config);
    let epoch = Instant::now();

    // Set-up, several times; the last store is kept (and traced).
    let mut setup_s = Vec::new();
    let mut enroll_rates = Vec::new();
    let mut shards: Vec<Shard> = Vec::new();
    for i in 0..fs.setups {
        shards.clear();
        if args.trace && i + 1 == fs.setups {
            spans::start_tracing();
        }
        let started = Instant::now();
        let built = layer("pb.section.setup", || {
            build_fleet(&config, &universe, mode, fs, epoch)
        })?;
        setup_s.push(started.elapsed().as_secs_f64());
        // Shards load side by side, so the fleet rate is a chunk's rate
        // times the workers.
        for (shard, rates) in built {
            enroll_rates.extend(rates.into_iter().map(|r| r * workers as f64));
            shards.push(shard);
        }
    }
    spans::pause_tracing();

    // A traced run serves half its time untraced, half traced: the ratio of
    // the two throughputs is the tracing overhead.
    let (untraced_s, traced_s) = if args.trace {
        (args.seconds / 2.0, Some(args.seconds / 2.0))
    } else {
        (args.seconds, None)
    };
    let (a, a_wall, a_origin) =
        serve_all(&mut shards, &config, mode, fs.cohort, epoch, untraced_s)?;
    let traced = match traced_s {
        Some(w) => {
            spans::resume_tracing();
            Some(layer("pb.section.serve", || {
                serve_all(&mut shards, &config, mode, fs.cohort, epoch, w)
            })?)
        }
        None => None,
    };
    let windows = [Some(&a), traced.as_ref().map(|(t, _, _)| t)];
    report.attempted = windows.iter().flatten().map(|t| t.decided).sum();
    report.failed = windows.iter().flatten().map(|t| t.failed).sum();
    let timed_warm_batches: u64 = windows.iter().flatten().map(|t| t.stats.warm_batches).sum();

    let mut recovery = Recovery::default();
    match mode {
        Mode::Steady => {
            report.check(timed_warm_batches == 0, || {
                format!("{timed_warm_batches} warm batches ran while fleet_steady was timed")
            });
            check_steady(&mut shards, &config, &universe, report);
        }
        Mode::Churn => {
            let ratio = a.warm_hit_ratio();
            report.check(ratio <= 0.05, || {
                format!("fleet_churn's warm-plane hit ratio is {ratio:.3}, above 0.05")
            });
            recovery = recover_all(&shards, &config, &universe, report)?;
        }
    }
    eprintln!(
        "{}: {} sessions in {a_wall:.2} s on {workers} workers, {} failed, {} ticks, \
         warm hit ratio {:.3}, {} re-enrollments",
        match mode {
            Mode::Steady => "fleet_steady",
            Mode::Churn => "fleet_churn",
        },
        a.decided,
        a.failed,
        a.stats.ticks,
        a.warm_hit_ratio(),
        a.reenrolls,
    );

    report.set("setup_s", stats::median(&setup_s).unwrap_or(0.0));
    let a_rate = throughput(&a, a_wall, a_origin);
    report.set("throughput_per_s", a_rate);
    let latencies: Vec<(f64, f64)> = a
        .latencies_ms
        .iter()
        .map(|&(at, ms)| (at - a_origin, ms))
        .collect();
    for (metric, pct) in [("latency_p50_ms", 50.0), ("latency_p99_ms", 99.0)] {
        if let Some(ms) = stats::sliced_percentile(&latencies, a_wall, pct) {
            report.set(metric, ms);
        }
    }
    report.set(
        "enroll_chips_per_s",
        match mode {
            Mode::Steady => stats::median(&enroll_rates).unwrap_or(0.0),
            Mode::Churn => a.write_rate,
        },
    );

    let Some((b, b_wall, b_origin)) = traced else {
        return Ok(());
    };
    let (warm_s, warm_evals) = warm_probe(&shards, &universe, fs.probe_chips)?;
    let lt = spans::layer_times(&spans::finish_tracing()?);
    for (metric, span) in [
        (
            "protocol.storage.from_enrolled_s",
            "protocol.storage.from_enrolled",
        ),
        ("protocol.service.enroll_s", "protocol.service.enroll"),
        ("protocol.service.submit_s", "protocol.service.submit"),
        ("protocol.service.tick_s", "protocol.service.tick"),
        ("core.bitslice.warm_s", "core.bitslice.warm"),
        ("protocol.durable.append_s", "protocol.durable.append"),
        ("protocol.durable.compact_s", "protocol.durable.compact"),
        ("protocol.durable.recover_s", "protocol.durable.recover"),
        ("protocol.durable.restore_s", "protocol.durable.restore"),
    ] {
        report.set(metric, lt.self_of(span));
    }
    let stored: usize = shards
        .iter()
        .map(|s| s.service.store().stored_bytes())
        .sum();
    let chips: usize = shards.iter().map(|s| s.service.store().len()).sum();
    let warm: usize = shards.iter().map(|s| s.service.store().warm_bytes()).sum();
    let warm_chips: usize = shards.iter().map(|s| s.service.store().warm_len()).sum();
    report.set(
        "protocol.storage.bytes_per_chip",
        stored as f64 / chips.max(1) as f64,
    );
    report.set(
        "protocol.storage.warm_bytes_per_chip",
        warm as f64 / warm_chips.max(1) as f64,
    );
    report.set("protocol.service.tick_warm_s", b.tick_warm_s);
    report.set("protocol.service.tick_flush_s", b.tick_flush_s);
    report.set("protocol.service.tick_step_s", b.tick_step_s);
    report.set("protocol.service.ticks", b.stats.ticks as f64);
    report.set("protocol.service.flushes", b.stats.flushes as f64);
    report.set("protocol.service.aged_flushes", b.stats.aged_flushes as f64);
    report.set(
        "protocol.service.decided_per_flush",
        b.decided as f64 / b.stats.flushes.max(1) as f64,
    );
    report.set("protocol.service.pending_rows_max", b.pending_max as f64);
    let mut ticks = b.latency_ticks.clone();
    ticks.sort_by(f64::total_cmp);
    if let Some((p50, _)) = stats::nearest_rank(&ticks, 50.0) {
        report.set("protocol.service.latency_ticks_p50", p50);
    }
    if let Some((_, tail)) = stats::tail(&ticks) {
        report.set("protocol.service.latency_ticks_p99", tail);
    }
    report.set("protocol.service.warm_hit_ratio", b.warm_hit_ratio());
    report.set("protocol.service.warm_batches", b.stats.warm_batches as f64);
    report.set("core.bitslice.member_evals", warm_evals as f64);
    report.set(
        "core.bitslice.member_evals_per_s",
        warm_evals as f64 / warm_s,
    );
    if mode == Mode::Churn {
        let setup_events: u64 = shards.iter().map(|s| s.setup.events).sum();
        let setup_compactions: u64 = shards.iter().map(|s| s.setup.compactions).sum();
        let logs = shards.iter().filter_map(|s| s.log.as_ref());
        let (wal, snapshot) = logs.fold((0, 0), |(w, s), log| {
            (w + log.wal_bytes().len(), s + log.snapshot_bytes().len())
        });
        report.set("protocol.durable.events", (setup_events + b.events) as f64);
        report.set(
            "protocol.durable.compactions",
            (setup_compactions + b.compactions) as f64,
        );
        report.set("protocol.durable.wal_bytes", wal as f64);
        report.set("protocol.durable.snapshot_bytes", snapshot as f64);
        report.set(
            "protocol.durable.recover_mb_per_s",
            recovery.bytes as f64 / 1e6 / recovery.recover_s,
        );
        report.set("protocol.durable.dropped_bytes", recovery.dropped as f64);
    }
    report.set(
        "telemetry.tracing_overhead_ratio",
        throughput(&b, b_wall, b_origin) / a_rate,
    );
    report.set("bench.section_s", lt.section_s);
    report.set("bench.section_lane_s", lt.section_lane_s);
    report.set("bench.unattributed_s", lt.unattributed_s);
    Ok(())
}
