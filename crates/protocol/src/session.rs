//! Resilient authentication sessions: retry, lockout and graceful
//! degradation on top of the one-shot [`Server`] verification round.
//!
//! The paper's Fig. 7 protocol is a single round: select predicted-stable
//! challenges, sample the chip once, accept on zero Hamming distance. Real
//! deployments see flipped bits from brownouts, saturated counters and
//! corrupted frames — and a single flip rejects a legitimate chip. This
//! module turns the one-shot round into a *session* state machine:
//!
//! - **Bounded retries** — a failed round is retried up to
//!   [`SessionPolicy::max_retries`] times, and every retry draws *fresh*
//!   predicted-stable challenges through
//!   [`Server::select_challenges_excluding`]; a failed challenge set is
//!   never re-exposed (re-sending it would hand an eavesdropper repeated
//!   observations of the same CRPs — the chosen-challenge harvesting risk).
//! - **Deterministic backoff bookkeeping** — retries accrue exponential
//!   backoff *ticks* (`base · 2^(attempt−1)`, capped); the session never
//!   sleeps, it records the schedule so callers and tests stay
//!   deterministic.
//! - **Lockout** — each chip carries a consecutive-failure counter that
//!   only a clean acceptance clears. At
//!   [`SessionPolicy::lockout_threshold`] the chip locks out and the server
//!   refuses to issue further challenges until [`SessionManager::reinstate`]
//!   is called. Transport failures (drops, stragglers, glitched
//!   measurements) consume retry budget but do **not** advance the counter:
//!   they carry no evidence about who is responding.
//! - **Graceful degradation** — when every retry fails under the strict
//!   zero-Hamming-distance policy, an optional
//!   [`AuthPolicy::MaxHammingFraction`] fallback re-judges the *last
//!   verified* round. Passing the fallback yields an explicit
//!   [`SessionOutcome::Degraded`] that flags the chip for re-enrollment —
//!   security is never weakened silently.
//!
//! These rules live in one sans-IO state machine (`SessionMachine`) that
//! owns no RNG, performs no I/O and selects no challenges. Two drivers
//! feed it: [`SessionManager`] selects, exchanges and judges inline, and
//! the batched `service::AuthService` judges delivered frames at flush
//! time and sleeps through backoff on its tick clock. Every transition
//! increments a `protocol.session.*` telemetry counter (see the README's
//! observability table), whichever driver runs it.

use crate::auth::{AuthOutcome, AuthPolicy, Responder};
use crate::server::{ExclusionSet, SelectedChallenge, Server};
use crate::ProtocolError;
use puf_core::Challenge;
use rand::Rng;
use std::collections::BTreeMap;
use std::fmt;

/// How a transport-level exchange failed (no judgement was possible).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportFailureKind {
    /// The message never arrived.
    Dropped,
    /// The device straggled past the response deadline.
    Straggled,
    /// The frame arrived with the wrong number of response bits.
    FrameMismatch,
    /// The device's measurement path glitched transiently (e.g. a fuse
    /// sense failure) and produced no responses.
    MeasurementGlitch,
}

impl fmt::Display for TransportFailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportFailureKind::Dropped => write!(f, "message dropped"),
            TransportFailureKind::Straggled => write!(f, "device straggled past the deadline"),
            TransportFailureKind::FrameMismatch => write!(f, "frame carried a wrong bit count"),
            TransportFailureKind::MeasurementGlitch => {
                write!(f, "device measurement glitched transiently")
            }
        }
    }
}

/// What a channel did to one response message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Delivery {
    /// The payload arrived (possibly corrupted in flight).
    Delivered(Vec<bool>),
    /// The message was lost.
    Dropped,
    /// The message arrived after the server's deadline — a straggler, which
    /// the server treats exactly like a timeout.
    Straggled,
}

/// The device→server response path. Implementations may drop, corrupt,
/// duplicate, reorder or delay messages; the session layer only observes
/// the resulting [`Delivery`].
pub trait Channel {
    /// Transmits one response frame.
    fn transmit(&mut self, response: Vec<bool>) -> Delivery;
}

/// A lossless, instantaneous channel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PerfectChannel;

impl Channel for PerfectChannel {
    fn transmit(&mut self, response: Vec<bool>) -> Delivery {
        Delivery::Delivered(response)
    }
}

/// Configuration of the session state machine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SessionPolicy {
    /// Challenges per authentication attempt.
    pub rounds: usize,
    /// Additional attempts after the first (0 = one-shot).
    pub max_retries: u32,
    /// Backoff ticks scheduled before the first retry.
    pub backoff_base_ticks: u64,
    /// Ceiling on the per-retry backoff ticks.
    pub backoff_cap_ticks: u64,
    /// Consecutive failed *verification* rounds before the chip locks out.
    pub lockout_threshold: u32,
    /// The primary acceptance policy (the paper's zero Hamming distance).
    pub primary: AuthPolicy,
    /// Optional degraded-mode fallback, judged on the last verified round
    /// only after every retry failed the primary policy. Accepting through
    /// it yields [`SessionOutcome::Degraded`] and flags re-enrollment.
    pub fallback: Option<AuthPolicy>,
}

impl SessionPolicy {
    /// The paper's strict protocol: one shot, zero Hamming distance, no
    /// fallback, lockout after 3 consecutive failures.
    pub fn strict(rounds: usize) -> Self {
        Self {
            rounds,
            max_retries: 0,
            backoff_base_ticks: 1,
            backoff_cap_ticks: 64,
            lockout_threshold: 3,
            primary: AuthPolicy::ZeroHammingDistance,
            fallback: None,
        }
    }

    /// Production preset: up to 3 retries with exponential backoff, lockout
    /// after 8 consecutive failures, no degraded fallback.
    pub fn resilient(rounds: usize) -> Self {
        Self {
            rounds,
            max_retries: 3,
            backoff_base_ticks: 1,
            backoff_cap_ticks: 64,
            lockout_threshold: 8,
            primary: AuthPolicy::ZeroHammingDistance,
            fallback: None,
        }
    }

    /// [`SessionPolicy::resilient`] plus a degraded-mode ladder: after the
    /// retries are spent, a round within `fallback_fraction` Hamming
    /// fraction is accepted as [`SessionOutcome::Degraded`] and the chip is
    /// flagged for re-enrollment.
    pub fn degraded(rounds: usize, fallback_fraction: f64) -> Self {
        Self {
            fallback: Some(AuthPolicy::MaxHammingFraction(fallback_fraction)),
            ..Self::resilient(rounds)
        }
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::InvalidPolicy`] on zero rounds, a zero lockout
    /// threshold, a backoff cap below the base, or an invalid acceptance
    /// policy.
    pub fn validate(&self) -> Result<(), ProtocolError> {
        if self.rounds == 0 {
            return Err(ProtocolError::InvalidPolicy {
                reason: "session rounds must be positive",
            });
        }
        if self.lockout_threshold == 0 {
            return Err(ProtocolError::InvalidPolicy {
                reason: "lockout threshold must be positive",
            });
        }
        if self.backoff_cap_ticks < self.backoff_base_ticks {
            return Err(ProtocolError::InvalidPolicy {
                reason: "backoff cap must be at least the base",
            });
        }
        self.primary.validate()?;
        if let Some(fallback) = self.fallback {
            fallback.validate()?;
        }
        Ok(())
    }

    /// Backoff ticks scheduled after failed attempt number `attempt`
    /// (1-based): `base · 2^(attempt−1)`, saturating, capped at
    /// [`SessionPolicy::backoff_cap_ticks`].
    pub fn backoff_ticks(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(63);
        let doubled = if shift >= self.backoff_base_ticks.leading_zeros() {
            u64::MAX // the shift would overflow: saturate
        } else {
            self.backoff_base_ticks << shift
        };
        doubled.min(self.backoff_cap_ticks)
    }

    /// Random-draw budget per selection round. Generous — stable yields
    /// below ~0.1 % still terminate — while genuinely exhausted pools
    /// error out. Every session driver (the [`SessionManager`] and the
    /// batched `service` event loop) must use this same budget so their
    /// selection streams stay comparable.
    pub fn select_budget(&self) -> usize {
        self.rounds.saturating_mul(200_000).max(100_000)
    }
}

/// Where a session draws its fresh predicted-stable challenges from.
///
/// The default, [`ServerSource`], is the server's own random-search
/// selection ([`Server::select_challenges_excluding_set`]). The batched
/// authentication service substitutes a pre-screened challenge-universe
/// pool so that a sequential [`SessionManager`] replay can consume the
/// *exact same* challenge stream the batched event loop does — the
/// equivalence harness relies on this hook.
pub trait ChallengeSource {
    /// Selects `count` fresh predicted-stable challenges for `chip_id`,
    /// never returning one whose bit pattern is in `exclude`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::UnknownChip`] /
    /// [`ProtocolError::ChallengeSelectionExhausted`] as for
    /// [`Server::select_challenges_excluding_set`].
    fn select<R: Rng + ?Sized>(
        &mut self,
        server: &Server,
        chip_id: u32,
        count: usize,
        max_attempts: usize,
        exclude: &ExclusionSet,
        rng: &mut R,
    ) -> Result<Vec<SelectedChallenge>, ProtocolError>;
}

/// The default [`ChallengeSource`]: the server's random stable-challenge
/// search.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerSource;

impl ChallengeSource for ServerSource {
    fn select<R: Rng + ?Sized>(
        &mut self,
        server: &Server,
        chip_id: u32,
        count: usize,
        max_attempts: usize,
        exclude: &ExclusionSet,
        rng: &mut R,
    ) -> Result<Vec<SelectedChallenge>, ProtocolError> {
        server.select_challenges_excluding_set(chip_id, count, max_attempts, exclude, rng)
    }
}

/// Terminal state of one authentication session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionOutcome {
    /// A round passed the primary policy.
    Accepted,
    /// Every retry failed the primary policy but the last verified round
    /// passed the degraded fallback; the chip is flagged for re-enrollment.
    Degraded,
    /// All attempts failed; no fallback applied (or the fallback also
    /// failed).
    Rejected,
    /// The consecutive-failure counter crossed the lockout threshold during
    /// this session.
    LockedOut,
}

impl SessionOutcome {
    /// Whether this outcome grants the client access ([`Accepted`] or the
    /// explicitly flagged [`Degraded`]).
    ///
    /// [`Accepted`]: SessionOutcome::Accepted
    /// [`Degraded`]: SessionOutcome::Degraded
    pub fn grants_access(&self) -> bool {
        matches!(self, SessionOutcome::Accepted | SessionOutcome::Degraded)
    }
}

impl fmt::Display for SessionOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionOutcome::Accepted => write!(f, "accepted"),
            SessionOutcome::Degraded => write!(f, "degraded accept (re-enroll)"),
            SessionOutcome::Rejected => write!(f, "rejected"),
            SessionOutcome::LockedOut => write!(f, "locked out"),
        }
    }
}

/// One transition in a session, in order of occurrence.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SessionEvent {
    /// A fresh-challenge attempt began (1-based).
    AttemptStarted {
        /// Attempt number.
        attempt: u32,
    },
    /// The exchange failed at the transport layer; no judgement happened.
    TransportFailed {
        /// Attempt number.
        attempt: u32,
        /// What went wrong.
        kind: TransportFailureKind,
    },
    /// A verified round failed the primary policy.
    VerificationFailed {
        /// Attempt number.
        attempt: u32,
        /// Mismatching bits in the round.
        mismatches: usize,
    },
    /// Backoff ticks were scheduled before the next attempt.
    BackoffScheduled {
        /// Attempt that just failed.
        attempt: u32,
        /// Ticks scheduled.
        ticks: u64,
    },
    /// A round passed the primary policy.
    Accepted {
        /// Attempt number.
        attempt: u32,
    },
    /// The last verified round passed the degraded fallback.
    DegradedAccept {
        /// Mismatches tolerated by the fallback.
        mismatches: usize,
    },
    /// The chip crossed the lockout threshold.
    LockedOut {
        /// Consecutive failures recorded at lockout.
        consecutive_failures: u32,
    },
}

/// Full account of one session: terminal outcome plus the transition log.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionReport {
    /// Terminal state.
    pub outcome: SessionOutcome,
    /// Attempts consumed (including the final one).
    pub attempts: u32,
    /// Total backoff ticks scheduled across all retries.
    pub backoff_ticks_total: u64,
    /// Distinct challenges issued over the whole session.
    pub challenges_issued: usize,
    /// Whether the session flagged the chip for re-enrollment.
    pub needs_reenrollment: bool,
    /// The judged outcome of the last round that reached verification.
    pub last_verification: Option<AuthOutcome>,
    /// Ordered transition log.
    pub events: Vec<SessionEvent>,
}

/// Per-chip session bookkeeping held by the [`SessionManager`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChipSessionState {
    /// Consecutive failed verification rounds. Only a clean
    /// [`SessionOutcome::Accepted`] resets it — a degraded accept does not
    /// (lockout progress is monotone across failed retries).
    pub consecutive_failures: u32,
    /// Whether the chip is locked out.
    pub locked_out: bool,
    /// Whether a degraded accept flagged the chip for re-enrollment.
    pub needs_reenrollment: bool,
    /// Sessions started for this chip.
    pub sessions: u64,
    /// Sessions that ended in a clean accept.
    pub clean_accepts: u64,
}

impl ChipSessionState {
    /// Administrative reinstatement: lifts a lockout and resets the
    /// consecutive-failure counter. With [`ChipSessionState::reenrolled`]
    /// this is the only way out of lockout.
    pub(crate) fn reinstate(&mut self) {
        self.locked_out = false;
        self.consecutive_failures = 0;
    }

    /// A fresh enrollment record replaced the chip's model: clears the
    /// re-enrollment flag and reinstates the chip. The session and
    /// clean-accept counters are history and survive.
    pub(crate) fn reenrolled(&mut self) {
        self.needs_reenrollment = false;
        self.reinstate();
    }

    /// Locks the chip out: no further sessions start until it is
    /// reinstated or re-enrolled.
    pub(crate) fn lock_out(&mut self) {
        self.locked_out = true;
    }
}

/// What a session driver does after a [`SessionMachine`] transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Step {
    /// Run the next attempt once this many backoff ticks have passed.
    Retry(u64),
    /// The session is over; [`SessionMachine::finish`] yields its report.
    Done(SessionOutcome),
}

/// The session state machine: attempts, issued-challenge count, backoff
/// schedule, lockout counter, degraded-fallback ladder, event log and the
/// `protocol.session.*` transition telemetry.
///
/// It performs no I/O, draws no randomness, selects no challenges and
/// looks up no expected bits: a driver does those and reports what
/// happened. [`SessionManager`] drives it synchronously; the batched
/// `service::AuthService` drives it across event-loop ticks, judging
/// delivered frames at flush time. Both call these same transitions, which
/// is what makes their reports identical for the same challenge stream.
#[derive(Debug, Default)]
pub(crate) struct SessionMachine {
    attempt: u32,
    issued: usize,
    backoff_ticks_total: u64,
    last_verification: Option<AuthOutcome>,
    events: Vec<SessionEvent>,
}

impl SessionMachine {
    /// Starts a session against the chip's state: a locked-out chip is
    /// refused before any challenge is exposed, otherwise the session is
    /// counted.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::ChipLockedOut`] if the chip is locked out.
    pub(crate) fn start(
        &mut self,
        chip_id: u32,
        chip: &mut ChipSessionState,
    ) -> Result<(), ProtocolError> {
        if chip.locked_out {
            puf_telemetry::counter!("protocol.session.lockout_hits").inc();
            return Err(ProtocolError::ChipLockedOut {
                chip_id,
                consecutive_failures: chip.consecutive_failures,
            });
        }
        chip.sessions += 1;
        puf_telemetry::counter!("protocol.session.starts").inc();
        Ok(())
    }

    /// Begins the next attempt.
    pub(crate) fn begin_attempt(&mut self) {
        self.attempt += 1;
        self.events.push(SessionEvent::AttemptStarted {
            attempt: self.attempt,
        });
        puf_telemetry::counter!("protocol.session.attempts").inc();
    }

    /// Records an attempt's selection: `drawn` challenges sent, `fresh` of
    /// them never issued before in this session.
    pub(crate) fn issued(&mut self, drawn: usize, fresh: usize) {
        self.issued += fresh;
        puf_telemetry::counter!("protocol.session.fresh_challenges").add(drawn as u64);
    }

    /// The attempt's exchange failed at the transport layer: it consumes
    /// retry budget but is no evidence about who is responding, so the
    /// lockout counter does not move. Errs only on an invalid fallback.
    pub(crate) fn transport_failed(
        &mut self,
        policy: &SessionPolicy,
        kind: TransportFailureKind,
    ) -> Result<Step, ProtocolError> {
        self.events.push(SessionEvent::TransportFailed {
            attempt: self.attempt,
            kind,
        });
        puf_telemetry::counter!("protocol.session.transport_failures").inc();
        puf_telemetry::trace_instant!("protocol.session.transport_failure");
        self.retry_or_conclude(policy)
    }

    /// Judges a delivered frame of `rounds` responses with `mismatches`
    /// wrong bits under the primary policy. A failed verification advances
    /// the chip's lockout counter and may lock it out. Errs on an empty
    /// round or an invalid fallback.
    pub(crate) fn delivered(
        &mut self,
        policy: &SessionPolicy,
        chip: &mut ChipSessionState,
        rounds: usize,
        mismatches: usize,
    ) -> Result<Step, ProtocolError> {
        let judged = AuthOutcome::try_judge(policy.primary, rounds, mismatches)?;
        self.last_verification = Some(judged);
        if judged.approved {
            self.events.push(SessionEvent::Accepted {
                attempt: self.attempt,
            });
            puf_telemetry::counter!("protocol.session.accepts").inc();
            puf_telemetry::trace_instant!("protocol.session.accept");
            return Ok(Step::Done(SessionOutcome::Accepted));
        }
        self.events.push(SessionEvent::VerificationFailed {
            attempt: self.attempt,
            mismatches,
        });
        puf_telemetry::counter!("protocol.session.verify_failures").inc();
        puf_telemetry::trace_instant!("protocol.session.verify_failure");
        // Verification failure is evidence against the responder: advance
        // the lockout counter now, so a retry storm cannot outrun the
        // threshold.
        chip.consecutive_failures = chip.consecutive_failures.saturating_add(1);
        if chip.consecutive_failures >= policy.lockout_threshold {
            chip.lock_out();
            self.events.push(SessionEvent::LockedOut {
                consecutive_failures: chip.consecutive_failures,
            });
            puf_telemetry::counter!("protocol.session.lockouts").inc();
            puf_telemetry::trace_instant!("protocol.session.lockout");
            return Ok(Step::Done(SessionOutcome::LockedOut));
        }
        self.retry_or_conclude(policy)
    }

    /// After a failed attempt: schedules the backoff retry, or — attempts
    /// exhausted — tries the degraded ladder on the last round that reached
    /// verification and otherwise rejects.
    fn retry_or_conclude(&mut self, policy: &SessionPolicy) -> Result<Step, ProtocolError> {
        if self.attempt >= policy.max_retries.saturating_add(1) {
            if let (Some(fallback), Some(last)) = (policy.fallback, self.last_verification) {
                if fallback.try_accepts(last.challenges_used, last.mismatches)? {
                    self.events.push(SessionEvent::DegradedAccept {
                        mismatches: last.mismatches,
                    });
                    puf_telemetry::counter!("protocol.session.degraded").inc();
                    puf_telemetry::trace_instant!("protocol.session.degraded_accept");
                    return Ok(Step::Done(SessionOutcome::Degraded));
                }
            }
            puf_telemetry::counter!("protocol.session.rejects").inc();
            puf_telemetry::trace_instant!("protocol.session.reject");
            return Ok(Step::Done(SessionOutcome::Rejected));
        }
        let ticks = policy.backoff_ticks(self.attempt);
        self.backoff_ticks_total = self.backoff_ticks_total.saturating_add(ticks);
        self.events.push(SessionEvent::BackoffScheduled {
            attempt: self.attempt,
            ticks,
        });
        puf_telemetry::counter!("protocol.session.retries").inc();
        puf_telemetry::counter!("protocol.session.backoff_ticks").add(ticks);
        puf_telemetry::trace_instant!("protocol.session.backoff");
        Ok(Step::Retry(ticks))
    }

    /// Ends the session with the `outcome` a transition returned: only a
    /// clean accept clears lockout progress, a degraded accept flags the
    /// chip for re-enrollment.
    pub(crate) fn finish(
        self,
        outcome: SessionOutcome,
        chip: &mut ChipSessionState,
    ) -> SessionReport {
        match outcome {
            SessionOutcome::Accepted => {
                chip.consecutive_failures = 0;
                chip.clean_accepts += 1;
            }
            SessionOutcome::Degraded => chip.needs_reenrollment = true,
            SessionOutcome::Rejected | SessionOutcome::LockedOut => {}
        }
        SessionReport {
            outcome,
            attempts: self.attempt,
            backoff_ticks_total: self.backoff_ticks_total,
            challenges_issued: self.issued,
            needs_reenrollment: chip.needs_reenrollment,
            last_verification: self.last_verification,
            events: self.events,
        }
    }
}

/// One device exchange: the responder answers `challenges` and the channel
/// carries the frame. Returns the delivered bits, or how the transport
/// failed — a wrong-length frame is [`TransportFailureKind::FrameMismatch`]
/// and a transient fuse-sense glitch (no responses, no evidence) is
/// [`TransportFailureKind::MeasurementGlitch`].
///
/// # Errors
///
/// Every other responder error (stage mismatch, blown fuses, …) is
/// permanent and propagates.
pub(crate) fn exchange<C: Responder, Ch: Channel>(
    client: &mut C,
    channel: &mut Ch,
    challenges: &[Challenge],
) -> Result<Result<Vec<bool>, TransportFailureKind>, ProtocolError> {
    let response = match client.try_respond(challenges) {
        Ok(response) => response,
        Err(ProtocolError::Silicon(puf_silicon::SiliconError::FuseReadFailure)) => {
            return Ok(Err(TransportFailureKind::MeasurementGlitch))
        }
        Err(e) => return Err(e),
    };
    Ok(match channel.transmit(response) {
        Delivery::Delivered(bits) if bits.len() == challenges.len() => Ok(bits),
        Delivery::Delivered(_) => Err(TransportFailureKind::FrameMismatch),
        Delivery::Dropped => Err(TransportFailureKind::Dropped),
        Delivery::Straggled => Err(TransportFailureKind::Straggled),
    })
}

/// Drives resilient authentication sessions against a [`Server`].
#[derive(Clone, Debug)]
pub struct SessionManager {
    server: Server,
    policy: SessionPolicy,
    states: BTreeMap<u32, ChipSessionState>,
    /// Reusable per-session exclusion scratch: cleared (capacity retained)
    /// at session start instead of re-allocated, so million-session runs
    /// don't churn the allocator on every retry loop.
    exclusion_scratch: ExclusionSet,
}

impl SessionManager {
    /// Wraps a server with a session policy.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::InvalidPolicy`] if the policy is inconsistent.
    pub fn new(server: Server, policy: SessionPolicy) -> Result<Self, ProtocolError> {
        policy.validate()?;
        Ok(Self {
            server,
            policy,
            states: BTreeMap::new(),
            exclusion_scratch: ExclusionSet::new(),
        })
    }

    /// The wrapped server.
    pub fn server(&self) -> &Server {
        &self.server
    }

    /// The session policy.
    pub fn policy(&self) -> &SessionPolicy {
        &self.policy
    }

    /// Per-chip session state, if the chip has ever started a session.
    pub fn state(&self, chip_id: u32) -> Option<&ChipSessionState> {
        self.states.get(&chip_id)
    }

    /// All per-chip session states, in ascending chip-id order.
    pub fn states(&self) -> impl Iterator<Item = (u32, &ChipSessionState)> + '_ {
        self.states.iter().map(|(&id, s)| (id, s))
    }

    /// Restores one chip's session state wholesale — the recovery path:
    /// [`crate::durable::DurableState`] rebuilds a manager from its
    /// replayed records and then reinstalls each chip's ladder state here.
    /// Not for normal operation; the state machine owns these fields.
    pub fn restore_chip_state(&mut self, chip_id: u32, state: ChipSessionState) {
        self.states.insert(chip_id, state);
    }

    /// Registers a brand-new chip with the wrapped server and drops any
    /// stale ladder state under the same id. Unlike
    /// [`SessionManager::reenroll_chip`] this is first-contact enrollment:
    /// the disaster-recovery path re-admitting a chip whose record was
    /// lost with a corrupted snapshot.
    pub fn register_chip(&mut self, record: crate::enrollment::EnrolledChip) {
        self.states.remove(&record.chip_id);
        self.server.register(record);
    }

    /// Whether the chip is currently locked out.
    pub fn is_locked_out(&self, chip_id: u32) -> bool {
        self.states.get(&chip_id).is_some_and(|s| s.locked_out)
    }

    /// Administratively clears a lockout (e.g. after out-of-band vetting)
    /// and resets the consecutive-failure counter — see
    /// [`ChipSessionState::reinstate`].
    pub fn reinstate(&mut self, chip_id: u32) {
        if let Some(state) = self.states.get_mut(&chip_id) {
            state.reinstate();
            puf_telemetry::counter!("protocol.session.reinstates").inc();
        }
    }

    /// Consumes the `needs_reenrollment` flag: swaps in a freshly measured
    /// enrollment record ([`Server::reenroll_chip`]), clears the flag, and
    /// reinstates the chip (lockout lifted, consecutive failures reset).
    /// The sessions/clean-accept counters are history and survive.
    ///
    /// Returns the superseded record so operators can archive the stale
    /// delay model.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::UnknownChip`] if the chip was never registered —
    /// re-enrollment never enrolls a chip with no history.
    pub fn reenroll_chip(
        &mut self,
        record: crate::enrollment::EnrolledChip,
    ) -> Result<crate::enrollment::EnrolledChip, ProtocolError> {
        let chip_id = record.chip_id;
        let previous = self.server.reenroll_chip(record)?;
        self.states.entry(chip_id).or_default().reenrolled();
        puf_telemetry::counter!("protocol.session.reenrolls").inc();
        Ok(previous)
    }

    /// Runs one full authentication session: up to `1 + max_retries`
    /// attempts, each over fresh predicted-stable challenges, with lockout
    /// and degraded-fallback bookkeeping. See the module docs for the state
    /// machine.
    ///
    /// # Errors
    ///
    /// - [`ProtocolError::ChipLockedOut`] if the chip is locked out on
    ///   entry (no challenges are exposed to a locked-out requester).
    /// - [`ProtocolError::UnknownChip`] /
    ///   [`ProtocolError::ChallengeSelectionExhausted`] from challenge
    ///   selection.
    /// - Non-transient responder errors (e.g. a stage mismatch) propagate;
    ///   transient measurement glitches are treated as transport failures
    ///   and retried.
    pub fn authenticate<R, C, Ch>(
        &mut self,
        chip_id: u32,
        client: &mut C,
        channel: &mut Ch,
        rng: &mut R,
    ) -> Result<SessionReport, ProtocolError>
    where
        R: Rng + ?Sized,
        C: Responder,
        Ch: Channel,
    {
        self.authenticate_with_source(chip_id, client, channel, &mut ServerSource, rng)
    }

    /// [`SessionManager::authenticate`] drawing challenges through an
    /// explicit [`ChallengeSource`] instead of the server's random search.
    /// The state machine — retries, backoff bookkeeping, lockout, degraded
    /// fallback — is identical; only the challenge supply differs. The
    /// batched-service equivalence harness uses this to replay the exact
    /// challenge-universe pool the event loop selects from.
    ///
    /// # Errors
    ///
    /// As [`SessionManager::authenticate`].
    pub fn authenticate_with_source<R, C, Ch, S>(
        &mut self,
        chip_id: u32,
        client: &mut C,
        channel: &mut Ch,
        source: &mut S,
        rng: &mut R,
    ) -> Result<SessionReport, ProtocolError>
    where
        R: Rng + ?Sized,
        C: Responder,
        Ch: Channel,
        S: ChallengeSource,
    {
        let mut machine = SessionMachine::default();
        machine.start(chip_id, self.states.entry(chip_id).or_default())?;
        let _span = puf_telemetry::span!("protocol.session.duration");
        let _trace = puf_telemetry::trace_span!("protocol.session.authenticate");
        // Reuse the manager's scratch exclusion buffer: same semantics as a
        // fresh set (cleared on entry), without per-session allocation. An
        // error return drops it; the next session then starts a new one.
        let mut exclude = std::mem::take(&mut self.exclusion_scratch);
        exclude.clear();
        let select_budget = self.policy.select_budget();
        let outcome = loop {
            machine.begin_attempt();
            let _attempt = puf_telemetry::trace_span!("protocol.session.attempt");
            // Fresh challenges: everything issued earlier in this session
            // is excluded, so a failed set is never re-exposed.
            let selected = source.select(
                &self.server,
                chip_id,
                self.policy.rounds,
                select_budget,
                &exclude,
                rng,
            )?;
            let fresh = selected
                .iter()
                .filter(|s| exclude.insert(s.challenge.bits()))
                .count();
            machine.issued(selected.len(), fresh);
            let challenges: Vec<Challenge> = selected.iter().map(|s| s.challenge).collect();
            let step = match exchange(client, channel, &challenges)? {
                Ok(bits) => {
                    let mismatches = selected
                        .iter()
                        .zip(&bits)
                        .filter(|(s, &r)| s.expected != r)
                        .count();
                    let chip = self.states.entry(chip_id).or_default();
                    machine.delivered(&self.policy, chip, bits.len(), mismatches)?
                }
                Err(kind) => machine.transport_failed(&self.policy, kind)?,
            };
            if let Step::Done(outcome) = step {
                break outcome;
            }
        };
        self.exclusion_scratch = exclude;
        Ok(machine.finish(outcome, self.states.entry(chip_id).or_default()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::{ChipResponder, RandomResponder};
    use crate::enrollment::{enroll, EnrollmentConfig};
    use puf_core::Condition;
    use puf_silicon::{Chip, ChipConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(seed: u64) -> (Chip, Server, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let chip = Chip::fabricate(3, &ChipConfig::small(), &mut rng);
        let enrolled = enroll(&chip, &EnrollmentConfig::small(2), &mut rng).unwrap();
        let mut server = Server::new();
        server.register(enrolled);
        (chip, server, rng)
    }

    #[test]
    fn policy_presets_validate() {
        assert!(SessionPolicy::strict(20).validate().is_ok());
        assert!(SessionPolicy::resilient(20).validate().is_ok());
        assert!(SessionPolicy::degraded(20, 0.1).validate().is_ok());
        assert!(matches!(
            SessionPolicy::strict(0).validate(),
            Err(ProtocolError::InvalidPolicy { .. })
        ));
        assert!(matches!(
            SessionPolicy::degraded(20, 1.5).validate(),
            Err(ProtocolError::InvalidPolicy { .. })
        ));
        let bad = SessionPolicy {
            lockout_threshold: 0,
            ..SessionPolicy::strict(20)
        };
        assert!(bad.validate().is_err());
        let bad = SessionPolicy {
            backoff_base_ticks: 100,
            backoff_cap_ticks: 10,
            ..SessionPolicy::strict(20)
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = SessionPolicy {
            backoff_base_ticks: 2,
            backoff_cap_ticks: 10,
            ..SessionPolicy::resilient(20)
        };
        assert_eq!(policy.backoff_ticks(1), 2);
        assert_eq!(policy.backoff_ticks(2), 4);
        assert_eq!(policy.backoff_ticks(3), 8);
        assert_eq!(policy.backoff_ticks(4), 10);
        assert_eq!(policy.backoff_ticks(200), 10, "shift must clamp, not UB");
    }

    #[test]
    fn genuine_chip_accepts_cleanly() {
        let (chip, server, mut rng) = setup(1);
        let mut mgr = SessionManager::new(server, SessionPolicy::resilient(20)).unwrap();
        let mut client = ChipResponder::new(&chip, 2, Condition::NOMINAL, 5);
        let report = mgr
            .authenticate(3, &mut client, &mut PerfectChannel, &mut rng)
            .unwrap();
        assert_eq!(report.outcome, SessionOutcome::Accepted);
        assert!(report.outcome.grants_access());
        assert!(!report.needs_reenrollment);
        assert_eq!(report.attempts, 1);
        assert_eq!(report.backoff_ticks_total, 0);
        assert_eq!(mgr.state(3).unwrap().consecutive_failures, 0);
        assert_eq!(mgr.state(3).unwrap().clean_accepts, 1);
    }

    #[test]
    fn impostor_locks_out_and_stays_locked() {
        let (_, server, mut rng) = setup(2);
        let policy = SessionPolicy {
            lockout_threshold: 4,
            ..SessionPolicy::resilient(10)
        };
        let mut mgr = SessionManager::new(server, policy).unwrap();
        let mut impostor = RandomResponder::new(9);
        let report = mgr
            .authenticate(3, &mut impostor, &mut PerfectChannel, &mut rng)
            .unwrap();
        // 4 attempts, each a verification failure: locked out in-session.
        assert_eq!(report.outcome, SessionOutcome::LockedOut);
        assert!(!report.outcome.grants_access());
        assert!(mgr.is_locked_out(3));
        // A locked-out chip gets no challenges at all.
        assert!(matches!(
            mgr.authenticate(3, &mut impostor, &mut PerfectChannel, &mut rng),
            Err(ProtocolError::ChipLockedOut { chip_id: 3, .. })
        ));
        // Reinstatement is the only way back.
        mgr.reinstate(3);
        assert!(!mgr.is_locked_out(3));
        assert_eq!(mgr.state(3).unwrap().consecutive_failures, 0);
    }

    #[test]
    fn failure_counter_is_monotone_across_sessions() {
        let (_, server, mut rng) = setup(3);
        let policy = SessionPolicy {
            max_retries: 1,
            lockout_threshold: 10,
            ..SessionPolicy::resilient(10)
        };
        let mut mgr = SessionManager::new(server, policy).unwrap();
        let mut impostor = RandomResponder::new(10);
        let mut last = 0;
        for _ in 0..3 {
            let report = mgr
                .authenticate(3, &mut impostor, &mut PerfectChannel, &mut rng)
                .unwrap();
            assert_eq!(report.outcome, SessionOutcome::Rejected);
            let now = mgr.state(3).unwrap().consecutive_failures;
            assert!(now > last, "failed retries must never reset the counter");
            last = now;
        }
        assert_eq!(last, 6, "2 verification failures per session × 3");
    }

    #[test]
    fn retries_draw_fresh_challenges() {
        let (_, server, mut rng) = setup(4);
        let policy = SessionPolicy {
            max_retries: 3,
            lockout_threshold: 100,
            ..SessionPolicy::resilient(15)
        };
        let mut mgr = SessionManager::new(server, policy).unwrap();
        let mut impostor = RandomResponder::new(11);
        let report = mgr
            .authenticate(3, &mut impostor, &mut PerfectChannel, &mut rng)
            .unwrap();
        assert_eq!(report.attempts, 4);
        // 4 attempts × 15 rounds; sets across attempts are disjoint by
        // construction (within one round the server may rarely re-draw).
        assert!(report.challenges_issued > 45);
        assert_eq!(report.backoff_ticks_total, 1 + 2 + 4);
    }

    #[test]
    fn dropped_messages_consume_retries_without_lockout_progress() {
        struct DropAll;
        impl Channel for DropAll {
            fn transmit(&mut self, _: Vec<bool>) -> Delivery {
                Delivery::Dropped
            }
        }
        let (chip, server, mut rng) = setup(5);
        let policy = SessionPolicy {
            max_retries: 2,
            ..SessionPolicy::resilient(10)
        };
        let mut mgr = SessionManager::new(server, policy).unwrap();
        let mut client = ChipResponder::new(&chip, 2, Condition::NOMINAL, 6);
        let report = mgr
            .authenticate(3, &mut client, &mut DropAll, &mut rng)
            .unwrap();
        assert_eq!(report.outcome, SessionOutcome::Rejected);
        assert_eq!(report.attempts, 3);
        assert!(report.last_verification.is_none());
        // Transport failures are not evidence of an impostor.
        assert_eq!(mgr.state(3).unwrap().consecutive_failures, 0);
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e, SessionEvent::TransportFailed { .. })));
    }

    #[test]
    fn frame_mismatch_is_a_transport_failure() {
        struct Truncating;
        impl Channel for Truncating {
            fn transmit(&mut self, mut r: Vec<bool>) -> Delivery {
                r.pop();
                Delivery::Delivered(r)
            }
        }
        let (chip, server, mut rng) = setup(6);
        let mut mgr = SessionManager::new(
            server,
            SessionPolicy {
                max_retries: 1,
                ..SessionPolicy::resilient(10)
            },
        )
        .unwrap();
        let mut client = ChipResponder::new(&chip, 2, Condition::NOMINAL, 7);
        let report = mgr
            .authenticate(3, &mut client, &mut Truncating, &mut rng)
            .unwrap();
        assert_eq!(report.outcome, SessionOutcome::Rejected);
        assert!(report.events.iter().any(|e| matches!(
            e,
            SessionEvent::TransportFailed {
                kind: TransportFailureKind::FrameMismatch,
                ..
            }
        )));
    }

    #[test]
    fn degraded_fallback_flags_reenrollment() {
        // An impostor that mirrors the chip but flips a small fraction of
        // bits: fails zero-HD every time, passes a loose fallback.
        struct NearMiss<'a> {
            inner: ChipResponder<'a>,
            flip_every: usize,
        }
        impl Responder for NearMiss<'_> {
            fn respond(&mut self, challenges: &[puf_core::Challenge]) -> Vec<bool> {
                let mut bits = self.inner.respond(challenges);
                for (i, b) in bits.iter_mut().enumerate() {
                    if i % self.flip_every == 0 {
                        *b = !*b;
                    }
                }
                bits
            }
        }
        let (chip, server, mut rng) = setup(7);
        let policy = SessionPolicy {
            lockout_threshold: 100,
            ..SessionPolicy::degraded(20, 0.25)
        };
        let mut mgr = SessionManager::new(server, policy).unwrap();
        let mut client = NearMiss {
            inner: ChipResponder::new(&chip, 2, Condition::NOMINAL, 8),
            flip_every: 10,
        };
        let report = mgr
            .authenticate(3, &mut client, &mut PerfectChannel, &mut rng)
            .unwrap();
        assert_eq!(report.outcome, SessionOutcome::Degraded);
        assert!(report.outcome.grants_access());
        assert!(report.needs_reenrollment);
        assert!(mgr.state(3).unwrap().needs_reenrollment);
        // Degraded accept does not clear the failure counter.
        assert!(mgr.state(3).unwrap().consecutive_failures > 0);
    }

    #[test]
    fn reenrollment_returns_degraded_chip_to_clean_accepts() {
        // A drifted responder (mirrors the chip, flips every 10th bit)
        // forces a degraded accept, which flags the chip. Re-enrolling with
        // a fresh measurement must clear the flag, reinstate the chip, and
        // let an un-drifted client authenticate cleanly again.
        struct NearMiss<'a> {
            inner: ChipResponder<'a>,
            flip_every: usize,
        }
        impl Responder for NearMiss<'_> {
            fn respond(&mut self, challenges: &[puf_core::Challenge]) -> Vec<bool> {
                let mut bits = self.inner.respond(challenges);
                for (i, b) in bits.iter_mut().enumerate() {
                    if i % self.flip_every == 0 {
                        *b = !*b;
                    }
                }
                bits
            }
        }
        let (chip, server, mut rng) = setup(11);
        let policy = SessionPolicy {
            lockout_threshold: 100,
            ..SessionPolicy::degraded(20, 0.25)
        };
        let mut mgr = SessionManager::new(server, policy).unwrap();
        let mut drifted = NearMiss {
            inner: ChipResponder::new(&chip, 2, Condition::NOMINAL, 15),
            flip_every: 10,
        };
        let report = mgr
            .authenticate(3, &mut drifted, &mut PerfectChannel, &mut rng)
            .unwrap();
        assert_eq!(report.outcome, SessionOutcome::Degraded);
        assert!(mgr.state(3).unwrap().needs_reenrollment);
        assert!(mgr.state(3).unwrap().consecutive_failures > 0);

        // Close the loop: a fresh measurement of the same chip.
        let fresh = enroll(&chip, &EnrollmentConfig::small(2), &mut rng).unwrap();
        let superseded = mgr.reenroll_chip(fresh).unwrap();
        assert_eq!(superseded.chip_id, 3);
        let state = mgr.state(3).unwrap();
        assert!(
            !state.needs_reenrollment,
            "re-enrollment must clear the flag"
        );
        assert!(!state.locked_out);
        assert_eq!(state.consecutive_failures, 0);

        let mut clean = ChipResponder::new(&chip, 2, Condition::NOMINAL, 16);
        let report = mgr
            .authenticate(3, &mut clean, &mut PerfectChannel, &mut rng)
            .unwrap();
        assert_eq!(report.outcome, SessionOutcome::Accepted);
        assert!(!mgr.state(3).unwrap().needs_reenrollment);

        // An unknown chip must never be enrolled through this path.
        let mut stranger = enroll(&chip, &EnrollmentConfig::small(2), &mut rng).unwrap();
        stranger.chip_id = 99;
        assert!(matches!(
            mgr.reenroll_chip(stranger),
            Err(ProtocolError::UnknownChip { chip_id: 99 })
        ));
    }

    #[test]
    fn custom_source_sees_growing_exclusions_and_shared_budget() {
        struct Counting {
            calls: usize,
            exclusion_lens: Vec<usize>,
            budgets: Vec<usize>,
        }
        impl ChallengeSource for Counting {
            fn select<R: Rng + ?Sized>(
                &mut self,
                server: &Server,
                chip_id: u32,
                count: usize,
                max_attempts: usize,
                exclude: &ExclusionSet,
                rng: &mut R,
            ) -> Result<Vec<crate::server::SelectedChallenge>, ProtocolError> {
                self.calls += 1;
                self.exclusion_lens.push(exclude.len());
                self.budgets.push(max_attempts);
                ServerSource.select(server, chip_id, count, max_attempts, exclude, rng)
            }
        }
        let (_, server, mut rng) = setup(9);
        let policy = SessionPolicy {
            max_retries: 1,
            lockout_threshold: 100,
            ..SessionPolicy::resilient(10)
        };
        let budget = policy.select_budget();
        let mut mgr = SessionManager::new(server, policy).unwrap();
        let mut impostor = RandomResponder::new(13);
        let mut source = Counting {
            calls: 0,
            exclusion_lens: Vec::new(),
            budgets: Vec::new(),
        };
        let report = mgr
            .authenticate_with_source(3, &mut impostor, &mut PerfectChannel, &mut source, &mut rng)
            .unwrap();
        assert_eq!(report.outcome, SessionOutcome::Rejected);
        assert_eq!(source.calls, 2, "one call per attempt");
        assert_eq!(
            source.exclusion_lens[0], 0,
            "session starts excluding nothing"
        );
        assert!(
            source.exclusion_lens[1] >= 10,
            "retry must exclude the first round"
        );
        assert_eq!(source.budgets, vec![budget, budget]);
    }

    #[test]
    fn scratch_reuse_keeps_sessions_independent() {
        // Three sessions through one manager: each must start from an empty
        // exclusion set (challenges_issued counts this session only) even
        // though the scratch buffer is recycled.
        let (chip, server, mut rng) = setup(10);
        let mut mgr = SessionManager::new(server, SessionPolicy::resilient(12)).unwrap();
        let mut client = ChipResponder::new(&chip, 2, Condition::NOMINAL, 14);
        for _ in 0..3 {
            let report = mgr
                .authenticate(3, &mut client, &mut PerfectChannel, &mut rng)
                .unwrap();
            assert_eq!(report.outcome, SessionOutcome::Accepted);
            assert_eq!(report.challenges_issued, 12);
        }
    }

    #[test]
    fn unknown_chip_propagates() {
        let (_, server, mut rng) = setup(8);
        let mut mgr = SessionManager::new(server, SessionPolicy::resilient(10)).unwrap();
        let mut client = RandomResponder::new(12);
        assert!(matches!(
            mgr.authenticate(99, &mut client, &mut PerfectChannel, &mut rng),
            Err(ProtocolError::UnknownChip { chip_id: 99 })
        ));
    }

    /// One operation of the model-check harness.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        /// Start a session (if none is running) and begin its first
        /// attempt, recording `fresh` newly issued challenges.
        Start { fresh: usize },
        /// The running attempt's exchange: a delivered frame with this
        /// many mismatches, or a transport failure.
        Exchange(Result<usize, TransportFailureKind>),
        /// Administrative reinstatement.
        Reinstate,
        /// Re-enrollment (only between sessions, as both drivers require).
        Reenroll,
    }

    fn arb_policy() -> impl proptest::strategy::Strategy<Value = SessionPolicy> {
        use proptest::prelude::*;
        const BASES: [u64; 5] = [0, 1, 3, u64::MAX / 2, u64::MAX];
        const FRACTIONS: [f64; 3] = [0.0, 0.25, 0.5];
        (
            (1usize..6, 0u32..4, 0usize..5, 0u64..8),
            (1u32..6, 0usize..4, 0usize..4),
        )
            .prop_map(
                |((rounds, max_retries, base, extra), (threshold, primary, fallback))| {
                    let backoff_base_ticks = BASES[base];
                    SessionPolicy {
                        rounds,
                        max_retries,
                        backoff_base_ticks,
                        backoff_cap_ticks: backoff_base_ticks.saturating_add(extra),
                        lockout_threshold: threshold,
                        primary: match primary {
                            0 => AuthPolicy::ZeroHammingDistance,
                            i => AuthPolicy::MaxHammingFraction(FRACTIONS[i - 1]),
                        },
                        fallback: match fallback {
                            0 => None,
                            i => Some(AuthPolicy::MaxHammingFraction(FRACTIONS[i - 1])),
                        },
                    }
                },
            )
    }

    fn arb_ops() -> impl proptest::strategy::Strategy<Value = Vec<Op>> {
        use proptest::prelude::*;
        const KINDS: [TransportFailureKind; 4] = [
            TransportFailureKind::Dropped,
            TransportFailureKind::Straggled,
            TransportFailureKind::FrameMismatch,
            TransportFailureKind::MeasurementGlitch,
        ];
        proptest::collection::vec(
            (0u8..10, any::<u8>()).prop_map(|(op, arg)| match op {
                0 | 1 => Op::Start {
                    fresh: usize::from(arg % 8),
                },
                2..=4 => Op::Exchange(Ok(usize::from(arg))),
                5 | 6 => Op::Exchange(Err(KINDS[usize::from(arg % 4)])),
                7 => Op::Reinstate,
                _ => Op::Reenroll,
            }),
            0..80,
        )
    }

    /// Whether `mismatches` of `total` pass `policy`, written out plainly.
    fn reference_accepts(policy: AuthPolicy, total: usize, mismatches: usize) -> bool {
        if let AuthPolicy::MaxHammingFraction(bound) = policy {
            mismatches as f64 / total as f64 <= bound
        } else {
            mismatches == 0
        }
    }

    /// The reference's view of a running session.
    struct Running {
        machine: SessionMachine,
        attempt: u32,
        issued: usize,
        backoff: u64,
        last: Option<(usize, usize)>,
    }

    /// `base · 2^(attempt−1)`, saturating, capped — by repeated doubling.
    fn reference_backoff(policy: &SessionPolicy, attempt: u32) -> u64 {
        let mut ticks = policy.backoff_base_ticks;
        for _ in 1..attempt {
            ticks = ticks.saturating_mul(2);
        }
        ticks.min(policy.backoff_cap_ticks)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Drives the machine directly with random policies and random
        /// start / exchange / reinstate / re-enroll sequences, against a
        /// naive reference of the ladder rules.
        #[test]
        fn prop_machine_matches_naive_reference(policy in arb_policy(), ops in arb_ops()) {
            let rounds = policy.rounds;
            let mut chip = ChipSessionState::default();
            let mut want = ChipSessionState::default();
            let mut running: Option<Running> = None;
            for op in ops {
                let before = chip;
                let mut accepted = false;
                match op {
                    Op::Start { fresh } if running.is_none() => {
                        let mut machine = SessionMachine::default();
                        let started = machine.start(7, &mut chip);
                        if want.locked_out {
                            assert!(matches!(
                                started,
                                Err(ProtocolError::ChipLockedOut { chip_id: 7, .. })
                            ));
                        } else {
                            assert!(started.is_ok());
                            want.sessions += 1;
                            machine.begin_attempt();
                            let fresh = fresh.min(rounds);
                            machine.issued(rounds, fresh);
                            running = Some(Running { machine, attempt: 1, issued: fresh, backoff: 0, last: None });
                        }
                    }
                    Op::Exchange(exchanged) if running.is_some() => {
                        let Some(mut r) = running.take() else { continue };
                        // The reference's verdict: `None` while the attempt
                        // failed without ending the session.
                        let mut want_outcome = None;
                        let step = match exchanged {
                            Ok(mismatches) => {
                                let mismatches = mismatches % (rounds + 1);
                                r.last = Some((rounds, mismatches));
                                if reference_accepts(policy.primary, rounds, mismatches) {
                                    want_outcome = Some(SessionOutcome::Accepted);
                                } else {
                                    want.consecutive_failures =
                                        want.consecutive_failures.saturating_add(1);
                                    if want.consecutive_failures >= policy.lockout_threshold {
                                        want.locked_out = true;
                                        want_outcome = Some(SessionOutcome::LockedOut);
                                    }
                                }
                                r.machine.delivered(&policy, &mut chip, rounds, mismatches).unwrap()
                            }
                            Err(kind) => r.machine.transport_failed(&policy, kind).unwrap(),
                        };
                        let mut want_retry = None;
                        if want_outcome.is_none() {
                            if r.attempt > policy.max_retries {
                                want_outcome = Some(match (policy.fallback, r.last) {
                                    (Some(fallback), Some((total, m)))
                                        if reference_accepts(fallback, total, m) =>
                                    {
                                        SessionOutcome::Degraded
                                    }
                                    _ => SessionOutcome::Rejected,
                                });
                            } else {
                                let ticks = reference_backoff(&policy, r.attempt);
                                r.backoff = r.backoff.saturating_add(ticks);
                                want_retry = Some(ticks);
                            }
                        }
                        match step {
                            Step::Retry(after) => {
                                assert_eq!((Some(after), None), (want_retry, want_outcome));
                                r.machine.begin_attempt();
                                r.machine.issued(rounds, rounds);
                                r.attempt += 1;
                                r.issued += rounds;
                                running = Some(r);
                            }
                            Step::Done(outcome) => {
                                assert_eq!(Some(outcome), want_outcome);
                                assert!(
                                    !(outcome.grants_access() && chip.locked_out),
                                    "a locked chip was granted access"
                                );
                                match outcome {
                                    SessionOutcome::Accepted => {
                                        want.consecutive_failures = 0;
                                        want.clean_accepts += 1;
                                        accepted = true;
                                    }
                                    SessionOutcome::Degraded => want.needs_reenrollment = true,
                                    _ => {}
                                }
                                let report = r.machine.finish(outcome, &mut chip);
                                assert_eq!(report.outcome, outcome);
                                assert_eq!(report.attempts, r.attempt);
                                assert!(report.attempts <= policy.max_retries + 1);
                                assert_eq!(report.challenges_issued, r.issued);
                                let scheduled = report.events.iter().fold(0u64, |sum, e| match e {
                                    SessionEvent::BackoffScheduled { ticks, .. } => {
                                        sum.saturating_add(*ticks)
                                    }
                                    _ => sum,
                                });
                                assert_eq!(report.backoff_ticks_total, scheduled);
                                assert_eq!(report.backoff_ticks_total, r.backoff);
                                assert_eq!(report.needs_reenrollment, want.needs_reenrollment);
                                let judged = report
                                    .last_verification
                                    .map(|v| (v.challenges_used, v.mismatches));
                                assert_eq!(judged, r.last);
                            }
                        }
                    }
                    Op::Reinstate => {
                        chip.reinstate();
                        want.locked_out = false;
                        want.consecutive_failures = 0;
                    }
                    Op::Reenroll if running.is_none() => {
                        chip.reenrolled();
                        want.locked_out = false;
                        want.consecutive_failures = 0;
                        want.needs_reenrollment = false;
                    }
                    // Start mid-session, an exchange with no session, or a
                    // re-enrollment mid-session: no driver issues these.
                    _ => continue,
                }
                assert_eq!(chip, want, "after {op:?}");
                let cleared = matches!(op, Op::Reinstate | Op::Reenroll);
                if before.locked_out && !cleared {
                    assert!(chip.locked_out, "lockout lifted by {op:?}");
                }
                if chip.consecutive_failures < before.consecutive_failures {
                    assert!(cleared || accepted, "failures reset by {op:?}");
                }
                if let Some(r) = &running {
                    assert_eq!(r.machine.attempt, r.attempt);
                    assert!(r.machine.attempt <= policy.max_retries + 1);
                    assert_eq!(r.machine.issued, r.issued);
                }
            }
        }
    }
}
