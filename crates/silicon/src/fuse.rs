//! One-time-access fuse semantics.
//!
//! The proposed design (paper Fig. 5) routes each individual PUF's response
//! through a fuse so that an authorised tester can collect soft responses
//! during enrollment; after enrollment the fuses are blown with a high
//! current and only the XOR of all responses remains observable. This is
//! what denies a modeling attacker the per-PUF training data that makes a
//! single arbiter PUF trivially learnable.

use std::fmt;

/// What a (possibly glitching) read of the fuse sense path reports.
///
/// The enrollment tester senses the fuse state before every individual-PUF
/// measurement; a marginal sense amplifier can transiently return an
/// indeterminate level — neither reliably intact nor reliably blown — in
/// which case the measurement must be retried rather than trusted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FuseSense {
    /// The fuses read intact: individual PUF outputs are accessible.
    Intact,
    /// The fuses read blown: only the XOR output is accessible.
    Blown,
    /// The sense path glitched; the true state was not observable.
    Indeterminate,
}

/// A bank of fuses guarding individual PUF outputs.
///
/// Starts intact; [`FuseBank::blow`] is irreversible. The chip consults the
/// bank before serving any individual-response measurement.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct FuseBank {
    blown: bool,
    blow_count: u32,
}

impl FuseBank {
    /// A fresh, intact fuse bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether individual PUF outputs are still accessible.
    pub fn is_intact(&self) -> bool {
        !self.blown
    }

    /// Whether the fuses have been blown.
    pub fn is_blown(&self) -> bool {
        self.blown
    }

    /// Blows the fuses (applying "a high current or voltage" in the paper's
    /// words). Idempotent: blowing twice is allowed and keeps them blown.
    pub fn blow(&mut self) {
        self.blown = true;
        self.blow_count = self.blow_count.saturating_add(1);
    }

    /// How many times `blow` has been called (diagnostics only; any count
    /// ≥ 1 means blown).
    pub fn blow_count(&self) -> u32 {
        self.blow_count
    }

    /// Reads the fuse state through the sense path. `glitch` models one
    /// transient sense failure (drawn by the caller's seeded fault plan):
    /// when set, the read returns [`FuseSense::Indeterminate`] instead of
    /// the true state, and the caller must retry. The fuse state itself is
    /// never altered by a glitched read.
    pub fn sense(&self, glitch: bool) -> FuseSense {
        if glitch {
            puf_telemetry::counter!("faults.fuse.glitches").inc();
            return FuseSense::Indeterminate;
        }
        if self.blown {
            FuseSense::Blown
        } else {
            FuseSense::Intact
        }
    }
}

impl fmt::Display for FuseBank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fuses: {}", if self.blown { "blown" } else { "intact" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_bank_is_intact() {
        let bank = FuseBank::new();
        assert!(bank.is_intact());
        assert!(!bank.is_blown());
        assert_eq!(bank.blow_count(), 0);
    }

    #[test]
    fn blow_is_irreversible_and_idempotent() {
        let mut bank = FuseBank::new();
        bank.blow();
        assert!(bank.is_blown());
        bank.blow();
        assert!(bank.is_blown());
        assert_eq!(bank.blow_count(), 2);
    }

    #[test]
    fn sense_reports_state_and_glitches_transiently() {
        let mut bank = FuseBank::new();
        assert_eq!(bank.sense(false), FuseSense::Intact);
        assert_eq!(bank.sense(true), FuseSense::Indeterminate);
        // A glitched read does not disturb the stored state.
        assert_eq!(bank.sense(false), FuseSense::Intact);
        bank.blow();
        assert_eq!(bank.sense(false), FuseSense::Blown);
        assert_eq!(bank.sense(true), FuseSense::Indeterminate);
        assert!(bank.is_blown());
    }

    #[test]
    fn display_reflects_state() {
        let mut bank = FuseBank::new();
        assert!(bank.to_string().contains("intact"));
        bank.blow();
        assert!(bank.to_string().contains("blown"));
    }
}
