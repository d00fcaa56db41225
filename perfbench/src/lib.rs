//! The repository benchmark: one command, three workloads, every
//! end-to-end metric by name and unit after the outputs are checked, and a
//! traced mode that times each layer from spans recorded in these files
//! around calls into the crates' public APIs. README.md describes the
//! workloads, the metrics and what each layer should move.

pub mod fleet;
pub mod paper;
pub mod provenance;
pub mod report;
pub mod spans;
pub mod stats;

use report::Report;
use std::num::NonZeroUsize;

/// Command-line usage.
pub const USAGE: &str = "usage: perfbench --workload <paper_study|fleet_steady|fleet_churn> \
                         --seed <n> --seconds <s> --trace <0|1>";

/// Worker threads never exceed this, nor the machine's cores. On the
/// 2-vCPU reference host a second worker doubled the run-to-run spread of
/// every time metric (the second vCPU is shared with the OS and other
/// tenants), and a fixed count keeps the workload shape — one fleet shard
/// per worker — the same on every machine.
pub const MAX_WORKERS: usize = 1;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The researcher's replay of the paper's pipeline.
    PaperStudy,
    /// The operator's serving hot path on warm planes.
    FleetSteady,
    /// Serving beside re-enrollments, durable writes and a crash.
    FleetChurn,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::PaperStudy,
        Workload::FleetSteady,
        Workload::FleetChurn,
    ];

    /// The workload's name on the command line and in BENCHMARK.json.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperStudy => "paper_study",
            Workload::FleetSteady => "fleet_steady",
            Workload::FleetChurn => "fleet_churn",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Run size: full for measurement, smoke for tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// A seconds-long size with the same structure.
    Smoke,
}

/// One benchmark invocation.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// Which workload runs.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end
    /// ones.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload`, `--seed`, `--seconds` and `--trace`.
    ///
    /// # Errors
    ///
    /// An unknown flag or workload, a missing or malformed value.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    );
                }
                "--seed" => {
                    seed = Some(
                        value
                            .parse()
                            .map_err(|e| format!("--seed {value:?}: {e}"))?,
                    );
                }
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                    if !(s.is_finite() && s > 0.0 && s <= 120.0) {
                        return Err(format!("--seconds must lie in (0, 120], got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    };
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace,
        })
    }
}

/// Worker threads for this machine: its cores, at most [`MAX_WORKERS`].
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .min(MAX_WORKERS)
}

/// Runs one workload and returns what it measured.
pub fn run(args: &Args, scale: Scale) -> Report {
    let workers = workers();
    eprintln!(
        "provenance: {}",
        provenance::to_json(args.workload.name(), args.seed, workers)
    );
    let mut report = match args.workload {
        Workload::PaperStudy => paper::run(args, scale, workers),
        Workload::FleetSteady => fleet::run(args, scale, workers, fleet::Mode::Steady),
        Workload::FleetChurn => fleet::run(args, scale, workers, fleet::Mode::Churn),
    };
    if let Some(mb) = report::peak_rss_mb() {
        report.set("peak_rss_mb", mb);
    }
    if let Some(digest) = report.digest {
        eprintln!("verdict digest: {digest:016x}");
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_invocation() {
        let args = parse(&[
            "--workload",
            "fleet_churn",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            args,
            Args {
                workload: Workload::FleetChurn,
                seed: 42,
                seconds: 10.0,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_malformed_invocations() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nope", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(parse(&["--workload", "paper_study", "--seed", "x", "--seconds", "1"]).is_err());
        assert!(parse(&["--workload", "paper_study", "--seed", "1", "--seconds", "0"]).is_err());
        assert!(parse(&[
            "--workload",
            "paper_study",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(parse(&["--workload", "paper_study", "--seed", "1", "--seconds"]).is_err());
        assert!(parse(&["--bogus", "1"]).is_err());
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }
}
