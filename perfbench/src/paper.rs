//! paper_study: the researcher's replay of the paper's pipeline on a small
//! lot of paper-geometry chips ([`ChipConfig::paper_default`]: 32 stages,
//! XOR width 10).
//!
//! 1. **Campaign**, timed for the run's seconds: sharded random challenges
//!    → [`FeatureMatrix::from_challenges`] →
//!    [`Chip::measure_xor_soft_batch`] at 100 000 evaluations (the counter
//!    shortcut) on every chip of the lot, shards spread over the workers.
//!    One request is one shard: its features, then every chip measured.
//! 2. **Enrollment** of every chip with V/T validation at the nine corners,
//!    one pass after each equal segment of the campaign, then
//!    model-assisted [`Server::select_challenges`].
//! 3. **Attack**: the paper's 35-25-25 MLP trained by L-BFGS with a fixed
//!    iteration cap on stable CRPs of a 2-XOR.
//!
//! The core, silicon and ML layers do all the work; the service and the
//! durable log do none.

use crate::report::Report;
use crate::spans::{self, layer};
use crate::stats;
use crate::{Args, Scale};
use puf_core::challenge::random_challenges;
use puf_core::{Challenge, Condition, FeatureMatrix, PAPER_STAGES};
use puf_ml::features::{design_matrix, encode_bits};
use puf_ml::{LinearRegression, Matrix, Mlp, MlpConfig};
use puf_protocol::{
    enroll, service_lane, ChipResponder, EnrolledChip, EnrollmentConfig, ProtocolError,
    RandomResponder, Responder, SelectedChallenge, Server,
};
use puf_silicon::{counter, testbench, Chip, ChipConfig, ChipLot, SoftResponse};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// XOR width of the campaign and of enrollment.
const XOR_N: usize = 10;
/// Counter evaluations per soft response, as on the paper's chips.
const EVALS: u64 = 100_000;
/// XOR width the MLP attacks: wide XORs resist any budget a run can afford.
const ATTACK_N: usize = 2;

/// Independent rng streams of one run, each split further by an index.
#[derive(Clone, Copy)]
enum Stream {
    Lot = 1,
    Attack,
    Shard,
    Measure,
    Enroll,
    Select,
    Respond,
    Probe,
}

fn stream(seed: u64, stream: Stream, index: u64) -> StdRng {
    StdRng::seed_from_u64(service_lane(service_lane(seed, stream as u64), index))
}

/// Sizes of one paper_study run.
#[derive(Clone, Debug)]
pub struct PaperScale {
    /// Chips in the lot (the paper measured 10).
    pub chips: usize,
    /// Challenges per campaign shard.
    pub shard: usize,
    /// Enrollment protocol.
    pub enroll: EnrollmentConfig,
    /// Challenges selected per enrolled chip.
    pub select: usize,
    /// Challenges measured for the attack's stable CRPs.
    pub attack_pool: usize,
    /// L-BFGS iteration cap of the attack.
    pub attack_iterations: usize,
    /// Lowest MLP test accuracy the attack must reach.
    pub attack_floor: f64,
    /// Band the campaign's xor10 stable fraction must fall in. The
    /// committed 10¹²-measurement replay measured 0.112 on its lot; the
    /// band allows for lot-to-lot spread.
    pub stable_band: (f64, f64),
    /// Times the lot is enrolled; `enroll_chips_per_s` is the inverse of
    /// the median over chips of each chip's fastest enrollment.
    pub enroll_passes: usize,
    /// Set-ups timed after each enrollment pass, besides the one that
    /// builds the lab; `setup_s` is the fast tenth of them all.
    pub setups: usize,
    /// Shards timed through the silicon split probe of a traced run.
    pub probe_shards: u64,
}

impl PaperScale {
    /// The measured size.
    pub fn full() -> Self {
        Self {
            chips: 10,
            shard: 2_048,
            enroll: EnrollmentConfig::paper_all_conditions(XOR_N),
            select: 16,
            attack_pool: 50_000,
            attack_iterations: 100,
            attack_floor: 0.85,
            stable_band: (0.08, 0.145),
            enroll_passes: 16,
            setups: 2,
            probe_shards: 16,
        }
    }

    /// A seconds-long size for tests.
    pub fn smoke() -> Self {
        Self {
            chips: 2,
            shard: 256,
            enroll: EnrollmentConfig {
                training_size: 1_000,
                validation_size: 500,
                ..EnrollmentConfig::paper_all_conditions(XOR_N)
            },
            select: 4,
            attack_pool: 2_000,
            attack_iterations: 20,
            attack_floor: 0.6,
            stable_band: (0.02, 0.3),
            enroll_passes: 1,
            setups: 1,
            probe_shards: 2,
        }
    }
}

/// What set-up prepares: the lot and the attack's data set.
struct Lab {
    lot: ChipLot,
    x_train: Matrix,
    y_train: Vec<f64>,
    x_test: Matrix,
    y_test: Vec<bool>,
}

fn setup(seed: u64, scale: &PaperScale) -> Result<Lab, String> {
    let lot = ChipLot::fabricate(
        scale.chips,
        &ChipConfig::paper_default(),
        service_lane(seed, Stream::Lot as u64),
    );
    let mut rng = stream(seed, Stream::Attack, 0);
    let pool = random_challenges(PAPER_STAGES, scale.attack_pool, &mut rng);
    let crps = testbench::collect_stable_xor_crps(
        &lot.chips()[0],
        ATTACK_N,
        &pool,
        Condition::NOMINAL,
        EVALS,
        &mut rng,
    )
    .map_err(|e| format!("collecting the attack's CRPs: {e}"))?;
    let (train, test) = crps.split_at_fraction(0.8);
    Ok(Lab {
        x_train: design_matrix(train.challenges()),
        y_train: encode_bits(train.responses()),
        x_test: design_matrix(test.challenges()),
        y_test: test.responses().to_vec(),
        lot,
    })
}

/// What one campaign window measured.
#[derive(Clone, Debug, Default)]
struct Campaign {
    requests: u64,
    failed: u64,
    crps: u64,
    stable: u64,
    rows: u64,
    /// (seconds into the window, milliseconds) per finished request.
    latencies_ms: Vec<(f64, f64)>,
    /// CRPs per second of each finished request.
    request_rates: Vec<f64>,
    wall_s: f64,
}

impl Campaign {
    /// Appends `other`, a window that followed this one.
    fn absorb(&mut self, other: Campaign) {
        let offset = self.wall_s;
        self.requests += other.requests;
        self.failed += other.failed;
        self.crps += other.crps;
        self.stable += other.stable;
        self.rows += other.rows;
        self.latencies_ms.extend(
            other
                .latencies_ms
                .into_iter()
                .map(|(at, ms)| (at + offset, ms)),
        );
        self.request_rates.extend(other.request_rates);
        self.wall_s += other.wall_s;
    }

    fn throughput(&self) -> f64 {
        stats::fast_rate(&self.request_rates).unwrap_or(0.0)
    }
}

/// One worker's share of a campaign window: shards pulled from `next`
/// until the deadline.
fn measure_shards(
    lot: &ChipLot,
    seed: u64,
    shard_len: usize,
    next: &AtomicU64,
    origin: Instant,
    deadline: Instant,
) -> Campaign {
    let mut part = Campaign::default();
    let chips = lot.len() as u64;
    while Instant::now() < deadline {
        let shard = next.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let features = layer("pb.core.challenge.features", || {
            let mut rng = stream(seed, Stream::Shard, shard);
            FeatureMatrix::from_challenges(&random_challenges(PAPER_STAGES, shard_len, &mut rng))
        });
        let Ok(features) = features else {
            part.failed += 1;
            continue;
        };
        part.rows += features.len() as u64;
        let mut crps = 0;
        for chip in lot.chips() {
            let mut rng = stream(seed, Stream::Measure, shard * chips + u64::from(chip.id()));
            let softs = layer("pb.silicon.chip.measure", || {
                chip.measure_xor_soft_batch(XOR_N, &features, Condition::NOMINAL, EVALS, &mut rng)
            });
            match softs {
                Ok(softs) => {
                    crps += softs.len() as u64;
                    part.stable += softs.iter().filter(|s| s.is_stable()).count() as u64;
                }
                Err(_) => part.failed += 1,
            }
        }
        let at = origin.elapsed().as_secs_f64();
        let took = started.elapsed().as_secs_f64();
        part.latencies_ms.push((at, took * 1e3));
        part.request_rates.push(crps as f64 / took);
        part.crps += crps;
        part.requests += 1;
    }
    part
}

/// Measures shards on `workers` threads for `seconds`.
fn campaign(
    lab: &Lab,
    seed: u64,
    scale: &PaperScale,
    workers: usize,
    next: &AtomicU64,
    seconds: f64,
) -> Campaign {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let parts: Vec<Campaign> = layer("pb.section.campaign", || {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| measure_shards(&lab.lot, seed, scale.shard, next, started, deadline))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a campaign worker panicked"))
                .collect()
        })
    });
    let mut total = Campaign::default();
    for part in parts {
        total.absorb(part);
    }
    total.wall_s = started.elapsed().as_secs_f64();
    total
}

/// What enrolling the lot measured, pass after pass.
#[derive(Default)]
struct Enrollment {
    records: Vec<EnrolledChip>,
    /// Seconds per chip enrollment, pass-major.
    times: Vec<f64>,
    /// Chips enrolled at nominal only.
    fallbacks: usize,
}

impl Enrollment {
    /// Enrolls every chip of the lot once more.
    ///
    /// A chip whose β fit finds no tightening that filters its V/T
    /// validation set (a few chips per hundred) falls back to the lot's
    /// nominal-condition protocol, as a test engineer would.
    fn pass(&mut self, lot: &ChipLot, scale: &PaperScale, seed: u64) -> Result<(), String> {
        let chips = lot.chips();
        let nominal = EnrollmentConfig {
            validation_conditions: vec![Condition::NOMINAL],
            ..scale.enroll.clone()
        };
        let pass = self.times.len() / chips.len();
        self.records = layer("pb.section.enroll", || {
            chips
                .iter()
                .map(|chip| {
                    let index = (pass * chips.len()) as u64 + u64::from(chip.id());
                    let mut rng = stream(seed, Stream::Enroll, index);
                    let started = Instant::now();
                    let record = layer("pb.protocol.enrollment.enroll", || {
                        enroll(chip, &scale.enroll, &mut rng).or_else(|e| match e {
                            ProtocolError::BetaFitFailed { .. } => {
                                self.fallbacks += 1;
                                enroll(chip, &nominal, &mut rng)
                            }
                            e => Err(e),
                        })
                    });
                    self.times.push(started.elapsed().as_secs_f64());
                    record
                })
                .collect::<Result<Vec<EnrolledChip>, _>>()
        })
        .map_err(|e| format!("enrollment: {e}"))?;
        Ok(())
    }

    /// Seconds to enroll one chip: interference only ever slows an
    /// enrollment, so each chip's fastest pass is its undisturbed time;
    /// chips differ, so the lot's is their median.
    fn chip_s(&self, chips: usize) -> f64 {
        let fastest: Vec<f64> = (0..chips)
            .map(|c| {
                self.times
                    .iter()
                    .skip(c)
                    .step_by(chips)
                    .copied()
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        stats::median(&fastest).unwrap_or(0.0)
    }
}

/// The checks on the selected challenges: the genuine chip answers every
/// one as predicted (zero Hamming distance), while a random impostor and a
/// different chip of the lot are rejected.
fn check_selections(
    lot: &ChipLot,
    selections: &[Vec<SelectedChallenge>],
    seed: u64,
    report: &mut Report,
) {
    let chips = lot.chips();
    for (i, (chip, selected)) in chips.iter().zip(selections).enumerate() {
        let challenges: Vec<Challenge> = selected.iter().map(|s| s.challenge).collect();
        let mismatches = |answers: Vec<bool>| {
            answers
                .iter()
                .zip(selected)
                .filter(|(&bit, s)| bit != s.expected)
                .count()
        };
        let lane = service_lane(seed, Stream::Respond as u64) ^ i as u64;
        let genuine = mismatches(
            ChipResponder::new(chip, XOR_N, Condition::NOMINAL, lane).respond(&challenges),
        );
        report.check(genuine == 0, || {
            format!(
                "chip {} mismatched {genuine} of its {} selected challenges",
                chip.id(),
                challenges.len()
            )
        });
        let impostor = mismatches(RandomResponder::new(lane).respond(&challenges));
        report.check(impostor > 0, || {
            format!("a random impostor passed chip {}'s challenges", chip.id())
        });
        if chips.len() > 1 {
            let other = &chips[(i + 1) % chips.len()];
            let swapped = mismatches(
                ChipResponder::new(other, XOR_N, Condition::NOMINAL, lane).respond(&challenges),
            );
            report.check(swapped > 0, || {
                format!("chip {} passed chip {}'s challenges", other.id(), chip.id())
            });
        }
    }
}

/// Times the two halves of a measurement request separately: the
/// per-member soft-response batches, then the counter draws over the same
/// probabilities.
fn silicon_probe(chip: &Chip, seed: u64, scale: &PaperScale) -> Result<(), String> {
    for shard in 0..scale.probe_shards {
        let mut rng = stream(seed, Stream::Probe, shard);
        let features =
            FeatureMatrix::from_challenges(&random_challenges(PAPER_STAGES, scale.shard, &mut rng))
                .map_err(|e| format!("probe features: {e}"))?;
        let probs = layer("pb.silicon.chip.soft_batch", || {
            (0..XOR_N)
                .map(|m| chip.ground_truth_soft_batch(m, &features, Condition::NOMINAL))
                .collect::<Result<Vec<Vec<f64>>, _>>()
        })
        .map_err(|e| format!("probe soft responses: {e}"))?;
        let softs: Vec<SoftResponse> = layer("pb.silicon.counter.measure", || {
            (0..features.len())
                .map(|i| {
                    let prod = probs
                        .iter()
                        .fold(1.0, |p, member| p * (1.0 - 2.0 * member[i]));
                    counter::measure((1.0 - prod) / 2.0, EVALS, &mut rng)
                })
                .collect()
        });
        std::hint::black_box(softs);
    }
    Ok(())
}

/// Times the enrollment's linear fit on one chip's training measurements,
/// one fit per member as enrollment does.
fn linreg_probe(chip: &Chip, seed: u64, scale: &PaperScale) -> Result<(), String> {
    let mut rng = stream(seed, Stream::Probe, u64::MAX);
    let challenges = random_challenges(PAPER_STAGES, scale.enroll.training_size, &mut rng);
    let features =
        FeatureMatrix::from_challenges(&challenges).map_err(|e| format!("probe features: {e}"))?;
    for member in 0..XOR_N {
        let values: Vec<f64> = chip
            .measure_individual_soft_batch(member, &features, Condition::NOMINAL, EVALS, &mut rng)
            .map_err(|e| format!("probe measurement: {e}"))?
            .iter()
            .map(SoftResponse::value)
            .collect();
        let model = layer("pb.ml.linreg.fit", || {
            LinearRegression::fit_challenges(&challenges, &values, scale.enroll.ridge)
        })
        .map_err(|e| format!("probe fit: {e}"))?;
        std::hint::black_box(model);
    }
    Ok(())
}

/// Runs paper_study.
pub fn run(args: &Args, scale: Scale, workers: usize) -> Report {
    let scale = match scale {
        Scale::Full => PaperScale::full(),
        Scale::Smoke => PaperScale::smoke(),
    };
    let mut report = Report::default();
    if let Err(e) = run_into(args, &scale, workers, &mut report) {
        report.problems.push(e);
    }
    report
}

fn run_into(
    args: &Args,
    scale: &PaperScale,
    workers: usize,
    report: &mut Report,
) -> Result<(), String> {
    let seed = args.seed;
    let mut setup_s = Vec::new();
    let mut timed_setup = || -> Result<Lab, String> {
        let started = Instant::now();
        let lab = setup(seed, scale)?;
        setup_s.push(started.elapsed().as_secs_f64());
        Ok(lab)
    };
    let lab = timed_setup()?;

    // Phases 1 and 2. The enrollment passes and the repeated set-ups are
    // spread over the measured window, after each equal segment of the
    // campaign: the host's speed switches between levels every second or
    // so, and spread samples meet its fast level in more runs than
    // back-to-back ones would. A traced run
    // first measures half its time untraced, campaign only: the ratio of
    // the two throughputs is the tracing overhead.
    let next = AtomicU64::new(0);
    let chips = lab.lot.chips();
    let mut enrollment = Enrollment::default();
    let mut interleaved = |seconds: f64| -> Result<Campaign, String> {
        let segment = seconds / scale.enroll_passes as f64;
        let mut total = Campaign::default();
        for _ in 0..scale.enroll_passes {
            total.absorb(campaign(&lab, seed, scale, workers, &next, segment));
            enrollment.pass(&lab.lot, scale, seed)?;
            for _ in 0..scale.setups {
                timed_setup()?;
            }
        }
        Ok(total)
    };
    let (untraced, traced) = if args.trace {
        let untraced = campaign(&lab, seed, scale, workers, &next, args.seconds / 2.0);
        spans::start_tracing();
        (untraced, Some(interleaved(args.seconds / 2.0)?))
    } else {
        (interleaved(args.seconds)?, None)
    };
    let enroll_s = enrollment.chip_s(chips.len());
    let mut server = Server::new();
    for record in enrollment.records {
        server.register(record);
    }
    let max_attempts = scale.select.saturating_mul(200_000).max(100_000);
    let selections = layer("pb.section.select", || {
        chips
            .iter()
            .map(|chip| {
                let mut rng = stream(seed, Stream::Select, u64::from(chip.id()));
                layer("pb.protocol.server.select", || {
                    server.select_challenges(chip.id(), scale.select, max_attempts, &mut rng)
                })
            })
            .collect::<Result<Vec<_>, _>>()
    })
    .map_err(|e| format!("challenge selection: {e}"))?;

    // Phase 3. The gradient's worker threads are the run's workers.
    let config = MlpConfig {
        max_iterations: scale.attack_iterations,
        workers,
        ..MlpConfig::paper_default()
    };
    let mut mlp = Mlp::new(
        lab.x_train.cols(),
        &config,
        &mut stream(seed, Stream::Attack, 1),
    );
    let trained = layer("pb.section.attack", || {
        layer("pb.ml.mlp.train", || {
            mlp.train(&lab.x_train, &lab.y_train, &config)
        })
    });
    let accuracy = puf_ml::accuracy(&mlp.predict(&lab.x_test), &lab.y_test);

    // Output checks.
    let fraction = untraced.stable as f64 / untraced.crps.max(1) as f64;
    let (lo, hi) = scale.stable_band;
    report.check(fraction >= lo && fraction <= hi, || {
        format!("xor{XOR_N} stable fraction {fraction:.4} outside [{lo}, {hi}]")
    });
    check_selections(&lab.lot, &selections, seed, report);
    report.check(accuracy >= scale.attack_floor, || {
        format!(
            "MLP attack accuracy {accuracy:.4} below the floor {}",
            scale.attack_floor
        )
    });
    let windows = [Some(&untraced), traced.as_ref()];
    report.attempted = windows.iter().flatten().map(|c| c.requests).sum::<u64>()
        + enrollment.times.len() as u64
        + chips.len() as u64
        + 1;
    report.failed = windows.iter().flatten().map(|c| c.failed).sum();
    eprintln!(
        "paper_study: {} CRPs in {:.2} s on {workers} workers, xor{XOR_N} stable fraction {fraction:.4}, \
         {} enrollments, a chip's fastest at a median {enroll_s:.3} s ({} at nominal only), attack accuracy {accuracy:.4} after {} iterations",
        untraced.crps,
        untraced.wall_s,
        enrollment.times.len(),
        enrollment.fallbacks,
        trained.iterations
    );

    report.set("setup_s", stats::fast_time(&setup_s).unwrap_or(0.0));
    report.set("throughput_per_s", untraced.throughput());
    for (metric, pct) in [("latency_p50_ms", 50.0), ("latency_p99_ms", 99.0)] {
        if let Some(ms) = stats::sliced_percentile(&untraced.latencies_ms, untraced.wall_s, pct) {
            report.set(metric, ms);
        }
    }
    report.set("enroll_chips_per_s", 1.0 / enroll_s);

    let Some(traced) = traced else {
        return Ok(());
    };
    silicon_probe(&chips[0], seed, scale)?;
    linreg_probe(&chips[0], seed, scale)?;
    let lt = spans::layer_times(&spans::finish_tracing()?);
    for (metric, span) in [
        ("core.challenge.features_s", "core.challenge.features"),
        ("silicon.chip.measure_s", "silicon.chip.measure"),
        ("silicon.chip.soft_batch_s", "silicon.chip.soft_batch"),
        ("silicon.counter.measure_s", "silicon.counter.measure"),
        ("protocol.enrollment.enroll_s", "protocol.enrollment.enroll"),
        ("ml.linreg.fit_s", "ml.linreg.fit"),
        ("protocol.server.select_s", "protocol.server.select"),
        ("ml.mlp.train_s", "ml.mlp.train"),
    ] {
        report.set(metric, lt.self_of(span));
    }
    report.set("core.challenge.rows", traced.rows as f64);
    report.set("silicon.chip.measure_crps", traced.crps as f64);
    report.set(
        "silicon.chip.measure_evals",
        traced.crps as f64 * EVALS as f64,
    );
    report.set(
        "protocol.enrollment.pufs",
        (enrollment.times.len() * XOR_N) as f64,
    );
    report.set(
        "protocol.server.selected",
        selections.iter().map(Vec::len).sum::<usize>() as f64,
    );
    report.set("ml.mlp.iterations", trained.iterations as f64);
    let train_s = lt.self_of("ml.mlp.train");
    report.set(
        "ml.mlp.crp_steps_per_s",
        (lab.x_train.rows() * trained.iterations) as f64 / train_s,
    );
    report.set("ml.mlp.test_accuracy", accuracy);
    report.set(
        "telemetry.tracing_overhead_ratio",
        traced.throughput() / untraced.throughput(),
    );
    report.set("bench.section_s", lt.section_s);
    report.set("bench.section_lane_s", lt.section_lane_s);
    report.set("bench.unattributed_s", lt.unattributed_s);
    Ok(())
}
