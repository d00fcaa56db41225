//! `xorpuf` — command-line front end for the model-assisted XOR PUF
//! protocol.
//!
//! Chips are simulated and fully determined by `--chip-seed`, so "the same
//! physical chip" can be revisited across invocations without serialising
//! silicon state; the server database (delay parameters, thresholds, βs) is
//! persisted to a file with the `puf_protocol::storage` codec.
//!
//! ```text
//! xorpuf enroll      --chip-seed 7 --chip-id 0 --n 4 --db server.xpuf [--all-conditions]
//! xorpuf select      --db server.xpuf --chip-id 0 --count 16
//! xorpuf authenticate --db server.xpuf --chip-seed 7 --chip-id 0 [--vdd 0.8 --temp 60] [--impostor]
//! xorpuf keygen      --db server.xpuf --chip-seed 7 --chip-id 0 --bits 128
//! xorpuf inspect     --db server.xpuf
//! ```
//!
//! Every command additionally accepts `--telemetry[=PATH]`: with no value it
//! prints a metrics report (counters, latency histograms, gauges) to stdout
//! after the command runs; with a path it appends one JSONL record per
//! metric to that file instead. `--trace[=PATH]` works the same way for
//! structured trace events: with no value it prints folded flamegraph
//! stacks to stdout; with a path it writes Chrome trace-event JSON (open
//! in `chrome://tracing` or Perfetto) to PATH plus the folded stacks to
//! `PATH.folded`. Flags a command does not understand are rejected with an
//! error.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::process::ExitCode;
use xorpuf::core::Condition;
use xorpuf::protocol::auth::{AuthPolicy, ChipResponder, RandomResponder, Responder};
use xorpuf::protocol::enrollment::{enroll, EnrollmentConfig};
use xorpuf::protocol::keygen::{enroll_key, reconstruct_key, KeyGenConfig};
use xorpuf::protocol::server::Server;
use xorpuf::protocol::storage::{decode_server, encode_server};
use xorpuf::silicon::{Chip, ChipConfig};

/// Flags that take no value (`--telemetry=PATH` opts into one inline).
const VALUELESS_FLAGS: &[&str] = &["impostor", "all-conditions", "telemetry", "trace"];

/// Largest `--count` accepted. Selection reserves one slot per requested
/// challenge up front, so an unbounded count aborts on a capacity overflow
/// or a multi-terabyte allocation; 2^20 challenges is far beyond any
/// authentication round and still allocates only tens of megabytes.
const MAX_COUNT: usize = 1 << 20;

/// Supply voltages `--vdd` accepts, in volts. The noise model divides by
/// the supply (squared), so zero, negative and NaN supplies panic inside it
/// and a supply near zero overflows its σ; the range spans the paper's
/// 0.8–1.0 V corners many times over in each direction.
const VDD_RANGE_V: (f64, f64) = (0.1, 10.0);

/// Temperatures `--temp` accepts, in °C: above absolute zero (the noise
/// model takes the root of the absolute temperature) and at most 1000 °C,
/// which keeps the derived delay and noise scales finite.
const TEMP_RANGE_C: (f64, f64) = (-273.15, 1000.0);

/// Repetition-code length of `keygen`'s fuzzy extractor: each key bit is
/// read through this many selected challenges.
const KEY_REPETITION: usize = 3;

/// Largest `--bits` accepted. Key generation selects `bits × KEY_REPETITION`
/// challenges, so the bound keeps that product within [`MAX_COUNT`]: an
/// unbounded value overflows the product or aborts on an exabyte-scale
/// allocation, and zero bits is no key at all.
const MAX_KEY_BITS: usize = MAX_COUNT / KEY_REPETITION;

/// The flags each command understands; anything else is an error.
fn allowed_flags(command: &str) -> Option<&'static [&'static str]> {
    Some(match command {
        "enroll" => &[
            "db",
            "chip-seed",
            "chip-id",
            "n",
            "seed",
            "all-conditions",
            "telemetry",
            "trace",
        ],
        "select" => &["db", "chip-id", "count", "seed", "telemetry", "trace"],
        "authenticate" => &[
            "db",
            "chip-seed",
            "chip-id",
            "count",
            "vdd",
            "temp",
            "seed",
            "impostor",
            "telemetry",
            "trace",
        ],
        "keygen" => &[
            "db",
            "chip-seed",
            "chip-id",
            "bits",
            "seed",
            "telemetry",
            "trace",
        ],
        "inspect" => &["db", "telemetry", "trace"],
        _ => return None,
    })
}

struct Args {
    flags: HashMap<String, String>,
}

impl Args {
    fn parse(args: &[String], allowed: &'static [&'static str]) -> Result<Self, String> {
        let mut flags = HashMap::new();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument `{arg}`"));
            };
            // Both `--name value` and `--name=value` are accepted.
            let (name, inline) = match name.split_once('=') {
                Some((n, v)) => (n, Some(v.to_string())),
                None => (name, None),
            };
            if !allowed.contains(&name) {
                return Err(format!("unknown flag --{name}\n{USAGE}"));
            }
            let value = if let Some(inline) = inline {
                inline
            } else if VALUELESS_FLAGS.contains(&name) {
                String::new()
            } else {
                iter.next()
                    .ok_or_else(|| format!("--{name} requires a value"))?
                    .clone()
            };
            flags.insert(name.to_string(), value);
        }
        Ok(Self { flags })
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: `{v}` is not a valid value")),
        }
    }

    /// `--count`, bounded by [`MAX_COUNT`].
    fn count(&self, default: usize) -> Result<usize, String> {
        let count: usize = self.get("count", default)?;
        if count > MAX_COUNT {
            return Err(format!(
                "--count: {count} exceeds the maximum of {MAX_COUNT}"
            ));
        }
        Ok(count)
    }

    /// `--bits`, bounded to `1..=MAX_KEY_BITS`.
    fn key_bits(&self, default: usize) -> Result<usize, String> {
        let bits: usize = self.get("bits", default)?;
        if !(1..=MAX_KEY_BITS).contains(&bits) {
            return Err(format!("--bits: {bits} is outside 1..={MAX_KEY_BITS}"));
        }
        Ok(bits)
    }

    /// `--vdd` and `--temp`, bounded to [`VDD_RANGE_V`] and
    /// [`TEMP_RANGE_C`].
    fn condition(&self) -> Result<Condition, String> {
        let vdd: f64 = self.get("vdd", 0.9)?;
        if !(VDD_RANGE_V.0..=VDD_RANGE_V.1).contains(&vdd) {
            return Err(format!(
                "--vdd: {vdd} V is outside the simulated range {}..={} V",
                VDD_RANGE_V.0, VDD_RANGE_V.1
            ));
        }
        let temp: f64 = self.get("temp", 25.0)?;
        if !(temp > TEMP_RANGE_C.0 && temp <= TEMP_RANGE_C.1) {
            return Err(format!(
                "--temp: {temp} °C is outside the simulated range ({}, {}] °C",
                TEMP_RANGE_C.0, TEMP_RANGE_C.1
            ));
        }
        Ok(Condition::new(vdd, temp))
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.flags
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }
}

fn fabricate(seed: u64, id: u32) -> Chip {
    // Deterministic per (seed, id): every command sees the same silicon.
    let mut rng = StdRng::seed_from_u64(seed ^ (u64::from(id) << 32));
    Chip::fabricate(id, &ChipConfig::paper_default(), &mut rng)
}

fn load_db(path: &str) -> Result<Server, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    decode_server(&bytes).map_err(|e| format!("cannot decode {path}: {e}"))
}

fn save_db(path: &str, server: &Server) -> Result<(), String> {
    std::fs::write(path, encode_server(server)).map_err(|e| format!("cannot write {path}: {e}"))
}

fn cmd_enroll(args: &Args) -> Result<(), String> {
    let chip_seed: u64 = args.get("chip-seed", 0)?;
    let chip_id: u32 = args.get("chip-id", 0)?;
    let n: usize = args.get("n", 4)?;
    let db = args.require("db")?;
    let chip = fabricate(chip_seed, chip_id);
    let config = if args.has("all-conditions") {
        EnrollmentConfig::paper_all_conditions(n)
    } else {
        EnrollmentConfig::paper_default(n)
    };
    let mut rng = StdRng::seed_from_u64(args.get("seed", 1)?);
    let record = enroll(&chip, &config, &mut rng).map_err(|e| e.to_string())?;
    let mut server = if std::path::Path::new(db).exists() {
        load_db(db)?
    } else {
        Server::new()
    };
    let replaced = server.register(record).is_some();
    save_db(db, &server)?;
    println!(
        "enrolled chip {chip_id} ({n}-input XOR, {}){} → {db}",
        if args.has("all-conditions") {
            "all-V/T βs"
        } else {
            "nominal βs"
        },
        if replaced {
            ", replacing a previous record"
        } else {
            ""
        },
    );
    Ok(())
}

fn cmd_select(args: &Args) -> Result<(), String> {
    let db = args.require("db")?;
    let chip_id: u32 = args.get("chip-id", 0)?;
    let count = args.count(16)?;
    let server = load_db(db)?;
    let mut rng = StdRng::seed_from_u64(args.get("seed", 2)?);
    let picks = server
        .select_challenges(
            chip_id,
            count,
            count.saturating_mul(500_000).max(1_000_000),
            &mut rng,
        )
        .map_err(|e| e.to_string())?;
    println!("challenge                          expected");
    for p in &picks {
        println!("{:032x}  {}", p.challenge.bits(), u8::from(p.expected));
    }
    Ok(())
}

fn cmd_authenticate(args: &Args) -> Result<(), String> {
    let db = args.require("db")?;
    let chip_seed: u64 = args.get("chip-seed", 0)?;
    let chip_id: u32 = args.get("chip-id", 0)?;
    let count = args.count(32)?;
    let cond = args.condition()?;
    let server = load_db(db)?;
    let record = server
        .record(chip_id)
        .ok_or_else(|| format!("chip {chip_id} is not enrolled in {db}"))?;
    let n = record.n();
    let mut rng = StdRng::seed_from_u64(args.get("seed", 3)?);
    let outcome = if args.has("impostor") {
        let mut client = RandomResponder::new(99);
        server.authenticate(
            chip_id,
            &mut client,
            count,
            AuthPolicy::ZeroHammingDistance,
            &mut rng,
        )
    } else {
        let chip = fabricate(chip_seed, chip_id);
        let mut client = ChipResponder::new(&chip, n, cond, 7);
        server.authenticate(
            chip_id,
            &mut client,
            count,
            AuthPolicy::ZeroHammingDistance,
            &mut rng,
        )
    }
    .map_err(|e| e.to_string())?;
    println!("chip {chip_id} at {cond}: {outcome}");
    if !outcome.approved {
        if args.has("impostor") {
            xorpuf::telemetry::counter!("protocol.auth.impostor_rejects").inc();
        }
        return Err("authentication denied".into());
    }
    Ok(())
}

fn cmd_keygen(args: &Args) -> Result<(), String> {
    let db = args.require("db")?;
    let chip_seed: u64 = args.get("chip-seed", 0)?;
    let chip_id: u32 = args.get("chip-id", 0)?;
    let bits = args.key_bits(128)?;
    let server = load_db(db)?;
    let record = server
        .record(chip_id)
        .ok_or_else(|| format!("chip {chip_id} is not enrolled in {db}"))?;
    let n = record.n();
    let config = KeyGenConfig::new(bits, KEY_REPETITION);
    let mut rng = StdRng::seed_from_u64(args.get("seed", 4)?);
    let selected = server
        .select_challenges(chip_id, config.response_bits(), 500_000_000, &mut rng)
        .map_err(|e| e.to_string())?;
    let (key, helper) = enroll_key(&selected, config, &mut rng).map_err(|e| e.to_string())?;

    // Round-trip against the physical chip to prove the helper data works.
    let chip = fabricate(chip_seed, chip_id);
    let mut client = ChipResponder::new(&chip, n, Condition::NOMINAL, 8);
    let responses = client.respond(&helper.challenges);
    let rebuilt = reconstruct_key(&responses, &helper).map_err(|e| e.to_string())?;
    if rebuilt != key {
        return Err("reconstructed key mismatch".into());
    }
    let hex: String = key.to_bytes().iter().map(|b| format!("{b:02x}")).collect();
    println!("{bits}-bit key: {hex}");
    println!(
        "(reconstructed from {} one-shot responses through the helper data)",
        helper.challenges.len()
    );
    Ok(())
}

fn cmd_inspect(args: &Args) -> Result<(), String> {
    let db = args.require("db")?;
    let server = load_db(db)?;
    let mut ids: Vec<u32> = server.chip_ids().collect();
    ids.sort_unstable();
    println!("{db}: {} enrolled chip(s)", ids.len());
    for id in ids {
        let record = server.record(id).expect("listed id");
        println!(
            "  chip {id}: {}-input XOR, {} stages, conservative {}",
            record.n(),
            record.stages,
            record.conservative_betas()
        );
    }
    Ok(())
}

const USAGE: &str = "usage: xorpuf <enroll|select|authenticate|keygen|inspect> [--flag value]...
  enroll       --db FILE [--chip-seed N] [--chip-id N] [--n N] [--all-conditions]
  select       --db FILE [--chip-id N] [--count N]
  authenticate --db FILE [--chip-seed N] [--chip-id N] [--count N] [--vdd V] [--temp C] [--impostor]
  keygen       --db FILE [--chip-seed N] [--chip-id N] [--bits N]
  inspect      --db FILE
every command also accepts --telemetry[=PATH]: print a metrics report to
stdout after the command, or append JSONL records to PATH instead; and
--trace[=PATH]: print folded flamegraph stacks to stdout, or write Chrome
trace-event JSON to PATH (plus folded stacks to PATH.folded)";

/// Writes the collected metrics: a human-readable table on stdout when
/// `sink` is empty, one JSONL record per metric appended to `sink`
/// otherwise.
fn emit_telemetry(sink: &str) -> Result<(), String> {
    use std::io::Write;
    let registry = xorpuf::telemetry::registry();
    if sink.is_empty() {
        print!("{}", registry.render_table());
        return Ok(());
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(sink)
        .map_err(|e| format!("cannot open {sink}: {e}"))?;
    file.write_all(registry.render_jsonl().as_bytes())
        .map_err(|e| format!("cannot write {sink}: {e}"))
}

/// Writes the recorded trace: folded flamegraph stacks on stdout when
/// `sink` is empty; otherwise Chrome trace-event JSON to `sink` and the
/// folded stacks next to it at `sink.folded`.
fn emit_trace(sink: &str) -> Result<(), String> {
    use xorpuf::telemetry::trace_export;
    let tracer = xorpuf::telemetry::tracer();
    let events = tracer.snapshot_events();
    let clock = tracer.clock();
    if tracer.evicted() > 0 {
        eprintln!(
            "warning: trace ring overflowed; {} oldest event(s) evicted",
            tracer.evicted()
        );
    }
    if sink.is_empty() {
        print!("{}", trace_export::folded_stacks(&events, clock));
        return Ok(());
    }
    std::fs::write(sink, trace_export::chrome_trace_json(&events, clock))
        .map_err(|e| format!("cannot write {sink}: {e}"))?;
    let folded_path = format!("{sink}.folded");
    std::fs::write(&folded_path, trace_export::folded_stacks(&events, clock))
        .map_err(|e| format!("cannot write {folded_path}: {e}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let Some(allowed) = allowed_flags(command) else {
        eprintln!("error: unknown command `{command}`\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = Args::parse(rest, allowed).and_then(|args| {
        let telemetry_sink = args.flags.get("telemetry").cloned();
        if telemetry_sink.is_some() {
            xorpuf::telemetry::set_enabled(true);
        }
        let trace_sink = args.flags.get("trace").cloned();
        if trace_sink.is_some() {
            // Interactive runs profile real time; the deterministic tick
            // mode is for reproducible traces (chaos bench, tests).
            xorpuf::telemetry::tracer().set_clock(xorpuf::telemetry::TraceClock::Wall);
            xorpuf::telemetry::tracer().set_enabled(true);
        }
        let outcome = match command.as_str() {
            "enroll" => cmd_enroll(&args),
            "select" => cmd_select(&args),
            "authenticate" => cmd_authenticate(&args),
            "keygen" => cmd_keygen(&args),
            "inspect" => cmd_inspect(&args),
            other => unreachable!("allowed_flags admitted `{other}`"),
        };
        if let Some(sink) = telemetry_sink {
            // Report even when the command failed: the counters usually
            // explain the failure (e.g. rejects, exhausted selection).
            if let Err(e) = emit_telemetry(&sink) {
                eprintln!("warning: {e}");
            }
        }
        if let Some(sink) = trace_sink {
            if let Err(e) = emit_trace(&sink) {
                eprintln!("warning: {e}");
            }
        }
        outcome
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
