//! End-to-end tests of the `xorpuf` command-line tool: enrollment persists
//! a database, the genuine chip authenticates, an impostor is denied, and
//! keys derive deterministically — all through the real binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn xorpuf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xorpuf"))
        .args(args)
        .output()
        .expect("failed to launch the xorpuf binary")
}

fn temp_db(name: &str) -> (PathBuf, String) {
    let path = std::env::temp_dir().join(format!("xorpuf-test-{name}-{}.xpuf", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let s = path.to_str().expect("utf-8 temp path").to_string();
    (path, s)
}

#[test]
fn enroll_inspect_authenticate_roundtrip() {
    let (path, db) = temp_db("roundtrip");

    let out = xorpuf(&["enroll", "--db", &db, "--chip-seed", "7", "--n", "2"]);
    assert!(
        out.status.success(),
        "enroll failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(path.exists(), "database file was not created");

    let out = xorpuf(&["inspect", "--db", &db]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 enrolled chip"), "{stdout}");
    assert!(stdout.contains("2-input XOR"), "{stdout}");

    let out = xorpuf(&["authenticate", "--db", &db, "--chip-seed", "7"]);
    assert!(
        out.status.success(),
        "genuine chip denied: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("APPROVED"));

    let _ = std::fs::remove_file(&path);
}

#[test]
fn impostor_and_wrong_seed_are_denied() {
    let (path, db) = temp_db("impostor");
    assert!(
        xorpuf(&["enroll", "--db", &db, "--chip-seed", "7", "--n", "2"])
            .status
            .success()
    );

    // Random-bit impostor.
    let out = xorpuf(&[
        "authenticate",
        "--db",
        &db,
        "--chip-seed",
        "7",
        "--impostor",
    ]);
    assert!(!out.status.success(), "impostor approved");
    assert!(String::from_utf8_lossy(&out.stdout).contains("DENIED"));

    // A different die (different chip seed) under the same identity.
    let out = xorpuf(&["authenticate", "--db", &db, "--chip-seed", "8"]);
    assert!(!out.status.success(), "foreign die approved");

    let _ = std::fs::remove_file(&path);
}

#[test]
fn select_prints_requested_count() {
    let (path, db) = temp_db("select");
    assert!(
        xorpuf(&["enroll", "--db", &db, "--chip-seed", "3", "--n", "2"])
            .status
            .success()
    );
    let out = xorpuf(&["select", "--db", &db, "--count", "5"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Header plus five rows.
    assert_eq!(stdout.lines().count(), 6, "{stdout}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn keygen_is_deterministic_per_seed() {
    let (path, db) = temp_db("keygen");
    assert!(
        xorpuf(&["enroll", "--db", &db, "--chip-seed", "5", "--n", "2"])
            .status
            .success()
    );
    let a = xorpuf(&[
        "keygen",
        "--db",
        &db,
        "--chip-seed",
        "5",
        "--bits",
        "64",
        "--seed",
        "11",
    ]);
    let b = xorpuf(&[
        "keygen",
        "--db",
        &db,
        "--chip-seed",
        "5",
        "--bits",
        "64",
        "--seed",
        "11",
    ]);
    assert!(a.status.success() && b.status.success());
    assert_eq!(
        a.stdout, b.stdout,
        "keygen should be deterministic for a fixed seed"
    );
    assert!(String::from_utf8_lossy(&a.stdout).contains("64-bit key:"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn malformed_invocations_fail_cleanly() {
    let out = xorpuf(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = xorpuf(&["inspect"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--db"));

    let out = xorpuf(&["authenticate", "--db", "/nonexistent/nope.xpuf"]);
    assert!(!out.status.success());

    // Hostile counts: a capacity overflow and a 52 TB reservation must be
    // refused up front with the usual error, not a panic or an abort.
    for command in ["select", "authenticate"] {
        for count in ["18446744073709551615", "1099511627776"] {
            let out = xorpuf(&[command, "--db", "/nonexistent/nope.xpuf", "--count", count]);
            assert_eq!(out.status.code(), Some(1), "{command} --count {count}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains("error: --count"), "{command}: {stderr}");
        }
    }

    // Key sizes that panicked (0 bits, a capacity overflow) or aborted (an
    // exabyte allocation), and conditions that panicked inside the noise
    // model, are refused the same way before the database is read.
    for (command, flag, value) in [
        ("keygen", "--bits", "0"),
        ("keygen", "--bits", "18446744073709551615"),
        ("keygen", "--bits", "6148914691236517206"),
        ("authenticate", "--vdd", "0"),
        ("authenticate", "--vdd", "nan"),
        ("authenticate", "--temp", "-400"),
        ("authenticate", "--temp", "inf"),
    ] {
        let out = xorpuf(&[command, "--db", "/nonexistent/nope.xpuf", flag, value]);
        assert_eq!(out.status.code(), Some(1), "{command} {flag} {value}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("error: {flag}")),
            "{command} {flag} {value}: {stderr}"
        );
    }
}

#[test]
fn enroll_with_a_bad_xor_width_keeps_the_database() {
    let (path, db) = temp_db("bad-width");
    assert!(
        xorpuf(&["enroll", "--db", &db, "--chip-seed", "7", "--n", "2"])
            .status
            .success()
    );
    let before = std::fs::read(&path).expect("database written");
    for n in ["0", "13"] {
        let out = xorpuf(&[
            "enroll",
            "--db",
            &db,
            "--chip-seed",
            "5",
            "--chip-id",
            "5",
            "--n",
            n,
        ]);
        assert_eq!(out.status.code(), Some(1), "--n {n}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("XOR width"),
            "--n {n}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    assert_eq!(std::fs::read(&path).expect("database kept"), before);
    let out = xorpuf(&["inspect", "--db", &db]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 enrolled chip"), "{stdout}");
    assert!(stdout.contains("2-input XOR"), "{stdout}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn unknown_flags_are_rejected_per_command() {
    // Flags only valid for other commands are rejected too: --impostor
    // belongs to authenticate, not inspect.
    for args in [
        &["inspect", "--db", "x.xpuf", "--impostor"][..],
        &["authenticate", "--db", "x.xpuf", "--frobnicate", "1"][..],
        &["enroll", "--db", "x.xpuf", "--bits", "64"][..],
    ] {
        let out = xorpuf(args);
        assert!(!out.status.success(), "accepted {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
}

#[test]
fn authenticate_with_telemetry_prints_report() {
    let (path, db) = temp_db("telemetry");
    assert!(
        xorpuf(&["enroll", "--db", &db, "--chip-seed", "7", "--n", "2"])
            .status
            .success()
    );

    let out = xorpuf(&[
        "authenticate",
        "--db",
        &db,
        "--chip-seed",
        "7",
        "--telemetry",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("APPROVED"), "{stdout}");
    // The report lists the protocol counters and the chip-eval latency
    // histogram fed by the responder's one-shot evaluations.
    for needle in [
        "protocol.auth.attempts",
        "protocol.auth.accepts",
        "protocol.select.yield",
    ] {
        assert!(stdout.contains(needle), "missing {needle} in:\n{stdout}");
    }
    let eval_row = stdout
        .lines()
        .find(|l| l.starts_with("core.eval "))
        .unwrap_or_else(|| panic!("no core.eval row in:\n{stdout}"));
    assert!(eval_row.contains("histogram"), "{eval_row}");
    assert!(eval_row.contains("p95="), "{eval_row}");

    // Without the flag, stdout stays clean of metrics.
    let out = xorpuf(&["authenticate", "--db", &db, "--chip-seed", "7"]);
    assert!(out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("protocol.auth"));

    let _ = std::fs::remove_file(&path);
}

#[test]
fn telemetry_jsonl_sink_appends_records() {
    let (path, db) = temp_db("telemetry-jsonl");
    let sink = std::env::temp_dir().join(format!("xorpuf-test-tel-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&sink);
    let sink_arg = format!("--telemetry={}", sink.to_str().expect("utf-8 temp path"));
    assert!(
        xorpuf(&["enroll", "--db", &db, "--chip-seed", "7", "--n", "2"])
            .status
            .success()
    );

    let out = xorpuf(&["authenticate", "--db", &db, "--chip-seed", "7", &sink_arg]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // With a sink path the report goes to the file, not stdout.
    assert!(!String::from_utf8_lossy(&out.stdout).contains("protocol.auth.attempts"));
    let first = std::fs::read_to_string(&sink).expect("sink written");
    assert!(
        first.contains("\"name\":\"protocol.auth.attempts\",\"kind\":\"counter\",\"value\":1"),
        "{first}"
    );
    assert!(
        first.contains("\"name\":\"core.eval\",\"kind\":\"histogram\""),
        "{first}"
    );

    // A second run appends instead of truncating.
    assert!(
        xorpuf(&["authenticate", "--db", &db, "--chip-seed", "7", &sink_arg])
            .status
            .success()
    );
    let second = std::fs::read_to_string(&sink).expect("sink written");
    assert_eq!(
        second.lines().count(),
        2 * first.lines().count(),
        "append, not truncate"
    );

    let _ = std::fs::remove_file(&sink);
    let _ = std::fs::remove_file(&path);
}
