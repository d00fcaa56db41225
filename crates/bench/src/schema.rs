//! Shared schema header for the machine-readable benchmark outputs
//! (`results/BENCH_*.json`, `results/CHAOS.json`).
//!
//! Every JSON emitter stamps the same `"schema"` object as its first key,
//! so `cargo xtask bench-diff` can (a) skip metadata when flattening
//! metrics and (b) warn when a comparison crosses environments — a delta
//! measured against a baseline from a different thread count or
//! `target-cpu` is a provenance note, not a regression.

use std::process::Command;

/// Version of the benchmark-output schema. Bump when the header shape or
/// the meaning of shared keys changes.
pub const SCHEMA_VERSION: u32 = 1;

/// The environment fingerprint stamped into benchmark JSON outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaHeader {
    /// The schema version, [`SCHEMA_VERSION`] at capture time.
    pub version: u32,
    /// Short git commit of the working tree (`unknown` outside a repo).
    pub git_commit: String,
    /// Hardware threads available to the process.
    pub threads: usize,
    /// The `-C target-cpu=…` value among the rustflags this crate was
    /// compiled with (`default` when none sets it).
    pub target_cpu: String,
}

impl SchemaHeader {
    /// Captures the current environment: git commit via `git rev-parse`,
    /// thread count via `std::thread::available_parallelism`, target CPU
    /// parsed out of the rustflags the build script recorded at compile
    /// time. Never fails — unknown values degrade to placeholder strings so
    /// output emission cannot be blocked.
    pub fn capture() -> Self {
        Self {
            version: SCHEMA_VERSION,
            git_commit: git_short_commit().unwrap_or_else(|| "unknown".to_string()),
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            target_cpu: rustflags_target_cpu(env!("PUF_BENCH_RUSTFLAGS")),
        }
    }

    /// The header as an indented JSON fragment — the complete
    /// `"schema": {…}` member (no trailing comma, no surrounding braces),
    /// with `indent` spaces before each line:
    ///
    /// ```text
    ///   "schema": {
    ///     "version": 1,
    ///     "git_commit": "0e227c9",
    ///     "threads": 8,
    ///     "target_cpu": "native"
    ///   }
    /// ```
    pub fn to_json_member(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        format!(
            "{pad}\"schema\": {{\n{pad}  \"version\": {},\n{pad}  \"git_commit\": \"{}\",\n{pad}  \"threads\": {},\n{pad}  \"target_cpu\": \"{}\"\n{pad}}}",
            self.version,
            escape(&self.git_commit),
            self.threads,
            escape(&self.target_cpu),
        )
    }
}

/// Minimal JSON string escape for the header fields (commit hashes and cpu
/// names are alphanumeric in practice; this guards the degenerate cases).
fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// The short commit hash of HEAD, if the working directory is a git repo
/// and `git` is on PATH.
fn git_short_commit() -> Option<String> {
    let out = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let hash = String::from_utf8(out.stdout).ok()?.trim().to_string();
    if hash.is_empty() {
        None
    } else {
        Some(hash)
    }
}

/// Extracts the `target-cpu` value from a rustflags string, accepting
/// both `-Ctarget-cpu=x` and `-C target-cpu=x` spellings, separated by
/// whitespace (`RUSTFLAGS`) or `\x1f` (`CARGO_ENCODED_RUSTFLAGS`).
fn rustflags_target_cpu(rustflags: &str) -> String {
    let mut tokens = rustflags
        .split(|c: char| c.is_whitespace() || c == '\x1f')
        .filter(|t| !t.is_empty())
        .peekable();
    while let Some(tok) = tokens.next() {
        let candidate = if tok == "-C" {
            tokens.peek().copied().unwrap_or_default()
        } else if let Some(rest) = tok.strip_prefix("-C") {
            rest
        } else {
            continue;
        };
        if let Some(cpu) = candidate.strip_prefix("target-cpu=") {
            if !cpu.is_empty() {
                return cpu.to_string();
            }
        }
    }
    "default".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_never_panics_and_fills_every_field() {
        let h = SchemaHeader::capture();
        assert_eq!(h.version, SCHEMA_VERSION);
        assert!(!h.git_commit.is_empty());
        assert!(h.threads >= 1);
        assert!(!h.target_cpu.is_empty());
    }

    #[test]
    fn json_member_shape_is_stable() {
        let h = SchemaHeader {
            version: 1,
            git_commit: "abc1234".to_string(),
            threads: 8,
            target_cpu: "native".to_string(),
        };
        assert_eq!(
            h.to_json_member(2),
            "  \"schema\": {\n    \"version\": 1,\n    \"git_commit\": \"abc1234\",\n    \"threads\": 8,\n    \"target_cpu\": \"native\"\n  }"
        );
    }

    #[test]
    fn rustflags_parsing_handles_both_spellings() {
        assert_eq!(rustflags_target_cpu("-Ctarget-cpu=native"), "native");
        assert_eq!(rustflags_target_cpu("-C target-cpu=znver3"), "znver3");
        assert_eq!(
            rustflags_target_cpu("-Copt-level=3 -C target-cpu=haswell -Dwarnings"),
            "haswell"
        );
        assert_eq!(rustflags_target_cpu(""), "default");
        assert_eq!(rustflags_target_cpu("-Copt-level=3"), "default");
        assert_eq!(rustflags_target_cpu("-Ctarget-cpu="), "default");
    }

    #[test]
    fn rustflags_parsing_handles_the_encoded_form() {
        assert_eq!(rustflags_target_cpu("-C\x1ftarget-cpu=native"), "native");
        assert_eq!(
            rustflags_target_cpu("-Copt-level=3\x1f-Ctarget-cpu=znver4\x1f-Dwarnings"),
            "znver4"
        );
        assert_eq!(rustflags_target_cpu("-C\x1fopt-level=3"), "default");
        assert_eq!(rustflags_target_cpu("\x1f\x1f"), "default");
    }

    #[test]
    fn escape_guards_quotes_and_controls() {
        assert_eq!(escape("abc123"), "abc123");
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c d");
    }
}
