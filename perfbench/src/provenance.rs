//! Where a run happened: commit, effective build flags, CPU, SIMD lane,
//! threads and seed, printed with every run so a number can be traced to
//! the host and build that produced it.

use std::fmt::Write as _;

/// SIMD features the benchmark was compiled for. These are what
/// `-C target-cpu` actually switched on, whichever file set it.
fn compiled_features() -> Vec<&'static str> {
    [
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ]
    .into_iter()
    .filter_map(|(name, on)| on.then_some(name))
    .collect()
}

/// The `target-cpu` a set of rustc flags selects, or `None` when they do
/// not set one.
pub fn target_cpu(flags: &str) -> Option<String> {
    let mut words = flags
        .split(|c: char| c.is_whitespace() || matches!(c, '"' | ',' | '[' | ']'))
        .filter(|w| !w.is_empty());
    let mut found = None;
    while let Some(word) = words.next() {
        let setting = match word {
            "-C" | "--codegen" => words.next().unwrap_or_default(),
            other => other.strip_prefix("-C").unwrap_or(other),
        };
        if let Some(cpu) = setting.strip_prefix("target-cpu=") {
            found = Some(cpu.to_string());
        }
    }
    found
}

/// The effective `target-cpu`: `RUSTFLAGS` overrides the `[build]
/// rustflags` of `.cargo/config.toml`, which the repository sets to
/// `native`.
fn effective_target_cpu() -> String {
    let from_env = std::env::var("RUSTFLAGS").ok().and_then(|f| target_cpu(&f));
    let from_config = std::fs::read_to_string(".cargo/config.toml")
        .ok()
        .and_then(|text| {
            text.lines()
                .filter(|l| l.trim_start().starts_with("rustflags"))
                .find_map(target_cpu)
        });
    match (from_env, from_config) {
        (Some(cpu), _) => format!("{cpu} (RUSTFLAGS)"),
        (None, Some(cpu)) => format!("{cpu} (.cargo/config.toml)"),
        (None, None) => "default".to_string(),
    }
}

/// The checked-out commit, read from `.git` in the working directory.
fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|line| line.strip_suffix(reference))
        .map(|id| id.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The provenance record of a run, as one JSON object.
pub fn to_json(workload: &str, seed: u64, workers: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"commit\": \"{}\", \"target_cpu\": \"{}\", \
         \"compiled_features\": \"{}\", \"cpu_model\": \"{}\", \"active_lane\": \"{}\", \
         \"nproc\": {nproc}, \"worker_threads\": {workers}}}",
        escape(workload),
        escape(&commit().unwrap_or_else(|| "unknown (no .git here)".to_string())),
        escape(&effective_target_cpu()),
        compiled_features().join(","),
        escape(&cpu_model()),
        puf_core::bitslice::active_lane().name(),
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_cpu_is_found_in_every_flag_spelling() {
        assert_eq!(
            target_cpu("-C target-cpu=native").as_deref(),
            Some("native")
        );
        assert_eq!(
            target_cpu("-Ctarget-cpu=x86-64-v3 -Copt-level=3").as_deref(),
            Some("x86-64-v3")
        );
        assert_eq!(
            target_cpu(r#"rustflags = ["-C", "target-cpu=native"]"#).as_deref(),
            Some("native")
        );
        assert_eq!(
            target_cpu("--codegen target-cpu=znver4").as_deref(),
            Some("znver4")
        );
        assert_eq!(target_cpu("-C opt-level=3"), None);
        assert_eq!(target_cpu(""), None);
    }

    #[test]
    fn provenance_is_one_json_object() {
        let json = to_json("paper_study", 7, 2);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"seed\": 7"));
        assert!(json.contains("\"worker_threads\": 2"));
        assert!(json.contains("\"active_lane\": "));
    }
}
