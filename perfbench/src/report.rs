//! The benchmark's output contract: every metric's name and unit, and the
//! one-line JSON result on the last line of standard output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, reported by every workload with tracing off. What
/// each one counts on each workload is tabled in README.md; all are
/// strictly positive.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("enroll_chips_per_s", "1/s"),
];

/// Per-layer metrics of the traced run. A layer a workload does not
/// exercise reports 0. The two latencies come from the traced run's
/// untraced half: on a shared host their run-to-run spread is too wide to
/// gate on.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("core.challenge.features_s", "s"),
    ("core.challenge.rows", "count"),
    ("silicon.chip.measure_s", "s"),
    ("silicon.chip.measure_crps", "count"),
    ("silicon.chip.measure_evals", "count"),
    ("silicon.chip.soft_batch_s", "s"),
    ("silicon.counter.measure_s", "s"),
    ("protocol.enrollment.enroll_s", "s"),
    ("protocol.enrollment.pufs", "count"),
    ("ml.linreg.fit_s", "s"),
    ("protocol.server.select_s", "s"),
    ("protocol.server.selected", "count"),
    ("ml.mlp.train_s", "s"),
    ("ml.mlp.iterations", "count"),
    ("ml.mlp.crp_steps_per_s", "1/s"),
    ("ml.mlp.test_accuracy", "ratio"),
    ("protocol.storage.from_enrolled_s", "s"),
    ("protocol.storage.bytes_per_chip", "B"),
    ("protocol.storage.warm_bytes_per_chip", "B"),
    ("protocol.service.enroll_s", "s"),
    ("protocol.service.submit_s", "s"),
    ("protocol.service.tick_s", "s"),
    ("protocol.service.tick_warm_s", "s"),
    ("protocol.service.tick_flush_s", "s"),
    ("protocol.service.tick_step_s", "s"),
    ("protocol.service.ticks", "count"),
    ("protocol.service.flushes", "count"),
    ("protocol.service.aged_flushes", "count"),
    ("protocol.service.decided_per_flush", "count"),
    ("protocol.service.pending_rows_max", "count"),
    ("protocol.service.latency_ticks_p50", "count"),
    ("protocol.service.latency_ticks_p99", "count"),
    ("protocol.service.warm_hit_ratio", "ratio"),
    ("protocol.service.warm_batches", "count"),
    ("core.bitslice.warm_s", "s"),
    ("core.bitslice.member_evals", "count"),
    ("core.bitslice.member_evals_per_s", "1/s"),
    ("protocol.durable.append_s", "s"),
    ("protocol.durable.events", "count"),
    ("protocol.durable.wal_bytes", "B"),
    ("protocol.durable.compact_s", "s"),
    ("protocol.durable.compactions", "count"),
    ("protocol.durable.snapshot_bytes", "B"),
    ("protocol.durable.recover_s", "s"),
    ("protocol.durable.recover_mb_per_s", "MB/s"),
    ("protocol.durable.restore_s", "s"),
    ("protocol.durable.dropped_bytes", "B"),
    ("telemetry.tracing_overhead_ratio", "ratio"),
    ("bench.section_s", "s"),
    ("bench.section_lane_s", "s"),
    ("bench.unattributed_s", "s"),
];

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, unit)| unit)
}

/// What one run of a workload measured and whether its outputs checked
/// out.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed (a refused or rejected session is a correct
    /// verdict, not a failure).
    pub failed: u64,
    /// Output checks that failed, in the order they ran.
    pub problems: Vec<String>,
    /// Digest of the seed-determined verdict set, where the workload has
    /// one: equal seeds must give equal digests.
    pub digest: Option<u64>,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not declared in [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "metric {name} is not declared");
        self.values.insert(name, value);
    }

    /// A recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The result line: the end-to-end metrics, or with `traced` the
    /// per-layer ones.
    ///
    /// # Errors
    ///
    /// A missing, non-finite or (end-to-end) non-positive metric, or no
    /// attempted operation.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        if self.attempted == 0 {
            return Err("the run attempted no operation".to_string());
        }
        let names = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        for (i, &(name, unit)) in names.iter().enumerate() {
            let value = match self.values.get(name) {
                Some(&v) => v,
                None if traced => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            if !traced && value <= 0.0 {
                return Err(format!("end-to-end metric {name} is not positive: {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        ))
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), where the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_report() -> Report {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        for &(name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        r
    }

    #[test]
    fn result_line_lists_every_end_to_end_metric_with_its_unit() {
        let line = full_report().result_line(false).unwrap();
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"enroll_chips_per_s\": {\"value\": 1.5, \"unit\": \"1/s\"}"));
        assert!(!line.contains("protocol."), "per-layer metrics stay out");
    }

    #[test]
    fn missing_or_zero_end_to_end_metrics_are_errors() {
        let mut r = full_report();
        r.set("setup_s", 0.0);
        assert!(r.result_line(false).is_err());
        let mut r = Report {
            attempted: 1,
            ..Report::default()
        };
        r.set("setup_s", 1.0);
        assert!(r.result_line(false).is_err());
        assert!(
            Report::default().result_line(true).is_err(),
            "nothing attempted"
        );
    }

    #[test]
    fn unexercised_layers_report_zero() {
        let mut r = full_report();
        r.set("protocol.durable.events", 7.0);
        let line = r.result_line(true).unwrap();
        assert!(line.contains("\"protocol.durable.events\": {\"value\": 7, \"unit\": \"count\"}"));
        assert!(line.contains("\"ml.mlp.train_s\": {\"value\": 0, \"unit\": \"s\"}"));
    }

    #[test]
    fn failed_checks_mark_the_run_incorrect() {
        let mut r = full_report();
        r.check(true, || unreachable!());
        r.check(false, || "digest differs".to_string());
        assert!(!r.correct());
        assert!(r
            .result_line(false)
            .unwrap()
            .starts_with("{\"correct\": false"));
    }

    #[test]
    fn declared_names_follow_the_naming_rule() {
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name.len() <= 64, "{name}");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
            assert!(unit.len() <= 16);
        }
    }
}
