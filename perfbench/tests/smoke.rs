//! A smoke-size pass of every workload, untraced and traced: outputs check
//! out, every metric is present, and the fleet verdict digest repeats at
//! one seed. One test function, because the tracer is process-global.

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::{run, Args, Scale, Workload};

fn smoke(workload: Workload, seed: u64, trace: bool) -> perfbench::report::Report {
    let report = run(
        &Args {
            workload,
            seed,
            seconds: 0.6,
            trace,
        },
        Scale::Smoke,
    );
    assert!(
        report.correct(),
        "{} (trace {trace}): {:?}",
        workload.name(),
        report.problems
    );
    assert_eq!(report.failed, 0, "{}", workload.name());
    let line = report
        .result_line(trace)
        .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    let names = if trace { PER_LAYER } else { END_TO_END };
    for (name, _) in names {
        assert!(line.contains(&format!("\"{name}\"")), "{name} missing");
    }
    report
}

#[test]
fn every_workload_passes_its_checks_at_smoke_size() {
    for workload in Workload::ALL {
        smoke(workload, 3, false);
    }

    let paper = smoke(Workload::PaperStudy, 3, true);
    assert!(paper.get("silicon.chip.measure_s").unwrap() > 0.0);
    assert!(paper.get("ml.mlp.train_s").unwrap() > 0.0);
    assert_eq!(paper.get("protocol.durable.events"), None);

    let steady = smoke(Workload::FleetSteady, 3, true);
    assert_eq!(steady.get("protocol.service.warm_hit_ratio"), Some(1.0));
    assert_eq!(steady.get("protocol.service.warm_batches"), Some(0.0));
    assert!(steady.get("protocol.service.tick_s").unwrap() > 0.0);
    assert_eq!(steady.get("protocol.durable.events"), None);

    let churn = smoke(Workload::FleetChurn, 3, true);
    assert!(churn.get("protocol.service.warm_hit_ratio").unwrap() <= 0.05);
    assert!(churn.get("protocol.durable.events").unwrap() > 0.0);
    assert!(churn.get("protocol.durable.recover_s").unwrap() > 0.0);
    assert_eq!(churn.get("protocol.durable.dropped_bytes"), Some(0.0));

    // The digest covers a fixed, seed-determined set of sessions.
    let again = smoke(Workload::FleetSteady, 3, false);
    assert!(steady.digest.is_some());
    assert_eq!(steady.digest, again.digest);
    let other = smoke(Workload::FleetSteady, 4, false);
    assert_ne!(steady.digest, other.digest);
}
