//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! runs one workload and prints its result as the last line of standard
//! output. Exits non-zero on bad arguments, a failed output check or a
//! metric that could not be measured.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match perfbench::Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", perfbench::USAGE);
            return ExitCode::from(2);
        }
    };
    let report = perfbench::run(&args, perfbench::Scale::Full);
    for problem in &report.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    match report.result_line(args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
