//! Experiment runner: reproduces every quantitative claim of the paper and
//! prints a paper-vs-measured report.
//!
//! Usage:
//!
//! ```text
//! cargo run -p gdlog-bench --release --bin experiments            # all experiments
//! cargo run -p gdlog-bench --release --bin experiments -- e1 e3   # a selection
//! ```

use gdlog_bench::experiments::{run_experiment, ExperimentOutcome, EXPERIMENT_IDS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ids: Vec<String> = if args.is_empty() {
        EXPERIMENT_IDS.iter().map(|s| s.to_string()).collect()
    } else {
        args
    };

    let mut failures = 0usize;
    let mut outcomes: Vec<ExperimentOutcome> = Vec::new();
    for id in &ids {
        if !EXPERIMENT_IDS.contains(&id.as_str()) {
            eprintln!("unknown experiment id `{id}`; known ids: {EXPERIMENT_IDS:?}");
            std::process::exit(2);
        }
        let started = std::time::Instant::now();
        let outcome = run_experiment(id);
        let elapsed = started.elapsed();
        println!("{}", outcome.report);
        println!("   [{} completed in {:.2?}]\n", outcome.id, elapsed);
        if !outcome.all_ok() {
            failures += 1;
        }
        outcomes.push(outcome);
    }

    println!("==================================================");
    println!(
        "experiments run: {}, matching the paper: {}, mismatching: {}",
        outcomes.len(),
        outcomes.len() - failures,
        failures
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
