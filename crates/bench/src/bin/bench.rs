//! The one benchmark driver of the workspace: `bench <suite> [--full]
//! [--threads N] [--out PATH] [--gate]` runs a perf-tracker suite and
//! `bench experiments [e1 …]` the paper-vs-measured experiments. Exit codes:
//! 2 for a malformed command line, 1 for a failed floor under `--gate` or an
//! experiment that disagrees with the paper, 0 otherwise.

use gdlog_bench::experiments::run_experiment;
use gdlog_bench::harness::{self, Command, USAGE};
use gdlog_core::THREADS_ENV;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let env_threads = std::env::var(THREADS_ENV).ok();
    let command = harness::parse(&args, env_threads.as_deref()).unwrap_or_else(|error| {
        eprintln!("bench: {error}\n{USAGE}");
        std::process::exit(2);
    });
    let code = match command {
        Command::Suite(config) => harness::finish(&config, (config.suite.run)(&config)),
        Command::Experiments(ids) => experiments(&ids),
    };
    std::process::exit(code);
}

/// Run and print each experiment; `1` when any disagrees with the paper.
fn experiments(ids: &[String]) -> i32 {
    let mut failures = 0usize;
    for id in ids {
        let started = std::time::Instant::now();
        let outcome = run_experiment(id);
        println!("{}", outcome.report);
        println!(
            "   [{} completed in {:.2?}]\n",
            outcome.id,
            started.elapsed()
        );
        if !outcome.all_ok() {
            failures += 1;
        }
    }
    println!("==================================================");
    println!(
        "experiments run: {}, matching the paper: {}, mismatching: {failures}",
        ids.len(),
        ids.len() - failures,
    );
    i32::from(failures > 0)
}
