//! The shared harness of the `bench` driver: one flag grammar ([`USAGE`]),
//! one timer, one JSON header and writer, and one `--gate` that turns a
//! suite's acceptance floor from a warning into a failing exit code.

use crate::experiments::EXPERIMENT_IDS;
use crate::suites;
use gdlog_core::api::Json;
use gdlog_core::THREADS_ENV;
use gdlog_server::flags::parse_threads;
use std::time::Instant;

/// The one-line usage the driver prints on a malformed command line.
pub const USAGE: &str = "usage: bench <grounding|chase|stable|factor|serve> [--full] \
                         [--threads N] [--out PATH] [--gate]\n       bench experiments [e1 …]";

/// One perf-tracker suite of the driver.
pub struct Suite {
    /// The suite's command-line name.
    pub name: &'static str,
    /// The `bench` value of the suite's JSON header.
    label: &'static str,
    /// Whether the suite has a full measurement scale (`--full`).
    takes_full: bool,
    /// The thread count when neither `--threads` nor `GDLOG_THREADS` sets
    /// one; `None` for a suite that runs on the calling thread only and so
    /// takes no `--threads`.
    default_threads: Option<usize>,
    /// Run the suite.
    pub run: fn(&Config) -> Outcome,
}

/// Every suite. The server replays corpus scenarios at their one size on
/// one worker; the parallel columns of the others default to four.
pub const SUITES: [Suite; 5] = [
    Suite {
        name: "grounding",
        label: "grounding_seminaive",
        takes_full: true,
        default_threads: None,
        run: suites::grounding::run,
    },
    Suite {
        name: "chase",
        label: "chase_incremental",
        takes_full: true,
        default_threads: Some(4),
        run: suites::chase::run,
    },
    Suite {
        name: "stable",
        label: "stable_backend",
        takes_full: true,
        default_threads: Some(4),
        run: suites::stable::run,
    },
    Suite {
        name: "factor",
        label: "factorized_spaces",
        takes_full: true,
        default_threads: Some(4),
        run: suites::factor::run,
    },
    Suite {
        name: "serve",
        label: "resident_server",
        takes_full: false,
        default_threads: Some(1),
        run: suites::serve::run,
    },
];

/// A parsed suite run.
pub struct Config {
    /// The suite to run.
    pub suite: &'static Suite,
    /// Full measurement scale instead of the CI-smoke scale.
    pub full: bool,
    /// Worker threads for the suite's parallel paths (resolved: never 0).
    pub threads: usize,
    /// Where the JSON summary is written.
    pub out: String,
    /// Exit non-zero when the suite's acceptance floor fails.
    pub gate: bool,
}

/// A parsed command line.
pub enum Command {
    /// Run one perf-tracker suite.
    Suite(Config),
    /// Run the named paper-vs-measured experiments (all when none is named).
    Experiments(Vec<String>),
}

/// Parse the driver's arguments (without the program name). `env_threads`
/// is the value of `GDLOG_THREADS`, read by the rule of
/// `Executor::from_env`: a value that does not parse or exceeds
/// `MAX_THREADS` is ignored, and the suite's default applies.
pub fn parse(args: &[String], env_threads: Option<&str>) -> Result<Command, String> {
    let (name, rest) = args.split_first().ok_or("missing suite name")?;
    if name == "experiments" {
        if let Some(id) = rest
            .iter()
            .find(|id| !EXPERIMENT_IDS.contains(&id.as_str()))
        {
            return Err(format!(
                "unknown experiment id `{id}`; known ids: {EXPERIMENT_IDS:?}"
            ));
        }
        let ids = if rest.is_empty() {
            EXPERIMENT_IDS.iter().map(|id| id.to_string()).collect()
        } else {
            rest.to_vec()
        };
        return Ok(Command::Experiments(ids));
    }
    let suite = SUITES
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown suite `{name}`"))?;

    let (mut full, mut gate, mut threads, mut out) = (false, false, None, None);
    let mut rest = rest.iter().map(String::as_str);
    while let Some(flag) = rest.next() {
        match flag {
            "--full" if suite.takes_full => full = true,
            "--threads" if suite.default_threads.is_some() => {
                threads = Some(parse_threads(flag, rest.next())?)
            }
            "--out" => {
                let path = rest
                    .next()
                    .ok_or_else(|| format!("flag `{flag}` expects a value"))?;
                out = Some(path.to_owned());
            }
            "--gate" => gate = true,
            "--full" | "--threads" => {
                return Err(format!("flag `{flag}` does not apply to `bench {name}`"))
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let threads = match suite.default_threads {
        None => 1,
        Some(default) => {
            let env = env_threads.and_then(|v| parse_threads(THREADS_ENV, Some(v.trim())).ok());
            match threads.or(env).unwrap_or(default) {
                0 => available_parallelism(),
                n => n,
            }
        }
    };
    Ok(Command::Suite(Config {
        suite,
        full,
        threads,
        out: out.unwrap_or_else(|| format!("BENCH_{name}.json")),
        gate,
    }))
}

/// What one suite run hands back to the driver.
pub struct Outcome {
    /// The suite's summary fields, written after the shared header.
    pub fields: Vec<(&'static str, Json)>,
    /// The suite's acceptance floor: `Err` names the bound that was missed.
    pub floor: Result<(), String>,
}

/// Run the suite and [`finish`] it, warning first on stderr when the
/// thread count oversubscribes the machine.
pub fn run(config: &Config) -> i32 {
    let available = available_parallelism();
    if config.threads > available {
        eprintln!(
            "WARNING: {} threads on {available} available cores: parallel timings \
             are oversubscribed and spread widely between runs",
            config.threads
        );
    }
    finish(config, (config.suite.run)(config))
}

/// The JSON header every suite summary starts with. `oversubscribed`
/// appears, as `true`, only when the thread count exceeds `available`.
fn header(config: &Config, available: usize) -> Vec<(&'static str, Json)> {
    let mut header = vec![
        ("bench", Json::str(config.suite.label)),
        (
            "scale",
            Json::str(if config.full { "full" } else { "small" }),
        ),
        ("threads", int(config.threads)),
        ("available_parallelism", int(available)),
    ];
    if config.threads > available {
        header.push(("oversubscribed", Json::Bool(true)));
    }
    header
}

/// Write the summary, print it, and return the exit code: `1` when the
/// floor failed under `--gate`, `0` otherwise (a failed floor without
/// `--gate` only warns).
pub fn finish(config: &Config, outcome: Outcome) -> i32 {
    let header = header(config, available_parallelism());
    let json = Json::obj(header.into_iter().chain(outcome.fields)).render();
    std::fs::write(&config.out, &json)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", config.out));
    eprintln!("wrote {}", config.out);
    println!("{json}");
    match outcome.floor {
        Ok(()) => 0,
        Err(why) if config.gate => {
            eprintln!("FAIL: {why}");
            1
        }
        Err(why) => {
            eprintln!("WARNING: {why} (not gated; pass --gate to enforce)");
            0
        }
    }
}

/// The machine's available parallelism (1 when it cannot be read).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A timing, speedup or rate, rounded to 3 decimals.
pub fn num(x: f64) -> Json {
    Json::Float((x * 1e3).round() / 1e3)
}

/// A count.
pub fn int<T: TryInto<i128>>(n: T) -> Json {
    Json::Int(n.try_into().ok().expect("count fits in i128"))
}

/// Minimum wall-clock of `f` over `reps` runs, in milliseconds.
pub fn time_min_ms<F: FnMut() -> usize>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(elapsed_ms(start));
    }
    best
}

/// Median and interquartile range (nearest-rank quartiles) of the
/// wall-clock of `f` over `reps` runs, in milliseconds.
pub fn time_median_iqr_ms<F: FnMut() -> usize>(reps: usize, mut f: F) -> (f64, f64) {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            elapsed_ms(start)
        })
        .collect();
    let iqr = percentile(&times, 75.0) - percentile(&times, 25.0);
    (percentile(&times, 50.0), iqr)
}

/// Milliseconds since `start`.
pub fn elapsed_ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// The given percentile (0–100) of a latency sample, by nearest rank.
pub fn percentile(latencies_ms: &[f64], p: f64) -> f64 {
    let mut sorted = latencies_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// The floor shared by the stable, factor and serve suites: at least two
/// workloads reach `bound`.
pub fn two_reach(
    values: impl IntoIterator<Item = f64>,
    bound: f64,
    what: &str,
) -> Result<(), String> {
    let reached = values.into_iter().filter(|v| *v >= bound).count();
    if reached >= 2 {
        Ok(())
    } else {
        Err(format!(
            "{reached} workload(s) reached the {bound}x {what} floor; at least two must"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdlog_core::MAX_THREADS;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    fn config(line: &str, env: Option<&str>) -> Config {
        match parse(&args(line), env) {
            Ok(Command::Suite(config)) => config,
            Ok(Command::Experiments(_)) => panic!("`{line}` parsed as experiments"),
            Err(error) => panic!("`{line}`: {error}"),
        }
    }

    #[test]
    fn rejects_unknown_flags_missing_values_and_foreign_flags() {
        let err = |line: &str| match parse(&args(line), None) {
            Err(error) => error,
            Ok(_) => panic!("`{line}` parsed"),
        };
        assert_eq!(err("chase --thread 4"), "unknown flag `--thread`");
        assert_eq!(err("grounding --ful"), "unknown flag `--ful`");
        assert_eq!(err("chase --out"), "flag `--out` expects a value");
        assert_eq!(err("chase --threads"), "flag `--threads` expects a value");
        assert_eq!(
            err("stable --threads four"),
            "invalid value `four` for flag `--threads`"
        );
        assert_eq!(
            err("stable --threads 1025"),
            format!("invalid value `1025` for flag `--threads` (at most {MAX_THREADS})")
        );
        assert_eq!(
            err("grounding --threads 2"),
            "flag `--threads` does not apply to `bench grounding`"
        );
        assert_eq!(
            err("serve --full"),
            "flag `--full` does not apply to `bench serve`"
        );
        assert_eq!(err("bogus"), "unknown suite `bogus`");
        assert!(err("experiments e1 e11").starts_with("unknown experiment id `e11`"));
        assert!(err("").contains("missing"));
    }

    #[test]
    fn defaults_per_suite() {
        for suite in &SUITES {
            let config = config(suite.name, None);
            assert_eq!(config.suite.name, suite.name);
            assert_eq!(config.out, format!("BENCH_{}.json", suite.name));
            assert!(!config.full && !config.gate);
        }
        assert_eq!(config("grounding", None).threads, 1);
        assert_eq!(config("chase", None).threads, 4);
        assert_eq!(config("stable", None).threads, 4);
        assert_eq!(config("factor", None).threads, 4);
        assert_eq!(config("serve", None).threads, 1);
        match parse(&args("experiments"), None) {
            Ok(Command::Experiments(ids)) => assert_eq!(ids, EXPERIMENT_IDS),
            _ => panic!("`experiments` runs every experiment"),
        }
    }

    #[test]
    fn threads_come_from_the_flag_then_the_environment_then_the_default() {
        let full = config("chase --full --threads 2 --gate --out x.json", Some("8"));
        assert_eq!(full.suite.name, "chase");
        assert!(full.full && full.gate);
        assert_eq!((full.threads, full.out.as_str()), (2, "x.json"));
        assert_eq!(config("stable", Some(" 8 ")).threads, 8);
        assert_eq!(config("serve", Some("2")).threads, 2);
        // Unparsable or over the cap: ignored, as `Executor::from_env` does.
        assert_eq!(config("factor", Some("many")).threads, 4);
        assert_eq!(config("factor", Some("1025")).threads, 4);
        // Grounding is single-threaded whatever the environment says.
        assert_eq!(config("grounding", Some("8")).threads, 1);
        // `0` means one thread per available CPU.
        assert_eq!(
            config("chase --threads 0", None).threads,
            available_parallelism()
        );
    }

    #[test]
    fn numbers_round_to_three_decimals() {
        assert_eq!(num(1.23456), Json::Float(1.235));
        assert_eq!(num(0.0004), Json::Float(0.0));
        assert_eq!(int(7usize), Json::Int(7));
    }

    #[test]
    fn the_header_flags_oversubscription_only_past_the_cores() {
        let flagged = |threads: &str, available: usize| {
            let config = config(&format!("chase --threads {threads}"), None);
            let header = header(&config, available);
            let keys: Vec<&str> = header.iter().map(|(key, _)| *key).collect();
            assert_eq!(
                keys[..4],
                ["bench", "scale", "threads", "available_parallelism"]
            );
            match header.iter().find(|(key, _)| *key == "oversubscribed") {
                Some((_, value)) => {
                    assert_eq!(*value, Json::Bool(true));
                    true
                }
                None => false,
            }
        };
        assert!(flagged("4", 2));
        assert!(flagged("3", 2));
        assert!(!flagged("2", 2));
        assert!(!flagged("1", 2));
        assert!(!flagged("4", 8));
    }

    #[test]
    fn two_reach_counts_values_at_the_bound() {
        assert!(two_reach([2.0, 2.0, 0.1], 2.0, "x").is_ok());
        assert!(two_reach([2.0, 1.999, 0.1], 2.0, "x").is_err());
    }
}
