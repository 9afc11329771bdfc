//! Command-line argument parsing for the `gdlog` binary.
//!
//! Hand-rolled (the build environment is offline, so no `clap`); the grammar
//! is small and fully deterministic:
//!
//! ```text
//! gdlog [run] <file.gdl> [flags]   evaluate a scenario
//! gdlog serve [flags]              resident server over the wire protocol
//! gdlog check <file.gdl>           parse + validate only
//! gdlog fmt <file.gdl>             reprint in canonical surface syntax
//! gdlog --help | --version
//! ```
//!
//! The run flags are the shared grammar of [`gdlog_server::flags`] — the
//! same parser serves the CLI and the wire `QUERY` command, so the two
//! front-ends cannot drift.

use gdlog_server::flags::{parse_query_flags, parse_threads, QueryFlags};
use gdlog_server::ServeConfig;

/// What the invocation asked for.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Evaluate a scenario end to end (boxed: the options dwarf the other
    /// variants).
    Run(Box<RunOptions>),
    /// Start the resident server.
    Serve(ServeConfig),
    /// Parse and validate, reporting rule/fact counts.
    Check {
        /// Path to the `.gdl` file.
        path: String,
        /// Also run the full static-analysis lint pass (`--lint`).
        lint: bool,
        /// Treat warnings as errors for the exit code (`--deny-warnings`).
        deny_warnings: bool,
    },
    /// Run the full static-analysis lint pass (safety, chase termination,
    /// stratifiability, independence, hygiene).
    Lint {
        /// Path to the `.gdl` file.
        path: String,
        /// Emit the machine-readable JSON lint report.
        json: bool,
        /// Treat warnings as errors for the exit code.
        deny_warnings: bool,
    },
    /// Reprint the program in canonical surface syntax.
    Fmt {
        /// Path to the `.gdl` file.
        path: String,
    },
    /// Print usage.
    Help,
    /// Print the version.
    Version,
}

/// Options for `gdlog run`: the scenario path plus the shared query flags.
#[derive(Clone, Debug, PartialEq)]
pub struct RunOptions {
    /// Path to the `.gdl` scenario file.
    pub path: String,
    /// The shared run/query flag set (grounder, strategy, budgets, queries,
    /// Monte-Carlo parameters, output format).
    pub flags: QueryFlags,
}

/// The usage text printed by `--help` and on argument errors.
pub const USAGE: &str = "\
gdlog — Generative Datalog with stable negation (GDatalog¬[Δ])

USAGE:
    gdlog [run] <file.gdl> [flags]   evaluate a scenario
    gdlog serve [flags]              resident server: sessions over a wire
                                     protocol, warm compiled-program cache
    gdlog check <file.gdl>           parse + validate only
    gdlog lint <file.gdl>            static analysis: safety, termination,
                                     stratifiability, independence, hygiene
    gdlog fmt <file.gdl>             reprint in canonical surface syntax
    gdlog --help | --version

CHECK FLAGS:
    --lint                     also run the full lint pass after validation
    --deny-warnings            exit nonzero on lint warnings

LINT FLAGS:
    --json                     machine-readable JSON lint report
    --deny-warnings            exit nonzero on warnings

SERVE FLAGS:
    --addr <A>                 bind address            (default 127.0.0.1:7171)
    --threads <N>              worker threads (0 = all cores; default:
                               the GDLOG_THREADS environment variable, else 1)
    --max-inflight <N>         concurrent solves admitted      (default 4)
    --max-queued <N>           queries queued beyond that, then rejected
                               with a typed `overloaded` error (default 16)
    --timeout-ms <N>           default per-query deadline; queries degrade
                               gracefully (exact residual mass, marked
                               interrupted) or return `deadline-exceeded`
    --io-timeout-ms <N>        tear down connections stalled or idle for N ms

RUN FLAGS:
    --json                     machine-readable JSON report
    --strategy <S>             flat | factored | auto       (default flat)
                               factored: chase independent components
                               separately and answer from the product of
                               their outcome spaces; auto: let the static
                               analysis pick
    --factored                 alias for --strategy factored
    --grounder <G>             simple | perfect | auto      (default simple)
    --threads <N>              worker threads (0 = all cores; default:
                               the GDLOG_THREADS environment variable, else 1)
    --trigger-order <O>        first | last | scrambled     (default first)
    --max-outcomes <N>         chase budget: outcomes to enumerate
    --max-depth <N>            chase budget: Δ-depth per path
    --max-branching <N>        chase budget: branching per Δ-term
    --min-path-prob <P>        chase budget: drop paths below mass P
    --max-models <N>           stable-model cap per outcome
    --max-branch-atoms <N>     stable-model branching-atom cap
    --query <Atom>             ground atom: report brave/cautious probability
                               (repeatable)
    --given <Atom>             condition every --query on this ground atom
    --marginal <Pred>          report marginals of every atom of a predicate
                               (repeatable)
    --top <K>                  report the K most probable events
    --mc <N>                   Monte-Carlo estimate each --query with N samples
    --seed <S>                 Monte-Carlo seed                (default 0)
    --max-triggers <N>         Monte-Carlo per-walk trigger cap (default 64)
    --timeout-ms <N>           per-query deadline: degrade gracefully with
                               exact residual mass, or a typed interruption
";

fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
    let raw = value.ok_or_else(|| format!("flag `{flag}` expects a value"))?;
    raw.parse::<T>()
        .map_err(|_| format!("invalid value `{raw}` for flag `{flag}`"))
}

fn parse_serve(rest: &[String]) -> Result<ServeConfig, String> {
    let mut config = ServeConfig::default();
    let mut i = 0;
    while i < rest.len() {
        let a = &rest[i];
        let value = rest.get(i + 1);
        match a.as_str() {
            "--addr" => {
                config.addr = value.ok_or("flag `--addr` expects a value")?.clone();
                i += 2;
            }
            "--threads" => {
                config.threads = Some(parse_threads(a, value.map(String::as_str))?);
                i += 2;
            }
            "--max-inflight" => {
                config.max_inflight = parse_value(a, value)?;
                i += 2;
            }
            "--max-queued" => {
                config.max_queued = parse_value(a, value)?;
                i += 2;
            }
            "--timeout-ms" => {
                config.timeout_ms = Some(parse_value(a, value)?);
                i += 2;
            }
            "--io-timeout-ms" => {
                config.io_timeout_ms = Some(parse_value(a, value)?);
                i += 2;
            }
            other => return Err(format!("`gdlog serve` does not take `{other}`")),
        }
    }
    Ok(config)
}

/// Parse command-line arguments (excluding the program name).
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(Command::Help);
    }
    if args.iter().any(|a| a == "--version" || a == "-V") {
        return Ok(Command::Version);
    }

    // Subcommand detection: `run` is optional; `serve` takes no path;
    // `fmt` takes no flags; `check`/`lint` take only their own small sets.
    let (verb, rest) = match args[0].as_str() {
        v @ ("run" | "serve" | "check" | "lint" | "fmt") => (v, &args[1..]),
        _ => ("run", args),
    };

    if verb == "serve" {
        return Ok(Command::Serve(parse_serve(rest)?));
    }

    if verb == "run" {
        let (flags, positionals) = parse_query_flags(rest)?;
        let mut positionals = positionals.into_iter();
        let path = positionals
            .next()
            .ok_or_else(|| "missing <file.gdl> argument".to_owned())?;
        if let Some(extra) = positionals.next() {
            return Err(format!("unexpected argument `{extra}`"));
        }
        return Ok(Command::Run(Box::new(RunOptions { path, flags })));
    }

    let mut path: Option<String> = None;
    let mut json = false;
    let mut lint_flag = false;
    let mut deny_warnings = false;
    for a in rest {
        if !a.starts_with("--") {
            if path.is_some() {
                return Err(format!("unexpected argument `{a}`"));
            }
            path = Some(a.clone());
            continue;
        }
        if verb == "fmt" {
            return Err(format!("`gdlog fmt` takes no flags (got `{a}`)"));
        }
        match a.as_str() {
            "--lint" if verb == "check" => lint_flag = true,
            "--json" if verb == "lint" => json = true,
            "--deny-warnings" => deny_warnings = true,
            other => return Err(format!("`gdlog {verb}` does not take `{other}`")),
        }
    }
    let path = path.ok_or_else(|| "missing <file.gdl> argument".to_owned())?;
    match verb {
        "check" => Ok(Command::Check {
            path,
            lint: lint_flag,
            deny_warnings,
        }),
        "lint" => Ok(Command::Lint {
            path,
            json,
            deny_warnings,
        }),
        _ => Ok(Command::Fmt { path }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdlog_core::api::SolveStrategy;
    use gdlog_core::{ChaseBudget, GrounderChoice};

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_run_with_flags() {
        let cmd = parse_args(&args(&[
            "run",
            "scenarios/coin.gdl",
            "--json",
            "--factored",
            "--grounder",
            "auto",
            "--query",
            "Coin(1)",
            "--top",
            "4",
            "--seed",
            "7",
        ]))
        .unwrap();
        let Command::Run(o) = cmd else {
            panic!("expected run")
        };
        assert_eq!(o.path, "scenarios/coin.gdl");
        assert!(o.flags.json);
        assert_eq!(o.flags.strategy, SolveStrategy::Factored);
        assert_eq!(o.flags.grounder, GrounderChoice::Auto);
        assert_eq!(o.flags.queries, vec!["Coin(1)".to_owned()]);
        assert_eq!(o.flags.top, Some(4));
        assert_eq!(o.flags.seed, 7);
    }

    #[test]
    fn run_verb_is_optional() {
        let Command::Run(o) = parse_args(&args(&["x.gdl", "--mc", "100"])).unwrap() else {
            panic!("expected run")
        };
        assert_eq!(o.path, "x.gdl");
        assert_eq!(o.flags.mc, Some(100));
    }

    #[test]
    fn strategy_flag_and_factored_alias_agree() {
        let Command::Run(a) = parse_args(&args(&["x.gdl", "--strategy", "auto"])).unwrap() else {
            panic!("expected run")
        };
        assert_eq!(a.flags.strategy, SolveStrategy::Auto);
        let Command::Run(b) = parse_args(&args(&["x.gdl", "--factored"])).unwrap() else {
            panic!("expected run")
        };
        assert_eq!(b.flags.strategy, SolveStrategy::Factored);
    }

    #[test]
    fn parses_serve_flags() {
        let Command::Serve(config) = parse_args(&args(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "2",
            "--max-inflight",
            "8",
            "--max-queued",
            "3",
            "--timeout-ms",
            "1500",
            "--io-timeout-ms",
            "30000",
        ]))
        .unwrap() else {
            panic!("expected serve")
        };
        assert_eq!(config.addr, "127.0.0.1:0");
        assert_eq!(config.threads, Some(2));
        assert_eq!((config.max_inflight, config.max_queued), (8, 3));
        assert_eq!(config.timeout_ms, Some(1500));
        assert_eq!(config.io_timeout_ms, Some(30000));
        // Defaults, and the flag set is closed.
        let Command::Serve(d) = parse_args(&args(&["serve"])).unwrap() else {
            panic!("expected serve")
        };
        assert_eq!(d, ServeConfig::default());
        assert!(parse_args(&args(&["serve", "--query", "X"])).is_err());
        // Thread counts share the run grammar's cap.
        let err = parse_args(&args(&["serve", "--threads", "200000"])).unwrap_err();
        assert!(err.contains("invalid value `200000`"), "{err}");
    }

    #[test]
    fn check_and_fmt_take_no_flags() {
        assert_eq!(
            parse_args(&args(&["check", "x.gdl"])).unwrap(),
            Command::Check {
                path: "x.gdl".into(),
                lint: false,
                deny_warnings: false,
            }
        );
        assert!(parse_args(&args(&["fmt", "x.gdl", "--json"])).is_err());
    }

    #[test]
    fn lint_and_check_flag_sets() {
        assert_eq!(
            parse_args(&args(&["lint", "x.gdl", "--json", "--deny-warnings"])).unwrap(),
            Command::Lint {
                path: "x.gdl".into(),
                json: true,
                deny_warnings: true,
            }
        );
        assert_eq!(
            parse_args(&args(&["check", "x.gdl", "--lint"])).unwrap(),
            Command::Check {
                path: "x.gdl".into(),
                lint: true,
                deny_warnings: false,
            }
        );
        // `--lint` belongs to check, `--json` to lint; the run flags belong
        // to neither.
        assert!(parse_args(&args(&["lint", "x.gdl", "--lint"])).is_err());
        assert!(parse_args(&args(&["check", "x.gdl", "--json"])).is_err());
        assert!(parse_args(&args(&["lint", "x.gdl", "--top", "3"])).is_err());
    }

    #[test]
    fn help_version_and_errors() {
        assert_eq!(parse_args(&args(&["--help"])).unwrap(), Command::Help);
        assert_eq!(parse_args(&args(&["-V"])).unwrap(), Command::Version);
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert!(parse_args(&args(&["a.gdl", "b.gdl"])).is_err());
        assert!(parse_args(&args(&["a.gdl", "--grounder", "quantum"])).is_err());
        assert!(parse_args(&args(&["a.gdl", "--top"])).is_err());
        assert!(parse_args(&args(&["a.gdl", "--frobnicate"])).is_err());
    }

    #[test]
    fn budget_and_limits_overrides() {
        let Command::Run(o) = parse_args(&args(&[
            "x.gdl",
            "--max-outcomes",
            "10",
            "--max-branching",
            "8",
            "--min-path-prob",
            "0.001",
            "--max-models",
            "50",
        ]))
        .unwrap() else {
            panic!("expected run")
        };
        let b = o.flags.budget();
        assert_eq!(b.max_outcomes, 10);
        assert_eq!(b.max_branching, 8);
        assert!((b.min_path_probability - 0.001).abs() < 1e-12);
        assert_eq!(b.max_depth, ChaseBudget::default().max_depth);
        assert_eq!(o.flags.limits().max_models, 50);
    }
}
