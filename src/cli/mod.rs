//! The `gdlog` command-line interface.
//!
//! `gdlog run scenario.gdl` compiles the scenario into a warm
//! [`gdlog_core::api::Solver`] and dispatches one unified
//! [`gdlog_core::api::QueryRequest`] at it — exactly the path a resident
//! `gdlog serve` session takes, so a one-shot run and a served query produce
//! byte-identical reports. The report prints as text or, with `--json`, in
//! the deterministic golden-file format of the scenario corpus. Parse,
//! validation and stratification errors are rendered as caret diagnostics
//! pointing into the source file (via [`gdlog_server::compile`], shared with
//! the server).
//!
//! The entire interface is exposed as a library (`main_with`) so the
//! integration tests drive it in-process with captured output.

pub mod args;
pub mod lint;
pub mod serve;

use args::{Command, RunOptions, USAGE};
use gdlog_core::api::QueryResponse;
use gdlog_core::{Executor, Severity};
use gdlog_parser::pretty::{pretty_atom, pretty_database, pretty_rule};
use gdlog_parser::{parse_source, render_diagnostic_with, RuleAst};
use gdlog_server::{compile_source, render_core_error};
use lint::LintOutcome;
use std::io::Write;
use std::sync::Arc;

/// Run the CLI against an argument list (excluding the program name),
/// writing to the given streams. Returns the process exit code: 0 on
/// success, 1 on evaluation errors, 2 on usage errors.
pub fn main_with(argv: &[String], stdout: &mut dyn Write, stderr: &mut dyn Write) -> i32 {
    let command = match args::parse_args(argv) {
        Ok(c) => c,
        Err(message) => {
            let _ = write!(stderr, "error: {message}\n\n{USAGE}");
            return 2;
        }
    };
    match command {
        Command::Help => {
            let _ = write!(stdout, "{USAGE}");
            0
        }
        Command::Version => {
            let _ = writeln!(stdout, "gdlog {}", crate::VERSION);
            0
        }
        Command::Check {
            path,
            lint: with_lint,
            deny_warnings,
        } => check_command(&path, with_lint, deny_warnings, stdout, stderr),
        Command::Lint {
            path,
            json,
            deny_warnings,
        } => lint_command(&path, json, deny_warnings, stdout, stderr),
        Command::Fmt { path } => match format_file(&path) {
            Ok(text) => {
                let _ = write!(stdout, "{text}");
                0
            }
            Err(rendered) => {
                let _ = write!(stderr, "{rendered}");
                1
            }
        },
        Command::Serve(config) => serve::serve_command(&config, stdout, stderr),
        Command::Run(options) => match execute_run(&options) {
            Ok(report) => {
                if options.flags.json {
                    let _ = write!(stdout, "{}", report.render_json());
                } else {
                    let _ = write!(stdout, "{}", report.render_text());
                }
                0
            }
            Err(rendered) => {
                let _ = write!(stderr, "{rendered}");
                1
            }
        },
    }
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("error: cannot read {path}: {e}\n"))
}

/// `gdlog check`: parse + validate (all diagnostics, span-ordered); with
/// `--lint`, run the full static-analysis pass as well.
fn check_command(
    path: &str,
    with_lint: bool,
    deny_warnings: bool,
    stdout: &mut dyn Write,
    stderr: &mut dyn Write,
) -> i32 {
    let source = match read_file(path) {
        Ok(s) => s,
        Err(rendered) => {
            let _ = write!(stderr, "{rendered}");
            return 1;
        }
    };
    let outcome = match lint::lint_source(path, &source) {
        Ok(o) => o,
        Err(rendered) => {
            let _ = write!(stderr, "{rendered}");
            return 1;
        }
    };
    // Plain `check` reports validation errors only; `--lint` (or a
    // `--deny-warnings` gate, which must show what it gates on) reports
    // everything.
    render_findings(
        &outcome,
        !with_lint && !deny_warnings,
        path,
        &source,
        stderr,
    );
    let code = outcome.exit_code(deny_warnings);
    if code == 0 {
        let _ = writeln!(
            stdout,
            "ok: {path}: {} rules, {} facts, stratified: {}",
            outcome.rules,
            outcome.facts,
            if outcome.stratified { "yes" } else { "no" }
        );
        if with_lint {
            let _ = writeln!(stdout, "{}", outcome.summary(path));
        }
    }
    code
}

/// `gdlog lint`: the full static-analysis pass, as caret diagnostics plus a
/// summary line, or as the deterministic JSON report with `--json`.
fn lint_command(
    path: &str,
    json: bool,
    deny_warnings: bool,
    stdout: &mut dyn Write,
    stderr: &mut dyn Write,
) -> i32 {
    let source = match read_file(path) {
        Ok(s) => s,
        Err(rendered) => {
            let _ = write!(stderr, "{rendered}");
            return 1;
        }
    };
    let outcome = match lint::lint_source(path, &source) {
        Ok(o) => o,
        Err(rendered) => {
            let _ = write!(stderr, "{rendered}");
            return 1;
        }
    };
    if json {
        let _ = write!(stdout, "{}", outcome.render_json(path));
    } else {
        render_findings(&outcome, false, path, &source, stderr);
        let _ = writeln!(stdout, "{}", outcome.summary(path));
    }
    outcome.exit_code(deny_warnings)
}

/// Render lint findings as caret diagnostics (errors only when
/// `errors_only`, e.g. for plain `gdlog check`).
fn render_findings(
    outcome: &LintOutcome,
    errors_only: bool,
    path: &str,
    source: &str,
    stderr: &mut dyn Write,
) {
    for f in &outcome.findings {
        if errors_only && f.severity != Severity::Error {
            continue;
        }
        let _ = write!(
            stderr,
            "{}",
            render_diagnostic_with(
                f.severity.label(),
                &format!("{} [{}]", f.message, f.code),
                path,
                source,
                f.line,
                f.column,
            )
        );
    }
}

fn format_file(path: &str) -> Result<String, String> {
    let source = read_file(path)?;
    let parsed = parse_source(&source).map_err(|e| e.render(path, &source))?;
    let mut out = String::new();
    // `%!` lines are scenario directives (`%! args:`, `%! expect:`), not
    // ordinary comments: the corpus harness executes them, so reformatting
    // must carry them through verbatim (in order, hoisted to the top).
    for line in source.lines() {
        if line.trim_start().starts_with("%!") {
            out.push_str(line.trim_start());
            out.push('\n');
        }
    }
    if !out.is_empty() {
        out.push('\n');
    }
    for statement in &parsed.statements {
        match statement {
            RuleAst::Rule(rule) => {
                out.push_str(&pretty_rule(rule));
                out.push('\n');
            }
            RuleAst::Constraint { pos, neg } => {
                let mut parts: Vec<String> = pos.iter().map(pretty_atom).collect();
                parts.extend(neg.iter().map(|a| format!("not {}", pretty_atom(a))));
                out.push_str(&parts.join(", "));
                out.push_str(" -> false.\n");
            }
        }
    }
    if !parsed.facts.is_empty() {
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str(&pretty_database(&parsed.facts));
    }
    Ok(out)
}

/// Evaluate a scenario end to end: compile into a [`gdlog_core::api::Solver`]
/// and dispatch the flags as one unified request — the same code path a
/// resident server session runs, minus the wire. Errors come back fully
/// rendered (diagnostics included) and ready to print.
pub fn execute_run(o: &RunOptions) -> Result<QueryResponse, String> {
    let source = read_file(&o.path)?;
    let executor = Arc::new(match o.flags.threads {
        Some(n) => Executor::new(n),
        None => Executor::from_env(),
    });
    let (solver, loaded) = compile_source(&o.path, &source, executor)?;
    let request = o
        .flags
        .to_request()
        .map_err(|msg| format!("error: {msg}\n"))?;
    solver
        .query(&request)
        .map_err(|e| render_core_error(&e, &o.path, &source, &loaded))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cli(argv: &[&str]) -> (i32, String, String) {
        let args: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        let mut err = Vec::new();
        let code = main_with(&args, &mut out, &mut err);
        (
            code,
            String::from_utf8(out).expect("utf8 stdout"),
            String::from_utf8(err).expect("utf8 stderr"),
        )
    }

    fn temp_scenario(name: &str, text: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("gdlog-cli-unit");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join(name);
        std::fs::write(&path, text).expect("write scenario");
        path
    }

    #[test]
    fn help_version_and_usage_errors() {
        let (code, out, _) = run_cli(&["--help"]);
        assert_eq!(code, 0);
        assert!(out.contains("USAGE"));
        assert!(out.contains("serve"), "{out}");
        let (code, out, _) = run_cli(&["--version"]);
        assert_eq!(code, 0);
        assert!(out.starts_with("gdlog "));
        let (code, _, err) = run_cli(&["--frobnicate"]);
        assert_eq!(code, 2);
        assert!(err.contains("unknown flag"));
        // A pool this large would abort the process; it is refused up front.
        let (code, _, err) = run_cli(&["scenarios/coin.gdl", "--threads", "200000"]);
        assert_eq!(code, 2);
        assert!(err.contains("`--threads`"), "{err}");
    }

    #[test]
    fn run_reports_the_coin_program() {
        let path = temp_scenario(
            "coin_unit.gdl",
            "-> Coin(Flip<0.5>).\nCoin(0) -> false.\nCoin(1), not Aux1 -> Aux2.\nCoin(1), not Aux2 -> Aux1.\n",
        );
        let (code, out, err) =
            run_cli(&[path.to_str().unwrap(), "--query", "Coin(1)", "--top", "4"]);
        assert_eq!(code, 0, "stderr: {err}");
        assert!(out.contains("P(stable model exists) = 1/2"), "{out}");
        assert!(
            out.contains("query Coin(1): brave 1/2, cautious 1/2"),
            "{out}"
        );

        let (code, json_out, _) = run_cli(&[path.to_str().unwrap(), "--json"]);
        assert_eq!(code, 0);
        assert!(json_out.contains("\"p_stable\""));
        assert!(json_out.contains("\"text\": \"1/2\""));
    }

    #[test]
    fn strategy_auto_matches_flat_output() {
        let path = temp_scenario("auto_unit.gdl", "-> Coin(Flip<0.5>).\nCoin(0) -> false.\n");
        let (code, flat, _) = run_cli(&[path.to_str().unwrap(), "--json"]);
        assert_eq!(code, 0);
        let (code, auto, _) = run_cli(&[path.to_str().unwrap(), "--json", "--strategy", "auto"]);
        assert_eq!(code, 0);
        // The single-Δ-trigger certificate routes `auto` to the flat solve.
        assert_eq!(flat, auto);
        assert!(flat.contains("\"analysis\": \"flat\""), "{flat}");
    }

    #[test]
    fn missing_file_and_bad_atom_are_reported() {
        let (code, _, err) = run_cli(&["/nonexistent/nope.gdl"]);
        assert_eq!(code, 1);
        assert!(err.contains("cannot read"));

        let path = temp_scenario("atom_unit.gdl", "-> Coin(Flip<0.5>).\n");
        let (code, _, err) = run_cli(&[path.to_str().unwrap(), "--query", "lower(1)"]);
        assert_eq!(code, 1);
        assert!(err.contains("invalid ground atom"), "{err}");
    }

    #[test]
    fn check_and_fmt_work() {
        let path = temp_scenario(
            "fmt_unit.gdl",
            "% comment\nA(x),not B(x)->C(x).  Edge(1,2).\nA(x),B(x)->false.\n",
        );
        let (code, out, _) = run_cli(&["check", path.to_str().unwrap()]);
        assert_eq!(code, 0);
        assert!(out.contains("rules"), "{out}");

        let (code, out, _) = run_cli(&["fmt", path.to_str().unwrap()]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("A(x), not B(x) -> C(x).\n"), "{out}");
        assert!(out.contains("A(x), B(x) -> false.\n"), "{out}");
        assert!(out.contains("Edge(1, 2).\n"), "{out}");
    }

    #[test]
    fn parse_errors_render_carets() {
        let path = temp_scenario("diag_unit.gdl", "A(x) -> B(x)\n");
        let (code, _, err) = run_cli(&[path.to_str().unwrap()]);
        assert_eq!(code, 1);
        assert!(err.starts_with("error: "), "{err}");
        assert!(err.contains("-->"), "{err}");
        assert!(err.contains('^'), "{err}");
    }
}
