//! The scenario corpus: every `scenarios/*.gdl` file is an end-to-end test.
//!
//! Each scenario carries `%!` directive comments:
//!
//! ```text
//! %! args: --grounder perfect --query SomeDimeTail --top 8
//! %! expect: outcomes = 5
//! %! expect: p_stable = 1
//! %! expect: brave SomeDimeTail = 3/4
//! ```
//!
//! The harness runs the file through the CLI's `execute_run` (the same code
//! path as the `gdlog` binary), checks every `expect:` line, and compares
//! the `--json` report byte-for-byte against `scenarios/golden/<name>.json`.
//! Regenerate goldens with `GDLOG_REGEN_GOLDEN=1 cargo test --test
//! scenario_corpus`.

mod common;

use common::{manifest_dir, scenario_files};
use gdlog::cli::args::{parse_args, Command};
use gdlog::cli::execute_run;
use gdlog_core::api::{QueryReport, QueryResponse};
use gdlog_core::{dime_quarter_program, GrounderChoice, Pipeline};
use gdlog_data::Database;

#[derive(Debug)]
enum Expect {
    Outcomes(u128),
    Events(u128),
    PStable(String),
    Residual(String),
    Truncated(bool),
    Brave(String, String),
    Cautious(String, String),
}

struct Directives {
    args: Vec<String>,
    expects: Vec<Expect>,
}

/// Normalise an atom written in directive syntax (`QuarterTail(3,1)`) to the
/// display form used in reports (`QuarterTail(3, 1)`).
fn canonical_atom(text: &str) -> String {
    let db = gdlog_parser::parse_database(&format!("{text}."))
        .unwrap_or_else(|e| panic!("directive atom `{text}` does not parse: {e}"));
    let atoms = db.canonical_atoms();
    assert_eq!(
        atoms.len(),
        1,
        "directive atom `{text}` is not a single atom"
    );
    atoms[0].to_string()
}

fn parse_directives(source: &str, name: &str) -> Directives {
    let mut args = Vec::new();
    let mut expects = Vec::new();
    for line in source.lines() {
        let Some(rest) = line.trim().strip_prefix("%!") else {
            continue;
        };
        let rest = rest.trim();
        if let Some(arg_text) = rest.strip_prefix("args:") {
            args.extend(arg_text.split_whitespace().map(str::to_owned));
        } else if let Some(expect_text) = rest.strip_prefix("expect:") {
            let (lhs, rhs) = expect_text
                .split_once('=')
                .unwrap_or_else(|| panic!("{name}: malformed expect `{expect_text}`"));
            let (lhs, rhs) = (lhs.trim(), rhs.trim().to_owned());
            let expect = match lhs {
                "outcomes" => Expect::Outcomes(rhs.parse().expect("outcome count")),
                "events" => Expect::Events(rhs.parse().expect("event count")),
                "p_stable" => Expect::PStable(rhs),
                "residual" => Expect::Residual(rhs),
                "truncated" => Expect::Truncated(rhs == "yes"),
                other => match other.split_once(' ') {
                    Some(("brave", atom)) => Expect::Brave(canonical_atom(atom), rhs),
                    Some(("cautious", atom)) => Expect::Cautious(canonical_atom(atom), rhs),
                    _ => panic!("{name}: unknown expect key `{other}`"),
                },
            };
            expects.push(expect);
        } else {
            panic!("{name}: unknown directive `%! {rest}`");
        }
    }
    Directives { args, expects }
}

/// Run a scenario through the CLI code path and return its report.
fn run_scenario(path: &str, extra_args: &[String]) -> QueryResponse {
    let mut argv = vec![path.to_owned()];
    argv.extend(extra_args.iter().cloned());
    let command = parse_args(&argv).unwrap_or_else(|e| panic!("{path}: bad args: {e}"));
    let Command::Run(options) = command else {
        panic!("{path}: directives must describe a run");
    };
    execute_run(&options).unwrap_or_else(|e| panic!("{path}: run failed:\n{e}"))
}

fn find_query<'a>(report: &'a QueryResponse, atom: &str, name: &str) -> &'a QueryReport {
    report
        .queries
        .iter()
        .find(|q| q.atom == atom)
        .unwrap_or_else(|| {
            panic!("{name}: expect references `{atom}` but it is not in `--query` args")
        })
}

fn check_expectations(name: &str, report: &QueryResponse, expects: &[Expect]) {
    assert!(
        !expects.is_empty(),
        "{name}: every scenario must declare at least one `%! expect:` line"
    );
    for expect in expects {
        match expect {
            Expect::Outcomes(n) => assert_eq!(report.outcomes, *n, "{name}: outcomes"),
            Expect::Events(n) => assert_eq!(report.events, *n, "{name}: events"),
            Expect::PStable(p) => {
                assert_eq!(&report.p_stable.to_string(), p, "{name}: p_stable")
            }
            Expect::Residual(p) => {
                assert_eq!(
                    &report.residual_mass.to_string(),
                    p,
                    "{name}: residual mass"
                )
            }
            Expect::Truncated(t) => assert_eq!(report.truncated, *t, "{name}: truncated"),
            Expect::Brave(atom, p) => {
                let q = find_query(report, atom, name);
                assert_eq!(&q.brave.to_string(), p, "{name}: brave {atom}");
            }
            Expect::Cautious(atom, p) => {
                let q = find_query(report, atom, name);
                assert_eq!(&q.cautious.to_string(), p, "{name}: cautious {atom}");
            }
        }
    }
}

fn check_golden(name: &str, report: &QueryResponse) {
    let golden_path = manifest_dir()
        .join("scenarios/golden")
        .join(format!("{name}.json"));
    let rendered = report.render_json();
    if std::env::var_os("GDLOG_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_path.parent().expect("golden dir")).expect("mkdir");
        std::fs::write(&golden_path, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|_| {
        panic!(
            "{name}: missing golden {}; regenerate with GDLOG_REGEN_GOLDEN=1",
            golden_path.display()
        )
    });
    assert_eq!(
        rendered, golden,
        "{name}: JSON report drifted from its golden; if intentional, \
         regenerate with GDLOG_REGEN_GOLDEN=1 cargo test --test scenario_corpus"
    );
}

#[test]
fn corpus_has_the_promised_breadth() {
    let files = scenario_files();
    assert!(
        files.len() >= 8,
        "the corpus promises at least 8 scenarios, found {}",
        files.len()
    );
    // At least two stable-negation game programs ride along.
    let games = files
        .iter()
        .filter(|(stem, _)| stem.starts_with("game_"))
        .count();
    assert!(games >= 2, "expected >= 2 game_* scenarios, found {games}");
}

#[test]
fn every_scenario_runs_and_matches_its_directives_and_golden() {
    let files = scenario_files();
    assert!(!files.is_empty());
    for (name, path) in &files {
        let source = std::fs::read_to_string(path).expect("scenario readable");
        let directives = parse_directives(&source, name);
        // Use a repo-relative, forward-slash path so goldens are portable.
        let rel = format!("scenarios/{name}.gdl");
        let report = run_scenario(&rel, &directives.args);
        check_expectations(name, &report, &directives.expects);
        check_golden(name, &report);
    }
}

/// The acceptance check of the PR: the CLI on `dime_quarter.gdl` reproduces
/// the builder-API pipeline on `dime_quarter_program()` byte for byte —
/// same fingerprint, same event listing, same probabilities.
#[test]
fn dime_quarter_cli_matches_the_builder_api_byte_for_byte() {
    let source = std::fs::read_to_string(manifest_dir().join("scenarios/dime_quarter.gdl"))
        .expect("scenario readable");
    let directives = parse_directives(&source, "dime_quarter");
    let report = run_scenario("scenarios/dime_quarter.gdl", &directives.args);

    // Builder-API path: the programmatic program over the same database.
    let program = dime_quarter_program();
    let mut db = Database::new();
    db.insert_fact("Dime", [1i64]);
    db.insert_fact("Dime", [2i64]);
    db.insert_fact("Quarter", [3i64]);
    let pipeline =
        Pipeline::with_grounder(&program, &db, GrounderChoice::Perfect).expect("pipeline");
    let space = pipeline.solve().expect("solve");

    assert_eq!(report.fingerprint, space.fingerprint(), "fingerprint");
    assert_eq!(
        report.p_stable.to_string(),
        space.has_stable_model_probability().to_string()
    );
    assert_eq!(report.outcomes, space.outcome_count() as u128);
    assert_eq!(report.events, space.event_count() as u128);

    // The --top 8 listing equals the full builder event listing, in order,
    // with identical display text for keys and masses.
    let builder_events: Vec<(String, String)> = space
        .events_by_mass()
        .iter()
        .map(|(key, mass)| (key.to_string(), mass.to_string()))
        .collect();
    let cli_events: Vec<(String, String)> = report
        .top_events
        .iter()
        .map(|e| (e.key.clone(), e.mass.to_string()))
        .collect();
    assert_eq!(cli_events, builder_events);

    // Query probabilities agree with direct OutputSpace queries.
    let some_dime = gdlog_data::GroundAtom::make("SomeDimeTail", vec![]);
    let quarter_tail = gdlog_data::GroundAtom::make(
        "QuarterTail",
        vec![gdlog_data::Const::Int(3), gdlog_data::Const::Int(1)],
    );
    let by_atom = |a: &str| {
        report
            .queries
            .iter()
            .find(|q| q.atom == a)
            .expect("query present")
    };
    assert_eq!(
        by_atom("SomeDimeTail").brave.to_string(),
        space.brave_probability(&some_dime).to_string()
    );
    assert_eq!(
        by_atom("QuarterTail(3, 1)").cautious.to_string(),
        space.cautious_probability(&quarter_tail).to_string()
    );
}

/// The JSON golden format must not depend on the worker-thread count: the
/// same scenario evaluated at 1 and at 4 threads renders identically (this
/// is what lets CI diff goldens across `GDLOG_THREADS` matrix legs).
#[test]
fn json_report_is_thread_count_invariant() {
    let run = |threads: &str| {
        let args = [
            "--threads",
            threads,
            "--query",
            "Uninfected(2)",
            "--top",
            "4",
        ];
        let args: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        run_scenario("scenarios/network_resilience.gdl", &args)
    };
    let one = run("1");
    let four = run("4");
    assert_eq!(one.threads, 1);
    assert_eq!(four.threads, 4);
    assert!(!one.render_json().contains("threads"));
    assert_eq!(one.render_json(), four.render_json());
}

/// The factored pipeline behind `--factored` answers exactly what the flat
/// path answers: running every `--factored` scenario both ways yields the
/// same masses, query probabilities and top-event listing, ties at the
/// `--top` cut included — the flat report differs only in its factor count
/// and chase bookkeeping.
#[test]
fn factored_scenario_matches_the_flat_path() {
    let mut replayed = Vec::new();
    for (name, path) in scenario_files() {
        let source = std::fs::read_to_string(&path).expect("scenario readable");
        let directives = parse_directives(&source, &name);
        if !directives.args.iter().any(|a| a == "--factored") {
            continue;
        }
        let rel = format!("scenarios/{name}.gdl");
        let factored = run_scenario(&rel, &directives.args);
        let flat_args: Vec<String> = directives
            .args
            .iter()
            .filter(|a| *a != "--factored")
            .cloned()
            .collect();
        let flat = run_scenario(&rel, &flat_args);

        assert_eq!(flat.factors, 1, "{name}: the flat path is one factor");
        assert_eq!(factored.outcomes, flat.outcomes, "{name}");
        assert_eq!(factored.events, flat.events, "{name}");
        assert_eq!(
            factored.p_stable.to_string(),
            flat.p_stable.to_string(),
            "{name}"
        );
        assert_eq!(
            factored.explored_mass.to_string(),
            flat.explored_mass.to_string(),
            "{name}"
        );
        assert_eq!(
            factored.residual_mass.to_string(),
            flat.residual_mass.to_string(),
            "{name}"
        );
        let probs = |r: &QueryResponse| -> Vec<String> {
            r.queries
                .iter()
                .chain(&r.marginals)
                .flat_map(|q| {
                    [
                        q.atom.clone(),
                        q.brave.to_string(),
                        q.cautious.to_string(),
                        format!("{:?}", q.brave_given),
                        format!("{:?}", q.cautious_given),
                    ]
                })
                .collect()
        };
        assert_eq!(probs(&factored), probs(&flat), "{name}");
        let events = |r: &QueryResponse| -> Vec<(String, String, usize)> {
            r.top_events
                .iter()
                .map(|e| (e.key.clone(), e.mass.to_string(), e.models))
                .collect()
        };
        assert_eq!(events(&factored), events(&flat), "{name}: top events");
        replayed.push((name, factored.factors));
    }
    // The corpus keeps its factored showcases: a multi-factor product over
    // independent coins, and the tie-order regression.
    for (name, factors) in [("coin_farm", 4), ("coin_ties", 8)] {
        assert!(
            replayed.contains(&(name.to_owned(), factors)),
            "{name} must replay factored with {factors} factors: {replayed:?}"
        );
    }
}

/// `coin_ties.gdl`'s 256 joint events all weigh 1/256, and their factor
/// tuples come out of the product merge in another order than their keys.
/// The factored top-k must still be the flat listing's prefix at every cut.
#[test]
fn coin_ties_factored_top_k_is_the_flat_prefix_at_every_cut() {
    let source = std::fs::read_to_string(manifest_dir().join("scenarios/coin_ties.gdl"))
        .expect("scenario readable");
    let (program, db) = gdlog_parser::parse_program(&source).expect("scenario parses");
    let pipeline = Pipeline::new(&program, &db).expect("pipeline");
    let flat = pipeline.solve().expect("flat solve");
    let factored = pipeline.solve_factored().expect("factored solve");
    assert_eq!(factored.factor_count(), 8);
    let flat_events = flat.events_by_mass();
    assert_eq!(flat_events.len(), 256);
    for k in 0..=256 {
        assert_eq!(
            factored.events_by_mass_top(k).expect("listed, not refused"),
            flat_events[..k],
            "top {k}"
        );
    }
}

/// Every corpus scenario must lint clean — no errors, no warnings (notes
/// are fine: game programs legitimately use unstratified negation) — and
/// its JSON lint report must match `scenarios/golden/<name>.lint.json`
/// byte for byte. Regenerate with GDLOG_REGEN_GOLDEN=1.
#[test]
fn every_scenario_lints_clean_and_matches_its_lint_golden() {
    for (name, path) in scenario_files() {
        let source = std::fs::read_to_string(&path).expect("scenario readable");
        let rel = format!("scenarios/{name}.gdl");
        let outcome = gdlog::cli::lint::lint_source(&rel, &source)
            .unwrap_or_else(|e| panic!("{name}: lint failed to parse:\n{e}"));
        // The corpus is gated under `--deny-warnings`.
        assert_eq!(
            outcome.exit_code(true),
            0,
            "{name}: corpus scenarios must be lint-clean, found {:#?}",
            outcome.findings
        );
        assert!(
            outcome.static_components.is_some(),
            "{name}: valid scenarios must report their static component count"
        );

        let golden_path = manifest_dir()
            .join("scenarios/golden")
            .join(format!("{name}.lint.json"));
        let rendered = outcome.render_json(&rel);
        if std::env::var_os("GDLOG_REGEN_GOLDEN").is_some() {
            std::fs::write(&golden_path, &rendered).expect("write lint golden");
            continue;
        }
        let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|_| {
            panic!(
                "{name}: missing lint golden {}; regenerate with GDLOG_REGEN_GOLDEN=1",
                golden_path.display()
            )
        });
        assert_eq!(
            rendered, golden,
            "{name}: lint report drifted from its golden; if intentional, \
             regenerate with GDLOG_REGEN_GOLDEN=1 cargo test --test scenario_corpus"
        );
    }
}

/// The static-independence showcase: `coin.gdl` runs `--factored` and its
/// only Δ-rule is ground, so the grounding-free analysis alone must settle
/// the decomposition (`analysis: static`, no saturation); `coin_farm.gdl`
/// needs the dynamic Δ-analysis (`analysis: dynamic`).
#[test]
fn static_analysis_verdicts_appear_in_reports() {
    let coin_src = std::fs::read_to_string(manifest_dir().join("scenarios/coin.gdl"))
        .expect("scenario readable");
    let coin_args = parse_directives(&coin_src, "coin").args;
    assert!(coin_args.iter().any(|a| a == "--factored"));
    let coin = run_scenario("scenarios/coin.gdl", &coin_args);
    assert_eq!(coin.analysis, "static", "coin: ground Δ-rule");

    let farm_src = std::fs::read_to_string(manifest_dir().join("scenarios/coin_farm.gdl"))
        .expect("scenario readable");
    let farm_args = parse_directives(&farm_src, "coin_farm").args;
    let farm = run_scenario("scenarios/coin_farm.gdl", &farm_args);
    assert_eq!(farm.analysis, "dynamic", "coin_farm: saturation ran");
    assert_eq!(farm.factors, 4);
}

/// `gdlog fmt` must carry `%!` directive lines through verbatim — they are
/// executable corpus metadata, not prose comments — and its output must
/// still parse to the same program.
#[test]
fn fmt_preserves_scenario_directives() {
    for (name, path) in scenario_files() {
        let source = std::fs::read_to_string(&path).expect("scenario readable");
        let rel = format!("scenarios/{name}.gdl");
        let argv = vec!["fmt".to_owned(), rel.clone()];
        let mut out = Vec::new();
        let mut err = Vec::new();
        let code = gdlog::cli::main_with(&argv, &mut out, &mut err);
        assert_eq!(
            code,
            0,
            "{name}: fmt failed: {}",
            String::from_utf8_lossy(&err)
        );
        let formatted = String::from_utf8(out).expect("fmt output utf-8");

        let directive_lines = |text: &str| -> Vec<String> {
            text.lines()
                .map(str::trim_start)
                .filter(|l| l.starts_with("%!"))
                .map(str::to_owned)
                .collect()
        };
        assert_eq!(
            directive_lines(&source),
            directive_lines(&formatted),
            "{name}: fmt dropped or reordered `%!` directives"
        );

        // And the reformatted text is still the same scenario.
        let (p1, d1) = gdlog_parser::parse_program(&source).expect("source parses");
        let (p2, d2) = gdlog_parser::parse_program(&formatted)
            .unwrap_or_else(|e| panic!("{name}: formatted output failed to parse: {e}"));
        assert_eq!(p1.to_string(), p2.to_string(), "{name}");
        assert_eq!(d1, d2, "{name}");
    }
}

/// Scenario sources themselves round-trip through `gdlog fmt`'s printer:
/// formatting then re-parsing yields the same program and database.
#[test]
fn scenarios_survive_reformatting() {
    for (name, path) in scenario_files() {
        let source = std::fs::read_to_string(&path).expect("scenario readable");
        let (program, db) = gdlog_parser::parse_program(&source)
            .unwrap_or_else(|e| panic!("{name}: parse failed: {e}"));
        let printed = format!(
            "{}\n{}",
            gdlog_parser::pretty_program(&program),
            gdlog_parser::pretty_database(&db)
        );
        let (program2, db2) = gdlog_parser::parse_program(&printed)
            .unwrap_or_else(|e| panic!("{name}: reprint failed to parse: {e}"));
        assert_eq!(program.to_string(), program2.to_string(), "{name}");
        assert_eq!(db, db2, "{name}");
    }
}

#[test]
fn corpus_readme_mentions_every_scenario() {
    let readme = std::fs::read_to_string(manifest_dir().join("scenarios/README.md"))
        .expect("scenarios/README.md exists");
    for (name, _) in scenario_files() {
        assert!(
            readme.contains(&format!("{name}.gdl")),
            "scenarios/README.md does not mention {name}.gdl"
        );
    }
}
