//! The shared run/query flag grammar.
//!
//! `gdlog run <file> [flags]` on the command line and `QUERY <label>` over
//! the wire accept the **same** flag list, parsed here into [`QueryFlags`]
//! and lowered to a [`QueryRequest`] — so a scenario replayed against a
//! running server takes exactly the flags of its `%! args:` directive, and
//! the two front-ends cannot drift. The CLI layers its file-path positional
//! and output-format concerns on top; the server passes each body line of a
//! `QUERY` frame as one argument.

use gdlog_core::api::{McRequest, QueryRequest, SolveStrategy};
use gdlog_core::{ChaseBudget, GrounderChoice, TriggerOrder, MAX_THREADS};
use gdlog_data::GroundAtom;
use gdlog_engine::StableModelLimits;
use gdlog_parser::parse_database;

/// Every flag `gdlog run` and the wire `QUERY` command accept, parsed but
/// not yet lowered (atoms still in surface syntax).
#[derive(Clone, Debug, PartialEq)]
pub struct QueryFlags {
    /// Emit the machine-readable JSON report (`--json`; CLI-only concern —
    /// wire responses are always JSON).
    pub json: bool,
    /// Solve strategy (`--strategy flat|factored|auto`; `--factored` is the
    /// historical alias of `--strategy factored`).
    pub strategy: SolveStrategy,
    /// Grounder selection (`--grounder simple|perfect|auto`).
    pub grounder: GrounderChoice,
    /// Worker threads (`--threads N`); `None` defers to `GDLOG_THREADS`.
    /// CLI-only: the server runs every query on its shared executor.
    pub threads: Option<usize>,
    /// Trigger exploration order (`--trigger-order first|last|scrambled`).
    pub trigger_order: TriggerOrder,
    /// Chase budget: maximum outcomes to enumerate.
    pub max_outcomes: Option<usize>,
    /// Chase budget: maximum Δ-depth per path.
    pub max_depth: Option<usize>,
    /// Chase budget: maximum branching per Δ-term.
    pub max_branching: Option<usize>,
    /// Chase budget: drop paths below this probability.
    pub min_path_prob: Option<f64>,
    /// Stable-model search: cap on returned models.
    pub max_models: Option<usize>,
    /// Stable-model search: cap on branching atoms per component.
    pub max_branch_atoms: Option<usize>,
    /// Ground atoms to query (brave and cautious probability each).
    pub queries: Vec<String>,
    /// Condition every query on this ground atom.
    pub given: Option<String>,
    /// Predicates to report full marginals for.
    pub marginals: Vec<String>,
    /// Report the top-K events by probability mass.
    pub top: Option<usize>,
    /// Monte-Carlo sample count (estimates each `--query` by sampling).
    pub mc: Option<usize>,
    /// Monte-Carlo seed.
    pub seed: u64,
    /// Monte-Carlo per-walk trigger budget.
    pub max_triggers: usize,
    /// Per-query deadline in milliseconds (`--timeout-ms`); the query
    /// degrades gracefully or returns a typed `deadline-exceeded` error.
    pub timeout_ms: Option<u64>,
}

impl Default for QueryFlags {
    fn default() -> Self {
        QueryFlags {
            json: false,
            strategy: SolveStrategy::Flat,
            grounder: GrounderChoice::Simple,
            threads: None,
            trigger_order: TriggerOrder::First,
            max_outcomes: None,
            max_depth: None,
            max_branching: None,
            min_path_prob: None,
            max_models: None,
            max_branch_atoms: None,
            queries: Vec::new(),
            given: None,
            marginals: Vec::new(),
            top: None,
            mc: None,
            seed: 0,
            max_triggers: 64,
            timeout_ms: None,
        }
    }
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<&str>) -> Result<T, String> {
    let raw = value.ok_or_else(|| format!("flag `{flag}` expects a value"))?;
    raw.parse::<T>()
        .map_err(|_| format!("invalid value `{raw}` for flag `{flag}`"))
}

/// Parse the value of a `--threads` flag: a count up to [`MAX_THREADS`]
/// (`0` means one thread per available CPU). Larger counts are refused: a
/// pool that large can abort the process.
pub fn parse_threads(flag: &str, value: Option<&str>) -> Result<usize, String> {
    let threads = parse_value(flag, value)?;
    if threads > MAX_THREADS {
        return Err(format!(
            "invalid value `{threads}` for flag `{flag}` (at most {MAX_THREADS})"
        ));
    }
    Ok(threads)
}

/// Parse an argument list into flags plus the non-flag positionals (the CLI
/// expects exactly one — the scenario path; the wire `QUERY` command expects
/// none). Unknown flags are errors, as on the command line.
pub fn parse_query_flags<S: AsRef<str>>(args: &[S]) -> Result<(QueryFlags, Vec<String>), String> {
    let mut flags = QueryFlags::default();
    let mut positionals = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_ref();
        if !a.starts_with("--") {
            positionals.push(a.to_owned());
            i += 1;
            continue;
        }
        let value = args.get(i + 1).map(|v| v.as_ref());
        match a {
            "--json" => {
                flags.json = true;
                i += 1;
            }
            "--factored" => {
                flags.strategy = SolveStrategy::Factored;
                i += 1;
            }
            "--strategy" => {
                flags.strategy = match value {
                    Some("flat") => SolveStrategy::Flat,
                    Some("factored") => SolveStrategy::Factored,
                    Some("auto") => SolveStrategy::Auto,
                    Some(other) => {
                        return Err(format!(
                            "invalid strategy `{other}` (expected flat, factored or auto)"
                        ))
                    }
                    None => return Err("flag `--strategy` expects a value".to_owned()),
                };
                i += 2;
            }
            "--grounder" => {
                flags.grounder = match value {
                    Some("simple") => GrounderChoice::Simple,
                    Some("perfect") => GrounderChoice::Perfect,
                    Some("auto") => GrounderChoice::Auto,
                    Some(other) => {
                        return Err(format!(
                            "invalid grounder `{other}` (expected simple, perfect or auto)"
                        ))
                    }
                    None => return Err("flag `--grounder` expects a value".to_owned()),
                };
                i += 2;
            }
            "--trigger-order" => {
                flags.trigger_order = match value {
                    Some("first") => TriggerOrder::First,
                    Some("last") => TriggerOrder::Last,
                    Some("scrambled") => TriggerOrder::Scrambled,
                    Some(other) => {
                        return Err(format!(
                            "invalid trigger order `{other}` (expected first, last or scrambled)"
                        ))
                    }
                    None => return Err("flag `--trigger-order` expects a value".to_owned()),
                };
                i += 2;
            }
            "--threads" => {
                flags.threads = Some(parse_threads(a, value)?);
                i += 2;
            }
            "--max-outcomes" => {
                flags.max_outcomes = Some(parse_value(a, value)?);
                i += 2;
            }
            "--max-depth" => {
                flags.max_depth = Some(parse_value(a, value)?);
                i += 2;
            }
            "--max-branching" => {
                flags.max_branching = Some(parse_value(a, value)?);
                i += 2;
            }
            "--min-path-prob" => {
                flags.min_path_prob = Some(parse_value(a, value)?);
                i += 2;
            }
            "--max-models" => {
                flags.max_models = Some(parse_value(a, value)?);
                i += 2;
            }
            "--max-branch-atoms" => {
                flags.max_branch_atoms = Some(parse_value(a, value)?);
                i += 2;
            }
            "--query" => {
                flags.queries.push(
                    value
                        .ok_or("flag `--query` expects a ground atom")?
                        .to_owned(),
                );
                i += 2;
            }
            "--given" => {
                flags.given = Some(
                    value
                        .ok_or("flag `--given` expects a ground atom")?
                        .to_owned(),
                );
                i += 2;
            }
            "--marginal" => {
                flags.marginals.push(
                    value
                        .ok_or("flag `--marginal` expects a predicate name")?
                        .to_owned(),
                );
                i += 2;
            }
            "--top" => {
                flags.top = Some(parse_value(a, value)?);
                i += 2;
            }
            "--mc" => {
                flags.mc = Some(parse_value(a, value)?);
                i += 2;
            }
            "--seed" => {
                flags.seed = parse_value(a, value)?;
                i += 2;
            }
            "--max-triggers" => {
                flags.max_triggers = parse_value(a, value)?;
                i += 2;
            }
            "--timeout-ms" => {
                flags.timeout_ms = Some(parse_value(a, value)?);
                i += 2;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok((flags, positionals))
}

/// Parse a ground atom written in surface syntax (e.g. `Coin(1)`,
/// `SomeDimeTail`, `Likes(#alice, 2)`).
pub fn parse_ground_atom(text: &str) -> Result<GroundAtom, String> {
    let db = parse_database(&format!("{text}."))
        .map_err(|e| format!("invalid ground atom `{text}`: {}", e.message))?;
    let mut atoms = db.canonical_atoms();
    if atoms.len() != 1 {
        return Err(format!("invalid ground atom `{text}`"));
    }
    Ok(atoms.pop().expect("one atom"))
}

impl QueryFlags {
    /// The chase budget implied by the flags (defaults from
    /// [`ChaseBudget::default`]).
    pub fn budget(&self) -> ChaseBudget {
        let mut b = ChaseBudget::default();
        if let Some(v) = self.max_outcomes {
            b.max_outcomes = v;
        }
        if let Some(v) = self.max_depth {
            b.max_depth = v;
        }
        if let Some(v) = self.max_branching {
            b.max_branching = v;
        }
        if let Some(v) = self.min_path_prob {
            b.min_path_probability = v;
        }
        b
    }

    /// The stable-model limits implied by the flags.
    pub fn limits(&self) -> StableModelLimits {
        let mut l = StableModelLimits::default();
        if let Some(v) = self.max_models {
            l.max_models = v;
        }
        if let Some(v) = self.max_branch_atoms {
            l.max_branch_atoms = v;
        }
        l
    }

    /// Lower the flags to the unified [`QueryRequest`], parsing the atom
    /// arguments. Errors are bare messages (no `error: ` prefix), ready for
    /// either CLI rendering or a wire error body.
    pub fn to_request(&self) -> Result<QueryRequest, String> {
        let mut request = QueryRequest::new()
            .with_grounder(self.grounder)
            .with_strategy(self.strategy)
            .with_budget(self.budget())
            .with_order(self.trigger_order)
            .with_limits(self.limits());
        for q in &self.queries {
            request = request.query(parse_ground_atom(q)?);
        }
        if let Some(g) = &self.given {
            request = request.given(parse_ground_atom(g)?);
        }
        for m in &self.marginals {
            request = request.marginal(m.clone());
        }
        if let Some(k) = self.top {
            request = request.top(k);
        }
        if let Some(samples) = self.mc {
            request = request.monte_carlo(
                McRequest::samples(samples)
                    .with_seed(self.seed)
                    .with_max_triggers(self.max_triggers),
            );
        }
        if let Some(ms) = self.timeout_ms {
            request = request.with_timeout_ms(ms);
        }
        Ok(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(list: &[&str]) -> Result<(QueryFlags, Vec<String>), String> {
        parse_query_flags(list)
    }

    #[test]
    fn parses_the_full_flag_surface() {
        let (flags, positionals) = parse(&[
            "coin.gdl",
            "--json",
            "--strategy",
            "auto",
            "--grounder",
            "auto",
            "--trigger-order",
            "last",
            "--max-outcomes",
            "10",
            "--min-path-prob",
            "0.001",
            "--query",
            "Coin(1)",
            "--given",
            "Coin(1)",
            "--marginal",
            "Coin",
            "--top",
            "4",
            "--mc",
            "100",
            "--seed",
            "7",
            "--max-triggers",
            "32",
            "--timeout-ms",
            "2500",
        ])
        .unwrap();
        assert_eq!(positionals, vec!["coin.gdl".to_owned()]);
        assert!(flags.json);
        assert_eq!(flags.strategy, SolveStrategy::Auto);
        assert_eq!(flags.grounder, GrounderChoice::Auto);
        assert_eq!(flags.trigger_order, TriggerOrder::Last);
        assert_eq!(flags.budget().max_outcomes, 10);
        assert!((flags.budget().min_path_probability - 0.001).abs() < 1e-12);
        let request = flags.to_request().unwrap();
        assert_eq!(request.queries.len(), 1);
        assert!(request.given.is_some());
        assert_eq!(request.marginals, vec!["Coin".to_owned()]);
        assert_eq!(request.top, Some(4));
        let mc = request.mc.unwrap();
        assert_eq!((mc.samples, mc.seed, mc.max_triggers), (100, 7, 32));
        assert_eq!(request.timeout_ms, Some(2500));
    }

    #[test]
    fn factored_is_an_alias_for_strategy_factored() {
        let (a, _) = parse(&["--factored"]).unwrap();
        let (b, _) = parse(&["--strategy", "factored"]).unwrap();
        assert_eq!(a.strategy, SolveStrategy::Factored);
        assert_eq!(a.strategy, b.strategy);
    }

    #[test]
    fn errors_are_bare_messages() {
        assert_eq!(
            parse(&["--strategy", "quantum"]).unwrap_err(),
            "invalid strategy `quantum` (expected flat, factored or auto)"
        );
        assert!(parse(&["--top"]).unwrap_err().contains("expects a value"));
        assert_eq!(
            parse(&["--threads", "200000"]).unwrap_err(),
            format!("invalid value `200000` for flag `--threads` (at most {MAX_THREADS})")
        );
        let (flags, _) = parse(&["--threads", &MAX_THREADS.to_string()]).unwrap();
        assert_eq!(flags.threads, Some(MAX_THREADS));
        assert!(parse(&["--frobnicate"])
            .unwrap_err()
            .contains("unknown flag"));
        let (flags, _) = parse(&["--query", "lower(1)"]).unwrap();
        assert!(flags
            .to_request()
            .unwrap_err()
            .contains("invalid ground atom `lower(1)`"));
    }

    #[test]
    fn atoms_with_spaces_parse() {
        let atom = parse_ground_atom("Likes(#alice, 2)").unwrap();
        // Symbol display drops the `#` sigil of the surface syntax.
        assert_eq!(atom.to_string(), "Likes(alice, 2)");
    }
}
