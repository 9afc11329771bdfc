//! The unified query response: everything a [`crate::api::Solver`] learned
//! about a program for one [`crate::api::QueryRequest`], renderable as human
//! text or deterministic JSON.
//!
//! There is exactly **one** schema: the CLI's `--json` report, the scenario
//! corpus goldens and the wire responses of `gdlog serve` are all renderings
//! of this type, so a corpus replay over the wire protocol is byte-identical
//! to the committed goldens. The JSON form is diffed byte-for-byte across
//! CI's `GDLOG_THREADS` matrix legs, so it must not contain anything
//! environment-dependent — in particular the worker thread count appears
//! only in the *text* rendering. Every run emits the same key set
//! (`analysis` and `nodes_visited` included), whether it solved flat or
//! factored.

use super::json::Json;
use crate::model_cache::ModelCacheStats;
use gdlog_prob::Prob;
use std::fmt::Write as _;

/// Brave/cautious probabilities of one queried ground atom.
#[derive(Clone, Debug)]
pub struct QueryReport {
    /// The queried atom, in display form.
    pub atom: String,
    /// Probability the atom holds in some stable model.
    pub brave: Prob,
    /// Probability the atom holds in every stable model (of a nonempty set).
    pub cautious: Prob,
    /// Conditional brave probability given the `--given` atom (brave-brave).
    pub brave_given: Option<Prob>,
    /// Conditional cautious probability given the `--given` atom.
    pub cautious_given: Option<Prob>,
}

/// One event (set of stable models) and its probability mass.
#[derive(Clone, Debug)]
pub struct EventReport {
    /// The event key, in display form.
    pub key: String,
    /// The event's probability mass.
    pub mass: Prob,
    /// Number of stable models in the set.
    pub models: usize,
}

/// Monte-Carlo estimate for one queried atom.
#[derive(Clone, Debug)]
pub struct McReport {
    /// The queried atom, in display form.
    pub atom: String,
    /// Sample mean.
    pub mean: f64,
    /// Standard error of the mean.
    pub std_error: f64,
    /// Number of samples drawn.
    pub samples: usize,
    /// Number of abandoned walks (trigger budget exhausted).
    pub abandoned: usize,
}

/// The full response to one query against a compiled program.
#[derive(Clone, Debug)]
pub struct QueryResponse {
    /// Scenario source label (the path given on the command line, or the
    /// label registered when the server session was opened).
    pub source: String,
    /// Program rules after constraint desugaring.
    pub rules: usize,
    /// Ground facts (the input database).
    pub facts: usize,
    /// Grounder actually requested (`simple` / `perfect` / `auto`).
    pub grounder: &'static str,
    /// Worker threads used (text rendering only; see module docs).
    pub threads: usize,
    /// Independent chase components solved (1 on the flat path).
    pub factors: usize,
    /// How the solve was decomposed: `flat` on the flat path, otherwise the
    /// factored verdict — `static` when the grounding-free independence
    /// analysis alone settled it, `dynamic` when the Δ-analysis saturated.
    pub analysis: &'static str,
    /// Finite outcomes covered — the *product* across factors on the
    /// factored path, which can dwarf anything the flat chase could ever
    /// materialize, hence the wide integer.
    pub outcomes: u128,
    /// Chase-tree nodes visited, summed over the factors' chases.
    /// Deterministic across thread counts.
    pub nodes_visited: usize,
    /// Distinct events (sets of stable models); combined count across
    /// factors on the factored path.
    pub events: u128,
    /// Total mass of the explored events.
    pub explored_mass: Prob,
    /// Mass not explored (error event + beyond-budget paths).
    pub residual_mass: Prob,
    /// Did the chase hit its budget?
    pub truncated: bool,
    /// Was the chase cut short by a deadline? The response is still an exact
    /// partial result (the residual accounts for every cut subtree), but it
    /// depends on when the deadline fired: interrupted responses are never
    /// golden, so the JSON key is emitted only when the flag is set.
    pub interrupted: bool,
    /// Probability that at least one stable model exists.
    pub p_stable: Prob,
    /// Stable-model memo-table counters of the solve that produced this
    /// response's output space. The counters are a property of the *solve*,
    /// not of the serving process: a warm response replays the stats of the
    /// original cold solve, so warm and cold responses are byte-identical.
    pub stable_cache: ModelCacheStats,
    /// FNV-1a fingerprint of the event listing (the bench scheme).
    pub fingerprint: String,
    /// Per-query probabilities.
    pub queries: Vec<QueryReport>,
    /// The conditioning atom, if `--given` was passed.
    pub given: Option<String>,
    /// Marginals (per-atom brave/cautious) of `--marginal` predicates.
    pub marginals: Vec<QueryReport>,
    /// The `--top` K events by mass.
    pub top_events: Vec<EventReport>,
    /// Monte-Carlo estimates (`--mc`).
    pub mc: Vec<McReport>,
}

/// JSON encoding of a probability: always carries the display text and the
/// float value; exact rationals additionally carry numerator and denominator.
fn prob_json(p: &Prob) -> Json {
    match p.as_exact() {
        Some(r) => Json::obj([
            ("text", Json::str(p.to_string())),
            ("num", Json::Int(r.numer())),
            ("den", Json::Int(r.denom())),
            ("value", Json::Float(p.to_f64())),
        ]),
        None => Json::obj([
            ("text", Json::str(p.to_string())),
            ("value", Json::Float(p.to_f64())),
        ]),
    }
}

/// Clamp a (possibly astronomically large) factored count into the JSON
/// integer range; `i128::MAX` marks saturation, which no real count reaches.
fn wide_count(n: u128) -> i128 {
    n.min(i128::MAX as u128) as i128
}

fn opt_prob_json(p: &Option<Prob>) -> Json {
    match p {
        Some(p) => prob_json(p),
        None => Json::Null,
    }
}

fn query_json(q: &QueryReport) -> Json {
    let mut pairs = vec![
        ("atom", Json::str(&q.atom)),
        ("brave", prob_json(&q.brave)),
        ("cautious", prob_json(&q.cautious)),
    ];
    if q.brave_given.is_some() || q.cautious_given.is_some() {
        pairs.push(("brave_given", opt_prob_json(&q.brave_given)));
        pairs.push(("cautious_given", opt_prob_json(&q.cautious_given)));
    }
    Json::obj(pairs)
}

impl QueryResponse {
    /// Render the machine-readable JSON report (golden-file format). Every
    /// response carries the same key set regardless of solve strategy.
    pub fn render_json(&self) -> String {
        let mut pairs = vec![
            ("source", Json::str(&self.source)),
            ("rules", Json::Int(self.rules as i128)),
            ("facts", Json::Int(self.facts as i128)),
            ("grounder", Json::str(self.grounder)),
            ("factors", Json::Int(self.factors as i128)),
            ("analysis", Json::str(self.analysis)),
            ("outcomes", Json::Int(wide_count(self.outcomes))),
            ("nodes_visited", Json::Int(self.nodes_visited as i128)),
            ("events", Json::Int(wide_count(self.events))),
            ("explored_mass", prob_json(&self.explored_mass)),
            ("residual_mass", prob_json(&self.residual_mass)),
            ("truncated", Json::Bool(self.truncated)),
            ("p_stable", prob_json(&self.p_stable)),
        ];
        // Interrupted responses can never be goldens, so the key's presence
        // cannot perturb committed golden files (same pattern as `given`).
        if self.interrupted {
            pairs.push(("interrupted", Json::Bool(true)));
        }
        pairs.extend([
            (
                "stable_cache",
                Json::obj([
                    ("hits", Json::Int(self.stable_cache.hits as i128)),
                    ("misses", Json::Int(self.stable_cache.misses as i128)),
                    ("hit_rate", Json::Float(self.stable_cache.hit_rate())),
                ]),
            ),
            ("fingerprint", Json::str(&self.fingerprint)),
        ]);
        if let Some(g) = &self.given {
            pairs.push(("given", Json::str(g)));
        }
        pairs.push((
            "queries",
            Json::Arr(self.queries.iter().map(query_json).collect()),
        ));
        pairs.push((
            "marginals",
            Json::Arr(self.marginals.iter().map(query_json).collect()),
        ));
        pairs.push((
            "top_events",
            Json::Arr(
                self.top_events
                    .iter()
                    .map(|e| {
                        Json::obj([
                            ("key", Json::str(&e.key)),
                            ("mass", prob_json(&e.mass)),
                            ("models", Json::Int(e.models as i128)),
                        ])
                    })
                    .collect(),
            ),
        ));
        pairs.push((
            "mc",
            Json::Arr(
                self.mc
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("atom", Json::str(&m.atom)),
                            ("mean", Json::Float(m.mean)),
                            ("std_error", Json::Float(m.std_error)),
                            ("samples", Json::Int(m.samples as i128)),
                            ("abandoned", Json::Int(m.abandoned as i128)),
                        ])
                    })
                    .collect(),
            ),
        ));
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect()).render()
    }

    /// Render the human-readable text report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "source: {} ({} rules, {} facts)",
            self.source, self.rules, self.facts
        );
        let _ = writeln!(
            out,
            "grounder: {}, threads: {}, factors: {}, analysis: {}",
            self.grounder, self.threads, self.factors, self.analysis
        );
        if self.nodes_visited > 0 {
            let _ = writeln!(
                out,
                "outcomes: {} (nodes visited: {}), events: {}",
                self.outcomes, self.nodes_visited, self.events
            );
        } else {
            let _ = writeln!(out, "outcomes: {}, events: {}", self.outcomes, self.events);
        }
        let _ = writeln!(
            out,
            "explored mass: {}, residual mass: {}, truncated: {}",
            self.explored_mass,
            self.residual_mass,
            if self.truncated { "yes" } else { "no" }
        );
        if self.interrupted {
            let _ = writeln!(
                out,
                "interrupted: yes (deadline hit; residual mass is exact, result is partial)"
            );
        }
        let _ = writeln!(out, "P(stable model exists) = {}", self.p_stable);
        let _ = writeln!(
            out,
            "stable cache: {} hits, {} misses (hit rate {:.2})",
            self.stable_cache.hits,
            self.stable_cache.misses,
            self.stable_cache.hit_rate()
        );
        let _ = writeln!(out, "fingerprint: {}", self.fingerprint);
        for q in &self.queries {
            let _ = write!(
                out,
                "query {}: brave {}, cautious {}",
                q.atom, q.brave, q.cautious
            );
            if let (Some(g), Some(bg), Some(cg)) = (&self.given, &q.brave_given, &q.cautious_given)
            {
                let _ = write!(out, "; given {g}: brave {bg}, cautious {cg}");
            }
            out.push('\n');
        }
        for m in &self.marginals {
            let _ = writeln!(
                out,
                "marginal {}: brave {}, cautious {}",
                m.atom, m.brave, m.cautious
            );
        }
        if !self.top_events.is_empty() {
            let _ = writeln!(out, "top events by mass:");
            for e in &self.top_events {
                let _ = writeln!(out, "  {}  {} ({} models)", e.mass, e.key, e.models);
            }
        }
        for m in &self.mc {
            let _ = writeln!(
                out,
                "mc {}: mean {} ± {} ({} samples, {} abandoned)",
                m.atom, m.mean, m.std_error, m.samples, m.abandoned
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> QueryResponse {
        QueryResponse {
            source: "scenarios/coin.gdl".into(),
            rules: 5,
            facts: 0,
            grounder: "simple",
            threads: 1,
            factors: 1,
            analysis: "flat",
            outcomes: 2,
            nodes_visited: 5,
            events: 2,
            explored_mass: Prob::ONE,
            residual_mass: Prob::ZERO,
            truncated: false,
            interrupted: false,
            p_stable: Prob::ratio(1, 2),
            stable_cache: ModelCacheStats { hits: 1, misses: 1 },
            fingerprint: "cbf29ce484222325".into(),
            queries: vec![QueryReport {
                atom: "Coin(1)".into(),
                brave: Prob::ratio(1, 2),
                cautious: Prob::ratio(1, 2),
                brave_given: None,
                cautious_given: None,
            }],
            given: None,
            marginals: vec![],
            top_events: vec![EventReport {
                key: "{}".into(),
                mass: Prob::ratio(1, 2),
                models: 0,
            }],
            mc: vec![McReport {
                atom: "Coin(1)".into(),
                mean: 0.5,
                std_error: 0.025,
                samples: 400,
                abandoned: 0,
            }],
        }
    }

    #[test]
    fn text_report_mentions_the_essentials() {
        let text = sample().render_text();
        assert!(text.contains("P(stable model exists) = 1/2"));
        assert!(text.contains("query Coin(1): brave 1/2, cautious 1/2"));
        assert!(text.contains("fingerprint: cbf29ce484222325"));
        assert!(text.contains("mc Coin(1): mean 0.5"));
        assert!(text.contains("factors: 1, analysis: flat"));
        assert!(text.contains("stable cache: 1 hits, 1 misses (hit rate 0.50)"));
    }

    #[test]
    fn factored_report_drops_the_nodes_visited_parenthetical() {
        let mut r = sample();
        r.factors = 20;
        r.analysis = "dynamic";
        r.nodes_visited = 0;
        r.outcomes = 1u128 << 100;
        let text = r.render_text();
        assert!(text.contains("factors: 20"));
        assert!(text.contains(&format!("outcomes: {}, events: 2", 1u128 << 100)));
        assert!(!text.contains("nodes visited"));
        let json = r.render_json();
        assert!(json.contains(&format!("\"outcomes\": {}", 1u128 << 100)));
        assert!(json.contains("\"factors\": 20"));
    }

    #[test]
    fn every_response_carries_the_same_schema() {
        // Flat and factored responses emit the identical key set — the
        // strategy only changes *values* (`analysis`, `nodes_visited`),
        // never the shape.
        let flat = sample();
        let mut factored = sample();
        factored.factors = 4;
        factored.analysis = "static";
        factored.nodes_visited = 0;
        let keys = |text: &str| -> Vec<String> {
            text.lines()
                .filter_map(|l| {
                    let t = l.trim_start();
                    t.starts_with('"')
                        .then(|| t.split(':').next().unwrap().to_owned())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(keys(&flat.render_json()), keys(&factored.render_json()));
        assert!(flat.render_json().contains("\"analysis\": \"flat\""));
        assert!(flat.render_json().contains("\"nodes_visited\": 5"));
        assert!(factored.render_json().contains("\"analysis\": \"static\""));
    }

    #[test]
    fn interrupted_key_is_emitted_only_when_set() {
        // Goldens are recorded from uninterrupted runs; the key must be
        // wholly absent there so its introduction cannot perturb them.
        let clean = sample();
        assert!(!clean.render_json().contains("interrupted"));
        assert!(!clean.render_text().contains("interrupted"));
        let mut cut = sample();
        cut.interrupted = true;
        assert!(cut.render_json().contains("\"interrupted\": true"));
        assert!(cut.render_text().contains("interrupted: yes"));
    }

    #[test]
    fn json_report_is_exact_and_thread_free() {
        let json = sample().render_json();
        assert!(json.contains("\"num\": 1"));
        assert!(json.contains("\"den\": 2"));
        assert!(json.contains("\"text\": \"1/2\""));
        assert!(json.contains("\"fingerprint\": \"cbf29ce484222325\""));
        assert!(json.contains("\"factors\": 1"));
        assert!(json.contains("\"hits\": 1"));
        assert!(json.contains("\"hit_rate\": 0.5"));
        // Thread counts must never reach the golden format.
        assert!(!json.contains("thread"));
    }
}
