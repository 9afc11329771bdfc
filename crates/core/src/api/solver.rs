//! The [`Solver`]: a warm compiled program answering unified queries.
//!
//! A `Solver` is what "parse / stratify / ground once, query many" compiles
//! down to: the program is translated to `Σ_Π[D]` exactly once
//! ([`SigmaPi::translate`]), and every [`QueryRequest`] dispatched at it is
//! served from a **solve-entry cache** keyed by the request's
//! [`SolveKey`] — the first query with a given solve configuration runs the
//! chase and the stable-model search; every later query with the same
//! configuration (same grounder, strategy, budget, order, limits) answers
//! from the already-solved output space in microseconds. This is the warm
//! path the resident server multiplexes sessions onto.
//!
//! Determinism contract: a warm response is **byte-identical** to the cold
//! one. A response is a function of the solved space and the request alone —
//! exactly what a one-shot CLI process reports — so replaying a query
//! against a warm solver cannot observe the serving process's history. The
//! stable-model layer keeps no memo table: an entry is solved once, and two
//! leaves of its chase always differ in their choices, so a table keyed by
//! outcome program could never hit.
//!
//! One answering space: every strategy solves, through
//! [`Pipeline::solve_with`], into a [`FactoredOutputSpace`] — a flat solve is
//! the product of one factor — so answering never branches on how the
//! program was solved. [`crate::api::SolveStrategy::Auto`] resolves
//! statically: a positive `min_path_probability` or the
//! [`crate::certainly_single_trigger`] certificate proves the flat path;
//! otherwise the factored path runs, whose own dynamic analysis still falls
//! back to the flat chase when the program does not factor.

use crate::api::request::{McRequest, QueryRequest, SolveKey};
use crate::api::response::{EventReport, McReport, QueryReport, QueryResponse};
use crate::error::CoreError;
use crate::exec::Executor;
use crate::factor::FactoredOutputSpace;
use crate::pipeline::{McParams, Pipeline};
use crate::program::Program;
use crate::translate::SigmaPi;
use gdlog_data::Database;
use gdlog_engine::CancelToken;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// One solved output space plus the bookkeeping a response reports about
/// its solve. Shared by every query whose [`SolveKey`] matches.
struct SolveEntry {
    /// The pipeline that ran the solve, kept warm for Monte-Carlo requests
    /// (sampling reuses its grounder and executor; walks are seed-split, so
    /// results are independent of the pipeline's history).
    pipeline: Pipeline,
    space: FactoredOutputSpace,
    analysis: &'static str,
}

/// A compiled program serving [`QueryRequest`]s warm. See the module docs.
pub struct Solver {
    source: String,
    rules: usize,
    facts: usize,
    sigma: Arc<SigmaPi>,
    stratified: bool,
    executor: Arc<Executor>,
    /// Solve-entry cache. A `Vec` scanned linearly: [`crate::ChaseBudget`] carries
    /// an `f64`, so [`SolveKey`] is `PartialEq`-only, and the distinct solve
    /// configurations per program are few. The lock is held across a solve
    /// on purpose — two sessions racing the same configuration must produce
    /// one entry (one set of stats), not two.
    solves: Mutex<Vec<(SolveKey, Arc<SolveEntry>)>>,
}

impl Solver {
    /// Compile `program` on `facts` under a source label (reported verbatim
    /// in responses). Translation runs here, once; grounding and solving run
    /// lazily per solve configuration.
    pub fn compile(
        source: impl Into<String>,
        program: &Program,
        facts: &Database,
        executor: Arc<Executor>,
    ) -> Result<Self, CoreError> {
        let sigma = Arc::new(SigmaPi::translate(program, facts)?);
        Ok(Solver {
            source: source.into(),
            rules: program.len(),
            facts: facts.len(),
            stratified: program.has_stratified_negation(),
            sigma,
            executor,
            solves: Mutex::new(Vec::new()),
        })
    }

    /// The source label given at compile time.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Number of program rules (after constraint desugaring).
    pub fn rules(&self) -> usize {
        self.rules
    }

    /// Number of ground facts in the input database.
    pub fn facts(&self) -> usize {
        self.facts
    }

    /// The translated program (shared by every solve entry).
    pub fn sigma(&self) -> &SigmaPi {
        &self.sigma
    }

    /// Number of cached solve entries (distinct solve configurations run).
    pub fn warm_solves(&self) -> usize {
        self.solves.lock().len()
    }

    /// Answer one request. The solve is served from the entry cache when a
    /// query with the same solve configuration ran before; the answers
    /// (queries, marginals, top-K, Monte-Carlo) are computed per call.
    ///
    /// When `request.timeout_ms` is set, a deadline is armed around the call:
    /// a chase cut by it returns a graceful partial response (marked
    /// `interrupted`, with exact residual mass); exact-or-nothing phases
    /// surface [`CoreError::Interrupted`].
    pub fn query(&self, request: &QueryRequest) -> Result<QueryResponse, CoreError> {
        match request.timeout_ms {
            None => self.query_with_cancel(request, &CancelToken::never()),
            Some(ms) => {
                let cancel = CancelToken::new();
                let _guard = cancel.cancel_after(Duration::from_millis(ms));
                self.query_with_cancel(request, &cancel)
            }
        }
    }

    /// [`Solver::query`] against a caller-owned cancellation token (the
    /// server's watchdog arms deadlines this way). `request.timeout_ms` is
    /// ignored here — whoever owns the token owns the deadline.
    pub fn query_with_cancel(
        &self,
        request: &QueryRequest,
        cancel: &CancelToken,
    ) -> Result<QueryResponse, CoreError> {
        if request.mc.is_some() && request.queries.is_empty() {
            return Err(CoreError::Request(
                "`--mc` requires at least one `--query` atom".into(),
            ));
        }
        let entry = self.entry(request, cancel)?;
        self.answer(&entry, request, cancel)
    }

    /// Get or compute the solve entry for a request's configuration.
    fn entry(
        &self,
        request: &QueryRequest,
        cancel: &CancelToken,
    ) -> Result<Arc<SolveEntry>, CoreError> {
        let key = request.solve_key();
        let mut solves = self.solves.lock();
        if let Some((_, entry)) = solves.iter().find(|(k, _)| *k == key) {
            return Ok(Arc::clone(entry));
        }
        let pipeline =
            Pipeline::from_sigma(Arc::clone(&self.sigma), self.stratified, key.grounder)?
                .budget(key.budget)
                .trigger_order(key.order)
                .stable_limits(key.limits)
                .with_executor(Arc::clone(&self.executor))
                .with_cancel(cancel.clone());
        let (space, analysis) = pipeline.solve_with(key.strategy)?;
        let entry = Arc::new(SolveEntry {
            pipeline,
            space,
            analysis: analysis.map_or("flat", |a| a.label()),
        });
        // Interrupted solves are timing-dependent partial results; caching
        // one would serve a deadline-shaped answer to later queries with no
        // deadline at all (and break warm == cold byte-identity).
        if !entry.space.is_interrupted() {
            solves.push((key, Arc::clone(&entry)));
        }
        Ok(entry)
    }

    /// Build the response for a request from a solve entry.
    fn answer(
        &self,
        entry: &SolveEntry,
        request: &QueryRequest,
        cancel: &CancelToken,
    ) -> Result<QueryResponse, CoreError> {
        let space = &entry.space;
        let mut queries = Vec::with_capacity(request.queries.len());
        for atom in &request.queries {
            let brave = space.brave_probability(atom);
            let cautious = space.cautious_probability(atom);
            let (brave_given, cautious_given) = match &request.given {
                Some(g) => {
                    let pair = [atom.clone(), g.clone()];
                    let joint_brave = space.probability_brave_all(&pair);
                    let p_brave_g = space.probability_brave_all(std::slice::from_ref(g));
                    let joint_cautious = space.probability_cautious_all(&pair);
                    let p_cautious_g = space.probability_cautious_all(std::slice::from_ref(g));
                    (
                        joint_brave.div(&p_brave_g),
                        joint_cautious.div(&p_cautious_g),
                    )
                }
                None => (None, None),
            };
            queries.push(QueryReport {
                atom: atom.to_string(),
                brave,
                cautious,
                brave_given,
                cautious_given,
            });
        }

        let mut marginals = Vec::new();
        for pred in &request.marginals {
            for atom in space.atoms_with_predicate(pred) {
                marginals.push(QueryReport {
                    atom: atom.to_string(),
                    brave: space.brave_probability(&atom),
                    cautious: space.cautious_probability(&atom),
                    brave_given: None,
                    cautious_given: None,
                });
            }
        }

        let top_events = match request.top {
            Some(k) => space
                .events_by_mass_top(k)
                .into_iter()
                .map(|(key, mass)| EventReport {
                    models: key.model_count(),
                    key: key.to_string(),
                    mass,
                })
                .collect(),
            None => Vec::new(),
        };

        let mut mc_reports = Vec::new();
        if let Some(mc) = &request.mc {
            // The entry's pipeline carries the token of the query that
            // solved it; a warm-served MC must observe *this* call's
            // deadline, so the fresh token is passed explicitly.
            let estimates = entry.pipeline.estimate_atoms(
                space,
                &request.queries,
                mc.samples,
                McParams::from(*mc),
                cancel,
            )?;
            for (atom, stats) in request.queries.iter().zip(estimates) {
                mc_reports.push(McReport {
                    atom: atom.to_string(),
                    mean: stats.estimate.mean,
                    std_error: stats.estimate.std_error,
                    samples: stats.samples,
                    abandoned: stats.abandoned,
                });
            }
        }

        Ok(QueryResponse {
            source: self.source.clone(),
            rules: self.rules,
            facts: self.facts,
            grounder: request.grounder.label(),
            threads: self.executor.threads(),
            factors: space.factor_count(),
            analysis: entry.analysis,
            outcomes: space.combined_outcomes(),
            nodes_visited: space.nodes_visited(),
            events: space.combined_events(),
            explored_mass: space.explored_mass(),
            residual_mass: space.residual_mass(),
            truncated: space.is_truncated(),
            interrupted: space.is_interrupted(),
            p_stable: space.has_stable_model_probability(),
            fingerprint: space.fingerprint(),
            queries,
            given: request.given.as_ref().map(|a| a.to_string()),
            marginals,
            top_events,
            mc: mc_reports,
        })
    }
}

impl std::fmt::Debug for Solver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Solver")
            .field("source", &self.source)
            .field("rules", &self.rules)
            .field("facts", &self.facts)
            .field("warm_solves", &self.warm_solves())
            .finish()
    }
}

/// Convenience: lift the request's Monte-Carlo parameters into the
/// pipeline's [`McParams`].
impl From<McRequest> for McParams {
    fn from(mc: McRequest) -> Self {
        McParams::new()
            .with_max_triggers(mc.max_triggers)
            .with_seed(mc.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::request::{McRequest, QueryRequest, SolveStrategy};
    use crate::chase::ChaseBudget;
    use crate::pipeline::{resolve_strategy, GrounderChoice};
    use crate::program::{coin_program, network_resilience_program};
    use gdlog_data::{Const, GroundAtom};

    fn network_db() -> Database {
        let mut db = Database::new();
        for i in 1..=3i64 {
            db.insert_fact("Router", [Const::Int(i)]);
            for j in 1..=3i64 {
                if i != j {
                    db.insert_fact("Connected", [Const::Int(i), Const::Int(j)]);
                }
            }
        }
        db.insert_fact("Infected", [Const::Int(1), Const::Int(1)]);
        db
    }

    fn network_solver() -> Solver {
        Solver::compile(
            "network",
            &network_resilience_program(0.1),
            &network_db(),
            Arc::new(Executor::sequential()),
        )
        .expect("compile")
    }

    #[test]
    fn warm_responses_are_byte_identical_to_cold() {
        let solver = network_solver();
        let request = QueryRequest::new()
            .query(GroundAtom::make(
                "Uninfected",
                vec![gdlog_data::Const::Int(2)],
            ))
            .top(4);
        let cold = solver.query(&request).expect("cold query");
        assert_eq!(solver.warm_solves(), 1);
        let warm = solver.query(&request).expect("warm query");
        assert_eq!(solver.warm_solves(), 1, "same config must share one solve");
        assert_eq!(cold.render_json(), warm.render_json());
        assert_eq!(cold.render_text(), warm.render_text());
    }

    #[test]
    fn distinct_solve_configurations_get_distinct_entries() {
        let solver = network_solver();
        let flat = QueryRequest::new();
        let small = QueryRequest::new().with_budget(ChaseBudget::small());
        solver.query(&flat).expect("flat");
        solver.query(&small).expect("small budget");
        assert_eq!(solver.warm_solves(), 2);
        // Re-issuing either stays warm.
        solver.query(&flat).expect("flat again");
        assert_eq!(solver.warm_solves(), 2);
    }

    #[test]
    fn auto_strategy_resolves_statically() {
        // The coin program's only Δ-rule is ground → single-trigger
        // certificate → flat.
        let sigma =
            Arc::new(SigmaPi::translate(&coin_program(), &Database::new()).expect("translate"));
        assert_eq!(
            resolve_strategy(SolveStrategy::Auto, &sigma, &ChaseBudget::default()),
            SolveStrategy::Flat
        );
        let cut = ChaseBudget {
            min_path_probability: 0.25,
            ..ChaseBudget::default()
        };
        assert_eq!(
            resolve_strategy(SolveStrategy::Auto, &sigma, &cut),
            SolveStrategy::Flat
        );
        // Concrete strategies pass through untouched.
        assert_eq!(
            resolve_strategy(SolveStrategy::Factored, &sigma, &ChaseBudget::default()),
            SolveStrategy::Factored
        );
    }

    #[test]
    fn auto_matches_flat_on_single_trigger_programs() {
        let solver = Solver::compile(
            "coin",
            &coin_program(),
            &Database::new(),
            Arc::new(Executor::sequential()),
        )
        .expect("compile");
        let auto = solver
            .query(&QueryRequest::new().with_strategy(SolveStrategy::Auto))
            .expect("auto");
        let flat = solver.query(&QueryRequest::new()).expect("flat");
        assert_eq!(auto.analysis, "flat");
        assert_eq!(auto.fingerprint, flat.fingerprint);
        assert_eq!(auto.p_stable.to_string(), flat.p_stable.to_string());
    }

    #[test]
    fn mc_without_queries_is_a_request_error() {
        let solver = network_solver();
        let err = solver
            .query(&QueryRequest::new().monte_carlo(McRequest::samples(10)))
            .expect_err("mc without queries");
        assert!(matches!(err, CoreError::Request(_)));
        assert!(err.to_string().contains("--query"));
        // Zero samples estimate nothing: a request error, not a panic.
        let atom = GroundAtom::make("Uninfected", vec![Const::Int(2)]);
        let err = solver
            .query(
                &QueryRequest::new()
                    .query(atom)
                    .monte_carlo(McRequest::samples(0)),
            )
            .expect_err("mc with zero samples");
        assert!(matches!(err, CoreError::Request(_)));
        assert!(err.to_string().contains("at least one sample"));
    }

    #[test]
    fn cancelled_queries_degrade_gracefully_and_never_pollute_the_cache() {
        let solver = network_solver();
        let cancel = CancelToken::new();
        cancel.cancel();
        let request = QueryRequest::new();
        let cut = solver
            .query_with_cancel(&request, &cancel)
            .expect("a cancelled chase degrades to a partial response");
        assert!(cut.interrupted);
        assert!(cut.truncated);
        // The residual accounts for every cut subtree exactly.
        assert_eq!(
            cut.explored_mass.add(&cut.residual_mass),
            gdlog_prob::Prob::ONE
        );
        assert_eq!(cut.residual_mass, gdlog_prob::Prob::ONE);
        // Interrupted solves must never be served to later queries.
        assert_eq!(solver.warm_solves(), 0);
        let clean = solver.query(&request).expect("uncancelled query");
        assert!(!clean.interrupted);
        assert_eq!(clean.residual_mass, gdlog_prob::Prob::ZERO);
        assert_eq!(solver.warm_solves(), 1);
        // The interrupted JSON key never appears on the clean path.
        assert!(!clean.render_json().contains("interrupted"));
        assert!(cut.render_json().contains("\"interrupted\": true"));
    }

    #[test]
    fn cancelled_monte_carlo_is_a_typed_interruption() {
        let solver = network_solver();
        // Solve warm first so only the MC phase sees the fired token.
        let atom = GroundAtom::make("Uninfected", vec![Const::Int(2)]);
        let request = QueryRequest::new()
            .query(atom)
            .monte_carlo(McRequest::samples(1000));
        solver.query(&request).expect("warm-up");
        let cancel = CancelToken::new();
        cancel.cancel();
        let err = solver
            .query_with_cancel(&request, &cancel)
            .expect_err("mc is exact-sample-count-or-nothing");
        assert!(matches!(err, CoreError::Interrupted(_)));
        assert!(err.to_string().contains("monte-carlo"));
    }

    #[test]
    fn self_armed_timeout_interrupts_long_queries() {
        // 18 chained coins: 2^18 outcomes, far more than a 1ms deadline
        // allows. The response must come back promptly, marked interrupted,
        // with the explored/residual split still exact.
        use crate::builder::ProgramBuilder;
        use gdlog_data::Term;
        let mut db = Database::new();
        for i in 1..=18i64 {
            db.insert_fact("Coin", [Const::Int(i)]);
        }
        let program = ProgramBuilder::new()
            .rule(|r| {
                r.body("Coin", vec![Term::var("x")]).head_with_delta(
                    "Toss",
                    vec![Term::var("x")],
                    "Flip",
                    vec![Term::Const(Const::real(0.5).unwrap())],
                    vec![Term::var("x")],
                )
            })
            .build()
            .unwrap();
        let solver = Solver::compile("coins", &program, &db, Arc::new(Executor::sequential()))
            .expect("compile");
        let request = QueryRequest::new().with_timeout_ms(1);
        let response = solver.query(&request).expect("graceful degradation");
        assert!(response.interrupted, "1ms cannot enumerate 2^18 outcomes");
        assert!(response.residual_mass.is_positive());
        assert_eq!(
            response.explored_mass.add(&response.residual_mass),
            gdlog_prob::Prob::ONE
        );
        assert_eq!(solver.warm_solves(), 0);
    }

    /// The solver's Monte-Carlo event, as one whole-program walk tests it.
    fn in_heads(atom: &GroundAtom) -> impl Fn(&crate::PossibleOutcome) -> bool + Sync + '_ {
        move |outcome| {
            outcome.rules.heads().contains(atom)
                || outcome.atr.iter().any(|choice| choice.result == *atom)
        }
    }

    fn reach(x: i64) -> GroundAtom {
        GroundAtom::make("Reach", vec![Const::Int(x), Const::Int(1)])
    }

    /// `k` disjoint reachability diamonds `10c+1 → {10c+2, 10c+3} →
    /// 10c+4`, each edge kept with probability 0.9: one factor per diamond,
    /// whose sink is reached with probability 1 − 0.19² = 0.9639.
    fn cascade(k: i64) -> (Program, Database) {
        use crate::builder::ProgramBuilder;
        use gdlog_data::Term;
        let program = ProgramBuilder::new()
            .rule(|r| {
                r.body("Source", vec![Term::var("x")])
                    .head("Reach", vec![Term::var("x"), Term::int(1)])
            })
            .rule(|r| {
                r.body("Reach", vec![Term::var("x"), Term::int(1)])
                    .body("Edge", vec![Term::var("x"), Term::var("y")])
                    .head_with_delta(
                        "Reach",
                        vec![Term::var("y")],
                        "Flip",
                        vec![Term::Const(Const::real(0.9).unwrap())],
                        vec![Term::var("x"), Term::var("y")],
                    )
            })
            .build()
            .unwrap();
        let mut db = Database::new();
        for c in 0..k {
            let b = 10 * c;
            db.insert_fact("Source", [Const::Int(b + 1)]);
            for (x, y) in [(1, 2), (1, 3), (2, 4), (3, 4)] {
                db.insert_fact("Edge", [Const::Int(b + x), Const::Int(b + y)]);
            }
        }
        (program, db)
    }

    #[test]
    fn factored_monte_carlo_walks_only_the_atoms_factor() {
        let (program, db) = cascade(10);
        let solver = Solver::compile("cascade", &program, &db, Arc::new(Executor::sequential()))
            .expect("compile");
        let mc = McRequest::samples(2000).with_max_triggers(8);
        let request = QueryRequest::new()
            .with_strategy(SolveStrategy::Factored)
            .query(reach(54))
            .monte_carlo(mc);
        let response = solver.query(&request).expect("factored mc");
        assert_eq!(response.factors, 10);
        assert_eq!(
            response.queries[0].brave,
            gdlog_prob::Prob::ratio(9639, 10000)
        );
        // One diamond's walk applies at most four triggers; a walk of the
        // whole program needs 20 to 40.
        let report = &response.mc[0];
        assert_eq!((report.samples, report.abandoned), (2000, 0));
        let estimate = gdlog_prob::sampler::Estimate {
            mean: report.mean,
            std_error: report.std_error,
            samples: report.samples,
        };
        assert!(estimate.consistent_with(0.9639, 4.0), "{estimate:?}");
        let whole = Pipeline::new(&program, &db)
            .unwrap()
            .sampler_with(McParams::from(mc))
            .estimate(200, in_heads(&reach(54)))
            .unwrap();
        assert_eq!(whole.abandoned, 200, "every whole-program walk runs out");
    }

    #[test]
    fn atoms_no_factor_holds_are_zero_without_walking() {
        let (program, db) = cascade(3);
        let solver = Solver::compile("cascade", &program, &db, Arc::new(Executor::sequential()))
            .expect("compile");
        let request = QueryRequest::new()
            .with_strategy(SolveStrategy::Factored)
            .query(reach(99))
            .monte_carlo(McRequest::samples(500));
        solver.query(&request).expect("warm-up");
        // A fired token fails any walk, so a clean answer proves none ran.
        let cancel = CancelToken::new();
        cancel.cancel();
        let response = solver
            .query_with_cancel(&request, &cancel)
            .expect("no walk, no interruption");
        assert_eq!(response.factors, 3);
        let report = &response.mc[0];
        assert_eq!(
            (
                report.mean,
                report.std_error,
                report.samples,
                report.abandoned
            ),
            (0.0, 0.0, 500, 0)
        );
    }

    #[test]
    fn one_factor_monte_carlo_is_the_whole_program_walk() {
        let solver = Solver::compile(
            "coin",
            &coin_program(),
            &Database::new(),
            Arc::new(Executor::sequential()),
        )
        .expect("compile");
        let atom = GroundAtom::make("Coin", vec![Const::Int(1)]);
        let mc = McRequest::samples(700).with_seed(5).with_max_triggers(3);
        let response = solver
            .query(
                &QueryRequest::new()
                    .with_strategy(SolveStrategy::Factored)
                    .query(atom.clone())
                    .monte_carlo(mc),
            )
            .expect("factored mc");
        assert_eq!(response.factors, 1);
        let want = Pipeline::new(&coin_program(), &Database::new())
            .unwrap()
            .sampler_with(McParams::from(mc))
            .estimate(700, in_heads(&atom))
            .unwrap();
        let got = &response.mc[0];
        assert_eq!(got.mean.to_bits(), want.estimate.mean.to_bits());
        assert_eq!(got.std_error.to_bits(), want.estimate.std_error.to_bits());
        assert_eq!((got.samples, got.abandoned), (want.samples, want.abandoned));
    }

    #[test]
    fn one_walk_set_serves_every_atom_of_a_factor() {
        // Two atoms of one (flat) factor share one set of walks; each
        // estimate is bit-identical to a per-atom estimator's.
        let solver = network_solver();
        let atoms = [
            GroundAtom::make("Uninfected", vec![Const::Int(2)]),
            GroundAtom::make("Infected", vec![Const::Int(3), Const::Int(1)]),
        ];
        let mc = McRequest::samples(600).with_seed(9);
        let request = atoms
            .iter()
            .fold(QueryRequest::new(), |r, a| r.query(a.clone()))
            .monte_carlo(mc);
        let response = solver.query(&request).expect("mc");
        let pipeline = Pipeline::new(&network_resilience_program(0.1), &network_db()).unwrap();
        for (atom, got) in atoms.iter().zip(&response.mc) {
            let want = pipeline
                .sampler_with(McParams::from(mc))
                .estimate(600, in_heads(atom))
                .unwrap();
            assert_eq!(got.atom, atom.to_string());
            assert_eq!(got.mean.to_bits(), want.estimate.mean.to_bits(), "{atom}");
            assert_eq!(got.std_error.to_bits(), want.estimate.std_error.to_bits());
            assert_eq!((got.samples, got.abandoned), (want.samples, want.abandoned));
        }
        assert!(response.mc[0].mean > 0.0 && response.mc[1].mean > 0.0);
    }

    /// `-> N(UniformInt<1,100>)`, facts `Big(1..100)`, `N(x), Big(x) ->
    /// Hit`, and an independent coin: two factors, `P(Hit) = 1`, and a
    /// support past the default `max_branching` of 64.
    fn wide_draw() -> (Program, Database) {
        use crate::builder::ProgramBuilder;
        use gdlog_data::Term;
        let program = ProgramBuilder::new()
            .rule(|r| {
                r.head_with_delta(
                    "N",
                    vec![],
                    "UniformInt",
                    vec![Term::int(1), Term::int(100)],
                    vec![],
                )
            })
            .rule(|r| {
                r.body("N", vec![Term::var("x")])
                    .body("Big", vec![Term::var("x")])
                    .head("Hit", vec![])
            })
            .rule(|r| {
                r.head_with_delta(
                    "Coin",
                    vec![],
                    "Flip",
                    vec![Term::Const(Const::real(0.5).unwrap())],
                    vec![],
                )
            })
            .build()
            .unwrap();
        let mut db = Database::new();
        for x in 1..=100 {
            db.insert_fact("Big", [Const::Int(x)]);
        }
        (program, db)
    }

    #[test]
    fn a_cut_support_samples_the_whole_program() {
        // Walks draw N from all of 1..=100 while the universe holds only the
        // first 64 values: a walk past the cut derives `N(70)`, which no
        // factor holds, and needs `Big(70)`, which the base slice holds. So
        // a cut product keeps no slices and walks the whole program.
        let (program, db) = wide_draw();
        let pipeline = Pipeline::new(&program, &db).unwrap();
        let components = pipeline.factor_components().unwrap().expect("factored");
        assert!(components.iter().all(|c| c.support_cut));
        let wide = ChaseBudget {
            max_branching: 100,
            ..ChaseBudget::default()
        };
        let uncut = Pipeline::new(&program, &db).unwrap().budget(wide);
        let components = uncut.factor_components().unwrap().expect("factored");
        assert!(components.iter().all(|c| !c.support_cut));

        let solver = Solver::compile("wide", &program, &db, Arc::new(Executor::sequential()))
            .expect("compile");
        let atoms = [
            GroundAtom::make("Hit", vec![]),
            GroundAtom::make("N", vec![Const::Int(70)]),
        ];
        let mc = McRequest::samples(800).with_seed(3);
        let request = atoms
            .iter()
            .fold(QueryRequest::new(), |r, a| r.query(a.clone()))
            .with_strategy(SolveStrategy::Factored)
            .monte_carlo(mc);
        let response = solver.query(&request).expect("factored mc");
        assert_eq!(response.factors, 3);
        for (atom, got) in atoms.iter().zip(&response.mc) {
            let want = pipeline
                .sampler_with(McParams::from(mc))
                .estimate(800, in_heads(atom))
                .unwrap();
            assert_eq!(got.mean.to_bits(), want.estimate.mean.to_bits(), "{atom}");
            assert_eq!((got.samples, got.abandoned), (want.samples, want.abandoned));
        }
        assert_eq!(response.mc[0].mean, 1.0);
        assert!(response.mc[1].mean > 0.0, "N(70) is drawn past the cut");
    }

    #[test]
    fn grounder_choice_reaches_the_response() {
        let solver = network_solver();
        let resp = solver
            .query(&QueryRequest::new().with_grounder(GrounderChoice::Auto))
            .expect("auto grounder");
        assert_eq!(resp.grounder, "auto");
        assert_eq!(resp.source, "network");
    }
}
