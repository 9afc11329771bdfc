//! The per-claim experiment runners, `e1`–`e10`.
//!
//! Each experiment reproduces a quantitative claim of the paper (a worked
//! example or a finitely-checkable theorem) and reports paper-vs-measured
//! rows. Performance is measured by the [`crate::suites`] trackers and by
//! `perfbench`, not here.

use crate::report::{Report, Row};
use crate::workloads::{
    coin_chain, dime_quarter_workload, network_database, network_program, Topology,
};
use gdlog_core::{
    as_good_as, bckov_output, coin_program, compare_outputs, dependency_graph, enumerate_outcomes,
    isomorphic_to_bckov, stratification, ChaseBudget, Grounder, GrounderChoice, McParams,
    PerfectGrounder, Pipeline, Program, SigmaPi, SimpleGrounder, TriggerOrder,
};
use gdlog_data::{Const, Database, GroundAtom, Predicate};
use gdlog_engine::{stable_models, StableModelLimits};
use gdlog_prob::Prob;
use std::sync::Arc;

/// The outcome of one experiment: its id and its report.
#[derive(Clone, Debug)]
pub struct ExperimentOutcome {
    /// Experiment identifier ("e1" … "e10").
    pub id: String,
    /// The paper-vs-measured report.
    pub report: Report,
}

impl ExperimentOutcome {
    /// Did every row of the report match the paper?
    pub fn all_ok(&self) -> bool {
        self.report.all_ok()
    }
}

/// The known experiment identifiers.
pub const EXPERIMENT_IDS: [&str; 10] =
    ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10"];

/// Run a single experiment by id. Unknown ids panic (callers validate against
/// [`EXPERIMENT_IDS`]).
pub fn run_experiment(id: &str) -> ExperimentOutcome {
    let report = match id {
        "e1" => e1_network_resilience(),
        "e2" => e2_coin_program(),
        "e3" => e3_dime_quarter(),
        "e4" => e4_chase_order_independence(),
        "e5" => e5_bckov_isomorphism(),
        "e6" => e6_as_good_as(),
        "e7" => e7_grounder_properties(),
        "e8" => e8_dependency_graph(),
        "e9" => e9_grounding_sizes(),
        "e10" => e10_monte_carlo(),
        other => panic!("unknown experiment id {other}"),
    };
    ExperimentOutcome {
        id: id.to_owned(),
        report,
    }
}

fn fmt_prob(p: &Prob) -> String {
    match p.as_exact() {
        Some(r) => format!("{r} ({:.4})", r.to_f64()),
        None => format!("{:.6}", p.to_f64()),
    }
}

fn solve(program: &Program, db: &Database, choice: GrounderChoice) -> gdlog_core::OutputSpace {
    Pipeline::with_grounder(program, db, choice)
        .expect("pipeline construction")
        .solve()
        .expect("pipeline solve")
}

/// E1 — Example 3.10: the 3-router clique is dominated with probability 0.19,
/// plus a small sweep over the infection probability and the ring topology.
fn e1_network_resilience() -> Report {
    let mut report = Report::new("E1 — network resilience (Example 3.10)");
    let db = network_database(3, Topology::Clique);
    let space = solve(&network_program(0.1), &db, GrounderChoice::Simple);
    let dominated = space.has_stable_model_probability();
    report.push(Row::new(
        "P(dominated), K3, p=0.1",
        "0.19",
        &fmt_prob(&dominated),
        dominated == Prob::ratio(19, 100),
    ));
    report.push(Row::new(
        "P(no stable model), K3, p=0.1",
        "0.81",
        &fmt_prob(&space.probability_where(|k| k.is_empty())),
        space.probability_where(|k| k.is_empty()) == Prob::ratio(81, 100),
    ));
    report.push(Row::new(
        "explored + residual mass",
        "1",
        &fmt_prob(&space.explored_mass().add(&space.residual_mass())),
        space
            .explored_mass()
            .add(&space.residual_mass())
            .approx_eq(&Prob::ONE, 1e-9),
    ));
    // Sweep: the domination probability grows with p (shape check, the paper
    // gives no numbers beyond p = 0.1).
    let mut previous = Prob::ZERO;
    let mut monotone = true;
    for p in [0.1, 0.3, 0.5, 0.9] {
        let space = solve(&network_program(p), &db, GrounderChoice::Simple);
        let dominated = space.has_stable_model_probability();
        if dominated.to_f64() + 1e-12 < previous.to_f64() {
            monotone = false;
        }
        previous = dominated;
        report.push(Row::new(
            &format!("P(dominated), K3, p={p}"),
            "increasing in p",
            &fmt_prob(&previous),
            true,
        ));
    }
    report.push(Row::new(
        "monotone in p",
        "yes",
        if monotone { "yes" } else { "no" },
        monotone,
    ));
    report
}

/// E2 — the coin program of Section 3.
fn e2_coin_program() -> Report {
    let mut report = Report::new("E2 — the coin program (Section 3)");
    let program = coin_program();
    let pipeline = Pipeline::new(&program, &Database::new()).unwrap();
    let chase = pipeline.chase().unwrap();
    report.push(Row::new(
        "finite possible outcomes",
        "2 (heads / tails)",
        &chase.outcomes.len().to_string(),
        chase.outcomes.len() == 2,
    ));
    let all_half = chase
        .outcomes
        .iter()
        .all(|o| o.probability == Prob::ratio(1, 2));
    report.push(Row::new(
        "each outcome probability",
        "0.5",
        if all_half { "0.5" } else { "≠0.5" },
        all_half,
    ));
    let limits = StableModelLimits::default();
    let mut counts: Vec<usize> = chase
        .outcomes
        .iter()
        .map(|o| o.stable_models(&limits).unwrap().len())
        .collect();
    counts.sort();
    report.push(Row::new(
        "stable models per outcome",
        "{0, 2}",
        &format!("{counts:?}"),
        counts == vec![0, 2],
    ));
    let space = pipeline.solve().unwrap();
    report.push(Row::new(
        "P(some stable model)",
        "0.5",
        &fmt_prob(&space.has_stable_model_probability()),
        space.has_stable_model_probability() == Prob::ratio(1, 2),
    ));

    // Adding the rule Coin(1) → ⊥ makes the two configurations induce the
    // same (empty) set of stable models — "different configurations may lead
    // to the same set of stable models" (Section 3).
    let mut extended = program.clone();
    extended.push_constraint(
        vec![gdlog_data::Atom::make(
            "Coin",
            vec![gdlog_data::Term::int(1)],
        )],
        vec![],
    );
    let space = solve(&extended, &Database::new(), GrounderChoice::Simple);
    report.push(Row::new(
        "with Coin(1) → ⊥: distinct events",
        "1 (sms = ∅ everywhere)",
        &space.event_count().to_string(),
        space.event_count() == 1 && space.probability_where(|k| k.is_empty()) == Prob::ONE,
    ));
    report
}

/// E3 — the dime/quarter example of Appendix E (perfect grounder).
fn e3_dime_quarter() -> Report {
    let mut report = Report::new("E3 — dimes and quarters (Appendix E)");
    let (program, db) = dime_quarter_workload(2, 1);
    let space = solve(&program, &db, GrounderChoice::Perfect);
    report.push(Row::new(
        "finite possible outcomes",
        "5",
        &space.outcome_count().to_string(),
        space.outcome_count() == 5,
    ));
    let some_tail = GroundAtom::make("SomeDimeTail", vec![]);
    let p_tail = space.cautious_probability(&some_tail);
    report.push(Row::new(
        "P(SomeDimeTail)",
        "0.75",
        &fmt_prob(&p_tail),
        p_tail == Prob::ratio(3, 4),
    ));
    let quarter_tail = GroundAtom::make("QuarterTail", vec![Const::Int(3), Const::Int(1)]);
    let p_qt = space.cautious_probability(&quarter_tail);
    report.push(Row::new(
        "P(QuarterTail(3, 1))",
        "0.125",
        &fmt_prob(&p_qt),
        p_qt == Prob::ratio(1, 8),
    ));
    report.push(Row::new(
        "residual mass",
        "0",
        &fmt_prob(&space.residual_mass()),
        space.residual_mass() == Prob::ZERO,
    ));
    report
}

/// E4 — Theorem 4.6 / Lemma 4.4: the chase gives the same probability space
/// regardless of trigger order.
fn e4_chase_order_independence() -> Report {
    let mut report = Report::new("E4 — chase order independence (Lemma 4.4, Theorem 4.6)");
    let cases: Vec<(&str, Program, Database)> = vec![
        (
            "network K3",
            network_program(0.1),
            network_database(3, Topology::Clique),
        ),
        ("coin", coin_program(), Database::new()),
        (
            "dime/quarter",
            dime_quarter_workload(2, 1).0,
            dime_quarter_workload(2, 1).1,
        ),
        ("coin chain n=4", coin_chain(4, 0.5).0, coin_chain(4, 0.5).1),
    ];
    for (name, program, db) in cases {
        let sigma = Arc::new(SigmaPi::translate(&program, &db).unwrap());
        let grounder = SimpleGrounder::new(sigma);
        let canonical = |order| {
            let chase = enumerate_outcomes(&grounder, &ChaseBudget::default(), order).unwrap();
            let mut keys: Vec<String> = chase
                .outcomes
                .iter()
                .map(|o| format!("{}#{}", o.atr, o.probability))
                .collect();
            keys.sort();
            (keys, chase.explored_mass())
        };
        let first = canonical(TriggerOrder::First);
        let last = canonical(TriggerOrder::Last);
        let scrambled = canonical(TriggerOrder::Scrambled);
        let same = first == last && first == scrambled;
        report.push(Row::new(
            &format!("{name}: identical outcome sets across orders"),
            "yes",
            if same { "yes" } else { "no" },
            same,
        ));
        report.push(Row::new(
            &format!("{name}: total mass"),
            "1",
            &fmt_prob(&first.1),
            first.1.approx_eq(&Prob::ONE, 1e-9),
        ));
    }
    report
}

/// E5 — Theorem C.4: the simple-grounder semantics is isomorphic to the BCKOV
/// semantics on positive programs.
fn e5_bckov_isomorphism() -> Report {
    let mut report = Report::new("E5 — BCKOV isomorphism on positive programs (Theorem C.4)");
    // The positive fragment of Example 3.1 (propagation only) on several
    // topologies.
    let positive = Program::new(network_program(0.1).rules()[..1].to_vec());
    for (name, db) in [
        ("line n=4", network_database(4, Topology::Line)),
        ("ring n=4", network_database(4, Topology::Ring)),
        ("clique n=3", network_database(3, Topology::Clique)),
    ] {
        let sigma = Arc::new(SigmaPi::translate(&positive, &db).unwrap());
        let grounder = SimpleGrounder::new(sigma.clone());
        let chase =
            enumerate_outcomes(&grounder, &ChaseBudget::default(), TriggerOrder::First).unwrap();
        let bckov = bckov_output(&sigma, &ChaseBudget::default()).unwrap();
        let iso =
            isomorphic_to_bckov(&grounder, &chase, &bckov, &StableModelLimits::default()).unwrap();
        report.push(Row::new(
            &format!("{name}: isomorphic probability spaces"),
            "yes",
            if iso { "yes" } else { "no" },
            iso,
        ));
        report.push(Row::new(
            &format!("{name}: #outcomes (ours vs BCKOV)"),
            "equal",
            &format!("{} vs {}", chase.outcomes.len(), bckov.outcomes.len()),
            chase.outcomes.len() == bckov.outcomes.len(),
        ));
    }
    report
}

/// E6 — Theorems 3.12 and 5.3: the "as good as" relation.
fn e6_as_good_as() -> Report {
    let mut report = Report::new("E6 — 'as good as' comparisons (Theorems 3.12 and 5.3)");
    // Stratified case: perfect vs simple on the dime/quarter family.
    for dimes in [1usize, 2, 3] {
        let (program, db) = dime_quarter_workload(dimes, 1);
        let sigma = Arc::new(SigmaPi::translate(&program, &db).unwrap());
        let simple = SimpleGrounder::new(sigma.clone());
        let perfect = PerfectGrounder::new(sigma).unwrap();
        let chase_s =
            enumerate_outcomes(&simple, &ChaseBudget::default(), TriggerOrder::First).unwrap();
        let chase_p =
            enumerate_outcomes(&perfect, &ChaseBudget::default(), TriggerOrder::First).unwrap();
        let s_space =
            gdlog_core::OutputSpace::from_chase(&chase_s, &StableModelLimits::default()).unwrap();
        let p_space =
            gdlog_core::OutputSpace::from_chase(&chase_p, &StableModelLimits::default()).unwrap();
        let dominates = as_good_as(&p_space, &s_space);
        report.push(Row::new(
            &format!("{dimes} dime(s): perfect as good as simple"),
            "yes (Thm 5.3)",
            if dominates { "yes" } else { "no" },
            dominates,
        ));
        report.push(Row::new(
            &format!("{dimes} dime(s): outcomes perfect vs simple"),
            "perfect ≤ simple",
            &format!("{} vs {}", chase_p.outcomes.len(), chase_s.outcomes.len()),
            chase_p.outcomes.len() <= chase_s.outcomes.len(),
        ));
    }
    // Positive case: all grounders agree (Theorem 3.12 via equality).
    let positive = Program::new(network_program(0.1).rules()[..1].to_vec());
    let db = network_database(4, Topology::Line);
    let sigma = Arc::new(SigmaPi::translate(&positive, &db).unwrap());
    let simple = SimpleGrounder::new(sigma.clone());
    let perfect = PerfectGrounder::new(sigma).unwrap();
    let s_space = gdlog_core::OutputSpace::from_chase(
        &enumerate_outcomes(&simple, &ChaseBudget::default(), TriggerOrder::First).unwrap(),
        &StableModelLimits::default(),
    )
    .unwrap();
    let p_space = gdlog_core::OutputSpace::from_chase(
        &enumerate_outcomes(&perfect, &ChaseBudget::default(), TriggerOrder::First).unwrap(),
        &StableModelLimits::default(),
    )
    .unwrap();
    let cmp = compare_outputs(&s_space, &p_space);
    report.push(Row::new(
        "positive program: simple ≡ perfect",
        "yes (Thm 3.12)",
        if cmp.equivalent() { "yes" } else { "no" },
        cmp.equivalent(),
    ));
    report
}

/// E7 — Propositions 3.5 / 5.2 and Lemma E.1: grounder correctness spot
/// checks on every terminal configuration of the dime/quarter example.
fn e7_grounder_properties() -> Report {
    let mut report = Report::new("E7 — grounder properties (Prop. 3.5 / 5.2, Lemma E.1)");
    let (program, db) = dime_quarter_workload(2, 1);
    let sigma = Arc::new(SigmaPi::translate(&program, &db).unwrap());
    let perfect = PerfectGrounder::new(sigma.clone()).unwrap();
    let simple = SimpleGrounder::new(sigma);
    let limits = StableModelLimits::default();

    let chase = enumerate_outcomes(&perfect, &ChaseBudget::default(), TriggerOrder::First).unwrap();
    // Lemma E.1: every perfect-grounder possible outcome has exactly one
    // stable model, namely the heads of its rules.
    let mut lemma_e1 = true;
    for outcome in &chase.outcomes {
        let models = outcome.stable_models(&limits).unwrap();
        let full = outcome.full_program();
        if models.len() != 1 || &models[0] != full.heads() {
            lemma_e1 = false;
        }
    }
    report.push(Row::new(
        "perfect outcomes: unique stable model = heads",
        "yes (Lemma E.1)",
        if lemma_e1 { "yes" } else { "no" },
        lemma_e1,
    ));

    // Proposition 3.5 (spot check): for every terminal Σ of the *simple*
    // grounder, sms(GSimple(Σ) ∪ Σ) equals sms computed from the perfect
    // grounder's rules for the same Σ when the latter is also terminal.
    let chase_simple =
        enumerate_outcomes(&simple, &ChaseBudget::default(), TriggerOrder::First).unwrap();
    let mut prop_3_5 = true;
    for outcome in &chase_simple.outcomes {
        let models_simple = outcome.stable_models(&limits).unwrap();
        // The perfect grounding of the same choice set (restricted to the
        // choices actually required) must induce the same models on the
        // original schema.
        let perfect_rules = perfect.full_program(&outcome.atr);
        let models_perfect = stable_models(&perfect_rules, &limits).unwrap();
        let strip = |models: &[Database]| {
            let mut v: Vec<Vec<GroundAtom>> = models
                .iter()
                .map(|m| perfect.sigma().strip_generated(m).canonical_atoms())
                .collect();
            v.sort();
            v
        };
        if strip(&models_simple) != strip(&models_perfect) {
            prop_3_5 = false;
        }
    }
    report.push(Row::new(
        "simple vs perfect: same stable models on sch(Π) per configuration",
        "yes",
        if prop_3_5 { "yes" } else { "no" },
        prop_3_5,
    ));
    report
}

/// E8 — Figure 1: the dependency graph and stratification of the Appendix E
/// program.
fn e8_dependency_graph() -> Report {
    let mut report = Report::new("E8 — dependency graph and strata (Figure 1)");
    let (program, _) = dime_quarter_workload(2, 1);
    let graph = dependency_graph(&program);
    report.push(Row::new(
        "vertices",
        "5",
        &graph.vertex_count().to_string(),
        graph.vertex_count() == 5,
    ));
    let neg_edges = graph
        .edges()
        .filter(|(_, _, s)| *s == gdlog_core::depgraph::EdgeSign::Negative)
        .count();
    report.push(Row::new(
        "negative (dashed) edges",
        "1 (SomeDimeTail → QuarterTail)",
        &neg_edges.to_string(),
        neg_edges == 1,
    ));
    let strat = stratification(&program).unwrap();
    report.push(Row::new(
        "strata",
        "5 singleton components",
        &strat.len().to_string(),
        strat.len() == 5,
    ));
    let s = |name: &str, ar| strat.stratum_of(&Predicate::new(name, ar)).unwrap();
    let order_ok = s("Dime", 1) < s("DimeTail", 2)
        && s("DimeTail", 2) < s("SomeDimeTail", 0)
        && s("SomeDimeTail", 0) < s("QuarterTail", 2);
    report.push(Row::new(
        "topological order Dime < DimeTail < SomeDimeTail < QuarterTail",
        "yes",
        if order_ok { "yes" } else { "no" },
        order_ok,
    ));
    report
}

/// E9 — grounding sizes: the perfect grounder produces no more (and usually
/// fewer) ground rules than the simple grounder on stratified programs — the
/// "superfluous ground rules" the paper's conclusion mentions.
fn e9_grounding_sizes() -> Report {
    let mut report = Report::new("E9 — ground rule counts: simple vs perfect grounder");
    for dimes in [1usize, 2, 4, 6] {
        let (program, db) = dime_quarter_workload(dimes, dimes);
        let sigma = Arc::new(SigmaPi::translate(&program, &db).unwrap());
        let simple = SimpleGrounder::new(sigma.clone());
        let perfect = PerfectGrounder::new(sigma.clone()).unwrap();
        // Ground the all-heads configuration (no dime shows tails), the case
        // where the difference is largest because the quarters must be
        // tossed by both grounders.
        let schema = &sigma.atr_schemas()[0];
        let mut atr = gdlog_core::AtrSet::new();
        for d in 1..=dimes as i64 {
            let active = GroundAtom {
                predicate: schema.active,
                args: vec![Const::real(0.5).unwrap(), Const::Int(d)],
            };
            atr.insert(gdlog_core::AtrRule::new(&sigma, active, Const::Int(1)).unwrap())
                .unwrap();
        }
        let simple_rules = simple.ground(&atr).len();
        let perfect_rules = perfect.ground(&atr).len();
        report.push(Row::new(
            &format!("{dimes} dimes / {dimes} quarters (all dimes tails)"),
            "perfect < simple",
            &format!("{perfect_rules} vs {simple_rules}"),
            perfect_rules < simple_rules,
        ));
    }
    report
}

/// E10 — Monte-Carlo estimation vs exact enumeration.
fn e10_monte_carlo() -> Report {
    let mut report = Report::new("E10 — Monte-Carlo vs exact enumeration");
    // Exact value on K3 is 0.19 (E1); the sampler must agree within 4σ.
    let db = network_database(3, Topology::Clique);
    let pipeline = Pipeline::new(&network_program(0.1), &db).unwrap();
    let limits = StableModelLimits::default();
    let mut mc = pipeline.sampler_with(McParams::new().with_max_triggers(128).with_seed(20230613));
    let stats = mc
        .estimate(5000, |outcome| {
            !outcome.stable_models(&limits).unwrap().is_empty()
        })
        .unwrap();
    report.push(Row::new(
        "K3, p=0.1: sampled P(dominated)",
        "0.19 ± 4σ",
        &format!(
            "{:.4} (σ = {:.4})",
            stats.estimate.mean, stats.estimate.std_error
        ),
        stats.estimate.consistent_with(0.19, 4.0),
    ));
    report.push(Row::new(
        "abandoned sample paths",
        "0",
        &stats.abandoned.to_string(),
        stats.abandoned == 0,
    ));

    // A ring of 5 routers: exact enumeration is still feasible; the sampler
    // must agree with it.
    let db = network_database(5, Topology::Ring);
    let pipeline = Pipeline::new(&network_program(0.2), &db).unwrap();
    let exact = pipeline.solve().unwrap().has_stable_model_probability();
    let mut mc = pipeline.sampler_with(McParams::new().with_max_triggers(256).with_seed(7));
    let stats = mc
        .estimate(2000, |outcome| {
            !outcome.stable_models(&limits).unwrap().is_empty()
        })
        .unwrap();
    report.push(Row::new(
        "ring n=5, p=0.2: sampled vs exact P(dominated)",
        &format!("{:.4}", exact.to_f64()),
        &format!("{:.4}", stats.estimate.mean),
        stats.estimate.consistent_with(exact.to_f64(), 4.0),
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_experiments_match_the_paper() {
        // The fast experiments run as part of the test suite; the heavier
        // ones (E4, E6, E9, E10) are exercised by the binary / integration
        // tests.
        for id in ["e2", "e3", "e8"] {
            let outcome = run_experiment(id);
            assert!(
                outcome.all_ok(),
                "experiment {id} failed:\n{}",
                outcome.report
            );
        }
    }

    #[test]
    fn e1_reproduces_example_3_10() {
        let outcome = run_experiment("e1");
        assert!(outcome.all_ok(), "{}", outcome.report);
    }

    #[test]
    #[should_panic(expected = "unknown experiment")]
    fn unknown_ids_panic() {
        run_experiment("e99");
    }
}
