//! Property-based tests of the invariants claimed by the paper, across
//! randomly generated inputs (kept small so the suite stays fast).
//!
//! The suite is deterministic in CI: the proptest runner uses a fixed RNG
//! seed, so a red run reproduces locally with no extra flags. CI clamps the
//! per-test case counts below via `PROPTEST_CASES` (which takes precedence
//! over `with_cases`); set `PROPTEST_RNG_SEED` to explore a fresh stream.
//! See `tests/README.md`.

use gdlog::core::{
    coin_program, dime_quarter_program, enumerate_outcomes, enumerate_outcomes_with,
    network_resilience_program, AtrRule, AtrSet, CancelToken, ChaseBudget, ComponentGrounder,
    CoreError, Executor, Factor, FactoredOutputSpace, GroundRuleSet, Grounder, GrounderChoice,
    McParams, ModelSetCache, ModelSetKey, MonteCarlo, NaivePerfectGrounder, NaiveSimpleGrounder,
    OutputSpace, PerfectGrounder, Pipeline, PossibleOutcome, SigmaPi, SimpleGrounder,
    StaticComponents, TriggerOrder,
};
use gdlog::prelude::*;
use gdlog_engine::{
    is_stable_model, least_model, naive_stable_models, reduct, stable_models, well_founded,
    GroundProgram, GroundRule, StableModelLimits,
};
use gdlog_prob::Rational;
use proptest::prelude::*;
use std::sync::Arc;

mod common;

fn rational() -> impl Strategy<Value = Rational> {
    (-1000i128..1000, 1i128..1000).prop_map(|(n, d)| Rational::new(n, d).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Rational arithmetic is commutative/associative and multiplication
    /// distributes over addition (within the checked range).
    #[test]
    fn rational_field_laws(a in rational(), b in rational(), c in rational()) {
        let ab = a.checked_add(&b).unwrap();
        let ba = b.checked_add(&a).unwrap();
        prop_assert_eq!(ab, ba);
        let amulb = a.checked_mul(&b).unwrap();
        let bmula = b.checked_mul(&a).unwrap();
        prop_assert_eq!(amulb, bmula);
        let left = a.checked_mul(&b.checked_add(&c).unwrap()).unwrap();
        let right = a
            .checked_mul(&b)
            .unwrap()
            .checked_add(&a.checked_mul(&c).unwrap())
            .unwrap();
        prop_assert_eq!(left, right);
    }

    /// Probabilities from short decimals stay exact and round-trip to f64.
    #[test]
    fn prob_from_decimal_is_exact(n in 0u32..=1000u32) {
        let v = n as f64 / 1000.0;
        let p = Prob::from_f64(v);
        prop_assert!(p.is_exact());
        prop_assert!((p.to_f64() - v).abs() < 1e-12);
    }
}

/// A strategy for small random ground normal programs over 0-ary atoms.
fn ground_program() -> impl Strategy<Value = GroundProgram> {
    let atom_names = prop::sample::select(vec!["A", "B", "C", "D", "E"]);
    let rule = (
        atom_names.clone(),
        prop::collection::vec(atom_names.clone(), 0..2),
        prop::collection::vec(atom_names, 0..2),
    )
        .prop_map(|(head, pos, neg)| {
            GroundRule::new(
                GroundAtom::make(head, vec![]),
                pos.into_iter()
                    .map(|n| GroundAtom::make(n, vec![]))
                    .collect(),
                neg.into_iter()
                    .map(|n| GroundAtom::make(n, vec![]))
                    .collect(),
            )
        });
    prop::collection::vec(rule, 1..8).prop_map(GroundProgram::from_rules)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every enumerated stable model really is one (least model of its
    /// reduct) and is a classical model of the program; atoms decided by the
    /// well-founded model are respected.
    #[test]
    fn stable_models_satisfy_their_definition(program in ground_program()) {
        let models = stable_models(&program, &StableModelLimits::default()).unwrap();
        let wf = well_founded(&program);
        for m in &models {
            prop_assert!(is_stable_model(&program, m));
            prop_assert!(program.is_model(m));
            prop_assert_eq!(&least_model(&reduct(&program, m)), m);
            for t in wf.true_atoms.iter() {
                prop_assert!(m.contains(t));
            }
            for f in wf.false_atoms.iter() {
                prop_assert!(!m.contains(f));
            }
        }
        // Distinct stable models are incomparable (anti-chain property).
        for (i, m1) in models.iter().enumerate() {
            for m2 in models.iter().skip(i + 1) {
                prop_assert!(!m1.is_subset_of(m2) && !m2.is_subset_of(m1));
            }
        }
    }
}

/// Random small network databases for chase-level properties.
fn network_db_strategy() -> impl Strategy<Value = Database> {
    (2usize..4, prop::collection::vec(any::<bool>(), 6)).prop_map(|(n, edge_bits)| {
        let mut db = Database::new();
        let mut bit = 0usize;
        for i in 1..=n as i64 {
            db.insert_fact("Router", [Const::Int(i)]);
        }
        for i in 1..=n as i64 {
            for j in (i + 1)..=n as i64 {
                if edge_bits[bit % edge_bits.len()] {
                    db.insert_fact("Connected", [Const::Int(i), Const::Int(j)]);
                    db.insert_fact("Connected", [Const::Int(j), Const::Int(i)]);
                }
                bit += 1;
            }
        }
        db.insert_fact("Infected", [Const::Int(1), Const::Int(1)]);
        db
    })
}

/// Drive a pseudo-random chase path on `grounder`: at each step one open
/// trigger (chosen by the next byte of `picks`) is resolved with outcome 0 or
/// 1 (the byte's high bit). Stops when terminal or when `picks` runs out, so
/// both partial and terminal configurations are produced.
fn random_atr(grounder: &dyn Grounder, picks: &[u8]) -> AtrSet {
    let mut atr = AtrSet::new();
    let mut grounding = grounder.ground_node(&atr);
    for &pick in picks {
        let triggers = grounder.triggers(&atr, grounding.rules());
        if triggers.is_empty() {
            break;
        }
        let trigger = triggers[pick as usize % triggers.len()].clone();
        let outcome = Const::Int(i64::from(pick >> 7));
        let rule = AtrRule::new(grounder.sigma(), trigger, outcome).unwrap();
        let parent_atr = atr.clone();
        atr.insert(rule).unwrap();
        grounding = grounder.ground_from(&atr, &parent_atr, &mut grounding);
        // The incremental grounding must agree with grounding from scratch
        // at every step of the descent — for the perfect grounder this
        // exercises the stratum cursor, and the resumption state itself must
        // agree with the from-scratch one.
        let scratch = grounder.ground_node(&atr);
        assert_eq!(
            grounding.rules().canonical_rules(),
            scratch.rules().canonical_rules(),
            "incremental ground_from diverged from ground"
        );
        assert_eq!(
            grounding.cursor(),
            scratch.cursor(),
            "incremental stratum cursor diverged from ground"
        );
    }
    atr
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The semi-naive simple grounder is extensionally identical to the
    /// retained naive oracle (`gdlog::core::naive`) on random network
    /// databases, random infection probabilities and random (partial or
    /// terminal) AtR sets — and the incremental `ground_from` used by the
    /// chase agrees with grounding from scratch.
    #[test]
    fn seminaive_simple_grounder_matches_the_naive_oracle(
        db in network_db_strategy(),
        p in 1u32..=9u32,
        picks in prop::collection::vec(any::<u8>(), 0..8),
    ) {
        let program = network_resilience_program(p as f64 / 10.0);
        let sigma = Arc::new(SigmaPi::translate(&program, &db).unwrap());
        let grounder = SimpleGrounder::new(sigma);
        let atr = random_atr(&grounder, &picks);
        let seminaive = grounder.ground(&atr);
        let naive = grounder.ground_naive(&atr);
        prop_assert_eq!(seminaive.canonical_rules(), naive.canonical_rules());
    }

    /// The same equivalence for the perfect grounder on the stratified
    /// dime/quarter family with random batch sizes. `random_atr` also
    /// asserts per descent step that the stratum-cursor `ground_from` agrees
    /// with grounding from scratch.
    #[test]
    fn seminaive_perfect_grounder_matches_the_naive_oracle(
        dimes in 1i64..=3,
        quarters in 1i64..=2,
        picks in prop::collection::vec(any::<u8>(), 0..8),
    ) {
        let mut db = Database::new();
        for d in 1..=dimes {
            db.insert_fact("Dime", [Const::Int(d)]);
        }
        for q in 1..=quarters {
            db.insert_fact("Quarter", [Const::Int(dimes + q)]);
        }
        let sigma = Arc::new(SigmaPi::translate(&dime_quarter_program(), &db).unwrap());
        let grounder = PerfectGrounder::new(sigma).unwrap();
        let atr = random_atr(&grounder, &picks);
        let seminaive = grounder.ground(&atr);
        let naive = grounder.ground_naive(&atr);
        prop_assert_eq!(seminaive.canonical_rules(), naive.canonical_rules());
    }

    /// Stratum-cursor resumption on a second stratified family: random coin
    /// chains (probabilistic tosses below a negation stratum). Every descent
    /// step of `random_atr` checks `ground_from` ≡ `ground` and equal
    /// cursors; the terminal grounding must also match the naive oracle.
    #[test]
    fn perfect_ground_from_matches_ground_on_random_coin_chains(
        coins in 1usize..=4,
        p in 1u32..=9u32,
        picks in prop::collection::vec(any::<u8>(), 0..10),
    ) {
        let (program, db) = gdlog_bench::workloads::coin_chain(coins, p as f64 / 10.0);
        let sigma = Arc::new(SigmaPi::translate(&program, &db).unwrap());
        let grounder = PerfectGrounder::new(sigma).unwrap();
        let atr = random_atr(&grounder, &picks);
        let seminaive = grounder.ground(&atr);
        let naive = grounder.ground_naive(&atr);
        prop_assert_eq!(seminaive.canonical_rules(), naive.canonical_rules());
    }

    /// Deep descents on the simple grounder: five cascade diamonds offer 20
    /// triggers once every flip comes up 1 (the picks' high bit), so each
    /// descent takes 17–20 `ground_from` steps — past the 16-layer snapshot
    /// flatten of the rule log and head set. `random_atr` checks
    /// `ground_from` ≡ `ground` at every step.
    #[test]
    fn simple_ground_from_matches_ground_past_the_snapshot_flatten(
        picks in prop::collection::vec(128u8..=255, 17..=24),
    ) {
        let (program, db) = gdlog_bench::workloads::cascade_copies(5);
        let sigma = Arc::new(SigmaPi::translate(&program, &db).unwrap());
        let grounder = SimpleGrounder::new(sigma);
        let atr = random_atr(&grounder, &picks);
        prop_assert!(atr.len() >= 17);
        let seminaive = grounder.ground(&atr);
        let naive = grounder.ground_naive(&atr);
        prop_assert_eq!(seminaive.canonical_rules(), naive.canonical_rules());
    }
}

/// A choice made early must still join with atoms derived after it: `Mark`'s
/// trigger only binds `x`, so once the coin adds `Link(1, 3)` the grounding
/// needs the instance of the `Mark` rule over the earlier `Result` atom and
/// the new link. Both trigger orders, both grounders, `ground_from` ≡
/// `ground` at every step.
#[test]
fn ground_from_joins_new_atoms_with_earlier_choices() {
    let (program, db) = gdlog_parser::parse_program(
        "-> Coin(Flip<0.5>).\nCoin(1) -> Link(1, 3).\nNode(x), Link(x, y) -> Mark(x, Flip<0.5>[x]).\nNode(1).\nLink(1, 2).\n",
    )
    .unwrap();
    let sigma = Arc::new(SigmaPi::translate(&program, &db).unwrap());
    let grounders: [Box<dyn Grounder>; 2] = [
        Box::new(SimpleGrounder::new(sigma.clone())),
        Box::new(PerfectGrounder::new(sigma).unwrap()),
    ];
    for grounder in &grounders {
        for first in [0x80u8, 0x81] {
            let atr = random_atr(grounder.as_ref(), &[first, 0x80]);
            assert_eq!(atr.len(), 2);
            let rules = grounder.ground(&atr);
            let marks = rules
                .iter()
                .filter(|r| r.head == GroundAtom::make("Mark", vec![Const::Int(1), Const::Int(1)]))
                .count();
            assert_eq!(marks, 2, "{} grounder, first pick {first}", grounder.name());
        }
    }
}

/// A deep Monte-Carlo walk pinned to its estimate: 300 walks over ten
/// cascade diamonds (up to 40 triggers each), under both grounders. Any
/// change to trigger order, to the seeding of incremental grounding or to the
/// walk RNG moves the hit count (289 of 300 walks reach the sink).
#[test]
fn deep_monte_carlo_estimate_is_pinned() {
    let (program, db) = gdlog_bench::workloads::cascade_copies(10);
    let sink = GroundAtom::make("Reach", vec![Const::Int(54), Const::Int(1)]);
    for choice in [GrounderChoice::Simple, GrounderChoice::Perfect] {
        let pipeline = Pipeline::with_grounder(&program, &db, choice).unwrap();
        let stats = pipeline
            .sampler_with(McParams::new().with_max_triggers(128).with_seed(20231))
            .estimate(300, |outcome| outcome.rules.heads().contains(&sink))
            .unwrap();
        assert_eq!((stats.samples, stats.abandoned), (300, 0), "{choice:?}");
        assert_eq!(stats.estimate.mean, 0.9633333333333334, "{choice:?}");
    }
}

/// A canonical fingerprint of a chase result: for every outcome its choice
/// set, probability and the canonical listings of all its stable models.
fn outcome_fingerprints(
    grounder: &dyn Grounder,
    limits: &StableModelLimits,
) -> Vec<(String, String, Vec<Vec<GroundAtom>>)> {
    let result = enumerate_outcomes(grounder, &ChaseBudget::default(), TriggerOrder::First)
        .expect("enumeration succeeds");
    let mut keys: Vec<(String, String, Vec<Vec<GroundAtom>>)> = result
        .outcomes
        .iter()
        .map(|o| {
            let mut models: Vec<Vec<GroundAtom>> = o
                .stable_models(limits)
                .expect("stable model search succeeds")
                .iter()
                .map(|m| m.canonical_atoms())
                .collect();
            models.sort();
            (o.atr.to_string(), o.probability.to_string(), models)
        })
        .collect();
    keys.sort();
    keys
}

/// Satellite check for the refactor: on the paper's worked examples the full
/// pipeline — outcomes, probabilities *and stable-model sets* — is unchanged
/// when grounding semi-naively instead of naively.
#[test]
fn paper_examples_stable_models_unchanged_by_seminaive_grounding() {
    let limits = StableModelLimits::default();

    // Example 3.1/3.6/3.10: network resilience on the 3-clique (simple).
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
    let sigma = Arc::new(SigmaPi::translate(&network_resilience_program(0.1), &db).unwrap());
    let seminaive = SimpleGrounder::new(sigma);
    let naive = NaiveSimpleGrounder(seminaive.clone());
    assert_eq!(
        outcome_fingerprints(&seminaive, &limits),
        outcome_fingerprints(&naive, &limits)
    );

    // Section 3's coin program (simple grounder; one outcome has no stable
    // model, the other two).
    let sigma = Arc::new(SigmaPi::translate(&coin_program(), &Database::new()).unwrap());
    let seminaive = SimpleGrounder::new(sigma);
    let naive = NaiveSimpleGrounder(seminaive.clone());
    assert_eq!(
        outcome_fingerprints(&seminaive, &limits),
        outcome_fingerprints(&naive, &limits)
    );

    // Appendix E: dimes and quarters (perfect grounder).
    let mut db = Database::new();
    db.insert_fact("Dime", [Const::Int(1)]);
    db.insert_fact("Dime", [Const::Int(2)]);
    db.insert_fact("Quarter", [Const::Int(3)]);
    let sigma = Arc::new(SigmaPi::translate(&dime_quarter_program(), &db).unwrap());
    let seminaive = PerfectGrounder::new(sigma).unwrap();
    let naive = NaivePerfectGrounder(seminaive.clone());
    assert_eq!(
        outcome_fingerprints(&seminaive, &limits),
        outcome_fingerprints(&naive, &limits)
    );
}

/// Satellite check for the incremental chase: snapshot-shared enumeration
/// (each child extends a structural snapshot of its parent's grounding; the
/// perfect grounder resumes at its stratum cursor) yields identical
/// outcomes, probabilities *and residual mass* to regrounding every node
/// from scratch, on the paper examples — under the default budget and under
/// a truncating one.
#[test]
fn chase_enumeration_is_unchanged_by_incremental_snapshot_sharing() {
    // The same stripped-hooks baseline the chase benchmarks measure against.
    use gdlog_bench::workloads::Reground;
    let compare = |grounder: &dyn Grounder| {
        let scratch = Reground(grounder);
        for budget in [
            ChaseBudget::default(),
            ChaseBudget {
                max_outcomes: 3,
                max_depth: 4,
                max_branching: 2,
                min_path_probability: 0.0,
            },
        ] {
            let a = enumerate_outcomes(grounder, &budget, TriggerOrder::First).unwrap();
            let b = enumerate_outcomes(&scratch, &budget, TriggerOrder::First).unwrap();
            let canon = |r: &gdlog::core::ChaseResult| {
                let mut v: Vec<String> = r
                    .outcomes
                    .iter()
                    .map(|o| format!("{}@{}", o.atr, o.probability))
                    .collect();
                v.sort();
                v
            };
            assert_eq!(
                canon(&a),
                canon(&b),
                "outcomes differ ({})",
                grounder.name()
            );
            assert_eq!(
                a.residual_mass.to_string(),
                b.residual_mass.to_string(),
                "residual mass differs ({})",
                grounder.name()
            );
            assert_eq!(a.truncated, b.truncated);
            assert_eq!(a.nodes_visited, b.nodes_visited);
        }
    };

    // Example 3.1/3.6/3.10: network resilience on the 3-clique (simple).
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
    let sigma = Arc::new(SigmaPi::translate(&network_resilience_program(0.1), &db).unwrap());
    compare(&SimpleGrounder::new(sigma));

    // Section 3's coin program (simple).
    let sigma = Arc::new(SigmaPi::translate(&coin_program(), &Database::new()).unwrap());
    compare(&SimpleGrounder::new(sigma));

    // Appendix E: dimes and quarters (perfect, stratum cursor).
    let mut db = Database::new();
    db.insert_fact("Dime", [Const::Int(1)]);
    db.insert_fact("Dime", [Const::Int(2)]);
    db.insert_fact("Quarter", [Const::Int(3)]);
    let sigma = Arc::new(SigmaPi::translate(&dime_quarter_program(), &db).unwrap());
    compare(&PerfectGrounder::new(sigma).unwrap());
}

/// The thread counts the parallel-equivalence properties sweep: sequential,
/// an odd count that never divides the branch fan-out evenly, and more
/// workers than any of the small workloads can saturate.
const THREAD_SWEEP: [usize; 3] = [1, 3, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite check for the parallel chase: on random coin-chain and
    /// network-ring programs, exploring the chase tree through a
    /// work-stealing pool yields **bit-identical** results to the
    /// sequential walk — same outcome list in the same order, same exact
    /// `Prob` masses, same residual, same truncation flag and same visited
    /// node count — for every thread count, under the default budget and
    /// under truncating ones (where the speculative walk must defer to the
    /// sequential replay).
    #[test]
    fn parallel_chase_equals_sequential_on_random_programs(
        coins in 1usize..=5,
        ring in 3usize..=4,
        p in 1u32..=9u32,
    ) {
        let (program, db) = gdlog_bench::workloads::coin_chain(coins, p as f64 / 10.0);
        let sigma = Arc::new(SigmaPi::translate(&program, &db).unwrap());
        let chain = PerfectGrounder::new(sigma).unwrap();
        let db = gdlog_bench::workloads::network_database(
            ring,
            gdlog_bench::workloads::Topology::Ring,
        );
        let program = network_resilience_program(p as f64 / 10.0);
        let sigma = Arc::new(SigmaPi::translate(&program, &db).unwrap());
        let net = SimpleGrounder::new(sigma);
        let grounders: [&dyn Grounder; 2] = [&chain, &net];

        let budgets = [
            ChaseBudget::default(),
            ChaseBudget { max_outcomes: 2, ..ChaseBudget::default() },
            ChaseBudget { max_outcomes: 7, max_depth: 3, max_branching: 2, min_path_probability: 0.0 },
        ];
        for grounder in grounders {
            for budget in &budgets {
                let sequential =
                    enumerate_outcomes(grounder, budget, TriggerOrder::First).unwrap();
                for threads in THREAD_SWEEP {
                    let executor = Executor::new(threads);
                    let parallel =
                        enumerate_outcomes_with(grounder, budget, TriggerOrder::First, &executor)
                            .unwrap();
                    // The shared strict definition of "bit-identical":
                    // outcome order, choice sets, exact probabilities,
                    // residual mass, truncation and node count.
                    let diff = sequential.diff(&parallel);
                    prop_assert!(
                        diff.is_none(),
                        "parallel result differs at {} threads: {:?}",
                        threads,
                        diff
                    );
                }
            }
        }
    }

    /// The Monte-Carlo companion: per-walk RNG streams derive from the root
    /// seed, so fanning the walks of `estimate` out to the pool reproduces
    /// the sequential hit/abandon tallies exactly, for every thread count.
    #[test]
    fn parallel_sampling_equals_sequential_on_random_programs(
        coins in 1usize..=5,
        ring in 3usize..=4,
        p in 1u32..=9u32,
        seed in 0u64..1000,
    ) {
        let (program, db) = gdlog_bench::workloads::coin_chain(coins, p as f64 / 10.0);
        let sigma = Arc::new(SigmaPi::translate(&program, &db).unwrap());
        let chain = SimpleGrounder::new(sigma);
        let db = gdlog_bench::workloads::network_database(
            ring,
            gdlog_bench::workloads::Topology::Ring,
        );
        let program = network_resilience_program(p as f64 / 10.0);
        let sigma = Arc::new(SigmaPi::translate(&program, &db).unwrap());
        let net = SimpleGrounder::new(sigma);
        let grounders: [&dyn Grounder; 2] = [&chain, &net];

        for grounder in grounders {
            // A tight trigger budget on the ring workload produces a mix of
            // finite and abandoned walks, so both tallies are exercised.
            for max_triggers in [3usize, 64] {
                let event = |outcome: &gdlog::core::PossibleOutcome| outcome.choice_count() % 2 == 0;
                let mut mc = MonteCarlo::new(grounder, max_triggers, seed);
                let sequential = mc.estimate(60, event).unwrap();
                for threads in THREAD_SWEEP {
                    let executor = Executor::new(threads);
                    let mut mc = MonteCarlo::new(grounder, max_triggers, seed)
                        .with_executor(&executor);
                    let parallel = mc.estimate(60, event).unwrap();
                    prop_assert_eq!(
                        sequential.estimate.mean,
                        parallel.estimate.mean,
                        "estimate differs at {} threads",
                        threads
                    );
                    prop_assert_eq!(sequential.abandoned, parallel.abandoned);
                    prop_assert_eq!(sequential.samples, parallel.samples);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Theorem 3.9 + Lemma 4.4 on random small networks: the explored mass
    /// plus the residual is exactly 1, the chase result does not depend on
    /// the trigger order, and every outcome label is functionally consistent
    /// (Lemma 4.3(1)) and distinct (4.3(2)).
    #[test]
    fn chase_invariants_on_random_networks(db in network_db_strategy(), p in 1u32..=9u32) {
        let program = network_resilience_program(p as f64 / 10.0);
        let sigma = Arc::new(SigmaPi::translate(&program, &db).unwrap());
        let grounder = SimpleGrounder::new(sigma);
        let budget = ChaseBudget::default();

        let run = |order| enumerate_outcomes(&grounder, &budget, order).unwrap();
        let first = run(TriggerOrder::First);
        let last = run(TriggerOrder::Last);

        // Total probability mass is exactly one (all probabilities exact).
        prop_assert_eq!(first.total_mass(), Prob::ONE);

        // Order independence: same multiset of (choice set, probability).
        let canon = |r: &gdlog::core::ChaseResult| {
            let mut v: Vec<String> = r
                .outcomes
                .iter()
                .map(|o| format!("{}@{}", o.atr, o.probability))
                .collect();
            v.sort();
            v
        };
        prop_assert_eq!(canon(&first), canon(&last));

        // Outcomes are pairwise distinct and terminal for the grounder.
        for (i, o1) in first.outcomes.iter().enumerate() {
            prop_assert!(grounder.is_terminal(&o1.atr));
            for o2 in first.outcomes.iter().skip(i + 1) {
                prop_assert!(o1.atr != o2.atr);
            }
        }
    }
}

/// A strategy for ground programs seeded with even/odd negative loops and
/// the paper's `Fail`/`Aux` constraint encoding, plus random linking rules —
/// the shapes on which the component-split propagating stable-model search
/// must agree with the retained naive enumerator.
fn looped_ground_program() -> impl Strategy<Value = GroundProgram> {
    let atom_names = prop::sample::select(vec!["A", "B", "C", "D", "E", "F"]);
    let rule = (
        atom_names.clone(),
        prop::collection::vec(atom_names.clone(), 0..3),
        prop::collection::vec(atom_names, 0..3),
    )
        .prop_map(|(head, pos, neg)| {
            GroundRule::new(
                GroundAtom::make(head, vec![]),
                pos.into_iter()
                    .map(|n| GroundAtom::make(n, vec![]))
                    .collect(),
                neg.into_iter()
                    .map(|n| GroundAtom::make(n, vec![]))
                    .collect(),
            )
        });
    let loops = prop::collection::vec((0usize..3, any::<bool>(), any::<bool>()), 0..3);
    (prop::collection::vec(rule, 0..8), loops).prop_map(|(rules, loops)| {
        let mut program = GroundProgram::from_rules(rules);
        for (i, even, constrain) in loops {
            let a = GroundAtom::make(&format!("L{i}a"), vec![]);
            let b = GroundAtom::make(&format!("L{i}b"), vec![]);
            if even {
                program.push(GroundRule::new(a.clone(), vec![], vec![b.clone()]));
                program.push(GroundRule::new(b.clone(), vec![], vec![a.clone()]));
            } else {
                program.push(GroundRule::new(a.clone(), vec![], vec![a.clone()]));
            }
            if constrain {
                // Constraint `L{i}a → ⊥` via the Fail/Aux odd loop.
                let fail = GroundAtom::make("Fail", vec![]);
                let aux = GroundAtom::make("Aux", vec![]);
                program.push(GroundRule::new(fail.clone(), vec![a.clone()], vec![]));
                program.push(GroundRule::new(aux.clone(), vec![fail], vec![aux.clone()]));
            }
        }
        program
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tentpole equivalence: the component-split propagating search and the
    /// naive `2^k` enumerator agree on random ground programs with even and
    /// odd loops and constraints — identical canonical model lists under
    /// wide limits, identical `TooManyModels` behaviour under a tight model
    /// cap, and every reported model satisfies the fixpoint definition.
    #[test]
    fn scc_search_equals_naive_enumerator(program in looped_ground_program()) {
        let wide = StableModelLimits { max_branch_atoms: 64, max_models: 100_000 };
        let fast = stable_models(&program, &wide).unwrap();
        let naive = naive_stable_models(&program, &wide).unwrap();
        prop_assert_eq!(&fast, &naive);
        for m in &fast {
            prop_assert!(is_stable_model(&program, m));
            prop_assert_eq!(&least_model(&reduct(&program, m)), m);
        }

        let tight = StableModelLimits { max_branch_atoms: 64, max_models: 2 };
        prop_assert_eq!(
            stable_models(&program, &tight),
            naive_stable_models(&program, &tight)
        );
    }
}

/// Check one outcome's in-place event key against the `Database`-level
/// reference: under each of `limits` it must equal the key of
/// `stable_models(&outcome.full_program())`, or fail with the same error, and
/// a pre-cancelled token must interrupt it. Where the key is found and the
/// naive oracle stays within `naive_limits`, the oracle's key must match too.
/// Returns how many keys the naive oracle confirmed.
fn check_in_place_key(
    outcome: &PossibleOutcome,
    limits: &[StableModelLimits],
    naive_limits: &StableModelLimits,
    label: &str,
) -> usize {
    let full = outcome.full_program();
    let mut confirmed = 0;
    for limit in limits {
        let in_place = outcome.model_set_key(limit);
        let reference = stable_models(&full, limit)
            .map(|models| ModelSetKey::from_models(&models))
            .map_err(CoreError::from);
        assert_eq!(in_place, reference, "{label}: in-place key under {limit:?}");
        if let (Ok(key), Ok(naive)) = (&in_place, naive_stable_models(&full, naive_limits)) {
            assert_eq!(
                key,
                &ModelSetKey::from_models(&naive),
                "{label}: naive oracle"
            );
            confirmed += 1;
        }
    }
    let cancelled = CancelToken::new();
    cancelled.cancel();
    assert!(
        matches!(
            outcome.model_set_key_cancellable(&limits[0], &cancelled),
            Err(CoreError::Interrupted(_))
        ),
        "{label}: a pre-cancelled search must be interrupted"
    );
    confirmed
}

/// An outcome around a looped ground program: up to three choices whose
/// `Result` atoms are atoms the rules read, each with its `Active` atom
/// sometimes derived by a fact.
fn looped_outcome() -> impl Strategy<Value = PossibleOutcome> {
    let choices = prop::collection::vec((0usize..6, any::<bool>()), 0..4);
    (looped_ground_program(), choices).prop_map(|(mut rules, choices)| {
        let names = ["A", "B", "C", "D", "E", "F"];
        let mut atr = AtrSet::new();
        for (i, (n, fired)) in choices.into_iter().enumerate() {
            let active = GroundAtom::make("Active", vec![Const::Int(i as i64)]);
            if fired {
                rules.push(GroundRule::fact(active.clone()));
            }
            let result = GroundAtom::make(names[n], vec![]);
            atr.insert(AtrRule {
                active,
                outcome: Const::Int(n as i64),
                result,
            })
            .unwrap();
        }
        PossibleOutcome::new(atr, rules, Prob::ONE)
    })
}

/// Wide limits, a tight model cap and a tight per-component branch limit:
/// the in-place key must succeed or fail exactly as the reference does.
const KEY_LIMITS: [StableModelLimits; 3] = [
    StableModelLimits {
        max_branch_atoms: 64,
        max_models: 100_000,
    },
    StableModelLimits {
        max_branch_atoms: 64,
        max_models: 1,
    },
    StableModelLimits {
        max_branch_atoms: 1,
        max_models: 100_000,
    },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The event key searched over an outcome's rules in place equals the
    /// key of its full program's stable models, error for error, on
    /// programs with even and odd loops, Fail/Aux constraints and choices.
    #[test]
    fn in_place_key_equals_full_program_key(outcome in looped_outcome()) {
        check_in_place_key(&outcome, &KEY_LIMITS, &KEY_LIMITS[0], "looped outcome");
    }
}

/// The same parity on every chase outcome of the scenario corpus, solved as
/// each scenario's own flags ask (per factor on factored scenarios): the
/// in-place key also equals the key the solved space recorded.
#[test]
fn in_place_key_equals_full_program_key_on_the_scenario_corpus() {
    let (mut outcomes, mut confirmed) = (0, 0);
    for (name, path) in common::scenario_files() {
        let source = std::fs::read_to_string(&path).unwrap();
        let (flags, _) = gdlog_server::parse_query_flags(&common::directive_args(&source)).unwrap();
        let request = flags.to_request().unwrap();
        let (program, db) = gdlog_parser::parse_program(&source).unwrap();
        let pipeline = Pipeline::with_grounder(&program, &db, request.grounder)
            .unwrap()
            .budget(request.budget)
            .trigger_order(request.order)
            .stable_limits(request.limits);
        let (space, _) = pipeline.solve_with(request.strategy).unwrap();
        let limits = [request.limits, KEY_LIMITS[1], KEY_LIMITS[2]];
        for factor in space.factors() {
            for (outcome, key) in factor.space.outcomes() {
                assert_eq!(
                    &outcome.model_set_key(&request.limits).unwrap(),
                    key,
                    "{name}: recorded key"
                );
                confirmed += check_in_place_key(outcome, &limits, &request.limits, &name);
                outcomes += 1;
            }
        }
    }
    // 99 outcomes across the eleven scenarios; the naive oracle stays
    // within each scenario's limits on most of them.
    assert!(outcomes >= 90, "only {outcomes} scenario outcomes checked");
    assert!(
        confirmed > 2 * outcomes,
        "naive oracle confirmed only {confirmed} keys"
    );
}

// ---------------------------------------------------------------------------
// Surface-syntax round-trip: pretty-printing a random program and database
// and re-parsing the text reproduces the originals exactly. This is the
// contract the `gdlog fmt` subcommand and the scenario corpus rely on.
// ---------------------------------------------------------------------------

/// Variable pool for random rules.
const RT_VARS: [&str; 3] = ["x", "y", "z"];

/// Symbol pool: identifier-shaped names (printed `#name`), the reserved word
/// `fail` and a non-identifier name (both printed as quoted strings).
const RT_SYMS: [&str; 5] = ["alice", "bob", "n_1", "fail", "two words"];

/// Constants covering every surface shape: integers (incl. negative), reals
/// (incl. integral ones, printed `1.0`), booleans, and symbols.
fn surface_const() -> impl Strategy<Value = Const> {
    (
        0u8..4,
        -50i64..50,
        0u32..150,
        any::<bool>(),
        0usize..RT_SYMS.len(),
    )
        .prop_map(|(kind, i, r, b, s)| match kind {
            0 => Const::Int(i),
            1 => Const::Real(f64::from(r) / 100.0),
            2 => Const::Bool(b),
            _ => Const::sym(RT_SYMS[s]),
        })
}

/// A term ingredient: a selector byte (variable vs constant, and which
/// variable) plus a constant fallback.
type TermSpec = (u8, Const);

/// Materialize a positive-body term, recording any variable it introduces.
fn pos_term(spec: &TermSpec, used: &mut Vec<gdlog_data::Var>) -> gdlog_data::Term {
    let (sel, c) = spec;
    if *sel < 160 {
        let v = gdlog_data::Var::new(RT_VARS[*sel as usize % RT_VARS.len()]);
        if !used.contains(&v) {
            used.push(v);
        }
        gdlog_data::Term::Var(v)
    } else {
        gdlog_data::Term::Const(*c)
    }
}

/// Materialize a head or negative-body term; variables are drawn only from
/// those the positive body introduced, so every generated rule is safe.
fn safe_term(spec: &TermSpec, used: &[gdlog_data::Var]) -> gdlog_data::Term {
    let (sel, c) = spec;
    if !used.is_empty() && *sel < 160 {
        gdlog_data::Term::Var(used[*sel as usize % used.len()])
    } else {
        gdlog_data::Term::Const(*c)
    }
}

/// One head-argument recipe: a plain term or a Δ-term with a real-valued
/// parameter and a random event signature.
#[derive(Clone, Debug)]
enum HeadSpec {
    Term(TermSpec),
    Delta(&'static str, u32, Vec<TermSpec>),
}

fn term_ingredient() -> impl Strategy<Value = TermSpec> {
    (any::<u8>(), surface_const())
}

fn atom_ingredient() -> impl Strategy<Value = (&'static str, Vec<TermSpec>)> {
    (
        prop::sample::select(vec!["P", "Q", "R", "S"]),
        prop::collection::vec(term_ingredient(), 0..3),
    )
}

fn head_ingredient() -> impl Strategy<Value = HeadSpec> {
    (
        any::<u8>(),
        term_ingredient(),
        prop::sample::select(vec!["Flip", "Geometric"]),
        1u32..100,
        prop::collection::vec(term_ingredient(), 0..2),
    )
        .prop_map(|(sel, t, d, p, ev)| {
            // Plain terms three times out of four, Δ-terms otherwise.
            if sel % 4 < 3 {
                HeadSpec::Term(t)
            } else {
                HeadSpec::Delta(d, p, ev)
            }
        })
}

fn surface_rule() -> impl Strategy<Value = gdlog::core::Rule> {
    (
        prop::collection::vec(atom_ingredient(), 1..3),
        prop::collection::vec(atom_ingredient(), 0..2),
        prop::sample::select(vec!["H", "K"]),
        prop::collection::vec(head_ingredient(), 0..3),
    )
        .prop_map(|(pos_spec, neg_spec, head_pred, head_spec)| {
            let mut used = Vec::new();
            let pos: Vec<gdlog_data::Atom> = pos_spec
                .into_iter()
                .map(|(p, ts)| {
                    gdlog_data::Atom::make(p, ts.iter().map(|t| pos_term(t, &mut used)).collect())
                })
                .collect();
            let neg: Vec<gdlog_data::Atom> = neg_spec
                .into_iter()
                .map(|(p, ts)| {
                    gdlog_data::Atom::make(p, ts.iter().map(|t| safe_term(t, &used)).collect())
                })
                .collect();
            let head_args: Vec<gdlog::core::HeadTerm> = head_spec
                .into_iter()
                .map(|h| match h {
                    HeadSpec::Term(t) => gdlog::core::HeadTerm::Term(safe_term(&t, &used)),
                    HeadSpec::Delta(name, p, ev) => {
                        gdlog::core::HeadTerm::Delta(gdlog::core::DeltaTerm::new(
                            name,
                            vec![gdlog_data::Term::Const(Const::Real(f64::from(p) / 100.0))],
                            ev.iter().map(|t| safe_term(t, &used)).collect(),
                        ))
                    }
                })
                .collect();
            gdlog::core::Rule::new(pos, neg, gdlog::core::Head::make(head_pred, head_args))
        })
}

fn surface_db() -> impl Strategy<Value = Database> {
    prop::collection::vec(
        (
            prop::sample::select(vec!["F", "G", "Data"]),
            prop::collection::vec(surface_const(), 0..3),
        ),
        0..6,
    )
    .prop_map(|facts| {
        let mut db = Database::new();
        for (name, args) in facts {
            db.insert_fact(name, args);
        }
        db
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `parse_source(pretty_program(p) + pretty_database(db))` reproduces the
    /// original program and database exactly, over random safe rules (with
    /// Δ-terms, negation, every constant shape) and random fact databases.
    #[test]
    fn surface_syntax_round_trips(
        rules in prop::collection::vec(surface_rule(), 0..6),
        db in surface_db(),
    ) {
        let program = gdlog::core::Program::new(rules);
        let text = format!(
            "{}{}",
            gdlog_parser::pretty_program(&program),
            gdlog_parser::pretty_database(&db)
        );
        let parsed = gdlog_parser::parse_source(&text)
            .map_err(|e| TestCaseError::fail(format!("re-parse failed: {e}\n{text}")))?;
        let (program2, db2, _) = parsed.into_parts();
        prop_assert_eq!(program2, program, "program drifted through print+parse:\n{}", text);
        prop_assert_eq!(db2, db, "database drifted through print+parse:\n{}", text);
    }
}

/// One independent island of a planted program. Every predicate name AND
/// every Δ-term event tag carries the island index: a `Flip<p>[e…]` with
/// identical parameter and event signature names the *same* random variable
/// wherever it appears, so untagged same-shaped islands would be genuinely
/// correlated (and correctly merged by the analysis). With the tags,
/// distinct islands share no atoms and the chase-independence analysis must
/// recover (at least) one component per island. The shapes cover a single
/// coin with a derived consequence, a stable-negation game (two stable
/// models behind a flip), a small reachability cascade, and two coins
/// welded into one component by a zero-arity head — the coupling
/// `coin_chain` uses.
fn island_text(shape: u8, i: usize, p: u32) -> String {
    let p = f64::from(p) / 10.0;
    match shape % 4 {
        0 => format!(
            "CoinI{i}(x) -> TossI{i}(x, Flip<{p}>[{i}, x]).\n\
             TossI{i}(x, 1) -> TailsI{i}(x).\n\
             CoinI{i}(1).\n"
        ),
        1 => format!(
            "-> RichI{i}(Flip<{p}>[{i}]).\n\
             RichI{i}(1), not PassI{i} -> PlayI{i}.\n\
             RichI{i}(1), not PlayI{i} -> PassI{i}.\n\
             RichI{i}(0) -> IdleI{i}.\n"
        ),
        2 => format!(
            "SrcI{i}(x) -> ReachI{i}(x, 1).\n\
             ReachI{i}(x, 1), EdgeI{i}(x, y) -> ReachI{i}(y, Flip<{p}>[{i}, x, y]).\n\
             SrcI{i}(1).\nEdgeI{i}(1, 2).\nEdgeI{i}(1, 3).\nEdgeI{i}(2, 4).\n"
        ),
        _ => format!(
            "CoinI{i}(x) -> TossI{i}(x, Flip<{p}>[{i}, x]).\n\
             TossI{i}(x, 1) -> AnyTailI{i}.\n\
             CoinI{i}(1).\nCoinI{i}(2).\n"
        ),
    }
}

/// Order-insensitive canonical form of an event listing, so ties in mass
/// cannot make the comparison depend on either side's tie-breaking.
fn canon_events(events: &[(ModelSetKey, Prob)]) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = events
        .iter()
        .map(|(key, mass)| (key.to_string(), mass.to_string()))
        .collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Tentpole equivalence for the factorized pipeline: on random programs
    /// planted with independent islands, `solve_factored` must agree with
    /// the flat enumeration *exactly* — same `P(sms ≠ ∅)`, explored and
    /// residual mass, outcome/event counts, per-event masses, per-atom brave
    /// and cautious probabilities, cross-island conjunctions and the full
    /// event listing (tie-normalized) — at every thread count of the sweep,
    /// on a first solve and on a repeated one. With two or more islands the
    /// analysis must actually factor.
    #[test]
    fn factored_solve_equals_flat_on_planted_islands(
        islands in prop::collection::vec((any::<u8>(), 1u32..=9), 1..4),
    ) {
        let text: String = islands
            .iter()
            .enumerate()
            .map(|(i, &(shape, p))| island_text(shape, i, p))
            .collect::<Vec<_>>()
            .join("\n");
        let (program, db) = gdlog_parser::parse_program(&text)
            .map_err(|e| TestCaseError::fail(format!("planted program failed to parse: {e}\n{text}")))?;

        // The flat oracle, solved once, sequentially.
        let oracle = Pipeline::new(&program, &db).unwrap();
        let chase = oracle.chase().unwrap();
        let flat = OutputSpace::from_chase(&chase, &StableModelLimits::default()).unwrap();
        let flat_events = flat.events_by_mass();
        let flat_canon = canon_events(flat_events);

        // Probe atoms: a spread of atoms drawn from the flat stable models.
        let mut seen = std::collections::BTreeSet::new();
        for (key, _) in flat_events {
            for model in key.models() {
                for atom in model {
                    seen.insert(atom.clone());
                }
            }
        }
        let stride = (seen.len() / 16).max(1);
        let probe: Vec<GroundAtom> = seen.iter().step_by(stride).cloned().collect();

        for threads in THREAD_SWEEP {
            let pipeline = Pipeline::new(&program, &db).unwrap().threads(threads);
            let cold = pipeline.solve_factored().unwrap();
            let warm = pipeline.solve_factored().unwrap();

            if islands.len() >= 2 {
                prop_assert!(cold.factor_count() > 1, "{} islands did not factor", islands.len());
                prop_assert!(cold.factor_count() >= islands.len());
            }

            for solve in [&cold, &warm] {
                prop_assert_eq!(solve.combined_outcomes(), flat.outcome_count() as u128);
                prop_assert_eq!(solve.combined_events(), flat.event_count() as u128);
                prop_assert_eq!(
                    solve.has_stable_model_probability(),
                    flat.has_stable_model_probability()
                );
                prop_assert_eq!(solve.explored_mass(), flat.explored_mass());
                prop_assert_eq!(solve.residual_mass(), flat.residual_mass());
                prop_assert_eq!(solve.is_truncated(), flat.is_truncated());
                prop_assert_eq!(
                    canon_events(&solve.events_by_mass_top(flat_events.len())),
                    flat_canon.clone(),
                    "event listings diverged at {} threads\n{}",
                    threads,
                    text.clone()
                );
                for (key, mass) in flat_events {
                    prop_assert_eq!(&solve.event_probability(key), mass);
                }
                for atom in &probe {
                    prop_assert_eq!(
                        solve.brave_probability(atom),
                        flat.brave_probability(atom),
                        "brave P({}) diverged at {} threads",
                        atom,
                        threads
                    );
                    prop_assert_eq!(
                        solve.cautious_probability(atom),
                        flat.cautious_probability(atom),
                        "cautious P({}) diverged at {} threads",
                        atom,
                        threads
                    );
                }
                // Cross-island conjunctions exercise the per-factor
                // grouping of `probability_*_all`.
                let conj: Vec<GroundAtom> = probe.iter().take(3).cloned().collect();
                prop_assert_eq!(
                    solve.probability_brave_all(&conj),
                    flat.probability_where(|k| conj.iter().all(|a| k.brave(a)))
                );
                prop_assert_eq!(
                    solve.probability_cautious_all(&conj),
                    flat.probability_where(|k| conj.iter().all(|a| k.cautious(a)))
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Soundness of the grounding-free independence prediction: the static
    /// predicate-level components ([`StaticComponents`]) over-approximate
    /// the dynamic saturation-based analysis — on planted island programs,
    /// every trigger-bearing component `Pipeline::factor_components`
    /// discovers has all its universe atoms (and all its triggers) inside
    /// exactly ONE static component, at every thread count. The dynamic
    /// analysis may refine (split) a static component at the ground level,
    /// but can never straddle two: a straddle would mean the predicate
    /// graph missed a connection the ground universe has, and the static
    /// seeding of the saturation would then be unsound. The trigger-free
    /// base factor is exempt — it deliberately merges every choice-free
    /// component into one deterministic factor.
    #[test]
    fn static_components_over_approximate_dynamic_factors(
        islands in prop::collection::vec((any::<u8>(), 1u32..=9), 1..4),
    ) {
        let text: String = islands
            .iter()
            .enumerate()
            .map(|(i, &(shape, p))| island_text(shape, i, p))
            .collect::<Vec<_>>()
            .join("\n");
        let (program, db) = gdlog_parser::parse_program(&text)
            .map_err(|e| TestCaseError::fail(format!("planted program failed to parse: {e}\n{text}")))?;

        for threads in [1usize, 8] {
            let pipeline = Pipeline::new(&program, &db).unwrap().threads(threads);
            let statics = StaticComponents::of_sigma(pipeline.sigma());
            let Some(components) = pipeline.factor_components().unwrap() else {
                // Flat fallback (fewer than two trigger-bearing components):
                // nothing to map, but the static certificate must not have
                // promised more than one trigger-bearing component either.
                continue;
            };
            for component in components.iter().filter(|c| !c.triggers.is_empty()) {
                let homes: std::collections::BTreeSet<usize> = component
                    .atoms
                    .iter()
                    .map(|atom| {
                        statics
                            .component_of(&atom.predicate)
                            .expect("every universe predicate occurs in the translated program")
                    })
                    .collect();
                prop_assert_eq!(
                    homes.len(),
                    1,
                    "a dynamic component straddles {} static components at {} threads\n{}",
                    homes.len(),
                    threads,
                    text.clone()
                );
            }
        }
    }
}

/// An island that exercises slicing: a ground Δ-fact, a constraint whose
/// body is one negative literal (`not IdleI{i} -> false` becomes a ground
/// `Fail` rule with an empty positive body, which must be routed to this
/// island's slice), and a negative literal on `GhostI{i}`, which no rule
/// derives and which therefore carries no dependency.
fn guarded_island_text(i: usize, p: u32) -> String {
    let p = f64::from(p) / 10.0;
    format!(
        "-> RichI{i}(Flip<{p}>[{i}]).\n\
         RichI{i}(0) -> IdleI{i}.\n\
         not IdleI{i} -> false.\n\
         RichI{i}(0), not GhostI{i} -> LuckyI{i}.\n"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Each factor's chase over its Σ_Π slice is the whole-program chase
    /// restricted to the factor: a `ComponentGrounder` over all of Σ
    /// (triggers filtered to the component), its outcome rules filtered to
    /// the component's heads. Both must visit the same nodes and reach the
    /// same outcomes, with the same choices, probabilities and canonical
    /// rules; every bodiless rule lands in exactly one slice; the product
    /// built from the filtered chases has the sliced solve's fingerprint;
    /// and the sliced solve still equals the flat one.
    #[test]
    fn slice_chase_equals_the_filtered_whole_program_chase(
        islands in prop::collection::vec((any::<u8>(), 1u32..=9), 1..4),
        guard in 1u32..=9,
    ) {
        let mut text: Vec<String> = islands
            .iter()
            .enumerate()
            .map(|(i, &(shape, p))| island_text(shape, i, p))
            .collect();
        text.push(guarded_island_text(islands.len(), guard));
        let text = text.join("\n");
        let (program, db) = gdlog_parser::parse_program(&text)
            .map_err(|e| TestCaseError::fail(format!("planted program failed to parse: {e}\n{text}")))?;
        let pipeline = Pipeline::new(&program, &db).unwrap();
        let components = pipeline
            .factor_components()
            .unwrap()
            .expect("two or more islands with choices factor");

        let bodiless = |sigma: &SigmaPi| sigma.rules.iter().filter(|r| r.pos.is_empty()).count();
        prop_assert_eq!(
            components.iter().map(|c| bodiless(&c.slice)).sum::<usize>(),
            bodiless(pipeline.sigma())
        );
        let ghost = GroundAtom::make(&format!("GhostI{}", islands.len()), vec![]);
        prop_assert!(components.iter().all(|c| !c.atoms.contains(&ghost)));
        prop_assert!(
            components.iter().any(|c| c.slice.rules.iter().any(|r| r.pos.is_empty() && !r.neg.is_empty())),
            "the negative-body constraint reached no slice"
        );

        let whole = SimpleGrounder::new(Arc::new(pipeline.sigma().clone()));
        let budget = ChaseBudget::default();
        let limits = StableModelLimits::default();
        let mut reference = Vec::with_capacity(components.len());
        for component in &components {
            let sliced = enumerate_outcomes(
                &SimpleGrounder::new(Arc::clone(&component.slice)),
                &budget,
                TriggerOrder::First,
            )
            .unwrap();
            let mut filtered = enumerate_outcomes(
                &ComponentGrounder::new(&whole, &component.triggers),
                &budget,
                TriggerOrder::First,
            )
            .unwrap();
            for outcome in &mut filtered.outcomes {
                outcome.rules = GroundRuleSet::from_rules(
                    outcome.rules.iter().filter(|r| component.atoms.contains(&r.head)).cloned(),
                );
            }
            prop_assert_eq!(sliced.nodes_visited, filtered.nodes_visited);
            prop_assert_eq!(sliced.outcomes.len(), filtered.outcomes.len());
            for (s, f) in sliced.outcomes.iter().zip(&filtered.outcomes) {
                prop_assert_eq!(s.atr.canonical(), f.atr.canonical());
                prop_assert_eq!(s.probability, f.probability);
                prop_assert_eq!(
                    s.rules.canonical_rules(),
                    f.rules.canonical_rules(),
                    "slice chase diverged\n{}",
                    text.clone()
                );
            }
            reference.push(Factor {
                atoms: component.atoms.clone(),
                space: OutputSpace::from_chase(&filtered, &limits).unwrap(),
            });
        }

        let solve = pipeline.solve_factored().unwrap();
        prop_assert_eq!(solve.fingerprint(), FactoredOutputSpace::new(reference).fingerprint());
        let flat = pipeline.solve().unwrap();
        prop_assert_eq!(
            canon_events(&solve.events_by_mass_top(flat.event_count())),
            canon_events(flat.events_by_mass())
        );
        prop_assert_eq!(
            solve.has_stable_model_probability(),
            flat.has_stable_model_probability()
        );
    }
}

/// A program whose choices are all welded into one component (coin_chain's
/// zero-arity `SomeHeads` head couples every coin) must take the flat
/// fallback: `solve_factored` returns a product of one factor that is
/// byte-identical — same fingerprint, same event listing — to
/// `Pipeline::solve`.
#[test]
fn single_component_programs_fall_back_to_the_flat_path() {
    let (program, db) = gdlog_bench::workloads::coin_chain(3, 0.5);
    let pipeline = Pipeline::new(&program, &db).unwrap();
    assert_eq!(pipeline.factor_count().unwrap(), 1);
    let solve = pipeline.solve_factored().unwrap();
    assert_eq!(solve.factor_count(), 1);
    let flat = pipeline.solve().unwrap();
    assert_eq!(solve.fingerprint(), flat.fingerprint());
    assert_eq!(
        solve.factors()[0].space.events_by_mass(),
        flat.events_by_mass()
    );
    assert_eq!(solve.events_by_mass_top(usize::MAX), flat.events_by_mass());
}

/// Satellite check for the parallel stable-model back-end: on every workload
/// of the stable benchmark suite, `OutputSpace::from_chase` must produce
/// bit-identical events and masses at 1, 2 and 8 threads, with and without a
/// (shared, progressively warming) memo cache.
#[test]
fn from_chase_events_bit_identical_across_thread_counts() {
    let limits = StableModelLimits::default();
    for workload in gdlog_bench::workloads::stable_workload_suite(false) {
        let chase = enumerate_outcomes(
            workload.grounder.as_ref(),
            &ChaseBudget::default(),
            TriggerOrder::First,
        )
        .unwrap();
        let baseline = OutputSpace::from_chase(&chase, &limits).unwrap();
        let cache = ModelSetCache::new();
        for threads in [1usize, 2, 8] {
            for cached in [false, true] {
                let space = OutputSpace::from_chase_with(
                    chase.clone(),
                    &limits,
                    &Executor::new(threads),
                    cached.then_some(&cache),
                )
                .unwrap();
                assert_eq!(
                    space.events_by_mass(),
                    baseline.events_by_mass(),
                    "{} events diverged at {threads} threads (cached: {cached})",
                    workload.name
                );
                assert_eq!(space.residual_mass(), baseline.residual_mass());
                for (got, want) in space.outcomes().iter().zip(baseline.outcomes()) {
                    assert_eq!(got.1, want.1, "{} per-outcome keys", workload.name);
                }
            }
        }
    }
}
