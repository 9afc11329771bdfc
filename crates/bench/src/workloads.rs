//! Workload generators.
//!
//! The paper has no benchmark suite; these generators produce synthetic
//! families: the paper's worked examples at their original size and
//! parameterised scalings of them (network topologies, coin chains,
//! dime/quarter batches).

use gdlog_core::{
    dime_quarter_program, network_resilience_program, AtrRule, AtrSet, GroundRuleSet, Grounder,
    PerfectGrounder, Program, ProgramBuilder, SigmaPi, SimpleGrounder,
};
use gdlog_data::{Const, Database, GroundAtom, Term};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Network topologies for the resilience workload (Example 3.1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Topology {
    /// Every router connected to every other router (the paper's Example 3.6
    /// database is `Clique` with `n = 3`).
    Clique,
    /// A ring `1 – 2 – … – n – 1`.
    Ring,
    /// A line `1 – 2 – … – n`.
    Line,
    /// An Erdős–Rényi random graph with the given edge probability.
    ErdosRenyi {
        /// Probability of each undirected edge.
        edge_probability: f64,
        /// RNG seed, so workloads are reproducible.
        seed: u64,
    },
}

/// Build a router network database: `Router(i)` for `i ∈ 1..=n`, symmetric
/// `Connected` edges according to the topology, and `Infected(1, 1)`.
pub fn network_database(n: usize, topology: Topology) -> Database {
    let mut db = Database::new();
    for i in 1..=n as i64 {
        db.insert_fact("Router", [Const::Int(i)]);
    }
    let connect = |a: i64, b: i64, db: &mut Database| {
        db.insert_fact("Connected", [Const::Int(a), Const::Int(b)]);
        db.insert_fact("Connected", [Const::Int(b), Const::Int(a)]);
    };
    match topology {
        Topology::Clique => {
            for i in 1..=n as i64 {
                for j in (i + 1)..=n as i64 {
                    connect(i, j, &mut db);
                }
            }
        }
        Topology::Ring => {
            for i in 1..=n as i64 {
                let j = if i == n as i64 { 1 } else { i + 1 };
                if i != j {
                    connect(i, j, &mut db);
                }
            }
        }
        Topology::Line => {
            for i in 1..n as i64 {
                connect(i, i + 1, &mut db);
            }
        }
        Topology::ErdosRenyi {
            edge_probability,
            seed,
        } => {
            let mut rng = StdRng::seed_from_u64(seed);
            for i in 1..=n as i64 {
                for j in (i + 1)..=n as i64 {
                    if rng.gen::<f64>() < edge_probability {
                        connect(i, j, &mut db);
                    }
                }
            }
        }
    }
    db.insert_fact("Infected", [Const::Int(1), Const::Int(1)]);
    db
}

/// The network-resilience program of Example 3.1 with infection probability
/// `p` (re-exported from `gdlog-core` for convenience).
pub fn network_program(p: f64) -> Program {
    network_resilience_program(p)
}

/// The dime/quarter program of Appendix E together with a database of
/// `dimes` dimes and `quarters` quarters (quarter ids follow the dime ids).
pub fn dime_quarter_workload(dimes: usize, quarters: usize) -> (Program, Database) {
    let mut db = Database::new();
    for i in 1..=dimes as i64 {
        db.insert_fact("Dime", [Const::Int(i)]);
    }
    for q in 1..=quarters as i64 {
        db.insert_fact("Quarter", [Const::Int(dimes as i64 + q)]);
    }
    (dime_quarter_program(), db)
}

/// A "coin chain": `n` independent coins are tossed and the chain succeeds if
/// every coin shows tails; a constraint aborts the run as soon as one coin
/// shows heads. Purely positive except for the constraint, with `2^n`
/// configurations — a convenient knob for chase-size scaling.
pub fn coin_chain(n: usize, p: f64) -> (Program, Database) {
    let program = ProgramBuilder::new()
        .rule(|r| {
            r.body("Coin", vec![Term::var("x")]).head_with_delta(
                "Toss",
                vec![Term::var("x")],
                "Flip",
                vec![Term::Const(Const::real(p).expect("finite"))],
                vec![Term::var("x")],
            )
        })
        .rule(|r| {
            r.body("Toss", vec![Term::var("x"), Term::int(1)])
                .head("Tails", vec![Term::var("x")])
        })
        .rule(|r| {
            r.body("Coin", vec![Term::var("x")])
                .not_body("Tails", vec![Term::var("x")])
                .head("SomeHeads", vec![])
        })
        .build()
        .expect("coin chain program is valid");
    let mut db = Database::new();
    for i in 1..=n as i64 {
        db.insert_fact("Coin", [Const::Int(i)]);
    }
    (program, db)
}

/// A "coin farm": `n` independent coins, each tossed once, with tails
/// recorded per coin — and *no* shared head welding the coins together
/// (contrast [`coin_chain`], whose zero-arity `SomeHeads` head couples every
/// coin into one chase component). The chase-independence analysis splits
/// the farm into one component per coin, so the factored output space is a
/// product of `n` two-outcome factors while the flat chase needs `2^n`
/// outcomes — the scaling family for `bench factor`.
pub fn coin_farm(n: usize, p: f64) -> (Program, Database) {
    let program = ProgramBuilder::new()
        .rule(|r| {
            r.body("Coin", vec![Term::var("x")]).head_with_delta(
                "Toss",
                vec![Term::var("x")],
                "Flip",
                vec![Term::Const(Const::real(p).expect("finite"))],
                vec![Term::var("x")],
            )
        })
        .rule(|r| {
            r.body("Toss", vec![Term::var("x"), Term::int(1)])
                .head("Tails", vec![Term::var("x")])
        })
        .build()
        .expect("coin farm program is valid");
    let mut db = Database::new();
    for i in 1..=n as i64 {
        db.insert_fact("Coin", [Const::Int(i)]);
    }
    (program, db)
}

/// `k` disjoint copies of the `scenarios/cascade.gdl` diamond (the nodes of
/// copy `c` live in the range `10c+1 ..= 10c+4`), generated as surface
/// syntax and parsed back so the bench measures exactly the program the
/// corpus scenario runs. Each copy chases to 9 outcomes, so the flat space
/// is `9^k` while the factored space stores `9k`.
pub fn cascade_copies(k: usize) -> (Program, Database) {
    let mut text = String::from(
        "Source(x) -> Reach(x, 1).\nReach(x, 1), Edge(x, y) -> Reach(y, Flip<0.9>[x, y]).\n\n",
    );
    for c in 0..k as i64 {
        let b = 10 * c;
        text.push_str(&format!("Source({}).\n", b + 1));
        for (x, y) in [(1, 2), (1, 3), (2, 4), (3, 4)] {
            text.push_str(&format!("Edge({}, {}).\n", b + x, b + y));
        }
    }
    gdlog_parser::parse_program(&text).expect("generated cascade program parses")
}

/// `k` disjoint copies of the `scenarios/epidemic.gdl` contact chain (the
/// persons of copy `c` live in the range `10c+1 ..= 10c+3`). Each copy
/// chases to 3 outcomes, so the flat space is `3^k` while the factored
/// space stores `3k`.
pub fn epidemic_copies(k: usize) -> (Program, Database) {
    let mut text = String::from(
        "Sick(x, 1), Contact(x, y) -> Sick(y, Flip<0.5>[x, y]).\nPerson(x), not Sick(x, 1) -> Healthy(x).\n\n",
    );
    for c in 0..k as i64 {
        let b = 10 * c;
        for i in 1..=3 {
            text.push_str(&format!("Person({}).\n", b + i));
        }
        text.push_str(&format!("Contact({}, {}).\n", b + 1, b + 2));
        text.push_str(&format!("Contact({}, {}).\n", b + 2, b + 3));
        text.push_str(&format!("Sick({}, 1).\n", b + 1));
    }
    gdlog_parser::parse_program(&text).expect("generated epidemic program parses")
}

/// One flat-vs-factored benchmark workload: a program/database pair whose
/// chase splits into independent components.
pub struct FactorWorkload {
    /// Workload name (scale-qualified, e.g. `coin_farm_n16`).
    pub name: String,
    /// The GDatalog¬\[Δ\] program.
    pub program: Program,
    /// The input database.
    pub database: Database,
    /// Number of chase components the independence analysis should find.
    pub expected_factors: usize,
    /// The probe atom `bench factor` estimates by factor-aware
    /// Monte-Carlo: a sink of the last factor, derived positively, so its
    /// probability of lying in `heads(G(Σ))` is its exact brave probability.
    pub mc_atom: GroundAtom,
    /// Can the flat path enumerate this exactly within the default chase
    /// budget? `false` marks the past-the-wall workloads (flat outcome count
    /// above `ChaseBudget::default().max_outcomes`) that only the factored
    /// path solves exactly.
    pub flat_feasible: bool,
}

/// The factorization benchmark suite — **the** scale table for
/// `bench factor`, at CI-smoke (`full = false`) or full measurement size.
/// Scales live only here so the smoke and full runs cannot drift.
pub fn factor_workload_suite(full: bool) -> Vec<FactorWorkload> {
    let farm = if full { 16 } else { 8 };
    let game = if full { 10 } else { 5 };
    let cascade = if full { 5 } else { 3 };
    let epidemic = if full { 8 } else { 4 };
    // Past the wall: flat enumeration blows the default 100k-outcome budget
    // (2^100 and 9^10 outcomes at full scale) but the factored path solves
    // both exactly.
    let wall_farm = if full { 100 } else { 24 };
    let wall_cascade = if full { 10 } else { 7 };

    // The sink of the last of `k` cascade diamonds.
    let sink =
        |k: usize| GroundAtom::make("Reach", vec![Const::Int(10 * k as i64 - 6), Const::Int(1)]);

    let mut suite = Vec::new();
    let (program, database) = coin_farm(farm, 0.5);
    suite.push(FactorWorkload {
        name: format!("coin_farm_n{farm}"),
        program,
        database,
        mc_atom: GroundAtom::make("Tails", vec![Const::Int(farm as i64)]),
        expected_factors: farm,
        flat_feasible: true,
    });
    let (program, database) = coin_game(game, 0.5);
    suite.push(FactorWorkload {
        name: format!("coin_game_n{game}"),
        program,
        database,
        mc_atom: GroundAtom::make("Aux1", vec![Const::Int(game as i64)]),
        expected_factors: game,
        flat_feasible: true,
    });
    let (program, database) = cascade_copies(cascade);
    suite.push(FactorWorkload {
        name: format!("cascade_x{cascade}"),
        program,
        database,
        mc_atom: sink(cascade),
        expected_factors: cascade,
        flat_feasible: true,
    });
    let (program, database) = epidemic_copies(epidemic);
    suite.push(FactorWorkload {
        name: format!("epidemic_x{epidemic}"),
        program,
        database,
        mc_atom: GroundAtom::make(
            "Sick",
            vec![Const::Int(10 * epidemic as i64 - 7), Const::Int(1)],
        ),
        expected_factors: epidemic,
        flat_feasible: true,
    });
    let (program, database) = coin_farm(wall_farm, 0.5);
    suite.push(FactorWorkload {
        name: format!("coin_farm_n{wall_farm}"),
        program,
        database,
        mc_atom: GroundAtom::make("Tails", vec![Const::Int(wall_farm as i64)]),
        expected_factors: wall_farm,
        flat_feasible: false,
    });
    let (program, database) = cascade_copies(wall_cascade);
    suite.push(FactorWorkload {
        name: format!("cascade_x{wall_cascade}"),
        program,
        database,
        mc_atom: sink(wall_cascade),
        expected_factors: wall_cascade,
        flat_feasible: false,
    });
    suite
}

/// A choice set that drives the infection cascade as far as it goes: every
/// round, all open triggers are resolved with `outcome`, until the
/// configuration is terminal or `max_rounds` is hit. With `outcome = 1`
/// (infect) on a connected topology this produces the worst-case grounding —
/// `Active` atoms for every edge out of every infected router — which is the
/// scaling workload for the naive vs. semi-naive comparison.
pub fn cascade_choice_set(grounder: &dyn Grounder, outcome: i64, max_rounds: usize) -> AtrSet {
    let mut atr = AtrSet::new();
    let mut grounding = grounder.ground_node(&atr);
    for _ in 0..max_rounds {
        let triggers = grounder.triggers(&atr, grounding.rules());
        if triggers.is_empty() {
            break;
        }
        let parent_atr = atr.clone();
        for trigger in triggers {
            let rule = AtrRule::new(grounder.sigma(), trigger, Const::Int(outcome))
                .expect("triggers use Active predicates");
            atr.insert(rule).expect("fresh triggers cannot conflict");
        }
        grounding = grounder.ground_from(&atr, &parent_atr, &mut grounding);
    }
    atr
}

/// A "coin game": every player tosses a coin and each tails coin opens an
/// independent `Aux1(x)/Aux2(x)` even loop — a free binary choice in the
/// stable semantics. An outcome with `k` tails therefore induces a ground
/// program whose residual splits into `k` independent components with `2^k`
/// stable models in total: the scaling family for the component-split
/// stable-model search (one `2^k` sweep vs. `k` two-leaf searches).
pub fn coin_game(n: usize, p: f64) -> (Program, Database) {
    let program = ProgramBuilder::new()
        .rule(|r| {
            r.body("Player", vec![Term::var("x")]).head_with_delta(
                "Toss",
                vec![Term::var("x")],
                "Flip",
                vec![Term::Const(Const::real(p).expect("finite"))],
                vec![Term::var("x")],
            )
        })
        .rule(|r| {
            r.body("Toss", vec![Term::var("x"), Term::int(1)])
                .not_body("Aux2", vec![Term::var("x")])
                .head("Aux1", vec![Term::var("x")])
        })
        .rule(|r| {
            r.body("Toss", vec![Term::var("x"), Term::int(1)])
                .not_body("Aux1", vec![Term::var("x")])
                .head("Aux2", vec![Term::var("x")])
        })
        .build()
        .expect("coin game program is valid");
    let mut db = Database::new();
    for i in 1..=n as i64 {
        db.insert_fact("Player", [Const::Int(i)]);
    }
    (program, db)
}

/// The coin game with a chain constraint: adjacent players may not both pick
/// `Aux1`. The constraint's `Fail`/`Aux` machinery welds neighbouring loops
/// into one large component, so the component split alone cannot help — this
/// family exercises the *propagating* search, which prunes the invalid
/// corner of every `2^k` assignment cube instead of visiting it.
pub fn chain_game(n: usize, p: f64) -> (Program, Database) {
    let program = ProgramBuilder::new()
        .rule(|r| {
            r.body("Player", vec![Term::var("x")]).head_with_delta(
                "Toss",
                vec![Term::var("x")],
                "Flip",
                vec![Term::Const(Const::real(p).expect("finite"))],
                vec![Term::var("x")],
            )
        })
        .rule(|r| {
            r.body("Toss", vec![Term::var("x"), Term::int(1)])
                .not_body("Aux2", vec![Term::var("x")])
                .head("Aux1", vec![Term::var("x")])
        })
        .rule(|r| {
            r.body("Toss", vec![Term::var("x"), Term::int(1)])
                .not_body("Aux1", vec![Term::var("x")])
                .head("Aux2", vec![Term::var("x")])
        })
        .constraint(|r| {
            r.body("Next", vec![Term::var("x"), Term::var("y")])
                .body("Aux1", vec![Term::var("x")])
                .body("Aux1", vec![Term::var("y")])
        })
        .build()
        .expect("chain game program is valid");
    let mut db = Database::new();
    for i in 1..=n as i64 {
        db.insert_fact("Player", [Const::Int(i)]);
        if i < n as i64 {
            db.insert_fact("Next", [Const::Int(i), Const::Int(i + 1)]);
        }
    }
    (program, db)
}

/// One ready-to-chase workload for the stable-model back-end benchmarks: a
/// named grounder whose outcome space does real stable-model work (even
/// loops, constraints, coupled components), or, on the perfect grounder,
/// is keyed from the outcomes' heads.
pub struct StableWorkload {
    /// Workload name (scale-qualified, e.g. `coin_game_n7`).
    pub name: String,
    /// The grounder, ready for `enumerate_outcomes` →
    /// `OutputSpace::from_chase`.
    pub grounder: Box<dyn Grounder>,
}

/// The stable-model benchmark suite — **the** scale table for `bench stable`,
/// at CI-smoke (`full = false`) or full measurement size. Scales live only
/// here so the smoke and full runs cannot drift.
pub fn stable_workload_suite(full: bool) -> Vec<StableWorkload> {
    let coins = if full { 7 } else { 4 };
    let chain = if full { 6 } else { 4 };
    let ring = if full { 5 } else { 4 };
    let (dimes, quarters) = if full { (9, 2) } else { (5, 1) };

    let mut suite = Vec::new();

    let (program, db) = coin_game(coins, 0.5);
    let sigma = Arc::new(SigmaPi::translate(&program, &db).expect("translates"));
    suite.push(StableWorkload {
        name: format!("coin_game_n{coins}"),
        grounder: Box::new(SimpleGrounder::new(sigma)),
    });

    let (program, db) = chain_game(chain, 0.5);
    let sigma = Arc::new(SigmaPi::translate(&program, &db).expect("translates"));
    suite.push(StableWorkload {
        name: format!("chain_game_n{chain}"),
        grounder: Box::new(SimpleGrounder::new(sigma)),
    });

    let db = network_database(ring, Topology::Ring);
    let sigma =
        Arc::new(SigmaPi::translate(&network_resilience_program(0.1), &db).expect("translates"));
    suite.push(StableWorkload {
        name: format!("network_ring_n{ring}"),
        grounder: Box::new(SimpleGrounder::new(sigma)),
    });

    // The perfect grounder decides its outcomes' models: the naive
    // enumerator cross-checks the keys read off their heads.
    let (program, db) = dime_quarter_workload(dimes, quarters);
    let sigma = Arc::new(SigmaPi::translate(&program, &db).expect("translates"));
    suite.push(StableWorkload {
        name: format!("dime_quarter_d{dimes}_q{quarters}"),
        grounder: Box::new(PerfectGrounder::new(sigma).expect("dime/quarter is stratified")),
    });

    suite
}

/// A grounder with the incremental chase hooks stripped: `ground_node` and
/// `ground_from` fall back to the trait defaults, i.e. a full reground at
/// every chase node. The baseline for the incremental-chase benchmarks and
/// the chase-equivalence tests — both must use the *same* definition of
/// "non-incremental" or they could silently diverge.
pub struct Reground<'a>(pub &'a dyn Grounder);

impl Grounder for Reground<'_> {
    fn sigma(&self) -> &SigmaPi {
        self.0.sigma()
    }

    fn name(&self) -> &'static str {
        "reground"
    }

    fn ground(&self, atr: &AtrSet) -> GroundRuleSet {
        self.0.ground(atr)
    }
}

/// One ready-to-chase benchmark workload: a named grounder over a translated
/// program/database pair.
pub struct ChaseWorkload {
    /// Workload name (scale-qualified, e.g. `dime_quarter_d9_q2`).
    pub name: String,
    /// Does the program have stratified negation (perfect grounder)?
    pub stratified: bool,
    /// The grounder, ready for `enumerate_outcomes` / `MonteCarlo`.
    pub grounder: Box<dyn Grounder>,
}

/// The chase benchmark suite — **the** scale table for `bench chase`, at
/// CI-smoke (`full = false`) or full measurement size. Scales live only here
/// so the smoke and full runs cannot drift.
pub fn chase_workload_suite(full: bool) -> Vec<ChaseWorkload> {
    let (dimes, quarters) = if full { (9, 2) } else { (5, 1) };
    let coins = if full { 10 } else { 6 };
    let ring = if full { 5 } else { 4 };

    let mut suite = Vec::new();

    // Stratified workloads — exercise the perfect grounder's stratum cursor.
    let (program, db) = dime_quarter_workload(dimes, quarters);
    let sigma = Arc::new(SigmaPi::translate(&program, &db).expect("translates"));
    suite.push(ChaseWorkload {
        name: format!("dime_quarter_d{dimes}_q{quarters}"),
        stratified: true,
        grounder: Box::new(PerfectGrounder::new(sigma).expect("dime/quarter is stratified")),
    });

    let (program, db) = coin_chain(coins, 0.5);
    let sigma = Arc::new(SigmaPi::translate(&program, &db).expect("translates"));
    suite.push(ChaseWorkload {
        name: format!("coin_chain_n{coins}"),
        stratified: true,
        grounder: Box::new(PerfectGrounder::new(sigma).expect("coin chain is stratified")),
    });

    // Non-stratified workload — the simple grounder's snapshot sharing.
    let db = network_database(ring, Topology::Ring);
    let sigma =
        Arc::new(SigmaPi::translate(&network_resilience_program(0.1), &db).expect("translates"));
    suite.push(ChaseWorkload {
        name: format!("network_ring_n{ring}"),
        stratified: false,
        grounder: Box::new(SimpleGrounder::new(sigma)),
    });

    suite
}

/// The network families the grounding benchmarks scale over: name plus
/// database, at CI-smoke (`full = false`) or full measurement size.
pub fn grounding_network_suite(full: bool) -> Vec<(String, Database)> {
    let (clique_n, ring_n, er_n) = if full { (9, 48, 16) } else { (5, 12, 8) };
    vec![
        (
            format!("clique_n{clique_n}"),
            network_database(clique_n, Topology::Clique),
        ),
        (
            format!("ring_n{ring_n}"),
            network_database(ring_n, Topology::Ring),
        ),
        (
            format!("erdos_renyi_n{er_n}_p40"),
            network_database(
                er_n,
                Topology::ErdosRenyi {
                    edge_probability: 0.4,
                    seed: 7,
                },
            ),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clique_database_matches_example_3_6() {
        let db = network_database(3, Topology::Clique);
        assert_eq!(db.len(), 3 + 6 + 1);
    }

    #[test]
    fn topologies_have_expected_edge_counts() {
        assert_eq!(network_database(5, Topology::Ring).len(), 5 + 10 + 1);
        assert_eq!(network_database(5, Topology::Line).len(), 5 + 8 + 1);
        let er = network_database(
            6,
            Topology::ErdosRenyi {
                edge_probability: 1.0,
                seed: 1,
            },
        );
        assert_eq!(er.len(), 6 + 30 + 1);
        let empty = network_database(
            6,
            Topology::ErdosRenyi {
                edge_probability: 0.0,
                seed: 1,
            },
        );
        assert_eq!(empty.len(), 6 + 1);
    }

    #[test]
    fn er_generation_is_deterministic_per_seed() {
        let a = network_database(
            8,
            Topology::ErdosRenyi {
                edge_probability: 0.4,
                seed: 9,
            },
        );
        let b = network_database(
            8,
            Topology::ErdosRenyi {
                edge_probability: 0.4,
                seed: 9,
            },
        );
        assert_eq!(a, b);
    }

    #[test]
    fn dime_quarter_and_coin_workloads_validate() {
        let (program, db) = dime_quarter_workload(3, 2);
        assert!(program.validate().is_ok());
        assert_eq!(db.len(), 5);
        let (program, db) = coin_chain(4, 0.5);
        assert!(program.validate().is_ok());
        assert_eq!(db.len(), 4);
        assert!(program.has_stratified_negation());
    }

    #[test]
    fn coin_and_chain_game_programs_validate() {
        let (program, db) = coin_game(3, 0.5);
        assert!(program.validate().is_ok());
        assert!(
            !program.has_stratified_negation(),
            "per-player Aux loops are even negative cycles"
        );
        assert_eq!(db.len(), 3);
        let (program, db) = chain_game(3, 0.5);
        assert!(program.validate().is_ok());
        assert_eq!(db.len(), 3 + 2, "players plus Next edges");
    }

    #[test]
    fn coin_farm_and_copy_generators_validate() {
        let (program, db) = coin_farm(4, 0.5);
        assert!(program.validate().is_ok());
        assert!(
            program.has_stratified_negation(),
            "the farm has no negation at all"
        );
        assert_eq!(db.len(), 4);
        let (program, db) = cascade_copies(3);
        assert!(program.validate().is_ok());
        assert_eq!(db.len(), 3 * 5, "one Source and four Edges per copy");
        let (program, db) = epidemic_copies(2);
        assert!(program.validate().is_ok());
        assert_eq!(db.len(), 2 * 6, "three Persons, two Contacts, one Sick");
    }

    #[test]
    fn factor_suite_scales_are_consistent_across_smoke_and_full() {
        for full in [false, true] {
            let suite = factor_workload_suite(full);
            assert_eq!(suite.len(), 6);
            assert_eq!(
                suite.iter().filter(|w| !w.flat_feasible).count(),
                2,
                "two past-the-wall workloads"
            );
            for w in &suite {
                assert!(w.program.validate().is_ok(), "{}", w.name);
            }
        }
        let smoke: Vec<String> = factor_workload_suite(false)
            .iter()
            .map(|w| w.name.clone())
            .collect();
        let full: Vec<String> = factor_workload_suite(true)
            .iter()
            .map(|w| w.name.clone())
            .collect();
        assert_ne!(smoke, full);
    }

    #[test]
    fn factor_suite_components_match_the_advertised_counts() {
        // Smoke scale only: the independence analysis saturates a universe
        // per workload, which is cheap here but not free.
        for w in factor_workload_suite(false) {
            let pipeline = gdlog_core::Pipeline::new(&w.program, &w.database).expect("pipeline");
            assert_eq!(
                pipeline.factor_count().expect("analysis succeeds"),
                w.expected_factors,
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn coin_game_all_tails_outcome_has_exponential_models() {
        use gdlog_core::{SigmaPi, SimpleGrounder};
        use std::sync::Arc;
        let (program, db) = coin_game(3, 0.5);
        let sigma = Arc::new(SigmaPi::translate(&program, &db).unwrap());
        let grounder = SimpleGrounder::new(sigma);
        // Resolving every flip with outcome 1 (tails) opens all three loops.
        let atr = cascade_choice_set(&grounder, 1, 16);
        assert!(grounder.is_terminal(&atr));
        let program = grounder.full_program(&atr);
        let models =
            gdlog_engine::stable_models(&program, &gdlog_engine::StableModelLimits::default())
                .unwrap();
        assert_eq!(models.len(), 8, "three independent even loops");
        assert_eq!(
            models,
            gdlog_engine::naive_stable_models(
                &program,
                &gdlog_engine::StableModelLimits::default()
            )
            .unwrap()
        );
    }

    #[test]
    fn chain_game_constraint_prunes_adjacent_aux1_pairs() {
        use gdlog_core::{SigmaPi, SimpleGrounder};
        use std::sync::Arc;
        let (program, db) = chain_game(3, 0.5);
        let sigma = Arc::new(SigmaPi::translate(&program, &db).unwrap());
        let grounder = SimpleGrounder::new(sigma);
        let atr = cascade_choice_set(&grounder, 1, 16);
        assert!(grounder.is_terminal(&atr));
        let program = grounder.full_program(&atr);
        let limits = gdlog_engine::StableModelLimits::default();
        let models = gdlog_engine::stable_models(&program, &limits).unwrap();
        // Binary strings of length 3 with no two adjacent ones: 101 is the
        // Fibonacci count F(5) = 5.
        assert_eq!(models.len(), 5);
        assert_eq!(
            models,
            gdlog_engine::naive_stable_models(&program, &limits).unwrap()
        );
    }

    #[test]
    fn stable_suite_scales_are_consistent_across_smoke_and_full() {
        for full in [false, true] {
            let suite = stable_workload_suite(full);
            assert_eq!(suite.len(), 4);
            for w in &suite {
                let perfect = w.name.starts_with("dime_quarter");
                let expected = if perfect { "perfect" } else { "simple" };
                assert_eq!(w.grounder.name(), expected, "{}", w.name);
                assert_eq!(w.grounder.decides_models(), perfect, "{}", w.name);
            }
        }
        let smoke: Vec<String> = stable_workload_suite(false)
            .iter()
            .map(|w| w.name.clone())
            .collect();
        let full: Vec<String> = stable_workload_suite(true)
            .iter()
            .map(|w| w.name.clone())
            .collect();
        assert_ne!(smoke, full);
    }

    #[test]
    fn cascade_choice_set_reaches_a_terminal_configuration() {
        use gdlog_core::{SigmaPi, SimpleGrounder};
        use std::sync::Arc;
        let db = network_database(4, Topology::Clique);
        let sigma = Arc::new(SigmaPi::translate(&network_program(0.1), &db).unwrap());
        let grounder = SimpleGrounder::new(sigma);
        let atr = cascade_choice_set(&grounder, 1, 64);
        assert!(grounder.is_terminal(&atr));
        // Every router infects all three neighbours: 4 × 3 Active atoms.
        assert_eq!(atr.len(), 12);
    }

    #[test]
    fn chase_suite_scales_are_consistent_across_smoke_and_full() {
        for full in [false, true] {
            let suite = chase_workload_suite(full);
            assert_eq!(suite.len(), 3);
            assert_eq!(
                suite.iter().filter(|w| w.stratified).count(),
                2,
                "two stratified workloads for the perfect grounder"
            );
            for w in &suite {
                let expected = if w.stratified { "perfect" } else { "simple" };
                assert_eq!(w.grounder.name(), expected, "{}", w.name);
            }
        }
        // The full scale strictly dominates the smoke scale per workload.
        let smoke: Vec<String> = chase_workload_suite(false)
            .iter()
            .map(|w| w.name.clone())
            .collect();
        let full: Vec<String> = chase_workload_suite(true)
            .iter()
            .map(|w| w.name.clone())
            .collect();
        assert_ne!(smoke, full);
    }

    #[test]
    fn grounding_suite_has_three_topologies_at_both_scales() {
        for full in [false, true] {
            let suite = grounding_network_suite(full);
            assert_eq!(suite.len(), 3);
            assert!(suite.iter().all(|(_, db)| !db.is_empty()));
        }
        let small: usize = grounding_network_suite(false)
            .iter()
            .map(|(_, db)| db.len())
            .sum();
        let full: usize = grounding_network_suite(true)
            .iter()
            .map(|(_, db)| db.len())
            .sum();
        assert!(small < full);
    }
}
