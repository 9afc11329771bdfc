//! The chase's rule log, pinned in order.
//!
//! The naive-oracle properties compare grounders by *canonical* (sorted) rule
//! sets; they cannot see a change in the order rules enter an outcome's rule
//! log, or in the order outcomes come out of the chase. Both orders reach the
//! output: the stable search walks the rule log as it stands, and traces,
//! fingerprints and top-k ties follow outcome order. These digests hash every
//! outcome's choices, its rules in insertion order and its probability, and
//! are pinned to the values the chase produced before the join plans
//! replaced the substitution-based matcher, so a grounding change that
//! reorders a single rule fails here.

use gdlog::core::factor::analyze_with;
use gdlog::core::{
    enumerate_outcomes, fnv1a_fingerprint, network_resilience_program, ChaseBudget, ChaseResult,
    Grounder, PerfectGrounder, SigmaPi, SimpleGrounder, TriggerOrder,
};
use gdlog::prelude::*;
use gdlog_bench::workloads::{
    chain_game, coin_farm, dime_quarter_workload, network_database, Topology,
};
use std::sync::Arc;

/// FNV-1a over every outcome's choices, rules (insertion order) and
/// probability, in chase order.
fn digest(chase: &ChaseResult) -> String {
    let mut chunks = Vec::new();
    for outcome in &chase.outcomes {
        chunks.push(format!("{}\n", outcome.atr));
        chunks.extend(outcome.rules.iter().map(|rule| format!("{rule}\n")));
        chunks.push(format!("@{};", outcome.probability));
    }
    chunks.push(format!("outcomes={};", chase.outcomes.len()));
    fnv1a_fingerprint(chunks)
}

fn chase(grounder: &dyn Grounder) -> ChaseResult {
    enumerate_outcomes(grounder, &ChaseBudget::default(), TriggerOrder::First).unwrap()
}

fn sigma(program: &Program, db: &Database) -> Arc<SigmaPi> {
    Arc::new(SigmaPi::translate(program, db).unwrap())
}

#[test]
fn network_ring_n5_rule_log_is_pinned() {
    let db = network_database(5, Topology::Ring);
    let grounder = SimpleGrounder::new(sigma(&network_resilience_program(0.1), &db));
    assert_eq!(digest(&chase(&grounder)), "09471bf5bd675e56");
}

#[test]
fn dime_quarter_d9_q2_rule_log_is_pinned() {
    let (program, db) = dime_quarter_workload(9, 2);
    let grounder = PerfectGrounder::new(sigma(&program, &db)).unwrap();
    assert_eq!(digest(&chase(&grounder)), "f6e2038dddd93c01");
}

#[test]
fn chain_game_n6_rule_log_is_pinned() {
    let (program, db) = chain_game(6, 0.5);
    let grounder = SimpleGrounder::new(sigma(&program, &db));
    assert_eq!(digest(&chase(&grounder)), "2d044edbe96c46c2");
}

/// The coin farm flat, and factored: each factor is chased over its own
/// Σ_Π slice, which shares the whole program's compiled rules.
#[test]
fn coin_farm_rule_logs_are_pinned() {
    let (program, db) = coin_farm(5, 0.5);
    let whole = sigma(&program, &db);
    let flat = chase(&SimpleGrounder::new(whole.clone()));
    assert_eq!(digest(&flat), "a776f803c939f593");

    let (components, _) = analyze_with(&whole, &ChaseBudget::default()).unwrap();
    let components = components.expect("the farm splits into one factor per coin");
    let factored: Vec<String> = components
        .iter()
        .map(|component| digest(&chase(&SimpleGrounder::new(component.slice.clone()))))
        .collect();
    assert_eq!(fnv1a_fingerprint(&factored), "dce53fdd028943a6");
}
