//! Pins the chase-independence components of the factored workloads.
//!
//! The factored ≡ flat tests compare answers, and answers stay equal when
//! the analysis over-merges components (the solve only gets slower). This
//! suite pins the components themselves: for each program, the component
//! count and one FNV-1a fingerprint over every component's atoms and
//! triggers, in component order.

mod common;

use common::scenario_files;
use gdlog_bench::workloads::{cascade_copies, coin_farm};
use gdlog_core::factor::analyze_with;
use gdlog_core::{fnv1a_fingerprint, ChaseBudget, ChaseComponent, Pipeline, Program};
use gdlog_data::Database;

/// The components at `max_branching`, `None` on the flat path.
fn components(
    program: &Program,
    db: &Database,
    max_branching: usize,
) -> Option<Vec<ChaseComponent>> {
    let budget = ChaseBudget {
        max_branching,
        ..ChaseBudget::default()
    };
    let pipeline = Pipeline::new(program, db).expect("program translates");
    analyze_with(pipeline.sigma(), &budget)
        .expect("analysis succeeds")
        .0
}

/// FNV-1a over every component's atoms, then its triggers, in order.
fn fingerprint(components: &[ChaseComponent]) -> String {
    fnv1a_fingerprint(components.iter().flat_map(|c| {
        std::iter::once("component;".to_owned())
            .chain(c.atoms.iter().map(|a| format!("{a};")))
            .chain(std::iter::once("triggers;".to_owned()))
            .chain(c.triggers.iter().map(|a| format!("{a};")))
    }))
}

fn assert_pinned(name: &str, components: Option<Vec<ChaseComponent>>, count: usize, pin: &str) {
    let components = components.unwrap_or_else(|| panic!("{name}: took the flat path"));
    assert_eq!(
        (components.len(), fingerprint(&components).as_str()),
        (count, pin),
        "{name}: component count and fingerprint"
    );
}

/// Epidemic contact chains of lengths 2..=9, the `epidemic_chains_2to9`
/// benchmark program: eight factors, no two isomorphic.
fn epidemic_chains() -> String {
    let mut text = String::from(
        "Sick(x, 1), Contact(x, y) -> Sick(y, Flip<0.5>[x, y]).\nPerson(x), not Sick(x, 1) -> Healthy(x).\n\n",
    );
    for len in 2..=9 {
        let base = 100 * len;
        for i in 1..=len {
            text.push_str(&format!("Person({}).\n", base + i));
        }
        for i in 1..len {
            text.push_str(&format!("Contact({}, {}).\n", base + i, base + i + 1));
        }
        text.push_str(&format!("Sick({}, 1).\n", base + 1));
    }
    text
}

#[test]
fn coin_farm_splits_into_one_component_per_coin() {
    let (program, db) = coin_farm(100, 0.5);
    let got = components(&program, &db, ChaseBudget::default().max_branching);
    assert_pinned("coin_farm_n100", got, 100, "a4bdcde6ddd7fed3");
}

#[test]
fn cascade_copies_split_into_one_component_per_copy() {
    let (program, db) = cascade_copies(10);
    let got = components(&program, &db, ChaseBudget::default().max_branching);
    assert_pinned("cascade_x10", got, 10, "f9f661a7bbdabe71");
}

#[test]
fn epidemic_chains_split_into_one_component_per_chain() {
    let (program, db) = gdlog_parser::parse_program(&epidemic_chains()).expect("parses");
    let got = components(&program, &db, ChaseBudget::default().max_branching);
    assert_pinned("epidemic_chains_2to9", got, 8, "a745a562c39c10cd");
}

#[test]
fn only_the_coin_farm_and_coin_ties_scenarios_factor() {
    for (name, path) in scenario_files() {
        let source = std::fs::read_to_string(&path).expect("scenario readable");
        let (program, db) = gdlog_parser::parse_program(&source).expect("scenario parses");
        for max_branching in [8, 64] {
            let got = components(&program, &db, max_branching);
            let label = format!("{name} at max_branching {max_branching}");
            match name.as_str() {
                "coin_farm" => assert_pinned(&label, got, 4, "5721fc5215d9037d"),
                "coin_ties" => assert_pinned(&label, got, 8, "59ebbbfd63396d05"),
                _ => assert!(got.is_none(), "{label}: expected the flat path"),
            }
        }
    }
}
