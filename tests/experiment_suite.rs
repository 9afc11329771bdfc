//! Smoke test for the experiment harness: the fast experiments must all
//! report "ok" (i.e. match the paper) when run through the public API of
//! `gdlog-bench`. The heavier experiments (`e4`, `e6`, `e9`, `e10`) are
//! exercised by the `experiments` binary.

use gdlog_bench::{run_experiment, ExperimentOutcome};

fn assert_ok(outcome: &ExperimentOutcome) {
    assert!(
        outcome.all_ok(),
        "experiment {} disagrees with the paper:\n{}",
        outcome.id,
        outcome.report
    );
}

#[test]
fn e1_network_resilience_matches_example_3_10() {
    assert_ok(&run_experiment("e1"));
}

#[test]
fn e2_coin_program_matches_section_3() {
    assert_ok(&run_experiment("e2"));
}

#[test]
fn e3_dime_quarter_matches_appendix_e() {
    assert_ok(&run_experiment("e3"));
}

#[test]
fn e5_bckov_isomorphism_holds() {
    assert_ok(&run_experiment("e5"));
}

#[test]
fn e7_grounder_properties_hold() {
    assert_ok(&run_experiment("e7"));
}

#[test]
fn e8_figure_1_dependency_graph() {
    assert_ok(&run_experiment("e8"));
}

#[test]
fn e9_perfect_grounder_produces_fewer_rules() {
    assert_ok(&run_experiment("e9"));
}
