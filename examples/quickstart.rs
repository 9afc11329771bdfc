//! Quickstart: parse a GDatalog¬[Δ] program, evaluate it, and query the
//! output probability space.
//!
//! Run with: `cargo run --example quickstart`

use gdlog::parser::parse_program;
use gdlog::prelude::*;

fn main() {
    // The network-resilience program of Example 3.1, together with the
    // 3-router database of Example 3.6, in the paper's surface syntax.
    let source = r#"
        % malware propagation: an infected router infects each neighbour
        % independently with probability 0.1
        Infected(x, 1), Connected(x, y) -> Infected(y, Flip<0.1>[x, y]).

        % a router that is not infected is uninfected
        Router(x), not Infected(x, 1) -> Uninfected(x).

        % the malware fails to dominate the network if two uninfected routers
        % are connected
        Uninfected(x), Uninfected(y), Connected(x, y) -> false.

        % the database: a clique of three routers, router 1 initially infected
        Router(1). Router(2). Router(3).
        Connected(1, 2). Connected(2, 1).
        Connected(1, 3). Connected(3, 1).
        Connected(2, 3). Connected(3, 2).
        Infected(1, 1).
    "#;

    let (program, database) = parse_program(source).expect("the program parses");
    println!("parsed program:\n{program}");
    println!("database has {} facts\n", database.len());

    // Translate, ground, chase and build the output probability space.
    let pipeline = Pipeline::new(&program, &database).expect("valid program");
    let space = pipeline.solve().expect("evaluation succeeds");

    println!("finite possible outcomes : {}", space.outcome_count());
    println!("distinct events          : {}", space.event_count());
    println!("residual / error mass    : {}", space.residual_mass());

    // Example 3.10: the network is dominated by the malware iff the program
    // has some stable model; the paper computes 1 − 0.9² = 0.19.
    let dominated = space.has_stable_model_probability();
    println!(
        "P(network dominated)     : {} ≈ {:.4}",
        dominated,
        dominated.to_f64()
    );
    assert_eq!(dominated, Prob::ratio(19, 100));

    // Marginals of individual atoms.
    for router in 2..=3i64 {
        let infected = space.brave_probability(&GroundAtom::make(
            "Infected",
            vec![Const::Int(router), Const::Int(1)],
        ));
        println!(
            "P(router {router} infected in some stable model) = {:.4}",
            infected.to_f64()
        );
    }
}
