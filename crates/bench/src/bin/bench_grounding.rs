//! Naive vs. semi-naive grounding comparison with a JSON summary.
//!
//! CI tracks the grounding perf trajectory through this binary: it times both
//! saturation strategies on the scaled network workloads and writes a
//! `BENCH_grounding.json` summary.
//!
//! Usage: `bench_grounding [--full] [--out PATH]` (default: small scale,
//! `BENCH_grounding.json` in the current directory).

use gdlog_bench::workloads::{cascade_choice_set, grounding_network_suite, network_program};
use gdlog_core::{AtrSet, Grounder, SigmaPi, SimpleGrounder};
use std::sync::Arc;
use std::time::Instant;

struct Row {
    name: String,
    db_atoms: usize,
    choices: usize,
    ground_rules: usize,
    naive_ms: f64,
    seminaive_ms: f64,
}

/// Minimum wall-clock over `reps` runs, in milliseconds.
fn time_min_ms<F: FnMut() -> usize>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_grounding.json".to_owned());
    let reps = if full { 5 } else { 3 };

    let mut rows: Vec<Row> = Vec::new();
    for (name, db) in grounding_network_suite(!full) {
        let sigma = Arc::new(
            SigmaPi::translate(&network_program(0.1), &db).expect("workload program translates"),
        );
        let grounder = SimpleGrounder::new(sigma);
        let atr: AtrSet = cascade_choice_set(&grounder, 1, 1024);
        let ground_rules = grounder.ground(&atr).len();
        assert_eq!(
            grounder.ground_naive(&atr).len(),
            ground_rules,
            "naive and semi-naive groundings must agree on {name}"
        );
        let seminaive_ms = time_min_ms(reps, || grounder.ground(&atr).len());
        let naive_ms = time_min_ms(reps, || grounder.ground_naive(&atr).len());
        eprintln!(
            "{name}: db={} choices={} rules={ground_rules} naive={naive_ms:.2}ms \
             seminaive={seminaive_ms:.2}ms speedup={:.2}x",
            db.len(),
            atr.len(),
            naive_ms / seminaive_ms
        );
        rows.push(Row {
            name,
            db_atoms: db.len(),
            choices: atr.len(),
            ground_rules,
            naive_ms,
            seminaive_ms,
        });
    }

    // The acceptance metric: speedup on the workload with the most ground
    // rules (the "largest network workload").
    let largest = rows
        .iter()
        .max_by_key(|r| r.ground_rules)
        .expect("suite is non-empty");
    let largest_speedup = largest.naive_ms / largest.seminaive_ms;

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"grounding_seminaive\",\n");
    json.push_str(&format!(
        "  \"scale\": \"{}\",\n",
        if full { "full" } else { "small" }
    ));
    json.push_str(&format!(
        "  \"largest_workload\": \"{}\",\n  \"largest_workload_speedup\": {:.3},\n",
        largest.name, largest_speedup
    ));
    json.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"db_atoms\": {}, \"choices\": {}, \"ground_rules\": {}, \
             \"naive_ms\": {:.3}, \"seminaive_ms\": {:.3}, \"speedup\": {:.3}}}{}\n",
            r.name,
            r.db_atoms,
            r.choices,
            r.ground_rules,
            r.naive_ms,
            r.seminaive_ms,
            r.naive_ms / r.seminaive_ms,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write summary");
    eprintln!("wrote {out_path}");
    println!("{json}");

    if largest_speedup < 1.0 {
        eprintln!("WARNING: semi-naive slower than naive on the largest workload");
        std::process::exit(1);
    }
}
