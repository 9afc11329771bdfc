//! Flat vs. factored output-space benchmark with a JSON summary: the chase
//! independence analysis + per-component product space against the flat
//! single-chase enumerator.
//!
//! The factored pipeline (`Pipeline::solve_factored`) partitions the ground
//! program into chase-independent components, chases each one separately and
//! answers queries from the *product* of the per-component spaces without
//! ever materializing the flat cross product. This tracker measures that
//! lever on workloads that genuinely factor:
//!
//! * `flat_ms` — `Pipeline::solve`: one chase over the joint space, one
//!   stable-model pass per joint outcome (`null` for past-the-wall
//!   workloads whose joint outcome count exceeds the default chase budget);
//! * `factored_ms` — `Pipeline::solve_factored`: independence analysis,
//!   one chase + stable-model pass per component, product arithmetic.
//!
//! Before anything is timed the two paths must agree **exactly** wherever
//! both run: total mass accounting, joint outcome counts, the mass-sorted
//! top-event listing (exact `Rational` masses included) and brave/cautious
//! probabilities of probe atoms. Past-the-wall workloads instead assert the
//! factored solve is exact (`explored = 1`, `residual = 0`, untruncated)
//! where the flat path could only truncate. The JSON carries an
//! event-listing fingerprint computed from the factored top events so CI can
//! diff it across its `GDLOG_THREADS` matrix legs *and* against the flat
//! listing.
//!
//! Workload scales live in one table, `workloads::factor_workload_suite`,
//! so the CI smoke scale and the full measurement scale cannot drift.
//!
//! Usage: `bench_factor [--full] [--threads N] [--out PATH]
//! [--gate-factored]` (defaults: small scale, `GDLOG_THREADS` or 4 threads,
//! `BENCH_factor.json` in the current directory). With `--gate-factored`
//! the run exits non-zero unless at least two flat-feasible workloads reach
//! the scale's speedup floor — 2× at smoke scale, 10× at full scale.

use gdlog_bench::workloads::{factor_workload_suite, FactorWorkload};
use gdlog_core::{ModelSetKey, Pipeline, THREADS_ENV};
use gdlog_prob::Prob;
use std::time::Instant;

/// Events hashed into the fingerprint and compared flat-vs-factored.
const PROBE_EVENTS: usize = 512;

struct Row {
    name: String,
    factors: usize,
    flat_feasible: bool,
    combined_outcomes: u128,
    stored_outcomes: usize,
    combined_events: u128,
    fingerprint: String,
    flat_ms: Option<f64>,
    factored_ms: f64,
}

impl Row {
    fn outcomes_avoided(&self) -> u128 {
        self.combined_outcomes
            .saturating_sub(self.stored_outcomes as u128)
    }

    fn speedup(&self) -> Option<f64> {
        self.flat_ms.map(|flat| flat / self.factored_ms)
    }
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

/// Fingerprint of the mass-sorted top-event listing (shared FNV-1a scheme) —
/// CI compares these across `GDLOG_THREADS` legs, and `measure` asserts the
/// flat listing hashes to the same value wherever the flat path runs.
fn fingerprint(events: &[(ModelSetKey, Prob)], combined_outcomes: u128) -> String {
    gdlog_bench::fnv1a_fingerprint(
        events
            .iter()
            .map(|(key, mass)| format!("{key}@{mass};"))
            .chain(std::iter::once(format!("outcomes={combined_outcomes};"))),
    )
}

fn measure(w: &FactorWorkload, reps: usize, threads: usize) -> Row {
    let pipeline = Pipeline::new(&w.program, &w.database)
        .expect("workload pipeline builds")
        .threads(threads);
    let solve = pipeline.solve_factored().expect("factored solve succeeds");
    assert!(
        solve.factor_count() > 1,
        "{}: expected a product space, got the flat fallback",
        w.name
    );
    assert_eq!(
        solve.factor_count(),
        w.expected_factors,
        "{}: unexpected component count",
        w.name
    );
    // Every suite workload is exactly solvable per component: the factored
    // path must cover the full joint mass with zero residual.
    assert!(
        !solve.is_truncated(),
        "{}: factored solve truncated",
        w.name
    );
    assert_eq!(
        solve.explored_mass(),
        Prob::ONE,
        "{}: factored solve is not exact",
        w.name
    );
    assert_eq!(solve.residual_mass(), Prob::ZERO, "{}", w.name);
    let combined_outcomes = solve.combined_outcomes();
    let top = solve.events_by_mass_top(PROBE_EVENTS);

    let flat_ms = if w.flat_feasible {
        let flat_pipeline = Pipeline::new(&w.program, &w.database)
            .expect("workload pipeline builds")
            .threads(threads);
        let flat = flat_pipeline.solve().expect("flat solve succeeds");
        assert!(
            !flat.is_truncated(),
            "{}: flat path truncated; move this workload past the wall",
            w.name
        );
        // Exact agreement on everything both paths can answer.
        assert_eq!(
            flat.outcome_count() as u128,
            combined_outcomes,
            "{}",
            w.name
        );
        assert_eq!(
            flat.event_count() as u128,
            solve.combined_events(),
            "{}",
            w.name
        );
        assert_eq!(flat.explored_mass(), solve.explored_mass(), "{}", w.name);
        assert_eq!(flat.residual_mass(), solve.residual_mass(), "{}", w.name);
        assert_eq!(
            flat.has_stable_model_probability(),
            solve.has_stable_model_probability(),
            "{}",
            w.name
        );
        let flat_events = flat.events_by_mass();
        let flat_top: Vec<(ModelSetKey, Prob)> =
            flat_events.iter().take(PROBE_EVENTS).cloned().collect();
        if flat_events.len() <= PROBE_EVENTS {
            // The probe covers the whole space: the listings must be
            // identical, order included.
            assert_eq!(
                flat_top, top,
                "{}: flat and factored event listings diverge",
                w.name
            );
        } else {
            // The probe cuts the listing, and a tied group at the cut may
            // be split differently by the two paths (the factored merge
            // cannot enumerate an astronomically large tie group to find
            // its key-ascending least members). Tie-normalize: the probed
            // boundary mass must agree, every event strictly heavier than
            // it must match exactly (order included), and every listed
            // boundary-tied event must get its exact mass from the other
            // path's point lookup.
            use std::cmp::Ordering;
            let boundary = flat_top.last().expect("probe is non-empty").1;
            assert_eq!(
                top.last().expect("probe is non-empty").1,
                boundary,
                "{}: probed boundary mass diverges",
                w.name
            );
            let strictly_above = |listing: &[(ModelSetKey, Prob)]| -> Vec<(ModelSetKey, Prob)> {
                listing
                    .iter()
                    .filter(|(_, m)| m.total_cmp(&boundary) == Ordering::Greater)
                    .cloned()
                    .collect()
            };
            assert_eq!(
                strictly_above(&flat_top),
                strictly_above(&top),
                "{}: event listings diverge above the tie boundary",
                w.name
            );
            for (key, mass) in top.iter().filter(|(_, m)| *m == boundary) {
                assert_eq!(
                    &flat.event_probability(key),
                    mass,
                    "{}: factored boundary event has the wrong flat mass",
                    w.name
                );
            }
            for (key, mass) in flat_top.iter().filter(|(_, m)| *m == boundary) {
                assert_eq!(
                    &solve.event_probability(key),
                    mass,
                    "{}: flat boundary event has the wrong factored mass",
                    w.name
                );
            }
        }
        for atom in flat_top
            .iter()
            .flat_map(|(key, _)| key.models().next())
            .flatten()
            .take(8)
        {
            assert_eq!(
                flat.brave_probability(atom),
                solve.brave_probability(atom),
                "{}: brave({atom}) diverges",
                w.name
            );
            assert_eq!(
                flat.cautious_probability(atom),
                solve.cautious_probability(atom),
                "{}: cautious({atom}) diverges",
                w.name
            );
        }
        Some(time_min_ms(reps, || {
            flat_pipeline
                .solve()
                .expect("flat solve succeeds")
                .event_count()
        }))
    } else {
        // Past the wall: the flat chase could not even enumerate the joint
        // outcomes within its default budget, so only exactness of the
        // factored answer is asserted (above) and `flat_ms` stays null.
        assert!(
            combined_outcomes > 1_000_000,
            "{}: joint space too small to count as past the wall",
            w.name
        );
        None
    };

    let factored_ms = time_min_ms(reps, || {
        pipeline
            .solve_factored()
            .expect("factored solve succeeds")
            .factor_count()
    });

    let row = Row {
        name: w.name.clone(),
        factors: solve.factor_count(),
        flat_feasible: w.flat_feasible,
        combined_outcomes,
        stored_outcomes: solve.stored_outcomes(),
        combined_events: solve.combined_events(),
        fingerprint: fingerprint(&top, combined_outcomes),
        flat_ms,
        factored_ms,
    };
    match row.speedup() {
        Some(s) => eprintln!(
            "{}: factors={} outcomes={} (stored {}) flat {:.2}ms -> factored {:.2}ms ({s:.2}x)",
            row.name,
            row.factors,
            row.combined_outcomes,
            row.stored_outcomes,
            row.flat_ms.expect("speedup implies flat ran"),
            row.factored_ms,
        ),
        None => eprintln!(
            "{}: factors={} outcomes={} (stored {}) flat infeasible -> factored {:.2}ms, exact",
            row.name, row.factors, row.combined_outcomes, row.stored_outcomes, row.factored_ms,
        ),
    }
    row
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let gate = args.iter().any(|a| a == "--gate-factored");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_factor.json".to_owned());
    let threads = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .or_else(|| {
            std::env::var(THREADS_ENV)
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
        })
        .unwrap_or(4);
    let reps = 2;
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let rows: Vec<Row> = factor_workload_suite(full)
        .iter()
        .map(|w| measure(w, reps, threads))
        .collect();

    let best = rows
        .iter()
        .filter(|r| r.speedup().is_some())
        .max_by(|a, b| {
            a.speedup()
                .unwrap_or(0.0)
                .total_cmp(&b.speedup().unwrap_or(0.0))
        })
        .expect("the suite has flat-feasible workloads");

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"factorized_spaces\",\n");
    json.push_str(&format!(
        "  \"scale\": \"{}\",\n",
        if full { "full" } else { "small" }
    ));
    json.push_str(&format!(
        "  \"threads\": {threads},\n  \"available_parallelism\": {cores},\n"
    ));
    json.push_str(&format!(
        "  \"best_workload\": \"{}\",\n  \"best_speedup\": {:.3},\n",
        best.name,
        best.speedup().expect("best is flat-feasible"),
    ));
    json.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let flat_ms = match r.flat_ms {
            Some(ms) => format!("{ms:.3}"),
            None => "null".to_owned(),
        };
        let speedup = match r.speedup() {
            Some(s) => format!("{s:.3}"),
            None => "null".to_owned(),
        };
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"factors\": {}, \"flat_feasible\": {}, \
             \"combined_outcomes\": {}, \"stored_outcomes\": {}, \
             \"outcomes_avoided\": {}, \"combined_events\": {}, \
             \"fingerprint\": \"{}\", \
             \"flat_ms\": {flat_ms}, \"factored_ms\": {:.3}, \"speedup\": {speedup}}}{}\n",
            r.name,
            r.factors,
            r.flat_feasible,
            r.combined_outcomes,
            r.stored_outcomes,
            r.outcomes_avoided(),
            r.combined_events,
            r.fingerprint,
            r.factored_ms,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write summary");
    eprintln!("wrote {out_path}");
    println!("{json}");

    // Acceptance floor: with --gate-factored, at least two flat-feasible
    // workloads must reach the scale's speedup threshold (10x at full
    // measurement scale, 2x at CI-smoke scale, where margins are tighter).
    let threshold = if full { 10.0 } else { 2.0 };
    let winners = rows
        .iter()
        .filter(|r| r.speedup().is_some_and(|s| s >= threshold))
        .count();
    let walls = rows.iter().filter(|r| !r.flat_feasible).count();
    eprintln!(
        "acceptance: {winners}/{} workloads at >= {threshold}x flat->factored speedup, \
         {walls} past-the-wall workloads solved exactly (threads={threads}, cores={cores})",
        rows.len()
    );
    if gate && winners < 2 {
        eprintln!("FAIL: fewer than two workloads reached the {threshold}x factored floor");
        std::process::exit(1);
    }
}
