//! `bench factor`: flat vs. factored output spaces — the chase independence
//! analysis + per-component product space against the flat single-chase
//! enumerator.
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
//!   the fastest of 2 runs, as one run takes about 20 s at full scale;
//! * `factored_ms` — `Pipeline::solve_factored`: independence analysis,
//!   one chase + stable-model pass per component, product arithmetic;
//! * `mc_ms` — `Pipeline::estimate_atoms`: a fixed-seed factor-aware
//!   Monte-Carlo estimate of the workload's probe atom, whose walks cover
//!   only the atom's factor. Before it is timed the estimate must lie within
//!   4σ of the atom's exact brave probability, with no walk abandoned.
//!
//! `factored_ms` and `mc_ms` are the median of 5 runs, each with its
//! interquartile range (`factored_iqr_ms`, `mc_iqr_ms`), so a row's spread
//! shows next to it.
//!
//! Before anything is timed the two paths must agree **exactly** wherever
//! both run: total mass accounting, joint outcome counts, the mass-sorted
//! top-event listing (the factored top events are the flat listing's
//! prefix, equal-mass ties at the cut included, exact `Rational` masses
//! included, and each listed mass is also the factored point lookup's)
//! and brave/cautious probabilities of probe atoms. Past-the-wall
//! workloads instead assert the factored solve is exact (`explored = 1`,
//! `residual = 0`, untruncated) where the flat path could only truncate. The JSON carries an
//! event-listing fingerprint computed from the factored top events so CI can
//! diff it across its `GDLOG_THREADS` matrix legs *and* against the flat
//! listing.
//!
//! Workload scales live in one table, `workloads::factor_workload_suite`,
//! so the CI smoke scale and the full measurement scale cannot drift.
//!
//! Floor: at least two flat-feasible workloads reach the scale's speedup
//! threshold — 10× at full scale, 2× at smoke scale, where margins are
//! tighter.

use crate::harness::{int, num, time_median_iqr_ms, time_min_ms, two_reach, Config, Outcome};
use crate::workloads::{factor_workload_suite, FactorWorkload};
use gdlog_core::api::Json;
use gdlog_core::fingerprint::fnv1a_fingerprint;
use gdlog_core::{CancelToken, McParams, ModelSetKey, Pipeline, SampleStats};
use gdlog_prob::Prob;

/// Events hashed into the fingerprint and compared flat-vs-factored.
const PROBE_EVENTS: usize = 512;

/// Walks behind each probe atom's Monte-Carlo estimate.
const MC_SAMPLES: usize = 1000;

/// The fixed seed of the probe estimate, so `mc_ms` times the same walks on
/// every run.
const MC_SEED: u64 = 7;

/// Runs behind the `flat_ms` minimum.
const FLAT_RUNS: usize = 2;

/// Runs behind the `factored_ms` and `mc_ms` medians.
const TIMED_RUNS: usize = 5;

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
    factored_iqr_ms: f64,
    mc_ms: f64,
    mc_iqr_ms: f64,
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

/// Fingerprint of the mass-sorted top-event listing (shared FNV-1a scheme) —
/// CI compares these across `GDLOG_THREADS` legs, and `measure` asserts the
/// flat listing hashes to the same value wherever the flat path runs.
fn fingerprint(events: &[(ModelSetKey, Prob)], combined_outcomes: u128) -> String {
    fnv1a_fingerprint(
        events
            .iter()
            .map(|(key, mass)| format!("{key}@{mass};"))
            .chain(std::iter::once(format!("outcomes={combined_outcomes};"))),
    )
}

fn measure(w: &FactorWorkload, threads: usize) -> Row {
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
    let top = solve
        .events_by_mass_top(PROBE_EVENTS)
        .expect("factored top events are listed, not refused");

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
        let flat_top = &flat_events[..PROBE_EVENTS.min(flat_events.len())];
        assert_eq!(
            top, flat_top,
            "{}: the factored top events are not the flat listing's prefix",
            w.name
        );
        for (key, mass) in &top {
            assert_eq!(
                &solve.event_probability(key),
                mass,
                "{}: a listed event has another factored point mass",
                w.name
            );
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
        Some(time_min_ms(FLAT_RUNS, || {
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

    let (factored_ms, factored_iqr_ms) = time_median_iqr_ms(TIMED_RUNS, || {
        pipeline
            .solve_factored()
            .expect("factored solve succeeds")
            .factor_count()
    });

    let estimate = || -> SampleStats {
        let params = McParams::new().with_seed(MC_SEED);
        let atom = std::slice::from_ref(&w.mc_atom);
        let never = CancelToken::never();
        let mut stats = pipeline
            .estimate_atoms(&solve, atom, MC_SAMPLES, params, &never)
            .expect("factor-aware estimate succeeds");
        stats.pop().expect("one atom, one estimate")
    };
    let stats = estimate();
    let exact = solve.brave_probability(&w.mc_atom).to_f64();
    assert!(
        exact > 0.0 && exact < 1.0,
        "{}: probe atom {} is not uncertain",
        w.name,
        w.mc_atom
    );
    assert_eq!(stats.abandoned, 0, "{}: abandoned walks", w.name);
    assert!(
        stats.estimate.consistent_with(exact, 4.0),
        "{}: estimate {:?} of {} is not within 4σ of {exact}",
        w.name,
        stats.estimate,
        w.mc_atom
    );
    let (mc_ms, mc_iqr_ms) = time_median_iqr_ms(TIMED_RUNS, || estimate().samples);

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
        factored_iqr_ms,
        mc_ms,
        mc_iqr_ms,
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

/// Run the suite.
pub fn run(config: &Config) -> Outcome {
    let rows: Vec<Row> = factor_workload_suite(config.full)
        .iter()
        .map(|w| measure(w, config.threads))
        .collect();

    let (best, best_speedup) = rows
        .iter()
        .filter_map(|r| Some((r, r.speedup()?)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("the suite has flat-feasible workloads");
    let optional = |ms: Option<f64>| ms.map_or(Json::Null, num);
    let fields = vec![
        ("best_workload", Json::str(&best.name)),
        ("best_speedup", num(best_speedup)),
        (
            "workloads",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("name", Json::str(&r.name)),
                            ("factors", int(r.factors)),
                            ("flat_feasible", Json::Bool(r.flat_feasible)),
                            ("combined_outcomes", int(r.combined_outcomes)),
                            ("stored_outcomes", int(r.stored_outcomes)),
                            ("outcomes_avoided", int(r.outcomes_avoided())),
                            ("combined_events", int(r.combined_events)),
                            ("fingerprint", Json::str(&r.fingerprint)),
                            ("flat_ms", optional(r.flat_ms)),
                            ("factored_ms", num(r.factored_ms)),
                            ("factored_iqr_ms", num(r.factored_iqr_ms)),
                            ("mc_ms", num(r.mc_ms)),
                            ("mc_iqr_ms", num(r.mc_iqr_ms)),
                            ("speedup", optional(r.speedup())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    Outcome {
        fields,
        floor: floor(&rows, config.full),
    }
}

/// At least two flat-feasible workloads at the scale's speedup threshold:
/// 10x at full scale, 2x at smoke scale.
fn floor(rows: &[Row], full: bool) -> Result<(), String> {
    let threshold = if full { 10.0 } else { 2.0 };
    two_reach(
        rows.iter().filter_map(Row::speedup),
        threshold,
        "flat->factored speedup",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(speedup: Option<f64>) -> Row {
        Row {
            name: String::new(),
            factors: 2,
            flat_feasible: speedup.is_some(),
            combined_outcomes: 4,
            stored_outcomes: 4,
            combined_events: 4,
            fingerprint: String::new(),
            flat_ms: speedup,
            factored_ms: 1.0,
            factored_iqr_ms: 0.0,
            mc_ms: 1.0,
            mc_iqr_ms: 0.0,
        }
    }

    #[test]
    fn floor_needs_two_workloads_at_10x_full_or_2x_small() {
        let full = [row(Some(10.0)), row(Some(10.0)), row(None)];
        assert!(floor(&full, true).is_ok());
        let short = [row(Some(10.0)), row(Some(9.999)), row(None)];
        assert!(floor(&short, true).is_err());
        assert!(floor(&short, false).is_ok());
        let small = [row(Some(2.0)), row(Some(1.999)), row(None)];
        assert!(floor(&small, false).is_err());
        assert!(floor(&[row(Some(2.0)), row(Some(2.0))], false).is_ok());
    }
}
