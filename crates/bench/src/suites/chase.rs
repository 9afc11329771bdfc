//! `bench chase`: naive-reground vs. incremental chase, plus sequential
//! vs. parallel Monte-Carlo.
//!
//! The chase is incremental: snapshot-shared groundings plus the perfect
//! grounder's stratum cursor. This tracker measures that lever against
//! the same workloads:
//!
//! * `reground_ms` — every chase node regrounds from scratch (the same
//!   grounder with its `ground_node`/`ground_from` overrides stripped);
//! * `incremental_ms` — the snapshot-shared descent.
//!
//! The Monte-Carlo columns time the same three ways of drawing walks:
//! `mc_reground_ms`, `mc_incremental_ms`, and `mc_par_ms`, the incremental
//! walks fanned out in chunks to `--threads` workers.
//!
//! Before anything is timed the two chase modes must agree **exactly** —
//! same outcome list (order included), probabilities, residual mass and
//! visited node count — and the Monte-Carlo estimates must be bit-identical
//! between reground, sequential and parallel (per-walk RNG streams derive
//! from the root seed). The JSON carries a fingerprint of the outcome sets
//! so CI can diff runs across a `GDLOG_THREADS` matrix.
//!
//! Workload scales live in one table, `workloads::chase_workload_suite`, so
//! the CI smoke scale and the full measurement scale cannot drift.
//!
//! Floor, on the best stratified workload: at full scale the incremental
//! chase is no slower than regrounding (the ~2x margin at small scale is
//! within scheduling noise on shared runners).

use crate::harness::{int, num, time_min_ms, Config, Outcome};
use crate::workloads::{chase_workload_suite, ChaseWorkload, Reground};
use gdlog_core::api::Json;
use gdlog_core::fingerprint::fnv1a_fingerprint;
use gdlog_core::{
    enumerate_outcomes, ChaseBudget, ChaseResult, Executor, Grounder, MonteCarlo, TriggerOrder,
};

struct Row {
    name: String,
    grounder: &'static str,
    stratified: bool,
    outcomes: usize,
    nodes: usize,
    fingerprint: String,
    reground_ms: f64,
    incremental_ms: f64,
    mc_reground_ms: f64,
    mc_incremental_ms: f64,
    mc_par_ms: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.reground_ms / self.incremental_ms
    }
}

/// Fingerprint of the canonical outcome listing, residual mass and node
/// count — CI compares these across `GDLOG_THREADS` legs.
fn fingerprint(result: &ChaseResult) -> String {
    fnv1a_fingerprint(
        result
            .outcomes
            .iter()
            .map(|outcome| format!("{}@{};", outcome.atr, outcome.probability))
            .chain([
                format!("residual={};", result.residual_mass),
                format!("nodes={};", result.nodes_visited),
            ]),
    )
}

/// Panic unless the two results agree under the shared strict definition
/// (`ChaseResult::diff`): outcome order, choice sets, probabilities,
/// residual mass, truncation and visited nodes.
fn assert_identical(a: &ChaseResult, b: &ChaseResult, name: &str, what: &str) {
    if let Some(diff) = a.diff(b) {
        panic!("{name}: {what} changed the result: {diff}");
    }
}

fn measure(workload: &ChaseWorkload, reps: usize, executor: &Executor) -> Row {
    let (name, grounder) = (workload.name.as_str(), workload.grounder.as_ref());
    let budget = ChaseBudget::default();
    let baseline = Reground(grounder);

    // Both modes must agree on the result before anything is timed. The
    // reground baseline visits the same nodes in the same order, so the
    // strict comparison applies to it.
    let incremental = enumerate_outcomes(grounder, &budget, TriggerOrder::First)
        .expect("incremental enumeration succeeds");
    let reground = enumerate_outcomes(&baseline, &budget, TriggerOrder::First)
        .expect("reground enumeration succeeds");
    assert_identical(&incremental, &reground, name, "regrounding");

    let incremental_ms = time_min_ms(reps, || {
        enumerate_outcomes(grounder, &budget, TriggerOrder::First)
            .unwrap()
            .outcomes
            .len()
    });
    let reground_ms = time_min_ms(reps, || {
        enumerate_outcomes(&baseline, &budget, TriggerOrder::First)
            .unwrap()
            .outcomes
            .len()
    });

    // Monte-Carlo: per-walk RNG streams make the estimates of all three
    // modes bit-identical; assert that before timing them.
    let samples = 100;
    let estimate = |g: &dyn Grounder, exec: Option<&Executor>| {
        let mut mc = MonteCarlo::new(g, 256, 7);
        if let Some(exec) = exec {
            mc = mc.with_executor(exec);
        }
        mc.estimate(samples, |_| true).unwrap()
    };
    let mc_base = estimate(grounder, None);
    assert_eq!(
        mc_base.estimate.mean,
        estimate(&baseline, None).estimate.mean,
        "{name}: reground changed the Monte-Carlo estimate"
    );
    assert_eq!(
        mc_base.estimate.mean,
        estimate(grounder, Some(executor)).estimate.mean,
        "{name}: parallel sampling changed the Monte-Carlo estimate"
    );

    let mc_incremental_ms = time_min_ms(reps, || estimate(grounder, None).samples);
    let mc_reground_ms = time_min_ms(reps, || estimate(&baseline, None).samples);
    let mc_par_ms = time_min_ms(reps, || estimate(grounder, Some(executor)).samples);

    let row = Row {
        name: name.to_owned(),
        grounder: grounder.name(),
        stratified: workload.stratified,
        outcomes: incremental.outcomes.len(),
        nodes: incremental.nodes_visited,
        fingerprint: fingerprint(&incremental),
        reground_ms,
        incremental_ms,
        mc_reground_ms,
        mc_incremental_ms,
        mc_par_ms,
    };
    eprintln!(
        "{name} [{}]: outcomes={} nodes={} enum {reground_ms:.2}ms -> {incremental_ms:.2}ms \
         ({:.2}x)  mc {mc_reground_ms:.2}ms -> {mc_incremental_ms:.2}ms -> par {mc_par_ms:.2}ms",
        row.grounder,
        row.outcomes,
        row.nodes,
        row.speedup(),
    );
    row
}

/// Run the suite.
pub fn run(config: &Config) -> Outcome {
    let reps = if config.full { 5 } else { 3 };
    let executor = Executor::new(config.threads);
    let rows: Vec<Row> = chase_workload_suite(config.full)
        .iter()
        .map(|w| measure(w, reps, &executor))
        .collect();

    let best = best_stratified(&rows);
    let fields = vec![
        ("best_stratified_workload", Json::str(&best.name)),
        ("best_stratified_speedup", num(best.speedup())),
        (
            "workloads",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("name", Json::str(&r.name)),
                            ("grounder", Json::str(r.grounder)),
                            ("stratified", Json::Bool(r.stratified)),
                            ("outcomes", int(r.outcomes)),
                            ("nodes", int(r.nodes)),
                            ("fingerprint", Json::str(&r.fingerprint)),
                            ("reground_ms", num(r.reground_ms)),
                            ("incremental_ms", num(r.incremental_ms)),
                            ("speedup", num(r.speedup())),
                            ("mc_reground_ms", num(r.mc_reground_ms)),
                            ("mc_incremental_ms", num(r.mc_incremental_ms)),
                            ("mc_speedup", num(r.mc_reground_ms / r.mc_incremental_ms)),
                            ("mc_par_ms", num(r.mc_par_ms)),
                            ("mc_par_speedup", num(r.mc_incremental_ms / r.mc_par_ms)),
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

/// The stratified workload with the best incremental speedup: the
/// acceptance metrics live on it.
fn best_stratified(rows: &[Row]) -> &Row {
    rows.iter()
        .filter(|r| r.stratified)
        .max_by(|a, b| a.speedup().total_cmp(&b.speedup()))
        .expect("a stratified workload exists")
}

/// Incremental at least as fast as regrounding at full scale, on the best
/// stratified workload.
fn floor(rows: &[Row], full: bool) -> Result<(), String> {
    let best = best_stratified(rows);
    if full && best.speedup() < 1.0 {
        return Err(format!(
            "incremental chase slower than full reground on {} ({:.2}x)",
            best.name,
            best.speedup()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(stratified: bool, reground_ms: f64) -> Row {
        Row {
            name: String::new(),
            grounder: "perfect",
            stratified,
            outcomes: 0,
            nodes: 0,
            fingerprint: String::new(),
            reground_ms,
            incremental_ms: 1.0,
            mc_reground_ms: 1.0,
            mc_incremental_ms: 1.0,
            mc_par_ms: 1.0,
        }
    }

    #[test]
    fn incremental_floor_applies_at_full_scale_only() {
        let slow = [row(true, 0.999), row(false, 9.0)];
        assert!(floor(&slow, true).is_err());
        assert!(floor(&slow, false).is_ok());
        assert!(floor(&[row(true, 1.0)], true).is_ok());
    }
}
