//! `bench grounding`: naive vs. semi-naive grounding.
//!
//! CI tracks the grounding perf trajectory through this suite: it times both
//! saturation strategies on the scaled network workloads and writes a
//! `BENCH_grounding.json` summary. Floor: semi-naive is no slower than naive
//! on the largest workload (the one with the most ground rules).

use crate::harness::{int, num, time_min_ms, Config, Outcome};
use crate::workloads::{cascade_choice_set, grounding_network_suite, network_program};
use gdlog_core::api::Json;
use gdlog_core::{AtrSet, Grounder, SigmaPi, SimpleGrounder};
use std::sync::Arc;

struct Row {
    name: String,
    db_atoms: usize,
    choices: usize,
    ground_rules: usize,
    naive_ms: f64,
    seminaive_ms: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.naive_ms / self.seminaive_ms
    }
}

/// Run the suite.
pub fn run(config: &Config) -> Outcome {
    let reps = if config.full { 5 } else { 3 };
    let mut rows: Vec<Row> = Vec::new();
    for (name, db) in grounding_network_suite(config.full) {
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

    let largest = largest(&rows);
    let fields = vec![
        ("largest_workload", Json::str(&largest.name)),
        ("largest_workload_speedup", num(largest.speedup())),
        (
            "workloads",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("name", Json::str(&r.name)),
                            ("db_atoms", int(r.db_atoms)),
                            ("choices", int(r.choices)),
                            ("ground_rules", int(r.ground_rules)),
                            ("naive_ms", num(r.naive_ms)),
                            ("seminaive_ms", num(r.seminaive_ms)),
                            ("speedup", num(r.speedup())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    Outcome {
        fields,
        floor: floor(&rows),
    }
}

/// The workload with the most ground rules (the "largest network workload").
fn largest(rows: &[Row]) -> &Row {
    rows.iter()
        .max_by_key(|r| r.ground_rules)
        .expect("suite is non-empty")
}

/// Semi-naive at least as fast as naive on the largest workload.
fn floor(rows: &[Row]) -> Result<(), String> {
    let largest = largest(rows);
    if largest.speedup() >= 1.0 {
        Ok(())
    } else {
        Err(format!(
            "semi-naive slower than naive on the largest workload {} ({:.2}x)",
            largest.name,
            largest.speedup()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(ground_rules: usize, naive_ms: f64) -> Row {
        Row {
            name: format!("w{ground_rules}"),
            db_atoms: 0,
            choices: 0,
            ground_rules,
            naive_ms,
            seminaive_ms: 1.0,
        }
    }

    #[test]
    fn floor_reads_the_largest_workload_at_1x() {
        assert!(floor(&[row(10, 0.5), row(20, 1.0)]).is_ok());
        assert!(floor(&[row(10, 5.0), row(20, 0.999)]).is_err());
        assert!(floor(&[row(30, 1.5), row(20, 0.1)]).is_ok());
    }
}
