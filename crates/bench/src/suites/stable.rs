//! `bench stable`: the seed `2^k` enumerator vs. the component-split
//! propagating search behind `OutputSpace::from_chase`.
//!
//! The stable-model back-end turns explored chase outcomes into the paper's
//! output probability space (Definition 3.8). This tracker measures that
//! lever against the same outcome-space workloads:
//!
//! * `naive_ms` — the seed back-end: for every outcome, enumerate
//!   `sms(Σ ∪ G(Σ))` with the retained naive `2^k` sweep
//!   ([`gdlog_engine::naive_stable_models`]), then build and sort the event
//!   partition;
//! * `scc_ms` — [`OutputSpace::from_chase`]: component-split propagating
//!   search, no cache. On the perfect-grounder row (dimes and quarters)
//!   the grounder decided every outcome's model, so `from_chase` keys the
//!   outcomes from their heads and searches nothing.
//!
//! Before anything is timed the two paths must agree **exactly**: per-outcome
//! event keys and the mass-sorted event listing are compared between naive
//! and SCC, which cross-checks the heads keys against the naive enumerator
//! too. The JSON carries the space's [`OutputSpace::fingerprint`] so CI
//! can diff runs across its thread matrix.
//!
//! Workload scales live in one table, `workloads::stable_workload_suite`, so
//! the CI smoke scale and the full measurement scale cannot drift.
//!
//! Floor: at full scale, at least two workloads reach a 2× naive→SCC
//! speedup. The small (CI smoke) scale is not gated — its margins sit
//! inside scheduler noise on shared runners.

use crate::harness::{int, num, time_min_ms, two_reach, Config, Outcome};
use crate::workloads::stable_workload_suite;
use gdlog_core::api::Json;
use gdlog_core::{
    enumerate_outcomes, ChaseBudget, ChaseResult, Grounder, ModelSetKey, OutputSpace, TriggerOrder,
};
use gdlog_engine::{naive_stable_models, StableModelLimits};
use gdlog_prob::Prob;
use std::collections::HashMap;

struct Row {
    name: String,
    outcomes: usize,
    events: usize,
    fingerprint: String,
    naive_ms: f64,
    scc_ms: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.naive_ms / self.scc_ms
    }
}

/// The seed back-end, reproduced end to end: naive per-outcome stable-model
/// enumeration, event partition, mass-sorted listing.
fn naive_events(chase: &ChaseResult, limits: &StableModelLimits) -> Vec<(ModelSetKey, Prob)> {
    let mut partition: HashMap<ModelSetKey, Prob> = HashMap::new();
    for o in &chase.outcomes {
        let models =
            naive_stable_models(&o.full_program(), limits).expect("naive search stays in limits");
        let mass = partition
            .entry(ModelSetKey::from_models(&models))
            .or_insert(Prob::ZERO);
        *mass = mass.add(&o.probability);
    }
    let mut events: Vec<(ModelSetKey, Prob)> = partition.into_iter().collect();
    events.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    events
}

fn measure(name: &str, grounder: &dyn Grounder, reps: usize) -> Row {
    let limits = StableModelLimits::default();
    let chase = enumerate_outcomes(grounder, &ChaseBudget::default(), TriggerOrder::First)
        .expect("chase enumeration succeeds");

    // Semantic agreement before anything is timed: naive keys and SCC keys
    // must be identical per outcome, and so must the mass-sorted event
    // listings.
    let naive = naive_events(&chase, &limits);
    let space = OutputSpace::from_chase(&chase, &limits).expect("from_chase succeeds");
    assert_eq!(
        naive,
        space.events_by_mass(),
        "{name}: SCC search changed the event listing"
    );
    for ((outcome, key), reference) in space.outcomes().iter().zip(&chase.outcomes) {
        let models = naive_stable_models(&reference.full_program(), &limits).unwrap();
        assert_eq!(
            key,
            &ModelSetKey::from_models(&models),
            "{name}: SCC search changed the key of {outcome}"
        );
    }

    let naive_ms = time_min_ms(reps, || naive_events(&chase, &limits).len());
    let scc_ms = time_min_ms(reps, || {
        OutputSpace::from_chase(&chase, &limits)
            .unwrap()
            .event_count()
    });

    let row = Row {
        name: name.to_owned(),
        outcomes: chase.outcomes.len(),
        events: space.event_count(),
        fingerprint: space.fingerprint(),
        naive_ms,
        scc_ms,
    };
    eprintln!(
        "{name}: outcomes={} events={} naive {naive_ms:.2}ms -> scc {scc_ms:.2}ms ({:.2}x)",
        row.outcomes,
        row.events,
        row.speedup(),
    );
    row
}

/// Run the suite.
pub fn run(config: &Config) -> Outcome {
    let reps = if config.full { 3 } else { 2 };
    let rows: Vec<Row> = stable_workload_suite(config.full)
        .iter()
        .map(|w| measure(&w.name, w.grounder.as_ref(), reps))
        .collect();

    let best = rows
        .iter()
        .max_by(|a, b| a.speedup().total_cmp(&b.speedup()))
        .expect("the suite is non-empty");
    let fields = vec![
        ("best_workload", Json::str(&best.name)),
        ("best_speedup", num(best.speedup())),
        (
            "workloads",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("name", Json::str(&r.name)),
                            ("outcomes", int(r.outcomes)),
                            ("events", int(r.events)),
                            ("fingerprint", Json::str(&r.fingerprint)),
                            ("naive_ms", num(r.naive_ms)),
                            ("scc_ms", num(r.scc_ms)),
                            ("speedup", num(r.speedup())),
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

/// At full scale, at least two workloads at a 2x naive→SCC speedup.
fn floor(rows: &[Row], full: bool) -> Result<(), String> {
    if !full {
        return Ok(());
    }
    two_reach(rows.iter().map(Row::speedup), 2.0, "naive->scc speedup")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(naive_ms: f64) -> Row {
        Row {
            name: String::new(),
            outcomes: 0,
            events: 0,
            fingerprint: String::new(),
            naive_ms,
            scc_ms: 1.0,
        }
    }

    #[test]
    fn floor_needs_two_workloads_at_2x_at_full_scale() {
        assert!(floor(&[row(2.0), row(2.0), row(0.5)], true).is_ok());
        assert!(floor(&[row(2.0), row(1.999), row(9.0)], true).is_ok());
        assert!(floor(&[row(2.0), row(1.999), row(0.5)], true).is_err());
        assert!(floor(&[row(1.0), row(1.0)], false).is_ok());
    }
}
