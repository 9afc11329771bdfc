//! Stable-model back-end benchmark with a JSON summary: the seed `2^k`
//! enumerator vs. the component-split propagating search, plus the parallel
//! `OutputSpace::from_chase` path.
//!
//! PR 5 rebuilt the back-end that turns explored chase outcomes into the
//! paper's output probability space (Definition 3.8). This tracker measures
//! every lever against the same outcome-space workloads:
//!
//! * `naive_ms` — the seed back-end: for every outcome, enumerate
//!   `sms(Σ ∪ G(Σ))` with the retained naive `2^k` sweep
//!   ([`gdlog_engine::naive_stable_models`]), then build and sort the event
//!   partition;
//! * `scc_ms` — sequential [`OutputSpace::from_chase_with`]: component-split
//!   propagating search, no cache;
//! * `par_ms` — the same with one task per outcome on a work-stealing pool
//!   (`--threads` workers).
//!
//! Before anything is timed the three semantic paths must agree **exactly**:
//! per-outcome event keys and the mass-sorted event listing are compared
//! between naive, sequential SCC and parallel, and a
//! `GDLOG_THREADS`-style sweep asserts `events_by_mass` is bit-identical at
//! 1, 2 and 8 threads. The JSON carries an event-listing fingerprint so CI
//! can diff runs across its thread matrix.
//!
//! Workload scales live in one table, `workloads::stable_workload_suite`, so
//! the CI smoke scale and the full measurement scale cannot drift.
//!
//! Usage: `bench_stable [--full] [--threads N] [--out PATH]` (defaults:
//! small scale, `GDLOG_THREADS` or 4 threads for the parallel column,
//! `BENCH_stable.json` in the current directory). At full scale the run
//! exits non-zero unless at least two workloads reach a 2× naive→SCC
//! speedup — the PR's acceptance floor.

use gdlog_bench::workloads::stable_workload_suite;
use gdlog_core::{
    enumerate_outcomes, ChaseBudget, ChaseResult, Executor, ModelSetKey, OutputSpace, TriggerOrder,
    THREADS_ENV,
};
use gdlog_engine::{naive_stable_models, StableModelLimits};
use gdlog_prob::{EventPartition, Prob};
use std::time::Instant;

struct Row {
    name: String,
    outcomes: usize,
    events: usize,
    fingerprint: String,
    naive_ms: f64,
    scc_ms: f64,
    par_ms: f64,
    sweep_ms: Vec<(usize, f64)>,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.naive_ms / self.scc_ms
    }

    fn par_speedup(&self) -> f64 {
        self.scc_ms / self.par_ms
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

/// The seed back-end, reproduced end to end: naive per-outcome stable-model
/// enumeration, event partition, mass-sorted listing.
fn naive_events(chase: &ChaseResult, limits: &StableModelLimits) -> Vec<(ModelSetKey, Prob)> {
    let keyed: Vec<(ModelSetKey, Prob)> = chase
        .outcomes
        .iter()
        .map(|o| {
            let models = naive_stable_models(&o.full_program(), limits)
                .expect("naive search stays in limits");
            (ModelSetKey::from_models(&models), o.probability)
        })
        .collect();
    let partition = EventPartition::from_weighted_keys(keyed, chase.residual_mass);
    let mut events: Vec<(ModelSetKey, Prob)> =
        partition.iter().map(|(k, m)| (k.clone(), m.mass)).collect();
    events.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    events
}

/// Fingerprint of the mass-sorted event listing (shared FNV-1a scheme) — CI
/// compares these across `GDLOG_THREADS` legs.
fn fingerprint(events: &[(ModelSetKey, Prob)], outcomes: usize) -> String {
    gdlog_bench::fnv1a_fingerprint(
        events
            .iter()
            .map(|(key, mass)| format!("{key}@{mass};"))
            .chain(std::iter::once(format!("outcomes={outcomes};"))),
    )
}

fn measure(
    name: &str,
    grounder: &dyn gdlog_core::Grounder,
    reps: usize,
    executor: &Executor,
) -> Row {
    let limits = StableModelLimits::default();
    let chase = enumerate_outcomes(grounder, &ChaseBudget::default(), TriggerOrder::First)
        .expect("chase enumeration succeeds");

    // Semantic three-way agreement before anything is timed: naive keys,
    // sequential SCC keys and the parallel keys must be identical
    // per outcome, and so must the mass-sorted event listings.
    let naive = naive_events(&chase, &limits);
    let sequential =
        OutputSpace::from_chase_with(chase.clone(), &limits, &Executor::sequential(), None)
            .expect("sequential from_chase succeeds");
    assert_eq!(
        naive,
        sequential.events_by_mass(),
        "{name}: SCC search changed the event listing"
    );
    for ((outcome, key), reference) in sequential.outcomes().iter().zip(&chase.outcomes) {
        let models = naive_stable_models(&reference.full_program(), &limits).unwrap();
        assert_eq!(
            key,
            &ModelSetKey::from_models(&models),
            "{name}: SCC search changed the key of {outcome}"
        );
    }
    let parallel = OutputSpace::from_chase_with(chase.clone(), &limits, executor, None)
        .expect("parallel from_chase succeeds");
    assert_eq!(
        sequential.events_by_mass(),
        parallel.events_by_mass(),
        "{name}: parallel from_chase changed the event listing"
    );

    // Thread sweep: bit-identical events at 1, 2 and 8 threads.
    let mut sweep_ms = Vec::new();
    for threads in [1usize, 2, 8] {
        let exec = Executor::new(threads);
        let space = OutputSpace::from_chase_with(chase.clone(), &limits, &exec, None)
            .expect("sweep from_chase succeeds");
        assert_eq!(
            sequential.events_by_mass(),
            space.events_by_mass(),
            "{name}: events diverged at {threads} threads"
        );
        let ms = time_min_ms(reps, || {
            OutputSpace::from_chase_with(chase.clone(), &limits, &exec, None)
                .unwrap()
                .event_count()
        });
        sweep_ms.push((threads, ms));
    }

    let naive_ms = time_min_ms(reps, || naive_events(&chase, &limits).len());
    let scc_ms = time_min_ms(reps, || {
        OutputSpace::from_chase_with(chase.clone(), &limits, &Executor::sequential(), None)
            .unwrap()
            .event_count()
    });
    let par_ms = time_min_ms(reps, || {
        OutputSpace::from_chase_with(chase.clone(), &limits, executor, None)
            .unwrap()
            .event_count()
    });

    let events = sequential.events_by_mass();
    let row = Row {
        name: name.to_owned(),
        outcomes: chase.outcomes.len(),
        events: events.len(),
        fingerprint: fingerprint(events, chase.outcomes.len()),
        naive_ms,
        scc_ms,
        par_ms,
        sweep_ms,
    };
    eprintln!(
        "{name}: outcomes={} events={} naive {naive_ms:.2}ms -> scc {scc_ms:.2}ms ({:.2}x) -> \
         par {par_ms:.2}ms ({:.2}x)",
        row.outcomes,
        row.events,
        row.speedup(),
        row.par_speedup(),
    );
    row
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_stable.json".to_owned());
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
    let reps = if full { 3 } else { 2 };
    let executor = Executor::new(threads);
    let threads = executor.threads();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let rows: Vec<Row> = stable_workload_suite(full)
        .iter()
        .map(|w| measure(&w.name, w.grounder.as_ref(), reps, &executor))
        .collect();

    let best = rows
        .iter()
        .max_by(|a, b| a.speedup().total_cmp(&b.speedup()))
        .expect("the suite is non-empty");

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"stable_backend\",\n");
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
        best.speedup(),
    ));
    json.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sweep = r
            .sweep_ms
            .iter()
            .map(|(t, ms)| format!("{{\"threads\": {t}, \"ms\": {ms:.3}}}"))
            .collect::<Vec<_>>()
            .join(", ");
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"outcomes\": {}, \"events\": {}, \
             \"fingerprint\": \"{}\", \
             \"naive_ms\": {:.3}, \"scc_ms\": {:.3}, \"speedup\": {:.3}, \
             \"par_ms\": {:.3}, \"par_speedup\": {:.3}, \
             \"thread_sweep\": [{sweep}]}}{}\n",
            r.name,
            r.outcomes,
            r.events,
            r.fingerprint,
            r.naive_ms,
            r.scc_ms,
            r.speedup(),
            r.par_ms,
            r.par_speedup(),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write summary");
    eprintln!("wrote {out_path}");
    println!("{json}");

    // Acceptance floor: at full scale, the SCC back-end must beat the seed
    // back-end by >= 2x on at least two workloads. The small (CI smoke)
    // scale reports without gating — its margins sit inside scheduler noise
    // on shared runners.
    let winners = rows.iter().filter(|r| r.speedup() >= 2.0).count();
    eprintln!(
        "acceptance: {winners}/{} workloads at >= 2x naive->scc speedup \
         (threads={threads}, cores={cores})",
        rows.len()
    );
    if full && winners < 2 {
        eprintln!("FAIL: fewer than two workloads reached the 2x acceptance floor");
        std::process::exit(1);
    }
}
