//! `bench serve`: warm vs. cold queries against the resident server.
//!
//! The premise of `gdlog serve` is that keeping compiled programs
//! **warm** amortizes parse → validate → translate → ground → solve across
//! queries: a cold query pays the whole pipeline, a warm query answers from
//! the solver's solve-entry cache. This tracker measures exactly that, over
//! the real wire protocol (an in-process server on an ephemeral loopback
//! port, queried through [`gdlog_server::ServeClient`]):
//!
//! * **cold** — per iteration: `RESET` (drops the compiled-program cache),
//!   `OPEN` (recompile), `QUERY` (solve + render). This is what a one-shot
//!   `gdlog run --json` process pays, minus process startup.
//! * **warm** — `OPEN` once, one priming query, then timed `QUERY`s served
//!   from the warm solver.
//!
//! Before anything is timed, the warm response is asserted byte-identical
//! to the cold one — the speedup must not come from answering differently.
//! Workloads are real corpus scenarios queried with their own `%! args:`
//! directives (`coin_farm` runs `--factored`, exercising the product-space
//! path end to end).
//!
//! A **fault leg** follows the healthy measurements: the same warm workload
//! against a server with `netline`'s chaos layer armed — half the
//! connections stall mid-frame and occasionally drop responses outright —
//! queried through a retry-armed client. Every response must still be
//! byte-identical to the healthy one (corruption costs latency, never
//! correctness), and the recorded p50/p99 put a number on that latency
//! cost in `BENCH_serve.json`.
//!
//! Floor: at least two workloads reach a 5× warm-over-cold throughput
//! (warm should buy orders of magnitude; 5× is robust to noisy CI
//! runners).

use crate::harness::{elapsed_ms, int, num, percentile, two_reach, Config, Outcome};
use gdlog_core::api::Json;
use gdlog_server::{RetryPolicy, ServeClient, ServeConfig};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Corpus scenarios replayed as server workloads.
const WORKLOADS: &[&str] = &["network_resilience", "game_chain", "coin_farm"];

const COLD_ITERS: usize = 5;
const WARM_ITERS: usize = 200;

/// The fault leg's chaos spec: **every** connection (reconnects included —
/// there is no healthy connection to escape to) stalls each response
/// mid-frame for 2ms and drops one response in eight, which kills that
/// connection — the retry-armed client reconnects, replays its `OPEN`s and
/// retries the query.
const FAULT_SPEC: &str = "every=1,seed=7,stall=2,drop=8";
const FAULT_WORKLOAD: &str = "network_resilience";
const FAULT_ITERS: usize = 120;

struct Row {
    name: String,
    args: Vec<String>,
    cold_ms: Vec<f64>,
    warm_ms: Vec<f64>,
}

impl Row {
    fn warm_over_cold(&self) -> f64 {
        qps(&self.cold_ms).map_or(0.0, |cold| {
            qps(&self.warm_ms).map_or(0.0, |warm| warm / cold)
        })
    }
}

fn qps(latencies_ms: &[f64]) -> Option<f64> {
    let total: f64 = latencies_ms.iter().sum();
    (total > 0.0).then(|| latencies_ms.len() as f64 / (total / 1e3))
}

/// A corpus scenario's label, source and `%! args:` directives.
fn scenario(name: &str) -> (String, String, Vec<String>) {
    // crates/bench/ -> repo root.
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../scenarios/{name}.gdl"));
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let args = source
        .lines()
        .filter_map(|l| l.trim().strip_prefix("%!"))
        .filter_map(|rest| rest.trim().strip_prefix("args:"))
        .flat_map(|args| args.split_whitespace().map(str::to_owned))
        .collect();
    (format!("scenarios/{name}.gdl"), source, args)
}

fn measure(client: &mut ServeClient, name: &str) -> Row {
    let (label, source, args) = scenario(name);
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();

    // Cold path: drop every compiled program, recompile, solve.
    let mut cold_ms = Vec::with_capacity(COLD_ITERS);
    let mut cold_response = String::new();
    for _ in 0..COLD_ITERS {
        client.reset().expect("RESET");
        let start = Instant::now();
        client.open(&label, &source).expect("OPEN");
        cold_response = client.query(&label, &argv).expect("cold QUERY");
        cold_ms.push(elapsed_ms(start));
    }

    // Warm path: the session stays open; prime once, then measure.
    let primed = client.query(&label, &argv).expect("priming QUERY");
    assert_eq!(
        primed, cold_response,
        "{name}: warm response must be byte-identical to cold"
    );
    let mut warm_ms = Vec::with_capacity(WARM_ITERS);
    for _ in 0..WARM_ITERS {
        let start = Instant::now();
        let response = client.query(&label, &argv).expect("warm QUERY");
        warm_ms.push(elapsed_ms(start));
        debug_assert_eq!(response, cold_response);
    }

    let row = Row {
        name: name.to_owned(),
        args,
        cold_ms,
        warm_ms,
    };
    eprintln!(
        "{name}: cold p50 {:.2}ms ({:.1} qps) -> warm p50 {:.3}ms ({:.0} qps), {:.1}x",
        percentile(&row.cold_ms, 50.0),
        qps(&row.cold_ms).unwrap_or(0.0),
        percentile(&row.warm_ms, 50.0),
        qps(&row.warm_ms).unwrap_or(0.0),
        row.warm_over_cold(),
    );
    row
}

/// Warm latencies for one workload against a chaos-armed server, through a
/// retry-armed client. Asserts every response byte-identical to `expected`
/// (taken from the healthy server) — the fault leg measures the latency
/// cost of faults, never a correctness discount.
fn measure_under_fault(
    config: &ServeConfig,
    label: &str,
    source: &str,
    argv: &[&str],
    expected: &str,
) -> Vec<f64> {
    // Chaos arms via the environment, read once at server startup; set it
    // only around this `start` so nothing else inherits it.
    std::env::set_var(netline::chaos::CHAOS_ENV, FAULT_SPEC);
    let started = gdlog_server::start(config);
    std::env::remove_var(netline::chaos::CHAOS_ENV);
    let mut server = started.expect("bind chaos server");

    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    client
        .set_io_timeout(Some(Duration::from_secs(30)))
        .expect("io timeout");
    client.set_retry_policy(Some(RetryPolicy {
        attempts: 10,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(20),
        seed: 5,
    }));
    client.open(label, source).expect("OPEN under fault");
    let primed = client
        .query(label, argv)
        .expect("priming QUERY under fault");
    assert_eq!(
        primed, expected,
        "{label}: fault-leg response must be byte-identical to healthy"
    );
    let mut fault_ms = Vec::with_capacity(FAULT_ITERS);
    for _ in 0..FAULT_ITERS {
        let start = Instant::now();
        let response = client.query(label, argv).expect("QUERY under fault");
        fault_ms.push(elapsed_ms(start));
        assert_eq!(
            response, expected,
            "fault corruption leaked into a response"
        );
    }
    drop(client);
    server.stop();
    fault_ms
}

/// Run the suite.
pub fn run(config: &Config) -> Outcome {
    let serve_config = ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: Some(config.threads),
        ..ServeConfig::default()
    };
    let mut server = gdlog_server::start(&serve_config).expect("bind ephemeral server");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    let rows: Vec<Row> = WORKLOADS.iter().map(|w| measure(&mut client, w)).collect();

    // Tail latency under injected transport faults, against the healthy
    // response as the byte-identity reference.
    let fault_ms = {
        let (label, source, args) = scenario(FAULT_WORKLOAD);
        let argv: Vec<&str> = args.iter().map(String::as_str).collect();
        let expected = client
            .query(&label, &argv)
            .expect("healthy reference QUERY");
        measure_under_fault(&serve_config, &label, &source, &argv, &expected)
    };
    drop(client);
    server.stop();
    eprintln!(
        "{FAULT_WORKLOAD} under {FAULT_SPEC}: warm p50 {:.3}ms, p99 {:.3}ms ({:.0} qps)",
        percentile(&fault_ms, 50.0),
        percentile(&fault_ms, 99.0),
        qps(&fault_ms).unwrap_or(0.0),
    );

    let workloads = rows
        .iter()
        .map(|r| {
            Json::obj([
                ("name", Json::str(&r.name)),
                ("args", Json::str(r.args.join(" "))),
                ("cold_ms_p50", num(percentile(&r.cold_ms, 50.0))),
                ("cold_ms_p99", num(percentile(&r.cold_ms, 99.0))),
                ("cold_qps", num(qps(&r.cold_ms).unwrap_or(0.0))),
                ("warm_ms_p50", num(percentile(&r.warm_ms, 50.0))),
                ("warm_ms_p99", num(percentile(&r.warm_ms, 99.0))),
                ("warm_qps", num(qps(&r.warm_ms).unwrap_or(0.0))),
                ("warm_over_cold", num(r.warm_over_cold())),
            ])
        })
        .collect();
    let fault_leg = Json::obj([
        ("workload", Json::str(FAULT_WORKLOAD)),
        ("chaos", Json::str(FAULT_SPEC)),
        ("iters", int(FAULT_ITERS)),
        ("warm_ms_p50", num(percentile(&fault_ms, 50.0))),
        ("warm_ms_p99", num(percentile(&fault_ms, 99.0))),
        ("warm_qps", num(qps(&fault_ms).unwrap_or(0.0))),
    ]);
    let fields = vec![
        ("cold_iters", int(COLD_ITERS)),
        ("warm_iters", int(WARM_ITERS)),
        ("workloads", Json::Arr(workloads)),
        ("fault_leg", fault_leg),
    ];
    Outcome {
        fields,
        floor: floor(&rows),
    }
}

/// At least two workloads at a 5x warm-over-cold throughput.
fn floor(rows: &[Row]) -> Result<(), String> {
    two_reach(
        rows.iter().map(Row::warm_over_cold),
        5.0,
        "warm-over-cold throughput",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One cold query of 1ms against warm queries of `1 / ratio` ms.
    fn row(ratio: f64) -> Row {
        Row {
            name: String::new(),
            args: Vec::new(),
            cold_ms: vec![1.0],
            warm_ms: vec![1.0 / ratio],
        }
    }

    #[test]
    fn floor_needs_two_workloads_at_5x() {
        assert!(floor(&[row(5.0), row(5.0), row(1.0)]).is_ok());
        assert!(floor(&[row(5.0), row(4.99), row(1.0)]).is_err());
        assert!(floor(&[row(40.0), row(4.99), row(8.0)]).is_ok());
    }
}
