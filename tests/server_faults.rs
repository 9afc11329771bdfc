//! Fault injection against the resident server: the robustness acceptance
//! suite. Under every injected fault class — per-query deadlines, malformed
//! and oversized frames, clients that hang up mid-queue, and chaos-layer
//! transport corruption against the **real `gdlog serve` binary** — the
//! server must keep serving, concurrent healthy sessions must answer
//! byte-identically to the committed goldens, and every degraded outcome
//! must be typed: a graceful partial response with an exact residual mass,
//! or a `deadline-exceeded` / `overloaded` wire error. Never a crash, never
//! a hang, never silent corruption.

mod common;

use common::{directive_args, manifest_dir, scenario_files};
use gdlog_server::{start, ClientError, ErrorCode, RetryPolicy, ServeClient, ServeConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The coin program of the corpus: two outcomes, instant to solve.
const COIN: &str = "-> Coin(Flip<0.5>).\nCoin(0) -> false.\n";

/// Eighteen independent coins: 2^18 joint outcomes — far more than a
/// millisecond deadline allows, so enumeration is guaranteed to be cut.
fn coin_farm(n: usize) -> String {
    let mut src = String::from("Coin(x) -> Toss(x, Flip<0.5>[x]).\n");
    for i in 1..=n {
        src.push_str(&format!("Coin({i}).\n"));
    }
    src
}

fn ephemeral() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: Some(1),
        ..ServeConfig::default()
    }
}

/// Scrape `"<key>": {... "num": N, "den": D ...}` out of a response body —
/// the renderer is ours, so the shape is fixed and a split suffices.
fn mass(body: &str, key: &str) -> (i128, i128) {
    let obj = body
        .split_once(&format!("\"{key}\": {{"))
        .unwrap_or_else(|| panic!("missing {key} in {body}"))
        .1;
    let field = |name: &str| -> i128 {
        obj.split_once(&format!("\"{name}\": "))
            .and_then(|(_, rest)| {
                rest.split(|c: char| !c.is_ascii_digit() && c != '-')
                    .next()?
                    .parse()
                    .ok()
            })
            .unwrap_or_else(|| panic!("missing {key}.{name} in {body}"))
    };
    (field("num"), field("den"))
}

/// A deadline that fires mid-enumeration degrades gracefully: the response
/// is `OK`, marked interrupted, and the explored/residual split is exact —
/// the two masses sum to exactly one even though the walk was cut short.
#[test]
fn deadline_degrades_gracefully_with_exact_residual_mass() {
    let mut server = start(&ephemeral()).expect("bind");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    client.open("farm.gdl", &coin_farm(18)).expect("open");
    let body = client
        .query("farm.gdl", &["--timeout-ms", "1"])
        .expect("interrupted enumeration still answers OK");
    assert!(
        body.contains("\"interrupted\": true"),
        "1ms cannot enumerate 2^18 outcomes: {body}"
    );
    let (en, ed) = mass(&body, "explored_mass");
    let (rn, rd) = mass(&body, "residual_mass");
    assert!(rn > 0, "a cut walk must report residual mass: {body}");
    // explored + residual == 1, as exact rationals: en/ed + rn/rd == 1.
    assert_eq!(en * rd + rn * ed, ed * rd, "masses must sum to one: {body}");
    server.stop();
}

/// The server-wide default deadline applies to requests that carry none,
/// and a request's own `--timeout-ms` wins over it in both directions.
#[test]
fn server_default_deadline_applies_and_the_request_overrides_it() {
    let config = ServeConfig {
        timeout_ms: Some(1),
        ..ephemeral()
    };
    let mut server = start(&config).expect("bind");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    client.open("farm.gdl", &coin_farm(18)).expect("open");

    // No per-request deadline: the server default (1ms) cuts the walk.
    let body = client.query("farm.gdl", &[]).expect("graceful degradation");
    assert!(body.contains("\"interrupted\": true"), "{body}");

    // A generous per-request deadline overrides the tight default: a small
    // program completes cleanly under it.
    client.open("small.gdl", &coin_farm(3)).expect("open");
    let body = client
        .query("small.gdl", &["--timeout-ms", "60000"])
        .expect("query");
    assert!(!body.contains("interrupted"), "{body}");
    assert_eq!(mass(&body, "residual_mass").0, 0, "{body}");
    server.stop();
}

/// Monte-Carlo estimates are exact-sample-count-or-nothing: a deadline that
/// fires mid-walk is a typed `deadline-exceeded` wire error, not a silently
/// low-sample estimate.
#[test]
fn monte_carlo_past_the_deadline_is_a_typed_wire_error() {
    let mut server = start(&ephemeral()).expect("bind");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    client.open("coin.gdl", COIN).expect("open");
    let err = client
        .query(
            "coin.gdl",
            &[
                "--query",
                "Coin(1)",
                "--mc",
                "200000000",
                "--seed",
                "7",
                "--timeout-ms",
                "10",
            ],
        )
        .expect_err("200M samples cannot finish in 10ms");
    match err {
        ClientError::Serve(e) => {
            assert_eq!(e.code, ErrorCode::DeadlineExceeded, "{}", e.message);
            assert!(e.message.contains("monte-carlo"), "{}", e.message);
        }
        other => panic!("expected a typed wire error, got {other}"),
    }
    // The connection is not poisoned: the same session answers normally.
    let body = client
        .query("coin.gdl", &["--query", "Coin(1)"])
        .expect("query after deadline error");
    assert!(body.contains("\"p_stable\""), "{body}");
    server.stop();
}

/// Drive raw corruption at the server — binary garbage, an oversized
/// body-length, an unbounded header — and assert each costs only its own
/// connection. A fresh client gets full service afterwards.
#[test]
fn corrupt_frames_cost_the_connection_not_the_server() {
    let mut server = start(&ephemeral()).expect("bind");
    let addr = server.local_addr();

    let assert_torn_down = |mut stream: TcpStream, what: &str| {
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let mut sink = Vec::new();
        // The server answers nothing to an unreadable frame; it tears the
        // connection down. EOF (Ok) and reset (Err) both prove teardown —
        // a timeout would mean the server hung on garbage.
        match stream.read_to_end(&mut sink) {
            Ok(_) => {}
            Err(e) => assert!(
                e.kind() != std::io::ErrorKind::WouldBlock
                    && e.kind() != std::io::ErrorKind::TimedOut,
                "{what}: server hung instead of tearing down: {e}"
            ),
        }
    };

    // Binary garbage where a frame header belongs.
    let mut garbage = TcpStream::connect(addr).expect("connect");
    garbage
        .write_all(b"\x00\xff\xfe not a frame \x7f\n")
        .expect("write");
    assert_torn_down(garbage, "binary garbage");

    // A header whose declared body length exceeds the frame cap.
    let mut oversized = TcpStream::connect(addr).expect("connect");
    oversized
        .write_all(format!("PING {}\n", u64::MAX).as_bytes())
        .expect("write");
    assert_torn_down(oversized, "oversized body length");

    // A header that never ends: the reader caps it instead of buffering
    // unboundedly.
    let mut unbounded = TcpStream::connect(addr).expect("connect");
    let _ = unbounded.write_all(&vec![b'A'; 256 << 10]);
    assert_torn_down(unbounded, "unbounded header");

    // Three poisoned connections later, the server serves a healthy one.
    let mut client = ServeClient::connect(addr).expect("connect");
    assert_eq!(client.ping().expect("ping"), "pong");
    client.open("coin.gdl", COIN).expect("open");
    let body = client
        .query("coin.gdl", &["--query", "Coin(1)"])
        .expect("query");
    assert!(body.contains("\"p_stable\""), "{body}");
    server.stop();
}

/// A client that hangs up while queued for admission gives its queue entry
/// back promptly — no leaked slot, a typed `abandoned` count in STATS, and
/// the freed capacity serves the next live client.
#[test]
fn queued_disconnect_releases_the_queue_entry() {
    let config = ServeConfig {
        max_inflight: 1,
        max_queued: 1,
        ..ephemeral()
    };
    let mut server = start(&config).expect("bind");
    let addr = server.local_addr();

    // Wedge the only solve slot, exactly as a long-running query would.
    let wedge = server.sessions().admission().acquire().expect("pin slot");

    // A raw connection opens a session, fires a query (which parks in the
    // admission queue), then hangs up without reading the answer.
    let quitter = TcpStream::connect(addr).expect("connect");
    let mut writer = quitter.try_clone().expect("clone");
    let mut reader = BufReader::new(quitter);
    netline::write_frame(
        &mut writer,
        &netline::Frame::new("OPEN coin.gdl", COIN.as_bytes().to_vec()),
    )
    .expect("open");
    let opened = netline::read_frame(&mut reader)
        .expect("read")
        .expect("frame");
    assert_eq!(opened.head, "OK");
    netline::write_frame(
        &mut writer,
        &netline::Frame::new("QUERY coin.gdl", b"--query\nCoin(1)\n".to_vec()),
    )
    .expect("query");
    // Wait until the query is parked in the queue, then hang up.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.sessions().admission().load().1 == 0 {
        assert!(Instant::now() < deadline, "query never reached the queue");
        std::thread::sleep(Duration::from_millis(2));
    }
    drop(writer);
    drop(reader);

    // The probe notices the hang-up and the queue entry comes back even
    // though the wedged slot never freed.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.sessions().admission().load().1 != 0 {
        assert!(
            Instant::now() < deadline,
            "abandoned queue entry was never released"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    // STATS sees the abandonment (STATS bypasses admission, so the wedged
    // slot cannot block it), and a live client gets the freed capacity.
    let mut client = ServeClient::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert!(stats.contains("\"abandoned\": 1"), "{stats}");
    drop(wedge);
    client.open("coin.gdl", COIN).expect("open");
    let body = client
        .query("coin.gdl", &["--query", "Coin(1)"])
        .expect("query");
    assert!(body.contains("\"p_stable\""), "{body}");
    assert_eq!(server.sessions().admission().load(), (0, 0));
    server.stop();
}

/// A panicking query worker costs exactly its own connection. The protocol
/// itself has no panicking input by construction, so this wraps the real
/// `Protocol` in a handler that panics on one magic head and delegates
/// everything else — the client on the panicking connection receives
/// `Protocol`'s typed `internal-error` frame before teardown, and a second
/// live connection keeps answering normally.
#[test]
fn panicking_query_costs_one_connection_not_the_server() {
    use gdlog_core::Executor;
    use gdlog_server::{Protocol, SessionManager};
    use std::sync::Arc;

    struct PanicOn(Protocol);
    impl netline::Handler for PanicOn {
        fn handle(&self, request: netline::Frame) -> netline::Frame {
            self.handle_on(u64::MAX, request)
        }
        fn handle_on(&self, conn_id: u64, request: netline::Frame) -> netline::Frame {
            if request.head == "BOOM" {
                panic!("injected query-worker panic");
            }
            self.0.handle_on(conn_id, request)
        }
        fn attached(&self, conn_id: u64, probe: netline::ConnProbe) {
            self.0.attached(conn_id, probe);
        }
        fn disconnected(&self, conn_id: u64) {
            self.0.disconnected(conn_id);
        }
        fn panic_response(&self, conn_id: u64) -> netline::Frame {
            self.0.panic_response(conn_id)
        }
    }

    let sessions = SessionManager::new(Arc::new(Executor::sequential()), 4, 16);
    let server = netline::Server::bind("127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let mut handle = server.spawn(Arc::new(PanicOn(Protocol::new(sessions))));

    let mut bystander = ServeClient::connect(addr).expect("connect");
    bystander.open("coin.gdl", COIN).expect("open");

    let mut victim = netline::Client::connect(addr).expect("connect");
    let response = victim.call("BOOM", Vec::new()).expect("typed panic frame");
    assert_eq!(
        response.head,
        "ERR internal-error",
        "{}",
        response.body_text()
    );
    assert!(
        response.body_text().contains("panicked"),
        "{}",
        response.body_text()
    );
    // The victim's connection is then torn down...
    assert!(
        victim.call("PING", Vec::new()).is_err(),
        "panicked connection must be closed"
    );
    // ...while the bystander's session keeps answering.
    let body = bystander
        .query("coin.gdl", &["--query", "Coin(1)"])
        .expect("bystander query after the panic");
    assert!(body.contains("\"p_stable\""), "{body}");
    handle.stop();
}

/// Spawn the real `gdlog serve` binary, with the given chaos spec injected
/// via `GDLOG_CHAOS` (set on the child only — never on this test process) or
/// with chaos disarmed, and return the child plus its bound address.
fn spawn_serve(chaos: Option<&str>) -> (Child, std::net::SocketAddr) {
    let mut command = Command::new(env!("CARGO_BIN_EXE_gdlog"));
    command.args(["serve", "--addr", "127.0.0.1:0", "--threads", "1"]);
    match chaos {
        Some(spec) => command.env("GDLOG_CHAOS", spec),
        None => command.env_remove("GDLOG_CHAOS"),
    };
    let mut child = command
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn gdlog serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines
        .next()
        .expect("serve prints its banner")
        .expect("readable banner");
    // "serving on 127.0.0.1:PORT (inflight N, queued M)"
    let addr = banner
        .strip_prefix("serving on ")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|addr| addr.parse().ok())
        .unwrap_or_else(|| panic!("unparseable serve banner: {banner}"));
    (child, addr)
}

fn assert_alive(child: &mut Child, context: &str) {
    match child.try_wait().expect("try_wait") {
        None => {}
        Some(status) => panic!("{context}: server process exited with {status}"),
    }
}

/// A `--top` far past the product size lists the whole product: the
/// factored listing reserves no more than the product holds, so the real
/// `gdlog serve` process neither panics nor aborts on the allocation, which
/// would take every session down with it.
#[test]
fn huge_top_lists_the_whole_product_and_the_server_survives() {
    let (mut child, addr) = spawn_serve(None);
    let mut client = ServeClient::connect(addr).expect("connect");
    client
        .set_io_timeout(Some(Duration::from_secs(60)))
        .expect("io timeout");
    client.open("farm4", &coin_farm(4)).expect("open");
    let body = client
        .query("farm4", &["--factored", "--top", "1000000000000"])
        .expect("a huge --top answers OK");
    assert_eq!(body.matches("\"models\": ").count(), 16, "{body}");
    assert_alive(&mut child, "after a huge --top");
    child.kill().expect("kill");
    child.wait().expect("wait");
}

/// Byte-preserving chaos (delivery delays, mid-frame stalls) on **every**
/// connection of a real `gdlog serve` process: the full scenario corpus,
/// replayed over the degraded wire, still answers byte-identically to the
/// committed goldens, and the server process survives.
#[test]
fn corpus_over_byte_preserving_chaos_is_still_golden_identical() {
    let (mut child, addr) = spawn_serve(Some("every=1,seed=42,delay=1,stall=1"));
    let mut client = ServeClient::connect(addr).expect("connect");
    client
        .set_io_timeout(Some(Duration::from_secs(60)))
        .expect("io timeout");
    for (name, path) in scenario_files() {
        let source = std::fs::read_to_string(&path).expect("scenario readable");
        let rel = format!("scenarios/{name}.gdl");
        let golden = std::fs::read_to_string(
            manifest_dir()
                .join("scenarios/golden")
                .join(format!("{name}.json")),
        )
        .expect("golden readable");
        client.open(&rel, &source).expect("open under chaos");
        let args = directive_args(&source);
        let argv: Vec<&str> = args.iter().map(String::as_str).collect();
        let body = client.query(&rel, &argv).expect("query under chaos");
        assert_eq!(
            body, golden,
            "{name}: response corrupted by delay/stall chaos"
        );
    }
    assert_alive(&mut child, "after byte-preserving chaos replay");
    child.kill().expect("kill");
    child.wait().expect("wait");
}

/// Corrupting chaos (dropped, truncated and garbled responses) on half the
/// connections of a real `gdlog serve` process: a retry-armed client still
/// converges on the exact golden bytes every single time — corruption costs
/// latency, never correctness — and the server process survives.
#[test]
fn retry_armed_client_survives_corrupting_chaos() {
    let (mut child, addr) = spawn_serve(Some("every=2,seed=3,drop=2,truncate=3,garbage=4"));
    // Connection order is the accept order: the retry client takes conn 0
    // (chaotic — even ids roll faults under `every=2`), the healthy witness
    // takes conn 1 and must never see a fault.
    let mut client = ServeClient::connect(addr).expect("connect");
    let mut healthy = ServeClient::connect(addr).expect("connect witness");
    client
        .set_io_timeout(Some(Duration::from_secs(30)))
        .expect("io timeout");
    client.set_retry_policy(Some(RetryPolicy {
        attempts: 8,
        base_delay: Duration::from_millis(2),
        max_delay: Duration::from_millis(50),
        seed: 9,
    }));

    let (name, path) = scenario_files()
        .into_iter()
        .find(|(name, _)| name == "coin")
        .expect("coin scenario exists");
    let source = std::fs::read_to_string(&path).expect("scenario readable");
    let golden = std::fs::read_to_string(
        manifest_dir()
            .join("scenarios/golden")
            .join(format!("{name}.json")),
    )
    .expect("golden readable");
    let rel = format!("scenarios/{name}.gdl");
    client
        .open(&rel, &source)
        .expect("open retries through chaos");
    healthy.open(&rel, &source).expect("healthy open");
    let args = directive_args(&source);
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    for round in 0..8 {
        let body = client
            .query(&rel, &argv)
            .unwrap_or_else(|e| panic!("round {round}: retries exhausted: {e}"));
        assert_eq!(
            body, golden,
            "round {round}: corruption leaked into a response"
        );
        // The concurrent healthy session rides the same server, retry-free,
        // and must stay byte-identical while chaos rages next door.
        let body = healthy
            .query(&rel, &argv)
            .unwrap_or_else(|e| panic!("round {round}: healthy witness failed: {e}"));
        assert_eq!(
            body, golden,
            "round {round}: healthy session perturbed by chaos"
        );
    }
    assert_alive(&mut child, "after corrupting chaos rounds");
    child.kill().expect("kill");
    child.wait().expect("wait");
}

/// A malformed chaos spec is a loud startup error, not a silently
/// chaos-free server — fault injection that fails to arm must never report
/// green robustness runs.
#[test]
fn malformed_chaos_spec_fails_startup_loudly() {
    let output = Command::new(env!("CARGO_BIN_EXE_gdlog"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .env("GDLOG_CHAOS", "every=0,frobnicate=9")
        .output()
        .expect("run gdlog serve");
    assert!(
        !output.status.success(),
        "malformed chaos spec must not serve"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("error"), "stderr: {stderr}");
}
