//! End-to-end contracts for the `asap-serve` daemon (DESIGN.md §11).
//!
//! Every test starts a real server on an ephemeral loopback port and
//! talks to it over actual TCP — no mocked transport — because the
//! behaviors under test (admission, drain, disconnect reaping) live in
//! the transport layer:
//!
//! - **Fidelity** — a served result is bit-identical (via the FNV-1a
//!   output checksum) to a direct `asap_core::serve_request` call on
//!   the same matrix; concurrent clients all observe that one answer.
//! - **Coalescing** — N cold concurrent requests for the same kernel
//!   trigger exactly one compile; followers report `cache_hit`.
//! - **Deadlines** — a 1 ms deadline on a large matrix traps in the
//!   budget meter and surfaces as 504, not a hung connection.
//! - **Admission** — with one slow worker and a one-slot queue, the
//!   third concurrent request is bounced 429 + Retry-After immediately.
//! - **Input hygiene** — malformed bodies are 400s with typed error
//!   JSON; unknown routes 404; wrong methods 405.
//! - **Isolation** — a request that panics burns its own connection
//!   (500) and nothing else; the next request succeeds.
//! - **Drain** — shutdown answers everything already queued, then the
//!   listener goes away.
//!
//! The compile cache and metrics registry are process-global, so tests
//! that assert on cache-miss counts use strategy distances unique to
//! this binary (no other test compiles them).

use asap::core::{serve_request, ExecEngine, PrefetchStrategy, ServiceKernel};
use asap::ir::Budget;
use asap::matrices::SizeClass;
use asap_serve::{exchange, get, post, MatrixCatalog, ServeConfig, Server};
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(30);

fn start(cfg: ServeConfig) -> Server {
    Server::start(cfg).expect("server starts on ephemeral port")
}

fn field(body: &str, key: &str) -> Option<String> {
    let v = asap_obs::parse_json(body).ok()?;
    let f = v.get(key)?;
    f.as_str()
        .map(str::to_string)
        .or_else(|| f.as_u64().map(|n| n.to_string()))
        .or_else(|| f.as_bool().map(|b| b.to_string()))
}

#[test]
fn served_result_is_bit_identical_to_direct_call() {
    let server = start(ServeConfig::default());
    let addr = server.addr();

    let reply = post(
        addr,
        "/v1/run",
        r#"{"kernel":"spmv","matrix":"gen:er:1024:4","strategy":"asap","distance":45}"#,
        TIMEOUT,
    )
    .expect("transport ok");
    assert_eq!(reply.status, 200, "body: {}", reply.body);
    let served = field(&reply.body, "checksum").expect("checksum field");

    // The reference: same matrix through the same catalog, executed by
    // a direct library call with no server in the path.
    let catalog = MatrixCatalog::new(SizeClass::Tiny);
    let sparse = catalog.build("gen:er:1024:4").expect("builds");
    let direct = serve_request(
        ServiceKernel::Spmv,
        &sparse,
        &PrefetchStrategy::asap(45),
        ExecEngine::Auto,
        &Budget::unlimited(),
    )
    .expect("direct call succeeds");
    assert_eq!(served, format!("{:016x}", direct.checksum));

    server.join();
}

#[test]
fn tier2_engine_is_served_bit_identically_and_unmatched_shapes_400() {
    let server = start(ServeConfig::default());
    let addr = server.addr();

    // The same ASaP CSR kernel through every engine the wire accepts:
    // one answer, and the explicit tier-2 request actually runs native.
    let mut checksums = Vec::new();
    for engine in ["auto", "tier2", "bytecode", "tree-walk"] {
        let body = format!(
            r#"{{"kernel":"spmv","matrix":"gen:er:1024:4","strategy":"asap","engine":"{engine}"}}"#
        );
        let reply = post(addr, "/v1/run", &body, TIMEOUT).expect("transport ok");
        if engine == "tree-walk" {
            // The oracle interpreter is not a serving engine.
            assert_eq!(reply.status, 400, "engine {engine}: {}", reply.body);
            assert_eq!(field(&reply.body, "kind").as_deref(), Some("binding"));
            continue;
        }
        assert_eq!(reply.status, 200, "engine {engine}: {}", reply.body);
        let used = field(&reply.body, "engine").expect("engine field");
        match engine {
            // The service upgrades `auto` to tier-2 when the kernel
            // specialized (DESIGN.md §13.3).
            "auto" | "tier2" => assert_eq!(used, "tier2", "body: {}", reply.body),
            other => assert_eq!(used, other, "body: {}", reply.body),
        }
        checksums.push(field(&reply.body, "checksum").expect("checksum field"));
    }
    assert!(
        checksums.windows(2).all(|w| w[0] == w[1]),
        "engines disagree: {checksums:?}"
    );

    // A baseline (prefetch-free) kernel never specializes: demanding
    // tier-2 for it is a typed 400, not a silent fallback.
    let reply = post(
        addr,
        "/v1/run",
        r#"{"kernel":"spmv","matrix":"gen:er:1024:4","strategy":"baseline","engine":"tier2"}"#,
        TIMEOUT,
    )
    .expect("transport ok");
    assert_eq!(reply.status, 400, "body: {}", reply.body);
    assert_eq!(field(&reply.body, "kind").as_deref(), Some("binding"));

    server.join();
}

#[test]
fn concurrent_clients_agree_on_one_answer() {
    let server = start(ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let body =
        r#"{"kernel":"spmm","matrix":"gen:banded:512:8","cols":4,"strategy":"aj","distance":12}"#;

    let handles: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                let reply = post(addr, "/v1/run", body, TIMEOUT).expect("transport ok");
                assert_eq!(reply.status, 200, "body: {}", reply.body);
                field(&reply.body, "checksum").expect("checksum field")
            })
        })
        .collect();
    let checksums: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(
        checksums.windows(2).all(|w| w[0] == w[1]),
        "disagreeing checksums: {checksums:?}"
    );

    server.join();
}

#[test]
fn concurrent_cold_compiles_coalesce_into_one_miss() {
    let server = start(ServeConfig {
        workers: 8,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    // Distance 7877 is unique to this test, so the first compile of
    // this (kernel, strategy) key in the whole process happens here —
    // under concurrency, which is exactly the single-flight case.
    let body = r#"{"kernel":"spmv","matrix":"gen:er:256:4","strategy":"asap","distance":7877}"#;

    let handles: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                let reply = post(addr, "/v1/run", body, TIMEOUT).expect("transport ok");
                assert_eq!(reply.status, 200, "body: {}", reply.body);
                field(&reply.body, "cache_hit").expect("cache_hit field")
            })
        })
        .collect();
    let misses = handles
        .into_iter()
        .map(|h| h.join().unwrap())
        .filter(|hit| hit == "false")
        .count();
    assert_eq!(
        misses, 1,
        "expected exactly one real compile among coalesced requests"
    );

    server.join();
}

#[test]
fn expired_deadline_returns_504() {
    let server = start(ServeConfig::default());
    let addr = server.addr();
    // rmat:16:8 is ~half a million nnz: execution comfortably outlasts
    // a 1 ms deadline, so the budget meter trips mid-kernel.
    let reply = post(
        addr,
        "/v1/run",
        r#"{"kernel":"spmv","matrix":"gen:rmat:16:8","deadline_ms":1}"#,
        TIMEOUT,
    )
    .expect("transport ok");
    assert_eq!(reply.status, 504, "body: {}", reply.body);
    assert_eq!(field(&reply.body, "kind").as_deref(), Some("budget"));

    server.join();
}

#[test]
fn overload_is_bounced_with_429_not_queued_forever() {
    // One worker that sits on each connection for 400 ms, and a queue
    // of one: request A occupies the worker, B fills the queue, and C —
    // arriving while both hold their slots — must bounce immediately.
    let server = start(ServeConfig {
        workers: 1,
        queue_bound: 1,
        worker_delay_ms: 400,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let body = r#"{"kernel":"spmv","matrix":"gen:er:256:4"}"#;

    let a = std::thread::spawn(move || post(addr, "/v1/run", body, TIMEOUT));
    std::thread::sleep(Duration::from_millis(100));
    let b = std::thread::spawn(move || post(addr, "/v1/run", body, TIMEOUT));
    std::thread::sleep(Duration::from_millis(100));

    let c = post(addr, "/v1/run", body, TIMEOUT).expect("transport ok");
    assert_eq!(c.status, 429, "body: {}", c.body);
    assert_eq!(c.header("retry-after"), Some("1"));

    // The admitted requests still complete normally behind the slow
    // worker — overload sheds new load, it does not fail accepted work.
    assert_eq!(a.join().unwrap().expect("transport ok").status, 200);
    assert_eq!(b.join().unwrap().expect("transport ok").status, 200);

    server.join();
}

#[test]
fn malformed_requests_get_typed_400s() {
    let server = start(ServeConfig::default());
    let addr = server.addr();

    let cases: &[&str] = &[
        "{not json",
        r#"{"kernel":"spmv"}"#,                                   // no matrix
        r#"{"kernel":"fft","matrix":"gen:er:256:4"}"#,            // unknown kernel
        r#"{"kernel":"spmv","matrix":"gen:er:256:4","bogus":1}"#, // unknown field
        r#"{"kernel":"spmv","matrix":"no-such-matrix"}"#,         // unresolvable
        r#"{"kernel":"spmv","matrix":"gen:er:256:4","cols":4}"#,  // cols on spmv
        r#"{"kernel":"spmv","matrix":"gen:er:1","mtx":"%%MatrixMarket"}"#, // both sources
    ];
    for body in cases {
        let reply = post(addr, "/v1/run", body, TIMEOUT).expect("transport ok");
        assert_eq!(reply.status, 400, "request {body:?} -> {}", reply.body);
        assert_eq!(
            field(&reply.body, "status").as_deref(),
            Some("bad_request"),
            "request {body:?} -> {}",
            reply.body
        );
    }

    assert_eq!(get(addr, "/no/such/route", TIMEOUT).unwrap().status, 404);
    assert_eq!(
        exchange(addr, "PUT", "/v1/run", "", TIMEOUT)
            .unwrap()
            .status,
        405
    );

    server.join();
}

#[test]
fn inline_matrix_market_body_is_served() {
    let server = start(ServeConfig::default());
    let addr = server.addr();
    let mtx = "%%MatrixMarket matrix coordinate real general\n3 3 4\n1 1 2.0\n2 2 -1.5\n3 1 0.25\n3 3 4.0\n";
    let body = format!(
        r#"{{"kernel":"spmv","mtx":{:?},"strategy":"baseline"}}"#,
        mtx
    );
    let reply = post(addr, "/v1/run", &body, TIMEOUT).expect("transport ok");
    assert_eq!(reply.status, 200, "body: {}", reply.body);
    assert_eq!(field(&reply.body, "nnz").as_deref(), Some("4"));

    server.join();
}

/// `store_bytes: 0` means what its doc says for every matrix source:
/// nothing becomes resident, named and inline requests alike rebuild
/// their matrix each time, and the answers stay the direct call's.
#[test]
fn disabled_store_rebuilds_named_and_inline_matrices_every_time() {
    let server = start(ServeConfig {
        store_bytes: 0,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let catalog = MatrixCatalog::new(SizeClass::Tiny);
    let mtx = "%%MatrixMarket matrix coordinate real general\n3 3 4\n1 1 2.0\n2 2 -1.5\n3 1 0.25\n3 3 4.0\n";
    let cases = [
        (
            r#"{"kernel":"spmv","matrix":"gen:er:512:4"}"#.to_string(),
            catalog.build("gen:er:512:4").expect("builds"),
        ),
        (
            format!(r#"{{"kernel":"spmv","mtx":{mtx:?}}}"#),
            catalog.resolve_inline(mtx, u64::MAX).expect("parses"),
        ),
    ];
    for (body, sparse) in &cases {
        let direct = serve_request(
            ServiceKernel::Spmv,
            sparse,
            &PrefetchStrategy::asap(45),
            ExecEngine::Auto,
            &Budget::unlimited(),
        )
        .expect("direct call succeeds");
        for round in 0..2 {
            let reply = post(addr, "/v1/run", body, TIMEOUT).expect("transport ok");
            assert_eq!(reply.status, 200, "round {round}: {}", reply.body);
            assert_eq!(
                field(&reply.body, "checksum"),
                Some(format!("{:016x}", direct.checksum)),
                "round {round}: {}",
                reply.body
            );
            assert_eq!(
                field(&reply.body, "store_hit").as_deref(),
                Some("false"),
                "round {round}: nothing is resident to hit"
            );
        }
    }
    let health = get(addr, "/healthz", TIMEOUT).expect("transport ok");
    assert_eq!(field(&health.body, "store_entries").as_deref(), Some("0"));

    server.join();
}

/// The size line is the client's word. A 60-byte body declaring 2^40
/// rows must be refused from the parsed triplets' footprint, before
/// any `O(rows)` storage is built — a typed 413, promptly, with the
/// daemon unharmed.
#[test]
fn one_entry_inline_matrix_with_a_huge_shape_is_a_fast_413() {
    let server = start(ServeConfig::default());
    let addr = server.addr();
    let mtx = "%%MatrixMarket matrix coordinate real general\n1099511627776 1 1\n1 1 1.0\n";
    let body = format!(r#"{{"kernel":"spmv","mtx":{mtx:?}}}"#);
    // Best of three, so a descheduled test thread is not a failure.
    let mut fastest = Duration::MAX;
    for _ in 0..3 {
        let sent = std::time::Instant::now();
        let reply = post(addr, "/v1/run", &body, TIMEOUT).expect("transport ok");
        fastest = fastest.min(sent.elapsed());
        assert_eq!(reply.status, 413, "body: {}", reply.body);
        assert_eq!(field(&reply.body, "kind").as_deref(), Some("store"));
    }
    assert!(fastest < Duration::from_millis(100), "took {fastest:?}");

    let health = get(addr, "/healthz", TIMEOUT).expect("transport ok");
    assert_eq!(health.status, 200);
    assert_eq!(field(&health.body, "status").as_deref(), Some("ok"));

    server.join();
}

#[test]
fn a_panicking_request_is_isolated() {
    let server = start(ServeConfig {
        enable_fault_endpoints: true,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    let reply = post(addr, "/debug/panic", "", TIMEOUT).expect("transport ok");
    assert_eq!(reply.status, 500, "body: {}", reply.body);

    // The worker that caught the panic is still in rotation.
    let reply = post(
        addr,
        "/v1/run",
        r#"{"kernel":"spmv","matrix":"gen:er:256:4"}"#,
        TIMEOUT,
    )
    .expect("transport ok");
    assert_eq!(reply.status, 200, "body: {}", reply.body);

    server.join();
}

#[test]
fn health_and_metrics_endpoints_respond() {
    let server = start(ServeConfig::default());
    let addr = server.addr();

    post(
        addr,
        "/v1/run",
        r#"{"kernel":"spmv","matrix":"gen:er:256:4"}"#,
        TIMEOUT,
    )
    .expect("transport ok");

    let health = get(addr, "/healthz", TIMEOUT).expect("transport ok");
    assert_eq!(health.status, 200);
    assert_eq!(field(&health.body, "status").as_deref(), Some("ok"));

    let metrics = get(addr, "/metrics", TIMEOUT).expect("transport ok");
    assert_eq!(metrics.status, 200);
    assert!(
        metrics.body.contains("serve.served"),
        "metrics text: {}",
        metrics.body
    );

    server.join();
}

#[test]
fn shutdown_drains_queued_work_then_stops_listening() {
    // A deliberately slow single worker so requests are still queued
    // when the drain begins.
    let server = start(ServeConfig {
        workers: 1,
        queue_bound: 8,
        worker_delay_ms: 200,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let body = r#"{"kernel":"spmv","matrix":"gen:er:256:4"}"#;

    let inflight: Vec<_> = (0..3)
        .map(|_| std::thread::spawn(move || post(addr, "/v1/run", body, TIMEOUT)))
        .collect();
    std::thread::sleep(Duration::from_millis(100));

    let ack = post(addr, "/control/shutdown", "", TIMEOUT).expect("transport ok");
    assert_eq!(ack.status, 200, "body: {}", ack.body);

    // Everything admitted before the drain still gets a real answer.
    for h in inflight {
        let reply = h.join().unwrap().expect("transport ok");
        assert_eq!(reply.status, 200, "body: {}", reply.body);
    }
    server.run_until_drained();

    // The listener is gone: connecting now fails outright.
    let after = post(addr, "/v1/run", body, Duration::from_secs(2));
    assert!(
        after.is_err(),
        "server still answering after drain: {after:?}"
    );
}
