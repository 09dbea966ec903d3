//! The wake/drain contract of a server whose accept thread blocks in
//! `accept()` (DESIGN.md §11.3).
//!
//! Nothing polls, so every way a drain can start has to get a sleeping
//! accept thread out of the kernel, exactly once, without that wake-up
//! showing anywhere. A lost wake-up is a hang, not a wrong answer, so
//! everything that could hang runs under a [`WATCHDOG`] and fails
//! instead of stalling the suite.

use asap_serve::{post, HttpReply, ServeConfig, Server};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, RwLock};
use std::time::Duration;

const WATCHDOG: Duration = Duration::from_secs(5);
const CALL_TIMEOUT: Duration = Duration::from_secs(2);
const RUN: &str = r#"{"kernel":"spmv","matrix":"gen:er:256:4"}"#;

/// The idleness test counts one thread's context switches by its name,
/// so it must be the only server in the process while it looks: it
/// takes this exclusively, every other test shared.
static ONLY_SERVER: RwLock<()> = RwLock::new(());

fn other_servers_may_run() -> std::sync::RwLockReadGuard<'static, ()> {
    ONLY_SERVER.read().unwrap_or_else(|p| p.into_inner())
}

/// Run `f` on its own thread; panic if it has not returned in time.
fn within_watchdog<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(f()));
    rx.recv_timeout(WATCHDOG)
        .unwrap_or_else(|_| panic!("{what}: not done after {WATCHDOG:?} (lost wake-up?)"))
}

fn start(cfg: ServeConfig) -> Server {
    Server::start(cfg).expect("server starts on an ephemeral port")
}

#[test]
fn join_returns_on_a_server_that_never_saw_a_connection() {
    let _shared = other_servers_may_run();
    for bind in ["127.0.0.1:0", "0.0.0.0:0", "[::1]:0"] {
        let cfg = ServeConfig {
            addr: bind.to_string(),
            ..ServeConfig::default()
        };
        let server = match Server::start(cfg) {
            Ok(s) => s,
            // No IPv6 loopback on this box.
            Err(e) if bind.starts_with('[') => {
                eprintln!("skipping {bind}: {e}");
                continue;
            }
            Err(e) => panic!("cannot bind {bind}: {e}"),
        };
        within_watchdog(bind, move || server.join());
    }
}

#[test]
fn control_shutdown_ends_run_until_drained_and_a_second_drain_is_a_no_op() {
    let _shared = other_servers_may_run();
    // Daemon mode: /control/shutdown on an idle server is all it takes.
    let server = start(ServeConfig::default());
    let addr = server.addr();
    let (drained_tx, drained_rx) = mpsc::channel();
    std::thread::spawn(move || {
        server.run_until_drained();
        let _ = drained_tx.send(());
    });
    let ack = post(addr, "/control/shutdown", "", CALL_TIMEOUT).expect("transport ok");
    assert_eq!(ack.status, 200, "body: {}", ack.body);
    drained_rx
        .recv_timeout(WATCHDOG)
        .expect("run_until_drained returns after /control/shutdown");
    assert!(post(addr, "/v1/run", RUN, CALL_TIMEOUT).is_err());

    // Handle mode: the route started the drain, so begin_drain and join
    // find the accept thread already gone and have nobody to wake.
    let server = start(ServeConfig::default());
    let ack = post(server.addr(), "/control/shutdown", "", CALL_TIMEOUT).expect("transport ok");
    assert_eq!(ack.status, 200, "body: {}", ack.body);
    within_watchdog("begin_drain + join after /control/shutdown", move || {
        server.begin_drain();
        server.begin_drain();
        server.join();
    });
}

/// How one call of the connect storm ended.
fn storm_verdict(outcome: std::io::Result<HttpReply>) -> Result<(), String> {
    match outcome {
        Ok(reply) => {
            if !matches!(reply.status, 200 | 429 | 503) {
                return Err(format!("status {}: {}", reply.status, reply.body));
            }
            let declared = reply
                .headers
                .iter()
                .find(|(k, _)| k == "content-length")
                .and_then(|(_, v)| v.parse::<usize>().ok());
            if declared != Some(reply.body.len()) {
                return Err(format!(
                    "truncated {}: {declared:?} declared, {} read",
                    reply.status,
                    reply.body.len()
                ));
            }
            Ok(())
        }
        // Refused, reset, or closed unanswered: the server was going
        // away. Waiting out the timeout is the one failure.
        Err(e) => match e.kind() {
            std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
                Err(format!("timed out: {e}"))
            }
            _ => Ok(()),
        },
    }
}

#[test]
fn drain_under_a_connect_storm_never_hangs_a_client_or_the_server() {
    let _shared = other_servers_may_run();
    for round in 0..50 {
        let server = start(ServeConfig::default());
        let addr = server.addr();
        let stop = Arc::new(AtomicBool::new(false));
        let clients: Vec<_> = (0..8)
            .map(|_| {
                let stop = stop.clone();
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        storm_verdict(post(addr, "/v1/run", RUN, CALL_TIMEOUT))?;
                    }
                    Ok::<(), String>(())
                })
            })
            .collect();
        // Vary where in the storm the drain lands.
        std::thread::sleep(Duration::from_micros(200 * (round % 10)));
        within_watchdog("join under a connect storm", move || server.join());
        stop.store(true, Ordering::Relaxed);
        for c in clients {
            let verdict = within_watchdog("storm client", move || c.join().unwrap());
            if let Err(e) = verdict {
                panic!("round {round}: {e}");
            }
        }
    }
}

/// The structural form of "no poll", independent of timing: the thread
/// named `serve-accept` sleeps in the kernel once and stays there.
#[cfg(target_os = "linux")]
#[test]
fn an_idle_accept_thread_does_not_wake() {
    let _alone = ONLY_SERVER.write().unwrap_or_else(|p| p.into_inner());
    let server = start(ServeConfig::default());
    // One request first, so the thread is past its start-up switches.
    let warm = post(server.addr(), "/v1/run", RUN, CALL_TIMEOUT).expect("transport ok");
    assert_eq!(warm.status, 200, "body: {}", warm.body);

    let voluntary_switches = || -> u64 {
        let mut of_accept = Vec::new();
        for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
            let dir = task.expect("task entry").path();
            let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
            if comm.trim() != "serve-accept" {
                continue;
            }
            let status = std::fs::read_to_string(dir.join("status")).expect("task status");
            let n = status
                .lines()
                .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
                .and_then(|v| v.trim().parse().ok())
                .expect("voluntary_ctxt_switches line");
            of_accept.push(n);
        }
        assert_eq!(of_accept.len(), 1, "exactly one serve-accept thread");
        of_accept[0]
    };
    std::thread::sleep(Duration::from_millis(50));
    let before = voluntary_switches();
    std::thread::sleep(Duration::from_millis(300));
    let woke = voluntary_switches() - before;
    assert!(
        woke <= 2,
        "accept thread woke {woke} times in 300 ms of idleness (a 1 ms poll makes ~300)"
    );
    within_watchdog("join", move || server.join());
}
