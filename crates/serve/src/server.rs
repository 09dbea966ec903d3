//! Server lifecycle: the accept loop, the supervised worker pool and
//! its routes, and graceful drain-then-stop shutdown.
//!
//! Thread structure (all plain `std::thread`, joined on shutdown):
//!
//! - **accept** — blocks in `accept()` on a blocking `TcpListener`; an
//!   idle server makes no system calls. Raw connections either enter
//!   the scheduler's bounded connection FIFO or are answered 429 +
//!   `Retry-After` immediately. Whoever starts a drain
//!   (`Shared::begin_drain`, the only writer of `draining`) wakes the
//!   thread with a throw-away connection to the listener; the loop
//!   reads the flag after every `accept` as well as before, closes the
//!   scheduler and exits — already-admitted work still gets served.
//! - **workers** (N) — drain the [`TenantScheduler`]: connections
//!   first (parse HTTP, route; a `POST /v1/run` climbs the admission
//!   ladder of `admission.rs` and is queued as a job), then jobs,
//!   interleaved across tenants by weighted deficit round-robin. Each
//!   request runs under `catch_unwind`: a panic becomes a 500 for that
//!   one client and a `serve.panics` tick, never a dead worker.
//! - **supervisor** and **reaper** (`supervisor.rs`) — restart
//!   workers that die anyway, under journaled backoff; cancel requests
//!   whose client hung up.
//!
//! Every response goes out through a `Reply` (`reply.rs`).
//!
//! Shutdown (`POST /control/shutdown` or [`Server::join`]) is
//! drain-then-stop: stop admitting, serve everything queued, join every
//! thread. No request that got a 2xx admission is dropped.

use crate::admission::{admit_run, brownout_level, execute_run, submit, Job};
use crate::http::{drain_request, read_request_with_timeout};
use crate::matrix::MatrixCatalog;
use crate::queue::{PushError, TenantScheduler, Work};
use crate::reply::{Conn, Rejection, Reply, Tally, OVERLOADED};
use crate::request::render_error;
use crate::store::MatrixStore;
use crate::supervisor::{
    panic_message, reaper_loop, supervisor_loop, Reaper, Supervisor, WorkerSlot,
};
use crate::tenant::{TenantQuotas, TenantRegistry};
use asap_core::fingerprint64;
use asap_matrices::SizeClass;
use asap_obs::{FlightRecorder, ObjWriter, Stage, TraceCtx, TraceId};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Pause after a failed `accept` (EMFILE, an aborted handshake), so a
/// full fd table cannot spin a core. The success path never sleeps.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(1);

/// Bound on the drain wake-up's connect. Loopback connects in
/// microseconds; it can only take this long against a full backlog, and
/// an acceptor with a full backlog is not asleep.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see [`Server::addr`]).
    pub addr: String,
    /// Worker threads executing requests.
    pub workers: usize,
    /// Bound on accepted-but-not-yet-parsed connections; beyond it,
    /// clients get an immediate 429.
    pub queue_bound: usize,
    /// Size class for named collection matrices.
    pub size: SizeClass,
    /// Deadline applied when a request does not set `deadline_ms`
    /// (0 = none).
    pub default_deadline_ms: u64,
    /// Cap on request body bytes (inline MatrixMarket can be big).
    pub max_body_bytes: usize,
    /// Test-only: sleep this long at the start of each job execution,
    /// simulating a slow worker so overload tests are deterministic.
    pub worker_delay_ms: u64,
    /// Test-only: expose `POST /debug/panic` (per-request isolation)
    /// and `POST /debug/kill_worker` (whole-thread death, exercising
    /// the supervisor restart path) end to end.
    pub enable_fault_endpoints: bool,
    /// Append one JSON line per crash (worker death or caught request
    /// panic) to this file. `None` keeps the journal counters only.
    pub crash_journal: Option<PathBuf>,
    /// Per-read socket timeout while parsing a request, in milliseconds
    /// (the whole request is bounded by twice this). The 10 s default
    /// suits trusted clients; chaos/soak runs set a few hundred ms so a
    /// lying `Content-Length` cannot pin a worker for long.
    pub io_timeout_ms: u64,
    /// Resident matrix store byte ceiling (0 disables residency and
    /// every request re-parses/re-generates its matrix).
    pub store_bytes: u64,
    /// Per-tenant resident-byte quota in the store (0 = unlimited).
    pub tenant_store_bytes: u64,
    /// Per-tenant sustained requests/second (token bucket; 0 = off).
    pub tenant_rps: f64,
    /// Token-bucket burst headroom above the sustained rate.
    pub tenant_burst: f64,
    /// Bound on one tenant's queued (parsed, unexecuted) jobs.
    pub tenant_queue_bound: usize,
    /// Global bound on queued jobs across all tenants; also the
    /// brownout ladder's pressure scale (level 1 at ≥ 1/2, level 2 at
    /// ≥ 3/4 of this).
    pub job_bound: usize,
    /// Per-request execution byte budget (0 = unlimited).
    pub exec_bytes: u64,
    /// DRR weights per tenant name; unlisted tenants weigh 1.
    pub tenant_weights: Vec<(String, u32)>,
    /// Hard cap on distinct tenants the registry will mint.
    pub max_tenants: usize,
    /// Request-scoped telemetry: trace ids on every response, per-stage
    /// histograms, the flight recorder. Off = the A/B baseline where
    /// every trace call is one branch on a dormant context.
    pub telemetry: bool,
    /// Latency objective for the per-tenant SLO over/under counters
    /// (`/v1/run` wall time, milliseconds).
    pub slo_ms: u64,
    /// Flight-recorder ring capacity per worker (plus one accept ring).
    pub flight_ring: usize,
    /// Bound on retained anomalous request records.
    pub flight_retain: usize,
    /// Append one JSON line per completed request to this file. Heavy;
    /// the telemetry overhead gate runs with this off.
    pub access_log: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_bound: 64,
            size: SizeClass::Tiny,
            default_deadline_ms: 10_000,
            max_body_bytes: 4 * 1024 * 1024,
            worker_delay_ms: 0,
            enable_fault_endpoints: false,
            crash_journal: None,
            io_timeout_ms: 10_000,
            store_bytes: 64 * 1024 * 1024,
            tenant_store_bytes: 16 * 1024 * 1024,
            tenant_rps: 0.0,
            tenant_burst: 16.0,
            tenant_queue_bound: 64,
            job_bound: 256,
            exec_bytes: 0,
            tenant_weights: Vec::new(),
            max_tenants: 64,
            telemetry: true,
            slo_ms: 250,
            flight_ring: 64,
            flight_retain: 256,
            access_log: None,
        }
    }
}

pub(crate) struct Shared {
    pub cfg: ServeConfig,
    pub sched: TenantScheduler<Conn, Job>,
    pub tenants: TenantRegistry,
    pub store: Arc<MatrixStore>,
    pub draining: AtomicBool,
    /// Where [`Shared::begin_drain`] connects to get the accept thread
    /// out of `accept()`: the listener's address, through loopback when
    /// it is bound to the wildcard.
    wake_addr: SocketAddr,
    pub reaper_stop: AtomicBool,
    pub supervisor_stop: AtomicBool,
    pub catalog: MatrixCatalog,
    pub reaper: Reaper,
    pub supervisor: Supervisor,
    pub flight: FlightRecorder,
    /// Access-log sink (append mode), `None` when `--access-log` is off.
    pub access: Mutex<Option<std::fs::File>>,
    pub started: Instant,
    // Per-server health counters ( /metrics shows the process-global
    // registry; /healthz must describe *this* server instance).
    pub served: AtomicU64,
    pub rejected: AtomicU64,
    pub in_flight: AtomicU64,
    pub shed_expired: AtomicU64,
}

impl Shared {
    /// Start draining; idempotent. The accept thread sleeps in
    /// `accept()`, so the first caller also wakes it with a connection
    /// it will drop unanswered. A refused or timed-out connect is
    /// ignored: it means the thread is already gone or busy accepting,
    /// and either way it reads the flag next.
    pub fn begin_drain(&self) {
        if !self.draining.swap(true, Ordering::AcqRel) {
            let _ = TcpStream::connect_timeout(&self.wake_addr, WAKE_TIMEOUT);
        }
    }
}

/// What a handled connection asks of its worker afterwards.
enum ConnOutcome {
    Done,
    /// Test-only: die for real (outside `catch_unwind`), exercising the
    /// supervisor's detect-journal-restart path end to end.
    KillWorker,
}

/// A running server. Dropping the handle does NOT stop it; call
/// [`Server::join`] (or send `POST /control/shutdown` and then `join`).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
    reaper: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind and start the accept loop, workers, supervisor, and reaper.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        // A wildcard bind is reached through loopback of its family.
        let wake_ip = match addr.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
            ip => ip,
        };
        let tenants = TenantRegistry::new(TenantQuotas {
            rps: cfg.tenant_rps,
            burst: cfg.tenant_burst,
            store_bytes: cfg.tenant_store_bytes,
            max_tenants: cfg.max_tenants,
            weights: cfg.tenant_weights.clone(),
        });
        let shared = Arc::new(Shared {
            sched: TenantScheduler::new(cfg.queue_bound, cfg.tenant_queue_bound, cfg.job_bound),
            tenants,
            store: Arc::new(MatrixStore::new(cfg.store_bytes)),
            draining: AtomicBool::new(false),
            wake_addr: SocketAddr::new(wake_ip, addr.port()),
            reaper_stop: AtomicBool::new(false),
            supervisor_stop: AtomicBool::new(false),
            catalog: MatrixCatalog::new(cfg.size),
            reaper: Reaper::default(),
            flight: FlightRecorder::new(cfg.workers.max(1) + 1, cfg.flight_ring, cfg.flight_retain),
            access: Mutex::new(cfg.access_log.as_ref().and_then(|p| {
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(p)
                    .ok()
            })),
            supervisor: Supervisor::new(cfg.crash_journal.as_ref()),
            started: Instant::now(),
            served: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            shed_expired: AtomicU64::new(0),
            cfg,
        });

        let accept = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(listener, &shared))?
        };
        {
            let mut slots = shared.supervisor.lock_slots();
            for id in 0..shared.cfg.workers.max(1) {
                let fingerprint = Arc::new(AtomicU64::new(0));
                let handle = spawn_worker(shared.clone(), id, fingerprint.clone())?;
                slots.push(WorkerSlot {
                    id,
                    fingerprint,
                    handle: Some(handle),
                });
            }
        }
        let supervisor = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("serve-supervisor".into())
                .spawn(move || supervisor_loop(&shared))?
        };
        let reaper = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("serve-reaper".into())
                .spawn(move || reaper_loop(&shared))?
        };

        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
            supervisor: Some(supervisor),
            reaper: Some(reaper),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Start draining: stop admitting, let queued and in-flight work
    /// finish. Idempotent; returns immediately.
    pub fn begin_drain(&self) {
        self.shared.begin_drain();
    }

    /// Daemon mode: block until a drain is requested (via
    /// `POST /control/shutdown` or another handle's [`Server::begin_drain`]),
    /// then finish the drain and join every thread.
    pub fn run_until_drained(mut self) {
        // The accept thread exits exactly when a drain starts.
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        self.join();
    }

    /// Drain and block until every thread has exited. Queued
    /// connections are served before workers stop.
    pub fn join(mut self) {
        self.begin_drain();
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        // Stop the supervisor before joining workers so it cannot race
        // a respawn against our handle collection below.
        self.shared.supervisor_stop.store(true, Ordering::Release);
        if let Some(s) = self.supervisor.take() {
            let _ = s.join();
        }
        let handles: Vec<JoinHandle<()>> = {
            let mut slots = self.shared.supervisor.lock_slots();
            slots.iter_mut().filter_map(|s| s.handle.take()).collect()
        };
        for h in handles {
            let _ = h.join();
        }
        self.shared.reaper_stop.store(true, Ordering::Release);
        if let Some(r) = self.reaper.take() {
            let _ = r.join();
        }
    }
}

pub(crate) fn spawn_worker(
    shared: Arc<Shared>,
    id: usize,
    fingerprint: Arc<AtomicU64>,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name(format!("serve-worker-{id}"))
        .spawn(move || worker_loop(&shared, id, &fingerprint))
}

fn accept_loop(listener: TcpListener, shared: &Shared) {
    while !shared.draining.load(Ordering::Acquire) {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            // Transient accept failure (EMFILE, aborted handshake):
            // back off and keep serving.
            Err(_) => {
                std::thread::sleep(ACCEPT_ERROR_BACKOFF);
                continue;
            }
        };
        if shared.draining.load(Ordering::Acquire) {
            // The wake-up connection, or a client that raced it: dropped
            // unanswered and uncounted, like everything still in the
            // backlog when the listener closes below.
            break;
        }
        asap_obs::counter_inc("serve.accepted");
        // Mint the request trace context (dormant when telemetry is
        // off); queue wait starts ticking here.
        let trace = if shared.cfg.telemetry {
            TraceCtx::start()
        } else {
            TraceCtx::disabled()
        };
        trace.mark_queued();
        admit(Conn { stream, trace }, shared);
    }
    // Stop admitting; wake workers to drain what's queued.
    shared.sched.close();
}

/// Queue an accepted connection, or answer it here on the accept thread
/// (which owns the flight recorder's extra last ring; workers own rings
/// `0..workers`).
fn admit(conn: Conn, shared: &Shared) {
    let (conn, full) = match shared.sched.try_push_conn(conn) {
        Ok(depth) => {
            asap_obs::gauge_set("serve.queue_depth", depth as i64);
            asap_obs::counter_set_max("serve.queue_depth_peak", depth as u64);
            return;
        }
        Err(PushError::Full(conn)) => (conn, true),
        Err(PushError::Closed(conn)) => (conn, false),
    };
    let mut reply = Reply::bind(shared, shared.cfg.workers.max(1), conn);
    drain_request(&mut reply.stream, shared.cfg.max_body_bytes);
    if full {
        reply.reject(&OVERLOADED, None, "queue full; retry after 1s");
    } else {
        reply.error(503, "admission", "server is shutting down");
    }
}

fn worker_loop(shared: &Shared, id: usize, fingerprint: &AtomicU64) {
    while let Some(work) = shared.sched.next_work() {
        match work {
            Work::Conn(conn) => {
                asap_obs::gauge_set("serve.queue_depth", shared.sched.conn_depth() as i64);
                conn.trace.end_queued();
                // The slot keeps the reply reachable across a panic in
                // the handler, so the client still gets its 500; the
                // /v1/run hand-off takes it out to move it into a job.
                let mut slot = Some(Reply::bind(shared, id, conn));
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    handle_connection(&mut slot, fingerprint)
                }));
                shared.sched.done_conn();
                match outcome {
                    Ok(ConnOutcome::Done) => {}
                    // Deliberate thread death, *outside* catch_unwind:
                    // the supervisor must notice, journal, and respawn.
                    Ok(ConnOutcome::KillWorker) => {
                        panic!("worker {id} killed via /debug/kill_worker");
                    }
                    Err(payload) => request_panicked(shared, id, fingerprint, &*payload, slot),
                }
            }
            Work::Job(job) => {
                asap_obs::gauge_set("serve.jobs_depth", shared.sched.job_depth() as i64);
                shared.in_flight.fetch_add(1, Ordering::Relaxed);
                asap_obs::gauge_add("serve.in_flight", 1);
                job.conn.trace.end_queued();
                let mut reply = Reply::bind(shared, id, job.conn);
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    execute_run(&mut reply, &job.run, &job.tenant, job.deadline_at)
                }));
                asap_obs::gauge_sub("serve.in_flight", 1);
                shared.in_flight.fetch_sub(1, Ordering::Relaxed);
                if let Err(payload) = outcome {
                    request_panicked(shared, id, fingerprint, &*payload, Some(reply));
                }
            }
        }
    }
}

/// A request handler panicked: count it, journal it with the request's
/// fingerprint, and answer 500 if the connection is still on this thread.
fn request_panicked(
    shared: &Shared,
    worker: usize,
    fingerprint: &AtomicU64,
    payload: &(dyn std::any::Any + Send),
    reply: Option<Reply>,
) {
    asap_obs::counter_inc("serve.panics");
    let msg = panic_message(payload);
    shared.supervisor.journal.record(
        worker,
        "request_panic",
        &msg,
        fingerprint.load(Ordering::Relaxed),
    );
    if let Some(mut reply) = reply {
        reply.trace.note_anomaly("panic");
        reply.error(500, "panic", &msg);
    }
}

fn handle_connection(slot: &mut Option<Reply>, fingerprint: &AtomicU64) -> ConnOutcome {
    let Some(reply) = slot.as_mut() else {
        return ConnOutcome::Done;
    };
    let shared = reply.shared;
    let io_timeout = Duration::from_millis(shared.cfg.io_timeout_ms.max(1));
    // Reading + parsing HTTP (including waiting out a slow client) is
    // the request's parse stage.
    let stream = &mut reply.stream;
    let parsed = reply.trace.time(Stage::Parse, || {
        read_request_with_timeout(stream, shared.cfg.max_body_bytes, io_timeout)
    });
    let req = match parsed {
        Ok(r) => r,
        Err(e) => {
            // Closed / transport errors have nobody to answer (the
            // flight record is still filed); protocol violations get
            // their typed status (400/408/413/414/431).
            let Some(status) = e.status() else {
                reply.complete(0);
                return ConnOutcome::Done;
            };
            let rejection = Rejection {
                status,
                retry_after: None,
                kind: "http",
                counter: Some(match status {
                    408 => "serve.http.timeout",
                    413 => "serve.http.body_too_large",
                    414 => "serve.http.line_too_long",
                    431 => "serve.http.header_limit",
                    _ => "serve.http.malformed",
                }),
                tally: Tally::BadRequest,
            };
            reply.reject(&rejection, None, &e.to_string());
            return ConnOutcome::Done;
        }
    };
    // Publish what this worker is chewing on; if the thread dies, the
    // supervisor journals this fingerprint next to the panic digest.
    let mut fp_bytes = Vec::with_capacity(req.method.len() + req.path.len() + req.body.len() + 2);
    fp_bytes.extend_from_slice(req.method.as_bytes());
    fp_bytes.push(b' ');
    fp_bytes.extend_from_slice(req.path.as_bytes());
    fp_bytes.push(b' ');
    fp_bytes.extend_from_slice(&req.body);
    fingerprint.store(fingerprint64(&fp_bytes), Ordering::Relaxed);

    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/run") => {
            if let Some((run, tenant)) = admit_run(reply, &req) {
                if let Some(reply) = slot.take() {
                    submit(reply, run, tenant);
                }
            }
        }
        ("GET", "/healthz") => reply.json(200, &healthz_body(shared)),
        ("GET", "/metrics") => {
            // Set the occupancy gauges at scrape time from the caches
            // themselves, so a scrape always sees the live totals.
            let cache = asap_core::cache_stats_full();
            asap_obs::gauge_set("cache.bytes", cache.bytes as i64);
            asap_obs::gauge_set("serve.store.bytes", shared.store.bytes() as i64);
            asap_obs::gauge_set("serve.store.entries", shared.store.entries() as i64);
            let body = asap_obs::render_metrics(&asap_obs::metrics_snapshot());
            reply.send(200, None, "text/plain; charset=utf-8", &body);
        }
        // Flight-recorder dump: retained anomalies + ring contents.
        ("GET", "/debug/requests") => {
            reply.send(200, None, "application/jsonl", &shared.flight.dump_jsonl());
        }
        // Stage breakdown for a retained (anomalous) request.
        ("GET", path) if path.starts_with("/debug/trace/") => {
            let hex = &path["/debug/trace/".len()..];
            match TraceId::parse(hex).and_then(|id| shared.flight.lookup(id)) {
                Some(rec) => reply.json(200, &rec.to_jsonl()),
                None => reply.error(
                    404,
                    "trace",
                    "trace id not retained (only anomalous requests are)",
                ),
            }
        }
        ("POST", "/control/shutdown") => {
            shared.begin_drain();
            reply.json(200, &render_error("draining", "control", "drain started"));
        }
        ("POST", "/debug/panic") if shared.cfg.enable_fault_endpoints => {
            panic!("injected panic via /debug/panic");
        }
        ("POST", "/debug/kill_worker") if shared.cfg.enable_fault_endpoints => {
            // Answer first — the death is the worker's, not the client's.
            reply.json(
                200,
                &render_error("ok", "control", "worker death scheduled"),
            );
            return ConnOutcome::KillWorker;
        }
        ("POST" | "GET", _) => reply.error(404, "http", &format!("no route {}", req.path)),
        _ => reply.error(405, "http", &req.method),
    }
    ConnOutcome::Done
}

fn healthz_body(shared: &Shared) -> String {
    let workers_alive = shared
        .supervisor
        .lock_slots()
        .iter()
        .filter(|s| s.handle.as_ref().is_some_and(|h| !h.is_finished()))
        .count();
    let mut w = ObjWriter::new();
    w.str(
        "status",
        if shared.draining.load(Ordering::Acquire) {
            "draining"
        } else {
            "ok"
        },
    )
    .usize(
        "queue_depth",
        shared.sched.conn_depth() + shared.sched.job_depth(),
    )
    .usize("conn_depth", shared.sched.conn_depth())
    .usize("job_depth", shared.sched.job_depth())
    .usize("active_lanes", shared.sched.active_lanes())
    .u64("in_flight", shared.in_flight.load(Ordering::Relaxed))
    .u64("served", shared.served.load(Ordering::Relaxed))
    .u64("rejected", shared.rejected.load(Ordering::Relaxed))
    .u64("shed_expired", shared.shed_expired.load(Ordering::Relaxed))
    .u64("brownout_level", u64::from(brownout_level(shared)))
    .u64("store_bytes", shared.store.bytes())
    .u64("store_ceiling", shared.store.ceiling())
    .usize("store_entries", shared.store.entries())
    .usize("tenants", shared.tenants.snapshot().len())
    .usize("workers", shared.cfg.workers)
    .usize("workers_alive", workers_alive)
    .u64(
        "worker_restarts",
        shared.supervisor.restarts.load(Ordering::Relaxed),
    )
    .u64(
        "consecutive_crashes",
        shared
            .supervisor
            .consecutive_crashes
            .load(Ordering::Relaxed),
    )
    .u64(
        "supervisor_backoff_ms",
        shared.supervisor.backoff_ms.load(Ordering::Relaxed),
    )
    .u64(
        "crashes_journaled",
        shared.supervisor.journal.entries.load(Ordering::Relaxed),
    );
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The process-global counters are shared by tests running in
    /// parallel, so this looks at what only this server owns.
    #[test]
    fn the_drain_wake_up_connection_is_invisible() {
        let mut server = Server::start(ServeConfig::default()).unwrap();
        server.begin_drain();
        let accept = server.accept.take().unwrap();
        let watchdog = Instant::now() + Duration::from_secs(5);
        while !accept.is_finished() {
            assert!(
                Instant::now() < watchdog,
                "the accept thread slept through the drain"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        accept.join().expect("the accept thread exits cleanly");
        let shared = &server.shared;
        assert_eq!(shared.served.load(Ordering::Relaxed), 0);
        assert_eq!(shared.rejected.load(Ordering::Relaxed), 0);
        assert_eq!(shared.sched.conn_depth(), 0);
        assert!(shared.flight.recent().is_empty(), "the wake-up got a trace");
        server.join();
    }
}
