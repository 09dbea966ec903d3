//! Server lifecycle: the accept loop, the supervised worker pool, the
//! disconnect reaper, and graceful drain-then-stop shutdown.
//!
//! Thread structure (all plain `std::thread`, joined on shutdown):
//!
//! - **accept** — non-blocking `TcpListener` polled at ~1ms. Raw
//!   connections either enter the scheduler's bounded connection FIFO
//!   or are answered 429 + `Retry-After` immediately. When draining
//!   starts, the loop closes the scheduler and exits —
//!   already-admitted work still gets served.
//! - **workers** (N) — drain the [`TenantScheduler`]: connections
//!   first (parse HTTP, classify by `X-Asap-Tenant`, run the admission
//!   ladder, submit the job), then jobs, interleaved across tenants by
//!   weighted deficit round-robin. Each request runs under
//!   `catch_unwind`: a panic becomes a 500 for that one client and a
//!   `serve.panics` tick, never a dead worker.
//! - **supervisor** — polls worker handles for death. `catch_unwind`
//!   covers request handlers, but a worker thread can still die (a
//!   panic outside the guard, an unwind-through-FFI abort path, the
//!   test-only `/debug/kill_worker`); crash-only design says the
//!   answer is restart, not hope. Each death is journaled (panic
//!   digest + fingerprint of the last request the worker read) and the
//!   worker is respawned under consecutive-crash backoff, so a
//!   crash-looping input cannot turn the pool into a fork bomb.
//! - **reaper** — polls in-flight clients with a non-blocking peek;
//!   a closed socket fires the request's [`CancelToken`], so an
//!   abandoned SpMM stops burning CPU at the budget's next poll slot
//!   instead of running to completion.
//!
//! The admission ladder for `POST /v1/run`, in order (each step is a
//! typed rejection that never reaches a later step):
//!
//! 1. tenant resolution — bad names 400, registry full 429;
//! 2. per-tenant token bucket — empty 429 + computed `Retry-After`;
//! 3. brownout — under queue pressure, first refuse inline-`.mtx`
//!    uploads (level 1), then shed lowest-weight tenants (level 2);
//! 4. parse + matrix residency — an inline matrix whose declared shape
//!    alone outweighs the store's per-entry limit is a 413 before any
//!    storage is built; store admission failures are typed 413/429 on
//!    the tenant's own account;
//! 5. lane submit — a full tenant lane is that tenant's 429; the
//!    global job cap is everyone's.
//!
//! Queued jobs whose deadline expires before a worker picks them up are
//! shed as 504 (`kind: "shed"`) without executing anything.
//!
//! Shutdown (`POST /control/shutdown` or [`Server::join`]) is
//! drain-then-stop: stop admitting, serve everything queued, join every
//! thread. No request that got a 2xx admission is dropped.

use crate::batcher::SingleFlight;
use crate::http::{drain_request, read_request_with_timeout, write_response, HttpRequest};
use crate::matrix::MatrixCatalog;
use crate::queue::{PushError, SubmitError, TenantScheduler, Work};
use crate::request::{parse_run_request, render_error, render_outcome, RequestCtx, RunRequest};
use crate::store::MatrixStore;
use crate::tenant::{TenantError, TenantQuotas, TenantRegistry, TenantState};
use asap_core::fingerprint64;
use asap_ir::CancelToken;
use asap_matrices::SizeClass;
use asap_obs::{flush_stage_metrics, FlightRecorder, ObjWriter, Stage, TraceCtx, TraceId};
use std::collections::HashMap;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Accept-loop poll interval while the listener is idle.
const ACCEPT_POLL: Duration = Duration::from_millis(1);

/// Reaper poll interval for in-flight client sockets.
const REAPER_POLL: Duration = Duration::from_millis(10);

/// Supervisor poll interval for worker-thread death.
const SUPERVISOR_POLL: Duration = Duration::from_millis(20);

/// Two crashes closer together than this count as consecutive.
const CRASH_COALESCE_MS: u64 = 5_000;

/// Restart backoff: `BASE << (consecutive-1)`, capped. A worker that
/// dies once is back in 50ms; a crash loop converges to one restart
/// every two seconds instead of a respawn storm.
const BACKOFF_BASE_MS: u64 = 50;
const BACKOFF_CAP_MS: u64 = 2_000;

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

/// JSONL crash journal: what died, why (digest + message), and what it
/// was chewing on (request fingerprint). Counting always works; the
/// file sink is optional.
struct CrashJournal {
    file: Mutex<Option<std::fs::File>>,
    entries: AtomicU64,
}

impl CrashJournal {
    fn open(path: Option<&PathBuf>) -> CrashJournal {
        let file = path.and_then(|p| {
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(p)
                .ok()
        });
        CrashJournal {
            file: Mutex::new(file),
            entries: AtomicU64::new(0),
        }
    }

    fn record(&self, worker: usize, kind: &str, message: &str, fingerprint: u64) {
        self.entries.fetch_add(1, Ordering::Relaxed);
        asap_obs::counter_inc("serve.crashes_journaled");
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let mut w = ObjWriter::new();
        w.u64("ts_ms", ts_ms)
            .usize("worker", worker)
            .str("kind", kind)
            .str(
                "digest",
                &format!("{:016x}", fingerprint64(message.as_bytes())),
            )
            .str("fingerprint", &format!("{fingerprint:016x}"))
            .str("message", message);
        let line = w.finish();
        if let Some(f) = self.file.lock().unwrap_or_else(|p| p.into_inner()).as_mut() {
            let _ = writeln!(f, "{line}");
            let _ = f.flush();
        }
    }
}

/// One supervised worker: its thread handle plus the fingerprint of the
/// last request it read (published by `handle_connection`, read by the
/// supervisor when the thread dies).
struct WorkerSlot {
    id: usize,
    fingerprint: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

struct Supervisor {
    slots: Mutex<Vec<WorkerSlot>>,
    restarts: AtomicU64,
    consecutive_crashes: AtomicU64,
    backoff_ms: AtomicU64,
    /// Milliseconds since server start of the previous crash;
    /// `u64::MAX` = never.
    last_crash_ms: AtomicU64,
    journal: CrashJournal,
}

/// In-flight socket registry the reaper sweeps.
#[derive(Default)]
struct Reaper {
    inflight: Mutex<HashMap<u64, (CancelToken, TcpStream)>>,
    next_id: AtomicU64,
}

impl Reaper {
    /// Register an executing request; the stream clone is switched to
    /// non-blocking so the sweep's peek never stalls.
    fn register(&self, token: &CancelToken, stream: &TcpStream) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        clone.set_nonblocking(true).ok()?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.inflight
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(id, (token.clone(), clone));
        Some(id)
    }

    fn unregister(&self, id: u64) {
        self.inflight
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&id);
    }

    /// One sweep: cancel every request whose client hung up.
    fn sweep(&self) {
        let g = self.inflight.lock().unwrap_or_else(|p| p.into_inner());
        let mut buf = [0u8; 1];
        for (token, stream) in g.values() {
            match stream.peek(&mut buf) {
                // EOF: the client closed its end.
                Ok(0) => {
                    if !token.is_cancelled() {
                        asap_obs::counter_inc("serve.client_disconnects");
                        token.cancel();
                    }
                }
                // Bytes pending or nothing yet: still connected.
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                // Reset / broken pipe: gone.
                Err(_) => {
                    if !token.is_cancelled() {
                        asap_obs::counter_inc("serve.client_disconnects");
                        token.cancel();
                    }
                }
            }
        }
    }
}

/// An accepted connection waiting in the conn FIFO, carrying the trace
/// context minted at accept time (queue wait starts ticking here).
struct Accepted {
    stream: TcpStream,
    trace: Arc<TraceCtx>,
}

/// A parsed `/v1/run` waiting in its tenant's lane. Holding the
/// [`RunRequest`] holds the store pin: a queued job's matrix cannot be
/// evicted out from under it.
struct Job {
    stream: TcpStream,
    run: RunRequest,
    tenant: Arc<TenantState>,
    /// Wall-clock instant the client's deadline lands (None = no
    /// deadline). Queue time counts: jobs past this are shed unrun.
    deadline_at: Option<Instant>,
    /// The request's trace context, following it across threads.
    trace: Arc<TraceCtx>,
}

struct Shared {
    cfg: ServeConfig,
    sched: TenantScheduler<Accepted, Job>,
    tenants: TenantRegistry,
    store: Arc<MatrixStore>,
    draining: AtomicBool,
    reaper_stop: AtomicBool,
    supervisor_stop: AtomicBool,
    flights: SingleFlight,
    catalog: MatrixCatalog,
    reaper: Reaper,
    supervisor: Supervisor,
    flight: FlightRecorder,
    /// Access-log sink (append mode), `None` when `--access-log` is off.
    access: Mutex<Option<std::fs::File>>,
    started: Instant,
    // Per-server health counters ( /metrics shows the process-global
    // registry; /healthz must describe *this* server instance).
    served: AtomicU64,
    rejected: AtomicU64,
    in_flight: AtomicU64,
    shed_expired: AtomicU64,
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
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let journal = CrashJournal::open(cfg.crash_journal.as_ref());
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
            reaper_stop: AtomicBool::new(false),
            supervisor_stop: AtomicBool::new(false),
            flights: SingleFlight::new(),
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
            supervisor: Supervisor {
                slots: Mutex::new(Vec::new()),
                restarts: AtomicU64::new(0),
                consecutive_crashes: AtomicU64::new(0),
                backoff_ms: AtomicU64::new(0),
                last_crash_ms: AtomicU64::new(u64::MAX),
                journal,
            },
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
            let mut slots = lock_slots(&shared.supervisor);
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
                .spawn(move || {
                    while !shared.reaper_stop.load(Ordering::Acquire) {
                        shared.reaper.sweep();
                        std::thread::sleep(REAPER_POLL);
                    }
                })?
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
        self.shared.draining.store(true, Ordering::Release);
    }

    /// Daemon mode: block until a drain is requested (via
    /// `POST /control/shutdown` or another handle's [`Server::begin_drain`]),
    /// then finish the drain and join every thread.
    pub fn run_until_drained(self) {
        while !self.shared.draining.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(50));
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
            let mut slots = lock_slots(&self.shared.supervisor);
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

fn lock_slots(sup: &Supervisor) -> std::sync::MutexGuard<'_, Vec<WorkerSlot>> {
    sup.slots.lock().unwrap_or_else(|p| p.into_inner())
}

impl Shared {
    /// Flight-recorder ring index for the accept thread (workers own
    /// rings `0..workers`; the accept loop gets the extra last ring).
    fn accept_ring(&self) -> usize {
        self.cfg.workers.max(1)
    }

    /// Mint a request trace context (dormant when telemetry is off).
    /// Shared via `Arc` so the context can move with the job while the
    /// conn path keeps a handle for its panic-500 response.
    fn new_trace(&self) -> Arc<TraceCtx> {
        Arc::new(if self.cfg.telemetry {
            TraceCtx::start()
        } else {
            TraceCtx::disabled()
        })
    }
}

/// Complete a request's telemetry: collapse the context into a
/// [`asap_obs::RequestRecord`], flush the per-stage histograms (with
/// the trace id as exemplar) and SLO counters, file the record in the
/// flight recorder's ring for `ring`, and append the access-log line.
fn complete(shared: &Shared, ring: usize, trace: &TraceCtx, status: u16) {
    if !trace.enabled() {
        return;
    }
    let rec = trace.finish(status);
    flush_stage_metrics(&rec, shared.cfg.slo_ms);
    let rec = shared.flight.record(ring, rec);
    let mut g = shared.access.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(f) = g.as_mut() {
        let _ = writeln!(f, "{}", rec.to_jsonl());
    }
}

/// Write a response stamped with `X-Asap-Trace`, attribute the write to
/// [`Stage::Write`], and complete the request's telemetry. Every
/// response the server emits — 2xx, 4xx, 5xx, any route — funnels
/// through here (or [`respond_json`]), which is what makes the trace
/// header universal.
#[allow(clippy::too_many_arguments)]
fn respond(
    shared: &Shared,
    ring: usize,
    stream: &mut TcpStream,
    trace: &TraceCtx,
    status: u16,
    extra: &[(&str, String)],
    content_type: &str,
    body: &str,
) {
    if !trace.enabled() {
        let _ = write_response(stream, status, extra, content_type, body);
        return;
    }
    let mut headers: Vec<(&str, String)> = extra.to_vec();
    headers.push(("X-Asap-Trace", trace.id().hex()));
    let t0 = Instant::now();
    let _ = write_response(stream, status, &headers, content_type, body);
    trace.add(Stage::Write, t0.elapsed().as_nanos() as u64);
    complete(shared, ring, trace, status);
}

/// [`respond`] with the JSON content type.
fn respond_json(
    shared: &Shared,
    ring: usize,
    stream: &mut TcpStream,
    trace: &TraceCtx,
    status: u16,
    extra: &[(&str, String)],
    body: &str,
) {
    respond(
        shared,
        ring,
        stream,
        trace,
        status,
        extra,
        "application/json",
        body,
    );
}

fn spawn_worker(
    shared: Arc<Shared>,
    id: usize,
    fingerprint: Arc<AtomicU64>,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name(format!("serve-worker-{id}"))
        .spawn(move || worker_loop(&shared, id, &fingerprint))
}

/// Detect dead workers, journal the crash, and respawn under backoff.
fn supervisor_loop(shared: &Arc<Shared>) {
    loop {
        if shared.supervisor_stop.load(Ordering::Acquire) {
            return;
        }
        // Claim at most one finished handle per pass (the lock is
        // released before the potentially-slow join + backoff).
        let dead = {
            let mut slots = lock_slots(&shared.supervisor);
            slots.iter_mut().find_map(|s| {
                s.handle
                    .as_ref()
                    .is_some_and(JoinHandle::is_finished)
                    .then(|| (s.id, s.handle.take().unwrap(), s.fingerprint.clone()))
            })
        };
        let Some((id, handle, fingerprint)) = dead else {
            std::thread::sleep(SUPERVISOR_POLL);
            continue;
        };
        let result = handle.join();
        if shared.draining.load(Ordering::Acquire) {
            // Normal drain exit (or a crash racing the drain — either
            // way nobody needs this worker back).
            continue;
        }
        let message = match &result {
            Ok(()) => "worker exited unexpectedly".to_string(),
            Err(payload) => panic_message(payload.as_ref()),
        };
        shared.supervisor.journal.record(
            id,
            "worker_crash",
            &message,
            fingerprint.load(Ordering::Relaxed),
        );
        // Dump the flight recorder alongside the crash journal: the
        // retained anomalies plus recent rings are exactly the context
        // a post-mortem needs next to the panic digest.
        if let Some(journal_path) = shared.cfg.crash_journal.as_ref() {
            let sidecar = format!("{}.flight.jsonl", journal_path.display());
            let _ = std::fs::write(sidecar, shared.flight.dump_jsonl());
        }

        // Consecutive-crash backoff: crashes spaced under the coalesce
        // window escalate the delay geometrically up to the cap.
        let now_ms = shared.started.elapsed().as_millis() as u64;
        let last = shared
            .supervisor
            .last_crash_ms
            .swap(now_ms, Ordering::Relaxed);
        let consecutive = if last != u64::MAX && now_ms.saturating_sub(last) < CRASH_COALESCE_MS {
            shared
                .supervisor
                .consecutive_crashes
                .fetch_add(1, Ordering::Relaxed)
                + 1
        } else {
            shared
                .supervisor
                .consecutive_crashes
                .store(1, Ordering::Relaxed);
            1
        };
        let backoff = (BACKOFF_BASE_MS << (consecutive - 1).min(8)).min(BACKOFF_CAP_MS);
        shared
            .supervisor
            .backoff_ms
            .store(backoff, Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(backoff));
        if shared.draining.load(Ordering::Acquire) || shared.supervisor_stop.load(Ordering::Acquire)
        {
            continue;
        }

        fingerprint.store(0, Ordering::Relaxed);
        if let Ok(h) = spawn_worker(shared.clone(), id, fingerprint) {
            let mut slots = lock_slots(&shared.supervisor);
            if let Some(slot) = slots.iter_mut().find(|s| s.id == id) {
                slot.handle = Some(h);
                shared.supervisor.restarts.fetch_add(1, Ordering::Relaxed);
                asap_obs::counter_inc("serve.worker_restarts");
            }
        }
    }
}

fn accept_loop(listener: TcpListener, shared: &Shared) {
    loop {
        if shared.draining.load(Ordering::Acquire) {
            // Stop admitting; wake workers to drain what's queued.
            shared.sched.close();
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                asap_obs::counter_inc("serve.accepted");
                // The accepted socket must block normally for the
                // worker's reads regardless of listener flags.
                let _ = stream.set_nonblocking(false);
                admit(stream, shared);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            // Transient accept failure (EMFILE, aborted handshake):
            // back off and keep serving.
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

fn admit(stream: TcpStream, shared: &Shared) {
    let trace = shared.new_trace();
    trace.mark_queued();
    match shared.sched.try_push_conn(Accepted { stream, trace }) {
        Ok(depth) => {
            asap_obs::gauge_set("serve.queue_depth", depth as i64);
            asap_obs::counter_set_max("serve.queue_depth_peak", depth as u64);
        }
        Err(PushError::Full(mut acc)) => {
            shared.rejected.fetch_add(1, Ordering::Relaxed);
            asap_obs::counter_inc("serve.rejected");
            drain_request(&mut acc.stream, shared.cfg.max_body_bytes);
            respond_json(
                shared,
                shared.accept_ring(),
                &mut acc.stream,
                &acc.trace,
                429,
                &[("Retry-After", "1".to_string())],
                &render_error("overloaded", "admission", "queue full; retry after 1s"),
            );
        }
        Err(PushError::Closed(mut acc)) => {
            drain_request(&mut acc.stream, shared.cfg.max_body_bytes);
            respond_json(
                shared,
                shared.accept_ring(),
                &mut acc.stream,
                &acc.trace,
                503,
                &[],
                &render_error("draining", "admission", "server is shutting down"),
            );
        }
    }
}

fn worker_loop(shared: &Shared, id: usize, fingerprint: &AtomicU64) {
    while let Some(work) = shared.sched.next_work() {
        match work {
            Work::Conn(acc) => {
                asap_obs::gauge_set("serve.queue_depth", shared.sched.conn_depth() as i64);
                let Accepted { stream, trace } = acc;
                trace.end_queued();
                // The slot keeps the stream reachable across a panic in
                // the handler, so the client still gets its 500; the
                // /v1/run path takes it out to move it into a job.
                let mut slot = Some(stream);
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    handle_connection(shared, &mut slot, &trace, fingerprint, id)
                }));
                shared.sched.done_conn();
                match outcome {
                    Ok(ConnOutcome::Done) => {}
                    // Deliberate thread death, *outside* catch_unwind:
                    // the supervisor must notice, journal, and respawn.
                    Ok(ConnOutcome::KillWorker) => {
                        panic!("worker {id} killed via /debug/kill_worker");
                    }
                    Err(payload) => {
                        asap_obs::counter_inc("serve.panics");
                        let msg = panic_message(payload.as_ref());
                        shared.supervisor.journal.record(
                            id,
                            "request_panic",
                            &msg,
                            fingerprint.load(Ordering::Relaxed),
                        );
                        if let Some(mut stream) = slot.take() {
                            trace.note_anomaly("panic");
                            respond_json(
                                shared,
                                id,
                                &mut stream,
                                &trace,
                                500,
                                &[],
                                &render_error("panic", "panic", &msg),
                            );
                        }
                    }
                }
            }
            Work::Job(job) => {
                asap_obs::gauge_set("serve.jobs_depth", shared.sched.job_depth() as i64);
                shared.in_flight.fetch_add(1, Ordering::Relaxed);
                asap_obs::gauge_add("serve.in_flight", 1);
                let Job {
                    mut stream,
                    run,
                    tenant,
                    deadline_at,
                    trace,
                } = job;
                trace.end_queued();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    execute_run(shared, &mut stream, &run, &tenant, deadline_at, &trace, id)
                }));
                asap_obs::gauge_sub("serve.in_flight", 1);
                shared.in_flight.fetch_sub(1, Ordering::Relaxed);
                if let Err(payload) = outcome {
                    asap_obs::counter_inc("serve.panics");
                    let msg = panic_message(payload.as_ref());
                    shared.supervisor.journal.record(
                        id,
                        "request_panic",
                        &msg,
                        fingerprint.load(Ordering::Relaxed),
                    );
                    trace.note_anomaly("panic");
                    respond_json(
                        shared,
                        id,
                        &mut stream,
                        &trace,
                        500,
                        &[],
                        &render_error("panic", "panic", &msg),
                    );
                }
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "request handler panicked".to_string()
    }
}

fn handle_connection(
    shared: &Shared,
    slot: &mut Option<TcpStream>,
    trace: &Arc<TraceCtx>,
    fingerprint: &AtomicU64,
    ring: usize,
) -> ConnOutcome {
    let io_timeout = Duration::from_millis(shared.cfg.io_timeout_ms.max(1));
    let req = {
        let stream = slot.as_mut().expect("worker slot holds the connection");
        // Reading + parsing HTTP (including waiting out a slow client)
        // is the request's parse stage.
        let parsed = trace.time(Stage::Parse, || {
            read_request_with_timeout(stream, shared.cfg.max_body_bytes, io_timeout)
        });
        match parsed {
            Ok(r) => r,
            Err(e) => {
                // Closed / transport errors have nobody to answer;
                // protocol violations get their typed status
                // (400/408/413/414/431).
                if let Some(status) = e.status() {
                    asap_obs::counter_inc("serve.bad_requests");
                    asap_obs::counter_inc(match status {
                        408 => "serve.http.timeout",
                        413 => "serve.http.body_too_large",
                        414 => "serve.http.line_too_long",
                        431 => "serve.http.header_limit",
                        _ => "serve.http.malformed",
                    });
                    let label = match status {
                        408 => "timeout",
                        413 => "payload_too_large",
                        414 => "uri_too_long",
                        431 => "header_fields_too_large",
                        _ => "bad_request",
                    };
                    respond_json(
                        shared,
                        ring,
                        stream,
                        trace,
                        status,
                        &[],
                        &render_error(label, "http", &e.to_string()),
                    );
                } else {
                    // Nobody to answer; still file the flight record.
                    complete(shared, ring, trace, 0);
                }
                return ConnOutcome::Done;
            }
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

    if req.method == "POST" && req.path == "/v1/run" {
        admit_run(shared, slot, trace, &req, ring);
        return ConnOutcome::Done;
    }
    let stream = slot.as_mut().expect("worker slot holds the connection");
    if req.method == "GET" {
        if let Some(hex) = req.path.strip_prefix("/debug/trace/") {
            // Stage breakdown for a retained (anomalous) request.
            match TraceId::parse(hex).and_then(|id| shared.flight.lookup(id)) {
                Some(rec) => {
                    respond_json(shared, ring, stream, trace, 200, &[], &rec.to_jsonl());
                }
                None => {
                    respond_json(
                        shared,
                        ring,
                        stream,
                        trace,
                        404,
                        &[],
                        &render_error(
                            "not_found",
                            "trace",
                            "trace id not retained (only anomalous requests are)",
                        ),
                    );
                }
            }
            return ConnOutcome::Done;
        }
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            respond_json(shared, ring, stream, trace, 200, &[], &healthz_body(shared));
        }
        ("GET", "/metrics") => {
            // Refresh the occupancy gauges from the authoritative
            // per-shard counters at scrape time, so a scrape always sees
            // the live totals even if no traffic updated the gauges
            // recently.
            let cache = asap_core::cache_stats_full();
            asap_obs::gauge_set("cache.bytes", cache.bytes as i64);
            asap_obs::gauge_set("serve.store.bytes", shared.store.bytes() as i64);
            asap_obs::gauge_set("serve.store.entries", shared.store.entries() as i64);
            let body = asap_obs::render_metrics_all();
            respond(
                shared,
                ring,
                stream,
                trace,
                200,
                &[],
                "text/plain; charset=utf-8",
                &body,
            );
        }
        ("GET", "/debug/requests") => {
            // Flight-recorder dump: retained anomalies + ring contents.
            let body = shared.flight.dump_jsonl();
            respond(
                shared,
                ring,
                stream,
                trace,
                200,
                &[],
                "application/jsonl",
                &body,
            );
        }
        ("POST", "/control/shutdown") => {
            shared.draining.store(true, Ordering::Release);
            respond_json(
                shared,
                ring,
                stream,
                trace,
                200,
                &[],
                &render_error("draining", "control", "drain started"),
            );
        }
        ("POST", "/debug/panic") if shared.cfg.enable_fault_endpoints => {
            panic!("injected panic via /debug/panic");
        }
        ("POST", "/debug/kill_worker") if shared.cfg.enable_fault_endpoints => {
            // Answer first — the death is the worker's, not the client's.
            respond_json(
                shared,
                ring,
                stream,
                trace,
                200,
                &[],
                &render_error("ok", "control", "worker death scheduled"),
            );
            return ConnOutcome::KillWorker;
        }
        ("POST" | "GET", _) => {
            respond_json(
                shared,
                ring,
                stream,
                trace,
                404,
                &[],
                &render_error("not_found", "http", &format!("no route {}", req.path)),
            );
        }
        _ => {
            respond_json(
                shared,
                ring,
                stream,
                trace,
                405,
                &[],
                &render_error("method_not_allowed", "http", &req.method),
            );
        }
    }
    ConnOutcome::Done
}

/// Write a rejection with an optional `Retry-After` and account it.
#[allow(clippy::too_many_arguments)]
fn bounce(
    shared: &Shared,
    ring: usize,
    stream: &mut TcpStream,
    trace: &TraceCtx,
    status: u16,
    retry_after_secs: Option<u64>,
    status_label: &str,
    kind: &str,
    message: &str,
) {
    let extra: Vec<(&str, String)> = match retry_after_secs {
        Some(s) => vec![("Retry-After", s.to_string())],
        None => Vec::new(),
    };
    respond_json(
        shared,
        ring,
        stream,
        trace,
        status,
        &extra,
        &render_error(status_label, kind, message),
    );
}

/// The brownout ladder's current level from global job-queue pressure:
/// 0 below half the job bound, 1 (shed inline uploads) at ≥ 1/2,
/// 2 (also shed lowest-weight tenants) at ≥ 3/4.
fn brownout_level(shared: &Shared) -> u8 {
    let depth = shared.sched.job_depth();
    let bound = shared.sched.job_bound();
    let level = if depth * 4 >= bound * 3 {
        2
    } else if depth * 2 >= bound {
        1
    } else {
        0
    };
    asap_obs::gauge_set("serve.brownout.level", i64::from(level));
    level
}

/// The admission ladder for one `POST /v1/run` (see module docs):
/// tenant → token bucket → brownout → parse/residency → lane submit.
/// Success moves the stream into a queued [`Job`]; every failure writes
/// its typed rejection here and now.
fn admit_run(
    shared: &Shared,
    slot: &mut Option<TcpStream>,
    trace: &Arc<TraceCtx>,
    req: &HttpRequest,
    ring: usize,
) {
    let stream = slot.as_mut().expect("worker slot holds the connection");
    // Quota stage: tenant resolution, token bucket, brownout. Ends when
    // the ladder reaches parsing (or bounces).
    let quota_start = Instant::now();
    let quota_ns = |t0: Instant| t0.elapsed().as_nanos() as u64;
    let tenant = match shared.tenants.resolve(req.header("x-asap-tenant")) {
        Ok(t) => t,
        Err(e @ TenantError::BadName(_)) => {
            asap_obs::counter_inc("serve.bad_requests");
            trace.add(Stage::Quota, quota_ns(quota_start));
            bounce(
                shared,
                ring,
                stream,
                trace,
                400,
                None,
                "bad_request",
                "tenant",
                &e.to_string(),
            );
            return;
        }
        Err(e @ TenantError::TooMany(_)) => {
            shared.rejected.fetch_add(1, Ordering::Relaxed);
            asap_obs::counter_inc("serve.rejected");
            asap_obs::counter_inc("serve.tenant_rejected");
            trace.add(Stage::Quota, quota_ns(quota_start));
            bounce(
                shared,
                ring,
                stream,
                trace,
                429,
                Some(5),
                "overloaded",
                "tenant",
                &e.to_string(),
            );
            return;
        }
    };
    trace.set_tenant(&tenant.name);
    if let Err(retry_after) = tenant.try_admit() {
        tenant.count_rejected();
        shared.rejected.fetch_add(1, Ordering::Relaxed);
        asap_obs::counter_inc("serve.rejected");
        asap_obs::counter_inc("serve.quota_rejected");
        trace.add(Stage::Quota, quota_ns(quota_start));
        bounce(
            shared,
            ring,
            stream,
            trace,
            429,
            Some(retry_after),
            "overloaded",
            "quota",
            &format!(
                "tenant {:?} is over its request rate; retry after {retry_after}s",
                tenant.name
            ),
        );
        return;
    }
    let level = brownout_level(shared);
    if level >= 2 {
        // Shed lowest-weight tenants — but only when weights actually
        // differ; with one weight class there is nobody "lowest".
        let (min_w, max_w) = shared.tenants.weight_band();
        if min_w < max_w && tenant.weight == min_w {
            tenant.count_shed();
            shared.rejected.fetch_add(1, Ordering::Relaxed);
            asap_obs::counter_inc("serve.rejected");
            asap_obs::counter_inc("serve.brownout.shed");
            trace.add(Stage::Quota, quota_ns(quota_start));
            trace.note_anomaly("shed");
            bounce(
                shared,
                ring,
                stream,
                trace,
                429,
                Some(1),
                "overloaded",
                "brownout",
                "server is under sustained pressure and shedding low-weight tenants; retry later",
            );
            return;
        }
    }
    trace.add(Stage::Quota, quota_ns(quota_start));
    let ctx = RequestCtx {
        catalog: &shared.catalog,
        store: &shared.store,
        tenant: &tenant,
        default_deadline_ms: shared.cfg.default_deadline_ms,
        exec_bytes: shared.cfg.exec_bytes,
        allow_inline: level == 0,
        trace: Some(trace.as_ref()),
    };
    // Body parsing and matrix residency interleave inside
    // `parse_run_request` (the store work is timed by the ctx's trace
    // ref); the remainder of the call is the parse stage proper.
    let store_before = trace.stage_ns(Stage::Store);
    let parse_start = Instant::now();
    let parsed = parse_run_request(&req.body, &ctx);
    let parse_total = parse_start.elapsed().as_nanos() as u64;
    let store_delta = trace.stage_ns(Stage::Store).saturating_sub(store_before);
    trace.add(Stage::Parse, parse_total.saturating_sub(store_delta));
    let run = match parsed {
        Ok(r) => r,
        Err(rej) => {
            let status = rej.status();
            if status == 400 {
                asap_obs::counter_inc("serve.bad_requests");
            } else {
                tenant.count_rejected();
                shared.rejected.fetch_add(1, Ordering::Relaxed);
                asap_obs::counter_inc("serve.rejected");
                if rej.kind() == "brownout" {
                    asap_obs::counter_inc("serve.brownout.inline_rejected");
                }
            }
            let label = match status {
                400 => "bad_request",
                413 => "payload_too_large",
                _ => "overloaded",
            };
            let retry = (status == 429).then_some(1);
            bounce(
                shared,
                ring,
                stream,
                trace,
                status,
                retry,
                label,
                rej.kind(),
                &rej.message(),
            );
            return;
        }
    };
    trace.set_request(
        run.kernel.label(),
        fingerprint64(run.matrix_label.as_bytes()),
    );
    let deadline_at =
        (run.deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(run.deadline_ms));
    let stream = slot.take().expect("worker slot holds the connection");
    let weight = tenant.weight;
    let name = tenant.name.clone();
    // The job leaves this thread with a handle to the same context.
    // Queue wait in the tenant lane starts now.
    trace.mark_queued();
    let job = Job {
        stream,
        run,
        tenant,
        deadline_at,
        trace: trace.clone(),
    };
    match shared.sched.submit_job(&name, weight, job) {
        Ok(depth) => {
            asap_obs::gauge_set("serve.jobs_depth", depth as i64);
            asap_obs::counter_set_max("serve.jobs_depth_peak", depth as u64);
        }
        Err(SubmitError::TenantFull(job)) => {
            let Job {
                mut stream,
                tenant,
                trace,
                ..
            } = job;
            tenant.count_rejected();
            shared.rejected.fetch_add(1, Ordering::Relaxed);
            asap_obs::counter_inc("serve.rejected");
            asap_obs::counter_inc("serve.lane_rejected");
            bounce(
                shared,
                ring,
                &mut stream,
                &trace,
                429,
                Some(1),
                "overloaded",
                "admission",
                &format!("tenant {name:?} queue is full; retry after 1s"),
            );
        }
        Err(SubmitError::TotalFull(job)) => {
            let Job {
                mut stream,
                tenant,
                trace,
                ..
            } = job;
            tenant.count_rejected();
            shared.rejected.fetch_add(1, Ordering::Relaxed);
            asap_obs::counter_inc("serve.rejected");
            bounce(
                shared,
                ring,
                &mut stream,
                &trace,
                429,
                Some(1),
                "overloaded",
                "admission",
                "job queue is full; retry after 1s",
            );
        }
    }
}

fn healthz_body(shared: &Shared) -> String {
    let workers_alive = {
        let slots = lock_slots(&shared.supervisor);
        slots
            .iter()
            .filter(|s| s.handle.as_ref().is_some_and(|h| !h.is_finished()))
            .count()
    };
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

/// Execute a popped job — or shed it with a 504 if its deadline expired
/// while it sat in the lane (a worker writes the response but never
/// pays compile/execute/delay for a request nobody is waiting on).
fn execute_run(
    shared: &Shared,
    stream: &mut TcpStream,
    run: &RunRequest,
    tenant: &Arc<TenantState>,
    deadline_at: Option<Instant>,
    trace: &TraceCtx,
    ring: usize,
) {
    let now = Instant::now();
    if let Some(d) = deadline_at {
        if now >= d {
            shared.shed_expired.fetch_add(1, Ordering::Relaxed);
            asap_obs::counter_inc("serve.shed.expired");
            asap_obs::counter_inc("serve.deadline_exceeded");
            tenant.count_shed();
            trace.note_anomaly("shed");
            respond_json(
                shared,
                ring,
                stream,
                trace,
                504,
                &[],
                &render_error(
                    "deadline_exceeded",
                    "shed",
                    "deadline expired while queued; request shed unrun",
                ),
            );
            return;
        }
    }
    if shared.cfg.worker_delay_ms > 0 {
        // The injected delay models slow kernel work: exec stage.
        trace.time(Stage::Exec, || {
            std::thread::sleep(Duration::from_millis(shared.cfg.worker_delay_ms));
        });
    }
    // Queue time already spent counts against the client's deadline:
    // budget with what is left, not the original span.
    let remaining_ms = deadline_at
        .map(|d| d.saturating_duration_since(Instant::now()).as_millis() as u64)
        .unwrap_or(0);
    let cancel = CancelToken::new();
    let reaper_id = shared.reaper.register(&cancel, stream);
    let result = trace
        .time(Stage::Compile, || {
            shared
                .flights
                .compile(run.kernel, run.sparse(), &run.strategy)
        })
        .and_then(|(ck, cache_hit, compile_ns)| {
            trace.time(Stage::Exec, || {
                asap_core::execute_request(
                    &ck,
                    run.kernel,
                    run.sparse(),
                    run.engine,
                    &run.budget_with_remaining(&cancel, remaining_ms),
                    cache_hit,
                    compile_ns,
                )
            })
        });
    if let Some(id) = reaper_id {
        shared.reaper.unregister(id);
    }
    match result {
        Ok(outcome) => {
            shared.served.fetch_add(1, Ordering::Relaxed);
            tenant.count_served();
            asap_obs::counter_inc("serve.served");
            asap_obs::histogram_record("serve.exec_ns", outcome.exec_ns);
            if run.resident.store_hit {
                asap_obs::counter_inc("serve.served_store_hits");
            }
            let body = render_outcome(run, &outcome, Some(trace));
            respond_json(shared, ring, stream, trace, 200, &[], &body);
        }
        // A tripped budget is governed termination, not failure: the
        // deadline (or the client disconnecting, via the cancel token)
        // stopped the run. 504 mirrors a gateway timeout.
        Err(e) if e.kind() == "budget" => {
            asap_obs::counter_inc("serve.deadline_exceeded");
            trace.note_anomaly("deadline");
            respond_json(
                shared,
                ring,
                stream,
                trace,
                504,
                &[],
                &render_error("deadline_exceeded", e.kind(), &e.to_string()),
            );
        }
        // Anything else the pipeline rejects (bad spec, binding) is a
        // property of the request.
        Err(e) => {
            asap_obs::counter_inc("serve.bad_requests");
            respond_json(
                shared,
                ring,
                stream,
                trace,
                400,
                &[],
                &render_error("bad_request", e.kind(), &e.to_string()),
            );
        }
    }
}
