//! `serve_small`, `serve_resident` and `serve_upload`: closed-loop
//! clients against an in-process `asap_serve::Server` over loopback.
//!
//! An op is one `POST /v1/run`, one connection. Each client sends its
//! next request only when the previous reply has arrived. A measured
//! phase is `segments` back-to-back segments of `ops_per_segment` ops.

use crate::procfs::ProcSample;
use crate::reference::{Checksums, Reply};
use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats;
use asap_core::{
    checksum_f64, fingerprint64, serve_request, service_x, ExecEngine, PrefetchStrategy,
    ServiceKernel, ServiceOutcome,
};
use asap_ir::Budget;
use asap_matrices::{gen, read_matrix_market, write_matrix_market, Rng64, SizeClass, Triplets};
use asap_obs::{parse_json, Json};
use asap_serve::http::read_request;
use asap_serve::{
    parse_run_request, render_outcome, HttpReply, MatrixCatalog, MatrixStore, RequestCtx,
    ServeConfig, Server, SingleFlight, TenantQuotas, TenantRegistry,
};
use asap_sparsifier::{bind, read_back};
use asap_tensor::{DenseTensor, Format, SparseTensor, ValueKind};
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(20);
/// Connections one run may open. Every op is a connection and a closed
/// one lingers in TIME_WAIT; far below the ephemeral port range, a run
/// can never be starved of ports by its own history.
pub const MAX_CONNECTIONS: usize = 25_000;
const UPLOAD_STORE_BYTES: u64 = 64 * 1024 * 1024;
/// The store caps one entry at an eighth of its ceiling (one shard), so
/// the default 64 MiB would answer the 12.8 MB resident with a 413.
const RESIDENT_STORE_BYTES: u64 = 128 * 1024 * 1024;
const UPLOAD_TEMPLATES: usize = 8;
/// One op in `FRESH_EVERY` of `serve_upload` carries a never-seen body.
const FRESH_EVERY: usize = 4;
const NULL_RTT_OPS: usize = 200;
const STAGES: [&str; 6] = ["parse", "quota", "queue_wait", "store", "compile", "exec"];

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServeKind {
    Small,
    Resident,
    Upload,
}

pub struct ServePlan {
    pub kind: ServeKind,
    pub clients: usize,
    pub warmup: usize,
    /// Measured segments of the end-to-end run.
    pub segments: usize,
    pub ops_per_segment: usize,
    /// Socket segments of the traced run, untraced then traced.
    pub plain_segments: usize,
    pub traced_segments: usize,
    pub traced_ops_per_segment: usize,
    /// Ops replayed in-process, layer by layer.
    pub replay_ops: usize,
}

impl ServePlan {
    fn matrix(&self) -> &'static str {
        match self.kind {
            ServeKind::Small => "gen:er:512:4",
            ServeKind::Resident => "gen:er:65536:16",
            ServeKind::Upload => "inline",
        }
    }

    fn config(&self) -> ServeConfig {
        let mut cfg = ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        };
        match self.kind {
            ServeKind::Small => {}
            ServeKind::Resident => cfg.store_bytes = RESIDENT_STORE_BYTES,
            ServeKind::Upload => {
                cfg.store_bytes = UPLOAD_STORE_BYTES;
                cfg.tenant_store_bytes = 0;
            }
        }
        cfg
    }

    fn connections(&self, ops: usize) -> usize {
        self.warmup + ops + NULL_RTT_OPS + 8
    }
}

/// One request body the workload can send, and what the reply must say.
struct Template {
    /// The JSON body up to and including the MatrixMarket banner line;
    /// a fresh upload splices a unique comment line in after it.
    head: String,
    tail: String,
    /// What the reply must say: from `reference/checksums.json` for a
    /// named matrix, from the tree-walking interpreter for an upload.
    expect: Reply,
}

impl Template {
    fn body(&self, fresh: Option<u64>) -> String {
        match fresh {
            None => [self.head.as_str(), self.tail.as_str()].concat(),
            // `\\n`: the newline as JSON escapes it inside the string.
            Some(id) => format!("{}% fresh upload {id:016x}\\n{}", self.head, self.tail),
        }
    }
}

struct Inputs {
    templates: Vec<Template>,
    /// The matrices behind the upload templates, for their oracle.
    uploads: Vec<Triplets>,
}

fn named_template(matrix: &str, sums: &Checksums) -> Result<Template, String> {
    Ok(Template {
        head: format!("{{\"kernel\":\"spmv\",\"matrix\":\"{matrix}\"}}"),
        tail: String::new(),
        expect: sums.of(matrix)?.clone(),
    })
}

fn to_csr(tri: &Triplets) -> Result<SparseTensor, String> {
    let coo = tri.try_to_coo_f64().map_err(|e| e.to_string())?;
    SparseTensor::try_from_coo(&coo, Format::csr()).map_err(|e| e.to_string())
}

/// What the server must answer for `sparse`, from the engine the
/// server never picks on its own.
pub fn oracle_reply(sparse: &SparseTensor) -> Result<Reply, String> {
    let outcome = serve_request(
        ServiceKernel::Spmv,
        sparse,
        &PrefetchStrategy::asap(45),
        ExecEngine::TreeWalk,
        &Budget::unlimited(),
    )
    .map_err(|e| e.to_string())?;
    Ok(Reply {
        checksum: format!("{:016x}", outcome.checksum),
        nnz: outcome.nnz,
        rows: outcome.rows,
    })
}

/// An inline-upload template: a seeded `erdos_renyi(2048, 8)` written
/// as MatrixMarket inside a `/v1/run` body. `expect` is filled in later,
/// outside the timed set-up (the oracle is the harness's cost).
fn upload_template(seed: u64, index: usize) -> Result<(Template, Triplets), String> {
    let tri = gen::erdos_renyi(
        2048,
        8,
        seed.wrapping_mul(UPLOAD_TEMPLATES as u64) + index as u64,
    );
    let mut mtx = Vec::new();
    write_matrix_market(&tri, &mut mtx).map_err(|e| e.to_string())?;
    let mtx = String::from_utf8(mtx).map_err(|e| e.to_string())?;
    let body = format!(
        "{{\"kernel\":\"spmv\",\"mtx\":\"{}\"}}",
        asap_obs::json::escape(&mtx)
    );
    let banner_end = body.find("\\n").ok_or("template has no banner line")? + 2;
    let (head, tail) = body.split_at(banner_end);
    let template = Template {
        head: head.to_string(),
        tail: tail.to_string(),
        expect: Reply::default(),
    };
    Ok((template, tri))
}

fn generate(plan: &ServePlan, seed: u64, sums: &Checksums) -> Result<Inputs, String> {
    if plan.kind != ServeKind::Upload {
        return Ok(Inputs {
            templates: vec![named_template(plan.matrix(), sums)?],
            uploads: Vec::new(),
        });
    }
    let (mut templates, mut uploads) = (Vec::new(), Vec::new());
    for i in 0..UPLOAD_TEMPLATES {
        let (template, tri) = upload_template(seed, i)?;
        templates.push(template);
        uploads.push(tri);
    }
    Ok(Inputs { templates, uploads })
}

/// Fill in what the replies to the upload templates must say.
fn resolve_upload_oracles(inputs: &mut Inputs) -> Result<(), String> {
    for (t, tri) in inputs.templates.iter_mut().zip(&inputs.uploads) {
        t.expect = oracle_reply(&to_csr(tri)?)?;
    }
    Ok(())
}

#[derive(Debug, Clone, Copy)]
struct OpSpec {
    template: usize,
    fresh: Option<u64>,
}

/// The seeded op schedule: which template each op sends and, on
/// `serve_upload`, which one op in every `FRESH_EVERY` is fresh.
struct Schedule {
    rng: Rng64,
    templates: usize,
    upload: bool,
    next_fresh: u64,
}

impl Schedule {
    fn new(plan: &ServePlan, inputs: &Inputs, seed: u64) -> Schedule {
        Schedule {
            rng: Rng64::seed_from_u64(seed ^ 0x5E55_10AD),
            templates: inputs.templates.len(),
            upload: plan.kind == ServeKind::Upload,
            // Unique across runs of one seed only by the store being
            // new each run; unique within a run by counting.
            next_fresh: seed << 32,
        }
    }

    fn take(&mut self, n: usize) -> Vec<OpSpec> {
        let mut ops = Vec::with_capacity(n);
        let mut fresh_slot = 0;
        for i in 0..n {
            if i % FRESH_EVERY == 0 {
                fresh_slot = self.rng.usize_below(FRESH_EVERY);
            }
            let fresh = (self.upload && i % FRESH_EVERY == fresh_slot).then(|| {
                self.next_fresh += 1;
                self.next_fresh
            });
            ops.push(OpSpec {
                template: self.rng.usize_below(self.templates),
                fresh,
            });
        }
        ops
    }

    /// Warm-up ops: every template once in order (so each is resident),
    /// then the seeded mix.
    fn warmup(&mut self, n: usize) -> Vec<OpSpec> {
        let mut ops: Vec<OpSpec> = (0..self.templates.min(n))
            .map(|template| OpSpec {
                template,
                fresh: None,
            })
            .collect();
        let rest = self.take(n - ops.len());
        ops.extend(rest);
        ops
    }
}

/// One op as a client saw it.
struct Sample {
    start: Instant,
    replied: Instant,
    done: Instant,
    fresh: bool,
    verdict: Result<(), String>,
    /// The daemon's stage clocks from the 200 body, ns, in `STAGES` order.
    stage_ns: Option<[u64; 6]>,
}

impl Sample {
    fn ms(&self) -> f64 {
        self.replied.duration_since(self.start).as_secs_f64() * 1e3
    }
}

/// Connect failures are the harness running out of road (ports, a dead
/// server), not the program failing an op.
fn is_harness_error(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::AddrNotAvailable
            | std::io::ErrorKind::AddrInUse
            | std::io::ErrorKind::ConnectionRefused
    )
}

fn verify(reply: &HttpReply, t: &Template, stages: bool) -> (Result<(), String>, Option<[u64; 6]>) {
    if reply.status != 200 {
        let body: String = reply.body.chars().take(160).collect();
        return (Err(format!("status {}: {body}", reply.status)), None);
    }
    let Ok(j) = parse_json(&reply.body) else {
        return (Err("200 body is not JSON".into()), None);
    };
    let text = |f: &str| j.get(f).and_then(Json::as_str).unwrap_or("");
    let count = |f: &str| j.get(f).and_then(Json::as_usize);
    let verdict = if text("status") != "ok" {
        Err(format!("status field {:?}", text("status")))
    } else if text("checksum") != t.expect.checksum {
        Err(format!(
            "checksum {} but the oracle says {}",
            text("checksum"),
            t.expect.checksum
        ))
    } else if count("nnz") != Some(t.expect.nnz) || count("rows") != Some(t.expect.rows) {
        Err(format!(
            "nnz/rows {:?}/{:?}, expected {}/{}",
            count("nnz"),
            count("rows"),
            t.expect.nnz,
            t.expect.rows
        ))
    } else {
        Ok(())
    };
    let stage_ns = stages
        .then(|| {
            let s = j.get("stage_ns")?;
            let mut ns = [0u64; 6];
            for (slot, name) in ns.iter_mut().zip(STAGES) {
                *slot = s.get(name)?.as_u64()?;
            }
            Some(ns)
        })
        .flatten();
    (verdict, stage_ns)
}

/// One client's closed loop over `ops`.
fn drive(
    addr: SocketAddr,
    inputs: &Inputs,
    ops: &[OpSpec],
    stages: bool,
    abort: &AtomicBool,
) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::with_capacity(ops.len());
    for op in ops {
        if abort.load(Ordering::Relaxed) {
            break;
        }
        let template = &inputs.templates[op.template];
        let body = template.body(op.fresh);
        let start = Instant::now();
        let reply = asap_serve::post(addr, "/v1/run", &body, TIMEOUT);
        let replied = Instant::now();
        let (verdict, stage_ns) = match &reply {
            Ok(r) => verify(r, template, stages),
            Err(e) if is_harness_error(e) => {
                abort.store(true, Ordering::Relaxed);
                return Err(format!("harness error: connect to {addr}: {e}"));
            }
            Err(e) => (Err(format!("transport: {e}")), None),
        };
        samples.push(Sample {
            start,
            replied,
            done: Instant::now(),
            fresh: op.fresh.is_some(),
            verdict,
            stage_ns,
        });
    }
    Ok(samples)
}

struct Segment {
    wall_s: f64,
    samples: Vec<Sample>,
}

impl Segment {
    fn ops_per_s(&self) -> f64 {
        self.samples.len() as f64 / self.wall_s
    }
}

/// Run `segments` segments with `plan.clients` persistent client
/// threads. A barrier opens and closes each segment, so its wall time
/// runs from the moment all clients are released to the moment the last
/// one has its last reply.
fn run_segments(
    plan: &ServePlan,
    addr: SocketAddr,
    inputs: &Inputs,
    schedule: &mut Schedule,
    (segments, ops_per_segment): (usize, usize),
    stages: bool,
) -> Result<(Vec<Segment>, ProcSample, ProcSample), String> {
    let clients = plan.clients;
    let per_client = ops_per_segment / clients;
    let work: Vec<Vec<Vec<OpSpec>>> = (0..segments)
        .map(|_| (0..clients).map(|_| schedule.take(per_client)).collect())
        .collect();
    let gate = Barrier::new(clients + 1);
    let abort = AtomicBool::new(false);
    let error = Mutex::new(None);
    let mut walls = Vec::with_capacity(segments);
    let (mut before, mut after) = (ProcSample::default(), ProcSample::default());
    let per_client_samples: Vec<Vec<Vec<Sample>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (work, gate, abort, error) = (&work, &gate, &abort, &error);
                s.spawn(move || {
                    let mut mine = Vec::with_capacity(segments);
                    for seg in work {
                        gate.wait();
                        match drive(addr, inputs, &seg[c], stages, abort) {
                            Ok(samples) => mine.push(samples),
                            Err(e) => {
                                *error.lock().unwrap_or_else(|p| p.into_inner()) = Some(e);
                                mine.push(Vec::new());
                            }
                        }
                        gate.wait();
                    }
                    mine
                })
            })
            .collect();
        // All client threads are alive between the first and the last
        // gate, which is where the per-thread switch counts are read.
        for seg in 0..segments {
            gate.wait();
            if seg == 0 {
                before = ProcSample::now();
            }
            let t0 = Instant::now();
            gate.wait();
            walls.push(t0.elapsed().as_secs_f64());
            if seg + 1 == segments {
                after = ProcSample::now();
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    if let Some(e) = error.into_inner().unwrap_or_else(|p| p.into_inner()) {
        return Err(e);
    }
    let mut out: Vec<Segment> = walls
        .into_iter()
        .map(|wall_s| Segment {
            wall_s,
            samples: Vec::new(),
        })
        .collect();
    for client in per_client_samples {
        for (seg, samples) in out.iter_mut().zip(client) {
            seg.samples.extend(samples);
        }
    }
    Ok((out, before, after))
}

/// Input generation, server start and warm-up: what `setup_s` times.
fn setup(plan: &ServePlan, seed: u64, sums: &Checksums) -> Result<(Server, Inputs, f64), String> {
    let t0 = Instant::now();
    let mut inputs = generate(plan, seed, sums)?;
    let server = Server::start(plan.config()).map_err(|e| format!("harness error: bind: {e}"))?;
    // Warm-up replies cannot be checked against the upload oracles, which
    // are computed after the clock stops; a warm-up op that was refused
    // means the measured phase would fail too, so that much is checked.
    let warm = Schedule::new(plan, &inputs, seed ^ 0xA11).warmup(plan.warmup);
    let warmed = (|| {
        let samples = drive(
            server.addr(),
            &inputs,
            &warm,
            false,
            &AtomicBool::new(false),
        )?;
        let setup_s = t0.elapsed().as_secs_f64();
        if plan.kind == ServeKind::Upload {
            resolve_upload_oracles(&mut inputs)?;
        }
        let refused = samples
            .iter()
            .filter_map(|s| s.verdict.as_ref().err())
            .find(|e| e.starts_with("status "));
        match refused {
            Some(bad) => Err(format!("harness error: warm-up op failed: {bad}")),
            None => Ok(setup_s),
        }
    })();
    match warmed {
        Ok(setup_s) => Ok((server, inputs, setup_s)),
        Err(e) => {
            server.join();
            Err(e)
        }
    }
}

/// `--setup-only`: one cold set-up, timed, for the parent run to fold
/// into its `setup_s`.
pub fn setup_seconds(plan: &ServePlan, seed: u64) -> Result<f64, String> {
    let (server, _, setup_s) = setup(plan, seed, &Checksums::load()?)?;
    server.join();
    Ok(setup_s)
}

fn check_all(out: &mut Outcome, segments: &mut [Segment]) {
    for seg in segments {
        for s in &mut seg.samples {
            out.check(std::mem::replace(&mut s.verdict, Ok(())));
        }
    }
}

fn latencies(segments: &[Segment]) -> Vec<Vec<f64>> {
    segments
        .iter()
        .map(|s| s.samples.iter().map(Sample::ms).collect())
        .collect()
}

fn rates(segments: &[Segment]) -> Vec<f64> {
    segments.iter().map(Segment::ops_per_s).collect()
}

/// The end-to-end run. `other_setups` are the set-up times of the
/// sibling processes.
///
/// Neighbour load on a shared host only ever slows an op down, so the
/// least-disturbed segment speaks for the run: `ops_per_s` is the best
/// segment's rate and `lat_p50_ms` the lowest segment median.
pub fn run(plan: &ServePlan, seed: u64, other_setups: &[f64]) -> Result<Outcome, String> {
    let shape = (plan.segments, plan.ops_per_segment);
    if plan.connections(shape.0 * shape.1) > MAX_CONNECTIONS {
        return Err(format!(
            "harness error: {} connections exceed the cap of {MAX_CONNECTIONS}",
            plan.connections(shape.0 * shape.1)
        ));
    }
    let sums = Checksums::load()?;
    let (server, inputs, setup_s) = setup(plan, seed, &sums)?;
    let mut schedule = Schedule::new(plan, &inputs, seed);
    let measured = run_segments(plan, server.addr(), &inputs, &mut schedule, shape, false);
    // Drain and join before anything is reported or the process exits.
    server.join();
    let (mut segments, _, _) = measured?;
    let mut out = Outcome::default();
    check_all(&mut out, &mut segments);
    let rates = rates(&segments);
    eprintln!("segment ops_per_s: {rates:.1?}");
    let medians: Vec<f64> = latencies(&segments)
        .iter()
        .map(|l| stats::median(l))
        .collect();
    out.set("ops_per_s", rates.iter().copied().fold(0.0, f64::max));
    out.set(
        "lat_p50_ms",
        medians.iter().copied().fold(f64::INFINITY, f64::min),
    );
    out.set("peak_rss_mb", crate::procfs::peak_rss_mb());
    out.set("setup_s", crate::best_setup(setup_s, other_setups));
    Ok(out)
}

fn get(addr: SocketAddr, path: &str) -> Result<HttpReply, String> {
    asap_serve::get(addr, path, TIMEOUT).map_err(|e| format!("harness error: GET {path}: {e}"))
}

/// A counter's value in the `/metrics` exposition (`name = value`
/// lines); 0 for a counter that was never touched.
fn scraped(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .filter_map(|l| l.split_once(" = "))
        .find(|(k, _)| *k == name)
        .and_then(|(_, v)| v.trim().parse().ok())
        .unwrap_or(0.0)
}

/// A connected loopback pair: the replay's stand-in for accept.
struct Loopback {
    listener: TcpListener,
    addr: SocketAddr,
}

impl Loopback {
    fn new() -> Result<Loopback, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        Ok(Loopback { listener, addr })
    }

    /// Send `request` from a second thread (a body larger than the
    /// socket buffer would otherwise block against its own reader) and
    /// read it back through the server's HTTP reader under a span.
    fn read(&self, tr: &mut Tracer, request: &[u8], max_body: usize) -> Result<Vec<u8>, String> {
        std::thread::scope(|s| {
            let writer = s.spawn(|| -> std::io::Result<TcpStream> {
                let mut c = TcpStream::connect(self.addr)?;
                c.write_all(request)?;
                Ok(c)
            });
            let (mut stream, _) = self.listener.accept().map_err(|e| e.to_string())?;
            let req = tr.call("serve.http_read", || read_request(&mut stream, max_body));
            // The client end stays open until the read is over.
            writer
                .join()
                .expect("writer thread panicked")
                .map_err(|e| format!("harness error: loopback write: {e}"))?;
            req.map(|r| r.body).map_err(|e| e.to_string())
        })
    }
}

/// The request path replayed in-process, one public function per span:
/// what a worker does between accept and write, without the sockets'
/// scheduling in between.
struct Replay {
    loopback: Loopback,
    catalog: MatrixCatalog,
    store: Arc<MatrixStore>,
    /// A second store for the admit probe, so probing does not evict
    /// what the replayed ops rely on.
    probe_store: Arc<MatrixStore>,
    tenants: TenantRegistry,
    flights: SingleFlight,
    max_body: usize,
}

impl Replay {
    fn new(plan: &ServePlan) -> Result<Replay, String> {
        let cfg = plan.config();
        Ok(Replay {
            loopback: Loopback::new()?,
            catalog: MatrixCatalog::new(cfg.size),
            store: Arc::new(MatrixStore::new(cfg.store_bytes)),
            probe_store: Arc::new(MatrixStore::new(cfg.store_bytes)),
            tenants: TenantRegistry::new(TenantQuotas {
                store_bytes: cfg.tenant_store_bytes,
                ..TenantQuotas::default()
            }),
            flights: SingleFlight::new(),
            max_body: cfg.max_body_bytes,
        })
    }

    fn op(&self, tr: &mut Tracer, t: &Template, op: &OpSpec) -> Result<(), String> {
        let body = t.body(op.fresh);
        let request = format!(
            "POST /v1/run HTTP/1.1\r\nHost: asap\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        let tenant = self.tenants.default_tenant();
        let ctx = RequestCtx {
            catalog: &self.catalog,
            store: &self.store,
            tenant: &tenant,
            default_deadline_ms: 10_000,
            exec_bytes: 0,
            allow_inline: true,
            trace: None,
        };
        tr.next_op();
        let root = tr.begin("replay.op");
        let read = self.loopback.read(tr, request.as_bytes(), self.max_body)?;
        let run = tr
            .call("serve.request_parse", || parse_run_request(&read, &ctx))
            .map_err(|e| e.message())?;
        let sparse = run.sparse().clone();
        let (ck, cache_hit, compile_ns) = tr
            .call("core.compile_hit", || {
                self.flights.compile(run.kernel, &sparse, &run.strategy)
            })
            .map_err(|e| e.to_string())?;
        // `execute_request`, step by step (engine auto → tier-2).
        let plan2 = ck.tier2.as_ref().ok_or("kernel has no tier-2 plan")?;
        let exec = tr.begin("core.execute");
        let (rows, cols) = (sparse.dims()[0], sparse.dims()[1]);
        let (x, mut out) = tr.call("core.operands", || {
            (
                DenseTensor::from_f64(vec![cols], service_x(cols)),
                DenseTensor::zeros(ValueKind::F64, vec![rows]),
            )
        });
        let mut bound = tr
            .call("sparsifier.bind", || bind(&ck.kernel, &sparse, &[&x], &out))
            .map_err(|e| e.to_string())?;
        tr.call("ir.tier2_kernel", || {
            plan2.run(&bound.args, &mut bound.bufs, &Budget::unlimited())
        })
        .map_err(|e| e.to_string())?;
        tr.call("sparsifier.read_back", || read_back(&mut out, &bound))
            .map_err(|e| e.to_string())?;
        let checksum = tr.call("core.checksum", || checksum_f64(out.as_f64()));
        // Freeing the per-request operand copy is part of its price.
        tr.call("sparsifier.release", || drop(bound));
        let exec_ns = tr.end(exec);
        let outcome = ServiceOutcome {
            checksum,
            rows,
            cols,
            nnz: sparse.nnz(),
            compile_ns,
            exec_ns,
            cache_hit,
            degraded: ck.is_degraded(),
            warnings: Vec::new(),
            engine_used: "tier2",
            prefetch_ops: ck.prefetch_ops,
        };
        let rendered = tr.call("serve.render", || render_outcome(&run, &outcome, None));
        tr.end(root);
        let expect = &t.expect.checksum;
        if format!("{checksum:016x}") != *expect || !rendered.contains(expect.as_str()) {
            return Err(format!(
                "replay checksum {checksum:016x} but the oracle says {expect}"
            ));
        }
        self.probes(tr, &body, &tenant, op.fresh.is_some())
    }

    /// What `parse_run_request` does inside, called piece by piece
    /// beside the op (their time is already inside `request_parse`).
    fn probes(
        &self,
        tr: &mut Tracer,
        body: &str,
        tenant: &Arc<asap_serve::TenantState>,
        fresh: bool,
    ) -> Result<(), String> {
        let json = tr
            .call("obs.json_parse", || parse_json(body))
            .map_err(|e| e.to_string())?;
        let key = match json.get("mtx").and_then(Json::as_str) {
            Some(mtx) => {
                let digest = tr.call("core.digest", || fingerprint64(mtx.as_bytes()));
                if fresh {
                    let tri = tr
                        .call("matrices.mmio_parse", || {
                            read_matrix_market(std::io::Cursor::new(mtx.as_bytes()))
                        })
                        .map_err(|e| e.to_string())?;
                    let tensor = Arc::new(tr.call("tensor.from_coo", || to_csr(&tri))?);
                    let key = format!("mtx:{digest:016x}");
                    tr.call("serve.store_admit", || {
                        self.probe_store.admit(&key, tensor, tenant)
                    })
                    .map_err(|e| e.to_string())?;
                }
                format!("mtx:{digest:016x}")
            }
            None => format!(
                "ref:{}",
                json.get("matrix").and_then(Json::as_str).unwrap_or("")
            ),
        };
        if !fresh {
            tr.call("serve.store_lookup", || self.store.lookup(&key))
                .ok_or_else(|| format!("replay store has no {key}"))?;
        }
        Ok(())
    }
}

/// Root and exchange spans of the socket ops, recorded after the fact
/// from what the client threads timed.
fn record_client_spans(tr: &mut Tracer, segments: &[Segment]) {
    for s in segments.iter().flat_map(|seg| &seg.samples) {
        let op = tr.next_op();
        let root = tr.record("client.op", 0, op, s.start, s.done);
        tr.record("serve.exchange", root, op, s.start, s.replied);
    }
}

/// The traced run.
pub fn run_traced(plan: &ServePlan, seed: u64, tr: &mut Tracer) -> Result<Outcome, String> {
    let socket_ops = (plan.plain_segments + plan.traced_segments) * plan.traced_ops_per_segment;
    if plan.connections(socket_ops) > MAX_CONNECTIONS {
        return Err("harness error: connection cap exceeded".into());
    }
    let sums = Checksums::load()?;
    let (server, inputs, _) = setup(plan, seed, &sums)?;
    let addr = server.addr();
    let mut schedule = Schedule::new(plan, &inputs, seed);
    let socket = (|| {
        let ops = plan.traced_ops_per_segment;
        let plain = (plan.plain_segments, ops);
        let traced = (plan.traced_segments, ops);
        let plain = run_segments(plan, addr, &inputs, &mut schedule, plain, false)?;
        let traced = run_segments(plan, addr, &inputs, &mut schedule, traced, true)?;
        let metrics = get(addr, "/metrics")?.body;
        let flight = get(addr, "/debug/requests")?.body;
        let mut null_rtt = Vec::with_capacity(NULL_RTT_OPS);
        for _ in 0..NULL_RTT_OPS {
            let t0 = Instant::now();
            let reply = get(addr, "/healthz")?;
            null_rtt.push(t0.elapsed().as_secs_f64() * 1e3);
            if reply.status != 200 {
                return Err(format!("harness error: /healthz answered {}", reply.status));
            }
        }
        Ok((plain, traced, metrics, flight, null_rtt))
    })();
    server.join();
    let ((mut plain, before, after), (mut traced, _, _), metrics, flight, null_rtt) = socket?;

    let mut out = Outcome::default();
    check_all(&mut out, &mut plain);
    check_all(&mut out, &mut traced);
    record_client_spans(tr, &traced);

    // Input-generation probes: the generators and the CSR build behind
    // the workload's matrices.
    match plan.kind {
        ServeKind::Upload => {
            for i in 0..UPLOAD_TEMPLATES {
                tr.call("matrices.gen", || upload_template(seed, i).map(|_| ()))?;
            }
        }
        ServeKind::Small | ServeKind::Resident => {
            let (n, deg) = if plan.kind == ServeKind::Small {
                (512, 4)
            } else {
                (65536, 16)
            };
            let tri = tr.call("matrices.gen", || gen::erdos_renyi(n, deg, 1));
            tr.call("tensor.from_coo", || to_csr(&tri))?;
        }
    }
    tr.call("core.compile_cold", || {
        asap_core::compile(
            &ServiceKernel::Spmv.spec(),
            &Format::csr(),
            &PrefetchStrategy::asap(45),
        )
    })
    .map_err(|e| e.to_string())?;

    // In-process replay, after one unrecorded pass over the templates
    // so the replay's own store is as warm as the server's was.
    let replay = Replay::new(plan)?;
    let mut warm = Tracer::new();
    for (i, t) in inputs.templates.iter().enumerate() {
        replay.op(
            &mut warm,
            t,
            &OpSpec {
                template: i,
                fresh: None,
            },
        )?;
    }
    let mut replay_schedule = Schedule::new(plan, &inputs, seed ^ 0x4E91A7);
    for op in replay_schedule.take(plan.replay_ops) {
        let verdict = replay.op(tr, &inputs.templates[op.template], &op);
        if verdict.is_err() {
            tr.close_open();
        }
        out.check(verdict.map_err(|e| format!("replay: {e}")));
    }

    let us = |name: &str| tr.p50_ms(name) * 1e3;
    let lat = latencies(&traced);
    let lat_p50 = stats::median(&stats::pooled(&lat));
    let nnz = stats::mean(
        &inputs
            .templates
            .iter()
            .map(|t| t.expect.nnz as f64)
            .collect::<Vec<_>>(),
    );
    out.set("matrices.gen_ms", tr.ms("matrices.gen").iter().sum());
    out.set("tensor.from_coo_ms", tr.p50_ms("tensor.from_coo"));
    out.set("core.compile_cold_ms", tr.p50_ms("core.compile_cold"));
    out.set("core.compile_hit_us", us("core.compile_hit"));
    out.set(
        "sparsifier.bind_ms",
        tr.p50_ms("sparsifier.bind") + tr.p50_ms("sparsifier.release"),
    );
    out.set("serve.http_read_us", us("serve.http_read"));
    out.set("obs.json_parse_us", us("obs.json_parse"));
    out.set("core.digest_us", us("core.digest"));
    out.set("matrices.mmio_parse_ms", tr.p50_ms("matrices.mmio_parse"));
    out.set("serve.store_lookup_us", us("serve.store_lookup"));
    out.set("serve.store_admit_us", us("serve.store_admit"));
    let (hits, misses) = (
        scraped(&metrics, "serve.store.hits"),
        scraped(&metrics, "serve.store.misses"),
    );
    out.set("serve.store_hit_ratio", hits / (hits + misses).max(1.0));
    out.set(
        "serve.store_evictions",
        scraped(&metrics, "serve.store.evictions"),
    );
    out.set("serve.request_parse_us", us("serve.request_parse"));
    out.set("core.operands_us", us("core.operands"));
    out.set("ir.tier2_kernel_ms", tr.p50_ms("ir.tier2_kernel"));
    out.set(
        "ir.tier2_mnnz_per_s",
        nnz / 1e6 / (tr.p50_ms("ir.tier2_kernel") / 1e3),
    );
    out.set("sparsifier.read_back_us", us("sparsifier.read_back"));
    out.set("core.checksum_us", us("core.checksum"));
    out.set("serve.render_us", us("serve.render"));
    let inproc_sum: f64 = [
        "serve.http_read",
        "serve.request_parse",
        "core.compile_hit",
        "core.operands",
        "sparsifier.bind",
        "ir.tier2_kernel",
        "sparsifier.read_back",
        "core.checksum",
        "sparsifier.release",
        "serve.render",
    ]
    .iter()
    .map(|l| tr.p50_ms(l))
    .sum();
    let null_rtt_ms = stats::median(&null_rtt);
    out.set("serve.inproc_sum_ms", inproc_sum);
    out.set("serve.null_rtt_ms", null_rtt_ms);
    out.set("serve.transport_ms", lat_p50 - inproc_sum);

    let samples = || traced.iter().flat_map(|s| &s.samples);
    for (i, name) in [
        "serve.stage_parse_us",
        "serve.stage_quota_us",
        "serve.stage_queue_wait_us",
        "serve.stage_store_us",
        "serve.stage_compile_us",
        "serve.stage_exec_us",
    ]
    .into_iter()
    .enumerate()
    {
        let v: Vec<f64> = samples()
            .filter_map(|s| s.stage_ns.map(|ns| ns[i] as f64 / 1e3))
            .collect();
        out.set(name, stats::median(&v));
    }
    // The write stage ends after the body is rendered, so it is read
    // from the flight recorder's ring instead of the 200 bodies.
    let writes: Vec<f64> = flight
        .lines()
        .filter_map(|l| parse_json(l).ok())
        .filter(|j| j.get("is_run").and_then(Json::as_bool) == Some(true))
        .filter_map(|j| j.get("stage_ns")?.get("write")?.as_f64())
        .map(|ns| ns / 1e3)
        .collect();
    out.set("serve.stage_write_us", stats::median(&writes));
    let mode = |fresh: bool| -> f64 {
        stats::median(
            &samples()
                .filter(|s| s.fresh == fresh)
                .map(Sample::ms)
                .collect::<Vec<_>>(),
        )
    };
    if plan.kind == ServeKind::Upload {
        out.set("serve.upload_hit_p50_ms", mode(false));
        out.set("serve.upload_fresh_p50_ms", mode(true));
    }
    out.set(
        "serve.lat_p95_ms",
        stats::percentile_median_of_segments(&lat, 0.95).unwrap_or(0.0),
    );

    let plain_ops: usize = plain.iter().map(|s| s.samples.len()).sum();
    let plain_wall: f64 = plain.iter().map(|s| s.wall_s).sum();
    after.report_since(&before, plain_wall, plain_ops as f64, &mut out);
    let plain_rates = rates(&plain);
    out.set("bench.segment_spread", stats::range_spread(&plain_rates));
    out.set(
        "bench.client_overhead_us",
        stats::median(&tr.self_ms("client.op")) * 1e3,
    );
    out.set(
        "bench.trace_overhead",
        1.0 - stats::median(&rates(&traced)) / stats::median(&plain_rates),
    );
    // The in-process layers plus an empty round trip against the socket
    // median. On `serve_upload` both sides are the hit mode, where the
    // median sits.
    out.set(
        "bench.reconcile_gap",
        (inproc_sum + null_rtt_ms - lat_p50).abs() / lat_p50,
    );
    Ok(out)
}

/// `--regen-reference`: checksums of the named serve matrices, from the
/// tree-walking interpreter.
pub fn reference_checksums() -> Result<Checksums, String> {
    let catalog = MatrixCatalog::new(SizeClass::Tiny);
    let mut sums = std::collections::BTreeMap::new();
    for matrix in ["gen:er:512:4", "gen:er:65536:16"] {
        let tensor = catalog.build(matrix).map_err(|e| e.to_string())?;
        sums.insert(matrix.to_string(), oracle_reply(&tensor)?);
    }
    Ok(Checksums(sums))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_patch_is_valid_matrix_market_with_a_new_digest_and_the_same_checksum() {
        let (template, tri) = upload_template(13, 0).unwrap();
        let mtx_of = |body: &str| {
            let j = parse_json(body).unwrap();
            assert_eq!(j.get("kernel").and_then(Json::as_str), Some("spmv"));
            j.get("mtx").and_then(Json::as_str).unwrap().to_string()
        };
        let plain = mtx_of(&template.body(None));
        let fresh = mtx_of(&template.body(Some(7)));
        let other = mtx_of(&template.body(Some(8)));
        assert!(fresh.starts_with("%%MatrixMarket matrix coordinate real general\n% fresh"));
        assert_ne!(
            fingerprint64(plain.as_bytes()),
            fingerprint64(fresh.as_bytes())
        );
        assert_ne!(
            fingerprint64(other.as_bytes()),
            fingerprint64(fresh.as_bytes())
        );
        let parsed = read_matrix_market(fresh.as_bytes()).expect("patched text parses");
        assert_eq!(parsed, tri, "the comment line changes no entry");
        let of = |t: &Triplets| oracle_reply(&to_csr(t).unwrap()).unwrap();
        assert_eq!(
            of(&parsed),
            of(&read_matrix_market(plain.as_bytes()).unwrap())
        );
    }

    #[test]
    fn one_op_in_four_is_fresh_and_the_schedule_follows_the_seed() {
        let plan = ServePlan {
            kind: ServeKind::Upload,
            clients: 1,
            warmup: 0,
            segments: 1,
            ops_per_segment: 300,
            plain_segments: 0,
            traced_segments: 0,
            traced_ops_per_segment: 0,
            replay_ops: 0,
        };
        let inputs = Inputs {
            templates: (0..UPLOAD_TEMPLATES)
                .map(|_| Template {
                    head: String::new(),
                    tail: String::new(),
                    expect: Reply::default(),
                })
                .collect(),
            uploads: Vec::new(),
        };
        let ops = |seed| Schedule::new(&plan, &inputs, seed).take(300);
        let a = ops(13);
        assert_eq!(a.iter().filter(|o| o.fresh.is_some()).count(), 75);
        for block in a.chunks(FRESH_EVERY) {
            assert_eq!(block.iter().filter(|o| o.fresh.is_some()).count(), 1);
        }
        let mut ids: Vec<u64> = a.iter().filter_map(|o| o.fresh).collect();
        ids.dedup();
        assert_eq!(ids.len(), 75, "fresh ids never repeat");
        let key = |v: &[OpSpec]| -> Vec<(usize, bool)> {
            v.iter().map(|o| (o.template, o.fresh.is_some())).collect()
        };
        assert_eq!(key(&a), key(&ops(13)));
        assert_ne!(key(&a), key(&ops(14)));
        let warm = Schedule::new(&plan, &inputs, 13).warmup(50);
        assert!((0..UPLOAD_TEMPLATES).all(|i| warm[i].template == i && warm[i].fresh.is_none()));
    }

    #[test]
    fn scraped_counters_read_from_the_exposition() {
        let text =
            "serve.store.hits = 12\nserve.store.hits_total = 99\nserve.store.bytes = 4 (gauge)\n";
        assert_eq!(scraped(text, "serve.store.hits"), 12.0);
        assert_eq!(scraped(text, "serve.store.evictions"), 0.0);
    }
}
