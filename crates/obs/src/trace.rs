//! Request-scoped serving telemetry: trace contexts and the flight
//! recorder.
//!
//! The span [`recorder`](crate::recorder) is bench-oriented — one global
//! mutex, one flat span list — so it cannot attribute time to concurrent
//! requests. This module is the serving-path alternative: every request
//! carries its own [`TraceCtx`] (a 128-bit trace id plus a fixed array
//! of per-stage atomic nanosecond accumulators), so recording a stage
//! costs one relaxed `fetch_add` on memory owned by the request — no
//! shared lock, no allocation.
//!
//! On completion the context collapses into a [`RequestRecord`], which
//! fans out three ways (driven by the serving layer):
//!
//! 1. per-tenant per-stage labeled histograms with exemplars
//!    ([`flush_stage_metrics`]);
//! 2. the always-on [`FlightRecorder`] — fixed-size per-worker rings of
//!    recent records, with anomalous requests (5xx, shed, deadline, or
//!    latency above a rolling threshold) promoted to a bounded retained
//!    set that `/debug/trace/<id>` can look up and crash handling dumps
//!    as JSONL;
//! 3. an optional JSONL access log (the record knows how to render
//!    itself via [`RequestRecord::to_jsonl`]).
//!
//! See DESIGN.md §15 for the lifecycle and bounds.

use crate::json::ObjWriter;
use crate::metrics;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// 128-bit request trace id. Minted from a process-global counter mixed
/// through SplitMix64 (two rounds seeded differently), so ids are unique
/// per process, effectively unique across processes (the seed folds in
/// the PID and wall-clock nanos at first use), and cheap: two atomic ops
/// and a handful of multiplies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u128);

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn trace_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
            .unwrap_or(0x5eed);
        splitmix64(nanos ^ (std::process::id() as u64).rotate_left(32))
    })
}

impl TraceId {
    /// Mint a fresh id.
    pub fn mint() -> TraceId {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let seed = trace_seed();
        let hi = splitmix64(n ^ seed);
        let lo = splitmix64(n.wrapping_mul(0xa24b_aed4_963e_e407) ^ seed.rotate_left(17));
        TraceId(((hi as u128) << 64) | lo as u128)
    }

    /// 32-hex-digit lowercase rendering — the `X-Asap-Trace` wire form.
    pub fn hex(&self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parse the wire form back (exactly 32 hex digits).
    pub fn parse(s: &str) -> Option<TraceId> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(TraceId)
    }
}

/// The pipeline stages a request's wall time is attributed to, in
/// exposition order. `QueueWait` folds both waits (the accepted-conn
/// FIFO and the per-tenant job lane) into one stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Parse,
    Quota,
    QueueWait,
    Store,
    Compile,
    Exec,
    Write,
}

pub const STAGE_COUNT: usize = 7;

/// All stages, index-aligned with [`TraceCtx`]'s accumulators and
/// [`RequestRecord::stages_ns`].
pub const STAGES: [Stage; STAGE_COUNT] = [
    Stage::Parse,
    Stage::Quota,
    Stage::QueueWait,
    Stage::Store,
    Stage::Compile,
    Stage::Exec,
    Stage::Write,
];

impl Stage {
    pub fn label(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Quota => "quota",
            Stage::QueueWait => "queue_wait",
            Stage::Store => "store",
            Stage::Compile => "compile",
            Stage::Exec => "exec",
            Stage::Write => "write",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Parse => 0,
            Stage::Quota => 1,
            Stage::QueueWait => 2,
            Stage::Store => 3,
            Stage::Compile => 4,
            Stage::Exec => 5,
            Stage::Write => 6,
        }
    }
}

const QUEUE_UNSET: u64 = u64::MAX;

/// Mutable request metadata filled in as the request moves down the
/// pipeline (tenant after classification, kernel/matrix after parse).
/// Guarded by an uncontended mutex: exactly one thread owns a request
/// at any moment, so the lock never blocks in practice.
#[derive(Debug, Default, Clone)]
struct Meta {
    tenant: String,
    kernel: String,
    matrix_fp: u64,
    anomaly: Option<&'static str>,
    is_run: bool,
}

/// Per-request trace context. Created at accept time, threaded through
/// the admission ladder, the scheduler queue, and the worker; stage
/// accumulators are atomics so the context can cross threads behind a
/// shared reference.
///
/// A disabled context (telemetry off) keeps the same API but every
/// recording call returns immediately after one branch — the overhead
/// A/B gate measures exactly this difference.
#[derive(Debug)]
pub struct TraceCtx {
    id: TraceId,
    enabled: bool,
    created: Instant,
    stages: [AtomicU64; STAGE_COUNT],
    /// Nanos-since-created when the request entered a queue
    /// ([`QUEUE_UNSET`] when not queued); `end_queued` turns the delta
    /// into `QueueWait` time.
    queued_at_ns: AtomicU64,
    meta: Mutex<Meta>,
}

impl TraceCtx {
    /// A live context with a freshly minted id.
    pub fn start() -> TraceCtx {
        TraceCtx::with_enabled(true)
    }

    /// A dormant context: carries no id, records nothing.
    pub fn disabled() -> TraceCtx {
        TraceCtx::with_enabled(false)
    }

    fn with_enabled(enabled: bool) -> TraceCtx {
        TraceCtx {
            id: if enabled { TraceId::mint() } else { TraceId(0) },
            enabled,
            created: Instant::now(),
            stages: std::array::from_fn(|_| AtomicU64::new(0)),
            queued_at_ns: AtomicU64::new(QUEUE_UNSET),
            meta: Mutex::new(Meta::default()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn id(&self) -> TraceId {
        self.id
    }

    fn meta(&self) -> std::sync::MutexGuard<'_, Meta> {
        self.meta.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Attribute `ns` nanoseconds to `stage`.
    pub fn add(&self, stage: Stage, ns: u64) {
        if !self.enabled {
            return;
        }
        self.stages[stage.index()].fetch_add(ns, Ordering::Relaxed);
    }

    /// Run `f`, attributing its wall time to `stage`.
    pub fn time<R>(&self, stage: Stage, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        self.add(stage, t0.elapsed().as_nanos() as u64);
        r
    }

    /// Note that the request just entered a queue (conn FIFO or tenant
    /// lane). Idempotent: a second mark before `end_queued` is ignored.
    pub fn mark_queued(&self) {
        if !self.enabled {
            return;
        }
        let now = self.created.elapsed().as_nanos() as u64;
        let _ = self.queued_at_ns.compare_exchange(
            QUEUE_UNSET,
            now,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Note that the request left the queue; the elapsed span folds into
    /// [`Stage::QueueWait`]. No-op if `mark_queued` never ran.
    pub fn end_queued(&self) {
        if !self.enabled {
            return;
        }
        let marked = self.queued_at_ns.swap(QUEUE_UNSET, Ordering::Relaxed);
        if marked != QUEUE_UNSET {
            let now = self.created.elapsed().as_nanos() as u64;
            self.add(Stage::QueueWait, now.saturating_sub(marked));
        }
    }

    pub fn set_tenant(&self, tenant: &str) {
        if self.enabled {
            self.meta().tenant = tenant.to_string();
        }
    }

    /// Record what the request asked for: kernel name and the FNV-1a
    /// fingerprint of the matrix it resolves to.
    pub fn set_request(&self, kernel: &str, matrix_fp: u64) {
        if self.enabled {
            let mut m = self.meta();
            m.kernel = kernel.to_string();
            m.matrix_fp = matrix_fp;
            m.is_run = true;
        }
    }

    /// Flag an anomaly the status code alone can't express (`"shed"`,
    /// `"deadline"`, `"panic"`). First writer wins.
    pub fn note_anomaly(&self, kind: &'static str) {
        if self.enabled {
            let mut m = self.meta();
            if m.anomaly.is_none() {
                m.anomaly = Some(kind);
            }
        }
    }

    /// Accumulated nanos for one stage.
    pub fn stage_ns(&self, stage: Stage) -> u64 {
        self.stages[stage.index()].load(Ordering::Relaxed)
    }

    /// Wall time since the context was created.
    pub fn elapsed_ns(&self) -> u64 {
        self.created.elapsed().as_nanos() as u64
    }

    /// Collapse into an immutable completion record. Any still-open
    /// queue mark is folded in first (a request shed *from* the queue
    /// never saw `end_queued`).
    pub fn finish(&self, status: u16) -> RequestRecord {
        self.end_queued();
        let m = self.meta().clone();
        RequestRecord {
            id: self.id,
            tenant: if m.tenant.is_empty() {
                "-".to_string()
            } else {
                m.tenant
            },
            kernel: m.kernel,
            matrix_fp: m.matrix_fp,
            status,
            is_run: m.is_run,
            anomaly: m.anomaly,
            stages_ns: std::array::from_fn(|i| self.stages[i].load(Ordering::Relaxed)),
            total_ns: self.elapsed_ns(),
        }
    }
}

/// One completed request, frozen for the flight recorder / access log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestRecord {
    pub id: TraceId,
    pub tenant: String,
    pub kernel: String,
    pub matrix_fp: u64,
    pub status: u16,
    pub is_run: bool,
    pub anomaly: Option<&'static str>,
    /// Index-aligned with [`STAGES`].
    pub stages_ns: [u64; STAGE_COUNT],
    pub total_ns: u64,
}

impl RequestRecord {
    /// Sum of attributed stage time (≤ `total_ns` up to timer skew).
    pub fn stages_sum_ns(&self) -> u64 {
        self.stages_ns.iter().sum()
    }

    /// One JSONL line (no trailing newline) — the access-log / dump form.
    pub fn to_jsonl(&self) -> String {
        let mut w = ObjWriter::new();
        w.str("trace", &self.id.hex())
            .str("tenant", &self.tenant)
            .str("kernel", &self.kernel)
            .u64("matrix_fp", self.matrix_fp)
            .u64("status", self.status as u64)
            .bool("is_run", self.is_run)
            .str("anomaly", self.anomaly.unwrap_or(""))
            .u64("total_ns", self.total_ns);
        let mut stages = String::from("{");
        for (i, st) in STAGES.iter().enumerate() {
            if i > 0 {
                stages.push(',');
            }
            stages.push_str(&format!("\"{}\":{}", st.label(), self.stages_ns[i]));
        }
        stages.push('}');
        w.raw("stage_ns", &stages);
        w.finish()
    }
}

/// The series one tenant's completions record into, each resolved the
/// first time this thread needs it: rendering nine labeled names and
/// hashing each through the registry's handle cache on every completion
/// was most of what a request paid for telemetry.
#[derive(Default)]
struct TenantSeries {
    stages: [Option<&'static metrics::Histogram>; STAGE_COUNT],
    request: Option<&'static metrics::Histogram>,
    /// `[under, over]` against `slo_ms`; dropped when the objective
    /// changes (two servers in one process).
    slo: [Option<&'static AtomicU64>; 2],
    slo_ms: u64,
}

impl TenantSeries {
    fn record(&mut self, rec: &RequestRecord, slo_ms: u64) {
        let exemplar = Some(rec.id.0);
        let tenant = rec.tenant.as_str();
        for (i, st) in STAGES.iter().enumerate() {
            if rec.stages_ns[i] == 0 {
                continue; // stages the request never reached stay absent
            }
            self.stages[i]
                .get_or_insert_with(|| {
                    metrics::histogram_handle(&metrics::labeled_name(
                        "serve.stage_ns",
                        &[("stage", st.label()), ("tenant", tenant)],
                    ))
                })
                .record(rec.stages_ns[i], exemplar);
        }
        self.request
            .get_or_insert_with(|| {
                metrics::histogram_handle(&metrics::labeled_name(
                    "serve.request_ns",
                    &[("tenant", tenant)],
                ))
            })
            .record(rec.total_ns, exemplar);
        if rec.is_run {
            if self.slo_ms != slo_ms {
                (self.slo, self.slo_ms) = ([None; 2], slo_ms);
            }
            let over = rec.total_ns > slo_ms.saturating_mul(1_000_000);
            self.slo[usize::from(over)]
                .get_or_insert_with(|| {
                    metrics::counter_handle(&metrics::labeled_name(
                        if over {
                            "serve.slo.over"
                        } else {
                            "serve.slo.under"
                        },
                        &[("objective_ms", &slo_ms.to_string()), ("tenant", tenant)],
                    ))
                })
                .fetch_add(1, Ordering::Relaxed);
        }
    }
}

thread_local! {
    static TENANT_SERIES: RefCell<HashMap<String, TenantSeries>> = RefCell::default();
}

/// Flush a completed request into the metrics registry: per-stage
/// per-tenant histograms (`serve.stage_ns{…}`) with the trace id as
/// exemplar, a whole-request latency histogram (`serve.request_ns{…}`),
/// and — for `/v1/run` requests — the SLO over/under counters against
/// `slo_ms`.
pub fn flush_stage_metrics(rec: &RequestRecord, slo_ms: u64) {
    TENANT_SERIES.with(|series| {
        let mut series = series.borrow_mut();
        match series.get_mut(&rec.tenant) {
            Some(s) => s.record(rec, slo_ms),
            None => series
                .entry(rec.tenant.clone())
                .or_default()
                .record(rec, slo_ms),
        }
    });
}

/// EWMA smoothing shift: `ewma += (x - ewma) / 2^4`.
const EWMA_SHIFT: u32 = 4;
/// A request is latency-anomalous when slower than `8 ×` the EWMA…
const ANOMALY_FACTOR: u64 = 8;
/// …but only once this many samples have seeded the EWMA.
const ANOMALY_MIN_SAMPLES: u64 = 64;

struct Ring {
    head: AtomicU64,
    slots: Vec<Mutex<Option<Arc<RequestRecord>>>>,
}

struct Retained {
    order: VecDeque<u128>,
    by_id: HashMap<u128, Arc<RequestRecord>>,
}

/// The always-on flight recorder: one fixed ring of recent completions
/// per worker (plus one for the accept thread), and a bounded retained
/// set of anomalous requests.
///
/// Writers never block: each slot is a mutex taken with `try_lock`, and
/// a writer losing the race (only possible against a reader dumping the
/// ring) drops that slot write and counts `serve.flight.dropped`. Ring
/// memory is `rings × ring_cap` `Arc`s; the retained set holds at most
/// `retain_cap` records, oldest evicted first.
pub struct FlightRecorder {
    rings: Vec<Ring>,
    retain_cap: usize,
    retained: Mutex<Retained>,
    /// EWMA of total latency in nanos (all completions feed it).
    ewma_ns: AtomicU64,
    samples: AtomicU64,
}

impl FlightRecorder {
    pub fn new(rings: usize, ring_cap: usize, retain_cap: usize) -> FlightRecorder {
        let rings = rings.max(1);
        let ring_cap = ring_cap.max(1);
        FlightRecorder {
            rings: (0..rings)
                .map(|_| Ring {
                    head: AtomicU64::new(0),
                    slots: (0..ring_cap).map(|_| Mutex::new(None)).collect(),
                })
                .collect(),
            retain_cap: retain_cap.max(1),
            retained: Mutex::new(Retained {
                order: VecDeque::new(),
                by_id: HashMap::new(),
            }),
            ewma_ns: AtomicU64::new(0),
            samples: AtomicU64::new(0),
        }
    }

    /// Latency threshold above which a request is anomalous; `None`
    /// until the EWMA has seen [`ANOMALY_MIN_SAMPLES`] completions.
    pub fn latency_threshold_ns(&self) -> Option<u64> {
        if self.samples.load(Ordering::Relaxed) < ANOMALY_MIN_SAMPLES {
            None
        } else {
            Some(
                self.ewma_ns
                    .load(Ordering::Relaxed)
                    .saturating_mul(ANOMALY_FACTOR),
            )
        }
    }

    fn observe_latency(&self, total_ns: u64) -> bool {
        let over = self
            .latency_threshold_ns()
            .is_some_and(|thr| total_ns > thr);
        // Relaxed read-modify-write race just loses one sample's worth
        // of smoothing — acceptable for a heuristic threshold.
        let ewma = self.ewma_ns.load(Ordering::Relaxed);
        let delta = (total_ns as i64 - ewma as i64) >> EWMA_SHIFT;
        self.ewma_ns
            .store((ewma as i64 + delta).max(0) as u64, Ordering::Relaxed);
        self.samples.fetch_add(1, Ordering::Relaxed);
        over
    }

    /// Record a completion into ring `ring` (worker index; out-of-range
    /// folds into the last ring). Returns the shared record. Promotes to
    /// the retained set when anomalous: 5xx status, an explicit anomaly
    /// note (shed/deadline/panic), or latency above the rolling
    /// threshold.
    pub fn record(&self, ring: usize, mut rec: RequestRecord) -> Arc<RequestRecord> {
        let latency_anomaly = self.observe_latency(rec.total_ns);
        if rec.anomaly.is_none() {
            if rec.status >= 500 {
                rec.anomaly = Some("error");
            } else if latency_anomaly {
                rec.anomaly = Some("latency");
            }
        }
        let anomalous = rec.anomaly.is_some();
        let rec = Arc::new(rec);
        metrics::counter_inc("serve.flight.recorded");

        let ring = &self.rings[ring.min(self.rings.len() - 1)];
        let slot_count = ring.slots.len() as u64;
        let idx = (ring.head.fetch_add(1, Ordering::Relaxed) % slot_count) as usize;
        match ring.slots[idx].try_lock() {
            Ok(mut slot) => *slot = Some(rec.clone()),
            Err(_) => metrics::counter_inc("serve.flight.dropped"),
        }

        if anomalous {
            let mut r = self.retained.lock().unwrap_or_else(|p| p.into_inner());
            if r.by_id.insert(rec.id.0, rec.clone()).is_none() {
                r.order.push_back(rec.id.0);
                while r.order.len() > self.retain_cap {
                    if let Some(evict) = r.order.pop_front() {
                        r.by_id.remove(&evict);
                    }
                }
            }
            metrics::counter_inc("serve.flight.retained");
        }
        rec
    }

    /// Look up a retained (anomalous) request by trace id.
    pub fn lookup(&self, id: TraceId) -> Option<Arc<RequestRecord>> {
        let r = self.retained.lock().unwrap_or_else(|p| p.into_inner());
        r.by_id.get(&id.0).cloned()
    }

    /// Recent completions across all rings, newest first within a ring.
    pub fn recent(&self) -> Vec<Arc<RequestRecord>> {
        let mut out = Vec::new();
        for ring in &self.rings {
            let n = ring.slots.len() as u64;
            let head = ring.head.load(Ordering::Relaxed);
            for back in 1..=n {
                let idx = ((head + n - back) % n) as usize;
                if let Ok(slot) = ring.slots[idx].try_lock() {
                    if let Some(rec) = slot.as_ref() {
                        out.push(rec.clone());
                    }
                }
            }
        }
        out
    }

    /// Retained anomalous records, oldest first.
    pub fn retained(&self) -> Vec<Arc<RequestRecord>> {
        let r = self.retained.lock().unwrap_or_else(|p| p.into_inner());
        r.order
            .iter()
            .filter_map(|id| r.by_id.get(id).cloned())
            .collect()
    }

    /// Full JSONL dump: retained anomalies first, then ring contents —
    /// the payload for `/debug/requests` and the crash-time sidecar.
    pub fn dump_jsonl(&self) -> String {
        let mut out = String::new();
        for rec in self.retained() {
            out.push_str(&rec.to_jsonl());
            out.push('\n');
        }
        for rec in self.recent() {
            out.push_str(&rec.to_jsonl());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_unique_and_round_trip() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = TraceId::mint();
            assert!(seen.insert(id.0), "duplicate trace id");
            let hex = id.hex();
            assert_eq!(hex.len(), 32);
            assert_eq!(TraceId::parse(&hex), Some(id));
        }
        assert_eq!(TraceId::parse("xyz"), None);
        assert_eq!(TraceId::parse(&"0".repeat(31)), None);
    }

    #[test]
    fn stages_accumulate_and_finish_snapshots() {
        let ctx = TraceCtx::start();
        ctx.add(Stage::Parse, 100);
        ctx.add(Stage::Parse, 50);
        ctx.add(Stage::Exec, 1_000);
        ctx.set_tenant("t9");
        ctx.set_request("spmv", 42);
        let rec = ctx.finish(200);
        assert_eq!(rec.stages_ns[Stage::Parse.index()], 150);
        assert_eq!(rec.stages_ns[Stage::Exec.index()], 1_000);
        assert_eq!(rec.stages_sum_ns(), 1_150);
        assert_eq!(rec.tenant, "t9");
        assert_eq!(rec.kernel, "spmv");
        assert!(rec.is_run);
    }

    #[test]
    fn disabled_ctx_records_nothing() {
        let ctx = TraceCtx::disabled();
        ctx.add(Stage::Exec, 999);
        ctx.mark_queued();
        std::thread::sleep(std::time::Duration::from_millis(2));
        ctx.end_queued();
        let out = ctx.time(Stage::Parse, || 7);
        assert_eq!(out, 7);
        let rec = ctx.finish(200);
        assert_eq!(rec.stages_sum_ns(), 0);
        assert_eq!(rec.id.0, 0);
    }

    #[test]
    fn queue_wait_measures_the_marked_span() {
        let ctx = TraceCtx::start();
        ctx.mark_queued();
        ctx.mark_queued(); // idempotent: does not restart the clock
        std::thread::sleep(std::time::Duration::from_millis(5));
        ctx.end_queued();
        let w = ctx.stage_ns(Stage::QueueWait);
        assert!(w >= 4_000_000, "queue wait {w}ns < slept 5ms");
        ctx.end_queued(); // unmatched end is a no-op
        assert_eq!(ctx.stage_ns(Stage::QueueWait), w);
    }

    #[test]
    fn finish_folds_open_queue_mark() {
        let ctx = TraceCtx::start();
        ctx.mark_queued();
        std::thread::sleep(std::time::Duration::from_millis(3));
        let rec = ctx.finish(504); // shed from the queue: end_queued never ran
        assert!(rec.stages_ns[Stage::QueueWait.index()] >= 2_000_000);
    }

    #[test]
    fn record_jsonl_parses_back() {
        let ctx = TraceCtx::start();
        ctx.set_tenant("acme");
        ctx.set_request("spmm", 7);
        ctx.add(Stage::Compile, 123);
        ctx.note_anomaly("shed");
        let rec = ctx.finish(504);
        let line = rec.to_jsonl();
        let j = crate::json::parse(&line).expect("valid json");
        assert_eq!(
            j.get("trace").and_then(|v| v.as_str()),
            Some(rec.id.hex().as_str())
        );
        assert_eq!(j.get("anomaly").and_then(|v| v.as_str()), Some("shed"));
        assert_eq!(
            j.get("stage_ns")
                .and_then(|s| s.get("compile"))
                .and_then(|v| v.as_u64()),
            Some(123)
        );
    }

    #[test]
    fn flight_recorder_promotes_anomalies_and_bounds_retention() {
        let fr = FlightRecorder::new(2, 4, 3);
        let mk = |status: u16| {
            let ctx = TraceCtx::start();
            ctx.add(Stage::Exec, 10);
            ctx.finish(status)
        };
        let ok = fr.record(0, mk(200));
        assert!(ok.anomaly.is_none());
        assert!(fr.lookup(ok.id).is_none(), "2xx not retained");
        let mut retained_ids = Vec::new();
        for _ in 0..5 {
            let r = fr.record(0, mk(500));
            assert_eq!(r.anomaly, Some("error"));
            retained_ids.push(r.id);
        }
        // retain_cap=3: the two oldest were evicted.
        assert!(fr.lookup(retained_ids[0]).is_none());
        assert!(fr.lookup(retained_ids[1]).is_none());
        for id in &retained_ids[2..] {
            assert!(fr.lookup(*id).is_some());
        }
        assert_eq!(fr.retained().len(), 3);
    }

    #[test]
    fn flight_ring_is_bounded_under_churn() {
        let fr = FlightRecorder::new(1, 8, 4);
        for _ in 0..1_000 {
            let ctx = TraceCtx::start();
            let rec = ctx.finish(200);
            fr.record(0, rec);
        }
        assert!(fr.recent().len() <= 8, "ring exceeded its bound");
        assert_eq!(fr.recent().len(), 8, "ring is full after churn");
    }

    #[test]
    fn latency_threshold_arms_after_min_samples() {
        let fr = FlightRecorder::new(1, 4, 8);
        assert_eq!(fr.latency_threshold_ns(), None);
        let mk = |ns: u64| {
            let ctx = TraceCtx::start();
            let mut rec = ctx.finish(200);
            rec.total_ns = ns;
            rec
        };
        for _ in 0..ANOMALY_MIN_SAMPLES {
            fr.record(0, mk(1_000));
        }
        let thr = fr.latency_threshold_ns().expect("armed");
        assert!(thr >= 4_000, "threshold {thr} not near 8×ewma");
        let slow = fr.record(0, mk(1_000_000));
        assert_eq!(slow.anomaly, Some("latency"));
        assert!(fr.lookup(slow.id).is_some());
    }

    #[test]
    fn dump_jsonl_lines_parse() {
        let fr = FlightRecorder::new(1, 4, 4);
        for status in [200u16, 500, 204] {
            let ctx = TraceCtx::start();
            fr.record(0, ctx.finish(status));
        }
        let dump = fr.dump_jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        // 1 retained (the 500) + 3 ring entries.
        assert_eq!(lines.len(), 4);
        for line in lines {
            crate::json::parse(line).expect("dump line is valid json");
        }
    }

    #[test]
    fn flush_stage_metrics_populates_labeled_registry() {
        let _values = metrics::tests::values_stay();
        let ctx = TraceCtx::start();
        ctx.set_tenant("flushy");
        ctx.set_request("spmv", 1);
        ctx.add(Stage::Exec, 5_000_000);
        let rec = ctx.finish(200);
        flush_stage_metrics(&rec, 0); // 0ms objective: any request is over
        let s = metrics::snapshot();
        let h = s
            .histogram("serve.stage_ns{stage=\"exec\",tenant=\"flushy\"}")
            .expect("stage histogram exists");
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 5_000_000);
        assert_eq!(h.exemplars.len(), 1);
        assert_eq!(h.exemplars[0].1, rec.id.0);
        assert!(
            s.counter("serve.slo.over{objective_ms=\"0\",tenant=\"flushy\"}") >= 1,
            "SLO over counter"
        );
        assert!(
            s.histogram("serve.request_ns{tenant=\"flushy\"}").is_some(),
            "request latency histogram"
        );
    }
}
