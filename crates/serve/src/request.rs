//! The wire protocol: `POST /v1/run` bodies in, response JSON out.
//!
//! Requests are strict JSON — unknown fields are rejected (the same
//! contract as the bench result reader: a typo'd `"distanse"` must be a
//! 400, not a silently-defaulted 45). Responses carry the checksum as a
//! fixed-width hex *string*: a u64 does not survive JSON readers that
//! funnel numbers through f64, and the checksum is the bit-exactness
//! witness the whole test story hangs on.
//!
//! Parsing is tenant-aware: matrix references resolve through the
//! resident [`MatrixStore`] on the calling tenant's account, so a
//! rejection is typed with the HTTP status it deserves —
//! [`RunReject::Bad`] (400) for malformed bodies,
//! [`RunReject::Oversized`] (413) for matrices that could never fit the
//! store, [`RunReject::StoreBusy`] / [`RunReject::Brownout`] (429) for
//! quota, pin-pressure, and load-shed conditions that a client should
//! retry later.

use crate::matrix::MatrixCatalog;
use crate::store::{MatrixStore, Resident, StoreError};
use crate::tenant::TenantState;
use asap_core::{ExecEngine, PrefetchStrategy, ServiceKernel, ServiceOutcome};
use asap_ir::{AsapError, Budget, CancelToken};
use asap_obs::{Json, ObjWriter, Stage, TraceCtx, STAGES};
use std::sync::Arc;

/// Default SpMM dense-operand width when the request omits `cols`.
pub const DEFAULT_SPMM_COLS: usize = 8;

const KNOWN_FIELDS: [&str; 8] = [
    "kernel",
    "matrix",
    "mtx",
    "cols",
    "strategy",
    "distance",
    "engine",
    "deadline_ms",
];

/// Everything a parse needs beyond the body: where matrices come from
/// and on whose account.
pub struct RequestCtx<'a> {
    pub catalog: &'a MatrixCatalog,
    pub store: &'a Arc<MatrixStore>,
    pub tenant: &'a Arc<TenantState>,
    pub default_deadline_ms: u64,
    /// Per-request execution byte budget (0 = unlimited).
    pub exec_bytes: u64,
    /// Brownout lever: when false, inline `mtx` uploads are refused
    /// with a retryable 429 before any parsing or allocation happens.
    pub allow_inline: bool,
    /// Request trace context: store resolution time is attributed to
    /// [`Stage::Store`] through this. `None` (or a dormant context)
    /// records nothing.
    pub trace: Option<&'a TraceCtx>,
}

impl RequestCtx<'_> {
    /// Run `f`, attributing its wall time to the store stage.
    fn timed_store<R>(&self, f: impl FnOnce() -> R) -> R {
        match self.trace {
            Some(t) => t.time(Stage::Store, f),
            None => f(),
        }
    }
}

/// A typed parse/resolve failure carrying its HTTP status.
#[derive(Debug)]
pub enum RunReject {
    /// Malformed body or unknown reference (→ 400).
    Bad(AsapError),
    /// The matrix can never become resident (→ 413).
    Oversized(String),
    /// Tenant byte quota or fully-pinned store (→ 429, retryable).
    StoreBusy(String),
    /// Inline uploads shed under brownout (→ 429, retryable).
    Brownout,
}

impl RunReject {
    pub fn status(&self) -> u16 {
        match self {
            RunReject::Bad(_) => 400,
            RunReject::Oversized(_) => 413,
            RunReject::StoreBusy(_) | RunReject::Brownout => 429,
        }
    }

    /// The `kind` field of the error body.
    pub fn kind(&self) -> &str {
        match self {
            RunReject::Bad(e) => e.kind(),
            RunReject::Oversized(_) | RunReject::StoreBusy(_) => "store",
            RunReject::Brownout => "brownout",
        }
    }

    pub fn message(&self) -> String {
        match self {
            RunReject::Bad(e) => e.to_string(),
            RunReject::Oversized(m) | RunReject::StoreBusy(m) => m.clone(),
            RunReject::Brownout => {
                "server is shedding inline matrix uploads under load; retry later or use a named matrix".into()
            }
        }
    }
}

impl From<AsapError> for RunReject {
    fn from(e: AsapError) -> RunReject {
        RunReject::Bad(e)
    }
}

impl From<StoreError> for RunReject {
    fn from(e: StoreError) -> RunReject {
        match e {
            StoreError::Oversized { .. } => RunReject::Oversized(e.to_string()),
            StoreError::TenantQuota { .. } | StoreError::Busy => {
                RunReject::StoreBusy(e.to_string())
            }
        }
    }
}

/// A parsed, resolved, ready-to-execute request. Holds the matrix as a
/// store [`Resident`]: while the request lives, the entry is pinned.
#[derive(Debug)]
pub struct RunRequest {
    pub kernel: ServiceKernel,
    pub resident: Resident,
    /// What the client called the matrix (echoed in the response).
    pub matrix_label: String,
    pub strategy: PrefetchStrategy,
    pub strategy_label: &'static str,
    pub engine: ExecEngine,
    pub deadline_ms: u64,
    /// Execution byte budget threaded from the server config.
    pub exec_bytes: u64,
}

impl RunRequest {
    pub fn sparse(&self) -> &Arc<asap_tensor::SparseTensor> {
        &self.resident.tensor
    }

    /// The execution budget: the per-request deadline plus the client
    /// disconnect token (a `deadline_ms` of 0 means "no deadline").
    pub fn budget(&self, cancel: &CancelToken) -> Budget {
        self.budget_with_remaining(cancel, self.deadline_ms)
    }

    /// [`budget`](RunRequest::budget) with the deadline replaced by the
    /// time actually left — queue time counts against the client's
    /// deadline, so the executor passes `deadline_at - now`, not the
    /// original span. Nothing left is an already-expired deadline (the
    /// run traps at its first poll slot), not a millisecond of grace in
    /// which a small kernel finishes and answers 200 past its deadline.
    pub fn budget_with_remaining(&self, cancel: &CancelToken, remaining_ms: u64) -> Budget {
        let mut b = Budget::unlimited().with_cancel(cancel);
        if self.exec_bytes > 0 {
            b = b.with_bytes(self.exec_bytes);
        }
        if self.deadline_ms > 0 {
            b = b.with_deadline_ms(remaining_ms);
        }
        b
    }
}

fn want_str<'a>(v: &'a Json, field: &str) -> Result<&'a str, AsapError> {
    v.get(field)
        .and_then(Json::as_str)
        .ok_or_else(|| AsapError::binding(format!("field {field:?} must be a string")))
}

fn opt_usize(v: &Json, field: &str) -> Result<Option<usize>, AsapError> {
    match v.get(field) {
        None => Ok(None),
        Some(n) => n.as_usize().map(Some).ok_or_else(|| {
            AsapError::binding(format!("field {field:?} must be a non-negative integer"))
        }),
    }
}

/// Resolve a named/`gen:` reference through the store (hit → pinned
/// resident; miss → build once, admit on the tenant's account).
fn resolve_named(ctx: &RequestCtx, name: &str) -> Result<Resident, RunReject> {
    ctx.timed_store(|| {
        ctx.store.resident(
            || format!("ref:{name}"),
            ctx.tenant,
            || Ok(ctx.catalog.build(name)?),
        )
    })
}

/// Resolve inline MatrixMarket text: keyed by content digest, so the
/// second request with the same bytes is a store hit that skips the
/// O(nnz) parse entirely.
fn resolve_inline(ctx: &RequestCtx, text: &str) -> Result<Resident, RunReject> {
    if !ctx.allow_inline {
        return Err(RunReject::Brownout);
    }
    // What a built matrix may weigh: the store's per-entry limit and,
    // when set, the execution byte budget it would be bound under.
    let exec_limit = if ctx.exec_bytes > 0 {
        ctx.exec_bytes
    } else {
        u64::MAX
    };
    let max_bytes = ctx.store.entry_limit().min(exec_limit);
    ctx.timed_store(|| {
        ctx.store.resident(
            || format!("mtx:{:016x}", asap_core::fingerprint64(text.as_bytes())),
            ctx.tenant,
            || ctx.catalog.resolve_inline(text, max_bytes),
        )
    })
}

/// Parse and resolve one `/v1/run` body. Every failure is a typed
/// [`RunReject`] the worker maps to its HTTP status.
pub fn parse_run_request(body: &[u8], ctx: &RequestCtx) -> Result<RunRequest, RunReject> {
    let text =
        std::str::from_utf8(body).map_err(|_| AsapError::binding("request body is not UTF-8"))?;
    let v = asap_obs::parse_json(text)?;
    let Json::Obj(fields) = &v else {
        return Err(AsapError::binding("request body must be a JSON object").into());
    };
    for (k, _) in fields {
        if !KNOWN_FIELDS.contains(&k.as_str()) {
            return Err(AsapError::binding(format!("unknown field {k:?}")).into());
        }
    }

    let cols = opt_usize(&v, "cols")?;
    let kernel = match want_str(&v, "kernel")? {
        "spmv" => {
            if cols.is_some() {
                return Err(AsapError::binding("field \"cols\" only applies to spmm").into());
            }
            ServiceKernel::Spmv
        }
        "spmm" => ServiceKernel::Spmm {
            cols: cols.unwrap_or(DEFAULT_SPMM_COLS),
        },
        other => {
            return Err(AsapError::binding(format!(
                "unknown kernel {other:?}: expected spmv or spmm"
            ))
            .into())
        }
    };

    let (resident, matrix_label) = match (v.get("matrix"), v.get("mtx")) {
        (Some(_), Some(_)) => {
            return Err(
                AsapError::binding("give either \"matrix\" or inline \"mtx\", not both").into(),
            )
        }
        (Some(_), None) => {
            let name = want_str(&v, "matrix")?;
            (resolve_named(ctx, name)?, name.to_string())
        }
        (None, Some(_)) => {
            let text = want_str(&v, "mtx")?;
            (resolve_inline(ctx, text)?, "inline".to_string())
        }
        (None, None) => {
            return Err(AsapError::binding(
                "a matrix is required: \"matrix\" (name or gen: spec) or inline \"mtx\"",
            )
            .into())
        }
    };

    let distance = opt_usize(&v, "distance")?.unwrap_or(45);
    let (strategy, strategy_label) = match v.get("strategy").map(|s| s.as_str()) {
        None => (PrefetchStrategy::asap(distance), "asap"),
        Some(Some("asap")) => (PrefetchStrategy::asap(distance), "asap"),
        Some(Some("aj")) => (PrefetchStrategy::aj(distance), "ainsworth-jones"),
        Some(Some("baseline")) => (PrefetchStrategy::none(), "baseline"),
        Some(Some(other)) => {
            return Err(AsapError::binding(format!(
                "unknown strategy {other:?}: expected baseline, asap, or aj"
            ))
            .into())
        }
        Some(None) => return Err(AsapError::binding("field \"strategy\" must be a string").into()),
    };

    let engine = match v.get("engine").map(|s| s.as_str()) {
        None | Some(Some("auto")) => ExecEngine::Auto,
        Some(Some("bytecode")) => ExecEngine::Bytecode,
        Some(Some("tier2")) => ExecEngine::Tier2,
        // The tree-walking interpreter is the oracle the other engines
        // are checked against, not a serving engine: it is not on the
        // wire.
        Some(Some(other)) => {
            return Err(AsapError::binding(format!(
                "unknown engine {other:?}: expected auto, bytecode, or tier2"
            ))
            .into())
        }
        Some(None) => return Err(AsapError::binding("field \"engine\" must be a string").into()),
    };

    let deadline_ms = match v.get("deadline_ms") {
        None => ctx.default_deadline_ms,
        Some(n) => n.as_u64().ok_or_else(|| {
            AsapError::binding("field \"deadline_ms\" must be a non-negative integer")
        })?,
    };

    Ok(RunRequest {
        kernel,
        resident,
        matrix_label,
        strategy,
        strategy_label,
        engine,
        deadline_ms,
        exec_bytes: ctx.exec_bytes,
    })
}

/// Render the success body for an executed request. When a live trace
/// context is supplied, the body carries a `trace` id and a `stage_ns`
/// object with the per-stage breakdown so far (the write stage is
/// excluded — the response is rendered before it is written), which is
/// what `asap_loadgen --latency-breakdown` aggregates.
pub fn render_outcome(
    req: &RunRequest,
    outcome: &ServiceOutcome,
    trace: Option<&TraceCtx>,
) -> String {
    let mut w = ObjWriter::new();
    w.str("status", "ok")
        .str("kernel", req.kernel.label())
        .str("matrix", &req.matrix_label)
        .str("strategy", req.strategy_label)
        .str("engine", outcome.engine_used)
        .str("checksum", &format!("{:016x}", outcome.checksum))
        .usize("rows", outcome.rows)
        .usize("cols", outcome.cols)
        .usize("nnz", outcome.nnz)
        .usize("prefetch_ops", outcome.prefetch_ops)
        .u64("compile_ns", outcome.compile_ns)
        .u64("exec_ns", outcome.exec_ns)
        .bool("cache_hit", outcome.cache_hit)
        .bool("store_hit", req.resident.store_hit)
        .bool("degraded", outcome.degraded)
        .str_array("warnings", &outcome.warnings);
    if let Some(t) = trace.filter(|t| t.enabled()) {
        w.str("trace", &t.id().hex());
        let mut stages = String::from("{");
        let mut first = true;
        for st in STAGES {
            if st == Stage::Write {
                continue;
            }
            if !first {
                stages.push(',');
            }
            first = false;
            stages.push_str(&format!("\"{}\":{}", st.label(), t.stage_ns(st)));
        }
        stages.push('}');
        w.raw("stage_ns", &stages);
    }
    w.finish()
}

/// Render an error body: `{"status":..., "error":..., "kind":...}`.
pub fn render_error(status: &str, kind: &str, message: &str) -> String {
    let mut w = ObjWriter::new();
    w.str("status", status)
        .str("kind", kind)
        .str("error", message);
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::{TenantQuotas, TenantRegistry};
    use asap_matrices::SizeClass;

    struct Fixture {
        catalog: MatrixCatalog,
        store: Arc<MatrixStore>,
        tenant: Arc<TenantState>,
    }

    impl Fixture {
        fn new(store_bytes: u64) -> Fixture {
            Fixture {
                catalog: MatrixCatalog::new(SizeClass::Tiny),
                store: Arc::new(MatrixStore::new(store_bytes)),
                tenant: TenantRegistry::new(TenantQuotas::default()).default_tenant(),
            }
        }

        fn ctx(&self) -> RequestCtx<'_> {
            self.ctx_deadline(1000)
        }

        fn ctx_deadline(&self, default_deadline_ms: u64) -> RequestCtx<'_> {
            RequestCtx {
                catalog: &self.catalog,
                store: &self.store,
                tenant: &self.tenant,
                default_deadline_ms,
                exec_bytes: 0,
                allow_inline: true,
                trace: None,
            }
        }
    }

    #[test]
    fn parses_a_full_request() {
        let fx = Fixture::new(64 * 1024 * 1024);
        let body = br#"{"kernel":"spmm","matrix":"gen:banded:256:4","cols":3,
                        "strategy":"aj","distance":16,"engine":"bytecode","deadline_ms":250}"#;
        let r = parse_run_request(body, &fx.ctx()).unwrap();
        assert_eq!(r.kernel, ServiceKernel::Spmm { cols: 3 });
        assert_eq!(r.strategy_label, "ainsworth-jones");
        assert_eq!(r.engine, ExecEngine::Bytecode);
        assert_eq!(r.deadline_ms, 250);
        assert_eq!(r.sparse().dims(), &[256, 256]);
        assert!(!r.resident.store_hit, "first sight is a miss");
    }

    #[test]
    fn no_time_left_is_an_expired_deadline_not_a_millisecond_of_grace() {
        let fx = Fixture::new(64 * 1024 * 1024);
        let body = br#"{"kernel":"spmv","matrix":"gen:er:256:4","deadline_ms":40}"#;
        let r = parse_run_request(body, &fx.ctx()).unwrap();
        let mut meter = r.budget_with_remaining(&CancelToken::new(), 0).meter();
        let trapped = (0..=asap_ir::BudgetMeter::POLL_INTERVAL).find_map(|_| meter.tick().err());
        assert!(
            trapped.is_some(),
            "an expired deadline traps at a poll slot"
        );
    }

    #[test]
    fn second_resolve_is_a_store_hit() {
        let fx = Fixture::new(64 * 1024 * 1024);
        let body = br#"{"kernel":"spmv","matrix":"gen:er:256:4"}"#;
        let a = parse_run_request(body, &fx.ctx()).unwrap();
        let b = parse_run_request(body, &fx.ctx()).unwrap();
        assert!(!a.resident.store_hit);
        assert!(b.resident.store_hit);
        assert!(Arc::ptr_eq(a.sparse(), b.sparse()), "same resident tensor");
    }

    #[test]
    fn inline_mtx_is_stored_by_content_digest() {
        let fx = Fixture::new(64 * 1024 * 1024);
        let body = br#"{"kernel":"spmv","mtx":"%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 2.0\n3 2 -1.5\n"}"#;
        let a = parse_run_request(body, &fx.ctx()).unwrap();
        assert!(!a.resident.store_hit);
        let b = parse_run_request(body, &fx.ctx()).unwrap();
        assert!(b.resident.store_hit, "identical bytes skip the re-parse");
        assert_eq!(b.matrix_label, "inline");
    }

    #[test]
    fn brownout_refuses_inline_but_not_named() {
        let fx = Fixture::new(64 * 1024 * 1024);
        let mut ctx = fx.ctx();
        ctx.allow_inline = false;
        let inline = br#"{"kernel":"spmv","mtx":"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2.0\n"}"#;
        match parse_run_request(inline, &ctx) {
            Err(RunReject::Brownout) => {}
            other => panic!("expected Brownout, got {:?}", other.err()),
        }
        parse_run_request(br#"{"kernel":"spmv","matrix":"gen:er:256:4"}"#, &ctx)
            .expect("named matrices keep working under brownout");
    }

    #[test]
    fn oversized_matrix_is_413_not_alloc() {
        let fx = Fixture::new(8 * 1024); // 1 KiB per shard
        let body = br#"{"kernel":"spmv","matrix":"gen:er:4096:8"}"#;
        let e = parse_run_request(body, &fx.ctx()).unwrap_err();
        assert_eq!(e.status(), 413);
        assert_eq!(e.kind(), "store");
    }

    #[test]
    fn tenant_quota_exhaustion_is_429() {
        let reg = TenantRegistry::new(TenantQuotas {
            store_bytes: 1024,
            ..TenantQuotas::default()
        });
        let fx = Fixture::new(64 * 1024 * 1024);
        let tenant = reg.resolve(Some("capped")).unwrap();
        let ctx = RequestCtx {
            catalog: &fx.catalog,
            store: &fx.store,
            tenant: &tenant,
            default_deadline_ms: 1000,
            exec_bytes: 0,
            allow_inline: true,
            trace: None,
        };
        let e =
            parse_run_request(br#"{"kernel":"spmv","matrix":"gen:er:2048:8"}"#, &ctx).unwrap_err();
        assert_eq!(e.status(), 429);
        assert_eq!(e.kind(), "store");
    }

    #[test]
    fn disabled_store_still_parses() {
        let fx = Fixture::new(0);
        let body = br#"{"kernel":"spmv","matrix":"gen:er:256:4"}"#;
        let r = parse_run_request(body, &fx.ctx()).unwrap();
        assert!(!r.resident.store_hit);
        assert_eq!(fx.store.entries(), 0);
    }

    #[test]
    fn parses_the_tier2_engine() {
        let fx = Fixture::new(0);
        let body = br#"{"kernel":"spmv","matrix":"gen:er:256:4","engine":"tier2"}"#;
        let r = parse_run_request(body, &fx.ctx()).unwrap();
        assert_eq!(r.engine, ExecEngine::Tier2);
    }

    #[test]
    fn defaults_fill_in() {
        let fx = Fixture::new(0);
        let body = br#"{"kernel":"spmv","matrix":"gen:er:256:4"}"#;
        let r = parse_run_request(body, &fx.ctx_deadline(750)).unwrap();
        assert_eq!(r.kernel, ServiceKernel::Spmv);
        assert_eq!(r.strategy_label, "asap");
        assert_eq!(r.engine, ExecEngine::Auto);
        assert_eq!(r.deadline_ms, 750);
    }

    #[test]
    fn rejects_bad_requests_with_typed_errors() {
        let fx = Fixture::new(64 * 1024 * 1024);
        let cases: [(&[u8], &str); 9] = [
            (b"not json", "json"),
            (br#"[1,2]"#, "binding"),
            (br#"{"matrix":"gen:er:256:4"}"#, "binding"),
            (br#"{"kernel":"spgemm","matrix":"gen:er:256:4"}"#, "binding"),
            (br#"{"kernel":"spmv"}"#, "binding"),
            (
                br#"{"kernel":"spmv","matrix":"gen:er:256:4","distanse":9}"#,
                "binding",
            ),
            (
                br#"{"kernel":"spmv","matrix":"gen:er:256:4","cols":4}"#,
                "binding",
            ),
            (
                br#"{"kernel":"spmv","matrix":"gen:er:256:4","engine":"jit"}"#,
                "binding",
            ),
            (
                br#"{"kernel":"spmv","matrix":"gen:er:256:4","engine":"tree-walk"}"#,
                "binding",
            ),
        ];
        for (body, kind) in cases {
            let e = parse_run_request(body, &fx.ctx()).unwrap_err();
            assert_eq!(e.status(), 400, "{:?}", String::from_utf8_lossy(body));
            assert_eq!(
                e.kind(),
                kind,
                "{:?} -> {}",
                String::from_utf8_lossy(body),
                e.message()
            );
        }
    }

    #[test]
    fn outcome_renders_parseable_json_with_hex_checksum() {
        let fx = Fixture::new(64 * 1024 * 1024);
        let req = parse_run_request(
            br#"{"kernel":"spmv","matrix":"gen:banded:256:2"}"#,
            &fx.ctx(),
        )
        .unwrap();
        let cancel = CancelToken::new();
        let outcome = asap_core::serve_request(
            req.kernel,
            req.sparse(),
            &req.strategy,
            req.engine,
            &req.budget(&cancel),
        )
        .unwrap();
        let body = render_outcome(&req, &outcome, None);
        let v = asap_obs::parse_json(&body).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
        assert!(v.get("stage_ns").is_none(), "no trace, no stage breakdown");
        // And with a live trace the breakdown appears.
        let t = TraceCtx::start();
        t.add(Stage::Exec, 1234);
        let traced = render_outcome(&req, &outcome, Some(&t));
        let tv = asap_obs::parse_json(&traced).unwrap();
        assert_eq!(
            tv.get("stage_ns").unwrap().get("exec").unwrap().as_u64(),
            Some(1234)
        );
        assert_eq!(
            tv.get("trace").unwrap().as_str().unwrap(),
            t.id().hex().as_str()
        );
        let hex = v.get("checksum").unwrap().as_str().unwrap();
        assert_eq!(hex.len(), 16);
        assert_eq!(u64::from_str_radix(hex, 16).unwrap(), outcome.checksum);
        assert_eq!(v.get("nnz").unwrap().as_usize(), Some(outcome.nnz));
        assert_eq!(v.get("store_hit").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn zero_deadline_means_unlimited() {
        let fx = Fixture::new(0);
        let req = parse_run_request(
            br#"{"kernel":"spmv","matrix":"gen:er:256:4","deadline_ms":0}"#,
            &fx.ctx(),
        )
        .unwrap();
        let cancel = CancelToken::new();
        // Unlimited budget: the run completes rather than trapping.
        asap_core::serve_request(
            req.kernel,
            req.sparse(),
            &req.strategy,
            req.engine,
            &req.budget(&cancel),
        )
        .unwrap();
    }
}
