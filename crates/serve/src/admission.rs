//! The admission ladder for `POST /v1/run`, and the execution of what
//! it admits.
//!
//! The rungs, in order (each is a typed [`Rejection`] that never
//! reaches a later rung):
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

use crate::http::HttpRequest;
use crate::queue::SubmitError;
use crate::reply::{Conn, Rejection, Reply, Tally, OVERLOADED};
use crate::request::{parse_run_request, render_outcome, RequestCtx, RunRequest};
use crate::server::Shared;
use crate::tenant::{TenantError, TenantState};
use asap_core::fingerprint64;
use asap_ir::CancelToken;
use asap_obs::Stage;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A parsed `/v1/run` waiting in its tenant's lane. Holding the
/// [`RunRequest`] holds the store pin: a queued job's matrix cannot be
/// evicted out from under it.
pub(crate) struct Job {
    pub conn: Conn,
    pub run: RunRequest,
    pub tenant: Arc<TenantState>,
    /// Wall-clock instant the client's deadline lands (None = no
    /// deadline). Queue time counts: jobs past this are shed unrun.
    pub deadline_at: Option<Instant>,
}

/// The brownout ladder's current level from global job-queue pressure:
/// 0 below half the job bound, 1 (shed inline uploads) at ≥ 1/2,
/// 2 (also shed lowest-weight tenants) at ≥ 3/4.
pub(crate) fn brownout_level(shared: &Shared) -> u8 {
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

/// A refusal not yet answered: the row, whose tally it moves, the message.
type Refused = (Rejection<'static>, Option<Arc<TenantState>>, String);

/// Rungs 1–3, the request's quota stage: tenant, token bucket, brownout
/// shed. Passing yields the tenant and the brownout level. The caller
/// answers a refusal, once the stage's time is on the trace.
fn check_quota(reply: &Reply, req: &HttpRequest) -> Result<(Arc<TenantState>, u8), Refused> {
    let shared = reply.shared;
    let tenant = match shared.tenants.resolve(req.header("x-asap-tenant")) {
        Ok(t) => t,
        Err(e) => {
            let rejection = match e {
                TenantError::BadName(_) => Rejection {
                    status: 400,
                    retry_after: None,
                    kind: "tenant",
                    counter: None,
                    tally: Tally::BadRequest,
                },
                TenantError::TooMany(_) => Rejection {
                    retry_after: Some(5),
                    kind: "tenant",
                    counter: Some("serve.tenant_rejected"),
                    ..OVERLOADED
                },
            };
            return Err((rejection, None, e.to_string()));
        }
    };
    reply.trace.set_tenant(&tenant.name);
    if let Err(retry_after) = tenant.try_admit() {
        let message = format!(
            "tenant {:?} is over its request rate; retry after {retry_after}s",
            tenant.name
        );
        let rejection = Rejection {
            retry_after: Some(retry_after),
            kind: "quota",
            counter: Some("serve.quota_rejected"),
            ..OVERLOADED
        };
        return Err((rejection, Some(tenant), message));
    }
    let level = brownout_level(shared);
    if level >= 2 {
        // Shed lowest-weight tenants — but only when weights actually
        // differ; with one weight class there is nobody "lowest".
        let (min_w, max_w) = shared.tenants.weight_band();
        if min_w < max_w && tenant.weight == min_w {
            let rejection = Rejection {
                kind: "brownout",
                counter: Some("serve.brownout.shed"),
                tally: Tally::Shed,
                ..OVERLOADED
            };
            let message =
                "server is under sustained pressure and shedding low-weight tenants; retry later";
            return Err((rejection, Some(tenant), message.to_string()));
        }
    }
    Ok((tenant, level))
}

/// Rungs 1–4 for one `POST /v1/run`: every failure writes its typed
/// rejection on `reply` here and now; success is a resolved request for
/// [`submit`] to queue.
pub(crate) fn admit_run(
    reply: &mut Reply,
    req: &HttpRequest,
) -> Option<(RunRequest, Arc<TenantState>)> {
    let shared = reply.shared;
    let quota_start = Instant::now();
    let checked = check_quota(reply, req);
    reply
        .trace
        .add(Stage::Quota, quota_start.elapsed().as_nanos() as u64);
    let (tenant, level) = match checked {
        Ok(passed) => passed,
        Err((rejection, tenant, message)) => {
            reply.reject(&rejection, tenant.as_deref(), &message);
            return None;
        }
    };
    let ctx = RequestCtx {
        catalog: &shared.catalog,
        store: &shared.store,
        tenant: &tenant,
        default_deadline_ms: shared.cfg.default_deadline_ms,
        exec_bytes: shared.cfg.exec_bytes,
        allow_inline: level == 0,
        trace: Some(&reply.trace),
    };
    // Body parsing and matrix residency interleave inside
    // `parse_run_request` (the store work is timed by the ctx's trace
    // ref); the remainder of the call is the parse stage proper.
    let store_before = reply.trace.stage_ns(Stage::Store);
    let parse_start = Instant::now();
    let parsed = parse_run_request(&req.body, &ctx);
    let parse_total = parse_start.elapsed().as_nanos() as u64;
    let store_delta = reply
        .trace
        .stage_ns(Stage::Store)
        .saturating_sub(store_before);
    reply
        .trace
        .add(Stage::Parse, parse_total.saturating_sub(store_delta));
    let run = match parsed {
        Ok(r) => r,
        Err(rej) => {
            let status = rej.status();
            let rejection = Rejection {
                status,
                retry_after: (status == 429).then_some(1),
                kind: rej.kind(),
                counter: (rej.kind() == "brownout").then_some("serve.brownout.inline_rejected"),
                tally: if status == 400 {
                    Tally::BadRequest
                } else {
                    Tally::Rejected
                },
            };
            reply.reject(&rejection, Some(&tenant), &rej.message());
            return None;
        }
    };
    reply.trace.set_request(
        run.kernel.label(),
        fingerprint64(run.matrix_label.as_bytes()),
    );
    Some((run, tenant))
}

/// Rung 5, the hand-off: the connection leaves this thread inside a
/// queued [`Job`], or is refused because the lanes are full.
pub(crate) fn submit(reply: Reply, run: RunRequest, tenant: Arc<TenantState>) {
    let (shared, ring) = (reply.shared, reply.ring);
    let deadline_at =
        (run.deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(run.deadline_ms));
    let weight = tenant.weight;
    let name = tenant.name.clone();
    // Queue wait in the tenant lane starts now.
    reply.trace.mark_queued();
    let job = Job {
        conn: reply.unbind(),
        run,
        tenant,
        deadline_at,
    };
    let (job, rejection, message) = match shared.sched.submit_job(&name, weight, job) {
        Ok(depth) => {
            asap_obs::gauge_set("serve.jobs_depth", depth as i64);
            asap_obs::counter_set_max("serve.jobs_depth_peak", depth as u64);
            return;
        }
        Err(SubmitError::TenantFull(job)) => (
            job,
            Rejection {
                counter: Some("serve.lane_rejected"),
                ..OVERLOADED
            },
            format!("tenant {name:?} queue is full; retry after 1s"),
        ),
        Err(SubmitError::TotalFull(job)) => (
            job,
            OVERLOADED,
            "job queue is full; retry after 1s".to_string(),
        ),
    };
    Reply::bind(shared, ring, job.conn).reject(&rejection, Some(&job.tenant), &message);
}

/// Execute a popped job — or shed it with a 504 if its deadline expired
/// while it sat in the lane (a worker writes the response but never
/// pays compile/execute/delay for a request nobody is waiting on).
pub(crate) fn execute_run(
    reply: &mut Reply,
    run: &RunRequest,
    tenant: &TenantState,
    deadline_at: Option<Instant>,
) {
    let shared = reply.shared;
    if deadline_at.is_some_and(|d| Instant::now() >= d) {
        shared.shed_expired.fetch_add(1, Ordering::Relaxed);
        asap_obs::counter_inc("serve.shed.expired");
        asap_obs::counter_inc("serve.deadline_exceeded");
        tenant.count_shed();
        reply.trace.note_anomaly("shed");
        reply.error(
            504,
            "shed",
            "deadline expired while queued; request shed unrun",
        );
        return;
    }
    if shared.cfg.worker_delay_ms > 0 {
        // The injected delay models slow kernel work: exec stage.
        reply.trace.time(Stage::Exec, || {
            std::thread::sleep(Duration::from_millis(shared.cfg.worker_delay_ms));
        });
    }
    // Queue time already spent counts against the client's deadline:
    // budget with what is left, not the original span.
    let remaining_ms = deadline_at
        .map(|d| d.saturating_duration_since(Instant::now()).as_millis() as u64)
        .unwrap_or(0);
    let cancel = CancelToken::new();
    let reaper_id = shared.reaper.register(&cancel, &reply.stream);
    let trace = &reply.trace;
    let result = trace
        .time(Stage::Compile, || {
            asap_core::compile_for(run.kernel, run.sparse(), &run.strategy)
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
            reply.json(200, &body);
        }
        // A tripped budget is governed termination, not failure: the
        // deadline (or the client disconnecting, via the cancel token)
        // stopped the run. 504 mirrors a gateway timeout.
        Err(e) if e.kind() == "budget" => {
            asap_obs::counter_inc("serve.deadline_exceeded");
            trace.note_anomaly("deadline");
            reply.error(504, e.kind(), &e.to_string());
        }
        // Anything else the pipeline rejects (bad spec, binding) is a
        // property of the request.
        Err(e) => {
            asap_obs::counter_inc("serve.bad_requests");
            reply.error(400, e.kind(), &e.to_string());
        }
    }
}
