//! The one way a response leaves the server.
//!
//! A [`Conn`] is an accepted socket plus the trace context minted for
//! it; it is what waits in the scheduler's queues. The thread serving
//! it binds it to a [`Reply`], and every response — 2xx, 4xx, 5xx, any
//! route — is written by [`Reply::send`], which stamps `X-Asap-Trace`,
//! attributes the write to [`Stage::Write`] and completes the request's
//! telemetry; that is what makes the trace header universal. Every
//! refusal is a [`Rejection`] — status, `Retry-After`, kind, counter
//! and tally as data — answered and accounted by [`Reply::reject`].

use crate::http::write_response;
use crate::request::render_error;
use crate::server::Shared;
use crate::tenant::TenantState;
use asap_obs::{flush_stage_metrics, Stage, TraceCtx};
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// An accepted connection and its request's trace context (queue wait
/// starts ticking at accept), following the request across threads.
pub(crate) struct Conn {
    pub stream: TcpStream,
    pub trace: TraceCtx,
}

/// A connection bound to the thread serving it: `ring` is that thread's
/// flight-recorder ring.
pub(crate) struct Reply<'a> {
    pub shared: &'a Shared,
    pub ring: usize,
    pub stream: TcpStream,
    pub trace: TraceCtx,
}

/// Whose tally a rejection moves.
#[derive(Clone, Copy)]
pub(crate) enum Tally {
    /// The request itself is wrong: `serve.bad_requests`.
    BadRequest,
    /// The server, or the tenant's share of it, is full:
    /// `serve.rejected`, `/healthz` `rejected`, the tenant's `rejected`.
    Rejected,
    /// [`Tally::Rejected`], but on the tenant's `shed` count, and a
    /// `shed` anomaly on the trace so the flight recorder retains it.
    Shed,
}

/// One refusal, as data. The `status` label of the body follows from
/// the status code ([`status_label`]).
#[derive(Clone, Copy)]
pub(crate) struct Rejection<'a> {
    pub status: u16,
    pub retry_after: Option<u64>,
    /// The `kind` field of the error body: the rung that refused.
    pub kind: &'a str,
    /// The rung's own counter beside the tally's, if it has one.
    pub counter: Option<&'static str>,
    pub tally: Tally,
}

/// The common refusal: 429, retry in a second, nothing beyond the tally.
pub(crate) const OVERLOADED: Rejection<'static> = Rejection {
    status: 429,
    retry_after: Some(1),
    kind: "admission",
    counter: None,
    tally: Tally::Rejected,
};

/// The `status` field of an error body.
fn status_label(status: u16) -> &'static str {
    match status {
        404 => "not_found",
        405 => "method_not_allowed",
        408 => "timeout",
        413 => "payload_too_large",
        414 => "uri_too_long",
        429 => "overloaded",
        431 => "header_fields_too_large",
        500 => "panic",
        503 => "draining",
        504 => "deadline_exceeded",
        _ => "bad_request",
    }
}

impl<'a> Reply<'a> {
    pub fn bind(shared: &'a Shared, ring: usize, conn: Conn) -> Reply<'a> {
        Reply {
            shared,
            ring,
            stream: conn.stream,
            trace: conn.trace,
        }
    }

    /// Back to a queueable connection: the `/v1/run` hand-off.
    pub fn unbind(self) -> Conn {
        Conn {
            stream: self.stream,
            trace: self.trace,
        }
    }

    pub fn send(&mut self, status: u16, retry_after: Option<u64>, content_type: &str, body: &str) {
        let mut headers: Vec<(&str, String)> = Vec::new();
        if let Some(secs) = retry_after {
            headers.push(("Retry-After", secs.to_string()));
        }
        if !self.trace.enabled() {
            let _ = write_response(&mut self.stream, status, &headers, content_type, body);
            return;
        }
        headers.push(("X-Asap-Trace", self.trace.id().hex()));
        let t0 = Instant::now();
        let _ = write_response(&mut self.stream, status, &headers, content_type, body);
        self.trace.add(Stage::Write, t0.elapsed().as_nanos() as u64);
        self.complete(status);
    }

    pub fn json(&mut self, status: u16, body: &str) {
        self.send(status, None, "application/json", body);
    }

    /// An error body whose `status` label follows from the status code.
    pub fn error(&mut self, status: u16, kind: &str, message: &str) {
        self.json(status, &render_error(status_label(status), kind, message));
    }

    /// Account a refusal and answer it.
    pub fn reject(&mut self, r: &Rejection, tenant: Option<&TenantState>, message: &str) {
        match r.tally {
            Tally::BadRequest => asap_obs::counter_inc("serve.bad_requests"),
            Tally::Rejected | Tally::Shed => {
                self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                asap_obs::counter_inc("serve.rejected");
                match (tenant, r.tally) {
                    (Some(t), Tally::Shed) => t.count_shed(),
                    (Some(t), _) => t.count_rejected(),
                    (None, _) => {}
                }
            }
        }
        if let Tally::Shed = r.tally {
            self.trace.note_anomaly("shed");
        }
        if let Some(counter) = r.counter {
            asap_obs::counter_inc(counter);
        }
        let body = render_error(status_label(r.status), r.kind, message);
        self.send(r.status, r.retry_after, "application/json", &body);
    }

    /// Complete the request's telemetry: collapse the context into a
    /// [`asap_obs::RequestRecord`], flush the per-stage histograms (with
    /// the trace id as exemplar) and SLO counters, file the record in
    /// this thread's flight-recorder ring, and append the access-log
    /// line. [`Reply::send`] does this; call it directly (status 0) only
    /// for a connection nobody can be answered on.
    pub fn complete(&self, status: u16) {
        if !self.trace.enabled() {
            return;
        }
        let rec = self.trace.finish(status);
        flush_stage_metrics(&rec, self.shared.cfg.slo_ms);
        let rec = self.shared.flight.record(self.ring, rec);
        let mut g = self.shared.access.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(f) = g.as_mut() {
            let _ = writeln!(f, "{}", rec.to_jsonl());
        }
    }
}
