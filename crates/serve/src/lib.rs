//! # asap-serve — a concurrent compile-and-execute kernel service
//!
//! The workspace's batch story (figure sweeps, `asap_cli`) compiles and
//! runs kernels one process at a time. This crate turns the same
//! pipeline into a long-lived daemon: clients POST a request naming a
//! kernel (SpMV/SpMM), a matrix (collection name, `gen:` spec, or
//! inline MatrixMarket), a prefetch strategy, an engine, and a
//! deadline; the server compiles through the sharded kernel cache,
//! executes on the bytecode VM under a `Budget`, and answers with a
//! checksum and timings — bit-identical to a direct `asap-core` call.
//!
//! Production concerns, all std-only:
//!
//! - **Admission control** ([`queue`]): the connection FIFO and every
//!   job lane are bounded; overload is an immediate 429 +
//!   `Retry-After`, never latency collapse.
//! - **Request coalescing** (`asap_core::cache`): concurrent cold
//!   compiles of the same kernel single-flight in the compile cache;
//!   exactly one request pays.
//! - **Panic isolation** ([`server`]): a panicking request is a 500 for
//!   that client, not a dead worker.
//! - **Cancellation**: a reaper thread detects client disconnects and
//!   fires the request's `CancelToken`, stopping abandoned work at the
//!   budget's next poll slot.
//! - **Supervision**: worker-thread death is detected,
//!   journaled (JSONL crash journal: panic digest + request
//!   fingerprint), and healed by respawn under consecutive-crash
//!   backoff.
//! - **Protocol hygiene** ([`http`]): request-line, header-count,
//!   head-bytes, and body caps with typed 4xx answers (414/431/413),
//!   plus a wall-clock read deadline so slow-loris drips cannot pin
//!   workers.
//! - **Self-healing clients** ([`client`]): jittered exponential
//!   backoff honoring `Retry-After`, checksum-witnessed idempotent
//!   responses, and a closed/open/half-open circuit breaker.
//! - **Graceful drain** (`POST /control/shutdown`): stop admitting,
//!   serve everything queued, join every thread.
//! - **Observability**: `/healthz`, `/metrics` (the `asap-obs`
//!   registry: `serve.*` counters, queue-depth/in-flight gauges).
//!
//! - **Tenant isolation** ([`tenant`], [`store`], [`queue`]): requests
//!   are classified by `X-Asap-Tenant`; each tenant gets a token-bucket
//!   request quota, a resident-byte quota in the bounded matrix store,
//!   and a weighted deficit-round-robin lane in the job scheduler, so
//!   one hostile tenant degrades itself, not its neighbours. Under
//!   sustained pressure a brownout ladder sheds inline uploads first,
//!   then lowest-weight tenants; queued jobs whose deadline lapses are
//!   shed as 504 without occupying a worker.
//!
//! The protocol and endpoints are documented in DESIGN.md §11 and §14;
//! the load harness (`asap_loadgen` in `asap-bench`) drives open-loop
//! (optionally multi-tenant zipfian) traffic against this server and
//! reports per-tenant throughput and CO-aware latency percentiles.

#![forbid(unsafe_code)]

mod admission;
pub mod client;
pub mod http;
pub mod matrix;
pub mod queue;
mod reply;
pub mod request;
pub mod server;
pub mod single_flight;
pub mod store;
mod supervisor;
pub mod tenant;

pub use client::{
    exchange, exchange_with_headers, get, post, BreakerState, CircuitBreaker, ClientError,
    HttpReply, ResilientClient, RetryPolicy,
};
pub use http::{MAX_HEADERS, MAX_HEAD_BYTES, MAX_REQUEST_LINE};
pub use matrix::MatrixCatalog;
pub use queue::{PushError, SubmitError, TenantScheduler, Work};
pub use request::{
    parse_run_request, render_error, render_outcome, RequestCtx, RunReject, RunRequest,
    DEFAULT_SPMM_COLS,
};
pub use server::{ServeConfig, Server};
pub use single_flight::SingleFlight;
pub use store::{MatrixStore, Resident, StoreError, STORE_SHARDS};
pub use tenant::{TenantError, TenantQuotas, TenantRegistry, TenantState, DEFAULT_TENANT};
