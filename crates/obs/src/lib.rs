//! # asap-obs — workspace-wide observability
//!
//! Zero-dependency (no external crates) tracing, metrics, and
//! prefetch-effectiveness profiling for the ASaP reproduction:
//!
//! - [`recorder`] — a process-global span recorder with RAII scoped
//!   spans, parent links and attributes; disabled-path cost is one
//!   relaxed atomic load (`perfstat` gates the aggregate overhead <2%).
//! - [`metrics`] — one registry of named counters, gauges and
//!   log2-bucketed histograms (labels optional) unifying the workspace's
//!   scattered stats (compile-cache hits, pool retries, budget polls, VM
//!   opcode dispatch counts, the daemon's per-tenant stage clocks).
//! - [`analyzer`] — joins the `asap-ir` [`TraceModel`](asap_ir::TraceModel)
//!   event stream with `asap-sim` counters into per-prefetch-site
//!   accuracy / coverage / timeliness, mapped back to the sparsifier
//!   construct that emitted each site.
//! - [`json`] — the workspace's one JSON implementation: the shared
//!   writer every emitter uses plus the tolerant parser the serving
//!   layer reads request bodies with (typed `AsapError::Json` on
//!   malformed input).
//! - [`sink`] + [`manifest`] — hand-rolled JSONL output (`--trace-out`)
//!   and the run manifest stamped into every results file.
//! - [`tee`] — a [`MemoryModel`](asap_ir::MemoryModel) splitter so one
//!   execution feeds the simulator and the trace recorder at once.
//!
//! See DESIGN.md §10 for the architecture and the dependency-direction
//! rule (`asap-ir`/`asap-sim` stay obs-free; spans are recorded from
//! `asap-core`/`asap-bench` call sites).

#![forbid(unsafe_code)]

pub mod analyzer;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod recorder;
pub mod sink;
pub mod tee;
pub mod trace;

pub use analyzer::{
    analyze, analyze_with_counters, render_site_table, site_labels, Effectiveness, SiteStats,
};
pub use json::{parse as parse_json, Json, ObjWriter};
pub use manifest::{RunManifest, BUILD_PROFILE};
pub use metrics::{
    counter_add, counter_get, counter_inc, counter_set_max, gauge_add, gauge_get, gauge_set,
    gauge_sub, histogram_record, histogram_record_exemplar, labeled_name, render as render_metrics,
    snapshot as metrics_snapshot, HistogramSnapshot, MetricsSnapshot,
};
pub use recorder::{
    enabled, render_span_tree, render_span_tree_timed, set_enabled, snapshot_spans, span,
    span_with, take_spans, Span, SpanRecord,
};
pub use sink::{render_jsonl, validate_jsonl, write_jsonl};
pub use tee::TeeModel;
pub use trace::{
    flush_stage_metrics, FlightRecorder, RequestRecord, Stage, TraceCtx, TraceId, STAGES,
    STAGE_COUNT,
};

/// Reset spans and metrics together (the determinism tests' preamble).
pub fn reset_all() {
    recorder::reset();
    metrics::reset();
}
