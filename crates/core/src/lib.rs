//! # asap-core — ASaP: Automatic Software Prefetching for sparse tensors
//!
//! The paper's primary contribution, built on `asap-sparsifier`'s hook
//! infrastructure:
//!
//! - [`AsapHook`] / [`AsapConfig`] — the three-step prefetch generation of
//!   Figure 5, with semantic buffer bounds from the `crd_buf_sz`
//!   recursion (Section 3.2). Works for innermost loops (SpMV) and outer
//!   loops (SpMM, Figure 9) alike, for any format expressible in the
//!   sparse tensor dialect.
//! - [`ainsworth_jones`] / [`AjConfig`] — a faithful reimplementation of
//!   the prior-art low-level pass: post-hoc pattern matching, loop-bound
//!   clamping. It finds nothing to do for SpMM and dies at segment
//!   boundaries — the two weaknesses the evaluation quantifies.
//! - [`compile`] / [`PrefetchStrategy`] — the three-variant pipeline of
//!   Section 4.3 (baseline / ASaP / A&J), with LICM + DCE cleanup.

pub mod aj;
pub mod asap;
pub mod autotune;
pub mod cache;
pub mod pipeline;
pub mod service;

pub use aj::{ainsworth_jones, AjConfig};
pub use asap::{AsapConfig, AsapHook, InjectionSite};
pub use autotune::{default_candidates, tune_distance, TuneOutcome, TuneSample};
pub use cache::{
    cache_len, cache_stats_full, compile_cached, compile_cached_stat, CacheStats, CACHE_SHARDS,
};
pub use pipeline::{
    compile, compile_with_width, run, run_profiled, run_spmm_f64, run_spmm_f64_with, run_spmv_f64,
    run_spmv_f64_budgeted, run_spmv_f64_with, run_with_engine_budgeted, CompileWarning,
    CompiledKernel, Engine, ExecEngine, PrefetchStrategy,
};
pub use service::{
    checksum_f64, compile_for, execute_request, fingerprint64, serve_request, service_c, service_x,
    ServiceKernel, ServiceOutcome,
};
