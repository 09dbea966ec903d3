//! # asap-bench — experiment harness regenerating every table and figure
//!
//! Every number the paper reports is the same experiment — (matrix,
//! kernel, variant, prefetcher configuration, threads) → cycles, MPKI,
//! throughput — and each layer of it lives in one place:
//!
//! - [`run`]: the cell. [`run_cell`] runs one experiment on one simulated
//!   core (the `run_*_threads` forwards row-partition it over several)
//!   and extracts the paper's metrics into an [`ExperimentResult`].
//! - `sweep`: the grid. [`sweep()`] pushes a collection × a list of
//!   configurations through [`run_cell`] on the crash-isolated
//!   [`pool`], journaled by [`checkpoint`]; Figures 6, 7, 8, 10 and 11
//!   are each one call to it plus a table.
//! - [`ews`]: the aggregation — the Equal-Work harmonic mean Speedup of
//!   Section 5 and the by-group table built on it.
//! - [`cli`]: the options the figure binaries share.

pub mod checkpoint;
pub mod cli;
pub mod ews;
pub mod pool;
pub mod predict;
pub mod run;
mod sweep;

pub use cli::{Options, UsageError};
pub use ews::{ews_by_group, ews_speedup};
pub use predict::{aj_coverage, predict_asap_over_aj, predicted_advantage};
pub use run::{
    results_to_json, run_cell, run_spmm, run_spmm_threads, run_spmv, run_spmv_threads,
    sweep_spmv_dir, Cell, ExperimentResult, SkippedMatrix, SweepReport, Variant,
};
pub use sweep::{print_mpki_table, sweep};

/// Paper-fixed prefetch distance (Section 4.3).
pub const PAPER_DISTANCE: usize = 45;

/// Dense columns for SpMM with f64 values: one cache line per row
/// (Section 5.2).
pub const SPMM_COLS_F64: usize = 8;
