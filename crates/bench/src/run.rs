//! Running one (matrix, kernel, variant, prefetcher-config) experiment on
//! the simulator and extracting the paper's metrics.
//!
//! The experiment is a [`Cell`] and there are two ways to run one, each
//! written once for both kernels: [`run_cell`] on a single simulated
//! core, and the row-partitioned multi-core body behind the
//! `run_*_threads` forwards. Both start from the same preparation (CSR
//! build, cached compile, deterministic dense operand) and bind the
//! operands in the same order — simulated addresses follow allocation
//! order, so that order is part of every cycle count.
//!
//! All entry points return `Result<_, AsapError>` — a malformed matrix or
//! a kernel that fails to bind is reported, never a panic. The directory
//! sweep ([`sweep_spmv_dir`]) goes one step further: a failure on one
//! matrix is recorded in the [`SweepReport::skipped`] list and the sweep
//! continues with the rest of the collection.

use asap_core::{
    compile_cached, run_with_engine_budgeted, service_x, CompiledKernel, Engine, ExecEngine,
    PrefetchStrategy, ServiceKernel,
};
use asap_ir::{AsapError, Budget, V};
use asap_matrices::{read_matrix_market, Triplets};
use asap_obs::{Json, ObjWriter};
use asap_sim::{run_parallel, Counters, GracemontConfig, Machine, PrefetcherConfig};
use asap_sparsifier::{bind, BoundKernel, KernelArg};
use asap_tensor::{DenseTensor, Format, SparseTensor, ValueKind};
use std::path::Path;

/// Which implementation variant to run (paper Section 4.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Variant {
    Baseline,
    Asap { distance: usize },
    AinsworthJones { distance: usize },
}

impl Variant {
    pub fn strategy(&self) -> PrefetchStrategy {
        match *self {
            Variant::Baseline => PrefetchStrategy::none(),
            Variant::Asap { distance } => PrefetchStrategy::asap(distance),
            Variant::AinsworthJones { distance } => PrefetchStrategy::aj(distance),
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            Variant::Baseline => "baseline",
            Variant::Asap { .. } => "asap",
            Variant::AinsworthJones { .. } => "aj",
        }
    }
}

/// One experiment's outcome, serializable for EXPERIMENTS.md tooling.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    pub matrix: String,
    pub group: String,
    pub unstructured: bool,
    pub kernel: String,
    pub variant: String,
    pub hw_config: String,
    pub threads: usize,
    pub nnz: usize,
    pub cycles: u64,
    pub instructions: u64,
    /// nnz processed per millisecond at the configured frequency — the
    /// paper's throughput metric.
    pub throughput: f64,
    /// L2 MPKI of this run.
    pub l2_mpki: f64,
    pub sw_pf_issued: u64,
    pub sw_pf_dropped: u64,
    pub hw_pf_issued: u64,
    pub dram_bytes: u64,
    pub stall_cycles: u64,
    /// Compile warnings (graceful-degradation fallbacks) hit while
    /// building this run's kernel(s). Empty on a clean compile.
    pub warnings: Vec<String>,
}

impl ExperimentResult {
    /// JSON object via the workspace's shared writer
    /// (`asap-obs::json`) — no external serialization crate.
    pub fn to_json(&self) -> String {
        let mut w = ObjWriter::new();
        w.str("matrix", &self.matrix)
            .str("group", &self.group)
            .bool("unstructured", self.unstructured)
            .str("kernel", &self.kernel)
            .str("variant", &self.variant)
            .str("hw_config", &self.hw_config)
            .usize("threads", self.threads)
            .usize("nnz", self.nnz)
            .u64("cycles", self.cycles)
            .u64("instructions", self.instructions)
            .f64("throughput", self.throughput)
            .f64("l2_mpki", self.l2_mpki)
            .u64("sw_pf_issued", self.sw_pf_issued)
            .u64("sw_pf_dropped", self.sw_pf_dropped)
            .u64("hw_pf_issued", self.hw_pf_issued)
            .u64("dram_bytes", self.dram_bytes)
            .u64("stall_cycles", self.stall_cycles)
            .str_array("warnings", &self.warnings);
        w.finish()
    }

    /// Parse one object written by [`to_json`] — the checkpoint journal's
    /// resume path, on the shared `asap-obs` parser. Accepts fields in
    /// any order, rejects unknown ones, and reports malformed input as
    /// an error message instead of panicking, so a corrupt or truncated
    /// journal line simply re-runs its cell. Numbers round-trip exactly:
    /// the parser keeps the raw token and each field re-parses it into
    /// its concrete type (`u64` never detours through `f64`; floats
    /// reread the shortest representation `to_json` printed).
    pub fn from_json(s: &str) -> Result<ExperimentResult, String> {
        let v = asap_obs::parse_json(s).map_err(|e| e.to_string())?;
        let Json::Obj(fields) = &v else {
            return Err("expected a JSON object".into());
        };
        fn want_str(v: &Json, field: &str) -> Result<String, String> {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("field {field}: expected a string"))
        }
        fn want_num<N: std::str::FromStr>(v: &Json, field: &str) -> Result<N, String> {
            match v {
                Json::Num(raw) => raw
                    .parse()
                    .map_err(|_| format!("field {field}: bad number {raw:?}")),
                _ => Err(format!("field {field}: expected a number")),
            }
        }
        let mut r = ExperimentResult {
            matrix: String::new(),
            group: String::new(),
            unstructured: false,
            kernel: String::new(),
            variant: String::new(),
            hw_config: String::new(),
            threads: 0,
            nnz: 0,
            cycles: 0,
            instructions: 0,
            throughput: 0.0,
            l2_mpki: 0.0,
            sw_pf_issued: 0,
            sw_pf_dropped: 0,
            hw_pf_issued: 0,
            dram_bytes: 0,
            stall_cycles: 0,
            warnings: Vec::new(),
        };
        for (field, val) in fields {
            match field.as_str() {
                "matrix" => r.matrix = want_str(val, field)?,
                "group" => r.group = want_str(val, field)?,
                "kernel" => r.kernel = want_str(val, field)?,
                "variant" => r.variant = want_str(val, field)?,
                "hw_config" => r.hw_config = want_str(val, field)?,
                "unstructured" => {
                    r.unstructured = val
                        .as_bool()
                        .ok_or_else(|| format!("field {field}: expected a bool"))?
                }
                "threads" => r.threads = want_num(val, field)?,
                "nnz" => r.nnz = want_num(val, field)?,
                "cycles" => r.cycles = want_num(val, field)?,
                "instructions" => r.instructions = want_num(val, field)?,
                "throughput" => r.throughput = want_num(val, field)?,
                "l2_mpki" => r.l2_mpki = want_num(val, field)?,
                "sw_pf_issued" => r.sw_pf_issued = want_num(val, field)?,
                "sw_pf_dropped" => r.sw_pf_dropped = want_num(val, field)?,
                "hw_pf_issued" => r.hw_pf_issued = want_num(val, field)?,
                "dram_bytes" => r.dram_bytes = want_num(val, field)?,
                "stall_cycles" => r.stall_cycles = want_num(val, field)?,
                "warnings" => {
                    let arr = val
                        .as_array()
                        .ok_or_else(|| format!("field {field}: expected an array"))?;
                    r.warnings = arr
                        .iter()
                        .map(|w| want_str(w, field))
                        .collect::<Result<_, _>>()?;
                }
                other => return Err(format!("unknown field {other:?}")),
            }
        }
        Ok(r)
    }
}

/// JSON array of results, one object per line.
pub fn results_to_json(results: &[ExperimentResult]) -> String {
    let rows: Vec<String> = results
        .iter()
        .map(|r| format!("  {}", r.to_json()))
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

/// One figure cell: the experiment to run — (matrix, kernel, variant,
/// prefetcher configuration, machine) — and the labels its result
/// carries into tables, journals and results JSON.
#[derive(Debug, Clone, Copy)]
pub struct Cell<'a> {
    pub tri: &'a Triplets,
    pub name: &'a str,
    pub group: &'a str,
    pub unstructured: bool,
    pub kernel: ServiceKernel,
    pub variant: Variant,
    pub pf: PrefetcherConfig,
    pub hw_name: &'a str,
    pub cfg: GracemontConfig,
}

impl Cell<'_> {
    fn result(
        &self,
        threads: usize,
        nnz: usize,
        agg: Counters,
        dram_bytes: u64,
        warnings: Vec<String>,
    ) -> ExperimentResult {
        let ms = self.cfg.cycles_to_seconds(agg.cycles) * 1e3;
        ExperimentResult {
            matrix: self.name.to_string(),
            group: self.group.to_string(),
            unstructured: self.unstructured,
            kernel: self.kernel.label().to_string(),
            variant: self.variant.label().to_string(),
            hw_config: self.hw_name.to_string(),
            threads,
            nnz,
            cycles: agg.cycles,
            instructions: agg.instructions,
            throughput: nnz as f64 / ms,
            l2_mpki: agg.l2_mpki(),
            sw_pf_issued: agg.sw_pf_issued,
            sw_pf_dropped: agg.sw_pf_dropped,
            hw_pf_issued: agg.hw_pf_issued,
            dram_bytes,
            stall_cycles: agg.stall_cycles,
            warnings,
        }
    }
}

/// What every cell builds before it runs, whole-matrix or per row
/// partition: the CSR storage, the cached compile, and the kernel's
/// deterministic dense input beside a zeroed output.
struct Operands {
    sparse: SparseTensor,
    ck: CompiledKernel,
    dense: DenseTensor,
    out: DenseTensor,
}

fn prepare(tri: &Triplets, kernel: ServiceKernel, variant: Variant) -> Result<Operands, AsapError> {
    let sparse = SparseTensor::try_from_coo(&tri.try_to_coo_f64()?, Format::csr())?;
    let ck = compile_cached(
        &kernel.spec(),
        sparse.format(),
        sparse.index_width(),
        &variant.strategy(),
    )?;
    let (dense, out_dims) = match kernel {
        ServiceKernel::Spmv => (
            DenseTensor::from_f64(vec![tri.ncols], service_x(tri.ncols)),
            vec![tri.nrows],
        ),
        ServiceKernel::Spmm { cols } => (
            DenseTensor::from_f64(
                vec![tri.ncols, cols],
                (0..tri.ncols * cols)
                    .map(|i| 0.5 + (i % 17) as f64 * 0.0625)
                    .collect(),
            ),
            vec![tri.nrows, cols],
        ),
    };
    let out = DenseTensor::zeros(ValueKind::F64, out_dims);
    Ok(Operands {
        sparse,
        ck,
        dense,
        out,
    })
}

fn warning_strings(ck: &CompiledKernel) -> Vec<String> {
    ck.warnings.iter().map(|w| w.to_string()).collect()
}

/// Run one cell on a single simulated core under a resource [`Budget`]
/// and verify the product against the dense reference. Fuel exhaustion,
/// a missed deadline, or an allocation over the byte ceiling surfaces
/// as a typed `AsapError::BudgetExceeded` — the run terminates at the
/// next loop back-edge instead of running (or hanging) to completion.
pub fn run_cell(cell: &Cell, budget: &Budget) -> Result<ExperimentResult, AsapError> {
    let mut p = prepare(cell.tri, cell.kernel, cell.variant)?;
    let mut machine = Machine::new(cell.cfg, cell.pf);
    run_with_engine_budgeted(
        &p.ck,
        &p.sparse,
        &[&p.dense],
        &mut p.out,
        &mut machine,
        ExecEngine::Auto,
        budget,
    )?;
    // Column 0 of the product against the dense SpMV reference: all of
    // an SpMV, a spot check of an SpMM.
    let stride = p.dense.dims.get(1).copied().unwrap_or(1);
    let column =
        |t: &DenseTensor| -> Vec<f64> { t.as_f64().iter().step_by(stride).copied().collect() };
    let reference = cell.tri.dense_spmv(&column(&p.dense));
    verify_close(&column(&p.out), &reference, cell.name)?;
    let dram = machine.dram_bytes_total();
    let warnings = warning_strings(&p.ck);
    Ok(cell.result(1, p.sparse.nnz(), machine.counters(), dram, warnings))
}

/// Single-threaded SpMV of `tri` under the given variant and hardware
/// prefetcher configuration. The result is verified against the dense
/// reference.
#[allow(clippy::too_many_arguments)]
pub fn run_spmv(
    tri: &Triplets,
    name: &str,
    group: &str,
    unstructured: bool,
    variant: Variant,
    pf: PrefetcherConfig,
    hw_name: &str,
    cfg: GracemontConfig,
) -> Result<ExperimentResult, AsapError> {
    let kernel = ServiceKernel::Spmv;
    let cell = Cell {
        tri,
        name,
        group,
        unstructured,
        kernel,
        variant,
        pf,
        hw_name,
        cfg,
    };
    run_cell(&cell, &Budget::unlimited())
}

/// Single-threaded SpMM (`A = B·C`, `n_cols` dense columns).
#[allow(clippy::too_many_arguments)]
pub fn run_spmm(
    tri: &Triplets,
    name: &str,
    group: &str,
    unstructured: bool,
    n_cols: usize,
    variant: Variant,
    pf: PrefetcherConfig,
    hw_name: &str,
    cfg: GracemontConfig,
) -> Result<ExperimentResult, AsapError> {
    let kernel = ServiceKernel::Spmm { cols: n_cols };
    let cell = Cell {
        tri,
        name,
        group,
        unstructured,
        kernel,
        variant,
        pf,
        hw_name,
        cfg,
    };
    run_cell(&cell, &Budget::unlimited())
}

/// Slice the contiguous row ranges `parts` (as [`partition_rows`] cuts
/// them) into standalone sub-matrices, in one pass over the entries.
fn row_slices(tri: &Triplets, parts: &[(usize, usize)]) -> Vec<Triplets> {
    let mut slices: Vec<Triplets> = parts
        .iter()
        .map(|&(r0, r1)| {
            let mut s = Triplets::new(r1 - r0, tri.ncols);
            s.binary = tri.binary;
            s
        })
        .collect();
    for i in 0..tri.nnz() {
        let r = tri.rows[i];
        let p = parts.partition_point(|&(_, r1)| r1 <= r);
        slices[p].push(r - parts[p].0, tri.cols[i], tri.vals[i]);
    }
    slices
}

/// Split rows into `n` contiguous chunks of roughly equal nnz.
fn partition_rows(tri: &Triplets, n: usize) -> Vec<(usize, usize)> {
    let deg = tri.row_degrees();
    let total: usize = deg.iter().sum();
    let per = total.div_ceil(n.max(1)).max(1);
    let mut cuts = Vec::with_capacity(n + 1);
    cuts.push(0);
    let mut acc = 0;
    for (r, d) in deg.iter().enumerate() {
        acc += d;
        if acc >= per && cuts.len() < n {
            cuts.push(r + 1);
            acc = 0;
        }
    }
    while cuts.len() < n {
        cuts.push(tri.nrows);
    }
    cuts.push(tri.nrows);
    cuts.windows(2).map(|w| (w[0], w[1])).collect()
}

/// Base address where the shared dense input is mapped in every
/// thread's address space (so the shared L3 sees one copy, as on real
/// hardware).
const SHARED_X_BASE: u64 = 0x40_0000_0000;

/// Re-map the bound dense input to [`SHARED_X_BASE`].
fn share_dense_input(ck: &CompiledKernel, bound: &mut BoundKernel) -> Result<(), AsapError> {
    let pos = ck
        .kernel
        .arg_position(KernelArg::DenseInput { input: 1 })
        .ok_or_else(|| AsapError::binding("kernel has no dense input argument"))?;
    let V::Mem(buf) = bound.args[pos] else {
        return Err(AsapError::binding("dense input did not bind to a buffer"));
    };
    bound.bufs.get_mut(buf).base_addr = SHARED_X_BASE;
    Ok(())
}

/// One simulated core's share of a row-partitioned cell, handed to its
/// thread exactly once.
type Prepared = std::sync::Mutex<Option<(CompiledKernel, BoundKernel)>>;

/// Run prepared per-thread kernels on the shared-uncore simulator,
/// propagating the first interpreter trap instead of panicking inside
/// the worker closure.
///
/// Thread-count handling: `n_threads` must equal the number of prepared
/// slots (one simulated core per row partition — anything else would
/// leave cores spinning on the clock barrier with no work, or index out
/// of range), and a multi-core simulation must not be launched from
/// inside a [`crate::pool`] matrix-level worker: the simulated cores
/// spin-synchronize their clocks and oversubscribing the host with
/// nested parallelism stalls them. Both misuses are typed errors.
fn run_prepared_parallel(
    cfg: GracemontConfig,
    pf: PrefetcherConfig,
    n_threads: usize,
    prepared: Vec<Prepared>,
) -> Result<asap_sim::MulticoreResult, AsapError> {
    if n_threads == 0 || n_threads != prepared.len() {
        return Err(AsapError::binding(format!(
            "multicore run: {n_threads} simulated cores for {} prepared partitions",
            prepared.len()
        )));
    }
    if n_threads > 1 && crate::pool::in_worker() {
        return Err(AsapError::binding(
            "multicore simulation cannot run inside a matrix-level worker thread; \
             use pool::matrix_threads(n_threads) to keep multi-core sweeps serial",
        ));
    }
    let errors: std::sync::Mutex<Vec<AsapError>> = std::sync::Mutex::new(Vec::new());
    let result = run_parallel(cfg, pf, n_threads, |tid, machine| {
        // invariant: each tid owns exactly one slot, taken exactly once;
        // a poisoned lock can only follow a panic elsewhere, so treat it
        // as "nothing to run" rather than panicking again.
        let Some((ck, mut bound)) = prepared[tid].lock().ok().and_then(|mut s| s.take()) else {
            return;
        };
        let ran = Engine::select(&ck, ExecEngine::Auto, false)
            .and_then(|engine| engine.run(&mut bound, machine, &Budget::unlimited()));
        if let Err(e) = ran {
            if let Ok(mut errs) = errors.lock() {
                errs.push(e);
            }
        }
    });
    match errors
        .into_inner()
        .ok()
        .and_then(|mut v| v.drain(..).next())
    {
        Some(e) => Err(e),
        None => Ok(result),
    }
}

/// Run one cell row-partitioned over `n_threads` simulated cores:
/// contiguous row partitions of roughly equal nnz, one core per
/// partition, shared L3/DRAM, the dense input mapped at the same address
/// in all cores (paper Figure 12 setup, the sparsifier's
/// `dense-outer-loop` parallelization strategy).
fn run_cell_threads(cell: &Cell, n_threads: usize) -> Result<ExperimentResult, AsapError> {
    let parts = partition_rows(cell.tri, n_threads);
    let mut warnings = Vec::new();
    let mut prepared = Vec::with_capacity(parts.len());
    for slice in row_slices(cell.tri, &parts) {
        let p = prepare(&slice, cell.kernel, cell.variant)?;
        let mut bound = bind(&p.ck.kernel, &p.sparse, &[&p.dense], &p.out)?;
        share_dense_input(&p.ck, &mut bound)?;
        warnings.extend(warning_strings(&p.ck));
        prepared.push(Prepared::new(Some((p.ck, bound))));
    }
    let result = run_prepared_parallel(cell.cfg, cell.pf, n_threads, prepared)?;
    Ok(cell.result(
        n_threads,
        cell.tri.nnz(),
        result.aggregate,
        result.dram_bytes,
        warnings,
    ))
}

/// Multi-threaded SpMV (row-partitioned, shared `x`; see
/// `run_cell_threads`).
#[allow(clippy::too_many_arguments)]
pub fn run_spmv_threads(
    tri: &Triplets,
    name: &str,
    group: &str,
    unstructured: bool,
    variant: Variant,
    pf: PrefetcherConfig,
    hw_name: &str,
    cfg: GracemontConfig,
    n_threads: usize,
) -> Result<ExperimentResult, AsapError> {
    let kernel = ServiceKernel::Spmv;
    let cell = Cell {
        tri,
        name,
        group,
        unstructured,
        kernel,
        variant,
        pf,
        hw_name,
        cfg,
    };
    run_cell_threads(&cell, n_threads)
}

/// Multi-threaded SpMM (row-partitioned, shared dense C).
#[allow(clippy::too_many_arguments)]
pub fn run_spmm_threads(
    tri: &Triplets,
    name: &str,
    group: &str,
    unstructured: bool,
    n_cols: usize,
    variant: Variant,
    pf: PrefetcherConfig,
    hw_name: &str,
    cfg: GracemontConfig,
    n_threads: usize,
) -> Result<ExperimentResult, AsapError> {
    let kernel = ServiceKernel::Spmm { cols: n_cols };
    let cell = Cell {
        tri,
        name,
        group,
        unstructured,
        kernel,
        variant,
        pf,
        hw_name,
        cfg,
    };
    run_cell_threads(&cell, n_threads)
}

fn verify_close(got: &[f64], want: &[f64], name: &str) -> Result<(), AsapError> {
    if got.len() != want.len() {
        return Err(AsapError::mismatch(format!(
            "{name}: length mismatch: got {} values, reference has {}",
            got.len(),
            want.len()
        )));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let tol = 1e-9 * (1.0 + g.abs().max(w.abs()));
        if (g - w).abs() > tol {
            return Err(AsapError::mismatch(format!(
                "{name}: row {i} differs: {g} vs {w}"
            )));
        }
    }
    Ok(())
}

/// A matrix the sweep could not run, with the diagnostic explaining why.
#[derive(Debug, Clone)]
pub struct SkippedMatrix {
    pub matrix: String,
    pub kind: &'static str,
    pub reason: String,
    /// How many times the matrix was attempted before being skipped
    /// (1 for typed errors; the pool's retry cap for panics).
    pub attempts: usize,
}

/// Outcome of a directory sweep: per-matrix results plus the matrices
/// that had to be skipped (corrupt files, binding failures, ...).
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    pub results: Vec<ExperimentResult>,
    pub skipped: Vec<SkippedMatrix>,
}

impl SweepReport {
    /// Human-readable completion summary, listing every skip with its
    /// error kind and message.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} matrices ran, {} skipped\n",
            self.results.len(),
            self.skipped.len()
        );
        for sk in &self.skipped {
            s.push_str(&format!(
                "  skipped {} [{}] after {} attempt(s): {}\n",
                sk.matrix, sk.kind, sk.attempts, sk.reason
            ));
        }
        s
    }
}

/// SpMV-sweep every `.mtx` file in `dir` (sorted by name). A matrix that
/// fails to parse, compile, bind, or verify is skipped and reported; the
/// sweep itself only fails if the directory cannot be read at all.
pub fn sweep_spmv_dir(
    dir: &Path,
    variant: Variant,
    pf: PrefetcherConfig,
    hw_name: &str,
    cfg: GracemontConfig,
) -> Result<SweepReport, AsapError> {
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| AsapError::io(format!("cannot read {}: {e}", dir.display())))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "mtx"))
        .collect();
    paths.sort();

    let mut report = SweepReport::default();
    for path in paths {
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        let outcome = (|| -> Result<ExperimentResult, AsapError> {
            let tri = {
                let span = asap_obs::span_with("parse.matrix", || vec![("matrix", name.clone())]);
                let file = std::fs::File::open(&path)?;
                let tri = read_matrix_market(std::io::BufReader::new(file))?;
                span.attr("nnz", tri.nnz());
                tri
            };
            run_spmv(&tri, &name, "sweep", true, variant, pf, hw_name, cfg)
        })();
        match outcome {
            Ok(r) => report.results.push(r),
            Err(e) => report.skipped.push(SkippedMatrix {
                matrix: name,
                kind: e.kind(),
                reason: e.to_string(),
                attempts: 1,
            }),
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_matrices::gen;

    fn cfg() -> GracemontConfig {
        GracemontConfig::scaled()
    }

    #[test]
    fn spmv_experiment_runs_and_verifies() {
        let tri = gen::erdos_renyi(4096, 6, 3);
        let r = run_spmv(
            &tri,
            "er",
            "Gleich",
            true,
            Variant::Baseline,
            PrefetcherConfig::hw_default(),
            "default",
            cfg(),
        )
        .unwrap();
        assert!(r.nnz <= tri.nnz() && r.nnz > 0, "dedup'd nnz");
        assert!(r.throughput > 0.0);
        assert!(r.cycles > 0);
        assert_eq!(r.variant, "baseline");
        assert!(r.warnings.is_empty(), "{:?}", r.warnings);
    }

    #[test]
    fn asap_issues_prefetches_baseline_does_not() {
        let tri = gen::erdos_renyi(2048, 6, 5);
        let base = run_spmv(
            &tri,
            "er",
            "g",
            true,
            Variant::Baseline,
            PrefetcherConfig::all_off(),
            "off",
            cfg(),
        )
        .unwrap();
        let asap = run_spmv(
            &tri,
            "er",
            "g",
            true,
            Variant::Asap { distance: 16 },
            PrefetcherConfig::all_off(),
            "off",
            cfg(),
        )
        .unwrap();
        assert_eq!(base.sw_pf_issued, 0);
        assert!(asap.sw_pf_issued as usize >= tri.nnz(), "{asap:?}");
    }

    #[test]
    fn partition_balances_nnz() {
        let tri = gen::power_law(4000, 8, 1.0, 2);
        let parts = partition_rows(&tri, 4);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[0].0, 0);
        assert_eq!(parts[3].1, 4000);
        let deg = tri.row_degrees();
        let sums: Vec<usize> = parts.iter().map(|&(a, b)| deg[a..b].iter().sum()).collect();
        let max = *sums.iter().max().unwrap();
        let min = *sums.iter().min().unwrap();
        assert!(max < 2 * min + tri.nnz() / 2, "{sums:?}");
    }

    #[test]
    fn threaded_spmv_covers_all_rows() {
        let tri = gen::erdos_renyi(8192, 6, 9);
        let r = run_spmv_threads(
            &tri,
            "er",
            "g",
            true,
            Variant::Baseline,
            PrefetcherConfig::all_off(),
            "off",
            cfg(),
            4,
        )
        .unwrap();
        assert_eq!(r.threads, 4);
        assert_eq!(r.nnz, tri.nnz()); // threaded path reports input nnz
        assert!(r.cycles > 0);
    }

    #[test]
    fn multicore_inside_pool_worker_is_a_typed_error() {
        let tri = gen::erdos_renyi(512, 4, 2);
        let outcomes = crate::pool::parallel_map(vec![0, 1], 2, |_, _| {
            run_spmv_threads(
                &tri,
                "er",
                "g",
                true,
                Variant::Baseline,
                PrefetcherConfig::all_off(),
                "off",
                cfg(),
                2,
            )
        });
        for out in outcomes {
            let err = out.expect_err("nested multicore must be rejected");
            assert_eq!(err.kind(), "binding");
            assert!(err.to_string().contains("matrix-level worker"), "{err}");
        }
    }

    #[test]
    fn spmm_experiment_runs() {
        let tri = gen::erdos_renyi(1024, 4, 1);
        let r = run_spmm(
            &tri,
            "er",
            "g",
            true,
            8,
            Variant::Asap { distance: 8 },
            PrefetcherConfig::optimized_spmm(),
            "optimized",
            cfg(),
        )
        .unwrap();
        assert_eq!(r.kernel, "spmm");
        assert!(r.sw_pf_issued > 0);
    }

    #[test]
    fn json_escapes_special_characters() {
        let tri = gen::erdos_renyi(512, 4, 2);
        let mut r = run_spmv(
            &tri,
            "a\"b\\c",
            "g",
            true,
            Variant::Baseline,
            PrefetcherConfig::all_off(),
            "off",
            cfg(),
        )
        .unwrap();
        r.warnings.push("line1\nline2".into());
        let json = r.to_json();
        assert!(json.contains("\"a\\\"b\\\\c\""), "{json}");
        assert!(json.contains("line1\\nline2"), "{json}");
        let arr = results_to_json(&[r.clone(), r]);
        assert!(arr.starts_with("[\n"));
        assert!(arr.trim_end().ends_with(']'));
    }

    #[test]
    fn json_roundtrips_through_from_json() {
        let tri = gen::erdos_renyi(512, 4, 2);
        let mut r = run_spmv(
            &tri,
            "round\"trip",
            "g",
            true,
            Variant::Asap { distance: 11 },
            PrefetcherConfig::all_off(),
            "off",
            cfg(),
        )
        .unwrap();
        r.warnings.push("line1\nline2 \"quoted\"".into());
        let back = ExperimentResult::from_json(&r.to_json()).unwrap();
        assert_eq!(back.to_json(), r.to_json(), "byte-identical roundtrip");
        assert_eq!(back.throughput.to_bits(), r.throughput.to_bits());
        assert_eq!(back.l2_mpki.to_bits(), r.l2_mpki.to_bits());
        assert_eq!(back.warnings, r.warnings);
    }

    #[test]
    fn from_json_rejects_garbage_without_panicking() {
        for bad in [
            "",
            "{",
            "{\"matrix\":",
            "{\"matrix\":\"x\"",
            "{\"bogus\":1}",
            "{\"cycles\":\"x\"}",
            "[1,2]",
            "{\"matrix\":\"a\"} trailing",
        ] {
            assert!(ExperimentResult::from_json(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn budgeted_run_traps_with_typed_error() {
        let tri = gen::erdos_renyi(256, 4, 7);
        let cell = Cell {
            tri: &tri,
            name: "er",
            group: "g",
            unstructured: true,
            kernel: ServiceKernel::Spmv,
            variant: Variant::Baseline,
            pf: PrefetcherConfig::all_off(),
            hw_name: "off",
            cfg: cfg(),
        };
        let err = run_cell(&cell, &Budget::unlimited().with_fuel(3)).unwrap_err();
        assert_eq!(err.kind(), "budget");
        let v = err.budget_violation().expect("structured violation");
        assert_eq!(v.limit, 3);
        // A generous budget completes and still verifies the result.
        let ok = run_cell(&cell, &Budget::unlimited().with_fuel(100_000_000)).unwrap();
        assert!(ok.cycles > 0);
    }

    #[test]
    fn sweep_skips_corrupt_matrix_and_finishes() {
        let dir = std::env::temp_dir().join(format!("asap-sweep-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = "%%MatrixMarket matrix coordinate real general\n\
                    4 4 4\n1 1 1.0\n2 2 2.0\n3 3 3.0\n4 4 4.0\n";
        std::fs::write(dir.join("a_good.mtx"), good).unwrap();
        std::fs::write(dir.join("c_good.mtx"), good).unwrap();
        // Out-of-range coordinate on the first entry line.
        let corrupt = "%%MatrixMarket matrix coordinate real general\n\
                       2 2 1\n5 5 1.0\n";
        std::fs::write(dir.join("b_corrupt.mtx"), corrupt).unwrap();
        std::fs::write(dir.join("ignored.txt"), "not a matrix").unwrap();

        let report = sweep_spmv_dir(
            &dir,
            Variant::Asap { distance: 8 },
            PrefetcherConfig::all_off(),
            "off",
            cfg(),
        )
        .unwrap();
        std::fs::remove_dir_all(&dir).unwrap();

        assert_eq!(report.results.len(), 2, "{}", report.summary());
        assert_eq!(report.skipped.len(), 1, "{}", report.summary());
        assert_eq!(report.skipped[0].matrix, "b_corrupt");
        assert_eq!(report.skipped[0].kind, "parse");
        assert!(
            report.skipped[0].reason.contains("line 3"),
            "{}",
            report.skipped[0].reason
        );
        let summary = report.summary();
        assert!(summary.contains("2 matrices ran, 1 skipped"), "{summary}");
        assert!(summary.contains("b_corrupt"), "{summary}");
    }

    #[test]
    fn sweep_on_missing_dir_is_an_io_error() {
        let err = sweep_spmv_dir(
            Path::new("/nonexistent/asap-sweep"),
            Variant::Baseline,
            PrefetcherConfig::all_off(),
            "off",
            cfg(),
        )
        .unwrap_err();
        assert_eq!(err.kind(), "io");
    }
}
