//! The end-to-end compilation pipeline: sparsify (with or without a
//! prefetch strategy), then clean up (LICM + DCE), producing a
//! [`CompiledKernel`] ready to run — the counterpart of the paper's three
//! implementation variants (Section 4.3).
//!
//! # Graceful degradation
//!
//! Prefetching is a pure performance optimisation: the paper's Section
//! 3.2.2 argument is that injected prefetches never change semantics. The
//! pipeline exploits that here: if prefetch injection or post-pass
//! verification fails for a (format, width, strategy) triple, compilation
//! *falls back to the baseline kernel* instead of erroring out, and
//! records a structured [`CompileWarning`] on the [`CompiledKernel`] so
//! callers (the bench harness, reports) can surface the degradation. Only
//! a baseline failure — the kernel itself cannot be generated — is a hard
//! error.

use crate::aj::{ainsworth_jones, AjConfig};
use crate::asap::{AsapConfig, AsapHook};
use asap_ir::{
    cse, dce, execute_budgeted, execute_budgeted_profiled, fold, interpret_budgeted, licm, lower,
    AsapError, BinOp, Budget, ExecProfile, Function, MemoryModel, Op, OpKind, Program, Tier2Plan,
    Type,
};
use asap_sparsifier::{bind, read_back, sparsify, BoundKernel, KernelSpec, SparsifiedKernel};
use asap_tensor::{DenseTensor, Format, IndexWidth, SparseTensor, ValueKind};

/// Which software-prefetching variant to compile (paper Section 4.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PrefetchStrategy {
    /// Variant 1: plain sparsification, no software prefetching.
    Baseline,
    /// Variant 2: ASaP — semantic bounds, injected during sparsification.
    Asap(AsapConfig),
    /// Variant 3: the Ainsworth & Jones low-level pass, applied post-hoc.
    AinsworthJones(AjConfig),
    /// Deliberately corrupts the IR after injection so post-pass
    /// verification fails. Exists to exercise the graceful-degradation
    /// fallback path end to end (fault-injection testing); never useful
    /// for real compilation.
    FaultInjection,
}

impl PrefetchStrategy {
    /// ASaP at the paper's configuration (distance 45, locality 2).
    pub fn asap(distance: usize) -> PrefetchStrategy {
        PrefetchStrategy::Asap(AsapConfig::with_distance(distance))
    }

    /// Ainsworth & Jones at the same distance.
    pub fn aj(distance: usize) -> PrefetchStrategy {
        PrefetchStrategy::AinsworthJones(AjConfig::with_distance(distance))
    }

    pub fn none() -> PrefetchStrategy {
        PrefetchStrategy::Baseline
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            PrefetchStrategy::Baseline => "baseline",
            PrefetchStrategy::Asap(_) => "asap",
            PrefetchStrategy::AinsworthJones(_) => "ainsworth-jones",
            PrefetchStrategy::FaultInjection => "fault-injection",
        }
    }
}

/// A non-fatal compilation event: the requested strategy could not be
/// applied and the pipeline degraded to the baseline kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileWarning {
    /// Label of the strategy that failed.
    pub strategy: &'static str,
    /// Stage that failed ([`AsapError::kind`]): "codegen", "verify", ...
    pub kind: &'static str,
    /// Human-readable cause.
    pub message: String,
}

impl std::fmt::Display for CompileWarning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "strategy '{}' failed at {} stage, fell back to baseline: {}",
            self.strategy, self.kind, self.message
        )
    }
}

/// A compiled kernel plus compilation metadata.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    pub kernel: SparsifiedKernel,
    /// The strategy that actually produced this kernel. After a fallback
    /// this is [`PrefetchStrategy::Baseline`], not the requested one —
    /// check `warnings` for what was requested.
    pub strategy: PrefetchStrategy,
    /// Number of `memref.prefetch` ops in the final IR.
    pub prefetch_ops: usize,
    /// Ops hoisted by LICM (the bound chain, for ASaP).
    pub hoisted_ops: usize,
    /// Non-fatal degradations recorded during compilation.
    pub warnings: Vec<CompileWarning>,
    /// The kernel lowered to register bytecode (the fast execution
    /// engine). `None` only if lowering declined the function shape, in
    /// which case execution falls back to the tree-walker — results and
    /// memory-event streams are identical either way.
    pub program: Option<Program>,
    /// The tier-2 native specialization, when the lowered program
    /// matches a recognized kernel skeleton (ASaP CSR SpMV/SpMM). `None`
    /// means "shape not recognized — run the VM"; it is never an error.
    /// Tier-2 runs are bit- and error-exact with the VM but report no
    /// memory events (see `asap_ir::tier2` for the trace exemption).
    pub tier2: Option<Tier2Plan>,
}

impl CompiledKernel {
    /// True if the requested strategy was applied without degradation.
    pub fn is_degraded(&self) -> bool {
        !self.warnings.is_empty()
    }

    /// Rough resident footprint of this kernel, for cache occupancy
    /// accounting: the struct itself plus the dominant heap blocks (the
    /// bytecode instruction vector and its side tables). Deliberately an
    /// estimate — the cache reports occupancy, it does not enforce a
    /// byte ceiling, so systematic undercounting of small allocations
    /// (strings, warnings) is acceptable.
    pub fn approx_bytes(&self) -> u64 {
        let mut b = std::mem::size_of::<CompiledKernel>();
        if let Some(p) = &self.program {
            b += std::mem::size_of_val(p.instrs.as_slice());
            b += std::mem::size_of_val(p.param_slots.as_slice());
            b += std::mem::size_of_val(p.mem_args.as_slice());
            b += p.name.len();
        }
        b += self.warnings.len() * std::mem::size_of::<CompileWarning>();
        b as u64
    }
}

/// Compile exactly the requested strategy — no fallback.
fn compile_exact(
    spec: &KernelSpec,
    format: &Format,
    index_width: IndexWidth,
    strategy: &PrefetchStrategy,
) -> Result<CompiledKernel, AsapError> {
    let span = asap_obs::span_with("compile", || {
        vec![
            ("kernel", spec.name.clone()),
            ("strategy", strategy.label().to_string()),
            ("format", format.name().to_string()),
        ]
    });
    let mut kernel = {
        let _s = asap_obs::span("compile.sparsify");
        match strategy {
            PrefetchStrategy::Asap(cfg) => {
                let mut hook = AsapHook::new(*cfg);
                sparsify(spec, format, index_width, Some(&mut hook))?
            }
            _ => sparsify(spec, format, index_width, None)?,
        }
    };
    let hoisted = {
        let _s = asap_obs::span("compile.transforms");
        if let PrefetchStrategy::AinsworthJones(cfg) = strategy {
            ainsworth_jones(&mut kernel.func, cfg);
        }
        let hoisted = licm(&mut kernel.func);
        fold(&mut kernel.func);
        cse(&mut kernel.func);
        dce(&mut kernel.func);
        hoisted
    };
    if matches!(strategy, PrefetchStrategy::FaultInjection) {
        poison(&mut kernel.func);
    }
    {
        let _s = asap_obs::span("compile.verify");
        asap_ir::verify(&kernel.func)?;
    }
    // Lower the verified kernel to bytecode. Sparsifier output always
    // lowers; a decline (e.g. a memref that is not a parameter) simply
    // leaves the tree-walker as the execution engine.
    let program = {
        let _s = asap_obs::span("compile.lower");
        lower(&kernel.func).ok()
    };
    // Stamp the tier-2 native specialization when the bytecode matches
    // a recognized kernel skeleton. Purely structural and infallible: a
    // non-match leaves the VM as the fast engine.
    let tier2 = program.as_ref().and_then(Tier2Plan::from_program);
    let prefetch_ops = kernel.func.prefetch_count();
    span.attr("prefetch_ops", prefetch_ops);
    Ok(CompiledKernel {
        prefetch_ops,
        kernel,
        strategy: *strategy,
        hoisted_ops: hoisted,
        warnings: Vec::new(),
        program,
        tier2,
    })
}

/// Corrupt a function so verification fails: prepend an op whose operand
/// value is never defined. Used by [`PrefetchStrategy::FaultInjection`].
fn poison(func: &mut Function) {
    let undefined = func.fresh_value(Type::Index);
    let result = func.fresh_value(Type::Index);
    let id = func.fresh_op_id();
    func.body.ops.insert(
        0,
        Op {
            id,
            kind: OpKind::Binary {
                op: BinOp::AddI,
                lhs: undefined,
                rhs: undefined,
            },
            results: vec![result],
        },
    );
}

/// Compile a kernel for a sparse operand stored in `format` with the given
/// index width, applying the chosen prefetch strategy and then LICM + DCE
/// (mirroring the shared `-O3` backend of the paper's setup).
///
/// If the strategy fails (injection, transforms, or verification) the
/// pipeline degrades to [`PrefetchStrategy::Baseline`] and records a
/// [`CompileWarning`]; the error is returned only if the baseline itself
/// cannot be compiled (e.g. an invalid spec or unsupported loop order).
pub fn compile_with_width(
    spec: &KernelSpec,
    format: &Format,
    index_width: IndexWidth,
    strategy: &PrefetchStrategy,
) -> Result<CompiledKernel, AsapError> {
    match compile_exact(spec, format, index_width, strategy) {
        Ok(ck) => Ok(ck),
        Err(_) if matches!(strategy, PrefetchStrategy::Baseline) => {
            // No fallback available below baseline: propagate.
            compile_exact(spec, format, index_width, strategy)
        }
        Err(e) => {
            let mut ck = compile_exact(spec, format, index_width, &PrefetchStrategy::Baseline)?;
            ck.warnings.push(CompileWarning {
                strategy: strategy.label(),
                kind: e.kind(),
                message: e.to_string(),
            });
            Ok(ck)
        }
    }
}

/// As [`compile_with_width`] with the default narrow (32-bit) index width,
/// which every tensor whose nnz and dims fit in `u32` uses.
pub fn compile(
    spec: &KernelSpec,
    format: &Format,
    strategy: &PrefetchStrategy,
) -> Result<CompiledKernel, AsapError> {
    compile_with_width(spec, format, IndexWidth::U32, strategy)
}

/// Which interpreter a caller asks for. Tree-walk and bytecode are
/// observationally identical (same results, same memory-event stream);
/// tier-2 is bit- and error-exact but reports no memory events.
/// [`Engine::select`] turns the request into the engine that runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecEngine {
    /// The fastest engine that keeps the run faithful: tier-2 on a
    /// model-free run of a specialized kernel, else bytecode when the
    /// kernel has a lowered [`Program`], else tree-walk.
    Auto,
    /// The original recursive tree-walking interpreter.
    TreeWalk,
    /// The register-bytecode VM (errors if the kernel has no program).
    Bytecode,
    /// The native runtime-specialized kernel (errors if the kernel has
    /// no tier-2 plan). The memory model is bypassed — see
    /// `asap_ir::tier2` for the trace-exemption rationale.
    Tier2,
}

/// The engine a run resolved to, borrowing what it executes from the
/// [`CompiledKernel`]. Engine choice lives here and nowhere else:
/// [`Engine::select`] decides, [`Engine::run`] executes over bound
/// operands, [`Engine::label`] names the choice on the wire.
#[derive(Debug, Clone, Copy)]
pub enum Engine<'a> {
    TreeWalk(&'a Function),
    Bytecode(&'a Program),
    Tier2(&'a Tier2Plan),
}

impl<'a> Engine<'a> {
    /// Resolve `requested` against what `ck` was compiled with.
    /// `model_free` says the caller runs under `NullModel` and nothing
    /// reads the memory-event stream — the one observable tier-2 gives
    /// up — so `Auto` may take the native plan; a caller that attaches a
    /// model (or cannot tell) passes `false` and `Auto` stays on the VM.
    /// Explicit requests are honored verbatim or refused with a typed
    /// `binding` error, never silently downgraded.
    pub fn select(
        ck: &'a CompiledKernel,
        requested: ExecEngine,
        model_free: bool,
    ) -> Result<Engine<'a>, AsapError> {
        let tree = Engine::TreeWalk(&ck.kernel.func);
        let program = ck.program.as_ref().map(Engine::Bytecode);
        let plan = ck.tier2.as_ref().map(Engine::Tier2);
        match requested {
            ExecEngine::TreeWalk => Ok(tree),
            ExecEngine::Auto => Ok(plan.filter(|_| model_free).or(program).unwrap_or(tree)),
            ExecEngine::Bytecode => program.ok_or_else(|| {
                AsapError::binding(
                    "bytecode engine requested but the kernel has no lowered program",
                )
            }),
            ExecEngine::Tier2 => plan.ok_or_else(|| {
                AsapError::binding(
                    "tier-2 engine requested but the kernel has no native specialization",
                )
            }),
        }
    }

    /// The engine's name in spans and in the served `engine` field.
    pub fn label(&self) -> &'static str {
        match self {
            Engine::TreeWalk(_) => "tree-walk",
            Engine::Bytecode(_) => "bytecode",
            Engine::Tier2(_) => "tier2",
        }
    }

    /// Execute over already-bound operands. Opens no span and checks no
    /// byte ceiling — `perfstat` times exactly this call, and
    /// [`run_with_engine_budgeted`] wraps it with both.
    pub fn run<M: MemoryModel + ?Sized>(
        &self,
        bound: &mut BoundKernel,
        model: &mut M,
        budget: &Budget,
    ) -> Result<(), AsapError> {
        match self {
            Engine::TreeWalk(f) => {
                interpret_budgeted(f, &bound.args, &mut bound.bufs, model, budget)?
            }
            Engine::Bytecode(p) => {
                execute_budgeted(p, &bound.args, &mut bound.bufs, model, budget)?
            }
            // Tier-2 bypasses the model by design (no events to report).
            Engine::Tier2(plan) => plan.run(&bound.args, &mut bound.bufs, budget)?,
        };
        Ok(())
    }
}

/// Run a compiled kernel (generic operands) under the given memory model.
pub fn run<M: MemoryModel + ?Sized>(
    ck: &CompiledKernel,
    sparse: &SparseTensor,
    dense: &[&DenseTensor],
    out: &mut DenseTensor,
    model: &mut M,
) -> Result<(), AsapError> {
    let unlimited = Budget::unlimited();
    run_with_engine_budgeted(ck, sparse, dense, out, model, ExecEngine::Auto, &unlimited)
}

/// As [`run`] with an explicit engine request, governed by a resource
/// [`Budget`]: the bytes ceiling is checked eagerly against the bound
/// operand buffers, and the fuel/deadline/cancellation limits are
/// threaded into whichever engine runs. Exceeding any limit yields
/// [`AsapError::BudgetExceeded`] — never a hang, never a panic — at an
/// observationally equivalent point in every engine.
#[allow(clippy::too_many_arguments)]
pub fn run_with_engine_budgeted<M: MemoryModel + ?Sized>(
    ck: &CompiledKernel,
    sparse: &SparseTensor,
    dense: &[&DenseTensor],
    out: &mut DenseTensor,
    model: &mut M,
    engine: ExecEngine,
    budget: &Budget,
) -> Result<(), AsapError> {
    bind_and_run(ck, sparse, dense, out, model, engine, false, budget).map(|_| ())
}

/// Bind, check the byte ceiling, select, execute under the `exec` span,
/// read back; returns the label of the engine that ran. The body of
/// [`run_with_engine_budgeted`], plus the `model_free` bit only the
/// serving entry point may set.
#[allow(clippy::too_many_arguments)]
pub(crate) fn bind_and_run<M: MemoryModel + ?Sized>(
    ck: &CompiledKernel,
    sparse: &SparseTensor,
    dense: &[&DenseTensor],
    out: &mut DenseTensor,
    model: &mut M,
    engine: ExecEngine,
    model_free: bool,
    budget: &Budget,
) -> Result<&'static str, AsapError> {
    let mut bound = bind(&ck.kernel, sparse, dense, out)?;
    budget.check_bytes(bound.bufs.bytes_allocated())?;
    let chosen = Engine::select(ck, engine, model_free)?;
    {
        let _s = asap_obs::span_with("exec", || vec![("engine", chosen.label().to_string())]);
        chosen.run(&mut bound, model, budget)?;
    }
    read_back(out, &bound)?;
    Ok(chosen.label())
}

/// As [`run`] on the bytecode engine, additionally collecting a
/// per-opcode [`ExecProfile`] (dispatch counts plus sampled wall-clock
/// attribution — the flat VM "flamegraph" `asap_cli profile` prints).
/// Errors if the kernel has no lowered program.
pub fn run_profiled<M: MemoryModel + ?Sized>(
    ck: &CompiledKernel,
    sparse: &SparseTensor,
    dense: &[&DenseTensor],
    out: &mut DenseTensor,
    model: &mut M,
    profile: &mut ExecProfile,
) -> Result<(), AsapError> {
    let mut bound = bind(&ck.kernel, sparse, dense, out)?;
    let p = ck.program.as_ref().ok_or_else(|| {
        AsapError::binding(
            "profiled run requires the bytecode engine but the kernel has no lowered program",
        )
    })?;
    let _s = asap_obs::span_with("exec", || vec![("engine", "bytecode-profiled".to_string())]);
    execute_budgeted_profiled(
        p,
        &bound.args,
        &mut bound.bufs,
        model,
        &Budget::unlimited(),
        profile,
    )?;
    read_back(out, &bound)
}

/// Convenience: SpMV over f64, functional run, returning `a = B·x`.
pub fn run_spmv_f64(
    ck: &CompiledKernel,
    b: &SparseTensor,
    x: &[f64],
) -> Result<Vec<f64>, AsapError> {
    let mut model = asap_ir::NullModel;
    run_spmv_f64_with(ck, b, x, &mut model)
}

/// SpMV over f64 under an arbitrary memory model (e.g. the simulator).
pub fn run_spmv_f64_with<M: MemoryModel + ?Sized>(
    ck: &CompiledKernel,
    b: &SparseTensor,
    x: &[f64],
    model: &mut M,
) -> Result<Vec<f64>, AsapError> {
    run_spmv_f64_budgeted(ck, b, x, model, ExecEngine::Auto, &Budget::unlimited())
}

/// SpMV over f64 with an explicit engine, governed by `budget`.
pub fn run_spmv_f64_budgeted<M: MemoryModel + ?Sized>(
    ck: &CompiledKernel,
    b: &SparseTensor,
    x: &[f64],
    model: &mut M,
    engine: ExecEngine,
    budget: &Budget,
) -> Result<Vec<f64>, AsapError> {
    let n = b.dims()[1];
    if x.len() != n {
        return Err(AsapError::binding(format!(
            "x length {} must equal the matrix column count {n}",
            x.len()
        )));
    }
    let c = DenseTensor::from_f64(vec![n], x.to_vec());
    let mut a = DenseTensor::zeros(ValueKind::F64, vec![b.dims()[0]]);
    run_with_engine_budgeted(ck, b, &[&c], &mut a, model, engine, budget)?;
    Ok(a.as_f64().to_vec())
}

/// Convenience: SpMM over f64 (`A = B·C`), functional run.
pub fn run_spmm_f64(
    ck: &CompiledKernel,
    b: &SparseTensor,
    c: &DenseTensor,
) -> Result<DenseTensor, AsapError> {
    let mut model = asap_ir::NullModel;
    run_spmm_f64_with(ck, b, c, &mut model)
}

/// SpMM over f64 under an arbitrary memory model.
pub fn run_spmm_f64_with<M: MemoryModel + ?Sized>(
    ck: &CompiledKernel,
    b: &SparseTensor,
    c: &DenseTensor,
    model: &mut M,
) -> Result<DenseTensor, AsapError> {
    if c.dims.len() != 2 {
        return Err(AsapError::binding(format!(
            "dense operand must be a matrix, got rank {}",
            c.dims.len()
        )));
    }
    let mut a = DenseTensor::zeros(ValueKind::F64, vec![b.dims()[0], c.dims[1]]);
    run(ck, b, &[c], &mut a, model)?;
    Ok(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_ir::NullModel;
    use asap_tensor::{CooTensor, Values};

    fn paper_tensor(fmt: Format) -> SparseTensor {
        let coo = CooTensor::new(
            vec![3, 3],
            vec![0, 0, 0, 2, 2, 2],
            Values::F64(vec![1.0, 2.0, 3.0]),
        );
        SparseTensor::from_coo(&coo, fmt)
    }

    /// `bind`'s arena — `(base_addr, len, elem_bytes)` of every buffer, in
    /// `Buffers::add` order — for an SpMV and an SpMM over CSR, COO and
    /// DCSR at both index widths, against constants captured from the
    /// tree before operands were shared (`9a7b237`). A simulated address
    /// that drifts shows here, not only as a golden mismatch.
    #[test]
    fn bind_lays_the_arena_out_as_before_operands_were_shared() {
        // 700 x 900, 0..=4 entries a row, rows 5k empty: 1400 non-zeros.
        let (rows, cols) = (700usize, 900usize);
        let mut coords = Vec::new();
        for r in 0..rows {
            for k in 0..r % 5 {
                coords.extend([r, (r * 7 + k * 131) % cols]);
            }
        }
        let nnz = coords.len() / 2;
        let vals = (0..nnz).map(|i| 0.5 + i as f64).collect();
        let coo = CooTensor::new(vec![rows, cols], coords, Values::F64(vals));
        let x = DenseTensor::from_f64(vec![cols], vec![1.0; cols]);
        let y = DenseTensor::zeros(ValueKind::F64, vec![rows]);
        let c = DenseTensor::from_f64(vec![cols, 4], vec![1.0; cols * 4]);
        let out = DenseTensor::zeros(ValueKind::F64, vec![rows, 4]);
        const WANT: &[(&str, &str)] = &[
            ("spmv/CSR/U32", "[(268435456, 701, 4), (268505088, 1400, 4), (268578816, 1400, 8), (268656640, 900, 8), (268730368, 700, 8)]"),
            ("spmm/CSR/U32", "[(268435456, 701, 4), (268505088, 1400, 4), (268578816, 1400, 8), (268656640, 3600, 8), (268754944, 2800, 8)]"),
            ("spmv/CSR/U64", "[(268435456, 701, 8), (268509184, 1400, 8), (268587008, 1400, 8), (268664832, 900, 8), (268738560, 700, 8)]"),
            ("spmm/CSR/U64", "[(268435456, 701, 8), (268509184, 1400, 8), (268587008, 1400, 8), (268664832, 3600, 8), (268763136, 2800, 8)]"),
            ("spmv/COO/U32", "[(268435456, 2, 4), (268505088, 1400, 4), (268578816, 1400, 4), (268652544, 1400, 8), (268730368, 900, 8), (268804096, 700, 8)]"),
            ("spmm/COO/U32", "[(268435456, 2, 4), (268505088, 1400, 4), (268578816, 1400, 4), (268652544, 1400, 8), (268730368, 3600, 8), (268828672, 2800, 8)]"),
            ("spmv/COO/U64", "[(268435456, 2, 8), (268505088, 1400, 8), (268582912, 1400, 8), (268660736, 1400, 8), (268738560, 900, 8), (268812288, 700, 8)]"),
            ("spmm/COO/U64", "[(268435456, 2, 8), (268505088, 1400, 8), (268582912, 1400, 8), (268660736, 1400, 8), (268738560, 3600, 8), (268836864, 2800, 8)]"),
            ("spmv/DCSR/U32", "[(268435456, 2, 4), (268505088, 560, 4), (268574720, 561, 4), (268644352, 1400, 4), (268718080, 1400, 8), (268795904, 900, 8), (268869632, 700, 8)]"),
            ("spmm/DCSR/U32", "[(268435456, 2, 4), (268505088, 560, 4), (268574720, 561, 4), (268644352, 1400, 4), (268718080, 1400, 8), (268795904, 3600, 8), (268894208, 2800, 8)]"),
            ("spmv/DCSR/U64", "[(268435456, 2, 8), (268505088, 560, 8), (268578816, 561, 8), (268652544, 1400, 8), (268730368, 1400, 8), (268808192, 900, 8), (268881920, 700, 8)]"),
            ("spmm/DCSR/U64", "[(268435456, 2, 8), (268505088, 560, 8), (268578816, 561, 8), (268652544, 1400, 8), (268730368, 1400, 8), (268808192, 3600, 8), (268906496, 2800, 8)]"),
        ];
        let mut got = Vec::new();
        for fmt in [Format::csr(), Format::coo(), Format::dcsr()] {
            for width in [IndexWidth::U32, IndexWidth::U64] {
                let mut b = SparseTensor::from_coo(&coo, fmt.clone());
                b.set_index_width(width);
                for (kernel, spec, dense, o) in [
                    ("spmv", KernelSpec::spmv(ValueKind::F64), &x, &y),
                    ("spmm", KernelSpec::spmm(ValueKind::F64), &c, &out),
                ] {
                    let ck =
                        compile_with_width(&spec, &fmt, width, &PrefetchStrategy::none()).unwrap();
                    let bound = bind(&ck.kernel, &b, &[dense], o).unwrap();
                    let layout: Vec<(u64, usize, u8)> = (0..bound.bufs.len() as u32)
                        .map(|id| {
                            let buf = bound.bufs.get(id);
                            (buf.base_addr, buf.data.len(), buf.data.elem_bytes())
                        })
                        .collect();
                    got.push((format!("{kernel}/{fmt}/{width:?}"), format!("{layout:?}")));
                }
            }
        }
        assert_eq!(got.len(), WANT.len());
        for ((name, layout), (want_name, want)) in got.iter().zip(WANT) {
            assert_eq!(name, want_name);
            assert_eq!(layout, want, "{name}");
        }
    }

    /// One resident tensor, two request threads: each `bind` shares the
    /// tensor's arrays instead of copying them, so concurrent tier-2 runs
    /// read the same memory. Every checksum is the single-threaded one
    /// and the tensor is intact afterwards.
    #[test]
    fn two_threads_bind_one_tensor_and_run_tier2_concurrently() {
        use std::sync::{Arc, Barrier};
        let n = 257usize;
        let coords = (0..n).flat_map(|r| [r, r, r, (r * 5 + 3) % n]).collect();
        let vals = (0..2 * n).map(|i| 0.25 + (i % 19) as f64 * 0.5).collect();
        let coo = CooTensor::new(vec![n, n], coords, Values::F64(vals));
        let b = Arc::new(SparseTensor::from_coo(&coo, Format::csr()));
        let x = DenseTensor::from_f64(vec![n], (0..n).map(|i| 1.0 + i as f64).collect());
        let spec = KernelSpec::spmv(ValueKind::F64);
        let ck = compile(&spec, &Format::csr(), &PrefetchStrategy::asap(45)).unwrap();
        let plan = ck.tier2.as_ref().expect("CSR ASaP SpMV must specialize");
        let run_once = || {
            let mut y = DenseTensor::zeros(ValueKind::F64, vec![n]);
            let mut bound = bind(&ck.kernel, &b, &[&x], &y).unwrap();
            plan.run(&bound.args, &mut bound.bufs, &Budget::unlimited())
                .unwrap();
            read_back(&mut y, &bound).unwrap();
            crate::service::checksum_f64(y.as_f64())
        };
        let want = run_once();
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    for rep in 0..100 {
                        assert_eq!(run_once(), want, "rep {rep}");
                    }
                });
            }
        });
        b.check_invariants().unwrap();
        assert_eq!(Arc::strong_count(&b), 1);
    }

    #[test]
    fn three_variants_compute_identical_spmv_results() {
        let spec = KernelSpec::spmv(ValueKind::F64);
        let b = paper_tensor(Format::csr());
        let x = vec![1.0, 10.0, 100.0];
        let mut results = Vec::new();
        for strat in [
            PrefetchStrategy::none(),
            PrefetchStrategy::asap(4),
            PrefetchStrategy::aj(4),
        ] {
            let ck = compile(&spec, &Format::csr(), &strat).unwrap();
            assert!(!ck.is_degraded(), "{:?}", ck.warnings);
            results.push(run_spmv_f64(&ck, &b, &x).unwrap());
        }
        assert_eq!(results[0], vec![201.0, 0.0, 300.0]);
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2]);
    }

    #[test]
    fn asap_bound_chain_is_hoisted() {
        let spec = KernelSpec::spmv(ValueKind::F64);
        let ck = compile(&spec, &Format::csr(), &PrefetchStrategy::asap(45)).unwrap();
        // The size chain (const 1, muli, pos load, cast, subi...) must
        // leave the inner loop.
        assert!(
            ck.hoisted_ops >= 3,
            "expected the bound chain hoisted, got {}",
            ck.hoisted_ops
        );
        assert_eq!(ck.prefetch_ops, 2);
    }

    #[test]
    fn aj_emits_no_prefetches_for_spmm() {
        let spec = KernelSpec::spmm(ValueKind::F64);
        let asap = compile(&spec, &Format::csr(), &PrefetchStrategy::asap(45)).unwrap();
        let aj = compile(&spec, &Format::csr(), &PrefetchStrategy::aj(45)).unwrap();
        assert_eq!(asap.prefetch_ops, 2, "ASaP outer-loop prefetching works");
        assert_eq!(aj.prefetch_ops, 0, "A&J cannot handle SpMM");
    }

    #[test]
    fn spmm_results_match_across_variants() {
        let spec = KernelSpec::spmm(ValueKind::F64);
        let b = paper_tensor(Format::csr());
        let c = DenseTensor::from_f64(vec![3, 2], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let base = compile(&spec, &Format::csr(), &PrefetchStrategy::none()).unwrap();
        let asap = compile(&spec, &Format::csr(), &PrefetchStrategy::asap(3)).unwrap();
        let a0 = run_spmm_f64(&base, &b, &c).unwrap();
        let a1 = run_spmm_f64(&asap, &b, &c).unwrap();
        assert_eq!(a0.as_f64(), a1.as_f64());
        // Row 0: 1*C[0,:] + 2*C[2,:] = [1+10, 2+12] = [11, 14].
        assert_eq!(&a0.as_f64()[0..2], &[11.0, 14.0]);
    }

    #[test]
    fn strategies_have_labels() {
        assert_eq!(PrefetchStrategy::none().label(), "baseline");
        assert_eq!(PrefetchStrategy::asap(1).label(), "asap");
        assert_eq!(PrefetchStrategy::aj(1).label(), "ainsworth-jones");
        assert_eq!(PrefetchStrategy::FaultInjection.label(), "fault-injection");
    }

    #[test]
    fn coo_variants_agree() {
        let spec = KernelSpec::spmv(ValueKind::F64);
        let b = paper_tensor(Format::coo());
        let x = vec![2.0, 3.0, 4.0];
        let base = compile(&spec, &Format::coo(), &PrefetchStrategy::none()).unwrap();
        let asap = compile(&spec, &Format::coo(), &PrefetchStrategy::asap(2)).unwrap();
        let aj = compile(&spec, &Format::coo(), &PrefetchStrategy::aj(2)).unwrap();
        let r0 = run_spmv_f64(&base, &b, &x).unwrap();
        assert_eq!(r0, run_spmv_f64(&asap, &b, &x).unwrap());
        assert_eq!(r0, run_spmv_f64(&aj, &b, &x).unwrap());
    }

    #[test]
    fn dcsr_asap_compiles_and_runs() {
        let spec = KernelSpec::spmv(ValueKind::F64);
        let b = paper_tensor(Format::dcsr());
        let ck = compile(&spec, &Format::dcsr(), &PrefetchStrategy::asap(8)).unwrap();
        let r = run_spmv_f64(&ck, &b, &[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(r, vec![3.0, 0.0, 3.0]);
    }

    #[test]
    fn fault_injection_falls_back_to_baseline_with_warning() {
        let spec = KernelSpec::spmv(ValueKind::F64);
        let ck = compile(&spec, &Format::csr(), &PrefetchStrategy::FaultInjection).unwrap();
        // Degraded: the compiled kernel is the baseline...
        assert_eq!(ck.strategy, PrefetchStrategy::Baseline);
        assert_eq!(ck.prefetch_ops, 0);
        // ...and the failure is recorded, typed by stage.
        assert!(ck.is_degraded());
        assert_eq!(ck.warnings.len(), 1);
        assert_eq!(ck.warnings[0].strategy, "fault-injection");
        assert_eq!(ck.warnings[0].kind, "verify");
        assert!(ck.warnings[0].to_string().contains("fell back to baseline"));
        // The fallback kernel still computes the right answer.
        let b = paper_tensor(Format::csr());
        let r = run_spmv_f64(&ck, &b, &[1.0, 10.0, 100.0]).unwrap();
        assert_eq!(r, vec![201.0, 0.0, 300.0]);
    }

    #[test]
    fn baseline_failure_is_a_hard_error() {
        // An invalid spec cannot degrade: there is nothing to fall back to.
        let mut spec = KernelSpec::spmv(ValueKind::F64);
        spec.output.map = vec![1]; // reduction index in the output
        let err = compile(&spec, &Format::csr(), &PrefetchStrategy::none()).unwrap_err();
        assert_eq!(err.kind(), "spec");
        // The same spec under a prefetch strategy also fails hard: the
        // baseline fallback hits the identical spec error.
        let err = compile(&spec, &Format::csr(), &PrefetchStrategy::asap(4)).unwrap_err();
        assert_eq!(err.kind(), "spec");
    }

    #[test]
    fn codegen_failure_propagates_when_baseline_also_fails() {
        // A sparse operand whose rank disagrees with the storage format
        // fails codegen under every strategy, so the fallback cannot help:
        // the typed error must propagate (never a panic).
        let mut spec = KernelSpec::spmv(ValueKind::F64);
        spec.inputs[0].map = vec![0]; // rank-1 map, rank-2 CSR format
        let err = compile(&spec, &Format::csr(), &PrefetchStrategy::asap(4)).unwrap_err();
        assert_eq!(err.kind(), "codegen");
        assert!(err.to_string().contains("rank"), "{err}");
    }

    #[test]
    fn fuel_budget_traps_with_typed_error() {
        let spec = KernelSpec::spmv(ValueKind::F64);
        let b = paper_tensor(Format::csr());
        let x = [1.0, 10.0, 100.0];
        let ck = compile(&spec, &Format::csr(), &PrefetchStrategy::asap(4)).unwrap();
        let mut model = asap_ir::NullModel;
        // One unit of fuel cannot cover a 3-row SpMV: typed trap, not a
        // hang or panic, with the governing loop's op location attached.
        let budget = Budget::unlimited().with_fuel(1);
        let err =
            run_spmv_f64_budgeted(&ck, &b, &x, &mut model, ExecEngine::Auto, &budget).unwrap_err();
        assert_eq!(err.kind(), "budget");
        let v = err.budget_violation().expect("structured violation");
        assert_eq!(v.limit, 1);
        // Enough fuel and the identical call succeeds with the exact result.
        let budget = Budget::unlimited().with_fuel(1_000);
        let r = run_spmv_f64_budgeted(&ck, &b, &x, &mut model, ExecEngine::Auto, &budget).unwrap();
        assert_eq!(r, vec![201.0, 0.0, 300.0]);
    }

    #[test]
    fn tier2_specializes_csr_asap_spmv_bit_identically() {
        let spec = KernelSpec::spmv(ValueKind::F64);
        let b = paper_tensor(Format::csr());
        let x = vec![1.0, 10.0, 100.0];
        let ck = compile(&spec, &Format::csr(), &PrefetchStrategy::asap(45)).unwrap();
        let plan = ck.tier2.as_ref().expect("CSR ASaP SpMV must specialize");
        assert_eq!(plan.label(), "spmv");
        assert_eq!(plan.key(), "spmv:d45:c90");
        let run = |engine| {
            run_spmv_f64_budgeted(&ck, &b, &x, &mut NullModel, engine, &Budget::unlimited())
        };
        let vm = run(ExecEngine::Bytecode).unwrap();
        let t2 = run(ExecEngine::Tier2).unwrap();
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        assert_eq!(bits(&vm), bits(&t2));
        assert_eq!(t2, vec![201.0, 0.0, 300.0]);
    }

    #[test]
    fn tier2_specializes_csr_asap_spmm_bit_identically() {
        let spec = KernelSpec::spmm(ValueKind::F64);
        let b = paper_tensor(Format::csr());
        let c = DenseTensor::from_f64(vec![3, 2], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let ck = compile(&spec, &Format::csr(), &PrefetchStrategy::asap(3)).unwrap();
        let plan = ck.tier2.as_ref().expect("CSR ASaP SpMM must specialize");
        assert_eq!(plan.label(), "spmm");
        let vm = run_spmm_f64(&ck, &b, &c).unwrap();
        let mut out = DenseTensor::zeros(ValueKind::F64, vec![3, 2]);
        run_with_engine_budgeted(
            &ck,
            &b,
            &[&c],
            &mut out,
            &mut NullModel,
            ExecEngine::Tier2,
            &Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(vm.as_f64(), out.as_f64());
        assert_eq!(&out.as_f64()[0..2], &[11.0, 14.0]);
    }

    /// The whole extracted plan — argument positions, both distances,
    /// `acc_is_rhs` and every trap `OpId` — for CSR ASaP {SpMV, SpMM} ×
    /// {U32, U64} × d ∈ {1, 45}. `key()` and output bits cannot see a
    /// wrong trap location on a path no seed trips; this can.
    #[test]
    fn tier2_plans_are_pinned_field_by_field() {
        const SPMV_U32: &str = "Some(Spmv(SpmvPlan { nrows_arg: 5, pos_arg: 0, y_arg: 4, crd_arg: 1, x_arg: 3, vals_arg: 2, dist_x: {d}, dist_crd: {2d}, acc_is_rhs: false, \
            pre_pos_pc: OpId(16), outer_pc: OpId(35), y_pc: OpId(2), pos_lo_pc: OpId(4), pos_hi_pc: OpId(7), inner_pc: OpId(32), lc_pc: OpId(9), gp_crd_pc: OpId(24), ds_a_pc: OpId(27), ds_b_pc: OpId(28) }))";
        const SPMV_U64: &str = "Some(Spmv(SpmvPlan { nrows_arg: 5, pos_arg: 0, y_arg: 4, crd_arg: 1, x_arg: 3, vals_arg: 2, dist_x: {d}, dist_crd: {2d}, acc_is_rhs: false, \
            pre_pos_pc: OpId(13), outer_pc: OpId(30), y_pc: OpId(2), pos_lo_pc: OpId(4), pos_hi_pc: OpId(6), inner_pc: OpId(27), lc_pc: OpId(7), gp_crd_pc: OpId(20), ds_a_pc: OpId(22), ds_b_pc: OpId(23) }))";
        const SPMM_U32: &str = "Some(Spmm(SpmmPlan { nrows_arg: 5, k_arg: 7, pos_arg: 0, crd_arg: 1, c_arg: 3, vals_arg: 2, out_arg: 4, dist_x: {d}, dist_crd: {2d}, \
            pre_pos_pc: OpId(15), outer_pc: OpId(44), pos_lo_pc: OpId(3), pos_hi_pc: OpId(6), mid_pc: OpId(42), crd_pc: OpId(8), gp_crd_pc: OpId(23), vals_pc: OpId(29), inner_pc: OpId(40), c_pc: OpId(32), out_pc: OpId(36) }))";
        const SPMM_U64: &str = "Some(Spmm(SpmmPlan { nrows_arg: 5, k_arg: 7, pos_arg: 0, crd_arg: 1, c_arg: 3, vals_arg: 2, out_arg: 4, dist_x: {d}, dist_crd: {2d}, \
            pre_pos_pc: OpId(12), outer_pc: OpId(39), pos_lo_pc: OpId(3), pos_hi_pc: OpId(5), mid_pc: OpId(37), crd_pc: OpId(6), gp_crd_pc: OpId(19), vals_pc: OpId(24), inner_pc: OpId(35), c_pc: OpId(27), out_pc: OpId(31) }))";
        let spmv = KernelSpec::spmv(ValueKind::F64);
        let spmm = KernelSpec::spmm(ValueKind::F64);
        let table = [
            ("spmv/u32", &spmv, IndexWidth::U32, SPMV_U32),
            ("spmv/u64", &spmv, IndexWidth::U64, SPMV_U64),
            ("spmm/u32", &spmm, IndexWidth::U32, SPMM_U32),
            ("spmm/u64", &spmm, IndexWidth::U64, SPMM_U64),
        ];
        for (name, spec, width, template) in table {
            for d in [1usize, 45] {
                let strategy = PrefetchStrategy::asap(d);
                let ck = compile_with_width(spec, &Format::csr(), width, &strategy).unwrap();
                let want = template
                    .replace("{d}", &d.to_string())
                    .replace("{2d}", &(2 * d).to_string());
                assert_eq!(format!("{:?}", ck.tier2), want, "{name} d={d}");
            }
        }
    }

    /// `bind` never hands the VM a mistyped buffer, so nothing else
    /// reaches the path where the `SpmvLoop` guard declines and the loop
    /// runs through its own instructions. Swap one operand's storage
    /// type under the bound kernel and require the tree-walker and the
    /// VM to agree on everything observable.
    #[test]
    fn mistyped_operands_fall_through_the_spmv_guard_identically() {
        use asap_ir::{BufferData, Instr, TraceModel};
        let spec = KernelSpec::spmv(ValueKind::F64);
        let ck = compile(&spec, &Format::csr(), &PrefetchStrategy::asap(2)).unwrap();
        let prog = ck.program.as_ref().unwrap();
        assert!(prog.instrs.iter().any(|i| matches!(i, Instr::SpmvLoop(_))));
        let Some(Tier2Plan::Spmv(plan)) = &ck.tier2 else {
            panic!("CSR ASaP SpMV must specialize");
        };
        let b = paper_tensor(Format::csr());
        let x = DenseTensor::from_f64(vec![3], vec![1.0, 10.0, 100.0]);
        let y = DenseTensor::zeros(ValueKind::F64, vec![3]);
        let cases = [
            ("x as i8", plan.x_arg, BufferData::I8(vec![1; 3])),
            ("vals as i8", plan.vals_arg, BufferData::I8(vec![1; 3])),
            ("crd as f64", plan.crd_arg, BufferData::F64(vec![0.0; 3])),
        ];
        for (name, arg, data) in cases {
            let mut bound = bind(&ck.kernel, &b, &[&x], &y).unwrap();
            let asap_ir::V::Mem(id) = bound.args[arg] else {
                panic!("{name}: argument {arg} is not a memref");
            };
            bound.bufs.get_mut(id).data = data;
            let (mut b1, mut b2) = (bound.bufs.clone(), bound.bufs);
            let (mut t1, mut t2) = (TraceModel::new(), TraceModel::new());
            let unlimited = Budget::unlimited();
            let e1 = interpret_budgeted(&ck.kernel.func, &bound.args, &mut b1, &mut t1, &unlimited)
                .expect_err(name);
            let e2 =
                execute_budgeted(prog, &bound.args, &mut b2, &mut t2, &unlimited).expect_err(name);
            assert_eq!(e1.to_string(), e2.to_string(), "{name}: display");
            assert!(e1.to_string().contains("expected"), "{name}: a type trap");
            assert_eq!(e1.op(), e2.op(), "{name}: op location");
            assert!(e1.op().is_some(), "{name}: located");
            assert_eq!(t1.events, t2.events, "{name}: event prefix");
            assert!(!t1.events.is_empty(), "{name}: trapped inside the loop");
            assert_eq!(t1.instructions, t2.instructions, "{name}: retire count");
        }
    }

    #[test]
    fn non_matching_shapes_have_no_tier2_plan() {
        let spec = KernelSpec::spmv(ValueKind::F64);
        // Baseline CSR: no SpmvLoop superinstruction in the bytecode.
        let base = compile(&spec, &Format::csr(), &PrefetchStrategy::none()).unwrap();
        assert!(base.tier2.is_none());
        // COO ASaP: a different loop structure entirely.
        let coo = compile(&spec, &Format::coo(), &PrefetchStrategy::asap(8)).unwrap();
        assert!(coo.tier2.is_none());
        // Requesting tier-2 explicitly on such a kernel is a typed
        // binding error, never a silent fallback.
        let b = paper_tensor(Format::csr());
        let err = run_spmv_f64_budgeted(
            &base,
            &b,
            &[1.0; 3],
            &mut NullModel,
            ExecEngine::Tier2,
            &Budget::unlimited(),
        )
        .unwrap_err();
        assert_eq!(err.kind(), "binding");
        assert!(err.to_string().contains("no native specialization"));
    }

    #[test]
    fn engine_selection_table() {
        const NO_PROGRAM: &str = "bytecode engine requested but the kernel has no lowered program";
        const NO_PLAN: &str = "tier-2 engine requested but the kernel has no native specialization";
        let spec = KernelSpec::spmv(ValueKind::F64);
        let full = compile(&spec, &Format::csr(), &PrefetchStrategy::asap(45)).unwrap();
        assert!(full.program.is_some() && full.tier2.is_some());
        use ExecEngine::*;
        // (requested, has program, has plan, model-free) -> label or message.
        type Case = (
            ExecEngine,
            bool,
            bool,
            bool,
            Result<&'static str, &'static str>,
        );
        let table: &[Case] = &[
            (Auto, true, true, true, Ok("tier2")),
            (Auto, true, true, false, Ok("bytecode")),
            (Auto, true, false, true, Ok("bytecode")),
            (Auto, true, false, false, Ok("bytecode")),
            (Auto, false, true, true, Ok("tier2")),
            (Auto, false, true, false, Ok("tree-walk")),
            (Auto, false, false, true, Ok("tree-walk")),
            (Auto, false, false, false, Ok("tree-walk")),
            (TreeWalk, true, true, true, Ok("tree-walk")),
            (TreeWalk, true, true, false, Ok("tree-walk")),
            (TreeWalk, false, false, true, Ok("tree-walk")),
            (TreeWalk, false, false, false, Ok("tree-walk")),
            (Bytecode, true, true, true, Ok("bytecode")),
            (Bytecode, true, false, false, Ok("bytecode")),
            (Bytecode, false, true, true, Err(NO_PROGRAM)),
            (Bytecode, false, false, false, Err(NO_PROGRAM)),
            (Tier2, true, true, true, Ok("tier2")),
            (Tier2, true, true, false, Ok("tier2")),
            (Tier2, false, true, false, Ok("tier2")),
            (Tier2, true, false, true, Err(NO_PLAN)),
            (Tier2, false, false, false, Err(NO_PLAN)),
        ];
        for &(requested, has_program, has_plan, model_free, want) in table {
            let mut ck = full.clone();
            if !has_program {
                ck.program = None;
            }
            if !has_plan {
                ck.tier2 = None;
            }
            let got = Engine::select(&ck, requested, model_free);
            let case = format!(
                "{requested:?} program={has_program} plan={has_plan} model_free={model_free}"
            );
            match (got, want) {
                (Ok(e), Ok(label)) => assert_eq!(e.label(), label, "{case}"),
                (Err(e), Err(msg)) => {
                    assert_eq!(e.kind(), "binding", "{case}");
                    assert_eq!(
                        e.to_string(),
                        format!("operand binding error: {msg}"),
                        "{case}"
                    );
                }
                (got, want) => panic!("{case}: got {got:?}, want {want:?}"),
            }
        }
    }

    #[test]
    fn tier2_fuel_trap_matches_the_vm() {
        let spec = KernelSpec::spmv(ValueKind::F64);
        let b = paper_tensor(Format::csr());
        let x = [1.0, 10.0, 100.0];
        let ck = compile(&spec, &Format::csr(), &PrefetchStrategy::asap(4)).unwrap();
        let mut model = asap_ir::NullModel;
        for fuel in 0..8 {
            let budget = Budget::unlimited().with_fuel(fuel);
            let vm = run_spmv_f64_budgeted(&ck, &b, &x, &mut model, ExecEngine::Bytecode, &budget);
            let t2 = run_spmv_f64_budgeted(&ck, &b, &x, &mut model, ExecEngine::Tier2, &budget);
            match (vm, t2) {
                (Ok(a), Ok(c)) => assert_eq!(a, c, "fuel {fuel}"),
                (Err(a), Err(c)) => {
                    assert_eq!(a.to_string(), c.to_string(), "fuel {fuel}")
                }
                (a, c) => panic!("fuel {fuel}: engines diverge: vm={a:?} tier2={c:?}"),
            }
        }
    }

    #[test]
    fn bytes_ceiling_is_checked_at_bind_time() {
        let spec = KernelSpec::spmv(ValueKind::F64);
        let b = paper_tensor(Format::csr());
        let x = [1.0, 10.0, 100.0];
        let ck = compile(&spec, &Format::csr(), &PrefetchStrategy::none()).unwrap();
        let mut model = asap_ir::NullModel;
        let budget = Budget::unlimited().with_bytes(8);
        let err =
            run_spmv_f64_budgeted(&ck, &b, &x, &mut model, ExecEngine::Auto, &budget).unwrap_err();
        assert_eq!(err.kind(), "budget");
        let v = err.budget_violation().unwrap();
        assert_eq!(v.resource, asap_ir::Resource::Bytes);
        assert!(v.spent > 8, "spent reports the actual allocation");
    }

    #[test]
    fn mismatched_x_length_is_a_binding_error() {
        let spec = KernelSpec::spmv(ValueKind::F64);
        let b = paper_tensor(Format::csr());
        let ck = compile(&spec, &Format::csr(), &PrefetchStrategy::none()).unwrap();
        let err = run_spmv_f64(&ck, &b, &[1.0]).unwrap_err();
        assert_eq!(err.kind(), "binding");
    }
}
