//! Request-level compile-and-execute entry point.
//!
//! `asap-serve` and the load harness both need the same unit of work:
//! given a sparse matrix, a kernel choice, a strategy, an engine, and a
//! resource budget, compile through the sharded cache and execute on
//! deterministic operands, returning a checksummed [`ServiceOutcome`].
//! Pulling that unit into `asap-core` keeps the daemon a thin transport
//! layer and — more importantly — makes "the server returns exactly what
//! a direct library call returns" a testable statement:
//! `tests/serve.rs` compares [`serve_request`] run in-process against
//! the JSON a live server produces, bit for bit (via the checksum).
//!
//! Determinism contract: the dense operands depend only on the matrix
//! shape — `x[i] = 0.25 + (i % 31) * 0.125` for SpMV and
//! `c[i] = 0.5 + (i % 13) * 0.25` for SpMM — the same generator
//! patterns the bench harness uses, so a served result is comparable
//! against any other run of the same (matrix, kernel, variant).

use crate::cache::compile_cached_stat;
use crate::pipeline::{bind_and_run, CompiledKernel, ExecEngine, PrefetchStrategy};
use asap_ir::{AsapError, Budget, NullModel};
use asap_sparsifier::KernelSpec;
use asap_tensor::{DenseTensor, SparseTensor, ValueKind};
use std::time::Instant;

/// Which kernel a request names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceKernel {
    Spmv,
    /// SpMM with the given dense-operand column count.
    Spmm {
        cols: usize,
    },
}

impl ServiceKernel {
    pub fn spec(&self) -> KernelSpec {
        match self {
            ServiceKernel::Spmv => KernelSpec::spmv(ValueKind::F64),
            ServiceKernel::Spmm { .. } => KernelSpec::spmm(ValueKind::F64),
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            ServiceKernel::Spmv => "spmv",
            ServiceKernel::Spmm { .. } => "spmm",
        }
    }
}

/// Everything a response needs about one executed request.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceOutcome {
    /// FNV-1a over the little-endian bit patterns of the output f64s —
    /// the bit-exactness witness across engines, strategies applied to
    /// the same kernel, and the server/direct-call boundary.
    pub checksum: u64,
    pub rows: usize,
    pub cols: usize,
    pub nnz: usize,
    /// Wall-clock of the (cached) compile step, nanoseconds.
    pub compile_ns: u64,
    /// Wall-clock of bind + execute + read-back, nanoseconds.
    pub exec_ns: u64,
    /// True if the kernel came from the compile cache.
    pub cache_hit: bool,
    /// True if the requested strategy degraded to baseline.
    pub degraded: bool,
    /// Rendered compile warnings (empty unless degraded).
    pub warnings: Vec<String>,
    /// Engine that actually ran: "tier2", "bytecode", or "tree-walk".
    pub engine_used: &'static str,
    /// `memref.prefetch` ops in the kernel that ran.
    pub prefetch_ops: usize,
}

/// FNV-1a 64 over a byte slice — the workspace's one content digest,
/// shared by response checksums, matrix-store keys, and the serving
/// layer's witness fingerprints so equal bytes always hash equal
/// everywhere.
pub fn fingerprint64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over the bit patterns of a slice of f64s.
pub fn checksum_f64(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        h = v.to_bits().to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    }
    h
}

/// The deterministic SpMV input vector for an `n`-column matrix.
pub fn service_x(n: usize) -> Vec<f64> {
    (0..n).map(|i| 0.25 + (i % 31) as f64 * 0.125).collect()
}

/// The deterministic SpMM dense operand for an `n × cols` product.
pub fn service_c(n: usize, cols: usize) -> DenseTensor {
    DenseTensor::from_f64(
        vec![n, cols],
        (0..n * cols)
            .map(|i| 0.5 + (i % 13) as f64 * 0.25)
            .collect(),
    )
}

/// Compile step, separated out so a coalescing layer can single-flight
/// it: returns the kernel, whether it was a cache hit, and the compile
/// wall-clock.
pub fn compile_for(
    kernel: ServiceKernel,
    sparse: &SparseTensor,
    strategy: &PrefetchStrategy,
) -> Result<(CompiledKernel, bool, u64), AsapError> {
    let t0 = Instant::now();
    let (ck, hit) = compile_cached_stat(
        &kernel.spec(),
        sparse.format(),
        sparse.index_width(),
        strategy,
    )?;
    Ok((ck, hit, t0.elapsed().as_nanos() as u64))
}

/// Execute a compiled kernel on the deterministic operands under the
/// given budget, producing the checksummed outcome (with `compile_ns`
/// and `cache_hit` filled in from the separated compile step).
pub fn execute_request(
    ck: &CompiledKernel,
    kernel: ServiceKernel,
    sparse: &SparseTensor,
    engine: ExecEngine,
    budget: &Budget,
    cache_hit: bool,
    compile_ns: u64,
) -> Result<ServiceOutcome, AsapError> {
    let rows = sparse.dims()[0];
    let cols = sparse.dims()[1];
    let t0 = Instant::now();
    let (dense, mut out) = match kernel {
        ServiceKernel::Spmv => (
            DenseTensor::from_f64(vec![cols], service_x(cols)),
            DenseTensor::zeros(ValueKind::F64, vec![rows]),
        ),
        ServiceKernel::Spmm { cols: 0 } => {
            return Err(AsapError::binding("spmm column count must be positive"));
        }
        ServiceKernel::Spmm { cols: k } => (
            service_c(cols, k),
            DenseTensor::zeros(ValueKind::F64, vec![rows, k]),
        ),
    };
    // The service always executes under `NullModel`, so the one
    // observable tier-2 gives up — the memory-event stream — is moot
    // here: the run is model-free and `Auto` may take the native plan.
    let engine_used = bind_and_run(
        ck,
        sparse,
        &[&dense],
        &mut out,
        &mut NullModel,
        engine,
        true,
        budget,
    )?;
    let checksum = checksum_f64(out.as_f64());
    let exec_ns = t0.elapsed().as_nanos() as u64;
    Ok(ServiceOutcome {
        checksum,
        rows,
        cols,
        nnz: sparse.nnz(),
        compile_ns,
        exec_ns,
        cache_hit,
        degraded: ck.is_degraded(),
        warnings: ck.warnings.iter().map(|w| w.to_string()).collect(),
        engine_used,
        prefetch_ops: ck.prefetch_ops,
    })
}

/// The whole request in one call: compile through the cache, then
/// execute. The direct-call reference the serving tests compare the
/// daemon against.
pub fn serve_request(
    kernel: ServiceKernel,
    sparse: &SparseTensor,
    strategy: &PrefetchStrategy,
    engine: ExecEngine,
    budget: &Budget,
) -> Result<ServiceOutcome, AsapError> {
    let (ck, hit, compile_ns) = compile_for(kernel, sparse, strategy)?;
    execute_request(&ck, kernel, sparse, engine, budget, hit, compile_ns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_tensor::{CooTensor, Format, Values};

    fn tiny_matrix() -> SparseTensor {
        // 4x5, 7 nnz, deterministic values (row-major sorted coords).
        let coords = vec![0, 0, 0, 3, 1, 1, 2, 0, 2, 2, 2, 4, 3, 3];
        let vals = Values::F64(vec![1.0, 2.0, 3.5, -1.0, 0.5, 4.0, 2.25]);
        let coo = CooTensor::try_new(vec![4, 5], coords, vals).unwrap();
        SparseTensor::try_from_coo(&coo, Format::csr()).unwrap()
    }

    #[test]
    fn spmv_checksum_matches_manual_compute() {
        let sparse = tiny_matrix();
        let out = serve_request(
            ServiceKernel::Spmv,
            &sparse,
            &PrefetchStrategy::asap(4),
            ExecEngine::Auto,
            &Budget::unlimited(),
        )
        .unwrap();
        // y = A * service_x(5), dense reference.
        let x = service_x(5);
        let a = [
            [1.0, 0.0, 0.0, 2.0, 0.0],
            [0.0, 3.5, 0.0, 0.0, 0.0],
            [-1.0, 0.0, 0.5, 0.0, 4.0],
            [0.0, 0.0, 0.0, 2.25, 0.0],
        ];
        let y: Vec<f64> = a
            .iter()
            .map(|row| row.iter().zip(&x).map(|(a, b)| a * b).sum())
            .collect();
        assert_eq!(out.checksum, checksum_f64(&y));
        assert_eq!((out.rows, out.cols, out.nnz), (4, 5, 7));
        assert!(out.prefetch_ops > 0, "asap strategy injects prefetches");
        assert!(!out.degraded);
    }

    #[test]
    fn engines_agree_on_the_checksum() {
        let sparse = tiny_matrix();
        let run = |engine| {
            serve_request(
                ServiceKernel::Spmm { cols: 3 },
                &sparse,
                &PrefetchStrategy::none(),
                engine,
                &Budget::unlimited(),
            )
            .unwrap()
        };
        let vm = run(ExecEngine::Auto);
        let tree = run(ExecEngine::TreeWalk);
        assert_eq!(vm.checksum, tree.checksum, "engines must agree bit-for-bit");
        assert_eq!(vm.engine_used, "bytecode");
        assert_eq!(tree.engine_used, "tree-walk");
        assert!(tree.cache_hit, "second request reuses the compile");
    }

    #[test]
    fn auto_upgrades_to_tier2_when_specialized() {
        let sparse = tiny_matrix();
        let run = |engine| {
            serve_request(
                ServiceKernel::Spmv,
                &sparse,
                &PrefetchStrategy::asap(8),
                engine,
                &Budget::unlimited(),
            )
            .unwrap()
        };
        let auto = run(ExecEngine::Auto);
        let vm = run(ExecEngine::Bytecode);
        let tree = run(ExecEngine::TreeWalk);
        assert_eq!(auto.engine_used, "tier2", "ASaP CSR SpMV specializes");
        assert_eq!(vm.engine_used, "bytecode");
        assert_eq!(auto.checksum, vm.checksum, "tier-2 must be bit-identical");
        assert_eq!(auto.checksum, tree.checksum);
    }

    #[test]
    fn budget_trap_is_a_typed_error() {
        let sparse = tiny_matrix();
        let err = serve_request(
            ServiceKernel::Spmv,
            &sparse,
            &PrefetchStrategy::none(),
            ExecEngine::Auto,
            &Budget::unlimited().with_fuel(1),
        )
        .unwrap_err();
        assert_eq!(err.kind(), "budget");
    }

    #[test]
    fn zero_column_spmm_is_rejected() {
        let sparse = tiny_matrix();
        let err = serve_request(
            ServiceKernel::Spmm { cols: 0 },
            &sparse,
            &PrefetchStrategy::none(),
            ExecEngine::Auto,
            &Budget::unlimited(),
        )
        .unwrap_err();
        assert_eq!(err.kind(), "binding");
    }
}
