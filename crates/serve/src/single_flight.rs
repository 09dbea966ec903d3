//! The compile step under the name the benchmark crate imports. The
//! compile cache itself coalesces concurrent compiles of one kernel
//! (`asap-core::cache`, DESIGN.md §8.3, §11.3), and the daemon calls
//! [`compile_for`] directly; this field-less facade exists only because
//! the benchmark crate (`benchmark/`) imports `SingleFlight`.

use asap_core::{compile_for, CompiledKernel, PrefetchStrategy, ServiceKernel};
use asap_ir::AsapError;
use asap_tensor::SparseTensor;
use std::sync::Arc;

#[derive(Default)]
pub struct SingleFlight;

impl SingleFlight {
    pub fn new() -> SingleFlight {
        SingleFlight
    }

    /// [`compile_for`]: `(kernel, cache_hit, compile_ns)`, where only
    /// the caller that compiled the kernel reports `cache_hit = false`
    /// and `compile_ns` is this caller's own wall time.
    pub fn compile(
        &self,
        kernel: ServiceKernel,
        sparse: &SparseTensor,
        strategy: &PrefetchStrategy,
    ) -> Result<(Arc<CompiledKernel>, bool, u64), AsapError> {
        compile_for(kernel, sparse, strategy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_core::ExecEngine;
    use asap_ir::Budget;
    use asap_tensor::{CooTensor, Format, Values};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn diagonal(n: usize) -> SparseTensor {
        let coords: Vec<usize> = (0..n).flat_map(|i| [i, i]).collect();
        let vals = Values::F64((0..n).map(|i| 1.0 + i as f64).collect());
        let coo = CooTensor::try_new(vec![n, n], coords, vals).unwrap();
        SparseTensor::try_from_coo(&coo, Format::csr()).unwrap()
    }

    #[test]
    fn concurrent_cold_compiles_coalesce_to_one_miss() {
        let sf = Arc::new(SingleFlight::new());
        let sparse = Arc::new(diagonal(16));
        // A distance no other test uses keeps this key cold in the
        // process-global cache regardless of test interleaving.
        let strategy = PrefetchStrategy::asap(7919);
        let misses = Arc::new(AtomicUsize::new(0));
        let workers: Vec<_> = (0..8)
            .map(|_| {
                let (sf, sparse, misses) = (sf.clone(), sparse.clone(), misses.clone());
                std::thread::spawn(move || {
                    let (ck, hit, _) = sf.compile(ServiceKernel::Spmv, &sparse, &strategy).unwrap();
                    if !hit {
                        misses.fetch_add(1, Ordering::Relaxed);
                    }
                    ck.prefetch_ops
                })
            })
            .collect();
        let ops: Vec<usize> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        assert_eq!(
            misses.load(Ordering::Relaxed),
            1,
            "exactly the compiling caller misses"
        );
        assert!(
            ops.windows(2).all(|w| w[0] == w[1]),
            "all got the same kernel"
        );
        // And the coalesced kernel actually runs.
        let out = asap_core::execute_request(
            &sf.compile(ServiceKernel::Spmv, &sparse, &strategy)
                .unwrap()
                .0,
            ServiceKernel::Spmv,
            &sparse,
            ExecEngine::Auto,
            &Budget::unlimited(),
            true,
            0,
        )
        .unwrap();
        assert_eq!(out.rows, 16);
    }

    #[test]
    fn sequential_calls_after_the_flight_hit_the_cache() {
        let sf = Arc::new(SingleFlight::new());
        let sparse = Arc::new(diagonal(4));
        let s = PrefetchStrategy::asap(7907);
        let (_, hit1, _) = sf.compile(ServiceKernel::Spmv, &sparse, &s).unwrap();
        let (_, hit2, _) = sf.compile(ServiceKernel::Spmv, &sparse, &s).unwrap();
        assert!(!hit1, "cold key compiles");
        assert!(hit2, "warm key hits the cache, no flight needed");
    }
}
