//! Single-flight coalescing of concurrent same-kernel compiles.
//!
//! The sharded cache already deduplicates *sequential* compiles, but two
//! workers racing on a cold key would both run the compiler (the cache
//! deliberately compiles outside its locks). Under a request burst that
//! is N-1 wasted compiles of the same kernel at the worst moment — cold
//! start. Single-flight closes that gap: the first requester of a key
//! becomes the leader and compiles; every concurrent requester of the
//! same key parks on the flight and receives a clone of the leader's
//! result.
//!
//! Determinism contract (asserted by `tests/serve.rs`): among N
//! concurrent requests for one cold kernel, exactly one response reports
//! `cache_hit: false` — the leader's. Followers were served by the
//! coalesced compile (counted under `serve.coalesced`), and report
//! `cache_hit: true` because they did not pay for a compile.

use asap_core::{compile_for, CompiledKernel, PrefetchStrategy, ServiceKernel};
use asap_ir::AsapError;
use asap_tensor::SparseTensor;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

type CompileResult = Result<(CompiledKernel, bool, u64), AsapError>;

#[derive(Default)]
struct Flight {
    slot: Mutex<Option<CompileResult>>,
    done: Condvar,
}

#[derive(Default)]
pub struct SingleFlight {
    flights: Mutex<HashMap<String, Arc<Flight>>>,
}

impl SingleFlight {
    pub fn new() -> SingleFlight {
        SingleFlight::default()
    }

    /// Compile the kernel for `sparse` under `strategy`, coalescing with
    /// any concurrent identical compile. Returns `(kernel, cache_hit,
    /// compile_ns)` with followers reporting `cache_hit = true`.
    pub fn compile(
        &self,
        kernel: ServiceKernel,
        sparse: &SparseTensor,
        strategy: &PrefetchStrategy,
    ) -> CompileResult {
        // Same identity the cache keys on: the kernel never depends on
        // matrix *contents*, only format and width.
        let key = format!(
            "{:?}|{:?}|{:?}|{strategy:?}",
            kernel.spec(),
            sparse.format(),
            sparse.index_width()
        );
        let (flight, leader) = {
            let mut g = self.flights.lock().unwrap_or_else(|p| p.into_inner());
            match g.get(&key) {
                Some(f) => (f.clone(), false),
                None => {
                    let f = Arc::new(Flight::default());
                    g.insert(key.clone(), f.clone());
                    (f, true)
                }
            }
        };

        if leader {
            let result = compile_for(kernel, sparse, strategy);
            {
                let mut slot = flight.slot.lock().unwrap_or_else(|p| p.into_inner());
                *slot = Some(result.clone());
            }
            flight.done.notify_all();
            // Retire the flight so later requests go straight to the
            // (now warm) cache instead of parking here.
            self.flights
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .remove(&key);
            result
        } else {
            asap_obs::counter_inc("serve.coalesced");
            let mut slot = flight.slot.lock().unwrap_or_else(|p| p.into_inner());
            while slot.is_none() {
                slot = flight.done.wait(slot).unwrap_or_else(|p| p.into_inner());
            }
            match slot.as_ref().unwrap() {
                // A follower's compile cost is the wait, which it did not
                // spend compiling: report a hit with zero compile time.
                Ok((ck, _, _)) => Ok((ck.clone(), true, 0)),
                Err(e) => Err(e.clone()),
            }
        }
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
        assert!(
            misses.load(Ordering::Relaxed) <= 1,
            "at most the leader misses"
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
        assert!(
            sf.flights.lock().unwrap().is_empty(),
            "flights are retired once resolved"
        );
    }
}
