//! The process-wide cache of compiled kernels, single-flight by
//! construction (DESIGN.md §8.3, §11.3).
//!
//! A kernel depends only on `(spec, format, index width, strategy)` —
//! never on the matrix contents — so that typed tuple is the key, and
//! figure sweeps and concurrent requests share one compilation per key.
//! One map under one `Mutex` holds an `Arc<OnceLock<…>>` per key; the
//! lock covers a lookup and an `Arc` clone, and compilation runs in
//! `get_or_init` outside it. The caller whose initializer ran reports a
//! miss; callers arriving meanwhile block in `get_or_init` and share its
//! `Arc`; a panicking initializer leaves the cell empty for the next
//! caller. Errors are coalesced, not cached: an `Err` cell leaves the map
//! once its readers have it.
//!
//! The map is capped at [`CACHE_CAPACITY`] with FIFO replacement (a
//! serving client chooses `distance`), and a poisoned lock is recovered
//! by clearing it — a memoization layer loses only recompilation. Every
//! outcome is mirrored into `asap-obs` (`cache.hits`, `cache.misses`,
//! `cache.tier2_hits`, `cache.tier2_misses`, `cache.evictions`,
//! `cache.poison_recoveries`), and each lookup records a `cache.lookup`
//! span when the recorder is enabled.

use crate::pipeline::{compile_with_width, CompiledKernel, PrefetchStrategy};
use asap_ir::AsapError;
use asap_sparsifier::KernelSpec;
use asap_tensor::{Format, IndexWidth};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex, MutexGuard, OnceLock};

/// Maximum cached kernels before FIFO eviction.
pub const CACHE_CAPACITY: usize = 128;

/// Everything a compiled kernel depends on.
pub(crate) type Key = (KernelSpec, Format, IndexWidth, PrefetchStrategy);

/// One kernel's compilation: empty while it runs (or after it panicked).
type Cell = Arc<OnceLock<Result<Arc<CompiledKernel>, AsapError>>>;

#[derive(Default)]
struct State {
    map: HashMap<Key, Cell>,
    /// The map's keys in insertion order, oldest first (FIFO eviction).
    order: VecDeque<Key>,
}

#[derive(Default)]
struct Cache {
    state: Mutex<State>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    poison_recoveries: AtomicU64,
    /// Hits/misses split by whether the kernel carries a tier-2 native
    /// specialization — the serving dashboards want to know how much of
    /// the hot set runs native versus on the VM.
    tier2_hits: AtomicU64,
    tier2_misses: AtomicU64,
}

static CACHE: LazyLock<Cache> = LazyLock::new(Cache::default);

/// Lock the map, recovering from poisoning by clearing it.
fn lock(c: &Cache) -> MutexGuard<'_, State> {
    c.state.lock().unwrap_or_else(|poisoned| {
        let mut g = poisoned.into_inner();
        g.map.clear();
        g.order.clear();
        c.poison_recoveries.fetch_add(1, Ordering::Relaxed);
        asap_obs::counter_inc("cache.poison_recoveries");
        c.state.clear_poison();
        g
    })
}

fn count(counter: &AtomicU64, name: &str) {
    counter.fetch_add(1, Ordering::Relaxed);
    asap_obs::counter_inc(name);
}

/// The whole caching rule, with the compile step as a parameter so the
/// tests can make it slow, fail or panic. Returns the shared kernel and
/// whether this call found it compiled (or being compiled) by another.
fn lookup(
    key: Key,
    compile: impl FnOnce(&Key) -> Result<CompiledKernel, AsapError>,
) -> Result<(Arc<CompiledKernel>, bool), AsapError> {
    let span = asap_obs::span("cache.lookup");
    let c = &*CACHE;
    let cell = {
        let mut st = lock(c);
        match st.map.get(&key) {
            Some(cell) => cell.clone(),
            None => {
                while st.map.len() >= CACHE_CAPACITY {
                    let Some(old) = st.order.pop_front() else {
                        break;
                    };
                    st.map.remove(&old);
                    count(&c.evictions, "cache.evictions");
                }
                let cell = Cell::default();
                st.order.push_back(key.clone());
                st.map.insert(key.clone(), cell.clone());
                cell
            }
        }
    };
    let mut ran = false;
    let result = cell.get_or_init(|| {
        ran = true;
        compile(&key).map(Arc::new)
    });
    match result {
        Ok(ck) => {
            let tier2 = ck.tier2.is_some();
            if ran {
                count(&c.misses, "cache.misses");
                if tier2 {
                    count(&c.tier2_misses, "cache.tier2_misses");
                }
            } else {
                count(&c.hits, "cache.hits");
                if tier2 {
                    count(&c.tier2_hits, "cache.tier2_hits");
                }
            }
            span.attr("outcome", if ran { "miss" } else { "hit" });
            Ok((ck.clone(), !ran))
        }
        Err(e) => {
            let e = e.clone();
            let mut st = lock(c);
            let ours = st.map.get(&key).is_some_and(|h| Arc::ptr_eq(h, &cell));
            if ours {
                st.map.remove(&key);
                st.order.retain(|k| *k != key);
            }
            span.attr("outcome", "error");
            Err(e)
        }
    }
}

/// As [`compile_with_width`], memoized on the [`Key`]: the kernel, and
/// whether it came from the cache (`false` for the one caller that
/// compiled it).
pub(crate) fn compile_shared(key: Key) -> Result<(Arc<CompiledKernel>, bool), AsapError> {
    lookup(key, |(spec, format, width, strategy)| {
        compile_with_width(spec, format, *width, strategy)
    })
}

/// As [`compile_with_width`], memoized on `(spec, format, width,
/// strategy)`, returning an owned copy of the cached kernel. Compilation
/// errors are not cached (they are cheap to reproduce and keep their
/// context fresh).
pub fn compile_cached(
    spec: &KernelSpec,
    format: &Format,
    width: IndexWidth,
    strategy: &PrefetchStrategy,
) -> Result<CompiledKernel, AsapError> {
    compile_shared((spec.clone(), format.clone(), width, *strategy)).map(|(ck, _)| (*ck).clone())
}

/// Cache health counters since process start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Entries dropped by FIFO replacement at [`CACHE_CAPACITY`].
    pub evictions: u64,
    /// Times a poisoned lock was recovered by discarding the map (a
    /// crash-isolated worker panicked while holding it).
    pub poison_recoveries: u64,
    /// Subset of `hits`/`misses` whose kernel carries a tier-2 native
    /// specialization (lookups of VM-only kernels are the difference).
    pub tier2_hits: u64,
    pub tier2_misses: u64,
    /// Approximate resident bytes: Σ
    /// [`CompiledKernel::approx_bytes`](crate::pipeline::CompiledKernel::approx_bytes)
    /// over the compiled entries.
    pub bytes: u64,
}

/// The process-wide counters, with occupancy summed at the call.
pub fn cache_stats_full() -> CacheStats {
    let c = &*CACHE;
    let st = lock(c);
    let ready = st.map.values().filter_map(|cell| cell.get()?.as_ref().ok());
    let bytes = ready.map(|ck| ck.approx_bytes()).sum();
    let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
    CacheStats {
        hits: load(&c.hits),
        misses: load(&c.misses),
        evictions: load(&c.evictions),
        poison_recoveries: load(&c.poison_recoveries),
        tier2_hits: load(&c.tier2_hits),
        tier2_misses: load(&c.tier2_misses),
        bytes,
    }
}

/// Entries currently cached (compiled or being compiled).
pub fn cache_len() -> usize {
    lock(&CACHE).map.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_tensor::ValueKind;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::sync::{mpsc, Barrier};
    use std::time::Duration;

    /// The cache is process-global state; the poison test clears the
    /// map and the FIFO test fills it, so the tests in this module must
    /// not interleave.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// A CSR SpMV key under `strategy`; tests pick distances no other
    /// test uses, so their keys are cold in the process-global map.
    fn spmv_key(strategy: PrefetchStrategy) -> Key {
        (
            KernelSpec::spmv(ValueKind::F64),
            Format::csr(),
            IndexWidth::U32,
            strategy,
        )
    }

    fn real_compile((spec, format, width, strategy): &Key) -> Result<CompiledKernel, AsapError> {
        compile_with_width(spec, format, *width, strategy)
    }

    /// Run `f` on a thread and fail the test if it does not return
    /// within five seconds — a wedged key blocks forever.
    fn within_5s<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(Duration::from_secs(5))
            .expect("call on the key panicked or did not return within 5 s")
    }

    #[test]
    fn cache_hits_on_repeat_and_distinguishes_distances() {
        let _g = serial();
        let m0 = cache_stats_full().misses;
        let (a, hit) = compile_shared(spmv_key(PrefetchStrategy::asap(104_711))).unwrap();
        let s1 = cache_stats_full();
        assert!(!hit, "first compile misses");
        assert!(s1.misses > m0, "first compile counts a miss");
        let (b, hit) = compile_shared(spmv_key(PrefetchStrategy::asap(104_711))).unwrap();
        let s2 = cache_stats_full();
        assert!(hit, "second compile reports a hit");
        assert!(s2.hits > s1.hits, "second compile hits");
        assert_eq!(s2.misses, s1.misses, "second compile does not recompile");
        assert!(Arc::ptr_eq(&a, &b), "a hit shares the cached kernel");
        // A different distance is a different kernel: must not alias.
        let (c, hit) = compile_shared(spmv_key(PrefetchStrategy::asap(104_717))).unwrap();
        assert!(!hit, "distinct distance is a fresh compile");
        assert_eq!(c.prefetch_ops, a.prefetch_ops);
        assert!(
            cache_stats_full().misses > s2.misses,
            "distinct distance misses"
        );
    }

    type Outcome = Result<(Arc<CompiledKernel>, bool), AsapError>;

    /// Spin until `callers` callers hold `key`'s cell (the map holds
    /// one more reference). A caller holding the cell reads whatever
    /// the running initializer leaves in it, however late it gets there.
    fn await_callers_at_cell(key: &Key, callers: usize) {
        let held = || lock(&CACHE).map.get(key).map_or(0, Arc::strong_count);
        while held() < callers + 1 {
            std::thread::yield_now();
        }
    }

    /// Release 8 callers on `key` at once. Each initializer that runs
    /// waits until every caller holds the key's cell, so the others can
    /// only read its result, then returns `outcome`. Returns how many
    /// initializers ran and each caller's result.
    fn race8(
        key: &Key,
        outcome: fn(&Key) -> Result<CompiledKernel, AsapError>,
    ) -> (usize, Vec<Outcome>) {
        let runs = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(8));
        let callers: Vec<_> = (0..8)
            .map(|_| {
                let (key, runs, barrier) = (key.clone(), runs.clone(), barrier.clone());
                std::thread::spawn(move || {
                    barrier.wait();
                    lookup(key, |k| {
                        runs.fetch_add(1, Ordering::SeqCst);
                        await_callers_at_cell(k, 8);
                        outcome(k)
                    })
                })
            })
            .collect();
        let results = callers.into_iter().map(|c| c.join().unwrap()).collect();
        (runs.load(Ordering::SeqCst), results)
    }

    #[test]
    fn concurrent_cold_callers_compile_once() {
        let _g = serial();
        let (runs, results) = race8(&spmv_key(PrefetchStrategy::asap(104_723)), real_compile);
        assert_eq!(runs, 1, "one compile for 8 callers");
        let results: Vec<_> = results.into_iter().map(Result::unwrap).collect();
        let misses = results.iter().filter(|(_, hit)| !hit).count();
        assert_eq!(misses, 1, "exactly the initializer reports a miss");
        assert!(
            results.iter().all(|(ck, _)| Arc::ptr_eq(ck, &results[0].0)),
            "every caller shares the one kernel"
        );
    }

    #[test]
    fn concurrent_errors_are_coalesced_not_cached() {
        let _g = serial();
        let key = spmv_key(PrefetchStrategy::asap(104_729));
        let (runs, results) = race8(&key, |_| Err(AsapError::binding("injected")));
        assert_eq!(runs, 1, "the failure is coalesced");
        for r in results {
            assert_eq!(r.unwrap_err().kind(), "binding", "every caller gets it");
        }
        // Not cached: the next call on the key compiles again.
        let (_, hit) = lookup(key, real_compile).unwrap();
        assert!(!hit, "an error cell is dropped, so the next call compiles");
    }

    #[test]
    fn a_panicking_compile_does_not_wedge_its_key() {
        let _g = serial();
        let key = spmv_key(PrefetchStrategy::asap(104_743));
        let panicked = Arc::new(AtomicBool::new(false));
        // Two concurrent callers: whichever initializer runs first waits
        // until the other holds the cell, then panics; the other must
        // then compile the kernel itself.
        let callers: Vec<_> = (0..2)
            .map(|_| {
                let (key, panicked) = (key.clone(), panicked.clone());
                std::thread::spawn(move || {
                    std::panic::catch_unwind(AssertUnwindSafe(|| {
                        lookup(key, |k| {
                            if !panicked.swap(true, Ordering::SeqCst) {
                                await_callers_at_cell(k, 2);
                                panic!("compile dies mid-flight");
                            }
                            real_compile(k)
                        })
                    }))
                    .map(|r| r.unwrap().1)
                })
            })
            .collect();
        let outcomes = within_5s(move || {
            callers
                .into_iter()
                .map(|c| c.join().unwrap())
                .collect::<Vec<_>>()
        });
        assert_eq!(outcomes.iter().filter(|o| o.is_err()).count(), 1);
        assert_eq!(outcomes.iter().find_map(|o| o.as_ref().ok()), Some(&false));
        // And a later caller on that key is a plain hit.
        let (_, hit) = within_5s(move || lookup(key, real_compile).unwrap());
        assert!(hit);
    }

    #[test]
    fn fifo_eviction_caps_the_total() {
        let _g = serial();
        let before = cache_stats_full();
        // Distinct distances are distinct keys; two more than the
        // capacity forces at least two evictions.
        for d in 0..(CACHE_CAPACITY + 2) {
            compile_shared(spmv_key(PrefetchStrategy::asap(d))).unwrap();
        }
        let after = cache_stats_full();
        assert!(
            after.evictions >= before.evictions + 2,
            "filling past capacity evicts: {before:?} -> {after:?}"
        );
        let st = lock(&CACHE);
        assert!(st.map.len() <= CACHE_CAPACITY, "total stays bounded");
        assert_eq!(st.order.len(), st.map.len(), "order mirrors the map");
    }

    #[test]
    fn occupancy_and_tier_split_are_tracked() {
        let _g = serial();
        let before = cache_stats_full();
        // A fresh ASaP distance: a tier-2-specialized kernel.
        let (ck, hit) = compile_shared(spmv_key(PrefetchStrategy::asap(97))).unwrap();
        assert!(ck.tier2.is_some());
        let mid = cache_stats_full();
        if !hit {
            assert!(
                mid.tier2_misses > before.tier2_misses,
                "first specialized compile counts as a tier-2 miss"
            );
            assert!(
                mid.bytes >= before.bytes + ck.approx_bytes(),
                "occupancy grows by at least the inserted kernel: {} -> {}",
                before.bytes,
                mid.bytes
            );
        }
        assert!(
            mid.bytes >= ck.approx_bytes(),
            "occupancy counts the resident kernel: {}",
            mid.bytes
        );
        // Repeat: a tier-2 hit, no occupancy change.
        let (_, hit) = compile_shared(spmv_key(PrefetchStrategy::asap(97))).unwrap();
        assert!(hit);
        let after = cache_stats_full();
        assert!(after.tier2_hits > mid.tier2_hits);
        assert_eq!(after.bytes, mid.bytes, "a hit does not change occupancy");
        // A baseline kernel has no tier-2 plan: its lookups move the
        // aggregate counters but not the tier-2 split.
        let t2 = (after.tier2_hits, after.tier2_misses);
        let (base, _) = compile_shared(spmv_key(PrefetchStrategy::none())).unwrap();
        assert!(base.tier2.is_none());
        let fin = cache_stats_full();
        assert_eq!((fin.tier2_hits, fin.tier2_misses), t2);
    }

    #[test]
    fn errors_are_not_cached() {
        let _g = serial();
        let mut spec = KernelSpec::spmv(ValueKind::F64);
        spec.output.map = vec![1];
        for _ in 0..2 {
            let err = compile_cached(
                &spec,
                &Format::csr(),
                IndexWidth::U32,
                &PrefetchStrategy::none(),
            )
            .unwrap_err();
            assert_eq!(err.kind(), "spec");
        }
        assert!(
            !lock(&CACHE).map.keys().any(|k| k.0 == spec),
            "the failing key leaves no entry behind"
        );
    }

    #[test]
    fn poisoned_lock_recovers_by_clearing_the_map() {
        let _g = serial();
        // Seed an entry so there is something to lose.
        compile_shared(spmv_key(PrefetchStrategy::asap(19))).unwrap();
        let p0 = cache_stats_full().poison_recoveries;
        // Poison the lock: panic while holding its guard.
        let poisoner = std::thread::spawn(|| {
            let _guard = CACHE.state.lock().unwrap();
            panic!("worker dies holding the cache lock");
        });
        assert!(poisoner.join().is_err(), "the poisoner must panic");
        // The next lock recovers: the event counted, the map cleared,
        // and the lock healthy again.
        let after = cache_stats_full();
        assert!(
            after.poison_recoveries > p0,
            "recovery must be counted: {after:?}"
        );
        assert!(!CACHE.state.is_poisoned(), "the lock is healed");
        let (_, hit) = compile_shared(spmv_key(PrefetchStrategy::asap(19))).unwrap();
        assert!(!hit, "the cleared entry recompiles");
        // And a repeat is a plain hit on the recovered map.
        let h0 = cache_stats_full().hits;
        let (_, hit) = compile_shared(spmv_key(PrefetchStrategy::asap(19))).unwrap();
        assert!(hit);
        assert!(cache_stats_full().hits > h0);
    }
}
