//! A dependency-free worker pool for matrix-level parallelism.
//!
//! Every figure sweep is embarrassingly parallel across matrices: each
//! (matrix, variant, prefetcher) cell simulates independently and only
//! the printed table needs the original order. [`parallel_map`] provides
//! exactly that — `std::thread::scope` workers claiming indices off an
//! atomic counter, writing results into their input's slot — with no
//! channels, no rayon, no allocation beyond the result vector.
//! [`parallel_map_isolated_labeled`] is the same map with each item
//! under `catch_unwind` and a retry; it is what [`crate::sweep()`] runs
//! every figure through, so a panicking matrix costs one table row.
//!
//! Composition with the simulator's own multi-core mode (Figure 12) is
//! the subtle part: `asap_sim::run_parallel` spawns one OS thread per
//! simulated core and spin-synchronizes their clocks. Nesting that inside
//! a matrix-level worker oversubscribes the host and deadlock-prone
//! spinners crawl. The pool therefore marks its workers with a
//! thread-local flag ([`in_worker`]); [`matrix_threads`] collapses to 1
//! whenever the per-matrix simulation itself is multi-threaded, and the
//! bench runner refuses the remaining misuse with a typed error.

use std::cell::Cell;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

thread_local! {
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// True on a [`parallel_map`] worker thread (including nested calls on
/// that thread). The bench runner uses this to reject simulated-core
/// parallelism from inside a matrix-level worker.
pub fn in_worker() -> bool {
    IN_WORKER.with(|f| f.get())
}

/// Matrix-level worker count: the `ASAP_BENCH_THREADS` environment
/// variable when set (clamped to at least 1), otherwise the machine's
/// available parallelism. `ASAP_BENCH_THREADS=1` forces serial sweeps.
pub fn auto_threads() -> usize {
    if let Ok(v) = std::env::var("ASAP_BENCH_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Thread budget for a matrix sweep whose per-matrix simulation spawns
/// `sim_threads` simulated cores. Multi-core simulations keep the sweep
/// serial (the cores already use the host's parallelism, and their clock
/// synchronization must not share cores with other work); single-core
/// simulations sweep with [`auto_threads`] workers.
pub fn matrix_threads(sim_threads: usize) -> usize {
    if sim_threads > 1 || in_worker() {
        1
    } else {
        auto_threads()
    }
}

/// Apply `f` to every item on up to `threads` worker threads, returning
/// the results in input order. `f` receives `(index, item)`. With one
/// thread (or zero/one items) everything runs on the calling thread and
/// no workers are marked.
///
/// A panicking `f` propagates the panic to the caller after the scope
/// joins — same behaviour as the serial loop it replaces.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let slots: Vec<Mutex<(Option<T>, Option<R>)>> = items
        .into_iter()
        .map(|t| Mutex::new((Some(t), None)))
        .collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads.min(n) {
            s.spawn(|| {
                IN_WORKER.with(|flag| flag.set(true));
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    // Each index is claimed exactly once, so the lock is
                    // uncontended; a poisoned slot means another worker
                    // panicked mid-item and the scope is unwinding anyway.
                    let item = match slots[i].lock() {
                        Ok(mut s) => s.0.take(),
                        Err(_) => None,
                    };
                    let Some(item) = item else { continue };
                    let r = f(i, item);
                    if let Ok(mut s) = slots[i].lock() {
                        s.1 = Some(r);
                    }
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|p| p.into_inner())
                .1
                .expect("worker pool completed every claimed item")
        })
        .collect()
}

/// A job that panicked on every attempt, converted to data instead of
/// unwinding through the sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Input-order index of the failed item.
    pub index: usize,
    /// Human-readable identity of the item (e.g. the matrix name) for
    /// skip reports.
    pub label: String,
    /// The final attempt's panic payload, rendered as a string.
    pub message: String,
    /// How many attempts were made: `max_attempts` for a panic, 1 for
    /// a typed error the sweep driver files here without retrying.
    pub attempts: usize,
}

impl fmt::Display for JobFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (index {}) panicked on all {} attempt(s): {}",
            self.label, self.index, self.attempts, self.message
        )
    }
}

impl std::error::Error for JobFailure {}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Capped exponential backoff before retry `attempt` (1-based): 10ms,
/// 20ms, 40ms, ... capped at 200ms. Transient failures (memory pressure,
/// poisoned process-global state healing) get breathing room; permanent
/// ones only cost a bounded delay.
fn backoff_delay(attempt: usize) -> Duration {
    let ms = 10u64.saturating_mul(1u64 << attempt.min(6).saturating_sub(1));
    Duration::from_millis(ms.min(200))
}

/// Crash-isolated [`parallel_map`]: each item's closure runs under
/// `catch_unwind`, so one poisoned matrix (or a bug its shape tickles)
/// yields an `Err(JobFailure)` in that item's slot instead of tearing
/// down the whole sweep. A panicking item is retried up to
/// `max_attempts` times with capped exponential backoff; items are
/// passed by reference so every attempt sees the same input.
///
/// `label` names each item (the matrix name in figure sweeps). The
/// label travels into any [`JobFailure`] and into the `pool.job` span,
/// so skip reports and traces name the work, not just its index.
/// Retries and terminal failures are counted in the `asap-obs` registry
/// (`pool.retries`, `pool.job_failures`).
///
/// Output order matches input order, exactly as in [`parallel_map`].
pub fn parallel_map_isolated_labeled<T, R, L, F>(
    items: Vec<T>,
    threads: usize,
    max_attempts: usize,
    label: L,
    f: F,
) -> Vec<Result<R, JobFailure>>
where
    T: Send + Sync,
    R: Send,
    L: Fn(&T, usize) -> String + Sync,
    F: Fn(usize, &T) -> R + Sync,
{
    let max_attempts = max_attempts.max(1);
    let run_one = |i: usize, item: &T| -> Result<R, JobFailure> {
        let span = asap_obs::span_with("pool.job", || vec![("label", label(item, i))]);
        let mut last = String::new();
        for attempt in 1..=max_attempts {
            if attempt > 1 {
                std::thread::sleep(backoff_delay(attempt - 1));
                asap_obs::counter_inc("pool.retries");
            }
            match catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                Ok(r) => {
                    if attempt > 1 {
                        span.attr("recovered_on_attempt", attempt);
                    }
                    return Ok(r);
                }
                Err(payload) => last = panic_message(&*payload),
            }
        }
        asap_obs::counter_inc("pool.job_failures");
        span.attr("failed_after", max_attempts);
        Err(JobFailure {
            index: i,
            label: label(item, i),
            message: last,
            attempts: max_attempts,
        })
    };
    let items_ref = &items;
    parallel_map((0..items.len()).collect(), threads, move |_, i| {
        run_one(i, &items_ref[i])
    })
}

/// Render the end-of-sweep skip report for failures collected by an
/// isolated sweep: one line per skipped item with its label and attempt
/// count. Empty string when nothing was skipped.
pub fn skip_report(failures: &[JobFailure]) -> String {
    if failures.is_empty() {
        return String::new();
    }
    let mut s = format!(
        "skipped {} item(s) after crash isolation:\n",
        failures.len()
    );
    for f in failures {
        s.push_str(&format!(
            "  {} — {} attempt(s), last panic: {}\n",
            f.label, f.attempts, f.message
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_across_threads() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map(items, 7, |i, x| {
            assert_eq!(i, x);
            x * 3
        });
        assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_path_matches_parallel() {
        let a = parallel_map((0..17).collect::<Vec<i64>>(), 1, |_, x| x * x);
        let b = parallel_map((0..17).collect::<Vec<i64>>(), 4, |_, x| x * x);
        assert_eq!(a, b);
    }

    #[test]
    fn workers_are_marked_and_caller_is_not() {
        assert!(!in_worker());
        let flags = parallel_map(vec![(); 8], 4, |_, ()| in_worker());
        assert!(flags.iter().all(|&w| w), "all items ran on marked workers");
        assert!(!in_worker(), "the calling thread stays unmarked");
    }

    #[test]
    fn matrix_threads_collapses_under_sim_parallelism() {
        assert_eq!(matrix_threads(4), 1);
        assert!(matrix_threads(1) >= 1);
        // Inside a worker, nested sweeps stay serial regardless.
        let nested = parallel_map(vec![(); 2], 2, |_, ()| matrix_threads(1));
        assert_eq!(nested, vec![1, 1]);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let none: Vec<u8> = parallel_map(Vec::<u8>::new(), 8, |_, x| x);
        assert!(none.is_empty());
        assert_eq!(parallel_map(vec![9], 8, |_, x| x + 1), vec![10]);
    }

    #[test]
    fn isolated_panic_becomes_a_typed_failure() {
        let out = parallel_map_isolated_labeled(
            (0..8).collect::<Vec<i32>>(),
            4,
            2,
            |_, i| format!("item {i}"),
            |_, &x| {
                if x == 3 {
                    panic!("item {x} is cursed");
                }
                x * 10
            },
        );
        assert_eq!(out.len(), 8);
        for (i, r) in out.iter().enumerate() {
            if i == 3 {
                let e = r.as_ref().unwrap_err();
                assert_eq!(e.index, 3);
                assert_eq!(e.attempts, 2);
                assert!(e.message.contains("cursed"), "{e}");
            } else {
                assert_eq!(*r.as_ref().unwrap(), i as i32 * 10, "order preserved");
            }
        }
    }

    #[test]
    fn labeled_failures_carry_label_and_attempts_into_the_report() {
        let out = parallel_map_isolated_labeled(
            vec!["good", "bad"],
            1,
            2,
            |item, _| format!("matrix:{item}"),
            |_, &item| {
                if item == "bad" {
                    panic!("shape tickles a bug");
                }
                item.len()
            },
        );
        assert_eq!(*out[0].as_ref().unwrap(), 4);
        let e = out[1].as_ref().unwrap_err();
        assert_eq!(e.label, "matrix:bad");
        assert_eq!(e.attempts, 2);
        assert!(e.to_string().contains("matrix:bad"), "{e}");
        let report = skip_report(std::slice::from_ref(e));
        assert!(report.contains("skipped 1 item(s)"), "{report}");
        assert!(report.contains("matrix:bad — 2 attempt(s)"), "{report}");
        assert!(report.contains("shape tickles a bug"), "{report}");
        assert_eq!(skip_report(&[]), "");
    }

    #[test]
    fn flaky_item_succeeds_on_retry() {
        let tries = AtomicUsize::new(0);
        let out = parallel_map_isolated_labeled(
            vec![()],
            1,
            3,
            |(), _| "flaky".to_string(),
            |_, ()| {
                if tries.fetch_add(1, Ordering::SeqCst) < 2 {
                    panic!("transient");
                }
                42
            },
        );
        assert_eq!(out, vec![Ok(42)]);
        assert_eq!(tries.load(Ordering::SeqCst), 3, "two failures then success");
    }

    #[test]
    fn backoff_is_capped() {
        assert_eq!(backoff_delay(1), Duration::from_millis(10));
        assert_eq!(backoff_delay(2), Duration::from_millis(20));
        assert!(backoff_delay(50) <= Duration::from_millis(200));
    }
}
