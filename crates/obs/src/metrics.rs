//! The metrics registry: named monotonic counters, last-value gauges and
//! log2-bucketed histograms.
//!
//! There is one process-global registry, keyed by rendered series name,
//! so far-apart layers (the compile cache in `asap-core`, the worker pool
//! in `asap-bench`, the serving daemon) report into one namespace without
//! plumbing a handle through every API. Names are dotted paths
//! (`cache.hits`, `pool.retries`, `vm.dispatch.<opcode>`); a series may
//! carry labels, which are part of its name
//! (`serve.stage_ns{stage="exec",tenant="t0"}`, built by
//! [`labeled_name`]), so the serving layer can fan one metric out per
//! tenant and per stage.
//!
//! Series handles are leaked `&'static` atomics that are never removed
//! ([`reset`] zeroes values in place), and every recording call finds its
//! handle in a per-thread cache: the registry mutex is taken only the
//! first time a thread sees a name, and steady-state recording is a hash
//! lookup plus relaxed atomic adds. Histograms are a fixed 65-bucket
//! array (one per bit position of a `u64`, plus a zero bucket), so
//! recording never allocates after the first observation of a name. Each
//! bucket also carries an **exemplar** slot — the last 128-bit trace id
//! recorded into it, written through a tiny seqlock — so a `/metrics`
//! scrape can link a tail bucket to one concrete request.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

/// Buckets 0..=64: bucket `b` holds observations `v` with
/// `64 - v.leading_zeros() == b`, i.e. bucket 0 is `v == 0`,
/// bucket 1 is `v == 1`, bucket 2 is `2..=3`, bucket 3 is `4..=7`, …
pub const HIST_BUCKETS: usize = 65;

/// Seqlock-protected 128-bit exemplar slot. Writers bump `seq` to odd,
/// store both halves, bump to even; readers retry until they observe a
/// stable even `seq`. Writers never block (a lost race just means the
/// other request's trace id wins — either is a valid exemplar).
#[derive(Default)]
struct ExemplarSlot {
    seq: AtomicU64,
    hi: AtomicU64,
    lo: AtomicU64,
}

impl ExemplarSlot {
    fn store(&self, id: u128) {
        let s = self.seq.load(Ordering::Relaxed);
        if s & 1 == 1 {
            return; // another writer mid-flight; drop ours
        }
        if self
            .seq
            .compare_exchange(s, s + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        self.hi.store((id >> 64) as u64, Ordering::Relaxed);
        self.lo.store(id as u64, Ordering::Relaxed);
        self.seq.store(s + 2, Ordering::Release);
    }

    fn load(&self) -> Option<u128> {
        for _ in 0..8 {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 == 0 {
                return None; // never written
            }
            if s1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let hi = self.hi.load(Ordering::Relaxed);
            let lo = self.lo.load(Ordering::Relaxed);
            if self.seq.load(Ordering::Acquire) == s1 {
                return Some(((hi as u128) << 64) | lo as u128);
            }
        }
        None // persistently torn; skip rather than publish garbage
    }

    /// Back to the never-written state observers see as absent.
    fn clear(&self) {
        self.hi.store(0, Ordering::Relaxed);
        self.lo.store(0, Ordering::Relaxed);
        self.seq.store(0, Ordering::Relaxed);
    }
}

/// A fixed-size log2 histogram whose buckets remember the last trace id
/// recorded into them. All fields are atomics, so recording through a
/// handle is lock-free.
pub(crate) struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    exemplars: [ExemplarSlot; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            exemplars: std::array::from_fn(|_| ExemplarSlot::default()),
        }
    }
}

impl Histogram {
    pub(crate) fn record(&self, v: u64, exemplar: Option<u128>) {
        let b = (64 - v.leading_zeros()) as usize;
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        if let Some(id) = exemplar {
            self.exemplars[b].store(id);
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let buckets: [u64; HIST_BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        let exemplars = (0..HIST_BUCKETS)
            .filter(|&b| buckets[b] > 0)
            .filter_map(|b| Some((b, self.exemplars[b].load()?)))
            .collect();
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            exemplars,
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        for e in &self.exemplars {
            e.clear();
        }
    }
}

/// Point-in-time copy of one histogram. `exemplars` holds
/// `(bucket_index, trace_id)` pairs for non-empty buckets that have one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: [u64; HIST_BUCKETS],
    pub count: u64,
    pub sum: u64,
    pub exemplars: Vec<(usize, u128)>,
}

impl HistogramSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Lower bound of the highest non-empty bucket (0 if empty).
    pub fn max_bucket_floor(&self) -> u64 {
        for b in (0..HIST_BUCKETS).rev() {
            if self.buckets[b] > 0 {
                return if b == 0 { 0 } else { 1u64 << (b - 1) };
            }
        }
        0
    }
}

/// Point-in-time copy of the whole registry, in name order (BTreeMap),
/// so two identical runs snapshot to equal values in equal order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    /// Last-value gauges (queue depth, in-flight requests): signed so a
    /// decrement below a racing increment can never wrap.
    pub gauges: Vec<(String, i64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

struct Registry {
    counters: BTreeMap<String, &'static AtomicU64>,
    gauges: BTreeMap<String, &'static AtomicI64>,
    histograms: BTreeMap<String, &'static Histogram>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    counters: BTreeMap::new(),
    gauges: BTreeMap::new(),
    histograms: BTreeMap::new(),
});

fn lock() -> std::sync::MutexGuard<'static, Registry> {
    REGISTRY.lock().unwrap_or_else(|p| p.into_inner())
}

/// The handles one thread has already looked up.
#[derive(Default)]
struct Handles {
    counters: HashMap<String, &'static AtomicU64>,
    gauges: HashMap<String, &'static AtomicI64>,
    histograms: HashMap<String, &'static Histogram>,
}

thread_local! {
    /// Without this cache every worker serializes on the registry mutex
    /// a dozen times per request, which alone blows the serving layer's
    /// telemetry-overhead budget (DESIGN.md §15);
    /// `seen_series_record_without_the_registry_mutex` pins that the
    /// steady state takes no lock.
    static HANDLES: RefCell<Handles> = RefCell::default();
}

/// The handle of series `name`: from this thread's cache, else from the
/// registry (registering the series on first use) under its mutex.
fn handle<T: Default>(
    name: &str,
    cached: fn(&mut Handles) -> &mut HashMap<String, &'static T>,
    registered: fn(&mut Registry) -> &mut BTreeMap<String, &'static T>,
) -> &'static T {
    HANDLES.with(|handles| {
        let mut handles = handles.borrow_mut();
        let cache = cached(&mut handles);
        if let Some(&h) = cache.get(name) {
            return h;
        }
        let h = *registered(&mut lock())
            .entry(name.to_string())
            .or_insert_with(|| Box::leak(Box::default()));
        cache.insert(name.to_string(), h);
        h
    })
}

pub(crate) fn counter_handle(name: &str) -> &'static AtomicU64 {
    handle(name, |h| &mut h.counters, |r| &mut r.counters)
}

fn gauge_handle(name: &str) -> &'static AtomicI64 {
    handle(name, |h| &mut h.gauges, |r| &mut r.gauges)
}

pub(crate) fn histogram_handle(name: &str) -> &'static Histogram {
    handle(name, |h| &mut h.histograms, |r| &mut r.histograms)
}

/// Format `name{k1="v1",k2="v2"}`. Callers must pass labels in a fixed
/// (alphabetical) key order so the same series always renders the same
/// name — the golden exposition test pins this.
pub fn labeled_name(name: &str, labels: &[(&str, &str)]) -> String {
    let mut out = String::with_capacity(name.len() + 16 * labels.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(v);
        out.push('"');
    }
    out.push('}');
    out
}

/// Add `n` to the monotonic counter `name` (registering it on first use).
pub fn counter_add(name: &str, n: u64) {
    counter_handle(name).fetch_add(n, Ordering::Relaxed);
}

/// Increment the monotonic counter `name` by one.
pub fn counter_inc(name: &str) {
    counter_add(name, 1);
}

/// Set counter `name` to `max(current, v)` — for gauges that mirror an
/// external monotonic source (e.g. the cache's own atomic stats).
pub fn counter_set_max(name: &str, v: u64) {
    counter_handle(name).fetch_max(v, Ordering::Relaxed);
}

/// Current value of the counter `name` (0 if never touched). For code
/// that gates on its own prior observations — e.g. a circuit breaker
/// checking how often it has tripped — without a full [`snapshot`].
pub fn counter_get(name: &str) -> u64 {
    counter_handle(name).load(Ordering::Relaxed)
}

/// Set the last-value gauge `name` to `v` (registering it on first use).
/// Gauges model instantaneous state — queue depth, in-flight requests —
/// where the *current* value, not an accumulation, is the signal.
pub fn gauge_set(name: &str, v: i64) {
    gauge_handle(name).store(v, Ordering::Relaxed);
}

/// Add `delta` to the gauge `name` (atomically; negative deltas allowed).
pub fn gauge_add(name: &str, delta: i64) {
    gauge_handle(name).fetch_add(delta, Ordering::Relaxed);
}

/// Subtract `delta` from the gauge `name`.
pub fn gauge_sub(name: &str, delta: i64) {
    gauge_handle(name).fetch_sub(delta, Ordering::Relaxed);
}

/// Current value of the gauge `name` (0 if never touched).
pub fn gauge_get(name: &str) -> i64 {
    gauge_handle(name).load(Ordering::Relaxed)
}

/// Record one observation into the log2 histogram `name`.
pub fn histogram_record(name: &str, v: u64) {
    histogram_handle(name).record(v, None);
}

/// [`histogram_record`], also stamping `exemplar` (a 128-bit trace id)
/// into the bucket the observation lands in.
pub fn histogram_record_exemplar(name: &str, v: u64, exemplar: u128) {
    histogram_handle(name).record(v, Some(exemplar));
}

/// Copy out every metric, in deterministic (name) order.
pub fn snapshot() -> MetricsSnapshot {
    let g = lock();
    MetricsSnapshot {
        counters: g
            .counters
            .iter()
            .map(|(n, c)| (n.clone(), c.load(Ordering::Relaxed)))
            .collect(),
        gauges: g
            .gauges
            .iter()
            .map(|(n, v)| (n.clone(), v.load(Ordering::Relaxed)))
            .collect(),
        histograms: g
            .histograms
            .iter()
            .map(|(n, h)| (n.clone(), h.snapshot()))
            .collect(),
    }
}

/// Zero every registered metric, exemplars included (names stay
/// registered; the leaked atomics are reused).
pub fn reset() {
    let g = lock();
    for c in g.counters.values() {
        c.store(0, Ordering::Relaxed);
    }
    for v in g.gauges.values() {
        v.store(0, Ordering::Relaxed);
    }
    for h in g.histograms.values() {
        h.reset();
    }
}

/// How many of the highest non-empty buckets render their exemplar.
/// Tail buckets are the ones a p99 investigation needs; capping the
/// rendered set keeps `/metrics` output bounded per series.
pub const EXEMPLAR_TAIL_BUCKETS: usize = 3;

/// Render a snapshot as a human-readable table — the `/metrics` page:
/// counters, then gauges, then histogram summaries. A labeled histogram
/// adds a sparse `buckets=[idx:count,…]` listing and an
/// `exemplars=[idx:trace_hex,…]` listing restricted to the top
/// [`EXEMPLAR_TAIL_BUCKETS`] non-empty buckets. Deterministic for
/// identical snapshots; the golden exposition test pins the format
/// byte-for-byte.
pub fn render(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, v) in &snap.counters {
        out.push_str(&format!("{name} = {v}\n"));
    }
    for (name, v) in &snap.gauges {
        out.push_str(&format!("{name} = {v} (gauge)\n"));
    }
    for (name, h) in &snap.histograms {
        out.push_str(&format!(
            "{name}: count={} sum={} mean={:.2}",
            h.count,
            h.sum,
            h.mean()
        ));
        if name.ends_with('}') {
            let nonempty: Vec<usize> = (0..HIST_BUCKETS).filter(|&b| h.buckets[b] > 0).collect();
            let tail = &nonempty[nonempty.len().saturating_sub(EXEMPLAR_TAIL_BUCKETS)..];
            let buckets: Vec<String> = nonempty
                .iter()
                .map(|&b| format!("{b}:{}", h.buckets[b]))
                .collect();
            let exemplars: Vec<String> = h
                .exemplars
                .iter()
                .filter(|(b, _)| tail.contains(b))
                .map(|(b, id)| format!("{b}:{id:032x}"))
                .collect();
            out.push_str(&format!(
                " buckets=[{}] exemplars=[{}]",
                buckets.join(","),
                exemplars.join(",")
            ));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    // The registry is process-global; each test uses its own names, so
    // they only need keeping apart from the one test of `reset`, which
    // zeroes every series in the process: it takes the gate exclusively,
    // tests that assert on recorded values take it shared.
    pub(crate) static RESET_GATE: std::sync::RwLock<()> = std::sync::RwLock::new(());

    pub(crate) fn values_stay() -> std::sync::RwLockReadGuard<'static, ()> {
        RESET_GATE.read().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn counters_accumulate_and_snapshot_in_name_order() {
        let _values = values_stay();
        counter_add("t.zeta", 2);
        counter_inc("t.alpha");
        counter_inc("t.zeta");
        let s = snapshot();
        assert_eq!(s.counter("t.zeta"), 3);
        assert_eq!(s.counter("t.alpha"), 1);
        assert_eq!(s.counter("t.absent"), 0);
        let names: Vec<_> = s.counters.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "snapshot is name-ordered");
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let _values = values_stay();
        histogram_record("t.h", 0);
        histogram_record("t.h", 1);
        histogram_record("t.h", 2);
        histogram_record("t.h", 3);
        histogram_record("t.h", 1024);
        let s = snapshot();
        let h = s.histogram("t.h").unwrap();
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1030);
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2..=3
        assert_eq!(h.buckets[11], 1); // 1024..=2047
        assert!((h.mean() - 206.0).abs() < 1e-9);
    }

    #[test]
    fn gauges_have_last_value_semantics() {
        let _values = values_stay();
        gauge_set("t.g", 10);
        gauge_set("t.g", 4);
        assert_eq!(gauge_get("t.g"), 4, "set overwrites, never accumulates");
        gauge_add("t.g", 3);
        gauge_sub("t.g", 9);
        assert_eq!(gauge_get("t.g"), -2, "signed arithmetic, no wrap");
        let s = snapshot();
        assert_eq!(s.gauge("t.g"), -2);
        assert_eq!(s.gauge("t.g.absent"), 0);
        let names: Vec<_> = s.gauges.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "gauge snapshot is name-ordered");
    }

    #[test]
    fn gauge_tracking_is_deterministic_across_identical_sequences() {
        let _values = values_stay();
        let run = || {
            gauge_set("t.g.det", 0);
            for depth in [1i64, 2, 3, 2, 1, 0] {
                gauge_set("t.g.det", depth);
            }
            snapshot().gauge("t.g.det")
        };
        assert_eq!(run(), run());
        // Balanced add/sub from many threads settles back to the start.
        gauge_set("t.g.mt", 0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        gauge_add("t.g.mt", 1);
                        gauge_sub("t.g.mt", 1);
                    }
                });
            }
        });
        assert_eq!(gauge_get("t.g.mt"), 0);
    }

    #[test]
    fn render_includes_gauges() {
        let _values = values_stay();
        gauge_set("t.g.render", 7);
        let text = render(&snapshot());
        assert!(text.contains("t.g.render = 7 (gauge)"), "{text}");
    }

    #[test]
    fn set_max_behaves_like_monotonic_mirror() {
        let _values = values_stay();
        counter_set_max("t.max", 10);
        counter_set_max("t.max", 4);
        assert_eq!(snapshot().counter("t.max"), 10);
    }

    #[test]
    fn render_is_deterministic() {
        let _values = values_stay();
        counter_add("t.render", 7);
        let a = render(&snapshot());
        let b = render(&snapshot());
        assert_eq!(a, b);
        assert!(a.contains("t.render = 7"));
    }

    #[test]
    fn labeled_name_is_built_in_caller_order() {
        assert_eq!(
            labeled_name("g.stage_ns", &[("stage", "exec"), ("tenant", "t0")]),
            "g.stage_ns{stage=\"exec\",tenant=\"t0\"}"
        );
        assert_eq!(labeled_name("g.plain", &[]), "g.plain{}");
    }

    #[test]
    fn labeled_counters_and_histograms_accumulate() {
        let _values = values_stay();
        counter_add("g.lc{tenant=\"a\"}", 2);
        counter_add("g.lc{tenant=\"a\"}", 3);
        histogram_record_exemplar("g.lh{tenant=\"a\"}", 100, 0xabc);
        histogram_record("g.lh{tenant=\"a\"}", 100);
        let s = snapshot();
        assert_eq!(s.counter("g.lc{tenant=\"a\"}"), 5);
        let h = s.histogram("g.lh{tenant=\"a\"}").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 200);
        assert_eq!(h.buckets[7], 2); // 64..=127
        assert_eq!(h.exemplars, vec![(7, 0xabc)]);
    }

    #[test]
    fn exemplar_slot_survives_concurrent_writes() {
        let slot = ExemplarSlot::default();
        std::thread::scope(|s| {
            for t in 0..4u128 {
                let slot = &slot;
                s.spawn(move || {
                    for i in 0..500u128 {
                        // Writer t always stores hi == lo == t*1000+i, so a
                        // torn read (one writer's hi paired with another's
                        // lo) shows up as mismatched halves.
                        let v = t * 1000 + i;
                        slot.store((v << 64) | v);
                        if let Some(got) = slot.load() {
                            assert_eq!(got >> 64, got & u64::MAX as u128, "torn exemplar read");
                        }
                    }
                });
            }
        });
        let fin = slot.load().expect("written at least once");
        assert_eq!(fin >> 64, fin & u64::MAX as u128);
    }

    /// Golden test for the labeled exposition format: names, label order,
    /// sparse bucket layout, and tail-bucket exemplars are pinned so
    /// scrapers and the A/B smokes don't silently break.
    #[test]
    fn labeled_render_golden() {
        let _values = values_stay();
        let name = labeled_name("g.golden_ns", &[("stage", "exec"), ("tenant", "gold")]);
        // Buckets: 1→b1, 2→b2, 5→b3, 70→b7, 1000→b10, 5000→b13.
        for v in [1u64, 2, 5, 70, 1000, 5000] {
            histogram_record_exemplar(&name, v, 0x00de_ad00_0000_0000_0000_0000_0000_beef);
        }
        counter_add("g.golden.over{tenant=\"gold\"}", 4);
        let s = snapshot();
        let text = render(&MetricsSnapshot {
            counters: s
                .counters
                .iter()
                .filter(|(n, _)| n.starts_with("g.golden"))
                .cloned()
                .collect(),
            gauges: Vec::new(),
            histograms: s
                .histograms
                .iter()
                .filter(|(n, _)| n.starts_with("g.golden"))
                .cloned()
                .collect(),
        });
        let want = concat!(
            "g.golden.over{tenant=\"gold\"} = 4\n",
            "g.golden_ns{stage=\"exec\",tenant=\"gold\"}: count=6 sum=6078 mean=1013.00 ",
            "buckets=[1:1,2:1,3:1,7:1,10:1,13:1] ",
            "exemplars=[7:00dead0000000000000000000000beef,",
            "10:00dead0000000000000000000000beef,",
            "13:00dead0000000000000000000000beef]\n",
        );
        assert_eq!(text, want);
    }

    #[test]
    fn labeled_reset_clears_values_and_exemplars() {
        let _alone = RESET_GATE.write().unwrap_or_else(|p| p.into_inner());
        counter_add("g.reset.c{}", 9);
        histogram_record_exemplar("g.reset.h{}", 42, 7);
        reset();
        let s = snapshot();
        assert_eq!(s.counter("g.reset.c{}"), 0);
        let h = s.histogram("g.reset.h{}").unwrap();
        assert_eq!(h.count, 0);
        assert!(h.exemplars.is_empty());
    }

    /// Steady-state recording is lock-free: a thread that has seen a
    /// series records into it while another thread holds the registry
    /// mutex. If a recording call ever takes that mutex again the probe
    /// blocks and the watchdog timeout fails the test instead of hanging
    /// the suite.
    #[test]
    fn seen_series_record_without_the_registry_mutex() {
        let _values = values_stay();
        let (seen_tx, seen_rx) = std::sync::mpsc::channel();
        let (held_tx, held_rx) = std::sync::mpsc::channel::<()>();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let record = || {
                counter_inc("t.lockfree.c");
                gauge_set("t.lockfree.g", 3);
                histogram_record("t.lockfree.h", 9);
            };
            record(); // first sight: registers under the mutex
            let _ = seen_tx.send(());
            if held_rx.recv().is_ok() {
                record();
                let _ = done_tx.send(counter_get("t.lockfree.c"));
            }
        });
        seen_rx.recv().expect("probe registered its series");
        let _registry_held = lock(); // the lock a regression would block on
        held_tx.send(()).expect("probe is waiting");
        match done_rx.recv_timeout(std::time::Duration::from_secs(5)) {
            Ok(count) => assert_eq!(count, 2),
            Err(_) => panic!("recording into a seen series blocked on the registry mutex"),
        }
    }
}
