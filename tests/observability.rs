//! Workspace-level observability contracts (DESIGN.md §10):
//!
//! - **Determinism** — two identical fixed-seed runs produce identical
//!   span trees (timestamps excluded by construction) and identical
//!   metrics snapshots. This is what makes traces diffable across CI
//!   runs and what the checkpoint/resume machinery relies on.
//! - **Analyzer goldens** — the prefetch-effectiveness analyzer is
//!   checked against a hand-built event stream with pen-and-paper
//!   expected values, then against a real SpMV run on a hand-built CSR.
//! - **Sink round-trip** — `render_jsonl` output passes
//!   `validate_jsonl`, with the manifest on line 1.
//!
//! The span recorder and metrics registry are process-global, so every
//! test that touches them — including any that merely compiles or
//! executes a kernel, which emits spans — serializes on `OBS_LOCK`.

use std::sync::Mutex;

use asap::core::{compile_with_width, run_spmv_f64, run_spmv_f64_with, PrefetchStrategy};
use asap::ir::{OpId, TraceEvent, TraceModel};
use asap::matrices::{gen, Triplets};
use asap::obs;
use asap::sparsifier::KernelSpec;
use asap::tensor::{Format, SparseTensor, ValueKind};

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// One fixed-seed compile + run with the recorder on; returns the
/// timestamp-free span tree and the metrics rendering.
fn traced_run() -> (String, String) {
    obs::reset_all();
    obs::set_enabled(true);
    let tri = gen::erdos_renyi(128, 4, 7);
    let fmt = Format::csr();
    let sparse = SparseTensor::from_coo(&tri.to_coo_f64(), fmt.clone());
    let spec = KernelSpec::spmv(ValueKind::F64);
    // Deliberately the uncached compile entry point: the process-global
    // compile cache would make run 1 (miss) and run 2 (hit) trace
    // differently, which is a *property of the cache*, not nondeterminism.
    let ck = compile_with_width(
        &spec,
        &fmt,
        sparse.index_width(),
        &PrefetchStrategy::asap(16),
    )
    .expect("compile");
    let x = vec![1.0f64; 128];
    let _y = run_spmv_f64(&ck, &sparse, &x).expect("run");
    obs::set_enabled(false);
    let spans = obs::take_spans();
    let tree = obs::render_span_tree(&spans);
    let metrics = obs::render_metrics(&obs::metrics_snapshot());
    (tree, metrics)
}

#[test]
fn identical_runs_trace_identically() {
    let _g = lock();
    let (tree_a, metrics_a) = traced_run();
    let (tree_b, metrics_b) = traced_run();
    assert!(
        tree_a.contains("compile"),
        "span tree must cover the compile pipeline:\n{tree_a}"
    );
    assert!(
        tree_a.contains("exec"),
        "span tree must cover execution:\n{tree_a}"
    );
    assert_eq!(tree_a, tree_b, "span trees differ between identical runs");
    assert_eq!(
        metrics_a, metrics_b,
        "metrics differ between identical runs"
    );
}

#[test]
fn span_tree_rendering_excludes_timestamps() {
    let _g = lock();
    obs::reset_all();
    obs::set_enabled(true);
    {
        let parent = obs::span("outer");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let _child = obs::span("inner");
        drop(parent);
    }
    obs::set_enabled(false);
    let spans = obs::take_spans();
    let tree = obs::render_span_tree(&spans);
    // The determinism contract: no duration or timestamp digits leak
    // into the comparable rendering (the timed variant exists for
    // humans).
    assert_eq!(tree, "outer\n  inner\n");
}

/// Hand-built event stream, pen-and-paper expectations.
///
/// Site 7 prefetches lines 0 and 1; line 0 is demanded 2 events after
/// its prefetch (useful, distance 2), line 1 never is. Site 9
/// prefetches line 2, demanded 1 event later. The un-prefetched load of
/// line 3 is uncovered. Covered demand loads: line 0 (covered, credits
/// site 7), line 2 (covered, credits site 9), line 0 again (covered,
/// already credited), line 3 (uncovered).
#[test]
fn analyzer_matches_hand_computed_golden() {
    let pc = |n| OpId(n);
    let load = |addr| TraceEvent::Load {
        pc: pc(99),
        addr,
        bytes: 8,
    };
    let pf = |site, addr| TraceEvent::Prefetch {
        pc: pc(site),
        addr,
        locality: 3,
        write: false,
    };
    let mut trace = TraceModel::new();
    trace.events = vec![
        pf(7, 0),     // t=0: site 7 prefetches line 0
        pf(7, 64),    // t=1: site 7 prefetches line 1 (never demanded)
        load(8),      // t=2: line 0 demanded -> site 7 useful, distance 2
        pf(9, 128),   // t=3: site 9 prefetches line 2
        load(130),    // t=4: line 2 demanded -> site 9 useful, distance 1
        load(16),     // t=5: line 0 again -> covered, already credited
        load(64 * 3), // t=6: line 3 -> uncovered demand
    ];
    let eff = obs::analyze(&trace);

    assert_eq!(eff.demand_loads, 4);
    assert_eq!(eff.covered_loads, 3);
    assert!((eff.coverage() - 0.75).abs() < 1e-12);
    assert_eq!(eff.total_issued(), 3);
    assert_eq!(eff.total_useful(), 2);
    assert!((eff.accuracy() - 2.0 / 3.0).abs() < 1e-12);

    assert_eq!(eff.sites.len(), 2, "sites: {:?}", eff.sites);
    let s7 = &eff.sites[0];
    assert_eq!((s7.site, s7.issued, s7.useful), (pc(7), 2, 1));
    assert_eq!(s7.distance_events_sum, 2);
    assert_eq!((s7.min_distance_events, s7.max_distance_events), (2, 2));
    assert!((s7.accuracy() - 0.5).abs() < 1e-12);
    let s9 = &eff.sites[1];
    assert_eq!((s9.site, s9.issued, s9.useful), (pc(9), 1, 1));
    assert_eq!(s9.distance_events_sum, 1);
    // Without counters, timeliness stays in events.
    assert_eq!(eff.cycles_per_event, 0.0);
}

/// End-to-end analyzer check on a hand-built CSR: a 4x4 matrix with a
/// known access pattern, traced through a real ASaP-prefetched SpMV.
#[test]
fn analyzer_on_hand_built_csr_is_deterministic_and_labeled() {
    // Compiles and runs: its spans would land in another test's
    // recorder window.
    let _g = lock();
    // row 0: cols 0,2; row 1: col 1; row 2: cols 0,3; row 3: col 3
    let mut tri = Triplets::new(4, 4);
    for &(r, c, v) in &[
        (0, 0, 1.0),
        (0, 2, 2.0),
        (1, 1, 3.0),
        (2, 0, 4.0),
        (2, 3, 5.0),
        (3, 3, 6.0),
    ] {
        tri.push(r, c, v);
    }
    let fmt = Format::csr();
    let sparse = SparseTensor::from_coo(&tri.to_coo_f64(), fmt.clone());
    let spec = KernelSpec::spmv(ValueKind::F64);
    let ck = compile_with_width(
        &spec,
        &fmt,
        sparse.index_width(),
        &PrefetchStrategy::asap(2),
    )
    .expect("compile");
    let x = vec![1.0, 2.0, 3.0, 4.0];

    let run = || {
        let mut trace = TraceModel::new();
        let y = run_spmv_f64_with(&ck, &sparse, &x, &mut trace).expect("run");
        (y, obs::analyze(&trace), trace.events.len())
    };
    let (y, eff, n_events) = run();
    let (y2, eff2, n2) = run();

    // Functional result is right...
    let expect = tri.dense_spmv(&x);
    for (a, b) in y.iter().zip(&expect) {
        assert!((a - b).abs() < 1e-9, "{y:?} vs {expect:?}");
    }
    // ...the trace and analysis are run-to-run deterministic...
    assert_eq!(y, y2);
    assert_eq!(n_events, n2);
    assert_eq!(eff, eff2, "effectiveness differs between identical runs");
    // ...and internally consistent.
    assert!(eff.demand_loads > 0);
    assert!(eff.covered_loads <= eff.demand_loads);
    assert!(!eff.sites.is_empty(), "ASaP must inject prefetch sites");
    for s in &eff.sites {
        assert!(s.useful <= s.issued, "site {:?}", s.site);
    }
    assert!(eff.sites.windows(2).all(|w| w[0].site.0 < w[1].site.0));
    // Every analyzed site maps back to a named kernel construct.
    let labels = obs::site_labels(&ck.kernel);
    for s in &eff.sites {
        let label = labels.get(&s.site);
        assert!(label.is_some(), "unlabeled site {:?}", s.site);
        assert_ne!(label.unwrap(), "local");
    }
}

#[test]
fn jsonl_sink_roundtrips_through_its_own_validator() {
    let _g = lock();
    obs::reset_all();
    obs::set_enabled(true);
    {
        let span = obs::span_with("work", || vec![("kind", "test".to_string())]);
        span.attr("items", 3);
        obs::counter_inc("test.counter");
        obs::histogram_record("test.hist", 1000);
    }
    obs::set_enabled(false);
    let spans = obs::take_spans();
    let metrics = obs::metrics_snapshot();
    let manifest = obs::RunManifest::new("observability-test").with("seed", 7);
    let text = obs::render_jsonl(&manifest, &spans, &metrics, None);
    let lines = obs::validate_jsonl(&text).expect("sink output must validate");
    // Manifest line + at least one span line + metric lines.
    assert!(lines >= 3, "unexpectedly small JSONL ({lines} lines)");
    let first = text.lines().next().expect("non-empty");
    assert!(
        first.contains("\"manifest\"") || first.contains("\"tool\""),
        "manifest must be the first line: {first}"
    );
}
