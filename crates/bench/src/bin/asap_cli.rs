//! `asap_cli` — run SpMV/SpMM on any MatrixMarket file (or a named
//! generator) under any variant and prefetcher configuration, printing
//! the PMU-style counters. The "try it on your own matrix" entry point.
//!
//! ```sh
//! asap_cli --matrix path/to/matrix.mtx --kernel spmv --variant asap \
//!          --hw optimized --distance 45
//! asap_cli --gen rmat:16:8 --kernel spmm --variant aj
//! asap_cli --sweep path/to/dir --variant asap   # skip-and-report sweep
//! asap_cli profile --gen er:4096:8              # span tree + per-site table
//! asap_cli serve --addr 127.0.0.1:7070          # compile-and-execute daemon
//! ```

use asap_bench::{run_cell, sweep_spmv_dir, Cell, Variant, SPMM_COLS_F64};
use asap_core::{service_c, service_x, ServiceKernel, MAX_PREFETCH_DISTANCE};
use asap_ir::{Budget, ExecProfile, TraceModel};
use asap_matrices::{gen, read_matrix_market, Triplets};
use asap_obs::TeeModel;
use asap_sim::{GracemontConfig, Machine, PrefetcherConfig, Rates};
use asap_sparsifier::KernelSpec;
use asap_tensor::{DenseTensor, Format, SparseTensor, ValueKind};
use std::io::BufReader;
use std::path::PathBuf;

/// Cap on recorded trace events in profile mode: bounds memory on huge
/// matrices while keeping the effectiveness window representative.
const PROFILE_TRACE_EVENTS: usize = 2_000_000;

enum Input {
    Matrix(Triplets, String),
    Sweep(PathBuf),
}

struct Args {
    input: Input,
    kernel: String,
    variant: Variant,
    hw: (String, PrefetcherConfig),
    paper_caches: bool,
    fuel: Option<u64>,
    deadline_ms: Option<u64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: asap_cli (--matrix FILE.mtx | --gen KIND:ARGS | --sweep DIR) \
         [--kernel spmv|spmm] [--variant baseline|asap|aj] \
         [--distance N] [--hw default|optimized|off] [--paper-caches] \
         [--fuel N] [--deadline-ms N]\n\
         \x20      asap_cli profile (--matrix FILE.mtx | --gen KIND:ARGS) \
         [--kernel spmv|spmm] [--variant baseline|asap|aj] [--distance N] \
         [--hw default|optimized|off] [--trace-out PATH.jsonl]\n\
         \x20      asap_cli serve [--addr HOST:PORT] [--workers N] [--queue-bound N] \
         [--size tiny|small|full] [--deadline-ms N] [--crash-journal PATH.jsonl]\n\
         [--io-timeout-ms N] [--store-bytes N] [--tenant-store-bytes N] \
         [--tenant-rps F] [--tenant-burst F] [--tenant-queue-bound N] [--job-bound N] \
         [--exec-bytes N] [--tenant-weight NAME:W]... [--max-tenants N] \
         [--no-telemetry] [--slo-ms N] [--flight-ring N] [--flight-retain N] \
         [--access-log PATH.jsonl]\n\
         generators: rmat:SCALE:DEG  er:N:DEG  road:N  banded:N:BAND  powerlaw:N:DEG"
    );
    std::process::exit(2);
}

/// Parse a generator spec like `er:4096:8`. Malformed specs (missing or
/// non-numeric fields) print the usage instead of panicking on an index.
fn parse_gen(spec: &str) -> (String, Triplets) {
    let parts: Vec<&str> = spec.split(':').collect();
    let p = |i: usize| -> usize {
        parts
            .get(i)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| {
                eprintln!("generator spec {spec}: field {i} missing or not a number");
                usage()
            })
    };
    let tri = match parts.first().copied() {
        Some("rmat") => gen::rmat(p(1) as u32, p(2), 1),
        Some("er") => gen::erdos_renyi(p(1), p(2), 1),
        Some("road") => gen::road_network(p(1), 1),
        Some("banded") => gen::banded(p(1), p(2), 1),
        Some("powerlaw") => gen::power_law(p(1), p(2), 1.0, 1),
        _ => usage(),
    };
    let mut tri = tri;
    devalue_binary(&mut tri);
    (spec.to_string(), tri)
}

/// Give binary (pattern) matrices deterministic non-trivial f64 values.
fn devalue_binary(tri: &mut Triplets) {
    if tri.binary {
        for (i, v) in tri.vals.iter_mut().enumerate() {
            *v = 0.25 + (i % 7) as f64 * 0.1;
        }
        tri.binary = false;
    }
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let mut input = None;
    let mut kernel = "spmv".to_string();
    let mut variant_name = "asap".to_string();
    let mut distance = 45usize;
    let mut hw_name = "optimized".to_string();
    let mut paper_caches = false;
    let mut fuel = None;
    let mut deadline_ms = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--matrix" => {
                let path = args.next().unwrap_or_else(|| usage());
                let f = std::fs::File::open(&path).unwrap_or_else(|e| {
                    eprintln!("cannot open {path}: {e}");
                    std::process::exit(1);
                });
                let t = read_matrix_market(BufReader::new(f)).unwrap_or_else(|e| {
                    eprintln!("cannot parse {path}: {e}");
                    std::process::exit(1);
                });
                let mut t = t;
                devalue_binary(&mut t);
                input = Some(Input::Matrix(t, path));
            }
            "--gen" => {
                let spec = args.next().unwrap_or_else(|| usage());
                let (n, t) = parse_gen(&spec);
                input = Some(Input::Matrix(t, n));
            }
            "--sweep" => {
                let dir = args.next().unwrap_or_else(|| usage());
                input = Some(Input::Sweep(PathBuf::from(dir)));
            }
            "--kernel" => kernel = args.next().unwrap_or_else(|| usage()),
            "--variant" => variant_name = args.next().unwrap_or_else(|| usage()),
            "--distance" => {
                distance = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|d| *d <= MAX_PREFETCH_DISTANCE)
                    .unwrap_or_else(|| usage())
            }
            "--hw" => hw_name = args.next().unwrap_or_else(|| usage()),
            "--paper-caches" => paper_caches = true,
            "--fuel" => {
                fuel = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--deadline-ms" => {
                deadline_ms = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            _ => usage(),
        }
    }
    let input = input.unwrap_or_else(|| usage());
    let variant = match variant_name.as_str() {
        "baseline" => Variant::Baseline,
        "asap" => Variant::Asap { distance },
        "aj" => Variant::AinsworthJones { distance },
        _ => usage(),
    };
    let hw = match hw_name.as_str() {
        "default" => PrefetcherConfig::hw_default(),
        "optimized" => {
            if kernel == "spmm" {
                PrefetcherConfig::optimized_spmm()
            } else {
                PrefetcherConfig::optimized_spmv()
            }
        }
        "off" => PrefetcherConfig::all_off(),
        _ => usage(),
    };
    Args {
        input,
        kernel,
        variant,
        hw: (hw_name, hw),
        paper_caches,
        fuel,
        deadline_ms,
    }
}

/// `asap_cli profile`: run one matrix with the full observability stack
/// on — span recorder, metrics registry, trace-based prefetch
/// effectiveness, and the VM's per-opcode execution profile — and print
/// the lot. `--trace-out` additionally dumps the JSONL trace.
fn profile_main(args: Vec<String>) {
    // Enable the recorder before any instrumented work (matrix parse,
    // compile, execution) so the span tree covers every stage.
    asap_obs::reset_all();
    asap_obs::set_enabled(true);

    let mut input: Option<(Triplets, String)> = None;
    let mut kernel = "spmv".to_string();
    let mut variant_name = "asap".to_string();
    let mut distance = 45usize;
    let mut hw_name = "optimized".to_string();
    let mut paper_caches = false;
    let mut trace_out: Option<PathBuf> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--matrix" => {
                let path = it.next().unwrap_or_else(|| usage());
                let span = asap_obs::span_with("parse.matrix", || vec![("matrix", path.clone())]);
                let f = std::fs::File::open(&path).unwrap_or_else(|e| {
                    eprintln!("cannot open {path}: {e}");
                    std::process::exit(1);
                });
                let mut t = read_matrix_market(BufReader::new(f)).unwrap_or_else(|e| {
                    eprintln!("cannot parse {path}: {e}");
                    std::process::exit(1);
                });
                devalue_binary(&mut t);
                span.attr("nnz", t.nnz());
                input = Some((t, path));
            }
            "--gen" => {
                let spec = it.next().unwrap_or_else(|| usage());
                let span = asap_obs::span_with("parse.matrix", || vec![("matrix", spec.clone())]);
                let (n, t) = parse_gen(&spec);
                span.attr("nnz", t.nnz());
                input = Some((t, n));
            }
            "--kernel" => kernel = it.next().unwrap_or_else(|| usage()),
            "--variant" => variant_name = it.next().unwrap_or_else(|| usage()),
            "--distance" => {
                distance = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|d| *d <= MAX_PREFETCH_DISTANCE)
                    .unwrap_or_else(|| usage())
            }
            "--hw" => hw_name = it.next().unwrap_or_else(|| usage()),
            "--paper-caches" => paper_caches = true,
            "--trace-out" => trace_out = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            _ => usage(),
        }
    }
    let (tri, name) = input.unwrap_or_else(|| usage());
    let variant = match variant_name.as_str() {
        "baseline" => Variant::Baseline,
        "asap" => Variant::Asap { distance },
        "aj" => Variant::AinsworthJones { distance },
        _ => usage(),
    };
    let hw = match hw_name.as_str() {
        "default" => PrefetcherConfig::hw_default(),
        "optimized" if kernel == "spmm" => PrefetcherConfig::optimized_spmm(),
        "optimized" => PrefetcherConfig::optimized_spmv(),
        "off" => PrefetcherConfig::all_off(),
        _ => usage(),
    };
    let cfg = if paper_caches {
        GracemontConfig::paper()
    } else {
        GracemontConfig::scaled()
    };

    let die = |stage: &str, e: asap_ir::AsapError| -> ! {
        eprintln!("{stage} failed [{}]: {e}", e.kind());
        std::process::exit(1);
    };

    println!(
        "matrix {} : {}x{}, {} nnz",
        name,
        tri.nrows,
        tri.ncols,
        tri.nnz()
    );
    let coo = tri.try_to_coo_f64().unwrap_or_else(|e| die("convert", e));
    let sparse =
        SparseTensor::try_from_coo(&coo, Format::csr()).unwrap_or_else(|e| die("convert", e));
    let spec = match kernel.as_str() {
        "spmv" => KernelSpec::spmv(ValueKind::F64),
        "spmm" => KernelSpec::spmm(ValueKind::F64),
        _ => usage(),
    };
    let ck = asap_core::compile_cached(
        &spec,
        sparse.format(),
        sparse.index_width(),
        &variant.strategy(),
    )
    .unwrap_or_else(|e| die("compile", e));
    for w in &ck.warnings {
        eprintln!("warning: {w}");
    }

    // One execution feeds both views: the simulator's timing counters
    // and the trace the effectiveness analyzer joins against.
    let mut machine = Machine::new(cfg, hw);
    let mut trace = TraceModel::with_capacity_limit(PROFILE_TRACE_EVENTS);
    let x = service_x(tri.ncols);
    let dense_c = service_c(tri.ncols, SPMM_COLS_F64);
    {
        let mut tee = TeeModel::new(&mut machine, &mut trace);
        match kernel.as_str() {
            "spmv" => {
                asap_core::run_spmv_f64_with(&ck, &sparse, &x, &mut tee)
                    .map(|_| ())
                    .unwrap_or_else(|e| die("run", e));
            }
            _ => {
                asap_core::run_spmm_f64_with(&ck, &sparse, &dense_c, &mut tee)
                    .map(|_| ())
                    .unwrap_or_else(|e| die("run", e));
            }
        }
    }
    let counters = machine.counters();
    let eff = asap_obs::analyze_with_counters(&trace, &counters);
    let labels = asap_obs::site_labels(&ck.kernel);

    // Per-opcode VM profile: a second bytecode run (NullModel — the
    // timing view already exists) with the PROFILE monomorphization on.
    let mut vm_profile = ExecProfile::new();
    let mut profiled = false;
    if ck.program.is_some() {
        let mut null = asap_ir::NullModel;
        let outcome = match kernel.as_str() {
            "spmv" => {
                let cx = DenseTensor::from_f64(vec![tri.ncols], x.clone());
                let mut out = DenseTensor::zeros(ValueKind::F64, vec![tri.nrows]);
                asap_core::run_profiled(&ck, &sparse, &[&cx], &mut out, &mut null, &mut vm_profile)
            }
            _ => {
                let mut out = DenseTensor::zeros(ValueKind::F64, vec![tri.nrows, SPMM_COLS_F64]);
                asap_core::run_profiled(
                    &ck,
                    &sparse,
                    &[&dense_c],
                    &mut out,
                    &mut null,
                    &mut vm_profile,
                )
            }
        };
        match outcome {
            Ok(()) => profiled = true,
            Err(e) => eprintln!("vm profile skipped [{}]: {e}", e.kind()),
        }
    }

    asap_obs::set_enabled(false);
    let spans = asap_obs::snapshot_spans();

    println!("\n# span tree (wall-clock)");
    print!("{}", asap_obs::render_span_tree_timed(&spans));
    let metrics = asap_obs::metrics_snapshot();
    println!("\n# metrics");
    print!("{}", asap_obs::render_metrics(&metrics));
    if profiled {
        println!("\n# VM opcode profile (bytecode engine)");
        print!("{}", vm_profile.render());
    } else {
        println!("\n# VM opcode profile: kernel has no lowered program (tree-walk only)");
    }
    println!("\n# prefetch effectiveness (per injection site)");
    print!("{}", asap_obs::render_site_table(&eff, &labels));
    let rates = Rates::of(&counters).with_sw_pf_effectiveness(
        eff.total_useful(),
        eff.total_issued(),
        eff.covered_loads,
        eff.demand_loads,
    );
    println!("sw pf accuracy : {:.1}%", 100.0 * rates.sw_pf_accuracy);
    println!("sw pf coverage : {:.1}%", 100.0 * rates.sw_pf_coverage);
    println!(
        "cycles {} / instructions {} (IPC {:.2})",
        counters.cycles, counters.instructions, rates.ipc
    );

    if let Some(path) = trace_out {
        let manifest = asap_obs::RunManifest::new("asap_cli profile")
            .with("matrix", &name)
            .with("kernel", &kernel)
            .with("variant", variant.label())
            .with("hw", &hw_name)
            .with("distance", distance);
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match asap_obs::write_jsonl(&path, &manifest, &spans, &metrics, Some(&eff)) {
            Ok(()) => eprintln!("wrote trace {}", path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}

/// `asap_cli serve`: run the compile-and-execute daemon in the
/// foreground until a client POSTs `/control/shutdown`, then drain
/// queued requests and exit. All kernel/matrix/strategy choices are
/// per-request (see DESIGN.md §11); the flags here size the server.
fn serve_main(args: Vec<String>) {
    use asap_matrices::SizeClass;
    use asap_serve::{ServeConfig, Server};

    let mut cfg = ServeConfig {
        addr: "127.0.0.1:7070".to_string(),
        ..ServeConfig::default()
    };
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--addr" => cfg.addr = val(),
            "--workers" => cfg.workers = val().parse().unwrap_or_else(|_| usage()),
            "--queue-bound" => cfg.queue_bound = val().parse().unwrap_or_else(|_| usage()),
            "--deadline-ms" => cfg.default_deadline_ms = val().parse().unwrap_or_else(|_| usage()),
            "--crash-journal" => cfg.crash_journal = Some(std::path::PathBuf::from(val())),
            "--io-timeout-ms" => cfg.io_timeout_ms = val().parse().unwrap_or_else(|_| usage()),
            "--store-bytes" => cfg.store_bytes = val().parse().unwrap_or_else(|_| usage()),
            "--tenant-store-bytes" => {
                cfg.tenant_store_bytes = val().parse().unwrap_or_else(|_| usage())
            }
            "--tenant-rps" => cfg.tenant_rps = val().parse().unwrap_or_else(|_| usage()),
            "--tenant-burst" => cfg.tenant_burst = val().parse().unwrap_or_else(|_| usage()),
            "--tenant-queue-bound" => {
                cfg.tenant_queue_bound = val().parse().unwrap_or_else(|_| usage())
            }
            "--job-bound" => cfg.job_bound = val().parse().unwrap_or_else(|_| usage()),
            "--exec-bytes" => cfg.exec_bytes = val().parse().unwrap_or_else(|_| usage()),
            "--max-tenants" => cfg.max_tenants = val().parse().unwrap_or_else(|_| usage()),
            "--no-telemetry" => cfg.telemetry = false,
            "--slo-ms" => cfg.slo_ms = val().parse().unwrap_or_else(|_| usage()),
            "--flight-ring" => cfg.flight_ring = val().parse().unwrap_or_else(|_| usage()),
            "--flight-retain" => cfg.flight_retain = val().parse().unwrap_or_else(|_| usage()),
            "--access-log" => cfg.access_log = Some(std::path::PathBuf::from(val())),
            "--tenant-weight" => {
                // NAME:W — a scheduling weight for a known tenant; repeatable.
                let spec = val();
                let Some((name, w)) = spec.rsplit_once(':') else {
                    usage()
                };
                let w: u32 = w.parse().unwrap_or_else(|_| usage());
                cfg.tenant_weights.push((name.to_string(), w));
            }
            "--size" => {
                cfg.size = match val().as_str() {
                    "tiny" => SizeClass::Tiny,
                    "small" => SizeClass::Small,
                    "full" => SizeClass::Full,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if cfg.workers == 0 || cfg.queue_bound == 0 {
        usage();
    }
    let server = Server::start(cfg).unwrap_or_else(|e| {
        eprintln!("cannot start server: {e}");
        std::process::exit(1);
    });
    println!("asap-serve listening on {}", server.addr());
    println!(
        "POST /v1/run | GET /healthz | GET /metrics | GET /debug/requests | \
         GET /debug/trace/<id> | POST /control/shutdown"
    );
    server.run_until_drained();
    println!("drained; goodbye");
}

fn main() {
    {
        let mut args = std::env::args().skip(1).peekable();
        if args.peek().map(String::as_str) == Some("profile") {
            args.next();
            profile_main(args.collect());
            return;
        }
        if args.peek().map(String::as_str) == Some("serve") {
            args.next();
            serve_main(args.collect());
            return;
        }
    }
    let a = parse_args();
    let cfg = if a.paper_caches {
        GracemontConfig::paper()
    } else {
        GracemontConfig::scaled()
    };

    let (tri, name) = match a.input {
        Input::Sweep(dir) => {
            let report =
                sweep_spmv_dir(&dir, a.variant, a.hw.1, &a.hw.0, cfg).unwrap_or_else(|e| {
                    eprintln!("sweep failed: {e}");
                    std::process::exit(1);
                });
            print!("{}", report.summary());
            for r in &report.results {
                println!(
                    "{:<24} {:>12.0} nnz/ms  {:>8.2} MPKI{}",
                    r.matrix,
                    r.throughput,
                    r.l2_mpki,
                    if r.warnings.is_empty() {
                        String::new()
                    } else {
                        format!("  [{} warning(s)]", r.warnings.len())
                    }
                );
            }
            // A sweep that skipped matrices still exits 0: skipping is
            // the graceful-degradation contract, not a failure.
            return;
        }
        Input::Matrix(tri, name) => (tri, name),
    };

    println!(
        "matrix {} : {}x{}, {} nnz",
        name,
        tri.nrows,
        tri.ncols,
        tri.nnz()
    );
    let budget = {
        let mut b = Budget::unlimited();
        if let Some(f) = a.fuel {
            b = b.with_fuel(f);
        }
        if let Some(ms) = a.deadline_ms {
            b = b.with_deadline_ms(ms);
        }
        b
    };
    let kernel = match a.kernel.as_str() {
        "spmv" => ServiceKernel::Spmv,
        "spmm" => ServiceKernel::Spmm {
            cols: SPMM_COLS_F64,
        },
        _ => usage(),
    };
    let cell = Cell {
        tri: &tri,
        name: &name,
        group: "cli",
        unstructured: true,
        kernel,
        variant: a.variant,
        pf: a.hw.1,
        hw_name: &a.hw.0,
        cfg,
    };
    let outcome = run_cell(&cell, &budget);
    let r = match outcome {
        Ok(r) => r,
        // Governed termination is the budget working as designed: report
        // the typed trap and exit cleanly (distinct from a failed run).
        Err(e) if e.kind() == "budget" => {
            println!("budget exceeded: {e}");
            return;
        }
        Err(e) => {
            eprintln!("run failed [{}]: {e}", e.kind());
            std::process::exit(1);
        }
    };
    for w in &r.warnings {
        eprintln!("warning: {w}");
    }
    println!("kernel        : {}", r.kernel);
    println!("variant       : {}", r.variant);
    println!("hw prefetchers: {}", r.hw_config);
    println!("cycles        : {}", r.cycles);
    println!("instructions  : {}", r.instructions);
    println!("throughput    : {:.0} nnz/ms", r.throughput);
    println!("L2 MPKI       : {:.2}", r.l2_mpki);
    println!(
        "sw prefetches : {} issued, {} dropped",
        r.sw_pf_issued, r.sw_pf_dropped
    );
    println!("hw prefetches : {} issued", r.hw_pf_issued);
    println!("DRAM traffic  : {:.1} MB", r.dram_bytes as f64 / 1e6);
    println!(
        "stall cycles  : {} ({:.1}%)",
        r.stall_cycles,
        100.0 * r.stall_cycles as f64 / r.cycles as f64
    );
}
