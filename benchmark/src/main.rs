//! The repo benchmark. See `benchmark/README.md`.
//!
//! `benchmark --workload W --seed N --seconds S --trace 0|1` runs one
//! workload in this process and prints its metrics, the result object
//! last. Without `--workload` every workload runs in a process of its
//! own, one after the other.

mod procfs;
mod reference;
mod report;
mod serve;
mod sim;
mod spans;
mod stats;

use asap_matrices::SizeClass;
use asap_obs::{parse_json, Json};
use report::{bound_of, END_TO_END, PER_LAYER};
use serve::{ServeKind, ServePlan};
use sim::SimPlan;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// `--seconds` at which the op counts below are used as written; other
/// values scale them in proportion. Op counts are fixed per run — a
/// phase never stops on a clock — so a run measures for about
/// `--seconds` on the sizing box and for as long as it takes elsewhere.
const NOMINAL_SECONDS: f64 = 15.0;
const DEFAULT_SEED: u64 = 13;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "sim_sweep",
        why: "figure cells (Figs. 6-8) on one thread: simulator + bytecode VM ~60% of a cell, the COO-to-CSR build ~37%, asap-serve none",
    },
    WorkloadDef {
        name: "sim_multicore",
        why: "the same simulator through ClockSync threads and a shared Uncore (Fig. 12): two simulated cores",
    },
    WorkloadDef {
        name: "serve_small",
        why: "/v1/run on a 2K-nnz resident: kernel and bind <1% of the op, so accept poll, connection, HTTP, JSON and lane hops are the cost",
    },
    WorkloadDef {
        name: "serve_resident",
        why: "/v1/run on a 1M-nnz resident: bind + tier-2 kernel + checksum ~80% of the op, transport ~20%",
    },
    WorkloadDef {
        name: "serve_upload",
        why: "inline 485 KB MatrixMarket bodies, every 4th never seen: body read, JSON, digest, parse, admit and LRU eviction beside store hits",
    },
];

enum Plan {
    Sim(SimPlan),
    Serve(ServePlan),
}

/// Scale a nominal count, never below `floor`.
fn scaled(nominal: usize, scale: f64, floor: usize) -> usize {
    ((nominal as f64 * scale).round() as usize).max(floor)
}

/// The op counts of one workload. Sizes are the sizing-box numbers of
/// the README's workload table.
fn plan(workload: &str, seconds: f64, quick: bool) -> Option<Plan> {
    let scale = seconds / NOMINAL_SECONDS;
    let sim = |multicore| {
        Plan::Sim(if quick {
            SimPlan {
                multicore,
                size: SizeClass::Tiny,
                passes: 2,
                plain_passes: 1,
                traced_passes: 1,
            }
        } else {
            SimPlan {
                multicore,
                size: SizeClass::Small,
                passes: scaled(5, scale, 1),
                plain_passes: scaled(2, scale, 1),
                traced_passes: scaled(2, scale, 1),
            }
        })
    };
    // Segment op counts stay multiples of the fresh-upload block and of
    // the client count. The end-to-end run cuts its ops into many short
    // segments (the least-disturbed one speaks for the run); the traced
    // run keeps segments of >= 200 ops, which a p95 needs.
    let serve = |kind, clients, warmup: usize, ops: usize, traced_ops: usize, replay: usize| {
        let block = |n: usize| (n / 4).max(1) * 4;
        Plan::Serve(if quick {
            ServePlan {
                kind,
                clients,
                warmup: 8,
                segments: 2,
                ops_per_segment: block(ops / 5),
                plain_segments: 1,
                traced_segments: 1,
                traced_ops_per_segment: block(ops / 5),
                replay_ops: 12,
            }
        } else {
            ServePlan {
                kind,
                clients,
                warmup: scaled(warmup, scale, 8),
                segments: 14,
                ops_per_segment: block(scaled(ops, scale, 8)),
                plain_segments: 2,
                traced_segments: 2,
                traced_ops_per_segment: block(scaled(traced_ops, scale, 8)),
                replay_ops: block(scaled(replay, scale, 8)),
            }
        })
    };
    Some(match workload {
        "sim_sweep" => sim(false),
        "sim_multicore" => sim(true),
        "serve_small" => serve(ServeKind::Small, 2, 1000, 1000, 2000, 400),
        "serve_resident" => serve(ServeKind::Resident, 1, 100, 200, 400, 200),
        "serve_upload" => serve(ServeKind::Upload, 1, 50, 152, 300, 200),
        _ => return None,
    })
}

/// Cold set-ups per run: this process's own and, before it, one in
/// each of `SETUPS - 1` short-lived sibling processes (`--setup-only`).
/// A second set-up in the same process would find the compile cache warm
/// and leave its allocations behind in `peak_rss_mb`.
const SETUPS: usize = 3;

/// `setup_s` of a run: the least-disturbed of its cold set-ups.
pub fn best_setup(own: f64, others: &[f64]) -> f64 {
    others.iter().copied().fold(own, f64::min)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    aa: bool,
    runs: usize,
    regen: bool,
    setup_only: bool,
}

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                 [--quick] [--aa [--runs N]] [--regen-reference]";

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: NOMINAL_SECONDS,
        trace: false,
        quick: false,
        aa: false,
        runs: 1,
        regen: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: String| format!("{flag}: cannot read {v:?}");
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => a.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--runs" => a.runs = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v.to_string())),
                }
            }
            "--quick" => a.quick = true,
            "--aa" => a.aa = true,
            "--regen-reference" => a.regen = true,
            "--setup-only" => a.setup_only = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 60.0) || a.runs == 0 {
        return Err("--seconds must be in (0, 60] and --runs at least 1".into());
    }
    Ok(a)
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One workload, in this process.
fn run_workload(args: &Args, workload: &str) -> Result<String, String> {
    let plan = plan(workload, args.seconds, args.quick)
        .ok_or_else(|| format!("unknown workload {workload:?}"))?;
    if args.setup_only {
        let setup_s = match &plan {
            Plan::Sim(p) => sim::setup_seconds(p)?,
            Plan::Serve(p) => serve::setup_seconds(p, args.seed)?,
        };
        return Ok(format!("{setup_s}\n"));
    }
    if !args.trace {
        // `--quick` checks correctness and schema, not set-up time.
        let siblings = if args.quick { 0 } else { SETUPS - 1 };
        let others: Vec<f64> = (0..siblings)
            .map(|_| sibling_setup(args, workload))
            .collect::<Result<_, _>>()?;
        let out = match &plan {
            Plan::Sim(p) => sim::run(p, args.seed, &others)?,
            Plan::Serve(p) => serve::run(p, args.seed, &others)?,
        };
        return report::render(workload, END_TO_END, &out);
    }
    let mut tracer = spans::Tracer::new();
    let out = match &plan {
        Plan::Sim(p) => sim::run_traced(p, args.seed, &mut tracer),
        Plan::Serve(p) => serve::run_traced(p, args.seed, &mut tracer),
    };
    // The spans are written even when the run failed: they say where.
    let path = out_dir().join(format!("trace-{workload}.jsonl"));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    report::render(workload, PER_LAYER, &out?)
}

/// This binary again, on one workload, as a child process. Its stderr
/// is inherited; `output` waits until it has ended.
fn child(args: &Args, workload: &str, seed: u64, extra: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(extra);
    if args.quick {
        cmd.arg("--quick");
    }
    let child = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !child.status.success() {
        return Err(format!("{workload}: child exited with {}", child.status));
    }
    Ok(String::from_utf8_lossy(&child.stdout).into_owned())
}

/// One cold set-up of `workload` in a process of its own, in seconds.
fn sibling_setup(args: &Args, workload: &str) -> Result<f64, String> {
    let text = child(args, workload, args.seed, &["--setup-only"])?;
    text.trim()
        .parse()
        .map_err(|_| format!("{workload}: set-up child printed {text:?}"))
}

/// One workload in a child process; returns its parsed result object.
fn spawn_workload(args: &Args, workload: &str, seed: u64) -> Result<Json, String> {
    let trace = if args.trace { "1" } else { "0" };
    let text = child(args, workload, seed, &["--trace", trace])?;
    let (table, last) = text
        .trim_end()
        .rsplit_once('\n')
        .ok_or_else(|| format!("{workload}: no result"))?;
    println!("{table}");
    parse_json(last).map_err(|e| format!("{workload}: result line: {e}"))
}

fn metric(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn failed_ops(result: &Json) -> u64 {
    result.get("failed").and_then(Json::as_u64).unwrap_or(1)
}

/// Every workload once, each in its own process.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut clean = true;
    for w in WORKLOADS {
        println!("# {}: {}", w.name, w.why);
        let result = spawn_workload(args, w.name, args.seed)?;
        clean &= failed_ops(&result) == 0;
    }
    Ok(clean)
}

/// `--aa`: the full set twice, back to back, the same code both times.
/// With `--runs N` each set runs every workload N times on seeds
/// `seed..seed+N`; the table gives each set's median, its interquartile
/// spread as the driver computes it, and the gap between the medians.
fn run_aa(args: &Args) -> Result<bool, String> {
    let mut sets: Vec<Vec<Vec<Json>>> = Vec::new();
    for _ in 0..2 {
        let mut set = Vec::new();
        for w in WORKLOADS {
            let runs: Result<Vec<Json>, String> = (0..args.runs as u64)
                .map(|i| spawn_workload(args, w.name, args.seed + i))
                .collect();
            set.push(runs?);
        }
        sets.push(set);
    }
    let mut pass = true;
    println!(
        "\n# A/A: two sets of {} run(s) per workload, same code, seeds {}..{}\n",
        args.runs,
        args.seed,
        args.seed + args.runs as u64 - 1
    );
    println!(
        "| workload | metric | median A | median B | gap | spread A | spread B | bound | verdict |"
    );
    println!("|---|---|---:|---:|---:|---:|---:|---:|---|");
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for d in END_TO_END {
            let values = |set: &Vec<Vec<Json>>| -> Vec<f64> {
                set[wi].iter().filter_map(|r| metric(r, d.name)).collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            let (ma, mb) = (stats::median(&a), stats::median(&b));
            let gap = (mb - ma).abs() / ma;
            let (sa, sb) = (stats::quartile_spread(&a), stats::quartile_spread(&b));
            let bound = bound_of(d.name);
            // The driver's rule: medians agree within the bound, and
            // every spread but set-up's stays within it too.
            let ok = gap <= bound && (d.name == "setup_s" || (sa <= bound && sb <= bound));
            pass &= ok;
            println!(
                "| {} | {} ({}) | {:.4} | {:.4} | {:.2}% | {:.2}% | {:.2}% | {:.0}% | {} |",
                w.name,
                d.name,
                d.unit,
                ma,
                mb,
                gap * 100.0,
                sa * 100.0,
                sb * 100.0,
                bound * 100.0,
                if ok { "PASS" } else { "FAIL" }
            );
        }
    }
    let failed: u64 = sets.iter().flatten().flatten().map(failed_ops).sum();
    pass &= failed == 0;
    println!("\nA/A {}", if pass { "PASS" } else { "FAIL" });
    Ok(pass)
}

/// `--regen-reference`: rewrite `benchmark/reference/`.
fn regen_reference() -> Result<(), String> {
    // Sizing saw two-core cells land up to 7% from their median
    // (`Gleich/rand-er-a` baseline); instruction counts stay exact.
    let mut cells = reference::SimCells {
        mt_cycle_tolerance: 0.15,
        cells: Default::default(),
    };
    for size in [SizeClass::Tiny, SizeClass::Small] {
        for multicore in [false, true] {
            sim::reference_cells(multicore, size, 9, &mut cells)?;
        }
    }
    reference::write("sim_cells.json", &cells.render())?;
    reference::write("checksums.json", &serve::reference_checksums()?.render())?;
    println!(
        "wrote {} cells and the serve checksums to {}",
        cells.cells.len(),
        reference::dir().display()
    );
    Ok(())
}

fn real_main() -> Result<bool, String> {
    let args = parse_args().map_err(|e| format!("{e}\n{USAGE}"))?;
    if args.regen {
        return regen_reference().map(|()| true);
    }
    if args.aa {
        return run_aa(&args);
    }
    match &args.workload {
        Some(w) => {
            // A failed op is a result (`correct: false`), not an error.
            print!("{}", run_workload(&args, w)?);
            Ok(true)
        }
        None => run_all(&args),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        // Harness errors — no ports, no reference, bad arguments — end
        // the run without a result object.
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
