//! `sim_sweep` and `sim_multicore`: figure cells on the simulator.
//!
//! An op is one figure cell — one `asap_bench::run::run_*` call, as the
//! `fig*` binaries make it. A pass runs every cell of the workload once,
//! in seeded order; passes are the segments of the measured phase.

use crate::procfs::ProcSample;
use crate::reference::SimCells;
use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats;
use asap_bench::{
    run_spmm, run_spmm_threads, run_spmv, run_spmv_threads, ExperimentResult, Variant,
    PAPER_DISTANCE, SPMM_COLS_F64,
};
use asap_core::{compile, compile_cached, service_x, CompiledKernel};
use asap_ir::{execute_budgeted, AsapError, Budget, NullModel, Program};
use asap_matrices::{synthetic_collection, MatrixSpec, Rng64, SizeClass, Triplets};
use asap_sim::{GracemontConfig, Machine, PrefetcherConfig};
use asap_sparsifier::{bind, read_back, BoundKernel, KernelSpec};
use asap_tensor::{DenseTensor, Format, SparseTensor, ValueKind};
use std::time::Instant;

const HW_NAME: &str = "hw-default";

/// How much of a sim workload one run executes.
pub struct SimPlan {
    pub multicore: bool,
    pub size: SizeClass,
    /// Measured passes of the end-to-end run.
    pub passes: usize,
    /// Untraced and traced passes of the traced run.
    pub plain_passes: usize,
    pub traced_passes: usize,
}

impl SimPlan {
    fn threads(&self) -> usize {
        if self.multicore {
            2
        } else {
            1
        }
    }

    fn size_label(&self) -> &'static str {
        match self.size {
            SizeClass::Tiny => "tiny",
            SizeClass::Small => "small",
            SizeClass::Full => "full",
        }
    }

    /// The workload's cells: SpMV on each matrix, then SpMM on road-a,
    /// each as baseline and ASaP. Structured `band-fem` is left out of
    /// the two-core workload, as Fig. 12 leaves structured matrices out.
    fn cells(&self) -> Vec<Cell> {
        let spmv: &[&'static str] = if self.multicore {
            &["GAP/kron19", "DIMACS10/road-a", "Gleich/rand-er-a"]
        } else {
            &[
                "GAP/kron19",
                "DIMACS10/road-a",
                "Gleich/rand-er-a",
                "Janna/band-fem",
            ]
        };
        let mut cells = Vec::new();
        for (spmm, matrices) in [(false, spmv), (true, &["DIMACS10/road-a"][..])] {
            for &matrix in matrices {
                for asap in [false, true] {
                    cells.push(Cell { matrix, spmm, asap });
                }
            }
        }
        cells
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Cell {
    matrix: &'static str,
    spmm: bool,
    asap: bool,
}

impl Cell {
    fn variant(&self) -> Variant {
        if self.asap {
            Variant::Asap {
                distance: PAPER_DISTANCE,
            }
        } else {
            Variant::Baseline
        }
    }

    fn kernel(&self) -> &'static str {
        if self.spmm {
            "spmm"
        } else {
            "spmv"
        }
    }

    fn spec(&self) -> KernelSpec {
        if self.spmm {
            KernelSpec::spmm(ValueKind::F64)
        } else {
            KernelSpec::spmv(ValueKind::F64)
        }
    }

    /// Key of this cell in `reference/sim_cells.json`.
    fn key(&self, plan: &SimPlan) -> String {
        format!(
            "{}/{}t/{}/{}/{}",
            plan.size_label(),
            plan.threads(),
            self.kernel(),
            self.matrix,
            self.variant().label()
        )
    }
}

type Inputs = Vec<(MatrixSpec, Triplets)>;

fn generate(plan: &SimPlan, size: SizeClass, mut tracer: Option<&mut Tracer>) -> Inputs {
    let mut names: Vec<&str> = Vec::new();
    for cell in plan.cells() {
        if !names.contains(&cell.matrix) {
            names.push(cell.matrix);
        }
    }
    let collection = synthetic_collection(size);
    names
        .iter()
        .filter_map(|n| collection.iter().find(|m| m.name == *n))
        .map(|m| {
            let tri = match tracer.as_deref_mut() {
                Some(t) => t.call("matrices.gen", || m.materialize()),
                None => m.materialize(),
            };
            (m.clone(), tri)
        })
        .collect()
}

fn matrix<'a>(inputs: &'a Inputs, cell: &Cell) -> Result<&'a (MatrixSpec, Triplets), AsapError> {
    inputs
        .iter()
        .find(|(m, _)| m.name == cell.matrix)
        .ok_or_else(|| AsapError::binding(format!("{} is not in the collection", cell.matrix)))
}

/// One figure cell through the entry point the figure binaries use.
fn run_cell(plan: &SimPlan, inputs: &Inputs, cell: &Cell) -> Result<ExperimentResult, AsapError> {
    let (m, tri) = matrix(inputs, cell)?;
    let cfg = GracemontConfig::scaled();
    let pf = PrefetcherConfig::hw_default();
    let (name, group, unstructured, variant) = (&m.name, &m.group, m.unstructured, cell.variant());
    match (plan.multicore, cell.spmm) {
        (false, false) => run_spmv(tri, name, group, unstructured, variant, pf, HW_NAME, cfg),
        (false, true) => run_spmm(
            tri,
            name,
            group,
            unstructured,
            SPMM_COLS_F64,
            variant,
            pf,
            HW_NAME,
            cfg,
        ),
        (true, false) => run_spmv_threads(
            tri,
            name,
            group,
            unstructured,
            variant,
            pf,
            HW_NAME,
            cfg,
            plan.threads(),
        ),
        (true, true) => run_spmm_threads(
            tri,
            name,
            group,
            unstructured,
            SPMM_COLS_F64,
            variant,
            pf,
            HW_NAME,
            cfg,
            plan.threads(),
        ),
    }
}

/// Input generation plus warm-up: every kernel × variant compiled (the
/// process-wide compile cache keys on kernel, format and index width,
/// not on the matrix) by running the workload's cells at `Tiny` size.
fn setup(plan: &SimPlan, tracer: Option<&mut Tracer>) -> Result<Inputs, String> {
    let inputs = generate(plan, plan.size, tracer);
    let tiny = generate(plan, SizeClass::Tiny, None);
    for cell in plan.cells() {
        run_cell(plan, &tiny, &cell).map_err(|e| format!("warm-up {}: {e}", cell.key(plan)))?;
    }
    Ok(inputs)
}

/// One cold set-up and how long it took.
fn timed_setup(plan: &SimPlan) -> Result<(Inputs, f64), String> {
    let t0 = Instant::now();
    let inputs = setup(plan, None)?;
    Ok((inputs, t0.elapsed().as_secs_f64()))
}

/// `--setup-only`: the set-up time of this (sibling) process, for the
/// run that started it to fold into its `setup_s`.
pub fn setup_seconds(plan: &SimPlan) -> Result<f64, String> {
    timed_setup(plan).map(|(_, s)| s)
}

fn shuffled(cells: &[Cell], seed: u64, pass: usize) -> Vec<Cell> {
    let mut order = cells.to_vec();
    let mut rng = Rng64::seed_from_u64(seed ^ (pass as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    for i in (1..order.len()).rev() {
        order.swap(i, rng.usize_below(i + 1));
    }
    order
}

/// What the simulator reported for the cells of one pass.
#[derive(Default)]
struct PassTally {
    cycles: u64,
    instructions: u64,
    /// (cell, cycles) for the ASaP-over-baseline speed-up.
    by_cell: Vec<(Cell, u64)>,
    max_drift: f64,
}

impl PassTally {
    fn add(&mut self, cell: &Cell, cycles: u64, instructions: u64, drift: f64) {
        self.cycles += cycles;
        self.instructions += instructions;
        self.by_cell.push((*cell, cycles));
        self.max_drift = self.max_drift.max(drift);
    }

    fn asap_speedup_geomean(&self) -> f64 {
        let ratios: Vec<f64> = self
            .by_cell
            .iter()
            .filter(|(c, _)| !c.asap)
            .filter_map(|(base, base_cycles)| {
                let twin = Cell {
                    asap: true,
                    ..*base
                };
                let (_, asap_cycles) = self.by_cell.iter().find(|(c, _)| *c == twin)?;
                Some(*base_cycles as f64 / *asap_cycles as f64)
            })
            .collect();
        stats::geomean(&ratios)
    }
}

/// Run one pass untraced; returns its wall seconds and per-cell ms.
fn plain_pass(
    plan: &SimPlan,
    inputs: &Inputs,
    refs: &SimCells,
    order: &[Cell],
    out: &mut Outcome,
    tally: &mut PassTally,
) -> (f64, Vec<f64>) {
    let mut lat = Vec::with_capacity(order.len());
    let t0 = Instant::now();
    for cell in order {
        let t = Instant::now();
        let result = run_cell(plan, inputs, cell);
        lat.push(t.elapsed().as_secs_f64() * 1e3);
        let key = cell.key(plan);
        out.check(match result {
            Ok(r) => refs
                .check(&key, plan.threads(), r.cycles, r.instructions)
                .map(|drift| tally.add(cell, r.cycles, r.instructions, drift)),
            Err(e) => Err(format!("{key}: {e}")),
        });
    }
    (t0.elapsed().as_secs_f64(), lat)
}

/// The end-to-end run: one set-up, then `plan.passes` passes.
/// `other_setups` are the set-up times of the sibling processes.
///
/// Neighbour load on a shared host only ever slows an op down, so each
/// cell is costed at its least-disturbed execution: its best time over
/// the passes. `ops_per_s` is the rate of a pass made of those, and
/// `lat_p50_ms` the median cell of it.
pub fn run(plan: &SimPlan, seed: u64, other_setups: &[f64]) -> Result<Outcome, String> {
    let refs = SimCells::load()?;
    let (inputs, setup_s) = timed_setup(plan)?;
    let cells = plan.cells();
    let mut out = Outcome::default();
    let mut rates = Vec::new();
    let mut best = vec![f64::INFINITY; cells.len()];
    for pass in 0..plan.passes {
        let order = shuffled(&cells, seed, pass);
        let mut tally = PassTally::default();
        let (wall, ms) = plain_pass(plan, &inputs, &refs, &order, &mut out, &mut tally);
        rates.push(cells.len() as f64 / wall);
        for (cell, ms) in order.iter().zip(ms) {
            let slot = cells.iter().position(|c| c == cell).unwrap_or(0);
            best[slot] = best[slot].min(ms);
        }
    }
    eprintln!("segment ops_per_s: {rates:.3?}");
    out.set(
        "ops_per_s",
        cells.len() as f64 / (best.iter().sum::<f64>() / 1e3),
    );
    out.set("lat_p50_ms", stats::median(&best));
    out.set("peak_rss_mb", crate::procfs::peak_rss_mb());
    out.set("setup_s", crate::best_setup(setup_s, other_setups));
    Ok(out)
}

fn close(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| (g - w).abs() <= 1e-9 * (1.0 + g.abs().max(w.abs())))
}

/// A cell's operands bound for execution, and what they were bound from.
struct BoundCell {
    sparse: SparseTensor,
    ck: CompiledKernel,
    dense: DenseTensor,
    out: DenseTensor,
    bound: BoundKernel,
}

fn program(ck: &CompiledKernel) -> Result<&Program, AsapError> {
    ck.program
        .as_ref()
        .ok_or_else(|| AsapError::binding("kernel has no lowered program"))
}

impl BoundCell {
    fn rebind(&mut self) -> Result<(), AsapError> {
        self.bound = bind(&self.ck.kernel, &self.sparse, &[&self.dense], &self.out)?;
        Ok(())
    }

    /// The program with the memory model switched off: a probe beside
    /// the op. run − vm_null is what the model costs.
    fn vm_null(&mut self, tr: &mut Tracer) -> Result<(), AsapError> {
        let program = program(&self.ck)?;
        let bound = &mut self.bound;
        tr.call("ir.vm_null", || {
            execute_budgeted(
                program,
                &bound.args,
                &mut bound.bufs,
                &mut NullModel,
                &Budget::unlimited(),
            )
        })?;
        Ok(())
    }
}

/// What `run_spmv` / `run_spmm` do before they execute, one public
/// function per span: CSR build, cached compile, operands, bind.
fn bind_cell(tr: &mut Tracer, tri: &Triplets, cell: &Cell) -> Result<BoundCell, AsapError> {
    let sparse = tr.call("tensor.from_coo", || {
        SparseTensor::try_from_coo(&tri.try_to_coo_f64()?, Format::csr())
    })?;
    let ck = tr.call("core.compile_hit", || {
        compile_cached(
            &cell.spec(),
            sparse.format(),
            sparse.index_width(),
            &cell.variant().strategy(),
        )
    })?;
    let (dense, out) = if cell.spmm {
        (
            // The dense operand `run_spmm` builds.
            DenseTensor::from_f64(
                vec![tri.ncols, SPMM_COLS_F64],
                (0..tri.ncols * SPMM_COLS_F64)
                    .map(|i| 0.5 + (i % 17) as f64 * 0.0625)
                    .collect(),
            ),
            DenseTensor::zeros(ValueKind::F64, vec![tri.nrows, SPMM_COLS_F64]),
        )
    } else {
        (
            DenseTensor::from_f64(vec![tri.ncols], service_x(tri.ncols)),
            DenseTensor::zeros(ValueKind::F64, vec![tri.nrows]),
        )
    };
    let bound = tr.call("sparsifier.bind", || {
        bind(&ck.kernel, &sparse, &[&dense], &out)
    })?;
    Ok(BoundCell {
        sparse,
        ck,
        dense,
        out,
        bound,
    })
}

/// One cell under spans; returns the simulated (cycles, instructions).
///
/// A single-core cell is `run_spmv` / `run_spmm` layer by layer. A
/// two-core cell cannot be taken apart from outside — the row
/// partitioning and the per-core bind are private to `asap_bench::run` —
/// so there `sim.run` spans the whole `run_*_threads` call, and the
/// single-core layers are probed on the whole matrix beside it.
fn traced_cell(
    tr: &mut Tracer,
    plan: &SimPlan,
    inputs: &Inputs,
    cell: &Cell,
) -> Result<(u64, u64), AsapError> {
    let (_, tri) = matrix(inputs, cell)?;
    let root = tr.begin("bench.cell");
    if plan.multicore {
        let result = tr.call("sim.run", || run_cell(plan, inputs, cell));
        tr.end(root);
        let result = result?;
        bind_cell(tr, tri, cell)?.vm_null(tr)?;
        return Ok((result.cycles, result.instructions));
    }
    let mut b = bind_cell(tr, tri, cell)?;
    let program = program(&b.ck)?;
    let bound = &mut b.bound;
    let machine = tr.call("sim.run", || {
        let mut machine = Machine::new(GracemontConfig::scaled(), PrefetcherConfig::hw_default());
        execute_budgeted(
            program,
            &bound.args,
            &mut bound.bufs,
            &mut machine,
            &Budget::unlimited(),
        )
        .map(|_| machine)
    })?;
    tr.call("sparsifier.read_back", || read_back(&mut b.out, &b.bound))?;
    let verified = tr.call("bench.verify", || {
        // Column 0 of the SpMM against the dense SpMV, as `run_spmm` does.
        let stride = if cell.spmm { SPMM_COLS_F64 } else { 1 };
        let column =
            |t: &DenseTensor| -> Vec<f64> { t.as_f64().iter().step_by(stride).copied().collect() };
        close(&column(&b.out), &tri.dense_spmv(&column(&b.dense)))
    });
    tr.end(root);
    if !verified {
        return Err(AsapError::mismatch(format!(
            "{}: output differs from the dense reference",
            cell.matrix
        )));
    }
    b.rebind()?;
    b.vm_null(tr)?;
    let counters = machine.counters();
    Ok((counters.cycles, counters.instructions))
}

/// Median across passes of the per-pass mean span time per cell, ms.
/// Cells differ by design, so a layer is costed per pass, not per call.
fn per_cell_ms(tr: &Tracer, name: &str, cells: usize) -> f64 {
    let means: Vec<f64> = tr.ms(name).chunks(cells).map(stats::mean).collect();
    stats::median(&means)
}

/// The traced run: set-up under spans, `plain_passes` passes through the
/// public entry points (the untraced reference), then `traced_passes`
/// passes layer by layer.
pub fn run_traced(plan: &SimPlan, seed: u64, tr: &mut Tracer) -> Result<Outcome, String> {
    let refs = SimCells::load()?;
    let cells = plan.cells();
    let n = cells.len();
    let mut out = Outcome::default();

    let inputs = setup(plan, Some(tr))?;
    let mut compiled = Vec::new();
    for cell in &cells {
        if !compiled.contains(&(cell.spmm, cell.asap)) {
            compiled.push((cell.spmm, cell.asap));
            tr.call("core.compile_cold", || {
                compile(&cell.spec(), &Format::csr(), &cell.variant().strategy())
            })
            .map_err(|e| format!("cold compile: {e}"))?;
        }
    }

    let before = ProcSample::now();
    let t0 = Instant::now();
    let mut plain_rates = Vec::new();
    let mut plain_ms = Vec::new();
    let mut tally = PassTally::default();
    for pass in 0..plan.plain_passes {
        tally = PassTally::default();
        let order = shuffled(&cells, seed, pass);
        let (wall, ms) = plain_pass(plan, &inputs, &refs, &order, &mut out, &mut tally);
        plain_rates.push(n as f64 / wall);
        plain_ms.push(stats::mean(&ms));
    }
    let plain_wall = t0.elapsed().as_secs_f64();
    let after = ProcSample::now();
    let plain_ops = (plan.plain_passes * n) as f64;

    let mut traced_rates = Vec::new();
    let (mut mcycles_per_s, mut minstr_per_s) = (Vec::new(), Vec::new());
    for pass in 0..plan.traced_passes {
        let (mut cycles, mut instructions) = (0u64, 0u64);
        for cell in shuffled(&cells, seed, plan.plain_passes + pass) {
            tr.next_op();
            let ran = traced_cell(tr, plan, &inputs, &cell);
            let key = cell.key(plan);
            out.check(match ran {
                Ok((c, i)) => refs.check(&key, plan.threads(), c, i).map(|_| {
                    cycles += c;
                    instructions += i;
                }),
                Err(e) => Err(format!("{key} (traced): {e}")),
            });
        }
        // Probes run beside the ops; the traced rate counts op spans only.
        let pass_ms = |name: &str| tr.ms(name).iter().rev().take(n).sum::<f64>();
        traced_rates.push(n as f64 / (pass_ms("bench.cell") / 1e3));
        let sim_ms = pass_ms("sim.run");
        mcycles_per_s.push(cycles as f64 / sim_ms / 1e3);
        minstr_per_s.push(instructions as f64 / sim_ms / 1e3);
    }

    let layer = |name: &str| per_cell_ms(tr, name, n);
    let run_ms = layer("sim.run");
    out.set("matrices.gen_ms", tr.ms("matrices.gen").iter().sum());
    out.set("tensor.from_coo_ms", layer("tensor.from_coo"));
    out.set(
        "core.compile_cold_ms",
        stats::mean(&tr.ms("core.compile_cold")),
    );
    out.set("core.compile_hit_us", tr.p50_ms("core.compile_hit") * 1e3);
    out.set("sparsifier.bind_ms", layer("sparsifier.bind"));
    out.set("ir.vm_null_ms", layer("ir.vm_null"));
    out.set("sim.run_ms", run_ms);
    out.set("sim.model_share", 1.0 - layer("ir.vm_null") / run_ms);
    out.set("sim.mcycles_per_s", stats::median(&mcycles_per_s));
    out.set("sim.minstr_per_s", stats::median(&minstr_per_s));
    out.set("bench.verify_ms", layer("bench.verify"));
    out.set(
        "sparsifier.read_back_us",
        layer("sparsifier.read_back") * 1e3,
    );
    out.set("sim.cycles_total", tally.cycles as f64);
    out.set("sim.instructions_total", tally.instructions as f64);
    out.set("sim.asap_speedup_geomean", tally.asap_speedup_geomean());
    out.set("sim.mt_cycles_drift", tally.max_drift);

    after.report_since(&before, plain_wall, plain_ops, &mut out);
    out.set("bench.segment_spread", stats::range_spread(&plain_rates));
    out.set(
        "bench.client_overhead_us",
        stats::median(&tr.self_ms("bench.cell")) * 1e3,
    );
    let plain_rate = stats::median(&plain_rates);
    out.set(
        "bench.trace_overhead",
        1.0 - stats::median(&traced_rates) / plain_rate,
    );
    // Σ layer time per cell against the untraced time per cell.
    let op_layers = [
        "tensor.from_coo",
        "core.compile_hit",
        "sparsifier.bind",
        "sim.run",
        "sparsifier.read_back",
        "bench.verify",
    ];
    let layer_sum: f64 = if plan.multicore {
        run_ms
    } else {
        op_layers.iter().map(|l| layer(l)).sum()
    };
    let plain_cell_ms = stats::median(&plain_ms);
    out.set(
        "bench.reconcile_gap",
        (layer_sum - plain_cell_ms).abs() / plain_cell_ms,
    );
    Ok(out)
}

/// `--regen-reference`: the cells of one sim workload at one size.
/// Two-core cycle counts drift run to run (how the host interleaves the
/// two simulator threads decides who reaches the shared uncore first),
/// so their reference is the median over `reps` passes in workload order.
pub fn reference_cells(
    multicore: bool,
    size: SizeClass,
    reps: usize,
    into: &mut SimCells,
) -> Result<(), String> {
    let plan = SimPlan {
        multicore,
        size,
        passes: 0,
        plain_passes: 0,
        traced_passes: 0,
    };
    let inputs = generate(&plan, size, None);
    let cells = plan.cells();
    let mut cycles = vec![Vec::new(); cells.len()];
    let mut instructions = vec![0; cells.len()];
    for _ in 0..if multicore { reps } else { 1 } {
        for (i, cell) in cells.iter().enumerate() {
            let r = run_cell(&plan, &inputs, cell).map_err(|e| e.to_string())?;
            cycles[i].push(r.cycles as f64);
            instructions[i] = r.instructions;
        }
    }
    for (i, cell) in cells.iter().enumerate() {
        into.cells.insert(
            cell.key(&plan),
            crate::reference::CellRef {
                cycles: stats::median(&cycles[i]).round() as u64,
                instructions: instructions[i],
            },
        );
    }
    Ok(())
}
