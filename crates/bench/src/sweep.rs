//! The figure sweep: every single-core figure (6, 7, 8, 10, 11) is one
//! collection × one list of configurations pushed through [`run_cell`],
//! and differs from the others only in what it prints. [`sweep`] is that
//! grid — checkpoint journal, budget, machine, crash-isolated pool,
//! results JSON and trace — so a figure binary is its configuration
//! list, its table and its paper-reference lines.
//!
//! Failure policy, for every figure: a matrix whose cell panics (after
//! one retry) or returns a typed error is dropped from the table and
//! named in the skip report on stderr; the sweep carries on.

use crate::checkpoint::{cell_key, Checkpoint};
use crate::cli::{linear_fit, Options};
use crate::pool::{matrix_threads, parallel_map_isolated_labeled, skip_report, JobFailure};
use crate::run::{run_cell, Cell, ExperimentResult, Variant};
use asap_core::ServiceKernel;
use asap_ir::{AsapError, Budget};
use asap_matrices::{MatrixSpec, Triplets};
use asap_sim::{GracemontConfig, PrefetcherConfig};

/// One column of a sweep: the hardware-configuration label (the
/// results' `hw_config` and the journal key's fourth field), the
/// variant, and the prefetcher settings.
type Config = (&'static str, Variant, PrefetcherConfig);

/// Attempts per matrix before a panicking cell becomes a skip line.
const MAX_ATTEMPTS: usize = 2;

/// Run `cell` for every (matrix, configuration) through the journal on
/// crash-isolated pool workers, all configurations of one matrix on the
/// same worker. Returns one row per completed matrix in collection
/// order — `rows[i][c]` is configuration `c` — and the matrices skipped.
fn sweep_cells<F>(
    collection: Vec<MatrixSpec>,
    kernel: &str,
    configs: &[Config],
    ckpt: &Checkpoint,
    cell: F,
) -> (Vec<Vec<ExperimentResult>>, Vec<JobFailure>)
where
    F: Fn(&Triplets, &MatrixSpec, &Config) -> Result<ExperimentResult, AsapError> + Sync,
{
    let per_matrix = parallel_map_isolated_labeled(
        collection,
        matrix_threads(1),
        MAX_ATTEMPTS,
        |m, _| m.name.clone(),
        |index, m| {
            let tri = {
                let _s = asap_obs::span_with("parse.matrix", || vec![("matrix", m.name.clone())]);
                m.materialize()
            };
            configs
                .iter()
                .map(|config| {
                    let (hw_name, variant, _) = config;
                    let key = cell_key(&m.name, kernel, variant.label(), hw_name, 1);
                    ckpt.run_cell(&key, || cell(&tri, m, config))
                })
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| JobFailure {
                    index,
                    label: m.name.clone(),
                    message: e.to_string(),
                    attempts: 1,
                })
        },
    );
    let (mut rows, mut skipped) = (Vec::new(), Vec::new());
    for outcome in per_matrix {
        match outcome.and_then(|row| row) {
            Ok(row) => rows.push(row),
            Err(failure) => skipped.push(failure),
        }
    }
    (rows, skipped)
}

/// What a figure runs per (matrix, configuration): `kernel` on the
/// scaled machine under `budget`, labeled from the collection entry.
fn figure_cell(
    kernel: ServiceKernel,
    budget: &Budget,
) -> impl Fn(&Triplets, &MatrixSpec, &Config) -> Result<ExperimentResult, AsapError> + '_ {
    let cfg = GracemontConfig::scaled();
    move |tri, m, &(hw_name, variant, pf)| {
        let cell = Cell {
            tri,
            name: &m.name,
            group: &m.group,
            unstructured: m.unstructured,
            kernel,
            variant,
            pf,
            hw_name,
            cfg,
        };
        run_cell(&cell, budget)
    }
}

/// Run figure `fig`: `kernel` on every matrix of `collection` under
/// every configuration, on the scaled machine, governed by the budget
/// and journaled to the checkpoint `opts` describe. `table` prints the
/// figure from the completed rows — one per matrix in collection order,
/// `rows[i][c]` being configuration `c` — then the skip report goes to
/// stderr and the results and trace to the files `opts` name.
pub fn sweep(
    opts: &Options,
    fig: &str,
    collection: Vec<MatrixSpec>,
    kernel: ServiceKernel,
    configs: &[Config],
    table: impl FnOnce(&[Vec<ExperimentResult>]),
) -> Result<(), AsapError> {
    opts.init_trace();
    let ckpt = opts
        .checkpoint(fig)
        .map_err(|e| AsapError::io(e.to_string()))?;
    // Built once: fuel bounds each cell (one meter per run), the
    // deadline — an absolute instant — bounds the whole sweep.
    let budget = opts.budget();
    let cell = figure_cell(kernel, &budget);
    let (rows, skipped) = sweep_cells(collection, kernel.label(), configs, &ckpt, cell);
    table(&rows);
    eprint!("{}", skip_report(&skipped));
    opts.save(fig, &rows.concat())?;
    opts.finish_trace(fig)?;
    Ok(())
}

/// The table of Figures 6 and 8: per matrix, the speedup of
/// configuration 1 over configuration 0 against configuration 0's L2
/// MPKI, then the least-squares line through those points. Returns the
/// fit `(slope, intercept, r2)`, or `None` (and says so) when fewer than
/// two matrices completed.
pub fn print_mpki_table(title: &str, rows: &[Vec<ExperimentResult>]) -> Option<(f64, f64, f64)> {
    println!("{title}");
    println!(
        "{:<24} {:>10} {:>10} {:>8}",
        "matrix", "mpki", "speedup", "nnz(M)"
    );
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    for row in rows {
        let (base, asap) = (&row[0], &row[1]);
        let speedup = asap.throughput / base.throughput;
        println!(
            "{:<24} {:>10.2} {:>10.3} {:>8.2}",
            base.matrix,
            base.l2_mpki,
            speedup,
            base.nnz as f64 / 1e6
        );
        xs.push(base.l2_mpki);
        ys.push(speedup);
    }
    println!();
    if xs.len() < 2 {
        println!("too few matrices completed for a linear fit");
        return None;
    }
    let (slope, intercept, r2) = linear_fit(&xs, &ys);
    println!("linear fit: y = {slope:.4}x + {intercept:.3}  (R^2 = {r2:.3})");
    Some((slope, intercept, r2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_matrices::GenSpec;

    #[test]
    fn a_panicking_matrix_is_skipped_and_the_rest_keep_collection_order() {
        let collection: Vec<MatrixSpec> = ["g/first", "g/cursed", "g/last"]
            .iter()
            .enumerate()
            .map(|(i, name)| MatrixSpec {
                name: name.to_string(),
                group: "g".into(),
                unstructured: true,
                gen: GenSpec::ErdosRenyi {
                    n: 64,
                    deg: 4,
                    seed: i as u64,
                },
            })
            .collect();
        let configs = [
            ("off", Variant::Baseline, PrefetcherConfig::all_off()),
            (
                "off",
                Variant::Asap { distance: 4 },
                PrefetcherConfig::all_off(),
            ),
        ];
        let budget = Budget::unlimited();
        let cell = figure_cell(ServiceKernel::Spmv, &budget);
        let (rows, skipped) = sweep_cells(
            collection,
            "spmv",
            &configs,
            &Checkpoint::disabled(),
            |tri, m, config| {
                assert!(m.name != "g/cursed", "this shape tickles a bug");
                cell(tri, m, config)
            },
        );
        let shape: Vec<Vec<(&str, &str)>> = rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(|r| (r.matrix.as_str(), r.variant.as_str()))
                    .collect()
            })
            .collect();
        assert_eq!(
            shape,
            [
                [("g/first", "baseline"), ("g/first", "asap")],
                [("g/last", "baseline"), ("g/last", "asap")]
            ]
        );
        assert_eq!(skipped.len(), 1, "{skipped:?}");
        assert_eq!(skipped[0].label, "g/cursed");
        assert_eq!(skipped[0].index, 1);
        assert_eq!(skipped[0].attempts, MAX_ATTEMPTS);
        assert!(skipped[0].message.contains("tickles a bug"), "{skipped:?}");
    }

    #[test]
    fn a_typed_error_skips_the_matrix_after_one_attempt() {
        let collection = vec![MatrixSpec {
            name: "g/only".into(),
            group: "g".into(),
            unstructured: false,
            gen: GenSpec::ErdosRenyi {
                n: 16,
                deg: 2,
                seed: 1,
            },
        }];
        let configs = [("off", Variant::Baseline, PrefetcherConfig::all_off())];
        let (rows, skipped) = sweep_cells(
            collection,
            "spmv",
            &configs,
            &Checkpoint::disabled(),
            |_, _, _| Err(AsapError::io("disk on fire")),
        );
        assert!(rows.is_empty());
        assert_eq!(skipped.len(), 1);
        assert_eq!(
            (skipped[0].label.as_str(), skipped[0].attempts),
            ("g/only", 1)
        );
        assert!(skipped[0].message.contains("disk on fire"));
    }
}
