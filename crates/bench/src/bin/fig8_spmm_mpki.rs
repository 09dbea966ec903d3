//! Figure 8: SpMM speedup (ASaP vs baseline) versus baseline L2 MPKI,
//! single-threaded, 8 dense f64 columns (one cache line per row of C).
//!
//! Paper shape: linear relationship with a much steeper slope than SpMV's
//! (outer-loop prefetching amortizes the instruction overhead), with the
//! regression line starting near 1.0.

use asap_bench::{print_mpki_table, sweep, Options, Variant, PAPER_DISTANCE, SPMM_COLS_F64};
use asap_core::ServiceKernel;
use asap_matrices::spmm_collection;
use asap_sim::PrefetcherConfig;

fn main() {
    let opts = Options::from_args();
    // Table 2: the L2 AMP stays on for SpMM (2D-stride friendly).
    let pf = PrefetcherConfig::optimized_spmm();
    let asap = Variant::Asap {
        distance: PAPER_DISTANCE,
    };
    let configs = [
        ("optimized", Variant::Baseline, pf),
        ("optimized", asap, pf),
    ];
    let kernel = ServiceKernel::Spmm {
        cols: SPMM_COLS_F64,
    };
    let collection = spmm_collection(opts.size);
    let result = sweep(&opts, "fig8", collection, kernel, &configs, |rows| {
        let title = "# Figure 8: SpMM speedup (ASaP/baseline) vs baseline L2 MPKI";
        if print_mpki_table(title, rows).is_some() {
            println!("paper reference: y = 0.706x + 0.995 (R^2 = 0.776); slope >> SpMV's");
        }
    });
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
