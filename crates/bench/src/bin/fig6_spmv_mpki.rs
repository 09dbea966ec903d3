//! Figure 6: SpMV speedup (ASaP vs baseline) versus baseline L2 MPKI,
//! single-threaded, over the footprint-selected collection.
//!
//! Paper shape to reproduce: slowdown (<1) at low MPKI from instruction
//! overhead, speedup growing with MPKI, break-even at a small MPKI, and
//! >2x speedups for the most memory-bound matrices.

use asap_bench::{print_mpki_table, sweep, Options, Variant, PAPER_DISTANCE};
use asap_core::ServiceKernel;
use asap_matrices::synthetic_collection;
use asap_sim::PrefetcherConfig;

fn main() {
    let opts = Options::from_args();
    let pf = PrefetcherConfig::optimized_spmv();
    let asap = Variant::Asap {
        distance: PAPER_DISTANCE,
    };
    let configs = [
        ("optimized", Variant::Baseline, pf),
        ("optimized", asap, pf),
    ];
    let collection = synthetic_collection(opts.size);
    let result = sweep(
        &opts,
        "fig6",
        collection,
        ServiceKernel::Spmv,
        &configs,
        |rows| {
            let title = "# Figure 6: SpMV speedup (ASaP/baseline) vs baseline L2 MPKI";
            if let Some((slope, intercept, _)) = print_mpki_table(title, rows) {
                println!("break-even MPKI: {:.2}", (1.0 - intercept) / slope);
                println!("paper reference: break-even ~4 MPKI, y(0) ~0.9, y(50) > 2");
            }
        },
    );
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
