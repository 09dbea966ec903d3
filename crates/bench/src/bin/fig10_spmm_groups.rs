//! Figure 10: Equal-Work harmonic-mean Speedup (EWS) for SpMM across
//! matrix groups (single-threaded, 8 dense columns).
//!
//! Paper shape: ~1.28x for the unstructured aggregate ("Selected"),
//! ~1.02x for the rest; hardware-prefetcher configuration differences are
//! negligible for SpMM (which is why Figure 10 omits the "-default" bars).

use asap_bench::{ews_by_group, sweep, Options, Variant, PAPER_DISTANCE, SPMM_COLS_F64};
use asap_core::ServiceKernel;
use asap_matrices::spmm_collection;
use asap_sim::PrefetcherConfig;

fn main() {
    let opts = Options::from_args();
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
    let result = sweep(&opts, "fig10", collection, kernel, &configs, |rows| {
        println!("# Figure 10: SpMM EWS by group (ASaP vs baseline)");
        println!("{:<12} {:>9}", "group", "asap");
        for (group, ews) in ews_by_group(rows, &[(1, 0)]) {
            match ews.as_deref() {
                Some([x]) => println!("{group:<12} {x:>9.3}"),
                _ => println!("{group:<12} {:>9}", "-"),
            }
        }
        println!();
        println!("paper reference: Selected ~1.28, Others ~1.02");
    });
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
