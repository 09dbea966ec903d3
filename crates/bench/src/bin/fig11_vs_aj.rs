//! Figure 11: SpMV EWS across matrix groups comparing ASaP against the
//! Ainsworth & Jones low-level pass, each with default and optimized
//! hardware-prefetcher settings, all relative to the same baseline.
//!
//! Paper shape: ASaP ~1.38x over A&J on the Selected (unstructured)
//! aggregate — short inner loops are where the loop-bound clamp loses
//! coverage; the optimized prefetcher configuration helps A&J only
//! marginally (~1.02x).

use asap_bench::{ews_by_group, sweep, Options, Variant, PAPER_DISTANCE};
use asap_core::ServiceKernel;
use asap_matrices::synthetic_collection;
use asap_sim::PrefetcherConfig;

fn main() {
    let opts = Options::from_args();
    let asap = Variant::Asap {
        distance: PAPER_DISTANCE,
    };
    let aj = Variant::AinsworthJones {
        distance: PAPER_DISTANCE,
    };
    let (optimized, default) = (
        PrefetcherConfig::optimized_spmv(),
        PrefetcherConfig::hw_default(),
    );
    let configs = [
        ("baseline", Variant::Baseline, optimized),
        ("asap", asap, optimized),
        ("asap-default", asap, default),
        ("aj", aj, optimized),
        ("aj-default", aj, default),
    ];
    let collection = synthetic_collection(opts.size);
    let result = sweep(
        &opts,
        "fig11",
        collection,
        ServiceKernel::Spmv,
        &configs,
        |rows| {
            println!(
                "# Figure 11: SpMV EWS by group, ASaP vs Ainsworth&Jones (relative to baseline)"
            );
            println!(
                "{:<12} {:>8} {:>13} {:>8} {:>11} {:>9}",
                "group", "asap", "asap-default", "aj", "aj-default", "asap/aj"
            );
            // Configurations 1-4 over the baseline, then asap over aj.
            let ratios = [(1, 0), (2, 0), (3, 0), (4, 0), (1, 3)];
            for (group, ews) in ews_by_group(rows, &ratios) {
                match ews.as_deref() {
                    Some([a, ad, j, jd, a_j]) => {
                        println!("{group:<12} {a:>8.3} {ad:>13.3} {j:>8.3} {jd:>11.3} {a_j:>9.3}")
                    }
                    _ => println!("{group:<12} {:>8}", "-"),
                }
            }
            println!();
            println!("paper reference: Selected asap/aj ~1.38; optimized helps aj only ~1.02x");
        },
    );
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
