//! Figure 7: Equal-Work harmonic-mean Speedup (EWS) for SpMV across
//! matrix groups, single-threaded, with "-default" (out-of-box hardware
//! prefetchers) and optimized (L1 NLP and L2 AMP disabled) configurations.
//!
//! Paper shape: ASaP ~1.42x on the Selected (unstructured) aggregate with
//! optimized prefetchers, consistently above ASaP-default; the baseline
//! is roughly insensitive to the configuration; "Others" regresses (~0.8x).

use asap_bench::{ews_by_group, sweep, Options, Variant, PAPER_DISTANCE};
use asap_core::ServiceKernel;
use asap_matrices::synthetic_collection;
use asap_sim::PrefetcherConfig;

fn main() {
    let opts = Options::from_args();
    let asap = Variant::Asap {
        distance: PAPER_DISTANCE,
    };
    let (optimized, default) = (
        PrefetcherConfig::optimized_spmv(),
        PrefetcherConfig::hw_default(),
    );
    let configs = [
        ("baseline", Variant::Baseline, optimized),
        ("baseline-default", Variant::Baseline, default),
        ("asap", asap, optimized),
        ("asap-default", asap, default),
    ];
    let collection = synthetic_collection(opts.size);
    let result = sweep(
        &opts,
        "fig7",
        collection,
        ServiceKernel::Spmv,
        &configs,
        |rows| {
            println!(
                "# Figure 7: SpMV EWS by group (relative to baseline w/ optimized prefetchers)"
            );
            println!(
                "{:<12} {:>9} {:>17} {:>9} {:>13}",
                "group", "baseline", "baseline-default", "asap", "asap-default"
            );
            // Every configuration over configuration 0.
            for (group, ews) in ews_by_group(rows, &[(0, 0), (1, 0), (2, 0), (3, 0)]) {
                let col = |c: usize| match &ews {
                    Some(ews) => format!("{:.3}", ews[c]),
                    None => "-".to_string(),
                };
                println!(
                    "{:<12} {:>9} {:>17} {:>9} {:>13}",
                    group,
                    col(0),
                    col(1),
                    col(2),
                    col(3)
                );
            }
            println!();
            println!("paper reference: Selected asap ~1.42, Others asap ~0.8, asap > asap-default");
        },
    );
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
