//! The ASaP prefetch-injection hook: the paper's three-step generation
//! scheme (Section 3.2, Figure 5), fired *during* sparsification at every
//! iterate-and-locate site.
//!
//! The critical distinction from prior art is Step 2's bound: ASaP bounds
//! the look-ahead coordinate load by the **total coordinate-buffer size**
//! (computed at runtime via the `crd_buf_sz` recursion over position
//! buffers), not by the enclosing loop's upper limit. Prefetching thus
//! stays live across segment boundaries: during the last `distance`
//! iterations of segment `ii-1` it covers the first `distance` elements
//! of segment `ii` — the S·distance extra prefetches of Section 3.2.2.

use asap_ir::{CmpPred, FuncBuilder};
use asap_sparsifier::{LocateCtx, LocateHook, Stride};

/// Configuration of the ASaP scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AsapConfig {
    /// Prefetch look-ahead, in iterations of the locate loop. The paper's
    /// evaluation fixes 45 (Section 4.3); it is profile-tunable.
    pub distance: usize,
    /// Locality hint carried by every emitted `memref.prefetch`
    /// (the paper uses `locality<2>`).
    pub locality: u8,
    /// Step 1: also prefetch the coordinate stream itself at
    /// `2*distance`. The paper found omitting this consistently degrades
    /// performance (Section 3.2.1); exposed for the ablation benchmark.
    pub prefetch_crd_stream: bool,
}

impl AsapConfig {
    /// The paper's evaluation configuration: distance 45, locality 2,
    /// Step 1 enabled.
    pub fn paper() -> AsapConfig {
        AsapConfig {
            distance: 45,
            locality: 2,
            prefetch_crd_stream: true,
        }
    }

    pub fn with_distance(distance: usize) -> AsapConfig {
        AsapConfig {
            distance,
            ..AsapConfig::paper()
        }
    }
}

impl Default for AsapConfig {
    fn default() -> Self {
        AsapConfig::paper()
    }
}

/// Record of one injection site, for diagnostics and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectionSite {
    /// Storage level whose locate loop was instrumented.
    pub level: usize,
    /// Number of dense targets prefetched (Step 3 repetitions).
    pub targets: usize,
}

/// The [`LocateHook`] implementation injecting the three-step sequence.
#[derive(Debug, Default)]
pub struct AsapHook {
    pub config: AsapConfig,
    /// Sites instrumented so far.
    pub sites: Vec<InjectionSite>,
}

impl AsapHook {
    pub fn new(config: AsapConfig) -> AsapHook {
        AsapHook {
            config,
            sites: Vec::new(),
        }
    }
}

impl LocateHook for AsapHook {
    fn on_locate(&mut self, b: &mut FuncBuilder, ctx: &LocateCtx<'_>) {
        let cfg = self.config;
        let loc = cfg.locality;

        // Step 1: prefetch crd[jj + 2*distance] so the Step-2 operand is
        // resident when its turn comes (Fig. 5 lines 2–3).
        if cfg.prefetch_crd_stream {
            let d2 = b.const_index(2 * cfg.distance);
            let i2 = b.addi(ctx.iter, d2);
            b.prefetch_read(ctx.crd, i2, loc);
        }

        // Step 2: t = crd[min(jj + distance, bound)] with the semantic
        // bound = total crd size - 1 (Fig. 5 lines 5–18). The size chain
        // is loop-invariant and hoisted by LICM.
        let size = ctx.size_chain.emit(b);
        let c1 = b.const_index(1);
        let bound = b.subi(size, c1);
        let d = b.const_index(cfg.distance);
        let jd = b.addi(ctx.iter, d);
        let in_range = b.cmpi(CmpPred::Ult, jd, bound);
        let clamped = b.select(in_range, jd, bound);
        let raw = b.load(ctx.crd, clamped);
        let ahead = b.to_index(raw);

        // Step 3: prefetch each located dense operand at the look-ahead
        // coordinate (Fig. 5 lines 20–21). For row-strided operands this
        // covers the first cache line of the future row (Fig. 9).
        for t in ctx.targets {
            let idx = match t.stride {
                Stride::One => ahead,
                Stride::Elems(s) => b.muli(ahead, s),
            };
            b.prefetch_read(t.buf, idx, loc);
        }

        self.sites.push(InjectionSite {
            level: ctx.level,
            targets: ctx.targets.len(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_ir::print_function;
    use asap_sparsifier::{sparsify, KernelSpec};
    use asap_tensor::{Format, IndexWidth, ValueKind};

    #[test]
    fn spmv_injection_matches_figure_5() {
        let spec = KernelSpec::spmv(ValueKind::F64);
        let mut hook = AsapHook::new(AsapConfig::paper());
        let k = sparsify(&spec, &Format::csr(), IndexWidth::U64, Some(&mut hook)).unwrap();
        assert_eq!(
            hook.sites,
            vec![InjectionSite {
                level: 1,
                targets: 1
            }]
        );
        // Two prefetches per iteration: crd stream + target.
        assert_eq!(k.func.prefetch_count(), 2);
        let text = print_function(&k.func);
        assert!(text.contains("locality<2>"));
        assert!(
            text.contains("arith.constant 90 : index"),
            "2*distance:\n{text}"
        );
        assert!(text.contains("arith.select"));
    }

    #[test]
    fn step1_can_be_disabled_for_ablation() {
        let spec = KernelSpec::spmv(ValueKind::F64);
        let cfg = AsapConfig {
            prefetch_crd_stream: false,
            ..AsapConfig::paper()
        };
        let mut hook = AsapHook::new(cfg);
        let k = sparsify(&spec, &Format::csr(), IndexWidth::U64, Some(&mut hook)).unwrap();
        assert_eq!(k.func.prefetch_count(), 1);
    }

    #[test]
    fn spmm_prefetches_first_line_of_next_row() {
        let spec = KernelSpec::spmm(ValueKind::F64);
        let mut hook = AsapHook::new(AsapConfig::paper());
        let k = sparsify(&spec, &Format::csr(), IndexWidth::U64, Some(&mut hook)).unwrap();
        // Outer-loop prefetching: the target prefetch index is j_ahead * N.
        assert_eq!(k.func.prefetch_count(), 2);
        let text = print_function(&k.func);
        assert!(text.contains("arith.muli"), "row stride multiply:\n{text}");
    }

    #[test]
    fn mttkrp_instruments_both_locate_levels() {
        let spec = KernelSpec::mttkrp(ValueKind::F64);
        let mut hook = AsapHook::new(AsapConfig::paper());
        let k = sparsify(&spec, &Format::csf(3), IndexWidth::U64, Some(&mut hook)).unwrap();
        assert_eq!(hook.sites.len(), 2);
        assert_eq!(k.func.prefetch_count(), 4);
    }

    #[test]
    fn custom_distance_is_respected() {
        let spec = KernelSpec::spmv(ValueKind::F64);
        let mut hook = AsapHook::new(AsapConfig::with_distance(16));
        let k = sparsify(&spec, &Format::csr(), IndexWidth::U64, Some(&mut hook)).unwrap();
        let text = print_function(&k.func);
        assert!(text.contains("arith.constant 32 : index"));
        assert!(text.contains("arith.constant 16 : index"));
    }
}
