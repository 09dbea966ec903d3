//! The Ainsworth & Jones baseline: a *post-hoc, low-level* software
//! prefetching pass (CGO'17 / TOCS'18), reimplemented over our IR.
//!
//! Faithful to the two properties the paper contrasts ASaP against:
//!
//! 1. **Detection is pattern matching on lowered code.** The pass scans
//!    each loop's directly-contained ops for an indirect chain
//!    `r = load M1[iv]` → `load M2[f(r)]`. It does not look across loop
//!    levels, so SpMM — whose dependent loads sit in the nested dense
//!    `k` loop — gets **no prefetches**, matching the paper's observation
//!    that the public artifact "would not generate prefetches for SpMM"
//!    (Section 5.3).
//! 2. **Bounds come from loop limits.** The look-ahead load is clamped to
//!    the enclosing loop's upper bound (the *segment* end for sparsified
//!    code), per lines 8–10 of page 8 of the TOCS paper. Prefetching
//!    therefore stops `distance` iterations before each segment end and
//!    misses the first `distance` elements of the next segment — the
//!    short-row weakness Figure 11 measures.

use asap_ir::{BinOp, CmpPred, Function, Literal, Op, OpKind, Region, Type, Value};

/// Configuration for the baseline pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AjConfig {
    /// Look-ahead distance in loop iterations (45 in the evaluation).
    pub distance: usize,
    /// Locality hint for generated prefetches.
    pub locality: u8,
}

impl AjConfig {
    pub fn paper() -> AjConfig {
        AjConfig {
            distance: 45,
            locality: 2,
        }
    }

    pub fn with_distance(distance: usize) -> AjConfig {
        AjConfig {
            distance,
            locality: 2,
        }
    }
}

impl Default for AjConfig {
    fn default() -> Self {
        AjConfig::paper()
    }
}

/// How a dependent load's index derives from the first load's result.
#[derive(Debug, Clone, Copy)]
enum Deriv {
    /// `M2[r]` directly.
    Direct,
    /// `M2[index_cast(r)]`.
    Cast,
    /// `M2[index_cast(r) * s]` (or `r * s`) with `s` loop-invariant.
    Scaled(Value),
}

/// One discovered indirect chain.
struct Site {
    /// Position (in the loop body's op list) of the first load.
    first_pos: usize,
    /// The first load's buffer (`M1`) and the loop induction variable.
    m1: Value,
    iv: Value,
    /// Loop upper bound — the A&J prefetch bound.
    hi: Value,
    /// Dependent loads: (target buffer, derivation).
    deps: Vec<(Value, Deriv)>,
}

/// Apply the pass to a function. Returns the number of instrumented
/// indirect chains.
pub fn ainsworth_jones(func: &mut Function, cfg: &AjConfig) -> usize {
    let mut body = std::mem::take(&mut func.body);
    let n = instrument_region(func, &mut body, cfg);
    func.body = body;
    n
}

fn instrument_region(f: &mut Function, r: &mut Region, cfg: &AjConfig) -> usize {
    let mut count = 0;
    for op in &mut r.ops {
        // Recurse first so inner loops are handled before their parents.
        let mut nested: Vec<&mut Region> = op.kind.regions_mut();
        for nr in nested.iter_mut() {
            count += instrument_region(f, nr, cfg);
        }
    }
    for op in &mut r.ops {
        if let OpKind::For { iv, hi, body, .. } = &mut op.kind {
            let (iv, hi) = (*iv, *hi);
            count += instrument_loop(f, body, iv, hi, cfg);
        }
    }
    count
}

/// Find indirect chains among the directly-contained ops of a loop body
/// and splice prefetch sequences in front of each chain's first load.
fn instrument_loop(
    f: &mut Function,
    body: &mut Region,
    iv: Value,
    hi: Value,
    cfg: &AjConfig,
) -> usize {
    // First loads: r = load M1[iv].
    let mut sites: Vec<Site> = Vec::new();
    for (pos, op) in body.ops.iter().enumerate() {
        let OpKind::Load { mem, index } = op.kind else {
            continue;
        };
        if index != iv {
            continue;
        }
        let r1 = op.results[0];
        // Resolve derivations of other loads' indices from r1.
        let mut deps = Vec::new();
        for dep in &body.ops[pos + 1..] {
            let OpKind::Load {
                mem: m2,
                index: idx2,
            } = dep.kind
            else {
                continue;
            };
            if m2 == mem {
                continue; // same-buffer load is the stream itself
            }
            if let Some(d) = derive(body, r1, idx2) {
                deps.push((m2, d));
            }
        }
        if !deps.is_empty() {
            sites.push(Site {
                first_pos: pos,
                m1: mem,
                iv,
                hi,
                deps,
            });
        }
    }

    // Splice last-first so recorded positions stay valid.
    let n = sites.len();
    for site in sites.into_iter().rev() {
        let seq = build_sequence(f, &site, cfg);
        for (k, op) in seq.into_iter().enumerate() {
            body.ops.insert(site.first_pos + k, op);
        }
    }
    n
}

/// Is `idx` derived from `r1` by (cast | cast+scale | identity)?
fn derive(body: &Region, r1: Value, idx: Value) -> Option<Deriv> {
    if idx == r1 {
        return Some(Deriv::Direct);
    }
    // Find the defining op of `idx` among the body's top-level ops.
    let def = body
        .ops
        .iter()
        .find(|op| op.results.contains(&idx))
        .map(|op| &op.kind)?;
    match def {
        OpKind::Cast { value, .. } if *value == r1 => Some(Deriv::Cast),
        OpKind::Binary {
            op: BinOp::MulI,
            lhs,
            rhs,
        } => {
            // lhs must itself derive (direct or cast); rhs is the scale.
            match derive(body, r1, *lhs)? {
                Deriv::Direct | Deriv::Cast => Some(Deriv::Scaled(*rhs)),
                Deriv::Scaled(_) => None,
            }
        }
        _ => None,
    }
}

/// Emit the three-step sequence with the loop-bound clamp.
fn build_sequence(f: &mut Function, site: &Site, cfg: &AjConfig) -> Vec<Op> {
    let mut fac = OpFactory { f, ops: Vec::new() };
    // Step 1: prefetch M1[iv + 2*distance].
    let c2d = fac.const_index(2 * cfg.distance);
    let i2 = fac.binary(BinOp::AddI, site.iv, c2d, Type::Index);
    fac.prefetch(site.m1, i2, cfg.locality);
    // Step 2: t = M1[min(iv + distance, hi - 1)] — the loop-bound clamp.
    let cd = fac.const_index(cfg.distance);
    let jd = fac.binary(BinOp::AddI, site.iv, cd, Type::Index);
    let c1 = fac.const_index(1);
    let bnd = fac.binary(BinOp::SubI, site.hi, c1, Type::Index);
    let cmp = fac.cmpi(CmpPred::Ult, jd, bnd);
    let m = fac.select(cmp, jd, bnd, Type::Index);
    // invariant: site.m1 is the `mem` operand of a Load op, and verified
    // IR only loads from memref-typed values.
    let elem = fac.f.ty(site.m1).elem().expect("M1 is a memref").clone();
    let t = fac.load(site.m1, m, elem.clone());
    // Step 3: prefetch each dependent buffer at the derived index.
    for &(m2, d) in &site.deps {
        let idx = match d {
            Deriv::Direct => t,
            Deriv::Cast => fac.cast(t, Type::Index),
            Deriv::Scaled(s) => {
                let c = if elem == Type::Index {
                    t
                } else {
                    fac.cast(t, Type::Index)
                };
                fac.binary(BinOp::MulI, c, s, Type::Index)
            }
        };
        fac.prefetch(m2, idx, cfg.locality);
    }
    fac.ops
}

/// Builds ops directly on a [`Function`] (fresh values + op ids) without
/// a region stack — used when splicing into existing regions.
struct OpFactory<'f> {
    f: &'f mut Function,
    ops: Vec<Op>,
}

impl<'f> OpFactory<'f> {
    // invariant: every `.expect` below fires only if `push` is called with
    // `Some(ty)` yet returns `None`, which its body makes impossible.
    fn push(&mut self, kind: OpKind, result_ty: Option<Type>) -> Option<Value> {
        let results = match result_ty {
            Some(t) => vec![self.f.fresh_value(t)],
            None => vec![],
        };
        let id = self.f.fresh_op_id();
        let out = results.first().copied();
        self.ops.push(Op { id, kind, results });
        out
    }

    fn const_index(&mut self, v: usize) -> Value {
        self.push(OpKind::Const(Literal::Index(v)), Some(Type::Index))
            .expect("const has a result")
    }

    fn binary(&mut self, op: BinOp, lhs: Value, rhs: Value, ty: Type) -> Value {
        self.push(OpKind::Binary { op, lhs, rhs }, Some(ty))
            .expect("binary has a result")
    }

    fn cmpi(&mut self, pred: CmpPred, lhs: Value, rhs: Value) -> Value {
        self.push(OpKind::Cmp { pred, lhs, rhs }, Some(Type::I1))
            .expect("cmp has a result")
    }

    fn select(&mut self, cond: Value, if_true: Value, if_false: Value, ty: Type) -> Value {
        self.push(
            OpKind::Select {
                cond,
                if_true,
                if_false,
            },
            Some(ty),
        )
        .expect("select has a result")
    }

    fn load(&mut self, mem: Value, index: Value, elem: Type) -> Value {
        self.push(OpKind::Load { mem, index }, Some(elem))
            .expect("load has a result")
    }

    fn cast(&mut self, value: Value, to: Type) -> Value {
        self.push(
            OpKind::Cast {
                value,
                to: to.clone(),
            },
            Some(to),
        )
        .expect("cast has a result")
    }

    fn prefetch(&mut self, mem: Value, index: Value, locality: u8) {
        self.push(
            OpKind::Prefetch {
                mem,
                index,
                write: false,
                locality,
            },
            None,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_ir::verify;
    use asap_sparsifier::{sparsify, KernelSpec};
    use asap_tensor::{Format, IndexWidth, ValueKind};

    fn spmv_kernel(width: IndexWidth) -> Function {
        let spec = KernelSpec::spmv(ValueKind::F64);
        sparsify(&spec, &Format::csr(), width, None).unwrap().func
    }

    #[test]
    fn instruments_csr_spmv_inner_loop() {
        let mut f = spmv_kernel(IndexWidth::U64);
        let n = ainsworth_jones(&mut f, &AjConfig::paper());
        assert_eq!(n, 1);
        assert_eq!(f.prefetch_count(), 2);
        verify(&f).unwrap();
    }

    #[test]
    fn handles_narrow_indices_with_cast() {
        let mut f = spmv_kernel(IndexWidth::U32);
        let n = ainsworth_jones(&mut f, &AjConfig::paper());
        assert_eq!(n, 1);
        verify(&f).unwrap();
        // The generated look-ahead load yields i32 and must be cast.
        let text = asap_ir::print_function(&f);
        assert!(text.contains("arith.index_cast"));
    }

    #[test]
    fn generates_nothing_for_spmm() {
        // The paper's key comparison point (Section 5.3): the dependent
        // loads live in the nested k loop, invisible to the low-level
        // pattern matcher.
        let spec = KernelSpec::spmm(ValueKind::F64);
        let mut k = sparsify(&spec, &Format::csr(), IndexWidth::U64, None).unwrap();
        let n = ainsworth_jones(&mut k.func, &AjConfig::paper());
        assert_eq!(n, 0);
        assert_eq!(k.func.prefetch_count(), 0);
    }

    #[test]
    fn instruments_coo_segment_loop() {
        let spec = KernelSpec::spmv(ValueKind::F64);
        let mut k = sparsify(&spec, &Format::coo(), IndexWidth::U64, None).unwrap();
        let n = ainsworth_jones(&mut k.func, &AjConfig::paper());
        assert_eq!(n, 1);
        verify(&k.func).unwrap();
    }

    #[test]
    fn bound_uses_loop_limit_not_buffer_size() {
        let mut f = spmv_kernel(IndexWidth::U64);
        ainsworth_jones(&mut f, &AjConfig::paper());
        let text = asap_ir::print_function(&f);
        // A&J must NOT contain the semantic size chain: no multiplication
        // by the row count appears (ASaP's chain contains arith.muli for
        // the dense level step).
        assert!(!text.contains("arith.muli"), "{text}");
    }

    #[test]
    fn preserves_results_on_spmv() {
        use asap_ir::NullModel;
        use asap_sparsifier::run;
        use asap_tensor::{CooTensor, DenseTensor, SparseTensor, Values};
        let spec = KernelSpec::spmv(ValueKind::F64);
        let mut k = sparsify(&spec, &Format::csr(), IndexWidth::U32, None).unwrap();
        ainsworth_jones(&mut k.func, &AjConfig::with_distance(2));
        verify(&k.func).unwrap();
        let coo = CooTensor::new(
            vec![3, 3],
            vec![0, 0, 0, 2, 2, 2],
            Values::F64(vec![1.0, 2.0, 3.0]),
        );
        let sparse = SparseTensor::from_coo(&coo, Format::csr());
        let c = DenseTensor::from_f64(vec![3], vec![1.0, 10.0, 100.0]);
        let mut a = DenseTensor::zeros(ValueKind::F64, vec![3]);
        run(&k, &sparse, &[&c], &mut a, &mut NullModel).unwrap();
        assert_eq!(a.as_f64(), &[201.0, 0.0, 300.0]);
    }
}
