//! Constant folding and algebraic simplification.
//!
//! The sparsifier's size chains start from a literal `1` node count
//! (`crd_buf_sz` recursion), producing `muli(1, dim)` steps; folding them
//! keeps the hoisted prologue minimal. Runs to a fixpoint over:
//!
//! - binary ops with two constant operands → constant;
//! - `x*1`, `1*x`, `x+0`, `0+x`, `x-0`, `x|0`, `x&~0`… identity patterns;
//! - `cmpi` on constants → constant `i1`;
//! - `select` on a constant condition → the taken arm;
//! - casts of constants → constants.

use crate::ops::{BinOp, CmpPred, Function, OpKind, Region, Value};
use crate::types::{Literal, Type};
use std::collections::HashMap;

/// Fold constants; returns the number of ops simplified. Follow with
/// [`crate::dce`] to drop now-unused constants.
pub fn fold(f: &mut Function) -> usize {
    let mut total = 0;
    loop {
        let mut consts: HashMap<Value, Literal> = HashMap::new();
        collect_consts(&f.body, &mut consts);
        let mut replace: HashMap<Value, Value> = HashMap::new();
        let mut folded = 0;
        fold_region(&mut f.body, &consts, &mut replace, &mut folded);
        if folded == 0 {
            return total;
        }
        total += folded;
    }
}

fn collect_consts(r: &Region, out: &mut HashMap<Value, Literal>) {
    r.walk(&mut |op| {
        if let OpKind::Const(l) = op.kind {
            out.insert(op.results[0], l);
        }
    });
}

fn as_u64(l: Literal) -> Option<u64> {
    match l {
        Literal::Index(v) => Some(v as u64),
        Literal::I64(v) => Some(v as u64),
        Literal::I32(v) => Some(v as u32 as u64),
        Literal::I8(v) => Some(v as u8 as u64),
        Literal::Bool(v) => Some(v as u64),
        Literal::F64(_) => None,
    }
}

fn lit_like(template: Literal, raw: u64) -> Literal {
    match template {
        Literal::Index(_) => Literal::Index(raw as usize),
        Literal::I64(_) => Literal::I64(raw as i64),
        Literal::I32(_) => Literal::I32(raw as i32),
        Literal::I8(_) => Literal::I8(raw as i8),
        Literal::Bool(_) => Literal::Bool(raw != 0),
        Literal::F64(_) => unreachable!("guarded by as_u64"),
    }
}

fn eval_int(op: BinOp, a: u64, b: u64) -> Option<u64> {
    Some(match op {
        BinOp::AddI => a.wrapping_add(b),
        BinOp::SubI => a.wrapping_sub(b),
        BinOp::MulI => a.wrapping_mul(b),
        BinOp::DivUI => a.checked_div(b)?,
        BinOp::RemUI => a.checked_rem(b)?,
        BinOp::MinUI => a.min(b),
        BinOp::MaxUI => a.max(b),
        BinOp::AndI => a & b,
        BinOp::OrI => a | b,
        BinOp::XorI => a ^ b,
        _ => return None,
    })
}

enum Outcome {
    /// Replace the op's result with an existing value.
    Alias(Value),
    /// Replace the op with a constant.
    Const(Literal),
    Keep,
}

fn simplify(kind: &OpKind, consts: &HashMap<Value, Literal>) -> Outcome {
    match kind {
        OpKind::Binary { op, lhs, rhs } => {
            let (cl, cr) = (consts.get(lhs).copied(), consts.get(rhs).copied());
            // Constant-constant.
            if let (Some(a), Some(b)) = (cl, cr) {
                if let (Some(x), Some(y)) = (as_u64(a), as_u64(b)) {
                    if let Some(z) = eval_int(*op, x, y) {
                        return Outcome::Const(lit_like(a, z));
                    }
                }
            }
            // Identities.
            let is = |c: Option<Literal>, want: u64| c.and_then(as_u64) == Some(want);
            match op {
                BinOp::MulI if is(cl, 1) => Outcome::Alias(*rhs),
                BinOp::MulI if is(cr, 1) => Outcome::Alias(*lhs),
                BinOp::AddI | BinOp::OrI | BinOp::XorI if is(cl, 0) => Outcome::Alias(*rhs),
                BinOp::AddI | BinOp::SubI | BinOp::OrI | BinOp::XorI if is(cr, 0) => {
                    Outcome::Alias(*lhs)
                }
                _ => Outcome::Keep,
            }
        }
        OpKind::Cmp { pred, lhs, rhs } => {
            let (Some(a), Some(b)) = (
                consts.get(lhs).and_then(|&l| as_u64(l)),
                consts.get(rhs).and_then(|&l| as_u64(l)),
            ) else {
                return Outcome::Keep;
            };
            let r = match pred {
                CmpPred::Eq => a == b,
                CmpPred::Ne => a != b,
                CmpPred::Ult => a < b,
                CmpPred::Ule => a <= b,
                CmpPred::Ugt => a > b,
                CmpPred::Uge => a >= b,
            };
            Outcome::Const(Literal::Bool(r))
        }
        OpKind::Select {
            cond,
            if_true,
            if_false,
        } => match consts.get(cond) {
            Some(Literal::Bool(true)) => Outcome::Alias(*if_true),
            Some(Literal::Bool(false)) => Outcome::Alias(*if_false),
            _ => Outcome::Keep,
        },
        OpKind::Cast { value, to } => {
            let Some(raw) = consts.get(value).and_then(|&l| as_u64(l)) else {
                return Outcome::Keep;
            };
            let lit = match to {
                Type::Index => Literal::Index(raw as usize),
                Type::I64 => Literal::I64(raw as i64),
                Type::I32 => Literal::I32(raw as i32),
                Type::I8 => Literal::I8(raw as i8),
                Type::I1 => Literal::Bool(raw != 0),
                _ => return Outcome::Keep,
            };
            Outcome::Const(lit)
        }
        _ => Outcome::Keep,
    }
}

fn fold_region(
    r: &mut Region,
    consts: &HashMap<Value, Literal>,
    replace: &mut HashMap<Value, Value>,
    folded: &mut usize,
) {
    let mut i = 0;
    while i < r.ops.len() {
        for v in r.ops[i].kind.operands() {
            let mut cur = v;
            while let Some(&n) = replace.get(&cur) {
                cur = n;
            }
            if cur != v {
                r.ops[i].kind.replace_operand(v, cur);
            }
        }
        match simplify(&r.ops[i].kind, consts) {
            Outcome::Alias(target) => {
                let dead = r.ops.remove(i);
                replace.insert(dead.results[0], target);
                *folded += 1;
                continue;
            }
            Outcome::Const(lit) => {
                let id = r.ops[i].id;
                let res = r.ops[i].results.clone();
                r.ops[i] = crate::ops::Op {
                    id,
                    kind: OpKind::Const(lit),
                    results: res,
                };
                *folded += 1;
            }
            Outcome::Keep => {}
        }
        let mut op = r.ops.remove(i);
        for nested in op.kind.regions_mut() {
            fold_region(nested, consts, replace, folded);
        }
        r.ops.insert(i, op);
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::interp::interpret;
    use crate::mem::{BufferData, Buffers, NullModel, V};
    use crate::verify::verify;
    use crate::{cse, dce};

    fn run_idx(f: &crate::Function, args: &[V], out_id: u32, bufs: &mut Buffers) -> usize {
        interpret(f, args, bufs, &mut NullModel).unwrap();
        match &bufs.get(out_id).data {
            BufferData::Index(v) => v[0],
            _ => unreachable!(),
        }
    }

    #[test]
    fn folds_mul_by_one_from_size_chain() {
        let mut b = FuncBuilder::new("k");
        let n = b.arg(Type::Index);
        let out = b.arg(Type::memref(Type::Index));
        let c1 = b.const_index(1);
        let m = b.muli(c1, n); // size-chain root: 1 * dim
        let c0 = b.const_index(0);
        b.store(m, out, c0);
        let mut f = b.finish();
        assert_eq!(fold(&mut f), 1);
        dce(&mut f);
        verify(&f).unwrap();
        let mut bufs = Buffers::new();
        let bo = bufs.add(BufferData::Index(vec![0]));
        assert_eq!(run_idx(&f, &[V::Index(7), V::Mem(bo)], bo, &mut bufs), 7);
    }

    #[test]
    fn folds_constant_arithmetic_chains() {
        let mut b = FuncBuilder::new("k");
        let out = b.arg(Type::memref(Type::Index));
        let c2 = b.const_index(2);
        let c3 = b.const_index(3);
        let s = b.addi(c2, c3); // 5
        let m = b.muli(s, c2); // 10
        let c0 = b.const_index(0);
        b.store(m, out, c0);
        let mut f = b.finish();
        assert!(fold(&mut f) >= 2);
        let mut bufs = Buffers::new();
        let bo = bufs.add(BufferData::Index(vec![0]));
        assert_eq!(run_idx(&f, &[V::Mem(bo)], bo, &mut bufs), 10);
    }

    #[test]
    fn folds_select_on_constant_condition() {
        use crate::ops::CmpPred;
        let mut b = FuncBuilder::new("k");
        let x = b.arg(Type::Index);
        let y = b.arg(Type::Index);
        let out = b.arg(Type::memref(Type::Index));
        let c1 = b.const_index(1);
        let c2 = b.const_index(2);
        let cond = b.cmpi(CmpPred::Ult, c1, c2); // true
        let sel = b.select(cond, x, y);
        let c0 = b.const_index(0);
        b.store(sel, out, c0);
        let mut f = b.finish();
        assert!(fold(&mut f) >= 2, "cmp folds, then select folds");
        let mut bufs = Buffers::new();
        let bo = bufs.add(BufferData::Index(vec![0]));
        assert_eq!(
            run_idx(&f, &[V::Index(11), V::Index(22), V::Mem(bo)], bo, &mut bufs),
            11
        );
    }

    #[test]
    fn does_not_fold_float_arithmetic() {
        let mut b = FuncBuilder::new("k");
        let out = b.arg(Type::memref(Type::F64));
        let a = b.const_f64(0.1);
        let bb = b.const_f64(0.2);
        let s = b.addf(a, bb);
        let c0 = b.const_index(0);
        b.store(s, out, c0);
        let mut f = b.finish();
        assert_eq!(fold(&mut f), 0, "float folding is not value-preserving");
    }

    #[test]
    fn division_by_zero_is_left_alone() {
        use crate::ops::BinOp;
        let mut b = FuncBuilder::new("k");
        let out = b.arg(Type::memref(Type::Index));
        let c1 = b.const_index(1);
        let c0v = b.const_index(0);
        let d = b.binary(BinOp::DivUI, c1, c0v);
        b.store(d, out, c0v);
        let mut f = b.finish();
        assert_eq!(fold(&mut f), 0);
    }

    #[test]
    fn fold_then_cse_shrinks_asap_prologue() {
        // End-to-end: the compiled ASaP kernel's hoisted prologue loses
        // its muli(1, nrows) after folding.
        use crate::ops::OpKind;
        let mut b = FuncBuilder::new("k");
        let pos = b.arg(Type::memref(Type::Index));
        let n = b.arg(Type::Index);
        let out = b.arg(Type::memref(Type::Index));
        let c1 = b.const_index(1);
        let count = b.muli(c1, n);
        let sz = b.load(pos, count);
        let bound = b.subi(sz, c1);
        let c0 = b.const_index(0);
        b.store(bound, out, c0);
        let mut f = b.finish();
        fold(&mut f);
        cse(&mut f);
        dce(&mut f);
        verify(&f).unwrap();
        let mut muls = 0;
        f.walk(&mut |op| {
            if matches!(
                op.kind,
                OpKind::Binary {
                    op: BinOp::MulI,
                    ..
                }
            ) {
                muls += 1;
            }
        });
        assert_eq!(muls, 0, "muli(1, n) must fold away");
        let mut bufs = Buffers::new();
        let bp = bufs.add(BufferData::Index(vec![0, 2, 5]));
        let bo = bufs.add(BufferData::Index(vec![0]));
        assert_eq!(
            run_idx(&f, &[V::Mem(bp), V::Index(2), V::Mem(bo)], bo, &mut bufs),
            4
        );
    }
}
