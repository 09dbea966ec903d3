//! Common-subexpression elimination for pure ops.
//!
//! Sparsification and the prefetch hooks independently materialize
//! constants (`0`, `1`, the prefetch distance) and index arithmetic; CSE
//! merges duplicates within each region scope so instruction counts —
//! which the evaluation's MPKI metric divides by — aren't inflated by
//! codegen artifacts. Runs after LICM so hoisted duplicates meet in the
//! same region.

use crate::ops::{BinOp, CmpPred, Function, OpKind, Region, Value};
use crate::types::{Literal, Type};
use std::collections::HashMap;

/// A hashable key identifying a pure computation.
#[derive(Debug, Clone, PartialEq)]
enum Key {
    Const(Literal),
    Binary(BinOp, Value, Value),
    Cmp(CmpPred, Value, Value),
    Select(Value, Value, Value),
    Cast(Value, Type),
    Dim(Value),
}

// Literal contains f64: implement Eq/Hash via bit patterns.
impl Eq for Key {}

impl std::hash::Hash for Key {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Key::Const(lit) => match *lit {
                Literal::Index(v) => (0u8, v as u64).hash(state),
                Literal::I64(v) => (1u8, v as u64).hash(state),
                Literal::I32(v) => (2u8, v as u64).hash(state),
                Literal::I8(v) => (3u8, v as u64).hash(state),
                Literal::Bool(v) => (4u8, v as u64).hash(state),
                Literal::F64(v) => (5u8, v.to_bits()).hash(state),
            },
            Key::Binary(op, a, b) => (op, a, b).hash(state),
            Key::Cmp(p, a, b) => (p, a, b).hash(state),
            Key::Select(c, a, b) => (c, a, b).hash(state),
            Key::Cast(v, t) => (v, t).hash(state),
            Key::Dim(v) => v.hash(state),
        }
    }
}

fn key_of(kind: &OpKind) -> Option<Key> {
    match kind {
        OpKind::Const(l) => Some(Key::Const(*l)),
        OpKind::Binary { op, lhs, rhs } => {
            // Commutative ops get a canonical operand order.
            let commutative = matches!(
                op,
                BinOp::AddI
                    | BinOp::MulI
                    | BinOp::AndI
                    | BinOp::OrI
                    | BinOp::XorI
                    | BinOp::MinUI
                    | BinOp::MaxUI
                    | BinOp::AddF
                    | BinOp::MulF
            );
            let (a, b) = if commutative && rhs < lhs {
                (*rhs, *lhs)
            } else {
                (*lhs, *rhs)
            };
            Some(Key::Binary(*op, a, b))
        }
        OpKind::Cmp { pred, lhs, rhs } => Some(Key::Cmp(*pred, *lhs, *rhs)),
        OpKind::Select {
            cond,
            if_true,
            if_false,
        } => Some(Key::Select(*cond, *if_true, *if_false)),
        OpKind::Cast { value, to } => Some(Key::Cast(*value, to.clone())),
        OpKind::Dim { mem } => Some(Key::Dim(*mem)),
        _ => None,
    }
}

/// Scoped value-numbering table: inner regions see outer definitions but
/// not vice versa.
struct Scope<'p> {
    parent: Option<&'p Scope<'p>>,
    table: HashMap<Key, Value>,
}

impl<'p> Scope<'p> {
    fn lookup(&self, k: &Key) -> Option<Value> {
        if let Some(&v) = self.table.get(k) {
            return Some(v);
        }
        self.parent.and_then(|p| p.lookup(k))
    }
}

/// Run CSE. Returns the number of ops eliminated. Follow with [`crate::dce`]
/// is unnecessary — replaced ops are removed directly.
pub fn cse(f: &mut Function) -> usize {
    let mut body = std::mem::take(&mut f.body);
    let root = Scope {
        parent: None,
        table: HashMap::new(),
    };
    let mut removed = 0;
    let mut replace: HashMap<Value, Value> = HashMap::new();
    cse_region(&mut body, &root, &mut replace, &mut removed);
    f.body = body;
    removed
}

fn resolve(replace: &HashMap<Value, Value>, v: Value) -> Value {
    let mut cur = v;
    while let Some(&n) = replace.get(&cur) {
        cur = n;
    }
    cur
}

fn cse_region(
    r: &mut Region,
    parent: &Scope<'_>,
    replace: &mut HashMap<Value, Value>,
    removed: &mut usize,
) {
    let mut scope = Scope {
        parent: Some(parent),
        table: HashMap::new(),
    };
    let mut i = 0;
    while i < r.ops.len() {
        // Rewrite operands through accumulated replacements first.
        let operands: Vec<Value> = r.ops[i].kind.operands();
        for v in operands {
            let n = resolve(replace, v);
            if n != v {
                r.ops[i].kind.replace_operand(v, n);
            }
        }
        if let Some(key) = key_of(&r.ops[i].kind) {
            if let Some(existing) = scope.lookup(&key) {
                let dup = r.ops.remove(i);
                replace.insert(dup.results[0], existing);
                *removed += 1;
                continue;
            }
            scope.table.insert(key, r.ops[i].results[0]);
        }
        // Recurse into nested regions with the current scope visible.
        let mut op = r.ops.remove(i);
        for nested in op.kind.regions_mut() {
            cse_region(nested, &scope, replace, removed);
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

    #[test]
    fn merges_duplicate_constants() {
        let mut b = FuncBuilder::new("k");
        let out = b.arg(Type::memref(Type::Index));
        let c1a = b.const_index(1);
        let c1b = b.const_index(1);
        let s = b.addi(c1a, c1b);
        let c0 = b.const_index(0);
        b.store(s, out, c0);
        let mut f = b.finish();
        assert_eq!(cse(&mut f), 1);
        verify(&f).unwrap();
        let mut bufs = Buffers::new();
        let bo = bufs.add(BufferData::Index(vec![0]));
        interpret(&f, &[V::Mem(bo)], &mut bufs, &mut NullModel).unwrap();
        match &bufs.get(bo).data {
            BufferData::Index(v) => assert_eq!(v[0], 2),
            _ => unreachable!(),
        }
    }

    #[test]
    fn merges_commutative_binaries() {
        let mut b = FuncBuilder::new("k");
        let x = b.arg(Type::Index);
        let y = b.arg(Type::Index);
        let out = b.arg(Type::memref(Type::Index));
        let a = b.addi(x, y);
        let bb = b.addi(y, x); // same computation, swapped operands
        let s = b.muli(a, bb);
        let c0 = b.const_index(0);
        b.store(s, out, c0);
        let mut f = b.finish();
        assert_eq!(cse(&mut f), 1);
        verify(&f).unwrap();
    }

    #[test]
    fn does_not_merge_noncommutative_swapped() {
        let mut b = FuncBuilder::new("k");
        let x = b.arg(Type::Index);
        let y = b.arg(Type::Index);
        let out = b.arg(Type::memref(Type::Index));
        let a = b.subi(x, y);
        let bb = b.subi(y, x);
        let s = b.addi(a, bb);
        let c0 = b.const_index(0);
        b.store(s, out, c0);
        let mut f = b.finish();
        assert_eq!(cse(&mut f), 0);
    }

    #[test]
    fn inner_region_reuses_outer_def_but_not_reverse() {
        use crate::ops::OpKind;
        let mut b = FuncBuilder::new("k");
        let n = b.arg(Type::Index);
        let out = b.arg(Type::memref(Type::Index));
        let c0 = b.const_index(0);
        let c1 = b.const_index(1);
        let outer = b.addi(n, n); // defined outside the loop
        b.for_loop(c0, n, c1, &[], |b, i, _| {
            let inner_dup = b.addi(n, n); // duplicate of `outer`
            let loop_local = b.addi(i, n); // iv-dependent, loop-local
            let s = b.addi(inner_dup, loop_local);
            b.store(s, out, i);
            vec![]
        });
        // A second use of the loop-local key AFTER the loop must NOT be
        // merged with the one inside.
        let after = b.addi(outer, n);
        b.store(after, out, c0);
        let mut f = b.finish();
        let removed = cse(&mut f);
        assert_eq!(removed, 1, "only the (n+n) duplicate merges");
        verify(&f).unwrap();
        // The inner loop no longer contains an addi(n, n).
        let mut found_dup_inside = false;
        f.walk(&mut |op| {
            if let OpKind::For { body, .. } = &op.kind {
                body.walk(&mut |inner| {
                    if let OpKind::Binary { lhs, rhs, .. } = inner.kind {
                        if lhs == n && rhs == n {
                            found_dup_inside = true;
                        }
                    }
                });
            }
        });
        assert!(!found_dup_inside);
    }

    #[test]
    fn cse_shrinks_asap_codegen_and_preserves_results() {
        // The ASaP hook materializes its own constants; CSE after LICM
        // must merge them with the sparsifier's without changing results.
        let mut b = FuncBuilder::new("k");
        let x = b.arg(Type::memref(Type::F64));
        let n = b.arg(Type::Index);
        let out = b.arg(Type::memref(Type::F64));
        let c0 = b.const_index(0);
        let c1 = b.const_index(1);
        b.for_loop(c0, n, c1, &[], |b, i, _| {
            let c1_dup = b.const_index(1);
            let j = b.addi(i, c1_dup);
            let jm = b.minui(j, n);
            let v = b.load(x, jm);
            b.store(v, out, i);
            vec![]
        });
        let mut f = b.finish();
        let run = |f: &Function| {
            let mut bufs = Buffers::new();
            let bx = bufs.add(BufferData::F64(vec![1.0, 2.0, 3.0, 4.0]));
            let bo = bufs.add(BufferData::F64(vec![0.0; 4]));
            interpret(
                f,
                &[V::Mem(bx), V::Index(3), V::Mem(bo)],
                &mut bufs,
                &mut NullModel,
            )
            .unwrap();
            match &bufs.get(bo).data {
                BufferData::F64(v) => v.clone(),
                _ => unreachable!(),
            }
        };
        let before = run(&f);
        crate::transforms::licm(&mut f);
        let removed = cse(&mut f);
        assert!(removed >= 1, "hoisted duplicate const must merge");
        verify(&f).unwrap();
        assert_eq!(run(&f), before);
    }

    #[test]
    fn loads_are_never_csed() {
        // Loads may alias stores; CSE must leave them alone.
        let mut b = FuncBuilder::new("k");
        let m = b.arg(Type::memref(Type::Index));
        let c0 = b.const_index(0);
        let a = b.load(m, c0);
        b.store(a, m, c0);
        let bb = b.load(m, c0);
        b.store(bb, m, c0);
        let mut f = b.finish();
        assert_eq!(cse(&mut f), 0);
    }
}
