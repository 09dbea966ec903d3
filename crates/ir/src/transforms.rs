//! IR-to-IR transforms: loop-invariant code motion and dead-code
//! elimination.
//!
//! LICM matters to the reproduction: the paper's Figure 5 notes that the
//! bound-computation loads (`Bi_pos[1]`, `Bj_pos[...]`) "are loop-invariant
//! and will be hoisted up", so ASaP's steady-state per-iteration overhead
//! is 3 ALU ops + 1 load + 2 prefetches, not the whole bound chain. Without
//! LICM the measured instruction overhead would be wrong.

use crate::ops::{Function, OpKind, Region, Value};
use std::collections::HashSet;

/// Collect every memref value that is stored through anywhere in the
/// function. Memref values are only ever function parameters (the IR has no
/// ops producing memrefs), so value identity is a sound aliasing check.
fn stored_memrefs(f: &Function) -> HashSet<Value> {
    let mut set = HashSet::new();
    f.walk(&mut |op| {
        if let OpKind::Store { mem, .. } = op.kind {
            set.insert(mem);
        }
    });
    set
}

/// Values defined anywhere inside a region (op results and block args of
/// nested structured ops).
fn defined_in_region(r: &Region, out: &mut HashSet<Value>) {
    r.walk(&mut |op| {
        out.extend(op.results.iter().copied());
        match &op.kind {
            OpKind::For { iv, iter_args, .. } => {
                out.insert(*iv);
                out.extend(iter_args.iter().copied());
            }
            OpKind::While {
                before_args,
                after_args,
                ..
            } => {
                out.extend(before_args.iter().copied());
                out.extend(after_args.iter().copied());
            }
            _ => {}
        }
    });
}

/// Loop-invariant code motion.
///
/// Hoists, out of `scf.for` and `scf.while` loops, ops that are pure
/// (constants, arithmetic, casts, `memref.dim`) or loads from memrefs that
/// are never stored to in this function, when all their operands are
/// defined outside the loop. Loads are speculated: a hoisted load executes
/// even if the loop would have run zero times, which is safe for the
/// position-buffer loads ASaP emits (always in bounds by construction of
/// the storage) — callers generating IR where that is not true should run
/// [`dce`] only.
///
/// Returns the number of ops hoisted.
pub fn licm(f: &mut Function) -> usize {
    let read_only_ok = stored_memrefs(f);
    let mut hoisted = 0;
    licm_region(&mut f.body, &read_only_ok, &mut hoisted);
    hoisted
}

fn is_hoistable_kind(kind: &OpKind, stored: &HashSet<Value>) -> bool {
    match kind {
        OpKind::Const(_)
        | OpKind::Binary { .. }
        | OpKind::Cmp { .. }
        | OpKind::Select { .. }
        | OpKind::Cast { .. }
        | OpKind::Dim { .. } => true,
        OpKind::Load { mem, .. } => !stored.contains(mem),
        _ => false,
    }
}

fn licm_region(r: &mut Region, stored: &HashSet<Value>, hoisted: &mut usize) {
    // Depth-first: hoist within nested loops first so their invariants can
    // bubble further up through this region's loops.
    for op in &mut r.ops {
        for nested in op.kind.regions_mut() {
            licm_region(nested, stored, hoisted);
        }
    }

    let mut i = 0;
    while i < r.ops.len() {
        let is_loop = matches!(r.ops[i].kind, OpKind::For { .. } | OpKind::While { .. });
        if !is_loop {
            i += 1;
            continue;
        }

        // Values defined inside the loop (shrinks as we hoist).
        let mut inside: HashSet<Value> = HashSet::new();
        match &r.ops[i].kind {
            OpKind::For {
                iv,
                iter_args,
                body,
                ..
            } => {
                inside.insert(*iv);
                inside.extend(iter_args.iter().copied());
                defined_in_region(body, &mut inside);
            }
            OpKind::While {
                before_args,
                before,
                after_args,
                after,
                ..
            } => {
                inside.extend(before_args.iter().copied());
                inside.extend(after_args.iter().copied());
                defined_in_region(before, &mut inside);
                defined_in_region(after, &mut inside);
            }
            _ => unreachable!(),
        }

        // Fixpoint: repeatedly move hoistable top-level body ops out.
        loop {
            let mut moved_any = false;
            let regions: Vec<&mut Region> = r.ops[i].kind.regions_mut();
            let mut extracted = Vec::new();
            for body in regions {
                let mut j = 0;
                while j < body.ops.len() {
                    let op = &body.ops[j];
                    let hoist = is_hoistable_kind(&op.kind, stored)
                        && op.kind.operands().iter().all(|v| !inside.contains(v));
                    if hoist {
                        let op = body.ops.remove(j);
                        for res in &op.results {
                            inside.remove(res);
                        }
                        extracted.push(op);
                        moved_any = true;
                    } else {
                        j += 1;
                    }
                }
            }
            let n = extracted.len();
            for (k, op) in extracted.into_iter().enumerate() {
                r.ops.insert(i + k, op);
            }
            *hoisted += n;
            i += n;
            if !moved_any {
                break;
            }
        }
        i += 1;
    }
}

/// Dead-code elimination: removes side-effect-free, region-free ops whose
/// results are all unused. Returns the number of ops removed.
pub fn dce(f: &mut Function) -> usize {
    let mut removed = 0;
    loop {
        let mut used: HashSet<Value> = HashSet::new();
        f.walk(&mut |op| used.extend(op.kind.operands()));
        let before = count_removable(&f.body, &used);
        if before == 0 {
            return removed;
        }
        remove_dead(&mut f.body, &used);
        removed += before;
    }
}

fn is_dead(kind: &OpKind, results: &[Value], used: &HashSet<Value>) -> bool {
    !kind.has_side_effects()
        && kind.regions().is_empty()
        && results.iter().all(|r| !used.contains(r))
        && !results.is_empty()
}

fn count_removable(r: &Region, used: &HashSet<Value>) -> usize {
    let mut n = 0;
    r.walk(&mut |op| {
        if is_dead(&op.kind, &op.results, used) {
            n += 1;
        }
    });
    n
}

fn remove_dead(r: &mut Region, used: &HashSet<Value>) {
    r.ops.retain(|op| !is_dead(&op.kind, &op.results, used));
    for op in &mut r.ops {
        for nested in op.kind.regions_mut() {
            remove_dead(nested, used);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::interp::interpret;
    use crate::mem::{BufferData, Buffers, CountingModel, V};
    use crate::types::Type;
    use crate::verify::verify;

    /// An SpMV-shaped kernel where the inner loop contains a loop-invariant
    /// bound chain: after LICM the chain must sit outside both loops and
    /// the result must be unchanged.
    #[test]
    fn licm_hoists_bound_chain_out_of_loop_nest() {
        let mut b = FuncBuilder::new("k");
        let pos = b.arg(Type::memref(Type::Index));
        let crd = b.arg(Type::memref(Type::Index));
        let c = b.arg(Type::memref(Type::F64));
        let out = b.arg(Type::memref(Type::F64));
        let n = b.arg(Type::Index);
        let c0 = b.const_index(0);
        let c1 = b.const_index(1);
        b.for_loop(c0, n, c1, &[], |b, i, _| {
            let lo = b.load(pos, i);
            let ip1 = b.addi(i, c1);
            let hi = b.load(pos, ip1);
            b.for_loop(lo, hi, c1, &[], |b, jj, _| {
                // Loop-invariant chain: bound = pos[n] - 1 (pos is read-only).
                let total = b.load(pos, n);
                let bound = b.subi(total, c1);
                let idx = b.minui(jj, bound);
                let j = b.load(crd, idx);
                let v = b.load(c, j);
                b.store(v, out, i);
                vec![]
            });
            vec![]
        });
        let mut f = b.finish();
        verify(&f).unwrap();

        let run = |f: &crate::ops::Function| {
            let mut bufs = Buffers::new();
            let bpos = bufs.add(BufferData::Index(vec![0, 2, 3]));
            let bcrd = bufs.add(BufferData::Index(vec![0, 1, 1]));
            let bc = bufs.add(BufferData::F64(vec![10.0, 20.0]));
            let bout = bufs.add(BufferData::F64(vec![0.0, 0.0]));
            let mut m = CountingModel::default();
            interpret(
                f,
                &[
                    V::Mem(bpos),
                    V::Mem(bcrd),
                    V::Mem(bc),
                    V::Mem(bout),
                    V::Index(2),
                ],
                &mut bufs,
                &mut m,
            )
            .unwrap();
            let out = match &bufs.get(bout).data {
                BufferData::F64(v) => v.clone(),
                _ => unreachable!(),
            };
            (out, m)
        };

        let (before_out, before_m) = run(&f);
        let hoisted = licm(&mut f);
        assert!(
            hoisted >= 2,
            "expected the bound chain to hoist, got {hoisted}"
        );
        verify(&f).unwrap();
        let (after_out, after_m) = run(&f);
        assert_eq!(before_out, after_out);
        // pos[n] was loaded per inner iteration (3×) before; once after.
        assert!(
            after_m.loads < before_m.loads,
            "LICM should reduce dynamic loads: {} -> {}",
            before_m.loads,
            after_m.loads
        );
    }

    #[test]
    fn licm_does_not_hoist_loads_from_written_memrefs() {
        let mut b = FuncBuilder::new("k");
        let a = b.arg(Type::memref(Type::F64));
        let n = b.arg(Type::Index);
        let c0 = b.const_index(0);
        let c1 = b.const_index(1);
        b.for_loop(c0, n, c1, &[], |b, i, _| {
            // a[0] is loop-variant because a is stored to below.
            let v = b.load(a, c0);
            b.store(v, a, i);
            vec![]
        });
        let mut f = b.finish();
        let hoisted = licm(&mut f);
        assert_eq!(hoisted, 0);
    }

    #[test]
    fn licm_does_not_hoist_iv_dependent_ops() {
        let mut b = FuncBuilder::new("k");
        let n = b.arg(Type::Index);
        let out = b.arg(Type::memref(Type::Index));
        let c0 = b.const_index(0);
        let c1 = b.const_index(1);
        b.for_loop(c0, n, c1, &[], |b, i, _| {
            let x = b.addi(i, c1); // depends on iv
            b.store(x, out, i);
            vec![]
        });
        let mut f = b.finish();
        assert_eq!(licm(&mut f), 0);
    }

    #[test]
    fn licm_hoists_through_two_levels() {
        let mut b = FuncBuilder::new("k");
        let n = b.arg(Type::Index);
        let out = b.arg(Type::memref(Type::Index));
        let c0 = b.const_index(0);
        let c1 = b.const_index(1);
        b.for_loop(c0, n, c1, &[], |b, i, _| {
            b.for_loop(c0, n, c1, &[], |b, j, _| {
                let inv = b.addi(n, n); // invariant to both loops
                let s = b.addi(inv, j);
                let si = b.addi(s, i);
                b.store(si, out, j);
                vec![]
            });
            vec![]
        });
        let mut f = b.finish();
        let hoisted = licm(&mut f);
        // `inv` hoists out of inner (1) then outer (1) = counted twice.
        assert_eq!(hoisted, 2);
        verify(&f).unwrap();
        // The invariant add must now be at function body top level.
        let top_kinds: Vec<bool> = f
            .body
            .ops
            .iter()
            .map(|o| matches!(o.kind, OpKind::Binary { .. }))
            .collect();
        assert!(top_kinds.iter().any(|&x| x));
    }

    #[test]
    fn dce_removes_unused_pure_ops() {
        let mut b = FuncBuilder::new("k");
        let x = b.arg(Type::Index);
        let out = b.arg(Type::memref(Type::Index));
        let c0 = b.const_index(0);
        let _dead1 = b.addi(x, x);
        let _dead2 = b.muli(x, x);
        b.store(x, out, c0);
        let mut f = b.finish();
        let n_before = f.op_count();
        let removed = dce(&mut f);
        assert_eq!(removed, 2);
        assert_eq!(f.op_count(), n_before - 2);
        verify(&f).unwrap();
    }

    #[test]
    fn dce_keeps_stores_and_prefetches() {
        let mut b = FuncBuilder::new("k");
        let out = b.arg(Type::memref(Type::Index));
        let c0 = b.const_index(0);
        b.prefetch_read(out, c0, 2);
        b.store(c0, out, c0);
        let mut f = b.finish();
        assert_eq!(dce(&mut f), 0);
    }

    #[test]
    fn dce_is_transitive() {
        let mut b = FuncBuilder::new("k");
        let x = b.arg(Type::Index);
        let a = b.addi(x, x); // only used by `bb`
        let _bb = b.muli(a, a); // unused
        let mut f = b.finish();
        assert_eq!(dce(&mut f), 2);
    }
}
