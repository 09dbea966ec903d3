//! The register VM executing lowered [`Program`]s.
//!
//! [`execute`] is observationally identical to [`crate::interpret`] on the
//! same function and inputs: same return values bit for bit, same buffer
//! contents, same ordered [`MemoryModel`] call stream (including event
//! order around traps — a load's demand event is still reported before
//! its bounds check), and same trap errors with the same op locations.
//! What changes is the cost per retired instruction: values live in a flat
//! slot file without `Option` unwrapping, buffer base addresses and
//! element widths are resolved once per execution instead of per access,
//! control flow is jump-threaded instead of recursive, and loop-carried
//! values move through register copies instead of a `Vec` allocation per
//! iteration. Op-id attachment to trap errors happens only on the error
//! path.
//!
//! The ASaP sparse inner loop additionally sits behind a guard
//! ([`Instr::SpmvLoop`], [`run_spmv_loop`]): with the operand types
//! `bind` produces, the whole loop runs on typed slices without
//! per-iteration dispatch; with any other typing the guard is a no-op
//! and the loop's own instructions run. The loop is written down once.

use crate::budget::{Budget, BudgetMeter};
use crate::bytecode::{Instr, Program};
use crate::interp::eval_binary;
use crate::mem::{Buffers, InterpError, MemoryModel, Slice, View, V};
use crate::profile::ExecProfile;
use crate::types::Type;

/// A pre-resolved buffer binding: everything a memory access needs except
/// the (mutable) element storage itself.
#[derive(Clone, Copy)]
enum MemBinding {
    Buf {
        id: u32,
        base: u64,
        eb: u8,
    },
    /// The argument was not a memref; trap lazily at first use, exactly
    /// like the tree-walker's `as_mem`.
    Bad(V),
}

impl MemBinding {
    #[inline]
    fn resolve(self) -> Result<(u32, u64, u8), InterpError> {
        match self {
            MemBinding::Buf { id, base, eb } => Ok((id, base, eb)),
            MemBinding::Bad(v) => Err(V::mismatch("memref", v)),
        }
    }
}

/// Run a lowered program with the given arguments against `bufs`,
/// reporting events to `model`. The generic parameter allows both
/// monomorphized models and `&mut dyn MemoryModel`.
pub fn execute<M: MemoryModel + ?Sized>(
    prog: &Program,
    args: &[V],
    bufs: &mut Buffers,
    model: &mut M,
) -> Result<Vec<V>, InterpError> {
    execute_budgeted(prog, args, bufs, model, &Budget::unlimited())
}

/// [`execute`] under a resource [`Budget`].
///
/// Fuel is charged once per *entered* loop iteration and once per
/// `scf.while` condition evaluation — the same points, in the same
/// event-stream positions (before the iteration's bookkeeping retire),
/// as [`crate::interpret_budgeted`]. A trap therefore fires at an
/// observationally equivalent point in both engines: same
/// [`InterpError::Budget`] payload, same op location, same
/// [`MemoryModel`] event prefix.
pub fn execute_budgeted<M: MemoryModel + ?Sized>(
    prog: &Program,
    args: &[V],
    bufs: &mut Buffers,
    model: &mut M,
    budget: &Budget,
) -> Result<Vec<V>, InterpError> {
    // PROFILE=false monomorphization: the per-opcode accounting below
    // compiles out entirely, so this path is byte-for-byte the old
    // unprofiled dispatch loop.
    execute_inner::<M, false>(prog, args, bufs, model, budget, &mut ExecProfile::new())
}

/// [`execute_budgeted`] with per-opcode dispatch counts and sampled
/// wall-clock attribution accumulated into `profile` (`asap_cli
/// profile`'s flat flamegraph). Observationally identical to the
/// unprofiled entry point — same results, traps, and model stream.
pub fn execute_budgeted_profiled<M: MemoryModel + ?Sized>(
    prog: &Program,
    args: &[V],
    bufs: &mut Buffers,
    model: &mut M,
    budget: &Budget,
    profile: &mut ExecProfile,
) -> Result<Vec<V>, InterpError> {
    execute_inner::<M, true>(prog, args, bufs, model, budget, profile)
}

// The fused multiply-accumulate arms pick `p + o` vs `o + p` by the
// original operand order: f64 addition is commutative in value but not
// in NaN-payload propagation, and equivalence with the tree-walker is
// bit-exact.
#[allow(clippy::if_same_then_else)]
fn execute_inner<M: MemoryModel + ?Sized, const PROFILE: bool>(
    prog: &Program,
    args: &[V],
    bufs: &mut Buffers,
    model: &mut M,
    budget: &Budget,
    profile: &mut ExecProfile,
) -> Result<Vec<V>, InterpError> {
    let mut meter = budget.meter();
    if args.len() != prog.param_slots.len() {
        return Err(InterpError::BadArgs(format!(
            "expected {} arguments, got {}",
            prog.param_slots.len(),
            args.len()
        )));
    }
    for (i, a) in args.iter().enumerate() {
        if let V::Mem(id) = a {
            if *id as usize >= bufs.len() {
                return Err(InterpError::BadArgs(format!(
                    "argument {i} references buffer {id}, but only {} exist",
                    bufs.len()
                )));
            }
        }
    }
    let mut slots: Vec<V> = vec![V::Index(0); prog.num_slots];
    for (&s, &a) in prog.param_slots.iter().zip(args) {
        slots[s as usize] = a;
    }
    // Resolve the binding table once: base address and element width per
    // memref parameter, instead of a `Buffers::get` + `elem_bytes` per
    // access.
    let mems: Vec<MemBinding> = prog
        .mem_args
        .iter()
        .map(|&pos| match args[pos] {
            V::Mem(id) => {
                let buf = bufs.get(id);
                MemBinding::Buf {
                    id,
                    base: buf.base_addr,
                    eb: buf.data.elem_bytes(),
                }
            }
            other => MemBinding::Bad(other),
        })
        .collect();
    // And the element storage: every buffer's slice, borrowed for the
    // run — mutably where the program has a store to it (which copies a
    // shared buffer now rather than at the first store), so no access
    // goes back through the arena.
    let mut written = vec![false; bufs.len()];
    for instr in &prog.instrs {
        if let Instr::Store { mem, .. } = instr {
            if let MemBinding::Buf { id, .. } = mems[*mem as usize] {
                written[id as usize] = true;
            }
        }
    }
    let mut views = bufs.views(&written);

    let instrs = &prog.instrs[..];
    let mut ip = 0usize;
    loop {
        let Some(instr) = instrs.get(ip) else {
            return Err(InterpError::TypeMismatch(
                "function body did not end in return".into(),
            ));
        };
        ip += 1;
        if PROFILE {
            profile.note(instr.opcode());
        }
        match instr {
            Instr::Const { dst, val } => {
                model.retire(1);
                slots[*dst as usize] = *val;
            }
            Instr::Bin {
                op,
                dst,
                lhs,
                rhs,
                pc,
            } => {
                if op.is_float() {
                    model.retire_fp(1);
                } else {
                    model.retire(1);
                }
                let l = slots[*lhs as usize];
                let r = slots[*rhs as usize];
                slots[*dst as usize] = eval_binary(*op, l, r).map_err(|e| e.at(*pc))?;
            }
            Instr::Cmp {
                pred,
                dst,
                lhs,
                rhs,
                pc,
            } => {
                model.retire(1);
                let l = slots[*lhs as usize].as_u64().map_err(|e| e.at(*pc))?;
                let r = slots[*rhs as usize].as_u64().map_err(|e| e.at(*pc))?;
                use crate::ops::CmpPred::*;
                let b = match pred {
                    Eq => l == r,
                    Ne => l != r,
                    Ult => l < r,
                    Ule => l <= r,
                    Ugt => l > r,
                    Uge => l >= r,
                };
                slots[*dst as usize] = V::Bool(b);
            }
            Instr::Select {
                dst,
                cond,
                if_true,
                if_false,
                pc,
            } => {
                model.retire(1);
                let c = slots[*cond as usize].as_bool().map_err(|e| e.at(*pc))?;
                let src = if c { *if_true } else { *if_false };
                slots[*dst as usize] = slots[src as usize];
            }
            Instr::Cast { dst, src, to, pc } => {
                model.retire(1);
                slots[*dst as usize] =
                    cast_value(slots[*src as usize], to).map_err(|e| e.at(*pc))?;
            }
            Instr::Dim { dst, mem, pc } => {
                model.retire(1);
                let (id, _, _) = mems[*mem as usize].resolve().map_err(|e| e.at(*pc))?;
                slots[*dst as usize] = V::Index(views[id as usize].as_slice().len());
            }
            Instr::Load { dst, mem, idx, pc } => {
                let (id, base, eb) = mems[*mem as usize].resolve().map_err(|e| e.at(*pc))?;
                let i = slots[*idx as usize].as_index().map_err(|e| e.at(*pc))?;
                model.load(*pc, base + i as u64 * eb as u64, eb);
                slots[*dst as usize] = load_elem(&views, id, i).map_err(|e| e.at(*pc))?;
            }
            Instr::Store { mem, idx, src, pc } => {
                let (id, base, eb) = mems[*mem as usize].resolve().map_err(|e| e.at(*pc))?;
                let i = slots[*idx as usize].as_index().map_err(|e| e.at(*pc))?;
                let v = slots[*src as usize];
                model.store(*pc, base + i as u64 * eb as u64, eb);
                views[id as usize].set(i, v).map_err(|e| e.at(*pc))?;
            }
            Instr::Prefetch {
                mem,
                idx,
                locality,
                write,
                pc,
            } => {
                let (_, base, eb) = mems[*mem as usize].resolve().map_err(|e| e.at(*pc))?;
                let i = slots[*idx as usize].as_index().map_err(|e| e.at(*pc))?;
                model.prefetch(*pc, base + i as u64 * eb as u64, *locality, *write);
            }
            Instr::LoadCast {
                dst,
                mem,
                idx,
                pc,
                cast_dst,
                to,
                cast_pc,
            } => {
                let (id, base, eb) = mems[*mem as usize].resolve().map_err(|e| e.at(*pc))?;
                let i = slots[*idx as usize].as_index().map_err(|e| e.at(*pc))?;
                model.load(*pc, base + i as u64 * eb as u64, eb);
                let v = load_elem(&views, id, i).map_err(|e| e.at(*pc))?;
                slots[*dst as usize] = v;
                model.retire(1);
                slots[*cast_dst as usize] = cast_value(v, to).map_err(|e| e.at(*cast_pc))?;
            }
            Instr::AddPrefetch {
                op,
                add_dst,
                lhs,
                rhs,
                add_pc,
                mem,
                locality,
                write,
                pc,
            } => {
                // Matcher guarantees an integer op, so this retires plain.
                model.retire(1);
                let l = slots[*lhs as usize];
                let r = slots[*rhs as usize];
                let sum = eval_binary(*op, l, r).map_err(|e| e.at(*add_pc))?;
                slots[*add_dst as usize] = sum;
                let (_, base, eb) = mems[*mem as usize].resolve().map_err(|e| e.at(*pc))?;
                let i = sum.as_index().map_err(|e| e.at(*pc))?;
                model.prefetch(*pc, base + i as u64 * eb as u64, *locality, *write);
            }
            Instr::ClampSelect {
                op,
                add_dst,
                add_lhs,
                add_rhs,
                add_pc,
                pred,
                cmp_dst,
                cmp_rhs,
                cmp_pc,
                dst,
                if_true,
                if_false,
                // The select condition is the Bool written two sub-ops up,
                // so its `as_bool` cannot trap and the pc goes unused.
                pc: _,
            } => {
                model.retire(1);
                let l = slots[*add_lhs as usize];
                let r = slots[*add_rhs as usize];
                let sum = eval_binary(*op, l, r).map_err(|e| e.at(*add_pc))?;
                slots[*add_dst as usize] = sum;
                model.retire(1);
                let cl = sum.as_u64().map_err(|e| e.at(*cmp_pc))?;
                let cr = slots[*cmp_rhs as usize]
                    .as_u64()
                    .map_err(|e| e.at(*cmp_pc))?;
                use crate::ops::CmpPred::*;
                let b = match pred {
                    Eq => cl == cr,
                    Ne => cl != cr,
                    Ult => cl < cr,
                    Ule => cl <= cr,
                    Ugt => cl > cr,
                    Uge => cl >= cr,
                };
                slots[*cmp_dst as usize] = V::Bool(b);
                model.retire(1);
                let src = if b { *if_true } else { *if_false };
                slots[*dst as usize] = slots[src as usize];
            }
            Instr::GatherPrefetch {
                idx,
                crd_mem,
                crd_dst,
                crd_pc,
                cast_dst,
                to,
                cast_pc,
                mem,
                locality,
                write,
                pc,
            } => {
                let (cid, cbase, ceb) = mems[*crd_mem as usize]
                    .resolve()
                    .map_err(|e| e.at(*crd_pc))?;
                let j = slots[*idx as usize].as_index().map_err(|e| e.at(*crd_pc))?;
                model.load(*crd_pc, cbase + j as u64 * ceb as u64, ceb);
                let cv = load_elem(&views, cid, j).map_err(|e| e.at(*crd_pc))?;
                slots[*crd_dst as usize] = cv;
                model.retire(1);
                let c = cast_value(cv, to).map_err(|e| e.at(*cast_pc))?;
                slots[*cast_dst as usize] = c;
                let (_, base, eb) = mems[*mem as usize].resolve().map_err(|e| e.at(*pc))?;
                let i = c.as_index().map_err(|e| e.at(*pc))?;
                model.prefetch(*pc, base + i as u64 * eb as u64, *locality, *write);
            }
            Instr::LoopBack {
                iv,
                step,
                hi,
                body,
                exit,
                copies,
                pc,
            } => {
                // Yield's bookkeeping retire, then the loop-carried copies.
                model.retire(1);
                for &(d, s) in copies {
                    slots[d as usize] = slots[s as usize];
                }
                // ForStep's increment, then ForHead's bound re-check —
                // same slot reads and trap order as the unfused pair.
                let i = slots[*iv as usize].as_index()?;
                let s = slots[*step as usize].as_index()?;
                let next = i.wrapping_add(s);
                slots[*iv as usize] = V::Index(next);
                let h = slots[*hi as usize].as_index()?;
                if next < h {
                    // Fuel for the next iteration, charged before its
                    // head retire — same point as the tree-walker.
                    meter.tick().map_err(|e| InterpError::Budget(e).at(*pc))?;
                    model.retire(1);
                    ip = *body as usize;
                } else {
                    ip = *exit as usize;
                }
            }
            Instr::DotStep {
                a_dst,
                a_mem,
                a_idx,
                a_pc,
                b_dst,
                b_mem,
                b_idx,
                b_pc,
                a,
                b,
                mul_dst,
                mul_pc,
                acc,
                acc_is_rhs,
                dst,
                pc,
            } => {
                let (id, base, eb) = mems[*a_mem as usize].resolve().map_err(|e| e.at(*a_pc))?;
                let i = slots[*a_idx as usize].as_index().map_err(|e| e.at(*a_pc))?;
                model.load(*a_pc, base + i as u64 * eb as u64, eb);
                slots[*a_dst as usize] = load_elem(&views, id, i).map_err(|e| e.at(*a_pc))?;
                let (id, base, eb) = mems[*b_mem as usize].resolve().map_err(|e| e.at(*b_pc))?;
                let i = slots[*b_idx as usize].as_index().map_err(|e| e.at(*b_pc))?;
                model.load(*b_pc, base + i as u64 * eb as u64, eb);
                slots[*b_dst as usize] = load_elem(&views, id, i).map_err(|e| e.at(*b_pc))?;
                model.retire_fp(1);
                let x = slots[*a as usize].as_f64().map_err(|e| e.at(*mul_pc))?;
                let y = slots[*b as usize].as_f64().map_err(|e| e.at(*mul_pc))?;
                let p = x * y;
                slots[*mul_dst as usize] = V::F64(p);
                model.retire_fp(1);
                let o = slots[*acc as usize].as_f64().map_err(|e| e.at(*pc))?;
                let s = if *acc_is_rhs { p + o } else { o + p };
                slots[*dst as usize] = V::F64(s);
            }
            Instr::Gather {
                idx,
                crd_mem,
                crd_dst,
                crd_pc,
                cast,
                mem,
                dst,
                pc,
            } => {
                // First load: the coordinate.
                let (cid, cbase, ceb) = mems[*crd_mem as usize]
                    .resolve()
                    .map_err(|e| e.at(*crd_pc))?;
                let j = slots[*idx as usize].as_index().map_err(|e| e.at(*crd_pc))?;
                model.load(*crd_pc, cbase + j as u64 * ceb as u64, ceb);
                let cv = load_elem(&views, cid, j).map_err(|e| e.at(*crd_pc))?;
                slots[*crd_dst as usize] = cv;
                // Optional widening cast of the coordinate to `index`.
                let i = match cast {
                    Some((cast_dst, cast_pc)) => {
                        model.retire(1);
                        let raw = cv.as_u64().map_err(|e| e.at(*cast_pc))?;
                        slots[*cast_dst as usize] = V::Index(raw as usize);
                        raw as usize
                    }
                    None => cv.as_index().map_err(|e| e.at(*pc))?,
                };
                // Second load: the gathered element.
                let (id, base, eb) = mems[*mem as usize].resolve().map_err(|e| e.at(*pc))?;
                model.load(*pc, base + i as u64 * eb as u64, eb);
                slots[*dst as usize] = load_elem(&views, id, i).map_err(|e| e.at(*pc))?;
            }
            Instr::MulAdd {
                a,
                b,
                mul_dst,
                mul_pc,
                acc,
                acc_is_rhs,
                dst,
                pc,
            } => {
                model.retire_fp(1);
                let x = slots[*a as usize].as_f64().map_err(|e| e.at(*mul_pc))?;
                let y = slots[*b as usize].as_f64().map_err(|e| e.at(*mul_pc))?;
                let p = x * y;
                slots[*mul_dst as usize] = V::F64(p);
                model.retire_fp(1);
                let o = slots[*acc as usize].as_f64().map_err(|e| e.at(*pc))?;
                let s = if *acc_is_rhs { p + o } else { o + p };
                slots[*dst as usize] = V::F64(s);
            }
            Instr::SpmvLoop(d) => {
                // A guard: run the whole loop typed and skip it, or do
                // nothing and fall into the loop's own instructions.
                if let Some(exit) = run_spmv_loop(d, &mut slots, &mems, &views, model, &mut meter)?
                {
                    ip = exit as usize;
                }
            }
            Instr::Jump { target } => ip = *target as usize,
            Instr::IfBr {
                cond,
                else_target,
                pc,
            } => {
                model.retire(1);
                if !slots[*cond as usize].as_bool().map_err(|e| e.at(*pc))? {
                    ip = *else_target as usize;
                }
            }
            Instr::ForPrologue {
                lo,
                hi,
                step,
                iv,
                pc,
            } => {
                let l = slots[*lo as usize].as_index().map_err(|e| e.at(*pc))?;
                slots[*hi as usize].as_index().map_err(|e| e.at(*pc))?;
                let s = slots[*step as usize].as_index().map_err(|e| e.at(*pc))?;
                if s == 0 {
                    return Err(InterpError::ZeroStep.at(*pc));
                }
                slots[*iv as usize] = V::Index(l);
            }
            Instr::ForHead { iv, hi, exit, pc } => {
                let i = slots[*iv as usize].as_index()?;
                let h = slots[*hi as usize].as_index()?;
                if i < h {
                    // One fuel unit per entered iteration, charged
                    // before the head retire so a trap leaves the same
                    // event prefix as the tree-walker.
                    meter.tick().map_err(|e| InterpError::Budget(e).at(*pc))?;
                    // Loop bookkeeping: induction increment + compare/branch.
                    model.retire(1);
                } else {
                    ip = *exit as usize;
                }
            }
            Instr::ForStep { iv, step, head } => {
                let i = slots[*iv as usize].as_index()?;
                let s = slots[*step as usize].as_index()?;
                slots[*iv as usize] = V::Index(i.wrapping_add(s));
                ip = *head as usize;
            }
            Instr::CondBr { cond, exit, pc } => {
                // Every `scf.while` condition evaluation costs one fuel
                // unit, matching the tree-walker's ConditionOp charge.
                meter.tick().map_err(|e| InterpError::Budget(e).at(*pc))?;
                model.retire(1);
                if !slots[*cond as usize].as_bool().map_err(|e| e.at(*pc))? {
                    ip = *exit as usize;
                }
            }
            Instr::Retire1 => model.retire(1),
            Instr::Copy { dst, src } => slots[*dst as usize] = slots[*src as usize],
            Instr::Return { vals } => {
                model.retire(1);
                return Ok(vals.iter().map(|&v| slots[v as usize]).collect());
            }
        }
    }
}

/// A borrowed integer-typed buffer for the [`run_spmv_loop`] fast path:
/// one discriminant test per element load instead of a `V` round trip.
/// Conversions mirror `BufferData::get` followed by `V::as_u64` exactly
/// (zero-extension for the narrow types, wrap for `i64`).
#[derive(Clone, Copy)]
enum IntSlice<'a> {
    I64(&'a [i64]),
    I32(&'a [i32]),
    I8(&'a [i8]),
    Ix(&'a [usize]),
}

impl<'a> IntSlice<'a> {
    fn of(data: Slice<'a>) -> Option<IntSlice<'a>> {
        match data {
            Slice::I64(v) => Some(IntSlice::I64(v)),
            Slice::I32(v) => Some(IntSlice::I32(v)),
            Slice::I8(v) => Some(IntSlice::I8(v)),
            Slice::Index(v) => Some(IntSlice::Ix(v)),
            Slice::F64(_) => None,
        }
    }

    #[inline]
    fn get_u64(&self, i: usize) -> Option<u64> {
        match self {
            IntSlice::I64(v) => v.get(i).map(|&x| x as u64),
            IntSlice::I32(v) => v.get(i).map(|&x| x as u32 as u64),
            IntSlice::I8(v) => v.get(i).map(|&x| x as u8 as u64),
            IntSlice::Ix(v) => v.get(i).map(|&x| x as u64),
        }
    }

    fn len(&self) -> usize {
        match self {
            IntSlice::I64(v) => v.len(),
            IntSlice::I32(v) => v.len(),
            IntSlice::I8(v) => v.len(),
            IntSlice::Ix(v) => v.len(),
        }
    }
}

/// The [`SpmvLoop`](crate::bytecode::SpmvLoop) guard. Returns the ip to
/// resume at (the loop's exit target) after running the whole loop, or
/// `None` — having made no model call, slot write or fuel charge — when
/// the run-time operands are not the strictly typed ones; the caller then
/// falls into the guarded loop's own instructions, which handle every
/// other typing (and every type trap) one sub-op at a time.
///
/// When it runs, loop values live in locals and typed slices, and the
/// only traps still possible are fuel and out-of-bounds loads, raised
/// with the same error, op location, and preceding event stream as the
/// seven instructions would. The lowerer has checked the dataflow shape
/// and that nothing read once here is written by the loop body.
// `p + acc` vs `acc + p` by original operand order — see `execute`.
#[allow(clippy::if_same_then_else)]
fn run_spmv_loop<M: MemoryModel + ?Sized>(
    d: &crate::bytecode::SpmvLoop,
    slots: &mut [V],
    mems: &[MemBinding],
    views: &[View<'_>],
    model: &mut M,
    meter: &mut BudgetMeter,
) -> Result<Option<u32>, InterpError> {
    // Loop bounds and loop-invariant operands must already hold the types
    // the strict shape produces, so no per-iteration type check can trap;
    // the crd arrays must be integer-typed, vals and the dense vector f64
    // — what `load_elem` + `as_u64`/`as_f64` accept without trapping.
    let typed = (|| {
        let (V::Index(i), V::Index(h), V::Index(st), V::Index(bound), V::F64(acc)) = (
            slots[d.iv as usize],
            slots[d.hi as usize],
            slots[d.step as usize],
            slots[d.cs_cmp_rhs as usize],
            slots[d.ds_acc as usize],
        ) else {
            return None;
        };
        let dist = slots[d.ap_rhs as usize].as_u64().ok()?;
        let clamp = slots[d.cs_add_rhs as usize].as_u64().ok()?;
        let (lc_id, lc_base, lc_eb) = mems[d.lc_mem as usize].resolve().ok()?;
        let (_, ap_base, ap_eb) = mems[d.ap_mem as usize].resolve().ok()?;
        let (gc_id, gc_base, gc_eb) = mems[d.gp_crd_mem as usize].resolve().ok()?;
        let (_, gp_base, gp_eb) = mems[d.gp_mem as usize].resolve().ok()?;
        let (a_id, a_base, a_eb) = mems[d.ds_a_mem as usize].resolve().ok()?;
        let (b_id, b_base, b_eb) = mems[d.ds_b_mem as usize].resolve().ok()?;
        let of = |id: u32| views[id as usize].as_slice();
        let crd = IntSlice::of(of(lc_id))?;
        let gcrd = IntSlice::of(of(gc_id))?;
        let (Slice::F64(vals), Slice::F64(dense)) = (of(a_id), of(b_id)) else {
            return None;
        };
        Some((
            (i, h, st, bound, acc, dist, clamp),
            (lc_base, lc_eb, crd),
            (ap_base, ap_eb),
            (gc_base, gc_eb, gcrd),
            (gp_base, gp_eb),
            (a_base, a_eb, vals),
            (b_base, b_eb, dense),
        ))
    })();
    let Some((
        (mut i, h, st, bound, mut acc, dist, clamp),
        (lc_base, lc_eb, crd),
        (ap_base, ap_eb),
        (gc_base, gc_eb, gcrd),
        (gp_base, gp_eb),
        (a_base, a_eb, vals),
        (b_base, b_eb, dense),
    )) = typed
    else {
        return Ok(None);
    };
    let oob = |i: usize, len: usize, pc| InterpError::OutOfBounds { index: i, len }.at(pc);
    while i < h {
        // Fuel first: one unit per entered iteration, before any model
        // call, so a trap leaves the same event prefix as `ForHead` /
        // `LoopBack` and the tree-walker. This is the only budget cost
        // on the typed-slice path — a decrement and a branch.
        meter.tick().map_err(|e| InterpError::Budget(e).at(d.pc))?;
        // ForHead retire, then the five body sub-ops, then the back
        // edge — every model call in the same order and with the same
        // arguments as the guarded instructions.
        model.retire(1);
        model.load(d.lc_pc, lc_base + i as u64 * lc_eb as u64, lc_eb);
        let Some(j64) = crd.get_u64(i) else {
            return Err(oob(i, crd.len(), d.lc_pc));
        };
        let j = j64 as usize;
        model.retire(1); // crd load retires before the widening cast
        model.retire(1); // prefetch-address add
        let pi = (i as u64).wrapping_add(dist);
        model.prefetch(d.ap_pc, ap_base + pi * ap_eb as u64, d.ap_loc, d.ap_write);
        model.retire(1); // clamp add
        let sum = (i as u64).wrapping_add(clamp);
        model.retire(1); // clamp compare
        let clamped = if sum < bound as u64 {
            sum as usize
        } else {
            bound
        };
        model.retire(1); // clamp select
        model.load(d.gp_crd_pc, gc_base + clamped as u64 * gc_eb as u64, gc_eb);
        let Some(g64) = gcrd.get_u64(clamped) else {
            return Err(oob(clamped, gcrd.len(), d.gp_crd_pc));
        };
        model.retire(1); // gathered-coordinate widening cast
        model.prefetch(d.gp_pc, gp_base + g64 * gp_eb as u64, d.gp_loc, d.gp_write);
        model.load(d.ds_a_pc, a_base + i as u64 * a_eb as u64, a_eb);
        let Some(&av) = vals.get(i) else {
            return Err(oob(i, vals.len(), d.ds_a_pc));
        };
        model.load(d.ds_b_pc, b_base + j as u64 * b_eb as u64, b_eb);
        let Some(&bv) = dense.get(j) else {
            return Err(oob(j, dense.len(), d.ds_b_pc));
        };
        model.retire_fp(1); // multiply
        let p = av * bv;
        model.retire_fp(1); // accumulate
        acc = if d.ds_acc_is_rhs { p + acc } else { acc + p };
        model.retire(1); // back-edge yield
        i = i.wrapping_add(st);
    }
    // Materialize the slots the code after the loop can still read: the
    // accumulator (a loop result) and the loop bookkeeping. The
    // per-iteration intermediates are body-scoped SSA values — the
    // verifier guarantees nothing after the loop references them.
    slots[d.iv as usize] = V::Index(i);
    slots[d.ds_acc as usize] = V::F64(acc);
    slots[d.ds_dst as usize] = V::F64(acc);
    Ok(Some(d.exit))
}

#[inline]
fn load_elem(views: &[View<'_>], id: u32, i: usize) -> Result<V, InterpError> {
    let data = views[id as usize].as_slice();
    data.get(i).ok_or(InterpError::OutOfBounds {
        index: i,
        len: data.len(),
    })
}

#[inline]
fn cast_value(v: V, to: &Type) -> Result<V, InterpError> {
    let raw = v.as_u64()?;
    Ok(match to {
        Type::Index => V::Index(raw as usize),
        Type::I64 => V::I64(raw as i64),
        Type::I32 => V::I32(raw as i32),
        Type::I8 => V::I8(raw as i8),
        Type::I1 => V::Bool(raw != 0),
        other => {
            return Err(InterpError::TypeMismatch(format!(
                "cast to unsupported type {other}"
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Resource;
    use crate::builder::FuncBuilder;
    use crate::bytecode::lower;
    use crate::interp::interpret_budgeted;
    use crate::mem::{BufferData, CountingModel, NullModel};
    use crate::trace::TraceModel;
    use crate::verify::verify;
    use crate::Function;

    /// Run a function under both engines on clones of the same buffers and
    /// assert bit-identical results, buffers, and event streams.
    fn assert_equivalent(f: &Function, args: &[V], bufs: &Buffers) {
        let _ = assert_equivalent_budgeted(f, args, bufs, &Budget::unlimited());
    }

    /// [`assert_equivalent`] under an explicit budget: both engines must
    /// agree on success/trap, payload, op location, event stream, retire
    /// count, and final buffer contents.
    fn assert_equivalent_budgeted(
        f: &Function,
        args: &[V],
        bufs: &Buffers,
        budget: &Budget,
    ) -> Result<Vec<V>, InterpError> {
        verify(f).expect("test functions verify");
        let prog = lower(f).expect("test functions lower");
        let mut b1 = bufs.clone();
        let mut b2 = bufs.clone();
        let mut t1 = TraceModel::new();
        let mut t2 = TraceModel::new();
        let r1 = interpret_budgeted(f, args, &mut b1, &mut t1, budget);
        let r2 = execute_budgeted(&prog, args, &mut b2, &mut t2, budget);
        match (&r1, &r2) {
            (Ok(v1), Ok(v2)) => assert_eq!(v1, v2, "return values differ"),
            (Err(e1), Err(e2)) => assert_eq!(e1, e2, "traps differ"),
            _ => panic!("engines disagree on success: {r1:?} vs {r2:?}"),
        }
        assert_eq!(t1.events, t2.events, "event streams differ");
        assert_eq!(t1.instructions, t2.instructions, "retire counts differ");
        for id in 0..bufs.len() as u32 {
            assert_eq!(b1.get(id).data, b2.get(id).data, "buffer {id} differs");
        }
        r2
    }

    #[test]
    fn dot_product_matches_tree_walker() {
        let mut b = FuncBuilder::new("dot");
        let x = b.arg(Type::memref(Type::F64));
        let y = b.arg(Type::memref(Type::F64));
        let out = b.arg(Type::memref(Type::F64));
        let n = b.arg(Type::Index);
        let c0 = b.const_index(0);
        let c1 = b.const_index(1);
        let zero = b.const_f64(0.0);
        let acc = b.for_loop(c0, n, c1, &[zero], |b, i, args| {
            let xv = b.load(x, i);
            let yv = b.load(y, i);
            let p = b.mulf(xv, yv);
            vec![b.addf(args[0], p)]
        });
        b.store(acc[0], out, c0);
        let f = b.finish();
        let mut bufs = Buffers::new();
        let bx = bufs.add(BufferData::F64(vec![1.0, 2.0, 3.0]));
        let by = bufs.add(BufferData::F64(vec![4.0, 5.0, 6.0]));
        let bo = bufs.add(BufferData::F64(vec![0.0]));
        let args = [V::Mem(bx), V::Mem(by), V::Mem(bo), V::Index(3)];
        assert_equivalent(&f, &args, &bufs);

        // And the bytecode run computes the right value.
        let prog = lower(&f).unwrap();
        let mut m = CountingModel::default();
        execute(&prog, &args, &mut bufs, &mut m).unwrap();
        match &bufs.get(bo).data {
            BufferData::F64(v) => assert_eq!(v[0], 32.0),
            _ => unreachable!(),
        }
        assert_eq!(m.loads, 6);
        assert_eq!(m.stores, 1);
    }

    #[test]
    fn gather_shape_matches_including_cast_retire() {
        let mut b = FuncBuilder::new("gather");
        let crd = b.arg(Type::memref(Type::I32));
        let x = b.arg(Type::memref(Type::F64));
        let out = b.arg(Type::memref(Type::F64));
        let n = b.arg(Type::Index);
        let c0 = b.const_index(0);
        let c1 = b.const_index(1);
        let zero = b.const_f64(0.0);
        let acc = b.for_loop(c0, n, c1, &[zero], |b, j, args| {
            let c = b.load(crd, j);
            let ci = b.to_index(c);
            let xv = b.load(x, ci);
            vec![b.addf(args[0], xv)]
        });
        b.store(acc[0], out, c0);
        let f = b.finish();
        let mut bufs = Buffers::new();
        let bc = bufs.add(BufferData::I32(vec![2, 0, 1]));
        let bx = bufs.add(BufferData::F64(vec![10.0, 20.0, 30.0]));
        let bo = bufs.add(BufferData::F64(vec![0.0]));
        assert_equivalent(
            &f,
            &[V::Mem(bc), V::Mem(bx), V::Mem(bo), V::Index(3)],
            &bufs,
        );
    }

    #[test]
    fn while_and_if_shapes_match() {
        use crate::ops::CmpPred;
        let mut b = FuncBuilder::new("mix");
        let n = b.arg(Type::Index);
        let out = b.arg(Type::memref(Type::Index));
        let c0 = b.const_index(0);
        let c1 = b.const_index(1);
        let c2 = b.const_index(2);
        let r = b.while_loop(
            &[c0, c0],
            |b, args| (b.cmpi(CmpPred::Ult, args[0], n), vec![args[0], args[1]]),
            |b, args| {
                let rem = b.binary(crate::BinOp::RemUI, args[0], c2);
                let is_even = b.cmpi(CmpPred::Eq, rem, c0);
                let inc = b.if_else(is_even, &[Type::Index], |_| vec![c2], |_| vec![c1]);
                vec![b.addi(args[0], c1), b.addi(args[1], inc[0])]
            },
        );
        b.store(r[1], out, c0);
        let f = b.finish();
        let mut bufs = Buffers::new();
        let _ = bufs.add(BufferData::Index(vec![0]));
        assert_equivalent(&f, &[V::Index(9), V::Mem(0)], &bufs);
    }

    #[test]
    fn traps_match_tree_walker_with_locations() {
        // Out-of-bounds load: same error, same op id, and the demand event
        // for the faulting load is still reported first.
        let mut b = FuncBuilder::new("oob");
        let x = b.arg(Type::memref(Type::F64));
        let i = b.arg(Type::Index);
        let out = b.arg(Type::memref(Type::F64));
        let c0 = b.const_index(0);
        let v = b.load(x, i);
        b.store(v, out, c0);
        let f = b.finish();
        let mut bufs = Buffers::new();
        let _ = bufs.add(BufferData::F64(vec![1.0, 2.0]));
        let _ = bufs.add(BufferData::F64(vec![0.0]));
        assert_equivalent(&f, &[V::Mem(0), V::Index(5), V::Mem(1)], &bufs);
    }

    #[test]
    fn zero_step_and_type_mismatch_trap_identically() {
        let mut b = FuncBuilder::new("zs");
        let n = b.arg(Type::Index);
        let step = b.arg(Type::Index);
        let c0 = b.const_index(0);
        b.for_loop(c0, n, step, &[], |_, _, _| vec![]);
        let f = b.finish();
        let bufs = Buffers::new();
        assert_equivalent(&f, &[V::Index(10), V::Index(0)], &bufs);
        assert_equivalent(&f, &[V::F64(1.5), V::Index(1)], &bufs);
    }

    /// A dot-product loop over `n` elements: the canonical fuel consumer.
    fn dot_fn() -> (Function, Buffers) {
        let mut b = FuncBuilder::new("dot");
        let x = b.arg(Type::memref(Type::F64));
        let y = b.arg(Type::memref(Type::F64));
        let out = b.arg(Type::memref(Type::F64));
        let n = b.arg(Type::Index);
        let c0 = b.const_index(0);
        let c1 = b.const_index(1);
        let zero = b.const_f64(0.0);
        let acc = b.for_loop(c0, n, c1, &[zero], |b, i, args| {
            let xv = b.load(x, i);
            let yv = b.load(y, i);
            let p = b.mulf(xv, yv);
            vec![b.addf(args[0], p)]
        });
        b.store(acc[0], out, c0);
        let f = b.finish();
        let mut bufs = Buffers::new();
        bufs.add(BufferData::F64(vec![1.0; 64]));
        bufs.add(BufferData::F64(vec![2.0; 64]));
        bufs.add(BufferData::F64(vec![0.0]));
        (f, bufs)
    }

    #[test]
    fn fuel_trap_is_equivalent_in_both_engines() {
        let (f, bufs) = dot_fn();
        let args = [V::Mem(0), V::Mem(1), V::Mem(2), V::Index(64)];
        // 64 iterations, 10 units of fuel: both engines must trap with
        // the identical error (payload + For-op location) after the
        // identical event prefix.
        let err = assert_equivalent_budgeted(&f, &args, &bufs, &Budget::unlimited().with_fuel(10))
            .unwrap_err();
        let root = err.root().clone();
        match root {
            InterpError::Budget(b) => {
                assert_eq!(b.resource, Resource::Fuel);
                assert_eq!(b.spent, 10);
                assert_eq!(b.limit, 10);
            }
            other => panic!("expected a fuel trap, got {other:?}"),
        }
        assert!(err.op().is_some(), "budget trap carries the loop op id");
    }

    #[test]
    fn exact_fuel_completes_in_both_engines() {
        let (f, bufs) = dot_fn();
        let args = [V::Mem(0), V::Mem(1), V::Mem(2), V::Index(64)];
        // One unit per entered iteration, so exactly 64 suffices.
        assert_equivalent_budgeted(&f, &args, &bufs, &Budget::unlimited().with_fuel(64))
            .expect("64 fuel covers 64 iterations");
        // ... and 63 does not.
        assert_equivalent_budgeted(&f, &args, &bufs, &Budget::unlimited().with_fuel(63))
            .unwrap_err();
    }

    #[test]
    fn while_loop_fuel_charges_per_condition_check() {
        use crate::ops::CmpPred;
        let mut b = FuncBuilder::new("count");
        let n = b.arg(Type::Index);
        let c0 = b.const_index(0);
        let c1 = b.const_index(1);
        b.while_loop(
            &[c0],
            |b, args| (b.cmpi(CmpPred::Ult, args[0], n), vec![args[0]]),
            |b, args| vec![b.addi(args[0], c1)],
        );
        let f = b.finish();
        let bufs = Buffers::new();
        // 8 entered iterations + the final false check = 9 evaluations.
        assert_equivalent_budgeted(&f, &[V::Index(8)], &bufs, &Budget::unlimited().with_fuel(9))
            .expect("9 condition checks fit in 9 fuel");
        assert_equivalent_budgeted(&f, &[V::Index(8)], &bufs, &Budget::unlimited().with_fuel(8))
            .unwrap_err();
    }

    #[test]
    fn cancellation_traps_both_engines_identically() {
        use crate::ops::CmpPred;
        let mut b = FuncBuilder::new("count");
        let n = b.arg(Type::Index);
        let c0 = b.const_index(0);
        let c1 = b.const_index(1);
        b.while_loop(
            &[c0],
            |b, args| (b.cmpi(CmpPred::Ult, args[0], n), vec![args[0]]),
            |b, args| vec![b.addi(args[0], c1)],
        );
        let f = b.finish();
        let bufs = Buffers::new();
        let budget = Budget::unlimited().with_cancellation();
        budget.cancel();
        // 5001 condition checks cross the poll interval, so the shared
        // token is observed and both engines trap identically.
        let err = assert_equivalent_budgeted(&f, &[V::Index(5000)], &bufs, &budget).unwrap_err();
        match err.root() {
            InterpError::Budget(b) => assert_eq!(b.resource, Resource::Cancelled),
            other => panic!("expected a cancellation trap, got {other:?}"),
        }
    }

    #[test]
    fn profiled_execution_is_observationally_identical() {
        let (f, bufs) = dot_fn();
        let args = [V::Mem(0), V::Mem(1), V::Mem(2), V::Index(64)];
        let prog = lower(&f).unwrap();
        let mut b1 = bufs.clone();
        let mut b2 = bufs.clone();
        let mut t1 = TraceModel::new();
        let mut t2 = TraceModel::new();
        let mut profile = ExecProfile::new();
        let r1 = execute_budgeted(&prog, &args, &mut b1, &mut t1, &Budget::unlimited()).unwrap();
        let r2 = execute_budgeted_profiled(
            &prog,
            &args,
            &mut b2,
            &mut t2,
            &Budget::unlimited(),
            &mut profile,
        )
        .unwrap();
        assert_eq!(r1, r2);
        assert_eq!(t1.events, t2.events);
        assert_eq!(t1.instructions, t2.instructions);
        // Every executed instruction was counted, and dispatch counts are
        // deterministic: a second profiled run produces the same profile.
        assert_eq!(
            profile.total_dispatch(),
            prog_dispatches(&prog, &args, &bufs)
        );
        assert!(profile.total_dispatch() > 64, "the loop body was counted");
        let mut b3 = bufs.clone();
        let mut profile2 = ExecProfile::new();
        execute_budgeted_profiled(
            &prog,
            &args,
            &mut b3,
            &mut NullModel,
            &Budget::unlimited(),
            &mut profile2,
        )
        .unwrap();
        assert_eq!(profile.dispatch, profile2.dispatch);
    }

    /// Re-run profiled and return the dispatch total (helper keeping the
    /// main assertion readable).
    fn prog_dispatches(prog: &Program, args: &[V], bufs: &Buffers) -> u64 {
        let mut b = bufs.clone();
        let mut p = ExecProfile::new();
        execute_budgeted_profiled(
            prog,
            args,
            &mut b,
            &mut NullModel,
            &Budget::unlimited(),
            &mut p,
        )
        .unwrap();
        p.total_dispatch()
    }

    /// One row of the ASaP CSR SpMV inner loop, written by hand. With
    /// `offset_is_loaded`, the crd-stream prefetch offset is the
    /// coordinate loaded this iteration rather than a hoisted constant:
    /// the same seven-instruction window, but one the guard's typed run
    /// (which reads the offset once) would get wrong.
    fn asap_row_fn(offset_is_loaded: bool) -> Function {
        use crate::ops::CmpPred;
        let mut b = FuncBuilder::new("row");
        let crd = b.arg(Type::memref(Type::I32));
        let vals = b.arg(Type::memref(Type::F64));
        let x = b.arg(Type::memref(Type::F64));
        let out = b.arg(Type::memref(Type::F64));
        let (lo, hi, bound) = (b.arg(Type::Index), b.arg(Type::Index), b.arg(Type::Index));
        let (c0, c1, c2) = (b.const_index(0), b.const_index(1), b.const_index(2));
        let zero = b.const_f64(0.0);
        let acc = b.for_loop(lo, hi, c1, &[zero], |b, j, args| {
            let c = b.load(crd, j);
            let ci = b.to_index(c);
            let pj = b.addi(j, if offset_is_loaded { ci } else { c2 });
            b.prefetch_read(crd, pj, 2);
            let s = b.addi(j, c1);
            let lt = b.cmpi(CmpPred::Ult, s, bound);
            let clamped = b.select(lt, s, bound);
            let g = b.load(crd, clamped);
            let gi = b.to_index(g);
            b.prefetch_read(x, gi, 2);
            let av = b.load(vals, j);
            let xv = b.load(x, ci);
            let p = b.mulf(av, xv);
            vec![b.addf(args[0], p)]
        });
        b.store(acc[0], out, c0);
        b.finish()
    }

    fn guards(f: &Function) -> usize {
        let prog = lower(f).unwrap();
        let is_guard = |i: &&Instr| matches!(i, Instr::SpmvLoop(_));
        prog.instrs.iter().filter(is_guard).count()
    }

    /// Arguments for [`asap_row_fn`] over a four-nonzero row.
    fn row(crd: BufferData, vals: BufferData, x: BufferData) -> (Vec<V>, Buffers) {
        let mut bufs = Buffers::new();
        let ids = [crd, vals, x, BufferData::F64(vec![0.0])].map(|d| V::Mem(bufs.add(d)));
        let scalars = [V::Index(0), V::Index(4), V::Index(3)];
        (ids.into_iter().chain(scalars).collect(), bufs)
    }

    #[test]
    fn spmv_guard_runs_typed_or_falls_through_identically() {
        let f = asap_row_fn(false);
        assert_eq!(guards(&f), 1, "the strict window gets a guard");
        let crd = || BufferData::I32(vec![2, 0, 1, 2]);
        let f64s = |n: usize| BufferData::F64((0..n).map(|i| i as f64 + 0.5).collect());
        // Strictly typed operands: the guard runs the loop (and traps on
        // fuel and on an out-of-range coordinate like the instructions).
        let (args, bufs) = row(crd(), f64s(4), f64s(3));
        assert_equivalent(&f, &args, &bufs);
        assert_equivalent_budgeted(&f, &args, &bufs, &Budget::unlimited().with_fuel(2))
            .unwrap_err();
        let (args, bufs) = row(BufferData::I32(vec![2, 7, 1, 2]), f64s(4), f64s(3));
        assert_equivalent_budgeted(&f, &args, &bufs, &Budget::unlimited()).unwrap_err();
        // Mistyped operands: the guard declines and the loop's own
        // instructions raise the walker's type trap at the walker's op.
        for (crd, vals, x) in [
            (crd(), f64s(4), BufferData::I8(vec![1; 3])),
            (crd(), BufferData::I8(vec![1; 4]), f64s(3)),
            (BufferData::F64(vec![0.0; 4]), f64s(4), f64s(3)),
        ] {
            let (args, bufs) = row(crd, vals, x);
            let err = assert_equivalent_budgeted(&f, &args, &bufs, &Budget::unlimited());
            assert!(matches!(
                err.unwrap_err().root(),
                InterpError::TypeMismatch(_)
            ));
        }
    }

    #[test]
    fn loop_variant_prefetch_offset_gets_no_guard() {
        let f = asap_row_fn(true);
        assert_eq!(guards(&f), 0, "a body-written operand is not read once");
        let (args, bufs) = row(
            BufferData::I32(vec![2, 0, 1, 2]),
            BufferData::F64(vec![1.0, 2.0, 3.0, 4.0]),
            BufferData::F64(vec![10.0, 20.0, 30.0]),
        );
        assert_equivalent(&f, &args, &bufs);
    }

    /// The sharing contract: a store into an operand bound with
    /// `add_shared` copies it first, so the holder of the `Arc` never sees
    /// the store, and the run — return values, event stream (so every
    /// address), retire count, final contents — is the owned-buffer run's,
    /// under both engines.
    #[test]
    fn a_store_into_a_shared_operand_copies_it_and_spares_the_owner() {
        use std::sync::Arc;
        let mut b = FuncBuilder::new("double_in_place");
        let x = b.arg(Type::memref(Type::F64));
        let n = b.arg(Type::Index);
        let c0 = b.const_index(0);
        let c1 = b.const_index(1);
        b.for_loop(c0, n, c1, &[], |b, i, _| {
            let v = b.load(x, i);
            let d = b.addf(v, v);
            b.store(d, x, i);
            vec![]
        });
        let f = b.finish();
        verify(&f).expect("verifies");
        let prog = lower(&f).expect("lowers");

        let before = vec![1.5, -0.0, f64::from_bits(0x7ff8_0000_0000_1234)];
        let bits = |d: &BufferData| match d {
            BufferData::F64(v) => v.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            other => panic!("{other:?}"),
        };
        let owner = Arc::new(BufferData::F64(before.clone()));
        let mut shared = Buffers::new();
        let id = shared.add_shared(Arc::clone(&owner));
        let mut owned = Buffers::new();
        assert_eq!(owned.add(BufferData::F64(before.clone())), id);
        assert_eq!(shared.get(id).base_addr, owned.get(id).base_addr);
        assert_eq!(shared.bytes_allocated(), owned.bytes_allocated());
        let args = [V::Mem(id), V::Index(before.len())];

        type Run<'a> = &'a dyn Fn(&mut Buffers, &mut TraceModel) -> Result<Vec<V>, InterpError>;
        let tree: Run = &|bufs, m| interpret_budgeted(&f, &args, bufs, m, &Budget::unlimited());
        let vm: Run = &|bufs, m| execute_budgeted(&prog, &args, bufs, m, &Budget::unlimited());
        for (engine, run) in [("tree-walk", tree), ("bytecode", vm)] {
            let (mut s, mut o) = (shared.clone(), owned.clone());
            let (mut ts, mut to) = (TraceModel::new(), TraceModel::new());
            assert_eq!(run(&mut s, &mut ts), run(&mut o, &mut to), "{engine}");
            assert_eq!(ts.events, to.events, "{engine}: events");
            assert_eq!(ts.instructions, to.instructions, "{engine}: retired");
            assert_eq!(
                bits(s.get(id).data),
                bits(o.get(id).data),
                "{engine}: result"
            );
            assert!(!s.is_shared(id), "{engine}: the store unshared the buffer");
            assert_ne!(
                bits(s.get(id).data),
                bits(&owner),
                "{engine}: something was stored"
            );
        }
        assert_eq!(bits(&owner), bits(&BufferData::F64(before)));
        assert!(
            shared.is_shared(id),
            "the arena the runs were cloned from still shares"
        );
    }

    #[test]
    fn bad_args_rejected_up_front() {
        let mut b = FuncBuilder::new("f");
        let _ = b.arg(Type::Index);
        let f = b.finish();
        let prog = lower(&f).unwrap();
        let mut bufs = Buffers::new();
        let err = execute(&prog, &[], &mut bufs, &mut NullModel).unwrap_err();
        assert!(matches!(err, InterpError::BadArgs(_)));
        let err = execute(&prog, &[V::Mem(3)], &mut bufs, &mut NullModel).unwrap_err();
        assert!(matches!(err, InterpError::BadArgs(_)));
    }
}
