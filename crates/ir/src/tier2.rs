//! Tier-2 execution: runtime-specialized native kernels.
//!
//! The third execution tier, above the tree-walker (reference) and the
//! register-bytecode VM. At compile time, [`Tier2Plan::from_program`]
//! inspects a lowered [`Program`] for the exact instruction skeleton the
//! sparsifier + LICM/fold/CSE/DCE + lowerer pipeline emits for ASaP CSR
//! SpMV and for the three-deep ASaP CSR SpMM loop nest — one matcher
//! each, at either index width, assembled from shared pieces (prelude,
//! `for` open/close, `pos` pair, coordinate block). The SpMV matcher
//! reads the inner loop's own seven instructions and skips the
//! [`crate::bytecode::SpmvLoop`] guard in front of them. On a match it
//! extracts a *plan*: buffer/argument positions, the ASaP-chosen prefetch
//! distances (resolved from the constant pool), and every op location a
//! trap could be attributed to.
//! At run time the plan dispatches through a generic-template table —
//! one monomorphized Rust loop per (pos index type × crd index type)
//! pair — so the hot loop is direct typed-slice arithmetic with explicit
//! hardware prefetch hints at the baked-in distances and zero
//! per-iteration dispatch.
//!
//! # Observational contract (and the one documented exemption)
//!
//! Tier-2 is bit-exact and error-exact with the other engines:
//!
//! - **outputs** are bit-identical (float accumulation replays the
//!   lowered operand order, including `acc_is_rhs`);
//! - **typed errors** are identical: out-of-bounds traps carry the same
//!   index, length, and op location as the VM, and fuel traps the same
//!   `spent == limit` payload at the same loop op;
//! - **the demand/prefetch event stream is exempt by design**: a native
//!   kernel has no [`crate::MemoryModel`] hook — its memory traffic is
//!   real, not simulated. Callers that need the event stream (the
//!   simulator, trace capture) must use the VM or the tree-walker; the
//!   pipeline's `Auto` engine does exactly that.
//!
//! # Budget enforcement at outer-loop granularity
//!
//! Fuel is metered per *row*: on row entry the plan charges the outer
//! iteration, then bulk-charges the row's inner-iteration count via
//! [`crate::BudgetMeter::tick_n`] **only when the remaining fuel covers it** —
//! in that case no fuel trap can occur mid-row and the hot loop runs
//! unmetered. Otherwise the row runs on a governed per-iteration path
//! that replays the VM's exact trap order (bounds checks before fuel at
//! the same points), so a fuel trap surfaces at the identical iteration
//! and op location as the VM's. Deadline/cancellation polls ride the
//! same tick stream (timing-dependent, excluded from the oracles).

use crate::budget::Budget;
use crate::bytecode::{Instr, Program};
use crate::mem::{BufferData, Buffers, InterpError, V};
use crate::ops::{BinOp, CmpPred, OpId};
use crate::types::Type;
use std::collections::HashMap;

/// A runtime specialization extracted from a lowered [`Program`].
/// `None` from [`Tier2Plan::from_program`] means "shape not recognized —
/// run the VM"; it is never an error.
#[derive(Debug, Clone, PartialEq)]
pub enum Tier2Plan {
    /// ASaP CSR SpMV: `y[i] += Σ vals[j]·x[crd[j]]` with the two
    /// software-prefetch streams.
    Spmv(SpmvPlan),
    /// ASaP CSR SpMM: `Out[i,k] += Σ vals[j]·C[crd[j],k]` with the
    /// outer-loop prefetch streams.
    Spmm(SpmmPlan),
}

impl Tier2Plan {
    /// Recognize a lowered program. Purely structural: every slot, mem
    /// binding, and constant is checked against the exact skeleton the
    /// pipeline emits, so a match guarantees the native kernel computes
    /// the same function (traps included) as the bytecode.
    pub fn from_program(prog: &Program) -> Option<Tier2Plan> {
        match_spmv(prog)
            .map(Tier2Plan::Spmv)
            .or_else(|| match_spmm(prog).map(Tier2Plan::Spmm))
    }

    /// Kernel label for stats and display.
    pub fn label(&self) -> &'static str {
        match self {
            Tier2Plan::Spmv(_) => "spmv",
            Tier2Plan::Spmm(_) => "spmm",
        }
    }

    /// The specialization key: kernel × baked prefetch distances. The
    /// index-width leg of the triple is resolved per run by the template
    /// table (the buffer types select the monomorphized loop).
    pub fn key(&self) -> String {
        match self {
            Tier2Plan::Spmv(p) => format!("spmv:d{}:c{}", p.dist_x, p.dist_crd),
            Tier2Plan::Spmm(p) => format!("spmm:d{}:c{}", p.dist_x, p.dist_crd),
        }
    }

    /// Execute the plan against bound arguments and buffers. The
    /// signature mirrors [`crate::execute_budgeted`] minus the model —
    /// see the module docs for the trace exemption.
    pub fn run(
        &self,
        args: &[V],
        bufs: &mut Buffers,
        budget: &Budget,
    ) -> Result<Vec<V>, InterpError> {
        match self {
            Tier2Plan::Spmv(p) => run_spmv(p, args, bufs, budget),
            Tier2Plan::Spmm(p) => run_spmm(p, args, bufs, budget),
        }
    }
}

/// Extracted SpMV specialization: argument positions, baked distances,
/// and the op locations every possible trap is attributed to.
#[derive(Debug, Clone, PartialEq)]
pub struct SpmvPlan {
    /// Argument positions (indices into the `args` slice).
    pub nrows_arg: usize,
    pub pos_arg: usize,
    pub y_arg: usize,
    pub crd_arg: usize,
    pub x_arg: usize,
    pub vals_arg: usize,
    /// Clamp distance for the gathered `x` stream (the paper's *d*).
    pub dist_x: usize,
    /// Distance of the sequential `crd` stream prefetch (2·*d*).
    pub dist_crd: usize,
    /// Whether the accumulator was the rhs of the fused `addf`.
    pub acc_is_rhs: bool,
    // Trap locations (op ids of the source function).
    pre_pos_pc: OpId,
    outer_pc: OpId,
    y_pc: OpId,
    pos_lo_pc: OpId,
    pos_hi_pc: OpId,
    inner_pc: OpId,
    lc_pc: OpId,
    gp_crd_pc: OpId,
    ds_a_pc: OpId,
    ds_b_pc: OpId,
}

/// Extracted SpMM specialization (three-deep loop nest).
#[derive(Debug, Clone, PartialEq)]
pub struct SpmmPlan {
    pub nrows_arg: usize,
    pub k_arg: usize,
    pub pos_arg: usize,
    pub crd_arg: usize,
    pub c_arg: usize,
    pub vals_arg: usize,
    pub out_arg: usize,
    pub dist_x: usize,
    pub dist_crd: usize,
    pre_pos_pc: OpId,
    outer_pc: OpId,
    pos_lo_pc: OpId,
    pos_hi_pc: OpId,
    mid_pc: OpId,
    crd_pc: OpId,
    gp_crd_pc: OpId,
    vals_pc: OpId,
    inner_pc: OpId,
    c_pc: OpId,
    out_pc: OpId,
}

/// The prelude every matched program starts with: index constants, the
/// hoisted `pos[nrows]` load, and the `bound = nnz - 1` subtract, ending
/// at the outer `ForPrologue`.
struct Prelude {
    /// Constant pool: slot → index literal.
    consts: HashMap<u32, usize>,
    /// The hoisted pos load: binding, index slot (`nrows`) and location.
    pos_mem: u16,
    pos_idx: u32,
    pos_pc: OpId,
    /// Slot holding `bound = pos[nrows] - 1`.
    bound: u32,
}

impl Prelude {
    /// Whether `slot` holds the index constant `k`.
    fn is(&self, slot: u32, k: usize) -> bool {
        self.consts.get(&slot) == Some(&k)
    }
}

/// A read position in the instruction stream. The matchers consume the
/// skeleton front to back; branch targets are checked against positions
/// recorded on the way.
struct Cursor<'a> {
    ins: &'a [Instr],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn next(&mut self) -> Option<&'a Instr> {
        let i = self.ins.get(self.at)?;
        self.at += 1;
        Some(i)
    }

    /// Consume the next instruction if `f` accepts it.
    fn eat<T>(&mut self, f: impl FnOnce(&'a Instr) -> Option<T>) -> Option<T> {
        let t = f(self.ins.get(self.at)?)?;
        self.at += 1;
        Some(t)
    }

    /// `Bin` of the given op, as `(dst, lhs, rhs)`.
    fn bin(&mut self, want: BinOp) -> Option<(u32, u32, u32)> {
        match self.next()? {
            Instr::Bin {
                op, dst, lhs, rhs, ..
            } if *op == want => Some((*dst, *lhs, *rhs)),
            _ => None,
        }
    }

    /// A plain `Load`, as `(mem, idx_slot, dst, load_pc)`.
    fn load(&mut self) -> Option<(u16, u32, u32, OpId)> {
        match self.next()? {
            Instr::Load { dst, mem, idx, pc } => Some((*mem, *idx, *dst, *pc)),
            _ => None,
        }
    }
}

/// Scan the prelude and leave the cursor on the outer `ForPrologue`.
fn scan_prelude(prog: &Program) -> Option<(Prelude, Cursor<'_>)> {
    let mut consts = HashMap::new();
    let mut pre_load = None;
    let mut bound = None;
    for (at, ins) in prog.instrs.iter().enumerate() {
        match ins {
            Instr::Const {
                dst,
                val: V::Index(k),
            } => {
                consts.insert(*dst, *k);
            }
            Instr::Bin {
                op: BinOp::SubI,
                dst,
                lhs,
                rhs,
                ..
            } if bound.is_none() && consts.get(rhs) == Some(&1) => bound = Some((*dst, *lhs)),
            Instr::ForPrologue { .. } => {
                // `bound` is computed from the hoisted `pos[nrows]`.
                let (pos_mem, pos_idx, pos_val, pos_pc) = pre_load?;
                let (bound, bound_lhs) = bound?;
                let pre = Prelude {
                    consts,
                    pos_mem,
                    pos_idx,
                    pos_pc,
                    bound,
                };
                let ins = &prog.instrs;
                return (bound_lhs == pos_val).then_some((pre, Cursor { ins, at }));
            }
            other if pre_load.is_none() => pre_load = Some(load_like(other)?),
            _ => return None,
        }
    }
    None
}

/// Argument position of the parameter held in `slot`, if it is one.
fn arg_of(prog: &Program, slot: u32) -> Option<usize> {
    prog.param_slots.iter().position(|&s| s == slot)
}

/// Argument position backing buffer-binding-table entry `mem`.
fn mem_arg(prog: &Program, mem: u16) -> Option<usize> {
    prog.mem_args.get(mem as usize).copied()
}

/// A pos/crd element load with or without the widening cast, as
/// `(mem, idx_slot, value_slot, load_pc)`. U32-width kernels lower the
/// index loads to `LoadCast` (the cast to `index` carries the value);
/// index-width kernels load it directly and the destination is the
/// value slot. This is the whole difference between the two widths.
fn load_like(ins: &Instr) -> Option<(u16, u32, u32, OpId)> {
    match ins {
        Instr::Load { dst, mem, idx, pc } => Some((*mem, *idx, *dst, *pc)),
        Instr::LoadCast {
            mem,
            idx,
            pc,
            cast_dst,
            to: Type::Index,
            ..
        } => Some((*mem, *idx, *cast_dst, *pc)),
        _ => None,
    }
}

/// An opened unit-step `for`: `ForPrologue`, the loop-carried init copy
/// if there is one, `ForHead`. An `SpmvLoop` guard before the head is
/// skipped: it either runs exactly the loop it guards or does nothing
/// (the lowerer's contract), so the loop's own instructions, matched
/// next, are the whole semantics.
struct ForLoop {
    lo: u32,
    hi: u32,
    step: u32,
    iv: u32,
    /// `(dst, src)` of the loop-carried init copy.
    init: Option<(u32, u32)>,
    /// The `scf.for` op: where its fuel traps are located.
    pc: OpId,
    exit: u32,
    /// Position of the first body instruction (the back edge's target).
    body: usize,
}

fn open_for(c: &mut Cursor, pre: &Prelude) -> Option<ForLoop> {
    let Instr::ForPrologue {
        lo, hi, step, iv, ..
    } = c.next()?
    else {
        return None;
    };
    let init = c.eat(|i| match i {
        Instr::Copy { dst, src } => Some((*dst, *src)),
        _ => None,
    });
    c.eat(|i| matches!(i, Instr::SpmvLoop(_)).then_some(()));
    let Instr::ForHead {
        iv: h_iv,
        hi: h_hi,
        exit,
        pc,
    } = c.next()?
    else {
        return None;
    };
    (pre.is(*step, 1) && h_iv == iv && h_hi == hi).then_some(ForLoop {
        lo: *lo,
        hi: *hi,
        step: *step,
        iv: *iv,
        init,
        pc: *pc,
        exit: *exit,
        body: c.at,
    })
}

/// The `LoopBack` closing `l`: same induction slot, step and bound,
/// jumping back to the loop's first body instruction or out to the
/// instruction after itself (where the head exits to as well), charging
/// fuel at the same op, and carrying exactly `copies`.
fn close_for(c: &mut Cursor, l: &ForLoop, copies: &[(u32, u32)]) -> Option<()> {
    let Instr::LoopBack {
        iv,
        step,
        hi,
        body,
        exit,
        copies: carried,
        pc,
    } = c.next()?
    else {
        return None;
    };
    ((*iv, *step, *hi, *pc) == (l.iv, l.step, l.hi, l.pc)
        && *body as usize == l.body
        && *exit == l.exit
        && *exit as usize == c.at
        && carried.as_slice() == copies)
        .then_some(())
}

/// The row-extent pair `pos[i]`, `pos[i + 1]`.
struct PosPair {
    lo: u32,
    hi: u32,
    lo_pc: OpId,
    hi_pc: OpId,
}

fn pos_pair(c: &mut Cursor, pre: &Prelude, iv: u32) -> Option<PosPair> {
    let (lo_mem, lo_idx, lo, lo_pc) = load_like(c.next()?)?;
    let (ip1, a_lhs, a_rhs) = c.bin(BinOp::AddI)?;
    let (hi_mem, hi_idx, hi, hi_pc) = load_like(c.next()?)?;
    ((lo_mem, lo_idx) == (pre.pos_mem, iv)
        && a_lhs == iv
        && pre.is(a_rhs, 1)
        && (hi_mem, hi_idx) == (pre.pos_mem, ip1))
        .then_some(PosPair {
            lo,
            hi,
            lo_pc,
            hi_pc,
        })
}

/// The ASaP coordinate block at the top of the nonzero loop over `jv`:
/// `col = crd[j]`, `prefetch crd[j + dist_crd]`, `clamped = min(j +
/// dist_x, bound)`, `g = crd[clamped]`.
struct CrdBlock {
    mem: u16,
    col: u32,
    crd_pc: OpId,
    dist_crd: usize,
    dist_x: usize,
    /// The gathered coordinate `g` and its load's location.
    g: u32,
    g_pc: OpId,
    /// The dense operand `g` is prefetched from, when the gathered load
    /// came fused with that prefetch (`GatherPrefetch`).
    prefetched: Option<u16>,
}

fn crd_block(c: &mut Cursor, pre: &Prelude, jv: u32) -> Option<CrdBlock> {
    let (mem, c_idx, col, crd_pc) = load_like(c.next()?)?;
    let Instr::AddPrefetch {
        op: BinOp::AddI,
        lhs: ap_lhs,
        rhs: ap_rhs,
        mem: ap_mem,
        write: false,
        ..
    } = c.next()?
    else {
        return None;
    };
    let Instr::ClampSelect {
        op: BinOp::AddI,
        add_dst,
        add_lhs,
        add_rhs,
        pred: CmpPred::Ult,
        cmp_rhs,
        dst: clamped,
        if_true,
        if_false,
        ..
    } = c.next()?
    else {
        return None;
    };
    let (g_mem, g_idx, g, g_pc, prefetched) = match c.next()? {
        Instr::GatherPrefetch {
            idx,
            crd_mem,
            crd_pc,
            cast_dst,
            to: Type::Index,
            mem,
            write: false,
            ..
        } => (*crd_mem, *idx, *cast_dst, *crd_pc, Some(*mem)),
        other => {
            let (g_mem, g_idx, g, g_pc) = load_like(other)?;
            (g_mem, g_idx, g, g_pc, None)
        }
    };
    (c_idx == jv
        && (*ap_lhs, *ap_mem) == (jv, mem)
        && (*add_lhs, *cmp_rhs) == (jv, pre.bound)
        && (if_true, if_false) == (add_dst, cmp_rhs)
        && (g_mem, g_idx) == (mem, *clamped))
        .then_some(CrdBlock {
            mem,
            col,
            crd_pc,
            dist_crd: *pre.consts.get(ap_rhs)?,
            dist_x: *pre.consts.get(add_rhs)?,
            g,
            g_pc,
            prefetched,
        })
}

/// The empty `Return` that ends the program.
fn end_return(c: &mut Cursor) -> Option<()> {
    match c.next()? {
        Instr::Return { vals } if vals.is_empty() && c.at == c.ins.len() => Some(()),
        _ => None,
    }
}

/// The ASaP CSR SpMV skeleton, at either index width: the two differ
/// only where `LoadCast` / `GatherPrefetch` stand for `Load` /
/// `Load`+`Prefetch` (see [`load_like`]). The VM charges one fuel unit
/// per entered iteration at the loop-head pc whether or not the guard
/// ran the loop, so the extracted plan traps identically either way.
fn match_spmv(prog: &Program) -> Option<SpmvPlan> {
    let (pre, mut c) = scan_prelude(prog)?;
    let outer = open_for(&mut c, &pre)?;
    if !pre.is(outer.lo, 0) || pre.pos_idx != outer.hi || outer.init.is_some() {
        return None;
    }
    let (y_mem, y_idx, acc0, y_pc) = c.load()?;
    let row = pos_pair(&mut c, &pre, outer.iv)?;
    let inner = open_for(&mut c, &pre)?;
    let (acc_in, acc_src) = inner.init?;
    if y_idx != outer.iv || (inner.lo, inner.hi) != (row.lo, row.hi) || acc_src != acc0 {
        return None;
    }
    let crd = crd_block(&mut c, &pre, inner.iv)?;
    let pf_mem = match crd.prefetched {
        Some(mem) => mem,
        None => match c.next()? {
            Instr::Prefetch {
                mem,
                idx,
                write: false,
                ..
            } if *idx == crd.g => *mem,
            _ => return None,
        },
    };
    let Instr::DotStep {
        a_dst,
        a_mem: vals_mem,
        a_idx,
        a_pc: ds_a_pc,
        b_dst,
        b_mem: x_mem,
        b_idx,
        b_pc: ds_b_pc,
        a,
        b,
        acc,
        acc_is_rhs,
        dst: ds_dst,
        ..
    } = c.next()?
    else {
        return None;
    };
    // The prefetch targets the dense vector the dot step gathers from,
    // and the gathered index is the coordinate loaded this iteration.
    if (*a_idx, *b_idx) != (inner.iv, crd.col)
        || (a, b) != (a_dst, b_dst)
        || *acc != acc_in
        || *x_mem != pf_mem
    {
        return None;
    }
    close_for(&mut c, &inner, &[(acc_in, *ds_dst)])?;
    let Instr::Copy { dst: res, src } = c.next()? else {
        return None;
    };
    let Instr::Store {
        mem: st_mem,
        idx: st_idx,
        src: st_src,
        ..
    } = c.next()?
    else {
        return None;
    };
    if *src != acc_in || (*st_mem, *st_idx, st_src) != (y_mem, outer.iv, res) {
        return None;
    }
    close_for(&mut c, &outer, &[])?;
    end_return(&mut c)?;
    Some(SpmvPlan {
        nrows_arg: arg_of(prog, outer.hi)?,
        pos_arg: mem_arg(prog, pre.pos_mem)?,
        y_arg: mem_arg(prog, y_mem)?,
        crd_arg: mem_arg(prog, crd.mem)?,
        x_arg: mem_arg(prog, *x_mem)?,
        vals_arg: mem_arg(prog, *vals_mem)?,
        dist_x: crd.dist_x,
        dist_crd: crd.dist_crd,
        acc_is_rhs: *acc_is_rhs,
        pre_pos_pc: pre.pos_pc,
        outer_pc: outer.pc,
        y_pc,
        pos_lo_pc: row.lo_pc,
        pos_hi_pc: row.hi_pc,
        inner_pc: inner.pc,
        lc_pc: crd.crd_pc,
        gp_crd_pc: crd.g_pc,
        ds_a_pc: *ds_a_pc,
        ds_b_pc: *ds_b_pc,
    })
}

/// The three-deep ASaP CSR SpMM nest: rows, nonzeros (with the
/// outer-loop prefetches of `C[crd[·], 0]`), and the `K` columns.
fn match_spmm(prog: &Program) -> Option<SpmmPlan> {
    let (pre, mut c) = scan_prelude(prog)?;
    let outer = open_for(&mut c, &pre)?;
    if !pre.is(outer.lo, 0) || pre.pos_idx != outer.hi || outer.init.is_some() {
        return None;
    }
    let row = pos_pair(&mut c, &pre, outer.iv)?;
    let (rowbase, rb_lhs, k_slot) = c.bin(BinOp::MulI)?;
    let mid = open_for(&mut c, &pre)?;
    if rb_lhs != outer.iv || (mid.lo, mid.hi) != (row.lo, row.hi) || mid.init.is_some() {
        return None;
    }
    let crd = crd_block(&mut c, &pre, mid.iv)?;
    let Instr::AddPrefetch {
        op: BinOp::MulI,
        lhs: gp_lhs,
        rhs: gp_rhs,
        mem: c_mem,
        write: false,
        ..
    } = c.next()?
    else {
        return None;
    };
    let (vals_mem, v_idx, a_slot, vals_pc) = c.load()?;
    let (cbase, cb_lhs, cb_rhs) = c.bin(BinOp::MulI)?;
    if crd.prefetched.is_some()
        || (*gp_lhs, *gp_rhs) != (crd.g, k_slot)
        || v_idx != mid.iv
        || (cb_lhs, cb_rhs) != (crd.col, k_slot)
    {
        return None;
    }
    let inner = open_for(&mut c, &pre)?;
    if !pre.is(inner.lo, 0) || inner.hi != k_slot || inner.init.is_some() {
        return None;
    }
    let (cidx, ci_lhs, ci_rhs) = c.bin(BinOp::AddI)?;
    let (c_mem2, c_idx, c_val, c_pc) = c.load()?;
    let (prod, p_lhs, p_rhs) = c.bin(BinOp::MulF)?;
    let (oidx, o_lhs, o_rhs) = c.bin(BinOp::AddI)?;
    let (out_mem, ol_idx, o_val, out_pc) = c.load()?;
    // `Out[..] + product` — the lowered operand order the native loop
    // replays for bit-exactness.
    let (sum, s_lhs, s_rhs) = c.bin(BinOp::AddF)?;
    let Instr::Store {
        mem: st_mem,
        idx: st_idx,
        src: st_src,
        ..
    } = c.next()?
    else {
        return None;
    };
    if (ci_lhs, ci_rhs) != (cbase, inner.iv)
        || (c_mem2, c_idx) != (*c_mem, cidx)
        || (p_lhs, p_rhs) != (a_slot, c_val)
        || (o_lhs, o_rhs) != (rowbase, inner.iv)
        || ol_idx != oidx
        || (s_lhs, s_rhs) != (o_val, prod)
        || (*st_mem, *st_idx, *st_src) != (out_mem, oidx, sum)
    {
        return None;
    }
    close_for(&mut c, &inner, &[])?;
    close_for(&mut c, &mid, &[])?;
    close_for(&mut c, &outer, &[])?;
    end_return(&mut c)?;
    Some(SpmmPlan {
        nrows_arg: arg_of(prog, outer.hi)?,
        k_arg: arg_of(prog, k_slot)?,
        pos_arg: mem_arg(prog, pre.pos_mem)?,
        crd_arg: mem_arg(prog, crd.mem)?,
        c_arg: mem_arg(prog, *c_mem)?,
        vals_arg: mem_arg(prog, vals_mem)?,
        out_arg: mem_arg(prog, out_mem)?,
        dist_x: crd.dist_x,
        dist_crd: crd.dist_crd,
        pre_pos_pc: pre.pos_pc,
        outer_pc: outer.pc,
        pos_lo_pc: row.lo_pc,
        pos_hi_pc: row.hi_pc,
        mid_pc: mid.pc,
        crd_pc: crd.crd_pc,
        gp_crd_pc: crd.g_pc,
        vals_pc,
        inner_pc: inner.pc,
        c_pc,
        out_pc,
    })
}

// ---------------------------------------------------------------------
// Runtime: the generic-template kernel table.
// ---------------------------------------------------------------------

/// An index element the specialized loops are monomorphized over.
/// `zext` mirrors the VM's `as_u64` widening (zero-extension for the
/// narrow signed storage types).
trait IdxElem: Copy {
    fn zext(self) -> u64;
}

impl IdxElem for i64 {
    #[inline(always)]
    fn zext(self) -> u64 {
        self as u64
    }
}
impl IdxElem for i32 {
    #[inline(always)]
    fn zext(self) -> u64 {
        self as u32 as u64
    }
}
impl IdxElem for i8 {
    #[inline(always)]
    fn zext(self) -> u64 {
        self as u8 as u64
    }
}
impl IdxElem for usize {
    #[inline(always)]
    fn zext(self) -> u64 {
        self as u64
    }
}

/// Issue a best-effort read prefetch for `base[i]`. Never faults: the
/// address is computed with wrapping pointer arithmetic and prefetch
/// instructions are architecturally allowed to target unmapped memory.
/// Compiles to `prefetcht1` on x86-64 (matching the IR's locality-2
/// hint) and to nothing elsewhere.
#[inline(always)]
fn prefetch_read<T>(base: &[T], i: usize) {
    // The only `unsafe` in the workspace (the serve/obs/fuzz crates
    // carry `#![forbid(unsafe_code)]`); the invariants it rests on are
    // spelled out below and cross-checked in debug builds.
    debug_assert!(
        std::mem::size_of::<T>() > 0,
        "prefetch of a ZST slice is meaningless (every element is one address)"
    );
    debug_assert!(
        i.checked_mul(std::mem::size_of::<T>()).is_some(),
        "prefetch offset {i} * {} overflows the address computation",
        std::mem::size_of::<T>()
    );
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` never dereferences its argument — it is a
    // hint to the cache hierarchy, and the ISA defines PREFETCHh as
    // non-faulting for any address, mapped or not (Intel SDM vol. 2B:
    // "does not cause page faults"). The address itself is computed
    // with `wrapping_add`, which is defined for any offset (unlike
    // `add`, it carries no in-bounds provenance obligation), so an `i`
    // past `base.len()` — which the ASaP distance schedule produces
    // near the end of every row by design — yields at worst a useless
    // hint, never UB and never a fault. No reference is formed and no
    // memory is read or written.
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T1};
        let p = base.as_ptr().wrapping_add(i) as *const i8;
        _mm_prefetch::<_MM_HINT_T1>(p);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (base, i);
    }
}

#[inline]
fn oob(index: usize, len: usize, pc: OpId) -> InterpError {
    InterpError::OutOfBounds { index, len }.at(pc)
}

#[inline]
fn fuel(e: crate::budget::BudgetError, pc: OpId) -> InterpError {
    InterpError::Budget(e).at(pc)
}

/// The `args` slice is shorter than the plan's highest argument
/// position — mirrors the VM's argument-count check.
fn bad_args(pos: usize, got: usize) -> InterpError {
    InterpError::BadArgs(format!(
        "tier-2 plan expects at least {} arguments, got {got}",
        pos + 1
    ))
}

/// Resolve `args[pos]` to its buffer id, trapping like the VM's lazy
/// `MemBinding::Bad` (a type mismatch at the first use site).
fn mem_id(args: &[V], pos: usize, pc: OpId) -> Result<u32, InterpError> {
    match args.get(pos) {
        Some(V::Mem(id)) => Ok(*id),
        Some(v) => Err(V::mismatch("memref", *v).at(pc)),
        None => Err(bad_args(pos, args.len())),
    }
}

/// Borrow an f64 slice, trapping on a differently-typed buffer.
fn f64_slice<'a>(bufs: &'a Buffers, id: u32, what: &str) -> Result<&'a [f64], InterpError> {
    match &bufs.get(id).data {
        BufferData::F64(v) => Ok(&v[..]),
        other => Err(InterpError::TypeMismatch(format!(
            "tier-2 {what} buffer must be f64, got {}",
            other.elem_type()
        ))),
    }
}

/// Expand a two-way typed dispatch over the (pos, crd) buffer types —
/// the 16-entry generic-template table. Each arm monomorphizes the
/// kernel body for one index-width pair, so the selected loop carries no
/// per-element dispatch at all.
macro_rules! dispatch2 {
    ($pos:expr, $crd:expr, |$pv:ident, $cv:ident| $body:expr) => {
        match ($pos, $crd) {
            (BufferData::I64($pv), BufferData::I64($cv)) => $body,
            (BufferData::I64($pv), BufferData::I32($cv)) => $body,
            (BufferData::I64($pv), BufferData::I8($cv)) => $body,
            (BufferData::I64($pv), BufferData::Index($cv)) => $body,
            (BufferData::I32($pv), BufferData::I64($cv)) => $body,
            (BufferData::I32($pv), BufferData::I32($cv)) => $body,
            (BufferData::I32($pv), BufferData::I8($cv)) => $body,
            (BufferData::I32($pv), BufferData::Index($cv)) => $body,
            (BufferData::I8($pv), BufferData::I64($cv)) => $body,
            (BufferData::I8($pv), BufferData::I32($cv)) => $body,
            (BufferData::I8($pv), BufferData::I8($cv)) => $body,
            (BufferData::I8($pv), BufferData::Index($cv)) => $body,
            (BufferData::Index($pv), BufferData::I64($cv)) => $body,
            (BufferData::Index($pv), BufferData::I32($cv)) => $body,
            (BufferData::Index($pv), BufferData::I8($cv)) => $body,
            (BufferData::Index($pv), BufferData::Index($cv)) => $body,
            _ => unreachable!("f64 coordinate buffers rejected above"),
        }
    };
}

/// Run the SpMV plan. `y` is temporarily taken out of the arena so the
/// output can be written through a typed slice while the read-only
/// operands stay borrowed; it is restored before returning on every
/// path, success or trap.
fn run_spmv(
    plan: &SpmvPlan,
    args: &[V],
    bufs: &mut Buffers,
    budget: &Budget,
) -> Result<Vec<V>, InterpError> {
    let nrows = match args.get(plan.nrows_arg) {
        Some(v) => v.as_index().map_err(|e| e.at(plan.pre_pos_pc))?,
        None => return Err(bad_args(plan.nrows_arg, args.len())),
    };
    let pos_id = mem_id(args, plan.pos_arg, plan.pre_pos_pc)?;
    let y_id = mem_id(args, plan.y_arg, plan.y_pc)?;
    let crd_id = mem_id(args, plan.crd_arg, plan.lc_pc)?;
    let x_id = mem_id(args, plan.x_arg, plan.ds_b_pc)?;
    let vals_id = mem_id(args, plan.vals_arg, plan.ds_a_pc)?;
    if [pos_id, crd_id, x_id, vals_id].contains(&y_id) {
        return Err(InterpError::TypeMismatch(
            "tier-2 output buffer aliases an input".into(),
        ));
    }
    // Take the output out of the arena (restored below, on every path).
    debug_assert!(
        !bufs.is_shared(y_id),
        "the output is bound owned: nothing to copy"
    );
    let taken = std::mem::replace(&mut bufs.get_mut(y_id).data, BufferData::F64(Vec::new()));
    let BufferData::F64(mut y) = taken else {
        let t = taken.elem_type();
        bufs.get_mut(y_id).data = taken;
        return Err(InterpError::TypeMismatch(format!(
            "tier-2 output buffer must be f64, got {t}"
        )));
    };
    let result = (|| -> Result<(), InterpError> {
        let vals = f64_slice(bufs, vals_id, "vals")?;
        let x = f64_slice(bufs, x_id, "x")?;
        match (&bufs.get(pos_id).data, &bufs.get(crd_id).data) {
            (BufferData::F64(_), _) | (_, BufferData::F64(_)) => Err(InterpError::TypeMismatch(
                "tier-2 coordinate buffers must be integer-typed".into(),
            )),
            (pos, crd) => dispatch2!(pos, crd, |pv, cv| spmv_rows(
                plan, nrows, pv, cv, vals, x, &mut y, budget
            )),
        }
    })();
    bufs.get_mut(y_id).data = BufferData::F64(y);
    result.map(|()| Vec::new())
}

/// The monomorphized SpMV kernel: one specialization per (pos, crd)
/// index-type pair, selected by [`dispatch2!`].
// `p + acc` vs `acc + p` replays the original `addf` operand order:
// f64 addition is commutative in value but not in NaN-payload
// propagation, and equivalence with the interpreters is bit-exact.
#[allow(clippy::too_many_arguments, clippy::if_same_then_else)]
fn spmv_rows<P: IdxElem, C: IdxElem>(
    plan: &SpmvPlan,
    nrows: usize,
    pos: &[P],
    crd: &[C],
    vals: &[f64],
    x: &[f64],
    y: &mut [f64],
    budget: &Budget,
) -> Result<(), InterpError> {
    // Hoisted bound chain: `bound = pos[nrows] - 1`, trap-equivalent to
    // the VM's prelude `LoadCast` + `SubI`.
    let nnz = pos
        .get(nrows)
        .ok_or_else(|| oob(nrows, pos.len(), plan.pre_pos_pc))?
        .zext() as usize;
    let bound = nnz.wrapping_sub(1);
    let mut meter = budget.meter();
    for i in 0..nrows {
        // Outer loop entry: one fuel unit, trap at the outer `scf.for`.
        meter.tick().map_err(|e| fuel(e, plan.outer_pc))?;
        let acc0 = *y.get(i).ok_or_else(|| oob(i, y.len(), plan.y_pc))?;
        let lo = pos
            .get(i)
            .ok_or_else(|| oob(i, pos.len(), plan.pos_lo_pc))?
            .zext() as usize;
        let ip1 = i.wrapping_add(1);
        let hi = pos
            .get(ip1)
            .ok_or_else(|| oob(ip1, pos.len(), plan.pos_hi_pc))?
            .zext() as usize;
        let t = hi.saturating_sub(lo) as u64;
        let mut acc = acc0;
        // Row dispatch: bulk-meter and run the unchecked hot loop only
        // when (a) the remaining fuel covers every inner iteration (no
        // mid-row fuel trap possible) and (b) the coordinate and value
        // streams are in bounds for the whole row (the clamp guarantees
        // `clamped <= bound`). Otherwise the governed path replays the
        // VM's per-iteration metering and trap order exactly.
        if t > 0
            && meter.fuel_remaining() >= t
            && hi <= crd.len()
            && hi <= vals.len()
            && bound < crd.len()
        {
            meter.tick_n(t).map_err(|e| fuel(e, plan.inner_pc))?;
            for j in lo..hi {
                let col = crd[j].zext() as usize;
                prefetch_read(crd, j.wrapping_add(plan.dist_crd));
                let sum = j.wrapping_add(plan.dist_x);
                let clamped = if sum < bound { sum } else { bound };
                let g = crd[clamped].zext() as usize;
                prefetch_read(x, g);
                let av = vals[j];
                let xv = *x.get(col).ok_or_else(|| oob(col, x.len(), plan.ds_b_pc))?;
                let p = av * xv;
                acc = if plan.acc_is_rhs { p + acc } else { acc + p };
            }
        } else {
            let mut j = lo;
            while j < hi {
                meter.tick().map_err(|e| fuel(e, plan.inner_pc))?;
                let col = crd
                    .get(j)
                    .ok_or_else(|| oob(j, crd.len(), plan.lc_pc))?
                    .zext() as usize;
                prefetch_read(crd, j.wrapping_add(plan.dist_crd));
                let sum = j.wrapping_add(plan.dist_x);
                let clamped = if sum < bound { sum } else { bound };
                let g = crd
                    .get(clamped)
                    .ok_or_else(|| oob(clamped, crd.len(), plan.gp_crd_pc))?
                    .zext() as usize;
                prefetch_read(x, g);
                let av = *vals
                    .get(j)
                    .ok_or_else(|| oob(j, vals.len(), plan.ds_a_pc))?;
                let xv = *x.get(col).ok_or_else(|| oob(col, x.len(), plan.ds_b_pc))?;
                let p = av * xv;
                acc = if plan.acc_is_rhs { p + acc } else { acc + p };
                j = j.wrapping_add(1);
            }
        }
        // `y[i]` was bounds-checked by the row's initial load.
        y[i] = acc;
    }
    Ok(())
}

/// Run the SpMM plan (same structure as [`run_spmv`]; the dense output
/// matrix is taken out of the arena for the duration).
fn run_spmm(
    plan: &SpmmPlan,
    args: &[V],
    bufs: &mut Buffers,
    budget: &Budget,
) -> Result<Vec<V>, InterpError> {
    let nrows = match args.get(plan.nrows_arg) {
        Some(v) => v.as_index().map_err(|e| e.at(plan.pre_pos_pc))?,
        None => return Err(bad_args(plan.nrows_arg, args.len())),
    };
    let k = match args.get(plan.k_arg) {
        Some(v) => v.as_index().map_err(|e| e.at(plan.inner_pc))?,
        None => return Err(bad_args(plan.k_arg, args.len())),
    };
    let pos_id = mem_id(args, plan.pos_arg, plan.pre_pos_pc)?;
    let crd_id = mem_id(args, plan.crd_arg, plan.crd_pc)?;
    let c_id = mem_id(args, plan.c_arg, plan.c_pc)?;
    let vals_id = mem_id(args, plan.vals_arg, plan.vals_pc)?;
    let out_id = mem_id(args, plan.out_arg, plan.out_pc)?;
    if [pos_id, crd_id, c_id, vals_id].contains(&out_id) {
        return Err(InterpError::TypeMismatch(
            "tier-2 output buffer aliases an input".into(),
        ));
    }
    debug_assert!(
        !bufs.is_shared(out_id),
        "the output is bound owned: nothing to copy"
    );
    let taken = std::mem::replace(&mut bufs.get_mut(out_id).data, BufferData::F64(Vec::new()));
    let BufferData::F64(mut out) = taken else {
        let t = taken.elem_type();
        bufs.get_mut(out_id).data = taken;
        return Err(InterpError::TypeMismatch(format!(
            "tier-2 output buffer must be f64, got {t}"
        )));
    };
    let result = (|| -> Result<(), InterpError> {
        let vals = f64_slice(bufs, vals_id, "vals")?;
        let cmat = f64_slice(bufs, c_id, "dense")?;
        match (&bufs.get(pos_id).data, &bufs.get(crd_id).data) {
            (BufferData::F64(_), _) | (_, BufferData::F64(_)) => Err(InterpError::TypeMismatch(
                "tier-2 coordinate buffers must be integer-typed".into(),
            )),
            (pos, crd) => dispatch2!(pos, crd, |pv, cv| spmm_rows(
                plan, nrows, k, pv, cv, vals, cmat, &mut out, budget
            )),
        }
    })();
    bufs.get_mut(out_id).data = BufferData::F64(out);
    result.map(|()| Vec::new())
}

/// The monomorphized SpMM kernel.
#[allow(clippy::too_many_arguments)]
fn spmm_rows<P: IdxElem, C: IdxElem>(
    plan: &SpmmPlan,
    nrows: usize,
    k: usize,
    pos: &[P],
    crd: &[C],
    vals: &[f64],
    cmat: &[f64],
    out: &mut [f64],
    budget: &Budget,
) -> Result<(), InterpError> {
    let nnz = pos
        .get(nrows)
        .ok_or_else(|| oob(nrows, pos.len(), plan.pre_pos_pc))?
        .zext() as usize;
    let bound = nnz.wrapping_sub(1);
    let mut meter = budget.meter();
    // Per-middle-iteration fuel cost: the middle loop entry plus the
    // K-long innermost loop.
    let mid_cost = 1u64.saturating_add(k as u64);
    for i in 0..nrows {
        meter.tick().map_err(|e| fuel(e, plan.outer_pc))?;
        let lo = pos
            .get(i)
            .ok_or_else(|| oob(i, pos.len(), plan.pos_lo_pc))?
            .zext() as usize;
        let ip1 = i.wrapping_add(1);
        let hi = pos
            .get(ip1)
            .ok_or_else(|| oob(ip1, pos.len(), plan.pos_hi_pc))?
            .zext() as usize;
        let rowbase = i.wrapping_mul(k);
        let mut j = lo;
        while j < hi {
            // The middle body is O(1); always run it fully checked in
            // the VM's trap order.
            let bulk = meter.fuel_remaining() >= mid_cost;
            if bulk {
                meter.tick_n(mid_cost).map_err(|e| fuel(e, plan.mid_pc))?;
            } else {
                meter.tick().map_err(|e| fuel(e, plan.mid_pc))?;
            }
            let col = crd
                .get(j)
                .ok_or_else(|| oob(j, crd.len(), plan.crd_pc))?
                .zext() as usize;
            prefetch_read(crd, j.wrapping_add(plan.dist_crd));
            let sum = j.wrapping_add(plan.dist_x);
            let clamped = if sum < bound { sum } else { bound };
            let g = crd
                .get(clamped)
                .ok_or_else(|| oob(clamped, crd.len(), plan.gp_crd_pc))?
                .zext() as usize;
            prefetch_read(cmat, g.wrapping_mul(k));
            let a = *vals
                .get(j)
                .ok_or_else(|| oob(j, vals.len(), plan.vals_pc))?;
            let cbase = col.wrapping_mul(k);
            let c_end = cbase.checked_add(k);
            let o_end = rowbase.checked_add(k);
            match (bulk, c_end, o_end) {
                (true, Some(ce), Some(oe)) if ce <= cmat.len() && oe <= out.len() => {
                    // Hot innermost loop: fuel already charged, rows of
                    // C and Out proven in bounds.
                    let cs = &cmat[cbase..ce];
                    let os = &mut out[rowbase..oe];
                    for (o, c) in os.iter_mut().zip(cs) {
                        *o += a * c;
                    }
                }
                (true, _, _) => {
                    // Fuel charged in bulk, but a row slice may leave
                    // the buffers: per-element checks with the VM's trap
                    // order and locations.
                    for kk in 0..k {
                        let cidx = cbase.wrapping_add(kk);
                        let c = *cmat
                            .get(cidx)
                            .ok_or_else(|| oob(cidx, cmat.len(), plan.c_pc))?;
                        let p = a * c;
                        let oidx = rowbase.wrapping_add(kk);
                        let o = *out
                            .get(oidx)
                            .ok_or_else(|| oob(oidx, out.len(), plan.out_pc))?;
                        out[oidx] = o + p;
                    }
                }
                (false, _, _) => {
                    // Governed path: the fuel trap must land on the
                    // exact innermost iteration the VM would trap on.
                    for kk in 0..k {
                        meter.tick().map_err(|e| fuel(e, plan.inner_pc))?;
                        let cidx = cbase.wrapping_add(kk);
                        let c = *cmat
                            .get(cidx)
                            .ok_or_else(|| oob(cidx, cmat.len(), plan.c_pc))?;
                        let p = a * c;
                        let oidx = rowbase.wrapping_add(kk);
                        let o = *out
                            .get(oidx)
                            .ok_or_else(|| oob(oidx, out.len(), plan.out_pc))?;
                        out[oidx] = o + p;
                    }
                }
            }
            j = j.wrapping_add(1);
        }
    }
    Ok(())
}
