//! Lowering verified structured IR into a linear register bytecode.
//!
//! The tree-walking interpreter ([`crate::interpret`]) pays per-op enum
//! dispatch, `Vec<Option<V>>` unwrapping, region recursion and a `Vec`
//! allocation per loop iteration (the `Yield` values). For the figure
//! sweeps that cost dominates wall clock, so this pass flattens a verified
//! [`Function`] into a [`Program`]: straight-line instructions over
//! pre-resolved value slots with jump-threaded control flow, plus fused
//! instructions for the idioms the sparsifier emits: the indirect gather
//! `load b[load crd[j]]`, the multiply–accumulate of the reduction, the
//! loop-counter increment+compare pair, the coordinate load+widen, the
//! distance-offset add+prefetch, the loop-bound clamp
//! (add+compare+select), the indirect prefetch (load+cast+prefetch), and
//! the loop back-edge (retire+copies+step). A loop made of exactly those
//! — the ASaP CSR SpMV inner loop — also gets a whole-loop guard
//! ([`SpmvLoop`]) in front of it, beside the loop rather than instead of
//! it.
//!
//! The contract, enforced by `asap-fuzz`'s four-strategy oracle and the
//! `bytecode_equiv` differential suite, is *exact observational
//! equivalence* with the tree-walker: bit-identical return values and
//! buffer contents, and the identical ordered stream of
//! [`crate::MemoryModel`] calls (loads, stores, prefetches, retires) with
//! the same static [`OpId`]s and addresses. Fusion therefore reduces
//! dispatch, never model calls: a fused multiply–accumulate still issues
//! two `retire_fp(1)` calls, and a fused gather still issues both loads
//! (and the cast's `retire(1)`) in source order.

use crate::mem::V;
use crate::ops::{BinOp, CmpPred, Function, OpId, OpKind, Region, Value};
use crate::types::{Literal, Type};
use std::collections::HashMap;

/// One bytecode instruction. Operands are value *slots* (indices into the
/// flat register file of [`Program::num_slots`] entries); `mem` operands
/// index the pre-resolved buffer-binding table built once per execution.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `arith.constant` — the literal is pre-converted to a runtime value.
    Const { dst: u32, val: V },
    /// Binary arithmetic (retires one plain or FP instruction).
    Bin {
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
        pc: OpId,
    },
    /// `arith.cmpi`.
    Cmp {
        pred: CmpPred,
        dst: u32,
        lhs: u32,
        rhs: u32,
        pc: OpId,
    },
    /// `arith.select`.
    Select {
        dst: u32,
        cond: u32,
        if_true: u32,
        if_false: u32,
        pc: OpId,
    },
    /// Integer-like conversion.
    Cast {
        dst: u32,
        src: u32,
        to: Type,
        pc: OpId,
    },
    /// `memref.dim`.
    Dim { dst: u32, mem: u16, pc: OpId },
    /// `memref.load` — the demand event is reported before the bounds
    /// check, exactly like the tree-walker.
    Load {
        dst: u32,
        mem: u16,
        idx: u32,
        pc: OpId,
    },
    /// `memref.store`.
    Store {
        mem: u16,
        idx: u32,
        src: u32,
        pc: OpId,
    },
    /// `memref.prefetch` — never faults.
    Prefetch {
        mem: u16,
        idx: u32,
        locality: u8,
        write: bool,
        pc: OpId,
    },
    /// Fused `memref.load` + conversion of the loaded value (the
    /// coordinate-widening idiom). Writes both result slots and issues
    /// the load event and the cast's `retire(1)` in source order.
    LoadCast {
        dst: u32,
        mem: u16,
        idx: u32,
        pc: OpId,
        cast_dst: u32,
        to: Type,
        cast_pc: OpId,
    },
    /// Fused integer add + prefetch of the sum (the distance-offset
    /// prefetch idiom). The add's result slot is still written.
    AddPrefetch {
        op: BinOp,
        add_dst: u32,
        lhs: u32,
        rhs: u32,
        add_pc: OpId,
        mem: u16,
        locality: u8,
        write: bool,
        pc: OpId,
    },
    /// Fused integer add + unsigned compare of the sum + select (the
    /// loop-bound clamp idiom `min(j + d, bound)`). Issues three
    /// `retire(1)` calls and writes all three result slots.
    ClampSelect {
        op: BinOp,
        add_dst: u32,
        add_lhs: u32,
        add_rhs: u32,
        add_pc: OpId,
        pred: CmpPred,
        cmp_dst: u32,
        cmp_rhs: u32,
        cmp_pc: OpId,
        dst: u32,
        if_true: u32,
        if_false: u32,
        pc: OpId,
    },
    /// Fused `load crd[·]` + cast + prefetch of the gathered coordinate
    /// (ASaP's indirect-prefetch idiom). Both loads' slots are written
    /// and the load / `retire(1)` / prefetch calls keep source order.
    GatherPrefetch {
        idx: u32,
        crd_mem: u16,
        crd_dst: u32,
        crd_pc: OpId,
        cast_dst: u32,
        to: Type,
        cast_pc: OpId,
        mem: u16,
        locality: u8,
        write: bool,
        pc: OpId,
    },
    /// Fused loop back-edge: the yield's bookkeeping retire, the
    /// loop-carried register copies (hazard-free by construction — the
    /// lowerer falls back to scratch copies otherwise), the induction
    /// increment, and the re-check of the loop bound (the work
    /// [`Instr::ForHead`] does on entry), jumping straight back into the
    /// body on continue and to `exit` when done.
    LoopBack {
        iv: u32,
        step: u32,
        hi: u32,
        body: u32,
        exit: u32,
        copies: Vec<(u32, u32)>,
        /// The `scf.for` op, for budget-trap locations (matching the
        /// tree-walker, whose fuel trap is located at the loop op).
        pc: OpId,
    },
    /// Fused dot-product step: two independent loads feeding a
    /// multiply–accumulate. Both loads' slots are written, both demand
    /// events and both `retire_fp(1)` calls keep source order.
    DotStep {
        a_dst: u32,
        a_mem: u16,
        a_idx: u32,
        a_pc: OpId,
        b_dst: u32,
        b_mem: u16,
        b_idx: u32,
        b_pc: OpId,
        /// Operand slots of the fused multiply (each is one of the load
        /// destinations; order preserved for IEEE/NaN faithfulness).
        a: u32,
        b: u32,
        mul_dst: u32,
        mul_pc: OpId,
        acc: u32,
        acc_is_rhs: bool,
        dst: u32,
        pc: OpId,
    },
    /// Fused sparse gather: `load crd[j]`, optional widening cast to
    /// `index`, then `load b[·]`. All intermediate slots are still
    /// written and all model calls issued in source order.
    Gather {
        idx: u32,
        crd_mem: u16,
        crd_dst: u32,
        crd_pc: OpId,
        /// `(cast_dst, cast_pc)` when the coordinate needs widening.
        cast: Option<(u32, OpId)>,
        mem: u16,
        dst: u32,
        pc: OpId,
    },
    /// Fused `mulf` + `addf` (the reduction's multiply–accumulate).
    /// Issues `retire_fp(1)` twice and writes both result slots.
    MulAdd {
        a: u32,
        b: u32,
        mul_dst: u32,
        mul_pc: OpId,
        /// The accumulator operand of the `addf`.
        acc: u32,
        /// Whether the product was the *lhs* of the `addf` (operand order
        /// is preserved for IEEE/NaN faithfulness).
        acc_is_rhs: bool,
        dst: u32,
        pc: OpId,
    },
    /// Guard in front of the ASaP sparse inner loop (see [`SpmvLoop`]):
    /// when the run-time operand types are the ones the sparsifier
    /// binds, the entire `for` over the nonzeros of one row — coordinate
    /// gather, both software prefetches, multiply–accumulate, and back
    /// edge — runs here on typed slices with no per-iteration dispatch
    /// and control continues at `exit`; otherwise the guard does nothing
    /// and the seven instructions after it run the loop. Boxed to keep
    /// [`Instr`] small; emitted only when that window matches exactly.
    SpmvLoop(Box<SpmvLoop>),
    /// Unconditional branch (targets are instruction indices after
    /// patching).
    Jump { target: u32 },
    /// `scf.if`: retire the branch instruction, then jump to
    /// `else_target` when the condition is false.
    IfBr {
        cond: u32,
        else_target: u32,
        pc: OpId,
    },
    /// `scf.for` prologue: validate `lo`/`hi`/`step` (traps `ZeroStep`)
    /// and seed the induction slot. Charges nothing, like the walker.
    ForPrologue {
        lo: u32,
        hi: u32,
        step: u32,
        iv: u32,
        pc: OpId,
    },
    /// Fused loop-counter compare+branch: if `iv < hi` retire the
    /// bookkeeping instruction and fall through, else jump to `exit`.
    /// `pc` is the `scf.for` op, for budget-trap locations.
    ForHead {
        iv: u32,
        hi: u32,
        exit: u32,
        pc: OpId,
    },
    /// Fused loop-counter increment + back-edge.
    ForStep { iv: u32, step: u32, head: u32 },
    /// `scf.condition`: retire, then exit the `while` when false.
    CondBr { cond: u32, exit: u32, pc: OpId },
    /// Bookkeeping retire for a lowered `scf.yield`.
    Retire1,
    /// Register move (block-argument plumbing; no model calls).
    Copy { dst: u32, src: u32 },
    /// `func.return`.
    Return { vals: Vec<u32> },
}

impl Instr {
    /// Dense opcode index for per-opcode profiling; indexes
    /// [`crate::profile::OPCODE_NAMES`].
    pub fn opcode(&self) -> usize {
        match self {
            Instr::Const { .. } => 0,
            Instr::Bin { .. } => 1,
            Instr::Cmp { .. } => 2,
            Instr::Select { .. } => 3,
            Instr::Cast { .. } => 4,
            Instr::Dim { .. } => 5,
            Instr::Load { .. } => 6,
            Instr::Store { .. } => 7,
            Instr::Prefetch { .. } => 8,
            Instr::LoadCast { .. } => 9,
            Instr::AddPrefetch { .. } => 10,
            Instr::ClampSelect { .. } => 11,
            Instr::GatherPrefetch { .. } => 12,
            Instr::LoopBack { .. } => 13,
            Instr::DotStep { .. } => 14,
            Instr::Gather { .. } => 15,
            Instr::MulAdd { .. } => 16,
            Instr::SpmvLoop(_) => 17,
            Instr::Jump { .. } => 18,
            Instr::IfBr { .. } => 19,
            Instr::ForPrologue { .. } => 20,
            Instr::ForHead { .. } => 21,
            Instr::ForStep { .. } => 22,
            Instr::CondBr { .. } => 23,
            Instr::Retire1 => 24,
            Instr::Copy { .. } => 25,
            Instr::Return { .. } => 26,
        }
    }
}

/// Operands of the ASaP sparse inner-loop guard: what the typed-slice
/// run of the seven instructions that follow it (`ForHead`, `LoadCast`,
/// `AddPrefetch`, `ClampSelect`, `GatherPrefetch`, `DotStep`, `LoopBack`)
/// reads — loop bounds, the six buffer bindings, the three loop-invariant
/// operand slots, the accumulator, and every op location a model call or
/// trap is attributed to. Nothing of the loop is *replayed* from here:
/// when the guard declines, the seven instructions themselves run.
///
/// The fuser emits the guard only for the strict SpMV dataflow shape (the
/// induction variable feeds the crd load, both prefetch adds and the vals
/// load; the widened crd element indexes the dense vector; the clamp
/// output feeds the gather prefetch; the dot product accumulates through
/// the single loop-carried copy; both casts widen to `index`) and only
/// when no slot the guard reads once is written inside the window.
#[derive(Debug, Clone, PartialEq)]
pub struct SpmvLoop {
    pub iv: u32,
    pub hi: u32,
    pub step: u32,
    /// Exit target (label id until patching).
    pub exit: u32,
    // `load crd[j]` + widen to index.
    pub lc_mem: u16,
    pub lc_pc: OpId,
    // `prefetch crd[j + d]`.
    pub ap_rhs: u32,
    pub ap_mem: u16,
    pub ap_loc: u8,
    pub ap_write: bool,
    pub ap_pc: OpId,
    // `clamped = min(j + d, bound)`.
    pub cs_add_rhs: u32,
    pub cs_cmp_rhs: u32,
    // `prefetch x[crd[clamped]]`.
    pub gp_crd_mem: u16,
    pub gp_crd_pc: OpId,
    pub gp_mem: u16,
    pub gp_loc: u8,
    pub gp_write: bool,
    pub gp_pc: OpId,
    // `acc += vals[j] * x[crd[j]]`.
    pub ds_a_mem: u16,
    pub ds_a_pc: OpId,
    pub ds_b_mem: u16,
    pub ds_b_pc: OpId,
    pub ds_acc: u32,
    pub ds_acc_is_rhs: bool,
    pub ds_dst: u32,
    /// The guarded `scf.for` op, for budget-trap locations (same as the
    /// tree-walker's fuel-trap location).
    pub pc: OpId,
}

/// A lowered function, ready for [`crate::execute`].
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    pub name: String,
    pub instrs: Vec<Instr>,
    /// Size of the flat register file (SSA values + copy scratch).
    pub num_slots: usize,
    /// Slot of each function parameter, in calling-convention order.
    pub param_slots: Vec<u32>,
    /// For each buffer-binding table entry, the position in the argument
    /// list of the parameter that carries the buffer.
    pub mem_args: Vec<usize>,
}

/// Why a function could not be lowered. Callers fall back to the
/// tree-walker; for sparsifier output lowering always succeeds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// A load/store/prefetch/dim memref operand is not a function
    /// parameter, so its buffer binding cannot be pre-resolved.
    IndirectMemref(OpId),
    /// More distinct memref parameters than the binding table can index.
    TooManyBuffers,
    /// Region structure the verifier would have rejected.
    Malformed(&'static str),
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LowerError::IndirectMemref(op) => {
                write!(f, "{op}: memref operand is not a function parameter")
            }
            LowerError::TooManyBuffers => write!(f, "more than 65536 memref parameters"),
            LowerError::Malformed(m) => write!(f, "malformed region structure: {m}"),
        }
    }
}

impl std::error::Error for LowerError {}

/// How the terminator of the region being lowered transfers control.
enum TermCtx<'a> {
    /// Function body: `return` terminates the program.
    Func,
    /// `scf.for` body: `yield` feeds the iteration arguments and takes
    /// the back edge through the fused increment+compare.
    ForBody {
        iter_args: &'a [Value],
        iv: u32,
        step: u32,
        hi: u32,
        /// Label of the head ([`Instr::ForHead`]) — the hazard fallback's
        /// back-edge target.
        head: u32,
        /// Label just past the head — [`Instr::LoopBack`]'s continue
        /// target (the bound re-check is fused into the back edge).
        body: u32,
        exit: u32,
        /// The `scf.for` op id, threaded into the back edge's budget
        /// charge point.
        pc: OpId,
    },
    /// `scf.while` before-region: `condition` exits or forwards to the
    /// after-region arguments.
    WhileBefore { after_args: &'a [Value], exit: u32 },
    /// `scf.while` after-region: `yield` feeds the before-arguments and
    /// jumps back to the head.
    WhileAfter { before_args: &'a [Value], head: u32 },
    /// `scf.if` arm: `yield` feeds the op results and jumps past the
    /// other arm.
    IfArm { results: &'a [Value], end: u32 },
}

struct Lowerer {
    instrs: Vec<Instr>,
    /// Label id → instruction index (`u32::MAX` until bound). Branch
    /// targets hold label ids during lowering and are patched at the end.
    labels: Vec<u32>,
    mem_of: HashMap<Value, u16>,
    mem_args: Vec<usize>,
    param_pos: HashMap<Value, usize>,
    /// First slot past the SSA values, used by hazardous parallel copies.
    scratch_base: u32,
    scratch_used: u32,
    /// Peephole fusion never reaches across a bound label (a jump could
    /// land between the fused ops).
    fuse_barrier: usize,
}

/// Lower a **verified** function to bytecode. The verifier's guarantees
/// (def-before-use, terminator placement, yield arities) are load-bearing;
/// lowering unverified IR may produce a `Malformed` error but never an
/// unsound program.
pub fn lower(f: &Function) -> Result<Program, LowerError> {
    let mut l = Lowerer {
        instrs: Vec::with_capacity(f.op_count() * 2),
        labels: Vec::new(),
        mem_of: HashMap::new(),
        mem_args: Vec::new(),
        param_pos: f.params.iter().enumerate().map(|(i, &p)| (p, i)).collect(),
        scratch_base: f.num_values(),
        scratch_used: 0,
        fuse_barrier: 0,
    };
    if !l.lower_region(&f.body, &TermCtx::Func)? {
        return Err(LowerError::Malformed("function body lacks a return"));
    }
    // Patch label ids into instruction indices.
    let labels = l.labels;
    let resolve = |t: &mut u32| {
        *t = labels[*t as usize];
        debug_assert_ne!(*t, u32::MAX, "unbound label");
    };
    for i in &mut l.instrs {
        match i {
            Instr::Jump { target } => resolve(target),
            Instr::IfBr { else_target, .. } => resolve(else_target),
            Instr::ForHead { exit, .. } => resolve(exit),
            Instr::ForStep { head, .. } => resolve(head),
            Instr::LoopBack { body, exit, .. } => {
                resolve(body);
                resolve(exit);
            }
            Instr::SpmvLoop(d) => resolve(&mut d.exit),
            Instr::CondBr { exit, .. } => resolve(exit),
            _ => {}
        }
    }
    Ok(Program {
        name: f.name.clone(),
        instrs: l.instrs,
        num_slots: (l.scratch_base + l.scratch_used) as usize,
        param_slots: f.params.iter().map(|p| p.0).collect(),
        mem_args: l.mem_args,
    })
}

impl Lowerer {
    fn new_label(&mut self) -> u32 {
        self.labels.push(u32::MAX);
        (self.labels.len() - 1) as u32
    }

    fn bind(&mut self, label: u32) {
        self.labels[label as usize] = self.instrs.len() as u32;
        self.fuse_barrier = self.instrs.len();
    }

    /// Binding-table index for a memref operand (must be a parameter).
    fn mem_index(&mut self, v: Value, at: OpId) -> Result<u16, LowerError> {
        if let Some(&m) = self.mem_of.get(&v) {
            return Ok(m);
        }
        let pos = *self
            .param_pos
            .get(&v)
            .ok_or(LowerError::IndirectMemref(at))?;
        let m = u16::try_from(self.mem_of.len()).map_err(|_| LowerError::TooManyBuffers)?;
        self.mem_of.insert(v, m);
        self.mem_args.push(pos);
        Ok(m)
    }

    /// Emit a parallel copy `dsts ← srcs`, routing through scratch slots
    /// when a later source would read an already-overwritten destination
    /// (loop-carried block-argument swaps).
    fn parallel_copy(&mut self, dsts: &[Value], srcs: &[Value]) {
        let pairs: Vec<(u32, u32)> = dsts
            .iter()
            .zip(srcs)
            .map(|(d, s)| (d.0, s.0))
            .filter(|(d, s)| d != s)
            .collect();
        let hazard = pairs
            .iter()
            .enumerate()
            .any(|(j, &(_, s))| pairs[..j].iter().any(|&(d, _)| d == s));
        if hazard {
            self.scratch_used = self.scratch_used.max(pairs.len() as u32);
            for (j, &(_, s)) in pairs.iter().enumerate() {
                self.instrs.push(Instr::Copy {
                    dst: self.scratch_base + j as u32,
                    src: s,
                });
            }
            for (j, &(d, _)) in pairs.iter().enumerate() {
                self.instrs.push(Instr::Copy {
                    dst: d,
                    src: self.scratch_base + j as u32,
                });
            }
        } else {
            for (d, s) in pairs {
                self.instrs.push(Instr::Copy { dst: d, src: s });
            }
        }
    }

    /// Fuse a trailing `load` / `cast` pair (the cast consumes the loaded
    /// value) into a [`Instr::LoadCast`]. Safe because branch targets are
    /// still label ids and no label is bound inside the window
    /// (`fuse_barrier`) — the same invariant guards every peephole below.
    fn try_fuse_load_cast(&mut self) {
        let n = self.instrs.len();
        if n < 2 || n - 2 < self.fuse_barrier {
            return;
        }
        let fused = match &self.instrs[n - 2..] {
            [Instr::Load { dst, mem, idx, pc }, Instr::Cast {
                dst: cd,
                src,
                to,
                pc: cp,
            }] if src == dst => Some(Instr::LoadCast {
                dst: *dst,
                mem: *mem,
                idx: *idx,
                pc: *pc,
                cast_dst: *cd,
                to: to.clone(),
                cast_pc: *cp,
            }),
            _ => None,
        };
        if let Some(g) = fused {
            self.instrs.truncate(n - 2);
            self.instrs.push(g);
        }
    }

    /// Fuse a trailing gather window into a [`Instr::Gather`]: either a
    /// [`Instr::LoadCast`] (formed when the cast was lowered) feeding a
    /// `load b[·]`, or two directly-chained loads.
    fn try_fuse_gather(&mut self) {
        let n = self.instrs.len();
        if n < 2 || n - 2 < self.fuse_barrier {
            return;
        }
        let fused = match &self.instrs[n - 2..] {
            [Instr::LoadCast {
                dst: d1,
                mem: m1,
                idx: i1,
                pc: p1,
                cast_dst: cd,
                to: Type::Index,
                cast_pc: cp,
            }, Instr::Load { dst, mem, idx, pc }]
                if idx == cd =>
            {
                Some(Instr::Gather {
                    idx: *i1,
                    crd_mem: *m1,
                    crd_dst: *d1,
                    crd_pc: *p1,
                    cast: Some((*cd, *cp)),
                    mem: *mem,
                    dst: *dst,
                    pc: *pc,
                })
            }
            [Instr::Load {
                dst: d1,
                mem: m1,
                idx: i1,
                pc: p1,
            }, Instr::Load { dst, mem, idx, pc }]
                if idx == d1 =>
            {
                Some(Instr::Gather {
                    idx: *i1,
                    crd_mem: *m1,
                    crd_dst: *d1,
                    crd_pc: *p1,
                    cast: None,
                    mem: *mem,
                    dst: *dst,
                    pc: *pc,
                })
            }
            _ => None,
        };
        if let Some(g) = fused {
            self.instrs.truncate(n - 2);
            self.instrs.push(g);
        }
    }

    /// Fuse a trailing prefetch with the instruction that computed its
    /// index: an integer add ([`Instr::AddPrefetch`], the distance-offset
    /// idiom) or a load+cast ([`Instr::GatherPrefetch`], the indirect
    /// prefetch through a clamped coordinate).
    fn try_fuse_prefetch(&mut self) {
        let n = self.instrs.len();
        if n < 2 || n - 2 < self.fuse_barrier {
            return;
        }
        let fused = match &self.instrs[n - 2..] {
            [Instr::Bin {
                op,
                dst,
                lhs,
                rhs,
                pc: bp,
            }, Instr::Prefetch {
                mem,
                idx,
                locality,
                write,
                pc,
            }] if idx == dst && !op.is_float() => Some(Instr::AddPrefetch {
                op: *op,
                add_dst: *dst,
                lhs: *lhs,
                rhs: *rhs,
                add_pc: *bp,
                mem: *mem,
                locality: *locality,
                write: *write,
                pc: *pc,
            }),
            [Instr::LoadCast {
                dst,
                mem: lmem,
                idx,
                pc: lpc,
                cast_dst,
                to,
                cast_pc,
            }, Instr::Prefetch {
                mem,
                idx: pidx,
                locality,
                write,
                pc,
            }] if pidx == cast_dst => Some(Instr::GatherPrefetch {
                idx: *idx,
                crd_mem: *lmem,
                crd_dst: *dst,
                crd_pc: *lpc,
                cast_dst: *cast_dst,
                to: to.clone(),
                cast_pc: *cast_pc,
                mem: *mem,
                locality: *locality,
                write: *write,
                pc: *pc,
            }),
            _ => None,
        };
        if let Some(g) = fused {
            self.instrs.truncate(n - 2);
            self.instrs.push(g);
        }
    }

    /// Second-stage fusion after [`Instr::MulAdd`] forms: when the two
    /// multiply operands are exactly the destinations of the two
    /// immediately preceding loads, collapse the window into a
    /// [`Instr::DotStep`].
    fn try_fuse_dot_step(&mut self) {
        let n = self.instrs.len();
        if n < 3 || n - 3 < self.fuse_barrier {
            return;
        }
        let fused = match &self.instrs[n - 3..] {
            [Instr::Load {
                dst: d1,
                mem: m1,
                idx: i1,
                pc: p1,
            }, Instr::Load {
                dst: d2,
                mem: m2,
                idx: i2,
                pc: p2,
            }, Instr::MulAdd {
                a,
                b,
                mul_dst,
                mul_pc,
                acc,
                acc_is_rhs,
                dst,
                pc,
            }] if (a == d1 && b == d2) || (a == d2 && b == d1) => Some(Instr::DotStep {
                a_dst: *d1,
                a_mem: *m1,
                a_idx: *i1,
                a_pc: *p1,
                b_dst: *d2,
                b_mem: *m2,
                b_idx: *i2,
                b_pc: *p2,
                a: *a,
                b: *b,
                mul_dst: *mul_dst,
                mul_pc: *mul_pc,
                acc: *acc,
                acc_is_rhs: *acc_is_rhs,
                dst: *dst,
                pc: *pc,
            }),
            _ => None,
        };
        if let Some(g) = fused {
            self.instrs.truncate(n - 3);
            self.instrs.push(g);
        }
    }

    /// Put an [`Instr::SpmvLoop`] guard in front of a `for` whose window,
    /// from the loop head on, is exactly the seven-instruction ASaP sparse
    /// inner loop in the strict shape (see [`SpmvLoop`]). Called right
    /// before the exit label binds, so the only labels at or after the
    /// head are this loop's `head` and `body`; both move down one with
    /// the instructions they name. The head is then entered only by
    /// falling out of the guard — the back edge re-checks the bound
    /// itself and jumps to `body`.
    fn try_guard_spmv_loop(&mut self, head: u32) {
        let head_pos = self.labels[head as usize] as usize;
        let [Instr::ForHead { iv, hi, exit, pc }, Instr::LoadCast {
            dst: lc_dst,
            mem: lc_mem,
            idx: lc_idx,
            pc: lc_pc,
            cast_dst: lc_cast_dst,
            to: Type::Index,
            ..
        }, Instr::AddPrefetch {
            op: BinOp::AddI,
            add_dst: ap_dst,
            lhs: ap_lhs,
            rhs: ap_rhs,
            mem: ap_mem,
            locality: ap_loc,
            write: ap_write,
            pc: ap_pc,
            ..
        }, Instr::ClampSelect {
            op: BinOp::AddI,
            add_dst: cs_add_dst,
            add_lhs: cs_add_lhs,
            add_rhs: cs_add_rhs,
            pred: CmpPred::Ult,
            cmp_dst: cs_cmp_dst,
            cmp_rhs: cs_cmp_rhs,
            dst: cs_dst,
            if_true: cs_if_true,
            if_false: cs_if_false,
            ..
        }, Instr::GatherPrefetch {
            idx: gp_idx,
            crd_mem: gp_crd_mem,
            crd_dst: gp_crd_dst,
            crd_pc: gp_crd_pc,
            cast_dst: gp_cast_dst,
            to: Type::Index,
            mem: gp_mem,
            locality: gp_loc,
            write: gp_write,
            pc: gp_pc,
            ..
        }, Instr::DotStep {
            a_dst: ds_a_dst,
            a_mem: ds_a_mem,
            a_idx: ds_a_idx,
            a_pc: ds_a_pc,
            b_dst: ds_b_dst,
            b_mem: ds_b_mem,
            b_idx: ds_b_idx,
            b_pc: ds_b_pc,
            a: ds_a,
            b: ds_b,
            mul_dst: ds_mul_dst,
            acc: ds_acc,
            acc_is_rhs: ds_acc_is_rhs,
            dst: ds_dst,
            ..
        }, Instr::LoopBack {
            iv: lb_iv,
            step,
            hi: lb_hi,
            body,
            exit: lb_exit,
            copies,
            ..
        }] = &self.instrs[head_pos..]
        else {
            return;
        };
        let strict = (lb_iv, lb_hi, lb_exit) == (iv, hi, exit)
            && [lc_idx, ap_lhs, cs_add_lhs, ds_a_idx]
                .iter()
                .all(|s| *s == iv)
            && ds_b_idx == lc_cast_dst
            && gp_idx == cs_dst
            && (ds_a, ds_b) == (ds_a_dst, ds_b_dst)
            && (cs_if_true, cs_if_false) == (cs_add_dst, cs_cmp_rhs)
            && copies.as_slice() == [(*ds_acc, *ds_dst)];
        // The typed run keeps `iv` and the accumulator in locals and reads
        // the loop-invariant operands once: sound only if the body writes
        // none of them (true for SSA results, checked all the same) and
        // the invariant ones are not the two slots the back edge updates.
        let body_dsts = [
            lc_dst,
            lc_cast_dst,
            ap_dst,
            cs_add_dst,
            cs_cmp_dst,
            cs_dst,
            gp_crd_dst,
            gp_cast_dst,
            ds_a_dst,
            ds_b_dst,
            ds_mul_dst,
            ds_dst,
        ];
        let live = [iv, ds_acc, hi, step, ap_rhs, cs_add_rhs, cs_cmp_rhs];
        let clobbered = live.iter().any(|s| body_dsts.contains(s))
            || live[2..].iter().any(|s| *s == iv || *s == ds_acc);
        if !strict || clobbered {
            return;
        }
        let body = *body;
        let guard = SpmvLoop {
            iv: *iv,
            hi: *hi,
            step: *step,
            exit: *exit,
            lc_mem: *lc_mem,
            lc_pc: *lc_pc,
            ap_rhs: *ap_rhs,
            ap_mem: *ap_mem,
            ap_loc: *ap_loc,
            ap_write: *ap_write,
            ap_pc: *ap_pc,
            cs_add_rhs: *cs_add_rhs,
            cs_cmp_rhs: *cs_cmp_rhs,
            gp_crd_mem: *gp_crd_mem,
            gp_crd_pc: *gp_crd_pc,
            gp_mem: *gp_mem,
            gp_loc: *gp_loc,
            gp_write: *gp_write,
            gp_pc: *gp_pc,
            ds_a_mem: *ds_a_mem,
            ds_a_pc: *ds_a_pc,
            ds_b_mem: *ds_b_mem,
            ds_b_pc: *ds_b_pc,
            ds_acc: *ds_acc,
            ds_acc_is_rhs: *ds_acc_is_rhs,
            ds_dst: *ds_dst,
            pc: *pc,
        };
        self.instrs
            .insert(head_pos, Instr::SpmvLoop(Box::new(guard)));
        self.labels[head as usize] += 1;
        self.labels[body as usize] += 1;
    }

    /// Fuse a trailing add / unsigned-compare-of-the-sum / select window
    /// into a [`Instr::ClampSelect`] (the `min(j + d, bound)` clamp).
    fn try_fuse_clamp(&mut self) {
        let n = self.instrs.len();
        if n < 3 || n - 3 < self.fuse_barrier {
            return;
        }
        let fused = match &self.instrs[n - 3..] {
            [Instr::Bin {
                op,
                dst: ad,
                lhs: al,
                rhs: ar,
                pc: ap,
            }, Instr::Cmp {
                pred,
                dst: cd,
                lhs: cl,
                rhs: cr,
                pc: cp,
            }, Instr::Select {
                dst,
                cond,
                if_true,
                if_false,
                pc,
            }] if cl == ad && cond == cd && !op.is_float() => Some(Instr::ClampSelect {
                op: *op,
                add_dst: *ad,
                add_lhs: *al,
                add_rhs: *ar,
                add_pc: *ap,
                pred: *pred,
                cmp_dst: *cd,
                cmp_rhs: *cr,
                cmp_pc: *cp,
                dst: *dst,
                if_true: *if_true,
                if_false: *if_false,
                pc: *pc,
            }),
            _ => None,
        };
        if let Some(g) = fused {
            self.instrs.truncate(n - 3);
            self.instrs.push(g);
        }
    }

    /// Fuse a trailing `mulf` / `addf` pair into a [`Instr::MulAdd`].
    fn try_fuse_muladd(&mut self) {
        let n = self.instrs.len();
        if n < 2 || n - 2 < self.fuse_barrier {
            return;
        }
        let fused = match &self.instrs[n - 2..] {
            [Instr::Bin {
                op: BinOp::MulF,
                dst: p,
                lhs: a,
                rhs: b,
                pc: mul_pc,
            }, Instr::Bin {
                op: BinOp::AddF,
                dst,
                lhs,
                rhs,
                pc,
            }] if lhs == p || rhs == p => {
                // Preserve operand order: when the product is the lhs,
                // the accumulator is added on the right.
                let (acc, acc_is_rhs) = if lhs == p {
                    (*rhs, true)
                } else {
                    (*lhs, false)
                };
                Some(Instr::MulAdd {
                    a: *a,
                    b: *b,
                    mul_dst: *p,
                    mul_pc: *mul_pc,
                    acc,
                    acc_is_rhs,
                    dst: *dst,
                    pc: *pc,
                })
            }
            _ => None,
        };
        if let Some(g) = fused {
            self.instrs.truncate(n - 2);
            self.instrs.push(g);
            self.try_fuse_dot_step();
        }
    }

    /// Lower one region. Returns whether a terminator was lowered.
    fn lower_region(&mut self, r: &Region, ctx: &TermCtx) -> Result<bool, LowerError> {
        for op in &r.ops {
            let dst = |i: usize| op.results[i].0;
            match &op.kind {
                OpKind::Const(lit) => {
                    let val = match *lit {
                        Literal::Index(x) => V::Index(x),
                        Literal::I64(x) => V::I64(x),
                        Literal::I32(x) => V::I32(x),
                        Literal::I8(x) => V::I8(x),
                        Literal::Bool(x) => V::Bool(x),
                        Literal::F64(x) => V::F64(x),
                    };
                    self.instrs.push(Instr::Const { dst: dst(0), val });
                }
                OpKind::Binary { op: b, lhs, rhs } => {
                    self.instrs.push(Instr::Bin {
                        op: *b,
                        dst: dst(0),
                        lhs: lhs.0,
                        rhs: rhs.0,
                        pc: op.id,
                    });
                    if *b == BinOp::AddF {
                        self.try_fuse_muladd();
                    }
                }
                OpKind::Cmp { pred, lhs, rhs } => self.instrs.push(Instr::Cmp {
                    pred: *pred,
                    dst: dst(0),
                    lhs: lhs.0,
                    rhs: rhs.0,
                    pc: op.id,
                }),
                OpKind::Select {
                    cond,
                    if_true,
                    if_false,
                } => {
                    self.instrs.push(Instr::Select {
                        dst: dst(0),
                        cond: cond.0,
                        if_true: if_true.0,
                        if_false: if_false.0,
                        pc: op.id,
                    });
                    self.try_fuse_clamp();
                }
                OpKind::Cast { value, to } => {
                    self.instrs.push(Instr::Cast {
                        dst: dst(0),
                        src: value.0,
                        to: to.clone(),
                        pc: op.id,
                    });
                    self.try_fuse_load_cast();
                }
                OpKind::Load { mem, index } => {
                    let m = self.mem_index(*mem, op.id)?;
                    self.instrs.push(Instr::Load {
                        dst: dst(0),
                        mem: m,
                        idx: index.0,
                        pc: op.id,
                    });
                    self.try_fuse_gather();
                }
                OpKind::Store { mem, index, value } => {
                    let m = self.mem_index(*mem, op.id)?;
                    self.instrs.push(Instr::Store {
                        mem: m,
                        idx: index.0,
                        src: value.0,
                        pc: op.id,
                    });
                }
                OpKind::Prefetch {
                    mem,
                    index,
                    write,
                    locality,
                } => {
                    let m = self.mem_index(*mem, op.id)?;
                    self.instrs.push(Instr::Prefetch {
                        mem: m,
                        idx: index.0,
                        locality: *locality,
                        write: *write,
                        pc: op.id,
                    });
                    self.try_fuse_prefetch();
                }
                OpKind::Dim { mem } => {
                    let m = self.mem_index(*mem, op.id)?;
                    self.instrs.push(Instr::Dim {
                        dst: dst(0),
                        mem: m,
                        pc: op.id,
                    });
                }
                OpKind::For {
                    lo,
                    hi,
                    step,
                    iv,
                    iter_args,
                    inits,
                    body,
                } => {
                    let head = self.new_label();
                    let body_l = self.new_label();
                    let exit = self.new_label();
                    self.instrs.push(Instr::ForPrologue {
                        lo: lo.0,
                        hi: hi.0,
                        step: step.0,
                        iv: iv.0,
                        pc: op.id,
                    });
                    self.parallel_copy(iter_args, inits);
                    self.bind(head);
                    self.instrs.push(Instr::ForHead {
                        iv: iv.0,
                        hi: hi.0,
                        exit,
                        pc: op.id,
                    });
                    self.bind(body_l);
                    self.lower_region(
                        body,
                        &TermCtx::ForBody {
                            iter_args,
                            iv: iv.0,
                            step: step.0,
                            hi: hi.0,
                            head,
                            body: body_l,
                            exit,
                            pc: op.id,
                        },
                    )?;
                    self.try_guard_spmv_loop(head);
                    self.bind(exit);
                    self.parallel_copy(&op.results, iter_args);
                }
                OpKind::While {
                    inits,
                    before_args,
                    before,
                    after_args,
                    after,
                } => {
                    let head = self.new_label();
                    let exit = self.new_label();
                    let cond_args = match before.ops.last().map(|o| &o.kind) {
                        Some(OpKind::ConditionOp { args, .. }) => args.clone(),
                        _ => {
                            return Err(LowerError::Malformed(
                                "while before-region must end in scf.condition",
                            ))
                        }
                    };
                    self.parallel_copy(before_args, inits);
                    self.bind(head);
                    self.lower_region(before, &TermCtx::WhileBefore { after_args, exit })?;
                    self.lower_region(after, &TermCtx::WhileAfter { before_args, head })?;
                    self.bind(exit);
                    self.parallel_copy(&op.results, &cond_args);
                }
                OpKind::If {
                    cond,
                    then_region,
                    else_region,
                } => {
                    let else_l = self.new_label();
                    let end = self.new_label();
                    self.instrs.push(Instr::IfBr {
                        cond: cond.0,
                        else_target: else_l,
                        pc: op.id,
                    });
                    self.fuse_barrier = self.instrs.len();
                    self.lower_region(
                        then_region,
                        &TermCtx::IfArm {
                            results: &op.results,
                            end,
                        },
                    )?;
                    self.bind(else_l);
                    self.lower_region(
                        else_region,
                        &TermCtx::IfArm {
                            results: &op.results,
                            end,
                        },
                    )?;
                    self.bind(end);
                }
                OpKind::Yield(vs) => {
                    match ctx {
                        TermCtx::ForBody {
                            iter_args,
                            iv,
                            step,
                            hi,
                            head,
                            body,
                            exit,
                            pc,
                        } => {
                            // Hazard-free loop-carried copies fuse with the
                            // bookkeeping retire and the back edge; a swap
                            // hazard falls back to scratch-routed copies.
                            let pairs: Vec<(u32, u32)> = iter_args
                                .iter()
                                .zip(vs)
                                .map(|(d, s)| (d.0, s.0))
                                .filter(|(d, s)| d != s)
                                .collect();
                            let hazard = pairs
                                .iter()
                                .enumerate()
                                .any(|(j, &(_, s))| pairs[..j].iter().any(|&(d, _)| d == s));
                            if hazard {
                                self.instrs.push(Instr::Retire1);
                                self.parallel_copy(iter_args, vs);
                                self.instrs.push(Instr::ForStep {
                                    iv: *iv,
                                    step: *step,
                                    head: *head,
                                });
                            } else {
                                self.instrs.push(Instr::LoopBack {
                                    iv: *iv,
                                    step: *step,
                                    hi: *hi,
                                    body: *body,
                                    exit: *exit,
                                    copies: pairs,
                                    pc: *pc,
                                });
                            }
                        }
                        TermCtx::WhileAfter { before_args, head } => {
                            self.instrs.push(Instr::Retire1);
                            self.parallel_copy(before_args, vs);
                            self.instrs.push(Instr::Jump { target: *head });
                        }
                        TermCtx::IfArm { results, end } => {
                            self.instrs.push(Instr::Retire1);
                            self.parallel_copy(results, vs);
                            self.instrs.push(Instr::Jump { target: *end });
                        }
                        _ => return Err(LowerError::Malformed("yield outside for/while/if")),
                    }
                    return Ok(true);
                }
                OpKind::ConditionOp { cond, args } => match ctx {
                    TermCtx::WhileBefore { after_args, exit } => {
                        self.instrs.push(Instr::CondBr {
                            cond: cond.0,
                            exit: *exit,
                            pc: op.id,
                        });
                        self.fuse_barrier = self.instrs.len();
                        self.parallel_copy(after_args, args);
                        return Ok(true);
                    }
                    _ => {
                        return Err(LowerError::Malformed(
                            "scf.condition outside a while before-region",
                        ))
                    }
                },
                OpKind::Return(vs) => {
                    self.instrs.push(Instr::Return {
                        vals: vs.iter().map(|v| v.0).collect(),
                    });
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::verify::verify;

    #[test]
    fn gather_and_muladd_fuse_in_spmv_shape() {
        // The CSR inner loop shape: load crd, cast, load x, mulf, addf.
        let mut b = FuncBuilder::new("spmv_inner");
        let crd = b.arg(Type::memref(Type::I32));
        let x = b.arg(Type::memref(Type::F64));
        let vals = b.arg(Type::memref(Type::F64));
        let n = b.arg(Type::Index);
        let c0 = b.const_index(0);
        let c1 = b.const_index(1);
        let zero = b.const_f64(0.0);
        b.for_loop(c0, n, c1, &[zero], |b, j, args| {
            let c = b.load(crd, j);
            let ci = b.to_index(c);
            let xv = b.load(x, ci);
            let av = b.load(vals, j);
            let p = b.mulf(av, xv);
            vec![b.addf(args[0], p)]
        });
        let f = b.finish();
        verify(&f).unwrap();
        let prog = lower(&f).unwrap();
        let gathers = prog
            .instrs
            .iter()
            .filter(|i| matches!(i, Instr::Gather { .. }))
            .count();
        let muladds = prog
            .instrs
            .iter()
            .filter(|i| matches!(i, Instr::MulAdd { .. }))
            .count();
        assert_eq!(gathers, 1, "{:?}", prog.instrs);
        assert_eq!(muladds, 1, "{:?}", prog.instrs);
    }

    #[test]
    fn non_parameter_memref_is_rejected() {
        // A memref forwarded through a loop-carried argument cannot be
        // pre-resolved; lowering must refuse, not mis-compile.
        let mut b = FuncBuilder::new("indirect");
        let m = b.arg(Type::memref(Type::F64));
        let c0 = b.const_index(0);
        let c1 = b.const_index(1);
        let r = b.for_loop(c0, c1, c1, &[m], |_, _, args| vec![args[0]]);
        let v = b.load(r[0], c0);
        let _ = v;
        let f = b.finish();
        assert!(matches!(lower(&f), Err(LowerError::IndirectMemref(_))));
    }

    #[test]
    fn swap_loop_carried_args_use_scratch_copies() {
        // for i { (a, b) = (b, a) } — the yield swaps the carried slots
        // directly, forcing the hazard-aware copy path.
        let mut b = FuncBuilder::new("swap");
        let n = b.arg(Type::Index);
        let out = b.arg(Type::memref(Type::Index));
        let c0 = b.const_index(0);
        let c1 = b.const_index(1);
        let c2 = b.const_index(2);
        let r = b.for_loop(c0, n, c1, &[c1, c2], |_, _, args| vec![args[1], args[0]]);
        b.store(r[0], out, c0);
        let f = b.finish();
        verify(&f).unwrap();
        let prog = lower(&f).unwrap();
        assert!(
            prog.num_slots > f.num_values() as usize,
            "scratch allocated"
        );
    }

    #[test]
    fn all_branch_targets_resolve() {
        let mut b = FuncBuilder::new("nest");
        let n = b.arg(Type::Index);
        let out = b.arg(Type::memref(Type::Index));
        let c0 = b.const_index(0);
        let c1 = b.const_index(1);
        let c2 = b.const_index(2);
        let total = b.for_loop(c0, n, c1, &[c0], |b, i, args| {
            let cond = {
                use crate::ops::CmpPred;
                let r = b.binary(BinOp::RemUI, i, c2);
                b.cmpi(CmpPred::Eq, r, c0)
            };
            let v = b.if_else(cond, &[Type::Index], |_| vec![c1], |_| vec![c0]);
            vec![b.addi(args[0], v[0])]
        });
        b.store(total[0], out, c0);
        let f = b.finish();
        verify(&f).unwrap();
        let prog = lower(&f).unwrap();
        let max = prog.instrs.len() as u32;
        for i in &prog.instrs {
            let t = match i {
                Instr::Jump { target } => *target,
                Instr::IfBr { else_target, .. } => *else_target,
                Instr::ForHead { exit, .. } => *exit,
                Instr::ForStep { head, .. } => *head,
                Instr::LoopBack { body, exit, .. } => (*body).max(*exit),
                Instr::CondBr { exit, .. } => *exit,
                _ => continue,
            };
            assert!(t <= max, "target {t} out of range ({max} instrs)");
        }
    }
}
