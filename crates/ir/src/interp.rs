//! The tree-walking interpreter: the reference engine the bytecode VM
//! and tier-2 are proved against. It executes the region-structured IR
//! directly, reporting every memory access to a pluggable
//! [`MemoryModel`] (see [`crate::mem`]).
//!
//! This is what makes the workspace's "compiler" executable without a real
//! backend. Nothing but the engine dispatch's tree-walk arm, the
//! differential oracles and `perfstat` reaches it.

use crate::budget::{Budget, BudgetMeter};
use crate::mem::{Buffers, InterpError, MemoryModel, V};
use crate::ops::{BinOp, CmpPred, Function, Op, OpKind, Region, Value};
use crate::types::{Literal, Type};

enum Flow {
    Yield(Vec<V>),
    Condition(bool, Vec<V>),
    Return(Vec<V>),
}

/// Run `func` with the given arguments against `bufs`, reporting events to
/// `model`. Returns the values of `func.return`.
///
/// Generic over the model so concrete callers monomorphize the event
/// calls; `&mut dyn MemoryModel` still works (`M = dyn MemoryModel`).
pub fn interpret<M: MemoryModel + ?Sized>(
    func: &Function,
    args: &[V],
    bufs: &mut Buffers,
    model: &mut M,
) -> Result<Vec<V>, InterpError> {
    interpret_budgeted(func, args, bufs, model, &Budget::unlimited())
}

/// [`interpret`] under a resource [`Budget`]: fuel is charged once per
/// loop-iteration entry (`scf.for` body entries and `scf.while`
/// condition evaluations), the deadline/cancellation token is polled
/// every [`BudgetMeter::POLL_INTERVAL`] charges. Exceeding the budget
/// traps with [`InterpError::Budget`] located at the governing loop op —
/// the same observable point at which the bytecode engine traps.
pub fn interpret_budgeted<M: MemoryModel + ?Sized>(
    func: &Function,
    args: &[V],
    bufs: &mut Buffers,
    model: &mut M,
    budget: &Budget,
) -> Result<Vec<V>, InterpError> {
    if args.len() != func.params.len() {
        return Err(InterpError::BadArgs(format!(
            "expected {} arguments, got {}",
            func.params.len(),
            args.len()
        )));
    }
    // Buffer ids only enter the environment through arguments (no op
    // creates a `V::Mem`), so validating them here makes every later
    // `Buffers::get` infallible.
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
    let mut env: Vec<Option<V>> = vec![None; func.value_types.len()];
    for (&p, &a) in func.params.iter().zip(args) {
        env[p.index()] = Some(a);
    }
    // Hoist per-access address math: base address and element width per
    // buffer, computed once instead of per load/store/prefetch. Sound
    // because no op allocates buffers mid-run.
    let addrs: Vec<(u64, u8)> = (0..bufs.len() as u32)
        .map(|id| {
            let b = bufs.get(id);
            (b.base_addr, b.data.elem_bytes())
        })
        .collect();
    let mut interp = Interp {
        bufs,
        model,
        addrs,
        meter: budget.meter(),
    };
    match interp.region(&func.body, &mut env)? {
        Flow::Return(vs) => Ok(vs),
        _ => Err(InterpError::TypeMismatch(
            "function body did not end in return".into(),
        )),
    }
}

struct Interp<'a, M: MemoryModel + ?Sized> {
    bufs: &'a mut Buffers,
    model: &'a mut M,
    /// Per-buffer `(base_addr, elem_bytes)`, hoisted out of the access path.
    addrs: Vec<(u64, u8)>,
    /// Per-run resource meter, charged at loop-head entries.
    meter: BudgetMeter,
}

impl<'a, M: MemoryModel + ?Sized> Interp<'a, M> {
    fn get(env: &[Option<V>], v: Value) -> V {
        // invariant: the verifier rejects use-before-def, and every
        // compiled kernel is verified before interpretation.
        env[v.index()].expect("verifier guarantees def-before-use")
    }

    fn region(&mut self, r: &Region, env: &mut Vec<Option<V>>) -> Result<Flow, InterpError> {
        for op in &r.ops {
            // Op-id attachment is deferred to the error path: the hot loop
            // pays no `map_err` closure per retired op.
            match self.op(op, env) {
                Ok(Some(flow)) => return Ok(flow),
                Ok(None) => {}
                Err(e) => return Err(e.at(op.id)),
            }
        }
        unreachable!("verifier guarantees every region ends in a terminator")
    }

    fn addr_of(&self, buf_id: u32, index: usize) -> (u64, u8) {
        let (base, eb) = self.addrs[buf_id as usize];
        (base + index as u64 * eb as u64, eb)
    }

    /// Execute one op. Returns `Some(flow)` when a terminator fires.
    fn op(&mut self, op: &Op, env: &mut Vec<Option<V>>) -> Result<Option<Flow>, InterpError> {
        let g = |env: &Vec<Option<V>>, v: Value| Self::get(env, v);
        match &op.kind {
            OpKind::Const(lit) => {
                self.model.retire(1);
                let v = match *lit {
                    Literal::Index(x) => V::Index(x),
                    Literal::I64(x) => V::I64(x),
                    Literal::I32(x) => V::I32(x),
                    Literal::I8(x) => V::I8(x),
                    Literal::Bool(x) => V::Bool(x),
                    Literal::F64(x) => V::F64(x),
                };
                env[op.results[0].index()] = Some(v);
            }
            OpKind::Binary { op: b, lhs, rhs } => {
                if b.is_float() {
                    self.model.retire_fp(1);
                } else {
                    self.model.retire(1);
                }
                let l = g(env, *lhs);
                let r = g(env, *rhs);
                env[op.results[0].index()] = Some(eval_binary(*b, l, r)?);
            }
            OpKind::Cmp { pred, lhs, rhs } => {
                self.model.retire(1);
                let l = g(env, *lhs).as_u64()?;
                let r = g(env, *rhs).as_u64()?;
                let b = match pred {
                    CmpPred::Eq => l == r,
                    CmpPred::Ne => l != r,
                    CmpPred::Ult => l < r,
                    CmpPred::Ule => l <= r,
                    CmpPred::Ugt => l > r,
                    CmpPred::Uge => l >= r,
                };
                env[op.results[0].index()] = Some(V::Bool(b));
            }
            OpKind::Select {
                cond,
                if_true,
                if_false,
            } => {
                self.model.retire(1);
                let c = g(env, *cond).as_bool()?;
                env[op.results[0].index()] = Some(if c {
                    g(env, *if_true)
                } else {
                    g(env, *if_false)
                });
            }
            OpKind::Cast { value, to } => {
                self.model.retire(1);
                let raw = g(env, *value).as_u64()?;
                let v = match to {
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
                };
                env[op.results[0].index()] = Some(v);
            }
            OpKind::Load { mem, index } => {
                let buf_id = g(env, *mem).as_mem()?;
                let i = g(env, *index).as_index()?;
                let (addr, eb) = self.addr_of(buf_id, i);
                self.model.load(op.id, addr, eb);
                let buf = self.bufs.get(buf_id);
                let v = buf.data.get(i).ok_or(InterpError::OutOfBounds {
                    index: i,
                    len: buf.data.len(),
                })?;
                env[op.results[0].index()] = Some(v);
            }
            OpKind::Store { mem, index, value } => {
                let buf_id = g(env, *mem).as_mem()?;
                let i = g(env, *index).as_index()?;
                let v = g(env, *value);
                let (addr, eb) = self.addr_of(buf_id, i);
                self.model.store(op.id, addr, eb);
                self.bufs.get_mut(buf_id).data.set(i, v)?;
            }
            OpKind::Prefetch {
                mem,
                index,
                write,
                locality,
            } => {
                let buf_id = g(env, *mem).as_mem()?;
                let i = g(env, *index).as_index()?;
                // Prefetches never fault: compute the address even if it is
                // out of bounds for the buffer.
                let (addr, _eb) = self.addr_of(buf_id, i);
                self.model.prefetch(op.id, addr, *locality, *write);
            }
            OpKind::Dim { mem } => {
                self.model.retire(1);
                let buf_id = g(env, *mem).as_mem()?;
                env[op.results[0].index()] = Some(V::Index(self.bufs.get(buf_id).data.len()));
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
                let lo = g(env, *lo).as_index()?;
                let hi = g(env, *hi).as_index()?;
                let step = g(env, *step).as_index()?;
                if step == 0 {
                    return Err(InterpError::ZeroStep);
                }
                let mut carried: Vec<V> = inits.iter().map(|&v| g(env, v)).collect();
                let mut i = lo;
                while i < hi {
                    // Fuel is charged at the loop head, before the
                    // bookkeeping retire — the same observable point as
                    // the VM's ForHead/LoopBack charge.
                    self.meter.tick().map_err(InterpError::Budget)?;
                    // Loop bookkeeping: induction increment + compare/branch.
                    self.model.retire(1);
                    env[iv.index()] = Some(V::Index(i));
                    for (a, v) in iter_args.iter().zip(&carried) {
                        env[a.index()] = Some(*v);
                    }
                    match self.region(body, env)? {
                        Flow::Yield(vs) => carried = vs,
                        f @ Flow::Return(_) => return Ok(Some(f)),
                        Flow::Condition(..) => unreachable!("verified"),
                    }
                    i += step;
                }
                for (r, v) in op.results.iter().zip(&carried) {
                    env[r.index()] = Some(*v);
                }
            }
            OpKind::While {
                inits,
                before_args,
                before,
                after_args,
                after,
            } => {
                let mut carried: Vec<V> = inits.iter().map(|&v| g(env, v)).collect();
                loop {
                    for (a, v) in before_args.iter().zip(&carried) {
                        env[a.index()] = Some(*v);
                    }
                    match self.region(before, env)? {
                        Flow::Condition(cond, fwd) => {
                            if !cond {
                                for (r, v) in op.results.iter().zip(&fwd) {
                                    env[r.index()] = Some(*v);
                                }
                                break;
                            }
                            for (a, v) in after_args.iter().zip(&fwd) {
                                env[a.index()] = Some(*v);
                            }
                        }
                        f @ Flow::Return(_) => return Ok(Some(f)),
                        Flow::Yield(_) => unreachable!("verified"),
                    }
                    match self.region(after, env)? {
                        Flow::Yield(vs) => carried = vs,
                        f @ Flow::Return(_) => return Ok(Some(f)),
                        Flow::Condition(..) => unreachable!("verified"),
                    }
                }
            }
            OpKind::If {
                cond,
                then_region,
                else_region,
            } => {
                // Branch instruction.
                self.model.retire(1);
                let c = g(env, *cond).as_bool()?;
                let r = if c { then_region } else { else_region };
                match self.region(r, env)? {
                    Flow::Yield(vs) => {
                        for (res, v) in op.results.iter().zip(&vs) {
                            env[res.index()] = Some(*v);
                        }
                    }
                    f @ Flow::Return(_) => return Ok(Some(f)),
                    Flow::Condition(..) => unreachable!("verified"),
                }
            }
            OpKind::Yield(vs) => {
                self.model.retire(1);
                return Ok(Some(Flow::Yield(vs.iter().map(|&v| g(env, v)).collect())));
            }
            OpKind::ConditionOp { cond, args } => {
                // One `scf.while` iteration = one condition evaluation:
                // fuel is charged here (before the retire), matching the
                // VM's CondBr charge point.
                self.meter.tick().map_err(InterpError::Budget)?;
                self.model.retire(1);
                let c = g(env, *cond).as_bool()?;
                return Ok(Some(Flow::Condition(
                    c,
                    args.iter().map(|&v| g(env, v)).collect(),
                )));
            }
            OpKind::Return(vs) => {
                self.model.retire(1);
                return Ok(Some(Flow::Return(vs.iter().map(|&v| g(env, v)).collect())));
            }
        }
        Ok(None)
    }
}

#[inline]
pub(crate) fn eval_binary(b: BinOp, l: V, r: V) -> Result<V, InterpError> {
    use BinOp::*;
    match b {
        AddF | SubF | MulF | DivF => {
            let (x, y) = (l.as_f64()?, r.as_f64()?);
            Ok(V::F64(match b {
                AddF => x + y,
                SubF => x - y,
                MulF => x * y,
                DivF => x / y,
                _ => unreachable!(),
            }))
        }
        _ => {
            let (x, y) = (l.as_u64()?, r.as_u64()?);
            if y == 0 && matches!(b, DivUI | RemUI) {
                return Err(InterpError::DivisionByZero);
            }
            let z = match b {
                AddI => x.wrapping_add(y),
                SubI => x.wrapping_sub(y),
                MulI => x.wrapping_mul(y),
                DivUI => x / y,
                RemUI => x % y,
                MinUI => x.min(y),
                MaxUI => x.max(y),
                AndI => x & y,
                OrI => x | y,
                XorI => x ^ y,
                _ => unreachable!(),
            };
            // Result type follows the lhs operand type.
            Ok(match l {
                V::Index(_) => V::Index(z as usize),
                V::I64(_) => V::I64(z as i64),
                V::I32(_) => V::I32(z as i32),
                V::I8(_) => V::I8(z as i8),
                V::Bool(_) => V::Bool(z != 0),
                // invariant: as_u64 succeeded above, so l is integer-like.
                _ => unreachable!("integer-like lhs"),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::mem::{BufferData, CountingModel, NullModel};
    use crate::verify::verify;

    /// Build and run a dense dot-product kernel, checking the result and
    /// event counts.
    #[test]
    fn dot_product() {
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
        verify(&f).unwrap();

        let mut bufs = Buffers::new();
        let bx = bufs.add(BufferData::F64(vec![1.0, 2.0, 3.0]));
        let by = bufs.add(BufferData::F64(vec![4.0, 5.0, 6.0]));
        let bo = bufs.add(BufferData::F64(vec![0.0]));
        let mut m = CountingModel::default();
        interpret(
            &f,
            &[V::Mem(bx), V::Mem(by), V::Mem(bo), V::Index(3)],
            &mut bufs,
            &mut m,
        )
        .unwrap();
        match &bufs.get(bo).data {
            BufferData::F64(v) => assert_eq!(v[0], 32.0),
            _ => unreachable!(),
        }
        assert_eq!(m.loads, 6);
        assert_eq!(m.stores, 1);
        assert_eq!(m.prefetches, 0);
        assert!(m.instructions > 6);
    }

    #[test]
    fn while_loop_counts_to_n() {
        use crate::ops::CmpPred;
        let mut b = FuncBuilder::new("count");
        let n = b.arg(Type::Index);
        let out = b.arg(Type::memref(Type::Index));
        let c0 = b.const_index(0);
        let c1 = b.const_index(1);
        let r = b.while_loop(
            &[c0],
            |b, args| (b.cmpi(CmpPred::Ult, args[0], n), vec![args[0]]),
            |b, args| vec![b.addi(args[0], c1)],
        );
        b.store(r[0], out, c0);
        let f = b.finish();
        verify(&f).unwrap();

        let mut bufs = Buffers::new();
        let bo = bufs.add(BufferData::Index(vec![0]));
        interpret(&f, &[V::Index(7), V::Mem(bo)], &mut bufs, &mut NullModel).unwrap();
        match &bufs.get(bo).data {
            BufferData::Index(v) => assert_eq!(v[0], 7),
            _ => unreachable!(),
        }
    }

    #[test]
    fn out_of_bounds_load_faults() {
        let mut b = FuncBuilder::new("oob");
        let x = b.arg(Type::memref(Type::F64));
        let i = b.arg(Type::Index);
        let out = b.arg(Type::memref(Type::F64));
        let c0 = b.const_index(0);
        let v = b.load(x, i);
        b.store(v, out, c0);
        let f = b.finish();
        let mut bufs = Buffers::new();
        let bx = bufs.add(BufferData::F64(vec![1.0, 2.0]));
        let bo = bufs.add(BufferData::F64(vec![0.0]));
        let err = interpret(
            &f,
            &[V::Mem(bx), V::Index(5), V::Mem(bo)],
            &mut bufs,
            &mut NullModel,
        )
        .unwrap_err();
        assert_eq!(*err.root(), InterpError::OutOfBounds { index: 5, len: 2 });
        // The trap is located at the faulting load op.
        assert!(err.op().is_some(), "trap carries an op id: {err}");
    }

    #[test]
    fn prefetch_past_end_does_not_fault() {
        let mut b = FuncBuilder::new("pf");
        let x = b.arg(Type::memref(Type::F64));
        let i = b.arg(Type::Index);
        b.prefetch_read(x, i, 2);
        let f = b.finish();
        let mut bufs = Buffers::new();
        let bx = bufs.add(BufferData::F64(vec![1.0]));
        let mut m = CountingModel::default();
        interpret(&f, &[V::Mem(bx), V::Index(1000)], &mut bufs, &mut m).unwrap();
        assert_eq!(m.prefetches, 1);
    }

    #[test]
    fn if_else_selects_branch() {
        use crate::ops::CmpPred;
        let mut b = FuncBuilder::new("sel");
        let x = b.arg(Type::Index);
        let out = b.arg(Type::memref(Type::Index));
        let c0 = b.const_index(0);
        let c10 = b.const_index(10);
        let c20 = b.const_index(20);
        let cond = b.cmpi(CmpPred::Ult, x, c10);
        let r = b.if_else(cond, &[Type::Index], |_| vec![c10], |_| vec![c20]);
        b.store(r[0], out, c0);
        let f = b.finish();
        let run = |arg: usize| {
            let mut bufs = Buffers::new();
            let bo = bufs.add(BufferData::Index(vec![0]));
            interpret(&f, &[V::Index(arg), V::Mem(bo)], &mut bufs, &mut NullModel).unwrap();
            match &bufs.get(bo).data {
                BufferData::Index(v) => v[0],
                _ => unreachable!(),
            }
        };
        assert_eq!(run(5), 10);
        assert_eq!(run(15), 20);
    }

    #[test]
    fn integer_binops_follow_lhs_type() {
        assert_eq!(
            eval_binary(BinOp::AddI, V::I32(2_000_000_000), V::I32(2_000_000_000)).unwrap(),
            V::I32((4_000_000_000u32) as i32)
        );
        assert_eq!(
            eval_binary(BinOp::MinUI, V::Index(3), V::Index(9)).unwrap(),
            V::Index(3)
        );
        assert_eq!(
            eval_binary(BinOp::OrI, V::I8(1), V::I8(2)).unwrap(),
            V::I8(3)
        );
        assert_eq!(
            eval_binary(BinOp::AndI, V::I8(3), V::I8(2)).unwrap(),
            V::I8(2)
        );
    }

    #[test]
    fn division_by_zero_traps() {
        assert_eq!(
            eval_binary(BinOp::DivUI, V::Index(1), V::Index(0)).unwrap_err(),
            InterpError::DivisionByZero
        );
        assert_eq!(
            eval_binary(BinOp::RemUI, V::I32(7), V::I32(0)).unwrap_err(),
            InterpError::DivisionByZero
        );
        // Float division by zero follows IEEE semantics instead.
        assert_eq!(
            eval_binary(BinOp::DivF, V::F64(1.0), V::F64(0.0)).unwrap(),
            V::F64(f64::INFINITY)
        );
    }

    #[test]
    fn type_mismatch_traps_instead_of_aborting() {
        // Pass an f64 where the loop bound (index) is expected: the `for`
        // bound evaluation must trap, not abort the process.
        let mut b = FuncBuilder::new("tm");
        let n = b.arg(Type::Index);
        let c0 = b.const_index(0);
        let c1 = b.const_index(1);
        b.for_loop(c0, n, c1, &[], |_, _, _| vec![]);
        let f = b.finish();
        let mut bufs = Buffers::new();
        let err = interpret(&f, &[V::F64(3.5)], &mut bufs, &mut NullModel).unwrap_err();
        assert!(
            matches!(err.root(), InterpError::TypeMismatch(_)),
            "got {err}"
        );
    }

    #[test]
    fn zero_step_loop_traps() {
        let mut b = FuncBuilder::new("zs");
        let n = b.arg(Type::Index);
        let step = b.arg(Type::Index);
        let c0 = b.const_index(0);
        b.for_loop(c0, n, step, &[], |_, _, _| vec![]);
        let f = b.finish();
        let mut bufs = Buffers::new();
        let err =
            interpret(&f, &[V::Index(10), V::Index(0)], &mut bufs, &mut NullModel).unwrap_err();
        assert_eq!(*err.root(), InterpError::ZeroStep);
    }

    #[test]
    fn dangling_buffer_id_is_rejected_up_front() {
        let mut b = FuncBuilder::new("dangling");
        let x = b.arg(Type::memref(Type::F64));
        let c0 = b.const_index(0);
        let v = b.load(x, c0);
        b.store(v, x, c0);
        let f = b.finish();
        let mut bufs = Buffers::new(); // no buffers at all
        let err = interpret(&f, &[V::Mem(7)], &mut bufs, &mut NullModel).unwrap_err();
        assert!(matches!(err, InterpError::BadArgs(_)), "got {err}");
    }

    #[test]
    fn cast_widens_narrow_coordinates() {
        let mut b = FuncBuilder::new("c");
        let crd = b.arg(Type::memref(Type::I32));
        let out = b.arg(Type::memref(Type::Index));
        let c0 = b.const_index(0);
        let v = b.load(crd, c0);
        let vi = b.to_index(v);
        b.store(vi, out, c0);
        let f = b.finish();
        verify(&f).unwrap();
        let mut bufs = Buffers::new();
        let bc = bufs.add(BufferData::I32(vec![42]));
        let bo = bufs.add(BufferData::Index(vec![0]));
        interpret(&f, &[V::Mem(bc), V::Mem(bo)], &mut bufs, &mut NullModel).unwrap();
        match &bufs.get(bo).data {
            BufferData::Index(v) => assert_eq!(v[0], 42),
            _ => unreachable!(),
        }
    }

    #[test]
    fn bad_arg_count_is_reported() {
        let mut b = FuncBuilder::new("f");
        let _ = b.arg(Type::Index);
        let f = b.finish();
        let mut bufs = Buffers::new();
        let err = interpret(&f, &[], &mut bufs, &mut NullModel).unwrap_err();
        assert!(matches!(err, InterpError::BadArgs(_)));
    }
}
