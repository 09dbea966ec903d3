//! Runtime values, typed buffers and the [`MemoryModel`] hook — what
//! every execution engine (tree-walker, bytecode VM, tier-2) shares.
//!
//! Functional correctness comes from running the IR against [`Buffers`];
//! timing comes from attaching the `asap-sim` machine model as the
//! [`MemoryModel`]. A [`NullModel`] is provided for pure functional runs.

use crate::budget::BudgetError;
use crate::ops::OpId;
use crate::types::Type;

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum V {
    Index(usize),
    I64(i64),
    I32(i32),
    I8(i8),
    Bool(bool),
    F64(f64),
    /// A memref bound to a buffer id in the [`Buffers`] arena.
    Mem(u32),
}

impl V {
    pub(crate) fn mismatch(want: &str, got: V) -> InterpError {
        InterpError::TypeMismatch(format!("expected {want} value, got {got:?}"))
    }

    /// The `index` payload, or a [`InterpError::TypeMismatch`] trap.
    #[inline]
    pub fn as_index(self) -> Result<usize, InterpError> {
        match self {
            V::Index(v) => Ok(v),
            other => Err(Self::mismatch("index", other)),
        }
    }

    #[inline]
    pub fn as_f64(self) -> Result<f64, InterpError> {
        match self {
            V::F64(v) => Ok(v),
            other => Err(Self::mismatch("f64", other)),
        }
    }

    #[inline]
    pub fn as_bool(self) -> Result<bool, InterpError> {
        match self {
            V::Bool(v) => Ok(v),
            other => Err(Self::mismatch("i1", other)),
        }
    }

    #[inline]
    pub fn as_mem(self) -> Result<u32, InterpError> {
        match self {
            V::Mem(v) => Ok(v),
            other => Err(Self::mismatch("memref", other)),
        }
    }

    /// Widen any integer-like value to u64 (for casts and comparisons).
    #[inline]
    pub fn as_u64(self) -> Result<u64, InterpError> {
        match self {
            V::Index(v) => Ok(v as u64),
            V::I64(v) => Ok(v as u64),
            V::I32(v) => Ok(v as u32 as u64),
            V::I8(v) => Ok(v as u8 as u64),
            V::Bool(v) => Ok(v as u64),
            other => Err(Self::mismatch("integer-like", other)),
        }
    }
}

/// Typed storage for one buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum BufferData {
    F64(Vec<f64>),
    I64(Vec<i64>),
    I32(Vec<i32>),
    I8(Vec<i8>),
    Index(Vec<usize>),
}

impl BufferData {
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            BufferData::F64(v) => v.len(),
            BufferData::I64(v) => v.len(),
            BufferData::I32(v) => v.len(),
            BufferData::I8(v) => v.len(),
            BufferData::Index(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element size in bytes.
    #[inline]
    pub fn elem_bytes(&self) -> u8 {
        match self {
            BufferData::F64(_) | BufferData::I64(_) | BufferData::Index(_) => 8,
            BufferData::I32(_) => 4,
            BufferData::I8(_) => 1,
        }
    }

    /// The IR element type of this buffer.
    pub fn elem_type(&self) -> Type {
        match self {
            BufferData::F64(_) => Type::F64,
            BufferData::I64(_) => Type::I64,
            BufferData::I32(_) => Type::I32,
            BufferData::I8(_) => Type::I8,
            BufferData::Index(_) => Type::Index,
        }
    }

    #[inline]
    pub(crate) fn get(&self, i: usize) -> Option<V> {
        match self {
            BufferData::F64(v) => v.get(i).map(|&x| V::F64(x)),
            BufferData::I64(v) => v.get(i).map(|&x| V::I64(x)),
            BufferData::I32(v) => v.get(i).map(|&x| V::I32(x)),
            BufferData::I8(v) => v.get(i).map(|&x| V::I8(x)),
            BufferData::Index(v) => v.get(i).map(|&x| V::Index(x)),
        }
    }

    #[inline]
    pub(crate) fn set(&mut self, i: usize, val: V) -> Result<(), InterpError> {
        let oob = |len: usize| InterpError::OutOfBounds { index: i, len };
        match (self, val) {
            (BufferData::F64(v), V::F64(x)) => {
                let len = v.len();
                *v.get_mut(i).ok_or(oob(len))? = x;
            }
            (BufferData::I64(v), V::I64(x)) => {
                let len = v.len();
                *v.get_mut(i).ok_or(oob(len))? = x;
            }
            (BufferData::I32(v), V::I32(x)) => {
                let len = v.len();
                *v.get_mut(i).ok_or(oob(len))? = x;
            }
            (BufferData::I8(v), V::I8(x)) => {
                let len = v.len();
                *v.get_mut(i).ok_or(oob(len))? = x;
            }
            (BufferData::Index(v), V::Index(x)) => {
                let len = v.len();
                *v.get_mut(i).ok_or(oob(len))? = x;
            }
            (b, v) => {
                return Err(InterpError::TypeMismatch(format!(
                    "store of {v:?} into {} buffer",
                    b.elem_type()
                )))
            }
        }
        Ok(())
    }
}

/// One buffer with its assigned virtual base address.
#[derive(Debug, Clone)]
pub struct Buffer {
    pub data: BufferData,
    pub base_addr: u64,
}

/// The buffer arena. Buffers get virtual base addresses from a bump
/// allocator with page alignment and a guard gap, so hardware-prefetcher
/// models see distinct, realistic address streams per buffer.
#[derive(Debug, Clone, Default)]
pub struct Buffers {
    bufs: Vec<Buffer>,
    next_addr: u64,
}

/// Virtual address where the first buffer is placed.
pub const BASE_ADDR: u64 = 0x1000_0000;
/// Alignment of each buffer (a 4 KiB page).
pub const BUF_ALIGN: u64 = 4096;
/// Unmapped guard gap between consecutive buffers.
pub const GUARD_GAP: u64 = 64 * 1024;

impl Buffers {
    pub fn new() -> Buffers {
        Buffers {
            bufs: Vec::new(),
            next_addr: BASE_ADDR,
        }
    }

    /// Add a buffer, returning its id (to be passed as a `V::Mem` argument).
    pub fn add(&mut self, data: BufferData) -> u32 {
        let id = self.bufs.len() as u32;
        let size = data.len() as u64 * data.elem_bytes() as u64;
        let base = self.next_addr;
        self.next_addr = (base + size + GUARD_GAP).div_ceil(BUF_ALIGN) * BUF_ALIGN;
        self.bufs.push(Buffer {
            data,
            base_addr: base,
        });
        id
    }

    // invariant: ids come from `add`, and `interpret` rejects dangling
    // `V::Mem` arguments before execution starts, so the index is in range.
    #[inline]
    pub fn get(&self, id: u32) -> &Buffer {
        &self.bufs[id as usize]
    }

    #[inline]
    pub fn get_mut(&mut self, id: u32) -> &mut Buffer {
        &mut self.bufs[id as usize]
    }

    pub fn len(&self) -> usize {
        self.bufs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bufs.is_empty()
    }

    /// Total payload bytes bound into this arena (excluding alignment
    /// padding and guard gaps) — what a [`Budget`] bytes ceiling meters.
    pub fn bytes_allocated(&self) -> u64 {
        self.bufs
            .iter()
            .map(|b| b.data.len() as u64 * b.data.elem_bytes() as u64)
            .sum()
    }
}

/// Kinds of memory access reported to the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    Load,
    Store,
    /// Software prefetch with its locality hint (0 = non-temporal … 3 = L1).
    Prefetch {
        locality: u8,
        write: bool,
    },
}

/// Observer of the interpreted execution. `asap-sim` implements this to do
/// timing; [`NullModel`] ignores everything.
pub trait MemoryModel {
    /// A demand load of `bytes` at `addr`, issued by static op `pc`.
    fn load(&mut self, pc: OpId, addr: u64, bytes: u8);
    /// A demand store.
    fn store(&mut self, pc: OpId, addr: u64, bytes: u8);
    /// A software prefetch. Never faults; `addr` may be outside any buffer.
    fn prefetch(&mut self, pc: OpId, addr: u64, locality: u8, write: bool);
    /// `n` non-memory instructions retired.
    fn retire(&mut self, n: u64);
    /// `n` floating-point arithmetic instructions retired. Distinguished
    /// so timing models can charge FP latency chains (e.g. a scalarized
    /// reduction's serial `addf` chain); defaults to plain
    /// [`MemoryModel::retire`].
    fn retire_fp(&mut self, n: u64) {
        self.retire(n);
    }
}

/// A memory model that ignores all events (pure functional execution).
#[derive(Debug, Default, Clone)]
pub struct NullModel;

impl MemoryModel for NullModel {
    fn load(&mut self, _: OpId, _: u64, _: u8) {}
    fn store(&mut self, _: OpId, _: u64, _: u8) {}
    fn prefetch(&mut self, _: OpId, _: u64, _: u8, _: bool) {}
    fn retire(&mut self, _: u64) {}
}

/// A memory model that only counts events — useful in tests.
#[derive(Debug, Default, Clone)]
pub struct CountingModel {
    pub loads: u64,
    pub stores: u64,
    pub prefetches: u64,
    pub instructions: u64,
}

impl MemoryModel for CountingModel {
    fn load(&mut self, _: OpId, _: u64, _: u8) {
        self.loads += 1;
        self.instructions += 1;
    }
    fn store(&mut self, _: OpId, _: u64, _: u8) {
        self.stores += 1;
        self.instructions += 1;
    }
    fn prefetch(&mut self, _: OpId, _: u64, _: u8, _: bool) {
        self.prefetches += 1;
        self.instructions += 1;
    }
    fn retire(&mut self, n: u64) {
        self.instructions += n;
    }
}

/// Errors during interpretation. These are traps, not process aborts: a
/// kernel run over corrupt input returns `Err` and the interpreter state
/// is simply dropped.
#[derive(Debug, Clone, PartialEq)]
pub enum InterpError {
    /// A demand access fell outside its buffer — the fault ASaP's bounds
    /// logic exists to avoid.
    OutOfBounds {
        index: usize,
        len: usize,
    },
    TypeMismatch(String),
    /// Function argument count or buffer-id mismatch.
    BadArgs(String),
    /// `arith.divui` / `arith.remui` with a zero divisor.
    DivisionByZero,
    /// `scf.for` with step 0 (would never terminate).
    ZeroStep,
    /// A resource budget (fuel, deadline, cancellation) ran out. Both
    /// engines charge the meter at observationally identical points, so
    /// a fuel trap carries the same location in tree-walk and bytecode.
    Budget(BudgetError),
    /// An error located at a specific static op, attached by the
    /// interpreter's region walk. `cause` is never itself an `At`.
    At {
        op: OpId,
        cause: Box<InterpError>,
    },
}

impl InterpError {
    /// Attach the faulting op id. Keeps the innermost location if one was
    /// already attached (the op actually executing when the trap fired).
    pub fn at(self, op: OpId) -> InterpError {
        match self {
            e @ InterpError::At { .. } => e,
            e => InterpError::At {
                op,
                cause: Box::new(e),
            },
        }
    }

    /// The underlying error, with any location wrapper stripped.
    pub fn root(&self) -> &InterpError {
        match self {
            InterpError::At { cause, .. } => cause.root(),
            e => e,
        }
    }

    /// The faulting op, when known.
    pub fn op(&self) -> Option<OpId> {
        match self {
            InterpError::At { op, .. } => Some(*op),
            _ => None,
        }
    }
}

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpError::OutOfBounds { index, len } => {
                write!(f, "access fault: index {index} out of bounds (len {len})")
            }
            InterpError::TypeMismatch(m) => write!(f, "type mismatch: {m}"),
            InterpError::BadArgs(m) => write!(f, "bad arguments: {m}"),
            InterpError::DivisionByZero => write!(f, "division by zero"),
            InterpError::ZeroStep => write!(f, "scf.for step must be positive"),
            InterpError::Budget(b) => write!(f, "budget exceeded: {b}"),
            InterpError::At { op, cause } => write!(f, "{op}: {cause}"),
        }
    }
}

impl std::error::Error for InterpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_addresses_are_disjoint_and_aligned() {
        let mut bufs = Buffers::new();
        let a = bufs.add(BufferData::F64(vec![0.0; 1000]));
        let b = bufs.add(BufferData::I32(vec![0; 17]));
        let c = bufs.add(BufferData::I8(vec![0; 3]));
        let (ba, bb, bc) = (
            bufs.get(a).base_addr,
            bufs.get(b).base_addr,
            bufs.get(c).base_addr,
        );
        assert_eq!(ba % BUF_ALIGN, 0);
        assert_eq!(bb % BUF_ALIGN, 0);
        assert_eq!(bc % BUF_ALIGN, 0);
        assert!(ba + 8000 + GUARD_GAP <= bb);
        assert!(bb + 68 + GUARD_GAP <= bc);
    }
}
