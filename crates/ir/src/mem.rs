//! Runtime values, typed buffers and the [`MemoryModel`] hook — what
//! every execution engine (tree-walker, bytecode VM, tier-2) shares.
//!
//! Functional correctness comes from running the IR against [`Buffers`];
//! timing comes from attaching the `asap-sim` machine model as the
//! [`MemoryModel`]. A [`NullModel`] is provided for pure functional runs.
//!
//! A buffer's payload is owned by the arena ([`Buffers::add`]) or shared
//! with whoever else holds its `Arc` ([`Buffers::add_shared`] — a sparse
//! tensor's arrays, bound into every run without a copy). Reads go
//! through the same accessor either way; the first mutable access to a
//! shared buffer copies it, so a store is never seen outside the arena.
//! Addresses, sizes and [`Buffers::bytes_allocated`] depend on the
//! payload alone, not on who holds it.

use crate::budget::BudgetError;
use crate::ops::OpId;
use crate::types::Type;
use std::sync::Arc;

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
        self.as_slice().len()
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
        self.as_slice().elem_type()
    }

    #[inline]
    pub(crate) fn get(&self, i: usize) -> Option<V> {
        self.as_slice().get(i)
    }

    #[inline]
    pub(crate) fn set(&mut self, i: usize, val: V) -> Result<(), InterpError> {
        self.as_slice_mut().set(i, val)
    }

    #[inline]
    pub(crate) fn as_slice(&self) -> Slice<'_> {
        match self {
            BufferData::F64(v) => Slice::F64(v),
            BufferData::I64(v) => Slice::I64(v),
            BufferData::I32(v) => Slice::I32(v),
            BufferData::I8(v) => Slice::I8(v),
            BufferData::Index(v) => Slice::Index(v),
        }
    }

    #[inline]
    fn as_slice_mut(&mut self) -> SliceMut<'_> {
        match self {
            BufferData::F64(v) => SliceMut::F64(v),
            BufferData::I64(v) => SliceMut::I64(v),
            BufferData::I32(v) => SliceMut::I32(v),
            BufferData::I8(v) => SliceMut::I8(v),
            BufferData::Index(v) => SliceMut::Index(v),
        }
    }
}

/// The elements of a buffer, borrowed: what an access needs once the
/// buffer is known, with no arena or `Arc` left to go through.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Slice<'a> {
    F64(&'a [f64]),
    I64(&'a [i64]),
    I32(&'a [i32]),
    I8(&'a [i8]),
    Index(&'a [usize]),
}

impl Slice<'_> {
    fn elem_type(&self) -> Type {
        match self {
            Slice::F64(_) => Type::F64,
            Slice::I64(_) => Type::I64,
            Slice::I32(_) => Type::I32,
            Slice::I8(_) => Type::I8,
            Slice::Index(_) => Type::Index,
        }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        match self {
            Slice::F64(v) => v.len(),
            Slice::I64(v) => v.len(),
            Slice::I32(v) => v.len(),
            Slice::I8(v) => v.len(),
            Slice::Index(v) => v.len(),
        }
    }

    #[inline]
    pub(crate) fn get(&self, i: usize) -> Option<V> {
        match self {
            Slice::F64(v) => v.get(i).map(|&x| V::F64(x)),
            Slice::I64(v) => v.get(i).map(|&x| V::I64(x)),
            Slice::I32(v) => v.get(i).map(|&x| V::I32(x)),
            Slice::I8(v) => v.get(i).map(|&x| V::I8(x)),
            Slice::Index(v) => v.get(i).map(|&x| V::Index(x)),
        }
    }
}

/// [`Slice`], writable.
#[derive(Debug)]
pub(crate) enum SliceMut<'a> {
    F64(&'a mut [f64]),
    I64(&'a mut [i64]),
    I32(&'a mut [i32]),
    I8(&'a mut [i8]),
    Index(&'a mut [usize]),
}

impl SliceMut<'_> {
    #[inline]
    fn as_slice(&self) -> Slice<'_> {
        match self {
            SliceMut::F64(v) => Slice::F64(v),
            SliceMut::I64(v) => Slice::I64(v),
            SliceMut::I32(v) => Slice::I32(v),
            SliceMut::I8(v) => Slice::I8(v),
            SliceMut::Index(v) => Slice::Index(v),
        }
    }

    #[inline]
    fn set(&mut self, i: usize, val: V) -> Result<(), InterpError> {
        let len = self.as_slice().len();
        let slot = match (&mut *self, val) {
            (SliceMut::F64(v), V::F64(x)) => v.get_mut(i).map(|e| *e = x),
            (SliceMut::I64(v), V::I64(x)) => v.get_mut(i).map(|e| *e = x),
            (SliceMut::I32(v), V::I32(x)) => v.get_mut(i).map(|e| *e = x),
            (SliceMut::I8(v), V::I8(x)) => v.get_mut(i).map(|e| *e = x),
            (SliceMut::Index(v), V::Index(x)) => v.get_mut(i).map(|e| *e = x),
            (b, v) => {
                return Err(InterpError::TypeMismatch(format!(
                    "store of {v:?} into {} buffer",
                    b.as_slice().elem_type()
                )))
            }
        };
        slot.ok_or(InterpError::OutOfBounds { index: i, len })
    }
}

/// One buffer as a VM run holds it (see [`Buffers::views`]).
#[derive(Debug)]
pub(crate) enum View<'a> {
    /// The program has no store to it.
    Ro(Slice<'a>),
    Rw(SliceMut<'a>),
}

impl View<'_> {
    #[inline]
    pub(crate) fn as_slice(&self) -> Slice<'_> {
        match self {
            View::Ro(s) => *s,
            View::Rw(s) => s.as_slice(),
        }
    }

    #[inline]
    pub(crate) fn set(&mut self, i: usize, val: V) -> Result<(), InterpError> {
        match self {
            View::Rw(s) => s.set(i, val),
            // invariant: `Buffers::views` is told every buffer the
            // program has a store instruction for.
            View::Ro(_) => Err(InterpError::TypeMismatch(
                "store into a buffer bound read-only".into(),
            )),
        }
    }
}

/// One buffer with its assigned virtual base address. The arena owns
/// `Buffer` (what [`Buffers::get_mut`] lends); [`Buffers::get`] lends
/// the same two fields as `Buffer<&BufferData>`, whoever holds the
/// payload.
#[derive(Debug, Clone, Copy)]
pub struct Buffer<D = BufferData> {
    pub data: D,
    pub base_addr: u64,
}

/// Who holds a buffer's payload: the arena, or an `Arc` the caller keeps
/// a handle to (a sparse tensor's arrays, bound into every request
/// without a copy).
#[derive(Debug, Clone)]
enum Slot {
    Owned(Buffer),
    Shared(Buffer<Arc<BufferData>>),
}

impl Slot {
    #[inline]
    fn data(&self) -> &BufferData {
        match self {
            Slot::Owned(b) => &b.data,
            Slot::Shared(b) => &b.data,
        }
    }

    /// The buffer, owned: a shared one is replaced by a private copy
    /// first (once — it is owned from then on).
    #[inline]
    fn owned(&mut self) -> &mut Buffer {
        if let Slot::Shared(b) = self {
            *self = Slot::Owned(Buffer {
                data: BufferData::clone(&b.data),
                base_addr: b.base_addr,
            });
        }
        match self {
            Slot::Owned(b) => b,
            // invariant: the branch above has just made the slot owned.
            Slot::Shared(_) => unreachable!("slot was unshared above"),
        }
    }
}

/// The buffer arena. Buffers get virtual base addresses from a bump
/// allocator with page alignment and a guard gap, so hardware-prefetcher
/// models see distinct, realistic address streams per buffer. A buffer's
/// address, size and contents do not depend on whether it was added
/// owned or shared.
#[derive(Debug, Clone, Default)]
pub struct Buffers {
    bufs: Vec<Slot>,
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
        let base_addr = self.place(&data);
        self.push(Slot::Owned(Buffer { data, base_addr }))
    }

    /// As [`Buffers::add`] without taking the payload over: the arena
    /// reads it through the `Arc`, and the first [`Buffers::get_mut`] of
    /// the buffer replaces it with a private copy, so the other holders
    /// never see a store.
    pub fn add_shared(&mut self, data: Arc<BufferData>) -> u32 {
        let base_addr = self.place(&data);
        self.push(Slot::Shared(Buffer { data, base_addr }))
    }

    /// Bump-allocate the address range of the next buffer.
    fn place(&mut self, data: &BufferData) -> u64 {
        let size = data.len() as u64 * data.elem_bytes() as u64;
        let base = self.next_addr;
        self.next_addr = (base + size + GUARD_GAP).div_ceil(BUF_ALIGN) * BUF_ALIGN;
        base
    }

    fn push(&mut self, slot: Slot) -> u32 {
        self.bufs.push(slot);
        self.bufs.len() as u32 - 1
    }

    // invariant: ids come from `add`, and `interpret` rejects dangling
    // `V::Mem` arguments before execution starts, so the index is in range.
    #[inline]
    pub fn get(&self, id: u32) -> Buffer<&BufferData> {
        let slot = &self.bufs[id as usize];
        let base_addr = match slot {
            Slot::Owned(b) => b.base_addr,
            Slot::Shared(b) => b.base_addr,
        };
        Buffer {
            data: slot.data(),
            base_addr,
        }
    }

    /// Mutable access, for stores. A shared buffer is copied first (once:
    /// it is owned from then on).
    #[inline]
    pub fn get_mut(&mut self, id: u32) -> &mut Buffer {
        self.bufs[id as usize].owned()
    }

    /// Borrow every buffer at once for a VM run, element slices resolved
    /// — an access is then the same indexed load whether the buffer is
    /// shared or owned. Buffer `id` is borrowed mutably when
    /// `written[id]` (a shared one copied first, as by
    /// [`Buffers::get_mut`]), else read-only.
    pub(crate) fn views(&mut self, written: &[bool]) -> Vec<View<'_>> {
        debug_assert_eq!(written.len(), self.bufs.len());
        self.bufs
            .iter_mut()
            .zip(written)
            .map(|(slot, &w)| match w {
                true => View::Rw(slot.owned().data.as_slice_mut()),
                false => View::Ro(slot.data().as_slice()),
            })
            .collect()
    }

    /// Whether a store into the buffer would have to copy it first.
    pub(crate) fn is_shared(&self, id: u32) -> bool {
        matches!(self.bufs[id as usize], Slot::Shared(_))
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
            .map(|slot| slot.data().len() as u64 * slot.data().elem_bytes() as u64)
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
