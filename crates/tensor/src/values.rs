//! Non-zero value storage.
//!
//! The paper's evaluation uses 64-bit floats for general matrices and
//! single-byte values with boolean arithmetic (`arith.ori`/`arith.andi`)
//! for binary matrices (Section 4.2). [`Values`] carries either, as the
//! owned array of a COO or dense tensor; a [`SparseTensor`]'s values and
//! its `pos`/`crd` arrays ([`IndexArray`]) live behind an `Arc`, already
//! in the element type the engines read, so binding shares them.
//!
//! [`SparseTensor`]: crate::SparseTensor

use asap_ir::BufferData;
use std::sync::Arc;

/// The element kind of a tensor's values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueKind {
    /// 64-bit IEEE floats with `mulf`/`addf`.
    F64,
    /// Single-byte boolean values with `andi`/`ori` (binary matrices).
    I8,
}

impl ValueKind {
    /// The IR scalar type of this kind.
    pub fn ir_type(self) -> asap_ir::Type {
        match self {
            ValueKind::F64 => asap_ir::Type::F64,
            ValueKind::I8 => asap_ir::Type::I8,
        }
    }

    /// Bytes per element.
    pub fn byte_width(self) -> usize {
        match self {
            ValueKind::F64 => 8,
            ValueKind::I8 => 1,
        }
    }
}

/// A homogeneous array of non-zero values.
#[derive(Debug, Clone, PartialEq)]
pub enum Values {
    F64(Vec<f64>),
    I8(Vec<i8>),
}

impl Values {
    pub fn kind(&self) -> ValueKind {
        match self {
            Values::F64(_) => ValueKind::F64,
            Values::I8(_) => ValueKind::I8,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            Values::F64(v) => v.len(),
            Values::I8(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// An empty array of the given kind.
    pub fn empty(kind: ValueKind) -> Values {
        match kind {
            ValueKind::F64 => Values::F64(Vec::new()),
            ValueKind::I8 => Values::I8(Vec::new()),
        }
    }

    /// An empty array of the given kind with room for `n` values.
    pub fn with_capacity(kind: ValueKind, n: usize) -> Values {
        match kind {
            ValueKind::F64 => Values::F64(Vec::with_capacity(n)),
            ValueKind::I8 => Values::I8(Vec::with_capacity(n)),
        }
    }

    /// A zero-filled array (additive identity of the kind's semiring).
    pub fn zeros(kind: ValueKind, n: usize) -> Values {
        match kind {
            ValueKind::F64 => Values::F64(vec![0.0; n]),
            ValueKind::I8 => Values::I8(vec![0; n]),
        }
    }

    /// Append the value at `src[i]`.
    pub fn push_from(&mut self, src: &Values, i: usize) {
        match (self, src) {
            (Values::F64(d), Values::F64(s)) => d.push(s[i]),
            (Values::I8(d), Values::I8(s)) => d.push(s[i]),
            _ => panic!("value kind mismatch"),
        }
    }

    /// Combine the value at `src[i]` into the last element (used when
    /// deduplicating repeated coordinates: `+` for floats, `|` for
    /// booleans — the additive op of each semiring).
    pub fn accumulate_last(&mut self, src: &Values, i: usize) {
        match (self, src) {
            (Values::F64(d), Values::F64(s)) => *d.last_mut().expect("non-empty") += s[i],
            (Values::I8(d), Values::I8(s)) => *d.last_mut().expect("non-empty") |= s[i],
            _ => panic!("value kind mismatch"),
        }
    }

    /// Copy into interpreter buffer data (how a dense operand is bound).
    pub fn to_buffer_data(&self) -> BufferData {
        self.clone().into_buffer_data()
    }

    /// Hand the array over as interpreter buffer data, element type
    /// unchanged.
    pub(crate) fn into_buffer_data(self) -> BufferData {
        match self {
            Values::F64(v) => BufferData::F64(v),
            Values::I8(v) => BufferData::I8(v),
        }
    }
}

/// A sparse tensor's values compare with an owned array element by
/// element (`*t.values() == Values::F64(..)`).
impl PartialEq<Values> for BufferData {
    fn eq(&self, other: &Values) -> bool {
        match (self, other) {
            (BufferData::F64(a), Values::F64(b)) => a == b,
            (BufferData::I8(a), Values::I8(b)) => a == b,
            _ => false,
        }
    }
}

/// Width of position/coordinate buffer elements. The paper uses 32-bit
/// indices when non-zero counts permit, otherwise 64-bit (Section 4.2) —
/// halving coordinate-buffer footprint and hence memory traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexWidth {
    U32,
    U64,
}

impl IndexWidth {
    /// Choose the narrowest width able to hold every position (≤ nnz) and
    /// coordinate (< max dim).
    pub fn choose(nnz: usize, max_dim: usize) -> IndexWidth {
        if nnz <= u32::MAX as usize && max_dim <= u32::MAX as usize {
            IndexWidth::U32
        } else {
            IndexWidth::U64
        }
    }

    pub fn byte_width(self) -> usize {
        match self {
            IndexWidth::U32 => 4,
            IndexWidth::U64 => 8,
        }
    }

    /// Materialize an index array at this width (a narrow element keeps
    /// the low 32 bits).
    pub fn to_buffer_data(self, data: &[usize]) -> BufferData {
        match self {
            IndexWidth::U32 => i32::wrap(data.iter().map(|&x| i32::from_usize(x)).collect()),
            IndexWidth::U64 => usize::wrap(data.to_vec()),
        }
    }
}

/// The element type of an index array at one [`IndexWidth`]: `i32` holds
/// the bit pattern of a `u32` (what the engines zero-extend on load),
/// `usize` is the IR's `index`.
pub(crate) trait IndexElem: Copy {
    /// Keep the low bits that fit.
    // invariant: `try_from_coo` picks `U32` only when every position
    // (<= nnz) and coordinate (< max dim) fits 32 bits, so nothing it
    // stores is truncated.
    fn from_usize(x: usize) -> Self;
    fn to_usize(self) -> usize;
    fn wrap(v: Vec<Self>) -> BufferData;
    /// The elements of `data` when it has this element type, else none.
    fn slice(data: &BufferData) -> &[Self];
}

impl IndexElem for i32 {
    #[inline]
    fn from_usize(x: usize) -> i32 {
        x as u32 as i32
    }
    #[inline]
    fn to_usize(self) -> usize {
        self as u32 as usize
    }
    fn wrap(v: Vec<i32>) -> BufferData {
        BufferData::I32(v)
    }
    fn slice(data: &BufferData) -> &[i32] {
        match data {
            BufferData::I32(v) => v,
            _ => &[],
        }
    }
}

impl IndexElem for usize {
    #[inline]
    fn from_usize(x: usize) -> usize {
        x
    }
    #[inline]
    fn to_usize(self) -> usize {
        self
    }
    fn wrap(v: Vec<usize>) -> BufferData {
        BufferData::Index(v)
    }
    fn slice(data: &BufferData) -> &[usize] {
        match data {
            BufferData::Index(v) => v,
            _ => &[],
        }
    }
}

/// A `pos` or `crd` array of a sparse tensor: built once at the tensor's
/// index width (`BufferData::I32` for [`IndexWidth::U32`],
/// `BufferData::Index` for [`IndexWidth::U64`]) and held behind an `Arc`,
/// so installing it into an arena is a reference-count increment. Reads
/// as a list of `usize` whatever the width.
#[derive(Clone)]
pub struct IndexArray(Arc<BufferData>);

impl IndexArray {
    pub(crate) fn from_vec<T: IndexElem>(v: Vec<T>) -> IndexArray {
        IndexArray(Arc::new(T::wrap(v)))
    }

    /// `data` stored at `width`.
    pub(crate) fn at_width(width: IndexWidth, data: &[usize]) -> IndexArray {
        IndexArray(Arc::new(width.to_buffer_data(data)))
    }

    /// The array itself, for an arena to share.
    pub(crate) fn shared(&self) -> Arc<BufferData> {
        Arc::clone(&self.0)
    }

    /// The elements at their storage type (none if `T` is not it).
    pub(crate) fn as_slice<T: IndexElem>(&self) -> &[T] {
        T::slice(&self.0)
    }

    /// Bytes the array holds.
    pub(crate) fn byte_len(&self) -> usize {
        self.0.len() * self.0.elem_bytes() as usize
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn get(&self, i: usize) -> Option<usize> {
        let (narrow, wide) = self.slices();
        narrow
            .get(i)
            .map(|x| x.to_usize())
            .or_else(|| wide.get(i).copied())
    }

    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let (narrow, wide) = self.slices();
        narrow
            .iter()
            .map(|x| x.to_usize())
            .chain(wide.iter().copied())
    }

    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }

    /// One of the two is the array, the other is empty.
    fn slices(&self) -> (&[i32], &[usize]) {
        (self.as_slice(), self.as_slice())
    }
}

/// A plain list, like the `Vec<usize>` it reads as.
impl std::fmt::Debug for IndexArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Equal when the elements are, at whatever widths.
impl PartialEq for IndexArray {
    fn eq(&self, other: &IndexArray) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl PartialEq<Vec<usize>> for IndexArray {
    fn eq(&self, other: &Vec<usize>) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter().copied())
    }
}

impl From<Vec<usize>> for IndexArray {
    fn from(v: Vec<usize>) -> IndexArray {
        IndexArray::from_vec(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_adds_floats() {
        let mut v = Values::F64(vec![1.0]);
        v.accumulate_last(&Values::F64(vec![0.0, 2.5]), 1);
        assert_eq!(v, Values::F64(vec![3.5]));
    }

    #[test]
    fn accumulate_ors_booleans() {
        let mut v = Values::I8(vec![0]);
        v.accumulate_last(&Values::I8(vec![1]), 0);
        assert_eq!(v, Values::I8(vec![1]));
    }

    #[test]
    fn index_width_choice() {
        assert_eq!(IndexWidth::choose(100, 100), IndexWidth::U32);
        assert_eq!(
            IndexWidth::choose(u32::MAX as usize + 1, 10),
            IndexWidth::U64
        );
        assert_eq!(
            IndexWidth::choose(10, u32::MAX as usize + 1),
            IndexWidth::U64
        );
    }

    #[test]
    fn buffer_data_widths() {
        let d = IndexWidth::U32.to_buffer_data(&[1, 2, 3]);
        assert_eq!(d.elem_bytes(), 4);
        let d = IndexWidth::U64.to_buffer_data(&[1, 2, 3]);
        assert_eq!(d.elem_bytes(), 8);
    }

    #[test]
    fn zeros_and_kind() {
        assert_eq!(Values::zeros(ValueKind::F64, 3).len(), 3);
        assert_eq!(Values::zeros(ValueKind::I8, 2).kind(), ValueKind::I8);
        assert!(Values::empty(ValueKind::F64).is_empty());
    }
}
