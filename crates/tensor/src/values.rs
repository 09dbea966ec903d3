//! Non-zero value storage.
//!
//! The paper's evaluation uses 64-bit floats for general matrices and
//! single-byte values with boolean arithmetic (`arith.ori`/`arith.andi`)
//! for binary matrices (Section 4.2). [`Values`] carries either.

use asap_ir::BufferData;

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

    /// Convert into interpreter buffer data.
    pub fn to_buffer_data(&self) -> BufferData {
        match self {
            Values::F64(v) => BufferData::F64(v.clone()),
            Values::I8(v) => BufferData::I8(v.clone()),
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

    /// Materialize an index array at this width.
    pub fn to_buffer_data(self, data: &[usize]) -> BufferData {
        match self {
            IndexWidth::U32 => BufferData::I32(data.iter().map(|&x| x as i32).collect()),
            IndexWidth::U64 => BufferData::Index(data.to_vec()),
        }
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
