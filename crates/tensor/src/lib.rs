//! # asap-tensor — sparse tensor dialect substrate
//!
//! Reimplements the storage side of MLIR's `sparse_tensor` dialect as used
//! by the ASaP paper: level types (Section 2.2), format descriptors
//! (Figure 1b), and the serialization of coordinate hierarchy trees into
//! segmented `pos`/`crd`/`values` buffers (Section 2.3, Figure 2).
//!
//! The storage invariants checked by [`SparseTensor::check_invariants`]
//! are exactly the ones ASaP's semantic bound computation relies on:
//! `pos` has one segment per parent node, and its last element is the
//! total node (= coordinate-buffer) count of the level.

pub mod format;
pub mod level;
pub mod storage;
pub mod values;

pub use format::Format;
pub use level::LevelType;
pub use storage::{
    read_f64, read_i8, CooTensor, DenseTensor, LevelStorage, SparseTensor, TensorBuffers,
};
pub use values::{IndexArray, IndexWidth, ValueKind, Values};
