//! Declarative kernel specifications — the `linalg.generic` level of the
//! paper's Figure 1a.
//!
//! A [`KernelSpec`] describes a tensor contraction: an iteration space of
//! named indices, affine maps binding each operand dimension to an index,
//! and iterator types. The computation body is the semiring
//! multiply-accumulate implied by the operand value kind (`mulf`/`addf`
//! for floats, `andi`/`ori` for binary matrices — paper Section 4.2).

use asap_tensor::ValueKind;

/// How a loop index behaves, as in `iterator_types` of `linalg.generic`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IteratorType {
    /// Appears in the output: iterations are independent.
    Parallel,
    /// Reduced away: iterations accumulate.
    Reduction,
}

/// One operand's indexing: operand dimension `d` is indexed by loop index
/// `map[d]` (an `affine_map<(i, j) -> (...)>` restricted to projections,
/// which is all sparsification supports for sparse operands).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OperandSpec {
    pub map: Vec<usize>,
}

impl OperandSpec {
    pub fn new(map: Vec<usize>) -> OperandSpec {
        OperandSpec { map }
    }

    pub fn rank(&self) -> usize {
        self.map.len()
    }
}

/// A declarative contraction kernel over one sparse input (operand 0) and
/// any number of dense inputs, producing a dense output:
///
/// `out[...] += in0[...] * in1[...] * ...` under the value kind's semiring.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KernelSpec {
    pub name: String,
    /// Number of loop indices in the iteration space.
    pub num_indices: usize,
    pub iterator_types: Vec<IteratorType>,
    /// Operand 0 is the sparse input; the rest are dense.
    pub inputs: Vec<OperandSpec>,
    pub output: OperandSpec,
    /// Element kind of all operands.
    pub value_kind: ValueKind,
    /// The `sorted = true` attribute: prohibits reordering the iteration
    /// space away from the coordinate hierarchy order (paper Fig. 1a l.7).
    pub sorted: bool,
}

impl KernelSpec {
    /// SpMV: `a(i) = B(i,j) * c(j)` (paper Figure 1a).
    pub fn spmv(value_kind: ValueKind) -> KernelSpec {
        KernelSpec {
            name: "spmv".into(),
            num_indices: 2,
            iterator_types: vec![IteratorType::Parallel, IteratorType::Reduction],
            inputs: vec![OperandSpec::new(vec![0, 1]), OperandSpec::new(vec![1])],
            output: OperandSpec::new(vec![0]),
            value_kind,
            sorted: true,
        }
    }

    /// SpMM: `A(i,k) = B(i,j) * C(j,k)` (paper Figure 9).
    pub fn spmm(value_kind: ValueKind) -> KernelSpec {
        KernelSpec {
            name: "spmm".into(),
            num_indices: 3,
            iterator_types: vec![
                IteratorType::Parallel,
                IteratorType::Reduction,
                IteratorType::Parallel,
            ],
            inputs: vec![OperandSpec::new(vec![0, 1]), OperandSpec::new(vec![1, 2])],
            output: OperandSpec::new(vec![0, 2]),
            value_kind,
            sorted: true,
        }
    }

    /// Transposed SpMV: `a(j) = B(i,j) * c(i)` — the reduction index is
    /// OUTER under row-major storage, so the generated code accumulates
    /// through memory instead of a scalarized register (the dual of the
    /// plain SpMV codegen path).
    pub fn spmv_transposed(value_kind: ValueKind) -> KernelSpec {
        KernelSpec {
            name: "spmv_t".into(),
            num_indices: 2,
            iterator_types: vec![IteratorType::Reduction, IteratorType::Parallel],
            inputs: vec![OperandSpec::new(vec![0, 1]), OperandSpec::new(vec![0])],
            output: OperandSpec::new(vec![1]),
            value_kind,
            sorted: true,
        }
    }

    /// Sparse 3-tensor times two dense matrices (MTTKRP-like contraction):
    /// `A(i,l) = B(i,j,k) * C(j,l) * D(k,l)` over a CSF-format `B`.
    /// Exercises the general N-level bound recursion of Section 3.2.2.
    pub fn mttkrp(value_kind: ValueKind) -> KernelSpec {
        KernelSpec {
            name: "mttkrp".into(),
            num_indices: 4,
            iterator_types: vec![
                IteratorType::Parallel,
                IteratorType::Reduction,
                IteratorType::Reduction,
                IteratorType::Parallel,
            ],
            inputs: vec![
                OperandSpec::new(vec![0, 1, 2]),
                OperandSpec::new(vec![1, 3]),
                OperandSpec::new(vec![2, 3]),
            ],
            output: OperandSpec::new(vec![0, 3]),
            value_kind,
            sorted: true,
        }
    }

    /// The sparse input's operand spec.
    pub fn sparse_input(&self) -> &OperandSpec {
        &self.inputs[0]
    }

    /// Dense inputs (operands 1..).
    pub fn dense_inputs(&self) -> &[OperandSpec] {
        &self.inputs[1..]
    }

    /// Whether a loop index appears in the output map.
    pub fn index_in_output(&self, idx: usize) -> bool {
        self.output.map.contains(&idx)
    }

    /// Validate internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.iterator_types.len() != self.num_indices {
            return Err("iterator_types length != num_indices".into());
        }
        if self.inputs.is_empty() {
            return Err("at least one (sparse) input required".into());
        }
        for (oi, op) in self.inputs.iter().chain(Some(&self.output)).enumerate() {
            for &i in &op.map {
                if i >= self.num_indices {
                    return Err(format!("operand {oi} references index {i} out of range"));
                }
            }
        }
        for (i, &it) in self.iterator_types.iter().enumerate() {
            let in_out = self.index_in_output(i);
            match it {
                IteratorType::Parallel if !in_out => {
                    return Err(format!("parallel index {i} missing from output"));
                }
                IteratorType::Reduction if in_out => {
                    return Err(format!("reduction index {i} present in output"));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spmv_spec_is_valid() {
        let s = KernelSpec::spmv(ValueKind::F64);
        s.validate().unwrap();
        assert_eq!(s.num_indices, 2);
        assert!(s.index_in_output(0));
        assert!(!s.index_in_output(1));
    }

    #[test]
    fn spmm_spec_is_valid() {
        let s = KernelSpec::spmm(ValueKind::I8);
        s.validate().unwrap();
        assert_eq!(s.dense_inputs().len(), 1);
        assert_eq!(s.output.map, vec![0, 2]);
    }

    #[test]
    fn mttkrp_spec_is_valid() {
        KernelSpec::mttkrp(ValueKind::F64).validate().unwrap();
    }

    #[test]
    fn detects_reduction_in_output() {
        let mut s = KernelSpec::spmv(ValueKind::F64);
        s.output.map = vec![1];
        assert!(s.validate().is_err());
    }

    #[test]
    fn detects_out_of_range_index() {
        let mut s = KernelSpec::spmv(ValueKind::F64);
        s.inputs[1].map = vec![7];
        assert!(s.validate().is_err());
    }

    #[test]
    fn detects_parallel_missing_from_output() {
        let mut s = KernelSpec::spmm(ValueKind::F64);
        s.output.map = vec![0];
        assert!(s.validate().is_err());
    }
}
