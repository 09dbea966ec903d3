//! Executing sparsified kernels: argument binding and reference
//! implementations.
//!
//! The runner installs tensor buffers into an interpreter arena, binds
//! them to the kernel's calling convention, and interprets the IR with a
//! caller-supplied [`MemoryModel`] (a [`asap_ir::NullModel`] for pure
//! functional runs, the `asap-sim` machine for timed runs).
//!
//! [`bind`] costs O(levels) plus the dense operands: the sparse tensor's
//! arrays are shared with the arena as stored (no conversion, no copy),
//! the dense inputs and the output are copied in, so a run may write
//! its output without touching the caller's tensors.

use crate::codegen::{KernelArg, SparsifiedKernel};
use crate::spec::KernelSpec;
use asap_ir::{interpret, AsapError, Buffers, MemoryModel, V};
use asap_tensor::{DenseTensor, SparseTensor, ValueKind, Values};

/// Resolve the size of every loop index from operand shapes, checking
/// consistency across operands.
pub fn resolve_dims(
    spec: &KernelSpec,
    sparse_dims: &[usize],
    dense_dims: &[&[usize]],
    out_dims: &[usize],
) -> Result<Vec<usize>, AsapError> {
    let mut sizes: Vec<Option<usize>> = vec![None; spec.num_indices];
    let mut bind = |map: &[usize], dims: &[usize], what: &str| -> Result<(), AsapError> {
        if map.len() != dims.len() {
            return Err(AsapError::binding(format!(
                "{what}: rank {} does not match map rank {}",
                dims.len(),
                map.len()
            )));
        }
        for (&idx, &d) in map.iter().zip(dims) {
            match sizes[idx] {
                None => sizes[idx] = Some(d),
                Some(prev) if prev == d => {}
                Some(prev) => {
                    return Err(AsapError::binding(format!(
                        "{what}: index {idx} bound to {d} but previously {prev}"
                    )))
                }
            }
        }
        Ok(())
    };
    bind(&spec.sparse_input().map, sparse_dims, "sparse input")?;
    for (i, (dspec, dims)) in spec.dense_inputs().iter().zip(dense_dims).enumerate() {
        bind(&dspec.map, dims, &format!("dense input {}", i + 1))?;
    }
    bind(&spec.output.map, out_dims, "output")?;
    sizes
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            s.ok_or_else(|| AsapError::binding(format!("index {i} not bound by any operand")))
        })
        .collect()
}

/// Buffers and argument values ready for interpretation. `bufs` holds the
/// sparse operand's arrays shared with the tensor they came from and the
/// dense operands owned.
pub struct BoundKernel {
    pub bufs: Buffers,
    pub args: Vec<V>,
    /// Buffer id of the output (read it back after the run).
    pub out_buf: u32,
}

/// Install all operands — sparse arrays first, then the dense inputs,
/// then the output: the order fixes every buffer's simulated address —
/// and produce the interpreter argument vector matching the kernel's
/// calling convention.
pub fn bind(
    kernel: &SparsifiedKernel,
    sparse: &SparseTensor,
    dense: &[&DenseTensor],
    out: &DenseTensor,
) -> Result<BoundKernel, AsapError> {
    let spec = &kernel.spec;
    if dense.len() != spec.dense_inputs().len() {
        return Err(AsapError::binding(format!(
            "expected {} dense inputs, got {}",
            spec.dense_inputs().len(),
            dense.len()
        )));
    }
    if sparse.format() != &kernel.format {
        return Err(AsapError::binding(format!(
            "tensor stored as {} but kernel compiled for {}",
            sparse.format(),
            kernel.format
        )));
    }
    if sparse.index_width() != kernel.index_width {
        return Err(AsapError::binding(
            "tensor index width does not match kernel",
        ));
    }
    if sparse.value_kind() != spec.value_kind {
        return Err(AsapError::binding(
            "sparse value kind does not match kernel",
        ));
    }
    let dense_dims: Vec<&[usize]> = dense.iter().map(|d| d.dims.as_slice()).collect();
    let dims = resolve_dims(spec, sparse.dims(), &dense_dims, &out.dims)?;

    let mut bufs = Buffers::new();
    let tb = sparse.install(&mut bufs);
    let dense_ids: Vec<u32> = dense.iter().map(|d| d.install(&mut bufs)).collect();
    let out_id = out.install(&mut bufs);

    let mut args = Vec::with_capacity(kernel.args.len());
    for &a in &kernel.args {
        args.push(match a {
            KernelArg::Pos { level } => {
                V::Mem(tb.pos[level].ok_or_else(|| {
                    AsapError::binding(format!("level {level} has no pos buffer"))
                })?)
            }
            KernelArg::Crd { level } => {
                V::Mem(tb.crd[level].ok_or_else(|| {
                    AsapError::binding(format!("level {level} has no crd buffer"))
                })?)
            }
            KernelArg::SparseVals => V::Mem(tb.vals),
            KernelArg::DenseInput { input } => V::Mem(dense_ids[input - 1]),
            KernelArg::Output => V::Mem(out_id),
            KernelArg::DimSize { index } => V::Index(dims[index]),
        });
    }
    Ok(BoundKernel {
        bufs,
        args,
        out_buf: out_id,
    })
}

/// Copy the output buffer of a finished run back into the dense output
/// tensor. Shared by every execution path (tree-walk and bytecode).
pub fn read_back(out: &mut DenseTensor, bound: &BoundKernel) -> Result<(), AsapError> {
    out.values = match &bound.bufs.get(bound.out_buf).data {
        asap_ir::BufferData::F64(v) => Values::F64(v.clone()),
        asap_ir::BufferData::I8(v) => Values::I8(v.clone()),
        other => {
            return Err(AsapError::binding(format!(
                "unexpected output buffer type {other:?}"
            )))
        }
    };
    Ok(())
}

/// Bind, interpret, and write the result back into `out`. Returns an error
/// on binding failures or interpreter faults.
pub fn run<M: MemoryModel + ?Sized>(
    kernel: &SparsifiedKernel,
    sparse: &SparseTensor,
    dense: &[&DenseTensor],
    out: &mut DenseTensor,
    model: &mut M,
) -> Result<(), AsapError> {
    let mut bound = bind(kernel, sparse, dense, out)?;
    interpret(&kernel.func, &bound.args, &mut bound.bufs, model)?;
    read_back(out, &bound)
}

/// Dense reference contraction: iterates the full iteration space using
/// dense renderings of every operand. Slow but obviously correct — the
/// oracle all sparsified kernels are checked against.
pub fn reference_contraction(
    spec: &KernelSpec,
    dims: &[usize],
    sparse_dense: &Values,
    sparse_dims: &[usize],
    dense: &[&DenseTensor],
    out: &mut DenseTensor,
) {
    assert_eq!(dims.len(), spec.num_indices);
    let total: usize = dims.iter().product();
    let flat = |map: &[usize], coords: &[usize], shapes: &[usize]| -> usize {
        let mut idx = 0;
        for (k, &m) in map.iter().enumerate() {
            idx = idx * shapes[k] + coords[m];
        }
        idx
    };
    let mut coords = vec![0usize; spec.num_indices];
    for lin in 0..total {
        let mut rest = lin;
        for i in (0..spec.num_indices).rev() {
            coords[i] = rest % dims[i];
            rest /= dims[i];
        }
        let sidx = flat(&spec.sparse_input().map, &coords, sparse_dims);
        match (sparse_dense, &mut out.values) {
            (Values::F64(sv), Values::F64(ov)) => {
                let mut prod = sv[sidx];
                for (dspec, d) in spec.dense_inputs().iter().zip(dense) {
                    prod *= d.as_f64()[flat(&dspec.map, &coords, &d.dims)];
                }
                ov[flat(&spec.output.map, &coords, &out.dims)] += prod;
            }
            (Values::I8(sv), Values::I8(ov)) => {
                let mut prod = sv[sidx];
                for (dspec, d) in spec.dense_inputs().iter().zip(dense) {
                    prod &= d.as_i8()[flat(&dspec.map, &coords, &d.dims)];
                }
                ov[flat(&spec.output.map, &coords, &out.dims)] |= prod;
            }
            _ => panic!("value kind mismatch in reference"),
        }
    }
}

/// Densify a sparse tensor into a row-major [`Values`] array for the
/// reference contraction.
pub fn densify(sparse: &SparseTensor) -> Values {
    let size: usize = sparse.dims().iter().product();
    match sparse.value_kind() {
        ValueKind::F64 => Values::F64(sparse.to_dense_f64()),
        ValueKind::I8 => {
            let mut out = vec![0i8; size];
            let asap_ir::BufferData::I8(vals) = sparse.values() else {
                unreachable!("value_kind() is I8")
            };
            sparse.for_each_entry(|c, vi| {
                let mut idx = 0;
                for (d, &cd) in c.iter().enumerate() {
                    idx = idx * sparse.dims()[d] + cd;
                }
                out[idx] |= vals[vi];
            });
            Values::I8(out)
        }
    }
}
