//! 2-D coordinate-form matrices: the universal interchange type of the
//! matrix collection (generators and MatrixMarket I/O both produce it).

/// A sparse matrix as (row, col, value) triplets. Duplicates allowed
//  (they are combined downstream when building a `SparseTensor`).
#[derive(Debug, Clone, PartialEq)]
pub struct Triplets {
    pub nrows: usize,
    pub ncols: usize,
    pub rows: Vec<usize>,
    pub cols: Vec<usize>,
    pub vals: Vec<f64>,
    /// Binary matrices (graph adjacency): stored with 1-byte values and
    /// boolean semiring arithmetic downstream (paper Section 4.2).
    pub binary: bool,
}

impl Triplets {
    pub fn new(nrows: usize, ncols: usize) -> Triplets {
        Triplets {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
            binary: false,
        }
    }

    pub fn push(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.nrows && c < self.ncols);
        self.rows.push(r);
        self.cols.push(c);
        self.vals.push(v);
    }

    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Convert to an f64 [`asap_tensor::CooTensor`].
    pub fn to_coo_f64(&self) -> asap_tensor::CooTensor {
        match self.try_to_coo_f64() {
            Ok(c) => c,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`to_coo_f64`](Triplets::to_coo_f64): reports
    /// out-of-range coordinates as a typed storage error instead of
    /// panicking (degenerate inputs from the fuzz harness reach this).
    pub fn try_to_coo_f64(&self) -> Result<asap_tensor::CooTensor, asap_ir::AsapError> {
        self.try_to_coo_with(asap_tensor::Values::F64(self.vals.clone()))
    }

    /// Convert to a boolean (i8) [`asap_tensor::CooTensor`]: any non-zero
    /// becomes 1.
    pub fn to_coo_i8(&self) -> asap_tensor::CooTensor {
        match self.try_to_coo_i8() {
            Ok(c) => c,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`to_coo_i8`](Triplets::to_coo_i8).
    pub fn try_to_coo_i8(&self) -> Result<asap_tensor::CooTensor, asap_ir::AsapError> {
        self.try_to_coo_with(asap_tensor::Values::I8(
            self.vals.iter().map(|&v| (v != 0.0) as i8).collect(),
        ))
    }

    /// The pass both value kinds share: interleave `rows`/`cols` into
    /// rank-2 coordinates, checking each against the shape on the way.
    fn try_to_coo_with(
        &self,
        values: asap_tensor::Values,
    ) -> Result<asap_tensor::CooTensor, asap_ir::AsapError> {
        let dims = vec![self.nrows, self.ncols];
        let mut coords = Vec::with_capacity(2 * self.nnz());
        let mut in_bounds = true;
        for (&r, &c) in self.rows.iter().zip(&self.cols) {
            in_bounds &= r < self.nrows && c < self.ncols;
            coords.extend_from_slice(&[r, c]);
        }
        if in_bounds && coords.len() == 2 * values.len() {
            return Ok(asap_tensor::CooTensor {
                dims,
                coords,
                values,
            });
        }
        // Invalid somewhere: `try_new` finds the entry and words the error.
        asap_tensor::CooTensor::try_new(dims, coords, values)
    }

    /// The natural COO form for this matrix's value kind.
    pub fn to_coo(&self) -> asap_tensor::CooTensor {
        if self.binary {
            self.to_coo_i8()
        } else {
            self.to_coo_f64()
        }
    }

    /// Fallible variant of [`to_coo`](Triplets::to_coo).
    pub fn try_to_coo(&self) -> Result<asap_tensor::CooTensor, asap_ir::AsapError> {
        if self.binary {
            self.try_to_coo_i8()
        } else {
            self.try_to_coo_f64()
        }
    }

    /// Dense SpMV reference (`y = A·x`), accumulating duplicates.
    pub fn dense_spmv(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols);
        let mut y = vec![0.0; self.nrows];
        for i in 0..self.nnz() {
            y[self.rows[i]] += self.vals[i] * x[self.cols[i]];
        }
        y
    }

    /// Approximate CSR memory footprint in bytes (32-bit indices, f64 or
    /// i8 values) — the paper's matrix-selection criterion.
    pub fn footprint_bytes(&self) -> usize {
        let val_bytes = if self.binary { 1 } else { 8 };
        (self.nrows + 1) * 4 + self.nnz() * (4 + val_bytes)
    }

    /// Per-row non-zero counts.
    pub fn row_degrees(&self) -> Vec<usize> {
        let mut d = vec![0usize; self.nrows];
        for &r in &self.rows {
            d[r] += 1;
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Triplets {
        let mut t = Triplets::new(2, 3);
        t.push(0, 0, 2.0);
        t.push(0, 2, 3.0);
        t.push(1, 1, 4.0);
        t
    }

    #[test]
    fn dense_spmv_reference() {
        let t = small();
        let y = t.dense_spmv(&[1.0, 10.0, 100.0]);
        assert_eq!(y, vec![302.0, 40.0]);
    }

    #[test]
    fn coo_roundtrip_f64() {
        let coo = small().to_coo_f64();
        assert_eq!(coo.nnz(), 3);
        assert_eq!(coo.dims, vec![2, 3]);
        assert_eq!(coo.coord(1), &[0, 2]);
    }

    #[test]
    fn binary_conversion_maps_nonzero_to_one() {
        let mut t = small();
        t.binary = true;
        let coo = t.to_coo();
        match coo.values {
            asap_tensor::Values::I8(v) => assert_eq!(v, vec![1, 1, 1]),
            _ => panic!("expected i8 values"),
        }
    }

    #[test]
    fn footprint_and_degrees() {
        let t = small();
        assert_eq!(t.row_degrees(), vec![2, 1]);
        assert_eq!(t.footprint_bytes(), 3 * 4 + 3 * 12);
    }
}
