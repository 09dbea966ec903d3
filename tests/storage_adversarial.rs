//! Adversarial inputs for [`SparseTensor::check_invariants`]: hand-built
//! storages violating each structural invariant, plus every output of the
//! fuzz crate's MatrixMarket byte-corruptors that still parses. The
//! contract under attack: validation returns a typed `storage` error —
//! never a panic, never an out-of-bounds read.

use asap::tensor::{CooTensor, Format, SparseTensor, Values};
use asap_fuzz::{corruptions, random_triplets, to_mtx_bytes, Rng64};
use asap_matrices::{read_matrix_market, Triplets};

/// A small valid CSR tensor (dense rows level + compressed cols level).
fn csr_fixture() -> SparseTensor {
    let mut tri = Triplets::new(6, 6);
    for r in 0..6 {
        tri.push(r, r, 1.0 + r as f64);
        tri.push(r, (r + 2) % 6, 0.5);
    }
    let coo = tri.try_to_coo_f64().unwrap();
    let t = SparseTensor::try_from_coo(&coo, Format::csr()).unwrap();
    t.check_invariants().expect("fixture starts valid");
    t
}

/// A small valid COO tensor (compressed non-unique + singleton levels).
fn coo_fixture() -> SparseTensor {
    let mut tri = Triplets::new(5, 5);
    for r in 0..5 {
        tri.push(r, 4 - r, 2.0);
    }
    let coo = tri.try_to_coo_f64().unwrap();
    let t = SparseTensor::try_from_coo(&coo, Format::coo()).unwrap();
    t.check_invariants().expect("fixture starts valid");
    t
}

fn expect_storage_error(t: &SparseTensor, needle: &str) {
    let err = t
        .check_invariants()
        .expect_err("corrupted storage must be rejected");
    assert_eq!(err.kind(), "storage", "{err}");
    assert!(err.to_string().contains(needle), "want {needle:?} in {err}");
}

#[test]
fn out_of_range_coordinate_is_rejected() {
    let mut t = csr_fixture();
    // Row 0 stores columns [0, 2]; raising the larger one keeps the
    // segment sorted so the *range* check is what fires.
    t.edit_level(1, |_, crd| crd[1] = 999); // column 999 in a 6-wide matrix
    expect_storage_error(&t, "out of range");
}

#[test]
fn unsorted_segment_is_rejected() {
    let mut t = csr_fixture();
    // Each row has two columns; reverse the first row's pair.
    t.edit_level(1, |_, crd| {
        crd.swap(0, 1);
    });
    expect_storage_error(&t, "not sorted");
}

#[test]
fn duplicate_coordinate_in_unique_level_is_rejected() {
    let mut t = csr_fixture();
    t.edit_level(1, |_, crd| {
        crd[1] = crd[0]; // CSR columns are a unique level: strict order required
    });
    expect_storage_error(&t, "not sorted");
}

#[test]
fn non_monotone_pos_is_rejected() {
    let mut t = csr_fixture();
    // Valid endpoints (first 0, last crd.len()) but a backwards interior
    // step. The checker must reject it *before* slicing segments — this
    // is the shape that would otherwise read out of bounds.
    t.edit_level(1, |pos, _| {
        let last = *pos.last().unwrap();
        pos[1] = last + 5;
    });
    expect_storage_error(&t, "not monotone");
}

#[test]
fn wrong_pos_endpoints_are_rejected() {
    let mut t = csr_fixture();
    t.edit_level(1, |pos, _| *pos.last_mut().unwrap() += 1);
    expect_storage_error(&t, "endpoints");
}

#[test]
fn wrong_pos_length_is_rejected() {
    let mut t = csr_fixture();
    t.edit_level(1, |pos, _| pos.push(12)); // one boundary too many
    expect_storage_error(&t, "pos len");
}

#[test]
fn dense_level_with_buffers_is_rejected() {
    let mut t = csr_fixture();
    t.edit_level(0, |_, crd| crd.push(0)); // CSR's row level is dense: no buffers
    expect_storage_error(&t, "dense level has buffers");
}

#[test]
fn singleton_level_corruptions_are_rejected() {
    let mut t = coo_fixture();
    t.edit_level(1, |pos, _| pos.push(0));
    expect_storage_error(&t, "singleton has pos");

    let mut t = coo_fixture();
    t.edit_level(1, |_, crd| crd.pop());
    expect_storage_error(&t, "singleton crd len");

    let mut t = coo_fixture();
    t.edit_level(1, |_, crd| crd[0] = 77);
    expect_storage_error(&t, "out of range");
}

#[test]
fn truncated_crd_is_rejected_not_read_out_of_bounds() {
    let mut t = csr_fixture();
    // Shrink crd without fixing pos: every pos segment now points past
    // the end of the buffer.
    t.edit_level(1, |_, crd| crd.truncate(3));
    let err = t.check_invariants().expect_err("truncated crd");
    assert_eq!(err.kind(), "storage");
}

/// A dense level costs its extent whatever nnz is: the `pos` below it
/// has one boundary per row. When that buffer cannot be had — here its
/// byte size does not even fit an allocation request — the build is a
/// typed error, not an abort; likewise a node index past `usize`.
#[test]
fn extent_sized_buffers_that_cannot_exist_are_typed_errors() {
    let one = |dims: Vec<usize>| {
        let coords = vec![3; dims.len()];
        CooTensor::try_new(dims, coords, Values::F64(vec![1.0])).unwrap()
    };
    let err = SparseTensor::try_from_coo(&one(vec![1 << 61, 8]), Format::csr())
        .expect_err("a 2^61-row CSR has no pos buffer");
    assert_eq!(err.kind(), "storage", "{err}");
    assert!(err.to_string().contains("pos"), "{err}");

    let err = SparseTensor::try_from_coo(&one(vec![1 << 40, 1 << 40]), Format::all_dense(2))
        .expect_err("2^80 dense nodes");
    assert_eq!(err.kind(), "storage", "{err}");
}

/// Every byte-corrupted MatrixMarket stream that *still parses* must
/// build storages satisfying the invariants — the corruption either dies
/// in the parser with a typed error or survives as a well-formed (if
/// meaningless) matrix. Nothing panics, nothing reads out of bounds.
#[test]
fn fuzz_corruptor_outputs_never_break_storage_validation() {
    let mut rng = Rng64::seed_from_u64(0x57a6e);
    let mut parsed = 0usize;
    let mut rejected = 0usize;
    for _ in 0..8 {
        let tri = random_triplets(&mut rng, 24, 120);
        let bytes = to_mtx_bytes(&tri);
        for (label, corrupt) in corruptions(&bytes, &mut rng) {
            match read_matrix_market(std::io::Cursor::new(&corrupt[..])) {
                Err(_) => rejected += 1, // typed parse rejection: the common case
                Ok(t) => {
                    let Ok(coo) = t.try_to_coo_f64() else {
                        rejected += 1;
                        continue;
                    };
                    for fmt in [Format::csr(), Format::coo(), Format::dcsr()] {
                        match SparseTensor::try_from_coo(&coo, fmt) {
                            Ok(s) => {
                                s.check_invariants()
                                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                                parsed += 1;
                            }
                            Err(_) => rejected += 1,
                        }
                    }
                }
            }
        }
    }
    assert!(rejected > 0, "the corruption battery must bite");
    // `parsed` may be zero on some seeds; the point is nothing panicked.
    let _ = parsed;
}
