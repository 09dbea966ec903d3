//! Property-based tests of the storage layer, including 3-D CSF tensors:
//! invariants hold and densification round-trips for arbitrary inputs.
//!
//! Cases are drawn with a local fixed-seed SplitMix64 (the workspace
//! builds without network access, so there is no external
//! property-testing crate); every assertion message names the seed.

use asap_tensor::{CooTensor, Format, IndexWidth, LevelStorage, LevelType, SparseTensor, Values};

/// Minimal SplitMix64 — self-contained so this test has no dev-deps.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Random 3-D COO tensor: dims in 1..6 per mode, 0..30 entries with
/// duplicates, values in [-3, 3).
fn random_coo3(seed: u64) -> CooTensor {
    let mut rng = Rng(seed);
    let dims = vec![1 + rng.below(5), 1 + rng.below(5), 1 + rng.below(5)];
    let entries = rng.below(30);
    let mut coords = Vec::new();
    let mut vals = Vec::new();
    for _ in 0..entries {
        for &d in &dims {
            coords.push(rng.below(d));
        }
        vals.push(rng.f64() * 6.0 - 3.0);
    }
    CooTensor::new(dims, coords, Values::F64(vals))
}

fn dense3(t: &SparseTensor) -> Vec<f64> {
    t.to_dense_f64()
}

const CASES: u64 = 64;

#[test]
fn csf3_invariants_and_roundtrip() {
    for seed in 0..CASES {
        let coo = random_coo3(seed);
        let t = SparseTensor::from_coo(&coo, Format::csf(3));
        assert!(t.check_invariants().is_ok(), "seed {seed}");
        // Dense rendering equals accumulation over the raw entries.
        let mut want = vec![0.0; coo.dims.iter().product()];
        for e in 0..coo.nnz() {
            let c = coo.coord(e);
            let idx = (c[0] * coo.dims[1] + c[1]) * coo.dims[2] + c[2];
            if let Values::F64(v) = &coo.values {
                want[idx] += v[e];
            }
        }
        assert_eq!(dense3(&t), want, "seed {seed}");
    }
}

#[test]
fn mixed_level_3d_formats_agree() {
    for seed in 0..CASES {
        let coo = random_coo3(seed ^ 0x3d);
        // Dense-Compressed-Compressed (a "CSR-of-matrices") vs CSF vs
        // Dense-Dense-Compressed: all must densify identically.
        let dcc = Format::new(
            "DCC",
            vec![
                LevelType::Dense,
                LevelType::compressed(),
                LevelType::compressed(),
            ],
            vec![0, 1, 2],
        );
        let ddc = Format::new(
            "DDC",
            vec![LevelType::Dense, LevelType::Dense, LevelType::compressed()],
            vec![0, 1, 2],
        );
        let reference = dense3(&SparseTensor::from_coo(&coo, Format::csf(3)));
        for fmt in [dcc, ddc] {
            let t = SparseTensor::from_coo(&coo, fmt.clone());
            assert!(t.check_invariants().is_ok(), "seed {seed} {fmt}");
            assert_eq!(dense3(&t), reference, "seed {seed} {fmt}");
        }
    }
}

#[test]
fn node_counts_are_monotone_under_width_change() {
    for seed in 0..CASES {
        let coo = random_coo3(seed ^ 0x7700);
        let mut t = SparseTensor::from_coo(&coo, Format::csf(3));
        let counts: Vec<usize> = (0..3).map(|l| t.node_count(l)).collect();
        t.set_index_width(IndexWidth::U64);
        // Index width is a storage detail: structure unchanged.
        assert_eq!(
            counts,
            (0..3).map(|l| t.node_count(l)).collect::<Vec<_>>(),
            "seed {seed}"
        );
        assert_eq!(t.node_count(2), t.nnz(), "seed {seed}");
    }
}

#[test]
fn footprint_scales_with_width() {
    let mut checked = 0usize;
    for seed in 0..CASES {
        let coo = random_coo3(seed ^ 0xf007);
        if coo.nnz() == 0 {
            continue;
        }
        checked += 1;
        let mut t = SparseTensor::from_coo(&coo, Format::csf(3));
        t.set_index_width(IndexWidth::U32);
        let narrow = t.footprint_bytes();
        t.set_index_width(IndexWidth::U64);
        let wide = t.footprint_bytes();
        assert!(wide > narrow, "seed {seed}");
        // Values bytes are unchanged; only index buffers doubled.
        let val_bytes = t.nnz() * 8;
        assert_eq!(wide - val_bytes, 2 * (narrow - val_bytes), "seed {seed}");
    }
    assert!(checked > CASES as usize / 2, "generator mostly non-empty");
}

#[test]
fn permuted_2d_formats_transpose_consistently() {
    for seed in 0..CASES {
        let mut rng = Rng(seed ^ 0x2d2d);
        let entries = rng.below(20);
        let mut coords = Vec::new();
        let mut vals = Vec::new();
        for _ in 0..entries {
            coords.push(rng.below(5));
            coords.push(rng.below(7));
            vals.push(0.5 + rng.f64() * 1.5);
        }
        let coo = CooTensor::new(vec![5, 7], coords, Values::F64(vals));
        let csr = SparseTensor::from_coo(&coo, Format::csr());
        let csc = SparseTensor::from_coo(&coo, Format::csc());
        // Same dense content regardless of level permutation.
        assert_eq!(csr.to_dense_f64(), csc.to_dense_f64(), "seed {seed}");
        // CSC's inner segment lengths are column degrees.
        let col_deg_sum: usize = csc.inner_segment_lengths().iter().sum();
        assert_eq!(col_deg_sum, csc.nnz(), "seed {seed}");
    }
}

// ---- assembly against a map-based reference ---------------------------

use asap_tensor::ValueKind;
use std::collections::BTreeMap;

/// What `try_from_coo` must build, worked out the slow way: a `BTreeMap`
/// keyed by level-ordered coordinates sorts the entries and merges
/// duplicates in input order; a node of a level is a distinct
/// `(parent node, coordinate)` pair, numbered in that sorted order.
fn reference(coo: &CooTensor, fmt: &Format) -> (Vec<LevelStorage>, Values) {
    let rank = fmt.rank();
    let mut merged: BTreeMap<Vec<usize>, Vec<usize>> = BTreeMap::new();
    for e in 0..coo.nnz() {
        let key = (0..rank)
            .map(|l| coo.coord(e)[fmt.dim_of_level(l)])
            .collect();
        merged.entry(key).or_default().push(e);
    }
    let values = match &coo.values {
        Values::F64(v) => Values::F64(
            merged
                .values()
                .map(|es| es[1..].iter().fold(v[es[0]], |acc, &e| acc + v[e]))
                .collect(),
        ),
        Values::I8(v) => Values::I8(
            merged
                .values()
                .map(|es| es.iter().fold(0, |acc, &e| acc | v[e]))
                .collect(),
        ),
    };
    let keys: Vec<&Vec<usize>> = merged.keys().collect();
    let mut parent_of = vec![0usize; keys.len()];
    let mut parents = 1usize;
    let mut levels = Vec::new();
    for l in 0..rank {
        let dim = coo.dims[fmt.dim_of_level(l)];
        let (mut pos, mut crd) = (Vec::new(), Vec::new());
        match fmt.levels()[l] {
            LevelType::Dense => {
                for (e, key) in keys.iter().enumerate() {
                    parent_of[e] = parent_of[e] * dim + key[l];
                }
                parents *= dim;
            }
            LevelType::Compressed { unique, .. } => {
                let mut ids: BTreeMap<(usize, usize, usize), usize> = BTreeMap::new();
                pos = vec![0; parents + 1];
                for (e, key) in keys.iter().enumerate() {
                    // A non-unique level keeps one node per entry.
                    let node = (parent_of[e], key[l], if unique { 0 } else { e });
                    let next = ids.len();
                    let id = *ids.entry(node).or_insert_with(|| {
                        pos[parent_of[e] + 1] += 1;
                        crd.push(key[l]);
                        next
                    });
                    parent_of[e] = id;
                }
                for p in 0..parents {
                    pos[p + 1] += pos[p];
                }
                parents = crd.len();
            }
            LevelType::Singleton => {
                crd = vec![usize::MAX; parents];
                for (e, key) in keys.iter().enumerate() {
                    assert_eq!(crd[parent_of[e]], usize::MAX, "one entry per parent");
                    crd[parent_of[e]] = key[l];
                }
            }
        }
        levels.push(LevelStorage {
            pos: pos.into(),
            crd: crd.into(),
        });
    }
    (levels, values)
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Arrangement {
    Sorted,
    Shuffled,
    WithDuplicates,
    Empty,
}

/// Multiply some extents (at least the first) by 2^30 without moving any
/// entry: the dimensions become hyper-sparse, which takes the ordering
/// step off its counting passes — for one level, or for all.
fn stretch(rng: &mut Rng, coo: &mut CooTensor) {
    for d in 0..coo.dims.len() {
        if d == 0 || rng.below(2) == 0 {
            coo.dims[d] <<= 30;
        }
    }
}

/// A random tensor for `fmt` in the given arrangement. All-dense storage
/// holds one value per cell, so there every cell is present (and the
/// empty case has a zero extent).
fn arranged_coo(rng: &mut Rng, fmt: &Format, kind: ValueKind, how: Arrangement) -> CooTensor {
    let rank = fmt.rank();
    let dense = !fmt.is_sparse();
    let mut dims: Vec<usize> = (0..rank).map(|_| 1 + rng.below(6)).collect();
    if dense && how == Arrangement::Empty {
        dims[rng.below(rank)] = 0;
    }
    let cells: usize = dims.iter().product();
    let mut picked: Vec<usize> = (0..cells).filter(|_| dense || rng.below(3) == 0).collect();
    match how {
        Arrangement::Empty => picked.clear(),
        Arrangement::WithDuplicates => {
            for _ in 0..picked.len() {
                picked.push(picked[rng.below(picked.len())]);
            }
        }
        Arrangement::Sorted | Arrangement::Shuffled => {}
    }
    let mut entries: Vec<Vec<usize>> = picked
        .iter()
        .map(|&cell| {
            let mut rest = cell;
            let mut c = vec![0; rank];
            for d in (0..rank).rev() {
                c[d] = rest % dims[d];
                rest /= dims[d];
            }
            c
        })
        .collect();
    if how == Arrangement::Sorted {
        // In the *format's* level order, which is what the fast path sees.
        entries.sort_by_key(|c| {
            (0..rank)
                .map(|l| c[fmt.dim_of_level(l)])
                .collect::<Vec<_>>()
        });
    } else {
        for i in (1..entries.len()).rev() {
            entries.swap(i, rng.below(i + 1));
        }
    }
    let values = match kind {
        // Magnitudes far enough apart that a sum depends on its order.
        ValueKind::F64 => Values::F64(
            entries
                .iter()
                .map(|_| (rng.f64() - 0.5) * 10f64.powi(rng.below(18) as i32))
                .collect(),
        ),
        ValueKind::I8 => Values::I8(entries.iter().map(|_| rng.below(2) as i8).collect()),
    };
    CooTensor::new(dims, entries.concat(), values)
}

fn assert_matches_reference(coo: &CooTensor, fmt: &Format, what: &str) {
    let t = SparseTensor::from_coo(coo, fmt.clone());
    let (levels, values) = reference(coo, fmt);
    for (l, want) in levels.iter().enumerate() {
        assert_eq!(t.level(l), want, "{what}: level {l}");
    }
    // Bitwise: `-0.0 == 0.0` must not hide a reordered sum.
    match (t.values(), &values) {
        (asap_ir::BufferData::F64(got), Values::F64(want)) => assert_eq!(
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "{what}: values"
        ),
        (got, want) => assert_eq!(got, want, "{what}: values"),
    }
    let max_dim = coo.dims.iter().copied().max().unwrap_or(0);
    assert_eq!(
        t.index_width(),
        IndexWidth::choose(values.len(), max_dim),
        "{what}: index width"
    );
    t.check_invariants()
        .unwrap_or_else(|e| panic!("{what}: {e}"));
}

#[test]
fn assembly_matches_the_map_reference() {
    let formats = [
        Format::csr(),
        Format::csc(),
        Format::coo(),
        Format::dcsr(),
        Format::dcsc(),
        Format::csf(3),
        Format::all_dense(2),
    ];
    let arrangements = [
        Arrangement::Sorted,
        Arrangement::Shuffled,
        Arrangement::WithDuplicates,
        Arrangement::Empty,
    ];
    for seed in 0..CASES {
        let mut rng = Rng(seed ^ 0xa55e);
        for fmt in &formats {
            for kind in [ValueKind::F64, ValueKind::I8] {
                for how in arrangements {
                    let mut coo = arranged_coo(&mut rng, fmt, kind, how);
                    let what = format!("seed {seed} {fmt} {kind:?} {how:?}");
                    assert_matches_reference(&coo, fmt, &what);
                    // Dense levels cost their extent; the others must not.
                    if !fmt.levels().contains(&LevelType::Dense) {
                        stretch(&mut rng, &mut coo);
                        assert_matches_reference(&coo, fmt, &format!("{what} stretched"));
                    }
                }
            }
        }
    }
}

/// Entries that already are in level order skip the ordering step; the
/// result must be what any other arrangement of them builds.
#[test]
fn sorted_fast_path_equals_the_shuffled_build() {
    for seed in 0..CASES {
        let mut rng = Rng(seed ^ 0x50f7);
        for fmt in [Format::csr(), Format::dcsc(), Format::coo(), Format::csf(3)] {
            let sorted = arranged_coo(&mut rng, &fmt, ValueKind::F64, Arrangement::Sorted);
            let rank = fmt.rank();
            let mut at: Vec<usize> = (0..sorted.nnz()).collect();
            for i in (1..at.len()).rev() {
                at.swap(i, rng.below(i + 1));
            }
            let Values::F64(vals) = &sorted.values else {
                unreachable!()
            };
            let shuffled = CooTensor::new(
                sorted.dims.clone(),
                at.iter().flat_map(|&e| sorted.coord(e).to_vec()).collect(),
                Values::F64(at.iter().map(|&e| vals[e]).collect()),
            );
            let a = SparseTensor::from_coo(&sorted, fmt.clone());
            let b = SparseTensor::from_coo(&shuffled, fmt.clone());
            for l in 0..rank {
                assert_eq!(a.level(l), b.level(l), "seed {seed} {fmt} level {l}");
            }
            assert_eq!(a.values(), b.values(), "seed {seed} {fmt}");
            assert_eq!(a.index_width(), b.index_width(), "seed {seed} {fmt}");
        }
    }
}

/// Stability is the contract: duplicates accumulate in *input* order
/// whatever else surrounds them. `1e16 + -1e16 + 1.0` is `1.0` only in
/// that order (`1e16 + 1.0` rounds the `1.0` away).
#[test]
fn duplicates_accumulate_in_input_order() {
    let formats = [
        Format::csr(),
        Format::csc(),
        Format::coo(),
        Format::dcsr(),
        Format::dcsc(),
    ];
    for seed in 0..CASES {
        let mut rng = Rng(seed ^ 0x57ab);
        let (rows, cols) = (2 + rng.below(6), 2 + rng.below(6));
        let target = [rng.below(rows), rng.below(cols)];
        // The three duplicates, in this order, scattered among 0..20
        // other entries (none of which lands on the target cell).
        let others = rng.below(20);
        let mut slots: Vec<Option<f64>> = vec![None; others];
        for v in [1.0, -1e16, 1e16] {
            // Inserting back to front keeps 1e16, -1e16, 1.0 in order.
            let before = slots
                .iter()
                .position(|s| s.is_some())
                .unwrap_or(slots.len());
            slots.insert(rng.below(before + 1), Some(v));
        }
        let (mut coords, mut vals) = (Vec::new(), Vec::new());
        for slot in slots {
            match slot {
                Some(v) => {
                    coords.extend_from_slice(&target);
                    vals.push(v);
                }
                None => loop {
                    let c = [rng.below(rows), rng.below(cols)];
                    if c != target {
                        coords.extend_from_slice(&c);
                        vals.push(rng.f64());
                        break;
                    }
                },
            }
        }
        let coo = CooTensor::new(vec![rows, cols], coords, Values::F64(vals));
        let mut stretched = coo.clone();
        stretch(&mut rng, &mut stretched);
        for fmt in &formats {
            let mut builds = vec![SparseTensor::from_coo(&coo, fmt.clone())];
            if !fmt.levels().contains(&LevelType::Dense) {
                builds.push(SparseTensor::from_coo(&stretched, fmt.clone()));
            }
            for t in builds {
                let mut sum = None;
                t.for_each_entry(|c, vi| {
                    if c == target {
                        assert_eq!(sum, None, "seed {seed} {fmt}: target cell stored twice");
                        let asap_ir::BufferData::F64(v) = t.values() else {
                            unreachable!()
                        };
                        sum = Some(v[vi]);
                    }
                });
                assert_eq!(sum, Some(1.0), "seed {seed} {fmt} {:?}", t.dims());
            }
        }
    }
}

/// A hyper-sparse dimension costs nothing: ordering falls back to
/// comparisons and compressed levels grow with nnz, so a 2^40 extent and
/// three entries build instantly (an `O(dim)` array would be 8 TB).
#[test]
fn hypersparse_extent_needs_no_extent_sized_allocation() {
    let big = 1usize << 40;
    let coo = CooTensor::new(
        vec![big, big],
        vec![big - 1, 7, 5, big - 2, 5, 3],
        Values::F64(vec![1.0, 2.0, 3.0]),
    );
    let dcsr = SparseTensor::from_coo(&coo, Format::dcsr());
    dcsr.check_invariants().unwrap();
    assert_eq!(dcsr.level(0).pos, vec![0, 2]);
    assert_eq!(dcsr.level(0).crd, vec![5, big - 1]);
    assert_eq!(dcsr.level(1).pos, vec![0, 2, 3]);
    assert_eq!(dcsr.level(1).crd, vec![3, big - 2, 7]);
    assert_eq!(*dcsr.values(), Values::F64(vec![3.0, 2.0, 1.0]));
    assert_eq!(dcsr.index_width(), IndexWidth::U64);

    let coo_fmt = SparseTensor::from_coo(&coo, Format::coo());
    coo_fmt.check_invariants().unwrap();
    assert_eq!(coo_fmt.level(0).pos, vec![0, 3]);
    assert_eq!(coo_fmt.level(0).crd, vec![5, 5, big - 1]);
    assert_eq!(coo_fmt.level(1).crd, vec![3, big - 2, 7]);
}
