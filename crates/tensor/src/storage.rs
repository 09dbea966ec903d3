//! Sparse tensor storage: construction of coordinate hierarchy trees and
//! their serialization into segmented `pos`/`crd`/`values` buffers (paper
//! Sections 2.2–2.3).
//!
//! Every array of a [`SparseTensor`] has one home: the assembly pass of
//! [`SparseTensor::try_from_coo`] builds it at the tensor's index width,
//! in the element type the engines read, and puts it behind an `Arc`.
//! [`SparseTensor::install`] shares those arrays with an arena — O(levels)
//! reference-count increments, no per-bind conversion or copy — and
//! [`SparseTensor::footprint_bytes`] is the bytes they hold.

use crate::format::Format;
use crate::level::LevelType;
use crate::values::{IndexArray, IndexElem, IndexWidth, ValueKind, Values};
use asap_ir::{AsapError, BufferData, Buffers};
use std::ops::Range;
use std::sync::Arc;

/// A tensor in coordinate form: the universal input representation.
#[derive(Debug, Clone, PartialEq)]
pub struct CooTensor {
    /// Shape, in tensor-dimension order.
    pub dims: Vec<usize>,
    /// Flattened coordinates: entry `i` occupies
    /// `coords[i*rank .. (i+1)*rank]`, one coordinate per tensor dimension.
    pub coords: Vec<usize>,
    pub values: Values,
}

impl CooTensor {
    /// As [`CooTensor::try_new`], panicking on invalid input. Use this when
    /// the entries come from trusted code (generators, conversions);
    /// untrusted or fuzzed input should go through `try_new`.
    pub fn new(dims: Vec<usize>, coords: Vec<usize>, values: Values) -> CooTensor {
        match CooTensor::try_new(dims, coords, values) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }

    /// Validating constructor: rejects coordinate/value length mismatches
    /// and out-of-range coordinates with a typed error instead of panicking.
    pub fn try_new(
        dims: Vec<usize>,
        coords: Vec<usize>,
        values: Values,
    ) -> Result<CooTensor, AsapError> {
        let rank = dims.len();
        if coords.len() != values.len() * rank {
            return Err(coords_values_mismatch(coords.len(), values.len(), rank));
        }
        let t = CooTensor {
            dims,
            coords,
            values,
        };
        for i in 0..t.nnz() {
            check_in_bounds(i, t.coord(i), &t.dims)?;
        }
        Ok(t)
    }

    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The coordinates of entry `i`.
    pub fn coord(&self, i: usize) -> &[usize] {
        let r = self.rank();
        &self.coords[i * r..(i + 1) * r]
    }
}

fn coords_values_mismatch(coords: usize, values: usize, rank: usize) -> AsapError {
    AsapError::storage(format!(
        "coords/values mismatch: {coords} coordinates for {values} values of rank {rank}"
    ))
}

fn check_in_bounds(i: usize, coord: &[usize], dims: &[usize]) -> Result<(), AsapError> {
    for (d, (&c, &size)) in coord.iter().zip(dims).enumerate() {
        if c >= size {
            return Err(AsapError::storage(format!(
                "entry {i}: coordinate {c} out of bounds in dim {d} (size {size})"
            )));
        }
    }
    Ok(())
}

/// Make room in a compressed level's `pos` for the boundaries of
/// `parents` segments — the one buffer that can scale with an extent
/// instead of with nnz, so a refused allocation is a typed error, not an
/// abort.
fn reserve_pos<T>(pos: &mut Vec<T>, parents: usize, l: usize) -> Result<(), AsapError> {
    let reserved = parents
        .checked_add(1)
        .is_some_and(|len| pos.try_reserve(len.saturating_sub(pos.len())).is_ok());
    if reserved {
        Ok(())
    } else {
        Err(AsapError::storage(format!(
            "level {l}: cannot allocate a pos buffer for {parents} parent nodes"
        )))
    }
}

/// Extend `pos` up to the start of segment `upto`; every segment this
/// skips is empty at `at`, the current end of the level's `crd`.
fn close_segments<T: IndexElem>(
    pos: &mut Vec<T>,
    upto: usize,
    at: usize,
    l: usize,
) -> Result<(), AsapError> {
    reserve_pos(pos, upto, l)?;
    pos.resize(upto + 1, T::from_usize(at));
    Ok(())
}

fn node_index_overflow(l: usize) -> AsapError {
    AsapError::storage(format!(
        "level {l}: dense level has more nodes than an index can address"
    ))
}

/// A level is ordered by a counting pass while its extent is at most this
/// many times the entry count, so the histogram never outweighs the
/// entries; past it (a hyper-sparse dimension) by comparison.
const COUNTING_EXTENT_PER_ENTRY: usize = 8;

/// Step 1 of [`SparseTensor::try_from_coo`]: the stable permutation that
/// visits `coo`'s entries in lexicographic order of their *level*
/// coordinates (`lvl_dim[l]` is the tensor dimension of level `l`), or
/// `None` when the entries already are in that order. Equal coordinates
/// keep their input order — the contract that makes duplicate
/// accumulation, and so every checksum downstream, independent of the
/// sorting method. Also checks every coordinate against `coo.dims`.
///
/// `O(rank · (nnz + extent))`: an LSD radix sort with one counting pass
/// per level, last level first. From the first level whose extent dwarfs
/// `nnz` down to the last, one in-place comparison sort stands in for the
/// counting passes (the entry index breaks ties, which is stability).
fn level_order(coo: &CooTensor, lvl_dim: &[usize]) -> Result<Option<Vec<usize>>, AsapError> {
    let (rank, nnz) = (coo.rank(), coo.nnz());
    let cmp_from = |first: usize, a: usize, b: usize| {
        let (a, b) = (coo.coord(a), coo.coord(b));
        lvl_dim[first..]
            .iter()
            .map(|&d| a[d].cmp(&b[d]))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    };
    let mut sorted = true;
    for i in 0..nnz {
        check_in_bounds(i, coo.coord(i), &coo.dims)?;
        sorted = sorted && (i == 0 || cmp_from(0, i - 1, i).is_le());
    }
    if sorted {
        return Ok(None);
    }

    let mut order: Vec<usize> = (0..nnz).collect();
    let counted = lvl_dim
        .iter()
        .position(|&d| coo.dims[d] / COUNTING_EXTENT_PER_ENTRY > nnz)
        .unwrap_or(rank);
    if counted < rank {
        order.sort_unstable_by(|&a, &b| cmp_from(counted, a, b).then(a.cmp(&b)));
    }
    let mut scratch = vec![0usize; if counted > 0 { nnz } else { 0 }];
    let mut starts: Vec<usize> = Vec::new();
    for &d in lvl_dim[..counted].iter().rev() {
        let key = |i: usize| coo.coords[i * rank + d];
        starts.clear();
        starts.resize(coo.dims[d] + 1, 0);
        for &i in &order {
            starts[key(i) + 1] += 1;
        }
        for c in 1..starts.len() {
            starts[c] += starts[c - 1];
        }
        for &i in &order {
            let slot = &mut starts[key(i)];
            scratch[*slot] = i;
            *slot += 1;
        }
        std::mem::swap(&mut order, &mut scratch);
    }
    Ok(Some(order))
}

/// Per-level serialized buffers, both at the tensor's index width.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelStorage {
    /// Position buffer (`pos`): segment boundaries, one segment per parent
    /// node; present iff the level type has one. Length = parents + 1.
    pub pos: IndexArray,
    /// Coordinate buffer (`crd`): one entry per node; present iff the
    /// level type has one.
    pub crd: IndexArray,
}

/// A level's buffers while assembly appends to them.
struct LevelVecs<T> {
    pos: Vec<T>,
    crd: Vec<T>,
}

/// A sparse tensor stored in a given [`Format`]. Cloning shares the
/// arrays.
#[derive(Debug, Clone)]
pub struct SparseTensor {
    format: Format,
    dims: Vec<usize>,
    levels: Vec<LevelStorage>,
    /// `BufferData::F64` or `BufferData::I8`.
    values: Arc<BufferData>,
    index_width: IndexWidth,
}

/// Buffer ids of a tensor installed into an interpreter [`Buffers`] arena.
#[derive(Debug, Clone)]
pub struct TensorBuffers {
    /// Per level: id of the `pos` buffer, if the level has one.
    pub pos: Vec<Option<u32>>,
    /// Per level: id of the `crd` buffer, if the level has one.
    pub crd: Vec<Option<u32>>,
    /// Id of the values buffer.
    pub vals: u32,
}

impl SparseTensor {
    /// As [`SparseTensor::try_from_coo`], panicking on a rank mismatch or a
    /// tensor that cannot be stored in `format` (e.g. a singleton level
    /// with more than one entry per parent).
    pub fn from_coo(coo: &CooTensor, format: Format) -> SparseTensor {
        match SparseTensor::try_from_coo(coo, format) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }

    /// Build from coordinate form. Entries may be unsorted and contain
    /// duplicates; duplicates are combined with the value kind's additive
    /// op (`+` / `|`) in input order, so an order-dependent f64 sum does
    /// not depend on how the other entries are arranged. Returns a typed
    /// error if the tensor's rank does not match the format, a coordinate
    /// is out of range, the entries violate a level type's requirements,
    /// or a `pos` buffer cannot be allocated.
    ///
    /// Two linear steps (DESIGN.md §3.6): [`level_order`] finds the stable
    /// level-lexicographic permutation, then `assemble` streams the
    /// entries in that order straight into each level's `pos`/`crd`, at
    /// the index width they are stored and bound at.
    pub fn try_from_coo(coo: &CooTensor, format: Format) -> Result<SparseTensor, AsapError> {
        if coo.rank() != format.rank() {
            return Err(AsapError::storage(format!(
                "rank mismatch: tensor has rank {}, format {format} has rank {}",
                coo.rank(),
                format.rank()
            )));
        }
        let rank = coo.rank();
        if rank == 0 {
            return Err(AsapError::storage("a rank-0 tensor has no storage levels"));
        }
        let nnz = coo.nnz();
        // `CooTensor`'s fields are public, so what `try_new` checked is
        // re-established here (and in `level_order`) before indexing.
        if coo.coords.len() != nnz * rank {
            return Err(coords_values_mismatch(coo.coords.len(), nnz, rank));
        }
        let lvl_dim: Vec<usize> = (0..rank).map(|l| format.dim_of_level(l)).collect();
        let order = level_order(coo, &lvl_dim)?;

        // Duplicates only lower the entry count, so a width that holds the
        // input's holds everything assembly stores.
        let max_dim = coo.dims.iter().copied().max().unwrap_or(0);
        let built_at = IndexWidth::choose(nnz, max_dim);
        let (levels, values) = match built_at {
            IndexWidth::U32 => Self::assemble::<i32>(coo, &format, &lvl_dim, order.as_deref())?,
            IndexWidth::U64 => Self::assemble::<usize>(coo, &format, &lvl_dim, order.as_deref())?,
        };
        let index_width = IndexWidth::choose(values.len(), max_dim);
        let mut t = SparseTensor {
            format,
            dims: coo.dims.clone(),
            levels,
            values: Arc::new(values.into_buffer_data()),
            index_width: built_at,
        };
        // More than 2^32 entries that merge into fewer: the one case where
        // the stored count picks a narrower width than the input's did.
        t.set_index_width(index_width);
        Ok(t)
    }

    /// Step 2 of [`SparseTensor::try_from_coo`]: stream `coo`'s entries in
    /// `order` (input order when `None`) into every level's `pos`/`crd`, as
    /// index elements of type `T`, and merge duplicates into the values.
    fn assemble<T: IndexElem>(
        coo: &CooTensor,
        format: &Format,
        lvl_dim: &[usize],
        order: Option<&[usize]>,
    ) -> Result<(Vec<LevelStorage>, Values), AsapError> {
        let (rank, nnz) = (coo.rank(), coo.nnz());
        let types = format.levels();
        let extent: Vec<usize> = lvl_dim.iter().map(|&d| coo.dims[d]).collect();
        let entry = |k: usize| order.map_or(k, |o| o[k]);

        // Below a non-unique or singleton level every entry has a parent
        // node of its own.
        let mut own_parent = vec![false; rank];
        let mut levels: Vec<LevelVecs<T>> = Vec::with_capacity(rank);
        // Node count of the level above, while every ancestor is dense.
        let mut dense_parents = Some(1usize);
        for l in 0..rank {
            own_parent[l] = l > 0
                && (own_parent[l - 1]
                    || matches!(
                        types[l - 1],
                        LevelType::Singleton | LevelType::Compressed { unique: false, .. }
                    ));
            let mut st = LevelVecs {
                pos: Vec::new(),
                crd: Vec::new(),
            };
            if types[l].has_crd() {
                // At most one node per entry; what duplicates and shared
                // prefixes leave over is never touched.
                st.crd.reserve_exact(nnz);
            }
            match types[l] {
                LevelType::Dense => {
                    dense_parents = dense_parents.and_then(|p| p.checked_mul(extent[l]));
                }
                LevelType::Compressed { .. } => {
                    // Under dense ancestors `pos` scales with their
                    // extents, not with nnz: size it now, fallibly.
                    if let Some(parents) = dense_parents.take() {
                        reserve_pos(&mut st.pos, parents, l)?;
                    }
                    st.pos.push(T::from_usize(0));
                }
                LevelType::Singleton => dense_parents = None,
            }
            levels.push(st);
        }

        // Stream the entries in level order, appending to every level.
        let mut values = Values::with_capacity(coo.values.kind(), nnz);
        // Singleton levels: entries under the current parent, the parent
        // due next, and the first violation (lowest level, then first
        // parent) as `(level, entries under that parent)`.
        let mut run = vec![1usize; rank];
        let mut next_parent = vec![0usize; rank];
        let mut overfull: Option<(usize, usize)> = None;
        let mut note = |l: usize, got: usize| {
            if overfull.is_none_or(|(seen, _)| l < seen) {
                overfull = Some((l, got));
            }
        };
        let mut prev: &[usize] = &[];
        for k in 0..nnz {
            let i = entry(k);
            let c = coo.coord(i);
            // First level at which this entry leaves its predecessor's
            // path: `rank` for a duplicate.
            let d = if k == 0 {
                0
            } else {
                lvl_dim
                    .iter()
                    .position(|&t| c[t] != prev[t])
                    .unwrap_or(rank)
            };
            if d == rank {
                values.accumulate_last(&coo.values, i);
                continue;
            }
            values.push_from(&coo.values, i);
            prev = c;
            let mut parent = 0usize;
            for l in 0..rank {
                let x = c[lvl_dim[l]];
                let st = &mut levels[l];
                parent = match types[l] {
                    LevelType::Dense => parent
                        .checked_mul(extent[l])
                        .and_then(|p| p.checked_add(x))
                        .ok_or_else(|| node_index_overflow(l))?,
                    LevelType::Compressed { unique, .. } => {
                        if !unique || own_parent[l] || d <= l {
                            if st.pos.len() <= parent {
                                close_segments(&mut st.pos, parent, st.crd.len(), l)?;
                            }
                            st.crd.push(T::from_usize(x));
                        }
                        st.crd.len() - 1
                    }
                    LevelType::Singleton => {
                        if own_parent[l] || d < l || k == 0 {
                            if run[l] != 1 {
                                note(l, run[l]);
                            }
                            if parent != next_parent[l] {
                                note(l, 0);
                            }
                            run[l] = 1;
                            next_parent[l] = parent + 1;
                            st.crd.push(T::from_usize(x));
                        } else {
                            run[l] += 1;
                        }
                        parent
                    }
                };
            }
        }

        // Close what is still open, now that every level's node count
        // (`parents`, for the level below it) is known.
        let mut parents = 1usize;
        for l in 0..rank {
            let st = &mut levels[l];
            match types[l] {
                LevelType::Dense => {
                    parents = parents
                        .checked_mul(extent[l])
                        .ok_or_else(|| node_index_overflow(l))?;
                }
                LevelType::Compressed { .. } => {
                    close_segments(&mut st.pos, parents, st.crd.len(), l)?;
                    parents = st.crd.len();
                }
                LevelType::Singleton => {
                    if run[l] != 1 {
                        note(l, run[l]);
                    }
                    if next_parent[l] != parents {
                        note(l, 0);
                    }
                }
            }
        }
        if let Some((l, got)) = overfull {
            return Err(AsapError::storage(format!(
                "level {l}: singleton level requires exactly one entry per parent, got {got}"
            )));
        }
        let levels = levels
            .into_iter()
            .map(|st| LevelStorage {
                pos: IndexArray::from_vec(st.pos),
                crd: IndexArray::from_vec(st.crd),
            })
            .collect();
        Ok((levels, values))
    }

    pub fn format(&self) -> &Format {
        &self.format
    }

    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Dimension size of the given *level*.
    pub fn level_dim(&self, l: usize) -> usize {
        self.dims[self.format.dim_of_level(l)]
    }

    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The stored values, as the engines read them: `BufferData::F64` or
    /// `BufferData::I8`.
    pub fn values(&self) -> &BufferData {
        &self.values
    }

    pub fn value_kind(&self) -> ValueKind {
        // invariant: assembly stores `Values`, which has these two kinds.
        match &*self.values {
            BufferData::I8(_) => ValueKind::I8,
            _ => ValueKind::F64,
        }
    }

    pub fn level(&self, l: usize) -> &LevelStorage {
        &self.levels[l]
    }

    /// Rewrite a level's raw buffers: `edit` gets `pos` and `crd` widened
    /// to `usize` lists and what it leaves is stored back at the tensor's
    /// index width. This exists for external deserializers and
    /// adversarial tests that need to build storages
    /// [`check_invariants`](SparseTensor::check_invariants) should
    /// *reject*; anything that mutates through it must re-validate before
    /// handing the tensor to the sparsifier.
    pub fn edit_level<R>(
        &mut self,
        l: usize,
        edit: impl FnOnce(&mut Vec<usize>, &mut Vec<usize>) -> R,
    ) -> R {
        let st = &mut self.levels[l];
        let (mut pos, mut crd) = (st.pos.to_vec(), st.crd.to_vec());
        let r = edit(&mut pos, &mut crd);
        st.pos = IndexArray::at_width(self.index_width, &pos);
        st.crd = IndexArray::at_width(self.index_width, &crd);
        r
    }

    pub fn index_width(&self) -> IndexWidth {
        self.index_width
    }

    /// Override the index width (tests and fuzzers exercise both): every
    /// `pos`/`crd` array is re-stored at `w`.
    pub fn set_index_width(&mut self, w: IndexWidth) {
        if w == self.index_width {
            return;
        }
        self.index_width = w;
        for l in 0..self.levels.len() {
            self.edit_level(l, |_, _| {});
        }
    }

    /// Number of nodes at level `l` (root = level "-1" has 1 node).
    ///
    /// This is the denominator of the paper's `crd_buf_sz` recursion: for a
    /// compressed level it equals `crd.len()`, i.e. the size of the
    /// coordinate buffer ASaP bounds its look-ahead load with.
    pub fn node_count(&self, l: usize) -> usize {
        let parent = if l == 0 { 1 } else { self.node_count(l - 1) };
        match self.format.levels()[l] {
            LevelType::Dense => parent * self.level_dim(l),
            LevelType::Compressed { .. } | LevelType::Singleton => self.levels[l].crd.len(),
        }
    }

    /// Total bytes of the serialized representation (pos + crd + values):
    /// the bytes the tensor's arrays hold, which are the bytes
    /// [`install`](SparseTensor::install) binds. The "memory footprint"
    /// used for benchmark matrix selection and by the serving store's
    /// byte ceiling.
    pub fn footprint_bytes(&self) -> usize {
        let values = self.values.len() * self.values.elem_bytes() as usize;
        let indices = self
            .levels
            .iter()
            .map(|st| st.pos.byte_len() + st.crd.byte_len());
        values + indices.sum::<usize>()
    }

    /// Check the structural invariants of the segmented storage that both
    /// sparsification and ASaP's bound computation rely on.
    pub fn check_invariants(&self) -> Result<(), AsapError> {
        match self.index_width {
            IndexWidth::U32 => self.check_invariants_at::<i32>(),
            IndexWidth::U64 => self.check_invariants_at::<usize>(),
        }
    }

    fn check_invariants_at<T: IndexElem>(&self) -> Result<(), AsapError> {
        let mut parent = 1usize;
        for (l, st) in self.levels.iter().enumerate() {
            let lt = self.format.levels()[l];
            let (pos, crd): (&[T], &[T]) = (st.pos.as_slice(), st.crd.as_slice());
            let in_range = |c: &T| c.to_usize() < self.level_dim(l);
            match lt {
                LevelType::Dense => {
                    if !st.pos.is_empty() || !st.crd.is_empty() {
                        return Err(AsapError::storage(format!(
                            "level {l}: dense level has buffers"
                        )));
                    }
                    parent *= self.level_dim(l);
                }
                LevelType::Compressed { unique, .. } => {
                    if st.pos.len() != parent + 1 {
                        return Err(AsapError::storage(format!(
                            "level {l}: pos len {} != parents+1 = {}",
                            st.pos.len(),
                            parent + 1
                        )));
                    }
                    let ends = pos.first().zip(pos.last());
                    if ends.is_none_or(|(a, z)| a.to_usize() != 0 || z.to_usize() != crd.len()) {
                        return Err(AsapError::storage(format!(
                            "level {l}: pos endpoints wrong"
                        )));
                    }
                    if pos.windows(2).any(|w| w[0].to_usize() > w[1].to_usize()) {
                        return Err(AsapError::storage(format!("level {l}: pos not monotone")));
                    }
                    for w in pos.windows(2) {
                        let seg = &crd[w[0].to_usize()..w[1].to_usize()];
                        let ok = if unique {
                            seg.windows(2).all(|s| s[0].to_usize() < s[1].to_usize())
                        } else {
                            seg.windows(2).all(|s| s[0].to_usize() <= s[1].to_usize())
                        };
                        if !ok {
                            return Err(AsapError::storage(format!(
                                "level {l}: segment not sorted/unique"
                            )));
                        }
                    }
                    if !crd.iter().all(in_range) {
                        return Err(AsapError::storage(format!(
                            "level {l}: coordinate out of range"
                        )));
                    }
                    parent = st.crd.len();
                }
                LevelType::Singleton => {
                    if !st.pos.is_empty() {
                        return Err(AsapError::storage(format!("level {l}: singleton has pos")));
                    }
                    if st.crd.len() != parent {
                        return Err(AsapError::storage(format!(
                            "level {l}: singleton crd len {} != parents {}",
                            st.crd.len(),
                            parent
                        )));
                    }
                    if !crd.iter().all(in_range) {
                        return Err(AsapError::storage(format!(
                            "level {l}: coordinate out of range"
                        )));
                    }
                }
            }
        }
        let leaves = self.node_count(self.format.rank() - 1);
        if leaves != self.values.len() {
            return Err(AsapError::storage(format!(
                "leaf count {leaves} != values {}",
                self.values.len()
            )));
        }
        Ok(())
    }

    /// Visit every stored entry in storage order as
    /// `(tensor-dim coordinates, value index)`.
    pub fn for_each_entry(&self, mut f: impl FnMut(&[usize], usize)) {
        let rank = self.format.rank();
        let mut coords = vec![0usize; rank];
        match self.index_width {
            IndexWidth::U32 => self.walk_level::<i32>(0, 0..1, &mut coords, &mut f),
            IndexWidth::U64 => self.walk_level::<usize>(0, 0..1, &mut coords, &mut f),
        }
    }

    fn walk_level<T: IndexElem>(
        &self,
        l: usize,
        nodes: Range<usize>,
        coords: &mut Vec<usize>,
        f: &mut impl FnMut(&[usize], usize),
    ) {
        let rank = self.format.rank();
        let dim_idx = self.format.dim_of_level(l);
        match self.format.levels()[l] {
            LevelType::Dense => {
                let d = self.level_dim(l);
                for node in nodes {
                    for c in 0..d {
                        coords[dim_idx] = c;
                        let child = node * d + c;
                        if l + 1 == rank {
                            f(coords, child);
                        } else {
                            self.walk_level::<T>(l + 1, child..child + 1, coords, f);
                        }
                    }
                }
            }
            LevelType::Compressed { .. } => {
                let st = &self.levels[l];
                let (pos, crd): (&[T], &[T]) = (st.pos.as_slice(), st.crd.as_slice());
                for node in nodes {
                    let (start, end) = (pos[node].to_usize(), pos[node + 1].to_usize());
                    for (child, c) in (start..end).zip(&crd[start..end]) {
                        coords[dim_idx] = c.to_usize();
                        if l + 1 == rank {
                            f(coords, child);
                        } else {
                            self.walk_level::<T>(l + 1, child..child + 1, coords, f);
                        }
                    }
                }
            }
            LevelType::Singleton => {
                let crd: &[T] = self.levels[l].crd.as_slice();
                for node in nodes {
                    coords[dim_idx] = crd[node].to_usize();
                    if l + 1 == rank {
                        f(coords, node);
                    } else {
                        self.walk_level::<T>(l + 1, node..node + 1, coords, f);
                    }
                }
            }
        }
    }

    /// Convert back to (sorted, deduplicated) coordinate form.
    pub fn to_coo(&self) -> CooTensor {
        let rank = self.format.rank();
        let mut coords = Vec::with_capacity(self.nnz() * rank);
        let mut picked = Vec::with_capacity(self.nnz());
        self.for_each_entry(|c, vi| {
            coords.extend_from_slice(c);
            picked.push(vi);
        });
        let values = match &*self.values {
            BufferData::I8(v) => Values::I8(picked.iter().map(|&vi| v[vi]).collect()),
            BufferData::F64(v) => Values::F64(picked.iter().map(|&vi| v[vi]).collect()),
            // invariant: assembly stores `Values`, which has these two kinds.
            _ => Values::F64(Vec::new()),
        };
        CooTensor::new(self.dims.clone(), coords, values)
    }

    /// Dense row-major rendering (f64 tensors only; for reference checks).
    pub fn to_dense_f64(&self) -> Vec<f64> {
        let size: usize = self.dims.iter().product();
        let mut out = vec![0.0; size];
        let vals = match &*self.values {
            BufferData::F64(v) => v,
            _ => panic!("to_dense_f64 on non-f64 tensor"),
        };
        self.for_each_entry(|c, vi| {
            let mut idx = 0;
            for (d, &cd) in c.iter().enumerate() {
                idx = idx * self.dims[d] + cd;
            }
            out[idx] += vals[vi];
        });
        out
    }

    /// Install the tensor's buffers into an interpreter arena: each array
    /// the format has is shared with the arena as it is stored — one
    /// reference-count increment per array, nothing converted or copied.
    pub fn install(&self, bufs: &mut Buffers) -> TensorBuffers {
        let mut pos = Vec::with_capacity(self.levels.len());
        let mut crd = Vec::with_capacity(self.levels.len());
        for (l, st) in self.levels.iter().enumerate() {
            let lt = self.format.levels()[l];
            pos.push(lt.has_pos().then(|| bufs.add_shared(st.pos.shared())));
            crd.push(lt.has_crd().then(|| bufs.add_shared(st.crd.shared())));
        }
        let vals = bufs.add_shared(Arc::clone(&self.values));
        TensorBuffers { pos, crd, vals }
    }

    /// Segment lengths at the innermost level (e.g. row lengths for CSR) —
    /// the distribution that determines whether a matrix falls into the
    /// short-inner-loop regime where ASaP beats loop-bound prefetching.
    pub fn inner_segment_lengths(&self) -> Vec<usize> {
        let pos = &self.levels[self.format.rank() - 1].pos;
        fn lengths<T: IndexElem>(pos: &[T]) -> Vec<usize> {
            pos.windows(2)
                .map(|w| w[1].to_usize() - w[0].to_usize())
                .collect()
        }
        match self.index_width {
            IndexWidth::U32 => lengths::<i32>(pos.as_slice()),
            IndexWidth::U64 => lengths::<usize>(pos.as_slice()),
        }
    }
}

/// Convenience: a dense tensor to be passed as a plain buffer operand.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseTensor {
    pub dims: Vec<usize>,
    pub values: Values,
}

impl DenseTensor {
    pub fn zeros(kind: ValueKind, dims: Vec<usize>) -> DenseTensor {
        let n = dims.iter().product();
        DenseTensor {
            dims,
            values: Values::zeros(kind, n),
        }
    }

    pub fn from_f64(dims: Vec<usize>, data: Vec<f64>) -> DenseTensor {
        assert_eq!(dims.iter().product::<usize>(), data.len());
        DenseTensor {
            dims,
            values: Values::F64(data),
        }
    }

    pub fn from_i8(dims: Vec<usize>, data: Vec<i8>) -> DenseTensor {
        assert_eq!(dims.iter().product::<usize>(), data.len());
        DenseTensor {
            dims,
            values: Values::I8(data),
        }
    }

    pub fn install(&self, bufs: &mut Buffers) -> u32 {
        bufs.add(self.values.to_buffer_data())
    }

    pub fn as_f64(&self) -> &[f64] {
        match &self.values {
            Values::F64(v) => v,
            _ => panic!("not an f64 tensor"),
        }
    }

    pub fn as_i8(&self) -> &[i8] {
        match &self.values {
            Values::I8(v) => v,
            _ => panic!("not an i8 tensor"),
        }
    }
}

/// Read back a buffer produced by [`DenseTensor::install`] after a run;
/// a buffer of another element type is a typed `binding` error.
pub fn read_f64(bufs: &Buffers, id: u32) -> Result<Vec<f64>, AsapError> {
    match bufs.get(id).data {
        BufferData::F64(v) => Ok(v.clone()),
        other => Err(not_a_buffer_of("f64", other)),
    }
}

/// As [`read_f64`] for i8 buffers.
pub fn read_i8(bufs: &Buffers, id: u32) -> Result<Vec<i8>, AsapError> {
    match bufs.get(id).data {
        BufferData::I8(v) => Ok(v.clone()),
        other => Err(not_a_buffer_of("i8", other)),
    }
}

fn not_a_buffer_of(want: &str, got: &BufferData) -> AsapError {
    AsapError::binding(format!(
        "buffer is not {want}: it holds {}",
        got.elem_type()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 3×3 matrix of the paper's Figure 2:
    /// row 0: cols 0,2; row 1: empty; row 2: col 2.
    fn paper_matrix() -> CooTensor {
        CooTensor::new(
            vec![3, 3],
            vec![0, 0, 0, 2, 2, 2],
            Values::F64(vec![1.0, 2.0, 3.0]),
        )
    }

    #[test]
    fn csr_matches_figure_2b() {
        let t = SparseTensor::from_coo(&paper_matrix(), Format::csr());
        t.check_invariants().unwrap();
        // Dense level 0: no buffers.
        assert!(t.level(0).pos.is_empty() && t.level(0).crd.is_empty());
        // Bj_pos = [0, 2, 2, 3]; Bj_crd = [0, 2, 2].
        assert_eq!(t.level(1).pos, vec![0, 2, 2, 3]);
        assert_eq!(t.level(1).crd, vec![0, 2, 2]);
        assert_eq!(t.node_count(1), 3);
    }

    #[test]
    fn coo_matches_figure_2a() {
        let t = SparseTensor::from_coo(&paper_matrix(), Format::coo());
        t.check_invariants().unwrap();
        // Bi_pos = [0, 3]; Bi_crd = [0, 0, 2] (row 0 repeated, row 1 absent).
        assert_eq!(t.level(0).pos, vec![0, 3]);
        assert_eq!(t.level(0).crd, vec![0, 0, 2]);
        // Singleton level: Bj_crd = [0, 2, 2].
        assert_eq!(t.level(1).crd, vec![0, 2, 2]);
        assert!(t.level(1).pos.is_empty());
    }

    #[test]
    fn dcsr_matches_figure_2c() {
        let t = SparseTensor::from_coo(&paper_matrix(), Format::dcsr());
        t.check_invariants().unwrap();
        // Bi_pos = [0, 2]; Bi_crd = [0, 2] (empty row 1 eliminated).
        assert_eq!(t.level(0).pos, vec![0, 2]);
        assert_eq!(t.level(0).crd, vec![0, 2]);
        // Bj_pos = [0, 2, 3]; Bj_crd = [0, 2, 2].
        assert_eq!(t.level(1).pos, vec![0, 2, 3]);
        assert_eq!(t.level(1).crd, vec![0, 2, 2]);
    }

    #[test]
    fn csc_stores_columns_first() {
        let t = SparseTensor::from_coo(&paper_matrix(), Format::csc());
        t.check_invariants().unwrap();
        // Columns: col 0 has row 0; col 1 empty; col 2 has rows 0,2.
        assert_eq!(t.level(1).pos, vec![0, 1, 1, 3]);
        assert_eq!(t.level(1).crd, vec![0, 0, 2]);
    }

    #[test]
    fn duplicates_are_accumulated() {
        let coo = CooTensor::new(
            vec![2, 2],
            vec![0, 1, 0, 1, 1, 0],
            Values::F64(vec![1.5, 2.5, 4.0]),
        );
        let t = SparseTensor::from_coo(&coo, Format::csr());
        assert_eq!(t.nnz(), 2);
        assert_eq!(*t.values(), Values::F64(vec![4.0, 4.0]));
    }

    #[test]
    fn boolean_duplicates_are_ored() {
        let coo = CooTensor::new(vec![2, 2], vec![0, 0, 0, 0], Values::I8(vec![1, 1]));
        let t = SparseTensor::from_coo(&coo, Format::csr());
        assert_eq!(*t.values(), Values::I8(vec![1]));
    }

    #[test]
    fn roundtrip_through_every_2d_format() {
        let coo = CooTensor::new(
            vec![4, 5],
            vec![0, 1, 0, 4, 1, 3, 3, 0, 3, 2],
            Values::F64(vec![1.0, 2.0, 3.0, 4.0, 5.0]),
        );
        for fmt in [
            Format::csr(),
            Format::csc(),
            Format::coo(),
            Format::dcsr(),
            Format::dcsc(),
            Format::csf(2),
        ] {
            let t = SparseTensor::from_coo(&coo, fmt.clone());
            t.check_invariants()
                .unwrap_or_else(|e| panic!("{fmt}: {e}"));
            let back = t.to_coo();
            // to_coo sorts by the format's level order; compare as dense.
            assert_eq!(
                t.to_dense_f64(),
                SparseTensor::from_coo(&back, Format::csr()).to_dense_f64(),
                "roundtrip mismatch for {fmt}"
            );
            assert_eq!(back.nnz(), 5, "{fmt}");
        }
    }

    #[test]
    fn empty_tensor_is_wellformed() {
        let coo = CooTensor::new(vec![3, 3], vec![], Values::F64(vec![]));
        for fmt in [Format::csr(), Format::coo(), Format::dcsr()] {
            let t = SparseTensor::from_coo(&coo, fmt);
            t.check_invariants().unwrap();
            assert_eq!(t.nnz(), 0);
        }
    }

    #[test]
    fn csf_3d_tensor() {
        // 2x2x2 tensor with entries (0,0,1), (0,1,0), (1,1,1).
        let coo = CooTensor::new(
            vec![2, 2, 2],
            vec![0, 0, 1, 0, 1, 0, 1, 1, 1],
            Values::F64(vec![1.0, 2.0, 3.0]),
        );
        let t = SparseTensor::from_coo(&coo, Format::csf(3));
        t.check_invariants().unwrap();
        assert_eq!(t.level(0).pos, vec![0, 2]);
        assert_eq!(t.level(0).crd, vec![0, 1]);
        assert_eq!(t.level(1).pos, vec![0, 2, 3]);
        assert_eq!(t.level(1).crd, vec![0, 1, 1]);
        assert_eq!(t.level(2).pos, vec![0, 1, 2, 3]);
        assert_eq!(t.level(2).crd, vec![1, 0, 1]);
        // crd_buf_sz recursion: l0 -> pos[1]=2, l1 -> pos[2]=3, l2 -> pos[3]=3.
        assert_eq!(t.node_count(0), 2);
        assert_eq!(t.node_count(1), 3);
        assert_eq!(t.node_count(2), 3);
    }

    #[test]
    fn footprint_counts_pos_crd_vals() {
        let t = SparseTensor::from_coo(&paper_matrix(), Format::csr());
        // u32 indices: pos 4*4 + crd 3*4 = 28; values 3*8 = 24.
        assert_eq!(t.index_width(), IndexWidth::U32);
        assert_eq!(t.footprint_bytes(), 28 + 24);
    }

    /// The footprint is physical: what `footprint_bytes` reports is what
    /// the tensor's arrays hold and what `install` binds, at either width.
    #[test]
    fn footprint_is_the_bytes_held_and_the_bytes_installed() {
        let coords2 = vec![0, 1, 0, 4, 1, 3, 3, 0, 3, 2];
        let coords3 = vec![0, 0, 1, 0, 1, 0, 1, 1, 1, 1, 1, 0, 0, 0, 1];
        for kind in [ValueKind::F64, ValueKind::I8] {
            let values = |n| match kind {
                ValueKind::F64 => Values::F64((0..n).map(|i| 1.0 + i as f64).collect()),
                ValueKind::I8 => Values::I8(vec![1; n]),
            };
            let m = CooTensor::new(vec![4, 5], coords2.clone(), values(5));
            let t3 = CooTensor::new(vec![2, 2, 2], coords3.clone(), values(5));
            let cases = [
                (&m, Format::csr()),
                (&m, Format::csc()),
                (&m, Format::coo()),
                (&m, Format::dcsr()),
                (&t3, Format::csf(3)),
            ];
            for (coo, fmt) in cases {
                for width in [IndexWidth::U32, IndexWidth::U64] {
                    let mut t = SparseTensor::from_coo(coo, fmt.clone());
                    t.set_index_width(width);
                    t.check_invariants().unwrap();
                    let levels = || (0..fmt.rank()).map(|l| t.level(l));
                    // What the arrays occupy, and what they would at `width`.
                    let held = levels()
                        .map(|st| st.pos.byte_len() + st.crd.byte_len())
                        .sum::<usize>()
                        + t.values().len() * t.values().elem_bytes() as usize;
                    let at_width = levels()
                        .map(|st| (st.pos.len() + st.crd.len()) * width.byte_width())
                        .sum::<usize>()
                        + t.nnz() * kind.byte_width();
                    assert_eq!(held, at_width, "{fmt} {width:?} {kind:?}: stored at width");
                    let mut bufs = Buffers::new();
                    t.install(&mut bufs);
                    let what = format!("{fmt} {width:?} {kind:?}");
                    assert_eq!(t.footprint_bytes(), held, "{what}: held");
                    assert_eq!(bufs.bytes_allocated(), held as u64, "{what}: installed");
                }
            }
        }
    }

    #[test]
    fn inner_segment_lengths_csr() {
        let t = SparseTensor::from_coo(&paper_matrix(), Format::csr());
        assert_eq!(t.inner_segment_lengths(), vec![2, 0, 1]);
    }

    #[test]
    fn install_and_read_back() {
        let t = SparseTensor::from_coo(&paper_matrix(), Format::csr());
        let mut bufs = Buffers::new();
        let tb = t.install(&mut bufs);
        assert!(tb.pos[0].is_none());
        let pos_id = tb.pos[1].expect("csr level 1 has pos");
        match &bufs.get(pos_id).data {
            BufferData::I32(v) => assert_eq!(v, &vec![0, 2, 2, 3]),
            other => panic!("expected i32 pos buffer, got {other:?}"),
        }
        match &bufs.get(tb.vals).data {
            BufferData::F64(v) => assert_eq!(v, &vec![1.0, 2.0, 3.0]),
            other => panic!("expected f64 vals, got {other:?}"),
        }
    }

    #[test]
    fn wide_index_install() {
        let mut t = SparseTensor::from_coo(&paper_matrix(), Format::csr());
        t.set_index_width(IndexWidth::U64);
        let mut bufs = Buffers::new();
        let tb = t.install(&mut bufs);
        let crd_id = tb.crd[1].expect("csr has crd");
        assert_eq!(bufs.get(crd_id).data.elem_bytes(), 8);
    }

    #[test]
    fn dense_tensor_roundtrip() {
        let d = DenseTensor::from_f64(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let mut bufs = Buffers::new();
        let id = d.install(&mut bufs);
        assert_eq!(read_f64(&bufs, id).unwrap(), vec![1.0, 2.0, 3.0, 4.0]);
        let e = read_i8(&bufs, id).unwrap_err();
        assert_eq!(e.kind(), "binding");
        assert!(e.to_string().contains("buffer is not i8"), "{e}");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rejects_out_of_range_coordinates() {
        CooTensor::new(vec![2, 2], vec![0, 5], Values::F64(vec![1.0]));
    }

    #[test]
    fn try_new_reports_typed_storage_errors() {
        let e = CooTensor::try_new(vec![2, 2], vec![0, 5], Values::F64(vec![1.0])).unwrap_err();
        assert_eq!(e.kind(), "storage");
        assert!(e.to_string().contains("out of bounds"), "{e}");

        let e = CooTensor::try_new(vec![2, 2], vec![0], Values::F64(vec![1.0])).unwrap_err();
        assert_eq!(e.kind(), "storage");
        assert!(e.to_string().contains("mismatch"), "{e}");
    }

    #[test]
    fn try_from_coo_rejects_rank_mismatch() {
        let coo = CooTensor::new(vec![4], vec![1], Values::F64(vec![1.0]));
        let e = SparseTensor::try_from_coo(&coo, Format::csr()).unwrap_err();
        assert_eq!(e.kind(), "storage");
        assert!(e.to_string().contains("rank mismatch"), "{e}");
    }

    #[test]
    fn try_from_coo_rejects_overfull_singleton_level() {
        // Dense-then-singleton can hold at most one entry per row; give
        // it a row with two.
        let fmt = crate::format::Format::new(
            "DS",
            vec![LevelType::Dense, LevelType::Singleton],
            vec![0, 1],
        );
        let coo = CooTensor::new(vec![2, 2], vec![0, 0, 0, 1], Values::F64(vec![1.0, 2.0]));
        let e = SparseTensor::try_from_coo(&coo, fmt).unwrap_err();
        assert_eq!(e.kind(), "storage");
        assert!(e.to_string().contains("singleton"), "{e}");
    }
}
