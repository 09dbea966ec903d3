//! Resolving a request's matrix reference to a [`SparseTensor`].
//!
//! Three source forms, mirroring `asap_cli`:
//!
//! - a collection name (`"GAP/kron19"`) from the synthetic collection at
//!   the server's configured [`SizeClass`];
//! - a generator spec (`"gen:er:4096:8"` — same grammar as the CLI's
//!   `--gen`, with size caps so a request cannot allocate unboundedly);
//! - inline MatrixMarket text in the request body (`"mtx"` field).
//!
//! The catalog only *builds*: residency policy lives one layer up, in
//! [`crate::store`], which decides what stays hot under byte ceilings
//! and tenant quotas — including inline payloads, which are keyed by
//! content digest so a client cannot pin unbounded server memory.
//! Binary (pattern) matrices get the CLI's deterministic devaluation so
//! a served result is comparable to `asap_cli --gen` on the same spec.

use crate::request::RunReject;
use asap_ir::AsapError;
use asap_matrices::{gen, read_matrix_market, synthetic_collection, SizeClass, Triplets};
use asap_tensor::{Format, SparseTensor};
use std::sync::Arc;

/// Generator size caps: a request may make the server *work*, not make
/// it allocate without bound.
const MAX_GEN_N: usize = 1 << 21;
const MAX_GEN_SCALE: u32 = 20;
const MAX_GEN_DEG: usize = 64;
const MAX_GEN_BAND: usize = 4096;

pub struct MatrixCatalog {
    size: SizeClass,
}

impl MatrixCatalog {
    pub fn new(size: SizeClass) -> MatrixCatalog {
        MatrixCatalog { size }
    }

    /// Build a `matrix` reference (collection name or `gen:` spec) as a
    /// CSR tensor.
    pub fn build(&self, reference: &str) -> Result<Arc<SparseTensor>, AsapError> {
        let tri = if let Some(spec) = reference.strip_prefix("gen:") {
            parse_gen(spec)?
        } else {
            let spec = synthetic_collection(self.size)
                .into_iter()
                .find(|s| s.name == reference)
                .ok_or_else(|| {
                    AsapError::binding(format!(
                        "unknown matrix {reference:?}: expected a collection name or gen:KIND:ARGS"
                    ))
                })?;
            spec.materialize()
        };
        Ok(Arc::new(to_csr(tri)?))
    }

    /// Build a tensor from inline MatrixMarket text.
    ///
    /// The size line is the client's word: a one-entry body may declare
    /// 2^40 rows, and a CSR dense level costs `O(rows)`. So the parsed
    /// triplets' CSR footprint is held against `max_bytes` — what the
    /// store would admit and the execution budget would bind — *before*
    /// any storage is built, and over it the answer is the same typed
    /// 413 as a refused admission.
    pub fn resolve_inline(
        &self,
        mtx: &str,
        max_bytes: u64,
    ) -> Result<Arc<SparseTensor>, RunReject> {
        let mut tri = read_matrix_market(std::io::Cursor::new(mtx.as_bytes()))
            .map_err(|e| AsapError::binding(format!("inline matrix: {e}")))?;
        // Weighed as it will be stored: pattern entries get f64 values.
        devalue_binary(&mut tri);
        let bytes = tri.footprint_bytes() as u64;
        if bytes > max_bytes {
            asap_obs::counter_inc("serve.store.rejected_oversized");
            return Err(RunReject::Oversized(format!(
                "inline matrix needs {bytes} bytes as CSR, over the {max_bytes}-byte limit \
                 for one matrix"
            )));
        }
        Ok(Arc::new(to_csr(tri)?))
    }
}

fn to_csr(mut tri: Triplets) -> Result<SparseTensor, AsapError> {
    devalue_binary(&mut tri);
    let coo = tri.try_to_coo_f64()?;
    SparseTensor::try_from_coo(&coo, Format::csr())
}

/// Deterministic non-trivial values for pattern matrices — the same
/// scheme as `asap_cli`, so checksums line up across entry points.
fn devalue_binary(tri: &mut Triplets) {
    if tri.binary {
        for (i, v) in tri.vals.iter_mut().enumerate() {
            *v = 0.25 + (i % 7) as f64 * 0.1;
        }
        tri.binary = false;
    }
}

/// Parse `KIND:ARGS` (the part after `gen:`): `rmat:SCALE:DEG`,
/// `er:N:DEG`, `road:N`, `banded:N:BAND`, `powerlaw:N:DEG`. Typed
/// errors instead of the CLI's usage-and-exit.
fn parse_gen(spec: &str) -> Result<Triplets, AsapError> {
    let parts: Vec<&str> = spec.split(':').collect();
    let field = |i: usize| -> Result<usize, AsapError> {
        parts.get(i).and_then(|s| s.parse().ok()).ok_or_else(|| {
            AsapError::binding(format!(
                "generator spec {spec:?}: field {i} missing or not a number"
            ))
        })
    };
    let capped = |i: usize, cap: usize, what: &str| -> Result<usize, AsapError> {
        let v = field(i)?;
        if v == 0 || v > cap {
            return Err(AsapError::binding(format!(
                "generator spec {spec:?}: {what} {v} outside 1..={cap}"
            )));
        }
        Ok(v)
    };
    let tri = match parts.first().copied() {
        Some("rmat") => {
            let scale = capped(1, MAX_GEN_SCALE as usize, "scale")? as u32;
            gen::rmat(scale, capped(2, MAX_GEN_DEG, "degree")?, 1)
        }
        Some("er") => gen::erdos_renyi(
            capped(1, MAX_GEN_N, "size")?,
            capped(2, MAX_GEN_DEG, "degree")?,
            1,
        ),
        Some("road") => gen::road_network(capped(1, MAX_GEN_N, "size")?, 1),
        Some("banded") => gen::banded(
            capped(1, MAX_GEN_N, "size")?,
            capped(2, MAX_GEN_BAND, "bandwidth")?,
            1,
        ),
        Some("powerlaw") => gen::power_law(
            capped(1, MAX_GEN_N, "size")?,
            capped(2, MAX_GEN_DEG, "degree")?,
            1.0,
            1,
        ),
        other => {
            return Err(AsapError::binding(format!(
                "unknown generator {other:?}: expected rmat|er|road|banded|powerlaw"
            )))
        }
    };
    Ok(tri)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collection_names_resolve() {
        let cat = MatrixCatalog::new(SizeClass::Tiny);
        let name = synthetic_collection(SizeClass::Tiny)[0].name.clone();
        let t = cat.build(&name).unwrap();
        assert!(t.nnz() > 0);
    }

    #[test]
    fn bad_references_are_typed_errors() {
        let cat = MatrixCatalog::new(SizeClass::Tiny);
        for bad in [
            "no/such-matrix",
            "gen:er",
            "gen:er:0:4",
            "gen:er:abc:4",
            "gen:warp:9",
            "gen:rmat:63:4",
            &format!("gen:er:{}:4", MAX_GEN_N + 1),
        ] {
            let e = cat.build(bad).unwrap_err();
            assert_eq!(e.kind(), "binding", "{bad} -> {e}");
        }
    }

    #[test]
    fn inline_mtx_resolves() {
        let cat = MatrixCatalog::new(SizeClass::Tiny);
        let mtx = "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 2.0\n3 2 -1.5\n";
        let t = cat.resolve_inline(mtx, u64::MAX).unwrap();
        assert_eq!(t.dims(), &[3, 3]);
        assert_eq!(t.nnz(), 2);
        assert_eq!(
            cat.resolve_inline("not a matrix", u64::MAX)
                .unwrap_err()
                .kind(),
            "binding"
        );
        // A size line the footprint gate refuses: nothing is built.
        let huge = "%%MatrixMarket matrix coordinate real general\n1099511627776 1 1\n1 1 1.0\n";
        let e = cat.resolve_inline(huge, 1 << 20).unwrap_err();
        assert_eq!((e.status(), e.kind()), (413, "store"), "{}", e.message());
    }
}
