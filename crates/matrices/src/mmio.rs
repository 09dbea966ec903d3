//! MatrixMarket coordinate-format I/O, so real SuiteSparse matrices can
//! be dropped into any experiment in place of the synthetic families.
//!
//! Supports `matrix coordinate {real,integer,pattern} {general,symmetric}`.
//!
//! The reader is hardened against untrusted input: every rejection is a
//! typed [`MmioError`] carrying the offending (1-based) line number, and
//! the entry section is checked for out-of-range coordinates,
//! truncation, and trailing surplus entries. A corrupt file can never
//! panic the pipeline — it surfaces as `Err` at the parse stage.

use crate::triplets::Triplets;
use asap_ir::AsapError;
use std::io::{BufRead, Write};

/// A typed MatrixMarket parse failure. `line` fields are 1-based line
/// numbers in the input stream (counting comments and blank lines).
#[derive(Debug, Clone, PartialEq)]
pub enum MmioError {
    /// The underlying reader failed.
    Io { line: usize, message: String },
    /// First line is not a `%%MatrixMarket matrix ...` banner.
    BadHeader { header: String },
    /// Header is well-formed but requests an unsupported variant.
    Unsupported { what: &'static str, token: String },
    /// Stream ended before the `rows cols nnz` size line.
    MissingSizeLine,
    /// The size line is malformed.
    BadSizeLine { line: usize, message: String },
    /// An entry line is malformed (missing or non-numeric fields).
    BadEntry { line: usize, message: String },
    /// An entry's 1-based coordinates fall outside the declared shape
    /// (this includes 0-based coordinates, which MatrixMarket forbids).
    OutOfRange {
        line: usize,
        row: usize,
        col: usize,
        nrows: usize,
        ncols: usize,
    },
    /// Entry count does not match the size line (truncated stream or
    /// surplus entries). For surplus entries `line` points at the first
    /// entry past the declared count; for truncation it is the last line.
    WrongEntryCount {
        line: usize,
        expected: usize,
        read: usize,
    },
}

impl MmioError {
    /// The offending 1-based line number (0 when the stream ended before
    /// any line could be blamed).
    pub fn line(&self) -> usize {
        match self {
            MmioError::Io { line, .. }
            | MmioError::BadSizeLine { line, .. }
            | MmioError::BadEntry { line, .. }
            | MmioError::OutOfRange { line, .. }
            | MmioError::WrongEntryCount { line, .. } => *line,
            MmioError::BadHeader { .. } | MmioError::Unsupported { .. } => 1,
            MmioError::MissingSizeLine => 0,
        }
    }

    /// The failure description without the `line N:` prefix, for callers
    /// (like [`AsapError::Parse`]) that carry the line number separately.
    pub fn detail(&self) -> String {
        match self {
            MmioError::Io { message, .. } => format!("read failed: {message}"),
            MmioError::BadHeader { header } => {
                format!("not a MatrixMarket matrix header: {header}")
            }
            MmioError::Unsupported { what, token } => format!("unsupported {what}: {token}"),
            MmioError::MissingSizeLine => "missing size line".into(),
            MmioError::BadSizeLine { message, .. } => format!("bad size line: {message}"),
            MmioError::BadEntry { message, .. } => format!("bad entry: {message}"),
            MmioError::OutOfRange {
                row,
                col,
                nrows,
                ncols,
                ..
            } => format!(
                "entry ({row},{col}) out of bounds for a {nrows}x{ncols} matrix \
                 (coordinates are 1-based)"
            ),
            MmioError::WrongEntryCount { expected, read, .. } => {
                format!("expected {expected} entries, read {read}")
            }
        }
    }
}

impl std::fmt::Display for MmioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let MmioError::MissingSizeLine = self {
            return write!(f, "{}", self.detail());
        }
        write!(f, "line {}: {}", self.line(), self.detail())
    }
}

impl std::error::Error for MmioError {}

impl From<MmioError> for AsapError {
    fn from(e: MmioError) -> AsapError {
        AsapError::parse(e.line(), e.detail())
    }
}

/// Parse a MatrixMarket stream.
pub fn read_matrix_market(mut r: impl BufRead) -> Result<Triplets, MmioError> {
    // One reused buffer for every line of the stream.
    let mut line = String::new();
    let mut lineno = 0usize;
    let mut next_line = |line: &mut String, lineno: &mut usize| -> Result<bool, MmioError> {
        line.clear();
        match r.read_line(line) {
            Ok(0) => Ok(false),
            Ok(_) => {
                *lineno += 1;
                Ok(true)
            }
            Err(e) => Err(MmioError::Io {
                line: *lineno + 1,
                message: e.to_string(),
            }),
        }
    };

    if !next_line(&mut line, &mut lineno)? {
        return Err(MmioError::BadHeader {
            header: "<empty input>".into(),
        });
    }
    // As `BufRead::lines` would hand it over: without its line ending.
    let header = line
        .strip_suffix('\n')
        .map_or(line.as_str(), |l| l.strip_suffix('\r').unwrap_or(l))
        .to_string();
    let fields: Vec<String> = header
        .split_whitespace()
        .map(|s| s.to_lowercase())
        .collect();
    if fields.len() < 5 || fields[0] != "%%matrixmarket" || fields[1] != "matrix" {
        return Err(MmioError::BadHeader { header });
    }
    if fields[2] != "coordinate" {
        return Err(MmioError::Unsupported {
            what: "storage format",
            token: fields[2].clone(),
        });
    }
    let pattern = match fields[3].as_str() {
        "real" | "integer" => false,
        "pattern" => true,
        other => {
            return Err(MmioError::Unsupported {
                what: "value type",
                token: other.to_string(),
            })
        }
    };
    let symmetric = match fields[4].as_str() {
        "general" => false,
        "symmetric" => true,
        other => {
            return Err(MmioError::Unsupported {
                what: "symmetry",
                token: other.to_string(),
            })
        }
    };

    // Skip comments, read the size line.
    let mut size_line = None;
    while next_line(&mut line, &mut lineno)? {
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        size_line = Some(t.to_string());
        break;
    }
    let size_line = size_line.ok_or(MmioError::MissingSizeLine)?;
    let size_lineno = lineno;
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|x| {
            x.parse().map_err(|e| MmioError::BadSizeLine {
                line: size_lineno,
                message: format!("field {x}: {e}"),
            })
        })
        .collect::<Result<_, _>>()?;
    if dims.len() != 3 {
        return Err(MmioError::BadSizeLine {
            line: size_lineno,
            message: format!("needs 3 fields, got {}: {size_line}", dims.len()),
        });
    }
    let (nrows, ncols, nnz) = (dims[0], dims[1], dims[2]);
    // Cap the declared sizes well below usize::MAX so downstream
    // arithmetic (dense extents, buffer reservations, nnz * mirror for
    // symmetric reads) can never overflow. No real matrix comes within
    // orders of magnitude of 2^40 rows; a size line up there is corrupt
    // or hostile, and a saturating product would let a lying nnz through.
    const DIM_CAP: usize = 1 << 40;
    if nrows > DIM_CAP || ncols > DIM_CAP || nnz > DIM_CAP {
        return Err(MmioError::BadSizeLine {
            line: size_lineno,
            message: format!("{nrows}x{ncols} with {nnz} entries exceeds the {DIM_CAP} size cap"),
        });
    }
    // Under the cap the product can still exceed usize on 64-bit
    // (2^40 * 2^40); an overflowed product trivially holds any capped nnz.
    if let Some(cells) = nrows.checked_mul(ncols) {
        if nnz > cells {
            return Err(MmioError::BadSizeLine {
                line: size_lineno,
                message: format!("{nnz} entries cannot fit a {nrows}x{ncols} matrix"),
            });
        }
    }

    let mut t = Triplets::new(nrows, ncols);
    t.binary = pattern;
    // The size line may lie: reserve for what it declares only up to a
    // constant, and let a longer (real) entry section grow the rest.
    const RESERVE_CAP: usize = 1 << 20;
    let expect = (if symmetric { 2 * nnz } else { nnz }).min(RESERVE_CAP);
    t.rows.reserve(expect);
    t.cols.reserve(expect);
    t.vals.reserve(expect);
    // Repeated (row, col) pairs are accepted: `Triplets` allows duplicates
    // and downstream COO→storage conversion accumulates them, matching the
    // SuiteSparse convention.
    let mut read = 0usize;
    while next_line(&mut line, &mut lineno)? {
        let s = line.trim();
        if s.is_empty() || s.starts_with('%') {
            continue;
        }
        if read == nnz {
            return Err(MmioError::WrongEntryCount {
                line: lineno,
                expected: nnz,
                read: read + 1,
            });
        }
        let bad = |message: String| MmioError::BadEntry {
            line: lineno,
            message,
        };
        let mut it = s.split_whitespace();
        let r: usize = it
            .next()
            .ok_or_else(|| bad("missing row".into()))?
            .parse()
            .map_err(|e| bad(format!("row: {e}")))?;
        let c: usize = it
            .next()
            .ok_or_else(|| bad("missing col".into()))?
            .parse()
            .map_err(|e| bad(format!("col: {e}")))?;
        if r == 0 || c == 0 || r > nrows || c > ncols {
            return Err(MmioError::OutOfRange {
                line: lineno,
                row: r,
                col: c,
                nrows,
                ncols,
            });
        }
        let v: f64 = if pattern {
            1.0
        } else {
            it.next()
                .ok_or_else(|| bad("missing value".into()))?
                .parse()
                .map_err(|e| bad(format!("value: {e}")))?
        };
        t.push(r - 1, c - 1, v);
        if symmetric && r != c {
            t.push(c - 1, r - 1, v);
        }
        read += 1;
    }
    if read != nnz {
        return Err(MmioError::WrongEntryCount {
            line: lineno,
            expected: nnz,
            read,
        });
    }
    Ok(t)
}

/// Write in `coordinate real general` form.
pub fn write_matrix_market(t: &Triplets, mut w: impl Write) -> std::io::Result<()> {
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "% written by asap-matrices")?;
    writeln!(w, "{} {} {}", t.nrows, t.ncols, t.nnz())?;
    for i in 0..t.nnz() {
        writeln!(w, "{} {} {:?}", t.rows[i] + 1, t.cols[i] + 1, t.vals[i])?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_general_real() {
        let src = "%%MatrixMarket matrix coordinate real general\n\
                   % a comment\n\
                   3 4 2\n\
                   1 1 2.5\n\
                   3 4 -1.0\n";
        let t = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!((t.nrows, t.ncols, t.nnz()), (3, 4, 2));
        assert_eq!(t.rows, vec![0, 2]);
        assert_eq!(t.cols, vec![0, 3]);
        assert_eq!(t.vals, vec![2.5, -1.0]);
        assert!(!t.binary);
    }

    #[test]
    fn parses_pattern_symmetric() {
        let src = "%%MatrixMarket matrix coordinate pattern symmetric\n\
                   3 3 2\n\
                   2 1\n\
                   3 3\n";
        let t = read_matrix_market(src.as_bytes()).unwrap();
        // Off-diagonal mirrored, diagonal not.
        assert_eq!(t.nnz(), 3);
        assert!(t.binary);
        assert!(t.rows.contains(&0) && t.cols.contains(&0));
    }

    #[test]
    fn roundtrips_through_write() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 1, 0.5);
        t.push(1, 0, -3.25);
        let mut buf = Vec::new();
        write_matrix_market(&t, &mut buf).unwrap();
        let back = read_matrix_market(&buf[..]).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(matches!(
            read_matrix_market("%%Nope\n1 1 0\n".as_bytes()),
            Err(MmioError::BadHeader { .. })
        ));
        assert!(matches!(
            read_matrix_market("%%MatrixMarket matrix array real general\n".as_bytes()),
            Err(MmioError::Unsupported {
                what: "storage format",
                ..
            })
        ));
    }

    #[test]
    fn rejects_out_of_bounds_entries_with_line_number() {
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        let err = read_matrix_market(src.as_bytes()).unwrap_err();
        assert_eq!(
            err,
            MmioError::OutOfRange {
                line: 3,
                row: 3,
                col: 1,
                nrows: 2,
                ncols: 2
            }
        );
    }

    #[test]
    fn rejects_zero_based_coordinates() {
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n";
        let err = read_matrix_market(src.as_bytes()).unwrap_err();
        assert!(matches!(
            err,
            MmioError::OutOfRange {
                line: 3,
                row: 0,
                ..
            }
        ));
        assert!(err.to_string().contains("1-based"), "{err}");
    }

    #[test]
    fn accepts_duplicate_entries_for_downstream_accumulation() {
        // `Triplets` allows duplicates (generators emit them; COO→storage
        // conversion sums them), so the reader keeps both occurrences.
        let src = "%%MatrixMarket matrix coordinate real general\n\
                   2 2 3\n1 1 1.0\n2 2 2.0\n1 1 5.0\n";
        let t = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(t.nnz(), 3);
        assert_eq!(t.dense_spmv(&[1.0, 1.0]), vec![6.0, 2.0]);
    }

    #[test]
    fn rejects_truncated_entry_section() {
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        let err = read_matrix_market(src.as_bytes()).unwrap_err();
        assert_eq!(
            err,
            MmioError::WrongEntryCount {
                line: 3,
                expected: 2,
                read: 1
            }
        );
    }

    #[test]
    fn rejects_surplus_entries_at_first_extra_line() {
        let src = "%%MatrixMarket matrix coordinate real general\n\
                   2 2 1\n1 1 1.0\n2 2 2.0\n";
        let err = read_matrix_market(src.as_bytes()).unwrap_err();
        assert_eq!(
            err,
            MmioError::WrongEntryCount {
                line: 4,
                expected: 1,
                read: 2
            }
        );
    }

    #[test]
    fn rejects_garbage_size_line() {
        let src = "%%MatrixMarket matrix coordinate real general\nfoo bar baz\n";
        let err = read_matrix_market(src.as_bytes()).unwrap_err();
        assert!(
            matches!(err, MmioError::BadSizeLine { line: 2, .. }),
            "{err}"
        );

        let src = "%%MatrixMarket matrix coordinate real general\n2 2\n";
        assert!(matches!(
            read_matrix_market(src.as_bytes()).unwrap_err(),
            MmioError::BadSizeLine { .. }
        ));

        // nnz larger than the shape can hold.
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 9\n";
        assert!(matches!(
            read_matrix_market(src.as_bytes()).unwrap_err(),
            MmioError::BadSizeLine { .. }
        ));
    }

    #[test]
    fn parses_empty_matrix() {
        // nnz = 0 is a legal MatrixMarket file: no entry lines at all.
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 0\n";
        let t = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!((t.nrows, t.ncols, t.nnz()), (2, 2, 0));
    }

    #[test]
    fn parses_degenerate_zero_extent_shapes() {
        // 0xN and Nx0 shapes can hold no entries but are valid shapes.
        for src in [
            "%%MatrixMarket matrix coordinate real general\n0 5 0\n",
            "%%MatrixMarket matrix coordinate real general\n5 0 0\n",
            "%%MatrixMarket matrix coordinate real general\n0 0 0\n",
        ] {
            let t = read_matrix_market(src.as_bytes()).unwrap();
            assert_eq!(t.nnz(), 0, "{src}");
        }
        // ...and any claimed entry in one is a size-line lie.
        let src = "%%MatrixMarket matrix coordinate real general\n0 5 1\n1 1 1.0\n";
        let err = read_matrix_market(src.as_bytes()).unwrap_err();
        assert!(
            matches!(err, MmioError::BadSizeLine { line: 2, .. }),
            "{err}"
        );
    }

    #[test]
    fn rejects_overflowing_dimensions_with_typed_error() {
        let max = usize::MAX;
        // Dims near usize::MAX parse as integers but must die at the cap
        // guard — not overflow a product or reserve absurd buffers.
        for src in [
            format!("%%MatrixMarket matrix coordinate real general\n{max} {max} 1\n1 1 1.0\n"),
            format!("%%MatrixMarket matrix coordinate real general\n{max} 2 1\n1 1 1.0\n"),
            format!("%%MatrixMarket matrix coordinate real general\n2 2 {max}\n1 1 1.0\n"),
            // Just past the cap on a single axis.
            format!(
                "%%MatrixMarket matrix coordinate real general\n{} 2 1\n1 1 1.0\n",
                (1usize << 40) + 1
            ),
        ] {
            let err = read_matrix_market(src.as_bytes()).unwrap_err();
            assert!(
                matches!(err, MmioError::BadSizeLine { line: 2, .. }),
                "{src}: {err}"
            );
            assert!(err.to_string().contains("cap"), "{err}");
        }
        // A value too big for usize entirely is a parse failure on the
        // field, same typed variant, same line number.
        let src = "%%MatrixMarket matrix coordinate real general\n\
                   99999999999999999999999999 2 1\n";
        let err = read_matrix_market(src.as_bytes()).unwrap_err();
        assert!(
            matches!(err, MmioError::BadSizeLine { line: 2, .. }),
            "{err}"
        );
    }

    #[test]
    fn rejects_truncated_final_entry_line() {
        // The last entry line is cut mid-record (row+col, no value).
        let src = "%%MatrixMarket matrix coordinate real general\n\
                   2 2 2\n1 1 1.0\n2 2\n";
        let err = read_matrix_market(src.as_bytes()).unwrap_err();
        assert_eq!(
            err,
            MmioError::BadEntry {
                line: 4,
                message: "missing value".into()
            }
        );
    }

    #[test]
    fn rejects_non_numeric_entry_fields() {
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 x 1.0\n";
        let err = read_matrix_market(src.as_bytes()).unwrap_err();
        assert!(matches!(err, MmioError::BadEntry { line: 3, .. }), "{err}");

        let src = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n";
        assert!(matches!(
            read_matrix_market(src.as_bytes()).unwrap_err(),
            MmioError::BadEntry { .. }
        ));

        let src = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n";
        assert!(matches!(
            read_matrix_market(src.as_bytes()).unwrap_err(),
            MmioError::BadEntry { .. }
        ));
    }

    #[test]
    fn converts_to_asap_error_with_line() {
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        let e: AsapError = read_matrix_market(src.as_bytes()).unwrap_err().into();
        assert_eq!(e.kind(), "parse");
        assert!(e.to_string().contains("line 3"), "{e}");
    }
}
