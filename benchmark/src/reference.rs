//! `benchmark/reference/`: what every run's outputs are checked against.
//!
//! - `sim_cells.json` — simulated cycles and retired instructions per
//!   figure cell. Single-core cells must match exactly; two-core cells
//!   match instructions exactly and cycles within `mt_cycle_tolerance`
//!   (the threaded clock sync makes their cycle counts drift run to run).
//! - `checksums.json` — the output checksum of each named serve matrix,
//!   computed by `ExecEngine::TreeWalk`: the independent oracle, never
//!   the engine under test.
//!
//! `--regen-reference` rewrites both; a normal run only reads them.

use asap_obs::{parse_json, Json};
use std::collections::BTreeMap;
use std::path::PathBuf;

pub fn dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("reference")
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellRef {
    pub cycles: u64,
    pub instructions: u64,
}

pub struct SimCells {
    pub mt_cycle_tolerance: f64,
    pub cells: BTreeMap<String, CellRef>,
}

fn read(file: &str) -> Result<Json, String> {
    let path = dir().join(file);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn fields(j: &Json) -> &[(String, Json)] {
    match j {
        Json::Obj(f) => f,
        _ => &[],
    }
}

impl SimCells {
    pub fn load() -> Result<SimCells, String> {
        let j = read("sim_cells.json")?;
        let tol = j
            .get("mt_cycle_tolerance")
            .and_then(Json::as_f64)
            .ok_or("sim_cells.json: no mt_cycle_tolerance")?;
        let mut cells = BTreeMap::new();
        for (key, v) in j.get("cells").map(fields).unwrap_or_default() {
            let n = |f: &str| {
                v.get(f)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("sim_cells.json: cell {key} lacks {f}"))
            };
            cells.insert(
                key.clone(),
                CellRef {
                    cycles: n("cycles")?,
                    instructions: n("instructions")?,
                },
            );
        }
        Ok(SimCells {
            mt_cycle_tolerance: tol,
            cells,
        })
    }

    /// Check one cell. `threads > 1` allows the cycle tolerance.
    /// Returns the relative cycle drift from the reference.
    pub fn check(
        &self,
        key: &str,
        threads: usize,
        cycles: u64,
        instructions: u64,
    ) -> Result<f64, String> {
        let want = self
            .cells
            .get(key)
            .ok_or_else(|| format!("{key}: no reference cell (run --regen-reference)"))?;
        // Each simulated core retires a few bookkeeping instructions of
        // its own; they are part of the reference, so the count is exact
        // at any thread count.
        if instructions != want.instructions {
            return Err(format!(
                "{key}: {instructions} instructions, reference has {}",
                want.instructions
            ));
        }
        let drift = (cycles as f64 - want.cycles as f64).abs() / want.cycles as f64;
        let allowed = if threads > 1 {
            self.mt_cycle_tolerance
        } else {
            0.0
        };
        if drift > allowed {
            return Err(format!(
                "{key}: {cycles} cycles, reference has {} (drift {drift:.4} > {allowed})",
                want.cycles
            ));
        }
        Ok(drift)
    }

    pub fn render(&self) -> String {
        let rows: Vec<String> = self
            .cells
            .iter()
            .map(|(k, c)| {
                format!(
                    "    \"{k}\": {{\"cycles\": {}, \"instructions\": {}}}",
                    c.cycles, c.instructions
                )
            })
            .collect();
        format!(
            "{{\n  \"mt_cycle_tolerance\": {},\n  \"cells\": {{\n{}\n  }}\n}}\n",
            self.mt_cycle_tolerance,
            rows.join(",\n")
        )
    }
}

/// What a `/v1/run` reply on a named matrix must say.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Reply {
    /// Output checksum, 16 hex digits.
    pub checksum: String,
    pub nnz: usize,
    pub rows: usize,
}

/// Matrix label → expected reply.
pub struct Checksums(pub BTreeMap<String, Reply>);

impl Checksums {
    pub fn load() -> Result<Checksums, String> {
        let j = read("checksums.json")?;
        let mut map = BTreeMap::new();
        for (matrix, v) in fields(&j) {
            let lacks = |f: &str| format!("checksums.json: {matrix} lacks {f}");
            let count = |f: &str| v.get(f).and_then(Json::as_usize).ok_or_else(|| lacks(f));
            let reply = Reply {
                checksum: v
                    .get("checksum")
                    .and_then(Json::as_str)
                    .ok_or_else(|| lacks("checksum"))?
                    .to_string(),
                nnz: count("nnz")?,
                rows: count("rows")?,
            };
            map.insert(matrix.clone(), reply);
        }
        Ok(Checksums(map))
    }

    pub fn of(&self, matrix: &str) -> Result<&Reply, String> {
        self.0
            .get(matrix)
            .ok_or_else(|| format!("{matrix}: no reference checksum (run --regen-reference)"))
    }

    pub fn render(&self) -> String {
        let rows: Vec<String> = self
            .0
            .iter()
            .map(|(k, r)| {
                format!(
                    "  \"{k}\": {{\"checksum\": \"{}\", \"nnz\": {}, \"rows\": {}}}",
                    r.checksum, r.nnz, r.rows
                )
            })
            .collect();
        format!("{{\n{}\n}}\n", rows.join(",\n"))
    }
}

pub fn write(file: &str, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir()).map_err(|e| e.to_string())?;
    std::fs::write(dir().join(file), text).map_err(|e| format!("{file}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells() -> SimCells {
        let mut cells = BTreeMap::new();
        let c = CellRef {
            cycles: 1000,
            instructions: 500,
        };
        cells.insert("a".to_string(), c);
        SimCells {
            mt_cycle_tolerance: 0.03,
            cells,
        }
    }

    #[test]
    fn single_core_cells_are_exact_and_two_core_cells_tolerate_drift() {
        let r = cells();
        assert_eq!(r.check("a", 1, 1000, 500), Ok(0.0));
        assert!(r.check("a", 1, 1001, 500).is_err());
        assert!(r.check("a", 2, 1029, 500).is_ok());
        assert!(r.check("a", 2, 1031, 500).is_err());
        assert!(r.check("a", 2, 1000, 501).is_err());
        assert!(r.check("absent", 1, 1, 1).is_err());
    }

    #[test]
    fn rendered_files_read_back() {
        let text = cells().render();
        let j = parse_json(&text).unwrap();
        let a = j.get("cells").and_then(|c| c.get("a")).unwrap();
        assert_eq!(a.get("cycles").and_then(Json::as_u64), Some(1000));
        let reply = Reply {
            checksum: "00ff".to_string(),
            nnz: 7,
            rows: 4,
        };
        let text = Checksums([("m".to_string(), reply.clone())].into()).render();
        let m = parse_json(&text).unwrap();
        let m = m.get("m").unwrap();
        assert_eq!(m.get("checksum").and_then(Json::as_str), Some("00ff"));
        assert_eq!(m.get("nnz").and_then(Json::as_usize), Some(7));
        assert_eq!(m.get("rows").and_then(Json::as_usize), Some(4));
    }
}
