//! Equal-Work harmonic-mean Speedup (EWS), per Eeckhout 2024 — the
//! paper's aggregation metric (Section 5): summarize per-matrix
//! throughputs with a harmonic mean and report the ratio — over the
//! whole collection, or per matrix group as Figures 7, 10 and 11 do.

use crate::run::ExperimentResult;
use asap_matrices::UNSTRUCTURED_GROUPS;

/// Harmonic mean of strictly-positive values.
pub fn harmonic_mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "harmonic mean of an empty set");
    assert!(
        xs.iter().all(|&x| x > 0.0),
        "harmonic mean requires positive values"
    );
    xs.len() as f64 / xs.iter().map(|x| 1.0 / x).sum::<f64>()
}

/// EWS of variant `a` over variant `b`: ratio of harmonic means of their
/// per-matrix throughputs (same matrix order in both slices).
pub fn ews_speedup(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "EWS compares matched throughput sets");
    harmonic_mean(a) / harmonic_mean(b)
}

/// The group table of Figures 7, 10 and 11: one line per unstructured
/// group, then "Selected" (every unstructured matrix) and "Others"
/// (every structured one). `rows[i][c]` is matrix `i` under sweep
/// configuration `c`, and each `(col, base)` of `ratios` asks for the
/// EWS of configuration `col` over configuration `base` among the
/// group's matrices. A group with no matrix in `rows` yields `None`.
pub fn ews_by_group(
    rows: &[Vec<ExperimentResult>],
    ratios: &[(usize, usize)],
) -> Vec<(&'static str, Option<Vec<f64>>)> {
    let ews_where = |member: &dyn Fn(&ExperimentResult) -> bool| {
        let members: Vec<_> = rows.iter().filter(|row| member(&row[0])).collect();
        let throughputs =
            |c: usize| -> Vec<f64> { members.iter().map(|row| row[c].throughput).collect() };
        (!members.is_empty()).then(|| {
            ratios
                .iter()
                .map(|&(col, base)| ews_speedup(&throughputs(col), &throughputs(base)))
                .collect()
        })
    };
    let mut table: Vec<_> = UNSTRUCTURED_GROUPS
        .iter()
        .map(|&g| (g, ews_where(&|r| r.group == g)))
        .collect();
    table.push(("Selected", ews_where(&|r| r.unstructured)));
    table.push(("Others", ews_where(&|r| !r.unstructured)));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One matrix's row: configuration 0 at `base` nnz/ms, 1 at `fast`.
    fn row(group: &str, unstructured: bool, base: f64, fast: f64) -> Vec<ExperimentResult> {
        let result = |throughput: f64| ExperimentResult {
            matrix: format!("{group}/m"),
            group: group.to_string(),
            unstructured,
            kernel: "spmv".into(),
            variant: "v".into(),
            hw_config: "hw".into(),
            threads: 1,
            nnz: 1,
            cycles: 1,
            instructions: 1,
            throughput,
            l2_mpki: 0.0,
            sw_pf_issued: 0,
            sw_pf_dropped: 0,
            hw_pf_issued: 0,
            dram_bytes: 0,
            stall_cycles: 0,
            warnings: Vec::new(),
        };
        vec![result(base), result(fast)]
    }

    #[test]
    fn group_table_is_ews_over_each_groups_members() {
        let rows = [
            row("GAP", true, 10.0, 30.0),
            row("Janna", false, 8.0, 4.0),
            row("GAP", true, 2.0, 3.0),
            row("SNAP", true, 5.0, 5.5),
            row("Janna", false, 6.0, 9.0),
        ];
        let table = ews_by_group(&rows, &[(1, 0), (0, 1)]);
        let names: Vec<&str> = table.iter().map(|(g, _)| *g).collect();
        assert_eq!(
            names,
            ["GAP", "SNAP", "DIMACS10", "LAW", "Gleich", "Pajek", "Selected", "Others"]
        );
        let of = |g: &str| table.iter().find(|(name, _)| *name == g).unwrap().1.clone();
        let both_ways = |fast: &[f64], base: &[f64]| {
            Some(vec![ews_speedup(fast, base), ews_speedup(base, fast)])
        };
        assert_eq!(of("GAP"), both_ways(&[30.0, 3.0], &[10.0, 2.0]));
        assert_eq!(of("SNAP"), both_ways(&[5.5], &[5.0]));
        assert_eq!(of("DIMACS10"), None, "no member in the rows");
        assert_eq!(
            of("Selected"),
            both_ways(&[30.0, 3.0, 5.5], &[10.0, 2.0, 5.0])
        );
        assert_eq!(of("Others"), both_ways(&[4.0, 9.0], &[8.0, 6.0]));
        // A configuration against itself is 1 wherever the group exists.
        assert_eq!(ews_by_group(&rows, &[(0, 0)])[0].1, Some(vec![1.0]));
        assert_eq!(ews_by_group(&[], &[(1, 0)])[6], ("Selected", None));
    }

    #[test]
    fn harmonic_mean_basics() {
        assert!((harmonic_mean(&[2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((harmonic_mean(&[1.0, 3.0]) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn harmonic_mean_is_dominated_by_small_values() {
        // One slow matrix drags the mean down much more than the
        // geometric mean would — the paper's argument for EWS.
        let hm = harmonic_mean(&[100.0, 1.0]);
        assert!(hm < 2.0);
    }

    #[test]
    fn ews_of_identical_sets_is_one() {
        let t = [3.0, 5.0, 7.0];
        assert!((ews_speedup(&t, &t) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ews_uniform_speedup_is_preserved() {
        let b = [2.0, 4.0, 8.0];
        let a: Vec<f64> = b.iter().map(|x| 1.5 * x).collect();
        assert!((ews_speedup(&a, &b) - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_throughput() {
        harmonic_mean(&[1.0, 0.0]);
    }
}
