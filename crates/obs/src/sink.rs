//! JSONL trace sink: serializes the run manifest, spans, metrics, and
//! effectiveness to one JSON object per line — the `--trace-out PATH`
//! format every figure binary and `asap_cli` emit.
//!
//! Hand-rolled like the rest of the workspace's JSON (dependency-free
//! builds); [`validate_jsonl`] reads the output back through
//! [`crate::json`] to check that it round-trips.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::analyzer::Effectiveness;
use crate::json;
use crate::manifest::RunManifest;
use crate::metrics::MetricsSnapshot;
use crate::recorder::SpanRecord;

/// Escape a string for embedding in a JSON literal. (The shared
/// implementation lives in [`crate::json`]; this alias keeps the sink's
/// long-standing public name working.)
pub use crate::json::escape as json_escape;

fn span_line(s: &SpanRecord) -> String {
    let mut attrs = String::new();
    for (i, (k, v)) in s.attrs.iter().enumerate() {
        if i > 0 {
            attrs.push(',');
        }
        let _ = write!(attrs, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
    }
    let parent = match s.parent {
        Some(p) => p.to_string(),
        None => "null".to_string(),
    };
    format!(
        "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"attrs\":{{{}}}}}",
        s.id,
        parent,
        json_escape(s.name),
        s.start_ns,
        s.end_ns,
        attrs
    )
}

fn metric_lines(m: &MetricsSnapshot, out: &mut String) {
    for (name, v) in &m.counters {
        let _ = writeln!(
            out,
            "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{}}}",
            json_escape(name),
            v
        );
    }
    for (name, v) in &m.gauges {
        let _ = writeln!(
            out,
            "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{}}}",
            json_escape(name),
            v
        );
    }
    for (name, h) in &m.histograms {
        let mut buckets = String::new();
        for (i, b) in h.buckets.iter().enumerate() {
            if i > 0 {
                buckets.push(',');
            }
            let _ = write!(buckets, "{b}");
        }
        let _ = writeln!(
            out,
            "{{\"type\":\"histogram\",\"name\":\"{}\",\"count\":{},\"sum\":{},\"buckets\":[{}]}}",
            json_escape(name),
            h.count,
            h.sum,
            buckets
        );
    }
}

fn effectiveness_lines(eff: &Effectiveness, out: &mut String) {
    for s in &eff.sites {
        let _ = writeln!(
            out,
            "{{\"type\":\"pf_site\",\"site\":{},\"issued\":{},\"useful\":{},\"accuracy\":{},\"mean_distance_events\":{},\"mean_distance_cycles\":{}}}",
            s.site.0,
            s.issued,
            s.useful,
            fmt_f64(s.accuracy()),
            fmt_f64(s.mean_distance_events()),
            fmt_f64(eff.mean_distance_cycles(s)),
        );
    }
    let _ = writeln!(
        out,
        "{{\"type\":\"pf_summary\",\"demand_loads\":{},\"covered_loads\":{},\"coverage\":{},\"accuracy\":{}}}",
        eff.demand_loads,
        eff.covered_loads,
        fmt_f64(eff.coverage()),
        fmt_f64(eff.accuracy()),
    );
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "0.0".to_string()
    }
}

/// Render a full trace dump: one manifest line, then spans, metrics, and
/// (if present) the effectiveness report, one JSON object per line.
pub fn render_jsonl(
    manifest: &RunManifest,
    spans: &[SpanRecord],
    metrics: &MetricsSnapshot,
    effectiveness: Option<&Effectiveness>,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"type\":\"manifest\",\"manifest\":{}}}",
        manifest.to_json()
    );
    for s in spans {
        out.push_str(&span_line(s));
        out.push('\n');
    }
    metric_lines(metrics, &mut out);
    if let Some(eff) = effectiveness {
        effectiveness_lines(eff, &mut out);
    }
    out
}

/// Render and write a trace dump to `path`.
pub fn write_jsonl(
    path: &Path,
    manifest: &RunManifest,
    spans: &[SpanRecord],
    metrics: &MetricsSnapshot,
    effectiveness: Option<&Effectiveness>,
) -> io::Result<()> {
    std::fs::write(path, render_jsonl(manifest, spans, metrics, effectiveness))
}

/// Validation of a JSONL dump with the workspace's JSON reader: every
/// non-empty line parses as a JSON object with a `"type"` key, and
/// line one is the manifest. Returns the number of lines validated.
pub fn validate_jsonl(text: &str) -> Result<usize, String> {
    let mut n = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let Some(ty) = v.get("type") else {
            return Err(format!("line {}: missing \"type\" key", lineno + 1));
        };
        if n == 0 && ty.as_str() != Some("manifest") {
            return Err("line 1: first record must be the manifest".to_string());
        }
        n += 1;
    }
    if n == 0 {
        return Err("empty trace".to_string());
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::analyze;
    use asap_ir::TraceModel;

    #[test]
    fn renders_and_validates() {
        let manifest = RunManifest::new("test").with("seed", "42");
        let spans = vec![SpanRecord {
            id: 0,
            parent: None,
            name: "compile",
            start_ns: 1,
            end_ns: 9,
            attrs: vec![("kernel", "spmv \"x\"".to_string())],
        }];
        let metrics = MetricsSnapshot {
            counters: vec![("cache.hits".to_string(), 3)],
            gauges: vec![("serve.queue_depth".to_string(), 2)],
            histograms: vec![],
        };
        let trace = TraceModel::new();
        let eff = analyze(&trace);
        let text = render_jsonl(&manifest, &spans, &metrics, Some(&eff));
        let n = validate_jsonl(&text).expect("valid jsonl");
        assert!(
            n >= 4,
            "manifest + span + counter + gauge + summary, got {n}"
        );
        assert!(text.contains("\\\"x\\\""), "escaped attr value");
        assert!(
            text.contains("{\"type\":\"gauge\",\"name\":\"serve.queue_depth\",\"value\":2}"),
            "{text}"
        );
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_jsonl("").is_err());
        assert!(validate_jsonl("not json\n").is_err());
        assert!(
            validate_jsonl("{\"type\":\"span\"}\n").is_err(),
            "manifest must be first"
        );
        assert!(validate_jsonl("{\"type\":\"manifest\"\n").is_err());
        assert!(validate_jsonl("{\"type\":\"manifest\",\"x\":{}}\n{\"no_type\":1}\n").is_err());
    }

    #[test]
    fn escape_covers_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
