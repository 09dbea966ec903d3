//! The metric tables (kept equal to `BENCHMARK.json` by a test) and the
//! result a workload run prints.

use asap_obs::json::fmt_f64;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

pub const END_TO_END: &[MetricDef] = &[
    m("ops_per_s", "1/s", "higher"),
    m("lat_p50_ms", "ms", "lower"),
    m("peak_rss_mb", "MiB", "lower"),
    m("setup_s", "s", "lower"),
];

/// Regression bounds: at least three times the widest run-to-run
/// spread (interquartile distance over the median of ten runs) sizing
/// saw for the metric on any workload — 6.0 % for `ops_per_s`, 4.3 % for
/// `lat_p50_ms`, 3.2 % for `peak_rss_mb` — and the contract's ceiling for
/// `setup_s`, a short phase whose spread reached 16 %.
pub fn bound_of(metric: &str) -> f64 {
    match metric {
        "peak_rss_mb" => 0.10,
        "setup_s" => 0.25,
        _ => 0.20,
    }
}

pub const PER_LAYER: &[MetricDef] = &[
    // Figure-cell path.
    m("matrices.gen_ms", "ms", "lower"),
    m("tensor.from_coo_ms", "ms", "lower"),
    m("core.compile_cold_ms", "ms", "lower"),
    m("core.compile_hit_us", "us", "lower"),
    m("sparsifier.bind_ms", "ms", "lower"),
    m("ir.vm_null_ms", "ms", "lower"),
    m("sim.run_ms", "ms", "lower"),
    m("sim.model_share", "ratio", "lower"),
    m("sim.mcycles_per_s", "Mcycles/s", "higher"),
    m("sim.minstr_per_s", "Minstr/s", "higher"),
    m("bench.verify_ms", "ms", "lower"),
    m("sim.cycles_total", "count", "lower"),
    m("sim.instructions_total", "count", "lower"),
    m("sim.asap_speedup_geomean", "ratio", "higher"),
    m("sim.mt_cycles_drift", "ratio", "lower"),
    // Request path.
    m("serve.http_read_us", "us", "lower"),
    m("obs.json_parse_us", "us", "lower"),
    m("core.digest_us", "us", "lower"),
    m("matrices.mmio_parse_ms", "ms", "lower"),
    m("serve.store_lookup_us", "us", "lower"),
    m("serve.store_admit_us", "us", "lower"),
    m("serve.store_hit_ratio", "ratio", "higher"),
    m("serve.store_evictions", "count", "lower"),
    m("serve.request_parse_us", "us", "lower"),
    m("core.operands_us", "us", "lower"),
    m("ir.tier2_kernel_ms", "ms", "lower"),
    m("ir.tier2_mnnz_per_s", "Mnnz/s", "higher"),
    m("sparsifier.read_back_us", "us", "lower"),
    m("core.checksum_us", "us", "lower"),
    m("serve.render_us", "us", "lower"),
    m("serve.inproc_sum_ms", "ms", "lower"),
    m("serve.null_rtt_ms", "ms", "lower"),
    m("serve.transport_ms", "ms", "lower"),
    m("serve.stage_parse_us", "us", "lower"),
    m("serve.stage_quota_us", "us", "lower"),
    m("serve.stage_queue_wait_us", "us", "lower"),
    m("serve.stage_store_us", "us", "lower"),
    m("serve.stage_compile_us", "us", "lower"),
    m("serve.stage_exec_us", "us", "lower"),
    m("serve.stage_write_us", "us", "lower"),
    m("serve.upload_hit_p50_ms", "ms", "lower"),
    m("serve.upload_fresh_p50_ms", "ms", "lower"),
    m("serve.lat_p95_ms", "ms", "lower"),
    // Process and harness.
    m("proc.cpu_ms_per_op", "ms", "lower"),
    m("proc.cpu_per_wall", "ratio", "lower"),
    m("proc.vol_ctx_switches_per_op", "count", "lower"),
    m("bench.segment_spread", "ratio", "lower"),
    m("bench.client_overhead_us", "us", "lower"),
    m("bench.trace_overhead", "ratio", "lower"),
    m("bench.reconcile_gap", "ratio", "lower"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Why ops failed, a few lines at most (printed above the result).
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Count one checked op; `Err` carries why it failed.
    pub fn check(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }
}

/// The metric table for people, then — as the last line — the result
/// object the driver reads. A layer the workload never enters reads 0:
/// its span table is empty, which is a measurement, not a gap.
pub fn render(workload: &str, defs: &[MetricDef], out: &Outcome) -> Result<String, String> {
    let mut text = String::new();
    for why in &out.failures {
        text.push_str(&format!("FAILED OP [{workload}]: {why}\n"));
    }
    text.push_str(&format!(
        "workload {workload}: {} ops attempted, {} failed\n",
        out.attempted, out.failed
    ));
    let mut fields = Vec::new();
    for d in defs {
        let v = out.get(d.name).unwrap_or(0.0);
        if !v.is_finite() {
            return Err(format!("{workload}: metric {} is not finite", d.name));
        }
        text.push_str(&format!(
            "  {:<32} {:>16.4} {:<10} ({} is better)\n",
            d.name, v, d.unit, d.better
        ));
        fields.push(format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            d.name,
            fmt_f64(v),
            d.unit
        ));
    }
    if let Some((stray, _)) = out
        .metrics
        .iter()
        .find(|(n, _)| !defs.iter().any(|d| d.name == *n))
    {
        return Err(format!("{workload}: metric {stray} is not declared"));
    }
    text.push_str(&format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}\n",
        out.failed == 0,
        out.attempted,
        out.failed,
        fields.join(",")
    ));
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_obs::{parse_json, Json};

    /// `BENCHMARK.json` is what the driver reads; these tables are what
    /// the binary prints. They must name the same metrics and units.
    #[test]
    fn tables_equal_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = spec.get(key).and_then(Json::as_array).unwrap();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (j, d) in listed.iter().zip(defs) {
                let field = |f: &str| j.get(f).and_then(Json::as_str).unwrap().to_string();
                assert_eq!(field("name"), d.name);
                assert_eq!(field("unit"), d.unit, "{}", d.name);
                assert_eq!(field("better"), d.better, "{}", d.name);
                if key == "end_to_end" {
                    let bound = j.get("bound").and_then(Json::as_f64).unwrap();
                    assert_eq!(bound, bound_of(d.name), "{}", d.name);
                }
            }
        }
        let listed = spec.get("workloads").and_then(Json::as_array).unwrap();
        assert_eq!(listed.len(), crate::WORKLOADS.len());
        for (j, w) in listed.iter().zip(crate::WORKLOADS) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(w.name));
            assert_eq!(j.get("why").and_then(Json::as_str), Some(w.why));
        }
    }

    #[test]
    fn render_ends_with_the_result_object_and_rejects_strays() {
        let mut out = Outcome::default();
        out.check(Ok(()));
        out.check(Err("bad checksum".into()));
        for d in END_TO_END {
            out.set(d.name, 1.5);
        }
        let text = render("w", END_TO_END, &out).unwrap();
        let last = text.lines().last().unwrap();
        let j = parse_json(last).unwrap();
        assert_eq!(j.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(j.get("attempted").and_then(Json::as_u64), Some(2));
        assert_eq!(j.get("failed").and_then(Json::as_u64), Some(1));
        let lat = j.get("metrics").and_then(|m| m.get("lat_p50_ms")).unwrap();
        assert_eq!(lat.get("value").and_then(Json::as_f64), Some(1.5));
        assert_eq!(lat.get("unit").and_then(Json::as_str), Some("ms"));
        out.set("made.up", 1.0);
        assert!(render("w", END_TO_END, &out).is_err());
    }
}
