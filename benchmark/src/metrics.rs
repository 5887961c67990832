//! The metric names the benchmark prints, with their units. They match
//! `BENCHMARK.json` at the repository root exactly (a test checks this).

use std::collections::BTreeMap;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Printed by an untraced run, on every workload.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("peak_rss_mb", "MB"),
    m("latency_p50_ms", "ms"),
    m("latency_p99_ms", "ms"),
    m("served_qps", "1/s"),
    m("solo_host_cost", "x"),
    m("batch_host_cost", "x"),
    m("certified_host_cost", "x"),
    m("cluster_host_cost", "x"),
    m("profiled_host_cost", "x"),
    m("modeled_gteps", "GTEPS"),
];

/// Layers that own spans, in the order their self time is printed.
/// `bench` is the benchmark's own code between layer calls.
pub const LAYERS: &[&str] = &[
    "graph",
    "gcd_sim",
    "core",
    "multi_gcd",
    "server",
    "telemetry",
    "client",
    "bench",
];

/// Printed by a traced run, on every workload. A layer a workload
/// bypasses reads 0.
pub const PER_LAYER: &[Metric] = &[
    m("solo_host_mteps", "MTEPS"),
    m("batch_host_mteps", "MTEPS"),
    m("certified_host_mteps", "MTEPS"),
    m("cluster_host_mteps", "MTEPS"),
    m("profiled_host_mteps", "MTEPS"),
    m("graph.generate_s", "s"),
    m("graph.reference_ms", "ms"),
    m("gcd_sim.upload_ms", "ms"),
    m("gcd_sim.pool_hit_ratio", "ratio"),
    m("gcd_sim.host_ns_per_wave_instr", "ns"),
    m("gcd_sim.wave_instr_per_run", "count"),
    m("gcd_sim.hbm_lines_per_run", "count"),
    m("gcd_sim.atomics_per_run", "count"),
    m("gcd_sim.kernels_per_run", "count"),
    m("gcd_sim.l2_hit_pct", "%"),
    m("core.solo_ms_p50", "ms"),
    m("core.solo_ms_p90", "ms"),
    m("core.solo_allocs", "count"),
    m("core.solo_alloc_bytes", "bytes"),
    m("core.batch_ms", "ms"),
    m("core.batch_allocs", "count"),
    m("core.certify_ms", "ms"),
    m("core.profiled_ms", "ms"),
    m("core.host_ns_per_modeled_us", "ns/us"),
    m("core.modeled_ms", "ms"),
    m("core.levels_per_run", "count"),
    m("core.bottom_up_levels_per_run", "count"),
    m("multi_gcd.build_ms", "ms"),
    m("multi_gcd.run_ms", "ms"),
    m("multi_gcd.exchanged_bytes_per_run", "bytes"),
    m("server.queue_wait_ms_p50", "ms"),
    m("server.queue_wait_ms_p99", "ms"),
    m("server.wire_ms", "ms"),
    m("server.batch_size_mean", "count"),
    m("server.linger_ms", "ms"),
    m("server.journal_appends_per_req", "count"),
    m("server.journal_fsyncs_per_req", "count"),
    m("server.journal_bytes_per_req", "bytes"),
    m("server.max_queue_depth", "count"),
    m("server.shed", "count"),
    m("server.timeouts", "count"),
    m("server.errors", "count"),
    m("server.lost", "count"),
    m("telemetry.scrape_ms", "ms"),
    m("telemetry.trace_overhead_pct", "%"),
    m("client.send_lag_ms_p99", "ms"),
    m("graph.self_s", "s"),
    m("gcd_sim.self_s", "s"),
    m("core.self_s", "s"),
    m("multi_gcd.self_s", "s"),
    m("server.self_s", "s"),
    m("telemetry.self_s", "s"),
    m("client.self_s", "s"),
    m("bench.self_s", "s"),
];

pub type Values = BTreeMap<&'static str, f64>;

/// The human-readable table of `table`'s metrics.
pub fn render(table: &[Metric], values: &Values) -> String {
    table
        .iter()
        .map(|mt| {
            let v = values.get(mt.name).copied().unwrap_or(f64::NAN);
            format!("{:<36} {:>16.4} {}\n", mt.name, v, mt.unit)
        })
        .collect()
}

/// The final JSON line: exactly `table`'s metrics, or the name of one
/// that was not measured.
pub fn result_line(
    table: &[Metric],
    values: &Values,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let mut parts = Vec::with_capacity(table.len());
    for mt in table {
        let v = values
            .get(mt.name)
            .copied()
            .ok_or_else(|| format!("metric {} was not measured", mt.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite: {v}", mt.name));
        }
        parts.push(format!(
            "\"{}\":{{\"value\":{v:?},\"unit\":\"{}\"}}",
            mt.name, mt.unit
        ));
    }
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        parts.join(",")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::telemetry::JsonValue;

    fn benchmark_json() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        JsonValue::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(key: &str) -> Vec<(String, String)> {
        benchmark_json()
            .get(key)
            .and_then(|v| v.as_arr())
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|e| {
                let s = |k: &str| e.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn table(t: &[Metric]) -> Vec<(String, String)> {
        t.iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    /// Names and units a result line prints, in order.
    fn printed(t: &[Metric]) -> Vec<(String, String)> {
        let values: Values = t.iter().map(|m| (m.name, 1.5)).collect();
        let line = result_line(t, &values, true, 1, 0).expect("all measured");
        let v = JsonValue::parse(&line).expect("result line is JSON");
        v.get("metrics")
            .and_then(|m| m.as_obj())
            .expect("metrics object")
            .iter()
            .map(|(k, e)| {
                let unit = e.get("unit").and_then(|u| u.as_str()).unwrap_or("");
                (k.clone(), unit.to_string())
            })
            .collect()
    }

    #[test]
    fn printed_names_match_benchmark_json() {
        assert_eq!(printed(END_TO_END), declared("end_to_end"));
        assert_eq!(printed(PER_LAYER), declared("per_layer"));
        assert_eq!(table(END_TO_END), declared("end_to_end"));
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let names: Vec<String> = benchmark_json()
            .get("workloads")
            .and_then(|v| v.as_arr())
            .expect("workloads list")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(|n| n.as_str())
                    .unwrap_or("")
                    .to_string()
            })
            .collect();
        let ours: Vec<String> = crate::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn every_layer_has_a_self_time_metric() {
        for layer in LAYERS {
            let name = format!("{layer}.self_s");
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
    }

    #[test]
    fn an_unmeasured_metric_is_an_error() {
        let values: Values = END_TO_END[1..].iter().map(|m| (m.name, 1.0)).collect();
        let err = result_line(END_TO_END, &values, true, 1, 0).unwrap_err();
        assert!(err.contains(END_TO_END[0].name));
    }
}
