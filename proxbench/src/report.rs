//! The metric catalogue and the result line. Every name and unit here is
//! also declared in `BENCHMARK.json`; a test keeps the two in step.

use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("char_wall_s", "s"),
    ("char_cpu_s", "s"),
    ("delay_err_rms_pct", "%"),
    ("trans_err_rms_pct", "%"),
    ("delay_err_max_pct", "%"),
    ("sta_gates_per_s", "1/s"),
    ("query_p50_us", "us"),
    ("query_p90_us", "us"),
    ("queries_per_s", "1/s"),
    ("cpu_us_per_query", "us"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("model.jobs.phase_vtc_s", "s"),
    ("model.jobs.phase_singles_s", "s"),
    ("model.jobs.phase_pairs_s", "s"),
    ("model.jobs.phase_finish_s", "s"),
    ("model.jobs.workers_engaged", "count"),
    ("model.jobs.sims_run", "count"),
    ("model.jobs.failed", "count"),
    ("spice.newton_iters_per_solve_mean", "count"),
    ("spice.lu.static_share", "ratio"),
    ("spice.batch.active_lane_share", "ratio"),
    ("spice.batch.evictions", "count"),
    ("spice.tran_us_per_sim", "us"),
    ("model.audit_ms", "ms"),
    ("char.residual_share", "ratio"),
    ("sta.run_us_per_vector", "us"),
    ("sta.topo_order_us", "us"),
    ("sta.switching_gates_per_vector", "count"),
    ("sta.multi_input_share", "ratio"),
    ("model.gate_timing_ns", "ns"),
    ("model.gate_timing_query_ns", "ns"),
    ("model.gate_timing_share_of_query_cpu", "ratio"),
    ("serve.server.admit_us_p50", "us"),
    ("serve.server.queue_wait_us_p50", "us"),
    ("serve.server.queue_wait_us_p90", "us"),
    ("serve.server.execute_us_p50", "us"),
    ("serve.proto.parse_us", "us"),
    ("serve.proto.render_us", "us"),
    ("serve.library.acquire_warm_us", "us"),
    ("serve.residual_us_p50", "us"),
    ("serve.residual_share", "ratio"),
    ("serve.library.cold_miss_share", "ratio"),
    ("serve.library.evictions", "count"),
    ("serve.library.singleflight_waits", "count"),
    ("serve.library.load_us_p50", "us"),
    ("serve.store.load_us", "us"),
    ("serve.store.read_us", "us"),
    ("model.persist.from_json_us", "us"),
    ("model.validate_us", "us"),
    ("serve.store.entry_bytes", "bytes"),
    ("serve.requests", "count"),
    ("serve.shed", "count"),
    ("serve.errors", "count"),
    ("serve.e2e_p99_us", "us"),
    ("serve.e2e_samples", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("host.calib_ms", "ms"),
    ("host.calib_drift_pct", "%"),
];

/// The metrics one run measured, keyed by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under `name`; the name must be catalogued.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "uncatalogued metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Renders the result line for `catalogue`: every catalogued metric with
/// its unit. Fails naming the first metric the run did not measure.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &Metrics,
    catalogue: &[(&'static str, &'static str)],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(catalogue.len());
    for (name, unit) in catalogue {
        let v = metrics
            .get(name)
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        body.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
    }
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proxim_obs::json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(json: &Json, key: &str) -> Vec<(String, String)> {
        json.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect("string").to_owned();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn every_metric_is_well_named_and_declared() {
        let json = benchmark_json();
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared = declared(&json, key);
            let ours: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect();
            assert_eq!(ours, declared, "{key} differs from BENCHMARK.json");
            for (name, _) in catalogue {
                assert!(
                    !name.is_empty()
                        && name
                            .bytes()
                            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-')),
                    "bad metric name {name}"
                );
            }
        }
    }

    #[test]
    fn result_line_parses_and_requires_every_metric() {
        let mut m = Metrics::default();
        for (name, _) in END_TO_END {
            m.set(name, 1.25);
        }
        let line = result_line(true, 3, 0, &m, END_TO_END).expect("complete");
        let json = Json::parse(&line).expect("valid JSON");
        assert_eq!(json.get("attempted").and_then(Json::as_f64), Some(3.0));
        let metrics = json.get("metrics").and_then(Json::as_obj).expect("metrics");
        assert_eq!(metrics.len(), END_TO_END.len());

        let mut partial = Metrics::default();
        partial.set("setup_s", 1.0);
        assert!(result_line(true, 1, 0, &partial, END_TO_END).is_err());
    }
}
