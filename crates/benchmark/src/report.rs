//! The metric catalogue (names, units, direction, bounds — mirrored by
//! `BENCHMARK.json`, which `tests/smoke.rs` holds it to) and the result
//! line a workload run ends with.

/// One end-to-end metric.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// share of the parent's median by which the metric may worsen
    pub bound: f64,
}

/// Every end-to-end metric is reported by every workload; what the
/// generic names mean per workload is in the README's table.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "setup_s", unit: "s", higher_is_better: false, bound: 0.25 },
    EndToEnd { name: "ops_per_s", unit: "1/s", higher_is_better: true, bound: 0.25 },
    EndToEnd { name: "env_frames_per_s", unit: "1/s", higher_is_better: true, bound: 0.25 },
    EndToEnd { name: "latency_p50_us", unit: "us", higher_is_better: false, bound: 0.25 },
    EndToEnd { name: "latency_p95_us", unit: "us", higher_is_better: false, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", higher_is_better: false, bound: 0.1 },
];

/// Per-layer metrics, part one: the probes, which time the same calls
/// whatever the workload. `(name, unit)` in report order.
pub const PROBED: [(&str, &str); 41] = [
    ("tensor.matmul_apex_us", "us"),
    ("tensor.conv2d_impala_us", "us"),
    ("graph.session_act_us", "us"),
    ("core.dbr_act_us", "us"),
    ("serve.replica_act_us", "us"),
    ("memory.insert_us", "us"),
    ("memory.sample_us", "us"),
    ("memory.update_priorities_us", "us"),
    ("agents.get_actions_us", "us"),
    ("agents.update_us", "us"),
    ("agents.get_weights_us", "us"),
    ("agents.set_weights_us", "us"),
    ("agents.collect_task_us", "us"),
    ("agents.td_error_us", "us"),
    ("agents.impala_rollout_us", "us"),
    ("agents.impala_learn_us", "us"),
    ("envs.step_random_us", "us"),
    ("envs.step_pong_us", "us"),
    ("envs.step_pixels_us", "us"),
    ("dist.edge_block_us", "us"),
    ("dist.edge_latest_us", "us"),
    ("dist.hub_publish_us", "us"),
    ("dist.hub_poll_us", "us"),
    ("net.codec.traj_encode_us", "us"),
    ("net.codec.traj_decode_us", "us"),
    ("net.codec.traj_bytes", "bytes"),
    ("net.codec.traj_plain_encode_us", "us"),
    ("net.codec.traj_plain_bytes", "bytes"),
    ("net.codec.weights_encode_us", "us"),
    ("net.codec.weights_decode_us", "us"),
    ("net.codec.weights_bytes", "bytes"),
    ("net.codec.delta_encode_us", "us"),
    ("net.codec.delta_bytes", "bytes"),
    ("reactor.frame_encode_us", "us"),
    ("reactor.frame_decode_us", "us"),
    ("reactor.lz_compress_ns_per_byte", "ns"),
    ("reactor.lz_decompress_ns_per_byte", "ns"),
    ("obs.span_ns", "ns"),
    ("obs.span_disabled_ns", "ns"),
    ("obs.counter_ns", "ns"),
    ("obs.histogram_ns", "ns"),
];

/// Per-layer metrics, part two: what the traced window of the workload
/// at hand recorded. An in-run metric of a layer the workload bypasses
/// reads 0 — which is why those are shares and counts, not times: 0 is
/// then a measurement, not a gap.
pub const IN_RUN: [(&str, &str); 19] = [
    ("kernel.flops_per_op", "count"),
    ("kernel.gemm_calls_per_op", "count"),
    ("frag.learn.step_share", "share"),
    ("frag.learn.wait_share", "share"),
    ("frag.rollout.busy_share", "share"),
    ("weight_sync.per_op", "count"),
    ("net.wire_bytes_per_op", "bytes"),
    ("net.rpc_calls_per_op", "count"),
    ("net.rpc_share", "share"),
    ("net.reconnects", "count"),
    ("serve.batch_size_mean", "count"),
    ("serve.exec_share", "share"),
    ("serve.wait_share", "share"),
    ("serve.weight_swaps", "count"),
    ("proc.cpu_ms_per_op", "ms"),
    ("proc.vol_ctx_switches_per_op", "count"),
    ("proc.threads_peak", "count"),
    ("obs.trace_overhead_share", "share"),
    ("ladder.coverage", "share"),
];

/// Every per-layer metric, `(name, unit)` in report order.
pub fn per_layer() -> impl Iterator<Item = (&'static str, &'static str)> {
    PROBED.into_iter().chain(IN_RUN)
}

/// The catalogue as lines, for `tests/smoke.rs` to hold `BENCHMARK.json`
/// to: `workload <name> <why>`, `end_to_end <name> <unit> <better>
/// <bound>`, `per_layer <name> <unit>`.
pub fn print_catalogue() {
    for spec in &crate::workloads::SPECS {
        println!("workload {} {}", spec.name, spec.why);
    }
    for m in &END_TO_END {
        let better = if m.higher_is_better { "higher" } else { "lower" };
        println!("end_to_end {} {} {better} {}", m.name, m.unit, m.bound);
    }
    for (name, unit) in per_layer() {
        println!("per_layer {name} {unit}");
    }
}

/// One workload's ladder reading with its residual, flagged when the
/// probed layers explain too little or more than all of an operation.
pub fn ladder_line(workload: &str, coverage: f64) -> String {
    format!(
        "ladder.coverage {workload}: probed layers cover {coverage:.3} of one operation, residual \
         {:.3}{}",
        1.0 - coverage,
        if (0.6..=1.2).contains(&coverage) { "" } else { "  <-- outside 0.6..1.2" }
    )
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(per_layer())
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
        .1
}

/// What one workload run reports.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` in catalogue order
    pub metrics: Vec<(String, f64)>,
}

impl RunResult {
    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("run did not report {name}"))
            .1
    }

    /// The result line: one JSON object, values with all their digits.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{}\"}}", unit_of(n)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Reads back a line written by [`RunResult::json_line`].
    pub fn parse(line: &str) -> Option<RunResult> {
        let field = |key: &str| {
            let rest = &line[line.find(key)? + key.len()..];
            rest[..rest.find([',', '}'])?].trim().parse::<f64>().ok()
        };
        let mut result = RunResult {
            attempted: field("\"attempted\":")? as u64,
            failed: field("\"failed\":")? as u64,
            metrics: Vec::new(),
        };
        let mut rest = &line[line.find("\"metrics\": {")? + "\"metrics\": {".len()..];
        while let Some(open) = rest.find(": {\"value\": ") {
            let name = rest[..open].rsplit('"').nth(1)?;
            let value = &rest[open + ": {\"value\": ".len()..];
            let end = value.find(',')?;
            result.metrics.push((name.to_string(), value[..end].parse().ok()?));
            rest = &value[end..];
        }
        Some(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let r = RunResult {
            attempted: 12,
            failed: 0,
            metrics: vec![("setup_s".into(), 0.008123456789), ("ops_per_s".into(), 712.25)],
        };
        let line = r.json_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0"));
        let back = RunResult::parse(&line).unwrap();
        assert_eq!(back.metrics, r.metrics);
        assert_eq!((back.attempted, back.failed), (12, 0));
    }
}
