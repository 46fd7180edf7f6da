//! Metric names, units and the result line.
//!
//! The two tables below are the benchmark's contract with
//! `BENCHMARK.json`: an untraced run reports exactly [`END_TO_END`], a
//! traced run exactly [`PER_LAYER`]. A layer a workload does not exercise
//! reports 0 (no calls, no time).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("sessions_per_s", "1/s"),
    ("request_ms_p50", "ms"),
    ("request_ms_p90", "ms"),
    ("ok_ratio", "ratio"),
    ("best_ms_geomean", "virtual_ms"),
    ("peak_rss_mb", "MB"),
    ("poll_ms_p50", "ms"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 58] = [
    // cstuner-core, through the stage replay.
    ("core.dataset.ms", "ms"),
    ("core.dataset.records", "count"),
    ("core.grouping.ms", "ms"),
    ("core.sampling.ms", "ms"),
    ("core.sampling.scored", "count"),
    ("core.sampling.kept_ratio", "ratio"),
    ("core.search.ms", "ms"),
    ("core.search.evals", "count"),
    ("core.session.other_ms", "ms"),
    // cst-codegen.
    ("codegen.ms", "ms"),
    ("codegen.kernels", "count"),
    ("codegen.bytes", "bytes"),
    // Evaluator trait and cst-gpu-sim, through the forwarding wrapper.
    ("eval.evaluate.calls", "count"),
    ("eval.evaluate.ms", "ms"),
    ("eval.evaluate_batch.calls", "count"),
    ("eval.evaluate_batch.ms", "ms"),
    ("eval.random_valid.calls", "count"),
    ("eval.random_valid.ms", "ms"),
    ("eval.is_valid.calls", "count"),
    ("eval.is_valid.ms", "ms"),
    ("eval.profile_offline.calls", "count"),
    ("eval.profile_offline.ms", "ms"),
    ("eval.batch.settings", "count"),
    ("eval.unique_ratio", "ratio"),
    ("eval.share", "ratio"),
    ("gpu-sim.memo.hit_ratio", "ratio"),
    ("gpu-sim.shared_memo.hit_ratio", "ratio"),
    ("gpu-sim.shared_memo.entries", "count"),
    // cst-baselines: median session wall time per tuner.
    ("baselines.garvey.ms", "ms"),
    ("baselines.opentuner.ms", "ms"),
    ("baselines.artemis.ms", "ms"),
    ("baselines.random.ms", "ms"),
    ("baselines.grid.ms", "ms"),
    ("baselines.anneal.ms", "ms"),
    ("baselines.forest.ms", "ms"),
    // cst-transfer and cst-ml.
    ("transfer.kb.records", "count"),
    ("transfer.kb.bytes", "bytes"),
    ("transfer.kb_load.ms", "ms"),
    ("transfer.warm_seeds.ms", "ms"),
    // cst-telemetry and cst-obs.
    ("telemetry.json.parse_us_per_line", "us"),
    ("telemetry.json.lines_per_session", "count"),
    ("obs.ingest.ms", "ms"),
    ("obs.summarize.ms", "ms"),
    // cst-serve, from the client side of the wire.
    ("serve.admit_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.stream_ms", "ms"),
    ("serve.frames_per_session", "count"),
    ("serve.bytes_per_session", "bytes"),
    ("serve.busy", "count"),
    ("serve.status_ms", "ms"),
    ("serve.metrics_ms", "ms"),
    // cst-campaign.
    ("campaign.run.ms", "ms"),
    ("campaign.cells", "count"),
    ("campaign.resume.ms", "ms"),
    ("campaign.report.ms", "ms"),
    ("campaign.gate.ms", "ms"),
    // Diagnostics.
    ("host.spin_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// Whether a metric name is made only of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The result of one run: the last line the benchmark prints.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Request units attempted.
    pub attempted: u64,
    /// Request units that failed an output check.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Record one metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line for `table`, which must name exactly the metrics
    /// recorded. Panics on a missing, extra or non-finite metric: that
    /// is a bug in this benchmark, and it must not print a result.
    pub fn to_json(&self, table: &[(&'static str, &'static str)]) -> String {
        let extra: Vec<&str> =
            self.values.keys().filter(|k| !table.iter().any(|(n, _)| n == *k)).copied().collect();
        assert!(extra.is_empty(), "metrics outside the reported table: {extra:?}");
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in table.iter().enumerate() {
            let v =
                *self.values.get(name).unwrap_or_else(|| panic!("metric `{name}` not measured"));
            assert!(v.is_finite(), "metric `{name}` is not finite: {v}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
        }
        s.push_str("}}");
        s
    }
}
