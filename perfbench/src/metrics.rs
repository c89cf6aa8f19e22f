//! The metric names the benchmark reports, and the result line.
//!
//! Every workload reports every end-to-end metric (untraced runs) and every
//! per-layer metric (traced runs). A per-layer metric of a layer a workload
//! does not exercise reads 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The experiment ids of the quick suite, in the order it runs them.
pub fn suite_ids() -> Vec<&'static str> {
    let mut ids = ftcam_core::experiments::ALL_IDS.to_vec();
    ids.push("e17");
    ids
}

/// End-to-end metrics: `(name, unit)`. `round_s` is the fastest untraced
/// round of a run: every round repeats identical work, so the differences
/// between rounds are interference from other work on the machine, which
/// only adds time.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("round_s", "s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics that do not depend on the experiment list.
const LAYERS: [(&str, &str); 55] = [
    ("core.exec.jobs", "count"),
    ("core.exec.run_s", "s"),
    ("core.exec.assemble_s", "s"),
    ("array.calibrations", "count"),
    ("array.calibrate_s", "s"),
    ("array.cache_hit_ratio", "ratio"),
    ("circuit.steps_accepted", "count"),
    ("circuit.steps_rejected", "count"),
    ("circuit.newton_iters", "count"),
    ("circuit.factorizations", "count"),
    ("circuit.substitutions", "count"),
    ("circuit.lu_bypass_ratio", "ratio"),
    ("circuit.baseline_reuses", "count"),
    ("circuit.recovery_retries", "count"),
    ("circuit.host_us_per_step", "us"),
    ("circuit.tape_replays", "count"),
    ("circuit.tape_mismatches", "count"),
    ("circuit.dense_demotions", "count"),
    ("cells.build_s", "s"),
    ("cells.search_s", "s"),
    ("cells.write_s", "s"),
    ("cells.search_ms_p50", "ms"),
    ("cells.search_ms_p90", "ms"),
    ("cells.write_ms_p50", "ms"),
    ("cells.write_ms_p90", "ms"),
    ("cells.search_samples", "count"),
    ("cells.write_samples", "count"),
    ("workloads.generate_s", "s"),
    ("engine.build_s", "s"),
    ("engine.pack_s", "s"),
    ("engine.scan_s", "s"),
    ("engine.meter_s", "s"),
    ("engine.merge_s", "s"),
    ("engine.search.pack_s", "s"),
    ("engine.search.scan_s", "s"),
    ("engine.search.merge_s", "s"),
    ("engine.aggregate.pack_s", "s"),
    ("engine.aggregate.scan_s", "s"),
    ("engine.aggregate.meter_s", "s"),
    ("engine.aggregate.merge_s", "s"),
    ("engine.exact.pack_s", "s"),
    ("engine.exact.scan_s", "s"),
    ("engine.exact.meter_s", "s"),
    ("engine.exact.merge_s", "s"),
    ("engine.index_answer_ratio", "ratio"),
    ("engine.search_qps", "1/s"),
    ("engine.aggregate_qps", "1/s"),
    ("engine.exact_qps", "1/s"),
    ("workloads.self_s", "s"),
    ("core.self_s", "s"),
    ("array.self_s", "s"),
    ("cells.self_s", "s"),
    ("engine.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
];

/// Per-layer metrics: `(name, unit)`, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = suite_ids()
        .into_iter()
        .map(|id| (format!("core.experiment.{id}_s"), "s"))
        .collect();
    all.extend(LAYERS.iter().map(|&(n, u)| (n.to_string(), u)));
    all
}

/// The values one run reports, keyed by metric name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
}

impl Metrics {
    /// Records one value, overwriting any earlier one.
    ///
    /// # Panics
    ///
    /// Panics on a name neither list holds (a bug in the benchmark).
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            END_TO_END.iter().any(|&(n, _)| n == name)
                || per_layer().iter().any(|(n, _)| n == name),
            "metric {name} is not listed"
        );
        self.values.insert(name.to_string(), value);
    }

    /// A recorded value, or 0.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Renders the result line for the given metric list; listed names not
    /// recorded read 0.
    pub fn result_line(
        &self,
        listed: &[(String, &'static str)],
        attempted: u64,
        failed: u64,
    ) -> String {
        let mut body = String::new();
        for (i, (name, unit)) in listed.iter().enumerate() {
            let value = self.get(name);
            assert!(value.is_finite(), "metric {name} is not finite");
            let sep = if i == 0 { "" } else { ", " };
            write!(
                body,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{body}}}}}",
            failed == 0
        )
    }
}

/// The end-to-end list in the shape [`Metrics::result_line`] takes.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric name: a letter or digit, then at most 63 of `[A-Za-z0-9_.-]`.
    fn is_valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_use_only_the_allowed_characters() {
        let all: Vec<String> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|(n, _)| n)
            .collect();
        for name in &all {
            assert!(is_valid_name(name), "bad metric name {name}");
        }
        let mut unique = all.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), all.len(), "metric names repeat");
        assert!(!is_valid_name("core.experiment.fig2 s"));
        assert!(!is_valid_name(".leading_dot"));
        assert!(!is_valid_name("per/second"));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (name, unit) in end_to_end().into_iter().chain(per_layer()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + per_layer().len());
    }

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let mut m = Metrics::default();
        m.set("round_s", 1.25);
        let line = m.result_line(&end_to_end(), 3, 0);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"round_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
    }
}
