//! The metric registry: every name the command can print, with its unit.
//!
//! Every workload prints every end-to-end metric (untraced run) or every
//! per-layer metric (traced run). A per-layer metric of a layer the
//! workload bypasses reads 0; an end-to-end metric never does.

use std::collections::BTreeMap;

use serde_json::Value;

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
];

/// The suite's benchmark names, in suite order; the per-benchmark rows
/// of paper-suite are named after them.
pub const BENCHMARKS: &[&str] = &[
    "Bitonic",
    "BitonicRec",
    "DCT",
    "DES",
    "FFT",
    "Filterbank",
    "FMRadio",
    "MatrixMult",
];

/// Per-benchmark row fields of paper-suite: `(suffix, unit)`.
pub const BENCHMARK_ROW: &[(&str, &str)] = &[
    ("swp8_x", "x"),
    ("swpnc_x", "x"),
    ("serial_x", "x"),
    ("winstr_per_s", "1/s"),
    ("buffer_bytes", "B"),
];

/// Per-layer metrics of the traced run, other than the per-benchmark
/// rows: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Every workload.
    ("failed_share", "share"),
    ("trace.wall_untraced_s", "s"),
    ("trace.wall_traced_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    // compile-sweep.
    ("compile_p50_ms", "ms"),
    ("compile_tail_ms", "ms"),
    ("compile_tail_pct", "%"),
    ("compile_n", "count"),
    ("profile.busy_s", "s"),
    ("profile.calls", "count"),
    ("config.busy_s", "s"),
    ("instances.busy_s", "s"),
    ("instances.count", "count"),
    ("schedule.busy_s", "s"),
    ("schedule.searches", "count"),
    ("schedule.ii_sum", "units"),
    ("codegen.busy_s", "s"),
    ("codegen.event_edges", "count"),
    ("plan.busy_s", "s"),
    ("verify.deps_s", "s"),
    ("verify.events_s", "s"),
    ("verify.bounds_s", "s"),
    ("verify.isolate_s", "s"),
    ("verify.errors", "count"),
    ("pipeline.compile_s", "s"),
    ("pipeline.ladder_self_s", "s"),
    ("cache.miss_p50_ms", "ms"),
    ("cache.hit_p50_us", "us"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    // paper-suite.
    ("fig10_swp8_x", "x"),
    ("fig10_swpnc_x", "x"),
    ("fig10_serial_x", "x"),
    ("buffer_bytes", "B"),
    ("sim_winstr_per_s", "1/s"),
    ("harness.busy_s", "s"),
    ("harness.paper_ratio.swp8", "x"),
    ("harness.paper_ratio.swpnc", "x"),
    ("harness.paper_ratio.serial", "x"),
    ("exec.compile_s", "s"),
    ("exec.measure_swp8_s", "s"),
    ("exec.measure_swpnc_s", "s"),
    ("exec.measure_serial_s", "s"),
    ("exec.execute_s", "s"),
    ("verify.verify_s", "s"),
    ("verify.coalesce_s", "s"),
    ("gpusim.winstr", "count"),
    ("gpusim.launches", "count"),
    ("gpusim.mem_transactions", "count"),
    ("gpusim.transactions_per_access", "ratio"),
    // fleet-storm.
    ("jobs_per_s", "1/s"),
    ("latency_p50_vs", "vs"),
    ("latency_tail_vs", "vs"),
    ("latency_tail_pct", "%"),
    ("latency_n", "count"),
    ("throughput_tok_per_vs", "tok/vs"),
    ("fleet.run_s", "s"),
    ("fleet.winstr_per_s", "1/s"),
    ("fleet.router_decisions", "count"),
    ("fleet.failovers", "count"),
    ("fleet.hedges", "count"),
    ("fleet.hedge_wins", "count"),
    ("store.local_hits", "count"),
    ("store.remote_hits", "count"),
    ("store.misses", "count"),
    ("store.read_repairs", "count"),
    ("gpusim.graph_replays", "count"),
    ("gpusim.launch_path_cycles", "cycles"),
    ("gpusim.fault_overhead_cycles", "cycles"),
    ("gpusim.failover_cycles", "cycles"),
];

/// Every per-layer metric, the per-benchmark rows included.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for bench in BENCHMARKS {
        for (suffix, unit) in BENCHMARK_ROW {
            all.push((format!("{bench}.{suffix}"), unit));
        }
    }
    all
}

/// Every end-to-end metric, in registry order.
#[must_use]
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect()
}

/// Whether `name` is a well-formed metric name: `[A-Za-z0-9_.-]+`,
/// starting with a letter or digit, at most 64 characters.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// What one run measured, before it is printed.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    /// Operations attempted (compiles, benchmark rows, jobs).
    pub attempted: u64,
    /// Attempted operations that failed, were rejected, were lost, or
    /// produced output that did not match its reference.
    pub failed: u64,
}

impl Report {
    /// Records `value` under `name`, which must be registered.
    ///
    /// # Panics
    ///
    /// Panics on a malformed, unregistered or repeated name: each is a bug in the
    /// benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(valid_name(name), "metric name {name} is malformed");
        assert!(
            END_TO_END.iter().any(|(n, _)| *n == name)
                || per_layer().iter().any(|(n, _)| n == name),
            "metric {name} is not registered"
        );
        assert!(
            self.values.insert(name.to_string(), value).is_none(),
            "metric {name} set twice"
        );
    }

    /// Counts `attempted` operations, `failed` of which failed.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// The recorded value of `name`, if any.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The metrics this run prints: every end-to-end metric for an
    /// untraced run, every per-layer metric (0 where unset) for a traced
    /// one, each as `(name, unit, value)`.
    ///
    /// # Panics
    ///
    /// Panics when an untraced run left an end-to-end metric unset.
    #[must_use]
    pub fn printed(&self, traced: bool) -> Vec<(String, &'static str, f64)> {
        if traced {
            per_layer()
                .into_iter()
                .map(|(n, u)| {
                    let v = self.get(&n).unwrap_or(0.0);
                    (n, u, v)
                })
                .collect()
        } else {
            end_to_end()
                .into_iter()
                .map(|(n, u)| {
                    let v = self
                        .get(&n)
                        .unwrap_or_else(|| panic!("end-to-end metric {n} was not measured"));
                    (n, u, v)
                })
                .collect()
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    #[must_use]
    pub fn json(&self, traced: bool) -> String {
        let metrics = self
            .printed(traced)
            .into_iter()
            .map(|(n, u, v)| {
                (
                    n,
                    Value::Object(vec![
                        ("value".into(), Value::Num(v)),
                        ("unit".into(), Value::Str(u.into())),
                    ]),
                )
            })
            .collect();
        serde_json::to_string(&Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("metrics".into(), Value::Object(metrics)),
        ]))
    }

    /// Whether every attempted operation succeeded.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in(list: &Value) -> Vec<String> {
        list.as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("metric name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn every_name_is_well_formed_and_unique() {
        let mut all: Vec<String> = end_to_end().into_iter().map(|(n, _)| n).collect();
        all.extend(per_layer().into_iter().map(|(n, _)| n));
        for n in &all {
            assert!(valid_name(n), "bad metric name {n}");
        }
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "a metric name is used twice");
        assert!(per_layer().len() <= 128);
        assert!(END_TO_END.len() <= 16);
    }

    #[test]
    fn name_rule_rejects_bad_names() {
        assert!(valid_name("DES.swp8_x"));
        assert!(valid_name("cache.hit_p50_us"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("rate/s"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn benchmark_rows_follow_the_suite() {
        let names: Vec<&str> = streambench::suite().iter().map(|b| b.name).collect();
        assert_eq!(names, BENCHMARKS);
    }

    #[test]
    fn benchmark_json_names_match_what_the_command_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = serde_json::from_str(&text).expect("BENCHMARK.json parses");

        let e2e = doc.get("end_to_end").expect("end_to_end list");
        assert_eq!(
            names_in(e2e),
            END_TO_END
                .iter()
                .map(|(n, _)| n.to_string())
                .collect::<Vec<_>>()
        );
        for (m, (_, unit)) in e2e.as_array().unwrap_or(&[]).iter().zip(END_TO_END) {
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(*unit));
        }

        let layer = doc.get("per_layer").expect("per_layer list");
        let registered = per_layer();
        assert_eq!(
            names_in(layer),
            registered
                .iter()
                .map(|(n, _)| n.clone())
                .collect::<Vec<_>>()
        );
        for (m, (_, unit)) in layer.as_array().unwrap_or(&[]).iter().zip(&registered) {
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(*unit));
        }

        let workloads: Vec<String> = names_in(doc.get("workloads").expect("workload list"));
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn printed_sets_match_the_registry() {
        let mut r = Report::default();
        for (n, _) in END_TO_END {
            r.set(n, 1.0);
        }
        r.set("cache.hits", 80.0);
        r.count(80, 0);
        let e2e: Vec<String> = r.printed(false).into_iter().map(|(n, _, _)| n).collect();
        assert_eq!(e2e.len(), END_TO_END.len());
        let layer = r.printed(true);
        assert_eq!(layer.len(), per_layer().len());
        assert!(layer
            .iter()
            .any(|(n, _, v)| n == "cache.hits" && *v == 80.0));
        let line = serde_json::from_str(&r.json(false)).expect("result line parses");
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(line.get("attempted").and_then(Value::as_u64), Some(80));
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unregistered_names_are_rejected() {
        Report::default().set("made.up", 1.0);
    }
}
