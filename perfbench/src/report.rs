//! The metric catalogue and the machine-readable result line.

use std::collections::BTreeMap;

use calibro::CacheStats;

use crate::layers::Counts;
use crate::oracle::CodeMetrics;
use crate::stats::{median, tail_quantile};

/// End-to-end metrics (untraced runs): name and unit. Must match
/// `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("build_ms_p50", "ms"),
    ("build_ms_p90", "ms"),
    ("builds_per_s", "1/s"),
    ("success_ratio", "ratio"),
    ("text_bytes", "bytes"),
    ("trace_cycles", "cycles"),
    ("resident_kb", "KiB"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced runs): name and unit. Must match
/// `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("calibro-server.dex_encode_ms", "ms"),
    ("calibro-server.dex_decode_ms", "ms"),
    ("calibro-server.request_encode_ms", "ms"),
    ("calibro-server.round_trip_ms", "ms"),
    ("calibro-server.reply_decode_ms", "ms"),
    ("calibro-server.overhead_ms_p50", "ms"),
    ("calibro-server.daemon_build_ms_p50", "ms"),
    ("calibro.frontend_ms", "ms"),
    ("calibro.codegen_ms", "ms"),
    ("calibro.outline_ms", "ms"),
    ("calibro-oat.link_ms", "ms"),
    ("calibro-oat.elf_encode_ms", "ms"),
    ("calibro-oat.elf_decode_ms", "ms"),
    ("calibro.other_ms", "ms"),
    ("calibro-cache.hit_ratio", "ratio"),
    ("calibro-cache.group_hit_ratio", "ratio"),
    ("calibro-cache.stores", "count/build"),
    ("calibro-cache.evictions", "count/build"),
    ("calibro-cache.lock_contention", "count/build"),
    ("calibro-suffix.groups_redetected", "count/build"),
    ("calibro.methods_compiled", "count/build"),
    ("calibro-hgraph.insns_in", "count/build"),
    ("calibro-hgraph.insns_out", "count/build"),
    ("calibro.outlined_functions", "count/build"),
    ("calibro.words_saved", "count/build"),
    ("calibro.merged_methods", "count/build"),
    ("calibro-runtime.icache_misses", "count"),
    ("calibro-profile.hot_methods", "count"),
    ("trace.overhead_ms_p50", "ms"),
    ("trace.span_trees", "count"),
];

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// Builds attempted.
    pub attempted: u64,
    /// One line per failed build or failed output check.
    pub failures: Vec<String>,
    /// Measured values by metric name, each with its sample count.
    pub values: BTreeMap<&'static str, (f64, usize)>,
}

impl Outcome {
    /// Records `value` for `name` over `samples` samples.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, (value, samples));
    }

    /// Records a failure.
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    /// `build_ms_p50` and `build_ms_p90` over the completed builds. The
    /// p90 is withheld — and the run fails — unless ten samples lie
    /// beyond it.
    pub fn latencies(&mut self, latencies: &[f64]) {
        self.set("build_ms_p50", median(latencies), latencies.len());
        match tail_quantile(latencies, 0.9) {
            Some(p90) => self.set("build_ms_p90", p90, latencies.len()),
            None => self.fail(format!("{} builds are too few for build_ms_p90", latencies.len())),
        }
    }

    /// The emitted-code observables summed over a verification set.
    pub fn code(&mut self, total: &CodeMetrics, artifacts: usize) {
        self.set("text_bytes", total.text_bytes as f64, artifacts);
        self.set("trace_cycles", total.cycles as f64, artifacts);
        self.set("resident_kb", total.resident_bytes as f64 / 1024.0, artifacts);
    }

    /// Work counts per build.
    pub fn counts(&mut self, c: &Counts, builds: usize) {
        let per = |v: f64| v / builds.max(1) as f64;
        self.set("calibro.methods_compiled", per(c.methods_compiled as f64), builds);
        self.set("calibro-hgraph.insns_in", per(c.insns_in as f64), builds);
        self.set("calibro-hgraph.insns_out", per(c.insns_out as f64), builds);
        self.set("calibro.outlined_functions", per(c.outlined_functions as f64), builds);
        self.set("calibro.words_saved", per(c.words_saved as f64), builds);
        self.set("calibro.merged_methods", per(c.merged_methods as f64), builds);
    }

    /// Store activity over `builds` builds.
    pub fn cache(&mut self, c: &CacheTotals, builds: usize) {
        let per = |v: u64| v as f64 / builds.max(1) as f64;
        let ratio = |part: u64, miss: u64| {
            if part + miss == 0 {
                0.0
            } else {
                part as f64 / (part + miss) as f64
            }
        };
        self.set("calibro-cache.hit_ratio", ratio(c.hits, c.misses), builds);
        self.set("calibro-cache.group_hit_ratio", ratio(c.group_hits, c.group_misses), builds);
        self.set("calibro-cache.stores", per(c.stores), builds);
        self.set("calibro-cache.evictions", per(c.evictions), builds);
        self.set("calibro-cache.lock_contention", per(c.lock_contention), builds);
        self.set("calibro-suffix.groups_redetected", per(c.group_misses), builds);
    }
}

/// Store activity summed over builds; stores, evictions and lock
/// contention cover the method, group-plan and merge-plan lanes.
#[derive(Clone, Copy, Default)]
pub struct CacheTotals {
    hits: u64,
    misses: u64,
    group_hits: u64,
    group_misses: u64,
    stores: u64,
    evictions: u64,
    lock_contention: u64,
}

impl From<&CacheStats> for CacheTotals {
    fn from(s: &CacheStats) -> CacheTotals {
        CacheTotals {
            hits: s.hits,
            misses: s.misses,
            group_hits: s.group_hits,
            group_misses: s.group_misses,
            stores: s.stores + s.group_stores + s.merge_stores,
            evictions: s.evictions + s.group_evictions + s.merge_evictions,
            lock_contention: s.lock_contention + s.group_lock_contention + s.merge_lock_contention,
        }
    }
}

impl std::ops::AddAssign for CacheTotals {
    fn add_assign(&mut self, o: CacheTotals) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.group_hits += o.group_hits;
        self.group_misses += o.group_misses;
        self.stores += o.stores;
        self.evictions += o.evictions;
        self.lock_contention += o.lock_contention;
    }
}

/// Prints every metric of `catalogue` with unit and sample count, then
/// the result line. A metric the workload did not produce, or one that
/// is not a finite number, is a failure of the run.
#[must_use]
pub fn render(outcome: &mut Outcome, catalogue: &[(&'static str, &'static str)]) -> String {
    let mut metrics = Vec::new();
    for &(name, unit) in catalogue {
        let (value, samples) = match outcome.values.get(name) {
            Some(&(v, n)) if v.is_finite() => (v, n),
            _ => {
                outcome.fail(format!("metric {name} was not measured"));
                (0.0, 0)
            }
        };
        println!("  {name:<36} {value:>16.4} {unit:<12} n={samples}");
        metrics.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    let failed = outcome.failures.len() as u64;
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        outcome.attempted.max(1),
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit").to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let doc = benchmark_json();
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter().map(|&(n, u)| (n.to_owned(), u.to_owned())).collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn result_line_parses_and_names_every_metric() {
        for catalogue in [&END_TO_END[..], &PER_LAYER[..]] {
            let mut outcome = Outcome { attempted: 3, ..Outcome::default() };
            for (i, &(name, _)) in catalogue.iter().enumerate() {
                outcome.set(name, 0.25 + i as f64, 1);
            }
            let line = parse(&render(&mut outcome, catalogue)).expect("result line is JSON");
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(line.get("attempted"), Some(&Json::Num(3.0)));
            assert_eq!(line.get("failed"), Some(&Json::Num(0.0)));
            let metrics = line.get("metrics").expect("metrics");
            for &(name, unit) in catalogue {
                let m = metrics.get(name).unwrap_or_else(|| panic!("{name} missing"));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
                assert!(matches!(m.get("value"), Some(Json::Num(_))));
            }
        }
    }

    #[test]
    fn a_missing_metric_fails_the_run() {
        let mut outcome = Outcome { attempted: 1, ..Outcome::default() };
        let line = parse(&render(&mut outcome, &END_TO_END)).expect("still JSON");
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(line.get("failed"), Some(&Json::Num(END_TO_END.len() as f64)));
    }
}
