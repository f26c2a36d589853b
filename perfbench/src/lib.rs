//! End-to-end benchmark of the MCML reproduction.
//!
//! `perfbench --workload W --seed N --seconds S --trace 0|1` runs one named
//! workload (see [`workload::Workload`]) through the public APIs of
//! `mcml::framework::Runner` and the `mcml-serve` binary, checks every
//! output, and prints its metrics by name with their units; the last stdout
//! line is one JSON object. `--trace 0` measures the end-to-end metrics
//! with nothing traced; `--trace 1` is a separate run that times calls
//! into each layer's public functions and reports the per-layer metrics.
//! `perfbench/README.md` lists which end-to-end metric each per-layer
//! metric should move, on which workload.

pub mod batch;
pub mod check;
pub mod replica;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod workload;

use stats::Metrics;
use std::path::PathBuf;
use workload::{Size, Workload};

/// The end-to-end metrics every `--trace 0` run prints, with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("req_per_s", "1/s"),
];

/// The per-layer metrics every `--trace 1` run prints, with their units.
/// A layer a workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("ddnnf.busy_s", "s"),
    ("ddnnf.decisions", "count"),
    ("ddnnf.circuits", "count"),
    ("ddnnf.runner_compiles", "count"),
    ("ddnnf.component_hit_ratio", "ratio"),
    ("ddnnf.shared_hit_ratio", "ratio"),
    ("encode.busy_s", "s"),
    ("encode.cubes", "count"),
    ("encode.too_large", "count"),
    ("counter.sweep_s", "s"),
    ("counter.memo_hit_ratio", "ratio"),
    ("counter.memo_entries", "count"),
    ("datagen.busy_s", "s"),
    ("relspec.busy_s", "s"),
    ("relspec.clauses", "count"),
    ("mlkit.busy_s", "s"),
    ("classic.encode_s", "s"),
    ("modelcount.busy_s", "s"),
    ("modelcount.counts", "count"),
    ("framework.cells", "count"),
    ("framework.uncounted", "count"),
    ("framework.parallel_eff", "ratio"),
    ("serve.requests", "count"),
    ("serve.queries", "count"),
    ("serve.server_p50_ms", "ms"),
    ("serve.server_p99_ms", "ms"),
    ("serve.wire_p50_ms", "ms"),
    ("serve.accuracy_p50_ms", "ms"),
    ("serve.accuracy_p99_ms", "ms"),
    ("serve.count_p50_ms", "ms"),
    ("serve.count_p99_ms", "ms"),
    ("serve.diff_p50_ms", "ms"),
    ("serve.diff_p99_ms", "ms"),
    ("serve.reload_p50_ms", "ms"),
    ("serve.reload_p99_ms", "ms"),
    ("artifact.bytes", "B"),
    ("artifact.build_s", "s"),
    ("store.load_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead", "ratio"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
];

/// The arguments of one benchmark run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Which workload.
    pub workload: Workload,
    /// Study scopes or the scope-3 smoke size.
    pub size: Size,
    /// The workload seed.
    pub seed: u64,
    /// How long the untraced run repeats its measured unit.
    pub seconds: f64,
}

/// What one run measured and checked.
#[derive(Debug)]
pub struct RunReport {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted: cells, or requests for `serve-mix`.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Measured metrics.
    pub metrics: Metrics,
    /// Human-readable check results and sample counts.
    pub notes: Vec<String>,
}

/// Runs one workload, traced or not, and returns its metrics in the order
/// `BENCHMARK.json` lists them (a per-layer metric the workload never
/// reaches reads 0).
pub fn run(args: &RunArgs, traced: bool) -> std::io::Result<RunReport> {
    // Every run makes sure the server binary exists, so whichever workload
    // runs first in a fresh checkout pays the build, outside any timing.
    serve::server_binary()?;
    let mut report = match (args.workload, traced) {
        (Workload::ServeMix, false) => serve::run_untraced(args)?,
        (Workload::ServeMix, true) => serve::run_traced(args)?,
        (_, false) => batch::run_untraced(args)?,
        (_, true) => batch::run_traced(args)?,
    };
    let list: &[(&'static str, &'static str)] = if traced { &PER_LAYER } else { &END_TO_END };
    let mut ordered = Metrics::default();
    for &(name, unit) in list {
        let value = report.metrics.get(name);
        assert!(
            value.is_some() || traced,
            "end-to-end metric {name} was not measured"
        );
        ordered.put(name, value.unwrap_or(0.0), unit);
    }
    for m in &report.metrics.0 {
        assert!(
            list.iter().any(|(name, _)| *name == m.name),
            "metric {} is not declared",
            m.name
        );
    }
    report.metrics = ordered;
    Ok(report)
}

/// The repository checkout the benchmark was built in.
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// Where runs leave artifacts and traces (ignored by git).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `VmHWM` (peak resident set) in kB from `/proc/<pid>/status`; `pid` may
/// be `self`.
pub fn vm_hwm_kb(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the code name the same metrics.
    #[test]
    fn benchmark_json_declares_every_metric() {
        let spec = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        let names = |section: &str| -> Vec<String> {
            let start = spec
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &spec[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("name closes")].to_string())
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layers: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names("end_to_end"), e2e);
        assert_eq!(names("per_layer"), layers);
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names("workloads"), workloads);
    }

    #[test]
    fn reads_own_peak_rss() {
        assert!(vm_hwm_kb("self").is_some_and(|kb| kb > 0));
    }
}
