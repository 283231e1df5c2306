//! # prim-bench
//!
//! Benchmark harness regenerating every table and figure of the PRIM paper
//! (see DESIGN.md §4 for the experiment index). Each `harness = false`
//! bench target trains the relevant models at the configured scale
//! (`PRIM_BENCH_SCALE=quick|full`, default quick) and prints aligned tables
//! interleaving the paper's reported numbers with the measured ones.
//!
//! Absolute values differ from the paper — the substrate is a synthetic
//! city and a scaled-down CPU training stack — but each harness asserts the
//! qualitative *shape* the paper claims (who wins, orderings, linear
//! scaling, robustness gaps).

pub mod loadgen;

use prim_baselines::{run_method, Method, MethodRun, RunConfig};
use prim_data::{Dataset, Scale};
use prim_eval::{F1Pair, Table, Task};

/// The paper's Table 2 Macro-F1 numbers for Beijing at 40% training, used
/// by harnesses to print paper-vs-measured side by side.
pub const PAPER_T2_BJ_MACRO_40: &[(&str, f64)] = &[
    ("CAT", 0.464),
    ("CAT-D", 0.519),
    ("Deepwalk", 0.638),
    ("node2vec", 0.640),
    ("GCN", 0.707),
    ("GAT", 0.724),
    ("HAN", 0.782),
    ("HGT", 0.779),
    ("R-GCN", 0.789),
    ("CompGCN", 0.794),
    ("DecGCN", 0.757),
    ("DeepR", 0.783),
    ("PRIM", 0.845),
];

/// Paper Macro-F1 for PRIM on (dataset, train%) in Table 2.
pub fn paper_prim_macro(dataset: &str, frac: usize) -> f64 {
    match (dataset, frac) {
        ("Beijing", 40) => 0.845,
        ("Beijing", 50) => 0.870,
        ("Beijing", 60) => 0.882,
        ("Beijing", 70) => 0.895,
        ("Shanghai", 40) => 0.822,
        ("Shanghai", 50) => 0.844,
        ("Shanghai", 60) => 0.861,
        ("Shanghai", 70) => 0.875,
        _ => f64::NAN,
    }
}

/// Paper Macro-F1 per method for Beijing 40% (Table 2) by method name.
pub fn paper_t2_macro(method: &str) -> f64 {
    PAPER_T2_BJ_MACRO_40
        .iter()
        .find(|(m, _)| *m == method)
        .map(|&(_, v)| v)
        .unwrap_or(f64::NAN)
}

/// Resolved benchmark scale plus derived knobs.
pub struct BenchScale {
    /// quick/full.
    pub scale: Scale,
    /// Train fractions to sweep (paper: 40–70%).
    pub fracs: Vec<f64>,
    /// Run configuration (model sizes, epochs).
    pub config: RunConfig,
}

impl BenchScale {
    /// Reads `PRIM_BENCH_SCALE` and builds the matching configuration.
    pub fn from_env() -> Self {
        let scale = Scale::from_env();
        let config = match scale {
            Scale::Quick => RunConfig::quick(),
            Scale::Full => RunConfig::paper(),
        };
        BenchScale {
            scale,
            fracs: vec![0.4, 0.5, 0.6, 0.7],
            config,
        }
    }

    /// Operating point for the robustness analyses that the paper reports
    /// at a single training fraction.
    pub fn single_frac(&self) -> f64 {
        0.6
    }
}

/// One scored run.
pub struct ScoredRun {
    /// Method display name.
    pub method: String,
    /// Macro/Micro F1.
    pub f1: F1Pair,
    /// Training seconds.
    pub train_seconds: f64,
}

/// Runs a method on a task and scores it. When `PRIM_RUN_REPORT` is set
/// (every bench sets it via [`ensure_run_report`]), the scoring also appends
/// an eval record — split label, timing, per-class confusion summary — to
/// the run report.
pub fn score_method(method: Method, dataset: &Dataset, task: &Task, cfg: &RunConfig) -> ScoredRun {
    let run: MethodRun = run_method(method, dataset, task, cfg);
    let name = method.name();
    let recorder = prim_obs::Recorder::from_env(&format!("bench/{name}"));
    let f1 = task.score_observed(&name, &run.predictions, &recorder);
    recorder.finish();
    ScoredRun {
        method: name,
        f1,
        train_seconds: run.train_seconds,
    }
}

/// Prints a table and flushes stdout (so `cargo bench | tee` captures
/// progressive output).
pub fn emit(table: &Table) {
    println!("{}", table.render());
    use std::io::Write;
    let _ = std::io::stdout().flush();
}

/// Asserts `winner + slack >= loser` with a readable message; used for the
/// shape checks each harness performs (slack absorbs quick-scale noise).
pub fn assert_shape(description: &str, winner: f64, loser: f64, slack: f64) {
    assert!(
        winner + slack >= loser,
        "shape violation: {description}: {winner:.3} vs {loser:.3}"
    );
    if winner < loser {
        eprintln!("note: {description} holds only within slack ({winner:.3} vs {loser:.3})");
    }
}

/// Nearest-rank percentile of an ascending slice at `p` in `[0, 1]`;
/// 0.0 for an empty slice (a load point where nothing completed).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Machine-readable benchmark records.
///
/// Each bench persists its measurements to a JSON file (its own
/// `BENCH_*.json` at the workspace root by default, overridable with
/// `PRIM_BENCH_JSON=<path>`) so before/after numbers can be checked in and
/// diffed across commits. A file is one top-level object with one
/// single-line section per bench; [`json::update_section`] rewrites a
/// section in place and leaves the others untouched, so the benches can run
/// independently and in any order.
///
/// The writer/reader themselves now live in [`prim_obs::json`] (the
/// telemetry run reports share the same serialisation path); this module
/// re-exports them and keeps only the bench-specific path resolution.
pub mod json {
    pub use prim_obs::json::*;
    use std::path::{Path, PathBuf};

    /// Resolves a bench's record path: `PRIM_BENCH_JSON` when set, so a
    /// run that checks a change leaves the committed record alone, or else
    /// `default_name` (e.g. `BENCH_kernels.json`) at the workspace root
    /// (benches run with the package dir as cwd, so the default is
    /// anchored to this crate's manifest dir at compile time).
    pub fn bench_json_path(default_name: &str) -> PathBuf {
        if let Ok(p) = std::env::var("PRIM_BENCH_JSON") {
            return PathBuf::from(p);
        }
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(default_name)
    }
}

/// Default run-report path when a bench runs without `PRIM_RUN_REPORT`:
/// `RUN_report.jsonl` at the workspace root (gitignored).
pub fn default_run_report_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../RUN_report.jsonl")
}

/// Ensures every training run inside this bench process emits telemetry:
///
/// * defaults `PRIM_RUN_REPORT` to [`default_run_report_path`] when unset,
/// * defaults `PRIM_GUARD_EVERY` to `1` when unset (benches should fail
///   loudly on NaN/Inf, they are the canary runs),
/// * appends a schema-tagged `bench_start` marker line naming the bench.
///
/// Call it first thing in a bench `main`. Explicit environment settings
/// always win over the defaults.
pub fn ensure_run_report(bench: &str) -> prim_obs::JsonSink {
    if std::env::var_os(prim_obs::RUN_REPORT_ENV).is_none() {
        std::env::set_var(prim_obs::RUN_REPORT_ENV, default_run_report_path());
    }
    if std::env::var_os(prim_obs::GUARD_ENV).is_none() {
        std::env::set_var(prim_obs::GUARD_ENV, "1");
    }
    let sink = prim_obs::JsonSink::from_env().expect("PRIM_RUN_REPORT was just defaulted");
    sink.append_line(&json::obj(&[
        ("schema", json::str(prim_obs::SCHEMA)),
        ("kind", json::str("bench_start")),
        ("bench", json::str(bench)),
        ("scale", json::str(&format!("{:?}", Scale::from_env()))),
    ]));
    sink
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh scratch directory, removed with everything in it when
    /// dropped — also when a failing assertion unwinds past it.
    struct Scratch(std::path::PathBuf);

    impl Scratch {
        fn new(name: &str) -> Scratch {
            let dir =
                std::env::temp_dir().join(format!("prim-bench-{name}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn json_sections_round_trip() {
        let scratch = Scratch::new("json");
        let path = scratch.0.join("bench.json");

        let a = json::obj(&[("ms", json::num(1.5)), ("name", json::str("matmul"))]);
        json::update_section(&path, "micro_kernels", &a);
        let b = json::obj(&[("per_query_ms", json::num(0.61))]);
        json::update_section(&path, "pred_latency", &b);
        // Overwrite the first section; the second must survive.
        let a2 = json::obj(&[("ms", json::num(2.0))]);
        json::update_section(&path, "micro_kernels", &a2);

        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.contains("\"micro_kernels\": {\"ms\": 2.000000}"),
            "{text}"
        );
        assert!(
            text.contains("\"pred_latency\": {\"per_query_ms\": 0.610000}"),
            "{text}"
        );
        assert!(text.starts_with("{\n") && text.ends_with("}\n"), "{text}");
    }

    #[test]
    fn paper_constants_lookup() {
        assert_eq!(paper_t2_macro("PRIM"), 0.845);
        assert!(paper_t2_macro("nope").is_nan());
        assert_eq!(paper_prim_macro("Beijing", 70), 0.895);
        assert!(paper_prim_macro("Beijing", 99).is_nan());
    }

    #[test]
    fn bench_scale_defaults() {
        let b = BenchScale::from_env();
        assert_eq!(b.fracs.len(), 4);
        assert!(b.single_frac() > 0.0);
    }

    #[test]
    #[should_panic(expected = "shape violation")]
    fn assert_shape_catches_violations() {
        assert_shape("x beats y", 0.1, 0.9, 0.05);
    }
}
