//! Append-only JSON event sink.
//!
//! Run reports are JSON Lines: every completed run (and every bench start
//! marker) appends exactly one self-contained object, written with a single
//! `write_all` on a file opened in append mode so concurrent test processes
//! sharing one `PRIM_RUN_REPORT` path do not interleave records. The file is
//! never rewritten — history across runs and commits accumulates and each
//! line carries its own schema tag ([`crate::SCHEMA`]).

use crate::json::{self, Value};
use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Environment variable naming the run-report path.
pub const RUN_REPORT_ENV: &str = "PRIM_RUN_REPORT";

/// An append-only JSONL sink.
#[derive(Clone, Debug)]
pub struct JsonSink {
    path: PathBuf,
}

impl JsonSink {
    /// A sink writing to `path`.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        JsonSink { path: path.into() }
    }

    /// The sink named by `PRIM_RUN_REPORT`, if set.
    pub fn from_env() -> Option<JsonSink> {
        std::env::var_os(RUN_REPORT_ENV).map(JsonSink::new)
    }

    /// The file this sink appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one JSON object as a single line. Errors are reported to
    /// stderr and swallowed — telemetry must never take down a run.
    pub fn append_line(&self, body: &str) {
        debug_assert!(!body.contains('\n'), "sink lines must be single-line");
        let mut line = String::with_capacity(body.len() + 1);
        line.push_str(body);
        line.push('\n');
        let write = || -> std::io::Result<()> {
            if let Some(dir) = self.path.parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir)?;
                }
            }
            let mut f = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.path)?;
            f.write_all(line.as_bytes())
        };
        if let Err(e) = write() {
            eprintln!(
                "prim-obs: failed to append run report to {}: {e}",
                self.path.display()
            );
        }
    }
}

/// Summary of a validated run-report file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReportSummary {
    /// Total parsed lines.
    pub lines: usize,
    /// Lines with a non-empty `epochs` array (training runs).
    pub runs_with_epochs: usize,
    /// Total epoch records across all runs.
    pub epoch_records: usize,
    /// Total eval records across all runs.
    pub eval_records: usize,
}

/// Parses and validates a run-report file (JSONL).
///
/// Every non-empty line must parse as a JSON object whose `schema` field is
/// [`crate::SCHEMA`]; epoch records must carry finite-or-null `loss`,
/// `grad_norm` and a `phase_ms` object. Returns per-file totals.
pub fn validate_report(text: &str) -> Result<ReportSummary, String> {
    let mut summary = ReportSummary::default();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let schema = v.get("schema").and_then(Value::as_str);
        if schema != Some(crate::SCHEMA) {
            return Err(format!(
                "line {}: schema tag {:?} != {:?}",
                i + 1,
                schema,
                crate::SCHEMA
            ));
        }
        summary.lines += 1;
        if let Some(epochs) = v.get("epochs").and_then(Value::as_arr) {
            if !epochs.is_empty() {
                summary.runs_with_epochs += 1;
            }
            for (k, e) in epochs.iter().enumerate() {
                for key in ["epoch", "loss", "grad_norm"] {
                    if e.get(key).is_none() {
                        return Err(format!("line {}: epoch record {k} lacks `{key}`", i + 1));
                    }
                }
                if !matches!(e.get("phase_ms"), Some(Value::Obj(_))) {
                    return Err(format!("line {}: epoch record {k} lacks `phase_ms`", i + 1));
                }
                summary.epoch_records += 1;
            }
        }
        if let Some(evals) = v.get("evals").and_then(Value::as_arr) {
            summary.eval_records += evals.len();
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_validate() {
        let scratch = crate::Scratch::new("sink");
        let path = scratch.0.join("report.jsonl");
        let sink = JsonSink::new(&path);
        sink.append_line(&json::obj(&[
            ("schema", json::str(crate::SCHEMA)),
            ("kind", json::str("bench_start")),
        ]));
        sink.append_line(&json::obj(&[
            ("schema", json::str(crate::SCHEMA)),
            ("kind", json::str("run")),
            (
                "epochs",
                json::arr(&[json::obj(&[
                    ("epoch", json::int(0)),
                    ("loss", json::num(0.7)),
                    ("grad_norm", json::num(1.0)),
                    ("phase_ms", json::obj(&[("forward", json::num(1.0))])),
                ])]),
            ),
        ]));
        let text = std::fs::read_to_string(&path).unwrap();
        let summary = validate_report(&text).unwrap();
        assert_eq!(summary.lines, 2);
        assert_eq!(summary.runs_with_epochs, 1);
        assert_eq!(summary.epoch_records, 1);
    }

    #[test]
    fn validate_rejects_wrong_schema_and_bad_epochs() {
        assert!(validate_report("{\"schema\": \"other/v9\"}").is_err());
        assert!(validate_report("not json").is_err());
        let missing_loss = format!(
            "{{\"schema\": \"{}\", \"epochs\": [{{\"epoch\": 0}}]}}",
            crate::SCHEMA
        );
        assert!(validate_report(&missing_loss).is_err());
    }
}
