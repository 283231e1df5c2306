//! `prim-obs`: training/inference telemetry for the PRIM reproduction.
//!
//! Three pieces (DESIGN.md §8):
//!
//! * [`Recorder`] — lock-cheap, thread-safe telemetry: scoped phase timers
//!   ([`Phase`]), monotonic counters ([`Counter`]), per-epoch training
//!   records ([`EpochRecord`]) and per-split eval records ([`EvalRecord`]).
//!   The disabled recorder is allocation-free and branch-cheap so it can
//!   live inside the steady-state training step without moving the
//!   allocation budget.
//! * [`FiniteGuard`] — NaN/Inf guard rails over losses and gradients with a
//!   configurable step cadence, aborting with a structured [`TrainAbort`]
//!   that names the epoch, step and parameter group.
//! * [`JsonSink`] — append-only, schema-versioned JSON Lines run reports
//!   (path from `PRIM_RUN_REPORT`), validated by [`validate_report`].
//!
//! The hand-rolled JSON writer/reader lives in [`json`]; `prim-bench`
//! re-exports it so the bench harness and the recorder share one
//! serialisation path.

pub mod guard;
pub mod json;
pub mod recorder;
pub mod sink;

pub use guard::{AbortKind, FiniteGuard, TrainAbort, GUARD_ENV};
pub use recorder::{
    Counter, EpochRecord, EvalRecord, Phase, PhaseGuard, Recorder, SeriesSummary, N_PHASES,
};
pub use sink::{validate_report, JsonSink, ReportSummary, RUN_REPORT_ENV};

/// Schema tag every run-report line carries. Bump on breaking layout change.
pub const SCHEMA: &str = "prim-obs/v1";

/// The telemetry bundle training loops thread through: a recorder plus a
/// finite-value guard. Both default to their zero-overhead disabled forms.
#[derive(Clone, Default)]
pub struct Telemetry {
    /// Event recorder (disabled = allocation-free no-op).
    pub recorder: Recorder,
    /// NaN/Inf guard (disabled = one integer compare per step).
    pub guard: FiniteGuard,
}

impl Telemetry {
    /// Fully disabled telemetry: no recording, no guard checks, and no
    /// allocation on construction.
    pub const fn disabled() -> Self {
        Telemetry {
            recorder: Recorder::disabled(),
            guard: FiniteGuard::disabled(),
        }
    }

    /// Telemetry driven by the environment: the recorder sinks to
    /// `PRIM_RUN_REPORT` when set, and the guard cadence comes from
    /// `PRIM_GUARD_EVERY`. Unset variables leave each part disabled.
    pub fn from_env(run: &str) -> Self {
        Telemetry {
            recorder: Recorder::from_env(run),
            guard: FiniteGuard::from_env(),
        }
    }

    /// Telemetry with the given recorder and the guard checking every step.
    pub fn with_recorder(recorder: Recorder) -> Self {
        Telemetry {
            recorder,
            guard: FiniteGuard::every(1),
        }
    }

    /// True when either part does any work.
    pub fn is_enabled(&self) -> bool {
        self.recorder.is_enabled() || self.guard.is_enabled()
    }
}

/// A fresh scratch directory for the crate's unit tests, removed with
/// everything in it when dropped — also when a failing assertion unwinds
/// past it.
#[cfg(test)]
pub(crate) struct Scratch(pub(crate) std::path::PathBuf);

#[cfg(test)]
impl Scratch {
    pub(crate) fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("prim-obs-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

#[cfg(test)]
impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_telemetry_is_fully_off() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        assert!(!t.recorder.is_enabled());
        assert!(!t.guard.is_enabled());
    }

    #[test]
    fn with_recorder_enables_guard() {
        let t = Telemetry::with_recorder(Recorder::enabled("x"));
        assert!(t.is_enabled());
        assert!(t.guard.due(0));
    }
}
