//! Scratch directories for the integration suites.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh directory under the system temp dir, removed with everything
/// in it when dropped — also when a failing assertion unwinds past it.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates `prim-<suite>-<pid>-<n>`, unique within the process.
    pub fn new(suite: &str) -> Scratch {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("prim-{suite}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    /// The path of `name` inside the directory (not created).
    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
