//! Deterministic fault injection for checkpoint I/O and serve connections.
//!
//! Crash-safety claims are only as good as the failure modes they were
//! tested against, so every file operation the checkpoint/rotation path
//! performs goes through the [`FileIo`] trait. Production uses [`RealIo`]
//! (plain std::fs plus fsync); tests wrap it in [`ChaosIo`], which counts
//! operations and injects one planned [`Fault`] at a chosen operation
//! index — a torn write, a failed rename, a flipped byte, a short read.
//! With `then_dead` set, every operation after the faulted one also fails,
//! which models a process killed at that exact point. The op index fully
//! determines the failure, so a test can sweep *every* index of a
//! scenario and assert the invariant (e.g. "`LATEST` always resolves to a
//! valid checkpoint") holds at each of them, reproducibly.
//!
//! The connection-side helpers ([`ChaosClient`]) live on the client end:
//! they open a real TCP connection and then misbehave on purpose — send a
//! partial line and stall, trickle bytes with injected latency, or drop
//! the connection mid-request with an RST — so server deadline/shed
//! handling is exercised against genuine socket behaviour.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// One injected failure mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// A write persists only the first `keep` bytes, then errors (torn
    /// write). `keep` is clamped to the payload length.
    TornWrite {
        /// Bytes that reach the disk before the tear.
        keep: usize,
    },
    /// The operation fails cleanly with no on-disk effect.
    FailOp,
    /// The write completes and reports success, but one byte is flipped
    /// (silent corruption). `offset` wraps modulo the payload length.
    BitFlip {
        /// Byte position to corrupt.
        offset: usize,
    },
    /// A read returns only the first `keep` bytes (short read).
    ShortRead {
        /// Bytes the reader sees.
        keep: usize,
    },
}

/// Where and how to fail: the `at_op`-th operation (0-based, counted
/// across all [`FileIo`] calls on the wrapper) suffers `fault`; with
/// `then_dead` every later operation errors too, modelling a crash.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    /// Operation index that faults.
    pub at_op: usize,
    /// The failure injected there.
    pub fault: Fault,
    /// Treat the fault as a process death: all subsequent ops fail.
    pub then_dead: bool,
}

impl FaultPlan {
    /// A kill at operation `at_op`: the op itself and everything after it
    /// fails with no effect.
    pub fn kill_at(at_op: usize) -> Self {
        FaultPlan {
            at_op,
            fault: Fault::FailOp,
            then_dead: true,
        }
    }

    /// A torn write at `at_op` keeping `keep` bytes, then death.
    pub fn torn_at(at_op: usize, keep: usize) -> Self {
        FaultPlan {
            at_op,
            fault: Fault::TornWrite { keep },
            then_dead: true,
        }
    }
}

/// The file operations the checkpoint path performs. Implementations must
/// make `write` durable (fsync) and `rename` atomic — that contract is
/// what the rotation logic's crash safety is built on.
pub trait FileIo: Send + Sync {
    /// Creates/overwrites `path` with `bytes`, fsynced.
    fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()>;
    /// Atomically renames `from` onto `to` (same directory), syncing the
    /// directory so the rename survives a crash.
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()>;
    /// Removes a file (rotation pruning).
    fn remove(&self, path: &Path) -> std::io::Result<()>;
    /// Reads a whole file.
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>>;
    /// Appends `bytes` to `path` (creating it if absent), fsynced. The
    /// mutation WAL is built on this: a torn append may persist any prefix
    /// of `bytes`, which is exactly the tail state replay must tolerate.
    fn append(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()>;
}

/// The production [`FileIo`]: std::fs with fsync on writes and a parent
/// directory sync after renames (so the new directory entry is durable).
pub struct RealIo;

fn sync_parent_dir(path: &Path) {
    // Directory fsync is best-effort: not every filesystem supports
    // opening a directory for sync (and the data fsync already happened).
    if let Some(parent) = path.parent() {
        let dir = if parent.as_os_str().is_empty() {
            Path::new(".")
        } else {
            parent
        };
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
}

impl FileIo for RealIo {
    fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        std::fs::rename(from, to)?;
        sync_parent_dir(to);
        Ok(())
    }

    fn remove(&self, path: &Path) -> std::io::Result<()> {
        std::fs::remove_file(path)
    }

    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)?;
        f.write_all(bytes)?;
        f.sync_all()
    }
}

fn chaos_err(what: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::Interrupted, format!("chaos: {what}"))
}

enum Decision {
    Clean,
    Fault(Fault),
    Dead,
}

/// A [`FileIo`] wrapper that counts operations and injects one planned
/// fault deterministically. See the module docs for the model.
pub struct ChaosIo {
    plan: Option<FaultPlan>,
    ops: AtomicUsize,
}

impl ChaosIo {
    /// Injects `plan` over the real filesystem.
    pub fn with_plan(plan: FaultPlan) -> Self {
        ChaosIo {
            plan: Some(plan),
            ops: AtomicUsize::new(0),
        }
    }

    /// No faults — counts operations, so a clean run measures how many
    /// injection indices a sweep must cover.
    pub fn counting() -> Self {
        ChaosIo {
            plan: None,
            ops: AtomicUsize::new(0),
        }
    }

    /// Operations performed (including faulted ones) so far.
    pub fn ops(&self) -> usize {
        self.ops.load(Ordering::SeqCst)
    }

    fn decide(&self) -> Decision {
        let idx = self.ops.fetch_add(1, Ordering::SeqCst);
        match &self.plan {
            None => Decision::Clean,
            Some(p) if idx < p.at_op => Decision::Clean,
            Some(p) if idx == p.at_op => Decision::Fault(p.fault),
            Some(p) if p.then_dead => Decision::Dead,
            Some(_) => Decision::Clean,
        }
    }
}

impl FileIo for ChaosIo {
    fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        match self.decide() {
            Decision::Clean => RealIo.write(path, bytes),
            Decision::Dead => Err(chaos_err("dead after fault")),
            Decision::Fault(Fault::TornWrite { keep }) => {
                let keep = keep.min(bytes.len());
                // The prefix really lands on disk — that is the point.
                let _ = RealIo.write(path, &bytes[..keep]);
                Err(chaos_err("torn write"))
            }
            Decision::Fault(Fault::FailOp) => Err(chaos_err("failed write")),
            Decision::Fault(Fault::BitFlip { offset }) => {
                let mut corrupt = bytes.to_vec();
                if !corrupt.is_empty() {
                    let at = offset % corrupt.len();
                    corrupt[at] ^= 0x40;
                }
                RealIo.write(path, &corrupt)
            }
            Decision::Fault(Fault::ShortRead { .. }) => Err(chaos_err("failed write")),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        match self.decide() {
            Decision::Clean => RealIo.rename(from, to),
            Decision::Dead => Err(chaos_err("dead after fault")),
            // Rename is atomic: it either happens or it does not, so every
            // fault kind degenerates to "it did not".
            Decision::Fault(_) => Err(chaos_err("failed rename")),
        }
    }

    fn remove(&self, path: &Path) -> std::io::Result<()> {
        match self.decide() {
            Decision::Clean => RealIo.remove(path),
            Decision::Dead => Err(chaos_err("dead after fault")),
            Decision::Fault(_) => Err(chaos_err("failed remove")),
        }
    }

    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        match self.decide() {
            Decision::Clean => RealIo.read(path),
            Decision::Dead => Err(chaos_err("dead after fault")),
            Decision::Fault(Fault::ShortRead { keep }) => {
                let mut data = RealIo.read(path)?;
                data.truncate(keep);
                Ok(data)
            }
            Decision::Fault(Fault::BitFlip { offset }) => {
                let mut data = RealIo.read(path)?;
                if !data.is_empty() {
                    let at = offset % data.len();
                    data[at] ^= 0x40;
                }
                Ok(data)
            }
            Decision::Fault(_) => Err(chaos_err("failed read")),
        }
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        match self.decide() {
            Decision::Clean => RealIo.append(path, bytes),
            Decision::Dead => Err(chaos_err("dead after fault")),
            Decision::Fault(Fault::TornWrite { keep }) => {
                // The prefix lands at the *end* of the file — a torn tail.
                let keep = keep.min(bytes.len());
                let _ = RealIo.append(path, &bytes[..keep]);
                Err(chaos_err("torn append"))
            }
            Decision::Fault(Fault::FailOp) => Err(chaos_err("failed append")),
            Decision::Fault(Fault::BitFlip { offset }) => {
                let mut corrupt = bytes.to_vec();
                if !corrupt.is_empty() {
                    let at = offset % corrupt.len();
                    corrupt[at] ^= 0x40;
                }
                RealIo.append(path, &corrupt)
            }
            Decision::Fault(Fault::ShortRead { .. }) => Err(chaos_err("failed append")),
        }
    }
}

/// Writes `bytes` to `path` atomically through `io`: temp-file sibling,
/// fsync, rename over the target. A crash at any operation leaves either
/// the old file or the new one — never a truncated hybrid.
pub fn atomic_write_io(io: &dyn FileIo, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = temp_sibling(path);
    if let Err(e) = io.write(&tmp, bytes) {
        // Best-effort cleanup; a crashed process would leave the temp
        // file behind, which is why readers never look at `.tmp` names.
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    io.rename(&tmp, path)
}

/// Atomic write through the real filesystem.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    atomic_write_io(&RealIo, path, bytes)
}

fn temp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// A deliberately misbehaving client for exercising server resilience:
/// real TCP, scripted misbehaviour.
pub struct ChaosClient {
    stream: TcpStream,
}

impl ChaosClient {
    /// Connects to a serve TCP front end. Nagle's algorithm is off, so
    /// each write reaches the server when the script makes it: with it on,
    /// a write behind unacknowledged bytes waits for the server's delayed
    /// ACK (about 40 ms on Linux loopback), long enough for a server with
    /// a short `read_timeout` to reap the connection as a slow loris.
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(ChaosClient { stream })
    }

    /// Access to the raw stream (for reading responses).
    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    /// Sends only the first `keep` bytes of `line` (no newline) and keeps
    /// the connection open — a stalled, half-sent request.
    pub fn send_partial(&mut self, line: &str, keep: usize) -> std::io::Result<()> {
        let bytes = line.as_bytes();
        let keep = keep.min(bytes.len());
        self.stream.write_all(&bytes[..keep])?;
        self.stream.flush()
    }

    /// Sends a full request line one byte at a time with `delay` between
    /// bytes — injected latency on the read path.
    pub fn send_slowly(&mut self, line: &str, delay: Duration) -> std::io::Result<()> {
        for b in line.as_bytes() {
            self.stream.write_all(std::slice::from_ref(b))?;
            self.stream.flush()?;
            std::thread::sleep(delay);
        }
        self.stream.write_all(b"\n")?;
        self.stream.flush()
    }

    /// Sends a request, line and newline in one write, and reads one
    /// response line.
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.stream.write_all(&framed(line))?;
        self.stream.flush()?;
        self.read_line()
    }

    /// Reads one newline-terminated response.
    pub fn read_line(&mut self) -> std::io::Result<String> {
        let mut out = Vec::new();
        let mut byte = [0u8; 1];
        loop {
            let n = self.stream.read(&mut byte)?;
            if n == 0 || byte[0] == b'\n' {
                break;
            }
            out.push(byte[0]);
        }
        String::from_utf8(out).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Sends `n` copies of a request line without ever reading a
    /// response — the *slow reader*: the server's responses pile up in
    /// socket buffers until its writes stall, pinning admission permits
    /// on an event-loop front end. Returns how many lines were fully
    /// written (the server may shed/close mid-flood).
    pub fn flood_lines(&mut self, line: &str, n: usize) -> usize {
        let framed = framed(line);
        let mut sent = 0;
        for _ in 0..n {
            if self.stream.write_all(&framed).is_err() {
                break;
            }
            sent += 1;
        }
        let _ = self.stream.flush();
        sent
    }

    /// Classic slow loris: starts a request line and keeps the connection
    /// open by trickling one byte every `drip` without ever finishing the
    /// line, until `total` bytes were sent or the server hangs up.
    pub fn slow_loris(&mut self, drip: Duration, total: usize) -> std::io::Result<()> {
        self.stream.write_all(b"{\"op\": \"")?;
        self.stream.flush()?;
        for _ in 0..total {
            std::thread::sleep(drip);
            self.stream.write_all(b"x")?;
            self.stream.flush()?;
        }
        Ok(())
    }

    /// Drops the connection without reading pending responses. Closing a
    /// socket with unread received data makes the kernel send RST, so the
    /// server's next write fails with connection-reset/broken-pipe — the
    /// "client vanished mid-exchange" failure mode.
    pub fn hang_up(self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        drop(self.stream);
    }
}

/// `line` with its terminating newline, so a well-formed request goes out
/// in one write and never sits half-sent at the server.
fn framed(line: &str) -> Vec<u8> {
    format!("{line}\n").into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// A fresh scratch directory, removed with everything in it when
    /// dropped — also when a failing assertion unwinds past it.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(name: &str) -> Scratch {
            let dir =
                std::env::temp_dir().join(format!("prim-chaos-{name}-{}", std::process::id()));
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
    fn chaos_kill_sweep_is_deterministic() {
        let scratch = Scratch::new("unit");
        let dir = &scratch.0;
        // A clean atomic write costs exactly two ops (write + rename).
        let counter = ChaosIo::counting();
        atomic_write_io(&counter, &dir.join("a.bin"), b"hello").unwrap();
        assert_eq!(counter.ops(), 2);
        // Killing at either op must leave the prior contents intact.
        let target = dir.join("b.bin");
        atomic_write(&target, b"old").unwrap();
        for at in 0..2 {
            let io = ChaosIo::with_plan(FaultPlan::kill_at(at));
            assert!(atomic_write_io(&io, &target, b"new").is_err());
            assert_eq!(std::fs::read(&target).unwrap(), b"old");
        }
    }

    #[test]
    fn torn_write_persists_prefix_only() {
        let scratch = Scratch::new("torn");
        let path = scratch.0.join("t.bin");
        let io = ChaosIo::with_plan(FaultPlan::torn_at(0, 3));
        assert!(io.write(&path, b"abcdef").is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"abc");
    }

    #[test]
    fn bit_flip_completes_with_corruption() {
        let scratch = Scratch::new("flip");
        let path = scratch.0.join("f.bin");
        let io = ChaosIo::with_plan(FaultPlan {
            at_op: 0,
            fault: Fault::BitFlip { offset: 1 },
            then_dead: false,
        });
        io.write(&path, b"abc").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"a\x22c");
    }
}
