//! Pieces every workload shares: the seeded generator, the closed-loop
//! line client, the server lifecycle, CPU/steal metering and the result.

use crate::procfs::{self, CpuTime, HostCpu};
use crate::stats;
use crate::trace::Trace;
use prim_serve::{load_checkpoint, AnnParams, EmbeddingStore, TcpServer};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's own seeded generator, so that input
/// generation depends on nothing but the seed.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One TCP connection, one request outstanding at a time.
pub struct LineClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    buf: String,
}

impl LineClient {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(LineClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            buf: String::new(),
        })
    }

    /// Sends one request line and waits for its response line (returned
    /// without the newline, valid until the next call).
    pub fn call(&mut self, line: &str) -> std::io::Result<&str> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.buf.clear();
        if self.reader.read_line(&mut self.buf)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.buf.trim_end())
    }
}

/// A bound server running its event loops on a background thread.
pub struct Serving {
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: JoinHandle<std::io::Result<()>>,
}

impl Serving {
    pub fn start(server: TcpServer) -> Serving {
        let addr = server.local_addr().expect("bound address");
        let stop = server.stop_handle();
        let handle = std::thread::spawn(move || server.run());
        Serving { addr, stop, handle }
    }

    /// Stops the accept loop and every shard, and waits for them.
    pub fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        self.handle
            .join()
            .expect("server thread panicked")
            .expect("server ran cleanly");
    }
}

/// Event-loop shards the server starts by default (the server's own rule:
/// `PRIM_SERVE_SHARDS`, else one per core, at most 8).
pub fn default_shards() -> usize {
    std::env::var("PRIM_SERVE_SHARDS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| nproc().clamp(1, 8))
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU and steal over a timed phase. The load thread is the thread that
/// creates the meter; its own CPU is subtracted from the process's, so
/// what remains is the program's.
pub struct Meter {
    wall: Instant,
    process: CpuTime,
    load: CpuTime,
    host: HostCpu,
}

pub struct Metered {
    pub wall: Duration,
    pub program_cpu: Duration,
    /// The system-time part of `program_cpu`.
    pub program_sys: Duration,
    /// Minor page faults of the program's threads.
    pub program_faults: u64,
    pub steal_pct: f64,
}

impl Metered {
    /// The run-record line for this phase.
    pub fn describe(&self) -> String {
        format!(
            "wall {:.3} s, program cpu {:.3} s ({:.1}% sys, {} minor faults), host steal {:.2}%",
            self.wall.as_secs_f64(),
            self.program_cpu.as_secs_f64(),
            100.0 * self.program_sys.as_secs_f64() / self.program_cpu.as_secs_f64().max(1e-9),
            self.program_faults,
            self.steal_pct
        )
    }
}

impl Meter {
    pub fn start() -> Meter {
        Meter {
            host: procfs::host_cpu(),
            process: procfs::process_cpu(),
            load: procfs::thread_cpu(),
            wall: Instant::now(),
        }
    }

    /// `exclude_load`: whether the metering thread only generated load
    /// (served workloads) or did program work itself (training).
    pub fn finish(self, exclude_load: bool) -> Metered {
        let wall = self.wall.elapsed();
        let load = procfs::thread_cpu().since(&self.load);
        let process = procfs::process_cpu().since(&self.process);
        let program = if exclude_load {
            process.since(&load)
        } else {
            process
        };
        Metered {
            wall,
            program_cpu: program.total(),
            program_sys: program.sys,
            program_faults: program.minor_faults,
            steal_pct: procfs::host_cpu().steal_pct_since(&self.host),
        }
    }
}

const WORK_ROOT: &str = ".perfbench_work";

/// Scratch space for one run (checkpoint, WAL, snapshots), inside the
/// checkout; [`remove_work_dir`] deletes it when the run ends.
pub fn work_dir(workload: &str) -> PathBuf {
    let dir = PathBuf::from(WORK_ROOT).join(format!("{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("work directory");
    dir
}

/// Deletes a run's scratch space, and the scratch root once it is empty.
pub fn remove_work_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir(WORK_ROOT);
}

/// Times the steps of `EmbeddingStore::from_checkpoint` for a checkpoint
/// without a stored ANN graph, one public call each: rebuild the model and
/// its inputs, embed once, build the ANN index. Also records the process's
/// peak memory after them (nothing heavier has run yet).
pub fn store_layers(ckpt: &Path, out: &mut Outcome) {
    let t = Instant::now();
    let ckpt = load_checkpoint(ckpt).expect("fixture checkpoint loads");
    let (model, inputs) = ckpt.rebuild().expect("checkpoint rebuilds");
    out.metric("store.rebuild_ms", t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    let mut store =
        EmbeddingStore::from_model_unindexed(&model, &inputs, ckpt.relation_names.clone());
    out.metric("store.embed_ms", t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    store.build_ann(AnnParams {
        seed: model.config().seed,
        ..AnnParams::default()
    });
    out.metric("store.ann_build_ms", t.elapsed().as_secs_f64() * 1e3);
    out.metric("store.peak_mb", procfs::vm_hwm_mb());
}

/// Writes the traced run's spans where the run record says.
pub fn write_trace(out: &mut Outcome, trace: &Trace, workload: &str, seed: u64) {
    let dir = PathBuf::from(".perfbench_out");
    std::fs::create_dir_all(&dir).expect("trace output directory");
    let path = dir.join(format!("trace-{workload}-seed{seed}.tsv"));
    trace.write_tsv(&path).expect("trace written");
    out.note(
        "trace",
        format!("{} spans in {}", trace.spans().len(), path.display()),
    );
}

/// Records whether the exact counts of two identical traced passes agree.
pub fn note_repeat(out: &mut Outcome, differ: &[String]) {
    if differ.is_empty() {
        out.note(
            "counts_repeat",
            "exact: each counting pass ran twice and its counts agreed",
        );
    } else {
        for d in differ {
            out.note("counts_repeat", format!("FLAG, differs: {d}"));
        }
    }
}

/// Times `reps` repetitions of a set-up sequence, each dropping the
/// previous result first, and keeps the last result. Pushes each time (s)
/// to `times`; set-up time is their median, which one slow repetition (a
/// page-cache miss, a burst of host steal) moves less than a mean.
pub fn timed_setup<T>(reps: usize, times: &mut Vec<f64>, mut f: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    last.expect("reps > 0")
}

/// The run-record line for a run's set-up times (s).
pub fn describe_setup(times: &[f64]) -> String {
    let ms: Vec<String> = times.iter().map(|t| format!("{:.1}", t * 1e3)).collect();
    format!(
        "[{}] ms, before and after the timed phase; median {:.1} ms",
        ms.join(", "),
        stats::median(times) * 1e3
    )
}

/// One run's outcome: gated metrics, diagnostics and the ops ledger.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why ops were counted failed (first few).
    pub errors: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Ungated figures printed in the run record.
    pub record: Vec<(String, String)>,
}

impl Outcome {
    /// Sets a metric; its unit is the one `END_TO_END` or `PER_LAYER`
    /// gives it.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, key: impl Into<String>, value: impl ToString) {
        self.record.push((key.into(), value.to_string()));
    }

    /// Keeps the reason an op failed, if it is among the first few.
    pub fn error(&mut self, why: impl Into<String>) {
        if self.errors.len() < 8 {
            self.errors.push(why.into());
        }
    }

    /// Counts one failed op and keeps its reason.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.error(why);
    }
}
