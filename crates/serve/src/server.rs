//! Serving front ends: a blocking stdin/stdout loop and a nonblocking
//! event-loop TCP listener.
//!
//! Both speak the [`crate::proto`] JSON-lines protocol over one request
//! path: every byte read goes through a [`LineFramer`], and every framed
//! line through one handler (admission, deadline stamped at read, a direct
//! engine call). The stdin loop is the scriptable path (CI pipes a request
//! file through it and diffs the output); it blocks on reads, because
//! epoll refuses regular files and CI feeds stdin from one. The TCP front
//! end is readiness-driven: an accept thread feeds sharded event loops
//! (one per core by default, `PRIM_SERVE_SHARDS` overrides), each running
//! a [`crate::poll::Poller`] over per-connection state machines — read
//! buffer, [`LineFramer`], write buffer — with **no per-connection
//! thread**. Ten thousand mostly-idle connections cost ten thousand small
//! buffers, not ten thousand stacks.
//!
//! ## Backpressure and shedding
//!
//! Each complete request line is handled inline on its shard via
//! [`crate::proto::handle_request_gated`]; the admission permit is held
//! until the response bytes reach the kernel, so a slow reader's queued
//! responses keep occupying [`crate::proto::AdmissionGate`] slots and new
//! load sheds with `overloaded` instead of growing buffers without bound.
//! Request deadlines are stamped from the event-loop tick that read the
//! line: when a shard falls behind, lines handled late in a long tick are
//! already expired and shed cheaply with `deadline_exceeded` — goodput
//! degrades before latency collapses.
//!
//! ## Failure semantics
//!
//! A client that vanishes — broken pipe, connection reset, aborted, or a
//! half-written line at EOF (which gets no response) — is *routine*, not
//! an error: both front ends log a structured `client_disconnect` event,
//! bump `Counter::ServeDisconnects`, and keep the server healthy. When
//! [`crate::proto::ServeLimits`] sets a `read_timeout`, a connection
//! stalled mid-line (slow loris) is closed and counted under
//! `Counter::ServeDeadlines`; a `write_timeout` closes connections whose
//! peers stop reading (slow reader); `max_line_bytes` rejects oversized
//! lines with a structured error and resyncs at the next newline.

use crate::poll::{Event, Interest, Poller};
use crate::proto::{
    handle_request_gated, oversized_line_error, GatePermit, GatedHandled, ServeCtx,
};
use prim_obs::json;
use prim_obs::Counter;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// True for I/O errors that mean "the peer went away" rather than "the
/// server is broken".
fn is_disconnect(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::UnexpectedEof
    )
}

/// Logs the structured disconnect event and counts it.
fn note_disconnect(ctx: &ServeCtx, front: &str, e: &std::io::Error) {
    ctx.engine().recorder().add(Counter::ServeDisconnects, 1);
    eprintln!(
        "{}",
        json::obj(&[
            ("event", json::str("client_disconnect")),
            ("front", json::str(front)),
            ("kind", json::str(&format!("{:?}", e.kind()))),
        ])
    );
}

/// Answers one framed line — the per-line handler both front ends share.
/// A request line goes through admission and the protocol handler with
/// its deadline stamped at `read_at`; an oversized line is counted and
/// rejected without touching the gate.
fn answer(ctx: &ServeCtx, event: LineEvent, read_at: Instant) -> GatedHandled {
    match event {
        LineEvent::Line(line) => {
            let deadline = ctx.limits.deadline.map(|d| read_at + d);
            handle_request_gated(ctx, &line, deadline)
        }
        LineEvent::Oversized(len) => {
            ctx.engine().recorder().add(Counter::ServeOversized, 1);
            GatedHandled::ungated(oversized_line_error(len, ctx.limits.max_line_bytes))
        }
    }
}

/// Runs the protocol over a blocking reader/writer pair until EOF or a
/// `shutdown` op. Bytes are framed exactly as a TCP connection's are, and
/// each framed line produces exactly one response line, written and
/// flushed while its admission permit is held. A half-written line at EOF
/// gets no response, and a peer that disappears mid-stream (broken pipe on
/// either side) ends the loop cleanly — both logged and counted, not an
/// error.
pub fn serve_stdin(
    ctx: &ServeCtx,
    mut reader: impl Read,
    mut writer: impl Write,
) -> std::io::Result<()> {
    let mut framer = LineFramer::new(ctx.limits.max_line_bytes);
    let mut chunk = [0u8; READ_CHUNK];
    let mut line_events = Vec::new();
    loop {
        let n = match reader.read(&mut chunk) {
            Ok(0) => {
                if framer.mid_line_content() {
                    let eof = std::io::Error::from(std::io::ErrorKind::UnexpectedEof);
                    note_disconnect(ctx, "stdin", &eof);
                }
                return Ok(());
            }
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if is_disconnect(&e) => {
                note_disconnect(ctx, "stdin", &e);
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        let read_at = Instant::now();
        framer.push(&chunk[..n], &mut |ev| line_events.push(ev));
        for ev in line_events.drain(..) {
            let gated = answer(ctx, ev, read_at);
            let wrote = writeln!(writer, "{}", gated.handled.response).and_then(|_| writer.flush());
            if let Err(e) = wrote {
                if is_disconnect(&e) {
                    note_disconnect(ctx, "stdin", &e);
                    return Ok(());
                }
                return Err(e);
            }
            if gated.handled.shutdown {
                return Ok(());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Line framing
// ---------------------------------------------------------------------------

/// One framing outcome from [`LineFramer::push`].
#[derive(Debug, PartialEq, Eq)]
pub enum LineEvent {
    /// A complete, trimmed, non-empty request line.
    Line(String),
    /// A line exceeded the byte bound; carries the buffered length at the
    /// moment of rejection. The framer discards until the next newline.
    Oversized(usize),
}

/// Incremental newline framing over arbitrary read-chunk boundaries.
///
/// Both front ends feed whatever byte slices their reader yields; the
/// framer reassembles lines regardless of how they were split across reads,
/// enforces `max_line_bytes` (0 = unlimited) with discard-to-newline
/// resync, and tracks when the current partial line started so the shard
/// can close slow-loris connections.
pub struct LineFramer {
    buf: Vec<u8>,
    max: usize,
    discard: bool,
    line_started: Option<Instant>,
}

impl LineFramer {
    /// A framer bounding lines at `max_line_bytes` (0 = unlimited).
    pub fn new(max_line_bytes: usize) -> Self {
        LineFramer {
            buf: Vec::new(),
            max: max_line_bytes,
            discard: false,
            line_started: None,
        }
    }

    /// Appends line bytes, buffering at most `max + 1` of them: the
    /// moment the bound is crossed the line is rejected, so the payload of
    /// the returned [`LineEvent::Oversized`] — the buffered length at
    /// rejection — is `max + 1` however the bytes were chunked.
    fn ingest(&mut self, bytes: &[u8]) -> Option<LineEvent> {
        if self.max > 0 && self.buf.len() + bytes.len() > self.max {
            let room = self.max + 1 - self.buf.len();
            self.buf.extend_from_slice(&bytes[..room]);
            return Some(LineEvent::Oversized(self.buf.len()));
        }
        self.buf.extend_from_slice(bytes);
        None
    }

    /// Feeds one read chunk, emitting an event per completed (or
    /// oversized) line. Empty/whitespace-only lines are skipped. Event
    /// payloads are *chunk-invariant*: however the transport splits the
    /// stream across reads, the emitted sequence is identical (pinned by
    /// the `proto_fuzz` properties).
    pub fn push(&mut self, bytes: &[u8], emit: &mut impl FnMut(LineEvent)) {
        let mut rest = bytes;
        while !rest.is_empty() {
            match rest.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    if self.discard {
                        // Tail of an oversized line: drop it and resync.
                        self.discard = false;
                    } else if let Some(ev) = self.ingest(&rest[..pos]) {
                        // Oversized, but its newline is right here: emit
                        // and resync immediately, no discard phase.
                        emit(ev);
                        self.buf.clear();
                    } else {
                        let text = String::from_utf8_lossy(&self.buf);
                        let line = text.trim();
                        if !line.is_empty() {
                            emit(LineEvent::Line(line.to_string()));
                        }
                        self.buf.clear();
                    }
                    self.line_started = None;
                    rest = &rest[pos + 1..];
                }
                None => {
                    if !self.discard {
                        if self.line_started.is_none() {
                            self.line_started = Some(Instant::now());
                        }
                        if let Some(ev) = self.ingest(rest) {
                            emit(ev);
                            self.buf.clear();
                            self.discard = true;
                        }
                    }
                    rest = &[];
                }
            }
        }
        if self.buf.is_empty() && !self.discard {
            self.line_started = None;
        }
    }

    /// Bytes buffered for the current partial line.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len()
    }

    /// When the current partial (or discarding) line started; `None`
    /// between complete lines.
    pub fn mid_line_since(&self) -> Option<Instant> {
        if self.buf.is_empty() && !self.discard {
            None
        } else {
            self.line_started
        }
    }

    /// True when EOF now would abandon non-whitespace request bytes.
    pub fn mid_line_content(&self) -> bool {
        self.discard || !self.buf.iter().all(|b| b.is_ascii_whitespace())
    }
}

// ---------------------------------------------------------------------------
// Connection state machine
// ---------------------------------------------------------------------------

const READ_CHUNK: usize = 16 * 1024;
/// Bounded reads per connection per tick: level-triggered epoll re-reports
/// leftover bytes next tick, so one firehose connection cannot starve the
/// rest of its shard.
const MAX_READS_PER_TICK: usize = 4;
/// Event-loop tick: epoll timeout, which also bounds how stale the
/// new-connection inbox and the stop flag can get.
const TICK: Duration = Duration::from_millis(5);
/// Compact a partially-flushed write buffer once the flushed prefix
/// crosses this.
const COMPACT_AT: usize = 64 * 1024;

/// A queued response: its end offset in the write buffer plus the
/// admission permit it holds until those bytes are flushed.
struct PendingResponse {
    end: usize,
    _permit: Option<GatePermit>,
}

struct Conn {
    stream: TcpStream,
    token: u64,
    framer: LineFramer,
    wbuf: Vec<u8>,
    wpos: usize,
    pending: VecDeque<PendingResponse>,
    /// Set at the first `WouldBlock` with bytes queued; cleared on any
    /// write progress.
    write_stalled_since: Option<Instant>,
    /// Registered for writable readiness.
    want_write: bool,
    /// Close once the write buffer drains (shutdown handshake).
    close_after_flush: bool,
}

/// Why a connection is being closed — drives counters and logging.
enum Close {
    /// Clean EOF with no abandoned request bytes.
    Quiet,
    /// Peer vanished (reset / EOF mid-line / write to closed pipe).
    Disconnect(std::io::ErrorKind),
    /// Stalled mid-line past `read_timeout` (slow loris).
    ReadStall,
    /// Refused writes past `write_timeout` (slow reader).
    WriteStall,
    /// Unexpected I/O error.
    Error(std::io::Error),
}

impl Conn {
    fn new(stream: TcpStream, token: u64, max_line_bytes: usize) -> Self {
        Conn {
            stream,
            token,
            framer: LineFramer::new(max_line_bytes),
            wbuf: Vec::new(),
            wpos: 0,
            pending: VecDeque::new(),
            write_stalled_since: None,
            want_write: false,
            close_after_flush: false,
        }
    }

    fn queue_response(&mut self, response: &str, permit: Option<GatePermit>) {
        self.wbuf.extend_from_slice(response.as_bytes());
        self.wbuf.push(b'\n');
        self.pending.push_back(PendingResponse {
            end: self.wbuf.len(),
            _permit: permit,
        });
    }

    fn unflushed_bytes(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Writes as much queued response data as the socket accepts,
    /// releasing admission permits as their bytes land. `Ok(true)` means
    /// everything flushed.
    fn try_flush(&mut self) -> Result<bool, Close> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(Close::Disconnect(std::io::ErrorKind::WriteZero)),
                Ok(n) => {
                    self.wpos += n;
                    self.write_stalled_since = None;
                    while let Some(front) = self.pending.front() {
                        if front.end <= self.wpos {
                            self.pending.pop_front(); // drops the permit
                        } else {
                            break;
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if self.write_stalled_since.is_none() {
                        self.write_stalled_since = Some(Instant::now());
                    }
                    if self.wpos >= COMPACT_AT {
                        self.wbuf.drain(..self.wpos);
                        for p in &mut self.pending {
                            p.end -= self.wpos;
                        }
                        self.wpos = 0;
                    }
                    return Ok(false);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if is_disconnect(&e) => return Err(Close::Disconnect(e.kind())),
                Err(e) => return Err(Close::Error(e)),
            }
        }
        self.wbuf.clear();
        self.wpos = 0;
        debug_assert!(self.pending.is_empty());
        self.write_stalled_since = None;
        Ok(true)
    }
}

// ---------------------------------------------------------------------------
// Sharded event-loop server
// ---------------------------------------------------------------------------

fn default_shards() -> usize {
    if let Ok(s) = std::env::var("PRIM_SERVE_SHARDS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 8)
}

/// A nonblocking event-loop TCP front end with graceful shutdown: one
/// accept thread hands connections round-robin to per-core shard loops;
/// no thread is ever spawned per connection.
pub struct TcpServer {
    listener: TcpListener,
    ctx: ServeCtx,
    stop: Arc<AtomicBool>,
    shards: usize,
}

impl TcpServer {
    /// Binds the listener (use port 0 for an ephemeral port).
    pub fn bind(addr: impl ToSocketAddrs, ctx: ServeCtx) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Ok(TcpServer {
            listener,
            ctx,
            stop: Arc::new(AtomicBool::new(false)),
            shards: default_shards(),
        })
    }

    /// Overrides the shard (event-loop thread) count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// The bound address (needed when binding port 0).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that makes [`TcpServer::run`] return: set it (from any
    /// thread) and the accept loop exits at its next poll tick.
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Accepts connections until a `shutdown` op arrives on any of them
    /// (or the stop handle is set), then joins every shard. Responses
    /// queued at shutdown get a brief best-effort flush before their
    /// connections drop.
    pub fn run(self) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let accepted = Arc::new(AtomicU64::new(0));
        let mut txs: Vec<mpsc::Sender<TcpStream>> = Vec::with_capacity(self.shards);
        let mut handles = Vec::with_capacity(self.shards);
        for s in 0..self.shards {
            let (tx, rx) = mpsc::channel::<TcpStream>();
            let ctx = self.ctx.clone();
            let stop = Arc::clone(&self.stop);
            match std::thread::Builder::new()
                .name(format!("prim-serve-shard-{s}"))
                .spawn(move || shard_loop(&ctx, &rx, &stop))
            {
                Ok(h) => {
                    txs.push(tx);
                    handles.push(h);
                }
                Err(e) => {
                    // A shard that cannot start is a structured serve
                    // error, not a panic: stop the shards that did start
                    // and surface the cause to the caller.
                    eprintln!(
                        "{}",
                        json::obj(&[
                            ("event", json::str("shard_spawn_failed")),
                            ("shard", json::int(s as u64)),
                            ("error", json::str(&e.to_string())),
                        ])
                    );
                    self.stop.store(true, Ordering::SeqCst);
                    drop(txs);
                    for h in handles {
                        let _ = h.join();
                    }
                    return Err(e);
                }
            }
        }

        let accept_result = self.accept_loop(&txs, &accepted);
        // Accept loop exit (stop flag or fatal error) stops the shards.
        self.stop.store(true, Ordering::SeqCst);
        drop(txs);
        for h in handles {
            let _ = h.join();
        }
        self.ctx.engine().recorder().record_scalar(
            "serve/accepted_conns",
            accepted.load(Ordering::Relaxed) as f64,
        );
        accept_result
    }

    fn accept_loop(
        &self,
        txs: &[mpsc::Sender<TcpStream>],
        accepted: &AtomicU64,
    ) -> std::io::Result<()> {
        let poller = Poller::new()?;
        poller.register(self.listener.as_raw_fd(), 0, Interest::READ)?;
        let mut events: Vec<Event> = Vec::new();
        let mut next = 0usize;
        while !self.stop.load(Ordering::SeqCst) {
            let _ = poller.wait(&mut events, Some(Duration::from_millis(25)));
            loop {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        // Round-robin handoff; a shard that exited early
                        // just drops its end and the connection with it.
                        let _ = txs[next % txs.len()].send(stream);
                        next = next.wrapping_add(1);
                        accepted.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if is_disconnect(&e) => continue,
                    Err(e) => {
                        // Transient accept failures (e.g. fd exhaustion
                        // under a connection flood) must not kill the
                        // server; log, breathe, retry.
                        eprintln!(
                            "{}",
                            json::obj(&[
                                ("event", json::str("accept_error")),
                                ("kind", json::str(&format!("{:?}", e.kind()))),
                            ])
                        );
                        std::thread::sleep(Duration::from_millis(10));
                        break;
                    }
                }
            }
        }
        Ok(())
    }
}

struct Slot {
    gen: u32,
    conn: Option<Conn>,
}

const TOKEN_IDX_MASK: u64 = 0xffff_ffff;

fn token_for(idx: usize, gen: u32) -> u64 {
    ((gen as u64) << 32) | idx as u64
}

/// One shard: an epoll loop over its share of the connections. New
/// connections arrive through the inbox channel; the short epoll timeout
/// bounds how long they (and a stop request) can wait.
fn shard_loop(ctx: &ServeCtx, inbox: &mpsc::Receiver<TcpStream>, stop: &AtomicBool) {
    let poller = match Poller::new() {
        Ok(p) => p,
        Err(e) => {
            eprintln!(
                "{}",
                json::obj(&[
                    ("event", json::str("shard_poller_failed")),
                    ("error", json::str(&e.to_string())),
                ])
            );
            stop.store(true, Ordering::SeqCst);
            return;
        }
    };
    let mut slots: Vec<Slot> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut events: Vec<Event> = Vec::new();
    let mut line_events: Vec<LineEvent> = Vec::new();

    loop {
        let _ = poller.wait(&mut events, Some(TICK));
        // Deadlines for every line handled this tick are stamped from the
        // tick start: when the shard falls behind, lines handled late in a
        // long tick are already expired and shed cheaply.
        let tick_base = Instant::now();

        // Adopt newly accepted connections.
        while let Ok(stream) = inbox.try_recv() {
            adopt(ctx, &poller, &mut slots, &mut free, stream);
        }

        for ev in &events {
            let idx = (ev.token & TOKEN_IDX_MASK) as usize;
            if idx >= slots.len() || slots[idx].conn.as_ref().map(|c| c.token) != Some(ev.token) {
                continue; // stale event for a reaped connection
            }
            let mut close: Option<Close> = None;
            {
                let conn = slots[idx].conn.as_mut().expect("checked above");
                if ev.readable || ev.hangup {
                    close = read_and_handle(ctx, conn, stop, tick_base, &mut line_events).err();
                }
                if close.is_none() {
                    close = flush_and_rearm(&poller, conn, idx).err();
                }
            }
            if let Some(why) = close {
                reap(ctx, &poller, &mut slots, &mut free, idx, why);
            }
        }

        // Stall wheel: close slow-loris (mid-line past read_timeout) and
        // slow-reader (write-stalled past write_timeout) connections.
        let read_stall = ctx.limits.read_timeout;
        let write_stall = ctx.limits.write_timeout;
        if read_stall.is_some() || write_stall.is_some() {
            let now = Instant::now();
            for idx in 0..slots.len() {
                let Some(conn) = slots[idx].conn.as_ref() else {
                    continue;
                };
                let stalled_read = read_stall.is_some_and(|t| {
                    conn.framer
                        .mid_line_since()
                        .is_some_and(|since| now.duration_since(since) >= t)
                });
                let stalled_write = write_stall.is_some_and(|t| {
                    conn.write_stalled_since
                        .is_some_and(|since| now.duration_since(since) >= t)
                });
                if stalled_read {
                    reap(ctx, &poller, &mut slots, &mut free, idx, Close::ReadStall);
                } else if stalled_write {
                    reap(ctx, &poller, &mut slots, &mut free, idx, Close::WriteStall);
                }
            }
        }

        if stop.load(Ordering::SeqCst) {
            break;
        }
    }

    // Graceful drain: give queued responses (the shutdown ack above all) a
    // short window to reach their sockets before the connections drop.
    let drain_deadline = Instant::now() + Duration::from_millis(250);
    loop {
        let mut outstanding = false;
        for slot in &mut slots {
            if let Some(conn) = slot.conn.as_mut() {
                match conn.try_flush() {
                    Ok(true) => {}
                    Ok(false) => outstanding = true,
                    Err(_) => slot.conn = None,
                }
            }
        }
        if !outstanding || Instant::now() >= drain_deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Registers a newly accepted connection with this shard.
fn adopt(
    ctx: &ServeCtx,
    poller: &Poller,
    slots: &mut Vec<Slot>,
    free: &mut Vec<usize>,
    stream: TcpStream,
) {
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    // Responses are small JSON lines; Nagle would trade their latency for
    // nothing.
    let _ = stream.set_nodelay(true);
    let idx = free.pop().unwrap_or_else(|| {
        slots.push(Slot { gen: 0, conn: None });
        slots.len() - 1
    });
    let slot = &mut slots[idx];
    slot.gen = slot.gen.wrapping_add(1);
    let token = token_for(idx, slot.gen);
    if let Err(e) = poller.register(stream.as_raw_fd(), token, Interest::READ) {
        eprintln!(
            "{}",
            json::obj(&[
                ("event", json::str("conn_register_failed")),
                ("error", json::str(&e.to_string())),
            ])
        );
        free.push(idx);
        return;
    }
    slot.conn = Some(Conn::new(stream, token, ctx.limits.max_line_bytes));
}

/// Drains a bounded slice of the socket's pending bytes, frames them into
/// request lines, and handles each inline (queueing responses into the
/// write buffer with their admission permits).
fn read_and_handle(
    ctx: &ServeCtx,
    conn: &mut Conn,
    stop: &AtomicBool,
    tick_base: Instant,
    line_events: &mut Vec<LineEvent>,
) -> Result<(), Close> {
    let mut chunk = [0u8; READ_CHUNK];
    for _ in 0..MAX_READS_PER_TICK {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                if conn.framer.mid_line_content() {
                    return Err(Close::Disconnect(std::io::ErrorKind::UnexpectedEof));
                }
                return Err(Close::Quiet);
            }
            Ok(n) => {
                conn.framer
                    .push(&chunk[..n], &mut |ev| line_events.push(ev));
                for ev in line_events.drain(..) {
                    let gated = answer(ctx, ev, tick_base);
                    conn.queue_response(&gated.handled.response, gated.permit);
                    if gated.handled.shutdown {
                        // Server-wide stop, mirroring the stdin front end;
                        // the ack flushes in the post-loop drain if the
                        // socket is busy.
                        conn.close_after_flush = true;
                        stop.store(true, Ordering::SeqCst);
                    }
                }
                if n < READ_CHUNK {
                    return Ok(()); // drained the socket
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if is_disconnect(&e) => return Err(Close::Disconnect(e.kind())),
            Err(e) => return Err(Close::Error(e)),
        }
    }
    Ok(()) // read budget spent; level-triggered epoll re-reports next tick
}

/// Flushes what the socket will take and keeps writable-interest
/// registration in sync with whether bytes remain queued.
fn flush_and_rearm(poller: &Poller, conn: &mut Conn, _idx: usize) -> Result<(), Close> {
    let drained = conn.try_flush()?;
    if drained {
        if conn.close_after_flush {
            return Err(Close::Quiet);
        }
        if conn.want_write {
            conn.want_write = false;
            let _ = poller.modify(conn.stream.as_raw_fd(), conn.token, Interest::READ);
        }
    } else if !conn.want_write {
        conn.want_write = true;
        let _ = poller.modify(conn.stream.as_raw_fd(), conn.token, Interest::READ_WRITE);
    }
    Ok(())
}

/// Removes a connection from its shard, with the counter/log side effects
/// its close reason calls for. Dropping the connection drops any queued
/// permits, releasing their admission slots.
fn reap(
    ctx: &ServeCtx,
    poller: &Poller,
    slots: &mut [Slot],
    free: &mut Vec<usize>,
    idx: usize,
    why: Close,
) {
    let Some(conn) = slots[idx].conn.take() else {
        return;
    };
    let _ = poller.deregister(conn.stream.as_raw_fd());
    free.push(idx);
    match why {
        Close::Quiet => {}
        Close::Disconnect(kind) => {
            note_disconnect(ctx, "tcp", &std::io::Error::from(kind));
        }
        Close::ReadStall => {
            ctx.engine().recorder().add(Counter::ServeDeadlines, 1);
            eprintln!(
                "{}",
                json::obj(&[
                    ("event", json::str("stalled_connection_closed")),
                    (
                        "pending_bytes",
                        json::int(conn.framer.pending_bytes() as u64)
                    ),
                ])
            );
        }
        Close::WriteStall => {
            ctx.engine().recorder().add(Counter::ServeDisconnects, 1);
            eprintln!(
                "{}",
                json::obj(&[
                    ("event", json::str("slow_reader_closed")),
                    ("unflushed_bytes", json::int(conn.unflushed_bytes() as u64)),
                ])
            );
        }
        Close::Error(e) => {
            eprintln!("prim-serve: connection error: {e}");
        }
    }
    // conn drops here: fd closes (epoll auto-deregisters), permits release.
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn framer_reassembles_lines_across_arbitrary_chunks() {
        let stream = b"{\"op\": \"health\"}\n  \n{\"op\": \"shutdown\"}\n";
        // Feed the byte stream one byte at a time and in one shot; the
        // emitted lines must be identical.
        let mut one_shot = Vec::new();
        let mut f = LineFramer::new(0);
        f.push(stream, &mut |e| one_shot.push(e));

        let mut trickled = Vec::new();
        let mut f = LineFramer::new(0);
        for b in stream.iter() {
            f.push(std::slice::from_ref(b), &mut |e| trickled.push(e));
        }
        assert_eq!(one_shot, trickled);
        assert_eq!(
            one_shot,
            vec![
                LineEvent::Line("{\"op\": \"health\"}".into()),
                LineEvent::Line("{\"op\": \"shutdown\"}".into()),
            ]
        );
    }

    #[test]
    fn framer_rejects_oversized_lines_and_resyncs() {
        let mut events = Vec::new();
        let mut f = LineFramer::new(8);
        f.push(b"0123456789abcdef", &mut |e| events.push(e));
        assert!(matches!(events[..], [LineEvent::Oversized(_)]));
        // Still discarding: more oversized-tail bytes emit nothing.
        f.push(b"ghijkl", &mut |e| events.push(e));
        assert_eq!(events.len(), 1);
        // The newline resyncs; the next line parses normally.
        f.push(b"\nok\n", &mut |e| events.push(e));
        assert_eq!(events.len(), 2);
        assert_eq!(events[1], LineEvent::Line("ok".into()));
    }

    #[test]
    fn framer_tracks_mid_line_state() {
        let mut f = LineFramer::new(0);
        assert!(f.mid_line_since().is_none());
        f.push(b"{\"op\": ", &mut |_| {});
        assert!(f.mid_line_since().is_some());
        assert!(f.mid_line_content());
        f.push(b"\"health\"}\n", &mut |_| {});
        assert!(f.mid_line_since().is_none());
        // Pure whitespace pending is not "content" worth a disconnect log.
        f.push(b"   ", &mut |_| {});
        assert!(!f.mid_line_content());
    }
}
