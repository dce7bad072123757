//! The daemon itself: a `std::net` TCP listener feeding a bounded
//! worker-thread pool — no async runtime, no external dependencies.
//!
//! ## Threading model
//!
//! - The **accept thread** (the caller of [`Server::run`]) polls a
//!   nonblocking listener. Accepted connections enter a bounded
//!   admission queue; when the queue is full the connection is
//!   answered `{"ok":false,"error":"busy: ..."}` and closed
//!   immediately — explicit back-pressure instead of unbounded memory.
//! - **Request workers** pop connections and serve them request-by-
//!   request. A connection that out-waited the per-request deadline in
//!   the queue is rejected (`deadline exceeded`) without doing work —
//!   by the time a response could be computed the client has given up.
//! - **Job workers** drain the long-tune queue ([`crate::jobs`]).
//!
//! ## Drain
//!
//! A `shutdown` request or SIGTERM/SIGINT (see
//! [`install_signal_handlers`]) flips the drain flag: the accept loop
//! stops, in-flight requests finish, queued connections are still
//! served, running tunes are cooperatively cancelled, and `run`
//! returns. Nothing is killed mid-request.

use crate::handlers;
use crate::state::{ServerState, DEFAULT_SYNC_TUNE_LIMIT};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Tunables of one daemon instance.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address; port 0 picks a free port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Request worker threads.
    pub workers: usize,
    /// Admission-queue bound; connections past it are busy-rejected.
    pub queue_cap: usize,
    /// Max milliseconds a connection may wait in the admission queue
    /// before being rejected; `0` disables the deadline.
    pub deadline_ms: u64,
    /// Tunes with more planned proposals than this become async jobs.
    pub sync_tune_limit: usize,
    /// Job worker threads for long tunes.
    pub job_workers: usize,
    /// Optional `tune-cache.json` path for a persistent tuning
    /// database; in-memory when absent.
    pub cache: Option<String>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_cap: 64,
            deadline_ms: 5000,
            sync_tune_limit: DEFAULT_SYNC_TUNE_LIMIT,
            job_workers: 1,
            cache: None,
        }
    }
}

/// Set by the signal handler; polled by the accept loop.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SIGNALLED.store(true, Ordering::SeqCst);
}

/// Installs SIGTERM/SIGINT handlers that trigger a graceful drain of
/// every server in the process. Declared against raw `signal(2)` so
/// the workspace stays free of external crates; the handler only
/// stores an atomic flag, which is async-signal-safe.
pub fn install_signal_handlers() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    let h = on_signal as extern "C" fn(i32) as usize;
    unsafe {
        signal(SIGTERM, h);
        signal(SIGINT, h);
    }
}

#[derive(Default)]
struct ConnQueue {
    q: Mutex<VecDeque<(TcpStream, Instant)>>,
    ready: Condvar,
}

/// A bound-but-not-yet-running daemon. Binding is separate from
/// running so callers learn the OS-assigned port (and can hand the
/// shared state to an in-process bench harness) before serving.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    opts: ServeOptions,
}

impl Server {
    /// Binds the listener and builds the resident state.
    ///
    /// # Errors
    ///
    /// Socket errors from `TcpListener::bind`.
    pub fn bind(opts: ServeOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        let mut state = ServerState::new(opts.cache.as_deref());
        state.sync_tune_limit = opts.sync_tune_limit;
        Ok(Server { listener, state: Arc::new(state), opts })
    }

    /// The bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// Socket errors from the OS.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared resident state (for tests and the bench harness).
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Runs the daemon on the calling thread until drained.
    ///
    /// # Errors
    ///
    /// Socket-configuration errors; individual connection errors are
    /// contained to their connection.
    pub fn run(self) -> io::Result<()> {
        let Server { listener, state, opts } = self;
        listener.set_nonblocking(true)?;
        let queue = ConnQueue::default();
        let state = &*state;
        let queue = &queue;
        let opts = &opts;
        std::thread::scope(|s| {
            for _ in 0..opts.workers.max(1) {
                s.spawn(move || worker_loop(state, queue, opts));
            }
            for _ in 0..opts.job_workers.max(1) {
                s.spawn(move || {
                    while let Some((job, req)) = state.jobs.pop() {
                        handlers::run_tune_job(state, &req, &job);
                    }
                });
            }
            loop {
                if SIGNALLED.load(Ordering::SeqCst) {
                    state.start_drain();
                }
                if state.is_draining() {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _)) => admit(state, queue, opts, stream),
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::Interrupted =>
                    {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    // Transient accept errors (e.g. aborted handshakes)
                    // must not kill the daemon.
                    Err(_) => std::thread::sleep(Duration::from_millis(20)),
                }
            }
            // Drain: `start_drain` already closed the job queue; wake
            // request workers so they notice and exit once the
            // admission queue is empty. The scope joins everything.
            drop(listener);
            queue.ready.notify_all();
        });
        Ok(())
    }
}

/// Admission control: enqueue within the bound, busy-reject past it.
fn admit(state: &ServerState, queue: &ConnQueue, opts: &ServeOptions, stream: TcpStream) {
    let mut q = queue.q.lock().expect("admission queue poisoned");
    if q.len() >= opts.queue_cap.max(1) {
        drop(q);
        state.metrics.busy_rejected.fetch_add(1, Ordering::Relaxed);
        reject(stream, "busy: admission queue full, retry later");
        return;
    }
    q.push_back((stream, Instant::now()));
    drop(q);
    state.metrics.queued.fetch_add(1, Ordering::Relaxed);
    queue.ready.notify_one();
}

/// Writes a one-line error and closes the connection.
fn reject(mut stream: TcpStream, msg: &str) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = stream.write_all(crate::proto::err_envelope(0, msg).as_bytes());
    let _ = stream.write_all(b"\n");
}

fn worker_loop(state: &ServerState, queue: &ConnQueue, opts: &ServeOptions) {
    loop {
        let conn = {
            let mut q = queue.q.lock().expect("admission queue poisoned");
            loop {
                if let Some(c) = q.pop_front() {
                    state.metrics.queued.fetch_sub(1, Ordering::Relaxed);
                    break Some(c);
                }
                if state.is_draining() {
                    break None;
                }
                let (guard, _) = queue
                    .ready
                    .wait_timeout(q, Duration::from_millis(100))
                    .expect("admission queue poisoned");
                q = guard;
            }
        };
        let Some((stream, enqueued)) = conn else { return };
        if opts.deadline_ms > 0 && enqueued.elapsed() > Duration::from_millis(opts.deadline_ms) {
            state.metrics.deadline_rejected.fetch_add(1, Ordering::Relaxed);
            reject(
                stream,
                &format!(
                    "deadline exceeded: waited over {}ms in the admission queue",
                    opts.deadline_ms
                ),
            );
            continue;
        }
        serve_conn(state, stream);
    }
}

/// The longest request line a connection may send, in bytes (without
/// its newline). A longer line is discarded through its newline and
/// answered with an error, so one client cannot grow a worker's buffer
/// without bound.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Serves one connection: newline-delimited requests, one response
/// line each, until EOF — or until the daemon starts draining, at
/// which point the connection is closed after the in-flight request.
fn serve_conn(state: &ServerState, mut stream: TcpStream) {
    // The short read timeout is what lets an idle keep-alive
    // connection notice a drain instead of pinning its worker forever.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let _ = stream.set_nodelay(true);
    let mut buf: Vec<u8> = Vec::new();
    // `buf[..scanned]` holds no newline; `oversized` marks a line whose
    // head was already discarded.
    let (mut scanned, mut oversized) = (0usize, false);
    let mut chunk = [0u8; 4096];
    loop {
        while let Some(off) = buf[scanned..].iter().position(|&b| b == b'\n') {
            let pos = scanned + off;
            let line: Vec<u8> = buf.drain(..=pos).collect();
            scanned = 0;
            let resp = if std::mem::take(&mut oversized) || pos > MAX_LINE_BYTES {
                state.metrics.oversized.fetch_add(1, Ordering::Relaxed);
                crate::proto::err_envelope(
                    0,
                    &format!("request line exceeds the {MAX_LINE_BYTES}-byte limit"),
                )
            } else {
                let line = String::from_utf8_lossy(&line);
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                handlers::dispatch(state, line)
            };
            if stream.write_all(resp.as_bytes()).and_then(|()| stream.write_all(b"\n")).is_err() {
                return;
            }
            if state.is_draining() {
                return;
            }
        }
        scanned = buf.len();
        if scanned > MAX_LINE_BYTES {
            buf.clear();
            (scanned, oversized) = (0, true);
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                if state.is_draining() {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}
