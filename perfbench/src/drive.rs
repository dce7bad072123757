//! The in-process daemon and the closed-loop clients that drive it.

use crate::workload::{Expect, Kind, Op};
use graphene_serve::client::{request, Connection};
use graphene_serve::{ServeOptions, Server};
use graphene_tune::json::{parse, Json};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-request client timeout; a request past it counts as failed.
const TIMEOUT: Duration = Duration::from_secs(60);

/// A `graphene-serve` daemon running on a thread of this process.
pub struct Daemon {
    pub addr: String,
    handle: Option<JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    /// Binds a fresh daemon with two request workers and starts serving.
    pub fn start(sync_tune_limit: usize) -> Result<Daemon, String> {
        let opts = ServeOptions { workers: 2, sync_tune_limit, ..ServeOptions::default() };
        let server = Server::bind(opts).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
        Ok(Daemon { addr, handle: Some(std::thread::spawn(move || server.run())) })
    }

    /// Drains the daemon and waits for its threads.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(handle) = self.handle.take() else { return Ok(()) };
        request(&self.addr, r#"{"cmd":"shutdown"}"#, TIMEOUT).map_err(|e| e.to_string())?;
        handle.join().map_err(|_| "daemon thread panicked".to_string())?.map_err(|e| e.to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// One completed (or failed) op as the client saw it.
#[derive(Clone, Debug)]
pub struct Sample {
    pub id: u64,
    pub kind: Kind,
    pub rtt_us: f64,
    /// The response's `elapsed_us`, when it carried one.
    pub server_us: Option<f64>,
    pub ok: bool,
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Runs `order` (indices into `ops`) over `conns` persistent
/// connections in closed loop: each connection sends its next op only
/// after the previous reply. With `until`, no op starts after it.
pub fn drive(
    addr: &str,
    ops: &[Op],
    order: &[u32],
    conns: usize,
    until: Option<Instant>,
) -> Result<Vec<Sample>, String> {
    let next = AtomicUsize::new(0);
    let per_conn: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|s| {
        let workers: Vec<_> =
            (0..conns).map(|_| s.spawn(|| conn_loop(addr, ops, order, &next, until))).collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    let mut all = Vec::new();
    for samples in per_conn {
        all.extend(samples?);
    }
    all.sort_by_key(|s| s.id);
    Ok(all)
}

fn conn_loop(
    addr: &str,
    ops: &[Op],
    order: &[u32],
    next: &AtomicUsize,
    until: Option<Instant>,
) -> Result<Vec<Sample>, String> {
    let connect = || Connection::connect(addr, TIMEOUT).map_err(|e| format!("connect: {e}"));
    let mut conn = connect()?;
    let mut out = Vec::new();
    while until.is_none_or(|t| Instant::now() < t) {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(&op) = order.get(i) else { break };
        let op = &ops[op as usize];
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let line = op.line(id);
        let t0 = Instant::now();
        let resp = conn.request(&line);
        let rtt_us = t0.elapsed().as_secs_f64() * 1e6;
        let (ok, server_us) = match &resp {
            Ok(r) => check(r, &op.expect),
            Err(_) => (false, None),
        };
        out.push(Sample { id, kind: op.kind, rtt_us, server_us, ok });
        if resp.is_err() {
            conn = connect()?;
        }
    }
    Ok(out)
}

/// Whether a response is the expected outcome, plus its `elapsed_us`.
/// Busy and deadline rejections never count as an expected error.
fn check(resp: &str, expect: &Expect) -> (bool, Option<f64>) {
    let Ok(v) = parse(resp) else { return (false, None) };
    let field = |k: &str| v.get(k);
    let ok = field("ok") == Some(&Json::Bool(true));
    let server_us = field("elapsed_us").and_then(Json::as_f64);
    let good = match expect {
        Expect::Checksum(want) => {
            ok && field("checksum").and_then(Json::as_f64).map(|x| format!("{x:.6}")).as_ref()
                == Some(want)
        }
        Expect::LintClean => ok && field("errors").and_then(Json::as_i64) == Some(0),
        Expect::Error(text) => {
            let err = field("error").and_then(Json::as_str).unwrap_or("");
            !ok && err.contains(text) && !err.starts_with("busy") && !err.starts_with("deadline")
        }
        Expect::Tune { winner, best_time_s, winner_lint_errors } => {
            ok && *winner_lint_errors == 0
                && field("winner").and_then(Json::as_str) == Some(winner.as_str())
                && field("best_time_s").and_then(Json::as_f64).map(f64::to_bits)
                    == Some(best_time_s.to_bits())
        }
    };
    (good, server_us)
}
