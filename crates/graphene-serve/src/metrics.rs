//! Request metrics: per-command latency histograms plus admission
//! counters, all lock-free (`AtomicU64`) so the hot request path never
//! serializes on bookkeeping.
//!
//! Latencies are recorded in microseconds into log₂ buckets — bucket
//! *i* holds requests that took `< 2^i us` — which is plenty for the
//! cold-vs-warm contrast the daemon exists to demonstrate (a cold
//! `run` records a trace in milliseconds; a warm one replays in
//! microseconds, several buckets down).

use std::sync::atomic::{AtomicU64, Ordering};

/// The fixed command set with per-command histograms, in render order.
pub const CMDS: &[&str] =
    &["lint", "run", "run-graph", "tune", "poll", "cancel", "stats", "shutdown"];

const BUCKETS: usize = 28;

/// One command's latency histogram.
#[derive(Debug, Default)]
struct Hist {
    count: AtomicU64,
    sum_us: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Hist {
    fn record(&self, us: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        let bucket = (64 - us.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Upper bound (us) of the bucket containing quantile `q`.
    fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count.load(Ordering::Relaxed);
        if total == 0 {
            return 0;
        }
        let target = ((total as f64) * q).ceil() as u64;
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return 1u64 << i;
            }
        }
        1u64 << (BUCKETS - 1)
    }

    fn render_json(&self) -> String {
        let count = self.count.load(Ordering::Relaxed);
        let sum = self.sum_us.load(Ordering::Relaxed);
        let mean = if count == 0 { 0.0 } else { sum as f64 / count as f64 };
        format!(
            "{{\"count\":{count},\"mean_us\":{mean:.1},\"p50_us\":{},\"p99_us\":{}}}",
            self.quantile_us(0.50),
            self.quantile_us(0.99)
        )
    }
}

/// Process-wide request metrics.
#[derive(Debug, Default)]
pub struct Metrics {
    hists: [Hist; CMDS.len()],
    /// Requests currently executing in a worker.
    pub in_flight: AtomicU64,
    /// Connections waiting in the admission queue.
    pub queued: AtomicU64,
    /// Connections rejected because the admission queue was full.
    pub busy_rejected: AtomicU64,
    /// Connections rejected because they out-waited the deadline.
    pub deadline_rejected: AtomicU64,
    /// Request lines that failed to parse.
    pub malformed: AtomicU64,
    /// Request lines longer than [`crate::server::MAX_LINE_BYTES`],
    /// discarded without being parsed.
    pub oversized: AtomicU64,
    /// Requests whose handler panicked (answered with an error
    /// envelope; the worker keeps serving).
    pub panics: AtomicU64,
}

impl Metrics {
    /// A zeroed metrics block.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Records one completed request of type `cmd` taking `us`
    /// microseconds. Unknown commands are dropped (they were rejected
    /// before doing work).
    pub fn record(&self, cmd: &str, us: u64) {
        if let Some(i) = CMDS.iter().position(|c| *c == cmd) {
            self.hists[i].record(us);
        }
    }

    /// Completed-request count for `cmd`.
    pub fn count(&self, cmd: &str) -> u64 {
        CMDS.iter()
            .position(|c| *c == cmd)
            .map_or(0, |i| self.hists[i].count.load(Ordering::Relaxed))
    }

    /// Renders the `"requests"` object for the `stats` response:
    /// `{"run":{"count":..,"mean_us":..,"p50_us":..,"p99_us":..},...}`
    /// (commands with no traffic are omitted).
    pub fn render_json(&self) -> String {
        let fields: Vec<String> = CMDS
            .iter()
            .zip(&self.hists)
            .filter(|(_, h)| h.count.load(Ordering::Relaxed) > 0)
            .map(|(c, h)| format!("\"{c}\":{}", h.render_json()))
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_separate_cold_from_warm() {
        let m = Metrics::new();
        // Two cold requests (5 ms) and ninety-eight warm ones (20 us).
        m.record("run", 5_000);
        m.record("run", 5_000);
        for _ in 0..98 {
            m.record("run", 20);
        }
        assert_eq!(m.count("run"), 100);
        let json = m.render_json();
        assert!(json.contains("\"run\":{\"count\":100"), "{json}");
        // p50 sits in the warm bucket (<= 32 us), p99 in the cold one.
        let h = &m.hists[CMDS.iter().position(|c| *c == "run").unwrap()];
        assert!(h.quantile_us(0.5) <= 32, "p50 {}", h.quantile_us(0.5));
        assert!(h.quantile_us(0.99) >= 4096, "p99 {}", h.quantile_us(0.99));
    }

    #[test]
    fn unknown_and_idle_commands_stay_out_of_the_report() {
        let m = Metrics::new();
        m.record("frobnicate", 10);
        assert_eq!(m.render_json(), "{}");
        m.record("lint", 10);
        assert!(m.render_json().starts_with("{\"lint\""));
        assert_eq!(m.count("tune"), 0);
    }
}
