//! The process-wide resident state: every cache the daemon keeps warm
//! across requests, behind `Sync` interfaces so the whole block is
//! shared by reference across the worker pool.
//!
//! A one-shot CLI `lint`/`run`/`run-graph`/`tune` dispatches its request
//! on a fresh `ServerState`, so its output is bit-identical to a
//! daemon's response by construction: the caches only decide whether
//! work is repeated.
//!
//! Cache keys are **canonical catalog problem strings** (e.g.
//! `m1024_n256_k64_none`), not launch shapes: two different GEMM
//! problems can share a grid/block shape, so a launch-keyed resident
//! cache would serve the wrong plan or trace.

use crate::handlers::within_limit;
use crate::jobs::JobQueue;
use crate::metrics::Metrics;
use crate::proto::Request;
use graphene_ir::Arch;
use graphene_sim::trace::TRACE_CACHE_CAPACITY;
use graphene_sim::{GraphTraceCache, KernelPlan, Memo, TraceCache};
use graphene_tune::{CostCache, SharedTuneDb};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Key of the resident plan cache.
pub type PlanKey = (String, String, Arch);

/// One cached compiled plan plus the metadata responses render.
#[derive(Debug)]
pub struct PlanEntry {
    /// The compiled execution plan.
    pub plan: KernelPlan,
    /// The kernel's name (the plan does not carry it).
    pub kernel_name: String,
    /// Canonical catalog problem key.
    pub problem: String,
}

/// Everything one daemon process keeps resident. Every cache is a
/// [`Memo`]: bounded, LRU, filled outside its lock.
pub struct ServerState {
    /// Compiled plans for `run`, bounded like the trace cache: each
    /// plan feeds at most one trace.
    pub(crate) plans: Memo<PlanKey, PlanEntry, TRACE_CACHE_CAPACITY>,
    /// Kernel traces for `run --exec replay`.
    pub traces: TraceCache,
    /// Whole-graph traces for `run-graph --exec replay`.
    pub graphs: GraphTraceCache,
    /// Candidate-pipeline outcomes shared across tunes.
    pub costs: CostCache,
    /// The tuning database: persistent when the server was given
    /// `--cache`, in-memory otherwise (repeat tunes still `db_hit`).
    pub db: SharedTuneDb,
    /// Request metrics.
    pub metrics: Metrics,
    /// Long-tune job queue; payload is the original request.
    pub jobs: JobQueue<Request>,
    /// Tunes whose planned proposal count exceeds this run as async
    /// jobs instead of synchronously (see [`crate::handlers`]).
    pub sync_tune_limit: usize,
    /// Tune requests answered straight from the database.
    pub db_hits: AtomicU64,
    /// Set by `shutdown` or SIGTERM: stop accepting, finish in-flight.
    pub draining: AtomicBool,
}

/// Default [`ServerState::sync_tune_limit`]: an exhaustive layernorm
/// space (~tens of points) stays synchronous; paper-size GEMM spaces
/// (hundreds) become jobs.
pub const DEFAULT_SYNC_TUNE_LIMIT: usize = 128;

impl ServerState {
    /// Fresh state; `cache` is the optional `tune-cache.json` path.
    pub fn new(cache: Option<&str>) -> ServerState {
        ServerState {
            plans: Memo::new(),
            traces: TraceCache::new(),
            graphs: GraphTraceCache::new(),
            costs: CostCache::new(),
            db: cache.map_or_else(SharedTuneDb::in_memory, SharedTuneDb::load),
            metrics: Metrics::new(),
            jobs: JobQueue::new(),
            sync_tune_limit: DEFAULT_SYNC_TUNE_LIMIT,
            db_hits: AtomicU64::new(0),
            draining: AtomicBool::new(false),
        }
    }

    /// The compiled plan for `(kernel, problem, arch)`. The key comes
    /// from the options alone ([`graphene_kernels::catalog::resolve`]);
    /// only a miss builds the kernel and compiles it, outside the
    /// memo's lock. A problem whose global buffers exceed
    /// [`crate::handlers::MAX_REQUEST_SCALARS`] is refused inside that
    /// miss, so it leaves nothing cached or counted.
    ///
    /// # Errors
    ///
    /// Catalog option errors, plan-compilation errors or the size
    /// refusal, as one user-facing string.
    pub fn plan_for(
        &self,
        name: &str,
        arch: Arch,
        opts: &HashMap<String, String>,
    ) -> Result<(Arc<PlanEntry>, bool), String> {
        let resolved = graphene_kernels::catalog::resolve(name, arch, opts)?;
        let key: PlanKey = (name.to_string(), resolved.problem.clone(), arch);
        self.plans.get_or_insert_with(&key, || {
            let kernel = resolved.build();
            let plan = KernelPlan::compile(&kernel, arch).map_err(|e| e.to_string())?;
            within_limit(plan.params().iter().map(|&(_, _, len)| len as u128).sum())?;
            Ok(PlanEntry { plan, kernel_name: kernel.name, problem: resolved.problem })
        })
    }

    /// `(hits, recordings, len)` of the plan cache.
    pub fn plan_stats(&self) -> (u64, u64, usize) {
        (self.plans.hits(), self.plans.recordings(), self.plans.len())
    }

    /// Whether the daemon is draining.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    /// Flags the daemon to drain (idempotent).
    pub fn start_drain(&self) {
        self.draining.store(true, Ordering::Relaxed);
        self.jobs.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
    }

    #[test]
    fn plan_cache_hits_on_repeat_and_distinguishes_problems() {
        let s = ServerState::new(None);
        let o = opts(&[("m", "256"), ("n", "256"), ("k", "64")]);
        let (a, hit_a) = s.plan_for("gemm", Arch::Sm86, &o).unwrap();
        assert!(!hit_a);
        let (b, hit_b) = s.plan_for("gemm", Arch::Sm86, &o).unwrap();
        assert!(hit_b, "second identical request must be a plan hit");
        assert!(Arc::ptr_eq(&a, &b));
        // Same launch shape, different problem: distinct entries.
        let (c, hit_c) = s
            .plan_for("gemm", Arch::Sm86, &opts(&[("m", "1024"), ("n", "256"), ("k", "64")]))
            .unwrap();
        assert!(!hit_c);
        assert_ne!(a.problem, c.problem);
        assert_eq!(s.plan_stats(), (1, 2, 2));
    }

    #[test]
    fn plan_errors_surface_catalog_messages() {
        let s = ServerState::new(None);
        let err = s.plan_for("gemm", Arch::Sm86, &opts(&[("m", "100")])).unwrap_err();
        assert!(err.contains("must tile by"), "{err}");
        assert_eq!(s.plan_stats(), (0, 0, 0), "failed builds must not pollute the cache");
    }
}
