//! # graphene-tune
//!
//! Search-based schedule autotuning for Graphene kernels.
//!
//! The paper's schedules (GEMM tiles, FMHA query tiles, layernorm row
//! grouping, fused-MLP warp tiles) are hand-picked; this crate turns
//! that choice into a search problem over the same IR:
//!
//! - **[`space`]** — a [`SearchSpace`] names the tunable parameters of
//!   a kernel family, constrains which combinations are buildable, and
//!   builds the kernel for a point. Spaces ship for every paper kernel
//!   with a meaningful schedule choice.
//! - **[`tuner`]** — pluggable [`Search`] strategies (exhaustive,
//!   seeded random, beam hill-climb) drive a candidate pipeline that
//!   prunes illegal schedules *statically* with the full
//!   `graphene-analysis` diagnostics before any costing, then costs
//!   survivors in parallel with the simulator's counter analysis and
//!   roofline timing model. Ranking is deterministic (time, then
//!   counter tie-breaks). A [`CostCache`] records each point's
//!   pipeline outcome so overlapping or repeated searches replay
//!   instead of re-simulating ([`tune_observed`]).
//! - **[`db`]** — a versioned persistent database (`tune-cache.json`)
//!   keyed by `(kernel, problem, arch, space hash)`; a warm second run
//!   of the same search is served without a single candidate
//!   simulation.
//!
//! The serve daemon's `tune` command (and with it the `graphene tune`
//! one-shot, which dispatches the same request in process) goes through
//! [`tune_observed`], the one entry point.
//!
//! ```
//! use graphene_ir::Arch;
//! use graphene_kernels::gemm::Epilogue;
//! use graphene_tune::{tune_observed, GemmSpace, Search, TuneOptions};
//!
//! let space = GemmSpace::new(Arch::Sm86, 512, 512, 256, Epilogue::None);
//! let opts = TuneOptions {
//!     search: Search::Random { seed: 0, samples: 20 },
//!     ..TuneOptions::default()
//! };
//! let report = tune_observed(&space, &opts, None, None, None).unwrap();
//! assert!(report.stats.simulated > 0);
//! ```

#![warn(missing_docs)]

pub mod catalog;
pub mod db;
pub mod json;
pub mod space;
pub mod tuner;

pub use db::{DbEntry, SharedTuneDb, TuneDb, TUNE_DB_VERSION};
pub use space::{FmhaSpace, GemmSpace, LayernormSpace, MlpSpace, ParamDef, Point, SearchSpace};
pub use tuner::{
    planned_proposals, rank, Candidate, CostCache, Search, TuneError, TuneOptions, TuneProgress,
    TuneReport, TuneStats,
};

/// Tunes a space: consult the database (if given), otherwise run the
/// search and record the winner back. A [`SharedTuneDb`], an optional
/// [`CostCache`] and an optional [`TuneProgress`] observer may be given.
///
/// On a database hit the returned report carries the stored point and
/// time with `stats.db_hit = true` and **zero** simulations — the
/// candidate pipeline never runs. Candidate outcomes recorded in `costs` by earlier searches
/// replay without re-building or re-simulating. The database lookup,
/// the (observable, cancellable) search, and the merged write-back all
/// go through the shared handle, so concurrent tunes from many request
/// threads neither race the file nor lose each other's entries.
///
/// # Errors
///
/// [`TuneError::NoLegalCandidate`] when every proposed point is pruned;
/// [`TuneError::Db`] when the winner cannot be persisted;
/// [`TuneError::Cancelled`] when the observer cancelled the search.
pub fn tune_observed(
    space: &dyn SearchSpace,
    opts: &TuneOptions,
    db: Option<&SharedTuneDb>,
    costs: Option<&CostCache>,
    progress: Option<&dyn TuneProgress>,
) -> Result<TuneReport, TuneError> {
    if let Some(db) = db {
        if let Some((point, entry)) = db.lookup(space) {
            return Ok(db_hit_report(space, point, entry.time_s));
        }
    }
    let report = tuner::run_search_observed(space, opts, costs, progress)?;
    if let Some(db) = db {
        db.record_and_save(space, &report.best_point, report.best_time_s, report.stats.simulated)
            .map_err(|e| TuneError::Db(e.to_string()))?;
    }
    Ok(report)
}

/// The report of a search served from the database: the stored winner,
/// no leaderboard, no default timing, zero simulations.
fn db_hit_report(space: &dyn SearchSpace, point: Point, time_s: f64) -> TuneReport {
    TuneReport {
        space: space.name().to_string(),
        problem: space.problem_key(),
        best_desc: space.describe(&point),
        best_point: point,
        best_time_s: time_s,
        default_time_s: None,
        leaderboard: Vec::new(),
        stats: TuneStats { db_hit: true, ..TuneStats::default() },
    }
}
