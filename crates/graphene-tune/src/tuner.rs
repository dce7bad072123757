//! The candidate pipeline: propose → prune → cost → rank.
//!
//! Every proposed [`Point`] flows through three gates:
//!
//! 1. **Constraint prune** — [`SearchSpace::constraint`], pure
//!    arithmetic, rejects untileable/unbuildable combinations without
//!    constructing anything.
//! 2. **Static-analysis prune** — the candidate is built and run
//!    through the full `graphene-analysis` pipeline
//!    ([`analyze_kernel_cached`]); any *error* diagnostic (race,
//!    shared-memory overflow, memory-space violation, …) rejects it.
//!    Schedules that merely *warn* (e.g. `GRA014` bank conflicts)
//!    survive — the timing model charges them for the conflicts
//!    instead. (GEMM candidates rarely warn any more: the builder
//!    resolves swizzling by proof before the candidate is graded.)
//! 3. **Costing** — the simulator's static counter analysis
//!    ([`analyze_cached`]) plus the roofline timing model
//!    ([`time_kernel`]). Both analysis and costing share one
//!    per-candidate [`PlanCache`], so each tensor's address plan is
//!    compiled once and reused across all passes (plans are keyed by
//!    tensor id, which is only meaningful within one kernel — the
//!    cache is deliberately *not* shared between candidates).
//!
//! A [`CostCache`] sits across the whole pipeline after the constraint
//! gate: the first evaluation of a point *records* its outcome
//! (rejection reason, or profile + counters), and every later
//! evaluation of the same `(space, problem, arch, point)` *replays* the
//! recording — the tuner-side analog of the simulator's trace cache.
//!
//! Candidates are evaluated in parallel with `std::thread::scope`
//! workers pulling from a shared index; results keep submission order,
//! so reports are deterministic regardless of thread interleaving.
//! Ranking is by simulated `time_s` with deterministic tie-breaks on
//! counters (shared-memory transactions, DRAM bytes, instructions) and
//! finally the point itself.

use crate::space::{Point, SearchSpace};
use graphene_analysis::{analyze_kernel_cached, error_count, Severity};
use graphene_sim::{
    analyze_cached, machine_for, time_kernel, Counters, KernelProfile, Memo, PlanCache,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};

/// A search strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Search {
    /// Enumerate the whole space (default point first).
    Exhaustive,
    /// `samples` seeded-random distinct points (plus the default).
    Random {
        /// RNG seed (deterministic across runs).
        seed: u64,
        /// Number of random points to propose.
        samples: usize,
    },
    /// Beam hill-climb: keep the best `width` candidates, expand their
    /// one-step parameter neighbourhoods, stop after `patience` rounds
    /// without improving the global best.
    Beam {
        /// RNG seed for the initial frontier.
        seed: u64,
        /// Beam width (candidates kept per round).
        width: usize,
        /// Rounds without improvement before terminating early.
        patience: usize,
    },
}

/// Tuner options.
#[derive(Debug, Clone)]
pub struct TuneOptions {
    /// The strategy.
    pub search: Search,
    /// Maximum number of candidates to *cost* (simulate). Pruned
    /// candidates are free. Checked between parallel batches, so a
    /// batch in flight may finish. `None` = unlimited.
    pub budget: Option<usize>,
    /// Worker threads for candidate evaluation (0 = one per available
    /// core).
    pub threads: usize,
    /// Leaderboard length retained in the report.
    pub top: usize,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions { search: Search::Exhaustive, budget: None, threads: 0, top: 5 }
    }
}

/// One fully costed candidate.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Its point in the space.
    pub point: Point,
    /// Simulated timing profile.
    pub profile: KernelProfile,
    /// The static counters behind the profile.
    pub counters: Counters,
    /// `GRA014` bank-conflict warnings the analysis pipeline issued.
    pub conflict_warnings: usize,
}

/// What happened to the candidates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TuneStats {
    /// Points proposed by the strategy.
    pub proposed: usize,
    /// Rejected by [`SearchSpace::constraint`] (never built).
    pub pruned_constraint: usize,
    /// Built but rejected by static analysis (error diagnostics).
    pub pruned_analysis: usize,
    /// Candidates costed through the simulator.
    pub simulated: usize,
    /// Outcomes replayed from a [`CostCache`] recording — the point was
    /// neither rebuilt nor re-analysed nor re-simulated.
    pub cost_replayed: usize,
    /// Served from the tuning database without any simulation.
    pub db_hit: bool,
}

/// The tuner's result.
#[derive(Debug, Clone)]
pub struct TuneReport {
    /// Space name.
    pub space: String,
    /// Problem key.
    pub problem: String,
    /// `name=value` rendering of the winning point.
    pub best_desc: String,
    /// The winning point.
    pub best_point: Point,
    /// Simulated time of the winner, seconds.
    pub best_time_s: f64,
    /// The search's own costing of [`SearchSpace::default_point`], the
    /// hand-picked schedule (`None` on a database hit, or when the
    /// default was pruned).
    pub default_time_s: Option<f64>,
    /// Top candidates, best first (empty on a database hit).
    pub leaderboard: Vec<Candidate>,
    /// Pipeline accounting.
    pub stats: TuneStats,
}

/// Why tuning produced nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TuneError {
    /// Every proposed point was pruned; carries the last prune reason.
    NoLegalCandidate {
        /// Points the strategy proposed.
        proposed: usize,
        /// The last rejection reason observed, if any.
        last_reason: Option<String>,
    },
    /// The tuning database could not be written.
    Db(String),
    /// The search was cancelled by its [`TuneProgress`] observer
    /// before a winner was decided (partial results are discarded).
    Cancelled,
}

impl std::fmt::Display for TuneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuneError::NoLegalCandidate { proposed, last_reason } => {
                write!(f, "no legal candidate among {proposed} proposed points")?;
                if let Some(r) = last_reason {
                    write!(f, " (last rejection: {r})")?;
                }
                Ok(())
            }
            TuneError::Db(e) => write!(f, "tuning database: {e}"),
            TuneError::Cancelled => write!(f, "search cancelled"),
        }
    }
}

impl std::error::Error for TuneError {}

/// Observer of a running search: batch-granular progress plus
/// cooperative cancellation. Implementations must be `Sync` — the
/// daemon's job queue polls one observer from its request threads
/// while the search runs on a worker.
///
/// Progress is reported as `(proposed, planned)` where `planned` is
/// the strategy's *a-priori* proposal estimate (exact for exhaustive
/// and random searches, an upper-ish heuristic for beam search, whose
/// round count is data-dependent). Consumers should clamp the derived
/// fraction below 1.0 until the search actually returns.
pub trait TuneProgress: Sync {
    /// Called after every evaluated batch.
    fn on_progress(&self, proposed: usize, planned: usize) {
        let _ = (proposed, planned);
    }

    /// Polled between batches; returning `true` aborts the search with
    /// [`TuneError::Cancelled`].
    fn cancelled(&self) -> bool {
        false
    }
}

/// Deterministic candidate ranking: simulated time, then cheaper
/// counters, then the point itself.
pub fn rank(a: &Candidate, b: &Candidate) -> Ordering {
    a.profile
        .time_s
        .partial_cmp(&b.profile.time_s)
        .unwrap_or(Ordering::Equal)
        .then_with(|| a.counters.smem_transactions.cmp(&b.counters.smem_transactions))
        .then_with(|| a.counters.dram_bytes().cmp(&b.counters.dram_bytes()))
        .then_with(|| a.counters.instructions.cmp(&b.counters.instructions))
        .then_with(|| a.point.cmp(&b.point))
}

enum Outcome {
    Pruned(String),
    Rejected(String),
    Costed(Box<Candidate>),
}

/// What one recorded evaluation replays to: the costed candidate, or
/// why static or counter analysis rejected it. Constraint prunes are
/// pure arithmetic — cheaper to redo than to cache.
pub type CostRecord = Result<Candidate, String>;

/// Default [`CostCache`] capacity: a large multiple of GEMM's 864-point
/// sm86 space, so no single search evicts its own points.
pub const COST_CACHE_CAPACITY: usize = 65_536;

/// Record-once/replay-many at the *costing* layer — the tuner-side
/// analog of the simulator's trace cache, and the same [`Memo`]. The
/// first time a point survives its constraint gate, the full build →
/// lint → counter → roofline pipeline runs and its outcome is recorded;
/// every later evaluation of the same `(space, problem, arch, point)`
/// replays the recording without constructing a kernel, compiling an
/// address plan, or touching the simulator.
///
/// Keys include the space hash, so editing a space's parameter table
/// invalidates its recordings by construction. The cache is `Sync`:
/// batch workers consult it concurrently, and it can be shared across
/// whole tuning runs (e.g. re-tuning after a database wipe, or
/// overlapping beam/random searches of one space).
pub type CostCache = Memo<String, CostRecord, COST_CACHE_CAPACITY>;

fn cost_key(space: &dyn SearchSpace, point: &Point) -> String {
    format!(
        "{}|{}|{:?}|{:016x}|{:?}",
        space.name(),
        space.problem_key(),
        space.arch(),
        space.space_hash(),
        point.0
    )
}

/// Evaluates one point through the full pipeline. The boolean is true
/// when the outcome was replayed from `costs` instead of recomputed.
fn evaluate(space: &dyn SearchSpace, point: &Point, costs: Option<&CostCache>) -> (Outcome, bool) {
    if let Err(reason) = space.constraint(point) {
        return (Outcome::Pruned(reason), false);
    }
    let recorded = match costs {
        Some(cache) => cache.get_or_insert_with(&cost_key(space, point), || cost(space, point)),
        None => cost(space, point).map(|rec| (Arc::new(rec), false)),
    };
    match recorded {
        Err(reason) => (Outcome::Pruned(reason), false),
        Ok((rec, replayed)) => match &*rec {
            Ok(c) => (Outcome::Costed(Box::new(c.clone())), replayed),
            Err(r) => (Outcome::Rejected(r.clone()), replayed),
        },
    }
}

/// Builds, lints and costs a point that passed its constraint: the
/// pipeline a [`CostCache`] records. `Err` is a builder panic, a prune
/// that is never recorded.
fn cost(space: &dyn SearchSpace, point: &Point) -> Result<CostRecord, String> {
    // A panic here means the space's constraint is not conservative
    // enough; treat it as a prune so the search survives.
    let kernel = catch_unwind(AssertUnwindSafe(|| space.build(point)))
        .map_err(|_| "builder rejected the point (panic)".to_string())?;
    let arch = space.arch();
    // One plan cache per candidate: analysis and costing reuse each
    // tensor's compiled address plan.
    let mut plans = PlanCache::new();
    let diags = analyze_kernel_cached(&kernel, arch, &mut plans);
    if error_count(&diags) > 0 {
        let first = diags
            .iter()
            .find(|d| d.severity == Severity::Error)
            .map(|d| format!("{}: {}", d.code, d.message))
            .unwrap_or_default();
        return Ok(Err(first));
    }
    let conflict_warnings = diags.iter().filter(|d| d.code == "GRA014").count();
    Ok(match analyze_cached(&kernel, arch, &HashMap::new(), &mut plans) {
        Ok(counters) => {
            let profile = time_kernel(&counters, machine_for(arch), kernel.grid_size());
            Ok(Candidate { point: point.clone(), profile, counters, conflict_warnings })
        }
        Err(e) => Err(format!("counter analysis failed: {e:?}")),
    })
}

/// Evaluates a batch in parallel, preserving input order.
fn evaluate_batch(
    space: &dyn SearchSpace,
    points: &[Point],
    threads: usize,
    costs: Option<&CostCache>,
) -> Vec<(Outcome, bool)> {
    let workers = if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        threads
    }
    .min(points.len().max(1));
    if workers <= 1 {
        return points.iter().map(|p| evaluate(space, p, costs)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<(Outcome, bool)>>> =
        points.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, AtomicOrdering::Relaxed);
                if i >= points.len() {
                    break;
                }
                let out = evaluate(space, &points[i], costs);
                *slots[i].lock().unwrap() = Some(out);
            });
        }
    });
    slots.into_iter().map(|m| m.into_inner().unwrap().expect("every slot evaluated")).collect()
}

/// Incremental accumulator over evaluated batches.
struct Session<'s> {
    space: &'s dyn SearchSpace,
    opts: &'s TuneOptions,
    costs: Option<&'s CostCache>,
    progress: Option<&'s dyn TuneProgress>,
    /// Strategy's a-priori proposal estimate, for progress fractions.
    planned: usize,
    stats: TuneStats,
    costed: Vec<Candidate>,
    last_reason: Option<String>,
    seen: HashSet<Point>,
}

impl<'s> Session<'s> {
    fn new(
        space: &'s dyn SearchSpace,
        opts: &'s TuneOptions,
        costs: Option<&'s CostCache>,
        progress: Option<&'s dyn TuneProgress>,
        planned: usize,
    ) -> Self {
        Session {
            space,
            opts,
            costs,
            progress,
            planned,
            stats: TuneStats::default(),
            costed: Vec::new(),
            last_reason: None,
            seen: HashSet::new(),
        }
    }

    fn budget_left(&self) -> bool {
        self.opts.budget.is_none_or(|b| self.stats.simulated < b)
    }

    /// Polled between batches; a cancelled session stops proposing.
    fn cancelled(&self) -> bool {
        self.progress.is_some_and(|p| p.cancelled())
    }

    /// Proposes a batch (dropping points already seen), evaluates it,
    /// and folds the outcomes in. Returns the candidates this batch
    /// costed.
    fn run_batch(&mut self, batch: Vec<Point>) -> Vec<Candidate> {
        let fresh: Vec<Point> = batch.into_iter().filter(|p| self.seen.insert(p.clone())).collect();
        if fresh.is_empty() {
            return Vec::new();
        }
        if self.cancelled() {
            return Vec::new();
        }
        self.stats.proposed += fresh.len();
        let mut new = Vec::new();
        for (out, replayed) in evaluate_batch(self.space, &fresh, self.opts.threads, self.costs) {
            if replayed {
                self.stats.cost_replayed += 1;
            }
            match out {
                Outcome::Pruned(r) => {
                    self.stats.pruned_constraint += 1;
                    self.last_reason = Some(r);
                }
                Outcome::Rejected(r) => {
                    self.stats.pruned_analysis += 1;
                    self.last_reason = Some(r);
                }
                Outcome::Costed(c) => {
                    // A replayed candidate costs nothing: it does not
                    // consume the simulation budget.
                    if !replayed {
                        self.stats.simulated += 1;
                    }
                    new.push((*c).clone());
                    self.costed.push(*c);
                }
            }
        }
        if let Some(p) = self.progress {
            p.on_progress(self.stats.proposed, self.planned);
        }
        new
    }

    fn finish(mut self) -> Result<TuneReport, TuneError> {
        if self.costed.is_empty() {
            return Err(TuneError::NoLegalCandidate {
                proposed: self.stats.proposed,
                last_reason: self.last_reason,
            });
        }
        let default = self.space.default_point();
        let default_time_s =
            self.costed.iter().find(|c| c.point == default).map(|c| c.profile.time_s);
        self.costed.sort_by(rank);
        self.costed.truncate(self.opts.top.max(1));
        let best = self.costed[0].clone();
        Ok(TuneReport {
            space: self.space.name().to_string(),
            problem: self.space.problem_key(),
            best_desc: self.space.describe(&best.point),
            best_point: best.point.clone(),
            best_time_s: best.profile.time_s,
            default_time_s,
            leaderboard: self.costed,
            stats: self.stats,
        })
    }
}

/// Batch size between budget checks: big enough to keep every worker
/// busy, small enough that a budget overshoot stays bounded.
const BATCH: usize = 64;

/// Runs a search over a space. This is the strategy driver; the
/// database-aware entry point is [`crate::tune`].
pub fn run_search(space: &dyn SearchSpace, opts: &TuneOptions) -> Result<TuneReport, TuneError> {
    run_search_cached(space, opts, None)
}

/// [`run_search`] with an optional [`CostCache`]: points already
/// recorded in `costs` replay their outcomes instead of re-running the
/// build/lint/cost pipeline, and fresh pipeline runs are recorded for
/// the next search. Replays are reported in
/// [`TuneStats::cost_replayed`] and are budget-free.
pub fn run_search_cached(
    space: &dyn SearchSpace,
    opts: &TuneOptions,
    costs: Option<&CostCache>,
) -> Result<TuneReport, TuneError> {
    run_search_observed(space, opts, costs, None)
}

/// The strategy's a-priori proposal count: exact for exhaustive and
/// random searches, a round-count heuristic for beam search (whose
/// actual length is data-dependent). Used for progress fractions.
pub fn planned_proposals(space: &dyn SearchSpace, search: &Search) -> usize {
    let total = space.total_points();
    match *search {
        Search::Exhaustive => total + 1,
        Search::Random { samples, .. } => samples + 1,
        Search::Beam { width, patience, .. } => {
            // Initial frontier plus an assumed `4 * patience` rounds of
            // one-step neighbourhoods, capped by the space itself.
            let per_round = width * space.params().len() * 2;
            ((width * 4 + 1) + per_round * patience * 4).min(total + 1)
        }
    }
}

/// [`run_search_cached`] with an optional [`TuneProgress`] observer:
/// batch-granular progress callbacks and cooperative cancellation.
///
/// # Errors
///
/// [`TuneError::Cancelled`] when the observer requested cancellation;
/// otherwise as [`run_search`].
pub fn run_search_observed(
    space: &dyn SearchSpace,
    opts: &TuneOptions,
    costs: Option<&CostCache>,
    progress: Option<&dyn TuneProgress>,
) -> Result<TuneReport, TuneError> {
    let planned = planned_proposals(space, &opts.search);
    let mut sess = Session::new(space, opts, costs, progress, planned);
    match opts.search {
        Search::Exhaustive => {
            // Default first so a budget-capped run still covers it.
            sess.run_batch(vec![space.default_point()]);
            let total = space.total_points();
            let mut i = 0;
            while i < total && sess.budget_left() && !sess.cancelled() {
                let end = (i + BATCH).min(total);
                sess.run_batch((i..end).map(|j| space.point_at(j)).collect());
                i = end;
            }
        }
        Search::Random { seed, samples } => {
            sess.run_batch(vec![space.default_point()]);
            let mut rng = StdRng::seed_from_u64(seed);
            let total = space.total_points();
            let mut proposed = 0;
            // Distinct sampling with a bounded number of redraws.
            let mut attempts = 0;
            let mut batch = Vec::new();
            while proposed < samples
                && attempts < samples * 20
                && sess.budget_left()
                && !sess.cancelled()
            {
                attempts += 1;
                let p = space.point_at(rng.gen_range(0..total));
                if sess.seen.contains(&p) || batch.contains(&p) {
                    continue;
                }
                batch.push(p);
                proposed += 1;
                if batch.len() >= BATCH {
                    sess.run_batch(std::mem::take(&mut batch));
                }
            }
            sess.run_batch(batch);
        }
        Search::Beam { seed, width, patience } => {
            let width = width.max(1);
            // Initial frontier: the default plus random seeds.
            let mut rng = StdRng::seed_from_u64(seed);
            let total = space.total_points();
            let mut init = vec![space.default_point()];
            for _ in 0..(width * 4).min(total) {
                init.push(space.point_at(rng.gen_range(0..total)));
            }
            sess.run_batch(init);
            let mut beam = sess.costed.clone();
            beam.sort_by(rank);
            beam.truncate(width);
            let mut best_t = beam.first().map(|c| c.profile.time_s);
            let mut stale = 0;
            while stale < patience && sess.budget_left() && !sess.cancelled() && !beam.is_empty() {
                let frontier: Vec<Point> = beam
                    .iter()
                    .flat_map(|c| neighbours(space, &c.point))
                    .filter(|p| !sess.seen.contains(p))
                    .collect();
                if frontier.is_empty() {
                    break;
                }
                let new = sess.run_batch(frontier);
                beam.extend(new);
                beam.sort_by(rank);
                beam.dedup_by(|a, b| a.point == b.point);
                beam.truncate(width);
                let now = beam[0].profile.time_s;
                if best_t.is_none_or(|t| now < t) {
                    best_t = Some(now);
                    stale = 0;
                } else {
                    stale += 1;
                }
            }
        }
    }
    if sess.cancelled() {
        return Err(TuneError::Cancelled);
    }
    sess.finish()
}

/// One-step neighbourhood of a point: each parameter moved to its
/// adjacent value (both directions), one at a time.
fn neighbours(space: &dyn SearchSpace, p: &Point) -> Vec<Point> {
    let defs = space.params();
    let mut out = Vec::new();
    for (i, d) in defs.iter().enumerate() {
        let idx = d.values.iter().position(|&v| v == p.0[i]).expect("point value in space");
        for j in [idx.wrapping_sub(1), idx + 1] {
            if let Some(&v) = d.values.get(j) {
                let mut q = p.clone();
                q.0[i] = v;
                out.push(q);
            }
        }
    }
    out
}
