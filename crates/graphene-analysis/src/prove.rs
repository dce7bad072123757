//! Kernel-level proof reporting: conflict-freedom, race-freedom, and
//! in-bounds proofs (`GRA015`), plus F₂ swizzle synthesis.
//!
//! [`prove_kernel`] aggregates the three symbolic analyses into one
//! [`ProofReport`]:
//!
//! - **Bank conflicts** — every shared-memory access site graded with
//!   provenance ([`crate::banks::grade_sites_cached`]): `proven-linear`
//!   (F₂ rank, all warps/iterations), `proven-enumerated` (complete
//!   case analysis), or `sampled` (one warp — evidence, not proof).
//! - **Races** — per-pair accounting from the race detector
//!   ([`crate::races::check_races_summary`]): pairs proven disjoint by
//!   the symbolic F₂ system, proven by exhaustive enumeration, or
//!   merely sampled at two loop iterations.
//! - **Bounds (`GRA015`)** — every shared- and global-memory access
//!   proven inside its root allocation by symbolic bounds propagation
//!   (`offset.is_nonneg()` and `offset.upper_bound()` against the
//!   root's scalar length), or — when the offset is outside the
//!   provable fragment — *witnessed* in-bounds by enumerating the
//!   extreme environments (first/last block, first/last loop
//!   iteration). Violations are `GRA015` errors.
//!
//! [`synthesize_for_root`] solves the F₂ system of every access site
//! of one shared root for a single XOR swizzle making all of them
//! conflict-free ([`graphene_layout::synthesize_swizzle`]) — the
//! constructive counterpart of the rank proof, used by the autotuner to
//! skip the swizzle search axis entirely.

use crate::banks::SiteGrade;
use crate::races::RaceSummary;
use crate::walk::{eval_guard, guarded_lanes};
use graphene_ir::body::Predicate;
use graphene_ir::{Arch, Diagnostic, Kernel, MemSpace, TensorId};
use graphene_layout::{synthesize_swizzle, Swizzle};
use graphene_sim::{lane_addresses_cached, linear_site, root_len, PlanCache, Site};
use std::collections::{HashMap, HashSet};

/// How an access site's in-bounds verdict was established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundsStatus {
    /// Proven: `0 <= addr < len` for every thread, block, and loop
    /// iteration — by guard-aware bounds propagation over the offset
    /// expression, or by exhaustively enumerating every value
    /// combination of its variables (a complete case analysis).
    Proven,
    /// Checked by enumerating the extreme environments (first/last
    /// block and loop iterations) — strong evidence, not a proof.
    Witnessed,
    /// An out-of-bounds address was found (reported as `GRA015`).
    Violation,
}

impl BoundsStatus {
    /// Stable lower-case label (used in diagnostics and JSON).
    pub fn label(self) -> &'static str {
        match self {
            BoundsStatus::Proven => "proven",
            BoundsStatus::Witnessed => "witnessed",
            BoundsStatus::Violation => "violation",
        }
    }
}

/// One access site's in-bounds verdict.
#[derive(Debug, Clone)]
pub struct BoundsCheck {
    /// Root tensor being accessed.
    pub root: TensorId,
    /// Root tensor name (for rendering).
    pub tensor: String,
    /// Rendered spec header of the access site.
    pub spec: String,
    /// Root allocation length in scalars.
    pub len: i64,
    /// The verdict.
    pub status: BoundsStatus,
    /// For violations: one offending `(thread, address)` witness.
    pub witness: Option<(i64, i64)>,
}

/// The complete proof accounting for one kernel.
#[derive(Debug, Clone)]
pub struct ProofReport {
    /// Every shared-memory access site's conflict grade + provenance.
    pub conflicts: Vec<SiteGrade>,
    /// Race-detector per-pair proof accounting.
    pub races: RaceSummary,
    /// Every shared/global access site's bounds verdict.
    pub bounds: Vec<BoundsCheck>,
}

impl ProofReport {
    /// Every shared-memory site is conflict-free with a *proof* (no
    /// sampling fallback, no residual conflicts).
    pub fn conflicts_proven_free(&self) -> bool {
        self.conflicts.iter().all(|s| s.provenance.is_proven() && s.conflict_free())
    }

    /// No bounds violations were found.
    pub fn bounds_clean(&self) -> bool {
        self.bounds.iter().all(|b| b.status != BoundsStatus::Violation)
    }

    /// Renders the report as the human-readable text block appended by
    /// `lint --prove`: per-site conflict grades with provenance, the
    /// race-pair proof accounting, and the bounds verdicts.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "proof (F2 symbolic): conflicts {}, bounds {}",
            if self.conflicts_proven_free() { "proven free" } else { "NOT proven free" },
            if self.bounds_clean() { "proven in-bounds" } else { "NOT proven" },
        );
        for s in &self.conflicts {
            let _ = writeln!(
                out,
                "  conflict %{} in `{}`: {}/{} transactions [{}]",
                s.tensor,
                s.spec,
                s.actual,
                s.ideal,
                s.provenance.label()
            );
        }
        let races = &self.races;
        let _ = writeln!(
            out,
            "  races: {} pairs ({} proven-linear, {} proven-enumerated, {} sampled), {} reported",
            races.pairs(),
            races.pairs_proven_linear,
            races.pairs_proven_enumerated,
            races.pairs_sampled,
            races.races_reported
        );
        for b in &self.bounds {
            let _ = writeln!(
                out,
                "  bounds %{} in `{}`: len {} [{}]",
                b.tensor,
                b.spec,
                b.len,
                b.status.label()
            );
        }
        out
    }

    /// Renders the report as the `"proof"` JSON object embedded by
    /// `lint --prove --emit json` (and by the serve daemon's `lint`
    /// responses — both surfaces share this one rendering).
    pub fn render_json(&self) -> String {
        let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        let conflicts: Vec<String> = self
            .conflicts
            .iter()
            .map(|s| {
                format!(
                    "{{\"tensor\":\"{}\",\"spec\":\"{}\",\"ideal\":{},\"actual\":{},\"provenance\":\"{}\"}}",
                    esc(&s.tensor),
                    esc(&s.spec),
                    s.ideal,
                    s.actual,
                    s.provenance.label()
                )
            })
            .collect();
        let bounds: Vec<String> = self
            .bounds
            .iter()
            .map(|b| {
                format!(
                    "{{\"tensor\":\"{}\",\"spec\":\"{}\",\"len\":{},\"status\":\"{}\"}}",
                    esc(&b.tensor),
                    esc(&b.spec),
                    b.len,
                    b.status.label()
                )
            })
            .collect();
        let races = &self.races;
        format!(
            "{{\"conflicts\":[{}],\"conflicts_proven_free\":{},\
             \"races\":{{\"pairs_proven_linear\":{},\"pairs_proven_enumerated\":{},\
             \"pairs_sampled\":{},\"races_reported\":{},\"all_proven\":{}}},\
             \"bounds\":[{}],\"bounds_clean\":{}}}",
            conflicts.join(","),
            self.conflicts_proven_free(),
            races.pairs_proven_linear,
            races.pairs_proven_enumerated,
            races.pairs_sampled,
            races.races_reported,
            races.all_proven(),
            bounds.join(","),
            self.bounds_clean()
        )
    }
}

/// Runs every proof pass over a kernel.
pub fn prove_kernel(kernel: &Kernel, arch: Arch) -> ProofReport {
    prove_kernel_cached(kernel, arch, &mut PlanCache::new())
}

/// Like [`prove_kernel`], reusing an externally owned [`PlanCache`]: the
/// report half of [`crate::lint_kernel_cached`].
pub fn prove_kernel_cached(kernel: &Kernel, arch: Arch, plans: &mut PlanCache) -> ProofReport {
    crate::lint_kernel_cached(kernel, arch, plans).1
}

/// Reports out-of-bounds accesses as `GRA015` errors.
pub(crate) fn bounds_diagnostics(checks: &[BoundsCheck]) -> Vec<Diagnostic> {
    checks
        .iter()
        .filter(|b| b.status == BoundsStatus::Violation)
        .map(|b| {
            let at = b
                .witness
                .map(|(t, a)| format!(" (thread {t} reaches offset {a})"))
                .unwrap_or_default();
            Diagnostic::error(
                "GRA015",
                format!(
                    "out-of-bounds access: %{} in `{}` escapes its allocation of {} \
                     scalars{at}",
                    b.tensor, b.spec, b.len,
                ),
            )
        })
        .collect()
}

/// The bounds verdict of every shared- and global-memory access site,
/// one per `(view, spec header)`.
pub fn bounds_checks_cached(
    kernel: &Kernel,
    arch: Arch,
    plans: &mut PlanCache,
) -> Vec<BoundsCheck> {
    let sites = plans.sites(kernel, arch);
    let module = &kernel.module;
    let mut seen = HashSet::new();
    let mut checks = Vec::new();
    for site in &sites.sites {
        for op in &site.operands {
            if !matches!(op.mem, MemSpace::Shared | MemSpace::Global)
                || !seen.insert((op.view, site.header.as_str()))
            {
                continue;
            }
            let len = root_len(&module[op.root].ty) as i64;
            let (status, witness) = verdict(kernel, plans, site, op.view, len);
            checks.push(BoundsCheck {
                root: op.root,
                tensor: module[op.root].name.clone(),
                spec: site.header.clone(),
                len,
                status,
                witness,
            });
        }
    }
    checks
}

/// Proof first, witness enumeration second.
///
/// The proof ignores guards (they only shrink the accessed set) and
/// is swizzle-safe: the root length is rounded up to the swizzle
/// period and a swizzle permutes addresses within aligned
/// period-sized blocks, so pre-swizzle bounds imply post-swizzle
/// bounds.
fn verdict(
    kernel: &Kernel,
    plans: &mut PlanCache,
    site: &Site,
    id: TensorId,
    len: i64,
) -> (BoundsStatus, Option<(i64, i64)>) {
    let module = &kernel.module;
    let offset = &module[id].offset;
    let plan = plans.plan(id, module);
    let min_rel = plan.rel.iter().copied().min().unwrap_or(0);
    let max_rel = plan.rel.iter().copied().max().unwrap_or(0);
    // Dominating `var < c` guards tighten that variable's bound —
    // sound for the proof because guards only shrink the accessed
    // set (e.g. the tail-prefetch guard of a double-buffered loop).
    let mut tighter = HashMap::new();
    for g in &site.guards {
        if let (graphene_sym::IntExpr::Var(info), Some(c)) = (&g.lhs, g.rhs.as_const()) {
            let entry = tighter.entry(info.name.clone()).or_insert(c);
            *entry = (*entry).min(c);
        }
    }
    if offset.is_nonneg() && min_rel >= 0 {
        if let Some(ub) = offset.upper_bound_with(&tighter) {
            if (ub - 1).saturating_add(max_rel) < len {
                return (BoundsStatus::Proven, None);
            }
        }
    }
    // Interval arithmetic failed (typically on correlated `x%a` /
    // `x/a` re-indexing terms it must over-approximate). Second
    // route: when every variable of the offset besides the thread id
    // is an enclosing loop counter or the block id, enumerating all
    // their value combinations (within a budget) is a complete case
    // analysis — a proof. Otherwise fall back to corner witnessing.
    let grid = kernel.grid_size();
    let vars = offset.free_vars();
    let mut domains: Vec<(String, i64)> = Vec::new();
    let mut enumerable = true;
    for v in &vars {
        if v == "threadIdx.x" {
            continue;
        } else if v == "blockIdx.x" {
            domains.push((v.clone(), grid.max(1)));
        } else if let Some((_, e)) = site.loops.iter().find(|(lv, _)| lv == v) {
            domains.push((v.clone(), (*e).max(1)));
        } else {
            enumerable = false; // dynamic parameter — value unknown
            break;
        }
    }
    let combos = domains
        .iter()
        .try_fold(1i64, |p, (_, e)| p.checked_mul(*e).filter(|&c| c <= MAX_BOUNDS_COMBOS));
    let exhaustive = enumerable && combos.is_some();
    let envs: Vec<HashMap<String, i64>> = if let (true, Some(combos)) = (exhaustive, combos) {
        (0..combos)
            .map(|c| {
                let mut env = HashMap::from([("blockIdx.x".to_string(), 0)]);
                let mut rem = c;
                for (v, e) in &domains {
                    env.insert(v.clone(), rem % e);
                    rem /= e;
                }
                env
            })
            .collect()
    } else {
        // Corner environments: every combination of {first, last}
        // block and {first, last} value of each loop counter.
        let corners = 1usize << (site.loops.len() + 1).min(12);
        (0..corners)
            .map(|corner| {
                let mut env = HashMap::new();
                env.insert(
                    "blockIdx.x".to_string(),
                    if corner & 1 == 0 { 0 } else { (grid - 1).max(0) },
                );
                for (k, (var, extent)) in site.loops.iter().enumerate() {
                    let hi = (corner >> (k + 1)) & 1 == 1;
                    env.insert(var.clone(), if hi { (extent - 1).max(0) } else { 0 });
                }
                env
            })
            .collect()
    };
    let thread_guards: Vec<Predicate> =
        site.guards.iter().filter(|g| g.thread_dependent()).cloned().collect();
    for mut env in envs {
        // A guard false under this environment means the access does
        // not execute here (one that reads the thread id does not
        // evaluate without it); thread-dependent guards filter lanes.
        if site.guards.iter().any(|g| eval_guard(g, &env) == Some(false)) {
            continue;
        }
        let lanes = guarded_lanes(&site.lanes, &thread_guards, &mut env);
        let Ok(per_lane) = lane_addresses_cached(plans, id, module, &lanes, &env) else {
            continue;
        };
        for (t, addrs) in per_lane {
            for a in addrs {
                if a < 0 || a >= len {
                    return (BoundsStatus::Violation, Some((t, a)));
                }
            }
        }
    }
    if exhaustive {
        (BoundsStatus::Proven, None)
    } else {
        (BoundsStatus::Witnessed, None)
    }
}

/// Enumeration budget for the exhaustive bounds proof: the largest
/// variable-value cartesian product worth exhausting.
const MAX_BOUNDS_COMBOS: i64 = 4096;

/// Solves for one XOR swizzle making *every* access site of `root`
/// bank-conflict-free, or `None` when some site is outside the F₂
/// fragment or no swizzle works.
///
/// The sites are abstracted pre-swizzle, so this is meaningful on an
/// unswizzled build: the tuner builds a candidate with the identity
/// swizzle, synthesizes here, and applies the result — skipping the
/// swizzle search axis and the conflict simulation entirely.
pub fn synthesize_for_root(
    kernel: &Kernel,
    arch: Arch,
    root: TensorId,
    plans: &mut PlanCache,
) -> Option<Swizzle> {
    let sites = plans.sites(kernel, arch);
    let mut access = Vec::new();
    for site in &sites.sites {
        for op in site.operands.iter().filter(|o| o.root == root) {
            access.push(linear_site(plans, &kernel.module, op, &site.lanes)?);
        }
    }
    synthesize_swizzle(&access)
}
