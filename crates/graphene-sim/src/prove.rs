//! Exact bank-conflict proofs for shared-memory access sites.
//!
//! [`crate::sample_conflicts_cached`] grades one representative warp — a
//! clean result is *evidence*, not proof. This module upgrades the grade
//! to a proof whenever the access admits one, with two rules:
//!
//! 1. **F₂ rank** ([`ConflictProvenance::ProvenLinear`]): the view's
//!    offset linearizes ([`graphene_sym::linearize`]) into an XOR-affine
//!    form, the execution's lane set is a union of aligned hardware
//!    warps, and the relative (vector) offsets XOR-decompose. Then the
//!    warp's word footprint is a coset of an F₂ span, every warp and
//!    every loop iteration shares one column matrix, and the grade is a
//!    rank condition ([`graphene_layout::prove_banks`]) — one small
//!    Gaussian elimination instead of any address enumeration.
//! 2. **Exhaustive warp enumeration**
//!    ([`ConflictProvenance::ProvenEnumerated`]): when the offset
//!    depends on nothing but `threadIdx.x` and bounded loop counters
//!    (true of non-linear strided patterns such as `threadIdx.x * 3`),
//!    grading *every* hardware warp at *every* loop-value combination
//!    (within a fixed budget) is a complete case analysis, not a
//!    sample. The worst warp's grade is reported.
//!
//! Accesses admitting neither rule fall back to sampling
//! ([`ConflictProvenance::Sampled`] via [`grade_conflicts_cached`]).

use crate::analyze::{lane_addresses_cached, sample_conflicts_cached, sample_lanes, AnalyzeError};
use crate::plan::{BankTally, PlanCache};
use crate::sites::{Site, SiteOperand};
use graphene_ir::{Module, ThreadTensor};
use graphene_layout::{prove_banks, xor_vector, AccessSite};
use graphene_sym::linearize;
use std::collections::{BTreeMap, HashMap, HashSet};

/// How a bank-conflict grade was established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictProvenance {
    /// Proved by the F₂ rank condition: exact for all warps, all loop
    /// iterations.
    ProvenLinear,
    /// Proved by enumerating every hardware warp of an
    /// iteration-independent access: a complete case analysis.
    ProvenEnumerated,
    /// Measured on one representative warp only.
    Sampled,
}

impl ConflictProvenance {
    /// Stable lower-case label (used in diagnostics and JSON).
    pub fn label(self) -> &'static str {
        match self {
            ConflictProvenance::ProvenLinear => "proven-linear",
            ConflictProvenance::ProvenEnumerated => "proven-enumerated",
            ConflictProvenance::Sampled => "sampled",
        }
    }

    /// `true` for either proof rule.
    pub fn is_proven(self) -> bool {
        self != ConflictProvenance::Sampled
    }
}

/// A bank-conflict grade with its provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConflictGrade {
    /// Conflict-free transaction count for the warp's footprint.
    pub ideal: u64,
    /// Serialised transaction count (worst warp, for enumeration).
    pub actual: u64,
    /// How the grade was established.
    pub provenance: ConflictProvenance,
}

impl ConflictGrade {
    /// `true` when the access needs no extra transactions.
    pub fn conflict_free(&self) -> bool {
        self.actual <= self.ideal
    }
}

/// Is the lane set a union of aligned 32-thread hardware warps?
///
/// Required by the rank rule: within each aligned warp, `threadIdx.x`
/// bits 0–4 range over all 32 combinations (the varying bits) while the
/// higher bits stay fixed (a coset shift). A partial warp would make the
/// representative footprint a *subset* of the span, for which the rank
/// counts no longer hold.
fn warp_closed(lanes: &[i64]) -> bool {
    if lanes.is_empty() {
        return false;
    }
    let set: HashSet<i64> = lanes.iter().copied().collect();
    if set.len() != lanes.len() || set.iter().any(|&l| l < 0) {
        return false;
    }
    // Every warp with any member present must be complete: distinct
    // lanes = 32 × distinct warp ids exactly when each warp is full.
    let warps: HashSet<i64> = set.iter().map(|&l| l >> 5).collect();
    warps.len() * 32 == set.len()
}

/// Abstracts operand `op`'s access by `lanes` into its F₂ columns: the
/// element-address images (pre-swizzle) of its warp-varying bits, lane
/// bits then vector bits, ready for [`graphene_layout::prove_banks`] or
/// swizzle synthesis under the root's swizzle.
///
/// Returns `None` when the access is not provably XOR-affine: the offset
/// fails to linearize, the lane set is not warp-closed, or the relative
/// offsets don't form an XOR vector part ([`xor_vector`]: decomposable
/// and carry-free against the base).
pub fn linear_site(
    plans: &mut PlanCache,
    module: &Module,
    op: &SiteOperand,
    lanes: &[i64],
) -> Option<AccessSite> {
    let form = linearize(&module[op.view].offset)?;
    if !warp_closed(lanes) {
        return None;
    }
    let plan = plans.plan(op.view, module);
    let (_, deltas) = xor_vector(form.constant, form.terms.iter().map(|t| t.mask), &plan.rel)?;

    // Varying columns: the warp-lane bits of threadIdx.x (bits 0–4; a
    // dropped bit is a genuine zero column — a broadcast) plus the
    // vector deltas. Everything else (higher tid bits, loop counters)
    // only XOR-shifts the coset and cannot change the rank counts.
    let mut columns: Vec<i64> =
        form.terms.iter().filter(|t| t.var == "threadIdx.x" && t.bit < 5).map(|t| t.mask).collect();
    columns.extend(deltas);
    if op.bytes_per == 0 {
        return None;
    }
    Some(AccessSite { columns, bytes_per: op.bytes_per as i64 })
}

/// Rule 1: proves the grade by the F₂ rank condition, or `None`.
pub fn prove_conflicts_linear(
    plans: &mut PlanCache,
    module: &Module,
    op: &SiteOperand,
    lanes: &[i64],
) -> Option<ConflictGrade> {
    let site = linear_site(plans, module, op, lanes)?;
    let proof = prove_banks(&site, plans.plan(op.view, module).swizzle)?;
    Some(ConflictGrade {
        ideal: proof.ideal() as u64,
        actual: proof.actual() as u64,
        provenance: ConflictProvenance::ProvenLinear,
    })
}

/// Enumeration budget for Rule 2: the largest loop-value cartesian
/// product worth exhausting before the proof stops paying for itself.
const MAX_LOOP_COMBOS: i64 = 1024;

/// Rule 2: proves the grade of operand `op` of `site` by enumerating
/// every hardware warp of the access, or `None`. Reports the worst warp.
///
/// The offset may depend on `threadIdx.x` and on the site's enclosing
/// loop counters: every combination of loop values is enumerated — a
/// complete case analysis, not a sample — up to a budget of
/// [`MAX_LOOP_COMBOS`] combinations. Iteration-independent offsets
/// (`threadIdx.x` only) enumerate exactly once.
pub fn prove_conflicts_enumerated(
    plans: &mut PlanCache,
    tally: &mut BankTally,
    module: &Module,
    site: &Site,
    op: &SiteOperand,
    env: &HashMap<String, i64>,
) -> Option<ConflictGrade> {
    let free = module[op.view].offset.free_vars();
    // Loop counters the offset actually reads; everything else must be
    // the thread id, or the enumeration would not be exhaustive.
    let used: Vec<(&str, i64)> = site
        .loops
        .iter()
        .filter(|(v, _)| free.iter().any(|f| f == v))
        .map(|(v, e)| (v.as_str(), *e))
        .collect();
    if free.iter().any(|v| v != "threadIdx.x" && !used.iter().any(|(u, _)| u == v)) {
        return None;
    }
    let mut combos: i64 = 1;
    for &(_, e) in &used {
        if e <= 0 {
            return None;
        }
        combos = combos.checked_mul(e)?;
        if combos > MAX_LOOP_COMBOS {
            return None;
        }
    }
    // Hardware issue groups: collective specs issue per exec group, the
    // per-thread ones per aligned 32-thread warp.
    let group_size = module[site.exec].group_size() as usize;
    let groups: Vec<Vec<i64>> = if group_size > 1 {
        site.lanes.chunks(group_size).map(<[i64]>::to_vec).collect()
    } else {
        let mut by_warp: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
        for &l in site.lanes.iter() {
            by_warp.entry(l >> 5).or_default().push(l);
        }
        by_warp.into_values().collect()
    };
    let mut env = env.clone();
    let mut worst: Option<(u64, u64)> = None;
    for c in 0..combos {
        let mut rem = c;
        for &(v, e) in &used {
            env.insert(v.to_string(), rem % e);
            rem /= e;
        }
        for warp in &groups {
            let per_lane = lane_addresses_cached(plans, op.view, module, warp, &env).ok()?;
            for (_, addrs) in &per_lane {
                for &a in addrs {
                    tally.add_addr(a, op.bytes_per);
                }
            }
            let (ideal, actual) = tally.grade();
            // Keep the warp with the largest conflict factor
            // (cross-multiplied to stay in integers).
            let factor_worse = match worst {
                None => true,
                Some((wi, wa)) => actual * wi > wa * ideal,
            };
            if factor_worse {
                worst = Some((ideal, actual));
            }
        }
    }
    worst.map(|(ideal, actual)| ConflictGrade {
        ideal,
        actual,
        provenance: ConflictProvenance::ProvenEnumerated,
    })
}

/// `true` when the representative lane set that
/// [`sample_conflicts_cached`] grades is exactly one
/// aligned hardware warp — in that case a linear proof's grade
/// coincides with the sampled grade and can replace it without changing
/// any counter.
pub fn sample_is_aligned_warp(tt: &ThreadTensor) -> bool {
    let lanes = sample_lanes(tt);
    lanes.len() == 32 && warp_closed(&lanes)
}

/// Grades shared-memory operand `op` of `site` with the strongest
/// available method: the F₂ rank proof, then exhaustive warp
/// enumeration, then one-warp sampling under `env`.
///
/// # Errors
///
/// See [`AnalyzeError`] (sampling fallback only; proofs never error).
pub fn grade_conflicts_cached(
    plans: &mut PlanCache,
    tally: &mut BankTally,
    module: &Module,
    site: &Site,
    op: &SiteOperand,
    env: &HashMap<String, i64>,
) -> Result<ConflictGrade, AnalyzeError> {
    if let Some(g) = prove_conflicts_linear(plans, module, op, &site.lanes) {
        return Ok(g);
    }
    if let Some(g) = prove_conflicts_enumerated(plans, tally, module, site, op, env) {
        return Ok(g);
    }
    let tt = &module[site.exec];
    let (ideal, actual) =
        sample_conflicts_cached(plans, tally, op.view, module, tt, env, op.bytes_per)?;
    Ok(ConflictGrade { ideal, actual, provenance: ConflictProvenance::Sampled })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warp_closure() {
        let full: Vec<i64> = (0..64).collect();
        assert!(warp_closed(&full));
        let partial: Vec<i64> = (0..48).collect();
        assert!(!warp_closed(&partial));
        let offset: Vec<i64> = (16..48).collect();
        assert!(!warp_closed(&offset));
        assert!(!warp_closed(&[]));
        let second_warp: Vec<i64> = (32..64).collect();
        assert!(warp_closed(&second_warp));
    }
}
