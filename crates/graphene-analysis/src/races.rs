//! Shared-memory race detection (`GRA010`) and the redundant-barrier
//! lint (`GRA011`).
//!
//! The detector symbolically executes the decomposition in program
//! order, evaluating the concrete per-thread addresses of every
//! shared-memory access (the same arithmetic [`graphene_sim`] and the
//! hardware perform) and keeping, per shared tensor, the set of accesses
//! not yet ordered by a barrier. A new access conflicts with a pending
//! one when some address is touched by two *different* threads and at
//! least one side writes. Conflicts are reported unless an adequate
//! synchronisation intervened:
//!
//! - a **block-scope** barrier (`__syncthreads()`) orders everything —
//!   including `cp.async` copies, because the CUDA backend drains the
//!   async-copy pipeline (`cp.async.wait_all`) before every block
//!   barrier of a kernel that issues them;
//! - a **warp-scope** barrier (`__syncwarp()`) orders a conflict only
//!   when every conflicting thread pair lies within one warp *and* the
//!   write is not an asynchronous copy (`cp.async` completion is
//!   invisible to `__syncwarp()`).
//!
//! This is the one analysis that keeps a walk of its own: it is
//! flow-sensitive (barriers order accesses, loops unroll), so it visits
//! statements in program order and reads each spec's record — matched
//! atomic, lanes, `cp.async` flag, shared operands — from the kernel's
//! access-site table ([`graphene_sim::Sites`]) by statement path.
//!
//! Loops are unrolled twice (iterations 0 and 1) so hazards between an
//! iteration's tail and the next iteration's head — the classic missing
//! top-of-loop barrier in double-buffered pipelines — are observed.
//! Thread-independent guards are evaluated under the loop environment
//! (symbolic guards are assumed taken); thread-dependent guards filter
//! the active lanes per thread.

use crate::linear::{prove_sides_disjoint, side_form, PairProof, SideForm};
use crate::walk::{eval_guard, shared_accesses, SharedAccess};
use graphene_ir::body::{Predicate, Stmt, SyncScope};
use graphene_ir::tensor::TensorId;
use graphene_ir::{Arch, Diagnostic, Kernel, MemSpace, Module};
use graphene_sim::{PlanCache, Sites};
use std::collections::{HashMap, HashSet};

/// How the race check established each access pair's verdict.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RaceSummary {
    /// Pairs proven disjoint (or same-thread-only) by the symbolic F₂
    /// system — valid for every thread and every loop iteration.
    pub pairs_proven_linear: usize,
    /// Pairs decided by per-lane enumeration whose address sets are
    /// exact for all iterations (both offsets and guards depend only on
    /// `threadIdx.x`) — a complete case analysis.
    pub pairs_proven_enumerated: usize,
    /// Pairs decided by enumeration at loop iterations 0 and 1 only.
    pub pairs_sampled: usize,
    /// Conflicting pairs reported as `GRA010` diagnostics.
    pub races_reported: usize,
}

impl RaceSummary {
    /// Total write-involving pairs examined.
    pub fn pairs(&self) -> usize {
        self.pairs_proven_linear
            + self.pairs_proven_enumerated
            + self.pairs_sampled
            + self.races_reported
    }

    /// Every clean pair carries a proof (no sampling fallback).
    pub fn all_proven(&self) -> bool {
        self.pairs_sampled == 0
    }
}

/// Detects shared-memory races in a kernel, returning the `GRA010`
/// diagnostics and the per-pair proof accounting (how many pairs were
/// proven symbolically, proven by exhaustive enumeration, or merely
/// sampled at two loop iterations). Reuses an externally owned
/// [`PlanCache`] and its site table (keyed by tensor id — share it only
/// between passes over this same kernel).
pub fn check_races_summary(
    kernel: &Kernel,
    arch: Arch,
    plans: &mut PlanCache,
) -> (Vec<Diagnostic>, RaceSummary) {
    let sites = plans.sites(kernel, arch);
    let mut cx = RaceCx {
        module: &kernel.module,
        sites: &sites,
        plans,
        env: HashMap::from([("blockIdx.x".to_string(), 0)]),
        idx: Vec::new(),
        path: vec!["body".into()],
        guards: Vec::new(),
        pending: HashMap::new(),
        sides: HashMap::new(),
        reported: HashSet::new(),
        diags: Vec::new(),
        summary: RaceSummary::default(),
    };
    cx.walk(&kernel.body.stmts);
    (cx.diags, cx.summary)
}

struct PendingAccess<'s> {
    access: SharedAccess<'s>,
    /// A warp-scope barrier was executed after this access.
    warp_synced: bool,
}

struct RaceCx<'s, 'p> {
    module: &'s Module,
    /// The kernel's access sites, looked up by statement path.
    sites: &'s Sites,
    /// Compiled address plans, shared across every access site of the
    /// walk (and with the simulator's representation of addressing).
    plans: &'p mut PlanCache,
    env: HashMap<String, i64>,
    /// Child indices of the current statement: its path for
    /// [`Sites::at`].
    idx: Vec<u32>,
    path: Vec<String>,
    guards: Vec<Predicate>,
    pending: HashMap<TensorId, Vec<PendingAccess<'s>>>,
    /// F₂ abstraction of each view at each lane span, built on the
    /// view's first proof attempt: a side depends only on the view's
    /// offset, its relative offsets and `n`, none of which the walk
    /// changes.
    sides: HashMap<(TensorId, u32), Option<SideForm>>,
    reported: HashSet<(TensorId, String, String)>,
    diags: Vec<Diagnostic>,
    summary: RaceSummary,
}

impl<'s> RaceCx<'s, '_> {
    fn walk(&mut self, stmts: &[Stmt]) {
        for (i, s) in stmts.iter().enumerate() {
            self.idx.push(i as u32);
            match s {
                Stmt::For { var, extent, body, .. } => {
                    // Two unrolled iterations expose cross-iteration
                    // hazards; more add no new access pairs.
                    for i in 0..(*extent).clamp(0, 2) {
                        self.env.insert(var.clone(), i);
                        self.path.push(format!("for {var} (iteration {i})"));
                        self.walk(body);
                        self.path.pop();
                    }
                    self.env.remove(var);
                }
                Stmt::If { cond, then } => {
                    if cond.thread_dependent() {
                        self.guards.push(cond.clone());
                        self.path.push(format!("if ({} < {})", cond.lhs, cond.rhs));
                        self.walk(then);
                        self.path.pop();
                        self.guards.pop();
                    } else if eval_guard(cond, &self.env).unwrap_or(true) {
                        self.path.push(format!("if ({} < {})", cond.lhs, cond.rhs));
                        self.walk(then);
                        self.path.pop();
                    }
                }
                Stmt::Spec(spec) => match &spec.body {
                    Some(body) => {
                        self.path.push(spec.kind.name());
                        self.walk(&body.stmts);
                        self.path.pop();
                    }
                    // A spec without a site matches no atomic spec
                    // (reported separately as `GRA002`).
                    None => {
                        if let Some(site) = self.sites.at(&self.idx) {
                            for acc in shared_accesses(
                                site,
                                self.module,
                                self.plans,
                                &mut self.env,
                                &self.guards,
                                &self.path,
                            ) {
                                self.record(acc);
                            }
                        }
                    }
                },
                Stmt::Sync(SyncScope::Block) => self.pending.clear(),
                Stmt::Sync(SyncScope::Warp) => {
                    for pend in self.pending.values_mut() {
                        for p in pend.iter_mut() {
                            p.warp_synced = true;
                        }
                    }
                }
                _ => {}
            }
            self.idx.pop();
        }
    }

    /// Symbolic disjointness (the F₂ proof rule): `true` when the pair
    /// is proven race-free for every thread, vector element, and loop
    /// iteration — enumeration can be skipped entirely.
    fn symbolically_disjoint(&mut self, a: &SharedAccess, b: &SharedAccess) -> bool {
        let (Some(na), Some(nb)) = (a.lane_span, b.lane_span) else { return false };
        if na != nb {
            return false;
        }
        for view in [a.view, b.view] {
            if !self.sides.contains_key(&(view, na)) {
                let rel = &self.plans.plan(view, self.module).rel;
                let side = side_form(&self.module[view].offset, rel, na);
                self.sides.insert((view, na), side);
            }
        }
        let (Some(side_a), Some(side_b)) = (&self.sides[&(a.view, na)], &self.sides[&(b.view, na)])
        else {
            return false;
        };
        prove_sides_disjoint(side_a, side_b, na) == PairProof::RaceFree
    }

    fn record(&mut self, acc: SharedAccess<'s>) {
        let mut pend = self.pending.remove(&acc.root).unwrap_or_default();
        for prev in &pend {
            let p = &prev.access;
            if !(p.write || acc.write) {
                continue; // read-read never conflicts
            }
            if self.symbolically_disjoint(p, &acc) {
                self.summary.pairs_proven_linear += 1;
                continue;
            }
            if let Some(conflict) = first_conflict(p, &acc) {
                let async_write = p.cp_async || acc.cp_async;
                let adequately_warp_synced =
                    prev.warp_synced && !async_write && conflicts_within_one_warp(p, &acc);
                if adequately_warp_synced {
                    continue;
                }
                let descs = (p.header.to_string(), acc.header.to_string());
                if !self.reported.insert((acc.root, descs.0.clone(), descs.1.clone())) {
                    continue;
                }
                self.summary.races_reported += 1;
                let d = self.race_diag(prev, &acc, &descs, conflict);
                self.diags.push(d);
            } else if p.loop_free && acc.loop_free {
                // Both address sets are iteration-independent, so the
                // enumeration just performed was a complete case
                // analysis over every lane.
                self.summary.pairs_proven_enumerated += 1;
            } else {
                self.summary.pairs_sampled += 1;
            }
        }
        pend.push(PendingAccess { access: acc, warp_synced: false });
        let root = pend[0].access.root;
        self.pending.insert(root, pend);
    }

    fn race_diag(
        &self,
        prev: &PendingAccess,
        acc: &SharedAccess,
        (prev_desc, acc_desc): &(String, String),
        c: (i64, i64, i64),
    ) -> Diagnostic {
        let (addr, t1, t2) = c;
        let name = &self.module[acc.root].name;
        let p = &prev.access;
        let rw = |w: bool| if w { "write" } else { "read" };
        let remedy = if p.cp_async || acc.cp_async {
            "cp.async completion requires a wait + block-level barrier between them"
        } else if prev.warp_synced {
            "the intervening __syncwarp() does not order threads of different warps; \
             a block-level __syncthreads() is required"
        } else {
            "insert a block-level __syncthreads() between them"
        };
        Diagnostic::error(
            "GRA010",
            format!(
                "shared-memory race on %{name}: {} by `{}` conflicts with {} by `{}` \
                 at offset {addr} (threads {t1} and {t2}); {remedy}",
                rw(p.write),
                prev_desc,
                rw(acc.write),
                acc_desc,
            ),
        )
        .at(acc.path.clone())
    }
}

/// First `(address, prev thread, new thread)` where two different
/// threads touch the same address.
fn first_conflict(a: &SharedAccess, b: &SharedAccess) -> Option<(i64, i64, i64)> {
    let (small, big, swapped) =
        if a.lanes_at().len() <= b.lanes_at().len() { (a, b, false) } else { (b, a, true) };
    let mut best: Option<(i64, i64, i64)> = None;
    for (&addr, lanes) in small.lanes_at() {
        if let Some(other) = big.lanes_at().get(&addr) {
            for &t1 in lanes {
                for &t2 in other {
                    if t1 != t2 && best.is_none_or(|(ba, ..)| addr < ba) {
                        best = Some(if swapped { (addr, t2, t1) } else { (addr, t1, t2) });
                    }
                }
            }
        }
    }
    best
}

/// Every conflicting thread pair lies within one warp (so a warp-scope
/// barrier can order it).
fn conflicts_within_one_warp(a: &SharedAccess, b: &SharedAccess) -> bool {
    for (&addr, lanes) in a.lanes_at() {
        if let Some(other) = b.lanes_at().get(&addr) {
            for &t1 in lanes {
                for &t2 in other {
                    if t1 != t2 && t1 / 32 != t2 / 32 {
                        return false;
                    }
                }
            }
        }
    }
    true
}

/// Flags block barriers with no shared-memory traffic since the
/// previous block barrier *in the same statement list* (`GRA011`).
///
/// The same-list restriction avoids false positives on loop-carried
/// pipelines, where a barrier at the top of an iteration orders against
/// traffic of the *previous* iteration.
pub fn check_redundant_barriers(kernel: &Kernel) -> Vec<Diagnostic> {
    let module = &kernel.module;
    let mut diags = Vec::new();
    walk_lists(&kernel.body.stmts, &mut vec!["body".into()], &mut |stmts, path| {
        let mut since_last: Option<bool> = None; // None until the first barrier
        for (i, s) in stmts.iter().enumerate() {
            match s {
                Stmt::Sync(SyncScope::Block) => {
                    if since_last == Some(false) {
                        diags.push(
                            Diagnostic::warn(
                                "GRA011",
                                format!(
                                    "redundant barrier: no shared-memory access since the \
                                     previous block-level sync (statement {i})"
                                ),
                            )
                            .at(path.to_vec()),
                        );
                    }
                    since_last = Some(false);
                }
                _ => {
                    if touches_shared(s, module) {
                        since_last = since_last.map(|_| true);
                    }
                }
            }
        }
    });
    diags
}

fn walk_lists(stmts: &[Stmt], path: &mut Vec<String>, f: &mut impl FnMut(&[Stmt], &[String])) {
    f(stmts, path);
    for s in stmts {
        match s {
            Stmt::For { var, body, .. } => {
                path.push(format!("for {var}"));
                walk_lists(body, path, f);
                path.pop();
            }
            Stmt::If { cond, then } => {
                path.push(format!("if ({} < {})", cond.lhs, cond.rhs));
                walk_lists(then, path, f);
                path.pop();
            }
            Stmt::Spec(spec) => {
                if let Some(b) = &spec.body {
                    path.push(spec.kind.name());
                    walk_lists(&b.stmts, path, f);
                    path.pop();
                }
            }
            _ => {}
        }
    }
}

/// Does this statement (or anything nested in it) touch shared memory?
fn touches_shared(s: &Stmt, module: &Module) -> bool {
    let spec_touches = |spec: &graphene_ir::Spec| {
        spec.ins
            .iter()
            .chain(spec.outs.iter())
            .any(|&id| module[module.root_of(id)].mem == MemSpace::Shared)
    };
    match s {
        Stmt::Spec(spec) => {
            if spec_touches(spec) {
                return true;
            }
            spec.body.as_ref().is_some_and(|b| b.stmts.iter().any(|st| touches_shared(st, module)))
        }
        Stmt::For { body, .. } | Stmt::If { then: body, .. } => {
            body.iter().any(|st| touches_shared(st, module))
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphene_ir::builder::KernelBuilder;
    use graphene_ir::spec::SpecKind;
    use graphene_ir::{ScalarType, TensorType};
    use graphene_layout::Layout;
    use graphene_sym::IntExpr;

    /// One shared view stored twice by all 32 lanes, then twice more by
    /// lanes `[0, 16)` only. Each pair collides only within a thread, so
    /// both are proven by F₂ — but at lane spans 5 and 4, whose side
    /// forms differ in their thread-bit columns. A side reused across
    /// spans would misalign the guarded pair's columns and demote it to
    /// enumeration.
    #[test]
    fn side_forms_are_cached_per_lane_span() {
        let mut kb = KernelBuilder::new("two_spans", &[1], &[32]);
        let s = kb.alloc_shared("s", TensorType::row_major(&[32], ScalarType::F32));
        let r = kb.alloc_reg("r", TensorType::scalar(Layout::contiguous(1), ScalarType::F32));
        let block = kb.block();
        let tid = kb.module()[block].hw_var();
        let slot = kb.index(s, std::slice::from_ref(&tid));
        let ts = kb.thread_scalar(block);
        let store = |kb: &mut KernelBuilder| kb.spec(SpecKind::Move, vec![ts], vec![r], vec![slot]);
        store(&mut kb);
        store(&mut kb);
        kb.sync();
        kb.if_lt(tid, IntExpr::constant(16), |kb| {
            store(kb);
            store(kb);
        });
        let kernel = kb.build();
        let (diags, summary) = check_races_summary(&kernel, Arch::Sm86, &mut PlanCache::new());
        assert!(diags.is_empty(), "{diags:#?}");
        assert_eq!(
            summary,
            RaceSummary { pairs_proven_linear: 2, ..RaceSummary::default() },
            "both store pairs are proven symbolically"
        );
    }
}
