//! Oracles for the per-candidate analysis fast paths.
//!
//! `match_atomic` matches from features taken once per spec, and the
//! race pass caches each view's F₂ side form and builds its
//! `address -> lanes` maps only when a proof fails. Both must give
//! exactly the answers of the straightforward algorithms they replace,
//! which are kept here as test-local oracles: a per-entry registry scan
//! that re-derives every feature, and a race walk that enumerates every
//! access eagerly and proves every pair from scratch.
//!
//! The kernel set is every catalog kernel on both architectures (where
//! the schedule exists), seeded legal points of the four tuner spaces,
//! and planted defects: a GEMM whose stages moved to global memory
//! (`GRA012`), an Ampere GEMM checked against the Volta registry
//! (`GRA002`), and GEMMs with a block barrier deleted (`GRA010`).

use graphene_analysis::linear::{prove_pair_disjoint, PairProof};
use graphene_analysis::races::{check_races_summary, RaceSummary};
use graphene_analysis::Diagnostic;
use graphene_ir::atomic::{
    match_atomic, match_relaxed, registry, type_signature, AtomicSpec, TensorPattern,
};
use graphene_ir::body::{Predicate, Stmt, SyncScope};
use graphene_ir::printer::render_spec_header;
use graphene_ir::tensor::{TensorId, TensorType};
use graphene_ir::threads::ThreadLevel;
use graphene_ir::{Arch, Kernel, MemSpace, Module, Spec};
use graphene_kernels::catalog::build_named;
use graphene_kernels::gemm::{build_gemm, Epilogue, GemmConfig};
use graphene_layout::coalesce;
use graphene_sim::{exec_lanes, lane_addresses_cached, PlanCache};
use graphene_tune::space::{FmhaSpace, GemmSpace, LayernormSpace, MlpSpace, Point, SearchSpace};
use std::collections::{HashMap, HashSet};

// ---------------------------------------------------------------------
// Kernel set
// ---------------------------------------------------------------------

const CATALOG: [&str; 7] = ["gemm", "gemm-db", "mlp", "lstm", "layernorm", "softmax", "fmha"];

/// Every catalog kernel at its default size, on every architecture its
/// schedule supports.
fn catalog_kernels() -> Vec<(Arch, Kernel)> {
    let mut out = Vec::new();
    for arch in [Arch::Sm86, Arch::Sm70] {
        for name in CATALOG {
            match build_named(name, arch, &HashMap::new()) {
                Ok(nk) => out.push((arch, nk.kernel)),
                Err(e) => assert_eq!(arch, Arch::Sm70, "{name} must build on sm86: {e}"),
            }
        }
    }
    assert_eq!(out.len(), 12, "7 Ampere + 5 Volta catalog kernels");
    out
}

/// Up to `want` distinct legal points of `space`, drawn in a seeded
/// order (every legal point when the space has fewer).
fn seeded_points(space: &dyn SearchSpace, want: usize, seed: u64) -> Vec<Point> {
    let total = space.total_points();
    let mut order: Vec<usize> = (0..total).collect();
    let mut x = seed | 1;
    for i in (1..total).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        order.swap(i, (x % (i as u64 + 1)) as usize);
    }
    order
        .into_iter()
        .map(|i| space.point_at(i))
        .filter(|p| space.constraint(p).is_ok())
        .take(want)
        .collect()
}

/// Seeded legal candidates of the four tuner spaces, built the way the
/// tuner builds them. The FMHA and MLP problems are smaller than the
/// catalog defaults (same schedules, fewer unrolled tiles) so the eager
/// oracle stays fast in debug builds.
fn tuner_kernels() -> Vec<(Arch, Kernel)> {
    let spaces: Vec<Box<dyn SearchSpace>> = vec![
        Box::new(GemmSpace::new(Arch::Sm86, 1024, 256, 128, Epilogue::None)),
        Box::new(FmhaSpace::new(2, 128, 64)),
        Box::new(MlpSpace::new(Arch::Sm86, 1024, 128, 2)),
        Box::new(LayernormSpace::new(Arch::Sm86, 4096, 1024)),
    ];
    let mut out = Vec::new();
    for (i, space) in spaces.iter().enumerate() {
        let points = seeded_points(space.as_ref(), 20, 0x9e37_79b9 + i as u64);
        assert!(!points.is_empty(), "{}: no legal point", space.name());
        out.extend(points.iter().map(|p| (space.arch(), space.build(p))));
    }
    out
}

fn all_kernels() -> Vec<(Arch, Kernel)> {
    let mut out = catalog_kernels();
    out.extend(tuner_kernels());
    out
}

fn undecomposed_specs(kernel: &Kernel) -> Vec<&Spec> {
    let mut out = Vec::new();
    let mut stack: Vec<&[Stmt]> = vec![&kernel.body.stmts];
    while let Some(stmts) = stack.pop() {
        for s in stmts {
            match s {
                Stmt::For { body, .. } | Stmt::If { then: body, .. } => stack.push(body),
                Stmt::Spec(spec) => match &spec.body {
                    Some(b) => stack.push(&b.stmts),
                    None => out.push(spec),
                },
                _ => {}
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Matcher oracle: the per-entry scan
// ---------------------------------------------------------------------

fn oracle_contiguous(ty: &TensorType) -> bool {
    match ty.tile_elem() {
        Some(inner) => ty.layout.size() == 1 && oracle_contiguous(inner),
        None => {
            if ty.num_scalars() == 1 {
                return true;
            }
            let c = coalesce(&ty.layout);
            c.rank() == 1 && c.stride().leaves() == vec![1]
        }
    }
}

fn oracle_pattern(pat: &TensorPattern, ty: &TensorType, mem: MemSpace) -> bool {
    if (!pat.any_mem && mem != pat.mem) || ty.scalar_type() != pat.scalar {
        return false;
    }
    if !pat.any_shape && type_signature(ty) != pat.levels {
        return false;
    }
    if pat.scalars.is_some_and(|n| ty.num_scalars() != n) {
        return false;
    }
    !pat.contiguous || oracle_contiguous(ty)
}

/// Re-derives every feature of `spec` for this one entry.
fn oracle_matches(a: &AtomicSpec, spec: &Spec, module: &Module) -> bool {
    if !a.kind.same_family(&spec.kind) {
        return false;
    }
    let Some(&exec) = spec.exec.last() else { return false };
    let tt = &module[exec];
    if tt.level != ThreadLevel::Thread || coalesce(&tt.local) != coalesce(&a.exec_local) {
        return false;
    }
    if spec.ins.len() != a.ins.len() || spec.outs.len() != a.outs.len() {
        return false;
    }
    let ok = |ids: &[TensorId], pats: &[TensorPattern]| {
        ids.iter().zip(pats).all(|(&id, pat)| oracle_pattern(pat, &module[id].ty, module[id].mem))
    };
    ok(&spec.ins, &a.ins) && ok(&spec.outs, &a.outs)
}

fn oracle_index(reg: &[AtomicSpec], spec: &Spec, module: &Module) -> Option<usize> {
    reg.iter().position(|a| oracle_matches(a, spec, module))
}

/// The relaxed lookup as the memory-space pass did it: clone each entry
/// with `any_mem` set and scan.
fn oracle_relaxed_index(reg: &[AtomicSpec], spec: &Spec, module: &Module) -> Option<usize> {
    reg.iter().position(|a| {
        let mut relaxed = a.clone();
        for p in relaxed.ins.iter_mut().chain(relaxed.outs.iter_mut()) {
            p.any_mem = true;
        }
        oracle_matches(&relaxed, spec, module)
    })
}

fn index_of(reg: &[AtomicSpec], found: Option<&AtomicSpec>) -> Option<usize> {
    found.map(|f| reg.iter().position(|a| std::ptr::eq(a, f)).expect("entry of this registry"))
}

/// Checks every undecomposed site of `kernel` against `arch`'s registry
/// and returns how many sites matched.
fn assert_matcher_agrees(kernel: &Kernel, arch: Arch) -> usize {
    let reg = registry(arch);
    let module = &kernel.module;
    let mut matched = 0;
    for spec in undecomposed_specs(kernel) {
        let header = || format!("{} ({arch}): `{}`", kernel.name, render_spec_header(module, spec));
        let got = index_of(reg, match_atomic(spec, module, reg));
        assert_eq!(got, oracle_index(reg, spec, module), "strict match of {}", header());
        assert_eq!(
            index_of(reg, match_relaxed(spec, module, arch)),
            oracle_relaxed_index(reg, spec, module),
            "relaxed match of {}",
            header()
        );
        matched += usize::from(got.is_some());
    }
    matched
}

#[test]
fn registry_is_built_once_and_stored_coalesced() {
    for arch in [Arch::Sm86, Arch::Sm70] {
        assert!(std::ptr::eq(registry(arch), registry(arch)));
        for a in registry(arch) {
            assert_eq!(coalesce(&a.exec_local), a.exec_local, "{}", a.name);
        }
    }
}

#[test]
fn feature_matcher_agrees_with_per_entry_scan() {
    let mut sites = 0;
    for (arch, kernel) in all_kernels() {
        let n = assert_matcher_agrees(&kernel, arch);
        assert_eq!(n, undecomposed_specs(&kernel).len(), "{} lints clean", kernel.name);
        sites += n;
    }
    assert!(sites > 5_000, "only {sites} sites checked");
}

#[test]
fn planted_memory_space_and_arch_mismatches_match_nothing() {
    // GRA012: stages in global memory match only once spaces are relaxed.
    let mut kernel = build_gemm(Arch::Sm86, &GemmConfig::small(64, 64, 64), Epilogue::None);
    let shared: Vec<TensorId> = kernel
        .module
        .tensors()
        .filter(|(_, d)| d.mem == MemSpace::Shared)
        .map(|(id, _)| id)
        .collect();
    for id in shared {
        kernel.module.tensor_mut(id).mem = MemSpace::Global;
    }
    let module = &kernel.module;
    let reg = registry(Arch::Sm86);
    let mut relaxed_only = 0;
    for spec in undecomposed_specs(&kernel) {
        if match_atomic(spec, module, reg).is_none() {
            assert_eq!(oracle_index(reg, spec, module), None);
            let relaxed = match_relaxed(spec, module, Arch::Sm86).expect("a space-only mismatch");
            assert_eq!(index_of(reg, Some(relaxed)), oracle_relaxed_index(reg, spec, module));
            relaxed_only += 1;
        }
    }
    assert!(relaxed_only > 0, "moving the stages must break some match");
    assert_matcher_agrees(&kernel, Arch::Sm86);

    // GRA002: `ldmatrix` and `cp.async` have no Volta entry at all.
    let ampere = build_gemm(Arch::Sm86, &GemmConfig::small(64, 64, 64), Epilogue::None);
    let volta = registry(Arch::Sm70);
    let unmatched = undecomposed_specs(&ampere)
        .into_iter()
        .filter(|spec| match_atomic(spec, &ampere.module, volta).is_none())
        .inspect(|spec| assert_eq!(oracle_index(volta, spec, &ampere.module), None))
        .count();
    assert!(unmatched > 0);
    assert_matcher_agrees(&ampere, Arch::Sm70);
    let gra002 = graphene_ir::validate::check(&ampere, Arch::Sm70)
        .into_iter()
        .filter(|d| d.code == "GRA002")
        .count();
    assert_eq!(gra002, unmatched);
}

// ---------------------------------------------------------------------
// Race oracle: eager enumeration, every pair proven from scratch
// ---------------------------------------------------------------------

struct Access {
    root: TensorId,
    view: TensorId,
    desc: String,
    path: Vec<String>,
    write: bool,
    cp_async: bool,
    loop_free: bool,
    lane_span: Option<u32>,
    lanes_at: HashMap<i64, Vec<i64>>,
}

struct OracleRaces<'m> {
    module: &'m Module,
    reg: &'static [AtomicSpec],
    plans: PlanCache,
    env: HashMap<String, i64>,
    path: Vec<String>,
    guards: Vec<Predicate>,
    /// Pending accesses per root, each with its warp-synced flag.
    pending: HashMap<TensorId, Vec<(Access, bool)>>,
    reported: HashSet<(TensorId, String, String)>,
    diags: Vec<Diagnostic>,
    summary: RaceSummary,
}

fn thread_dependent(cond: &Predicate) -> bool {
    cond.lhs.free_vars().iter().chain(cond.rhs.free_vars().iter()).any(|v| v == "threadIdx.x")
}

fn eval_guard(cond: &Predicate, env: &HashMap<String, i64>) -> Option<bool> {
    match (cond.lhs.eval(env), cond.rhs.eval(env)) {
        (Ok(l), Ok(r)) => Some(l < r),
        _ => None,
    }
}

impl<'m> OracleRaces<'m> {
    fn run(kernel: &'m Kernel, arch: Arch) -> (Vec<Diagnostic>, RaceSummary) {
        let mut cx = OracleRaces {
            module: &kernel.module,
            reg: registry(arch),
            plans: PlanCache::new(),
            env: HashMap::from([("blockIdx.x".to_string(), 0)]),
            path: vec!["body".into()],
            guards: Vec::new(),
            pending: HashMap::new(),
            reported: HashSet::new(),
            diags: Vec::new(),
            summary: RaceSummary::default(),
        };
        cx.walk(&kernel.body.stmts);
        (cx.diags, cx.summary)
    }

    fn walk(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            match s {
                Stmt::For { var, extent, body, .. } => {
                    for i in 0..(*extent).clamp(0, 2) {
                        self.env.insert(var.clone(), i);
                        self.path.push(format!("for {var} (iteration {i})"));
                        self.walk(body);
                        self.path.pop();
                    }
                    self.env.remove(var);
                }
                Stmt::If { cond, then } => {
                    if thread_dependent(cond) {
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
                    None => {
                        for acc in self.accesses(spec) {
                            self.record(acc);
                        }
                    }
                },
                Stmt::Sync(SyncScope::Block) => self.pending.clear(),
                Stmt::Sync(SyncScope::Warp) => {
                    for pend in self.pending.values_mut() {
                        for (_, synced) in pend.iter_mut() {
                            *synced = true;
                        }
                    }
                }
                _ => {}
            }
        }
    }

    fn accesses(&mut self, spec: &Spec) -> Vec<Access> {
        let module = self.module;
        let Some(atomic) = match_atomic(spec, module, self.reg) else { return Vec::new() };
        let Some(&exec) = spec.exec.last() else { return Vec::new() };
        let tt = &module[exec];
        if tt.level != ThreadLevel::Thread {
            return Vec::new();
        }
        let mut lanes = Vec::new();
        for t in exec_lanes(tt, tt.count() as usize) {
            self.env.insert("threadIdx.x".into(), t);
            if self.guards.iter().all(|g| eval_guard(g, &self.env).unwrap_or(true)) {
                lanes.push(t);
            }
            self.env.remove("threadIdx.x");
        }
        if lanes.is_empty() {
            return Vec::new();
        }
        let mut sorted = lanes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let lane_span = (sorted.len() == lanes.len()
            && sorted.len().is_power_of_two()
            && sorted[0] == 0
            && sorted[sorted.len() - 1] == sorted.len() as i64 - 1)
            .then(|| sorted.len().trailing_zeros());
        let tid_only = |vars: Vec<String>| vars.iter().all(|v| v == "threadIdx.x");
        let guards_tid_only =
            self.guards.iter().all(|g| tid_only(g.lhs.free_vars()) && tid_only(g.rhs.free_vars()));
        let mut out = Vec::new();
        for (&id, write) in
            spec.ins.iter().map(|i| (i, false)).chain(spec.outs.iter().map(|o| (o, true)))
        {
            let root = module.root_of(id);
            if module[root].mem != MemSpace::Shared {
                continue;
            }
            let Ok(per_lane) =
                lane_addresses_cached(&mut self.plans, id, module, &lanes, &self.env)
            else {
                continue;
            };
            let mut lanes_at: HashMap<i64, Vec<i64>> = HashMap::new();
            for (t, addrs) in per_lane {
                for a in addrs {
                    lanes_at.entry(a).or_default().push(t);
                }
            }
            out.push(Access {
                root,
                view: id,
                desc: render_spec_header(module, spec),
                path: self.path.clone(),
                write,
                cp_async: write && atomic.name.starts_with("cp.async"),
                loop_free: guards_tid_only && tid_only(module[id].offset.free_vars()),
                lane_span,
                lanes_at,
            });
        }
        out
    }

    fn proven(&mut self, a: &Access, b: &Access) -> bool {
        let (Some(n), Some(nb)) = (a.lane_span, b.lane_span) else { return false };
        let module = self.module;
        let rel_a = self.plans.plan(a.view, module).rel.clone();
        let rel_b = self.plans.plan(b.view, module).rel.clone();
        n == nb
            && prove_pair_disjoint(
                &module[a.view].offset,
                &rel_a,
                &module[b.view].offset,
                &rel_b,
                n,
            ) == PairProof::RaceFree
    }

    fn record(&mut self, acc: Access) {
        let mut pend = self.pending.remove(&acc.root).unwrap_or_default();
        for (p, warp_synced) in &pend {
            if !(p.write || acc.write) {
                continue;
            }
            if self.proven(p, &acc) {
                self.summary.pairs_proven_linear += 1;
                continue;
            }
            let Some((addr, t1, t2)) = oracle_first_conflict(p, &acc) else {
                if p.loop_free && acc.loop_free {
                    self.summary.pairs_proven_enumerated += 1;
                } else {
                    self.summary.pairs_sampled += 1;
                }
                continue;
            };
            let async_write = p.cp_async || acc.cp_async;
            if *warp_synced && !async_write && oracle_within_one_warp(p, &acc) {
                continue;
            }
            if !self.reported.insert((acc.root, p.desc.clone(), acc.desc.clone())) {
                continue;
            }
            self.summary.races_reported += 1;
            let remedy = if async_write {
                "cp.async completion requires a wait + block-level barrier between them"
            } else if *warp_synced {
                "the intervening __syncwarp() does not order threads of different warps; \
                 a block-level __syncthreads() is required"
            } else {
                "insert a block-level __syncthreads() between them"
            };
            let rw = |w: bool| if w { "write" } else { "read" };
            self.diags.push(
                Diagnostic::error(
                    "GRA010",
                    format!(
                        "shared-memory race on %{}: {} by `{}` conflicts with {} by `{}` \
                         at offset {addr} (threads {t1} and {t2}); {remedy}",
                        self.module[acc.root].name,
                        rw(p.write),
                        p.desc,
                        rw(acc.write),
                        acc.desc,
                    ),
                )
                .at(acc.path.clone()),
            );
        }
        let root = acc.root;
        pend.push((acc, false));
        self.pending.insert(root, pend);
    }
}

/// The lowest shared address two different threads touch, scanning
/// from the access with fewer addresses.
fn oracle_first_conflict(a: &Access, b: &Access) -> Option<(i64, i64, i64)> {
    let (small, big, swapped) =
        if a.lanes_at.len() <= b.lanes_at.len() { (a, b, false) } else { (b, a, true) };
    let mut best: Option<(i64, i64, i64)> = None;
    for (&addr, lanes) in &small.lanes_at {
        if let Some(other) = big.lanes_at.get(&addr) {
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

fn oracle_within_one_warp(a: &Access, b: &Access) -> bool {
    a.lanes_at.iter().all(|(addr, lanes)| {
        b.lanes_at.get(addr).is_none_or(|other| {
            lanes.iter().all(|&t1| other.iter().all(|&t2| t1 == t2 || t1 / 32 == t2 / 32))
        })
    })
}

fn count_block_syncs(stmts: &[Stmt]) -> usize {
    stmts
        .iter()
        .map(|s| match s {
            Stmt::Sync(SyncScope::Block) => 1,
            Stmt::For { body, .. } | Stmt::If { then: body, .. } => count_block_syncs(body),
            Stmt::Spec(spec) => spec.body.as_ref().map_or(0, |b| count_block_syncs(&b.stmts)),
            _ => 0,
        })
        .sum()
}

/// Removes the `n`-th block barrier in pre-order; returns whether one
/// was removed.
fn remove_block_sync(stmts: &mut Vec<Stmt>, n: &mut usize) -> bool {
    let mut i = 0;
    while i < stmts.len() {
        if matches!(stmts[i], Stmt::Sync(SyncScope::Block)) {
            if *n == 0 {
                stmts.remove(i);
                return true;
            }
            *n -= 1;
        }
        let removed = match &mut stmts[i] {
            Stmt::For { body, .. } | Stmt::If { then: body, .. } => remove_block_sync(body, n),
            Stmt::Spec(spec) => {
                spec.body.as_mut().is_some_and(|b| remove_block_sync(&mut b.stmts, n))
            }
            _ => false,
        };
        if removed {
            return true;
        }
        i += 1;
    }
    false
}

fn assert_races_agree(kernel: &Kernel, arch: Arch) -> RaceSummary {
    let got = check_races_summary(kernel, arch, &mut PlanCache::new());
    let want = OracleRaces::run(kernel, arch);
    assert_eq!(got.1, want.1, "{} ({arch}): race summary", kernel.name);
    assert_eq!(got.0, want.0, "{} ({arch}): race diagnostics", kernel.name);
    got.1
}

#[test]
fn race_pass_agrees_with_eager_per_pair_walk() {
    let mut total = RaceSummary::default();
    for (arch, kernel) in all_kernels() {
        let s = assert_races_agree(&kernel, arch);
        total.pairs_proven_linear += s.pairs_proven_linear;
        total.races_reported += s.races_reported;
    }
    assert!(total.pairs_proven_linear > 1_000, "{total:?}");
    assert_eq!(total.races_reported, 0, "shipped schedules and tuner candidates are race-free");
}

#[test]
fn planted_races_agree_with_eager_per_pair_walk() {
    let mut reported = 0;
    for (arch, cfg) in
        [(Arch::Sm86, GemmConfig::small(64, 64, 64)), (Arch::Sm70, GemmConfig::small(64, 64, 64))]
    {
        let base = build_gemm(arch, &cfg, Epilogue::None);
        for n in 0..count_block_syncs(&base.body.stmts) {
            let mut kernel = base.clone();
            assert!(remove_block_sync(&mut kernel.body.stmts, &mut { n }));
            reported += assert_races_agree(&kernel, arch).races_reported;
        }
    }
    let db = build_named("gemm-db", Arch::Sm86, &HashMap::new()).unwrap().kernel;
    for n in 0..count_block_syncs(&db.body.stmts) {
        let mut kernel = db.clone();
        assert!(remove_block_sync(&mut kernel.body.stmts, &mut { n }));
        reported += assert_races_agree(&kernel, Arch::Sm86).races_reported;
    }
    assert!(reported > 0, "deleted barriers must race");
}
