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

// ---------------------------------------------------------------------
// Pinned outputs: every analysis surface of every kernel above
// ---------------------------------------------------------------------

/// 64-bit FNV-1a.
fn fnv1a(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// One line per kernel of [`all_kernels`], in order: index, arch,
/// kernel name, then the FNV-1a of the `lint --emit=json` document, of
/// the proof report's JSON and text renderings, of the `Debug` of the
/// static counters, and of the swizzles synthesized for every shared
/// root (GEMM kernels only; `0` elsewhere).
const ANALYSIS_PINS: &str = "\
00 Sm86 graphene_gemm_sm86_gemm 9c7742f3cb26e984 8de1d0824ab7754d ae19325d4bca07a2 c9be7f198ddd9561 d428c30c7375c122
01 Sm86 graphene_gemm_sm86_double_buffered c9bd6b9ba201b55f f12891a0f3f4ec8d 31297fcfe3f25918 21b56a474ae58c3b 69e75f2ec684b700
02 Sm86 graphene_fused_mlp_4l eabffa8f75a09d49 5d2ebb0844768126 2b26403da2628c8d 135718f139066cf1 0000000000000000
03 Sm86 graphene_fused_lstm d5060862fcb896c4 12d29f0c25ee8fb5 4264bb5b1e8f02cc 6a1ec0e729facfb7 0000000000000000
04 Sm86 graphene_layernorm 6b2175143c0f6403 4499ad16c657f8b8 c0a4ca6ee5609075 af3b43f5ae82cd67 0000000000000000
05 Sm86 graphene_softmax 46a8bf464cfd721a b07733c385c9f84c 5e2ef15c7098ebfd 1e3c89d763f6b790 0000000000000000
06 Sm86 graphene_fused_fmha 5b0184d0955d4650 841634abcde1bbd9 d4b44ec7194f48c3 b90db21382acaed3 0000000000000000
07 Sm70 graphene_gemm_sm70_gemm 09cfedaee0301e87 ceca5df699babd5d aaaafd3e47c160c3 1b719a8cb7b1e9ec 93db1b746089b821
08 Sm70 graphene_fused_mlp_4l 93fb3d6072485467 a135299256a64175 2994281c452c3dbb af7cfdc7aefac521 0000000000000000
09 Sm70 graphene_fused_lstm 78064e4e75318947 95460e6e2fd8ff62 b96879d60862cf41 33b35ba8592e0291 0000000000000000
10 Sm70 graphene_layernorm 6b2175143c0f6403 4499ad16c657f8b8 c0a4ca6ee5609075 af3b43f5ae82cd67 0000000000000000
11 Sm70 graphene_softmax 46a8bf464cfd721a b07733c385c9f84c 5e2ef15c7098ebfd 1e3c89d763f6b790 0000000000000000
12 Sm86 graphene_gemm_sm86_double_buffered c9bd6b9ba201b55f 9ff65050e888b142 372e5cea5f76b10b 16c841cb3e099b2a 90ad859e96772bfe
13 Sm86 graphene_gemm_sm86_gemm 9c7742f3cb26e984 012dd0744b25b98c 2d076620e75432cd c171cb32f658065b d428c30c7375c122
14 Sm86 graphene_gemm_sm86_gemm 9c7742f3cb26e984 88a4e7100d8db397 315459c54df62a67 150550faf6b95157 326374f11587fcc3
15 Sm86 graphene_gemm_sm86_double_buffered bc009ab30c40d01a 6e2b018b5e685fee 899cf57d0bfde4d8 d41b07bfcb11a355 89e409ee3b3dc6a2
16 Sm86 graphene_gemm_sm86_double_buffered c9bd6b9ba201b55f 810b95ae45d4e640 e657e70aac7e3bf7 2d04865ecfbd4dff 77b20ca3ef788100
17 Sm86 graphene_gemm_sm86_double_buffered c9bd6b9ba201b55f 91c6468d7a633d65 69f12895a5961301 6ea3dd4d5d925faa c7bf718499df78b6
18 Sm86 graphene_gemm_sm86_double_buffered c9bd6b9ba201b55f 4d80ff145963cf24 69ae3e0e2b6c7c1d b51abeccc0024de7 bf4b2df9efdb24d4
19 Sm86 graphene_gemm_sm86_gemm 9c7742f3cb26e984 4c57df28e026590d 79abce87710858dc 830f4f5bf6d1ec8b 7a8ee249fe1b0c8a
20 Sm86 graphene_gemm_sm86_gemm 9c7742f3cb26e984 034b8fe9d4b4c833 75b8a14120d3b8a2 2b4a2c4672a85325 75c550795e182e29
21 Sm86 graphene_gemm_sm86_gemm 9c7742f3cb26e984 fc1bc94a74a9a384 78d21af21aa6aef7 6869e47f56f345df 808e2077825c9b3a
22 Sm86 graphene_gemm_sm86_double_buffered c9bd6b9ba201b55f f18ea22ad47b2e50 0c3c4b6c85379b17 375f1a963cf27977 ea57e41c773552ce
23 Sm86 graphene_gemm_sm86_double_buffered c9bd6b9ba201b55f 7feab718babe1f13 d14d1453366a632c 16f76d3013833f82 bec89ef5e77b91e0
24 Sm86 graphene_gemm_sm86_gemm 9c7742f3cb26e984 4739b293cf301bac 8b87f4d585615282 81148636be1c8302 808e2077825c9b3a
25 Sm86 graphene_gemm_sm86_gemm 9c7742f3cb26e984 ec139ba56a24ea98 9b709f3634f769d6 2b0749e0439b5972 8f1eaf796c45aa44
26 Sm86 graphene_gemm_sm86_gemm 9c7742f3cb26e984 3da2e062440d7d98 3c54282f1e9ecb5a 733d220b425a18ea 1eab8451be2841ff
27 Sm86 graphene_gemm_sm86_double_buffered c9bd6b9ba201b55f f7dcb32efde848c3 a022347860690360 cc451dd6fff69a22 bf4b2df9efdb24d4
28 Sm86 graphene_gemm_sm86_double_buffered c9bd6b9ba201b55f 194e235eba6ebdae b3093f88af60e797 ed4d57f70337d426 ac005f663c8bbcc2
29 Sm86 graphene_gemm_sm86_gemm 9c7742f3cb26e984 0bdca81beeb90617 24a6cb620b2f0506 c97c66ca2a218f57 ca6250ac28538026
30 Sm86 graphene_gemm_sm86_double_buffered c9bd6b9ba201b55f 0068c74b984ca6fc 52fa9ce0e4e15edf 32a86b89dc38a058 ea57e41c773552ce
31 Sm86 graphene_gemm_sm86_double_buffered c9bd6b9ba201b55f f7601a39db8e29ee eb1e5088d1db6037 72416d487017ab1c 7d83d1410e03b4de
32 Sm86 graphene_fused_fmha e592f99e6d3fb141 e4760746a03d6231 1c640bb9cdb2efed 06498965be169dfc 0000000000000000
33 Sm86 graphene_fused_fmha d296da7fcd394522 ddbead5e47b08aae 4ca9dfa5d3461b2e 6c29de06b679285f 0000000000000000
34 Sm86 graphene_fused_fmha 7f987b0c0326cd25 1f0b18bfe90e7f22 bbb27e63e6dfce80 367d776e2cc8eea1 0000000000000000
35 Sm86 graphene_fused_fmha dbe5e1b56e24718a aa78b6594aabd855 982eb0ba67ffbabb c9b9a232d243003c 0000000000000000
36 Sm86 graphene_fused_fmha c37dfaa4bc3c87ad 9ef81144f7d1e8f8 188132ad87806f50 9bb5e1df82c3a554 0000000000000000
37 Sm86 graphene_fused_fmha 658a746d9ec9cdbc 11e47eebe87d1fe7 823712cfcf6fa48b 1af3960fe8130672 0000000000000000
38 Sm86 graphene_fused_fmha 62f54e38c56a9ba3 555d3c6e6671b18a f3a3adc93c6b8760 d5c1d839e706a53a 0000000000000000
39 Sm86 graphene_fused_fmha d296da7fcd394522 6aa16e49e0fe6c6f dacadd909619ce75 102a4f2b782e88ae 0000000000000000
40 Sm86 graphene_fused_mlp_2l 24c113275e4733ca c0c9b144c3e2f622 f919712d05b9c6f0 107c3b2d50784463 0000000000000000
41 Sm86 graphene_fused_mlp_2l a3f32d0a676b8430 3fcefea85dfb1746 793b2aa14498c03e e7525f8f4108d39c 0000000000000000
42 Sm86 graphene_fused_mlp_2l 66be929a94a2b522 03bc7b55a2d211b0 03d960fef66525b2 30f0a97ba786c060 0000000000000000
43 Sm86 graphene_fused_mlp_2l 9f1d4848fec2c279 22d0e6bb68c52681 4ca49cc7b9971e57 cef433848d1b5698 0000000000000000
44 Sm86 graphene_fused_mlp_2l 7efbea0684a59cef ec857cb6aacbf263 b2be086271f04b61 46077ca0846cb72c 0000000000000000
45 Sm86 graphene_fused_mlp_2l 7c63baa2d9a5631c f83779aa9e613062 f89245d277e258a0 4b5cce7fe1cf7061 0000000000000000
46 Sm86 graphene_fused_mlp_2l 068cbad803f2975d c3cbe5fe300f3737 a55b670438ac5c0a 1ecf87ae6a8bf015 0000000000000000
47 Sm86 graphene_fused_mlp_2l 8270887ee51f56c8 ce18f4de95c3793f 1db6ee7539f96059 ee435ea491c648e9 0000000000000000
48 Sm86 graphene_fused_mlp_2l 79749f66ee8777df 35a2aac48f0c5042 264aaf7a38001bfa 173da6d1ce2995c4 0000000000000000
49 Sm86 graphene_fused_mlp_2l 23a7d80600699d24 546f64fd5522d7f8 75db6034dd67c750 18d5f473fd690846 0000000000000000
50 Sm86 graphene_fused_mlp_2l 45d3fe819afee723 842f6b9a2886a16e 2c1328eed0e94b79 355ec8759f0be2c7 0000000000000000
51 Sm86 graphene_fused_mlp_2l 2bd7843ec3bf6f72 343250b2560ea169 1659f3672d3ea57f 31240835c34ec0e0 0000000000000000
52 Sm86 graphene_fused_mlp_2l 0e0c695f76007a1d 4da6dc80c27a4e2a 45aaa9ed5547e6e4 f953a105cbf2e373 0000000000000000
53 Sm86 graphene_fused_mlp_2l 63941ff3ad68adbe f7b10ffea0b4bf06 6efe810802cdd732 a02b1015fafc9f8c 0000000000000000
54 Sm86 graphene_layernorm 6b2175143c0f6403 4499ad16c657f8b8 c0a4ca6ee5609075 af3b43f5ae82cd67 0000000000000000
55 Sm86 graphene_layernorm 6b2175143c0f6403 4499ad16c657f8b8 c0a4ca6ee5609075 af3b43f5ae82cd67 0000000000000000
56 Sm86 graphene_layernorm 6b2175143c0f6403 4499ad16c657f8b8 c0a4ca6ee5609075 af3b43f5ae82cd67 0000000000000000
57 Sm86 graphene_layernorm 6b2175143c0f6403 4499ad16c657f8b8 c0a4ca6ee5609075 af3b43f5ae82cd67 0000000000000000
58 Sm86 graphene_layernorm 6b2175143c0f6403 4499ad16c657f8b8 c0a4ca6ee5609075 af3b43f5ae82cd67 0000000000000000
";

/// The pin line of one kernel, computed by the public entry points.
fn analysis_pin_line(i: usize, arch: Arch, kernel: &Kernel) -> String {
    use graphene_analysis::prove::{prove_kernel, synthesize_for_root};
    let lint = graphene_analysis::render_json(
        &kernel.name,
        &graphene_analysis::analyze_kernel(kernel, arch),
    );
    let proof = prove_kernel(kernel, arch);
    let counters = format!("{:?}", graphene_sim::analyze(kernel, arch));
    let synth = if kernel.name.contains("gemm") {
        let module = &kernel.module;
        let mut plans = PlanCache::new();
        let swizzles: Vec<String> = module
            .tensors()
            .filter(|&(id, d)| module.root_of(id) == id && d.mem == MemSpace::Shared)
            .map(|(id, d)| {
                format!("{}={:?}", d.name, synthesize_for_root(kernel, arch, id, &mut plans))
            })
            .collect();
        fnv1a(&swizzles.join(";"))
    } else {
        0
    };
    format!(
        "{i:02} {arch:?} {} {:016x} {:016x} {:016x} {:016x} {synth:016x}\n",
        kernel.name,
        fnv1a(&lint),
        fnv1a(&proof.render_json()),
        fnv1a(&proof.render_text()),
        fnv1a(&counters),
    )
}

/// Lint diagnostics, proof reports, static counters and synthesized
/// swizzles stay byte-identical across refactors of the analyses. On a
/// mismatch the test prints every moved line and the whole table.
#[test]
fn analysis_outputs_match_their_pinned_fingerprints() {
    let table: String = all_kernels()
        .iter()
        .enumerate()
        .map(|(i, (arch, k))| analysis_pin_line(i, *arch, k))
        .collect();
    let moved: Vec<&str> =
        table.lines().filter(|l| !ANALYSIS_PINS.lines().any(|p| p == *l)).collect();
    assert_eq!(table.lines().count(), ANALYSIS_PINS.lines().count(), "pin table:\n{table}");
    assert!(
        moved.is_empty(),
        "{} pin(s) moved:\n{}\npin table:\n{table}",
        moved.len(),
        moved.join("\n")
    );
}
