//! Shared-memory bank-conflict grading (`GRA014`).
//!
//! Every shared-memory operand of every atomic access site is graded by
//! its conflict factor — actual transactions over the conflict-free
//! minimum — with the strongest method the access admits
//! ([`graphene_sim::grade_conflicts_cached`]):
//!
//! 1. **F₂ rank proof** (`proven-linear`): XOR-affine offsets are
//!    proved for all warps and all loop iterations by one Gaussian
//!    elimination — no address enumeration at all.
//! 2. **Exhaustive enumeration** (`proven-enumerated`): offsets over
//!    `threadIdx.x` and bounded loop counters are graded at every warp
//!    and every loop-value combination — a complete case analysis.
//! 3. **One-warp sampling** (`sampled`): the fallback; a clean grade is
//!    evidence, not proof.
//!
//! Each `GRA014` finding carries its provenance label. A factor of ≥2×
//! warns, anything above 1× is informational. This is the lint that
//! distinguishes Figure 9's swizzled layouts from naive row-major
//! staging.

use graphene_ir::atomic::{match_atomic, registry};
use graphene_ir::body::Stmt;
use graphene_ir::printer::render_spec_header;
use graphene_ir::threads::ThreadLevel;
use graphene_ir::{Arch, Diagnostic, Kernel, MemSpace, Module, TensorId};
use graphene_sim::{grade_conflicts_cached, BankTally, ConflictProvenance, PlanCache};
use std::collections::{HashMap, HashSet};

/// One shared-memory access site with its conflict grade and the
/// provenance of that grade.
#[derive(Debug, Clone)]
pub struct SiteGrade {
    /// Root shared tensor being accessed.
    pub root: TensorId,
    /// The operand view whose offset addresses the root.
    pub view: TensorId,
    /// Root tensor name (for rendering).
    pub tensor: String,
    /// Rendered spec header of the access site.
    pub spec: String,
    /// Conflict-free transaction count.
    pub ideal: u64,
    /// Actual (worst-case, for proofs) transaction count.
    pub actual: u64,
    /// How the grade was established.
    pub provenance: ConflictProvenance,
}

impl SiteGrade {
    /// `true` when the access needs no extra transactions.
    pub fn conflict_free(&self) -> bool {
        self.actual <= self.ideal
    }

    /// Conflict factor (1.0 = conflict-free).
    pub fn factor(&self) -> f64 {
        if self.ideal == 0 {
            1.0
        } else {
            self.actual as f64 / self.ideal as f64
        }
    }
}

/// Grades every shared-memory access site of a kernel.
pub fn grade_sites(kernel: &Kernel, arch: Arch) -> Vec<SiteGrade> {
    grade_sites_cached(kernel, arch, &mut PlanCache::new())
}

/// Like [`grade_sites`], reusing an externally owned [`PlanCache`]
/// (keyed by tensor id — share it only between passes over this same
/// kernel).
pub fn grade_sites_cached(kernel: &Kernel, arch: Arch, plans: &mut PlanCache) -> Vec<SiteGrade> {
    let mut cx = BankCx {
        module: &kernel.module,
        reg: registry(arch),
        plans,
        tally: BankTally::new(),
        env: HashMap::from([("blockIdx.x".to_string(), 0)]),
        loops: Vec::new(),
        seen: HashSet::new(),
        sites: Vec::new(),
    };
    cx.walk(&kernel.body.stmts);
    cx.sites
}

/// Grades every shared-memory access site by its bank-conflict factor,
/// reporting conflicted sites as `GRA014` (with the grade's provenance).
pub fn check_bank_conflicts(kernel: &Kernel, arch: Arch) -> Vec<Diagnostic> {
    check_bank_conflicts_cached(kernel, arch, &mut PlanCache::new())
}

/// Like [`check_bank_conflicts`], reusing an externally owned
/// [`PlanCache`] (keyed by tensor id — share it only between passes
/// over this same kernel).
pub fn check_bank_conflicts_cached(
    kernel: &Kernel,
    arch: Arch,
    plans: &mut PlanCache,
) -> Vec<Diagnostic> {
    grade_sites_cached(kernel, arch, plans)
        .into_iter()
        .filter(|s| s.ideal != 0 && s.actual > s.ideal)
        .map(|s| {
            let factor = s.factor();
            let msg = format!(
                "%{} access in `{}` has a {factor:.1}x bank-conflict \
                 factor ({} transactions, {} conflict-free; {}); \
                 consider a swizzled layout",
                s.tensor,
                s.spec,
                s.actual,
                s.ideal,
                s.provenance.label(),
            );
            if factor >= 2.0 {
                Diagnostic::warn("GRA014", msg)
            } else {
                Diagnostic::info("GRA014", msg)
            }
        })
        .collect()
}

struct BankCx<'m, 'p> {
    module: &'m Module,
    reg: &'static [graphene_ir::AtomicSpec],
    /// Compiled address plans, shared across every access site.
    plans: &'p mut PlanCache,
    /// Reusable fixed 32-entry conflict tally.
    tally: BankTally,
    env: HashMap<String, i64>,
    /// Enclosing `for` nesting as `(var, extent)` — lets the
    /// enumeration proof cover every iteration, not just iteration 0.
    loops: Vec<(String, i64)>,
    seen: HashSet<(TensorId, String)>,
    sites: Vec<SiteGrade>,
}

impl BankCx<'_, '_> {
    fn walk(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            match s {
                Stmt::For { var, extent, body, .. } => {
                    self.env.insert(var.clone(), 0);
                    self.loops.push((var.clone(), *extent));
                    self.walk(body);
                    self.loops.pop();
                    self.env.remove(var);
                }
                Stmt::If { then, .. } => self.walk(then),
                Stmt::Spec(spec) => match &spec.body {
                    Some(body) => self.walk(&body.stmts),
                    None => self.grade_spec(spec),
                },
                _ => {}
            }
        }
    }

    fn grade_spec(&mut self, spec: &graphene_ir::Spec) {
        let module = self.module;
        let Some(&exec) = spec.exec.last() else { return };
        let tt = &module[exec];
        if tt.level != ThreadLevel::Thread || match_atomic(spec, module, self.reg).is_none() {
            return;
        }
        for &id in spec.ins.iter().chain(spec.outs.iter()) {
            let root = module.root_of(id);
            if module[root].mem != MemSpace::Shared {
                continue;
            }
            let bytes_per = module[id].ty.scalar_type().bytes();
            let Ok(grade) = grade_conflicts_cached(
                self.plans,
                &mut self.tally,
                id,
                module,
                tt,
                &self.env,
                &self.loops,
                bytes_per,
            ) else {
                continue;
            };
            let header = render_spec_header(module, spec);
            if !self.seen.insert((id, header.clone())) {
                continue;
            }
            self.sites.push(SiteGrade {
                root,
                view: id,
                tensor: module[root].name.clone(),
                spec: header,
                ideal: grade.ideal,
                actual: grade.actual,
                provenance: grade.provenance,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphene_ir::Arch;
    use graphene_kernels::gemm::{build_gemm, Epilogue, GemmConfig};
    use graphene_sim::sample_conflicts_cached;

    /// Cross-validation of the F₂ proof against the sampler it replaced:
    /// whatever grade the rank proof assigns a site, enumerating one
    /// representative warp's addresses through the independent
    /// [`BankTally`] path must agree exactly — in particular, a site the
    /// prover declares conflict-free must sample zero extra transactions.
    fn assert_proofs_match_sampling(kernel: &Kernel, arch: Arch) {
        struct Cx<'m, 'p> {
            module: &'m Module,
            reg: &'static [graphene_ir::AtomicSpec],
            plans: &'p mut PlanCache,
            tally: BankTally,
            env: HashMap<String, i64>,
            loops: Vec<(String, i64)>,
            proven: usize,
        }
        impl Cx<'_, '_> {
            fn walk(&mut self, stmts: &[Stmt]) {
                for s in stmts {
                    match s {
                        Stmt::For { var, extent, body, .. } => {
                            self.env.insert(var.clone(), 0);
                            self.loops.push((var.clone(), *extent));
                            self.walk(body);
                            self.loops.pop();
                            self.env.remove(var);
                        }
                        Stmt::If { then, .. } => self.walk(then),
                        Stmt::Spec(spec) => match &spec.body {
                            Some(body) => self.walk(&body.stmts),
                            None => self.check_spec(spec),
                        },
                        _ => {}
                    }
                }
            }

            fn check_spec(&mut self, spec: &graphene_ir::Spec) {
                let module = self.module;
                let Some(&exec) = spec.exec.last() else { return };
                let tt = &module[exec];
                if tt.level != ThreadLevel::Thread || match_atomic(spec, module, self.reg).is_none()
                {
                    return;
                }
                for &id in spec.ins.iter().chain(spec.outs.iter()) {
                    let root = module.root_of(id);
                    if module[root].mem != MemSpace::Shared {
                        continue;
                    }
                    let bytes_per = module[id].ty.scalar_type().bytes();
                    let Ok(grade) = grade_conflicts_cached(
                        self.plans,
                        &mut self.tally,
                        id,
                        module,
                        tt,
                        &self.env,
                        &self.loops,
                        bytes_per,
                    ) else {
                        continue;
                    };
                    if grade.provenance != ConflictProvenance::ProvenLinear {
                        continue;
                    }
                    let (ideal, actual) = sample_conflicts_cached(
                        self.plans,
                        &mut self.tally,
                        id,
                        module,
                        tt,
                        &self.env,
                        bytes_per,
                    )
                    .expect("proof-graded site must also sample");
                    assert_eq!(
                        (grade.ideal, grade.actual),
                        (ideal, actual),
                        "F2 proof and sampled tally disagree on %{}",
                        module[root].name
                    );
                    self.proven += 1;
                }
            }
        }
        let mut cx = Cx {
            module: &kernel.module,
            reg: registry(arch),
            plans: &mut PlanCache::new(),
            tally: BankTally::new(),
            env: HashMap::from([("blockIdx.x".to_string(), 0)]),
            loops: Vec::new(),
            proven: 0,
        };
        cx.walk(&kernel.body.stmts);
        assert!(cx.proven > 0, "{}: no site was graded by the F2 proof", kernel.name);
    }

    #[test]
    fn linear_proofs_agree_with_sampled_tallies() {
        // Swizzled staging (conflict-free proofs) and naive row-major
        // staging (conflicted proofs) must both match the sampler.
        let mut cfg = GemmConfig::small(64, 64, 64);
        assert_proofs_match_sampling(&build_gemm(Arch::Sm86, &cfg, Epilogue::None), Arch::Sm86);
        cfg.swizzle = false;
        assert_proofs_match_sampling(&build_gemm(Arch::Sm86, &cfg, Epilogue::None), Arch::Sm86);
        assert_proofs_match_sampling(&build_gemm(Arch::Sm70, &cfg, Epilogue::None), Arch::Sm70);
    }
}
