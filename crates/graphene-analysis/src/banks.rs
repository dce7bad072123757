//! Shared-memory bank-conflict grading (`GRA014`).
//!
//! Every shared-memory operand of every access site of the kernel's
//! site table ([`graphene_sim::Sites`]) is graded by
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

use graphene_ir::{Arch, Diagnostic, Kernel, MemSpace, TensorId};
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

/// Like [`grade_sites`], reusing an externally owned [`PlanCache`] and
/// its site table (keyed by tensor id — share it only between passes
/// over this same kernel). Each `(view, spec header)` is graded once,
/// at its first site.
pub fn grade_sites_cached(kernel: &Kernel, arch: Arch, plans: &mut PlanCache) -> Vec<SiteGrade> {
    let sites = plans.sites(kernel, arch);
    let module = &kernel.module;
    let base = HashMap::from([("blockIdx.x".to_string(), 0)]);
    let mut tally = BankTally::new();
    let mut seen = HashSet::new();
    let mut grades = Vec::new();
    for site in &sites.sites {
        let env = site.env(&base);
        for op in site.operands.iter().filter(|o| o.mem == MemSpace::Shared) {
            let key = (op.view, site.header.as_str());
            if seen.contains(&key) {
                continue;
            }
            let Ok(grade) = grade_conflicts_cached(plans, &mut tally, module, site, op, &env)
            else {
                continue;
            };
            seen.insert(key);
            grades.push(SiteGrade {
                root: op.root,
                view: op.view,
                tensor: module[op.root].name.clone(),
                spec: site.header.clone(),
                ideal: grade.ideal,
                actual: grade.actual,
                provenance: grade.provenance,
            });
        }
    }
    grades
}

/// Reports conflicted sites as `GRA014`, with the grade's provenance.
pub(crate) fn conflict_diagnostics(grades: &[SiteGrade]) -> Vec<Diagnostic> {
    grades
        .iter()
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
        let module = &kernel.module;
        let mut plans = PlanCache::new();
        let mut tally = BankTally::new();
        let base = HashMap::from([("blockIdx.x".to_string(), 0)]);
        let mut proven = 0;
        for site in plans.sites(kernel, arch).sites.iter() {
            let env = site.env(&base);
            for op in site.operands.iter().filter(|o| o.mem == MemSpace::Shared) {
                let Ok(grade) =
                    grade_conflicts_cached(&mut plans, &mut tally, module, site, op, &env)
                else {
                    continue;
                };
                if grade.provenance != ConflictProvenance::ProvenLinear {
                    continue;
                }
                let tt = &module[site.exec];
                let (ideal, actual) = sample_conflicts_cached(
                    &mut plans,
                    &mut tally,
                    op.view,
                    module,
                    tt,
                    &env,
                    op.bytes_per,
                )
                .expect("proof-graded site must also sample");
                assert_eq!(
                    (grade.ideal, grade.actual),
                    (ideal, actual),
                    "F2 proof and sampled tally disagree on %{}",
                    module[op.root].name
                );
                proven += 1;
            }
        }
        assert!(proven > 0, "{}: no site was graded by the F2 proof", kernel.name);
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
