//! # graphene-analysis
//!
//! Static analyses over Graphene IR kernels.
//!
//! Because Graphene IR "precisely describes the implementation" (paper
//! §5.5) — every data tensor carries its layout and memory space, every
//! spec its execution configuration, and address arithmetic is symbolic
//! but evaluable — whole classes of GPU bugs that normally require
//! `compute-sanitizer` runs on hardware are decidable *statically* from
//! the IR. This crate queries a kernel's access-site table
//! ([`graphene_sim::Sites`], one walk shared by every pass) and reports
//! structured [`Diagnostic`]s (stable `GRA0xx` codes, severities,
//! statement paths; see [`graphene_ir::diag`]):
//!
//! - **[`races`] — shared-memory race detection (`GRA010`)**: evaluates
//!   per-thread addresses for every shared-memory access between
//!   synchronisation points (the same arithmetic the simulator and the
//!   hardware perform) and reports write→read / write→write hazards that
//!   lack an adequate intervening barrier, including the `cp.async`
//!   commit/wait discipline of Ampere's asynchronous copies.
//! - **[`races`] — redundant-barrier lint (`GRA011`)**: block barriers
//!   with no shared-memory traffic since the previous barrier.
//! - **[`memspace`] — operand memory-space legality (`GRA012`)**: specs
//!   that would match an atomic spec *except* for an operand's memory
//!   space (e.g. `ldmatrix` from global memory).
//! - **[`uninit`] — uninitialised accumulators (`GRA013`)**: `MatMul`
//!   specs whose accumulator is read before any `Init` or write.
//! - **[`banks`] — bank-conflict grading (`GRA014`)**: conflict factors
//!   per shared-memory access site, warning at ≥2×, each carrying the
//!   provenance of its grade (`proven-linear` / `proven-enumerated` /
//!   `sampled`).
//! - **[`prove`] — out-of-bounds detection (`GRA015`)**: shared/global
//!   accesses proven inside their root allocation by symbolic bounds
//!   propagation, with corner-environment witness enumeration as the
//!   fallback; violations are errors.
//!
//! The symbolic core is the F₂ abstraction: [`linear`] proves
//! race-pair disjointness by solving one XOR-linear system over the
//! bits of the thread ids and vector indices, and [`prove`] aggregates
//! every proof (conflicts, races, bounds) into a [`prove::ProofReport`]
//! and synthesizes conflict-eliminating XOR swizzles
//! ([`prove::synthesize_for_root`]).
//!
//! The structural checks of [`graphene_ir::validate`] (`GRA001`–`GRA005`)
//! run first; [`analyze_kernel`] is the whole pipeline.

#![warn(missing_docs)]

pub mod banks;
pub mod linear;
pub mod memspace;
pub mod prove;
pub mod races;
pub mod uninit;
mod walk;

pub use graphene_ir::diag::{render_json, Diagnostic, Severity};
use graphene_ir::{Arch, Kernel};
use graphene_sim::PlanCache;
use prove::ProofReport;

/// Runs every analysis pass over a kernel and returns the combined
/// diagnostics, most severe first.
pub fn analyze_kernel(kernel: &Kernel, arch: Arch) -> Vec<Diagnostic> {
    analyze_kernel_cached(kernel, arch, &mut PlanCache::new())
}

/// Like [`analyze_kernel`], reusing an externally owned [`PlanCache`]
/// (one kernel's passes only): the diagnostics of [`lint_kernel_cached`].
pub fn analyze_kernel_cached(
    kernel: &Kernel,
    arch: Arch,
    plans: &mut PlanCache,
) -> Vec<Diagnostic> {
    lint_kernel_cached(kernel, arch, plans).0
}

/// Runs every analysis pass once: the combined diagnostics, most severe
/// first, and the [`ProofReport`] of the same race, bank-grading and
/// bounds results. The site table and address plans in `plans` are
/// reused by a later `graphene_sim::analyze_cached` of the same kernel
/// (the autotuner's prune-then-cost pipeline).
pub fn lint_kernel_cached(
    kernel: &Kernel,
    arch: Arch,
    plans: &mut PlanCache,
) -> (Vec<Diagnostic>, ProofReport) {
    let mut diags = graphene_ir::validate::check(kernel, arch);
    let (race_diags, races) = races::check_races_summary(kernel, arch, plans);
    diags.extend(race_diags);
    diags.extend(races::check_redundant_barriers(kernel));
    diags.extend(memspace::check_memspace(kernel, arch));
    diags.extend(uninit::check_uninit(kernel, arch));
    let conflicts = banks::grade_sites_cached(kernel, arch, plans);
    diags.extend(banks::conflict_diagnostics(&conflicts));
    let bounds = prove::bounds_checks_cached(kernel, arch, plans);
    diags.extend(prove::bounds_diagnostics(&bounds));
    diags.sort_by(|a, b| b.severity.cmp(&a.severity).then_with(|| a.code.cmp(b.code)));
    (diags, ProofReport { conflicts, races, bounds })
}

/// Convenience: the number of [`Severity::Error`] diagnostics in a list.
pub fn error_count(diags: &[Diagnostic]) -> usize {
    diags.iter().filter(|d| d.severity == Severity::Error).count()
}
