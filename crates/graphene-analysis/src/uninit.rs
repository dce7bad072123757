//! Accumulator checks: uninitialised accumulators (`GRA013`) and
//! tensor-core accumulators aliasing an operand (`GRA016`).
//!
//! `MatMul` accumulates: `C += A × B`. Its atomic forms (`hfma2`, the
//! Volta and Ampere `mma` instructions) all *read* the accumulator
//! registers before writing them, so a `MatMul` whose output register
//! tile was never written — by an `Init` spec or any prior move — reads
//! garbage. (Per-thread `Reduction` is deliberately *not* checked: the
//! simulator and the hardware lowering fold from the identity element,
//! overwriting the destination, so an uninitialised reduction output is
//! well-defined.)
//!
//! The walk is linear in program order and flow-insensitive about
//! guards: a write under a guard counts as initialising, which errs
//! toward silence — the detector reports only accumulators with *no*
//! preceding write anywhere.

use graphene_ir::atomic::AtomicSemantics;
use graphene_ir::body::Stmt;
use graphene_ir::printer::render_spec_header;
use graphene_ir::spec::SpecKind;
use graphene_ir::tensor::TensorId;
use graphene_ir::{Arch, Diagnostic, Kernel, MemSpace, Module};
use graphene_sim::Sites;
use std::collections::HashSet;

/// Reports `MatMul` specs whose register accumulator is read before any
/// `Init` or other write.
pub fn check_uninit(kernel: &Kernel, _arch: Arch) -> Vec<Diagnostic> {
    let module = &kernel.module;
    let mut initialized: HashSet<TensorId> = HashSet::new();
    let mut reported: HashSet<TensorId> = HashSet::new();
    let mut diags = Vec::new();

    kernel.body.visit(&mut |stmt| {
        let Stmt::Spec(spec) = stmt else { return };
        if !spec.is_undecomposed() {
            // Decomposed specs initialise through their leaves; marking
            // the parent's outputs here would hide leaf-level reads.
            return;
        }
        if matches!(spec.kind, SpecKind::MatMul) {
            for &out in &spec.outs {
                let root = module.root_of(out);
                if module[root].mem == MemSpace::Register
                    && !initialized.contains(&root)
                    && reported.insert(root)
                {
                    diags.push(Diagnostic::error(
                        "GRA013",
                        format!(
                            "accumulator %{} is read by `{}` before any Init or write \
                             (MatMul accumulates into its output)",
                            module[root].name,
                            render_spec_header(module, spec)
                        ),
                    ));
                }
            }
        }
        for &out in &spec.outs {
            initialized.insert(module.root_of(out));
        }
    });
    diags
}

/// Reports tensor-core MMA sites whose accumulator shares its root with
/// the A or B operand. Every interpreter reads all of A, B and C before
/// writing D, so such a kernel still runs, but it is no product of three
/// separate tiles: trace replay, which computes each MMA in place,
/// refuses to record it.
pub(crate) fn check_aliased_accumulators(sites: &Sites, module: &Module) -> Vec<Diagnostic> {
    let mma = |s: &AtomicSemantics| {
        matches!(s, AtomicSemantics::MmaAmpere16816 | AtomicSemantics::MmaVolta884)
    };
    let mut diags = Vec::new();
    for site in sites.sites.iter().filter(|s| mma(&s.atomic.semantics)) {
        // Operands are A, B, then the accumulator.
        let root = |i: usize| site.operands[i].root;
        let which = match root(2) {
            c if c == root(0) => "A",
            c if c == root(1) => "B",
            _ => continue,
        };
        diags.push(Diagnostic::error(
            "GRA016",
            format!(
                "accumulator %{} of `{}` shares its root with the {which} operand \
                 (trace replay computes an MMA in place and cannot record it)",
                module[root(2)].name,
                site.header
            ),
        ));
    }
    diags
}
