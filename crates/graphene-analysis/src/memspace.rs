//! Operand memory-space legality (`GRA012`).
//!
//! The atomic specs of Table 2 prescribe a memory space per operand:
//! `ldmatrix` reads shared memory, `mma` operands live in registers,
//! `cp.async` copies global→shared. A spec whose operand shapes, scalar
//! types, and execution config all match an atomic spec — but whose
//! operand *memory spaces* do not — would fail atomic matching with the
//! generic `GRA002`; this pass re-matches with memory requirements
//! relaxed and, when exactly that relaxation makes a match, pinpoints
//! the offending operand and the space the instruction requires.

use graphene_ir::atomic::{match_atomic, match_relaxed, registry};
use graphene_ir::body::Stmt;
use graphene_ir::printer::render_spec_header;
use graphene_ir::{Arch, Diagnostic, Kernel};

/// Reports specs that match an atomic spec only up to operand memory
/// spaces.
pub fn check_memspace(kernel: &Kernel, arch: Arch) -> Vec<Diagnostic> {
    let reg = registry(arch);
    let module = &kernel.module;
    let mut diags = Vec::new();

    kernel.body.visit(&mut |stmt| {
        let Stmt::Spec(spec) = stmt else { return };
        if !spec.is_undecomposed() || match_atomic(spec, module, reg).is_some() {
            return;
        }
        // Find the first atomic spec that matches once memory-space
        // requirements are dropped: the mismatch is purely a space one.
        let Some(atomic) = match_relaxed(spec, module, arch) else {
            return; // a deeper mismatch; GRA002 already covers it
        };
        let header = render_spec_header(module, spec);
        for (ids, pats, role) in
            [(&spec.ins, &atomic.ins, "input"), (&spec.outs, &atomic.outs, "output")]
        {
            for (i, (&id, pat)) in ids.iter().zip(pats).enumerate() {
                let d = &module[id];
                if !pat.any_mem && d.mem != pat.mem {
                    diags.push(Diagnostic::error(
                        "GRA012",
                        format!(
                            "illegal memory space: {role} #{i} (%{}) of `{header}` is in \
                             {:?} but `{}` requires {:?}",
                            d.name, d.mem, atomic.name, pat.mem
                        ),
                    ));
                }
            }
        }
    });
    diags
}
