//! Kernel validation: shape, memory, and lowerability checks.
//!
//! Graphene IR "precisely describes the implementation" (§5.5), so most
//! errors can be caught before code generation: undecomposed specs that
//! match no atomic spec of the target architecture, execution
//! configurations exceeding the launch dimensions, pointwise specs with
//! mismatched element counts, and shared-memory overflows.
//!
//! Diagnostics use the structured model of [`crate::diag`] (stable
//! `GRA0xx` codes, severities, statement paths). The deeper data-flow
//! passes — shared-memory race detection, barrier hygiene, memory-space
//! legality, accumulator initialisation, bank-conflict grading — live in
//! the `graphene-analysis` crate, which starts from [`check`].

use crate::atomic::{match_atomic, registry, Arch};
use crate::body::Stmt;
use crate::module::Kernel;
use crate::printer::render_spec_header;
use crate::spec::SpecKind;

pub use crate::diag::{Diagnostic, Severity};

/// Runs the structural validation checks, returning every diagnostic
/// found (the list is empty for a lowerable kernel).
pub fn check(kernel: &Kernel, arch: Arch) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let reg = registry(arch);
    let module = &kernel.module;
    let block_threads = kernel.block_size();

    kernel.body.visit(&mut |stmt| {
        if let Stmt::Spec(spec) = stmt {
            // Execution configs must fit in the launch.
            for &t in &spec.exec {
                let tt = &module[t];
                if tt.level == crate::threads::ThreadLevel::Thread && tt.count() > block_threads {
                    diags.push(Diagnostic::error(
                        "GRA001",
                        format!(
                            "spec `{}` requires {} threads but the block has {}",
                            render_spec_header(module, spec),
                            tt.count(),
                            block_threads
                        ),
                    ));
                }
            }
            // Undecomposed specs must be atomic.
            if spec.is_undecomposed() && match_atomic(spec, module, reg).is_none() {
                diags.push(Diagnostic::error(
                    "GRA002",
                    format!(
                        "undecomposed spec `{}` matches no {} atomic spec",
                        render_spec_header(module, spec),
                        arch
                    ),
                ));
            }
            // Pointwise element-count agreement.
            if let SpecKind::BinaryPointwise(_) = spec.kind {
                if let (Some(&a), Some(&b)) = (spec.ins.first(), spec.ins.get(1)) {
                    let (na, nb) = (module[a].ty.num_scalars(), module[b].ty.num_scalars());
                    if na != nb {
                        diags.push(Diagnostic::error(
                            "GRA003",
                            format!("binary pointwise operands disagree: {na} vs {nb} scalars"),
                        ));
                    }
                }
            }
            // Moves preserve total element counts (per executing group).
            // An empty exec executes once (host-like single lane), so the
            // group size is 1 and the check still applies.
            if matches!(spec.kind, SpecKind::Move) && spec.body.is_none() {
                if let (Some(&src), Some(&dst)) = (spec.ins.first(), spec.outs.first()) {
                    let (ns, nd) = (module[src].ty.num_scalars(), module[dst].ty.num_scalars());
                    // Collective moves redistribute across the group and
                    // may over-address (ldmatrix.x2 uses only half the
                    // warp's addresses): totals must divide evenly.
                    let group = spec.exec.last().map(|&t| module[t].group_size()).unwrap_or(1);
                    let (ts, td) = (ns * group, nd * group);
                    let balanced =
                        ts == td || (ts > td && ts % td == 0) || (td > ts && td % ts == 0);
                    if !balanced {
                        diags.push(Diagnostic::error(
                            "GRA004",
                            format!(
                                "move element counts irreconcilable: src {ns}, dst {nd}, group {group}"
                            ),
                        ));
                    }
                }
            }
        }
    });

    // Shared memory budget (per-architecture opt-in limit).
    let smem = kernel.shared_bytes();
    let limit = arch.smem_limit_bytes();
    if smem > limit {
        diags.push(Diagnostic::error(
            "GRA005",
            format!("kernel allocates {smem} B of shared memory ({arch} limit {limit} B)"),
        ));
    }

    diags
}

/// Validates a kernel against an architecture.
///
/// Thin compatibility wrapper over [`check`].
///
/// # Errors
///
/// Returns all diagnostics found (empty `Ok(())` means the kernel is
/// lowerable).
pub fn validate(kernel: &Kernel, arch: Arch) -> Result<(), Vec<Diagnostic>> {
    let diags = check(kernel, arch);
    if diags.is_empty() {
        Ok(())
    } else {
        Err(diags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::dtype::ScalarType;
    use crate::tensor::TensorType;
    use graphene_layout::Layout;

    #[test]
    fn valid_scalar_move_passes() {
        let mut kb = KernelBuilder::new("k", &[1], &[32]);
        let g = kb.param("g", &[32], ScalarType::F32);
        let block = kb.block();
        let r = kb.alloc_reg("r", TensorType::scalar(Layout::contiguous(1), ScalarType::F32));
        let tid = kb.module()[block].group_coords()[0].clone();
        let g_elem = kb.index(g, &[tid]);
        let ts = kb.thread_scalar(block);
        kb.spec(SpecKind::Move, vec![ts], vec![g_elem], vec![r]);
        let kernel = kb.build();
        assert!(validate(&kernel, Arch::Sm86).is_ok());
        assert!(validate(&kernel, Arch::Sm70).is_ok());
    }

    #[test]
    fn unmatchable_spec_reported() {
        let mut kb = KernelBuilder::new("k", &[1], &[32]);
        // A global->global move matches no instruction.
        let g1 = kb.param("g1", &[32], ScalarType::F32);
        let g2 = kb.param("g2", &[32], ScalarType::F32);
        let block = kb.block();
        let ts = kb.thread_scalar(block);
        kb.spec(SpecKind::Move, vec![ts], vec![g1], vec![g2]);
        let kernel = kb.build();
        let err = validate(&kernel, Arch::Sm86).unwrap_err();
        assert!(err.iter().any(|d| d.code == "GRA002" && d.severity == Severity::Error));
    }

    #[test]
    fn oversized_exec_reported() {
        // A spec executed by a 64-thread tensor inside a 32-thread block.
        let mut module = crate::module::Module::new();
        let grid = module.declare_threads(crate::threads::ThreadTensor::new(
            "grid",
            crate::threads::ThreadLevel::Block,
            &[1],
        ));
        let block = module.declare_threads(crate::threads::ThreadTensor::new(
            "threads",
            crate::threads::ThreadLevel::Thread,
            &[32],
        ));
        let big = module.declare_threads(crate::threads::ThreadTensor::new(
            "big",
            crate::threads::ThreadLevel::Thread,
            &[64],
        ));
        let g = module.declare_tensor(
            "g",
            TensorType::row_major(&[64], ScalarType::F32),
            crate::memory::MemSpace::Global,
        );
        let r = module.declare_tensor(
            "r",
            TensorType::scalar(Layout::contiguous(1), ScalarType::F32),
            crate::memory::MemSpace::Register,
        );
        let spec = crate::spec::Spec::atomic(SpecKind::Move, vec![big], vec![g], vec![r]);
        let kernel = crate::module::Kernel {
            name: "k".into(),
            module,
            params: vec![g],
            grid,
            block,
            body: crate::body::Body::from_stmts(vec![Stmt::Spec(spec)]),
        };
        let err = validate(&kernel, Arch::Sm86).unwrap_err();
        let d = err.iter().find(|d| d.code == "GRA001").expect("GRA001 reported");
        assert!(d.message.contains("requires 64 threads"));
    }

    #[test]
    fn smem_overflow_reported() {
        let mut kb = KernelBuilder::new("k", &[1], &[128]);
        kb.alloc_shared(
            "huge",
            TensorType::row_major(&[1024, 128], ScalarType::F32), // 512 KiB
        );
        let kernel = kb.build();
        let err = validate(&kernel, Arch::Sm86).unwrap_err();
        assert!(err.iter().any(|d| d.code == "GRA005"));
    }

    #[test]
    fn smem_limit_is_per_arch() {
        // 98 KiB: over Volta's 96 KiB, under Ampere's 100 KiB.
        let mut kb = KernelBuilder::new("k", &[1], &[128]);
        kb.alloc_shared("mid", TensorType::row_major(&[98 * 1024 / 4], ScalarType::F32));
        let kernel = kb.build();
        assert!(validate(&kernel, Arch::Sm86).is_ok());
        let err = validate(&kernel, Arch::Sm70).unwrap_err();
        assert!(err.iter().any(|d| d.code == "GRA005" && d.message.contains("Volta")));
    }

    #[test]
    fn empty_exec_move_is_still_checked() {
        // A Move with no execution config: the element-count balance
        // check must not be skipped (group defaults to 1).
        let mut kb = KernelBuilder::new("k", &[1], &[32]);
        let g = kb.param("g", &[3], ScalarType::F32);
        let r = kb.alloc_reg("r", TensorType::scalar(Layout::contiguous(2), ScalarType::F32));
        kb.spec(SpecKind::Move, vec![], vec![g], vec![r]);
        let kernel = kb.build();
        let err = validate(&kernel, Arch::Sm86).unwrap_err();
        assert!(err.iter().any(|d| d.code == "GRA004"), "{err:?}");
    }
}
