//! Static cost analysis of Graphene kernels.
//!
//! The paper's evaluation sizes (e.g. a 5376×5376×2048 GEMM) are far too
//! large to execute element-by-element; but because Graphene IR
//! "precisely describes the implementation" (§5.5), its cost profile is
//! statically computable: for every access site of the kernel's site
//! table ([`crate::sites`]), multiply per-group instruction costs by
//! loop trip counts, thread-group counts, and the grid size.
//! Shared-memory bank-conflict factors are measured exactly by
//! evaluating one representative warp's addresses per access site —
//! the same arithmetic the hardware performs.

use crate::counters::Counters;
use crate::plan::{unique_footprint, BankTally, PlanCache};
use crate::sites::Site;
use graphene_ir::tensor::TensorId;
use graphene_ir::{Arch, Kernel, MemSpace, Module, ThreadTensor};
use std::collections::HashMap;

/// Errors from static analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalyzeError {
    /// An undecomposed spec matched no atomic spec.
    NoAtomicMatch(String),
    /// An address expression could not be evaluated for the sample warp.
    Eval(String),
}

impl std::fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalyzeError::NoAtomicMatch(s) => write!(f, "spec `{s}` matches no atomic spec"),
            AnalyzeError::Eval(m) => write!(f, "cannot evaluate sample address: {m}"),
        }
    }
}

impl std::error::Error for AnalyzeError {}

/// Statically computes the execution counters of a kernel.
///
/// # Errors
///
/// Fails when an undecomposed spec cannot be matched or sample addresses
/// cannot be evaluated.
pub fn analyze(kernel: &Kernel, arch: Arch) -> Result<Counters, AnalyzeError> {
    analyze_bound(kernel, arch, &HashMap::new())
}

/// Like [`analyze`], with values for dynamic (symbolic) kernel
/// parameters (paper §3.4).
///
/// # Errors
///
/// See [`AnalyzeError`].
pub fn analyze_bound(
    kernel: &Kernel,
    arch: Arch,
    bindings: &HashMap<String, i64>,
) -> Result<Counters, AnalyzeError> {
    analyze_cached(kernel, arch, bindings, &mut PlanCache::new())
}

/// Like [`analyze_bound`], reusing an externally owned [`PlanCache`] so
/// callers that run several passes over the *same kernel* (e.g. the
/// autotuner's prune-then-cost pipeline, or `graphene-analysis`
/// followed by counter analysis) compile each tensor's address plan
/// and walk the access-site table ([`PlanCache::sites`]) once instead
/// of once per pass.
///
/// The cache is keyed by [`TensorId`], so it must only ever be shared
/// between passes over one kernel's module — never across kernels.
///
/// # Errors
///
/// See [`AnalyzeError`].
pub fn analyze_cached(
    kernel: &Kernel,
    arch: Arch,
    bindings: &HashMap<String, i64>,
    plans: &mut PlanCache,
) -> Result<Counters, AnalyzeError> {
    let sites = plans.sites(kernel, arch);
    let module = &kernel.module;
    let mut base = bindings.clone();
    base.insert("blockIdx.x".into(), 0);
    let mut c = Counters { syncs: sites.block_syncs, ..Counters::default() };
    let mut tally = BankTally::new();
    // Sites in program order up to the first unmatched spec, as a walk
    // that stops at it would count them. Guards are ignored: a guarded
    // site counts fully (partial tiles over-approximate, paper §3.4).
    let matched = sites.unmatched.as_ref().map_or(sites.sites.len(), |(at, _)| *at);
    for site in &sites.sites[..matched] {
        site_counters(site, module, &site.env(&base), &mut c, plans, &mut tally)?;
    }
    if let Some((_, header)) = &sites.unmatched {
        return Err(AnalyzeError::NoAtomicMatch(header.clone()));
    }
    // Whole-kernel scaling: every block executes the body.
    let mut total = c.scaled(kernel.grid_size() as u64);

    (total.unique_global_read_bytes, total.unique_global_write_bytes) = unique_footprint(kernel);
    Ok(total)
}

/// Adds one block's counters of `site` to `c`.
fn site_counters(
    site: &Site,
    module: &Module,
    env: &HashMap<String, i64>,
    c: &mut Counters,
    plans: &mut PlanCache,
    tally: &mut BankTally,
) -> Result<(), AnalyzeError> {
    let (atomic, mult) = (site.atomic, site.mult);
    let tt = &module[site.exec];
    let groups = tt.num_groups() as u64;
    let group_size = tt.group_size() as u64;
    let lanes_total = groups * group_size;

    // Instructions and FLOPs. Collective instructions (group > 1 lane)
    // count once per group, matching the interpreter.
    let collective = atomic.exec_local.size() > 1;
    if collective {
        c.instructions += groups * mult;
    } else {
        c.instructions += lanes_total * mult;
    }
    if atomic.cost.tensor_core {
        c.flops_tc += atomic.cost.flops * groups * mult;
    } else if collective {
        c.flops_fma += atomic.cost.flops * groups * mult;
    } else {
        c.flops_fma += atomic.cost.flops * lanes_total * mult;
    }

    // Traffic per operand.
    for op in &site.operands {
        let scalars = module[op.view].ty.num_scalars() as u64;
        let total_bytes = scalars * op.bytes_per * lanes_total * mult;
        match (op.mem, op.write) {
            (MemSpace::Global, false) => c.global_read_bytes += total_bytes,
            (MemSpace::Global, true) => c.global_write_bytes += total_bytes,
            (MemSpace::Shared, write) => {
                if write {
                    c.smem_write_bytes += total_bytes;
                } else {
                    c.smem_read_bytes += total_bytes;
                }
                // One warp's conflict factor: by the F₂ rank proof when
                // its grade provably coincides with the sampled warp's
                // (the representative lanes form one aligned hardware
                // warp, so the proof's coset argument applies to exactly
                // the lanes sampling would evaluate), else by sampling.
                let proved = if crate::prove::sample_is_aligned_warp(tt) {
                    crate::prove::prove_conflicts_linear(plans, module, op, &site.lanes)
                } else {
                    None
                };
                let (accesses, transactions) = match proved {
                    Some(g) => (g.ideal, g.actual),
                    None => sample_conflicts_cached(
                        plans,
                        tally,
                        op.view,
                        module,
                        tt,
                        env,
                        op.bytes_per,
                    )?,
                };
                let chunk = 32.min(lanes_total).max(1);
                let instances = (lanes_total * mult).div_ceil(chunk);
                c.smem_accesses += accesses * instances;
                c.smem_transactions += transactions * instances;
            }
            (MemSpace::Register, _) => {}
        }
    }
    Ok(())
}

/// Enumerates the concrete `threadIdx.x` values covered by an execution
/// config, outermost groups first, capped at `limit` lanes.
///
/// A per-thread config (`group_size() == 1`) yields one lane per group;
/// a collective config yields `group base + local offset` for every
/// group member — including non-contiguous layouts such as Volta's
/// quad-pairs.
pub fn exec_lanes(tt: &ThreadTensor, limit: usize) -> Vec<i64> {
    let mut lanes = Vec::with_capacity(limit.min(tt.count() as usize));
    if tt.group_size() == 1 {
        for g in 0..tt.num_groups().min(limit as i64) {
            lanes.push(tt.group.value(g));
        }
    } else {
        'groups: for g in 0..tt.num_groups() {
            let base = tt.group.value(g);
            for j in 0..tt.group_size() {
                if lanes.len() >= limit {
                    break 'groups;
                }
                lanes.push(base + tt.local.value(j));
            }
        }
    }
    lanes
}

/// The representative lanes a sampled grade evaluates: the first
/// warp's worth of threads covered by the exec tensor (the first 32
/// groups of a per-thread config, the first group of a collective one).
pub(crate) fn sample_lanes(tt: &ThreadTensor) -> Vec<i64> {
    let limit = if tt.group_size() == 1 { 32 } else { tt.group_size().min(32) };
    exec_lanes(tt, limit as usize)
}

/// Evaluates the scalar shared/global addresses an operand view touches
/// for each given lane, with the root tensor's swizzle applied — the
/// same arithmetic the interpreter and the hardware perform — compiling
/// the view's address plan at most once through a shared [`PlanCache`].
///
/// Loop variables and dynamic parameters must already be bound in
/// `env`; `threadIdx.x` is bound per lane.
///
/// # Errors
///
/// Fails when the view's offset expression references an unbound
/// variable.
pub fn lane_addresses_cached(
    plans: &mut PlanCache,
    id: TensorId,
    module: &Module,
    lanes: &[i64],
    env: &HashMap<String, i64>,
) -> Result<Vec<(i64, Vec<i64>)>, AnalyzeError> {
    plans.lane_addresses(id, module, lanes, env).map_err(|e| AnalyzeError::Eval(e.to_string()))
}

/// Evaluates one representative warp's addresses (the first warp's
/// worth of the exec tensor's lanes) for a shared-memory operand and
/// counts its bank-conflict serialisation in a reusable [`BankTally`]:
/// returns `(ideal transactions, actual transactions)` for one
/// warp-wide access.
///
/// # Errors
///
/// See [`AnalyzeError`].
pub fn sample_conflicts_cached(
    plans: &mut PlanCache,
    tally: &mut BankTally,
    id: TensorId,
    module: &Module,
    tt: &ThreadTensor,
    env: &HashMap<String, i64>,
    bytes_per: u64,
) -> Result<(u64, u64), AnalyzeError> {
    let per_lane = lane_addresses_cached(plans, id, module, &sample_lanes(tt), env)?;
    for (_, lane) in &per_lane {
        for &a in lane {
            tally.add_addr(a, bytes_per);
        }
    }
    Ok(tally.grade())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphene_ir::builder::KernelBuilder;
    use graphene_ir::spec::SpecKind;
    use graphene_ir::tensor::TensorType;
    use graphene_ir::ScalarType;
    use graphene_layout::Layout;

    /// Analysis and functional execution agree on a small kernel.
    #[test]
    fn analysis_matches_execution() {
        let mut kb = KernelBuilder::new("copy", &[4], &[64]);
        let src = kb.param("src", &[256], ScalarType::F32);
        let dst = kb.param("dst", &[256], ScalarType::F32);
        let block = kb.block();
        let grid = kb.grid();
        let bid = kb.module()[grid].group_coords()[0].clone();
        let tid = kb.module()[block].group_coords()[0].clone();
        let idx = bid * 64 + tid;
        let r = kb.alloc_reg("r", TensorType::scalar(Layout::contiguous(1), ScalarType::F32));
        let s = kb.index(src, std::slice::from_ref(&idx));
        let d = kb.index(dst, &[idx]);
        let ts = kb.thread_scalar(block);
        kb.spec(SpecKind::Move, vec![ts], vec![s], vec![r]);
        let ts2 = kb.thread_scalar(block);
        kb.spec(SpecKind::Move, vec![ts2], vec![r], vec![d]);
        let kernel = kb.build();

        let an = analyze(&kernel, Arch::Sm86).expect("analyze");
        let ex = crate::exec::execute(&kernel, Arch::Sm86, &Default::default()).expect("exec");
        assert_eq!(an.global_read_bytes, ex.counters.global_read_bytes);
        assert_eq!(an.global_write_bytes, ex.counters.global_write_bytes);
        assert_eq!(an.instructions, ex.counters.instructions);
        assert_eq!(an.unique_global_read_bytes, ex.counters.unique_global_read_bytes);
    }

    /// Loop trip counts multiply instruction counts.
    #[test]
    fn loops_scale_counters() {
        let mut kb = KernelBuilder::new("loop", &[1], &[32]);
        let block = kb.block();
        let a = kb.alloc_reg("a", TensorType::scalar(Layout::contiguous(1), ScalarType::F32));
        let b = kb.alloc_reg("b", TensorType::scalar(Layout::contiguous(1), ScalarType::F32));
        kb.for_loop("i", 10, true, |kb, _| {
            let ts = kb.thread_scalar(block);
            kb.spec(SpecKind::MatMul, vec![ts], vec![a, b], vec![b]);
        });
        let kernel = kb.build();
        let an = analyze(&kernel, Arch::Sm86).unwrap();
        // 10 iterations x 32 threads x 2 flops (fmaf).
        assert_eq!(an.flops_fma, 10 * 32 * 2);
        assert_eq!(an.instructions, 10 * 32);
    }
}
