//! Executable lowering: from the front-end [`Graph`] to a runnable
//! [`ExecGraph`] over compiled kernel plans.
//!
//! [`crate::graph`]'s `lower_fused` / `lower_unfused` produce *timing*
//! plans — library kernels there are roofline models with no IR. This
//! module produces the *execution* form: every node becomes a real
//! Graphene kernel with a compiled [`KernelPlan`], its parameters
//! bound to named externals (input `"x"`, weights `"n{i}.W"`, biases
//! `"n{i}.bias"`, layernorm `"n{i}.gamma"`/`"n{i}.beta"`) or to
//! workspace temps the graph executor plans into one arena.
//!
//! Two lowering modes mirror the paper's comparison:
//!
//! - [`ExecLowering::Default`] — one kernel per graph node: GEMMs with
//!   no epilogue, then standalone [`crate::pointwise`] bias-add and
//!   activation kernels. The cumulative-library baseline, executable.
//! - [`ExecLowering::Fused`] — `MatMul (+BiasAdd) (+ReLU/GeLU)` chains
//!   absorb into the GEMM epilogue (paper Figure 10), dropping the
//!   intermediate activations entirely.
//!
//! Both modes share kernels for `Layernorm` (Figure 13) and
//! `Attention` (the fused FMHA of Figure 14, one launch that reads Q/K/V
//! and writes O straight from the `[batch·seq, heads·d]` activation:
//! head split and merge are views of it, not kernels), and both name
//! externals by the *original* op index, so one weight map drives
//! either lowering. The simulator computes in
//! f32 everywhere and the fused epilogue applies the same `Add`/
//! activation specs to the same accumulator values the unfused chain
//! stores and reloads — so the two lowerings execute bit-identically,
//! which the equivalence suite asserts.

use crate::fmha::FmhaConfig;
use crate::gemm::{build_gemm, Epilogue, GemmConfig};
use crate::graph::{absorb_epilogue, Graph, Op};
use crate::layernorm::{build_layernorm, LayernormConfig};
use crate::pointwise::{build_bias_add, build_unary};
use graphene_ir::{Arch, Kernel};
use graphene_sim::{ArgBinding, ExecGraph, ExecNode, GraphKey, KernelPlan};
use std::sync::Arc;

/// Which lowering strategy to make executable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecLowering {
    /// One kernel per graph node (the library-baseline shape).
    Default,
    /// GEMM-epilogue absorption of bias/activation nodes.
    Fused,
}

impl ExecLowering {
    /// Short label for signatures and reports.
    pub fn label(self) -> &'static str {
        match self {
            ExecLowering::Default => "default",
            ExecLowering::Fused => "fused",
        }
    }
}

/// FNV-1a over a canonical graph description — the graph-trace cache
/// identity. Stable across runs; changes with ops, dims, lowering
/// mode, or arch.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The graph-trace cache key [`lower_executable`] stamps on its
/// result, computed from the front-end graph alone — no lowering, no
/// compilation — so a warm caller can look the trace up first and
/// lower only on a miss. The signature is an FNV-1a hash of a
/// canonical description: stable across runs, and it changes with
/// ops, dims, lowering mode, or arch.
pub fn graph_key(graph: &Graph, arch: Arch, lowering: ExecLowering) -> GraphKey {
    let (rows, cols, ops) = (graph.rows, graph.cols, &graph.ops);
    let desc = format!("{rows}x{cols}:{ops:?}:{}:{arch}", lowering.label());
    GraphKey {
        signature: format!("g{:016x}-{}", fnv1a(&desc), lowering.label()),
        problem: format!("rows={rows} cols={cols} ops={}", ops.len()),
        arch,
    }
}

/// The GEMM tile ladder: the cuBLAS-like tile first, then smaller
/// tiles for problems it cannot divide. All entries are legal on both
/// architectures when they divide the problem.
const GEMM_TILES: &[(i64, i64, i64, i64, i64)] =
    &[(128, 128, 32, 64, 64), (64, 64, 32, 32, 32), (64, 64, 16, 32, 32), (32, 32, 16, 32, 32)];

fn pick_gemm(m: i64, n: i64, k: i64, arch: Arch) -> Result<GemmConfig, String> {
    for &(bm, bn, bk, wm, wn) in GEMM_TILES {
        let cfg = GemmConfig { m, n, k, bm, bn, bk, wm, wn, swizzle: true };
        if cfg.validate(arch).is_ok() {
            return Ok(cfg);
        }
    }
    Err(format!("no GEMM tile divides {m}x{n}x{k} on {arch}"))
}

/// Builder state threaded through the lowering.
struct Lowerer {
    arch: Arch,
    nodes: Vec<ExecNode>,
    temps: Vec<usize>,
}

impl Lowerer {
    fn temp(&mut self, scalars: usize) -> usize {
        self.temps.push(scalars);
        self.temps.len() - 1
    }

    fn push(
        &mut self,
        kernel: &Kernel,
        problem: String,
        args: Vec<ArgBinding>,
    ) -> Result<(), String> {
        let plan = KernelPlan::compile(kernel, self.arch)
            .map_err(|e| format!("compiling `{}`: {e}", kernel.name))?;
        self.nodes.push(ExecNode {
            kernel: kernel.name.clone(),
            problem,
            plan: Arc::new(plan),
            args,
        });
        Ok(())
    }
}

/// Lowers a front-end graph to an executable kernel chain.
///
/// The input activation binds to external `"x"`; per-op parameters
/// bind to `"n{i}.W"` / `"n{i}.bias"` / `"n{i}.gamma"` / `"n{i}.beta"`
/// where `i` is the op's index in `graph.ops` — identical names in
/// both lowering modes, so one input map drives either. The final
/// activation is the graph's only output temp.
///
/// # Errors
///
/// A description of the first op the executable kernel set cannot
/// cover: an ill-formed graph, a GEMM no tile ladder entry divides, a
/// layernorm off the fused kernel's alignment, attention off Ampere or
/// with an untileable `seq`/`d`, or misaligned pointwise shapes.
pub fn lower_executable(
    graph: &Graph,
    arch: Arch,
    lowering: ExecLowering,
) -> Result<ExecGraph, String> {
    graph.infer_shapes()?;
    let rows = graph.rows;
    let mut lw = Lowerer { arch, nodes: Vec::new(), temps: Vec::new() };
    let mut cur = ArgBinding::External("x".to_string());
    let mut cols = graph.cols;
    let ops = &graph.ops;
    let mut i = 0usize;

    while i < ops.len() {
        match &ops[i] {
            Op::MatMul { n } => {
                // Fused mode: absorb a following BiasAdd (+ReLU/GeLU)
                // or bare ReLU into the epilogue.
                let (epilogue, bias_op, consumed) = match lowering {
                    ExecLowering::Fused => absorb_epilogue(ops, i),
                    ExecLowering::Default => (Epilogue::None, None, 1),
                };
                let cfg = pick_gemm(rows, *n, cols, arch)?;
                let kernel = build_gemm(arch, &cfg, epilogue);
                let out = lw.temp((rows * n) as usize);
                let mut args = vec![
                    cur.clone(),
                    ArgBinding::External(format!("n{i}.W")),
                    ArgBinding::TempOut(out),
                ];
                if let Some(b) = bias_op {
                    args.push(ArgBinding::External(format!("n{b}.bias")));
                }
                lw.push(
                    &kernel,
                    format!("m={rows} n={n} k={cols} epi={}", epilogue.label()),
                    args,
                )?;
                cur = ArgBinding::TempIn(out);
                cols = *n;
                i += consumed;
            }
            Op::BiasAdd => {
                let kernel = build_bias_add(rows, cols);
                let out = lw.temp((rows * cols) as usize);
                lw.push(
                    &kernel,
                    format!("rows={rows} cols={cols}"),
                    vec![
                        cur.clone(),
                        ArgBinding::External(format!("n{i}.bias")),
                        ArgBinding::TempOut(out),
                    ],
                )?;
                cur = ArgBinding::TempIn(out);
                i += 1;
            }
            Op::Activation(op) => {
                let kernel = build_unary(rows, cols, *op);
                let out = lw.temp((rows * cols) as usize);
                lw.push(
                    &kernel,
                    format!("rows={rows} cols={cols}"),
                    vec![cur.clone(), ArgBinding::TempOut(out)],
                )?;
                cur = ArgBinding::TempIn(out);
                i += 1;
            }
            Op::Layernorm => {
                let cfg = LayernormConfig::new(rows, cols);
                cfg.validate(arch).map_err(|e| format!("op {i}: {e}"))?;
                let kernel = build_layernorm(arch, &cfg);
                let out = lw.temp((rows * cols) as usize);
                lw.push(
                    &kernel,
                    format!("rows={rows} hidden={cols}"),
                    vec![
                        cur.clone(),
                        ArgBinding::External(format!("n{i}.gamma")),
                        ArgBinding::External(format!("n{i}.beta")),
                        ArgBinding::TempOut(out),
                    ],
                )?;
                cur = ArgBinding::TempIn(out);
                i += 1;
            }
            Op::Attention { heads, seq } => {
                // Q = K = V = the activation, viewed per (batch, head)
                // in place; O lands in the same `[rows, cols]` layout.
                let d = cols / heads;
                let bq = [128, 64, 32].into_iter().find(|b| seq % b == 0).unwrap_or(32);
                let instances = rows / seq * heads;
                let cfg =
                    FmhaConfig { heads: instances, row_heads: *heads, seq: *seq, d, bq, wm: 32 };
                cfg.validate(arch).map_err(|e| format!("op {i}: {e}"))?;
                let fmha = crate::fmha::build_fused_fmha(arch, &cfg);
                let out = lw.temp((rows * cols) as usize);
                lw.push(
                    &fmha,
                    format!("inst={instances} row_heads={heads} seq={seq} d={d} bq={bq}"),
                    vec![cur.clone(), cur.clone(), cur.clone(), ArgBinding::TempOut(out)],
                )?;
                cur = ArgBinding::TempIn(out);
                i += 1;
            }
        }
    }

    let ArgBinding::TempIn(result) = cur else {
        return Err("graph has no ops: nothing to execute".to_string());
    };
    let GraphKey { signature, problem, arch } = graph_key(graph, arch, lowering);
    Ok(ExecGraph {
        signature,
        problem,
        arch,
        nodes: lw.nodes,
        temps: lw.temps,
        outputs: vec![result],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::encoder_graph;

    #[test]
    fn fused_lowering_launches_fewer_kernels() {
        let g = encoder_graph(1, 1, 64, 256, 4, 256);
        let fused = lower_executable(&g, Arch::Sm86, ExecLowering::Fused).expect("fused lowers");
        let default =
            lower_executable(&g, Arch::Sm86, ExecLowering::Default).expect("default lowers");
        assert!(fused.nodes.len() < default.nodes.len());
        fused.validate().expect("fused graph is well-formed");
        default.validate().expect("default graph is well-formed");
        // Same externals in both modes: one weight map drives either.
        assert_eq!(fused.externals(), default.externals());
    }

    #[test]
    fn signatures_distinguish_modes_and_problems() {
        let g = encoder_graph(1, 1, 64, 256, 4, 256);
        let a = lower_executable(&g, Arch::Sm86, ExecLowering::Fused).unwrap();
        let b = lower_executable(&g, Arch::Sm86, ExecLowering::Default).unwrap();
        let g2 = encoder_graph(2, 1, 64, 256, 4, 256);
        let c = lower_executable(&g2, Arch::Sm86, ExecLowering::Fused).unwrap();
        assert_ne!(a.signature, b.signature);
        assert_ne!(a.signature, c.signature);
    }

    #[test]
    fn graph_key_equals_the_lowered_key() {
        for g in [encoder_graph(1, 1, 64, 256, 4, 256), encoder_graph(2, 1, 128, 256, 4, 1024)] {
            for mode in [ExecLowering::Fused, ExecLowering::Default] {
                let eg = lower_executable(&g, Arch::Sm86, mode).unwrap();
                assert_eq!(graph_key(&g, Arch::Sm86, mode), eg.key());
            }
        }
    }

    #[test]
    fn volta_attention_is_rejected() {
        let g = encoder_graph(1, 1, 64, 256, 4, 256);
        let err = lower_executable(&g, Arch::Sm70, ExecLowering::Fused).unwrap_err();
        assert!(err.contains("Ampere"), "{err}");
    }

    #[test]
    fn attention_launches_one_kernel() {
        // Per layer: QKV GEMM, FMHA, out-projection, layernorm, two FFN
        // GEMMs, layernorm — plus, unfused, three bias-adds and the GeLU.
        let g = encoder_graph(2, 1, 128, 256, 4, 1024);
        let fused = lower_executable(&g, Arch::Sm86, ExecLowering::Fused).unwrap();
        let default = lower_executable(&g, Arch::Sm86, ExecLowering::Default).unwrap();
        assert_eq!((fused.nodes.len(), default.nodes.len()), (14, 22));
    }

    #[test]
    fn narrow_head_dim_is_an_error() {
        // d = 32 / 4 = 8 is not a multiple of the MMA K.
        let g = Graph::new(128, 32).op(Op::Attention { heads: 4, seq: 128 });
        let err = lower_executable(&g, Arch::Sm86, ExecLowering::Fused).unwrap_err();
        assert!(err.contains("op 0: fmha requires") && err.contains("d 8"), "{err}");
    }

    #[test]
    fn attention_over_the_shared_memory_budget_is_an_error() {
        let g = Graph::new(2048, 64).op(Op::Attention { heads: 1, seq: 2048 });
        let err = lower_executable(&g, Arch::Sm86, ExecLowering::Fused).unwrap_err();
        assert!(err.starts_with("op 0: shared-memory budget"), "{err}");
    }

    #[test]
    fn untileable_gemm_is_rejected() {
        let g = Graph::new(40, 40).op(Op::MatMul { n: 40 });
        let err = lower_executable(&g, Arch::Sm86, ExecLowering::Fused).unwrap_err();
        assert!(err.contains("no GEMM tile"), "{err}");
    }
}
