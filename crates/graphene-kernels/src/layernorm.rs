//! The fused Layernorm kernel (paper Figure 13).
//!
//! Layernorm "does not perform any GEMM computations but instead
//! consists only of a combination of pointwise and reduction
//! computations" (§6). The fused single-pass schedule assigns one warp
//! per row: each thread loads `hidden/32` elements with vectorised
//! converting loads, produces per-thread partial sums of `x` and `x²`
//! (`Reduction` specs), combines them warp-wide with butterfly `Shfl`
//! specs, and normalises + stores in the same pass — one kernel, one
//! read and one write of the activation.

use crate::common::{check_row_warps, reg_scalar, reg_vec, warp_allreduce};
use graphene_ir::builder::KernelBuilder;
use graphene_ir::spec::SpecKind;
use graphene_ir::{Arch, BinaryOp, Kernel, ReduceOp, ScalarType, UnaryOp};
use graphene_layout::Layout;
use graphene_sym::IntExpr;

/// Layernorm problem configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayernormConfig {
    /// Number of independent rows (batch × sequence).
    pub rows: i64,
    /// Normalised (hidden) dimension. Must be a multiple of 256
    /// (32 lanes × 8-wide vector loads).
    pub hidden: i64,
    /// Rows handled per block (one warp each).
    pub rows_per_block: i64,
}

impl LayernormConfig {
    /// A BERT-style configuration.
    pub fn new(rows: i64, hidden: i64) -> Self {
        LayernormConfig { rows, hidden, rows_per_block: 4 }
    }

    /// Threads per block.
    pub fn threads(&self) -> i64 {
        self.rows_per_block * 32
    }

    /// Grid size.
    pub fn blocks(&self) -> i64 {
        self.rows / self.rows_per_block
    }

    /// Checks every rule [`build_layernorm`] relies on: 8-wide loads
    /// across a row's 32 lanes (`hidden % 256 == 0`) and whole blocks of
    /// rows. The schedule is the same on every `arch`.
    ///
    /// # Errors
    ///
    /// The first violated rule, naming the kernel and the field.
    pub fn validate(&self, _arch: Arch) -> Result<(), String> {
        check_row_warps("layernorm", ("hidden", self.hidden), self.rows, self.rows_per_block)
    }
}

/// Builds the fused single-pass Layernorm kernel
/// `Y[r] = (X[r] - mean) * rstd * gamma + beta`.
///
/// Parameters: `X:[rows,hidden]`, `gamma:[hidden]`, `beta:[hidden]`,
/// `Y:[rows,hidden]`, all fp16 with fp32 compute.
///
/// The schedule is architecture-independent (no tensor instructions);
/// `arch` only selects the atomic-spec registry used for validation.
pub fn build_layernorm(arch: Arch, cfg: &LayernormConfig) -> Kernel {
    cfg.validate(arch).expect("valid layernorm config");
    let per_thread = cfg.hidden / 32; // f32 values each thread owns
    let chunks = per_thread / 8;

    let mut kb = KernelBuilder::new("graphene_layernorm", &[cfg.blocks()], &[cfg.threads()]);
    let x = kb.param("X", &[cfg.rows, cfg.hidden], ScalarType::F16);
    let gamma = kb.param("gamma", &[cfg.hidden], ScalarType::F16);
    let beta = kb.param("beta", &[cfg.hidden], ScalarType::F16);
    let y = kb.param("Y", &[cfg.rows, cfg.hidden], ScalarType::F16);

    let grid = kb.grid();
    let block = kb.block();
    let bid = kb.module()[grid].group_coords()[0].clone();
    let tid = kb.module()[block].hw_var();
    let lane = tid.clone() % 32;
    let warp_id = tid.clone() / 32;
    let row = bid * cfg.rows_per_block + warp_id;
    let warp = kb.thread_tile(block, &Layout::contiguous(32)).expect("warp tiling");

    // Per-thread working set: its slice of the row in fp32.
    let x_regs = kb.alloc_reg("xv", reg_vec(per_thread, ScalarType::F32));
    let sq_regs = kb.alloc_reg("sq", reg_vec(per_thread, ScalarType::F32));
    let sum = kb.alloc_reg("sum", reg_scalar(ScalarType::F32));
    let sumsq = kb.alloc_reg("sumsq", reg_scalar(ScalarType::F32));

    kb.comment("vectorised converting loads: each lane owns hidden/32 values");
    let x_vec8 = kb.tile_c(x, &[Some(1), Some(8)]).expect("X vectors");
    for u in 0..chunks {
        let col8 = lane.clone() * chunks + u;
        let src = kb.index(x_vec8, &[row.clone(), col8]);
        let dst = kb.view_as(x_regs, reg_vec(8, ScalarType::F32), IntExpr::constant(u * 8));
        let ts = kb.thread_scalar(block);
        kb.spec(SpecKind::Move, vec![grid, ts], vec![src], vec![dst]);
        // Squares computed chunk-wise alongside the load.
        let sq = kb.view_as(sq_regs, reg_vec(8, ScalarType::F32), IntExpr::constant(u * 8));
        let ts = kb.thread_scalar(block);
        kb.spec(SpecKind::BinaryPointwise(BinaryOp::Mul), vec![grid, ts], vec![dst, dst], vec![sq]);
    }

    kb.comment("per-thread partial sum and sum of squares, then warp allreduce");
    let ts = kb.thread_scalar(block);
    kb.spec(
        SpecKind::Reduction { op: ReduceOp::Sum, axes: vec![0] },
        vec![grid, ts],
        vec![x_regs],
        vec![sum],
    );
    let ts = kb.thread_scalar(block);
    kb.spec(
        SpecKind::Reduction { op: ReduceOp::Sum, axes: vec![0] },
        vec![grid, ts],
        vec![sq_regs],
        vec![sumsq],
    );
    warp_allreduce(&mut kb, &[grid], warp, block, sum, ReduceOp::Sum);
    warp_allreduce(&mut kb, &[grid], warp, block, sumsq, ReduceOp::Sum);

    kb.comment("mean = sum/h; rstd = rsqrt(sumsq/h - mean^2 + eps)");
    let h_reg = kb.alloc_reg("hconst", reg_scalar(ScalarType::F32));
    let ts = kb.thread_scalar(block);
    kb.spec(SpecKind::Init { value: cfg.hidden as f64 }, vec![grid, ts], vec![], vec![h_reg]);
    let mean = kb.alloc_reg("mean", reg_scalar(ScalarType::F32));
    let ts = kb.thread_scalar(block);
    kb.spec(SpecKind::BinaryPointwise(BinaryOp::Div), vec![grid, ts], vec![sum, h_reg], vec![mean]);
    let var = kb.alloc_reg("var", reg_scalar(ScalarType::F32));
    let ts = kb.thread_scalar(block);
    kb.spec(
        SpecKind::BinaryPointwise(BinaryOp::Div),
        vec![grid, ts],
        vec![sumsq, h_reg],
        vec![var],
    );
    let mean_sq = kb.alloc_reg("mean2", reg_scalar(ScalarType::F32));
    let ts = kb.thread_scalar(block);
    kb.spec(
        SpecKind::BinaryPointwise(BinaryOp::Mul),
        vec![grid, ts],
        vec![mean, mean],
        vec![mean_sq],
    );
    let ts = kb.thread_scalar(block);
    kb.spec(
        SpecKind::BinaryPointwise(BinaryOp::Sub),
        vec![grid, ts],
        vec![var, mean_sq],
        vec![var],
    );
    let eps = kb.alloc_reg("eps", reg_scalar(ScalarType::F32));
    let ts = kb.thread_scalar(block);
    kb.spec(SpecKind::Init { value: 1e-5 }, vec![grid, ts], vec![], vec![eps]);
    let ts = kb.thread_scalar(block);
    kb.spec(SpecKind::BinaryPointwise(BinaryOp::Add), vec![grid, ts], vec![var, eps], vec![var]);
    let rstd = kb.alloc_reg("rstd", reg_scalar(ScalarType::F32));
    let ts = kb.thread_scalar(block);
    kb.spec(SpecKind::UnaryPointwise(UnaryOp::Rsqrt), vec![grid, ts], vec![var], vec![rstd]);

    kb.comment("broadcast mean/rstd to vector registers");
    let mean8 = kb.alloc_reg("mean8", reg_vec(8, ScalarType::F32));
    let rstd8 = kb.alloc_reg("rstd8", reg_vec(8, ScalarType::F32));
    for i in 0..8 {
        for (s, d) in [(mean, mean8), (rstd, rstd8)] {
            let slot = kb.view_as(d, reg_scalar(ScalarType::F32), IntExpr::constant(i));
            let ts = kb.thread_scalar(block);
            kb.spec(SpecKind::Move, vec![grid, ts], vec![s], vec![slot]);
        }
    }

    kb.comment("normalise, scale/shift, and store");
    let g_vec8 = kb.tile_c(gamma, &[Some(8)]).expect("gamma vectors");
    let b_vec8 = kb.tile_c(beta, &[Some(8)]).expect("beta vectors");
    let y_vec8 = kb.tile_c(y, &[Some(1), Some(8)]).expect("Y vectors");
    let g_regs = kb.alloc_reg("g8", reg_vec(8, ScalarType::F32));
    let b_regs = kb.alloc_reg("b8", reg_vec(8, ScalarType::F32));
    for u in 0..chunks {
        let col8 = lane.clone() * chunks + u;
        let chunk = kb.view_as(x_regs, reg_vec(8, ScalarType::F32), IntExpr::constant(u * 8));
        let g_src = kb.index(g_vec8, std::slice::from_ref(&col8));
        let ts = kb.thread_scalar(block);
        kb.spec(SpecKind::Move, vec![grid, ts], vec![g_src], vec![g_regs]);
        let b_src = kb.index(b_vec8, std::slice::from_ref(&col8));
        let ts2 = kb.thread_scalar(block);
        kb.spec(SpecKind::Move, vec![grid, ts2], vec![b_src], vec![b_regs]);
        let ts = kb.thread_scalar(block);
        kb.spec(
            SpecKind::BinaryPointwise(BinaryOp::Sub),
            vec![grid, ts],
            vec![chunk, mean8],
            vec![chunk],
        );
        let ts = kb.thread_scalar(block);
        kb.spec(
            SpecKind::BinaryPointwise(BinaryOp::Mul),
            vec![grid, ts],
            vec![chunk, rstd8],
            vec![chunk],
        );
        let ts = kb.thread_scalar(block);
        kb.spec(
            SpecKind::BinaryPointwise(BinaryOp::Mul),
            vec![grid, ts],
            vec![chunk, g_regs],
            vec![chunk],
        );
        let ts = kb.thread_scalar(block);
        kb.spec(
            SpecKind::BinaryPointwise(BinaryOp::Add),
            vec![grid, ts],
            vec![chunk, b_regs],
            vec![chunk],
        );
        let dst = kb.index(y_vec8, &[row.clone(), col8]);
        let ts = kb.thread_scalar(block);
        kb.spec(SpecKind::Move, vec![grid, ts], vec![chunk], vec![dst]);
    }

    kb.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphene_ir::validate::validate;
    use graphene_sim::host::{layernorm_ref, HostTensor};
    use std::collections::HashMap;

    #[test]
    fn layernorm_matches_reference() {
        let cfg = LayernormConfig::new(8, 256);
        let kernel = build_layernorm(Arch::Sm86, &cfg);
        validate(&kernel, Arch::Sm86).expect("validates on Ampere");
        validate(&kernel, Arch::Sm70).expect("validates on Volta");

        let x = HostTensor::random(&[8, 256], 21);
        let gamma: Vec<f32> = (0..256).map(|i| 0.5 + (i % 7) as f32 * 0.1).collect();
        let beta: Vec<f32> = (0..256).map(|i| (i % 5) as f32 * 0.2 - 0.4).collect();
        let mut inputs = HashMap::new();
        inputs.insert(kernel.params[0], x.as_slice().to_vec());
        inputs.insert(kernel.params[1], gamma.clone());
        inputs.insert(kernel.params[2], beta.clone());
        let out = graphene_sim::execute(&kernel, Arch::Sm86, &inputs).expect("execute");

        let expect = layernorm_ref(&x, &gamma, &beta, 1e-5);
        let got = HostTensor::from_vec(&[8, 256], out.globals[&kernel.params[3]].clone());
        got.assert_close(&expect, 2e-3);
    }

    #[test]
    fn layernorm_reads_and_writes_activation_once() {
        let cfg = LayernormConfig::new(64, 512);
        let kernel = build_layernorm(Arch::Sm86, &cfg);
        let c = graphene_sim::analyze(&kernel, Arch::Sm86).expect("analyze");
        let activation_bytes = 64 * 512 * 2;
        // One read of X, one write of Y, plus gamma/beta per row-warp.
        assert_eq!(c.global_write_bytes, activation_bytes);
        let gamma_beta = 2 * 512 * 2 * 64; // re-read per row
        assert_eq!(c.global_read_bytes, activation_bytes + gamma_beta);
        // DRAM footprint counts parameters once.
        assert_eq!(c.unique_global_read_bytes, (64 * 512 * 2) + 2 * 512 * 2);
    }

    #[test]
    #[should_panic(expected = "multiple of 256")]
    fn rejects_unaligned_hidden() {
        build_layernorm(Arch::Sm86, &LayernormConfig::new(8, 100));
    }
}
