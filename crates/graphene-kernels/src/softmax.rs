//! A standalone row-wise softmax kernel.
//!
//! Softmax is the glue of attention (paper §6, FMHA: "two reductions and
//! several pointwise operations"). This schedule assigns one warp per
//! row, with both reductions (max for numerical stability, then the
//! denominator sum) expressed as per-thread `Reduction` specs combined
//! warp-wide through butterfly `Shfl` specs — the same pattern the fused
//! FMHA kernel applies to register-resident fragments.

use crate::common::{check_row_warps, reg_scalar, reg_vec, warp_allreduce};
use graphene_ir::builder::KernelBuilder;
use graphene_ir::spec::SpecKind;
use graphene_ir::{Arch, BinaryOp, Kernel, ReduceOp, ScalarType, UnaryOp};
use graphene_layout::Layout;
use graphene_sym::IntExpr;

/// Softmax problem configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoftmaxConfig {
    /// Number of independent rows.
    pub rows: i64,
    /// Row width. Must be a multiple of 256 (32 lanes × 8-wide loads).
    pub cols: i64,
    /// Rows per block (one warp each).
    pub rows_per_block: i64,
}

impl SoftmaxConfig {
    /// Default: 4 warps per block.
    pub fn new(rows: i64, cols: i64) -> Self {
        SoftmaxConfig { rows, cols, rows_per_block: 4 }
    }

    /// Threads per block.
    pub fn threads(&self) -> i64 {
        self.rows_per_block * 32
    }

    /// Grid blocks.
    pub fn blocks(&self) -> i64 {
        self.rows / self.rows_per_block
    }

    /// Checks every rule [`build_softmax`] relies on: 8-wide loads
    /// across a row's 32 lanes (`cols % 256 == 0`) and whole blocks of
    /// rows. The schedule is the same on every `arch`.
    ///
    /// # Errors
    ///
    /// The first violated rule, naming the kernel and the field.
    pub fn validate(&self, _arch: Arch) -> Result<(), String> {
        check_row_warps("softmax", ("cols", self.cols), self.rows, self.rows_per_block)
    }
}

/// Builds the fused row-softmax kernel `Y[r] = softmax(X[r])`.
///
/// Parameters: `X:[rows,cols]`, `Y:[rows,cols]`, fp16 storage with fp32
/// compute. Architecture-independent (validated on both).
pub fn build_softmax(arch: Arch, cfg: &SoftmaxConfig) -> Kernel {
    cfg.validate(arch).expect("valid softmax config");
    let per_thread = cfg.cols / 32;
    let chunks = per_thread / 8;

    let mut kb = KernelBuilder::new("graphene_softmax", &[cfg.blocks()], &[cfg.threads()]);
    let x = kb.param("X", &[cfg.rows, cfg.cols], ScalarType::F16);
    let y = kb.param("Y", &[cfg.rows, cfg.cols], ScalarType::F16);

    let grid = kb.grid();
    let block = kb.block();
    let bid = kb.module()[grid].group_coords()[0].clone();
    let tid = kb.module()[block].hw_var();
    let lane = tid.clone() % 32;
    let warp_id = tid / 32;
    let row = bid * cfg.rows_per_block + warp_id;
    let warp = kb.thread_tile(block, &Layout::contiguous(32)).expect("warps");

    let x_regs = kb.alloc_reg("xv", reg_vec(per_thread, ScalarType::F32));
    let mx = kb.alloc_reg("mx", reg_scalar(ScalarType::F32));
    let denom = kb.alloc_reg("denom", reg_scalar(ScalarType::F32));

    kb.comment("load the row slice (8-wide converting loads)");
    let x_vec8 = kb.tile_c(x, &[Some(1), Some(8)]).expect("X vectors");
    for u in 0..chunks {
        let col8 = lane.clone() * chunks + u;
        let src = kb.index(x_vec8, &[row.clone(), col8]);
        let dst = kb.view_as(x_regs, reg_vec(8, ScalarType::F32), IntExpr::constant(u * 8));
        let ts = kb.thread_scalar(block);
        kb.spec(SpecKind::Move, vec![grid, ts], vec![src], vec![dst]);
    }

    kb.comment("row max (stability) then exp(x - max)");
    let ts = kb.thread_scalar(block);
    kb.spec(
        SpecKind::Reduction { op: ReduceOp::Max, axes: vec![0] },
        vec![grid, ts],
        vec![x_regs],
        vec![mx],
    );
    warp_allreduce(&mut kb, &[grid], warp, block, mx, ReduceOp::Max);
    let mx8 = kb.alloc_reg("mx8", reg_vec(8, ScalarType::F32));
    for i in 0..8 {
        let slot = kb.view_as(mx8, reg_scalar(ScalarType::F32), IntExpr::constant(i));
        let ts = kb.thread_scalar(block);
        kb.spec(SpecKind::Move, vec![grid, ts], vec![mx], vec![slot]);
    }
    for u in 0..chunks {
        let chunk = kb.view_as(x_regs, reg_vec(8, ScalarType::F32), IntExpr::constant(u * 8));
        let ts = kb.thread_scalar(block);
        kb.spec(
            SpecKind::BinaryPointwise(BinaryOp::Sub),
            vec![grid, ts],
            vec![chunk, mx8],
            vec![chunk],
        );
        let ts = kb.thread_scalar(block);
        kb.spec(SpecKind::UnaryPointwise(UnaryOp::Exp), vec![grid, ts], vec![chunk], vec![chunk]);
    }

    kb.comment("denominator and normalisation");
    let ts = kb.thread_scalar(block);
    kb.spec(
        SpecKind::Reduction { op: ReduceOp::Sum, axes: vec![0] },
        vec![grid, ts],
        vec![x_regs],
        vec![denom],
    );
    warp_allreduce(&mut kb, &[grid], warp, block, denom, ReduceOp::Sum);
    let ts = kb.thread_scalar(block);
    kb.spec(SpecKind::UnaryPointwise(UnaryOp::Recip), vec![grid, ts], vec![denom], vec![denom]);
    let d8 = kb.alloc_reg("d8", reg_vec(8, ScalarType::F32));
    for i in 0..8 {
        let slot = kb.view_as(d8, reg_scalar(ScalarType::F32), IntExpr::constant(i));
        let ts = kb.thread_scalar(block);
        kb.spec(SpecKind::Move, vec![grid, ts], vec![denom], vec![slot]);
    }
    let y_vec8 = kb.tile_c(y, &[Some(1), Some(8)]).expect("Y vectors");
    for u in 0..chunks {
        let col8 = lane.clone() * chunks + u;
        let chunk = kb.view_as(x_regs, reg_vec(8, ScalarType::F32), IntExpr::constant(u * 8));
        let ts = kb.thread_scalar(block);
        kb.spec(
            SpecKind::BinaryPointwise(BinaryOp::Mul),
            vec![grid, ts],
            vec![chunk, d8],
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
    use graphene_sim::host::{softmax_ref, HostTensor};
    use std::collections::HashMap;

    #[test]
    fn softmax_matches_reference() {
        let cfg = SoftmaxConfig::new(8, 256);
        let kernel = build_softmax(Arch::Sm86, &cfg);
        validate(&kernel, Arch::Sm86).expect("validates on Ampere");
        validate(&kernel, Arch::Sm70).expect("validates on Volta");

        let x = HostTensor::random(&[8, 256], 91);
        let mut inputs = HashMap::new();
        inputs.insert(kernel.params[0], x.as_slice().to_vec());
        let out = graphene_sim::execute(&kernel, Arch::Sm86, &inputs).expect("execute");
        let expect = softmax_ref(&x);
        let got = HostTensor::from_vec(&[8, 256], out.globals[&kernel.params[1]].clone());
        got.assert_close(&expect, 1e-4);
    }

    #[test]
    fn softmax_rows_sum_to_one_in_simulation() {
        let cfg = SoftmaxConfig::new(4, 512);
        let kernel = build_softmax(Arch::Sm86, &cfg);
        let x = HostTensor::random(&[4, 512], 92);
        let mut inputs = HashMap::new();
        inputs.insert(kernel.params[0], x.as_slice().to_vec());
        let out = graphene_sim::execute(&kernel, Arch::Sm86, &inputs).expect("execute");
        let y = &out.globals[&kernel.params[1]];
        for r in 0..4 {
            let sum: f32 = y[r * 512..(r + 1) * 512].iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "row {r} sums to {sum}");
        }
    }

    #[test]
    fn softmax_codegen_contains_reductions_and_shuffles() {
        let cfg = SoftmaxConfig::new(8, 256);
        let kernel = build_softmax(Arch::Sm86, &cfg);
        let cuda = graphene_codegen::generate(&kernel, Arch::Sm86).expect("codegen");
        assert!(cuda.contains("__shfl_xor_sync"));
        assert!(cuda.contains("expf("));
        assert!(cuda.contains("max("));
    }
}
