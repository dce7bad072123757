//! Standalone pointwise kernels for the *default* graph lowering.
//!
//! The fused lowering absorbs bias-add and activations into GEMM
//! epilogues; the default lowering launches one kernel per graph node,
//! so it needs real executable kernels for the nodes the library
//! models only *time* (`cudnn_pointwise` has no IR). These builders
//! fill that gap with the simplest competent schedule: 128 threads per
//! block, one 8-wide vectorised load/store per thread (1024 scalars
//! per block), grid sized to cover the tensor.
//!
//! Bit-identicality with the fused epilogue falls out of the
//! simulator's f32-everywhere value model: the epilogue computes
//! `act(acc + bias)` in f32, and the unfused chain stores `acc`,
//! reloads the identical f32 bits, and applies the same `Add` and
//! activation specs — same operations on same values, same bits.

use crate::common::reg_vec;
use graphene_ir::builder::KernelBuilder;
use graphene_ir::spec::SpecKind;
use graphene_ir::{BinaryOp, Kernel, ScalarType, UnaryOp};

/// Threads per block for all pointwise kernels.
const THREADS: i64 = 128;
/// Scalars covered per block (8-wide vectors per thread).
const PER_BLOCK: i64 = THREADS * 8;

fn check_grid(total: i64, cols: i64) -> i64 {
    assert_eq!(cols % 8, 0, "cols must be a multiple of 8 for vectorised access");
    assert_eq!(total % PER_BLOCK, 0, "tensor scalars must be a multiple of {PER_BLOCK}");
    total / PER_BLOCK
}

/// Builds `Y[rows,cols] = X[rows,cols] + bias[cols]` (row broadcast).
///
/// Parameter order matches the GEMM epilogue's operand order
/// (activation first, bias second), so the `Add` spec sees the same
/// operand sequence the fused kernel uses.
pub fn build_bias_add(rows: i64, cols: i64) -> Kernel {
    let blocks = check_grid(rows * cols, cols);
    let mut kb = KernelBuilder::new("graphene_bias_add", &[blocks], &[THREADS]);
    let x = kb.param("X", &[rows, cols], ScalarType::F16);
    let bias = kb.param("bias", &[cols], ScalarType::F16);
    let y = kb.param("Y", &[rows, cols], ScalarType::F16);

    let grid = kb.grid();
    let block = kb.block();
    let bid = kb.module()[grid].group_coords()[0].clone();
    let tid = kb.module()[block].hw_var();
    let v = bid * THREADS + tid; // this thread's vec8 index
    let cols8 = cols / 8;
    let row = v.clone() / cols8;
    let col8 = v % cols8;

    let x8 = kb.tile_c(x, &[Some(1), Some(8)]).expect("X vectors");
    let b8 = kb.tile_c(bias, &[Some(8)]).expect("bias vectors");
    let y8 = kb.tile_c(y, &[Some(1), Some(8)]).expect("Y vectors");
    let xr = kb.alloc_reg("x8", reg_vec(8, ScalarType::F32));
    let br = kb.alloc_reg("b8", reg_vec(8, ScalarType::F32));

    let src = kb.index(x8, &[row.clone(), col8.clone()]);
    let ts = kb.thread_scalar(block);
    kb.spec(SpecKind::Move, vec![grid, ts], vec![src], vec![xr]);
    let bsrc = kb.index(b8, std::slice::from_ref(&col8));
    let ts = kb.thread_scalar(block);
    kb.spec(SpecKind::Move, vec![grid, ts], vec![bsrc], vec![br]);
    let ts = kb.thread_scalar(block);
    kb.spec(SpecKind::BinaryPointwise(BinaryOp::Add), vec![grid, ts], vec![xr, br], vec![xr]);
    let dst = kb.index(y8, &[row, col8]);
    let ts = kb.thread_scalar(block);
    kb.spec(SpecKind::Move, vec![grid, ts], vec![xr], vec![dst]);

    kb.build()
}

/// Builds `Y[rows,cols] = op(X[rows,cols])` elementwise.
///
/// The op is folded into the kernel name (`graphene_unary_relu`, …) so
/// two different activations never share a trace-cache key.
pub fn build_unary(rows: i64, cols: i64, op: UnaryOp) -> Kernel {
    let blocks = check_grid(rows * cols, cols);
    let name = match op {
        UnaryOp::Relu => "graphene_unary_relu".to_string(),
        UnaryOp::Gelu => "graphene_unary_gelu".to_string(),
        other => format!("graphene_unary_{}", format!("{other:?}").to_lowercase()),
    };
    let mut kb = KernelBuilder::new(&name, &[blocks], &[THREADS]);
    let x = kb.param("X", &[rows, cols], ScalarType::F16);
    let y = kb.param("Y", &[rows, cols], ScalarType::F16);

    let grid = kb.grid();
    let block = kb.block();
    let bid = kb.module()[grid].group_coords()[0].clone();
    let tid = kb.module()[block].hw_var();
    let v = bid * THREADS + tid;
    let cols8 = cols / 8;
    let row = v.clone() / cols8;
    let col8 = v % cols8;

    let x8 = kb.tile_c(x, &[Some(1), Some(8)]).expect("X vectors");
    let y8 = kb.tile_c(y, &[Some(1), Some(8)]).expect("Y vectors");
    let xr = kb.alloc_reg("x8", reg_vec(8, ScalarType::F32));

    let src = kb.index(x8, &[row.clone(), col8.clone()]);
    let ts = kb.thread_scalar(block);
    kb.spec(SpecKind::Move, vec![grid, ts], vec![src], vec![xr]);
    let ts = kb.thread_scalar(block);
    kb.spec(SpecKind::UnaryPointwise(op), vec![grid, ts], vec![xr], vec![xr]);
    let dst = kb.index(y8, &[row, col8]);
    let ts = kb.thread_scalar(block);
    kb.spec(SpecKind::Move, vec![grid, ts], vec![xr], vec![dst]);

    kb.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphene_ir::validate::validate;
    use graphene_ir::Arch;
    use graphene_sim::HostTensor;
    use std::collections::HashMap;

    #[test]
    fn bias_add_matches_reference_bitwise() {
        let (rows, cols) = (8, 128);
        let kernel = build_bias_add(rows, cols);
        validate(&kernel, Arch::Sm86).expect("validates");
        let x = HostTensor::random(&[rows as usize, cols as usize], 3);
        let bias: Vec<f32> = (0..cols).map(|i| (i % 11) as f32 * 0.25 - 1.0).collect();
        let mut inputs = HashMap::new();
        inputs.insert(kernel.params[0], x.as_slice().to_vec());
        inputs.insert(kernel.params[1], bias.clone());
        let out = graphene_sim::execute(&kernel, Arch::Sm86, &inputs).expect("execute");
        let got = &out.globals[&kernel.params[2]];
        for (i, g) in got.iter().enumerate() {
            let want = x.as_slice()[i] + bias[i % cols as usize];
            assert_eq!(g.to_bits(), want.to_bits(), "scalar {i}");
        }
    }

    #[test]
    fn unary_relu_matches_reference_bitwise() {
        let (rows, cols) = (4, 256);
        let kernel = build_unary(rows, cols, UnaryOp::Relu);
        assert_eq!(kernel.name, "graphene_unary_relu");
        validate(&kernel, Arch::Sm86).expect("validates");
        let x = HostTensor::random(&[rows as usize, cols as usize], 7);
        let mut inputs = HashMap::new();
        inputs.insert(kernel.params[0], x.as_slice().to_vec());
        let out = graphene_sim::execute(&kernel, Arch::Sm86, &inputs).expect("execute");
        let got = &out.globals[&kernel.params[1]];
        for (i, g) in got.iter().enumerate() {
            assert_eq!(g.to_bits(), x.as_slice()[i].max(0.0).to_bits(), "scalar {i}");
        }
    }
}
