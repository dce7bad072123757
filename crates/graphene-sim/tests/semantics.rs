//! Direct tests of the interpreter's atomic-spec semantics: shuffles,
//! reductions, inits, conversions, and the collective fragment
//! instructions, each exercised through a minimal kernel.

use graphene_ir::builder::KernelBuilder;
use graphene_ir::spec::SpecKind;
use graphene_ir::tensor::TensorType;
use graphene_ir::{Arch, BinaryOp, ReduceOp, ScalarType, UnaryOp};
use graphene_layout::Layout;
use graphene_sim::{
    execute, execute_with, record_opt_trace, replay_opt, ExecError, ExecMode, KernelPlan,
};
use graphene_sym::IntExpr;
use std::collections::HashMap;

fn reg(n: i64, st: ScalarType) -> TensorType {
    TensorType::scalar(Layout::contiguous(n), st)
}

/// Each lane loads `in[lane]`, shuffles with mask, stores to `out[lane]`.
#[test]
fn shfl_bfly_exchanges_lanes() {
    for mask in [1u32, 2, 4, 8, 16] {
        let mut kb = KernelBuilder::new("shfl", &[1], &[32]);
        let src = kb.param("in", &[32], ScalarType::F32);
        let dst = kb.param("out", &[32], ScalarType::F32);
        let (grid, block) = (kb.grid(), kb.block());
        let warp = kb.thread_tile(block, &Layout::contiguous(32)).unwrap();
        let tid = kb.module()[block].group_coords()[0].clone();
        let v = kb.alloc_reg("v", reg(1, ScalarType::F32));
        let t = kb.alloc_reg("t", reg(1, ScalarType::F32));
        let se = kb.index(src, std::slice::from_ref(&tid));
        let ts = kb.thread_scalar(block);
        kb.spec(SpecKind::Move, vec![grid, ts], vec![se], vec![v]);
        kb.spec(SpecKind::Shfl { mask }, vec![grid, warp], vec![v], vec![t]);
        let de = kb.index(dst, &[tid]);
        let ts = kb.thread_scalar(block);
        kb.spec(SpecKind::Move, vec![grid, ts], vec![t], vec![de]);
        let kernel = kb.build();

        let input: Vec<f32> = (0..32).map(|i| i as f32 * 10.0).collect();
        let mut inputs = HashMap::new();
        inputs.insert(kernel.params[0], input.clone());
        let out = execute(&kernel, Arch::Sm86, &inputs).unwrap();
        let got = &out.globals[&kernel.params[1]];
        for lane in 0..32usize {
            assert_eq!(got[lane], input[lane ^ mask as usize], "mask {mask} lane {lane}");
        }
    }
}

/// Warp tree reduction via 5 shfl+add steps computes the exact sum.
#[test]
fn warp_reduction_via_shuffles() {
    let mut kb = KernelBuilder::new("wred", &[1], &[32]);
    let src = kb.param("in", &[32], ScalarType::F32);
    let dst = kb.param("out", &[32], ScalarType::F32);
    let (grid, block) = (kb.grid(), kb.block());
    let warp = kb.thread_tile(block, &Layout::contiguous(32)).unwrap();
    let tid = kb.module()[block].group_coords()[0].clone();
    let v = kb.alloc_reg("v", reg(1, ScalarType::F32));
    let t = kb.alloc_reg("t", reg(1, ScalarType::F32));
    let se = kb.index(src, std::slice::from_ref(&tid));
    let ts = kb.thread_scalar(block);
    kb.spec(SpecKind::Move, vec![grid, ts], vec![se], vec![v]);
    for mask in [16u32, 8, 4, 2, 1] {
        kb.spec(SpecKind::Shfl { mask }, vec![grid, warp], vec![v], vec![t]);
        let ts = kb.thread_scalar(block);
        kb.spec(SpecKind::BinaryPointwise(BinaryOp::Add), vec![grid, ts], vec![v, t], vec![v]);
    }
    let de = kb.index(dst, &[tid]);
    let ts = kb.thread_scalar(block);
    kb.spec(SpecKind::Move, vec![grid, ts], vec![v], vec![de]);
    let kernel = kb.build();

    let input: Vec<f32> = (0..32).map(|i| (i * i) as f32).collect();
    let want: f32 = input.iter().sum();
    let mut inputs = HashMap::new();
    inputs.insert(kernel.params[0], input);
    let out = execute(&kernel, Arch::Sm86, &inputs).unwrap();
    for lane in 0..32 {
        assert_eq!(out.globals[&kernel.params[1]][lane], want, "lane {lane}");
    }
}

/// Init assigns the value to every element of the output tile.
#[test]
fn init_fills_registers_and_shared() {
    let mut kb = KernelBuilder::new("init", &[1], &[32]);
    let dst = kb.param("out", &[32, 4], ScalarType::F32);
    let (grid, block) = (kb.grid(), kb.block());
    let tid = kb.module()[block].group_coords()[0].clone();
    let r = kb.alloc_reg("r", reg(4, ScalarType::F32));
    let ts = kb.thread_scalar(block);
    kb.spec(SpecKind::Init { value: 2.5 }, vec![grid, ts], vec![], vec![r]);
    let dv = kb.tile_c(dst, &[Some(1), Some(4)]).unwrap();
    let de = kb.index(dv, &[tid, IntExpr::zero()]);
    let ts = kb.thread_scalar(block);
    kb.spec(SpecKind::Move, vec![grid, ts], vec![r], vec![de]);
    let kernel = kb.build();
    let out = execute(&kernel, Arch::Sm86, &HashMap::new()).unwrap();
    assert!(out.globals[&kernel.params[0]].iter().all(|&v| v == 2.5));
}

/// Per-thread Reduction over a strided register view.
#[test]
fn reduction_over_strided_view() {
    let mut kb = KernelBuilder::new("red", &[1], &[32]);
    let src = kb.param("in", &[32, 8], ScalarType::F32);
    let dst = kb.param("out", &[32], ScalarType::F32);
    let (grid, block) = (kb.grid(), kb.block());
    let tid = kb.module()[block].group_coords()[0].clone();
    let r = kb.alloc_reg("r", reg(8, ScalarType::F32));
    let sv = kb.tile_c(src, &[Some(1), Some(8)]).unwrap();
    let se = kb.index(sv, &[tid.clone(), IntExpr::zero()]);
    let ts = kb.thread_scalar(block);
    kb.spec(SpecKind::Move, vec![grid, ts], vec![se], vec![r]);
    // Reduce only the even elements: view [4:2] over the 8 registers.
    let evens =
        kb.view_as(r, TensorType::scalar(Layout::strided(4, 2), ScalarType::F32), IntExpr::zero());
    let acc = kb.alloc_reg("acc", reg(1, ScalarType::F32));
    let ts = kb.thread_scalar(block);
    kb.spec(
        SpecKind::Reduction { op: ReduceOp::Max, axes: vec![0] },
        vec![grid, ts],
        vec![evens],
        vec![acc],
    );
    let de = kb.index(dst, &[tid]);
    let ts = kb.thread_scalar(block);
    kb.spec(SpecKind::Move, vec![grid, ts], vec![acc], vec![de]);
    let kernel = kb.build();

    let input: Vec<f32> = (0..256).map(|i| ((i * 37) % 101) as f32).collect();
    let mut inputs = HashMap::new();
    inputs.insert(kernel.params[0], input.clone());
    let out = execute(&kernel, Arch::Sm86, &inputs).unwrap();
    for t in 0..32usize {
        let want = (0..4).map(|j| input[t * 8 + 2 * j]).fold(f32::NEG_INFINITY, f32::max);
        assert_eq!(out.globals[&kernel.params[1]][t], want, "thread {t}");
    }
}

/// Unary pointwise semantics through the simulator match the ops table.
#[test]
fn unary_ops_through_simulator() {
    for (op, x, want) in [
        (UnaryOp::Relu, -2.0f32, 0.0f32),
        (UnaryOp::Relu, 3.0, 3.0),
        (UnaryOp::Neg, 3.0, -3.0),
        (UnaryOp::Recip, 4.0, 0.25),
        (UnaryOp::Sqrt, 9.0, 3.0),
    ] {
        let mut kb = KernelBuilder::new("un", &[1], &[32]);
        let src = kb.param("in", &[32], ScalarType::F32);
        let dst = kb.param("out", &[32], ScalarType::F32);
        let (grid, block) = (kb.grid(), kb.block());
        let tid = kb.module()[block].group_coords()[0].clone();
        let r = kb.alloc_reg("r", reg(1, ScalarType::F32));
        let se = kb.index(src, std::slice::from_ref(&tid));
        let ts = kb.thread_scalar(block);
        kb.spec(SpecKind::Move, vec![grid, ts], vec![se], vec![r]);
        let ts = kb.thread_scalar(block);
        kb.spec(SpecKind::UnaryPointwise(op), vec![grid, ts], vec![r], vec![r]);
        let de = kb.index(dst, &[tid]);
        let ts = kb.thread_scalar(block);
        kb.spec(SpecKind::Move, vec![grid, ts], vec![r], vec![de]);
        let kernel = kb.build();
        let mut inputs = HashMap::new();
        inputs.insert(kernel.params[0], vec![x; 32]);
        let out = execute(&kernel, Arch::Sm86, &inputs).unwrap();
        assert!(
            (out.globals[&kernel.params[1]][0] - want).abs() < 1e-6,
            "{op:?}({x}) -> {} want {want}",
            out.globals[&kernel.params[1]][0]
        );
    }
}

/// Mis-sized input buffers are rejected with a clear error.
#[test]
fn missized_inputs_rejected() {
    let mut kb = KernelBuilder::new("k", &[1], &[32]);
    let src = kb.param("in", &[64], ScalarType::F32);
    let _ = src;
    let kernel = kb.build();
    let mut inputs = HashMap::new();
    inputs.insert(kernel.params[0], vec![0.0f32; 63]);
    let err = execute(&kernel, Arch::Sm86, &inputs).unwrap_err();
    assert!(err.to_string().contains("expects 64 scalars, got 63"), "{err}");
    // Replay validates its inputs through the same rule.
    let plan = KernelPlan::compile(&kernel, Arch::Sm86).unwrap();
    let trace = record_opt_trace(&plan, &HashMap::new()).unwrap();
    assert_eq!(replay_opt(&trace, &inputs).unwrap_err(), err);
}

/// Out-of-bounds accesses are detected, not silently wrapped, and the
/// error does not depend on the CTA schedule: the lowest failing
/// block's error wins. Blocks 2..6 read past the end, each first at a
/// different address; under 3 workers the chunks {2,3} and {4,5} both
/// fail, and every mode must report block 2's address.
#[test]
fn out_of_bounds_detected() {
    let mut kb = KernelBuilder::new("oob", &[6], &[32]);
    let src = kb.param("in", &[64], ScalarType::F32);
    let (grid, block) = (kb.grid(), kb.block());
    let bid = kb.module()[grid].group_coords()[0].clone();
    let tid = kb.module()[block].group_coords()[0].clone();
    let r = kb.alloc_reg("r", reg(1, ScalarType::F32));
    // Block b reads in[24b .. 24b+32): block 2 leaves the buffer at
    // 64, block 3 at 72, block 4 at 96, block 5 at 120.
    let se = kb.index(src, &[bid * 24 + tid]);
    let ts = kb.thread_scalar(block);
    kb.spec(SpecKind::Move, vec![grid, ts], vec![se], vec![r]);
    let kernel = kb.build();
    let err = execute(&kernel, Arch::Sm86, &HashMap::new()).unwrap_err();
    assert!(matches!(err, ExecError::OutOfBounds { addr: 64, .. }), "{err}");
    for mode in [ExecMode::Sequential, ExecMode::Parallel, ExecMode::Workers(3)] {
        let got =
            execute_with(&kernel, Arch::Sm86, &HashMap::new(), &HashMap::new(), mode).unwrap_err();
        assert_eq!(got, err, "{mode:?}");
    }
    // The offsets split around `blockIdx.x`, so the kernel is proven
    // block-uniform; moving block 0's accesses to block 2 leaves the
    // buffer, so recording falls back to every block and fails with
    // the same error.
    let plan = KernelPlan::compile(&kernel, Arch::Sm86).unwrap();
    assert!(plan.block_uniform());
    assert_eq!(record_opt_trace(&plan, &HashMap::new()).unwrap_err(), err);
}
