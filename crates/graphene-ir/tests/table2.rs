//! Table 2 of the paper, row by row: every listed atomic specification
//! must match a spec with exactly the paper's thread arrangement and
//! operand types, and lower to the paper's instruction.

use graphene_ir::atomic::{match_atomic, quad_pair_layout, registry, Arch};
use graphene_ir::builder::KernelBuilder;
use graphene_ir::spec::{Spec, SpecKind};
use graphene_ir::tensor::{Elem, TensorType};
use graphene_ir::threads::{ThreadLevel, ThreadTensor};
use graphene_ir::{BinaryOp, MemSpace, Module, ScalarType};
use graphene_layout::{it, Layout, Swizzle};

fn scalar_ty(st: ScalarType) -> TensorType {
    TensorType::scalar(Layout::contiguous(1), st)
}

fn vec_ty(n: i64, st: ScalarType) -> TensorType {
    TensorType::scalar(Layout::contiguous(n), st)
}

fn tiled(
    outer_shape: graphene_layout::IntTuple,
    outer_stride: graphene_layout::IntTuple,
    inner_shape: graphene_layout::IntTuple,
    inner_stride: graphene_layout::IntTuple,
    st: ScalarType,
) -> TensorType {
    TensorType {
        layout: Layout::new(outer_shape, outer_stride),
        elem: Elem::Tile(Box::new(TensorType {
            layout: Layout::new(inner_shape, inner_stride),
            elem: Elem::Scalar(st),
            swizzle: Swizzle::identity(),
        })),
        swizzle: Swizzle::identity(),
    }
}

struct Ctx {
    module: Module,
}

impl Ctx {
    fn new() -> Self {
        Ctx { module: Module::new() }
    }

    fn tensor(&mut self, ty: TensorType, mem: MemSpace) -> graphene_ir::TensorId {
        self.module.declare_tensor(format!("t{}", self.module.num_tensors()), ty, mem)
    }

    fn per_thread(&mut self) -> graphene_ir::ThreadId {
        let tt = ThreadTensor::new("t", ThreadLevel::Thread, &[128]).scalar("ts");
        self.module.declare_threads(tt)
    }

    fn warp(&mut self) -> graphene_ir::ThreadId {
        self.module.declare_threads(ThreadTensor::new("w", ThreadLevel::Thread, &[32]))
    }

    fn quad_pairs(&mut self) -> graphene_ir::ThreadId {
        let tt = ThreadTensor::new("w", ThreadLevel::Thread, &[32])
            .tile("qp", &quad_pair_layout())
            .unwrap();
        self.module.declare_threads(tt)
    }

    fn expect(
        &self,
        arch: Arch,
        kind: SpecKind,
        exec: graphene_ir::ThreadId,
        ins: Vec<graphene_ir::TensorId>,
        outs: Vec<graphene_ir::TensorId>,
        want_ptx: &str,
    ) {
        let spec = Spec::atomic(kind, vec![exec], ins, outs);
        let reg = registry(arch);
        let found = match_atomic(&spec, &self.module, reg)
            .unwrap_or_else(|| panic!("no atomic match for expected `{want_ptx}`"));
        assert_eq!(found.ptx, want_ptx);
    }
}

#[test]
fn row1_scalar_global_load() {
    // Move | [1].thread | [].fp32.GL | [].fp32.RF | ld.global.u32
    let mut c = Ctx::new();
    let src = c.tensor(scalar_ty(ScalarType::F32), MemSpace::Global);
    let dst = c.tensor(scalar_ty(ScalarType::F32), MemSpace::Register);
    let t = c.per_thread();
    c.expect(Arch::Sm86, SpecKind::Move, t, vec![src], vec![dst], "ld.global.u32");
}

#[test]
fn row2_vectorized_global_load() {
    // Move | [1].thread | [8].fp16.GL | [8].fp16.RF | ld.global.v4.u32
    let mut c = Ctx::new();
    let src = c.tensor(vec_ty(8, ScalarType::F16), MemSpace::Global);
    let dst = c.tensor(vec_ty(8, ScalarType::F16), MemSpace::Register);
    let t = c.per_thread();
    c.expect(Arch::Sm86, SpecKind::Move, t, vec![src], vec![dst], "ld.global.v4.u32");
}

#[test]
fn row3_vectorized_shared_store() {
    // Move | [1].thread | [4].fp32.RF | [4].fp32.SH | st.shared.v4.u32
    let mut c = Ctx::new();
    let src = c.tensor(vec_ty(4, ScalarType::F32), MemSpace::Register);
    let dst = c.tensor(vec_ty(4, ScalarType::F32), MemSpace::Shared);
    let t = c.per_thread();
    c.expect(Arch::Sm86, SpecKind::Move, t, vec![src], vec![dst], "st.shared.v4.u32");
}

#[test]
fn row4_ldmatrix() {
    // Move | [32].thread | [1,8].fp16.SH | [2,2].[1,2].fp16.RF | ldmatrix...x4
    let mut c = Ctx::new();
    let src = c.tensor(TensorType::row_major(&[1, 8], ScalarType::F16), MemSpace::Shared);
    let dst = c.tensor(
        tiled(it![2, 2], it![2, 4], it![1, 2], it![0, 1], ScalarType::F16),
        MemSpace::Register,
    );
    let w = c.warp();
    c.expect(
        Arch::Sm86,
        SpecKind::Move,
        w,
        vec![src],
        vec![dst],
        "ldmatrix.sync.aligned.m8n8.x4.shared.b16",
    );
}

#[test]
fn row5_hmul() {
    // BinaryPW<*> | [1].thread | [].fp16 x2 | [].fp16 | hmul
    let mut c = Ctx::new();
    let a = c.tensor(scalar_ty(ScalarType::F16), MemSpace::Register);
    let b = c.tensor(scalar_ty(ScalarType::F16), MemSpace::Register);
    let d = c.tensor(scalar_ty(ScalarType::F16), MemSpace::Register);
    let t = c.per_thread();
    c.expect(
        Arch::Sm86,
        SpecKind::BinaryPointwise(BinaryOp::Mul),
        t,
        vec![a, b],
        vec![d],
        "f16 pointwise op",
    );
}

#[test]
fn row6_hadd2() {
    // BinaryPW<+> | [1].thread | [2].fp16 x2 | [2].fp16 | hadd2
    let mut c = Ctx::new();
    let a = c.tensor(vec_ty(2, ScalarType::F16), MemSpace::Register);
    let b = c.tensor(vec_ty(2, ScalarType::F16), MemSpace::Register);
    let d = c.tensor(vec_ty(2, ScalarType::F16), MemSpace::Register);
    let t = c.per_thread();
    c.expect(
        Arch::Sm86,
        SpecKind::BinaryPointwise(BinaryOp::Add),
        t,
        vec![a, b],
        vec![d],
        "f16x2 pointwise op",
    );
}

#[test]
fn rows7_to_9_fma_family() {
    // hfma / hfma2 / fmaf
    for (st, n, want) in [
        (ScalarType::F16, 1i64, "fma.rn.f16"),
        (ScalarType::F16, 2, "fma.rn.f16x2"),
        (ScalarType::F32, 1, "fma.rn.f32"),
    ] {
        let mut c = Ctx::new();
        let a = c.tensor(vec_ty(n, st), MemSpace::Register);
        let b = c.tensor(vec_ty(n, st), MemSpace::Register);
        let d = c.tensor(vec_ty(n, st), MemSpace::Register);
        let t = c.per_thread();
        c.expect(Arch::Sm86, SpecKind::MatMul, t, vec![a, b], vec![d], want);
        c.expect(Arch::Sm70, SpecKind::MatMul, t, vec![a, b], vec![d], want);
    }
}

#[test]
fn row10_volta_quad_pair_mma() {
    // MatMul | [(4,2):(1,16)].thread | [4,1] x [1,4] fp16 | [2,4] fp32
    let mut c = Ctx::new();
    let a = c.tensor(TensorType::row_major(&[4, 1], ScalarType::F16), MemSpace::Register);
    let b = c.tensor(TensorType::row_major(&[1, 4], ScalarType::F16), MemSpace::Register);
    let d = c.tensor(TensorType::row_major(&[2, 4], ScalarType::F32), MemSpace::Register);
    let qp = c.quad_pairs();
    c.expect(
        Arch::Sm70,
        SpecKind::MatMul,
        qp,
        vec![a, b],
        vec![d],
        "mma.sync.aligned.m8n8k4.row.col.f32.f16.f16.f32",
    );
}

#[test]
fn row11_ampere_mma() {
    // MatMul | [32].thread | [2,2].[1,2] x [2,1].[2,1] fp16 | [2,1].[1,2] fp32
    let mut c = Ctx::new();
    let a = c.tensor(
        tiled(it![2, 2], it![2, 4], it![1, 2], it![0, 1], ScalarType::F16),
        MemSpace::Register,
    );
    let b = c.tensor(
        tiled(it![2, 1], it![2, 0], it![2, 1], it![1, 0], ScalarType::F16),
        MemSpace::Register,
    );
    let d = c.tensor(
        tiled(it![2, 1], it![2, 0], it![1, 2], it![0, 1], ScalarType::F32),
        MemSpace::Register,
    );
    let w = c.warp();
    c.expect(
        Arch::Sm86,
        SpecKind::MatMul,
        w,
        vec![a, b],
        vec![d],
        "mma.sync.aligned.m16n8k16.row.col.f32.f16.f16.f32",
    );
}

#[test]
fn wrong_thread_arrangement_rejected() {
    // The quad-pair mma must NOT match a contiguous 8-thread grouping.
    let mut c = Ctx::new();
    let a = c.tensor(TensorType::row_major(&[4, 1], ScalarType::F16), MemSpace::Register);
    let b = c.tensor(TensorType::row_major(&[1, 4], ScalarType::F16), MemSpace::Register);
    let d = c.tensor(TensorType::row_major(&[2, 4], ScalarType::F32), MemSpace::Register);
    let wrong = c.module.declare_threads(
        ThreadTensor::new("w", ThreadLevel::Thread, &[32])
            .tile("g", &Layout::contiguous(8))
            .unwrap(),
    );
    let spec = Spec::atomic(SpecKind::MatMul, vec![wrong], vec![a, b], vec![d]);
    assert!(match_atomic(&spec, &c.module, registry(Arch::Sm70)).is_none());
}

#[test]
fn arch_separation() {
    // ldmatrix only on Ampere; quad-pair mma only on Volta.
    let sm70 = registry(Arch::Sm70);
    let sm86 = registry(Arch::Sm86);
    assert!(sm70.iter().all(|a| !a.name.starts_with("ldmatrix")));
    assert!(sm86.iter().all(|a| a.name != "mma.m8n8k4"));
    assert!(sm70.iter().any(|a| a.name == "mma.m8n8k4"));
    assert!(sm86.iter().any(|a| a.name == "mma.m16n8k16"));
}

#[test]
fn figure8_inner_matmul_matches_hfma_via_builder() {
    // The paper's Figure 8 MatMul on [].fp16.GL operands matches hfma.
    let mut kb = KernelBuilder::new("k", &[1], &[32]);
    let a = kb.param("a", &[8, 8], ScalarType::F16);
    let block = kb.block();
    let tid = kb.module()[block].group_coords()[0].clone();
    let ae = kb.index(a, &[tid.clone() / 8, tid % 8]);
    let ts = kb.thread_scalar(block);
    let spec = Spec::atomic(SpecKind::MatMul, vec![ts], vec![ae, ae], vec![ae]);
    let reg = registry(Arch::Sm86);
    let found = match_atomic(&spec, kb.module(), reg).expect("hfma");
    assert_eq!(found.name, "hfma");
}

#[test]
fn bf16_tensor_cores_ampere_only() {
    // The bf16 mma exists on Ampere; Volta has no bf16 tensor cores.
    let mut c = Ctx::new();
    let a = c.tensor(
        tiled(it![2, 2], it![2, 4], it![1, 2], it![0, 1], ScalarType::BF16),
        MemSpace::Register,
    );
    let b = c.tensor(
        tiled(it![2, 1], it![2, 0], it![2, 1], it![1, 0], ScalarType::BF16),
        MemSpace::Register,
    );
    let d = c.tensor(
        tiled(it![2, 1], it![2, 0], it![1, 2], it![0, 1], ScalarType::F32),
        MemSpace::Register,
    );
    let w = c.warp();
    c.expect(
        Arch::Sm86,
        SpecKind::MatMul,
        w,
        vec![a, b],
        vec![d],
        "mma.sync.aligned.m16n8k16.row.col.f32.bf16.bf16.f32",
    );
    let spec = Spec::atomic(SpecKind::MatMul, vec![w], vec![a, b], vec![d]);
    assert!(match_atomic(&spec, &c.module, registry(Arch::Sm70)).is_none());
}

#[test]
fn bf16_moves_match() {
    let mut c = Ctx::new();
    let src = c.tensor(vec_ty(8, ScalarType::BF16), MemSpace::Global);
    let dst = c.tensor(vec_ty(8, ScalarType::BF16), MemSpace::Register);
    let t = c.per_thread();
    c.expect(Arch::Sm86, SpecKind::Move, t, vec![src], vec![dst], "ld.global.v4.u32");
}
