//! Cross-crate integration tests: schedule construction → validation →
//! CUDA code generation → functional simulation → numerical comparison
//! against host references, plus consistency between the static analysis
//! and the interpreter's measured counters.

use graphene::ir::Arch;
use graphene::kernels::gemm::{build_gemm, Epilogue, GemmConfig};
use graphene::kernels::layernorm::{build_layernorm, LayernormConfig};
use graphene::kernels::lstm::{build_fused_lstm, LstmConfig};
use graphene::kernels::mlp::{build_fused_mlp, MlpConfig};
use graphene::sim::host::{matmul_ref, HostTensor};
use std::collections::HashMap;

/// The full pipeline for one GEMM: validate, generate CUDA, execute,
/// compare numerics, and cross-check analysis vs execution counters.
fn gemm_pipeline(arch: Arch, cfg: &GemmConfig, epilogue: Epilogue) {
    let kernel = build_gemm(arch, cfg, epilogue);
    graphene::ir::validate::validate(&kernel, arch).expect("validates");

    // Code generation succeeds and contains the architecture's tensor
    // instruction.
    let cuda = graphene::codegen::generate(&kernel, arch).expect("codegen");
    match arch {
        Arch::Sm86 => {
            assert!(cuda.contains("ldmatrix.sync.aligned"), "missing ldmatrix");
            assert!(cuda.contains("mma.sync.aligned.m16n8k16"), "missing mma");
            assert!(cuda.contains("cp.async"), "missing cp.async staging");
        }
        Arch::Sm70 => {
            assert!(cuda.contains("mma.sync.aligned.m8n8k4"), "missing quad-pair mma");
            assert!(!cuda.contains("ldmatrix"), "Volta must not use ldmatrix");
        }
    }
    assert!(cuda.contains("__syncthreads()"));
    assert!(cuda.contains("__shared__ half"));

    // Functional execution matches the host reference.
    let (m, n, k) = (cfg.m as usize, cfg.n as usize, cfg.k as usize);
    let a = HostTensor::random(&[m, k], 101);
    let b = HostTensor::random(&[k, n], 102);
    let mut inputs = HashMap::new();
    inputs.insert(kernel.params[0], a.as_slice().to_vec());
    inputs.insert(kernel.params[1], b.as_slice().to_vec());
    let out = graphene::sim::execute(&kernel, arch, &inputs).expect("execute");
    let expect = matmul_ref(&a, &b);
    let got = HostTensor::from_vec(&[m, n], out.globals[&kernel.params[2]].clone());
    got.assert_close(&expect, 1e-3);

    // Static analysis agrees with the interpreter on every counter the
    // analysis models exactly.
    let an = graphene::sim::analyze(&kernel, arch).expect("analyze");
    let ex = out.counters;
    assert_eq!(an.flops_tc, ex.flops_tc, "tensor-core FLOPs");
    assert_eq!(an.global_read_bytes, ex.global_read_bytes, "global reads");
    assert_eq!(an.global_write_bytes, ex.global_write_bytes, "global writes");
    assert_eq!(an.smem_read_bytes, ex.smem_read_bytes, "smem reads");
    assert_eq!(an.smem_write_bytes, ex.smem_write_bytes, "smem writes");
    assert_eq!(an.instructions, ex.instructions, "instructions");
    assert_eq!(an.syncs, ex.syncs, "syncs");
    assert_eq!(an.unique_global_read_bytes, ex.unique_global_read_bytes);
}

#[test]
fn gemm_pipeline_ampere() {
    gemm_pipeline(Arch::Sm86, &GemmConfig::small(32, 32, 32), Epilogue::None);
}

#[test]
fn gemm_pipeline_ampere_multiblock() {
    let cfg =
        GemmConfig { m: 64, n: 64, k: 32, bm: 32, bn: 32, bk: 16, wm: 16, wn: 16, swizzle: true };
    gemm_pipeline(Arch::Sm86, &cfg, Epilogue::None);
}

#[test]
fn gemm_pipeline_volta() {
    let cfg =
        GemmConfig { m: 32, n: 32, k: 16, bm: 32, bn: 32, bk: 8, wm: 32, wn: 32, swizzle: true };
    gemm_pipeline(Arch::Sm70, &cfg, Epilogue::None);
}

#[test]
fn swizzle_reduces_conflicts_without_changing_results() {
    // Same schedule with and without the shared-memory swizzle: results
    // must be identical; the swizzled variant must have a strictly lower
    // bank-conflict factor (the paper's §3.2 motivation for advanced
    // layouts).
    let base =
        GemmConfig { m: 64, n: 64, k: 64, bm: 64, bn: 64, bk: 64, wm: 32, wn: 32, swizzle: false };
    let swz = GemmConfig { swizzle: true, ..base };
    let (m, n, k) = (64usize, 64, 64);
    let a = HostTensor::random(&[m, k], 11);
    let b = HostTensor::random(&[k, n], 12);

    let run = |cfg: &GemmConfig| {
        let kernel = build_gemm(Arch::Sm86, cfg, Epilogue::None);
        let mut inputs = HashMap::new();
        inputs.insert(kernel.params[0], a.as_slice().to_vec());
        inputs.insert(kernel.params[1], b.as_slice().to_vec());
        let out = graphene::sim::execute(&kernel, Arch::Sm86, &inputs).expect("execute");
        (out.globals[&kernel.params[2]].clone(), out.counters.conflict_factor())
    };
    let (res_plain, cf_plain) = run(&base);
    let (res_swz, cf_swz) = run(&swz);
    assert_eq!(res_plain, res_swz, "swizzle must not change values");
    assert!(cf_swz < cf_plain, "swizzled conflict factor {cf_swz} must beat unswizzled {cf_plain}");
}

#[test]
fn fused_kernels_validate_and_lower_on_both_archs() {
    for arch in [Arch::Sm70, Arch::Sm86] {
        let mlp = build_fused_mlp(
            arch,
            &MlpConfig { m: 32, hidden: 32, layers: 2, bm: 32, wm: 32, wn: 32 },
        );
        graphene::ir::validate::validate(&mlp, arch).expect("mlp validates");
        graphene::codegen::generate(&mlp, arch).expect("mlp codegen");

        let lstm =
            build_fused_lstm(arch, &LstmConfig { m: 32, hidden: 32, bm: 32, wm: 32, wn: 32 });
        graphene::ir::validate::validate(&lstm, arch).expect("lstm validates");
        graphene::codegen::generate(&lstm, arch).expect("lstm codegen");

        let ln = build_layernorm(arch, &LayernormConfig::new(8, 256));
        graphene::ir::validate::validate(&ln, arch).expect("layernorm validates");
        let cuda = graphene::codegen::generate(&ln, arch).expect("layernorm codegen");
        assert!(cuda.contains("__shfl_xor_sync"), "warp reduction lowers to shfl");
    }
}

#[test]
fn fmha_pipeline() {
    use graphene::kernels::fmha::{build_fused_fmha, FmhaConfig};
    let cfg = FmhaConfig { heads: 1, row_heads: 1, seq: 64, d: 32, bq: 64, wm: 32 };
    let kernel = build_fused_fmha(Arch::Sm86, &cfg);
    graphene::ir::validate::validate(&kernel, Arch::Sm86).expect("validates");
    let cuda = graphene::codegen::generate(&kernel, Arch::Sm86).expect("codegen");
    assert!(cuda.contains("expf("), "softmax exponent in generated code");
    assert!(cuda.contains("mma.sync"), "tensor cores in generated code");

    let rows = 64usize;
    let d = 32usize;
    let q = HostTensor::random(&[rows, d], 61);
    let k = HostTensor::random(&[rows, d], 62);
    let v = HostTensor::random(&[rows, d], 63);
    let mut inputs = HashMap::new();
    inputs.insert(kernel.params[0], q.as_slice().to_vec());
    inputs.insert(kernel.params[1], k.as_slice().to_vec());
    inputs.insert(kernel.params[2], v.as_slice().to_vec());
    let out = graphene::sim::execute(&kernel, Arch::Sm86, &inputs).expect("execute");
    let expect = graphene::sim::host::attention_ref(&q, &k, &v);
    let got = HostTensor::from_vec(&[rows, d], out.globals[&kernel.params[3]].clone());
    got.assert_close(&expect, 2e-3);
}

#[test]
fn generated_cuda_is_stable_across_builds() {
    let cfg = GemmConfig::small(32, 32, 16);
    let k1 = build_gemm(Arch::Sm86, &cfg, Epilogue::BiasRelu);
    let k2 = build_gemm(Arch::Sm86, &cfg, Epilogue::BiasRelu);
    assert_eq!(
        graphene::codegen::generate(&k1, Arch::Sm86).unwrap(),
        graphene::codegen::generate(&k2, Arch::Sm86).unwrap()
    );
}

#[test]
fn full_cublas_tile_configuration_verifies() {
    // One complete 128x128x32-tile block with the paper's 2x2 warps and
    // 64x64 warp tiles — the exact per-block configuration used at the
    // Figure 9 evaluation scale, executed functionally.
    let cfg = GemmConfig::cublas_like(128, 128, 64);
    let kernel = build_gemm(Arch::Sm86, &cfg, Epilogue::None);
    graphene::ir::validate::validate(&kernel, Arch::Sm86).expect("validates");
    let a = HostTensor::random(&[128, 64], 701);
    let b = HostTensor::random(&[64, 128], 702);
    let mut inputs = HashMap::new();
    inputs.insert(kernel.params[0], a.as_slice().to_vec());
    inputs.insert(kernel.params[1], b.as_slice().to_vec());
    let out = graphene::sim::execute(&kernel, Arch::Sm86, &inputs).expect("execute");
    let expect = matmul_ref(&a, &b);
    let got = HostTensor::from_vec(&[128, 128], out.globals[&kernel.params[2]].clone());
    got.assert_close(&expect, 1e-3);
    assert_eq!(out.counters.flops_tc, 2 * 128 * 128 * 64);
}
