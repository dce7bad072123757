//! Interpreter throughput benchmarks over the reference oracle, one
//! recorder and replay: reference statement-tree interpretation vs plan
//! execution (the plan recorded, then replayed, sequential and
//! parallel), plus the cost of plan compilation itself and
//! execute-many reuse of one compiled plan.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use graphene_ir::{Arch, Kernel, TensorId};
use graphene_kernels::fmha::{build_fused_fmha, FmhaConfig};
use graphene_kernels::gemm::{build_gemm, Epilogue, GemmConfig};
use graphene_kernels::layernorm::{build_layernorm, LayernormConfig};
use graphene_sim::{
    execute_plan, execute_reference, execute_with, ExecMode, HostTensor, KernelPlan,
};
use std::collections::HashMap;

fn gemm() -> (Kernel, HashMap<TensorId, Vec<f32>>) {
    let cfg =
        GemmConfig { m: 64, n: 64, k: 32, bm: 32, bn: 32, bk: 16, wm: 16, wn: 16, swizzle: true };
    let kernel = build_gemm(Arch::Sm86, &cfg, Epilogue::None);
    let mut inputs = HashMap::new();
    inputs.insert(kernel.params[0], HostTensor::random(&[64, 32], 71).as_slice().to_vec());
    inputs.insert(kernel.params[1], HostTensor::random(&[32, 64], 72).as_slice().to_vec());
    (kernel, inputs)
}

fn fmha() -> (Kernel, HashMap<TensorId, Vec<f32>>) {
    let cfg = FmhaConfig { heads: 2, row_heads: 1, seq: 64, d: 32, bq: 64, wm: 32 };
    let kernel = build_fused_fmha(Arch::Sm86, &cfg);
    let mut inputs = HashMap::new();
    inputs.insert(kernel.params[0], HostTensor::random(&[128, 32], 73).as_slice().to_vec());
    inputs.insert(kernel.params[1], HostTensor::random(&[128, 32], 74).as_slice().to_vec());
    inputs.insert(kernel.params[2], HostTensor::random(&[128, 32], 75).as_slice().to_vec());
    (kernel, inputs)
}

fn layernorm() -> (Kernel, HashMap<TensorId, Vec<f32>>) {
    let cfg = LayernormConfig::new(16, 256);
    let kernel = build_layernorm(Arch::Sm86, &cfg);
    let mut inputs = HashMap::new();
    inputs.insert(kernel.params[0], HostTensor::random(&[16, 256], 76).as_slice().to_vec());
    inputs.insert(kernel.params[1], HostTensor::random(&[256], 77).as_slice().to_vec());
    inputs.insert(kernel.params[2], HostTensor::random(&[256], 78).as_slice().to_vec());
    (kernel, inputs)
}

fn bench_kernel(
    c: &mut Criterion,
    label: &str,
    kernel: &Kernel,
    inputs: &HashMap<TensorId, Vec<f32>>,
) {
    let bindings = HashMap::new();
    c.bench_function(&format!("interp/{label}/reference"), |b| {
        b.iter(|| execute_reference(black_box(kernel), Arch::Sm86, inputs).unwrap())
    });
    c.bench_function(&format!("interp/{label}/plan_sequential"), |b| {
        b.iter(|| {
            execute_with(black_box(kernel), Arch::Sm86, inputs, &bindings, ExecMode::Sequential)
                .unwrap()
        })
    });
    c.bench_function(&format!("interp/{label}/plan_parallel"), |b| {
        b.iter(|| {
            execute_with(black_box(kernel), Arch::Sm86, inputs, &bindings, ExecMode::Parallel)
                .unwrap()
        })
    });
    c.bench_function(&format!("interp/{label}/plan_compile"), |b| {
        b.iter(|| KernelPlan::compile(black_box(kernel), Arch::Sm86).unwrap())
    });
    let plan = KernelPlan::compile(kernel, Arch::Sm86).unwrap();
    c.bench_function(&format!("interp/{label}/execute_precompiled"), |b| {
        b.iter(|| execute_plan(black_box(&plan), inputs, &bindings, ExecMode::Sequential).unwrap())
    });
}

fn bench_interp(c: &mut Criterion) {
    let (k, i) = gemm();
    bench_kernel(c, "gemm_64x64x32", &k, &i);
    let (k, i) = fmha();
    bench_kernel(c, "fmha_2x64x32", &k, &i);
    let (k, i) = layernorm();
    bench_kernel(c, "layernorm_16x256", &k, &i);
}

criterion_group!(benches, bench_interp);
criterion_main!(benches);
