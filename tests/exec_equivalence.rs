//! Golden equivalence tests for the execution engines: for every paper
//! kernel, compiled-plan execution (sequential and parallel) and
//! optimized trace replay (sequential and parallel) must produce global
//! buffers bit-identical to the reference interpreter's, and identical
//! counters.

use graphene::ir::{Arch, Kernel};
use graphene::kernels::fmha::{build_fused_fmha, FmhaConfig};
use graphene::kernels::gemm::{build_gemm, build_gemm_double_buffered, Epilogue, GemmConfig};
use graphene::kernels::layernorm::{build_layernorm, LayernormConfig};
use graphene::sim::host::HostTensor;
use graphene::sim::{
    execute_reference, execute_with, optimize_trace, record_opt_trace, record_trace,
    replay_opt_with, ExecMode, KernelPlan,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Runs `kernel` through every engine — sequential / parallel / forced
/// 3-worker plan execution and optimized trace replay (sequential and
/// forced 3-worker) — and asserts bit-identical globals and identical
/// counters against the reference interpreter.
fn assert_equivalent(
    name: &str,
    kernel: &Kernel,
    arch: Arch,
    inputs: &HashMap<graphene::ir::TensorId, Vec<f32>>,
) {
    let bindings = HashMap::new();
    let seq = execute_with(kernel, arch, inputs, &bindings, ExecMode::Sequential)
        .unwrap_or_else(|e| panic!("{name}: sequential execution failed: {e}"));
    let par = execute_with(kernel, arch, inputs, &bindings, ExecMode::Parallel)
        .unwrap_or_else(|e| panic!("{name}: parallel execution failed: {e}"));
    // Explicit worker counts force the threaded write-log merge even on
    // machines that report a single core, including uneven block/worker
    // chunking.
    let forced = execute_with(kernel, arch, inputs, &bindings, ExecMode::Workers(3))
        .unwrap_or_else(|e| panic!("{name}: 3-worker execution failed: {e}"));
    let reference = execute_reference(kernel, arch, inputs)
        .unwrap_or_else(|e| panic!("{name}: reference execution failed: {e}"));

    // Optimized replay of one recording in both threading modes. The
    // optimizer must be a pure representation change: every span
    // decodes to the recorded addresses.
    let plan = KernelPlan::compile(kernel, arch).unwrap_or_else(|e| panic!("{name}: plan: {e}"));
    let raw = record_trace(&plan, &bindings).unwrap_or_else(|e| panic!("{name}: record: {e}"));
    let opt = optimize_trace(&raw);
    opt.check_addresses(&raw).unwrap_or_else(|e| panic!("{name}: {e}"));
    // Recording straight into the optimizer, block by block, must build
    // the very same trace.
    let streamed =
        record_opt_trace(&plan, &bindings).unwrap_or_else(|e| panic!("{name}: record: {e}"));
    assert_eq!(format!("{streamed:?}"), format!("{opt:?}"), "{name}: streamed trace differs");
    let opt_seq = replay_opt_with(&opt, inputs, ExecMode::Sequential)
        .unwrap_or_else(|e| panic!("{name}: opt replay failed: {e}"));
    let opt_par = replay_opt_with(&opt, inputs, ExecMode::Workers(3))
        .unwrap_or_else(|e| panic!("{name}: opt 3-worker replay failed: {e}"));

    for (id, want) in &reference.globals {
        let pname = &kernel.module[*id].name;
        for (mode, got) in [
            ("sequential", &seq.globals[id]),
            ("parallel", &par.globals[id]),
            ("3 workers", &forced.globals[id]),
            ("opt replay", &opt_seq.globals[id]),
            ("opt replay, 3 workers", &opt_par.globals[id]),
        ] {
            assert_eq!(want.len(), got.len(), "{name}: %{pname} length ({mode})");
            for (i, (w, g)) in want.iter().zip(got).enumerate() {
                assert_eq!(
                    w.to_bits(),
                    g.to_bits(),
                    "{name}: %{pname}[{i}] differs ({mode}): {w} vs {g}"
                );
            }
        }
    }
    assert_eq!(seq.counters, reference.counters, "{name}: sequential counters");
    assert_eq!(par.counters, reference.counters, "{name}: parallel counters");
    assert_eq!(forced.counters, reference.counters, "{name}: 3-worker counters");
    assert_eq!(opt_seq.counters, reference.counters, "{name}: opt replay counters");
    assert_eq!(opt_par.counters, reference.counters, "{name}: opt 3-worker replay counters");
}

fn gemm_inputs(kernel: &Kernel, cfg: &GemmConfig) -> HashMap<graphene::ir::TensorId, Vec<f32>> {
    let (m, n, k) = (cfg.m as usize, cfg.n as usize, cfg.k as usize);
    let a = HostTensor::random(&[m, k], 301);
    let b = HostTensor::random(&[k, n], 302);
    let mut inputs = HashMap::new();
    inputs.insert(kernel.params[0], a.as_slice().to_vec());
    inputs.insert(kernel.params[1], b.as_slice().to_vec());
    inputs
}

#[test]
fn gemm_ampere_small_equivalent() {
    let cfg = GemmConfig::small(32, 32, 32);
    let kernel = build_gemm(Arch::Sm86, &cfg, Epilogue::None);
    assert_equivalent("gemm-sm86-small", &kernel, Arch::Sm86, &gemm_inputs(&kernel, &cfg));
}

#[test]
fn gemm_ampere_multiblock_equivalent() {
    // Several independent CTAs: this is the case parallel execution
    // actually fans out.
    let cfg =
        GemmConfig { m: 64, n: 64, k: 32, bm: 32, bn: 32, bk: 16, wm: 16, wn: 16, swizzle: true };
    let kernel = build_gemm(Arch::Sm86, &cfg, Epilogue::None);
    assert_equivalent("gemm-sm86-multiblock", &kernel, Arch::Sm86, &gemm_inputs(&kernel, &cfg));
}

#[test]
fn gemm_volta_equivalent() {
    let cfg =
        GemmConfig { m: 32, n: 32, k: 16, bm: 32, bn: 32, bk: 8, wm: 32, wn: 32, swizzle: true };
    let kernel = build_gemm(Arch::Sm70, &cfg, Epilogue::None);
    assert_equivalent("gemm-sm70", &kernel, Arch::Sm70, &gemm_inputs(&kernel, &cfg));
}

#[test]
fn gemm_double_buffered_equivalent() {
    let cfg =
        GemmConfig { m: 64, n: 64, k: 64, bm: 32, bn: 32, bk: 16, wm: 16, wn: 16, swizzle: true };
    let kernel = build_gemm_double_buffered(&cfg, Epilogue::None);
    assert_equivalent("gemm-db-sm86", &kernel, Arch::Sm86, &gemm_inputs(&kernel, &cfg));
}

#[test]
fn gemm_bias_relu_equivalent() {
    let cfg = GemmConfig::small(32, 32, 16);
    let kernel = build_gemm(Arch::Sm86, &cfg, Epilogue::BiasRelu);
    let mut inputs = gemm_inputs(&kernel, &cfg);
    let bias = HostTensor::random(&[32], 303);
    inputs.insert(*kernel.params.last().unwrap(), bias.as_slice().to_vec());
    assert_equivalent("gemm-sm86-bias-relu", &kernel, Arch::Sm86, &inputs);
}

#[test]
fn fmha_equivalent() {
    // Two heads -> two independent CTAs.
    let cfg = FmhaConfig { heads: 2, seq: 64, d: 32, bq: 64, wm: 32 };
    let kernel = build_fused_fmha(Arch::Sm86, &cfg);
    let rows = (cfg.heads * cfg.seq) as usize;
    let d = cfg.d as usize;
    let mut inputs = HashMap::new();
    inputs.insert(kernel.params[0], HostTensor::random(&[rows, d], 311).as_slice().to_vec());
    inputs.insert(kernel.params[1], HostTensor::random(&[rows, d], 312).as_slice().to_vec());
    inputs.insert(kernel.params[2], HostTensor::random(&[rows, d], 313).as_slice().to_vec());
    assert_equivalent("fmha-sm86", &kernel, Arch::Sm86, &inputs);
}

/// One trace, many inputs: replaying a trace recorded *before* either
/// input buffer existed must match a fresh interpretation for each.
/// This is the stale-pointer regression test — a recorder that
/// captured base pointers or input values (instead of buffer slots and
/// addresses) would replay the recording run's data here. The trace is
/// recorded the way production records, straight into the optimizer,
/// and every input set replays both sequentially and on 3 workers.
#[test]
fn replay_fresh_inputs_matches_fresh_interpretation() {
    let cfg =
        GemmConfig { m: 64, n: 64, k: 32, bm: 32, bn: 32, bk: 16, wm: 16, wn: 16, swizzle: true };
    let kernel = build_gemm(Arch::Sm86, &cfg, Epilogue::None);
    let plan = KernelPlan::compile(&kernel, Arch::Sm86).expect("plan");
    let trace = record_opt_trace(&plan, &HashMap::new()).expect("record");

    let (m, n, k) = (cfg.m as usize, cfg.n as usize, cfg.k as usize);
    for (seed_a, seed_b) in [(401, 402), (403, 404)] {
        let mut inputs = HashMap::new();
        let a = HostTensor::random(&[m, k], seed_a);
        let b = HostTensor::random(&[k, n], seed_b);
        inputs.insert(kernel.params[0], a.as_slice().to_vec());
        inputs.insert(kernel.params[1], b.as_slice().to_vec());
        let reference = execute_reference(&kernel, Arch::Sm86, &inputs).expect("reference");
        for mode in [ExecMode::Sequential, ExecMode::Workers(3)] {
            let replayed = replay_opt_with(&trace, &inputs, mode).expect("replay");
            for (id, want) in &reference.globals {
                let pname = &kernel.module[*id].name;
                let got = &replayed.globals[id];
                assert_eq!(want.len(), got.len(), "%{pname} length (seeds {seed_a}/{seed_b})");
                for (i, (w, g)) in want.iter().zip(got).enumerate() {
                    assert_eq!(
                        w.to_bits(),
                        g.to_bits(),
                        "%{pname}[{i}] differs ({mode:?}, seeds {seed_a}/{seed_b}): {w} vs {g}"
                    );
                }
            }
            assert_eq!(replayed.counters, reference.counters, "replay counters ({mode:?})");
        }
    }
}

/// The optimizer must genuinely compress an affine-dominated kernel:
/// most address slices coalesce into descriptors and the resident
/// trace shrinks by at least half (the PR's acceptance gate).
#[test]
fn optimizer_shrinks_affine_dominated_trace() {
    let cfg = LayernormConfig::new(8, 256);
    let kernel = build_layernorm(Arch::Sm86, &cfg);
    let plan = KernelPlan::compile(&kernel, Arch::Sm86).expect("plan");
    let raw = graphene::sim::record_trace(&plan, &HashMap::new()).expect("record");
    let opt = optimize_trace(&raw);
    let st = opt.stats();
    assert!(
        st.coalesced_fraction() > 0.5,
        "layernorm should be mostly affine, got {:.3} coalesced",
        st.coalesced_fraction()
    );
    assert!(
        opt.resident_bytes() * 2 <= raw.resident_bytes(),
        "expected >=50% trace-byte reduction: {} -> {}",
        raw.resident_bytes(),
        opt.resident_bytes()
    );
}

/// A shared `TraceCache` records once and serves every later request.
#[test]
fn trace_cache_records_once() {
    let cfg = GemmConfig::small(32, 32, 32);
    let kernel = build_gemm(Arch::Sm86, &cfg, Epilogue::None);
    let plan = KernelPlan::compile(&kernel, Arch::Sm86).expect("plan");
    let cache = graphene::sim::TraceCache::new();
    let key = graphene::sim::TraceKey {
        kernel: "gemm".into(),
        problem: "m=32 n=32 k=32".into(),
        arch: Arch::Sm86,
    };
    let bindings = HashMap::new();
    let (first, first_hit) = cache.get_or_record(&key, &plan, &bindings).expect("record");
    let (second, second_hit) = cache.get_or_record(&key, &plan, &bindings).expect("hit");
    assert!(!first_hit && second_hit, "the recording call misses, the next one hits");
    assert!(Arc::ptr_eq(&first, &second), "second request must share the trace");
    assert_eq!(cache.recordings(), 1);
    assert_eq!(cache.hits(), 1);
    assert_eq!(cache.len(), 1);
}

#[test]
fn layernorm_equivalent() {
    for arch in [Arch::Sm70, Arch::Sm86] {
        let cfg = LayernormConfig::new(8, 256);
        let kernel = build_layernorm(arch, &cfg);
        let (rows, hidden) = (cfg.rows as usize, cfg.hidden as usize);
        let mut inputs = HashMap::new();
        inputs
            .insert(kernel.params[0], HostTensor::random(&[rows, hidden], 321).as_slice().to_vec());
        inputs.insert(kernel.params[1], HostTensor::random(&[hidden], 322).as_slice().to_vec());
        inputs.insert(kernel.params[2], HostTensor::random(&[hidden], 323).as_slice().to_vec());
        assert_equivalent("layernorm", &kernel, arch, &inputs);
    }
}

/// Records and optimizes `plan`, then checks that every operand span
/// decodes through the interned pattern table to exactly the recorded
/// addresses, renamed.
fn check_decodes(name: &str, plan: &KernelPlan) -> graphene::sim::OptTrace {
    let raw = record_trace(plan, &HashMap::new()).unwrap_or_else(|e| panic!("{name}: {e}"));
    let opt = optimize_trace(&raw);
    opt.check_addresses(&raw).unwrap_or_else(|e| panic!("{name}: {e}"));
    opt
}

/// Every catalog kernel at a small size, then every distinct node of a
/// lowered one-layer encoder in both lowerings: `(name, arch, plan)`.
fn catalog_and_encoder_plans() -> Vec<(String, Arch, Arc<KernelPlan>)> {
    use graphene::kernels::catalog::build_named;
    use graphene::kernels::exec_lower::{lower_executable, ExecLowering};
    use graphene::kernels::graph::encoder_graph;
    let opts = |pairs: &[(&str, i64)]| -> HashMap<String, String> {
        pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
    };
    let gemm = opts(&[("m", 256), ("n", 256), ("k", 64)]);
    let cases = [
        ("gemm", Arch::Sm86, gemm.clone()),
        ("gemm", Arch::Sm70, gemm.clone()),
        ("gemm-db", Arch::Sm86, opts(&[("m", 128), ("n", 128), ("k", 128)])),
        ("mlp", Arch::Sm86, opts(&[("m", 128), ("layers", 2)])),
        ("lstm", Arch::Sm86, opts(&[("m", 128)])),
        ("layernorm", Arch::Sm86, opts(&[("rows", 8), ("hidden", 256)])),
        ("softmax", Arch::Sm86, opts(&[("rows", 8), ("cols", 256)])),
        ("fmha", Arch::Sm86, opts(&[("heads", 1), ("seq", 128), ("d", 64)])),
    ];
    let mut plans = Vec::new();
    for (name, arch, o) in &cases {
        let nk = build_named(name, *arch, o).unwrap_or_else(|e| panic!("{name}: {e}"));
        let plan = KernelPlan::compile(&nk.kernel, *arch).expect("plan");
        plans.push((name.to_string(), *arch, Arc::new(plan)));
    }
    let mut seen = Vec::new();
    for lowering in [ExecLowering::Fused, ExecLowering::Default] {
        let eg = lower_executable(&encoder_graph(1, 1, 64, 256, 4, 256), Arch::Sm86, lowering)
            .expect("encoder lowers");
        for node in eg.nodes {
            let key = (node.kernel.clone(), node.problem.clone());
            if !seen.contains(&key) {
                seen.push(key);
                plans.push((node.kernel, Arch::Sm86, node.plan));
            }
        }
    }
    for kind in ["gemm", "fmha"] {
        assert!(seen.iter().any(|(k, _)| k.contains(kind)), "no encoder {kind} node");
    }
    plans
}

/// Address-decode equivalence over every catalog kernel and every
/// distinct node of a lowered encoder, plus the interning shrink bound:
/// GEMM's residual addresses are one fragment layout reused at every
/// tile offset, so the pattern table is a small fraction of them.
#[test]
fn optimized_spans_decode_to_recorded_addresses() {
    for (name, arch, plan) in &catalog_and_encoder_plans() {
        let st = *check_decodes(name, plan).stats();
        if name == "gemm" && *arch == Arch::Sm86 {
            assert!(
                st.pattern_addrs * 16 <= st.gather_addrs,
                "gemm: {} residual addresses should intern into at most 1/16 as many \
                 pattern entries, got {}",
                st.gather_addrs,
                st.pattern_addrs
            );
            assert!(
                st.gather_addrs <= 450_000,
                "gemm: MMA-order registers should leave at most 450000 residual addresses, got {}",
                st.gather_addrs
            );
            // The same problem CI replays: the optimizer engages, and
            // interning leaves the trace at least 90% smaller.
            assert!(st.coalesced_fraction() > 0.0, "gemm: nothing coalesced");
            assert!(
                st.bytes_saved_fraction() >= 0.90,
                "gemm: trace only {:.1}% smaller, want >= 90%",
                st.bytes_saved_fraction() * 100.0
            );
        }
    }
}

/// Every full-warp MMA of every MMA kernel (sm86 and sm70) and every
/// encoder node folds into a warp-tile step: recording succeeds only
/// when every MMA operand is one contiguous row, and the folded MMAs
/// account for every tensor-core flop the recording counted. The
/// kernels without MMAs keep their identity layout (no gathers at all).
#[test]
fn every_full_warp_mma_folds_into_a_tile_step() {
    for (name, arch, plan) in &catalog_and_encoder_plans() {
        let opt = record_opt_trace(plan, &HashMap::new()).unwrap_or_else(|e| panic!("{name}: {e}"));
        let st = opt.stats();
        let mma_flops = if *arch == Arch::Sm86 { 2 * 16 * 8 * 16 } else { 2 * 8 * 8 * 4 };
        assert_eq!(
            st.folded_mmas as u64 * mma_flops,
            opt.counters().flops_tc,
            "{name} ({arch:?}): {} folded MMAs",
            st.folded_mmas
        );
        if name == "layernorm" || name == "softmax" {
            assert_eq!(st.folded_mmas, 0, "{name}: no MMAs expected");
            assert_eq!(st.gather_addrs, 0, "{name}: identity layout must stay affine");
        } else if ["gemm", "mlp", "lstm", "fmha"].iter().any(|k| name.contains(k)) {
            assert!(st.folded_mmas > 0, "{name} ({arch:?}): no MMA folded");
            assert!(
                st.mma_tiles > 0 && st.mma_tiles < st.folded_mmas,
                "{name} ({arch:?}): {} MMAs in {} tile steps",
                st.folded_mmas,
                st.mma_tiles
            );
        }
    }
}
