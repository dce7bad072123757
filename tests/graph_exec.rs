//! Graph-executor equivalence and workspace-planning suite.
//!
//! The contract under test: a full transformer encoder layer lowered
//! two ways (fused epilogues vs one-kernel-per-node) executes
//! **bit-identically**, the whole-graph trace replay engine matches
//! the compiled-plan engine bit-for-bit (outputs *and* counters), the
//! liveness-planned arena beats naive per-kernel allocation by the
//! margin the PR requires, and both trace caches evict LRU under a
//! capacity bound.

use graphene_ir::Arch;
use graphene_kernels::exec_lower::{graph_key, lower_executable, ExecLowering};
use graphene_kernels::graph::encoder_graph;
use graphene_sim::run::ExecMode;
use graphene_sim::{
    execute_graph, record_graph, replay_graph, ExecGraph, GraphTraceCache, HostTensor, TraceCache,
};
use std::collections::HashMap;

/// Deterministic pseudo-random values for every external the graph
/// needs (input, weights, biases, layernorm params).
fn random_inputs(g: &ExecGraph) -> HashMap<String, Vec<f32>> {
    g.externals()
        .iter()
        .enumerate()
        .map(|(i, (name, len))| {
            (name.clone(), HostTensor::random(&[*len], 1000 + i as u64).as_slice().to_vec())
        })
        .collect()
}

/// Output values as bits, in temp order. Temp *indices* differ across
/// lowerings (they number different intermediate chains), so only the
/// values are compared.
fn bits(out: &HashMap<usize, Vec<f32>>) -> Vec<Vec<u32>> {
    let mut v: Vec<(usize, Vec<u32>)> =
        out.iter().map(|(t, xs)| (*t, xs.iter().map(|x| x.to_bits()).collect())).collect();
    v.sort_by_key(|(t, _)| *t);
    v.into_iter().map(|(_, b)| b).collect()
}

/// One encoder layer at test size: batch 1, seq 64, hidden 256,
/// 4 heads (d=64), FFN 256 — every kernel is the real schedule
/// (bq=64 FMHA, 64x64 GEMM tiles).
fn test_encoder() -> graphene_kernels::graph::Graph {
    encoder_graph(1, 1, 64, 256, 4, 256)
}

#[test]
fn fused_and_default_lowerings_execute_bit_identically() {
    let g = test_encoder();
    let fused = lower_executable(&g, Arch::Sm86, ExecLowering::Fused).expect("fused lowers");
    let default = lower_executable(&g, Arch::Sm86, ExecLowering::Default).expect("default lowers");
    assert!(fused.nodes.len() < default.nodes.len(), "fusion must drop launches");

    let inputs = random_inputs(&fused);
    let a = execute_graph(&fused, &inputs, ExecMode::Sequential).expect("fused executes");
    let b = execute_graph(&default, &inputs, ExecMode::Sequential).expect("default executes");
    assert_eq!(bits(&a.outputs), bits(&b.outputs), "lowerings diverged bitwise");

    // Sanity: the output is non-trivial (not the zero-fill).
    let out = a.outputs.values().next().expect("one output");
    assert!(out.iter().any(|x| *x != 0.0));
}

#[test]
fn graph_replay_matches_plan_execution_bitwise() {
    // One and two layers, both lowerings: replay equals the plan engine
    // on every output bit and every counter.
    for g in [test_encoder(), encoder_graph(2, 1, 64, 256, 4, 256)] {
        for lowering in [ExecLowering::Fused, ExecLowering::Default] {
            let eg = lower_executable(&g, Arch::Sm86, lowering).expect("lowers");
            let inputs = random_inputs(&eg);
            let plan_out = execute_graph(&eg, &inputs, ExecMode::Sequential).expect("plan engine");
            let gt = record_graph(&eg, &TraceCache::new()).expect("records");
            let replay_out =
                replay_graph(&gt, &inputs, ExecMode::Sequential).expect("replay engine");
            let what = format!("{} ops, {lowering:?}", g.ops.len());
            assert_eq!(bits(&plan_out.outputs), bits(&replay_out.outputs), "{what}: diverged");
            assert_eq!(plan_out.counters, replay_out.counters, "{what}: counters");
        }
    }

    // Replay with fresh inputs — no re-recording, different data.
    let eg = lower_executable(&test_encoder(), Arch::Sm86, ExecLowering::Fused).expect("lowers");
    let inputs = random_inputs(&eg);
    let traces = TraceCache::new();
    let gt = record_graph(&eg, &traces).expect("records");
    let replay_out = replay_graph(&gt, &inputs, ExecMode::Sequential).expect("replay engine");
    let mut inputs2 = inputs.clone();
    for v in inputs2.get_mut("x").expect("input x") {
        *v += 0.25;
    }
    let before = traces.recordings();
    let replay2 = replay_graph(&gt, &inputs2, ExecMode::Sequential).expect("fresh replay");
    assert_eq!(traces.recordings(), before, "replay must not re-record");
    assert_ne!(bits(&replay_out.outputs), bits(&replay2.outputs), "fresh inputs, fresh outputs");
}

#[test]
fn parallel_graph_execution_is_bit_identical_to_sequential() {
    let g = test_encoder();
    let eg = lower_executable(&g, Arch::Sm86, ExecLowering::Fused).expect("lowers");
    let inputs = random_inputs(&eg);
    let seq = execute_graph(&eg, &inputs, ExecMode::Sequential).expect("sequential");
    let par = execute_graph(&eg, &inputs, ExecMode::Parallel).expect("parallel");
    assert_eq!(bits(&seq.outputs), bits(&par.outputs));

    let traces = TraceCache::new();
    let gt = record_graph(&eg, &traces).expect("records");
    let par_replay = replay_graph(&gt, &inputs, ExecMode::Parallel).expect("parallel replay");
    assert_eq!(bits(&seq.outputs), bits(&par_replay.outputs));
}

#[test]
fn identical_kernel_instances_share_one_recording() {
    // The default-lowered encoder launches the same (kernel, problem)
    // more than once (QKV and attention-out projections, bias-adds of
    // equal shape) — the trace cache must record each distinct
    // instance once.
    let g = test_encoder();
    let eg = lower_executable(&g, Arch::Sm86, ExecLowering::Default).expect("lowers");
    let traces = TraceCache::new();
    let _ = record_graph(&eg, &traces).expect("records");
    assert!(
        (traces.recordings() as usize) < eg.nodes.len(),
        "{} recordings for {} launches — no sharing",
        traces.recordings(),
        eg.nodes.len()
    );
    assert!(traces.hits() > 0);
}

#[test]
fn workspace_arena_beats_naive_allocation() {
    // The acceptance bar: >= 30% peak-workspace reduction on the
    // 2-layer benchmark encoder.
    let g = encoder_graph(2, 1, 128, 256, 4, 1024);
    let eg = lower_executable(&g, Arch::Sm86, ExecLowering::Fused).expect("lowers");
    let ws = eg.workspace();
    assert!(ws.arena_scalars < ws.naive_scalars);
    assert!(
        ws.saving() >= 0.30,
        "arena {} vs naive {} saves only {:.0}%",
        ws.arena_scalars,
        ws.naive_scalars,
        ws.saving() * 100.0
    );
    // And the executor actually runs inside that arena.
    let out = execute_graph(&eg, &random_inputs(&eg), ExecMode::Sequential).expect("executes");
    assert_eq!(out.workspace.arena_scalars, ws.arena_scalars);
}

#[test]
fn trace_cache_evicts_least_recently_used() {
    let g = test_encoder();
    let eg = lower_executable(&g, Arch::Sm86, ExecLowering::Fused).expect("lowers");
    // Capacity 1: every new distinct kernel evicts the previous one.
    let traces = TraceCache::with_capacity(1);
    let _ = record_graph(&eg, &traces).expect("records");
    let distinct = traces.recordings();
    assert!(distinct > 1, "need several distinct kernels");
    assert_eq!(traces.len(), 1, "capacity bound holds");
    assert_eq!(traces.evictions(), distinct - 1);

    // A re-record of the whole graph re-records evicted keys instead
    // of growing the cache.
    let _ = record_graph(&eg, &traces).expect("re-records");
    assert!(traces.recordings() > distinct);
    assert_eq!(traces.len(), 1);
}

#[test]
fn graph_trace_cache_hits_then_evicts() {
    let g1 = test_encoder();
    let eg1 = lower_executable(&g1, Arch::Sm86, ExecLowering::Fused).expect("lowers");
    let eg1_default = lower_executable(&g1, Arch::Sm86, ExecLowering::Default).expect("lowers");

    let traces = TraceCache::new();
    let graphs = GraphTraceCache::with_capacity(1);
    let t1 = graphs.get_or_record(&eg1, &traces).expect("records");
    assert_eq!((graphs.recordings(), graphs.hits()), (1, 0));

    // Same graph again: a hit, no new stitch.
    let t1b = graphs.get_or_record(&eg1, &traces).expect("hits");
    assert_eq!((graphs.recordings(), graphs.hits()), (1, 1));
    assert_eq!(t1.num_kernels(), t1b.num_kernels());

    // A different lowering is a different signature: evicts at cap 1.
    let _ = graphs.get_or_record(&eg1_default, &traces).expect("records second");
    assert_eq!(graphs.recordings(), 2);
    assert_eq!(graphs.len(), 1);
    assert_eq!(graphs.evictions(), 1);

    // The evicted graph re-stitches (cheap: per-kernel traces still
    // cached) rather than erroring.
    let _ = graphs.get_or_record(&eg1, &traces).expect("re-records");
    assert_eq!(graphs.recordings(), 3);
}

#[test]
fn keyed_lookup_lowers_once_and_caches_no_failure() {
    let g = test_encoder();
    let (traces, graphs) = (TraceCache::new(), GraphTraceCache::new());
    let key = graph_key(&g, Arch::Sm86, ExecLowering::Fused);
    let mut lowered = Vec::new();
    for i in 0..4 {
        let (gt, hit) = graphs
            .get_or_record_with(&key, || {
                let eg = lower_executable(&g, Arch::Sm86, ExecLowering::Fused)?;
                lowered.push(eg.externals());
                record_graph(&eg, &traces).map_err(|e| e.to_string())
            })
            .expect("records");
        assert_eq!(hit, i > 0, "lookup {i}");
        // A hit seeds inputs from the trace alone.
        assert_eq!(gt.externals(), lowered[0]);
    }
    assert_eq!(lowered.len(), 1, "only the miss lowers");
    assert_eq!((graphs.recordings(), graphs.hits()), (1, 3));

    // Attention cannot lower on Volta: the error comes back and no
    // entry is cached, so the next request retries.
    let volta = graph_key(&g, Arch::Sm70, ExecLowering::Fused);
    for _ in 0..2 {
        let err = graphs
            .get_or_record_with(&volta, || {
                record_graph(&lower_executable(&g, Arch::Sm70, ExecLowering::Fused)?, &traces)
                    .map_err(|e| e.to_string())
            })
            .unwrap_err();
        assert!(err.contains("Ampere"), "{err}");
    }
    assert_eq!((graphs.recordings(), graphs.hits(), graphs.len()), (1, 3, 1));
}

#[test]
fn graph_executor_rejects_mis_sized_external() {
    let g = test_encoder();
    let eg = lower_executable(&g, Arch::Sm86, ExecLowering::Fused).expect("lowers");
    let mut inputs = random_inputs(&eg);
    inputs.get_mut("x").expect("x").pop();
    let err = execute_graph(&eg, &inputs, ExecMode::Sequential).unwrap_err();
    assert!(format!("{err}").contains("graph input `x`"), "{err}");
}
