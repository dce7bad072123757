//! Concurrency hammering of the LRU trace caches: many threads cycling
//! through more keys than the cache holds, far past capacity, while
//! every replayed result is checked bit-for-bit against its expected
//! output. Catches torn eviction (a replay observing a half-evicted
//! trace), cross-key mixups under racing inserts, and counter drift.

use graphene_ir::builder::KernelBuilder;
use graphene_ir::spec::SpecKind;
use graphene_ir::tensor::{TensorId, TensorType};
use graphene_ir::{Arch, ScalarType};
use graphene_layout::Layout;
use graphene_sim::{
    replay_graph, replay_opt_with, ArgBinding, ExecGraph, ExecMode, ExecNode, GraphTraceCache,
    KernelPlan, TraceCache, TraceKey,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A single-block copy kernel of `len` threads: `out[i] = in[i]`.
/// Different lengths give genuinely different traces, so serving the
/// wrong trace for a key is detected by the output check (or by a
/// buffer-size error), not just by luck.
fn copy_plan(len: i64) -> (Arc<KernelPlan>, TensorId, TensorId) {
    let mut kb = KernelBuilder::new(format!("copy{len}"), &[1], &[len]);
    let src = kb.param("in", &[len], ScalarType::F32);
    let dst = kb.param("out", &[len], ScalarType::F32);
    let (grid, block) = (kb.grid(), kb.block());
    let tid = kb.module()[block].group_coords()[0].clone();
    let v = kb.alloc_reg("v", TensorType::scalar(Layout::contiguous(1), ScalarType::F32));
    let se = kb.index(src, std::slice::from_ref(&tid));
    let ts = kb.thread_scalar(block);
    kb.spec(SpecKind::Move, vec![grid, ts], vec![se], vec![v]);
    let de = kb.index(dst, std::slice::from_ref(&tid));
    let ts = kb.thread_scalar(block);
    kb.spec(SpecKind::Move, vec![grid, ts], vec![v], vec![de]);
    let kernel = kb.build();
    let plan = KernelPlan::compile(&kernel, Arch::Sm86).expect("compile copy kernel");
    (Arc::new(plan), kernel.params[0], kernel.params[1])
}

/// Input buffer for problem `i`: values no other problem produces.
fn input_for(i: usize, len: usize) -> Vec<f32> {
    (0..len).map(|j| (i * 1000 + j) as f32).collect()
}

#[test]
fn trace_cache_hit_flag_comes_from_its_own_lookup() {
    let cache = TraceCache::with_capacity(1);
    let bindings = HashMap::new();
    let (a, b) = (copy_plan(32).0, copy_plan(64).0);
    let key =
        |kernel: &str| TraceKey { kernel: kernel.into(), problem: String::new(), arch: Arch::Sm86 };
    let (_, hit) = cache.get_or_record(&key("a"), &a, &bindings).expect("record");
    assert!(!hit, "the recording call is a miss");
    let (_, hit) = cache.get_or_record(&key("a"), &a, &bindings).expect("hit");
    assert!(hit, "the next call is served from the cache");
    // Evict `a` (capacity 1): its next request records again.
    let (_, hit) = cache.get_or_record(&key("b"), &b, &bindings).expect("record b");
    assert!(!hit);
    let (_, hit) = cache.get_or_record(&key("a"), &a, &bindings).expect("re-record");
    assert!(!hit, "an evicted key must report a miss");
}

#[test]
fn trace_cache_survives_concurrent_hammering_past_capacity() {
    const KEYS: usize = 6;
    const THREADS: usize = 8;
    const ITERS: usize = 60;

    let cache = TraceCache::with_capacity(3);
    let problems: Vec<(TraceKey, Arc<KernelPlan>, TensorId, Vec<f32>)> = (0..KEYS)
        .map(|i| {
            let len = 32 * (i as i64 + 1);
            let (plan, src, _dst) = copy_plan(len);
            let key = TraceKey {
                kernel: format!("copy{len}"),
                problem: format!("len={len}"),
                arch: Arch::Sm86,
            };
            (key, plan, src, input_for(i, len as usize))
        })
        .collect();

    let reported_hits = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let cache = &cache;
            let problems = &problems;
            let reported_hits = &reported_hits;
            s.spawn(move || {
                let bindings = HashMap::new();
                for iter in 0..ITERS {
                    let i = (t + iter) % KEYS;
                    let (key, plan, src, input) = &problems[i];
                    let (trace, hit) = cache.get_or_record(key, plan, &bindings).expect("record");
                    reported_hits.fetch_add(u64::from(hit), Ordering::Relaxed);
                    let mut inputs = HashMap::new();
                    inputs.insert(*src, input.clone());
                    let out =
                        replay_opt_with(&trace, &inputs, ExecMode::Sequential).expect("replay");
                    // The copy output must be bit-identical to this
                    // key's input — any torn or mixed-up trace shows
                    // up here.
                    let (_, _, dst, _) = &problems[i];
                    let got = &out.globals[dst];
                    assert_eq!(got, input, "key {i} replayed wrong data on thread {t}");
                }
            });
        }
    });

    let total = (THREADS * ITERS) as u64;
    // Every get_or_record is exactly one hit or one recording, and the
    // hit flag each caller got agrees with the cache's own count.
    assert_eq!(cache.hits() + cache.recordings(), total, "counter drift");
    assert_eq!(reported_hits.load(Ordering::Relaxed), cache.hits(), "hit flags lie");
    // 6 keys cycling through 3 slots must evict continuously.
    assert!(cache.evictions() > 0, "expected evictions past capacity");
    assert!(cache.len() <= 3, "capacity bound violated: {}", cache.len());
    // Each successful (non-raced) insert either grew the map or
    // evicted a victim; racing duplicate recordings only add to the
    // recording count.
    assert!(
        cache.recordings() >= cache.evictions() + cache.len() as u64,
        "recordings {} < evictions {} + len {}",
        cache.recordings(),
        cache.evictions(),
        cache.len()
    );
}

#[test]
fn graph_trace_cache_survives_concurrent_hammering_past_capacity() {
    const KEYS: usize = 4;
    const THREADS: usize = 6;
    const ITERS: usize = 40;

    let graphs_cache = GraphTraceCache::with_capacity(2);
    let traces = TraceCache::new();
    let graphs: Vec<(ExecGraph, Vec<f32>)> = (0..KEYS)
        .map(|i| {
            let len = 32 * (i as i64 + 1);
            let (plan, _src, _dst) = copy_plan(len);
            let g = ExecGraph {
                signature: format!("copy-graph-{len}"),
                problem: format!("len={len}"),
                arch: Arch::Sm86,
                nodes: vec![ExecNode {
                    kernel: format!("copy{len}"),
                    problem: format!("len={len}"),
                    plan,
                    args: vec![ArgBinding::External("x".to_string()), ArgBinding::TempOut(0)],
                }],
                temps: vec![len as usize],
                outputs: vec![0],
            };
            g.validate().expect("graph validates");
            (g, input_for(i, len as usize))
        })
        .collect();

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let graphs_cache = &graphs_cache;
            let traces = &traces;
            let graphs = &graphs;
            s.spawn(move || {
                for iter in 0..ITERS {
                    let i = (t + iter) % KEYS;
                    let (g, input) = &graphs[i];
                    let gt = graphs_cache.get_or_record(g, traces).expect("record graph");
                    let mut inputs = HashMap::new();
                    inputs.insert("x".to_string(), input.clone());
                    let out = replay_graph(&gt, &inputs, ExecMode::Sequential).expect("replay");
                    assert_eq!(&out.outputs[&0], input, "graph {i} replayed wrong data");
                }
            });
        }
    });

    let total = (THREADS * ITERS) as u64;
    assert_eq!(graphs_cache.hits() + graphs_cache.recordings(), total, "counter drift");
    assert!(graphs_cache.evictions() > 0, "expected graph evictions past capacity");
    assert!(graphs_cache.len() <= 2, "capacity bound violated: {}", graphs_cache.len());
}
