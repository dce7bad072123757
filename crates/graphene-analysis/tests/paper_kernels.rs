//! The analysis pipeline over every paper-figure kernel: the shipped
//! schedules lint clean (zero errors), and targeted mutations — a
//! deleted barrier, a mislocated operand, a dropped accumulator init —
//! each trip the intended diagnostic.

use graphene_analysis::{analyze_kernel, error_count, Severity};
use graphene_ir::body::{Stmt, SyncScope};
use graphene_ir::spec::SpecKind;
use graphene_ir::{Arch, Kernel, MemSpace};
use graphene_kernels::fmha::{build_fused_fmha, FmhaConfig};
use graphene_kernels::gemm::{
    build_batched_gemm, build_gemm, build_gemm_double_buffered, build_gemm_no_ldmatrix,
    build_gemm_parametric_m, build_gemm_partial_m, Epilogue, GemmConfig,
};
use graphene_kernels::layernorm::{build_layernorm, LayernormConfig};
use graphene_kernels::lstm::{build_fused_lstm, LstmConfig};
use graphene_kernels::mlp::{build_fused_mlp, MlpConfig};
use graphene_kernels::softmax::{build_softmax, SoftmaxConfig};
use graphene_sim::{
    execute_plan, execute_reference, record_opt_trace, ExecMode, ExecOutcome, HostTensor,
    KernelPlan,
};
use std::collections::HashMap;

fn assert_lints_clean(kernel: &Kernel, arch: Arch) {
    let diags = analyze_kernel(kernel, arch);
    let errors: Vec<_> = diags.iter().filter(|d| d.severity == Severity::Error).collect();
    assert!(errors.is_empty(), "{} should lint clean, got: {errors:#?}", kernel.name);
}

#[test]
fn gemm_kernels_lint_clean() {
    let cfg = GemmConfig::small(64, 64, 64);
    assert_lints_clean(&build_gemm(Arch::Sm86, &cfg, Epilogue::None), Arch::Sm86);
    assert_lints_clean(&build_gemm(Arch::Sm86, &cfg, Epilogue::BiasRelu), Arch::Sm86);
    assert_lints_clean(&build_gemm(Arch::Sm70, &cfg, Epilogue::None), Arch::Sm70);
    assert_lints_clean(&build_gemm_double_buffered(&cfg, Epilogue::None), Arch::Sm86);
    assert_lints_clean(&build_gemm_no_ldmatrix(&cfg, Epilogue::None), Arch::Sm86);
    assert_lints_clean(
        &build_gemm_partial_m(&GemmConfig::small(48, 64, 64), Epilogue::None),
        Arch::Sm86,
    );
    assert_lints_clean(&build_gemm_parametric_m(&cfg, Epilogue::None), Arch::Sm86);
    assert_lints_clean(&build_batched_gemm(Arch::Sm86, &cfg, 3), Arch::Sm86);
}

#[test]
fn paper_figure_pipelines_lint_clean() {
    assert_lints_clean(&build_fused_mlp(Arch::Sm86, &MlpConfig::paper(256, 2)), Arch::Sm86);
    assert_lints_clean(&build_fused_lstm(Arch::Sm86, &LstmConfig::paper(128)), Arch::Sm86);
    assert_lints_clean(&build_fused_fmha(Arch::Sm86, &FmhaConfig::mlperf_bert()), Arch::Sm86);
    assert_lints_clean(&build_layernorm(Arch::Sm86, &LayernormConfig::new(64, 1024)), Arch::Sm86);
    assert_lints_clean(&build_softmax(Arch::Sm86, &SoftmaxConfig::new(64, 512)), Arch::Sm86);
}

/// Applies `f` to every statement list in the kernel body, recursively.
fn for_each_list(stmts: &mut Vec<Stmt>, f: &mut impl FnMut(&mut Vec<Stmt>)) {
    f(stmts);
    for s in stmts {
        match s {
            Stmt::For { body, .. } | Stmt::If { then: body, .. } => for_each_list(body, f),
            Stmt::Spec(spec) => {
                if let Some(b) = &mut spec.body {
                    for_each_list(&mut b.stmts, f);
                }
            }
            _ => {}
        }
    }
}

fn count_block_syncs(kernel: &Kernel) -> usize {
    kernel.body.count_stmts(|s| matches!(s, Stmt::Sync(SyncScope::Block)))
}

/// Removes the `n`-th block-level sync (in pre-order list order).
fn remove_block_sync(kernel: &mut Kernel, n: usize) {
    let mut idx = 0usize;
    for_each_list(&mut kernel.body.stmts, &mut |stmts| {
        stmts.retain(|s| {
            if matches!(s, Stmt::Sync(SyncScope::Block)) {
                let hit = idx == n;
                idx += 1;
                !hit
            } else {
                true
            }
        });
    });
}

/// The acceptance criterion of the race detector: removing *any single*
/// block-level barrier from the software-pipelined GEMM produces a
/// `GRA010` error naming the shared tensor and both conflicting specs.
#[test]
fn every_barrier_in_pipelined_gemm_is_load_bearing() {
    let cfg = GemmConfig::small(64, 64, 64);
    let baseline = build_gemm_double_buffered(&cfg, Epilogue::None);
    let n = count_block_syncs(&baseline);
    assert!(n >= 2, "pipelined GEMM should have block barriers, found {n}");
    for i in 0..n {
        let mut mutant = build_gemm_double_buffered(&cfg, Epilogue::None);
        remove_block_sync(&mut mutant, i);
        assert_eq!(count_block_syncs(&mutant), n - 1);
        let diags = analyze_kernel(&mutant, Arch::Sm86);
        let races: Vec<_> =
            diags.iter().filter(|d| d.code == "GRA010" && d.severity == Severity::Error).collect();
        assert!(!races.is_empty(), "deleting barrier {i} of {n} must race, got: {diags:#?}");
        // The report names the shared tensor and both conflicting specs.
        let msg = &races[0].message;
        assert!(
            ["As0", "As1", "Bs0", "Bs1"].iter().any(|t| msg.contains(t)),
            "race should name a shared stage buffer: {msg}"
        );
        assert_eq!(msg.matches('`').count(), 4, "race should quote both specs: {msg}");
    }
}

/// Same criterion for the single-buffered GEMM's two barriers.
#[test]
fn every_barrier_in_plain_gemm_is_load_bearing() {
    let cfg = GemmConfig::small(64, 64, 64);
    let n = count_block_syncs(&build_gemm(Arch::Sm86, &cfg, Epilogue::None));
    for i in 0..n {
        let mut mutant = build_gemm(Arch::Sm86, &cfg, Epilogue::None);
        remove_block_sync(&mut mutant, i);
        let diags = analyze_kernel(&mutant, Arch::Sm86);
        assert!(
            diags.iter().any(|d| d.code == "GRA010"),
            "deleting barrier {i} of {n} must race, got: {diags:#?}"
        );
    }
}

/// Moving the shared stage buffers to global memory makes the
/// `ldmatrix`/`cp.async` operands illegal: `GRA012` pinpoints the space.
#[test]
fn wrong_memory_space_is_pinpointed() {
    let cfg = GemmConfig::small(64, 64, 64);
    let mut kernel = build_gemm(Arch::Sm86, &cfg, Epilogue::None);
    let shared_ids: Vec<_> = kernel
        .module
        .tensors()
        .filter(|(_, d)| d.mem == MemSpace::Shared)
        .map(|(id, _)| id)
        .collect();
    assert!(!shared_ids.is_empty());
    for id in shared_ids {
        kernel.module.tensor_mut(id).mem = MemSpace::Global;
    }
    let diags = analyze_kernel(&kernel, Arch::Sm86);
    let spaces: Vec<_> = diags.iter().filter(|d| d.code == "GRA012").collect();
    assert!(!spaces.is_empty(), "expected GRA012, got: {diags:#?}");
    assert!(
        spaces.iter().any(|d| d.message.contains("requires Shared")),
        "GRA012 should state the required space: {spaces:#?}"
    );
}

/// Dropping the accumulator `Init` makes the first `mma` read garbage:
/// `GRA013` names the accumulator.
#[test]
fn dropped_init_is_reported() {
    let cfg = GemmConfig::small(64, 64, 64);
    let mut kernel = build_gemm(Arch::Sm86, &cfg, Epilogue::None);
    for_each_list(&mut kernel.body.stmts, &mut |stmts| {
        stmts.retain(
            |s| !matches!(s, Stmt::Spec(spec) if matches!(spec.kind, SpecKind::Init { .. })),
        );
    });
    let diags = analyze_kernel(&kernel, Arch::Sm86);
    let uninit: Vec<_> = diags.iter().filter(|d| d.code == "GRA013").collect();
    assert!(!uninit.is_empty(), "expected GRA013, got: {diags:#?}");
    assert!(uninit[0].message.contains("%acc"), "{}", uninit[0].message);
}

/// A GEMM whose first MMA site reads its A fragment from its own
/// accumulator: `GRA016` reports exactly that site, trace recording
/// refuses it, and both interpreters still run it bit-identically.
#[test]
fn aliased_accumulator_is_linted_and_refused_by_recording() {
    let mut kernel = build_gemm(Arch::Sm86, &GemmConfig::small(64, 64, 64), Epilogue::None);
    let mut first = None;
    kernel.body.visit(&mut |s| match s {
        Stmt::Spec(spec) if spec.is_undecomposed() && matches!(spec.kind, SpecKind::MatMul) => {
            first.get_or_insert((spec.ins[0], spec.outs[0]));
        }
        _ => {}
    });
    let (a, c) = first.expect("the GEMM has an MMA");
    let acc = kernel.module.root_of(c);
    kernel.module.tensor_mut(a).base = Some(acc);

    let diags = analyze_kernel(&kernel, Arch::Sm86);
    let aliased: Vec<_> = diags.iter().filter(|d| d.code == "GRA016").collect();
    assert_eq!(aliased.len(), 1, "{diags:#?}");
    assert_eq!(aliased[0].severity, Severity::Error);
    assert!(aliased[0].message.contains("%acc") && aliased[0].message.contains("A operand"));

    let plan = KernelPlan::compile(&kernel, Arch::Sm86).expect("plan compiles");
    let err = record_opt_trace(&plan, &HashMap::new()).expect_err("recording refuses it");
    assert_eq!(
        err.to_string(),
        "bad input: mma whose accumulator is its A or B buffer cannot be traced"
    );

    let inputs: HashMap<_, _> = plan
        .params()
        .iter()
        .enumerate()
        .map(|(i, (id, _, len))| (*id, HostTensor::random(&[*len], 7 + i as u64).into_vec()))
        .collect();
    let bits = |o: &ExecOutcome| {
        let mut g: Vec<_> = o.globals.iter().collect();
        g.sort_by_key(|(id, _)| **id);
        g.into_iter().flat_map(|(_, v)| v.iter().map(|x| x.to_bits())).collect::<Vec<_>>()
    };
    let planned = execute_plan(&plan, &inputs, &HashMap::new(), ExecMode::Sequential).unwrap();
    let reference = execute_reference(&kernel, Arch::Sm86, &inputs).unwrap();
    assert_eq!(bits(&planned), bits(&reference));
    assert_eq!(planned.counters, reference.counters);
}

/// Staging without the paper's swizzle produces measurable bank
/// conflicts: `GRA014` grades them.
#[test]
fn unswizzled_gemm_reports_bank_conflicts() {
    let mut cfg = GemmConfig::small(64, 64, 64);
    cfg.swizzle = false;
    let diags = analyze_kernel(&build_gemm(Arch::Sm86, &cfg, Epilogue::None), Arch::Sm86);
    assert!(
        diags.iter().any(|d| d.code == "GRA014"),
        "unswizzled staging should conflict, got: {diags:#?}"
    );
    // Bank conflicts are performance findings, never errors.
    assert!(diags.iter().filter(|d| d.code == "GRA014").all(|d| d.severity != Severity::Error));
}

/// Back-to-back barriers with no intervening shared traffic are
/// flagged as redundant (`GRA011`, warning).
#[test]
fn double_barrier_is_flagged_redundant() {
    let cfg = GemmConfig::small(64, 64, 64);
    let mut kernel = build_gemm(Arch::Sm86, &cfg, Epilogue::None);
    // Duplicate every block-level sync in place.
    for_each_list(&mut kernel.body.stmts, &mut |stmts| {
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts.drain(..) {
            let dup = matches!(s, Stmt::Sync(SyncScope::Block));
            out.push(s.clone());
            if dup {
                out.push(s);
            }
        }
        *stmts = out;
    });
    let diags = analyze_kernel(&kernel, Arch::Sm86);
    let redundant: Vec<_> = diags.iter().filter(|d| d.code == "GRA011").collect();
    assert!(!redundant.is_empty(), "expected GRA011, got: {diags:#?}");
    assert!(redundant.iter().all(|d| d.severity == Severity::Warn));
    // The original schedule has no redundant barrier.
    let clean = analyze_kernel(&build_gemm(Arch::Sm86, &cfg, Epilogue::None), Arch::Sm86);
    assert!(clean.iter().all(|d| d.code != "GRA011"));
}

/// JSON rendering is wired through for CI consumption.
#[test]
fn json_rendering_counts_errors() {
    let cfg = GemmConfig::small(64, 64, 64);
    let mut mutant = build_gemm_double_buffered(&cfg, Epilogue::None);
    remove_block_sync(&mut mutant, 0);
    let diags = analyze_kernel(&mutant, Arch::Sm86);
    let json = graphene_analysis::render_json(&mutant.name, &diags);
    assert!(json.contains("\"GRA010\""));
    assert!(json.contains(&format!("\"errors\":{}", error_count(&diags))));
    assert!(error_count(&diags) > 0);
}
