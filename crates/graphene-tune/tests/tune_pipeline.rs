//! End-to-end tuner tests: the acceptance criteria of the subsystem.
//!
//! - For every paper kernel with a space, the tuner finds a schedule
//!   whose simulated time is at most the hand-picked default's.
//! - The winner is lint-clean (no error diagnostics) — guaranteed by
//!   construction (analysis-rejected candidates never reach costing)
//!   and re-checked here from scratch.
//! - A second run with the same key is served entirely from the
//!   tuning database: zero candidate simulations, verified by the
//!   pipeline counters.

use graphene_analysis::{analyze_kernel, error_count};
use graphene_ir::Arch;
use graphene_kernels::gemm::Epilogue;
use graphene_sim::{analyze, machine_for, record_opt_trace, time_kernel, KernelPlan};
use graphene_tune::{
    tune, tuner::run_search, tuner::run_search_cached, CostCache, FmhaSpace, GemmSpace,
    LayernormSpace, MlpSpace, Point, Search, SearchSpace, TuneDb, TuneOptions,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashMap;

/// Simulated time of the space's hand-picked default.
fn default_time(space: &dyn SearchSpace) -> f64 {
    let kernel = space.build(&space.default_point());
    let counters = analyze(&kernel, space.arch()).expect("default analyzes");
    time_kernel(&counters, machine_for(space.arch()), kernel.grid_size()).time_s
}

fn assert_tuned_beats_default(space: &dyn SearchSpace, opts: &TuneOptions) {
    let report = run_search(space, opts).expect("search finds a candidate");
    let default_t = default_time(space);
    assert!(
        report.best_time_s <= default_t * (1.0 + 1e-9),
        "{}: tuned {} ({}) worse than default {}",
        space.name(),
        report.best_time_s,
        report.best_desc,
        default_t
    );
    assert!(report.stats.simulated > 0);
    // The winner must be lint-clean, rebuilt from scratch.
    let kernel = space.build(&report.best_point);
    let diags = analyze_kernel(&kernel, space.arch());
    assert_eq!(
        error_count(&diags),
        0,
        "{}: winner {} has error diagnostics",
        space.name(),
        report.best_desc
    );
}

#[test]
fn exhaustive_gemm_matches_or_beats_default_and_accounts_for_every_point() {
    // The one full-exhaustive run of this suite; every other test caps
    // its budget (a budgeted run still evaluates the default first, so
    // the <= default guarantee is unaffected).
    let space = GemmSpace::new(Arch::Sm86, 512, 512, 256, Epilogue::None);
    let report = run_search(&space, &TuneOptions::default()).unwrap();

    let default_t = default_time(&space);
    assert!(
        report.best_time_s <= default_t * (1.0 + 1e-9),
        "tuned {} ({}) worse than default {}",
        report.best_time_s,
        report.best_desc,
        default_t
    );

    // Pipeline accounting: every proposed point lands in exactly one
    // bucket, and the cartesian space is mostly illegal (untileable
    // warp shapes, over-budget smem, >8 warps) — the constraint gate
    // must absorb it before anything is built.
    let s = &report.stats;
    assert_eq!(s.proposed, space.total_points(), "exhaustive covers the space");
    assert_eq!(s.proposed, s.pruned_constraint + s.pruned_analysis + s.simulated, "stats: {s:?}");
    assert!(s.pruned_constraint > s.simulated, "stats: {s:?}");
    assert!(!s.db_hit);

    // Swizzle is no longer a searched axis: the builder decides it by
    // proof, so every candidate — the winner included — ships with
    // provably conflict-free shared-memory staging.
    assert_eq!(report.leaderboard[0].conflict_warnings, 0);

    // And the winner is lint-clean, rebuilt from scratch, with every
    // shared-memory site *proven* (not sampled) conflict-free.
    let kernel = space.build(&report.best_point);
    assert_eq!(error_count(&analyze_kernel(&kernel, space.arch())), 0);
    let sites = graphene_analysis::banks::grade_sites(&kernel, space.arch());
    assert!(sites.iter().all(|s| s.conflict_free() && s.provenance.is_proven()));
}

#[test]
fn budgeted_gemm_volta_matches_or_beats_default() {
    let space = GemmSpace::new(Arch::Sm70, 512, 512, 256, Epilogue::None);
    assert_tuned_beats_default(&space, &TuneOptions { budget: Some(24), ..TuneOptions::default() });
}

#[test]
fn fmha_matches_or_beats_default() {
    // A reduced BERT shape keeps each candidate build fast.
    let space = FmhaSpace::new(8, 128, 64);
    assert_tuned_beats_default(&space, &TuneOptions::default());
}

#[test]
fn layernorm_matches_or_beats_default() {
    let space = LayernormSpace::new(Arch::Sm86, 512, 1024);
    assert_tuned_beats_default(&space, &TuneOptions::default());
}

#[test]
fn mlp_matches_or_beats_default() {
    let space = MlpSpace::new(Arch::Sm86, 512, 128, 2);
    assert_tuned_beats_default(&space, &TuneOptions::default());
}

#[test]
fn beam_and_random_match_or_beat_default_too() {
    let space = GemmSpace::new(Arch::Sm86, 512, 512, 256, Epilogue::None);
    assert_tuned_beats_default(
        &space,
        &TuneOptions {
            search: Search::Beam { seed: 7, width: 3, patience: 1 },
            budget: Some(24),
            ..TuneOptions::default()
        },
    );
    assert_tuned_beats_default(
        &space,
        &TuneOptions { search: Search::Random { seed: 7, samples: 24 }, ..TuneOptions::default() },
    );
}

#[test]
fn budget_caps_simulation_count() {
    let space = GemmSpace::new(Arch::Sm86, 512, 512, 256, Epilogue::None);
    let opts = TuneOptions { budget: Some(5), ..TuneOptions::default() };
    let report = run_search(&space, &opts).unwrap();
    // The budget is checked between batches of 64 proposals, so the
    // overshoot is bounded by one batch's worth of survivors.
    assert!(report.stats.simulated >= 5);
    assert!(report.stats.simulated <= 5 + 64, "stats: {:?}", report.stats);
}

#[test]
fn strategies_are_deterministic() {
    let space = GemmSpace::new(Arch::Sm86, 512, 512, 256, Epilogue::None);
    for search in
        [Search::Random { seed: 3, samples: 30 }, Search::Beam { seed: 3, width: 3, patience: 1 }]
    {
        let opts = TuneOptions { search, budget: Some(16), ..TuneOptions::default() };
        let a = run_search(&space, &opts).unwrap();
        let b = run_search(&space, &opts).unwrap();
        assert_eq!(a.best_point, b.best_point, "{search:?}");
        assert_eq!(a.best_time_s, b.best_time_s, "{search:?}");
        assert_eq!(a.stats, b.stats, "{search:?}");
    }
}

#[test]
fn second_run_is_served_from_the_database_with_zero_simulations() {
    let path =
        std::env::temp_dir().join(format!("graphene-tune-itest-{}.json", std::process::id()));
    std::fs::remove_file(&path).ok();

    let space = LayernormSpace::new(Arch::Sm86, 512, 1024);
    let opts = TuneOptions::default();

    let mut db = TuneDb::load(&path);
    let cold = tune(&space, &opts, Some(&mut db)).unwrap();
    assert!(!cold.stats.db_hit);
    assert!(cold.stats.simulated > 0);

    // Reload from disk — a genuinely separate process would do this.
    let mut db2 = TuneDb::load(&path);
    assert_eq!(db2.len(), 1);
    let warm = tune(&space, &opts, Some(&mut db2)).unwrap();
    assert!(warm.stats.db_hit);
    assert_eq!(warm.stats.simulated, 0, "warm run must not simulate");
    assert_eq!(warm.stats.proposed, 0, "warm run must not even propose");
    assert_eq!(warm.best_point, cold.best_point);
    assert_eq!(warm.best_time_s, cold.best_time_s);

    // A different problem size under the same kernel misses the cache.
    let other = LayernormSpace::new(Arch::Sm86, 1024, 1024);
    let mut db3 = TuneDb::load(&path);
    let miss = tune(&other, &opts, Some(&mut db3)).unwrap();
    assert!(!miss.stats.db_hit);
    assert_eq!(TuneDb::load(&path).len(), 2);

    std::fs::remove_file(&path).ok();
}

/// The cost cache records every post-constraint pipeline run on the
/// first search and replays all of them on the second — identical
/// report, zero fresh simulations.
#[test]
fn second_search_replays_every_costing_from_the_cost_cache() {
    let space = GemmSpace::new(Arch::Sm86, 256, 256, 128, Epilogue::None);
    let opts = TuneOptions::default();
    let costs = CostCache::new();

    let cold = run_search_cached(&space, &opts, Some(&costs)).unwrap();
    assert!(cold.stats.simulated > 0);
    assert_eq!(cold.stats.cost_replayed, 0, "first search has nothing to replay");
    let built_cold = cold.stats.pruned_analysis + cold.stats.simulated;
    assert_eq!(costs.recordings() as usize, built_cold, "every pipeline run recorded");
    assert_eq!(costs.hits(), 0);

    let warm = run_search_cached(&space, &opts, Some(&costs)).unwrap();
    assert_eq!(warm.stats.simulated, 0, "warm search must not simulate");
    assert_eq!(warm.stats.cost_replayed, built_cold, "every built point replays");
    assert_eq!(costs.hits() as usize, built_cold);
    assert_eq!(warm.best_point, cold.best_point);
    assert_eq!(warm.best_time_s, cold.best_time_s);
    assert_eq!(warm.stats.proposed, cold.stats.proposed);
    assert_eq!(warm.stats.pruned_constraint, cold.stats.pruned_constraint);
    // Leaderboards agree candidate-for-candidate, including counters.
    assert_eq!(warm.leaderboard.len(), cold.leaderboard.len());
    for (w, c) in warm.leaderboard.iter().zip(&cold.leaderboard) {
        assert_eq!(w.point, c.point);
        assert_eq!(w.counters, c.counters);
        assert_eq!(w.conflict_warnings, c.conflict_warnings);
    }

    // A different problem size misses: keys fold in the problem.
    let other = GemmSpace::new(Arch::Sm86, 128, 128, 128, Epilogue::None);
    let miss = run_search_cached(&other, &opts, Some(&costs)).unwrap();
    assert_eq!(miss.stats.cost_replayed, 0, "other problem must not replay");
    assert!(miss.stats.simulated > 0);
}

#[test]
fn impossible_problems_report_no_legal_candidate() {
    // A 17x17 GEMM tiles by nothing in the space.
    let space = GemmSpace::new(Arch::Sm86, 17, 17, 17, Epilogue::None);
    let err = run_search(&space, &TuneOptions::default()).unwrap_err();
    match err {
        graphene_tune::TuneError::NoLegalCandidate { proposed, last_reason } => {
            assert!(proposed > 0);
            assert!(last_reason.is_some());
        }
        other => panic!("unexpected error: {other:?}"),
    }
}

/// The beam hill-climb sees a subset of what an unbudgeted exhaustive
/// search costs, so it can tie the exhaustive winner but never beat it.
#[test]
fn beam_never_beats_an_unbudgeted_exhaustive_search() {
    let spaces: [&dyn SearchSpace; 2] =
        [&LayernormSpace::new(Arch::Sm86, 512, 1024), &FmhaSpace::new(2, 128, 64)];
    for space in spaces {
        let exhaustive = run_search(space, &TuneOptions::default()).unwrap();
        let beam = TuneOptions {
            search: Search::Beam { seed: 7, width: 2, patience: 1 },
            ..TuneOptions::default()
        };
        let beam = run_search(space, &beam).unwrap();
        assert!(
            exhaustive.best_time_s <= beam.best_time_s * (1.0 + 1e-9),
            "{}: beam {} ({}) beat exhaustive {} ({})",
            space.name(),
            beam.best_time_s,
            beam.best_desc,
            exhaustive.best_time_s,
            exhaustive.best_desc
        );
        assert!(beam.stats.simulated <= exhaustive.stats.simulated, "{:?}", beam.stats);
    }
}

/// Up to `n` points of `space` the tuner admits to costing — legal
/// under its constraint and lint-clean — drawn in a seeded order.
fn admitted_points(space: &dyn SearchSpace, n: usize, seed: u64) -> Vec<Point> {
    let mut order: Vec<usize> = (0..space.total_points()).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
        .into_iter()
        .map(|i| space.point_at(i))
        .filter(|p| space.constraint(p).is_ok())
        .filter(|p| error_count(&analyze_kernel(&space.build(p), space.arch())) == 0)
        .take(n)
        .collect()
}

/// Every MMA of every admitted tuner point folds into a warp-tile step:
/// recording succeeds, and the folded MMAs account for every
/// tensor-core flop the recording counted.
#[test]
fn every_admitted_point_records_with_every_mma_folded() {
    let spaces: [&dyn SearchSpace; 5] = [
        &GemmSpace::new(Arch::Sm86, 64, 128, 32, Epilogue::BiasGelu),
        &GemmSpace::new(Arch::Sm70, 64, 64, 32, Epilogue::None),
        &FmhaSpace::new(1, 64, 32),
        &MlpSpace::new(Arch::Sm86, 64, 64, 2),
        &MlpSpace::new(Arch::Sm70, 64, 64, 2),
    ];
    for space in spaces {
        let points = admitted_points(space, 12, 25);
        assert!(points.len() >= 2, "{}: {} admitted points", space.name(), points.len());
        let mma_flops = if space.arch() == Arch::Sm86 { 2 * 16 * 8 * 16 } else { 2 * 8 * 8 * 4 };
        for p in &points {
            let what = format!("{} {:?} {}", space.name(), space.arch(), space.describe(p));
            let plan = KernelPlan::compile(&space.build(p), space.arch()).expect(&what);
            let opt =
                record_opt_trace(&plan, &HashMap::new()).unwrap_or_else(|e| panic!("{what}: {e}"));
            let folded = opt.stats().folded_mmas as u64;
            assert!(folded > 0, "{what}: no MMA");
            assert_eq!(folded * mma_flops, opt.counters().flops_tc, "{what}");
        }
    }
}
