//! GEMM-space searches covering the ground the old
//! `graphene_kernels::tune` compatibility shim's tests held: the
//! search adapts tiles to problem shape and never loses to the
//! default (cuBLAS-like) configuration, and reports are ranked.

use graphene_ir::Arch;
use graphene_kernels::gemm::{build_gemm, Epilogue, GemmConfig};
use graphene_sim::{analyze, machine_for, time_kernel};
use graphene_tune::{
    tune_observed, FmhaSpace, GemmSpace, LayernormSpace, MlpSpace, Search, SearchSpace, TuneOptions,
};
use std::panic::AssertUnwindSafe;

fn param_value(space: &GemmSpace, point: &graphene_tune::Point, name: &str) -> i64 {
    let idx = space.params().iter().position(|p| p.name == name).expect("param exists");
    point.0[idx]
}

/// Simulated time of a concrete config, the way the shim computed its
/// baseline.
fn config_time(cfg: &GemmConfig, arch: Arch) -> f64 {
    let kernel = build_gemm(arch, cfg, Epilogue::None);
    let c = analyze(&kernel, arch).expect("analyzes");
    time_kernel(&c, machine_for(arch), kernel.grid_size()).time_s
}

#[test]
fn skinny_problem_prefers_narrow_tiles_and_beats_default() {
    // A tall-skinny GEMM (n = 128) leaves 128x256-class tiles starved:
    // every legal candidate must pick bn <= 128, and the winner must
    // not lose to the default 128x128x32 tile (which the pipeline
    // always costs first).
    let (m, n, k) = (8192, 128, 256);
    let space = GemmSpace::new(Arch::Sm86, m, n, k, Epilogue::None);
    let opts = TuneOptions {
        search: Search::Beam { seed: 7, width: 4, patience: 2 },
        budget: Some(32),
        top: 8,
        ..TuneOptions::default()
    };
    let report = tune_observed(&space, &opts, None, None, None).expect("search succeeds");
    assert!(report.stats.simulated > 0);
    assert!(param_value(&space, &report.best_point, "bn") <= 128);
    let default_t = config_time(&GemmConfig::cublas_like(m, n, k), Arch::Sm86);
    assert!(report.best_time_s <= default_t, "tuned {} vs default {default_t}", report.best_time_s);
}

#[test]
fn leaderboard_is_sorted_fastest_first() {
    let space = GemmSpace::new(Arch::Sm86, 512, 512, 256, Epilogue::None);
    let opts = TuneOptions {
        search: Search::Random { seed: 3, samples: 12 },
        top: 16,
        ..TuneOptions::default()
    };
    let report = tune_observed(&space, &opts, None, None, None).expect("search succeeds");
    assert!(report.leaderboard.len() >= 2, "need a real leaderboard");
    for pair in report.leaderboard.windows(2) {
        assert!(pair[0].profile.time_s <= pair[1].profile.time_s);
    }
}

/// Every point each space admits must build: its constraint is its
/// config's own `validate`, which has to reject whatever the builder
/// relies on (for example Volta's transposed A staging), so the
/// tuner's panic guard never fires. The admitted counts are pinned:
/// moving the rules into the configs kept every space's point set.
#[test]
fn every_admitted_point_builds() {
    let mut spaces: Vec<(Box<dyn SearchSpace>, usize)> = Vec::new();
    for (arch, admitted) in [(Arch::Sm86, 378), (Arch::Sm70, 125)] {
        for (m, n, k) in [(1024, 256, 128), (1024, 1024, 512), (256, 256, 128)] {
            spaces.push((Box::new(GemmSpace::new(arch, m, n, k, Epilogue::None)), admitted));
        }
    }
    spaces.push((Box::new(FmhaSpace::mlperf_bert()), 8));
    spaces.push((Box::new(FmhaSpace::new(2, 128, 64)), 8));
    for (rows, hidden) in [(4096, 1024), (512, 512), (1024, 256)] {
        spaces.push((Box::new(LayernormSpace::new(Arch::Sm86, rows, hidden)), 5));
    }
    for arch in [Arch::Sm86, Arch::Sm70] {
        for (m, hidden, layers) in [(256, 128, 2), (1024, 128, 4)] {
            spaces.push((Box::new(MlpSpace::new(arch, m, hidden, layers)), 14));
        }
    }
    for (space, want) in &spaces {
        let what = format!("{} {:?} {}", space.name(), space.arch(), space.problem_key());
        let mut admitted = 0;
        for i in 0..space.total_points() {
            let p = space.point_at(i);
            if space.constraint(&p).is_err() {
                continue;
            }
            admitted += 1;
            let built = std::panic::catch_unwind(AssertUnwindSafe(|| space.build(&p)));
            assert!(built.is_ok(), "{what}: admitted point {} panics", space.describe(&p));
        }
        assert_eq!(admitted, *want, "{what}: admitted count");
    }
}
