//! Tensor-core GEMM schedules.
//!
//! The optimized GEMM decompositions of the paper's Hypothesis A
//! (Figure 9): a kernel-level `MatMul` spec decomposed hierarchically —
//! grid → thread-block tiles staged through (swizzled) shared memory →
//! warp tiles → the architecture's tensor instructions. The same tile
//! sizes as cuBLAS are used for the evaluation configs (128×128×32
//! thread-block tiles, paper footnote 1).
//!
//! Two architecture paths:
//! - **Ampere** (SM86): `cp.async` staging, `ldmatrix`(.trans) fragment
//!   loads, `mma.m16n8k16` (warp-wide),
//! - **Volta** (SM70): register staging, per-thread shared-memory
//!   fragment loads, quad-pair `mma.m8n8k4` (paper Figure 6).
//!
//! GEMM epilogues (bias / ReLU, Figure 10) fuse into the accumulator
//! store.

use crate::common::{
    a_frags_type, acc_root_type, b_frags_type, reg_vec, smem_swizzle, stage_tile, stage_transposed,
};
use crate::mma::{
    emit_epilogue_store_ampere, emit_epilogue_store_volta, emit_warp_mma_ampere,
    emit_warp_mma_volta, volta_acc_ty, EpilogueOps, MmaGeom, StoreTarget, WarpCtx,
};
use graphene_ir::builder::KernelBuilder;
use graphene_ir::spec::SpecKind;
use graphene_ir::tensor::TensorType;
use graphene_ir::{Arch, Kernel, ScalarType, UnaryOp};
use graphene_layout::{Layout, Swizzle};
use graphene_sym::IntExpr;

/// Epilogue fused into the GEMM store (paper Figure 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Epilogue {
    /// Plain GEMM.
    None,
    /// `C += bias` (row-broadcast).
    Bias,
    /// `C = relu(C)`.
    Relu,
    /// `C = relu(C + bias)` — one MLP layer's epilogue.
    BiasRelu,
    /// `C = gelu(C + bias)`.
    BiasGelu,
}

impl Epilogue {
    /// Does this epilogue read a bias vector?
    pub fn has_bias(self) -> bool {
        matches!(self, Epilogue::Bias | Epilogue::BiasRelu | Epilogue::BiasGelu)
    }

    /// The activation applied, if any.
    pub fn activation(self) -> Option<UnaryOp> {
        match self {
            Epilogue::Relu | Epilogue::BiasRelu => Some(UnaryOp::Relu),
            Epilogue::BiasGelu => Some(UnaryOp::Gelu),
            _ => None,
        }
    }

    /// Label used in benchmark output.
    pub fn label(self) -> &'static str {
        match self {
            Epilogue::None => "gemm",
            Epilogue::Bias => "bias",
            Epilogue::Relu => "relu",
            Epilogue::BiasRelu => "bias+relu",
            Epilogue::BiasGelu => "bias+gelu",
        }
    }
}

/// Tile configuration of a GEMM schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmConfig {
    /// Problem rows.
    pub m: i64,
    /// Problem columns.
    pub n: i64,
    /// Reduction depth.
    pub k: i64,
    /// Thread-block tile rows.
    pub bm: i64,
    /// Thread-block tile columns.
    pub bn: i64,
    /// Thread-block K step.
    pub bk: i64,
    /// Warp tile rows.
    pub wm: i64,
    /// Warp tile columns.
    pub wn: i64,
    /// Swizzle shared-memory stages (bank-conflict avoidance).
    pub swizzle: bool,
}

impl GemmConfig {
    /// The cuBLAS-matching configuration the paper uses (footnote 1):
    /// 128×128×32 thread-block tiles, 64×64 warp tiles.
    pub fn cublas_like(m: i64, n: i64, k: i64) -> Self {
        GemmConfig { m, n, k, bm: 128, bn: 128, bk: 32, wm: 64, wn: 64, swizzle: true }
    }

    /// A small configuration for functional tests.
    pub fn small(m: i64, n: i64, k: i64) -> Self {
        GemmConfig { m, n, k, bm: 32, bn: 32, bk: 16, wm: 32, wn: 32, swizzle: true }
    }

    /// Number of warps per block.
    pub fn warps(&self) -> i64 {
        (self.bm / self.wm) * (self.bn / self.wn)
    }

    /// Threads per block.
    pub fn threads(&self) -> i64 {
        self.warps() * 32
    }

    /// Grid blocks.
    pub fn blocks(&self) -> i64 {
        (self.m / self.bm) * (self.n / self.bn)
    }

    /// Single-buffered shared-memory footprint in bytes (two fp16
    /// stages: `As:[bm,bk]` and `Bs:[bk,bn]`).
    pub fn smem_bytes(&self) -> u64 {
        2 * (self.bm * self.bk + self.bk * self.bn) as u64
    }

    /// Checks every validity rule a GEMM schedule must satisfy on
    /// `arch` — tiling divisibility, warp-tile vs tensor-instruction
    /// shape, warp count, staging granularity, and the shared-memory
    /// budget. This is the *single* source of truth shared by the
    /// kernel builders (which panic on violation) and the tuner's
    /// candidate filters (which skip the point).
    ///
    /// # Errors
    ///
    /// Returns the first violated rule as a human-readable message.
    pub fn validate(&self, arch: Arch) -> Result<(), String> {
        if self.m % self.bm != 0 || self.n % self.bn != 0 {
            return Err(format!(
                "partial block tiles: {}x{} does not tile by {}x{}",
                self.m, self.n, self.bm, self.bn
            ));
        }
        if self.bm % self.wm != 0 || self.bn % self.wn != 0 {
            return Err(format!(
                "warp tiling: {}x{} block tile does not tile by {}x{} warp tiles",
                self.bm, self.bn, self.wm, self.wn
            ));
        }
        if self.k % self.bk != 0 {
            return Err(format!("K tiling: k={} does not tile by bk={}", self.k, self.bk));
        }
        match arch {
            Arch::Sm86 => {
                if self.bk % 16 != 0 {
                    return Err(format!("K tiling (Ampere): bk={} not a multiple of 16", self.bk));
                }
                if self.wm % 16 != 0 || self.wn % 8 != 0 {
                    return Err(format!(
                        "warp tile {}x{} vs mma.m16n8k16 (wm%16, wn%8)",
                        self.wm, self.wn
                    ));
                }
            }
            Arch::Sm70 => {
                if self.bk % 4 != 0 {
                    return Err(format!("K tiling (Volta): bk={} not a multiple of 4", self.bk));
                }
                if self.wm % 16 != 0 || self.wn % 16 != 0 {
                    return Err(format!(
                        "warp tile {}x{} vs quad-pairs (wm%16, wn%16)",
                        self.wm, self.wn
                    ));
                }
                // A is staged transposed, eight halves per thread per chunk.
                let threads = self.threads();
                if (self.bm * self.bk) % (threads * 8) != 0 {
                    return Err(format!(
                        "transposed A staging (Volta): {}x{} tile not divisible by {} threads x 8",
                        self.bm, self.bk, threads
                    ));
                }
            }
        }
        let warps = self.warps();
        if !(1..=8).contains(&warps) {
            return Err(format!("{warps} warps per block (1..=8 supported)"));
        }
        let threads = self.threads();
        if (self.bm * self.bk) % threads != 0 || (self.bk * self.bn) % threads != 0 {
            return Err(format!(
                "staging granularity: {}x{} / {}x{} tiles not divisible by {} threads",
                self.bm, self.bk, self.bk, self.bn, threads
            ));
        }
        let limit = arch.smem_limit_bytes();
        if self.smem_bytes() > limit {
            return Err(format!(
                "shared-memory budget: {} B single-buffered stages exceed the {arch} limit {limit} B",
                self.smem_bytes()
            ));
        }
        Ok(())
    }
}

/// Builds the optimized GEMM kernel `C = epilogue(A × B [+ bias])` for an
/// architecture. `A:[m,k]`, `B:[k,n]`, `C:[m,n]`, all fp16 row-major with
/// fp32 tensor-core accumulation (the paper's evaluation setting).
///
/// Returned kernel parameters: `A, B, C` and, when the epilogue needs
/// it, `bias:[n]`.
pub fn build_gemm(arch: Arch, cfg: &GemmConfig, epilogue: Epilogue) -> Kernel {
    cfg.validate(arch).unwrap_or_else(|e| panic!("invalid GEMM configuration: {e}"));
    let name = format!(
        "graphene_gemm_{}_{}",
        match arch {
            Arch::Sm70 => "sm70",
            Arch::Sm86 => "sm86",
        },
        epilogue.label().replace('+', "_")
    );
    let mut kb = KernelBuilder::new(name, &[cfg.m / cfg.bm, cfg.n / cfg.bn], &[cfg.threads()]);
    let a = kb.param("A", &[cfg.m, cfg.k], ScalarType::F16);
    let b = kb.param("B", &[cfg.k, cfg.n], ScalarType::F16);
    let c = kb.param("C", &[cfg.m, cfg.n], ScalarType::F16);
    let bias = epilogue.has_bias().then(|| kb.param("bias", &[cfg.n], ScalarType::F16));

    let grid = kb.grid();
    let block = kb.block();
    let bids = kb.module()[grid].group_coords();
    let (bm_id, bn_id) = (bids[0].clone(), bids[1].clone());

    let sw = if cfg.swizzle { smem_swizzle() } else { Swizzle::identity() };
    // Volta consumes A column-major (transposed stage) so quad-pair
    // fragments are vectorised loads; Ampere's ldmatrix reads rows.
    let a_s = match arch {
        Arch::Sm86 => kb.alloc_shared(
            "As",
            TensorType::row_major(&[cfg.bm, cfg.bk], ScalarType::F16).with_swizzle(sw),
        ),
        Arch::Sm70 => kb.alloc_shared(
            "Ast",
            TensorType::row_major(&[cfg.bk, cfg.bm], ScalarType::F16).with_swizzle(sw),
        ),
    };
    let b_s = kb.alloc_shared(
        "Bs",
        TensorType::row_major(&[cfg.bk, cfg.bn], ScalarType::F16).with_swizzle(sw),
    );

    let body = GemmBody {
        cfg: *cfg,
        a,
        b,
        c,
        bias,
        epilogue,
        bm_row0: bm_id.clone() * cfg.bm,
        bn_col0: bn_id.clone() * cfg.bn,
        a_s,
        b_s,
    };

    match arch {
        Arch::Sm86 => body.emit_ampere(&mut kb, grid, block),
        Arch::Sm70 => body.emit_volta(&mut kb, grid, block),
    }
    kb.build()
}

/// Internal context for emitting the GEMM body on top of the reusable
/// warp-level MMA emitters in [`crate::mma`].
struct GemmBody {
    cfg: GemmConfig,
    a: graphene_ir::TensorId,
    b: graphene_ir::TensorId,
    c: graphene_ir::TensorId,
    bias: Option<graphene_ir::TensorId>,
    epilogue: Epilogue,
    bm_row0: IntExpr,
    bn_col0: IntExpr,
    a_s: graphene_ir::TensorId,
    b_s: graphene_ir::TensorId,
}

impl GemmBody {
    fn geom(&self) -> MmaGeom {
        MmaGeom {
            bm: self.cfg.bm,
            bn: self.cfg.bn,
            wm: self.cfg.wm,
            wn: self.cfg.wn,
            k_cols: self.cfg.bk,
        }
    }

    fn epilogue_ops(&self) -> EpilogueOps {
        EpilogueOps {
            // The bias is indexed by the *global* column: block offset
            // plus the in-block column computed by the store emitters.
            bias: self.bias.map(|b| (b, self.bn_col0.clone())),
            activation: self.epilogue.activation(),
            scale: None,
        }
    }

    fn emit_ampere(
        &self,
        kb: &mut KernelBuilder,
        grid: graphene_ir::ThreadId,
        block: graphene_ir::ThreadId,
    ) {
        let cfg = &self.cfg;
        let geom = self.geom();
        let (mi_cnt, ni_cnt) = (cfg.wm / 16, cfg.wn / 8);
        let warp = kb.thread_tile(block, &Layout::contiguous(32)).expect("warp tiling");
        let ctx = WarpCtx::new(kb, block, &geom);

        let acc = kb.alloc_reg("acc", acc_root_type(mi_cnt, ni_cnt));
        let ts = kb.thread_scalar(block);
        kb.spec(SpecKind::Init { value: 0.0 }, vec![grid, ts], vec![], vec![acc]);
        let a_frags = kb.alloc_reg("afrag", a_frags_type(mi_cnt));
        let b_frags = kb.alloc_reg("bfrag", b_frags_type(ni_cnt));

        kb.comment("main K loop: stage block tiles, then warp-level tensor core MMAs");
        kb.for_loop("ks", cfg.k / cfg.bk, false, |kb, ks| {
            stage_tile(
                kb,
                Arch::Sm86,
                &[grid],
                block,
                self.a,
                self.a_s,
                self.bm_row0.clone(),
                ks.clone() * cfg.bk,
                cfg.bm,
                cfg.bk,
                cfg.threads(),
            );
            stage_tile(
                kb,
                Arch::Sm86,
                &[grid],
                block,
                self.b,
                self.b_s,
                ks.clone() * cfg.bk,
                self.bn_col0.clone(),
                cfg.bk,
                cfg.bn,
                cfg.threads(),
            );
            kb.sync();
            emit_warp_mma_ampere(
                kb, grid, warp, &ctx, self.a_s, self.b_s, acc, a_frags, b_frags, &geom,
            );
            kb.sync();
        });

        kb.comment("epilogue + accumulator store (fp32 -> fp16)");
        let target = StoreTarget::Global {
            tensor: self.c,
            row0: self.bm_row0.clone(),
            col0: self.bn_col0.clone(),
        };
        emit_epilogue_store_ampere(
            kb,
            grid,
            block,
            &ctx,
            acc,
            &geom,
            &self.epilogue_ops(),
            &target,
        );
    }

    fn emit_volta(
        &self,
        kb: &mut KernelBuilder,
        grid: graphene_ir::ThreadId,
        block: graphene_ir::ThreadId,
    ) {
        let cfg = &self.cfg;
        let geom = self.geom();
        let (mi_cnt, ni_cnt) = (cfg.wm / 16, cfg.wn / 16);
        let qp = kb
            .thread_tile(block, &graphene_ir::atomic::quad_pair_layout())
            .expect("quad-pair tiling");
        let ctx = WarpCtx::new(kb, block, &geom);

        let acc = kb.alloc_reg("acc", volta_acc_ty(mi_cnt, ni_cnt));
        let ts = kb.thread_scalar(block);
        kb.spec(SpecKind::Init { value: 0.0 }, vec![grid, ts], vec![], vec![acc]);
        let a_regs = kb.alloc_reg("areg", reg_vec(4 * mi_cnt, ScalarType::F16));
        let b_regs = kb.alloc_reg("breg", reg_vec(4 * ni_cnt, ScalarType::F16));

        kb.comment("main K loop: transposed A staging, quad-pair MMAs");
        kb.for_loop("ks", cfg.k / cfg.bk, false, |kb, ks| {
            stage_transposed(
                kb,
                &[grid],
                block,
                self.a,
                self.a_s,
                self.bm_row0.clone(),
                ks.clone() * cfg.bk,
                cfg.bm,
                cfg.bk,
                cfg.threads(),
            );
            stage_tile(
                kb,
                Arch::Sm70,
                &[grid],
                block,
                self.b,
                self.b_s,
                ks.clone() * cfg.bk,
                self.bn_col0.clone(),
                cfg.bk,
                cfg.bn,
                cfg.threads(),
            );
            kb.sync();
            emit_warp_mma_volta(
                kb, grid, block, qp, &ctx, self.a_s, self.b_s, acc, a_regs, b_regs, &geom,
            );
            kb.sync();
        });

        kb.comment("epilogue + accumulator store (fp32 -> fp16)");
        let target = StoreTarget::Global {
            tensor: self.c,
            row0: self.bm_row0.clone(),
            col0: self.bn_col0.clone(),
        };
        emit_epilogue_store_volta(kb, grid, block, &ctx, acc, &geom, &self.epilogue_ops(), &target);
    }
}

/// Builds an Ampere GEMM whose `m` need **not** divide the block tile:
/// the grid is over-approximated to `ceil(m / bm)` row-blocks and
/// out-of-bounds rows are *predicated* — guarded staging loads and
/// guarded accumulator stores — exactly the paper's partial-tile
/// strategy (§3.4: "subsequent accesses to tensors with potentially
/// partial tiles must be predicated to prevent out-of-bounds accesses").
///
/// `cfg.m` is the true row count; all other divisibility requirements of
/// [`GemmConfig::validate`] still apply to `n`/`k` and the tiles.
pub fn build_gemm_partial_m(cfg: &GemmConfig, epilogue: Epilogue) -> Kernel {
    build_gemm_predicated_m(cfg, epilogue, IntExpr::constant(cfg.m), "graphene_gemm_sm86_partial_m")
}

/// A GEMM *parametric* in `m` (paper §3.4: "parametric shapes lead to
/// additional kernel parameters during code generation"): `cfg.m` is the
/// *capacity* the grid is sized for; the true row count is the symbolic
/// kernel parameter `M`, supplied at launch (simulation:
/// [`graphene_sim::execute_bound`] / [`graphene_sim::analyze_bound`]).
/// The generated CUDA gains a `const int M` parameter and predicates all
/// row-dependent accesses against it.
pub fn build_gemm_parametric_m(cfg: &GemmConfig, epilogue: Epilogue) -> Kernel {
    build_gemm_predicated_m(cfg, epilogue, IntExpr::var("M"), "graphene_gemm_sm86_parametric_m")
}

fn build_gemm_predicated_m(
    cfg: &GemmConfig,
    epilogue: Epilogue,
    m_bound_expr: IntExpr,
    name: &str,
) -> Kernel {
    let arch = Arch::Sm86;
    let grid_m = (cfg.m + cfg.bm - 1) / cfg.bm;
    let padded = GemmConfig { m: grid_m * cfg.bm, ..*cfg };
    padded.validate(arch).unwrap_or_else(|e| panic!("invalid GEMM configuration: {e}"));
    let geom = MmaGeom { bm: cfg.bm, bn: cfg.bn, wm: cfg.wm, wn: cfg.wn, k_cols: cfg.bk };
    let (mi_cnt, ni_cnt) = (cfg.wm / 16, cfg.wn / 8);

    let mut kb = KernelBuilder::new(name, &[grid_m, cfg.n / cfg.bn], &[cfg.threads()]);
    let a = kb.param("A", &[cfg.m, cfg.k], ScalarType::F16);
    let b = kb.param("B", &[cfg.k, cfg.n], ScalarType::F16);
    let c = kb.param("C", &[cfg.m, cfg.n], ScalarType::F16);
    let bias = epilogue.has_bias().then(|| kb.param("bias", &[cfg.n], ScalarType::F16));

    let grid = kb.grid();
    let block = kb.block();
    let bids = kb.module()[grid].group_coords();
    let (bm_row0, bn_col0) = (bids[0].clone() * cfg.bm, bids[1].clone() * cfg.bn);
    let m_bound = m_bound_expr;

    let sw = if cfg.swizzle { smem_swizzle() } else { Swizzle::identity() };
    let a_s = kb.alloc_shared(
        "As",
        TensorType::row_major(&[cfg.bm, cfg.bk], ScalarType::F16).with_swizzle(sw),
    );
    let b_s = kb.alloc_shared(
        "Bs",
        TensorType::row_major(&[cfg.bk, cfg.bn], ScalarType::F16).with_swizzle(sw),
    );

    let warp = kb.thread_tile(block, &Layout::contiguous(32)).expect("warps");
    let ctx = WarpCtx::new(&kb, block, &geom);
    let acc = kb.alloc_reg("acc", acc_root_type(mi_cnt, ni_cnt));
    let ts = kb.thread_scalar(block);
    kb.spec(SpecKind::Init { value: 0.0 }, vec![grid, ts], vec![], vec![acc]);
    let a_frags = kb.alloc_reg("afrag", a_frags_type(mi_cnt));
    let b_frags = kb.alloc_reg("bfrag", b_frags_type(ni_cnt));

    let tid = kb.module()[block].hw_var();
    kb.comment("K loop with predicated A staging (partial row tiles)");
    kb.for_loop("ks", cfg.k / cfg.bk, false, |kb, ks| {
        // Guarded A staging: each 8-wide chunk loads only if its row is
        // within the true m. Unloaded rows contribute garbage only to
        // unstored accumulator rows.
        let chunks = cfg.bm * cfg.bk / cfg.threads() / 8;
        assert!(chunks >= 1, "partial staging needs >= 8 elems per thread");
        let a_vec8 = kb.tile_c(a, &[Some(1), Some(8)]).expect("A vectors");
        let as_vec8 = kb.tile_c(a_s, &[Some(1), Some(8)]).expect("As vectors");
        for u in 0..chunks {
            let e = (tid.clone() * chunks + u) * 8;
            let r = e.clone() / cfg.bk;
            let cc = e % cfg.bk;
            let row = bm_row0.clone() + r.clone();
            kb.if_lt(row.clone(), m_bound.clone(), |kb| {
                let sv = kb.index(a_vec8, &[row.clone(), (ks.clone() * cfg.bk + cc.clone()) / 8]);
                let dv = kb.index(as_vec8, &[r.clone(), cc.clone() / 8]);
                let ts = kb.thread_scalar(block);
                kb.spec(SpecKind::Move, vec![grid, ts], vec![sv], vec![dv]);
            });
        }
        stage_tile(
            kb,
            arch,
            &[grid],
            block,
            b,
            b_s,
            ks.clone() * cfg.bk,
            bn_col0.clone(),
            cfg.bk,
            cfg.bn,
            cfg.threads(),
        );
        kb.sync();
        emit_warp_mma_ampere(kb, grid, warp, &ctx, a_s, b_s, acc, a_frags, b_frags, &geom);
        kb.sync();
    });

    kb.comment("predicated epilogue store");
    let lane = ctx.lane.clone();
    let c_vec2 = kb.tile_c(c, &[Some(1), Some(2)]).expect("C pairs");
    let bias_vec2 = bias.map(|bt| kb.tile_c(bt, &[Some(2)]).expect("bias pairs"));
    for ni in 0..ni_cnt {
        for vp in 0..2i64 {
            let col =
                bn_col0.clone() + ctx.wn_id.clone() * cfg.wn + ni * 8 + (lane.clone() % 4) * 2;
            let bias_reg = bias.map(|_| {
                let r = kb.alloc_reg(format!("biasr_{ni}_{vp}"), reg_vec(2, ScalarType::F32));
                let bsrc = kb.index(bias_vec2.unwrap(), &[col.clone() / 2]);
                let ts = kb.thread_scalar(block);
                kb.spec(SpecKind::Move, vec![grid, ts], vec![bsrc], vec![r]);
                r
            });
            for mi in 0..mi_cnt {
                let pair = kb.view_as(
                    acc,
                    reg_vec(2, ScalarType::F32),
                    IntExpr::constant(mi * ni_cnt * 4 + ni * 4 + vp * 2),
                );
                if let Some(br) = bias_reg {
                    let ts = kb.thread_scalar(block);
                    kb.spec(
                        SpecKind::BinaryPointwise(graphene_ir::BinaryOp::Add),
                        vec![grid, ts],
                        vec![pair, br],
                        vec![pair],
                    );
                }
                if let Some(act) = epilogue.activation() {
                    let ts = kb.thread_scalar(block);
                    kb.spec(SpecKind::UnaryPointwise(act), vec![grid, ts], vec![pair], vec![pair]);
                }
                let row = bm_row0.clone()
                    + ctx.wm_id.clone() * cfg.wm
                    + mi * 16
                    + lane.clone() / 4
                    + vp * 8;
                kb.if_lt(row.clone(), m_bound.clone(), |kb| {
                    let dst = kb.index(c_vec2, &[row.clone(), col.clone() / 2]);
                    let ts = kb.thread_scalar(block);
                    kb.spec(SpecKind::Move, vec![grid, ts], vec![pair], vec![dst]);
                });
            }
        }
    }
    kb.build()
}

/// The §2 ablation: the Ampere GEMM with `ldmatrix` replaced by
/// per-thread scalar shared-memory loads ("equivalent but simpler data
/// movements"). The paper reports this costs up to 17% of GEMM
/// performance; the `ldmatrix_ablation` bench measures our equivalent.
pub fn build_gemm_no_ldmatrix(cfg: &GemmConfig, epilogue: Epilogue) -> Kernel {
    let arch = Arch::Sm86;
    cfg.validate(arch).unwrap_or_else(|e| panic!("invalid GEMM configuration: {e}"));
    let mut kb = KernelBuilder::new(
        "graphene_gemm_sm86_no_ldmatrix",
        &[cfg.m / cfg.bm, cfg.n / cfg.bn],
        &[cfg.threads()],
    );
    let a = kb.param("A", &[cfg.m, cfg.k], ScalarType::F16);
    let b = kb.param("B", &[cfg.k, cfg.n], ScalarType::F16);
    let c = kb.param("C", &[cfg.m, cfg.n], ScalarType::F16);
    let bias = epilogue.has_bias().then(|| kb.param("bias", &[cfg.n], ScalarType::F16));

    let grid = kb.grid();
    let block = kb.block();
    let bids = kb.module()[grid].group_coords();
    let (bm_row0, bn_col0) = (bids[0].clone() * cfg.bm, bids[1].clone() * cfg.bn);
    let sw = if cfg.swizzle { smem_swizzle() } else { Swizzle::identity() };
    let a_s = kb.alloc_shared(
        "As",
        TensorType::row_major(&[cfg.bm, cfg.bk], ScalarType::F16).with_swizzle(sw),
    );
    let b_s = kb.alloc_shared(
        "Bs",
        TensorType::row_major(&[cfg.bk, cfg.bn], ScalarType::F16).with_swizzle(sw),
    );
    let geom = MmaGeom { bm: cfg.bm, bn: cfg.bn, wm: cfg.wm, wn: cfg.wn, k_cols: cfg.bk };
    let (mi_cnt, ni_cnt) = (cfg.wm / 16, cfg.wn / 8);
    let warp = kb.thread_tile(block, &Layout::contiguous(32)).expect("warps");
    let ctx = WarpCtx::new(&kb, block, &geom);
    let acc = kb.alloc_reg("acc", acc_root_type(mi_cnt, ni_cnt));
    let ts = kb.thread_scalar(block);
    kb.spec(SpecKind::Init { value: 0.0 }, vec![grid, ts], vec![], vec![acc]);
    let a_frags = kb.alloc_reg("afrag", a_frags_type(mi_cnt));
    let b_frags = kb.alloc_reg("bfrag", b_frags_type(ni_cnt));

    kb.comment("ablation: scalar ld.shared fragment loads instead of ldmatrix");
    kb.for_loop("ks", cfg.k / cfg.bk, false, |kb, ks| {
        stage_tile(
            kb,
            arch,
            &[grid],
            block,
            a,
            a_s,
            bm_row0.clone(),
            ks.clone() * cfg.bk,
            cfg.bm,
            cfg.bk,
            cfg.threads(),
        );
        stage_tile(
            kb,
            arch,
            &[grid],
            block,
            b,
            b_s,
            ks.clone() * cfg.bk,
            bn_col0.clone(),
            cfg.bk,
            cfg.bn,
            cfg.threads(),
        );
        kb.sync();
        crate::mma::emit_warp_mma_ampere_scalar_loads(
            kb, grid, block, warp, &ctx, a_s, b_s, acc, a_frags, b_frags, &geom,
        );
        kb.sync();
    });
    let ops = EpilogueOps {
        bias: bias.map(|bt| (bt, bn_col0.clone())),
        activation: epilogue.activation(),
        scale: None,
    };
    let target = StoreTarget::Global { tensor: c, row0: bm_row0, col0: bn_col0 };
    emit_epilogue_store_ampere(&mut kb, grid, block, &ctx, acc, &geom, &ops, &target);
    kb.build()
}

/// A strided-batched GEMM (the `cublasGemmStridedBatchedEx` shape used
/// by attention lowerings): `batch` independent `m x n x k` products,
/// with the batch index folded into the grid — one launch for the whole
/// batch.
///
/// Parameters: `A:[batch*m, k]`, `B:[batch*k, n]`, `C:[batch*m, n]`.
pub fn build_batched_gemm(arch: Arch, cfg: &GemmConfig, batch: i64) -> Kernel {
    cfg.validate(arch).unwrap_or_else(|e| panic!("invalid GEMM configuration: {e}"));
    assert!(batch >= 1, "batch must be positive");
    assert_eq!(arch, Arch::Sm86, "the batched schedule targets Ampere");
    let name = format!("graphene_batched_gemm_sm86_x{batch}");
    let grid_mn = (cfg.m / cfg.bm) * (cfg.n / cfg.bn);
    let mut kb =
        KernelBuilder::new(name, &[batch, cfg.m / cfg.bm, cfg.n / cfg.bn], &[cfg.threads()]);
    let a = kb.param("A", &[batch * cfg.m, cfg.k], ScalarType::F16);
    let b = kb.param("B", &[batch * cfg.k, cfg.n], ScalarType::F16);
    let c = kb.param("C", &[batch * cfg.m, cfg.n], ScalarType::F16);
    let _ = grid_mn;

    let grid = kb.grid();
    let block = kb.block();
    let bids = kb.module()[grid].group_coords();
    let (batch_id, bm_id, bn_id) = (bids[0].clone(), bids[1].clone(), bids[2].clone());

    let sw = if cfg.swizzle { smem_swizzle() } else { Swizzle::identity() };
    let a_s = kb.alloc_shared(
        "As",
        TensorType::row_major(&[cfg.bm, cfg.bk], ScalarType::F16).with_swizzle(sw),
    );
    let b_s = kb.alloc_shared(
        "Bs",
        TensorType::row_major(&[cfg.bk, cfg.bn], ScalarType::F16).with_swizzle(sw),
    );
    let geom = MmaGeom { bm: cfg.bm, bn: cfg.bn, wm: cfg.wm, wn: cfg.wn, k_cols: cfg.bk };
    let (mi_cnt, ni_cnt) = (cfg.wm / 16, cfg.wn / 8);
    let warp = kb.thread_tile(block, &Layout::contiguous(32)).expect("warps");
    let ctx = WarpCtx::new(&kb, block, &geom);
    let acc = kb.alloc_reg("acc", acc_root_type(mi_cnt, ni_cnt));
    let ts = kb.thread_scalar(block);
    kb.spec(SpecKind::Init { value: 0.0 }, vec![grid, ts], vec![], vec![acc]);
    let a_frags = kb.alloc_reg("afrag", a_frags_type(mi_cnt));
    let b_frags = kb.alloc_reg("bfrag", b_frags_type(ni_cnt));

    // Per-instance base rows: the batch stride folded into the row offset.
    let a_row0 = batch_id.clone() * cfg.m + bm_id.clone() * cfg.bm;
    let b_row_base = batch_id.clone() * cfg.k;
    let c_row0 = a_row0.clone();
    let bn_col0 = bn_id * cfg.bn;

    kb.for_loop("ks", cfg.k / cfg.bk, false, |kb, ks| {
        stage_tile(
            kb,
            arch,
            &[grid],
            block,
            a,
            a_s,
            a_row0.clone(),
            ks.clone() * cfg.bk,
            cfg.bm,
            cfg.bk,
            cfg.threads(),
        );
        stage_tile(
            kb,
            arch,
            &[grid],
            block,
            b,
            b_s,
            b_row_base.clone() + ks.clone() * cfg.bk,
            bn_col0.clone(),
            cfg.bk,
            cfg.bn,
            cfg.threads(),
        );
        kb.sync();
        emit_warp_mma_ampere(kb, grid, warp, &ctx, a_s, b_s, acc, a_frags, b_frags, &geom);
        kb.sync();
    });
    let target = StoreTarget::Global { tensor: c, row0: c_row0, col0: bn_col0 };
    emit_epilogue_store_ampere(
        &mut kb,
        grid,
        block,
        &ctx,
        acc,
        &geom,
        &EpilogueOps::none(),
        &target,
    );
    kb.build()
}

/// The software-pipelined (double-buffered) Ampere GEMM: two
/// shared-memory stages per operand, with the next K-slice staged while
/// the current one is consumed. This is the mechanism that lets real
/// kernels overlap `cp.async` staging with tensor-core math (the
/// roofline timing model assumes such overlap; this schedule makes the
/// mechanism explicit in the IR — and doubles the shared-memory
/// footprint, which [`graphene_ir::validate::validate`] checks).
pub fn build_gemm_double_buffered(cfg: &GemmConfig, epilogue: Epilogue) -> Kernel {
    let arch = Arch::Sm86;
    cfg.validate(arch).unwrap_or_else(|e| panic!("invalid GEMM configuration: {e}"));
    let t = cfg.k / cfg.bk; // K slices
    let mut kb = KernelBuilder::new(
        "graphene_gemm_sm86_double_buffered",
        &[cfg.m / cfg.bm, cfg.n / cfg.bn],
        &[cfg.threads()],
    );
    let a = kb.param("A", &[cfg.m, cfg.k], ScalarType::F16);
    let b = kb.param("B", &[cfg.k, cfg.n], ScalarType::F16);
    let c = kb.param("C", &[cfg.m, cfg.n], ScalarType::F16);
    let bias = epilogue.has_bias().then(|| kb.param("bias", &[cfg.n], ScalarType::F16));

    let grid = kb.grid();
    let block = kb.block();
    let bids = kb.module()[grid].group_coords();
    let (bm_row0, bn_col0) = (bids[0].clone() * cfg.bm, bids[1].clone() * cfg.bn);
    let sw = if cfg.swizzle { smem_swizzle() } else { Swizzle::identity() };
    let smem_a = |kb: &mut KernelBuilder, name: &str| {
        kb.alloc_shared(
            name.to_string(),
            TensorType::row_major(&[cfg.bm, cfg.bk], ScalarType::F16).with_swizzle(sw),
        )
    };
    let smem_b = |kb: &mut KernelBuilder, name: &str| {
        kb.alloc_shared(
            name.to_string(),
            TensorType::row_major(&[cfg.bk, cfg.bn], ScalarType::F16).with_swizzle(sw),
        )
    };
    let a_s = [smem_a(&mut kb, "As0"), smem_a(&mut kb, "As1")];
    let b_s = [smem_b(&mut kb, "Bs0"), smem_b(&mut kb, "Bs1")];

    let geom = MmaGeom { bm: cfg.bm, bn: cfg.bn, wm: cfg.wm, wn: cfg.wn, k_cols: cfg.bk };
    let (mi_cnt, ni_cnt) = (cfg.wm / 16, cfg.wn / 8);
    let warp = kb.thread_tile(block, &Layout::contiguous(32)).expect("warps");
    let ctx = WarpCtx::new(&kb, block, &geom);
    let acc = kb.alloc_reg("acc", acc_root_type(mi_cnt, ni_cnt));
    let ts = kb.thread_scalar(block);
    kb.spec(SpecKind::Init { value: 0.0 }, vec![grid, ts], vec![], vec![acc]);
    let a_frags = kb.alloc_reg("afrag", a_frags_type(mi_cnt));
    let b_frags = kb.alloc_reg("bfrag", b_frags_type(ni_cnt));

    let stage = |kb: &mut KernelBuilder, buf: usize, k_slice: IntExpr| {
        stage_tile(
            kb,
            arch,
            &[grid],
            block,
            a,
            a_s[buf],
            bm_row0.clone(),
            k_slice.clone() * cfg.bk,
            cfg.bm,
            cfg.bk,
            cfg.threads(),
        );
        stage_tile(
            kb,
            arch,
            &[grid],
            block,
            b,
            b_s[buf],
            k_slice * cfg.bk,
            bn_col0.clone(),
            cfg.bk,
            cfg.bn,
            cfg.threads(),
        );
    };

    kb.comment("prologue: stage the first K slice into buffer 0");
    stage(&mut kb, 0, IntExpr::zero());

    kb.comment("pipelined main loop: stage the next slice while consuming the current");
    kb.for_loop("ks2", (t + 1) / 2, false, |kb, ks2| {
        kb.sync();
        // Stage slice 2*ks2+1 into buffer 1 (cp.async runs ahead of the
        // consuming math on real hardware).
        kb.if_lt(ks2.clone() * 2 + 1, IntExpr::constant(t), |kb| {
            stage(kb, 1, ks2.clone() * 2 + 1);
        });
        emit_warp_mma_ampere(kb, grid, warp, &ctx, a_s[0], b_s[0], acc, a_frags, b_frags, &geom);
        kb.sync();
        // Stage slice 2*ks2+2 back into buffer 0, consume buffer 1.
        kb.if_lt(ks2.clone() * 2 + 2, IntExpr::constant(t), |kb| {
            stage(kb, 0, ks2.clone() * 2 + 2);
        });
        kb.if_lt(ks2.clone() * 2 + 1, IntExpr::constant(t), |kb| {
            emit_warp_mma_ampere(
                kb, grid, warp, &ctx, a_s[1], b_s[1], acc, a_frags, b_frags, &geom,
            );
        });
        // No trailing barrier: the consume of buffer 1 is ordered against
        // the next iteration's re-stage of buffer 1 by that iteration's
        // leading sync, so two barriers per iteration suffice.
    });

    let ops = EpilogueOps {
        bias: bias.map(|bt| (bt, bn_col0.clone())),
        activation: epilogue.activation(),
        scale: None,
    };
    let target = StoreTarget::Global { tensor: c, row0: bm_row0, col0: bn_col0 };
    emit_epilogue_store_ampere(&mut kb, grid, block, &ctx, acc, &geom, &ops, &target);
    kb.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphene_ir::validate::validate;
    use graphene_sim::host::{matmul_ref, HostTensor};
    use std::collections::HashMap;

    fn run_gemm(arch: Arch, cfg: &GemmConfig, epilogue: Epilogue, tol: f32) {
        let kernel = build_gemm(arch, cfg, epilogue);
        validate(&kernel, arch).expect("kernel validates");

        let (m, n, k) = (cfg.m as usize, cfg.n as usize, cfg.k as usize);
        let a = HostTensor::random(&[m, k], 11);
        let b = HostTensor::random(&[k, n], 12);
        let bias: Vec<f32> = (0..n).map(|j| (j as f32 * 0.01) - 0.3).collect();

        let mut inputs = HashMap::new();
        inputs.insert(kernel.params[0], a.as_slice().to_vec());
        inputs.insert(kernel.params[1], b.as_slice().to_vec());
        if epilogue.has_bias() {
            inputs.insert(kernel.params[3], bias.clone());
        }
        let out = graphene_sim::execute(&kernel, arch, &inputs).expect("execute");

        let mut expect = matmul_ref(&a, &b);
        if epilogue.has_bias() {
            graphene_sim::host::bias_add_ref(&mut expect, &bias);
        }
        if matches!(epilogue, Epilogue::Relu | Epilogue::BiasRelu) {
            graphene_sim::host::relu_ref(&mut expect);
        }
        let got = HostTensor::from_vec(&[m, n], out.globals[&kernel.params[2]].clone());
        got.assert_close(&expect, tol);

        // Tensor-core FLOPs accounted.
        assert_eq!(out.counters.flops_tc, 2 * (m * n * k) as u64);
    }

    #[test]
    fn ampere_gemm_matches_reference() {
        run_gemm(Arch::Sm86, &GemmConfig::small(32, 32, 32), Epilogue::None, 1e-3);
    }

    #[test]
    fn ampere_gemm_multi_block_multi_warp() {
        // 2x2 grid, 2x2 warps per block.
        let cfg = GemmConfig {
            m: 64,
            n: 64,
            k: 32,
            bm: 32,
            bn: 32,
            bk: 16,
            wm: 16,
            wn: 16,
            swizzle: true,
        };
        run_gemm(Arch::Sm86, &cfg, Epilogue::None, 1e-3);
    }

    #[test]
    fn ampere_gemm_bias_relu() {
        run_gemm(Arch::Sm86, &GemmConfig::small(32, 32, 16), Epilogue::BiasRelu, 1e-3);
    }

    #[test]
    fn volta_gemm_matches_reference() {
        let cfg = GemmConfig {
            m: 32,
            n: 32,
            k: 16,
            bm: 32,
            bn: 32,
            bk: 8,
            wm: 32,
            wn: 32,
            swizzle: true,
        };
        run_gemm(Arch::Sm70, &cfg, Epilogue::None, 1e-3);
    }

    #[test]
    fn volta_gemm_bias_relu() {
        let cfg = GemmConfig {
            m: 32,
            n: 32,
            k: 16,
            bm: 32,
            bn: 32,
            bk: 8,
            wm: 32,
            wn: 32,
            swizzle: true,
        };
        run_gemm(Arch::Sm70, &cfg, Epilogue::BiasRelu, 1e-3);
    }

    #[test]
    fn cublas_like_config_is_valid() {
        let cfg = GemmConfig::cublas_like(5376, 5376, 2048);
        cfg.validate(Arch::Sm86).expect("cublas-like config is valid");
        assert_eq!(cfg.warps(), 4);
        assert_eq!(cfg.threads(), 128);
        assert_eq!(cfg.blocks(), 42 * 42);
    }

    #[test]
    fn validate_names_the_violated_rule() {
        let ok = GemmConfig::cublas_like(1024, 1024, 512);
        assert_eq!(ok.validate(Arch::Sm86), Ok(()));
        let partial = GemmConfig { m: 100, ..ok };
        assert!(partial.validate(Arch::Sm86).unwrap_err().contains("partial block tiles"));
        let warp = GemmConfig { wn: 48, ..ok };
        assert!(warp.validate(Arch::Sm86).unwrap_err().contains("warp tiling"));
        let mma = GemmConfig { wn: 4, ..ok };
        assert!(mma.validate(Arch::Sm86).unwrap_err().contains("mma.m16n8k16"));
        let too_many = GemmConfig { wm: 16, wn: 8, ..ok };
        assert!(too_many.validate(Arch::Sm86).unwrap_err().contains("warps per block"));
        let smem = GemmConfig { bm: 256, bn: 256, bk: 128, wm: 64, wn: 128, ..ok };
        assert!(smem.validate(Arch::Sm86).unwrap_err().contains("shared-memory budget"));
        let volta_bk = GemmConfig { bk: 6, ..ok };
        assert!(volta_bk.validate(Arch::Sm70).unwrap_err().contains("K tiling"));
    }
}

#[cfg(test)]
mod partial_tests {
    use super::*;
    use graphene_ir::validate::validate;
    use graphene_sim::host::{matmul_ref, HostTensor};
    use std::collections::HashMap;

    #[test]
    fn partial_m_gemm_predicates_correctly() {
        // m = 40 with 32-row blocks: the second block has 8 live rows.
        let cfg = GemmConfig {
            m: 40,
            n: 32,
            k: 32,
            bm: 32,
            bn: 32,
            bk: 16,
            wm: 32,
            wn: 32,
            swizzle: true,
        };
        let kernel = build_gemm_partial_m(&cfg, Epilogue::None);
        validate(&kernel, Arch::Sm86).expect("validates");
        assert_eq!(kernel.grid_size(), 2);

        let (m, n, k) = (40usize, 32, 32);
        let a = HostTensor::random(&[m, k], 71);
        let b = HostTensor::random(&[k, n], 72);
        let mut inputs = HashMap::new();
        inputs.insert(kernel.params[0], a.as_slice().to_vec());
        inputs.insert(kernel.params[1], b.as_slice().to_vec());
        let out = graphene_sim::execute(&kernel, Arch::Sm86, &inputs).expect("execute");
        let expect = matmul_ref(&a, &b);
        let got = HostTensor::from_vec(&[m, n], out.globals[&kernel.params[2]].clone());
        got.assert_close(&expect, 1e-3);
    }

    #[test]
    fn partial_m_generates_guarded_cuda() {
        let cfg = GemmConfig {
            m: 40,
            n: 32,
            k: 16,
            bm: 32,
            bn: 32,
            bk: 16,
            wm: 32,
            wn: 32,
            swizzle: true,
        };
        let kernel = build_gemm_partial_m(&cfg, Epilogue::None);
        let cuda = graphene_codegen::generate(&kernel, Arch::Sm86).expect("codegen");
        assert!(cuda.contains("< 40) {"), "predicates against the true m:\n{cuda}");
    }

    #[test]
    fn partial_m_with_exact_m_matches_dense_kernel_results() {
        let cfg = GemmConfig::small(32, 32, 16);
        let kernel_p = build_gemm_partial_m(&cfg, Epilogue::None);
        let kernel_d = build_gemm(Arch::Sm86, &cfg, Epilogue::None);
        let a = HostTensor::random(&[32, 16], 81);
        let b = HostTensor::random(&[16, 32], 82);
        let run = |kernel: &graphene_ir::Kernel| {
            let mut inputs = HashMap::new();
            inputs.insert(kernel.params[0], a.as_slice().to_vec());
            inputs.insert(kernel.params[1], b.as_slice().to_vec());
            graphene_sim::execute(kernel, Arch::Sm86, &inputs).unwrap().globals[&kernel.params[2]]
                .clone()
        };
        assert_eq!(run(&kernel_p), run(&kernel_d));
    }
}

#[cfg(test)]
mod ablation_tests {
    use super::*;
    use graphene_sim::host::{matmul_ref, HostTensor};
    use std::collections::HashMap;

    #[test]
    fn scalar_load_gemm_matches_reference() {
        let cfg = GemmConfig::small(32, 32, 32);
        let kernel = build_gemm_no_ldmatrix(&cfg, Epilogue::None);
        graphene_ir::validate::validate(&kernel, Arch::Sm86).expect("validates");
        let a = HostTensor::random(&[32, 32], 201);
        let b = HostTensor::random(&[32, 32], 202);
        let mut inputs = HashMap::new();
        inputs.insert(kernel.params[0], a.as_slice().to_vec());
        inputs.insert(kernel.params[1], b.as_slice().to_vec());
        let out = graphene_sim::execute(&kernel, Arch::Sm86, &inputs).expect("execute");
        let expect = matmul_ref(&a, &b);
        let got = HostTensor::from_vec(&[32, 32], out.globals[&kernel.params[2]].clone());
        got.assert_close(&expect, 1e-3);
    }

    #[test]
    fn scalar_loads_cost_more_smem_transactions_and_instructions() {
        // The §2 claim, mechanistically: same math, more shared-memory
        // work without ldmatrix.
        let cfg = GemmConfig::cublas_like(1024, 1024, 512);
        let with = build_gemm(Arch::Sm86, &cfg, Epilogue::None);
        let without = build_gemm_no_ldmatrix(&cfg, Epilogue::None);
        let cw = graphene_sim::analyze(&with, Arch::Sm86).unwrap();
        let co = graphene_sim::analyze(&without, Arch::Sm86).unwrap();
        assert_eq!(cw.flops_tc, co.flops_tc, "identical math");
        assert!(co.instructions > cw.instructions, "more instructions without ldmatrix");
        assert!(
            co.smem_transactions > cw.smem_transactions,
            "more smem transactions without ldmatrix: {} vs {}",
            co.smem_transactions,
            cw.smem_transactions
        );
    }
}

#[cfg(test)]
mod parametric_tests {
    use super::*;
    use graphene_sim::host::{matmul_ref, HostTensor};
    use std::collections::HashMap;

    #[test]
    fn parametric_m_kernel_gains_an_int_parameter() {
        let cfg = GemmConfig::small(64, 32, 16); // capacity 64 rows
        let kernel = build_gemm_parametric_m(&cfg, Epilogue::None);
        let cuda = graphene_codegen::generate(&kernel, Arch::Sm86).expect("codegen");
        assert!(cuda.contains("const int M)"), "symbolic M becomes a parameter:\n{cuda}");
        assert!(cuda.contains("< M) {"), "accesses predicated on M");
    }

    #[test]
    fn parametric_m_executes_for_multiple_bindings() {
        // One kernel, capacity 64 rows; run it for M = 40 and M = 64.
        let cfg = GemmConfig::small(64, 32, 16);
        let kernel = build_gemm_parametric_m(&cfg, Epilogue::None);
        let (cap, n, k) = (64usize, 32usize, 16usize);
        let a = HostTensor::random(&[cap, k], 301);
        let b = HostTensor::random(&[k, n], 302);
        for m in [40usize, 64] {
            let mut inputs = HashMap::new();
            inputs.insert(kernel.params[0], a.as_slice().to_vec());
            inputs.insert(kernel.params[1], b.as_slice().to_vec());
            let bindings: HashMap<String, i64> = [("M".to_string(), m as i64)].into();
            let out = graphene_sim::execute_bound(&kernel, Arch::Sm86, &inputs, &bindings)
                .expect("execute");
            let got = &out.globals[&kernel.params[2]];
            let a_m = HostTensor::from_vec(&[m, k], a.as_slice()[..m * k].to_vec());
            let expect = matmul_ref(&a_m, &b);
            for r in 0..m {
                for cidx in 0..n {
                    let g = got[r * n + cidx];
                    let e = expect.at(r, cidx);
                    assert!((g - e).abs() < 1e-3, "M={m} ({r},{cidx}): {g} vs {e}");
                }
            }
            // Rows beyond M stay untouched (zero).
            for r in m..cap {
                for cidx in 0..n {
                    assert_eq!(got[r * n + cidx], 0.0, "row {r} must be unwritten");
                }
            }
        }
    }

    #[test]
    fn parametric_m_analysis_with_bindings() {
        let cfg = GemmConfig::small(64, 32, 16);
        let kernel = build_gemm_parametric_m(&cfg, Epilogue::None);
        let bindings: HashMap<String, i64> = [("M".to_string(), 40i64)].into();
        let c = graphene_sim::analyze_bound(&kernel, Arch::Sm86, &bindings).expect("analyze");
        assert!(c.flops_tc > 0);
    }
}

#[cfg(test)]
mod batched_tests {
    use super::*;
    use graphene_sim::host::{matmul_ref, HostTensor};
    use std::collections::HashMap;

    #[test]
    fn batched_gemm_computes_independent_products() {
        let cfg = GemmConfig::small(32, 32, 16);
        let batch = 3i64;
        let kernel = build_batched_gemm(Arch::Sm86, &cfg, batch);
        graphene_ir::validate::validate(&kernel, Arch::Sm86).expect("validates");
        assert_eq!(kernel.grid_size(), 3);

        let (m, n, k, bsz) = (32usize, 32usize, 16usize, 3usize);
        let a = HostTensor::random(&[bsz * m, k], 401);
        let b = HostTensor::random(&[bsz * k, n], 402);
        let mut inputs = HashMap::new();
        inputs.insert(kernel.params[0], a.as_slice().to_vec());
        inputs.insert(kernel.params[1], b.as_slice().to_vec());
        let out = graphene_sim::execute(&kernel, Arch::Sm86, &inputs).expect("execute");
        let got = &out.globals[&kernel.params[2]];
        for i in 0..bsz {
            let ai =
                HostTensor::from_vec(&[m, k], a.as_slice()[i * m * k..(i + 1) * m * k].to_vec());
            let bi =
                HostTensor::from_vec(&[k, n], b.as_slice()[i * k * n..(i + 1) * k * n].to_vec());
            let expect = matmul_ref(&ai, &bi);
            let gi = HostTensor::from_vec(&[m, n], got[i * m * n..(i + 1) * m * n].to_vec());
            gi.assert_close(&expect, 1e-3);
        }
    }

    #[test]
    fn batched_gemm_single_launch_counts_whole_batch() {
        let cfg = GemmConfig::cublas_like(384, 384, 128);
        let kernel = build_batched_gemm(Arch::Sm86, &cfg, 8);
        let c = graphene_sim::analyze(&kernel, Arch::Sm86).unwrap();
        assert_eq!(c.flops_tc, 8 * 2 * 384 * 384 * 128);
    }
}

#[cfg(test)]
mod double_buffer_tests {
    use super::*;
    use graphene_sim::host::{matmul_ref, HostTensor};
    use std::collections::HashMap;

    fn run_db(m: i64, n: i64, k: i64, bk: i64) {
        let cfg = GemmConfig { m, n, k, bm: 32, bn: 32, bk, wm: 32, wn: 32, swizzle: true };
        let kernel = build_gemm_double_buffered(&cfg, Epilogue::None);
        graphene_ir::validate::validate(&kernel, Arch::Sm86).expect("validates");
        // Double the single-buffer shared footprint.
        assert_eq!(kernel.shared_bytes(), 2 * ((32 * bk + bk * 32) as u64 * 2));
        let (mu, nu, ku) = (m as usize, n as usize, k as usize);
        let a = HostTensor::random(&[mu, ku], 501);
        let b = HostTensor::random(&[ku, nu], 502);
        let mut inputs = HashMap::new();
        inputs.insert(kernel.params[0], a.as_slice().to_vec());
        inputs.insert(kernel.params[1], b.as_slice().to_vec());
        let out = graphene_sim::execute(&kernel, Arch::Sm86, &inputs).expect("execute");
        let expect = matmul_ref(&a, &b);
        let got = HostTensor::from_vec(&[mu, nu], out.globals[&kernel.params[2]].clone());
        got.assert_close(&expect, 1e-3);
    }

    #[test]
    fn double_buffered_even_slices() {
        run_db(32, 32, 64, 16); // 4 K-slices
    }

    #[test]
    fn double_buffered_odd_slices() {
        run_db(32, 32, 48, 16); // 3 K-slices: the tail guard path
    }

    #[test]
    fn double_buffered_counters_match_single_buffer() {
        // Same math and traffic; only the buffering differs. Measured
        // via execution (the static analysis over-approximates guarded
        // pipeline stages, paper §3.4 over-approximation).
        let cfg = GemmConfig {
            m: 64,
            n: 64,
            k: 64,
            bm: 32,
            bn: 32,
            bk: 16,
            wm: 32,
            wn: 32,
            swizzle: true,
        };
        let single = build_gemm(Arch::Sm86, &cfg, Epilogue::None);
        let double = build_gemm_double_buffered(&cfg, Epilogue::None);
        let run = |k: &graphene_ir::Kernel| {
            graphene_sim::execute(k, Arch::Sm86, &HashMap::new()).unwrap().counters
        };
        let (cs, cd) = (run(&single), run(&double));
        assert_eq!(cs.flops_tc, cd.flops_tc);
        assert_eq!(cs.global_read_bytes, cd.global_read_bytes);
        assert_eq!(cs.smem_read_bytes, cd.smem_read_bytes);
        assert_eq!(cs.smem_write_bytes, cd.smem_write_bytes);
    }
}
