//! The warp-level MMA shared by every tensor-core schedule.
//!
//! [`WarpMma`] is the inner machinery of the optimized GEMM — the thread
//! tile, the fp32 accumulator and fragment registers, fragment loads from
//! shared memory plus tensor-core MMAs, and the epilogue/store of the
//! accumulators — for one architecture:
//! - **Ampere** (SM86): `ldmatrix`(.trans) fragment loads (or, for the §2
//!   ablation, per-thread scalar loads) and warp-wide `mma.m16n8k16`;
//! - **Volta** (SM70): per-thread vectorised fragment loads and quad-pair
//!   `mma.m8n8k4` (paper Figure 6), with the A operand staged transposed.
//!
//! The fused kernels (MLP, LSTM, FMHA; paper Figures 11/12/14) run the
//! same *block-level GEMMs between shared-memory tensors* inside a single
//! kernel. This is precisely what makes Graphene's fusions expressible:
//! the same decomposable specs compose whether their operands live in
//! global or shared memory.

use crate::common::{
    a_frags_type, acc_root_type, b_frags_type, frag_b_pair_type, guarded, reg_scalar, reg_vec,
    stage_tile, stage_transposed,
};
use graphene_ir::atomic::fragments as frag;
use graphene_ir::builder::KernelBuilder;
use graphene_ir::spec::SpecKind;
use graphene_ir::tensor::{Elem, TensorId, TensorType};
use graphene_ir::threads::ThreadId;
use graphene_ir::{Arch, BinaryOp, ScalarType, UnaryOp};
use graphene_layout::{it, Layout, Swizzle};
use graphene_sym::IntExpr;

/// Geometry of a block-level `bm × bn × k_cols` MMA over shared tiles.
#[derive(Debug, Clone, Copy)]
pub struct MmaGeom {
    /// Block tile rows (As has `bm` rows).
    pub bm: i64,
    /// Block tile columns (Bs has `bn` columns).
    pub bn: i64,
    /// Warp tile rows.
    pub wm: i64,
    /// Warp tile columns.
    pub wn: i64,
    /// K extent held in shared memory (As is `[bm, k_cols]`, Bs is
    /// `[k_cols, bn]`).
    pub k_cols: i64,
}

impl MmaGeom {
    /// Warps per block for this geometry.
    pub fn warps(&self) -> i64 {
        (self.bm / self.wm) * (self.bn / self.wn)
    }

    /// Threads per block.
    pub fn threads(&self) -> i64 {
        self.warps() * 32
    }

    /// Checks the rules of the warp-MMA emitter on `arch`, which every
    /// tensor-core config shares: whole warp tiles, a warp tile and K
    /// extent the arch's instruction tiles, and 1..=8 warps per block.
    ///
    /// # Errors
    ///
    /// The first violated rule.
    pub fn validate(&self, arch: Arch) -> Result<(), String> {
        if self.bm % self.wm != 0 || self.bn % self.wn != 0 {
            return Err(format!(
                "warp tiling: {}x{} block tile does not tile by {}x{} warp tiles",
                self.bm, self.bn, self.wm, self.wn
            ));
        }
        let (k_step, wn_step, mma) = match arch {
            Arch::Sm86 => (16, 8, "mma.m16n8k16"),
            Arch::Sm70 => (4, 16, "quad-pairs"),
        };
        if self.k_cols % k_step != 0 {
            return Err(format!(
                "K tiling ({arch}): {} not a multiple of {k_step} ({mma})",
                self.k_cols
            ));
        }
        if self.wm % 16 != 0 || self.wn % wn_step != 0 {
            return Err(format!(
                "warp tile {}x{} vs {mma} (wm%16, wn%{wn_step})",
                self.wm, self.wn
            ));
        }
        let warps = self.warps();
        if !(1..=8).contains(&warps) {
            return Err(format!("{warps} warps per block (1..=8 supported)"));
        }
        Ok(())
    }
}

/// Per-warp index expressions shared by the emitters.
#[derive(Debug, Clone)]
pub struct WarpCtx {
    /// Lane within the warp.
    pub lane: IntExpr,
    /// Warp-row id.
    pub wm_id: IntExpr,
    /// Warp-column id.
    pub wn_id: IntExpr,
}

impl WarpCtx {
    /// Computes the warp decomposition of the block's threads.
    pub fn new(kb: &KernelBuilder, block: ThreadId, geom: &MmaGeom) -> Self {
        let tid = kb.module()[block].hw_var();
        let lane = tid.clone() % 32;
        let warp_id = tid / 32;
        let wn_cnt = geom.bn / geom.wn;
        WarpCtx { lane, wm_id: warp_id.clone() / wn_cnt, wn_id: warp_id % wn_cnt }
    }
}

/// The shared-memory type of a `rows × cols` A-operand stage on `arch`:
/// row-major on Ampere (`ldmatrix` reads rows), transposed (`[cols,
/// rows]`) on Volta so a quad-pair's A fragment is one vectorised load.
pub fn a_stage_type(arch: Arch, rows: i64, cols: i64, swizzle: Swizzle) -> TensorType {
    let dims = match arch {
        Arch::Sm86 => [rows, cols],
        Arch::Sm70 => [cols, rows],
    };
    TensorType::row_major(&dims, ScalarType::F16).with_swizzle(swizzle)
}

/// Stages a `rows × cols` A-operand tile of `src` at `(row0, col0)` into
/// a stage of type [`a_stage_type`], predicating rows on `row_bound`
/// (Ampere only).
#[allow(clippy::too_many_arguments)]
pub fn stage_a(
    kb: &mut KernelBuilder,
    arch: Arch,
    grid: ThreadId,
    block: ThreadId,
    src: TensorId,
    dst: TensorId,
    row0: IntExpr,
    col0: IntExpr,
    rows: i64,
    cols: i64,
    threads: i64,
    row_bound: Option<&IntExpr>,
) {
    match arch {
        Arch::Sm86 => stage_tile(
            kb,
            arch,
            &[grid],
            block,
            src,
            dst,
            row0,
            col0,
            rows,
            cols,
            threads,
            row_bound,
        ),
        Arch::Sm70 => {
            assert!(row_bound.is_none(), "predicated rows need a row-major A stage");
            stage_transposed(kb, &[grid], block, src, dst, row0, col0, rows, cols, threads)
        }
    }
}

/// Where the epilogue writes the accumulator.
#[derive(Debug, Clone)]
pub enum StoreTarget {
    /// Into a global fp16 tensor at `(row0 + r, col0 + c)`.
    Global {
        /// The destination tensor.
        tensor: TensorId,
        /// Row offset of the block tile.
        row0: IntExpr,
        /// Column offset of the block tile.
        col0: IntExpr,
        /// Rows at or past this bound are not stored (partial row
        /// tiles, paper §3.4).
        row_bound: Option<IntExpr>,
    },
    /// Into a `[bm, bn]` fp16 shared tensor (fused kernels keep
    /// intermediate activations on-chip — the heart of Figures 11/12/14),
    /// laid out as the next pass's A-operand stage ([`a_stage_type`]).
    Shared {
        /// The destination tensor.
        tensor: TensorId,
    },
}

/// Optional pointwise epilogue applied to the accumulator before the
/// store.
#[derive(Debug, Clone)]
pub struct EpilogueOps {
    /// Row-broadcast bias (a 1-D fp16 global tensor) with a column
    /// offset: element `bias[bias_col0 + c]` is added to column `c`.
    pub bias: Option<(TensorId, IntExpr)>,
    /// Activation applied after the bias.
    pub activation: Option<UnaryOp>,
    /// Scale every element by a constant before bias/activation
    /// (attention's `1/sqrt(d)`).
    pub scale: Option<f64>,
}

impl EpilogueOps {
    /// No epilogue.
    pub fn none() -> Self {
        EpilogueOps { bias: None, activation: None, scale: None }
    }
}

/// One thread's accumulator pieces sharing a bias slice: the group's
/// label and in-block column, then per piece its label, scalar offset
/// into the accumulator and in-block row.
type StoreGroup = (String, IntExpr, Vec<(String, i64, IntExpr)>);

/// A warp-level block MMA `acc += As × Bs` on one architecture, with the
/// registers it owns.
#[derive(Debug, Clone)]
pub struct WarpMma {
    /// Target architecture.
    pub arch: Arch,
    /// Block/warp tile geometry.
    pub geom: MmaGeom,
    /// Warp decomposition of the block's threads.
    pub ctx: WarpCtx,
    /// Execution config of the tensor instructions: warps on Ampere,
    /// quad-pairs on Volta.
    pub exec: ThreadId,
    /// The fp32 accumulator fragments (`wm/16 × wn/8` on Ampere,
    /// `wm/16 × wn/16` on Volta).
    pub acc: TensorId,
    /// Reusable A-fragment registers.
    pub a_frags: TensorId,
    /// Reusable B-fragment registers.
    pub b_frags: TensorId,
    /// Ampere only: per-thread scalar `ld.shared` fragment loads instead
    /// of the collective `ldmatrix` — the "equivalent but simpler data
    /// movements" of the paper's §2, which reports GEMM slowdowns of up
    /// to 17% from this substitution.
    pub scalar_loads: bool,
}

impl WarpMma {
    /// Tiles the block into the architecture's MMA thread groups and
    /// allocates the accumulator and fragment registers.
    pub fn new(
        kb: &mut KernelBuilder,
        arch: Arch,
        block: ThreadId,
        geom: MmaGeom,
        scalar_loads: bool,
    ) -> Self {
        let ctx = WarpCtx::new(kb, block, &geom);
        let mi_cnt = geom.wm / 16;
        let (exec, acc, a_frags, b_frags) = match arch {
            Arch::Sm86 => {
                let ni_cnt = geom.wn / 8;
                let warp = kb.thread_tile(block, &Layout::contiguous(32)).expect("warp tiling");
                let acc = kb.alloc_reg("acc", acc_root_type(mi_cnt, ni_cnt));
                let a_frags = kb.alloc_reg("afrag", a_frags_type(mi_cnt));
                (warp, acc, a_frags, kb.alloc_reg("bfrag", b_frags_type(ni_cnt)))
            }
            Arch::Sm70 => {
                let ni_cnt = geom.wn / 16;
                let qp = kb
                    .thread_tile(block, &graphene_ir::atomic::quad_pair_layout())
                    .expect("quad-pair tiling");
                let acc = kb.alloc_reg("acc", volta_acc_ty(mi_cnt, ni_cnt));
                let a_frags = kb.alloc_reg("areg", reg_vec(4 * mi_cnt, ScalarType::F16));
                (qp, acc, a_frags, kb.alloc_reg("breg", reg_vec(4 * ni_cnt, ScalarType::F16)))
            }
        };
        WarpMma { arch, geom, ctx, exec, acc, a_frags, b_frags, scalar_loads }
    }

    /// Fragments per warp tile along M and N.
    fn frag_counts(&self) -> (i64, i64) {
        let n_frag = match self.arch {
            Arch::Sm86 => 8,
            Arch::Sm70 => 16,
        };
        (self.geom.wm / 16, self.geom.wn / n_frag)
    }

    /// Zeroes the accumulator.
    pub fn zero(&self, kb: &mut KernelBuilder, grid: ThreadId, block: ThreadId) {
        let ts = kb.thread_scalar(block);
        kb.spec(SpecKind::Init { value: 0.0 }, vec![grid, ts], vec![], vec![self.acc]);
    }

    /// Emits the fragment loads and tensor-core MMAs computing
    /// `acc += As × Bs` over the full `k_cols` of the shared tiles
    /// (`a_s` as staged by [`stage_a`]). Fragments are loaded once per
    /// K step and reused across the warp tile.
    pub fn mma(
        &self,
        kb: &mut KernelBuilder,
        grid: ThreadId,
        block: ThreadId,
        a_s: TensorId,
        b_s: TensorId,
    ) {
        let (mi_cnt, ni_cnt) = self.frag_counts();
        let (k_step, width) = match (self.arch, self.scalar_loads) {
            (Arch::Sm86, false) => (16, Some(8)),
            (Arch::Sm86, true) => (16, None),
            (Arch::Sm70, _) => (4, Some(4)),
        };
        let (a_src, b_src) = match width {
            Some(w) => (
                kb.tile_c(a_s, &[Some(1), Some(w)]).expect("As vectors"),
                kb.tile_c(b_s, &[Some(1), Some(w)]).expect("Bs vectors"),
            ),
            None => (a_s, b_s),
        };
        for kf in 0..self.geom.k_cols / k_step {
            self.load_a(kb, grid, block, a_src, kf);
            self.load_b(kb, grid, block, b_src, kf);
            for mi in 0..mi_cnt {
                for ni in 0..ni_cnt {
                    let (af, bf) = match self.arch {
                        Arch::Sm86 => (
                            kb.index(self.a_frags, &[IntExpr::constant(mi)]),
                            kb.index(self.b_frags, &[IntExpr::constant(ni)]),
                        ),
                        Arch::Sm70 => (
                            kb.view_as(self.a_frags, volta_a_ty(), IntExpr::constant(mi * 4)),
                            kb.view_as(self.b_frags, volta_b_ty(), IntExpr::constant(ni * 4)),
                        ),
                    };
                    let cf = kb.index(self.acc, &[IntExpr::constant(mi), IntExpr::constant(ni)]);
                    kb.spec(SpecKind::MatMul, vec![grid, self.exec], vec![af, bf], vec![cf]);
                }
            }
        }
    }

    /// Loads the A fragments of K step `kf` from `src` (the A stage, tiled
    /// into vectors unless loads are scalar).
    fn load_a(
        &self,
        kb: &mut KernelBuilder,
        grid: ThreadId,
        block: ThreadId,
        src: TensorId,
        kf: i64,
    ) {
        let (g, ctx) = (&self.geom, &self.ctx);
        let lane = &ctx.lane;
        for mi in 0..self.frag_counts().0 {
            match (self.arch, self.scalar_loads) {
                (Arch::Sm86, false) => {
                    // ldmatrix.x4: 2x2 logical groups arranged column-major
                    // over the 16x16 A tile so register pairs line up with
                    // the mma A fragment.
                    let row = ctx.wm_id.clone() * g.wm
                        + mi * 16
                        + ((lane.clone() / 8) % 2) * 8
                        + lane.clone() % 8;
                    let colgrp = IntExpr::constant(kf * 2) + lane.clone() / 16;
                    let s = kb.index(src, &[row, colgrp]);
                    let d = kb.index(self.a_frags, &[IntExpr::constant(mi)]);
                    kb.spec(SpecKind::Move, vec![grid, self.exec], vec![s], vec![d]);
                }
                (Arch::Sm86, true) => {
                    // Eight scalar loads per thread, one per fragment value,
                    // at the positions fragments::mma_16816_a prescribes.
                    for v in 0..8usize {
                        let (r0, c0) = frag::mma_16816_a(0, v);
                        let row = ctx.wm_id.clone() * g.wm
                            + mi * 16
                            + lane.clone() / 4
                            + IntExpr::constant(r0 as i64);
                        let col = IntExpr::constant(kf * 16)
                            + (lane.clone() % 4) * 2
                            + IntExpr::constant(c0 as i64);
                        let s = kb.index(src, &[row, col]);
                        let off = IntExpr::constant(mi * 8 + v as i64);
                        let d = kb.view_as(self.a_frags, reg_scalar(ScalarType::F16), off);
                        let ts = kb.thread_scalar(block);
                        kb.spec(SpecKind::Move, vec![grid, ts], vec![s], vec![d]);
                    }
                }
                (Arch::Sm70, _) => {
                    // One [4]-wide load of the transposed stage.
                    let qpm = ((lane.clone() % 16) / 4) % 2;
                    let m_base = ctx.wm_id.clone() * g.wm + mi * 16 + qpm * 8;
                    let colk = IntExpr::constant(kf * 4) + lane.clone() % 4;
                    let mcol4 = (m_base + (lane.clone() / 16) * 4) / 4;
                    let s = kb.index(src, &[colk, mcol4]);
                    let d = kb.view_as(
                        self.a_frags,
                        reg_vec(4, ScalarType::F16),
                        IntExpr::constant(mi * 4),
                    );
                    let ts = kb.thread_scalar(block);
                    kb.spec(SpecKind::Move, vec![grid, ts], vec![s], vec![d]);
                }
            }
        }
    }

    /// Loads the B fragments of K step `kf` from `src` (the B stage,
    /// tiled into vectors unless loads are scalar).
    pub fn load_b(
        &self,
        kb: &mut KernelBuilder,
        grid: ThreadId,
        block: ThreadId,
        src: TensorId,
        kf: i64,
    ) {
        let (g, ctx) = (&self.geom, &self.ctx);
        let lane = &ctx.lane;
        let ni_cnt = self.frag_counts().1;
        match (self.arch, self.scalar_loads) {
            (Arch::Sm86, false) => {
                // ldmatrix.x4.trans loads two adjacent 8-column tiles per
                // instruction (all 32 lane addresses useful); an odd
                // trailing tile falls back to ldmatrix.x2.trans.
                let mut ni = 0;
                while ni < ni_cnt {
                    let colgrp = ctx.wn_id.clone() * (g.wn / 8) + ni;
                    if ni + 1 < ni_cnt {
                        let row = IntExpr::constant(kf * 16)
                            + ((lane.clone() / 8) % 2) * 8
                            + lane.clone() % 8;
                        let s = kb.index(src, &[row, colgrp + lane.clone() / 16]);
                        let d =
                            kb.view_as(self.b_frags, frag_b_pair_type(), IntExpr::constant(ni * 4));
                        kb.spec(SpecKind::Move, vec![grid, self.exec], vec![s], vec![d]);
                        ni += 2;
                    } else {
                        let row = IntExpr::constant(kf * 16) + lane.clone() % 16;
                        let s = kb.index(src, &[row, colgrp]);
                        let d = kb.index(self.b_frags, &[IntExpr::constant(ni)]);
                        kb.spec(SpecKind::Move, vec![grid, self.exec], vec![s], vec![d]);
                        ni += 1;
                    }
                }
            }
            (Arch::Sm86, true) => {
                for ni in 0..ni_cnt {
                    for v in 0..4usize {
                        let (k0, _n0) = frag::mma_16816_b(0, v);
                        let row = IntExpr::constant(kf * 16)
                            + (lane.clone() % 4) * 2
                            + IntExpr::constant(k0 as i64);
                        let col = ctx.wn_id.clone() * g.wn + ni * 8 + lane.clone() / 4;
                        let s = kb.index(src, &[row, col]);
                        let off = IntExpr::constant(ni * 4 + v as i64);
                        let d = kb.view_as(self.b_frags, reg_scalar(ScalarType::F16), off);
                        let ts = kb.thread_scalar(block);
                        kb.spec(SpecKind::Move, vec![grid, ts], vec![s], vec![d]);
                    }
                }
            }
            (Arch::Sm70, _) => {
                let qpn = ((lane.clone() % 16) / 4) / 2;
                for ni in 0..ni_cnt {
                    let n_base = ctx.wn_id.clone() * g.wn + ni * 16 + qpn.clone() * 8;
                    let brow = IntExpr::constant(kf * 4) + lane.clone() % 4;
                    let bcol4 = (n_base + (lane.clone() / 16) * 4) / 4;
                    let s = kb.index(src, &[brow, bcol4]);
                    let d = kb.view_as(
                        self.b_frags,
                        reg_vec(4, ScalarType::F16),
                        IntExpr::constant(ni * 4),
                    );
                    let ts = kb.thread_scalar(block);
                    kb.spec(SpecKind::Move, vec![grid, ts], vec![s], vec![d]);
                }
            }
        }
    }

    /// The accumulator pieces one thread stores, in emission order:
    /// Ampere fp32 pairs (grouped per `(ni, row half)`), Volta fp32 quads
    /// (two rows per `(mi, ni)` fragment).
    fn store_groups(&self) -> Vec<StoreGroup> {
        let (g, ctx) = (&self.geom, &self.ctx);
        let lane = &ctx.lane;
        let (mi_cnt, ni_cnt) = self.frag_counts();
        let mut groups = Vec::new();
        match self.arch {
            Arch::Sm86 => {
                for ni in 0..ni_cnt {
                    for vp in 0..2i64 {
                        let col = ctx.wn_id.clone() * g.wn + ni * 8 + (lane.clone() % 4) * 2;
                        let pieces = (0..mi_cnt)
                            .map(|mi| {
                                let row =
                                    ctx.wm_id.clone() * g.wm + mi * 16 + lane.clone() / 4 + vp * 8;
                                (format!("{mi}"), mi * ni_cnt * 4 + ni * 4 + vp * 2, row)
                            })
                            .collect();
                        groups.push((format!("{ni}_{vp}"), col, pieces));
                    }
                }
            }
            Arch::Sm70 => {
                let qp_id = (lane.clone() % 16) / 4;
                let (qpm, qpn) = (qp_id.clone() % 2, qp_id / 2);
                for mi in 0..mi_cnt {
                    for ni in 0..ni_cnt {
                        let m_base = ctx.wm_id.clone() * g.wm + mi * 16 + qpm.clone() * 8;
                        let n_base = ctx.wn_id.clone() * g.wn + ni * 16 + qpn.clone() * 8;
                        let pieces = (0..2i64)
                            .map(|h| {
                                let row = m_base.clone() + (lane.clone() % 4) * 2 + h;
                                (format!("{h}"), mi * ni_cnt * 8 + ni * 8 + h * 4, row)
                            })
                            .collect();
                        groups.push((
                            format!("{mi}_{ni}"),
                            n_base + (lane.clone() / 16) * 4,
                            pieces,
                        ));
                    }
                }
            }
        }
        groups
    }

    /// Emits the epilogue + store of the accumulator: each piece is
    /// (optionally) scaled, biased and activated, then stored converted
    /// to fp16.
    pub fn store(
        &self,
        kb: &mut KernelBuilder,
        grid: ThreadId,
        block: ThreadId,
        ops: &EpilogueOps,
        target: &StoreTarget,
    ) {
        let w = match self.arch {
            Arch::Sm86 => 2,
            Arch::Sm70 => 4,
        };
        let (dst, row0, col0, row_bound) = match target {
            StoreTarget::Global { tensor, row0, col0, row_bound } => {
                (*tensor, row0.clone(), col0.clone(), row_bound.as_ref())
            }
            StoreTarget::Shared { tensor } => (*tensor, IntExpr::zero(), IntExpr::zero(), None),
        };
        // Stores are w-wide row segments, except into a Volta A-operand
        // stage, which is transposed (scalar stores).
        let transposed = self.arch == Arch::Sm70 && matches!(target, StoreTarget::Shared { .. });
        let dst_vec =
            (!transposed).then(|| kb.tile_c(dst, &[Some(1), Some(w)]).expect("dst vectors"));
        let bias_vec = ops.bias.as_ref().map(|(b, _)| kb.tile_c(*b, &[Some(w)]).expect("bias"));
        let f32s = |n| reg_vec(n, ScalarType::F32);
        for (group, col, pieces) in self.store_groups() {
            let bias_reg = ops.bias.as_ref().map(|(_, bias_col0)| {
                let r = kb.alloc_reg(format!("biasr_{group}"), f32s(w));
                let bsrc = kb.index(bias_vec.unwrap(), &[(bias_col0.clone() + col.clone()) / w]);
                let ts = kb.thread_scalar(block);
                kb.spec(SpecKind::Move, vec![grid, ts], vec![bsrc], vec![r]);
                r
            });
            for (piece, offset, row) in pieces {
                let v = kb.view_as(self.acc, f32s(w), IntExpr::constant(offset));
                let pointwise = |kb: &mut KernelBuilder, kind: SpecKind, ins: Vec<TensorId>| {
                    let ts = kb.thread_scalar(block);
                    kb.spec(kind, vec![grid, ts], ins, vec![v]);
                };
                if let Some(s) = ops.scale {
                    let sreg = kb.alloc_reg(format!("scale_{group}_{piece}"), f32s(w));
                    let ts = kb.thread_scalar(block);
                    kb.spec(SpecKind::Init { value: s }, vec![grid, ts], vec![], vec![sreg]);
                    pointwise(kb, SpecKind::BinaryPointwise(BinaryOp::Mul), vec![v, sreg]);
                }
                if let Some(br) = bias_reg {
                    pointwise(kb, SpecKind::BinaryPointwise(BinaryOp::Add), vec![v, br]);
                }
                if let Some(act) = ops.activation {
                    pointwise(kb, SpecKind::UnaryPointwise(act), vec![v]);
                }
                match dst_vec {
                    Some(dv) => {
                        let row = row0.clone() + row;
                        guarded(kb, row_bound, &row, |kb| {
                            let d = kb.index(dv, &[row.clone(), (col0.clone() + col.clone()) / w]);
                            let ts = kb.thread_scalar(block);
                            kb.spec(SpecKind::Move, vec![grid, ts], vec![v], vec![d]);
                        });
                    }
                    None => {
                        for j in 0..w {
                            let slot =
                                kb.view_as(v, reg_scalar(ScalarType::F32), IntExpr::constant(j));
                            let d = kb.index(dst, &[col.clone() + j, row.clone()]);
                            let ts = kb.thread_scalar(block);
                            kb.spec(SpecKind::Move, vec![grid, ts], vec![slot], vec![d]);
                        }
                    }
                }
            }
        }
    }
}

/// The `[4,1].fp16` A-operand view of `mma.m8n8k4` (Table 2).
fn volta_a_ty() -> TensorType {
    TensorType {
        layout: Layout::new(it![4, 1], it![1, 0]),
        elem: Elem::Scalar(ScalarType::F16),
        swizzle: Swizzle::identity(),
    }
}

/// The `[1,4].fp16` B-operand view of `mma.m8n8k4` (Table 2).
fn volta_b_ty() -> TensorType {
    TensorType {
        layout: Layout::new(it![1, 4], it![0, 1]),
        elem: Elem::Scalar(ScalarType::F16),
        swizzle: Swizzle::identity(),
    }
}

/// An accumulator root of `mi × ni` Volta C fragments, each the
/// per-thread `[2,4].fp32` C fragment of `mma.m8n8k4` (Table 2).
fn volta_acc_ty(mi: i64, ni: i64) -> TensorType {
    use graphene_layout::IntTuple;
    TensorType {
        layout: Layout::new(
            IntTuple::Tuple(vec![IntTuple::Int(mi), IntTuple::Int(ni)]),
            IntTuple::Tuple(vec![IntTuple::Int(ni * 8), IntTuple::Int(8)]),
        ),
        elem: Elem::Tile(Box::new(TensorType::row_major(&[2, 4], ScalarType::F32))),
        swizzle: Swizzle::identity(),
    }
}
