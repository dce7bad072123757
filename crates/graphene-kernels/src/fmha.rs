//! The fused multi-head attention kernel (paper Figure 14).
//!
//! FMHA is "two back-to-back GEMMs with a softmax computation in
//! between". The fused kernel assigns one (head, query-tile) pair per
//! thread-block and never spills the `S = QKᵀ` scores to global memory:
//!
//! 1. `Q` tile and `Kᵀ` are staged to shared memory; a warp-level
//!    tensor-core GEMM leaves the full score tile **in registers**
//!    (one fragment row-block per warp — the register-resident strategy
//!    of NVIDIA's MLPerf BERT kernels the paper compares against);
//! 2. softmax runs directly on the register fragments: per-thread
//!    partial row reductions + butterfly shuffles across the four lanes
//!    sharing each fragment row;
//! 3. the probabilities are converted in-register into `mma` A-fragments
//!    and multiplied with the staged `V` tile (which reuses the `Kᵀ`
//!    shared-memory buffer), producing the output tile.
//!
//! The kernel is specialised for the paper's MLPerf BERT inference shape
//! (16 heads, batch 32, head size 64, sequence length 384) but
//! parameterised for tests. Ampere only — the paper injects its
//! "Ampere FMHA kernels" into the end-to-end networks of Figure 15.

use crate::common::{
    a_frags_type, acc_root_type, b_frags_type, frag_a_type, reg_scalar, reg_vec, stage_tile,
    stage_transposed,
};
use crate::mma::{EpilogueOps, MmaGeom, StoreTarget, WarpCtx, WarpMma};
use graphene_ir::builder::KernelBuilder;
use graphene_ir::spec::SpecKind;
use graphene_ir::tensor::{Elem, TensorId, TensorType};
use graphene_ir::threads::ThreadId;
use graphene_ir::{Arch, BinaryOp, Kernel, ReduceOp, ScalarType, UnaryOp};
use graphene_layout::{it, IntTuple, Layout, Swizzle};
use graphene_sym::IntExpr;

/// FMHA problem configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FmhaConfig {
    /// Number of (batch × head) attention instances.
    pub heads: i64,
    /// Instances side by side in one activation row: 1 for head-major
    /// `[heads·seq, d]` operands, the head count for the encoder's
    /// `[batch·seq, heads·d]` activation (heads as a view, no reshape).
    pub row_heads: i64,
    /// Sequence length.
    pub seq: i64,
    /// Head dimension.
    pub d: i64,
    /// Query rows per thread-block.
    pub bq: i64,
    /// Warp tile rows (each warp owns `wm` query rows end-to-end).
    pub wm: i64,
}

impl FmhaConfig {
    /// The paper's MLPerf BERT inference shape: 16 heads, batch 32,
    /// hidden size 64, sequence length 384 (§6).
    pub fn mlperf_bert() -> Self {
        FmhaConfig { heads: 16 * 32, row_heads: 1, seq: 384, d: 64, bq: 128, wm: 32 }
    }

    /// Checks that the fused schedule can lower this configuration on
    /// `arch`: Ampere only, whole query tiles, MMA-K aligned `seq` and
    /// `d`, whole activation rows of instances, the warp-MMA rules
    /// (whole warp tiles, 1..=8 warps), whole staging rounds for `Q`
    /// and `Kᵀ`, and the shared-memory budget of the `Q` and `Kᵀ`/`V`
    /// stages.
    ///
    /// # Errors
    ///
    /// A user-facing description of the first violated constraint.
    pub fn validate(&self, arch: Arch) -> Result<(), String> {
        if arch != Arch::Sm86 {
            return Err("the fused FMHA schedule targets Ampere (use --arch sm86)".into());
        }
        if self.seq % self.bq != 0 || self.d % 16 != 0 || self.seq % 16 != 0 {
            return Err(format!(
                "fmha requires seq % {} == 0 and d % 16 == 0 (got seq {}, d {})",
                self.bq, self.seq, self.d
            ));
        }
        if self.heads % self.row_heads != 0 {
            return Err(format!(
                "fmha requires heads % row_heads == 0 (got heads {}, row_heads {})",
                self.heads, self.row_heads
            ));
        }
        self.geom_s().validate(arch)?;
        let threads = self.threads();
        if (self.bq * self.d) % threads != 0 {
            return Err(format!("Q staging: {}x{} tile vs {threads} threads", self.bq, self.d));
        }
        if (self.seq * self.d) % (threads * 8) != 0 {
            return Err(format!(
                "transposed K staging: {}x{} vs {threads} threads x8 vectors",
                self.seq, self.d
            ));
        }
        let smem = ((self.bq + self.seq) * self.d * 2) as u64;
        let limit = arch.smem_limit_bytes();
        if smem > limit {
            return Err(format!("shared-memory budget: {smem} B exceeds {limit} B"));
        }
        Ok(())
    }

    /// Warps (= `bq / wm`) per block.
    pub fn warps(&self) -> i64 {
        self.bq / self.wm
    }

    /// Threads per block.
    pub fn threads(&self) -> i64 {
        self.warps() * 32
    }

    /// Grid blocks: one per (head, query tile).
    pub fn blocks(&self) -> i64 {
        self.heads * (self.seq / self.bq)
    }

    fn geom_s(&self) -> MmaGeom {
        MmaGeom { bm: self.bq, bn: self.seq, wm: self.wm, wn: self.seq, k_cols: self.d }
    }

    fn geom_o(&self) -> MmaGeom {
        MmaGeom { bm: self.bq, bn: self.d, wm: self.wm, wn: self.d, k_cols: self.seq }
    }
}

/// Builds the fused FMHA kernel `O = softmax(QKᵀ/√d) × V` per head.
///
/// Parameters: `Q, K, V, O : [heads/row_heads·seq, row_heads·d]` fp16
/// row-major. Instance `i` is the `[seq, d]` block at row
/// `(i / row_heads)·seq`, column `(i % row_heads)·d` — the hierarchical
/// view `((row_heads, heads/row_heads), seq, d)` of the activation, so
/// head split and merge are indexing, not copies. Ampere (SM86) only.
///
/// # Panics
///
/// If [`FmhaConfig::validate`] rejects `cfg` on `arch`.
pub fn build_fused_fmha(arch: Arch, cfg: &FmhaConfig) -> Kernel {
    cfg.validate(arch).expect("valid FMHA config");
    let geom_s = cfg.geom_s();
    let geom_o = cfg.geom_o();
    let (mi_cnt, ni_s) = (cfg.wm / 16, cfg.seq / 8);
    let kk_cnt = cfg.seq / 16; // P fragments along the kv dimension

    let shape = [cfg.heads / cfg.row_heads * cfg.seq, cfg.row_heads * cfg.d];
    let mut kb = KernelBuilder::new("graphene_fused_fmha", &[cfg.blocks()], &[cfg.threads()]);
    let q = kb.param("Q", &shape, ScalarType::F16);
    let k = kb.param("K", &shape, ScalarType::F16);
    let v = kb.param("V", &shape, ScalarType::F16);
    let o = kb.param("O", &shape, ScalarType::F16);

    let grid = kb.grid();
    let block = kb.block();
    let bid = kb.module()[grid].group_coords()[0].clone();
    let q_tiles = cfg.seq / cfg.bq;
    let head = bid.clone() / q_tiles;
    let q_tile = bid.clone() % q_tiles;
    let head_row0 = head.clone() / cfg.row_heads * cfg.seq;
    let head_col0 = head % cfg.row_heads * cfg.d;
    let q_row0 = head_row0.clone() + q_tile * cfg.bq;

    // Shared memory: the Q tile, and one buffer shared (sequentially) by
    // Kᵀ and V — the "optimized shared memory layouts" the paper credits
    // for its win over the MLPerf kernels.
    let sw = crate::common::smem_swizzle();
    let qs = kb.alloc_shared(
        "Qs",
        TensorType::row_major(&[cfg.bq, cfg.d], ScalarType::F16).with_swizzle(sw),
    );
    let kv = kb.alloc_shared(
        "KV",
        TensorType::scalar(Layout::contiguous(cfg.seq * cfg.d), ScalarType::F16).with_swizzle(sw),
    );
    let kt_view =
        kb.view_as(kv, TensorType::row_major(&[cfg.d, cfg.seq], ScalarType::F16), IntExpr::zero());
    let v_view =
        kb.view_as(kv, TensorType::row_major(&[cfg.seq, cfg.d], ScalarType::F16), IntExpr::zero());

    let warp = kb.thread_tile(block, &Layout::contiguous(32)).expect("warps");
    let ctx = WarpCtx::new(&kb, block, &geom_s);

    kb.comment("stage Q tile and K^T (transposed staging)");
    stage_tile(
        &mut kb,
        arch,
        &[grid],
        block,
        q,
        qs,
        q_row0.clone(),
        head_col0.clone(),
        cfg.bq,
        cfg.d,
        cfg.threads(),
        None,
    );
    stage_transposed(
        &mut kb,
        &[grid],
        block,
        k,
        kt_view,
        head_row0.clone(),
        head_col0.clone(),
        cfg.seq,
        cfg.d,
        cfg.threads(),
    );
    kb.sync();

    kb.comment("S = Q x K^T into register fragments (full score tile resident)");
    let acc_s = kb.alloc_reg("accS", acc_root_type(mi_cnt, ni_s));
    let ts = kb.thread_scalar(block);
    kb.spec(SpecKind::Init { value: 0.0 }, vec![grid, ts], vec![], vec![acc_s]);
    let a_frags = kb.alloc_reg("afrag", a_frags_type(mi_cnt));
    let b_frags = kb.alloc_reg("bfrag", b_frags_type(ni_s));
    let s_mma = WarpMma {
        arch,
        geom: geom_s,
        ctx,
        exec: warp,
        acc: acc_s,
        a_frags,
        b_frags,
        scalar_loads: false,
    };
    s_mma.mma(&mut kb, grid, block, qs, kt_view);
    kb.sync();

    kb.comment("softmax on the register-resident score fragments");
    let scale = 1.0 / (cfg.d as f64).sqrt();
    emit_register_softmax(&mut kb, grid, block, warp, acc_s, mi_cnt, ni_s, scale);

    kb.comment("convert P to mma A-fragments in registers");
    let p_frags = kb.alloc_reg(
        "pfrag",
        TensorType {
            layout: Layout::new(
                IntTuple::Tuple(vec![IntTuple::Int(mi_cnt), IntTuple::Int(kk_cnt)]),
                IntTuple::Tuple(vec![IntTuple::Int(kk_cnt * 8), IntTuple::Int(8)]),
            ),
            elem: Elem::Tile(Box::new(frag_a_type())),
            swizzle: Swizzle::identity(),
        },
    );
    for mi in 0..mi_cnt {
        for kk in 0..kk_cnt {
            for vv in 0..8i64 {
                // S value owned by this thread that becomes A-fragment
                // value vv of P tile (mi, kk).
                let s_off = mi * (ni_s * 4) + (2 * kk + vv / 4) * 4 + ((vv / 2) % 2) * 2 + vv % 2;
                let src = kb.view_as(acc_s, reg_scalar(ScalarType::F32), IntExpr::constant(s_off));
                let dst = kb.view_as(
                    p_frags,
                    reg_scalar(ScalarType::F16),
                    IntExpr::constant((mi * kk_cnt + kk) * 8 + vv),
                );
                let ts = kb.thread_scalar(block);
                kb.spec(SpecKind::Move, vec![grid, ts], vec![src], vec![dst]);
            }
        }
    }

    kb.comment("stage V (reusing the K^T buffer) and compute O = P x V");
    stage_tile(
        &mut kb,
        arch,
        &[grid],
        block,
        v,
        v_view,
        head_row0,
        head_col0.clone(),
        cfg.seq,
        cfg.d,
        cfg.threads(),
        None,
    );
    kb.sync();

    let ni_o = cfg.d / 8;
    let acc_o = kb.alloc_reg("accO", acc_root_type(mi_cnt, ni_o));
    let ts = kb.thread_scalar(block);
    kb.spec(SpecKind::Init { value: 0.0 }, vec![grid, ts], vec![], vec![acc_o]);
    let vb_frags = kb.alloc_reg("vbfrag", b_frags_type(ni_o));
    // The P x V MMA: P's A fragments are already in registers, so only
    // the V fragments are loaded (ldmatrix.x4.trans).
    let o_mma = WarpMma { geom: geom_o, acc: acc_o, b_frags: vb_frags, ..s_mma };
    let vs_vec8 = kb.tile_c(v_view, &[Some(1), Some(8)]).expect("V rows");
    for kf in 0..kk_cnt {
        o_mma.load_b(&mut kb, grid, block, vs_vec8, kf);
        for mi in 0..mi_cnt {
            for ni in 0..ni_o {
                let pf = kb.index(p_frags, &[IntExpr::constant(mi), IntExpr::constant(kf)]);
                let bf = kb.index(vb_frags, &[IntExpr::constant(ni)]);
                let cf = kb.index(acc_o, &[IntExpr::constant(mi), IntExpr::constant(ni)]);
                kb.spec(SpecKind::MatMul, vec![grid, warp], vec![pf, bf], vec![cf]);
            }
        }
    }

    kb.comment("store the output tile");
    let target = StoreTarget::Global { tensor: o, row0: q_row0, col0: head_col0, row_bound: None };
    o_mma.store(&mut kb, grid, block, &EpilogueOps::none(), &target);

    kb.build()
}

/// Softmax over register-resident score fragments: scale, per-row max,
/// exp, per-row sum, normalise. Each thread owns 2 values per row in
/// `ni` fragments; rows are shared with the 3 other lanes of the same
/// `lane/4` quad, combined with butterfly shuffles.
#[allow(clippy::too_many_arguments)]
fn emit_register_softmax(
    kb: &mut KernelBuilder,
    grid: ThreadId,
    block: ThreadId,
    warp: ThreadId,
    acc: TensorId,
    mi_cnt: i64,
    ni_cnt: i64,
    scale: f64,
) {
    // Scale all fragments by 1/sqrt(d) ([4]-wide per fragment).
    let scale4 = kb.alloc_reg("scale4", reg_vec(4, ScalarType::F32));
    let ts = kb.thread_scalar(block);
    kb.spec(SpecKind::Init { value: scale }, vec![grid, ts], vec![], vec![scale4]);
    for mi in 0..mi_cnt {
        for ni in 0..ni_cnt {
            let frag = kb.view_as(
                acc,
                reg_vec(4, ScalarType::F32),
                IntExpr::constant(mi * ni_cnt * 4 + ni * 4),
            );
            let ts = kb.thread_scalar(block);
            kb.spec(
                SpecKind::BinaryPointwise(BinaryOp::Mul),
                vec![grid, ts],
                vec![frag, scale4],
                vec![frag],
            );
        }
    }

    // The per-thread view of one row-slot (mi, vp): ni fragments x 2
    // adjacent values, strides (4, 1).
    let row_view = |kb: &mut KernelBuilder, mi: i64, vp: i64| {
        kb.view_as(
            acc,
            TensorType {
                layout: Layout::new(it![2, ni_cnt], it![1, 4]),
                elem: Elem::Scalar(ScalarType::F32),
                swizzle: Swizzle::identity(),
            },
            IntExpr::constant(mi * ni_cnt * 4 + vp * 2),
        )
    };

    for mi in 0..mi_cnt {
        for vp in 0..2i64 {
            let row = row_view(kb, mi, vp);
            // Per-thread partial row max, then across the 4 lanes of the
            // quad (shfl masks 1 and 2).
            let mx = kb.alloc_reg(format!("mx_{mi}_{vp}"), reg_scalar(ScalarType::F32));
            let ts = kb.thread_scalar(block);
            kb.spec(
                SpecKind::Reduction { op: ReduceOp::Max, axes: vec![0] },
                vec![grid, ts],
                vec![row],
                vec![mx],
            );
            let tmp = kb.alloc_reg(format!("mxs_{mi}_{vp}"), reg_scalar(ScalarType::F32));
            for mask in [1u32, 2] {
                kb.spec(SpecKind::Shfl { mask }, vec![grid, warp], vec![mx], vec![tmp]);
                let ts = kb.thread_scalar(block);
                kb.spec(
                    SpecKind::BinaryPointwise(BinaryOp::Max),
                    vec![grid, ts],
                    vec![mx, tmp],
                    vec![mx],
                );
            }
            // exp(x - max) per pair.
            let mx2 = kb.alloc_reg(format!("mx2_{mi}_{vp}"), reg_vec(2, ScalarType::F32));
            for i in 0..2 {
                let slot = kb.view_as(mx2, reg_scalar(ScalarType::F32), IntExpr::constant(i));
                let ts = kb.thread_scalar(block);
                kb.spec(SpecKind::Move, vec![grid, ts], vec![mx], vec![slot]);
            }
            for ni in 0..ni_cnt {
                let pair = kb.view_as(
                    acc,
                    reg_vec(2, ScalarType::F32),
                    IntExpr::constant(mi * ni_cnt * 4 + ni * 4 + vp * 2),
                );
                let ts = kb.thread_scalar(block);
                kb.spec(
                    SpecKind::BinaryPointwise(BinaryOp::Sub),
                    vec![grid, ts],
                    vec![pair, mx2],
                    vec![pair],
                );
                let ts = kb.thread_scalar(block);
                kb.spec(
                    SpecKind::UnaryPointwise(UnaryOp::Exp),
                    vec![grid, ts],
                    vec![pair],
                    vec![pair],
                );
            }
            // Row sum, quad-combined, reciprocal, normalise.
            let row = row_view(kb, mi, vp);
            let sm = kb.alloc_reg(format!("sm_{mi}_{vp}"), reg_scalar(ScalarType::F32));
            let ts = kb.thread_scalar(block);
            kb.spec(
                SpecKind::Reduction { op: ReduceOp::Sum, axes: vec![0] },
                vec![grid, ts],
                vec![row],
                vec![sm],
            );
            for mask in [1u32, 2] {
                kb.spec(SpecKind::Shfl { mask }, vec![grid, warp], vec![sm], vec![tmp]);
                let ts = kb.thread_scalar(block);
                kb.spec(
                    SpecKind::BinaryPointwise(BinaryOp::Add),
                    vec![grid, ts],
                    vec![sm, tmp],
                    vec![sm],
                );
            }
            let ts = kb.thread_scalar(block);
            kb.spec(SpecKind::UnaryPointwise(UnaryOp::Recip), vec![grid, ts], vec![sm], vec![sm]);
            let sm2 = kb.alloc_reg(format!("sm2_{mi}_{vp}"), reg_vec(2, ScalarType::F32));
            for i in 0..2 {
                let slot = kb.view_as(sm2, reg_scalar(ScalarType::F32), IntExpr::constant(i));
                let ts = kb.thread_scalar(block);
                kb.spec(SpecKind::Move, vec![grid, ts], vec![sm], vec![slot]);
            }
            for ni in 0..ni_cnt {
                let pair = kb.view_as(
                    acc,
                    reg_vec(2, ScalarType::F32),
                    IntExpr::constant(mi * ni_cnt * 4 + ni * 4 + vp * 2),
                );
                let ts = kb.thread_scalar(block);
                kb.spec(
                    SpecKind::BinaryPointwise(BinaryOp::Mul),
                    vec![grid, ts],
                    vec![pair, sm2],
                    vec![pair],
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphene_ir::validate::validate;
    use graphene_sim::host::{attention_ref, HostTensor};
    use std::collections::HashMap;

    #[test]
    fn fused_fmha_matches_reference() {
        // Head-major operands, then the encoder's `[batch·seq, heads·d]`
        // activation: two batches of two heads side by side.
        for cfg in [
            FmhaConfig { heads: 2, row_heads: 1, seq: 64, d: 32, bq: 32, wm: 32 },
            FmhaConfig { heads: 4, row_heads: 2, seq: 64, d: 32, bq: 32, wm: 32 },
        ] {
            let kernel = build_fused_fmha(Arch::Sm86, &cfg);
            validate(&kernel, Arch::Sm86).expect("validates");

            let (s, d, rh) = (cfg.seq as usize, cfg.d as usize, cfg.row_heads as usize);
            let dims = [cfg.heads as usize / rh * s, rh * d];
            let q = HostTensor::random(&dims, 51);
            let k = HostTensor::random(&dims, 52);
            let v = HostTensor::random(&dims, 53);
            let mut inputs = HashMap::new();
            inputs.insert(kernel.params[0], q.as_slice().to_vec());
            inputs.insert(kernel.params[1], k.as_slice().to_vec());
            inputs.insert(kernel.params[2], v.as_slice().to_vec());
            let out = graphene_sim::execute(&kernel, Arch::Sm86, &inputs).expect("execute");
            let o = &out.globals[&kernel.params[3]];

            // Instance `i` is the `[s, d]` block at row `(i / rh)·s`,
            // column `(i % rh)·d`.
            let slice = |t: &[f32], i: usize| {
                let (row0, col0) = (i / rh * s, i % rh * d);
                let rows = (row0..row0 + s).flat_map(|r| &t[r * rh * d + col0..][..d]);
                HostTensor::from_vec(&[s, d], rows.copied().collect())
            };
            for i in 0..cfg.heads as usize {
                let expect = attention_ref(
                    &slice(q.as_slice(), i),
                    &slice(k.as_slice(), i),
                    &slice(v.as_slice(), i),
                );
                slice(o, i).assert_close(&expect, 2e-3);
            }
        }
    }

    #[test]
    fn heads_as_a_view_cost_what_head_major_costs() {
        // The encoder's lowered attention: 4 heads side by side.
        let contiguous = FmhaConfig { heads: 4, row_heads: 1, seq: 128, d: 64, bq: 128, wm: 32 };
        let interleaved = FmhaConfig { row_heads: 4, ..contiguous };
        let counters = |cfg: &FmhaConfig| {
            graphene_sim::analyze(&build_fused_fmha(Arch::Sm86, cfg), Arch::Sm86).expect("analyzes")
        };
        assert_eq!(counters(&interleaved), counters(&contiguous));
    }

    #[test]
    fn validate_names_the_violated_constraint() {
        let ok = FmhaConfig { heads: 4, row_heads: 4, seq: 128, d: 64, bq: 128, wm: 32 };
        assert_eq!(ok.validate(Arch::Sm86), Ok(()));
        let err = |cfg: FmhaConfig| cfg.validate(Arch::Sm86).unwrap_err();
        assert!(err(FmhaConfig { row_heads: 3, ..ok }).contains("heads % row_heads"));
        assert!(err(FmhaConfig { wm: 48, ..ok }).contains("warp tiling"));
        assert!(err(FmhaConfig { d: 8, ..ok }).contains("d % 16"));
        assert!(err(FmhaConfig { seq: 256, bq: 256, wm: 16, ..ok }).contains("warps per block"));
        assert!(err(FmhaConfig { seq: 2048, ..ok }).contains("shared-memory budget"));
        assert!(ok.validate(Arch::Sm70).unwrap_err().contains("targets Ampere"));
    }

    #[test]
    fn mlperf_config_validates() {
        let cfg = FmhaConfig::mlperf_bert();
        assert_eq!(cfg.blocks(), 512 * 3);
        assert_eq!(cfg.threads(), 128);
        let kernel = build_fused_fmha(Arch::Sm86, &cfg);
        validate(&kernel, Arch::Sm86).expect("validates");
        // Q tile + one K^T/V buffer.
        assert_eq!(kernel.shared_bytes(), (128 * 64 + 384 * 64) as u64 * 2);
    }

    #[test]
    #[should_panic(expected = "targets Ampere")]
    fn volta_rejected() {
        build_fused_fmha(Arch::Sm70, &FmhaConfig::mlperf_bert());
    }
}
