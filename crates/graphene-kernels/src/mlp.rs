//! The fused multi-layer MLP kernel (paper Figure 11).
//!
//! "For specific problem sizes (N = K ≤ 128 with arbitrary M) it is
//! possible to fuse multiple MLP layers into a single kernel. In these
//! cases, all intermediate tensors fit into the GPU's shared memory
//! allowing to avoid communication via the slower global memory."
//!
//! Each thread-block owns a 128-row slice of the activations, kept in
//! shared memory across all `L` layers. Per layer, only the 128×128
//! weight tile and the bias are read from global memory; the
//! GEMM + bias + ReLU epilogue writes straight back to the *other*
//! shared activation buffer (ping-pong). The cuBLASLt baseline launches
//! one kernel per layer and round-trips the activations through global
//! memory — exactly the traffic and launch overhead this fusion
//! eliminates.

use crate::common::{smem_swizzle, stage_tile};
use crate::mma::{a_stage_type, stage_a, EpilogueOps, MmaGeom, StoreTarget, WarpMma};
use graphene_ir::builder::KernelBuilder;
use graphene_ir::tensor::TensorType;
use graphene_ir::{Arch, Kernel, ScalarType, UnaryOp};
use graphene_sym::IntExpr;

/// Fused-MLP configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MlpConfig {
    /// Batch rows (arbitrary, tiled by 128 — or by `bm` for tests).
    pub m: i64,
    /// Hidden size (`N = K ≤ 128`, the paper's fusibility condition).
    pub hidden: i64,
    /// Number of layers fused into the kernel.
    pub layers: i64,
    /// Rows per thread-block.
    pub bm: i64,
    /// Warp tile rows/cols.
    pub wm: i64,
    /// Warp tile cols.
    pub wn: i64,
}

impl MlpConfig {
    /// The paper's evaluation shape: `N = K = 128`, 128-row blocks.
    pub fn paper(m: i64, layers: i64) -> Self {
        MlpConfig { m, hidden: 128, layers, bm: 128, wm: 64, wn: 64 }
    }

    fn geom(&self) -> MmaGeom {
        MmaGeom { bm: self.bm, bn: self.hidden, wm: self.wm, wn: self.wn, k_cols: self.hidden }
    }

    /// Threads per block.
    pub fn threads(&self) -> i64 {
        self.geom().threads()
    }

    /// Grid blocks.
    pub fn blocks(&self) -> i64 {
        self.m / self.bm
    }

    /// Checks every rule [`build_fused_mlp`] relies on for `arch`: the
    /// rules of a resident-activation kernel with the ping-pong pair of
    /// activation stages (see `check_resident_tiles`).
    ///
    /// # Errors
    ///
    /// The first violated rule, naming the kernel and the field.
    pub fn validate(&self, arch: Arch) -> Result<(), String> {
        check_resident_tiles("mlp", arch, self.m, &self.geom(), 2)
    }
}

/// The rules of a kernel that keeps `act_stages` `[bm, hidden]`
/// activation tiles and one `[hidden, hidden]` weight tile in shared
/// memory (the fused MLP and LSTM): the paper's fusibility condition
/// `N = K ≤ 128`, whole row blocks, the warp-MMA rules, 8-wide
/// staging of both tiles, and the shared-memory budget. `geom` is the
/// `bm × hidden × hidden` MMA.
pub(crate) fn check_resident_tiles(
    kernel: &str,
    arch: Arch,
    m: i64,
    geom: &MmaGeom,
    act_stages: i64,
) -> Result<(), String> {
    let (bm, h, threads) = (geom.bm, geom.bn, geom.threads());
    if h > 128 || h % 16 != 0 {
        return Err(format!("{kernel} --hidden must be a multiple of 16 and at most 128, got {h}"));
    }
    if m % bm != 0 {
        return Err(format!("{kernel} --m must be a multiple of {bm}, got {m}"));
    }
    let tiles = |rule: String| format!("{kernel} --hidden {h}: {rule}");
    geom.validate(arch).map_err(tiles)?;
    for (what, rows) in [("activation", bm), ("weight", h)] {
        if (rows * h) % (threads * 8) != 0 {
            return Err(tiles(format!(
                "{what} staging: {rows}x{h} tile vs {threads} threads x8 vectors"
            )));
        }
    }
    let smem = ((act_stages * bm * h + h * h) * 2) as u64;
    let limit = arch.smem_limit_bytes();
    if smem > limit {
        return Err(tiles(format!("shared-memory budget: {smem} B exceeds {limit} B")));
    }
    Ok(())
}

/// Builds the fused `L`-layer MLP kernel:
/// `X ← relu(X × Wₗ + biasₗ)` for `ₗ = 0..L`, activations resident in
/// shared memory.
///
/// Parameters: `X:[m,h]`, `W:[L*h,h]` (layer-major), `bias:[L*h]`,
/// `Y:[m,h]`, all fp16.
pub fn build_fused_mlp(arch: Arch, cfg: &MlpConfig) -> Kernel {
    cfg.validate(arch).expect("valid MLP config");
    let geom = cfg.geom();

    let mut kb = KernelBuilder::new(
        format!("graphene_fused_mlp_{}l", cfg.layers),
        &[cfg.blocks()],
        &[cfg.threads()],
    );
    let x = kb.param("X", &[cfg.m, cfg.hidden], ScalarType::F16);
    let w = kb.param("W", &[cfg.layers * cfg.hidden, cfg.hidden], ScalarType::F16);
    let bias = kb.param("bias", &[cfg.layers * cfg.hidden], ScalarType::F16);
    let y = kb.param("Y", &[cfg.m, cfg.hidden], ScalarType::F16);

    let grid = kb.grid();
    let block = kb.block();
    let bid = kb.module()[grid].group_coords()[0].clone();
    let row0 = bid * cfg.bm;

    // Activation ping-pong buffers, laid out as A-operand stages, and the
    // weight stage (all swizzled for conflict-free access).
    let sw = smem_swizzle();
    let act_ty = a_stage_type(arch, cfg.bm, cfg.hidden, sw);
    let xs0 = kb.alloc_shared("Xs0", act_ty.clone());
    let xs1 = kb.alloc_shared("Xs1", act_ty);
    let ws = kb.alloc_shared(
        "Ws",
        TensorType::row_major(&[cfg.hidden, cfg.hidden], ScalarType::F16).with_swizzle(sw),
    );

    kb.comment("stage the block's activation rows once");
    let (h, threads) = (cfg.hidden, cfg.threads());
    stage_a(
        &mut kb,
        arch,
        grid,
        block,
        x,
        xs0,
        row0.clone(),
        IntExpr::zero(),
        cfg.bm,
        h,
        threads,
        None,
    );

    let mma = WarpMma::new(&mut kb, arch, block, geom, false);
    for l in 0..cfg.layers {
        kb.comment(format!("layer {l}: stage weights, GEMM, bias+relu to smem"));
        let w_row0 = IntExpr::constant(l * h);
        stage_tile(
            &mut kb,
            arch,
            &[grid],
            block,
            w,
            ws,
            w_row0,
            IntExpr::zero(),
            h,
            h,
            threads,
            None,
        );
        kb.sync();
        mma.zero(&mut kb, grid, block);
        let (src, dst) = if l % 2 == 0 { (xs0, xs1) } else { (xs1, xs0) };
        mma.mma(&mut kb, grid, block, src, ws);
        let ops = EpilogueOps {
            bias: Some((bias, IntExpr::constant(l * h))),
            activation: Some(UnaryOp::Relu),
            scale: None,
        };
        // The last layer stores straight to global memory.
        let target = if l + 1 == cfg.layers {
            StoreTarget::Global {
                tensor: y,
                row0: row0.clone(),
                col0: IntExpr::zero(),
                row_bound: None,
            }
        } else {
            StoreTarget::Shared { tensor: dst }
        };
        mma.store(&mut kb, grid, block, &ops, &target);
        kb.sync();
    }
    kb.build()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use graphene_ir::validate::validate;
    use graphene_sim::host::{bias_add_ref, matmul_ref, relu_ref, HostTensor};
    use std::collections::HashMap;

    fn mlp_ref(x: &HostTensor, w: &[HostTensor], bias: &[Vec<f32>]) -> HostTensor {
        let mut act = x.clone();
        for (wl, bl) in w.iter().zip(bias) {
            let mut next = matmul_ref(&act, wl);
            bias_add_ref(&mut next, bl);
            relu_ref(&mut next);
            act = next;
        }
        act
    }

    fn run(arch: Arch, cfg: &MlpConfig) {
        check_against_ref(arch, &build_fused_mlp(arch, cfg), cfg);
    }

    /// Executes a fused-MLP `kernel` built for `cfg` on random inputs
    /// and compares it with [`mlp_ref`].
    pub(crate) fn check_against_ref(arch: Arch, kernel: &Kernel, cfg: &MlpConfig) {
        validate(kernel, arch).expect("validates");
        let (m, h, l) = (cfg.m as usize, cfg.hidden as usize, cfg.layers as usize);
        let x = HostTensor::random(&[m, h], 31);
        let ws: Vec<HostTensor> =
            (0..l).map(|i| HostTensor::random(&[h, h], 100 + i as u64)).collect();
        // Keep activations in a healthy range: small weights.
        let ws: Vec<HostTensor> = ws
            .into_iter()
            .map(|w| {
                let scaled: Vec<f32> = w.as_slice().iter().map(|v| v * 0.2).collect();
                HostTensor::from_vec(&[h, h], scaled)
            })
            .collect();
        let biases: Vec<Vec<f32>> =
            (0..l).map(|i| (0..h).map(|j| ((i + j) % 5) as f32 * 0.05).collect()).collect();

        let mut w_flat = Vec::with_capacity(l * h * h);
        let mut b_flat = Vec::with_capacity(l * h);
        for i in 0..l {
            w_flat.extend_from_slice(ws[i].as_slice());
            b_flat.extend_from_slice(&biases[i]);
        }
        let mut inputs = HashMap::new();
        inputs.insert(kernel.params[0], x.as_slice().to_vec());
        inputs.insert(kernel.params[1], w_flat);
        inputs.insert(kernel.params[2], b_flat);
        let out = graphene_sim::execute(kernel, arch, &inputs).expect("execute");

        let expect = mlp_ref(&x, &ws, &biases);
        let got = HostTensor::from_vec(&[m, h], out.globals[&kernel.params[3]].clone());
        got.assert_close(&expect, 2e-3);
    }

    #[test]
    fn fused_mlp_three_layers_ampere() {
        let cfg = MlpConfig { m: 32, hidden: 32, layers: 3, bm: 32, wm: 32, wn: 32 };
        run(Arch::Sm86, &cfg);
    }

    #[test]
    fn fused_mlp_three_layers_volta() {
        let cfg = MlpConfig { m: 32, hidden: 32, layers: 3, bm: 32, wm: 32, wn: 32 };
        run(Arch::Sm70, &cfg);
    }

    #[test]
    fn fused_mlp_single_layer_matches_gemm_epilogue() {
        let cfg = MlpConfig { m: 32, hidden: 32, layers: 1, bm: 32, wm: 32, wn: 32 };
        run(Arch::Sm86, &cfg);
    }

    #[test]
    fn paper_config_shared_memory_fits() {
        let cfg = MlpConfig::paper(5120, 20);
        let kernel = build_fused_mlp(Arch::Sm86, &cfg);
        // 3 x 128x128 fp16 buffers = 96 KiB.
        assert_eq!(kernel.shared_bytes(), 3 * 128 * 128 * 2);
        validate(&kernel, Arch::Sm86).expect("paper config validates");
    }
}
