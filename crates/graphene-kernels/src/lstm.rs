//! The fused LSTM-cell kernel (paper Figure 12).
//!
//! The paper's simplified LSTM cell computes
//! `Out = relu(X×Wx + H×Wh + bias)` — "two independent GEMMs followed by
//! an addition and two more pointwise operations", with ReLU standing in
//! for tanh so CUDA libraries can be compared. Graphene "fuses all nodes
//! into a single kernel and therefore again avoids round-trips to global
//! memory for computing intermediate results": the second GEMM
//! accumulates straight into the first GEMM's register accumulators, and
//! the bias + activation fold into the store.

use crate::common::{smem_swizzle, stage_tile};
use crate::mlp::check_resident_tiles;
use crate::mma::{a_stage_type, stage_a, EpilogueOps, MmaGeom, StoreTarget, WarpMma};
use graphene_ir::builder::KernelBuilder;
use graphene_ir::tensor::TensorType;
use graphene_ir::{Arch, Kernel, ScalarType, UnaryOp};
use graphene_sym::IntExpr;

/// LSTM-cell configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LstmConfig {
    /// Batch rows.
    pub m: i64,
    /// Hidden size (`≤ 128` keeps both weight tiles stageable).
    pub hidden: i64,
    /// Rows per thread-block.
    pub bm: i64,
    /// Warp tile rows.
    pub wm: i64,
    /// Warp tile cols.
    pub wn: i64,
}

impl LstmConfig {
    /// The evaluation shape: hidden 128, 128-row blocks.
    pub fn paper(m: i64) -> Self {
        LstmConfig { m, hidden: 128, bm: 128, wm: 64, wn: 64 }
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

    /// Checks every rule [`build_fused_lstm`] relies on for `arch`: the
    /// resident-activation rules of the fused MLP (see
    /// `check_resident_tiles`), with one activation stage shared by both
    /// GEMM passes.
    ///
    /// # Errors
    ///
    /// The first violated rule, naming the kernel and the field.
    pub fn validate(&self, arch: Arch) -> Result<(), String> {
        check_resident_tiles("lstm", arch, self.m, &self.geom(), 1)
    }
}

/// Builds the fully fused LSTM-cell kernel
/// `Out = relu(X×Wx + H×Wh + bias)`.
///
/// Parameters: `X:[m,h]`, `Wx:[h,h]`, `H:[m,h]`, `Wh:[h,h]`, `bias:[h]`,
/// `Out:[m,h]`, all fp16 with fp32 accumulation.
pub fn build_fused_lstm(arch: Arch, cfg: &LstmConfig) -> Kernel {
    cfg.validate(arch).expect("valid LSTM config");
    let geom = cfg.geom();

    let mut kb = KernelBuilder::new("graphene_fused_lstm", &[cfg.blocks()], &[cfg.threads()]);
    let x = kb.param("X", &[cfg.m, cfg.hidden], ScalarType::F16);
    let wx = kb.param("Wx", &[cfg.hidden, cfg.hidden], ScalarType::F16);
    let h = kb.param("H", &[cfg.m, cfg.hidden], ScalarType::F16);
    let wh = kb.param("Wh", &[cfg.hidden, cfg.hidden], ScalarType::F16);
    let bias = kb.param("bias", &[cfg.hidden], ScalarType::F16);
    let out = kb.param("Out", &[cfg.m, cfg.hidden], ScalarType::F16);

    let grid = kb.grid();
    let block = kb.block();
    let bid = kb.module()[grid].group_coords()[0].clone();
    let row0 = bid * cfg.bm;

    // One activation stage (laid out as an A-operand stage) and one
    // weight stage, reused for both GEMMs (swizzled).
    let sw = smem_swizzle();
    let act_s = kb.alloc_shared("Act", a_stage_type(arch, cfg.bm, cfg.hidden, sw));
    let w_s = kb.alloc_shared(
        "Wt",
        TensorType::row_major(&[cfg.hidden, cfg.hidden], ScalarType::F16).with_swizzle(sw),
    );

    let ops = EpilogueOps {
        bias: Some((bias, IntExpr::zero())),
        activation: Some(UnaryOp::Relu),
        scale: None,
    };
    let target = StoreTarget::Global {
        tensor: out,
        row0: row0.clone(),
        col0: IntExpr::zero(),
        row_bound: None,
    };

    // The two (activation, weight) GEMM passes, accumulating into the
    // same registers — the add-node of the dataflow graph is free.
    let passes = [(x, wx, "X x Wx"), (h, wh, "H x Wh")];
    let mma = WarpMma::new(&mut kb, arch, block, geom, false);
    mma.zero(&mut kb, grid, block);
    let (hid, threads) = (cfg.hidden, cfg.threads());
    for (act, wt, label) in passes {
        kb.comment(format!("GEMM pass: {label} (accumulating)"));
        stage_a(
            &mut kb,
            arch,
            grid,
            block,
            act,
            act_s,
            row0.clone(),
            IntExpr::zero(),
            cfg.bm,
            hid,
            threads,
            None,
        );
        let (w_row0, w_col0) = (IntExpr::zero(), IntExpr::zero());
        stage_tile(&mut kb, arch, &[grid], block, wt, w_s, w_row0, w_col0, hid, hid, threads, None);
        kb.sync();
        mma.mma(&mut kb, grid, block, act_s, w_s);
        kb.sync();
    }
    kb.comment("bias + relu epilogue, store");
    mma.store(&mut kb, grid, block, &ops, &target);
    kb.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphene_ir::validate::validate;
    use graphene_sim::host::{lstm_cell_ref, HostTensor};
    use std::collections::HashMap;

    fn run(arch: Arch, cfg: &LstmConfig) {
        let kernel = build_fused_lstm(arch, cfg);
        validate(&kernel, arch).expect("validates");
        let (m, h) = (cfg.m as usize, cfg.hidden as usize);
        let x = HostTensor::random(&[m, h], 41);
        let wx = HostTensor::random(&[h, h], 42);
        let hh = HostTensor::random(&[m, h], 43);
        let wh = HostTensor::random(&[h, h], 44);
        let bias: Vec<f32> = (0..h).map(|j| (j % 3) as f32 * 0.1 - 0.1).collect();

        let mut inputs = HashMap::new();
        inputs.insert(kernel.params[0], x.as_slice().to_vec());
        inputs.insert(kernel.params[1], wx.as_slice().to_vec());
        inputs.insert(kernel.params[2], hh.as_slice().to_vec());
        inputs.insert(kernel.params[3], wh.as_slice().to_vec());
        inputs.insert(kernel.params[4], bias.clone());
        let outr = graphene_sim::execute(&kernel, arch, &inputs).expect("execute");

        let expect = lstm_cell_ref(&x, &wx, &hh, &wh, &bias);
        let got = HostTensor::from_vec(&[m, h], outr.globals[&kernel.params[5]].clone());
        got.assert_close(&expect, 2e-3);
    }

    #[test]
    fn fused_lstm_matches_reference_ampere() {
        run(Arch::Sm86, &LstmConfig { m: 32, hidden: 32, bm: 32, wm: 32, wn: 32 });
    }

    #[test]
    fn fused_lstm_matches_reference_volta() {
        run(Arch::Sm70, &LstmConfig { m: 32, hidden: 32, bm: 32, wm: 32, wn: 32 });
    }

    #[test]
    fn paper_config_validates() {
        let cfg = LstmConfig::paper(4096);
        let kernel = build_fused_lstm(Arch::Sm86, &cfg);
        validate(&kernel, Arch::Sm86).expect("validates");
        assert_eq!(kernel.shared_bytes(), 2 * 128 * 128 * 2);
    }
}
