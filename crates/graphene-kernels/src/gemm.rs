//! Tensor-core GEMM schedules.
//!
//! The optimized GEMM decompositions of the paper's Hypothesis A
//! (Figure 9): a kernel-level `MatMul` spec decomposed hierarchically —
//! grid → thread-block tiles staged through (swizzled) shared memory →
//! warp tiles → the architecture's tensor instructions. The same tile
//! sizes as cuBLAS are used for the evaluation configs (128×128×32
//! thread-block tiles, paper footnote 1).
//!
//! Two architecture paths, both behind [`crate::mma::WarpMma`]:
//! - **Ampere** (SM86): `cp.async` staging, `ldmatrix`(.trans) fragment
//!   loads, `mma.m16n8k16` (warp-wide),
//! - **Volta** (SM70): register staging, per-thread shared-memory
//!   fragment loads, quad-pair `mma.m8n8k4` (paper Figure 6).
//!
//! GEMM epilogues (bias / ReLU, Figure 10) fuse into the accumulator
//! store. Every public builder is a preset of one private schedule
//! (`GemmSchedule`) that selects its batch, row bound, fragment loads
//! and stage count.

use crate::common::{smem_swizzle, stage_tile};
use crate::mma::{a_stage_type, stage_a, EpilogueOps, MmaGeom, StoreTarget, WarpMma};
use graphene_ir::builder::KernelBuilder;
use graphene_ir::tensor::TensorType;
use graphene_ir::{Arch, Kernel, ScalarType, UnaryOp};
use graphene_layout::Swizzle;
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

    /// The warp-MMA geometry of one K step.
    fn geom(&self) -> MmaGeom {
        MmaGeom { bm: self.bm, bn: self.bn, wm: self.wm, wn: self.wn, k_cols: self.bk }
    }

    /// Number of warps per block.
    pub fn warps(&self) -> i64 {
        self.geom().warps()
    }

    /// Threads per block.
    pub fn threads(&self) -> i64 {
        self.geom().threads()
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
    /// `arch` — tiling divisibility, the warp-MMA rules of
    /// [`MmaGeom::validate`], staging granularity, and the shared-memory
    /// budget. This is the *single* source of truth: the catalog, the
    /// lowerings and the tuner's candidate filter refuse what it
    /// rejects, and the builders `expect` it to pass.
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
        if self.k % self.bk != 0 {
            return Err(format!("K tiling: k={} does not tile by bk={}", self.k, self.bk));
        }
        self.geom().validate(arch)?;
        let threads = self.threads();
        // Volta stages A transposed, eight halves per thread per chunk.
        if arch == Arch::Sm70 && (self.bm * self.bk) % (threads * 8) != 0 {
            return Err(format!(
                "transposed A staging (Volta): {}x{} tile not divisible by {} threads x 8",
                self.bm, self.bk, threads
            ));
        }
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

    /// [`Self::validate`] for [`build_gemm_double_buffered`], plus its
    /// own rules: Ampere's `cp.async`, and two stages within the
    /// shared-memory budget.
    ///
    /// # Errors
    ///
    /// The first violated rule.
    pub fn validate_double_buffered(&self, arch: Arch) -> Result<(), String> {
        self.validate(arch)?;
        if arch != Arch::Sm86 {
            return Err("the double-buffered GEMM schedule targets Ampere (use --arch sm86)".into());
        }
        let (need, limit) = (2 * self.smem_bytes(), arch.smem_limit_bytes());
        if need > limit {
            return Err(format!(
                "shared-memory budget: {need} B double-buffered stages exceed {limit} B"
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
    let (sm, loop_note) = match arch {
        Arch::Sm86 => ("sm86", "main K loop: stage block tiles, then warp-level tensor core MMAs"),
        Arch::Sm70 => ("sm70", "main K loop: transposed A staging, quad-pair MMAs"),
    };
    let name = format!("graphene_gemm_{sm}_{}", epilogue.label().replace('+', "_"));
    GemmSchedule {
        notes: [Some(loop_note), Some("epilogue + accumulator store (fp32 -> fp16)")],
        ..GemmSchedule::new(name, arch, cfg, epilogue)
    }
    .build()
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
    GemmSchedule::predicated(cfg, epilogue, IntExpr::constant(cfg.m), "partial_m").build()
}

/// A GEMM *parametric* in `m` (paper §3.4: "parametric shapes lead to
/// additional kernel parameters during code generation"): `cfg.m` is the
/// *capacity* the grid is sized for; the true row count is the symbolic
/// kernel parameter `M`, supplied at launch (simulation:
/// [`graphene_sim::execute_bound`] / [`graphene_sim::analyze_bound`]).
/// The generated CUDA gains a `const int M` parameter and predicates all
/// row-dependent accesses against it.
pub fn build_gemm_parametric_m(cfg: &GemmConfig, epilogue: Epilogue) -> Kernel {
    GemmSchedule::predicated(cfg, epilogue, IntExpr::var("M"), "parametric_m").build()
}

/// The §2 ablation: the Ampere GEMM with `ldmatrix` replaced by
/// per-thread scalar shared-memory loads ("equivalent but simpler data
/// movements"). The paper reports this costs up to 17% of GEMM
/// performance; the `ldmatrix_ablation` bench measures our equivalent.
pub fn build_gemm_no_ldmatrix(cfg: &GemmConfig, epilogue: Epilogue) -> Kernel {
    GemmSchedule {
        scalar_loads: true,
        notes: [Some("ablation: scalar ld.shared fragment loads instead of ldmatrix"), None],
        ..GemmSchedule::new("graphene_gemm_sm86_no_ldmatrix".into(), Arch::Sm86, cfg, epilogue)
    }
    .build()
}

/// A strided-batched GEMM (the `cublasGemmStridedBatchedEx` shape used
/// by attention lowerings): `batch` independent `m x n x k` products,
/// with the batch index folded into the grid — one launch for the whole
/// batch.
///
/// Parameters: `A:[batch*m, k]`, `B:[batch*k, n]`, `C:[batch*m, n]`.
pub fn build_batched_gemm(arch: Arch, cfg: &GemmConfig, batch: i64) -> Kernel {
    assert!(batch >= 1, "batch must be positive");
    assert_eq!(arch, Arch::Sm86, "the batched schedule targets Ampere");
    let name = format!("graphene_batched_gemm_sm86_x{batch}");
    GemmSchedule { batch: Some(batch), ..GemmSchedule::new(name, arch, cfg, Epilogue::None) }
        .build()
}

/// The software-pipelined (double-buffered) Ampere GEMM: two
/// shared-memory stages per operand, with the next K-slice staged while
/// the current one is consumed. This is the mechanism that lets real
/// kernels overlap `cp.async` staging with tensor-core math (the
/// roofline timing model assumes such overlap; this schedule makes the
/// mechanism explicit in the IR — and doubles the shared-memory
/// footprint, which [`graphene_ir::validate::validate`] checks).
pub fn build_gemm_double_buffered(cfg: &GemmConfig, epilogue: Epilogue) -> Kernel {
    GemmSchedule {
        stages: 2,
        notes: [
            Some("pipelined main loop: stage the next slice while consuming the current"),
            None,
        ],
        ..GemmSchedule::new("graphene_gemm_sm86_double_buffered".into(), Arch::Sm86, cfg, epilogue)
    }
    .build()
}

/// The one GEMM schedule behind every builder above: grid → block tiles
/// staged through (swizzled) shared memory → a [`WarpMma`] per K slice
/// → the fused epilogue store. The builders differ only in these axes.
struct GemmSchedule {
    name: String,
    arch: Arch,
    cfg: GemmConfig,
    epilogue: Epilogue,
    /// Independent products folded into a leading grid dimension.
    batch: Option<i64>,
    /// Predicate A staging and C stores on `row < row_bound`; the grid
    /// covers `ceil(m / bm)` row blocks.
    row_bound: Option<IntExpr>,
    /// Scalar fragment loads instead of `ldmatrix` (Ampere).
    scalar_loads: bool,
    /// Shared-memory stages per operand: 1, or 2 for software pipelining.
    stages: usize,
    /// Comments emitted before the K loop and before the store.
    notes: [Option<&'static str>; 2],
}

impl GemmSchedule {
    fn new(name: String, arch: Arch, cfg: &GemmConfig, epilogue: Epilogue) -> Self {
        GemmSchedule {
            name,
            arch,
            cfg: *cfg,
            epilogue,
            batch: None,
            row_bound: None,
            scalar_loads: false,
            stages: 1,
            notes: [None, None],
        }
    }

    /// The Ampere GEMM predicated on the row bound `m_bound`.
    fn predicated(cfg: &GemmConfig, epilogue: Epilogue, m_bound: IntExpr, kind: &str) -> Self {
        GemmSchedule {
            row_bound: Some(m_bound),
            notes: [
                Some("K loop with predicated A staging (partial row tiles)"),
                Some("predicated epilogue store"),
            ],
            ..GemmSchedule::new(format!("graphene_gemm_sm86_{kind}"), Arch::Sm86, cfg, epilogue)
        }
    }

    fn build(self) -> Kernel {
        let (arch, cfg) = (self.arch, self.cfg);
        let grid_m = (cfg.m + cfg.bm - 1) / cfg.bm;
        // A predicated grid pads m up to whole row blocks; validate that shape.
        let checked =
            if self.row_bound.is_some() { GemmConfig { m: grid_m * cfg.bm, ..cfg } } else { cfg };
        let valid = match self.stages {
            2 => checked.validate_double_buffered(arch),
            _ => checked.validate(arch),
        };
        valid.unwrap_or_else(|e| panic!("invalid GEMM configuration: {e}"));
        let threads = cfg.threads();
        let grid_dims: Vec<i64> = self.batch.into_iter().chain([grid_m, cfg.n / cfg.bn]).collect();
        let mut kb = KernelBuilder::new(self.name, &grid_dims, &[threads]);
        let copies = self.batch.unwrap_or(1);
        let a = kb.param("A", &[copies * cfg.m, cfg.k], ScalarType::F16);
        let b = kb.param("B", &[copies * cfg.k, cfg.n], ScalarType::F16);
        let c = kb.param("C", &[copies * cfg.m, cfg.n], ScalarType::F16);
        let bias = self.epilogue.has_bias().then(|| kb.param("bias", &[cfg.n], ScalarType::F16));

        let grid = kb.grid();
        let block = kb.block();
        let bids = kb.module()[grid].group_coords();
        // The batch index strides whole A/C row blocks and B row slabs.
        let (row0, b_row0, bn_col0) = match self.batch {
            Some(_) => (
                bids[0].clone() * cfg.m + bids[1].clone() * cfg.bm,
                bids[0].clone() * cfg.k,
                bids[2].clone() * cfg.bn,
            ),
            None => (bids[0].clone() * cfg.bm, IntExpr::zero(), bids[1].clone() * cfg.bn),
        };

        let sw = if cfg.swizzle { smem_swizzle() } else { Swizzle::identity() };
        let stage_name = |base: &str, s: usize| match self.stages {
            1 => base.to_string(),
            _ => format!("{base}{s}"),
        };
        let a_base = if arch == Arch::Sm70 { "Ast" } else { "As" };
        let a_s: Vec<_> = (0..self.stages)
            .map(|s| kb.alloc_shared(stage_name(a_base, s), a_stage_type(arch, cfg.bm, cfg.bk, sw)))
            .collect();
        let b_ty = TensorType::row_major(&[cfg.bk, cfg.bn], ScalarType::F16).with_swizzle(sw);
        let b_s: Vec<_> =
            (0..self.stages).map(|s| kb.alloc_shared(stage_name("Bs", s), b_ty.clone())).collect();

        let mma = WarpMma::new(&mut kb, arch, block, cfg.geom(), self.scalar_loads);
        mma.zero(&mut kb, grid, block);

        let row_bound = self.row_bound.as_ref();
        let stage = |kb: &mut KernelBuilder, buf: usize, slice: IntExpr| {
            let k0 = slice * cfg.bk;
            let (a_row0, b_k0, b_col0) =
                (row0.clone(), b_row0.clone() + k0.clone(), bn_col0.clone());
            stage_a(
                kb, arch, grid, block, a, a_s[buf], a_row0, k0, cfg.bm, cfg.bk, threads, row_bound,
            );
            stage_tile(
                kb,
                arch,
                &[grid],
                block,
                b,
                b_s[buf],
                b_k0,
                b_col0,
                cfg.bk,
                cfg.bn,
                threads,
                None,
            );
        };
        let note = |kb: &mut KernelBuilder, i: usize| {
            if let Some(text) = self.notes[i] {
                kb.comment(text);
            }
        };
        let slices = cfg.k / cfg.bk;
        if self.stages == 1 {
            note(&mut kb, 0);
            kb.for_loop("ks", slices, false, |kb, ks| {
                stage(kb, 0, ks);
                kb.sync();
                mma.mma(kb, grid, block, a_s[0], b_s[0]);
                kb.sync();
            });
        } else {
            kb.comment("prologue: stage the first K slice into buffer 0");
            stage(&mut kb, 0, IntExpr::zero());
            note(&mut kb, 0);
            kb.for_loop("ks2", (slices + 1) / 2, false, |kb, ks2| {
                let t = IntExpr::constant(slices);
                kb.sync();
                // Stage slice 2*ks2+1 into buffer 1 (cp.async runs ahead of
                // the consuming math on real hardware).
                kb.if_lt(ks2.clone() * 2 + 1, t.clone(), |kb| stage(kb, 1, ks2.clone() * 2 + 1));
                mma.mma(kb, grid, block, a_s[0], b_s[0]);
                kb.sync();
                // Stage slice 2*ks2+2 back into buffer 0, consume buffer 1.
                kb.if_lt(ks2.clone() * 2 + 2, t.clone(), |kb| stage(kb, 0, ks2.clone() * 2 + 2));
                kb.if_lt(ks2.clone() * 2 + 1, t, |kb| mma.mma(kb, grid, block, a_s[1], b_s[1]));
                // No trailing barrier: the consume of buffer 1 is ordered
                // against the next iteration's re-stage of buffer 1 by that
                // iteration's leading sync, so two barriers per iteration
                // suffice.
            });
        }

        note(&mut kb, 1);
        let ops = EpilogueOps {
            // The bias is indexed by the *global* column: block offset
            // plus the in-block column computed by the store.
            bias: bias.map(|bt| (bt, bn_col0.clone())),
            activation: self.epilogue.activation(),
            scale: None,
        };
        let target = StoreTarget::Global {
            tensor: c,
            row0,
            col0: bn_col0,
            row_bound: self.row_bound.clone(),
        };
        mma.store(&mut kb, grid, block, &ops, &target);
        kb.build()
    }
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

    /// Runs both predicated entry points at a true row count of 40 and
    /// checks every output: guarded A staging must cover the whole tile
    /// whatever each thread's share of it is.
    fn check_predicated_m_at_40(bm: i64, n: i64, wm: i64, wn: i64) {
        let cfg = GemmConfig { m: 40, n, k: 16, bm, bn: n, bk: 16, wm, wn, swizzle: true };
        let (m, n, k) = (40usize, n as usize, 16usize);
        let a = HostTensor::random(&[m, k], 91);
        let b = HostTensor::random(&[k, n], 92);
        let expect = matmul_ref(&a, &b);
        let bindings: HashMap<String, i64> = [("M".to_string(), 40)].into();
        for kernel in [
            build_gemm_partial_m(&cfg, Epilogue::None),
            build_gemm_parametric_m(&cfg, Epilogue::None),
        ] {
            validate(&kernel, Arch::Sm86).expect("validates");
            let mut inputs = HashMap::new();
            inputs.insert(kernel.params[0], a.as_slice().to_vec());
            inputs.insert(kernel.params[1], b.as_slice().to_vec());
            let out = graphene_sim::execute_bound(&kernel, Arch::Sm86, &inputs, &bindings)
                .expect("execute");
            let got = HostTensor::from_vec(&[m, n], out.globals[&kernel.params[2]].clone());
            got.assert_close(&expect, 1e-3);
        }
    }

    #[test]
    fn predicated_m_stages_a_thread_share_not_a_multiple_of_8() {
        // 48x16 A tile over 64 threads: 12 halves per thread.
        check_predicated_m_at_40(48, 64, 48, 32);
    }

    #[test]
    fn predicated_m_stages_a_thread_share_below_8() {
        // 32x16 A tile over 128 threads: 4 halves per thread.
        check_predicated_m_at_40(32, 32, 16, 16);
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

    #[test]
    fn double_buffered_builder_refuses_two_stages_over_budget() {
        // One stage fits sm86's shared memory; two (131,072 B) do not.
        let cfg = GemmConfig {
            m: 256,
            n: 256,
            k: 64,
            bm: 256,
            bn: 256,
            bk: 64,
            wm: 64,
            wn: 128,
            swizzle: true,
        };
        assert_eq!(cfg.validate(Arch::Sm86), Ok(()));
        let want = cfg.validate_double_buffered(Arch::Sm86).expect_err("two stages overflow");
        assert!(want.contains("131072 B double-buffered"), "{want}");
        let panic = std::panic::catch_unwind(|| build_gemm_double_buffered(&cfg, Epilogue::None))
            .expect_err("the builder refuses the config");
        let msg = panic.downcast_ref::<String>().expect("a formatted panic message");
        assert_eq!(msg, &format!("invalid GEMM configuration: {want}"));
    }
}
