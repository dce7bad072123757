//! End-to-end Transformer inference (paper Figure 15).
//!
//! The paper injects its fused FMHA kernels "as custom operators into
//! multiple Huggingface Transformer networks" and reports end-to-end
//! inference speedup over regular PyTorch. We model a Transformer
//! encoder layer as its kernel sequence (QKV projections, attention,
//! output projection, two layernorms, the two FFN GEMMs with GeLU) on
//! the simulated machine and swap only the attention implementation:
//!
//! - baseline: batched `QKᵀ` cuBLAS GEMM + standalone softmax kernel +
//!   batched `PV` GEMM (the PyTorch lowering), or
//! - Graphene: the single fused FMHA kernel of [`crate::fmha`].
//!
//! "The speedup correlates with the fraction of FMHA occurrences per
//! network" — which this composition reproduces by construction.

use crate::fmha::FmhaConfig;
use crate::reference::{
    cublaslt_gemm_epilogue, pytorch_layernorm, unfused_fmha, LayernormImpl, LibraryKernel,
};
use graphene_ir::Arch;
use graphene_sim::{machine_for, time_sequence, Counters, KernelProfile, MachineDesc, Memo};
use std::sync::LazyLock;

/// A Transformer network configuration (HuggingFace encoder families).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransformerConfig {
    /// Display name.
    pub name: &'static str,
    /// Encoder layers.
    pub layers: i64,
    /// Hidden size.
    pub hidden: i64,
    /// Attention heads.
    pub heads: i64,
    /// FFN intermediate size.
    pub intermediate: i64,
    /// Sequence length.
    pub seq: i64,
    /// Batch size.
    pub batch: i64,
}

impl TransformerConfig {
    /// The five networks of the paper's Figure 15 (BERT-family encoders,
    /// MLPerf-style batch 32 / sequence 384 inference).
    pub fn paper_networks() -> Vec<TransformerConfig> {
        vec![
            TransformerConfig {
                name: "DistilBERT",
                layers: 6,
                hidden: 768,
                heads: 12,
                intermediate: 3072,
                seq: 384,
                batch: 32,
            },
            TransformerConfig {
                name: "BERT-base",
                layers: 12,
                hidden: 768,
                heads: 12,
                intermediate: 3072,
                seq: 384,
                batch: 32,
            },
            TransformerConfig {
                name: "RoBERTa",
                layers: 12,
                hidden: 768,
                heads: 12,
                intermediate: 3072,
                seq: 384,
                batch: 32,
            },
            TransformerConfig {
                name: "ALBERT",
                layers: 12,
                hidden: 768,
                heads: 12,
                intermediate: 3072,
                seq: 384,
                batch: 32,
            },
            TransformerConfig {
                name: "BERT-large",
                layers: 24,
                hidden: 1024,
                heads: 16,
                intermediate: 4096,
                seq: 384,
                batch: 32,
            },
        ]
    }

    /// Head dimension.
    pub fn head_dim(&self) -> i64 {
        self.hidden / self.heads
    }

    /// Total token rows.
    pub fn rows(&self) -> i64 {
        self.batch * self.seq
    }
}

/// How the attention block is implemented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttentionImpl {
    /// PyTorch lowering: batched GEMM + softmax kernel + batched GEMM.
    Unfused,
    /// Graphene's fused FMHA kernel injected as a custom operator.
    GrapheneFused,
}

/// The timing breakdown of one inference pass.
#[derive(Debug, Clone, Copy)]
pub struct InferenceTime {
    /// Total time, seconds.
    pub total_s: f64,
    /// Time spent in the attention core (FMHA or its unfused kernels).
    pub attention_s: f64,
}

impl InferenceTime {
    /// Fraction of time in the attention core.
    pub fn attention_fraction(&self) -> f64 {
        self.attention_s / self.total_s
    }
}

/// Times one full inference pass of a network.
pub fn time_inference(
    cfg: &TransformerConfig,
    attention: AttentionImpl,
    machine: &MachineDesc,
) -> InferenceTime {
    let rows = cfg.rows();
    let h = cfg.hidden;
    let d = cfg.head_dim();
    let heads = cfg.batch * cfg.heads;

    // Per-layer kernels outside the attention core.
    let mut fixed: Vec<LibraryKernel> = Vec::new();
    // QKV projections (three GEMMs rows x h x h; cuBLASLt folds bias).
    for _ in 0..3 {
        fixed.push(cublaslt_gemm_epilogue(rows, h, h, true, false));
    }
    // Attention output projection.
    fixed.push(cublaslt_gemm_epilogue(rows, h, h, true, false));
    // Two layernorms (PyTorch fused implementation).
    for _ in 0..2 {
        fixed.extend(pytorch_layernorm(rows, h, LayernormImpl::Fused));
    }
    // FFN: expand with GeLU, contract with bias.
    fixed.push(cublaslt_gemm_epilogue(rows, cfg.intermediate, h, true, true));
    fixed.push(cublaslt_gemm_epilogue(rows, h, cfg.intermediate, true, false));
    let fixed_time: f64 =
        time_sequence(&fixed.iter().map(|k| k.profile(machine)).collect::<Vec<_>>());

    // The attention core.
    let attention_time = match attention {
        AttentionImpl::Unfused => {
            let seq = unfused_fmha(heads, cfg.seq, d);
            time_sequence(&seq.iter().map(|k| k.profile(machine)).collect::<Vec<_>>())
        }
        AttentionImpl::GrapheneFused => {
            let fcfg = FmhaConfig { heads, row_heads: 1, seq: cfg.seq, d, bq: 128, wm: 32 };
            fused_fmha_profile(&fcfg, machine).time_s
        }
    };

    let per_layer = fixed_time + attention_time;
    InferenceTime {
        total_s: per_layer * cfg.layers as f64,
        attention_s: attention_time * cfg.layers as f64,
    }
}

/// Profiles the Graphene fused FMHA kernel via static analysis of the
/// real schedule, memoized per configuration (building the IR for the
/// MLPerf shape is not free; the figures use a handful of shapes).
pub fn fused_fmha_profile(cfg: &FmhaConfig, machine: &MachineDesc) -> KernelProfile {
    static PROFILES: LazyLock<Memo<FmhaConfig, Counters, 64>> = LazyLock::new(Memo::new);
    let (counters, _) = PROFILES
        .get_or_insert_with(cfg, || {
            graphene_sim::analyze(&crate::fmha::build_fused_fmha(Arch::Sm86, cfg), Arch::Sm86)
        })
        .expect("fmha analyzes");
    graphene_sim::time_kernel(&counters, machine, cfg.blocks())
}

/// One row of the Figure 15 report.
#[derive(Debug, Clone)]
pub struct NetworkSpeedup {
    /// Network name.
    pub name: &'static str,
    /// Baseline (PyTorch) inference time, ms.
    pub baseline_ms: f64,
    /// Inference time with the Graphene FMHA injected, ms.
    pub graphene_ms: f64,
    /// Speedup factor.
    pub speedup: f64,
    /// Fraction of baseline time spent in attention.
    pub fmha_fraction: f64,
}

/// Produces the Figure 15 rows for all paper networks on Ampere.
pub fn figure15_rows() -> Vec<NetworkSpeedup> {
    let machine = machine_for(Arch::Sm86);
    TransformerConfig::paper_networks()
        .into_iter()
        .map(|cfg| {
            let base = time_inference(&cfg, AttentionImpl::Unfused, machine);
            let fused = time_inference(&cfg, AttentionImpl::GrapheneFused, machine);
            NetworkSpeedup {
                name: cfg.name,
                baseline_ms: base.total_s * 1e3,
                graphene_ms: fused.total_s * 1e3,
                speedup: base.total_s / fused.total_s,
                fmha_fraction: base.attention_fraction(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fused_attention_speeds_up_inference() {
        let machine = machine_for(Arch::Sm86);
        let cfg = TransformerConfig::paper_networks()[1]; // BERT-base
        let base = time_inference(&cfg, AttentionImpl::Unfused, machine);
        let fused = time_inference(&cfg, AttentionImpl::GrapheneFused, machine);
        assert!(fused.total_s < base.total_s);
        let speedup = base.total_s / fused.total_s;
        assert!(speedup > 1.05 && speedup < 2.5, "speedup {speedup}");
    }

    #[test]
    fn speedup_correlates_with_attention_fraction() {
        let rows = figure15_rows();
        // Sort by attention fraction; speedups must be non-decreasing
        // (allowing tiny numerical jitter).
        let mut sorted = rows.clone();
        sorted.sort_by(|a, b| a.fmha_fraction.partial_cmp(&b.fmha_fraction).unwrap());
        for pair in sorted.windows(2) {
            assert!(
                pair[1].speedup >= pair[0].speedup * 0.98,
                "{} ({}) vs {} ({})",
                pair[0].name,
                pair[0].speedup,
                pair[1].name,
                pair[1].speedup
            );
        }
    }

    #[test]
    fn head_dims_are_64() {
        for cfg in TransformerConfig::paper_networks() {
            assert_eq!(cfg.head_dim(), 64, "{}", cfg.name);
        }
    }
}
