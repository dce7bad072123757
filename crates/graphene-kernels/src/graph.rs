//! A miniature ML-compiler front-end over the Graphene kernels.
//!
//! The paper positions Graphene as a *target* for deep-learning
//! compilers: "we envision Graphene to be integrated into existing deep
//! learning compilers like XLA or Triton" (§5.4), and observes that
//! "fused kernels should be preferred over cumulative library
//! invocations (which often is the default lowering in deep learning
//! compilers) if problem sizes permit" (§6).
//!
//! This module demonstrates that integration: a small tensor-op graph,
//! a *default* lowering (one library kernel per node — the baseline the
//! paper's figures compare against), and a *fusing* lowering that
//! pattern-matches the paper's kernels:
//!
//! - `MatMul (+ BiasAdd) (+ ReLU/GeLU)` → the GEMM-epilogue kernel (Fig 10),
//! - chains of square `MatMul + BiasAdd + ReLU` layers with hidden ≤ 128
//!   → the fused MLP kernel (Fig 11),
//! - `Attention` → the fused FMHA kernel (Fig 14),
//! - `Layernorm` → the fused Layernorm kernel (Fig 13).

use crate::fmha::FmhaConfig;
use crate::gemm::{build_gemm, Epilogue, GemmConfig};
use crate::layernorm::{build_layernorm, LayernormConfig};
use crate::mlp::{build_fused_mlp, MlpConfig};
use crate::reference::{
    cublas_gemm, cudnn_pointwise, pytorch_layernorm, unfused_fmha, LayernormImpl, LibraryKernel,
};
use graphene_ir::{Arch, Kernel, UnaryOp};
use graphene_sim::{analyze, machine_for, time_kernel, MachineDesc};

/// A tensor operation in the front-end graph. Activations are 2-D
/// `[rows, cols]`; parameter tensors (weights, biases) are implicit.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `Y[rows,n] = X[rows,k] × W[k,n]`.
    MatMul {
        /// Output columns.
        n: i64,
    },
    /// `Y = X + bias` (row broadcast).
    BiasAdd,
    /// `Y = act(X)`.
    Activation(UnaryOp),
    /// Row-wise layernorm.
    Layernorm,
    /// Multi-head self-attention over `[rows, hidden]` activations.
    Attention {
        /// Attention heads (hidden must divide by this).
        heads: i64,
        /// Sequence length (rows must divide by this).
        seq: i64,
    },
}

/// A linear operator graph (a chain — the shape of every workload in the
/// paper's evaluation).
#[derive(Debug, Clone)]
pub struct Graph {
    /// Input activation rows.
    pub rows: i64,
    /// Input activation columns.
    pub cols: i64,
    /// The operator chain.
    pub ops: Vec<Op>,
}

impl Graph {
    /// Creates a graph over `[rows, cols]` activations.
    pub fn new(rows: i64, cols: i64) -> Self {
        Graph { rows, cols, ops: Vec::new() }
    }

    /// Appends an op (builder style).
    pub fn op(mut self, op: Op) -> Self {
        self.ops.push(op);
        self
    }

    /// The activation width after each op (and validation).
    ///
    /// # Errors
    ///
    /// Returns a description of the first ill-formed op.
    pub fn infer_shapes(&self) -> Result<Vec<(i64, i64)>, String> {
        let mut shapes = Vec::with_capacity(self.ops.len());
        let (rows, mut cols) = (self.rows, self.cols);
        for (i, op) in self.ops.iter().enumerate() {
            match op {
                Op::MatMul { n } => {
                    if *n <= 0 {
                        return Err(format!("op {i}: MatMul with non-positive n"));
                    }
                    cols = *n;
                }
                Op::BiasAdd | Op::Activation(_) | Op::Layernorm => {}
                Op::Attention { heads, seq } => {
                    if cols % heads != 0 {
                        return Err(format!(
                            "op {i}: hidden {cols} not divisible by {heads} heads"
                        ));
                    }
                    if rows % seq != 0 {
                        return Err(format!("op {i}: rows {rows} not divisible by seq {seq}"));
                    }
                }
            }
            shapes.push((rows, cols));
        }
        Ok(shapes)
    }
}

/// One kernel of a lowered plan.
#[derive(Debug)]
pub enum Planned {
    /// A Graphene kernel (with its analysed launch grid).
    Graphene(Box<Kernel>),
    /// A modelled library kernel.
    Library(LibraryKernel),
}

impl Planned {
    /// A short description for reports.
    pub fn describe(&self) -> String {
        match self {
            Planned::Graphene(k) => format!("graphene:{}", k.name),
            Planned::Library(l) => format!("library:{}", l.name),
        }
    }

    /// Simulated execution time on a machine.
    pub fn time_s(&self, arch: Arch, machine: &MachineDesc) -> f64 {
        match self {
            Planned::Graphene(k) => {
                let c = analyze(k, arch).expect("planned kernel analyzes");
                time_kernel(&c, machine, k.grid_size()).time_s
            }
            Planned::Library(l) => l.profile(machine).time_s,
        }
    }
}

/// A lowered execution plan.
#[derive(Debug)]
pub struct Plan {
    /// Kernels in launch order.
    pub kernels: Vec<Planned>,
}

impl Plan {
    /// Total simulated time.
    pub fn time_s(&self, arch: Arch) -> f64 {
        let machine = machine_for(arch);
        self.kernels.iter().map(|k| k.time_s(arch, machine)).sum()
    }

    /// Kernel count (launches).
    pub fn launches(&self) -> usize {
        self.kernels.len()
    }
}

/// The *default* lowering: one library kernel per graph node — the
/// baseline strategy the paper's evaluation compares against.
///
/// # Panics
///
/// Panics if the graph is ill-formed (validate with
/// [`Graph::infer_shapes`] first).
pub fn lower_unfused(graph: &Graph) -> Plan {
    let shapes = graph.infer_shapes().expect("well-formed graph");
    let mut kernels = Vec::new();
    let mut cols = graph.cols;
    for (op, &(rows, out_cols)) in graph.ops.iter().zip(&shapes) {
        match op {
            Op::MatMul { n } => kernels.push(Planned::Library(cublas_gemm(rows, *n, cols))),
            Op::BiasAdd => {
                kernels.push(Planned::Library(cudnn_pointwise(rows, cols, 2, "bias_add")))
            }
            Op::Activation(a) => kernels.push(Planned::Library(cudnn_pointwise(
                rows,
                cols,
                1,
                match a {
                    UnaryOp::Relu => "relu",
                    UnaryOp::Gelu => "gelu",
                    _ => "activation",
                },
            ))),
            Op::Layernorm => {
                for k in pytorch_layernorm(rows, cols, LayernormImpl::Fused) {
                    kernels.push(Planned::Library(k));
                }
            }
            Op::Attention { heads, seq } => {
                let d = cols / heads;
                let instances = (rows / seq) * heads;
                for k in unfused_fmha(instances, *seq, d) {
                    kernels.push(Planned::Library(k));
                }
            }
        }
        cols = out_cols;
    }
    Plan { kernels }
}

/// The *fusing* lowering: pattern-matches the paper's fused kernels and
/// falls back to the library for anything unmatched.
///
/// # Panics
///
/// Panics if the graph is ill-formed.
pub fn lower_fused(graph: &Graph, arch: Arch) -> Plan {
    graph.infer_shapes().expect("well-formed graph");
    let mut kernels = Vec::new();
    let mut i = 0usize;
    let mut cols = graph.cols;
    let rows = graph.rows;
    let ops = &graph.ops;

    while i < ops.len() {
        // Pattern: N >= 2 consecutive square MLP layers, hidden <= 128,
        // on Ampere-or-Volta -> the fused multi-layer MLP kernel.
        let mlp_layers = count_mlp_layers(ops, i, cols);
        if mlp_layers >= 2 && cols <= 128 && rows % 128 == 0 && cols % 16 == 0 {
            let cfg =
                MlpConfig { m: rows, hidden: cols, layers: mlp_layers, bm: 128, wm: 64, wn: 64 };
            kernels.push(Planned::Graphene(Box::new(build_fused_mlp(arch, &cfg))));
            i += 3 * mlp_layers as usize;
            continue;
        }
        match &ops[i] {
            Op::MatMul { n } => {
                // Greedily absorb BiasAdd / activation into the epilogue.
                let mut epilogue = Epilogue::None;
                let mut consumed = 1;
                if matches!(ops.get(i + 1), Some(Op::BiasAdd)) {
                    epilogue = Epilogue::Bias;
                    consumed = 2;
                    match ops.get(i + 2) {
                        Some(Op::Activation(UnaryOp::Relu)) => {
                            epilogue = Epilogue::BiasRelu;
                            consumed = 3;
                        }
                        Some(Op::Activation(UnaryOp::Gelu)) => {
                            epilogue = Epilogue::BiasGelu;
                            consumed = 3;
                        }
                        _ => {}
                    }
                } else if matches!(ops.get(i + 1), Some(Op::Activation(UnaryOp::Relu))) {
                    epilogue = Epilogue::Relu;
                    consumed = 2;
                }
                if rows % 128 == 0 && n % 128 == 0 && cols % 32 == 0 {
                    let cfg = GemmConfig::cublas_like(rows, *n, cols);
                    kernels.push(Planned::Graphene(Box::new(build_gemm(arch, &cfg, epilogue))));
                } else {
                    // Shapes our schedule doesn't tile: library fallback.
                    kernels.push(Planned::Library(cublas_gemm(rows, *n, cols)));
                    consumed = 1;
                }
                cols = *n;
                i += consumed;
            }
            Op::BiasAdd => {
                kernels.push(Planned::Library(cudnn_pointwise(rows, cols, 2, "bias_add")));
                i += 1;
            }
            Op::Activation(_) => {
                kernels.push(Planned::Library(cudnn_pointwise(rows, cols, 1, "activation")));
                i += 1;
            }
            Op::Layernorm => {
                if cols % 256 == 0 && rows % 4 == 0 {
                    let cfg = LayernormConfig::new(rows, cols);
                    kernels.push(Planned::Graphene(Box::new(build_layernorm(arch, &cfg))));
                } else {
                    for k in pytorch_layernorm(rows, cols, LayernormImpl::Fused) {
                        kernels.push(Planned::Library(k));
                    }
                }
                i += 1;
            }
            Op::Attention { heads, seq } => {
                let d = cols / heads;
                let instances = (rows / seq) * heads;
                if arch == Arch::Sm86 && seq % 128 == 0 && d % 16 == 0 {
                    let cfg = FmhaConfig { heads: instances, seq: *seq, d, bq: 128, wm: 32 };
                    kernels.push(Planned::Graphene(Box::new(crate::fmha::build_fused_fmha(
                        arch, &cfg,
                    ))));
                } else {
                    for k in unfused_fmha(instances, *seq, d) {
                        kernels.push(Planned::Library(k));
                    }
                }
                i += 1;
            }
        }
    }
    Plan { kernels }
}

/// A BERT-style transformer encoder stack as a front-end graph:
/// `layers` repetitions of attention (with QKV and output
/// projections), layernorm, and a GeLU FFN — the paper's Figure 15
/// workload shape, sized by the caller.
///
/// Activations are `[batch*seq, hidden]`; the FFN expands to `ffn`
/// columns and projects back.
pub fn encoder_graph(
    layers: i64,
    batch: i64,
    seq: i64,
    hidden: i64,
    heads: i64,
    ffn: i64,
) -> Graph {
    let mut g = Graph::new(batch * seq, hidden);
    for _ in 0..layers {
        g = g
            .op(Op::MatMul { n: hidden }) // QKV projection (simplified to one)
            .op(Op::Attention { heads, seq })
            .op(Op::MatMul { n: hidden }) // attention output projection
            .op(Op::BiasAdd)
            .op(Op::Layernorm)
            .op(Op::MatMul { n: ffn })
            .op(Op::BiasAdd)
            .op(Op::Activation(UnaryOp::Gelu))
            .op(Op::MatMul { n: hidden })
            .op(Op::BiasAdd)
            .op(Op::Layernorm);
    }
    g
}

/// Scalars in the global tensors of [`encoder_graph`] by its front-end
/// shapes: the input, every op's output and every `MatMul` weight.
/// Computed from the dimensions, without building the graph, so no size
/// can overflow or allocate (`heads` does not change it).
pub fn encoder_global_scalars(layers: i64, batch: i64, seq: i64, hidden: i64, ffn: i64) -> u128 {
    let m = |a: u128, b: u128| a.saturating_mul(b);
    let [layers, batch, seq, h, f] = [layers, batch, seq, hidden, ffn].map(|d| d as u128);
    let rows = m(batch, seq);
    // Per layer: eight `[rows, h]` outputs (QKV, attention, output
    // projection, its bias, layernorm; FFN down-projection, its bias,
    // layernorm), three `[rows, f]` ones (FFN up-projection, its bias,
    // GeLU), two `h×h` and two `h×f` weights.
    let per_layer = [m(8, m(rows, h)), m(3, m(rows, f)), m(2, m(h, h)), m(2, m(h, f))]
        .into_iter()
        .fold(0u128, u128::saturating_add);
    m(rows, h).saturating_add(m(layers, per_layer))
}

/// Counts consecutive `MatMul(h->h) + BiasAdd + ReLU` triples starting
/// at `i` where the hidden size stays `h`.
fn count_mlp_layers(ops: &[Op], mut i: usize, h: i64) -> i64 {
    let mut layers = 0;
    loop {
        match (ops.get(i), ops.get(i + 1), ops.get(i + 2)) {
            (Some(Op::MatMul { n }), Some(Op::BiasAdd), Some(Op::Activation(UnaryOp::Relu)))
                if *n == h =>
            {
                layers += 1;
                i += 3;
            }
            _ => return layers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mlp_graph(rows: i64, h: i64, layers: i64) -> Graph {
        let mut g = Graph::new(rows, h);
        for _ in 0..layers {
            g = g.op(Op::MatMul { n: h }).op(Op::BiasAdd).op(Op::Activation(UnaryOp::Relu));
        }
        g
    }

    #[test]
    fn shape_inference_and_validation() {
        let g = Graph::new(128, 768)
            .op(Op::MatMul { n: 3072 })
            .op(Op::Activation(UnaryOp::Gelu))
            .op(Op::MatMul { n: 768 })
            .op(Op::Layernorm);
        let shapes = g.infer_shapes().unwrap();
        assert_eq!(shapes, vec![(128, 3072), (128, 3072), (128, 768), (128, 768)]);

        let bad = Graph::new(100, 768).op(Op::Attention { heads: 12, seq: 384 });
        assert!(bad.infer_shapes().unwrap_err().contains("not divisible by seq"));
    }

    #[test]
    fn infer_shapes_rejects_non_positive_matmul() {
        for n in [0, -64] {
            let g = Graph::new(128, 128).op(Op::MatMul { n });
            let err = g.infer_shapes().unwrap_err();
            assert!(err.contains("op 0: MatMul with non-positive n"), "{err}");
        }
        // The index names the offending op, not the graph start.
        let g = Graph::new(128, 128).op(Op::BiasAdd).op(Op::MatMul { n: -1 });
        assert!(g.infer_shapes().unwrap_err().starts_with("op 1:"));
    }

    #[test]
    fn infer_shapes_rejects_indivisible_heads() {
        let g = Graph::new(384, 100).op(Op::Attention { heads: 12, seq: 384 });
        let err = g.infer_shapes().unwrap_err();
        assert!(err.contains("hidden 100 not divisible by 12 heads"), "{err}");
        // Divisibility is checked against the *current* width: after a
        // projection to 96 cols, 12 heads become legal.
        let g =
            Graph::new(384, 100).op(Op::MatMul { n: 96 }).op(Op::Attention { heads: 12, seq: 384 });
        assert!(g.infer_shapes().is_ok());
    }

    #[test]
    fn encoder_graph_shapes_are_well_formed() {
        let g = encoder_graph(2, 4, 128, 256, 4, 1024);
        assert_eq!(g.ops.len(), 22);
        let shapes = g.infer_shapes().expect("encoder validates");
        assert_eq!(shapes.last(), Some(&(4 * 128, 256)));
        // FFN expansion shows up mid-layer.
        assert!(shapes.iter().any(|&(_, c)| c == 1024));
    }

    #[test]
    fn mlp_chain_lowers_to_one_fused_kernel() {
        let g = mlp_graph(4096, 128, 6);
        let fused = lower_fused(&g, Arch::Sm86);
        assert_eq!(
            fused.launches(),
            1,
            "{:?}",
            fused.kernels.iter().map(Planned::describe).collect::<Vec<_>>()
        );
        assert!(fused.kernels[0].describe().contains("fused_mlp_6l"));
        let unfused = lower_unfused(&g);
        assert_eq!(unfused.launches(), 18); // 3 kernels per layer
    }

    #[test]
    fn fused_plan_is_faster() {
        let g = mlp_graph(4096, 128, 8);
        let fused = lower_fused(&g, Arch::Sm86).time_s(Arch::Sm86);
        let unfused = lower_unfused(&g).time_s(Arch::Sm86);
        assert!(unfused > fused * 2.0, "fusion should win clearly: {unfused} vs {fused}");
    }

    #[test]
    fn gemm_epilogue_absorption() {
        let g = Graph::new(1024, 1024)
            .op(Op::MatMul { n: 1024 })
            .op(Op::BiasAdd)
            .op(Op::Activation(UnaryOp::Gelu));
        let plan = lower_fused(&g, Arch::Sm86);
        assert_eq!(plan.launches(), 1);
        assert!(plan.kernels[0].describe().contains("bias_gelu"));
    }

    #[test]
    fn attention_lowers_to_fmha_on_ampere_library_on_volta() {
        let g = Graph::new(32 * 384, 768).op(Op::Attention { heads: 12, seq: 384 });
        let amp = lower_fused(&g, Arch::Sm86);
        assert_eq!(amp.launches(), 1);
        assert!(amp.kernels[0].describe().contains("fmha"));
        let volta = lower_fused(&g, Arch::Sm70);
        assert_eq!(volta.launches(), 3, "unfused attention on Volta");
    }

    #[test]
    fn odd_shapes_fall_back_to_library() {
        let g = Graph::new(100, 100).op(Op::MatMul { n: 100 });
        let plan = lower_fused(&g, Arch::Sm86);
        assert_eq!(plan.launches(), 1);
        assert!(plan.kernels[0].describe().contains("library:cublas"));
    }

    #[test]
    fn transformer_layer_lowering() {
        // A full encoder layer: attention + projections + FFN + norms.
        let g = Graph::new(32 * 384, 768)
            .op(Op::MatMul { n: 768 }) // QKV projection (simplified to one)
            .op(Op::Attention { heads: 12, seq: 384 })
            .op(Op::MatMul { n: 768 })
            .op(Op::BiasAdd)
            .op(Op::Layernorm)
            .op(Op::MatMul { n: 3072 })
            .op(Op::BiasAdd)
            .op(Op::Activation(UnaryOp::Gelu))
            .op(Op::MatMul { n: 768 })
            .op(Op::BiasAdd)
            .op(Op::Layernorm);
        let fused = lower_fused(&g, Arch::Sm86);
        let unfused = lower_unfused(&g);
        assert!(fused.launches() < unfused.launches());
        assert!(fused.time_s(Arch::Sm86) < unfused.time_s(Arch::Sm86));
    }

    /// The closed form agrees with the built graph's own shapes, and
    /// saturates where they would overflow.
    #[test]
    fn encoder_global_scalars_match_the_graph_shapes() {
        for (layers, batch, seq, hidden, heads, ffn) in
            [(2, 1, 128, 256, 4, 1024), (3, 2, 64, 128, 2, 512)]
        {
            let g = encoder_graph(layers, batch, seq, hidden, heads, ffn);
            let (mut cols, mut want) = (g.cols, (g.rows * g.cols) as u128);
            for (op, (rows, out)) in g.ops.iter().zip(g.infer_shapes().unwrap()) {
                if let Op::MatMul { n } = op {
                    want += (cols * n) as u128;
                }
                want += (rows * out) as u128;
                cols = out;
            }
            assert_eq!(encoder_global_scalars(layers, batch, seq, hidden, ffn), want);
        }
        assert_eq!(encoder_global_scalars(i64::MAX, i64::MAX, 128, 256, 1024), u128::MAX);
    }
}
