//! The named-kernel catalog: one shared front door for every surface
//! that builds a paper kernel from *stringly* options — the CLI
//! sub-commands and the serve daemon's wire requests both delegate
//! here, so a kernel built from `graphene run gemm --m 256` and one
//! built from `{"cmd":"run","kernel":"gemm","m":256}` are the same
//! kernel by construction (and therefore execute bit-identically).
//!
//! [`resolve`] parses and validates the options and computes a
//! canonical *problem key* summarizing every size option that shapes
//! the build — without building anything. Resident caches (the
//! daemon's plan/trace caches) key on it, so a warm request looks its
//! plan up from the options alone and only a miss pays for
//! [`Resolved::build`]. Grid/block dimensions are not a substitute:
//! two different GEMM problems can share a launch shape, so a cache
//! keyed only on the launch would serve the wrong trace.
//!
//! Every size option must be a positive integer, and every config
//! passes its own `validate` here before anything is built: bad options
//! come back as that check's error, never as a builder panic.

use crate::fmha::FmhaConfig;
use crate::gemm::{build_gemm, build_gemm_double_buffered, Epilogue, GemmConfig};
use crate::graph::{encoder_graph, Graph};
use crate::layernorm::{build_layernorm, LayernormConfig};
use crate::lstm::{build_fused_lstm, LstmConfig};
use crate::mlp::{build_fused_mlp, MlpConfig};
use crate::softmax::{build_softmax, SoftmaxConfig};
use graphene_ir::{Arch, Kernel};
use std::collections::HashMap;

/// A catalog-built kernel plus its canonical problem key.
#[derive(Debug)]
pub struct NamedKernel {
    /// The built kernel.
    pub kernel: Kernel,
    /// Canonical problem key: every consumed size option, in a fixed
    /// order (e.g. `m256_n256_k64_none`). Cache keys include it.
    pub problem: String,
}

/// Reads `--key` as an integer with a default.
///
/// # Errors
///
/// Non-integer values report the offending key and value.
pub fn opt_int(opts: &HashMap<String, String>, key: &str, default: i64) -> Result<i64, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{key} expects an integer, got `{v}`")),
    }
}

/// Reads `--arch`: `sm86`/`ampere` (the default) or `sm70`/`volta`.
///
/// # Errors
///
/// Unknown architecture names.
pub fn opt_arch(opts: &HashMap<String, String>) -> Result<Arch, String> {
    match opts.get("arch").map(String::as_str) {
        None | Some("sm86" | "ampere") => Ok(Arch::Sm86),
        Some("sm70" | "volta") => Ok(Arch::Sm70),
        Some(other) => Err(format!("unknown arch `{other}` (sm70|sm86)")),
    }
}

/// Reads `--key` as a size: an integer that must be positive.
///
/// # Errors
///
/// Non-integer or non-positive values, naming the option.
pub fn opt_dim(opts: &HashMap<String, String>, key: &str, default: i64) -> Result<i64, String> {
    let v = opt_int(opts, key, default)?;
    if v <= 0 {
        return Err(format!("--{key} must be a positive integer, got {v}"));
    }
    Ok(v)
}

/// Parses an `--epilogue` option value.
///
/// # Errors
///
/// Unknown epilogue names.
pub fn parse_epilogue(value: Option<&str>) -> Result<Epilogue, String> {
    match value {
        None | Some("none") => Ok(Epilogue::None),
        Some("bias") => Ok(Epilogue::Bias),
        Some("relu") => Ok(Epilogue::Relu),
        Some("bias+relu") => Ok(Epilogue::BiasRelu),
        Some("bias+gelu") => Ok(Epilogue::BiasGelu),
        Some(other) => Err(format!("unknown epilogue `{other}`")),
    }
}

/// Short label of an epilogue, for problem keys.
fn epilogue_label(e: Epilogue) -> &'static str {
    match e {
        Epilogue::None => "none",
        Epilogue::Bias => "bias",
        Epilogue::Relu => "relu",
        Epilogue::BiasRelu => "bias+relu",
        Epilogue::BiasGelu => "bias+gelu",
    }
}

/// The validated schedule configuration [`Resolved::build`] builds.
#[derive(Debug)]
enum Spec {
    Gemm(GemmConfig, Epilogue),
    GemmDb(GemmConfig, Epilogue),
    Mlp(MlpConfig),
    Lstm(LstmConfig),
    Layernorm(LayernormConfig),
    Softmax(SoftmaxConfig),
    Fmha(FmhaConfig),
}

/// A catalog request with its options parsed and validated: the
/// canonical problem key plus everything needed to build the kernel,
/// with nothing built yet.
#[derive(Debug)]
pub struct Resolved {
    /// Canonical problem key (see [`NamedKernel::problem`]).
    pub problem: String,
    arch: Arch,
    spec: Spec,
}

impl Resolved {
    /// Builds the kernel. Infallible: [`resolve`] already rejected
    /// every configuration the builder would refuse.
    pub fn build(&self) -> Kernel {
        let arch = self.arch;
        match &self.spec {
            Spec::Gemm(cfg, epilogue) => build_gemm(arch, cfg, *epilogue),
            Spec::GemmDb(cfg, epilogue) => build_gemm_double_buffered(cfg, *epilogue),
            Spec::Mlp(cfg) => build_fused_mlp(arch, cfg),
            Spec::Lstm(cfg) => build_fused_lstm(arch, cfg),
            Spec::Layernorm(cfg) => build_layernorm(arch, cfg),
            Spec::Softmax(cfg) => build_softmax(arch, cfg),
            Spec::Fmha(cfg) => crate::fmha::build_fused_fmha(arch, cfg),
        }
    }
}

/// Parses and validates the options of kernel `name` and computes its
/// canonical problem key, applying the same defaults and validity
/// checks for every caller — without building the kernel.
///
/// Recognized names: `gemm`, `gemm-db`, `mlp`, `lstm`, `layernorm`,
/// `softmax`, `fmha`.
///
/// # Errors
///
/// A user-facing message for unknown names, malformed or non-positive
/// options, or shape/arch combinations the schedule cannot lower.
pub fn resolve(name: &str, arch: Arch, opts: &HashMap<String, String>) -> Result<Resolved, String> {
    let dim = |key: &str, default: i64| opt_dim(opts, key, default);
    let (problem, spec) = match name {
        "gemm" | "gemm-db" => {
            let (m, n, k) = (dim("m", 1024)?, dim("n", 1024)?, dim("k", 1024)?);
            let epilogue = parse_epilogue(opts.get("epilogue").map(String::as_str))?;
            let cfg = GemmConfig::cublas_like(m, n, k);
            // The tiles are fixed, so only the sizes can break a rule.
            cfg.validate(arch)
                .map_err(|_| format!("gemm sizes must tile by {}x{}x{}", cfg.bm, cfg.bn, cfg.bk))?;
            let problem = format!("m{m}_n{n}_k{k}_{}", epilogue_label(epilogue));
            if name == "gemm-db" {
                cfg.validate_double_buffered(arch)?;
                (problem, Spec::GemmDb(cfg, epilogue))
            } else {
                (problem, Spec::Gemm(cfg, epilogue))
            }
        }
        "mlp" => {
            let cfg = MlpConfig::paper(dim("m", 4096)?, dim("layers", 4)?);
            let cfg = MlpConfig { hidden: dim("hidden", 128)?, ..cfg };
            cfg.validate(arch)?;
            (format!("m{}_hidden{}_layers{}", cfg.m, cfg.hidden, cfg.layers), Spec::Mlp(cfg))
        }
        "lstm" => {
            let cfg = LstmConfig::paper(dim("m", 4096)?);
            let cfg = LstmConfig { hidden: dim("hidden", 128)?, ..cfg };
            cfg.validate(arch)?;
            (format!("m{}_hidden{}", cfg.m, cfg.hidden), Spec::Lstm(cfg))
        }
        "layernorm" => {
            let (rows, hidden) = (dim("rows", 4096)?, dim("hidden", 1024)?);
            let cfg = LayernormConfig::new(rows, hidden);
            cfg.validate(arch)?;
            (format!("rows{rows}_hidden{hidden}"), Spec::Layernorm(cfg))
        }
        "softmax" => {
            let (rows, cols) = (dim("rows", 4096)?, dim("cols", 1024)?);
            let cfg = SoftmaxConfig::new(rows, cols);
            cfg.validate(arch)?;
            (format!("rows{rows}_cols{cols}"), Spec::Softmax(cfg))
        }
        "fmha" => {
            let base = FmhaConfig::mlperf_bert();
            let cfg = FmhaConfig {
                heads: dim("heads", base.heads)?,
                seq: dim("seq", base.seq)?,
                d: dim("d", base.d)?,
                ..base
            };
            cfg.validate(arch)?;
            (format!("heads{}_seq{}_d{}", cfg.heads, cfg.seq, cfg.d), Spec::Fmha(cfg))
        }
        other => {
            return Err(format!(
                "unknown kernel `{other}` (gemm|gemm-db|mlp|lstm|layernorm|softmax|fmha)"
            ))
        }
    };
    Ok(Resolved { problem, arch, spec })
}

/// Builds the kernel `name` names from string options: [`resolve`]
/// then [`Resolved::build`].
///
/// # Errors
///
/// Every error [`resolve`] reports.
pub fn build_named(
    name: &str,
    arch: Arch,
    opts: &HashMap<String, String>,
) -> Result<NamedKernel, String> {
    let resolved = resolve(name, arch, opts)?;
    Ok(NamedKernel { kernel: resolved.build(), problem: resolved.problem })
}

/// Encoder-graph dimensions (`run-graph`), parsed from string options
/// with the same defaults for every caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncoderDims {
    /// Encoder layers.
    pub layers: i64,
    /// Batch size.
    pub batch: i64,
    /// Sequence length.
    pub seq: i64,
    /// Hidden size.
    pub hidden: i64,
    /// Attention heads.
    pub heads: i64,
    /// FFN expansion width.
    pub ffn: i64,
}

impl EncoderDims {
    /// Parses `--layers/--batch/--seq/--hidden/--heads/--ffn`
    /// (defaults 2/1/128/256/4/1024).
    ///
    /// # Errors
    ///
    /// Non-integer or non-positive values, naming the option.
    pub fn from_options(opts: &HashMap<String, String>) -> Result<EncoderDims, String> {
        let dim = |key: &str, default: i64| opt_dim(opts, key, default);
        Ok(EncoderDims {
            layers: dim("layers", 2)?,
            batch: dim("batch", 1)?,
            seq: dim("seq", 128)?,
            hidden: dim("hidden", 256)?,
            heads: dim("heads", 4)?,
            ffn: dim("ffn", 1024)?,
        })
    }

    /// The front-end encoder graph of these dimensions.
    pub fn graph(&self) -> Graph {
        encoder_graph(self.layers, self.batch, self.seq, self.hidden, self.heads, self.ffn)
    }

    /// The dimensions plus the graph's op count, as a JSON object.
    pub fn to_json(&self, ops: usize) -> String {
        format!(
            "{{\"layers\":{},\"batch\":{},\"seq\":{},\"hidden\":{},\"heads\":{},\"ffn\":{},\"ops\":{ops}}}",
            self.layers, self.batch, self.seq, self.hidden, self.heads, self.ffn
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Option pairs as written in a request.
    type Pairs = &'static [(&'static str, &'static str)];

    fn opts(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
    }

    /// Valid requests, including ones that spell out a default (which
    /// must share the key of the request that omits it).
    const VALID: &[(&str, Pairs)] = &[
        ("gemm", &[("m", "256"), ("n", "256"), ("k", "64")]),
        ("gemm", &[("m", "256"), ("n", "256"), ("k", "64"), ("epilogue", "none")]),
        ("gemm", &[("m", "256"), ("n", "256"), ("k", "64"), ("epilogue", "bias+relu")]),
        ("gemm", &[("m", "1024"), ("n", "256"), ("k", "64")]),
        ("gemm", &[("m", "256"), ("n", "1024"), ("k", "64")]),
        ("gemm-db", &[("m", "256"), ("n", "256"), ("k", "64")]),
        ("mlp", &[("m", "256"), ("layers", "2")]),
        ("mlp", &[("m", "256"), ("layers", "2"), ("hidden", "128")]),
        ("mlp", &[("m", "256"), ("layers", "3"), ("hidden", "64")]),
        ("lstm", &[("m", "256")]),
        ("lstm", &[("m", "256"), ("hidden", "64")]),
        ("layernorm", &[("rows", "64"), ("hidden", "512")]),
        ("softmax", &[("rows", "64"), ("cols", "512")]),
        ("fmha", &[("heads", "2")]),
        ("fmha", &[("heads", "2"), ("seq", "384"), ("d", "64")]),
    ];

    #[test]
    fn problem_keys_distinguish_same_launch_shapes() {
        // Same grid/block for both, different problems: the key must
        // differ or a resident trace cache would serve the wrong trace.
        let a = resolve("gemm", Arch::Sm86, &opts(&[("m", "1024"), ("n", "256"), ("k", "64")]))
            .unwrap();
        let b = resolve("gemm", Arch::Sm86, &opts(&[("m", "256"), ("n", "1024"), ("k", "64")]))
            .unwrap();
        assert_eq!(a.build().grid_size(), b.build().grid_size());
        assert_ne!(a.problem, b.problem);
    }

    #[test]
    fn epilogue_is_part_of_the_problem_key() {
        let o = opts(&[("m", "256"), ("n", "256"), ("k", "64")]);
        let mut oe = o.clone();
        oe.insert("epilogue".into(), "bias+relu".into());
        let plain = resolve("gemm", Arch::Sm86, &o).unwrap();
        let fused = resolve("gemm", Arch::Sm86, &oe).unwrap();
        assert_ne!(plain.problem, fused.problem);
    }

    #[test]
    fn errors_match_the_cli_contract() {
        // Exact strings: resolving before building must not change a
        // single character of what either surface prints.
        let cases: &[(&str, Arch, Pairs, &str)] = &[
            (
                "frobnicate",
                Arch::Sm86,
                &[],
                "unknown kernel `frobnicate` (gemm|gemm-db|mlp|lstm|layernorm|softmax|fmha)",
            ),
            ("gemm", Arch::Sm86, &[("m", "100")], "gemm sizes must tile by 128x128x32"),
            ("fmha", Arch::Sm70, &[], "the fused FMHA schedule targets Ampere (use --arch sm86)"),
            (
                "gemm-db",
                Arch::Sm70,
                &[("m", "256"), ("n", "256"), ("k", "64")],
                "the double-buffered GEMM schedule targets Ampere (use --arch sm86)",
            ),
            (
                "layernorm",
                Arch::Sm86,
                &[("hidden", "100")],
                "layernorm --hidden must be a multiple of 256, got 100",
            ),
            (
                "softmax",
                Arch::Sm86,
                &[("rows", "6")],
                "softmax --rows must be a multiple of 4, got 6",
            ),
            (
                "fmha",
                Arch::Sm86,
                &[("d", "8")],
                "fmha requires seq % 128 == 0 and d % 16 == 0 (got seq 384, d 8)",
            ),
            ("gemm", Arch::Sm86, &[("m", "abc")], "--m expects an integer, got `abc`"),
            ("gemm", Arch::Sm86, &[("epilogue", "tanh")], "unknown epilogue `tanh`"),
        ];
        for (name, arch, o, want) in cases {
            let o = opts(o);
            let err = resolve(name, *arch, &o).unwrap_err();
            assert_eq!(&err, want);
            assert_eq!(build_named(name, *arch, &o).unwrap_err(), err);
        }
    }

    #[test]
    fn non_positive_and_unbuildable_sizes_are_errors_naming_the_option() {
        let cases: &[(&str, Pairs, &str)] = &[
            ("gemm", &[("m", "0")], "--m must be a positive integer, got 0"),
            ("gemm", &[("m", "-128")], "--m must be a positive integer, got -128"),
            ("gemm-db", &[("k", "0")], "--k must be a positive integer, got 0"),
            ("mlp", &[("layers", "0")], "--layers must be a positive integer, got 0"),
            (
                "mlp",
                &[("hidden", "32")],
                "mlp --hidden 32: warp tiling: 128x32 block tile does not tile by 64x64 warp tiles",
            ),
            ("mlp", &[("m", "100")], "mlp --m must be a multiple of 128, got 100"),
            ("lstm", &[("hidden", "0")], "--hidden must be a positive integer, got 0"),
            (
                "lstm",
                &[("hidden", "256")],
                "lstm --hidden must be a multiple of 16 and at most 128, got 256",
            ),
            ("layernorm", &[("rows", "0")], "--rows must be a positive integer, got 0"),
            ("softmax", &[("cols", "-256")], "--cols must be a positive integer, got -256"),
            ("fmha", &[("heads", "0")], "--heads must be a positive integer, got 0"),
        ];
        for (name, o, want) in cases {
            assert_eq!(&resolve(name, Arch::Sm86, &opts(o)).unwrap_err(), want, "{name} {o:?}");
        }
    }

    #[test]
    fn fmha_over_the_shared_memory_budget_is_refused() {
        // The Q tile plus a 2048-row Kᵀ/V stage: 278,528 B of fp16.
        let err = resolve("fmha", Arch::Sm86, &opts(&[("seq", "2048")])).unwrap_err();
        assert_eq!(err, "shared-memory budget: 278528 B exceeds 102400 B");
    }

    #[test]
    fn resolved_keys_equal_the_build_path_and_stay_injective() {
        let mut seen: HashMap<(String, String), String> = HashMap::new();
        for arch in [Arch::Sm70, Arch::Sm86] {
            for (name, o) in VALID {
                let o = opts(o);
                let Ok(resolved) = resolve(name, arch, &o) else {
                    // Ampere-only schedules: both paths must refuse.
                    assert!(build_named(name, arch, &o).is_err(), "{name} on {arch}");
                    continue;
                };
                let nk = build_named(name, arch, &o).unwrap();
                assert_eq!(resolved.problem, nk.problem, "{name} {o:?}");
                // One key, one kernel: a key shared by two requests
                // must name the identical kernel IR.
                let ir = nk.kernel.to_string();
                let key = (format!("{name}/{arch}"), resolved.problem);
                if let Some(prev) = seen.insert(key.clone(), ir.clone()) {
                    assert_eq!(prev, ir, "key {key:?} names two different kernels");
                }
            }
        }
        // The spelled-out defaults collapsed onto their short forms.
        assert!(seen.len() < 2 * VALID.len());
    }

    #[test]
    fn every_catalog_kernel_builds() {
        for (name, o) in VALID {
            let nk = build_named(name, Arch::Sm86, &opts(o))
                .unwrap_or_else(|e| panic!("{name} failed: {e}"));
            assert!(!nk.problem.is_empty());
        }
    }
}
