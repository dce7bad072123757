//! The tunable-space catalog: builds [`SearchSpace`]s, [`Search`]
//! strategies, and [`TuneOptions`] from *stringly* options for the
//! serve daemon's `tune` requests — which the one-shot CLI `tune`
//! dispatches in process too, so a search requested over the wire is
//! the same search the one-shot CLI runs.

use crate::space::{FmhaSpace, GemmSpace, LayernormSpace, MlpSpace, SearchSpace};
use crate::tuner::{Search, TuneOptions};
use graphene_ir::Arch;
use graphene_kernels::catalog::{opt_dim, opt_int, parse_epilogue};
use graphene_kernels::fmha::FmhaConfig;
use std::collections::HashMap;

/// Builds the search space `kernel` names from string options.
///
/// Recognized names: `gemm`, `fmha`, `layernorm`, `mlp`.
///
/// # Errors
///
/// A user-facing message for unknown names, malformed options or
/// non-positive sizes.
pub fn space_from_options(
    kernel: &str,
    arch: Arch,
    opts: &HashMap<String, String>,
) -> Result<Box<dyn SearchSpace>, String> {
    let dim = |key: &str, default: i64| opt_dim(opts, key, default);
    match kernel {
        "gemm" => {
            let (m, n, k) = (dim("m", 4096)?, dim("n", 4096)?, dim("k", 1024)?);
            let epilogue = parse_epilogue(opts.get("epilogue").map(String::as_str))?;
            Ok(Box::new(GemmSpace::new(arch, m, n, k, epilogue)))
        }
        "fmha" => {
            let base = FmhaConfig::mlperf_bert();
            Ok(Box::new(FmhaSpace::new(
                dim("heads", base.heads)?,
                dim("seq", base.seq)?,
                dim("d", base.d)?,
            )))
        }
        "layernorm" => {
            Ok(Box::new(LayernormSpace::new(arch, dim("rows", 4096)?, dim("hidden", 1024)?)))
        }
        "mlp" => Ok(Box::new(MlpSpace::new(
            arch,
            dim("m", 4096)?,
            dim("hidden", 128)?,
            dim("layers", 4)?,
        ))),
        other => Err(format!("unknown tunable kernel `{other}` (gemm|fmha|layernorm|mlp)")),
    }
}

/// Parses the strategy options (`--search`, `--seed`, `--samples`,
/// `--width`, `--patience`) into a [`Search`], rejecting non-positive
/// counts (a negative value would wrap to an astronomical `usize`).
///
/// # Errors
///
/// A user-facing message for unknown strategies or bad knob values.
pub fn search_from_options(opts: &HashMap<String, String>) -> Result<Search, String> {
    let positive = |name: &str, default: i64| -> Result<usize, String> {
        match opt_int(opts, name, default)? {
            v if v >= 1 => Ok(v as usize),
            v => Err(format!("--{name} must be at least 1, got {v}")),
        }
    };
    let seed = match opt_int(opts, "seed", 0)? {
        v if v >= 0 => v as u64,
        v => return Err(format!("--seed must be non-negative, got {v}")),
    };
    match opts.get("search").map(String::as_str) {
        None | Some("exhaustive") => Ok(Search::Exhaustive),
        Some("random") => Ok(Search::Random { seed, samples: positive("samples", 64)? }),
        Some("beam") => Ok(Search::Beam {
            seed,
            width: positive("width", 4)?,
            patience: positive("patience", 3)?,
        }),
        Some(other) => Err(format!("unknown search `{other}` (exhaustive|random|beam)")),
    }
}

/// Parses `--budget` and `--top` (with the strategy) into full
/// [`TuneOptions`].
///
/// # Errors
///
/// As [`search_from_options`], plus bad budget/top values.
pub fn options_from_options(opts: &HashMap<String, String>) -> Result<TuneOptions, String> {
    let search = search_from_options(opts)?;
    let top = opt_int(opts, "top", 5)?;
    if top < 1 {
        return Err(format!("--top must be at least 1, got {top}"));
    }
    let budget = match opt_int(opts, "budget", 0)? {
        0 => None,
        b if b > 0 => Some(b as usize),
        b => return Err(format!("--budget must be non-negative, got {b}")),
    };
    Ok(TuneOptions { search, budget, threads: 0, top: top as usize })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
    }

    #[test]
    fn builds_every_space() {
        for kernel in ["gemm", "fmha", "layernorm", "mlp"] {
            let s = space_from_options(kernel, Arch::Sm86, &opts(&[]))
                .unwrap_or_else(|e| panic!("{kernel}: {e}"));
            assert!(s.total_points() > 0);
        }
        let err = space_from_options("frobnicate", Arch::Sm86, &opts(&[]))
            .err()
            .expect("unknown kernel must error");
        assert!(err.contains("unknown tunable"));
    }

    #[test]
    fn non_positive_sizes_are_rejected_before_any_build() {
        let cases = [
            ("gemm", "m", "0"),
            ("gemm", "n", "-64"),
            ("gemm", "k", "0"),
            ("fmha", "heads", "0"),
            ("fmha", "seq", "0"),
            ("fmha", "d", "-1"),
            ("layernorm", "rows", "0"),
            ("layernorm", "hidden", "0"),
            ("mlp", "m", "0"),
            ("mlp", "hidden", "-128"),
            ("mlp", "layers", "0"),
        ];
        for (kernel, key, value) in cases {
            let err = space_from_options(kernel, Arch::Sm86, &opts(&[(key, value)]))
                .err()
                .unwrap_or_else(|| panic!("{kernel} --{key} {value} must not build a space"));
            assert_eq!(err, format!("--{key} must be a positive integer, got {value}"), "{kernel}");
        }
    }

    #[test]
    fn strategy_knob_validation_matches_the_cli_contract() {
        assert_eq!(search_from_options(&opts(&[])).unwrap(), Search::Exhaustive);
        assert!(search_from_options(&opts(&[("search", "random"), ("samples", "-1")]))
            .unwrap_err()
            .contains("--samples must be at least 1"));
        assert!(search_from_options(&opts(&[("search", "beam"), ("width", "-2")]))
            .unwrap_err()
            .contains("--width must be at least 1"));
        assert!(search_from_options(&opts(&[("seed", "-7")]))
            .unwrap_err()
            .contains("--seed must be non-negative"));
        assert!(search_from_options(&opts(&[("search", "quantum")]))
            .unwrap_err()
            .contains("unknown search"));
        assert!(options_from_options(&opts(&[("budget", "-3")]))
            .unwrap_err()
            .contains("non-negative"));
        assert!(options_from_options(&opts(&[("top", "0")])).unwrap_err().contains("--top"));
    }
}
