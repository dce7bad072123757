//! Search spaces: what the tuner explores.
//!
//! A [`SearchSpace`] is a named set of integer parameters (each with a
//! finite value list), a *constraint* telling which combinations are
//! even buildable, a *builder* turning a legal [`Point`] into a
//! [`Kernel`], and a *default* point — the hand-picked schedule the
//! paper (and the kernel library) ships. The tuner never has to know
//! what the parameters mean; everything kernel-specific lives here.
//!
//! Concrete spaces are provided for every paper kernel with a
//! meaningful schedule choice: [`GemmSpace`] (block/warp/K tiles,
//! swizzling, pipeline depth), [`FmhaSpace`] (query tile and warp
//! rows), [`LayernormSpace`] (rows per block), and [`MlpSpace`]
//! (row tile and warp tiles of the fused layers).
//!
//! Every constraint is its config's own `validate` (the GEMM space
//! picks the double-buffered variant's check for `stages = 2`): the
//! same check the catalog, the lowerings and the builders use, so
//! every accepted point builds without panicking. Constraints do
//! **not** try to predict deeper legality — races and bank conflicts —
//! that is the static-analysis pruning stage of
//! [`crate::tuner`], which runs the full `graphene-analysis` pipeline
//! over each built candidate.

use graphene_ir::{Arch, Kernel};
use graphene_kernels::fmha::{build_fused_fmha, FmhaConfig};
use graphene_kernels::gemm::{build_gemm, build_gemm_double_buffered, Epilogue, GemmConfig};
use graphene_kernels::layernorm::{build_layernorm, LayernormConfig};
use graphene_kernels::mlp::{build_fused_mlp, MlpConfig};

/// One tunable parameter: a name and the finite list of values the
/// space enumerates for it.
#[derive(Debug, Clone)]
pub struct ParamDef {
    /// Parameter name (stable; part of the tuning-database schema).
    pub name: &'static str,
    /// Candidate values, in ascending order.
    pub values: Vec<i64>,
}

/// A concrete assignment of every parameter of a space, in
/// [`SearchSpace::params`] order.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Point(pub Vec<i64>);

/// A tunable kernel family.
///
/// `Sync` is required so the tuner can fan candidate evaluation out
/// across `std::thread::scope` workers sharing `&dyn SearchSpace`.
pub trait SearchSpace: Sync {
    /// Stable space name (part of the tuning-database key).
    fn name(&self) -> &'static str;

    /// Target architecture.
    fn arch(&self) -> Arch;

    /// The tunable parameters.
    fn params(&self) -> &[ParamDef];

    /// Stable description of the *problem* (sizes, epilogue, …) this
    /// space instance tunes — part of the tuning-database key.
    fn problem_key(&self) -> String;

    /// The hand-picked default schedule (must satisfy
    /// [`SearchSpace::constraint`]).
    fn default_point(&self) -> Point;

    /// Cheap static legality: `Err(reason)` for combinations that the
    /// builder would reject. Every accepted point must build without
    /// panicking.
    fn constraint(&self, p: &Point) -> Result<(), String>;

    /// Builds the kernel for a constraint-passing point.
    fn build(&self, p: &Point) -> Kernel;

    // ---- provided ----------------------------------------------------

    /// Value of parameter `name` in `p`.
    fn get(&self, p: &Point, name: &str) -> i64 {
        let i = self
            .params()
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("no parameter `{name}` in space `{}`", self.name()));
        p.0[i]
    }

    /// Size of the full cartesian space (before constraints).
    fn total_points(&self) -> usize {
        self.params().iter().map(|d| d.values.len()).product()
    }

    /// Mixed-radix decode: the `idx`-th point of the cartesian
    /// enumeration (`idx < total_points()`), last parameter fastest.
    fn point_at(&self, mut idx: usize) -> Point {
        let defs = self.params();
        let mut vals = vec![0i64; defs.len()];
        for (slot, d) in vals.iter_mut().zip(defs).rev() {
            *slot = d.values[idx % d.values.len()];
            idx /= d.values.len();
        }
        Point(vals)
    }

    /// `name=value` rendering of a point, parameter order.
    fn describe(&self, p: &Point) -> String {
        self.params()
            .iter()
            .zip(&p.0)
            .map(|(d, v)| format!("{}={v}", d.name))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Reconstructs a [`Point`] from stored `(name, value)` pairs (the
    /// tuning-database representation). `None` when a parameter is
    /// missing or its value is no longer in the space.
    fn point_from_pairs(&self, pairs: &[(String, i64)]) -> Option<Point> {
        let mut vals = Vec::with_capacity(self.params().len());
        for d in self.params() {
            let (_, v) = pairs.iter().find(|(n, _)| n == d.name)?;
            if !d.values.contains(v) {
                return None;
            }
            vals.push(*v);
        }
        Some(Point(vals))
    }

    /// FNV-1a hash of the space *shape* (name, arch, parameter names
    /// and value lists). A stored tuning-database entry is only valid
    /// while this hash matches — growing a value list invalidates it.
    fn space_hash(&self) -> u64 {
        let mut h = fnv(FNV_OFFSET, self.name().as_bytes());
        h = fnv(h, format!("{:?}", self.arch()).as_bytes());
        for d in self.params() {
            h = fnv(h, d.name.as_bytes());
            for v in &d.values {
                h = fnv(h, &v.to_le_bytes());
            }
        }
        h
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------
// GEMM
// ---------------------------------------------------------------------

/// The GEMM schedule space: thread-block tile (`bm`, `bn`), K step
/// (`bk`), warp tile (`wm`, `wn`), and pipeline depth (`stages`; 2 =
/// double-buffered `cp.async` pipeline, Ampere only).
///
/// Shared-memory swizzling is **not** a searched axis: [`Self::build`]
/// decides it by proof. The unswizzled candidate's staging layouts are
/// graded symbolically ([`graphene_analysis::banks::grade_sites`]);
/// only when some site is provably conflicted does the builder apply
/// the swizzle. This halves the space versus searching a `swizzle`
/// parameter and replaces per-candidate conflict simulation with one
/// F₂ rank check.
pub struct GemmSpace {
    arch: Arch,
    m: i64,
    n: i64,
    k: i64,
    epilogue: Epilogue,
    params: Vec<ParamDef>,
}

impl GemmSpace {
    /// A space over an `m×n×k` problem.
    pub fn new(arch: Arch, m: i64, n: i64, k: i64, epilogue: Epilogue) -> Self {
        let bks: Vec<i64> = match arch {
            Arch::Sm86 => vec![16, 32, 64],
            Arch::Sm70 => vec![8, 16, 32],
        };
        let params = vec![
            ParamDef { name: "bm", values: vec![32, 64, 128, 256] },
            ParamDef { name: "bn", values: vec![32, 64, 128, 256] },
            ParamDef { name: "bk", values: bks },
            ParamDef { name: "wm", values: vec![16, 32, 64] },
            ParamDef { name: "wn", values: vec![16, 32, 64] },
            ParamDef { name: "stages", values: vec![1, 2] },
        ];
        GemmSpace { arch, m, n, k, epilogue, params }
    }

    /// The config for a point, *before* the proof-driven swizzle
    /// decision (swizzle off).
    fn config(&self, p: &Point) -> GemmConfig {
        GemmConfig {
            m: self.m,
            n: self.n,
            k: self.k,
            bm: self.get(p, "bm"),
            bn: self.get(p, "bn"),
            bk: self.get(p, "bk"),
            wm: self.get(p, "wm"),
            wn: self.get(p, "wn"),
            swizzle: false,
        }
    }

    fn build_config(&self, cfg: &GemmConfig, stages: i64) -> Kernel {
        if stages == 2 {
            build_gemm_double_buffered(cfg, self.epilogue)
        } else {
            build_gemm(self.arch, cfg, self.epilogue)
        }
    }
}

impl SearchSpace for GemmSpace {
    fn name(&self) -> &'static str {
        "gemm"
    }

    fn arch(&self) -> Arch {
        self.arch
    }

    fn params(&self) -> &[ParamDef] {
        &self.params
    }

    fn problem_key(&self) -> String {
        format!("m{}_n{}_k{}_{}", self.m, self.n, self.k, self.epilogue.label())
    }

    fn default_point(&self) -> Point {
        // The paper's cuBLAS-matching hand pick (footnote 1), single
        // buffered.
        let d = GemmConfig::cublas_like(self.m, self.n, self.k);
        Point(vec![d.bm, d.bn, d.bk, d.wm, d.wn, 1])
    }

    fn constraint(&self, p: &Point) -> Result<(), String> {
        let cfg = self.config(p);
        if self.get(p, "stages") == 2 {
            cfg.validate_double_buffered(self.arch)
        } else {
            cfg.validate(self.arch)
        }
    }

    fn build(&self, p: &Point) -> Kernel {
        let mut cfg = self.config(p);
        let stages = self.get(p, "stages");
        // Proof-driven swizzle: grade the unswizzled candidate's
        // shared-memory staging symbolically; swizzle only if some
        // site is provably conflicted.
        let candidate = self.build_config(&cfg, stages);
        let clean = graphene_analysis::banks::grade_sites(&candidate, self.arch)
            .iter()
            .all(|s| s.conflict_free());
        if clean {
            return candidate;
        }
        cfg.swizzle = true;
        self.build_config(&cfg, stages)
    }
}

// ---------------------------------------------------------------------
// FMHA
// ---------------------------------------------------------------------

/// The fused-attention schedule space: query rows per block (`bq`) and
/// warp tile rows (`wm`). Ampere only, like the kernel.
pub struct FmhaSpace {
    heads: i64,
    seq: i64,
    d: i64,
    params: Vec<ParamDef>,
}

impl FmhaSpace {
    /// A space over a (heads, seq, d) attention problem.
    pub fn new(heads: i64, seq: i64, d: i64) -> Self {
        let params = vec![
            ParamDef { name: "bq", values: vec![32, 64, 128] },
            ParamDef { name: "wm", values: vec![16, 32, 64] },
        ];
        FmhaSpace { heads, seq, d, params }
    }

    /// The paper's MLPerf BERT inference shape.
    pub fn mlperf_bert() -> Self {
        let c = FmhaConfig::mlperf_bert();
        FmhaSpace::new(c.heads, c.seq, c.d)
    }

    fn config(&self, p: &Point) -> FmhaConfig {
        FmhaConfig {
            heads: self.heads,
            row_heads: 1,
            seq: self.seq,
            d: self.d,
            bq: self.get(p, "bq"),
            wm: self.get(p, "wm"),
        }
    }
}

impl SearchSpace for FmhaSpace {
    fn name(&self) -> &'static str {
        "fmha"
    }

    fn arch(&self) -> Arch {
        Arch::Sm86
    }

    fn params(&self) -> &[ParamDef] {
        &self.params
    }

    fn problem_key(&self) -> String {
        format!("heads{}_seq{}_d{}", self.heads, self.seq, self.d)
    }

    fn default_point(&self) -> Point {
        let d = FmhaConfig::mlperf_bert();
        Point(vec![d.bq, d.wm])
    }

    fn constraint(&self, p: &Point) -> Result<(), String> {
        self.config(p).validate(Arch::Sm86)
    }

    fn build(&self, p: &Point) -> Kernel {
        build_fused_fmha(Arch::Sm86, &self.config(p))
    }
}

// ---------------------------------------------------------------------
// Layernorm
// ---------------------------------------------------------------------

/// The layernorm schedule space: rows handled per block (one warp
/// each). More rows per block amortise launch and wave quantisation;
/// fewer increase the grid for small row counts.
pub struct LayernormSpace {
    arch: Arch,
    rows: i64,
    hidden: i64,
    params: Vec<ParamDef>,
}

impl LayernormSpace {
    /// A space over a `[rows, hidden]` normalisation problem.
    pub fn new(arch: Arch, rows: i64, hidden: i64) -> Self {
        let params = vec![ParamDef { name: "rows_per_block", values: vec![1, 2, 4, 8, 16] }];
        LayernormSpace { arch, rows, hidden, params }
    }

    fn config(&self, p: &Point) -> LayernormConfig {
        LayernormConfig {
            rows: self.rows,
            hidden: self.hidden,
            rows_per_block: self.get(p, "rows_per_block"),
        }
    }
}

impl SearchSpace for LayernormSpace {
    fn name(&self) -> &'static str {
        "layernorm"
    }

    fn arch(&self) -> Arch {
        self.arch
    }

    fn params(&self) -> &[ParamDef] {
        &self.params
    }

    fn problem_key(&self) -> String {
        format!("rows{}_hidden{}", self.rows, self.hidden)
    }

    fn default_point(&self) -> Point {
        Point(vec![LayernormConfig::new(self.rows, self.hidden).rows_per_block])
    }

    fn constraint(&self, p: &Point) -> Result<(), String> {
        self.config(p).validate(self.arch)
    }

    fn build(&self, p: &Point) -> Kernel {
        build_layernorm(self.arch, &self.config(p))
    }
}

// ---------------------------------------------------------------------
// Fused MLP
// ---------------------------------------------------------------------

/// The fused-MLP schedule space: activation rows per block (`bm`) and
/// warp tile (`wm`, `wn`) of the per-layer GEMMs.
pub struct MlpSpace {
    arch: Arch,
    m: i64,
    hidden: i64,
    layers: i64,
    params: Vec<ParamDef>,
}

impl MlpSpace {
    /// A space over an `m×hidden`, `layers`-deep fused MLP.
    pub fn new(arch: Arch, m: i64, hidden: i64, layers: i64) -> Self {
        let params = vec![
            ParamDef { name: "bm", values: vec![32, 64, 128, 256] },
            ParamDef { name: "wm", values: vec![16, 32, 64] },
            ParamDef { name: "wn", values: vec![16, 32, 64] },
        ];
        MlpSpace { arch, m, hidden, layers, params }
    }

    fn config(&self, p: &Point) -> MlpConfig {
        MlpConfig {
            m: self.m,
            hidden: self.hidden,
            layers: self.layers,
            bm: self.get(p, "bm"),
            wm: self.get(p, "wm"),
            wn: self.get(p, "wn"),
        }
    }
}

impl SearchSpace for MlpSpace {
    fn name(&self) -> &'static str {
        "fused-mlp"
    }

    fn arch(&self) -> Arch {
        self.arch
    }

    fn params(&self) -> &[ParamDef] {
        &self.params
    }

    fn problem_key(&self) -> String {
        format!("m{}_hidden{}_layers{}", self.m, self.hidden, self.layers)
    }

    fn default_point(&self) -> Point {
        let d = MlpConfig::paper(self.m, self.layers);
        Point(vec![d.bm, d.wm, d.wn])
    }

    fn constraint(&self, p: &Point) -> Result<(), String> {
        self.config(p).validate(self.arch)
    }

    fn build(&self, p: &Point) -> Kernel {
        build_fused_mlp(self.arch, &self.config(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_satisfy_their_own_constraints() {
        let spaces: Vec<Box<dyn SearchSpace>> = vec![
            Box::new(GemmSpace::new(Arch::Sm86, 1024, 1024, 512, Epilogue::None)),
            Box::new(GemmSpace::new(Arch::Sm70, 1024, 1024, 512, Epilogue::None)),
            Box::new(FmhaSpace::mlperf_bert()),
            Box::new(LayernormSpace::new(Arch::Sm86, 4096, 1024)),
            Box::new(MlpSpace::new(Arch::Sm86, 1024, 128, 4)),
            Box::new(MlpSpace::new(Arch::Sm70, 1024, 128, 4)),
        ];
        for s in &spaces {
            let d = s.default_point();
            s.constraint(&d)
                .unwrap_or_else(|e| panic!("{} default {} illegal: {e}", s.name(), s.describe(&d)));
        }
    }

    #[test]
    fn point_enumeration_round_trips() {
        let s = GemmSpace::new(Arch::Sm86, 512, 512, 256, Epilogue::None);
        assert_eq!(s.total_points(), 4 * 4 * 3 * 3 * 3 * 2);
        // First point: every parameter at its first value.
        let first = s.point_at(0);
        assert_eq!(first.0, vec![32, 32, 16, 16, 16, 1]);
        // Last point: every parameter at its last value.
        let last = s.point_at(s.total_points() - 1);
        assert_eq!(last.0, vec![256, 256, 64, 64, 64, 2]);
        // All points distinct.
        let mut seen = std::collections::HashSet::new();
        for i in 0..s.total_points() {
            assert!(seen.insert(s.point_at(i)));
        }
    }

    #[test]
    fn pairs_round_trip_and_reject_foreign_values() {
        let s = LayernormSpace::new(Arch::Sm86, 4096, 1024);
        let p = s.default_point();
        let pairs: Vec<(String, i64)> =
            s.params().iter().zip(&p.0).map(|(d, &v)| (d.name.to_string(), v)).collect();
        assert_eq!(s.point_from_pairs(&pairs), Some(p));
        assert_eq!(s.point_from_pairs(&[("rows_per_block".into(), 7)]), None);
        assert_eq!(s.point_from_pairs(&[]), None);
    }

    #[test]
    fn space_hash_tracks_shape() {
        let a = GemmSpace::new(Arch::Sm86, 512, 512, 256, Epilogue::None);
        let b = GemmSpace::new(Arch::Sm86, 1024, 256, 512, Epilogue::None);
        // Problem sizes are NOT part of the shape hash (they key the DB
        // separately)…
        assert_eq!(a.space_hash(), b.space_hash());
        // …but the arch is (its bk list differs too).
        let c = GemmSpace::new(Arch::Sm70, 512, 512, 256, Epilogue::None);
        assert_ne!(a.space_hash(), c.space_hash());
        let d = LayernormSpace::new(Arch::Sm86, 4096, 1024);
        assert_ne!(a.space_hash(), d.space_hash());
    }

    #[test]
    fn legal_gemm_points_build_and_default_is_cublas_like() {
        let s = GemmSpace::new(Arch::Sm86, 256, 256, 64, Epilogue::None);
        let d = s.default_point();
        assert_eq!(s.get(&d, "bm"), 128);
        // Constraint must reject what the builder would reject: probe a
        // sample of the space and build every survivor.
        let mut built = 0;
        for i in (0..s.total_points()).step_by(7) {
            let p = s.point_at(i);
            if s.constraint(&p).is_ok() {
                let k = s.build(&p);
                assert!(k.grid_size() > 0);
                built += 1;
            }
        }
        assert!(built > 0, "sampled space produced no legal point");
    }

    #[test]
    fn gemm_build_swizzles_exactly_when_proof_demands_it() {
        let s = GemmSpace::new(Arch::Sm86, 256, 256, 64, Epilogue::None);
        let d = s.default_point();
        // The unswizzled cublas-like build has provably conflicted
        // shared-memory staging, so the proof-driven builder must
        // apply the swizzle…
        let built = s.build(&d);
        let sites = graphene_analysis::banks::grade_sites(&built, Arch::Sm86);
        assert!(!sites.is_empty());
        assert!(
            sites.iter().all(|site| site.conflict_free()),
            "proof-driven build left a conflicted site"
        );
        // …and every grade of the shipped kernel is a proof, not a
        // sample.
        assert!(sites.iter().all(|site| site.provenance.is_proven()));
    }
}
