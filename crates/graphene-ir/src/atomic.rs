//! Atomic specifications: the instruction-backed specs of Table 2.
//!
//! "During code generation, every spec without decomposition is matched
//! against the set of pre-defined atomic specs for the target
//! architecture" (paper §5.2). An [`AtomicSpec`] records the thread
//! arrangement the instruction prescribes, the per-thread operand tensor
//! types, the PTX mnemonic emitted by codegen, and the semantics the
//! simulator executes.

use crate::dtype::ScalarType;
use crate::memory::MemSpace;
use crate::module::Module;
use crate::ops::{BinaryOp, ReduceOp, UnaryOp};
use crate::spec::{Spec, SpecKind};
use crate::tensor::TensorType;
use graphene_layout::{coalesce, it, Layout};
use std::cell::OnceCell;
use std::fmt;
use std::sync::OnceLock;

/// Target GPU architectures.
///
/// The paper evaluates on Volta (V100, SM70) and Ampere (RTX A6000,
/// SM86); each exposes a different set of tensor instructions (quad-pair
/// `mma.m8n8k4` on Volta; `ldmatrix` + `mma.m16n8k16` on Ampere).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    /// Volta (V100).
    Sm70,
    /// Ampere (RTX A6000).
    Sm86,
}

impl Arch {
    /// Marketing name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Arch::Sm70 => "Volta",
            Arch::Sm86 => "Ampere",
        }
    }

    /// Maximum shared memory one thread block may allocate (with the
    /// opt-in carve-out both parts support): 96 KiB on V100, 100 KiB on
    /// the GA102-class Ampere parts.
    pub fn smem_limit_bytes(self) -> u64 {
        match self {
            Arch::Sm70 => 96 * 1024,
            Arch::Sm86 => 100 * 1024,
        }
    }
}

impl fmt::Display for Arch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Executable semantics of an atomic spec, interpreted by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicSemantics {
    /// Per-thread copy: destination view elements take the source view
    /// elements in linear-coordinate order.
    CopyPerThread,
    /// Collective `ldmatrix.xN`: each thread supplies a row address; the
    /// warp redistributes values into the prescribed register fragments
    /// (Figure 1a vs. 1b).
    LdMatrix {
        /// Number of 8×8 matrices (1, 2, or 4).
        num: u8,
        /// Transposed variant (`ldmatrix...trans`): each thread receives
        /// column pairs instead of row pairs — used for B operands of
        /// row.col `mma` instructions.
        trans: bool,
    },
    /// Volta quad-pair `mma.m8n8k4` (each group of 8 threads computes an
    /// 8×8×4 MMA on register fragments).
    MmaVolta884,
    /// Ampere warp-wide `mma.m16n8k16`.
    MmaAmpere16816,
    /// Per-thread fused multiply-add: `out[i] += a[i] * b[i]`.
    FmaPerThread,
    /// Per-thread unary pointwise.
    UnaryPerThread(UnaryOp),
    /// Per-thread binary pointwise.
    BinaryPerThread(BinaryOp),
    /// Warp butterfly shuffle: lane `l` receives lane `l ^ mask`'s value.
    ShflBfly,
    /// Per-thread register init (`mov` immediate).
    InitPerThread,
    /// Per-thread sequential reduction of a register tile.
    ReducePerThread(ReduceOp),
}

/// A per-operand type pattern for matching.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorPattern {
    /// Dimensions per nesting level (outer→inner). A size-1 level is the
    /// empty vector, matching the paper's `[]` scalar notation.
    pub levels: Vec<Vec<i64>>,
    /// Required innermost scalar type.
    pub scalar: ScalarType,
    /// Required memory space.
    pub mem: MemSpace,
    /// If true the operand's scalars must be contiguous in memory
    /// (vectorised loads/stores).
    pub contiguous: bool,
    /// If true the memory space is not checked. Used by per-thread
    /// compute instructions: the paper's Figure 8 matches a `MatMul` on
    /// `[].fp16.GL` operands against the `hfma` atomic spec — codegen
    /// folds the loads into the compute statement.
    pub any_mem: bool,
    /// If true any shape matches (`Init` and per-thread `Reduction`
    /// work on tiles of any arrangement).
    pub any_shape: bool,
    /// With `any_shape`: require exactly this many scalars (vectorised
    /// moves match `[8]` and `[1,8]` views alike).
    pub scalars: Option<i64>,
}

impl TensorPattern {
    /// Builds a pattern; `levels` lists the shape dims of each nesting
    /// level (`&[]` for a scalar level).
    pub fn new(levels: &[&[i64]], scalar: ScalarType, mem: MemSpace) -> Self {
        TensorPattern {
            levels: levels.iter().map(|l| l.to_vec()).collect(),
            scalar,
            mem,
            contiguous: false,
            any_mem: false,
            any_shape: false,
            scalars: None,
        }
    }

    /// Relaxes the shape to "any arrangement of exactly `n` scalars".
    pub fn with_scalars(mut self, n: i64) -> Self {
        self.any_shape = true;
        self.scalars = Some(n);
        self
    }

    /// Relaxes the shape requirement (element-count-agnostic ops).
    pub fn any_shape(mut self) -> Self {
        self.any_shape = true;
        self
    }

    /// Relaxes the memory-space requirement (per-thread compute
    /// instructions may read/write any addressable space).
    pub fn any_mem(mut self) -> Self {
        self.any_mem = true;
        self
    }

    /// Requires contiguous scalars.
    pub fn contiguous(mut self) -> Self {
        self.contiguous = true;
        self
    }

    /// Does an operand with these features match this pattern?
    fn accepts(&self, op: &Operand<'_>) -> bool {
        (self.any_mem || op.mem == self.mem)
            && op.scalar == self.scalar
            && (self.any_shape || op.signature == self.levels)
            && self.scalars.is_none_or(|n| op.scalars == n)
            && (!self.contiguous || *op.contiguous.get_or_init(|| is_contiguous(op.ty)))
    }
}

/// The features of one operand that [`TensorPattern`]s compare, taken
/// once per match rather than once per registry entry tried.
struct Operand<'a> {
    ty: &'a TensorType,
    mem: MemSpace,
    scalar: ScalarType,
    signature: Vec<Vec<i64>>,
    scalars: i64,
    /// Only vectorised moves ask, so it is computed on first use.
    contiguous: OnceCell<bool>,
}

impl<'a> Operand<'a> {
    fn new(ty: &'a TensorType, mem: MemSpace) -> Self {
        Operand {
            ty,
            mem,
            scalar: ty.scalar_type(),
            signature: type_signature(ty),
            scalars: ty.num_scalars(),
            contiguous: OnceCell::new(),
        }
    }
}

/// The features of an undecomposed spec that atomic specs compare.
struct SpecFeatures<'a> {
    kind: &'a SpecKind,
    /// The innermost exec entry's local layout, coalesced.
    exec: Layout,
    ins: Vec<Operand<'a>>,
    outs: Vec<Operand<'a>>,
}

impl<'a> SpecFeatures<'a> {
    /// `None` when no atomic spec can match: the spec has no exec entry
    /// or its innermost one is not thread-level.
    fn of(spec: &'a Spec, module: &'a Module) -> Option<Self> {
        let &exec = spec.exec.last()?;
        let tt = &module[exec];
        if tt.level != crate::threads::ThreadLevel::Thread {
            return None;
        }
        let operands = |ids: &[crate::tensor::TensorId]| {
            ids.iter()
                .map(|&id| {
                    let d = &module[id];
                    Operand::new(&d.ty, d.mem)
                })
                .collect()
        };
        Some(SpecFeatures {
            kind: &spec.kind,
            exec: coalesce(&tt.local),
            ins: operands(&spec.ins),
            outs: operands(&spec.outs),
        })
    }
}

/// Shape signature: dims per nesting level; size-1 levels are `[]`.
pub fn type_signature(ty: &TensorType) -> Vec<Vec<i64>> {
    let mut out = Vec::new();
    let mut cur = ty;
    loop {
        let dims: Vec<i64> = if cur.layout.size() == 1 {
            Vec::new()
        } else {
            // Per-top-level-mode sizes: distinguishes [4,1] from [4] and
            // [2,2] from [4] as Table 2 requires.
            (0..cur.layout.rank()).map(|i| cur.layout.mode(i).shape().size()).collect()
        };
        out.push(dims);
        match cur.tile_elem() {
            Some(t) => cur = t,
            None => break,
        }
    }
    out
}

/// Are the tensor's scalars contiguous (after coalescing, a single
/// unit-stride mode)?
pub fn is_contiguous(ty: &TensorType) -> bool {
    match ty.tile_elem() {
        Some(inner) => ty.layout.size() == 1 && is_contiguous(inner),
        None => {
            if ty.num_scalars() == 1 {
                return true;
            }
            let c = coalesce(&ty.layout);
            c.rank() == 1 && c.stride().leaves() == vec![1]
        }
    }
}

/// Cost metadata for one execution of the instruction (per thread group).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InstrCost {
    /// Floating-point operations performed.
    pub flops: u64,
    /// Executes on the tensor-core pipe.
    pub tensor_core: bool,
}

/// An atomic specification: an instruction-backed spec (Table 2).
#[derive(Debug, Clone)]
pub struct AtomicSpec {
    /// Short name, e.g. `ldmatrix.x4`.
    pub name: &'static str,
    /// The PTX instruction (Table 2 right column).
    pub ptx: &'static str,
    /// Spec family this instruction implements.
    pub kind: SpecKind,
    /// Required *local* thread-group layout (Table 2 "Threads" column):
    /// `[1]` for per-thread instructions, `[32:1]` for warp-wide,
    /// `[(4,2):(1,16)]` for quad-pairs. [`registry`] stores it
    /// coalesced, the form a spec's exec layout is compared in.
    pub exec_local: Layout,
    /// Per-thread input operand patterns.
    pub ins: Vec<TensorPattern>,
    /// Per-thread output operand patterns.
    pub outs: Vec<TensorPattern>,
    /// Simulator semantics.
    pub semantics: AtomicSemantics,
    /// Cost per execution (per group).
    pub cost: InstrCost,
}

impl AtomicSpec {
    /// Does `spec` (undecomposed, in `module`) match this atomic spec?
    pub fn matches(&self, spec: &Spec, module: &Module) -> bool {
        SpecFeatures::of(spec, module).is_some_and(|f| self.accepts(&f))
    }

    fn accepts(&self, f: &SpecFeatures<'_>) -> bool {
        let all = |ops: &[Operand<'_>], pats: &[TensorPattern]| {
            ops.iter().zip(pats).all(|(op, pat)| pat.accepts(op))
        };
        self.kind.same_family(f.kind)
            && f.exec == self.exec_local
            && f.ins.len() == self.ins.len()
            && f.outs.len() == self.outs.len()
            && all(&f.ins, &self.ins)
            && all(&f.outs, &self.outs)
    }
}

/// The quad-pair thread layout required by Volta tensor cores
/// (paper Figure 6): `[(4,2):(1,16)]`.
pub fn quad_pair_layout() -> Layout {
    Layout::new(it![4, 2], it![1, 16])
}

/// The atomic-spec registry for an architecture, built once per
/// process.
///
/// Rows mirror and extend the paper's Table 2. Volta (SM70) exposes the
/// quad-pair `mma.m8n8k4`; Ampere (SM86) exposes `ldmatrix` and
/// `mma.m16n8k16`; scalar/vector moves and pointwise instructions are
/// common to both.
pub fn registry(arch: Arch) -> &'static [AtomicSpec] {
    static REGISTRY: [OnceLock<Vec<AtomicSpec>>; 2] = [OnceLock::new(), OnceLock::new()];
    REGISTRY[arch as usize].get_or_init(|| build_registry(arch))
}

/// [`registry`] with every operand's memory-space requirement dropped,
/// entry for entry.
fn relaxed_registry(arch: Arch) -> &'static [AtomicSpec] {
    static RELAXED: [OnceLock<Vec<AtomicSpec>>; 2] = [OnceLock::new(), OnceLock::new()];
    RELAXED[arch as usize].get_or_init(|| {
        registry(arch)
            .iter()
            .map(|a| {
                let mut r = a.clone();
                for p in r.ins.iter_mut().chain(r.outs.iter_mut()) {
                    p.any_mem = true;
                }
                r
            })
            .collect()
    })
}

fn build_registry(arch: Arch) -> Vec<AtomicSpec> {
    use MemSpace::{Global, Register, Shared};
    use ScalarType::{BF16, F16, F32};

    let t1 = Layout::contiguous(1);
    let warp = Layout::contiguous(32);
    let pat = TensorPattern::new;

    let mut specs: Vec<AtomicSpec> = Vec::new();

    // --- Moves: global <-> registers -------------------------------------
    for (name, ptx, st, dims, src, dst) in [
        ("ld.global.f32", "ld.global.u32", F32, &[][..], Global, Register),
        ("ld.global.v4.f32", "ld.global.v4.u32", F32, &[4i64][..], Global, Register),
        ("ld.global.f16", "ld.global.u16", F16, &[][..], Global, Register),
        ("ld.global.v2.f16", "ld.global.u32", F16, &[2][..], Global, Register),
        ("ld.global.v4.f16", "ld.global.v2.u32", F16, &[4][..], Global, Register),
        ("ld.global.v8.f16", "ld.global.v4.u32", F16, &[8][..], Global, Register),
        ("ld.global.v2.f32", "ld.global.v2.u32", F32, &[2][..], Global, Register),
        ("ld.global.v8.f32", "2x ld.global.v4.u32", F32, &[8][..], Global, Register),
        ("st.global.f32", "st.global.u32", F32, &[][..], Register, Global),
        ("st.global.v4.f32", "st.global.v4.u32", F32, &[4][..], Register, Global),
        ("st.global.f16", "st.global.u16", F16, &[][..], Register, Global),
        ("st.global.v2.f16", "st.global.u32", F16, &[2][..], Register, Global),
        ("st.global.v4.f16", "st.global.v2.u32", F16, &[4][..], Register, Global),
        ("st.global.v8.f16", "st.global.v4.u32", F16, &[8][..], Register, Global),
        ("st.global.v2.f32", "st.global.v2.u32", F32, &[2][..], Register, Global),
        ("st.global.v8.f32", "2x st.global.v4.u32", F32, &[8][..], Register, Global),
        ("ld.shared.f32", "ld.shared.u32", F32, &[][..], Shared, Register),
        ("ld.shared.v4.f32", "ld.shared.v4.u32", F32, &[4][..], Shared, Register),
        ("ld.shared.f16", "ld.shared.u16", F16, &[][..], Shared, Register),
        ("ld.shared.v2.f16", "ld.shared.u32", F16, &[2][..], Shared, Register),
        ("ld.shared.v4.f16", "ld.shared.v2.u32", F16, &[4][..], Shared, Register),
        ("ld.shared.v8.f16", "ld.shared.v4.u32", F16, &[8][..], Shared, Register),
        ("ld.shared.v2.f32", "ld.shared.v2.u32", F32, &[2][..], Shared, Register),
        ("ld.shared.v8.f32", "2x ld.shared.v4.u32", F32, &[8][..], Shared, Register),
        ("st.shared.f32", "st.shared.u32", F32, &[][..], Register, Shared),
        ("st.shared.v4.f32", "st.shared.v4.u32", F32, &[4][..], Register, Shared),
        ("st.shared.f16", "st.shared.u16", F16, &[][..], Register, Shared),
        ("st.shared.v2.f16", "st.shared.u32", F16, &[2][..], Register, Shared),
        ("st.shared.v4.f16", "st.shared.v2.u32", F16, &[4][..], Register, Shared),
        ("st.shared.v8.f16", "st.shared.v4.u32", F16, &[8][..], Register, Shared),
        ("st.shared.v2.f32", "st.shared.v2.u32", F32, &[2][..], Register, Shared),
        ("st.shared.v8.f32", "2x st.shared.v4.u32", F32, &[8][..], Register, Shared),
        ("mov.f32", "mov.b32", F32, &[][..], Register, Register),
        ("mov.f16", "mov.b16", F16, &[][..], Register, Register),
        // bfloat16 mirrors the fp16 data movements bit-for-bit.
        ("ld.global.bf16", "ld.global.u16", BF16, &[][..], Global, Register),
        ("ld.global.v2.bf16", "ld.global.u32", BF16, &[2][..], Global, Register),
        ("ld.global.v8.bf16", "ld.global.v4.u32", BF16, &[8][..], Global, Register),
        ("st.global.bf16", "st.global.u16", BF16, &[][..], Register, Global),
        ("st.global.v8.bf16", "st.global.v4.u32", BF16, &[8][..], Register, Global),
        ("ld.shared.bf16", "ld.shared.u16", BF16, &[][..], Shared, Register),
        ("ld.shared.v8.bf16", "ld.shared.v4.u32", BF16, &[8][..], Shared, Register),
        ("st.shared.bf16", "st.shared.u16", BF16, &[][..], Register, Shared),
        ("st.shared.v8.bf16", "st.shared.v4.u32", BF16, &[8][..], Register, Shared),
    ] {
        let n: i64 = dims.iter().product::<i64>().max(1);
        let mut in_pat = pat(&[dims], st, src).with_scalars(n);
        let mut out_pat = pat(&[dims], st, dst).with_scalars(n);
        if n > 1 {
            // Vectorised ld/st require the non-register side contiguous.
            if src != Register {
                in_pat = in_pat.contiguous();
            }
            if dst != Register {
                out_pat = out_pat.contiguous();
            }
        }
        specs.push(AtomicSpec {
            name,
            ptx,
            kind: SpecKind::Move,
            exec_local: t1.clone(),
            ins: vec![in_pat],
            outs: vec![out_pat],
            semantics: AtomicSemantics::CopyPerThread,
            cost: InstrCost::default(),
        });
    }

    // Type-converting moves (cvt + ld/st): fp32 accumulators exit to
    // fp16 tensors, and fp16 inputs promote into fp32 register math.
    for (name, ptx, dims, s_st, s_mem, d_st, d_mem) in [
        (
            "cvt.st.global.f32f16",
            "cvt.rn.f16.f32 + st.global.u16",
            &[][..],
            F32,
            Register,
            F16,
            Global,
        ),
        (
            "cvt.st.global.v2.f32f16",
            "cvt.rn.f16x2.f32 + st.global.u32",
            &[2][..],
            F32,
            Register,
            F16,
            Global,
        ),
        (
            "cvt.st.global.v4.f32f16",
            "cvt.rn.f16x2.f32 + st.global.v2.u32",
            &[4][..],
            F32,
            Register,
            F16,
            Global,
        ),
        (
            "cvt.st.global.v8.f32f16",
            "cvt.rn.f16x2.f32 + st.global.v4.u32",
            &[8][..],
            F32,
            Register,
            F16,
            Global,
        ),
        (
            "cvt.st.shared.f32f16",
            "cvt.rn.f16.f32 + st.shared.u16",
            &[][..],
            F32,
            Register,
            F16,
            Shared,
        ),
        (
            "cvt.st.shared.v2.f32f16",
            "cvt.rn.f16x2.f32 + st.shared.u32",
            &[2][..],
            F32,
            Register,
            F16,
            Shared,
        ),
        (
            "cvt.st.shared.v4.f32f16",
            "cvt.rn.f16x2.f32 + st.shared.v2.u32",
            &[4][..],
            F32,
            Register,
            F16,
            Shared,
        ),
        (
            "cvt.st.shared.v8.f32f16",
            "cvt.rn.f16x2.f32 + st.shared.v4.u32",
            &[8][..],
            F32,
            Register,
            F16,
            Shared,
        ),
        (
            "ld.global.cvt.f16f32",
            "ld.global.u16 + cvt.f32.f16",
            &[][..],
            F16,
            Global,
            F32,
            Register,
        ),
        (
            "ld.shared.cvt.f16f32",
            "ld.shared.u16 + cvt.f32.f16",
            &[][..],
            F16,
            Shared,
            F32,
            Register,
        ),
        (
            "ld.global.cvt.v2.f16f32",
            "ld.global.u32 + cvt.f32.f16x2",
            &[2][..],
            F16,
            Global,
            F32,
            Register,
        ),
        (
            "ld.global.cvt.v4.f16f32",
            "ld.global.v2.u32 + cvt.f32.f16x2",
            &[4][..],
            F16,
            Global,
            F32,
            Register,
        ),
        (
            "ld.shared.cvt.v4.f16f32",
            "ld.shared.v2.u32 + cvt.f32.f16x2",
            &[4][..],
            F16,
            Shared,
            F32,
            Register,
        ),
        (
            "ld.shared.cvt.v2.f16f32",
            "ld.shared.u32 + cvt.f32.f16x2",
            &[2][..],
            F16,
            Shared,
            F32,
            Register,
        ),
        (
            "ld.shared.cvt.v8.f16f32",
            "ld.shared.v4.u32 + cvt.f32.f16",
            &[8][..],
            F16,
            Shared,
            F32,
            Register,
        ),
        (
            "ld.global.cvt.v8.f16f32",
            "ld.global.v4.u32 + cvt.f32.f16",
            &[8][..],
            F16,
            Global,
            F32,
            Register,
        ),
        ("cvt.mov.f32f16", "cvt.rn.f16.f32", &[][..], F32, Register, F16, Register),
        ("cvt.mov.f16f32", "cvt.f32.f16", &[][..], F16, Register, F32, Register),
    ] {
        let n: i64 = dims.iter().product::<i64>().max(1);
        let mut in_pat = pat(&[dims], s_st, s_mem).with_scalars(n);
        let mut out_pat = pat(&[dims], d_st, d_mem).with_scalars(n);
        if n > 1 {
            if s_mem != Register {
                in_pat = in_pat.contiguous();
            }
            if d_mem != Register {
                out_pat = out_pat.contiguous();
            }
        }
        specs.push(AtomicSpec {
            name,
            ptx,
            kind: SpecKind::Move,
            exec_local: t1.clone(),
            ins: vec![in_pat],
            outs: vec![out_pat],
            semantics: AtomicSemantics::CopyPerThread,
            cost: InstrCost::default(),
        });
    }

    if arch == Arch::Sm86 {
        // cp.async: global -> shared without a register round-trip.
        for (name, ptx, n) in [
            ("cp.async.v8.f16", "cp.async.ca.shared.global [dst], [src], 16", 8i64),
            ("cp.async.v4.f16", "cp.async.ca.shared.global [dst], [src], 8", 4),
            ("cp.async.v2.f16", "cp.async.ca.shared.global [dst], [src], 4", 2),
        ] {
            specs.push(AtomicSpec {
                name,
                ptx,
                kind: SpecKind::Move,
                exec_local: t1.clone(),
                ins: vec![pat(&[&[n]], F16, Global).contiguous().with_scalars(n)],
                outs: vec![pat(&[&[n]], F16, Shared).contiguous().with_scalars(n)],
                semantics: AtomicSemantics::CopyPerThread,
                cost: InstrCost::default(),
            });
        }
        // ldmatrix: warp-collective shared -> register fragments
        // (Table 2 row 4: in [1,8].fp16.SH, out [2,2].[1,2].fp16.RF).
        specs.push(AtomicSpec {
            name: "ldmatrix.x4",
            ptx: "ldmatrix.sync.aligned.m8n8.x4.shared.b16",
            kind: SpecKind::Move,
            exec_local: warp.clone(),
            ins: vec![pat(&[&[1, 8]], F16, Shared)],
            outs: vec![pat(&[&[2, 2], &[1, 2]], F16, Register)],
            semantics: AtomicSemantics::LdMatrix { num: 4, trans: false },
            cost: InstrCost::default(),
        });
        specs.push(AtomicSpec {
            name: "ldmatrix.x2",
            ptx: "ldmatrix.sync.aligned.m8n8.x2.shared.b16",
            kind: SpecKind::Move,
            exec_local: warp.clone(),
            ins: vec![pat(&[&[1, 8]], F16, Shared)],
            outs: vec![pat(&[&[2, 1], &[1, 2]], F16, Register)],
            semantics: AtomicSemantics::LdMatrix { num: 2, trans: false },
            cost: InstrCost::default(),
        });
        // Transposed variants: the per-thread source view is a *column*
        // (8 rows x 1 col for x4, matching B operands of row.col mma).
        specs.push(AtomicSpec {
            name: "ldmatrix.x4.trans",
            ptx: "ldmatrix.sync.aligned.m8n8.x4.trans.shared.b16",
            kind: SpecKind::Move,
            exec_local: warp.clone(),
            ins: vec![pat(&[&[1, 8]], F16, Shared)],
            outs: vec![pat(&[&[2, 2], &[2, 1]], F16, Register)],
            semantics: AtomicSemantics::LdMatrix { num: 4, trans: true },
            cost: InstrCost::default(),
        });
        specs.push(AtomicSpec {
            name: "ldmatrix.x2.trans",
            ptx: "ldmatrix.sync.aligned.m8n8.x2.trans.shared.b16",
            kind: SpecKind::Move,
            exec_local: warp.clone(),
            ins: vec![pat(&[&[1, 8]], F16, Shared)],
            outs: vec![pat(&[&[2, 1], &[2, 1]], F16, Register)],
            semantics: AtomicSemantics::LdMatrix { num: 2, trans: true },
            cost: InstrCost::default(),
        });
    }

    // --- MatMul -----------------------------------------------------------
    for (name, ptx, st, dims, flops) in [
        ("hfma", "fma.rn.f16", F16, &[][..], 2u64),
        ("hfma2", "fma.rn.f16x2", F16, &[2][..], 4),
        ("fmaf", "fma.rn.f32", F32, &[][..], 2),
    ] {
        specs.push(AtomicSpec {
            name,
            ptx,
            kind: SpecKind::MatMul,
            exec_local: t1.clone(),
            ins: vec![pat(&[dims], st, Register).any_mem(), pat(&[dims], st, Register).any_mem()],
            outs: vec![pat(&[dims], st, Register).any_mem()],
            semantics: AtomicSemantics::FmaPerThread,
            cost: InstrCost { flops, tensor_core: false },
        });
    }
    match arch {
        Arch::Sm70 => {
            // Volta quad-pair tensor core (Table 2 row "mma.m8n8k4").
            specs.push(AtomicSpec {
                name: "mma.m8n8k4",
                ptx: "mma.sync.aligned.m8n8k4.row.col.f32.f16.f16.f32",
                kind: SpecKind::MatMul,
                exec_local: quad_pair_layout(),
                ins: vec![pat(&[&[4, 1]], F16, Register), pat(&[&[1, 4]], F16, Register)],
                outs: vec![pat(&[&[2, 4]], F32, Register)],
                semantics: AtomicSemantics::MmaVolta884,
                cost: InstrCost { flops: 2 * 8 * 8 * 4, tensor_core: true },
            });
        }
        Arch::Sm86 => {
            // Ampere warp-wide tensor core (Table 2 last row).
            specs.push(AtomicSpec {
                name: "mma.m16n8k16.bf16",
                ptx: "mma.sync.aligned.m16n8k16.row.col.f32.bf16.bf16.f32",
                kind: SpecKind::MatMul,
                exec_local: warp.clone(),
                ins: vec![
                    pat(&[&[2, 2], &[1, 2]], BF16, Register),
                    pat(&[&[2, 1], &[2, 1]], BF16, Register),
                ],
                outs: vec![pat(&[&[2, 1], &[1, 2]], F32, Register)],
                semantics: AtomicSemantics::MmaAmpere16816,
                cost: InstrCost { flops: 2 * 16 * 8 * 16, tensor_core: true },
            });
            specs.push(AtomicSpec {
                name: "mma.m16n8k16",
                ptx: "mma.sync.aligned.m16n8k16.row.col.f32.f16.f16.f32",
                kind: SpecKind::MatMul,
                exec_local: warp.clone(),
                ins: vec![
                    pat(&[&[2, 2], &[1, 2]], F16, Register),
                    pat(&[&[2, 1], &[2, 1]], F16, Register),
                ],
                outs: vec![pat(&[&[2, 1], &[1, 2]], F32, Register)],
                semantics: AtomicSemantics::MmaAmpere16816,
                cost: InstrCost { flops: 2 * 16 * 8 * 16, tensor_core: true },
            });
        }
    }

    // --- Pointwise --------------------------------------------------------
    for op in
        [BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul, BinaryOp::Div, BinaryOp::Max, BinaryOp::Min]
    {
        for (st, dims, name, ptx, flops) in [
            (F32, &[][..], "f32.pw", "f32 pointwise op", 1u64),
            (F32, &[2][..], "f32x2.pw", "f32x2 pointwise op", 2),
            (F32, &[4][..], "f32x4.pw", "f32x4 pointwise op", 4),
            (F32, &[8][..], "f32x8.pw", "unrolled f32 pointwise ops", 8),
            (F32, &[16][..], "f32x16.pw", "unrolled f32 pointwise ops", 16),
            (F32, &[32][..], "f32x32.pw", "unrolled f32 pointwise ops", 32),
            (F32, &[64][..], "f32x64.pw", "unrolled f32 pointwise ops", 64),
            (F32, &[128][..], "f32x128.pw", "unrolled f32 pointwise ops", 128),
            (F16, &[][..], "f16.pw", "f16 pointwise op", 1),
            (F16, &[2][..], "f16x2.pw", "f16x2 pointwise op", 2),
            (F16, &[4][..], "f16x4.pw", "unrolled f16x2 pointwise ops", 4),
            (F16, &[8][..], "f16x8.pw", "unrolled f16x2 pointwise ops", 8),
            (F16, &[16][..], "f16x16.pw", "unrolled f16x2 pointwise ops", 16),
        ] {
            specs.push(AtomicSpec {
                name,
                ptx,
                kind: SpecKind::BinaryPointwise(op),
                exec_local: t1.clone(),
                ins: vec![
                    pat(&[dims], st, Register).any_mem(),
                    pat(&[dims], st, Register).any_mem(),
                ],
                outs: vec![pat(&[dims], st, Register).any_mem()],
                semantics: AtomicSemantics::BinaryPerThread(op),
                cost: InstrCost { flops, tensor_core: false },
            });
        }
    }
    for op in [
        UnaryOp::Exp,
        UnaryOp::Relu,
        UnaryOp::Tanh,
        UnaryOp::Sigmoid,
        UnaryOp::Gelu,
        UnaryOp::Neg,
        UnaryOp::Rsqrt,
        UnaryOp::Sqrt,
        UnaryOp::Recip,
        UnaryOp::Identity,
    ] {
        for (st, dims, flops) in [
            (F32, &[][..], 1u64),
            (F32, &[2][..], 2),
            (F32, &[4][..], 4),
            (F32, &[8][..], 8),
            (F32, &[16][..], 16),
            (F32, &[32][..], 32),
            (F32, &[64][..], 64),
            (F32, &[128][..], 128),
            (F16, &[][..], 1),
            (F16, &[2][..], 2),
            (F16, &[4][..], 4),
            (F16, &[8][..], 8),
            (F16, &[16][..], 16),
        ] {
            specs.push(AtomicSpec {
                name: "unary.pw",
                ptx: "unary pointwise op",
                kind: SpecKind::UnaryPointwise(op),
                exec_local: t1.clone(),
                ins: vec![pat(&[dims], st, Register).any_mem()],
                outs: vec![pat(&[dims], st, Register).any_mem()],
                semantics: AtomicSemantics::UnaryPerThread(op),
                cost: InstrCost { flops, tensor_core: false },
            });
        }
    }

    // --- Shfl / Init / per-thread reductions ------------------------------
    specs.push(AtomicSpec {
        name: "shfl.bfly.f32",
        ptx: "shfl.sync.bfly.b32",
        kind: SpecKind::Shfl { mask: 0 },
        exec_local: warp.clone(),
        ins: vec![pat(&[&[]], F32, Register)],
        outs: vec![pat(&[&[]], F32, Register)],
        semantics: AtomicSemantics::ShflBfly,
        cost: InstrCost::default(),
    });
    for st in [F32, F16] {
        specs.push(AtomicSpec {
            name: "init.rf",
            ptx: "mov immediate",
            kind: SpecKind::Init { value: 0.0 },
            exec_local: t1.clone(),
            ins: vec![],
            outs: vec![pat(&[&[]], st, Register).any_mem().any_shape()],
            semantics: AtomicSemantics::InitPerThread,
            cost: InstrCost::default(),
        });
    }
    for op in [ReduceOp::Sum, ReduceOp::Max] {
        for st in [F32, F16] {
            specs.push(AtomicSpec {
                name: "reduce.rf",
                ptx: "unrolled scalar reduction",
                kind: SpecKind::Reduction { op, axes: vec![0] },
                exec_local: t1.clone(),
                ins: vec![pat(&[&[]], st, Register).any_mem().any_shape()],
                outs: vec![pat(&[&[]], st, Register).any_mem()],
                semantics: AtomicSemantics::ReducePerThread(op),
                cost: InstrCost { flops: 8, tensor_core: false },
            });
        }
    }

    for a in &mut specs {
        a.exec_local = coalesce(&a.exec_local);
    }
    specs
}

/// Finds the first atomic spec of `reg` matching an undecomposed spec.
///
/// The spec's features (coalesced exec layout, operand types, memory
/// spaces and shape signatures) are taken once, then compared against
/// each entry in registry order.
pub fn match_atomic<'a>(
    spec: &Spec,
    module: &Module,
    reg: &'a [AtomicSpec],
) -> Option<&'a AtomicSpec> {
    let f = SpecFeatures::of(spec, module)?;
    reg.iter().find(|a| a.accepts(&f))
}

/// Finds the first atomic spec of `arch` that `spec` would match if
/// operand memory spaces were not checked — the instruction a
/// memory-space mistake was most likely aimed at.
pub fn match_relaxed(spec: &Spec, module: &Module, arch: Arch) -> Option<&'static AtomicSpec> {
    let f = SpecFeatures::of(spec, module)?;
    let i = relaxed_registry(arch).iter().position(|a| a.accepts(&f))?;
    Some(&registry(arch)[i])
}

/// Fragment coordinate maps for collective tensor instructions.
///
/// These encode how values are distributed across a thread group's
/// registers — exactly the information Figure 1a/b visualises for
/// `ldmatrix`. Each function maps `(lane, value_index)` to the logical
/// `(row, col)` inside the collective tile. All maps are bijections
/// (property-tested).
pub mod fragments {
    /// `ldmatrix.x4` destination fragment: lane `l`, fp16 value `v`
    /// (0..8) → (row, col) in the 16×16 tile. The four 8×8 matrices are
    /// arranged 2×2 row-major (matrix `i` is supplied by lanes
    /// `8i..8i+8`); within a matrix, lane `l` receives elements
    /// `(l/4, 2*(l%4) + c)` of matrix `v/2`.
    pub fn ldmatrix_x4_dst(lane: usize, v: usize) -> (usize, usize) {
        debug_assert!(lane < 32 && v < 8);
        let mat = v / 2; // which 8x8 matrix this pair belongs to
        let c = v % 2;
        let (mrow, mcol) = (mat / 2, mat % 2);
        (mrow * 8 + lane / 4, mcol * 8 + 2 * (lane % 4) + c)
    }

    /// `ldmatrix.x4` source addressing: lane `l` supplies the address of
    /// row `l % 8` of matrix `l / 8` — returns (row, col-base) of the
    /// 8-element row in the 16×16 tile.
    pub fn ldmatrix_x4_src_row(lane: usize) -> (usize, usize) {
        debug_assert!(lane < 32);
        let mat = lane / 8;
        let (mrow, mcol) = (mat / 2, mat % 2);
        (mrow * 8 + lane % 8, mcol * 8)
    }

    /// Ampere `mma.m16n8k16` A-fragment (16×16 f16, row-major):
    /// lane `l`, value `v` (0..8) → (m, k).
    pub fn mma_16816_a(lane: usize, v: usize) -> (usize, usize) {
        debug_assert!(lane < 32 && v < 8);
        let row = lane / 4 + 8 * ((v / 2) % 2);
        let col = 2 * (lane % 4) + (v % 2) + 8 * (v / 4);
        (row, col)
    }

    /// Ampere `mma.m16n8k16` B-fragment (16×8 f16, K×N): lane `l`,
    /// value `v` (0..4) → (k, n).
    pub fn mma_16816_b(lane: usize, v: usize) -> (usize, usize) {
        debug_assert!(lane < 32 && v < 4);
        let k = 2 * (lane % 4) + (v % 2) + 8 * (v / 2);
        let n = lane / 4;
        (k, n)
    }

    /// Ampere `mma.m16n8k16` C/D-fragment (16×8 f32): lane `l`,
    /// value `v` (0..4) → (m, n).
    pub fn mma_16816_c(lane: usize, v: usize) -> (usize, usize) {
        debug_assert!(lane < 32 && v < 4);
        (lane / 4 + 8 * (v / 2), 2 * (lane % 4) + (v % 2))
    }

    /// Volta quad-pair `mma.m8n8k4` A-fragment (8×4 f16): quad-pair-local
    /// thread `t` (0..8), value `v` (0..4) → (m, k).
    ///
    /// This is a documented simplification of Volta's actual fragment
    /// interleaving (see DESIGN.md): shapes, thread counts, and the
    /// quad-pair execution model match the hardware; the exact
    /// value-to-lane assignment inside the fragment is normalised.
    pub fn mma_884_a(t: usize, v: usize) -> (usize, usize) {
        debug_assert!(t < 8 && v < 4);
        (4 * (t / 4) + v, t % 4)
    }

    /// Volta `mma.m8n8k4` B-fragment (4×8 f16): thread `t`, value `v`
    /// → (k, n).
    pub fn mma_884_b(t: usize, v: usize) -> (usize, usize) {
        debug_assert!(t < 8 && v < 4);
        (t % 4, 4 * (t / 4) + v)
    }

    /// Volta `mma.m8n8k4` C-fragment (8×8 f32): thread `t`, value `v`
    /// (0..8, as a `[2,4]` tile) → (m, n).
    pub fn mma_884_c(t: usize, v: usize) -> (usize, usize) {
        debug_assert!(t < 8 && v < 8);
        // v enumerates the row-major [2,4] register tile in the
        // colexicographic order of view enumeration: row varies fastest.
        (2 * (t % 4) + v % 2, 4 * (t / 4) + v / 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threads::{ThreadLevel, ThreadTensor};
    use std::collections::HashSet;

    #[test]
    fn registry_differs_per_arch() {
        let volta = registry(Arch::Sm70);
        let ampere = registry(Arch::Sm86);
        assert!(volta.iter().any(|s| s.name == "mma.m8n8k4"));
        assert!(!volta.iter().any(|s| s.name.starts_with("ldmatrix")));
        assert!(ampere.iter().any(|s| s.name == "mma.m16n8k16"));
        assert!(ampere.iter().any(|s| s.name == "ldmatrix.x4"));
        assert!(!ampere.iter().any(|s| s.name == "mma.m8n8k4"));
    }

    #[test]
    fn table2_row1_scalar_global_load() {
        // Move, [1].thread, [].fp32.GL -> [].fp32.RF => ld.global.u32
        let mut m = Module::new();
        let src = m.declare_tensor(
            "g",
            TensorType::scalar(Layout::contiguous(1), ScalarType::F32),
            MemSpace::Global,
        );
        let dst = m.declare_tensor(
            "r",
            TensorType::scalar(Layout::contiguous(1), ScalarType::F32),
            MemSpace::Register,
        );
        let threads = ThreadTensor::new("t", ThreadLevel::Thread, &[256]);
        let t = m.declare_threads(threads.scalar("ts"));
        let spec = Spec::atomic(SpecKind::Move, vec![t], vec![src], vec![dst]);
        let reg = registry(Arch::Sm86);
        let found = match_atomic(&spec, &m, reg).expect("should match");
        assert_eq!(found.ptx, "ld.global.u32");
    }

    #[test]
    fn table2_row2_vectorized_load() {
        // Move, [1].thread, [8].fp16.GL -> [8].fp16.RF => ld.global.v4.u32
        let mut m = Module::new();
        let src = m.declare_tensor(
            "g",
            TensorType::scalar(Layout::contiguous(8), ScalarType::F16),
            MemSpace::Global,
        );
        let dst = m.declare_tensor(
            "r",
            TensorType::scalar(Layout::contiguous(8), ScalarType::F16),
            MemSpace::Register,
        );
        let t = m.declare_threads(ThreadTensor::new("t", ThreadLevel::Thread, &[256]).scalar("ts"));
        let spec = Spec::atomic(SpecKind::Move, vec![t], vec![src], vec![dst]);
        let reg = registry(Arch::Sm86);
        assert_eq!(match_atomic(&spec, &m, reg).unwrap().ptx, "ld.global.v4.u32");
    }

    #[test]
    fn vectorized_load_requires_contiguous_source() {
        // A strided [8:2] global source must NOT match the vectorised load.
        let mut m = Module::new();
        let src = m.declare_tensor(
            "g",
            TensorType::scalar(Layout::strided(8, 2), ScalarType::F16),
            MemSpace::Global,
        );
        let dst = m.declare_tensor(
            "r",
            TensorType::scalar(Layout::contiguous(8), ScalarType::F16),
            MemSpace::Register,
        );
        let t = m.declare_threads(ThreadTensor::new("t", ThreadLevel::Thread, &[256]).scalar("ts"));
        let spec = Spec::atomic(SpecKind::Move, vec![t], vec![src], vec![dst]);
        let reg = registry(Arch::Sm86);
        assert!(match_atomic(&spec, &m, reg).is_none());
    }

    #[test]
    fn ldmatrix_matches_warp_exec_only() {
        let mut m = Module::new();
        let src = m.declare_tensor(
            "s",
            TensorType::row_major(&[1, 8], ScalarType::F16),
            MemSpace::Shared,
        );
        // dst per-thread: [2,2].[1,2].fp16.RF (Table 2 row 4).
        let inner = TensorType::row_major(&[1, 2], ScalarType::F16);
        let dst_ty = TensorType {
            layout: Layout::new(it![2, 2], it![2, 4]),
            elem: crate::tensor::Elem::Tile(Box::new(inner)),
            swizzle: Default::default(),
        };
        let dst = m.declare_tensor("d", dst_ty, MemSpace::Register);
        let warp = m.declare_threads(ThreadTensor::new("w", ThreadLevel::Thread, &[32]));
        let spec = Spec::atomic(SpecKind::Move, vec![warp], vec![src], vec![dst]);
        let reg = registry(Arch::Sm86);
        let found = match_atomic(&spec, &m, reg).expect("ldmatrix should match");
        assert_eq!(found.name, "ldmatrix.x4");
        // On Volta the same spec must NOT match (no ldmatrix).
        let reg70 = registry(Arch::Sm70);
        assert!(match_atomic(&spec, &m, reg70).is_none());
    }

    #[test]
    fn quad_pair_mma_matches_on_volta() {
        let mut m = Module::new();
        let a = m.declare_tensor(
            "a",
            TensorType::row_major(&[4, 1], ScalarType::F16),
            MemSpace::Register,
        );
        let b = m.declare_tensor(
            "b",
            TensorType::row_major(&[1, 4], ScalarType::F16),
            MemSpace::Register,
        );
        let c = m.declare_tensor(
            "c",
            TensorType::row_major(&[2, 4], ScalarType::F32),
            MemSpace::Register,
        );
        let warp = ThreadTensor::new("w", ThreadLevel::Thread, &[32]);
        let qp = warp.tile("qp", &quad_pair_layout()).unwrap();
        let qp_id = m.declare_threads(qp);
        let spec = Spec::atomic(SpecKind::MatMul, vec![qp_id], vec![a, b], vec![c]);
        let reg = registry(Arch::Sm70);
        let found = match_atomic(&spec, &m, reg).expect("quad-pair mma");
        assert_eq!(found.ptx, "mma.sync.aligned.m8n8k4.row.col.f32.f16.f16.f32");
        assert_eq!(found.cost.flops, 512);
        assert!(found.cost.tensor_core);
        // Wrong thread arrangement (contiguous groups of 8) must not match.
        let wrong = m.declare_threads(
            ThreadTensor::new("w2", ThreadLevel::Thread, &[32])
                .tile("g8", &Layout::contiguous(8))
                .unwrap(),
        );
        let spec2 = Spec::atomic(SpecKind::MatMul, vec![wrong], vec![a, b], vec![c]);
        assert!(match_atomic(&spec2, &m, reg).is_none());
    }

    #[test]
    fn hfma_matches_scalar_matmul() {
        let mut m = Module::new();
        let mk = |m: &mut Module, n: &str, st| {
            m.declare_tensor(n, TensorType::scalar(Layout::contiguous(1), st), MemSpace::Register)
        };
        let a = mk(&mut m, "a", ScalarType::F16);
        let b = mk(&mut m, "b", ScalarType::F16);
        let c = mk(&mut m, "c", ScalarType::F16);
        let t = m.declare_threads(ThreadTensor::new("t", ThreadLevel::Thread, &[256]).scalar("ts"));
        let spec = Spec::atomic(SpecKind::MatMul, vec![t], vec![a, b], vec![c]);
        for arch in [Arch::Sm70, Arch::Sm86] {
            let reg = registry(arch);
            assert_eq!(match_atomic(&spec, &m, reg).unwrap().name, "hfma");
        }
    }

    #[test]
    fn fragment_maps_are_bijections() {
        let mut seen = HashSet::new();
        for lane in 0..32 {
            for v in 0..8 {
                let (r, c) = fragments::ldmatrix_x4_dst(lane, v);
                assert!(r < 16 && c < 16);
                assert!(seen.insert((r, c)), "ldmatrix dup at ({r},{c})");
            }
        }
        assert_eq!(seen.len(), 256);

        let mut seen = HashSet::new();
        for lane in 0..32 {
            for v in 0..8 {
                let (m_, k) = fragments::mma_16816_a(lane, v);
                assert!(m_ < 16 && k < 16);
                assert!(seen.insert((m_, k)));
            }
        }
        assert_eq!(seen.len(), 256);

        let mut seen = HashSet::new();
        for lane in 0..32 {
            for v in 0..4 {
                let (k, n) = fragments::mma_16816_b(lane, v);
                assert!(k < 16 && n < 8);
                assert!(seen.insert((k, n)));
            }
        }
        assert_eq!(seen.len(), 128);

        let mut seen = HashSet::new();
        for lane in 0..32 {
            for v in 0..4 {
                let (m_, n) = fragments::mma_16816_c(lane, v);
                assert!(m_ < 16 && n < 8);
                assert!(seen.insert((m_, n)));
            }
        }
        assert_eq!(seen.len(), 128);

        for (f, rows, cols, vals) in [
            (fragments::mma_884_a as fn(usize, usize) -> (usize, usize), 8, 4, 4),
            (fragments::mma_884_b, 4, 8, 4),
            (fragments::mma_884_c, 8, 8, 8),
        ] {
            let mut seen = HashSet::new();
            for t in 0..8 {
                for v in 0..vals {
                    let (r, c) = f(t, v);
                    assert!(r < rows && c < cols);
                    assert!(seen.insert((r, c)));
                }
            }
            assert_eq!(seen.len(), rows * cols);
        }
    }

    #[test]
    fn ldmatrix_source_rows_cover_tile() {
        // Every row of each 8x8 matrix is supplied by exactly one lane.
        let mut seen = HashSet::new();
        for lane in 0..32 {
            let (row, col_base) = fragments::ldmatrix_x4_src_row(lane);
            assert!(row < 16 && (col_base == 0 || col_base == 8));
            assert!(seen.insert((row, col_base)));
        }
        assert_eq!(seen.len(), 32);
    }
}
