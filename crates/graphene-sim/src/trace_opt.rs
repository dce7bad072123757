//! Trace optimization: lower a recorded [`Trace`] into an [`OptTrace`]
//! whose address arrays are compact affine descriptors and whose step
//! list has been peephole-cleaned.
//!
//! A recorded trace stores one arena address per element of every
//! operand, even though most recorded address runs in the paper's
//! kernels are *affine* — contiguous or constant-stride, often with a
//! regular per-lane (2D) structure. That is not an accident: under the
//! F₂/linear-layout view of addresses, every non-swizzled operand of
//! these kernels is a linear function of `(blockIdx, threadIdx, loop
//! vars)`, so its recorded address slice is an arithmetic progression
//! (or a lane-major grid of them). This pass runs **once at record
//! time** and:
//!
//! 0. **Renames** the CTA-private buffers that MMAs touch into MMA
//!    order ([`Renaming`]), so every MMA operand is one contiguous row.
//!    No output can observe private numbering.
//! 1. **Classifies** each operand slice by scanning the arena:
//!    [`Span::Affine`] `(base, stride)` for 1D progressions,
//!    [`Span::Lanes`] `(base, lane, stride, per)` for lane-major 2D
//!    grids (register files flattened to `thread*len+addr`, strided
//!    global loads, reduction groups), and [`Span::Gather`] for the
//!    residue (e.g. XOR-swizzled shared memory). Classified slices are
//!    dropped from the arena, shrinking the resident trace — and
//!    therefore the `TraceCache`/`GraphTraceCache` footprint. A
//!    residual slice is stored as `base + pattern`: every distinct
//!    base-relative pattern (one per fragment layout, reused at every
//!    tile offset) is interned once in a per-trace table. A residual
//!    copy between two buffers is first sorted by destination
//!    ([`CopyOrders`]); when both sides then fall into aligned 16-byte
//!    rows, it keeps one table entry per row ([`Span::Rows`]).
//! 2. **Folds** each run of MMAs over one private `(a, b, c)` buffer
//!    triple into one [`OTp::MmaTile`] step — the warp-level `MatMul`
//!    the MMAs were decomposed from — holding three row bases per MMA.
//!    Every MMA folds: one that cannot is an error, not a second step
//!    kind.
//! 3. **Fuses** adjacent same-shape steps whose descriptors chain
//!    (`base₂ = base₁ + n₁·stride`), within a block only.
//! 4. **Eliminates dead fills**: a recorded `Alloc` zero-fill is
//!    dropped when the first subsequent touch of that buffer inside the
//!    same block is a write that fully overwrites it.
//!
//! The replay ([`crate::replay::replay_opt`]) then runs contiguous
//! and row-span copies as one `copy_from_slice` per row, contiguous
//! element-wise ops (in place too) as tight auto-vectorizable slice
//! loops, strided/lane spans as stepped loops with no arena traffic,
//! residual gathers as `base` plus a pattern-table walk, and tile steps
//! as in-place MMA kernels — with each output's `f32`/`f64` op sequence
//! exactly the reference interpreter's and every reordering one no
//! output can observe, so outputs are bit-identical.

use crate::counters::Counters;
use crate::exec::ExecError;
use crate::plan::KernelPlan;
use crate::trace::{raw_resident_bytes, record_blocks, trace_buf_lens, TOp, Trace};
use graphene_ir::ops::{BinaryOp, ReduceOp, UnaryOp};
use graphene_ir::tensor::TensorId;
use std::collections::HashMap;

/// A classified operand address slice: the compact replacement for a
/// run of arena addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Span {
    /// `addr(i) = base + i·stride`. Contiguous is `stride == 1`,
    /// broadcast is `stride == 0`.
    Affine { base: u32, stride: i32 },
    /// Lane-major 2D progression over `per`-element rows:
    /// `addr(i) = base + (i / per)·lane + (i % per)·stride`.
    Lanes { base: u32, lane: i32, stride: i32, per: u32 },
    /// Residual irregular slice: `addr(i) = base + gather[start + i]`
    /// in the [`OptTrace::gather`] pattern table. `base` is the slice
    /// minimum, so pattern entries are non-negative offsets and one
    /// entry serves every tile offset the same layout is used at.
    Gather { base: u32, start: u32 },
    /// Contiguous rows of `len` elements (8, 4 or 2) at gathered row
    /// bases: `addr(i) = base + gather[start + i/len] + i%len`. Only a
    /// copy in canonical (destination-sorted) order carries it; see
    /// [`CopyOrders`].
    Rows { base: u32, start: u32, len: u32 },
}

impl Span {
    /// The address of element `i`; `g` is the gather pattern table.
    #[inline]
    pub(crate) fn at(&self, g: &[u32], i: usize) -> usize {
        match *self {
            Span::Affine { base, stride } => {
                (i64::from(base) + i as i64 * i64::from(stride)) as usize
            }
            Span::Lanes { base, lane, stride, per } => {
                let (li, j) = (i / per as usize, i % per as usize);
                (i64::from(base) + li as i64 * i64::from(lane) + j as i64 * i64::from(stride))
                    as usize
            }
            Span::Gather { base, start } => base as usize + g[start as usize + i] as usize,
            Span::Rows { base, start, len } => {
                let len = len as usize;
                base as usize + g[start as usize + i / len] as usize + i % len
            }
        }
    }

    /// The span moved by `d`, a two's-complement offset added modulo
    /// 2³²: every variant addresses `base` plus a base-free term.
    #[inline]
    pub(crate) fn shifted(self, d: u32) -> Span {
        match self {
            Span::Affine { base, stride } => Span::Affine { base: base.wrapping_add(d), stride },
            Span::Lanes { base, lane, stride, per } => {
                Span::Lanes { base: base.wrapping_add(d), lane, stride, per }
            }
            Span::Gather { base, start } => Span::Gather { base: base.wrapping_add(d), start },
            Span::Rows { base, start, len } => {
                Span::Rows { base: base.wrapping_add(d), start, len }
            }
        }
    }

    /// Group `gi` of a span recorded as groups of `per` elements: the
    /// span of that group's own `per` addresses.
    #[inline]
    pub(crate) fn group(&self, gi: usize, per: usize) -> Span {
        let shift = |base: u32, by: i64| (i64::from(base) + by) as u32;
        match *self {
            Span::Affine { base, stride } => {
                Span::Affine { base: shift(base, (gi * per) as i64 * i64::from(stride)), stride }
            }
            Span::Lanes { base, lane, stride, .. } => {
                Span::Affine { base: shift(base, gi as i64 * i64::from(lane)), stride }
            }
            Span::Gather { base, start } => Span::Gather { base, start: start + (gi * per) as u32 },
            Span::Rows { .. } => unreachable!("row spans are copy operands, never grouped"),
        }
    }
}

/// One optimized step: mirrors [`TOp`] with arena offsets replaced by
/// classified [`Span`] descriptors.
#[derive(Debug, Clone, Copy)]
pub(crate) enum OTp {
    Fill {
        buf: u32,
    },
    Copy {
        src: u32,
        dst: u32,
        sa: Span,
        da: Span,
        n: u32,
    },
    Unary {
        op: UnaryOp,
        src: u32,
        dst: u32,
        sa: Span,
        da: Span,
        n: u32,
    },
    Binary {
        op: BinaryOp,
        a: u32,
        b: u32,
        dst: u32,
        aa: Span,
        ba: Span,
        da: Span,
        n: u32,
    },
    Fma {
        a: u32,
        b: u32,
        c: u32,
        aa: Span,
        ba: Span,
        ca: Span,
        n: u32,
    },
    Init {
        value: f32,
        dst: u32,
        da: Span,
        n: u32,
    },
    Reduce {
        op: ReduceOp,
        src: u32,
        dst: u32,
        sa: Span,
        da: Span,
        groups: u32,
        per: u32,
    },
    /// A run of tensor-core MMAs folded into one warp-tile step (the
    /// warp-level `MatMul` they were decomposed from). Each
    /// entry of [`OptTrace::tiles`] in `tiles` (a half-open range) is
    /// one MMA, in trace order: `[a, b, c]` are the bases of its
    /// row-major `A[m][k]`, `B[k][n]` and `C[m][n]`, each one
    /// contiguous row of its buffer. The three buffers are private and
    /// `c` is neither `a` nor `b`, so replay computes in place. `m16`
    /// selects m16n8k16 (true) vs m8n8k4 (false).
    MmaTile {
        m16: bool,
        a: u32,
        b: u32,
        c: u32,
        tiles: (u32, u32),
    },
    Shfl {
        mask: u32,
        src: u32,
        dst: u32,
        sa: Span,
        da: Span,
        lanes: u32,
    },
}

impl OTp {
    /// The step with every global operand span moved by its buffer's
    /// entry in `off` (one per global buffer): block `b`'s step of a
    /// block-uniform trace ([`OptTrace::block_offsets`]). Fills and
    /// tile steps touch private buffers only.
    #[inline]
    pub(crate) fn shifted(&self, off: &[u32]) -> OTp {
        let mv = |buf: u32, span: &mut Span| {
            if let Some(&d) = off.get(buf as usize) {
                *span = span.shifted(d);
            }
        };
        let mut step = *self;
        match &mut step {
            OTp::Fill { .. } | OTp::MmaTile { .. } => {}
            OTp::Copy { src, dst, sa, da, .. }
            | OTp::Unary { src, dst, sa, da, .. }
            | OTp::Reduce { src, dst, sa, da, .. }
            | OTp::Shfl { src, dst, sa, da, .. } => {
                mv(*src, sa);
                mv(*dst, da);
            }
            OTp::Binary { a, b, dst: c, aa, ba, da: ca, .. }
            | OTp::Fma { a, b, c, aa, ba, ca, .. } => {
                mv(*a, aa);
                mv(*b, ba);
                mv(*c, ca);
            }
            OTp::Init { dst, da, .. } => mv(*dst, da),
        }
        step
    }
}

/// What the optimizer did to one trace — surfaced in CLI replay output,
/// the serve daemon's `stats`, and BENCH_PR10.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OptStats {
    /// Steps in the unoptimized trace.
    pub steps_before: usize,
    /// Steps after fusion and dead-fill elimination.
    pub steps_after: usize,
    /// Scalar addresses in the unoptimized arena.
    pub addrs_before: usize,
    /// Addresses that stayed irregular: the summed length of every
    /// [`Span::Gather`] operand, before interning.
    pub gather_addrs: usize,
    /// Entries of the interned gather pattern table that actually
    /// holds them: each distinct base-relative pattern counted once.
    pub pattern_addrs: usize,
    /// Zero-fill steps proven dead and removed.
    pub dead_fills: usize,
    /// Steps merged into a predecessor by adjacent-step fusion.
    pub fused_steps: usize,
    /// Resident payload bytes of the unoptimized trace.
    pub bytes_before: usize,
    /// Resident payload bytes of the optimized trace.
    pub bytes_after: usize,
    /// MMAs folded into [`OTp::MmaTile`] steps: every recorded MMA.
    pub folded_mmas: usize,
    /// Tile steps those MMAs were folded into.
    pub mma_tiles: usize,
    /// Residual copies put in canonical order and replayed as whole
    /// rows ([`Span::Rows`]).
    pub row_copies: usize,
    /// Elements those copies move. They still count in
    /// `gather_addrs`: the recording had no affine form for them.
    pub row_copy_elems: usize,
    /// Blocks the recording ran: 1 when the plan proves the grid
    /// block-uniform ([`crate::KernelPlan::block_uniform`]), else every
    /// block. The other fields describe the whole grid either way,
    /// except `steps_after` and `bytes_after`, which count what is
    /// stored.
    pub recorded_blocks: usize,
}

impl OptStats {
    /// Fraction of recorded addresses replaced by affine descriptors
    /// (1.0 when the trace recorded no addresses at all).
    #[must_use]
    pub fn coalesced_fraction(&self) -> f64 {
        if self.addrs_before == 0 {
            1.0
        } else {
            1.0 - self.gather_addrs as f64 / self.addrs_before as f64
        }
    }

    /// Fraction of resident trace bytes eliminated.
    #[must_use]
    pub fn bytes_saved_fraction(&self) -> f64 {
        if self.bytes_before == 0 {
            0.0
        } else {
            1.0 - self.bytes_after as f64 / self.bytes_before as f64
        }
    }
}

/// An optimized straight-line trace: [`Trace`] after classification,
/// fusion and dead-fill elimination. Produced by [`optimize_trace`],
/// executed by [`crate::replay::replay_opt`]; this is what the
/// [`crate::trace::TraceCache`] and graph-trace cache keep resident.
#[derive(Debug)]
pub struct OptTrace {
    pub(crate) steps: Vec<OTp>,
    /// Interned base-relative gather patterns ([`Span::Gather`]
    /// targets), each distinct pattern stored once.
    pub(crate) gather: Vec<u32>,
    /// `[a, b, c]` operand bases of every folded MMA ([`OTp::MmaTile`]
    /// ranges index it).
    pub(crate) tiles: Vec<[u32; 3]>,
    /// Per-block `(start, end)` step ranges. Every block of a
    /// block-uniform trace holds the one program, `(0, steps)`.
    pub(crate) blocks: Vec<(u32, u32)>,
    /// A block-uniform trace's global offsets: `n_globals` entries per
    /// block, block-major, each `g(b) − g(0)` as a two's-complement
    /// `u32` ([`Span::shifted`]). Empty when every block holds its own
    /// program.
    pub(crate) offsets: Vec<u32>,
    pub(crate) buf_lens: Vec<usize>,
    pub(crate) n_globals: usize,
    pub(crate) params: Vec<(TensorId, String, usize)>,
    pub(crate) counters: Counters,
    stats: OptStats,
}

impl OptTrace {
    /// Number of optimized steps across all blocks.
    #[must_use]
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Number of thread blocks in the recorded grid.
    #[must_use]
    pub fn grid_size(&self) -> i64 {
        self.blocks.len() as i64
    }

    /// The profile counters every replay of this trace reports.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// What the optimizer did to this trace.
    #[must_use]
    pub fn stats(&self) -> &OptStats {
        &self.stats
    }

    /// Block `b`'s global offsets, one per global buffer: empty when
    /// the block holds its own program or moves no buffer.
    #[inline]
    pub(crate) fn block_offsets(&self, b: usize) -> &[u32] {
        let n = self.n_globals;
        match self.offsets.get(b * n..(b + 1) * n) {
            Some(off) if off.iter().any(|&d| d != 0) => off,
            _ => &[],
        }
    }

    /// Resident payload bytes: step list, pattern table, block and
    /// offset tables and buffer metadata (length-based, so the figure
    /// is deterministic).
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.steps.len() * std::mem::size_of::<OTp>()
            + self.gather.len() * std::mem::size_of::<u32>()
            + self.tiles.len() * std::mem::size_of::<[u32; 3]>()
            + self.blocks.len() * std::mem::size_of::<(u32, u32)>()
            + self.offsets.len() * std::mem::size_of::<u32>()
            + self.buf_lens.len() * std::mem::size_of::<usize>()
            + self
                .params
                .iter()
                .map(|(_, name, _)| std::mem::size_of::<(TensorId, String, usize)>() + name.len())
                .sum::<usize>()
    }

    /// Checks the optimizer's address contract against `raw`, the
    /// trace this one was optimized from. The private-buffer renaming
    /// π is recomputed from `raw`'s first block and must permute every
    /// buffer's addresses. Then every operand span, decoded element by
    /// element through the pattern table, must yield exactly π of the
    /// addresses `raw` recorded for it — concatenated across fused
    /// steps and across the MMAs of a tile step, with the ldmatrix
    /// permutation composed, and in matrix order for MMAs. The
    /// one exception is a copy between two buffers, which may decode to
    /// its recorded `(source, destination)` pairs in another order when
    /// no destination repeats ([`CopyOrders`]). Dead fills are the only
    /// raw steps that may vanish. A block-uniform trace decodes block
    /// `b` through block `b`'s offsets, as replay runs it.
    ///
    /// # Errors
    ///
    /// A non-bijective π, or the first block and step whose decoded
    /// addresses differ or whose raw MMA has an unfilled fragment slot.
    pub fn check_addresses(&self, raw: &Trace) -> Result<(), String> {
        if raw.blocks.len() != self.blocks.len() {
            return Err(format!(
                "{} raw blocks, {} optimized",
                raw.blocks.len(),
                self.blocks.len()
            ));
        }
        let first =
            raw.blocks.first().map_or(&[][..], |&(s, e)| &raw.steps[s as usize..e as usize]);
        let rename = Renaming::of_block(first, &raw.addrs, &raw.buf_lens, raw.n_globals);
        rename.check_bijection(&raw.buf_lens)?;
        for (b, (&(rs, re), &(os, oe))) in raw.blocks.iter().zip(&self.blocks).enumerate() {
            let mut pending = raw.steps[rs as usize..re as usize].iter().peekable();
            let off = self.block_offsets(b);
            for (i, step) in self.steps[os as usize..oe as usize].iter().enumerate() {
                let step = &step.shifted(off);
                let at = |what: &str| format!("block {b} step {i} ({step:?}): {what}");
                let fill = match *step {
                    OTp::Fill { buf } => Some(buf),
                    _ => None,
                };
                let (mut got, mut spans) = (Vec::<Vec<u32>>::new(), *step);
                for_each_span(&mut spans, &self.tiles, |op, span, n| {
                    if got.len() <= op {
                        got.resize_with(op + 1, Vec::new);
                    }
                    got[op].extend((0..n as usize).map(|e| span.at(&self.gather, e) as u32));
                });
                // Consume raw steps until they cover this step's operands,
                // skipping fills that dead-fill elimination dropped.
                let mut want: Vec<Vec<u32>> = Vec::new();
                loop {
                    while let Some(&&TOp::Fill { buf }) = pending.peek() {
                        if fill == Some(buf) {
                            break;
                        }
                        pending.next();
                    }
                    let next = pending.next().ok_or_else(|| at("raw steps exhausted"))?;
                    let ops = raw_operands(next, &raw.addrs, &rename).map_err(at)?;
                    if want.is_empty() {
                        want = ops;
                    } else if ops.len() == want.len() {
                        want.iter_mut().zip(ops).for_each(|(w, o)| w.extend(o));
                    } else {
                        return Err(at("fused across different step kinds"));
                    }
                    if want.first().map_or(0, Vec::len) >= got.first().map_or(0, Vec::len) {
                        break;
                    }
                }
                let reordered = matches!(*step, OTp::Copy { src, dst, .. } if src != dst)
                    && is_permuted_copy(&want, &got);
                if want != got && !reordered {
                    return Err(at("decoded addresses differ from the recording"));
                }
            }
            if pending.any(|r| !matches!(r, TOp::Fill { .. })) {
                return Err(format!("block {b}: raw steps left over"));
            }
        }
        Ok(())
    }
}

/// Whether the decoded copy operands `got` move exactly the recorded
/// `(source, destination)` pairs of `want`, in another order, onto
/// pairwise-distinct destinations. Only then is reordering a copy
/// between two buffers unobservable: every element still reads the
/// value it read, and no destination is written twice.
fn is_permuted_copy(want: &[Vec<u32>], got: &[Vec<u32>]) -> bool {
    let pairs = |ops: &[Vec<u32>]| match ops {
        [s, d] if s.len() == d.len() => {
            let mut p: Vec<(u32, u32)> = d.iter().copied().zip(s.iter().copied()).collect();
            p.sort_unstable();
            Some(p)
        }
        _ => None,
    };
    match (pairs(want), pairs(got)) {
        (Some(w), Some(g)) => w == g && w.windows(2).all(|p| p[0].0 != p[1].0),
        _ => false,
    }
}

/// The address vectors raw `step` contributes, operand by operand and
/// renamed by `rn`, in the shape its optimized form decodes them: an
/// MMA in matrix order ([`dense_addrs`]).
fn raw_operands(step: &TOp, ar: &[u32], rn: &Renaming) -> Result<Vec<Vec<u32>>, &'static str> {
    let sl =
        |buf: u32, start: u32, n: u32| (buf, ar[start as usize..(start + n) as usize].to_vec());
    let ops = match *step {
        TOp::Fill { .. } => Vec::new(),
        TOp::Copy { src, dst, sa, da, n, .. }
        | TOp::Unary { src, dst, sa, da, n, .. }
        | TOp::Shfl { src, dst, sa, da, lanes: n, .. } => vec![sl(src, sa, n), sl(dst, da, n)],
        TOp::Binary { a, b, dst: c, aa, ba, da: ca, n, .. }
        | TOp::Fma { a, b, c, aa, ba, ca, n } => vec![sl(a, aa, n), sl(b, ba, n), sl(c, ca, n)],
        TOp::Init { dst, da, n, .. } => vec![sl(dst, da, n)],
        TOp::Reduce { src, dst, sa, da, groups, per, .. } => {
            vec![sl(src, sa, groups * per), sl(dst, da, groups)]
        }
        TOp::LdMatrix { num, trans, src, dst, sa, sper, da, dper, lanes } => {
            let (sv, dv) = ldmatrix_copy(ar, (num, trans), (sa, sper), (da, dper), lanes);
            vec![(src, sv), (dst, dv)]
        }
        TOp::Mma { m16, a, b, c, aa, aper, ba, bper, ca, cper, lanes } => {
            let [av, bv, cv] = dense_addrs(ar, m16, (aa, aper, ba, bper, ca, cper), lanes)?;
            vec![(a, av), (b, bv), (c, cv)]
        }
    };
    Ok(ops
        .into_iter()
        .map(|(buf, mut addrs)| {
            rn.apply(buf, &mut addrs);
            addrs
        })
        .collect())
}

/// Classifies a flat (lane-major flattened) address slice, falling back
/// to a staged gather.
fn classify_flat(addrs: &[u32], stage: &mut Vec<u32>) -> Span {
    if let Some(s) = affine_1d(addrs) {
        return s;
    }
    if let Some(s) = affine_periodic(addrs) {
        return s;
    }
    stage_gather(addrs, stage)
}

/// Flat ops lose their lane structure when the recorder flattens
/// per-thread work lane-major, so an interleaved access pattern (lane
/// `li` touching `col·lanes + li`) reads as a two-level periodic
/// progression. Recover it: the first stride break fixes the row
/// length, then the implied `(rows, per)` grid is verified exactly.
fn affine_periodic(a: &[u32]) -> Option<Span> {
    if a.len() < 4 {
        return None;
    }
    let stride = i64::from(a[1]) - i64::from(a[0]);
    let per = a.windows(2).position(|w| i64::from(w[1]) - i64::from(w[0]) != stride)? + 1;
    if !a.len().is_multiple_of(per) {
        return None;
    }
    affine_2d(a, a.len() / per, per)
}

/// Classifies a lane-structured slice (`lanes` rows of `per`): 1D
/// affine first (it subsumes the 2D form when `lane == per·stride`),
/// then lane-major 2D, then gather.
fn classify_lanes(addrs: &[u32], lanes: usize, per: usize, stage: &mut Vec<u32>) -> Span {
    if let Some(s) = affine_1d(addrs) {
        return s;
    }
    if let Some(s) = affine_2d(addrs, lanes, per) {
        return s;
    }
    stage_gather(addrs, stage)
}

/// Appends a residual slice to the block's staging buffer verbatim.
/// The staged span (`start` into the staging buffer, `base` 0) lives
/// only until the block's peepholes have run; then
/// [`Patterns::intern`] rewrites it to its table pattern.
fn stage_gather(addrs: &[u32], stage: &mut Vec<u32>) -> Span {
    let start = u32::try_from(stage.len()).expect("block staging exceeds u32 range");
    stage.extend_from_slice(addrs);
    Span::Gather { base: 0, start }
}

/// The per-trace gather pattern table: every distinct base-relative
/// residual slice is stored once, however many blocks and tile offsets
/// reuse it.
#[derive(Default)]
struct Patterns {
    table: Vec<u32>,
    /// Pattern hash → its start in `table`. A hit is verified entry by
    /// entry, so a hash collision only stores a duplicate pattern; it
    /// never yields a wrong address.
    index: HashMap<u64, u32>,
}

impl Patterns {
    /// The interned span for `addrs`: `base` is the slice minimum and
    /// the table holds `addrs[i] - base`. Allocates only when the
    /// pattern is new.
    fn intern(&mut self, addrs: &[u32]) -> Span {
        let (base, start) = self.place(addrs);
        Span::Gather { base, start }
    }

    /// `(base, start)` of `addrs` interned: the slice minimum and where
    /// the table holds `addrs[i] - base`.
    fn place(&mut self, addrs: &[u32]) -> (u32, u32) {
        let base = addrs.iter().copied().min().unwrap_or(0);
        let hash = pattern_hash(addrs, base);
        if let Some(&start) = self.index.get(&hash) {
            let s = start as usize;
            let same = self
                .table
                .get(s..s + addrs.len())
                .is_some_and(|p| p.iter().zip(addrs).all(|(&rel, &a)| rel == a - base));
            if same {
                return (base, start);
            }
        }
        let start = u32::try_from(self.table.len()).expect("pattern table exceeds u32 range");
        self.table.extend(addrs.iter().map(|&a| a - base));
        self.index.insert(hash, start);
        (base, start)
    }
}

/// Canonical copy order. A copy between two buffers onto
/// pairwise-distinct destinations may run its element pairs in any
/// order, so a residual copy is sorted by destination. Then, when both
/// sides fall into aligned contiguous rows of 8, 4 or 2 elements (the
/// 16-byte rows an XOR swizzle moves whole), both become [`Span::Rows`]
/// with one pattern-table entry per row. Sorted destinations in aligned
/// rows never repeat (a repeat would sit next to itself), so only a
/// copy whose order cannot be observed is ever reordered.
#[derive(Default)]
struct CopyOrders {
    /// Destination-pattern hash → the base-relative pattern and its
    /// sorting permutation. Each fragment layout is sorted once, however
    /// many steps reuse it.
    memo: HashMap<u64, (Vec<u32>, Vec<u32>)>,
    /// Scratch: the copy's source and destination addresses as
    /// recorded, then in destination order, then one side's row bases.
    src: Vec<u32>,
    dst: Vec<u32>,
    sorted: [Vec<u32>; 2],
    bases: Vec<u32>,
}

impl CopyOrders {
    /// The copy `sa → da` of `n` elements, staged gathers read from
    /// `stage`, as row spans in destination order; `None` leaves it in
    /// recorded order.
    fn rows(
        &mut self,
        (sa, da, n): (Span, Span, u32),
        stage: &[u32],
        patterns: &mut Patterns,
    ) -> Option<(Span, Span)> {
        let n = n as usize;
        let expand = |span: Span, out: &mut Vec<u32>| {
            out.clear();
            match span {
                Span::Gather { start, .. } => {
                    out.extend_from_slice(&stage[start as usize..start as usize + n]);
                }
                _ => out.extend((0..n).map(|i| span.at(&[], i) as u32)),
            }
        };
        expand(sa, &mut self.src);
        expand(da, &mut self.dst);
        let perm = sort_order(&mut self.memo, &self.dst)?;
        let [s, d] = &mut self.sorted;
        for (sorted, recorded) in [(&mut *s, &self.src), (&mut *d, &self.dst)] {
            sorted.clear();
            sorted.extend(perm.iter().map(|&i| recorded[i as usize]));
        }
        let len =
            [8, 4, 2].into_iter().find(|&len| aligned_rows(s, len) && aligned_rows(d, len))?;
        let bases = &mut self.bases;
        Some((row_span(s, len, patterns, bases), row_span(d, len, patterns, bases)))
    }
}

/// The permutation sorting `d` ascending, memoized in `memo` per
/// base-relative pattern (see [`CopyOrders::memo`]); `None` for an
/// empty `d`.
fn sort_order<'m>(
    memo: &'m mut HashMap<u64, (Vec<u32>, Vec<u32>)>,
    d: &[u32],
) -> Option<&'m [u32]> {
    let base = *d.iter().min()?;
    let hash = pattern_hash(d, base);
    let known = memo.get(&hash).is_some_and(|(p, _)| {
        p.len() == d.len() && p.iter().zip(d).all(|(&rel, &a)| rel == a - base)
    });
    if !known {
        let len = u32::try_from(d.len()).expect("copy width fits u32");
        let mut perm: Vec<u32> = (0..len).collect();
        perm.sort_unstable_by_key(|&i| d[i as usize]);
        let rel = d.iter().map(|&a| a - base).collect();
        memo.insert(hash, (rel, perm));
    }
    Some(&memo[&hash].1)
}

/// Whether `v` is a sequence of contiguous `len`-element rows, each
/// starting at a multiple of `len`.
fn aligned_rows(v: &[u32], len: usize) -> bool {
    v.len().is_multiple_of(len)
        && v.chunks_exact(len).all(|row| {
            (row[0] as usize).is_multiple_of(len)
                && row.iter().zip(row[0]..).all(|(&a, want)| a == want)
        })
}

/// One side of a canonical copy, `v` in rows of `len` (see
/// [`aligned_rows`]), as a [`Span::Rows`] over its interned row bases.
fn row_span(v: &[u32], len: usize, patterns: &mut Patterns, bases: &mut Vec<u32>) -> Span {
    bases.clear();
    bases.extend(v.iter().step_by(len));
    let (base, start) = patterns.place(bases);
    Span::Rows { base, start, len: len as u32 }
}

/// Multiply-rotate hash of `addrs - base` and its length, over four
/// independent lanes so the multiply latency overlaps (recording time
/// scans every residual address once through here).
fn pattern_hash(addrs: &[u32], base: u32) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mix = |h: u64, v: u64| (h.rotate_left(5) ^ v).wrapping_mul(K);
    let mut lanes = [addrs.len() as u64, 1, 2, 3];
    let mut quads = addrs.chunks_exact(4);
    for q in &mut quads {
        for (h, &a) in lanes.iter_mut().zip(q) {
            *h = mix(*h, u64::from(a - base));
        }
    }
    for (h, &a) in lanes.iter_mut().zip(quads.remainder()) {
        *h = mix(*h, u64::from(a - base));
    }
    lanes.iter().fold(0, |acc, &h| mix(acc, h))
}

/// `Some(Affine)` iff the whole slice is one arithmetic progression.
fn affine_1d(a: &[u32]) -> Option<Span> {
    let Some((&first, rest)) = a.split_first() else {
        return Some(Span::Affine { base: 0, stride: 0 });
    };
    let stride = rest.first().map_or(0, |&x| i64::from(x) - i64::from(first));
    let stride32 = i32::try_from(stride).ok()?;
    let mut want = i64::from(first);
    for &x in a {
        if i64::from(x) != want {
            return None;
        }
        want += stride;
    }
    Some(Span::Affine { base: first, stride: stride32 })
}

/// `Some(Lanes)` iff the slice is a lane-major 2D progression:
/// `a[li·per + j] = base + li·lane + j·stride`.
fn affine_2d(a: &[u32], lanes: usize, per: usize) -> Option<Span> {
    if lanes * per != a.len() || per == 0 || lanes < 2 || per < 1 {
        return None;
    }
    let base = i64::from(a[0]);
    let stride = if per > 1 { i64::from(a[1]) - base } else { 0 };
    let lane = i64::from(a[per]) - base;
    let (lane32, stride32) = (i32::try_from(lane).ok()?, i32::try_from(stride).ok()?);
    for li in 0..lanes {
        let row = base + li as i64 * lane;
        for j in 0..per {
            if i64::from(a[li * per + j]) != row + j as i64 * stride {
                return None;
            }
        }
    }
    Some(Span::Lanes { base: a[0], lane: lane32, stride: stride32, per: u32::try_from(per).ok()? })
}

/// Whether span `b` continues span `a` after `n` elements — the fusion
/// precondition. Staged gather spans chain when their staging runs are
/// adjacent (classification appends them in step order, so this is
/// exact).
fn chains(a: Span, b: Span, n: u32) -> bool {
    match (a, b) {
        (Span::Affine { base: b1, stride: s1 }, Span::Affine { base: b2, stride: s2 }) => {
            s1 == s2 && i64::from(b2) == i64::from(b1) + i64::from(n) * i64::from(s1)
        }
        (Span::Gather { start: g1, .. }, Span::Gather { start: g2, .. }) => g2 == g1 + n,
        _ => false,
    }
}

/// Tries to merge `next` into `prev` (adjacent steps of one block).
/// Only flat element-wise shapes fuse; collectives keep their lane
/// structure and `Reduce` its group structure.
fn try_fuse(prev: &mut OTp, next: &OTp) -> bool {
    match (prev, next) {
        (
            OTp::Copy { src, dst, sa, da, n },
            OTp::Copy { src: s2, dst: d2, sa: sa2, da: da2, n: n2 },
        ) if src == s2 && dst == d2 && chains(*sa, *sa2, *n) && chains(*da, *da2, *n) => {
            *n += n2;
            true
        }
        (
            OTp::Unary { op, src, dst, sa, da, n },
            OTp::Unary { op: o2, src: s2, dst: d2, sa: sa2, da: da2, n: n2 },
        ) if op == o2
            && src == s2
            && dst == d2
            && chains(*sa, *sa2, *n)
            && chains(*da, *da2, *n) =>
        {
            *n += n2;
            true
        }
        (
            OTp::Binary { op, a, b, dst, aa, ba, da, n },
            OTp::Binary { op: o2, a: a2, b: b2, dst: d2, aa: aa2, ba: ba2, da: da2, n: n2 },
        ) if op == o2
            && a == a2
            && b == b2
            && dst == d2
            && chains(*aa, *aa2, *n)
            && chains(*ba, *ba2, *n)
            && chains(*da, *da2, *n) =>
        {
            *n += n2;
            true
        }
        (
            OTp::Fma { a, b, c, aa, ba, ca, n },
            OTp::Fma { a: a2, b: b2, c: c2, aa: aa2, ba: ba2, ca: ca2, n: n2 },
        ) if a == a2
            && b == b2
            && c == c2
            && chains(*aa, *aa2, *n)
            && chains(*ba, *ba2, *n)
            && chains(*ca, *ca2, *n) =>
        {
            *n += n2;
            true
        }
        (OTp::Init { value, dst, da, n }, OTp::Init { value: v2, dst: d2, da: da2, n: n2 })
            if value.to_bits() == v2.to_bits() && dst == d2 && chains(*da, *da2, *n) =>
        {
            *n += n2;
            true
        }
        _ => false,
    }
}

/// How one step relates to buffer `buf` — the dead-fill query.
enum Touch {
    /// The step does not reference `buf`.
    None,
    /// The step's **first** effect on `buf` is a write that overwrites
    /// the entire buffer without reading it.
    FullOverwrite,
    /// Anything else: a read, a partial write, or a read-modify-write.
    Other,
}

/// Whether `span` writes exactly `[0, len)` left-to-right.
fn covers(span: Span, n: u32, len: usize) -> bool {
    n as usize == len && span == Span::Affine { base: 0, stride: 1 }
}

fn touch(step: &OTp, buf: u32, len: usize) -> Touch {
    let write = |dst: u32, da: Span, n: u32, reads: &[u32]| {
        if reads.contains(&buf) {
            Touch::Other
        } else if dst == buf {
            if covers(da, n, len) {
                Touch::FullOverwrite
            } else {
                Touch::Other
            }
        } else {
            Touch::None
        }
    };
    match *step {
        OTp::Fill { buf: b } => {
            if b == buf {
                Touch::FullOverwrite
            } else {
                Touch::None
            }
        }
        OTp::Copy { src, dst, da, n, .. } => write(dst, da, n, &[src]),
        OTp::Unary { src, dst, da, n, .. } => write(dst, da, n, &[src]),
        OTp::Binary { a, b, dst, da, n, .. } => write(dst, da, n, &[a, b]),
        OTp::Init { dst, da, n, .. } => write(dst, da, n, &[]),
        OTp::Reduce { src, dst, da, groups, .. } => write(dst, da, groups, &[src]),
        // Fma reads its accumulator; collectives write lane fragments
        // (never a provable full overwrite worth the analysis).
        OTp::Fma { a, b, c, .. } => {
            if a == buf || b == buf || c == buf {
                Touch::Other
            } else {
                Touch::None
            }
        }
        OTp::Shfl { src, dst, .. } => {
            if src == buf || dst == buf {
                Touch::Other
            } else {
                Touch::None
            }
        }
        OTp::MmaTile { a, b, c, .. } => {
            if a == buf || b == buf || c == buf {
                Touch::Other
            } else {
                Touch::None
            }
        }
    }
}

/// A `Fill` at `i` is dead iff the first later step in the block that
/// touches its buffer fully overwrites it without reading it first.
/// (Untouched buffers keep their fill: a later block could read them.)
fn fill_is_dead(steps: &[OTp], i: usize, buf: u32, len: usize) -> bool {
    for step in &steps[i + 1..] {
        match touch(step, buf, len) {
            Touch::None => {}
            Touch::FullOverwrite => return true,
            Touch::Other => return false,
        }
    }
    false
}

/// One fusion sweep over a block's steps, in place.
fn fuse_block(steps: &mut Vec<OTp>, fused: &mut usize) {
    let mut out: Vec<OTp> = Vec::with_capacity(steps.len());
    for step in steps.drain(..) {
        if let Some(last) = out.last_mut() {
            if try_fuse(last, &step) {
                *fused += 1;
                continue;
            }
        }
        out.push(step);
    }
    *steps = out;
}

/// The ldmatrix load/shuffle/store as one flat permuted copy: store
/// `(li, v)` takes matrix element (p=v/2, c=v%2, row/col from `trans`),
/// which was loaded from source lane p*8+row element col. Returns the
/// composed `(source, destination)` address vectors.
fn ldmatrix_copy(
    ar: &[u32],
    (num, trans): (u8, bool),
    (sa, sper): (u32, u32),
    (da, dper): (u32, u32),
    lanes: u32,
) -> (Vec<u32>, Vec<u32>) {
    let numu = num as usize;
    let n = lanes as usize * 2 * numu;
    let mut sv = Vec::with_capacity(n);
    let mut dv = Vec::with_capacity(n);
    for li in 0..lanes as usize {
        for v in 0..2 * numu {
            let (p, cc) = (v / 2, v % 2);
            let (row, col) =
                if trans { (2 * (li % 4) + cc, li / 4) } else { (li / 4, 2 * (li % 4) + cc) };
            sv.push(ar[sa as usize + (p * 8 + row) * sper as usize + col]);
            dv.push(ar[da as usize + li * dper as usize + v]);
        }
    }
    (sv, dv)
}

/// Composes an MMA's fragment shuffle into matrix-order `[A, B, C]`
/// address vectors; an error when some matrix slot stays unwritten (a
/// partial warp, which Table-2 matching on whole lane groups never
/// yields). Slots are filled in the reference interpreter's lane-major load
/// order, so a hypothetical duplicate slot resolves to the same last
/// writer.
fn dense_addrs(
    ar: &[u32],
    m16: bool,
    (aa, aper, ba, bper, ca, cper): (u32, u32, u32, u32, u32, u32),
    lanes: u32,
) -> Result<[Vec<u32>; 3], &'static str> {
    use graphene_ir::atomic::fragments as frag;
    let (m, n, k) = dense_dims(m16);
    let (an, bn, cn) = if m16 { (8, 4, 4) } else { (4, 4, 8) };
    let mut av = vec![u32::MAX; m * k];
    let mut bv = vec![u32::MAX; k * n];
    let mut cv = vec![u32::MAX; m * n];
    for li in 0..lanes as usize {
        for v in 0..an {
            let (mi, ki) = if m16 { frag::mma_16816_a(li, v) } else { frag::mma_884_a(li, v) };
            av[mi * k + ki] = ar[aa as usize + li * aper as usize + v];
        }
        for v in 0..bn {
            let (ki, ni) = if m16 { frag::mma_16816_b(li, v) } else { frag::mma_884_b(li, v) };
            bv[ki * n + ni] = ar[ba as usize + li * bper as usize + v];
        }
        for v in 0..cn {
            let (mi, ni) = if m16 { frag::mma_16816_c(li, v) } else { frag::mma_884_c(li, v) };
            cv[mi * n + ni] = ar[ca as usize + li * cper as usize + v];
        }
    }
    if av.contains(&u32::MAX) || bv.contains(&u32::MAX) || cv.contains(&u32::MAX) {
        return Err("a fragment slot is unfilled");
    }
    Ok([av, bv, cv])
}

/// `(M, N, K)` of a dense tensor-core step: m16n8k16 or m8n8k4.
fn dense_dims(m16: bool) -> (usize, usize, usize) {
    if m16 {
        (16, 8, 16)
    } else {
        (8, 8, 4)
    }
}

/// Visits every address operand of `step` as `f(operand, span, len)`.
/// A tile step visits its MMAs in trace order, each as the contiguous
/// A, B and C rows `tiles` holds (operands 0, 1 and 2), so its operands
/// decode to the concatenation of its MMAs' rows. Those rows are never
/// gathers, and edits to them are dropped.
fn for_each_span(step: &mut OTp, tiles: &[[u32; 3]], mut f: impl FnMut(usize, &mut Span, u32)) {
    match step {
        OTp::Fill { .. } => {}
        OTp::Copy { sa, da, n, .. }
        | OTp::Unary { sa, da, n, .. }
        | OTp::Shfl { sa, da, lanes: n, .. } => {
            f(0, sa, *n);
            f(1, da, *n);
        }
        OTp::Binary { aa, ba, da: ca, n, .. } | OTp::Fma { aa, ba, ca, n, .. } => {
            f(0, aa, *n);
            f(1, ba, *n);
            f(2, ca, *n);
        }
        OTp::Init { da, n, .. } => f(0, da, *n),
        OTp::Reduce { sa, da, groups, per, .. } => {
            f(0, sa, *groups * *per);
            f(1, da, *groups);
        }
        OTp::MmaTile { m16, tiles: (start, end), .. } => {
            let (m, n, k) = dense_dims(*m16);
            let lens = [m * k, k * n, m * n];
            for bases in &tiles[*start as usize..*end as usize] {
                for (op, (&base, &len)) in bases.iter().zip(&lens).enumerate() {
                    f(op, &mut Span::Affine { base, stride: 1 }, len as u32);
                }
            }
        }
    }
}

/// The optimize-time renaming π of CTA-private buffers. Shared and
/// register numbering never leaves a CTA — replay returns only the
/// globals, and counters were captured at record time — so any
/// per-buffer bijection replays bit-identically. π lays out every
/// private buffer an MMA touches in MMA order: the
/// matrix-order operand addresses ([`dense_addrs`]) of the first block
/// take consecutive slots in first-use order, so each dense operand
/// becomes one contiguous row. Unused addresses follow in ascending
/// order; every other buffer keeps the identity.
#[derive(Debug, Default)]
struct Renaming {
    /// `slot[buf][addr]` = π(addr); empty for an identity buffer.
    slot: Vec<Vec<u32>>,
}

impl Renaming {
    /// π derived from one block's raw steps (`ar` their arena).
    fn of_block(raw: &[TOp], ar: &[u32], buf_lens: &[usize], n_globals: usize) -> Self {
        let mut slot: Vec<Vec<u32>> = vec![Vec::new(); buf_lens.len()];
        let mut next = vec![0u32; buf_lens.len()];
        for step in raw {
            let TOp::Mma { m16, a, b, c, aa, aper, ba, bper, ca, cper, lanes } = *step else {
                continue;
            };
            let Ok(ops) = dense_addrs(ar, m16, (aa, aper, ba, bper, ca, cper), lanes) else {
                continue;
            };
            for (buf, addrs) in [a, b, c].into_iter().zip(ops) {
                let b = buf as usize;
                if b < n_globals {
                    continue;
                }
                let map = &mut slot[b];
                if map.is_empty() {
                    *map = vec![u32::MAX; buf_lens[b]];
                }
                for a in addrs {
                    let e = &mut map[a as usize];
                    if *e == u32::MAX {
                        *e = next[b];
                        next[b] += 1;
                    }
                }
            }
        }
        for (map, n) in slot.iter_mut().zip(&mut next) {
            for e in map.iter_mut().filter(|e| **e == u32::MAX) {
                *e = *n;
                *n += 1;
            }
        }
        Renaming { slot }
    }

    /// π of buffer `buf`, or `None` for the identity.
    fn map(&self, buf: u32) -> Option<&[u32]> {
        self.slot.get(buf as usize).map(Vec::as_slice).filter(|m| !m.is_empty())
    }

    /// Renames `addrs`, addresses into `buf`, in place.
    fn apply(&self, buf: u32, addrs: &mut [u32]) {
        if let Some(map) = self.map(buf) {
            addrs.iter_mut().for_each(|a| *a = map[*a as usize]);
        }
    }

    /// `raw`, addresses into `buf`, renamed — through `scratch` unless
    /// `buf` keeps the identity.
    fn renamed<'s>(&self, buf: u32, raw: &'s [u32], scratch: &'s mut Vec<u32>) -> &'s [u32] {
        match self.map(buf) {
            None => raw,
            Some(map) => {
                scratch.clear();
                scratch.extend(raw.iter().map(|&a| map[a as usize]));
                scratch
            }
        }
    }

    /// Checks that every buffer's π permutes `0..len`.
    fn check_bijection(&self, buf_lens: &[usize]) -> Result<(), String> {
        for (b, map) in self.slot.iter().enumerate().filter(|(_, m)| !m.is_empty()) {
            if map.len() != buf_lens[b] {
                return Err(format!(
                    "buffer {b}: renames {} of {} addresses",
                    map.len(),
                    buf_lens[b]
                ));
            }
            let mut seen = vec![false; map.len()];
            for (a, &p) in map.iter().enumerate() {
                match seen.get_mut(p as usize) {
                    Some(s) if !*s => *s = true,
                    _ => {
                        return Err(format!(
                            "buffer {b}: address {a} renames to a taken or out-of-range slot {p}"
                        ))
                    }
                }
            }
        }
        Ok(())
    }
}

/// Renames, then classifies, one block's operand address slices.
struct Classifier<'a> {
    ar: &'a [u32],
    n_globals: usize,
    rename: &'a Renaming,
    /// Holds a renamed slice while it is classified.
    scratch: &'a mut Vec<u32>,
    stage: &'a mut Vec<u32>,
}

impl Classifier<'_> {
    /// A flat operand: `n` addresses into `buf` recorded at arena
    /// offset `start` (see [`classify_flat`]).
    fn flat(&mut self, buf: u32, start: u32, n: u32) -> Span {
        let raw = &self.ar[start as usize..(start + n) as usize];
        classify_flat(self.rename.renamed(buf, raw, self.scratch), self.stage)
    }

    /// A lane-structured operand of `lanes` rows of `per` (see
    /// [`classify_lanes`]).
    fn lanes(&mut self, buf: u32, start: u32, lanes: u32, per: u32) -> Span {
        let raw = &self.ar[start as usize..(start + lanes * per) as usize];
        let addrs = self.rename.renamed(buf, raw, self.scratch);
        classify_lanes(addrs, lanes as usize, per as usize, self.stage)
    }

    /// An operand composed at optimize time (ldmatrix), classified
    /// flat.
    fn composed(&mut self, buf: u32, mut addrs: Vec<u32>) -> Span {
        self.rename.apply(buf, &mut addrs);
        classify_flat(&addrs, self.stage)
    }

    /// The `[a, b, c]` row bases of an MMA, which an [`OTp::MmaTile`]
    /// computes in place; an error naming why it cannot: every buffer
    /// must be private, `c` distinct from `a` and `b`, and every
    /// renamed matrix-order operand ([`dense_addrs`]) one contiguous
    /// row.
    fn tile(
        &self,
        m16: bool,
        bufs: [u32; 3],
        addrs: (u32, u32, u32, u32, u32, u32),
        lanes: u32,
    ) -> Result<[u32; 3], &'static str> {
        let [a, b, c] = bufs;
        if bufs.iter().any(|&x| (x as usize) < self.n_globals) {
            return Err("an operand is not CTA-private");
        }
        if c == a || c == b {
            return Err("the accumulator aliases an operand");
        }
        let ops = dense_addrs(self.ar, m16, addrs, lanes)?;
        let mut bases = [0; 3];
        for ((base, buf), mut v) in bases.iter_mut().zip(bufs).zip(ops) {
            self.rename.apply(buf, &mut v);
            let Some(Span::Affine { base: row, stride: 1 }) = affine_1d(&v) else {
                return Err("an operand is not one contiguous row after renaming");
            };
            *base = row;
        }
        Ok(bases)
    }
}

/// Optimizes a recorded trace one block at a time. Blocks share only
/// the output step list and the gather pattern table, so a block can
/// be optimized as soon as it is recorded and its raw steps dropped.
#[derive(Default)]
struct BlockOptimizer {
    buf_lens: Vec<usize>,
    n_globals: usize,
    /// Fixed by the first block; transient (not part of the result).
    rename: Renaming,
    scratch: Vec<u32>,
    steps: Vec<OTp>,
    patterns: Patterns,
    tiles: Vec<[u32; 3]>,
    blocks: Vec<(u32, u32)>,
    block_steps: Vec<OTp>,
    /// The current block's residual slices, verbatim (see
    /// [`stage_gather`]).
    stage: Vec<u32>,
    orders: CopyOrders,
    stats: OptStats,
}

impl BlockOptimizer {
    fn new(buf_lens: Vec<usize>, n_globals: usize) -> Self {
        BlockOptimizer { buf_lens, n_globals, ..BlockOptimizer::default() }
    }

    /// Optimizes one block's raw steps, whose address operands index
    /// `ar`, and appends the result. The first block fixes the
    /// [`Renaming`] every block's operands go through.
    ///
    /// # Errors
    ///
    /// [`ExecError::BadInput`] naming the block, the step and the reason
    /// for the first MMA that cannot fold into a tile step.
    fn push_block(&mut self, raw: &[TOp], ar: &[u32]) -> Result<(), ExecError> {
        if self.blocks.is_empty() {
            self.rename = Renaming::of_block(raw, ar, &self.buf_lens, self.n_globals);
        }
        self.stats.steps_before += raw.len();
        self.block_steps.clear();
        let mut cls = Classifier {
            ar,
            n_globals: self.n_globals,
            rename: &self.rename,
            scratch: &mut self.scratch,
            stage: &mut self.stage,
        };
        let block = self.blocks.len();
        for (i, step) in raw.iter().enumerate() {
            let ot = match *step {
                // Every MMA joins the tile step before it, or starts one.
                TOp::Mma { m16, a, b, c, aa, aper, ba, bper, ca, cper, lanes } => {
                    let bases = cls
                        .tile(m16, [a, b, c], (aa, aper, ba, bper, ca, cper), lanes)
                        .map_err(|why| {
                            ExecError::BadInput(format!(
                                "block {block} step {i}: MMA cannot fold into a warp tile: {why}"
                            ))
                        })?;
                    self.tiles.push(bases);
                    let end =
                        u32::try_from(self.tiles.len()).expect("tile table exceeds u32 range");
                    self.stats.folded_mmas += 1;
                    match self.block_steps.last_mut() {
                        Some(OTp::MmaTile { m16: m2, a: a2, b: b2, c: c2, tiles: (_, e) })
                            if (*m2, *a2, *b2, *c2) == (m16, a, b, c) && *e + 1 == end =>
                        {
                            *e = end;
                        }
                        _ => {
                            self.stats.mma_tiles += 1;
                            let tiles = (end - 1, end);
                            self.block_steps.push(OTp::MmaTile { m16, a, b, c, tiles });
                        }
                    }
                    continue;
                }
                TOp::Fill { buf } => OTp::Fill { buf },
                TOp::Copy { src, dst, sa, da, n } => {
                    OTp::Copy { src, dst, sa: cls.flat(src, sa, n), da: cls.flat(dst, da, n), n }
                }
                TOp::Unary { op, src, dst, sa, da, n } => OTp::Unary {
                    op,
                    src,
                    dst,
                    sa: cls.flat(src, sa, n),
                    da: cls.flat(dst, da, n),
                    n,
                },
                TOp::Binary { op, a, b, dst, aa, ba, da, n } => OTp::Binary {
                    op,
                    a,
                    b,
                    dst,
                    aa: cls.flat(a, aa, n),
                    ba: cls.flat(b, ba, n),
                    da: cls.flat(dst, da, n),
                    n,
                },
                TOp::Fma { a, b, c, aa, ba, ca, n } => OTp::Fma {
                    a,
                    b,
                    c,
                    aa: cls.flat(a, aa, n),
                    ba: cls.flat(b, ba, n),
                    ca: cls.flat(c, ca, n),
                    n,
                },
                TOp::Init { value, dst, da, n } => {
                    OTp::Init { value, dst, da: cls.flat(dst, da, n), n }
                }
                TOp::Reduce { op, src, dst, sa, da, groups, per } => OTp::Reduce {
                    op,
                    src,
                    dst,
                    sa: cls.lanes(src, sa, groups, per),
                    da: cls.flat(dst, da, groups),
                    groups,
                    per,
                },
                // The ldmatrix load/shuffle/store is a fixed permutation:
                // composing it at optimize time turns the whole
                // collective into one flat permuted copy the bulk arms
                // (and the classifier) can chew on. Its source and
                // destination are distinct buffers (recording rejects
                // any other), so loads never interleave with stores.
                TOp::LdMatrix { num, trans, src, dst, sa, sper, da, dper, lanes } => {
                    let (sv, dv) = ldmatrix_copy(ar, (num, trans), (sa, sper), (da, dper), lanes);
                    let n = u32::try_from(sv.len()).expect("ldmatrix width fits u32");
                    OTp::Copy { src, dst, sa: cls.composed(src, sv), da: cls.composed(dst, dv), n }
                }
                TOp::Shfl { mask, src, dst, sa, da, lanes } => OTp::Shfl {
                    mask,
                    src,
                    dst,
                    sa: cls.flat(src, sa, lanes),
                    da: cls.flat(dst, da, lanes),
                    lanes,
                },
            };
            self.block_steps.push(ot);
        }
        fuse_block(&mut self.block_steps, &mut self.stats.fused_steps);
        // Dead-fill elimination, then one more fusion sweep: removing a
        // fill can make its neighbours adjacent and chainable.
        let dead: Vec<usize> = self
            .block_steps
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match *s {
                OTp::Fill { buf }
                    if fill_is_dead(&self.block_steps, i, buf, self.buf_lens[buf as usize]) =>
                {
                    Some(i)
                }
                _ => None,
            })
            .collect();
        if !dead.is_empty() {
            self.stats.dead_fills += dead.len();
            let mut keep = 0usize;
            let mut di = dead.iter().peekable();
            self.block_steps.retain(|_| {
                let drop = di.peek().is_some_and(|&&d| d == keep);
                if drop {
                    di.next();
                }
                keep += 1;
                !drop
            });
            fuse_block(&mut self.block_steps, &mut self.stats.fused_steps);
        }
        // Only now, with staged runs concatenated by fusion, does each
        // residual slice meet the shared pattern table.
        self.stats.gather_addrs += self.stage.len();
        let (stage, patterns) = (&self.stage, &mut self.patterns);
        for step in &mut self.block_steps {
            if let OTp::Copy { src, dst, sa, da, n } = step {
                let staged = matches!(sa, Span::Gather { .. }) || matches!(da, Span::Gather { .. });
                if src != dst && staged {
                    if let Some(rows) = self.orders.rows((*sa, *da, *n), stage, patterns) {
                        (*sa, *da) = rows;
                        self.stats.row_copies += 1;
                        self.stats.row_copy_elems += *n as usize;
                    }
                }
            }
            for_each_span(step, &self.tiles, |_, span, n| {
                if let Span::Gather { start, .. } = *span {
                    let s = start as usize;
                    *span = patterns.intern(&stage[s..s + n as usize]);
                }
            });
        }
        self.stage.clear();
        let start = u32::try_from(self.steps.len()).expect("optimized trace exceeds u32 steps");
        self.steps.extend_from_slice(&self.block_steps);
        let end = u32::try_from(self.steps.len()).expect("optimized trace exceeds u32 steps");
        self.blocks.push((start, end));
        Ok(())
    }

    /// The optimized trace; `addrs_before` and `bytes_before` describe
    /// the raw trace of the whole grid. `offsets` is empty when every
    /// block was pushed, else the offsets of the grid's blocks, which
    /// all replay the one pushed block's program.
    fn finish(
        self,
        (addrs_before, bytes_before): (usize, usize),
        params: Vec<(TensorId, String, usize)>,
        counters: Counters,
        offsets: Vec<u32>,
    ) -> OptTrace {
        let BlockOptimizer {
            buf_lens,
            n_globals,
            mut steps,
            patterns,
            mut tiles,
            mut blocks,
            mut stats,
            ..
        } = self;
        let mut gather = patterns.table;
        stats.recorded_blocks = blocks.len();
        if !offsets.is_empty() {
            let grid = offsets.len() / n_globals;
            blocks = vec![blocks[0]; grid];
        }
        stats.addrs_before = addrs_before;
        stats.bytes_before = bytes_before;
        stats.steps_after = steps.len();
        stats.pattern_addrs = gather.len();
        // Steps grow by doubling and fusion drops up to half of them:
        // give the slack back before the trace goes resident.
        steps.shrink_to_fit();
        gather.shrink_to_fit();
        tiles.shrink_to_fit();
        let mut opt = OptTrace {
            steps,
            gather,
            tiles,
            blocks,
            offsets,
            buf_lens,
            n_globals,
            params,
            counters,
            stats,
        };
        opt.stats.bytes_after = opt.resident_bytes();
        opt
    }
}

/// Lowers a recorded [`Trace`] into an [`OptTrace`]: classify every
/// operand slice, fuse adjacent chained steps, drop dead fills.
///
/// The result replays bit-identically to the input trace: descriptors
/// reproduce the exact recorded addresses (classification verifies
/// every element), fusion preserves element order, and a dead fill is
/// only removed when the buffer is fully overwritten before any read.
///
/// # Panics
///
/// On any trace [`record_opt_trace`] would refuse: one holding an MMA
/// that cannot fold into a warp tile. A trace [`crate::record_trace`]
/// recorded never does, because recording refuses the only such MMA
/// Table-2 matching admits (an accumulator aliasing an operand).
#[must_use]
pub fn optimize_trace(trace: &Trace) -> OptTrace {
    try_optimize_trace(trace).unwrap_or_else(|e| panic!("{e}"))
}

/// [`optimize_trace`], with an MMA that cannot fold as an error.
pub(crate) fn try_optimize_trace(trace: &Trace) -> Result<OptTrace, ExecError> {
    let mut opt = BlockOptimizer::new(trace.buf_lens.clone(), trace.n_globals);
    for &(bs, be) in &trace.blocks {
        opt.push_block(&trace.steps[bs as usize..be as usize], &trace.addrs)?;
    }
    let before = (trace.addrs.len(), trace.resident_bytes());
    Ok(opt.finish(before, trace.params.clone(), trace.counters, Vec::new()))
}

/// Records `plan` once and optimizes the trace in the same pass — the
/// cache-facing entry point ([`crate::trace::TraceCache`] keeps only
/// the optimized form resident).
///
/// When the plan proves the grid block-uniform
/// ([`KernelPlan::block_uniform`]), only block 0 is recorded and
/// optimized: every block replays its program with each global buffer
/// moved by that block's offset. Counters are block 0's scaled by the
/// grid, which is exact under the proof: every block runs the same
/// groups over the same shared addresses, global traffic counts
/// elements, and the unique footprint is static. Any other kernel, or
/// one whose offsets would move some block's accesses out of a buffer,
/// records every block, so an out-of-bounds kernel fails with the
/// error [`crate::execute_plan`] reports.
///
/// # Errors
///
/// Any [`ExecError`] the recording run hits, and
/// [`ExecError::BadInput`] for an MMA that cannot fold into a warp tile.
pub fn record_opt_trace(
    plan: &KernelPlan,
    bindings: &HashMap<String, i64>,
) -> Result<OptTrace, ExecError> {
    if let Some(offsets) = plan.block_offsets() {
        if let Some(opt) = record_block_zero(plan, bindings, &offsets)? {
            return Ok(opt);
        }
    }
    // Each block is optimized as soon as it is recorded and its raw
    // steps dropped, so the unoptimized trace — tens of times the
    // optimized size — is never held whole.
    let mut opt = BlockOptimizer::new(trace_buf_lens(plan), plan.globals.len());
    let (mut addrs, mut blocks) = (0, 0);
    let (_, counters) = record_blocks(plan, bindings, plan.grid as usize, |rec| {
        opt.push_block(&rec.steps, &rec.addrs)?;
        (addrs, blocks) = (addrs + rec.addrs.len(), blocks + 1);
        rec.steps.clear();
        rec.addrs.clear();
        Ok(())
    })?;
    let params = &plan.globals;
    let bytes = raw_resident_bytes(opt.stats.steps_before, addrs, blocks, &opt.buf_lens, params);
    Ok(opt.finish((addrs, bytes), params.clone(), counters, Vec::new()))
}

/// The block-uniform recording of [`record_opt_trace`]: records and
/// optimizes block 0 alone, given every block's global `offsets`
/// ([`KernelPlan::block_offsets`]). `None` when some block's offsets
/// would move one of block 0's accesses out of its buffer.
fn record_block_zero(
    plan: &KernelPlan,
    bindings: &HashMap<String, i64>,
    offsets: &[i64],
) -> Result<Option<OptTrace>, ExecError> {
    let (n, grid) = (plan.globals.len(), plan.grid as usize);
    let mut opt = BlockOptimizer::new(trace_buf_lens(plan), n);
    let (mut fits, mut addrs) = (false, 0);
    let (_, counters) = record_blocks(plan, bindings, 1, |rec| {
        let extents = rec.global_extents.iter().zip(&plan.globals);
        fits = offsets.chunks_exact(n).all(|off| {
            extents.clone().zip(off).all(|((&(lo, hi), (_, _, len)), &d)| {
                lo > hi || (i64::from(lo) + d >= 0 && i64::from(hi) + d < *len as i64)
            })
        });
        addrs = rec.addrs.len();
        if fits {
            opt.push_block(&rec.steps, &rec.addrs)?;
        }
        Ok(())
    })?;
    if !fits {
        return Ok(None);
    }
    let st = &mut opt.stats;
    for per_block in [
        &mut st.steps_before,
        &mut st.gather_addrs,
        &mut st.dead_fills,
        &mut st.fused_steps,
        &mut st.folded_mmas,
        &mut st.mma_tiles,
        &mut st.row_copies,
        &mut st.row_copy_elems,
    ] {
        *per_block *= grid;
    }
    let (params, addrs) = (&plan.globals, addrs * grid);
    let bytes = raw_resident_bytes(opt.stats.steps_before, addrs, grid, &opt.buf_lens, params);
    // Each offset is stored modulo 2³²: the bounds check above keeps
    // every shifted address inside its buffer.
    let offsets = offsets.iter().map(|&d| d as u32).collect();
    let counters = Counters {
        unique_global_read_bytes: plan.unique_read,
        unique_global_write_bytes: plan.unique_written,
        ..counters.scaled(grid as u64)
    };
    Ok(Some(opt.finish((addrs, bytes), params.clone(), counters, offsets)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{replay_opt, replay_opt_with};
    use crate::run::ExecMode;
    use graphene_ir::tensor::TensorId;
    use std::collections::HashMap;

    /// A two-buffer trace (global `out` of `len`, scratch of `len`)
    /// with the given steps and arena, as one block.
    fn plant(steps: Vec<TOp>, addrs: Vec<u32>, len: usize) -> Trace {
        let n = steps.len() as u32;
        Trace {
            steps,
            addrs,
            blocks: vec![(0, n)],
            buf_lens: vec![len, len],
            n_globals: 1,
            params: vec![(TensorId(0), "out".to_string(), len)],
            counters: Counters::default(),
        }
    }

    #[test]
    fn fully_affine_trace_drops_its_arena() {
        // scratch[i] = out[i] for i in 0..64 — contiguous both sides.
        let addrs: Vec<u32> = (0..64).chain(0..64).collect();
        let t = plant(vec![TOp::Copy { src: 0, dst: 1, sa: 0, da: 64, n: 64 }], addrs, 64);
        let o = optimize_trace(&t);
        assert_eq!(o.gather.len(), 0, "affine slices must not reach the pattern table");
        assert!(matches!(
            o.steps[0],
            OTp::Copy {
                sa: Span::Affine { base: 0, stride: 1 },
                da: Span::Affine { base: 0, stride: 1 },
                ..
            }
        ));
        assert!((o.stats().coalesced_fraction() - 1.0).abs() < 1e-12);
        assert!(o.stats().bytes_saved_fraction() > 0.0, "descriptors must shrink the trace");
    }

    #[test]
    fn pure_gather_pattern_is_stored_once() {
        // A swizzle-like permutation on both sides of one block's
        // element-wise step (a copy would be sorted into rows), and
        // again 8 elements further on in a second block: nothing
        // affine, one fragment layout used at two offsets.
        let id = |sa, da| TOp::Unary { op: UnaryOp::Identity, src: 0, dst: 1, sa, da, n: 8 };
        let perm: Vec<u32> = vec![0, 3, 1, 2, 7, 4, 6, 5];
        let shifted: Vec<u32> = perm.iter().map(|a| a + 8).collect();
        let addrs: Vec<u32> = [perm.as_slice(), &perm, &shifted, &shifted].concat();
        let mut t = plant(vec![id(0, 8), id(16, 24)], addrs, 16);
        t.blocks = vec![(0, 1), (1, 2)];
        let o = optimize_trace(&t);
        o.check_addresses(&t).expect("every operand decodes to its recorded addresses");
        assert_eq!(o.gather, perm, "the shared pattern must be stored once");
        assert!(matches!(
            o.steps[0],
            OTp::Unary {
                sa: Span::Gather { base: 0, start: 0 },
                da: Span::Gather { base: 0, start: 0 },
                ..
            }
        ));
        assert!(matches!(o.steps[1], OTp::Unary { sa: Span::Gather { base: 8, start: 0 }, .. }));
        assert_eq!((o.stats().gather_addrs, o.stats().pattern_addrs), (32, 8));
        assert!(o.stats().coalesced_fraction() < 1e-12);
    }

    /// Two blocks, each copying 8 rows of 8 from global `in` (128) to
    /// global `out` (320) in recorded lane order: element `j` of every
    /// row before element `j + 1` of any, so no two recorded neighbours
    /// are contiguous. Row `r` moves `srows[r]` → `drows[r]` (element
    /// offsets), shifted by 64 in block 1.
    fn planted_rows(srows: [u32; 8], drows: [u32; 8]) -> Trace {
        let mut addrs = Vec::new();
        for b in 0..2u32 {
            for rows in [srows, drows] {
                addrs.extend((0..8).flat_map(|j| rows.map(|r| b * 64 + r + j)));
            }
        }
        let copy = |sa, da| TOp::Copy { src: 0, dst: 1, sa, da, n: 64 };
        Trace {
            steps: vec![copy(0, 64), copy(128, 192)],
            addrs,
            blocks: vec![(0, 1), (1, 2)],
            buf_lens: vec![128, 320],
            n_globals: 2,
            params: vec![
                (TensorId(0), "in".to_string(), 128),
                (TensorId(1), "out".to_string(), 320),
            ],
            counters: Counters::default(),
        }
    }

    /// XOR-swizzled source rows; irregular destination rows.
    const SROWS: [u32; 8] = [40, 32, 56, 48, 8, 0, 24, 16];
    const DROWS: [u32; 8] = [0, 16, 24, 56, 88, 96, 160, 248];

    #[test]
    fn canonical_copy_replays_as_rows() {
        let t = planted_rows(SROWS, DROWS);
        let o = optimize_trace(&t);
        o.check_addresses(&t).expect("a destination-sorted copy permutes the recorded pairs");
        let st = o.stats();
        assert_eq!((st.row_copies, st.row_copy_elems), (2, 128));
        assert_eq!(st.gather_addrs, 256, "row-span elements still count as residual");
        assert_eq!(st.pattern_addrs, 16, "one entry per row, each side's pattern stored once");
        assert!(matches!(
            o.steps[0],
            OTp::Copy { sa: Span::Rows { len: 8, .. }, da: Span::Rows { len: 8, .. }, .. }
        ));
        let input: Vec<f32> = (0..128).map(|i| i as f32 * 0.25 - 7.0).collect();
        let mut want = vec![0.0f32; 320];
        for b in 0..2 {
            for (s, d) in SROWS.iter().zip(DROWS) {
                for j in 0..8 {
                    want[(b * 64 + d + j) as usize] = input[(b * 64 + s + j) as usize];
                }
            }
        }
        let inputs: HashMap<TensorId, Vec<f32>> = [(TensorId(0), input)].into();
        for mode in [ExecMode::Sequential, ExecMode::Workers(2)] {
            let got = replay_opt_with(&o, &inputs, mode).expect("replays").globals;
            assert_eq!(got[&TensorId(1)], want, "{mode:?}");
        }
    }

    #[test]
    fn moving_a_row_base_fails_the_address_check() {
        let t = planted_rows(SROWS, DROWS);
        let rows = |o: &OptTrace| match o.steps[0] {
            OTp::Copy {
                sa: Span::Rows { start: s, .. }, da: Span::Rows { start: d, .. }, ..
            } => (s as usize, d as usize),
            ref other => panic!("not a row copy: {other:?}"),
        };
        let (s, d) = rows(&optimize_trace(&t));
        for (what, swap) in [("swap two row bases", true), ("drop a row base", false)] {
            for (side, at) in [("source", s), ("destination", d)] {
                let mut bad = optimize_trace(&t);
                if swap {
                    bad.gather.swap(at + 1, at + 2);
                } else {
                    bad.gather[at + 1] = bad.gather[at + 2];
                }
                let err = bad.check_addresses(&t).expect_err(&format!("{what} on the {side}"));
                assert!(err.contains("decoded addresses differ"), "{what} on the {side}: {err}");
            }
        }
        // Moving a row on both sides at once is another order of the
        // same pairs: still a permutation of the recording.
        let mut both = optimize_trace(&t);
        both.gather.swap(s + 1, s + 2);
        both.gather.swap(d + 1, d + 2);
        both.check_addresses(&t).expect("a consistent reorder moves the same pairs");
    }

    #[test]
    fn repeated_destinations_and_same_buffer_copies_stay_gathers() {
        // Rows 0 and 4 both land on row 0: the later write must win,
        // so the copy keeps its recorded order.
        let mut drows = DROWS;
        drows[4] = 0;
        let t = planted_rows(SROWS, drows);
        let o = optimize_trace(&t);
        o.check_addresses(&t).expect("recorded order decodes exactly");
        assert_eq!(o.stats().row_copies, 0);
        assert!(matches!(o.steps[0], OTp::Copy { da: Span::Gather { .. }, .. }));
        let input: Vec<f32> = (0..128).map(|i| i as f32 + 1.0).collect();
        let inputs: HashMap<TensorId, Vec<f32>> = [(TensorId(0), input.clone())].into();
        let got = &replay_opt(&o, &inputs).expect("replays").globals[&TensorId(1)];
        assert_eq!(got[0], input[SROWS[4] as usize], "the last writer of row 0 wins");
        assert_eq!(got[64], input[64 + SROWS[4] as usize]);
        // Letting row 0 write last instead moves the same pairs but
        // changes the result: not an acceptable permutation.
        let mut bad = optimize_trace(&t);
        let OTp::Copy { sa: Span::Gather { start, .. }, .. } = bad.steps[0] else {
            panic!("not a gather copy: {:?}", bad.steps[0]);
        };
        for j in 0..8 {
            bad.gather.swap(start as usize + j * 8, start as usize + j * 8 + 4);
        }
        let err = bad.check_addresses(&t).expect_err("a repeated destination pins the order");
        assert!(err.contains("decoded addresses differ"), "{err}");
        // A copy within one buffer reads what it wrote: never reordered.
        let mut t = planted_rows(SROWS, DROWS);
        t.steps = t
            .steps
            .iter()
            .map(|s| match *s {
                TOp::Copy { sa, da, n, .. } => TOp::Copy { src: 1, dst: 1, sa, da, n },
                ref other => other.clone(),
            })
            .collect();
        let o = optimize_trace(&t);
        o.check_addresses(&t).expect("recorded order decodes exactly");
        assert_eq!(o.stats().row_copies, 0);
        assert!(matches!(o.steps[0], OTp::Copy { sa: Span::Gather { .. }, .. }));
    }

    #[test]
    fn optimized_steps_stay_80_bytes() {
        assert!(std::mem::size_of::<OTp>() <= 80, "{} bytes", std::mem::size_of::<OTp>());
    }

    #[test]
    fn interning_verifies_entries_not_just_hashes() {
        let mut p = Patterns::default();
        let a = p.intern(&[5, 9, 6, 7]);
        assert_eq!(a, Span::Gather { base: 5, start: 0 });
        // Plant a colliding index entry: a differing pattern whose hash
        // slot points at `a` must still get its own entries.
        p.index.insert(pattern_hash(&[1, 0, 2, 3], 0), 0);
        let b = p.intern(&[1, 0, 2, 3]);
        assert_eq!(b, Span::Gather { base: 0, start: 4 });
        assert_eq!(p.table, vec![0, 4, 1, 2, 1, 0, 2, 3]);
        // Relative-pattern reuse at a new base, and an empty slice.
        assert_eq!(p.intern(&[105, 109, 106, 107]), Span::Gather { base: 105, start: 0 });
        assert!(matches!(p.intern(&[]), Span::Gather { base: 0, .. }));
    }

    #[test]
    fn renaming_must_permute_each_buffer() {
        let ok = Renaming { slot: vec![Vec::new(), vec![2, 0, 1]] };
        assert!(ok.check_bijection(&[4, 3]).is_ok());
        let merged = Renaming { slot: vec![Vec::new(), vec![1, 0, 1]] };
        let err = merged.check_bijection(&[4, 3]).expect_err("two addresses share slot 1");
        assert!(err.contains("address 2 renames to a taken or out-of-range slot 1"), "{err}");
        let out_of_range = Renaming { slot: vec![Vec::new(), vec![0, 3, 1]] };
        assert!(out_of_range.check_bijection(&[4, 3]).is_err());
    }

    #[test]
    fn mixed_trace_classifies_per_operand() {
        // Contiguous source, permuted destination.
        let mut addrs: Vec<u32> = (0..8).collect();
        addrs.extend([0u32, 3, 1, 2, 7, 4, 6, 5]);
        let t = plant(vec![TOp::Copy { src: 0, dst: 1, sa: 0, da: 8, n: 8 }], addrs, 8);
        let o = optimize_trace(&t);
        assert!(matches!(
            o.steps[0],
            OTp::Copy {
                sa: Span::Affine { base: 0, stride: 1 },
                da: Span::Gather { base: 0, start: 0 },
                ..
            }
        ));
        assert_eq!(o.gather.len(), 8);
        assert!((o.stats().coalesced_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn strided_and_lane_major_slices_classify() {
        // Stride-2 1D progression.
        assert_eq!(affine_1d(&[4, 6, 8, 10]), Some(Span::Affine { base: 4, stride: 2 }));
        // Lane-major 2D: 3 lanes of 2, lane stride 10, element stride 1.
        let a = [0, 1, 10, 11, 20, 21];
        assert_eq!(affine_1d(&a), None);
        assert_eq!(affine_2d(&a, 3, 2), Some(Span::Lanes { base: 0, lane: 10, stride: 1, per: 2 }));
        // Broken tail: not affine in either view.
        assert_eq!(affine_2d(&[0, 1, 10, 11, 20, 99], 3, 2), None);
    }

    #[test]
    fn adjacent_chained_copies_fuse() {
        let addrs: Vec<u32> = (0..4).chain(0..4).chain(4..8).chain(4..8).collect();
        let t = plant(
            vec![
                TOp::Copy { src: 0, dst: 1, sa: 0, da: 4, n: 4 },
                TOp::Copy { src: 0, dst: 1, sa: 8, da: 12, n: 4 },
            ],
            addrs,
            8,
        );
        let o = optimize_trace(&t);
        assert_eq!(o.steps.len(), 1, "chained copies must fuse");
        assert!(matches!(o.steps[0], OTp::Copy { n: 8, .. }));
        assert_eq!(o.stats().fused_steps, 1);
    }

    #[test]
    fn dead_fill_is_removed_when_fully_overwritten() {
        // Fill scratch; then init fully overwrites it before any read.
        let addrs: Vec<u32> = (0..8).collect();
        let t = plant(
            vec![TOp::Fill { buf: 1 }, TOp::Init { value: 2.5, dst: 1, da: 0, n: 8 }],
            addrs,
            8,
        );
        let o = optimize_trace(&t);
        assert_eq!(o.stats().dead_fills, 1);
        assert!(matches!(o.steps[0], OTp::Init { .. }));
    }

    #[test]
    fn live_fill_is_kept_when_read_first() {
        // Fill scratch; copy reads scratch into out: fill is live.
        let addrs: Vec<u32> = (0..8).chain(0..8).collect();
        let t = plant(
            vec![TOp::Fill { buf: 1 }, TOp::Copy { src: 1, dst: 0, sa: 0, da: 8, n: 8 }],
            addrs,
            8,
        );
        let o = optimize_trace(&t);
        assert_eq!(o.stats().dead_fills, 0);
        assert_eq!(o.steps.len(), 2);
    }

    #[test]
    fn planted_trace_replays_identically_optimized() {
        // out[i] = 2·in[perm[i]] staged through scratch, with a gather
        // on one side — exercises both paths end to end.
        let perm: Vec<u32> = vec![3, 1, 0, 2, 6, 7, 5, 4];
        let mut addrs: Vec<u32> = perm.clone();
        addrs.extend(0..8u32); // da of copy: contiguous scratch
        addrs.extend(0..8u32); // sa of binary: scratch
        addrs.extend(0..8u32); // ba of binary: scratch
        addrs.extend(0..8u32); // da of binary: out
        let mut t = plant(
            vec![
                TOp::Copy { src: 0, dst: 1, sa: 0, da: 8, n: 8 },
                TOp::Binary {
                    op: graphene_ir::ops::BinaryOp::Add,
                    a: 1,
                    b: 1,
                    dst: 0,
                    aa: 16,
                    ba: 24,
                    da: 32,
                    n: 8,
                },
            ],
            addrs,
            8,
        );
        t.counters.instructions = 16;
        let o = optimize_trace(&t);
        let input: Vec<f32> = (0..8).map(|i| i as f32 + 0.5).collect();
        let inputs: HashMap<TensorId, Vec<f32>> = [(TensorId(0), input.clone())].into();
        let opt = replay_opt(&o, &inputs).expect("opt replay");
        let got = &opt.globals[&TensorId(0)];
        assert_eq!(got.len(), perm.len());
        for (i, (&p, y)) in perm.iter().zip(got).enumerate() {
            let want = input[p as usize] + input[p as usize];
            assert_eq!(want.to_bits(), y.to_bits(), "out[{i}] = 2·in[{p}]");
        }
        assert_eq!(opt.counters, t.counters, "replay returns the trace's counters");
    }

    /// One block computing `C += A·B` with one full-warp m16n8k16:
    /// global `x = [A (16×16) | B (16×8) | C (16×8)]` is copied into
    /// private buffers, A and C into buffer 1 and B into buffer 2
    /// (`c_buf` 1, an accumulator aliasing A) or C into buffer 3
    /// (`c_buf` 3), and C is copied back. Fragment addresses follow the
    /// lane-order layout.
    fn planted_mma(c_buf: u32) -> Trace {
        use graphene_ir::atomic::fragments as frag;
        let (a_off, c_off) = (0u32, if c_buf == 1 { 256 } else { 0 });
        let mut addrs: Vec<u32> = Vec::new();
        let mut seg = |v: Vec<u32>| {
            let start = addrs.len() as u32;
            addrs.extend(v);
            start
        };
        let copy = |src: u32, dst: u32, sa: u32, da: u32, n: u32| TOp::Copy { src, dst, sa, da, n };
        let mut steps = vec![
            copy(0, 1, seg((0..256).collect()), seg((0..256).collect()), 256),
            copy(0, 2, seg((256..384).collect()), seg((0..128).collect()), 128),
            copy(0, c_buf, seg((384..512).collect()), seg((c_off..c_off + 128).collect()), 128),
        ];
        let lanes = 0..32usize;
        let at = |f: fn(usize, usize) -> (usize, usize), per: usize, cols: usize, off: u32| {
            lanes
                .clone()
                .flat_map(|li| (0..per).map(move |v| (li, v)))
                .map(|(li, v)| {
                    let (r, col) = f(li, v);
                    off + (r * cols + col) as u32
                })
                .collect::<Vec<u32>>()
        };
        let aa = seg(at(frag::mma_16816_a, 8, 16, a_off));
        let ba = seg(at(frag::mma_16816_b, 4, 8, 0));
        let ca = seg(at(frag::mma_16816_c, 4, 8, c_off));
        steps.push(TOp::Mma {
            m16: true,
            a: 1,
            b: 2,
            c: c_buf,
            aa,
            aper: 8,
            ba,
            bper: 4,
            ca,
            cper: 4,
            lanes: 32,
        });
        steps.push(copy(
            c_buf,
            0,
            seg((c_off..c_off + 128).collect()),
            seg((384..512).collect()),
            128,
        ));
        let n = steps.len() as u32;
        let buf_lens = if c_buf == 1 { vec![512, 384, 128] } else { vec![512, 256, 128, 128] };
        Trace {
            steps,
            addrs,
            blocks: vec![(0, n)],
            buf_lens,
            n_globals: 1,
            params: vec![(TensorId(0), "x".to_string(), 512)],
            counters: Counters::default(),
        }
    }

    #[test]
    fn mma_whose_accumulator_aliases_an_operand_is_refused() {
        let err = try_optimize_trace(&planted_mma(1)).expect_err("c shares buffer 1 with a");
        assert_eq!(
            err.to_string(),
            "bad input: block 0 step 3: MMA cannot fold into a warp tile: \
             the accumulator aliases an operand"
        );
        // A partial warp leaves fragment slots unfilled.
        let mut partial = planted_mma(3);
        if let TOp::Mma { lanes, .. } = &mut partial.steps[3] {
            *lanes = 16;
        }
        let err = try_optimize_trace(&partial).expect_err("16 lanes fill half the slots");
        assert!(err.to_string().ends_with("a fragment slot is unfilled"), "{err}");
        let x: Vec<f32> = (0..512).map(|i| ((i * 37) % 101) as f32 / 8.0 - 6.0).collect();
        let mut want = x.clone();
        for m in 0..16 {
            for n in 0..8 {
                let mut acc = 0.0f32;
                for k in 0..16 {
                    acc += x[m * 16 + k] * x[256 + k * 8 + n];
                }
                want[384 + m * 8 + n] += acc;
            }
        }
        let t = planted_mma(3);
        let o = try_optimize_trace(&t).expect("c in its own buffer folds");
        o.check_addresses(&t).expect("every operand decodes to its recorded addresses");
        assert_eq!((o.stats().folded_mmas, o.stats().mma_tiles), (1, 1));
        let inputs: HashMap<TensorId, Vec<f32>> = [(TensorId(0), x)].into();
        let got = &replay_opt(&o, &inputs).expect("opt replay").globals[&TensorId(0)];
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(&want));
    }

    #[test]
    fn shifting_a_tile_base_fails_the_address_check() {
        let t = planted_mma(3);
        optimize_trace(&t).check_addresses(&t).expect("the optimizer's own tiles decode");
        for op in 0..3 {
            let mut bad = optimize_trace(&t);
            bad.tiles[0][op] += 1;
            let err = bad.check_addresses(&t).expect_err("a shifted base must not decode");
            assert!(err.contains("decoded addresses differ"), "{err}");
        }
    }
}
