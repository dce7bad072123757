//! Trace capture: record one walk of a compiled plan as a flat
//! straight-line program.
//!
//! Walking a compiled plan means walking the statement tree,
//! evaluating guards and loop bounds, emitting operand addresses per
//! group, and dispatching on [`AtomicSemantics`]. This module is the
//! CUDA-graph analog for the simulator: [`record_trace`] walks a plan
//! **once** per (kernel, problem, arch) with the recorder
//! ([`crate::run`]) and captures everything that cannot change across
//! runs — resolved branches and loops, bounds-checked operand address
//! segments, op kind and flat buffer operands per step — into a
//! [`Trace`]. The trace optimizer ([`crate::trace_opt`]) compacts it,
//! and replay ([`crate::replay`]) then runs the straight-line program
//! against fresh input buffers with no `CSpec` dispatch, no symbolic
//! environment, and no per-group address emission.
//!
//! **Why recording without input values is sound:** control flow in
//! this IR is purely *index-driven*. Guards compare index expressions
//! over `blockIdx.x` / `threadIdx.x` / loop variables, and loop extents
//! are static — no branch ever inspects a tensor *value*. The step
//! sequence and every address are therefore identical for all input
//! valuations; only the data differs, and replay recomputes the data.
//!
//! Register addresses are flattened to `thread * len + addr` at record
//! time, so a replay touches nothing but flat `Vec<f32>` buffers
//! indexed by a shared `u32` address arena.

use crate::counters::Counters;
use crate::exec::ExecError;
use crate::memo::Memo;
use crate::plan::{BufRef, CSpec, KernelPlan};
use crate::run::{AddrScratch, CtaRunner};
use crate::trace_opt::{record_opt_trace, OptTrace};
use graphene_ir::atomic::AtomicSemantics;
use graphene_ir::ops::{BinaryOp, ReduceOp, UnaryOp};
use graphene_ir::tensor::TensorId;
use graphene_ir::{Arch, MemSpace};
use std::collections::HashMap;
use std::sync::Arc;

/// One recorded step of a straight-line trace.
///
/// Buffer operands are indices into the trace's unified buffer table
/// (globals, then shared, then flattened register files); fields named
/// `sa`/`da`/`aa`/`ba`/`ca` are start offsets into the shared address
/// arena ([`Trace::addrs` — crate-private]).
#[derive(Debug, Clone)]
pub(crate) enum TOp {
    /// Zero-fill buffer `buf` (a recorded `Alloc`).
    Fill { buf: u32 },
    /// `dst[da[i]] = src[sa[i]]` for `i in 0..n`.
    Copy { src: u32, dst: u32, sa: u32, da: u32, n: u32 },
    /// `dst[da[i]] = op(src[sa[i]])`.
    Unary { op: UnaryOp, src: u32, dst: u32, sa: u32, da: u32, n: u32 },
    /// `dst[da[i]] = op(a[aa[i]], b[ba[i]])`.
    Binary { op: BinaryOp, a: u32, b: u32, dst: u32, aa: u32, ba: u32, da: u32, n: u32 },
    /// `c[ca[i]] += a[aa[i]] * b[ba[i]]`.
    Fma { a: u32, b: u32, c: u32, aa: u32, ba: u32, ca: u32, n: u32 },
    /// `dst[da[i]] = value`.
    Init { value: f32, dst: u32, da: u32, n: u32 },
    /// `groups` reductions of `per` elements each:
    /// `dst[da[g]] = fold(op, src[sa[g*per..(g+1)*per]])`.
    Reduce { op: ReduceOp, src: u32, dst: u32, sa: u32, da: u32, groups: u32, per: u32 },
    /// Collective `ldmatrix`: per-lane address strides `sper`/`dper`.
    /// Source and destination are distinct buffers ([`Recorder::record_group`]
    /// rejects any other), so the optimizer composes it into one copy.
    LdMatrix {
        num: u8,
        trans: bool,
        src: u32,
        dst: u32,
        sa: u32,
        sper: u32,
        da: u32,
        dper: u32,
        lanes: u32,
    },
    /// Collective tensor-core MMA over `lanes` lanes: `mma.m16n8k16`
    /// when `m16`, else `mma.m8n8k4`. The accumulator `c` is neither
    /// `a` nor `b` ([`Recorder::record_group`] rejects any other).
    Mma {
        m16: bool,
        a: u32,
        b: u32,
        c: u32,
        aa: u32,
        aper: u32,
        ba: u32,
        bper: u32,
        ca: u32,
        cper: u32,
        lanes: u32,
    },
    /// Butterfly shuffle: lane `l` reads `src[sa[l]]`, lane `l` writes
    /// the value read by lane `l ^ mask` to `dst[da[l]]`.
    Shfl { mask: u32, src: u32, dst: u32, sa: u32, da: u32, lanes: u32 },
}

/// A recorded straight-line execution of one (kernel, problem, arch):
/// every branch resolved, every loop unrolled, every operand address
/// precomputed. Produced by [`record_trace`]; the trace optimizer
/// ([`crate::trace_opt::optimize_trace`]) lowers it into the
/// [`OptTrace`] that replay executes.
#[derive(Debug)]
pub struct Trace {
    pub(crate) steps: Vec<TOp>,
    pub(crate) addrs: Vec<u32>,
    /// Per-block `(start, end)` step ranges, in block order.
    pub(crate) blocks: Vec<(u32, u32)>,
    /// Unified buffer table lengths: globals, then shared, then
    /// register files (already `len × block_threads` flat).
    pub(crate) buf_lens: Vec<usize>,
    pub(crate) n_globals: usize,
    /// Kernel params `(id, name, scalar length)`: replay input
    /// validation and outcome keying.
    pub(crate) params: Vec<(TensorId, String, usize)>,
    /// Counters captured from the recording run. Counters are
    /// input-independent, so every replay of this trace reports them
    /// unchanged.
    pub(crate) counters: Counters,
}

impl Trace {
    /// Number of recorded steps across all blocks.
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Number of precomputed scalar addresses in the arena.
    pub fn num_addrs(&self) -> usize {
        self.addrs.len()
    }

    /// Number of thread blocks in the recorded grid.
    pub fn grid_size(&self) -> i64 {
        self.blocks.len() as i64
    }

    /// The profile counters every replay of this trace reports.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Resident payload bytes: step list, address arena, block table
    /// and buffer metadata (length-based, so the figure is
    /// deterministic — the optimizer's before/after comparison).
    pub fn resident_bytes(&self) -> usize {
        raw_resident_bytes(
            self.steps.len(),
            self.addrs.len(),
            self.blocks.len(),
            &self.buf_lens,
            &self.params,
        )
    }
}

/// [`Trace::resident_bytes`] of a trace with these sizes, for callers
/// that never hold the whole trace.
pub(crate) fn raw_resident_bytes(
    steps: usize,
    addrs: usize,
    blocks: usize,
    buf_lens: &[usize],
    params: &[(TensorId, String, usize)],
) -> usize {
    std::mem::size_of::<Trace>()
        + steps * std::mem::size_of::<TOp>()
        + addrs * std::mem::size_of::<u32>()
        + blocks * std::mem::size_of::<(u32, u32)>()
        + std::mem::size_of_val(buf_lens)
        + params
            .iter()
            .map(|(_, name, _)| std::mem::size_of::<(TensorId, String, usize)>() + name.len())
            .sum::<usize>()
}

/// Captures [`TOp`]s during one [`CtaRunner`] pass: the runner hands
/// it each `Alloc` and each group. A failing recording is discarded
/// whole, so no partial step reaches a published trace.
#[derive(Debug, Default)]
pub(crate) struct Recorder {
    pub(crate) steps: Vec<TOp>,
    pub(crate) addrs: Vec<u32>,
    /// The lowest and highest address recorded into each global buffer,
    /// `(u32::MAX, 0)` while it is untouched.
    pub(crate) global_extents: Vec<(u32, u32)>,
    n_globals: usize,
    n_shared: usize,
}

impl Recorder {
    pub(crate) fn new(plan: &KernelPlan) -> Self {
        Recorder {
            steps: Vec::new(),
            addrs: Vec::new(),
            global_extents: vec![(u32::MAX, 0); plan.globals.len()],
            n_globals: plan.globals.len(),
            n_shared: plan.shared.len(),
        }
    }

    /// Unified buffer-table index of a plan buffer reference.
    fn buf_id(&self, buf: BufRef) -> u32 {
        (match buf.mem {
            MemSpace::Global => buf.idx,
            MemSpace::Shared => self.n_globals + buf.idx,
            MemSpace::Register => self.n_globals + self.n_shared + buf.idx,
        }) as u32
    }

    /// Appends `k` addresses per lane of one operand segment to the
    /// arena, flattening register addresses to `thread * len + addr`,
    /// and returns the arena start offset. With `what`, each address is
    /// first checked to lie in `buf`; the first that does not is an
    /// [`ExecError::OutOfBounds`] naming the operand `what`.
    fn push_seg(
        &mut self,
        buf: BufRef,
        lanes: &[i64],
        sc: &AddrScratch,
        seg: (usize, usize),
        k: usize,
        what: Option<&str>,
    ) -> Result<u32, ExecError> {
        let start = u32::try_from(self.addrs.len()).expect("trace address arena exceeds u32 range");
        for (li, &t) in lanes.iter().enumerate() {
            let seg = &sc.lane(seg, li)[..k];
            if let Some(what) = what {
                in_bounds(buf, seg, what)?;
            }
            let base = if buf.mem == MemSpace::Register { t * buf.len as i64 } else { 0 };
            self.addrs.extend(seg.iter().map(|&a| (base + a) as u32));
        }
        if buf.mem == MemSpace::Global {
            let (lo, hi) = &mut self.global_extents[buf.idx];
            for &a in &self.addrs[start as usize..] {
                (*lo, *hi) = ((*lo).min(a), (*hi).max(a));
            }
        }
        Ok(start)
    }

    /// Records a zero-fill of an allocated buffer.
    pub(crate) fn record_alloc(&mut self, buf: BufRef) {
        let buf = self.buf_id(buf);
        self.steps.push(TOp::Fill { buf });
    }

    /// Records one warp/collective group, after bounds-checking every
    /// address its semantics touch: copy and unary zip each lane's
    /// source and destination to the shorter segment, a reduce writes
    /// one address per lane, and `ldmatrix` reads row addresses from
    /// lanes `0..8·num` only. A group that fails leaves the recording
    /// unusable; the caller discards it.
    ///
    /// Per-thread ops are flattened lane-major (the per-lane structure
    /// is irrelevant to their semantics); collective ops keep their
    /// per-lane address strides because their fragment math indexes by
    /// lane.
    ///
    /// # Errors
    ///
    /// [`ExecError::OutOfBounds`] naming the first operand with an
    /// address outside its buffer. [`ExecError::BadInput`] for an
    /// `ldmatrix` whose source and destination are one buffer, and for
    /// an MMA whose accumulator buffer is its A or B buffer (lint
    /// reports that kernel as `GRA016`). Table 2 matches `ldmatrix` only
    /// from shared memory to registers, so no kernel reaches the first.
    pub(crate) fn record_group(
        &mut self,
        cs: &CSpec,
        lanes: &[i64],
        sc: &AddrScratch,
    ) -> Result<(), ExecError> {
        let nl = lanes.len() as u32;
        let step = match cs.semantics {
            AtomicSemantics::CopyPerThread | AtomicSemantics::UnaryPerThread(_) => {
                let k = sc.ins[0].1.min(sc.outs[0].1);
                let unary = matches!(cs.semantics, AtomicSemantics::UnaryPerThread(_));
                let (sw, dw) =
                    if unary { ("unary src", "unary dst") } else { ("copy src", "copy dst") };
                let sa = self.push_seg(cs.ins[0].buf, lanes, sc, sc.ins[0], k, Some(sw))?;
                let da = self.push_seg(cs.outs[0].buf, lanes, sc, sc.outs[0], k, Some(dw))?;
                let (src, dst) = (self.buf_id(cs.ins[0].buf), self.buf_id(cs.outs[0].buf));
                let n = nl * k as u32;
                match cs.semantics {
                    AtomicSemantics::UnaryPerThread(op) => TOp::Unary { op, src, dst, sa, da, n },
                    _ => TOp::Copy { src, dst, sa, da, n },
                }
            }
            AtomicSemantics::BinaryPerThread(op) => {
                let k = sc.ins[0].1;
                let aa =
                    self.push_seg(cs.ins[0].buf, lanes, sc, sc.ins[0], k, Some("binary lhs"))?;
                let ba =
                    self.push_seg(cs.ins[1].buf, lanes, sc, sc.ins[1], k, Some("binary rhs"))?;
                let da =
                    self.push_seg(cs.outs[0].buf, lanes, sc, sc.outs[0], k, Some("binary dst"))?;
                TOp::Binary {
                    op,
                    a: self.buf_id(cs.ins[0].buf),
                    b: self.buf_id(cs.ins[1].buf),
                    dst: self.buf_id(cs.outs[0].buf),
                    aa,
                    ba,
                    da,
                    n: nl * k as u32,
                }
            }
            AtomicSemantics::FmaPerThread => {
                let k = sc.ins[0].1;
                let aa = self.push_seg(cs.ins[0].buf, lanes, sc, sc.ins[0], k, Some("fma a"))?;
                let ba = self.push_seg(cs.ins[1].buf, lanes, sc, sc.ins[1], k, Some("fma b"))?;
                let ca = self.push_seg(cs.outs[0].buf, lanes, sc, sc.outs[0], k, Some("fma c"))?;
                TOp::Fma {
                    a: self.buf_id(cs.ins[0].buf),
                    b: self.buf_id(cs.ins[1].buf),
                    c: self.buf_id(cs.outs[0].buf),
                    aa,
                    ba,
                    ca,
                    n: nl * k as u32,
                }
            }
            AtomicSemantics::InitPerThread => {
                let k = sc.outs[0].1;
                let da =
                    self.push_seg(cs.outs[0].buf, lanes, sc, sc.outs[0], k, Some("init dst"))?;
                TOp::Init {
                    value: cs.init_value,
                    dst: self.buf_id(cs.outs[0].buf),
                    da,
                    n: nl * k as u32,
                }
            }
            AtomicSemantics::ReducePerThread(op) => {
                let per = sc.ins[0].1;
                let sa =
                    self.push_seg(cs.ins[0].buf, lanes, sc, sc.ins[0], per, Some("reduce src"))?;
                let da =
                    self.push_seg(cs.outs[0].buf, lanes, sc, sc.outs[0], 1, Some("reduce dst"))?;
                TOp::Reduce {
                    op,
                    src: self.buf_id(cs.ins[0].buf),
                    dst: self.buf_id(cs.outs[0].buf),
                    sa,
                    da,
                    groups: nl,
                    per: per as u32,
                }
            }
            AtomicSemantics::LdMatrix { num, trans } => {
                // Only lanes 0..8·num supply a row address, 8 elements
                // each; the other lanes' sources are recorded unread.
                for li in 0..8 * num as usize {
                    in_bounds(cs.ins[0].buf, &sc.lane(sc.ins[0], li)[..8], "ldmatrix src")?;
                }
                let (sper, dper) = (sc.ins[0].1, sc.outs[0].1);
                let sa = self.push_seg(cs.ins[0].buf, lanes, sc, sc.ins[0], sper, None)?;
                let da = self.push_seg(
                    cs.outs[0].buf,
                    lanes,
                    sc,
                    sc.outs[0],
                    dper,
                    Some("ldmatrix dst"),
                )?;
                let (src, dst) = (self.buf_id(cs.ins[0].buf), self.buf_id(cs.outs[0].buf));
                if src == dst {
                    return Err(ExecError::BadInput(
                        "ldmatrix with one buffer as source and destination cannot be traced"
                            .into(),
                    ));
                }
                TOp::LdMatrix {
                    num,
                    trans,
                    src,
                    dst,
                    sa,
                    sper: sper as u32,
                    da,
                    dper: dper as u32,
                    lanes: nl,
                }
            }
            AtomicSemantics::MmaAmpere16816 | AtomicSemantics::MmaVolta884 => {
                let m16 = cs.semantics == AtomicSemantics::MmaAmpere16816;
                let w = if m16 {
                    ["mma a", "mma b", "mma c"]
                } else {
                    ["mma884 a", "mma884 b", "mma884 c"]
                };
                let (aper, bper, cper) = (sc.ins[0].1, sc.ins[1].1, sc.outs[0].1);
                let aa = self.push_seg(cs.ins[0].buf, lanes, sc, sc.ins[0], aper, Some(w[0]))?;
                let ba = self.push_seg(cs.ins[1].buf, lanes, sc, sc.ins[1], bper, Some(w[1]))?;
                let ca = self.push_seg(cs.outs[0].buf, lanes, sc, sc.outs[0], cper, Some(w[2]))?;
                let (a, b, c) = (
                    self.buf_id(cs.ins[0].buf),
                    self.buf_id(cs.ins[1].buf),
                    self.buf_id(cs.outs[0].buf),
                );
                if c == a || c == b {
                    return Err(ExecError::BadInput(
                        "mma whose accumulator is its A or B buffer cannot be traced".into(),
                    ));
                }
                TOp::Mma {
                    m16,
                    a,
                    b,
                    c,
                    aa,
                    aper: aper as u32,
                    ba,
                    bper: bper as u32,
                    ca,
                    cper: cper as u32,
                    lanes: nl,
                }
            }
            AtomicSemantics::ShflBfly => {
                let sa = self.push_seg(cs.ins[0].buf, lanes, sc, sc.ins[0], 1, Some("shfl src"))?;
                let da =
                    self.push_seg(cs.outs[0].buf, lanes, sc, sc.outs[0], 1, Some("shfl dst"))?;
                TOp::Shfl {
                    mask: cs.shfl_mask,
                    src: self.buf_id(cs.ins[0].buf),
                    dst: self.buf_id(cs.outs[0].buf),
                    sa,
                    da,
                    lanes: nl,
                }
            }
        };
        self.steps.push(step);
        Ok(())
    }
}

/// Checks that every address of `addrs` lies in `buf`.
fn in_bounds(buf: BufRef, addrs: &[i64], what: &str) -> Result<(), ExecError> {
    match addrs.iter().find(|&&a| a < 0 || a as usize >= buf.len) {
        Some(&addr) => Err(ExecError::OutOfBounds { what: what.into(), addr, len: buf.len }),
        None => Ok(()),
    }
}

/// Records `plan` once into a [`Trace`].
///
/// The recording walks the full grid in block order and reads no input
/// values. This is sound because control flow in this IR is purely
/// index-driven (see the module docs): the captured step sequence and
/// addresses are valid for every input valuation.
///
/// # Errors
///
/// Any [`ExecError`] the recording run hits (the trace is discarded).
pub fn record_trace(
    plan: &KernelPlan,
    bindings: &HashMap<String, i64>,
) -> Result<Trace, ExecError> {
    let mut blocks = Vec::with_capacity(plan.grid.max(0) as usize);
    let mut start = 0;
    let (rec, counters) = record_blocks(plan, bindings, plan.grid as usize, |rec| {
        let end = u32::try_from(rec.steps.len()).expect("trace exceeds u32 steps");
        blocks.push((start, end));
        start = end;
        Ok(())
    })?;
    Ok(Trace {
        steps: rec.steps,
        addrs: rec.addrs,
        blocks,
        buf_lens: trace_buf_lens(plan),
        n_globals: plan.globals.len(),
        params: plan.globals.clone(),
        counters,
    })
}

/// The recording run behind [`record_trace`]: runs blocks
/// `0..blocks` of `plan` with a [`Recorder`] installed and hands it to
/// `block_done` after each block. Steps the callback leaves in place
/// accumulate; a streaming consumer drains them instead. Returns the
/// recorder and the counters of the blocks run, or the first error of
/// the run or the callback.
pub(crate) fn record_blocks(
    plan: &KernelPlan,
    bindings: &HashMap<String, i64>,
    blocks: usize,
    mut block_done: impl FnMut(&mut Recorder) -> Result<(), ExecError>,
) -> Result<(Recorder, Counters), ExecError> {
    let mut runner = CtaRunner::new(plan, bindings);
    for b in 0..blocks {
        runner.run_block(b)?;
        block_done(&mut runner.rec)?;
    }
    let mut counters = runner.counters;
    counters.unique_global_read_bytes = plan.unique_read;
    counters.unique_global_write_bytes = plan.unique_written;
    Ok((runner.rec, counters))
}

/// Unified buffer-table lengths of `plan`'s traces: globals, then
/// shared, then register files flattened to `len × block_threads`.
pub(crate) fn trace_buf_lens(plan: &KernelPlan) -> Vec<usize> {
    let mut buf_lens: Vec<usize> = plan.globals.iter().map(|&(_, _, l)| l).collect();
    buf_lens.extend(plan.shared.iter().map(|&(_, l)| l));
    buf_lens.extend(plan.regs.iter().map(|&(_, l)| l * plan.block_threads as usize));
    buf_lens
}

/// Cache key: one trace per (kernel, problem, arch).
///
/// `problem` is a caller-chosen string naming the problem instance —
/// by convention the kernel's dimension summary (e.g.
/// `"m=1024 n=1024 k=512"`). Dynamic-parameter bindings **must** be
/// folded into it: they change loop trip counts and guard outcomes,
/// i.e. the recorded program itself. Editing the kernel or changing
/// the arch likewise yields a different key, so stale traces are never
/// replayed — invalidation is by construction, not by mutation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TraceKey {
    /// Kernel name.
    pub kernel: String,
    /// Problem-instance description (sizes and bindings).
    pub problem: String,
    /// Target architecture.
    pub arch: Arch,
}

/// Default [`TraceCache`] capacity. Each trace holds the unrolled step
/// and address arenas of one kernel instance (megabytes at paper
/// sizes), so the bound is what makes long-lived many-shape traffic —
/// the serve-daemon pattern — safe.
pub const TRACE_CACHE_CAPACITY: usize = 256;

/// Memoizes recorded traces per [`TraceKey`]: record on first request,
/// share the [`Arc`]'d trace on every later one. A [`Memo`], so it is
/// `Sync`, LRU-bounded ([`TRACE_CACHE_CAPACITY`] by default, or
/// `with_capacity`), records outside its lock and lets the first
/// insert win a race. An evicted key simply re-records on next request.
/// `recordings` counts [`record_opt_trace`] runs; a block-uniform
/// kernel's run records block 0 alone.
///
/// What the cache keeps resident is the **optimized** form
/// ([`OptTrace`]): recording runs the trace optimizer before insertion,
/// so every cached trace replays on the coalesced fast path and the
/// cache's memory footprint is the post-classification one (see
/// [`resident_bytes`](Self::resident_bytes)).
pub type TraceCache = Memo<TraceKey, OptTrace, TRACE_CACHE_CAPACITY>;

impl TraceCache {
    /// Returns the cached trace for `key`, recording it on first use
    /// ([`record_opt_trace`]), and whether this call's lookup hit.
    ///
    /// # Errors
    ///
    /// Any [`ExecError`] from the recording run; nothing is cached.
    pub fn get_or_record(
        &self,
        key: &TraceKey,
        plan: &KernelPlan,
        bindings: &HashMap<String, i64>,
    ) -> Result<(Arc<OptTrace>, bool), ExecError> {
        self.get_or_insert_with(key, || record_opt_trace(plan, bindings))
    }

    /// Total resident payload bytes across all cached (optimized)
    /// traces: step lists plus gather pattern tables plus metadata.
    pub fn resident_bytes(&self) -> usize {
        self.sum_by(OptTrace::resident_bytes)
    }
}
