//! Replay execution: re-run an optimized trace ([`OptTrace`]) against
//! fresh inputs.
//!
//! A replay is a single pass over a straight-line program: no `CSpec`
//! dispatch, no symbolic environment, no guard evaluation, no
//! per-group address emission, no traffic accounting — every step is
//! an op kind plus compact address spans into flat `f32` buffers.
//! Counters were captured at record time (they are input-independent)
//! and are returned unchanged.
//!
//! Independent CTAs replay concurrently through the same fan-out as
//! the compiled executor ([`crate::run`]): each worker owns a private
//! snapshot of the buffers and logs its global writes, and the logs
//! merge **in ascending block order** — bit-identical to the sequential
//! replay whenever no CTA reads another CTA's writes.

use crate::counters::Counters;
use crate::exec::{ExecError, ExecOutcome};
use crate::run::{fan_out, initial_globals, Cta, ExecMode};
use crate::trace_opt::{OTp, OptTrace, Span};
use graphene_ir::ops::{BinaryOp, UnaryOp};
use std::collections::HashMap;

use graphene_ir::tensor::TensorId;

/// Replays an optimized trace sequentially against `inputs` — the
/// coalesced fast path: contiguous copies run as `copy_from_slice`,
/// contiguous element-wise steps as tight slice loops, strided/lane
/// spans as stepped loops, warp-tile MMA steps as in-place kernels, and
/// only residual gathers walk an address array. Bit-identical to
/// compiled-plan execution of the recorded kernel.
///
/// `inputs` maps kernel parameters to their buffers, exactly as for
/// [`crate::exec::execute`]; missing params are zero-initialised.
///
/// # Errors
///
/// [`ExecError::BadInput`] when an input buffer is mis-sized. Replay
/// itself cannot fail: every address was bounds-validated when the
/// recording run executed it.
pub fn replay_opt(
    trace: &OptTrace,
    inputs: &HashMap<TensorId, Vec<f32>>,
) -> Result<ExecOutcome, ExecError> {
    replay_opt_with(trace, inputs, ExecMode::Sequential)
}

/// Like [`replay_opt`], with an explicit [`ExecMode`] selecting
/// sequential or parallel CTA replay. The parallel merge logs whole
/// written runs instead of scalar writes, so coalesced steps stay
/// coalesced across the merge.
///
/// # Errors
///
/// See [`replay_opt`].
pub fn replay_opt_with(
    trace: &OptTrace,
    inputs: &HashMap<TensorId, Vec<f32>>,
    mode: ExecMode,
) -> Result<ExecOutcome, ExecError> {
    let mut init = initial_globals(&trace.params, inputs)?;
    init.extend(trace.buf_lens[trace.n_globals..].iter().map(|&len| vec![0.0; len]));
    let (globals, _) =
        fan_out(mode, trace.blocks.len(), init, |bufs| OptCta { trace, bufs, log: None })?;
    let globals = trace.params.iter().map(|(p, _, _)| *p).zip(globals).collect::<HashMap<_, _>>();
    Ok(ExecOutcome { globals, counters: trace.counters })
}

/// One logged global write of an optimized parallel replay: either a
/// whole contiguous run (from a coalesced step) or a scalar.
#[derive(Debug)]
enum OWrite {
    Run { buf: u32, start: u32, vals: Vec<f32> },
    At { buf: u32, addr: u32, val: f32 },
}

/// Zero-dispatch address streams: a [`Span`] resolves to one concrete
/// stream type per step (not per element), so the loops below
/// monomorphize per variant combination with no enum branch in the
/// body — no slower than walking a flat address array.
trait Addrs {
    fn next_addr(&mut self) -> usize;
}

struct AffA {
    cur: i64,
    step: i64,
}

impl Addrs for AffA {
    #[inline(always)]
    fn next_addr(&mut self) -> usize {
        let a = self.cur;
        self.cur += self.step;
        a as usize
    }
}

struct LanA {
    cur: i64,
    row: i64,
    lane: i64,
    stride: i64,
    per: u32,
    j: u32,
}

impl Addrs for LanA {
    #[inline(always)]
    fn next_addr(&mut self) -> usize {
        let a = self.cur;
        self.j += 1;
        if self.j == self.per {
            self.j = 0;
            self.row += self.lane;
            self.cur = self.row;
        } else {
            self.cur += self.stride;
        }
        a as usize
    }
}

struct GatA<'g> {
    g: &'g [u32],
    i: usize,
    base: usize,
}

impl Addrs for GatA<'_> {
    #[inline(always)]
    fn next_addr(&mut self) -> usize {
        let a = self.g[self.i];
        self.i += 1;
        self.base + a as usize
    }
}

/// Binds `$it` to the concrete stream for `$span` and runs `$body`
/// once — the single variant match per operand per step.
macro_rules! dispatch_span {
    ($span:expr, $g:expr, |$it:ident| $body:expr) => {
        match $span {
            Span::Affine { base, stride } => {
                let mut $it = AffA { cur: i64::from(base), step: i64::from(stride) };
                $body
            }
            Span::Lanes { base, lane, stride, per } => {
                let mut $it = LanA {
                    cur: i64::from(base),
                    row: i64::from(base),
                    lane: i64::from(lane),
                    stride: i64::from(stride),
                    per,
                    j: 0,
                };
                $body
            }
            Span::Gather { base, start } => {
                let mut $it = GatA { g: $g, i: start as usize, base: base as usize };
                $body
            }
            Span::Rows { .. } => unreachable!("row spans replay through `copy_rows` only"),
        }
    };
}

/// Runs `$body` with `$op` rebound to the constant op it holds, once
/// per op, so the row loops in `$body` carry no per-element dispatch on
/// the op and can vectorize. The arithmetic is still `apply`'s.
macro_rules! fix_op {
    ($op:ident: $ty:ident [$($v:ident),+], $body:expr) => {
        match $op {
            $($ty::$v => {
                let $op = $ty::$v;
                $body
            })+
        }
    };
}

macro_rules! fix_unary {
    ($op:ident, $body:expr) => {
        fix_op!($op: UnaryOp [Exp, Relu, Tanh, Sigmoid, Gelu, Neg, Rsqrt, Sqrt, Recip, Identity], $body)
    };
}

macro_rules! fix_binary {
    ($op:ident, $body:expr) => {
        fix_op!($op: BinaryOp [Add, Sub, Mul, Div, Max, Min], $body)
    };
}

/// The loop drivers are macros, not generic fns taking closures: a
/// closure shared by 9–27 monomorphized loop variants is too bloated
/// for LLVM to inline, leaving a function call per element. Textual
/// expansion gives every span-variant combination its own
/// straight-line loop body.
macro_rules! each1 {
    ($s:expr, $g:expr, $n:expr, |$a:ident| $body:expr) => {
        dispatch_span!($s, $g, |it| for _ in 0..$n {
            let $a = it.next_addr();
            $body
        })
    };
}

macro_rules! zip2 {
    ($s:expr, $d:expr, $g:expr, $n:expr, |$a:ident, $b:ident| $body:expr) => {
        dispatch_span!($s, $g, |ai| dispatch_span!($d, $g, |bi| for _ in 0..$n {
            let $a = ai.next_addr();
            let $b = bi.next_addr();
            $body
        }))
    };
}

macro_rules! zip3 {
    ($x:expr, $y:expr, $z:expr, $g:expr, $n:expr, |$a:ident, $b:ident, $c:ident| $body:expr) => {
        dispatch_span!($x, $g, |ai| dispatch_span!($y, $g, |bi| dispatch_span!(
            $z,
            $g,
            |ci| for _ in 0..$n {
                let $a = ai.next_addr();
                let $b = bi.next_addr();
                let $c = ci.next_addr();
                $body
            }
        )))
    };
}

/// The length of the contiguous rows span `s` splits into over `n`
/// elements — `n` for a contiguous span, `per` for a stride-1 lane grid,
/// `len` for a row span — or `None` when it has no such shape. Element
/// `i` of a row starting at `r` lives at `s.at(g, r) + i`.
#[inline]
fn row_len(s: Span, n: usize) -> Option<usize> {
    match s {
        Span::Affine { stride: 1, .. } => Some(n.max(1)),
        Span::Lanes { stride: 1, per, .. } | Span::Rows { len: per, .. }
            if per > 0 && n.is_multiple_of(per as usize) =>
        {
            Some(per as usize)
        }
        _ => None,
    }
}

/// The chunk length that keeps every span of `spans` contiguous: the
/// shortest row, when it divides the others.
#[inline]
fn chunk_len(spans: &[Span], n: usize) -> Option<usize> {
    let mut lens = [0usize; 3];
    for (l, &s) in lens.iter_mut().zip(spans) {
        *l = row_len(s, n)?;
    }
    let lens = &lens[..spans.len()];
    let rp = *lens.iter().min()?;
    lens.iter().all(|l| l.is_multiple_of(rp)).then_some(rp)
}

/// Walks two row-contiguous spans in matched chunks — `f(sa, da, len)`
/// with both ranges contiguous — or returns `false` untouched when
/// either span has no contiguous-row shape or the chunks are short
/// pieces of a longer step (under 8, where a slice loop loses to the
/// element walk). A long source row can feed several short destination
/// rows and vice versa.
#[inline]
fn chunks2<F>(sa: Span, da: Span, g: &[u32], n: usize, mut f: F) -> bool
where
    F: FnMut(usize, usize, usize),
{
    let Some(rp) = chunk_len(&[sa, da], n).filter(|&rp| rp >= 8 || rp == n) else {
        return false;
    };
    for i in (0..n).step_by(rp) {
        f(sa.at(g, i), da.at(g, i), rp);
    }
    true
}

/// Three-operand variant of [`chunks2`].
#[inline]
fn chunks3<F: FnMut(usize, usize, usize, usize)>(
    aa: Span,
    ba: Span,
    ca: Span,
    g: &[u32],
    n: usize,
    mut f: F,
) -> bool {
    let Some(rp) = chunk_len(&[aa, ba, ca], n).filter(|&rp| rp >= 8 || rp == n) else {
        return false;
    };
    for i in (0..n).step_by(rp) {
        f(aa.at(g, i), ba.at(g, i), ca.at(g, i), rp);
    }
    true
}

/// Copies a copy in canonical order — row spans of one length on both
/// sides — one row per fixed-size `copy_from_slice`, or returns `false`
/// untouched for any other pair of spans.
#[inline]
fn copy_rows(s: &[f32], d: &mut [f32], sa: Span, da: Span, g: &[u32], n: usize) -> bool {
    let (Span::Rows { base: sb, start: ss, len }, Span::Rows { base: db, start: ds, len: dl }) =
        (sa, da)
    else {
        return false;
    };
    let rows = n / len as usize;
    let src = (sb as usize, &g[ss as usize..ss as usize + rows]);
    let dst = (db as usize, &g[ds as usize..ds as usize + rows]);
    match (len, dl) {
        (8, 8) => copy_rows_of::<8>(s, d, src, dst),
        (4, 4) => copy_rows_of::<4>(s, d, src, dst),
        (2, 2) => copy_rows_of::<2>(s, d, src, dst),
        _ => return false,
    }
    true
}

/// [`copy_rows`] for rows of `L` elements: `(base, row bases)` per side.
#[inline(always)]
fn copy_rows_of<const L: usize>(
    s: &[f32],
    d: &mut [f32],
    (sb, srows): (usize, &[u32]),
    (db, drows): (usize, &[u32]),
) {
    for (&sr, &dr) in srows.iter().zip(drows) {
        let (si, di) = (sb + sr as usize, db + dr as usize);
        d[di..di + L].copy_from_slice(&s[si..si + L]);
    }
}

/// Per-worker optimized replay state.
struct OptCta<'t> {
    trace: &'t OptTrace,
    bufs: Vec<Vec<f32>>,
    log: Option<Vec<OWrite>>,
}

impl Cta for OptCta<'_> {
    type Write = OWrite;

    fn run_block(&mut self, b: usize) -> Result<(), ExecError> {
        self.exec_block(b);
        Ok(())
    }

    fn log(&mut self) -> &mut Option<Vec<OWrite>> {
        &mut self.log
    }

    fn apply(w: &OWrite, globals: &mut [Vec<f32>]) {
        match w {
            OWrite::Run { buf, start, vals } => {
                let s = *start as usize;
                globals[*buf as usize][s..s + vals.len()].copy_from_slice(vals);
            }
            OWrite::At { buf, addr, val } => globals[*buf as usize][*addr as usize] = *val,
        }
    }

    /// Replay accumulates no counters: the trace carries the recording
    /// run's.
    fn finish(self) -> (Vec<Vec<f32>>, Counters) {
        (self.bufs, Counters::default())
    }
}

impl OptCta<'_> {
    #[inline]
    fn get(&self, buf: u32, addr: usize) -> f32 {
        self.bufs[buf as usize][addr]
    }

    #[inline]
    fn put(&mut self, buf: u32, addr: usize, v: f32) {
        self.bufs[buf as usize][addr] = v;
        if (buf as usize) < self.trace.n_globals {
            if let Some(log) = &mut self.log {
                log.push(OWrite::At { buf, addr: addr as u32, val: v });
            }
        }
    }

    /// Logs a contiguous run already written to `buf` at `start`.
    #[inline]
    fn log_run(&mut self, buf: u32, start: usize, n: usize) {
        if (buf as usize) < self.trace.n_globals && self.log.is_some() {
            let vals = self.bufs[buf as usize][start..start + n].to_vec();
            if let Some(log) = &mut self.log {
                log.push(OWrite::Run { buf, start: start as u32, vals });
            }
        }
    }

    /// Logs every destination row a bulk arm just wrote — only when the
    /// parallel merge needs it (`log` installed and `buf` global).
    #[inline]
    fn log_rows(&mut self, buf: u32, da: Span, n: usize) {
        let t = self.trace;
        if (buf as usize) < t.n_globals && self.log.is_some() {
            let Some(len) = row_len(da, n) else { return };
            for i in (0..n).step_by(len) {
                self.log_run(buf, da.at(&t.gather, i), len);
            }
        }
    }

    /// Disjoint `(&src, &mut dst)` buffer views; `src != dst`.
    #[inline]
    fn pair(&mut self, src: u32, dst: u32) -> (&[f32], &mut [f32]) {
        let (s, d) = (src as usize, dst as usize);
        debug_assert_ne!(s, d);
        if s < d {
            let (lo, hi) = self.bufs.split_at_mut(d);
            (&lo[s], &mut hi[0])
        } else {
            let (lo, hi) = self.bufs.split_at_mut(s);
            (&hi[0], &mut lo[d])
        }
    }

    // `assign_op_pattern`: FMA accumulates are written `acc = x*y + acc`
    // (not `acc += x*y`) so the f32 addition keeps the plan
    // interpreter's operand order exactly — bit-identity is a hard
    // contract here.
    #[allow(clippy::too_many_lines, clippy::assign_op_pattern)]
    fn exec_block(&mut self, b: usize) {
        let t = self.trace;
        let (start, end) = t.blocks[b];
        let g: &[u32] = &t.gather;
        for step in &t.steps[start as usize..end as usize] {
            match *step {
                OTp::Fill { buf } => {
                    self.bufs[buf as usize].fill(0.0);
                    // Never a global (plans reject global allocs), so
                    // no logging for the parallel merge.
                }
                OTp::Copy { src, dst, sa, da, n } => {
                    let n = n as usize;
                    let logged = (dst as usize) < t.n_globals && self.log.is_some();
                    let bulk = src != dst && {
                        let (s, d) = self.pair(src, dst);
                        copy_rows(s, d, sa, da, g, n)
                            || chunks2(sa, da, g, n, |si, di, len| {
                                d[di..di + len].copy_from_slice(&s[si..si + len]);
                            })
                    };
                    if bulk {
                        self.log_rows(dst, da, n);
                    } else if src != dst && !logged {
                        let (s, d) = self.pair(src, dst);
                        zip2!(sa, da, g, n, |si, di| d[di] = s[si]);
                    } else {
                        zip2!(sa, da, g, n, |s, d| {
                            let v = self.get(src, s);
                            self.put(dst, d, v);
                        });
                    }
                }
                OTp::Unary { op, src, dst, sa, da, n } => {
                    let n = n as usize;
                    let bulk = src != dst && {
                        let (s, d) = self.pair(src, dst);
                        fix_unary!(
                            op,
                            chunks2(sa, da, g, n, |si, di, len| {
                                for (x, y) in s[si..si + len].iter().zip(&mut d[di..di + len]) {
                                    *y = op.apply(f64::from(*x)) as f32;
                                }
                            })
                        )
                    };
                    if bulk {
                        self.log_rows(dst, da, n);
                    } else if src != dst && !((dst as usize) < t.n_globals && self.log.is_some()) {
                        let (s, d) = self.pair(src, dst);
                        zip2!(sa, da, g, n, |si, di| {
                            d[di] = op.apply(f64::from(s[si])) as f32;
                        });
                    } else if !((dst as usize) < t.n_globals && self.log.is_some()) {
                        // src == dst: in-place, element order preserved.
                        let d = &mut self.bufs[dst as usize];
                        // Each element reads only itself: whole rows.
                        let rows = sa == da
                            && fix_unary!(
                                op,
                                chunks2(da, da, g, n, |_, di, len| {
                                    for o in &mut d[di..di + len] {
                                        *o = op.apply(f64::from(*o)) as f32;
                                    }
                                })
                            );
                        if !rows {
                            zip2!(sa, da, g, n, |si, di| {
                                d[di] = op.apply(f64::from(d[si])) as f32;
                            });
                        }
                    } else {
                        zip2!(sa, da, g, n, |s, d| {
                            let v = self.get(src, s);
                            self.put(dst, d, op.apply(f64::from(v)) as f32);
                        });
                    }
                }
                OTp::Binary { op, a, b, dst, aa, ba, da, n } => {
                    let n = n as usize;
                    let bulk = a != dst && b != dst && {
                        let mut dvec = std::mem::take(&mut self.bufs[dst as usize]);
                        let hit = {
                            let av = &self.bufs[a as usize];
                            let bv = &self.bufs[b as usize];
                            fix_binary!(
                                op,
                                chunks3(aa, ba, da, g, n, |ia, ib, id, len| {
                                    let (xs, ys) = (&av[ia..ia + len], &bv[ib..ib + len]);
                                    let out = &mut dvec[id..id + len];
                                    for ((x, y), o) in xs.iter().zip(ys).zip(out) {
                                        *o = op.apply(f64::from(*x), f64::from(*y)) as f32;
                                    }
                                })
                            )
                        };
                        self.bufs[dst as usize] = dvec;
                        hit
                    };
                    if bulk {
                        self.log_rows(dst, da, n);
                    } else if a != dst
                        && b != dst
                        && !((dst as usize) < t.n_globals && self.log.is_some())
                    {
                        let mut dvec = std::mem::take(&mut self.bufs[dst as usize]);
                        {
                            let av = &self.bufs[a as usize];
                            let bv = &self.bufs[b as usize];
                            zip3!(aa, ba, da, g, n, |ia, ib, id| {
                                dvec[id] = op.apply(f64::from(av[ia]), f64::from(bv[ib])) as f32;
                            });
                        }
                        self.bufs[dst as usize] = dvec;
                    } else if a == dst
                        && b != dst
                        && !((dst as usize) < t.n_globals && self.log.is_some())
                    {
                        // In-place accumulate: read/write the same
                        // buffer in element order, like the plan
                        // interpreter.
                        let (bv, d) = self.pair(b, dst);
                        // Each element reads only itself: whole rows.
                        let rows = aa == da
                            && fix_binary!(
                                op,
                                chunks2(ba, da, g, n, |ib, id, len| {
                                    let out = d[id..id + len].iter_mut();
                                    for (o, y) in out.zip(&bv[ib..ib + len]) {
                                        *o = op.apply(f64::from(*o), f64::from(*y)) as f32;
                                    }
                                })
                            );
                        if !rows {
                            zip3!(aa, ba, da, g, n, |ia, ib, id| {
                                d[id] = op.apply(f64::from(d[ia]), f64::from(bv[ib])) as f32;
                            });
                        }
                    } else {
                        zip3!(aa, ba, da, g, n, |ia, ib, id| {
                            let x = self.get(a, ia);
                            let y = self.get(b, ib);
                            self.put(dst, id, op.apply(f64::from(x), f64::from(y)) as f32);
                        });
                    }
                }
                OTp::Fma { a, b, c, aa, ba, ca, n } => {
                    let n = n as usize;
                    let bulk = a != c && b != c && {
                        let mut cvec = std::mem::take(&mut self.bufs[c as usize]);
                        let hit = {
                            let av = &self.bufs[a as usize];
                            let bv = &self.bufs[b as usize];
                            chunks3(aa, ba, ca, g, n, |ia, ib, ic, len| {
                                let (xs, ys) = (&av[ia..ia + len], &bv[ib..ib + len]);
                                for ((x, y), o) in xs.iter().zip(ys).zip(&mut cvec[ic..ic + len]) {
                                    *o = x * y + *o;
                                }
                            })
                        };
                        self.bufs[c as usize] = cvec;
                        hit
                    };
                    if bulk {
                        self.log_rows(c, ca, n);
                    } else if a != c
                        && b != c
                        && !((c as usize) < t.n_globals && self.log.is_some())
                    {
                        let mut cvec = std::mem::take(&mut self.bufs[c as usize]);
                        {
                            let av = &self.bufs[a as usize];
                            let bv = &self.bufs[b as usize];
                            zip3!(aa, ba, ca, g, n, |ia, ib, ic| {
                                cvec[ic] = av[ia] * bv[ib] + cvec[ic];
                            });
                        }
                        self.bufs[c as usize] = cvec;
                    } else {
                        zip3!(aa, ba, ca, g, n, |ia, ib, ic| {
                            let x = self.get(a, ia);
                            let y = self.get(b, ib);
                            let z = self.get(c, ic);
                            self.put(c, ic, x * y + z);
                        });
                    }
                }
                OTp::Init { value, dst, da, n } => {
                    let n = n as usize;
                    if n == 0 {
                        continue;
                    }
                    let bulk = {
                        let dbuf = &mut self.bufs[dst as usize];
                        chunks2(da, da, g, n, |_, di, len| dbuf[di..di + len].fill(value))
                    };
                    if bulk {
                        self.log_rows(dst, da, n);
                    } else {
                        each1!(da, g, n, |d| self.put(dst, d, value));
                    }
                }
                OTp::Reduce { op, src, dst, sa, da, groups, per } => {
                    let per = per as usize;
                    match sa {
                        Span::Affine { base, stride: 1 } => {
                            for gi in 0..groups as usize {
                                let s0 = base as usize + gi * per;
                                let acc = self.bufs[src as usize][s0..s0 + per]
                                    .iter()
                                    .fold(op.identity(), |acc, &v| op.combine(acc, f64::from(v)));
                                self.put(dst, da.at(g, gi), acc as f32);
                            }
                        }
                        _ => {
                            for gi in 0..groups as usize {
                                let mut acc = op.identity();
                                each1!(sa.group(gi, per), g, per, |addr| {
                                    acc = op.combine(acc, f64::from(self.get(src, addr)));
                                });
                                self.put(dst, da.at(g, gi), acc as f32);
                            }
                        }
                    }
                }
                OTp::MmaTile { m16, a, b, c, tiles: (ts, te) } => {
                    // `c` is private and distinct from `a` and `b`: no
                    // write to log, and no aliasing with the operands.
                    let tiles = &t.tiles[ts as usize..te as usize];
                    let mut cv = std::mem::take(&mut self.bufs[c as usize]);
                    let (av, bv) = (&self.bufs[a as usize], &self.bufs[b as usize]);
                    if m16 {
                        mma_tiles::<16, 8, 16>(av, bv, &mut cv, tiles);
                    } else {
                        mma_tiles::<8, 8, 4>(av, bv, &mut cv, tiles);
                    }
                    self.bufs[c as usize] = cv;
                }
                OTp::Shfl { mask, src, dst, sa, da, lanes } => {
                    // A warp has at most 32 lanes: stage on the stack.
                    let lanes = lanes as usize;
                    let mut vals = [0.0f32; 32];
                    for (li, v) in vals[..lanes].iter_mut().enumerate() {
                        *v = self.get(src, sa.at(g, li));
                    }
                    for li in 0..lanes {
                        let peer = li ^ mask as usize;
                        self.put(dst, da.at(g, li), vals[peer % lanes]);
                    }
                }
            }
        }
    }
}

/// Runs the MMAs of a tile step in trace order, each in place on its
/// contiguous rows `[a, b, c]` (see [`OTp::MmaTile`]). The kernel
/// instance is chosen once per step: the AVX2 one when the CPU has it.
fn mma_tiles<const M: usize, const N: usize, const K: usize>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    tiles: &[[u32; 3]],
) {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        for &[ta, tb, tc] in tiles {
            // SAFETY: the CPU supports AVX2, checked just above.
            unsafe {
                mma_avx2::<M, N, K>(&a[ta as usize..], &b[tb as usize..], &mut c[tc as usize..]);
            }
        }
        return;
    }
    for &[ta, tb, tc] in tiles {
        mma_base::<M, N, K>(&a[ta as usize..], &b[tb as usize..], &mut c[tc as usize..]);
    }
}

/// One `M×N×K` MMA on row-major `a[m][k]`, `b[k][n]` and `c[m][n]` at
/// the start of each slice: every output takes a fresh
/// `acc = Σ_k a·b` in `k` order, then `c += acc` — the plan
/// interpreter's per-output op order, so bits match. Rust never
/// contracts `x*y + z` into a fused multiply-add, and the `n` loop is
/// independent per output, so the vectorizer may widen it freely.
#[inline(always)]
fn mma_body<const M: usize, const N: usize, const K: usize>(a: &[f32], b: &[f32], c: &mut [f32]) {
    let (a, b, c) = (&a[..M * K], &b[..K * N], &mut c[..M * N]);
    for (arow, crow) in a.chunks_exact(K).zip(c.chunks_exact_mut(N)) {
        let mut acc = [0.0f32; N];
        for (&av, brow) in arow.iter().zip(b.chunks_exact(N)) {
            for (x, &bv) in acc.iter_mut().zip(brow) {
                *x += av * bv;
            }
        }
        for (y, x) in crow.iter_mut().zip(acc) {
            *y += x;
        }
    }
}

/// [`mma_body`] compiled for AVX2: one 8-wide register per row of
/// `acc`. AVX2 only, never `fma`, so each multiply and add still
/// rounds on its own.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline(never)]
fn mma_avx2<const M: usize, const N: usize, const K: usize>(a: &[f32], b: &[f32], c: &mut [f32]) {
    mma_body::<M, N, K>(a, b, c);
}

/// [`mma_body`] for the baseline target.
#[inline(never)]
fn mma_base<const M: usize, const N: usize, const K: usize>(a: &[f32], b: &[f32], c: &mut [f32]) {
    mma_body::<M, N, K>(a, b, c);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TOp, Trace};
    use crate::trace_opt::optimize_trace;
    use graphene_ir::ops::ReduceOp;

    /// The plan interpreter's MMA, scalar: per output a fresh `k`-order
    /// sum, then one add into `c`.
    fn reference<const M: usize, const N: usize, const K: usize>(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) {
        for m in 0..M {
            for n in 0..N {
                let mut acc = 0.0f32;
                for k in 0..K {
                    acc += a[m * K + k] * b[k * N + n];
                }
                c[m * N + n] += acc;
            }
        }
    }

    /// ±0.0 and subnormals: the signed-zero and gradual-underflow
    /// paths, with no overflow.
    const FINITE: [u32; 4] = [0x0000_0000, 0x8000_0000, 0x0000_0001, 0x8040_0000];
    /// Quiet and signalling NaNs with distinct payloads.
    const NANS: [u32; 3] = [0x7fc0_0001, 0xffc1_2345, 0x7f80_0003];
    /// Overflow to ±inf, and ±inf itself.
    const HUGE: [u32; 3] = [0x7f7f_ffff, 0x7f80_0000, 0xff80_0000];

    /// `len` values, one in four drawn from `odd`, the rest ordinary
    /// full-mantissa numbers, so products and sums round.
    fn values(len: usize, seed: u64, odd: &[u32]) -> Vec<f32> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let r = (s >> 33) as u32;
                if r.is_multiple_of(4) {
                    f32::from_bits(odd[(r / 4) as usize % odd.len()])
                } else {
                    (r % 1_000_003) as f32 / 125_000.0 - 4.0
                }
            })
            .collect()
    }

    /// Equal bits, except that two NaNs count as equal: when an add or
    /// multiply meets two NaNs, IEEE 754 and Rust leave open whose
    /// payload the result carries, and the compiler may commute it.
    fn assert_same(got: &[f32], want: &[f32], what: &str) {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            let same = g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
            assert!(
                same,
                "{what}: element {i} is {:#010x}, want {:#010x}",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    /// Runs every kernel instance (AVX2 when the CPU has it) and the
    /// tile walk on `a`, `b`, `c0` against the scalar reference.
    fn check<const M: usize, const N: usize, const K: usize>(
        a: &[f32],
        b: &[f32],
        c0: &[f32],
        cmp: fn(&[f32], &[f32], &str),
        what: &str,
    ) {
        let mut want = c0.to_vec();
        reference::<M, N, K>(&a[3..], &b[5..], &mut want[7..]);
        let mut got = c0.to_vec();
        mma_base::<M, N, K>(&a[3..], &b[5..], &mut got[7..]);
        cmp(&got, &want, &format!("baseline m{M}n{N}k{K} {what}"));
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            let mut got = c0.to_vec();
            // SAFETY: the CPU supports AVX2, checked just above.
            unsafe { mma_avx2::<M, N, K>(&a[3..], &b[5..], &mut got[7..]) };
            cmp(&got, &want, &format!("avx2 m{M}n{N}k{K} {what}"));
        }
        // Two MMAs into one C tile, then one into the next, in order.
        let mut want = c0.to_vec();
        want.extend_from_within(..M * N);
        let mut got = want.clone();
        let tiles = [[3, 5, 7], [0, 0, 7], [1, 2, 7 + (M * N) as u32]];
        for [ta, tb, tc] in tiles.map(|t| t.map(|x| x as usize)) {
            reference::<M, N, K>(&a[ta..], &b[tb..], &mut want[tc..]);
        }
        mma_tiles::<M, N, K>(a, b, &mut got, &tiles);
        cmp(&got, &want, &format!("tile walk m{M}n{N}k{K} {what}"));
    }

    fn instances_match<const M: usize, const N: usize, const K: usize>() {
        let all: Vec<u32> = FINITE.iter().chain(&NANS).chain(&HUGE).copied().collect();
        let exact = |g: &[f32], w: &[f32], what: &str| {
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(g), bits(w), "{what}");
        };
        for seed in 0..200 {
            // Finite values, ±0.0 and subnormals: equal bits throughout.
            let (a, b) = (values(M * K + 3, seed, &FINITE), values(K * N + 5, seed + 1, &FINITE));
            let c0 = values(M * N + 7, seed + 2, &FINITE);
            check::<M, N, K>(&a, &b, &c0, exact, &format!("finite, seed {seed}"));
            // One NaN in A: the results it reaches have a single NaN
            // source, whose payload they must carry.
            let mut a = a;
            a[3 + seed as usize % (M * K)] = f32::from_bits(NANS[seed as usize % NANS.len()]);
            check::<M, N, K>(&a, &b, &c0, exact, &format!("lone NaN, seed {seed}"));
            // Every special value: NaN results must agree as NaNs.
            let (a, b) = (values(M * K + 3, seed, &all), values(K * N + 5, seed + 1, &all));
            let c0 = values(M * N + 7, seed + 2, &all);
            check::<M, N, K>(&a, &b, &c0, assert_same, &format!("all specials, seed {seed}"));
        }
    }

    /// One block updating global `x` (128) in place from global `y`
    /// (128) with `steps`; their arena is `addrs`.
    fn in_place(steps: Vec<TOp>, addrs: Vec<u32>) -> Trace {
        let n = steps.len() as u32;
        Trace {
            steps,
            addrs,
            blocks: vec![(0, n)],
            buf_lens: vec![128, 128],
            n_globals: 2,
            params: vec![(TensorId(0), "x".to_string(), 128), (TensorId(1), "y".to_string(), 128)],
            counters: Counters::default(),
        }
    }

    /// `o` with every in-place operand turned into a gather over the
    /// same addresses, which forces the element-by-element `zip` arms.
    fn as_gathers(mut o: OptTrace) -> OptTrace {
        let mut gather = std::mem::take(&mut o.gather);
        let mut to_gather = |s: &mut Span, n: u32| {
            let start = gather.len() as u32;
            gather.extend((0..n as usize).map(|i| s.at(&[], i) as u32));
            *s = Span::Gather { base: 0, start };
        };
        for step in &mut o.steps {
            match step {
                OTp::Unary { sa, da, n, .. } => {
                    to_gather(sa, *n);
                    to_gather(da, *n);
                }
                OTp::Binary { aa, da, n, .. } => {
                    to_gather(aa, *n);
                    to_gather(da, *n);
                }
                _ => {}
            }
        }
        o.gather = gather;
        o
    }

    #[test]
    fn in_place_row_arms_match_the_element_walk() {
        let all: Vec<u32> = FINITE.iter().chain(&NANS).chain(&HUGE).copied().collect();
        // In-place operands: 64 contiguous elements, and 8 rows of 8
        // spaced 16 apart.
        let contiguous: Vec<u32> = (0..64).collect();
        let rows: Vec<u32> = (0..64).map(|i| i / 8 * 16 + i % 8 + 3).collect();
        // The other operand: contiguous, broadcast and gathered.
        let gathered: Vec<u32> = (0..64).map(|i| (i * 37 + 5) % 128).collect();
        let others = [contiguous.clone(), vec![9; 64], gathered];
        let binaries = [
            BinaryOp::Add,
            BinaryOp::Sub,
            BinaryOp::Mul,
            BinaryOp::Div,
            BinaryOp::Max,
            BinaryOp::Min,
        ];
        let unaries = [
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
        ];
        for seed in 0..20 {
            let inputs: HashMap<TensorId, Vec<f32>> = [
                (TensorId(0), values(128, seed, &all)),
                (TensorId(1), values(128, seed + 100, &all)),
            ]
            .into();
            for own in [&contiguous, &rows] {
                let mut steps = Vec::new();
                let mut addrs = Vec::new();
                let mut seg = |v: &[u32]| {
                    addrs.extend_from_slice(v);
                    (addrs.len() - v.len()) as u32
                };
                for op in binaries {
                    for other in &others {
                        let (aa, ba, da) = (seg(own), seg(other), seg(own));
                        steps.push(TOp::Binary { op, a: 0, b: 1, dst: 0, aa, ba, da, n: 64 });
                    }
                }
                for op in unaries {
                    let (sa, da) = (seg(own), seg(own));
                    steps.push(TOp::Unary { op, src: 0, dst: 0, sa, da, n: 64 });
                }
                let t = in_place(steps, addrs);
                let rows = optimize_trace(&t);
                assert!(rows.steps.iter().all(|s| match *s {
                    OTp::Binary { aa, da, .. } | OTp::Unary { sa: aa, da, .. } => {
                        aa == da && row_len(da, 64).is_some()
                    }
                    _ => false,
                }));
                let zip = as_gathers(optimize_trace(&t));
                let got = &replay_opt(&rows, &inputs).expect("rows").globals[&TensorId(0)];
                let want = &replay_opt(&zip, &inputs).expect("zip").globals[&TensorId(0)];
                assert_same(got, want, &format!("seed {seed}, {} in-place rows", own.len()));
            }
            // Reductions of 8 groups of 4 over a lane grid (group stride
            // 16, element stride 2) and over a gather, against their
            // recorded addresses walked one element at a time.
            let grid: Vec<u32> = (0..32).map(|i| 3 + i / 4 * 16 + i % 4 * 2).collect();
            let gathered: Vec<u32> = (0..32).map(|i| (i * 37 + 5) % 128).collect();
            for (src, lanes) in [(&grid, true), (&gathered, false)] {
                for op in [ReduceOp::Sum, ReduceOp::Max] {
                    let addrs: Vec<u32> = src.iter().copied().chain(64..72).collect();
                    let reduce =
                        TOp::Reduce { op, src: 1, dst: 0, sa: 0, da: 32, groups: 8, per: 4 };
                    let o = optimize_trace(&in_place(vec![reduce], addrs));
                    let OTp::Reduce { sa, .. } = o.steps[0] else { panic!("{:?}", o.steps[0]) };
                    let (want_span, classified) = match sa {
                        Span::Lanes { .. } => ("Lanes", lanes),
                        Span::Gather { .. } => ("Gather", !lanes),
                        _ => ("other", false),
                    };
                    assert!(classified, "{sa:?}");
                    let (x, y) = (&inputs[&TensorId(0)], &inputs[&TensorId(1)]);
                    let mut want = x.clone();
                    for (gi, group) in src.chunks(4).enumerate() {
                        let fold = |acc, &a: &u32| op.combine(acc, f64::from(y[a as usize]));
                        want[64 + gi] = group.iter().fold(op.identity(), fold) as f32;
                    }
                    let got = &replay_opt(&o, &inputs).expect("reduce").globals[&TensorId(0)];
                    assert_same(
                        got,
                        &want,
                        &format!("seed {seed}, {op:?} over a {want_span} span"),
                    );
                }
            }
        }
    }

    #[test]
    fn mma_kernel_instances_match_the_scalar_reference_bitwise() {
        instances_match::<16, 8, 16>();
        instances_match::<8, 8, 4>();
    }
}
