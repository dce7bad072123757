//! Plan execution, and the CTA fan-out both grid engines share.
//!
//! Executes a [`KernelPlan`] — the compiled form of a kernel (see
//! [`crate::plan`]) — with no hashing, no atomic-spec re-matching, and
//! no per-lane allocation on the hot path: lane addresses are emitted
//! into a reusable scratch buffer, bank conflicts are tallied in a
//! fixed 32-entry [`BankTally`], and register files are flat
//! per-tensor arrays indexed by `thread * len + addr`.
//!
//! Independent CTAs execute concurrently under [`ExecMode::Parallel`]
//! through `fan_out`, which compiled-plan execution and optimized
//! replay ([`crate::replay`]) both use: each worker owns a private
//! snapshot of the global buffers plus per-CTA shared/register state,
//! records its global writes in a per-block log, and the logs are
//! merged **in ascending block order** — so results and counters are
//! bit-identical to [`ExecMode::Sequential`] whenever no CTA reads
//! another CTA's writes (the independence every Graphene grid
//! decomposition expresses, and the golden equivalence test checks for
//! every paper kernel).

use crate::counters::Counters;
use crate::exec::{ExecError, ExecOutcome};
use crate::plan::{BankTally, BufRef, CGuard, COperand, CSpec, CStmt, GroupLanes, KernelPlan};
use graphene_ir::atomic::AtomicSemantics;
use graphene_ir::tensor::TensorId;
use graphene_ir::MemSpace;
use graphene_sym::SlotEnv;
use std::collections::HashMap;

/// How CTAs (thread blocks) are scheduled, by compiled-plan execution
/// and optimized replay alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Blocks run one after another on the calling thread.
    Sequential,
    /// Independent blocks run concurrently across OS threads, with a
    /// deterministic in-block-order merge. Falls back to sequential
    /// when the grid (or the machine) offers no parallelism.
    #[default]
    Parallel,
    /// Like [`Parallel`](Self::Parallel) with an explicit worker-thread
    /// count, regardless of the machine's core count (used by the
    /// equivalence tests to force the threaded merge path).
    Workers(usize),
}

impl ExecMode {
    /// Worker threads for a `grid`-block launch: at least 1, at most
    /// one per block.
    fn workers(self, grid: usize) -> usize {
        let want = match self {
            ExecMode::Sequential => 1,
            ExecMode::Parallel => std::thread::available_parallelism().map_or(1, |n| n.get()),
            ExecMode::Workers(n) => n,
        };
        want.clamp(1, grid.max(1))
    }
}

/// One worker's CTA engine as [`fan_out`] drives it: the plan
/// interpreter ([`CtaRunner`]) or the optimized replay.
pub(crate) trait Cta {
    /// One logged global write.
    type Write: Send;
    /// Runs block `b`, pushing every global write to the log while one
    /// is installed.
    fn run_block(&mut self, b: usize) -> Result<(), ExecError>;
    /// The global-write log; a parallel worker installs one per block.
    fn log(&mut self) -> &mut Option<Vec<Self::Write>>;
    /// Applies one logged write to the merged global buffers.
    fn apply(w: &Self::Write, globals: &mut [Vec<f32>]);
    /// The worker's buffers, globals first, and the counters it
    /// accumulated.
    fn finish(self) -> (Vec<Vec<f32>>, Counters);
}

/// Runs blocks `0..grid` on workers made by `spawn` from a copy of
/// `init`, and returns the final buffers (globals first) and the
/// workers' counters.
///
/// One worker runs every block in place when `mode` (or the grid)
/// offers no parallelism. Otherwise each worker thread takes a
/// contiguous chunk of blocks on its own snapshot of `init` and logs
/// each block's global writes; the logs are applied to `init` in
/// ascending block order, and the worker counters folded in worker
/// order.
///
/// # Errors
///
/// The error of the lowest failing block, in every mode.
pub(crate) fn fan_out<C: Cta>(
    mode: ExecMode,
    grid: usize,
    init: Vec<Vec<f32>>,
    spawn: impl Fn(Vec<Vec<f32>>) -> C + Sync,
) -> Result<(Vec<Vec<f32>>, Counters), ExecError> {
    let workers = mode.workers(grid);
    if workers == 1 {
        let mut cta = spawn(init);
        for b in 0..grid {
            cta.run_block(b)?;
        }
        return Ok(cta.finish());
    }
    let chunk = grid.div_ceil(workers);
    let mut logs: Vec<Vec<C::Write>> = std::iter::repeat_with(Vec::new).take(grid).collect();
    let mut worker_counters = vec![Counters::default(); workers];
    let mut worker_errs: Vec<Option<(usize, ExecError)>> = vec![None; workers];
    let (init_ref, spawn) = (&init, &spawn);
    std::thread::scope(|s| {
        for ((w, slots), (ctr, err)) in logs
            .chunks_mut(chunk)
            .enumerate()
            .zip(worker_counters.iter_mut().zip(worker_errs.iter_mut()))
        {
            s.spawn(move || {
                let mut cta = spawn(init_ref.clone());
                for (i, slot) in slots.iter_mut().enumerate() {
                    let b = w * chunk + i;
                    *cta.log() = Some(Vec::new());
                    if let Err(e) = cta.run_block(b) {
                        *err = Some((b, e));
                        break;
                    }
                    *slot = cta.log().take().expect("log installed above");
                }
                *ctr = cta.finish().1;
            });
        }
    });
    if let Some((_, e)) = worker_errs.into_iter().flatten().min_by_key(|&(b, _)| b) {
        return Err(e);
    }
    let mut globals = init;
    for w in logs.iter().flatten() {
        C::apply(w, &mut globals);
    }
    let mut counters = Counters::default();
    for c in &worker_counters {
        counters.merge(c);
    }
    Ok((globals, counters))
}

/// One logged global-memory write of the plan interpreter.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WriteRec {
    buf: u32,
    addr: i64,
    val: f32,
}

/// Reusable per-group address scratch: all lanes' addresses for every
/// operand of one spec execution, segment per operand, lane-major
/// within a segment.
#[derive(Debug, Default)]
pub(crate) struct AddrScratch {
    pub(crate) addrs: Vec<i64>,
    /// Per input operand: `(segment start, addresses per lane)`.
    pub(crate) ins: Vec<(usize, usize)>,
    /// Per output operand: `(segment start, addresses per lane)`.
    pub(crate) outs: Vec<(usize, usize)>,
}

impl AddrScratch {
    #[inline]
    fn lane(&self, seg: (usize, usize), li: usize) -> &[i64] {
        let (start, n) = seg;
        &self.addrs[start + li * n..start + (li + 1) * n]
    }
}

/// Per-worker CTA interpreter state over a shared [`KernelPlan`].
pub(crate) struct CtaRunner<'p> {
    plan: &'p KernelPlan,
    env: SlotEnv,
    global: Vec<Vec<f32>>,
    shared: Vec<Vec<f32>>,
    regs: Vec<Vec<f32>>,
    pub(crate) counters: Counters,
    scratch: AddrScratch,
    tally: BankTally,
    guards: Vec<&'p CGuard>,
    lane_buf: Vec<i64>,
    /// When `Some`, global writes are logged for the ordered merge.
    pub(crate) log: Option<Vec<WriteRec>>,
    /// When `Some`, executed allocs and groups are captured into a
    /// trace ([`crate::trace::record_trace`]).
    pub(crate) rec: Option<crate::trace::Recorder>,
}

impl<'p> CtaRunner<'p> {
    pub(crate) fn new(
        plan: &'p KernelPlan,
        global: Vec<Vec<f32>>,
        bindings: &HashMap<String, i64>,
    ) -> Self {
        let mut env = plan.slots.env();
        env.bind_from(&plan.slots, bindings);
        let shared = plan.shared.iter().map(|&(_, len)| vec![0.0; len]).collect();
        let regs = plan
            .regs
            .iter()
            .map(|&(_, len)| vec![0.0; len * plan.block_threads as usize])
            .collect();
        CtaRunner {
            plan,
            env,
            global,
            shared,
            regs,
            counters: Counters::default(),
            scratch: AddrScratch::default(),
            tally: BankTally::new(),
            guards: Vec::new(),
            lane_buf: Vec::new(),
            log: None,
            rec: None,
        }
    }

    fn exec_stmts(&mut self, stmts: &'p [CStmt]) -> Result<(), ExecError> {
        for s in stmts {
            match s {
                CStmt::Alloc(buf) => {
                    match buf.mem {
                        MemSpace::Shared => self.shared[buf.idx].fill(0.0),
                        MemSpace::Register => self.regs[buf.idx].fill(0.0),
                        MemSpace::Global => unreachable!("plan rejects global allocs"),
                    }
                    if let Some(rec) = &mut self.rec {
                        rec.record_alloc(*buf);
                    }
                }
                CStmt::For { slot, extent, body } => {
                    for i in 0..*extent {
                        self.env.set(*slot, i);
                        self.exec_stmts(body)?;
                    }
                    self.env.clear(*slot);
                }
                CStmt::If { guard, thread_dependent, then } => {
                    if *thread_dependent {
                        // Per-thread guard: push it; specs inside filter
                        // their lanes (partial-tile predication, §3.4).
                        self.guards.push(guard);
                        let r = self.exec_stmts(then);
                        self.guards.pop();
                        r?;
                    } else {
                        let l = guard
                            .lhs
                            .eval_named(&self.env, &self.plan.slots)
                            .map_err(|e| ExecError::Eval(e.to_string()))?;
                        let r = guard
                            .rhs
                            .eval_named(&self.env, &self.plan.slots)
                            .map_err(|e| ExecError::Eval(e.to_string()))?;
                        if l < r {
                            self.exec_stmts(then)?;
                        }
                    }
                }
                CStmt::SyncBlock => self.counters.syncs += 1,
                CStmt::Exec(spec) => self.exec_spec(spec)?,
            }
        }
        Ok(())
    }

    fn exec_spec(&mut self, cs: &'p CSpec) -> Result<(), ExecError> {
        match &cs.lanes {
            GroupLanes::PerThread(ids) => {
                // Per-thread instruction: batch lanes into warps so
                // bank conflicts are accounted per warp, as the
                // hardware serialises them.
                if self.guards.is_empty() {
                    for ci in 0..ids.len().div_ceil(32) {
                        self.exec_group(cs, &ids[ci * 32..((ci + 1) * 32).min(ids.len())])?;
                    }
                } else {
                    let mut buf = std::mem::take(&mut self.lane_buf);
                    buf.clear();
                    buf.extend(ids.iter().copied().filter(|&t| self.lane_active(t)));
                    self.env.clear(self.plan.tid_slot);
                    let mut r = Ok(());
                    for chunk in buf.chunks(32) {
                        r = self.exec_group(cs, chunk);
                        if r.is_err() {
                            break;
                        }
                    }
                    self.lane_buf = buf;
                    r?;
                }
            }
            GroupLanes::Collective(groups) => {
                for lanes in groups {
                    if !self.guards.is_empty() {
                        let active = lanes.iter().filter(|&&t| self.lane_active(t)).count();
                        self.env.clear(self.plan.tid_slot);
                        if active == 0 {
                            continue;
                        }
                        if active != lanes.len() {
                            return Err(ExecError::Eval(format!(
                                "collective spec under a divergent guard: {} of {} lanes active",
                                active,
                                lanes.len()
                            )));
                        }
                    }
                    self.exec_group(cs, lanes)?;
                }
            }
        }
        Ok(())
    }

    /// Does thread `t` pass every active guard predicate?
    #[inline]
    fn lane_active(&mut self, t: i64) -> bool {
        self.env.set(self.plan.tid_slot, t);
        let env = &self.env;
        self.guards.iter().all(|g| match (g.lhs.eval(env), g.rhs.eval(env)) {
            (Ok(l), Ok(r)) => l < r,
            _ => false,
        })
    }

    /// Accounts the traffic of one operand's warp-batch access.
    fn account(&mut self, op: &COperand, addrs: &[i64], is_read: bool) {
        let total = addrs.len() as u64 * op.bytes_per;
        match op.buf.mem {
            MemSpace::Global => {
                if is_read {
                    self.counters.global_read_bytes += total;
                } else {
                    self.counters.global_write_bytes += total;
                }
            }
            MemSpace::Shared => {
                if is_read {
                    self.counters.smem_read_bytes += total;
                } else {
                    self.counters.smem_write_bytes += total;
                }
                for &a in addrs {
                    self.tally.add_addr(a, op.bytes_per);
                }
                let (ideal, transactions) = self.tally.grade();
                self.counters.smem_accesses += ideal;
                self.counters.smem_transactions += transactions;
            }
            MemSpace::Register => {}
        }
    }

    #[inline]
    fn read(&self, buf: BufRef, addr: i64, thread: i64, what: &str) -> Result<f32, ExecError> {
        if addr < 0 || addr as usize >= buf.len {
            return Err(ExecError::OutOfBounds { what: what.into(), addr, len: buf.len });
        }
        Ok(match buf.mem {
            MemSpace::Global => self.global[buf.idx][addr as usize],
            MemSpace::Shared => self.shared[buf.idx][addr as usize],
            MemSpace::Register => self.regs[buf.idx][thread as usize * buf.len + addr as usize],
        })
    }

    #[inline]
    fn write(
        &mut self,
        buf: BufRef,
        addr: i64,
        thread: i64,
        v: f32,
        what: &str,
    ) -> Result<(), ExecError> {
        if addr < 0 || addr as usize >= buf.len {
            return Err(ExecError::OutOfBounds { what: what.into(), addr, len: buf.len });
        }
        match buf.mem {
            MemSpace::Global => {
                self.global[buf.idx][addr as usize] = v;
                if let Some(log) = &mut self.log {
                    log.push(WriteRec { buf: buf.idx as u32, addr, val: v });
                }
            }
            MemSpace::Shared => self.shared[buf.idx][addr as usize] = v,
            MemSpace::Register => {
                self.regs[buf.idx][thread as usize * buf.len + addr as usize] = v;
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_lines, clippy::needless_range_loop)]
    fn exec_group(&mut self, cs: &CSpec, lanes: &[i64]) -> Result<(), ExecError> {
        self.counters.instructions += if cs.collective {
            1 // collective: one instruction per group
        } else {
            lanes.len() as u64
        };
        // Emit every lane's addresses for all operands into the scratch
        // (one flat buffer, no per-lane allocation).
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.addrs.clear();
        scratch.ins.clear();
        scratch.outs.clear();
        let filled = emit_ops(
            self.plan,
            lanes,
            &cs.ins,
            &mut scratch.ins,
            &mut scratch.addrs,
            &mut self.env,
        )
        .and_then(|()| {
            emit_ops(
                self.plan,
                lanes,
                &cs.outs,
                &mut scratch.outs,
                &mut scratch.addrs,
                &mut self.env,
            )
        });
        self.env.clear(self.plan.tid_slot);
        if let Err(e) = filled {
            self.scratch = scratch;
            return Err(e);
        }

        // Traffic accounting per operand.
        for (oi, op) in cs.ins.iter().enumerate() {
            let (start, n) = scratch.ins[oi];
            let seg = &scratch.addrs[start..start + lanes.len() * n];
            self.account(op, seg, true);
        }
        for (oi, op) in cs.outs.iter().enumerate() {
            let (start, n) = scratch.outs[oi];
            let seg = &scratch.addrs[start..start + lanes.len() * n];
            self.account(op, seg, false);
        }
        if cs.tensor_core {
            // Tensor instructions execute once per group.
            self.counters.flops_tc += cs.flops;
        } else {
            // Per-thread instructions execute once per lane.
            self.counters.flops_fma += cs.flops * lanes.len() as u64;
        }

        use graphene_ir::atomic::fragments as frag;
        match cs.semantics {
            AtomicSemantics::CopyPerThread
            | AtomicSemantics::UnaryPerThread(_)
            | AtomicSemantics::BinaryPerThread(_)
            | AtomicSemantics::FmaPerThread
            | AtomicSemantics::InitPerThread
            | AtomicSemantics::ReducePerThread(_) => {
                for (li, &t) in lanes.iter().enumerate() {
                    match cs.semantics {
                        AtomicSemantics::CopyPerThread => {
                            let sa = scratch.lane(scratch.ins[0], li);
                            let da = scratch.lane(scratch.outs[0], li);
                            for (s, d) in sa.iter().zip(da) {
                                let v = self.read(cs.ins[0].buf, *s, t, "copy src")?;
                                self.write(cs.outs[0].buf, *d, t, v, "copy dst")?;
                            }
                        }
                        AtomicSemantics::UnaryPerThread(op) => {
                            let sa = scratch.lane(scratch.ins[0], li);
                            let da = scratch.lane(scratch.outs[0], li);
                            for (s, d) in sa.iter().zip(da) {
                                let v = self.read(cs.ins[0].buf, *s, t, "unary src")?;
                                self.write(
                                    cs.outs[0].buf,
                                    *d,
                                    t,
                                    op.apply(v as f64) as f32,
                                    "unary dst",
                                )?;
                            }
                        }
                        AtomicSemantics::BinaryPerThread(op) => {
                            let aa = scratch.lane(scratch.ins[0], li);
                            let ba = scratch.lane(scratch.ins[1], li);
                            let da = scratch.lane(scratch.outs[0], li);
                            for i in 0..aa.len() {
                                let x = self.read(cs.ins[0].buf, aa[i], t, "binary lhs")?;
                                let y = self.read(cs.ins[1].buf, ba[i], t, "binary rhs")?;
                                self.write(
                                    cs.outs[0].buf,
                                    da[i],
                                    t,
                                    op.apply(x as f64, y as f64) as f32,
                                    "binary dst",
                                )?;
                            }
                        }
                        AtomicSemantics::FmaPerThread => {
                            let aa = scratch.lane(scratch.ins[0], li);
                            let ba = scratch.lane(scratch.ins[1], li);
                            let ca = scratch.lane(scratch.outs[0], li);
                            for i in 0..aa.len() {
                                let a = self.read(cs.ins[0].buf, aa[i], t, "fma a")?;
                                let b = self.read(cs.ins[1].buf, ba[i], t, "fma b")?;
                                let c = self.read(cs.outs[0].buf, ca[i], t, "fma c")?;
                                self.write(cs.outs[0].buf, ca[i], t, a * b + c, "fma c")?;
                            }
                        }
                        AtomicSemantics::InitPerThread => {
                            let da = scratch.lane(scratch.outs[0], li);
                            for &d in da {
                                self.write(cs.outs[0].buf, d, t, cs.init_value, "init dst")?;
                            }
                        }
                        AtomicSemantics::ReducePerThread(op) => {
                            let sa = scratch.lane(scratch.ins[0], li);
                            let da = scratch.lane(scratch.outs[0], li);
                            let mut acc = op.identity();
                            for &s in sa {
                                acc = op.combine(
                                    acc,
                                    self.read(cs.ins[0].buf, s, t, "reduce src")? as f64,
                                );
                            }
                            self.write(cs.outs[0].buf, da[0], t, acc as f32, "reduce dst")?;
                        }
                        _ => unreachable!(),
                    }
                }
            }

            AtomicSemantics::LdMatrix { num, trans } => {
                let num = num as usize;
                // Gather the matrices: lanes 8p..8p+8 supply the 8 rows
                // (or columns, pre-transposition the source view is
                // still a row) of matrix p.
                let mut mats = vec![[[0.0f32; 8]; 8]; num];
                for p in 0..num {
                    for r in 0..8 {
                        let li = p * 8 + r;
                        let sa = scratch.lane(scratch.ins[0], li);
                        for c in 0..8 {
                            mats[p][r][c] =
                                self.read(cs.ins[0].buf, sa[c], lanes[li], "ldmatrix src")?;
                        }
                    }
                }
                // Scatter fragments: lane l, pair p, element c.
                for (li, &t) in lanes.iter().enumerate() {
                    for p in 0..num {
                        for c in 0..2 {
                            let (row, col) = if trans {
                                (2 * (li % 4) + c, li / 4)
                            } else {
                                (li / 4, 2 * (li % 4) + c)
                            };
                            let v = mats[p][row][col];
                            let d = scratch.lane(scratch.outs[0], li)[2 * p + c];
                            self.write(cs.outs[0].buf, d, t, v, "ldmatrix dst")?;
                        }
                    }
                }
            }

            AtomicSemantics::MmaAmpere16816 => {
                let mut a = [[0.0f32; 16]; 16];
                let mut b = [[0.0f32; 8]; 16];
                let mut c = [[0.0f32; 8]; 16];
                for (li, &t) in lanes.iter().enumerate() {
                    for v in 0..8 {
                        let (m_, k) = frag::mma_16816_a(li, v);
                        let sa = scratch.lane(scratch.ins[0], li)[v];
                        a[m_][k] = self.read(cs.ins[0].buf, sa, t, "mma a")?;
                    }
                    for v in 0..4 {
                        let (k, n) = frag::mma_16816_b(li, v);
                        let sb = scratch.lane(scratch.ins[1], li)[v];
                        b[k][n] = self.read(cs.ins[1].buf, sb, t, "mma b")?;
                    }
                    for v in 0..4 {
                        let (m_, n) = frag::mma_16816_c(li, v);
                        let sc = scratch.lane(scratch.outs[0], li)[v];
                        c[m_][n] = self.read(cs.outs[0].buf, sc, t, "mma c")?;
                    }
                }
                let mut d = c;
                for m_ in 0..16 {
                    for n in 0..8 {
                        let mut acc = 0.0f32;
                        for k in 0..16 {
                            acc += a[m_][k] * b[k][n];
                        }
                        d[m_][n] += acc;
                    }
                }
                for (li, &t) in lanes.iter().enumerate() {
                    for v in 0..4 {
                        let (m_, n) = frag::mma_16816_c(li, v);
                        let da = scratch.lane(scratch.outs[0], li)[v];
                        self.write(cs.outs[0].buf, da, t, d[m_][n], "mma d")?;
                    }
                }
            }

            AtomicSemantics::MmaVolta884 => {
                let mut a = [[0.0f32; 4]; 8];
                let mut b = [[0.0f32; 8]; 4];
                let mut c = [[0.0f32; 8]; 8];
                for (li, &t) in lanes.iter().enumerate() {
                    for v in 0..4 {
                        let (m_, k) = frag::mma_884_a(li, v);
                        let sa = scratch.lane(scratch.ins[0], li)[v];
                        a[m_][k] = self.read(cs.ins[0].buf, sa, t, "mma884 a")?;
                        let (k2, n) = frag::mma_884_b(li, v);
                        let sb = scratch.lane(scratch.ins[1], li)[v];
                        b[k2][n] = self.read(cs.ins[1].buf, sb, t, "mma884 b")?;
                    }
                    for v in 0..8 {
                        let (m_, n) = frag::mma_884_c(li, v);
                        let sc = scratch.lane(scratch.outs[0], li)[v];
                        c[m_][n] = self.read(cs.outs[0].buf, sc, t, "mma884 c")?;
                    }
                }
                for m_ in 0..8 {
                    for n in 0..8 {
                        let mut acc = 0.0f32;
                        for k in 0..4 {
                            acc += a[m_][k] * b[k][n];
                        }
                        c[m_][n] += acc;
                    }
                }
                for (li, &t) in lanes.iter().enumerate() {
                    for v in 0..8 {
                        let (m_, n) = frag::mma_884_c(li, v);
                        let da = scratch.lane(scratch.outs[0], li)[v];
                        self.write(cs.outs[0].buf, da, t, c[m_][n], "mma884 d")?;
                    }
                }
            }

            AtomicSemantics::ShflBfly => {
                let vals: Result<Vec<f32>, _> = lanes
                    .iter()
                    .enumerate()
                    .map(|(li, &t)| {
                        self.read(cs.ins[0].buf, scratch.lane(scratch.ins[0], li)[0], t, "shfl src")
                    })
                    .collect();
                let vals = vals?;
                for (li, &t) in lanes.iter().enumerate() {
                    let peer = li ^ cs.shfl_mask as usize;
                    let v = vals[peer % vals.len()];
                    let d = scratch.lane(scratch.outs[0], li)[0];
                    self.write(cs.outs[0].buf, d, t, v, "shfl dst")?;
                }
            }
        }
        // Capture the group only after its semantics executed cleanly:
        // every recorded address has passed the bounds checks above, so
        // replay can index without re-validating.
        if let Some(rec) = &mut self.rec {
            rec.record_group(cs, lanes, &scratch)?;
        }
        self.scratch = scratch;
        Ok(())
    }
}

impl Cta for CtaRunner<'_> {
    type Write = WriteRec;

    fn run_block(&mut self, b: usize) -> Result<(), ExecError> {
        self.env.set(self.plan.block_slot, b as i64);
        self.exec_stmts(&self.plan.body)
    }

    fn log(&mut self) -> &mut Option<Vec<WriteRec>> {
        &mut self.log
    }

    fn apply(w: &WriteRec, globals: &mut [Vec<f32>]) {
        globals[w.buf as usize][w.addr as usize] = w.val;
    }

    fn finish(self) -> (Vec<Vec<f32>>, Counters) {
        (self.global, self.counters)
    }
}

/// Emits every lane's addresses for each operand in `ops` into `addrs`
/// (appending), recording one `(start, addrs-per-lane)` segment per
/// operand in `segs`.
fn emit_ops(
    plan: &KernelPlan,
    lanes: &[i64],
    ops: &[COperand],
    segs: &mut Vec<(usize, usize)>,
    addrs: &mut Vec<i64>,
    env: &mut SlotEnv,
) -> Result<(), ExecError> {
    for op in ops {
        let start = addrs.len();
        for &t in lanes {
            env.set(plan.tid_slot, t);
            op.plan
                .emit_into(env, &plan.slots, addrs)
                .map_err(|e| ExecError::Eval(e.to_string()))?;
        }
        segs.push((start, op.plan.addrs_per_lane()));
    }
    Ok(())
}

/// Validates `inputs` against the kernel parameters `params` —
/// `(id, name, scalars)` in params order — and returns the initial
/// global buffers: each supplied buffer copied, each missing one
/// zeroed. Both grid engines take their inputs through here.
pub(crate) fn initial_globals(
    params: &[(TensorId, String, usize)],
    inputs: &HashMap<TensorId, Vec<f32>>,
) -> Result<Vec<Vec<f32>>, ExecError> {
    params
        .iter()
        .map(|(p, name, want)| match inputs.get(p) {
            Some(b) if b.len() != *want => Err(ExecError::BadInput(format!(
                "param %{} expects {} scalars, got {}",
                name,
                want,
                b.len()
            ))),
            Some(b) => Ok(b.clone()),
            None => Ok(vec![0.0; *want]),
        })
        .collect()
}

/// Executes a compiled plan.
///
/// # Errors
///
/// See [`ExecError`]. Error reporting is deterministic in every mode:
/// when several blocks fail, the failure of the lowest block id is
/// returned.
pub fn execute_plan(
    plan: &KernelPlan,
    inputs: &HashMap<TensorId, Vec<f32>>,
    bindings: &HashMap<String, i64>,
    mode: ExecMode,
) -> Result<ExecOutcome, ExecError> {
    let init = initial_globals(&plan.globals, inputs)?;
    let (globals, mut counters) =
        fan_out(mode, plan.grid as usize, init, |g| CtaRunner::new(plan, g, bindings))?;
    counters.unique_global_read_bytes = plan.unique_read;
    counters.unique_global_write_bytes = plan.unique_written;
    let globals = plan.globals.iter().map(|(p, _, _)| *p).zip(globals).collect::<HashMap<_, _>>();
    Ok(ExecOutcome { globals, counters })
}
