//! Plan recording: walks a compiled [`KernelPlan`] block by block and
//! records what each group does, and [`execute_plan`], which replays
//! that recording.
//!
//! Functional execution has the reference oracle ([`crate::exec`]),
//! one recorder (this module) and replay ([`crate::replay`]). The
//! recorder computes no values. Per group it emits every lane's
//! addresses into a reusable scratch buffer, accounts the group's
//! traffic (bank conflicts tallied in a fixed 32-entry
//! [`BankTally`]), and hands it to the trace `Recorder`, which
//! bounds-checks every address the group's semantics touch and appends
//! one step. [`execute_plan`] is that recording
//! ([`record_opt_trace`]) replayed once against the inputs.

use crate::counters::Counters;
use crate::exec::{ExecError, ExecOutcome};
use crate::plan::{BankTally, CGuard, COperand, CSpec, CStmt, GroupLanes, KernelPlan};
use crate::replay::replay_opt_with;
use crate::trace::Recorder;
use crate::trace_opt::record_opt_trace;
use graphene_ir::tensor::TensorId;
use graphene_ir::MemSpace;
use graphene_sym::SlotEnv;
use std::collections::HashMap;

/// How replay schedules CTAs (thread blocks).
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
    pub(crate) fn workers(self, grid: usize) -> usize {
        let want = match self {
            ExecMode::Sequential => 1,
            ExecMode::Parallel => std::thread::available_parallelism().map_or(1, |n| n.get()),
            ExecMode::Workers(n) => n,
        };
        want.clamp(1, grid.max(1))
    }
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
    pub(crate) fn lane(&self, seg: (usize, usize), li: usize) -> &[i64] {
        let (start, n) = seg;
        &self.addrs[start + li * n..start + (li + 1) * n]
    }
}

/// The plan recorder: walks a [`KernelPlan`] one block at a time,
/// emitting every group's addresses, accounting its counters and
/// handing it to a [`Recorder`], which bounds-checks and records it.
/// It computes no values.
pub(crate) struct CtaRunner<'p> {
    plan: &'p KernelPlan,
    env: SlotEnv,
    pub(crate) counters: Counters,
    scratch: AddrScratch,
    tally: BankTally,
    guards: Vec<&'p CGuard>,
    lane_buf: Vec<i64>,
    pub(crate) rec: Recorder,
}

impl<'p> CtaRunner<'p> {
    pub(crate) fn new(plan: &'p KernelPlan, bindings: &HashMap<String, i64>) -> Self {
        let mut env = plan.slots.env();
        env.bind_from(&plan.slots, bindings);
        CtaRunner {
            plan,
            env,
            counters: Counters::default(),
            scratch: AddrScratch::default(),
            tally: BankTally::new(),
            guards: Vec::new(),
            lane_buf: Vec::new(),
            rec: Recorder::new(plan),
        }
    }

    /// Records block `b`.
    pub(crate) fn run_block(&mut self, b: usize) -> Result<(), ExecError> {
        self.env.set(self.plan.block_slot, b as i64);
        self.exec_stmts(&self.plan.body)
    }

    fn exec_stmts(&mut self, stmts: &'p [CStmt]) -> Result<(), ExecError> {
        for s in stmts {
            match s {
                CStmt::Alloc(buf) => self.rec.record_alloc(*buf),
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
                    for warp in ids.chunks(32) {
                        self.exec_group(cs, warp)?;
                    }
                } else {
                    let mut buf = std::mem::take(&mut self.lane_buf);
                    buf.clear();
                    buf.extend(ids.iter().copied().filter(|&t| self.lane_active(t)));
                    self.env.clear(self.plan.tid_slot);
                    let r = buf.chunks(32).try_for_each(|warp| self.exec_group(cs, warp));
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

    /// Records one group. An error leaves the runner mid-group; the
    /// recording that hit it is discarded.
    fn exec_group(&mut self, cs: &CSpec, lanes: &[i64]) -> Result<(), ExecError> {
        self.counters.instructions += if cs.collective {
            1 // collective: one instruction per group
        } else {
            lanes.len() as u64
        };
        // Emit every lane's addresses for all operands into the scratch
        // (one flat buffer, no per-lane allocation).
        let mut sc = std::mem::take(&mut self.scratch);
        sc.addrs.clear();
        sc.ins.clear();
        sc.outs.clear();
        emit_ops(self.plan, lanes, &cs.ins, &mut sc.ins, &mut sc.addrs, &mut self.env)?;
        emit_ops(self.plan, lanes, &cs.outs, &mut sc.outs, &mut sc.addrs, &mut self.env)?;
        self.env.clear(self.plan.tid_slot);
        // Traffic accounting per operand.
        for (ops, segs, is_read) in [(&cs.ins, &sc.ins, true), (&cs.outs, &sc.outs, false)] {
            for (op, &(start, n)) in ops.iter().zip(segs) {
                self.account(op, &sc.addrs[start..start + lanes.len() * n], is_read);
            }
        }
        if cs.tensor_core {
            // Tensor instructions execute once per group.
            self.counters.flops_tc += cs.flops;
        } else {
            // Per-thread instructions execute once per lane.
            self.counters.flops_fma += cs.flops * lanes.len() as u64;
        }

        // Bounds-check and record the group; the recorder reports the
        // first address its semantics touch outside a buffer.
        let r = self.rec.record_group(cs, lanes, &sc);
        self.scratch = sc;
        r
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

/// Checks `inputs` against the kernel parameters `params` —
/// `(id, name, scalars)` in params order: every supplied buffer must
/// hold its parameter's scalar count. Missing ones are zero-filled.
pub(crate) fn check_inputs(
    params: &[(TensorId, String, usize)],
    inputs: &HashMap<TensorId, Vec<f32>>,
) -> Result<(), ExecError> {
    for (p, name, want) in params {
        match inputs.get(p) {
            Some(b) if b.len() != *want => {
                return Err(ExecError::BadInput(format!(
                    "param %{name} expects {want} scalars, got {}",
                    b.len()
                )))
            }
            _ => {}
        }
    }
    Ok(())
}

/// Executes a compiled plan: records it ([`record_opt_trace`]) and
/// replays the recording against `inputs` ([`replay_opt_with`]). The
/// recording is not cached; [`crate::TraceCache`] is the caching path.
///
/// # Errors
///
/// See [`ExecError`]. A mis-sized input is reported before anything is
/// recorded; a recording error is that of the lowest failing block.
pub fn execute_plan(
    plan: &KernelPlan,
    inputs: &HashMap<TensorId, Vec<f32>>,
    bindings: &HashMap<String, i64>,
    mode: ExecMode,
) -> Result<ExecOutcome, ExecError> {
    check_inputs(&plan.globals, inputs)?;
    replay_opt_with(&record_opt_trace(plan, bindings)?, inputs, mode)
}
