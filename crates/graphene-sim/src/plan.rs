//! Compiled address plans: the compile-once/execute-many layer.
//!
//! Graphene's layouts make every data-to-thread mapping *statically
//! analyzable* (paper §3–§5): an operand view's scalar addresses are a
//! fixed relative-offset pattern ([`TensorType::scalar_offsets`])
//! shifted by a closed-form — overwhelmingly affine — base offset over
//! `blockIdx.x` / `threadIdx.x` / loop variables. The interpreter used
//! to re-derive all of this per lane per evaluation through a
//! `HashMap<String, i64>` environment; this module lowers it once:
//!
//! - [`AddressPlan`] — one operand view's compiled base offset
//!   ([`graphene_sym::CompiledExpr`] over dense slots), memoized
//!   relative offsets (shared per [`TensorType`]), and root swizzle.
//! - [`PlanCache`] — interns [`AddressPlan`]s per tensor view, shared
//!   by the interpreter, the counter analysis, and `graphene-analysis`'
//!   race/bank passes (which perform the same per-lane evaluation), and
//!   memoizes the kernel's access-site table ([`crate::sites`]).
//! - [`KernelPlan`] — a whole kernel lowered to a compiled statement
//!   tree: atomics matched once, lane enumerations precomputed, operand
//!   plans resolved to dense buffer references. Execution (see
//!   [`crate::run`]) walks this plan with zero hashing on the hot path.
//! - [`BankTally`] — a reusable fixed 32-entry bank-conflict tally
//!   replacing the per-access `HashMap<i64, HashSet<i64>>`.

use crate::analyze::exec_lanes;
use crate::exec::ExecError;
use crate::sites::Sites;
use graphene_ir::atomic::{match_atomic, registry, AtomicSemantics};
use graphene_ir::body::{Stmt, SyncScope};
use graphene_ir::printer::render_spec_header;
use graphene_ir::spec::{Spec, SpecKind};
use graphene_ir::tensor::{TensorId, TensorType};
use graphene_ir::{Arch, Kernel, MemSpace, Module};
use graphene_layout::Swizzle;
use graphene_sym::{CompiledExpr, EvalError, IntExpr, SlotEnv, SlotMap};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// Buffer length for a root tensor: its cosize, rounded up to a swizzle
/// period so swizzled addresses stay in range.
///
/// Public because the out-of-bounds proof pass (`graphene-analysis`
/// GRA015) checks addresses against exactly the buffer length the
/// simulator would allocate.
pub fn root_len(ty: &TensorType) -> usize {
    let mut n = ty.layout.cosize() * ty.elem.scalar_count();
    if !ty.swizzle.is_identity() {
        let p = ty.swizzle.period();
        n = (n + p - 1) / p * p;
    }
    n as usize
}

/// Memoizes [`TensorType::scalar_offsets`] per type, so every view with
/// the same layout shares one relative-offset table instead of
/// re-walking the recursive tensor type.
#[derive(Debug, Default)]
pub struct RelOffsetsMemo {
    // Keyed by the rendered type: the `layout.elem` display uniquely
    // determines the offset pattern (the swizzle is applied separately).
    by_type: HashMap<String, Arc<[i64]>>,
}

impl RelOffsetsMemo {
    /// The relative scalar offsets of `ty`, computed at most once per
    /// distinct type.
    pub fn offsets(&mut self, ty: &TensorType) -> Arc<[i64]> {
        self.by_type.entry(ty.to_string()).or_insert_with(|| ty.scalar_offsets().into()).clone()
    }
}

/// One operand view's compiled addressing: `swizzle(base(slots) + relᵢ)`.
#[derive(Debug, Clone)]
pub struct AddressPlan {
    /// Root tensor the addresses index into.
    pub root: TensorId,
    /// Compiled base-offset expression (scalar elements from the root's
    /// origin).
    pub base: CompiledExpr,
    /// Relative scalar offsets of the view, in value order.
    pub rel: Arc<[i64]>,
    /// The root tensor's swizzle.
    pub swizzle: Swizzle,
}

impl AddressPlan {
    /// Compiles the plan for view `id`, interning variables into
    /// `slots` and sharing offset tables through `memo`.
    pub fn compile(
        id: TensorId,
        module: &Module,
        slots: &mut SlotMap,
        memo: &mut RelOffsetsMemo,
    ) -> AddressPlan {
        let d = &module[id];
        let root = module.root_of(id);
        AddressPlan {
            root,
            base: d.offset.compile(slots),
            rel: memo.offsets(&d.ty),
            swizzle: module[root].ty.swizzle,
        }
    }

    /// Number of scalar addresses one lane touches.
    pub fn addrs_per_lane(&self) -> usize {
        self.rel.len()
    }

    /// Emits this lane's addresses into `out` (appending), with the
    /// swizzle applied.
    ///
    /// # Errors
    ///
    /// Fails when the base offset references an unbound slot.
    #[inline]
    pub fn emit_into(
        &self,
        env: &SlotEnv,
        slots: &SlotMap,
        out: &mut Vec<i64>,
    ) -> Result<(), EvalError> {
        let base = self.base.eval_named(env, slots)?;
        if self.swizzle.is_identity() {
            out.extend(self.rel.iter().map(|&o| base + o));
        } else {
            out.extend(self.rel.iter().map(|&o| self.swizzle.apply(base + o)));
        }
        Ok(())
    }
}

/// Interns [`AddressPlan`]s per tensor view over one shared [`SlotMap`],
/// and memoizes the kernel's access-site table ([`Sites`]).
///
/// All plans compiled through one cache agree on slot numbering, so a
/// single [`SlotEnv`] drives every plan — this is what the race pass,
/// the bank-conflict lint, and the counter analysis share with the
/// interpreter. The cache holds one kernel's passes only.
#[derive(Debug, Default)]
pub struct PlanCache {
    /// The slot numbering shared by every plan in this cache.
    pub slots: SlotMap,
    plans: HashMap<TensorId, AddressPlan>,
    memo: RelOffsetsMemo,
    sites: Option<Rc<Sites>>,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The access-site table of `kernel` on `arch`, built by one walk
    /// on first use and shared by every later pass.
    pub fn sites(&mut self, kernel: &Kernel, arch: Arch) -> Rc<Sites> {
        match &self.sites {
            Some(s) if s.arch == arch => s.clone(),
            _ => self.sites.insert(Rc::new(Sites::build(kernel, arch))).clone(),
        }
    }

    /// The plan for view `id`, compiled on first use.
    pub fn plan(&mut self, id: TensorId, module: &Module) -> &AddressPlan {
        if !self.plans.contains_key(&id) {
            let p = AddressPlan::compile(id, module, &mut self.slots, &mut self.memo);
            self.plans.insert(id, p);
        }
        &self.plans[&id]
    }

    /// Evaluates the scalar addresses view `id` touches for each lane,
    /// under a string-keyed environment (compile-once, evaluate per
    /// lane through the slot array).
    ///
    /// # Errors
    ///
    /// Fails when the view's offset references a variable bound neither
    /// in `env` nor as a lane id.
    pub fn lane_addresses(
        &mut self,
        id: TensorId,
        module: &Module,
        lanes: &[i64],
        env: &HashMap<String, i64>,
    ) -> Result<Vec<(i64, Vec<i64>)>, EvalError> {
        self.plan(id, module);
        let tid = self.slots.slot("threadIdx.x");
        let mut senv = self.slots.env();
        senv.bind_from(&self.slots, env);
        let plan = &self.plans[&id];
        let mut out = Vec::with_capacity(lanes.len());
        for &t in lanes {
            senv.set(tid, t);
            let mut addrs = Vec::with_capacity(plan.addrs_per_lane());
            plan.emit_into(&senv, &self.slots, &mut addrs)?;
            out.push((t, addrs));
        }
        Ok(out)
    }
}

/// Reusable shared-memory bank-conflict tally: a fixed 32-entry array
/// of per-bank word lists, replacing a per-access
/// `HashMap<i64, HashSet<i64>>`.
///
/// Words are pushed with [`add_word`](Self::add_word); [`grade`](Self::grade)
/// sorts/dedups each bank in place, returns the access's cost, and
/// resets the tally for reuse.
#[derive(Debug, Default)]
pub struct BankTally {
    banks: [Vec<i64>; 32],
}

impl BankTally {
    /// An empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one 4-byte-word access.
    #[inline]
    pub fn add_word(&mut self, word: i64) {
        self.banks[(word & 31) as usize].push(word);
    }

    /// Records every word a scalar access at `addr` touches.
    #[inline]
    pub fn add_addr(&mut self, addr: i64, bytes_per: u64) {
        self.add_word(addr * bytes_per as i64 / 4);
    }

    /// Grades the recorded warp access and resets the tally:
    /// `(ideal transactions, serialised transactions)`. Each bank
    /// serves one distinct word per cycle, so the access takes
    /// max-per-bank-distinct-words cycles; the conflict-free ideal is
    /// `ceil(distinct words / 32)`.
    pub fn grade(&mut self) -> (u64, u64) {
        let mut distinct = 0usize;
        let mut worst = 0usize;
        for bank in &mut self.banks {
            if bank.is_empty() {
                continue;
            }
            bank.sort_unstable();
            bank.dedup();
            distinct += bank.len();
            worst = worst.max(bank.len());
            bank.clear();
        }
        if distinct == 0 {
            return (0, 0);
        }
        let ideal = distinct.div_ceil(32) as u64;
        (ideal, (worst as u64).max(ideal))
    }
}

/// Dense reference to a simulated buffer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BufRef {
    /// Memory space (selects the buffer table).
    pub mem: MemSpace,
    /// Index into the space's buffer table.
    pub idx: usize,
    /// Scalar length (per thread, for registers).
    pub len: usize,
}

/// One compiled operand: where it lives plus how to address it.
#[derive(Debug, Clone)]
pub(crate) struct COperand {
    pub buf: BufRef,
    pub plan: AddressPlan,
    pub bytes_per: u64,
}

/// Precomputed lane enumeration of one execution config.
#[derive(Debug)]
pub(crate) enum GroupLanes {
    /// Per-thread instruction: all lanes, batched into warps at run
    /// time (after guard filtering).
    PerThread(Vec<i64>),
    /// Collective instruction: the lanes of each group.
    Collective(Vec<Vec<i64>>),
}

/// A fully compiled undecomposed spec.
#[derive(Debug)]
pub(crate) struct CSpec {
    pub semantics: AtomicSemantics,
    /// Collective instructions count once per group.
    pub collective: bool,
    pub flops: u64,
    pub tensor_core: bool,
    pub lanes: GroupLanes,
    pub ins: Vec<COperand>,
    pub outs: Vec<COperand>,
    /// `Init` fill value.
    pub init_value: f32,
    /// `Shfl` butterfly mask.
    pub shfl_mask: u32,
}

/// A compiled thread-dependent guard (`lhs < rhs`).
#[derive(Debug)]
pub(crate) struct CGuard {
    pub lhs: CompiledExpr,
    pub rhs: CompiledExpr,
}

/// A compiled statement.
#[derive(Debug)]
pub(crate) enum CStmt {
    /// Zero-fill a shared or register buffer.
    Alloc(BufRef),
    For {
        slot: usize,
        extent: i64,
        body: Vec<CStmt>,
    },
    If {
        guard: CGuard,
        /// The guard mentions `threadIdx.x`: it filters lanes instead
        /// of gating the block.
        thread_dependent: bool,
        then: Vec<CStmt>,
    },
    SyncBlock,
    Exec(Box<CSpec>),
}

/// A kernel lowered for compile-once/execute-many interpretation.
///
/// Compiling resolves — once, ahead of all CTAs — everything the old
/// interpreter re-derived per block per lane: atomic-spec matching,
/// lane enumerations, operand address plans, buffer indices, and the
/// unique DRAM footprint. The plan holds no `Rc`-backed IR, so one
/// plan is shared (`&KernelPlan` is `Sync`) by every CTA worker
/// thread in parallel execution.
#[derive(Debug)]
pub struct KernelPlan {
    pub(crate) slots: SlotMap,
    pub(crate) tid_slot: usize,
    pub(crate) block_slot: usize,
    /// Global roots: `(param id, name, buffer length)`, in params order.
    pub(crate) globals: Vec<(TensorId, String, usize)>,
    /// Shared roots: `(tensor id, buffer length)`.
    pub(crate) shared: Vec<(TensorId, usize)>,
    /// Register roots: `(tensor id, per-thread length)`.
    pub(crate) regs: Vec<(TensorId, usize)>,
    pub(crate) body: Vec<CStmt>,
    pub(crate) block_threads: i64,
    pub(crate) grid: i64,
    pub(crate) unique_read: u64,
    pub(crate) unique_written: u64,
    /// Per global buffer, the `blockIdx.x` part `g` of its operand
    /// offsets (`None` when no operand reads the buffer), when the
    /// kernel is proven block-uniform: block `b` runs block 0's program
    /// with every address into global `i` moved by `g_i(b) − g_i(0)`.
    /// `None` when the proof fails.
    pub(crate) block_parts: Option<Vec<Option<CompiledExpr>>>,
}

struct PlanBuilder<'k> {
    module: &'k Module,
    registry: &'static [graphene_ir::AtomicSpec],
    slots: SlotMap,
    memo: RelOffsetsMemo,
    buf_of: HashMap<TensorId, BufRef>,
    globals: Vec<(TensorId, String, usize)>,
    shared: Vec<(TensorId, usize)>,
    regs: Vec<(TensorId, usize)>,
    /// Still block-uniform: no guard and no private operand base reads
    /// `blockIdx.x`, and every global operand offset splits around it.
    uniform: bool,
    /// Per global buffer, the distinct `blockIdx.x` parts of its
    /// operand offsets.
    parts: Vec<Vec<IntExpr>>,
}

impl KernelPlan {
    /// Compiles `kernel` for `arch`.
    ///
    /// # Errors
    ///
    /// [`ExecError::NoAtomicMatch`] when an undecomposed spec matches
    /// no atomic spec, [`ExecError::BadInput`] on in-kernel global
    /// allocation.
    pub fn compile(kernel: &Kernel, arch: Arch) -> Result<Self, ExecError> {
        let module = &kernel.module;
        let mut b = PlanBuilder {
            module,
            registry: registry(arch),
            slots: SlotMap::new(),
            memo: RelOffsetsMemo::default(),
            buf_of: HashMap::new(),
            globals: Vec::new(),
            shared: Vec::new(),
            regs: Vec::new(),
            uniform: true,
            parts: vec![Vec::new(); kernel.params.len()],
        };
        // Reserve the hot slots first so they sit at fixed low indices.
        let block_slot = b.slots.slot("blockIdx.x");
        let tid_slot = b.slots.slot("threadIdx.x");
        for &p in &kernel.params {
            let len = root_len(&module[p].ty);
            b.buf_of.insert(p, BufRef { mem: MemSpace::Global, idx: b.globals.len(), len });
            b.globals.push((p, module[p].name.clone(), len));
        }
        let body = b.compile_stmts(&kernel.body.stmts)?;
        let (unique_read, unique_written) = unique_footprint(kernel);
        let block_parts = b.block_parts(kernel.grid_size());
        Ok(KernelPlan {
            slots: b.slots,
            tid_slot,
            block_slot,
            globals: b.globals,
            shared: b.shared,
            regs: b.regs,
            body,
            block_threads: kernel.block_size(),
            grid: kernel.grid_size(),
            unique_read,
            unique_written,
            block_parts,
        })
    }

    /// Whether the kernel is proven block-uniform: every block runs
    /// block 0's program, with each global buffer's addresses moved by
    /// one offset per block ([`KernelPlan::block_offsets`]).
    pub fn block_uniform(&self) -> bool {
        self.block_parts.is_some()
    }

    /// Under the block-uniformity proof, `g_i(b) − g_i(0)` for every
    /// block `b` and global buffer `i`, block-major; `None` without the
    /// proof, and for a single block or a kernel without globals, which
    /// have nothing to share or move.
    pub(crate) fn block_offsets(&self) -> Option<Vec<i64>> {
        let parts = self.block_parts.as_ref().filter(|p| self.grid > 1 && !p.is_empty())?;
        let mut env = self.slots.env();
        let mut at = |b: i64| -> Vec<i64> {
            env.set(self.block_slot, b);
            let g = |p: &CompiledExpr| p.eval(&env).expect("a block part reads only blockIdx.x");
            parts.iter().map(|p| p.as_ref().map_or(0, g)).collect()
        };
        let zero = at(0);
        Some(
            (0..self.grid)
                .flat_map(|b| at(b).into_iter().zip(&zero).map(|(g, g0)| g - g0))
                .collect(),
        )
    }

    /// Number of thread blocks the compiled grid launches.
    pub fn grid_size(&self) -> i64 {
        self.grid
    }

    /// Number of threads per block.
    pub fn block_size(&self) -> i64 {
        self.block_threads
    }

    /// The kernel's global parameters: `(id, name, element count)` in
    /// declaration order.
    pub fn params(&self) -> &[(TensorId, String, usize)] {
        &self.globals
    }
}

impl<'k> PlanBuilder<'k> {
    /// Folds operand `id`, addressed by `plan`, into the
    /// block-uniformity proof: a global operand's offset must split
    /// around `blockIdx.x` over an unswizzled root, and a shared or
    /// register operand's must not read it.
    fn prove_uniform(&mut self, id: TensorId, plan: &AddressPlan) {
        let offset = &self.module[id].offset;
        match self.buf_of.get(&plan.root).filter(|b| b.mem == MemSpace::Global) {
            None => self.uniform &= !offset.free_vars().iter().any(|v| v == BLOCK_VAR),
            Some(buf) => match offset.split_var(BLOCK_VAR) {
                Some((_, part)) if plan.swizzle.is_identity() => {
                    let parts = &mut self.parts[buf.idx];
                    if !parts.contains(&part) {
                        parts.push(part);
                    }
                }
                _ => self.uniform = false,
            },
        }
    }

    /// Completes the proof: every operand of one global buffer must
    /// move by the same `g(b) − g(0)` on every block of the `grid`.
    /// Returns one compiled part per global buffer.
    fn block_parts(&mut self, grid: i64) -> Option<Vec<Option<CompiledExpr>>> {
        if !self.uniform {
            return None;
        }
        let at = |p: &IntExpr, b: i64| p.eval(&HashMap::from([(BLOCK_VAR.to_string(), b)])).ok();
        let delta = |p: &IntExpr, b: i64| Some(at(p, b)? - at(p, 0)?);
        let parts = std::mem::take(&mut self.parts);
        parts
            .into_iter()
            .map(|ps| {
                let agree = |b: i64| ps.iter().all(|p| delta(p, b) == delta(&ps[0], b));
                if ps.len() > 1 && !(0..grid).all(agree) {
                    return None;
                }
                Some(ps.first().map(|p| p.compile(&mut self.slots)))
            })
            .collect()
    }

    fn compile_stmts(&mut self, stmts: &[Stmt]) -> Result<Vec<CStmt>, ExecError> {
        let mut out = Vec::new();
        for s in stmts {
            match s {
                Stmt::Tile { .. }
                | Stmt::Index { .. }
                | Stmt::ThreadTile { .. }
                | Stmt::ThreadReshape { .. }
                | Stmt::Comment(_) => {}

                Stmt::Alloc { tensor } => {
                    let d = &self.module[*tensor];
                    let len = root_len(&d.ty);
                    let buf = match d.mem {
                        MemSpace::Shared => {
                            let idx = self.shared.len();
                            self.shared.push((*tensor, len));
                            BufRef { mem: MemSpace::Shared, idx, len }
                        }
                        MemSpace::Register => {
                            let idx = self.regs.len();
                            self.regs.push((*tensor, len));
                            BufRef { mem: MemSpace::Register, idx, len }
                        }
                        MemSpace::Global => {
                            return Err(ExecError::BadInput(
                                "in-kernel global allocation unsupported".into(),
                            ))
                        }
                    };
                    self.buf_of.insert(*tensor, buf);
                    out.push(CStmt::Alloc(buf));
                }

                Stmt::For { var, extent, body, .. } => {
                    let slot = self.slots.slot(var);
                    let body = self.compile_stmts(body)?;
                    out.push(CStmt::For { slot, extent: *extent, body });
                }

                Stmt::If { cond, then } => {
                    self.uniform &= ![&cond.lhs, &cond.rhs]
                        .iter()
                        .any(|e| e.free_vars().iter().any(|v| v == BLOCK_VAR));
                    let thread_dependent = cond.thread_dependent();
                    let guard = CGuard {
                        lhs: cond.lhs.compile(&mut self.slots),
                        rhs: cond.rhs.compile(&mut self.slots),
                    };
                    let then = self.compile_stmts(then)?;
                    out.push(CStmt::If { guard, thread_dependent, then });
                }

                Stmt::Sync(SyncScope::Block) => out.push(CStmt::SyncBlock),
                Stmt::Sync(SyncScope::Warp) => {}

                Stmt::Spec(spec) => match &spec.body {
                    Some(body) => out.extend(self.compile_stmts(&body.stmts)?),
                    None => out.push(CStmt::Exec(Box::new(self.compile_spec(spec)?))),
                },
            }
        }
        Ok(out)
    }

    fn compile_spec(&mut self, spec: &Spec) -> Result<CSpec, ExecError> {
        let atomic = match_atomic(spec, self.module, self.registry)
            .ok_or_else(|| ExecError::NoAtomicMatch(render_spec_header(self.module, spec)))?
            .clone();
        let exec = *spec.exec.last().expect("spec has an execution config");
        let tt = &self.module[exec];
        let all = exec_lanes(tt, tt.count() as usize);
        let lanes = match tt.group_size() as usize {
            1 => GroupLanes::PerThread(all),
            n => GroupLanes::Collective(all.chunks(n).map(<[i64]>::to_vec).collect()),
        };
        let mut operand = |id: TensorId| -> COperand {
            let plan = AddressPlan::compile(id, self.module, &mut self.slots, &mut self.memo);
            let root = plan.root;
            self.prove_uniform(id, &plan);
            let buf = self.buf_of.get(&root).copied().unwrap_or_else(|| {
                // Root seen only through views (e.g. a param indexed
                // before any alloc statement): resolve lazily.
                BufRef { mem: self.module[root].mem, idx: usize::MAX, len: 0 }
            });
            debug_assert!(buf.idx != usize::MAX, "operand root has no buffer");
            COperand { buf, plan, bytes_per: self.module[id].ty.scalar_type().bytes() }
        };
        let ins: Vec<COperand> = spec.ins.iter().map(|&i| operand(i)).collect();
        let outs: Vec<COperand> = spec.outs.iter().map(|&o| operand(o)).collect();
        let init_value = match spec.kind {
            SpecKind::Init { value } => value as f32,
            _ => 0.0,
        };
        let shfl_mask = match spec.kind {
            SpecKind::Shfl { mask } => mask,
            _ => 0,
        };
        Ok(CSpec {
            semantics: atomic.semantics,
            collective: atomic.exec_local.size() > 1,
            flops: atomic.cost.flops,
            tensor_core: atomic.cost.tensor_core,
            lanes,
            ins,
            outs,
            init_value,
            shfl_mask,
        })
    }
}

/// The block index variable the uniformity proof splits offsets around.
const BLOCK_VAR: &str = "blockIdx.x";

/// Unique DRAM footprint `(read, written)` from parameter usage:
/// every global param read counts once, written params once for writes.
pub(crate) fn unique_footprint(kernel: &Kernel) -> (u64, u64) {
    let module = &kernel.module;
    let mut reads: std::collections::HashSet<TensorId> = Default::default();
    let mut writes: std::collections::HashSet<TensorId> = Default::default();
    kernel.body.visit(&mut |s| {
        if let Stmt::Spec(spec) = s {
            for &i in &spec.ins {
                let root = module.root_of(i);
                if module[root].mem == MemSpace::Global {
                    reads.insert(root);
                }
            }
            for &o in &spec.outs {
                let root = module.root_of(o);
                if module[root].mem == MemSpace::Global {
                    writes.insert(root);
                }
            }
        }
    });
    let read = reads.into_iter().map(|r| module[r].ty.bytes()).sum();
    let written = writes.into_iter().map(|w| module[w].ty.bytes()).sum();
    (read, written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_tally_matches_hash_grading() {
        let mut tally = BankTally::new();
        // 32 lanes all hitting bank 0 -> 32-way conflict.
        for lane in 0..32 {
            tally.add_addr(lane * 32, 4);
        }
        assert_eq!(tally.grade(), (1, 32));
        // Unit-stride row: conflict-free.
        for lane in 0..32 {
            tally.add_addr(lane, 4);
        }
        assert_eq!(tally.grade(), (1, 1));
        // Tally is reusable and empty after grading.
        assert_eq!(tally.grade(), (0, 0));
        // Duplicate words in one bank count once (broadcast).
        for _ in 0..32 {
            tally.add_addr(0, 4);
        }
        assert_eq!(tally.grade(), (1, 1));
    }

    #[test]
    fn rel_offsets_memo_shares_tables() {
        use graphene_ir::ScalarType;
        use graphene_layout::Layout;
        let ty = TensorType::row_major(&[4, 8], ScalarType::F32);
        let same = TensorType::row_major(&[4, 8], ScalarType::F32);
        let other = TensorType::row_major(&[8, 4], ScalarType::F32);
        let mut memo = RelOffsetsMemo::default();
        let a = memo.offsets(&ty);
        let b = memo.offsets(&same);
        let c = memo.offsets(&other);
        assert!(Arc::ptr_eq(&a, &b), "identical types share one table");
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(&*a, ty.scalar_offsets().as_slice());
        let _ = Layout::contiguous(1);
    }
}
