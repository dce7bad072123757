//! Functional execution of decomposed Graphene kernels.
//!
//! The interpreter executes the *same IR* the CUDA backend prints:
//! blocks and logical thread groups are enumerated explicitly, tensor
//! views resolve to physical scalar addresses via their (symbolic)
//! offsets and layouts, and atomic specs execute their documented
//! semantics — including the collective register-fragment
//! redistributions of `ldmatrix` and the `mma` tensor instructions
//! (paper Figures 1a/1b, Table 2). This validates the data-to-thread
//! mappings that the generated CUDA encodes, element-exactly.
//!
//! Alongside the values, the interpreter accumulates [`Counters`]
//! (bytes per memory level, shared-memory bank conflicts, FLOPs per
//! pipe) which drive the timing model.

use crate::counters::Counters;
use crate::plan::KernelPlan;
use crate::run::{execute_plan, ExecMode};
use graphene_ir::atomic::{match_atomic, registry, AtomicSemantics, AtomicSpec};
use graphene_ir::body::{Stmt, SyncScope};
use graphene_ir::printer::render_spec_header;
use graphene_ir::spec::{Spec, SpecKind};
use graphene_ir::tensor::{TensorId, TensorType};
use graphene_ir::{Arch, Kernel, MemSpace, Module};
use std::collections::HashMap;
use std::fmt;

/// Errors during functional execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A kernel parameter buffer is missing or mis-sized.
    BadInput(String),
    /// An undecomposed spec matched no atomic spec.
    NoAtomicMatch(String),
    /// An address fell outside its buffer.
    OutOfBounds {
        /// Description of the access.
        what: String,
        /// The offending address.
        addr: i64,
        /// The buffer length.
        len: usize,
    },
    /// An index expression could not be evaluated.
    Eval(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::BadInput(m) => write!(f, "bad input: {m}"),
            ExecError::NoAtomicMatch(s) => write!(f, "spec `{s}` matches no atomic spec"),
            ExecError::OutOfBounds { what, addr, len } => {
                write!(f, "out-of-bounds access: {what} at {addr} (buffer length {len})")
            }
            ExecError::Eval(m) => write!(f, "cannot evaluate index expression: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Result of a functional execution.
#[derive(Debug)]
pub struct ExecOutcome {
    /// Final contents of every global root tensor (params), keyed by id.
    pub globals: HashMap<TensorId, Vec<f32>>,
    /// Profile counters.
    pub counters: Counters,
}

/// Executes a kernel functionally on the given architecture.
///
/// `inputs` maps kernel parameters to their physical buffers (row-major
/// for row-major-layout params). Missing params are zero-initialised.
///
/// The kernel is lowered to a [`crate::plan::KernelPlan`] and
/// interpreted through the compiled engine, with independent CTAs
/// executing concurrently ([`ExecMode::Parallel`]); results and
/// counters are bit-identical to sequential execution.
///
/// # Errors
///
/// See [`ExecError`].
pub fn execute(
    kernel: &Kernel,
    arch: Arch,
    inputs: &HashMap<TensorId, Vec<f32>>,
) -> Result<ExecOutcome, ExecError> {
    execute_bound(kernel, arch, inputs, &HashMap::new())
}

/// Like [`execute`], with values for the kernel's *dynamic parameters* —
/// the symbolic dimensions of parametric shapes (paper §3.4) that become
/// integer kernel arguments during code generation.
///
/// # Errors
///
/// See [`ExecError`].
pub fn execute_bound(
    kernel: &Kernel,
    arch: Arch,
    inputs: &HashMap<TensorId, Vec<f32>>,
    bindings: &HashMap<String, i64>,
) -> Result<ExecOutcome, ExecError> {
    execute_with(kernel, arch, inputs, bindings, ExecMode::Parallel)
}

/// Like [`execute_bound`], with an explicit [`ExecMode`] selecting
/// sequential or parallel CTA interpretation.
///
/// # Errors
///
/// See [`ExecError`].
pub fn execute_with(
    kernel: &Kernel,
    arch: Arch,
    inputs: &HashMap<TensorId, Vec<f32>>,
    bindings: &HashMap<String, i64>,
    mode: ExecMode,
) -> Result<ExecOutcome, ExecError> {
    let plan = KernelPlan::compile(kernel, arch)?;
    execute_plan(&plan, inputs, bindings, mode)
}

/// Executes a kernel through the original statement-tree interpreter
/// (no compiled plans, sequential CTAs). Retained as the reference for
/// the golden equivalence tests and as the pre-optimization baseline
/// the interpreter benchmarks measure speedup against.
///
/// # Errors
///
/// See [`ExecError`].
pub fn execute_reference(
    kernel: &Kernel,
    arch: Arch,
    inputs: &HashMap<TensorId, Vec<f32>>,
) -> Result<ExecOutcome, ExecError> {
    execute_reference_bound(kernel, arch, inputs, &HashMap::new())
}

/// Like [`execute_reference`], with dynamic-parameter bindings.
///
/// # Errors
///
/// See [`ExecError`].
pub fn execute_reference_bound(
    kernel: &Kernel,
    arch: Arch,
    inputs: &HashMap<TensorId, Vec<f32>>,
    bindings: &HashMap<String, i64>,
) -> Result<ExecOutcome, ExecError> {
    let mut m = Interp::new(kernel, arch, inputs)?;
    m.bindings = bindings.clone();
    m.run()?;
    Ok(ExecOutcome { globals: m.global, counters: m.counters })
}

/// Enumerates a view's scalar offsets (relative to the view's base
/// offset) in *value order* — delegates to
/// [`TensorType::scalar_offsets`], the shared definition codegen uses
/// too.
pub fn rel_offsets(ty: &TensorType) -> Vec<i64> {
    ty.scalar_offsets()
}

/// Per-lane resolved operand addresses: `(inputs, outputs)`, each a
/// `(root tensor, scalar addresses)` list.
type LaneAddrs = (Vec<(TensorId, Vec<i64>)>, Vec<(TensorId, Vec<i64>)>);

struct Interp<'k> {
    kernel: &'k Kernel,
    module: &'k Module,
    registry: &'static [AtomicSpec],
    global: HashMap<TensorId, Vec<f32>>,
    shared: HashMap<TensorId, Vec<f32>>,
    regs: HashMap<(TensorId, i64), Vec<f32>>,
    counters: Counters,
    block_threads: i64,
    /// Thread-dependent predicates currently in scope: specs filter their
    /// lanes by these (partial-tile predication, paper §3.4).
    guards: Vec<graphene_ir::body::Predicate>,
    /// Values bound to dynamic (symbolic) kernel parameters.
    bindings: HashMap<String, i64>,
}

/// Buffer length for a root tensor: its cosize, rounded up to a swizzle
/// period so swizzled addresses stay in range.
fn root_len(ty: &TensorType) -> usize {
    let mut n = ty.layout.cosize() * ty.elem.scalar_count();
    if !ty.swizzle.is_identity() {
        let p = ty.swizzle.period();
        n = (n + p - 1) / p * p;
    }
    n as usize
}

impl<'k> Interp<'k> {
    fn new(
        kernel: &'k Kernel,
        arch: Arch,
        inputs: &HashMap<TensorId, Vec<f32>>,
    ) -> Result<Self, ExecError> {
        let module = &kernel.module;
        let mut global = HashMap::new();
        for &p in &kernel.params {
            let want = root_len(&module[p].ty);
            let buf = match inputs.get(&p) {
                Some(b) => {
                    if b.len() != want {
                        return Err(ExecError::BadInput(format!(
                            "param %{} expects {} scalars, got {}",
                            module[p].name,
                            want,
                            b.len()
                        )));
                    }
                    b.clone()
                }
                None => vec![0.0; want],
            };
            global.insert(p, buf);
        }
        Ok(Interp {
            kernel,
            module,
            registry: registry(arch),
            global,
            shared: HashMap::new(),
            regs: HashMap::new(),
            counters: Counters::default(),
            block_threads: kernel.block_size(),
            guards: Vec::new(),
            bindings: HashMap::new(),
        })
    }

    fn run(&mut self) -> Result<(), ExecError> {
        // DRAM footprint: params read at least once / written once.
        for b in 0..self.kernel.grid_size() {
            self.shared.clear();
            self.regs.clear();
            let mut env: HashMap<String, i64> = self.bindings.clone();
            env.insert("blockIdx.x".into(), b);
            let stmts = &self.kernel.body.stmts;
            self.exec_stmts(stmts, &mut env)?;
        }
        self.finalize_unique_traffic();
        Ok(())
    }

    fn finalize_unique_traffic(&mut self) {
        // Unique DRAM footprint: every param read counts once; written
        // params count once for writes. Determined from spec usage.
        let mut read = 0u64;
        let mut written = 0u64;
        let mut reads: std::collections::HashSet<TensorId> = Default::default();
        let mut writes: std::collections::HashSet<TensorId> = Default::default();
        self.kernel.body.visit(&mut |s| {
            if let Stmt::Spec(spec) = s {
                for &i in &spec.ins {
                    let root = self.module.root_of(i);
                    if self.module[root].mem == MemSpace::Global {
                        reads.insert(root);
                    }
                }
                for &o in &spec.outs {
                    let root = self.module.root_of(o);
                    if self.module[root].mem == MemSpace::Global {
                        writes.insert(root);
                    }
                }
            }
        });
        for r in reads {
            read += self.module[r].ty.bytes();
        }
        for w in writes {
            written += self.module[w].ty.bytes();
        }
        self.counters.unique_global_read_bytes = read;
        self.counters.unique_global_write_bytes = written;
    }

    fn exec_stmts(
        &mut self,
        stmts: &[Stmt],
        env: &mut HashMap<String, i64>,
    ) -> Result<(), ExecError> {
        for s in stmts {
            self.exec_stmt(s, env)?;
        }
        Ok(())
    }

    fn exec_stmt(&mut self, stmt: &Stmt, env: &mut HashMap<String, i64>) -> Result<(), ExecError> {
        match stmt {
            Stmt::Tile { .. }
            | Stmt::Index { .. }
            | Stmt::ThreadTile { .. }
            | Stmt::ThreadReshape { .. }
            | Stmt::Comment(_) => Ok(()),

            Stmt::Alloc { tensor } => {
                let d = &self.module[*tensor];
                let len = root_len(&d.ty);
                match d.mem {
                    MemSpace::Shared => {
                        self.shared.insert(*tensor, vec![0.0; len]);
                    }
                    MemSpace::Register => {
                        for t in 0..self.block_threads {
                            self.regs.insert((*tensor, t), vec![0.0; len]);
                        }
                    }
                    MemSpace::Global => {
                        return Err(ExecError::BadInput(
                            "in-kernel global allocation unsupported".into(),
                        ))
                    }
                }
                Ok(())
            }

            Stmt::For { var, extent, body, .. } => {
                for i in 0..*extent {
                    env.insert(var.clone(), i);
                    self.exec_stmts(body, env)?;
                }
                env.remove(var);
                Ok(())
            }

            Stmt::If { cond, then } => {
                if cond.thread_dependent() {
                    // Per-thread guard: push it; specs inside filter their
                    // lanes (partial-tile predication, paper §3.4).
                    self.guards.push(cond.clone());
                    let r = self.exec_stmts(then, env);
                    self.guards.pop();
                    r
                } else {
                    let l = cond.lhs.eval(env).map_err(|e| ExecError::Eval(e.to_string()))?;
                    let r = cond.rhs.eval(env).map_err(|e| ExecError::Eval(e.to_string()))?;
                    if l < r {
                        self.exec_stmts(then, env)?;
                    }
                    Ok(())
                }
            }

            Stmt::Sync(SyncScope::Block) => {
                self.counters.syncs += 1;
                Ok(())
            }
            Stmt::Sync(SyncScope::Warp) => Ok(()),

            Stmt::Spec(spec) => self.exec_spec(spec, env),
        }
    }

    fn exec_spec(&mut self, spec: &Spec, env: &mut HashMap<String, i64>) -> Result<(), ExecError> {
        if let Some(body) = &spec.body {
            let stmts = body.stmts.clone();
            return self.exec_stmts(&stmts, env);
        }
        let atomic = match_atomic(spec, self.module, self.registry)
            .ok_or_else(|| ExecError::NoAtomicMatch(render_spec_header(self.module, spec)))?
            .clone();

        let exec = *spec.exec.last().expect("spec has an execution config");
        let tt = &self.module[exec];
        let (num_groups, group_size) = (tt.num_groups(), tt.group_size());
        let group_layout = tt.group.clone();
        let local_layout = tt.local.clone();

        if group_size == 1 {
            // Per-thread instruction: batch lanes into warps so
            // shared-memory bank conflicts are accounted per warp, as the
            // hardware serialises them. Threads failing an active guard
            // predicate are masked off (predication, paper §3.4).
            let ids: Vec<i64> = (0..num_groups)
                .map(|g| group_layout.value(g))
                .filter(|&t| self.lane_active(t, env))
                .collect();
            for chunk in ids.chunks(32) {
                if !chunk.is_empty() {
                    self.exec_group(spec, &atomic, chunk, env)?;
                }
            }
        } else {
            for g in 0..num_groups {
                let base = group_layout.value(g);
                let lanes: Vec<i64> =
                    (0..group_size).map(|j| base + local_layout.value(j)).collect();
                let active = lanes.iter().filter(|&&t| self.lane_active(t, env)).count();
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
                self.exec_group(spec, &atomic, &lanes, env)?;
            }
        }
        Ok(())
    }

    /// Does thread `t` pass every active guard predicate?
    fn lane_active(&self, t: i64, env: &HashMap<String, i64>) -> bool {
        if self.guards.is_empty() {
            return true;
        }
        let mut env = env.clone();
        env.insert("threadIdx.x".into(), t);
        self.guards.iter().all(|p| match (p.lhs.eval(&env), p.rhs.eval(&env)) {
            (Ok(l), Ok(r)) => l < r,
            _ => false,
        })
    }

    /// Physical scalar addresses of a view for a fixed thread env.
    fn addrs(
        &self,
        id: TensorId,
        env: &HashMap<String, i64>,
    ) -> Result<(TensorId, Vec<i64>), ExecError> {
        let d = &self.module[id];
        let root_id = self.module.root_of(id);
        let root_ty = &self.module[root_id].ty;
        let base = d.offset.eval(env).map_err(|e| ExecError::Eval(e.to_string()))?;
        let sw = root_ty.swizzle;
        let offs = rel_offsets(&d.ty);
        let out = offs
            .into_iter()
            .map(|o| if sw.is_identity() { base + o } else { sw.apply(base + o) })
            .collect();
        Ok((root_id, out))
    }

    fn read(
        &mut self,
        root: TensorId,
        addr: i64,
        thread: i64,
        what: &str,
    ) -> Result<f32, ExecError> {
        let mem = self.module[root].mem;
        let buf: &Vec<f32> = match mem {
            MemSpace::Global => self.global.get(&root),
            MemSpace::Shared => self.shared.get(&root),
            MemSpace::Register => self.regs.get(&(root, thread)),
        }
        .ok_or_else(|| ExecError::BadInput(format!("unallocated tensor in {what}")))?;
        if addr < 0 || addr as usize >= buf.len() {
            return Err(ExecError::OutOfBounds { what: what.into(), addr, len: buf.len() });
        }
        Ok(buf[addr as usize])
    }

    fn write(
        &mut self,
        root: TensorId,
        addr: i64,
        thread: i64,
        v: f32,
        what: &str,
    ) -> Result<(), ExecError> {
        let mem = self.module[root].mem;
        let buf: &mut Vec<f32> = match mem {
            MemSpace::Global => self.global.get_mut(&root),
            MemSpace::Shared => self.shared.get_mut(&root),
            MemSpace::Register => self.regs.get_mut(&(root, thread)),
        }
        .ok_or_else(|| ExecError::BadInput(format!("unallocated tensor in {what}")))?;
        if addr < 0 || addr as usize >= buf.len() {
            return Err(ExecError::OutOfBounds { what: what.into(), addr, len: buf.len() });
        }
        buf[addr as usize] = v;
        Ok(())
    }

    /// Accounts the traffic of one per-lane access batch to a memory
    /// space, including shared-memory bank conflicts. `per_lane` holds
    /// each lane's addresses (same length per lane), borrowed from the
    /// resolved lane addresses rather than copied.
    fn account(&mut self, root: TensorId, per_lane: &[&[i64]], is_read: bool) {
        let d = &self.module[root];
        let bytes_per = d.ty.scalar_type().bytes();
        let total: u64 = per_lane.iter().map(|a| a.len() as u64).sum::<u64>() * bytes_per;
        match d.mem {
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
                // Bank conflicts over the whole warp access: each bank
                // serves one distinct 4-byte word per cycle, so the
                // access takes max-per-bank-distinct-words cycles; the
                // conflict-free ideal is ceil(distinct words / 32).
                let mut per_bank: HashMap<i64, std::collections::HashSet<i64>> = HashMap::new();
                for lane in per_lane {
                    for &a in *lane {
                        let word = a * bytes_per as i64 / 4;
                        per_bank.entry(word % 32).or_default().insert(word);
                    }
                }
                let distinct: usize = per_bank.values().map(|w| w.len()).sum();
                if distinct > 0 {
                    let ideal = distinct.div_ceil(32) as u64;
                    let cycles = per_bank.values().map(|w| w.len()).max().unwrap_or(1) as u64;
                    self.counters.smem_accesses += ideal;
                    self.counters.smem_transactions += cycles.max(ideal);
                }
            }
            MemSpace::Register => {}
        }
    }

    #[allow(clippy::too_many_lines, clippy::needless_range_loop)]
    fn exec_group(
        &mut self,
        spec: &Spec,
        atomic: &AtomicSpec,
        lanes: &[i64],
        env: &mut HashMap<String, i64>,
    ) -> Result<(), ExecError> {
        self.counters.instructions += if atomic.exec_local.size() > 1 {
            1 // collective: one instruction per group
        } else {
            lanes.len() as u64
        };
        // Resolve per-lane addresses for all operands.
        let mut lane_addrs: Vec<LaneAddrs> = Vec::with_capacity(lanes.len());
        for &t in lanes {
            env.insert("threadIdx.x".into(), t);
            let ins: Result<Vec<_>, _> = spec.ins.iter().map(|&i| self.addrs(i, env)).collect();
            let outs: Result<Vec<_>, _> = spec.outs.iter().map(|&o| self.addrs(o, env)).collect();
            lane_addrs.push((ins?, outs?));
        }
        env.remove("threadIdx.x");

        // Traffic accounting per operand (borrowing the resolved
        // addresses; no per-operand re-clone of every lane's vector).
        for (oi, _) in spec.ins.iter().enumerate() {
            let root = lane_addrs[0].0[oi].0;
            let per_lane: Vec<&[i64]> =
                lane_addrs.iter().map(|(ins, _)| ins[oi].1.as_slice()).collect();
            self.account(root, &per_lane, true);
        }
        for (oi, _) in spec.outs.iter().enumerate() {
            let root = lane_addrs[0].1[oi].0;
            let per_lane: Vec<&[i64]> =
                lane_addrs.iter().map(|(_, outs)| outs[oi].1.as_slice()).collect();
            self.account(root, &per_lane, false);
        }
        if atomic.cost.tensor_core {
            // Tensor instructions execute once per group.
            self.counters.flops_tc += atomic.cost.flops;
        } else {
            // Per-thread instructions execute once per lane.
            self.counters.flops_fma += atomic.cost.flops * lanes.len() as u64;
        }

        use graphene_ir::atomic::fragments as frag;
        match atomic.semantics {
            AtomicSemantics::CopyPerThread
            | AtomicSemantics::UnaryPerThread(_)
            | AtomicSemantics::BinaryPerThread(_)
            | AtomicSemantics::FmaPerThread
            | AtomicSemantics::InitPerThread
            | AtomicSemantics::ReducePerThread(_) => {
                for (li, &t) in lanes.iter().enumerate() {
                    let (ins, outs) = &lane_addrs[li];
                    match atomic.semantics {
                        AtomicSemantics::CopyPerThread => {
                            let (sr, sa) = &ins[0];
                            let (dr, da) = &outs[0];
                            for (s, d) in sa.iter().zip(da) {
                                let v = self.read(*sr, *s, t, "copy src")?;
                                self.write(*dr, *d, t, v, "copy dst")?;
                            }
                        }
                        AtomicSemantics::UnaryPerThread(op) => {
                            let (sr, sa) = &ins[0];
                            let (dr, da) = &outs[0];
                            for (s, d) in sa.iter().zip(da) {
                                let v = self.read(*sr, *s, t, "unary src")?;
                                self.write(*dr, *d, t, op.apply(v as f64) as f32, "unary dst")?;
                            }
                        }
                        AtomicSemantics::BinaryPerThread(op) => {
                            let (ar, aa) = &ins[0];
                            let (br, ba) = &ins[1];
                            let (dr, da) = &outs[0];
                            for i in 0..aa.len() {
                                let x = self.read(*ar, aa[i], t, "binary lhs")?;
                                let y = self.read(*br, ba[i], t, "binary rhs")?;
                                self.write(
                                    *dr,
                                    da[i],
                                    t,
                                    op.apply(x as f64, y as f64) as f32,
                                    "binary dst",
                                )?;
                            }
                        }
                        AtomicSemantics::FmaPerThread => {
                            let (ar, aa) = &ins[0];
                            let (br, ba) = &ins[1];
                            let (cr, ca) = &outs[0];
                            for i in 0..aa.len() {
                                let a = self.read(*ar, aa[i], t, "fma a")?;
                                let b = self.read(*br, ba[i], t, "fma b")?;
                                let c = self.read(*cr, ca[i], t, "fma c")?;
                                self.write(*cr, ca[i], t, a * b + c, "fma c")?;
                            }
                        }
                        AtomicSemantics::InitPerThread => {
                            let SpecKind::Init { value } = spec.kind else {
                                unreachable!("init semantics require init kind")
                            };
                            let (dr, da) = &outs[0];
                            for &d in da {
                                self.write(*dr, d, t, value as f32, "init dst")?;
                            }
                        }
                        AtomicSemantics::ReducePerThread(op) => {
                            let (sr, sa) = &ins[0];
                            let (dr, da) = &outs[0];
                            let mut acc = op.identity();
                            for &s in sa {
                                acc = op.combine(acc, self.read(*sr, s, t, "reduce src")? as f64);
                            }
                            self.write(*dr, da[0], t, acc as f32, "reduce dst")?;
                        }
                        _ => unreachable!(),
                    }
                }
            }

            AtomicSemantics::LdMatrix { num, trans } => {
                let num = num as usize;
                // Gather the matrices: lanes 8p..8p+8 supply the 8 rows
                // (or columns, pre-transposition the source view is still
                // a row) of matrix p.
                let (src_root, _) = lane_addrs[0].0[0];
                let mut mats = vec![[[0.0f32; 8]; 8]; num];
                for p in 0..num {
                    for r in 0..8 {
                        let li = p * 8 + r;
                        let (ins, _) = &lane_addrs[li];
                        let (_, sa) = &ins[0];
                        for c in 0..8 {
                            mats[p][r][c] =
                                self.read(src_root, sa[c], lanes[li], "ldmatrix src")?;
                        }
                    }
                }
                // Scatter fragments: lane l, pair p, element c.
                for (li, &t) in lanes.iter().enumerate() {
                    let (_, outs) = &lane_addrs[li];
                    let (dr, da) = &outs[0];
                    for p in 0..num {
                        for c in 0..2 {
                            let (row, col) = if trans {
                                (2 * (li % 4) + c, li / 4)
                            } else {
                                (li / 4, 2 * (li % 4) + c)
                            };
                            let v = mats[p][row][col];
                            self.write(*dr, da[2 * p + c], t, v, "ldmatrix dst")?;
                        }
                    }
                }
            }

            AtomicSemantics::MmaAmpere16816 => {
                let (ar, _) = lane_addrs[0].0[0];
                let (br, _) = lane_addrs[0].0[1];
                let (cr, _) = lane_addrs[0].1[0];
                let mut a = [[0.0f32; 16]; 16];
                let mut b = [[0.0f32; 8]; 16];
                let mut c = [[0.0f32; 8]; 16];
                for (li, &t) in lanes.iter().enumerate() {
                    let (ins, outs) = &lane_addrs[li];
                    for v in 0..8 {
                        let (m_, k) = frag::mma_16816_a(li, v);
                        a[m_][k] = self.read(ar, ins[0].1[v], t, "mma a")?;
                    }
                    for v in 0..4 {
                        let (k, n) = frag::mma_16816_b(li, v);
                        b[k][n] = self.read(br, ins[1].1[v], t, "mma b")?;
                    }
                    for v in 0..4 {
                        let (m_, n) = frag::mma_16816_c(li, v);
                        c[m_][n] = self.read(cr, outs[0].1[v], t, "mma c")?;
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
                    let (_, outs) = &lane_addrs[li];
                    for v in 0..4 {
                        let (m_, n) = frag::mma_16816_c(li, v);
                        self.write(cr, outs[0].1[v], t, d[m_][n], "mma d")?;
                    }
                }
            }

            AtomicSemantics::MmaVolta884 => {
                let (ar, _) = lane_addrs[0].0[0];
                let (br, _) = lane_addrs[0].0[1];
                let (cr, _) = lane_addrs[0].1[0];
                let mut a = [[0.0f32; 4]; 8];
                let mut b = [[0.0f32; 8]; 4];
                let mut c = [[0.0f32; 8]; 8];
                for (li, &t) in lanes.iter().enumerate() {
                    let (ins, outs) = &lane_addrs[li];
                    for v in 0..4 {
                        let (m_, k) = frag::mma_884_a(li, v);
                        a[m_][k] = self.read(ar, ins[0].1[v], t, "mma884 a")?;
                        let (k2, n) = frag::mma_884_b(li, v);
                        b[k2][n] = self.read(br, ins[1].1[v], t, "mma884 b")?;
                    }
                    for v in 0..8 {
                        let (m_, n) = frag::mma_884_c(li, v);
                        c[m_][n] = self.read(cr, outs[0].1[v], t, "mma884 c")?;
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
                    let (_, outs) = &lane_addrs[li];
                    for v in 0..8 {
                        let (m_, n) = frag::mma_884_c(li, v);
                        self.write(cr, outs[0].1[v], t, c[m_][n], "mma884 d")?;
                    }
                }
            }

            AtomicSemantics::ShflBfly => {
                let SpecKind::Shfl { mask } = spec.kind else {
                    unreachable!("shfl semantics require shfl kind")
                };
                let (sr, _) = lane_addrs[0].0[0];
                let (dr, _) = lane_addrs[0].1[0];
                let vals: Result<Vec<f32>, _> = lanes
                    .iter()
                    .enumerate()
                    .map(|(li, &t)| self.read(sr, lane_addrs[li].0[0].1[0], t, "shfl src"))
                    .collect();
                let vals = vals?;
                for (li, &t) in lanes.iter().enumerate() {
                    let peer = li ^ mask as usize;
                    let v = vals[peer % vals.len()];
                    self.write(dr, lane_addrs[li].1[0].1[0], t, v, "shfl dst")?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphene_ir::builder::KernelBuilder;
    use graphene_ir::ScalarType;
    use graphene_layout::Layout;
    use graphene_sym::IntExpr;

    /// Each thread copies one element from global to global via a
    /// register: validates addressing, counters, and value flow.
    #[test]
    fn per_thread_copy_roundtrip() {
        let mut kb = KernelBuilder::new("copy", &[1], &[32]);
        let src = kb.param("src", &[32], ScalarType::F32);
        let dst = kb.param("dst", &[32], ScalarType::F32);
        let block = kb.block();
        let tid = kb.module()[block].group_coords()[0].clone();
        let r = kb.alloc_reg("r", TensorType::scalar(Layout::contiguous(1), ScalarType::F32));
        let s_elem = kb.index(src, std::slice::from_ref(&tid));
        let d_elem = kb.index(dst, &[tid]);
        let ts = kb.thread_scalar(block);
        kb.spec(SpecKind::Move, vec![ts], vec![s_elem], vec![r]);
        let ts2 = kb.thread_scalar(block);
        kb.spec(SpecKind::Move, vec![ts2], vec![r], vec![d_elem]);
        let kernel = kb.build();

        let data: Vec<f32> = (0..32).map(|i| i as f32).collect();
        let mut inputs = HashMap::new();
        inputs.insert(src, data.clone());
        let out = execute(&kernel, Arch::Sm86, &inputs).expect("exec");
        assert_eq!(out.globals[&dst], data);
        assert_eq!(out.counters.global_read_bytes, 32 * 4);
        assert_eq!(out.counters.global_write_bytes, 32 * 4);
        assert_eq!(out.counters.instructions, 64);
    }

    /// Strided shared-memory column access produces bank conflicts; the
    /// same access through a unit-stride row does not.
    #[test]
    fn bank_conflicts_detected() {
        // 32 threads write a 32x32 f32 smem tile column-wise: every lane
        // hits bank 0 -> 32-way conflict.
        let build = |column: bool| {
            let mut kb = KernelBuilder::new("smem", &[1], &[32]);
            let block = kb.block();
            let smem = kb.alloc_shared("s", TensorType::row_major(&[32, 32], ScalarType::F32));
            let r = kb.alloc_reg("r", TensorType::scalar(Layout::contiguous(1), ScalarType::F32));
            let tid = kb.module()[block].group_coords()[0].clone();
            let elem = if column {
                kb.index(smem, &[tid, IntExpr::zero()])
            } else {
                kb.index(smem, &[IntExpr::zero(), tid])
            };
            // One warp-wide collective move: 32 lanes, one scalar each.
            // Use per-thread move; conflicts counted per warp batch.
            let ts = kb.thread_scalar(block);
            kb.spec(SpecKind::Move, vec![ts], vec![r], vec![elem]);
            kb.build()
        };
        let col = execute(&build(true), Arch::Sm86, &HashMap::new()).unwrap();
        let row = execute(&build(false), Arch::Sm86, &HashMap::new()).unwrap();
        assert!(col.counters.conflict_factor() > row.counters.conflict_factor());
        assert_eq!(row.counters.conflict_factor(), 1.0);
    }
}
