//! Shared traversal helpers for the analysis passes.

use graphene_ir::atomic::{match_atomic, AtomicSpec};
use graphene_ir::body::Predicate;
use graphene_ir::spec::Spec;
use graphene_ir::tensor::TensorId;
use graphene_ir::threads::ThreadLevel;
use graphene_ir::{MemSpace, Module};
use graphene_sim::{exec_lanes, lane_addresses_cached, PlanCache};
use std::cell::OnceCell;
use std::collections::HashMap;

/// One shared-memory operand access of one undecomposed spec, with the
/// concrete per-thread addresses it touches.
#[derive(Debug, Clone)]
pub struct SharedAccess<'m> {
    /// Root shared tensor being accessed.
    pub root: TensorId,
    /// The operand view whose offset expression addresses the root
    /// (input to the symbolic disjointness prover).
    pub view: TensorId,
    /// The accessing spec; its header is rendered only for a report.
    pub spec: &'m Spec,
    /// Statement path of the spec.
    pub path: Vec<String>,
    /// Write access (the operand is an output).
    pub write: bool,
    /// The access is performed by a `cp.async` asynchronous copy: its
    /// completion is ordered only by a wait + block barrier, never by a
    /// warp-scope sync.
    pub cp_async: bool,
    /// The offset and every active guard depend on nothing but
    /// `threadIdx.x`: enumerating the lanes once covers every loop
    /// iteration, so the per-lane address sets are *exact*, not sampled
    /// at iterations 0 and 1.
    pub loop_free: bool,
    /// `Some(n)` when the executing lanes (after guard filtering) are
    /// exactly `[0, 2^n)` — the precondition for the symbolic
    /// disjointness proof, which models the thread id as `n` free bits.
    pub lane_span: Option<u32>,
    /// `(thread, scalar addresses)` for every executing lane.
    per_lane: Vec<(i64, Vec<i64>)>,
    /// `address -> threads touching it`, built from `per_lane` on first
    /// use: only a pair the F₂ prover cannot clear enumerates.
    lanes_at: OnceCell<HashMap<i64, Vec<i64>>>,
}

impl SharedAccess<'_> {
    /// `address -> threads touching it` for every scalar address.
    pub fn lanes_at(&self) -> &HashMap<i64, Vec<i64>> {
        self.lanes_at.get_or_init(|| {
            let mut lanes_at: HashMap<i64, Vec<i64>> = HashMap::new();
            for (t, addrs) in &self.per_lane {
                for &a in addrs {
                    lanes_at.entry(a).or_default().push(*t);
                }
            }
            lanes_at
        })
    }
}

/// Whether a predicate mentions `threadIdx.x` (so its outcome differs
/// per thread and it *filters* lanes rather than gating the block).
pub fn thread_dependent(cond: &Predicate) -> bool {
    cond.lhs.free_vars().iter().chain(cond.rhs.free_vars().iter()).any(|v| v == "threadIdx.x")
}

/// Evaluates a thread-independent guard under `env`: `Some(taken)` when
/// both sides evaluate, `None` when symbolic (dynamic shape parameters)
/// — callers assume symbolic guards taken, over-approximating.
pub fn eval_guard(cond: &Predicate, env: &HashMap<String, i64>) -> Option<bool> {
    match (cond.lhs.eval(env), cond.rhs.eval(env)) {
        (Ok(l), Ok(r)) => Some(l < r),
        _ => None,
    }
}

/// Collects the shared-memory accesses of one undecomposed spec, with
/// per-thread addresses evaluated under `env` and lanes filtered by the
/// active thread-dependent guards. Address plans are compiled at most
/// once per view through `plans` — the same compiled layer the
/// simulator executes on — and reused across every call site of a pass.
///
/// Returns nothing when the spec matches no atomic spec (reported
/// separately as `GRA002`), has no thread-level execution config, or
/// its addresses cannot be evaluated (unbound dynamic parameters).
pub fn shared_accesses<'m>(
    spec: &'m Spec,
    module: &Module,
    reg: &[AtomicSpec],
    plans: &mut PlanCache,
    env: &mut HashMap<String, i64>,
    guards: &[Predicate],
    path: &[String],
) -> Vec<SharedAccess<'m>> {
    let Some(atomic) = match_atomic(spec, module, reg) else { return Vec::new() };
    let Some(&exec) = spec.exec.last() else { return Vec::new() };
    let tt = &module[exec];
    if tt.level != ThreadLevel::Thread {
        return Vec::new();
    }
    let cp_async = atomic.name.starts_with("cp.async");
    let all_lanes = exec_lanes(tt, tt.count() as usize);
    let lanes: Vec<i64> = all_lanes
        .into_iter()
        .filter(|&t| {
            guards.iter().all(|g| {
                env.insert("threadIdx.x".into(), t);
                let taken = eval_guard(g, env).unwrap_or(true);
                env.remove("threadIdx.x");
                taken
            })
        })
        .collect();
    if lanes.is_empty() {
        return Vec::new();
    }
    // Exact lane span [0, 2^n)? (The symbolic prover's tid model.)
    let lane_span = {
        let mut sorted = lanes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let contiguous = sorted.len() == lanes.len()
            && sorted.len().is_power_of_two()
            && sorted.first() == Some(&0)
            && *sorted.last().expect("non-empty") == sorted.len() as i64 - 1;
        contiguous.then(|| sorted.len().trailing_zeros())
    };
    let tid_only = |e: &graphene_sym::IntExpr| e.free_vars().iter().all(|v| v == "threadIdx.x");
    let guards_tid_only = guards.iter().all(|g| tid_only(&g.lhs) && tid_only(&g.rhs));

    let mut out = Vec::new();
    for (&id, write) in
        spec.ins.iter().map(|i| (i, false)).chain(spec.outs.iter().map(|o| (o, true)))
    {
        let root = module.root_of(id);
        if module[root].mem != MemSpace::Shared {
            continue;
        }
        let Ok(per_lane) = lane_addresses_cached(plans, id, module, &lanes, env) else { continue };
        out.push(SharedAccess {
            root,
            view: id,
            spec,
            path: path.to_vec(),
            write,
            cp_async: cp_async && write,
            loop_free: guards_tid_only && tid_only(&module[id].offset),
            lane_span,
            per_lane,
            lanes_at: OnceCell::new(),
        });
    }
    out
}
