//! Shared traversal helpers for the analysis passes.

use graphene_ir::body::Predicate;
use graphene_ir::tensor::TensorId;
use graphene_ir::{MemSpace, Module};
use graphene_sim::{lane_addresses_cached, PlanCache, Site};
use std::cell::OnceCell;
use std::collections::HashMap;

/// One shared-memory operand access of one undecomposed spec, with the
/// concrete per-thread addresses it touches.
#[derive(Debug, Clone)]
pub struct SharedAccess<'s> {
    /// Root shared tensor being accessed.
    pub root: TensorId,
    /// The operand view whose offset expression addresses the root
    /// (input to the symbolic disjointness prover).
    pub view: TensorId,
    /// The accessing spec's rendered header.
    pub header: &'s str,
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

/// Evaluates a thread-independent guard under `env`: `Some(taken)` when
/// both sides evaluate, `None` when symbolic (dynamic shape parameters)
/// — callers assume symbolic guards taken, over-approximating.
pub fn eval_guard(cond: &Predicate, env: &HashMap<String, i64>) -> Option<bool> {
    match (cond.lhs.eval(env), cond.rhs.eval(env)) {
        (Ok(l), Ok(r)) => Some(l < r),
        _ => None,
    }
}

/// The `lanes` every guard admits under `env` (a guard that does not
/// evaluate is assumed taken, over-approximating).
pub fn guarded_lanes(
    lanes: &[i64],
    guards: &[Predicate],
    env: &mut HashMap<String, i64>,
) -> Vec<i64> {
    let mut admits = |t: i64| {
        guards.iter().all(|g| {
            env.insert("threadIdx.x".into(), t);
            let taken = eval_guard(g, env).unwrap_or(true);
            env.remove("threadIdx.x");
            taken
        })
    };
    lanes.iter().copied().filter(|&t| admits(t)).collect()
}

/// Collects the shared-memory accesses of one access site, with
/// per-thread addresses evaluated under `env` and the site's lanes
/// filtered by the active thread-dependent guards. Address plans are
/// compiled at most once per view through `plans` — the same compiled
/// layer the simulator executes on — and reused across every call site
/// of a pass.
///
/// Returns nothing when every lane is guarded off; skips an operand
/// whose addresses cannot be evaluated (unbound dynamic parameters).
pub fn shared_accesses<'s>(
    site: &'s Site,
    module: &Module,
    plans: &mut PlanCache,
    env: &mut HashMap<String, i64>,
    guards: &[Predicate],
    path: &[String],
) -> Vec<SharedAccess<'s>> {
    let lanes = guarded_lanes(&site.lanes, guards, env);
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
    for op in site.operands.iter().filter(|o| o.mem == MemSpace::Shared) {
        let Ok(per_lane) = lane_addresses_cached(plans, op.view, module, &lanes, env) else {
            continue;
        };
        out.push(SharedAccess {
            root: op.root,
            view: op.view,
            header: &site.header,
            path: path.to_vec(),
            write: op.write,
            cp_async: site.cp_async() && op.write,
            loop_free: guards_tid_only && tid_only(&module[op.view].offset),
            lane_span,
            per_lane,
            lanes_at: OnceCell::new(),
        });
    }
    out
}
