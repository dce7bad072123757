//! Graph execution: run a lowered multi-kernel chain against one
//! liveness-planned workspace arena, through either plan execution or
//! whole-graph trace replay.
//!
//! [`ExecGraph`] is the execution form of a lowered graph: a node per
//! kernel launch, each node's parameters bound positionally to either
//! a named external (graph input / weight) or a workspace temp. The
//! temps are planned into a single arena by [`crate::workspace`] —
//! per-node fresh allocation is replaced by interval-aliased slices,
//! and [`GraphOutcome`] reports both peaks so callers can print
//! planned vs naive bytes.
//!
//! Two paths run the same graph:
//!
//! - [`execute_graph`] drives each node through plan execution
//!   ([`crate::run::execute_plan`]: the node recorded afresh, then
//!   replayed), sequential or parallel CTA mode.
//! - [`record_graph`] records each *distinct* (kernel, problem) once
//!   via the shared [`TraceCache`] and stitches the per-kernel traces
//!   with the node arg bindings and the workspace plan into a
//!   [`GraphTrace`]; [`replay_graph`] then re-runs the whole chain at
//!   straight-line speed with fresh inputs. Identical kernel instances
//!   (e.g. the QKV and attention-out projections of an encoder layer)
//!   share one recording.
//!
//! [`GraphTraceCache`] memoizes stitched [`GraphTrace`]s per
//! (graph signature, problem, arch) — the whole-model capture that
//! lets a serve loop replay an entire encoder without recording — and
//! is a [`Memo`] like [`TraceCache`].
//!
//! Both paths execute nodes in graph order over the same arena and
//! replay the same recordings, so their outputs are bit-identical; the
//! equivalence suite checks both against each node's every-block
//! recording.

use crate::counters::Counters;
use crate::exec::ExecError;
use crate::memo::Memo;
use crate::plan::KernelPlan;
use crate::replay::replay_opt_with;
use crate::run::{execute_plan, ExecMode};
use crate::trace::{TraceCache, TraceKey};
use crate::trace_opt::{OptStats, OptTrace};
use crate::workspace::{plan_workspace, NodeUse, WorkspacePlan};
use graphene_ir::tensor::TensorId;
use graphene_ir::Arch;
use std::collections::HashMap;
use std::sync::Arc;

/// How one kernel parameter is bound when the graph runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgBinding {
    /// Bound to the named graph input (activations in, weights,
    /// biases). Missing externals are zero-filled, like missing plan
    /// inputs.
    External(String),
    /// Read from workspace temp `t`.
    TempIn(usize),
    /// Written to workspace temp `t`.
    TempOut(usize),
}

/// One kernel launch in an executable graph.
#[derive(Debug, Clone)]
pub struct ExecNode {
    /// Kernel name — the [`TraceKey`] kernel component.
    pub kernel: String,
    /// Problem-instance description folding in the node's dimensions
    /// — the [`TraceKey`] problem component. Two nodes with equal
    /// (kernel, problem) share one recorded trace.
    pub problem: String,
    /// The compiled plan the node launches.
    pub plan: Arc<KernelPlan>,
    /// Per-parameter bindings, positionally aligned with
    /// [`KernelPlan::params`].
    pub args: Vec<ArgBinding>,
}

/// An executable lowered graph: kernel chain + temp table + outputs.
#[derive(Debug, Clone)]
pub struct ExecGraph {
    /// Lowering-assigned graph identity (hash of ops, dims, and
    /// lowering mode) — the [`GraphTraceCache`] key component.
    pub signature: String,
    /// Problem-instance description of the whole graph.
    pub problem: String,
    /// Target architecture all plans were compiled for.
    pub arch: Arch,
    /// Kernel launches, in execution order.
    pub nodes: Vec<ExecNode>,
    /// Scalar length of each workspace temp.
    pub temps: Vec<usize>,
    /// Temps that are graph results (stay live to the end).
    pub outputs: Vec<usize>,
}

impl ExecGraph {
    /// Structural validation: every binding must be positionally
    /// consistent with its plan's parameter list, temp indices and
    /// lengths must match the temp table, every temp read must be
    /// written by an earlier node, and every output must be written.
    ///
    /// # Errors
    ///
    /// [`ExecError::BadInput`] naming the offending node/parameter.
    pub fn validate(&self) -> Result<(), ExecError> {
        let bad = |m: String| Err(ExecError::BadInput(m));
        let mut written = vec![false; self.temps.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            let params = node.plan.params();
            if params.len() != node.args.len() {
                return bad(format!(
                    "node {i} `{}`: {} args for {} params",
                    node.kernel,
                    node.args.len(),
                    params.len()
                ));
            }
            for ((_, name, len), arg) in params.iter().zip(&node.args) {
                let t = match arg {
                    ArgBinding::External(_) => continue,
                    ArgBinding::TempIn(t) | ArgBinding::TempOut(t) => *t,
                };
                if t >= self.temps.len() {
                    return bad(format!("node {i} param %{name}: temp {t} out of range"));
                }
                if self.temps[t] != *len {
                    return bad(format!(
                        "node {i} param %{name}: temp {t} holds {} scalars, param expects {len}",
                        self.temps[t]
                    ));
                }
                if matches!(arg, ArgBinding::TempIn(_)) && !written[t] {
                    return bad(format!(
                        "node {i} param %{name}: temp {t} read before any node writes it"
                    ));
                }
            }
            for arg in &node.args {
                if let ArgBinding::TempOut(t) = arg {
                    written[*t] = true;
                }
            }
        }
        for &t in &self.outputs {
            if t >= self.temps.len() || !written[t] {
                return bad(format!("output temp {t} is never written"));
            }
        }
        Ok(())
    }

    /// Per-node temp read/write sets, for the workspace planner.
    pub fn node_uses(&self) -> Vec<NodeUse> {
        self.nodes
            .iter()
            .map(|n| {
                let mut u = NodeUse::default();
                for arg in &n.args {
                    match arg {
                        ArgBinding::TempIn(t) => u.reads.push(*t),
                        ArgBinding::TempOut(t) => u.writes.push(*t),
                        ArgBinding::External(_) => {}
                    }
                }
                u
            })
            .collect()
    }

    /// Plans the workspace arena for this graph.
    pub fn workspace(&self) -> WorkspacePlan {
        plan_workspace(&self.temps, &self.node_uses(), &self.outputs)
    }

    /// The graph's external inputs `(name, scalar length)`, deduped in
    /// first-use order — what a caller must (or may) supply.
    pub fn externals(&self) -> Vec<(String, usize)> {
        externals(self.nodes.iter().map(|n| (n.plan.params(), n.args.as_slice())))
    }

    /// The [`GraphTraceCache`] key of this graph.
    pub fn key(&self) -> GraphKey {
        GraphKey {
            signature: self.signature.clone(),
            problem: self.problem.clone(),
            arch: self.arch,
        }
    }
}

/// External inputs `(name, scalar length)` of a chain of
/// `(params, bindings)` nodes, deduped in first-use order.
fn externals<'a>(
    nodes: impl Iterator<Item = (&'a [(TensorId, String, usize)], &'a [ArgBinding])>,
) -> Vec<(String, usize)> {
    let mut seen: Vec<(String, usize)> = Vec::new();
    for (params, args) in nodes {
        for ((_, _, len), arg) in params.iter().zip(args) {
            if let ArgBinding::External(name) = arg {
                if !seen.iter().any(|(n, _)| n == name) {
                    seen.push((name.clone(), *len));
                }
            }
        }
    }
    seen
}

/// The result of one graph execution (either path).
#[derive(Debug)]
pub struct GraphOutcome {
    /// Final contents of each output temp, keyed by temp index.
    pub outputs: HashMap<usize, Vec<f32>>,
    /// Profile counters summed over all kernel launches.
    pub counters: Counters,
    /// The workspace plan the run used — carries planned
    /// (`arena_scalars`) vs naive (`naive_scalars`) peaks.
    pub workspace: WorkspacePlan,
}

/// Seeds one node's input map from externals and arena slices.
fn node_inputs(
    params: &[(TensorId, String, usize)],
    args: &[ArgBinding],
    inputs: &HashMap<String, Vec<f32>>,
    arena: &[f32],
    ws: &WorkspacePlan,
) -> Result<HashMap<TensorId, Vec<f32>>, ExecError> {
    let mut kin = HashMap::new();
    for ((id, _, len), arg) in params.iter().zip(args) {
        match arg {
            ArgBinding::External(name) => {
                if let Some(v) = inputs.get(name) {
                    if v.len() != *len {
                        return Err(ExecError::BadInput(format!(
                            "graph input `{name}` expects {len} scalars, got {}",
                            v.len()
                        )));
                    }
                    kin.insert(*id, v.clone());
                }
                // Missing externals zero-fill, matching execute_plan.
            }
            ArgBinding::TempIn(t) => {
                kin.insert(*id, arena[ws.slice(*t, *len)].to_vec());
            }
            ArgBinding::TempOut(_) => {} // kernel output: starts zeroed
        }
    }
    Ok(kin)
}

/// Copies one node's written temps back into the arena.
fn scatter_outputs(
    params: &[(TensorId, String, usize)],
    args: &[ArgBinding],
    globals: &HashMap<TensorId, Vec<f32>>,
    arena: &mut [f32],
    ws: &WorkspacePlan,
) {
    for ((id, _, len), arg) in params.iter().zip(args) {
        if let ArgBinding::TempOut(t) = arg {
            let v = globals.get(id).expect("executor returns every param");
            arena[ws.slice(*t, *len)].copy_from_slice(v);
        }
    }
}

/// Collects the graph outputs out of the arena.
fn gather_outputs(
    outputs: &[usize],
    temps: &[usize],
    arena: &[f32],
    ws: &WorkspacePlan,
) -> HashMap<usize, Vec<f32>> {
    outputs.iter().map(|&t| (t, arena[ws.slice(t, temps[t])].to_vec())).collect()
}

/// Executes the graph through plan execution, node by node over one
/// planned arena.
///
/// `mode` selects the per-kernel CTA schedule (sequential or
/// parallel); nodes themselves always run in graph order, which the
/// arena aliasing depends on.
///
/// # Errors
///
/// [`ExecError::BadInput`] from [`ExecGraph::validate`] or a mis-sized
/// external; any [`ExecError`] a kernel execution hits.
pub fn execute_graph(
    g: &ExecGraph,
    inputs: &HashMap<String, Vec<f32>>,
    mode: ExecMode,
) -> Result<GraphOutcome, ExecError> {
    g.validate()?;
    let ws = g.workspace();
    let mut arena = vec![0.0f32; ws.arena_scalars];
    let bindings = HashMap::new();
    let mut counters = Counters::default();
    for node in &g.nodes {
        let params = node.plan.params();
        let kin = node_inputs(params, &node.args, inputs, &arena, &ws)?;
        let out = execute_plan(&node.plan, &kin, &bindings, mode)?;
        counters.merge(&out.counters);
        scatter_outputs(params, &node.args, &out.globals, &mut arena, &ws);
    }
    Ok(GraphOutcome {
        outputs: gather_outputs(&g.outputs, &g.temps, &arena, &ws),
        counters,
        workspace: ws,
    })
}

/// A whole-graph trace: per-node recorded kernel traces stitched with
/// their arg bindings and the workspace plan. Produced by
/// [`record_graph`], executed by [`replay_graph`].
#[derive(Debug)]
pub struct GraphTrace {
    nodes: Vec<(Arc<OptTrace>, Vec<ArgBinding>)>,
    workspace: WorkspacePlan,
    temps: Vec<usize>,
    outputs: Vec<usize>,
}

impl GraphTrace {
    /// Kernel launches in the stitched chain.
    pub fn num_kernels(&self) -> usize {
        self.nodes.len()
    }

    /// Total recorded steps across all launches (shared traces
    /// counted once per launch, since replay runs them once each).
    pub fn num_steps(&self) -> usize {
        self.nodes.iter().map(|(t, _)| t.num_steps()).sum()
    }

    /// The workspace plan replay binds its slices from.
    pub fn workspace(&self) -> &WorkspacePlan {
        &self.workspace
    }

    /// The stitched chain's external inputs — identical to
    /// [`ExecGraph::externals`] of the graph it was recorded from, so
    /// a cache hit seeds inputs without the lowered graph.
    pub fn externals(&self) -> Vec<(String, usize)> {
        externals(self.nodes.iter().map(|(t, args)| (t.params.as_slice(), args.as_slice())))
    }

    /// Trace-optimizer stats aggregated over the stitched chain
    /// (shared recordings counted once per launch, matching
    /// [`num_steps`](Self::num_steps)).
    pub fn opt_stats(&self) -> OptStats {
        let mut agg = OptStats::default();
        for (t, _) in &self.nodes {
            let s = t.stats();
            agg.steps_before += s.steps_before;
            agg.steps_after += s.steps_after;
            agg.addrs_before += s.addrs_before;
            agg.gather_addrs += s.gather_addrs;
            agg.pattern_addrs += s.pattern_addrs;
            agg.dead_fills += s.dead_fills;
            agg.fused_steps += s.fused_steps;
            agg.bytes_before += s.bytes_before;
            agg.bytes_after += s.bytes_after;
            agg.folded_mmas += s.folded_mmas;
            agg.mma_tiles += s.mma_tiles;
            agg.row_copies += s.row_copies;
            agg.row_copy_elems += s.row_copy_elems;
            agg.recorded_blocks += s.recorded_blocks;
        }
        agg
    }

    /// Resident payload bytes of the stitched chain, counting each
    /// shared recording once.
    pub fn resident_bytes(&self) -> usize {
        let mut seen: Vec<*const OptTrace> = Vec::with_capacity(self.nodes.len());
        let mut total = 0;
        for (t, _) in &self.nodes {
            let p = Arc::as_ptr(t);
            if !seen.contains(&p) {
                seen.push(p);
                total += t.resident_bytes();
            }
        }
        total
    }
}

/// Records every node of `g` (once per distinct (kernel, problem) via
/// `traces`) and stitches the result into a [`GraphTrace`].
///
/// # Errors
///
/// [`ExecError`] from validation or any recording run.
pub fn record_graph(g: &ExecGraph, traces: &TraceCache) -> Result<GraphTrace, ExecError> {
    g.validate()?;
    let bindings = HashMap::new();
    let mut nodes = Vec::with_capacity(g.nodes.len());
    for node in &g.nodes {
        let key =
            TraceKey { kernel: node.kernel.clone(), problem: node.problem.clone(), arch: g.arch };
        let (t, _) = traces.get_or_record(&key, &node.plan, &bindings)?;
        nodes.push((t, node.args.clone()));
    }
    Ok(GraphTrace {
        nodes,
        workspace: g.workspace(),
        temps: g.temps.clone(),
        outputs: g.outputs.clone(),
    })
}

/// Replays a stitched graph trace end-to-end against fresh inputs.
///
/// Per-node data flow is identical to [`execute_graph`] — same arena,
/// same slices, same node order — so outputs are bit-identical to it;
/// only the recordings come from the trace cache instead of being
/// recorded per call.
///
/// # Errors
///
/// [`ExecError::BadInput`] on a mis-sized external; any replay error.
pub fn replay_graph(
    gt: &GraphTrace,
    inputs: &HashMap<String, Vec<f32>>,
    mode: ExecMode,
) -> Result<GraphOutcome, ExecError> {
    let ws = &gt.workspace;
    let mut arena = vec![0.0f32; ws.arena_scalars];
    let mut counters = Counters::default();
    for (trace, args) in &gt.nodes {
        let kin = node_inputs(&trace.params, args, inputs, &arena, ws)?;
        let out = replay_opt_with(trace, &kin, mode)?;
        counters.merge(&out.counters);
        scatter_outputs(&trace.params, args, &out.globals, &mut arena, ws);
    }
    Ok(GraphOutcome {
        outputs: gather_outputs(&gt.outputs, &gt.temps, &arena, ws),
        counters,
        workspace: gt.workspace.clone(),
    })
}

/// Cache key: one stitched trace per (graph signature, problem, arch).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GraphKey {
    /// Lowering-assigned graph signature ([`ExecGraph::signature`]).
    pub signature: String,
    /// Problem-instance description ([`ExecGraph::problem`]).
    pub problem: String,
    /// Target architecture.
    pub arch: Arch,
}

/// Default [`GraphTraceCache`] capacity — whole-graph traces are an
/// order of magnitude bigger than single-kernel ones.
pub const GRAPH_TRACE_CACHE_CAPACITY: usize = 32;

/// Memoizes stitched [`GraphTrace`]s per [`GraphKey`], a [`Memo`] like
/// [`TraceCache`]. The per-kernel `TraceCache` is passed per call, so
/// graphs sharing kernels also share their recordings.
pub type GraphTraceCache = Memo<GraphKey, GraphTrace, GRAPH_TRACE_CACHE_CAPACITY>;

impl GraphTraceCache {
    /// Returns the stitched trace for `g`, recording and stitching on
    /// first use. Callers holding only the front-end graph should use
    /// [`get_or_record_with`](Self::get_or_record_with) and lower on a
    /// miss instead.
    ///
    /// # Errors
    ///
    /// Any [`ExecError`] from [`record_graph`]; nothing is cached.
    pub fn get_or_record(
        &self,
        g: &ExecGraph,
        traces: &TraceCache,
    ) -> Result<Arc<GraphTrace>, ExecError> {
        self.get_or_record_with(&g.key(), || record_graph(g, traces)).map(|(t, _)| t)
    }

    /// Returns the stitched trace under `key` and whether it was a hit.
    /// Only a miss runs `record` — typically: lower the graph, then
    /// [`record_graph`] — so a warm caller builds nothing.
    ///
    /// # Errors
    ///
    /// Whatever `record` returns; nothing is cached.
    pub fn get_or_record_with<E>(
        &self,
        key: &GraphKey,
        record: impl FnOnce() -> Result<GraphTrace, E>,
    ) -> Result<(Arc<GraphTrace>, bool), E> {
        self.get_or_insert_with(key, record)
    }

    /// Total resident payload bytes across all cached graph traces
    /// (each stitched chain counts its shared recordings once).
    pub fn resident_bytes(&self) -> usize {
        self.sum_by(GraphTrace::resident_bytes)
    }
}
