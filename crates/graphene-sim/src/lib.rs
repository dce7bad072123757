//! # graphene-sim
//!
//! The GPU substrate for the Graphene reproduction (ASPLOS '23).
//!
//! The paper evaluates on real V100 (Volta) and RTX A6000 (Ampere)
//! hardware; this crate substitutes a simulator with two complementary
//! halves operating on the *same IR* the CUDA backend prints:
//!
//! - **Functional execution** ([`execute`]) — interprets a decomposed
//!   kernel block-by-block, group-by-group, including the collective
//!   register-fragment semantics of `ldmatrix` and the `mma` tensor
//!   instructions, validating Graphene's data-to-thread mappings
//!   element-exactly against the reference math in [`host`].
//! - **Static analysis + timing** ([`analyze()`](analyze()), [`time_kernel`]) — loops
//!   over the kernel's access-site table ([`Sites`], one walk of the IR
//!   shared with `graphene-analysis`) to count bytes per memory level
//!   (with exact per-warp bank-conflict sampling), FLOPs per pipe, and
//!   launches, then applies a roofline-with-overheads model of the two machines
//!   ([`VOLTA_V100`], [`AMPERE_A6000`]). This scales to the paper's
//!   evaluation sizes and produces the Nsight-Compute-style utilisation
//!   percentages of Figure 9.
//!
//! Functional execution has three engines, bit-identical in outputs
//! and counters:
//!
//! - **Reference** ([`execute_reference`]): the original statement-tree
//!   interpreter, kept as the oracle every equivalence test compares
//!   against.
//! - **Compiled plan** ([`execute_plan`]): [`KernelPlan::compile`]
//!   lowers a kernel once to slot-indexed address plans and
//!   precomputed lane tables ([`plan`]), and the plan is interpreted
//!   per execution ([`run`]).
//! - **Optimized replay** ([`replay_opt`](replay_opt())): the CUDA-graph
//!   analog. [`record_trace`] captures one instrumented plan run as a
//!   flat straight-line program ([`trace`]), the trace optimizer
//!   ([`optimize_trace`], [`trace_opt`]) lowers it into an [`OptTrace`]
//!   whose address slices are compact affine descriptors, and replay
//!   re-runs it against fresh inputs with no dispatch, no symbolic
//!   environment and no address emission — contiguous steps at memcpy
//!   speed. A [`TraceCache`] keeps one optimized trace resident per
//!   (kernel, problem, arch).
//!
//! The two grid engines run independent CTAs concurrently under
//! [`ExecMode::Parallel`] through one shared fan-out with a
//! block-ordered write merge, so parallel runs stay bit-identical to
//! sequential ones.

#![warn(missing_docs)]

pub mod analyze;
pub mod counters;
pub mod exec;
pub mod graph_exec;
pub mod host;
pub mod machine;
pub mod memo;
pub mod plan;
pub mod prove;
pub mod replay;
pub mod run;
pub mod sites;
pub mod timing;
pub mod trace;
pub mod trace_opt;
pub mod workspace;

pub use analyze::{
    analyze, analyze_bound, analyze_cached, exec_lanes, lane_addresses_cached,
    sample_conflicts_cached, AnalyzeError,
};
pub use counters::Counters;
pub use exec::{
    execute, execute_bound, execute_reference, execute_reference_bound, execute_with, rel_offsets,
    ExecError, ExecOutcome,
};
pub use graph_exec::{
    execute_graph, record_graph, replay_graph, ArgBinding, ExecGraph, ExecNode, GraphKey,
    GraphOutcome, GraphTrace, GraphTraceCache,
};
pub use host::HostTensor;
pub use machine::{machine_for, MachineDesc, AMPERE_A6000, VOLTA_V100};
pub use memo::Memo;
pub use plan::{root_len, AddressPlan, BankTally, KernelPlan, PlanCache, RelOffsetsMemo};
pub use prove::{
    grade_conflicts_cached, linear_site, prove_conflicts_enumerated, prove_conflicts_linear,
    sample_is_aligned_warp, ConflictGrade, ConflictProvenance,
};
pub use replay::{replay_opt, replay_opt_with};
pub use run::{execute_plan, ExecMode};
pub use sites::{Site, SiteOperand, Sites};
pub use timing::{time_kernel, time_sequence, KernelProfile};
pub use trace::{record_trace, Trace, TraceCache, TraceKey};
pub use trace_opt::{optimize_trace, record_opt_trace, OptStats, OptTrace};
pub use workspace::{plan_workspace, NodeUse, TempPlan, WorkspacePlan};
