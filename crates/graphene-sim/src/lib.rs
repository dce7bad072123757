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
//! Functional execution is the reference oracle, one recorder and
//! replay, bit-identical in outputs and counters:
//!
//! - **Reference** ([`execute_reference`]): the original statement-tree
//!   interpreter, kept as the oracle every equivalence test compares
//!   against.
//! - **Recorder** ([`run`], [`trace`]): [`KernelPlan::compile`] lowers a
//!   kernel once to slot-indexed address plans and precomputed lane
//!   tables ([`plan`]); the recorder walks the plan, computes no
//!   values, and captures every group's addresses, bounds-checked, as
//!   a flat straight-line program. [`record_trace`] keeps every block;
//!   [`record_opt_trace`] records block 0 alone when the plan is proven
//!   block-uniform and runs the trace optimizer ([`optimize_trace`],
//!   [`trace_opt`]), which lowers the program into an [`OptTrace`]
//!   whose address slices are compact affine descriptors.
//! - **Replay** ([`replay_opt`](replay_opt())): the CUDA-graph analog.
//!   It re-runs an [`OptTrace`] against fresh inputs with no dispatch,
//!   no symbolic environment and no address emission — contiguous
//!   steps at memcpy speed. [`execute_plan`] is one recording replayed
//!   once; a [`TraceCache`] keeps one optimized trace resident per
//!   (kernel, problem, arch) for replaying many times.
//!
//! Replay runs independent CTAs concurrently under
//! [`ExecMode::Parallel`] with a block-ordered write merge, so parallel
//! runs stay bit-identical to sequential ones.

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
