//! Graphene schedules for the paper's evaluation workloads, library
//! baselines, and the graph front-end that lowers onto them.
#![allow(missing_docs)]
pub mod catalog;
pub mod common;
pub mod exec_lower;
pub mod fmha;
pub mod gemm;
pub mod graph;
pub mod layernorm;
pub mod lstm;
pub mod mlp;
pub mod mma;
pub mod pointwise;
pub mod reference;
pub mod softmax;
pub mod transformer;
