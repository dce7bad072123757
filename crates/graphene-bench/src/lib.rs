//! # graphene-bench
//!
//! The experiment harness reproducing the paper's evaluation (§6):
//! one function (and one binary) per table/figure. See `EXPERIMENTS.md`
//! at the repository root for the recorded paper-vs-measured outcomes.

#![warn(missing_docs)]

pub mod ablations;
pub mod figures;
pub mod report;
