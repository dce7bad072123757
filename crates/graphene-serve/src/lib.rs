//! # graphene-serve
//!
//! A persistent compile/lint/tune/run daemon over the Graphene stack —
//! the production-serving shape of the repo's record-once/serve-many
//! thesis. One process keeps every expensive artifact resident and
//! *shared*:
//!
//! - compiled [`KernelPlan`](graphene_sim::KernelPlan)s, keyed by
//!   `(kernel, canonical problem, arch)` ([`state`]),
//! - recorded execution traces ([`graphene_sim::TraceCache`]) and
//!   whole-graph traces ([`graphene_sim::GraphTraceCache`]),
//! - tuning results ([`graphene_tune::SharedTuneDb`]) and candidate
//!   costs ([`graphene_tune::CostCache`]),
//!
//! so the *second* request for any kernel is served from memory: a
//! repeated `run` replays its trace without re-recording, and a
//! repeated `tune` is a `db_hit` with zero simulations. Every cache but
//! the tuning database is one bounded [`graphene_sim::Memo`].
//!
//! The wire protocol is newline-delimited JSON over TCP ([`proto`]),
//! served std-only by a bounded worker pool ([`server`]) with explicit
//! admission control, queue-wait deadlines, per-command latency
//! histograms ([`metrics`]), an async job queue for long tunes with
//! poll/cancel ([`jobs`]), and graceful drain on `shutdown`/SIGTERM.
//! Request handlers ([`handlers`]) are also the one-shot CLI's
//! implementation: `graphene run …` dispatches the same request on a
//! fresh [`ServerState`], so responses are bit-identical to one-shot
//! `graphene` runs by construction.
//!
//! ```no_run
//! use graphene_serve::{Server, ServeOptions};
//! let server = Server::bind(ServeOptions::default()).unwrap();
//! let addr = server.local_addr().unwrap();
//! std::thread::spawn(move || server.run());
//! let resp = graphene_serve::client::request(
//!     &addr.to_string(),
//!     r#"{"cmd":"run","kernel":"gemm","m":256,"n":256,"k":64,"exec":"replay"}"#,
//!     std::time::Duration::from_secs(60),
//! ).unwrap();
//! assert!(resp.contains("\"ok\":true"));
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod handlers;
pub mod jobs;
pub mod metrics;
pub mod proto;
pub mod server;
pub mod state;

pub use jobs::{Job, JobQueue, JobState};
pub use metrics::Metrics;
pub use proto::{parse_request, Obj, Request};
pub use server::{install_signal_handlers, ServeOptions, Server};
pub use state::ServerState;
