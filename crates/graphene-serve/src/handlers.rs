//! Request handlers: one function per wire command, all routed through
//! [`dispatch`].
//!
//! Handlers delegate kernel/space construction to the shared catalogs
//! (`graphene_kernels::catalog`, `graphene_tune::catalog`) and seed
//! inputs with `HostTensor::random` at seed `1000 + param index`. A
//! one-shot `graphene lint|run|run-graph|tune` is [`dispatch`] on a
//! fresh [`ServerState`], so a daemon response is bit-identical to the
//! corresponding CLI run by construction — the resident caches change
//! *when* work happens, never *what* is computed.

use crate::jobs::{Job, JobState};
use crate::proto::{err_envelope, ok_envelope, parse_request, Obj, Request};
use crate::state::ServerState;
use graphene_ir::Arch;
use graphene_kernels::catalog::opt_arch;
use graphene_sim::{
    execute_graph, execute_plan, execute_reference, record_graph, replay_graph, replay_opt,
    ExecMode, HostTensor, OptStats, TraceKey,
};
use graphene_tune::{SearchSpace, TuneOptions, TuneProgress};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::Ordering;

/// Parses one request line, routes it, and renders the response line.
/// Also records per-command latency and the malformed counter — this
/// is the single entry point worker threads call.
pub fn dispatch(state: &ServerState, line: &str) -> String {
    let req = match parse_request(line) {
        Ok(r) => r,
        Err(e) => {
            state.metrics.malformed.fetch_add(1, Ordering::Relaxed);
            return err_envelope(0, &e);
        }
    };
    guarded(state, &req, || match req.cmd.as_str() {
        "lint" => lint(&req),
        "run" => run(state, &req),
        "run-graph" => run_graph(state, &req),
        "tune" => tune(state, &req),
        "poll" => poll(state, &req),
        "cancel" => cancel(state, &req),
        "stats" => Ok(stats(state)),
        "shutdown" => {
            state.start_drain();
            Ok(Obj::new().bool("draining", true))
        }
        other => Err(format!(
            "unknown cmd `{other}` (lint|run|run-graph|tune|poll|cancel|stats|shutdown)"
        )),
    })
}

/// Runs one parsed request's handler, counted in `in_flight` and the
/// latency histograms, and renders its envelope. A panicking handler
/// answers `internal error: <cmd> panicked` and is counted in `panics`
/// instead of unwinding through the worker thread.
fn guarded(
    state: &ServerState,
    req: &Request,
    handler: impl FnOnce() -> Result<Obj, String>,
) -> String {
    state.metrics.in_flight.fetch_add(1, Ordering::Relaxed);
    let start = std::time::Instant::now();
    // Unwind safety: handlers share state only through atomics and the
    // caches' mutexes. A panic under a lock poisons it, and a later
    // request that takes that lock panics and is answered here too.
    let result =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(handler)).unwrap_or_else(|_| {
            state.metrics.panics.fetch_add(1, Ordering::Relaxed);
            Err(format!("internal error: {} panicked", req.cmd))
        });
    let us = start.elapsed().as_micros() as u64;
    state.metrics.record(&req.cmd, us);
    state.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
    match result {
        Ok(fields) => ok_envelope(req.id, fields.num("elapsed_us", us)),
        Err(e) => err_envelope(req.id, &e),
    }
}

/// The most global-buffer scalars (f32) one `run` or `run-graph`
/// request may seed and compute: 256 MiB. Catalog defaults and the
/// benchmark sizes stay at least 7x below it.
pub const MAX_REQUEST_SCALARS: usize = 1 << 26;

/// Refuses a request whose global buffers hold `scalars` scalars when
/// that exceeds [`MAX_REQUEST_SCALARS`]; called before any of them is
/// allocated.
fn within_limit(scalars: u128) -> Result<(), String> {
    if scalars > MAX_REQUEST_SCALARS as u128 {
        return Err(format!(
            "request needs {scalars} global scalars, over the limit of {MAX_REQUEST_SCALARS}"
        ));
    }
    Ok(())
}

fn flag(req: &Request, key: &str) -> bool {
    matches!(req.opt(key), Some("true" | "1" | "yes"))
}

/// Seeds inputs for `run`/`run-graph`: the `i`-th `(key, scalar
/// length)` is drawn from seed `1000 + i`.
fn seeded_inputs<K: Eq + Hash>(
    params: impl IntoIterator<Item = (K, usize)>,
) -> HashMap<K, Vec<f32>> {
    params
        .into_iter()
        .enumerate()
        .map(|(i, (k, len))| (k, HostTensor::random(&[len], 1000 + i as u64).into_vec()))
        .collect()
}

fn counters_json(c: &graphene_sim::Counters) -> String {
    format!(
        "{{\"instructions\":{},\"flops_tc\":{},\"flops_fma\":{},\"syncs\":{}}}",
        c.instructions, c.flops_tc, c.flops_fma, c.syncs
    )
}

/// The trace optimizer's report for an `exec=replay` response.
fn trace_opt_json(st: &OptStats) -> String {
    format!(
        "{{\"coalesced_fraction\":{:.4},\"bytes_before\":{},\"bytes_after\":{},\
         \"steps_before\":{},\"steps_after\":{},\"dead_fills\":{},\"fused_steps\":{},\
         \"gather_addrs\":{},\"pattern_addrs\":{},\"folded_mmas\":{},\"mma_tiles\":{},\
         \"row_copies\":{},\"row_copy_elems\":{}}}",
        st.coalesced_fraction(),
        st.bytes_before,
        st.bytes_after,
        st.steps_before,
        st.steps_after,
        st.dead_fills,
        st.fused_steps,
        st.gather_addrs,
        st.pattern_addrs,
        st.folded_mmas,
        st.mma_tiles,
        st.row_copies,
        st.row_copy_elems
    )
}

/// `lint`: the full static-analysis pipeline, with `--prove` and
/// `--emit text|json` selecting the rendering the `output` field
/// carries (the one-shot `graphene lint` prints it verbatim).
fn lint(req: &Request) -> Result<Obj, String> {
    let name = req.opt("kernel").ok_or(
        "lint needs a kernel name (`kernel`): gemm|gemm-db|mlp|lstm|layernorm|softmax|fmha",
    )?;
    let arch = opt_arch(&req.opts)?;
    let nk = graphene_kernels::catalog::build_named(name, arch, &req.opts)?;
    let (diags, report) = graphene_analysis::lint_kernel_cached(
        &nk.kernel,
        arch,
        &mut graphene_sim::PlanCache::new(),
    );
    let errors = graphene_analysis::error_count(&diags);
    let report = flag(req, "prove").then_some(report);
    let output = match req.opt("emit") {
        None | Some("text") => {
            use std::fmt::Write as _;
            let mut out = String::new();
            let _ = writeln!(
                out,
                "lint {} ({arch}): {} diagnostics, {errors} errors",
                nk.kernel.name,
                diags.len()
            );
            for d in &diags {
                let _ = writeln!(out, "  {d}");
            }
            if let Some(r) = &report {
                out.push_str(&r.render_text());
            }
            out
        }
        Some("json") => {
            let mut json = graphene_analysis::render_json(&nk.kernel.name, &diags);
            if let Some(r) = &report {
                let trimmed = json.trim_end().strip_suffix('}').map(str::to_string);
                json = trimmed.unwrap_or(json);
                json.push_str(&format!(",\"proof\":{}}}\n", r.render_json()));
            }
            json
        }
        Some(other) => return Err(format!("unknown emit `{other}` (text|json)")),
    };
    Ok(Obj::new()
        .str("kernel", &nk.kernel.name)
        .str("problem", &nk.problem)
        .num("diagnostics", diags.len() as u64)
        .num("errors", errors as u64)
        .str("output", &output))
}

/// `run`: execute a kernel. `exec` selects the engine; the compiled
/// plan comes from the resident plan cache, and the replay engine
/// serves from the resident trace cache — a repeated request replays
/// without recording (`trace_hit: true`).
fn run(state: &ServerState, req: &Request) -> Result<Obj, String> {
    let name = req.opt("kernel").ok_or(
        "run needs a kernel name (`kernel`): gemm|gemm-db|mlp|lstm|layernorm|softmax|fmha",
    )?;
    let arch = opt_arch(&req.opts)?;
    enum Engine {
        Reference,
        Plan(ExecMode),
        Replay,
    }
    let engine = match req.opt("exec") {
        None | Some("parallel") => Engine::Plan(ExecMode::Parallel),
        Some("sequential") => Engine::Plan(ExecMode::Sequential),
        Some("reference") => Engine::Reference,
        Some("replay") => Engine::Replay,
        Some(other) => {
            return Err(format!(
                "unknown exec mode `{other}` (reference|sequential|parallel|replay)"
            ))
        }
    };
    let (entry, plan_hit) = state.plan_for(name, arch, &req.opts)?;
    within_limit(entry.plan.params().iter().map(|&(_, _, len)| len as u128).sum())?;
    let inputs = seeded_inputs(entry.plan.params().iter().map(|(id, _, len)| (*id, *len)));
    let bindings = HashMap::new();
    let mut replayed = None;
    let start = std::time::Instant::now();
    let outcome = match &engine {
        Engine::Plan(m) => execute_plan(&entry.plan, &inputs, &bindings, *m),
        Engine::Reference => {
            // The reference interpreter needs the kernel IR itself, so
            // this path (the slow baseline, kept for equivalence
            // checks) rebuilds rather than caching kernels.
            let nk = graphene_kernels::catalog::build_named(name, arch, &req.opts)?;
            execute_reference(&nk.kernel, arch, &inputs)
        }
        Engine::Replay => {
            let key = TraceKey {
                kernel: entry.kernel_name.clone(),
                problem: entry.problem.clone(),
                arch,
            };
            let (trace, hit) = state
                .traces
                .get_or_record(&key, &entry.plan, &bindings)
                .map_err(|e| e.to_string())?;
            let outcome = replay_opt(&trace, &inputs);
            replayed = Some((hit, *trace.stats()));
            outcome
        }
    }
    .map_err(|e| e.to_string())?;
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let checksum: f64 =
        outcome.globals.values().flat_map(|buf| buf.iter()).map(|&x| f64::from(x)).sum();
    let mut fields = Obj::new()
        .str("kernel", &entry.kernel_name)
        .str("problem", &entry.problem)
        .str(
            "engine",
            match &engine {
                Engine::Reference => "reference interpreter",
                Engine::Plan(ExecMode::Sequential) => "compiled (sequential) interpreter",
                Engine::Plan(_) => "compiled (parallel) interpreter",
                Engine::Replay => "trace replay",
            },
        )
        .str(
            "launch",
            &format!("{} blocks x {} threads", entry.plan.grid_size(), entry.plan.block_size()),
        )
        .bool("plan_hit", plan_hit);
    if let Some((hit, st)) = &replayed {
        fields = fields.bool("trace_hit", *hit).raw("trace_opt", &trace_opt_json(st));
    }
    Ok(fields
        .raw("wall_ms", &format!("{wall_ms:.3}"))
        .raw("counters", &counters_json(&outcome.counters))
        .raw("checksum", &format!("{checksum:.6}")))
}

/// `run-graph`: build and execute a whole encoder graph. The replay
/// engine looks the graph trace up by a key computed from the
/// front-end graph and lowers only on a miss, so a warm request
/// compiles nothing.
fn run_graph(state: &ServerState, req: &Request) -> Result<Obj, String> {
    use graphene_kernels::exec_lower::{graph_key, lower_executable, ExecLowering};
    use graphene_kernels::graph::encoder_global_scalars;

    let dims = graphene_kernels::catalog::EncoderDims::from_options(&req.opts)?;
    let arch = opt_arch(&req.opts)?;
    let lowering = match req.opt("lowering") {
        None | Some("fused") => ExecLowering::Fused,
        Some("default") => ExecLowering::Default,
        Some(other) => return Err(format!("unknown lowering `{other}` (default|fused)")),
    };
    let replay_engine = match req.opt("exec") {
        None | Some("plan") => false,
        Some("replay") => true,
        Some(other) => return Err(format!("unknown exec mode `{other}` (plan|replay)")),
    };

    within_limit(encoder_global_scalars(dims.layers, dims.batch, dims.seq, dims.hidden, dims.ffn))?;
    let graph = dims.graph();
    let lower = || lower_executable(&graph, arch, lowering);
    let start = std::time::Instant::now();
    let (launches, replayed, outcome) = if replay_engine {
        let key = graph_key(&graph, arch, lowering);
        let (gt, hit) = state.graphs.get_or_record_with(&key, || {
            record_graph(&lower()?, &state.traces).map_err(|e| e.to_string())
        })?;
        let inputs = seeded_inputs(gt.externals());
        let outcome = replay_graph(&gt, &inputs, ExecMode::Parallel).map_err(|e| e.to_string())?;
        (gt.num_kernels(), Some((hit, gt.opt_stats())), outcome)
    } else {
        let eg = lower()?;
        let inputs = seeded_inputs(eg.externals());
        let outcome = execute_graph(&eg, &inputs, ExecMode::Parallel).map_err(|e| e.to_string())?;
        (eg.nodes.len(), None, outcome)
    };
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let checksum: f64 = {
        let mut temps: Vec<_> = outcome.outputs.iter().collect();
        temps.sort_by_key(|(t, _)| **t);
        temps.iter().flat_map(|(_, buf)| buf.iter()).map(|&x| f64::from(x)).sum()
    };
    let ws = &outcome.workspace;
    let mut fields = Obj::new()
        .raw("graph", &dims.to_json(graph.ops.len()))
        .str("lowering", lowering.label())
        .num("launches", launches as u64)
        .raw(
            "arena",
            &format!(
                "{{\"planned_bytes\":{},\"naive_bytes\":{}}}",
                ws.arena_bytes(),
                ws.naive_bytes()
            ),
        )
        .str("engine", if replay_engine { "replay" } else { "plan" });
    if let Some((hit, st)) = &replayed {
        fields = fields.bool("graph_hit", *hit).raw("trace_opt", &trace_opt_json(st));
    }
    Ok(fields
        .raw("wall_ms", &format!("{wall_ms:.3}"))
        .raw("counters", &counters_json(&outcome.counters))
        .raw("checksum", &format!("{checksum:.6}")))
}

/// Renders a finished tune report as response fields — shared by the
/// synchronous path and job workers (`poll` returns the same object).
fn tune_fields(report: &graphene_tune::TuneReport, space: &dyn SearchSpace, arch: Arch) -> Obj {
    let s = &report.stats;
    let mut fields = Obj::new()
        .str("space", &report.space)
        .str("problem", &report.problem)
        .str("arch", &format!("{arch:?}"))
        .str("winner", &report.best_desc)
        .raw("best_time_s", &format!("{:e}", report.best_time_s));
    if let Some(d) = report.default_time_s {
        fields = fields.raw("default_time_s", &format!("{d:e}"));
    }
    let leaderboard: Vec<String> = report
        .leaderboard
        .iter()
        .map(|c| {
            format!(
                "[\"{}\",{:e}]",
                graphene_tune::json::escape(&space.describe(&c.point)),
                c.profile.time_s
            )
        })
        .collect();
    fields
        .raw(
            "stats",
            &format!(
                "{{\"proposed\":{},\"pruned_constraint\":{},\"pruned_analysis\":{},\
                 \"simulated\":{},\"cost_replayed\":{},\"db_hit\":{}}}",
                s.proposed,
                s.pruned_constraint,
                s.pruned_analysis,
                s.simulated,
                s.cost_replayed,
                s.db_hit
            ),
        )
        .bool("db_hit", s.db_hit)
        .raw("leaderboard", &format!("[{}]", leaderboard.join(",")))
}

/// A tune request's arch, search space and options, from the shared
/// tune catalog.
type TuneSpec = (Arch, Box<dyn SearchSpace>, TuneOptions);

fn tune_spec(req: &Request) -> Result<TuneSpec, String> {
    let arch = opt_arch(&req.opts)?;
    let kernel = req.opt("kernel").unwrap_or("gemm");
    let space = graphene_tune::catalog::space_from_options(kernel, arch, &req.opts)?;
    let opts = graphene_tune::catalog::options_from_options(&req.opts)?;
    Ok((arch, space, opts))
}

/// Runs a tune against the resident database and cost cache, counts a
/// database hit, and renders the report — the synchronous path and job
/// workers both end here.
fn search(
    state: &ServerState,
    (arch, space, opts): &TuneSpec,
    progress: Option<&dyn TuneProgress>,
) -> Result<Obj, String> {
    let report = graphene_tune::tune_observed(
        space.as_ref(),
        opts,
        Some(&state.db),
        Some(&state.costs),
        progress,
    )
    .map_err(|e| e.to_string())?;
    if report.stats.db_hit {
        state.db_hits.fetch_add(1, Ordering::Relaxed);
    }
    Ok(tune_fields(&report, space.as_ref(), *arch))
}

/// `tune`: short searches run synchronously; searches whose planned
/// proposal count exceeds the server's limit (or that pass
/// `"job":true`) are enqueued and answered with a job id for `poll`.
fn tune(state: &ServerState, req: &Request) -> Result<Obj, String> {
    let spec = tune_spec(req)?;
    let (_, space, opts) = &spec;
    let planned = graphene_tune::planned_proposals(space.as_ref(), &opts.search);
    if flag(req, "job") || planned > state.sync_tune_limit {
        let job = state.jobs.submit(req.clone(), planned);
        return Ok(Obj::new()
            .num("job", job.id)
            .str("state", "queued")
            .num("planned", planned as u64));
    }
    search(state, &spec, None)
}

/// Runs one dequeued tune job to completion — called by the server's
/// job-worker threads. Progress flows through the job's observer;
/// cancellation aborts between batches.
pub fn run_tune_job(state: &ServerState, req: &Request, job: &Job) {
    let outcome = tune_spec(req).and_then(|spec| search(state, &spec, Some(&job.progress)));
    state.jobs.finish(job, outcome.map(Obj::finish));
}

fn job_id(req: &Request) -> Result<u64, String> {
    req.opt("job")
        .ok_or("needs a `job` field")?
        .parse()
        .map_err(|_| "`job` must be a job id".to_string())
}

/// `poll`: a job's state and progress; a finished job carries its
/// result object.
fn poll(state: &ServerState, req: &Request) -> Result<Obj, String> {
    let id = job_id(req)?;
    let job = state.jobs.get(id).ok_or_else(|| format!("unknown job id {id}"))?;
    let (done, planned) = job.progress_counts();
    let js = job.state();
    let mut fields = Obj::new().num("job", id).str("state", js.label()).raw(
        "progress",
        &format!(
            "{{\"proposed\":{done},\"planned\":{planned},\"fraction\":{:.4}}}",
            job.fraction()
        ),
    );
    match js {
        JobState::Done(result) => fields = fields.raw("result", &result),
        JobState::Failed(e) => fields = fields.str("job_error", &e),
        _ => {}
    }
    Ok(fields)
}

/// `cancel`: cooperative cancellation; reports the state the job was
/// in when the request arrived.
fn cancel(state: &ServerState, req: &Request) -> Result<Obj, String> {
    let id = job_id(req)?;
    let was = state.jobs.cancel(id).ok_or_else(|| format!("unknown job id {id}"))?;
    let job = state.jobs.get(id).ok_or_else(|| format!("unknown job id {id}"))?;
    Ok(Obj::new().num("job", id).str("was", was.label()).str("state", job.state().label()))
}

/// `stats`: per-cache hit/miss/eviction counters, request latency
/// histograms, and queue gauges.
fn stats(state: &ServerState) -> Obj {
    let (plan_hits, plan_misses, plan_len) = state.plan_stats();
    let (jobs_queued, jobs_running, jobs_finished) = state.jobs.counts();
    let m = &state.metrics;
    Obj::new()
        .raw("requests", &m.render_json())
        .raw(
            "caches",
            &Obj::new()
                .raw(
                    "plans",
                    &format!(
                        "{{\"hits\":{plan_hits},\"misses\":{plan_misses},\"entries\":{plan_len}}}"
                    ),
                )
                .raw(
                    "traces",
                    &format!(
                        "{{\"hits\":{},\"recordings\":{},\"evictions\":{},\"entries\":{},\
                         \"resident_bytes\":{}}}",
                        state.traces.hits(),
                        state.traces.recordings(),
                        state.traces.evictions(),
                        state.traces.len(),
                        state.traces.resident_bytes()
                    ),
                )
                .raw(
                    "graphs",
                    &format!(
                        "{{\"hits\":{},\"recordings\":{},\"evictions\":{},\"entries\":{},\
                         \"resident_bytes\":{}}}",
                        state.graphs.hits(),
                        state.graphs.recordings(),
                        state.graphs.evictions(),
                        state.graphs.len(),
                        state.graphs.resident_bytes()
                    ),
                )
                .raw(
                    "costs",
                    &format!(
                        "{{\"replays\":{},\"recordings\":{}}}",
                        state.costs.replays(),
                        state.costs.recordings()
                    ),
                )
                .raw(
                    "tune_db",
                    &format!(
                        "{{\"hits\":{},\"entries\":{},\"persistent\":{}}}",
                        state.db_hits.load(Ordering::Relaxed),
                        state.db.len(),
                        state.db.is_persistent()
                    ),
                )
                .finish(),
        )
        .raw(
            "jobs",
            &format!(
                "{{\"queued\":{jobs_queued},\"running\":{jobs_running},\
                 \"finished\":{jobs_finished}}}"
            ),
        )
        .num("in_flight", m.in_flight.load(Ordering::Relaxed))
        .num("queued", m.queued.load(Ordering::Relaxed))
        .num("busy_rejected", m.busy_rejected.load(Ordering::Relaxed))
        .num("deadline_rejected", m.deadline_rejected.load(Ordering::Relaxed))
        .num("malformed", m.malformed.load(Ordering::Relaxed))
        .num("oversized", m.oversized.load(Ordering::Relaxed))
        .num("panics", m.panics.load(Ordering::Relaxed))
        .bool("draining", state.is_draining())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphene_tune::json::{parse, Json};

    fn get<'j>(v: &'j Json, path: &[&str]) -> &'j Json {
        path.iter().fold(v, |v, k| v.get(k).unwrap_or_else(|| panic!("missing field {k}")))
    }

    #[test]
    fn panicking_handler_answers_an_error_envelope_and_is_counted() {
        let state = ServerState::new(None);
        let req = parse_request(r#"{"id":7,"cmd":"lint"}"#).unwrap();
        let resp = parse(&guarded(&state, &req, || panic!("planted handler panic"))).unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{resp:?}");
        assert_eq!(get(&resp, &["id"]).as_i64(), Some(7));
        assert_eq!(get(&resp, &["error"]).as_str(), Some("internal error: lint panicked"));
        assert_eq!(state.metrics.panics.load(Ordering::Relaxed), 1);
        assert_eq!(state.metrics.in_flight.load(Ordering::Relaxed), 0);
        assert_eq!(state.metrics.count("lint"), 1);
        let stats = parse(&dispatch(&state, r#"{"cmd":"stats"}"#)).unwrap();
        assert_eq!(get(&stats, &["panics"]).as_i64(), Some(1));
        // The same state keeps serving.
        let ok =
            parse(&dispatch(&state, r#"{"cmd":"lint","kernel":"softmax","rows":4,"cols":256}"#))
                .unwrap();
        assert_eq!(ok.get("ok"), Some(&Json::Bool(true)), "{ok:?}");
    }

    #[test]
    fn run_twice_hits_plan_and_trace_caches_with_identical_checksums() {
        let state = ServerState::new(None);
        let line = r#"{"id":1,"cmd":"run","kernel":"gemm","m":256,"n":256,"k":64,"exec":"replay"}"#;
        let cold = parse(&dispatch(&state, line)).unwrap();
        assert_eq!(cold.get("ok"), Some(&Json::Bool(true)), "{cold:?}");
        assert_eq!(get(&cold, &["trace_hit"]), &Json::Bool(false));
        assert!(get(&cold, &["trace_opt", "coalesced_fraction"]).as_f64().unwrap() > 0.0);
        let warm = parse(&dispatch(&state, line)).unwrap();
        assert_eq!(get(&warm, &["trace_hit"]), &Json::Bool(true));
        assert_eq!(get(&warm, &["plan_hit"]), &Json::Bool(true));
        assert_eq!(
            get(&cold, &["checksum"]).as_f64(),
            get(&warm, &["checksum"]).as_f64(),
            "replayed run must be bit-identical to the recording run"
        );
        // And the parallel engine agrees with replay on the checksum.
        let plan =
            parse(&dispatch(&state, r#"{"cmd":"run","kernel":"gemm","m":256,"n":256,"k":64}"#))
                .unwrap();
        assert_eq!(get(&plan, &["checksum"]).as_f64(), get(&cold, &["checksum"]).as_f64());
    }

    #[test]
    fn warm_run_graph_replays_the_cached_trace_bit_identically() {
        let state = ServerState::new(None);
        let line = r#"{"cmd":"run-graph","layers":1,"seq":64,"ffn":256,"exec":"replay"}"#;
        let cold = parse(&dispatch(&state, line)).unwrap();
        assert_eq!(cold.get("ok"), Some(&Json::Bool(true)), "{cold:?}");
        assert_eq!(get(&cold, &["graph_hit"]), &Json::Bool(false));
        let warm = parse(&dispatch(&state, line)).unwrap();
        assert_eq!(get(&warm, &["graph_hit"]), &Json::Bool(true));
        let sum = |v: &Json| get(v, &["checksum"]).as_f64().map(f64::to_bits);
        assert_eq!(sum(&cold), sum(&warm), "warm replay must be bit-identical");
        let st = parse(&dispatch(&state, r#"{"cmd":"stats"}"#)).unwrap();
        assert_eq!(get(&st, &["caches", "graphs", "recordings"]).as_i64(), Some(1));
        assert_eq!(get(&st, &["caches", "graphs", "hits"]).as_i64(), Some(1));
        // The plan engine lowers the graph itself and agrees with the
        // trace hit on the checksum and on what the hit rendered
        // without a lowered graph.
        let plan = parse(&dispatch(&state, &line.replace("replay", "plan"))).unwrap();
        assert_eq!(sum(&plan), sum(&warm));
        for field in ["launches", "arena", "graph"] {
            assert_eq!(get(&plan, &[field]), get(&warm, &[field]), "{field}");
        }
    }

    #[test]
    fn edge_case_sizes_get_error_envelopes_not_panics() {
        let state = ServerState::new(None);
        let cases = [
            (r#"{"cmd":"run","kernel":"gemm","m":0}"#, "--m must be a positive integer, got 0"),
            (
                r#"{"cmd":"run","kernel":"gemm","m":-128}"#,
                "--m must be a positive integer, got -128",
            ),
            (r#"{"cmd":"run","kernel":"layernorm","rows":0}"#, "--rows must be a positive integer"),
            (r#"{"cmd":"run","kernel":"mlp","layers":0}"#, "--layers must be a positive integer"),
            (r#"{"cmd":"run","kernel":"lstm","hidden":0}"#, "--hidden must be a positive integer"),
            (r#"{"cmd":"run-graph","batch":0}"#, "--batch must be a positive integer, got 0"),
            (r#"{"cmd":"lint","kernel":"gemm","m":0}"#, "--m must be a positive integer, got 0"),
            (r#"{"cmd":"tune","kernel":"gemm","m":0}"#, "--m must be a positive integer, got 0"),
            (
                r#"{"cmd":"tune","kernel":"layernorm","rows":0}"#,
                "--rows must be a positive integer, got 0",
            ),
            (
                r#"{"cmd":"tune","kernel":"fmha","seq":0}"#,
                "--seq must be a positive integer, got 0",
            ),
        ];
        for (line, want) in cases {
            let resp = parse(&dispatch(&state, line)).unwrap();
            assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{line}: {resp:?}");
            let err = get(&resp, &["error"]).as_str().unwrap();
            assert!(err.contains(want), "{line}: {err}");
        }
        assert_eq!(state.plan_stats(), (0, 0, 0), "rejected requests must not touch the cache");
        assert_eq!(state.costs.recordings(), 0, "rejected tunes must cost no candidate");
        assert_eq!(state.db.len(), 0, "rejected tunes must record no winner");
    }

    #[test]
    fn oversized_requests_are_refused_before_allocating() {
        let state = ServerState::new(None);
        let limit = format!("over the limit of {MAX_REQUEST_SCALARS}");
        for line in [
            r#"{"cmd":"run","kernel":"gemm","m":65536,"n":65536,"k":65536}"#,
            r#"{"cmd":"run","kernel":"gemm","m":65536,"n":65536,"k":65536,"exec":"replay"}"#,
            r#"{"cmd":"run","kernel":"layernorm","rows":65536,"hidden":1024}"#,
            r#"{"cmd":"run-graph","layers":1000000,"exec":"replay"}"#,
            r#"{"cmd":"run-graph","batch":4294967296,"seq":4294967296}"#,
        ] {
            let resp = parse(&dispatch(&state, line)).unwrap();
            assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{line}: {resp:?}");
            let err = get(&resp, &["error"]).as_str().unwrap();
            assert!(err.contains(&limit), "{line}: {err}");
        }
        assert_eq!(state.traces.recordings(), 0, "refused before recording");
        assert_eq!(state.metrics.panics.load(Ordering::Relaxed), 0);
        // The largest benchmark size, layernorm's 4096x1024 input and
        // output, stays under the limit.
        assert!(within_limit(2 * 4096 * 1024).is_ok());
        let ok = r#"{"cmd":"run","kernel":"softmax","rows":4,"cols":256}"#;
        let resp = parse(&dispatch(&state, ok)).unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
    }

    #[test]
    fn lint_reports_clean_kernel_and_unknown_kernel_errors() {
        let state = ServerState::new(None);
        let ok = parse(&dispatch(
            &state,
            r#"{"cmd":"lint","kernel":"gemm","m":256,"n":256,"k":64,"prove":true}"#,
        ))
        .unwrap();
        assert_eq!(ok.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(get(&ok, &["errors"]).as_i64(), Some(0));
        let text = get(&ok, &["output"]).as_str().unwrap();
        assert!(text.contains("0 errors"), "{text}");
        assert!(text.contains("proof (F2 symbolic)"), "{text}");
        let bad = parse(&dispatch(&state, r#"{"cmd":"lint","kernel":"nope"}"#)).unwrap();
        assert_eq!(bad.get("ok"), Some(&Json::Bool(false)));
        assert!(get(&bad, &["error"]).as_str().unwrap().contains("unknown kernel"));
    }

    #[test]
    fn repeat_tune_is_a_db_hit_with_zero_simulations() {
        let state = ServerState::new(None);
        let line = r#"{"cmd":"tune","kernel":"layernorm","rows":512,"hidden":512}"#;
        let cold = parse(&dispatch(&state, line)).unwrap();
        assert_eq!(cold.get("ok"), Some(&Json::Bool(true)), "{cold:?}");
        assert_eq!(get(&cold, &["db_hit"]), &Json::Bool(false));
        assert!(get(&cold, &["default_time_s"]).as_f64().is_some());
        let board = get(&cold, &["leaderboard"]).as_arr().unwrap();
        assert_eq!(board[0].as_arr().unwrap()[0].as_str(), get(&cold, &["winner"]).as_str());
        let warm = parse(&dispatch(&state, line)).unwrap();
        assert_eq!(get(&warm, &["db_hit"]), &Json::Bool(true));
        assert_eq!(get(&warm, &["stats", "simulated"]).as_i64(), Some(0));
        assert_eq!(warm.get("default_time_s"), None, "a db hit costs no default");
        assert_eq!(
            get(&warm, &["winner"]).as_str(),
            get(&cold, &["winner"]).as_str(),
            "the warm winner must be the recorded one"
        );
        // The stats endpoint shows the db hit.
        let st = parse(&dispatch(&state, r#"{"cmd":"stats"}"#)).unwrap();
        assert_eq!(get(&st, &["caches", "tune_db", "hits"]).as_i64(), Some(1));
    }

    #[test]
    fn forced_job_tune_completes_through_poll() {
        let state = ServerState::new(None);
        let resp = parse(&dispatch(
            &state,
            r#"{"cmd":"tune","kernel":"layernorm","rows":512,"hidden":512,"job":true}"#,
        ))
        .unwrap();
        let id = get(&resp, &["job"]).as_i64().unwrap() as u64;
        assert_eq!(get(&resp, &["state"]).as_str(), Some("queued"));
        // Run the job inline (no worker thread in this unit test).
        let (job, req) = state.jobs.pop().unwrap();
        run_tune_job(&state, &req, &job);
        let polled = parse(&dispatch(&state, &format!(r#"{{"cmd":"poll","job":{id}}}"#))).unwrap();
        assert_eq!(get(&polled, &["state"]).as_str(), Some("done"));
        assert_eq!(get(&polled, &["progress", "fraction"]).as_f64(), Some(1.0));
        assert_eq!(get(&polled, &["result", "db_hit"]), &Json::Bool(false));
        assert!(get(&polled, &["result", "stats", "simulated"]).as_i64().unwrap() > 0);
    }

    #[test]
    fn cancel_and_malformed_and_unknown_paths() {
        let state = ServerState::new(None);
        let err = parse(&dispatch(&state, "not json")).unwrap();
        assert_eq!(err.get("ok"), Some(&Json::Bool(false)));
        let unknown = parse(&dispatch(&state, r#"{"cmd":"frobnicate"}"#)).unwrap();
        assert!(get(&unknown, &["error"]).as_str().unwrap().contains("unknown cmd"));
        let resp = parse(&dispatch(
            &state,
            r#"{"cmd":"tune","kernel":"layernorm","rows":512,"hidden":512,"job":true}"#,
        ))
        .unwrap();
        let id = get(&resp, &["job"]).as_i64().unwrap();
        let c = parse(&dispatch(&state, &format!(r#"{{"cmd":"cancel","job":{id}}}"#))).unwrap();
        assert_eq!(get(&c, &["state"]).as_str(), Some("cancelled"));
        let nope = parse(&dispatch(&state, r#"{"cmd":"poll","job":9999}"#)).unwrap();
        assert!(get(&nope, &["error"]).as_str().unwrap().contains("unknown job"));
        let st = parse(&dispatch(&state, r#"{"cmd":"stats"}"#)).unwrap();
        assert_eq!(get(&st, &["malformed"]).as_i64(), Some(1));
    }
}
