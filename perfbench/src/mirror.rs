//! The traced run's server: the daemon's request path rebuilt from the
//! public functions of each layer, with a span around every call.
//!
//! The daemon's handlers call several layers inside one public
//! function (`ServerState::plan_for` builds the kernel and compiles;
//! `TraceCache::get_or_record` records and optimizes), so the mirror
//! keeps its own plan and trace maps to time those layers apart. Its
//! `serve.state.plan_for` span is the map lookup plus freeing the kernel
//! the catalog rebuilt, as in the daemon. Graph and tune requests use
//! the same caches the daemon uses.

use graphene_analysis::{analyze_kernel_cached, error_count};
use graphene_ir::Arch;
use graphene_kernels::catalog::{build_named, opt_int};
use graphene_kernels::exec_lower::{lower_executable, ExecLowering};
use graphene_kernels::graph::encoder_graph;
use graphene_serve::proto::{err_envelope, ok_envelope};
use graphene_serve::state::PlanEntry;
use graphene_serve::{parse_request, Obj, Request};
use graphene_sim::{
    analyze_cached, machine_for, optimize_trace, record_trace, replay_graph, replay_opt,
    time_kernel, ExecMode, GraphTraceCache, HostTensor, KernelPlan, OptStats, OptTrace, PlanCache,
    TraceCache, TraceKey,
};
use graphene_tune::{CostCache, SharedTuneDb, TuneStats};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The named layers, one span name each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Parse,
    Render,
    Checksum,
    Inputs,
    CatalogBuild,
    PlanFor,
    Compile,
    TraceLookup,
    TraceRecord,
    Optimize,
    Replay,
    Lint,
    EncoderGraph,
    Lower,
    Workspace,
    GraphLookup,
    GraphRecord,
    GraphReplay,
    TuneSpace,
    TuneSearch,
    CandidateBuild,
    Counters,
    TimeKernel,
}

/// Every layer with its metric prefix, in report order.
pub const LAYERS: [(Layer, &str); 23] = [
    (Layer::Parse, "serve.proto.parse"),
    (Layer::Render, "serve.proto.render"),
    (Layer::Checksum, "serve.handlers.checksum"),
    (Layer::Inputs, "sim.host.inputs"),
    (Layer::CatalogBuild, "kernels.catalog.build"),
    (Layer::PlanFor, "serve.state.plan_for"),
    (Layer::Compile, "sim.plan.compile"),
    (Layer::TraceLookup, "sim.trace.lookup"),
    (Layer::TraceRecord, "sim.trace.record"),
    (Layer::Optimize, "sim.trace_opt.optimize"),
    (Layer::Replay, "sim.replay.replay_opt"),
    (Layer::Lint, "analysis.lint"),
    (Layer::EncoderGraph, "kernels.graph.encoder_graph"),
    (Layer::Lower, "kernels.exec_lower.lower"),
    (Layer::Workspace, "sim.graph_exec.workspace"),
    (Layer::GraphLookup, "sim.graph_exec.lookup"),
    (Layer::GraphRecord, "sim.graph_exec.record"),
    (Layer::GraphReplay, "sim.graph_exec.replay"),
    (Layer::TuneSpace, "tune.catalog.space"),
    (Layer::TuneSearch, "tune.tuner.search"),
    (Layer::CandidateBuild, "tune.space.build"),
    (Layer::Counters, "sim.analyze.counters"),
    (Layer::TimeKernel, "sim.timing.time_kernel"),
];

/// The spans of one op (or of the candidate probe).
#[derive(Debug, Default)]
pub struct Spans(pub Vec<(Layer, u64)>);

impl Spans {
    /// Runs `f` inside a span of `layer`.
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.0.push((layer, t0.elapsed().as_nanos() as u64));
        out
    }
}

/// One request served by the mirror.
#[derive(Debug)]
pub struct OpRecord {
    pub id: u64,
    /// Server-side time from the first byte parsed to the rendered
    /// response.
    pub server_ns: u64,
    pub spans: Spans,
}

/// The resident state of the mirror: one per daemon it stands in for.
pub struct Mirror {
    plans: Mutex<HashMap<(String, String, Arch), Arc<PlanEntry>>>,
    traces: Mutex<HashMap<TraceKey, Arc<OptTrace>>>,
    graph_kernels: TraceCache,
    graphs: GraphTraceCache,
    costs: CostCache,
    db: SharedTuneDb,
    pub plan_hits: AtomicU64,
    pub plan_misses: AtomicU64,
    pub trace_hits: AtomicU64,
    pub trace_misses: AtomicU64,
    pub arena_bytes: AtomicU64,
    pub tune_stats: Mutex<Vec<TuneStats>>,
    pub records: Mutex<Vec<OpRecord>>,
}

fn arch_of(req: &Request) -> Result<Arch, String> {
    match req.opt("arch") {
        None | Some("sm86") | Some("ampere") => Ok(Arch::Sm86),
        Some("sm70") | Some("volta") => Ok(Arch::Sm70),
        Some(other) => Err(format!("unknown arch `{other}` (sm70|sm86)")),
    }
}

fn counters_json(c: &graphene_sim::Counters) -> String {
    format!(
        "{{\"instructions\":{},\"flops_tc\":{},\"flops_fma\":{},\"syncs\":{}}}",
        c.instructions, c.flops_tc, c.flops_fma, c.syncs
    )
}

impl Mirror {
    /// A fresh mirror with empty caches.
    pub fn new() -> Mirror {
        Mirror {
            plans: Mutex::default(),
            traces: Mutex::default(),
            graph_kernels: TraceCache::new(),
            graphs: GraphTraceCache::new(),
            costs: CostCache::new(),
            db: SharedTuneDb::in_memory(),
            plan_hits: AtomicU64::new(0),
            plan_misses: AtomicU64::new(0),
            trace_hits: AtomicU64::new(0),
            trace_misses: AtomicU64::new(0),
            arena_bytes: AtomicU64::new(0),
            tune_stats: Mutex::default(),
            records: Mutex::default(),
        }
    }

    /// Serves one request line the way `handlers::dispatch` does.
    fn dispatch(&self, line: &str) -> String {
        let t0 = Instant::now();
        let mut sp = Spans::default();
        let req = match sp.time(Layer::Parse, || parse_request(line)) {
            Ok(r) => r,
            Err(e) => return err_envelope(0, &e),
        };
        let result = match req.cmd.as_str() {
            "lint" => self.lint(&mut sp, &req),
            "run" => self.run(&mut sp, &req),
            "run-graph" => self.run_graph(&mut sp, &req),
            "tune" => self.tune(&mut sp, &req),
            other => Err(format!("unknown cmd `{other}`")),
        };
        let us = t0.elapsed().as_micros() as u64;
        let resp = sp.time(Layer::Render, || match result {
            Ok(fields) => ok_envelope(req.id, fields.num("elapsed_us", us)),
            Err(e) => err_envelope(req.id, &e),
        });
        let rec = OpRecord { id: req.id, server_ns: t0.elapsed().as_nanos() as u64, spans: sp };
        self.records.lock().expect("records poisoned").push(rec);
        resp
    }

    fn lint(&self, sp: &mut Spans, req: &Request) -> Result<Obj, String> {
        let name = req.opt("kernel").ok_or("lint needs a `kernel` field")?;
        let arch = arch_of(req)?;
        let nk = sp.time(Layer::CatalogBuild, || build_named(name, arch, &req.opts))?;
        let diags =
            sp.time(Layer::Lint, || analyze_kernel_cached(&nk.kernel, arch, &mut PlanCache::new()));
        let errors = error_count(&diags);
        Ok(sp.time(Layer::Render, || {
            let mut out = format!(
                "lint {} ({arch}): {} diagnostics, {errors} errors\n",
                nk.kernel.name,
                diags.len()
            );
            for d in &diags {
                out.push_str(&format!("  {d}\n"));
            }
            Obj::new()
                .str("kernel", &nk.kernel.name)
                .str("problem", &nk.problem)
                .num("diagnostics", diags.len() as u64)
                .num("errors", errors as u64)
                .str("output", &out)
        }))
    }

    fn run(&self, sp: &mut Spans, req: &Request) -> Result<Obj, String> {
        let name = req.opt("kernel").ok_or("run needs a `kernel` field")?;
        let arch = arch_of(req)?;
        match req.opt("exec") {
            Some("replay") => {}
            other => {
                return Err(format!(
                    "unknown exec mode `{}` (reference|sequential|parallel|replay)",
                    other.unwrap_or("parallel")
                ))
            }
        }
        let nk = sp.time(Layer::CatalogBuild, || build_named(name, arch, &req.opts))?;
        let key = (name.to_string(), nk.problem.clone(), arch);
        let mut nk = Some(nk);
        let hit = sp.time(Layer::PlanFor, || {
            let hit = self.plans.lock().expect("plans poisoned").get(&key).cloned();
            if hit.is_some() {
                nk.take();
            }
            hit
        });
        let plan_hit = hit.is_some();
        let entry = match (hit, nk) {
            (Some(entry), _) => {
                self.plan_hits.fetch_add(1, Ordering::Relaxed);
                entry
            }
            (None, Some(nk)) => {
                let plan = sp
                    .time(Layer::Compile, || KernelPlan::compile(&nk.kernel, arch))
                    .map_err(|e| e.to_string())?;
                self.plan_misses.fetch_add(1, Ordering::Relaxed);
                let entry = Arc::new(PlanEntry {
                    plan,
                    kernel_name: nk.kernel.name.clone(),
                    problem: nk.problem,
                });
                sp.time(Layer::PlanFor, || {
                    Arc::clone(
                        self.plans.lock().expect("plans poisoned").entry(key).or_insert(entry),
                    )
                })
            }
            (None, None) => unreachable!("the kernel is kept until the plan lookup misses"),
        };
        let inputs = sp.time(Layer::Inputs, || {
            let mut inputs = HashMap::new();
            for (i, (id, _, len)) in entry.plan.params().iter().enumerate() {
                inputs
                    .insert(*id, HostTensor::random(&[*len], 1000 + i as u64).as_slice().to_vec());
            }
            inputs
        });
        let tkey =
            TraceKey { kernel: entry.kernel_name.clone(), problem: entry.problem.clone(), arch };
        let cached = sp.time(Layer::TraceLookup, || {
            self.traces.lock().expect("traces poisoned").get(&tkey).cloned()
        });
        let (trace, trace_hit) = match cached {
            Some(t) => {
                self.trace_hits.fetch_add(1, Ordering::Relaxed);
                (t, true)
            }
            None => {
                let raw = sp
                    .time(Layer::TraceRecord, || record_trace(&entry.plan, &HashMap::new()))
                    .map_err(|e| e.to_string())?;
                let opt = Arc::new(sp.time(Layer::Optimize, move || optimize_trace(&raw)));
                self.trace_misses.fetch_add(1, Ordering::Relaxed);
                let t = sp.time(Layer::TraceLookup, || {
                    Arc::clone(
                        self.traces.lock().expect("traces poisoned").entry(tkey).or_insert(opt),
                    )
                });
                (t, false)
            }
        };
        let start = Instant::now();
        let outcome =
            sp.time(Layer::Replay, || replay_opt(&trace, &inputs)).map_err(|e| e.to_string())?;
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let checksum: f64 = sp.time(Layer::Checksum, || {
            outcome.globals.values().flat_map(|buf| buf.iter()).map(|&x| f64::from(x)).sum()
        });
        Ok(sp.time(Layer::Render, || {
            Obj::new()
                .str("kernel", &entry.kernel_name)
                .str("problem", &entry.problem)
                .str("engine", "trace replay")
                .str(
                    "launch",
                    &format!(
                        "{} blocks x {} threads",
                        entry.plan.grid_size(),
                        entry.plan.block_size()
                    ),
                )
                .bool("plan_hit", plan_hit)
                .bool("trace_hit", trace_hit)
                .raw("wall_ms", &format!("{wall_ms:.3}"))
                .raw("counters", &counters_json(&outcome.counters))
                .raw("checksum", &format!("{checksum:.6}"))
        }))
    }

    fn run_graph(&self, sp: &mut Spans, req: &Request) -> Result<Obj, String> {
        let int = |key: &str, default: i64| opt_int(&req.opts, key, default);
        let (layers, batch, seq) = (int("layers", 2)?, int("batch", 1)?, int("seq", 128)?);
        let (hidden, heads, ffn) = (int("hidden", 256)?, int("heads", 4)?, int("ffn", 1024)?);
        let arch = arch_of(req)?;
        let lowering = match req.opt("lowering") {
            None | Some("fused") => ExecLowering::Fused,
            Some("default") => ExecLowering::Default,
            Some(other) => return Err(format!("unknown lowering `{other}` (default|fused)")),
        };
        if req.opt("exec") != Some("replay") {
            return Err("the traced run serves run-graph with exec=replay only".into());
        }
        let graph =
            sp.time(Layer::EncoderGraph, || encoder_graph(layers, batch, seq, hidden, heads, ffn));
        let eg = sp.time(Layer::Lower, || lower_executable(&graph, arch, lowering))?;
        let ws = sp.time(Layer::Workspace, || eg.workspace());
        self.arena_bytes.fetch_max(ws.arena_bytes() as u64, Ordering::Relaxed);
        let inputs = sp.time(Layer::Inputs, || {
            let mut inputs = HashMap::new();
            for (i, (name, len)) in eg.externals().iter().enumerate() {
                inputs.insert(
                    name.clone(),
                    HostTensor::random(&[*len], 1000 + i as u64).as_slice().to_vec(),
                );
            }
            inputs
        });
        let hits_before = self.graphs.hits();
        let t0 = Instant::now();
        let gt = self.graphs.get_or_record(&eg, &self.graph_kernels).map_err(|e| e.to_string())?;
        let graph_hit = self.graphs.hits() > hits_before;
        let layer = if graph_hit { Layer::GraphLookup } else { Layer::GraphRecord };
        sp.0.push((layer, t0.elapsed().as_nanos() as u64));
        let start = Instant::now();
        let outcome = sp
            .time(Layer::GraphReplay, || replay_graph(&gt, &inputs, ExecMode::Parallel))
            .map_err(|e| e.to_string())?;
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let checksum: f64 = sp.time(Layer::Checksum, || {
            let mut temps: Vec<_> = outcome.outputs.iter().collect();
            temps.sort_by_key(|(t, _)| **t);
            temps.iter().flat_map(|(_, buf)| buf.iter()).map(|&x| f64::from(x)).sum()
        });
        Ok(sp.time(Layer::Render, || {
            Obj::new()
                .raw(
                    "graph",
                    &format!(
                        "{{\"layers\":{layers},\"batch\":{batch},\"seq\":{seq},\"hidden\":{hidden},\
                         \"heads\":{heads},\"ffn\":{ffn},\"ops\":{}}}",
                        graph.ops.len()
                    ),
                )
                .str("lowering", lowering.label())
                .num("launches", eg.nodes.len() as u64)
                .raw(
                    "arena",
                    &format!(
                        "{{\"planned_bytes\":{},\"naive_bytes\":{}}}",
                        ws.arena_bytes(),
                        ws.naive_bytes()
                    ),
                )
                .str("engine", "replay")
                .bool("graph_hit", graph_hit)
                .raw("wall_ms", &format!("{wall_ms:.3}"))
                .raw("counters", &counters_json(&outcome.counters))
                .raw("checksum", &format!("{checksum:.6}"))
        }))
    }

    fn tune(&self, sp: &mut Spans, req: &Request) -> Result<Obj, String> {
        let arch = arch_of(req)?;
        let kernel = req.opt("kernel").unwrap_or("gemm");
        let space = sp.time(Layer::TuneSpace, || {
            graphene_tune::catalog::space_from_options(kernel, arch, &req.opts)
        })?;
        let opts = graphene_tune::catalog::options_from_options(&req.opts)?;
        let report = sp
            .time(Layer::TuneSearch, || {
                graphene_tune::tune_observed(
                    space.as_ref(),
                    &opts,
                    Some(&self.db),
                    Some(&self.costs),
                    None,
                )
            })
            .map_err(|e| e.to_string())?;
        self.tune_stats.lock().expect("tune stats poisoned").push(report.stats.clone());
        Ok(sp.time(Layer::Render, || {
            let s = &report.stats;
            Obj::new()
                .str("space", &report.space)
                .str("problem", &report.problem)
                .str("arch", &format!("{arch:?}"))
                .str("winner", &report.best_desc)
                .raw("best_time_s", &format!("{:e}", report.best_time_s))
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
        }))
    }

    /// Hit ratio of the plan map.
    pub fn plan_hit_ratio(&self) -> f64 {
        ratio(self.plan_hits.load(Ordering::Relaxed), self.plan_misses.load(Ordering::Relaxed))
    }

    /// Hit ratio of kernel traces: the run path's map plus the
    /// per-kernel cache graph recording shares.
    pub fn trace_hit_ratio(&self) -> f64 {
        ratio(
            self.trace_hits.load(Ordering::Relaxed) + self.graph_kernels.hits(),
            self.trace_misses.load(Ordering::Relaxed) + self.graph_kernels.recordings(),
        )
    }

    /// Resident bytes of kernel traces and of the optimizer's
    /// coalesced-address share over them.
    pub fn trace_residency(&self) -> (usize, f64) {
        let traces = self.traces.lock().expect("traces poisoned");
        let mut stats: Vec<OptStats> = traces.values().map(|t| *t.stats()).collect();
        let bytes = traces.values().map(|t| t.resident_bytes()).sum::<usize>()
            + self.graph_kernels.resident_bytes();
        drop(traces);
        stats.retain(|s| s.addrs_before > 0);
        let before: usize = stats.iter().map(|s| s.addrs_before).sum();
        let gather: usize = stats.iter().map(|s| s.gather_addrs).sum();
        let coalesced = if before == 0 { 0.0 } else { 1.0 - gather as f64 / before as f64 };
        (bytes, coalesced)
    }

    /// Hit ratio and resident bytes of whole-graph traces.
    pub fn graph_residency(&self) -> (f64, usize) {
        (ratio(self.graphs.hits(), self.graphs.recordings()), self.graphs.resident_bytes())
    }
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// A mirror serving on a local port, one thread per connection.
pub struct MirrorServer {
    pub addr: String,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MirrorServer {
    /// Binds a local port and serves `mirror` until [`stop`](Self::stop).
    pub fn start(mirror: Arc<Mirror>) -> Result<MirrorServer, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        listener.set_nonblocking(true).map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?.to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut conns = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let mirror = Arc::clone(&mirror);
                        conns.push(std::thread::spawn(move || serve_conn(&mirror, stream)));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(1)),
                }
            }
            // Connections end when their client hangs up.
            for c in conns {
                let _ = c.join();
            }
        });
        Ok(MirrorServer { addr, stop, handle: Some(handle) })
    }

    /// Stops accepting and waits for every connection thread.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        self.stop.store(true, Ordering::Relaxed);
        match self.handle.take() {
            Some(h) => h.join().map_err(|_| "mirror server panicked".to_string()),
            None => Ok(()),
        }
    }
}

impl Drop for MirrorServer {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

fn serve_conn(mirror: &Mirror, stream: TcpStream) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_nodelay(true);
    let Ok(mut writer) = stream.try_clone() else { return };
    for line in BufReader::new(stream).lines() {
        let Ok(line) = line else { return };
        let resp = mirror.dispatch(line.trim());
        if writer.write_all(resp.as_bytes()).and_then(|()| writer.write_all(b"\n")).is_err() {
            return;
        }
    }
}

/// Times the tuner's per-candidate pipeline (build, lint, counters,
/// roofline) on evenly spaced legal points of each tune request's
/// space, outside any op.
pub fn probe_candidates(tune_lines: &[String], per_space: usize) -> Result<Spans, String> {
    let mut sp = Spans::default();
    for line in tune_lines {
        let req = parse_request(line)?;
        let arch = arch_of(&req)?;
        let space = graphene_tune::catalog::space_from_options(
            req.opt("kernel").unwrap_or("gemm"),
            arch,
            &req.opts,
        )?;
        let legal: Vec<_> = (0..space.total_points())
            .map(|i| space.point_at(i))
            .filter(|p| space.constraint(p).is_ok())
            .collect();
        let step = (legal.len() / per_space).max(1);
        for p in legal.iter().step_by(step).take(per_space) {
            let kernel = sp.time(Layer::CandidateBuild, || space.build(p));
            let mut plans = PlanCache::new();
            let diags = sp.time(Layer::Lint, || analyze_kernel_cached(&kernel, arch, &mut plans));
            if error_count(&diags) > 0 {
                continue;
            }
            let counters = sp
                .time(Layer::Counters, || {
                    analyze_cached(&kernel, arch, &HashMap::new(), &mut plans)
                })
                .map_err(|e| format!("{e:?}"))?;
            std::hint::black_box(sp.time(Layer::TimeKernel, || {
                time_kernel(&counters, machine_for(arch), kernel.grid_size())
            }));
        }
    }
    Ok(sp)
}
