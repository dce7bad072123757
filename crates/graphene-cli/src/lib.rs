//! # graphene-cli
//!
//! The `graphene` command-line tool: build any of the paper's kernels,
//! then print its Graphene IR, its generated CUDA C++, or its simulated
//! profile on the Volta-like / Ampere-like machine models.
//!
//! ```text
//! graphene gemm --arch sm86 --m 5376 --n 5376 --k 2048 --emit profile
//! graphene gemm --arch sm70 --m 1024 --n 1024 --k 512 --epilogue bias+relu --emit cuda
//! graphene mlp --m 4096 --layers 8 --emit profile
//! graphene fmha --emit cuda
//! graphene layernorm --rows 16384 --hidden 1024 --emit ir
//! graphene lint gemm --emit=json
//! graphene lint fmha --prove
//! graphene table2 --arch sm86
//! ```

#![warn(missing_docs)]

use graphene_ir::{Arch, Kernel};
use graphene_sim::{
    analyze, execute_graph, execute_plan, execute_reference, machine_for, replay_graph, replay_opt,
    time_kernel, ExecMode, GraphTraceCache, HostTensor, KernelPlan, OptStats, TraceCache, TraceKey,
};
use std::collections::HashMap;
use std::fmt::Write as _;

/// What the tool prints for a built kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Emit {
    /// The Graphene IR listing.
    Ir,
    /// The generated CUDA C++.
    Cuda,
    /// The simulated profile (counters + roofline timing).
    Profile,
}

/// Parsed command line.
#[derive(Debug)]
pub struct Cli {
    /// Sub-command name.
    pub command: String,
    /// `--key value` / `--key=value` options.
    pub options: HashMap<String, String>,
    /// Bare (non-option) arguments after the sub-command, e.g. the
    /// kernel name in `lint gemm`.
    pub positional: Vec<String>,
}

/// Errors surfaced to the user.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl Cli {
    /// Parses `args` (without the program name).
    ///
    /// # Errors
    ///
    /// Errors on missing sub-command or malformed options.
    pub fn parse(args: &[String]) -> Result<Cli, CliError> {
        let Some(command) = args.first() else {
            return Err(CliError(usage()));
        };
        let mut options = HashMap::new();
        let mut positional = Vec::new();
        let mut i = 1;
        while i < args.len() {
            let Some(key) = args[i].strip_prefix("--") else {
                positional.push(args[i].clone());
                i += 1;
                continue;
            };
            // Both `--key value` and `--key=value` are accepted; a
            // bare `--flag` (at end of line or followed by another
            // option) is a boolean flag and reads as `true`.
            if let Some((k, v)) = key.split_once('=') {
                options.insert(k.to_string(), v.to_string());
                i += 1;
            } else if args.get(i + 1).is_none_or(|v| v.starts_with("--")) {
                options.insert(key.to_string(), "true".to_string());
                i += 1;
            } else {
                options.insert(key.to_string(), args[i + 1].clone());
                i += 2;
            }
        }
        Ok(Cli { command: command.clone(), options, positional })
    }

    fn arch(&self) -> Result<Arch, CliError> {
        match self.options.get("arch").map(String::as_str) {
            None | Some("sm86") | Some("ampere") => Ok(Arch::Sm86),
            Some("sm70") | Some("volta") => Ok(Arch::Sm70),
            Some(other) => Err(CliError(format!("unknown arch `{other}` (sm70|sm86)"))),
        }
    }

    fn emit(&self) -> Result<Emit, CliError> {
        match self.options.get("emit").map(String::as_str) {
            None | Some("profile") => Ok(Emit::Profile),
            Some("cuda") => Ok(Emit::Cuda),
            Some("ir") => Ok(Emit::Ir),
            Some(other) => Err(CliError(format!("unknown emit `{other}` (ir|cuda|profile)"))),
        }
    }

    fn flag(&self, key: &str) -> bool {
        matches!(self.options.get(key).map(String::as_str), Some("true" | "1" | "yes"))
    }

    fn int(&self, key: &str, default: i64) -> Result<i64, CliError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => {
                v.parse().map_err(|_| CliError(format!("--{key} expects an integer, got `{v}`")))
            }
        }
    }
}

/// The usage text.
pub fn usage() -> String {
    "usage: graphene <command> [--options]\n\
     commands:\n\
       gemm       --arch sm70|sm86 --m --n --k [--epilogue none|bias|relu|bias+relu|bias+gelu] [--emit ir|cuda|profile]\n\
       mlp        --arch ... --m --hidden --layers [--emit ...]\n\
       lstm       --arch ... --m --hidden [--emit ...]\n\
       layernorm  --rows --hidden [--emit ...]\n\
       softmax    --rows --cols [--emit ...]\n\
       fmha       --heads --seq --d [--emit ...]   (Ampere only)\n\
       run        <kernel> [--arch ...] [--exec reference|sequential|parallel|replay] [sizes]  (execute on the functional simulator)\n\
       run-graph  [--layers N] [--batch N] [--seq N] [--hidden N] [--heads N] [--ffn N]\n\
                  [--lowering default|fused] [--exec plan|replay]  (execute a whole encoder graph in one arena)\n\
       tune       [--kernel gemm|fmha|layernorm|mlp] [--arch ...] [sizes] [--search exhaustive|random|beam]\n\
                  [--budget N] [--seed N] [--samples N] [--width N] [--patience N]\n\
                  [--cache tune-cache.json] [--top N] [--emit text|json]  (schedule search)\n\
       lint       <kernel> [--arch ...] [--prove] [--emit text|json]  (static analysis; kernel = gemm|gemm-db|mlp|lstm|layernorm|softmax|fmha;\n\
                  --prove appends the F2 symbolic proof report: conflict/race/bounds provenance)\n\
       serve      [--addr HOST:PORT] [--workers N] [--queue N] [--deadline-ms N] [--sync-tune-limit N]\n\
                  [--job-workers N] [--cache tune-cache.json] [--ready-file PATH]\n\
                  (persistent daemon: resident plan/trace/tune caches, newline-JSON over TCP)\n\
       client     [--addr HOST:PORT] <cmd> [kernel] [--options...] | --json '{...}'\n\
                  (send one request to a running daemon; exits nonzero on \"ok\":false)\n\
       table2     --arch sm70|sm86\n"
        .to_string()
}

/// Runs the CLI, returning the output text.
///
/// # Errors
///
/// Returns a user-facing error message for bad arguments or
/// un-lowerable kernels.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let cli = Cli::parse(args)?;
    match cli.command.as_str() {
        "gemm" | "mlp" | "lstm" | "layernorm" | "softmax" | "fmha" => {
            let (arch, kernel) = build_named_kernel(&cli, &cli.command)?;
            render(cli.emit()?, arch, &kernel)
        }
        "lint" => lint(&cli),
        "run" => exec_run(&cli),
        "run-graph" => run_graph(&cli),
        "tune" => tune_cmd(&cli),
        "serve" => serve_cmd(&cli),
        "client" => client_cmd(&cli),
        "table2" => {
            let arch = cli.arch()?;
            let mut out = String::new();
            let _ = writeln!(out, "atomic specifications for {arch}:");
            for a in graphene_ir::atomic::registry(arch) {
                let _ = writeln!(
                    out,
                    "  {:18} {:22} exec {:18} -> {}",
                    a.kind.name(),
                    a.name,
                    a.exec_local.to_string(),
                    a.ptx
                );
            }
            Ok(out)
        }
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(CliError(format!("unknown command `{other}`\n\n{}", usage()))),
    }
}

/// Builds the kernel a sub-command (or `lint` target) names by
/// delegating to the shared [`graphene_kernels::catalog`] — the same
/// front door the serve daemon uses, so both surfaces build identical
/// kernels from identical options by construction.
fn build_named_kernel(cli: &Cli, name: &str) -> Result<(Arch, Kernel), CliError> {
    let arch = cli.arch()?;
    let nk = graphene_kernels::catalog::build_named(name, arch, &cli.options).map_err(CliError)?;
    Ok((arch, nk.kernel))
}

/// The `lint` sub-command: run the full static-analysis pipeline of
/// `graphene-analysis` over a named kernel and render the diagnostics.
///
/// Returns `Err` when any error-severity diagnostic is present, so the
/// binary exits non-zero — this is what CI's lint-selfcheck keys on.
fn lint(cli: &Cli) -> Result<String, CliError> {
    let Some(name) = cli.positional.first() else {
        return Err(CliError(
            "lint needs a kernel name: lint <gemm|gemm-db|mlp|lstm|layernorm|softmax|fmha>".into(),
        ));
    };
    let (arch, kernel) = build_named_kernel(cli, name)?;
    let mut plans = graphene_sim::PlanCache::new();
    let diags = graphene_analysis::analyze_kernel_cached(&kernel, arch, &mut plans);
    let errors = graphene_analysis::error_count(&diags);
    let report = cli
        .flag("prove")
        .then(|| graphene_analysis::prove::prove_kernel_cached(&kernel, arch, &mut plans));
    let out = match cli.options.get("emit").map(String::as_str) {
        None | Some("text") => {
            let mut out = String::new();
            let _ = writeln!(
                out,
                "lint {} ({arch}): {} diagnostics, {errors} errors",
                kernel.name,
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
            let mut json = graphene_analysis::render_json(&kernel.name, &diags);
            if let Some(r) = &report {
                // Splice the proof object into the lint JSON document.
                let trimmed = json.trim_end().strip_suffix('}').map(str::to_string);
                json = trimmed.unwrap_or(json);
                json.push_str(&format!(",\"proof\":{}}}\n", r.render_json()));
            }
            json
        }
        Some(other) => return Err(CliError(format!("unknown emit `{other}` (text|json)"))),
    };
    if errors > 0 {
        Err(CliError(out))
    } else {
        Ok(out)
    }
}

/// The `run` sub-command: execute a kernel on the functional simulator
/// with seeded random inputs and report wall time, counters, and an
/// output checksum (identical across all three engines by construction).
fn exec_run(cli: &Cli) -> Result<String, CliError> {
    let Some(name) = cli.positional.first() else {
        return Err(CliError(
            "run needs a kernel name: run <gemm|gemm-db|mlp|lstm|layernorm|softmax|fmha>".into(),
        ));
    };
    let (arch, kernel) = build_named_kernel(cli, name)?;
    #[derive(PartialEq)]
    enum Engine {
        Reference,
        Plan(ExecMode),
        Replay,
    }
    let engine = match cli.options.get("exec").map(String::as_str) {
        None | Some("parallel") => Engine::Plan(ExecMode::Parallel),
        Some("sequential") => Engine::Plan(ExecMode::Sequential),
        Some("reference") => Engine::Reference,
        Some("replay") => Engine::Replay,
        Some(other) => {
            return Err(CliError(format!(
                "unknown exec mode `{other}` (reference|sequential|parallel|replay)"
            )))
        }
    };
    let plan = KernelPlan::compile(&kernel, arch).map_err(|e| CliError(e.to_string()))?;
    let mut inputs = HashMap::new();
    for (i, (id, _, len)) in plan.params().iter().enumerate() {
        inputs.insert(*id, HostTensor::random(&[*len], 1000 + i as u64).as_slice().to_vec());
    }
    let bindings = HashMap::new();
    // Replay: record once into a trace cache, then serve two replay
    // requests from it — the second cache lookup and the reported
    // hit/re-interpretation stats demonstrate the record-once contract.
    let mut trace_line = None;
    let mut opt_line = None;
    let mut cache_line = None;
    let start = std::time::Instant::now();
    let outcome = match &engine {
        Engine::Plan(m) => execute_plan(&plan, &inputs, &bindings, *m),
        Engine::Reference => execute_reference(&kernel, arch, &inputs),
        Engine::Replay => {
            let cache = TraceCache::new();
            let key = TraceKey {
                kernel: kernel.name.clone(),
                problem: format!("{} blocks x {} threads", plan.grid_size(), plan.block_size()),
                arch,
            };
            let t0 = std::time::Instant::now();
            let (trace, _) =
                cache.get_or_record(&key, &plan, &bindings).map_err(|e| CliError(e.to_string()))?;
            let record_ms = t0.elapsed().as_secs_f64() * 1e3;
            let st = trace.stats();
            trace_line = Some(format!(
                "trace    : {} steps, {} residual addresses in {} pattern entries, recorded in \
                 {record_ms:.3} ms",
                trace.num_steps(),
                st.gather_addrs,
                st.pattern_addrs
            ));
            opt_line = Some(opt_stats_line(st));
            let (trace, _) =
                cache.get_or_record(&key, &plan, &bindings).map_err(|e| CliError(e.to_string()))?;
            let first = replay_opt(&trace, &inputs);
            let second = replay_opt(&trace, &inputs);
            cache_line = Some(format!(
                "trace-cache : {} recording(s), {} hit(s), re-interpretations : {}",
                cache.recordings(),
                cache.hits(),
                cache.recordings().saturating_sub(1)
            ));
            first.and(second)
        }
    }
    .map_err(|e| CliError(e.to_string()))?;
    let wall = start.elapsed().as_secs_f64();
    let checksum: f64 =
        outcome.globals.values().flat_map(|buf| buf.iter()).map(|&x| f64::from(x)).sum();
    let c = &outcome.counters;
    let mut out = String::new();
    let _ = writeln!(out, "kernel   : {}", kernel.name);
    let _ = writeln!(
        out,
        "engine   : {}",
        match &engine {
            Engine::Reference => "reference interpreter",
            Engine::Plan(ExecMode::Sequential) => "compiled (sequential) interpreter",
            Engine::Plan(_) => "compiled (parallel) interpreter",
            Engine::Replay => "trace replay",
        }
    );
    let _ = writeln!(out, "launch   : {} blocks x {} threads", plan.grid_size(), plan.block_size());
    if let Some(l) = &trace_line {
        let _ = writeln!(out, "{l}");
    }
    if let Some(l) = &opt_line {
        let _ = writeln!(out, "{l}");
    }
    if let Some(l) = &cache_line {
        let _ = writeln!(out, "{l}");
    }
    let _ = writeln!(out, "wall     : {:.3} ms", wall * 1e3);
    let _ = writeln!(
        out,
        "counters : {} instructions, {} TC flops, {} FMA flops, {} syncs",
        c.instructions, c.flops_tc, c.flops_fma, c.syncs
    );
    let _ = writeln!(
        out,
        "traffic  : {} B global read, {} B global written, {} smem transactions",
        c.global_read_bytes, c.global_write_bytes, c.smem_transactions
    );
    let _ = writeln!(out, "checksum : {checksum:.6}");
    Ok(out)
}

/// Renders one trace-optimizer stats line (`run --exec replay` and
/// `run-graph --exec replay` share the format).
fn opt_stats_line(st: &OptStats) -> String {
    format!(
        "trace-opt : {:.1}% coalesced, {} -> {} trace bytes ({:.1}% smaller), {} -> {} steps ({} dead fills, {} fused)",
        st.coalesced_fraction() * 100.0,
        st.bytes_before,
        st.bytes_after,
        st.bytes_saved_fraction() * 100.0,
        st.steps_before,
        st.steps_after,
        st.dead_fills,
        st.fused_steps
    )
}

/// The `run-graph` sub-command: build a transformer encoder graph,
/// lower it to an executable kernel sequence sharing one liveness-
/// planned arena, and run it end to end — either through the
/// compiled-plan engine or through whole-graph trace replay (which
/// additionally cross-checks the replayed output against the plan
/// engine bit-for-bit).
fn run_graph(cli: &Cli) -> Result<String, CliError> {
    use graphene_kernels::catalog::EncoderDims;
    use graphene_kernels::exec_lower::{lower_executable, ExecLowering};

    let dims = EncoderDims::from_options(&cli.options).map_err(CliError)?;
    let arch = cli.arch()?;
    let lowering = match cli.options.get("lowering").map(String::as_str) {
        None | Some("fused") => ExecLowering::Fused,
        Some("default") => ExecLowering::Default,
        Some(other) => return Err(CliError(format!("unknown lowering `{other}` (default|fused)"))),
    };
    let replay_engine = match cli.options.get("exec").map(String::as_str) {
        None | Some("plan") => false,
        Some("replay") => true,
        Some(other) => return Err(CliError(format!("unknown exec mode `{other}` (plan|replay)"))),
    };
    let json = match cli.options.get("emit").map(String::as_str) {
        None | Some("text") => false,
        Some("json") => true,
        Some(other) => return Err(CliError(format!("unknown emit `{other}` (text|json)"))),
    };

    let graph = dims.graph();
    let eg = lower_executable(&graph, arch, lowering).map_err(CliError)?;
    let ws = eg.workspace();

    let mut inputs = HashMap::new();
    for (i, (name, len)) in eg.externals().iter().enumerate() {
        inputs
            .insert(name.clone(), HostTensor::random(&[*len], 1000 + i as u64).as_slice().to_vec());
    }

    let checksum = |o: &GraphOutcomeOutputs| -> f64 {
        let mut temps: Vec<_> = o.iter().collect();
        temps.sort_by_key(|(t, _)| **t);
        temps.iter().flat_map(|(_, buf)| buf.iter()).map(|&x| f64::from(x)).sum()
    };

    // Execute first, collecting everything both renderings need; the
    // replay path also captures cache counters and the bit-comparison.
    struct ReplayInfo {
        kernels: usize,
        steps: usize,
        record_ms: f64,
        replay_ms: f64,
        graph_stats: (u64, u64, u64),
        trace_stats: (u64, u64),
        opt: OptStats,
        same: bool,
    }
    let start = std::time::Instant::now();
    let (outcome, replay_info) = if replay_engine {
        let traces = TraceCache::new();
        let graphs = GraphTraceCache::new();
        let t0 = std::time::Instant::now();
        graphs.get_or_record(&eg, &traces).map_err(|e| CliError(e.to_string()))?;
        let record_ms = t0.elapsed().as_secs_f64() * 1e3;
        // A second request must come back from the cache: the printed
        // hit count is the record-once contract made visible.
        let gt = graphs.get_or_record(&eg, &traces).map_err(|e| CliError(e.to_string()))?;
        let t1 = std::time::Instant::now();
        let replayed =
            replay_graph(&gt, &inputs, ExecMode::Parallel).map_err(|e| CliError(e.to_string()))?;
        let replay_ms = t1.elapsed().as_secs_f64() * 1e3;
        let plan_out =
            execute_graph(&eg, &inputs, ExecMode::Parallel).map_err(|e| CliError(e.to_string()))?;
        let same = {
            let b = |o: &GraphOutcomeOutputs| -> Vec<Vec<u32>> {
                let mut v: Vec<_> = o
                    .iter()
                    .map(|(t, xs)| (*t, xs.iter().map(|x| x.to_bits()).collect::<Vec<u32>>()))
                    .collect();
                v.sort_by_key(|(t, _)| *t);
                v.into_iter().map(|(_, bits)| bits).collect()
            };
            b(&replayed.outputs) == b(&plan_out.outputs)
        };
        let info = ReplayInfo {
            kernels: gt.num_kernels(),
            steps: gt.num_steps(),
            record_ms,
            replay_ms,
            graph_stats: (graphs.recordings(), graphs.hits(), graphs.evictions()),
            trace_stats: (traces.recordings(), traces.hits()),
            opt: gt.opt_stats(),
            same,
        };
        (replayed, Some(info))
    } else {
        let outcome =
            execute_graph(&eg, &inputs, ExecMode::Parallel).map_err(|e| CliError(e.to_string()))?;
        (outcome, None)
    };
    let wall = start.elapsed().as_secs_f64();
    let c = &outcome.counters;
    let sum = checksum(&outcome.outputs);
    let diverged = replay_info.as_ref().is_some_and(|r| !r.same);

    let out = if json {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"graph\":{},\
             \"lowering\":{{\"mode\":\"{}\",\"launches\":{}}},\
             \"arena\":{{\"planned_bytes\":{},\"naive_bytes\":{},\"saving\":{:.4}}},\
             \"engine\":\"{}\",",
            dims.to_json(graph.ops.len()),
            lowering.label(),
            eg.nodes.len(),
            ws.arena_bytes(),
            ws.naive_bytes(),
            ws.saving(),
            if replay_engine { "replay" } else { "plan" },
        );
        if let Some(r) = &replay_info {
            let _ = write!(
                out,
                "\"trace\":{{\"kernels\":{},\"steps\":{},\"record_ms\":{:.3},\"replay_ms\":{:.3}}},\
                 \"trace_opt\":{{\"coalesced_fraction\":{:.4},\"bytes_before\":{},\
                 \"bytes_after\":{},\"steps_before\":{},\"steps_after\":{},\
                 \"dead_fills\":{},\"fused_steps\":{}}},\
                 \"graph_cache\":{{\"recordings\":{},\"hits\":{},\"evictions\":{}}},\
                 \"trace_cache\":{{\"recordings\":{},\"hits\":{}}},\
                 \"plan_vs_replay\":\"{}\",",
                r.kernels,
                r.steps,
                r.record_ms,
                r.replay_ms,
                r.opt.coalesced_fraction(),
                r.opt.bytes_before,
                r.opt.bytes_after,
                r.opt.steps_before,
                r.opt.steps_after,
                r.opt.dead_fills,
                r.opt.fused_steps,
                r.graph_stats.0,
                r.graph_stats.1,
                r.graph_stats.2,
                r.trace_stats.0,
                r.trace_stats.1,
                if r.same { "match" } else { "mismatch" },
            );
        }
        let _ = writeln!(
            out,
            "\"wall_ms\":{:.3},\"counters\":{{\"instructions\":{},\"flops_tc\":{},\
             \"flops_fma\":{},\"syncs\":{}}},\"checksum\":{sum:.6}}}",
            wall * 1e3,
            c.instructions,
            c.flops_tc,
            c.flops_fma,
            c.syncs,
        );
        out
    } else {
        let mut out = String::new();
        let EncoderDims { layers, batch, seq, hidden, heads, ffn } = dims;
        let _ = writeln!(
            out,
            "graph    : {layers}-layer encoder ({} ops), batch {batch}, seq {seq}, hidden {hidden}, {heads} heads, ffn {ffn}",
            graph.ops.len()
        );
        let _ =
            writeln!(out, "lowering : {} ({} kernel launches)", lowering.label(), eg.nodes.len());
        let _ = writeln!(
            out,
            "arena    : {} B planned vs {} B naive ({:.1}% saved)",
            ws.arena_bytes(),
            ws.naive_bytes(),
            ws.saving() * 100.0
        );
        if let Some(r) = &replay_info {
            let _ = writeln!(
                out,
                "trace    : {} kernels, {} steps, recorded in {:.3} ms",
                r.kernels, r.steps, r.record_ms
            );
            let _ = writeln!(out, "{}", opt_stats_line(&r.opt));
            let _ = writeln!(
                out,
                "graph-cache : {} recording(s), {} hit(s), evictions : {}",
                r.graph_stats.0, r.graph_stats.1, r.graph_stats.2
            );
            let _ = writeln!(
                out,
                "trace-cache : {} recording(s), {} hit(s)",
                r.trace_stats.0, r.trace_stats.1
            );
            let _ = writeln!(out, "engine   : graph trace replay ({:.3} ms replay)", r.replay_ms);
            let _ = writeln!(out, "plan-vs-replay : {}", if r.same { "match" } else { "MISMATCH" });
        } else {
            let _ = writeln!(out, "engine   : compiled-plan graph executor");
        }
        let _ = writeln!(out, "wall     : {:.3} ms", wall * 1e3);
        let _ = writeln!(
            out,
            "counters : {} instructions, {} TC flops, {} FMA flops, {} syncs",
            c.instructions, c.flops_tc, c.flops_fma, c.syncs
        );
        let _ = writeln!(out, "checksum : {sum:.6}");
        out
    };
    if diverged {
        return Err(CliError(format!("replay diverged from plan execution\n{out}")));
    }
    Ok(out)
}

/// Output map of a graph execution, keyed by temp index.
type GraphOutcomeOutputs = HashMap<usize, Vec<f32>>;

/// The `tune` sub-command: a thin veneer over the `graphene-tune`
/// subsystem. Builds the requested [`SearchSpace`], runs the chosen
/// strategy through the prune → cost pipeline (consulting the
/// persistent tuning database when `--cache` is given), and renders the
/// winner with its pipeline accounting.
fn tune_cmd(cli: &Cli) -> Result<String, CliError> {
    use graphene_tune::{Search, TuneDb};

    let arch = cli.arch()?;
    let kernel = cli
        .options
        .get("kernel")
        .map(String::as_str)
        .or_else(|| cli.positional.first().map(String::as_str))
        .unwrap_or("gemm");
    // Space, strategy, and knob validation all live in the shared tune
    // catalog — the daemon's `tune` requests go through the same path.
    let space =
        graphene_tune::catalog::space_from_options(kernel, arch, &cli.options).map_err(CliError)?;
    let opts = graphene_tune::catalog::options_from_options(&cli.options).map_err(CliError)?;

    let mut db = cli.options.get("cache").map(TuneDb::load);
    let report = graphene_tune::tune(space.as_ref(), &opts, db.as_mut())
        .map_err(|e| CliError(e.to_string()))?;
    // The hand-picked default, for the speedup line. Skipped on a cache
    // hit: a warm run performs zero simulations, which is the point.
    let default_time_s = if report.stats.db_hit {
        None
    } else {
        let d = space.build(&space.default_point());
        analyze(&d, space.arch())
            .ok()
            .map(|c| time_kernel(&c, machine_for(space.arch()), d.grid_size()).time_s)
    };

    match cli.options.get("emit").map(String::as_str) {
        None | Some("text") => {
            let mut out = String::new();
            let _ = writeln!(
                out,
                "tuned {} {} on {arch} ({})",
                report.space,
                report.problem,
                match opts.search {
                    Search::Exhaustive => "exhaustive".to_string(),
                    Search::Random { samples, .. } => format!("random, {samples} samples"),
                    Search::Beam { width, .. } => format!("beam, width {width}"),
                },
            );
            let _ = writeln!(out, "winner   : {}", report.best_desc);
            match default_time_s {
                Some(d) if d > 0.0 => {
                    let _ = writeln!(
                        out,
                        "time     : {:.3} us (default {:.3} us, {:.2}x)",
                        report.best_time_s * 1e6,
                        d * 1e6,
                        d / report.best_time_s
                    );
                }
                _ => {
                    let _ = writeln!(out, "time     : {:.3} us", report.best_time_s * 1e6);
                }
            }
            let s = &report.stats;
            let _ = writeln!(
                out,
                "pipeline : {} proposed, {} pruned (constraint), {} pruned (analysis), {} simulated",
                s.proposed, s.pruned_constraint, s.pruned_analysis, s.simulated
            );
            if db.is_some() {
                let _ = writeln!(out, "cache    : {}", if s.db_hit { "hit" } else { "miss" });
            }
            if !report.leaderboard.is_empty() {
                let _ = writeln!(out, "leaderboard:");
                for c in &report.leaderboard {
                    let _ = writeln!(
                        out,
                        "  {:9.3} us  {}",
                        c.profile.time_s * 1e6,
                        space.describe(&c.point)
                    );
                }
            }
            Ok(out)
        }
        Some("json") => {
            let point_json = |p: &graphene_tune::Point| {
                space
                    .params()
                    .iter()
                    .zip(&p.0)
                    .map(|(d, v)| format!("\"{}\":{v}", d.name))
                    .collect::<Vec<_>>()
                    .join(",")
            };
            let s = &report.stats;
            let mut out = String::new();
            let _ = write!(
                out,
                "{{\"kernel\":\"{}\",\"problem\":\"{}\",\"arch\":\"{arch:?}\",\
                 \"winner\":{{\"point\":{{{}}},\"time_s\":{}}},",
                report.space,
                report.problem,
                point_json(&report.best_point),
                report.best_time_s,
            );
            if let Some(d) = default_time_s {
                let _ = write!(out, "\"default_time_s\":{d},");
            }
            let _ = write!(
                out,
                "\"stats\":{{\"proposed\":{},\"pruned_constraint\":{},\"pruned_analysis\":{},\
                 \"simulated\":{},\"db_hit\":{}}},",
                s.proposed, s.pruned_constraint, s.pruned_analysis, s.simulated, s.db_hit
            );
            let lb = report
                .leaderboard
                .iter()
                .map(|c| {
                    format!(
                        "{{\"point\":{{{}}},\"time_s\":{}}}",
                        point_json(&c.point),
                        c.profile.time_s
                    )
                })
                .collect::<Vec<_>>()
                .join(",");
            let _ = writeln!(out, "\"leaderboard\":[{lb}]}}");
            Ok(out)
        }
        Some(other) => Err(CliError(format!("unknown emit `{other}` (text|json)"))),
    }
}

fn render(emit: Emit, arch: Arch, kernel: &Kernel) -> Result<String, CliError> {
    graphene_ir::validate::validate(kernel, arch)
        .map_err(|ds| CliError(format!("kernel does not validate: {}", ds[0])))?;
    match emit {
        Emit::Ir => Ok(kernel.to_string()),
        Emit::Cuda => graphene_codegen::generate(kernel, arch).map_err(|e| CliError(e.to_string())),
        Emit::Profile => {
            let c = analyze(kernel, arch).map_err(|e| CliError(e.to_string()))?;
            let machine = machine_for(arch);
            let p = time_kernel(&c, machine, kernel.grid_size());
            let mut out = String::new();
            let _ = writeln!(out, "kernel   : {}", kernel.name);
            let _ = writeln!(out, "machine  : {} ({arch})", machine.name);
            let _ = writeln!(
                out,
                "launch   : {} blocks x {} threads, {} B smem/block",
                kernel.grid_size(),
                kernel.block_size(),
                kernel.shared_bytes()
            );
            let _ = writeln!(out, "time     : {:.3} us", p.time_s * 1e6);
            let _ = writeln!(
                out,
                "compute  : {:.1}% of peak ({} TC flops, {} FMA flops)",
                p.compute_util * 100.0,
                c.flops_tc,
                c.flops_fma
            );
            let _ = writeln!(
                out,
                "dram     : {:.1}% of peak ({} B unique, {} B via L2)",
                p.dram_util * 100.0,
                c.dram_bytes(),
                c.l2_bytes()
            );
            let _ = writeln!(
                out,
                "smem     : {} B read, {} B written, conflict factor {:.2}",
                c.smem_read_bytes,
                c.smem_write_bytes,
                c.conflict_factor()
            );
            let _ = writeln!(
                out,
                "roofs    : tensor {:.1} us | fma {:.1} us | dram {:.1} us | l2 {:.1} us | smem {:.1} us",
                p.tensor_time_s * 1e6,
                p.fma_time_s * 1e6,
                p.dram_time_s * 1e6,
                p.l2_time_s * 1e6,
                p.smem_time_s * 1e6
            );
            Ok(out)
        }
    }
}

/// The `serve` sub-command: run the persistent daemon until it drains
/// (a `shutdown` request, SIGINT, or SIGTERM).
///
/// The listening address is printed (and flushed) *before* the server
/// blocks so scripts can scrape it; `--ready-file PATH` additionally
/// writes the address to a file once the socket is bound, which is
/// race-free for harnesses that start the daemon in the background.
fn serve_cmd(cli: &Cli) -> Result<String, CliError> {
    let opts = graphene_serve::ServeOptions {
        addr: cli.options.get("addr").cloned().unwrap_or_else(|| "127.0.0.1:7474".to_string()),
        workers: usize::try_from(cli.int("workers", 4)?.max(1)).unwrap_or(4),
        queue_cap: usize::try_from(cli.int("queue", 64)?.max(1)).unwrap_or(64),
        deadline_ms: u64::try_from(cli.int("deadline-ms", 5000)?.max(0)).unwrap_or(5000),
        sync_tune_limit: usize::try_from(
            cli.int("sync-tune-limit", graphene_serve::state::DEFAULT_SYNC_TUNE_LIMIT as i64)?
                .max(0),
        )
        .unwrap_or(graphene_serve::state::DEFAULT_SYNC_TUNE_LIMIT),
        job_workers: usize::try_from(cli.int("job-workers", 1)?.max(1)).unwrap_or(1),
        cache: cli.options.get("cache").cloned(),
    };
    graphene_serve::install_signal_handlers();
    let server = graphene_serve::Server::bind(opts)
        .map_err(|e| CliError(format!("serve: bind failed: {e}")))?;
    let addr =
        server.local_addr().map_err(|e| CliError(format!("serve: no local address: {e}")))?;
    println!("graphene-serve listening on {addr}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    if let Some(path) = cli.options.get("ready-file") {
        std::fs::write(path, format!("{addr}\n"))
            .map_err(|e| CliError(format!("serve: cannot write ready file `{path}`: {e}")))?;
    }
    server.run().map_err(|e| CliError(format!("serve: {e}")))?;
    Ok("graphene-serve drained\n".to_string())
}

/// The `client` sub-command: send one request line to a running daemon
/// and print the response. The request is either built from the
/// command line (`client run gemm --m 256 ...` — the first positional
/// is the protocol `cmd`, the second the `kernel`) or passed verbatim
/// via `--json '{...}'`. A response carrying `"ok":false` is returned
/// as an error so the process exits nonzero.
fn client_cmd(cli: &Cli) -> Result<String, CliError> {
    let addr = cli.options.get("addr").map_or("127.0.0.1:7474", String::as_str);
    let timeout_s = cli.int("timeout", 120)?.max(1);
    let line = if let Some(raw) = cli.options.get("json") {
        raw.clone()
    } else {
        let Some(cmd) = cli.positional.first() else {
            return Err(CliError(
                "client: expected a protocol command (lint|run|run-graph|tune|poll|cancel|stats|shutdown) or --json".to_string(),
            ));
        };
        let mut fields = vec![format!("\"cmd\":\"{}\"", graphene_tune::json::escape(cmd))];
        if let Some(kernel) = cli.positional.get(1) {
            fields.push(format!("\"kernel\":\"{}\"", graphene_tune::json::escape(kernel)));
        }
        // Every remaining `--key value` forwards as a protocol field;
        // client-side transport options stay local. Integers go over
        // the wire as numbers, everything else as strings — the server
        // stringifies scalars anyway, so this only affects readability.
        let mut opts: Vec<_> = cli
            .options
            .iter()
            .filter(|(k, _)| !matches!(k.as_str(), "addr" | "timeout" | "json"))
            .collect();
        opts.sort();
        for (k, v) in opts {
            let key = graphene_tune::json::escape(k);
            if v.parse::<i64>().is_ok() || v == "true" || v == "false" {
                fields.push(format!("\"{key}\":{v}"));
            } else {
                fields.push(format!("\"{key}\":\"{}\"", graphene_tune::json::escape(v)));
            }
        }
        format!("{{{}}}", fields.join(","))
    };
    let resp = graphene_serve::client::request(
        addr,
        &line,
        std::time::Duration::from_secs(u64::try_from(timeout_s).unwrap_or(120)),
    )
    .map_err(|e| CliError(format!("client: {addr}: {e}")))?;
    if resp.contains("\"ok\":false") {
        return Err(CliError(resp));
    }
    Ok(format!("{resp}\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(s: &str) -> Result<String, CliError> {
        let args: Vec<String> = s.split_whitespace().map(String::from).collect();
        run(&args)
    }

    #[test]
    fn gemm_profile() {
        let out = run_str("gemm --arch sm86 --m 1024 --n 1024 --k 512").unwrap();
        assert!(out.contains("machine  : RTX A6000"));
        assert!(out.contains("compute  :"));
    }

    #[test]
    fn gemm_cuda_emission() {
        let out = run_str("gemm --arch sm86 --m 256 --n 256 --k 32 --emit cuda").unwrap();
        assert!(out.contains("__global__ void graphene_gemm_sm86_gemm"));
        assert!(out.contains("ldmatrix"));
    }

    #[test]
    fn gemm_ir_emission() {
        let out = run_str("gemm --arch sm70 --m 256 --n 256 --k 32 --emit ir").unwrap();
        assert!(out.contains("MatMul <<<"));
        assert!(out.contains(".fp16.GL"));
    }

    #[test]
    fn epilogue_parsing() {
        let out = run_str("gemm --m 256 --n 256 --k 32 --epilogue bias+relu --emit cuda").unwrap();
        assert!(out.contains("bias"));
        assert!(run_str("gemm --epilogue nope").is_err());
    }

    #[test]
    fn other_kernels() {
        assert!(run_str("layernorm --rows 64 --hidden 512").unwrap().contains("time"));
        assert!(run_str("softmax --rows 64 --cols 512").unwrap().contains("time"));
        assert!(run_str("mlp --m 512 --layers 3").unwrap().contains("time"));
        assert!(run_str("lstm --m 512").unwrap().contains("time"));
        assert!(run_str("table2 --arch sm70").unwrap().contains("mma.m8n8k4"));
    }

    #[test]
    fn bad_inputs_reported() {
        assert!(run_str("gemm --m 100 --n 100 --k 100").is_err());
        assert!(run_str("frobnicate").unwrap_err().0.contains("unknown command"));
        assert!(run_str("gemm --m").is_err());
        assert!(Cli::parse(&[]).is_err());
    }
}

#[cfg(test)]
mod lint_tests {
    use super::*;

    fn run_str(s: &str) -> Result<String, CliError> {
        let args: Vec<String> = s.split_whitespace().map(String::from).collect();
        run(&args)
    }

    #[test]
    fn lint_clean_kernel_succeeds() {
        let out = run_str("lint gemm --m 256 --n 256 --k 64").unwrap();
        assert!(out.contains("0 errors"), "{out}");
    }

    #[test]
    fn lint_emits_json_with_equals_syntax() {
        // The exact invocation shape CI's lint-selfcheck uses.
        let out = run_str("lint gemm --m 256 --n 256 --k 64 --emit=json").unwrap();
        assert!(out.contains("\"kernel\""), "{out}");
        assert!(out.contains("\"errors\":0"), "{out}");
    }

    #[test]
    fn lint_covers_every_paper_kernel() {
        let cases = [
            ("gemm-db", "--m 256 --n 256 --k 64"),
            ("mlp", "--m 256 --layers 2"),
            ("lstm", "--m 256"),
            ("layernorm", "--rows 64 --hidden 512"),
            ("softmax", "--rows 64 --cols 512"),
            ("fmha", ""),
        ];
        for (name, opts) in cases {
            let out = run_str(&format!("lint {name} {opts}"))
                .unwrap_or_else(|e| panic!("lint {name} failed: {e}"));
            assert!(out.contains("0 errors"), "{name}: {out}");
        }
    }

    #[test]
    fn lint_prove_reports_proven_provenance() {
        let out = run_str("lint gemm --m 256 --n 256 --k 64 --prove").unwrap();
        assert!(
            out.contains("proof (F2 symbolic): conflicts proven free, bounds proven in-bounds"),
            "{out}"
        );
        assert!(out.contains("proven"), "{out}");
        assert!(!out.contains("[sampled]"), "{out}");
        assert!(out.contains("races:"), "{out}");
        assert!(out.contains("0 sampled"), "{out}");
    }

    #[test]
    fn lint_prove_json_embeds_proof_object() {
        let out = run_str("lint gemm --m 256 --n 256 --k 64 --prove --emit=json").unwrap();
        assert!(out.contains("\"proof\":{"), "{out}");
        assert!(out.contains("\"conflicts_proven_free\":true"), "{out}");
        assert!(out.contains("\"all_proven\":true"), "{out}");
        assert!(out.contains("\"bounds_clean\":true"), "{out}");
        assert!(out.contains("\"provenance\":\"proven-"), "{out}");
    }

    #[test]
    fn bare_flags_parse_at_end_and_before_options() {
        let a = Cli::parse(&["lint".into(), "gemm".into(), "--prove".into()]).unwrap();
        assert!(a.flag("prove"));
        let b = Cli::parse(&[
            "lint".into(),
            "gemm".into(),
            "--prove".into(),
            "--m".into(),
            "64".into(),
        ])
        .unwrap();
        assert!(b.flag("prove"));
        assert_eq!(b.options.get("m").map(String::as_str), Some("64"));
    }

    #[test]
    fn lint_rejects_unknown_kernel_and_missing_name() {
        assert!(run_str("lint frobnicate").unwrap_err().0.contains("unknown kernel"));
        assert!(run_str("lint").unwrap_err().0.contains("kernel name"));
        assert!(run_str("lint gemm --emit=yaml").unwrap_err().0.contains("unknown emit"));
    }

    #[test]
    fn equals_and_space_option_forms_are_equivalent() {
        let a = Cli::parse(&["gemm".into(), "--m".into(), "512".into()]).unwrap();
        let b = Cli::parse(&["gemm".into(), "--m=512".into()]).unwrap();
        assert_eq!(a.options.get("m"), b.options.get("m"));
    }
}

#[cfg(test)]
mod run_tests {
    use super::*;

    fn run_str(s: &str) -> Result<String, CliError> {
        let args: Vec<String> = s.split_whitespace().map(String::from).collect();
        run(&args)
    }

    #[test]
    fn run_executes_all_modes_with_matching_checksums() {
        let checksum = |out: &str| {
            out.lines()
                .find_map(|l| l.strip_prefix("checksum : "))
                .map(str::to_owned)
                .expect("checksum line")
        };
        let base = "run gemm --m 128 --n 128 --k 32";
        let par = run_str(&format!("{base} --exec parallel")).unwrap();
        let seq = run_str(&format!("{base} --exec sequential")).unwrap();
        let reference = run_str(&format!("{base} --exec reference")).unwrap();
        assert!(par.contains("compiled (parallel)"), "{par}");
        assert!(seq.contains("compiled (sequential)"), "{seq}");
        assert!(reference.contains("reference interpreter"), "{reference}");
        assert_eq!(checksum(&par), checksum(&seq));
        assert_eq!(checksum(&par), checksum(&reference));
    }

    #[test]
    fn run_rejects_bad_mode_and_missing_kernel() {
        assert!(run_str("run gemm --exec warp-speed").unwrap_err().0.contains("exec mode"));
        assert!(run_str("run").unwrap_err().0.contains("kernel name"));
    }

    /// `run --exec replay` records once, replays from the trace cache,
    /// and its checksum matches the interpreting engines.
    #[test]
    fn run_replay_matches_and_reports_cache() {
        let checksum = |out: &str| {
            out.lines()
                .find_map(|l| l.strip_prefix("checksum : "))
                .map(str::to_owned)
                .expect("checksum line")
        };
        let base = "run gemm --m 128 --n 128 --k 32";
        let seq = run_str(&format!("{base} --exec sequential")).unwrap();
        let rep = run_str(&format!("{base} --exec replay")).unwrap();
        assert!(rep.contains("engine   : trace replay"), "{rep}");
        assert!(rep.contains("trace    : "), "{rep}");
        assert!(rep.contains("1 recording(s)"), "{rep}");
        assert!(rep.contains("1 hit(s)"), "{rep}");
        assert!(rep.contains("re-interpretations : 0"), "{rep}");
        assert_eq!(checksum(&seq), checksum(&rep));
    }
}

#[cfg(test)]
mod run_graph_tests {
    use super::*;

    fn run_str(s: &str) -> Result<String, CliError> {
        let args: Vec<String> = s.split_whitespace().map(String::from).collect();
        run(&args)
    }

    const SMALL: &str = "--layers 1 --seq 64 --hidden 256 --heads 4 --ffn 256";

    #[test]
    fn run_graph_plan_and_replay_agree_and_report_arena() {
        let checksum = |out: &str| {
            out.lines()
                .find_map(|l| l.strip_prefix("checksum : "))
                .map(str::to_owned)
                .expect("checksum line")
        };
        let plan = run_str(&format!("run-graph {SMALL} --exec plan")).unwrap();
        assert!(plan.contains("compiled-plan graph executor"), "{plan}");
        assert!(plan.contains("arena    : "), "{plan}");
        assert!(plan.contains("% saved)"), "{plan}");

        let rep = run_str(&format!("run-graph {SMALL} --exec replay")).unwrap();
        assert!(rep.contains("graph trace replay"), "{rep}");
        assert!(rep.contains("graph-cache : 1 recording(s), 1 hit(s)"), "{rep}");
        assert!(rep.contains("plan-vs-replay : match"), "{rep}");
        assert_eq!(checksum(&plan), checksum(&rep));
    }

    #[test]
    fn run_graph_lowerings_match_bitwise_via_checksum() {
        let checksum = |out: &str| {
            out.lines()
                .find_map(|l| l.strip_prefix("checksum : "))
                .map(str::to_owned)
                .expect("checksum line")
        };
        let fused = run_str(&format!("run-graph {SMALL} --lowering fused")).unwrap();
        let def = run_str(&format!("run-graph {SMALL} --lowering default")).unwrap();
        assert!(fused.contains("lowering : fused"), "{fused}");
        assert!(def.contains("lowering : default"), "{def}");
        assert_eq!(checksum(&fused), checksum(&def));
    }

    #[test]
    fn run_graph_rejects_bad_flags_and_shapes() {
        assert!(run_str("run-graph --exec warp-speed").unwrap_err().0.contains("exec mode"));
        assert!(run_str("run-graph --lowering manual").unwrap_err().0.contains("lowering"));
        // hidden not divisible by 256: layernorm schedule can't lower it.
        assert!(run_str("run-graph --hidden 192 --seq 64").is_err());
    }
}

#[cfg(test)]
mod tune_tests {
    fn run_str(s: &str) -> Result<String, super::CliError> {
        let args: Vec<String> = s.split_whitespace().map(String::from).collect();
        super::run(&args)
    }

    #[test]
    fn tune_gemm_defaults_to_gemm_and_reports_pipeline() {
        let out =
            run_str("tune --m 512 --n 512 --k 256 --search random --samples 12 --top 3").unwrap();
        assert!(out.contains("tuned gemm m512_n512_k256_gemm"), "{out}");
        assert!(out.contains("winner   : bm="), "{out}");
        assert!(out.contains("pipeline :"), "{out}");
        assert!(out.contains("leaderboard:"), "{out}");
    }

    #[test]
    fn tune_layernorm_emits_json() {
        let out = run_str("tune --kernel layernorm --rows 512 --hidden 1024 --emit json").unwrap();
        assert!(out.contains("\"kernel\":\"layernorm\""), "{out}");
        assert!(out.contains("\"rows_per_block\":"), "{out}");
        assert!(out.contains("\"db_hit\":false"), "{out}");
        assert!(out.contains("\"default_time_s\":"), "{out}");
    }

    #[test]
    fn tune_cache_round_trip_serves_second_run_without_simulation() {
        let path = std::env::temp_dir()
            .join(format!("graphene-cli-tune-test-{}.json", std::process::id()));
        std::fs::remove_file(&path).ok();
        let cmd = format!(
            "tune --kernel layernorm --rows 512 --hidden 1024 --cache {} --emit json",
            path.display()
        );
        let cold = run_str(&cmd).unwrap();
        assert!(cold.contains("\"db_hit\":false"), "{cold}");
        let warm = run_str(&cmd).unwrap();
        assert!(warm.contains("\"db_hit\":true"), "{warm}");
        assert!(warm.contains("\"simulated\":0"), "{warm}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tune_failures_are_errors_not_panics() {
        // Untileable problem: every candidate pruned -> nonzero exit.
        let err = run_str("tune --m 17 --n 17 --k 17").unwrap_err();
        assert!(err.0.contains("no legal candidate"), "{}", err.0);
        assert!(run_str("tune --kernel frobnicate").unwrap_err().0.contains("unknown tunable"));
        assert!(run_str("tune --search quantum").unwrap_err().0.contains("unknown search"));
        assert!(run_str("tune --budget -3").unwrap_err().0.contains("non-negative"));
        assert!(run_str("tune --top 0").unwrap_err().0.contains("--top"));
    }

    /// Negative strategy knobs used to wrap through `as usize` into
    /// astronomically large counts; now they are one-line errors.
    #[test]
    fn tune_rejects_negative_strategy_knobs() {
        let err = run_str("tune --search random --samples -1").unwrap_err();
        assert!(err.0.contains("--samples must be at least 1"), "{}", err.0);
        let err = run_str("tune --search beam --width -2").unwrap_err();
        assert!(err.0.contains("--width must be at least 1"), "{}", err.0);
        let err = run_str("tune --search beam --patience 0").unwrap_err();
        assert!(err.0.contains("--patience must be at least 1"), "{}", err.0);
        let err = run_str("tune --search random --seed -7").unwrap_err();
        assert!(err.0.contains("--seed must be non-negative"), "{}", err.0);
    }

    /// Spawns an in-process daemon on an ephemeral port and drives it
    /// with the `client` sub-command — the same path `graphene client`
    /// takes against `graphene serve`.
    #[test]
    fn client_round_trips_against_a_live_daemon() {
        let server = graphene_serve::Server::bind(graphene_serve::ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            ..Default::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || server.run());

        let out =
            run_str(&format!("client --addr {addr} run gemm --m 256 --n 256 --k 64 --exec replay"))
                .unwrap();
        assert!(out.contains("\"ok\":true"), "{out}");
        assert!(out.contains("\"trace_hit\":false"), "{out}");
        let warm =
            run_str(&format!("client --addr {addr} run gemm --m 256 --n 256 --k 64 --exec replay"))
                .unwrap();
        assert!(warm.contains("\"trace_hit\":true"), "{warm}");

        // Raw --json passthrough.
        let raw = super::run(&[
            "client".to_string(),
            "--addr".to_string(),
            addr.clone(),
            "--json".to_string(),
            r#"{"cmd":"stats"}"#.to_string(),
        ])
        .unwrap();
        assert!(raw.contains("\"caches\""), "{raw}");

        // A failing request comes back as Err, so the binary exits
        // nonzero.
        let err = run_str(&format!("client --addr {addr} frobnicate")).unwrap_err();
        assert!(err.0.contains("unknown cmd"), "{}", err.0);

        run_str(&format!("client --addr {addr} shutdown")).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn client_requires_a_command_or_json() {
        let err = run_str("client --addr 127.0.0.1:1").unwrap_err();
        assert!(err.0.contains("expected a protocol command"), "{}", err.0);
    }
}

#[cfg(test)]
mod robustness_tests {
    fn run_str(s: &str) -> Result<String, super::CliError> {
        let args: Vec<String> = s.split_whitespace().map(String::from).collect();
        super::run(&args)
    }

    #[test]
    fn invalid_shapes_error_instead_of_panicking() {
        assert!(run_str("layernorm --hidden 100").unwrap_err().0.contains("multiple of 256"));
        assert!(run_str("layernorm --rows 3").unwrap_err().0.contains("multiple of 4"));
        assert!(run_str("softmax --cols 100").unwrap_err().0.contains("multiple of 256"));
        assert!(run_str("fmha --seq 100").unwrap_err().0.contains("seq"));
    }

    #[test]
    fn fmha_rejects_volta_explicitly() {
        let err = run_str("fmha --arch sm70").unwrap_err();
        assert!(err.0.contains("Ampere"), "{}", err.0);
    }
}
