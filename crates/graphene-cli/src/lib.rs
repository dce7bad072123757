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
//! graphene run gemm --m 256 --n 256 --k 64 --exec replay
//! graphene table2 --arch sm86
//! ```
//!
//! `lint`, `run`, `run-graph` and `tune` have one implementation, the
//! serve daemon's: a one-shot builds the request `graphene client`
//! would send and dispatches it on a fresh in-process
//! [`graphene_serve::ServerState`], so both front doors answer alike by
//! construction.

#![warn(missing_docs)]

use graphene_ir::{Arch, Kernel};
use graphene_kernels::catalog;
use graphene_serve::ServerState;
use graphene_sim::{analyze, machine_for, time_kernel};
use graphene_tune::json::{escape, parse, Json};
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
        catalog::opt_arch(&self.options).map_err(CliError)
    }

    fn emit(&self) -> Result<Emit, CliError> {
        match self.options.get("emit").map(String::as_str) {
            None | Some("profile") => Ok(Emit::Profile),
            Some("cuda") => Ok(Emit::Cuda),
            Some("ir") => Ok(Emit::Ir),
            Some(other) => Err(CliError(format!("unknown emit `{other}` (ir|cuda|profile)"))),
        }
    }

    fn int(&self, key: &str, default: i64) -> Result<i64, CliError> {
        catalog::opt_int(&self.options, key, default).map_err(CliError)
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
       run        <kernel> [--arch ...] [--exec reference|sequential|parallel|replay] [sizes] [--emit text|json]\n\
                  (execute on the functional simulator)\n\
       run-graph  [--layers N] [--batch N] [--seq N] [--hidden N] [--heads N] [--ffn N]\n\
                  [--lowering default|fused] [--exec plan|replay] [--emit text|json]\n\
                  (execute a whole encoder graph in one arena)\n\
       tune       [<kernel>|--kernel gemm|fmha|layernorm|mlp] [--arch ...] [sizes] [--search exhaustive|random|beam]\n\
                  [--budget N] [--seed N] [--samples N] [--width N] [--patience N]\n\
                  [--cache tune-cache.json] [--top N] [--emit text|json]  (schedule search)\n\
       lint       <kernel> [--arch ...] [--prove] [--emit text|json]  (static analysis; kernel = gemm|gemm-db|mlp|lstm|layernorm|softmax|fmha;\n\
                  --prove appends the F2 symbolic proof report: conflict/race/bounds provenance)\n\
                  run, run-graph, tune and lint send the request `client` would to a fresh in-process\n\
                  daemon state: --emit json prints its response line, text one `key : value` per field\n\
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
            let arch = cli.arch()?;
            let nk = catalog::build_named(&cli.command, arch, &cli.options).map_err(CliError)?;
            render(cli.emit()?, arch, &nk.kernel)
        }
        "lint" | "run" | "run-graph" | "tune" => one_shot(&cli),
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

/// A one-shot `lint`/`run`/`run-graph`/`tune`: the request `client`
/// would send, dispatched in process on a fresh daemon state, so the
/// two front doors compute the same response by construction.
///
/// `lint` prints the report its `output` field carries and fails when
/// it counts errors (CI's lint-selfcheck keys on the exit status).
/// Every other command prints the response envelope under
/// `--emit json`, and under `--emit text` one `key : value` line per
/// field ([`render_text`]).
fn one_shot(cli: &Cli) -> Result<String, CliError> {
    let json = match cli.options.get("emit").map(String::as_str) {
        None | Some("text") => false,
        Some("json") => true,
        Some(other) => return Err(CliError(format!("unknown emit `{other}` (text|json)"))),
    };
    let mut state = ServerState::new(cli.options.get("cache").map(String::as_str));
    // Nobody polls a one-shot's job id: every tune runs inline.
    state.sync_tune_limit = usize::MAX;
    let resp = graphene_serve::handlers::dispatch(&state, &request_line(cli)?);
    let v = parse(&resp).map_err(|e| CliError(format!("malformed response: {e}")))?;
    if v.get("ok") != Some(&Json::Bool(true)) {
        return Err(CliError(v.get("error").and_then(Json::as_str).unwrap_or(&resp).to_string()));
    }
    if cli.command == "lint" {
        let output = v.get("output").and_then(Json::as_str).unwrap_or_default().to_string();
        return match v.get("errors").and_then(Json::as_i64) {
            Some(0) => Ok(output),
            _ => Err(CliError(output)),
        };
    }
    Ok(if json { format!("{resp}\n") } else { render_text(&resp) })
}

/// One `key : value` line per top-level response field, in response
/// order, skipping `id` and `ok`. A value is the response's own JSON
/// token, so a number prints exactly as the JSON carries it; only
/// strings print unquoted.
fn render_text(resp: &str) -> String {
    let mut out = String::new();
    // Response keys are plain identifiers: a member's first `:` ends it.
    for (key, raw) in members(resp).into_iter().filter_map(|m| m.split_once(':')) {
        let key = key.trim_matches('"');
        if key == "id" || key == "ok" {
            continue;
        }
        let _ = match parse(raw) {
            Ok(Json::Str(s)) => writeln!(out, "{key:8} : {s}"),
            _ => writeln!(out, "{key:8} : {raw}"),
        };
    }
    out
}

/// The top-level members (`"key":value`) of a JSON object, in order,
/// as raw slices of `obj` (which starts with its opening `{`).
fn members(obj: &str) -> Vec<&str> {
    let (mut depth, mut in_str, mut escaped, mut start) = (0usize, false, false, 1);
    let mut out = Vec::new();
    for (i, c) in obj.char_indices() {
        if in_str {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => depth += 1,
            ',' | '}' | ']' => {
                if depth == 1 {
                    out.push(&obj[start..i]);
                    start = i + 1;
                }
                if c != ',' {
                    depth = depth.saturating_sub(1);
                }
            }
            _ => {}
        }
    }
    out
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
/// command line ([`request_line`]) or passed verbatim via
/// `--json '{...}'`. A response carrying `"ok":false` is returned as an
/// error so the process exits nonzero.
fn client_cmd(cli: &Cli) -> Result<String, CliError> {
    let addr = cli.options.get("addr").map_or("127.0.0.1:7474", String::as_str);
    let timeout_s = cli.int("timeout", 120)?.max(1);
    let line = match cli.options.get("json") {
        Some(raw) => raw.clone(),
        None => request_line(cli)?,
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

/// The protocol request a command line names. For `client run gemm
/// --m 256`, the first positional is the `cmd` and the second the
/// `kernel`; for the one-shot `run gemm --m 256`, the sub-command is
/// the `cmd` and the first positional the `kernel`.
///
/// Every `--key value` except `client`'s transport options forwards as
/// a field. Canonical integers and booleans go over the wire as JSON
/// scalars, everything else as strings; either way the daemon's option
/// map holds exactly the string the command line did.
fn request_line(cli: &Cli) -> Result<String, CliError> {
    let (cmd, kernel) = if cli.command == "client" {
        let Some(cmd) = cli.positional.first() else {
            return Err(CliError(
                "client: expected a protocol command (lint|run|run-graph|tune|poll|cancel|stats|shutdown) or --json".to_string(),
            ));
        };
        (cmd, cli.positional.get(1))
    } else {
        (&cli.command, cli.positional.first())
    };
    let mut fields = vec![format!("\"cmd\":\"{}\"", escape(cmd))];
    if let Some(kernel) = kernel {
        fields.push(format!("\"kernel\":\"{}\"", escape(kernel)));
    }
    let mut opts: Vec<_> = cli
        .options
        .iter()
        .filter(|(k, _)| !matches!(k.as_str(), "addr" | "timeout" | "json"))
        .collect();
    opts.sort();
    for (k, v) in opts {
        // The wire parses numbers as f64 and renders integers below
        // 9e15 back without `.0`; anything else keeps its own text.
        let canonical_int = v
            .parse::<i64>()
            .is_ok_and(|n| n.to_string() == *v && n.unsigned_abs() < 9 * 10_u64.pow(15));
        if canonical_int || v == "true" || v == "false" {
            fields.push(format!("\"{}\":{v}", escape(k)));
        } else {
            fields.push(format!("\"{}\":\"{}\"", escape(k), escape(v)));
        }
    }
    Ok(format!("{{{}}}", fields.join(",")))
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
        assert_eq!(a.options.get("prove").map(String::as_str), Some("true"));
        let b = Cli::parse(&[
            "lint".into(),
            "gemm".into(),
            "--prove".into(),
            "--m".into(),
            "64".into(),
        ])
        .unwrap();
        assert_eq!(b.options.get("prove").map(String::as_str), Some("true"));
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

    /// `run --exec replay` records into the trace cache, reports the
    /// trace optimizer, and its checksum matches the interpreting
    /// engines. (Record once, serve many is the daemon's
    /// `run_twice_hits_plan_and_trace_caches_with_identical_checksums`.)
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
        assert!(rep.contains("trace_hit : false"), "{rep}");
        assert!(rep.contains("trace_opt : {\"coalesced_fraction\":"), "{rep}");
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
        assert!(plan.contains("engine   : plan"), "{plan}");
        assert!(plan.contains("arena    : {\"planned_bytes\":"), "{plan}");

        // Bitwise plan-vs-replay equality over every output is
        // tests/graph_exec.rs; the daemon's record-once is
        // `warm_run_graph_replays_the_cached_trace_bit_identically`.
        let rep = run_str(&format!("run-graph {SMALL} --exec replay")).unwrap();
        assert!(rep.contains("engine   : replay"), "{rep}");
        assert!(rep.contains("graph_hit : false"), "{rep}");
        assert!(rep.contains("trace_opt : {"), "{rep}");
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
        assert!(out.contains("space    : gemm\n"), "{out}");
        assert!(out.contains("problem  : m512_n512_k256_gemm"), "{out}");
        assert!(out.contains("winner   : bm="), "{out}");
        assert!(out.contains("stats    : {\"proposed\":"), "{out}");
        assert!(out.contains("leaderboard : [[\"bm="), "{out}");
    }

    #[test]
    fn tune_layernorm_emits_json() {
        let out = run_str("tune --kernel layernorm --rows 512 --hidden 1024 --emit json").unwrap();
        assert!(out.contains("\"space\":\"layernorm\""), "{out}");
        assert!(out.contains("\"winner\":\"rows_per_block="), "{out}");
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

#[cfg(test)]
mod front_door_tests {
    use graphene_serve::handlers::dispatch;
    use graphene_serve::state::DEFAULT_SYNC_TUNE_LIMIT;
    use graphene_serve::ServerState;
    use graphene_tune::json::{parse, Json};

    fn run_str(s: &str) -> Result<String, super::CliError> {
        let args: Vec<String> = s.split_whitespace().map(String::from).collect();
        super::run(&args)
    }

    /// The response's fields, minus the two timings that differ run to
    /// run.
    fn fields(resp: &str) -> Vec<(String, Json)> {
        let Ok(Json::Obj(fields)) = parse(resp) else { panic!("not an object: {resp}") };
        fields.into_iter().filter(|(k, _)| k != "elapsed_us" && k != "wall_ms").collect()
    }

    /// A one-shot `--emit json` equals `dispatch` of the same request on
    /// a fresh daemon state, field for field.
    #[test]
    fn one_shot_json_is_dispatch_on_a_fresh_state() {
        let gemm = r#""cmd":"run","kernel":"gemm","m":128,"n":128,"k":32"#;
        let graph = r#""cmd":"run-graph","layers":1,"seq":64,"hidden":256,"heads":4,"ffn":256"#;
        let graph_args = "run-graph --layers 1 --seq 64 --hidden 256 --heads 4 --ffn 256";
        let mut cases: Vec<(String, String)> = ["reference", "sequential", "parallel", "replay"]
            .iter()
            .map(|e| {
                (
                    format!("run gemm --m 128 --n 128 --k 32 --exec {e}"),
                    format!(r#"{gemm},"exec":"{e}""#),
                )
            })
            .collect();
        for e in ["plan", "replay"] {
            cases.push((format!("{graph_args} --exec {e}"), format!(r#"{graph},"exec":"{e}""#)));
        }
        cases.push((
            "tune layernorm --rows 512 --hidden 1024 --top 3".to_string(),
            r#""cmd":"tune","kernel":"layernorm","rows":512,"hidden":1024,"top":3"#.to_string(),
        ));
        for (args, request) in cases {
            let shot = run_str(&format!("{args} --emit json")).unwrap();
            let daemon = dispatch(&ServerState::new(None), &format!("{{{request}}}"));
            assert_eq!(fields(&shot), fields(&daemon), "{args}");
        }
    }

    /// `lint` prints the daemon's `output` field verbatim, text or JSON,
    /// with or without `--prove`.
    #[test]
    fn one_shot_lint_prints_the_dispatched_report() {
        for (flags, fields) in [
            ("", ""),
            ("--prove", r#","prove":true"#),
            ("--emit json", r#","emit":"json""#),
            ("--prove --emit json", r#","emit":"json","prove":true"#),
        ] {
            let shot = run_str(&format!("lint gemm --m 256 --n 256 --k 64 {flags}")).unwrap();
            let line =
                format!(r#"{{"cmd":"lint","kernel":"gemm","m":256,"n":256,"k":64{fields}}}"#);
            let resp = parse(&dispatch(&ServerState::new(None), &line)).unwrap();
            assert_eq!(resp.get("output").and_then(Json::as_str), Some(shot.as_str()), "{flags}");
        }
    }

    /// The text rendering carries the JSON's own number tokens: the
    /// `checksum : X` line is exactly the envelope's `"checksum":X`.
    #[test]
    fn text_checksum_token_equals_the_json_token() {
        let args = "run layernorm --rows 64 --hidden 512 --exec replay";
        let text = run_str(args).unwrap();
        let json = run_str(&format!("{args} --emit json")).unwrap();
        let token = text.lines().find_map(|l| l.strip_prefix("checksum : ")).expect("checksum");
        assert!(json.contains(&format!("\"checksum\":{token},")), "{token} vs {json}");
        assert_eq!(token.split_once('.').map(|(_, frac)| frac.len()), Some(6), "{token}");
    }

    /// The daemon's option map holds exactly the strings the command
    /// line did, so catalog parsing sees what it would have seen
    /// in process: non-canonical or wide integers stay strings.
    #[test]
    fn request_line_forwards_option_strings_unchanged() {
        let argv: Vec<String> =
            "run gemm --m +128 --n 0256 --seed 9007199254740993 --k 64 --budget 1.5 --prove"
                .split_whitespace()
                .map(String::from)
                .collect();
        let cli = super::Cli::parse(&argv).unwrap();
        let req = graphene_serve::parse_request(&super::request_line(&cli).unwrap()).unwrap();
        assert_eq!(req.cmd, "run");
        assert_eq!(req.opt("kernel"), Some("gemm"));
        for (k, v) in &cli.options {
            assert_eq!(req.opt(k), Some(v.as_str()), "--{k}");
        }
    }

    /// A beam search big enough that a daemon would queue it as a job
    /// still answers a one-shot inline with its winner.
    #[test]
    fn one_shot_beam_tune_beyond_the_sync_limit_returns_a_winner() {
        let args = "tune gemm --m 256 --n 256 --k 64 --search beam --width 1 --budget 1";
        let argv: Vec<String> = args.split_whitespace().map(String::from).collect();
        let opts = super::Cli::parse(&argv).unwrap().options;
        let space =
            graphene_tune::catalog::space_from_options("gemm", graphene_ir::Arch::Sm86, &opts)
                .unwrap();
        let search = graphene_tune::catalog::options_from_options(&opts).unwrap().search;
        assert!(
            graphene_tune::planned_proposals(space.as_ref(), &search) > DEFAULT_SYNC_TUNE_LIMIT
        );
        let out = run_str(&format!("{args} --emit json")).unwrap();
        let resp = parse(&out).unwrap();
        assert!(resp.get("winner").and_then(Json::as_str).is_some(), "{out}");
        assert_eq!(resp.get("job"), None, "{out}");
    }
}
