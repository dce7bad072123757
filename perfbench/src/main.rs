//! perfbench: the repository's benchmark, at both of its clocks.
//!
//! ```text
//! perfbench --workload serve-mix|graph-encoder|tune-cold --seed N --seconds S --trace 0|1
//! perfbench --compare BASE.txt CHANGE.txt [--bench BENCHMARK.json]
//! ```
//!
//! Every run starts a fresh in-process `graphene-serve` daemon with two
//! request workers and drives it in closed loop over TCP with the
//! workload the seed generates. Every response is checked against a
//! reference computed before any timer starts. The last line of
//! standard output is the result object; the line before it, prefixed
//! `record `, holds everything `--compare` reads, including the
//! modeled GPU time and the counters behind it.
//!
//! `--trace 1` spends half the time on the daemon untraced and half on
//! a traced stand-in (see `mirror`) that times each layer's public
//! functions, and reports the per-layer metrics. Each is printed with
//! the end-to-end metric and workload it should move (`ARROWS`).

mod drive;
mod mirror;
mod report;
mod workload;

use drive::{drive, Daemon, Sample};
use mirror::{Layer, Mirror, MirrorServer, Spans, LAYERS};
use report::median;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{Kind, Workload};

/// Set-up passes per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// High enough that every tune answers inline.
const SYNC_TUNE_LIMIT: usize = 1 << 20;
/// Candidates per tune space timed by the traced run's probe.
const PROBE_PER_SPACE: usize = 8;

/// Which end-to-end metric, on which workload, each per-layer metric
/// should move. The longest matching prefix applies.
const ARROWS: &[(&str, &str)] = &[
    ("serve.net_us", "p50_ms, ops_per_s (serve-mix)"),
    ("serve.", "p50_ms (serve-mix)"),
    ("sim.host.inputs", "p50_ms (serve-mix)"),
    ("kernels.catalog.build", "p50_ms (serve-mix)"),
    ("sim.plan.compile", "setup_s (serve-mix, graph-encoder), tail_ms (serve-mix)"),
    ("sim.trace.lookup", "p50_ms (serve-mix)"),
    ("sim.trace.record", "setup_s (serve-mix, graph-encoder), tail_ms (serve-mix)"),
    ("sim.trace_opt.optimize", "setup_s (serve-mix, graph-encoder), tail_ms (serve-mix)"),
    ("sim.trace.hit_ratio", "tail_ms, peak_rss_mb (serve-mix)"),
    ("sim.trace.resident_mb", "tail_ms, peak_rss_mb (serve-mix)"),
    ("sim.trace_opt.coalesced_frac", "tail_ms, peak_rss_mb (serve-mix)"),
    ("sim.replay.replay_opt", "p50_ms (serve-mix)"),
    ("analysis.lint", "p50_ms (serve-mix lint ops), ops_per_s (tune-cold)"),
    ("kernels.graph", "p50_ms, tail_ms (graph-encoder)"),
    ("kernels.exec_lower", "p50_ms, tail_ms (graph-encoder)"),
    ("sim.graph_exec", "p50_ms, tail_ms (graph-encoder)"),
    ("sim.graph_exec.record", "setup_s, peak_rss_mb (graph-encoder)"),
    ("sim.graph_exec.hit_ratio", "setup_s, peak_rss_mb (graph-encoder)"),
    ("sim.graph_exec.resident_mb", "setup_s, peak_rss_mb (graph-encoder)"),
    ("sim.workspace", "setup_s, peak_rss_mb (graph-encoder)"),
    ("tune.", "p50_ms, ops_per_s (tune-cold)"),
    ("tune.tuner.", "p50_ms (tune-cold), modeled_gpu_us"),
    ("tune.tuner.search", "p50_ms, ops_per_s (tune-cold)"),
    ("tune.costs", "p50_ms (tune-cold), modeled_gpu_us"),
    ("sim.analyze", "p50_ms, ops_per_s (tune-cold)"),
    ("sim.timing", "p50_ms, ops_per_s (tune-cold)"),
    ("sim.counters.", "modeled_gpu_us (all)"),
    ("coverage_frac", "share of server-side op time the named layers explain"),
    ("trace.", "tracing overhead: traced vs untraced p50_ms"),
];

fn arrow(metric: &str) -> &'static str {
    ARROWS
        .iter()
        .filter(|(p, _)| metric.starts_with(p))
        .max_by_key(|(p, _)| p.len())
        .map_or("", |(_, a)| a)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => out.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if out.workload.is_empty() || out.seconds.is_nan() || out.seconds <= 0.0 {
        return Err("usage: --workload NAME --seed N --seconds S --trace 0|1".into());
    }
    Ok(out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--compare") => report::compare(&args[1..]),
        _ => parse_args(&args).and_then(|a| run(&a)),
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// A server the clients drive: the daemon or the traced stand-in.
enum Endpoint {
    Daemon(Daemon),
    Mirror(MirrorServer),
}

impl Endpoint {
    fn addr(&self) -> &str {
        match self {
            Endpoint::Daemon(d) => &d.addr,
            Endpoint::Mirror(m) => &m.addr,
        }
    }

    fn stop(self) -> Result<(), String> {
        match self {
            Endpoint::Daemon(d) => d.stop(),
            Endpoint::Mirror(m) => m.stop(),
        }
    }
}

/// What one measurement phase saw.
struct Measured {
    /// Seconds from bind to the end of each set-up pass.
    setup_s: Vec<f64>,
    setup: Vec<Sample>,
    samples: Vec<Sample>,
    /// Wall seconds the measured ops took.
    busy_s: f64,
}

/// Runs the set-up pass `setups` times on fresh servers and then the
/// stream for `secs` on the last one. A workload whose every pass must
/// meet an empty server instead runs whole passes, each on a fresh
/// server, until `secs` have passed; each pass is also a set-up sample.
fn measure(
    wl: &Workload,
    secs: f64,
    setups: usize,
    start: &mut dyn FnMut() -> Result<Endpoint, String>,
) -> Result<Measured, String> {
    let mut m =
        Measured { setup_s: Vec::new(), setup: Vec::new(), samples: Vec::new(), busy_s: 0.0 };
    if wl.pass_per_daemon {
        while m.busy_s < secs || m.setup_s.len() < 2 {
            let t0 = Instant::now();
            let server = start()?;
            m.samples.extend(drive(server.addr(), &wl.ops, &wl.stream, wl.conns, None)?);
            server.stop()?;
            let pass = t0.elapsed().as_secs_f64();
            m.setup_s.push(pass);
            m.busy_s += pass;
        }
        return Ok(m);
    }
    let setup_ops = workload::setup_ops(wl);
    let setup_order: Vec<u32> = (0..setup_ops.len() as u32).collect();
    let mut server = None;
    for _ in 0..setups.max(1) {
        if let Some(s) = server.take() {
            Endpoint::stop(s)?;
        }
        let t0 = Instant::now();
        let s = start()?;
        m.setup.extend(drive(s.addr(), &setup_ops, &setup_order, 1, None)?);
        m.setup_s.push(t0.elapsed().as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one set-up pass ran");
    let t0 = Instant::now();
    let until = t0 + Duration::from_secs_f64(secs);
    m.samples = drive(server.addr(), &wl.ops, &wl.stream, wl.conns, Some(until))?;
    m.busy_s = t0.elapsed().as_secs_f64();
    server.stop()?;
    Ok(m)
}

/// Peak resident memory of this process, in MB (`getrusage`'s
/// `ru_maxrss`, which Linux reports in KB).
fn peak_rss_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s (two i64 each)
    // then fourteen longs, the first of which is `ru_maxrss`.
    extern "C" {
        fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = [0i64; 18];
    // SAFETY: `usage` is a writable buffer the size of `struct rusage`
    // on 64-bit Linux, and getrusage writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc == 0 {
        usage[4] as f64 / 1024.0
    } else {
        0.0
    }
}

fn latencies_ms(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.rtt_us / 1e3).collect()
}

/// Prints per-class counts and latencies.
fn print_classes(samples: &[Sample]) {
    let mut by_kind: HashMap<Kind, Vec<f64>> = HashMap::new();
    for s in samples {
        by_kind.entry(s.kind).or_default().push(s.rtt_us / 1e3);
    }
    let mut kinds: Vec<_> = by_kind.into_iter().collect();
    kinds.sort_by_key(|(k, _)| *k);
    for (k, lat) in kinds {
        let (label, t) = report::tail(&lat);
        println!(
            "  {:<6} n={:<6} p50 {:>9.3} ms  {label} {t:>9.3} ms",
            k.label(),
            lat.len(),
            median(&lat)
        );
    }
}

type Metric = (String, f64, &'static str);

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", finite(*v)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn run(args: &Args) -> Result<i32, String> {
    let t0 = Instant::now();
    let wl = workload::build(&args.workload, args.seed)?;
    println!(
        "perfbench {} seed={} trace={}: {} connection(s), closed loop; references in {:.2} s",
        wl.name,
        args.seed,
        u8::from(args.trace),
        wl.conns,
        t0.elapsed().as_secs_f64()
    );
    let mut daemon = || Daemon::start(SYNC_TUNE_LIMIT).map(Endpoint::Daemon);
    let (metrics, samples): (Vec<Metric>, Vec<Sample>) = if args.trace {
        traced(&wl, args.seconds, &mut daemon)?
    } else {
        let m = measure(&wl, args.seconds, SETUP_REPEATS, &mut daemon)?;
        print_classes(&m.samples);
        let lat = latencies_ms(&m.samples);
        let (tail_label, tail_ms) = report::tail(&lat);
        println!("  tail_ms is {tail_label} of {} ops", lat.len());
        let metrics = vec![
            ("setup_s".into(), median(&m.setup_s), "s"),
            ("p50_ms".into(), median(&lat), "ms"),
            ("tail_ms".into(), tail_ms, "ms"),
            ("ops_per_s".into(), m.samples.len() as f64 / m.busy_s, "1/s"),
            ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
        ];
        (metrics, m.setup.into_iter().chain(m.samples).collect())
    };
    let attempted = samples.len();
    let failed = samples.iter().filter(|s| !s.ok).count();
    let fail_frac = failed as f64 / attempted.max(1) as f64;
    for (name, value, unit) in &metrics {
        let a = arrow(name);
        let a = if a.is_empty() { String::new() } else { format!("  -> {a}") };
        println!("  {name:<40} {value:>14.4} {unit}{a}");
    }
    let totals = wl.modeled.totals();
    println!("  {:<40} {:>14.4}", "fail_frac", fail_frac);
    println!("  {:<40} {:>14.4} us (modeled, deterministic)", "modeled_gpu_us", wl.modeled.gpu_us);
    for (name, v) in totals {
        println!("  sim.counters.{name:<27} {v:>14}");
    }
    let counters: Vec<String> = totals.iter().map(|(n, v)| format!("\"{n}\":{v}")).collect();
    println!(
        "record {{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"attempted\":{attempted},\
         \"failed\":{failed},\"fail_frac\":{fail_frac},\"modeled_gpu_us\":{},\
         \"counters\":{{{}}},\"metrics\":{{{}}}}}",
        wl.name,
        args.seed,
        u8::from(args.trace),
        wl.modeled.gpu_us,
        counters.join(","),
        metrics
            .iter()
            .map(|(n, v, _)| format!("\"{n}\":{}", finite(*v)))
            .collect::<Vec<_>>()
            .join(",")
    );
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        failed == 0,
        metrics_json(&metrics)
    );
    Ok(0)
}

/// The traced run: half the time untraced on the daemon, half traced on
/// the stand-in, then the per-candidate probe for tune workloads.
fn traced(
    wl: &Workload,
    secs: f64,
    daemon: &mut dyn FnMut() -> Result<Endpoint, String>,
) -> Result<(Vec<Metric>, Vec<Sample>), String> {
    let a = measure(wl, secs / 2.0, 1, daemon)?;
    let mut mirrors: Vec<Arc<Mirror>> = Vec::new();
    let b = measure(wl, secs / 2.0, 1, &mut || {
        let m = Arc::new(Mirror::new());
        mirrors.push(Arc::clone(&m));
        MirrorServer::start(m).map(Endpoint::Mirror)
    })?;
    let tunes = workload::tune_requests(wl);
    let probe = if tunes.is_empty() {
        Spans::default()
    } else {
        mirror::probe_candidates(&tunes, PROBE_PER_SPACE)?
    };
    println!("  untraced:");
    print_classes(&a.samples);
    println!("  traced:");
    print_classes(&b.samples);

    let records: Vec<mirror::OpRecord> = mirrors
        .iter()
        .flat_map(|m| std::mem::take(&mut *m.records.lock().expect("records poisoned")))
        .collect();
    let n_ops = records.len().max(1) as f64;
    let stats: Vec<graphene_tune::TuneStats> =
        mirrors.iter().flat_map(|m| m.tune_stats.lock().expect("stats poisoned").clone()).collect();
    let stat_sum =
        |f: fn(&graphene_tune::TuneStats) -> usize| stats.iter().map(f).sum::<usize>() as f64;
    let built = stat_sum(|s| s.proposed - s.pruned_constraint - s.cost_replayed);
    let simulated = stat_sum(|s| s.simulated);

    let mut out: Vec<Metric> = Vec::new();
    let net: Vec<f64> =
        a.samples.iter().filter_map(|s| Some((s.rtt_us - s.server_us?).max(0.0))).collect();
    out.push(("serve.net_us".into(), median(&net), "us"));
    for (layer, name) in LAYERS {
        let spans = records.iter().flat_map(|r| &r.spans.0).chain(&probe.0);
        let durs: Vec<f64> =
            spans.filter(|(l, _)| *l == layer).map(|(_, ns)| *ns as f64 / 1e3).collect();
        let in_ops = records.iter().flat_map(|r| &r.spans.0).filter(|(l, _)| *l == layer).count();
        let calls = match layer {
            Layer::CandidateBuild | Layer::Lint if !stats.is_empty() => built,
            Layer::Counters | Layer::TimeKernel if !stats.is_empty() => simulated,
            _ => in_ops as f64,
        };
        out.push((format!("{name}_us"), median(&durs), "us"));
        out.push((format!("{name}.calls_per_op"), calls / n_ops, "calls/op"));
    }
    let compiles = records.iter().flat_map(|r| &r.spans.0).filter(|(l, _)| *l == Layer::Compile);
    out.push(("sim.plan.compiles".into(), compiles.count() as f64, "count"));
    let max_over = |f: fn(&Mirror) -> f64| mirrors.iter().map(|m| f(m)).fold(0.0, f64::max);
    out.push(("serve.state.plan_hit_ratio".into(), max_over(Mirror::plan_hit_ratio), "ratio"));
    out.push(("sim.trace.hit_ratio".into(), max_over(Mirror::trace_hit_ratio), "ratio"));
    let mb = |b: usize| b as f64 / (1024.0 * 1024.0);
    let residency = mirrors
        .iter()
        .map(|m| m.trace_residency())
        .fold((0, 0.0), |a, b| (a.0.max(b.0), f64::max(a.1, b.1)));
    out.push(("sim.trace.resident_mb".into(), mb(residency.0), "MB"));
    out.push(("sim.trace_opt.coalesced_frac".into(), residency.1, "frac"));
    let graphs = mirrors
        .iter()
        .map(|m| m.graph_residency())
        .fold((0.0, 0), |a, b| (f64::max(a.0, b.0), a.1.max(b.1)));
    out.push(("sim.graph_exec.hit_ratio".into(), graphs.0, "ratio"));
    out.push(("sim.graph_exec.resident_mb".into(), mb(graphs.1), "MB"));
    let arena = mirrors.iter().map(|m| m.arena_bytes.load(std::sync::atomic::Ordering::Relaxed));
    out.push(("sim.workspace.arena_mb".into(), mb(arena.max().unwrap_or(0) as usize), "MB"));
    let per_tune = stats.len().max(1) as f64;
    for (name, f) in [
        ("proposed", (|s| s.proposed) as fn(&graphene_tune::TuneStats) -> usize),
        ("pruned_constraint", |s| s.pruned_constraint),
        ("pruned_analysis", |s| s.pruned_analysis),
        ("simulated", |s| s.simulated),
        ("cost_replayed", |s| s.cost_replayed),
    ] {
        out.push((format!("tune.tuner.{name}"), stat_sum(f) / per_tune, "count"));
    }
    let costed = stat_sum(|s| s.proposed - s.pruned_constraint);
    let replay_ratio = if costed == 0.0 { 0.0 } else { stat_sum(|s| s.cost_replayed) / costed };
    out.push(("tune.costs.replay_ratio".into(), replay_ratio, "ratio"));
    for (name, v) in wl.modeled.totals() {
        out.push((format!("sim.counters.{name}"), v as f64, "count"));
    }

    // Coverage: the share of the stand-in's server-side time that the
    // named spans explain, over the workload's main op class.
    let kinds: HashMap<u64, Kind> =
        b.setup.iter().chain(&b.samples).map(|s| (s.id, s.kind)).collect();
    let main_kind = match wl.name {
        "serve-mix" => Kind::Warm,
        "graph-encoder" => Kind::Graph,
        _ => Kind::Tune,
    };
    let (mut named, mut total) = (0u64, 0u64);
    for r in records.iter().filter(|r| kinds.get(&r.id) == Some(&main_kind)) {
        named += r.spans.0.iter().map(|(_, ns)| ns).sum::<u64>();
        total += r.server_ns;
    }
    out.push(("coverage_frac".into(), named as f64 / total.max(1) as f64, "frac"));
    out.push(("trace.traced_p50_ms".into(), median(&latencies_ms(&b.samples)), "ms"));
    out.push(("trace.untraced_p50_ms".into(), median(&latencies_ms(&a.samples)), "ms"));

    let samples = a.setup.into_iter().chain(a.samples).chain(b.setup).chain(b.samples).collect();
    Ok((out, samples))
}
