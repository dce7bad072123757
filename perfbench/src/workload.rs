//! The three seeded workloads, and the references every op is checked
//! against. Everything here runs before any timer starts.

use graphene_analysis::{analyze_kernel, error_count};
use graphene_ir::Arch;
use graphene_kernels::catalog::build_named;
use graphene_kernels::exec_lower::{lower_executable, ExecLowering};
use graphene_kernels::graph::{encoder_graph, lower_fused, lower_unfused, Planned};
use graphene_sim::{
    analyze, execute_graph, execute_plan, machine_for, time_kernel, Counters, ExecMode, HostTensor,
    KernelPlan,
};
use graphene_tune::{CostCache, SharedTuneDb};
use std::collections::HashMap;

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["serve-mix", "graph-encoder", "tune-cold"];

const ARCH: Arch = Arch::Sm86;

/// What an op is, for per-class latency and coverage reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// First pass over the working set (the set-up pass).
    Setup,
    /// `run exec=replay` on a working-set problem.
    Warm,
    /// `run exec=replay` on a never-seen problem size.
    Cold,
    /// `lint` of a working-set kernel.
    Lint,
    /// A request that must return an error.
    Error,
    /// `run-graph exec=replay` on the encoder.
    Graph,
    /// A cold `tune`.
    Tune,
}

impl Kind {
    /// Label used in the printed report.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Setup => "setup",
            Kind::Warm => "warm",
            Kind::Cold => "cold",
            Kind::Lint => "lint",
            Kind::Error => "error",
            Kind::Graph => "graph",
            Kind::Tune => "tune",
        }
    }
}

/// What a correct response must carry.
#[derive(Clone, Debug)]
pub enum Expect {
    /// `ok:true` and this checksum, rendered as the daemon renders it.
    Checksum(String),
    /// `ok:true` and zero error diagnostics.
    LintClean,
    /// `ok:false` with an error containing this text.
    Error(&'static str),
    /// `ok:true`, this winner and a bit-identical best time; the
    /// winner's own lint error count must be zero.
    Tune { winner: String, best_time_s: f64, winner_lint_errors: usize },
}

/// One distinct request of a workload.
#[derive(Clone, Debug)]
pub struct Op {
    pub kind: Kind,
    /// The request object without its `id` field and opening brace.
    body: String,
    pub expect: Expect,
}

impl Op {
    fn new(kind: Kind, fields: &str, expect: Expect) -> Op {
        Op { kind, body: format!("{fields}}}"), expect }
    }

    /// The request line sent on the wire.
    pub fn line(&self, id: u64) -> String {
        format!("{{\"id\":{id},{}", self.body)
    }

    /// A copy of this op under another kind.
    fn as_kind(&self, kind: Kind) -> Op {
        Op { kind, ..self.clone() }
    }
}

/// A kernel request: catalog name plus integer options.
struct KernelReq {
    name: &'static str,
    dims: Vec<(&'static str, i64)>,
}

impl KernelReq {
    fn new(name: &'static str, dims: &[(&'static str, i64)]) -> KernelReq {
        KernelReq { name, dims: dims.to_vec() }
    }

    fn opts(&self) -> HashMap<String, String> {
        self.dims.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
    }

    fn fields(&self) -> String {
        let mut s = format!("\"kernel\":\"{}\"", self.name);
        for (k, v) in &self.dims {
            s.push_str(&format!(",\"{k}\":{v}"));
        }
        s
    }

    fn run_op(&self, kind: Kind) -> Result<Op, String> {
        let fields = format!("\"cmd\":\"run\",{},\"exec\":\"replay\"", self.fields());
        Ok(Op::new(kind, &fields, Expect::Checksum(self.reference_checksum()?)))
    }

    /// The checksum the daemon must return, from the sequential
    /// compiled-plan engine over the daemon's seeded inputs.
    fn reference_checksum(&self) -> Result<String, String> {
        let nk = build_named(self.name, ARCH, &self.opts())?;
        let plan = KernelPlan::compile(&nk.kernel, ARCH).map_err(|e| e.to_string())?;
        let inputs = seeded(plan.params().iter().map(|(id, _, len)| (*id, *len)));
        let out = execute_plan(&plan, &inputs, &HashMap::new(), ExecMode::Sequential)
            .map_err(|e| e.to_string())?;
        let sum: f64 = out.globals.values().flat_map(|b| b.iter()).map(|&x| f64::from(x)).sum();
        Ok(format!("{sum:.6}"))
    }
}

/// Inputs seeded exactly like the daemon: parameter `i` from seed
/// `1000 + i`.
fn seeded<K: std::hash::Hash + Eq>(
    params: impl Iterator<Item = (K, usize)>,
) -> HashMap<K, Vec<f32>> {
    params
        .enumerate()
        .map(|(i, (k, len))| (k, HostTensor::random(&[len], 1000 + i as u64).as_slice().to_vec()))
        .collect()
}

/// Static counter totals plus roofline time: the modeled-GPU clock.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Modeled {
    pub gpu_us: f64,
    pub counters: Counters,
}

impl Modeled {
    fn add(&mut self, c: &Counters, time_s: f64) {
        self.counters.merge(c);
        self.gpu_us += time_s * 1e6;
    }

    /// The four counter totals the benchmark reports.
    pub fn totals(&self) -> [(&'static str, u64); 4] {
        let c = &self.counters;
        [
            ("global_bytes", c.global_read_bytes + c.global_write_bytes),
            ("smem_transactions", c.smem_transactions),
            ("flops_tc", c.flops_tc),
            ("instructions", c.instructions),
        ]
    }
}

/// A generated workload: its distinct ops, the set-up pass and the
/// measured stream (indices into `ops`), with the references.
pub struct Workload {
    pub name: &'static str,
    /// Client connections of the closed loop.
    pub conns: usize,
    pub ops: Vec<Op>,
    /// The first pass over the working set.
    pub setup: Vec<u32>,
    /// The measured stream, consumed in order.
    pub stream: Vec<u32>,
    /// Every pass over `stream` starts a fresh daemon (tune-cold).
    pub pass_per_daemon: bool,
    pub modeled: Modeled,
}

/// splitmix64: small, seedable and the same on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Builds workload `name` from `seed`, computing every reference.
pub fn build(name: &str, seed: u64) -> Result<Workload, String> {
    let mut rng = Rng::new(seed);
    match name {
        "serve-mix" => serve_mix(&mut rng),
        "graph-encoder" => graph_encoder(&mut rng),
        "tune-cold" => tune_cold(&mut rng),
        other => Err(format!("unknown workload `{other}` ({})", NAMES.join("|"))),
    }
}

/// Ops the serve-mix stream may use, far more than a run consumes.
const SERVE_STREAM_LEN: usize = 400_000;
/// The serve-mix stream's repeating block: 1% cold, 4% lint, 2%
/// expected errors, the rest warm replays.
const BLOCK: usize = 200;
const BLOCK_COLD: usize = 2;
const BLOCK_LINT: usize = 8;
const BLOCK_ERR: usize = 4;

/// serve-mix: warm replays over a fixed seven-kernel working set, with
/// a few percent lint, cold sizes and expected errors.
fn serve_mix(rng: &mut Rng) -> Result<Workload, String> {
    let working_set = [
        KernelReq::new("gemm", &[("m", 256), ("n", 256), ("k", 64)]),
        KernelReq::new("gemm-db", &[("m", 256), ("n", 256), ("k", 64)]),
        KernelReq::new("mlp", &[("m", 256), ("layers", 2)]),
        KernelReq::new("lstm", &[("m", 256)]),
        KernelReq::new("layernorm", &[("rows", 64), ("hidden", 512)]),
        KernelReq::new("softmax", &[("rows", 64), ("cols", 512)]),
        KernelReq::new("fmha", &[("heads", 2), ("seq", 128), ("d", 64)]),
    ];
    let mut ops = Vec::new();
    let mut modeled = Modeled::default();
    for k in &working_set {
        ops.push(k.run_op(Kind::Warm)?);
        let nk = build_named(k.name, ARCH, &k.opts())?;
        let c = analyze(&nk.kernel, ARCH).map_err(|e| e.to_string())?;
        modeled.add(&c, time_kernel(&c, machine_for(ARCH), nk.kernel.grid_size()).time_s);
    }
    let setup: Vec<u32> = (0..working_set.len() as u32).collect();
    let lint0 = ops.len();
    for k in &working_set {
        ops.push(Op::new(
            Kind::Lint,
            &format!("\"cmd\":\"lint\",{}", k.fields()),
            Expect::LintClean,
        ));
    }
    let err0 = ops.len();
    let gemm = "\"kernel\":\"gemm\",\"m\":256,\"n\":256,\"k\":64";
    for (fields, expect) in [
        (
            "\"kernel\":\"gemm\",\"m\":100,\"n\":256,\"k\":64,\"exec\":\"replay\"".into(),
            "must tile by",
        ),
        ("\"kernel\":\"conv2d\",\"exec\":\"replay\"".into(), "unknown kernel"),
        (format!("{gemm},\"exec\":\"turbo\""), "unknown exec mode"),
    ] {
        ops.push(Op::new(Kind::Error, &format!("\"cmd\":\"run\",{fields}"), Expect::Error(expect)));
    }
    // Never-seen sizes of similar cost and small traces, enough that a
    // run never spends them all (128 cold slots is 12800 ops), so every
    // run has the same cold share however fast the machine is.
    let mut cold: Vec<KernelReq> = (32..96)
        .flat_map(|r| {
            [
                KernelReq::new("layernorm", &[("rows", 4 * r), ("hidden", 512)]),
                KernelReq::new("softmax", &[("rows", 4 * r), ("cols", 512)]),
            ]
        })
        .collect();
    for i in (1..cold.len()).rev() {
        cold.swap(i, rng.below(i + 1));
    }
    let cold0 = ops.len();
    for k in &cold {
        ops.push(k.run_op(Kind::Cold)?);
    }
    // Every block of `BLOCK` ops has exactly the same mix, shuffled by
    // the seed; each class cycles through its members. A fixed mix keeps
    // the tail, which the rare slow classes form, comparable between
    // seeds. Past the cold pool its slots become warm replays.
    let (mut warm, mut lint, mut err, mut next_cold) = (0, 0, 0, cold0);
    let mut stream = Vec::with_capacity(SERVE_STREAM_LEN);
    while stream.len() < SERVE_STREAM_LEN {
        let mut block: Vec<usize> = Vec::with_capacity(BLOCK);
        for _ in 0..BLOCK_COLD {
            if next_cold < ops.len() {
                block.push(next_cold);
                next_cold += 1;
            }
        }
        for _ in 0..BLOCK_LINT {
            block.push(lint0 + lint % working_set.len());
            lint += 1;
        }
        for _ in 0..BLOCK_ERR {
            block.push(err0 + err % 3);
            err += 1;
        }
        while block.len() < BLOCK {
            block.push(warm % working_set.len());
            warm += 1;
        }
        for i in (1..block.len()).rev() {
            block.swap(i, rng.below(i + 1));
        }
        stream.extend(block.into_iter().map(|i| i as u32));
    }
    Ok(Workload {
        name: "serve-mix",
        conns: 2,
        ops,
        setup,
        stream,
        pass_per_daemon: false,
        modeled,
    })
}

/// graph-encoder: `run-graph` on the default two-layer encoder,
/// alternating the fused and default lowerings.
fn graph_encoder(rng: &mut Rng) -> Result<Workload, String> {
    let graph = encoder_graph(2, 1, 128, 256, 4, 1024);
    let mut ops = Vec::new();
    for lowering in [ExecLowering::Fused, ExecLowering::Default] {
        let eg = lower_executable(&graph, ARCH, lowering)?;
        let inputs = seeded(eg.externals().into_iter());
        let out = execute_graph(&eg, &inputs, ExecMode::Parallel).map_err(|e| e.to_string())?;
        let mut temps: Vec<_> = out.outputs.iter().collect();
        temps.sort_by_key(|(t, _)| **t);
        let sum: f64 = temps.iter().flat_map(|(_, b)| b.iter()).map(|&x| f64::from(x)).sum();
        let fields = format!(
            "\"cmd\":\"run-graph\",\"exec\":\"replay\",\"lowering\":\"{}\"",
            lowering.label()
        );
        ops.push(Op::new(Kind::Graph, &fields, Expect::Checksum(format!("{sum:.6}"))));
    }
    let mut modeled = Modeled::default();
    for plan in [lower_fused(&graph, ARCH), lower_unfused(&graph)] {
        for k in &plan.kernels {
            match k {
                Planned::Graphene(kernel) => {
                    let c = analyze(kernel, ARCH).map_err(|e| e.to_string())?;
                    modeled.add(&c, k.time_s(ARCH, machine_for(ARCH)));
                }
                Planned::Library(_) => {
                    modeled.add(&Counters::default(), k.time_s(ARCH, machine_for(ARCH)))
                }
            }
        }
    }
    let first = rng.below(2) as u32;
    Ok(Workload {
        name: "graph-encoder",
        conns: 1,
        setup: vec![0, 1],
        stream: (0..100_000u32).map(|i| (i + first) % 2).collect(),
        ops,
        pass_per_daemon: false,
        modeled,
    })
}

/// tune-cold: a fixed list of tunes against an empty database; the
/// seed only orders the entries. The random search on the beam search's
/// problem follows it and is answered from the database, because the
/// database is keyed by space and problem, not by strategy.
fn tune_cold(rng: &mut Rng) -> Result<Workload, String> {
    let g1 = "\"kernel\":\"gemm\",\"m\":512,\"n\":512,\"k\":256";
    let groups: Vec<Vec<String>> = vec![
        vec![
            format!("{g1},\"search\":\"beam\",\"seed\":1"),
            format!("{g1},\"search\":\"random\",\"seed\":1,\"samples\":24"),
        ],
        vec!["\"kernel\":\"gemm\",\"m\":1024,\"n\":256,\"k\":128,\"search\":\"random\",\"seed\":2,\"samples\":16".into()],
        vec!["\"kernel\":\"fmha\",\"heads\":2,\"seq\":128,\"d\":64".into()],
        vec!["\"kernel\":\"mlp\",\"m\":256,\"hidden\":128,\"layers\":2".into()],
        vec!["\"kernel\":\"layernorm\",\"rows\":512,\"hidden\":512".into()],
        vec!["\"kernel\":\"layernorm\",\"rows\":1024,\"hidden\":256".into()],
    ];
    let mut order: Vec<usize> = (0..groups.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    // The reference: the same list, in the same order, tuned in
    // process against an empty database and cost cache.
    let (db, costs) = (SharedTuneDb::in_memory(), CostCache::new());
    let mut ops = Vec::new();
    let mut winners = Vec::new();
    for (g, fields) in order.iter().flat_map(|&g| groups[g].iter().map(move |f| (g, f))) {
        let req = graphene_serve::parse_request(&format!("{{\"cmd\":\"tune\",{fields}}}"))?;
        let kernel = req.opt("kernel").unwrap_or("gemm");
        let space = graphene_tune::catalog::space_from_options(kernel, ARCH, &req.opts)?;
        let opts = graphene_tune::catalog::options_from_options(&req.opts)?;
        let report =
            graphene_tune::tune_observed(space.as_ref(), &opts, Some(&db), Some(&costs), None)
                .map_err(|e| e.to_string())?;
        let winner = space.build(&report.best_point);
        let counters = analyze(&winner, ARCH).map_err(|e| e.to_string())?;
        winners.push((g, ops.len(), counters, report.best_time_s));
        let winner_lint_errors = error_count(&analyze_kernel(&winner, ARCH));
        let expect = Expect::Tune {
            winner: report.best_desc.clone(),
            best_time_s: report.best_time_s,
            winner_lint_errors,
        };
        ops.push(Op::new(Kind::Tune, &format!("\"cmd\":\"tune\",{fields}"), expect));
    }
    // Summed in list order, not request order, so the modeled time
    // repeats to the last bit whatever the seed.
    winners.sort_by_key(|&(g, i, ..)| (g, i));
    let mut modeled = Modeled::default();
    for (_, _, counters, time_s) in &winners {
        modeled.add(counters, *time_s);
    }
    let n = ops.len() as u32;
    Ok(Workload {
        name: "tune-cold",
        conns: 1,
        setup: Vec::new(),
        stream: (0..n).collect(),
        ops,
        pass_per_daemon: true,
        modeled,
    })
}

/// The tune requests of a workload, for the traced run's per-candidate
/// probe.
pub fn tune_requests(wl: &Workload) -> Vec<String> {
    wl.ops.iter().filter(|o| o.kind == Kind::Tune).map(|o| o.line(0)).collect()
}

/// Relabels the set-up ops so per-class statistics keep them apart.
pub fn setup_ops(wl: &Workload) -> Vec<Op> {
    wl.setup.iter().map(|&i| wl.ops[i as usize].as_kind(Kind::Setup)).collect()
}
