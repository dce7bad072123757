//! Order statistics, and the compare mode that judges two result sets
//! against the bounds in `BENCHMARK.json`.

use graphene_tune::json::{parse, Json};

/// Median (mean of the middle pair for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of sorted values.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The tail: the highest of p99, p90 and p75 with at least ten samples
/// beyond it, else the maximum. Returns `(label, value)`.
pub fn tail(values: &[f64]) -> (String, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return ("none".into(), 0.0);
    }
    for p in [99.0, 90.0, 75.0] {
        let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
        if v.len() - rank >= 10 {
            return (format!("p{p}"), percentile(&v, p));
        }
    }
    ("max".into(), v[v.len() - 1])
}

/// First and third quartiles as Python's `statistics.quantiles(values,
/// n=4)` computes them (the default, exclusive method).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let q = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

struct Bound {
    name: String,
    better_lower: bool,
    bound: f64,
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The `record` lines of a result file: the saved standard output of
/// one or more untraced runs.
fn records(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter_map(|l| l.strip_prefix("record "))
        .map(|l| parse(l).map_err(|e| format!("{path}: {e}")))
        .filter(|r| r.as_ref().map_or(true, |j| j.get("trace").and_then(Json::as_i64) == Some(0)))
        .collect()
}

/// `--compare BASE.txt CHANGE.txt [--bench BENCHMARK.json]`: for every
/// workload in both sets and every end-to-end metric, compares medians
/// against the metric's bound. A metric whose run-to-run spread exceeds
/// its bound is unresolved unless every change run beats every base
/// run. The modeled clock and its counters must repeat exactly.
/// Returns exit code 1 when anything regressed or the modeled clock
/// moved.
pub fn compare(args: &[String]) -> Result<i32, String> {
    let (base, change) = match args {
        [a, b] | [a, b, _, _] => (a, b),
        _ => return Err("usage: --compare BASE CHANGE [--bench BENCHMARK.json]".into()),
    };
    let bench_path = match args {
        [_, _, flag, p] if flag == "--bench" => p.as_str(),
        _ => "BENCHMARK.json",
    };
    let bench = read_json(bench_path)?;
    let bounds: Vec<Bound> = bench
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| Bound {
            name: m.get("name").and_then(Json::as_str).unwrap_or("").to_string(),
            better_lower: m.get("better").and_then(Json::as_str) == Some("lower"),
            bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
        })
        .collect();
    let (base, change) = (records(base)?, records(change)?);
    let mut code = 0;
    let workloads = bench.get("workloads").and_then(Json::as_arr).unwrap_or(&[]);
    for w in workloads.iter().filter_map(|w| w.get("name").and_then(Json::as_str)) {
        let of = |set: &[Json]| -> Vec<Json> {
            set.iter()
                .filter(|r| r.get("workload").and_then(Json::as_str) == Some(w))
                .cloned()
                .collect()
        };
        let (a, b) = (of(&base), of(&change));
        if a.is_empty() || b.is_empty() {
            println!("{w}: missing from one side ({} vs {} runs)", a.len(), b.len());
            continue;
        }
        println!("{w}: {} base runs, {} change runs", a.len(), b.len());
        for m in &bounds {
            let vals = |set: &[Json]| -> Vec<f64> {
                set.iter().filter_map(|r| r.get("metrics")?.get(&m.name)?.as_f64()).collect()
            };
            let (va, vb) = (vals(&a), vals(&b));
            let (ma, mb) = (median(&va), median(&vb));
            let (sa, sb) = (spread(&va), spread(&vb));
            let worse = if ma == 0.0 {
                0.0
            } else if m.better_lower {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            let beats = |x: f64, y: f64| if m.better_lower { x < y } else { x > y };
            let all_better = vb.iter().all(|&y| va.iter().all(|&x| beats(y, x)));
            let verdict = if sa > m.bound || sb > m.bound {
                if all_better {
                    "improved (every change run beats every base run)"
                } else {
                    "unresolved (spread wider than the bound)"
                }
            } else if worse > m.bound {
                code = 1;
                "REGRESSED"
            } else if worse < -m.bound {
                "improved"
            } else {
                "within bound"
            };
            println!(
                "  {:<12} base {ma:>12.4} (spread {sa:.3})  change {mb:>12.4} (spread {sb:.3})  \
                 worse by {:+.1}% (bound {:.0}%): {verdict}",
                m.name,
                worse * 100.0,
                m.bound * 100.0
            );
        }
        let failed: f64 = b.iter().filter_map(|r| r.get("failed")?.as_f64()).sum();
        if failed > 0.0 {
            code = 1;
            println!("  FAILED ops in the change set: {failed}");
        }
        let clock = |r: &Json| (r.get("modeled_gpu_us").cloned(), r.get("counters").cloned());
        let first = clock(&a[0]);
        match a.iter().chain(&b).map(clock).find(|c| *c != first) {
            None => {
                let us = first.0.as_ref().and_then(Json::as_f64).unwrap_or(0.0);
                println!("  modeled clock identical in every run: {us} us");
            }
            Some(other) => {
                code = 1;
                println!("  MODELED CLOCK CHANGED: {first:?} -> {other:?}");
            }
        }
    }
    Ok(code)
}
