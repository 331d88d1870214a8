//! The repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid_cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root.  One run sets the workload up several
//! times (the median is `setup_s`), then runs its operation until
//! `--seconds` have passed, checking every output against a reference made
//! by the plainest path.  With `--trace 0` it reports the end-to-end
//! metrics; with `--trace 1` it alternates untraced operations with traced
//! ones, which drive the same work layer by layer, and reports the
//! per-layer metrics.  The last line of standard output is the result as
//! one JSON object; the line before it records the host and inputs.  See
//! `perfbench/README.md` for every metric.

mod calibrate;
mod fanout;
mod grid;
mod mix;
mod procfs;
mod redrive;
mod rng;
mod serve;
mod spans;
mod stats;
mod suite;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::{Layers, Outcome, Workload};

/// Where runs keep their caches, checkpoints and span files, relative to
/// the directory the benchmark runs in.
const WORK_DIR: &str = ".perfbench";
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest operations a run measures, however short `--seconds` is.
const MIN_OPS: usize = 3;
/// Load threads of every workload, and so of the calibration loop.
const LOAD_THREADS: usize = 2;

/// The end-to-end metrics: name and unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("uops_per_s", "1/s"),
];

/// The per-layer metrics: name and unit.
const PER_LAYER: &[(&str, &str)] = &[
    ("trace.synth_ns", "ns"),
    ("trace.synth_uops", "count"),
    ("trace.synth_useful_ratio", "ratio"),
    ("sim.busy_ns", "ns"),
    ("sim.cells", "count"),
    ("sim.uops", "count"),
    ("sim.ns_per_uop", "ns"),
    ("sim.cell_ns_p50", "ns"),
    ("sim.cell_ns_max", "ns"),
    ("sim.cycles", "count"),
    ("sim.ir_speedup_pct", "%"),
    ("cache.open_ns", "ns"),
    ("cache.index_bytes", "bytes"),
    ("cache.lookup_ns", "ns"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.inserts", "count"),
    ("cache.dedupe_leads", "count"),
    ("cache.dedupe_joins", "count"),
    ("cache.hit_ratio", "ratio"),
    ("campaign.run_ns", "ns"),
    ("campaign.self_ns", "ns"),
    ("campaign.row_skew", "ratio"),
    ("report.encode_ns", "ns"),
    ("report.encode_bytes", "bytes"),
    ("report.decode_ns", "ns"),
    ("report.decode_bytes", "bytes"),
    ("spec.decode_ns", "ns"),
    ("fanout.worker_ns_max", "ns"),
    ("fanout.worker_ns_min", "ns"),
    ("fanout.merge_ns", "ns"),
    ("fanout.shards_stolen", "count"),
    ("fanout.shard_bytes", "bytes"),
    ("serve.accept_ms_p50", "ms"),
    ("serve.stream_ms_p50", "ms"),
    ("serve.report_ms_p50", "ms"),
    ("serve.req_p50_ms", "ms"),
    ("serve.req_p95_ms", "ms"),
    ("serve.req_samples", "count"),
    ("serve.frames", "count"),
    ("serve.server_nanos_total", "ns"),
    ("traced.coverage", "ratio"),
    ("traced.overhead", "ratio"),
];

/// Sets a workload up from its seed and work directory.
type Setup = fn(u64, PathBuf) -> Box<dyn Workload>;

/// Workload name, µops per row, the `rayon` thread cap it runs under, and
/// its set-up.
const WORKLOADS: &[(&str, usize, usize, Setup)] = &[
    ("grid_cold", grid::TRACE_LEN, grid::THREADS, |seed, _| {
        Box::new(grid::GridCold::setup(seed))
    }),
    (
        "suite_warm",
        suite::TRACE_LEN,
        suite::THREADS,
        |seed, dir| Box::new(suite::SuiteWarm::setup(seed, dir)),
    ),
    ("fanout_merge", suite::TRACE_LEN, 1, |seed, dir| {
        Box::new(fanout::FanoutMerge::setup(seed, dir))
    }),
    ("serve_mixed", mix::TRACE_LEN, 1, |seed, dir| {
        Box::new(serve::ServeMixed::setup(seed, dir))
    }),
];

struct Args {
    workload: &'static str,
    setup: Setup,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload grid_cold|suite_warm|fanout_merge|serve_mixed \
                     --seed N --seconds S --trace 0|1";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |flag: &str| flags.remove(flag).ok_or_else(|| format!("missing {flag}"));
    let name = take("--workload")?;
    let &(workload, _, _, setup) = WORKLOADS
        .iter()
        .find(|w| w.0 == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let number = |flag: &str, text: String| {
        text.parse::<u64>()
            .map_err(|_| format!("{flag} takes a whole number, not {text:?}"))
    };
    let seed = number("--seed", take("--seed")?)?;
    let seconds = number("--seconds", take("--seconds")?)?;
    let trace = match take("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    if let Some(flag) = flags.keys().next() {
        return Err(format!("unknown flag {flag}"));
    }
    Ok(Args {
        workload,
        setup,
        seed,
        seconds,
        trace,
    })
}

/// One measured operation.
struct Sample<T = Outcome> {
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    /// The host's slowness just before the operation (see [`calibrate`]).
    slowness: f64,
    outcome: T,
}

fn measure<T>(calibrator: &mut calibrate::Calibrator, run: impl FnOnce() -> T) -> Sample<T> {
    let slowness = calibrator.slowness();
    procfs::reset_peak_rss();
    let cpu = procfs::cpu_seconds();
    let start = Instant::now();
    let outcome = run();
    let wall_s = start.elapsed().as_secs_f64();
    Sample {
        wall_s,
        cpu_s: procfs::cpu_seconds() - cpu,
        peak_rss_mb: procfs::peak_rss_mb(),
        slowness,
        outcome,
    }
}

fn median_of(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> f64 {
    let values: Vec<f64> = samples.iter().map(f).collect();
    stats::median(&values).unwrap_or(0.0)
}

fn midmean_of(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> f64 {
    let values: Vec<f64> = samples.iter().map(f).collect();
    stats::midmean(&values).unwrap_or(0.0)
}

/// Request latencies of `samples`: each operation's requests, or the
/// operation itself when it is one request.
fn request_ms(samples: &[Sample]) -> Vec<f64> {
    samples
        .iter()
        .flat_map(|s| match s.outcome.requests_ms.is_empty() {
            true => vec![s.wall_s * 1e3],
            false => s.outcome.requests_ms.clone(),
        })
        .collect()
}

fn end_to_end(setups: &[(f64, f64)], samples: &[Sample]) -> BTreeMap<&'static str, f64> {
    let requests = stats::summarize(&request_ms(samples));
    eprintln!(
        "perfbench: {} operations, uncorrected wall median {:.4} s, host slowness median {:.3}; \
         {} requests, uncorrected median {:.3} ms{}",
        samples.len(),
        median_of(samples, |s| s.wall_s),
        median_of(samples, |s| s.slowness),
        requests.samples,
        requests.median.unwrap_or(0.0),
        requests
            .tail
            .map(|(p, v)| format!(", p{p} {v:.3} ms"))
            .unwrap_or_default(),
    );
    // One correction per run, from the median of its calibrations: a single
    // calibration is jittery, the run's median is not.
    let setup_slowness =
        stats::median(&setups.iter().map(|s| s.1).collect::<Vec<_>>()).unwrap_or(1.0);
    let setup_s = stats::median(&setups.iter().map(|s| s.0).collect::<Vec<_>>()).unwrap_or(0.0);
    let slowness = median_of(samples, |s| s.slowness);
    BTreeMap::from([
        ("setup_s", setup_s / setup_slowness),
        ("wall_s", midmean_of(samples, |s| s.wall_s) / slowness),
        ("cpu_s", midmean_of(samples, |s| s.cpu_s) / slowness),
        // The leanest operation's peak: later operations also carry memory
        // the allocator kept from earlier ones, in steps of several MiB
        // that differ from run to run.
        (
            "peak_rss_mb",
            samples
                .iter()
                .map(|s| s.peak_rss_mb)
                .fold(f64::INFINITY, f64::min),
        ),
        (
            "uops_per_s",
            midmean_of(samples, |s| s.outcome.uops as f64 / s.wall_s) * slowness,
        ),
    ])
}

fn per_layer(
    untraced: &[Sample],
    traced: &[Sample],
    layers: &[Layers],
) -> BTreeMap<&'static str, f64> {
    let mut metrics: BTreeMap<&'static str, f64> = PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let values: Vec<f64> = layers.iter().filter_map(|l| l.get(name).copied()).collect();
            (name, stats::median(&values).unwrap_or(0.0))
        })
        .collect();
    let untraced_wall = median_of(untraced, |s| s.wall_s);
    metrics.insert(
        "traced.overhead",
        median_of(traced, |s| s.wall_s) / untraced_wall - 1.0,
    );
    if untraced.iter().any(|s| !s.outcome.requests_ms.is_empty()) {
        let requests = request_ms(untraced);
        metrics.insert("serve.req_p50_ms", stats::median(&requests).unwrap_or(0.0));
        metrics.insert(
            "serve.req_p95_ms",
            stats::percentile(&requests, 95.0).unwrap_or(0.0),
        );
        metrics.insert("serve.req_samples", requests.len() as f64);
    }
    metrics
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(
    attempted: u64,
    failed: u64,
    metrics: &BTreeMap<&'static str, f64>,
    units: &[(&str, &str)],
) -> String {
    let fields: Vec<String> = units
        .iter()
        .map(|&(name, unit)| {
            let value = metrics[name];
            assert!(value.is_finite(), "metric {name} is {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        fields.join(", ")
    )
}

/// The line before the result: what was measured, where and with what.
fn meta_line(args: &Args, ops: usize) -> String {
    let &(_, trace_len, thread_cap, _) = WORKLOADS
        .iter()
        .find(|w| w.0 == args.workload)
        .expect("parse_args admits only known workloads");
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let commit = git_commit(Path::new(".")).map_or("null".to_string(), |c| format!("\"{c}\""));
    format!(
        "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"operations\": {ops}, \"setup_reps\": {SETUP_REPS}, \"nproc\": {nproc}, \
         \"rustc\": \"{}\", \"git_commit\": {commit}, \"trace_len\": {trace_len}, \
         \"thread_cap\": {thread_cap}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env!("PERFBENCH_RUSTC_VERSION"),
    )
}

/// The checked-out commit, read from `.git` without running git; `None`
/// outside a git checkout.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(commit) = std::fs::read_to_string(git.join(reference)) {
        return Some(commit.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (commit, name) = line.split_once(' ')?;
        (name == reference).then(|| commit.to_string())
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let dir = Path::new(WORK_DIR).join(args.workload);
    let fresh = |dir: &Path| {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("the work directory can be created");
    };

    let mut calibrator = calibrate::Calibrator::new(LOAD_THREADS);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        drop(workload.take());
        fresh(&dir);
        let slowness = calibrator.slowness();
        let start = Instant::now();
        workload = Some((args.setup)(args.seed, dir.clone()));
        setups.push((start.elapsed().as_secs_f64(), slowness));
    }
    let mut workload = workload.expect("at least one set-up ran");
    let (mut attempted, mut failed) = (0, 0);
    if !workload.check_setup() {
        eprintln!("perfbench: the set-up reference disagrees with the plainest path");
        failed += 1;
    }
    attempted += 1;

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let tracer = spans::Tracer::new();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut layers = Vec::new();
    loop {
        untraced.push(measure(&mut calibrator, || workload.run()));
        workload.reset();
        if args.trace {
            let Sample {
                wall_s,
                cpu_s,
                peak_rss_mb,
                slowness,
                outcome: (root, outcome, mut l),
            } = measure(&mut calibrator, || workload.run_traced(&tracer));
            l.insert(
                "traced.coverage",
                workload::coverage(&tracer.tree(root), root),
            );
            layers.push(l);
            traced.push(Sample {
                wall_s,
                cpu_s,
                peak_rss_mb,
                slowness,
                outcome,
            });
            workload.reset();
        }
        if untraced.len() >= MIN_OPS && Instant::now() >= deadline {
            break;
        }
    }
    for s in untraced.iter().chain(&traced) {
        attempted += s.outcome.attempted;
        failed += s.outcome.failed;
    }
    drop(workload);

    println!("{}", meta_line(&args, untraced.len() + traced.len()));
    let line = if args.trace {
        let spans_file =
            Path::new(WORK_DIR).join(format!("spans-{}-{}.ndjson", args.workload, args.seed));
        if let Err(e) = tracer.write_ndjson(&spans_file) {
            eprintln!("perfbench: cannot write {}: {e}", spans_file.display());
        }
        result_line(
            attempted,
            failed,
            &per_layer(&untraced, &traced, &layers),
            PER_LAYER,
        )
    } else {
        result_line(
            attempted,
            failed,
            &end_to_end(&setups, &untraced),
            END_TO_END,
        )
    };
    let _ = std::fs::remove_dir_all(&dir);
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Result<Args, String> {
        parse_args(text.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_parse_and_refuse_nonsense() {
        let a = args("--workload serve_mixed --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            ("serve_mixed", 7, 10, true)
        );
        assert!(args("--workload nope --seed 7 --seconds 10 --trace 1").is_err());
        assert!(args("--workload grid_cold --seed x --seconds 10 --trace 1").is_err());
        assert!(args("--workload grid_cold --seed 1 --seconds 10 --trace 2").is_err());
        assert!(args("--workload grid_cold --seed 1 --seconds 10").is_err());
        assert!(args("--workload grid_cold --seed 1 --seconds 10 --trace 0 --extra 1").is_err());
    }

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// this program reports, with the same units.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = serde::json::parse(&text).expect("BENCHMARK.json is JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(serde::Value::as_seq)
                .expect("a metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(serde::Value::as_str)
                            .expect("a string field")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(serde::Value::as_seq)
            .expect("a workload list")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(serde::Value::as_str)
                    .expect("a name")
            })
            .collect();
        assert_eq!(workloads, WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>());
    }
}
