//! Regenerate every table and figure of the paper's evaluation section.
//!
//! ```text
//! reproduce [FIGURE ...] [--trace-len N] [--apps-per-category N] [--full-suite]
//!           [--threads N] [--shards N] [--checkpoint DIR] [--resume]
//!           [--cache DIR] [--no-cache] [--json] [--csv]
//! ```
//!
//! `--threads N` caps the worker threads the parallel sweeps fan out over
//! (0 = all cores).  Without the flag, the `REPRODUCE_THREADS` environment
//! variable is consulted, then `RAYON_NUM_THREADS` (honoured by the thread
//! pool itself), then all available cores.
//!
//! With no arguments every figure is reproduced.  Figure names: `table1`,
//! `table2`, `fig1`, `fig5`, `fig6`, `fig7`, `fig8`, `fig9`, `fig11`, `fig12`,
//! `fig13`, `fig14`, `headline`, `ed2`, `summary`.
//!
//! `campaign` is opt-in (it duplicates the headline grid's work): it runs
//! the full 7-policy × 12-trace grid through
//! [`hc_core::campaign`] — every trace's monolithic baseline is simulated
//! exactly once — and prints a Markdown summary, the versioned JSON report
//! (`--json`) or the stable CSV cells (`--csv`).
//!
//! `suite` is opt-in too: the §3.8 Table 2 suite (IR policy,
//! `--apps-per-category N` applications per category, or all 409 with
//! `--full-suite`) as one sharded, streaming campaign.  `--shards N` splits
//! the suite into N deterministic shards (merged reports are byte-identical
//! for any shard count); `--checkpoint DIR` writes each completed shard to
//! disk and `--resume` skips shards already on disk.  Traces are synthesized
//! per worker, so even the full suite holds O(threads) traces in memory.
//!
//! `--cache DIR` opens (or initialises) a content-addressed cell cache for
//! the campaign modes (`campaign`, `suite`, `sensitivity`): every simulated
//! cell and baseline is memoized on disk, a repeated invocation replays
//! cached cells instead of re-simulating them, and the emitted JSON/CSV is
//! byte-identical either way.  Cache hit/miss counters go to stderr.  The
//! `REPRODUCE_CACHE` environment variable supplies a default directory;
//! `--no-cache` disables caching even when it is set.  With a warm cache,
//! `--shards N` partitions by *observed per-row cost* (LPT bin packing)
//! instead of round-robin, so one slow trace cannot straggle a shard set.
//!
//! `suite --of N` switches to the multi-process **fan-out worker** mode:
//! the process joins (or, first arrival, plans) an N-way partition rooted
//! at `--checkpoint DIR`, claims shards through heartbeat-renewed lease
//! files, executes each claimed shard and writes its `shard_NNNN.json`
//! via the checkpoint protocol's tmp+rename path, then exits.
//! `--shard-index K` names the worker's home shard (claimed first);
//! stealing — picking up a straggler's or crashed peer's unfinished
//! shards, most expensive first per recorded cost — is on by default and
//! disabled with `--no-steal` (the worker then executes exactly its home
//! shard).  `--lease-timeout-secs S` sets the staleness window after
//! which a dead worker's lease may be broken.  Run one worker per
//! shard (or fewer — stealing covers the rest) across any number of
//! machines sharing the directory.
//!
//! `merge` is the fan-out's coordinator: it validates the checkpoint
//! directory's shard set against its manifest (typed conflict errors;
//! mixed-plan directories are refused) and emits a merged report
//! **byte-identical** to the single-process `suite` run.  `--wait` polls
//! until every shard lands (bound it with `--merge-timeout-secs S`);
//! without it, missing shards are an immediate error.
//!
//! `sensitivity` is opt-in as well: the paper-grounded hardware sensitivity
//! study as one N-D scenario campaign — the IR policy over the SPEC suite ×
//! the helper width {4, 8, 16} × clock ratio {1×, 2×, 4×} plane — run
//! through the same sharded streaming engine (`--shards`, `--checkpoint`,
//! `--resume`, `--json`, `--csv` all apply).  Markdown output adds the
//! width-predictor table-size sweep {256 … 4096} as a second figure.
//!
//! `serve` turns the campaign engine into a long-lived daemon
//! (`hc_serve`): it binds `--addr` (default `127.0.0.1:0`; the bound
//! address goes to stderr and, tmp+rename atomically, to `--addr-file`),
//! shares one `--cache` directory and one worker pool across every
//! request, and streams campaign results back as NDJSON.  `--max-requests
//! N` drains and exits after N campaign submissions settle; `POST
//! /shutdown` does the same on demand.  `submit` is the client: it sends
//! the spec in `--spec FILE` (default: the `campaign` mode's 7×12 grid at
//! `--trace-len`) to `--addr` (or the address read from `--addr-file`),
//! mirrors progress frames to stderr, and prints the final report JSON to
//! stdout — byte-identical to offline `reproduce campaign --json`.
//! `submit --metrics` prints the daemon's `/metrics` document instead;
//! `submit --shutdown` asks it to drain.  Given both, the two control
//! requests share one persistent (keep-alive) connection.
//!
//! `cache-gc` sweeps a `--cache` directory: `--max-age-secs S` evicts
//! entries unused for longer than S, then `--max-bytes N` evicts
//! least-recently-used entries until at most N bytes remain; `--dry-run`
//! reports what would go without deleting anything.  Eviction only drops
//! index entries; `--compact` additionally rewrites every sealed segment
//! file so the reclaimed bytes actually leave the disk.  `cache-pack`
//! migrates a legacy one-file-per-cell cache into the packed segment
//! layout in place, preserving LRU order and report bytes.

use hc_core::cache::{CellCache, GcPolicy};
use hc_core::campaign::{CampaignBuilder, CampaignError, CampaignRunner, CampaignSpec};
use hc_core::fanout::{FanoutWorker, MergeCoordinator, MergeWait};
use hc_core::figures;
use hc_core::policy::PolicyKind;
use hc_core::report::{
    campaign_to_markdown, figure_to_markdown, kv_table_to_markdown, scenario_summary_to_markdown,
};
use hc_core::shard::ShardedCampaignRunner;
use hc_core::suite::SuiteRunner;
use hc_power::{Ed2Comparison, PowerModel};
use hc_trace::{paper_suite, reduced_suite, SpecBenchmark};
use std::path::Path;
use std::sync::Arc;

struct Options {
    figures: Vec<String>,
    trace_len: usize,
    apps_per_category: usize,
    full_suite: bool,
    json: bool,
    csv: bool,
    threads: Option<usize>,
    shards: usize,
    checkpoint: Option<String>,
    resume: bool,
    shard_index: Option<usize>,
    of: Option<usize>,
    no_steal: bool,
    lease_timeout_secs: u64,
    worker_id: Option<String>,
    wait: bool,
    merge_timeout_secs: Option<u64>,
    cache: Option<String>,
    no_cache: bool,
    addr: Option<String>,
    addr_file: Option<String>,
    max_requests: Option<u64>,
    spec: Option<String>,
    metrics: bool,
    shutdown: bool,
    max_bytes: Option<u64>,
    max_age_secs: Option<u64>,
    dry_run: bool,
    compact: bool,
    out: Option<String>,
    trace_files: Vec<String>,
    bench: Option<String>,
    results_only: bool,
}

fn parse_args() -> Options {
    let mut opts = Options {
        figures: Vec::new(),
        trace_len: hc_bench::REPRODUCE_TRACE_LEN,
        apps_per_category: hc_bench::REPRODUCE_APPS_PER_CATEGORY,
        full_suite: false,
        json: false,
        csv: false,
        // Environment override; the --threads flag takes precedence.
        threads: std::env::var("REPRODUCE_THREADS")
            .ok()
            .and_then(|v| v.parse().ok()),
        shards: 1,
        checkpoint: None,
        resume: false,
        shard_index: None,
        of: None,
        no_steal: false,
        lease_timeout_secs: 30,
        worker_id: None,
        wait: false,
        merge_timeout_secs: None,
        // Environment default; --cache overrides, --no-cache disables.
        cache: std::env::var("REPRODUCE_CACHE").ok(),
        no_cache: false,
        addr: None,
        addr_file: None,
        max_requests: None,
        spec: None,
        metrics: false,
        shutdown: false,
        max_bytes: None,
        max_age_secs: None,
        dry_run: false,
        compact: false,
        out: None,
        trace_files: Vec::new(),
        bench: None,
        results_only: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--trace-len" => {
                opts.trace_len = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(opts.trace_len)
            }
            "--apps-per-category" => {
                opts.apps_per_category = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(opts.apps_per_category)
            }
            "--threads" => opts.threads = args.next().and_then(|v| v.parse().ok()).or(opts.threads),
            "--shards" => {
                opts.shards = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(opts.shards)
            }
            "--checkpoint" => opts.checkpoint = args.next().or(opts.checkpoint),
            "--resume" => opts.resume = true,
            "--shard-index" => opts.shard_index = args.next().and_then(|v| v.parse().ok()),
            "--of" => opts.of = args.next().and_then(|v| v.parse().ok()),
            "--no-steal" => opts.no_steal = true,
            "--lease-timeout-secs" => {
                opts.lease_timeout_secs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(opts.lease_timeout_secs)
            }
            "--worker-id" => opts.worker_id = args.next().or(opts.worker_id),
            "--wait" => opts.wait = true,
            "--merge-timeout-secs" => {
                opts.merge_timeout_secs = args.next().and_then(|v| v.parse().ok())
            }
            "--cache" => opts.cache = args.next().or(opts.cache),
            "--no-cache" => opts.no_cache = true,
            "--addr" => opts.addr = args.next().or(opts.addr),
            "--addr-file" => opts.addr_file = args.next().or(opts.addr_file),
            "--max-requests" => opts.max_requests = args.next().and_then(|v| v.parse().ok()),
            "--spec" => opts.spec = args.next().or(opts.spec),
            "--metrics" => opts.metrics = true,
            "--shutdown" => opts.shutdown = true,
            "--max-bytes" => opts.max_bytes = args.next().and_then(|v| v.parse().ok()),
            "--max-age-secs" => opts.max_age_secs = args.next().and_then(|v| v.parse().ok()),
            "--dry-run" => opts.dry_run = true,
            "--compact" => opts.compact = true,
            "--out" => opts.out = args.next().or(opts.out),
            "--trace" => opts.trace_files.extend(args.next()),
            "--bench" => opts.bench = args.next().or(opts.bench),
            "--results-only" => opts.results_only = true,
            "--full-suite" => opts.full_suite = true,
            "--json" => opts.json = true,
            "--csv" => opts.csv = true,
            "--help" | "-h" => {
                println!(
                    "usage: reproduce [FIGURE ...] [--trace-len N] [--apps-per-category N] [--full-suite] [--threads N] [--shards N] [--checkpoint DIR] [--resume] [--cache DIR] [--no-cache] [--json] [--csv]\n\
                     \n\
                     multi-process fan-out:\n\
                     \x20      reproduce suite    --of N [--shard-index K] --checkpoint DIR [--no-steal] [--lease-timeout-secs S] [--worker-id NAME]\n\
                     \x20      reproduce merge    --checkpoint DIR [--wait] [--merge-timeout-secs S] [--json] [--csv]\n\
                     \n\
                     campaign service:\n\
                     \x20      reproduce serve    [--addr HOST:PORT] [--addr-file PATH] [--cache DIR] [--max-requests N] [--threads N]\n\
                     \x20      reproduce submit   (--addr HOST:PORT | --addr-file PATH) [--spec FILE | --trace-len N] [--metrics] [--shutdown]\n\
                     \n\
                     cache maintenance:\n\
                     \x20      reproduce cache-gc   --cache DIR [--max-bytes N] [--max-age-secs S] [--dry-run] [--compact]\n\
                     \x20      reproduce cache-pack --cache DIR\n\
                     \n\
                     cache-gc evicts by age then LRU size budget; --compact additionally rewrites\n\
                     every sealed segment so the cache ends up densely packed.  cache-pack migrates\n\
                     a legacy per-file cache into the packed segment layout in place (LRU order\n\
                     preserved); reports stay byte-identical before and after.\n\
                     \n\
                     µop-trace recordings:\n\
                     \x20      reproduce trace-record BENCH --out FILE [--trace-len N]\n\
                     \x20      reproduce trace-info FILE\n\
                     \x20      reproduce campaign [--trace FILE ...] [--bench BENCH] [--results-only] [--json]\n\
                     \n\
                     trace-record streams a SPEC stand-in benchmark (bzip2, crafty, ..., gzip, ...)\n\
                     into a checksummed binary .uoptrace file; trace-info prints its header and\n\
                     verifies every frame (on a damaged file it reports the sound prefix).\n\
                     campaign --trace FILE replaces the grid's trace rows with recordings, streamed\n\
                     from disk; --bench BENCH restricts the grid to one benchmark; --results-only\n\
                     prints only the baselines and cells JSON, so a campaign over a recording can\n\
                     be byte-diffed against the same campaign over the selector that recorded it."
                );
                std::process::exit(0);
            }
            other => opts.figures.push(other.to_string()),
        }
    }
    opts
}

fn wanted(opts: &Options, name: &str) -> bool {
    opts.figures.is_empty() || opts.figures.iter().any(|f| f == name)
}

/// Unwrap a figure/campaign result or exit with the typed error as a usage
/// error — malformed inputs and reports must never abort via panic.
fn or_die<T>(mode: &str, result: Result<T, CampaignError>) -> T {
    match result {
        Ok(value) => value,
        Err(e) => {
            eprintln!("{mode}: {e}");
            std::process::exit(2);
        }
    }
}

/// Open the cell cache named by `--cache` / `REPRODUCE_CACHE`, if any.
fn open_cache(opts: &Options, mode: &str) -> Option<Arc<CellCache>> {
    if opts.no_cache {
        return None;
    }
    let dir = opts.cache.as_deref()?;
    Some(Arc::new(or_die(mode, CellCache::open(dir))))
}

/// Report a cache's counters to stderr (never stdout: the JSON/CSV payloads
/// must stay byte-identical between cold and warm runs).
fn report_cache_activity(mode: &str, cache: &CellCache) {
    let s = cache.stats();
    eprintln!(
        "{mode}: cache: {} hits, {} misses, {} inserts, {} evictions, {} dedupe joins; {} entries, {} bytes ({})",
        s.hits,
        s.misses,
        s.inserts,
        s.evictions,
        s.dedupe_joins,
        s.entries,
        s.bytes,
        cache.root().display()
    );
}

fn print_curve_summary(curve: &[f64]) {
    let n = curve.len();
    if n == 0 {
        return;
    }
    println!(
        "S-curve over {n} apps: min {:.3}, p25 {:.3}, median {:.3}, p75 {:.3}, max {:.3}\n",
        curve[0],
        curve[n / 4],
        curve[n / 2],
        curve[3 * n / 4],
        curve[n - 1]
    );
}

/// The `campaign` mode's spec — also what `submit` sends when no `--spec`
/// file is given, so the served stream can be diffed against the offline
/// `campaign --json` output directly.
fn grid_spec(len: usize) -> Result<CampaignSpec, CampaignError> {
    CampaignBuilder::new("spec-grid")
        .paper_policies()
        .spec_suite()
        .trace_len(len)
        .build()
}

/// The `serve` mode: stand the campaign daemon up and run it until it
/// drains (`POST /shutdown` or `--max-requests`).
fn run_serve_mode(opts: &Options) {
    let addr = opts
        .addr
        .clone()
        .unwrap_or_else(|| "127.0.0.1:0".to_string());
    let cache_dir = if opts.no_cache {
        None
    } else {
        opts.cache.clone().map(std::path::PathBuf::from)
    };
    let server = match hc_serve::Server::bind(hc_serve::ServeOptions {
        addr,
        cache_dir,
        max_requests: opts.max_requests,
        ..hc_serve::ServeOptions::default()
    }) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("serve: {e}");
            std::process::exit(2);
        }
    };
    let bound = server.local_addr();
    eprintln!(
        "serve: listening on {bound}{}",
        match server.cache() {
            Some(cache) => format!(", cache {}", cache.root().display()),
            None => ", no cache (dedupe off)".to_string(),
        }
    );
    if let Some(path) = &opts.addr_file {
        // tmp+rename, so a submitter polling for the file never reads a
        // half-written address.
        let tmp = format!("{path}.tmp");
        let written =
            std::fs::write(&tmp, format!("{bound}\n")).and_then(|()| std::fs::rename(&tmp, path));
        if let Err(e) = written {
            eprintln!("serve: cannot write --addr-file {path}: {e}");
            std::process::exit(2);
        }
    }
    let cache = server.cache().map(Arc::clone);
    if let Err(e) = server.serve() {
        eprintln!("serve: {e}");
        std::process::exit(2);
    }
    if let Some(cache) = &cache {
        report_cache_activity("serve", cache);
    }
    eprintln!("serve: drained");
}

/// Resolve the daemon address for `submit`: `--addr` wins, then the
/// contents of `--addr-file` (as written by `serve`).
fn submit_addr(opts: &Options) -> String {
    if let Some(addr) = &opts.addr {
        return addr.clone();
    }
    if let Some(path) = &opts.addr_file {
        match std::fs::read_to_string(path) {
            Ok(contents) => return contents.trim().to_string(),
            Err(e) => {
                eprintln!("submit: cannot read --addr-file {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    eprintln!("submit: provide --addr HOST:PORT or --addr-file PATH");
    std::process::exit(2);
}

/// The `submit` mode: stream a campaign through a running daemon (or fetch
/// its `/metrics`, or ask it to drain).
fn run_submit_mode(opts: &Options, len: usize) {
    let addr = submit_addr(opts);
    if opts.metrics || opts.shutdown {
        // Both control requests ride one persistent connection: a single
        // TCP handshake whether you ask for metrics, a drain, or both.
        let mut conn = match hc_serve::client::Connection::connect(&addr) {
            Ok(conn) => conn,
            Err(e) => {
                eprintln!("submit: {e}");
                std::process::exit(2);
            }
        };
        if opts.metrics {
            match conn.get("/metrics") {
                Ok(body) => print!("{body}"),
                Err(e) => {
                    eprintln!("submit: {e}");
                    std::process::exit(2);
                }
            }
        }
        if opts.shutdown {
            if let Err(e) = conn.shutdown() {
                eprintln!("submit: {e}");
                std::process::exit(2);
            }
            eprintln!("submit: daemon at {addr} is draining");
        }
        return;
    }
    let spec_json = match &opts.spec {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(contents) => contents,
            Err(e) => {
                eprintln!("submit: cannot read --spec {path}: {e}");
                std::process::exit(2);
            }
        },
        None => or_die("submit", grid_spec(len)).to_json(),
    };
    // Progress frames mirror the offline progress hook's stderr format;
    // the report goes to stdout via `println!`, exactly like the offline
    // `campaign --json` path, so the two outputs are byte-identical.
    let report = hc_serve::client::submit(&addr, &spec_json, |frame| {
        use hc_serve::protocol;
        if protocol::frame_event(frame) == protocol::EVENT_CELL {
            let field = |key: &str| frame.get(key).and_then(serde::Value::as_str).unwrap_or("?");
            eprintln!(
                "[{}/{}] {} × {} × {}",
                protocol::frame_uint(frame, "completed").unwrap_or(0),
                protocol::frame_uint(frame, "total").unwrap_or(0),
                field("policy"),
                field("trace"),
                field("scenario")
            );
        }
    });
    match report {
        Ok(report) => println!("{report}"),
        Err(e) => {
            eprintln!("submit: {e}");
            std::process::exit(2);
        }
    }
}

/// The `cache-gc` mode: size/age-capped LRU sweep of a cell cache, plus
/// segment compaction (forced by `--compact`, otherwise ratio-triggered).
fn run_cache_gc_mode(opts: &Options) {
    let Some(dir) = opts.cache.as_deref() else {
        eprintln!("cache-gc: provide --cache DIR (or set REPRODUCE_CACHE)");
        std::process::exit(2);
    };
    let cache = or_die("cache-gc", CellCache::open(dir));
    let policy = GcPolicy {
        max_bytes: opts.max_bytes,
        max_age: opts.max_age_secs.map(std::time::Duration::from_secs),
        dry_run: opts.dry_run,
        compact: opts.compact,
    };
    let outcome = or_die("cache-gc", cache.gc(&policy));
    println!(
        "{}: {}evicted {} entries ({} bytes), kept {} entries ({} bytes); compacted {} segment(s), reclaimed {} bytes",
        cache.root().display(),
        if opts.dry_run { "would have " } else { "" },
        outcome.evicted,
        outcome.evicted_bytes,
        outcome.kept,
        outcome.kept_bytes,
        outcome.compacted_segments,
        outcome.reclaimed_bytes
    );
}

/// The `cache-pack` mode: migrate a legacy per-file cache into the packed
/// segment layout in place, then compact to one dense segment.
fn run_cache_pack_mode(opts: &Options) {
    let Some(dir) = opts.cache.as_deref() else {
        eprintln!("cache-pack: provide --cache DIR (or set REPRODUCE_CACHE)");
        std::process::exit(2);
    };
    let cache = or_die("cache-pack", CellCache::open(dir));
    let outcome = or_die("cache-pack", cache.pack());
    println!(
        "{}: migrated {} legacy entries ({} dropped as unreadable); compacted {} segment(s), reclaimed {} bytes",
        cache.root().display(),
        outcome.migrated,
        outcome.dropped,
        outcome.compacted_segments,
        outcome.reclaimed_bytes
    );
}

/// Resolve a `--bench`/`trace-record` benchmark name to its SPEC stand-in,
/// or exit with a usage error listing the valid names.
fn parse_bench(mode: &str, name: &str) -> SpecBenchmark {
    match SpecBenchmark::ALL.iter().find(|b| b.name() == name) {
        Some(&b) => b,
        None => {
            let names: Vec<&str> = SpecBenchmark::ALL.iter().map(|b| b.name()).collect();
            eprintln!(
                "{mode}: unknown benchmark `{name}`; expected one of: {}",
                names.join(", ")
            );
            std::process::exit(2);
        }
    }
}

/// The `trace-record` mode: synthesize one SPEC stand-in trace and stream
/// it into a checksummed binary `.uoptrace` recording.
fn run_trace_record_mode(opts: &Options, len: usize) {
    let Some(name) = opts.figures.iter().find(|f| *f != "trace-record") else {
        eprintln!(
            "trace-record: name a benchmark (e.g. `reproduce trace-record gzip --out gzip.uoptrace`)"
        );
        std::process::exit(2);
    };
    let Some(out) = opts.out.as_deref() else {
        eprintln!("trace-record: provide --out FILE");
        std::process::exit(2);
    };
    let bench = parse_bench("trace-record", name);
    let mut source = hc_trace::MaterializedSource::new(bench.trace(len));
    match hc_trace::record_source(Path::new(out), &mut source) {
        Ok(header) => eprintln!(
            "trace-record: wrote `{}` ({} µops, digest {:016x}) to {out}",
            header.name, header.uop_count, header.content_digest
        ),
        Err(e) => {
            eprintln!("trace-record: {out}: {e}");
            std::process::exit(2);
        }
    }
}

/// The `trace-info` mode: print a recording's header and verify every
/// frame; a damaged file reports its recoverable sound prefix.
fn run_trace_info_mode(opts: &Options) {
    let Some(path) = opts.figures.iter().find(|f| *f != "trace-info") else {
        eprintln!("trace-info: name a .uoptrace file");
        std::process::exit(2);
    };
    let header = match hc_trace::read_header(Path::new(path)) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("trace-info: {path}: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "trace `{}`{}",
        header.name,
        header
            .category
            .as_deref()
            .map(|c| format!(" (category {c})"))
            .unwrap_or_default()
    );
    println!("µops: {}", header.uop_count);
    println!("content digest: {:016x}", header.content_digest);
    println!(
        "format v{}, isa encoding v{}",
        header.format_version, header.isa_encoding_version
    );
    match hc_trace::FileSource::open(Path::new(path)) {
        Ok(_) => println!("frames: all sound"),
        Err(e) => {
            println!("frames: {e}");
            match hc_trace::recover(Path::new(path)) {
                Ok(tail) => println!(
                    "recoverable prefix: {} µops in {} frames (damage at byte {})",
                    tail.sound_uops, tail.sound_frames, tail.tail_offset
                ),
                Err(e) => println!("unrecoverable: {e}"),
            }
            std::process::exit(1);
        }
    }
}

/// The `campaign` mode's spec under the trace flags: recordings replace the
/// grid's trace rows (`--trace FILE`, repeatable), or the grid restricts to
/// one benchmark (`--bench`); otherwise the full 7×12 grid runs as before.
fn campaign_spec(opts: &Options, len: usize) -> Result<CampaignSpec, CampaignError> {
    if !opts.trace_files.is_empty() {
        let mut builder = CampaignBuilder::new("spec-grid")
            .paper_policies()
            .trace_len(len);
        for path in &opts.trace_files {
            builder = builder.trace_file(path);
        }
        return builder.build();
    }
    if let Some(name) = &opts.bench {
        return CampaignBuilder::new("spec-grid")
            .paper_policies()
            .spec(parse_bench("campaign", name))
            .trace_len(len)
            .build();
    }
    grid_spec(len)
}

/// Render only a report's `baselines` and `cells` arrays — the parts that
/// must be byte-identical between a campaign over a recording and one over
/// the selector that recorded it (the embedded specs legitimately differ:
/// one names a file, the other a benchmark).
fn results_only_json(report: &hc_core::campaign::CampaignReport) -> String {
    let value = serde::Value::Map(vec![
        (
            "baselines".to_string(),
            serde::Serialize::to_value(&report.baselines),
        ),
        (
            "cells".to_string(),
            serde::Serialize::to_value(&report.cells),
        ),
    ]);
    serde::json::to_string_pretty(&value)
}

/// Drive one campaign through the sharded streaming engine with the CLI's
/// `--shards/--checkpoint/--resume` plumbing and return the merged report.
fn run_sharded_campaign(
    mode: &str,
    opts: &Options,
    spec: &CampaignSpec,
) -> hc_core::campaign::CampaignReport {
    eprintln!(
        "{mode}: {} traces × {} policies × {} scenario(s) over {} shard(s){}",
        spec.traces.len(),
        spec.policies.len(),
        spec.scenarios.len(),
        opts.shards,
        opts.checkpoint
            .as_deref()
            .map(|d| format!(", checkpointing to {d}"))
            .unwrap_or_default()
    );
    let mut runner = ShardedCampaignRunner::new(opts.shards)
        .resume(opts.resume)
        .with_progress(|p| {
            eprintln!(
                "[{}/{}] {} × {} × {}",
                p.completed_cells, p.total_cells, p.policy, p.trace, p.scenario
            );
        });
    if let Some(dir) = &opts.checkpoint {
        runner = runner.with_checkpoint(dir);
    }
    let cache = open_cache(opts, mode);
    if let Some(cache) = &cache {
        runner = runner.with_cache(Arc::clone(cache));
    }
    let outcome = or_die(mode, runner.run(spec));
    eprintln!(
        "{mode}: executed shards {:?}, resumed shards {:?}",
        outcome.executed_shards, outcome.resumed_shards
    );
    if let Some(cache) = &cache {
        report_cache_activity(mode, cache);
    }
    outcome.report
}

/// The `suite` mode's spec — shared by the in-process sharded run, the
/// fan-out worker mode and (via the checkpoint manifest) `merge`, so every
/// path over the same flags simulates the identical campaign.
fn suite_spec(opts: &Options, trace_len: usize) -> CampaignSpec {
    let mut builder = CampaignBuilder::new("table2-suite")
        .policy(PolicyKind::Ir)
        .trace_len(trace_len);
    builder = if opts.full_suite {
        builder.full_table2_suite()
    } else {
        builder.category_suite(opts.apps_per_category)
    };
    // User input (`--apps-per-category 0`, `--shards 0`, …) can make the
    // campaign invalid; report the typed error as a usage error, don't panic.
    or_die("suite", builder.build())
}

/// The `suite --shard-index/--of` worker mode: one process of a fan-out
/// fleet over a shared checkpoint directory.  The worker claims shards
/// through lease files, executes them, writes each `shard_NNNN.json` and
/// exits; `reproduce merge` assembles the report.
fn run_suite_worker_mode(opts: &Options, spec: &CampaignSpec) {
    let Some(of) = opts.of else {
        eprintln!("suite: --shard-index requires --of N (the fleet's shard count)");
        std::process::exit(2);
    };
    let Some(dir) = opts.checkpoint.as_deref() else {
        eprintln!("suite: worker mode requires --checkpoint DIR (the shared fan-out directory)");
        std::process::exit(2);
    };
    let mut worker = FanoutWorker::new(of, dir)
        .steal(!opts.no_steal)
        .lease_timeout(std::time::Duration::from_secs(
            opts.lease_timeout_secs.max(1),
        ))
        .with_progress(|p| {
            eprintln!(
                "[{}/{}] {} × {} × {}",
                p.completed_cells, p.total_cells, p.policy, p.trace, p.scenario
            );
        });
    if let Some(home) = opts.shard_index {
        worker = worker.home_shard(home);
    }
    if let Some(id) = &opts.worker_id {
        worker = worker.worker_id(id.clone());
    }
    let cache = open_cache(opts, "suite");
    if let Some(cache) = &cache {
        worker = worker.with_cache(Arc::clone(cache));
    }
    eprintln!(
        "suite: worker{} over {dir} ({} shards, stealing {})",
        opts.shard_index
            .map(|k| format!(" for shard {k}"))
            .unwrap_or_default(),
        of,
        if opts.no_steal { "off" } else { "on" },
    );
    let outcome = or_die("suite", worker.run(spec));
    eprintln!(
        "suite: worker executed shards {:?} (stolen: {:?})",
        outcome.executed_shards, outcome.stolen_shards
    );
    if let Some(cache) = &cache {
        report_cache_activity("suite", cache);
    }
}

/// The `merge` mode: watch a fan-out checkpoint directory, validate the
/// shard set, and emit the merged report — byte-identical to the
/// single-process `suite` run over the same spec.
fn run_merge_mode(opts: &Options) {
    let Some(dir) = opts.checkpoint.as_deref() else {
        eprintln!("merge: provide --checkpoint DIR (the fan-out directory to merge)");
        std::process::exit(2);
    };
    let wait = match (opts.wait, opts.merge_timeout_secs) {
        (_, Some(secs)) => MergeWait::Timeout(std::time::Duration::from_secs(secs)),
        (true, None) => MergeWait::Forever,
        (false, None) => MergeWait::NoWait,
    };
    let outcome = or_die("merge", MergeCoordinator::new(dir).wait(wait).run());
    eprintln!("merge: {} shards merged from {dir}", outcome.shard_count);
    let report = outcome.report;
    if opts.json {
        println!("{}", report.to_json());
    } else if opts.csv {
        println!("{}", report.to_csv());
    } else {
        println!("{}", campaign_to_markdown(&report));
        println!(
            "{}",
            figure_to_markdown(&figures::fig14_categories_from(&report))
        );
        print_curve_summary(&report.speedup_curve(PolicyKind::Ir.name()));
    }
}

/// The `suite` mode: the Table 2 suite (IR policy) as one sharded,
/// streaming, checkpointable campaign.
fn run_suite_mode(opts: &Options, trace_len: usize) {
    let spec = suite_spec(opts, trace_len);
    if opts.shard_index.is_some() || opts.of.is_some() {
        run_suite_worker_mode(opts, &spec);
        return;
    }
    let report = run_sharded_campaign("suite", opts, &spec);
    if opts.json {
        println!("{}", report.to_json());
    } else if opts.csv {
        println!("{}", report.to_csv());
    } else {
        println!("{}", campaign_to_markdown(&report));
        println!(
            "{}",
            figure_to_markdown(&figures::fig14_categories_from(&report))
        );
        print_curve_summary(&report.speedup_curve(PolicyKind::Ir.name()));
    }
}

/// The `sensitivity` mode: the 3×3 helper width × clock ratio scenario
/// campaign (IR over the SPEC suite) through the sharded streaming engine;
/// Markdown output adds the width-predictor table-size sweep.
fn run_sensitivity_mode(opts: &Options, trace_len: usize) {
    let spec = or_die("sensitivity", figures::sensitivity_geometry_spec(trace_len));
    let report = run_sharded_campaign("sensitivity", opts, &spec);
    if opts.json {
        println!("{}", report.to_json());
    } else if opts.csv {
        println!("{}", report.to_csv());
    } else {
        println!("{}", campaign_to_markdown(&report));
        println!(
            "{}",
            figure_to_markdown(&figures::sensitivity_figure_from(
                &report,
                PolicyKind::Ir,
                "sens_geometry",
            ))
        );
        println!(
            "{}",
            scenario_summary_to_markdown(&report, PolicyKind::Ir.name())
        );
        // The width-predictor sweep rides the same cache as the geometry
        // campaign (it is unsharded: its spec differs, so it cannot share
        // the geometry campaign's checkpoint directory).
        let wp_spec = or_die(
            "sensitivity",
            figures::sensitivity_width_predictor_spec(trace_len),
        );
        let mut runner = CampaignRunner::new();
        let cache = open_cache(opts, "sensitivity");
        if let Some(cache) = &cache {
            runner = runner.with_cache(Arc::clone(cache));
        }
        let wp_report = or_die("sensitivity", runner.run(&wp_spec));
        if let Some(cache) = &cache {
            report_cache_activity("sensitivity", cache);
        }
        println!(
            "{}",
            figure_to_markdown(&figures::sensitivity_width_predictor_from(&wp_report))
        );
    }
}

fn main() {
    let opts = parse_args();
    if let Some(n) = opts.threads {
        rayon::set_thread_cap(n);
    }
    let len = opts.trace_len;
    // The service and maintenance modes are exclusive: they do their one
    // job and exit instead of joining the figure sweep.
    if opts.figures.iter().any(|f| f == "serve") {
        run_serve_mode(&opts);
        return;
    }
    if opts.figures.iter().any(|f| f == "submit") {
        run_submit_mode(&opts, len);
        return;
    }
    if opts.figures.iter().any(|f| f == "cache-gc") {
        run_cache_gc_mode(&opts);
        return;
    }
    if opts.figures.iter().any(|f| f == "cache-pack") {
        run_cache_pack_mode(&opts);
        return;
    }
    if opts.figures.iter().any(|f| f == "merge") {
        run_merge_mode(&opts);
        return;
    }
    if opts.figures.iter().any(|f| f == "trace-record") {
        run_trace_record_mode(&opts, len);
        return;
    }
    if opts.figures.iter().any(|f| f == "trace-info") {
        run_trace_info_mode(&opts);
        return;
    }
    if (opts.json || opts.csv)
        && !opts
            .figures
            .iter()
            .any(|f| f == "campaign" || f == "suite" || f == "sensitivity")
    {
        eprintln!("note: --json/--csv only affect the `campaign`, `suite` and `sensitivity` outputs; add one to the figure list");
    }

    if wanted(&opts, "table1") {
        println!(
            "{}",
            kv_table_to_markdown("Table 1 — baseline parameters", &figures::table1())
        );
    }
    if wanted(&opts, "table2") {
        println!("### Table 2 — workload categories\n");
        println!("| category | #traces | description |\n|---|---|---|");
        for (abbrev, count, desc) in figures::table2() {
            println!("| {abbrev} | {count} | {desc} |");
        }
        println!();
    }
    if wanted(&opts, "fig1") {
        println!("{}", figure_to_markdown(&figures::fig1(len)));
    }
    if wanted(&opts, "fig5") {
        println!(
            "{}",
            figure_to_markdown(&or_die("fig5", figures::fig5(len)))
        );
    }
    if wanted(&opts, "fig6") {
        println!(
            "{}",
            figure_to_markdown(&or_die("fig6", figures::fig6(len)))
        );
    }
    if wanted(&opts, "fig7") {
        println!(
            "{}",
            figure_to_markdown(&or_die("fig7", figures::fig7(len)))
        );
    }
    if wanted(&opts, "fig8") {
        println!(
            "{}",
            figure_to_markdown(&or_die("fig8", figures::fig8(len)))
        );
    }
    if wanted(&opts, "fig9") {
        println!(
            "{}",
            figure_to_markdown(&or_die("fig9", figures::fig9(len)))
        );
    }
    if wanted(&opts, "fig11") {
        println!("{}", figure_to_markdown(&figures::fig11(len)));
    }
    if wanted(&opts, "fig12") {
        println!(
            "{}",
            figure_to_markdown(&or_die("fig12", figures::fig12(len)))
        );
    }
    if wanted(&opts, "fig13") {
        println!("{}", figure_to_markdown(&figures::fig13(len)));
    }
    if wanted(&opts, "headline") {
        println!(
            "{}",
            figure_to_markdown(&or_die("headline", figures::headline(len)))
        );
    }
    if wanted(&opts, "fig14") {
        // One suite campaign feeds both halves of the figure: the
        // per-category bars and the per-application S-curve.
        if opts.apps_per_category == 0 {
            println!(
                "{}",
                figure_to_markdown(&or_die("fig14", figures::fig14_categories(0, len)))
            );
        } else {
            let report = or_die("fig14", figures::suite_report(opts.apps_per_category, len));
            println!(
                "{}",
                figure_to_markdown(&figures::fig14_categories_from(&report))
            );
            print_curve_summary(&report.speedup_curve(PolicyKind::Ir.name()));
        }
    }
    // Opt-in: the §3.8 Table 2 suite as one sharded, streaming campaign.
    if opts.figures.iter().any(|f| f == "suite") {
        run_suite_mode(&opts, len);
    }
    // Opt-in: the helper-geometry sensitivity study as one N-D scenario
    // campaign through the sharded engine.
    if opts.figures.iter().any(|f| f == "sensitivity") {
        run_sensitivity_mode(&opts, len);
    }
    // Opt-in: the full 7-policy × 12-trace campaign grid (the `headline`
    // figure's data, exposed through the declarative Campaign API with its
    // versioned JSON / stable CSV schema).
    if opts.figures.iter().any(|f| f == "campaign") {
        let spec = or_die("campaign", campaign_spec(&opts, len));
        let mut runner = CampaignRunner::new().with_progress(|p| {
            eprintln!(
                "[{}/{}] {} × {}",
                p.completed_cells, p.total_cells, p.policy, p.trace
            );
        });
        let cache = open_cache(&opts, "campaign");
        if let Some(cache) = &cache {
            runner = runner.with_cache(Arc::clone(cache));
        }
        let report = or_die("campaign", runner.run(&spec));
        if let Some(cache) = &cache {
            report_cache_activity("campaign", cache);
        }
        if opts.results_only {
            println!("{}", results_only_json(&report));
        } else if opts.json {
            println!("{}", report.to_json());
        } else if opts.csv {
            println!("{}", report.to_csv());
        } else {
            println!("{}", campaign_to_markdown(&report));
        }
    }
    if wanted(&opts, "ed2") {
        // §3.7: energy-delay² of the most aggressive configuration (IR) vs
        // the baseline, via a single-policy campaign.
        let spec = or_die(
            "ed2",
            CampaignBuilder::new("ed2")
                .policy(PolicyKind::Ir)
                .spec_suite()
                .trace_len(len)
                .build(),
        );
        let report = or_die("ed2", CampaignRunner::new().run(&spec));
        let model = PowerModel::default();
        let mut improvements = Vec::new();
        for r in &report.experiment_results() {
            let cmp = Ed2Comparison::compare(&model, &r.baseline, &r.stats);
            improvements.push(cmp.improvement);
        }
        let avg = improvements.iter().sum::<f64>() / improvements.len().max(1) as f64;
        println!("### Energy-delay² (IR vs monolithic baseline)\n");
        println!(
            "Average ED² improvement over SPEC: {:.1}% (paper: 5.1%)\n",
            avg * 100.0
        );
    }
    if wanted(&opts, "summary") {
        // Abstract numbers: SPEC-Int average and wide-suite average under IR.
        let runner = SuiteRunner::default();
        let spec = runner.run_spec(len, PolicyKind::Ir);
        println!("### Summary (abstract numbers)\n");
        println!(
            "SPEC Int average speedup (IR): {:.1}% (paper: 22%)",
            spec.mean_performance_increase_pct()
        );
        let profiles = if opts.full_suite {
            paper_suite(len)
        } else {
            reduced_suite(opts.apps_per_category, len)
        };
        let wide = runner.run_profiles(&profiles, PolicyKind::Ir);
        println!(
            "Wide-suite ({} apps) average speedup (IR): {:.1}% (paper: 11% over 412 apps)\n",
            profiles.len(),
            wide.mean_performance_increase_pct()
        );
    }
}
