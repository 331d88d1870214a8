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
//! pool itself), then all available cores.  A `REPRODUCE_THREADS` that is
//! not a number exits 2, as an unparsable flag value does.
//!
//! With no arguments every figure is reproduced.  Figure names: `table1`,
//! `table2`, `fig1`, `fig5`, `fig6`, `fig7`, `fig8`, `fig9`, `fig11`, `fig12`,
//! `fig13`, `fig14`, `headline`, `ed2`, `summary`.  The figures that simulate
//! project two studies, each run at most once per invocation: the paper
//! grid (7 policies × 12 SPEC traces) feeds `fig5`–`fig9`, `fig12`,
//! `headline`, `ed2` and `summary`'s SPEC-Int number, and the Table 2 suite
//! (`--apps-per-category N` applications per category, or all 409 with
//! `--full-suite`) feeds `fig14` and `summary`'s wide-suite number.  One
//! runner runs every campaign of an invocation: it opens the cell cache
//! once and prints one `[k/N] policy × trace × scenario` line to stderr
//! per finished cell.
//!
//! `campaign` is opt-in: it prints the paper grid the figures read —
//! every trace's monolithic baseline is simulated exactly once — as a
//! Markdown summary, the versioned JSON report (`--json`) or the stable CSV
//! cells (`--csv`).  With `--trace FILE` or `--bench BENCH` it runs its own
//! grid over those rows instead.
//!
//! `suite` is opt-in too: it prints the Table 2 suite that `fig14` and
//! `summary` read (IR policy, one streaming campaign).  With
//! `--checkpoint DIR` the suite is split into `--shards N` deterministic
//! shards, each completed shard is written to disk by the same worker and
//! merge code as `suite --of N` and `merge` run, and `--resume` skips
//! shards already on disk.  Without `--checkpoint`, `--shards N` only names
//! the partition: the suite runs as one grid, whose bytes every partition
//! merges to.  Traces are synthesized per worker, so even the full suite
//! holds O(threads) traces in memory.
//!
//! `--cache DIR` opens (or initialises) a content-addressed cell cache for
//! every campaign the invocation runs: every simulated cell and baseline is
//! memoized on disk, a repeated invocation replays cached cells instead of
//! re-simulating them, and the emitted JSON/CSV is byte-identical either
//! way.  Cache hit/miss counters go to stderr.  The `REPRODUCE_CACHE`
//! environment variable supplies a default directory; `--no-cache`
//! disables caching even when it is set.  With a warm cache, a
//! checkpointed `--shards N` run partitions by *observed per-row cost*
//! (LPT bin packing) instead of round-robin, so one slow trace cannot
//! straggle a shard set.
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
//! **byte-identical** to the single-process `suite` run.  `--wait` waits
//! for the manifest and then for every shard to land, so the coordinator
//! may start before the workers (bound it with `--merge-timeout-secs S`);
//! without it, a missing manifest or missing shards are an immediate
//! error.
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
//! entries unused for longer than S (last use is recorded to within a
//! minute), then `--max-bytes N` evicts
//! least-recently-used entries until at most N bytes remain; `--dry-run`
//! reports what would go without deleting anything.  Eviction only drops
//! index entries; `--compact` additionally rewrites every sealed segment
//! file so the reclaimed bytes actually leave the disk (the
//! defragmentation pass).  A cache directory in the retired
//! one-file-per-cell layout is refused; delete it and let the next run
//! rebuild it.

use hc_core::cache::{CellCache, GcPolicy};
use hc_core::campaign::{
    CampaignBuilder, CampaignError, CampaignProgress, CampaignReport, CampaignRunner, CampaignSpec,
};
use hc_core::fanout::{FanoutWorker, MergeCoordinator, MergeWait};
use hc_core::figures;
use hc_core::policy::PolicyKind;
use hc_core::report::{
    campaign_to_markdown, figure_to_markdown, kv_table_to_markdown, scenario_summary_to_markdown,
};
use hc_core::shard::ShardedCampaignRunner;
use hc_power::{Ed2Comparison, PowerModel};
use hc_trace::SpecBenchmark;
use std::cell::OnceCell;
use std::path::Path;
use std::sync::Arc;

struct Options {
    figures: Vec<String>,
    trace_len: usize,
    /// `usize::MAX` under `--full-suite`.
    apps_per_category: usize,
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
        json: false,
        csv: false,
        // Environment override; the --threads flag takes precedence.
        threads: std::env::var("REPRODUCE_THREADS")
            .ok()
            .map(|text| parsed(text, "REPRODUCE_THREADS")),
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
    let mut full_suite = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let flag = a.as_str();
        match flag {
            "--trace-len" => opts.trace_len = number(&mut args, flag),
            "--apps-per-category" => opts.apps_per_category = number(&mut args, flag),
            "--threads" => opts.threads = Some(number(&mut args, flag)),
            "--shards" => opts.shards = number(&mut args, flag),
            "--checkpoint" => opts.checkpoint = Some(value(&mut args, flag)),
            "--resume" => opts.resume = true,
            "--shard-index" => opts.shard_index = Some(number(&mut args, flag)),
            "--of" => opts.of = Some(number(&mut args, flag)),
            "--no-steal" => opts.no_steal = true,
            "--lease-timeout-secs" => opts.lease_timeout_secs = number(&mut args, flag),
            "--worker-id" => opts.worker_id = Some(value(&mut args, flag)),
            "--wait" => opts.wait = true,
            "--merge-timeout-secs" => opts.merge_timeout_secs = Some(number(&mut args, flag)),
            "--cache" => opts.cache = Some(value(&mut args, flag)),
            "--no-cache" => opts.no_cache = true,
            "--addr" => opts.addr = Some(value(&mut args, flag)),
            "--addr-file" => opts.addr_file = Some(value(&mut args, flag)),
            "--max-requests" => opts.max_requests = Some(number(&mut args, flag)),
            "--spec" => opts.spec = Some(value(&mut args, flag)),
            "--metrics" => opts.metrics = true,
            "--shutdown" => opts.shutdown = true,
            "--max-bytes" => opts.max_bytes = Some(number(&mut args, flag)),
            "--max-age-secs" => opts.max_age_secs = Some(number(&mut args, flag)),
            "--dry-run" => opts.dry_run = true,
            "--compact" => opts.compact = true,
            "--out" => opts.out = Some(value(&mut args, flag)),
            "--trace" => opts.trace_files.push(value(&mut args, flag)),
            "--bench" => opts.bench = Some(value(&mut args, flag)),
            "--results-only" => opts.results_only = true,
            "--full-suite" => full_suite = true,
            "--json" => opts.json = true,
            "--csv" => opts.csv = true,
            "--help" | "-h" => {
                println!(
                    "usage: reproduce [FIGURE ...] [--trace-len N] [--apps-per-category N] [--full-suite] [--threads N] [--shards N] [--checkpoint DIR] [--resume] [--cache DIR] [--no-cache] [--json] [--csv]\n\
                     \n\
                     fig14, summary and suite run the Table 2 suite over --apps-per-category N apps\n\
                     per category, or over all 409 with --full-suite.\n\
                     \n\
                     multi-process fan-out:\n\
                     \x20      reproduce suite    --of N [--shard-index K] --checkpoint DIR [--no-steal] [--lease-timeout-secs S] [--worker-id NAME]\n\
                     \x20      reproduce merge    --checkpoint DIR [--wait] [--merge-timeout-secs S] [--json] [--csv]\n\
                     \n\
                     --shards N without --checkpoint only names the partition: the campaign runs\n\
                     as one grid, and the report is the same for every N.  With --checkpoint DIR\n\
                     the shards run through the worker and merge code of the fan-out modes.\n\
                     \n\
                     campaign service:\n\
                     \x20      reproduce serve    [--addr HOST:PORT] [--addr-file PATH] [--cache DIR] [--max-requests N] [--threads N]\n\
                     \x20      reproduce submit   (--addr HOST:PORT | --addr-file PATH) [--spec FILE | --trace-len N] [--metrics] [--shutdown]\n\
                     \n\
                     cache maintenance:\n\
                     \x20      reproduce cache-gc --cache DIR [--max-bytes N] [--max-age-secs S] [--dry-run] [--compact]\n\
                     \n\
                     cache-gc evicts by age then LRU size budget; --compact additionally rewrites\n\
                     every sealed segment so the cache ends up densely packed.  Reports stay\n\
                     byte-identical before and after.\n\
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
    if full_suite {
        opts.apps_per_category = usize::MAX;
    }
    opts
}

/// The value after `flag`, or a usage error naming the flag.
fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("reproduce: {flag} needs a value");
        std::process::exit(2);
    })
}

/// The number after `flag`, or a usage error naming the flag and the value.
fn number<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    parsed(value(args, flag), flag)
}

/// `text` as a number, or a usage error naming `source` (a flag or an
/// environment variable) and the value.
fn parsed<T: std::str::FromStr>(text: String, source: &str) -> T {
    text.parse().unwrap_or_else(|_| {
        eprintln!("reproduce: {source} expects a number, got `{text}`");
        std::process::exit(2);
    })
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

/// The one progress printer: a line per finished cell, on stderr.
fn print_progress(p: &CampaignProgress) {
    eprintln!(
        "[{}/{}] {} × {} × {}",
        p.completed_cells, p.total_cells, p.policy, p.trace, p.scenario
    );
}

/// Runs every campaign of one invocation.  The cell cache is opened once,
/// by the first campaign, and every campaign reports through
/// [`print_progress`].  The paper grid and the Table 2 suite each run at
/// most once, when the first mode or figure that reads them asks (its name
/// prefixes any error); every later reader projects the same report.
struct Studies<'a> {
    opts: &'a Options,
    cache: OnceCell<Option<Arc<CellCache>>>,
    grid: OnceCell<CampaignReport>,
    suite: OnceCell<CampaignReport>,
}

impl<'a> Studies<'a> {
    fn new(opts: &'a Options) -> Studies<'a> {
        Studies {
            opts,
            cache: OnceCell::new(),
            grid: OnceCell::new(),
            suite: OnceCell::new(),
        }
    }

    /// The cell cache named by `--cache` / `REPRODUCE_CACHE`, if any.
    fn cache(&self, mode: &str) -> Option<&Arc<CellCache>> {
        let opts = self.opts;
        self.cache
            .get_or_init(|| {
                let dir = opts.cache.as_deref().filter(|_| !opts.no_cache)?;
                Some(Arc::new(or_die(mode, CellCache::open(dir))))
            })
            .as_ref()
    }

    /// Run `spec` as one grid.
    fn run(&self, mode: &str, spec: &CampaignSpec) -> CampaignReport {
        let mut runner = CampaignRunner::new().with_progress(print_progress);
        if let Some(cache) = self.cache(mode) {
            runner = runner.with_cache(Arc::clone(cache));
        }
        or_die(mode, runner.run(spec))
    }

    /// Run `spec` through the sharded engine under `--shards`,
    /// `--checkpoint` and `--resume`.
    fn run_sharded(&self, mode: &str, spec: &CampaignSpec) -> CampaignReport {
        let opts = self.opts;
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
            .with_progress(print_progress);
        if let Some(dir) = &opts.checkpoint {
            runner = runner.with_checkpoint(dir);
        }
        if let Some(cache) = self.cache(mode) {
            runner = runner.with_cache(Arc::clone(cache));
        }
        let outcome = or_die(mode, runner.run(spec));
        eprintln!(
            "{mode}: executed shards {:?}, resumed shards {:?}",
            outcome.executed_shards, outcome.resumed_shards
        );
        outcome.report
    }

    /// The paper grid: 7 policies × 12 SPEC traces.
    fn grid(&self, mode: &str) -> &CampaignReport {
        self.grid.get_or_init(|| {
            let spec = or_die(mode, figures::paper_grid_spec(self.opts.trace_len));
            self.run(mode, &spec)
        })
    }

    /// The Table 2 suite (IR), through the sharded engine: with
    /// `--checkpoint` it runs as a fleet of one.
    fn suite(&self, mode: &str) -> &CampaignReport {
        self.suite.get_or_init(|| {
            let apps = self.opts.apps_per_category;
            let spec = or_die(mode, figures::suite_spec(apps, self.opts.trace_len));
            self.run_sharded(mode, &spec)
        })
    }

    /// Report the cache's counters to stderr, if a campaign opened it.
    fn report_cache(&self) {
        if let Some(Some(cache)) = self.cache.get() {
            report_cache_activity("reproduce", cache);
        }
    }
}

/// Print a campaign mode's report: the versioned JSON (`--json`), the
/// stable CSV cells (`--csv`) or the mode's Markdown.
fn print_report(opts: &Options, report: &CampaignReport, markdown: impl FnOnce(&CampaignReport)) {
    if opts.json {
        println!("{}", report.to_json());
    } else if opts.csv {
        println!("{}", report.to_csv());
    } else {
        markdown(report);
    }
}

/// Figure 14 in Markdown: the per-category bars and, given a suite, the
/// S-curve line over its applications.
fn print_fig14(suite: Option<&CampaignReport>) {
    println!("{}", figure_to_markdown(&figures::fig14(suite)));
    let curve = suite.map_or_else(Vec::new, |report| {
        report.speedup_curve(PolicyKind::Ir.name())
    });
    let n = curve.len();
    if n > 0 {
        println!(
            "S-curve over {n} apps: min {:.3}, p25 {:.3}, median {:.3}, p75 {:.3}, max {:.3}\n",
            curve[0],
            curve[n / 4],
            curve[n / 2],
            curve[3 * n / 4],
            curve[n - 1]
        );
    }
}

/// The `suite` and `merge` Markdown: the campaign summary, then Figure 14.
fn print_suite_markdown(report: &CampaignReport) {
    println!("{}", campaign_to_markdown(report));
    print_fig14(Some(report));
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
        None => or_die("submit", figures::paper_grid_spec(len)).to_json(),
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

/// The `campaign` mode's own spec under the trace flags: recordings replace
/// the grid's trace rows (`--trace FILE`, repeatable), or the grid
/// restricts to one benchmark (`--bench`).  `None` without either flag:
/// the mode then prints the paper grid.
fn custom_campaign_spec(opts: &Options, len: usize) -> Option<Result<CampaignSpec, CampaignError>> {
    if !opts.trace_files.is_empty() {
        let mut builder = CampaignBuilder::new("spec-grid")
            .paper_policies()
            .trace_len(len);
        for path in &opts.trace_files {
            builder = builder.trace_file(path);
        }
        return Some(builder.build());
    }
    let name = opts.bench.as_ref()?;
    Some(
        CampaignBuilder::new("spec-grid")
            .paper_policies()
            .spec(parse_bench("campaign", name))
            .trace_len(len)
            .build(),
    )
}

/// Render only a report's `baselines` and `cells` arrays — the parts that
/// must be byte-identical between a campaign over a recording and one over
/// the selector that recorded it (the embedded specs legitimately differ:
/// one names a file, the other a benchmark).
fn results_only_json(report: &CampaignReport) -> String {
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

/// The `suite --shard-index/--of` worker mode: one process of a fan-out
/// fleet over a shared checkpoint directory.  The worker claims shards
/// through lease files, executes them, writes each `shard_NNNN.json` and
/// exits; `reproduce merge` assembles the report.
fn run_suite_worker_mode(studies: &Studies, spec: &CampaignSpec) {
    let opts = studies.opts;
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
        .with_progress(print_progress);
    if let Some(home) = opts.shard_index {
        worker = worker.home_shard(home);
    }
    if let Some(id) = &opts.worker_id {
        worker = worker.worker_id(id.clone());
    }
    if let Some(cache) = studies.cache("suite") {
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
    print_report(opts, &outcome.report, print_suite_markdown);
}

/// The `suite` mode: the Table 2 suite (IR policy) as one sharded,
/// streaming, checkpointable campaign — the study `fig14` and `summary`
/// read.  Its spec is shared by the in-process sharded run, the fan-out
/// worker mode and (via the checkpoint manifest) `merge`, so every path
/// over the same flags simulates the identical campaign.  User input
/// (`--apps-per-category 0`, …) can make the campaign invalid; the typed
/// error is a usage error, not a panic.
fn run_suite_mode(studies: &Studies) {
    let opts = studies.opts;
    if opts.shard_index.is_some() || opts.of.is_some() {
        let apps = opts.apps_per_category;
        let spec = or_die("suite", figures::suite_spec(apps, opts.trace_len));
        run_suite_worker_mode(studies, &spec);
        return;
    }
    print_report(opts, studies.suite("suite"), print_suite_markdown);
}

/// The `sensitivity` mode: the 3×3 helper width × clock ratio scenario
/// campaign (IR over the SPEC suite) through the sharded streaming engine;
/// Markdown output adds the width-predictor table-size sweep.
fn run_sensitivity_mode(studies: &Studies) {
    let (opts, trace_len) = (studies.opts, studies.opts.trace_len);
    let spec = or_die("sensitivity", figures::sensitivity_geometry_spec(trace_len));
    let report = studies.run_sharded("sensitivity", &spec);
    print_report(opts, &report, |report| {
        println!("{}", campaign_to_markdown(report));
        println!(
            "{}",
            figure_to_markdown(&figures::sensitivity_figure_from(
                report,
                PolicyKind::Ir,
                "sens_geometry",
            ))
        );
        println!(
            "{}",
            scenario_summary_to_markdown(report, PolicyKind::Ir.name())
        );
        // The width-predictor sweep rides the same cache as the geometry
        // campaign (it is unsharded: its spec differs, so it cannot share
        // the geometry campaign's checkpoint directory).
        let wp_spec = or_die(
            "sensitivity",
            figures::sensitivity_width_predictor_spec(trace_len),
        );
        let wp_report = studies.run("sensitivity", &wp_spec);
        println!(
            "{}",
            figure_to_markdown(&figures::sensitivity_width_predictor_from(&wp_report))
        );
    });
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
    let studies = Studies::new(&opts);
    // The figures read an empty suite when `--apps-per-category` is 0.
    let suite = |mode: &str| (opts.apps_per_category > 0).then(|| studies.suite(mode));
    if wanted(&opts, "fig1") {
        println!("{}", figure_to_markdown(&figures::fig1(len)));
    }
    for (name, figure) in [
        ("fig5", figures::fig5 as fn(&CampaignReport) -> _),
        ("fig6", figures::fig6),
        ("fig7", figures::fig7),
        ("fig8", figures::fig8),
        ("fig9", figures::fig9),
    ] {
        if wanted(&opts, name) {
            println!(
                "{}",
                figure_to_markdown(&or_die(name, figure(studies.grid(name))))
            );
        }
    }
    if wanted(&opts, "fig11") {
        println!("{}", figure_to_markdown(&figures::fig11(len)));
    }
    if wanted(&opts, "fig12") {
        let figure = or_die("fig12", figures::fig12(studies.grid("fig12")));
        println!("{}", figure_to_markdown(&figure));
    }
    if wanted(&opts, "fig13") {
        println!("{}", figure_to_markdown(&figures::fig13(len)));
    }
    if wanted(&opts, "headline") {
        println!(
            "{}",
            figure_to_markdown(&figures::headline(studies.grid("headline")))
        );
    }
    if wanted(&opts, "fig14") {
        print_fig14(suite("fig14"));
    }
    // Opt-in: the §3.8 Table 2 suite as one sharded, streaming campaign.
    if opts.figures.iter().any(|f| f == "suite") {
        run_suite_mode(&studies);
    }
    // Opt-in: the helper-geometry sensitivity study as one N-D scenario
    // campaign through the sharded engine.
    if opts.figures.iter().any(|f| f == "sensitivity") {
        run_sensitivity_mode(&studies);
    }
    // Opt-in: the paper grid the figures read, through the declarative
    // Campaign API with its versioned JSON / stable CSV schema, or a grid
    // over the `--trace` / `--bench` rows.
    if opts.figures.iter().any(|f| f == "campaign") {
        let custom = custom_campaign_spec(&opts, len)
            .map(|spec| studies.run("campaign", &or_die("campaign", spec)));
        let report = custom.as_ref().unwrap_or_else(|| studies.grid("campaign"));
        if opts.results_only {
            println!("{}", results_only_json(report));
        } else {
            print_report(&opts, report, |report| {
                println!("{}", campaign_to_markdown(report))
            });
        }
    }
    if wanted(&opts, "ed2") {
        // §3.7: energy-delay² of the most aggressive configuration (IR) vs
        // the baseline, over the paper grid's IR cells.
        let model = PowerModel::default();
        let improvements: Vec<f64> = studies
            .grid("ed2")
            .results_for_policy(PolicyKind::Ir.name())
            .iter()
            .map(|r| Ed2Comparison::compare(&model, &r.baseline, &r.stats).improvement)
            .collect();
        let avg = improvements.iter().sum::<f64>() / improvements.len().max(1) as f64;
        println!("### Energy-delay² (IR vs monolithic baseline)\n");
        println!(
            "Average ED² improvement over SPEC: {:.1}% (paper: 5.1%)\n",
            avg * 100.0
        );
    }
    if wanted(&opts, "summary") {
        // Abstract numbers: the IR means over the paper grid and the wide
        // suite `fig14` plots.  An empty suite averages 0%.
        let ir = PolicyKind::Ir.name();
        let increase_pct = |mean: Option<f64>| (mean.unwrap_or(1.0) - 1.0) * 100.0;
        println!("### Summary (abstract numbers)\n");
        println!(
            "SPEC Int average speedup (IR): {:.1}% (paper: 22%)",
            increase_pct(studies.grid("summary").mean_speedup(ir))
        );
        let wide = suite("summary");
        println!(
            "Wide-suite ({} apps) average speedup (IR): {:.1}% (paper: 11% over 412 apps)\n",
            wide.map_or(0, |report| report.spec.traces.len()),
            increase_pct(wide.and_then(|report| report.mean_speedup(ir)))
        );
    }
    studies.report_cache();
}
