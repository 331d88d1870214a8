//! What every workload provides to the measuring loop, and the metrics
//! shared by several of them.

use crate::spans::{self, Span, SpanId};
use crate::stats;
use hc_core::campaign::CampaignReport;
use hc_core::{CacheStats, PolicyKind};
use std::collections::BTreeMap;

/// Per-layer metrics of one traced operation, by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// The result of one operation.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checked units of work: one per operation, or one per request.
    pub attempted: u64,
    /// Units that errored, were refused, or produced wrong output.
    pub failed: u64,
    /// Committed µops in the reports the operation delivered.
    pub uops: u64,
    /// Latency of each request the operation served, in ms; empty when the
    /// operation is one request (its wall time is then the latency).
    pub requests_ms: Vec<f64>,
}

impl Outcome {
    /// One checked unit of work.
    pub fn single(ok: bool, uops: u64) -> Outcome {
        Outcome {
            attempted: 1,
            failed: u64::from(!ok),
            uops,
            requests_ms: Vec::new(),
        }
    }
}

/// One benchmark workload, set up and ready to run operations.
pub trait Workload {
    /// One operation through the program's public entry points.
    fn run(&mut self) -> Outcome;
    /// The same operation driven layer by layer with a span around each
    /// call.  Returns the root span of the operation with the outcome and
    /// the operation's layer metrics.
    fn run_traced(&mut self, tracer: &spans::Tracer) -> (SpanId, Outcome, Layers);
    /// Untimed preparation between operations.
    fn reset(&mut self) {}
    /// Whether the set-up's reference agrees with the plainest path, where
    /// the set-up made it another way.
    fn check_setup(&self) -> bool {
        true
    }
}

/// Committed µops over every baseline and cell of a report.
pub fn report_uops(report: &CampaignReport) -> u64 {
    report
        .baselines
        .iter()
        .map(|b| b.stats.committed_uops)
        .sum::<u64>()
        + report
            .cells
            .iter()
            .map(|c| c.stats.committed_uops)
            .sum::<u64>()
}

/// The simulated (not host) figures of a set of reports: `sim.cycles`, the
/// summed simulated cycles of every baseline and cell, and
/// `sim.ir_speedup_pct`, the mean IR speedup over its baselines in percent.
/// Speedups are summed in sorted order so that row order cannot change the
/// last bits.
pub fn simulated_figures(reports: &[&CampaignReport], layers: &mut Layers) {
    let cycles: u64 = reports
        .iter()
        .flat_map(|r| {
            let baselines = r.baselines.iter().map(|b| b.stats.cycles);
            baselines.chain(r.cells.iter().map(|c| c.stats.cycles))
        })
        .sum();
    let mut speedups: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.results_for_policy(PolicyKind::Ir.name()))
        .map(|r| r.speedup())
        .collect();
    speedups.sort_by(f64::total_cmp);
    let mean = if speedups.is_empty() {
        1.0
    } else {
        speedups.iter().sum::<f64>() / speedups.len() as f64
    };
    layers.insert("sim.cycles", cycles as f64);
    layers.insert("sim.ir_speedup_pct", (mean - 1.0) * 100.0);
}

/// Host-time metrics of the `sim.cell` spans.
pub fn sim_figures(tree: &[Span], sim_uops: u64, layers: &mut Layers) {
    let cells: Vec<f64> = spans::durations_ns(tree, "sim.cell")
        .into_iter()
        .map(|d| d as f64)
        .collect();
    let busy = spans::total_ns(tree, "sim.cell") as f64;
    layers.insert("sim.busy_ns", busy);
    layers.insert("sim.cells", cells.len() as f64);
    layers.insert("sim.uops", sim_uops as f64);
    layers.insert(
        "sim.ns_per_uop",
        if sim_uops == 0 {
            0.0
        } else {
            busy / sim_uops as f64
        },
    );
    layers.insert("sim.cell_ns_p50", stats::median(&cells).unwrap_or(0.0));
    layers.insert("sim.cell_ns_max", cells.iter().copied().fold(0.0, f64::max));
}

/// Share of an operation's recorded time that a named layer accounts for:
/// the self time of every span below the root, over that plus the root's
/// own self time (time inside the operation that no layer span covers).
pub fn coverage(tree: &[Span], root: SpanId) -> f64 {
    let own = spans::self_times(tree);
    let layered: u64 = tree
        .iter()
        .filter(|s| s.id != root)
        .map(|s| own[&s.id])
        .sum();
    let total = layered + own.get(&root).copied().unwrap_or(0);
    if total == 0 {
        return 0.0;
    }
    layered as f64 / total as f64
}

/// `campaign.run_ns`, `campaign.self_ns` (the self time of the campaign's
/// own spans: run, rows, plan and merge) and `campaign.row_skew` (slowest
/// row over the mean row).
pub fn campaign_figures(tree: &[Span], layers: &mut Layers) {
    let own = spans::self_times(tree);
    let self_ns: u64 = tree
        .iter()
        .filter(|s| s.name.starts_with("campaign."))
        .map(|s| own[&s.id])
        .sum();
    let rows: Vec<u64> = spans::durations_ns(tree, "campaign.row");
    let mean = rows.iter().sum::<u64>() as f64 / rows.len().max(1) as f64;
    let slowest = rows.iter().copied().max().unwrap_or(0) as f64;
    layers.insert(
        "campaign.run_ns",
        spans::total_ns(tree, "campaign.run") as f64,
    );
    layers.insert("campaign.self_ns", self_ns as f64);
    layers.insert(
        "campaign.row_skew",
        if mean > 0.0 { slowest / mean } else { 0.0 },
    );
}

/// The cache's activity counters over one operation.
pub fn cache_figures(stats: &CacheStats, layers: &mut Layers) {
    let lookups = stats.hits + stats.misses;
    layers.insert("cache.hits", stats.hits as f64);
    layers.insert("cache.misses", stats.misses as f64);
    layers.insert("cache.inserts", stats.inserts as f64);
    layers.insert("cache.dedupe_leads", stats.dedupe_leads as f64);
    layers.insert("cache.dedupe_joins", stats.dedupe_joins as f64);
    layers.insert(
        "cache.hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            stats.hits as f64 / lookups as f64
        },
    );
}
