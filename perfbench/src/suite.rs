//! `suite_warm`: the full Table 2 suite under IR (409 rows, 818 cells)
//! through `ShardedCampaignRunner`, as `reproduce suite --cache` runs it,
//! replayed from a cell cache filled during set-up.  Simulation does no
//! work; cache open, per-row trace synthesis, record decode and report
//! encoding dominate.

use crate::redrive;
use crate::rng::Rng;
use crate::spans::{self, Tracer};
use crate::workload::{self, Layers, Outcome, Workload};
use hc_core::campaign::{CampaignBuilder, CampaignReport, CampaignRunner, CampaignSpec};
use hc_core::shard::{ShardPlan, ShardReport, ShardStrategy, ShardedCampaignRunner};
use hc_core::{
    CellCache, CostModel, PolicyKind, LEGACY_SHARD_SCHEMA_VERSION, SCENARIO_SHARD_SCHEMA_VERSION,
    SHARD_SCHEMA_VERSION,
};
use std::path::PathBuf;
use std::sync::Arc;

/// µops per row.
pub const TRACE_LEN: usize = 2_000;
pub const THREADS: usize = 2;
/// `reproduce suite` runs one shard unless told otherwise.
const SHARDS: usize = 1;
const SALT: u64 = 2;

pub struct SuiteWarm {
    spec: CampaignSpec,
    cache_dir: PathBuf,
    reference: String,
}

impl SuiteWarm {
    /// Fill a fresh cache with the suite; the fill's report is the
    /// reference every replay must reproduce.
    pub fn setup(seed: u64, dir: PathBuf) -> SuiteWarm {
        rayon::set_thread_cap(THREADS);
        let mut spec = CampaignBuilder::new("table2-suite")
            .policy(PolicyKind::Ir)
            .full_table2_suite()
            .trace_len(TRACE_LEN)
            .build()
            .expect("the Table 2 suite is a valid campaign");
        Rng::new(seed, SALT).shuffle(&mut spec.traces);
        let cache_dir = dir.join("cache");
        let cache = Arc::new(CellCache::open(&cache_dir).expect("the cache directory opens"));
        let reference = ShardedCampaignRunner::new(SHARDS)
            .with_cache(cache)
            .run(&spec)
            .expect("the cold fill succeeds")
            .report
            .to_json();
        SuiteWarm {
            spec,
            cache_dir,
            reference,
        }
    }
}

impl Workload for SuiteWarm {
    /// The cold fill must equal the plainest path: an uncached in-process
    /// `CampaignRunner`.
    fn check_setup(&self) -> bool {
        CampaignRunner::new()
            .with_batch(1)
            .run(&self.spec)
            .is_ok_and(|r| r.to_json() == self.reference)
    }

    fn run(&mut self) -> Outcome {
        let Ok(cache) = CellCache::open(&self.cache_dir) else {
            return Outcome::single(false, 0);
        };
        let cache = Arc::new(cache);
        let outcome = ShardedCampaignRunner::new(SHARDS)
            .with_cache(Arc::clone(&cache))
            .run(&self.spec);
        let misses = cache.stats().misses;
        match outcome {
            Ok(outcome) => Outcome::single(
                misses == 0 && outcome.report.to_json() == self.reference,
                workload::report_uops(&outcome.report),
            ),
            Err(_) => Outcome::single(false, 0),
        }
    }

    fn run_traced(&mut self, tracer: &Tracer) -> (spans::SpanId, Outcome, Layers) {
        let root = tracer.open("campaign.run", None);
        let id = root.id();
        let root_id = Some(id);
        let cache = tracer.time("cache.open", root_id, || CellCache::open(&self.cache_dir));
        let Ok(cache) = cache else {
            return (id, Outcome::single(false, 0), Layers::new());
        };
        let plan = tracer.time("campaign.plan", root_id, || {
            ShardPlan::for_spec(&self.spec, SHARDS, &CostModel::observed(&cache))
        });
        let plan = plan.expect("a one-shard plan always exists");
        let rows = plan.rows(0).to_vec();
        let grid = redrive::run_grid(&self.spec, &rows, Some(&cache), tracer, id);
        let (useful_rows, sim_uops, synth_uops) =
            (grid.useful_rows, grid.sim_uops, grid.synth_uops);
        let schema_version = match plan.strategy() {
            ShardStrategy::CostBalanced => SHARD_SCHEMA_VERSION,
            ShardStrategy::RoundRobin if self.spec.is_single_default_scenario() => {
                LEGACY_SHARD_SCHEMA_VERSION
            }
            ShardStrategy::RoundRobin => SCENARIO_SHARD_SCHEMA_VERSION,
        };
        let shard = ShardReport {
            schema_version,
            shard_index: 0,
            shard_count: SHARDS,
            spec: self.spec.clone(),
            plan,
            trace_indices: rows.clone(),
            baselines: grid.baselines,
            cells: grid.cells,
            baseline_runs: grid.baseline_runs,
            trace_generations: rows.len(),
        };
        let report = tracer.time("campaign.merge", root_id, || {
            CampaignReport::merge(&[shard])
        });
        let report = report.expect("one complete shard merges");
        let json = tracer.time("report.encode", root_id, || report.to_json());
        let stats = cache.stats();
        tracer.time("cache.close", root_id, || drop(cache));
        drop(root);
        let tree = tracer.tree(id);
        let mut layers = Layers::new();
        layers.insert(
            "trace.synth_ns",
            spans::total_ns(&tree, "trace.synth") as f64,
        );
        layers.insert("trace.synth_uops", synth_uops as f64);
        layers.insert(
            "trace.synth_useful_ratio",
            useful_rows as f64 / rows.len() as f64,
        );
        workload::sim_figures(&tree, sim_uops, &mut layers);
        workload::simulated_figures(&[&report], &mut layers);
        workload::campaign_figures(&tree, &mut layers);
        layers.insert("cache.open_ns", spans::total_ns(&tree, "cache.open") as f64);
        layers.insert("cache.index_bytes", index_bytes(&self.cache_dir));
        layers.insert(
            "cache.lookup_ns",
            spans::total_ns(&tree, "cache.lookup") as f64,
        );
        workload::cache_figures(&stats, &mut layers);
        layers.insert(
            "report.encode_ns",
            spans::total_ns(&tree, "report.encode") as f64,
        );
        layers.insert("report.encode_bytes", json.len() as f64);
        let ok = stats.misses == 0 && json == self.reference;
        (
            id,
            Outcome::single(ok, workload::report_uops(&report)),
            layers,
        )
    }
}

/// Size of the cache's persisted index, which every open reads.
fn index_bytes(cache_dir: &std::path::Path) -> f64 {
    std::fs::metadata(cache_dir.join("index.json")).map_or(0.0, |m| m.len() as f64)
}
