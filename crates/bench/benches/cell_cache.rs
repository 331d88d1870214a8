//! Cell-cache effectiveness: warm-run replay speedup, metadata latency at
//! scale, and the partition balance the cost-model planner buys on a
//! skewed suite.
//!
//! Three measurements, recorded in `BENCH_cell_cache.json` at the
//! repository root:
//!
//! * `cold` vs `warm` — the same Table 2 suite campaign run twice against
//!   one cache directory.  The cold pass simulates and populates; the warm
//!   pass replays every cell from disk (`misses == 0`, byte-identical
//!   report), so `cold/warm` is the end-to-end speedup a repeated
//!   `reproduce` invocation sees.
//! * metadata at 10k entries — `stats()` latency and a dry-run `gc()`
//!   sweep over a 10,000-entry store, both answered from the in-memory
//!   index.
//! * partition balance — per-row wall-clock costs observed by the cold pass
//!   feed `ShardPlan::cost_balanced`; `max_shard / mean_shard` estimated
//!   work for that plan vs the legacy round-robin plan quantifies how much
//!   a straggler row can no longer skew a shard set.
//!
//! Regenerate with
//!
//! ```text
//! CELL_CACHE_RECORD=numbers.json cargo bench -p hc-bench --bench cell_cache
//! ```

use hc_core::cache::{CellCache, CostModel, GcPolicy};
use hc_core::campaign::{CampaignBuilder, CampaignRunner, CampaignSpec};
use hc_core::policy::PolicyKind;
use hc_core::shard::ShardPlan;
use hc_core::CellKey;
use hc_sim::SimStats;
use std::sync::Arc;
use std::time::Instant;

const APPS_PER_CATEGORY: usize = 3;
const TRACE_LEN: usize = 2_000;
const SHARDS: usize = 4;
const SAMPLES: usize = 5;
const STORE_ENTRIES: u64 = 10_000;

fn suite_spec() -> CampaignSpec {
    CampaignBuilder::new("bench-cell-cache")
        .policy(PolicyKind::Ir)
        .category_suite(APPS_PER_CATEGORY)
        .trace_len(TRACE_LEN)
        .build()
        .expect("the bench suite is a valid campaign")
}

/// Best-of-`SAMPLES` wall time of `f`.
fn measure(mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..SAMPLES {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// max/mean estimated shard work under `plan` — 1.0 is a perfect balance.
fn imbalance(plan: &ShardPlan, costs: &[u64]) -> f64 {
    let loads = plan.shard_loads(costs);
    let total: u128 = loads.iter().sum();
    let max = loads.iter().copied().max().unwrap_or(0);
    if total == 0 {
        return 1.0;
    }
    max as f64 / (total as f64 / loads.len() as f64)
}

/// `stats()` + dry-run `gc()` latency over `cache` (best-of-`SAMPLES`
/// each); the gc sweep sees a half-size byte budget so it has real
/// candidate sorting to do.
fn metadata_latency(cache: &CellCache) -> (f64, f64) {
    let budget = cache.stats().bytes / 2;
    let stats_secs = measure(|| {
        std::hint::black_box(cache.stats());
    });
    let gc_secs = measure(|| {
        let outcome = cache
            .gc(&GcPolicy {
                max_bytes: Some(budget),
                dry_run: true,
                ..GcPolicy::default()
            })
            .expect("dry-run sweep");
        assert_eq!(outcome.kept + outcome.evicted, STORE_ENTRIES);
        std::hint::black_box(outcome);
    });
    (stats_secs, gc_secs)
}

fn main() {
    let spec = suite_spec();
    let dir = std::env::temp_dir().join(format!("hc_bench_cell_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Cold: simulate everything, populating the cache.  Measured once —
    // repeating it would hit the now-warm cache.
    let cold_cache = Arc::new(CellCache::open(&dir).expect("open cache"));
    let cold_runner = CampaignRunner::new().with_cache(Arc::clone(&cold_cache));
    let start = Instant::now();
    let cold_report = cold_runner.run(&spec).expect("cold run");
    let cold = start.elapsed().as_secs_f64();
    assert_eq!(cold_cache.stats().hits, 0, "cold cache has nothing to hit");
    drop(cold_cache);

    // Warm: replay every cell from the packed segment store.
    let warm_cache = Arc::new(CellCache::open(&dir).expect("reopen cache"));
    let warm_runner = CampaignRunner::new().with_cache(Arc::clone(&warm_cache));
    let warm = measure(|| {
        let report = warm_runner.run(&spec).expect("warm run");
        assert_eq!(
            report.to_json(),
            cold_report.to_json(),
            "bytes must not move"
        );
        std::hint::black_box(report);
    });
    assert_eq!(
        warm_cache.stats().misses,
        0,
        "warm runs re-simulate nothing"
    );

    // Partition balance under the observed per-row costs.
    let costs = CostModel::observed(&warm_cache).row_costs(&spec);
    drop(warm_cache);

    // Metadata scaling: a 10k-entry synthetic store.
    let store_dir =
        std::env::temp_dir().join(format!("hc_bench_cell_cache_10k_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = CellCache::open(&store_dir).expect("open 10k store");
    let scenario = serde::Value::Str("bench".to_string());
    for i in 0..STORE_ENTRIES {
        let key = CellKey::cell(&serde::Value::UInt(i), 1_000, 0, &scenario, "8_8_8");
        store.insert(&key, &SimStats::default(), i);
    }
    let (stats_secs, gc_secs) = metadata_latency(&store);
    drop(store);
    let _ = std::fs::remove_dir_all(&store_dir);

    let round_robin = ShardPlan::round_robin(costs.len(), SHARDS).expect("rr plan");
    let balanced = ShardPlan::cost_balanced(&costs, SHARDS).expect("balanced plan");
    let rr_ratio = imbalance(&round_robin, &costs);
    let lpt_ratio = imbalance(&balanced, &costs);
    let skew = *costs.iter().max().unwrap() as f64 / *costs.iter().min().unwrap() as f64;

    let speedup = cold / warm;
    println!("cell_cache/cold_run            {:>10.4} s", cold);
    println!("cell_cache/warm_run            {:>10.4} s", warm);
    println!("cell_cache/warm_speedup        {:>10.1}x", speedup);
    println!("cell_cache/stats_10k_packed    {:>10.6} s", stats_secs);
    println!("cell_cache/gc_10k_packed       {:>10.6} s", gc_secs);
    println!("cell_cache/row_cost_skew       {:>10.2}x max/min", skew);
    println!("cell_cache/rr_max_over_mean    {:>10.4}", rr_ratio);
    println!("cell_cache/lpt_max_over_mean   {:>10.4}", lpt_ratio);

    if let Some(path) = std::env::var_os("CELL_CACHE_RECORD") {
        let json = format!(
            "{{\n  \"suite\": \"{} traces x IR, trace_len {}\",\n  \"cold_run_secs\": {cold:.4},\n  \"warm_run_secs\": {warm:.4},\n  \"warm_speedup\": {speedup:.1},\n  \"store_entries\": {STORE_ENTRIES},\n  \"stats_10k_packed_secs\": {stats_secs:.6},\n  \"gc_10k_packed_secs\": {gc_secs:.6},\n  \"row_cost_skew_max_over_min\": {skew:.2},\n  \"shards\": {SHARDS},\n  \"round_robin_max_over_mean_work\": {rr_ratio:.4},\n  \"cost_balanced_max_over_mean_work\": {lpt_ratio:.4}\n}}\n",
            spec.traces.len(),
            TRACE_LEN,
        );
        std::fs::write(&path, json).expect("write CELL_CACHE_RECORD file");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
