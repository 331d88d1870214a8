//! Integration coverage for the content-addressed cell cache
//! (`hc_core::cache`) and the cost-balanced shard planner built on it.
//!
//! The load-bearing invariant everywhere below: a report assembled from
//! cache hits is **byte-identical** to one assembled from fresh simulation.
//! The cache may only change *when* cells are simulated, never what any
//! consumer observes.

use hc_core::cache::{CellCache, CostModel, GcPolicy};
use hc_core::figures;
use hc_core::shard::{ShardPlan, ShardStrategy, ShardedCampaignRunner};
use hc_core::CellKey;
use hc_sim::SimStats;
use hc_trace::WorkloadCategory;
use helper_cluster::prelude::*;
use proptest::prelude::*;
use serde::Value;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, SystemTime};

const LEN: usize = 800;

/// A unique scratch directory per test (removed on success; a failed test
/// leaves it behind for inspection).
fn tmp_dir(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("hc_cell_cache_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    path
}

fn small_spec() -> CampaignSpec {
    CampaignBuilder::new("cache-it")
        .policy(PolicyKind::P888)
        .policy(PolicyKind::Ir)
        .spec(SpecBenchmark::Gzip)
        .spec(SpecBenchmark::Mcf)
        .spec(SpecBenchmark::Vpr)
        .trace_len(LEN)
        .build()
        .expect("valid campaign")
}

#[test]
fn warm_reports_are_byte_identical_and_simulate_nothing() {
    let dir = tmp_dir("warm");
    let spec = small_spec();
    // 3 traces × (1 baseline + 2 policy cells) = 9 cache lookups per run.
    let lookups = 9;

    let uncached = CampaignRunner::new().run(&spec).expect("uncached run");

    let cold_cache = Arc::new(CellCache::open(&dir).expect("open cold"));
    let cold = CampaignRunner::new()
        .with_cache(Arc::clone(&cold_cache))
        .run(&spec)
        .expect("cold run");
    let activity = cold_cache.stats();
    assert_eq!(activity.hits, 0, "nothing to hit on a cold cache");
    assert_eq!(activity.misses, lookups);
    assert_eq!(activity.inserts, lookups);
    assert_eq!(
        cold.to_json(),
        uncached.to_json(),
        "caching must not change the report bytes"
    );

    let warm_cache = Arc::new(CellCache::open(&dir).expect("open warm"));
    let warm = CampaignRunner::new()
        .with_cache(Arc::clone(&warm_cache))
        .run(&spec)
        .expect("warm run");
    let activity = warm_cache.stats();
    assert_eq!(activity.misses, 0, "a warm run re-simulates zero cells");
    assert_eq!(activity.hits, lookups);
    assert_eq!(activity.inserts, 0);
    assert_eq!(warm.to_json(), cold.to_json(), "warm bytes == cold bytes");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file under `dir`, recursively: path, bytes and modification time.
fn files(dir: &std::path::Path) -> Vec<(PathBuf, Vec<u8>, SystemTime)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            out.extend(files(&path));
        } else {
            let modified = std::fs::metadata(&path)
                .and_then(|m| m.modified())
                .expect("file mtime");
            out.push((
                path.clone(),
                std::fs::read(&path).expect("file bytes"),
                modified,
            ));
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

#[test]
fn warm_replays_write_nothing_to_the_cache() {
    // Hits move a last-use stamp only once it is a minute old, so replays
    // right after the fill leave the index, and so every file, untouched.
    let dir = tmp_dir("read_only_replay");
    let spec = small_spec();
    let cold = ShardedCampaignRunner::new(1)
        .with_cache(Arc::new(CellCache::open(&dir).expect("open cold")))
        .run(&spec)
        .expect("cold run")
        .report
        .to_json();
    let filled = files(&dir);
    assert!(filled.iter().any(|(path, ..)| path.ends_with("index.json")));
    for shards in [1, 2] {
        let cache = Arc::new(CellCache::open(&dir).expect("open warm"));
        let warm = ShardedCampaignRunner::new(shards)
            .with_cache(Arc::clone(&cache))
            .run(&spec)
            .expect("warm run")
            .report;
        assert_eq!(cache.stats().misses, 0);
        drop(cache);
        assert_eq!(warm.to_json(), cold, "{shards} shards");
        assert!(files(&dir) == filled, "{shards} shards: the replay wrote");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn golden_suite_bytes_survive_the_cache() {
    // The same snapshot `tests/golden_suite.rs` pins, but produced through
    // the cache — cold (populating) and warm (replaying) — via the sharded
    // runner.  Both must match the committed golden bytes exactly: cells
    // restored from disk are indistinguishable from fresh simulation.
    let golden = std::fs::read_to_string("tests/golden/suite_2pc.json")
        .expect("golden snapshot missing; regenerate with GOLDEN_REGEN=1");
    let spec = CampaignBuilder::new("golden-suite")
        .policy(PolicyKind::Ir)
        .category_suite(2)
        .trace_len(1_500)
        .build()
        .expect("the golden suite is a valid campaign");
    let dir = tmp_dir("golden");
    for pass in ["cold", "warm"] {
        let cache = Arc::new(CellCache::open(&dir).expect("open cache"));
        let report = ShardedCampaignRunner::new(3)
            .with_cache(Arc::clone(&cache))
            .run(&spec)
            .expect("the golden suite runs")
            .report;
        let fig14 = figures::fig14(Some(&report));
        let snapshot =
            serde::json::to_string_pretty(&(&report.baselines, &report.cells, &fig14.rows));
        assert_eq!(snapshot, golden, "{pass} cache pass diverged from golden");
        if pass == "warm" {
            assert_eq!(cache.stats().misses, 0, "warm pass must replay everything");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn caches_are_shared_across_shard_counts() {
    // Entries are keyed by cell content, not by partition: a cache warmed
    // by an unsharded run must fully serve any shard count (and vice
    // versa), and the merged bytes must not move.
    let dir = tmp_dir("shard-share");
    let spec = small_spec();
    let cache = Arc::new(CellCache::open(&dir).expect("open"));
    let unsharded = CampaignRunner::new()
        .with_cache(Arc::clone(&cache))
        .run(&spec)
        .expect("unsharded warming run");

    for shard_count in [1usize, 2, 4] {
        let warm = Arc::new(CellCache::open(&dir).expect("reopen"));
        let outcome = ShardedCampaignRunner::new(shard_count)
            .with_cache(Arc::clone(&warm))
            .run(&spec)
            .expect("sharded run");
        assert_eq!(
            outcome.report.to_json(),
            unsharded.to_json(),
            "{shard_count}-shard merge must match the unsharded bytes"
        );
        let activity = warm.stats();
        assert_eq!(
            activity.misses, 0,
            "{shard_count}-shard run re-simulates zero cells"
        );
        assert_eq!(activity.hits, 9);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn foreign_directories_are_refused_end_to_end() {
    // `--cache DIR` pointed at a directory that is not a cache must fail
    // with a typed error before anything is written into it.
    let dir = tmp_dir("foreign");
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join("thesis.tex"), "irreplaceable").expect("seed file");
    let err = CellCache::open(&dir).expect_err("foreign dir must be refused");
    assert!(matches!(err, CampaignError::Cache(_)));
    assert_eq!(
        std::fs::read_to_string(dir.join("thesis.tex")).expect("file intact"),
        "irreplaceable"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_entries_are_evicted_and_resimulated_identically() {
    let dir = tmp_dir("corrupt");
    let spec = small_spec();
    let cold_cache = Arc::new(CellCache::open(&dir).expect("open"));
    let cold = CampaignRunner::new()
        .with_cache(Arc::clone(&cold_cache))
        .run(&spec)
        .expect("cold run");
    drop(cold_cache); // seal the segment, persist the index snapshot

    // Flip one byte inside the newest record's payload: the kind of damage
    // a bad disk or outside interference leaves behind.  Drop the index
    // snapshot too, so the reopen rebuilds from a full segment scan and the
    // record checksum catches the damage right there.
    let victim = std::fs::read_dir(dir.join("segments"))
        .expect("read segments dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "pack"))
        .expect("at least one segment");
    let mut bytes = std::fs::read(&victim).expect("read segment");
    let at = bytes.len() - 20;
    bytes[at] ^= 0xff;
    std::fs::write(&victim, &bytes).expect("damage segment");
    std::fs::remove_file(dir.join("index.json")).expect("drop index snapshot");

    let warm = Arc::new(CellCache::open(&dir).expect("reopen"));
    let rerun = CampaignRunner::new()
        .with_cache(Arc::clone(&warm))
        .run(&spec)
        .expect("run over damaged cache");
    assert_eq!(rerun.to_json(), cold.to_json(), "repair must be invisible");
    let activity = warm.stats();
    assert_eq!(activity.evictions, 1, "the damaged entry is deleted");
    assert_eq!(activity.misses, 1, "…and its cell re-simulated");
    assert_eq!(activity.hits, 8, "every other cell replays");
    assert_eq!(activity.inserts, 1, "…and re-inserted");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_writers_leave_torn_tails_that_are_truncated_without_poisoning_hits() {
    let dir = tmp_dir("torn");
    let spec = small_spec();
    let cold_cache = Arc::new(CellCache::open(&dir).expect("open"));
    let cold = CampaignRunner::new()
        .with_cache(Arc::clone(&cold_cache))
        .run(&spec)
        .expect("cold run");
    drop(cold_cache); // seal the segment, persist the index snapshot

    // Simulate a writer SIGKILLed mid-append: a record header starts at the
    // tail of the newest segment but the bytes stop short of the declared
    // lengths — exactly the debris a dead process leaves behind.
    let victim = std::fs::read_dir(dir.join("segments"))
        .expect("read segments dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "pack"))
        .expect("at least one segment");
    let clean_len = std::fs::metadata(&victim).expect("stat").len();
    let mut tail = 0x4552_4348u32.to_le_bytes().to_vec(); // the record magic
    tail.extend_from_slice(&[0xAB; 17]); // …then silence, mid-header
    {
        use std::io::Write as _;
        let mut file = std::fs::File::options()
            .append(true)
            .open(&victim)
            .expect("open segment for append");
        file.write_all(&tail).expect("append torn tail");
    }
    // Backdate the segment past the reclaim grace window (which protects a
    // *live* writer's in-progress append from being cut).
    std::fs::File::options()
        .write(true)
        .open(&victim)
        .expect("reopen segment")
        .set_modified(SystemTime::now() - Duration::from_secs(60))
        .expect("backdate");

    let warm = Arc::new(CellCache::open(&dir).expect("reopen"));
    assert_eq!(
        std::fs::metadata(&victim).expect("stat").len(),
        clean_len,
        "the torn tail is truncated at open"
    );
    let rerun = CampaignRunner::new()
        .with_cache(Arc::clone(&warm))
        .run(&spec)
        .expect("run over recovered cache");
    assert_eq!(
        rerun.to_json(),
        cold.to_json(),
        "recovery must be invisible"
    );
    let activity = warm.stats();
    assert_eq!(activity.misses, 0, "no committed entry was lost");
    assert_eq!(activity.hits, 9, "every cell replays from the clean prefix");
    assert_eq!(activity.evictions, 0, "a torn tail is not a corrupt entry");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gc_sweeps_a_ten_thousand_entry_cache() {
    // Scale smoke for the index-driven sweep: 10k synthetic entries, a
    // half-size byte budget, then a full compaction — all through the same
    // public API `reproduce cache-gc` drives.
    let dir = tmp_dir("gc10k");
    let total = 10_000u64;
    let scenario = Value::Str("gc-smoke".to_string());
    let cache = CellCache::open(&dir).expect("open");
    for i in 0..total {
        let key = CellKey::cell(&Value::UInt(i), 1_000, 0, &scenario, "8_8_8");
        cache.insert(&key, &SimStats::default(), i);
    }
    let stats = cache.stats();
    assert_eq!(stats.entries, total);

    let swept = cache
        .gc(&GcPolicy {
            max_bytes: Some(stats.bytes / 2),
            ..GcPolicy::default()
        })
        .expect("budget sweep");
    assert_eq!(
        swept.kept + swept.evicted,
        total,
        "every entry is accounted for"
    );
    assert!(swept.evicted > 0, "a half-size budget must evict");
    assert!(
        swept.kept_bytes <= stats.bytes / 2,
        "the sweep lands under budget"
    );
    assert_eq!(cache.stats().entries, swept.kept);
    drop(cache); // seal the writer, persist the index snapshot

    // Compaction only touches sealed segments past the reclaim grace
    // window (a fresh tail may be a live writer's), so age them first.
    for entry in std::fs::read_dir(dir.join("segments")).expect("read segments dir") {
        let path = entry.expect("dir entry").path();
        std::fs::File::options()
            .write(true)
            .open(&path)
            .expect("open segment")
            .set_modified(SystemTime::now() - Duration::from_secs(60))
            .expect("backdate");
    }
    let reopened = CellCache::open(&dir).expect("reopen");
    assert_eq!(reopened.stats().entries, swept.kept, "survivors persist");
    let compacted = reopened
        .gc(&GcPolicy {
            compact: true,
            ..GcPolicy::default()
        })
        .expect("compaction sweep");
    assert!(compacted.reclaimed_bytes > 0, "dead bytes were reclaimed");
    assert_eq!(
        reopened.stats().entries,
        swept.kept,
        "compaction loses no live entry"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn observed_timings_rebalance_the_sharded_partition() {
    // With a warm cache the sharded runner plans by observed cost; whatever
    // partition it picks, the merged report bytes must not move.
    let dir = tmp_dir("rebalance");
    let spec = CampaignBuilder::new("skew")
        .policy(PolicyKind::Ir)
        .spec_suite()
        .trace_len(LEN)
        .build()
        .expect("valid campaign");
    let baseline = ShardedCampaignRunner::new(3)
        .run(&spec)
        .expect("uncached sharded run")
        .report;
    let cache = Arc::new(CellCache::open(&dir).expect("open"));
    for _pass in 0..2 {
        let outcome = ShardedCampaignRunner::new(3)
            .with_cache(Arc::clone(&cache))
            .run(&spec)
            .expect("cached sharded run");
        assert_eq!(outcome.report.to_json(), baseline.to_json());
    }
    // The planner saw real observations on the second pass; prove the
    // cost-model plumbing reaches it (the plan may or may not deviate from
    // round-robin — observed timings decide — but it must partition).
    let model = CostModel::observed(&cache);
    let plan = ShardPlan::for_spec(&spec, 3, &model).expect("plan");
    let covered: usize = (0..plan.shard_count()).map(|k| plan.rows(k).len()).sum();
    assert_eq!(covered, spec.traces.len());
    // A one-shard plan skips the costing and is still the plan the costs
    // would have made.
    let one = ShardPlan::for_spec(&spec, 1, &model).expect("one-shard plan");
    assert_eq!(
        one,
        ShardPlan::cost_balanced(&model.row_costs(&spec), 1).expect("costed plan")
    );
    assert_eq!(one.strategy(), ShardStrategy::RoundRobin);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn planner_costs_are_read_from_the_index() {
    // The cost model prices rows from the index alone: with every segment
    // file gone it still sees the recorded costs, and reads, evicts and
    // counts nothing.
    let dir = tmp_dir("index_costs");
    let spec = small_spec();
    {
        let cold = Arc::new(CellCache::open(&dir).expect("open"));
        CampaignRunner::new()
            .with_cache(Arc::clone(&cold))
            .run(&spec)
            .expect("cold run");
    }
    let warm = CostModel::observed(&CellCache::open(&dir).expect("open warm")).row_costs(&spec);
    assert_ne!(
        warm,
        CostModel::uniform().row_costs(&spec),
        "costs were observed"
    );
    // A fresh handle, whose memo holds nothing.
    let cache = CellCache::open(&dir).expect("reopen warm");
    std::fs::rename(dir.join("segments"), dir.join("segments.moved")).expect("move segments");
    assert_eq!(CostModel::observed(&cache).row_costs(&spec), warm);
    let stats = cache.stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.evictions),
        (0, 0, 0),
        "{stats:?}"
    );
    drop(cache);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Deterministic splitmix64, for sampling cost vectors from one seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The cost-balanced partition is a permutation-complete cover of the
    /// grid for *any* cost vector and shard count: every row appears in
    /// exactly one shard, ascending within its shard, and the LPT greedy
    /// bound holds (no shard exceeds the mean load by more than one row's
    /// cost).
    #[test]
    fn cost_balanced_partitions_cover_the_grid(
        seed in any::<u64>(),
        n_rows in 0usize..60,
        shard_count in 1usize..9,
        skew_shift in 0u32..32,
    ) {
        let mut state = seed;
        let costs: Vec<u64> = (0..n_rows)
            // Shifting widens the spread up to ~4e9×: uniform, mild and
            // pathological skews all hit the same laws.
            .map(|_| 1 + (splitmix(&mut state) >> (32 + skew_shift % 32)) as u64)
            .collect();
        let plan = ShardPlan::cost_balanced(&costs, shard_count).expect("plan");
        prop_assert_eq!(plan.shard_count(), shard_count);

        // Permutation-complete cover: each row exactly once, in order.
        let mut owner = vec![usize::MAX; n_rows];
        for k in 0..shard_count {
            let rows = plan.rows(k);
            prop_assert!(rows.windows(2).all(|w| w[0] < w[1]), "ascending rows");
            for &row in rows {
                prop_assert!(row < n_rows);
                prop_assert_eq!(owner[row], usize::MAX, "row {} claimed twice", row);
                owner[row] = k;
            }
        }
        prop_assert!(owner.iter().all(|&k| k != usize::MAX), "every row covered");

        // Greedy balance bound: max load ≤ mean + max single cost.
        let loads = plan.shard_loads(&costs);
        let total: u128 = loads.iter().sum();
        let max_load = loads.iter().copied().max().unwrap_or(0);
        let max_cost = costs.iter().copied().max().unwrap_or(0) as u128;
        prop_assert!(
            max_load <= total / shard_count as u128 + max_cost,
            "LPT bound violated: loads {:?} costs {:?}", loads, costs
        );
    }

    /// Uniform costs canonicalise to the legacy round-robin plan — the
    /// wire-compatibility guarantee for uncached sharded runs.
    #[test]
    fn uniform_costs_degenerate_to_round_robin(
        n_rows in 0usize..60,
        shard_count in 1usize..9,
        cost in 1u64..1_000_000,
    ) {
        let costs = vec![cost; n_rows];
        let plan = ShardPlan::cost_balanced(&costs, shard_count).expect("plan");
        prop_assert_eq!(plan.strategy(), ShardStrategy::RoundRobin);
        let round_robin = ShardPlan::round_robin(n_rows, shard_count).expect("rr");
        for k in 0..shard_count {
            prop_assert_eq!(plan.rows(k), round_robin.rows(k));
        }
    }

    /// `ShardPlan::for_spec` covers a real spec's grid exactly:
    /// per-shard cell counts sum back to the full campaign, with any cost
    /// skew injected through a synthetic cache.
    #[test]
    fn balanced_shard_plans_cover_real_specs(
        selector_mask in 1u16..(1 << 14),
        shard_count in 1usize..7,
    ) {
        let mut builder = CampaignBuilder::new("balanced-prop")
            .policy(PolicyKind::P888)
            .trace_len(1_000);
        for bit in 0..14usize {
            if selector_mask & (1 << bit) != 0 {
                let category = WorkloadCategory::ALL[bit % 7];
                builder = builder.category_app(category, bit / 7 + 5);
            }
        }
        let spec = builder.build().expect("sampled specs are valid");
        let plan = ShardPlan::for_spec(&spec, shard_count, &CostModel::uniform())
            .expect("balanced plans are valid");
        prop_assert_eq!(plan.shard_count(), shard_count);
        let mut seen = vec![false; spec.traces.len()];
        for k in 0..shard_count {
            for &row in plan.rows(k) {
                prop_assert!(!seen[row], "row {} claimed twice", row);
                seen[row] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "every row covered");
        let row_cells = spec.policies.len() * spec.scenarios.len();
        let cells: usize = (0..shard_count).map(|k| plan.rows(k).len() * row_cells).sum();
        prop_assert_eq!(cells, spec.cell_count());
    }
}
