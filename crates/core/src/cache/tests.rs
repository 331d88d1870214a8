use super::*;
use crate::campaign::CampaignBuilder;
use hc_sim::SimStats;
use hc_trace::SpecBenchmark;
use serde::Serialize;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime};

fn tmp_dir(tag: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("hc_cell_cache_unit_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    path
}

fn sample_key(tag: u64) -> CellKey {
    CellKey::cell(
        &serde::Value::UInt(tag),
        1_000,
        0,
        &serde::Value::Str("scenario".to_string()),
        "8_8_8",
    )
}

/// Backdate a segment file's mtime so grace-gated reclaim (tail truncation,
/// compaction) treats it as quiet.
fn age_file(path: &std::path::Path, by: Duration) {
    std::fs::File::options()
        .write(true)
        .open(path)
        .expect("open for backdate")
        .set_modified(SystemTime::now() - by)
        .expect("backdate mtime");
}

#[test]
fn digests_are_stable_and_key_sensitive() {
    let a = sample_key(1);
    assert_eq!(a, sample_key(1), "same inputs, same key");
    assert_ne!(a.digest, sample_key(2).digest, "trace identity matters");
    assert_ne!(
        a.digest,
        CellKey::cell(
            &serde::Value::UInt(1),
            1_000,
            1, // warmup differs
            &serde::Value::Str("scenario".to_string()),
            "8_8_8",
        )
        .digest
    );
    assert_ne!(
        a.digest,
        CellKey::baseline(
            &serde::Value::UInt(1),
            1_000,
            &serde::Value::Str("scenario".to_string())
        )
        .digest,
        "cell and baseline keys never collide"
    );
    assert_eq!(a.file_name().len(), 32 + ".json".len());
}

#[test]
fn insert_then_lookup_round_trips() {
    let dir = tmp_dir("roundtrip");
    let cache = CellCache::open(&dir).expect("open");
    let key = sample_key(7);
    assert!(cache.lookup(&key).is_none());
    let mut stats = SimStats {
        cycles: 123,
        ..SimStats::default()
    };
    stats.imbalance.wide_to_narrow = 0.125;
    cache.insert(&key, &stats, 456);
    let hit = cache.lookup(&key).expect("hit after insert");
    assert_eq!(hit.stats, stats);
    assert_eq!(hit.elapsed_nanos, 456);
    assert_eq!(cache.observed_nanos(&key), Some(456));
    let activity = cache.activity();
    assert_eq!(
        (activity.hits, activity.misses, activity.inserts),
        (1, 1, 1)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_records_are_evicted() {
    let dir = tmp_dir("evict");
    let key = sample_key(9);
    {
        let cache = CellCache::open(&dir).expect("open");
        cache.insert(&key, &SimStats::default(), 1);
    }
    // Flip one byte near the end of the segment — inside the record's
    // payload, past the checksummed header.
    let seg = std::fs::read_dir(dir.join(SEGMENTS_DIR))
        .expect("segments dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "pack"))
        .expect("one segment");
    let mut bytes = std::fs::read(&seg).expect("read segment");
    let at = bytes.len() - 20;
    bytes[at] ^= 0xff;
    std::fs::write(&seg, &bytes).expect("corrupt");
    let cache = CellCache::open(&dir).expect("reopen");
    assert!(cache.lookup(&key).is_none(), "corrupt record is a miss");
    assert_eq!(cache.activity().evictions, 1);
    assert!(
        cache.lookup(&key).is_none(),
        "and stays gone without re-counting"
    );
    assert_eq!(cache.activity().evictions, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_tails_are_truncated_at_open() {
    let dir = tmp_dir("torn");
    let (k1, k2) = (sample_key(31), sample_key(32));
    {
        let cache = CellCache::open(&dir).expect("open");
        cache.insert(&k1, &SimStats::default(), 1);
        cache.insert(&k2, &SimStats::default(), 2);
    }
    let seg = {
        let cache = CellCache::open(&dir).expect("probe");
        cache.segment_files().pop().expect("one segment")
    };
    let clean_len = std::fs::metadata(&seg).expect("meta").len();
    // Simulate a writer killed mid-append: a record prefix (valid magic,
    // truncated body) at the tail.
    let mut file = std::fs::File::options()
        .append(true)
        .open(&seg)
        .expect("append");
    let partial = segment::encode_record(sample_key(33).digest, 5, b"\"k\"", b"{}");
    file.write_all(&partial[..partial.len() - 7]).expect("tear");
    drop(file);
    age_file(&seg, Duration::from_secs(30));
    let cache = CellCache::open(&dir).expect("reopen over torn tail");
    assert_eq!(
        std::fs::metadata(&seg).expect("meta").len(),
        clean_len,
        "the torn tail must be truncated away"
    );
    assert!(cache.lookup(&k1).is_some());
    assert!(cache.lookup(&k2).is_some());
    let activity = cache.activity();
    assert_eq!(
        (activity.misses, activity.evictions),
        (0, 0),
        "a torn tail is not an eviction, and poisons nothing: {activity:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fresh_torn_tails_are_left_alone() {
    // A tail younger than the reclaim grace may be a live writer
    // mid-append: it must be skipped, not truncated.
    let dir = tmp_dir("torn_fresh");
    let k1 = sample_key(41);
    {
        let cache = CellCache::open(&dir).expect("open");
        cache.insert(&k1, &SimStats::default(), 1);
    }
    let seg = {
        let cache = CellCache::open(&dir).expect("probe");
        cache.segment_files().pop().expect("one segment")
    };
    let mut file = std::fs::File::options()
        .append(true)
        .open(&seg)
        .expect("append");
    file.write_all(&segment::REC_MAGIC.to_le_bytes())
        .expect("tear");
    drop(file);
    let torn_len = std::fs::metadata(&seg).expect("meta").len();
    let cache = CellCache::open(&dir).expect("reopen");
    assert_eq!(
        std::fs::metadata(&seg).expect("meta").len(),
        torn_len,
        "a fresh tail must not be truncated"
    );
    assert!(cache.lookup(&k1).is_some(), "sound records still serve");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn index_is_rebuilt_from_segments_when_snapshot_is_lost() {
    let dir = tmp_dir("rebuild");
    let (k1, k2) = (sample_key(51), sample_key(52));
    {
        let cache = CellCache::open(&dir).expect("open");
        cache.insert(&k1, &SimStats::default(), 11);
        cache.insert(&k2, &SimStats::default(), 22);
    }
    // A killed process never persists its snapshot.
    std::fs::remove_file(dir.join(INDEX_FILE)).expect("drop snapshot");
    {
        let cache = CellCache::open(&dir).expect("rebuild by scan");
        assert_eq!(cache.observed_nanos(&k1), Some(11));
        assert_eq!(cache.observed_nanos(&k2), Some(22));
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.misses), (2, 0));
    }
    // A garbage snapshot is equivalent to a missing one.
    std::fs::write(dir.join(INDEX_FILE), "not json").expect("garbage snapshot");
    let cache = CellCache::open(&dir).expect("rebuild past garbage");
    assert_eq!(cache.observed_nanos(&k1), Some(11));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_see_other_handles_appends() {
    // Two handles on one directory (two threads, or two processes): the
    // cheap index refresh picks up segments the other handle appended,
    // without a per-entry directory walk.
    let dir = tmp_dir("cross_handle");
    let a = CellCache::open(&dir).expect("open a");
    let b = CellCache::open(&dir).expect("open b");
    let key = sample_key(61);
    a.insert(&key, &SimStats::default(), 7);
    let stats = b.stats();
    assert_eq!((stats.entries, stats.bytes > 0), (1, true));
    assert!(b.lookup(&key).is_some(), "b serves a's record");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn colliding_entries_degrade_to_misses() {
    // An entry whose stored key differs from the probe (a forged digest
    // collision) must not be replayed.
    let dir = tmp_dir("collide");
    let cache = CellCache::open(&dir).expect("open");
    let a = sample_key(1);
    cache.insert(&a, &SimStats::default(), 1);
    let forged = CellKey {
        digest: a.digest,
        document: serde::Value::Str("not the same key".to_string()),
    };
    assert!(cache.lookup(&forged).is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn foreign_directories_are_refused() {
    let dir = tmp_dir("foreign");
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join("important.txt"), "do not clobber").expect("seed file");
    let err = CellCache::open(&dir).expect_err("must refuse");
    assert!(matches!(err, crate::campaign::CampaignError::Cache(_)));
    assert!(err.to_string().contains("not a cell cache"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_skewed_manifests_are_refused() {
    let dir = tmp_dir("skew");
    {
        CellCache::open(&dir).expect("initialise");
    }
    let skewed = serde::Value::Map(vec![
        (
            "schema_version".to_string(),
            serde::Value::UInt((CACHE_SCHEMA_VERSION + 1) as u64),
        ),
        (
            "sim_behavior_version".to_string(),
            serde::Value::UInt(hc_sim::SIM_BEHAVIOR_VERSION as u64),
        ),
    ]);
    std::fs::write(
        dir.join(MANIFEST_FILE),
        serde::json::to_string_pretty(&skewed),
    )
    .expect("rewrite manifest");
    let err = CellCache::open(&dir).expect_err("must refuse");
    assert!(err.to_string().contains("refusing to mix entries"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_layouts_are_refused() {
    let dir = tmp_dir("layout_skew");
    {
        CellCache::open(&dir).expect("initialise");
    }
    let future = serde::Value::Map(vec![
        (
            "schema_version".to_string(),
            serde::Value::UInt(CACHE_SCHEMA_VERSION as u64),
        ),
        (
            "sim_behavior_version".to_string(),
            serde::Value::UInt(hc_sim::SIM_BEHAVIOR_VERSION as u64),
        ),
        (
            "layout_version".to_string(),
            serde::Value::UInt((CACHE_LAYOUT_VERSION + 1) as u64),
        ),
    ]);
    std::fs::write(
        dir.join(MANIFEST_FILE),
        serde::json::to_string_pretty(&future),
    )
    .expect("rewrite manifest");
    let err = CellCache::open(&dir).expect_err("must refuse");
    assert!(err.to_string().contains("cache file layout"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reopened_caches_keep_their_entries() {
    let dir = tmp_dir("reopen");
    let key = sample_key(3);
    {
        let cache = CellCache::open(&dir).expect("open");
        cache.insert(&key, &SimStats::default(), 42);
    }
    let cache = CellCache::open(&dir).expect("reopen");
    assert!(cache.lookup(&key).is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn get_or_compute_hits_skip_simulation_and_misses_lead() {
    let dir = tmp_dir("singleflight_basic");
    let cache = CellCache::open(&dir).expect("open");
    let key = sample_key(11);
    let stats = SimStats {
        cycles: 77,
        ..SimStats::default()
    };
    let produced = cache.get_or_compute(&key, || stats.clone());
    assert_eq!(produced, stats);
    let replayed = cache.get_or_compute(&key, || panic!("must not re-simulate a cached cell"));
    assert_eq!(replayed, stats);
    let s = cache.stats();
    assert_eq!((s.dedupe_leads, s.dedupe_joins), (1, 0));
    assert_eq!((s.hits, s.misses), (1, 1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_identical_keys_coalesce_onto_one_simulation() {
    let dir = tmp_dir("singleflight_coalesce");
    let cache = CellCache::open(&dir).expect("open");
    let key = sample_key(13);
    let sims = AtomicU64::new(0);
    let barrier = std::sync::Barrier::new(4);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                barrier.wait();
                let stats = cache.get_or_compute(&key, || {
                    sims.fetch_add(1, Ordering::Relaxed);
                    // Hold the flight open long enough that the other
                    // threads' lookups miss and join.
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    SimStats {
                        cycles: 42,
                        ..SimStats::default()
                    }
                });
                assert_eq!(stats.cycles, 42);
            });
        }
    });
    assert_eq!(
        sims.load(Ordering::Relaxed),
        1,
        "exactly one simulation must run for one key"
    );
    let s = cache.stats();
    assert_eq!(s.dedupe_leads, 1);
    assert_eq!(
        s.dedupe_joins + s.hits,
        3,
        "every other caller joined the flight or hit the fresh entry: {s:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn racing_claims_simulate_each_key_once() {
    // Each round releases every thread onto one fresh key at once.  A claim
    // that probes the index just before the lead publishes, and takes the
    // flight table just after the lead has left it, would lead a second
    // simulation of a cached cell unless it re-reads the index under the
    // table lock.  One legacy entry keeps the per-miss legacy probe live,
    // which widens that window from a few instructions to a file open.
    const THREADS: usize = 4;
    const KEYS: u64 = 300;
    let dir = tmp_dir("claim_race");
    {
        let cache = CellCache::open(&dir).expect("open");
        cache.insert(&sample_key(u64::MAX), &SimStats::default(), 1);
        assert_eq!(cache.demote_to_legacy_layout().expect("demote"), 1);
    }
    let cache = CellCache::open(&dir).expect("open with a legacy entry");
    let keys: Vec<CellKey> = (0..KEYS).map(|t| sample_key(1_000 + t)).collect();
    let barrier = std::sync::Barrier::new(THREADS);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                for (cycles, key) in (0u64..).zip(&keys) {
                    barrier.wait();
                    let stats = cache.get_or_compute(key, || SimStats {
                        cycles,
                        ..SimStats::default()
                    });
                    assert_eq!(stats.cycles, cycles);
                }
            });
        }
    });
    let s = cache.stats();
    assert_eq!(
        s.dedupe_leads, KEYS,
        "one simulation per distinct key: {s:?}"
    );
    assert_eq!(
        s.hits + s.misses,
        THREADS as u64 * KEYS,
        "each claim counts exactly one hit or one miss: {s:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn colliding_inflight_keys_do_not_share_results() {
    // Two *different* documents under one digest must simulate
    // independently even while one is in flight.
    let dir = tmp_dir("singleflight_collide");
    let cache = CellCache::open(&dir).expect("open");
    let a = sample_key(21);
    let forged = CellKey {
        digest: a.digest,
        document: serde::Value::Str("different document".to_string()),
    };
    let gate = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            cache.get_or_compute(&a, || {
                gate.wait(); // a's flight is registered; let the forger probe
                std::thread::sleep(std::time::Duration::from_millis(50));
                SimStats {
                    cycles: 1,
                    ..SimStats::default()
                }
            });
        });
        gate.wait();
        let forged_stats = cache.get_or_compute(&forged, || SimStats {
            cycles: 2,
            ..SimStats::default()
        });
        assert_eq!(forged_stats.cycles, 2, "collision must not share results");
    });
    assert_eq!(cache.stats().dedupe_leads, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gc_reclaims_lru_entries_under_a_byte_budget() {
    let dir = tmp_dir("gc_lru");
    let cache = CellCache::open(&dir).expect("open");
    let old = sample_key(1);
    let mid = sample_key(2);
    let new = sample_key(3);
    for key in [&old, &mid, &new] {
        cache.insert(key, &SimStats::default(), 1);
    }
    // Backdate last-use: `old` two hours ago, `mid` one hour ago.
    let now = now_millis();
    cache.set_stamp(&old, now - 7_200_000);
    cache.set_stamp(&mid, now - 3_600_000);
    let total = cache.stats().bytes;
    assert_eq!(total % 3, 0, "equal-shaped records");
    let per_entry = total / 3;

    // Dry run first: nothing deleted, outcome reported.
    let dry = cache
        .gc(&GcPolicy {
            max_bytes: Some(per_entry * 2),
            dry_run: true,
            ..GcPolicy::default()
        })
        .expect("dry gc");
    assert_eq!((dry.evicted, dry.kept), (1, 2));
    assert!(
        cache.observed_nanos(&old).is_some(),
        "dry run must not delete"
    );

    // Budget for two entries: the LRU entry (`old`) goes.
    let swept = cache
        .gc(&GcPolicy {
            max_bytes: Some(per_entry * 2),
            ..GcPolicy::default()
        })
        .expect("gc");
    assert_eq!((swept.evicted, swept.kept), (1, 2));
    assert_eq!(swept.kept_bytes, per_entry * 2);
    assert!(cache.observed_nanos(&old).is_none());
    assert!(cache.observed_nanos(&mid).is_some());
    assert!(cache.observed_nanos(&new).is_some());

    // Age cap: `mid` (one hour old) expires under a 30-minute limit.
    let aged = cache
        .gc(&GcPolicy {
            max_age: Some(Duration::from_secs(1_800)),
            ..GcPolicy::default()
        })
        .expect("age gc");
    assert_eq!((aged.evicted, aged.kept), (1, 1));
    assert!(cache.observed_nanos(&mid).is_none());
    let stats = cache.stats();
    assert_eq!(stats.evictions, 2, "gc evictions are counted");
    assert_eq!(stats.entries, 1);
    assert_eq!(stats.bytes, per_entry);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gc_breaks_stamp_ties_by_digest() {
    // Coarse clocks stamp whole insert bursts identically; eviction order
    // must stay deterministic anyway.  Pin every entry to the *same*
    // last-use instant and sweep down to one survivor: the entries must go
    // in ascending digest order, leaving the largest digest alive — on
    // every filesystem, every run.
    let dir = tmp_dir("gc_ties");
    let cache = CellCache::open(&dir).expect("open");
    let keys: Vec<CellKey> = (0..4).map(sample_key).collect();
    let stamp = now_millis() - 3_600_000;
    for key in &keys {
        cache.insert(key, &SimStats::default(), 1);
        cache.set_stamp(key, stamp);
    }
    let per_entry = cache.stats().bytes / 4;
    let swept = cache
        .gc(&GcPolicy {
            max_bytes: Some(per_entry),
            ..GcPolicy::default()
        })
        .expect("gc");
    assert_eq!((swept.evicted, swept.kept), (3, 1));
    let survivor = keys.iter().max_by_key(|k| k.digest).expect("non-empty");
    for key in &keys {
        assert_eq!(
            cache.observed_nanos(key).is_some(),
            key.digest == survivor.digest,
            "tie-break must evict ascending by digest (digest {:032x})",
            key.digest
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gc_evicts_cheap_entries_before_expensive_ones_within_a_stamp() {
    // Within one last-use stamp the sweep ranks by recorded simulation
    // cost: a byte budget preferentially keeps the cells that are most
    // expensive to regenerate.  Pin four equally-stale entries with
    // distinct costs and sweep down to two survivors.
    let dir = tmp_dir("gc_cost");
    let cache = CellCache::open(&dir).expect("open");
    let keys: Vec<CellKey> = (0..4).map(sample_key).collect();
    let stamp = now_millis() - 3_600_000;
    // Costs deliberately anti-correlated with digest order so a digest
    // tie-break alone could not pass this test.
    let costs = [40_000u64, 10_000, 30_000, 20_000];
    for (key, cost) in keys.iter().zip(costs) {
        cache.insert(key, &SimStats::default(), cost);
        cache.set_stamp(key, stamp);
    }
    let per_entry = cache.stats().bytes / 4;
    let swept = cache
        .gc(&GcPolicy {
            max_bytes: Some(per_entry * 2),
            ..GcPolicy::default()
        })
        .expect("gc");
    assert_eq!((swept.evicted, swept.kept), (2, 2));
    for (key, cost) in keys.iter().zip(costs) {
        assert_eq!(
            cache.observed_nanos(key).is_some(),
            cost >= 30_000,
            "cheap entries must go first (cost {cost})"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gc_cost_ranking_survives_index_rebuilds() {
    // The cost lives in the record payload; a full segment rescan (lost
    // index.json) must lift it back into the index so a later sweep still
    // ranks by it.
    let dir = tmp_dir("gc_cost_rescan");
    let cheap = sample_key(6);
    let dear = sample_key(7);
    {
        let cache = CellCache::open(&dir).expect("open");
        // Equal-digit costs keep the two records byte-identical in length,
        // so `max_bytes` below is exactly one entry.
        cache.insert(&cheap, &SimStats::default(), 111_111);
        cache.insert(&dear, &SimStats::default(), 999_999);
    }
    std::fs::remove_file(dir.join("index.json")).expect("snapshot exists");
    let cache = CellCache::open(&dir).expect("reopen");
    let stamp = now_millis() - 3_600_000;
    for key in [&cheap, &dear] {
        cache.set_stamp(key, stamp);
    }
    let per_entry = cache.stats().bytes / 2;
    let swept = cache
        .gc(&GcPolicy {
            max_bytes: Some(per_entry),
            ..GcPolicy::default()
        })
        .expect("gc");
    assert_eq!((swept.evicted, swept.kept), (1, 1));
    assert!(
        cache.observed_nanos(&cheap).is_none(),
        "cheap entry evicted"
    );
    assert!(
        cache.observed_nanos(&dear).is_some(),
        "expensive entry kept after rescan"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lookup_bumps_last_use_so_hot_entries_survive_gc() {
    let dir = tmp_dir("gc_touch");
    let cache = CellCache::open(&dir).expect("open");
    let hot = sample_key(4);
    let cold = sample_key(5);
    let stale = now_millis() - 7_200_000;
    for key in [&hot, &cold] {
        cache.insert(key, &SimStats::default(), 1);
        cache.set_stamp(key, stale);
    }
    // A hit records the use, rescuing `hot` from the age sweep.
    assert!(cache.lookup(&hot).is_some());
    let swept = cache
        .gc(&GcPolicy {
            max_age: Some(Duration::from_secs(3_600)),
            ..GcPolicy::default()
        })
        .expect("gc");
    assert_eq!((swept.evicted, swept.kept), (1, 1));
    assert!(
        cache.observed_nanos(&hot).is_some(),
        "used entry must survive"
    );
    assert!(cache.observed_nanos(&cold).is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compaction_rewrites_mostly_dead_segments() {
    let dir = tmp_dir("compact");
    let keys: Vec<CellKey> = (0..4).map(|t| sample_key(100 + t)).collect();
    {
        let cache = CellCache::open(&dir).expect("open");
        for key in &keys {
            cache.insert(key, &SimStats::default(), 1);
        }
    }
    let cache = CellCache::open(&dir).expect("reopen");
    // Re-insert one key: its old record in the sealed segment is now dead.
    cache.insert(&keys[0], &SimStats::default(), 99);
    let sealed = cache.segment_files()[0].clone();
    age_file(&sealed, Duration::from_secs(30));
    let swept = cache
        .gc(&GcPolicy {
            compact: true,
            ..GcPolicy::default()
        })
        .expect("gc with compaction");
    assert_eq!(swept.compacted_segments, 1, "{swept:?}");
    assert!(swept.reclaimed_bytes > 0);
    assert!(!sealed.exists(), "the victim segment is gone");
    for key in &keys {
        assert!(
            cache.observed_nanos(key).is_some(),
            "live records survive compaction"
        );
    }
    assert_eq!(cache.observed_nanos(&keys[0]), Some(99));
    let stats = cache.stats();
    assert_eq!((stats.entries, stats.evictions), (4, 0));
    // And the rewrite survives a reopen (the moved offsets were persisted).
    drop(cache);
    let reopened = CellCache::open(&dir).expect("reopen after compaction");
    for key in &keys {
        assert!(reopened.lookup(key).is_some());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pack_migrates_legacy_caches_in_place() {
    let dir = tmp_dir("pack");
    let keys: Vec<CellKey> = (0..3).map(|t| sample_key(200 + t)).collect();
    {
        let cache = CellCache::open(&dir).expect("open");
        for (i, key) in keys.iter().enumerate() {
            cache.insert(key, &SimStats::default(), 10 + i as u64);
        }
        let demoted = cache.demote_to_legacy_layout().expect("demote");
        assert_eq!(demoted, 3);
    }
    assert!(
        dir.join(CELLS_DIR).join(keys[0].file_name()).exists(),
        "demotion produced per-file entries"
    );
    let cache = CellCache::open(&dir).expect("open legacy");
    assert_eq!(
        cache.observed_nanos(&keys[1]),
        Some(11),
        "legacy entries serve transparently"
    );
    let outcome = cache.pack().expect("pack");
    assert_eq!((outcome.migrated, outcome.dropped), (3, 0));
    assert!(
        !dir.join(CELLS_DIR).exists(),
        "migrated files (and the empty cells dir) are gone"
    );
    for (i, key) in keys.iter().enumerate() {
        assert_eq!(cache.observed_nanos(key), Some(10 + i as u64));
    }
    drop(cache);
    let warm = CellCache::open(&dir).expect("reopen packed");
    for key in &keys {
        assert!(warm.lookup(key).is_some());
    }
    let activity = warm.activity();
    assert_eq!((activity.hits, activity.misses), (3, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn uniform_cost_model_prices_rows_identically() {
    let spec = CampaignBuilder::new("cost")
        .policy(crate::policy::PolicyKind::P888)
        .policy(crate::policy::PolicyKind::Baseline)
        .spec(SpecBenchmark::Gzip)
        .spec(SpecBenchmark::Mcf)
        .trace_len(1_000)
        .build()
        .unwrap();
    let costs = CostModel::uniform().row_costs(&spec);
    assert_eq!(costs.len(), 2);
    assert_eq!(costs[0], costs[1]);
    assert!(costs[0] > 0);
}

#[test]
fn observed_timings_refine_row_costs() {
    let dir = tmp_dir("observed");
    let cache = CellCache::open(&dir).expect("open");
    let spec = CampaignBuilder::new("cost")
        .policy(crate::policy::PolicyKind::P888)
        .spec(SpecBenchmark::Gzip)
        .spec(SpecBenchmark::Mcf)
        .trace_len(1_000)
        .build()
        .unwrap();
    // Record mcf (row 1) as 100× slower than the default estimate.
    let trace_doc = Serialize::to_value(&spec.traces[1]);
    let scenario_doc = Serialize::to_value(&spec.scenarios[0]);
    let slow = 1_000 * CostModel::DEFAULT_NANOS_PER_UOP * 100;
    cache.insert(
        &CellKey::baseline(&trace_doc, 1_000, &scenario_doc),
        &SimStats::default(),
        slow,
    );
    cache.insert(
        &CellKey::cell(&trace_doc, 1_000, 0, &scenario_doc, "8_8_8"),
        &SimStats::default(),
        slow,
    );
    let costs = CostModel::observed(&cache).row_costs(&spec);
    assert!(
        costs[1] > costs[0] * 50,
        "observed row must dominate: {costs:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
