use super::store::STAMP_RESOLUTION_MILLIS;
use super::*;
use crate::campaign::CampaignBuilder;
use hc_sim::SimStats;
use hc_trace::SpecBenchmark;
use serde::Serialize;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
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

/// Return `key`'s cached result, or run `simulate` to produce and publish
/// it — the claim protocol the grid engine drives, with a simulation that
/// cannot fail.  Concurrent callers of one key coalesce onto one
/// simulation.
fn get_or_compute(
    cache: &CellCache,
    key: &CellKey,
    simulate: impl FnOnce() -> SimStats,
) -> SimStats {
    match cache.claim(key) {
        CellClaim::Hit(stats) => *stats,
        CellClaim::Lead(lead) => lead.publish(simulate()),
        CellClaim::Join(join) => match join.wait() {
            Ok(stats) => stats,
            Err(lead) => lead.publish(simulate()),
        },
    }
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
fn two_writers_of_one_shard_file_never_publish_a_part() {
    // Two fan-out workers that both execute shard 0 write the same bytes to
    // the same path.  Neither may fail, and a reader polling the path must
    // only ever find the whole file.
    let dir = tmp_dir("two_writers");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("shard_0000.json");
    let contents = "x".repeat(4 << 20);
    let writing = std::sync::atomic::AtomicUsize::new(2);
    let start = std::sync::Barrier::new(2);
    let (failed_writes, short_reads) = std::thread::scope(|scope| {
        let writers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    let failed = (0..50)
                        .filter(|_| replace(&path, &contents, CampaignError::Checkpoint).is_err())
                        .count();
                    writing.fetch_sub(1, Ordering::SeqCst);
                    failed
                })
            })
            .collect();
        let mut short_reads = 0;
        while writing.load(Ordering::SeqCst) > 0 {
            if let Ok(meta) = std::fs::metadata(&path) {
                short_reads += usize::from(meta.len() != contents.len() as u64);
            }
        }
        let failed: usize = writers.into_iter().map(|w| w.join().unwrap()).sum();
        (failed, short_reads)
    });
    assert_eq!((failed_writes, short_reads), (0, 0));
    let left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name())
        .collect();
    assert_eq!(
        left,
        ["shard_0000.json"],
        "no temporary file is left behind"
    );
    let _ = std::fs::remove_dir_all(&dir);
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
    let counters = cache.stats();
    assert_eq!(
        (counters.hits, counters.misses, counters.inserts),
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
    assert_eq!(cache.stats().evictions, 1);
    assert!(
        cache.lookup(&key).is_none(),
        "and stays gone without re-counting"
    );
    assert_eq!(cache.stats().evictions, 1);
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
    let stats = cache.stats();
    assert_eq!(
        (stats.misses, stats.evictions),
        (0, 0),
        "a torn tail is not an eviction, and poisons nothing: {stats:?}"
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
        canonical: Arc::from("\"not the same key\""),
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

/// Every file under `dir` with its bytes, sorted by path.
fn tree(dir: &std::path::Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir)
        .expect("read dir")
        .filter_map(|e| e.ok())
    {
        let path = entry.path();
        if path.is_dir() {
            files.extend(tree(&path));
        } else {
            let bytes = std::fs::read(&path).expect("read file");
            files.push((path, bytes));
        }
    }
    files.sort();
    files
}

#[test]
fn unknown_layouts_are_refused() {
    let manifest = |layout: Option<u32>| {
        let mut fields = vec![
            (
                "schema_version".to_string(),
                serde::Value::UInt(CACHE_SCHEMA_VERSION as u64),
            ),
            (
                "sim_behavior_version".to_string(),
                serde::Value::UInt(hc_sim::SIM_BEHAVIOR_VERSION as u64),
            ),
        ];
        if let Some(layout) = layout {
            fields.push((
                "layout_version".to_string(),
                serde::Value::UInt(layout as u64),
            ));
        }
        serde::json::to_string_pretty(&serde::Value::Map(fields))
    };

    // A future layout, written over an initialised cache.
    let dir = tmp_dir("layout_skew");
    {
        CellCache::open(&dir).expect("initialise");
    }
    std::fs::write(
        dir.join(MANIFEST_FILE),
        manifest(Some(CACHE_LAYOUT_VERSION + 1)),
    )
    .expect("rewrite manifest");
    let err = CellCache::open(&dir).expect_err("must refuse");
    assert!(err.to_string().contains("cache file layout"));
    let _ = std::fs::remove_dir_all(&dir);

    // The retired layout 1: a manifest without `layout_version` and one
    // JSON file per cell under `cells/`.  It is refused by name, and the
    // directory is left exactly as it was.
    let dir = tmp_dir("layout_v1");
    std::fs::create_dir_all(dir.join("cells")).expect("mkdir cells");
    std::fs::write(dir.join(MANIFEST_FILE), manifest(None)).expect("v1 manifest");
    std::fs::write(
        dir.join("cells")
            .join(format!("{:032x}.json", sample_key(1).digest)),
        r#"{"schema_version": 1, "key": {}, "stats": {}, "elapsed_nanos": 1}"#,
    )
    .expect("v1 entry");
    let before = tree(&dir);
    let err = CellCache::open(&dir).expect_err("must refuse layout 1");
    assert!(matches!(err, crate::campaign::CampaignError::Cache(_)));
    assert!(
        err.to_string().contains("cache file layout v1"),
        "the error names the layout: {err}"
    );
    assert_eq!(tree(&dir), before, "a refused store is left untouched");
    assert!(!dir.join(SEGMENTS_DIR).exists(), "nothing was created");
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
    let produced = get_or_compute(&cache, &key, || stats.clone());
    assert_eq!(produced, stats);
    let replayed = get_or_compute(&cache, &key, || {
        panic!("must not re-simulate a cached cell")
    });
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
                let stats = get_or_compute(&cache, &key, || {
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
    // table lock.  Under `cfg(test)`, `claim` pauses between its probe and
    // the table lock, which widens that window from a few instructions to
    // tens of microseconds.
    const THREADS: usize = 4;
    const KEYS: u64 = 300;
    let dir = tmp_dir("claim_race");
    let cache = CellCache::open(&dir).expect("open");
    let keys: Vec<CellKey> = (0..KEYS).map(|t| sample_key(1_000 + t)).collect();
    let barrier = std::sync::Barrier::new(THREADS);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                for (cycles, key) in (0u64..).zip(&keys) {
                    barrier.wait();
                    let stats = get_or_compute(&cache, key, || SimStats {
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
    // Two *different* keys under one digest must simulate independently
    // even while one is in flight.
    let dir = tmp_dir("singleflight_collide");
    let cache = CellCache::open(&dir).expect("open");
    let a = sample_key(21);
    let forged = CellKey {
        digest: a.digest,
        canonical: Arc::from("\"different document\""),
    };
    let gate = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            get_or_compute(&cache, &a, || {
                gate.wait(); // a's flight is registered; let the forger probe
                std::thread::sleep(std::time::Duration::from_millis(50));
                SimStats {
                    cycles: 1,
                    ..SimStats::default()
                }
            });
        });
        gate.wait();
        let forged_stats = get_or_compute(&cache, &forged, || SimStats {
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
fn hits_within_the_stamp_resolution_write_nothing() {
    let dir = tmp_dir("stamp_resolution");
    let keys: Vec<CellKey> = (0..3).map(|t| sample_key(40 + t)).collect();
    {
        let cache = CellCache::open(&dir).expect("open");
        let recent = now_millis() - 1_000;
        for key in &keys {
            cache.insert(key, &SimStats::default(), 1);
            cache.set_stamp(key, recent);
        }
    }
    let snapshot = std::fs::read(dir.join(INDEX_FILE)).expect("written at drop");
    // Hits on entries used a second ago move no stamp, so the handle drops
    // without rewriting the snapshot.
    {
        let cache = CellCache::open(&dir).expect("reopen");
        let stamps: Vec<Option<u64>> = keys.iter().map(|k| cache.stamp(k)).collect();
        for key in &keys {
            assert!(cache.lookup(key).is_some());
            assert!(matches!(cache.claim(key), CellClaim::Hit(_)));
        }
        assert_eq!(
            keys.iter().map(|k| cache.stamp(k)).collect::<Vec<_>>(),
            stamps
        );
    }
    assert_eq!(
        std::fs::read(dir.join(INDEX_FILE)).expect("snapshot"),
        snapshot,
        "a replay within the resolution writes nothing"
    );
    // A stamp one resolution old, or one in the future, moves to now.
    let cache = CellCache::open(&dir).expect("reopen");
    let now = now_millis();
    cache.set_stamp(&keys[0], now - STAMP_RESOLUTION_MILLIS);
    cache.set_stamp(&keys[1], now + 3_600_000);
    cache.set_stamp(&keys[2], now - STAMP_RESOLUTION_MILLIS + 1_000);
    for key in &keys {
        assert!(cache.lookup(key).is_some());
    }
    for key in &keys[..2] {
        let stamp = cache.stamp(key).expect("indexed");
        assert!((now..=now_millis()).contains(&stamp), "{stamp} vs {now}");
    }
    assert_eq!(
        cache.stamp(&keys[2]),
        Some(now - STAMP_RESOLUTION_MILLIS + 1_000)
    );
    drop(cache);
    let reopened = CellCache::open(&dir).expect("reopen");
    assert!(reopened.stamp(&keys[0]).expect("indexed") >= now);
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

/// The key document exactly as the cache built it before keys were laid out
/// from rendered fragments — the reference every cached cell was keyed on.
/// `cell` is a policy cell's `(warmup_runs, policy)`; `None` is a baseline.
fn reference_document(
    trace: &serde::Value,
    trace_len: usize,
    scenario: &serde::Value,
    cell: Option<(usize, &str)>,
) -> serde::Value {
    let preamble = (
        "versions".to_string(),
        serde::Value::Map(vec![
            (
                "cache_schema".to_string(),
                serde::Value::UInt(CACHE_SCHEMA_VERSION as u64),
            ),
            (
                "sim_behavior".to_string(),
                serde::Value::UInt(hc_sim::SIM_BEHAVIOR_VERSION as u64),
            ),
        ]),
    );
    match cell {
        Some((warmup_runs, policy)) => serde::Value::Map(vec![
            preamble,
            ("kind".to_string(), serde::Value::Str("cell".to_string())),
            ("trace".to_string(), trace.clone()),
            ("trace_len".to_string(), Serialize::to_value(&trace_len)),
            ("warmup_runs".to_string(), Serialize::to_value(&warmup_runs)),
            ("scenario".to_string(), scenario.clone()),
            ("policy".to_string(), serde::Value::Str(policy.to_string())),
        ]),
        None => serde::Value::Map(vec![
            preamble,
            (
                "kind".to_string(),
                serde::Value::Str("baseline".to_string()),
            ),
            ("trace".to_string(), trace.clone()),
            ("trace_len".to_string(), Serialize::to_value(&trace_len)),
            ("scenario".to_string(), scenario.clone()),
        ]),
    }
}

/// The cache identity of a recorded `.uoptrace` file, recorded once.
fn file_trace_doc() -> &'static serde::Value {
    static DOC: std::sync::OnceLock<serde::Value> = std::sync::OnceLock::new();
    DOC.get_or_init(|| {
        let path = tmp_dir("key_file_row").with_extension("uoptrace");
        hc_trace::write_trace(&path, &SpecBenchmark::Bzip2.profile(300).generate())
            .expect("record a trace");
        let doc = crate::campaign::TraceSelector::File {
            path: path.display().to_string(),
        }
        .cache_doc()
        .expect("a recording has a cache identity");
        let _ = std::fs::remove_file(&path);
        doc
    })
}

/// One trace identity of each selector kind, varied by `bits`.
fn sampled_trace_doc(kind: usize, bits: u64) -> serde::Value {
    use crate::campaign::TraceSelector;
    use hc_trace::{KernelKind, PhaseSchedule, WorkloadCategory, WorkloadProfile};
    let spec = SpecBenchmark::ALL[bits as usize % SpecBenchmark::ALL.len()];
    let profile = WorkloadProfile::new(
        format!("custom \"{bits:x}\" µ\\🚀\n"),
        vec![
            (KernelKind::WordSum, 1.0 + (bits % 7) as f64 / 8.0),
            (KernelKind::Checksum, 2.5),
        ],
    )
    .with_category("enc\t");
    let selector = match kind {
        0 => TraceSelector::Spec(spec),
        1 => TraceSelector::CategoryApp {
            category: WorkloadCategory::ALL[bits as usize % 7],
            app: (bits >> 8) as usize % 64,
        },
        2 => TraceSelector::Profile(profile),
        3 => TraceSelector::Phased {
            schedule: PhaseSchedule::new("phased")
                .phase(profile, 1 + (bits >> 16) as usize % 500)
                .phase(spec.profile(1), 60),
        },
        _ => return file_trace_doc().clone(),
    };
    Serialize::to_value(&selector)
}

/// The default scenario, or a named one with a changed machine, predictor
/// sizing and power model.
fn sampled_scenario_doc(bits: u64) -> serde::Value {
    use crate::scenario::ScenarioSpec;
    if bits.is_multiple_of(3) {
        return Serialize::to_value(&ScenarioSpec::default());
    }
    let machine = hc_sim::SimConfig {
        helper_clock_ratio: 1 + (bits >> 4) as u32 % 4,
        rob_entries: 64 + (bits >> 8) as usize % 192,
        ..hc_sim::SimConfig::default()
    };
    let predictors = hc_predictors::PredictorConfig {
        width_entries: 1 << (4 + bits % 8),
        ..hc_predictors::PredictorConfig::default()
    };
    Serialize::to_value(
        &ScenarioSpec::named(format!("s{bits:x} \"quoted\"\\"))
            .with_machine(machine)
            .with_predictors(predictors)
            .with_power(hc_power::PowerParams::with_helper_discount(
                ((bits >> 12) % 400) as f64 / 100.0,
            )),
    )
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(200))]

    /// Keys laid out from rendered fragments are the bytes, and so the
    /// digests, of the key documents every existing cache was written
    /// under: every selector kind, default and other scenarios, warmups
    /// 0–3, every policy name and one that needs JSON escapes.
    #[test]
    fn fragment_keys_are_the_reference_document_bytes(
        selector in 0usize..5,
        warmup_runs in 0usize..4,
        policy in 0usize..9,
        bits in proptest::prelude::any::<u64>(),
    ) {
        let trace = sampled_trace_doc(selector, bits);
        let scenario = sampled_scenario_doc(bits.rotate_left(17));
        let policy = PolicyKind::ALL
            .get(policy)
            .map_or("esc \"q\" \\ \n\t\u{1} µ", |kind| kind.name());
        let (trace_json, scenario_json) =
            (serde::json::to_string(&trace), serde::json::to_string(&scenario));
        let cells = [
            (
                CellKey::cell_from_json(&trace_json, 2_000, warmup_runs, &scenario_json, policy),
                CellKey::cell(&trace, 2_000, warmup_runs, &scenario, policy),
                Some((warmup_runs, policy)),
            ),
            (
                CellKey::baseline_from_json(&trace_json, 2_000, &scenario_json),
                CellKey::baseline(&trace, 2_000, &scenario),
                None,
            ),
        ];
        for (fragments, public, cell) in cells {
            let reference =
                serde::json::to_string(&reference_document(&trace, 2_000, &scenario, cell));
            proptest::prop_assert_eq!(&*fragments.canonical, reference.as_str());
            proptest::prop_assert_eq!(fragments.digest, fnv128(reference.as_bytes()));
            proptest::prop_assert_eq!(&public, &fragments);
        }
    }
}

#[test]
fn the_default_gzip_ir_cell_keeps_its_digest() {
    // Computed by the key builder every existing cache was written under:
    // a change to the key layout that moves this digest orphans every
    // cached cell.
    let spec = CampaignBuilder::new("pinned")
        .policy(PolicyKind::Ir)
        .spec(SpecBenchmark::Gzip)
        .trace_len(2_000)
        .build()
        .unwrap();
    let key = CellKey::cell_from_json(
        &serde::json::to_string(&spec.traces[0]),
        spec.trace_len,
        spec.warmup_runs,
        &render_scenarios(&spec)[0],
        PolicyKind::Ir.name(),
    );
    assert_eq!(key.digest, 0x429560ef5a86382fac946ef44a71b4d9);
}

#[test]
fn a_replaced_segment_costs_a_reopen_not_an_eviction() {
    // Another process rewrites a segment under the same id (same records,
    // a new file): this handle's descriptor still names the old file.
    let dir = tmp_dir("replaced");
    let (k1, k2) = (sample_key(61), sample_key(62));
    {
        let cache = CellCache::open(&dir).expect("open");
        cache.insert(&k1, &SimStats::default(), 1);
        cache.insert(&k2, &SimStats::default(), 2);
    }
    let cache = CellCache::open(&dir).expect("reopen");
    assert!(
        cache.lookup(&k1).is_some(),
        "opens the segment's descriptor"
    );
    let seg = cache.segment_files().pop().expect("one segment");
    let bytes = std::fs::read(&seg).expect("read segment");
    let old = std::fs::File::options()
        .write(true)
        .open(&seg)
        .expect("hold the old file");
    let tmp = seg.with_extension("tmp");
    std::fs::write(&tmp, &bytes).expect("write replacement");
    std::fs::rename(&tmp, &seg).expect("replace segment");
    // Damage the old file, which only the cached descriptor still reaches.
    old.set_len(0).expect("empty the old file");
    drop(old);
    let hit = cache.lookup(&k2).expect("read through a fresh open");
    assert_eq!(hit.elapsed_nanos, 2);
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.evictions), (2, 0, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn forgotten_and_deleted_segments_release_their_descriptors() {
    let dir = tmp_dir("descriptors");
    let keys: Vec<CellKey> = (0..2).map(|t| sample_key(70 + t)).collect();
    {
        let cache = CellCache::open(&dir).expect("open");
        cache.insert(&keys[0], &SimStats::default(), 1);
    }
    {
        let cache = CellCache::open(&dir).expect("open");
        cache.insert(&keys[1], &SimStats::default(), 2);
    }
    let cache = CellCache::open(&dir).expect("reopen");
    let segments = cache.segment_files();
    assert_eq!(segments.len(), 2);
    for key in &keys {
        assert!(cache.lookup(key).is_some());
    }
    assert_eq!(cache.open_segment_ids(), vec![0, 1]);
    // Another handle deletes segment 1: the next sync forgets it.
    std::fs::remove_file(&segments[1]).expect("delete segment 1");
    let _ = cache.stats();
    assert_eq!(cache.open_segment_ids(), vec![0]);
    // Compaction deletes segment 0 once it is quiet.
    age_file(&segments[0], Duration::from_secs(30));
    let outcome = cache
        .gc(&GcPolicy {
            compact: true,
            ..GcPolicy::default()
        })
        .expect("gc");
    assert_eq!(outcome.compacted_segments, 1);
    assert!(!segments[0].exists());
    assert!(!cache.open_segment_ids().contains(&0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_run_sees_the_cache_directory_as_it_is_when_it_starts() {
    // Handle A hits through segment 0, then handle B compacts that segment
    // away.  A's next run must let go of the deleted file, so its disk
    // space is reclaimed, and still hit the cell.
    let dir = tmp_dir("run_refresh");
    let spec = CampaignBuilder::new("refresh")
        .policy(crate::policy::PolicyKind::P888)
        .spec(SpecBenchmark::Gzip)
        .without_baseline()
        .trace_len(600)
        .build()
        .unwrap();
    let run = |cache: &Arc<CellCache>| {
        crate::campaign::CampaignRunner::new()
            .with_cache(Arc::clone(cache))
            .run(&spec)
            .expect("run")
            .to_json()
    };
    let cold = run(&Arc::new(CellCache::open(&dir).expect("open")));
    let a = Arc::new(CellCache::open(&dir).expect("open A"));
    assert_eq!(run(&a), cold);
    assert_eq!(a.open_segment_ids(), vec![0], "A hit through segment 0");
    let b = CellCache::open(&dir).expect("open B");
    let segment = b.segment_files().pop().expect("one segment");
    age_file(&segment, Duration::from_secs(30));
    let compact = GcPolicy {
        compact: true,
        ..GcPolicy::default()
    };
    b.gc(&compact).expect("gc");
    assert!(!segment.exists(), "B compacted segment 0 away");
    assert_eq!(run(&a), cold);
    assert!(
        !a.open_segment_ids().contains(&0),
        "A still holds the compacted segment open"
    );
    let stats = a.stats();
    assert_eq!((stats.hits, stats.misses), (2, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn only_unconfirmed_horizons_are_rescanned_from_the_header() {
    let dir = tmp_dir("confirmed");
    let (k1, k2) = (sample_key(81), sample_key(82));
    {
        let cache = CellCache::open(&dir).expect("open");
        cache.insert(&k1, &SimStats::default(), 1);
        cache.insert(&k2, &SimStats::default(), 2);
    }
    let cache = CellCache::open(&dir).expect("reopen");
    let seg = cache.segment_files().pop().expect("one segment");
    assert!(
        cache.lookup(&k1).is_some(),
        "opens the segment's descriptor"
    );
    // A writer killed mid-append leaves a record prefix behind.
    let partial = segment::encode_record(sample_key(83).digest, 5, b"\"k\"", b"{}");
    std::fs::File::options()
        .append(true)
        .open(&seg)
        .expect("append")
        .write_all(&partial[..partial.len() - 7])
        .expect("tear");
    // The horizon came from the snapshot: the delta scan that meets the
    // tail is redone from the header, which drops the descriptor.
    let _ = cache.stats();
    assert!(cache.open_segment_ids().is_empty());
    // Now the horizon is a scanned record boundary: the same tail, seen
    // by every later sync, costs a delta scan only.
    assert!(cache.lookup(&k2).is_some());
    let stats = cache.stats();
    assert_eq!(cache.open_segment_ids(), vec![0]);
    assert_eq!((stats.hits, stats.misses, stats.evictions), (2, 0, 0));
    let _ = std::fs::remove_dir_all(&dir);
}
