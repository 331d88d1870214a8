//! Integration coverage for the multi-process shard fan-out
//! (`hc_core::fanout`): lease claiming, work-stealing, crash recovery and
//! the merge coordinator.
//!
//! The load-bearing invariant everywhere below: however many workers
//! execute a campaign's shards — concurrently, after crashes, after
//! steals — the merged report is **byte-identical** to the single-process
//! run.  The fan-out may only change *where* cells are simulated, never
//! what any consumer observes.

use hc_core::cache::{CellCache, CostModel};
use hc_core::campaign::{CampaignError, CampaignProgress};
use hc_core::fanout::{lease_file_name, FanoutWorker, MergeCoordinator, MergeWait, ShardLease};
use hc_core::CellKey;
use hc_sim::SimStats;
use helper_cluster::prelude::*;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

const LEN: usize = 600;

/// A unique scratch directory per test (removed on success; a failed test
/// leaves it behind for inspection).
fn tmp_dir(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("hc_fanout_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    std::fs::create_dir_all(&path).expect("mkdir");
    path
}

fn small_spec() -> CampaignSpec {
    CampaignBuilder::new("fanout-it")
        .policy(PolicyKind::Ir)
        .spec(SpecBenchmark::Gzip)
        .spec(SpecBenchmark::Mcf)
        .spec(SpecBenchmark::Vpr)
        .spec(SpecBenchmark::Twolf)
        .trace_len(LEN)
        .build()
        .expect("valid campaign")
}

#[test]
fn four_worker_fleet_is_byte_identical_to_single_process() {
    let dir = tmp_dir("fleet");
    let spec = small_spec();
    let single = CampaignRunner::new()
        .run(&spec)
        .expect("single-process run");

    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|k| {
                let dir = &dir;
                let spec = &spec;
                scope.spawn(move || {
                    FanoutWorker::new(4, dir)
                        .home_shard(k)
                        .worker_id(format!("fleet-{k}"))
                        .run(spec)
                        .expect("worker run")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });

    // No worker crashed, so leases stayed fresh and every shard ran in
    // exactly one worker: the executed sets partition {0, 1, 2, 3}.
    let mut executed: Vec<usize> = outcomes
        .iter()
        .flat_map(|o| o.executed_shards.iter().copied())
        .collect();
    executed.sort_unstable();
    assert_eq!(executed, vec![0, 1, 2, 3]);

    let merged = MergeCoordinator::new(&dir).run().expect("merge");
    assert_eq!(
        merged.report.to_json(),
        single.to_json(),
        "fan-out must not change the report bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_lease_of_a_killed_worker_is_reclaimed() {
    let dir = tmp_dir("crash");
    let spec = small_spec();
    let single = CampaignRunner::new()
        .run(&spec)
        .expect("single-process run");

    // A worker completes only shard 1, leaving shard 0 unfinished.
    FanoutWorker::new(2, &dir)
        .home_shard(1)
        .steal(false)
        .run(&spec)
        .expect("first worker");

    // Simulate a worker SIGKILLed mid-shard-0: its lease file survives
    // (nothing unwound to remove it), its heartbeat stopped an age ago,
    // and its half-written report is garbage.
    let lease = dir.join(lease_file_name(0));
    std::fs::write(&lease, "{\"worker\": \"killed\"}").expect("orphan lease");
    std::fs::File::options()
        .write(true)
        .open(&lease)
        .expect("open lease")
        .set_modified(SystemTime::now() - Duration::from_secs(3_600))
        .expect("backdate");
    std::fs::write(dir.join("shard_0000.json"), "{ truncated mid-write").expect("torn shard file");

    // A relaunched worker must break the stale lease, re-execute shard 0
    // over the torn file, and converge.
    let outcome = FanoutWorker::new(2, &dir)
        .lease_timeout(Duration::from_secs(1))
        .run(&spec)
        .expect("relaunched worker");
    assert_eq!(outcome.executed_shards, vec![0]);
    assert_eq!(outcome.stolen_shards, vec![0], "no home shard: all stolen");

    let merged = MergeCoordinator::new(&dir).run().expect("merge");
    assert_eq!(
        merged.report.to_json(),
        single.to_json(),
        "crash recovery must not change the report bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn racing_workers_execute_each_shard_exactly_once() {
    let dir = tmp_dir("race");
    let spec = small_spec();

    // Two no-steal workers race for the *same* home shard.  Exactly one
    // wins the lease and simulates; the loser polls until the winner's
    // report lands and exits without executing anything.
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let dir = &dir;
                let spec = &spec;
                scope.spawn(move || {
                    FanoutWorker::new(2, dir)
                        .home_shard(0)
                        .steal(false)
                        .worker_id(format!("racer-{i}"))
                        .run(spec)
                        .expect("worker run")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });
    let executed: Vec<&[usize]> = outcomes
        .iter()
        .map(|o| o.executed_shards.as_slice())
        .collect();
    assert!(
        executed == [&[0][..], &[][..]] || executed == [&[][..], &[0][..]],
        "exactly one racer may win the claim, got {executed:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleet_shares_one_packed_cache_and_a_killed_writers_tail_is_recovered() {
    let dir = tmp_dir("packed");
    let cache_dir = tmp_dir("packed_cache");
    let spec = small_spec();
    let single = CampaignRunner::new()
        .run(&spec)
        .expect("single-process run");

    // Two concurrent workers populate ONE packed cache while executing
    // disjoint shards; the merged bytes must not move.
    let cache = Arc::new(CellCache::open(&cache_dir).expect("open cache"));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|k| {
                let dir = &dir;
                let spec = &spec;
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    FanoutWorker::new(2, dir)
                        .home_shard(k)
                        .worker_id(format!("packed-{k}"))
                        .with_cache(cache)
                        .run(spec)
                        .expect("worker run")
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("join");
        }
    });
    let merged = MergeCoordinator::new(&dir).run().expect("merge");
    assert_eq!(
        merged.report.to_json(),
        single.to_json(),
        "a shared packed cache must not change the report bytes"
    );
    let inserts = cache.stats().inserts;
    assert!(inserts > 0, "the fleet populated the cache");
    drop(cache); // seal the segment, persist the index snapshot

    // A worker SIGKILLed mid-append leaves a half-written record at the
    // segment tail.  Backdate the file past the reclaim grace window so
    // the next open treats the tail as debris, not a live writer.
    let victim = std::fs::read_dir(cache_dir.join("segments"))
        .expect("read segments dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "pack"))
        .expect("at least one segment");
    let mut tail = 0x4552_4348u32.to_le_bytes().to_vec(); // the record magic
    tail.extend_from_slice(&[0xCD; 11]); // …then silence, mid-header
    {
        use std::io::Write as _;
        let mut file = std::fs::File::options()
            .append(true)
            .open(&victim)
            .expect("open segment for append");
        file.write_all(&tail).expect("append torn tail");
    }
    std::fs::File::options()
        .write(true)
        .open(&victim)
        .expect("reopen segment")
        .set_modified(SystemTime::now() - Duration::from_secs(60))
        .expect("backdate");

    // A relaunched fleet in a fresh fan-out directory replays entirely
    // from the recovered cache: zero misses, identical merged bytes.
    let warm = Arc::new(CellCache::open(&cache_dir).expect("reopen cache"));
    let rerun_dir = tmp_dir("packed_rerun");
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|k| {
                let dir = &rerun_dir;
                let spec = &spec;
                let warm = Arc::clone(&warm);
                scope.spawn(move || {
                    FanoutWorker::new(2, dir)
                        .home_shard(k)
                        .worker_id(format!("rerun-{k}"))
                        .with_cache(warm)
                        .run(spec)
                        .expect("warm worker run")
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("join");
        }
    });
    let remerged = MergeCoordinator::new(&rerun_dir).run().expect("remerge");
    assert_eq!(
        remerged.report.to_json(),
        single.to_json(),
        "crash recovery must not change the report bytes"
    );
    let activity = warm.stats();
    assert_eq!(
        activity.misses, 0,
        "no committed entry was lost to the tail"
    );
    assert_eq!(activity.hits, inserts, "every cell replays from the cache");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&rerun_dir);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn merge_refuses_a_mixed_plan_directory() {
    let dir = tmp_dir("mixed");
    let spec = small_spec();

    // A complete, healthy 2-shard fan-out under the uniform (round-robin)
    // plan...
    FanoutWorker::new(2, &dir).run(&spec).expect("fleet run");

    // ...then one shard file is replaced by a *decodable* report cut along
    // a genuinely different partition: fabricated cost observations make
    // row 0 look enormously expensive, so LPT packs it alone.
    let cache_dir = tmp_dir("mixed_cache");
    let cache = CellCache::open(&cache_dir).expect("open cache");
    let trace_doc = serde::Serialize::to_value(&spec.traces[0]);
    let scenario_doc = serde::Serialize::to_value(&spec.scenarios[0]);
    for key in [
        CellKey::baseline(&trace_doc, spec.trace_len, &scenario_doc),
        CellKey::cell(
            &trace_doc,
            spec.trace_len,
            spec.warmup_runs,
            &scenario_doc,
            PolicyKind::Ir.name(),
        ),
    ] {
        cache.insert(&key, &SimStats::default(), u64::MAX / 4);
    }
    let skewed = ShardPlan::for_spec(&spec, 2, &CostModel::observed(&cache)).expect("skewed plan");
    let round_robin = ShardPlan::round_robin(spec.traces.len(), 2).expect("round-robin plan");
    assert_ne!(
        skewed, round_robin,
        "sanity: the fabricated costs must actually change the partition"
    );
    let foreign = ShardReport::run(&spec, &skewed, 0, None, None).expect("foreign shard run");
    std::fs::write(dir.join("shard_0000.json"), foreign.to_json()).expect("swap shard file");

    // Even a *waiting* coordinator must refuse immediately: no amount of
    // waiting repairs a directory whose shards disagree about the plan.
    let err = MergeCoordinator::new(&dir)
        .wait(MergeWait::Timeout(Duration::from_secs(30)))
        .run()
        .expect_err("mixed-plan directory must be refused");
    assert!(
        matches!(err, CampaignError::ShardSetMismatch(_)),
        "expected ShardSetMismatch, got: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn waiting_merge_converges_while_workers_trickle_in() {
    let dir = tmp_dir("wait");
    let spec = small_spec();
    let single = CampaignRunner::new()
        .run(&spec)
        .expect("single-process run");

    let merged = std::thread::scope(|scope| {
        let coordinator = {
            let dir = dir.clone();
            scope.spawn(move || {
                MergeCoordinator::new(dir)
                    .wait(MergeWait::Timeout(Duration::from_secs(120)))
                    .run()
            })
        };
        // The coordinator starts before any worker, so it must first wait
        // for the manifest; the second worker starts later still, so it
        // must then wait for the last shard.
        std::thread::sleep(Duration::from_millis(50));
        FanoutWorker::new(2, &dir)
            .home_shard(0)
            .steal(false)
            .run(&spec)
            .expect("early worker");
        std::thread::sleep(Duration::from_millis(100));
        FanoutWorker::new(2, &dir)
            .home_shard(1)
            .steal(false)
            .run(&spec)
            .expect("late worker");
        coordinator.join().expect("join")
    })
    .expect("the waiting coordinator merges once both shards land");
    assert_eq!(
        merged.report.to_json(),
        single.to_json(),
        "waited merge must not change the report bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn waiting_merge_times_out_naming_the_missing_manifest() {
    let dir = tmp_dir("no_workers");
    let err = MergeCoordinator::new(&dir)
        .wait(MergeWait::Timeout(Duration::from_millis(200)))
        .run()
        .expect_err("no worker ever starts");
    assert!(matches!(err, CampaignError::Checkpoint(_)), "{err}");
    let msg = err.to_string();
    assert!(
        msg.contains("timed out") && msg.contains("campaign.json"),
        "the timeout must name the manifest: {msg}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn idle_worker_wakes_soon_after_its_peers_shard_lands() {
    let dir = tmp_dir("wake");
    let spec = small_spec();
    let single = CampaignRunner::new()
        .run(&spec)
        .expect("single-process run");
    // The peer's shard, computed up front; the worker's uncached plan is
    // the round-robin one.
    let plan = ShardPlan::round_robin(spec.traces.len(), 2).expect("plan");
    let peer_report = ShardReport::run(&spec, &plan, 1, None, None).expect("peer shard run");
    // A live peer holds shard 1 for the whole wait.
    let peer_lease = ShardLease::try_claim(&dir, 1, "peer", Duration::from_secs(60))
        .expect("claim")
        .expect("empty directory: the peer wins shard 1");

    let (outcome, wake_latency) = std::thread::scope(|scope| {
        let worker = scope.spawn(|| {
            let outcome = FanoutWorker::new(2, &dir)
                .home_shard(0)
                .worker_id("waker")
                .run(&spec)
                .expect("worker run");
            (outcome, Instant::now())
        });
        let own_shard = dir.join("shard_0000.json");
        let started = Instant::now();
        while !own_shard.exists() {
            assert!(
                started.elapsed() < Duration::from_secs(60),
                "the worker never wrote its home shard"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        // Let the worker settle into its wait, then land the peer's shard.
        std::thread::sleep(Duration::from_millis(100));
        let tmp = dir.join("shard_0001.json.tmp");
        std::fs::write(&tmp, peer_report.to_json()).expect("write peer shard");
        std::fs::rename(&tmp, dir.join("shard_0001.json")).expect("publish peer shard");
        let landed_at = Instant::now();
        drop(peer_lease);
        let (outcome, returned_at) = worker.join().expect("join");
        (outcome, returned_at.saturating_duration_since(landed_at))
    });
    assert!(
        wake_latency < Duration::from_secs(2),
        "the worker took {wake_latency:?} to notice its peer's shard"
    );
    assert_eq!(outcome.executed_shards, vec![0]);
    assert!(outcome.stolen_shards.is_empty());
    let merged = MergeCoordinator::new(&dir).run().expect("merge");
    assert_eq!(merged.report.to_json(), single.to_json());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_workers_progress_counts_across_its_shards() {
    // One worker executing both shards reports one campaign-wide count, not
    // a count per shard.
    let dir = tmp_dir("progress");
    let spec = small_spec();
    let events = Arc::new(Mutex::new(Vec::new()));
    let seen = Arc::clone(&events);
    let outcome = FanoutWorker::new(2, &dir)
        .with_progress(move |p| {
            let mut seen = seen.lock().expect("events");
            seen.push((p.completed_cells, p.total_cells));
        })
        .run(&spec)
        .expect("worker run");
    assert_eq!(outcome.executed_shards, vec![0, 1]);
    let total = spec.cell_count();
    let events = events.lock().expect("events");
    assert!(events.iter().all(|&(_, of)| of == total), "{events:?}");
    let mut completed: Vec<usize> = events.iter().map(|&(done, _)| done).collect();
    completed.sort_unstable();
    assert_eq!(completed, (1..=total).collect::<Vec<_>>());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn progress_counts_arrive_in_delivery_order() {
    // Two worker threads that finish cells at the same moment must still
    // deliver `completed_cells` as 1, 2, ..., N: each event is numbered
    // under the lock that delivers it.  Every pass after the first replays
    // its cells from the cache, and the hook is slow, so one thread's next
    // cell is ready while the other waits to deliver: a count taken before
    // the lock would then arrive out of order.  The rayon cap is
    // process-wide; no other test in this binary depends on the thread
    // count.
    rayon::set_thread_cap(2);
    let dir = tmp_dir("ordered_progress");
    let cache = Arc::new(CellCache::open(dir.join("cache")).expect("open cache"));
    let mut spec = CampaignBuilder::new("ordered-progress")
        .policy(PolicyKind::P888)
        .policy(PolicyKind::Ir);
    for benchmark in SpecBenchmark::ALL {
        spec = spec.spec(benchmark);
    }
    let spec = spec.trace_len(200).build().expect("valid campaign");
    let expected: Vec<usize> = (1..=spec.cell_count()).collect();
    let recorder = |events: &Arc<Mutex<Vec<usize>>>| {
        let events = Arc::clone(events);
        move |p: &CampaignProgress| {
            std::thread::sleep(Duration::from_micros(200));
            events.lock().expect("events").push(p.completed_cells);
        }
    };
    for pass in 0..10 {
        let events = Arc::new(Mutex::new(Vec::new()));
        CampaignRunner::new()
            .with_cache(Arc::clone(&cache))
            .with_progress(recorder(&events))
            .run(&spec)
            .expect("grid run");
        assert_eq!(
            *events.lock().expect("events"),
            expected,
            "grid pass {pass}"
        );
    }
    for pass in 0..4 {
        let events = Arc::new(Mutex::new(Vec::new()));
        let outcome = FanoutWorker::new(2, dir.join(format!("checkpoint-{pass}")))
            .with_cache(Arc::clone(&cache))
            .with_progress(recorder(&events))
            .run(&spec)
            .expect("worker run");
        assert_eq!(outcome.executed_shards, vec![0, 1]);
        assert_eq!(
            *events.lock().expect("events"),
            expected,
            "worker pass {pass}"
        );
    }
    rayon::set_thread_cap(0);
    let _ = std::fs::remove_dir_all(&dir);
}
