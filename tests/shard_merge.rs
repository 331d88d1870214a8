//! Acceptance tests for the sharded suite-campaign engine:
//!
//! * merging N shard reports — any N, presented in any order — is
//!   **byte-identical** to the unsharded `CampaignReport` JSON;
//! * checkpointed runs resume: completed shards are skipped, deleted shards
//!   re-run, and the merged output never changes;
//! * the full 409-trace Table 2 suite runs as one streaming campaign
//!   (each trace synthesized on the fly inside a worker, one generation per
//!   row);
//! * a checkpointed runner is a fleet of one fan-out worker plus a merge:
//!   it reproduces the golden suite and reports progress over the whole
//!   campaign.

use hc_core::figures;
use hc_trace::WorkloadCategory;
use helper_cluster::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

fn suite_spec() -> CampaignSpec {
    CampaignBuilder::new("shard-acceptance")
        .policy(PolicyKind::Ir)
        .policy(PolicyKind::P888)
        .category_suite(1)
        .trace_len(900)
        .build()
        .expect("valid suite spec")
}

/// A unique, cleaned-on-drop checkpoint directory under the target dir.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path =
            std::env::temp_dir().join(format!("hc_shard_merge_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn merged_shards_are_byte_identical_to_the_unsharded_report_for_any_count_and_order() {
    let spec = suite_spec();
    let unsharded = CampaignRunner::new().run(&spec).expect("unsharded run");
    let unsharded_json = unsharded.to_json();
    for shard_count in [1, 2, 3, 5, 11] {
        let plan = ShardPlan::round_robin(spec.traces.len(), shard_count).expect("plan");
        let mut reports: Vec<ShardReport> = (0..shard_count)
            .map(|k| ShardReport::run(&spec, &plan, k, None, None).expect("shard runs"))
            .collect();
        // Present the shards in a scrambled order: reversed, then with the
        // first two swapped.
        reports.reverse();
        if reports.len() > 1 {
            reports.swap(0, 1);
        }
        let merged = CampaignReport::merge(&reports).expect("merge");
        assert_eq!(
            merged.to_json(),
            unsharded_json,
            "{shard_count} shards must merge byte-identically"
        );
        assert_eq!(merged.trace_generations, spec.traces.len());
        assert_eq!(merged.baseline_runs, spec.traces.len());
    }
}

#[test]
fn sharded_runner_checkpoints_and_resumes() {
    let spec = suite_spec();
    let dir = TempDir::new("resume");
    let runner = ShardedCampaignRunner::new(4)
        .with_checkpoint(&dir.0)
        .resume(true);

    // Cold run: everything executes, shard files + manifest appear.
    let first = runner.run(&spec).expect("cold run");
    assert_eq!(first.executed_shards, vec![0, 1, 2, 3]);
    assert!(first.resumed_shards.is_empty());
    assert!(dir.0.join("campaign.json").is_file());
    for i in 0..4 {
        assert!(dir.0.join(format!("shard_{i:04}.json")).is_file());
    }

    // Warm rerun: every shard resumes from disk, nothing executes, and the
    // merged report is unchanged byte-for-byte.
    let second = runner.run(&spec).expect("warm run");
    assert!(second.executed_shards.is_empty());
    assert_eq!(second.resumed_shards, vec![0, 1, 2, 3]);
    assert_eq!(second.report.to_json(), first.report.to_json());

    // Losing one shard file re-runs exactly that shard.
    std::fs::remove_file(dir.0.join("shard_0002.json")).expect("drop shard 2");
    let third = runner.run(&spec).expect("partial resume");
    assert_eq!(third.executed_shards, vec![2]);
    assert_eq!(third.resumed_shards, vec![0, 1, 3]);
    assert_eq!(third.report.to_json(), first.report.to_json());

    // A corrupt shard file is treated as absent, re-run and overwritten.
    std::fs::write(dir.0.join("shard_0001.json"), "{ truncated").expect("corrupt shard 1");
    let fourth = runner.run(&spec).expect("corrupt-file recovery");
    assert_eq!(fourth.executed_shards, vec![1]);
    assert_eq!(fourth.report.to_json(), first.report.to_json());
}

#[test]
fn resume_refuses_a_checkpoint_from_a_different_campaign() {
    let dir = TempDir::new("mismatch");
    let runner = ShardedCampaignRunner::new(2)
        .with_checkpoint(&dir.0)
        .resume(true);
    runner.run(&suite_spec()).expect("seed the checkpoint");

    // Same directory, different spec: the manifest check must refuse before
    // any shard is touched.
    let mut other = suite_spec();
    other.trace_len = 901;
    let err = runner.run(&other).expect_err("mismatched resume");
    assert!(matches!(err, CampaignError::Checkpoint(_)));

    // Different shard count over the same spec is refused too (the files
    // on disk describe a different partition).
    let err = ShardedCampaignRunner::new(3)
        .with_checkpoint(&dir.0)
        .resume(true)
        .run(&suite_spec())
        .expect_err("mismatched shard count");
    assert!(matches!(err, CampaignError::Checkpoint(_)));

    // A corrupt manifest is refused with the file named (unlike corrupt
    // shard files, which only cost a re-run, a damaged manifest means the
    // directory can't be trusted).
    std::fs::write(dir.0.join("campaign.json"), "{ truncated").expect("corrupt manifest");
    let err = ShardedCampaignRunner::new(2)
        .with_checkpoint(&dir.0)
        .resume(true)
        .run(&suite_spec())
        .expect_err("corrupt manifest");
    match &err {
        CampaignError::Checkpoint(msg) => assert!(msg.contains("campaign.json"), "{msg}"),
        other => panic!("expected Checkpoint error, got {other:?}"),
    }

    // Without --resume the same directory is simply overwritten.
    let fresh = ShardedCampaignRunner::new(3)
        .with_checkpoint(&dir.0)
        .run(&suite_spec())
        .expect("fresh run overwrites");
    assert_eq!(fresh.executed_shards, vec![0, 1, 2]);
}

#[test]
fn resume_without_a_checkpoint_dir_is_a_typed_error() {
    let err = ShardedCampaignRunner::new(2)
        .resume(true)
        .run(&suite_spec())
        .expect_err("resume needs a directory");
    assert!(matches!(err, CampaignError::Checkpoint(_)));
}

#[test]
fn a_shard_run_refuses_what_it_cannot_run_with_typed_errors() {
    // An index outside the plan, a plan cut for another row count (one
    // that would index past the spec's rows, one that leaves a row unrun)
    // and an invalid spec are refused before anything simulates.
    let spec = suite_spec();
    let rows = spec.traces.len();
    let plan = ShardPlan::round_robin(rows, 2).expect("plan");
    assert_eq!(
        ShardReport::run(&spec, &plan, 2, None, None).unwrap_err(),
        CampaignError::ShardIndexOutOfRange { index: 2, count: 2 }
    );
    for foreign_rows in [rows + 3, rows - 1] {
        let foreign = ShardPlan::round_robin(foreign_rows, 2).expect("plan");
        for index in 0..2 {
            let err = ShardReport::run(&spec, &foreign, index, None, None).unwrap_err();
            assert!(matches!(err, CampaignError::ShardSetMismatch(_)), "{err}");
        }
    }
    let mut invalid = spec;
    invalid.trace_len = 0;
    assert_eq!(
        ShardReport::run(&invalid, &plan, 0, None, None).unwrap_err(),
        CampaignError::ZeroTraceLength
    );
}

#[test]
fn full_table2_suite_streams_as_one_campaign() {
    // The paper's whole 409-trace §3.8 suite as a single sharded campaign at
    // a tiny trace length: every row is synthesized exactly once (inside the
    // workers — traces are never materialized in bulk), every cell lands,
    // and each category contributes its Table 2 share of rows.
    let spec = CampaignBuilder::new("table2-full")
        .policy(PolicyKind::Ir)
        .full_table2_suite()
        .trace_len(200)
        .build()
        .expect("the full suite is a valid campaign");
    assert_eq!(spec.traces.len(), 409);
    let outcome = ShardedCampaignRunner::new(8)
        .run(&spec)
        .expect("the full suite runs");
    let report = outcome.report;
    assert_eq!(report.cells.len(), 409);
    assert_eq!(report.trace_generations, 409, "one synthesis per row");
    assert_eq!(report.baseline_runs, 409, "one baseline per row");
    for category in WorkloadCategory::ALL {
        let rows = report
            .cells
            .iter()
            .filter(|c| c.category.as_deref() == Some(category.abbrev()))
            .count();
        assert_eq!(rows, category.trace_count(), "{}", category.abbrev());
    }
}

/// The golden suite's snapshot of a report (see `tests/golden_suite.rs`).
fn golden_suite_snapshot(report: &CampaignReport) -> String {
    let fig14 = figures::fig14(Some(report));
    serde::json::to_string_pretty(&(&report.baselines, &report.cells, &fig14.rows))
}

#[test]
fn a_checkpointed_runner_is_a_fleet_of_one_that_reproduces_the_golden_suite() {
    let golden = std::fs::read_to_string("tests/golden/suite_2pc.json")
        .expect("golden snapshot missing; regenerate with GOLDEN_REGEN=1");
    let spec = CampaignBuilder::new("golden-suite")
        .policy(PolicyKind::Ir)
        .category_suite(2)
        .trace_len(1_500)
        .build()
        .expect("the golden suite is a valid campaign");
    let dir = TempDir::new("golden_fleet");
    let runner = ShardedCampaignRunner::new(3)
        .with_checkpoint(&dir.0)
        .resume(true);
    let cold = runner.run(&spec).expect("cold run");
    assert_eq!(cold.executed_shards, vec![0, 1, 2]);
    assert_eq!(golden_suite_snapshot(&cold.report), golden);

    // Lose shard 1 and resume: the resumed shards' cells count as done
    // before the first event, and the count ends at the campaign's total.
    // Worker threads may deliver events out of order, so they are sorted.
    std::fs::remove_file(dir.0.join("shard_0001.json")).expect("drop shard 1");
    let events = Arc::new(Mutex::new(Vec::new()));
    let seen = Arc::clone(&events);
    let resumed = runner
        .clone()
        .with_progress(move |p| {
            let mut seen = seen.lock().expect("events");
            seen.push((p.completed_cells, p.total_cells));
        })
        .run(&spec)
        .expect("resumed run");
    assert_eq!(resumed.executed_shards, vec![1]);
    assert_eq!(resumed.resumed_shards, vec![0, 2]);
    assert_eq!(golden_suite_snapshot(&resumed.report), golden);
    let total = spec.cell_count();
    let plan = ShardPlan::round_robin(spec.traces.len(), 3).expect("plan");
    let resumed_cells = total - plan.rows(1).len() * spec.policies.len() * spec.scenarios.len();
    let events = events.lock().expect("events");
    assert!(events.iter().all(|&(_, of)| of == total), "{events:?}");
    let mut completed: Vec<usize> = events.iter().map(|&(done, _)| done).collect();
    completed.sort_unstable();
    assert_eq!(completed, (resumed_cells + 1..=total).collect::<Vec<_>>());

    // Starting over with a hook that panics: every shard runs, the run
    // completes, and the hook is called once in the whole run.
    let calls = Arc::new(AtomicUsize::new(0));
    let counted = Arc::clone(&calls);
    let fresh = ShardedCampaignRunner::new(3)
        .with_checkpoint(&dir.0)
        .with_progress(move |_| {
            counted.fetch_add(1, Ordering::SeqCst);
            panic!("user hook exploded");
        })
        .run(&spec)
        .expect("a panicking hook does not stop the run");
    assert_eq!(fresh.executed_shards, vec![0, 1, 2]);
    assert_eq!(calls.load(Ordering::SeqCst), 1);
    assert_eq!(golden_suite_snapshot(&fresh.report), golden);
}
