//! Integration tests for campaigns over `.uoptrace` recordings and phased
//! workload schedules: a campaign driven from a recorded file must produce
//! the same result bytes as one driven from the selector that recorded it,
//! recordings must be cache-addressed by content (never by path), and phased
//! campaigns must replay warm through the cell cache.

use hc_core::cache::CellCache;
use hc_core::campaign::TraceSelector;
use hc_trace::{KernelKind, MaterializedSource, PhaseSchedule, SpecBenchmark, WorkloadProfile};
use helper_cluster::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

const LEN: usize = 1_200;

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hc_trace_it_{tag}_{}", std::process::id()))
}

fn phases() -> PhaseSchedule {
    PhaseSchedule::new("warm-then-scan")
        .phase(
            WorkloadProfile::new("hist", vec![(KernelKind::ByteHistogram, 1.0)]).with_seed(11),
            700,
        )
        .phase(
            WorkloadProfile::new("scan", vec![(KernelKind::TokenScan, 1.0)]).with_seed(12),
            500,
        )
}

/// The parts of a report that must be identical between a recorded-file
/// campaign and the campaign that recorded it (the embedded specs name
/// different selectors, so whole-report bytes legitimately differ).
fn result_bytes(report: &hc_core::campaign::CampaignReport) -> (String, String) {
    (
        serde::json::to_string(&report.baselines),
        serde::json::to_string(&report.cells),
    )
}

#[test]
fn file_campaign_matches_selector_campaign_byte_for_byte() {
    let path = tmp_path("gzip.uoptrace");
    hc_trace::write_trace(&path, &SpecBenchmark::Gzip.trace(LEN)).expect("record");

    let from_selector = CampaignBuilder::new("synth")
        .policy(PolicyKind::P888)
        .policy(PolicyKind::Ir)
        .spec(SpecBenchmark::Gzip)
        .trace_len(LEN)
        .warmup_runs(1)
        .build()
        .expect("valid");
    let from_file = CampaignBuilder::new("synth")
        .policy(PolicyKind::P888)
        .policy(PolicyKind::Ir)
        .trace_file(path.to_str().expect("utf-8 temp path"))
        .trace_len(LEN)
        .warmup_runs(1)
        .build()
        .expect("valid");

    let runner = CampaignRunner::new();
    let a = runner.run(&from_selector).expect("selector campaign");
    let b = runner.run(&from_file).expect("file campaign");
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        result_bytes(&a),
        result_bytes(&b),
        "a campaign over a recording must reproduce the originating campaign"
    );
    // The file row carries the *recorded* trace name, so figures and report
    // joins see the same labels either way.
    assert_eq!(a.cells[0].trace, "gzip");
    assert_eq!(b.cells[0].trace, "gzip");
}

#[test]
fn phased_campaigns_replay_warm_and_round_trip_through_recordings() {
    let dir = tmp_path("phased_cache");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = CampaignBuilder::new("phased")
        .policy(PolicyKind::P888)
        .policy(PolicyKind::Ir)
        .phased(phases())
        .build()
        .expect("valid");

    let cold_cache = Arc::new(CellCache::open(&dir).expect("open"));
    let cold = CampaignRunner::new()
        .with_cache(Arc::clone(&cold_cache))
        .run(&spec)
        .expect("cold run");
    let activity = cold_cache.stats();
    assert_eq!(activity.hits, 0);
    assert_eq!(activity.inserts, activity.misses);
    assert!(activity.inserts > 0, "streamed rows populate the cache");
    drop(cold_cache);

    // Warm replay of the same phased campaign: zero re-simulation.
    let warm_cache = Arc::new(CellCache::open(&dir).expect("reopen"));
    let warm = CampaignRunner::new()
        .with_cache(Arc::clone(&warm_cache))
        .run(&spec)
        .expect("warm run");
    let activity = warm_cache.stats();
    assert_eq!(activity.misses, 0, "phased rows replay entirely from cache");
    assert_eq!(warm.to_json(), cold.to_json(), "warm bytes == cold bytes");

    // Record the schedule and run the same grid over the recording: the
    // result bytes survive the record/ingest round trip.
    let file = tmp_path("phased.uoptrace");
    let mut source = hc_trace::PhasedSource::new(phases());
    hc_trace::record_source(&file, &mut source).expect("record");
    let from_file = CampaignBuilder::new("phased")
        .policy(PolicyKind::P888)
        .policy(PolicyKind::Ir)
        .trace_file(file.to_str().expect("utf-8 temp path"))
        .build()
        .expect("valid");
    let ingested = CampaignRunner::new().run(&from_file).expect("file run");
    let _ = std::fs::remove_file(&file);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(result_bytes(&ingested), result_bytes(&cold));
    assert_eq!(ingested.cells[0].trace, "warm-then-scan");
}

#[test]
fn file_rows_are_cache_addressed_by_content_not_path() {
    let a = tmp_path("ident_a.uoptrace");
    let b = tmp_path("ident_b.uoptrace");
    hc_trace::write_trace(&a, &SpecBenchmark::Mcf.trace(LEN)).expect("record");
    std::fs::copy(&a, &b).expect("copy");

    let doc_a = TraceSelector::File {
        path: a.to_str().expect("utf-8").to_string(),
    }
    .cache_doc()
    .expect("doc a");
    let doc_b = TraceSelector::File {
        path: b.to_str().expect("utf-8").to_string(),
    }
    .cache_doc()
    .expect("doc b");
    assert_eq!(doc_a, doc_b, "identical bytes, identical cache identity");
    assert!(
        !serde::json::to_string(&doc_a).contains("ident_a"),
        "the path must not leak into the cache key"
    );

    // End to end: a campaign over the copy replays warm from the cache the
    // original populated.
    let dir = tmp_path("ident_cache");
    let _ = std::fs::remove_dir_all(&dir);
    let spec_for = |path: &std::path::Path| {
        CampaignBuilder::new("ident")
            .policy(PolicyKind::P888)
            .trace_file(path.to_str().expect("utf-8"))
            .trace_len(LEN)
            .build()
            .expect("valid")
    };
    let cache = Arc::new(CellCache::open(&dir).expect("open"));
    let first = CampaignRunner::new()
        .with_cache(Arc::clone(&cache))
        .run(&spec_for(&a))
        .expect("first run");
    let misses_after_first = cache.stats().misses;
    assert!(misses_after_first > 0);
    let second = CampaignRunner::new()
        .with_cache(Arc::clone(&cache))
        .run(&spec_for(&b))
        .expect("second run");
    assert_eq!(
        cache.stats().misses,
        misses_after_first,
        "the renamed copy must hit every cell the original inserted"
    );
    assert_eq!(result_bytes(&first), result_bytes(&second));
    let _ = std::fs::remove_file(&a);
    let _ = std::fs::remove_file(&b);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_and_damaged_files_surface_typed_campaign_errors() {
    let spec = CampaignBuilder::new("missing")
        .policy(PolicyKind::P888)
        .trace_file("/nonexistent/nowhere.uoptrace")
        .build()
        .expect("specs validate lazily; resolution fails at run time");
    let err = CampaignRunner::new().run(&spec).expect_err("must fail");
    match err {
        CampaignError::Trace(msg) => {
            assert!(msg.contains("nowhere.uoptrace"), "names the file: {msg}")
        }
        other => panic!("expected CampaignError::Trace, got {other:?}"),
    }
}

#[test]
fn degenerate_phase_schedules_are_rejected_at_build_time() {
    let empty = CampaignBuilder::new("empty")
        .policy(PolicyKind::P888)
        .phased(PhaseSchedule::new("hollow"))
        .build();
    assert!(matches!(empty, Err(CampaignError::Trace(_))));

    let zero = CampaignBuilder::new("zero")
        .policy(PolicyKind::P888)
        .phased(PhaseSchedule::new("zero-phase").phase(
            WorkloadProfile::new("p", vec![(KernelKind::ByteHistogram, 1.0)]),
            0,
        ))
        .build();
    assert!(matches!(zero, Err(CampaignError::Trace(_))));
}

#[test]
fn recorded_sources_expose_the_selector_labels() {
    // `TraceSelector::File`'s label is the recorded trace's name (falling
    // back to the path only when unreadable), so report joins by label work
    // across the record/ingest boundary.
    let path = tmp_path("label.uoptrace");
    let mut source = MaterializedSource::new(SpecBenchmark::Twolf.trace(LEN));
    hc_trace::record_source(&path, &mut source).expect("record");
    let selector = TraceSelector::File {
        path: path.to_str().expect("utf-8").to_string(),
    };
    assert_eq!(selector.label(LEN), "twolf");
    let _ = std::fs::remove_file(&path);
    assert!(
        selector.label(LEN).starts_with("file:"),
        "unreadable files fall back to a path label"
    );
}
