//! The one-pass JSON paths on real documents.
//!
//! Derived types write and read JSON without a `serde::Value` tree, while
//! hand-written impls go through one.  Both must agree on every document
//! the workspace writes: the three goldens decode as the tuples they hold
//! and re-encode byte for byte, and a report, a shard report and a cache
//! record render the same bytes through either path.

use hc_core::campaign::{BaselineRun, CampaignCell};
use hc_core::figures::FigureRow;
use hc_core::CachedCell;
use helper_cluster::prelude::*;
use serde::{Deserialize, Serialize};

/// Decode the golden at `path` as `T` through both paths, check they read
/// the same document, and re-encode it byte for byte.
fn round_trip<T: Serialize + Deserialize>(path: &str) -> T {
    let text = std::fs::read_to_string(path).expect("the golden file is present");
    let typed: T = serde::json::from_str(&text).expect("the golden decodes in one pass");
    let tree = serde::json::parse(&text).expect("the golden parses");
    let from_tree = T::from_value(&tree).expect("the golden decodes from its tree");
    assert_eq!(
        typed.to_value(),
        from_tree.to_value(),
        "{path}: both paths read the same"
    );
    assert!(
        serde::json::to_string_pretty(&typed) == text,
        "{path} does not re-encode byte for byte"
    );
    typed
}

#[test]
fn goldens_decode_and_re_encode_byte_for_byte() {
    let (baselines, cells): (Vec<BaselineRun>, Vec<CampaignCell>) =
        round_trip("tests/golden/campaign_7x12.json");
    assert_eq!((baselines.len(), cells.len()), (12, 84));
    assert!(cells.iter().all(|c| c.scenario.is_none()));

    let (baselines, cells): (Vec<BaselineRun>, Vec<CampaignCell>) =
        round_trip("tests/golden/sensitivity_3x3.json");
    assert_eq!((baselines.len(), cells.len()), (18, 18));
    assert!(cells.iter().all(|c| c.scenario.is_some()));

    let (baselines, cells, rows): (Vec<BaselineRun>, Vec<CampaignCell>, Vec<FigureRow>) =
        round_trip("tests/golden/suite_2pc.json");
    assert_eq!((baselines.len(), cells.len()), (14, 14));
    assert_eq!(rows.len(), 8, "seven categories and their average");
}

/// `value` renders the bytes of its tree, compact and pretty.
fn assert_renders_its_tree<T: Serialize>(what: &str, value: &T) {
    let tree = value.to_value();
    assert!(
        serde::json::to_string(value) == serde::json::to_string(&tree),
        "{what}: compact bytes differ from the tree's"
    );
    assert!(
        serde::json::to_string_pretty(value) == serde::json::to_string_pretty(&tree),
        "{what}: pretty bytes differ from the tree's"
    );
}

#[test]
fn typed_documents_render_the_bytes_of_their_trees() {
    let spec = CampaignBuilder::new("codec-scenarios")
        .policy(PolicyKind::Ir)
        .policy(PolicyKind::P888Br)
        .spec(SpecBenchmark::Gzip)
        .spec(SpecBenchmark::Mcf)
        .trace_len(500)
        .sensitivity_helper_geometry()
        .build()
        .expect("a valid scenario campaign");
    let report = CampaignRunner::new()
        .run(&spec)
        .expect("the scenario campaign runs");
    assert!(report.cells.iter().all(|c| c.scenario.is_some()));
    assert_renders_its_tree("scenario report", &report);
    assert_eq!(
        serde::json::from_str::<CampaignReport>(&report.to_json()),
        Ok(report.clone())
    );

    let shard = ShardPlan::round_robin(spec.traces.len(), 2)
        .and_then(|plan| ShardReport::run(&spec, &plan, 1, None, None))
        .expect("the shard runs");
    assert_renders_its_tree("shard report", &shard);
    assert_eq!(ShardReport::from_json(&shard.to_json()), Ok(shard));

    let record = CachedCell {
        stats: report.cells[0].stats.clone(),
        elapsed_nanos: u64::MAX,
    };
    assert_renders_its_tree("cache record", &record);
    assert_eq!(
        serde::json::from_str::<CachedCell>(&serde::json::to_string(&record)),
        Ok(record)
    );
}
