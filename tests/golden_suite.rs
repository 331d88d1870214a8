//! Golden snapshot of the suite-campaign path behind Figure 14, analogous
//! to `tests/golden_grid.rs` for the SPEC grid.
//!
//! The committed file `tests/golden/suite_2pc.json` pins the IR policy over
//! a 2-apps-per-category Table 2 suite (14 traces), captured from the
//! streaming sharded engine.  Every `SimStats` field of every baseline and
//! cell — and the fig14 figure derived from them — must reproduce
//! *bit-identically* regardless of how the suite path is refactored
//! (sharding, streaming, merge order are all observationally pure).
//!
//! Regenerate (only when the modelled microarchitecture intentionally
//! changes) with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_suite
//! ```

use hc_core::figures;
use hc_core::shard::ShardedCampaignRunner;
use helper_cluster::prelude::*;

const GOLDEN_PATH: &str = "tests/golden/suite_2pc.json";
const GOLDEN_APPS_PER_CATEGORY: usize = 2;
const GOLDEN_TRACE_LEN: usize = 1_500;

/// Serialize the suite's observable simulation output (baselines + cells +
/// the derived fig14 rows) in a schema-stable shape that does not depend on
/// the `CampaignReport` envelope.
fn suite_snapshot() -> String {
    let spec = CampaignBuilder::new("golden-suite")
        .policy(PolicyKind::Ir)
        .category_suite(GOLDEN_APPS_PER_CATEGORY)
        .trace_len(GOLDEN_TRACE_LEN)
        .build()
        .expect("the golden suite is a valid campaign");
    assert_eq!(spec.traces.len(), 14, "2 apps × 7 categories");
    // Drive the sharded path on purpose: the snapshot then pins shard
    // execution + merge, not just the unsharded runner (which
    // tests/shard_merge.rs proves equivalent).
    let report = ShardedCampaignRunner::new(3)
        .run(&spec)
        .expect("the golden suite runs")
        .report;
    assert_eq!(report.baselines.len(), 14);
    assert_eq!(report.cells.len(), 14);
    let fig14 = figures::fig14(Some(&report));
    serde::json::to_string_pretty(&(&report.baselines, &report.cells, &fig14.rows))
}

#[test]
fn suite_path_matches_golden_snapshot() {
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all("tests/golden").expect("create golden dir");
        std::fs::write(GOLDEN_PATH, suite_snapshot()).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden snapshot missing; regenerate with GOLDEN_REGEN=1");
    let current = suite_snapshot();
    assert_eq!(
        current, golden,
        "suite-path output diverged from the golden snapshot"
    );
}
