//! Golden snapshot of the simulator engine on the full 7-policy × 12-trace
//! paper grid.
//!
//! The committed file `tests/golden/campaign_7x12.json` was captured from the
//! pre-refactor monolithic `pipeline.rs` engine.  The staged `exec` engine
//! must reproduce every `SimStats` field of every baseline and cell
//! *bit-identically* — the refactor is a pure performance change.
//!
//! Regenerate (only when the modelled microarchitecture intentionally
//! changes) with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_grid
//! ```

use hc_core::campaign::{CampaignBuilder, CampaignRunner};

const GOLDEN_PATH: &str = "tests/golden/campaign_7x12.json";
const GOLDEN_TRACE_LEN: usize = 2_000;

/// Serialize the grid's observable simulation output (baselines + cells,
/// i.e. every `SimStats` the engine produced) in a schema-stable shape that
/// does not depend on the `CampaignReport` envelope.
fn grid_snapshot() -> String {
    let spec = CampaignBuilder::new("golden-7x12")
        .paper_policies()
        .spec_suite()
        .trace_len(GOLDEN_TRACE_LEN)
        .build()
        .expect("the paper grid is a valid campaign");
    assert_eq!(spec.cell_count(), 7 * 12, "the paper grid is 7×12");
    let report = CampaignRunner::new().run(&spec).expect("the grid runs");
    assert_eq!(report.baselines.len(), 12);
    assert_eq!(report.cells.len(), 84);
    serde::json::to_string_pretty(&(&report.baselines, &report.cells))
}

#[test]
fn staged_engine_matches_pre_refactor_golden_snapshot() {
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all("tests/golden").expect("create golden dir");
        std::fs::write(GOLDEN_PATH, grid_snapshot()).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden snapshot missing; regenerate with GOLDEN_REGEN=1");
    let current = grid_snapshot();
    assert_eq!(
        current, golden,
        "engine output diverged from the pre-refactor golden snapshot"
    );
}
