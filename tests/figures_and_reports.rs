//! Integration tests for the figure-reproduction API and the report
//! renderers — the same code paths the `reproduce` binary uses.

use hc_core::campaign::{CampaignBuilder, CampaignError, CampaignReport, CampaignRunner};
use hc_core::figures::{self, Figure};
use hc_core::policy::PolicyKind;
use hc_core::report::{figure_to_csv, figure_to_markdown, kv_table_to_markdown};
use hc_power::PowerModel;
use hc_sim::SimConfig;
use hc_trace::SpecBenchmark;
use std::sync::OnceLock;

const LEN: usize = 1_200;

/// The paper grid every grid figure here projects, run once per test binary.
fn grid() -> &'static CampaignReport {
    static GRID: OnceLock<CampaignReport> = OnceLock::new();
    GRID.get_or_init(|| {
        let spec = figures::paper_grid_spec(LEN).expect("valid spec");
        CampaignRunner::new().run(&spec).expect("grid runs")
    })
}

/// A figure's labels and the bits of every value, for exact comparison.
fn bits(figure: &Figure) -> Vec<(String, Vec<u64>)> {
    figure
        .rows
        .iter()
        .map(|r| {
            (
                r.label.clone(),
                r.values.iter().map(|v| v.to_bits()).collect(),
            )
        })
        .collect()
}

#[test]
fn grid_figures_equal_their_per_figure_campaigns() {
    // A cell's stats do not depend on which other policies or baselines
    // share its grid: each figure projected from the paper grid is bit for
    // bit the figure projected from a campaign over only its own policies,
    // with baselines only where it plots a speedup.
    type GridFigure = fn(&CampaignReport) -> Result<Figure, CampaignError>;
    let cases: [(GridFigure, &[PolicyKind], bool); 6] = [
        (figures::fig5, &[PolicyKind::P888], false),
        (figures::fig6, &[PolicyKind::P888], true),
        (figures::fig7, &[PolicyKind::P888], false),
        (
            figures::fig8,
            &[PolicyKind::P888, PolicyKind::P888Br],
            false,
        ),
        (
            figures::fig9,
            &[PolicyKind::P888, PolicyKind::P888Br, PolicyKind::P888BrLr],
            false,
        ),
        (
            figures::fig12,
            &[PolicyKind::P888, PolicyKind::P888BrLrCr],
            true,
        ),
    ];
    for (figure, policies, speedup) in cases {
        let mut builder = CampaignBuilder::new("own")
            .policies(policies.iter().copied())
            .spec_suite()
            .trace_len(LEN);
        if !speedup {
            builder = builder.without_baseline();
        }
        let own = CampaignRunner::new()
            .run(&builder.build().expect("valid spec"))
            .expect("campaign runs");
        let from_grid = figure(grid()).expect("grid figure");
        let from_own = figure(&own).expect("own figure");
        assert_eq!(from_grid.series, from_own.series, "{}", from_grid.id);
        assert_eq!(bits(&from_grid), bits(&from_own), "{}", from_grid.id);
    }
}

#[test]
fn figure_1_reports_all_spec_benchmarks_in_paper_order() {
    let f = figures::fig1(LEN);
    let labels: Vec<&str> = f.rows.iter().map(|r| r.label.as_str()).collect();
    assert_eq!(labels[0], "bzip2");
    assert_eq!(labels[11], "vpr");
    assert_eq!(labels[12], "AVG");
    for row in &f.rows {
        assert!(row.values[0] >= 0.0 && row.values[0] <= 100.0);
    }
}

#[test]
fn copy_figures_share_the_8_8_8_series() {
    // Figure 9 extends Figure 8 with the LR series; the common 8_8_8 column
    // must agree between the two (same policy, same traces, same simulator).
    let f8 = figures::fig8(grid()).expect("fig8 reproduces");
    let f9 = figures::fig9(grid()).expect("fig9 reproduces");
    for (r8, r9) in f8.rows.iter().zip(f9.rows.iter()) {
        assert_eq!(r8.label, r9.label);
        assert!((r8.values[0] - r9.values[0]).abs() < 1e-9);
    }
    assert_eq!(f9.series.len(), 3);
}

#[test]
fn headline_contains_every_non_baseline_policy() {
    let f = figures::headline(grid());
    let labels: Vec<&str> = f.rows.iter().map(|r| r.label.as_str()).collect();
    for kind in [
        PolicyKind::P888,
        PolicyKind::P888BrLrCr,
        PolicyKind::Ir,
        PolicyKind::IrNoDest,
    ] {
        assert!(labels.contains(&kind.name()), "{} missing", kind.name());
    }
    assert_eq!(f.series.len(), 6);
}

#[test]
fn fig14_covers_all_seven_categories() {
    let spec = figures::suite_spec(1, LEN).expect("valid spec");
    let suite = CampaignRunner::new().run(&spec).expect("suite runs");
    // Without a suite (0 apps per category) every category reads 0%.
    let empty = figures::fig14(None);
    for f in [figures::fig14(Some(&suite)), empty.clone()] {
        assert_eq!(f.rows.len(), 8, "7 categories + AVG");
        let labels: Vec<&str> = f.rows.iter().map(|r| r.label.as_str()).collect();
        for cat in ["enc", "sfp", "kernels", "mm", "office", "prod", "ws"] {
            assert!(labels.contains(&cat), "{cat} missing from {labels:?}");
        }
    }
    assert!(empty.rows.iter().all(|r| r.values == [0.0]));
}

#[test]
fn markdown_and_csv_render_every_figure() {
    for fig in [
        figures::fig1(LEN),
        figures::fig11(LEN),
        figures::fig12(grid()).expect("fig12 reproduces"),
        figures::fig13(LEN),
    ] {
        let md = figure_to_markdown(&fig);
        let csv = figure_to_csv(&fig);
        assert!(md.contains(&fig.id));
        assert!(md.lines().count() >= fig.rows.len() + 3);
        assert_eq!(csv.lines().count(), fig.rows.len() + 1);
    }
    let t1 = kv_table_to_markdown("Table 1", &figures::table1());
    assert!(t1.contains("Main Memory"));
}

#[test]
fn table1_reflects_the_simulator_configuration() {
    let cfg = SimConfig::paper_baseline();
    let rows = figures::table1();
    let commit = rows
        .iter()
        .find(|(k, _)| k == "Commit Width")
        .expect("commit width row");
    assert!(commit.1.contains(&cfg.commit_width.to_string()));
}

#[test]
fn ed2_comparison_runs_on_real_simulation_output() {
    let trace = SpecBenchmark::Kernels_stand_in();
    let exp = hc_core::experiment::Experiment::default();
    let r = exp.run(&trace, PolicyKind::Ir);
    let model = PowerModel::default();
    let breakdown = model.energy(&r.stats.energy);
    assert!(breakdown.total() > 0.0);
    assert!(
        breakdown.clock > 0.0,
        "clock network energy must be charged"
    );
    assert!(breakdown.register_files > 0.0);
}

/// Helper: a kernels-category stand-in trace (keeps the test above readable).
trait KernelsStandIn {
    #[allow(non_snake_case)]
    fn Kernels_stand_in() -> hc_trace::Trace;
}

impl KernelsStandIn for SpecBenchmark {
    fn Kernels_stand_in() -> hc_trace::Trace {
        hc_trace::WorkloadCategory::Kernels
            .app_profile(0, 2_000)
            .generate()
    }
}
