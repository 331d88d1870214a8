//! Integration tests for the figure-reproduction API and the report
//! renderers — the same code paths the `reproduce` binary uses.

use hc_core::figures;
use hc_core::policy::PolicyKind;
use hc_core::report::{figure_to_csv, figure_to_markdown, kv_table_to_markdown};
use hc_power::PowerModel;
use hc_sim::SimConfig;
use hc_trace::SpecBenchmark;

const LEN: usize = 1_200;

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
    let f8 = figures::fig8(LEN).expect("fig8 reproduces");
    let f9 = figures::fig9(LEN).expect("fig9 reproduces");
    for (r8, r9) in f8.rows.iter().zip(f9.rows.iter()) {
        assert_eq!(r8.label, r9.label);
        assert!((r8.values[0] - r9.values[0]).abs() < 1e-9);
    }
    assert_eq!(f9.series.len(), 3);
}

#[test]
fn headline_contains_every_non_baseline_policy() {
    let f = figures::headline(LEN).expect("headline reproduces");
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
    let f = figures::fig14_categories(1, LEN).expect("fig14 reproduces");
    assert_eq!(f.rows.len(), 8, "7 categories + AVG");
    let labels: Vec<&str> = f.rows.iter().map(|r| r.label.as_str()).collect();
    for cat in ["enc", "sfp", "kernels", "mm", "office", "prod", "ws"] {
        assert!(labels.contains(&cat), "{cat} missing from {labels:?}");
    }
}

#[test]
fn markdown_and_csv_render_every_figure() {
    for fig in [
        figures::fig1(LEN),
        figures::fig11(LEN),
        figures::fig12(LEN).expect("fig12 reproduces"),
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
