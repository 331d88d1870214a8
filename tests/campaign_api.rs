//! Integration tests for the unified Campaign API: serde round-trips of the
//! declarative spec, baseline-memoization equivalence against the classic
//! per-experiment path, the baseline-runs-exactly-once guarantee on a full
//! paper grid, and the typed-error surface.

use hc_core::campaign::TraceSelector;
use hc_core::figures;
use hc_sim::{ConfigError, SimConfig};
use hc_trace::{SpecBenchmark, WorkloadCategory, WorkloadProfile};
use helper_cluster::prelude::*;

/// A small grid mixing every selector kind.
fn mixed_spec() -> CampaignSpec {
    CampaignBuilder::new("mixed")
        .policy(PolicyKind::P888)
        .policy(PolicyKind::Ir)
        .spec(SpecBenchmark::Gzip)
        .category_app(WorkloadCategory::Multimedia, 0)
        .profile(
            WorkloadProfile::new("custom", vec![(hc_trace::KernelKind::ByteHistogram, 1.0)])
                .with_seed(7),
        )
        .trace_len(1_000)
        .warmup_runs(1)
        .build()
        .expect("mixed spec is valid")
}

#[test]
fn campaign_spec_round_trips_through_serde_json() {
    let spec = mixed_spec();
    let json = spec.to_json();
    let decoded = CampaignSpec::from_json(&json).expect("spec decodes");
    assert_eq!(decoded, spec);
    // The generic serde path (no version pre-check) agrees too.
    let again: CampaignSpec = serde::json::from_str(&json).expect("generic decode");
    assert_eq!(again, spec);
}

#[test]
fn campaign_results_are_byte_identical_to_per_experiment_results() {
    let spec = CampaignBuilder::new("equiv")
        .policy(PolicyKind::P888)
        .policy(PolicyKind::P888BrLrCr)
        .spec(SpecBenchmark::Gzip)
        .spec(SpecBenchmark::Gcc)
        .trace_len(1_500)
        .build()
        .unwrap();
    let report = CampaignRunner::new().run(&spec).unwrap();

    // The classic path: one baseline + one policy simulation per pair, all
    // driven directly (not through the campaign grid).
    let experiment = Experiment::default();
    for benchmark in [SpecBenchmark::Gzip, SpecBenchmark::Gcc] {
        let trace = benchmark.trace(1_500);
        let baseline = experiment.run_baseline(&trace);
        assert_eq!(
            serde::json::to_string(report.baseline_for(&trace.name).unwrap()),
            serde::json::to_string(&baseline),
            "{}: campaign baseline must be byte-identical",
            trace.name
        );
        for kind in [PolicyKind::P888, PolicyKind::P888BrLrCr] {
            let direct = experiment.run_policy(&trace, kind);
            let cell = report.cell(kind.name(), &trace.name).unwrap();
            assert_eq!(
                serde::json::to_string(&cell.stats),
                serde::json::to_string(&direct),
                "{} × {}: campaign cell must be byte-identical",
                kind.name(),
                trace.name
            );
        }
    }
}

#[test]
fn paper_grid_runs_each_baseline_exactly_once() {
    // Acceptance criterion: a 7-policy × 12-trace campaign simulates each
    // trace's monolithic baseline exactly once.
    let spec = CampaignBuilder::new("paper-grid")
        .paper_policies()
        .spec_suite()
        .trace_len(600)
        .build()
        .unwrap();
    assert_eq!(spec.policies.len(), 7);
    assert_eq!(spec.traces.len(), 12);
    let report = CampaignRunner::new().run(&spec).unwrap();
    assert_eq!(report.cells.len(), 7 * 12);
    assert_eq!(report.baseline_runs, 12, "one baseline per trace, memoized");
    assert_eq!(report.baselines.len(), 12);
    // Every cell of a trace shares the one baseline.
    for policy in &spec.policies {
        for selector in &spec.traces {
            let label = selector.label(spec.trace_len);
            assert!(report.cell(policy.name(), &label).is_some());
        }
    }
}

#[test]
fn figures_agree_with_the_direct_experiment_path() {
    // The seed computed fig6 rows as one Experiment::run per benchmark; every
    // policy column of the paper grid, and the figures projected from it,
    // must produce the same values.
    const LEN: usize = 1_000;
    let grid = CampaignRunner::new()
        .run(&figures::paper_grid_spec(LEN).expect("valid spec"))
        .expect("grid runs");
    let fig6 = figures::fig6(&grid).expect("fig6 reproduces");
    let fig12 = figures::fig12(&grid).expect("fig12 reproduces");
    let experiment = Experiment::default();
    for benchmark in SpecBenchmark::ALL {
        let label = benchmark.name();
        let row = |fig: &figures::Figure| {
            let row = fig.rows.iter().find(|r| r.label == label);
            row.expect("row per benchmark").values.clone()
        };
        let mut checks = vec![
            (PolicyKind::P888, row(&fig6)[0]),
            (PolicyKind::P888, row(&fig12)[0]),
            (PolicyKind::P888BrLrCr, row(&fig12)[1]),
        ];
        for &kind in &grid.spec.policies {
            let results = grid.results_for_policy(kind.name());
            let cell = results.iter().find(|r| r.trace == label);
            checks.push((
                kind,
                cell.expect("cell per column").performance_increase_pct(),
            ));
        }
        let trace = benchmark.trace(LEN);
        for (kind, value) in checks {
            let expected = experiment.run(&trace, kind).performance_increase_pct();
            assert!(
                (value - expected).abs() < 1e-12,
                "{} × {label}: {value} vs {expected}",
                kind.name()
            );
        }
    }
}

#[test]
fn invalid_sim_configs_surface_as_typed_errors() {
    let mut config = SimConfig::paper_baseline();
    config.dl0.line_bytes = 48;

    // Builder path.
    let err = CampaignBuilder::new("bad")
        .policy(PolicyKind::P888)
        .spec(SpecBenchmark::Gzip)
        .config(config.clone())
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        CampaignError::Config(ConfigError::CacheLineNotPowerOfTwo { line_bytes: 48 })
    );

    // Runner path: a hand-assembled spec is re-validated before running.
    let spec = CampaignSpec {
        schema_version: hc_core::LEGACY_CAMPAIGN_SPEC_SCHEMA_VERSION,
        name: "bad".into(),
        policies: vec![PolicyKind::P888],
        traces: vec![TraceSelector::Spec(SpecBenchmark::Gzip)],
        trace_len: 500,
        warmup_runs: 0,
        include_baseline: true,
        scenarios: vec![hc_core::ScenarioSpec::overlay_of(config)],
    };
    let err = CampaignRunner::new().run(&spec).unwrap_err();
    assert!(matches!(err, CampaignError::Config(_)));

    // The sim-level error also stands alone as a std error.
    let source: &dyn std::error::Error = &err;
    assert!(source.source().is_some(), "CampaignError exposes its cause");
}

#[test]
fn experiment_run_matches_its_campaign_cell() {
    // `Experiment::run` is one campaign cell plus its baseline, run without
    // the grid: it must equal the campaign's joined result exactly.
    let spec = CampaignBuilder::new("one-cell")
        .policy(PolicyKind::P888)
        .spec_suite()
        .trace_len(900)
        .build()
        .unwrap();
    let report = CampaignRunner::new().run(&spec).unwrap();
    let first = &report.results_for_policy(PolicyKind::P888.name())[0];
    let direct = Experiment::default().run(&SpecBenchmark::ALL[0].trace(900), PolicyKind::P888);
    assert_eq!(first, &direct);
    assert_eq!(first.category, None);
}
