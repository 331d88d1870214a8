//! Per-figure / per-table reproduction functions.
//!
//! Each function regenerates the data behind one figure or table of the
//! paper's evaluation section and returns it as structured rows, so the
//! `reproduce` binary and the tests share one code path.
//! DESIGN.md's "Known calibration gap" compares the headline numbers with
//! the paper's.  The default `trace_len` values are sized for
//! minutes-not-hours runs; pass larger values for higher-fidelity numbers.
//!
//! The figures that simulate run nothing themselves: each projects the
//! report of one of two studies, which a caller runs once per invocation
//! through [`crate::campaign`].  Figures 5–9, 12 and the headline read the
//! paper grid ([`paper_grid_spec`]), Figure 14 reads the Table 2 suite
//! ([`suite_spec`]), so each trace's monolithic baseline is simulated once
//! per invocation, not once per figure.  A cell's stats do not depend on
//! which other policies share its grid, so a figure projected from the
//! paper grid equals the same figure projected from a campaign over only
//! its own policies.  Figures 1, 11 and 13 are pure trace characterisation
//! and do not simulate at all.

use crate::campaign::{CampaignBuilder, CampaignError, CampaignReport, CampaignSpec};
use crate::policy::PolicyKind;
use hc_trace::{stats as tstats, SpecBenchmark, WorkloadCategory};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// A generic labelled row of figure data: a benchmark / category name plus one
/// value per series.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FigureRow {
    /// Row label (benchmark name, category, …).
    pub label: String,
    /// One value per series, in the order given by the figure's `series` list.
    pub values: Vec<f64>,
}

/// A reproduced figure: series names plus rows.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure {
    /// Figure identifier ("fig1", "fig14", "table1", …).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Name of each value column.
    pub series: Vec<String>,
    /// The data rows.
    pub rows: Vec<FigureRow>,
}

impl Figure {
    /// The value in the row labelled `AVG`, for the given series index.
    pub fn avg(&self, series: usize) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.label == "AVG")
            .and_then(|r| r.values.get(series))
            .copied()
    }

    /// Append an `AVG` row averaging every numeric column.
    fn with_avg(mut self) -> Figure {
        if self.rows.is_empty() {
            return self;
        }
        let cols = self.series.len();
        let mut sums = vec![0.0; cols];
        for r in &self.rows {
            for (i, v) in r.values.iter().enumerate() {
                sums[i] += v;
            }
        }
        let n = self.rows.len() as f64;
        self.rows.push(FigureRow {
            label: "AVG".to_string(),
            values: sums.into_iter().map(|s| s / n).collect(),
        });
        self
    }
}

fn spec_traces(trace_len: usize) -> Vec<(SpecBenchmark, hc_trace::Trace)> {
    SpecBenchmark::ALL
        .par_iter()
        .map(|b| (*b, b.trace(trace_len)))
        .collect()
}

/// The paper grid behind Figures 5–9 and 12, the headline and the §3.7
/// ED² number: the seven helper-cluster policies × the 12 SPEC Int 2000
/// stand-ins, each trace's monolithic baseline simulated once and shared by
/// every policy.
pub fn paper_grid_spec(trace_len: usize) -> Result<CampaignSpec, CampaignError> {
    CampaignBuilder::new("spec-grid")
        .paper_policies()
        .spec_suite()
        .trace_len(trace_len)
        .build()
}

/// The §3.8 suite behind Figure 14 and the abstract's wide-suite number: the
/// IR policy over up to `apps_per_category` applications of every Table 2
/// category, each trace synthesized inside the worker that simulates it.
/// `usize::MAX` selects the paper's full 409-trace suite; 0 names no traces
/// and yields the typed [`CampaignError::NoTraces`].
pub fn suite_spec(
    apps_per_category: usize,
    trace_len: usize,
) -> Result<CampaignSpec, CampaignError> {
    CampaignBuilder::new("table2-suite")
        .policy(PolicyKind::Ir)
        .category_suite(apps_per_category)
        .trace_len(trace_len)
        .build()
}

/// Turn a campaign over the SPEC suite into per-benchmark rows: one row per
/// trace in spec order, with one value per policy derived by `value`.
///
/// A report missing a (policy, trace) cell — truncated, hand-edited or
/// incompletely merged — yields [`CampaignError::MissingCell`] instead of
/// aborting the caller; `value` likewise propagates any error it hits.
fn rows_from_campaign(
    report: &CampaignReport,
    kinds: &[PolicyKind],
    value: impl Fn(&crate::campaign::CampaignCell, &CampaignReport) -> Result<Vec<f64>, CampaignError>,
) -> Result<Vec<FigureRow>, CampaignError> {
    report
        .spec
        .traces
        .iter()
        .map(|selector| {
            let label = selector.label(report.spec.trace_len);
            let mut values = Vec::new();
            for k in kinds {
                let cell =
                    report
                        .cell(k.name(), &label)
                        .ok_or_else(|| CampaignError::MissingCell {
                            policy: k.name().to_string(),
                            trace: label.clone(),
                        })?;
                values.extend(value(cell, report)?);
            }
            Ok(FigureRow { label, values })
        })
        .collect()
}

/// Performance increase of a cell over its trace's shared baseline; a report
/// without that baseline yields [`CampaignError::MissingBaseline`].
fn perf_increase(
    cell: &crate::campaign::CampaignCell,
    report: &CampaignReport,
) -> Result<f64, CampaignError> {
    let baseline =
        report
            .baseline_for(&cell.trace)
            .ok_or_else(|| CampaignError::MissingBaseline {
                trace: cell.trace.clone(),
            })?;
    Ok((cell.stats.speedup_over(baseline) - 1.0) * 100.0)
}

/// **Figure 1** — percentage of register operands that are narrow
/// data-width dependent, per SPEC Int 2000 benchmark.
pub fn fig1(trace_len: usize) -> Figure {
    let rows = spec_traces(trace_len)
        .into_iter()
        .map(|(b, t)| FigureRow {
            label: b.name().to_string(),
            values: vec![tstats::narrow_dependence(&t) * 100.0],
        })
        .collect();
    Figure {
        id: "fig1".into(),
        title: "Data-width dependent values for register operands (%)".into(),
        series: vec!["narrow operands %".into()],
        rows,
    }
    .with_avg()
}

/// **Figure 5** — width prediction accuracy: correct / non-fatal / fatal, per
/// benchmark, under the 8_8_8 policy.
pub fn fig5(grid: &CampaignReport) -> Result<Figure, CampaignError> {
    let kinds = [PolicyKind::P888];
    let rows = rows_from_campaign(grid, &kinds, |cell, _| {
        let stats = &cell.stats;
        let total = (stats.correct_width_predictions
            + stats.fatal_width_mispredicts
            + stats.nonfatal_width_mispredicts)
            .max(1) as f64;
        Ok(vec![
            stats.correct_width_predictions as f64 / total * 100.0,
            stats.nonfatal_width_mispredicts as f64 / total * 100.0,
            stats.fatal_width_mispredicts as f64 / total * 100.0,
        ])
    })?;
    Ok(Figure {
        id: "fig5".into(),
        title: "Width prediction accuracy (%)".into(),
        series: vec![
            "correct %".into(),
            "non-fatal mispredict %".into(),
            "fatal mispredict %".into(),
        ],
        rows,
    }
    .with_avg())
}

fn speedup_figure(
    id: &str,
    title: &str,
    kind: PolicyKind,
    grid: &CampaignReport,
) -> Result<Figure, CampaignError> {
    let kinds = [kind];
    let rows = rows_from_campaign(grid, &kinds, |cell, report| {
        Ok(vec![perf_increase(cell, report)?])
    })?;
    Ok(Figure {
        id: id.into(),
        title: title.into(),
        series: vec![format!("{} perf increase %", kind.name())],
        rows,
    }
    .with_avg())
}

/// **Figure 6** — performance increase of the 8_8_8 scheme over the monolithic
/// baseline, per benchmark.
pub fn fig6(grid: &CampaignReport) -> Result<Figure, CampaignError> {
    speedup_figure(
        "fig6",
        "Performance of 8_8_8 scheme (%)",
        PolicyKind::P888,
        grid,
    )
}

/// **Figure 7** — percentage of instructions steered to the helper cluster and
/// percentage of inter-cluster copies, under 8_8_8.
pub fn fig7(grid: &CampaignReport) -> Result<Figure, CampaignError> {
    let kinds = [PolicyKind::P888];
    let rows = rows_from_campaign(grid, &kinds, |cell, _| {
        Ok(vec![
            cell.stats.helper_fraction() * 100.0,
            cell.stats.copy_fraction() * 100.0,
        ])
    })?;
    Ok(Figure {
        id: "fig7".into(),
        title: "Helper-cluster instructions and copies under 8_8_8 (%)".into(),
        series: vec!["helper instructions %".into(), "copy instructions %".into()],
        rows,
    }
    .with_avg())
}

/// Copy percentage per benchmark for a set of policies (Figures 8 and 9).
fn copy_figure(
    id: &str,
    title: &str,
    kinds: &[PolicyKind],
    grid: &CampaignReport,
) -> Result<Figure, CampaignError> {
    let rows = rows_from_campaign(grid, kinds, |cell, _| {
        Ok(vec![cell.stats.copy_fraction() * 100.0])
    })?;
    Ok(Figure {
        id: id.into(),
        title: title.into(),
        series: kinds
            .iter()
            .map(|k| format!("{} copies %", k.name()))
            .collect(),
        rows,
    }
    .with_avg())
}

/// **Figure 8** — decrease in copy percentage due to the BR scheme.
pub fn fig8(grid: &CampaignReport) -> Result<Figure, CampaignError> {
    copy_figure(
        "fig8",
        "Copy percentage: 8_8_8 vs 8_8_8+BR",
        &[PolicyKind::P888, PolicyKind::P888Br],
        grid,
    )
}

/// **Figure 9** — further decrease in copy percentage due to the LR scheme.
pub fn fig9(grid: &CampaignReport) -> Result<Figure, CampaignError> {
    copy_figure(
        "fig9",
        "Copy percentage: 8_8_8 vs +BR vs +BR+LR",
        &[PolicyKind::P888, PolicyKind::P888Br, PolicyKind::P888BrLr],
        grid,
    )
}

/// **Figure 11** — percentage of 8/32→32 instructions whose carry does not
/// propagate beyond the low 8 bits, for arithmetic and loads.
pub fn fig11(trace_len: usize) -> Figure {
    let rows = spec_traces(trace_len)
        .into_iter()
        .map(|(b, t)| {
            let c = tstats::carry_propagation(&t);
            FigureRow {
                label: b.name().to_string(),
                values: vec![c.arith_carry_free * 100.0, c.load_carry_free * 100.0],
            }
        })
        .collect();
    Figure {
        id: "fig11".into(),
        title: "Carry not propagated beyond 8 bits (%)".into(),
        series: vec!["arith %".into(), "load %".into()],
        rows,
    }
    .with_avg()
}

/// **Figure 12** — performance of the CR scheme (8_8_8 vs 8_8_8+BR+LR+CR).
pub fn fig12(grid: &CampaignReport) -> Result<Figure, CampaignError> {
    let kinds = [PolicyKind::P888, PolicyKind::P888BrLrCr];
    let rows = rows_from_campaign(grid, &kinds, |cell, report| {
        Ok(vec![perf_increase(cell, report)?])
    })?;
    Ok(Figure {
        id: "fig12".into(),
        title: "Performance of the Carry Not Propagated (CR) scheme (%)".into(),
        series: kinds
            .iter()
            .map(|k| format!("{} perf increase %", k.name()))
            .collect(),
        rows,
    }
    .with_avg())
}

/// **Figure 13** — average producer-consumer distance per benchmark.
pub fn fig13(trace_len: usize) -> Figure {
    let rows = spec_traces(trace_len)
        .into_iter()
        .map(|(b, t)| FigureRow {
            label: b.name().to_string(),
            values: vec![tstats::producer_consumer_distance(&t)],
        })
        .collect();
    Figure {
        id: "fig13".into(),
        title: "Average producer-consumer distance (instructions)".into(),
        series: vec!["distance".into()],
        rows,
    }
    .with_avg()
}

/// **Figure 14 (left)** — performance increase of the IR cells of a
/// [`suite_spec`] report per Table 2 workload category.  Categories the
/// suite did not cover render as 0% rows, and so does every category without
/// a suite (`None`, as with 0 applications per category).
pub fn fig14(suite: Option<&CampaignReport>) -> Figure {
    let by_category = suite
        .map(|report| report.mean_speedup_by_category(PolicyKind::Ir.name()))
        .unwrap_or_default();
    let rows: Vec<FigureRow> = WorkloadCategory::ALL
        .iter()
        .map(|cat| FigureRow {
            label: cat.abbrev().to_string(),
            values: vec![(by_category.get(cat.abbrev()).copied().unwrap_or(1.0) - 1.0) * 100.0],
        })
        .collect();
    Figure {
        id: "fig14".into(),
        title: "Helper Cluster performance per workload category (IR, %)".into(),
        series: vec!["perf increase %".into()],
        rows,
    }
    .with_avg()
}

/// **Sensitivity (helper geometry)** — the spec of the campaign behind
/// `reproduce sensitivity`: the IR policy over the 12 SPEC stand-ins × the
/// helper width {4, 8, 16} × clock ratio {1×, 2×, 4×} plane, baselines
/// memoized per (trace, scenario).  The paper's design point is the
/// `hw8_cr2x` scenario; [`sensitivity_figure_from`] renders the report.
pub fn sensitivity_geometry_spec(trace_len: usize) -> Result<CampaignSpec, CampaignError> {
    CampaignBuilder::new("sensitivity-geometry")
        .policy(PolicyKind::Ir)
        .spec_suite()
        .trace_len(trace_len)
        .sensitivity_helper_geometry()
        .build()
}

/// Per-scenario figure over an already-run sensitivity campaign: one row per
/// scenario, with the policy's mean speedup (%) and mean ED² gain (%) under
/// that scenario's own baselines and power parameters.
pub fn sensitivity_figure_from(report: &CampaignReport, policy: PolicyKind, id: &str) -> Figure {
    let speedups = report.speedup_by_scenario(policy.name());
    let ed2 = report.ed2_by_scenario(policy.name());
    let rows = report
        .scenario_keys()
        .into_iter()
        .map(|key| FigureRow {
            values: vec![
                (speedups.get(&key).copied().unwrap_or(1.0) - 1.0) * 100.0,
                ed2.get(&key).copied().unwrap_or(0.0) * 100.0,
            ],
            label: key,
        })
        .collect();
    Figure {
        id: id.into(),
        title: format!("{} sensitivity per scenario", policy.name()),
        series: vec!["perf increase %".into(), "ED\u{b2} gain %".into()],
        rows,
    }
}

/// **Sensitivity (width predictor)** — the spec of the 8_8_8 sweep over
/// width-predictor table sizes {256 … 4096} (§3.2's complexity study; 256 is
/// the paper's design point).
pub fn sensitivity_width_predictor_spec(trace_len: usize) -> Result<CampaignSpec, CampaignError> {
    CampaignBuilder::new("sensitivity-width-predictor")
        .policy(PolicyKind::P888)
        .spec_suite()
        .trace_len(trace_len)
        .sensitivity_width_predictor()
        .build()
}

/// The width-predictor figure over an already-run
/// [`sensitivity_width_predictor_spec`] campaign.
pub fn sensitivity_width_predictor_from(report: &CampaignReport) -> Figure {
    sensitivity_figure_from(report, PolicyKind::P888, "sens_width_predictor")
}

/// The §3.2–§3.7 headline numbers: per policy of the paper grid, the
/// SPEC-average helper fraction, copy fraction, speedup and imbalance.
pub fn headline(grid: &CampaignReport) -> Figure {
    let kinds = [
        PolicyKind::P888,
        PolicyKind::P888Br,
        PolicyKind::P888BrLr,
        PolicyKind::P888BrLrCr,
        PolicyKind::P888BrLrCrCp,
        PolicyKind::Ir,
        PolicyKind::IrNoDest,
    ];
    let rows = kinds
        .iter()
        .map(|&kind| {
            let results = grid.results_for_policy(kind.name());
            // `max(1)` keeps a policy with no joinable cells (a malformed
            // report) at 0.0 rows instead of NaN.
            let n = results.len().max(1) as f64;
            let mean = |f: &dyn Fn(&crate::experiment::ExperimentResult) -> f64| {
                results.iter().map(f).sum::<f64>() / n
            };
            FigureRow {
                label: kind.name().to_string(),
                values: vec![
                    mean(&|r| r.stats.helper_fraction() * 100.0),
                    mean(&|r| r.stats.copy_fraction() * 100.0),
                    mean(&|r| r.performance_increase_pct()),
                    mean(&|r| r.stats.fatal_mispredict_rate() * 100.0),
                    mean(&|r| r.stats.imbalance.wide_to_narrow * 100.0),
                    mean(&|r| r.stats.imbalance.narrow_to_wide * 100.0),
                ],
            }
        })
        .collect();
    Figure {
        id: "headline".into(),
        title: "SPEC-average headline numbers per policy".into(),
        series: vec![
            "helper %".into(),
            "copies %".into(),
            "perf increase %".into(),
            "fatal mispredict %".into(),
            "w->n imbalance %".into(),
            "n->w imbalance %".into(),
        ],
        rows,
    }
}

/// **Table 1** — the baseline processor parameters, rendered as rows.
pub fn table1() -> Vec<(String, String)> {
    let c = hc_sim::SimConfig::paper_baseline();
    vec![
        ("Trace Cache (TC)".into(), "32Kuops, 4w".into()),
        (
            "Level-1 DCache (DL0)".into(),
            format!(
                "{}KB,{}w,{}cycle",
                c.dl0.size_bytes / 1024,
                c.dl0.ways,
                c.dl0.latency
            ),
        ),
        (
            "Level-2 Cache (UL1)".into(),
            format!(
                "{}MB,{}w,{}cycle",
                c.ul1.size_bytes / (1024 * 1024),
                c.ul1.ways,
                c.ul1.latency
            ),
        ),
        (
            "Integer Execution".into(),
            format!(
                "{} entry scheduler, {} issue",
                c.int_iq_entries, c.int_issue_width
            ),
        ),
        (
            "Fp Execution".into(),
            format!(
                "{} entry scheduler, {} issue",
                c.fp_iq_entries, c.fp_issue_width
            ),
        ),
        (
            "Commit Width".into(),
            format!("{} instructions", c.commit_width),
        ),
        ("Main Memory".into(), format!("{} cycles", c.memory_latency)),
        (
            "Helper Cluster".into(),
            format!(
                "{}-bit datapath, {}x clock, {} issue",
                c.helper_width_bits, c.helper_clock_ratio, c.helper_issue_width
            ),
        ),
    ]
}

/// **Table 2** — the workload category inventory.
pub fn table2() -> Vec<(String, usize, String)> {
    WorkloadCategory::ALL
        .iter()
        .map(|c| {
            (
                c.abbrev().to_string(),
                c.trace_count(),
                c.description().to_string(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignRunner;
    use std::sync::OnceLock;

    const LEN: usize = 1_200;

    /// The paper grid the grid-figure tests project, run once per test binary.
    fn grid() -> &'static CampaignReport {
        static GRID: OnceLock<CampaignReport> = OnceLock::new();
        GRID.get_or_init(|| {
            let spec = paper_grid_spec(LEN).expect("valid spec");
            CampaignRunner::new().run(&spec).expect("grid runs")
        })
    }

    #[test]
    fn fig1_has_12_benchmarks_plus_average() {
        let f = fig1(LEN);
        assert_eq!(f.rows.len(), 13);
        assert!(f.avg(0).unwrap() > 0.0);
        assert!(f.avg(0).unwrap() <= 100.0);
    }

    #[test]
    fn fig5_percentages_sum_to_100() {
        let f = fig5(grid()).expect("fig5 reproduces");
        assert_eq!(f.series.len(), 3);
        for row in &f.rows {
            let sum: f64 = row.values.iter().sum();
            assert!((sum - 100.0).abs() < 1.0, "{}: {sum}", row.label);
        }
    }

    #[test]
    fn fig7_fractions_are_bounded() {
        let f = fig7(grid()).expect("fig7 reproduces");
        for row in &f.rows {
            assert!(row.values[0] >= 0.0 && row.values[0] <= 100.0);
            assert!(row.values[1] >= 0.0);
        }
    }

    #[test]
    fn fig13_distances_positive() {
        let f = fig13(LEN);
        assert!(f.avg(0).unwrap() > 0.0);
    }

    #[test]
    fn sensitivity_geometry_covers_the_3x3_plane() {
        let spec = sensitivity_geometry_spec(500).expect("valid spec");
        assert_eq!(spec.scenarios.len(), 9);
        assert_eq!(spec.cell_count(), 9 * 12);
        let report = CampaignRunner::new().run(&spec).expect("campaign runs");
        let fig = sensitivity_figure_from(&report, PolicyKind::Ir, "sens_geometry");
        assert_eq!(fig.rows.len(), 9);
        assert_eq!(fig.series.len(), 2);
        // Rows follow the spec's scenario order, starting at hw4_cr1x and
        // containing the paper's design point.
        assert_eq!(fig.rows[0].label, "hw4_cr1x");
        assert!(fig.rows.iter().any(|r| r.label == "hw8_cr2x"));
        assert!(fig
            .rows
            .iter()
            .all(|r| r.values.iter().all(|v| v.is_finite())));
    }

    #[test]
    fn malformed_reports_yield_typed_errors_not_panics() {
        // A partially-merged / truncated report: drop one cell and the
        // baselines, then push it through the figure adapters.
        let spec = CampaignBuilder::new("broken")
            .policy(PolicyKind::P888)
            .spec_suite()
            .trace_len(600)
            .build()
            .expect("valid spec");
        let mut report = CampaignRunner::new().run(&spec).expect("runs");
        report.cells.pop();
        let err = rows_from_campaign(&report, &[PolicyKind::P888], |cell, report| {
            Ok(vec![perf_increase(cell, report)?])
        })
        .expect_err("missing cell must be a typed error");
        assert!(matches!(err, CampaignError::MissingCell { .. }));
        assert!(err.to_string().contains("no cell"));

        // Cells intact but baselines gone: the speedup join fails typed too.
        let mut report = CampaignRunner::new().run(&spec).expect("runs");
        report.baselines.clear();
        let err = rows_from_campaign(&report, &[PolicyKind::P888], |cell, report| {
            Ok(vec![perf_increase(cell, report)?])
        })
        .expect_err("missing baseline must be a typed error");
        assert!(matches!(err, CampaignError::MissingBaseline { .. }));
    }

    #[test]
    fn table1_lists_table_contents() {
        let t = table1();
        assert!(t
            .iter()
            .any(|(k, v)| k.contains("DL0") && v.contains("32KB")));
        assert!(t
            .iter()
            .any(|(k, v)| k.contains("Main Memory") && v.contains("450")));
    }

    #[test]
    fn table2_matches_paper_counts() {
        let t = table2();
        assert_eq!(t.len(), 7);
        let total: usize = t.iter().map(|(_, n, _)| n).sum();
        assert_eq!(total, 409);
    }
}
