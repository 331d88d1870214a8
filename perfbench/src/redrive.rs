//! The traced runs' grid: the same work `CampaignRunner::run` does on its
//! scalar path, driven through each layer's public functions so that the
//! benchmark can put a span around every call — trace synthesis
//! (`TraceSelector::generate`), cache claims (`CellCache::claim`,
//! `CellLead::publish`, `CellJoin::wait`) and simulation (`Experiment`).
//!
//! Rows fan out over the same `rayon` stand-in the engine uses, with one
//! reused `ExecContext` per worker, and the cells come back in the engine's
//! order, so the report assembled from them must be byte-identical to the
//! program's; the workloads check that it is.

use crate::spans::{SpanId, Tracer};
use hc_core::campaign::{BaselineRun, CampaignCell, CampaignReport, CampaignSpec};
use hc_core::{
    CellCache, CellClaim, CellKey, Experiment, PolicyKind, CAMPAIGN_SCHEMA_VERSION,
    LEGACY_CAMPAIGN_SCHEMA_VERSION,
};
use hc_sim::{ExecContext, SimStats};
use serde::Serialize;

/// What the grid produced, in report order, plus per-row counts.
pub struct GridOutput {
    pub baselines: Vec<BaselineRun>,
    pub cells: Vec<CampaignCell>,
    /// Baseline evaluations (hit or simulated), as the engine counts them.
    pub baseline_runs: usize,
    /// Rows whose synthesized trace fed at least one simulation.
    pub useful_rows: usize,
    /// µops simulated (committed, over every simulation the grid ran).
    pub sim_uops: u64,
    /// µops synthesized over all rows.
    pub synth_uops: u64,
}

struct Scenario {
    key: Option<String>,
    doc: serde::Value,
    experiment: Experiment,
}

/// Run `rows` (indices into `spec.traces`) of the grid, memoized through
/// `cache` when given.  Every span opened here descends from `parent`.
pub fn run_grid(
    spec: &CampaignSpec,
    rows: &[usize],
    cache: Option<&CellCache>,
    tracer: &Tracer,
    parent: SpanId,
) -> GridOutput {
    let tag = !spec.is_single_default_scenario();
    let scenarios: Vec<Scenario> = spec
        .scenarios
        .iter()
        .map(|s| Scenario {
            key: tag.then(|| s.name.clone()),
            doc: s.to_value(),
            experiment: Experiment::try_new_with(s.machine.clone(), s.predictors)
                .expect("a validated spec has valid machines"),
        })
        .collect();
    let baseline_needed = spec.include_baseline || spec.policies.contains(&PolicyKind::Baseline);
    let per_row = rayon::par_map_slice_init(rows, ExecContext::new, |ctx, &row| {
        let row_span = tracer.open("campaign.row", Some(parent));
        let row_id = Some(row_span.id());
        let selector = &spec.traces[row];
        let trace = tracer.time("trace.synth", row_id, || selector.generate(spec.trace_len));
        let doc = cache.map(|_| {
            selector
                .cache_doc()
                .expect("synthesized rows have a cache identity")
        });
        let mut sim_uops = 0;
        let mut eval =
            |key: Option<CellKey>, simulate: &mut dyn FnMut(&mut ExecContext) -> SimStats| {
                let mut run = |ctx: &mut ExecContext| {
                    let stats = tracer.time("sim.cell", row_id, || simulate(ctx));
                    sim_uops += stats.committed_uops;
                    stats
                };
                let (Some(cache), Some(key)) = (cache, key) else {
                    return run(ctx);
                };
                let claim = tracer.time("cache.lookup", row_id, || cache.claim(&key));
                let lead = match claim {
                    CellClaim::Hit(stats) => return *stats,
                    CellClaim::Lead(lead) => lead,
                    CellClaim::Join(join) => {
                        match tracer.time("cache.join", row_id, || join.wait()) {
                            Ok(stats) => return stats,
                            Err(lead) => lead,
                        }
                    }
                };
                let stats = run(ctx);
                tracer.time("cache.insert", row_id, || lead.publish(stats))
            };
        let mut out = Vec::with_capacity(scenarios.len());
        for s in &scenarios {
            let baseline = baseline_needed.then(|| {
                let key = doc
                    .as_ref()
                    .map(|d| CellKey::baseline(d, spec.trace_len, &s.doc));
                BaselineRun {
                    trace: trace.name.clone(),
                    category: trace.category.clone(),
                    scenario: s.key.clone(),
                    stats: eval(key, &mut |ctx| s.experiment.run_baseline_with(ctx, &trace)),
                }
            });
            let cells: Vec<CampaignCell> = spec
                .policies
                .iter()
                .map(|&kind| {
                    let stats = match (&baseline, kind) {
                        (Some(b), PolicyKind::Baseline) => b.stats.clone(),
                        _ => {
                            let key =
                                doc.as_ref()
                                    .filter(|_| kind != PolicyKind::Baseline)
                                    .map(|d| {
                                        CellKey::cell(
                                            d,
                                            spec.trace_len,
                                            spec.warmup_runs,
                                            &s.doc,
                                            kind.name(),
                                        )
                                    });
                            eval(key, &mut |ctx| {
                                s.experiment.run_policy_warmed_with(
                                    ctx,
                                    &trace,
                                    kind,
                                    spec.warmup_runs,
                                )
                            })
                        }
                    };
                    CampaignCell {
                        policy: kind.name().to_string(),
                        trace: trace.name.clone(),
                        category: trace.category.clone(),
                        scenario: s.key.clone(),
                        stats,
                    }
                })
                .collect();
            out.push((baseline, cells));
        }
        (out, sim_uops, trace.len() as u64)
    });
    let mut output = GridOutput {
        baselines: Vec::new(),
        cells: Vec::new(),
        baseline_runs: if baseline_needed {
            rows.len() * scenarios.len()
        } else {
            0
        },
        useful_rows: 0,
        sim_uops: 0,
        synth_uops: 0,
    };
    for (row, sim_uops, synth_uops) in per_row {
        output.useful_rows += usize::from(sim_uops > 0);
        output.sim_uops += sim_uops;
        output.synth_uops += synth_uops;
        for (baseline, cells) in row {
            output.baselines.extend(baseline);
            output.cells.extend(cells);
        }
    }
    output
}

/// Assemble the report `CampaignRunner::run` returns for `spec` from a
/// whole-grid output.
pub fn report(spec: &CampaignSpec, grid: GridOutput) -> CampaignReport {
    CampaignReport {
        schema_version: if spec.is_single_default_scenario() {
            LEGACY_CAMPAIGN_SCHEMA_VERSION
        } else {
            CAMPAIGN_SCHEMA_VERSION
        },
        name: spec.name.clone(),
        spec: spec.clone(),
        baselines: grid.baselines,
        cells: grid.cells,
        baseline_runs: grid.baseline_runs,
        trace_generations: spec.traces.len(),
    }
}
