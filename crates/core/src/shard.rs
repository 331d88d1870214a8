//! Sharded, resumable execution of large campaigns.
//!
//! A [`CampaignShard`] is a **deterministic partition** of a
//! [`CampaignSpec`]'s trace rows: shard `k` of `N` owns every row `i` with
//! `i % N == k` (round-robin, so the Table 2 categories spread evenly over
//! shards instead of one shard getting all of `mm`).  Policies are *not*
//! partitioned — a shard runs every policy column over its rows, which keeps
//! the per-trace baseline memoization intact: sharding never re-simulates a
//! baseline.
//!
//! Each shard runs through the same streaming grid engine as
//! [`CampaignRunner`]: workers synthesize one trace at a time from its
//! selector and drop it after the row's cells finish, so even the full
//! 409-trace suite peaks at O(worker threads) traces in memory.
//!
//! The output of a shard is a serializable [`ShardReport`];
//! [`CampaignReport::merge`] reassembles any complete set of shards —
//! **any shard count, presented in any order** — into a report that is
//! byte-identical to the unsharded [`CampaignRunner::run`] JSON
//! (`tests/shard_merge.rs` proves this).  Merging checks schema versions,
//! spec equality, row overlap and row coverage, and rejects inconsistent
//! sets with typed [`CampaignError`]s instead of silently joining cells to
//! the wrong baselines.
//!
//! [`ShardedCampaignRunner`] drives a whole partition and adds
//! **checkpoint/resume**: with a checkpoint directory configured, every
//! completed shard is written to `shard_NNNN.json` next to a `campaign.json`
//! manifest, and a resumed run loads (and skips) every shard whose file
//! still matches the spec.
//!
//! ```no_run
//! use hc_core::campaign::CampaignBuilder;
//! use hc_core::policy::PolicyKind;
//! use hc_core::shard::ShardedCampaignRunner;
//!
//! let spec = CampaignBuilder::new("table2")
//!     .policy(PolicyKind::Ir)
//!     .full_table2_suite() // all 409 traces, synthesized on the fly
//!     .trace_len(10_000)
//!     .build()
//!     .unwrap();
//! let outcome = ShardedCampaignRunner::new(8)
//!     .with_checkpoint("table2.ckpt")
//!     .resume(true)
//!     .run(&spec)
//!     .unwrap();
//! println!(
//!     "{} shards executed, {} resumed from disk",
//!     outcome.executed_shards.len(),
//!     outcome.resumed_shards.len()
//! );
//! ```

use crate::cache::{CellCache, CostModel};
#[allow(unused_imports)] // `CampaignRunner` is referenced by doc links only.
use crate::campaign::CampaignRunner;
use crate::campaign::{
    decode_versioned, report_wire_version, run_spec_rows, BaselineRun, CampaignCell, CampaignError,
    CampaignProgress, CampaignReport, CampaignSpec, ProgressHook,
};
use crate::policy::PolicyKind;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Version of the [`ShardReport`] wire schema, independent of the report and
/// spec schemas.  Bumped whenever a serialized shard field changes meaning;
/// decoders and [`CampaignReport::merge`] reject mismatched versions.
///
/// * v1 — policy × trace shards over a single machine.
/// * v2 — scenario axes: the embedded spec may carry `scenarios` and cells /
///   baselines carry their `scenario` key.
/// * v3 — cost-balanced partitions: the shard carries a `plan` naming the
///   partition strategy and the full row assignment (round-robin stopped
///   being the only possible partition).
///
/// Like the spec and report schemas, the *newest* version is only emitted
/// when its feature is used: shards of a round-robin partition keep encoding
/// as v1 (single default scenario) or v2 (scenario axes) with no `plan`
/// field — their checkpoint files are byte-identical to pre-plan runs, so
/// existing checkpoint directories keep resuming.  v3 is emitted exactly
/// when the partition is cost-balanced.  Decoders accept all three.
pub const SHARD_SCHEMA_VERSION: u32 = 3;

/// The legacy shard wire version still emitted for single-default-scenario
/// round-robin campaigns (see [`SHARD_SCHEMA_VERSION`]).
pub const LEGACY_SHARD_SCHEMA_VERSION: u32 = 1;

/// The shard wire version emitted for scenario-axis round-robin campaigns
/// (see [`SHARD_SCHEMA_VERSION`]).
pub const SCENARIO_SHARD_SCHEMA_VERSION: u32 = 2;

/// The shard wire version for a (spec, plan) pair: v3 once the partition is
/// cost-balanced, otherwise legacy v1 while the scenario axis is unused and
/// v2 beyond.
pub(crate) fn shard_wire_version(spec: &CampaignSpec, plan: &ShardPlan) -> u32 {
    match plan.strategy() {
        ShardStrategy::CostBalanced => SHARD_SCHEMA_VERSION,
        ShardStrategy::RoundRobin if spec.is_single_default_scenario() => {
            LEGACY_SHARD_SCHEMA_VERSION
        }
        ShardStrategy::RoundRobin => SCENARIO_SHARD_SCHEMA_VERSION,
    }
}

/// How a [`ShardPlan`] assigned rows to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardStrategy {
    /// The legacy deterministic partition: shard `k` of `N` owns every row
    /// `i` with `i % N == k`.
    RoundRobin,
    /// LPT (longest-processing-time-first) greedy bin packing over per-row
    /// cost estimates from a [`CostModel`]: rows are taken in descending
    /// cost order and each goes to the currently least-loaded shard, so one
    /// known-slow trace can no longer straggle a whole shard set.
    CostBalanced,
}

impl ShardStrategy {
    fn wire_name(&self) -> &'static str {
        match self {
            ShardStrategy::RoundRobin => "round_robin",
            ShardStrategy::CostBalanced => "cost_balanced",
        }
    }
}

/// A complete, validated assignment of a campaign's trace rows to shards.
///
/// Plans are value objects shared by every [`CampaignShard`] of a partition
/// (and embedded in v3 [`ShardReport`]s and checkpoint manifests, so a
/// resumed run re-executes **the same partition** even if cost observations
/// have changed since the plan was made).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    strategy: ShardStrategy,
    /// `assignments[k]` = the ascending spec row indices shard `k` owns.
    assignments: Vec<Vec<usize>>,
}

impl ShardPlan {
    /// The legacy round-robin partition of `n_rows` rows into `shard_count`
    /// shards.
    pub fn round_robin(n_rows: usize, shard_count: usize) -> Result<ShardPlan, CampaignError> {
        if shard_count == 0 {
            return Err(CampaignError::ZeroShardCount);
        }
        Ok(ShardPlan {
            strategy: ShardStrategy::RoundRobin,
            assignments: (0..shard_count)
                .map(|k| (k..n_rows).step_by(shard_count).collect())
                .collect(),
        })
    }

    /// An LPT partition of rows with the given cost estimates.
    ///
    /// When every row costs the same — the shape a [`CostModel`] with no
    /// observations produces — LPT with stable tie-breaking assigns row `i`
    /// to shard `i % N`, i.e. exactly the round-robin partition; the plan is
    /// then **canonicalised** to [`ShardStrategy::RoundRobin`] so the wire
    /// format (and every golden byte) of uncached runs is unchanged.
    pub fn cost_balanced(costs: &[u64], shard_count: usize) -> Result<ShardPlan, CampaignError> {
        if shard_count == 0 {
            return Err(CampaignError::ZeroShardCount);
        }
        // LPT: rows in descending cost order (stable, so equal costs keep
        // spec order), each to the least-loaded shard (ties to the lowest
        // shard index).
        let mut order: Vec<usize> = (0..costs.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(costs[i]));
        let mut loads = vec![0u128; shard_count];
        let mut assignments = vec![Vec::new(); shard_count];
        for row in order {
            let k = loads
                .iter()
                .enumerate()
                .min_by_key(|&(k, &load)| (load, k))
                .map(|(k, _)| k)
                .expect("shard_count > 0");
            loads[k] += costs[row] as u128;
            assignments[k].push(row);
        }
        for rows in &mut assignments {
            rows.sort_unstable();
        }
        let round_robin = ShardPlan::round_robin(costs.len(), shard_count)?;
        if assignments == round_robin.assignments {
            return Ok(round_robin);
        }
        Ok(ShardPlan {
            strategy: ShardStrategy::CostBalanced,
            assignments,
        })
    }

    /// Plan a partition of `spec` with per-row costs from `model` —
    /// the planner behind [`ShardedCampaignRunner`].
    pub fn for_spec(
        spec: &CampaignSpec,
        shard_count: usize,
        model: &CostModel<'_>,
    ) -> Result<ShardPlan, CampaignError> {
        spec.validate()?;
        ShardPlan::cost_balanced(&model.row_costs(spec), shard_count)
    }

    /// The partition strategy.
    pub fn strategy(&self) -> ShardStrategy {
        self.strategy
    }

    /// Total shards in the partition.
    pub fn shard_count(&self) -> usize {
        self.assignments.len()
    }

    /// The ascending spec row indices shard `shard_index` owns.
    pub fn rows(&self, shard_index: usize) -> &[usize] {
        &self.assignments[shard_index]
    }

    /// The estimated per-shard work under `costs`, for balance diagnostics.
    pub fn shard_loads(&self, costs: &[u64]) -> Vec<u128> {
        self.assignments
            .iter()
            .map(|rows| rows.iter().map(|&r| costs[r] as u128).sum())
            .collect()
    }

    /// Structural validity: every row index in `0..n_rows` appears in
    /// exactly one shard, ascending within its shard.
    pub(crate) fn validate(&self, n_rows: usize) -> Result<(), String> {
        let mut seen = vec![false; n_rows];
        for rows in &self.assignments {
            if !rows.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("shard rows {rows:?} are not strictly ascending"));
            }
            for &row in rows {
                if row >= n_rows {
                    return Err(format!("row {row} out of range for {n_rows} rows"));
                }
                if seen[row] {
                    return Err(format!("row {row} assigned to more than one shard"));
                }
                seen[row] = true;
            }
        }
        match seen.iter().position(|&s| !s) {
            Some(missing) => Err(format!("row {missing} is not assigned to any shard")),
            None => Ok(()),
        }
    }
}

impl Serialize for ShardPlan {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            (
                "strategy".to_string(),
                serde::Value::Str(self.strategy.wire_name().to_string()),
            ),
            (
                "assignments".to_string(),
                Serialize::to_value(&self.assignments),
            ),
        ])
    }
}

impl Deserialize for ShardPlan {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for struct ShardPlan"))?;
        let strategy: String = serde::de_field(m, "strategy")?;
        let strategy = match strategy.as_str() {
            "round_robin" => ShardStrategy::RoundRobin,
            "cost_balanced" => ShardStrategy::CostBalanced,
            other => {
                return Err(serde::Error::custom(format!(
                    "unknown shard plan strategy `{other}`"
                )))
            }
        };
        Ok(ShardPlan {
            strategy,
            assignments: serde::de_field(m, "assignments")?,
        })
    }
}

/// One deterministic slice of a campaign's trace rows, per its partition's
/// [`ShardPlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignShard {
    spec: CampaignSpec,
    plan: Arc<ShardPlan>,
    shard_index: usize,
}

impl CampaignShard {
    /// Shard `shard_index` of a round-robin `shard_count`-way partition of
    /// `spec`.
    pub fn new(
        spec: CampaignSpec,
        shard_count: usize,
        shard_index: usize,
    ) -> Result<CampaignShard, CampaignError> {
        if shard_count == 0 {
            return Err(CampaignError::ZeroShardCount);
        }
        if shard_index >= shard_count {
            return Err(CampaignError::ShardIndexOutOfRange {
                index: shard_index,
                count: shard_count,
            });
        }
        spec.validate()?;
        let plan = Arc::new(ShardPlan::round_robin(spec.traces.len(), shard_count)?);
        Ok(CampaignShard {
            spec,
            plan,
            shard_index,
        })
    }

    /// The full round-robin `shard_count`-way partition of `spec`, in shard
    /// order.  Shards beyond the trace count are valid but own no rows.
    pub fn plan(
        spec: &CampaignSpec,
        shard_count: usize,
    ) -> Result<Vec<CampaignShard>, CampaignError> {
        spec.validate()?;
        let plan = ShardPlan::round_robin(spec.traces.len(), shard_count)?;
        Ok(CampaignShard::from_plan(spec, plan))
    }

    /// The full cost-balanced partition of `spec` under `model`, in shard
    /// order (see [`ShardPlan::cost_balanced`]).
    pub fn plan_balanced(
        spec: &CampaignSpec,
        shard_count: usize,
        model: &CostModel<'_>,
    ) -> Result<Vec<CampaignShard>, CampaignError> {
        let plan = ShardPlan::for_spec(spec, shard_count, model)?;
        Ok(CampaignShard::from_plan(spec, plan))
    }

    /// Materialize every shard of an already-validated plan.
    pub(crate) fn from_plan(spec: &CampaignSpec, plan: ShardPlan) -> Vec<CampaignShard> {
        let plan = Arc::new(plan);
        (0..plan.shard_count())
            .map(|shard_index| CampaignShard {
                spec: spec.clone(),
                plan: Arc::clone(&plan),
                shard_index,
            })
            .collect()
    }

    /// The campaign spec this shard slices.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// The partition plan this shard belongs to.
    pub fn shard_plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Total shards in the partition.
    pub fn shard_count(&self) -> usize {
        self.plan.shard_count()
    }

    /// This shard's index within the partition.
    pub fn shard_index(&self) -> usize {
        self.shard_index
    }

    /// The spec trace rows this shard owns, ascending: `i % N == k` under a
    /// round-robin plan, the LPT assignment under a cost-balanced one.
    pub fn trace_indices(&self) -> Vec<usize> {
        self.plan.rows(self.shard_index).to_vec()
    }

    /// Number of policy × trace × scenario cells this shard will simulate.
    pub fn cell_count(&self) -> usize {
        self.plan.rows(self.shard_index).len()
            * self.spec.policies.len()
            * self.spec.scenarios.len()
    }

    /// Execute this shard through the streaming grid engine.
    pub fn run(&self) -> Result<ShardReport, CampaignError> {
        self.run_with(None, None)
    }

    /// [`CampaignShard::run`] with an optional progress hook.  The hook sees
    /// *shard-local* cell counts; [`ShardedCampaignRunner`] remaps them to
    /// campaign-global counts.
    pub fn run_with_progress(
        &self,
        progress: Option<&ProgressHook>,
    ) -> Result<ShardReport, CampaignError> {
        self.run_with(progress, None)
    }

    /// [`CampaignShard::run`] with an optional progress hook and an
    /// optional [`CellCache`] memoizing every simulated cell.  Shard reports
    /// stay byte-identical with or without the cache.
    pub fn run_with(
        &self,
        progress: Option<&ProgressHook>,
        cache: Option<&CellCache>,
    ) -> Result<ShardReport, CampaignError> {
        let indices = self.trace_indices();
        let (grid, trace_generations) = run_spec_rows(&self.spec, &indices, progress, cache)?;
        let baseline_runs = grid.baseline_runs;
        let (baselines, cells) = grid.into_flat_parts();
        Ok(ShardReport {
            schema_version: shard_wire_version(&self.spec, &self.plan),
            shard_index: self.shard_index,
            shard_count: self.plan.shard_count(),
            spec: self.spec.clone(),
            plan: (*self.plan).clone(),
            trace_indices: indices,
            baselines,
            cells,
            baseline_runs,
            trace_generations,
        })
    }
}

/// The serializable result of one shard's execution — a mergeable,
/// checkpointable slice of a [`CampaignReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Shard wire-schema version ([`SHARD_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// This shard's index within the partition.
    pub shard_index: usize,
    /// Total shards in the partition.
    pub shard_count: usize,
    /// The full campaign spec (identical across all shards of a partition).
    pub spec: CampaignSpec,
    /// The partition plan (identical across all shards).  Serialized only
    /// in v3 documents; v1/v2 documents decode to the implied round-robin
    /// plan.
    pub plan: ShardPlan,
    /// The spec trace rows this shard covered, ascending.
    pub trace_indices: Vec<usize>,
    /// One baseline per covered row (empty when the spec disabled baselines).
    pub baselines: Vec<BaselineRun>,
    /// This shard's policy × trace cells, trace-major in `trace_indices`
    /// order.
    pub cells: Vec<CampaignCell>,
    /// Monolithic baseline simulations this shard executed.
    pub baseline_runs: usize,
    /// Trace syntheses this shard performed (one per covered row).
    pub trace_generations: usize,
}

impl Serialize for ShardReport {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            (
                "schema_version".to_string(),
                serde::Value::UInt(self.schema_version as u64),
            ),
            (
                "shard_index".to_string(),
                Serialize::to_value(&self.shard_index),
            ),
            (
                "shard_count".to_string(),
                Serialize::to_value(&self.shard_count),
            ),
            ("spec".to_string(), Serialize::to_value(&self.spec)),
        ];
        if self.schema_version >= SHARD_SCHEMA_VERSION {
            // The `plan` field exists only in the v3 wire shape; round-robin
            // shards keep the exact pre-plan bytes.
            fields.push(("plan".to_string(), Serialize::to_value(&self.plan)));
        }
        fields.extend([
            (
                "trace_indices".to_string(),
                Serialize::to_value(&self.trace_indices),
            ),
            (
                "baselines".to_string(),
                Serialize::to_value(&self.baselines),
            ),
            ("cells".to_string(), Serialize::to_value(&self.cells)),
            (
                "baseline_runs".to_string(),
                Serialize::to_value(&self.baseline_runs),
            ),
            (
                "trace_generations".to_string(),
                Serialize::to_value(&self.trace_generations),
            ),
        ]);
        serde::Value::Map(fields)
    }
}

impl Deserialize for ShardReport {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for struct ShardReport"))?;
        let schema_version: u32 = serde::de_field(m, "schema_version")?;
        let shard_count: usize = serde::de_field(m, "shard_count")?;
        let spec: CampaignSpec = serde::de_field(m, "spec")?;
        let plan = if schema_version >= SHARD_SCHEMA_VERSION {
            serde::de_field(m, "plan")?
        } else {
            // v1/v2 shards predate explicit plans: round-robin was the only
            // partition, so the plan is fully implied by the shard count.
            ShardPlan::round_robin(spec.traces.len(), shard_count.max(1))
                .map_err(|e| serde::Error::custom(e.to_string()))?
        };
        Ok(ShardReport {
            schema_version,
            shard_index: serde::de_field(m, "shard_index")?,
            shard_count,
            spec,
            plan,
            trace_indices: serde::de_field(m, "trace_indices")?,
            baselines: serde::de_field(m, "baselines")?,
            cells: serde::de_field(m, "cells")?,
            baseline_runs: serde::de_field(m, "baseline_runs")?,
            trace_generations: serde::de_field(m, "trace_generations")?,
        })
    }
}

impl ShardReport {
    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }

    /// Decode from JSON (legacy v1/v2 or plan-aware v3), checking the shard
    /// schema version first.
    pub fn from_json(text: &str) -> Result<ShardReport, CampaignError> {
        let value = decode_versioned(
            text,
            &[
                LEGACY_SHARD_SCHEMA_VERSION,
                SCENARIO_SHARD_SCHEMA_VERSION,
                SHARD_SCHEMA_VERSION,
            ],
        )?;
        Deserialize::from_value(&value).map_err(|e| CampaignError::Decode(e.to_string()))
    }

    /// Whether this shard has baselines for its rows.
    fn baseline_needed(&self) -> bool {
        self.spec.include_baseline || self.spec.policies.contains(&PolicyKind::Baseline)
    }

    /// Structural self-consistency: right row/cell/baseline counts, a valid
    /// partition plan, and rows matching the plan's slice for
    /// `(shard_index, shard_count)`.
    pub(crate) fn check(&self) -> Result<(), CampaignError> {
        let malformed = |reason: String| CampaignError::MalformedShard {
            index: self.shard_index,
            reason,
        };
        if self.shard_index >= self.shard_count {
            return Err(CampaignError::ShardIndexOutOfRange {
                index: self.shard_index,
                count: self.shard_count,
            });
        }
        if self.plan.shard_count() != self.shard_count {
            return Err(malformed(format!(
                "plan covers {} shards but the shard claims {}",
                self.plan.shard_count(),
                self.shard_count
            )));
        }
        self.plan
            .validate(self.spec.traces.len())
            .map_err(|reason| malformed(format!("invalid partition plan: {reason}")))?;
        let expected = self.plan.rows(self.shard_index);
        if self.trace_indices != expected {
            return Err(malformed(format!(
                "rows {:?} are not the plan's partition slice {:?}",
                self.trace_indices, expected
            )));
        }
        let rows = self.trace_indices.len();
        let scenarios = self.spec.scenarios.len();
        if self.cells.len() != rows * scenarios * self.spec.policies.len() {
            return Err(malformed(format!(
                "{} cells for {} rows × {} scenarios × {} policies",
                self.cells.len(),
                rows,
                scenarios,
                self.spec.policies.len()
            )));
        }
        let expected_baselines = if self.baseline_needed() {
            rows * scenarios
        } else {
            0
        };
        if self.baselines.len() != expected_baselines {
            return Err(malformed(format!(
                "{} baselines for {} rows × {} scenarios",
                self.baselines.len(),
                rows,
                scenarios
            )));
        }
        Ok(())
    }
}

impl CampaignReport {
    /// Merge a complete set of [`ShardReport`]s back into the unsharded
    /// report.
    ///
    /// Accepts the shards **in any order** and for **any shard count**; the
    /// merged report is byte-identical (as JSON) to what
    /// [`CampaignRunner::run`] produces on the same spec, because rows are
    /// reassembled in spec order and the instrumentation counters sum to the
    /// unsharded values (each row is generated and baselined exactly once
    /// across the whole partition).
    ///
    /// Fails with a typed error when the set is inconsistent: mixed schema
    /// versions ([`CampaignError::UnsupportedSchemaVersion`]), disagreeing
    /// specs or shard counts ([`CampaignError::ShardSetMismatch`]), a row
    /// claimed twice ([`CampaignError::ShardOverlap`]), uncovered rows
    /// ([`CampaignError::IncompleteShardSet`]) or corrupt payloads
    /// ([`CampaignError::MalformedShard`]).
    ///
    /// [`CampaignRunner::run`]: crate::campaign::CampaignRunner::run
    pub fn merge(shards: &[ShardReport]) -> Result<CampaignReport, CampaignError> {
        let first = shards.first().ok_or(CampaignError::NoShards)?;
        for shard in shards {
            if shard.schema_version != LEGACY_SHARD_SCHEMA_VERSION
                && shard.schema_version != SCENARIO_SHARD_SCHEMA_VERSION
                && shard.schema_version != SHARD_SCHEMA_VERSION
            {
                return Err(CampaignError::UnsupportedSchemaVersion {
                    found: shard.schema_version,
                    supported: SHARD_SCHEMA_VERSION,
                });
            }
            if shard.schema_version != first.schema_version {
                return Err(CampaignError::ShardSetMismatch(format!(
                    "shard {} was written as schema v{}, shard {} as v{}",
                    shard.shard_index,
                    shard.schema_version,
                    first.shard_index,
                    first.schema_version
                )));
            }
            if shard.shard_count != first.shard_count {
                return Err(CampaignError::ShardSetMismatch(format!(
                    "shard {} claims {} total shards, shard {} claims {}",
                    shard.shard_index, shard.shard_count, first.shard_index, first.shard_count
                )));
            }
            if shard.spec != first.spec {
                return Err(CampaignError::ShardSetMismatch(format!(
                    "shard {} was run against a different spec than shard {}",
                    shard.shard_index, first.shard_index
                )));
            }
            if shard.plan != first.plan {
                return Err(CampaignError::ShardSetMismatch(format!(
                    "shard {} was run under a different partition plan than shard {}",
                    shard.shard_index, first.shard_index
                )));
            }
            shard.check()?;
        }

        // Row index -> (shard, position of the row within the shard).
        let n_rows = first.spec.traces.len();
        let mut owner: Vec<Option<(&ShardReport, usize)>> = vec![None; n_rows];
        for shard in shards {
            for (pos, &row) in shard.trace_indices.iter().enumerate() {
                if owner[row].is_some() {
                    return Err(CampaignError::ShardOverlap { trace_index: row });
                }
                owner[row] = Some((shard, pos));
            }
        }
        if let Some(missing) = owner.iter().position(Option::is_none) {
            return Err(CampaignError::IncompleteShardSet {
                missing_trace_index: missing,
            });
        }

        // Per-row strides: each row carries one baseline and `policies`
        // cells per scenario, scenario-major within the row.
        let scenarios = first.spec.scenarios.len();
        let row_cells = first.spec.policies.len() * scenarios;
        let baseline_needed = first.baseline_needed();
        let mut baselines = Vec::with_capacity(if baseline_needed {
            n_rows * scenarios
        } else {
            0
        });
        let mut cells = Vec::with_capacity(n_rows * row_cells);
        for slot in &owner {
            let (shard, pos) = slot.expect("coverage checked above");
            if baseline_needed {
                baselines
                    .extend_from_slice(&shard.baselines[pos * scenarios..(pos + 1) * scenarios]);
            }
            cells.extend_from_slice(&shard.cells[pos * row_cells..(pos + 1) * row_cells]);
        }

        Ok(CampaignReport {
            schema_version: report_wire_version(&first.spec),
            name: first.spec.name.clone(),
            spec: first.spec.clone(),
            baselines,
            cells,
            baseline_runs: shards.iter().map(|s| s.baseline_runs).sum(),
            trace_generations: shards.iter().map(|s| s.trace_generations).sum(),
        })
    }
}

/// The checkpoint manifest written next to the shard files, so a resumed run
/// can refuse a directory that belongs to a different campaign before
/// touching any shard.  The manifest also **pins the partition plan**: a
/// resumed run re-executes the manifest's plan even if cost observations
/// have changed since (re-planning mid-campaign would orphan completed
/// shard files).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CheckpointManifest {
    pub(crate) schema_version: u32,
    pub(crate) shard_count: usize,
    pub(crate) spec: CampaignSpec,
    pub(crate) plan: ShardPlan,
}

impl CheckpointManifest {
    /// Decode a manifest document, accepting every shard wire version.
    pub(crate) fn from_json(text: &str) -> Result<CheckpointManifest, CampaignError> {
        let value = decode_versioned(
            text,
            &[
                LEGACY_SHARD_SCHEMA_VERSION,
                SCENARIO_SHARD_SCHEMA_VERSION,
                SHARD_SCHEMA_VERSION,
            ],
        )?;
        Deserialize::from_value(&value).map_err(|e| CampaignError::Decode(e.to_string()))
    }
}

impl Serialize for CheckpointManifest {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            (
                "schema_version".to_string(),
                serde::Value::UInt(self.schema_version as u64),
            ),
            (
                "shard_count".to_string(),
                Serialize::to_value(&self.shard_count),
            ),
            ("spec".to_string(), Serialize::to_value(&self.spec)),
        ];
        if self.schema_version >= SHARD_SCHEMA_VERSION {
            fields.push(("plan".to_string(), Serialize::to_value(&self.plan)));
        }
        serde::Value::Map(fields)
    }
}

impl Deserialize for CheckpointManifest {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for struct CheckpointManifest"))?;
        let schema_version: u32 = serde::de_field(m, "schema_version")?;
        let shard_count: usize = serde::de_field(m, "shard_count")?;
        let spec: CampaignSpec = serde::de_field(m, "spec")?;
        let plan = if schema_version >= SHARD_SCHEMA_VERSION {
            serde::de_field(m, "plan")?
        } else {
            ShardPlan::round_robin(spec.traces.len(), shard_count.max(1))
                .map_err(|e| serde::Error::custom(e.to_string()))?
        };
        Ok(CheckpointManifest {
            schema_version,
            shard_count,
            spec,
            plan,
        })
    }
}

/// Name of the manifest file inside a checkpoint directory.
pub(crate) const MANIFEST_FILE: &str = "campaign.json";

/// File name for one shard's checkpoint.
pub(crate) fn shard_file_name(index: usize) -> String {
    format!("shard_{index:04}.json")
}

/// What a sharded run did: the merged report plus which shards were actually
/// simulated and which were loaded from the checkpoint directory.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedRunOutcome {
    /// The merged, unsharded-equivalent report.
    pub report: CampaignReport,
    /// Shard indices that were executed this run, ascending.
    pub executed_shards: Vec<usize>,
    /// Shard indices restored from checkpoint files, ascending.
    pub resumed_shards: Vec<usize>,
}

/// Drives a whole shard partition — sequentially over shards, with the
/// streaming parallel fan-out *inside* each shard — with optional
/// checkpointing and resume.
///
/// Partitioning is **cost-model-driven**: the runner plans with
/// [`ShardPlan::for_spec`], so with a [`CellCache`] attached
/// ([`ShardedCampaignRunner::with_cache`]) rows are LPT-packed by their
/// recorded simulation times, and without one (no observations) the plan
/// canonicalises to the legacy round-robin partition — wire formats,
/// checkpoint bytes and golden snapshots of uncached runs are unchanged.
#[derive(Clone)]
pub struct ShardedCampaignRunner {
    shard_count: usize,
    checkpoint: Option<PathBuf>,
    resume: bool,
    progress: Option<ProgressHook>,
    cache: Option<Arc<CellCache>>,
}

impl std::fmt::Debug for ShardedCampaignRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCampaignRunner")
            .field("shard_count", &self.shard_count)
            .field("checkpoint", &self.checkpoint)
            .field("resume", &self.resume)
            .field("progress", &self.progress.is_some())
            .field(
                "cache",
                &self.cache.as_ref().map(|c| c.root().to_path_buf()),
            )
            .finish()
    }
}

impl ShardedCampaignRunner {
    /// A runner splitting campaigns into `shard_count` shards, with no
    /// checkpointing.
    pub fn new(shard_count: usize) -> ShardedCampaignRunner {
        ShardedCampaignRunner {
            shard_count,
            checkpoint: None,
            resume: false,
            progress: None,
            cache: None,
        }
    }

    /// Memoize every simulated cell through a [`CellCache`] and let its
    /// recorded timings drive the cost-balanced partition (see
    /// [`ShardPlan::cost_balanced`]).  Reports stay byte-identical with or
    /// without the cache.
    pub fn with_cache(mut self, cache: Arc<CellCache>) -> ShardedCampaignRunner {
        self.cache = Some(cache);
        self
    }

    /// Write every completed shard to `dir` (created on demand), making the
    /// run checkpointable.
    pub fn with_checkpoint(mut self, dir: impl Into<PathBuf>) -> ShardedCampaignRunner {
        self.checkpoint = Some(dir.into());
        self
    }

    /// On `true`, load (and skip re-running) every shard whose checkpoint
    /// file exists and still matches the spec.  Requires a checkpoint
    /// directory.
    pub fn resume(mut self, resume: bool) -> ShardedCampaignRunner {
        self.resume = resume;
        self
    }

    /// Attach a progress hook; it observes campaign-global cell counts
    /// (resumed shards' cells are not replayed through the hook).
    pub fn with_progress(
        mut self,
        hook: impl Fn(&CampaignProgress) + Send + Sync + 'static,
    ) -> ShardedCampaignRunner {
        self.progress = Some(Arc::new(hook));
        self
    }

    /// Execute (or resume) the partition and merge the shards.
    pub fn run(&self, spec: &CampaignSpec) -> Result<ShardedRunOutcome, CampaignError> {
        // Plan with observed costs when a cache is attached (uniform costs —
        // and therefore the canonical round-robin plan — otherwise).
        let model = match self.cache.as_deref() {
            Some(cache) => CostModel::observed(cache),
            None => CostModel::uniform(),
        };
        let mut plan = ShardPlan::for_spec(spec, self.shard_count, &model)?;
        if let Some(dir) = &self.checkpoint {
            // A resumed directory pins its original plan: completed shard
            // files were cut along it, so re-planning would orphan them.
            plan = self.prepare_checkpoint_dir(dir, spec, plan)?;
        }
        let shards = CampaignShard::from_plan(spec, plan);

        // Remap shard-local progress to campaign-global cell counts; resumed
        // shards advance the counter without firing the hook per cell.  The
        // panic isolation inside the grid engine is per shard, so a
        // run-level disable flag lives out here: a user hook that panics is
        // disabled for the rest of the *run*, not re-tried on every shard.
        let total_cells = spec.cell_count();
        let completed = Arc::new(AtomicUsize::new(0));
        let global_hook: Option<ProgressHook> = self.progress.clone().map(|user| {
            let completed = Arc::clone(&completed);
            let disabled = Arc::new(AtomicBool::new(false));
            Arc::new(move |p: &CampaignProgress| {
                let global = CampaignProgress {
                    completed_cells: completed.fetch_add(1, Ordering::Relaxed) + 1,
                    total_cells,
                    policy: p.policy.clone(),
                    trace: p.trace.clone(),
                    scenario: p.scenario.clone(),
                };
                if disabled.load(Ordering::Relaxed) {
                    return;
                }
                if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| user(&global))).is_err()
                {
                    disabled.store(true, Ordering::Relaxed);
                }
            }) as ProgressHook
        });

        let mut reports = Vec::with_capacity(shards.len());
        let mut executed_shards = Vec::new();
        let mut resumed_shards = Vec::new();
        for shard in &shards {
            if let Some(report) = self.try_resume_shard(shard)? {
                completed.fetch_add(shard.cell_count(), Ordering::Relaxed);
                resumed_shards.push(shard.shard_index());
                reports.push(report);
                continue;
            }
            let report = shard.run_with(global_hook.as_ref(), self.cache.as_deref())?;
            if let Some(dir) = &self.checkpoint {
                write_checkpoint_file(
                    &dir.join(shard_file_name(shard.shard_index())),
                    &report.to_json(),
                )?;
            }
            executed_shards.push(shard.shard_index());
            reports.push(report);
        }

        Ok(ShardedRunOutcome {
            report: CampaignReport::merge(&reports)?,
            executed_shards,
            resumed_shards,
        })
    }

    /// Create the checkpoint directory and reconcile its manifest: a resumed
    /// run refuses a directory whose manifest belongs to a different
    /// campaign or shard count, **adopts** a matching manifest's partition
    /// plan (completed shard files were cut along it), and a fresh run
    /// overwrites the manifest with the newly planned partition.
    fn prepare_checkpoint_dir(
        &self,
        dir: &Path,
        spec: &CampaignSpec,
        planned: ShardPlan,
    ) -> Result<ShardPlan, CampaignError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| CampaignError::Checkpoint(format!("create {}: {e}", dir.display())))?;
        if self.resume {
            if let Some(plan) =
                adopt_manifest(dir, spec, self.shard_count, CampaignError::Checkpoint)?
            {
                return Ok(plan);
            }
        }
        let manifest = CheckpointManifest {
            schema_version: shard_wire_version(spec, &planned),
            shard_count: self.shard_count,
            spec: spec.clone(),
            plan: planned,
        };
        write_checkpoint_file(
            &dir.join(MANIFEST_FILE),
            &serde::json::to_string_pretty(&manifest),
        )?;
        Ok(manifest.plan)
    }

    /// Load one shard's checkpoint file if resuming and the file still
    /// matches this shard (see [`load_shard_checkpoint`]).
    fn try_resume_shard(
        &self,
        shard: &CampaignShard,
    ) -> Result<Option<ShardReport>, CampaignError> {
        if !self.resume {
            return Ok(None);
        }
        let Some(dir) = &self.checkpoint else {
            return Err(CampaignError::Checkpoint(
                "resume requested without a checkpoint directory".to_string(),
            ));
        };
        Ok(load_shard_checkpoint(dir, shard))
    }
}

/// Read and check the manifest of the checkpoint directory `dir` against
/// the campaign about to run there: it must decode, name the same spec and
/// shard count, and carry a partition plan valid for the spec.  Returns the
/// plan its shard files were cut along, or `None` when there is no
/// readable manifest yet.  [`ShardedCampaignRunner`] and
/// [`crate::fanout::FanoutWorker`] share this check; `error` builds each
/// caller's own error variant.
pub(crate) fn adopt_manifest(
    dir: &Path,
    spec: &CampaignSpec,
    shard_count: usize,
    error: fn(String) -> CampaignError,
) -> Result<Option<ShardPlan>, CampaignError> {
    let path = dir.join(MANIFEST_FILE);
    let Ok(text) = std::fs::read_to_string(&path) else {
        return Ok(None);
    };
    // An undecodable manifest is refused like a foreign one (and with the
    // file named, so the failure is actionable) — unlike corrupt *shard*
    // files, whose loss only costs a re-run, a damaged manifest means the
    // directory can't be trusted.
    let found = CheckpointManifest::from_json(&text).map_err(|e| {
        error(format!(
            "unreadable manifest {}: {e}; delete the directory to start over",
            path.display()
        ))
    })?;
    if found.spec != *spec || found.shard_count != shard_count {
        return Err(error(format!(
            "{} belongs to a different campaign or shard count; refusing to run in it",
            dir.display()
        )));
    }
    found.plan.validate(spec.traces.len()).map_err(|reason| {
        error(format!(
            "manifest {} carries an invalid partition plan ({reason}); \
             delete the directory to start over",
            path.display()
        ))
    })?;
    Ok(Some(found.plan))
}

/// Load `shard`'s report from the checkpoint directory `dir` if it is there
/// and still belongs to this partition: same index, shard count, spec and
/// plan, and a self-consistent payload.  Unreadable, corrupt or mismatched
/// files count as absent — the shard re-runs and the file is overwritten,
/// which is the crash-tolerant re-execution path.
pub(crate) fn load_shard_checkpoint(dir: &Path, shard: &CampaignShard) -> Option<ShardReport> {
    let text = std::fs::read_to_string(dir.join(shard_file_name(shard.shard_index()))).ok()?;
    let report = ShardReport::from_json(&text).ok()?;
    let matches = report.shard_index == shard.shard_index()
        && report.shard_count == shard.shard_count()
        && report.spec == *shard.spec()
        && report.plan == *shard.shard_plan()
        && report.check().is_ok();
    matches.then_some(report)
}

/// Write a checkpoint file through a temporary sibling + rename, so a crash
/// mid-write never leaves a truncated JSON file a later resume would trip
/// over.
pub(crate) fn write_checkpoint_file(path: &Path, contents: &str) -> Result<(), CampaignError> {
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, contents)
        .map_err(|e| CampaignError::Checkpoint(format!("write {}: {e}", tmp.display())))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| CampaignError::Checkpoint(format!("rename to {}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignBuilder;
    use hc_trace::SpecBenchmark;

    fn spec(n_traces: usize) -> CampaignSpec {
        let mut b = CampaignBuilder::new("shard-unit").policy(PolicyKind::P888);
        for benchmark in SpecBenchmark::ALL.into_iter().take(n_traces) {
            b = b.spec(benchmark);
        }
        b.trace_len(600).build().unwrap()
    }

    #[test]
    fn plan_partitions_rows_disjointly_and_completely() {
        let spec = spec(7);
        for count in 1..=9 {
            let shards = CampaignShard::plan(&spec, count).unwrap();
            assert_eq!(shards.len(), count);
            let mut seen = vec![false; spec.traces.len()];
            for shard in &shards {
                for i in shard.trace_indices() {
                    assert!(!seen[i], "row {i} assigned twice at count {count}");
                    seen[i] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "uncovered row at count {count}");
        }
    }

    #[test]
    fn round_robin_balances_shards() {
        let spec = spec(7);
        let shards = CampaignShard::plan(&spec, 3).unwrap();
        let sizes: Vec<usize> = shards.iter().map(|s| s.trace_indices().len()).collect();
        assert_eq!(sizes, vec![3, 2, 2]);
    }

    #[test]
    fn sharded_hooks_that_panic_are_disabled_for_the_whole_run() {
        // The disable must be run-scoped, not shard-scoped: a hook that
        // panics on its first call is never invoked again, even though the
        // engine restarts per shard.
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&calls);
        let outcome = ShardedCampaignRunner::new(3)
            .with_progress(move |_| {
                seen.fetch_add(1, Ordering::Relaxed);
                panic!("user hook exploded");
            })
            .run(&spec(6))
            .expect("run survives a panicking hook");
        assert_eq!(outcome.report.cells.len(), 6);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            1,
            "hook disabled after its first panic, across all shards"
        );
    }

    #[test]
    fn lpt_balances_skewed_costs_better_than_round_robin() {
        // One heavy row (row 0) plus light rows: round-robin piles the
        // heavy row onto shard 0 together with rows 3 and 6, while LPT
        // isolates it.
        let costs = [1_000u64, 10, 10, 10, 10, 10, 10];
        let balanced = ShardPlan::cost_balanced(&costs, 3).unwrap();
        assert_eq!(balanced.strategy(), ShardStrategy::CostBalanced);
        let round_robin = ShardPlan::round_robin(costs.len(), 3).unwrap();
        let max = |plan: &ShardPlan| plan.shard_loads(&costs).into_iter().max().unwrap();
        assert_eq!(max(&round_robin), 1_020, "rr stacks rows 0+3+6");
        assert_eq!(
            max(&balanced),
            1_000,
            "LPT gives the heavy row its own shard"
        );
    }

    #[test]
    fn uniform_costs_canonicalise_to_round_robin() {
        // The wire-compatibility cornerstone: an unobserved cost model
        // prices every row identically, and the LPT plan for identical
        // costs *is* the round-robin plan — strategy included, so the
        // legacy v1/v2 bytes keep being emitted.
        for (n_rows, shard_count) in [(7, 3), (12, 5), (1, 4), (0, 2)] {
            let balanced = ShardPlan::cost_balanced(&vec![17; n_rows], shard_count).unwrap();
            let round_robin = ShardPlan::round_robin(n_rows, shard_count).unwrap();
            assert_eq!(
                balanced, round_robin,
                "{n_rows} rows × {shard_count} shards"
            );
            assert_eq!(balanced.strategy(), ShardStrategy::RoundRobin);
        }
    }

    #[test]
    fn shard_plans_round_trip_through_json() {
        let plan = ShardPlan::cost_balanced(&[100, 1, 1, 1, 50, 2], 3).unwrap();
        assert_eq!(plan.strategy(), ShardStrategy::CostBalanced);
        let json = serde::json::to_string_pretty(&plan);
        let back: ShardPlan = serde::json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn legacy_shards_decode_to_the_implied_round_robin_plan() {
        // A single-default-scenario round-robin shard still writes the v1
        // wire shape with no `plan` field; decoding re-derives the implied
        // round-robin plan from the shard count.
        let report = CampaignShard::new(spec(3), 2, 1).unwrap().run().unwrap();
        assert_eq!(report.schema_version, LEGACY_SHARD_SCHEMA_VERSION);
        let json = report.to_json();
        assert!(
            !json.contains("\"plan\""),
            "round-robin shards keep the pre-plan bytes"
        );
        let decoded = ShardReport::from_json(&json).unwrap();
        assert_eq!(
            decoded.plan,
            ShardPlan::round_robin(3, 2).unwrap(),
            "the implied partition is round-robin"
        );
        assert_eq!(decoded, report);
    }

    #[test]
    fn merge_rejects_mixed_partition_plans() {
        // Both shards are structurally valid, but shard 1 claims it was cut
        // along a different (here: differently-labelled) plan: merging them
        // could interleave rows from incompatible partitions.
        let spec = spec(4);
        let shards = CampaignShard::plan(&spec, 2).unwrap();
        let a = shards[0].run().unwrap();
        let mut b = shards[1].run().unwrap();
        b.plan = ShardPlan {
            strategy: ShardStrategy::CostBalanced,
            assignments: b.plan.assignments.clone(),
        };
        assert!(matches!(
            CampaignReport::merge(&[a, b]).unwrap_err(),
            CampaignError::ShardSetMismatch(_)
        ));
    }

    #[test]
    fn zero_shards_and_bad_indices_are_typed_errors() {
        let spec = spec(3);
        assert_eq!(
            CampaignShard::plan(&spec, 0).unwrap_err(),
            CampaignError::ZeroShardCount
        );
        assert_eq!(
            CampaignShard::new(spec, 2, 2).unwrap_err(),
            CampaignError::ShardIndexOutOfRange { index: 2, count: 2 }
        );
    }

    #[test]
    fn shard_report_round_trips_through_json() {
        let shard = CampaignShard::new(spec(3), 2, 1).unwrap();
        let report = shard.run().unwrap();
        assert_eq!(report.trace_indices, vec![1]);
        let decoded = ShardReport::from_json(&report.to_json()).unwrap();
        assert_eq!(decoded, report);
    }

    #[test]
    fn merge_rejects_incomplete_and_overlapping_sets() {
        let spec = spec(4);
        let shards = CampaignShard::plan(&spec, 2).unwrap();
        let a = shards[0].run().unwrap();
        let b = shards[1].run().unwrap();
        assert_eq!(
            CampaignReport::merge(std::slice::from_ref(&a)).unwrap_err(),
            CampaignError::IncompleteShardSet {
                missing_trace_index: 1
            }
        );
        assert_eq!(
            CampaignReport::merge(&[a.clone(), b.clone(), b.clone()]).unwrap_err(),
            CampaignError::ShardOverlap { trace_index: 1 }
        );
        assert_eq!(
            CampaignReport::merge(&[]).unwrap_err(),
            CampaignError::NoShards
        );
        let mut wrong_version = a;
        wrong_version.schema_version = SHARD_SCHEMA_VERSION + 1;
        assert_eq!(
            CampaignReport::merge(&[wrong_version, b]).unwrap_err(),
            CampaignError::UnsupportedSchemaVersion {
                found: SHARD_SCHEMA_VERSION + 1,
                supported: SHARD_SCHEMA_VERSION,
            }
        );
    }

    #[test]
    fn merge_rejects_mixed_specs_and_shard_counts() {
        let a = CampaignShard::new(spec(2), 2, 0).unwrap().run().unwrap();
        let b = CampaignShard::new(spec(2), 3, 1).unwrap().run().unwrap();
        assert!(matches!(
            CampaignReport::merge(&[a.clone(), b]).unwrap_err(),
            CampaignError::ShardSetMismatch(_)
        ));
        let mut other = spec(2);
        other.trace_len = 700;
        let c = CampaignShard::new(other, 2, 1).unwrap().run().unwrap();
        assert!(matches!(
            CampaignReport::merge(&[a, c]).unwrap_err(),
            CampaignError::ShardSetMismatch(_)
        ));
    }

    #[test]
    fn merge_rejects_corrupt_payloads() {
        let spec = spec(3);
        let shards = CampaignShard::plan(&spec, 2).unwrap();
        let mut a = shards[0].run().unwrap();
        let b = shards[1].run().unwrap();
        a.cells.pop();
        assert!(matches!(
            CampaignReport::merge(&[a, b]).unwrap_err(),
            CampaignError::MalformedShard { index: 0, .. }
        ));
    }

    #[test]
    fn empty_shards_merge_cleanly() {
        // More shards than rows: the tail shards own nothing but still
        // participate in the merge.
        let spec = spec(2);
        let shards = CampaignShard::plan(&spec, 5).unwrap();
        let reports: Vec<ShardReport> = shards.iter().map(|s| s.run().unwrap()).collect();
        assert_eq!(reports[4].trace_indices.len(), 0);
        let merged = CampaignReport::merge(&reports).unwrap();
        assert_eq!(merged.cells.len(), 2);
        assert_eq!(merged.trace_generations, 2);
    }
}
