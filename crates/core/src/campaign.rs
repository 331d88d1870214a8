//! Declarative evaluation campaigns: policy × trace grids with shared
//! baselines, typed errors and a stable, versioned results schema.
//!
//! A [`CampaignSpec`] describes *what* to evaluate — a set of
//! [`PolicyKind`]s crossed with a set of [`TraceSelector`]s plus the
//! simulator configuration and warmup / length knobs — and is fully
//! serde-round-trippable, so campaigns can be stored, diffed and replayed.
//! A [`CampaignRunner`] executes the grid:
//!
//! * each trace's **monolithic baseline is simulated exactly once** and
//!   shared across every policy (an N-policy sweep is ~2× cheaper than N
//!   independent [`Experiment::run`] calls);
//! * traces fan out in parallel over the rayon-style thread pool;
//! * a progress hook observes cell completions as they happen;
//! * the result is a versioned [`CampaignReport`] with JSON and CSV
//!   renderings (see [`crate::report`]).
//!
//! It is the one engine: [`crate::figures`], [`crate::shard`],
//! [`crate::fanout`] and the `reproduce` binary all run on it, and each of
//! its cells runs on an [`Experiment`]'s validated simulators.
//!
//! ```
//! use hc_core::campaign::{CampaignBuilder, CampaignRunner};
//! use hc_core::policy::PolicyKind;
//! use hc_trace::SpecBenchmark;
//!
//! let spec = CampaignBuilder::new("quick")
//!     .policy(PolicyKind::P888)
//!     .policy(PolicyKind::Ir)
//!     .spec(SpecBenchmark::Gzip)
//!     .trace_len(2_000)
//!     .build()
//!     .unwrap();
//! let report = CampaignRunner::new().run(&spec).unwrap();
//! assert_eq!(report.baseline_runs, 1); // one trace -> one baseline, shared
//! assert_eq!(report.cells.len(), 2);
//! ```

use crate::cache::{lock, render_scenarios, CellCache, CellClaim, CellKey};
use crate::experiment::{Experiment, ExperimentResult};
use crate::policy::PolicyKind;
use crate::scenario::{ScenarioError, ScenarioSpec, DEFAULT_SCENARIO_NAME};
use hc_power::{Ed2Comparison, PowerModel, PowerParams};
use hc_sim::{ConfigError, ExecContext, SimConfig, SimStats};
use hc_trace::{
    read_header, FileSource, PhaseSchedule, PhasedSource, SpecBenchmark, SynthesizedSource, Trace,
    TraceError, TraceSource, WorkloadCategory, WorkloadProfile,
};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Version of the [`CampaignSpec`] wire schema.  Bumped whenever a
/// serialized *spec* field changes meaning; decoders reject mismatched
/// versions with a typed error instead of misreading data.
///
/// * v1 — policy × trace grid against a single `config` machine.
/// * v2 — `config` replaced by a `scenarios` list ([`ScenarioSpec`] overlays:
///   machine + predictors + power).
///
/// A spec whose only scenario is the legacy overlay (default name, paper
/// predictors, default power — any machine) still **encodes as v1**, so every
/// pre-scenario spec, shard checkpoint and golden snapshot stays byte-stable;
/// v2 is emitted exactly when the scenario axis is actually used.  Decoders
/// accept both.
pub const CAMPAIGN_SPEC_SCHEMA_VERSION: u32 = 2;

/// The legacy spec wire version still emitted for single-default-scenario
/// campaigns (see [`CAMPAIGN_SPEC_SCHEMA_VERSION`]).
pub const LEGACY_CAMPAIGN_SPEC_SCHEMA_VERSION: u32 = 1;

/// Version of the [`CampaignReport`] wire schema.  Bumped whenever a
/// serialized *report* field changes meaning; decoders reject mismatched
/// versions with a typed error instead of misreading data.
///
/// * v1 — initial schema.
/// * v2 — [`CampaignReport`] gained `trace_generations` (trace-synthesis
///   memoization instrumentation, mirroring `baseline_runs`).
/// * v3 — scenario axes: the embedded spec may carry `scenarios` (spec v2)
///   and every cell / baseline carries its `scenario` key.
///
/// Mirroring the spec versioning, a report over a single-default-scenario
/// campaign still **encodes as v2** — cells carry no `scenario` field and
/// the embedded spec encodes as v1 — keeping the golden snapshots and every
/// pre-scenario consumer byte-stable.  Decoders accept v2 and v3.
pub const CAMPAIGN_SCHEMA_VERSION: u32 = 3;

/// The legacy report wire version still emitted for single-default-scenario
/// campaigns (see [`CAMPAIGN_SCHEMA_VERSION`]).
pub const LEGACY_CAMPAIGN_SCHEMA_VERSION: u32 = 2;

/// Everything that can go wrong assembling, decoding or running a campaign.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// The simulator configuration was rejected.
    Config(ConfigError),
    /// The spec names no policies.
    NoPolicies,
    /// The spec names no traces.
    NoTraces,
    /// The spec asks for zero-length traces.
    ZeroTraceLength,
    /// The spec disables baselines but asks for the `baseline` policy
    /// column, whose cells *are* baseline runs — a contradiction.
    BaselinePolicyWithoutBaseline,
    /// Two trace selectors generate the same trace name; report cells are
    /// keyed by name, so duplicates would silently join to the wrong
    /// baseline.
    DuplicateTraceLabel(String),
    /// A `Profile` row, or a phase of a `Phased` row, names a workload
    /// profile that cannot generate a trace: its kernel mix is empty or
    /// has no positive weight (see [`WorkloadProfile::check`]).
    InvalidProfile {
        /// The row's trace label.
        trace: String,
        /// What the profile check objected to.
        reason: String,
    },
    /// The same policy appears twice; report cells are keyed by policy
    /// name, so duplicates would double-count in every aggregate.
    DuplicatePolicy(String),
    /// The spec names no scenarios (a spec always carries at least the
    /// default overlay; an explicitly empty list is a construction bug).
    NoScenarios,
    /// Two scenarios share a name; cells are keyed by it.
    DuplicateScenario(String),
    /// A scenario's predictor or power axis was rejected by its owning
    /// crate's validator (machine rejections keep surfacing as
    /// [`CampaignError::Config`]).
    Scenario {
        /// The offending scenario's name.
        name: String,
        /// What its owning crate objected to.
        error: ScenarioError,
    },
    /// A serialized spec/report was produced by an incompatible schema.
    UnsupportedSchemaVersion {
        /// Version found in the document.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// A serialized spec/report could not be decoded.
    Decode(String),
    /// A sharded run was asked for zero shards.
    ZeroShardCount,
    /// A shard count above [`crate::shard::MAX_SHARD_COUNT`]: every plan
    /// holds one row list per shard, so a damaged document or a typo could
    /// otherwise ask for more memory than any machine has.
    TooManyShards {
        /// Shard count asked for.
        count: usize,
        /// The largest shard count accepted.
        max: usize,
    },
    /// A shard names an index outside its own shard count.
    ShardIndexOutOfRange {
        /// Shard index found.
        index: usize,
        /// Shard count the shard claims to belong to.
        count: usize,
    },
    /// [`CampaignReport::merge`] was handed no shards.
    NoShards,
    /// Shards being merged disagree on the spec or shard count — they do not
    /// come from one partition of one campaign.
    ShardSetMismatch(String),
    /// Two shards being merged both carry the same trace row.
    ShardOverlap {
        /// Index (into the spec's trace list) claimed twice.
        trace_index: usize,
    },
    /// The shards being merged do not cover every trace row of the spec.
    IncompleteShardSet {
        /// First uncovered index into the spec's trace list.
        missing_trace_index: usize,
    },
    /// A shard's payload is internally inconsistent (wrong cell/baseline
    /// counts for its claimed rows) — typically a corrupt checkpoint file.
    MalformedShard {
        /// The shard's index.
        index: usize,
        /// What was wrong.
        reason: String,
    },
    /// A checkpoint directory (see [`crate::fanout`]) could not be read,
    /// written or trusted, or a merge over it timed out or found shards
    /// missing.
    Checkpoint(String),
    /// A cell-cache directory could not be opened, trusted or written
    /// (see [`crate::cache::CellCache::open`]).
    Cache(String),
    /// A trace source — a recorded `.uoptrace` file or a phase schedule —
    /// could not be opened, validated or streamed.
    Trace(String),
    /// A figure asked a report for a (policy, trace) cell the report does
    /// not contain — the shape a truncated or partially-merged report takes.
    MissingCell {
        /// Policy of the absent cell.
        policy: String,
        /// Trace of the absent cell.
        trace: String,
    },
    /// A figure needed a trace's baseline but the report carries none —
    /// either baselines were disabled or the report is malformed.
    MissingBaseline {
        /// Trace whose baseline is absent.
        trace: String,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Config(e) => write!(f, "invalid simulator configuration: {e}"),
            CampaignError::NoPolicies => write!(f, "campaign names no policies"),
            CampaignError::NoTraces => write!(f, "campaign names no traces"),
            CampaignError::ZeroTraceLength => write!(f, "campaign trace length must be non-zero"),
            CampaignError::BaselinePolicyWithoutBaseline => write!(
                f,
                "campaign disables baselines but includes the baseline policy"
            ),
            CampaignError::DuplicateTraceLabel(label) => {
                write!(f, "campaign names the trace `{label}` more than once")
            }
            CampaignError::InvalidProfile { trace, reason } => {
                write!(
                    f,
                    "trace `{trace}` has an invalid workload profile: {reason}"
                )
            }
            CampaignError::DuplicatePolicy(name) => {
                write!(f, "campaign names the policy `{name}` more than once")
            }
            CampaignError::NoScenarios => write!(f, "campaign names no scenarios"),
            CampaignError::DuplicateScenario(name) => {
                write!(f, "campaign names the scenario `{name}` more than once")
            }
            CampaignError::Scenario { name, error } => {
                write!(f, "invalid scenario `{name}`: {error}")
            }
            CampaignError::UnsupportedSchemaVersion { found, supported } => write!(
                f,
                "unsupported campaign schema version {found} (this build supports {supported})"
            ),
            CampaignError::Decode(msg) => write!(f, "malformed campaign document: {msg}"),
            CampaignError::ZeroShardCount => write!(f, "campaign shard count must be non-zero"),
            CampaignError::TooManyShards { count, max } => {
                write!(f, "campaign shard count {count} exceeds the limit of {max}")
            }
            CampaignError::ShardIndexOutOfRange { index, count } => {
                write!(f, "shard index {index} out of range for {count} shards")
            }
            CampaignError::NoShards => write!(f, "no shard reports to merge"),
            CampaignError::ShardSetMismatch(msg) => {
                write!(f, "shards do not belong to one campaign partition: {msg}")
            }
            CampaignError::ShardOverlap { trace_index } => {
                write!(
                    f,
                    "trace row {trace_index} is claimed by more than one shard"
                )
            }
            CampaignError::IncompleteShardSet {
                missing_trace_index,
            } => write!(
                f,
                "shard set does not cover trace row {missing_trace_index}"
            ),
            CampaignError::MalformedShard { index, reason } => {
                write!(f, "shard {index} is malformed: {reason}")
            }
            CampaignError::Checkpoint(msg) => write!(f, "campaign checkpoint error: {msg}"),
            CampaignError::Cache(msg) => write!(f, "cell cache error: {msg}"),
            CampaignError::Trace(msg) => write!(f, "trace source error: {msg}"),
            CampaignError::MissingCell { policy, trace } => {
                write!(
                    f,
                    "report has no cell for policy `{policy}` × trace `{trace}`"
                )
            }
            CampaignError::MissingBaseline { trace } => {
                write!(f, "report has no baseline for trace `{trace}`")
            }
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Config(e) => Some(e),
            CampaignError::Scenario { error, .. } => Some(error),
            _ => None,
        }
    }
}

impl From<ConfigError> for CampaignError {
    fn from(e: ConfigError) -> CampaignError {
        CampaignError::Config(e)
    }
}

impl From<hc_trace::TraceError> for CampaignError {
    fn from(e: hc_trace::TraceError) -> CampaignError {
        CampaignError::Trace(e.to_string())
    }
}

/// How a campaign names one workload trace, declaratively.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceSelector {
    /// One of the 12 SPEC Int 2000 stand-ins.
    Spec(SpecBenchmark),
    /// The `app`-th application profile of a Table 2 workload category.
    CategoryApp {
        /// Workload category.
        category: WorkloadCategory,
        /// Application index within the category (0-based).
        app: usize,
    },
    /// An explicit workload profile.
    Profile(WorkloadProfile),
    /// A recorded `.uoptrace` file (see [`hc_trace::format`]).  The row
    /// streams from disk instead of being synthesized, its name and category
    /// travel inside the file, and its cache identity is the file's content
    /// digest — never its path.  The spec's `trace_len` does not apply; the
    /// file supplies exactly the µops that were recorded.
    File {
        /// Path to the `.uoptrace` file.
        path: String,
    },
    /// A phase-structured workload: an ordered composition of
    /// [`WorkloadProfile`] segments (see [`PhaseSchedule`]), streamed one
    /// phase at a time.  The schedule's per-phase µop budgets replace the
    /// spec's `trace_len`.
    Phased {
        /// The schedule to synthesize.
        schedule: PhaseSchedule,
    },
}

impl TraceSelector {
    /// The workload profile a synthesized row generates its `trace_len`
    /// µops from: the one mapping behind [`TraceSelector::label`],
    /// [`TraceSelector::generate`] and the grid's row sources, so the three
    /// cannot drift apart.  Callers handle `File` and `Phased` rows first.
    fn profile(&self, trace_len: usize) -> WorkloadProfile {
        match self {
            TraceSelector::Spec(b) => b.profile(trace_len),
            TraceSelector::CategoryApp { category, app } => category.app_profile(*app, trace_len),
            TraceSelector::Profile(p) => p.clone().with_trace_len(trace_len),
            TraceSelector::File { .. } | TraceSelector::Phased { .. } => {
                unreachable!("`File` and `Phased` rows supply their own µops")
            }
        }
    }

    /// The trace name this selector will generate.
    ///
    /// For a `File` row the name travels inside the recording, so this reads
    /// the file's tiny fixed header (a few hundred bytes); an unreadable
    /// file falls back to a path-derived placeholder here and then fails
    /// with a typed [`CampaignError::Trace`] when the campaign actually
    /// opens it.
    pub fn label(&self, trace_len: usize) -> String {
        match self {
            TraceSelector::File { path } => read_header(Path::new(path))
                .map(|h| h.name)
                .unwrap_or_else(|_| format!("file:{path}")),
            TraceSelector::Phased { schedule } => schedule.name.clone(),
            synthesized => synthesized.profile(trace_len).name,
        }
    }

    /// Generate the trace at the given dynamic length.
    ///
    /// # Panics
    ///
    /// Panics if a `File` row's recording cannot be read — campaign
    /// execution never takes this path for `File` rows (it streams them via
    /// the fallible [`FileSource`] route); this method is the eager adapter
    /// for callers that need a materialized [`Trace`].
    pub fn generate(&self, trace_len: usize) -> Trace {
        match self {
            TraceSelector::File { path } => match hc_trace::load_trace(Path::new(path)) {
                Ok(trace) => trace,
                Err(e) => panic!("cannot load trace file `{path}`: {e}"),
            },
            TraceSelector::Phased { schedule } => schedule.materialize(),
            synthesized => synthesized.profile(trace_len).generate(),
        }
    }

    /// The serialized trace identity cell-cache keys embed for this row.
    ///
    /// Synthesized selectors key cells by their own serde document exactly
    /// as before, so existing cache entries stay valid.  A `File` row keys
    /// by the recording's *content* — digest, µop count and encoding version
    /// from its header — never its path: moving or renaming a recording
    /// keeps its cached cells, while changing its µops invalidates them.
    pub fn cache_doc(&self) -> Result<serde::Value, CampaignError> {
        match self {
            TraceSelector::File { path } => {
                let header = read_header(Path::new(path))
                    .map_err(|e| CampaignError::Trace(format!("{path}: {e}")))?;
                Ok(serde::Value::Map(vec![(
                    "File".to_string(),
                    serde::Value::Map(vec![
                        (
                            "digest".to_string(),
                            serde::Value::Str(format!("{:016x}", header.content_digest)),
                        ),
                        ("uops".to_string(), serde::Value::UInt(header.uop_count)),
                        (
                            "isa_encoding".to_string(),
                            serde::Value::UInt(u64::from(header.isa_encoding_version)),
                        ),
                    ]),
                )]))
            }
            other => Ok(Serialize::to_value(other)),
        }
    }
}

/// Resolve the serialized cache identity of every spec row up front, so the
/// grid's per-row projection is infallible and each `File` header is read
/// once per campaign instead of once per cell.
fn resolve_row_docs(traces: &[TraceSelector]) -> Result<Vec<serde::Value>, CampaignError> {
    traces.iter().map(TraceSelector::cache_doc).collect()
}

/// Open one grid row's µop supply.  Synthesized selectors open a
/// [`SynthesizedSource`], which generates the trace on the first read and
/// is then read in place; `File` and `Phased` rows stream a bounded window
/// at a time.  Opening does no µop work: a row whose every cell is a cache
/// hit is never synthesized or streamed.
fn open_row(
    selector: &TraceSelector,
    trace_len: usize,
) -> Result<Box<dyn TraceSource + Send>, CampaignError> {
    Ok(match selector {
        TraceSelector::File { path } => Box::new(
            FileSource::open(Path::new(path))
                .map_err(|e| CampaignError::Trace(format!("{path}: {e}")))?,
        ),
        TraceSelector::Phased { schedule } => Box::new(PhasedSource::new(schedule.clone())),
        synthesized => Box::new(SynthesizedSource::new(synthesized.profile(trace_len))),
    })
}

/// A declarative policy × trace × scenario evaluation grid.
///
/// Serde-round-trippable: `serde::json::to_string` / `from_str` (or
/// [`CampaignSpec::to_json`] / [`CampaignSpec::from_json`], which also check
/// the schema version) reproduce the spec exactly.  A spec whose only
/// scenario is the legacy overlay serializes in the v1 wire shape (a
/// `config` field instead of `scenarios`), so pre-scenario documents keep
/// round-tripping byte-for-byte; see [`CAMPAIGN_SPEC_SCHEMA_VERSION`].
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Schema version this spec was written with (1 for single-default-
    /// scenario specs, 2 once the scenario axis is used).
    pub schema_version: u32,
    /// Campaign name, echoed into the report.
    pub name: String,
    /// Policies to evaluate (the grid's first axis).
    pub policies: Vec<PolicyKind>,
    /// Traces to evaluate on (the grid's second axis).
    pub traces: Vec<TraceSelector>,
    /// Dynamic µops per generated trace.
    pub trace_len: usize,
    /// Unmeasured priming runs per cell before the measured run: the policy
    /// instance (and its predictors) stays warm across them.  `0` reproduces
    /// [`Experiment::run`] exactly.
    pub warmup_runs: usize,
    /// Whether to simulate the monolithic baseline for every (trace,
    /// scenario) pair (needed for speedups; disable for stat-only sweeps to
    /// halve the work).
    pub include_baseline: bool,
    /// Machines under test (the grid's third axis).  Every scenario's
    /// baseline uses that scenario's machine with the helper cluster
    /// removed.
    pub scenarios: Vec<ScenarioSpec>,
}

/// The wire version a scenario list canonically encodes as: v1 while the
/// scenario axis is unused (one legacy overlay), v2 otherwise.
pub(crate) fn spec_wire_version(scenarios: &[ScenarioSpec]) -> u32 {
    match scenarios {
        [only] if only.is_legacy_overlay() => LEGACY_CAMPAIGN_SPEC_SCHEMA_VERSION,
        _ => CAMPAIGN_SPEC_SCHEMA_VERSION,
    }
}

/// The report wire version for a spec: legacy v2 for legacy (v1) specs,
/// v3 once the scenario axis is used.
pub(crate) fn report_wire_version(spec: &CampaignSpec) -> u32 {
    if spec.is_single_default_scenario() {
        LEGACY_CAMPAIGN_SCHEMA_VERSION
    } else {
        CAMPAIGN_SCHEMA_VERSION
    }
}

impl CampaignSpec {
    /// The wire version this spec serializes as.  Normally the canonical
    /// version of its scenario list, but a spec that *declares* v2 (e.g. a
    /// decoded v2 document whose scenario list happens to be the single
    /// default overlay — a shape v2 permits) keeps v2, so decode → encode
    /// is the identity for every accepted document.
    pub fn wire_version(&self) -> u32 {
        if self.schema_version == CAMPAIGN_SPEC_SCHEMA_VERSION {
            CAMPAIGN_SPEC_SCHEMA_VERSION
        } else {
            spec_wire_version(&self.scenarios)
        }
    }

    /// Whether this spec runs on the legacy single-default-scenario path —
    /// the case that keeps every wire format (spec, report, shard, cells)
    /// byte-identical to the pre-scenario engine.  A spec that explicitly
    /// declares the v2 schema opts out even with a single default overlay.
    pub fn is_single_default_scenario(&self) -> bool {
        self.wire_version() == LEGACY_CAMPAIGN_SPEC_SCHEMA_VERSION
    }

    /// Validate the spec, returning the first problem found.
    pub fn validate(&self) -> Result<(), CampaignError> {
        // Accepted versions: the canonical encoding of this scenario list,
        // or an explicit v2 declaration (v2 is a superset — any scenario
        // list is expressible in it).  Rejected: v1 claimed for a list that
        // needs v2, or unknown versions.
        let canonical = spec_wire_version(&self.scenarios);
        if self.schema_version != canonical && self.schema_version != CAMPAIGN_SPEC_SCHEMA_VERSION {
            return Err(CampaignError::UnsupportedSchemaVersion {
                found: self.schema_version,
                supported: CAMPAIGN_SPEC_SCHEMA_VERSION,
            });
        }
        if self.policies.is_empty() {
            return Err(CampaignError::NoPolicies);
        }
        if self.traces.is_empty() {
            return Err(CampaignError::NoTraces);
        }
        if self.trace_len == 0 {
            return Err(CampaignError::ZeroTraceLength);
        }
        if !self.include_baseline && self.policies.contains(&PolicyKind::Baseline) {
            return Err(CampaignError::BaselinePolicyWithoutBaseline);
        }
        let mut policies = std::collections::BTreeSet::new();
        for kind in &self.policies {
            if !policies.insert(kind.name()) {
                return Err(CampaignError::DuplicatePolicy(kind.name().to_string()));
            }
        }
        let mut labels = std::collections::BTreeSet::new();
        for selector in &self.traces {
            let profiles: Vec<&WorkloadProfile> = match selector {
                TraceSelector::Profile(p) => vec![p],
                TraceSelector::Phased { schedule } => {
                    schedule.phases.iter().map(|p| &p.profile).collect()
                }
                _ => Vec::new(),
            };
            for profile in profiles {
                profile
                    .check()
                    .map_err(|reason| CampaignError::InvalidProfile {
                        trace: selector.label(self.trace_len),
                        reason: reason.to_string(),
                    })?;
            }
            if let TraceSelector::Phased { schedule } = selector {
                if schedule.phases.is_empty() {
                    return Err(CampaignError::Trace(format!(
                        "phase schedule `{}` has no phases",
                        schedule.name
                    )));
                }
                if schedule.phases.iter().any(|p| p.uops == 0) {
                    return Err(CampaignError::Trace(format!(
                        "phase schedule `{}` has a zero-length phase",
                        schedule.name
                    )));
                }
            }
            let label = selector.label(self.trace_len);
            if !labels.insert(label.clone()) {
                return Err(CampaignError::DuplicateTraceLabel(label));
            }
        }
        if self.scenarios.is_empty() {
            return Err(CampaignError::NoScenarios);
        }
        let mut scenario_names = std::collections::BTreeSet::new();
        for scenario in &self.scenarios {
            if !scenario_names.insert(scenario.name.clone()) {
                return Err(CampaignError::DuplicateScenario(scenario.name.clone()));
            }
            scenario.validate().map_err(|error| match error {
                // Machine rejections keep their pre-scenario shape so
                // existing error handling (and its source chain) still works.
                ScenarioError::Machine(e) => CampaignError::Config(e),
                other => CampaignError::Scenario {
                    name: scenario.name.clone(),
                    error: other,
                },
            })?;
        }
        Ok(())
    }

    /// Whether the grid simulates a monolithic baseline per (trace,
    /// scenario): for speedups, or because the `baseline` column reads it.
    pub(crate) fn simulates_baselines(&self) -> bool {
        self.include_baseline || self.policies.contains(&PolicyKind::Baseline)
    }

    /// Number of policy × trace × scenario cells in the grid.
    pub fn cell_count(&self) -> usize {
        self.policies.len() * self.traces.len() * self.scenarios.len()
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }

    /// Decode from JSON (v1 or v2), checking the schema version first.
    pub fn from_json(text: &str) -> Result<CampaignSpec, CampaignError> {
        let value = decode_versioned(
            text,
            &[
                LEGACY_CAMPAIGN_SPEC_SCHEMA_VERSION,
                CAMPAIGN_SPEC_SCHEMA_VERSION,
            ],
        )?;
        Deserialize::from_value(&value).map_err(|e| CampaignError::Decode(e.to_string()))
    }
}

impl Serialize for CampaignSpec {
    fn to_value(&self) -> serde::Value {
        let version = self.wire_version();
        let mut fields = vec![
            (
                "schema_version".to_string(),
                serde::Value::UInt(version as u64),
            ),
            ("name".to_string(), Serialize::to_value(&self.name)),
            ("policies".to_string(), Serialize::to_value(&self.policies)),
            ("traces".to_string(), Serialize::to_value(&self.traces)),
            (
                "trace_len".to_string(),
                Serialize::to_value(&self.trace_len),
            ),
            (
                "warmup_runs".to_string(),
                Serialize::to_value(&self.warmup_runs),
            ),
            (
                "include_baseline".to_string(),
                Serialize::to_value(&self.include_baseline),
            ),
        ];
        if version == LEGACY_CAMPAIGN_SPEC_SCHEMA_VERSION {
            // The v1 wire shape: the single legacy scenario's machine as the
            // `config` field, byte-identical to pre-scenario specs.
            fields.push((
                "config".to_string(),
                Serialize::to_value(&self.scenarios[0].machine),
            ));
        } else {
            fields.push((
                "scenarios".to_string(),
                Serialize::to_value(&self.scenarios),
            ));
        }
        serde::Value::Map(fields)
    }
}

impl Deserialize for CampaignSpec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for struct CampaignSpec"))?;
        let schema_version: u32 = serde::de_field(m, "schema_version")?;
        let scenarios = match schema_version {
            LEGACY_CAMPAIGN_SPEC_SCHEMA_VERSION => {
                let config: SimConfig = serde::de_field(m, "config")?;
                vec![ScenarioSpec::overlay_of(config)]
            }
            CAMPAIGN_SPEC_SCHEMA_VERSION => serde::de_field(m, "scenarios")?,
            other => {
                return Err(serde::Error::custom(format!(
                    "unsupported campaign spec schema version {other}"
                )))
            }
        };
        Ok(CampaignSpec {
            schema_version,
            name: serde::de_field(m, "name")?,
            policies: serde::de_field(m, "policies")?,
            traces: serde::de_field(m, "traces")?,
            trace_len: serde::de_field(m, "trace_len")?,
            warmup_runs: serde::de_field(m, "warmup_runs")?,
            include_baseline: serde::de_field(m, "include_baseline")?,
            scenarios,
        })
    }
}

/// Parse JSON and verify its `schema_version` field against the `supported`
/// versions before full decoding.  A mismatch reports the newest supported
/// version.
pub(crate) fn decode_versioned(
    text: &str,
    supported: &[u32],
) -> Result<serde::Value, CampaignError> {
    let value = serde::json::parse(text).map_err(|e| CampaignError::Decode(e.to_string()))?;
    let found = match value.get("schema_version") {
        Some(serde::Value::UInt(n)) => *n as u32,
        _ => return Err(CampaignError::Decode("missing schema_version".to_string())),
    };
    if !supported.contains(&found) {
        return Err(CampaignError::UnsupportedSchemaVersion {
            found,
            supported: *supported.iter().max().expect("non-empty version list"),
        });
    }
    Ok(value)
}

/// Fluent constructor for [`CampaignSpec`].
#[derive(Debug, Clone)]
pub struct CampaignBuilder {
    spec: CampaignSpec,
    /// Base machine the implicit default scenario — and every sensitivity
    /// preset — derives from.
    machine: SimConfig,
    /// Requested scenario axis, expanded against the final base machine at
    /// [`CampaignBuilder::build`] so `.config(..)` works in any call order;
    /// empty means "the single default overlay of `machine`" (the legacy
    /// campaign shape).
    scenarios: Vec<ScenarioRequest>,
}

/// One deferred scenario-axis request; presets expand at build time so they
/// see the builder's *final* base machine regardless of call order.
#[derive(Debug, Clone)]
enum ScenarioRequest {
    Explicit(Box<ScenarioSpec>),
    HelperGeometry,
    WidthPredictor,
}

impl ScenarioRequest {
    fn expand(self, machine: &SimConfig, out: &mut Vec<ScenarioSpec>) {
        match self {
            ScenarioRequest::Explicit(scenario) => out.push(*scenario),
            ScenarioRequest::HelperGeometry => {
                for width_bits in [4u32, 8, 16] {
                    for ratio in [1u32, 2, 4] {
                        out.push(
                            ScenarioSpec::named(format!("hw{width_bits}_cr{ratio}x")).with_machine(
                                SimConfig {
                                    helper_width_bits: width_bits,
                                    helper_clock_ratio: ratio,
                                    ..machine.clone()
                                },
                            ),
                        );
                    }
                }
            }
            ScenarioRequest::WidthPredictor => {
                for entries in [256usize, 512, 1024, 2048, 4096] {
                    out.push(
                        ScenarioSpec::named(format!("wp{entries}"))
                            .with_machine(machine.clone())
                            .with_predictors(hc_predictors::PredictorConfig::with_all_entries(
                                entries,
                            )),
                    );
                }
            }
        }
    }
}

impl CampaignBuilder {
    /// Start a campaign with the paper-baseline machine as its single
    /// (default) scenario, no policies and no traces.
    pub fn new(name: impl Into<String>) -> CampaignBuilder {
        CampaignBuilder {
            spec: CampaignSpec {
                schema_version: LEGACY_CAMPAIGN_SPEC_SCHEMA_VERSION,
                name: name.into(),
                policies: Vec::new(),
                traces: Vec::new(),
                trace_len: 10_000,
                warmup_runs: 0,
                include_baseline: true,
                scenarios: Vec::new(),
            },
            machine: SimConfig::paper_baseline(),
            scenarios: Vec::new(),
        }
    }

    /// Add one policy column.
    pub fn policy(mut self, kind: PolicyKind) -> Self {
        self.spec.policies.push(kind);
        self
    }

    /// Add several policy columns.
    pub fn policies(mut self, kinds: impl IntoIterator<Item = PolicyKind>) -> Self {
        self.spec.policies.extend(kinds);
        self
    }

    /// Add the paper's seven helper-cluster policies (everything except the
    /// monolithic baseline), in the order the paper introduces them.
    pub fn paper_policies(self) -> Self {
        self.policies(
            PolicyKind::ALL
                .into_iter()
                .filter(|&k| k != PolicyKind::Baseline),
        )
    }

    /// Add one trace row.
    pub fn trace(mut self, selector: TraceSelector) -> Self {
        self.spec.traces.push(selector);
        self
    }

    /// Add one SPEC stand-in trace row.
    pub fn spec(self, benchmark: SpecBenchmark) -> Self {
        self.trace(TraceSelector::Spec(benchmark))
    }

    /// Add a recorded `.uoptrace` file as a trace row (streamed from disk).
    pub fn trace_file(self, path: impl Into<String>) -> Self {
        self.trace(TraceSelector::File { path: path.into() })
    }

    /// Add a phase-structured workload as a trace row (streamed one phase
    /// at a time).
    pub fn phased(self, schedule: PhaseSchedule) -> Self {
        self.trace(TraceSelector::Phased { schedule })
    }

    /// Add all 12 SPEC Int 2000 stand-in rows.
    pub fn spec_suite(mut self) -> Self {
        self.spec
            .traces
            .extend(SpecBenchmark::ALL.iter().map(|&b| TraceSelector::Spec(b)));
        self
    }

    /// Add the `app`-th application of a Table 2 category as a row.
    pub fn category_app(self, category: WorkloadCategory, app: usize) -> Self {
        self.trace(TraceSelector::CategoryApp { category, app })
    }

    /// Add up to `apps_per_category` applications from every Table 2 category,
    /// in category-then-app order.  The rows are *selectors* — each trace is
    /// synthesized on the fly inside a worker when the campaign runs, so even
    /// very large suites never sit in memory all at once.
    pub fn category_suite(mut self, apps_per_category: usize) -> Self {
        for cat in WorkloadCategory::ALL {
            for app in 0..apps_per_category.min(cat.trace_count()) {
                self = self.category_app(cat, app);
            }
        }
        self
    }

    /// Add every application of every Table 2 category — the paper's full
    /// 409-trace §3.8 suite — as selector rows.
    pub fn full_table2_suite(self) -> Self {
        self.category_suite(usize::MAX)
    }

    /// Add an explicit workload profile as a row.
    pub fn profile(self, profile: WorkloadProfile) -> Self {
        self.trace(TraceSelector::Profile(profile))
    }

    /// Set the dynamic µop count per generated trace.
    pub fn trace_len(mut self, len: usize) -> Self {
        self.spec.trace_len = len;
        self
    }

    /// Set the number of unmeasured predictor-priming runs per cell.
    pub fn warmup_runs(mut self, runs: usize) -> Self {
        self.spec.warmup_runs = runs;
        self
    }

    /// Skip the monolithic baseline simulations (stat-only sweeps).
    pub fn without_baseline(mut self) -> Self {
        self.spec.include_baseline = false;
        self
    }

    /// Use a custom helper-cluster simulator configuration as the base
    /// machine: it becomes the default scenario's machine, and every
    /// sensitivity preset derives its machines from it.
    pub fn config(mut self, config: SimConfig) -> Self {
        self.machine = config;
        self
    }

    /// Add one explicit scenario (machine + predictors + power overlay).
    /// The first scenario request replaces the implicit default; add
    /// [`ScenarioSpec::paper_default`] yourself to keep the paper design
    /// point as a comparison column.
    pub fn scenario(mut self, scenario: ScenarioSpec) -> Self {
        self.scenarios
            .push(ScenarioRequest::Explicit(Box::new(scenario)));
        self
    }

    /// Add several explicit scenarios.
    pub fn scenarios(mut self, scenarios: impl IntoIterator<Item = ScenarioSpec>) -> Self {
        self.scenarios.extend(
            scenarios
                .into_iter()
                .map(|s| ScenarioRequest::Explicit(Box::new(s))),
        );
        self
    }

    /// The §2 helper-geometry sensitivity plane: helper datapath width
    /// {4, 8, 16} bits × helper clock ratio {1×, 2×, 4×}, nine scenarios
    /// derived from the base machine and named `hw{width}_cr{ratio}x`.  The
    /// paper's design point is `hw8_cr2x`.  Expansion happens at
    /// [`CampaignBuilder::build`], so a later `.config(..)` still applies.
    pub fn sensitivity_helper_geometry(mut self) -> Self {
        self.scenarios.push(ScenarioRequest::HelperGeometry);
        self
    }

    /// The §3.2 width-predictor sizing sensitivity: table entries
    /// {256, 512, 1024, 2048, 4096} (carry and copy tables scale along, as
    /// in the paper's complexity study), scenarios named `wp{entries}` over
    /// the base machine.  The paper's design point is `wp256`.  Expansion
    /// happens at [`CampaignBuilder::build`], so a later `.config(..)`
    /// still applies.
    pub fn sensitivity_width_predictor(mut self) -> Self {
        self.scenarios.push(ScenarioRequest::WidthPredictor);
        self
    }

    /// Validate and produce the spec.  Scenario requests expand here,
    /// against the final base machine.
    pub fn build(mut self) -> Result<CampaignSpec, CampaignError> {
        self.spec.scenarios = if self.scenarios.is_empty() {
            vec![ScenarioSpec::overlay_of(self.machine)]
        } else {
            let mut scenarios = Vec::new();
            for request in self.scenarios {
                request.expand(&self.machine, &mut scenarios);
            }
            scenarios
        };
        self.spec.schema_version = spec_wire_version(&self.spec.scenarios);
        self.spec.validate()?;
        Ok(self.spec)
    }
}

/// A completed-cell notification delivered to the progress hook.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignProgress {
    /// Cells finished so far (including this one).
    pub completed_cells: usize,
    /// Total cells in the grid.
    pub total_cells: usize,
    /// Policy of the cell that just finished.
    pub policy: String,
    /// Trace of the cell that just finished.
    pub trace: String,
    /// Scenario of the cell that just finished (`"default"` on the legacy
    /// single-scenario path).
    pub scenario: String,
}

/// Shared progress-hook type: called once per finished cell, possibly from
/// worker threads.
pub type ProgressHook = Arc<dyn Fn(&CampaignProgress) + Send + Sync>;

/// One policy × trace × scenario measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignCell {
    /// Policy name (stable report key, from [`PolicyKind::name`]).
    pub policy: String,
    /// Trace name.
    pub trace: String,
    /// Workload category of the trace, if any.
    pub category: Option<String>,
    /// Scenario name this cell was measured under; `None` on the legacy
    /// single-default-scenario path (and omitted from the serialized form,
    /// keeping pre-scenario documents byte-identical).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub scenario: Option<String>,
    /// Measured statistics of the policy run.
    pub stats: SimStats,
}

/// One (trace, scenario) monolithic-baseline measurement (shared by every
/// cell of that trace under that scenario).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineRun {
    /// Trace name.
    pub trace: String,
    /// Workload category of the trace, if any.
    pub category: Option<String>,
    /// Scenario name; `None` on the legacy single-default-scenario path
    /// (omitted from the serialized form).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub scenario: Option<String>,
    /// Baseline statistics.
    pub stats: SimStats,
}

/// A cell's scenario display key (`"default"` on the legacy path).
fn scenario_key(cell: &CampaignCell) -> &str {
    cell.scenario.as_deref().unwrap_or(DEFAULT_SCENARIO_NAME)
}

/// The versioned output of a campaign run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Schema version of this report (legacy v2 for single-default-scenario
    /// campaigns, v3 once the scenario axis is used).
    pub schema_version: u32,
    /// Campaign name (from the spec).
    pub name: String,
    /// The spec that produced this report, embedded for replayability.
    pub spec: CampaignSpec,
    /// One baseline run per (trace, scenario), trace-major in spec order
    /// (empty when the spec disabled baselines).
    pub baselines: Vec<BaselineRun>,
    /// All policy × trace × scenario cells, trace-major then scenario-major
    /// in spec order.
    pub cells: Vec<CampaignCell>,
    /// Number of monolithic baseline results materialized — the memoization
    /// instrumentation: always ≤ traces × scenarios, never
    /// policies × traces × scenarios.  Counted whether each baseline was
    /// simulated or restored from a [`CellCache`] (restoring still
    /// materializes one baseline per (trace, scenario)), so reports stay
    /// byte-identical between cold and warm cache runs; cache hit/miss
    /// accounting lives in [`CellCache::stats`], not in the report.
    pub baseline_runs: usize,
    /// Number of row trace sources opened — the trace-memoization
    /// instrumentation mirroring `baseline_runs`: each grid row is opened
    /// exactly once and shared across every policy column, every warmup run
    /// *and every scenario*, so this is always the number of traces.  A
    /// synthesized row counts when it is opened, whether or not a cell
    /// simulates and makes it generate its µops, so the count (and the
    /// report bytes) are the same for cold and warm cache runs.
    pub trace_generations: usize,
}

impl CampaignReport {
    /// The baseline statistics for a trace, if baselines were run.  On
    /// multi-scenario reports this returns the *first* scenario's baseline;
    /// use [`CampaignReport::baseline_for_scenario`] to pick one.
    pub fn baseline_for(&self, trace: &str) -> Option<&SimStats> {
        self.baselines
            .iter()
            .find(|b| b.trace == trace)
            .map(|b| &b.stats)
    }

    /// The baseline statistics for a (trace, scenario) pair; `None` as the
    /// scenario selects the legacy default-scenario baselines.
    pub fn baseline_for_scenario(&self, trace: &str, scenario: Option<&str>) -> Option<&SimStats> {
        self.baselines
            .iter()
            .find(|b| b.trace == trace && b.scenario.as_deref() == scenario)
            .map(|b| &b.stats)
    }

    /// The cell for a (policy, trace) pair.  On multi-scenario reports this
    /// returns the first scenario's cell; use
    /// [`CampaignReport::cell_for_scenario`] to pick one.
    pub fn cell(&self, policy: &str, trace: &str) -> Option<&CampaignCell> {
        self.cells
            .iter()
            .find(|c| c.policy == policy && c.trace == trace)
    }

    /// The cell for a (policy, trace, scenario) triple.
    pub fn cell_for_scenario(
        &self,
        policy: &str,
        trace: &str,
        scenario: Option<&str>,
    ) -> Option<&CampaignCell> {
        self.cells
            .iter()
            .find(|c| c.policy == policy && c.trace == trace && c.scenario.as_deref() == scenario)
    }

    /// Display keys of every scenario in this report, in spec order
    /// (`["default"]` for legacy single-scenario campaigns).
    pub fn scenario_keys(&self) -> Vec<String> {
        if self.spec.is_single_default_scenario() {
            vec![DEFAULT_SCENARIO_NAME.to_string()]
        } else {
            self.spec.scenarios.iter().map(|s| s.name.clone()).collect()
        }
    }

    /// The cell's own-scenario baseline: the join every aggregate uses, so
    /// each measurement is compared against the monolithic machine *of its
    /// scenario*, never against another machine's baseline.
    fn baseline_for_cell(&self, cell: &CampaignCell) -> Option<&SimStats> {
        self.baseline_for_scenario(&cell.trace, cell.scenario.as_deref())
    }

    fn join_cell(&self, cell: &CampaignCell) -> Option<ExperimentResult> {
        let baseline = self.baseline_for_cell(cell)?;
        Some(ExperimentResult {
            policy: cell.policy.clone(),
            trace: cell.trace.clone(),
            category: cell.category.clone(),
            stats: cell.stats.clone(),
            baseline: baseline.clone(),
        })
    }

    /// Join every cell with its trace baseline into classic
    /// [`ExperimentResult`]s (cells without a baseline are skipped).
    pub fn experiment_results(&self) -> Vec<ExperimentResult> {
        self.cells
            .iter()
            .filter_map(|c| self.join_cell(c))
            .collect()
    }

    /// [`ExperimentResult`]s for one policy, in trace order.  Filters before
    /// joining, so only the requested policy's cells are cloned.
    pub fn results_for_policy(&self, policy: &str) -> Vec<ExperimentResult> {
        self.cells
            .iter()
            .filter(|c| c.policy == policy)
            .filter_map(|c| self.join_cell(c))
            .collect()
    }

    /// Mean speedup of one policy per workload category (cells without a
    /// category label group under `"uncategorized"`) — the aggregation behind
    /// the paper's Figure 14 (left).
    pub fn mean_speedup_by_category(&self, policy: &str) -> BTreeMap<String, f64> {
        self.mean_by(
            policy,
            |cell| {
                cell.category
                    .clone()
                    .unwrap_or_else(|| "uncategorized".to_string())
            },
            |cell, baseline| cell.stats.speedup_over(baseline),
        )
    }

    /// One policy's per-trace speedups sorted ascending — the S-curve of
    /// Figure 14 (right).  Each cell is compared against its own scenario's
    /// baseline; multi-scenario curves pool every scenario's points.
    ///
    /// **Degenerate-cell policy:** the sort uses [`f64::total_cmp`], so the
    /// curve is a deterministic total order for *any* input — the old
    /// `partial_cmp(..).unwrap_or(Equal)` comparator was not a valid
    /// ordering in the presence of NaN and could leave NaNs interleaved
    /// mid-curve (where they silently corrupt the median/percentile
    /// summaries read off the curve).  Zero-cycle cells (empty runs) measure
    /// a speedup of `0.0` (see `SimStats::speedup_over`) and sort to the
    /// front; NaNs cannot be produced by the engine, but a hand-built
    /// report's negative NaNs sort first and positive NaNs last, never in
    /// the middle.
    pub fn speedup_curve(&self, policy: &str) -> Vec<f64> {
        let mut curve: Vec<f64> = self
            .cells
            .iter()
            .filter(|c| c.policy == policy)
            .filter_map(|c| self.baseline_for_cell(c).map(|b| c.stats.speedup_over(b)))
            .collect();
        curve.sort_by(f64::total_cmp);
        curve
    }

    /// Arithmetic-mean speedup of one policy over the grid's traces (and
    /// scenarios).  Computed in place — no result vectors are materialized.
    pub fn mean_speedup(&self, policy: &str) -> Option<f64> {
        self.mean_by(
            policy,
            |_| (),
            |cell, baseline| cell.stats.speedup_over(baseline),
        )
        .remove(&())
    }

    /// Mean speedup of one policy per scenario — the sensitivity-study
    /// aggregation: each scenario's cells against that scenario's baselines.
    /// Legacy cells group under `"default"`.
    pub fn speedup_by_scenario(&self, policy: &str) -> BTreeMap<String, f64> {
        self.mean_by(
            policy,
            |cell| scenario_key(cell).to_string(),
            |cell, baseline| cell.stats.speedup_over(baseline),
        )
    }

    /// The power parameters a scenario key's energy accounting uses.
    fn scenario_power(&self, key: &str) -> PowerParams {
        self.spec
            .scenarios
            .iter()
            .find(|s| s.name == key)
            .map(|s| s.power)
            .unwrap_or_default()
    }

    /// Mean energy-delay² improvement (fraction; positive = the helper
    /// machine wins) of one policy per scenario, each scenario evaluated
    /// under **its own** [`PowerParams`] — the §3.7 ED² comparison as a
    /// sensitivity axis.
    pub fn ed2_by_scenario(&self, policy: &str) -> BTreeMap<String, f64> {
        self.mean_by(
            policy,
            |cell| scenario_key(cell).to_string(),
            |cell, baseline| {
                let model = PowerModel::new(self.scenario_power(scenario_key(cell)));
                Ed2Comparison::compare(&model, baseline, &cell.stats).improvement
            },
        )
    }

    /// The mean of `value` over one policy's cells, grouped by `key`: each
    /// cell is joined with its own-scenario baseline (cells without one are
    /// skipped), and each group sums its values in cell order.
    fn mean_by<K: Ord>(
        &self,
        policy: &str,
        key: impl Fn(&CampaignCell) -> K,
        value: impl Fn(&CampaignCell, &SimStats) -> f64,
    ) -> BTreeMap<K, f64> {
        let mut sums: BTreeMap<K, (f64, usize)> = BTreeMap::new();
        for cell in self.cells.iter().filter(|c| c.policy == policy) {
            let Some(baseline) = self.baseline_for_cell(cell) else {
                continue;
            };
            let e = sums.entry(key(cell)).or_insert((0.0, 0));
            e.0 += value(cell, baseline);
            e.1 += 1;
        }
        sums.into_iter()
            .map(|(k, (s, n))| (k, s / n as f64))
            .collect()
    }

    /// Serialize to pretty JSON (stable, versioned schema).
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }

    /// Decode from JSON (legacy v2 or scenario-aware v3), checking the
    /// schema version first.
    pub fn from_json(text: &str) -> Result<CampaignReport, CampaignError> {
        let value = decode_versioned(
            text,
            &[LEGACY_CAMPAIGN_SCHEMA_VERSION, CAMPAIGN_SCHEMA_VERSION],
        )?;
        Deserialize::from_value(&value).map_err(|e| CampaignError::Decode(e.to_string()))
    }

    /// Render as CSV (see [`crate::report::campaign_to_csv`]).
    pub fn to_csv(&self) -> String {
        crate::report::campaign_to_csv(self)
    }
}

/// Executes [`CampaignSpec`]s.
#[derive(Clone, Default)]
pub struct CampaignRunner {
    pub(crate) progress: Option<ProgressHook>,
    pub(crate) cache: Option<Arc<CellCache>>,
}

impl fmt::Debug for CampaignRunner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CampaignRunner")
            .field("progress", &self.progress.is_some())
            .field(
                "cache",
                &self.cache.as_ref().map(|c| c.root().to_path_buf()),
            )
            .finish()
    }
}

impl CampaignRunner {
    /// A runner with no progress hook.
    pub fn new() -> CampaignRunner {
        CampaignRunner::default()
    }

    /// Attach a progress hook, called once per finished cell (possibly from
    /// worker threads).
    ///
    /// Hook delivery is isolated from the campaign: a hook that **panics**
    /// is disabled for the rest of the run (its panic is caught per call)
    /// and the campaign completes normally — observation must never poison
    /// the runner.
    pub fn with_progress(
        mut self,
        hook: impl Fn(&CampaignProgress) + Send + Sync + 'static,
    ) -> CampaignRunner {
        self.progress = Some(Arc::new(hook));
        self
    }

    /// Memoize every simulated cell (and baseline) through a
    /// [`CellCache`]: cells whose key is already cached are restored from
    /// disk instead of re-simulated, and fresh simulations are inserted.
    /// The produced report is **byte-identical** with or without the cache.
    pub fn with_cache(mut self, cache: Arc<CellCache>) -> CampaignRunner {
        self.cache = Some(cache);
        self
    }

    /// Kept so existing callers still build; the engine has one executor,
    /// so the requested lane count is ignored.
    #[doc(hidden)]
    pub fn with_batch(self, _lanes: usize) -> CampaignRunner {
        self
    }

    /// Validate and execute a campaign.
    ///
    /// The grid **streams**: each worker opens one row's trace source from
    /// its selector, runs every scenario × policy column against it, and
    /// drops it before picking up the next row — at no point do more than
    /// O(worker threads) traces exist in memory, so the full 409-trace
    /// Table 2 suite runs in the same footprint as a 12-trace grid.  Each
    /// row's source is opened exactly once and shared by every scenario
    /// and policy column; the `trace_generations` counter proves the
    /// memoization held.  A synthesized row generates its µops when its
    /// first cell simulates, at most once, and not at all when every cell
    /// is a cache hit.  Baselines are memoized per (trace, scenario): an
    /// N-policy sweep over S scenarios simulates `traces × S` baselines,
    /// never `traces × S × N`.
    pub fn run(&self, spec: &CampaignSpec) -> Result<CampaignReport, CampaignError> {
        spec.validate()?;
        let rows: Vec<usize> = (0..spec.traces.len()).collect();
        let grid = run_spec_rows(spec, &rows, self.progress.as_ref(), self.cache.as_deref())?;
        Ok(CampaignReport {
            schema_version: report_wire_version(spec),
            name: spec.name.clone(),
            spec: spec.clone(),
            baseline_runs: grid.baselines.len(),
            baselines: grid.baselines,
            cells: grid.cells,
            trace_generations: grid.trace_generations,
        })
    }
}

/// One scenario's ready-to-run machinery: its report key and the validated
/// [`Experiment`] (helper + baseline simulators, predictor sizing).
struct ScenarioExperiment {
    /// Report key for this scenario's cells and baselines; `None` on the
    /// legacy single-default-scenario path, which keeps cells byte-identical
    /// to pre-scenario reports.
    key: Option<String>,
    experiment: Experiment,
}

impl ScenarioExperiment {
    /// Progress-hook display key.
    fn progress_key(&self) -> &str {
        self.key.as_deref().unwrap_or(DEFAULT_SCENARIO_NAME)
    }
}

/// Build one [`ScenarioExperiment`] per spec scenario.  On the legacy
/// single-default-scenario path cells stay untagged.
fn scenario_experiments(spec: &CampaignSpec) -> Result<Vec<ScenarioExperiment>, CampaignError> {
    let tag_cells = !spec.is_single_default_scenario();
    spec.scenarios
        .iter()
        .map(|scenario| {
            Ok(ScenarioExperiment {
                key: tag_cells.then(|| scenario.name.clone()),
                experiment: Experiment::try_new_with(
                    scenario.machine.clone(),
                    scenario.predictors,
                )?,
            })
        })
        .collect()
}

/// The grid engine's output over a set of spec rows: their baselines and
/// cells in report order (trace-major, then scenario-major) and how many
/// row trace sources were opened (the report's `trace_generations`).
pub(crate) struct Grid {
    pub(crate) baselines: Vec<BaselineRun>,
    pub(crate) cells: Vec<CampaignCell>,
    pub(crate) trace_generations: usize,
}

/// The cache binding of one grid run: the [`CellCache`] plus every other
/// component of its cells' content-addressed keys — the spec's length
/// knobs, the compact JSON of the scenario axis (aligned with the grid's
/// scenarios) and of every spec row's trace identity (indexed by row),
/// each rendered once per run.  The grid and the [`crate::cache::CostModel`]
/// planner both key cells through it, so a planner reads the timings the
/// grid recorded.
pub(crate) struct GridCache<'a> {
    cache: &'a CellCache,
    trace_len: usize,
    warmup_runs: usize,
    scenario_docs: Vec<String>,
    row_docs: Vec<String>,
}

impl<'a> GridCache<'a> {
    /// Bind `cache` to `spec`'s keys; `row_docs` are the rows' resolved
    /// trace identities ([`resolve_row_docs`]).
    pub(crate) fn new(
        cache: &'a CellCache,
        spec: &CampaignSpec,
        row_docs: &[serde::Value],
    ) -> Self {
        GridCache {
            cache,
            trace_len: spec.trace_len,
            warmup_runs: spec.warmup_runs,
            scenario_docs: render_scenarios(spec),
            row_docs: row_docs.iter().map(serde::json::to_string).collect(),
        }
    }

    /// The claim target of `row`'s baseline under scenario `scenario`.
    pub(crate) fn baseline(&self, row: usize, scenario: usize) -> (&CellCache, CellKey) {
        let key = CellKey::baseline_from_json(
            &self.row_docs[row],
            self.trace_len,
            &self.scenario_docs[scenario],
        );
        (self.cache, key)
    }

    /// The claim target of `row`'s `kind` cell under scenario `scenario`.
    pub(crate) fn cell(
        &self,
        row: usize,
        scenario: usize,
        kind: PolicyKind,
    ) -> (&CellCache, CellKey) {
        let key = CellKey::cell_from_json(
            &self.row_docs[row],
            self.trace_len,
            self.warmup_runs,
            &self.scenario_docs[scenario],
            kind.name(),
        );
        (self.cache, key)
    }
}

/// Obtain one cell through the cache's claim protocol — the one path every
/// simulated cell takes.  Without a cache the cell simply simulates.  With
/// one, a hit is restored, a join waits for the caller already simulating
/// the key (concurrent campaigns — e.g. N requests in flight inside one
/// `hc_serve` daemon — coalesce onto one simulation), and a lead simulates
/// and publishes.  A lead whose simulation fails is dropped unpublished,
/// abandoning the flight so a joiner can take over, and the error surfaces
/// to the caller.
fn run_claimed(
    key: Option<(&CellCache, CellKey)>,
    simulate: impl FnOnce() -> Result<SimStats, TraceError>,
) -> Result<SimStats, TraceError> {
    let Some((cache, key)) = key else {
        return simulate();
    };
    match cache.claim(&key) {
        CellClaim::Hit(stats) => Ok(*stats),
        CellClaim::Lead(lead) => Ok(lead.publish(simulate()?)),
        CellClaim::Join(join) => match join.wait() {
            Ok(stats) => Ok(stats),
            Err(lead) => Ok(lead.publish(simulate()?)),
        },
    }
}

/// Numbers a run's finished cells and delivers them to its progress hook.
///
/// The count and the hook-panicked flag live under one lock, and each event
/// takes its number under the lock that delivers it, so the hook sees
/// `completed_cells` rise by exactly one per call however many workers
/// finish at the same moment.  A panicking hook is isolated from the
/// engine: the panic is caught and the hook is disabled for the rest of the
/// run (the flag is set before the lock is released, so it is called
/// exactly once), and observation can never abort, or poison state shared
/// with, the campaign.  `AssertUnwindSafe` is sound here because the
/// engine never touches hook-owned state afterwards — the hook is simply
/// not called again.
pub(crate) struct ProgressCounter {
    hook: ProgressHook,
    total_cells: usize,
    state: Mutex<ProgressState>,
}

#[derive(Default)]
struct ProgressState {
    completed: usize,
    hook_panicked: bool,
}

impl ProgressCounter {
    pub(crate) fn new(hook: ProgressHook, total_cells: usize) -> ProgressCounter {
        ProgressCounter {
            hook,
            total_cells,
            state: Mutex::default(),
        }
    }

    /// Count `cells` cells finished elsewhere, without delivering them.
    pub(crate) fn skip(&self, cells: usize) {
        lock(&self.state).completed += cells;
    }

    /// Count one finished cell and deliver it.
    pub(crate) fn deliver(&self, policy: &str, trace: &str, scenario: &str) {
        let mut state = lock(&self.state);
        state.completed += 1;
        if state.hook_panicked {
            return;
        }
        let progress = CampaignProgress {
            completed_cells: state.completed,
            total_cells: self.total_cells,
            policy: policy.to_string(),
            trace: trace.to_string(),
            scenario: scenario.to_string(),
        };
        let hook = &self.hook;
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| hook(&progress))).is_err() {
            state.hook_panicked = true;
        }
    }
}

/// The grid engine: run `rows` — indices into a validated spec's trace
/// list — and return their baselines and cells.  [`CampaignRunner`] and
/// every shard run ([`crate::shard::ShardReport::run`]) go through here, so
/// shard cache keys are whole-campaign keys.
///
/// A bound cache re-reads its directory once, before the rows fan out, so
/// a run sees the cells other processes appended and lets go of segments
/// they compacted away (one `read_dir` plus one `stat` per segment).
///
/// Rows fan out in parallel; each worker opens *one row's trace source at a
/// time*, runs every scenario × policy column against it, then drops it.
/// Peak memory is O(worker threads) traces regardless of row count — this
/// is what lets the full 409-trace Table 2 suite run as one campaign.  Each
/// (trace, scenario)'s baseline is simulated at most once and shared across
/// policies; the trace itself is opened once and shared across *scenarios*
/// too.
///
/// A synthesized row's source generates its trace on the first read and is
/// then read in place by the simulator; a `File` or `Phased` row streams a
/// bounded window of µops.  Either way the stats are bit-identical.  Each
/// worker thread owns one [`ExecContext`], reused for every run it performs
/// — including runs under different scenario machines — so a campaign
/// costs O(threads) simulator arenas, not O(cells), and an arena's window
/// is bounded by the machine, not by `trace_len`.
///
/// Every simulated cell, baselines included, goes through [`run_claimed`].
/// With a cache bound, cached cells are restored, in-flight cells are
/// joined, and only leads simulate and publish (with their wall-clock cost,
/// for later runs and the cost-model planner).  Each row is still opened on
/// a full-hit row, which keeps the report's `trace_generations` counter
/// (and with it the report bytes) identical between cold and warm runs.
/// Opening costs no µop work: the source is read only inside a lead's
/// simulation, so a synthesized row generates its trace when its first cell
/// simulates and a full-hit row never does.
///
/// Opening and streaming a row are fallible (`File` rows can hit an
/// unreadable or corrupt recording).  The parallel fan-out may surface
/// several failures; the *first in row order* is returned, so failures are
/// reproducible.
pub(crate) fn run_spec_rows(
    spec: &CampaignSpec,
    rows: &[usize],
    progress: Option<&ProgressHook>,
    cache: Option<&CellCache>,
) -> Result<Grid, CampaignError> {
    let scenarios = scenario_experiments(spec)?;
    // Row cache identities (content-addressed for `File` rows) resolve
    // once, up front and fallibly, instead of per cell inside the grid.
    let row_docs = resolve_row_docs(&spec.traces)?;
    if let Some(cache) = cache {
        cache.sync_index(false);
    }
    let grid_cache = cache.map(|cache| GridCache::new(cache, spec, &row_docs));
    let grid_cache = grid_cache.as_ref();
    let total_cells = rows.len() * spec.policies.len() * scenarios.len();
    let progress = progress.map(|hook| ProgressCounter::new(Arc::clone(hook), total_cells));
    let generations = AtomicUsize::new(0);
    let baseline_needed = spec.simulates_baselines();

    let rows_out: Vec<Result<_, CampaignError>> = rows
        .par_iter()
        .map_init(ExecContext::new, |ctx, &row| {
            generations.fetch_add(1, Ordering::Relaxed);
            let mut source = open_row(&spec.traces[row], spec.trace_len)?;
            let source = source.as_mut();
            let (trace, category) = {
                let header = source.header();
                (header.name.clone(), header.category.clone())
            };
            let fail = |e: TraceError| CampaignError::Trace(format!("{trace}: {e}"));
            let mut baselines =
                Vec::with_capacity(if baseline_needed { scenarios.len() } else { 0 });
            let mut cells = Vec::with_capacity(spec.policies.len() * scenarios.len());
            for (s, scenario) in scenarios.iter().enumerate() {
                let experiment = &scenario.experiment;
                let baseline = if baseline_needed {
                    let stats = run_claimed(grid_cache.map(|gc| gc.baseline(row, s)), || {
                        experiment.run_baseline_source(ctx, source)
                    })
                    .map_err(fail)?;
                    baselines.push(BaselineRun {
                        trace: trace.clone(),
                        category: category.clone(),
                        scenario: scenario.key.clone(),
                        stats,
                    });
                    baselines.last()
                } else {
                    None
                };
                for &kind in &spec.policies {
                    let stats = match baseline {
                        // The `baseline` column is the memoized baseline run.
                        Some(b) if kind == PolicyKind::Baseline => b.stats.clone(),
                        _ => run_claimed(grid_cache.map(|gc| gc.cell(row, s, kind)), || {
                            experiment.run_policy_warmed_source(ctx, source, kind, spec.warmup_runs)
                        })
                        .map_err(fail)?,
                    };
                    if let Some(progress) = &progress {
                        progress.deliver(kind.name(), &trace, scenario.progress_key());
                    }
                    cells.push(CampaignCell {
                        policy: kind.name().to_string(),
                        trace: trace.clone(),
                        category: category.clone(),
                        scenario: scenario.key.clone(),
                        stats,
                    });
                }
            }
            Ok((baselines, cells))
        })
        .collect();

    // Sequence the rows, surfacing the first error in row order.
    let (mut baselines, mut cells) = (Vec::new(), Vec::with_capacity(total_cells));
    for row in rows_out {
        let (row_baselines, row_cells) = row?;
        baselines.extend(row_baselines);
        cells.extend(row_cells);
    }
    Ok(Grid {
        baselines,
        cells,
        trace_generations: generations.into_inner(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> CampaignSpec {
        CampaignBuilder::new("unit")
            .policy(PolicyKind::P888)
            .policy(PolicyKind::Baseline)
            .spec(SpecBenchmark::Gzip)
            .trace_len(1_200)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validates_empty_specs() {
        assert_eq!(
            CampaignBuilder::new("x").spec(SpecBenchmark::Gzip).build(),
            Err(CampaignError::NoPolicies)
        );
        assert_eq!(
            CampaignBuilder::new("x").policy(PolicyKind::P888).build(),
            Err(CampaignError::NoTraces)
        );
        assert_eq!(
            CampaignBuilder::new("x")
                .policy(PolicyKind::P888)
                .spec(SpecBenchmark::Gzip)
                .trace_len(0)
                .build(),
            Err(CampaignError::ZeroTraceLength)
        );
    }

    #[test]
    fn baseline_policy_conflicts_with_without_baseline() {
        assert_eq!(
            CampaignBuilder::new("x")
                .policy(PolicyKind::Baseline)
                .policy(PolicyKind::P888)
                .spec(SpecBenchmark::Gzip)
                .without_baseline()
                .build(),
            Err(CampaignError::BaselinePolicyWithoutBaseline)
        );
    }

    #[test]
    fn duplicate_trace_labels_are_rejected() {
        // A custom profile named like a SPEC stand-in would join cells to
        // the wrong baseline; the spec refuses to run.
        let err = CampaignBuilder::new("dup")
            .policy(PolicyKind::P888)
            .spec(SpecBenchmark::Gzip)
            .profile(hc_trace::WorkloadProfile::new(
                "gzip",
                vec![(hc_trace::KernelKind::WordSum, 1.0)],
            ))
            .build()
            .unwrap_err();
        assert_eq!(err, CampaignError::DuplicateTraceLabel("gzip".to_string()));
        assert!(err.to_string().contains("more than once"));
    }

    #[test]
    fn duplicate_selectors_are_rejected() {
        // The same selector twice (not just two selectors colliding on a
        // name) is the common copy-paste mistake in hand-written suites.
        let err = CampaignBuilder::new("dup")
            .policy(PolicyKind::P888)
            .category_app(WorkloadCategory::Office, 3)
            .category_app(WorkloadCategory::Office, 3)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            CampaignError::DuplicateTraceLabel("office_003".to_string())
        );
    }

    #[test]
    fn duplicate_policies_are_rejected() {
        let err = CampaignBuilder::new("dup")
            .policy(PolicyKind::P888)
            .policy(PolicyKind::P888)
            .spec(SpecBenchmark::Gzip)
            .build()
            .unwrap_err();
        assert_eq!(err, CampaignError::DuplicatePolicy("8_8_8".to_string()));
    }

    #[test]
    fn builder_rejects_invalid_sim_configs() {
        let mut config = SimConfig::paper_baseline();
        config.commit_width = 0;
        let err = CampaignBuilder::new("x")
            .policy(PolicyKind::P888)
            .spec(SpecBenchmark::Gzip)
            .config(config)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            CampaignError::Config(hc_sim::ConfigError::ZeroFrontendWidth)
        );
        assert!(err.to_string().contains("non-zero"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn traces_are_generated_once_per_row_not_per_cell() {
        // Two policy columns, two warmup runs, one trace row: the trace must
        // still be synthesized exactly once.
        let spec = CampaignBuilder::new("gen")
            .policy(PolicyKind::P888)
            .policy(PolicyKind::Ir)
            .spec(SpecBenchmark::Gzip)
            .trace_len(1_000)
            .warmup_runs(2)
            .build()
            .unwrap();
        let report = CampaignRunner::new().run(&spec).unwrap();
        assert_eq!(report.trace_generations, 1);
        assert_eq!(report.cells.len(), 2);
    }

    #[test]
    fn baseline_policy_cell_reuses_the_memoized_baseline() {
        let report = CampaignRunner::new().run(&small_spec()).unwrap();
        assert_eq!(report.baseline_runs, 1);
        assert_eq!(report.trace_generations, 1);
        let baseline_cell = report.cell("baseline", "gzip").unwrap();
        assert_eq!(
            &baseline_cell.stats,
            report.baseline_for("gzip").unwrap(),
            "baseline policy cell must be the shared baseline run"
        );
    }

    #[test]
    fn progress_hook_sees_every_cell() {
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let runner =
            CampaignRunner::new().with_progress(move |p| sink.lock().unwrap().push(p.clone()));
        runner.run(&small_spec()).unwrap();
        let events = seen.lock().unwrap();
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|p| p.total_cells == 2));
        assert!(events.iter().any(|p| p.completed_cells == 2));
    }

    #[test]
    fn panicking_progress_hooks_do_not_poison_the_campaign() {
        // A user hook that panics (here: while it would be holding a lock in
        // real code) must not abort the run or corrupt the report; it is
        // disabled and the campaign completes.  The six-row spec runs rows
        // on several workers, which can deliver at the same moment: the
        // hook must still be called exactly once.
        let mut six_rows = CampaignBuilder::new("unit-six-rows").policy(PolicyKind::P888);
        for benchmark in SpecBenchmark::ALL.into_iter().take(6) {
            six_rows = six_rows.spec(benchmark);
        }
        let six_rows = six_rows.trace_len(600).build().unwrap();
        for spec in [small_spec(), six_rows] {
            let calls = Arc::new(AtomicUsize::new(0));
            let seen = Arc::clone(&calls);
            let runner = CampaignRunner::new().with_progress(move |_| {
                seen.fetch_add(1, Ordering::Relaxed);
                panic!("user hook exploded");
            });
            let report = runner
                .run(&spec)
                .expect("campaign survives a panicking hook");
            assert_eq!(report.cells.len(), spec.cell_count());
            assert_eq!(
                calls.load(Ordering::Relaxed),
                1,
                "{}: the hook is disabled after its first panic",
                spec.name
            );
            // The report is identical to a hook-less run.
            let plain = CampaignRunner::new().run(&spec).unwrap();
            assert_eq!(report, plain);
        }
    }

    #[test]
    fn hooks_that_panic_while_holding_a_lock_do_not_poison_later_holders() {
        // The classic poisoning shape: the hook panics *while holding* a
        // mutex shared with the caller.  The engine catches the panic, so
        // the caller's later lock() sees a poisoned-but-recoverable mutex at
        // worst — and the campaign itself never notices.
        let shared = Arc::new(std::sync::Mutex::new(0usize));
        let hook_side = Arc::clone(&shared);
        let runner = CampaignRunner::new().with_progress(move |_| {
            let mut guard = hook_side.lock().unwrap_or_else(|e| e.into_inner());
            *guard += 1;
            panic!("panic while holding the lock");
        });
        let report = runner.run(&small_spec()).expect("campaign completes");
        assert_eq!(report.cells.len(), 2);
        let count = *shared.lock().unwrap_or_else(|e| e.into_inner());
        assert_eq!(count, 1);
    }

    #[test]
    fn category_means_group_by_the_table2_labels() {
        let spec = CampaignBuilder::new("categories")
            .policy(PolicyKind::Ir)
            .category_suite(1)
            .trace_len(1_200)
            .build()
            .unwrap();
        let report = CampaignRunner::new().run(&spec).unwrap();
        let by_category = report.mean_speedup_by_category("IR");
        // The groups are the Table 2 category labels, not trace-name
        // prefixes.
        let labels: Vec<&str> = by_category.keys().map(String::as_str).collect();
        assert_eq!(
            labels,
            ["enc", "kernels", "mm", "office", "prod", "sfp", "ws"]
        );
        for cell in &report.cells {
            let category = cell.category.as_deref().unwrap();
            let baseline = report.baseline_for(&cell.trace).unwrap();
            assert_eq!(by_category[category], cell.stats.speedup_over(baseline));
        }
    }

    #[test]
    fn uncategorized_cells_group_under_a_stable_key() {
        let spec = CampaignBuilder::new("spec")
            .policy(PolicyKind::P888)
            .spec_suite()
            .trace_len(800)
            .build()
            .unwrap();
        let report = CampaignRunner::new().run(&spec).unwrap();
        let by_category = report.mean_speedup_by_category("8_8_8");
        assert_eq!(
            by_category.keys().collect::<Vec<_>>(),
            ["uncategorized"],
            "SPEC stand-ins carry no category label"
        );
        assert_eq!(
            Some(by_category["uncategorized"]),
            report.mean_speedup("8_8_8")
        );
    }

    #[test]
    fn speedup_curve_keeps_zero_cycle_cells_at_the_front() {
        // Regression: the old `partial_cmp(..).unwrap_or(Equal)` comparator
        // was not a total order; `total_cmp` is, and the documented policy
        // places zero-cycle cells (speedup 0.0) at the curve's start.
        let mut report = CampaignRunner::new().run(&small_spec()).unwrap();
        let mut dead = report.cells[0].clone();
        dead.trace = "dead".to_string();
        dead.stats.cycles = 0;
        let mut dead_baseline = report.baselines[0].clone();
        dead_baseline.trace = "dead".to_string();
        report.cells.push(dead);
        report.baselines.push(dead_baseline);
        let curve = report.speedup_curve("8_8_8");
        assert_eq!(curve.len(), 2);
        assert_eq!(curve[0], 0.0, "zero-cycle cell sorts first");
        assert!(curve[1] > 0.0);
        assert!(curve.windows(2).all(|w| w[0] <= w[1]));
        assert!(curve.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn stat_only_campaigns_skip_baselines() {
        let spec = CampaignBuilder::new("stat")
            .policy(PolicyKind::P888)
            .spec(SpecBenchmark::Gzip)
            .trace_len(1_000)
            .without_baseline()
            .build()
            .unwrap();
        let report = CampaignRunner::new().run(&spec).unwrap();
        assert_eq!(report.baseline_runs, 0);
        assert!(report.baselines.is_empty());
        assert_eq!(report.cells.len(), 1);
        assert!(report.experiment_results().is_empty());
    }

    #[test]
    fn legacy_specs_keep_the_v1_wire_format() {
        // A campaign that never touches the scenario axis must keep writing
        // the pre-scenario wire formats: spec v1 (with a `config` field) and
        // report v2 — that is what keeps golden snapshots and old tooling
        // byte-stable.
        let spec = small_spec();
        assert!(spec.is_single_default_scenario());
        assert_eq!(spec.schema_version, LEGACY_CAMPAIGN_SPEC_SCHEMA_VERSION);
        let json = spec.to_json();
        assert!(json.contains("\"config\""), "v1 shape carries `config`");
        assert!(!json.contains("\"scenarios\""));
        let decoded = CampaignSpec::from_json(&json).unwrap();
        assert_eq!(decoded, spec);
        let report = CampaignRunner::new().run(&spec).unwrap();
        assert_eq!(report.schema_version, LEGACY_CAMPAIGN_SCHEMA_VERSION);
        assert!(!report.to_json().contains("\"scenario\""));
    }

    fn geometry_spec() -> CampaignSpec {
        CampaignBuilder::new("sens")
            .policy(PolicyKind::P888)
            .policy(PolicyKind::Baseline)
            .spec(SpecBenchmark::Gzip)
            .spec(SpecBenchmark::Mcf)
            .trace_len(900)
            .sensitivity_helper_geometry()
            .build()
            .unwrap()
    }

    #[test]
    fn scenario_specs_use_the_v2_wire_format_and_round_trip() {
        let spec = geometry_spec();
        assert!(!spec.is_single_default_scenario());
        assert_eq!(spec.schema_version, CAMPAIGN_SPEC_SCHEMA_VERSION);
        assert_eq!(spec.scenarios.len(), 9);
        assert_eq!(spec.cell_count(), 2 * 2 * 9);
        let json = spec.to_json();
        assert!(json.contains("\"scenarios\""));
        assert!(!json.contains("\"config\""));
        let decoded = CampaignSpec::from_json(&json).unwrap();
        assert_eq!(decoded, spec);
    }

    #[test]
    fn scenario_campaigns_key_every_cell_and_memoize_per_scenario() {
        let spec = geometry_spec();
        let report = CampaignRunner::new().run(&spec).unwrap();
        assert_eq!(report.schema_version, CAMPAIGN_SCHEMA_VERSION);
        // 2 traces × 9 scenarios baselines; traces synthesized once per row.
        assert_eq!(report.baseline_runs, 2 * 9);
        assert_eq!(report.trace_generations, 2);
        assert_eq!(report.baselines.len(), 2 * 9);
        assert_eq!(report.cells.len(), 2 * 2 * 9);
        assert!(report.cells.iter().all(|c| c.scenario.is_some()));

        // The paper's design point is present and joins to its own baseline.
        let cell = report
            .cell_for_scenario("8_8_8", "gzip", Some("hw8_cr2x"))
            .expect("design-point cell");
        assert_eq!(cell.scenario.as_deref(), Some("hw8_cr2x"));
        let baseline = report
            .baseline_for_scenario("gzip", Some("hw8_cr2x"))
            .expect("design-point baseline");
        assert_eq!(cell.stats.committed_uops, baseline.committed_uops);

        // Per-scenario aggregates cover every scenario.
        let by_scenario = report.speedup_by_scenario("8_8_8");
        assert_eq!(by_scenario.len(), 9);
        assert!(by_scenario.contains_key("hw4_cr1x"));
        assert!(by_scenario.values().all(|s| *s > 0.0));
        let ed2 = report.ed2_by_scenario("8_8_8");
        assert_eq!(ed2.len(), 9);

        // A faster helper clock at the same width must not slow the machine
        // down relative to its own baseline aggregates being finite.
        let round_trip = CampaignReport::from_json(&report.to_json()).unwrap();
        assert_eq!(round_trip, report);
    }

    #[test]
    fn scenario_baselines_differ_across_machines() {
        // The whole point of per-(trace, scenario) baselines: different
        // machines measure different monolithic performance... unless the
        // scenario only changes helper-side knobs, in which case the
        // baselines legitimately coincide (helper removed).  Sweep a
        // *wide-side* knob to see distinct baselines.
        let slow_memory = ScenarioSpec::named("mem900").with_machine(SimConfig {
            memory_latency: 900,
            ..SimConfig::paper_baseline()
        });
        let spec = CampaignBuilder::new("mem")
            .policy(PolicyKind::P888)
            .spec(SpecBenchmark::Mcf)
            .trace_len(1_500)
            .scenario(ScenarioSpec::paper_default())
            .scenario(slow_memory)
            .build()
            .unwrap();
        let report = CampaignRunner::new().run(&spec).unwrap();
        let fast = report
            .baseline_for_scenario("mcf", Some(DEFAULT_SCENARIO_NAME))
            .unwrap();
        let slow = report.baseline_for_scenario("mcf", Some("mem900")).unwrap();
        assert!(
            slow.cycles > fast.cycles,
            "doubling memory latency must cost baseline cycles ({} vs {})",
            slow.cycles,
            fast.cycles
        );
    }

    #[test]
    fn width_predictor_scenarios_change_policy_behaviour_only() {
        let spec = CampaignBuilder::new("wp")
            .policy(PolicyKind::P888)
            .spec(SpecBenchmark::Gcc)
            .trace_len(2_000)
            .sensitivity_width_predictor()
            .build()
            .unwrap();
        assert_eq!(spec.scenarios.len(), 5);
        let report = CampaignRunner::new().run(&spec).unwrap();
        // Same machine in every scenario: all baselines identical.
        let b256 = report.baseline_for_scenario("gcc", Some("wp256")).unwrap();
        let b4096 = report.baseline_for_scenario("gcc", Some("wp4096")).unwrap();
        assert_eq!(b256, b4096);
        // Policy cells exist per scenario and commit the whole trace.
        for key in ["wp256", "wp512", "wp1024", "wp2048", "wp4096"] {
            let cell = report.cell_for_scenario("8_8_8", "gcc", Some(key)).unwrap();
            assert_eq!(cell.stats.committed_uops, 2_000, "{key}");
        }
    }

    #[test]
    fn predictor_sizing_reaches_the_policy() {
        // A 1-entry width table aliases every PC; its steering decisions (and
        // so the measured stats) must diverge from the 256-entry table.
        let tiny = ScenarioSpec::named("wp1")
            .with_predictors(hc_predictors::PredictorConfig::with_all_entries(1));
        let spec = CampaignBuilder::new("alias")
            .policy(PolicyKind::P888)
            .spec(SpecBenchmark::Gcc)
            .trace_len(2_000)
            .scenario(ScenarioSpec::paper_default())
            .scenario(tiny)
            .build()
            .unwrap();
        let report = CampaignRunner::new().run(&spec).unwrap();
        let paper = report
            .cell_for_scenario("8_8_8", "gcc", Some(DEFAULT_SCENARIO_NAME))
            .unwrap();
        let tiny = report
            .cell_for_scenario("8_8_8", "gcc", Some("wp1"))
            .unwrap();
        assert_ne!(
            paper.stats, tiny.stats,
            "a fully aliased width table must behave differently"
        );
    }

    #[test]
    fn config_applies_to_presets_regardless_of_call_order() {
        // Presets expand at build() against the final base machine, so
        // `.config(..)` after the preset must still take effect.
        let base = SimConfig {
            memory_latency: 900,
            ..SimConfig::paper_baseline()
        };
        let after = CampaignBuilder::new("order")
            .policy(PolicyKind::P888)
            .spec(SpecBenchmark::Gzip)
            .sensitivity_helper_geometry()
            .config(base.clone())
            .build()
            .unwrap();
        let before = CampaignBuilder::new("order")
            .policy(PolicyKind::P888)
            .spec(SpecBenchmark::Gzip)
            .config(base)
            .sensitivity_helper_geometry()
            .build()
            .unwrap();
        assert_eq!(after.scenarios, before.scenarios);
        assert!(after
            .scenarios
            .iter()
            .all(|s| s.machine.memory_latency == 900));
    }

    #[test]
    fn explicit_v2_specs_with_a_default_scenario_are_accepted() {
        // v2 is a superset: a v2 document whose scenario list happens to be
        // the single default overlay must decode, validate, run, and
        // re-encode as v2 (decode -> encode is the identity).
        let v2_json = CampaignSpec {
            schema_version: CAMPAIGN_SPEC_SCHEMA_VERSION,
            scenarios: vec![ScenarioSpec::paper_default()],
            ..small_spec()
        }
        .to_json();
        assert!(v2_json.contains("\"schema_version\": 2"));
        assert!(v2_json.contains("\"scenarios\""));
        let decoded = CampaignSpec::from_json(&v2_json).unwrap();
        assert_eq!(decoded.schema_version, CAMPAIGN_SPEC_SCHEMA_VERSION);
        assert!(decoded.validate().is_ok());
        assert_eq!(decoded.to_json(), v2_json, "round-trip identity");
        // Declaring v2 opts into the scenario-aware report format.
        assert!(!decoded.is_single_default_scenario());
        let report = CampaignRunner::new().run(&decoded).unwrap();
        assert_eq!(report.schema_version, CAMPAIGN_SCHEMA_VERSION);
        assert!(report
            .cells
            .iter()
            .all(|c| c.scenario.as_deref() == Some(DEFAULT_SCENARIO_NAME)));

        // Claiming v1 for a list that needs v2 is still rejected.
        let bad = CampaignSpec {
            schema_version: LEGACY_CAMPAIGN_SPEC_SCHEMA_VERSION,
            scenarios: vec![ScenarioSpec::named("x"), ScenarioSpec::named("y")],
            ..small_spec()
        };
        assert_eq!(
            bad.validate().unwrap_err(),
            CampaignError::UnsupportedSchemaVersion {
                found: LEGACY_CAMPAIGN_SPEC_SCHEMA_VERSION,
                supported: CAMPAIGN_SPEC_SCHEMA_VERSION,
            }
        );
    }

    /// A profile whose µops cannot be generated: reading a row built on it
    /// panics, so a test that survives never synthesized the row.
    fn poisoned_profile(name: &str) -> WorkloadProfile {
        WorkloadProfile::new(name, Vec::new()).with_category("enc")
    }

    #[test]
    fn profiles_that_cannot_generate_are_refused_by_validate() {
        let zero = WorkloadProfile::new("zero", vec![(hc_trace::KernelKind::WordSum, 0.0)]);
        let rows = [
            (TraceSelector::Profile(poisoned_profile("empty")), "empty"),
            (TraceSelector::Profile(zero.clone()), "zero"),
            (
                TraceSelector::Phased {
                    schedule: PhaseSchedule::new("phased")
                        .phase(SpecBenchmark::Gzip.profile(1), 100)
                        .phase(zero, 100),
                },
                "phased",
            ),
        ];
        for (selector, trace) in rows {
            let mut spec = small_spec();
            spec.traces.push(selector);
            let err = spec.validate().expect_err(trace);
            match &err {
                CampaignError::InvalidProfile { trace: t, .. } => assert_eq!(t, trace),
                other => panic!("{trace}: expected InvalidProfile, got {other:?}"),
            }
            assert!(err.to_string().contains(trace), "{err}");
            // The runner refuses it the same way instead of panicking.
            assert_eq!(CampaignRunner::new().run(&spec).unwrap_err(), err);
        }
    }

    #[test]
    fn opening_a_row_or_reading_its_header_synthesizes_nothing() {
        let row = open_row(&TraceSelector::Profile(poisoned_profile("p")), 500).unwrap();
        assert_eq!(row.header().name, "p");
        assert_eq!(row.header().category.as_deref(), Some("enc"));
        assert_eq!(row.header().len, 500);
        let read = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| row.as_trace()));
        assert!(read.is_err(), "the first read generates the µops");
    }

    #[test]
    fn deferred_row_headers_match_the_generated_traces() {
        let selectors = SpecBenchmark::ALL
            .iter()
            .map(|&b| TraceSelector::Spec(b))
            .chain(WorkloadCategory::ALL.iter().flat_map(|&category| {
                (0..category.trace_count())
                    .map(move |app| TraceSelector::CategoryApp { category, app })
            }));
        let mut checked = 0;
        for selector in selectors {
            for trace_len in [1, 7, 300] {
                let mut row = open_row(&selector, trace_len).unwrap();
                let header = row.header().clone();
                assert_eq!(header.name, selector.label(trace_len));
                let generated = selector.generate(trace_len);
                assert_eq!(header, hc_trace::TraceHeader::of_trace(&generated));
                assert_eq!(row.as_trace().unwrap().uops, generated.uops);
                row.reset().unwrap();
                assert_eq!(
                    hc_trace::source::drain_source(row.as_mut()).unwrap().len(),
                    trace_len
                );
                checked += 1;
            }
        }
        assert_eq!(checked, (12 + 409) * 3);
    }

    #[test]
    fn fully_warm_replays_synthesize_no_row() {
        // Every row is poisoned, so the replay succeeds only if no row is
        // ever read.  The cache is filled by hand under the grid's own keys.
        let mut spec = small_spec();
        spec.policies.push(PolicyKind::Ir);
        spec.traces = vec![
            TraceSelector::Profile(poisoned_profile("profile")),
            TraceSelector::Phased {
                schedule: PhaseSchedule::new("phased").phase(poisoned_profile("phase"), 300),
            },
        ];
        let stats = CampaignRunner::new().run(&small_spec()).unwrap().cells[0]
            .stats
            .clone();
        let dir = std::env::temp_dir().join(format!("hc_campaign_warm_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CellCache::open(&dir).unwrap();
        let keys = GridCache::new(&cache, &spec, &resolve_row_docs(&spec.traces).unwrap());
        for row in 0..spec.traces.len() {
            let cells = spec.policies.iter().map(|&kind| keys.cell(row, 0, kind));
            for (cache, key) in std::iter::once(keys.baseline(row, 0)).chain(cells) {
                match cache.claim(&key) {
                    CellClaim::Lead(lead) => lead.publish(stats.clone()),
                    _ => panic!("a fresh cache holds nothing"),
                };
            }
        }
        let filled = cache.stats();
        let rows: Vec<usize> = (0..spec.traces.len()).collect();
        let grid = run_spec_rows(&spec, &rows, None, Some(&cache)).unwrap();
        assert_eq!(grid.trace_generations, 2, "every row is still opened once");
        assert_eq!((grid.baselines.len(), grid.cells.len()), (2, 6));
        assert_eq!(grid.cells[0].trace, "profile");
        assert_eq!(grid.cells[3].trace, "phased");
        assert!(grid.cells.iter().all(|c| c.stats == stats));
        let replayed = cache.stats();
        assert_eq!(replayed.misses, filled.misses, "the replay misses nothing");
        // Per row: the baseline, P888 and IR (the `baseline` column reuses
        // the row's baseline).
        assert_eq!(replayed.hits, filled.hits + 6);
        drop(cache);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scenario_validation_is_typed() {
        // Duplicate scenario names.
        let err = CampaignBuilder::new("dup")
            .policy(PolicyKind::P888)
            .spec(SpecBenchmark::Gzip)
            .scenario(ScenarioSpec::named("same"))
            .scenario(ScenarioSpec::named("same"))
            .build()
            .unwrap_err();
        assert_eq!(err, CampaignError::DuplicateScenario("same".to_string()));

        // A bad machine inside a scenario keeps the pre-scenario error shape.
        let mut machine = SimConfig::paper_baseline();
        machine.helper_width_bits = 7;
        let err = CampaignBuilder::new("badmachine")
            .policy(PolicyKind::P888)
            .spec(SpecBenchmark::Gzip)
            .scenario(ScenarioSpec::named("odd").with_machine(machine))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            CampaignError::Config(hc_sim::ConfigError::UnsupportedHelperWidth { width_bits: 7 })
        );

        // Bad predictors / power surface as scenario errors with the name.
        let mut predictors = hc_predictors::PredictorConfig::paper_default();
        predictors.copy_entries = 0;
        let err = CampaignBuilder::new("badpred")
            .policy(PolicyKind::P888)
            .spec(SpecBenchmark::Gzip)
            .scenario(ScenarioSpec::named("tiny").with_predictors(predictors))
            .build()
            .unwrap_err();
        assert!(matches!(
            &err,
            CampaignError::Scenario { name, .. } if name == "tiny"
        ));
        assert!(err.to_string().contains("tiny"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn v2_reports_decode_into_the_scenario_model() {
        // A report produced by the pre-scenario engine (schema v2, spec v1,
        // cells without scenario keys) must decode: the spec comes back with
        // the single default overlay and every accessor works.
        let report = CampaignRunner::new().run(&small_spec()).unwrap();
        let json = report.to_json();
        assert!(json.contains("\"schema_version\": 2"));
        let decoded = CampaignReport::from_json(&json).unwrap();
        assert_eq!(decoded.spec.scenarios.len(), 1);
        assert!(decoded.spec.scenarios[0].is_legacy_overlay());
        assert_eq!(decoded.scenario_keys(), vec!["default".to_string()]);
        assert!(decoded.cells.iter().all(|c| c.scenario.is_none()));
        assert_eq!(
            decoded.speedup_by_scenario("8_8_8").len(),
            1,
            "legacy cells aggregate under the default scenario key"
        );
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = CampaignRunner::new().run(&small_spec()).unwrap();
        let decoded = CampaignReport::from_json(&report.to_json()).unwrap();
        assert_eq!(decoded, report);
    }

    #[test]
    fn version_mismatch_is_a_typed_error() {
        let mut report = CampaignRunner::new().run(&small_spec()).unwrap();
        report.schema_version = CAMPAIGN_SCHEMA_VERSION + 1;
        let err = CampaignReport::from_json(&report.to_json()).unwrap_err();
        assert_eq!(
            err,
            CampaignError::UnsupportedSchemaVersion {
                found: CAMPAIGN_SCHEMA_VERSION + 1,
                supported: CAMPAIGN_SCHEMA_VERSION,
            }
        );
    }
}
