//! # hc-core
//!
//! The paper's contribution: **data-width aware instruction selection
//! policies** for a processor augmented with an 8-bit helper cluster, plus the
//! campaign / figure-reproduction machinery built on top of the `hc-sim`
//! cycle simulator.
//!
//! * [`policy`] — the paper's policy ladder (8_8_8, +BR, +LR, +CR, +CP, IR,
//!   IR-ND).  [`PolicyKind`] names each policy and is the one way to build
//!   it ([`PolicyKind::build`], [`PolicyKind::build_with`]); the IR,
//!   overload and helper-full thresholds are fixed at 0.08, 0.10 and 0.85.
//! * [`campaign`] — declarative policy × trace grids with shared baselines,
//!   typed errors and a versioned results schema; the engine everything else
//!   runs on.  Grids *stream*: traces are synthesized per worker and dropped
//!   per row, so suite size does not bound memory.
//! * [`shard`] — deterministic partitions of a campaign with mergeable
//!   [`ShardReport`]s and checkpoint/resume, for the 409-trace Table 2 suite
//!   and beyond; partitions are planned by a cost model (LPT bin packing
//!   over observed cell timings) when a cell cache is attached.
//! * [`fanout`] — multi-process shard fan-out over one checkpoint
//!   directory: lease-file claims with heartbeat renewal and staleness
//!   reclaim, cost-steered work-stealing, and a merge coordinator whose
//!   report is byte-identical to the single-process run.
//! * [`cache`] — the content-addressed, on-disk [`CellCache`]: repeated
//!   campaigns replay cached cells instead of re-simulating, with
//!   byte-identical reports either way.  Concurrent misses on the same key
//!   coalesce onto one simulation (keyed singleflight), and LRU/age GC
//!   keeps long-lived caches bounded.
//! * [`experiment`] — one scenario's validated simulators, and one trace
//!   run under one policy against the monolithic baseline.
//! * [`figures`] — regenerate every figure and table of the evaluation section.
//! * [`report`] — Markdown / CSV rendering of figures and campaign reports.
//!
//! ```
//! use hc_core::campaign::{CampaignBuilder, CampaignRunner};
//! use hc_core::policy::PolicyKind;
//! use hc_trace::SpecBenchmark;
//!
//! let spec = CampaignBuilder::new("demo")
//!     .policy(PolicyKind::P888)
//!     .spec(SpecBenchmark::Gzip)
//!     .trace_len(2_000)
//!     .build()
//!     .expect("valid campaign");
//! let report = CampaignRunner::new().run(&spec).expect("campaign runs");
//! let speedup = report.mean_speedup("8_8_8").expect("policy in grid");
//! println!("8_8_8: {:.1}% vs the monolithic baseline", (speedup - 1.0) * 100.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod campaign;
pub mod experiment;
pub mod fanout;
pub mod figures;
pub mod policy;
pub mod report;
pub mod scenario;
pub mod shard;

pub use cache::{
    CacheStats, CachedCell, CellCache, CellClaim, CellJoin, CellKey, CellLead, CostModel,
    GcOutcome, GcPolicy, CACHE_LAYOUT_VERSION, CACHE_SCHEMA_VERSION,
};
pub use campaign::{
    CampaignBuilder, CampaignError, CampaignProgress, CampaignReport, CampaignRunner, CampaignSpec,
    TraceSelector, CAMPAIGN_SCHEMA_VERSION, CAMPAIGN_SPEC_SCHEMA_VERSION,
    LEGACY_CAMPAIGN_SCHEMA_VERSION, LEGACY_CAMPAIGN_SPEC_SCHEMA_VERSION,
};
pub use experiment::{Experiment, ExperimentResult};
pub use fanout::{
    lease_file_name, FanoutWorker, MergeCoordinator, MergeOutcome, MergeWait, ShardLease,
    WorkerOutcome,
};
pub use figures::{Figure, FigureRow};
pub use policy::PolicyKind;
pub use scenario::{ScenarioError, ScenarioSpec, DEFAULT_SCENARIO_NAME};
pub use shard::{
    ShardPlan, ShardReport, ShardStrategy, ShardedCampaignRunner, ShardedRunOutcome,
    LEGACY_SHARD_SCHEMA_VERSION, SCENARIO_SHARD_SCHEMA_VERSION, SHARD_SCHEMA_VERSION,
};
