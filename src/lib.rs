//! # helper-cluster
//!
//! Umbrella crate for the reproduction of *"Empowering a Helper Cluster through
//! Data-Width Aware Instruction Selection Policies"* (IPPS 2006).
//!
//! This crate simply re-exports the workspace members so that examples and
//! downstream users can depend on a single crate:
//!
//! * [`isa`] — µop ISA model, registers, value-width utilities.
//! * [`trace`] — synthetic kernel programs, trace generation, workload profiles.
//! * [`predictors`] — width / carry / copy-prefetch / branch predictors.
//! * [`sim`] — the clustered out-of-order cycle simulator.
//! * [`power`] — Wattch-like energy model and energy-delay² comparisons.
//! * [`core`] — the steering policies and the experiment / figure reproduction API.
//!
//! See the `examples/` directory for runnable entry points and `DESIGN.md` for the
//! full system inventory.

pub use hc_core as core;
pub use hc_isa as isa;
pub use hc_power as power;
pub use hc_predictors as predictors;
pub use hc_sim as sim;
pub use hc_trace as trace;

/// Convenience prelude re-exporting the most commonly used types.
pub mod prelude {
    pub use hc_core::cache::{CellCache, CostModel};
    pub use hc_core::campaign::{
        CampaignBuilder, CampaignError, CampaignReport, CampaignRunner, CampaignSpec, TraceSelector,
    };
    pub use hc_core::experiment::{Experiment, ExperimentResult};
    pub use hc_core::policy::PolicyKind;
    pub use hc_core::scenario::ScenarioSpec;
    pub use hc_core::shard::{ShardPlan, ShardReport, ShardedCampaignRunner};
    pub use hc_isa::uop::{Uop, UopKind};
    pub use hc_isa::value::Value;
    pub use hc_power::PowerParams;
    pub use hc_predictors::PredictorConfig;
    pub use hc_sim::config::SimConfig;
    pub use hc_sim::exec::{ExecContext, Simulator};
    pub use hc_trace::profile::WorkloadProfile;
    pub use hc_trace::spec::SpecBenchmark;
    pub use hc_trace::trace::Trace;
}
