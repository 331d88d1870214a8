//! # hc-sim
//!
//! A cycle-level, trace-driven simulator of a clustered out-of-order IA-32-like
//! processor: a monolithic 32-bit core (Table 1 of the paper) optionally
//! extended with the low-complexity 8-bit **helper cluster** of §2, clocked
//! twice as fast as the wide backend.
//!
//! The simulator executes any [`steer::SteeringPolicy`]; the paper's
//! data-width aware policies live in `hc-core`.  The crate also provides the
//! NREADY imbalance metric, the memory hierarchy, and the statistics /
//! energy-event collection the power model consumes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Version of the simulator's *observable behaviour*: the mapping from
/// (trace, configuration, policy) to [`SimStats`].  Consumers that memoize
/// simulation results on disk (the `hc_core::cache` cell cache) fold this
/// constant into their keys, so bumping it invalidates every cached cell.
///
/// Bump it whenever a change alters the statistics a run produces — new
/// timing behaviour, counter semantics, predictor defaults.  Pure refactors
/// that keep runs bit-identical (the `tests/golden_*.rs` snapshots prove
/// this) must **not** bump it, or caches lose their contents for nothing.
pub const SIM_BEHAVIOR_VERSION: u32 = 1;

pub mod cache;
pub mod config;
pub mod exec;
pub mod imbalance;
pub mod rob;
pub mod stats;
pub mod steer;

pub use cache::{MemoryHierarchy, SetAssocCache};
pub use config::{CacheConfig, ConfigError, SimConfig};
pub use exec::{ExecContext, Simulator};
pub use imbalance::NReadyAccumulator;
pub use stats::{EnergyEvents, ImbalanceStats, SimStats};
pub use steer::{
    AlwaysWide, Cluster, HelperMode, SourceWidthInfo, SteerContext, SteerDecision, SteeringPolicy,
    WritebackInfo,
};
