//! Running one trace under one policy and comparing against the monolithic
//! baseline — the basic experiment unit behind every figure.
//!
//! Since the campaign redesign this is a thin adapter over
//! [`crate::campaign`]'s grid engine: [`Experiment::run_many`] shares one
//! baseline simulation across all policies exactly like a
//! [`crate::campaign::CampaignRunner`] cell row does, and configurations are
//! validated once, up front, with typed [`ConfigError`]s instead of
//! `expect`s on the run path.

use crate::policy::PolicyKind;
use hc_power::{Ed2Comparison, PowerModel};
use hc_predictors::PredictorConfig;
use hc_sim::{ConfigError, ExecContext, SimConfig, SimStats, Simulator};
use hc_trace::{MaterializedSource, Trace, TraceError, TraceSource};
use serde::{Deserialize, Serialize};

/// The result of running one trace under one policy, with its baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// Policy that was evaluated.
    pub policy: String,
    /// Trace name.
    pub trace: String,
    /// Workload category of the trace (Table 2), if any.
    pub category: Option<String>,
    /// Statistics of the helper-cluster run.
    pub stats: SimStats,
    /// Statistics of the monolithic baseline run on the same trace.
    pub baseline: SimStats,
}

impl ExperimentResult {
    /// Speedup over the monolithic baseline (1.0 = same performance).
    pub fn speedup(&self) -> f64 {
        self.stats.speedup_over(&self.baseline)
    }

    /// Performance increase in percent, as the paper's figures plot it.
    pub fn performance_increase_pct(&self) -> f64 {
        (self.speedup() - 1.0) * 100.0
    }

    /// Energy-delay² comparison against the baseline under the default power model.
    pub fn ed2(&self) -> Ed2Comparison {
        self.ed2_with(&PowerModel::default())
    }

    /// Energy-delay² comparison under an explicit power model (scenarios
    /// carry their own [`hc_power::PowerParams`]).
    pub fn ed2_with(&self, model: &PowerModel) -> Ed2Comparison {
        Ed2Comparison::compare(model, &self.baseline, &self.stats)
    }
}

/// Experiment runner: owns the validated helper-cluster and baseline
/// simulators plus the predictor sizing policies are built with.
#[derive(Debug, Clone)]
pub struct Experiment {
    helper_sim: Simulator,
    baseline_sim: Simulator,
    predictors: PredictorConfig,
}

impl Default for Experiment {
    fn default() -> Self {
        Experiment::new(SimConfig::paper_baseline())
    }
}

impl Experiment {
    /// Create an experiment from the helper-cluster configuration; the
    /// baseline uses the same parameters with the helper cluster removed,
    /// and policies are built with the paper's predictor sizing.
    ///
    /// Both configurations are validated here, so every later run is
    /// infallible.  Returns the typed [`ConfigError`] describing the first
    /// problem found.
    pub fn try_new(helper_config: SimConfig) -> Result<Experiment, ConfigError> {
        Experiment::try_new_with(helper_config, PredictorConfig::paper_default())
    }

    /// [`Experiment::try_new`] with explicit predictor sizing — every policy
    /// this experiment builds gets its tables from `predictors`.  The
    /// predictor configuration is assumed pre-validated (campaign scenarios
    /// validate it in the owning crate before construction).
    pub fn try_new_with(
        helper_config: SimConfig,
        predictors: PredictorConfig,
    ) -> Result<Experiment, ConfigError> {
        let baseline_config = SimConfig {
            helper_enabled: false,
            ..helper_config.clone()
        };
        Ok(Experiment {
            helper_sim: Simulator::new(helper_config)?,
            baseline_sim: Simulator::new(baseline_config)?,
            predictors,
        })
    }

    /// Like [`Experiment::try_new`], but panics on an invalid configuration.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] message if the configuration is
    /// rejected; use [`Experiment::try_new`] to handle it.
    pub fn new(helper_config: SimConfig) -> Experiment {
        match Experiment::try_new(helper_config) {
            Ok(e) => e,
            Err(e) => panic!("invalid experiment configuration: {e}"),
        }
    }

    /// The helper-cluster configuration.
    pub fn helper_config(&self) -> &SimConfig {
        self.helper_sim.config()
    }

    /// The monolithic-baseline configuration (helper cluster removed).
    pub fn baseline_config(&self) -> &SimConfig {
        self.baseline_sim.config()
    }

    /// Run the monolithic baseline on a trace.
    pub fn run_baseline(&self, trace: &Trace) -> SimStats {
        self.run_baseline_with(&mut ExecContext::new(), trace)
    }

    /// Run the monolithic baseline on a trace inside a reused
    /// [`ExecContext`] (bit-identical to [`Experiment::run_baseline`],
    /// without the per-run allocations).
    pub fn run_baseline_with(&self, ctx: &mut ExecContext, trace: &Trace) -> SimStats {
        self.run_baseline_source(ctx, &mut MaterializedSource::borrowed(trace))
            .expect("an in-memory trace cannot fail")
    }

    /// Run the monolithic baseline over a [`TraceSource`] inside a reused
    /// [`ExecContext`].  For a source that yields the same µops as a
    /// materialized trace with the same name and length, the stats are
    /// bit-identical to [`Experiment::run_baseline_with`] over that trace.
    pub fn run_baseline_source(
        &self,
        ctx: &mut ExecContext,
        source: &mut dyn TraceSource,
    ) -> Result<SimStats, TraceError> {
        self.run_policy_warmed_source(ctx, source, PolicyKind::Baseline, 0)
    }

    /// [`Experiment::run_policy_warmed_with`] over a [`TraceSource`]: every
    /// pass (warmups included) replays the source from the top, keeping one
    /// policy instance — and so its predictors — warm across passes.  The
    /// baseline policy runs on the monolithic machine, once.
    pub fn run_policy_warmed_source(
        &self,
        ctx: &mut ExecContext,
        source: &mut dyn TraceSource,
        kind: PolicyKind,
        warmup_runs: usize,
    ) -> Result<SimStats, TraceError> {
        let mut policy = kind.build_with(&self.predictors);
        if kind == PolicyKind::Baseline {
            return self.baseline_sim.run_source(ctx, source, policy.as_mut());
        }
        for _ in 0..warmup_runs {
            self.helper_sim.run_source(ctx, source, policy.as_mut())?;
        }
        self.helper_sim.run_source(ctx, source, policy.as_mut())
    }

    /// Run one policy on a trace (no baseline comparison).
    pub fn run_policy(&self, trace: &Trace, kind: PolicyKind) -> SimStats {
        self.run_policy_warmed(trace, kind, 0)
    }

    /// Run one policy on a trace after `warmup_runs` unmeasured priming runs
    /// that keep the same policy instance (and so its predictors) warm.
    pub fn run_policy_warmed(
        &self,
        trace: &Trace,
        kind: PolicyKind,
        warmup_runs: usize,
    ) -> SimStats {
        self.run_policy_warmed_with(&mut ExecContext::new(), trace, kind, warmup_runs)
    }

    /// [`Experiment::run_policy_warmed`] inside a reused [`ExecContext`]:
    /// the warmup runs and the measured run all replay through the same
    /// context.
    pub fn run_policy_warmed_with(
        &self,
        ctx: &mut ExecContext,
        trace: &Trace,
        kind: PolicyKind,
        warmup_runs: usize,
    ) -> SimStats {
        let mut source = MaterializedSource::borrowed(trace);
        self.run_policy_warmed_source(ctx, &mut source, kind, warmup_runs)
            .expect("an in-memory trace cannot fail")
    }

    /// Run one policy and the baseline on the same trace.
    pub fn run(&self, trace: &Trace, kind: PolicyKind) -> ExperimentResult {
        self.run_many(trace, &[kind])
            .pop()
            .expect("one policy in, one result out")
    }

    /// Run a set of policies against one trace, reusing one baseline run —
    /// the single-trace row of a campaign grid.
    pub fn run_many(&self, trace: &Trace, kinds: &[PolicyKind]) -> Vec<ExperimentResult> {
        let traces = std::slice::from_ref(trace);
        crate::campaign::run_grid(self, traces, MaterializedSource::borrowed, kinds)
            .into_experiment_results()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_trace::SpecBenchmark;

    fn trace() -> Trace {
        SpecBenchmark::Gzip.trace(4_000)
    }

    #[test]
    fn baseline_experiment_has_speedup_one() {
        let e = Experiment::default();
        let r = e.run(&trace(), PolicyKind::Baseline);
        assert!((r.speedup() - 1.0).abs() < 1e-9);
        assert_eq!(r.performance_increase_pct(), 0.0);
    }

    #[test]
    fn policy_runs_retire_the_whole_trace() {
        let e = Experiment::default();
        let r = e.run(&trace(), PolicyKind::P888);
        assert_eq!(r.stats.committed_uops, r.baseline.committed_uops);
        assert_eq!(r.policy, "8_8_8");
    }

    #[test]
    fn run_many_reuses_a_single_baseline() {
        let e = Experiment::default();
        let rs = e.run_many(&trace(), &[PolicyKind::P888, PolicyKind::P888Br]);
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[0].baseline.cycles, rs[1].baseline.cycles);
    }

    #[test]
    fn ed2_comparison_is_computable() {
        let e = Experiment::default();
        let r = e.run(&trace(), PolicyKind::P888);
        let cmp = r.ed2();
        assert!(cmp.baseline_ed2 > 0.0);
        assert!(cmp.candidate_ed2 > 0.0);
    }

    #[test]
    fn invalid_configs_produce_typed_errors() {
        let mut cfg = SimConfig::paper_baseline();
        cfg.rob_entries = 1;
        let err = Experiment::try_new(cfg).unwrap_err();
        assert!(matches!(
            err,
            ConfigError::RobSmallerThanCommitGroup { rob_entries: 1, .. }
        ));
    }

    #[test]
    fn warmup_runs_keep_results_deterministic() {
        let e = Experiment::default();
        let t = trace();
        let a = e.run_policy_warmed(&t, PolicyKind::P888, 1);
        let b = e.run_policy_warmed(&t, PolicyKind::P888, 1);
        assert_eq!(a, b);
        // A warmed predictor must not lose µops.
        assert_eq!(a.committed_uops, 4_000);
    }
}
