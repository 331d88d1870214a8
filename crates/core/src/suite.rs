//! Running whole workload suites (the 12 SPEC traces, the Table 2 categories)
//! and aggregating the results.
//!
//! Since the campaign redesign [`SuiteRunner`] is a thin adapter over the
//! [`crate::campaign`] grid engine, and since the sharded-suite redesign it
//! **streams**: profile and selector suites synthesize each trace inside the
//! worker that simulates it and drop it when the row finishes, so running
//! the full 409-profile Table 2 suite holds O(worker threads) traces in
//! memory, not 409.  Each trace's monolithic baseline is still simulated
//! exactly once.

use crate::campaign::run_grid;
use crate::experiment::{Experiment, ExperimentResult};
use crate::policy::PolicyKind;
use hc_trace::{MaterializedSource, SpecBenchmark, Trace, WorkloadProfile};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Aggregated results over a suite of traces for one policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuiteResult {
    /// Policy evaluated.
    pub policy: String,
    /// Per-trace results, in suite order.
    pub per_trace: Vec<ExperimentResult>,
}

impl SuiteResult {
    /// Arithmetic-mean speedup over the suite.
    pub fn mean_speedup(&self) -> f64 {
        if self.per_trace.is_empty() {
            return 1.0;
        }
        self.per_trace.iter().map(|r| r.speedup()).sum::<f64>() / self.per_trace.len() as f64
    }

    /// Mean performance increase in percent.
    pub fn mean_performance_increase_pct(&self) -> f64 {
        (self.mean_speedup() - 1.0) * 100.0
    }

    /// Mean speedup per workload category (the trace's `category` label;
    /// traces without one are grouped under `"uncategorized"`).
    pub fn mean_speedup_by_category(&self) -> BTreeMap<String, f64> {
        let mut sums: BTreeMap<String, (f64, usize)> = BTreeMap::new();
        for r in &self.per_trace {
            let cat = r
                .category
                .clone()
                .unwrap_or_else(|| "uncategorized".to_string());
            let e = sums.entry(cat).or_insert((0.0, 0));
            e.0 += r.speedup();
            e.1 += 1;
        }
        sums.into_iter()
            .map(|(k, (s, n))| (k, s / n as f64))
            .collect()
    }

    /// Per-application speedups sorted ascending — the S-curve of Figure 14.
    /// Sorted with [`f64::total_cmp`] (a true total order), matching the
    /// degenerate-cell policy of `CampaignReport::speedup_curve`: zero-cycle
    /// runs measure 0.0 and sort first, and no input can destabilise the
    /// sort.
    pub fn speedup_curve(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.per_trace.iter().map(|r| r.speedup()).collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// Runs suites of workload profiles under an [`Experiment`].
#[derive(Debug, Clone, Default)]
pub struct SuiteRunner {
    experiment: Experiment,
}

impl SuiteRunner {
    /// Create a suite runner with the given experiment configuration.
    pub fn new(experiment: Experiment) -> SuiteRunner {
        SuiteRunner { experiment }
    }

    /// Run one policy over a set of already-generated traces, sharing one
    /// baseline simulation per trace.
    pub fn run_traces(&self, traces: &[Trace], kind: PolicyKind) -> SuiteResult {
        let grid = run_grid(
            &self.experiment,
            traces,
            MaterializedSource::borrowed,
            &[kind],
        );
        SuiteResult {
            policy: kind.name().to_string(),
            per_trace: grid.into_experiment_results(),
        }
    }

    /// Run one policy over a list of workload profiles.  Each profile's
    /// trace is synthesized inside the worker that simulates it and dropped
    /// when its row finishes — the suite streams instead of materializing
    /// every trace up front.
    pub fn run_profiles(&self, profiles: &[WorkloadProfile], kind: PolicyKind) -> SuiteResult {
        let grid = run_grid(
            &self.experiment,
            profiles,
            |p| MaterializedSource::new(p.generate()),
            &[kind],
        );
        SuiteResult {
            policy: kind.name().to_string(),
            per_trace: grid.into_experiment_results(),
        }
    }

    /// Run one policy over the 12 SPEC Int 2000 stand-in traces (streamed
    /// like [`SuiteRunner::run_profiles`]).
    pub fn run_spec(&self, trace_len: usize, kind: PolicyKind) -> SuiteResult {
        let grid = run_grid(
            &self.experiment,
            &SpecBenchmark::ALL,
            |b| MaterializedSource::new(b.trace(trace_len)),
            &[kind],
        );
        SuiteResult {
            policy: kind.name().to_string(),
            per_trace: grid.into_experiment_results(),
        }
    }

    /// Run one policy over the first `apps_per_category` applications of
    /// every Table 2 category, streaming trace synthesis.  Passing
    /// `usize::MAX` runs the paper's full 409-trace §3.8 suite.
    pub fn run_categories(
        &self,
        apps_per_category: usize,
        trace_len: usize,
        kind: PolicyKind,
    ) -> SuiteResult {
        let profiles: Vec<WorkloadProfile> =
            hc_trace::suite_profiles(Some(apps_per_category), trace_len).collect();
        self.run_profiles(&profiles, kind)
    }

    /// The underlying experiment.
    pub fn experiment(&self) -> &Experiment {
        &self.experiment
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_trace::reduced_suite;

    #[test]
    fn spec_suite_runs_all_benchmarks() {
        let runner = SuiteRunner::default();
        let r = runner.run_spec(1_500, PolicyKind::P888);
        assert_eq!(r.per_trace.len(), 12);
        assert!(r.mean_speedup() > 0.5);
        assert_eq!(r.policy, "8_8_8");
    }

    #[test]
    fn profile_suite_groups_by_category() {
        let runner = SuiteRunner::default();
        let profiles = reduced_suite(1, 1_200);
        let r = runner.run_profiles(&profiles, PolicyKind::Ir);
        assert_eq!(r.per_trace.len(), 7);
        let by_cat = r.mean_speedup_by_category();
        assert_eq!(by_cat.len(), 7, "one entry per category: {by_cat:?}");
        // The groups are the actual Table 2 category labels, not prefixes of
        // the trace names.
        for cat in ["enc", "sfp", "kernels", "mm", "office", "prod", "ws"] {
            assert!(by_cat.contains_key(cat), "{cat} missing from {by_cat:?}");
        }
    }

    #[test]
    fn uncategorized_traces_group_under_a_stable_key() {
        let runner = SuiteRunner::default();
        let r = runner.run_spec(800, PolicyKind::P888);
        let by_cat = r.mean_speedup_by_category();
        assert_eq!(by_cat.len(), 1, "SPEC stand-ins carry no category label");
        assert!(by_cat.contains_key("uncategorized"));
    }

    #[test]
    fn category_suite_matches_materialized_profiles() {
        // The streaming category path must equal running the same profiles
        // through the classic profile path.
        let runner = SuiteRunner::default();
        let streamed = runner.run_categories(1, 1_000, PolicyKind::Ir);
        let materialized = runner.run_profiles(&reduced_suite(1, 1_000), PolicyKind::Ir);
        assert_eq!(streamed, materialized);
        assert_eq!(streamed.per_trace.len(), 7);
    }

    #[test]
    fn speedup_curve_is_sorted() {
        let runner = SuiteRunner::default();
        let profiles = reduced_suite(2, 1_000);
        let r = runner.run_profiles(&profiles, PolicyKind::P888);
        let curve = r.speedup_curve();
        assert_eq!(curve.len(), 14);
        assert!(curve.windows(2).all(|w| w[0] <= w[1]));
    }
}
