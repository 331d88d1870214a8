//! Property-based tests over the cycle simulator: for arbitrary generated
//! workloads and steering configurations, the fundamental invariants must
//! hold (nothing is lost, counters stay consistent, the simulation always
//! terminates).

use hc_core::experiment::Experiment;
use hc_core::policy::PolicyKind;
use hc_sim::{SimConfig, Simulator};
use hc_trace::{KernelKind, WorkloadProfile};
use proptest::prelude::*;

fn arbitrary_profile(seed: u64, len: usize, bias: f64) -> WorkloadProfile {
    WorkloadProfile::new(
        format!("prop_{seed}"),
        vec![
            (KernelKind::ByteHistogram, 1.0),
            (KernelKind::WordSum, 1.0),
            (KernelKind::TokenScan, 1.0),
            (KernelKind::PointerChase, 0.5),
        ],
    )
    .with_trace_len(len)
    .with_narrow_bias(bias)
    .with_seed(seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every µop of every generated trace retires exactly once, under every
    /// policy, and the steering counters add up.
    #[test]
    fn simulation_conserves_uops(
        seed in 0u64..500,
        len in 800usize..2_000,
        bias in 0.1f64..0.95,
    ) {
        let trace = arbitrary_profile(seed, len, bias).generate();
        let exp = Experiment::default();
        for kind in [PolicyKind::Baseline, PolicyKind::P888, PolicyKind::P888BrLrCr, PolicyKind::Ir] {
            let stats = exp.run_policy(&trace, kind);
            prop_assert_eq!(stats.committed_uops as usize, len);
            prop_assert_eq!(stats.helper_uops + stats.wide_uops, stats.committed_uops);
            prop_assert!(stats.ipc() <= 6.0 + 1e-9);
            prop_assert!(stats.ticks >= stats.cycles);
        }
    }

    /// The monolithic baseline never produces helper-cluster activity.
    #[test]
    fn baseline_has_no_helper_activity(seed in 0u64..500, bias in 0.1f64..0.95) {
        let trace = arbitrary_profile(seed, 1_000, bias).generate();
        let exp = Experiment::default();
        let stats = exp.run_baseline(&trace);
        prop_assert_eq!(stats.helper_uops, 0);
        prop_assert_eq!(stats.copy_uops, 0);
        prop_assert_eq!(stats.energy.helper_alu_ops, 0);
        prop_assert_eq!(stats.fatal_width_mispredicts, 0);
    }

    /// Simulation is deterministic: the same trace and policy configuration
    /// always produce identical cycle counts.
    #[test]
    fn simulation_is_deterministic(seed in 0u64..200) {
        let trace = arbitrary_profile(seed, 1_200, 0.7).generate();
        let sim = Simulator::new(SimConfig::paper_baseline()).unwrap();
        let run = || {
            let mut policy = PolicyKind::Ir.build();
            sim.run(&trace, policy.as_mut())
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.cycles, b.cycles);
        prop_assert_eq!(a.copy_uops, b.copy_uops);
        prop_assert_eq!(a.helper_uops, b.helper_uops);
        prop_assert_eq!(a.fatal_width_mispredicts, b.fatal_width_mispredicts);
    }

    /// Narrow-biased data must never make the helper configuration lose a µop
    /// or blow past the commit-width IPC ceiling, even at tiny IQ sizes.
    #[test]
    fn reduced_resources_remain_correct(seed in 0u64..100, iq in 4usize..32) {
        let trace = arbitrary_profile(seed, 800, 0.8).generate();
        let cfg = SimConfig {
            helper_iq_entries: iq,
            int_iq_entries: iq.max(8),
            ..SimConfig::paper_baseline()
        };
        let exp = Experiment::new(cfg);
        let stats = exp.run_policy(&trace, PolicyKind::Ir);
        prop_assert_eq!(stats.committed_uops, 800);
    }
}
