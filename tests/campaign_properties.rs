//! Property-based tests over the campaign layer: `CampaignSpec` JSON
//! round-trips for arbitrary grids, `TraceSelector::label` uniqueness across
//! the whole Table 2 suite, and the shard partition laws the merge engine
//! relies on.

use hc_core::campaign::TraceSelector;
use hc_sim::config::CacheConfig;
use hc_trace::WorkloadCategory;
use helper_cluster::prelude::*;
use proptest::prelude::*;

/// Build a random *valid* machine configuration from raw sampled bits:
/// power-of-two cache geometry, supported helper widths, in-range clock
/// ratios.
fn arbitrary_machine(bits: u64) -> SimConfig {
    let pick = |shift: u64, n: u64| ((bits >> shift) % n) as u32;
    let line_bytes = 16u32 << pick(0, 3); // 16/32/64
    let ways = 1u32 << pick(2, 4); // 1..8
    let sets = 16u32 << pick(4, 5); // 16..256
    let dl0 = CacheConfig {
        size_bytes: sets * ways * line_bytes,
        ways,
        line_bytes,
        latency: 1 + pick(6, 4),
    };
    let ul1_ways = 1u32 << pick(8, 5);
    let ul1 = CacheConfig {
        size_bytes: 4096 * ul1_ways * line_bytes,
        ways: ul1_ways,
        line_bytes,
        latency: 8 + pick(10, 8),
    };
    SimConfig {
        dl0,
        ul1,
        memory_latency: 100 + pick(12, 400),
        helper_width_bits: [4, 8, 16][pick(20, 3) as usize],
        helper_clock_ratio: 1 + pick(22, 8),
        helper_issue_width: 1 + pick(24, 4) as usize,
        commit_width: 2 + pick(26, 6) as usize,
        rob_entries: 64 + pick(28, 128) as usize,
        ..SimConfig::paper_baseline()
    }
}

/// Build a random *valid* scenario overlay on top of [`arbitrary_machine`].
fn arbitrary_scenario(name: String, bits: u64) -> ScenarioSpec {
    let entries = 1usize << (4 + (bits % 12)); // 16 .. 32768
    ScenarioSpec::named(name)
        .with_machine(arbitrary_machine(bits))
        .with_predictors(PredictorConfig {
            width_entries: entries,
            use_confidence: bits & (1 << 40) != 0,
            carry_entries: entries.max(32),
            copy_entries: 1 + (bits % 1000) as usize,
        })
        .with_power(PowerParams::with_helper_discount(
            ((bits >> 8) % 400) as f64 / 100.0,
        ))
}

/// Assemble a valid spec from sampled raw material: a non-empty policy
/// subset (bitmask over the 8 kinds) and a non-empty distinct selector
/// subset drawn from the Table 2 categories.
fn arbitrary_spec(
    policy_mask: u8,
    selector_mask: u16,
    trace_len: usize,
    warmup_runs: usize,
) -> CampaignSpec {
    let mut builder = CampaignBuilder::new("prop")
        .trace_len(trace_len)
        .warmup_runs(warmup_runs);
    let mut policies = 0;
    for (bit, &kind) in PolicyKind::ALL.iter().enumerate() {
        if policy_mask & (1 << bit) != 0 {
            builder = builder.policy(kind);
            policies += 1;
        }
    }
    if policies == 0 {
        builder = builder.policy(PolicyKind::P888);
    }
    let mut selectors = 0;
    for bit in 0..14usize {
        if selector_mask & (1 << bit) != 0 {
            let category = WorkloadCategory::ALL[bit % 7];
            builder = builder.category_app(category, bit / 7 + 5);
            selectors += 1;
        }
    }
    if selectors == 0 {
        builder = builder.spec(SpecBenchmark::Gzip);
    }
    builder.build().expect("sampled specs are valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any valid spec survives the versioned JSON round-trip exactly —
    /// including every policy subset, selector subset and knob setting.
    #[test]
    fn campaign_specs_round_trip_through_json(
        policy_mask in any::<u8>(),
        selector_mask in any::<u16>(),
        trace_len in 1usize..50_000,
        warmup_runs in 0usize..4,
    ) {
        let spec = arbitrary_spec(policy_mask, selector_mask, trace_len, warmup_runs);
        let decoded = CampaignSpec::from_json(&spec.to_json()).expect("round-trip decodes");
        prop_assert_eq!(decoded, spec);
    }

    /// Every selector of the full 409-trace Table 2 suite has a distinct
    /// label at any trace length, and the label always equals the name of
    /// the trace the selector generates (labels key report cells to
    /// baselines, so a collision or mismatch would corrupt joins).
    #[test]
    fn table2_suite_labels_are_unique_and_faithful(trace_len in 1usize..100_000) {
        let mut labels = std::collections::BTreeSet::new();
        for category in WorkloadCategory::ALL {
            for app in 0..category.trace_count() {
                let selector = TraceSelector::CategoryApp { category, app };
                let label = selector.label(trace_len);
                prop_assert!(labels.insert(label.clone()), "duplicate label {}", label);
            }
        }
        prop_assert_eq!(labels.len(), 409);
        // Spot-check label/name agreement with a real generation (cheap at
        // tiny lengths; generating all 409 per case would dominate the run).
        let category = WorkloadCategory::ALL[trace_len % 7];
        let selector = TraceSelector::CategoryApp { category, app: trace_len % category.trace_count() };
        let generated = selector.generate(64);
        prop_assert_eq!(selector.label(64), generated.name);
    }

    /// Shard planning is a partition for every (suite size, shard count):
    /// disjoint, complete, canonical-per-index — the precondition for
    /// byte-identical merges.
    #[test]
    fn shard_plans_partition_the_rows(
        selector_mask in 1u16..(1 << 14),
        shard_count in 1usize..9,
    ) {
        let spec = arbitrary_spec(0b10, selector_mask, 1_000, 0);
        let plan = ShardPlan::round_robin(spec.traces.len(), shard_count).expect("plans are valid");
        prop_assert_eq!(plan.shard_count(), shard_count);
        let mut owner = vec![usize::MAX; spec.traces.len()];
        for k in 0..shard_count {
            for &row in plan.rows(k) {
                prop_assert_eq!(owner[row], usize::MAX, "row {} claimed twice", row);
                owner[row] = k;
            }
        }
        for (row, &shard_index) in owner.iter().enumerate() {
            prop_assert_eq!(shard_index, row % shard_count, "round-robin assignment");
        }
        // Cell accounting sums back to the unsharded grid.
        let row_cells = spec.policies.len() * spec.scenarios.len();
        let cells: usize = (0..shard_count).map(|k| plan.rows(k).len() * row_cells).sum();
        prop_assert_eq!(cells, spec.cell_count());
    }

    /// Any valid machine configuration survives the JSON round-trip exactly.
    #[test]
    fn sim_configs_round_trip_through_json(bits in any::<u64>()) {
        let machine = arbitrary_machine(bits);
        prop_assert!(machine.validate().is_ok(), "sampled machines are valid: {:?}", machine);
        let json = serde::json::to_string_pretty(&machine);
        let back: SimConfig = serde::json::from_str(&json).expect("machine decodes");
        prop_assert_eq!(back, machine);
    }

    /// Any valid power parameter set survives the JSON round-trip exactly
    /// (f64 energies included — the JSON writer must not lose precision).
    #[test]
    fn power_params_round_trip_through_json(
        bits in any::<u64>(),
        discount in 0.0f64..8.0,
    ) {
        let mut power = PowerParams::with_helper_discount(discount);
        power.wide_alu = (bits % 10_000) as f64 / 997.0;
        power.predictor_access = (bits % 997) as f64 / 65_536.0;
        prop_assert!(power.validate().is_ok());
        let json = serde::json::to_string_pretty(&power);
        let back: PowerParams = serde::json::from_str(&json).expect("power decodes");
        prop_assert_eq!(back, power);
    }

    /// Any valid scenario overlay survives the JSON round-trip exactly.
    #[test]
    fn scenarios_round_trip_through_json(bits in any::<u64>()) {
        let scenario = arbitrary_scenario(format!("s{bits:x}"), bits);
        prop_assert!(scenario.validate().is_ok(), "sampled scenarios are valid");
        let json = serde::json::to_string_pretty(&scenario);
        let back: ScenarioSpec = serde::json::from_str(&json).expect("scenario decodes");
        prop_assert_eq!(back, scenario);
    }

    /// Scenario-bearing campaign specs round-trip through the versioned
    /// (v2) JSON path, and shard plans over scenario grids still partition
    /// the rows exactly — cells and baselines included.
    #[test]
    fn scenario_grid_shard_plans_still_partition(
        selector_mask in 1u16..(1 << 14),
        scenario_count in 1usize..5,
        shard_count in 1usize..7,
        bits in any::<u64>(),
    ) {
        let mut builder = CampaignBuilder::new("scenario-prop")
            .policy(PolicyKind::P888)
            .policy(PolicyKind::Ir)
            .trace_len(1_000);
        for bit in 0..14usize {
            if selector_mask & (1 << bit) != 0 {
                let category = WorkloadCategory::ALL[bit % 7];
                builder = builder.trace(TraceSelector::CategoryApp { category, app: bit / 7 + 5 });
            }
        }
        for i in 0..scenario_count {
            builder = builder.scenario(arbitrary_scenario(
                format!("s{i}"),
                bits.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            ));
        }
        let spec = builder.build().expect("sampled scenario specs are valid");
        prop_assert_eq!(spec.scenarios.len(), scenario_count);

        // Versioned round-trip (v2 when any scenario is non-default).
        let decoded = CampaignSpec::from_json(&spec.to_json()).expect("round-trip decodes");
        prop_assert_eq!(&decoded, &spec);

        // Shard plans partition rows; cell accounting includes scenarios.
        let plan = ShardPlan::round_robin(spec.traces.len(), shard_count).expect("plans are valid");
        let mut seen = vec![false; spec.traces.len()];
        for k in 0..shard_count {
            for &row in plan.rows(k) {
                prop_assert!(!seen[row], "row {} claimed twice", row);
                seen[row] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "every row covered");
        let row_cells = spec.policies.len() * spec.scenarios.len();
        let cells: usize = (0..shard_count).map(|k| plan.rows(k).len() * row_cells).sum();
        prop_assert_eq!(cells, spec.cell_count());
        prop_assert_eq!(
            spec.cell_count(),
            spec.traces.len() * 2 * scenario_count,
            "cell count is traces × policies × scenarios"
        );
    }
}

/// The suite walk caps each category on its own, not the suite as a whole:
/// at 50 apps per category the 41-trace `sfp` category keeps all 41 rows
/// and the 85-trace `mm` category gets 50, in category-then-app order.
#[test]
fn category_suites_cap_each_category_independently() {
    let spec = CampaignBuilder::new("capped-suite")
        .policy(PolicyKind::Ir)
        .category_suite(50)
        .build()
        .expect("valid suite spec");
    let rows: Vec<(usize, usize)> = spec
        .traces
        .iter()
        .map(|row| match row {
            TraceSelector::CategoryApp { category, app } => {
                let position = WorkloadCategory::ALL.iter().position(|c| c == category);
                (position.expect("a Table 2 category"), *app)
            }
            other => panic!("not a suite row: {other:?}"),
        })
        .collect();
    assert!(
        rows.windows(2).all(|w| w[0] < w[1]),
        "category-then-app order"
    );
    let count = |category: WorkloadCategory| {
        let position = WorkloadCategory::ALL.iter().position(|&c| c == category);
        rows.iter().filter(|row| Some(row.0) == position).count()
    };
    assert_eq!(count(WorkloadCategory::SpecFp), 41);
    assert_eq!(count(WorkloadCategory::Multimedia), 50);
    let capped: usize = WorkloadCategory::ALL
        .iter()
        .map(|c| c.trace_count().min(50))
        .sum();
    assert_eq!(rows.len(), capped);
}
