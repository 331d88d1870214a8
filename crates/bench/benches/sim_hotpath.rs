//! Simulator hot-path throughput: µops/second of the cycle-level engine.
//!
//! Two cases mirror the two ways the engine is driven:
//!
//! * `single_cell` — one trace under one policy, the inner loop every grid
//!   cell pays; the execution context is reused across runs, so this is the
//!   steady-state per-cell cost.
//! * `full_grid` — the paper's 7-policy × 12-trace campaign through
//!   [`CampaignRunner`], including baseline memoization and the parallel
//!   fan-out with per-worker context reuse.
//!
//! Reported throughput counts *trace* µops only (committed work), not
//! synthesized copies or split chunks, so numbers are comparable across
//! policies and engine versions.  Recorded baselines live in
//! `BENCH_sim_hotpath.json` at the repository root; regenerate with
//!
//! ```text
//! SIM_HOTPATH_RECORD=numbers.json cargo bench -p hc-bench --bench sim_hotpath
//! ```

use hc_core::campaign::{CampaignBuilder, CampaignRunner};
use hc_core::policy::PolicyKind;
use hc_sim::{ExecContext, SimConfig, Simulator};
use hc_trace::SpecBenchmark;
use std::time::Instant;

const SINGLE_TRACE_LEN: usize = 10_000;
const GRID_TRACE_LEN: usize = 2_000;
const SAMPLES: usize = 5;

/// Best-of-`SAMPLES` throughput of `f`, which simulates `uops` trace µops
/// per invocation.
fn measure(uops: u64, mut f: impl FnMut()) -> f64 {
    f(); // warmup
    let mut best = f64::INFINITY;
    for _ in 0..SAMPLES {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    uops as f64 / best
}

fn single_cell() -> f64 {
    let sim = Simulator::new(SimConfig::paper_baseline()).expect("valid config");
    let trace = SpecBenchmark::Gzip.trace(SINGLE_TRACE_LEN);
    let mut ctx = ExecContext::new();
    // The policy is built per iteration, as every grid cell builds its own.
    measure(SINGLE_TRACE_LEN as u64, || {
        let mut policy = PolicyKind::P888.build();
        let stats = sim.run_with(&mut ctx, &trace, policy.as_mut());
        assert_eq!(stats.committed_uops, SINGLE_TRACE_LEN as u64);
        std::hint::black_box(stats);
    })
}

/// The paper grid through [`CampaignRunner`].
fn full_grid() -> f64 {
    let spec = CampaignBuilder::new("hotpath-grid")
        .paper_policies()
        .spec_suite()
        .trace_len(GRID_TRACE_LEN)
        .build()
        .expect("the paper grid is a valid campaign");
    // 84 policy cells + 12 memoized baselines, each over GRID_TRACE_LEN µops.
    let total_uops = (spec.cell_count() as u64 + 12) * GRID_TRACE_LEN as u64;
    measure(total_uops, || {
        let report = CampaignRunner::new().run(&spec).expect("grid runs");
        assert_eq!(report.baseline_runs, 12, "baseline memoization must hold");
        std::hint::black_box(report);
    })
}

fn main() {
    let single = single_cell();
    let grid = full_grid();
    println!("sim_hotpath/single_cell       {:>12.0} uops/sec", single);
    println!("sim_hotpath/full_grid         {:>12.0} uops/sec", grid);
    if let Some(path) = std::env::var_os("SIM_HOTPATH_RECORD") {
        let json = format!(
            "{{\n  \"single_cell_uops_per_sec\": {single:.0},\n  \"full_grid_uops_per_sec\": {grid:.0}\n}}\n"
        );
        std::fs::write(&path, json).expect("write SIM_HOTPATH_RECORD file");
    }
}
