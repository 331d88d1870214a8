//! Determinism guarantees of the staged engine and the campaign runner:
//!
//! * the same spec produces **byte-identical** `CampaignReport` JSON on a
//!   1-thread and an N-thread run (the parallel fan-out with per-worker
//!   `ExecContext` reuse must not leak state between cells or reorder
//!   results);
//! * a warm cell cache replays a campaign with zero re-simulations and the
//!   same bytes;
//! * repeated runs through one reused `ExecContext` match fresh-context
//!   runs exactly.
//!
//! The thread cap is process-global, so every campaign run of one matrix
//! lives in a single `#[test]` to avoid cross-test interference.

use hc_core::cache::CellCache;
use hc_core::policy::PolicyKind;
use helper_cluster::prelude::*;
use std::sync::Arc;

fn grid_spec() -> CampaignSpec {
    CampaignBuilder::new("determinism")
        .policy(PolicyKind::P888)
        .policy(PolicyKind::P888Br)
        .policy(PolicyKind::Ir)
        .spec(SpecBenchmark::Gzip)
        .spec(SpecBenchmark::Gcc)
        .spec(SpecBenchmark::Mcf)
        .trace_len(1_200)
        .warmup_runs(1)
        .build()
        .expect("valid determinism spec")
}

#[test]
fn campaign_json_is_byte_identical_across_thread_counts_and_reruns() {
    let spec = grid_spec();
    rayon::set_thread_cap(1);
    let single = CampaignRunner::new().run(&spec).expect("1-thread run");
    rayon::set_thread_cap(4);
    let multi = CampaignRunner::new().run(&spec).expect("4-thread run");
    let multi_again = CampaignRunner::new().run(&spec).expect("repeat run");
    rayon::set_thread_cap(0);

    assert_eq!(
        single.to_json(),
        multi.to_json(),
        "1-thread and 4-thread campaign reports must serialize identically"
    );
    assert_eq!(
        multi.to_json(),
        multi_again.to_json(),
        "repeated runs must serialize identically"
    );
    assert_eq!(single.baseline_runs, 3);
    assert_eq!(single.trace_generations, 3);
}

#[test]
fn warm_cache_replay_simulates_nothing() {
    let dir = std::env::temp_dir().join(format!("hc_cache_determinism_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = grid_spec();

    // Cold run fills the cache; 3 traces × (1 baseline + 3 policy cells) =
    // 12 claims, all misses.
    let cold_cache = Arc::new(CellCache::open(&dir).expect("open cold"));
    let cold = CampaignRunner::new()
        .with_cache(Arc::clone(&cold_cache))
        .run(&spec)
        .expect("cold run");
    assert_eq!(cold_cache.stats().misses, 12);

    // Warm replay: every cell is a cache hit, so the engine simulates
    // nothing.
    let warm_cache = Arc::new(CellCache::open(&dir).expect("open warm"));
    let warm = CampaignRunner::new()
        .with_cache(Arc::clone(&warm_cache))
        .run(&spec)
        .expect("warm run");
    let activity = warm_cache.stats();
    assert_eq!(activity.misses, 0, "a warm replay re-simulates zero cells");
    assert_eq!(activity.hits, 12);
    assert_eq!(warm.to_json(), cold.to_json(), "warm bytes == cold bytes");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reused_context_matches_fresh_contexts_across_policies() {
    let sim = Simulator::new(SimConfig::paper_baseline()).expect("valid config");
    let traces = [
        SpecBenchmark::Gzip.trace(1_500),
        SpecBenchmark::Vortex.trace(1_500),
    ];
    let mut ctx = ExecContext::new();
    for kind in [PolicyKind::P888, PolicyKind::Ir, PolicyKind::P888BrLr] {
        for trace in &traces {
            let mut warm = kind.build();
            let reused = sim.run_with(&mut ctx, trace, warm.as_mut());
            let mut cold = kind.build();
            let fresh = sim.run(trace, cold.as_mut());
            assert_eq!(
                reused,
                fresh,
                "context reuse must be bit-identical ({} × {})",
                kind.name(),
                trace.name
            );
        }
    }
}
