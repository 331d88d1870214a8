//! Allocation accounting for the scalar hot path: after one warm-up run,
//! repeated [`Simulator::run_source`] runs through one reused
//! [`ExecContext`] must keep a constant allocation count — per-run
//! bookkeeping only, never per-µop or growing arena state.  Both feeds are
//! covered: a [`MaterializedSource`] is read in place, a [`PhasedSource`]
//! streams through the bounded cursor window.
//!
//! The counting allocator instruments every heap allocation in the process,
//! so every assertion lives in a single `#[test]` (integration test
//! binaries run tests on multiple threads; a second concurrently running
//! test would pollute the counters).

use hc_core::policy::PolicyKind;
use hc_sim::{ExecContext, SimConfig, Simulator};
use hc_trace::{
    KernelKind, MaterializedSource, PhaseSchedule, PhasedSource, SpecBenchmark, TraceSource,
    WorkloadProfile,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// System allocator wrapper that counts allocation events (alloc + realloc).
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::SeqCst)
}

/// Allocation counts of three back-to-back runs of `source` through `ctx`.
fn run_allocs(
    sim: &Simulator,
    ctx: &mut ExecContext,
    source: &mut dyn TraceSource,
    uops: u64,
) -> [u64; 3] {
    let mut counts = [0; 3];
    for count in &mut counts {
        let mut policy = PolicyKind::P888.build();
        let before = allocs();
        let stats = sim
            .run_source(ctx, source, policy.as_mut())
            .expect("an in-memory source cannot fail");
        *count = allocs() - before;
        assert_eq!(stats.committed_uops, uops);
    }
    counts
}

#[test]
fn warm_source_runs_keep_a_constant_allocation_count() {
    let sim = Simulator::new(SimConfig::paper_baseline()).expect("valid config");
    let mut ctx = ExecContext::new();

    // The first run grows every arena of the context; the next two must
    // allocate the same amount as each other.
    let trace = SpecBenchmark::Gzip.trace(1_500);
    let mut in_place = MaterializedSource::borrowed(&trace);
    let [_, second, third] = run_allocs(&sim, &mut ctx, &mut in_place, 1_500);
    assert_eq!(
        second, third,
        "steady-state in-place runs must not grow their allocation count"
    );

    // Long enough to cross a phase boundary and several stream chunks.
    let schedule = PhaseSchedule::new("alloc")
        .phase(
            WorkloadProfile::new("hist", vec![(KernelKind::ByteHistogram, 1.0)]).with_seed(3),
            1_200,
        )
        .phase(
            WorkloadProfile::new("scan", vec![(KernelKind::TokenScan, 1.0)]).with_seed(4),
            900,
        );
    let mut streamed = PhasedSource::new(schedule);
    assert!(streamed.as_trace().is_none(), "a phased source streams");
    let [_, second, third] = run_allocs(&sim, &mut ctx, &mut streamed, 2_100);
    assert_eq!(
        second, third,
        "steady-state streamed runs must not grow their allocation count"
    );
}
