//! # hc-bench
//!
//! Benchmark harness for the helper-cluster reproduction.
//!
//! * The `reproduce` binary regenerates every table and figure of the paper's
//!   evaluation section and prints them as Markdown (DESIGN.md, "Known
//!   calibration gap", compares its headline numbers with the paper's).
//! * The Criterion benches under `benches/` time the regeneration of each
//!   figure at a reduced trace length, so `cargo bench` both exercises every
//!   experiment code path and tracks simulator performance over time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Trace length (dynamic µops per benchmark) used by the Criterion benches.
/// Small enough for `cargo bench` to finish quickly, large enough for every
/// pipeline mechanism (copies, flushes, splitting) to trigger.
pub const BENCH_TRACE_LEN: usize = 1_500;

/// Trace length used by the `reproduce` binary by default; overridable with
/// the `--trace-len` flag.
pub const REPRODUCE_TRACE_LEN: usize = 20_000;

/// Applications per workload category used for Figure 14 reproduction by
/// default (the full Table 2 suite is available with `--full-suite`).
pub const REPRODUCE_APPS_PER_CATEGORY: usize = 6;

// Compile-time sanity on the bench sizing constants.
const _: () = {
    assert!(BENCH_TRACE_LEN >= 1_000);
    assert!(REPRODUCE_TRACE_LEN >= BENCH_TRACE_LEN);
    assert!(REPRODUCE_APPS_PER_CATEGORY >= 1);
};
