//! # hc-bench
//!
//! The `reproduce` binary regenerates every table and figure of the paper's
//! evaluation section and prints them as Markdown (DESIGN.md, "Known
//! calibration gap", compares its headline numbers with the paper's).  The
//! repository's benchmark is `perfbench/`, a package of its own.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Trace length used by the `reproduce` binary by default; overridable with
/// the `--trace-len` flag.
pub const REPRODUCE_TRACE_LEN: usize = 20_000;

/// Applications per workload category used for Figure 14 reproduction by
/// default (the full Table 2 suite is available with `--full-suite`).
pub const REPRODUCE_APPS_PER_CATEGORY: usize = 6;

// Compile-time sanity on the default sizing constants.
const _: () = {
    assert!(REPRODUCE_TRACE_LEN >= 1_000);
    assert!(REPRODUCE_APPS_PER_CATEGORY >= 1);
};
