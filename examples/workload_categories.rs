//! Reproduce Figure 14: run the best steering mechanism (IR) over the Table 2
//! workload categories and print the per-category performance increase plus
//! the per-application speedup S-curve.
//!
//! ```text
//! cargo run --release --example workload_categories [apps_per_category] [trace_len]
//! ```

use hc_core::campaign::{CampaignBuilder, CampaignRunner};
use hc_core::policy::PolicyKind;
use hc_trace::WorkloadCategory;

fn main() {
    let apps_per_category: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let trace_len: usize = std::env::args()
        .nth(2)
        .and_then(|v| v.parse().ok())
        .unwrap_or(8_000);

    // One campaign over every category: each app's trace is synthesized
    // inside the worker that simulates it.
    let ir = PolicyKind::Ir.name();
    let spec = CampaignBuilder::new("workload-categories")
        .policy(PolicyKind::Ir)
        .category_suite(apps_per_category)
        .trace_len(trace_len)
        .build()
        .expect("a suite of at least one app per category");
    let report = CampaignRunner::new().run(&spec).expect("the suite runs");
    let by_category = report.mean_speedup_by_category(ir);

    println!("{:<10} {:>8} {:>14}", "category", "#apps", "perf incr %");
    for cat in WorkloadCategory::ALL {
        println!(
            "{:<10} {:>8} {:>14.1}",
            cat.abbrev(),
            apps_per_category.min(cat.trace_count()),
            (by_category[cat.abbrev()] - 1.0) * 100.0
        );
    }

    let curve = report.speedup_curve(ir);
    let n = curve.len();
    println!("\nS-curve over {n} apps (speedup vs monolithic baseline):");
    println!(
        "  min {:.3}   p25 {:.3}   median {:.3}   p75 {:.3}   max {:.3}",
        curve[0],
        curve[n / 4],
        curve[n / 2],
        curve[3 * n / 4],
        curve[n - 1]
    );
    let mean = report
        .mean_speedup(ir)
        .expect("IR cells joined to baselines");
    println!("  mean speedup: {:+.1}%", (mean - 1.0) * 100.0);
}
