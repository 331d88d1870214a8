//! Sweep every steering policy of the paper over the 12 SPEC Int 2000
//! stand-in workloads and print the per-policy averages — the data behind
//! Figures 6, 8, 9, 12 and the §3 headline numbers.
//!
//! The sweep is one campaign, so the seven policies share each trace's
//! monolithic baseline run.
//!
//! ```text
//! cargo run --release --example spec_steering_sweep [trace_len]
//! ```

use hc_core::campaign::{CampaignBuilder, CampaignRunner};

fn main() {
    let trace_len: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(15_000);

    let spec = CampaignBuilder::new("spec-steering-sweep")
        .paper_policies()
        .spec_suite()
        .trace_len(trace_len)
        .build()
        .expect("the paper grid is a valid campaign");
    let report = CampaignRunner::new()
        .run(&spec)
        .expect("the paper grid runs");
    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>12}",
        "policy", "helper %", "copies %", "speedup %", "fatal mis %"
    );
    for kind in &spec.policies {
        let results = report.results_for_policy(kind.name());
        let mean = |f: &dyn Fn(&hc_core::ExperimentResult) -> f64| {
            results.iter().map(f).sum::<f64>() / results.len() as f64
        };
        println!(
            "{:<18} {:>10.1} {:>10.1} {:>10.1} {:>12.2}",
            kind.name(),
            mean(&|r| r.stats.helper_fraction() * 100.0),
            mean(&|r| r.stats.copy_fraction() * 100.0),
            mean(&|r| r.performance_increase_pct()),
            mean(&|r| r.stats.fatal_mispredict_rate() * 100.0),
        );
    }
}
