//! `grid_cold`: the paper grid — 7 policies × 12 SPEC stand-ins plus 12
//! baselines — through `CampaignRunner::run` with no cell cache.
//! Simulation does nearly all the work; cache, JSON decode, HTTP and
//! fan-out are bypassed.

use crate::redrive;
use crate::rng::Rng;
use crate::spans::{self, Tracer};
use crate::workload::{self, Layers, Outcome, Workload};
use hc_core::campaign::{CampaignBuilder, CampaignRunner, CampaignSpec, TraceSelector};
use hc_trace::SpecBenchmark;

/// µops per row.
pub const TRACE_LEN: usize = 5_000;
pub const THREADS: usize = 2;
const SALT: u64 = 1;

pub struct GridCold {
    spec: CampaignSpec,
    reference: String,
}

/// The grid, with its policy columns in an order drawn from `seed`.  Rows
/// keep the paper's order: the engine splits rows into one contiguous
/// chunk per thread, and a shuffled row order would move the load balance
/// between the two threads from seed to seed.  The cells are the same for
/// every seed, so the simulated figures repeat exactly.
pub fn spec(seed: u64) -> CampaignSpec {
    let mut policies = crate::mix::paper_policies();
    Rng::new(seed, SALT).shuffle(&mut policies);
    SpecBenchmark::ALL
        .into_iter()
        .fold(
            CampaignBuilder::new("grid-cold").policies(policies),
            |b, row| b.trace(TraceSelector::Spec(row)),
        )
        .trace_len(TRACE_LEN)
        .build()
        .expect("the paper grid is a valid campaign")
}

impl GridCold {
    /// Build the spec and its reference report: the uncached scalar runner.
    pub fn setup(seed: u64) -> GridCold {
        rayon::set_thread_cap(THREADS);
        let spec = spec(seed);
        let reference = CampaignRunner::new()
            .with_batch(1)
            .run(&spec)
            .expect("the reference run succeeds")
            .to_json();
        GridCold { spec, reference }
    }
}

impl Workload for GridCold {
    fn run(&mut self) -> Outcome {
        match CampaignRunner::new().run(&self.spec) {
            Ok(report) => Outcome::single(
                report.to_json() == self.reference,
                workload::report_uops(&report),
            ),
            Err(_) => Outcome::single(false, 0),
        }
    }

    fn run_traced(&mut self, tracer: &Tracer) -> (spans::SpanId, Outcome, Layers) {
        let root = tracer.open("campaign.run", None);
        let root_id = root.id();
        let rows: Vec<usize> = (0..self.spec.traces.len()).collect();
        let grid = redrive::run_grid(&self.spec, &rows, None, tracer, root_id);
        let (useful_rows, sim_uops, synth_uops) =
            (grid.useful_rows, grid.sim_uops, grid.synth_uops);
        let report = redrive::report(&self.spec, grid);
        let json = tracer.time("report.encode", Some(root_id), || report.to_json());
        drop(root);
        let tree = tracer.tree(root_id);
        let mut layers = Layers::new();
        layers.insert(
            "trace.synth_ns",
            spans::total_ns(&tree, "trace.synth") as f64,
        );
        layers.insert("trace.synth_uops", synth_uops as f64);
        layers.insert(
            "trace.synth_useful_ratio",
            useful_rows as f64 / rows.len() as f64,
        );
        workload::sim_figures(&tree, sim_uops, &mut layers);
        workload::simulated_figures(&[&report], &mut layers);
        workload::campaign_figures(&tree, &mut layers);
        layers.insert(
            "report.encode_ns",
            spans::total_ns(&tree, "report.encode") as f64,
        );
        layers.insert("report.encode_bytes", json.len() as f64);
        let outcome = Outcome::single(json == self.reference, workload::report_uops(&report));
        (root_id, outcome, layers)
    }
}
