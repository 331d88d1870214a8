//! `fanout_merge`: a Table 2 suite (IR) split over two `FanoutWorker`s
//! (threads, stealing on) into a fresh checkpoint directory, cold and
//! uncached, then merged by `MergeCoordinator::run`.  The only workload
//! where manifest adoption, lease claims, shard-file writes and the JSON
//! decode of large shard files do the work.

use crate::rng::Rng;
use crate::spans::{self, Tracer};
use crate::suite;
use crate::workload::{self, Layers, Outcome, Workload};
use hc_core::campaign::{CampaignBuilder, CampaignReport, CampaignRunner, CampaignSpec};
use hc_core::shard::ShardReport;
use hc_core::{FanoutWorker, MergeCoordinator, PolicyKind, WorkerOutcome};
use std::path::{Path, PathBuf};

/// Table 2 applications per category (7 categories).  Shard-file decode
/// time grows with the square of the rows; the cut suite keeps dozens of
/// operations in a run.
pub const APPS_PER_CATEGORY: usize = 8;
/// Workers in the fleet, one shard each; each runs its rows on one thread.
pub const WORKERS: usize = 2;
const SALT: u64 = 3;

pub struct FanoutMerge {
    spec: CampaignSpec,
    /// Home shard of each worker.
    homes: [usize; WORKERS],
    dir: PathBuf,
    reference: String,
    ops: usize,
}

impl FanoutMerge {
    /// Build the spec and the in-process reference report.  The seed
    /// decides which worker starts on which shard; the suite and its
    /// partition stay fixed, so every seed does the same work.
    pub fn setup(seed: u64, dir: PathBuf) -> FanoutMerge {
        rayon::set_thread_cap(1);
        let spec = CampaignBuilder::new("table2-fanout")
            .policy(PolicyKind::Ir)
            .category_suite(APPS_PER_CATEGORY)
            .trace_len(suite::TRACE_LEN)
            .build()
            .expect("the Table 2 suite is a valid campaign");
        let mut homes = [0, 1];
        Rng::new(seed, SALT).shuffle(&mut homes);
        let reference = CampaignRunner::new()
            .with_batch(1)
            .run(&spec)
            .expect("the reference run succeeds")
            .to_json();
        FanoutMerge {
            spec,
            homes,
            dir,
            reference,
            ops: 0,
        }
    }

    /// A fresh checkpoint directory for the next operation.
    fn checkpoint(&mut self) -> PathBuf {
        self.ops += 1;
        let dir = self.dir.join(format!("checkpoint-{:04}", self.ops));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Run the fleet, timing each worker when a tracer is given.
    fn run_fleet(
        &self,
        checkpoint: &Path,
        traced: Option<(&Tracer, spans::SpanId)>,
    ) -> Vec<Option<WorkerOutcome>> {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..WORKERS)
                .map(|w| {
                    s.spawn(move || {
                        let worker = FanoutWorker::new(WORKERS, checkpoint)
                            .home_shard(self.homes[w])
                            .worker_id(format!("worker-{w}"));
                        let run = || worker.run(&self.spec).ok();
                        match traced {
                            Some((tracer, root)) => tracer.time("fanout.worker", Some(root), run),
                            None => run(),
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a fan-out worker thread panicked"))
                .collect()
        })
    }
}

impl Workload for FanoutMerge {
    fn run(&mut self) -> Outcome {
        let checkpoint = self.checkpoint();
        let workers_ok = self
            .run_fleet(&checkpoint, None)
            .iter()
            .all(Option::is_some);
        match MergeCoordinator::new(&checkpoint).run() {
            Ok(merged) => Outcome::single(
                workers_ok && merged.report.to_json() == self.reference,
                workload::report_uops(&merged.report),
            ),
            Err(_) => Outcome::single(false, 0),
        }
    }

    /// The merge is driven through its parts — read and decode each shard
    /// file (`ShardReport::from_json`), then `CampaignReport::merge` — so
    /// the decode shows as its own span.
    fn run_traced(&mut self, tracer: &Tracer) -> (spans::SpanId, Outcome, Layers) {
        let checkpoint = self.checkpoint();
        let root = tracer.open("fanout.run", None);
        let id = root.id();
        let workers = self.run_fleet(&checkpoint, Some((tracer, id)));
        let merge = tracer.open("fanout.merge", Some(id));
        let merge_id = Some(merge.id());
        let mut shard_bytes = 0;
        let shards: Option<Vec<ShardReport>> = (0..WORKERS)
            .map(|k| {
                let text =
                    std::fs::read_to_string(checkpoint.join(format!("shard_{k:04}.json"))).ok()?;
                shard_bytes += text.len();
                tracer
                    .time("report.decode", merge_id, || ShardReport::from_json(&text))
                    .ok()
            })
            .collect();
        let report = shards.and_then(|shards| {
            tracer
                .time("campaign.merge", merge_id, || {
                    CampaignReport::merge(&shards)
                })
                .ok()
        });
        let json = report
            .as_ref()
            .map(|r| tracer.time("report.encode", merge_id, || r.to_json()));
        drop(merge);
        drop(root);

        let tree = tracer.tree(id);
        let worker_ns = spans::durations_ns(&tree, "fanout.worker");
        let stolen: usize = workers
            .iter()
            .flatten()
            .map(|w| w.stolen_shards.len())
            .sum();
        let mut layers = Layers::new();
        layers.insert(
            "fanout.worker_ns_max",
            worker_ns.iter().copied().max().unwrap_or(0) as f64,
        );
        layers.insert(
            "fanout.worker_ns_min",
            worker_ns.iter().copied().min().unwrap_or(0) as f64,
        );
        layers.insert(
            "fanout.merge_ns",
            spans::total_ns(&tree, "fanout.merge") as f64,
        );
        layers.insert("fanout.shards_stolen", stolen as f64);
        layers.insert("fanout.shard_bytes", shard_bytes as f64);
        layers.insert(
            "report.decode_ns",
            spans::total_ns(&tree, "report.decode") as f64,
        );
        layers.insert("report.decode_bytes", shard_bytes as f64);
        layers.insert(
            "report.encode_ns",
            spans::total_ns(&tree, "report.encode") as f64,
        );
        layers.insert(
            "report.encode_bytes",
            json.as_ref().map_or(0, String::len) as f64,
        );
        if let Some(report) = &report {
            workload::simulated_figures(&[report], &mut layers);
        }
        let ok =
            workers.iter().all(Option::is_some) && json.as_deref() == Some(self.reference.as_str());
        let uops = report.as_ref().map_or(0, workload::report_uops);
        (id, Outcome::single(ok, uops), layers)
    }

    fn reset(&mut self) {
        let _ = std::fs::remove_dir_all(self.dir.join(format!("checkpoint-{:04}", self.ops)));
    }
}
