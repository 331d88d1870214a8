//! Multi-process shard fan-out: lease-based work claiming, work-stealing
//! reassignment and a merge coordinator over one checkpoint directory.
//!
//! [`ShardedCampaignRunner`](crate::shard::ShardedCampaignRunner) executes a
//! partition's shards sequentially inside one process.  This module turns
//! the same checkpoint directory — the `campaign.json` manifest plus one
//! `shard_NNNN.json` per completed shard — into a **coordination substrate
//! for a fleet of worker processes**:
//!
//! * [`FanoutWorker`] is one worker of the fleet.  It reconciles (or, first
//!   arrival, publishes) the manifest, claims shards through **lease files**
//!   and executes each claimed shard through the ordinary streaming grid
//!   engine, writing the shard report with the existing tmp+rename
//!   checkpoint protocol.  With stealing enabled a fast worker picks up a
//!   straggler's or crashed peer's unfinished shards, steered by the
//!   recorded per-row costs of the [`CostModel`].
//! * [`ShardLease`] is the claim primitive: an exclusively-created
//!   `shard_NNNN.lease` file whose mtime is renewed by a heartbeat thread
//!   while the holder simulates.  A lease whose mtime has not moved for the
//!   staleness timeout marks a dead or stalled holder; any worker may break
//!   it and re-claim the shard.
//! * [`MergeCoordinator`] watches the directory, validates the accumulating
//!   shard set with the same typed conflict errors as
//!   [`CampaignReport::merge`], and emits a merged report **byte-identical**
//!   to the single-process run.
//!
//! ## Why duplicate execution is safe
//!
//! The claim protocol keeps duplicate work *rare* (exactly one `hard_link`
//! wins a race; stealers only break leases that look dead), but it cannot
//! make it impossible: a holder paused longer than the staleness timeout —
//! by a scheduler, a debugger, or swap death — looks exactly like a crashed
//! one, and in the worst interleaving two workers briefly simulate the same
//! shard.  That is deliberate.  A shard report is a **pure function of
//! (spec, plan, shard index)**: both workers produce byte-identical JSON,
//! both write it through tmp+rename, and whichever rename lands last
//! installs the same bytes.  Correctness never depends on mutual exclusion
//! — the leases exist only to avoid wasting simulation time.

use crate::cache::{CellCache, CostModel};
use crate::campaign::{CampaignError, CampaignReport, CampaignSpec, ProgressHook};
use crate::shard::{
    adopt_manifest, load_shard_checkpoint, shard_file_name, shard_wire_version,
    write_checkpoint_file, CampaignShard, CheckpointManifest, ShardReport, MANIFEST_FILE,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant, SystemTime};

/// File name of the lease guarding one shard's execution.
pub fn lease_file_name(index: usize) -> String {
    format!("shard_{index:04}.lease")
}

/// Process-wide sequence for unique lease tmp-file names (two threads of one
/// process racing for the same shard must not collide on the tmp path).
static LEASE_TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// An exclusive, heartbeat-renewed claim on one shard of a checkpoint
/// directory.
///
/// Claiming is atomic: the claimant writes a uniquely-named temporary file
/// and `hard_link`s it to the lease path — link creation fails if the lease
/// already exists, so however many workers race, **exactly one wins**.  A
/// background heartbeat thread then renews the lease's mtime every quarter
/// of the staleness timeout; a holder that dies (or stalls) stops renewing,
/// and once the mtime is older than the timeout any other worker may break
/// the lease and claim the shard for itself.
///
/// Dropping the lease — normal completion, an error unwind, anything but
/// `SIGKILL` — stops the heartbeat and removes the lease file.  A
/// `SIGKILL`ed holder leaves the file behind; that is exactly the stale
/// lease the timeout exists to reap.
pub struct ShardLease {
    path: PathBuf,
    heartbeat_stop: Arc<(Mutex<bool>, Condvar)>,
    heartbeat: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ShardLease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardLease")
            .field("path", &self.path)
            .finish()
    }
}

impl ShardLease {
    /// Try to claim shard `index` of the checkpoint directory `dir`.
    ///
    /// Returns `Ok(Some(lease))` when this caller won the claim,
    /// `Ok(None)` when another holder's lease is present **and fresh**
    /// (renewed within `timeout`).  A stale lease is broken and the claim
    /// retried once — the stale holder is presumed dead.
    ///
    /// Breaking a stale lease races benignly: two breakers both remove the
    /// stale file (one removal wins, the other no-ops) and both retry the
    /// `hard_link`, which again elects exactly one winner.
    pub fn try_claim(
        dir: &Path,
        index: usize,
        worker_id: &str,
        timeout: Duration,
    ) -> Result<Option<ShardLease>, CampaignError> {
        let path = dir.join(lease_file_name(index));
        let doc = serde::json::to_string_pretty(&serde::Value::Map(vec![
            (
                "worker".to_string(),
                serde::Value::Str(worker_id.to_string()),
            ),
            (
                "pid".to_string(),
                serde::Value::UInt(std::process::id() as u64),
            ),
        ]));
        for attempt in 0..2 {
            let tmp = dir.join(format!(
                "{}.tmp.{}.{}",
                lease_file_name(index),
                std::process::id(),
                LEASE_TMP_SEQ.fetch_add(1, Ordering::Relaxed),
            ));
            std::fs::write(&tmp, &doc)
                .map_err(|e| CampaignError::Fanout(format!("write {}: {e}", tmp.display())))?;
            match std::fs::hard_link(&tmp, &path) {
                Ok(()) => {
                    let _ = std::fs::remove_file(&tmp);
                    return Ok(Some(ShardLease::won(path, timeout)));
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let _ = std::fs::remove_file(&tmp);
                    // Occupied.  Dead holder?  The mtime is the heartbeat
                    // clock: unreadable or future mtimes count as fresh
                    // (never break a lease on bad evidence).
                    let stale = std::fs::metadata(&path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|mtime| SystemTime::now().duration_since(mtime).ok())
                        .is_some_and(|age| age > timeout);
                    if stale && attempt == 0 {
                        let _ = std::fs::remove_file(&path);
                        continue;
                    }
                    return Ok(None);
                }
                Err(e) => {
                    let _ = std::fs::remove_file(&tmp);
                    return Err(CampaignError::Fanout(format!(
                        "claim {}: {e}",
                        path.display()
                    )));
                }
            }
        }
        Ok(None)
    }

    /// Wrap a freshly-won lease path and start its heartbeat.
    fn won(path: PathBuf, timeout: Duration) -> ShardLease {
        let interval = (timeout / 4).max(Duration::from_millis(10));
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let heartbeat = {
            let stop = Arc::clone(&stop);
            let path = path.clone();
            std::thread::spawn(move || {
                let (flag, wake) = &*stop;
                let mut stopped = flag.lock().unwrap_or_else(|e| e.into_inner());
                while !*stopped {
                    let (guard, _) = wake
                        .wait_timeout(stopped, interval)
                        .unwrap_or_else(|e| e.into_inner());
                    stopped = guard;
                    if *stopped {
                        return;
                    }
                    // Renew.  Best-effort: a vanished lease (stolen after a
                    // long stall) just stops being renewed — the shard may
                    // then run twice, which is benign (see module docs).
                    if let Ok(file) = std::fs::File::options().write(true).open(&path) {
                        let _ = file.set_modified(SystemTime::now());
                    }
                }
            })
        };
        ShardLease {
            path,
            heartbeat_stop: stop,
            heartbeat: Some(heartbeat),
        }
    }

    /// The lease file this claim holds.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Release the claim: stop the heartbeat and remove the lease file.
    /// (Equivalent to dropping the lease; provided for explicitness.)
    pub fn release(self) {}
}

impl Drop for ShardLease {
    fn drop(&mut self) {
        let (flag, wake) = &*self.heartbeat_stop;
        *flag.lock().unwrap_or_else(|e| e.into_inner()) = true;
        wake.notify_all();
        if let Some(handle) = self.heartbeat.take() {
            let _ = handle.join();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

/// What one [`FanoutWorker`] did over one [`FanoutWorker::run`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerOutcome {
    /// Shards this worker claimed, simulated and published, ascending.
    pub executed_shards: Vec<usize>,
    /// The subset of `executed_shards` that were not this worker's home
    /// shard — work stolen from stragglers or crashed peers, ascending.
    pub stolen_shards: Vec<usize>,
}

/// One worker process (or thread) of a shard fan-out fleet.
///
/// Every worker of a fleet is pointed at the same checkpoint directory and
/// the same spec; the first to arrive plans the partition and publishes the
/// `campaign.json` manifest (atomically — losers of the publish race adopt
/// the winner's plan, so the whole fleet executes **one** partition even
/// when their local cost observations differ).  Each worker then claims
/// shards through [`ShardLease`]s and executes them through the ordinary
/// streaming grid engine.
///
/// With a home shard set ([`FanoutWorker::home_shard`]) the worker claims
/// that shard first; with stealing enabled (the default) it then sweeps the
/// remaining unfinished shards — most expensive first, per the
/// [`CostModel`]'s recorded per-row costs — and claims any whose lease is
/// absent or stale.  A worker with stealing disabled executes exactly its
/// home shard: it waits (polling) while a peer's fresh lease covers that
/// shard, reclaims it if the lease goes stale, and returns once the shard's
/// report is on disk, whoever wrote it.
pub struct FanoutWorker {
    shard_count: usize,
    home_shard: Option<usize>,
    checkpoint: PathBuf,
    worker_id: String,
    lease_timeout: Duration,
    poll_interval: Duration,
    steal: bool,
    cache: Option<Arc<CellCache>>,
    progress: Option<ProgressHook>,
}

impl std::fmt::Debug for FanoutWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FanoutWorker")
            .field("shard_count", &self.shard_count)
            .field("home_shard", &self.home_shard)
            .field("checkpoint", &self.checkpoint)
            .field("worker_id", &self.worker_id)
            .field("lease_timeout", &self.lease_timeout)
            .field("steal", &self.steal)
            .finish()
    }
}

impl FanoutWorker {
    /// A worker of an `shard_count`-way fan-out over `checkpoint`, with
    /// stealing enabled, a 30-second staleness timeout and a process-unique
    /// worker id.
    pub fn new(shard_count: usize, checkpoint: impl Into<PathBuf>) -> FanoutWorker {
        FanoutWorker {
            shard_count,
            home_shard: None,
            checkpoint: checkpoint.into(),
            worker_id: format!(
                "pid{}-{}",
                std::process::id(),
                LEASE_TMP_SEQ.fetch_add(1, Ordering::Relaxed)
            ),
            lease_timeout: Duration::from_secs(30),
            poll_interval: Duration::from_millis(200),
            steal: true,
            cache: None,
            progress: None,
        }
    }

    /// The shard this worker claims first (and, stealing disabled, the only
    /// shard it executes).
    pub fn home_shard(mut self, index: usize) -> FanoutWorker {
        self.home_shard = Some(index);
        self
    }

    /// Name this worker in lease files (diagnostics only; uniqueness is not
    /// required for correctness).
    pub fn worker_id(mut self, id: impl Into<String>) -> FanoutWorker {
        self.worker_id = id.into();
        self
    }

    /// How long a lease's mtime may sit unrenewed before any worker may
    /// break it.  Heartbeats renew at a quarter of this, so the timeout
    /// must comfortably exceed scheduling jitter — not shard runtime.
    pub fn lease_timeout(mut self, timeout: Duration) -> FanoutWorker {
        self.lease_timeout = timeout;
        self
    }

    /// How often an idle worker rescans the directory for newly-stale
    /// leases or newly-complete shards.
    pub fn poll_interval(mut self, interval: Duration) -> FanoutWorker {
        self.poll_interval = interval;
        self
    }

    /// Enable or disable work-stealing (default: enabled).
    pub fn steal(mut self, steal: bool) -> FanoutWorker {
        self.steal = steal;
        self
    }

    /// Memoize simulated cells through a [`CellCache`]; its recorded
    /// timings also steer the partition plan (first arrival only) and the
    /// steal order.
    pub fn with_cache(mut self, cache: Arc<CellCache>) -> FanoutWorker {
        self.cache = Some(cache);
        self
    }

    /// Attach a progress hook; it observes shard-local cell counts.
    pub fn with_progress(
        mut self,
        hook: impl Fn(&crate::campaign::CampaignProgress) + Send + Sync + 'static,
    ) -> FanoutWorker {
        self.progress = Some(Arc::new(hook));
        self
    }

    /// Execute this worker's share of the fan-out: reconcile the manifest,
    /// then claim-and-run shards until this worker's work is done (its home
    /// shard complete, or — stealing — every shard complete).
    pub fn run(&self, spec: &CampaignSpec) -> Result<WorkerOutcome, CampaignError> {
        if self.shard_count == 0 {
            return Err(CampaignError::ZeroShardCount);
        }
        if let Some(home) = self.home_shard {
            if home >= self.shard_count {
                return Err(CampaignError::ShardIndexOutOfRange {
                    index: home,
                    count: self.shard_count,
                });
            }
        }
        spec.validate()?;
        std::fs::create_dir_all(&self.checkpoint).map_err(|e| {
            CampaignError::Fanout(format!("create {}: {e}", self.checkpoint.display()))
        })?;
        let model = match self.cache.as_deref() {
            Some(cache) => CostModel::observed(cache),
            None => CostModel::uniform(),
        };
        let plan = self.reconcile_manifest(spec, &model)?;
        let shards = CampaignShard::from_plan(spec, plan);

        // Steal order: home shard first, then the remaining shards by
        // descending estimated load (break the biggest straggler first),
        // ties by index.
        let loads = shards[0].shard_plan().shard_loads(&model.row_costs(spec));
        let mut order: Vec<usize> = (0..self.shard_count).collect();
        order.sort_by_key(|&k| (Some(k) != self.home_shard, std::cmp::Reverse(loads[k]), k));

        let mut outcome = WorkerOutcome::default();
        loop {
            let mut pending: Vec<usize> = order
                .iter()
                .copied()
                .filter(|&k| load_shard_checkpoint(&self.checkpoint, &shards[k]).is_none())
                .collect();
            if !self.steal {
                pending.retain(|&k| Some(k) == self.home_shard);
            }
            if pending.is_empty() {
                break;
            }
            let mut progressed = false;
            for &k in &pending {
                let Some(lease) = ShardLease::try_claim(
                    &self.checkpoint,
                    k,
                    &self.worker_id,
                    self.lease_timeout,
                )?
                else {
                    continue; // fresh lease held by a live peer
                };
                // Re-check under the lease: the previous holder may have
                // published between our scan and the claim.
                if load_shard_checkpoint(&self.checkpoint, &shards[k]).is_none() {
                    let report =
                        shards[k].run_with(self.progress.as_ref(), self.cache.as_deref())?;
                    write_checkpoint_file(
                        &self.checkpoint.join(shard_file_name(k)),
                        &report.to_json(),
                    )?;
                    outcome.executed_shards.push(k);
                    if Some(k) != self.home_shard {
                        outcome.stolen_shards.push(k);
                    }
                }
                lease.release();
                progressed = true;
            }
            if !progressed {
                // Everything unfinished is freshly leased by live peers:
                // wait for reports to land or leases to go stale.
                std::thread::sleep(self.poll_interval);
            }
        }
        outcome.executed_shards.sort_unstable();
        outcome.stolen_shards.sort_unstable();
        Ok(outcome)
    }

    /// Adopt the directory's manifest, or plan the partition and publish
    /// one.  Publication is atomic (tmp + `hard_link`): however many
    /// workers arrive at an empty directory simultaneously, exactly one
    /// manifest wins and every other worker adopts its plan — the fleet
    /// never splits across two partitions.
    fn reconcile_manifest(
        &self,
        spec: &CampaignSpec,
        model: &CostModel<'_>,
    ) -> Result<crate::shard::ShardPlan, CampaignError> {
        let path = self.checkpoint.join(MANIFEST_FILE);
        for _ in 0..8 {
            if let Some(plan) = adopt_manifest(
                &self.checkpoint,
                spec,
                self.shard_count,
                CampaignError::Fanout,
            )? {
                return Ok(plan);
            }
            let plan = crate::shard::ShardPlan::for_spec(spec, self.shard_count, model)?;
            let manifest = CheckpointManifest {
                schema_version: shard_wire_version(spec, &plan),
                shard_count: self.shard_count,
                spec: spec.clone(),
                plan,
            };
            let tmp = self.checkpoint.join(format!(
                "{MANIFEST_FILE}.tmp.{}.{}",
                std::process::id(),
                LEASE_TMP_SEQ.fetch_add(1, Ordering::Relaxed),
            ));
            std::fs::write(&tmp, serde::json::to_string_pretty(&manifest))
                .map_err(|e| CampaignError::Fanout(format!("write {}: {e}", tmp.display())))?;
            match std::fs::hard_link(&tmp, &path) {
                Ok(()) => {
                    let _ = std::fs::remove_file(&tmp);
                    return Ok(manifest.plan);
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    // Lost the publish race; adopt the winner's manifest on
                    // the next pass.
                    let _ = std::fs::remove_file(&tmp);
                }
                Err(e) => {
                    let _ = std::fs::remove_file(&tmp);
                    return Err(CampaignError::Fanout(format!(
                        "publish manifest {}: {e}",
                        path.display()
                    )));
                }
            }
        }
        Err(CampaignError::Fanout(format!(
            "manifest {} kept appearing and vanishing; giving up",
            path.display()
        )))
    }
}

/// How long [`MergeCoordinator::run`] is willing to watch the directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeWait {
    /// Merge what is on disk right now; missing shards are an error.
    NoWait,
    /// Poll until every shard file lands (workers may still be running, or
    /// not even started).
    Forever,
    /// Poll, but give up after this long.
    Timeout(Duration),
}

/// What a merge produced: the byte-identical report plus provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeOutcome {
    /// The merged report — byte-identical (as JSON) to the single-process
    /// [`CampaignRunner::run`](crate::campaign::CampaignRunner::run) on the
    /// manifest's spec.
    pub report: CampaignReport,
    /// Shards merged (the manifest's shard count).
    pub shard_count: usize,
}

/// The merge side of the fan-out: watch a checkpoint directory until its
/// shard set completes, validate it, and reassemble the single-process
/// report.
///
/// The coordinator trusts nothing it reads: the manifest must decode and
/// carry a structurally-valid plan; each shard file must decode, match the
/// manifest's spec **and plan** (a decodable shard cut along a different
/// partition — a mixed-plan directory — is refused immediately with
/// [`CampaignError::ShardSetMismatch`], even in waiting mode, because no
/// amount of waiting repairs it), and pass the same payload self-checks as
/// [`CampaignReport::merge`].  Corrupt or missing shard files, by contrast,
/// are *waitable*: a live fleet overwrites them via stale-lease reclaim.
#[derive(Debug, Clone)]
pub struct MergeCoordinator {
    checkpoint: PathBuf,
    wait: MergeWait,
    poll_interval: Duration,
}

impl MergeCoordinator {
    /// A non-waiting coordinator over `checkpoint`.
    pub fn new(checkpoint: impl Into<PathBuf>) -> MergeCoordinator {
        MergeCoordinator {
            checkpoint: checkpoint.into(),
            wait: MergeWait::NoWait,
            poll_interval: Duration::from_millis(200),
        }
    }

    /// Set the watch policy.
    pub fn wait(mut self, wait: MergeWait) -> MergeCoordinator {
        self.wait = wait;
        self
    }

    /// How often the watching coordinator rescans the directory.
    pub fn poll_interval(mut self, interval: Duration) -> MergeCoordinator {
        self.poll_interval = interval;
        self
    }

    /// Watch (per the wait policy), validate and merge.
    pub fn run(&self) -> Result<MergeOutcome, CampaignError> {
        let manifest_path = self.checkpoint.join(MANIFEST_FILE);
        let text = std::fs::read_to_string(&manifest_path).map_err(|e| {
            CampaignError::Fanout(format!(
                "no readable manifest at {}: {e}; workers write it when they start",
                manifest_path.display()
            ))
        })?;
        let manifest = CheckpointManifest::from_json(&text).map_err(|e| {
            CampaignError::Fanout(format!(
                "unreadable manifest {}: {e}; delete the directory to start over",
                manifest_path.display()
            ))
        })?;
        manifest
            .plan
            .validate(manifest.spec.traces.len())
            .map_err(|reason| {
                CampaignError::Fanout(format!(
                    "manifest {} carries an invalid partition plan ({reason})",
                    manifest_path.display()
                ))
            })?;
        if manifest.plan.shard_count() != manifest.shard_count {
            return Err(CampaignError::Fanout(format!(
                "manifest {} plan covers {} shards but claims {}",
                manifest_path.display(),
                manifest.plan.shard_count(),
                manifest.shard_count
            )));
        }
        let deadline = match self.wait {
            MergeWait::Timeout(limit) => Some(Instant::now() + limit),
            _ => None,
        };
        loop {
            let mut reports = Vec::with_capacity(manifest.shard_count);
            let mut missing = Vec::new();
            for index in 0..manifest.shard_count {
                match self.load_shard(index, &manifest)? {
                    Some(report) => reports.push(report),
                    None => missing.push(index),
                }
            }
            if missing.is_empty() {
                let report = CampaignReport::merge(&reports)?;
                return Ok(MergeOutcome {
                    report,
                    shard_count: manifest.shard_count,
                });
            }
            match self.wait {
                MergeWait::NoWait => {
                    return Err(CampaignError::Fanout(format!(
                        "{} is missing shards {missing:?}; run workers for them or \
                         merge with waiting enabled",
                        self.checkpoint.display()
                    )))
                }
                MergeWait::Forever => {}
                MergeWait::Timeout(limit) => {
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        return Err(CampaignError::Fanout(format!(
                            "timed out after {limit:?} waiting for shards {missing:?} in {}",
                            self.checkpoint.display()
                        )));
                    }
                }
            }
            std::thread::sleep(self.poll_interval);
        }
    }

    /// Load shard `index` if its file is present and belongs to the
    /// manifest's partition.  Absent/corrupt files are `None` (waitable);
    /// a decodable file from a *different* partition is a hard refusal.
    fn load_shard(
        &self,
        index: usize,
        manifest: &CheckpointManifest,
    ) -> Result<Option<ShardReport>, CampaignError> {
        let path = self.checkpoint.join(shard_file_name(index));
        let Ok(text) = std::fs::read_to_string(&path) else {
            return Ok(None);
        };
        let Ok(report) = ShardReport::from_json(&text) else {
            return Ok(None); // corrupt: a worker will re-run and overwrite it
        };
        if report.spec != manifest.spec
            || report.plan != manifest.plan
            || report.shard_count != manifest.shard_count
            || report.shard_index != index
        {
            return Err(CampaignError::ShardSetMismatch(format!(
                "{} was cut along a different campaign or partition plan than \
                 the manifest; refusing to merge a mixed-plan directory",
                path.display()
            )));
        }
        if report.check().is_err() {
            return Ok(None); // malformed payload: waitable, like corrupt
        }
        Ok(Some(report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignBuilder;
    use crate::policy::PolicyKind;
    use hc_trace::SpecBenchmark;

    fn tmp_dir(tag: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("hc_fanout_unit_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("mkdir");
        path
    }

    fn spec(n_traces: usize) -> CampaignSpec {
        let mut b = CampaignBuilder::new("fanout-unit").policy(PolicyKind::P888);
        for benchmark in SpecBenchmark::ALL.into_iter().take(n_traces) {
            b = b.spec(benchmark);
        }
        b.trace_len(600).build().unwrap()
    }

    #[test]
    fn claims_are_exclusive_until_released() {
        let dir = tmp_dir("exclusive");
        let timeout = Duration::from_secs(60);
        let first = ShardLease::try_claim(&dir, 0, "a", timeout)
            .expect("claim")
            .expect("empty directory: first claim wins");
        assert!(
            ShardLease::try_claim(&dir, 0, "b", timeout)
                .expect("claim")
                .is_none(),
            "fresh lease must block a second claimant"
        );
        // A different shard's lease is independent.
        assert!(ShardLease::try_claim(&dir, 1, "b", timeout)
            .expect("claim")
            .is_some());
        first.release();
        assert!(
            ShardLease::try_claim(&dir, 0, "b", timeout)
                .expect("claim")
                .is_some(),
            "released lease must be claimable again"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_leases_are_broken_and_reclaimed() {
        let dir = tmp_dir("stale");
        let path = dir.join(lease_file_name(3));
        std::fs::write(&path, "{\"worker\": \"dead\"}").expect("seed lease");
        let old = SystemTime::now() - Duration::from_secs(120);
        std::fs::File::options()
            .write(true)
            .open(&path)
            .expect("open lease")
            .set_modified(old)
            .expect("backdate");
        // Under a generous timeout the lease is fresh enough: blocked.
        assert!(
            ShardLease::try_claim(&dir, 3, "b", Duration::from_secs(600))
                .expect("claim")
                .is_none()
        );
        // Under a 1-second timeout it is long dead: broken and reclaimed.
        let lease = ShardLease::try_claim(&dir, 3, "b", Duration::from_secs(1))
            .expect("claim")
            .expect("stale lease must be reclaimed");
        assert!(lease.path().exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn heartbeats_keep_a_leases_mtime_fresh() {
        let dir = tmp_dir("heartbeat");
        // 80 ms timeout → 20 ms heartbeat interval.
        let timeout = Duration::from_millis(80);
        let lease = ShardLease::try_claim(&dir, 0, "a", timeout)
            .expect("claim")
            .expect("wins");
        // Sleep well past the staleness timeout; the heartbeat must have
        // renewed the mtime, so a rival still cannot break the lease.
        std::thread::sleep(Duration::from_millis(240));
        assert!(
            ShardLease::try_claim(&dir, 0, "b", timeout)
                .expect("claim")
                .is_none(),
            "heartbeat-renewed lease must stay unbreakable"
        );
        lease.release();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_validates_its_own_configuration() {
        let dir = tmp_dir("validate");
        assert_eq!(
            FanoutWorker::new(0, &dir).run(&spec(2)).unwrap_err(),
            CampaignError::ZeroShardCount
        );
        assert_eq!(
            FanoutWorker::new(2, &dir)
                .home_shard(2)
                .run(&spec(2))
                .unwrap_err(),
            CampaignError::ShardIndexOutOfRange { index: 2, count: 2 }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_refuses_a_foreign_manifest() {
        let dir = tmp_dir("foreign");
        // A 2-shard fleet ran here; a 3-shard worker may not join it.
        FanoutWorker::new(2, &dir).run(&spec(2)).expect("seed run");
        let err = FanoutWorker::new(3, &dir).run(&spec(2)).unwrap_err();
        assert!(matches!(err, CampaignError::Fanout(_)), "{err}");
        assert!(err
            .to_string()
            .contains("different campaign or shard count"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_requires_a_manifest() {
        let dir = tmp_dir("no_manifest");
        let err = MergeCoordinator::new(&dir).run().unwrap_err();
        assert!(matches!(err, CampaignError::Fanout(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_worker_fanout_matches_the_sharded_runner() {
        let dir = tmp_dir("solo");
        let spec = spec(3);
        let outcome = FanoutWorker::new(2, &dir).run(&spec).expect("worker run");
        assert_eq!(outcome.executed_shards, vec![0, 1]);
        let merged = MergeCoordinator::new(&dir).run().expect("merge");
        let direct = crate::shard::ShardedCampaignRunner::new(2)
            .run(&spec)
            .expect("in-process sharded run");
        assert_eq!(merged.report.to_json(), direct.report.to_json());
        assert_eq!(merged.shard_count, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
