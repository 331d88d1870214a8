//! The [`CellCache`] handle: open/scan, lookups, appends, singleflight and
//! stats.

use super::index::{CacheIndex, IndexEntry};
use super::{
    lock, now_millis, replace, segment, CacheStats, CachedCell, CellKey, CACHE_LAYOUT_VERSION,
    CACHE_SCHEMA_VERSION, INDEX_FILE, MANIFEST_FILE, SEGMENTS_DIR,
};
use crate::campaign::CampaignError;
use hc_sim::SimStats;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant, SystemTime};

/// How long a segment file must sit unmodified before another handle may
/// truncate its torn tail or compact it away.  A fresh tail may be a live
/// writer mid-append; after the grace it is debris from a dead process.
pub(super) const RECLAIM_GRACE: Duration = Duration::from_secs(5);

/// Resolution of the last-use clock, in milliseconds.  A hit moves an
/// entry's stamp only when the recorded use is at least this far from now,
/// so a replay that follows another within the resolution leaves the index
/// unchanged and the handle writes no `index.json` when it drops.
pub(super) const STAMP_RESOLUTION_MILLIS: u64 = 60_000;

/// One in-flight simulation that concurrent callers of the same key can
/// join instead of repeating.
#[derive(Debug)]
struct Flight {
    /// The canonical key bytes of the in-flight simulation; joiners compare
    /// them so two distinct keys colliding on a digest degrade to
    /// independent simulations, never to one caller receiving the other's
    /// result.
    canonical: Arc<str>,
    slot: Mutex<FlightOutcome>,
    ready: Condvar,
}

#[derive(Debug)]
enum FlightOutcome {
    /// The leader is still simulating.
    Pending,
    /// The leader published its result (boxed: the enum lives in a
    /// shared slot and `SimStats` is large).
    Done(Box<SimStats>),
    /// The leader unwound without publishing (its simulation panicked);
    /// joiners must simulate for themselves.
    Abandoned,
}

/// How a caller of [`CellCache::claim`] obtains one cell: already cached,
/// elected leader (must simulate and [`CellLead::publish`]), or joining
/// another caller's in-flight simulation.
///
/// The simulation stays with the caller, so a caller whose simulation can
/// fail (a streamed trace row) drops its lead instead of publishing.
pub enum CellClaim<'a> {
    /// The cell was cached (or already published by a concurrent leader);
    /// no simulation is needed.
    Hit(Box<SimStats>),
    /// This caller leads the key's singleflight: it must simulate the cell
    /// and hand the result to [`CellLead::publish`].  Dropping the lead
    /// without publishing (a panicking simulation) abandons the flight so
    /// joiners simulate for themselves.
    Lead(CellLead<'a>),
    /// Another caller is simulating the key right now; [`CellJoin::wait`]
    /// blocks for its result.
    Join(CellJoin<'a>),
}

/// The leader's registration in the singleflight table, keyed to one cell.
/// Dropping it — on the normal path *or* during an unwind — removes the
/// table entry and wakes every joiner; if the leader never published, the
/// outcome is marked `FlightOutcome::Abandoned` so joiners fall back to
/// simulating.  A lead with no flight is a collision **bypass**: the digest
/// is occupied by a *different* key, so the caller simulates and inserts
/// without touching the table.
pub struct CellLead<'a> {
    cache: &'a CellCache,
    key: CellKey,
    flight: Option<Arc<Flight>>,
    started: Instant,
}

impl CellLead<'_> {
    /// Publish the simulated result: insert the cache entry (recording the
    /// wall-clock since this lead was claimed, the cost-model observation),
    /// mark the flight done and wake every joiner.  Returns the stats for
    /// convenience.
    pub fn publish(self, stats: SimStats) -> SimStats {
        self.cache.dedupe_leads.fetch_add(1, Ordering::Relaxed);
        let elapsed = u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.cache.insert(&self.key, &stats, elapsed);
        if let Some(flight) = &self.flight {
            *lock(&flight.slot) = FlightOutcome::Done(Box::new(stats.clone()));
        }
        // Drop deregisters the flight and wakes joiners; the outcome is
        // already `Done`, so nobody sees `Abandoned`.
        stats
    }
}

impl Drop for CellLead<'_> {
    fn drop(&mut self) {
        let Some(flight) = &self.flight else { return };
        lock(&self.cache.flights).remove(&self.key.digest);
        {
            let mut slot = lock(&flight.slot);
            if matches!(*slot, FlightOutcome::Pending) {
                *slot = FlightOutcome::Abandoned;
            }
        }
        flight.ready.notify_all();
    }
}

/// A joiner's handle on another caller's in-flight simulation of one cell.
pub struct CellJoin<'a> {
    cache: &'a CellCache,
    key: CellKey,
    flight: Arc<Flight>,
}

impl<'a> CellJoin<'a> {
    /// Block until the leader publishes and return a clone of its result.
    /// If the leader abandoned the flight (its simulation panicked), the
    /// joiner is handed a fresh [`CellLead`] and must simulate for itself.
    pub fn wait(self) -> Result<SimStats, CellLead<'a>> {
        let mut slot = lock(&self.flight.slot);
        loop {
            match &*slot {
                FlightOutcome::Pending => {
                    slot = self
                        .flight
                        .ready
                        .wait(slot)
                        .unwrap_or_else(|e| e.into_inner());
                }
                FlightOutcome::Done(stats) => {
                    self.cache.dedupe_joins.fetch_add(1, Ordering::Relaxed);
                    return Ok((**stats).clone());
                }
                FlightOutcome::Abandoned => break,
            }
        }
        drop(slot);
        // The abandoned-flight fallback simulates outside the table, like
        // the collision bypass: re-registering would serialize the joiners
        // behind each other for no benefit.
        Err(CellLead {
            cache: self.cache,
            key: self.key,
            flight: None,
            started: Instant::now(),
        })
    }
}

/// A content-addressed, on-disk cell cache rooted at one directory.
///
/// Open one with [`CellCache::open`]; share it across runners with an
/// `Arc`.  All operations are safe under concurrent use from multiple
/// worker threads (and cooperating processes): records are immutable once
/// appended, every segment has exactly one writer, and damage of any kind
/// degrades to re-simulation, never to wrong data.
#[derive(Debug)]
pub struct CellCache {
    pub(super) root: PathBuf,
    /// In-memory memo of entries this handle has already decoded from
    /// disk: records are immutable once written, so repeated lookups of one
    /// cell (a replay loop inside one process, a daemon's repeat traffic)
    /// share one disk read + JSON parse.  Keyed by digest but verified
    /// against the stored canonical key bytes on every probe, exactly like
    /// the on-disk path, so digest collisions still degrade to misses.
    pub(super) memo: Mutex<HashMap<u128, (Arc<str>, CachedCell)>>,
    /// The keyed singleflight table behind [`CellCache::claim`]: one
    /// `Flight` per key currently being simulated by some caller.
    /// Lock ordering: before `index` and `memo` (a claim re-reads the entry
    /// under it); never taken while holding either.
    flights: Mutex<HashMap<u128, Arc<Flight>>>,
    /// The record index.  Lock ordering: `writer` before `index` before
    /// `memo`; never the reverse.
    pub(super) index: Mutex<CacheIndex>,
    /// This handle's active segment writer (created lazily on first insert).
    pub(super) writer: Mutex<Option<segment::SegmentWriter>>,
    /// Read descriptors of the segments lookups have read, by segment id: a
    /// hit is one positioned read through one of them.  A segment's
    /// descriptor is dropped when `sync_index` forgets or rescans that
    /// segment and when GC deletes it, so a long-lived handle pins a file
    /// another process deleted only until its next sync (`stats`, `gc`).
    /// Never held while taking another lock.
    files: Mutex<HashMap<u64, Arc<File>>>,
    /// Whether the in-memory index has diverged from the last persisted
    /// snapshot.
    pub(super) dirty: AtomicBool,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    pub(super) evictions: AtomicU64,
    dedupe_leads: AtomicU64,
    dedupe_joins: AtomicU64,
}

/// The manifest marking a directory as a cell cache of specific key/entry
/// semantics, simulator behaviour, and file layout.  `layout_version` is
/// optional so a manifest written before the packed store (layout 1, which
/// had no such field) still decodes — and is then refused by name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CacheManifest {
    schema_version: u32,
    sim_behavior_version: u32,
    layout_version: Option<u32>,
}

impl CacheManifest {
    fn current() -> CacheManifest {
        CacheManifest {
            schema_version: CACHE_SCHEMA_VERSION,
            sim_behavior_version: hc_sim::SIM_BEHAVIOR_VERSION,
            layout_version: Some(CACHE_LAYOUT_VERSION),
        }
    }
}

impl CellCache {
    /// Open (or initialise) a cell cache rooted at `dir`.
    ///
    /// * A missing or empty directory is initialised: the directory tree is
    ///   created and a manifest written.
    /// * A directory with a matching manifest is reused.
    /// * Anything else is **refused** with [`CampaignError::Cache`], before
    ///   anything is written into the directory: a manifest from a
    ///   different key schema or simulator behaviour version (stale entries
    ///   must not be replayed), any file layout but the packed segment
    ///   store (including the retired one-JSON-file-per-cell layout 1), an
    ///   unreadable manifest, or a non-empty directory with no manifest at
    ///   all (the path probably names something that is not a cache;
    ///   silently scattering cache files into it would be destructive).
    ///
    /// Opening loads the record index: from the `index.json` snapshot when
    /// fresh, delta-scanning or fully scanning segments as needed (see
    /// `cache/index.rs`).  Torn tail records left by a killed writer are
    /// detected here and truncated away once their segment has been quiet
    /// longer than the reclaim grace.
    pub fn open(dir: impl Into<PathBuf>) -> Result<CellCache, CampaignError> {
        let root = dir.into();
        let manifest_path = root.join(MANIFEST_FILE);
        let initialise = match std::fs::read_to_string(&manifest_path) {
            Ok(text) => {
                let found: CacheManifest = serde::json::from_str(&text).map_err(|e| {
                    CampaignError::Cache(format!(
                        "unreadable cache manifest {}: {e}; delete the directory to start over",
                        manifest_path.display()
                    ))
                })?;
                if found.schema_version != CACHE_SCHEMA_VERSION
                    || found.sim_behavior_version != hc_sim::SIM_BEHAVIOR_VERSION
                {
                    return Err(CampaignError::Cache(format!(
                        "{} was written by cache schema v{} / simulator behaviour v{} \
                         (this build is v{} / v{}); refusing to mix entries — delete the \
                         directory to rebuild it",
                        root.display(),
                        found.schema_version,
                        found.sim_behavior_version,
                        CACHE_SCHEMA_VERSION,
                        hc_sim::SIM_BEHAVIOR_VERSION,
                    )));
                }
                // A manifest without the field predates the packed store:
                // layout 1, one JSON file per cell.
                let layout = found.layout_version.unwrap_or(1);
                if layout != CACHE_LAYOUT_VERSION {
                    return Err(CampaignError::Cache(format!(
                        "{} uses cache file layout v{layout}; this build reads only layout \
                         v{CACHE_LAYOUT_VERSION} — delete the directory to rebuild it",
                        root.display(),
                    )));
                }
                false
            }
            Err(_) => {
                // No manifest.  Refuse a directory that already holds
                // anything but an empty segment directory — it is not ours
                // to colonise.
                let occupied = match std::fs::read_dir(&root) {
                    Ok(entries) => entries.filter_map(|e| e.ok()).any(|e| {
                        e.file_name() != SEGMENTS_DIR
                            || std::fs::read_dir(e.path()).map_or(true, |mut d| d.next().is_some())
                    }),
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => false,
                    Err(e) => {
                        return Err(CampaignError::Cache(format!(
                            "read {}: {e}",
                            root.display()
                        )))
                    }
                };
                if occupied {
                    return Err(CampaignError::Cache(format!(
                        "{} is not a cell cache (no {MANIFEST_FILE} manifest) and is not \
                         empty; refusing to write into it",
                        root.display()
                    )));
                }
                true
            }
        };
        std::fs::create_dir_all(root.join(SEGMENTS_DIR))
            .map_err(|e| CampaignError::Cache(format!("create {}: {e}", root.display())))?;
        if initialise {
            replace(
                &manifest_path,
                &serde::json::to_string_pretty(&CacheManifest::current()),
                CampaignError::Cache,
            )?;
        }
        let cache = CellCache {
            root,
            memo: Mutex::new(HashMap::new()),
            flights: Mutex::new(HashMap::new()),
            index: Mutex::new(CacheIndex::default()),
            writer: Mutex::new(None),
            files: Mutex::new(HashMap::new()),
            dirty: AtomicBool::new(false),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            dedupe_leads: AtomicU64::new(0),
            dedupe_joins: AtomicU64::new(0),
        };
        if let Ok(text) = std::fs::read_to_string(cache.root.join(INDEX_FILE)) {
            if let Some(snapshot) = CacheIndex::decode(&text) {
                *lock(&cache.index) = snapshot;
            }
        }
        cache.sync_index(true);
        Ok(cache)
    }

    /// The cache's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    pub(super) fn segments_dir(&self) -> PathBuf {
        self.root.join(SEGMENTS_DIR)
    }

    /// This handle's in-memory memo (poison-proof: a panicking reader
    /// cannot take the cache down with it).
    pub(super) fn memo(&self) -> MutexGuard<'_, HashMap<u128, (Arc<str>, CachedCell)>> {
        lock(&self.memo)
    }

    /// A read descriptor of segment `id`, and whether it was already open
    /// (`false`: opened just now).  `None` if the file cannot be opened.
    fn segment_file(&self, id: u64) -> Option<(Arc<File>, bool)> {
        if let Some(file) = lock(&self.files).get(&id) {
            return Some((Arc::clone(file), true));
        }
        let file = Arc::new(File::open(segment::segment_path(&self.segments_dir(), id)).ok()?);
        lock(&self.files).insert(id, Arc::clone(&file));
        Some((file, false))
    }

    /// Close this handle's read descriptor of segment `id`, if open.
    pub(super) fn forget_segment_file(&self, id: u64) {
        lock(&self.files).remove(&id);
    }

    /// Reconcile the in-memory index with the segment directory: pick up
    /// segments appended or created by other handles since the last look
    /// (delta scans), drop entries whose segments vanished (another
    /// handle's compaction), and — only with `truncate_stale_tails`, i.e.
    /// at open — cut torn tails off segments that have been quiet past the
    /// reclaim grace.  Cost is one `read_dir` plus one `stat` per segment
    /// when nothing changed, never per-entry work.
    pub(crate) fn sync_index(&self, truncate_stale_tails: bool) {
        let segments_dir = self.segments_dir();
        let mut on_disk: Vec<(u64, u64, SystemTime)> = Vec::new();
        if let Ok(dir) = std::fs::read_dir(&segments_dir) {
            for entry in dir.filter_map(|e| e.ok()) {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                let Some(id) = segment::parse_segment_id(name) else {
                    continue;
                };
                let Ok(meta) = entry.metadata() else { continue };
                let mtime = meta.modified().unwrap_or_else(|_| SystemTime::now());
                on_disk.push((id, meta.len(), mtime));
            }
        }
        on_disk.sort_by_key(|(id, _, _)| *id);
        let mut index = lock(&self.index);
        // Drop entries whose segments no longer exist.
        let present: std::collections::HashSet<u64> =
            on_disk.iter().map(|(id, _, _)| *id).collect();
        let orphaned: Vec<u64> = index
            .segments
            .keys()
            .filter(|id| !present.contains(id))
            .copied()
            .collect();
        if !orphaned.is_empty() {
            let digests: Vec<u128> = index
                .entries
                .iter()
                .filter(|(_, e)| orphaned.contains(&e.segment))
                .map(|(d, _)| *d)
                .collect();
            for digest in digests {
                index.remove(digest);
            }
            for id in orphaned {
                index.segments.remove(&id);
                self.forget_segment_file(id);
            }
            self.dirty.store(true, Ordering::Relaxed);
        }
        for (id, file_len, mtime) in on_disk {
            let known = index.segments.get(&id).map(|s| s.scanned_len);
            let start = match known {
                Some(scanned) if scanned == file_len => continue,
                Some(scanned) if scanned < file_len => scanned,
                Some(_) => {
                    // The file shrank under us: it was truncated or swapped
                    // by another handle.  Forget everything and rescan.
                    let digests: Vec<u128> = index
                        .entries
                        .iter()
                        .filter(|(_, e)| e.segment == id)
                        .map(|(d, _)| *d)
                        .collect();
                    for digest in digests {
                        index.remove(digest);
                    }
                    index.segments.remove(&id);
                    segment::SEG_HEADER_LEN
                }
                None => segment::SEG_HEADER_LEN,
            };
            let path = segment::segment_path(&segments_dir, id);
            let Ok(mut outcome) = segment::scan_segment(&path, start) else {
                continue;
            };
            // A horizon no scan has confirmed came from the snapshot and may
            // sit inside a record: judge damage seen from it from the header.
            let confirmed = index.segments.get(&id).is_some_and(|s| s.scanned);
            if !outcome.from_header && !confirmed && (outcome.torn_tail || outcome.corrupt > 0) {
                match segment::scan_segment(&path, segment::SEG_HEADER_LEN) {
                    Ok(full) => outcome = full,
                    Err(_) => continue,
                }
            }
            if outcome.from_header {
                self.forget_segment_file(id);
            }
            let mut found = false;
            for record in &outcome.records {
                // A rescan from the header re-finds the records the index
                // already points at; they keep their entries and stamps.
                if index
                    .entries
                    .get(&record.digest)
                    .is_some_and(|e| e.segment == id && e.offset == record.offset)
                {
                    continue;
                }
                found = true;
                index.insert(
                    record.digest,
                    IndexEntry {
                        segment: id,
                        offset: record.offset,
                        len: record.len,
                        stamp_millis: record.stamp_millis,
                        cost_nanos: record.cost_nanos,
                    },
                );
            }
            index.note_segment(id, outcome.valid_len);
            self.evictions.fetch_add(outcome.corrupt, Ordering::Relaxed);
            if found
                || outcome.corrupt > 0
                || index.segments.get(&id).map(|s| s.scanned_len) != known
            {
                self.dirty.store(true, Ordering::Relaxed);
            }
            if outcome.torn_tail
                && truncate_stale_tails
                && outcome.valid_len < file_len
                && mtime
                    .elapsed()
                    .map(|age| age > RECLAIM_GRACE)
                    .unwrap_or(false)
            {
                // Debris from a killed writer: cut the tail so the partial
                // record never shadows a later append boundary.
                if let Ok(file) = std::fs::File::options().write(true).open(&path) {
                    let _ = file.set_len(outcome.valid_len);
                }
            }
        }
    }

    /// Read and verify the entry a key addresses, without touching the
    /// hit/miss counters.  Corrupt, version-skewed or colliding records are
    /// evicted and reported as absent.  `bump` records a use (the LRU
    /// clock) on success.
    fn read_entry(&self, key: &CellKey, bump: bool) -> Option<CachedCell> {
        // Same stored-key comparison as the disk path; a memoized colliding
        // digest falls through to disk (and is evicted there).
        let memoized = self
            .memo()
            .get(&key.digest)
            .filter(|(canonical, _)| *canonical == key.canonical)
            .map(|(_, cell)| cell.clone());
        let cell = match memoized {
            Some(cell) => cell,
            None => {
                let entry = lock(&self.index).entries.get(&key.digest).copied()?;
                let decoded = match self.segment_file(entry.segment) {
                    Some((file, true)) => decode_record(&file, &entry, key).or_else(|| {
                        // The descriptor may name a file that another
                        // process has since replaced under this id: read
                        // once more through a fresh open before evicting.
                        self.forget_segment_file(entry.segment);
                        let (file, _) = self.segment_file(entry.segment)?;
                        decode_record(&file, &entry, key)
                    }),
                    Some((file, false)) => decode_record(&file, &entry, key),
                    None => None,
                };
                let Some(cell) = decoded else {
                    // Evict from the index: a later miss re-simulates and
                    // re-appends.  The dead bytes fall to compaction.
                    let removed = lock(&self.index).remove(key.digest).is_some();
                    self.memo().remove(&key.digest);
                    if removed {
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                        self.dirty.store(true, Ordering::Relaxed);
                    }
                    return None;
                };
                self.memo()
                    .insert(key.digest, (Arc::clone(&key.canonical), cell.clone()));
                cell
            }
        };
        if bump {
            self.bump_stamp(key);
        }
        Some(cell)
    }

    /// Record a use of `key`'s record: stamp the index entry with
    /// the current wall-clock, the LRU clock [`CellCache::gc`] runs on, to
    /// within [`STAMP_RESOLUTION_MILLIS`].  A stamp in the future (a skewed
    /// clock, a damaged snapshot) is as stale as an old one.
    fn bump_stamp(&self, key: &CellKey) {
        let now = now_millis();
        let mut index = lock(&self.index);
        if let Some(entry) = index.entries.get_mut(&key.digest) {
            if now.abs_diff(entry.stamp_millis) >= STAMP_RESOLUTION_MILLIS {
                entry.stamp_millis = now;
                self.dirty.store(true, Ordering::Relaxed);
            }
        }
    }

    /// Look up a cell, counting a hit or miss.  A hit also records the use
    /// (bumps the entry's last-use stamp for [`CellCache::gc`], to within a
    /// minute).
    pub fn lookup(&self, key: &CellKey) -> Option<CachedCell> {
        match self.read_entry(key, true) {
            Some(cell) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(cell)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// The recorded wall-clock cost of a cell, if indexed — the cost-model
    /// probe, answered from the index entry without reading the record.  A
    /// recorded cost of 0 means unknown and reads as `None`.  Does not count
    /// as a hit or miss, does not disturb the LRU clock and evicts nothing;
    /// a damaged record is found, and evicted, by the lookup that reads it.
    pub fn observed_nanos(&self, key: &CellKey) -> Option<u64> {
        lock(&self.index)
            .entries
            .get(&key.digest)
            .map(|entry| entry.cost_nanos)
            .filter(|&nanos| nanos > 0)
    }

    /// Insert (or overwrite) a cell entry by appending a record to this
    /// handle's active segment.  I/O errors are swallowed after best
    /// effort: the cache is an accelerator, never a correctness dependency,
    /// so a full disk degrades to slower re-runs.
    pub fn insert(&self, key: &CellKey, stats: &SimStats, elapsed_nanos: u64) {
        let payload = serde::json::to_string(&CachedCell {
            stats: stats.clone(),
            elapsed_nanos,
        });
        let stamp = now_millis();
        let record = segment::encode_record(
            key.digest,
            stamp,
            key.canonical.as_bytes(),
            payload.as_bytes(),
        );
        let mut writer = lock(&self.writer);
        if self
            .append_with_writer(&mut writer, key.digest, stamp, elapsed_nanos, &record)
            .is_some()
        {
            self.inserts.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Append one framed record to the active segment (rolling or creating
    /// it as needed) and index it, under the caller's writer lock (inserts
    /// and compaction rewrites).  Lock order stays writer → index.  `None`
    /// on I/O failure.
    pub(super) fn append_with_writer(
        &self,
        writer: &mut Option<segment::SegmentWriter>,
        digest: u128,
        stamp: u64,
        cost_nanos: u64,
        record: &[u8],
    ) -> Option<u64> {
        if writer.as_ref().map(|w| w.should_roll()).unwrap_or(true) {
            let next_id = {
                let index = lock(&self.index);
                index.segments.keys().max().map_or(0, |id| id + 1)
            };
            match segment::SegmentWriter::create(&self.segments_dir(), next_id) {
                Ok(fresh) => *writer = Some(fresh),
                Err(_) => return None,
            }
        }
        let active = writer.as_mut()?;
        let offset = active.append(record).ok()?;
        let entry = IndexEntry {
            segment: active.id,
            offset,
            len: record.len() as u64,
            stamp_millis: stamp,
            cost_nanos,
        };
        lock(&self.index).insert(digest, entry);
        self.dirty.store(true, Ordering::Relaxed);
        Some(offset)
    }

    /// Decide how `key`'s cell is obtained, without blocking: a cached cell
    /// is returned immediately, a novel key elects this caller **leader**
    /// (simulate, then [`CellLead::publish`]), and a key already being
    /// simulated hands back a [`CellJoin`] to wait on.  Each claim counts
    /// exactly one hit or one miss.
    pub fn claim(&self, key: &CellKey) -> CellClaim<'_> {
        if let Some(hit) = self.read_entry(key, true) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return CellClaim::Hit(Box::new(hit.stats));
        }
        // Unit tests widen the window between the probe above and the table
        // lock below, so a claim that skipped the re-read under the lock
        // would be caught leading a second simulation.
        #[cfg(test)]
        std::thread::sleep(Duration::from_micros(20));
        let mut flights = lock(&self.flights);
        // Look again under the table lock.  A lead inserts its entry before
        // it leaves the table, so a lead that published since the probe
        // above is visible here; without this a late claim would lead a
        // second simulation of a cell that is already cached.
        if let Some(hit) = self.read_entry(key, true) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return CellClaim::Hit(Box::new(hit.stats));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        match flights.get(&key.digest) {
            Some(flight) if flight.canonical == key.canonical => CellClaim::Join(CellJoin {
                cache: self,
                key: key.clone(),
                flight: Arc::clone(flight),
            }),
            // A different key is in flight under the same digest: a
            // forged/freak FNV collision.  Simulate independently, without
            // registering in (or publishing through) the table.
            Some(_) => CellClaim::Lead(CellLead {
                cache: self,
                key: key.clone(),
                flight: None,
                started: Instant::now(),
            }),
            None => {
                let flight = Arc::new(Flight {
                    canonical: Arc::clone(&key.canonical),
                    slot: Mutex::new(FlightOutcome::Pending),
                    ready: Condvar::new(),
                });
                flights.insert(key.digest, Arc::clone(&flight));
                CellClaim::Lead(CellLead {
                    cache: self,
                    key: key.clone(),
                    flight: Some(flight),
                    started: Instant::now(),
                })
            }
        }
    }

    /// Cumulative statistics: the hit/miss/insert/eviction counters, the
    /// in-flight dedupe counters, and the cache's current footprint.  Entry
    /// count and bytes come from the in-memory index (refreshed with one
    /// `stat` per segment, never a per-entry walk).
    pub fn stats(&self) -> CacheStats {
        self.sync_index(false);
        let (entries, bytes) = lock(&self.index).totals();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            dedupe_leads: self.dedupe_leads.load(Ordering::Relaxed),
            dedupe_joins: self.dedupe_joins.load(Ordering::Relaxed),
            entries,
            bytes,
        }
    }

    /// Persist the index snapshot if it has diverged from disk.
    pub(super) fn persist_index(&self) {
        if self.dirty.swap(false, Ordering::Relaxed) {
            let index = lock(&self.index);
            if index.persist(&self.root).is_err() {
                self.dirty.store(true, Ordering::Relaxed);
            }
        }
    }

    /// Pin an entry's last-use stamp (tests fabricate LRU histories
    /// with this instead of racing the filesystem clock).
    #[cfg(test)]
    pub(super) fn set_stamp(&self, key: &CellKey, stamp_millis: u64) {
        let mut index = lock(&self.index);
        if let Some(entry) = index.entries.get_mut(&key.digest) {
            entry.stamp_millis = stamp_millis;
            self.dirty.store(true, Ordering::Relaxed);
        }
    }

    /// An entry's last-use stamp, if indexed.
    #[cfg(test)]
    pub(super) fn stamp(&self, key: &CellKey) -> Option<u64> {
        lock(&self.index)
            .entries
            .get(&key.digest)
            .map(|e| e.stamp_millis)
    }

    /// Ids of the segments this handle holds a read descriptor of,
    /// ascending.
    #[cfg(test)]
    pub(super) fn open_segment_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = lock(&self.files).keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Paths of the on-disk segment files, ascending by id.
    #[cfg(test)]
    pub(super) fn segment_files(&self) -> Vec<PathBuf> {
        let mut ids: Vec<u64> = lock(&self.index).segments.keys().copied().collect();
        ids.sort_unstable();
        let dir = self.segments_dir();
        ids.iter()
            .map(|id| segment::segment_path(&dir, *id))
            .collect()
    }
}

/// Read `entry`'s record through `file` and decode it for `key`: `None`
/// unless the checksum holds, the record's digest is the probe's, and the
/// stored key bytes equal the probe's canonical bytes.
fn decode_record(file: &File, entry: &IndexEntry, key: &CellKey) -> Option<CachedCell> {
    let buf = segment::read_at(file, entry.offset, entry.len)?;
    let record = segment::verify_read(&buf)?;
    // A digest collision or a tampered record: the stored key must equal
    // the probe's, byte for byte.
    if record.digest != key.digest || record.key != key.canonical.as_bytes() {
        return None;
    }
    serde::json::from_str(std::str::from_utf8(record.payload).ok()?).ok()
}

impl Drop for CellCache {
    fn drop(&mut self) {
        // Seal the active segment before snapshotting so the snapshot's
        // scan horizons match the files.
        *lock(&self.writer) = None;
        self.persist_index();
    }
}
