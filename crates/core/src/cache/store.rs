//! The [`CellCache`] handle: open/scan, lookups, appends, singleflight,
//! stats, and legacy migration.

use super::index::{CacheIndex, IndexEntry};
use super::{
    fnv128, legacy, lock, now_millis, segment, write_atomic, CacheActivity, CacheStats, CachedCell,
    CellKey, CACHE_LAYOUT_VERSION, CACHE_SCHEMA_VERSION, CELLS_DIR, INDEX_FILE, MANIFEST_FILE,
    SEGMENTS_DIR,
};
use crate::campaign::CampaignError;
use hc_sim::SimStats;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant, SystemTime};

/// How long a segment file must sit unmodified before another handle may
/// truncate its torn tail or compact it away.  A fresh tail may be a live
/// writer mid-append; after the grace it is debris from a dead process.
pub(super) const RECLAIM_GRACE: Duration = Duration::from_secs(5);

/// One in-flight simulation that concurrent callers of the same key can
/// join instead of repeating.
#[derive(Debug)]
struct Flight {
    /// The full key document of the in-flight simulation; joiners verify it
    /// so two distinct keys colliding on a digest degrade to independent
    /// simulations, never to one caller receiving the other's result.
    document: serde::Value,
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
/// This is [`CellCache::get_or_compute`] with the simulation handed back to
/// the caller, so a caller whose simulation can fail (a streamed trace row)
/// drops its lead instead of publishing.
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
/// is occupied by a *different* key document, so the caller simulates and
/// inserts without touching the table.
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

/// What [`CellCache::pack`] did to a legacy cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PackOutcome {
    /// Legacy per-file entries migrated into packed segments.
    pub migrated: u64,
    /// Corrupt or version-skewed legacy files dropped instead of migrated.
    pub dropped: u64,
    /// Segments rewritten or deleted by the post-migration compaction.
    pub compacted_segments: u64,
    /// Bytes the compaction reclaimed.
    pub reclaimed_bytes: u64,
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
    /// disk: records are immutable once written, so a cost-model probe and
    /// the later execution-time lookup of the same cell share one disk
    /// read + JSON parse instead of two.  Keyed by digest but verified
    /// against the stored key document on every probe, exactly like the
    /// on-disk path, so digest collisions still degrade to misses.
    pub(super) memo: Mutex<HashMap<u128, (serde::Value, CachedCell)>>,
    /// The keyed singleflight table behind [`CellCache::get_or_compute`]:
    /// one `Flight` per key currently being simulated by some caller.
    /// Lock ordering: before `index` and `memo` (a claim re-reads the entry
    /// under it); never taken while holding either.
    flights: Mutex<HashMap<u128, Arc<Flight>>>,
    /// The record index.  Lock ordering: `writer` before `index` before
    /// `memo`; never the reverse.
    pub(super) index: Mutex<CacheIndex>,
    /// This handle's active segment writer (created lazily on first insert).
    pub(super) writer: Mutex<Option<segment::SegmentWriter>>,
    /// Whether the cache had legacy per-file entries at open; gates the
    /// per-miss fallback probe so packed-only caches never pay it.
    pub(super) has_legacy: AtomicBool,
    /// Whether the in-memory index has diverged from the last persisted
    /// snapshot.
    pub(super) dirty: AtomicBool,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    pub(super) evictions: AtomicU64,
    dedupe_leads: AtomicU64,
    dedupe_joins: AtomicU64,
    tmp_seq: AtomicU64,
}

/// The manifest marking a directory as a cell cache of specific key/entry
/// semantics, simulator behaviour, and file layout.  `layout_version` is
/// absent in manifests written before the packed store (implying layout 1).
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
    /// * A directory with a matching manifest is reused — packed (layout 2)
    ///   and legacy per-file (layout 1) caches both open; legacy entries are
    ///   served through the fallback probe until [`CellCache::pack`]
    ///   migrates them.
    /// * Anything else is **refused** with [`CampaignError::Cache`]: a
    ///   manifest from a different key schema or simulator behaviour
    ///   version (stale entries must not be replayed), an unknown layout,
    ///   an unreadable manifest, or a non-empty directory with no manifest
    ///   at all (the path probably names something that is not a cache;
    ///   silently scattering cache files into it would be destructive).
    ///
    /// Opening loads the record index: from the `index.json` snapshot when
    /// fresh, delta-scanning or fully scanning segments as needed (see
    /// `cache/index.rs`).  Torn tail records left by a killed writer are
    /// detected here and truncated away once their segment has been quiet
    /// longer than the reclaim grace.
    pub fn open(dir: impl Into<PathBuf>) -> Result<CellCache, CampaignError> {
        let root = dir.into();
        std::fs::create_dir_all(root.join(SEGMENTS_DIR))
            .map_err(|e| CampaignError::Cache(format!("create {}: {e}", root.display())))?;
        let manifest_path = root.join(MANIFEST_FILE);
        match std::fs::read_to_string(&manifest_path) {
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
                let layout = found.layout_version.unwrap_or(1);
                if layout != 1 && layout != CACHE_LAYOUT_VERSION {
                    return Err(CampaignError::Cache(format!(
                        "{} uses cache file layout v{layout}; this build reads layouts \
                         v1 and v{CACHE_LAYOUT_VERSION} — refusing to guess",
                        root.display(),
                    )));
                }
            }
            Err(_) => {
                // No manifest.  Refuse a directory that already holds
                // anything other than the (possibly just-created, empty)
                // cache subdirectories — it is not ours to colonise.
                let ours = [CELLS_DIR, SEGMENTS_DIR];
                let foreign = std::fs::read_dir(&root)
                    .map_err(|e| CampaignError::Cache(format!("read {}: {e}", root.display())))?
                    .filter_map(|e| e.ok())
                    .any(|e| !ours.iter().any(|name| e.file_name() == *name));
                let occupied = |sub: &str| {
                    std::fs::read_dir(root.join(sub))
                        .map(|mut d| d.next().is_some())
                        .unwrap_or(false)
                };
                if foreign || occupied(CELLS_DIR) || occupied(SEGMENTS_DIR) {
                    return Err(CampaignError::Cache(format!(
                        "{} is not a cell cache (no {MANIFEST_FILE} manifest) and is not \
                         empty; refusing to write into it",
                        root.display()
                    )));
                }
                write_atomic(
                    &manifest_path,
                    &serde::json::to_string_pretty(&CacheManifest::current()),
                    &root.join(format!("{MANIFEST_FILE}.tmp.{}", std::process::id())),
                )?;
            }
        }
        let cache = CellCache {
            root,
            memo: Mutex::new(HashMap::new()),
            flights: Mutex::new(HashMap::new()),
            index: Mutex::new(CacheIndex::default()),
            writer: Mutex::new(None),
            has_legacy: AtomicBool::new(false),
            dirty: AtomicBool::new(false),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            dedupe_leads: AtomicU64::new(0),
            dedupe_joins: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
        };
        cache
            .has_legacy
            .store(legacy::has_entries(&cache.root), Ordering::Relaxed);
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
    pub(super) fn memo(&self) -> MutexGuard<'_, HashMap<u128, (serde::Value, CachedCell)>> {
        lock(&self.memo)
    }

    /// Reconcile the in-memory index with the segment directory: pick up
    /// segments appended or created by other handles since the last look
    /// (delta scans), drop entries whose segments vanished (another
    /// handle's compaction), and — only with `truncate_stale_tails`, i.e.
    /// at open — cut torn tails off segments that have been quiet past the
    /// reclaim grace.  Cost is one `read_dir` plus one `stat` per segment
    /// when nothing changed, never per-entry work.
    pub(super) fn sync_index(&self, truncate_stale_tails: bool) {
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
            let Ok(outcome) = segment::scan_segment(&path, start) else {
                continue;
            };
            for record in &outcome.records {
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
            if outcome.corrupt > 0 {
                self.evictions.fetch_add(outcome.corrupt, Ordering::Relaxed);
                self.dirty.store(true, Ordering::Relaxed);
            }
            if !outcome.records.is_empty() {
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
        if let Some((document, cell)) = self.memo().get(&key.digest) {
            // Same stored-key verification as the disk path; a memoized
            // colliding digest falls through to disk (and is evicted there).
            if *document == key.document {
                let cell = cell.clone();
                if bump {
                    self.bump_stamp(key);
                }
                return Some(cell);
            }
        }
        if let Some(cell) = self.read_packed(key, bump) {
            return Some(cell);
        }
        if self.has_legacy.load(Ordering::Relaxed) {
            return self.read_legacy(key, bump);
        }
        None
    }

    /// The packed half of [`CellCache::read_entry`].
    fn read_packed(&self, key: &CellKey, bump: bool) -> Option<CachedCell> {
        let entry = {
            let index = lock(&self.index);
            index.entries.get(&key.digest).copied()
        }?;
        let path = segment::segment_path(&self.segments_dir(), entry.segment);
        let decoded: Option<CachedCell> = (|| {
            let (digest, _, key_bytes, payload) =
                segment::read_record(&path, entry.offset, entry.len)?;
            if digest != key.digest {
                return None;
            }
            let stored_key = serde::json::parse(std::str::from_utf8(&key_bytes).ok()?).ok()?;
            // The digest collided or the record was tampered with: the
            // stored key must be equal to the probe's.
            if stored_key != key.document {
                return None;
            }
            let payload = serde::json::parse(std::str::from_utf8(&payload).ok()?).ok()?;
            let m = payload.as_map()?;
            Some(CachedCell {
                stats: serde::de_field(m, "stats").ok()?,
                elapsed_nanos: serde::de_field(m, "elapsed_nanos").ok()?,
            })
        })();
        match &decoded {
            Some(cell) => {
                self.memo()
                    .insert(key.digest, (key.document.clone(), cell.clone()));
                if bump {
                    self.bump_stamp(key);
                }
            }
            None => {
                // Evict from the index: a later miss re-simulates and
                // re-appends.  The dead bytes fall to compaction.
                let removed = lock(&self.index).remove(key.digest).is_some();
                self.memo().remove(&key.digest);
                if removed {
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    self.dirty.store(true, Ordering::Relaxed);
                }
            }
        }
        decoded
    }

    /// The legacy fallback half of [`CellCache::read_entry`].
    fn read_legacy(&self, key: &CellKey, bump: bool) -> Option<CachedCell> {
        let path = legacy::entry_path(&self.root, key);
        let text = std::fs::read_to_string(&path).ok()?;
        match legacy::decode_entry(&text, key) {
            Some(cell) => {
                self.memo()
                    .insert(key.digest, (key.document.clone(), cell.clone()));
                if bump {
                    legacy::touch(&self.root, key);
                }
                Some(cell)
            }
            None => {
                self.memo().remove(&key.digest);
                if std::fs::remove_file(&path).is_ok() {
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None
            }
        }
    }

    /// Record a use of `key`'s packed record: stamp the index entry with
    /// the current wall-clock, the LRU clock [`CellCache::gc`] runs on.
    fn bump_stamp(&self, key: &CellKey) {
        let mut index = lock(&self.index);
        if let Some(entry) = index.entries.get_mut(&key.digest) {
            entry.stamp_millis = now_millis();
            self.dirty.store(true, Ordering::Relaxed);
        }
    }

    /// Look up a cell, counting a hit or miss.  A hit also records the use
    /// (bumps the entry's last-use stamp for [`CellCache::gc`]).
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

    /// The recorded wall-clock cost of a cell, if cached — the cost-model
    /// probe.  Does not count as a hit or miss, and does not disturb the
    /// LRU clock.
    pub fn observed_nanos(&self, key: &CellKey) -> Option<u64> {
        self.read_entry(key, false).map(|c| c.elapsed_nanos)
    }

    /// Insert (or overwrite) a cell entry by appending a record to this
    /// handle's active segment.  I/O errors are swallowed after best
    /// effort: the cache is an accelerator, never a correctness dependency,
    /// so a full disk degrades to slower re-runs.
    pub fn insert(&self, key: &CellKey, stats: &SimStats, elapsed_nanos: u64) {
        let payload = serde::json::to_string(&serde::Value::Map(vec![
            ("stats".to_string(), Serialize::to_value(stats)),
            (
                "elapsed_nanos".to_string(),
                serde::Value::UInt(elapsed_nanos),
            ),
        ]));
        let stamp = now_millis();
        let record = segment::encode_record(
            key.digest,
            stamp,
            key.canonical_json().as_bytes(),
            payload.as_bytes(),
        );
        if self
            .append_record(key.digest, stamp, elapsed_nanos, &record)
            .is_some()
        {
            self.inserts.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Append one framed record to the active segment (rolling or creating
    /// it as needed) and index it.  `None` on I/O failure.
    pub(super) fn append_record(
        &self,
        digest: u128,
        stamp: u64,
        cost_nanos: u64,
        record: &[u8],
    ) -> Option<u64> {
        let mut writer = lock(&self.writer);
        self.append_with_writer(&mut writer, digest, stamp, cost_nanos, record)
    }

    /// [`CellCache::append_record`] for callers already holding the writer
    /// lock (compaction rewrites).  Lock order stays writer → index.
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
            Some(flight) if flight.document == key.document => CellClaim::Join(CellJoin {
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
                    document: key.document.clone(),
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

    /// Return `key`'s cached result, or run `simulate` to produce (and
    /// insert) it — coalescing concurrent callers of the same key onto a
    /// **single** simulation.
    ///
    /// The first caller to miss becomes the key's leader: it registers an
    /// in-flight `Flight` in the singleflight table, simulates, inserts
    /// the entry and publishes the result.  Any caller that misses on the
    /// same key while the flight is open blocks on the flight's condvar and
    /// receives a clone of the leader's result — N concurrent identical
    /// campaigns cost one simulation per unique cell.  Degradations are
    /// always toward *more* simulation, never wrong data: a digest collision
    /// between two distinct in-flight keys bypasses the table, and a leader
    /// that unwinds without publishing (panicking simulation) marks the
    /// flight abandoned so joiners simulate for themselves.
    ///
    /// This is the one miss path the campaign engine's cached simulations
    /// funnel through; [`CacheStats::dedupe_leads`] counts exactly the
    /// simulations executed here.
    pub fn get_or_compute(&self, key: &CellKey, simulate: impl FnOnce() -> SimStats) -> SimStats {
        match self.claim(key) {
            CellClaim::Hit(stats) => *stats,
            CellClaim::Lead(lead) => lead.publish(simulate()),
            CellClaim::Join(join) => match join.wait() {
                Ok(stats) => stats,
                Err(lead) => lead.publish(simulate()),
            },
        }
    }

    /// Activity counters since this handle was opened.
    pub fn activity(&self) -> CacheActivity {
        CacheActivity {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Cumulative statistics: the [`CacheActivity`] counters, the in-flight
    /// dedupe counters, and the cache's current footprint.  Entry count and
    /// bytes come from the in-memory index (refreshed with one `stat` per
    /// segment, never a per-entry walk), plus the legacy files when the
    /// fallback is live.
    pub fn stats(&self) -> CacheStats {
        self.sync_index(false);
        let (mut entries, mut bytes) = lock(&self.index).totals();
        if self.has_legacy.load(Ordering::Relaxed) {
            for entry in legacy::scan(&self.root) {
                entries += 1;
                bytes += entry.bytes;
            }
        }
        let activity = self.activity();
        CacheStats {
            hits: activity.hits,
            misses: activity.misses,
            inserts: activity.inserts,
            evictions: activity.evictions,
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

    /// Migrate a legacy per-file cache into the packed layout, then compact
    /// every eligible segment into one densely packed file.  Safe (and a
    /// no-op migration) on an already packed cache, where it still acts as
    /// an explicit defragmentation pass.  Reports stay byte-identical
    /// before and after — `tests/cell_cache.rs` pins this.
    pub fn pack(&self) -> Result<PackOutcome, CampaignError> {
        let mut outcome = PackOutcome::default();
        if self.has_legacy.load(Ordering::Relaxed) {
            for entry in legacy::scan(&self.root) {
                let migrated = std::fs::read_to_string(&entry.path)
                    .ok()
                    .and_then(|text| legacy::decode_for_migration(&text));
                match migrated {
                    Some((key_document, cell)) => {
                        let canonical = serde::json::to_string(&key_document);
                        let digest = fnv128(canonical.as_bytes());
                        let payload = serde::json::to_string(&serde::Value::Map(vec![
                            ("stats".to_string(), Serialize::to_value(&cell.stats)),
                            (
                                "elapsed_nanos".to_string(),
                                serde::Value::UInt(cell.elapsed_nanos),
                            ),
                        ]));
                        let record = segment::encode_record(
                            digest,
                            entry.stamp_millis,
                            canonical.as_bytes(),
                            payload.as_bytes(),
                        );
                        if self
                            .append_record(digest, entry.stamp_millis, cell.elapsed_nanos, &record)
                            .is_none()
                        {
                            return Err(CampaignError::Cache(format!(
                                "packing {}: could not append to a segment",
                                self.root.display()
                            )));
                        }
                        outcome.migrated += 1;
                    }
                    None => {
                        outcome.dropped += 1;
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
                let _ = std::fs::remove_file(&entry.path);
            }
            let _ = std::fs::remove_dir(self.root.join(CELLS_DIR));
            self.has_legacy.store(false, Ordering::Relaxed);
        }
        let (compacted, reclaimed) = super::gc::compact_segments(self, true);
        outcome.compacted_segments = compacted;
        outcome.reclaimed_bytes = reclaimed;
        self.dirty.store(true, Ordering::Relaxed);
        self.persist_index();
        // Stamp the manifest with the packed layout so the migration is
        // recorded even for caches initialised by an older binary.
        write_atomic(
            &self.root.join(MANIFEST_FILE),
            &serde::json::to_string_pretty(&CacheManifest::current()),
            &self.root.join(format!(
                "{MANIFEST_FILE}.tmp.{}.{}",
                std::process::id(),
                self.tmp_seq.fetch_add(1, Ordering::Relaxed)
            )),
        )?;
        Ok(outcome)
    }

    /// Rewrite this cache as a legacy (layout v1) per-file directory —
    /// segments are expanded back into one JSON file per cell, stamped with
    /// their recorded last-use times, and the packed state is deleted.
    ///
    /// This exists so tests and benches can fabricate byte-faithful legacy
    /// caches to exercise the transparent fallback and
    /// [`CellCache::pack`] against; production code has no reason to
    /// downgrade a cache.
    #[doc(hidden)]
    pub fn demote_to_legacy_layout(&self) -> Result<u64, CampaignError> {
        let cells = self.root.join(CELLS_DIR);
        std::fs::create_dir_all(&cells)
            .map_err(|e| CampaignError::Cache(format!("create {}: {e}", cells.display())))?;
        self.sync_index(false);
        let entries: Vec<(u128, IndexEntry)> = {
            let index = lock(&self.index);
            index.entries.iter().map(|(d, e)| (*d, *e)).collect()
        };
        let segments_dir = self.segments_dir();
        let mut written = 0u64;
        for (digest, entry) in entries {
            let path = segment::segment_path(&segments_dir, entry.segment);
            let Some((found, stamp, key_bytes, payload)) =
                segment::read_record(&path, entry.offset, entry.len)
            else {
                continue;
            };
            if found != digest {
                continue;
            }
            let Some(key_document) = std::str::from_utf8(&key_bytes)
                .ok()
                .and_then(|s| serde::json::parse(s).ok())
            else {
                continue;
            };
            let cell = (|| {
                let payload = serde::json::parse(std::str::from_utf8(&payload).ok()?).ok()?;
                let m = payload.as_map()?;
                Some(CachedCell {
                    stats: serde::de_field(m, "stats").ok()?,
                    elapsed_nanos: serde::de_field(m, "elapsed_nanos").ok()?,
                })
            })();
            let Some(cell) = cell else { continue };
            let file = cells.join(format!("{digest:032x}.json"));
            let tmp = cells.join(format!(
                "{digest:032x}.tmp.{}.{}",
                std::process::id(),
                self.tmp_seq.fetch_add(1, Ordering::Relaxed)
            ));
            write_atomic(&file, &legacy::render_entry(&key_document, &cell), &tmp)?;
            if let Ok(handle) = std::fs::File::options().write(true).open(&file) {
                let _ = handle.set_modified(SystemTime::UNIX_EPOCH + Duration::from_millis(stamp));
            }
            written += 1;
        }
        *lock(&self.writer) = None;
        {
            let mut index = lock(&self.index);
            for id in index.segments.keys() {
                let _ = std::fs::remove_file(segment::segment_path(&segments_dir, *id));
            }
            *index = CacheIndex::default();
        }
        let _ = std::fs::remove_file(self.root.join(INDEX_FILE));
        self.memo().clear();
        self.dirty.store(false, Ordering::Relaxed);
        self.has_legacy.store(true, Ordering::Relaxed);
        // A faithful legacy manifest: exactly the two fields the v1 layout
        // wrote, so the fallback path sees what an old binary produced.
        let manifest = serde::Value::Map(vec![
            (
                "schema_version".to_string(),
                serde::Value::UInt(CACHE_SCHEMA_VERSION as u64),
            ),
            (
                "sim_behavior_version".to_string(),
                serde::Value::UInt(hc_sim::SIM_BEHAVIOR_VERSION as u64),
            ),
        ]);
        write_atomic(
            &self.root.join(MANIFEST_FILE),
            &serde::json::to_string_pretty(&manifest),
            &self.root.join(format!(
                "{MANIFEST_FILE}.tmp.{}.{}",
                std::process::id(),
                self.tmp_seq.fetch_add(1, Ordering::Relaxed)
            )),
        )?;
        Ok(written)
    }

    /// Pin a packed entry's last-use stamp (tests fabricate LRU histories
    /// with this instead of racing the filesystem clock).
    #[cfg(test)]
    pub(super) fn set_stamp(&self, key: &CellKey, stamp_millis: u64) {
        let mut index = lock(&self.index);
        if let Some(entry) = index.entries.get_mut(&key.digest) {
            entry.stamp_millis = stamp_millis;
            self.dirty.store(true, Ordering::Relaxed);
        }
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

impl Drop for CellCache {
    fn drop(&mut self) {
        // Seal the active segment before snapshotting so the snapshot's
        // scan horizons match the files.
        *lock(&self.writer) = None;
        self.persist_index();
    }
}
