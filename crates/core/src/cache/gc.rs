//! Cache lifecycle: LRU/age eviction and segment compaction.
//!
//! Eviction works on the **index**, not the filesystem: expired or
//! over-budget entries are simply dropped from it (their record bytes
//! become dead weight in their segments).  Compaction then reclaims the
//! dead bytes: a sealed segment whose live-byte ratio has fallen below
//! [`COMPACT_LIVE_RATIO`] — or any sealed segment, under
//! [`GcPolicy::compact`] — has its live records rewritten (stamps
//! preserved) into the active segment and is deleted; a segment with no
//! live records at all is deleted outright.  Segments modified within the
//! reclaim grace are left alone: a fresh mtime may mean a live writer in
//! another process.
//!
//! Everything stays deterministic: index entries are swept by the rank
//! `(stamp, cost, digest)` — oldest last use first; within one stamp
//! (coarse clocks stamp whole insert bursts identically) the
//! **cheapest-to-recompute** entries go first, ranked by the simulation
//! wall-clock each record carries, so a byte budget preferentially keeps
//! the cells that cost the most to regenerate; remaining ties break by
//! ascending digest.  Concurrent processes can at worst compact a segment
//! another handle still references — its reads then fail verification and
//! degrade to re-simulation, never to wrong data.

use super::index::IndexEntry;
use super::store::RECLAIM_GRACE;
use super::{lock, now_millis, segment, CellCache};
use crate::campaign::CampaignError;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Sealed segments below this live-byte ratio are compacted by
/// [`CellCache::gc`].
const COMPACT_LIVE_RATIO: f64 = 0.5;

/// What [`CellCache::gc`] is allowed to reclaim.
#[derive(Debug, Clone, Copy, Default)]
pub struct GcPolicy {
    /// Evict least-recently-used entries until the cache holds at most this
    /// many bytes of entries.  `None` = no byte budget.
    pub max_bytes: Option<u64>,
    /// Evict entries not used for longer than this.  `None` = no age limit.
    pub max_age: Option<Duration>,
    /// Report what would be evicted without deleting anything (suppresses
    /// compaction too).
    pub dry_run: bool,
    /// Compact every sealed segment, not just those under the live-byte
    /// ratio — the explicit defragmentation switch (`cache-gc --compact`).
    pub compact: bool,
}

/// What one [`CellCache::gc`] sweep did (or, dry-run, would do).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcOutcome {
    /// Entries that survived the sweep.
    pub kept: u64,
    /// Bytes of surviving entries.
    pub kept_bytes: u64,
    /// Entries evicted (or, dry-run, that would be evicted).
    pub evicted: u64,
    /// Bytes of evicted entries.
    pub evicted_bytes: u64,
    /// Segments deleted or rewritten by compaction (always 0 on a dry run).
    pub compacted_segments: u64,
    /// Bytes of segment files reclaimed by compaction.
    pub reclaimed_bytes: u64,
}

impl CellCache {
    /// Reclaim cache space: evict every entry older than
    /// [`GcPolicy::max_age`], then — least-recently-used first — evict
    /// entries until the survivors fit [`GcPolicy::max_bytes`], and finally
    /// compact segments left mostly dead.  Last use is the index stamp,
    /// which a hit ([`CellCache::lookup`], [`CellCache::claim`]) moves to
    /// now once the recorded use is a minute old, so ages are accurate to
    /// within a minute.  With
    /// [`GcPolicy::dry_run`] set, nothing is deleted; the returned
    /// [`GcOutcome`] reports what *would* happen.
    ///
    /// Eviction order is deterministic even under coarse clocks (where
    /// whole insert bursts share one stamp): oldest first; within one
    /// stamp, cheapest-to-recompute first (the recorded simulation
    /// wall-clock — a byte budget keeps the expensive cells); remaining
    /// ties broken by ascending digest.  Evicted entries count into
    /// [`CacheStats::evictions`](super::CacheStats::evictions); no
    /// per-entry `stat` calls happen at any point.
    pub fn gc(&self, policy: &GcPolicy) -> Result<GcOutcome, CampaignError> {
        self.sync_index(false);
        let now = now_millis();
        let mut candidates: Vec<(u128, IndexEntry)> = {
            let index = lock(&self.index);
            index.entries.iter().map(|(d, e)| (*d, *e)).collect()
        };
        candidates.sort_unstable_by_key(|(digest, e)| (e.stamp_millis, e.cost_nanos, *digest));
        let mut remaining: u64 = candidates.iter().map(|(_, e)| e.len).sum();
        let mut outcome = GcOutcome::default();
        for (digest, entry) in &candidates {
            let expired = policy.max_age.is_some_and(|max| {
                u128::from(now.saturating_sub(entry.stamp_millis)) > max.as_millis()
            });
            let over_budget = policy.max_bytes.is_some_and(|max| remaining > max);
            if expired || over_budget {
                if !policy.dry_run {
                    if lock(&self.index).remove(*digest).is_none() {
                        continue; // raced with another eviction
                    }
                    self.memo().remove(digest);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    self.dirty.store(true, Ordering::Relaxed);
                }
                remaining -= entry.len;
                outcome.evicted += 1;
                outcome.evicted_bytes += entry.len;
            } else {
                outcome.kept += 1;
                outcome.kept_bytes += entry.len;
            }
        }
        if !policy.dry_run {
            let (compacted, reclaimed) = compact_segments(self, policy.compact);
            outcome.compacted_segments = compacted;
            outcome.reclaimed_bytes = reclaimed;
            self.persist_index();
        }
        Ok(outcome)
    }
}

/// Rewrite (or delete) sealed segments holding mostly dead bytes, moving
/// their live records — stamps preserved — into the active segment.  With
/// `force`, every sealed segment is rewritten regardless of ratio, which
/// packs the whole cache into one dense segment.  Returns (segments
/// compacted, file bytes reclaimed).
fn compact_segments(cache: &CellCache, force: bool) -> (u64, u64) {
    let segments_dir = cache.segments_dir();
    let mut writer = lock(&cache.writer);
    let active_id = writer.as_ref().map(|w| w.id);
    let victims: Vec<u64> = {
        let index = lock(&cache.index);
        let mut ids: Vec<u64> = index
            .segments
            .iter()
            .filter(|(id, state)| {
                if Some(**id) == active_id {
                    return false;
                }
                let data_len = state.scanned_len.saturating_sub(segment::SEG_HEADER_LEN);
                if state.live_records == 0 || data_len == 0 {
                    return true;
                }
                force || (state.live_bytes as f64) < (data_len as f64) * COMPACT_LIVE_RATIO
            })
            .map(|(id, _)| *id)
            .collect();
        ids.sort_unstable();
        ids
    };
    let mut compacted = 0u64;
    let mut reclaimed = 0u64;
    for id in victims {
        let path = segment::segment_path(&segments_dir, id);
        let Ok(meta) = std::fs::metadata(&path) else {
            continue;
        };
        // A recently written segment may be another process's live writer;
        // leave it for a later sweep.
        if !meta
            .modified()
            .ok()
            .and_then(|m| m.elapsed().ok())
            .map(|age| age > RECLAIM_GRACE)
            .unwrap_or(false)
        {
            continue;
        }
        let file_len = meta.len();
        let moved: Vec<(u128, IndexEntry)> = {
            let index = lock(&cache.index);
            index
                .entries
                .iter()
                .filter(|(_, e)| e.segment == id)
                .map(|(d, e)| (*d, *e))
                .collect()
        };
        let mut moved_bytes = 0u64;
        let mut rewrite_failed = false;
        if !moved.is_empty() {
            let Ok(buf) = std::fs::read(&path) else {
                continue;
            };
            // Rewrite deterministically (ascending offset) so repeated
            // compactions of the same state produce the same layout.
            let mut moved = moved;
            moved.sort_by_key(|(_, e)| e.offset);
            for (digest, entry) in moved {
                let start = usize::try_from(entry.offset).unwrap_or(usize::MAX);
                let end = start.saturating_add(usize::try_from(entry.len).unwrap_or(usize::MAX));
                let sound = end <= buf.len();
                let record = if sound { &buf[start..end] } else { &[][..] };
                // The writer lock is already held, so append directly
                // instead of through `append_record` (which would relock).
                let appended = sound
                    && cache
                        .append_with_writer(
                            &mut writer,
                            digest,
                            entry.stamp_millis,
                            entry.cost_nanos,
                            record,
                        )
                        .is_some();
                if appended {
                    moved_bytes += entry.len;
                } else {
                    // Unreadable or unappendable record: drop the entry —
                    // a later miss re-simulates it.
                    if lock(&cache.index).remove(digest).is_some() {
                        cache.memo().remove(&digest);
                        cache.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                    if !sound {
                        continue;
                    }
                    rewrite_failed = true;
                    break;
                }
            }
        }
        if rewrite_failed {
            // Disk trouble mid-rewrite: keep the victim segment so the
            // entries still pointing into it stay readable.
            continue;
        }
        if std::fs::remove_file(&path).is_ok() {
            lock(&cache.index).segments.remove(&id);
            cache.forget_segment_file(id);
            cache.dirty.store(true, Ordering::Relaxed);
            compacted += 1;
            reclaimed += file_len.saturating_sub(moved_bytes);
        }
    }
    (compacted, reclaimed)
}
