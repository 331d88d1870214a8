//! The in-memory record index and its persisted `index.json` snapshot.
//!
//! The index maps each cell digest to the segment/offset/length of its
//! newest record plus a last-use stamp (unix milliseconds) — everything a
//! lookup, `stats()` or GC sweep needs without touching a segment file.  It
//! is **advisory state**: the segments are the source of truth, and the
//! index can always be rebuilt by scanning them.
//!
//! Rebuild rules, applied at [`CellCache::open`](super::CellCache::open)
//! and by the cheap refresh before `stats()`/`gc()`:
//!
//! 1. no `index.json`, one written under different versions, or one whose
//!    entries lack a field (every entry must carry its `cost`) → **full
//!    scan** of every segment, ascending by id (later records shadow
//!    earlier ones, so re-inserted cells resolve to their newest copy);
//! 2. a snapshot whose recorded segment length is **shorter** than the file
//!    → **delta scan** of just the appended suffix (another handle — or a
//!    previous life of this cache — appended after the snapshot).  A damaged
//!    snapshot can put that horizon inside a record, where a sound record
//!    reads as damage, so a delta scan from a horizon no scan of this handle
//!    has confirmed that meets damage (a torn tail or a corrupt record) is
//!    redone from the header, and only that scan's outcome counts;
//! 3. a recorded length **longer** than the file (the segment was truncated
//!    or rewritten) or a segment on disk the snapshot has never heard of →
//!    full scan of that segment;
//! 4. entries pointing at segments that no longer exist are dropped.
//!
//! The snapshot is written on [`CellCache`](super::CellCache) drop and after
//! `gc()`; a SIGKILL between snapshots costs only a delta scan.

use super::{now_millis, replace, CACHE_LAYOUT_VERSION, CACHE_SCHEMA_VERSION};
use crate::campaign::CampaignError;
use std::collections::HashMap;
use std::path::Path;

/// Where one cell's newest record lives, and when it was last used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct IndexEntry {
    pub segment: u64,
    pub offset: u64,
    /// Total framed record length (header + key + payload).
    pub len: u64,
    /// Last use, unix milliseconds — the LRU clock.
    pub stamp_millis: u64,
    /// The recorded simulation wall-clock (the record payload's
    /// `elapsed_nanos`), lifted into the index so GC can rank
    /// equally-stale entries by how expensive they are to recompute
    /// without touching a segment file.  Advisory: 0 when the payload
    /// did not yield one.
    pub cost_nanos: u64,
}

/// Per-segment bookkeeping: how far it has been scanned and how much of it
/// is still referenced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) struct SegmentState {
    /// Bytes of the file covered by sound records (the delta-scan resume
    /// point, and the truncation point for a torn tail).
    pub scanned_len: u64,
    /// Bytes of records the index still points at.
    pub live_bytes: u64,
    /// Records the index still points at.
    pub live_records: u64,
    /// `scanned_len` was found by scanning the segment, so it is a record
    /// boundary; a horizon read from a snapshot may not be.
    pub scanned: bool,
}

/// The whole in-memory index.
#[derive(Debug, Default)]
pub(super) struct CacheIndex {
    pub entries: HashMap<u128, IndexEntry>,
    pub segments: HashMap<u64, SegmentState>,
}

impl CacheIndex {
    /// Register (or refresh) the horizon a scan of a segment reached.
    pub(super) fn note_segment(&mut self, id: u64, scanned_len: u64) {
        let state = self.segments.entry(id).or_default();
        state.scanned_len = state.scanned_len.max(scanned_len);
        state.scanned = true;
    }

    /// Point `digest` at a new record, releasing the bytes of whichever
    /// record it pointed at before (that one is now dead weight in its
    /// segment, visible to compaction).
    pub(super) fn insert(&mut self, digest: u128, entry: IndexEntry) {
        if let Some(old) = self.entries.insert(digest, entry) {
            self.release(&old);
        }
        // Saturating: a damaged snapshot may carry any offset or length.  An
        // entry reaching past its segment's end pushes the horizon past the
        // file, which makes the next sync rescan that segment (rule 3).
        let state = self.segments.entry(entry.segment).or_default();
        state.live_bytes = state.live_bytes.saturating_add(entry.len);
        state.live_records += 1;
        state.scanned_len = state
            .scanned_len
            .max(entry.offset.saturating_add(entry.len));
    }

    /// Drop `digest` from the index (eviction or corruption), returning the
    /// entry it pointed at.
    pub(super) fn remove(&mut self, digest: u128) -> Option<IndexEntry> {
        let entry = self.entries.remove(&digest)?;
        self.release(&entry);
        Some(entry)
    }

    fn release(&mut self, entry: &IndexEntry) {
        if let Some(state) = self.segments.get_mut(&entry.segment) {
            state.live_bytes = state.live_bytes.saturating_sub(entry.len);
            state.live_records = state.live_records.saturating_sub(1);
        }
    }

    /// Live entry count and bytes — what `stats()` reports.
    pub(super) fn totals(&self) -> (u64, u64) {
        let entries = self.entries.len() as u64;
        let bytes = self.entries.values().map(|e| e.len).sum();
        (entries, bytes)
    }

    /// Serialize the snapshot.
    pub(super) fn encode(&self) -> String {
        let mut segments: Vec<(&u64, &SegmentState)> = self.segments.iter().collect();
        segments.sort_by_key(|(id, _)| **id);
        let segments = segments
            .into_iter()
            .map(|(id, state)| {
                serde::Value::Map(vec![
                    ("id".to_string(), serde::Value::UInt(*id)),
                    ("len".to_string(), serde::Value::UInt(state.scanned_len)),
                ])
            })
            .collect();
        let mut entries: Vec<(&u128, &IndexEntry)> = self.entries.iter().collect();
        entries.sort_by_key(|(digest, _)| **digest);
        let entries = entries
            .into_iter()
            .map(|(digest, e)| {
                serde::Value::Map(vec![
                    (
                        "digest".to_string(),
                        serde::Value::Str(format!("{digest:032x}")),
                    ),
                    ("segment".to_string(), serde::Value::UInt(e.segment)),
                    ("offset".to_string(), serde::Value::UInt(e.offset)),
                    ("len".to_string(), serde::Value::UInt(e.len)),
                    ("stamp".to_string(), serde::Value::UInt(e.stamp_millis)),
                    ("cost".to_string(), serde::Value::UInt(e.cost_nanos)),
                ])
            })
            .collect();
        serde::json::to_string(&serde::Value::Map(vec![
            (
                "layout_version".to_string(),
                serde::Value::UInt(CACHE_LAYOUT_VERSION as u64),
            ),
            (
                "schema_version".to_string(),
                serde::Value::UInt(CACHE_SCHEMA_VERSION as u64),
            ),
            (
                "sim_behavior_version".to_string(),
                serde::Value::UInt(hc_sim::SIM_BEHAVIOR_VERSION as u64),
            ),
            (
                "written_millis".to_string(),
                serde::Value::UInt(now_millis()),
            ),
            ("segments".to_string(), serde::Value::Seq(segments)),
            ("entries".to_string(), serde::Value::Seq(entries)),
        ]))
    }

    /// Decode a snapshot.  `None` for anything unreadable, incomplete or
    /// written under different versions — the caller falls back to a full
    /// scan, which re-derives every field from the records themselves.
    pub(super) fn decode(text: &str) -> Option<CacheIndex> {
        let value = serde::json::parse(text).ok()?;
        let version = |name: &str| -> Option<u64> {
            match value.get(name) {
                Some(serde::Value::UInt(n)) => Some(*n),
                _ => None,
            }
        };
        if version("layout_version")? != CACHE_LAYOUT_VERSION as u64
            || version("schema_version")? != CACHE_SCHEMA_VERSION as u64
            || version("sim_behavior_version")? != hc_sim::SIM_BEHAVIOR_VERSION as u64
        {
            return None;
        }
        let mut index = CacheIndex::default();
        for seg in value.get("segments")?.as_seq()? {
            let id = uint(seg.get("id")?)?;
            index.segments.insert(
                id,
                SegmentState {
                    scanned_len: uint(seg.get("len")?)?,
                    ..SegmentState::default()
                },
            );
        }
        for entry in value.get("entries")?.as_seq()? {
            let digest = u128::from_str_radix(entry.get("digest")?.as_str()?, 16).ok()?;
            let parsed = IndexEntry {
                segment: uint(entry.get("segment")?)?,
                offset: uint(entry.get("offset")?)?,
                len: uint(entry.get("len")?)?,
                stamp_millis: uint(entry.get("stamp")?)?,
                cost_nanos: uint(entry.get("cost")?)?,
            };
            // Route through `insert` so live-byte accounting is rebuilt, but
            // preserve the snapshot's scan horizons.
            let horizon = index.segments.get(&parsed.segment).map(|s| s.scanned_len);
            index.insert(digest, parsed);
            if let (Some(h), Some(state)) = (horizon, index.segments.get_mut(&parsed.segment)) {
                state.scanned_len = state.scanned_len.max(h);
            }
        }
        Some(index)
    }

    /// Persist the snapshot next to the segments (tmp + rename).
    pub(super) fn persist(&self, root: &Path) -> Result<(), CampaignError> {
        let path = root.join(super::INDEX_FILE);
        replace(&path, &self.encode(), CampaignError::Cache)
    }
}

fn uint(v: &serde::Value) -> Option<u64> {
    match v {
        serde::Value::UInt(n) => Some(*n),
        serde::Value::Int(n) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}
