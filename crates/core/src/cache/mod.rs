//! Content-addressed, on-disk memoization of campaign cells.
//!
//! A [`CellCache`] stores the [`SimStats`] of every simulated cell —
//! policy cells *and* monolithic baselines — keyed by a stable digest of
//! everything that determines the result:
//!
//! * the **trace identity**: the serialized
//!   [`TraceSelector`](crate::campaign::TraceSelector) plus the
//!   synthesis length (`trace_len`), which together determine the generated
//!   trace bit-for-bit;
//! * the **scenario**: the full serialized
//!   [`ScenarioSpec`](crate::scenario::ScenarioSpec) (machine, predictors,
//!   power);
//! * the **policy** name and the `warmup_runs` count (policy cells only —
//!   baselines never warm);
//! * the **schema preamble**: [`CACHE_SCHEMA_VERSION`] and
//!   [`hc_sim::SIM_BEHAVIOR_VERSION`], so a change to either the key/entry
//!   semantics or the simulator's observable behaviour invalidates every
//!   entry instead of silently replaying stale results.
//!
//! The digest is FNV-1a/128 over the *compact canonical JSON* of that key
//! document, which the grid lays out from JSON fragments rendered once per
//! run (each row's trace identity, each scenario).  Those bytes are stored
//! inside each record and compared byte for byte on every lookup, so even a
//! digest collision (or a corrupt / foreign record) degrades to a miss,
//! never to wrong data.
//!
//! ## Packed segment store
//!
//! Entries live in append-only **segment files** (`segments/seg_NNNNNN.pack`)
//! of length-prefixed, checksummed `(key-json, payload-json)` records under a
//! versioned segment header, with an in-memory **index**
//! (digest → segment/offset/len + last-use stamp) answering every probe.  A
//! hit is one index lookup plus one positioned read; [`CellCache::stats`]
//! sums the index instead of walking a directory; [`CellCache::gc`] evicts
//! index entries and **compacts** segments whose live-byte ratio drops,
//! instead of unlinking files one stat at a time.  The index is persisted to
//! `index.json` when a handle drops and rebuilt (or delta-scanned) from the
//! segment files themselves whenever it is missing or stale, so killing a
//! process can never poison the cache: a torn tail record fails its checksum
//! and is truncated away at the next open.  Module-level details live in
//! the segment framing (`segment.rs`), the index rebuild rules
//! (`index.rs`) and compaction (`gc.rs`).
//!
//! The packed store is the only layout: a directory written by the retired
//! one-JSON-file-per-cell layout is refused at [`CellCache::open`], never
//! half-read.  The cache is an accelerator, so rebuilding one costs only
//! re-simulation time.
//!
//! Because [`SimStats`] round-trips through the workspace JSON codec exactly
//! (integers verbatim, floats via shortest-round-trip formatting), a report
//! assembled from cache hits is **byte-identical** to one assembled from
//! fresh simulation — `tests/cell_cache.rs` pins this.
//!
//! Each record also stores the wall-clock nanoseconds the original
//! simulation took.  Those observations feed the [`CostModel`] behind the
//! cost-balanced shard planner (`hc_core::shard`): rows whose cells are
//! known-slow are spread across shards instead of round-robin'd into one
//! unlucky straggler.
//!
//! ## In-flight dedupe (singleflight)
//!
//! [`CellCache::claim`] is the one miss path every cache-mediated
//! simulation goes through.  It keeps a keyed singleflight table
//! (`HashMap<digest, Arc<Flight>>` guarded by a mutex, one condvar per
//! flight): a claim that finds the cell cached is a [`CellClaim::Hit`];
//! the first caller to miss on a key becomes the **lead**
//! ([`CellClaim::Lead`]), simulates and hands the result to
//! [`CellLead::publish`]; every concurrent caller of the same key
//! **joins** ([`CellClaim::Join`]) — [`CellJoin::wait`] blocks on the
//! flight's condvar and returns a clone of the lead's result instead of
//! re-simulating.  N identical in-flight campaigns therefore cost one
//! simulation per unique cell, which is what lets a long-lived campaign
//! service (`hc_serve`) coalesce repeat traffic *across* users, not just
//! across runs.  The [`CacheStats::dedupe_leads`] counter is exactly the
//! number of simulations published through the cache; `dedupe_joins`
//! counts the coalesced waits.
//!
//! ## Lifecycle (GC)
//!
//! Every record carries a last-use stamp in the index (bumped by a hit once
//! the recorded use is a minute old, persisted with the index snapshot; a
//! replay that follows another within the minute writes nothing).
//! [`CellCache::gc`] evicts entries older than a given age, then evicts
//! until the cache fits a byte budget, ranking index entries by
//! `(stamp, cost, digest)`, and finally rewrites segments whose live
//! records have shrunk below half their bytes; `reproduce cache-gc` is a
//! thin wrapper over it.

mod gc;
mod index;
mod segment;
mod store;

pub use gc::{GcOutcome, GcPolicy};
pub use store::{CellCache, CellClaim, CellJoin, CellLead};

use crate::campaign::{CampaignError, CampaignSpec};
use crate::policy::PolicyKind;
use hc_sim::SimStats;
use serde::Serialize;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::SystemTime;

/// Version of the cache *key and entry semantics* (the key document layout
/// and the meaning of a stored payload).  It is part of every key document's
/// preamble, so bumping it invalidates every entry.  The physical file
/// layout is versioned separately by [`CACHE_LAYOUT_VERSION`].
pub const CACHE_SCHEMA_VERSION: u32 = 1;

/// Version of the on-disk *file layout*: `2` is the packed segment store,
/// the only layout this build opens.  The retired layout `1` (one JSON
/// file per cell) wrote manifests without the field and is refused like
/// any other layout.
pub const CACHE_LAYOUT_VERSION: u32 = 2;

/// Name of the manifest file marking a directory as a cell cache.
pub(crate) const MANIFEST_FILE: &str = "cache.json";

/// Subdirectory holding the packed segment files.
pub(crate) const SEGMENTS_DIR: &str = "segments";

/// Persisted snapshot of the in-memory index (advisory: rebuilt from the
/// segments whenever missing or stale).
pub(crate) const INDEX_FILE: &str = "index.json";

/// FNV-1a 128-bit offset basis.
const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;

/// FNV-1a 128-bit prime.
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

/// FNV-1a 64-bit offset basis.
const FNV64_OFFSET: u64 = 0xcbf29ce484222325;

/// FNV-1a 64-bit prime.
const FNV64_PRIME: u64 = 0x100000001b3;

/// FNV-1a/128 over a byte string — the cell digest.
pub(crate) fn fnv128(bytes: &[u8]) -> u128 {
    let mut hash = FNV128_OFFSET;
    for &b in bytes {
        hash ^= b as u128;
        hash = hash.wrapping_mul(FNV128_PRIME);
    }
    hash
}

/// Incremental FNV-1a/64 — the segment record checksum.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv64(u64);

impl Fnv64 {
    pub(crate) fn new() -> Fnv64 {
        Fnv64(FNV64_OFFSET)
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV64_PRIME);
        }
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// Milliseconds since the Unix epoch — the last-use clock the index runs on.
/// (Wall-clock, so `max_age` GC policies mean what they say across process
/// restarts; monotonicity is not required, only rough LRU ordering.)
pub(crate) fn now_millis() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// Poison-proof lock: a panicking holder cannot take the cache down.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// Write `contents` to `path` through `tmp` + rename, so readers never see a
/// partial file.
pub(crate) fn write_atomic(path: &Path, contents: &str, tmp: &Path) -> Result<(), CampaignError> {
    std::fs::write(tmp, contents)
        .map_err(|e| CampaignError::Cache(format!("write {}: {e}", tmp.display())))?;
    std::fs::rename(tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(tmp);
        CampaignError::Cache(format!("rename to {}: {e}", path.display()))
    })
}

/// The content-addressed key of one cached cell: the canonical bytes of its
/// key document plus their digest (the record's index key).
#[derive(Debug, Clone, PartialEq)]
pub struct CellKey {
    pub(crate) digest: u128,
    /// The compact canonical JSON of the key document: the byte string the
    /// digest is computed over, the key half of a packed record, and what
    /// every lookup compares a stored key with.
    pub(crate) canonical: Arc<str>,
}

impl CellKey {
    /// Key of a policy cell: (trace identity, scenario, policy, warmup).
    pub fn cell(
        trace: &serde::Value,
        trace_len: usize,
        warmup_runs: usize,
        scenario: &serde::Value,
        policy: &str,
    ) -> CellKey {
        CellKey::cell_from_json(
            &serde::json::to_string(trace),
            trace_len,
            warmup_runs,
            &serde::json::to_string(scenario),
            policy,
        )
    }

    /// Key of a (trace, scenario) monolithic baseline.  Baselines never run
    /// warmup passes, so `warmup_runs` is deliberately *not* part of the key:
    /// campaigns differing only in warmup share baseline entries.
    pub fn baseline(trace: &serde::Value, trace_len: usize, scenario: &serde::Value) -> CellKey {
        CellKey::baseline_from_json(
            &serde::json::to_string(trace),
            trace_len,
            &serde::json::to_string(scenario),
        )
    }

    /// [`CellKey::cell`] over the compact JSON (`serde::json::to_string`) of
    /// the trace identity and the scenario, so a caller keying many cells
    /// renders each row and each scenario once.
    pub(crate) fn cell_from_json(
        trace: &str,
        trace_len: usize,
        warmup_runs: usize,
        scenario: &str,
        policy: &str,
    ) -> CellKey {
        lay_out_key(trace, trace_len, scenario, Some((warmup_runs, policy)))
    }

    /// [`CellKey::baseline`] over rendered fragments, like
    /// [`CellKey::cell_from_json`].
    pub(crate) fn baseline_from_json(trace: &str, trace_len: usize, scenario: &str) -> CellKey {
        lay_out_key(trace, trace_len, scenario, None)
    }
}

/// Lay out a key document from its rendered JSON fragments: the versions
/// preamble, `kind`, `trace`, `trace_len`, `warmup_runs` (cells only),
/// `scenario`, `policy` (cells only).  The bytes equal
/// `serde::json::to_string` of that document as a map in this field order,
/// which is what every existing cache was keyed on, so changing anything
/// here orphans every cached cell.  `cell` is a policy cell's
/// `(warmup_runs, policy)`; `None` lays out a baseline's key.
fn lay_out_key(
    trace: &str,
    trace_len: usize,
    scenario: &str,
    cell: Option<(usize, &str)>,
) -> CellKey {
    let kind = if cell.is_some() { "cell" } else { "baseline" };
    let mut doc = String::with_capacity(trace.len() + scenario.len() + 160);
    let _ = write!(
        doc,
        "{{\"versions\":{{\"cache_schema\":{CACHE_SCHEMA_VERSION},\"sim_behavior\":{}}},\
         \"kind\":\"{kind}\",\"trace\":{trace},\"trace_len\":{trace_len}",
        hc_sim::SIM_BEHAVIOR_VERSION,
    );
    if let Some((warmup_runs, _)) = cell {
        let _ = write!(doc, ",\"warmup_runs\":{warmup_runs}");
    }
    let _ = write!(doc, ",\"scenario\":{scenario}");
    if let Some((_, policy)) = cell {
        let _ = write!(doc, ",\"policy\":{}", serde::json::to_string(policy));
    }
    doc.push('}');
    CellKey {
        digest: fnv128(doc.as_bytes()),
        canonical: Arc::from(doc),
    }
}

/// One decoded cache entry: the memoized statistics plus the wall-clock cost
/// of the original simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedCell {
    /// The memoized simulation result.
    pub stats: SimStats,
    /// Nanoseconds the original (cold) simulation of this cell took —
    /// the observation the [`CostModel`] planner consumes.
    pub elapsed_nanos: u64,
}

/// Cumulative statistics of one [`CellCache`] handle: what the cache did
/// since it was opened (one campaign run, typically), the in-flight dedupe
/// counters and the cache's current on-disk footprint.  Cache activity is
/// *not part of any report* — reports stay byte-identical whether cells hit
/// or miss; these counters are how the `reproduce` CLI, the `hc_serve`
/// `/metrics` endpoint, tests and CI observe the cache working.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found no (usable) entry.
    pub misses: u64,
    /// Entries written.
    pub inserts: u64,
    /// Entries deleted — corrupt/foreign records dropped at lookup or scan
    /// time plus entries reclaimed by [`CellCache::gc`].
    pub evictions: u64,
    /// Simulations published through [`CellLead::publish`] — under
    /// in-flight dedupe, exactly one per unique missing cell key, however
    /// many callers raced.
    pub dedupe_leads: u64,
    /// Callers that coalesced onto another caller's in-flight simulation
    /// instead of re-simulating.
    pub dedupe_joins: u64,
    /// Live entries currently indexed.
    pub entries: u64,
    /// Bytes of live entries' records.
    pub bytes: u64,
}

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

/// Per-row simulation-cost estimates for shard planning.
///
/// Without observations every cell of a campaign costs the same a-priori
/// estimate (`trace_len ×` [`CostModel::DEFAULT_NANOS_PER_UOP`]), so the
/// plan the LPT partitioner produces **degenerates to exactly the legacy
/// round-robin partition** — which is what keeps uncached sharded runs
/// byte-and-wire-identical to every previous release.  With a warm
/// [`CellCache`], each cell's recorded wall-clock time replaces the
/// estimate, and rows that are known to simulate slowly (high-latency
/// memory-bound traces take many more simulated cycles per µop) get spread
/// across shards instead of piling onto one straggler.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostModel<'a> {
    cache: Option<&'a CellCache>,
}

impl<'a> CostModel<'a> {
    /// A-priori cost estimate per trace µop, in nanoseconds.  The absolute
    /// scale is irrelevant to the partition (only *ratios* matter); it is
    /// chosen near the observed simulator rate so mixed estimated/observed
    /// rows compare sanely.
    pub const DEFAULT_NANOS_PER_UOP: u64 = 200;

    /// A model with no observations: every row costs the same.
    pub fn uniform() -> CostModel<'static> {
        CostModel { cache: None }
    }

    /// A model refined by the timings recorded in `cache`.
    pub fn observed(cache: &'a CellCache) -> CostModel<'a> {
        CostModel { cache: Some(cache) }
    }

    /// Estimated cost (abstract nanoseconds) of simulating one spec row:
    /// the row's baselines plus every scenario × policy cell.
    pub fn row_cost(&self, spec: &CampaignSpec, row: usize) -> u64 {
        self.cost_of_row(spec, row, &render_scenarios(spec))
    }

    /// Estimated cost of every spec row, in row order.
    pub fn row_costs(&self, spec: &CampaignSpec) -> Vec<u64> {
        let scenario_docs = render_scenarios(spec);
        (0..spec.traces.len())
            .map(|row| self.cost_of_row(spec, row, &scenario_docs))
            .collect()
    }

    /// [`CostModel::row_cost`] with the scenarios already rendered.
    fn cost_of_row(&self, spec: &CampaignSpec, row: usize, scenario_docs: &[String]) -> u64 {
        let default_cell = (spec.trace_len as u64).saturating_mul(Self::DEFAULT_NANOS_PER_UOP);
        let baseline_needed =
            spec.include_baseline || spec.policies.contains(&PolicyKind::Baseline);
        let Some(cache) = self.cache else {
            let baselines = if baseline_needed {
                spec.scenarios.len() as u64
            } else {
                0
            };
            // The baseline-policy column clones the memoized baseline, so it
            // costs nothing beyond the baseline itself.
            let sim_policies = spec
                .policies
                .iter()
                .filter(|&&k| k != PolicyKind::Baseline)
                .count() as u64;
            let warm_factor = (spec.warmup_runs as u64).saturating_add(1);
            return default_cell.saturating_mul(
                baselines.saturating_add(
                    sim_policies
                        .saturating_mul(spec.scenarios.len() as u64)
                        .saturating_mul(warm_factor),
                ),
            );
        };
        // Match the grid's cache identity for this row (content-addressed
        // for `File` rows) so observed timings are found; an unresolvable
        // identity (e.g. an unreadable recording) falls back to the plain
        // selector document — cost estimates are advisory, and the campaign
        // itself will surface the typed error.
        let trace_doc = serde::json::to_string(
            &spec.traces[row]
                .cache_doc()
                .unwrap_or_else(|_| Serialize::to_value(&spec.traces[row])),
        );
        let mut total = 0u64;
        for scenario_doc in scenario_docs {
            if baseline_needed {
                let key = CellKey::baseline_from_json(&trace_doc, spec.trace_len, scenario_doc);
                total = total.saturating_add(cache.observed_nanos(&key).unwrap_or(default_cell));
            }
            for kind in &spec.policies {
                if *kind == PolicyKind::Baseline {
                    continue; // cloned from the baseline, free
                }
                let key = CellKey::cell_from_json(
                    &trace_doc,
                    spec.trace_len,
                    spec.warmup_runs,
                    scenario_doc,
                    kind.name(),
                );
                total = total.saturating_add(cache.observed_nanos(&key).unwrap_or_else(|| {
                    default_cell.saturating_mul((spec.warmup_runs as u64).saturating_add(1))
                }));
            }
        }
        total
    }
}

/// Each scenario's compact JSON: the key fragment its cells are keyed on.
pub(crate) fn render_scenarios(spec: &CampaignSpec) -> Vec<String> {
    spec.scenarios.iter().map(serde::json::to_string).collect()
}

#[cfg(test)]
mod tests;
