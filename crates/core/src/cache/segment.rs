//! Packed segment files: framing, scanning, and the append writer.
//!
//! A segment (`segments/seg_NNNNNN.pack`) is a 20-byte header followed by
//! back-to-back records:
//!
//! ```text
//! header:  magic  b"hcpack01"           8 bytes
//!          layout_version  u32 LE       4
//!          cache_schema    u32 LE       4
//!          sim_behavior    u32 LE       4
//! record:  magic  0x48435245 ("HCRE")   4 bytes, u32 LE
//!          digest          u128 LE     16
//!          key_len         u32 LE       4
//!          payload_len     u32 LE       4
//!          stamp_millis    u64 LE       8
//!          checksum        u64 LE       8   FNV-1a/64 over everything
//!                                           after the magic except itself
//!          key JSON        key_len bytes
//!          payload JSON    payload_len bytes
//! ```
//!
//! Records are appended with a **single** `write_all`, so an interrupted
//! writer leaves at most one *prefix* of a record behind.  The scanner
//! classifies damage accordingly:
//!
//! * a record whose declared bytes run past EOF (or whose header is
//!   incomplete) is a **torn tail** — the scan stops there, nothing is
//!   counted, and [`CellCache::open`](super::CellCache::open) truncates the
//!   tail away once the file has been quiet longer than the reclaim grace
//!   (a fresh tail may be a live writer mid-append);
//! * a record fully present but failing its checksum (or whose stored key
//!   does not hash to its digest) is **corruption** — it is counted as an
//!   eviction and the scan resynchronizes on the next sound record (its own
//!   lengths may be the damaged bytes, so they are not trusted as a skip
//!   distance; only a corrupt record with no sound record after it is
//!   skipped by them).
//!
//!
//! Each segment is created with `create_new`, so exactly one handle ever
//! appends to a given segment: concurrent handles (threads share one handle;
//! processes each own one) never interleave writes within a file.

use super::{fnv128, Fnv64, CACHE_LAYOUT_VERSION, CACHE_SCHEMA_VERSION};
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Magic prefix of every segment file.
pub(super) const SEG_MAGIC: &[u8; 8] = b"hcpack01";

/// Byte length of the segment header.
pub(super) const SEG_HEADER_LEN: u64 = 20;

/// Per-record magic ("HCRE" little-endian), the resynchronization anchor.
pub(super) const REC_MAGIC: u32 = 0x4552_4348;

/// Byte length of a record header (magic through checksum).
pub(super) const REC_HEADER_LEN: u64 = 44;

/// Segments roll to a fresh file once they pass this size, bounding both
/// the unit of compaction and the memory a full rescan touches at once.
pub(super) const SEGMENT_ROLL_BYTES: u64 = 64 * 1024 * 1024;

/// Sanity cap on a single record's key or payload length: nothing the
/// simulator produces comes near it, so a bigger declared length is
/// treated as tail damage rather than trusted as a skip distance.
const MAX_PART_BYTES: u32 = 32 * 1024 * 1024;

/// File name of segment `id`.
pub(super) fn segment_file_name(id: u64) -> String {
    format!("seg_{id:06}.pack")
}

/// Parse a segment id back out of a file name.
pub(super) fn parse_segment_id(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("seg_")?.strip_suffix(".pack")?;
    if rest.is_empty() || !rest.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    rest.parse().ok()
}

/// The segment header for the current versions.
pub(super) fn segment_header() -> [u8; SEG_HEADER_LEN as usize] {
    let mut header = [0u8; SEG_HEADER_LEN as usize];
    header[..8].copy_from_slice(SEG_MAGIC);
    header[8..12].copy_from_slice(&CACHE_LAYOUT_VERSION.to_le_bytes());
    header[12..16].copy_from_slice(&CACHE_SCHEMA_VERSION.to_le_bytes());
    header[16..20].copy_from_slice(&hc_sim::SIM_BEHAVIOR_VERSION.to_le_bytes());
    header
}

/// One fully framed record, ready to append.
pub(super) fn encode_record(
    digest: u128,
    stamp_millis: u64,
    key: &[u8],
    payload: &[u8],
) -> Vec<u8> {
    let mut record = Vec::with_capacity(REC_HEADER_LEN as usize + key.len() + payload.len());
    record.extend_from_slice(&REC_MAGIC.to_le_bytes());
    record.extend_from_slice(&digest.to_le_bytes());
    record.extend_from_slice(&(key.len() as u32).to_le_bytes());
    record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    record.extend_from_slice(&stamp_millis.to_le_bytes());
    let mut sum = Fnv64::new();
    sum.update(&record[4..36]); // digest, lengths, stamp
    sum.update(key);
    sum.update(payload);
    record.extend_from_slice(&sum.finish().to_le_bytes());
    record.extend_from_slice(key);
    record.extend_from_slice(payload);
    record
}

/// One record recovered by a scan.
#[derive(Debug, Clone)]
pub(super) struct ScannedRecord {
    pub digest: u128,
    /// Offset of the record (its magic) within the segment file.
    pub offset: u64,
    /// Total framed length (header + key + payload).
    pub len: u64,
    pub stamp_millis: u64,
    /// The payload's recorded `elapsed_nanos` (0 when unreadable) — scans
    /// lift it into the index so cost-aware GC never re-reads segments.
    pub cost_nanos: u64,
}

/// Pull the recorded simulation cost out of a record payload.  Best
/// effort: a payload that does not parse, or carries no `elapsed_nanos`,
/// ranks as free-to-recompute rather than failing the scan.
fn payload_cost_nanos(payload: &[u8]) -> u64 {
    std::str::from_utf8(payload)
        .ok()
        .and_then(|text| serde::json::parse(text).ok())
        .and_then(|value| match value.get("elapsed_nanos") {
            Some(serde::Value::UInt(n)) => Some(*n),
            _ => None,
        })
        .unwrap_or(0)
}

/// What scanning (part of) a segment found.
#[derive(Debug, Default)]
pub(super) struct ScanOutcome {
    pub records: Vec<ScannedRecord>,
    /// End of the last structurally sound record — the truncation point if
    /// the tail beyond it is torn.
    pub valid_len: u64,
    /// Fully present records dropped for checksum/digest mismatch.
    pub corrupt: u64,
    /// The file ends in an incomplete record (an interrupted append).
    pub torn_tail: bool,
    /// The scan started at the segment header.
    pub from_header: bool,
}

/// One fully present record, borrowed from the buffer it was parsed from.
#[derive(Debug)]
pub(super) struct Record<'a> {
    pub digest: u128,
    /// Total framed length (header + key + payload).
    pub len: u64,
    pub stamp_millis: u64,
    pub key: &'a [u8],
    pub payload: &'a [u8],
    /// The stored checksum matches the record's bytes.
    pub checksum_holds: bool,
}

impl Record<'_> {
    /// Whether the checksum holds and the stored key hashes to the
    /// record's digest: what a scan accepts.  A lookup checks the checksum
    /// and compares the stored key with the probe's bytes instead, which
    /// under the probe's digest implies the second half.
    fn sound(&self) -> bool {
        self.checksum_holds && fnv128(self.key) == self.digest
    }
}

/// Parse the record at `buf[offset..]`.  `None` means the bytes cannot be
/// trusted at all: bad magic, absurd length, or a record running past EOF.
fn parse_record_at(buf: &[u8], offset: usize) -> Option<Record<'_>> {
    let header_end = offset.checked_add(REC_HEADER_LEN as usize)?;
    if header_end > buf.len() {
        return None;
    }
    let word = |at: usize, n: usize| -> &[u8] { &buf[offset + at..offset + at + n] };
    let magic = u32::from_le_bytes(word(0, 4).try_into().unwrap_or_default());
    if magic != REC_MAGIC {
        return None;
    }
    let digest = u128::from_le_bytes(word(4, 16).try_into().unwrap_or_default());
    let key_len = u32::from_le_bytes(word(20, 4).try_into().unwrap_or_default());
    let payload_len = u32::from_le_bytes(word(24, 4).try_into().unwrap_or_default());
    let stamp_millis = u64::from_le_bytes(word(28, 8).try_into().unwrap_or_default());
    let checksum = u64::from_le_bytes(word(36, 8).try_into().unwrap_or_default());
    if key_len > MAX_PART_BYTES || payload_len > MAX_PART_BYTES {
        return None;
    }
    let total = REC_HEADER_LEN + key_len as u64 + payload_len as u64;
    let end = offset.checked_add(total as usize)?;
    if end > buf.len() {
        return None;
    }
    let key = &buf[header_end..header_end + key_len as usize];
    let payload = &buf[header_end + key_len as usize..end];
    let mut sum = Fnv64::new();
    sum.update(&buf[offset + 4..offset + 36]);
    sum.update(key);
    sum.update(payload);
    Some(Record {
        digest,
        len: total,
        stamp_millis,
        key,
        payload,
        checksum_holds: sum.finish() == checksum,
    })
}

/// Scan `buf` (the raw bytes of a segment file) from `start` — which must
/// sit on a record boundary, typically [`SEG_HEADER_LEN`] or a previously
/// reported `valid_len` — recovering every sound record.
pub(super) fn scan_records(buf: &[u8], start: u64) -> ScanOutcome {
    let mut outcome = ScanOutcome {
        valid_len: start,
        from_header: start == SEG_HEADER_LEN,
        ..ScanOutcome::default()
    };
    let mut offset = start as usize;
    while offset < buf.len() {
        let record = parse_record_at(buf, offset);
        if let Some(record) = record.as_ref().filter(|r| r.sound()) {
            outcome.records.push(ScannedRecord {
                digest: record.digest,
                offset: offset as u64,
                len: record.len,
                stamp_millis: record.stamp_millis,
                cost_nanos: payload_cost_nanos(record.payload),
            });
            offset += record.len as usize;
            outcome.valid_len = offset as u64;
            continue;
        }
        // Damaged.  A fully present record's own end is trusted when the
        // file ends there or another record starts there; otherwise its
        // lengths may be the damaged bytes, so resynchronize on the next
        // sound record instead, and only with none left skip by them.
        let declared_end = record.map(|r| offset + r.len as usize);
        let boundary =
            declared_end.filter(|&end| end == buf.len() || parse_record_at(buf, end).is_some());
        match boundary
            .or_else(|| resync(buf, offset + 1))
            .or(declared_end)
        {
            Some(next) => {
                outcome.corrupt += 1;
                offset = next;
                outcome.valid_len = offset as u64;
            }
            // Untrustworthy bytes with nothing sound after them: the file
            // just ends in an interrupted append.
            None => {
                outcome.torn_tail = true;
                return outcome;
            }
        }
    }
    outcome
}

/// Find the next offset at or after `from` where a sound record parses.
fn resync(buf: &[u8], from: usize) -> Option<usize> {
    let magic = REC_MAGIC.to_le_bytes();
    let mut at = from;
    while at + magic.len() <= buf.len() {
        if buf[at..at + magic.len()] == magic && parse_record_at(buf, at).is_some_and(|r| r.sound())
        {
            return Some(at);
        }
        at += 1;
    }
    None
}

/// Read a whole segment file and scan it from `start`.  A header that does
/// not match the current versions yields an empty outcome (the segment is
/// ignored, not an error: version gating happened at the manifest already,
/// so this only catches foreign files).
pub(super) fn scan_segment(path: &Path, start: u64) -> std::io::Result<ScanOutcome> {
    let buf = std::fs::read(path)?;
    if buf.len() < SEG_HEADER_LEN as usize || buf[..8] != *SEG_MAGIC {
        return Ok(ScanOutcome::default());
    }
    if buf[8..20] != segment_header()[8..20] {
        return Ok(ScanOutcome::default());
    }
    Ok(scan_records(&buf, start.max(SEG_HEADER_LEN)))
}

/// One positioned read of the `len`-byte record at `offset` through an open
/// segment file.  The caller verifies the bytes with [`verify_read`].
pub(super) fn read_at(file: &File, offset: u64, len: u64) -> Option<Vec<u8>> {
    let mut buf = vec![0u8; usize::try_from(len).ok()?];
    read_exact_at(file, &mut buf, offset).ok()?;
    Some(buf)
}

#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

/// Targets without a positioned read move the descriptor's shared cursor,
/// so concurrent reads through one descriptor can interleave; a read that
/// did fails verification, which costs a retry or a re-simulation, never
/// wrong data.
#[cfg(not(unix))]
fn read_exact_at(mut file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    file.seek(SeekFrom::Start(offset))?;
    file.read_exact(buf)
}

/// Verify a record read back by [`read_at`]: framing that spans exactly
/// `buf` and a checksum that holds.  The caller compares the digest and the
/// stored key with its probe.
pub(super) fn verify_read(buf: &[u8]) -> Option<Record<'_>> {
    parse_record_at(buf, 0).filter(|record| record.checksum_holds && record.len == buf.len() as u64)
}

/// The one handle allowed to append to its segment (created `create_new`).
#[derive(Debug)]
pub(super) struct SegmentWriter {
    pub id: u64,
    file: File,
    /// Bytes written so far — the offset the next record lands at.
    pub len: u64,
}

impl SegmentWriter {
    /// Create a fresh segment, picking the first unused id at or after
    /// `next_id`.  `create_new` makes allocation race-free across handles
    /// and processes sharing the directory.
    pub(super) fn create(segments_dir: &Path, mut next_id: u64) -> std::io::Result<SegmentWriter> {
        loop {
            let path = segments_dir.join(segment_file_name(next_id));
            match File::options().create_new(true).append(true).open(&path) {
                Ok(mut file) => {
                    file.write_all(&segment_header())?;
                    return Ok(SegmentWriter {
                        id: next_id,
                        file,
                        len: SEG_HEADER_LEN,
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    next_id = next_id.checked_add(1).ok_or(e)?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Append one framed record; returns the offset it landed at.  One
    /// `write_all`, so a crash leaves a clean prefix, never an interleaving.
    pub(super) fn append(&mut self, record: &[u8]) -> std::io::Result<u64> {
        let offset = self.len;
        self.file.write_all(record)?;
        self.len += record.len() as u64;
        Ok(offset)
    }

    /// Whether the segment should roll to a fresh file before another write.
    pub(super) fn should_roll(&self) -> bool {
        self.len >= SEGMENT_ROLL_BYTES
    }
}

/// The path of segment `id` under `root/segments/`.
pub(super) fn segment_path(segments_dir: &Path, id: u64) -> PathBuf {
    segments_dir.join(segment_file_name(id))
}
