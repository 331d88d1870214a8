//! The versioned, checksummed `.uoptrace` binary µop-trace format.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     8  magic "HCUTRC01"
//!      8     4  format_version (u32, currently 1)
//!     12     4  isa_encoding_version (u32, hc_isa::ISA_ENCODING_VERSION)
//!     16     8  uop_count (u64; u64::MAX while the file is being written)
//!     24     8  content_digest (u64, FNV-1a over all frame payload bytes)
//!     32     8  header_checksum (u64, FNV-1a over bytes 0..32 ++ label block,
//!               with the checksum field itself zeroed during hashing — the
//!               field sits after the hashed prefix so no masking is needed)
//!     40     *  label block: name_len (u16) ++ name ++ has_category (u8)
//!               [++ category_len (u16) ++ category]
//!      *     *  frames …
//! ```
//!
//! Each frame is `frame_magic (u32) ++ uop_count (u32) ++ payload_len (u32)
//! ++ payload ++ payload_checksum (u64 FNV-1a)` where the payload is
//! [`hc_isa::codec`]-encoded µops.  Frames hold at most [`FRAME_UOPS`] µops,
//! so a reader needs O(frame) memory.
//!
//! The writer stamps `uop_count = u64::MAX` until [`TraceWriter::finish`]
//! patches the real count, digest and checksum — a crashed writer leaves a
//! file that every reader rejects as unfinished.  For files damaged *after* a
//! clean finish (interrupted copies, truncated downloads), [`recover`]
//! mirrors the packed cache segments' torn-tail rule: damage extending to end
//! of file with no later sound frame is a recoverable torn tail; damage with
//! a sound frame after it is mid-file corruption and is refused.

use crate::source::{TraceHeader, TraceSource};
use crate::trace::Trace;
use hc_isa::codec::{decode_uops, encode_uop, CodecError};
use hc_isa::{DynUop, ISA_ENCODING_VERSION};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// File magic: "HCUTRC" + two digits of on-disk layout generation.
pub const TRACE_MAGIC: [u8; 8] = *b"HCUTRC01";
/// Version of the container layout (header + framing).  The µop payload
/// encoding is versioned separately by [`ISA_ENCODING_VERSION`].
pub const TRACE_FORMAT_VERSION: u32 = 1;
/// Maximum µops per frame.
pub const FRAME_UOPS: usize = 4096;

const FIXED_HEADER_LEN: usize = 40;
const FRAME_MAGIC: u32 = u32::from_le_bytes(*b"UFRM");
const FRAME_HEADER_LEN: usize = 12;
const FRAME_TRAILER_LEN: usize = 8;
/// Upper bound on a sane frame payload (a full frame of worst-case µops is
/// well under 1 MiB); anything larger is treated as framing corruption
/// rather than attempted as an allocation.
const MAX_FRAME_PAYLOAD: u32 = 8 << 20;

/// A typed trace-format failure.  Decoding never panics: every way a file can
/// be wrong maps to one of these.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(String),
    /// The file does not start with [`TRACE_MAGIC`].
    BadMagic,
    /// The container layout version is not one this build reads.
    UnsupportedFormatVersion {
        /// Version recorded in the file.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The µop payload encoding version is not one this build reads.
    UnsupportedIsaEncoding {
        /// Version recorded in the file.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The fixed header or label block is malformed.
    CorruptHeader(String),
    /// A frame failed its framing or checksum checks.
    CorruptFrame {
        /// Byte offset of the frame in the file.
        offset: u64,
        /// What was wrong with it.
        reason: String,
    },
    /// The file ended mid-frame.
    Truncated {
        /// Byte offset where the truncation was detected.
        offset: u64,
    },
    /// The frames decode to a different µop count than the header records.
    CountMismatch {
        /// Count recorded in the header.
        header: u64,
        /// Count actually decoded.
        decoded: u64,
    },
    /// The frame payloads hash to a different digest than the header records.
    DigestMismatch,
    /// A checksum-sound frame contained an invalid µop encoding.
    Codec(CodecError),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::BadMagic => write!(f, "not a .uoptrace file (bad magic)"),
            TraceError::UnsupportedFormatVersion { found, supported } => {
                write!(
                    f,
                    "unsupported trace format version {found} (supported: {supported})"
                )
            }
            TraceError::UnsupportedIsaEncoding { found, supported } => {
                write!(
                    f,
                    "unsupported ISA encoding version {found} (supported: {supported})"
                )
            }
            TraceError::CorruptHeader(reason) => write!(f, "corrupt trace header: {reason}"),
            TraceError::CorruptFrame { offset, reason } => {
                write!(f, "corrupt frame at byte {offset}: {reason}")
            }
            TraceError::Truncated { offset } => write!(f, "trace file truncated at byte {offset}"),
            TraceError::CountMismatch { header, decoded } => {
                write!(
                    f,
                    "header records {header} µops but frames decode {decoded}"
                )
            }
            TraceError::DigestMismatch => write!(f, "content digest mismatch"),
            TraceError::Codec(e) => write!(f, "µop decode error: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> TraceError {
        TraceError::Io(e.to_string())
    }
}

impl From<CodecError> for TraceError {
    fn from(e: CodecError) -> TraceError {
        TraceError::Codec(e)
    }
}

/// Incremental FNV-1a/64 (the same hash the packed cache segments use).
#[derive(Clone)]
struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

/// Everything the fixed header and label block record about a trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceFileHeader {
    /// Trace name.
    pub name: String,
    /// Workload category (possibly a `mix(...)` label), if any.
    pub category: Option<String>,
    /// Total µops in the file.
    pub uop_count: u64,
    /// FNV-1a digest over all frame payload bytes — the content address.
    pub content_digest: u64,
    /// Container layout version.
    pub format_version: u32,
    /// µop payload encoding version.
    pub isa_encoding_version: u32,
    /// Byte offset of the first frame.
    pub frames_offset: u64,
}

impl TraceFileHeader {
    /// The [`TraceHeader`] a streaming consumer sees for this file.
    pub fn to_trace_header(&self) -> TraceHeader {
        TraceHeader {
            name: self.name.clone(),
            category: self.category.clone(),
            len: self.uop_count,
            digest: Some(self.content_digest),
        }
    }
}

fn label_block(name: &str, category: Option<&str>) -> Result<Vec<u8>, TraceError> {
    let mut block = Vec::new();
    let name_len = u16::try_from(name.len())
        .map_err(|_| TraceError::CorruptHeader("trace name longer than 64 KiB".into()))?;
    block.extend_from_slice(&name_len.to_le_bytes());
    block.extend_from_slice(name.as_bytes());
    match category {
        Some(cat) => {
            let cat_len = u16::try_from(cat.len())
                .map_err(|_| TraceError::CorruptHeader("category longer than 64 KiB".into()))?;
            block.push(1);
            block.extend_from_slice(&cat_len.to_le_bytes());
            block.extend_from_slice(cat.as_bytes());
        }
        None => block.push(0),
    }
    Ok(block)
}

fn fixed_header(uop_count: u64, digest: u64, label: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(FIXED_HEADER_LEN + label.len());
    bytes.extend_from_slice(&TRACE_MAGIC);
    bytes.extend_from_slice(&TRACE_FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&ISA_ENCODING_VERSION.to_le_bytes());
    bytes.extend_from_slice(&uop_count.to_le_bytes());
    bytes.extend_from_slice(&digest.to_le_bytes());
    let mut hasher = Fnv64::new();
    hasher.update(&bytes);
    hasher.update(label);
    bytes.extend_from_slice(&hasher.finish().to_le_bytes());
    bytes.extend_from_slice(label);
    bytes
}

/// Buffered streaming writer for `.uoptrace` files.
pub struct TraceWriter {
    file: BufWriter<File>,
    label: Vec<u8>,
    digest: Fnv64,
    uop_count: u64,
    pending: Vec<u8>,
    pending_uops: u32,
}

impl TraceWriter {
    /// Create `path` and write the (unfinished) header.  The file is invalid
    /// to every reader until [`TraceWriter::finish`] succeeds.
    pub fn create(
        path: &Path,
        name: &str,
        category: Option<&str>,
    ) -> Result<TraceWriter, TraceError> {
        let label = label_block(name, category)?;
        let mut file = BufWriter::new(File::create(path)?);
        file.write_all(&fixed_header(u64::MAX, 0, &label))?;
        Ok(TraceWriter {
            file,
            label,
            digest: Fnv64::new(),
            uop_count: 0,
            pending: Vec::new(),
            pending_uops: 0,
        })
    }

    /// Append one µop.
    pub fn push(&mut self, duop: &DynUop) -> Result<(), TraceError> {
        encode_uop(&mut self.pending, duop);
        self.pending_uops += 1;
        self.uop_count += 1;
        if self.pending_uops as usize >= FRAME_UOPS {
            self.flush_frame()?;
        }
        Ok(())
    }

    /// Append a slice of µops.
    pub fn push_all(&mut self, uops: &[DynUop]) -> Result<(), TraceError> {
        for duop in uops {
            self.push(duop)?;
        }
        Ok(())
    }

    fn flush_frame(&mut self) -> Result<(), TraceError> {
        if self.pending_uops == 0 {
            return Ok(());
        }
        self.file.write_all(&FRAME_MAGIC.to_le_bytes())?;
        self.file.write_all(&self.pending_uops.to_le_bytes())?;
        self.file
            .write_all(&(self.pending.len() as u32).to_le_bytes())?;
        self.file.write_all(&self.pending)?;
        self.file.write_all(&fnv64(&self.pending).to_le_bytes())?;
        self.digest.update(&self.pending);
        self.pending.clear();
        self.pending_uops = 0;
        Ok(())
    }

    /// Flush the last frame, patch the real count/digest/checksum into the
    /// header, and return the finished header.
    pub fn finish(mut self) -> Result<TraceFileHeader, TraceError> {
        self.flush_frame()?;
        let header = fixed_header(self.uop_count, self.digest.finish(), &self.label);
        self.file.flush()?;
        let mut file = self.file.get_ref().try_clone().map_err(TraceError::from)?;
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&header)?;
        file.sync_all()?;
        parse_fixed_header(&header).map(|mut fh| {
            fh.frames_offset = header.len() as u64;
            fh
        })
    }
}

/// Parse a fully buffered header (fixed part + label block).
fn parse_fixed_header(bytes: &[u8]) -> Result<TraceFileHeader, TraceError> {
    if bytes.len() < FIXED_HEADER_LEN {
        return Err(TraceError::CorruptHeader(
            "shorter than fixed header".into(),
        ));
    }
    if bytes[..8] != TRACE_MAGIC {
        return Err(TraceError::BadMagic);
    }
    let u32_at = |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
    let u64_at = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
    let format_version = u32_at(8);
    if format_version != TRACE_FORMAT_VERSION {
        return Err(TraceError::UnsupportedFormatVersion {
            found: format_version,
            supported: TRACE_FORMAT_VERSION,
        });
    }
    let isa_encoding_version = u32_at(12);
    if isa_encoding_version != ISA_ENCODING_VERSION {
        return Err(TraceError::UnsupportedIsaEncoding {
            found: isa_encoding_version,
            supported: ISA_ENCODING_VERSION,
        });
    }
    let uop_count = u64_at(16);
    let content_digest = u64_at(24);
    let stored_checksum = u64_at(32);

    let mut pos = FIXED_HEADER_LEN;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8], TraceError> {
        let end = pos
            .checked_add(n)
            .filter(|&e| e <= bytes.len())
            .ok_or_else(|| TraceError::CorruptHeader("label block truncated".into()))?;
        let slice = &bytes[*pos..end];
        *pos = end;
        Ok(slice)
    };
    let name_len = u16::from_le_bytes(take(&mut pos, 2)?.try_into().unwrap()) as usize;
    let name = String::from_utf8(take(&mut pos, name_len)?.to_vec())
        .map_err(|_| TraceError::CorruptHeader("trace name is not UTF-8".into()))?;
    let category = match take(&mut pos, 1)?[0] {
        0 => None,
        1 => {
            let cat_len = u16::from_le_bytes(take(&mut pos, 2)?.try_into().unwrap()) as usize;
            Some(
                String::from_utf8(take(&mut pos, cat_len)?.to_vec())
                    .map_err(|_| TraceError::CorruptHeader("category is not UTF-8".into()))?,
            )
        }
        other => {
            return Err(TraceError::CorruptHeader(format!(
                "bad has_category byte {other}"
            )))
        }
    };

    let mut hasher = Fnv64::new();
    hasher.update(&bytes[..32]);
    hasher.update(&bytes[FIXED_HEADER_LEN..pos]);
    if hasher.finish() != stored_checksum {
        return Err(TraceError::CorruptHeader("header checksum mismatch".into()));
    }
    if uop_count == u64::MAX {
        return Err(TraceError::CorruptHeader(
            "file was never finished (count placeholder still present)".into(),
        ));
    }
    Ok(TraceFileHeader {
        name,
        category,
        uop_count,
        content_digest,
        format_version,
        isa_encoding_version,
        frames_offset: pos as u64,
    })
}

/// Read and validate just the header of `path` — a cheap fixed-size read, no
/// frame walk.  This is what cache-key resolution uses.
pub fn read_header(path: &Path) -> Result<TraceFileHeader, TraceError> {
    let mut file = File::open(path)?;
    // The label block is bounded by 2×64 KiB + 5 bytes; one 256 KiB read
    // covers any valid header.
    let mut buf = vec![0u8; FIXED_HEADER_LEN + 2 * (u16::MAX as usize) + 5];
    let mut read = 0;
    while read < buf.len() {
        let n = file.read(&mut buf[read..])?;
        if n == 0 {
            break;
        }
        read += n;
    }
    parse_fixed_header(&buf[..read])
}

struct FrameHeader {
    uops: u32,
    payload_len: u32,
}

/// Read one frame header at the reader's position.  `Ok(None)` at clean EOF.
fn read_frame_header(
    reader: &mut impl Read,
    offset: u64,
) -> Result<Option<FrameHeader>, TraceError> {
    let mut head = [0u8; FRAME_HEADER_LEN];
    let mut got = 0;
    while got < head.len() {
        let n = reader.read(&mut head[got..])?;
        if n == 0 {
            if got == 0 {
                return Ok(None);
            }
            return Err(TraceError::Truncated {
                offset: offset + got as u64,
            });
        }
        got += n;
    }
    let magic = u32::from_le_bytes(head[0..4].try_into().unwrap());
    if magic != FRAME_MAGIC {
        return Err(TraceError::CorruptFrame {
            offset,
            reason: format!("bad frame magic {magic:#010x}"),
        });
    }
    let uops = u32::from_le_bytes(head[4..8].try_into().unwrap());
    let payload_len = u32::from_le_bytes(head[8..12].try_into().unwrap());
    if payload_len > MAX_FRAME_PAYLOAD || uops as usize > FRAME_UOPS {
        return Err(TraceError::CorruptFrame {
            offset,
            reason: format!("implausible frame ({uops} µops, {payload_len} payload bytes)"),
        });
    }
    Ok(Some(FrameHeader { uops, payload_len }))
}

/// Read a frame's payload + checksum trailer; verifies the checksum.
fn read_frame_body(
    reader: &mut impl Read,
    offset: u64,
    header: &FrameHeader,
) -> Result<Vec<u8>, TraceError> {
    let body_len = header.payload_len as usize + FRAME_TRAILER_LEN;
    let mut body = vec![0u8; body_len];
    let mut got = 0;
    while got < body_len {
        let n = reader.read(&mut body[got..])?;
        if n == 0 {
            return Err(TraceError::Truncated {
                offset: offset + FRAME_HEADER_LEN as u64 + got as u64,
            });
        }
        got += n;
    }
    let payload = &body[..header.payload_len as usize];
    let stored = u64::from_le_bytes(body[header.payload_len as usize..].try_into().unwrap());
    if fnv64(payload) != stored {
        return Err(TraceError::CorruptFrame {
            offset,
            reason: "payload checksum mismatch".into(),
        });
    }
    body.truncate(header.payload_len as usize);
    Ok(body)
}

/// Walk every frame of `path`, verifying framing, checksums, the content
/// digest and the µop count against the header.  Payloads are hashed and
/// counted but not decoded.
fn validate_frames(path: &Path, header: &TraceFileHeader) -> Result<(), TraceError> {
    let mut reader = BufReader::new(File::open(path)?);
    reader.seek(SeekFrom::Start(header.frames_offset))?;
    let mut offset = header.frames_offset;
    let mut digest = Fnv64::new();
    let mut uops = 0u64;
    while let Some(frame) = read_frame_header(&mut reader, offset)? {
        let payload = read_frame_body(&mut reader, offset, &frame)?;
        digest.update(&payload);
        uops += frame.uops as u64;
        offset += (FRAME_HEADER_LEN + payload.len() + FRAME_TRAILER_LEN) as u64;
    }
    if uops != header.uop_count {
        return Err(TraceError::CountMismatch {
            header: header.uop_count,
            decoded: uops,
        });
    }
    if digest.finish() != header.content_digest {
        return Err(TraceError::DigestMismatch);
    }
    Ok(())
}

/// A streaming [`TraceSource`] over a finished `.uoptrace` file.
///
/// `open` validates the whole file up front (header checksum, versions, every
/// frame checksum, content digest, µop count) so that a source handed to a
/// multi-hour campaign fails at spec-resolution time, not mid-run; streaming
/// then re-reads frames with O(frame) memory.
pub struct FileSource {
    path: PathBuf,
    header: TraceHeader,
    file_header: TraceFileHeader,
    reader: BufReader<File>,
    offset: u64,
    frame: Vec<DynUop>,
    frame_pos: usize,
}

impl FileSource {
    /// Open and fully validate `path`.
    pub fn open(path: &Path) -> Result<FileSource, TraceError> {
        let file_header = read_header(path)?;
        validate_frames(path, &file_header)?;
        let mut reader = BufReader::new(File::open(path)?);
        reader.seek(SeekFrom::Start(file_header.frames_offset))?;
        Ok(FileSource {
            path: path.to_path_buf(),
            header: file_header.to_trace_header(),
            offset: file_header.frames_offset,
            file_header,
            reader,
            frame: Vec::new(),
            frame_pos: 0,
        })
    }

    /// The on-disk header.
    pub fn file_header(&self) -> &TraceFileHeader {
        &self.file_header
    }

    /// The file this source reads.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn load_next_frame(&mut self) -> Result<bool, TraceError> {
        let Some(frame) = read_frame_header(&mut self.reader, self.offset)? else {
            return Ok(false);
        };
        let payload = read_frame_body(&mut self.reader, self.offset, &frame)?;
        let uops = decode_uops(&payload)?;
        if uops.len() != frame.uops as usize {
            return Err(TraceError::CorruptFrame {
                offset: self.offset,
                reason: format!(
                    "frame header records {} µops but payload decodes {}",
                    frame.uops,
                    uops.len()
                ),
            });
        }
        self.offset += (FRAME_HEADER_LEN + payload.len() + FRAME_TRAILER_LEN) as u64;
        self.frame = uops;
        self.frame_pos = 0;
        Ok(true)
    }
}

impl TraceSource for FileSource {
    fn header(&self) -> &TraceHeader {
        &self.header
    }

    fn reset(&mut self) -> Result<(), TraceError> {
        self.reader
            .seek(SeekFrom::Start(self.file_header.frames_offset))?;
        self.offset = self.file_header.frames_offset;
        self.frame.clear();
        self.frame_pos = 0;
        Ok(())
    }

    fn fill(&mut self, out: &mut Vec<DynUop>, max: usize) -> Result<usize, TraceError> {
        let mut appended = 0;
        while appended < max {
            if self.frame_pos >= self.frame.len() && !self.load_next_frame()? {
                break;
            }
            let take = (max - appended).min(self.frame.len() - self.frame_pos);
            out.extend_from_slice(&self.frame[self.frame_pos..self.frame_pos + take]);
            self.frame_pos += take;
            appended += take;
        }
        Ok(appended)
    }
}

/// Stream `source` into a new `.uoptrace` file at `path`.
pub fn record_source(
    path: &Path,
    source: &mut dyn TraceSource,
) -> Result<TraceFileHeader, TraceError> {
    source.reset()?;
    let (name, category) = {
        let h = source.header();
        (h.name.clone(), h.category.clone())
    };
    let mut writer = TraceWriter::create(path, &name, category.as_deref())?;
    let mut chunk = Vec::new();
    loop {
        chunk.clear();
        if source.fill(&mut chunk, crate::source::TRACE_SOURCE_CHUNK)? == 0 {
            break;
        }
        writer.push_all(&chunk)?;
    }
    writer.finish()
}

/// Write a materialized trace to `path`.
pub fn write_trace(path: &Path, trace: &Trace) -> Result<TraceFileHeader, TraceError> {
    let mut writer = TraceWriter::create(path, &trace.name, trace.category.as_deref())?;
    writer.push_all(&trace.uops)?;
    writer.finish()
}

/// Load a `.uoptrace` file fully into memory.
pub fn load_trace(path: &Path) -> Result<Trace, TraceError> {
    let mut source = FileSource::open(path)?;
    let uops = crate::source::drain_source(&mut source)?;
    let mut trace = Trace::from_uops(source.header.name.clone(), uops);
    trace.category = source.header.category.clone();
    Ok(trace)
}

/// What a torn-tail scan found in a damaged file.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredTail {
    /// µops readable from the sound frames before the damage.
    pub sound_uops: u64,
    /// Sound frames before the damage.
    pub sound_frames: u64,
    /// Byte offset where the damage (or clean EOF) begins.
    pub tail_offset: u64,
    /// Whether any bytes had to be discarded (false for an undamaged file).
    pub torn: bool,
}

/// Classify damage in `path` the way the packed cache segments classify a
/// torn tail: walk frames until the first unsound one, then scan forward for
/// any later frame that still checksums clean.
///
/// * File walks clean to EOF → `Ok` with `torn: false`.
/// * Damage extends to EOF with no later sound frame → `Ok` with `torn:
///   true`; everything before `tail_offset` is salvageable.
/// * A sound frame exists *after* the damage → mid-file corruption; returns
///   [`TraceError::CorruptFrame`] because silently dropping interior µops
///   would change the workload.
///
/// The header itself must still be valid (a file with a damaged header
/// records nothing trustworthy to salvage).
pub fn recover(path: &Path) -> Result<RecoveredTail, TraceError> {
    let header = read_header(path)?;
    let bytes = std::fs::read(path)?;
    // The length and µop count of the frame starting at `at`, if it is
    // sound: the frame readers every other walk uses, over the buffered
    // bytes.
    let sound_frame = |at: usize| {
        let mut rest = &bytes[at..];
        let frame = read_frame_header(&mut rest, at as u64).ok()??;
        // A frame that claims more bytes than remain is torn: refuse it
        // before `read_frame_body` sizes a buffer for the claim, which the
        // damage scan below would otherwise pay at every candidate.
        if rest.len() < frame.payload_len as usize + FRAME_TRAILER_LEN {
            return None;
        }
        let payload = read_frame_body(&mut rest, at as u64, &frame).ok()?;
        Some((
            FRAME_HEADER_LEN + payload.len() + FRAME_TRAILER_LEN,
            frame.uops,
        ))
    };
    let mut offset = header.frames_offset as usize;
    let mut sound_uops = 0u64;
    let mut sound_frames = 0u64;
    while offset < bytes.len() {
        let Some((frame_len, uops)) = sound_frame(offset) else {
            // Damage. A sound frame anywhere after it means mid-file
            // corruption; none means a torn tail.  Only an offset holding
            // the frame magic can start one, so the others skip the reader
            // (and the error it would format).
            let magic = FRAME_MAGIC.to_le_bytes();
            let later = (offset + 1..bytes.len())
                .find(|&cand| bytes[cand..].starts_with(&magic) && sound_frame(cand).is_some());
            if let Some(cand) = later {
                return Err(TraceError::CorruptFrame {
                    offset: offset as u64,
                    reason: format!(
                        "unsound frame is followed by a sound frame at byte {cand} \
                         (mid-file corruption, not a torn tail)"
                    ),
                });
            }
            return Ok(RecoveredTail {
                sound_uops,
                sound_frames,
                tail_offset: offset as u64,
                torn: true,
            });
        };
        sound_uops += uops as u64;
        sound_frames += 1;
        offset += frame_len;
    }
    Ok(RecoveredTail {
        sound_uops,
        sound_frames,
        tail_offset: bytes.len() as u64,
        torn: false,
    })
}
