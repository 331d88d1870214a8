//! Hostile inputs for the JSON decoders a client or a file can reach.
//!
//! Real documents — a campaign spec, a report, a shard report and a cell
//! cache's `index.json`, all produced at a small trace length — are damaged
//! the way a torn write, a flipped byte or a malicious client would damage
//! them: truncated anywhere, characters replaced, slices spliced in from
//! elsewhere, numbers inflated, or buried in deep nesting.  Every damaged
//! text stays valid UTF-8, because every decoder takes a `&str`.
//!
//! Every decoder must answer every damaged document with a value or a typed
//! error; a panic fails the test.  A cache whose `index.json` was damaged
//! must still open and replay its campaign byte for byte, rescanning its
//! segments where the snapshot cannot be trusted.  A checkpoint directory
//! whose manifest or shard file was damaged must make every reader of it
//! fail with a typed error or report the campaign's bytes.

use hc_core::cache::{CacheStats, GcPolicy};
use hc_core::fanout::{FanoutWorker, MergeCoordinator};
use hc_core::shard::{ShardPlan, MAX_SHARD_COUNT};
use hc_serve::{client, http, protocol, ServeOptions, Server};
use hc_trace::{KernelKind, PhaseSchedule, TraceFileHeader, WorkloadCategory};
use helper_cluster::prelude::*;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

const TRACE_LEN: usize = 200;

/// A spec that exercises every synthesized selector shape and the scenario
/// axis, so its spec, report and shard documents carry every field.
fn spec() -> CampaignSpec {
    let custom = WorkloadProfile::new(
        "custom",
        vec![(KernelKind::WordSum, 1.0), (KernelKind::Checksum, 2.5)],
    )
    .with_category("enc");
    CampaignBuilder::new("hostile \"µ\" 🚀")
        .policy(PolicyKind::Ir)
        .policy(PolicyKind::P888)
        .spec(SpecBenchmark::Gzip)
        .category_app(WorkloadCategory::Office, 3)
        .profile(custom.clone())
        .phased(
            PhaseSchedule::new("phased")
                .phase(custom, 80)
                .phase(SpecBenchmark::Mcf.profile(1), 60),
        )
        .trace_len(TRACE_LEN)
        .sensitivity_helper_geometry()
        .build()
        .expect("valid spec")
}

/// A smaller spec for the cache replays, which re-run per damaged index.
fn cached_spec() -> CampaignSpec {
    CampaignBuilder::new("hostile-cache")
        .policy(PolicyKind::Ir)
        .policy(PolicyKind::P888)
        .spec(SpecBenchmark::Gzip)
        .category_app(WorkloadCategory::Kernels, 1)
        .trace_len(TRACE_LEN)
        .build()
        .expect("valid spec")
}

/// The pristine documents every case starts from, built once.
fn documents() -> &'static [String] {
    static DOCUMENTS: OnceLock<Vec<String>> = OnceLock::new();
    DOCUMENTS.get_or_init(|| {
        let spec = spec();
        let report = CampaignRunner::new().run(&spec).expect("report");
        let plan = ShardPlan::round_robin(cached_spec().traces.len(), 2).expect("plan");
        let shard = ShardReport::run(&cached_spec(), &plan, 1, None, None).expect("shard report");
        vec![
            spec.to_json(),
            cached_spec().to_json(),
            report.to_json(),
            shard.to_json(),
            cache_fixture().index.clone(),
        ]
    })
}

/// A filled cache, held in memory: every file of its directory, the
/// `index.json` its handle wrote on drop, and the report it replays to.
struct CacheFixture {
    files: Vec<(PathBuf, Vec<u8>)>,
    index: String,
    report: String,
}

fn cache_fixture() -> &'static CacheFixture {
    static FIXTURE: OnceLock<CacheFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = scratch_dir("fixture");
        let cache = Arc::new(CellCache::open(&dir).expect("fresh cache"));
        let report = CampaignRunner::new()
            .with_cache(Arc::clone(&cache))
            .run(&cached_spec())
            .expect("cold run")
            .to_json();
        drop(cache);
        let index = std::fs::read_to_string(dir.join("index.json")).expect("snapshot on drop");
        let mut files = Vec::new();
        collect_files(&dir, &dir, &mut files);
        files.retain(|(path, _)| path != Path::new("index.json"));
        let _ = std::fs::remove_dir_all(&dir);
        CacheFixture {
            files,
            index,
            report,
        }
    })
}

fn collect_files(root: &Path, dir: &Path, out: &mut Vec<(PathBuf, Vec<u8>)>) {
    for entry in std::fs::read_dir(dir).expect("read dir") {
        let path = entry.expect("entry").path();
        if path.is_dir() {
            collect_files(root, &path, out);
        } else {
            let bytes = std::fs::read(&path).expect("read file");
            out.push((path.strip_prefix(root).unwrap().to_path_buf(), bytes));
        }
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hc_hostile_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The largest char boundary of `text` at or below `at`.
fn floor_boundary(text: &str, at: usize) -> usize {
    let mut at = at.min(text.len());
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// Characters that matter to a JSON decoder, plus multi-byte ones.
const PALETTE: &[&str] = &[
    "\"", "\\", "{", "}", "[", "]", ",", ":", "0", "9", "-", "+", "e", ".", " ", "n", "u", "x",
    "µ", "🚀", "\\u", "\\ud83d", "null", "true", "1e999", "-1",
];

/// Numbers a hostile writer would put where a count, offset or length goes.
const INFLATED: &[&str] = &[
    "18446744073709551615",
    "18446744073709551616",
    "9223372036854775807",
    "4294967296",
    "1000000000000",
    "-9223372036854775808",
    "1e308",
    "0",
];

/// Damage `text` in one of five ways, driven by `seed`.
fn mutate(text: &str, kind: u8, seed: u64) -> String {
    let mut rng = seed | 1;
    let mut next = |bound: usize| -> usize {
        // xorshift64: deterministic per seed, good enough to pick offsets.
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        (rng % bound.max(1) as u64) as usize
    };
    match kind {
        // Truncate, as a torn write leaves a file.
        0 => text[..floor_boundary(text, next(text.len() + 1))].to_string(),
        // Replace a few characters.
        1 => {
            let mut out = text.to_string();
            for _ in 0..1 + next(6) {
                let at = floor_boundary(&out, next(out.len()));
                let width = out[at..].chars().next().map_or(0, char::len_utf8);
                out.replace_range(at..at + width, PALETTE[next(PALETTE.len())]);
            }
            out
        }
        // Splice a slice of the document in somewhere else.
        2 => {
            let from = floor_boundary(text, next(text.len()));
            let to = floor_boundary(text, from + next(96));
            let at = floor_boundary(text, next(text.len()));
            let mut out = text.to_string();
            out.insert_str(at, &text[from..to]);
            out
        }
        // Inflate one number.
        3 => {
            let digits: Vec<usize> = text
                .char_indices()
                .filter(|(i, c)| {
                    c.is_ascii_digit() && (*i == 0 || !text.as_bytes()[i - 1].is_ascii_digit())
                })
                .map(|(i, _)| i)
                .collect();
            let Some(&start) = digits.get(next(digits.len())) else {
                return text.to_string();
            };
            let end = text[start..]
                .find(|c: char| !c.is_ascii_digit())
                .map_or(text.len(), |n| start + n);
            let mut out = text.to_string();
            out.replace_range(start..end, INFLATED[next(INFLATED.len())]);
            out
        }
        // Nest deeply, inside the document or around it.
        _ => {
            let depth = 100 + next(400);
            let opener = if next(2) == 0 { "[" } else { "{\"a\":" };
            let at = floor_boundary(text, next(text.len() + 1));
            let mut out = text[..at].to_string();
            out.push_str(&opener.repeat(depth));
            out.push_str(&text[at..]);
            out
        }
    }
}

/// Run `decode`, failing the test with the damaged input's origin if it
/// panics instead of returning.
fn no_panic<T>(what: &str, kind: u8, seed: u64, decode: impl FnOnce() -> T) -> T {
    match catch_unwind(AssertUnwindSafe(decode)) {
        Ok(value) => value,
        Err(_) => panic!("{what} panicked on mutation kind {kind}, seed {seed:#x}"),
    }
}

/// Every document decoder, over one damaged text.
fn decode_everything(text: &str, kind: u8, seed: u64) {
    no_panic("serde::json::parse", kind, seed, || {
        let _ = serde::json::parse(text);
    });
    no_panic("CampaignSpec::from_json", kind, seed, || {
        if let Ok(spec) = CampaignSpec::from_json(text) {
            // Validation reads only the decoded spec (the documents hold no
            // `File` rows), so it must be as total as the decoder.
            let _ = spec.validate();
            let _ = spec.cell_count();
        }
    });
    no_panic("CampaignReport::from_json", kind, seed, || {
        if let Ok(report) = CampaignReport::from_json(text) {
            let _ = report.to_json();
        }
    });
    no_panic("ShardReport::from_json", kind, seed, || {
        if let Ok(shard) = ShardReport::from_json(text) {
            let _ = shard.to_json();
        }
    });
}

#[test]
fn pristine_documents_decode() {
    let docs = documents();
    assert!(CampaignSpec::from_json(&docs[0]).is_ok());
    assert!(CampaignSpec::from_json(&docs[1]).is_ok());
    assert!(CampaignReport::from_json(&docs[2]).is_ok());
    assert!(ShardReport::from_json(&docs[3]).is_ok());
    assert!(serde::json::parse(&docs[4]).is_ok());
    // Each document is refused by the decoders of the other kinds with a
    // typed error rather than misread.
    assert!(CampaignReport::from_json(&docs[0]).is_err());
    assert!(ShardReport::from_json(&docs[2]).is_err());
    assert!(CampaignSpec::from_json(&docs[4]).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Every damaged document decodes or fails with a typed error, under
    /// every decoder.
    #[test]
    fn damaged_documents_decode_or_fail_typed(
        doc in 0usize..5,
        kind in 0u8..5,
        seed in any::<u64>(),
    ) {
        let damaged = mutate(&documents()[doc], kind, seed);
        decode_everything(&damaged, kind, seed);
    }
}

/// Copy the fixture cache into a fresh directory under `index` as its
/// snapshot, open it, replay the campaign and sweep it; the replayed report.
fn replay_with_index(tag: &str, index: &str, kind: u8, seed: u64) -> String {
    let fixture = cache_fixture();
    let dir = scratch_dir(tag);
    for (path, bytes) in &fixture.files {
        let path = dir.join(path);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, bytes).unwrap();
    }
    std::fs::write(dir.join("index.json"), index).unwrap();
    let replayed = no_panic("CellCache replay", kind, seed, || {
        let cache = Arc::new(CellCache::open(&dir).expect("a damaged index still opens"));
        let report = CampaignRunner::new()
            .with_cache(Arc::clone(&cache))
            .run(&cached_spec())
            .expect("warm run");
        let _ = cache.stats();
        let _ = cache.gc(&GcPolicy {
            max_bytes: Some(0),
            max_age: None,
            dry_run: true,
            compact: false,
        });
        report.to_json()
    });
    let _ = std::fs::remove_dir_all(&dir);
    replayed
}

/// Every numeric field of a snapshot's first segment and first entry, set
/// to each inflated value in turn: offsets and lengths past the end of the
/// segment, sums that overflow, stamps far in the future.
#[test]
fn inflated_index_fields_still_open_and_replay() {
    let fixture = cache_fixture();
    let entries = fixture.index.find("\"entries\"").expect("entries list");
    let fields = [
        ("segments", "\"id\":"),
        ("segments", "\"len\":"),
        ("entries", "\"segment\":"),
        ("entries", "\"offset\":"),
        ("entries", "\"len\":"),
        ("entries", "\"stamp\":"),
        ("entries", "\"cost\":"),
    ];
    for (list, field) in fields {
        let from = if list == "entries" { entries } else { 0 };
        let start = from + fixture.index[from..].find(field).expect("field") + field.len();
        let end = start
            + fixture.index[start..]
                .find(|c: char| !c.is_ascii_digit())
                .expect("number ends");
        for (i, inflated) in INFLATED.iter().enumerate() {
            let mut index = fixture.index.clone();
            index.replace_range(start..end, inflated);
            let replayed = replay_with_index("inflated", &index, 3, i as u64);
            assert_eq!(replayed, fixture.report, "{list} {field} {inflated}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A damaged `index.json` never stops the cache from opening, and the
    /// campaign it holds replays byte for byte.
    #[test]
    fn damaged_cache_indexes_still_open_and_replay(kind in 0u8..5, seed in any::<u64>()) {
        let fixture = cache_fixture();
        let damaged = mutate(&fixture.index, kind, seed);
        let replayed = replay_with_index(&format!("index_{seed:x}"), &damaged, kind, seed);
        prop_assert_eq!(replayed, fixture.report.clone());
    }
}

/// The fixture's one segment file: its path within the cache and its bytes.
fn fixture_segment() -> (&'static Path, &'static [u8]) {
    let mut segments = cache_fixture()
        .files
        .iter()
        .filter(|(path, _)| path.extension().is_some_and(|x| x == "pack"));
    let (path, bytes) = segments.next().expect("the fixture has a segment");
    assert!(segments.next().is_none(), "one writer, one segment");
    (path, bytes)
}

/// Byte length of a segment header and of a record header.
const SEG_HEADER_LEN: usize = 20;
const REC_HEADER_LEN: usize = 44;

/// The key and payload lengths a record header declares.
fn record_lengths(segment: &[u8], at: usize) -> (usize, usize) {
    let word = |from: usize| {
        u32::from_le_bytes(segment[at + from..at + from + 4].try_into().unwrap()) as usize
    };
    (word(20), word(24))
}

/// The offset of every record in a sound segment, in file order.
fn record_offsets(segment: &[u8]) -> Vec<usize> {
    let mut offsets = Vec::new();
    let mut at = SEG_HEADER_LEN;
    while at < segment.len() {
        offsets.push(at);
        let (key_len, payload_len) = record_lengths(segment, at);
        at += REC_HEADER_LEN + key_len + payload_len;
    }
    offsets
}

/// FNV-1a/64, the record checksum, to re-seal a forged record.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x100000001b3)
    })
}

/// Copy the fixture cache into a fresh directory with `segment` as its
/// segment's bytes and `index` (or none) as its snapshot, optionally age the
/// segment past the reclaim grace, open it and replay the campaign.  The
/// replayed report, the handle's counters, and the segment's bytes after
/// the handle dropped.
fn replay_segment(
    tag: &str,
    segment: &[u8],
    index: Option<&str>,
    aged: bool,
) -> (String, CacheStats, Vec<u8>) {
    let fixture = cache_fixture();
    let (segment_path, _) = fixture_segment();
    let dir = scratch_dir(tag);
    for (path, bytes) in &fixture.files {
        let path = dir.join(path);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let bytes = if path.ends_with(segment_path) {
            segment
        } else {
            bytes
        };
        std::fs::write(path, bytes).unwrap();
    }
    if let Some(index) = index {
        std::fs::write(dir.join("index.json"), index).unwrap();
    }
    if aged {
        std::fs::File::options()
            .write(true)
            .open(dir.join(segment_path))
            .unwrap()
            .set_modified(std::time::SystemTime::now() - std::time::Duration::from_secs(60))
            .unwrap();
    }
    let (report, stats) = no_panic(tag, 0, 0, || {
        let cache = Arc::new(CellCache::open(&dir).expect("a damaged segment still opens"));
        let report = CampaignRunner::new()
            .with_cache(Arc::clone(&cache))
            .run(&cached_spec())
            .expect("warm run");
        (report.to_json(), cache.stats())
    });
    let after = std::fs::read(dir.join(segment_path)).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    (report, stats, after)
}

/// The value of field `name` of a JSON map.
fn field_mut<'a>(value: &'a mut serde::Value, name: &str) -> &'a mut serde::Value {
    let serde::Value::Map(fields) = value else {
        panic!("`{name}` is looked up in a map");
    };
    &mut fields
        .iter_mut()
        .find(|(field, _)| field == name)
        .expect(name)
        .1
}

/// A snapshot that lost its last entry and whose segment horizon lands 10
/// bytes into that record, on a segment quiet past the reclaim grace.  The
/// delta scan from that horizon sees a torn tail; the open must rescan the
/// segment from its header instead of cutting the good record off.
#[test]
fn a_snapshot_horizon_inside_a_record_cuts_nothing() {
    let fixture = cache_fixture();
    let (_, segment) = fixture_segment();
    let last = *record_offsets(segment).last().unwrap() as u64;
    let mut index = serde::json::parse(&fixture.index).expect("snapshot");
    let serde::Value::Seq(entries) = field_mut(&mut index, "entries") else {
        panic!("entries is a list");
    };
    let indexed = entries.len();
    entries.retain(|entry| entry.get("offset") != Some(&serde::Value::UInt(last)));
    assert_eq!(
        entries.len(),
        indexed - 1,
        "the last record's entry is gone"
    );
    let serde::Value::Seq(segments) = field_mut(&mut index, "segments") else {
        panic!("segments is a list");
    };
    *field_mut(&mut segments[0], "len") = serde::Value::UInt(last + 10);
    let index = serde::json::to_string(&index);
    let (report, stats, after) = replay_segment("horizon", segment, Some(&index), true);
    assert_eq!(report, fixture.report);
    assert_eq!(
        (stats.hits, stats.misses, stats.evictions),
        (6, 0, 0),
        "every cell replays"
    );
    assert!(after == segment, "the segment's bytes are unchanged");
}

/// Every field of a segment record damaged in turn — on the first and on
/// the last record, with the snapshot pointing at the records and without
/// one — plus a truncation inside a record and appended garbage.  The
/// cache opens, the damaged cells re-simulate, every other cell hits, and
/// the campaign replays byte for byte.
#[test]
fn damaged_segment_records_still_open_and_replay() {
    let fixture = cache_fixture();
    let (_, segment) = fixture_segment();
    let offsets = record_offsets(segment);
    assert_eq!(offsets.len(), 6, "2 rows × (baseline + 2 policies)");
    let max_part = 32 * 1024 * 1024 + 1;
    let mut cases: Vec<(String, Vec<u8>, u64)> = Vec::new();
    for (nth, &at) in [(0, &offsets[0]), (5, &offsets[5])] {
        let (key_len, payload_len) = record_lengths(segment, at);
        let past_eof = (segment.len() - at) as u32;
        let flip = |name: &str, byte: usize| {
            let mut damaged = segment.to_vec();
            damaged[at + byte] ^= 0x5a;
            (format!("record {nth}: {name}"), damaged, 1)
        };
        cases.push(flip("magic", 1));
        cases.push(flip("digest", 9));
        cases.push(flip("stamp", 30));
        cases.push(flip("checksum", 40));
        cases.push(flip("key byte", REC_HEADER_LEN + key_len / 2));
        cases.push(flip(
            "payload byte",
            REC_HEADER_LEN + key_len + payload_len / 2,
        ));
        for (field, from, declared) in [("key_len", 20, key_len), ("payload_len", 24, payload_len)]
        {
            for len in [declared as u32 + 1, past_eof, max_part] {
                let mut damaged = segment.to_vec();
                damaged[at + from..at + from + 4].copy_from_slice(&len.to_le_bytes());
                cases.push((format!("record {nth}: {field} {len}"), damaged, 1));
            }
        }
        // A forged key: one key byte changed and the checksum re-sealed, so
        // only the stored-key check can catch it.
        let mut forged = segment.to_vec();
        forged[at + REC_HEADER_LEN + key_len / 2] ^= 0x01;
        let end = at + REC_HEADER_LEN + key_len + payload_len;
        let mut sealed = forged[at + 4..at + 36].to_vec();
        sealed.extend_from_slice(&forged[at + REC_HEADER_LEN..end]);
        forged[at + 36..at + 44].copy_from_slice(&fnv64(&sealed).to_le_bytes());
        cases.push((format!("record {nth}: resealed key byte"), forged, 1));
        // Cut inside the record: it and every later record are lost.
        cases.push((
            format!("record {nth}: truncated inside"),
            segment[..at + REC_HEADER_LEN + 5].to_vec(),
            6 - nth as u64,
        ));
    }
    let mut garbage = segment.to_vec();
    garbage.extend_from_slice(b"\x45\x52\x43\x48 not a record \xa5\xa5\xa5");
    cases.push(("appended garbage".to_string(), garbage, 0));

    for (name, damaged, lost) in &cases {
        for index in [Some(fixture.index.as_str()), None] {
            let (report, stats, _) = replay_segment("records", damaged, index, false);
            let what = format!("{name}, snapshot {}", index.is_some());
            assert_eq!(&report, &fixture.report, "{what}");
            assert_eq!(
                (stats.hits, stats.misses),
                (6 - lost, *lost),
                "{what}: damaged cells re-simulate, the rest hit"
            );
        }
    }
}

/// The files of a checkpoint directory, as (name, contents), by name.
type Files = [(String, String)];

/// A reader of a checkpoint directory: a report or a typed error.
type Reader<'a> = &'a dyn Fn(&Path) -> Result<CampaignReport, CampaignError>;

/// A complete 2-shard checkpoint directory of `cached_spec()`, written by a
/// checkpointed runner and held in memory: its `campaign.json` and both
/// shard files (v1 documents).
fn checkpoint_fixture() -> &'static Files {
    static FIXTURE: OnceLock<Vec<(String, String)>> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = scratch_dir("checkpoint_fixture");
        let outcome = ShardedCampaignRunner::new(2)
            .with_checkpoint(&dir)
            .run(&cached_spec())
            .expect("checkpointed run");
        assert_eq!(outcome.report.to_json(), cache_fixture().report);
        let files = ["campaign.json", "shard_0000.json", "shard_0001.json"]
            .map(|name| {
                let text = std::fs::read_to_string(dir.join(name)).expect(name);
                (name.to_string(), text)
            })
            .to_vec();
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), files.len());
        let _ = std::fs::remove_dir_all(&dir);
        files
    })
}

/// `text`, a v1 manifest or shard document, in the v3 shape: the same
/// fields plus a `plan` of `strategy` cutting `assignments`.
fn as_v3(text: &str, strategy: &str, assignments: &[&[usize]]) -> String {
    let mut doc = serde::json::parse(text).expect("a pristine document");
    *field_mut(&mut doc, "schema_version") = serde::Value::UInt(3);
    let serde::Value::Map(fields) = &mut doc else {
        panic!("a document is a map");
    };
    let assignments: Vec<Vec<usize>> = assignments.iter().map(|rows| rows.to_vec()).collect();
    fields.push((
        "plan".to_string(),
        serde::Value::Map(vec![
            (
                "strategy".to_string(),
                serde::Value::Str(strategy.to_string()),
            ),
            (
                "assignments".to_string(),
                serde::Serialize::to_value(&assignments),
            ),
        ]),
    ));
    serde::json::to_string_pretty(&doc)
}

/// `text` with the first number after its first `"field"` key replaced by
/// `value`.
fn inflate(text: &str, field: &str, value: &str) -> String {
    let key = text.find(&format!("\"{field}\"")).expect(field);
    let start = key
        + text[key..]
            .find(|c: char| c.is_ascii_digit())
            .expect("a number");
    let end = start
        + text[start..]
            .find(|c: char| !c.is_ascii_digit())
            .expect("its end");
    let mut out = text.to_string();
    out.replace_range(start..end, value);
    out
}

/// What one reader of a checkpoint directory returned — a report's JSON or
/// a typed error — the merge of the shard files the directory held
/// afterwards, if they all decode and merge, and whether the directory was
/// left exactly as it was.
struct ReaderOutcome {
    reader: &'static str,
    report: Result<String, CampaignError>,
    on_disk: Option<String>,
    untouched: bool,
}

/// Run each reader of a checkpoint directory on its own copy of `files`: a
/// worker with a short lease timeout followed by a merge, a merge that does
/// not wait, and a resumed in-process runner.
fn read_checkpoint(tag: &str, files: &Files, kind: u8, seed: u64) -> Vec<ReaderOutcome> {
    let spec = cached_spec();
    let readers: [(&str, Reader); 3] = [
        ("worker", &|dir| {
            FanoutWorker::new(2, dir)
                .lease_timeout(Duration::from_millis(200))
                .run(&spec)?;
            Ok(MergeCoordinator::new(dir).run()?.report)
        }),
        ("merge", &|dir| Ok(MergeCoordinator::new(dir).run()?.report)),
        ("resumed runner", &|dir| {
            let runner = ShardedCampaignRunner::new(2).with_checkpoint(dir);
            Ok(runner.resume(true).run(&spec)?.report)
        }),
    ];
    readers
        .iter()
        .map(|(reader, read)| {
            let dir = scratch_dir(&format!("{tag}_{}", reader.replace(' ', "_")));
            std::fs::create_dir_all(&dir).unwrap();
            for (name, text) in files {
                std::fs::write(dir.join(name), text).unwrap();
            }
            let report = no_panic(reader, kind, seed, || read(&dir)).map(|r| r.to_json());
            let on_disk = ["shard_0000.json", "shard_0001.json"]
                .iter()
                .map(|name| {
                    ShardReport::from_json(&std::fs::read_to_string(dir.join(name)).ok()?).ok()
                })
                .collect::<Option<Vec<_>>>()
                .and_then(|shards| CampaignReport::merge(&shards).ok())
                .map(|merged| merged.to_json());
            let mut left: Vec<(String, String)> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|entry| {
                    let path = entry.unwrap().path();
                    let name = path.file_name().unwrap().to_string_lossy().into_owned();
                    (name, std::fs::read_to_string(&path).unwrap_or_default())
                })
                .collect();
            left.sort();
            let _ = std::fs::remove_dir_all(&dir);
            ReaderOutcome {
                reader,
                report,
                on_disk,
                untouched: left == files,
            }
        })
        .collect()
}

/// Every reader failed with a typed error or reported the campaign's
/// bytes — or the merge of the shard files its directory held: shard files
/// carry no checksum, so a damaged number in a cell can still decode as a
/// shard of the partition, and is merged as written.
fn assert_typed_or_faithful(outcomes: &[ReaderOutcome], what: &str) {
    for outcome in outcomes {
        if let Ok(report) = &outcome.report {
            assert!(
                *report == cache_fixture().report || Some(report) == outcome.on_disk.as_ref(),
                "{} on {what}: a report that is neither the campaign's nor its directory's",
                outcome.reader
            );
        }
    }
}

/// Every inflated number in the counts, indices and versions of a real
/// manifest and a real shard file — v1 documents, and v3 documents for the
/// plan rows.  Counts past `MAX_SHARD_COUNT` are refused wherever a plan is
/// built, before anything is allocated per shard.
#[test]
fn inflated_checkpoint_fields_fail_typed() {
    let v1 = checkpoint_fixture();
    let v3: Vec<(String, String)> = v1
        .iter()
        .map(|(name, text)| (name.clone(), as_v3(text, "cost_balanced", &[&[0], &[1]])))
        .collect();
    let pristine = read_checkpoint("inflated", &v3, 3, 0);
    assert!(pristine
        .iter()
        .all(|o| o.report.as_ref() == Ok(&cache_fixture().report)));
    let cases: [(&Files, usize, &str); 10] = [
        (v1, 0, "shard_count"),
        (v1, 0, "schema_version"),
        (&v3, 0, "assignments"),
        (v1, 2, "shard_count"),
        (v1, 2, "shard_index"),
        (v1, 2, "schema_version"),
        (v1, 2, "trace_indices"),
        (&v3, 2, "assignments"),
        (v1, 2, "baseline_runs"),
        (v1, 2, "trace_generations"),
    ];
    for (files, file, field) in cases {
        for (i, value) in INFLATED.iter().enumerate() {
            let mut damaged = files.to_vec();
            damaged[file].1 = inflate(&files[file].1, field, value);
            let what = format!("{} {field} {value}", damaged[file].0);
            no_panic(&what, 3, i as u64, || {
                let _ = ShardReport::from_json(&damaged[file].1);
            });
            assert_typed_or_faithful(&read_checkpoint("inflated", &damaged, 3, i as u64), &what);
        }
    }

    let spec = cached_spec();
    let dir = scratch_dir("too_many_shards");
    assert!(ShardPlan::round_robin(spec.traces.len(), MAX_SHARD_COUNT).is_ok());
    for count in [MAX_SHARD_COUNT + 1, 1_000_000_000_000_000] {
        let too_many = CampaignError::TooManyShards {
            count,
            max: MAX_SHARD_COUNT,
        };
        assert_eq!(ShardPlan::round_robin(2, count).unwrap_err(), too_many);
        assert_eq!(
            ShardPlan::cost_balanced(&[1, 2], count).unwrap_err(),
            too_many
        );
        assert_eq!(
            ShardPlan::round_robin(spec.traces.len(), count).unwrap_err(),
            too_many
        );
        assert_eq!(
            ShardPlan::round_robin(spec.traces.len(), count)
                .and_then(|plan| ShardReport::run(&spec, &plan, 0, None, None))
                .unwrap_err(),
            too_many
        );
        assert_eq!(
            ShardedCampaignRunner::new(count).run(&spec).unwrap_err(),
            too_many
        );
        let checkpointed = ShardedCampaignRunner::new(count).with_checkpoint(&dir);
        assert_eq!(checkpointed.run(&spec).unwrap_err(), too_many);
        assert_eq!(
            FanoutWorker::new(count, &dir).run(&spec).unwrap_err(),
            too_many
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A v3 manifest claiming 2 shards whose plan cuts 3: every reader refuses
/// the directory before running a shard or writing a file.
#[test]
fn a_manifest_whose_plan_disagrees_with_its_shard_count_is_refused() {
    let mut files = checkpoint_fixture().to_vec();
    files[0].1 = as_v3(&files[0].1, "cost_balanced", &[&[0], &[1], &[]]);
    for outcome in read_checkpoint("three_of_two", &files, 0, 0) {
        match outcome.report {
            Err(CampaignError::Checkpoint(msg)) => {
                assert!(msg.contains("plan covers 3 shards"), "{msg}")
            }
            other => panic!("{} accepted the directory: {other:?}", outcome.reader),
        }
        assert!(
            outcome.untouched,
            "{} wrote into the directory",
            outcome.reader
        );
    }
}

/// A shard file written at another wire version than its siblings — v3
/// with the same round-robin plan the v1 manifest implies.  A worker
/// overwrites it, so a resumed runner reports the campaign's bytes; a merge
/// refuses the mixed directory.
#[test]
fn a_shard_file_of_another_wire_version_is_rerun() {
    let mut files = checkpoint_fixture().to_vec();
    files[2].1 = as_v3(&files[2].1, "round_robin", &[&[0], &[1]]);
    for outcome in read_checkpoint("mixed_version", &files, 0, 0) {
        match (outcome.reader, &outcome.report) {
            ("merge", Err(CampaignError::ShardSetMismatch(_))) => {}
            ("worker" | "resumed runner", Ok(report)) => {
                assert_eq!(*report, cache_fixture().report, "{}", outcome.reader)
            }
            (reader, other) => panic!("{reader}: {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A damaged manifest or shard file never crashes or hangs a reader of
    /// its checkpoint directory.
    #[test]
    fn damaged_checkpoint_directories_fail_typed_or_merge(
        file in 0usize..3,
        kind in 0u8..5,
        seed in any::<u64>(),
    ) {
        let mut files = checkpoint_fixture().to_vec();
        files[file].1 = mutate(&files[file].1, kind, seed);
        let outcomes = read_checkpoint("damaged", &files, kind, seed);
        assert_typed_or_faithful(&outcomes, &files[file].0);
    }
}

/// The complete requests the HTTP sweep damages, as the client writes them:
/// two plain endpoints and a small campaign.
fn http_requests() -> Vec<Vec<u8>> {
    let spec = CampaignBuilder::new("hostile-http")
        .policy(PolicyKind::Ir)
        .spec(SpecBenchmark::Gzip)
        .trace_len(TRACE_LEN)
        .build()
        .expect("valid spec")
        .to_json();
    [
        ("GET", "/healthz", ""),
        ("GET", "/metrics", ""),
        ("POST", "/campaign", &spec),
    ]
    .map(|(method, path, body)| {
        let mut wire = Vec::new();
        http::write_request(&mut wire, method, path, body.as_bytes(), false).expect("write");
        wire
    })
    .to_vec()
}

/// The length of a request's head, blank line included.
fn head_len(wire: &[u8]) -> usize {
    wire.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("a head")
        + 4
}

/// Every damaged request the HTTP sweep sends.
fn damaged_requests() -> Vec<(String, Vec<u8>)> {
    let mut cases = Vec::new();
    for wire in http_requests() {
        let head = head_len(&wire);
        let start =
            String::from_utf8_lossy(&wire[..wire.iter().position(|&b| b == b'\r').unwrap()])
                .into_owned();
        for at in 0..head {
            cases.push((format!("`{start}` cut at byte {at}"), wire[..at].to_vec()));
            for byte in [0x00, b'\n', 0xFF] {
                if wire[at] != byte {
                    let mut damaged = wire.clone();
                    damaged[at] = byte;
                    cases.push((format!("`{start}` byte {at} set to {byte:#04x}"), damaged));
                }
            }
        }
    }
    let campaign = http_requests().pop().expect("the campaign request");
    let head = String::from_utf8(campaign[..head_len(&campaign)].to_vec()).expect("ascii head");
    let body = &campaign[head_len(&campaign)..];
    let length = format!("Content-Length: {}\r\n", body.len());
    let with_head = |head: String, body: &[u8]| [head.as_bytes(), body].concat();
    let lengths = [
        format!("{length}Content-Length: {}\r\n", body.len() + 1),
        format!("Content-Length: {}\r\n", http::MAX_BODY_BYTES + 1),
        "Content-Length: 18446744073709551616\r\n".to_string(),
        format!("Content-Length: {}\r\n", body.len() + 10),
        format!("Content-Length: {}\r\n", body.len() - 10),
    ];
    for replaced in lengths {
        cases.push((
            format!(
                "campaign with `{}`",
                replaced.trim_end().replace("\r\n", ", ")
            ),
            with_head(head.replace(&length, &replaced), body),
        ));
    }
    let padded = head.replacen(
        "\r\n",
        &format!("\r\nX-Pad: {}\r\n", "a".repeat(70 << 10)),
        1,
    );
    cases.push(("a 70 KiB header line".to_string(), with_head(padded, body)));
    let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(1 << 20));
    cases.push(("a 1 MiB request line".to_string(), long_line.into_bytes()));
    let not_utf8: Vec<u8> = (0..body.len()).map(|i| 0x80 | i as u8).collect();
    cases.push((
        "a body that is not UTF-8".to_string(),
        with_head(head, &not_utf8),
    ));
    cases
}

/// Send `wire` on a fresh connection, close the sending half, and return
/// everything the daemon answers before it hangs up.  A daemon that neither
/// answers nor hangs up within half a minute fails the sweep.
fn send_raw(addr: &str, wire: &[u8], case: &str) -> Vec<u8> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    // The daemon may refuse a request and hang up before reading all of it.
    let _ = stream.write_all(wire);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut reply = Vec::new();
    let mut buf = [0u8; 64 << 10];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return reply,
            Ok(n) => reply.extend_from_slice(&buf[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                panic!("{case}: the daemon neither answered nor hung up")
            }
            Err(_) => return reply, // reset: the daemon hung up
        }
    }
}

/// What the daemon's answers to the sweep add up to.
#[derive(Debug, Default)]
struct Answers {
    responses: usize,
    streams: u64,
    reports: u64,
    refused_specs: u64,
    stream_errors: u64,
}

impl Answers {
    /// Check that `reply` is a sequence of well-formed responses with an
    /// allowed status, and count them.
    fn tally(&mut self, mut reply: &[u8], case: &str) {
        while !reply.is_empty() {
            let (status, headers) =
                http::read_response_head(&mut reply).unwrap_or_else(|e| panic!("{case}: {e}"));
            assert!(
                [200, 400, 404, 405, 503].contains(&status),
                "{case}: {status}"
            );
            self.responses += 1;
            let header = |name: &str| {
                headers
                    .iter()
                    .find(|(k, _)| k == name)
                    .map(|(_, v)| v.as_str())
            };
            if header("content-type") == Some("application/x-ndjson") {
                assert_eq!(status, 200, "{case}");
                self.streams += 1;
                return self.tally_stream(reply, case);
            }
            let length: usize = header("content-length")
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{case}: an unframed {status} response"));
            assert!(
                reply.len() >= length,
                "{case}: a {status} response cut short"
            );
            let (body, rest) = reply.split_at(length);
            let body = std::str::from_utf8(body).expect("a UTF-8 body");
            if status == 200 {
                serde::json::parse(body).unwrap_or_else(|e| panic!("{case}: {e}"));
            } else {
                let (kind, _) = protocol::parse_error_envelope(body);
                assert_ne!(kind, "unknown", "{case}: {body}");
                self.refused_specs += u64::from(kind == "invalid_spec");
            }
            reply = rest;
        }
    }

    /// Check a campaign stream: frames, then a report of the announced
    /// length or an error frame, then the end of the connection.
    fn tally_stream(&mut self, mut reply: &[u8], case: &str) {
        loop {
            let frame = protocol::parse_frame(&mut reply).unwrap_or_else(|e| panic!("{case}: {e}"));
            match protocol::frame_event(&frame) {
                protocol::EVENT_REPORT => {
                    let bytes = protocol::frame_uint(&frame, "bytes").expect("a report length");
                    assert_eq!(
                        reply.len() as u64,
                        bytes + 1,
                        "{case}: report then a newline"
                    );
                    self.reports += 1;
                    return;
                }
                protocol::EVENT_ERROR => {
                    assert!(reply.is_empty(), "{case}: bytes after an error frame");
                    self.stream_errors += 1;
                    return;
                }
                _ => {}
            }
        }
    }
}

#[test]
fn damaged_http_requests_get_an_answer_or_a_close() {
    let server = Server::bind(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        idle_timeout: Some(Duration::from_secs(2)),
        ..ServeOptions::default()
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.serve());

    let mut answers = Answers::default();
    let cases = damaged_requests();
    for (case, wire) in &cases {
        answers.tally(&send_raw(&addr, wire, case), case);
    }
    assert!(answers.responses > cases.len() / 2, "{answers:?}");
    assert!(
        answers.reports > 0,
        "some damage leaves a valid campaign: {answers:?}"
    );

    let health = client::get(&addr, "/healthz").expect("the daemon still answers");
    assert!(health.contains("\"ok\""), "{health}");
    let metrics = serde::json::parse(&client::get(&addr, "/metrics").expect("metrics")).unwrap();
    let count = |name: &str| match metrics.get("requests").and_then(|r| r.get(name)) {
        Some(serde::Value::UInt(n)) => *n,
        other => panic!("{name}: {other:?}"),
    };
    assert_eq!(count("campaigns_in_flight"), 0);
    // Every admitted campaign settled: it completed, or failed mid-stream
    // and was counted as rejected beside the specs refused before streaming.
    assert_eq!(count("campaigns_accepted"), answers.streams);
    assert_eq!(count("campaigns_completed"), answers.reports);
    assert_eq!(
        count("campaigns_accepted"),
        count("campaigns_completed") + count("campaigns_rejected") - answers.refused_specs,
        "{answers:?}"
    );
    client::shutdown(&addr).expect("drain");
    daemon.join().unwrap().expect("clean exit");
}

/// A recording of three frames, held in memory with its header.
fn recording() -> &'static (Vec<u8>, TraceFileHeader) {
    static RECORDING: OnceLock<(Vec<u8>, TraceFileHeader)> = OnceLock::new();
    RECORDING.get_or_init(|| {
        let dir = scratch_dir("recording");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gzip.uoptrace");
        let trace = SpecBenchmark::Gzip.trace(2 * hc_trace::format::FRAME_UOPS + 300);
        let header = hc_trace::write_trace(&path, &trace).expect("record");
        let bytes = std::fs::read(&path).expect("read back");
        let _ = std::fs::remove_dir_all(&dir);
        (bytes, header)
    })
}

/// The byte offsets at which the recording's frames start, and its end.
fn frame_boundaries(bytes: &[u8], header: &TraceFileHeader) -> Vec<usize> {
    let mut at = header.frames_offset as usize;
    let mut boundaries = vec![at];
    while at < bytes.len() {
        let payload = u32::from_le_bytes(bytes[at + 8..at + 12].try_into().unwrap()) as usize;
        at += 12 + payload + 8;
        boundaries.push(at);
    }
    boundaries
}

/// Every reader of a recording, over the file at `path`: each must return a
/// typed error or success, and a successful drain yields exactly the µops
/// its header records.
fn read_recording(path: &Path, spec: &CampaignSpec, case: &str) -> bool {
    let survives = |what: &str, read: &dyn Fn() -> bool| {
        catch_unwind(AssertUnwindSafe(read)).unwrap_or_else(|_| panic!("{what} panicked on {case}"))
    };
    survives("read_header", &|| hc_trace::read_header(path).is_ok());
    let drained = survives("FileSource::open and drain", &|| {
        let Ok(mut source) = hc_trace::FileSource::open(path) else {
            return false;
        };
        let expected = source.file_header().uop_count;
        match hc_trace::source::drain_source(&mut source) {
            Ok(uops) => {
                assert_eq!(uops.len() as u64, expected, "{case}: drained µops");
                true
            }
            Err(_) => false,
        }
    });
    survives("recover", &|| hc_trace::recover(path).is_ok());
    survives("load_trace", &|| match hc_trace::load_trace(path) {
        Ok(trace) => {
            let header = hc_trace::read_header(path).expect("a loaded file's header");
            assert_eq!(
                trace.uops.len() as u64,
                header.uop_count,
                "{case}: loaded µops"
            );
            true
        }
        Err(_) => false,
    });
    survives("CampaignRunner::run", &|| {
        CampaignRunner::new().run(spec).is_ok()
    });
    drained
}

#[test]
fn damaged_recordings_fail_typed_or_drain_whole() {
    let (bytes, header) = recording();
    let boundaries = frame_boundaries(bytes, header);
    assert_eq!(boundaries.len(), 4, "three frames: {boundaries:?}");
    let dir = scratch_dir("damaged_recordings");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("damaged.uoptrace");
    std::fs::write(&path, bytes).unwrap();
    let spec = CampaignBuilder::new("hostile-recording")
        .policy(PolicyKind::Ir)
        .trace_file(path.to_str().expect("utf-8 path"))
        .trace_len(TRACE_LEN)
        .build()
        .expect("the pristine recording is a valid row");
    assert!(read_recording(&path, &spec, "the pristine recording"));

    let mut cases = Vec::new();
    // Every header byte and every byte of the first frame's header.
    for at in 0..header.frames_offset as usize + 12 {
        for byte in [0x00, 0xFF, bytes[at].wrapping_add(1)] {
            if bytes[at] != byte {
                let mut damaged = bytes.clone();
                damaged[at] = byte;
                cases.push((format!("byte {at} set to {byte:#04x}"), damaged));
            }
        }
    }
    for &boundary in &boundaries {
        for cut in [boundary - 1, boundary, boundary + 1] {
            if cut < bytes.len() {
                cases.push((format!("cut at byte {cut}"), bytes[..cut].to_vec()));
            }
        }
    }
    for (case, damaged) in &cases {
        std::fs::write(&path, damaged).unwrap();
        read_recording(&path, &spec, case);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
