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
//! segments where the snapshot cannot be trusted.

use hc_core::cache::{CacheStats, GcPolicy};
use hc_trace::{KernelKind, PhaseSchedule, WorkloadCategory};
use helper_cluster::prelude::*;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

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
        let shard = CampaignShard::new(cached_spec(), 2, 1)
            .expect("shard")
            .run()
            .expect("shard report");
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
