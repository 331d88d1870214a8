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

use hc_core::cache::GcPolicy;
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
