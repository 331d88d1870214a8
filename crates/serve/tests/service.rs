//! In-process integration tests for the campaign service: one real
//! daemon on an ephemeral loopback port per test, driven through the
//! real client.

use hc_core::campaign::{CampaignBuilder, CampaignRunner, CampaignSpec, TraceSelector};
use hc_core::policy::PolicyKind;
use hc_serve::{client, protocol, ServeOptions, Server};
use hc_trace::{KernelKind, SpecBenchmark, WorkloadProfile};
use serde::Value;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};

fn small_spec(name: &str) -> CampaignSpec {
    CampaignBuilder::new(name)
        .policies([PolicyKind::Ir, PolicyKind::P888])
        .spec(SpecBenchmark::Gzip)
        .spec(SpecBenchmark::Mcf)
        .trace_len(600)
        .build()
        .expect("valid spec")
}

/// A bound server on a fresh temp-dir cache; returns the daemon handle,
/// its address, and the cache directory (caller-owned).
fn start(
    tag: &str,
    max_requests: Option<u64>,
) -> (
    std::thread::JoinHandle<Result<(), hc_serve::ServeError>>,
    String,
    PathBuf,
) {
    let dir = std::env::temp_dir().join(format!("hc-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::bind(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        cache_dir: Some(dir.clone()),
        max_requests,
        ..ServeOptions::default()
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.serve());
    (daemon, addr, dir)
}

fn metric(body: &str, path: &[&str]) -> u64 {
    let mut value = serde::json::parse(body.trim()).expect("metrics parse");
    for key in path {
        value = value.get(key).cloned().unwrap_or(Value::Null);
    }
    match value {
        Value::UInt(n) => n,
        other => panic!("metric {path:?} is not a uint: {other:?}"),
    }
}

#[test]
fn served_reports_match_offline_bytes_and_repeat_submits_hit_the_cache() {
    let (daemon, addr, dir) = start("roundtrip", None);
    let spec = small_spec("served-roundtrip");

    let mut events = Vec::new();
    let first = client::submit(&addr, &spec.to_json(), |frame| {
        events.push(protocol::frame_event(frame).to_string());
    })
    .expect("first submit");

    // The stream announced the campaign and every cell before the report.
    assert_eq!(events.first().map(String::as_str), Some("accepted"));
    assert_eq!(
        events.iter().filter(|e| *e == "cell").count(),
        spec.cell_count(),
        "one cell frame per grid cell"
    );

    // Byte-identical to the offline engine on the same spec.
    let offline = CampaignRunner::new().run(&spec).expect("offline").to_json();
    assert_eq!(first, offline);

    // A repeat submission replays from the shared cache — same bytes, and
    // /metrics proves the cells came from cache hits, not re-simulation.
    let second = client::submit(&addr, &spec.to_json(), |_| {}).expect("second submit");
    assert_eq!(second, offline);
    let metrics = client::get(&addr, "/metrics").expect("metrics");
    assert!(metric(&metrics, &["cache", "hits"]) > 0, "{metrics}");
    assert_eq!(
        metric(&metrics, &["cache", "dedupe_leads"]),
        6, // 4 cells + 2 baselines
        "repeat traffic must not simulate again: {metrics}"
    );
    assert_eq!(metric(&metrics, &["requests", "campaigns_completed"]), 2);

    let health = client::get(&addr, "/healthz").expect("healthz");
    assert!(health.contains("\"ok\""));

    client::shutdown(&addr).expect("drain");
    daemon.join().unwrap().expect("clean exit");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn rejections_use_typed_envelopes_and_do_not_kill_the_daemon() {
    let (daemon, addr, dir) = start("reject", None);

    // Unparseable spec → 400 with the invalid_spec kind.
    let err = client::submit(&addr, "{not json", |_| {}).expect_err("must reject");
    match err {
        hc_serve::ServeError::Rejected { status, kind, .. } => {
            assert_eq!(status, 400);
            assert_eq!(kind, "invalid_spec");
        }
        other => panic!("expected Rejected, got {other:?}"),
    }

    // A valid document that fails spec validation is refused the same way.
    let empty = CampaignBuilder::new("no-policies")
        .spec(SpecBenchmark::Gzip)
        .build();
    assert!(empty.is_err(), "builder already refuses empty grids");
    let err = client::submit(
        &addr,
        r#"{"schema_version": 1, "name": "x", "policies": [], "traces": [], "trace_len": 100, "warmup_runs": 0, "include_baseline": true}"#,
        |_| {},
    )
    .expect_err("must reject");
    assert!(matches!(
        err,
        hc_serve::ServeError::Rejected { status: 400, .. }
    ));

    // Unknown endpoint → 404 envelope.
    let err = client::get(&addr, "/nonsense").expect_err("must 404");
    assert!(matches!(
        err,
        hc_serve::ServeError::Rejected { status: 404, .. }
    ));

    // The daemon survived all of it.
    let report = client::submit(&addr, &small_spec("after-rejects").to_json(), |_| {})
        .expect("daemon still serves");
    assert!(report.contains("after-rejects"));

    client::shutdown(&addr).expect("drain");
    daemon.join().unwrap().expect("clean exit");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn deeply_nested_bodies_are_rejected_without_killing_the_daemon() {
    let (daemon, addr, dir) = start("deep", None);

    // Far under the body cap, far over any nesting a spec needs: parsing it
    // recursively would overflow the handler's stack.
    let deep = "[".repeat(200_000);
    let err = client::submit(&addr, &deep, |_| {}).expect_err("must reject");
    match err {
        hc_serve::ServeError::Rejected { status, kind, .. } => {
            assert_eq!(status, 400);
            assert_eq!(kind, "invalid_spec");
        }
        other => panic!("expected Rejected, got {other:?}"),
    }

    let health = client::get(&addr, "/healthz").expect("daemon still answers");
    assert!(health.contains("\"ok\""));

    client::shutdown(&addr).expect("drain");
    daemon.join().unwrap().expect("clean exit");
    let _ = std::fs::remove_dir_all(dir);
}

/// POST `body` to `/campaign` and return the status and the raw response
/// body, byte for byte.
fn post_campaign_raw(addr: &str, body: &str) -> (u16, Vec<u8>) {
    use std::io::Read as _;
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    hc_serve::http::write_request(&mut stream, "POST", "/campaign", body.as_bytes(), false)
        .expect("send request");
    let mut reader = std::io::BufReader::new(stream);
    let (status, _headers) = hc_serve::http::read_response_head(&mut reader).expect("head");
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes).expect("body");
    (status, bytes)
}

#[test]
fn file_rows_are_refused_without_touching_the_filesystem() {
    let (daemon, addr, dir) = start("file-rows", None);

    // An existing non-recording file and a path that does not exist: were
    // the daemon to open them, its errors would differ ("bad magic" against
    // "No such file").  Both must get the same 400 bytes, naming no path.
    let missing = dir.join("no-such-recording.uoptrace");
    let bodies: Vec<Vec<u8>> = ["/etc/passwd", missing.to_str().expect("utf-8 path")]
        .into_iter()
        .map(|path| {
            let spec = CampaignBuilder::new("file-rows")
                .policy(PolicyKind::Ir)
                .trace_file(path)
                .trace_len(600)
                .build()
                .expect("file rows build offline");
            let (status, body) = post_campaign_raw(&addr, &spec.to_json());
            assert_eq!(status, 400, "{path}");
            let text = String::from_utf8(body.clone()).expect("utf-8 envelope");
            let (kind, message) = protocol::parse_error_envelope(&text);
            assert_eq!(kind, "invalid_spec");
            assert!(
                !message.contains(path),
                "the message names no path: {message}"
            );
            body
        })
        .collect();
    assert_eq!(bodies[0], bodies[1], "the two refusals are byte-identical");

    let health = client::get(&addr, "/healthz").expect("daemon still answers");
    assert!(health.contains("\"ok\""));

    client::shutdown(&addr).expect("drain");
    daemon.join().unwrap().expect("clean exit");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn profiles_that_cannot_generate_are_refused_before_any_work() {
    let (daemon, addr, dir) = start("bad-profile", None);

    // An empty kernel mix and a mix without a positive weight both decode
    // as specs; generating either trace would panic the handler thread.
    for mix in [Vec::new(), vec![(KernelKind::WordSum, 0.0)]] {
        let mut spec = small_spec("bad-profile");
        spec.traces
            .push(TraceSelector::Profile(WorkloadProfile::new("bad", mix)));
        let (status, body) = post_campaign_raw(&addr, &spec.to_json());
        assert_eq!(status, 400);
        let text = String::from_utf8(body).expect("utf-8 envelope");
        let (kind, message) = protocol::parse_error_envelope(&text);
        assert_eq!(kind, "invalid_spec");
        assert!(message.contains("profile"), "{message}");
    }

    let health = client::get(&addr, "/healthz").expect("daemon still answers");
    assert!(health.contains("\"ok\""));
    let metrics = client::get(&addr, "/metrics").expect("metrics");
    assert_eq!(metric(&metrics, &["requests", "campaigns_in_flight"]), 0);
    assert_eq!(metric(&metrics, &["requests", "campaigns_rejected"]), 2);

    client::shutdown(&addr).expect("drain");
    daemon.join().unwrap().expect("clean exit");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn max_requests_drains_the_daemon_after_the_last_campaign() {
    let (daemon, addr, dir) = start("maxreq", Some(2));
    let spec = small_spec("bounded");
    client::submit(&addr, &spec.to_json(), |_| {}).expect("first");
    client::submit(&addr, &spec.to_json(), |_| {}).expect("second");
    // The daemon initiated its own drain after the 2nd settled campaign;
    // serve() returns without any /shutdown call.
    daemon.join().unwrap().expect("self-drain");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn persistent_connections_serve_many_requests_then_time_out() {
    let dir = std::env::temp_dir().join(format!("hc-serve-keepalive-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::bind(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        cache_dir: Some(dir.clone()),
        // Short idle cutoff so the timeout half of the test stays fast.
        idle_timeout: Some(std::time::Duration::from_millis(200)),
        ..ServeOptions::default()
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.serve());

    // Several exchanges over ONE connection…
    let mut conn = client::Connection::connect(&addr).expect("connect");
    for _ in 0..3 {
        let health = conn.get("/healthz").expect("healthz over keep-alive");
        assert!(health.contains("\"ok\""));
    }
    let metrics = conn.get("/metrics").expect("metrics over keep-alive");
    assert_eq!(
        metric(&metrics, &["requests", "connections"]),
        1,
        "all requests so far shared one connection: {metrics}"
    );
    assert_eq!(metric(&metrics, &["requests", "total"]), 4);

    // …and a parked connection is hung up on after the idle timeout, which
    // must read as a clean close on the next use, not a wedged daemon.
    std::thread::sleep(std::time::Duration::from_millis(600));
    assert!(
        conn.get("/healthz").is_err(),
        "the daemon hung up on the idle connection"
    );

    // A fresh connection can run /metrics and then /shutdown back-to-back.
    let mut conn = client::Connection::connect(&addr).expect("reconnect");
    conn.get("/metrics").expect("metrics");
    conn.shutdown().expect("shutdown over the same connection");
    daemon.join().unwrap().expect("clean exit");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn concurrent_submissions_coalesce_onto_one_simulation_per_cell() {
    let (daemon, addr, dir) = start("dedupe", None);
    let spec = small_spec("served-dedupe");
    let spec_json = spec.to_json();

    let clients = 4;
    let barrier = Arc::new(Barrier::new(clients));
    let reports: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                let addr = addr.clone();
                let spec_json = spec_json.clone();
                scope.spawn(move || {
                    barrier.wait();
                    client::submit(&addr, &spec_json, |_| {}).expect("submit")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for report in &reports[1..] {
        assert_eq!(report, &reports[0], "racing clients must agree");
    }

    // 4 cells + 2 baselines = 6 unique keys → exactly 6 simulations across
    // all four concurrent submissions; every other lookup was a cache hit
    // or a coalesced singleflight join.
    let metrics = client::get(&addr, "/metrics").expect("metrics");
    assert_eq!(
        metric(&metrics, &["cache", "dedupe_leads"]),
        6,
        "one simulation per unique cell key: {metrics}"
    );
    assert_eq!(
        metric(&metrics, &["cache", "misses"]),
        metric(&metrics, &["cache", "dedupe_leads"]) + metric(&metrics, &["cache", "dedupe_joins"]),
        "every miss either led or joined: {metrics}"
    );

    client::shutdown(&addr).expect("drain");
    daemon.join().unwrap().expect("clean exit");
    let _ = std::fs::remove_dir_all(dir);
}

/// Run `submit` against a fake peer that reads the request, answers a
/// stream head and one `report` frame claiming `claimed` bytes, sends
/// `body`, and hangs up.
fn submit_to_fake_peer(claimed: &str, body: &[u8]) -> Result<String, hc_serve::ServeError> {
    use std::io::Write as _;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local address").to_string();
    let body = body.to_vec();
    let frame = format!("{{\"event\":\"report\",\"bytes\":{claimed}}}\n");
    let peer = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
        hc_serve::http::read_next_request(&mut reader)
            .expect("a well-formed request")
            .expect("a request");
        let mut stream = stream;
        hc_serve::http::write_stream_head(&mut stream).expect("head");
        stream.write_all(frame.as_bytes()).expect("frame");
        stream.write_all(&body).expect("body");
    });
    let outcome = client::submit(&addr, "{}", |_| {});
    peer.join().expect("the fake peer ran");
    outcome
}

#[test]
fn report_sizes_from_the_wire_are_never_allocated_up_front() {
    for (claimed, body) in [
        ("18446744073709551615", &b"{}"[..]),
        ("100000000000", &b"{}"[..]),
        ("10", &b""[..]),
        ("10", &b"{\"a\":"[..]),
    ] {
        match submit_to_fake_peer(claimed, body) {
            Err(hc_serve::ServeError::Protocol(message)) => {
                assert!(message.contains(claimed), "{claimed}: {message}");
                assert!(
                    message.contains(&format!("after {}", body.len())),
                    "{claimed}: {message}"
                );
            }
            other => panic!("a {claimed}-byte claim over {body:?}: {other:?}"),
        }
    }
    // An honest claim still reads the report.
    assert_eq!(
        submit_to_fake_peer("7", b"{\"a\":1}").expect("report"),
        "{\"a\":1}"
    );
}
