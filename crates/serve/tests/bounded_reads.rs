//! What one peer may make the other buffer: the daemon and the client read
//! every line, head, body and stream frame through the bounded readers of
//! `hc_serve::http`, so a peer that never stops sending gets a protocol
//! error once the cap is reached, not an ever-growing buffer.

use hc_serve::http::{self, MAX_BODY_BYTES, MAX_HEAD_BYTES};
use hc_serve::{client, protocol, ServeError, ServeOptions, Server};
use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// Where an [`Endless`] source gives up.  A reader that honours its cap stops
/// long before; one that does not reads all of it and fails the byte count,
/// instead of exhausting the test's memory.
const STOP: usize = MAX_BODY_BYTES + (4 << 20);

/// The most a `BufReader` with the default capacity reads past what its
/// caller consumed.
const BUF_READER_CAPACITY: usize = 8 * 1024;

/// A source that repeats `pattern` and counts the bytes it hands out.
struct Endless {
    pattern: &'static [u8],
    served: usize,
}

impl Endless {
    fn new(pattern: &'static [u8]) -> Endless {
        Endless { pattern, served: 0 }
    }
}

impl Read for Endless {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(STOP - self.served);
        for (i, byte) in buf[..n].iter_mut().enumerate() {
            *byte = self.pattern[(self.served + i) % self.pattern.len()];
        }
        self.served += n;
        Ok(n)
    }
}

/// Read `prefix` and then `pattern` forever through a default `BufReader`
/// with `read`; it must fail with a protocol error after consuming at most
/// `cap` plus one buffer of the endless part.
fn assert_bounded<T: std::fmt::Debug>(
    prefix: &'static [u8],
    pattern: &'static [u8],
    cap: usize,
    read: impl FnOnce(&mut BufReader<std::io::Chain<&'static [u8], Endless>>) -> Result<T, ServeError>,
) {
    let mut reader = BufReader::new(prefix.chain(Endless::new(pattern)));
    let outcome = read(&mut reader);
    let served = reader.get_ref().get_ref().1.served;
    assert!(
        matches!(outcome, Err(ServeError::Protocol(_))),
        "{prefix:?} then {pattern:?} forever: {outcome:?}"
    );
    assert!(
        served <= cap + BUF_READER_CAPACITY,
        "{prefix:?} then {pattern:?} forever: consumed {served} bytes under a {cap}-byte cap"
    );
}

#[test]
fn request_heads_from_an_endless_source_stop_at_the_head_cap() {
    for (prefix, pattern) in [
        (&b""[..], &b"G"[..]),
        (b"GET /healthz HTTP/1.1\r\n", b"a"),
        (b"GET /healthz HTTP/1.1\r\n", b"x-pad: y\r\n"),
    ] {
        assert_bounded(prefix, pattern, MAX_HEAD_BYTES, |reader| {
            http::read_next_request(reader)
        });
    }
}

#[test]
fn response_heads_from_an_endless_source_stop_at_the_head_cap() {
    for (prefix, pattern) in [
        (&b""[..], &b"H"[..]),
        (b"HTTP/1.1 200 OK\r\n", b"a"),
        (b"HTTP/1.1 200 OK\r\n", b"x-pad: y\r\n"),
    ] {
        assert_bounded(prefix, pattern, MAX_HEAD_BYTES, |reader| {
            http::read_response_head(reader)
        });
    }
}

#[test]
fn stream_frames_from_an_endless_source_stop_at_the_body_cap() {
    for (prefix, pattern) in [
        (&b""[..], &b"x"[..]),
        (b"{\"event\":\"cell\",\"trace\":\"", b"a"),
    ] {
        assert_bounded(prefix, pattern, MAX_BODY_BYTES, |reader| {
            protocol::parse_frame(reader)
        });
    }
}

/// A fake daemon for one connection: it reads the request, answers
/// `response` followed by `padding` bytes of filler (as many as the client
/// takes), and hangs up.
fn fake_peer(response: &str, padding: usize) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local address").to_string();
    let response = response.as_bytes().to_vec();
    let peer = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        http::read_next_request(&mut reader)
            .expect("a well-formed request")
            .expect("a request");
        let mut stream = stream;
        let _ = stream.write_all(&response);
        let filler = vec![b'x'; 64 * 1024];
        let mut left = padding;
        while left > 0 {
            match stream.write(&filler[..left.min(filler.len())]) {
                Ok(n) => left -= n,
                Err(_) => break, // the client hung up
            }
        }
    });
    (addr, peer)
}

/// Run `exchange` against a fake peer answering `response`.
fn against<T>(
    response: &str,
    padding: usize,
    exchange: impl FnOnce(&str) -> Result<T, ServeError>,
) -> Result<T, ServeError> {
    let (addr, peer) = fake_peer(response, padding);
    let outcome = exchange(&addr);
    peer.join().expect("the fake peer ran");
    outcome
}

/// A plain exchange with the daemon at an address, reduced to its body.
type Exchange = fn(&str) -> Result<String, ServeError>;

/// The four ways to run a plain exchange.
fn plain_exchanges() -> [(&'static str, Exchange); 4] {
    [
        ("client::get", |addr| client::get(addr, "/healthz")),
        ("client::shutdown", |addr| {
            client::shutdown(addr).map(|()| String::new())
        }),
        ("Connection::get", |addr| {
            client::Connection::connect(addr)?.get("/metrics")
        }),
        ("Connection::shutdown", |addr| {
            client::Connection::connect(addr)?
                .shutdown()
                .map(|()| String::new())
        }),
    ]
}

#[test]
fn plain_responses_must_frame_their_bodies_within_the_cap() {
    let over_cap = format!(
        "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{{}}",
        MAX_BODY_BYTES + 1
    );
    let shapes = [
        (
            "no Content-Length",
            "HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n{}",
        ),
        ("a Content-Length over the cap", over_cap.as_str()),
        (
            "conflicting Content-Length values",
            "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}x",
        ),
        (
            "a body cut short",
            "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n{}",
        ),
    ];
    for (name, exchange) in plain_exchanges() {
        for (shape, response) in shapes {
            match against(response, 0, exchange) {
                Err(ServeError::Protocol(_)) => {}
                other => panic!("{name} over {shape}: {other:?}"),
            }
        }
        // A framed body still reads.
        let honest = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}";
        against(honest, 0, exchange).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn a_rejection_body_past_the_cap_is_a_protocol_error() {
    let past_cap = MAX_BODY_BYTES + (1 << 20);
    let framed = format!("HTTP/1.1 400 Bad Request\r\nContent-Length: {past_cap}\r\n\r\n");
    for head in [
        "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\nConnection: close\r\n\r\n",
        framed.as_str(),
    ] {
        match against(head, past_cap, |addr| client::submit(addr, "{}", |_| {})) {
            Err(ServeError::Protocol(_)) => {}
            other => panic!("{head:?} then {past_cap} bytes: {other:?}"),
        }
    }
    // A framed rejection is still read and surfaced with its kind.
    let envelope = protocol::error_envelope("invalid_spec", "no policies");
    let rejection = format!(
        "HTTP/1.1 400 Bad Request\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{envelope}",
        envelope.len()
    );
    match against(&rejection, 0, |addr| client::submit(addr, "{}", |_| {})) {
        Err(ServeError::Rejected { status, kind, .. }) => {
            assert_eq!((status, kind.as_str()), (400, "invalid_spec"));
        }
        other => panic!("a framed rejection: {other:?}"),
    }
}

#[test]
fn the_daemon_answers_an_unterminated_request_line_with_400_and_keeps_serving() {
    let server = Server::bind(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        idle_timeout: Some(Duration::from_secs(2)),
        ..ServeOptions::default()
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.serve());

    let stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone");
    // The daemon may hang up before it has read the whole line, so the
    // write runs beside the read and its failure is expected.
    let sender = std::thread::spawn(move || {
        let mut line = b"GET /".to_vec();
        line.resize(1 << 20, b'a');
        let _ = writer.write_all(&line);
    });
    let mut reader = BufReader::new(stream);
    let (status, headers) = http::read_response_head(&mut reader).expect("a response head");
    assert_eq!(status, 400);
    let length: usize = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse().ok())
        .expect("a framed envelope");
    let mut body = vec![0; length];
    reader.read_exact(&mut body).expect("the envelope");
    let (kind, message) = protocol::parse_error_envelope(&String::from_utf8_lossy(&body));
    assert_eq!(kind, "bad_request");
    assert!(message.contains(&MAX_HEAD_BYTES.to_string()), "{message}");
    sender.join().expect("the sender ran");

    let health = client::get(&addr, "/healthz").expect("the daemon still answers");
    assert!(health.contains("\"ok\""), "{health}");
    client::shutdown(&addr).expect("drain");
    daemon.join().unwrap().expect("clean exit");
}
