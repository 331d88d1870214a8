//! The minimal HTTP/1.1 subset the campaign service speaks.
//!
//! Plain endpoints (`/healthz`, `/metrics`, `/shutdown`, rejections) are
//! `Content-Length`-framed and **keep the connection alive** by default, so
//! a client can run several exchanges over one TCP connection.  The
//! campaign stream is the exception: it has no predictable length, so its
//! response is `Connection: close` and the body runs to EOF (no chunked
//! transfer encoding to implement on either side).
//!
//! The daemon and the client read through the same three readers, so a
//! hostile peer cannot balloon either of them:
//!
//! * the **line reader** reads through [`Read::take`], so it never buffers
//!   more bytes than its budget has left;
//! * the **head reader** reads a request's or a response's start line and
//!   header block under one budget of [`MAX_HEAD_BYTES`];
//! * the **body reader** reads a request's or a plain response's
//!   `Content-Length`-framed body of at most [`MAX_BODY_BYTES`].
//!
//! A campaign stream's frame is one line read by the line reader under a
//! budget of [`MAX_BODY_BYTES`]
//! ([`protocol::parse_frame`](crate::protocol::parse_frame)).  A body and
//! the stream's report (of the length its `report` frame announces) are read
//! by one reader, which allocates at most 1 MiB before their bytes arrive.

use crate::ServeError;
use std::io::{BufRead, ErrorKind, Read, Take, Write};

/// Hard cap on a request's or a response's head (start line + headers).
pub const MAX_HEAD_BYTES: usize = 64 * 1024;

/// Hard cap on a request or plain response body, and on one stream frame.
/// The largest legitimate payload — a full 409-trace Table 2 scenario
/// campaign spec — is well under 1 MiB; 16 MiB leaves room for generated
/// suites without letting a peer exhaust memory.
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method (`GET`, `POST`, …), as sent.
    pub method: String,
    /// Request path (query strings are not part of this protocol).
    pub path: String,
    /// Header name/value pairs, in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Whether the request was HTTP/1.1 (persistent by default) rather
    /// than HTTP/1.0 (close by default).
    pub http11: bool,
}

impl Request {
    /// First value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection may serve another request after this one:
    /// HTTP/1.1 unless the client said `Connection: close`, HTTP/1.0 only
    /// if it said `Connection: keep-alive`.
    pub fn keep_alive(&self) -> bool {
        let connection = self.header("connection").unwrap_or("");
        let has = |token: &str| {
            connection
                .split(',')
                .any(|t| t.trim().eq_ignore_ascii_case(token))
        };
        if has("close") {
            false
        } else {
            self.http11 || has("keep-alive")
        }
    }
}

/// The line reader: read one `\n`-terminated line through `reader`, whose
/// [`Take`] limit is the budget left for it, and strip its terminator.  A
/// `Take` hands out no byte past its limit, so a line that runs past the
/// budget is refused once the budget's bytes are buffered; `what` and `cap`
/// name the budget in the error.  `Ok(None)` means the peer closed the
/// connection, or the read timed out, before the line's first byte.
pub(crate) fn read_line<R: BufRead>(
    reader: &mut Take<R>,
    what: &str,
    cap: usize,
) -> Result<Option<String>, ServeError> {
    let mut line = Vec::new();
    match reader.read_until(b'\n', &mut line) {
        Err(e)
            if line.is_empty()
                && matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
        {
            return Ok(None)
        }
        Err(e) => return Err(e.into()),
        Ok(0) if reader.limit() > 0 => return Ok(None),
        Ok(_) => {}
    }
    if line.pop() != Some(b'\n') {
        return Err(ServeError::Protocol(if reader.limit() == 0 {
            format!("{what} exceeds {cap} bytes")
        } else {
            format!("connection closed inside a {what}")
        }));
    }
    while line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| ServeError::Protocol(format!("{what} is not UTF-8")))
}

/// Header name/value pairs, in arrival order, names lowercased.
type Headers = Vec<(String, String)>;

/// The head reader: read a start line, which `parse_start` parses, and the
/// header block after it, at most [`MAX_HEAD_BYTES`] together.  Header names
/// are lowercased.  `Ok(None)` means the peer closed the connection, or the
/// read timed out, before the head's first byte.
fn read_head<R: BufRead, T>(
    reader: &mut R,
    parse_start: impl FnOnce(&str) -> Result<T, ServeError>,
) -> Result<Option<(T, Headers)>, ServeError> {
    let mut head = reader.by_ref().take(MAX_HEAD_BYTES as u64);
    let mut next_line = || read_line(&mut head, "header block", MAX_HEAD_BYTES);
    let Some(start) = next_line()? else {
        return Ok(None);
    };
    let start = parse_start(&start)?;
    let mut headers = Vec::new();
    loop {
        let line = next_line()?
            .ok_or_else(|| ServeError::Protocol("connection closed mid-header".to_string()))?;
        if line.is_empty() {
            return Ok(Some((start, headers)));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ServeError::Protocol(format!("malformed header `{line}`")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
}

/// Refuse a start line's protocol unless it is HTTP/1.x.
fn check_version(version: &str) -> Result<(), ServeError> {
    if version.starts_with("HTTP/1.") {
        Ok(())
    } else {
        Err(ServeError::Protocol(format!(
            "unsupported protocol `{version}`"
        )))
    }
}

/// The body reader: read the `Content-Length`-framed body after `headers`,
/// at most [`MAX_BODY_BYTES`].  `Ok(None)` means the head carries no
/// `Content-Length`.
pub(crate) fn read_body<R: Read>(
    reader: &mut R,
    headers: &[(String, String)],
) -> Result<Option<Vec<u8>>, ServeError> {
    // Every Content-Length header must agree.  Taking the first (or any
    // single) value of a conflicting set is the classic request-smuggling
    // shape — two parsers framing the same bytes differently — so a head
    // carrying differing values is refused outright.  RFC 9110 §8.6 allows
    // repeated *identical* values, and those are accepted.
    let mut length = None;
    for (_, v) in headers.iter().filter(|(k, _)| k == "content-length") {
        let parsed = v
            .parse::<usize>()
            .map_err(|_| ServeError::Protocol(format!("unparseable Content-Length `{v}`")))?;
        match length {
            None => length = Some(parsed),
            Some(seen) if seen == parsed => {}
            Some(seen) => {
                return Err(ServeError::Protocol(format!(
                    "conflicting Content-Length headers ({seen} vs {parsed})"
                )))
            }
        }
    }
    let Some(length) = length else {
        return Ok(None);
    };
    if length > MAX_BODY_BYTES {
        return Err(ServeError::Protocol(format!(
            "body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte cap"
        )));
    }
    read_claimed(reader, length as u64, "body").map(Some)
}

/// Read exactly the `length` bytes the peer claimed its `what` (a body, a
/// report) holds; a stream that ends first is a protocol error.  The claim
/// bounds how much is read, never how much is allocated up front: at most
/// 1 MiB is reserved before the bytes arrive.
pub(crate) fn read_claimed<R: Read>(
    reader: &mut R,
    length: u64,
    what: &str,
) -> Result<Vec<u8>, ServeError> {
    let mut bytes = Vec::with_capacity(length.min(1 << 20) as usize);
    reader.take(length).read_to_end(&mut bytes)?;
    if (bytes.len() as u64) < length {
        return Err(ServeError::Protocol(format!(
            "{what} of {length} bytes ended after {}",
            bytes.len()
        )));
    }
    Ok(bytes)
}

/// Read the next request off a persistent connection.  `Ok(None)` means
/// the connection is simply done — the peer closed it between requests, or
/// sent nothing within the socket's read timeout — as opposed to an actual
/// protocol error mid-request.  A request without `Content-Length` has an
/// empty body.
pub fn read_next_request<R: BufRead>(reader: &mut R) -> Result<Option<Request>, ServeError> {
    let head = read_head(reader, |start| {
        let mut parts = start.split_whitespace();
        let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
        else {
            return Err(ServeError::Protocol(format!(
                "malformed request line `{start}`"
            )));
        };
        check_version(version)?;
        Ok((method.to_string(), path.to_string(), version == "HTTP/1.1"))
    })?;
    let Some(((method, path, http11), headers)) = head else {
        return Ok(None);
    };
    let body = read_body(reader, &headers)?.unwrap_or_default();
    Ok(Some(Request {
        method,
        path,
        headers,
        body,
        http11,
    }))
}

/// Read and parse a response's status line and header block (the body, if
/// any, stays in the reader).  Returns the status code and the headers.
pub fn read_response_head<R: BufRead>(
    reader: &mut R,
) -> Result<(u16, Vec<(String, String)>), ServeError> {
    read_head(reader, |start| {
        let mut parts = start.split_whitespace();
        let (Some(version), Some(status)) = (parts.next(), parts.next()) else {
            return Err(ServeError::Protocol(format!(
                "malformed status line `{start}`"
            )));
        };
        check_version(version)?;
        status
            .parse::<u16>()
            .map_err(|_| ServeError::Protocol(format!("unparseable status `{status}`")))
    })?
    .ok_or_else(|| ServeError::Protocol("connection closed mid-header".to_string()))
}

/// Write one complete request with an optional JSON body.  `keep_alive`
/// decides whether the client intends further requests on this connection.
pub fn write_request<W: Write>(
    writer: &mut W,
    method: &str,
    path: &str,
    body: &[u8],
    keep_alive: bool,
) -> Result<(), ServeError> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    write!(
        writer,
        "{method} {path} HTTP/1.1\r\nHost: hc-serve\r\nConnection: {connection}\r\n"
    )?;
    if body.is_empty() {
        write!(writer, "\r\n")?;
    } else {
        write!(
            writer,
            "Content-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )?;
        writer.write_all(body)?;
    }
    writer.flush()?;
    Ok(())
}

/// Write one complete response with a known body.  `keep_alive` must echo
/// what the server decided for the connection, so the client knows whether
/// to reuse it.
///
/// The response goes out in one write.  A daemon that refuses a request
/// before reading all of it closes with input unread, which resets the
/// connection and discards whatever of the reply the socket still queues.
pub fn write_response<W: Write>(
    writer: &mut W,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> Result<(), ServeError> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut response = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    response.extend_from_slice(body);
    writer.write_all(&response)?;
    writer.flush()?;
    Ok(())
}

/// Commit the head of a streaming (unknown-length) NDJSON response; the
/// caller then writes frames and closes the connection to end the body.
pub fn write_stream_head<W: Write>(writer: &mut W) -> Result<(), ServeError> {
    write!(
        writer,
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n"
    )?;
    writer.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    /// Read the one request `wire` holds.
    fn parse(wire: &[u8]) -> Result<Request, ServeError> {
        read_next_request(&mut BufReader::new(wire)).map(|request| request.expect("a request"))
    }

    #[test]
    fn request_round_trips() {
        let mut wire = Vec::new();
        write_request(&mut wire, "POST", "/campaign", br#"{"x":1}"#, false).expect("write");
        let req = parse(&wire).expect("parse");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/campaign");
        assert_eq!(req.header("content-type"), Some("application/json"));
        assert_eq!(req.header("Content-Type"), Some("application/json"));
        assert_eq!(req.body, br#"{"x":1}"#);
        assert!(!req.keep_alive(), "explicit close wins");
    }

    #[test]
    fn bodyless_request_round_trips() {
        let mut wire = Vec::new();
        write_request(&mut wire, "GET", "/healthz", b"", true).expect("write");
        let req = parse(&wire).expect("parse");
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
        assert!(req.keep_alive());
    }

    #[test]
    fn response_head_round_trips() {
        let mut wire = Vec::new();
        write_response(&mut wire, 404, "Not Found", "application/json", b"{}", true)
            .expect("write");
        let (status, headers) =
            read_response_head(&mut BufReader::new(wire.as_slice())).expect("parse");
        assert_eq!(status, 404);
        assert!(headers
            .iter()
            .any(|(k, v)| k == "content-length" && v == "2"));
        assert!(headers
            .iter()
            .any(|(k, v)| k == "connection" && v == "keep-alive"));
    }

    #[test]
    fn persistent_connections_carry_requests_back_to_back() {
        let mut wire = Vec::new();
        write_request(&mut wire, "GET", "/metrics", b"", true).expect("write 1");
        write_request(&mut wire, "POST", "/shutdown", b"", false).expect("write 2");
        let mut reader = BufReader::new(wire.as_slice());
        let first = read_next_request(&mut reader)
            .expect("parse 1")
            .expect("present");
        assert_eq!(
            (first.path.as_str(), first.keep_alive()),
            ("/metrics", true)
        );
        let second = read_next_request(&mut reader)
            .expect("parse 2")
            .expect("present");
        assert_eq!(
            (second.path.as_str(), second.keep_alive()),
            ("/shutdown", false)
        );
        assert!(
            read_next_request(&mut reader).expect("clean EOF").is_none(),
            "end of wire reads as a clean close, not an error"
        );
    }

    #[test]
    fn http10_defaults_to_close() {
        let wire = "GET /healthz HTTP/1.0\r\n\r\n";
        let req = parse(wire.as_bytes()).expect("parse");
        assert!(!req.keep_alive());
        let wire = "GET /healthz HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n";
        let req = parse(wire.as_bytes()).expect("parse");
        assert!(req.keep_alive(), "explicit 1.0 keep-alive is honoured");
    }

    #[test]
    fn oversized_bodies_are_refused() {
        let wire = format!(
            "POST /campaign HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let err = parse(wire.as_bytes()).expect_err("must refuse");
        assert!(matches!(err, ServeError::Protocol(_)));
    }

    #[test]
    fn conflicting_content_lengths_are_refused() {
        let wire = "POST /campaign HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}x";
        let err = parse(wire.as_bytes()).expect_err("must refuse");
        match err {
            ServeError::Protocol(msg) => assert!(msg.contains("conflicting"), "{msg}"),
            other => panic!("expected a protocol error, got {other}"),
        }
    }

    #[test]
    fn repeated_identical_content_lengths_are_accepted() {
        let wire = "POST /campaign HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}";
        let req = parse(wire.as_bytes()).expect("identical repeats");
        assert_eq!(req.body, b"{}");
    }

    #[test]
    fn malformed_request_lines_are_refused() {
        for wire in ["nonsense\r\n\r\n", "GET /x SPDY/3\r\n\r\n"] {
            let err = parse(wire.as_bytes()).expect_err("must refuse");
            assert!(matches!(err, ServeError::Protocol(_)), "{wire}");
        }
    }
}
