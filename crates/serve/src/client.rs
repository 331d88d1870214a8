//! The submit side: a blocking client for the campaign service.
//!
//! [`submit`] streams a campaign and hands every progress frame to a
//! caller-supplied observer; the returned report string is byte-identical
//! to the offline `reproduce campaign --json` output for the same spec.
//! [`Connection`] holds one persistent (keep-alive) connection for the
//! plain JSON endpoints, so a client running several exchanges — say
//! `/metrics` then `/shutdown` — pays for one TCP handshake, not one per
//! request.

use crate::http;
use crate::{protocol, ServeError};
use serde::Value;
use std::io::{BufReader, Read};
use std::net::TcpStream;

/// Connect, send one request, and return a buffered reader over the
/// response along with its status and headers.
fn exchange(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
) -> Result<(BufReader<TcpStream>, u16), ServeError> {
    let mut stream = TcpStream::connect(addr)?;
    http::write_request(&mut stream, method, path, body, false)?;
    let mut reader = BufReader::new(stream);
    let (status, _headers) = http::read_response_head(&mut reader)?;
    Ok((reader, status))
}

/// Read the remainder of a `Connection: close` body to EOF as UTF-8.
fn read_to_end(reader: &mut BufReader<TcpStream>) -> Result<String, ServeError> {
    let mut body = String::new();
    reader.read_to_string(&mut body)?;
    Ok(body)
}

/// One persistent connection to the daemon's plain JSON endpoints.
///
/// Every exchange is `Content-Length`-framed, so the connection survives it
/// and the next request reuses the same socket.  The daemon may still hang
/// up between exchanges (idle timeout, drain): that surfaces as an error on
/// the *next* call, and the caller reconnects — [`Connection`] does not
/// retry on its own.
pub struct Connection {
    reader: BufReader<TcpStream>,
}

impl Connection {
    /// Open a persistent connection to `addr`.
    pub fn connect(addr: &str) -> Result<Connection, ServeError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Connection {
            reader: BufReader::new(stream),
        })
    }

    /// One keep-alive exchange: write the request, read the framed
    /// response.  Returns the status and the body.
    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Result<(u16, String), ServeError> {
        http::write_request(self.reader.get_mut(), method, path, body, true)?;
        let (status, headers) = http::read_response_head(&mut self.reader)?;
        let length = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .and_then(|(_, v)| v.parse::<usize>().ok())
            .ok_or_else(|| {
                ServeError::Protocol("keep-alive response carries no Content-Length".to_string())
            })?;
        if length > http::MAX_BODY_BYTES {
            return Err(ServeError::Protocol(format!(
                "response body of {length} bytes exceeds the {}-byte cap",
                http::MAX_BODY_BYTES
            )));
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body)
            .map_err(|e| ServeError::Protocol(format!("response is not UTF-8: {e}")))?;
        Ok((status, body))
    }

    /// Fetch a plain JSON endpoint (`/healthz`, `/metrics`) over this
    /// connection.
    pub fn get(&mut self, path: &str) -> Result<String, ServeError> {
        let (status, body) = self.exchange("GET", path, b"")?;
        if status != 200 {
            let (kind, message) = protocol::parse_error_envelope(&body);
            return Err(ServeError::Rejected {
                status,
                kind,
                message,
            });
        }
        Ok(body)
    }

    /// Ask the daemon to drain, over this connection.  The daemon closes
    /// the connection after this response, so it should be the last call.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        let (status, body) = self.exchange("POST", "/shutdown", b"")?;
        if status != 200 {
            let (kind, message) = protocol::parse_error_envelope(&body);
            return Err(ServeError::Rejected {
                status,
                kind,
                message,
            });
        }
        Ok(())
    }
}

/// Submit a campaign spec (JSON text) and stream the response.
///
/// Every NDJSON event frame (`accepted`, `cell`) is handed to `on_frame`
/// as it arrives; the final report's raw JSON is returned once the
/// `report` frame lands.  Pre-stream rejections surface as
/// [`ServeError::Rejected`], in-band failures as [`ServeError::Stream`].
pub fn submit(
    addr: &str,
    spec_json: &str,
    mut on_frame: impl FnMut(&Value),
) -> Result<String, ServeError> {
    let (mut reader, status) = exchange(addr, "POST", "/campaign", spec_json.as_bytes())?;
    if status != 200 {
        let body = read_to_end(&mut reader)?;
        let (kind, message) = protocol::parse_error_envelope(&body);
        return Err(ServeError::Rejected {
            status,
            kind,
            message,
        });
    }
    loop {
        let mut line = String::new();
        use std::io::BufRead;
        if reader.read_line(&mut line)? == 0 {
            return Err(ServeError::Protocol(
                "stream ended before a report or error frame".to_string(),
            ));
        }
        let frame = protocol::parse_frame(&line)?;
        match protocol::frame_event(&frame) {
            protocol::EVENT_REPORT => {
                return read_report(&mut reader, protocol::frame_uint(&frame, "bytes")?);
            }
            protocol::EVENT_ERROR => {
                let field = |key: &str| {
                    frame
                        .get(key)
                        .and_then(Value::as_str)
                        .unwrap_or("unknown")
                        .to_string()
                };
                return Err(ServeError::Stream {
                    kind: field("kind"),
                    message: field("message"),
                });
            }
            _ => on_frame(&frame),
        }
    }
}

/// Bytes reserved for a report before any arrive.  A `report` frame's
/// `bytes` count comes from the peer, so it bounds how much is read, never
/// how much is allocated up front.
const REPORT_RESERVE: usize = 1 << 20;

/// Read the `bytes`-byte report that follows a `report` frame.
fn read_report(reader: &mut impl Read, bytes: u64) -> Result<String, ServeError> {
    let reserve = usize::try_from(bytes).map_or(REPORT_RESERVE, |n| n.min(REPORT_RESERVE));
    let mut report = Vec::with_capacity(reserve);
    reader.take(bytes).read_to_end(&mut report)?;
    if report.len() as u64 != bytes {
        return Err(ServeError::Protocol(format!(
            "the report frame announced {bytes} bytes, but the stream ended after {}",
            report.len()
        )));
    }
    String::from_utf8(report).map_err(|e| ServeError::Protocol(format!("report is not UTF-8: {e}")))
}

/// Fetch a plain JSON endpoint (`/healthz`, `/metrics`) and return its
/// body.
pub fn get(addr: &str, path: &str) -> Result<String, ServeError> {
    let (mut reader, status) = exchange(addr, "GET", path, b"")?;
    let body = read_to_end(&mut reader)?;
    if status != 200 {
        let (kind, message) = protocol::parse_error_envelope(&body);
        return Err(ServeError::Rejected {
            status,
            kind,
            message,
        });
    }
    Ok(body)
}

/// Ask the daemon to drain: in-flight campaigns finish streaming, then the
/// accept loop exits.
pub fn shutdown(addr: &str) -> Result<(), ServeError> {
    let (mut reader, status) = exchange(addr, "POST", "/shutdown", b"")?;
    let body = read_to_end(&mut reader)?;
    if status != 200 {
        let (kind, message) = protocol::parse_error_envelope(&body);
        return Err(ServeError::Rejected {
            status,
            kind,
            message,
        });
    }
    Ok(())
}
