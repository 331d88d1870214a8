//! The submit side: a blocking client for the campaign service.
//!
//! Every exchange runs over a [`Connection`] and reads through the bounded
//! readers of [`http`].  [`submit`] streams a campaign and hands every
//! progress frame to a caller-supplied observer; the returned report string
//! is byte-identical to the offline `reproduce campaign --json` output for
//! the same spec.  [`Connection::connect`] holds one persistent (keep-alive)
//! connection for the plain JSON endpoints, so a client running several
//! exchanges — say `/metrics` then `/shutdown` — pays for one TCP handshake,
//! not one per request.  [`submit`], [`get`] and [`shutdown`] each run one
//! exchange over a connection that asks the daemon to close it.

use crate::http;
use crate::{protocol, ServeError};
use serde::Value;
use std::io::BufReader;
use std::net::TcpStream;

/// One connection to the daemon.
///
/// Plain exchanges are `Content-Length`-framed, so a persistent connection
/// survives them and the next request reuses the same socket.  The daemon
/// may still hang up between exchanges (idle timeout, drain): that surfaces
/// as an error on the *next* call, and the caller reconnects —
/// [`Connection`] does not retry on its own.
pub struct Connection {
    reader: BufReader<TcpStream>,
    keep_alive: bool,
}

impl Connection {
    /// Open a persistent connection to `addr`.
    pub fn connect(addr: &str) -> Result<Connection, ServeError> {
        Connection::open(addr, true)
    }

    /// Open a connection whose requests ask the daemon to keep it open, or
    /// (`keep_alive` false) to close it after one exchange.
    fn open(addr: &str, keep_alive: bool) -> Result<Connection, ServeError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Connection {
            reader: BufReader::new(stream),
            keep_alive,
        })
    }

    /// Write one request and read the response head.  A response other
    /// than 200 is read whole and returned as [`ServeError::Rejected`].
    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Result<Vec<(String, String)>, ServeError> {
        http::write_request(self.reader.get_mut(), method, path, body, self.keep_alive)?;
        let (status, headers) = http::read_response_head(&mut self.reader)?;
        if status == 200 {
            return Ok(headers);
        }
        let (kind, message) = protocol::parse_error_envelope(&self.read_body(&headers)?);
        Err(ServeError::Rejected {
            status,
            kind,
            message,
        })
    }

    /// Read the `Content-Length`-framed body after `headers` as UTF-8.
    fn read_body(&mut self, headers: &[(String, String)]) -> Result<String, ServeError> {
        let body = http::read_body(&mut self.reader, headers)?.ok_or_else(|| {
            ServeError::Protocol("response carries no Content-Length".to_string())
        })?;
        String::from_utf8(body)
            .map_err(|e| ServeError::Protocol(format!("response is not UTF-8: {e}")))
    }

    /// Fetch a plain JSON endpoint (`/healthz`, `/metrics`) over this
    /// connection.
    pub fn get(&mut self, path: &str) -> Result<String, ServeError> {
        let headers = self.request("GET", path, b"")?;
        self.read_body(&headers)
    }

    /// Ask the daemon to drain, over this connection.  The daemon closes
    /// the connection after this response, so it should be the last call.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        let headers = self.request("POST", "/shutdown", b"")?;
        self.read_body(&headers).map(drop)
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
    let mut conn = Connection::open(addr, false)?;
    conn.request("POST", "/campaign", spec_json.as_bytes())?;
    loop {
        let frame = protocol::parse_frame(&mut conn.reader)?;
        match protocol::frame_event(&frame) {
            protocol::EVENT_REPORT => {
                let bytes = protocol::frame_uint(&frame, "bytes")?;
                let report = http::read_claimed(&mut conn.reader, bytes, "report")?;
                return String::from_utf8(report)
                    .map_err(|e| ServeError::Protocol(format!("report is not UTF-8: {e}")));
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

/// Fetch a plain JSON endpoint (`/healthz`, `/metrics`) over a one-shot
/// connection and return its body.
pub fn get(addr: &str, path: &str) -> Result<String, ServeError> {
    Connection::open(addr, false)?.get(path)
}

/// Ask the daemon to drain, over a one-shot connection: in-flight
/// campaigns finish streaming, then the accept loop exits.
pub fn shutdown(addr: &str) -> Result<(), ServeError> {
    Connection::open(addr, false)?.shutdown()
}
