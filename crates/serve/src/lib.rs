//! # hc-serve
//!
//! The long-lived campaign service: a std-only daemon (thread per
//! connection over [`std::net::TcpListener`], minimal HTTP/1.1 — no tokio,
//! matching the workspace's offline compat-crate constraint) that turns the
//! offline campaign engine into shared infrastructure.  Submit a
//! [`CampaignSpec`](hc_core::campaign::CampaignSpec) as JSON and the daemon
//! validates it with the engine's typed errors, runs it on the process-wide
//! worker pool against one shared
//! [`CellCache`](hc_core::cache::CellCache), streams per-cell progress back
//! as NDJSON frames, and finishes the stream with the final
//! [`CampaignReport`](hc_core::campaign::CampaignReport) — schema v2 for a
//! campaign whose one scenario is the default overlay, v3 for a scenario
//! sweep, and **byte-identical** to what the offline
//! `reproduce campaign --json` path emits for the same spec.
//!
//! Because every request shares one cache, repeat traffic is O(changed
//! cells) *across users*, and concurrent requests whose cells hash to the
//! same content-addressed key coalesce onto a single simulation via the
//! cache's keyed singleflight table — N identical in-flight submissions
//! cost one grid (see `hc_core::cache`).
//!
//! ## Endpoints
//!
//! | Method & path     | Body                | Response                                            |
//! |-------------------|---------------------|-----------------------------------------------------|
//! | `POST /campaign`  | `CampaignSpec` JSON | NDJSON event frames, then the final report          |
//! | `GET /metrics`    | —                   | request/cache/dedupe counters as JSON               |
//! | `GET /healthz`    | —                   | `{"status": "ok", ...}`                             |
//! | `POST /shutdown`  | —                   | `{"status": "draining"}`; daemon drains and exits   |
//!
//! The NDJSON stream grammar, the error envelope and the drain semantics
//! are specified in `DESIGN.md` ("Campaign service"); [`protocol`] holds
//! the frame constructors and parsers both sides share, and [`http`] the
//! bounded readers both sides read through.
//!
//! ## Quick start (in process)
//!
//! ```no_run
//! use hc_serve::{client, Server, ServeOptions};
//!
//! let server = Server::bind(ServeOptions {
//!     addr: "127.0.0.1:0".to_string(),
//!     ..ServeOptions::default()
//! })
//! .expect("bind");
//! let addr = server.local_addr().to_string();
//! let daemon = std::thread::spawn(move || server.serve());
//!
//! let spec_json = r#"{ /* CampaignSpec */ }"#;
//! let report = client::submit(&addr, spec_json, |_frame| {}).expect("campaign");
//! println!("{report}");
//! client::shutdown(&addr).expect("drain");
//! daemon.join().unwrap().expect("clean exit");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hc_core::campaign::CampaignError;
use std::fmt;

pub mod client;
pub mod http;
pub mod protocol;
pub mod server;

pub use client::Connection;
pub use server::{ServeOptions, Server, DEFAULT_IDLE_TIMEOUT};

/// Everything that can go wrong speaking to (or inside) the campaign
/// service.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// A socket could not be bound, connected, read or written.
    Io(String),
    /// The peer sent bytes that are not the HTTP/1.1 or NDJSON subset this
    /// service speaks.
    Protocol(String),
    /// The server rejected the request before streaming began (the typed
    /// error envelope of a non-200 response).
    Rejected {
        /// HTTP status code of the rejection.
        status: u16,
        /// Machine-readable error kind (e.g. `invalid_spec`, `draining`).
        kind: String,
        /// Human-readable detail.
        message: String,
    },
    /// The campaign failed mid-stream, after the response head was already
    /// committed (the in-band `error` frame).
    Stream {
        /// Machine-readable error kind.
        kind: String,
        /// Human-readable detail.
        message: String,
    },
    /// The campaign engine itself refused the work (spec validation, cache
    /// directory refusal, …).
    Campaign(CampaignError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Protocol(e) => write!(f, "protocol error: {e}"),
            ServeError::Rejected {
                status,
                kind,
                message,
            } => write!(f, "request rejected ({status} {kind}): {message}"),
            ServeError::Stream { kind, message } => {
                write!(f, "campaign failed mid-stream ({kind}): {message}")
            }
            ServeError::Campaign(e) => write!(f, "campaign error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Campaign(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CampaignError> for ServeError {
    fn from(e: CampaignError) -> ServeError {
        ServeError::Campaign(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> ServeError {
        ServeError::Io(e.to_string())
    }
}
