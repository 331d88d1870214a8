//! The daemon: accept loop, per-connection handlers, metrics, and the
//! drain-on-shutdown lifecycle.

use crate::http::{self, Request};
use crate::{protocol, ServeError};
use hc_core::cache::CellCache;
use hc_core::campaign::{CampaignRunner, CampaignSpec, TraceSelector};
use serde::{Serialize, Value};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The one rejection message for a spec with `File` trace rows.  It names
/// no path, so a client cannot tell an existing file from a missing one.
const FILE_ROWS_REFUSED: &str =
    "trace rows that name files (`File` selectors) are not accepted by the campaign service";

/// How long a persistent connection may sit idle between requests before
/// the daemon hangs up, unless [`ServeOptions::idle_timeout`] overrides it.
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(5);

/// How to stand the daemon up.
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Address to bind (`host:port`; port `0` picks an ephemeral port —
    /// read it back from [`Server::local_addr`]).
    pub addr: String,
    /// Directory of the shared [`CellCache`] every request runs against.
    /// `None` disables caching — campaigns still run, but repeat traffic
    /// re-simulates and in-flight dedupe is off (the singleflight table
    /// lives in the cache).
    pub cache_dir: Option<PathBuf>,
    /// Drain and exit after this many campaign submissions have settled
    /// (completed or failed) — the signal-free way to bound a daemon's
    /// lifetime in tests and CI.
    pub max_requests: Option<u64>,
    /// Idle cutoff for persistent connections; `None` means
    /// [`DEFAULT_IDLE_TIMEOUT`].  A connection that sends no request within
    /// this window is closed, so parked clients cannot pin handler threads
    /// (or stall the drain-on-shutdown join) forever.
    pub idle_timeout: Option<Duration>,
}

/// Request/cache/latency counters behind `GET /metrics`.
#[derive(Debug, Default)]
struct Metrics {
    /// TCP connections accepted and handed to a handler.
    connections_total: AtomicU64,
    /// Every HTTP request that reached the router (several per connection
    /// under keep-alive).
    requests_total: AtomicU64,
    /// Campaign submissions admitted (spec parsed and validated).
    campaigns_accepted: AtomicU64,
    /// Admitted campaigns that streamed a final report.
    campaigns_completed: AtomicU64,
    /// Submissions rejected before streaming (parse/validation/draining)
    /// plus admitted campaigns that failed mid-stream.
    campaigns_rejected: AtomicU64,
    /// Cell frames streamed across all campaigns.
    cells_streamed: AtomicU64,
    /// Summed wall time of settled campaign requests, in nanoseconds.
    request_nanos_total: AtomicU64,
    /// Slowest settled campaign request, in nanoseconds.
    request_nanos_max: AtomicU64,
    /// Most recently settled campaign request, in nanoseconds.
    request_nanos_last: AtomicU64,
}

impl Metrics {
    fn record_campaign_nanos(&self, nanos: u64) {
        self.request_nanos_total.fetch_add(nanos, Ordering::Relaxed);
        self.request_nanos_max.fetch_max(nanos, Ordering::Relaxed);
        self.request_nanos_last.store(nanos, Ordering::Relaxed);
    }
}

/// State shared by the accept loop and every connection handler.
struct ServerState {
    local_addr: SocketAddr,
    cache: Option<Arc<CellCache>>,
    max_requests: Option<u64>,
    idle_timeout: Duration,
    shutdown: AtomicBool,
    metrics: Metrics,
}

impl ServerState {
    /// Campaign submissions that have settled (completed or failed
    /// mid-stream).
    fn campaigns_settled(&self) -> u64 {
        self.metrics.campaigns_completed.load(Ordering::Relaxed)
            + self.metrics.campaigns_rejected.load(Ordering::Relaxed)
    }

    /// Flip the daemon into draining mode (idempotent) and poke the accept
    /// loop awake so it stops taking new connections.
    fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            // The accept loop blocks in `accept`; a throwaway loopback
            // connection wakes it so it can observe the flag.
            let _ = TcpStream::connect(self.local_addr);
        }
    }
}

/// The campaign service daemon.
///
/// [`Server::bind`] opens the listener (and the shared cache);
/// [`Server::serve`] runs the accept loop until a drain is triggered —
/// by `POST /shutdown` or by [`ServeOptions::max_requests`] — then waits
/// for every in-flight connection to finish before returning, so cache
/// writes and streamed reports are never cut off mid-write.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Bind the listener and open the shared cell cache.
    pub fn bind(options: ServeOptions) -> Result<Server, ServeError> {
        let cache = options
            .cache_dir
            .map(CellCache::open)
            .transpose()?
            .map(Arc::new);
        let listener = TcpListener::bind(&options.addr)?;
        let local_addr = listener.local_addr()?;
        Ok(Server {
            listener,
            state: Arc::new(ServerState {
                local_addr,
                cache,
                max_requests: options.max_requests,
                idle_timeout: options.idle_timeout.unwrap_or(DEFAULT_IDLE_TIMEOUT),
                shutdown: AtomicBool::new(false),
                metrics: Metrics::default(),
            }),
        })
    }

    /// The bound address (resolves port `0` to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.local_addr
    }

    /// The shared cell cache, if one was configured.
    pub fn cache(&self) -> Option<&Arc<CellCache>> {
        self.state.cache.as_ref()
    }

    /// Run the daemon: accept connections (one handler thread each) until a
    /// drain is triggered, then join every handler — in-flight campaigns
    /// finish streaming and the cache stays tmp+rename clean — and return.
    pub fn serve(self) -> Result<(), ServeError> {
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            let (stream, _) = self.listener.accept()?;
            if self.state.shutdown.load(Ordering::SeqCst) {
                // The wake-up poke (or a connection that lost the race with
                // the drain).  New work is refused from here on.
                drop(stream);
                break;
            }
            // Completed handlers are reaped opportunistically so a
            // long-lived daemon does not accumulate join handles.
            handlers.retain(|h| !h.is_finished());
            let state = Arc::clone(&self.state);
            handlers.push(std::thread::spawn(move || handle_connection(stream, state)));
        }
        for handler in handlers {
            let _ = handler.join();
        }
        Ok(())
    }
}

/// Reply with a JSON document; write failures are ignored (the peer is
/// gone — nothing to tell it).
fn respond(stream: &mut TcpStream, status: u16, reason: &str, body: &str, keep_alive: bool) {
    let _ = http::write_response(
        stream,
        status,
        reason,
        "application/json",
        body.as_bytes(),
        keep_alive,
    );
}

/// Reply with an error envelope.
fn reject(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    kind: &str,
    message: &str,
    keep_alive: bool,
) {
    let body = protocol::error_envelope(kind, message);
    respond(stream, status, reason, &body, keep_alive);
}

/// Serve one connection: a loop of requests for as long as both sides want
/// to keep it alive.  Plain endpoints answer in place and loop; a campaign
/// takes the connection over (its stream is close-framed) and ends it.  A
/// peer that goes quiet for the idle timeout — or is still parked when the
/// daemon starts draining — is hung up on, so keep-alive never pins a
/// handler thread past its usefulness.
fn handle_connection(stream: TcpStream, state: Arc<ServerState>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(state.idle_timeout));
    state
        .metrics
        .connections_total
        .fetch_add(1, Ordering::Relaxed);
    let Ok(clone) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(clone);
    let mut stream = stream;
    loop {
        let request = match http::read_next_request(&mut reader) {
            Ok(Some(request)) => request,
            Ok(None) => return, // clean close or idle timeout
            Err(e) => {
                reject(
                    &mut stream,
                    400,
                    "Bad Request",
                    "bad_request",
                    &e.to_string(),
                    false,
                );
                return;
            }
        };
        state.metrics.requests_total.fetch_add(1, Ordering::Relaxed);
        let keep_alive = request.keep_alive();
        match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/campaign") => {
                // The campaign stream runs to EOF; the connection is spent.
                handle_campaign(stream, &request, &state);
                return;
            }
            ("GET", "/healthz") => {
                let body = serde::json::to_string(&Value::Map(vec![
                    ("status".to_string(), Value::Str("ok".to_string())),
                    (
                        "draining".to_string(),
                        Value::Bool(state.shutdown.load(Ordering::SeqCst)),
                    ),
                ])) + "\n";
                respond(&mut stream, 200, "OK", &body, keep_alive);
            }
            ("GET", "/metrics") => {
                let body = serde::json::to_string_pretty(&metrics_value(&state)) + "\n";
                respond(&mut stream, 200, "OK", &body, keep_alive);
            }
            ("POST", "/shutdown") => {
                // The drain is about to tear the listener down; this
                // response is the connection's last either way.
                let body = serde::json::to_string(&Value::Map(vec![(
                    "status".to_string(),
                    Value::Str("draining".to_string()),
                )])) + "\n";
                respond(&mut stream, 200, "OK", &body, false);
                state.begin_shutdown();
                return;
            }
            ("POST" | "GET", "/campaign" | "/healthz" | "/metrics" | "/shutdown") => {
                reject(
                    &mut stream,
                    405,
                    "Method Not Allowed",
                    "method_not_allowed",
                    &format!("{} does not accept {}", request.path, request.method),
                    keep_alive,
                );
            }
            _ => reject(
                &mut stream,
                404,
                "Not Found",
                "not_found",
                &format!("no such endpoint: {}", request.path),
                keep_alive,
            ),
        }
        if !keep_alive || state.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Admit, run and stream one campaign.
fn handle_campaign(mut stream: TcpStream, request: &Request, state: &Arc<ServerState>) {
    let start = Instant::now();
    if state.shutdown.load(Ordering::SeqCst) {
        state
            .metrics
            .campaigns_rejected
            .fetch_add(1, Ordering::Relaxed);
        reject(
            &mut stream,
            503,
            "Service Unavailable",
            "draining",
            "the daemon is draining; resubmit elsewhere",
            false,
        );
        return;
    }
    // `File` rows are refused before `validate`, which would open each one
    // to read its label: a client must not make the daemon touch server
    // paths, or learn from the error whether they exist.
    let spec = std::str::from_utf8(&request.body)
        .map_err(|e| e.to_string())
        .and_then(|text| CampaignSpec::from_json(text).map_err(|e| e.to_string()))
        .and_then(|spec| {
            if spec
                .traces
                .iter()
                .any(|t| matches!(t, TraceSelector::File { .. }))
            {
                return Err(FILE_ROWS_REFUSED.to_string());
            }
            spec.validate().map_err(|e| e.to_string()).map(|()| spec)
        });
    let spec = match spec {
        Ok(spec) => spec,
        Err(message) => {
            state
                .metrics
                .campaigns_rejected
                .fetch_add(1, Ordering::Relaxed);
            reject(
                &mut stream,
                400,
                "Bad Request",
                "invalid_spec",
                &message,
                false,
            );
            return;
        }
    };
    state
        .metrics
        .campaigns_accepted
        .fetch_add(1, Ordering::Relaxed);

    // The response head is committed before the campaign runs; everything
    // after this point is in-band (frames, then the report or an error
    // frame).  The writer is shared with the progress hook, which fires
    // from worker threads — frames are serialized by the mutex, each
    // written whole, so lines never interleave mid-frame.
    let writer = Arc::new(Mutex::new(BufWriter::new(stream)));
    {
        let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
        if http::write_stream_head(&mut *w).is_err() {
            return; // peer vanished before we started
        }
        let frame = protocol::accepted_frame(&spec.name, spec.cell_count());
        let _ = w.write_all(frame.as_bytes());
        let _ = w.flush();
    }

    let hook_writer = Arc::clone(&writer);
    let hook_state = Arc::clone(state);
    let mut runner = CampaignRunner::new().with_progress(move |progress| {
        hook_state
            .metrics
            .cells_streamed
            .fetch_add(1, Ordering::Relaxed);
        let frame = protocol::cell_frame(progress);
        let mut w = hook_writer.lock().unwrap_or_else(|e| e.into_inner());
        // A disconnected client must not abort the campaign: its cells are
        // still going into the shared cache for everyone else.
        let _ = w.write_all(frame.as_bytes());
        let _ = w.flush();
    });
    if let Some(cache) = &state.cache {
        runner = runner.with_cache(Arc::clone(cache));
    }

    let outcome = runner.run(&spec);
    // Settle the counters *before* the terminal frame goes out: a client
    // that has read its report must already see it reflected in /metrics.
    match &outcome {
        Ok(_) => state
            .metrics
            .campaigns_completed
            .fetch_add(1, Ordering::Relaxed),
        Err(_) => state
            .metrics
            .campaigns_rejected
            .fetch_add(1, Ordering::Relaxed),
    };
    let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    state.metrics.record_campaign_nanos(nanos);
    {
        let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
        match &outcome {
            Ok(report) => {
                let json = report.to_json();
                let _ = w.write_all(protocol::report_frame(json.len()).as_bytes());
                let _ = w.write_all(json.as_bytes());
                let _ = w.write_all(b"\n");
            }
            Err(e) => {
                let frame = protocol::error_frame("campaign_failed", &e.to_string());
                let _ = w.write_all(frame.as_bytes());
            }
        }
        let _ = w.flush();
    }
    if let Some(max) = state.max_requests {
        if state.campaigns_settled() >= max {
            state.begin_shutdown();
        }
    }
}

/// The `GET /metrics` document.
fn metrics_value(state: &ServerState) -> Value {
    let m = &state.metrics;
    let accepted = m.campaigns_accepted.load(Ordering::Relaxed);
    let settled = state.campaigns_settled();
    Value::Map(vec![
        (
            "requests".to_string(),
            Value::Map(vec![
                (
                    "connections".to_string(),
                    Value::UInt(m.connections_total.load(Ordering::Relaxed)),
                ),
                (
                    "total".to_string(),
                    Value::UInt(m.requests_total.load(Ordering::Relaxed)),
                ),
                ("campaigns_accepted".to_string(), Value::UInt(accepted)),
                (
                    "campaigns_completed".to_string(),
                    Value::UInt(m.campaigns_completed.load(Ordering::Relaxed)),
                ),
                (
                    "campaigns_rejected".to_string(),
                    Value::UInt(m.campaigns_rejected.load(Ordering::Relaxed)),
                ),
                (
                    "campaigns_in_flight".to_string(),
                    Value::UInt(accepted.saturating_sub(settled)),
                ),
            ]),
        ),
        (
            "cells_streamed".to_string(),
            Value::UInt(m.cells_streamed.load(Ordering::Relaxed)),
        ),
        (
            "request_nanos".to_string(),
            Value::Map(vec![
                (
                    "total".to_string(),
                    Value::UInt(m.request_nanos_total.load(Ordering::Relaxed)),
                ),
                (
                    "max".to_string(),
                    Value::UInt(m.request_nanos_max.load(Ordering::Relaxed)),
                ),
                (
                    "last".to_string(),
                    Value::UInt(m.request_nanos_last.load(Ordering::Relaxed)),
                ),
            ]),
        ),
        (
            "cache".to_string(),
            match &state.cache {
                Some(cache) => cache.stats().to_value(),
                None => Value::Null,
            },
        ),
        (
            "draining".to_string(),
            Value::Bool(state.shutdown.load(Ordering::SeqCst)),
        ),
    ])
}
