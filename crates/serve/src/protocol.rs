//! The campaign-stream wire protocol both sides share.
//!
//! A successful `POST /campaign` response body is a sequence of **NDJSON
//! event frames** — one compact JSON object per `\n`-terminated line —
//! followed by the raw bytes of the final report:
//!
//! ```text
//! {"event":"accepted","name":"spec-grid","total_cells":84}
//! {"event":"cell","completed":1,"total":84,"policy":"8_8_8","trace":"gzip","scenario":"default"}
//! …one `cell` frame per finished cell (ordering between workers is not guaranteed)…
//! {"event":"report","bytes":123456}
//! <exactly 123456 bytes: the CampaignReport JSON, byte-identical to `reproduce campaign --json`>
//! \n
//! ```
//!
//! A campaign that fails *after* the stream head was committed ends with an
//! in-band terminal frame instead of a `report` frame:
//!
//! ```text
//! {"event":"error","kind":"campaign_failed","message":"…"}
//! ```
//!
//! Requests rejected *before* streaming (unparseable spec, validation
//! failure, draining daemon, unknown path) get a plain JSON **error
//! envelope** with a matching HTTP status instead:
//!
//! ```text
//! {"error":{"kind":"invalid_spec","message":"campaign names no policies"}}
//! ```

use crate::{http, ServeError};
use hc_core::campaign::CampaignProgress;
use serde::Value;
use std::io::{BufRead, Read};

/// `event` value of the stream's opening frame.
pub const EVENT_ACCEPTED: &str = "accepted";
/// `event` value of a per-cell progress frame.
pub const EVENT_CELL: &str = "cell";
/// `event` value of the frame announcing the final report's byte count.
pub const EVENT_REPORT: &str = "report";
/// `event` value of the in-band terminal error frame.
pub const EVENT_ERROR: &str = "error";

fn frame(entries: Vec<(&str, Value)>) -> String {
    let mut line = serde::json::to_string(&Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    ));
    line.push('\n');
    line
}

/// The stream's opening frame: the validated campaign was admitted.
pub fn accepted_frame(name: &str, total_cells: usize) -> String {
    frame(vec![
        ("event", Value::Str(EVENT_ACCEPTED.to_string())),
        ("name", Value::Str(name.to_string())),
        ("total_cells", Value::UInt(total_cells as u64)),
    ])
}

/// One per-cell progress frame (the streaming face of
/// [`CampaignProgress`]).
pub fn cell_frame(progress: &CampaignProgress) -> String {
    frame(vec![
        ("event", Value::Str(EVENT_CELL.to_string())),
        ("completed", Value::UInt(progress.completed_cells as u64)),
        ("total", Value::UInt(progress.total_cells as u64)),
        ("policy", Value::Str(progress.policy.clone())),
        ("trace", Value::Str(progress.trace.clone())),
        ("scenario", Value::Str(progress.scenario.clone())),
    ])
}

/// The frame announcing that exactly `bytes` bytes of report JSON follow.
pub fn report_frame(bytes: usize) -> String {
    frame(vec![
        ("event", Value::Str(EVENT_REPORT.to_string())),
        ("bytes", Value::UInt(bytes as u64)),
    ])
}

/// The in-band terminal frame of a campaign that failed mid-stream.
pub fn error_frame(kind: &str, message: &str) -> String {
    frame(vec![
        ("event", Value::Str(EVENT_ERROR.to_string())),
        ("kind", Value::Str(kind.to_string())),
        ("message", Value::Str(message.to_string())),
    ])
}

/// The pre-stream rejection envelope (`{"error": {"kind", "message"}}`).
pub fn error_envelope(kind: &str, message: &str) -> String {
    let mut body = serde::json::to_string(&Value::Map(vec![(
        "error".to_string(),
        Value::Map(vec![
            ("kind".to_string(), Value::Str(kind.to_string())),
            ("message".to_string(), Value::Str(message.to_string())),
        ]),
    )]));
    body.push('\n');
    body
}

/// Parse an error envelope back into its `(kind, message)` pair; malformed
/// envelopes degrade to an `unknown` kind carrying the raw body.
pub fn parse_error_envelope(body: &str) -> (String, String) {
    let fallback = || ("unknown".to_string(), body.trim().to_string());
    let Ok(value) = serde::json::parse(body.trim()) else {
        return fallback();
    };
    let Some(error) = value.get("error") else {
        return fallback();
    };
    match (
        error.get("kind").and_then(Value::as_str),
        error.get("message").and_then(Value::as_str),
    ) {
        (Some(kind), Some(message)) => (kind.to_string(), message.to_string()),
        _ => fallback(),
    }
}

/// Read and parse the next NDJSON frame of a campaign stream; the `event`
/// discriminator must be present.  A frame is one line of at most
/// [`MAX_BODY_BYTES`](http::MAX_BODY_BYTES) bytes: every name a frame echoes
/// came from a request body of at most that size.
pub fn parse_frame<R: BufRead>(reader: &mut R) -> Result<Value, ServeError> {
    let mut frame = reader.by_ref().take(http::MAX_BODY_BYTES as u64);
    let line =
        http::read_line(&mut frame, "stream frame", http::MAX_BODY_BYTES)?.ok_or_else(|| {
            ServeError::Protocol("stream ended before a report or error frame".to_string())
        })?;
    let value = serde::json::parse(&line)
        .map_err(|e| ServeError::Protocol(format!("unparseable stream frame: {e}")))?;
    if value.get("event").and_then(Value::as_str).is_none() {
        return Err(ServeError::Protocol(format!(
            "stream frame without an event discriminator: {line}"
        )));
    }
    Ok(value)
}

/// The `event` discriminator of a parsed frame.
pub fn frame_event(frame: &Value) -> &str {
    frame.get("event").and_then(Value::as_str).unwrap_or("")
}

/// Extract a `u64` field from a parsed frame.
pub fn frame_uint(frame: &Value, key: &str) -> Result<u64, ServeError> {
    match frame.get(key) {
        Some(Value::UInt(n)) => Ok(*n),
        _ => Err(ServeError::Protocol(format!(
            "stream frame is missing numeric field `{key}`"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_are_single_lines_and_parse_back() {
        let progress = CampaignProgress {
            completed_cells: 3,
            total_cells: 84,
            policy: "8_8_8".to_string(),
            trace: "gzip".to_string(),
            scenario: "default".to_string(),
        };
        for line in [
            accepted_frame("grid", 84),
            cell_frame(&progress),
            report_frame(123),
            error_frame("campaign_failed", "boom"),
        ] {
            assert!(line.ends_with('\n'));
            assert_eq!(line.matches('\n').count(), 1, "one line per frame: {line}");
            let frame = parse_frame(&mut line.as_bytes()).expect("parses");
            assert!(!frame_event(&frame).is_empty());
        }
        let cell = parse_frame(&mut cell_frame(&progress).as_bytes()).unwrap();
        assert_eq!(frame_event(&cell), EVENT_CELL);
        assert_eq!(frame_uint(&cell, "total").unwrap(), 84);
    }

    #[test]
    fn error_envelopes_round_trip() {
        let body = error_envelope("invalid_spec", "campaign names no policies");
        let (kind, message) = parse_error_envelope(&body);
        assert_eq!(kind, "invalid_spec");
        assert_eq!(message, "campaign names no policies");
        let (kind, message) = parse_error_envelope("not json at all");
        assert_eq!(kind, "unknown");
        assert_eq!(message, "not json at all");
    }

    #[test]
    fn frames_without_events_are_refused() {
        for (wire, refusal) in [
            (
                &b"{\"x\": 1}\n"[..],
                "stream frame without an event discriminator",
            ),
            (b"garbage\n", "unparseable stream frame"),
            // Cut off before its newline, a frame is truncated, not parsed.
            (
                b"{\"event\":\"cell\"}",
                "connection closed inside a stream frame",
            ),
        ] {
            let message = match parse_frame(&mut &wire[..]) {
                Err(ServeError::Protocol(message)) => message,
                other => panic!("{wire:?}: {other:?}"),
            };
            assert!(message.starts_with(refusal), "{message}");
        }
    }
}
