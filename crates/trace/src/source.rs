//! Streaming trace sources.
//!
//! A [`TraceSource`] is a resettable, chunked iterator of [`DynUop`]s with a
//! stable header (name, category, length, optional content digest) known
//! before the first µop is produced.  It is the abstraction the simulator and
//! the campaign grid consume: a fully materialized [`Trace`] is just one
//! implementation ([`MaterializedSource`]), which also hands its trace out
//! through [`TraceSource::as_trace`] so consumers can read it in place;
//! on-disk `.uoptrace` files ([`crate::format::FileSource`]) and
//! phase-structured generators ([`crate::phase::PhasedSource`]) stream µops
//! in O(chunk) memory instead of O(trace) per worker.
//!
//! Contract:
//!
//! * `header().len` is the exact number of µops the source yields between a
//!   `reset()` and exhaustion — consumers size their runs from it;
//! * `fill(out, max)` appends at most `max` µops to `out` and returns how
//!   many were appended; `Ok(0)` means the source is exhausted;
//! * `reset()` rewinds to the first µop and must be called before the first
//!   `fill` of every pass (warmup runs replay the same source repeatedly);
//! * two passes over the same source yield identical µop sequences.

use crate::format::TraceError;
use crate::trace::Trace;
use hc_isa::DynUop;
use std::borrow::Cow;

/// Preferred number of µops per [`TraceSource::fill`] call: large enough to
/// amortize per-chunk overhead, small enough to keep streaming memory flat.
pub const TRACE_SOURCE_CHUNK: usize = 4096;

/// The stable identity of a trace source, known before any µop is produced.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceHeader {
    /// Human-readable trace name (benchmark or app identifier).
    pub name: String,
    /// Workload category label — a single Table 2 category or a `mix(...)`
    /// label when the stream interleaves several.
    pub category: Option<String>,
    /// Exact number of µops one full pass yields.
    pub len: u64,
    /// FNV-1a content digest of the encoded µop stream, when the source is
    /// backed by a recorded file (used to content-address cache keys).
    pub digest: Option<u64>,
}

impl TraceHeader {
    /// Header describing a materialized trace (no content digest).
    pub fn of_trace(trace: &Trace) -> TraceHeader {
        TraceHeader {
            name: trace.name.clone(),
            category: trace.category.clone(),
            len: trace.len() as u64,
            digest: None,
        }
    }
}

/// A resettable, chunked stream of dynamic µops.
pub trait TraceSource: Send {
    /// The source's stable header.
    fn header(&self) -> &TraceHeader;

    /// Rewind to the first µop.
    fn reset(&mut self) -> Result<(), TraceError>;

    /// Append at most `max` µops to `out`; `Ok(0)` means exhausted.
    fn fill(&mut self, out: &mut Vec<DynUop>, max: usize) -> Result<usize, TraceError>;

    /// The whole trace, when the source already holds it in memory — lets a
    /// consumer read the µops in place instead of copying them out chunk by
    /// chunk.  Streaming sources keep the default `None`.
    fn as_trace(&self) -> Option<&Trace> {
        None
    }
}

/// Drain `source` from its current position into a vector (test / tooling
/// helper; defeats the purpose of streaming for large traces).
pub fn drain_source(source: &mut dyn TraceSource) -> Result<Vec<DynUop>, TraceError> {
    let mut uops = Vec::new();
    while source.fill(&mut uops, TRACE_SOURCE_CHUNK)? > 0 {}
    Ok(uops)
}

/// A [`TraceSource`] over a fully materialized [`Trace`], owned or borrowed.
pub struct MaterializedSource<'a> {
    trace: Cow<'a, Trace>,
    header: TraceHeader,
    pos: usize,
}

impl MaterializedSource<'static> {
    /// Wrap an owned trace.
    pub fn new(trace: Trace) -> MaterializedSource<'static> {
        MaterializedSource::from_cow(Cow::Owned(trace))
    }
}

impl<'a> MaterializedSource<'a> {
    /// Wrap a borrowed trace without copying it.
    pub fn borrowed(trace: &'a Trace) -> MaterializedSource<'a> {
        MaterializedSource::from_cow(Cow::Borrowed(trace))
    }

    fn from_cow(trace: Cow<'a, Trace>) -> MaterializedSource<'a> {
        let header = TraceHeader::of_trace(&trace);
        MaterializedSource {
            trace,
            header,
            pos: 0,
        }
    }
}

impl TraceSource for MaterializedSource<'_> {
    fn header(&self) -> &TraceHeader {
        &self.header
    }

    fn reset(&mut self) -> Result<(), TraceError> {
        self.pos = 0;
        Ok(())
    }

    fn fill(&mut self, out: &mut Vec<DynUop>, max: usize) -> Result<usize, TraceError> {
        let n = max.min(self.trace.len() - self.pos);
        out.extend_from_slice(&self.trace.uops[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }

    fn as_trace(&self) -> Option<&Trace> {
        Some(&self.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_isa::uop::{AluOp, Uop, UopKind};

    fn trace(n: usize) -> Trace {
        let uops = (0..n)
            .map(|pc| DynUop::from_uop(Uop::new(pc as u64, UopKind::Alu(AluOp::Add))))
            .collect();
        Trace::from_uops("t", uops).with_category("int")
    }

    #[test]
    fn materialized_source_streams_in_chunks() {
        let t = trace(10);
        let mut src = MaterializedSource::new(t.clone());
        assert_eq!(src.header().len, 10);
        assert_eq!(src.header().name, "t");
        assert_eq!(src.header().category.as_deref(), Some("int"));
        let mut out = Vec::new();
        assert_eq!(src.fill(&mut out, 4).unwrap(), 4);
        assert_eq!(src.fill(&mut out, 4).unwrap(), 4);
        assert_eq!(src.fill(&mut out, 4).unwrap(), 2);
        assert_eq!(src.fill(&mut out, 4).unwrap(), 0);
        assert_eq!(out, t.uops);
    }

    #[test]
    fn reset_replays_identically() {
        let mut src = MaterializedSource::new(trace(7));
        let first = drain_source(&mut src).unwrap();
        src.reset().unwrap();
        let second = drain_source(&mut src).unwrap();
        assert_eq!(first, second);
        assert_eq!(first.len(), 7);
    }
}
