//! # hc-trace
//!
//! Workload substrate for the helper-cluster reproduction: synthetic kernel
//! programs, an interpreter that turns them into dynamic µop traces with real
//! values, per-benchmark workload profiles (SPEC Int 2000 and the Table 2
//! categories) and the trace-level analyses behind the paper's
//! characterisation figures.
//!
//! The paper evaluated on proprietary IA-32 traces; see `DESIGN.md`
//! ("Substitutions") for why value-accurate synthetic traces exercise the same
//! steering decision paths.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod categories;
pub mod format;
pub mod interp;
pub mod kernels;
pub mod phase;
pub mod profile;
pub mod program;
pub mod source;
pub mod spec;
pub mod stats;
pub mod trace;

pub use categories::WorkloadCategory;
pub use format::{
    load_trace, read_header, record_source, recover, write_trace, FileSource, RecoveredTail,
    TraceError, TraceFileHeader, TraceWriter, TRACE_FORMAT_VERSION, TRACE_MAGIC,
};
pub use interp::{InterpConfig, Interpreter, MemImage};
pub use kernels::{Kernel, KernelKind};
pub use phase::{Phase, PhaseSchedule, PhasedSource};
pub use profile::WorkloadProfile;
pub use program::{Inst, Label, Operand, Program};
pub use source::{
    MaterializedSource, SynthesizedSource, TraceHeader, TraceSource, TRACE_SOURCE_CHUNK,
};
pub use spec::SpecBenchmark;
pub use trace::{mix_category, Trace};
