//! The staged cycle-level clustered out-of-order pipeline.
//!
//! The simulator is trace driven: it replays a [`Trace`] through a model of a
//! Pentium-4-like core (Table 1) extended with the 8-bit helper backend of §2,
//! honouring the steering decisions of a [`SteeringPolicy`].
//!
//! # Stages
//!
//! The engine is split into one module per pipeline concern:
//!
//! * [`frontend`] — fetch/rename pacing, the steer-context fill and the
//!   policy call;
//! * [`rename`] — window allocation, dependence tracking, inter-cluster
//!   value routing (copy µops) and dispatch;
//! * [`issue`] — per-cluster wakeup/select, latencies and completion;
//! * [`memory`] — the load/store ordering check (MOB);
//! * [`commit`] — in-order retirement and width-outcome accounting;
//! * [`recovery`] — the fatal-width-misprediction flush;
//! * [`context`] — the reusable [`ExecContext`] arena all of them run in.
//!
//! # Clocking
//!
//! Time advances in *ticks* — helper-cluster cycles.  A wide-cluster cycle is
//! `helper_clock_ratio` ticks (2 in the paper).  Frontend, commit, and the
//! wide backend operate once per wide cycle; the helper backend issues every
//! tick, which is exactly the "2× faster narrow backend with synchronised
//! clocks" design of §2.2.
//!
//! # What is modelled
//!
//! * per-cluster issue queues with limited entries and issue width,
//! * register dependences through a rename map, including the flags register,
//! * inter-cluster communication through copy µops steered to the producer's
//!   backend (Canal/Parcerisa/González scheme), plus copy prefetching,
//! * load replication (LR) and wide-instruction splitting (IR),
//! * a shared memory hierarchy (DL0/UL1/main memory) and a single MOB with
//!   store-to-load forwarding,
//! * branch direction prediction with frontend redirect stalls,
//! * fatal width-misprediction detection with a flush-and-resteer recovery,
//! * the NREADY imbalance metric and energy event counting.
//!
//! # The no-allocation-per-tick invariant
//!
//! Every structure the per-tick loop touches lives in the reusable
//! [`ExecContext`] arena: the window slab, the dependence-link arena, the
//! event wheel, the `forced_wide` bitset and all scratch buffers.  After the
//! first run warms a context, steady-state simulation performs no heap
//! allocation per tick or per µop — only rare cold-path events (window
//! growth beyond any previous run, an event-wheel bucket outgrowing its
//! capacity) can allocate.  Keep it that way: new per-µop state belongs in
//! the slab or an arena, not in per-entry `Vec`s, and per-tick scratch
//! belongs in [`ExecContext`].

pub mod commit;
pub mod context;
pub mod frontend;
pub mod issue;
pub mod memory;
pub mod recovery;
pub mod rename;

pub use context::ExecContext;

use crate::config::{ConfigError, SimConfig};
use crate::rob::Seq;
use crate::stats::SimStats;
use crate::steer::{Cluster, SteeringPolicy};
use hc_isa::DynUop;
use hc_trace::{Trace, TraceError, TraceSource, TRACE_SOURCE_CHUNK};

/// The simulator: construct once per configuration, then run as many traces /
/// policies as needed — with [`Simulator::run_with`] / [`Simulator::run_source`]
/// and a reused [`ExecContext`] for allocation-free steady state, or
/// [`Simulator::run`] for one-off convenience.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: SimConfig,
}

impl Simulator {
    /// Create a simulator after validating the configuration.
    pub fn new(config: SimConfig) -> Result<Simulator, ConfigError> {
        config.validate()?;
        Ok(Simulator { config })
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Run `trace` under `policy` and return the measured statistics.
    ///
    /// Convenience wrapper over [`Simulator::run_with`] that allocates a
    /// fresh [`ExecContext`] per call; callers running many cells should
    /// create one context per worker thread and reuse it.
    pub fn run(&self, trace: &Trace, policy: &mut dyn SteeringPolicy) -> SimStats {
        let mut ctx = ExecContext::new();
        self.run_with(&mut ctx, trace, policy)
    }

    /// Run `trace` under `policy` inside a reused [`ExecContext`].
    ///
    /// The context is returned to a cold machine state first, so results are
    /// independent of whatever ran in it before — reusing one context across
    /// runs is bit-identical to fresh contexts, just without the per-run
    /// allocations.
    pub fn run_with(
        &self,
        ctx: &mut ExecContext,
        trace: &Trace,
        policy: &mut dyn SteeringPolicy,
    ) -> SimStats {
        ctx.begin_run(&self.config, &trace.name, trace.len(), policy.name());
        Machine {
            cfg: &self.config,
            feed: TraceFeed::Slice(trace),
            policy,
            ctx,
        }
        .run_to_completion();
        ctx.take_stats()
    }

    /// Run a [`TraceSource`] under `policy` inside a reused [`ExecContext`].
    ///
    /// The input picks the feed.  A source that already holds its trace in
    /// memory ([`TraceSource::as_trace`]) is read in place, exactly like
    /// [`Simulator::run_with`] — no µop is copied.  Any other source is
    /// `reset()` and streamed through a bounded window of µops, so warmup
    /// loops can hand the same source in repeatedly.  For any source that
    /// yields the same µops as a materialized trace with the same name and
    /// length, the returned stats are bit-identical to
    /// [`Simulator::run_with`] over that trace: the machine consumes
    /// positions through the same `(len, get(pos))` interface either way.
    ///
    /// A source failure (I/O error, corrupt frame, a stream shorter than its
    /// header promised) aborts the run with the typed error; no stats are
    /// produced.
    pub fn run_source(
        &self,
        ctx: &mut ExecContext,
        source: &mut dyn TraceSource,
        policy: &mut dyn SteeringPolicy,
    ) -> Result<SimStats, TraceError> {
        if let Some(trace) = source.as_trace() {
            return Ok(self.run_with(ctx, trace, policy));
        }
        source.reset()?;
        let (name, len) = {
            let header = source.header();
            let len = usize::try_from(header.len).map_err(|_| {
                TraceError::CorruptHeader("µop count exceeds this platform's usize".into())
            })?;
            (header.name.clone(), len)
        };
        ctx.begin_run(&self.config, &name, len, policy.name());
        let mut machine = Machine {
            cfg: &self.config,
            feed: TraceFeed::Stream(StreamCursor::new(source, len)),
            policy,
            ctx,
        };
        machine.run_to_completion();
        match machine.feed.into_failure() {
            Some(e) => Err(e),
            None => Ok(ctx.take_stats()),
        }
    }
}

/// Rename-table entry: the in-flight producer of an architectural register.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RenameEntry {
    pub(crate) seq: Seq,
}

/// Where a machine's µops come from: a borrowed materialized trace (read in
/// place) or a streaming cursor over a [`TraceSource`] holding only a
/// bounded in-flight window.
///
/// Both answer the two questions the frontend asks — the total length, and
/// "the µop at position `pos`" — so slice-fed and stream-fed runs execute
/// the identical cycle-by-cycle schedule.
pub(crate) enum TraceFeed<'a> {
    Slice(&'a Trace),
    Stream(StreamCursor<'a>),
}

impl TraceFeed<'_> {
    pub(crate) fn len(&self) -> usize {
        match self {
            TraceFeed::Slice(trace) => trace.len(),
            TraceFeed::Stream(cursor) => cursor.len,
        }
    }

    /// The µop at trace position `pos`, or `None` past the end / after a
    /// stream failure.
    pub(crate) fn get(&mut self, pos: usize) -> Option<DynUop> {
        match self {
            TraceFeed::Slice(trace) => trace.uops.get(pos).copied(),
            TraceFeed::Stream(cursor) => cursor.get(pos),
        }
    }

    /// Whether the feed can no longer supply µops it should have.
    pub(crate) fn failed(&self) -> bool {
        matches!(self, TraceFeed::Stream(cursor) if cursor.failed.is_some())
    }

    /// Release buffered µops below the commit watermark — positions the
    /// machine can never ask for again (recovery rewinds only to in-flight,
    /// i.e. not-yet-committed, positions).
    pub(crate) fn trim(&mut self, watermark: usize) {
        if let TraceFeed::Stream(cursor) = self {
            cursor.trim(watermark);
        }
    }

    fn into_failure(self) -> Option<TraceError> {
        match self {
            TraceFeed::Slice(_) => None,
            TraceFeed::Stream(cursor) => cursor.failed,
        }
    }
}

/// A refill-on-demand window over a [`TraceSource`].
///
/// `buf` holds positions `[base, base + buf.len())`; `get` refills in
/// [`TRACE_SOURCE_CHUNK`] steps, and `trim` drops committed positions once a
/// chunk's worth has retired, keeping memory bounded by the chunk size plus
/// the in-flight window.  A source error is latched in `failed`: the
/// frontend then starves, the run loop exits, and the caller surfaces the
/// error instead of stats.
pub(crate) struct StreamCursor<'a> {
    source: &'a mut dyn TraceSource,
    buf: Vec<DynUop>,
    base: usize,
    len: usize,
    failed: Option<TraceError>,
}

impl<'a> StreamCursor<'a> {
    pub(crate) fn new(source: &'a mut dyn TraceSource, len: usize) -> StreamCursor<'a> {
        StreamCursor {
            source,
            buf: Vec::new(),
            base: 0,
            len,
            failed: None,
        }
    }

    fn get(&mut self, pos: usize) -> Option<DynUop> {
        debug_assert!(pos >= self.base, "position below the trimmed watermark");
        while pos >= self.base + self.buf.len() {
            if self.failed.is_some() {
                return None;
            }
            match self.source.fill(&mut self.buf, TRACE_SOURCE_CHUNK) {
                Ok(0) => {
                    self.failed = Some(TraceError::CountMismatch {
                        header: self.len as u64,
                        decoded: (self.base + self.buf.len()) as u64,
                    });
                    return None;
                }
                Ok(_) => {}
                Err(e) => {
                    self.failed = Some(e);
                    return None;
                }
            }
        }
        Some(self.buf[pos - self.base])
    }

    fn trim(&mut self, watermark: usize) {
        let consumed = watermark.saturating_sub(self.base);
        // Amortize: draining the Vec front is O(remaining), so only pay it
        // once a full chunk has retired.
        if consumed >= TRACE_SOURCE_CHUNK {
            self.buf.drain(..consumed.min(self.buf.len()));
            self.base = watermark;
        }
    }
}

/// One run's stage driver: a *view* that borrows the configuration, µop
/// feed, policy and the [`ExecContext`] holding **all** mutable state.  The
/// context must have been started with [`ExecContext::begin_run`] for
/// the feed's name and length.
pub(crate) struct Machine<'a> {
    pub(crate) cfg: &'a SimConfig,
    pub(crate) feed: TraceFeed<'a>,
    pub(crate) policy: &'a mut dyn SteeringPolicy,
    pub(crate) ctx: &'a mut ExecContext,
}

impl Machine<'_> {
    pub(crate) fn ratio(&self) -> u64 {
        self.cfg.ticks_per_wide_cycle()
    }

    /// Helper datapath width every narrowness / carry check runs against.
    pub(crate) fn nbits(&self) -> u32 {
        self.cfg.narrow_bits()
    }

    /// IR split chunk count for the configured helper width.
    pub(crate) fn split_chunks(&self) -> usize {
        self.cfg.split_chunks()
    }

    // ----------------------------------------------------------------- run

    /// Drive the run until its trace has fully retired (or, for a streaming
    /// feed, until the feed fails — the caller turns that into an error).
    pub(crate) fn run_to_completion(&mut self) {
        while !self.ctx.run_done() && !self.feed.failed() {
            self.step_wide_cycle();
        }
    }

    fn step_wide_cycle(&mut self) {
        let ratio = self.ratio();
        for sub in 0..ratio {
            self.complete_at(self.ctx.tick);
            if self.cfg.helper_enabled && self.policy.uses_helper() {
                self.issue_cluster(Cluster::Helper);
            }
            if sub == 0 {
                self.issue_cluster(Cluster::Wide);
            }
            self.ctx.tick += 1;
        }
        self.commit();
        self.feed.trim(self.ctx.committed_trace_uops);
        self.rename_and_dispatch();
        self.sample_nready();
        self.ctx.cycles += 1;
        self.ctx.stats.energy.wide_cycles += 1;
        self.ctx.stats.energy.helper_cycles += ratio;
    }

    // ------------------------------------------------------------- metrics

    fn sample_nready(&mut self) {
        if !self.cfg.helper_enabled || !self.policy.uses_helper() {
            return;
        }
        // The occupancy counters maintained by dispatch/issue/flush and the
        // ready-queue lengths are exactly the quantities the old O(window)
        // ROB walk recomputed: `wide_int_iq`/`helper_iq` count alive integer
        // entries still holding an IQ slot, the ready queues the alive
        // not-yet-issued ready entries.
        let wide_ready = self.ctx.ready.count(Cluster::Wide, false);
        let helper_ready = self.ctx.ready.count(Cluster::Helper, false);
        let considered = self.ctx.wide_int_iq + self.ctx.helper_iq;
        // Free slots next cycle approximated by the issue widths.
        let wide_free = self.cfg.int_issue_width;
        let helper_free = self.cfg.helper_issue_width * self.ratio() as usize;
        self.ctx
            .nready
            .record(wide_ready, wide_free, helper_ready, helper_free, considered);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::steer::{
        AlwaysWide, HelperMode, SteerContext, SteerDecision, SteeringPolicy, WritebackInfo,
    };
    use hc_isa::DynUop;
    use hc_trace::{KernelKind, SpecBenchmark, WorkloadProfile};

    fn small_trace(len: usize) -> Trace {
        WorkloadProfile::new(
            "pipe-test",
            vec![
                (KernelKind::ByteHistogram, 1.0),
                (KernelKind::TokenScan, 1.0),
            ],
        )
        .with_trace_len(len)
        .generate()
    }

    #[test]
    fn baseline_retires_every_trace_uop() {
        let trace = small_trace(3_000);
        let sim = Simulator::new(SimConfig::monolithic_baseline()).unwrap();
        let stats = sim.run(&trace, &mut AlwaysWide);
        assert_eq!(stats.committed_uops, 3_000);
        assert_eq!(stats.helper_uops, 0);
        assert!(stats.cycles > 0);
        assert!(stats.ipc() > 0.1, "IPC unreasonably low: {}", stats.ipc());
        assert!(stats.ipc() <= 6.0, "IPC cannot exceed commit width");
    }

    #[test]
    fn baseline_generates_no_copies_or_splits() {
        let trace = small_trace(2_000);
        let sim = Simulator::new(SimConfig::monolithic_baseline()).unwrap();
        let stats = sim.run(&trace, &mut AlwaysWide);
        assert_eq!(stats.copy_uops, 0);
        assert_eq!(stats.split_uops, 0);
        assert_eq!(stats.fatal_width_mispredicts, 0);
    }

    #[test]
    fn baseline_is_deterministic() {
        let trace = small_trace(2_000);
        let sim = Simulator::new(SimConfig::monolithic_baseline()).unwrap();
        let a = sim.run(&trace, &mut AlwaysWide);
        let b = sim.run(&trace, &mut AlwaysWide);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.committed_uops, b.committed_uops);
    }

    #[test]
    fn empty_trace_is_a_noop() {
        let trace = Trace::new("empty");
        let sim = Simulator::new(SimConfig::monolithic_baseline()).unwrap();
        let stats = sim.run(&trace, &mut AlwaysWide);
        assert_eq!(stats.cycles, 0);
        assert_eq!(stats.committed_uops, 0);
    }

    /// A test-only policy that steers ground-truth-narrow µops to the helper
    /// cluster (an oracle 8-8-8 policy).
    struct OracleNarrow;
    impl SteeringPolicy for OracleNarrow {
        fn name(&self) -> &str {
            "oracle-888"
        }
        fn steer(&mut self, uop: &DynUop, ctx: &SteerContext) -> SteerDecision {
            if ctx.helper_available
                && !ctx.forced_wide
                && uop.is_all_narrow()
                && !uop.uop.kind.wide_only()
            {
                SteerDecision::helper(HelperMode::AllNarrow).with_dest_prediction(true)
            } else {
                SteerDecision::wide()
            }
        }
        fn on_writeback(&mut self, _u: &DynUop, _i: WritebackInfo) {}
    }

    #[test]
    fn oracle_narrow_policy_uses_helper_and_never_flushes() {
        let trace = small_trace(3_000);
        let sim = Simulator::new(SimConfig::paper_baseline()).unwrap();
        let stats = sim.run(&trace, &mut OracleNarrow);
        assert_eq!(stats.committed_uops, 3_000);
        assert!(
            stats.helper_uops > 0,
            "oracle should steer some µops narrow"
        );
        assert_eq!(
            stats.fatal_width_mispredicts, 0,
            "oracle decisions can never be fatally wrong"
        );
    }

    #[test]
    fn oracle_narrow_speeds_up_narrow_heavy_code() {
        let trace = SpecBenchmark::Gzip.trace(6_000);
        let base_sim = Simulator::new(SimConfig::monolithic_baseline()).unwrap();
        let helper_sim = Simulator::new(SimConfig::paper_baseline()).unwrap();
        let base = base_sim.run(&trace, &mut AlwaysWide);
        let helper = helper_sim.run(&trace, &mut OracleNarrow);
        assert_eq!(base.committed_uops, helper.committed_uops);
        let speedup = helper.speedup_over(&base);
        assert!(
            speedup > 0.95,
            "helper cluster should not slow narrow-heavy code down much, got {speedup:.3}"
        );
    }

    /// A deliberately wrong policy: steers everything to the helper cluster as
    /// "all narrow".  Wide values must then trigger fatal mispredictions.
    struct RecklessNarrow;
    impl SteeringPolicy for RecklessNarrow {
        fn name(&self) -> &str {
            "reckless"
        }
        fn steer(&mut self, uop: &DynUop, ctx: &SteerContext) -> SteerDecision {
            if ctx.helper_available && !ctx.forced_wide && !uop.uop.kind.wide_only() {
                SteerDecision::helper(HelperMode::AllNarrow)
            } else {
                SteerDecision::wide()
            }
        }
        fn on_writeback(&mut self, _u: &DynUop, _i: WritebackInfo) {}
    }

    #[test]
    fn wrong_steering_triggers_fatal_mispredictions_and_still_completes() {
        let trace = small_trace(2_000);
        let sim = Simulator::new(SimConfig::paper_baseline()).unwrap();
        let stats = sim.run(&trace, &mut RecklessNarrow);
        assert_eq!(stats.committed_uops, 2_000, "flushes must not lose µops");
        assert!(
            stats.fatal_width_mispredicts > 0,
            "wide values steered narrow must be caught"
        );
    }

    #[test]
    fn copies_are_generated_when_values_cross_clusters() {
        let trace = small_trace(3_000);
        let sim = Simulator::new(SimConfig::paper_baseline()).unwrap();
        let stats = sim.run(&trace, &mut OracleNarrow);
        assert!(
            stats.copy_uops > 0,
            "narrow producers feeding wide consumers require copies"
        );
    }

    #[test]
    fn stats_fractions_are_consistent() {
        let trace = small_trace(2_000);
        let sim = Simulator::new(SimConfig::paper_baseline()).unwrap();
        let stats = sim.run(&trace, &mut OracleNarrow);
        assert_eq!(stats.helper_uops + stats.wide_uops, stats.committed_uops);
        assert!(stats.helper_fraction() <= 1.0);
        assert!(stats.ticks >= stats.cycles * 2);
    }

    #[test]
    fn reused_context_is_bit_identical_to_fresh_contexts() {
        let traces = [small_trace(1_500), SpecBenchmark::Gzip.trace(1_500)];
        let helper = Simulator::new(SimConfig::paper_baseline()).unwrap();
        let baseline = Simulator::new(SimConfig::monolithic_baseline()).unwrap();
        let mut ctx = ExecContext::new();
        for trace in &traces {
            // Interleave configurations and policies through ONE context and
            // compare against fresh-context runs.
            let a = helper.run_with(&mut ctx, trace, &mut OracleNarrow);
            let b = baseline.run_with(&mut ctx, trace, &mut AlwaysWide);
            let c = helper.run_with(&mut ctx, trace, &mut RecklessNarrow);
            assert_eq!(a, helper.run(trace, &mut OracleNarrow));
            assert_eq!(b, baseline.run(trace, &mut AlwaysWide));
            assert_eq!(c, helper.run(trace, &mut RecklessNarrow));
        }
    }

    /// A source that streams a trace but never offers it in place, so runs
    /// over it take the stream cursor.
    struct StreamOnly {
        inner: hc_trace::MaterializedSource<'static>,
        header: hc_trace::TraceHeader,
    }

    impl StreamOnly {
        fn new(trace: Trace) -> StreamOnly {
            StreamOnly {
                header: hc_trace::TraceHeader::of_trace(&trace),
                inner: hc_trace::MaterializedSource::new(trace),
            }
        }
    }

    impl TraceSource for StreamOnly {
        fn header(&self) -> &hc_trace::TraceHeader {
            &self.header
        }
        fn reset(&mut self) -> Result<(), TraceError> {
            self.inner.reset()
        }
        fn fill(&mut self, out: &mut Vec<DynUop>, max: usize) -> Result<usize, TraceError> {
            self.inner.fill(out, max)
        }
    }

    #[test]
    fn streaming_source_is_bit_identical_to_slice_runs() {
        // Long enough to wrap several stream chunks so `trim` really runs;
        // RecklessNarrow exercises the flush-and-resteer rewind path against
        // the trimmed window.
        let trace = small_trace(10_000);
        let sim = Simulator::new(SimConfig::paper_baseline()).unwrap();
        let mut ctx = ExecContext::new();
        let mut streamed_source = StreamOnly::new(trace.clone());
        let mut in_place_source = hc_trace::MaterializedSource::borrowed(&trace);
        for make_policy in [
            || Box::new(OracleNarrow) as Box<dyn SteeringPolicy>,
            || Box::new(RecklessNarrow) as Box<dyn SteeringPolicy>,
            || Box::new(AlwaysWide) as Box<dyn SteeringPolicy>,
        ] {
            let sliced = sim.run_with(&mut ctx, &trace, make_policy().as_mut());
            let streamed = sim
                .run_source(&mut ctx, &mut streamed_source, make_policy().as_mut())
                .expect("an in-memory stream cannot fail");
            assert_eq!(sliced, streamed, "stream-fed run must be bit-identical");
            let in_place = sim
                .run_source(&mut ctx, &mut in_place_source, make_policy().as_mut())
                .expect("an in-memory source cannot fail");
            assert_eq!(sliced, in_place, "in-place run must be bit-identical");
        }
    }

    #[test]
    fn short_stream_is_a_typed_error_not_a_hang() {
        let trace = small_trace(500);
        let mut source = StreamOnly::new(trace);
        // The header promises more µops than the stream yields.
        source.header.len = 800;
        let sim = Simulator::new(SimConfig::paper_baseline()).unwrap();
        let mut ctx = ExecContext::new();
        let err = sim
            .run_source(&mut ctx, &mut source, &mut AlwaysWide)
            .expect_err("a short stream must fail");
        assert!(
            matches!(
                err,
                hc_trace::TraceError::CountMismatch {
                    header: 800,
                    decoded: 500
                }
            ),
            "unexpected error {err:?}"
        );
        // The context is reusable afterwards.
        let trace = small_trace(400);
        let stats = sim.run_with(&mut ctx, &trace, &mut AlwaysWide);
        assert_eq!(stats.committed_uops, 400);
    }

    #[test]
    fn repeated_runs_through_one_context_are_identical() {
        let trace = small_trace(2_000);
        let sim = Simulator::new(SimConfig::paper_baseline()).unwrap();
        let mut ctx = ExecContext::new();
        let first = sim.run_with(&mut ctx, &trace, &mut OracleNarrow);
        for _ in 0..3 {
            let again = sim.run_with(&mut ctx, &trace, &mut OracleNarrow);
            assert_eq!(first, again, "context reuse must not leak state");
        }
    }
}
