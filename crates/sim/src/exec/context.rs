//! The reusable per-run execution arena: every piece of mutable simulator
//! state.
//!
//! A [`ExecContext`] owns the in-flight window slab (with its hot
//! scheduling fields split into a dense parallel column), the
//! dependence-link arena, the reorder buffer, the cycle-bucketed event
//! wheel, the `forced_wide` bitset, the reused memory hierarchy and branch
//! predictor, assorted scratch buffers, **and the whole per-run machine
//! state** (rename tables, issue-queue occupancy, the ready queues, clocks
//! and statistics).  The stage driver (`Machine`) is only a view over it.
//!
//! Its `begin_run` step returns all of it to a cold state *without releasing
//! allocations*, which is what makes the staged engine's hot loop
//! allocation-free in steady state: a campaign worker thread allocates one
//! context and replays every grid cell through it.

use super::RenameEntry;
use crate::cache::MemoryHierarchy;
use crate::config::SimConfig;
use crate::imbalance::NReadyAccumulator;
use crate::rob::{Inflight, Seq, UopCtl};
use crate::stats::SimStats;
use crate::steer::{Cluster, SourceWidthInfo};
use hc_isa::reg::NUM_ARCH_REGS;
use hc_predictors::BranchPredictor;
use std::collections::VecDeque;

/// Sentinel for "no link" in the dependence arena.
pub(crate) const NO_LINK: usize = usize::MAX;

/// Default number of buckets in the event wheel: larger than the longest
/// event latency of the paper configuration (a main-memory load is under
/// 1000 ticks at the 2× helper clock), so bucket collisions essentially
/// never happen.  Configurations with longer worst-case latencies grow the
/// wheel to the next power of two that covers them (see
/// [`EventWheel::ensure_horizon`]); [`SimConfig::validate`] rejects
/// configurations beyond [`crate::config::MAX_COMPLETION_LATENCY_TICKS`]
/// outright.
const DEFAULT_WHEEL_BUCKETS: usize = 1024;

/// Reusable per-run simulator state.  Create once per worker thread and pass
/// to [`Simulator::run_with`] for every run; each run starts from a cold
/// machine state but reuses every allocation of the previous one.
///
/// [`Simulator::run_with`]: crate::exec::Simulator::run_with
#[derive(Debug, Clone)]
pub struct ExecContext {
    // ------------------------------------------------------------- arenas
    /// Dense in-flight window slab (cold per-entry payload), indexed by
    /// [`Seq`].
    pub(crate) entries: Vec<Inflight>,
    /// Packed hot scheduling state of each entry (8 bytes/entry), parallel
    /// to `entries` — the wakeup/select/routing loops walk this column
    /// instead of dragging whole [`Inflight`] records through the cache.
    pub(crate) ctl: Vec<UopCtl>,
    /// Head of each entry's dependents chain in [`ExecContext::dep_pool`]
    /// (`NO_LINK` = no dependents).  Parallel to `entries`.
    pub(crate) dep_head: Vec<usize>,
    /// Arena of `(consumer, next)` dependence links: the index-vector
    /// replacement for the old per-entry `Vec<Seq>` dependents lists.
    pub(crate) dep_pool: Vec<(Seq, usize)>,
    /// The reorder buffer (sequence numbers in dispatch order).
    pub(crate) rob: VecDeque<Seq>,
    /// In-flight store sequence numbers in dispatch (= age) order: the MOB's
    /// index, so the load ordering check scans stores only, not the whole
    /// window.  Squashed stores are skipped lazily and dropped at the next
    /// store retirement.
    pub(crate) stores: VecDeque<Seq>,
    /// Cycle-bucketed completion-event wheel.
    pub(crate) events: EventWheel,
    /// Scratch for draining one tick's due events.
    pub(crate) event_scratch: Vec<Seq>,
    /// Scratch for the select loop's merged (int + fp) ready walk.
    pub(crate) select_scratch: Vec<Seq>,
    /// Alive `Ready` (not yet issued) entries per `[cluster][is_fp]`, each
    /// queue in ascending sequence order — the select loop walks exactly the
    /// issuable entries instead of scanning the whole reorder buffer.
    pub(crate) ready: ReadyQueues,
    /// Trace positions forced to the wide cluster after a fatal width
    /// misprediction, as a dense bitset over trace positions.
    pub(crate) forced_wide: BitSet,
    /// Scratch for the steer-context source list, reclaimed after every
    /// policy call so rename never allocates per µop.
    pub(crate) steer_sources: Vec<SourceWidthInfo>,
    /// Scratch sequence buffer for flush recovery.
    pub(crate) seq_scratch: Vec<Seq>,
    /// Reused data-memory hierarchy (rebuilt only when the cache geometry
    /// changes between runs, reset otherwise).
    pub(crate) mem: MemoryHierarchy,
    /// Reused branch predictor (reset to untrained between runs).
    pub(crate) branch_pred: BranchPredictor,

    // -------------------------------------------------- per-run machine state
    /// Rename table: in-flight producer of each architectural register.
    pub(crate) rename_map: [Option<RenameEntry>; NUM_ARCH_REGS],
    /// In-flight producer of the flags register.
    pub(crate) flags_map: Option<RenameEntry>,
    /// Cluster each committed architectural register lives in.
    pub(crate) arch_loc: [Cluster; NUM_ARCH_REGS],
    /// Whether the committed value is replicated in both clusters.
    pub(crate) arch_replicated: [bool; NUM_ARCH_REGS],
    /// Whether the committed value fits the helper width.
    pub(crate) arch_narrow: [bool; NUM_ARCH_REGS],
    /// Cluster the committed flags value lives in.
    pub(crate) flags_loc: Cluster,
    /// Current copy-slot epoch; a flush bumps it to invalidate every cached
    /// copy mapping at once (see [`crate::rob::Inflight`]).
    pub(crate) copy_epoch: u32,
    /// Wide-cluster integer issue-queue occupancy.
    pub(crate) wide_int_iq: usize,
    /// Wide-cluster FP issue-queue occupancy.
    pub(crate) wide_fp_iq: usize,
    /// Helper-cluster issue-queue occupancy.
    pub(crate) helper_iq: usize,
    /// Next trace position to fetch.
    pub(crate) next_pos: usize,
    /// Frontend redirect stall: no rename until this tick.
    pub(crate) frontend_stall_until: u64,
    /// Unresolved mispredicted branch blocking fetch, if any.
    pub(crate) branch_stall: Option<Seq>,
    /// Current tick (helper cycles).
    pub(crate) tick: u64,
    /// Current wide cycle.
    pub(crate) cycles: u64,
    /// Hard cycle bound so a modelling bug can never hang the caller.
    pub(crate) max_cycles: u64,
    /// NREADY imbalance accumulator.
    pub(crate) nready: NReadyAccumulator,
    /// Statistics under construction for the current run.
    pub(crate) stats: SimStats,
    /// Trace µops retired so far (the run's termination condition).
    pub(crate) committed_trace_uops: usize,
    /// Trace length of the current run (captured so the context itself knows
    /// when the run has drained).
    pub(crate) trace_len: usize,
}

impl ExecContext {
    /// Create an empty context.  Buffers grow on first use and are kept for
    /// every later run.
    pub fn new() -> ExecContext {
        ExecContext {
            entries: Vec::new(),
            ctl: Vec::new(),
            dep_head: Vec::new(),
            dep_pool: Vec::new(),
            rob: VecDeque::new(),
            stores: VecDeque::new(),
            events: EventWheel::new(),
            event_scratch: Vec::new(),
            select_scratch: Vec::new(),
            ready: ReadyQueues::default(),
            forced_wide: BitSet::new(),
            steer_sources: Vec::new(),
            seq_scratch: Vec::new(),
            mem: MemoryHierarchy::new(&SimConfig::default()),
            branch_pred: BranchPredictor::default(),
            rename_map: [None; NUM_ARCH_REGS],
            flags_map: None,
            arch_loc: [Cluster::Wide; NUM_ARCH_REGS],
            arch_replicated: [false; NUM_ARCH_REGS],
            arch_narrow: [false; NUM_ARCH_REGS],
            flags_loc: Cluster::Wide,
            copy_epoch: 1,
            wide_int_iq: 0,
            wide_fp_iq: 0,
            helper_iq: 0,
            next_pos: 0,
            frontend_stall_until: 0,
            branch_stall: None,
            tick: 0,
            cycles: 0,
            max_cycles: 0,
            nready: NReadyAccumulator::new(4096),
            stats: SimStats::default(),
            committed_trace_uops: 0,
            trace_len: 0,
        }
    }

    /// Return the arena buffers to a cold state for a run of `trace_len`
    /// µops under `cfg`, keeping every allocation.
    fn prepare(&mut self, cfg: &SimConfig, trace_len: usize) {
        self.entries.clear();
        self.ctl.clear();
        self.dep_head.clear();
        self.dep_pool.clear();
        let want = trace_len + trace_len / 2;
        self.entries.reserve(want);
        self.ctl.reserve(want);
        self.dep_head.reserve(want);
        self.rob.clear();
        self.stores.clear();
        self.events.reset();
        self.events
            .ensure_horizon(cfg.worst_case_completion_ticks());
        self.event_scratch.clear();
        self.select_scratch.clear();
        self.ready.reset();
        self.forced_wide.reset(trace_len);
        self.steer_sources.clear();
        self.seq_scratch.clear();
        if self.mem.matches(cfg) {
            self.mem.reset();
        } else {
            self.mem = MemoryHierarchy::new(cfg);
        }
        self.branch_pred.reset();
    }

    /// Return the whole context — arenas *and* machine state — to the cold
    /// state a fresh run of a `trace_len`-µop trace starts from, keeping
    /// every allocation.  After this the run can be stepped wide cycle by
    /// wide cycle until [`ExecContext::run_done`].
    pub(crate) fn begin_run(
        &mut self,
        cfg: &SimConfig,
        trace_name: &str,
        trace_len: usize,
        policy_name: &str,
    ) {
        self.prepare(cfg, trace_len);
        self.rename_map = [None; NUM_ARCH_REGS];
        self.flags_map = None;
        self.arch_loc = [Cluster::Wide; NUM_ARCH_REGS];
        self.arch_replicated = [false; NUM_ARCH_REGS];
        self.arch_narrow = [false; NUM_ARCH_REGS];
        self.flags_loc = Cluster::Wide;
        self.copy_epoch = 1; // entries start at epoch 0 = "no cached copies"
        self.wide_int_iq = 0;
        self.wide_fp_iq = 0;
        self.helper_iq = 0;
        self.next_pos = 0;
        self.frontend_stall_until = 0;
        self.branch_stall = None;
        self.tick = 0;
        self.cycles = 0;
        // Hard bound so a modelling bug can never hang the caller.
        self.max_cycles = (trace_len as u64 + 1_000) * 600;
        self.nready = NReadyAccumulator::new(4096);
        self.stats = SimStats {
            policy: policy_name.to_string(),
            trace: trace_name.to_string(),
            ..SimStats::default()
        };
        self.committed_trace_uops = 0;
        self.trace_len = trace_len;
    }

    /// Whether the current run has retired its whole trace (or hit the
    /// safety cycle bound).
    pub(crate) fn run_done(&self) -> bool {
        self.committed_trace_uops >= self.trace_len || self.cycles >= self.max_cycles
    }

    /// Finalize and take the current run's statistics.
    pub(crate) fn take_stats(&mut self) -> SimStats {
        debug_assert!(
            self.committed_trace_uops >= self.trace_len,
            "simulation did not retire the whole trace within the cycle bound"
        );
        let mut stats = std::mem::take(&mut self.stats);
        stats.cycles = self.cycles;
        stats.ticks = self.tick;
        stats.imbalance = self.nready.stats();
        stats.dl0 = self.mem.dl0_stats();
        stats.ul1 = self.mem.ul1_stats();
        stats.energy.dl0_accesses = stats.dl0.accesses;
        stats.energy.ul1_accesses = stats.ul1.accesses;
        stats
    }
}

impl Default for ExecContext {
    fn default() -> ExecContext {
        ExecContext::new()
    }
}

/// The per-cluster ready queues: alive, `Ready`, not-yet-issued entries in
/// ascending sequence order, indexed `[cluster][is_fp]`.
///
/// Because the reorder buffer holds sequence numbers in ascending dispatch
/// order, walking a merged (int + fp) view of a cluster's queues visits
/// ready entries in **exactly the order the old O(window) ROB scan
/// encountered them** — the select loop's results are bit-identical, it
/// just skips the non-ready window entries the scan used to step over.
#[derive(Debug, Clone, Default)]
pub(crate) struct ReadyQueues {
    queues: [[Vec<Seq>; 2]; 2],
}

impl ReadyQueues {
    fn reset(&mut self) {
        for cluster in &mut self.queues {
            for queue in cluster {
                queue.clear();
            }
        }
    }

    /// Number of ready entries of one (cluster, is_fp) class.
    pub(crate) fn count(&self, cluster: Cluster, is_fp: bool) -> usize {
        self.queues[cluster.index()][is_fp as usize].len()
    }

    /// Record that `seq` became ready.  Newly dispatched µops carry the
    /// highest sequence so far (append); dependence wakeups can ready an
    /// older entry than some already-ready younger one (sorted insert).
    pub(crate) fn insert(&mut self, cluster: Cluster, is_fp: bool, seq: Seq) {
        let queue = &mut self.queues[cluster.index()][is_fp as usize];
        match queue.last() {
            Some(&last) if last > seq => {
                let at = queue.partition_point(|&s| s < seq);
                queue.insert(at, seq);
            }
            _ => queue.push(seq),
        }
    }

    /// Remove `seq` from one queue (it issued or was squashed).
    pub(crate) fn remove(&mut self, cluster: Cluster, is_fp: bool, seq: Seq) {
        let queue = &mut self.queues[cluster.index()][is_fp as usize];
        if let Ok(at) = queue.binary_search(&seq) {
            queue.remove(at);
        }
    }

    /// Drop every queued entry `predicate` rejects — the recovery path's
    /// bulk removal after a flush squashes a suffix of the window.
    pub(crate) fn retain(&mut self, mut predicate: impl FnMut(Seq) -> bool) {
        for cluster in &mut self.queues {
            for queue in cluster {
                queue.retain(|&s| predicate(s));
            }
        }
    }

    /// Merge one cluster's int + fp queues into `out`, ascending by seq —
    /// the select loop's walk order.
    pub(crate) fn merged(&self, cluster: Cluster, out: &mut Vec<Seq>) {
        out.clear();
        let ints = &self.queues[cluster.index()][0];
        let fps = &self.queues[cluster.index()][1];
        if fps.is_empty() {
            out.extend_from_slice(ints);
            return;
        }
        let (mut i, mut f) = (0, 0);
        while i < ints.len() && f < fps.len() {
            if ints[i] < fps[f] {
                out.push(ints[i]);
                i += 1;
            } else {
                out.push(fps[f]);
                f += 1;
            }
        }
        out.extend_from_slice(&ints[i..]);
        out.extend_from_slice(&fps[f..]);
    }
}

/// A cycle-bucketed event wheel: completion events land in the bucket of
/// their due tick and are drained exactly at that tick, replacing the old
/// `BinaryHeap<Reverse<(tick, Seq)>>`.  Draining sorts the (tiny) due set by
/// sequence number, reproducing the heap's `(tick, seq)` pop order exactly.
#[derive(Debug, Clone)]
pub(crate) struct EventWheel {
    buckets: Vec<Vec<(u64, Seq)>>,
    pending: usize,
}

impl EventWheel {
    fn new() -> EventWheel {
        EventWheel {
            buckets: vec![Vec::new(); DEFAULT_WHEEL_BUCKETS],
            pending: 0,
        }
    }

    fn reset(&mut self) {
        if self.pending > 0 {
            for bucket in &mut self.buckets {
                bucket.clear();
            }
            self.pending = 0;
        }
    }

    /// Number of ticks of look-ahead the wheel covers without a bucket
    /// collision.  Always a power of two.
    pub(crate) fn horizon(&self) -> u64 {
        self.buckets.len() as u64
    }

    /// Grow the wheel (to the next power of two) until `worst_case_ticks`
    /// of look-ahead fit without wrapping.  Growth is config-driven and
    /// sticky — a context reused across scenario machines keeps the largest
    /// horizon it has seen, so steady-state runs never reallocate.
    pub(crate) fn ensure_horizon(&mut self, worst_case_ticks: u64) {
        debug_assert_eq!(self.pending, 0, "resize only between runs");
        let needed = (worst_case_ticks + 1)
            .next_power_of_two()
            .max(DEFAULT_WHEEL_BUCKETS as u64) as usize;
        if needed > self.buckets.len() {
            self.buckets.resize(needed, Vec::new());
        }
    }

    /// Schedule `seq` to complete at tick `due`.
    ///
    /// The caller (the issue stage) guarantees `due` is less than one wheel
    /// revolution ahead of the current tick — [`SimConfig::validate`]
    /// rejects configurations whose worst-case completion latency could
    /// wrap the wheel, and `ensure_horizon` sizes it to the config.  A
    /// colliding *future* event would still be handled correctly (it stays
    /// in place until its due tick), it is just slower; the debug assertion
    /// at the issue site keeps the invariant honest.
    pub(crate) fn push(&mut self, due: u64, seq: Seq) {
        let mask = self.buckets.len() - 1;
        self.buckets[due as usize & mask].push((due, seq));
        self.pending += 1;
    }

    /// Move every event due at `now` into `out`, sorted by sequence number.
    /// The wheel is drained every tick, so an event's bucket is always
    /// visited exactly at its due tick; events a full wheel revolution in
    /// the future (only reachable by bypassing [`SimConfig::validate`])
    /// stay in place until their turn.
    pub(crate) fn drain_due(&mut self, now: u64, out: &mut Vec<Seq>) {
        out.clear();
        if self.pending == 0 {
            return;
        }
        let mask = self.buckets.len() - 1;
        let bucket = &mut self.buckets[now as usize & mask];
        if bucket.iter().all(|&(due, _)| due == now) {
            out.extend(bucket.drain(..).map(|(_, seq)| seq));
        } else {
            let mut i = 0;
            while i < bucket.len() {
                if bucket[i].0 <= now {
                    out.push(bucket.swap_remove(i).1);
                } else {
                    i += 1;
                }
            }
        }
        self.pending -= out.len();
        out.sort_unstable();
    }
}

/// A dense bitset over trace positions, replacing the old
/// `HashSet<usize>` for `forced_wide` with two instructions per query.
#[derive(Debug, Clone, Default)]
pub(crate) struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn new() -> BitSet {
        BitSet::default()
    }

    /// Clear and resize to cover `bits` positions, keeping the allocation.
    fn reset(&mut self, bits: usize) {
        self.words.clear();
        self.words.resize(bits.div_ceil(64), 0);
    }

    pub(crate) fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    pub(crate) fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_inserts_and_queries() {
        let mut b = BitSet::new();
        b.reset(130);
        assert!(!b.contains(0));
        b.insert(0);
        b.insert(64);
        b.insert(129);
        assert!(b.contains(0));
        assert!(b.contains(64));
        assert!(b.contains(129));
        assert!(!b.contains(1));
        b.reset(130);
        assert!(!b.contains(64), "reset must clear previous bits");
    }

    #[test]
    fn wheel_drains_in_seq_order_at_the_due_tick() {
        let mut w = EventWheel::new();
        let mut out = Vec::new();
        w.push(5, 9);
        w.push(5, 3);
        w.push(6, 1);
        w.drain_due(4, &mut out);
        assert!(out.is_empty());
        w.drain_due(5, &mut out);
        assert_eq!(out, vec![3, 9]);
        w.drain_due(6, &mut out);
        assert_eq!(out, vec![1]);
        w.drain_due(7, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn wheel_keeps_colliding_future_events() {
        let mut w = EventWheel::new();
        let mut out = Vec::new();
        // Same bucket (one revolution apart), different due ticks: reachable
        // only by bypassing config validation, but still handled exactly.
        let horizon = w.horizon();
        w.push(10, 1);
        w.push(10 + horizon, 2);
        w.drain_due(10, &mut out);
        assert_eq!(out, vec![1]);
        w.drain_due(10 + horizon, &mut out);
        assert_eq!(out, vec![2]);
    }

    #[test]
    fn wheel_grows_to_cover_long_latencies() {
        let mut w = EventWheel::new();
        assert_eq!(w.horizon(), DEFAULT_WHEEL_BUCKETS as u64);
        w.ensure_horizon(3_000);
        assert_eq!(w.horizon(), 4_096, "next power of two covering 3000");
        // Sticky: a smaller config does not shrink the wheel.
        w.ensure_horizon(10);
        assert_eq!(w.horizon(), 4_096);
        let mut out = Vec::new();
        w.push(3_000, 7);
        w.drain_due(3_000, &mut out);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn ready_queues_iterate_in_seq_order() {
        let mut r = ReadyQueues::default();
        r.insert(Cluster::Wide, false, 5);
        r.insert(Cluster::Wide, false, 2); // wakeup out of order
        r.insert(Cluster::Wide, true, 3);
        r.insert(Cluster::Helper, false, 1);
        let mut out = Vec::new();
        r.merged(Cluster::Wide, &mut out);
        assert_eq!(out, vec![2, 3, 5]);
        r.merged(Cluster::Helper, &mut out);
        assert_eq!(out, vec![1]);
        assert_eq!(r.count(Cluster::Wide, false), 2);
        r.remove(Cluster::Wide, false, 2);
        r.merged(Cluster::Wide, &mut out);
        assert_eq!(out, vec![3, 5]);
        r.retain(|s| s != 3);
        r.merged(Cluster::Wide, &mut out);
        assert_eq!(out, vec![5]);
    }

    #[test]
    fn context_prepare_is_idempotent() {
        use hc_trace::{KernelKind, WorkloadProfile};
        let trace = WorkloadProfile::new("ctx-test", vec![(KernelKind::WordSum, 1.0)])
            .with_trace_len(500)
            .generate();
        let cfg = SimConfig::paper_baseline();
        let mut ctx = ExecContext::new();
        ctx.prepare(&cfg, trace.len());
        ctx.entries.push(Inflight::new(
            0,
            crate::rob::Role::Trace { pos: 0 },
            trace.uops[0],
        ));
        ctx.ctl
            .push(UopCtl::new(crate::steer::Cluster::Wide, false));
        ctx.events.push(3, 0);
        ctx.prepare(&cfg, trace.len());
        assert!(ctx.entries.is_empty());
        assert!(ctx.ctl.is_empty());
        assert_eq!(ctx.events.pending, 0);
    }
}
