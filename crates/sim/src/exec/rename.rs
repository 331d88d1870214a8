//! Rename/dispatch: window allocation, dependence tracking, inter-cluster
//! value routing and the two dispatch shapes (normal and IR split).
//!
//! Dependences are recorded in the context's link arena (`dep_head` /
//! `dep_pool`) instead of per-entry `Vec`s, and the copy map is a pair of
//! epoch-guarded slots on each producer entry instead of a
//! `HashMap<(Seq, Cluster), Seq>` — both lookups and inserts are plain
//! indexed stores, and a flush invalidates every copy mapping by bumping the
//! machine's epoch.

use super::context::NO_LINK;
use super::{Machine, RenameEntry};
use crate::rob::{Inflight, Role, Seq, UopCtl, UopState};
use crate::steer::{Cluster, HelperMode, SteerDecision};
use hc_isa::reg::ArchReg;
use hc_isa::uop::{Uop, UopKind};
use hc_isa::DynUop;

impl Machine<'_> {
    pub(crate) fn alloc_entry(&mut self, mut e: Inflight, cluster: Cluster) -> Seq {
        let seq = self.ctx.next_seq();
        e.seq = seq;
        let is_fp = matches!(e.uop.uop.kind, UopKind::Fp);
        self.ctx.entries.push(e);
        self.ctx.ctl.push(UopCtl::new(cluster, is_fp));
        self.ctx.dep_head.push(NO_LINK);
        seq
    }

    /// Record that `consumer` must wait for `producer` to complete.
    pub(crate) fn add_dep(&mut self, consumer: Seq, producer: Seq) {
        let pidx = self.ctx.slot(producer);
        let p = self.ctx.ctl[pidx];
        if p.state == UopState::Completed || !p.alive() {
            return;
        }
        let cidx = self.ctx.slot(consumer);
        self.ctx.ctl[cidx].add_pending_dep();
        self.ctx.dep_head[pidx] = self.ctx.push_link(consumer, self.ctx.dep_head[pidx]);
    }

    fn charge_iq(&mut self, cluster: Cluster, is_fp: bool) {
        match (cluster, is_fp) {
            (Cluster::Wide, false) => {
                self.ctx.wide_int_iq += 1;
                self.ctx.stats.energy.wide_iq_ops += 1;
            }
            (Cluster::Wide, true) => {
                self.ctx.wide_fp_iq += 1;
                self.ctx.stats.energy.wide_iq_ops += 1;
            }
            (Cluster::Helper, _) => {
                self.ctx.helper_iq += 1;
                self.ctx.stats.energy.helper_iq_ops += 1;
            }
        }
    }

    pub(crate) fn finish_dispatch(&mut self, seq: Seq) {
        let idx = self.ctx.slot(seq);
        let c = &mut self.ctx.ctl[idx];
        let (cluster, is_fp) = (c.cluster, c.is_fp);
        let ready_now = c.pending_deps == 0;
        if ready_now {
            c.state = UopState::Ready;
        }
        if ready_now {
            self.ctx.ready.insert(cluster, is_fp, seq);
        }
        self.ctx.rob.push_back(seq);
        if self.ctx.entries[idx].is_store {
            self.ctx.stores.push_back(seq);
        }
        self.charge_iq(cluster, is_fp);
    }

    /// Cached copy of `producer`'s value in `cluster`, if one is still valid
    /// for the current epoch.
    fn cached_copy(&self, producer: Seq, cluster: Cluster) -> Option<Seq> {
        let p = &self.ctx.entries[self.ctx.slot(producer)];
        if p.copy_epoch != self.ctx.copy_epoch {
            return None;
        }
        let seq = p.copy_to[cluster.index()];
        (seq != Seq::MAX).then_some(seq)
    }

    fn record_copy(&mut self, producer: Seq, cluster: Cluster, copy: Seq) {
        let epoch = self.ctx.copy_epoch;
        let pidx = self.ctx.slot(producer);
        let p = &mut self.ctx.entries[pidx];
        if p.copy_epoch != epoch {
            p.copy_to = [Seq::MAX; 2];
            p.copy_epoch = epoch;
        }
        p.copy_to[cluster.index()] = copy;
    }

    /// Ensure the value produced by `producer_seq` (or architectural register
    /// `src` if no in-flight producer) is available in `cluster`, generating a
    /// copy µop if necessary.  Returns the seq the consumer must wait for, if
    /// any.
    pub(crate) fn route_source(&mut self, src: ArchReg, cluster: Cluster) -> Option<Seq> {
        match self.ctx.rename_map[src.index()] {
            Some(e) => self.route_inflight(e.seq, cluster),
            None => {
                // Architectural value.
                if self.ctx.arch_loc[src.index()] == cluster
                    || self.ctx.arch_replicated[src.index()]
                {
                    None
                } else {
                    let cseq = self.make_arch_copy(src, cluster);
                    Some(cseq)
                }
            }
        }
    }

    pub(crate) fn route_flags(&mut self, cluster: Cluster) -> Option<Seq> {
        match self.ctx.flags_map {
            Some(e) => self.route_inflight(e.seq, cluster),
            None => {
                if self.ctx.flags_loc == cluster {
                    None
                } else {
                    // The flags value lives in the other cluster's committed
                    // state; a copy is still required.
                    let cseq = self.make_flags_copy(cluster);
                    Some(cseq)
                }
            }
        }
    }

    /// Make in-flight producer `pseq`'s value available in `cluster`: its
    /// own result when it executes there (or is replicated), else a copy
    /// made earlier this epoch or a new one.  Returns the seq the consumer
    /// must wait for, if it is not complete yet.
    fn route_inflight(&mut self, pseq: Seq, cluster: Cluster) -> Option<Seq> {
        let p = self.ctx.ctl[self.ctx.slot(pseq)];
        if p.cluster == cluster || p.replicated {
            return (p.state != UopState::Completed).then_some(pseq);
        }
        if let Some(cseq) = self.cached_copy(pseq, cluster) {
            // A copy made this epoch was not squashed, so one trimmed out of
            // the window has retired and its value is available.
            if self.ctx.trimmed(cseq) {
                return None;
            }
            let c = self.ctx.ctl[self.ctx.slot(cseq)];
            if c.alive() {
                return (c.state != UopState::Completed).then_some(cseq);
            }
        }
        Some(self.make_copy(pseq, cluster, false))
    }

    /// Create a copy µop for in-flight producer `producer` targeting `target`.
    pub(crate) fn make_copy(&mut self, producer: Seq, target: Cluster, prefetched: bool) -> Seq {
        let pidx = self.ctx.slot(producer);
        let pcluster = self.ctx.ctl[pidx].cluster;
        let uop = DynUop::from_uop(Uop::new(self.ctx.entries[pidx].uop.uop.pc, UopKind::Copy));
        let e = Inflight::new(
            0,
            Role::Copy {
                producer,
                target,
                prefetched,
            },
            uop,
        );
        // Copies execute in the producer's backend.
        let seq = self.alloc_entry(e, pcluster);
        self.add_dep(seq, producer);
        self.finish_dispatch(seq);
        self.record_copy(producer, target, seq);
        self.ctx.entries[pidx].incurred_copy = true;
        self.ctx.stats.copy_uops += 1;
        seq
    }

    /// Copy of an already-committed architectural value.
    fn make_arch_copy(&mut self, src: ArchReg, target: Cluster) -> Seq {
        let source_cluster = self.ctx.arch_loc[src.index()];
        let uop = DynUop::from_uop(Uop::new(0, UopKind::Copy).with_src(src));
        let e = Inflight::new(
            0,
            Role::Copy {
                producer: Seq::MAX,
                target,
                prefetched: false,
            },
            uop,
        );
        let seq = self.alloc_entry(e, source_cluster);
        self.finish_dispatch(seq);
        // Mark the architectural value as now replicated so we do not generate
        // the same copy again next cycle.
        self.ctx.arch_replicated[src.index()] = true;
        self.ctx.stats.copy_uops += 1;
        seq
    }

    fn make_flags_copy(&mut self, target: Cluster) -> Seq {
        let source_cluster = self.ctx.flags_loc;
        let uop = DynUop::from_uop(Uop::new(0, UopKind::Copy).with_src(ArchReg::Eflags));
        let e = Inflight::new(
            0,
            Role::Copy {
                producer: Seq::MAX,
                target,
                prefetched: false,
            },
            uop,
        );
        let seq = self.alloc_entry(e, source_cluster);
        self.finish_dispatch(seq);
        self.ctx.flags_loc = target; // value now present in both; track target
        self.ctx.stats.copy_uops += 1;
        seq
    }

    pub(crate) fn dispatch_normal(&mut self, pos: usize, duop: &DynUop, decision: &SteerDecision) {
        let cluster = decision.cluster;
        let mut e = Inflight::new(0, Role::Trace { pos }, *duop);
        e.helper_mode = decision.helper_mode;
        e.predicted_narrow = decision.predicted_dest_narrow;
        let replicate = decision.replicate_load && duop.uop.kind.is_load();
        let seq = self.alloc_entry(e, cluster);
        if replicate {
            let idx = self.ctx.slot(seq);
            self.ctx.ctl[idx].replicated = true;
            self.ctx.stats.replicated_loads += 1;
        }

        // Source routing.
        for src in duop.uop.sources() {
            if let Some(dep) = self.route_source(src, cluster) {
                self.add_dep(seq, dep);
            }
        }
        if duop.uop.reads_flags {
            if let Some(dep) = self.route_flags(cluster) {
                self.add_dep(seq, dep);
            }
        }

        // Rename the destination / flags.
        if let Some(dst) = duop.uop.dest {
            self.ctx.rename_map[dst.index()] = Some(RenameEntry { seq });
        }
        if duop.uop.writes_flags {
            self.ctx.flags_map = Some(RenameEntry { seq });
        }

        self.finish_dispatch(seq);

        // Copy prefetching (CP): eagerly push the result to the other cluster.
        if decision.prefetch_copy && duop.uop.has_dest() && self.cfg.helper_enabled {
            let target = cluster.other();
            if self.cached_copy(seq, target).is_none() {
                self.make_copy(seq, target, true);
            }
        }

        // Branch prediction and frontend redirect stalls.
        if duop.uop.kind.is_cond_branch() {
            self.ctx.stats.branches += 1;
            let predicted = self.ctx.branch_pred.predict(duop.uop.pc);
            let actual = duop.taken.unwrap_or(false);
            self.ctx
                .branch_pred
                .update(duop.uop.pc, actual, duop.target);
            if predicted != actual {
                self.ctx.stats.branch_mispredicts += 1;
                self.ctx.branch_stall = Some(seq);
            }
        }
    }

    pub(crate) fn dispatch_split(&mut self, pos: usize, duop: &DynUop, decision: &SteerDecision) {
        // Split a wide ALU µop into helper-width chunks (4 at the paper's
        // 8-bit design point) executed in the helper cluster (§3.7).  Chunk 0
        // handles the least significant slice; each chunk depends on the
        // previous one (carry chain).
        let chunks = self.split_chunks;
        let mut prev: Option<Seq> = None;
        let mut last_chunk: Seq = 0;
        for i in 0..chunks {
            let mut chunk_uop = *duop;
            chunk_uop.uop.pc = duop.uop.pc;
            let mut e = Inflight::new(
                0,
                Role::SplitChunk {
                    parent_pos: pos,
                    index: i as u8,
                },
                chunk_uop,
            );
            e.helper_mode = Some(HelperMode::SplitChunk);
            let seq = self.alloc_entry(e, Cluster::Helper);
            if i == 0 {
                for src in duop.uop.sources() {
                    if let Some(dep) = self.route_source(src, Cluster::Helper) {
                        self.add_dep(seq, dep);
                    }
                }
                if duop.uop.reads_flags {
                    if let Some(dep) = self.route_flags(Cluster::Helper) {
                        self.add_dep(seq, dep);
                    }
                }
            } else if let Some(p) = prev {
                self.add_dep(seq, p);
            }
            self.finish_dispatch(seq);
            prev = Some(seq);
            last_chunk = seq;
        }

        // The architectural destination maps to the chain's last chunk.  The
        // full 32-bit value is prefetched to the wide cluster with copy µops.
        if let Some(dst) = duop.uop.dest {
            self.ctx.rename_map[dst.index()] = Some(RenameEntry { seq: last_chunk });
            for _ in 0..chunks {
                // One helper-width copy µop per chunk reconstructs the value
                // in the wide RF; only the most recent copy slot is depended
                // upon by later wide consumers (they all complete together).
                self.make_copy(last_chunk, Cluster::Wide, true);
            }
        }
        if duop.uop.writes_flags {
            self.ctx.flags_map = Some(RenameEntry { seq: last_chunk });
        }

        // The original wide µop itself is accounted as a helper-steered trace
        // µop: the last chunk carries the Trace role bookkeeping is handled at
        // retire of split chunks; we additionally retire the logical trace µop
        // by tagging the last chunk.
        let idx = self.ctx.slot(last_chunk);
        self.ctx.entries[idx].role = Role::Trace { pos };
        self.ctx.entries[idx].helper_mode = Some(HelperMode::SplitChunk);
        self.ctx.entries[idx].predicted_narrow = decision.predicted_dest_narrow;
    }
}
