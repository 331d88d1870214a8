//! Frontend: fetch/rename pacing and the per-µop steering decision.
//!
//! Once per wide cycle the frontend renames up to `rename_width` trace µops:
//! it fills a [`SteerContext`] from the rename tables (reusing the context's
//! source-info buffer, so this stage never allocates per µop), asks the
//! policy for a [`SteerDecision`], sanitizes it against structural limits,
//! and hands the µop to [`rename`](super::rename) for dispatch.

use super::Machine;
use crate::rob::UopState;
use crate::steer::{Cluster, SourceWidthInfo, SteerContext, SteerDecision};
use hc_isa::reg::ArchReg;
use hc_isa::uop::UopKind;
use hc_isa::DynUop;

impl Machine<'_> {
    pub(crate) fn rename_and_dispatch(&mut self) {
        if self.ctx.tick < self.ctx.frontend_stall_until || self.ctx.branch_stall.is_some() {
            return;
        }
        // Nothing samples NREADY during rename, so one read serves the pass.
        let imbalance = (
            self.ctx.nready.recent_wide_to_narrow(),
            self.ctx.nready.recent_narrow_to_wide(),
        );
        let mut renamed = 0usize;
        while renamed < self.cfg.rename_width && self.ctx.next_pos < self.feed.len() {
            if self.window_full() {
                break;
            }
            let pos = self.ctx.next_pos;
            // A streaming feed returns None on failure; stop fetching and let
            // the run loop surface the latched error.
            let Some(duop) = self.feed.get(pos) else {
                break;
            };
            let sctx = self.build_context(&duop, pos, imbalance);
            self.ctx.stats.energy.predictor_accesses += 1;
            let mut decision = self.policy.steer(&duop, &sctx);
            // Reclaim the source-info buffer so the next µop fills it in place.
            self.ctx.steer_sources = sctx.sources;
            self.sanitize_decision(&duop, &mut decision);

            // Issue-queue admission check.
            if !self.iq_has_room(&duop, &decision) {
                break;
            }

            if decision.split && duop.uop.kind.is_simple_alu() {
                self.dispatch_split(pos, &duop, &decision);
            } else {
                self.dispatch_normal(pos, &duop, &decision);
            }
            self.ctx.next_pos += 1;
            renamed += 1;

            if self.ctx.branch_stall.is_some() {
                break; // mispredicted branch: stop fetching younger work
            }
        }
    }

    /// Whether the window lacks room for the worst case one µop can need:
    /// a split's chunks plus their copies, and two source copies.
    pub(crate) fn window_full(&self) -> bool {
        self.ctx.rob.len() + self.split_chunks * 2 + 2 > self.cfg.rob_entries
    }

    /// Whether this µop's steering is forced wide by the decision context
    /// (helper missing, wide-only kind, or a post-flush resteer).
    fn forced_wide(&self, duop: &DynUop, pos: usize) -> bool {
        !self.helper_on || duop.uop.kind.wide_only() || self.ctx.forced_wide.contains(pos)
    }

    fn sanitize_decision(&self, duop: &DynUop, d: &mut SteerDecision) {
        if self.forced_wide(duop, self.ctx.next_pos) {
            d.cluster = Cluster::Wide;
            d.helper_mode = None;
            d.split = false;
        }
        if d.cluster == Cluster::Wide {
            d.helper_mode = None;
            if !duop.uop.kind.is_simple_alu() {
                d.split = false;
            }
        }
        if d.split && !duop.uop.kind.is_simple_alu() {
            d.split = false;
        }
    }

    fn iq_has_room(&self, duop: &DynUop, d: &SteerDecision) -> bool {
        let needed_helper;
        let mut needed_wide_int = 0usize;
        let mut needed_wide_fp = 0usize;
        if matches!(duop.uop.kind, UopKind::Fp) {
            needed_wide_fp += 1;
            needed_helper = 0;
        } else if d.split {
            // chunks in the helper IQ + copies (also helper IQ, they execute at
            // the producer side).
            needed_helper = self.split_chunks * 2;
        } else {
            match d.cluster {
                Cluster::Wide => {
                    needed_wide_int += 1;
                    needed_helper = 0;
                }
                Cluster::Helper => needed_helper = 1,
            }
        }
        // Conservative slack of 2 for source copies that dispatch may create.
        self.ctx.wide_int_iq + needed_wide_int + 2 <= self.cfg.int_iq_entries
            && self.ctx.wide_fp_iq + needed_wide_fp <= self.cfg.fp_iq_entries
            && (!self.cfg.helper_enabled
                || self.ctx.helper_iq + needed_helper + 2 <= self.cfg.helper_iq_entries)
    }

    /// Fill a [`SteerContext`] for `duop`, reusing the context's source-info
    /// buffer (the caller hands `sources` back after the policy call).
    /// `imbalance` is the recent (wide→narrow, narrow→wide) NREADY estimate.
    fn build_context(&mut self, duop: &DynUop, pos: usize, imbalance: (f64, f64)) -> SteerContext {
        let mut sources = std::mem::take(&mut self.ctx.steer_sources);
        sources.clear();
        for src in duop.uop.sources() {
            sources.push(self.source_info(src));
        }
        let flags_producer = if duop.uop.reads_flags {
            match self.ctx.flags_map {
                Some(e) => Some(self.ctx.ctl[self.ctx.slot(e.seq)].cluster),
                None => Some(self.ctx.flags_loc),
            }
        } else {
            None
        };
        SteerContext {
            sources,
            imm_narrow: duop.uop.imm.map(|v| v.fits_in(self.nbits)),
            flags_producer,
            wide_iq_occupancy: self.ctx.wide_int_iq,
            helper_iq_occupancy: self.ctx.helper_iq,
            wide_iq_capacity: self.cfg.int_iq_entries,
            helper_iq_capacity: self.cfg.helper_iq_entries,
            wide_to_narrow_imbalance: imbalance.0,
            narrow_to_wide_imbalance: imbalance.1,
            helper_available: self.helper_on,
            forced_wide: self.ctx.forced_wide.contains(pos),
        }
    }

    fn source_info(&self, src: ArchReg) -> SourceWidthInfo {
        match self.ctx.rename_map[src.index()] {
            Some(e) => {
                let idx = self.ctx.slot(e.seq);
                let c = self.ctx.ctl[idx];
                let p = &self.ctx.entries[idx];
                if c.state == UopState::Completed {
                    SourceWidthInfo {
                        narrow: p.uop.result.map(|v| v.fits_in(self.nbits)).unwrap_or(false),
                        actual: true,
                        producer_cluster: Some(c.cluster),
                    }
                } else {
                    SourceWidthInfo {
                        narrow: p.predicted_narrow.unwrap_or(false),
                        actual: false,
                        producer_cluster: Some(c.cluster),
                    }
                }
            }
            None => SourceWidthInfo {
                narrow: self.ctx.arch_narrow[src.index()],
                actual: true,
                producer_cluster: Some(self.ctx.arch_loc[src.index()]),
            },
        }
    }
}
