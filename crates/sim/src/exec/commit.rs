//! Commit: in-order retirement, rename-table release, width-prediction
//! outcome accounting (Figure 5 semantics) and policy writeback training.

use super::{Machine, RenameEntry};
use crate::rob::{Role, Seq, UopState};
use crate::steer::{Cluster, WritebackInfo};
use hc_isa::DynUop;

impl Machine<'_> {
    pub(crate) fn commit(&mut self) {
        let mut committed = 0usize;
        while let Some(&seq) = self.ctx.rob.front() {
            let idx = self.ctx.slot(seq);
            if !self.ctx.ctl[idx].alive() {
                self.ctx.rob.pop_front();
                continue;
            }
            if self.ctx.ctl[idx].state != UopState::Completed {
                break;
            }
            if committed >= self.cfg.commit_width {
                break;
            }
            self.ctx.rob.pop_front();
            committed += 1;
            self.retire(seq);
        }
    }

    fn retire(&mut self, seq: Seq) {
        let idx = self.ctx.slot(seq);
        if self.ctx.entries[idx].is_store {
            // Stores retire in age order and a flush drops the ones it
            // squashes, so this store heads the MOB index.
            let oldest = self.ctx.stores.pop_front();
            debug_assert_eq!(oldest, Some(seq), "the MOB index lost its order");
        }
        let cluster = self.ctx.ctl[idx].cluster;
        let replicated = self.ctx.ctl[idx].replicated;
        let incurred_copy = self.ctx.entries[idx].incurred_copy;
        let fatal = self.ctx.entries[idx].fatal_mispredict;
        let uop = self.ctx.entries[idx].uop;
        let role = self.ctx.entries[idx].role;

        // Free the rename mapping if this entry is still the current producer.
        if let Some(dst) = uop.uop.dest {
            if self.ctx.rename_map[dst.index()]
                .map(|e: RenameEntry| e.seq == seq)
                .unwrap_or(false)
            {
                self.ctx.rename_map[dst.index()] = None;
            }
            self.ctx.arch_loc[dst.index()] = cluster;
            self.ctx.arch_replicated[dst.index()] = replicated;
            self.ctx.arch_narrow[dst.index()] =
                uop.result.map(|v| v.fits_in(self.nbits)).unwrap_or(false);
        }
        if uop.uop.writes_flags {
            if self.ctx.flags_map.map(|e| e.seq == seq).unwrap_or(false) {
                self.ctx.flags_map = None;
            }
            self.ctx.flags_loc = cluster;
        }

        match role {
            Role::Trace { .. } => {
                self.ctx.committed_trace_uops += 1;
                self.ctx.stats.committed_uops += 1;
                match cluster {
                    Cluster::Wide => self.ctx.stats.wide_uops += 1,
                    Cluster::Helper => self.ctx.stats.helper_uops += 1,
                }
                // Width-prediction outcome accounting (Figure 5 semantics):
                // helper-steered µops that survived are correct; wide-steered
                // µops that could have gone narrow are missed opportunities.
                if self.eligible_for_width_accounting(&uop) {
                    if cluster == Cluster::Helper {
                        self.ctx.stats.correct_width_predictions += 1;
                    } else if uop.is_all_narrow_within(self.nbits) && self.cfg.helper_enabled {
                        self.ctx.stats.nonfatal_width_mispredicts += 1;
                    } else {
                        self.ctx.stats.correct_width_predictions += 1;
                    }
                }
                let info = WritebackInfo {
                    executed_in: cluster,
                    result_narrow: uop.result.map(|v| v.fits_in(self.nbits)).unwrap_or(true),
                    carry_free: uop.is_carry_free_within(self.nbits)
                        || Self::address_carry_free(&uop, self.nbits),
                    fatal_mispredict: fatal,
                    incurred_copy,
                };
                self.policy.on_writeback(&uop, info);
            }
            Role::SplitChunk { .. } => {
                self.ctx.stats.split_uops += 1;
            }
            Role::Copy { .. } => {}
        }
    }

    fn eligible_for_width_accounting(&self, uop: &DynUop) -> bool {
        !uop.uop.kind.wide_only() && !uop.uop.kind.is_branch()
    }
}
