//! Recovery: the fatal width-misprediction flush — squash the offending µop
//! and everything younger, recycle their dependence links, invalidate the
//! copy cache by epoch bump, rebuild the rename map from the surviving
//! window, and resteer the frontend.

use super::{Machine, RenameEntry};
use crate::rob::Seq;
use crate::rob::UopState;

impl Machine<'_> {
    pub(crate) fn handle_fatal_width_mispredict(&mut self, seq: Seq, resteer_pos: usize) {
        self.ctx.stats.fatal_width_mispredicts += 1;
        let idx = self.ctx.slot(seq);
        self.ctx.entries[idx].fatal_mispredict = true;
        self.ctx.forced_wide.insert(resteer_pos);

        // Squash the offending entry and everything younger, keeping older
        // work.  The ROB is rebuilt in place via the context scratch buffer.
        let mut snapshot = std::mem::take(&mut self.ctx.seq_scratch);
        snapshot.clear();
        snapshot.extend(self.ctx.rob.iter().copied());
        self.ctx.rob.clear();
        for &s in &snapshot {
            if s >= seq {
                let idx = self.ctx.slot(s);
                if self.ctx.ctl[idx].occupies_iq() {
                    self.release_iq_slot(idx);
                }
                self.ctx.ctl[idx].state = UopState::Squashed;
                // A squashed producer never completes, so nothing walks its
                // dependents chain again.
                self.ctx.free_chain(idx);
            } else {
                self.ctx.rob.push_back(s);
            }
        }
        self.ctx.seq_scratch = snapshot;
        // Everything squashed is at or above `seq` (the window is allocated
        // in sequence order), so one retain pass drops all of it from the
        // ready queues, and the squashed stores are the MOB index's tail.
        self.ctx.ready.retain(|s| s < seq);
        while self.ctx.stores.back().is_some_and(|&s| s >= seq) {
            self.ctx.stores.pop_back();
        }
        // Invalidate every cached copy mapping at once (the staged engine's
        // O(1) equivalent of the old `copy_map.clear()`).
        self.ctx.copy_epoch += 1;
        if let Some(b) = self.ctx.branch_stall {
            if b >= seq {
                self.ctx.branch_stall = None;
            }
        }

        // Rebuild the rename map from the surviving window.
        self.ctx.rename_map = [None; hc_isa::reg::NUM_ARCH_REGS];
        self.ctx.flags_map = None;
        for i in 0..self.ctx.rob.len() {
            let s = self.ctx.rob[i];
            let e = &self.ctx.entries[self.ctx.slot(s)];
            if let Some(dst) = e.uop.uop.dest {
                self.ctx.rename_map[dst.index()] = Some(RenameEntry { seq: s });
            }
            if e.uop.uop.writes_flags {
                self.ctx.flags_map = Some(RenameEntry { seq: s });
            }
        }

        // Restart fetch at the offending µop after the flush penalty.
        self.ctx.next_pos = resteer_pos;
        self.ctx.frontend_stall_until = self.ctx.tick.max(self.ctx.frontend_stall_until)
            + self.cfg.wide_cycles_to_ticks(self.cfg.width_flush_penalty);
    }
}
