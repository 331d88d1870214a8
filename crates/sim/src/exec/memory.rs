//! Memory ordering: the single MOB's load/store disambiguation check with
//! store-to-load forwarding.

use super::Machine;
use crate::rob::{Seq, UopState};

/// Result of the memory-order check for a load.
pub(crate) enum MemOrder {
    /// No conflicting older store: access the cache.
    Clear,
    /// An older overlapping store has completed: forward its data.
    Forwarded,
    /// An older overlapping store is still pending: the load must wait.
    Blocked,
}

impl Machine<'_> {
    pub(crate) fn memory_order_check(&self, load_seq: Seq) -> MemOrder {
        let load_mem = match self.ctx.entries[self.ctx.slot(load_seq)].uop.mem {
            Some(m) => m,
            None => return MemOrder::Clear,
        };
        // The store index holds exactly the live in-flight stores in age
        // order (a flush drops the stores it squashes), so this walks the
        // same stores a scan of the window for older live stores would, in
        // the same order.
        for &seq in self.ctx.stores.iter() {
            if seq >= load_seq {
                break;
            }
            let idx = self.ctx.slot(seq);
            let c = self.ctx.ctl[idx];
            debug_assert!(c.alive(), "a squashed store stayed in the MOB index");
            if let Some(smem) = self.ctx.entries[idx].uop.mem {
                if smem.overlaps(&load_mem) {
                    return if c.state == UopState::Completed {
                        MemOrder::Forwarded
                    } else {
                        MemOrder::Blocked
                    };
                }
            }
        }
        MemOrder::Clear
    }
}
