//! Issue/backend: per-cluster wakeup and select, execution latencies, fatal
//! width-violation detection at issue, and completion-event processing.
//!
//! The select loop walks the cluster's **ready queues** (ascending sequence
//! order, maintained by dispatch/wakeup/flush) instead of scanning the
//! reorder buffer, so it visits exactly the issuable entries, by ascending
//! sequence number.  (The ROB is not in sequence order: a µop's source
//! copies are allocated after it but dispatched before it.)  Completion
//! events are drained from the context's cycle-bucketed event wheel into a
//! reused scratch buffer.

use super::context::NO_LINK;
use super::Machine;
use crate::rob::{Role, Seq, UopState};
use crate::steer::{Cluster, HelperMode};
use hc_isa::uop::UopKind;
use hc_isa::DynUop;

impl Machine<'_> {
    // ---------------------------------------------------------- completion

    pub(crate) fn complete_at(&mut self, now: u64) {
        let mut due = std::mem::take(&mut self.ctx.event_scratch);
        self.ctx.events.drain_due(now, &mut due);
        for &seq in &due {
            // Retired entries have no pending event, so one trimmed out of
            // the window was squashed after issue.
            if self.ctx.trimmed(seq) {
                continue;
            }
            let idx = self.ctx.slot(seq);
            if self.ctx.ctl[idx].state != UopState::Issued {
                continue; // squashed after issue
            }
            self.ctx.ctl[idx].state = UopState::Completed;
            // Register-file write energy.
            if self.ctx.entries[idx].uop.uop.has_dest() {
                match self.ctx.ctl[idx].cluster {
                    Cluster::Wide => self.ctx.stats.energy.wide_rf_writes += 1,
                    Cluster::Helper => self.ctx.stats.energy.helper_rf_writes += 1,
                }
            }
            if matches!(self.ctx.entries[idx].role, Role::Copy { .. }) {
                self.ctx.stats.energy.copy_transfers += 1;
            }
            // Wake dependents by walking this entry's chain in the link
            // arena, then return the chain to the free list.  A consumer
            // trimmed out of the window was squashed: no consumer retires
            // before its producer completes.
            let head = std::mem::replace(&mut self.ctx.dep_head[idx], NO_LINK);
            let (mut link, mut tail) = (head, head);
            while link != NO_LINK {
                let (consumer, next) = self.ctx.dep_pool[link];
                if !self.ctx.trimmed(consumer) {
                    let cidx = self.ctx.slot(consumer);
                    let c = &mut self.ctx.ctl[cidx];
                    if c.alive() && c.satisfy_dep() {
                        let (cl, fp) = (c.cluster, c.is_fp);
                        self.ctx.ready.insert(cl, fp, consumer);
                    }
                }
                tail = link;
                link = next;
            }
            if head != NO_LINK {
                self.ctx.free_links(head, tail);
            }
            // Branch-stall release.
            if self.ctx.branch_stall == Some(seq) {
                self.ctx.branch_stall = None;
                self.ctx.frontend_stall_until = self.ctx.frontend_stall_until.max(
                    now + self
                        .cfg
                        .wide_cycles_to_ticks(self.cfg.branch_mispredict_penalty),
                );
            }
        }
        self.ctx.event_scratch = due;
    }

    // --------------------------------------------------------------- issue

    pub(crate) fn issue_cluster(&mut self, cluster: Cluster) {
        let (int_width, fp_width) = match cluster {
            Cluster::Wide => (self.cfg.int_issue_width, self.cfg.fp_issue_width),
            Cluster::Helper => (self.cfg.helper_issue_width, 0),
        };
        let mut int_used = 0usize;
        let mut fp_used = 0usize;
        let mut fatal: Option<(Seq, usize)> = None;
        if self.ctx.ready.count(cluster, false) + self.ctx.ready.count(cluster, true) == 0 {
            return;
        }
        // Snapshot the cluster's ready entries in ascending sequence order —
        // exactly the subsequence of the ROB the old scan would have selected
        // from.  The queues themselves are mutated as entries issue, so the
        // walk runs over the reused scratch snapshot.
        let mut walk = std::mem::take(&mut self.ctx.select_scratch);
        self.ctx.ready.merged(cluster, &mut walk);
        for &seq in &walk {
            if int_used >= int_width && (fp_width == 0 || fp_used >= fp_width) {
                break;
            }
            let idx = self.ctx.slot(seq);
            debug_assert!(
                self.ctx.ctl[idx].alive()
                    && self.ctx.ctl[idx].cluster == cluster
                    && self.ctx.ctl[idx].state == UopState::Ready,
                "ready queues must hold exactly the alive Ready entries"
            );
            let is_fp = self.ctx.ctl[idx].is_fp;
            // Copy µops have their own scheduling resources (Canal/Parcerisa/
            // González scheme, see §4): they do not compete with regular µops
            // for issue slots.
            let is_copy = matches!(self.ctx.entries[idx].uop.uop.kind, UopKind::Copy);
            if is_fp {
                if fp_used >= fp_width {
                    continue;
                }
            } else if int_used >= int_width && !is_copy {
                continue;
            }

            // Memory ordering: a load may not issue past an older,
            // not-yet-completed overlapping store.
            let mut forward = false;
            if self.ctx.entries[idx].uop.uop.kind.is_load() {
                match self.memory_order_check(seq) {
                    super::memory::MemOrder::Blocked => continue,
                    super::memory::MemOrder::Forwarded => forward = true,
                    super::memory::MemOrder::Clear => {}
                }
            }

            // Fatal width misprediction detection: the helper cluster's
            // zero/carry detectors catch a value that does not fit as the µop
            // executes (§3.2 / §3.5).
            if cluster == Cluster::Helper && self.is_fatal_width_violation(idx) {
                fatal = Some((
                    seq,
                    self.ctx.entries[idx]
                        .trace_pos()
                        .unwrap_or(self.ctx.next_pos),
                ));
                break;
            }

            // Issue.
            let latency = self.latency_ticks(idx, forward);
            debug_assert!(
                latency < self.ctx.events.horizon(),
                "completion latency {latency} would wrap the {}-bucket event wheel; \
                 SimConfig::validate and EventWheel::ensure_horizon must keep the \
                 wheel larger than any reachable latency",
                self.ctx.events.horizon()
            );
            self.ctx.ctl[idx].state = UopState::Issued;
            self.ctx.ready.remove(cluster, is_fp, seq);
            self.ctx.events.push(self.ctx.tick + latency, seq);
            self.release_iq_slot(idx);
            if is_fp {
                fp_used += 1;
                self.ctx.stats.energy.fp_ops += 1;
            } else if !is_copy {
                int_used += 1;
                match cluster {
                    Cluster::Wide => self.ctx.stats.energy.wide_alu_ops += 1,
                    Cluster::Helper => self.ctx.stats.energy.helper_alu_ops += 1,
                }
            }
            let nsrc = self.ctx.entries[idx].uop.uop.num_sources() as u64;
            match cluster {
                Cluster::Wide => self.ctx.stats.energy.wide_rf_reads += nsrc,
                Cluster::Helper => self.ctx.stats.energy.helper_rf_reads += nsrc,
            }
        }
        self.ctx.select_scratch = walk;

        if let Some((seq, pos)) = fatal {
            self.handle_fatal_width_mispredict(seq, pos);
        }
    }

    pub(crate) fn release_iq_slot(&mut self, idx: usize) {
        match (self.ctx.ctl[idx].cluster, self.ctx.ctl[idx].is_fp) {
            (Cluster::Wide, false) => self.ctx.wide_int_iq = self.ctx.wide_int_iq.saturating_sub(1),
            (Cluster::Wide, true) => self.ctx.wide_fp_iq = self.ctx.wide_fp_iq.saturating_sub(1),
            (Cluster::Helper, _) => self.ctx.helper_iq = self.ctx.helper_iq.saturating_sub(1),
        }
    }

    fn is_fatal_width_violation(&self, idx: usize) -> bool {
        let nbits = self.nbits;
        let e = &self.ctx.entries[idx];
        match e.helper_mode {
            Some(HelperMode::AllNarrow) => !e.uop.is_all_narrow_within(nbits),
            Some(HelperMode::CarryFree) => {
                !(e.uop.is_all_narrow_within(nbits)
                    || e.uop.is_carry_free_within(nbits)
                    || Self::address_carry_free(&e.uop, nbits))
            }
            // Branches, split chunks and copies cannot violate widths.
            _ => false,
        }
    }

    /// CR eligibility check for loads/stores: the *address computation* stays
    /// within the low `nbits` bits of the wide base.
    pub(crate) fn address_carry_free(uop: &DynUop, nbits: u32) -> bool {
        if !uop.uop.kind.is_mem() {
            return false;
        }
        let mut wide: Option<hc_isa::Value> = None;
        let mut wide_count = 0usize;
        let mut sum = hc_isa::Value::ZERO;
        for v in uop.source_values_iter().chain(uop.uop.imm) {
            sum = sum + v;
            if !v.fits_in(nbits) {
                wide_count += 1;
                wide = Some(v);
            }
        }
        wide_count == 1
            && wide.map(|w| w.upper_bits_within(nbits)) == Some(sum.upper_bits_within(nbits))
    }

    fn latency_ticks(&mut self, idx: usize, forwarded: bool) -> u64 {
        let cluster = self.ctx.ctl[idx].cluster;
        let ratio = self.ratio;
        let own_cycle = match cluster {
            Cluster::Wide => ratio,
            Cluster::Helper => 1,
        };
        let kind = self.ctx.entries[idx].uop.uop.kind;
        match kind {
            UopKind::Alu(_) | UopKind::Nop | UopKind::CondBranch(_) | UopKind::Jump => own_cycle,
            // Copies ride the inter-cluster bypass: latency is expressed in
            // helper ticks (half wide cycles), matching the synchronised 2:1
            // clock of §2.2.
            UopKind::Copy => (self.cfg.copy_latency as u64).max(1),
            UopKind::Mul => self.cfg.wide_cycles_to_ticks(self.cfg.mul_latency),
            UopKind::Div => self.cfg.wide_cycles_to_ticks(self.cfg.div_latency),
            UopKind::Fp => self.cfg.wide_cycles_to_ticks(self.cfg.fp_latency),
            UopKind::Load(_) => {
                let addr = self.ctx.entries[idx].mem_addr.unwrap_or(0);
                let mem_cycles = if forwarded {
                    self.cfg.forward_latency
                } else {
                    self.ctx.mem.access(addr)
                };
                // AGU in the issuing cluster + cache access at wide-cluster speed.
                own_cycle + self.cfg.wide_cycles_to_ticks(mem_cycles)
            }
            UopKind::Store(_) => {
                // Address generation only; data is written at commit.
                own_cycle
            }
        }
    }
}
