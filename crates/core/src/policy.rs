//! The data-width aware instruction selection policies — the paper's
//! contribution (§3).
//!
//! [`PolicyKind`] names the paper's ladder of policies and is the one way to
//! build one, through [`PolicyKind::build`] or [`PolicyKind::build_with`].
//! Every policy but the monolithic baseline is a steering stack running the
//! 8_8_8 rule plus the schemes of its kind, each policy adding one scheme to
//! the one before it:
//!
//! | Paper scheme | First policy running it | Section |
//! |--------------|-------------------------|---------|
//! | `8_8_8` all-narrow steering with width predictor + confidence | [`PolicyKind::P888`] | §3.2 |
//! | `BR` branches that depend on a narrow-produced flag | [`PolicyKind::P888Br`] | §3.3 |
//! | `LR` load replication | [`PolicyKind::P888BrLr`] | §3.4 |
//! | `CR` carry-width prediction | [`PolicyKind::P888BrLrCr`] | §3.5 |
//! | `CP` copy prefetching | [`PolicyKind::P888BrLrCrCp`] | §3.6 |
//! | `IR` instruction splitting for imbalance reduction | [`PolicyKind::Ir`] | §3.7 |
//! | `IR-ND` split only µops without a destination | [`PolicyKind::IrNoDest`] | §3.7 |
//!
//! The thresholds are fixed: IR splits above a wide→narrow imbalance of
//! 0.08, and the helper cluster counts as overloaded above a narrow→wide
//! imbalance of 0.10 or once its issue queue is 85 % full.

use hc_isa::uop::{AluOp, UopKind};
use hc_isa::DynUop;
use hc_predictors::{CarryPredictor, CopyPredictor, PredictorConfig, WidthPredictor};
use hc_sim::{
    AlwaysWide, Cluster, HelperMode, SteerContext, SteerDecision, SteeringPolicy, WritebackInfo,
};
use serde::{Deserialize, Serialize};

/// The named policy configurations evaluated in the paper, declared in the
/// order the paper introduces them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Monolithic baseline: no helper cluster.
    Baseline,
    /// 8-8-8 all-narrow steering (§3.2).
    P888,
    /// 8-8-8 + narrow-flag branches (§3.3).
    P888Br,
    /// 8-8-8 + BR + load replication (§3.4).
    P888BrLr,
    /// 8-8-8 + BR + LR + carry-width prediction (§3.5).
    P888BrLrCr,
    /// 8-8-8 + BR + LR + CR + copy prefetching (§3.6).
    P888BrLrCrCp,
    /// The full stack plus instruction splitting for imbalance reduction (§3.7).
    Ir,
    /// The IR fine-tuning that only splits µops without a destination (§3.7).
    IrNoDest,
}

impl PolicyKind {
    /// All policies in the order the paper introduces them.
    pub const ALL: [PolicyKind; 8] = [
        PolicyKind::Baseline,
        PolicyKind::P888,
        PolicyKind::P888Br,
        PolicyKind::P888BrLr,
        PolicyKind::P888BrLrCr,
        PolicyKind::P888BrLrCrCp,
        PolicyKind::Ir,
        PolicyKind::IrNoDest,
    ];

    /// Name used in reports and figures.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Baseline => "baseline",
            PolicyKind::P888 => "8_8_8",
            PolicyKind::P888Br => "8_8_8+BR",
            PolicyKind::P888BrLr => "8_8_8+BR+LR",
            PolicyKind::P888BrLrCr => "8_8_8+BR+LR+CR",
            PolicyKind::P888BrLrCrCp => "8_8_8+BR+LR+CR+CP",
            PolicyKind::Ir => "IR",
            PolicyKind::IrNoDest => "IR-ND",
        }
    }

    /// Instantiate the policy with the paper's predictor sizing.
    pub fn build(self) -> Box<dyn SteeringPolicy + Send> {
        self.build_with(&PredictorConfig::paper_default())
    }

    /// Instantiate the policy with an explicit predictor configuration — the
    /// hook campaign scenarios use to sweep table geometry.
    pub fn build_with(self, predictors: &PredictorConfig) -> Box<dyn SteeringPolicy + Send> {
        match self {
            PolicyKind::Baseline => Box::new(AlwaysWide),
            _ => Box::new(SteeringStack::new(self, predictors)),
        }
    }

    /// The schemes this policy runs on top of 8_8_8.  Each policy adds one
    /// to the one declared before it, so a scheme is on from the policy
    /// that introduces it onwards.
    fn features(self) -> Features {
        let from = |first: PolicyKind| self as u8 >= first as u8;
        Features {
            br: from(PolicyKind::P888Br),
            lr: from(PolicyKind::P888BrLr),
            cr: from(PolicyKind::P888BrLrCr),
            cp: from(PolicyKind::P888BrLrCrCp),
            ir: from(PolicyKind::Ir),
            ir_no_dest_only: from(PolicyKind::IrNoDest),
        }
    }
}

/// The scheme switches of a steering stack.
#[derive(Debug)]
struct Features {
    /// Steer flag-consuming branches after helper-resident flag producers (§3.3).
    br: bool,
    /// Replicate byte loads into both register files (§3.4).
    lr: bool,
    /// Carry-width prediction for 8/32→32 operations (§3.5).
    cr: bool,
    /// Copy prefetching (§3.6).
    cp: bool,
    /// Wide-instruction splitting when the helper cluster is underutilised (§3.7).
    ir: bool,
    /// Restrict splitting to µops without a destination register (§3.7 fine tuning).
    ir_no_dest_only: bool,
}

/// The helper-cluster steering policy of every [`PolicyKind`] but the
/// baseline.
#[derive(Debug)]
struct SteeringStack {
    kind: PolicyKind,
    features: Features,
    width_pred: WidthPredictor,
    carry_pred: CarryPredictor,
    copy_pred: CopyPredictor,
}

/// Helper IQ occupancy fraction above which the helper counts as full.
const HELPER_FULL_FRACTION: f64 = 0.85;
/// Narrow→wide imbalance above which narrow µops are steered wide again
/// ("if the helper cluster is overloaded", §3.7 / §1 item 5).
const OVERLOAD_THRESHOLD: f64 = 0.10;
/// Wide→narrow NREADY imbalance above which IR starts splitting.
const IR_IMBALANCE_THRESHOLD: f64 = 0.08;

impl SteeringStack {
    /// The stack of `kind` with the given predictor table sizing.
    fn new(kind: PolicyKind, predictors: &PredictorConfig) -> SteeringStack {
        SteeringStack {
            kind,
            features: kind.features(),
            width_pred: WidthPredictor::new(predictors.width_entries, predictors.use_confidence),
            carry_pred: CarryPredictor::new(predictors.carry_entries),
            copy_pred: CopyPredictor::new(predictors.copy_entries),
        }
    }

    /// Whether `extra` more helper IQ entries stay within the helper-full
    /// threshold `full`.
    fn helper_has_room(ctx: &SteerContext, extra: usize, full: usize) -> bool {
        ctx.helper_iq_occupancy + extra <= full
    }

    fn helper_overloaded(ctx: &SteerContext, full: usize) -> bool {
        ctx.narrow_to_wide_imbalance > OVERLOAD_THRESHOLD || !Self::helper_has_room(ctx, 1, full)
    }

    /// The 8-8-8 test of §3.2: every source (actual width when written back,
    /// predicted otherwise), the immediate and the predicted result width must
    /// be narrow, and the result prediction must be high confidence.
    fn rule_888(&mut self, uop: &DynUop, ctx: &SteerContext) -> bool {
        if !ctx.all_sources_narrow() {
            return false;
        }
        if !uop.uop.has_dest() {
            // No register result to mispredict (compares, stores, …): the
            // sources alone decide.  A flags result always fits in 8 bits.
            return true;
        }
        let pred = self.width_pred.predict(uop.uop.pc);
        pred.confidently_narrow()
    }

    /// The BR rule of §3.3: a conditional branch whose flag producer already
    /// lives in the helper cluster follows it there.
    fn rule_br(&self, uop: &DynUop, ctx: &SteerContext) -> bool {
        self.features.br
            && uop.uop.kind.is_cond_branch()
            && ctx.flags_producer == Some(Cluster::Helper)
    }

    /// The CR rule of §3.5: an 8/32→32 operation predicted not to propagate a
    /// carry beyond bit 8 can run on the 8-bit datapath.
    fn rule_cr(&mut self, uop: &DynUop, ctx: &SteerContext) -> bool {
        if !self.features.cr {
            return false;
        }
        let eligible_kind = match uop.uop.kind {
            UopKind::Alu(op) => op.cr_eligible() && !matches!(op, AluOp::Mov),
            UopKind::Load(_) | UopKind::Store(_) => true,
            _ => false,
        };
        if !eligible_kind {
            return false;
        }
        // Exactly one wide input, at least one narrow input.
        let wide_srcs = ctx.wide_source_count();
        let narrow_inputs =
            ctx.narrow_source_count() + usize::from(ctx.imm_narrow.unwrap_or(false));
        if wide_srcs != 1 || narrow_inputs == 0 {
            return false;
        }
        // The result must be predicted wide (an 8-32-32 pattern); a predicted
        // narrow result is already handled by 8-8-8.
        let (carry_free, confident) = self.carry_pred.predict(uop.uop.pc);
        carry_free && confident
    }

    /// The IR rule of §3.7: when there is wide→narrow imbalance, split wide
    /// ALU µops into four chained 8-bit chunks and send them to the helper.
    fn rule_ir(&self, uop: &DynUop, ctx: &SteerContext, full: usize) -> bool {
        if !self.features.ir || !uop.uop.kind.is_simple_alu() {
            return false;
        }
        if self.features.ir_no_dest_only && uop.uop.has_dest() {
            return false;
        }
        // Split only while the wide cluster is visibly backed up *and* the
        // helper cluster has plenty of headroom: splitting is a net win only
        // when the wide issue bandwidth is the bottleneck.
        ctx.wide_to_narrow_imbalance > IR_IMBALANCE_THRESHOLD
            && ctx.helper_iq_occupancy * 4 <= ctx.helper_iq_capacity
            && Self::helper_has_room(ctx, 8, full)
    }
}

impl SteeringPolicy for SteeringStack {
    fn name(&self) -> &str {
        self.kind.name()
    }

    fn steer(&mut self, uop: &DynUop, ctx: &SteerContext) -> SteerDecision {
        // Destination width prediction is made for every µop with a result so
        // the rename width table stays populated (Figure 4).
        let dest_pred = if uop.uop.has_dest() {
            Some(self.width_pred.peek(uop.uop.pc).narrow)
        } else {
            None
        };
        let with_pred = |mut d: SteerDecision| {
            d.predicted_dest_narrow = dest_pred;
            d
        };

        if !ctx.helper_available || ctx.forced_wide || uop.uop.kind.wide_only() {
            return with_pred(SteerDecision::wide());
        }

        // Workload-balance guard: an overloaded helper cluster sheds narrow
        // work back to the wide cluster until balance is restored (§3.7).
        let full = (ctx.helper_iq_capacity.max(1) as f64 * HELPER_FULL_FRACTION) as usize;
        let overloaded = Self::helper_overloaded(ctx, full);

        // BR first: branches carry no data result, so they are never fatal.
        if self.rule_br(uop, ctx) && !overloaded {
            return with_pred(SteerDecision::helper(HelperMode::FlagBranch));
        }

        // 8-8-8.
        if !uop.uop.kind.is_branch() && self.rule_888(uop, ctx) {
            if overloaded {
                return with_pred(self.maybe_prefetch_wide(uop, SteerDecision::wide()));
            }
            let mut d = SteerDecision::helper(HelperMode::AllNarrow);
            d = self.maybe_replicate(uop, d);
            d = self.maybe_prefetch_helper(uop, d);
            return with_pred(d);
        }

        // CR.
        if !uop.uop.kind.is_branch() && self.rule_cr(uop, ctx) {
            if overloaded {
                return with_pred(self.maybe_prefetch_wide(uop, SteerDecision::wide()));
            }
            let mut d = SteerDecision::helper(HelperMode::CarryFree);
            d = self.maybe_replicate(uop, d);
            d = self.maybe_prefetch_helper(uop, d);
            return with_pred(d);
        }

        // IR: split wide work into narrow chunks when the helper is idle.
        if self.rule_ir(uop, ctx, full) {
            return with_pred(SteerDecision::split_to_helper());
        }

        // Default: wide cluster, possibly with LR replication (byte loads) and
        // wide-to-narrow copy prefetching.
        let mut d = SteerDecision::wide();
        d = self.maybe_replicate(uop, d);
        d = self.maybe_prefetch_wide(uop, d);
        with_pred(d)
    }

    fn on_writeback(&mut self, uop: &DynUop, info: WritebackInfo) {
        if uop.uop.has_dest() {
            self.width_pred.update(uop.uop.pc, info.result_narrow);
            if self.features.cp {
                self.copy_pred.update(uop.uop.pc, info.incurred_copy);
            }
        }
        if self.features.cr {
            let eligible = match uop.uop.kind {
                UopKind::Alu(op) => op.cr_eligible(),
                UopKind::Load(_) | UopKind::Store(_) => true,
                _ => false,
            };
            if eligible {
                self.carry_pred.update(uop.uop.pc, info.carry_free);
            }
        }
    }
}

impl SteeringStack {
    fn maybe_replicate(&self, uop: &DynUop, d: SteerDecision) -> SteerDecision {
        if self.features.lr && matches!(uop.uop.kind, UopKind::Load(hc_isa::uop::MemSize::Byte)) {
            d.with_replication()
        } else {
            d
        }
    }

    /// CP for helper-resident producers: prefetch a narrow→wide copy when the
    /// copy predictor says this producer's value will be wanted in the wide
    /// cluster.
    fn maybe_prefetch_helper(&mut self, uop: &DynUop, d: SteerDecision) -> SteerDecision {
        if self.features.cp && uop.uop.has_dest() && self.copy_pred.predict(uop.uop.pc) {
            d.with_copy_prefetch()
        } else {
            d
        }
    }

    /// CP for wide-resident producers: a result predicted narrow (e.g. a
    /// load-byte executed wide) is prefetched into the helper cluster, since
    /// narrow consumers will most likely want it there.
    fn maybe_prefetch_wide(&mut self, uop: &DynUop, d: SteerDecision) -> SteerDecision {
        if self.features.cp
            && uop.uop.has_dest()
            && self.width_pred.peek(uop.uop.pc).confidently_narrow()
            && self.copy_pred.predict(uop.uop.pc)
        {
            d.with_copy_prefetch()
        } else {
            d
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_isa::reg::ArchReg;
    use hc_isa::uop::{BranchCond, MemSize, Uop};
    use hc_isa::Value;
    use hc_sim::SourceWidthInfo;

    fn ctx_with_sources(narrow: &[bool]) -> SteerContext {
        SteerContext {
            sources: narrow
                .iter()
                .map(|&n| SourceWidthInfo {
                    narrow: n,
                    actual: true,
                    producer_cluster: Some(Cluster::Wide),
                })
                .collect(),
            imm_narrow: None,
            flags_producer: None,
            wide_iq_occupancy: 4,
            helper_iq_occupancy: 4,
            wide_iq_capacity: 32,
            helper_iq_capacity: 32,
            wide_to_narrow_imbalance: 0.0,
            narrow_to_wide_imbalance: 0.0,
            helper_available: true,
            forced_wide: false,
        }
    }

    fn alu_uop(pc: u64) -> DynUop {
        let u = Uop::new(pc, UopKind::Alu(AluOp::Add))
            .with_src(ArchReg::Eax)
            .with_src(ArchReg::Ebx)
            .with_dest(ArchReg::Eax)
            .writing_flags();
        let mut d = DynUop::from_uop(u);
        d.src_vals[0] = Some(Value::new(3));
        d.src_vals[1] = Some(Value::new(4));
        d.result = Some(Value::new(7));
        d
    }

    fn stack(kind: PolicyKind) -> SteeringStack {
        SteeringStack::new(kind, &PredictorConfig::paper_default())
    }

    fn train(stack: &mut SteeringStack, uop: &DynUop, narrow: bool, n: usize) {
        for _ in 0..n {
            stack.on_writeback(
                uop,
                WritebackInfo {
                    executed_in: Cluster::Wide,
                    result_narrow: narrow,
                    carry_free: false,
                    fatal_mispredict: false,
                    incurred_copy: false,
                },
            );
        }
    }

    #[test]
    fn policy_names_match_paper() {
        assert_eq!(PolicyKind::P888.name(), "8_8_8");
        assert_eq!(PolicyKind::P888BrLrCr.name(), "8_8_8+BR+LR+CR");
        assert_eq!(PolicyKind::Ir.name(), "IR");
        assert_eq!(PolicyKind::IrNoDest.name(), "IR-ND");
        // A built policy reports its kind's name, for every kind.
        for kind in PolicyKind::ALL {
            assert_eq!(kind.build().name(), kind.name());
        }
    }

    #[test]
    fn features_compose_incrementally() {
        assert!(!PolicyKind::P888.features().br);
        assert!(PolicyKind::P888Br.features().br);
        assert!(!PolicyKind::P888Br.features().lr);
        assert!(PolicyKind::P888BrLrCrCp.features().cp);
        assert!(PolicyKind::Ir.features().ir);
        assert!(PolicyKind::IrNoDest.features().ir_no_dest_only);
    }

    #[test]
    fn untrained_predictor_keeps_uops_wide() {
        let mut s = stack(PolicyKind::P888);
        let uop = alu_uop(0x10);
        let d = s.steer(&uop, &ctx_with_sources(&[true, true]));
        assert_eq!(d.cluster, Cluster::Wide, "no confidence yet -> stay wide");
    }

    #[test]
    fn trained_888_steers_narrow_uops_to_helper() {
        let mut s = stack(PolicyKind::P888);
        let uop = alu_uop(0x10);
        train(&mut s, &uop, true, 4);
        let d = s.steer(&uop, &ctx_with_sources(&[true, true]));
        assert_eq!(d.cluster, Cluster::Helper);
        assert_eq!(d.helper_mode, Some(HelperMode::AllNarrow));
        assert_eq!(d.predicted_dest_narrow, Some(true));
    }

    #[test]
    fn wide_source_blocks_888() {
        let mut s = stack(PolicyKind::P888);
        let uop = alu_uop(0x10);
        train(&mut s, &uop, true, 4);
        let d = s.steer(&uop, &ctx_with_sources(&[true, false]));
        assert_eq!(d.cluster, Cluster::Wide);
    }

    #[test]
    fn forced_wide_overrides_everything() {
        let mut s = stack(PolicyKind::Ir);
        let uop = alu_uop(0x10);
        train(&mut s, &uop, true, 4);
        let mut ctx = ctx_with_sources(&[true, true]);
        ctx.forced_wide = true;
        let d = s.steer(&uop, &ctx);
        assert_eq!(d.cluster, Cluster::Wide);
        assert!(!d.split);
    }

    #[test]
    fn br_follows_helper_flag_producer() {
        let mut s = stack(PolicyKind::P888Br);
        let br =
            DynUop::from_uop(Uop::new(0x20, UopKind::CondBranch(BranchCond::Ne)).reading_flags());
        let mut ctx = ctx_with_sources(&[]);
        ctx.flags_producer = Some(Cluster::Helper);
        let d = s.steer(&br, &ctx);
        assert_eq!(d.cluster, Cluster::Helper);
        assert_eq!(d.helper_mode, Some(HelperMode::FlagBranch));

        // Without BR the same branch stays wide.
        let mut s = stack(PolicyKind::P888);
        let d = s.steer(&br, &ctx);
        assert_eq!(d.cluster, Cluster::Wide);
    }

    #[test]
    fn br_ignores_wide_flag_producers() {
        let mut s = stack(PolicyKind::P888Br);
        let br =
            DynUop::from_uop(Uop::new(0x20, UopKind::CondBranch(BranchCond::Ne)).reading_flags());
        let mut ctx = ctx_with_sources(&[]);
        ctx.flags_producer = Some(Cluster::Wide);
        assert_eq!(s.steer(&br, &ctx).cluster, Cluster::Wide);
    }

    #[test]
    fn lr_replicates_byte_loads() {
        let mut s = stack(PolicyKind::P888BrLr);
        let load = {
            let u = Uop::new(0x30, UopKind::Load(MemSize::Byte))
                .with_src(ArchReg::Ebx)
                .with_dest(ArchReg::Eax);
            DynUop::from_uop(u)
        };
        let d = s.steer(&load, &ctx_with_sources(&[false]));
        assert!(d.replicate_load, "byte loads are replicated under LR");

        // Word loads are not replicated.
        let wload = DynUop::from_uop(
            Uop::new(0x34, UopKind::Load(MemSize::DWord))
                .with_src(ArchReg::Ebx)
                .with_dest(ArchReg::Eax),
        );
        assert!(!s.steer(&wload, &ctx_with_sources(&[false])).replicate_load);
    }

    #[test]
    fn cr_steers_trained_carry_free_mixed_width_ops() {
        let mut s = stack(PolicyKind::P888BrLrCr);
        let uop = {
            let u = Uop::new(0x40, UopKind::Alu(AluOp::Add))
                .with_src(ArchReg::Ebx)
                .with_src(ArchReg::Ecx)
                .with_dest(ArchReg::Edx);
            let mut d = DynUop::from_uop(u);
            d.src_vals[0] = Some(Value::new(0xFFFC_4A02));
            d.src_vals[1] = Some(Value::new(0x1C));
            d.result = Some(Value::new(0xFFFC_4A1E));
            d
        };
        // Train the carry predictor: result wide, carry free.
        for _ in 0..4 {
            s.on_writeback(
                &uop,
                WritebackInfo {
                    executed_in: Cluster::Wide,
                    result_narrow: false,
                    carry_free: true,
                    fatal_mispredict: false,
                    incurred_copy: false,
                },
            );
        }
        let d = s.steer(&uop, &ctx_with_sources(&[false, true]));
        assert_eq!(d.cluster, Cluster::Helper);
        assert_eq!(d.helper_mode, Some(HelperMode::CarryFree));

        // Without CR the same µop stays wide.
        let mut s = stack(PolicyKind::P888BrLr);
        let d = s.steer(&uop, &ctx_with_sources(&[false, true]));
        assert_eq!(d.cluster, Cluster::Wide);
    }

    #[test]
    fn cp_prefetches_copies_for_copy_prone_producers() {
        let mut s = stack(PolicyKind::P888BrLrCrCp);
        let uop = alu_uop(0x50);
        // Train: result narrow and it keeps incurring copies.
        for _ in 0..4 {
            s.on_writeback(
                &uop,
                WritebackInfo {
                    executed_in: Cluster::Helper,
                    result_narrow: true,
                    carry_free: false,
                    fatal_mispredict: false,
                    incurred_copy: true,
                },
            );
        }
        let d = s.steer(&uop, &ctx_with_sources(&[true, true]));
        assert_eq!(d.cluster, Cluster::Helper);
        assert!(d.prefetch_copy, "copy-prone producer should prefetch");
    }

    #[test]
    fn ir_splits_wide_alu_when_helper_is_idle() {
        let mut s = stack(PolicyKind::Ir);
        let uop = {
            let u = Uop::new(0x60, UopKind::Alu(AluOp::Add))
                .with_src(ArchReg::Ebx)
                .with_src(ArchReg::Ecx)
                .with_dest(ArchReg::Edx);
            let mut d = DynUop::from_uop(u);
            d.src_vals[0] = Some(Value::new(0x10_0000));
            d.src_vals[1] = Some(Value::new(0x20_0000));
            d.result = Some(Value::new(0x30_0000));
            d
        };
        let mut ctx = ctx_with_sources(&[false, false]);
        ctx.wide_to_narrow_imbalance = 0.2;
        ctx.helper_iq_occupancy = 0;
        let d = s.steer(&uop, &ctx);
        assert!(d.split, "imbalance should trigger splitting");
        assert_eq!(d.cluster, Cluster::Helper);

        // IR-ND refuses to split a µop with a destination.
        let mut snd = stack(PolicyKind::IrNoDest);
        let d = snd.steer(&uop, &ctx);
        assert!(!d.split);
    }

    #[test]
    fn ir_does_not_split_when_balanced_or_full() {
        let mut s = stack(PolicyKind::Ir);
        let uop = alu_uop(0x70);
        let mut ctx = ctx_with_sources(&[false, false]);
        ctx.wide_to_narrow_imbalance = 0.0;
        assert!(!s.steer(&uop, &ctx).split);
        ctx.wide_to_narrow_imbalance = 0.5;
        ctx.helper_iq_occupancy = 31;
        assert!(
            !s.steer(&uop, &ctx).split,
            "full helper IQ blocks splitting"
        );
    }

    #[test]
    fn overloaded_helper_sheds_narrow_work() {
        let mut s = stack(PolicyKind::P888);
        let uop = alu_uop(0x80);
        train(&mut s, &uop, true, 4);
        let mut ctx = ctx_with_sources(&[true, true]);
        ctx.narrow_to_wide_imbalance = 0.5;
        let d = s.steer(&uop, &ctx);
        assert_eq!(d.cluster, Cluster::Wide);
    }

    #[test]
    fn writeback_trains_width_predictor() {
        let mut s = stack(PolicyKind::P888);
        let uop = alu_uop(0x90);
        train(&mut s, &uop, true, 10);
        assert!(s.width_pred.stats().accuracy() > 0.8);
    }
}
