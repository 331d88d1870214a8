//! The steering interface between the cycle simulator and the policies.
//!
//! The simulator calls [`SteeringPolicy::steer`] once per renamed µop with a
//! [`SteerContext`] describing everything the rename stage can see (source
//! width bits from the rename width table, flag-producer location, issue-queue
//! occupancies, …).  The returned [`SteerDecision`] selects the backend and
//! any auxiliary actions (load replication, splitting, copy prefetching).
//!
//! The actual data-width aware policies — the paper's contribution — live in
//! `hc-core::policy`; this module only defines the contract plus the trivial
//! [`AlwaysWide`] policy used for the monolithic baseline.

use hc_isa::DynUop;
use serde::{Deserialize, Serialize};

/// The two backends of the clustered processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Cluster {
    /// The full-width 32-bit backend.
    Wide,
    /// The 8-bit helper backend (clocked 2×).
    Helper,
}

impl Cluster {
    /// The opposite backend.
    pub fn other(self) -> Cluster {
        match self {
            Cluster::Wide => Cluster::Helper,
            Cluster::Helper => Cluster::Wide,
        }
    }

    /// Dense index of the cluster (`Wide` = 0, `Helper` = 1), usable as an
    /// array subscript for per-cluster tables.
    pub fn index(self) -> usize {
        match self {
            Cluster::Wide => 0,
            Cluster::Helper => 1,
        }
    }
}

/// Why a µop was sent to the helper cluster; determines which ground-truth
/// condition must hold for the steering to be correct (and thus what counts
/// as a *fatal* misprediction requiring a flush).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HelperMode {
    /// Steered because all sources and the result were predicted ≤ 8 bits
    /// (the 8-8-8 scheme, §3.2).
    AllNarrow,
    /// Steered because the carry was predicted not to propagate past bit 8
    /// (the CR scheme, §3.5).
    CarryFree,
    /// A conditional branch following its flag producer (the BR scheme, §3.3).
    /// Branches carry no data result, so this cannot be width-mispredicted.
    FlagBranch,
    /// A chunk of a split wide instruction (the IR scheme, §3.7); correct by
    /// construction.
    SplitChunk,
}

/// The per-µop outcome of a steering policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SteerDecision {
    /// Which backend receives the µop.
    pub cluster: Cluster,
    /// When steered to the helper cluster, the justification (used for fatal
    /// misprediction checking).
    pub helper_mode: Option<HelperMode>,
    /// LR (§3.4): replicate this (narrow) load's value into the other
    /// cluster's register file so later consumers there need no copy.
    pub replicate_load: bool,
    /// IR (§3.7): split this wide µop into four chained 8-bit µops on the
    /// helper cluster.
    pub split: bool,
    /// CP (§3.6): eagerly generate the inter-cluster copy at this producer
    /// instead of waiting for a consumer in the other cluster to request it.
    pub prefetch_copy: bool,
    /// The policy's width prediction for the destination register, if it made
    /// one.  The simulator stores it in the rename table's width field so
    /// later consumers can read it (Figure 4).
    pub predicted_dest_narrow: Option<bool>,
}

impl SteerDecision {
    /// Plain steering to the wide backend.
    pub fn wide() -> SteerDecision {
        SteerDecision {
            cluster: Cluster::Wide,
            helper_mode: None,
            replicate_load: false,
            split: false,
            prefetch_copy: false,
            predicted_dest_narrow: None,
        }
    }

    /// Plain steering to the helper backend with the given justification.
    pub fn helper(mode: HelperMode) -> SteerDecision {
        SteerDecision {
            cluster: Cluster::Helper,
            helper_mode: Some(mode),
            replicate_load: false,
            split: false,
            prefetch_copy: false,
            predicted_dest_narrow: None,
        }
    }

    /// Attach the policy's destination-width prediction to the decision.
    pub fn with_dest_prediction(mut self, narrow: bool) -> SteerDecision {
        self.predicted_dest_narrow = Some(narrow);
        self
    }

    /// Enable load replication on this decision.
    pub fn with_replication(mut self) -> SteerDecision {
        self.replicate_load = true;
        self
    }

    /// Enable copy prefetching on this decision.
    pub fn with_copy_prefetch(mut self) -> SteerDecision {
        self.prefetch_copy = true;
        self
    }

    /// Mark the µop for splitting (implies helper cluster, split-chunk mode).
    pub fn split_to_helper() -> SteerDecision {
        SteerDecision {
            cluster: Cluster::Helper,
            helper_mode: Some(HelperMode::SplitChunk),
            replicate_load: false,
            split: true,
            prefetch_copy: false,
            predicted_dest_narrow: None,
        }
    }
}

/// Width information about one source operand as visible at rename time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SourceWidthInfo {
    /// Whether the source is (predicted or known to be) narrow.
    pub narrow: bool,
    /// Whether the information is the actual written-back width (`true`) or a
    /// prediction (`false`) — the paper reads the actual width when the
    /// producer has already written back.
    pub actual: bool,
    /// The cluster that produces (or produced) the value, if known.
    pub producer_cluster: Option<Cluster>,
}

/// Everything the rename/steer stage can legitimately see about a µop when it
/// makes the steering decision.  Note it does *not* include the µop's actual
/// result value — that is what the width predictor is for.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SteerContext {
    /// Width info for each present register source, in source-slot order.
    pub sources: Vec<SourceWidthInfo>,
    /// Whether the immediate operand (if any) is narrow; `None` if no immediate.
    pub imm_narrow: Option<bool>,
    /// Cluster of the most recent in-flight producer of the flags register,
    /// if the flags value is still being produced in the window.
    pub flags_producer: Option<Cluster>,
    /// Current integer issue-queue occupancy of the wide cluster (entries used).
    pub wide_iq_occupancy: usize,
    /// Current issue-queue occupancy of the helper cluster.
    pub helper_iq_occupancy: usize,
    /// Integer IQ capacity of the wide cluster.
    pub wide_iq_capacity: usize,
    /// IQ capacity of the helper cluster.
    pub helper_iq_capacity: usize,
    /// Recent wide→narrow NREADY imbalance estimate (fraction of ready µops
    /// stuck in the wide cluster that could have issued in the helper cluster).
    pub wide_to_narrow_imbalance: f64,
    /// Recent narrow→wide NREADY imbalance estimate.
    pub narrow_to_wide_imbalance: f64,
    /// Whether the helper cluster exists in this configuration.
    pub helper_available: bool,
    /// Whether a previous fatal misprediction forces this µop to the wide
    /// cluster on its re-dispatch.
    pub forced_wide: bool,
}

impl SteerContext {
    /// A context describing a machine without a helper cluster.
    pub fn monolithic() -> SteerContext {
        SteerContext {
            sources: Vec::new(),
            imm_narrow: None,
            flags_producer: None,
            wide_iq_occupancy: 0,
            helper_iq_occupancy: 0,
            wide_iq_capacity: 32,
            helper_iq_capacity: 0,
            wide_to_narrow_imbalance: 0.0,
            narrow_to_wide_imbalance: 0.0,
            helper_available: false,
            forced_wide: false,
        }
    }

    /// Whether every register source is narrow (predicted or actual) and the
    /// immediate (if any) is narrow.
    pub fn all_sources_narrow(&self) -> bool {
        self.sources.iter().all(|s| s.narrow) && self.imm_narrow.unwrap_or(true)
    }

    /// Number of wide register sources.
    pub fn wide_source_count(&self) -> usize {
        self.sources.iter().filter(|s| !s.narrow).count()
    }

    /// Number of narrow register sources.
    pub fn narrow_source_count(&self) -> usize {
        self.sources.iter().filter(|s| s.narrow).count()
    }
}

/// Feedback delivered to the policy when a µop completes, so it can train its
/// predictors with ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WritebackInfo {
    /// Cluster the µop finally executed in.
    pub executed_in: Cluster,
    /// Whether the µop's register result (if any) was narrow.
    pub result_narrow: bool,
    /// Whether the µop satisfied the CR carry-free condition (only meaningful
    /// for CR-eligible µops).
    pub carry_free: bool,
    /// Whether the steering of this µop turned out to be a fatal width
    /// misprediction (it was flushed and resteered wide).
    pub fatal_mispredict: bool,
    /// Whether the µop's result was consumed in the other cluster, i.e. an
    /// inter-cluster copy was generated for it.
    pub incurred_copy: bool,
}

/// A steering policy: the decision logic the paper contributes.
pub trait SteeringPolicy {
    /// Short policy name for reports ("baseline", "8_8_8", "8_8_8+BR", …).
    fn name(&self) -> &str;

    /// Decide where the µop executes.
    fn steer(&mut self, uop: &DynUop, ctx: &SteerContext) -> SteerDecision;

    /// Ground-truth feedback at writeback/commit, used to train predictors.
    fn on_writeback(&mut self, uop: &DynUop, info: WritebackInfo);

    /// Whether the policy ever uses the helper cluster (false for the
    /// monolithic baseline, which lets the simulator skip helper bookkeeping).
    fn uses_helper(&self) -> bool {
        true
    }
}

/// The monolithic baseline policy: every µop goes to the wide backend.
#[derive(Debug, Clone, Default)]
pub struct AlwaysWide;

impl SteeringPolicy for AlwaysWide {
    fn name(&self) -> &str {
        "baseline"
    }

    fn steer(&mut self, _uop: &DynUop, _ctx: &SteerContext) -> SteerDecision {
        SteerDecision::wide()
    }

    fn on_writeback(&mut self, _uop: &DynUop, _info: WritebackInfo) {}

    fn uses_helper(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_isa::uop::{AluOp, Uop, UopKind};

    #[test]
    fn cluster_other_is_involutive() {
        assert_eq!(Cluster::Wide.other(), Cluster::Helper);
        assert_eq!(Cluster::Helper.other().other(), Cluster::Helper);
    }

    #[test]
    fn decision_builders() {
        let d = SteerDecision::helper(HelperMode::AllNarrow).with_replication();
        assert_eq!(d.cluster, Cluster::Helper);
        assert!(d.replicate_load);
        assert!(!d.split);
        let s = SteerDecision::split_to_helper();
        assert!(s.split);
        assert_eq!(s.helper_mode, Some(HelperMode::SplitChunk));
        let w = SteerDecision::wide().with_copy_prefetch();
        assert!(w.prefetch_copy);
        assert_eq!(w.cluster, Cluster::Wide);
    }

    #[test]
    fn context_source_helpers() {
        let ctx = SteerContext {
            sources: vec![
                SourceWidthInfo {
                    narrow: true,
                    actual: true,
                    producer_cluster: Some(Cluster::Helper),
                },
                SourceWidthInfo {
                    narrow: false,
                    actual: false,
                    producer_cluster: None,
                },
            ],
            imm_narrow: Some(true),
            ..SteerContext::monolithic()
        };
        assert!(!ctx.all_sources_narrow());
        assert_eq!(ctx.wide_source_count(), 1);
        assert_eq!(ctx.narrow_source_count(), 1);
    }

    #[test]
    fn all_narrow_requires_narrow_immediate() {
        let mut ctx = SteerContext::monolithic();
        ctx.sources = vec![SourceWidthInfo {
            narrow: true,
            actual: true,
            producer_cluster: None,
        }];
        ctx.imm_narrow = Some(false);
        assert!(!ctx.all_sources_narrow());
        ctx.imm_narrow = Some(true);
        assert!(ctx.all_sources_narrow());
        ctx.imm_narrow = None;
        assert!(ctx.all_sources_narrow());
    }

    #[test]
    fn always_wide_never_uses_helper() {
        let mut p = AlwaysWide;
        let uop = DynUop::from_uop(Uop::new(0, UopKind::Alu(AluOp::Add)));
        let d = p.steer(&uop, &SteerContext::monolithic());
        assert_eq!(d.cluster, Cluster::Wide);
        assert!(!p.uses_helper());
        assert_eq!(p.name(), "baseline");
    }
}
