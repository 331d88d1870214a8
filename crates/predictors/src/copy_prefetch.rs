//! Copy-prefetch prediction (the CP scheme, §3.6).
//!
//! An inter-cluster copy normally executes at the *consumer*: when a consumer
//! in cluster A needs a value produced in cluster B, a copy µop is generated
//! and steered to B to fetch the value.  The consumer then stalls for the copy
//! latency.  CP instead predicts — at the *producer* — that a copy will be
//! needed later, and issues the copy right after the producer writes back, so
//! the value is already in the consumer's register file when the consumer
//! issues.  The predictor is last-value based: one bit per entry, set at
//! writeback if the producer instance incurred a copy.
//!
//! The paper reports ≈90% accuracy for this predictor and uses it only for
//! narrow-to-wide copies; wide-to-narrow prefetches reuse the result-width
//! predictor (a narrow result produced in the wide backend is prefetched to
//! the helper backend).

use serde::{Deserialize, Serialize};

/// Per-entry CP predictor state: did the last occurrence of this producer
/// generate an inter-cluster copy?
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
struct Entry {
    last_incurred_copy: bool,
}

/// Statistics accumulated by the CP predictor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CopyPredictorStats {
    /// Number of predictions issued.
    pub lookups: u64,
    /// Updates that confirmed the stored bit.
    pub correct: u64,
    /// Updates that contradicted the stored bit.
    pub incorrect: u64,
    /// Prefetches that turned out useful (consumer really was in the other cluster).
    pub useful_prefetches: u64,
    /// Prefetches that were never consumed (wasted backend resources).
    pub wasted_prefetches: u64,
}

impl CopyPredictorStats {
    /// Prediction accuracy in [0, 1].
    pub fn accuracy(&self) -> f64 {
        let t = self.correct + self.incorrect;
        if t == 0 {
            0.0
        } else {
            self.correct as f64 / t as f64
        }
    }
}

/// PC-indexed last-value copy predictor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CopyPredictor {
    entries: Vec<Entry>,
    stats: CopyPredictorStats,
}

impl Default for CopyPredictor {
    fn default() -> Self {
        CopyPredictor::new(crate::width::PAPER_TABLE_ENTRIES)
    }
}

impl CopyPredictor {
    /// Create a predictor with `entries` entries (rounded up to a power of two).
    pub fn new(entries: usize) -> Self {
        CopyPredictor {
            entries: vec![Entry::default(); entries.max(1).next_power_of_two()],
            stats: CopyPredictorStats::default(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty (never true in practice).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn index(&self, pc: u64) -> usize {
        let folded = pc ^ (pc >> 8) ^ (pc >> 16);
        (folded as usize) & (self.entries.len() - 1)
    }

    /// Predict whether the producer at `pc` will incur an inter-cluster copy.
    pub fn predict(&mut self, pc: u64) -> bool {
        self.stats.lookups += 1;
        self.entries[self.index(pc)].last_incurred_copy
    }

    /// Update at the point the producer's copy behaviour is known (its value
    /// was or was not copied across clusters).  Returns whether the stored bit
    /// was correct.
    pub fn update(&mut self, pc: u64, incurred_copy: bool) -> bool {
        let idx = self.index(pc);
        let e = &mut self.entries[idx];
        let was_correct = e.last_incurred_copy == incurred_copy;
        if was_correct {
            self.stats.correct += 1;
        } else {
            self.stats.incorrect += 1;
        }
        e.last_incurred_copy = incurred_copy;
        was_correct
    }

    /// Record whether a prefetch issued from this predictor was consumed.
    pub fn record_prefetch_outcome(&mut self, useful: bool) {
        if useful {
            self.stats.useful_prefetches += 1;
        } else {
            self.stats.wasted_prefetches += 1;
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CopyPredictorStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initially_predicts_no_copy() {
        let mut p = CopyPredictor::new(256);
        assert!(!p.predict(0x44));
    }

    #[test]
    fn learns_copy_behaviour() {
        let mut p = CopyPredictor::new(256);
        p.update(0x44, true);
        assert!(p.predict(0x44));
        p.update(0x44, false);
        assert!(!p.predict(0x44));
    }

    #[test]
    fn stable_behaviour_gives_high_accuracy() {
        let mut p = CopyPredictor::new(256);
        for _ in 0..50 {
            p.update(0x44, true);
        }
        assert!(p.stats().accuracy() > 0.9);
    }

    #[test]
    fn prefetch_outcomes_tracked() {
        let mut p = CopyPredictor::new(16);
        p.record_prefetch_outcome(true);
        p.record_prefetch_outcome(true);
        p.record_prefetch_outcome(false);
        let s = p.stats();
        assert_eq!(s.useful_prefetches, 2);
        assert_eq!(s.wasted_prefetches, 1);
    }
}
