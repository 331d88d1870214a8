//! Carry-width prediction (the CR scheme, §3.5).
//!
//! An instruction with one narrow and one wide source producing a wide result
//! is eligible for the helper cluster if the operation does not propagate a
//! carry beyond the low 8 bits (e.g. base + small-offset address generation,
//! Figure 10).  The predictor adds one bit per width-predictor entry that is
//! set at writeback when the last occurrence of the instruction operated on
//! the low 8 bits only; a 2-bit confidence estimator keeps the fatal
//! misprediction rate low.  Multiplies and divides are not eligible because
//! the carry signal cannot be used to catch their mispredictions.

use crate::confidence::ConfidenceCounter;
use serde::{Deserialize, Serialize};

/// Per-entry carry predictor state.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
struct Entry {
    /// Whether the last occurrence did *not* propagate a carry beyond bit 8.
    last_carry_free: bool,
    confidence: ConfidenceCounter,
}

/// Statistics accumulated by the carry predictor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CarryPredictorStats {
    /// Number of predictions issued.
    pub lookups: u64,
    /// Updates that confirmed the stored bit.
    pub correct: u64,
    /// Updates that contradicted the stored bit.
    pub incorrect: u64,
}

impl CarryPredictorStats {
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

/// PC-indexed carry-not-propagated predictor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CarryPredictor {
    entries: Vec<Entry>,
    stats: CarryPredictorStats,
}

impl Default for CarryPredictor {
    fn default() -> Self {
        CarryPredictor::new(crate::width::PAPER_TABLE_ENTRIES)
    }
}

impl CarryPredictor {
    /// Create a predictor with `entries` entries (rounded up to a power of two).
    pub fn new(entries: usize) -> Self {
        CarryPredictor {
            entries: vec![Entry::default(); entries.max(1).next_power_of_two()],
            stats: CarryPredictorStats::default(),
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

    /// Predict whether the µop at `pc` will be carry-free (only meaningful for
    /// CR-eligible µops; the caller checks eligibility).  Returns
    /// `(carry_free, confident)`.
    pub fn predict(&mut self, pc: u64) -> (bool, bool) {
        self.stats.lookups += 1;
        let e = self.entries[self.index(pc)];
        (e.last_carry_free, e.confidence.is_confident())
    }

    /// Update at writeback with whether the instance actually stayed within
    /// the low 8 bits.  Returns whether the stored bit was correct.
    pub fn update(&mut self, pc: u64, actual_carry_free: bool) -> bool {
        let idx = self.index(pc);
        let e = &mut self.entries[idx];
        let was_correct = e.last_carry_free == actual_carry_free;
        if was_correct {
            e.confidence.correct();
            self.stats.correct += 1;
        } else {
            e.confidence.incorrect();
            self.stats.incorrect += 1;
        }
        e.last_carry_free = actual_carry_free;
        was_correct
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CarryPredictorStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initially_predicts_carry() {
        let mut p = CarryPredictor::new(256);
        let (carry_free, confident) = p.predict(0x20);
        assert!(!carry_free);
        assert!(!confident);
    }

    #[test]
    fn learns_carry_free_behaviour_with_confidence() {
        let mut p = CarryPredictor::new(256);
        p.update(0x20, true);
        p.update(0x20, true);
        p.update(0x20, true);
        let (carry_free, confident) = p.predict(0x20);
        assert!(carry_free);
        assert!(confident);
    }

    #[test]
    fn misprediction_resets_confidence() {
        let mut p = CarryPredictor::new(256);
        for _ in 0..4 {
            p.update(0x20, true);
        }
        p.update(0x20, false);
        let (_, confident) = p.predict(0x20);
        assert!(!confident);
    }

    #[test]
    fn accuracy_tracks_behaviour() {
        let mut p = CarryPredictor::new(64);
        for i in 0..100u64 {
            // Alternating behaviour is the worst case: accuracy ~0.
            p.update(7, i % 2 == 0);
        }
        assert!(p.stats().accuracy() < 0.1);

        let mut p = CarryPredictor::new(64);
        for _ in 0..100 {
            p.update(7, true);
        }
        assert!(p.stats().accuracy() > 0.95);
    }
}
