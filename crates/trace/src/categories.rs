//! The Table 2 workload categories and the 400+ application suite.
//!
//! §3.8 evaluates the best steering mechanism (IR) over a comprehensive suite
//! of traces: 62 encoder, 41 SpecFP, 52 kernel, 85 multimedia, 75 office,
//! 45 productivity and 49 workstation traces (409 traces in Table 2; the
//! abstract rounds the study to "412 apps").  Each category is modelled as a
//! family of workload profiles with per-application jitter in the kernel mix,
//! data sizes and narrow bias, so the suite spans a realistic spread of
//! behaviours rather than 400 copies of the same trace.  Campaigns walk the
//! suite one row per application, in category-then-app order, through
//! `hc_core`'s `CampaignBuilder::category_suite`.

use crate::kernels::KernelKind;
use crate::profile::WorkloadProfile;
use serde::{Deserialize, Serialize};

/// The workload categories of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadCategory {
    /// Audio/video encode.
    Encoder,
    /// SPEC FP 2000.
    SpecFp,
    /// Small computational kernels (VectorAdd, FIRs).
    Kernels,
    /// Multimedia (WMedia, Photoshop-like).
    Multimedia,
    /// Office (Excel, Word, PowerPoint-like).
    Office,
    /// Productivity / internet content.
    Productivity,
    /// Workstation.
    Workstation,
}

impl WorkloadCategory {
    /// All categories in Table 2 order.
    pub const ALL: [WorkloadCategory; 7] = [
        WorkloadCategory::Encoder,
        WorkloadCategory::SpecFp,
        WorkloadCategory::Kernels,
        WorkloadCategory::Multimedia,
        WorkloadCategory::Office,
        WorkloadCategory::Productivity,
        WorkloadCategory::Workstation,
    ];

    /// Abbreviation used in the paper's Figure 14.
    pub fn abbrev(self) -> &'static str {
        match self {
            WorkloadCategory::Encoder => "enc",
            WorkloadCategory::SpecFp => "sfp",
            WorkloadCategory::Kernels => "kernels",
            WorkloadCategory::Multimedia => "mm",
            WorkloadCategory::Office => "office",
            WorkloadCategory::Productivity => "prod",
            WorkloadCategory::Workstation => "ws",
        }
    }

    /// Description from Table 2.
    pub fn description(self) -> &'static str {
        match self {
            WorkloadCategory::Encoder => "Audio/video encode",
            WorkloadCategory::SpecFp => "Spec FP's",
            WorkloadCategory::Kernels => "VectorAdd, FIRs",
            WorkloadCategory::Multimedia => "WMedia, photoshop",
            WorkloadCategory::Office => "Excel, word, ppt",
            WorkloadCategory::Productivity => "Internet content",
            WorkloadCategory::Workstation => "VectorAdd, FIRs",
        }
    }

    /// Number of traces in this category (Table 2).
    pub fn trace_count(self) -> usize {
        match self {
            WorkloadCategory::Encoder => 62,
            WorkloadCategory::SpecFp => 41,
            WorkloadCategory::Kernels => 52,
            WorkloadCategory::Multimedia => 85,
            WorkloadCategory::Office => 75,
            WorkloadCategory::Productivity => 45,
            WorkloadCategory::Workstation => 49,
        }
    }

    /// Base kernel mix and narrow bias for the category; per-app jitter is
    /// applied in [`WorkloadCategory::app_profile`].
    fn base_mix(self) -> (Vec<(KernelKind, f64)>, f64) {
        use KernelKind::*;
        match self {
            WorkloadCategory::Encoder => (
                vec![
                    (FirFilter, 2.5),
                    (VectorAddU8, 2.0),
                    (TableLookup, 1.5),
                    (RleCompress, 1.0),
                ],
                0.75,
            ),
            WorkloadCategory::SpecFp => (
                vec![
                    (FpStream, 3.5),
                    (WordSum, 2.0),
                    (FirFilter, 1.0),
                    (ByteHistogram, 0.5),
                ],
                0.45,
            ),
            WorkloadCategory::Kernels => (
                vec![
                    (VectorAddU8, 3.0),
                    (FirFilter, 2.5),
                    (WordSum, 1.5),
                    (MemcpyBytes, 1.0),
                ],
                0.8,
            ),
            WorkloadCategory::Multimedia => (
                vec![
                    (VectorAddU8, 3.0),
                    (ByteHistogram, 2.0),
                    (TableLookup, 1.5),
                    (FirFilter, 1.5),
                ],
                0.85,
            ),
            WorkloadCategory::Office => (
                vec![
                    (TokenScan, 2.5),
                    (StringMatch, 2.0),
                    (PointerChase, 1.5),
                    (TableLookup, 1.0),
                ],
                0.6,
            ),
            WorkloadCategory::Productivity => (
                vec![
                    (TokenScan, 2.0),
                    (PointerChase, 2.0),
                    (Checksum, 1.5),
                    (StringMatch, 1.0),
                ],
                0.55,
            ),
            WorkloadCategory::Workstation => (
                vec![
                    (WordSum, 2.0),
                    (FirFilter, 2.0),
                    (VectorAddU8, 1.5),
                    (Checksum, 1.0),
                ],
                0.65,
            ),
        }
    }

    /// Profile for application `index` (0-based) within the category.
    ///
    /// A deterministic per-app jitter perturbs the kernel weights, narrow bias
    /// and data size so the apps within a category form a spread around the
    /// category's behaviour (visible as the S-curve of Figure 14).
    pub fn app_profile(self, index: usize, trace_len: usize) -> WorkloadProfile {
        let (mut mix, base_bias) = self.base_mix();
        // Simple deterministic jitter derived from the app index.
        let h = (index as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self as u64 * 0x1234_5678);
        let jitter = |shift: u32| ((h >> shift) & 0xFF) as f64 / 255.0; // in [0,1]

        for (slot, (_, w)) in mix.iter_mut().enumerate() {
            // Scale each weight by 0.6..1.4 depending on the app.
            *w *= 0.6 + 0.8 * jitter(8 * (slot as u32 % 4));
        }
        let bias = (base_bias + (jitter(32) - 0.5) * 0.3).clamp(0.05, 0.95);
        let data_len = 256 + ((h >> 40) as usize % 768);

        WorkloadProfile::new(format!("{}_{:03}", self.abbrev(), index), mix)
            .with_category(self.abbrev())
            .with_narrow_bias(bias)
            .with_data_len(data_len)
            .with_trace_len(trace_len)
            .with_seed(h ^ 0xABCD_EF01)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_counts_match_paper() {
        assert_eq!(WorkloadCategory::Encoder.trace_count(), 62);
        assert_eq!(WorkloadCategory::SpecFp.trace_count(), 41);
        assert_eq!(WorkloadCategory::Kernels.trace_count(), 52);
        assert_eq!(WorkloadCategory::Multimedia.trace_count(), 85);
        assert_eq!(WorkloadCategory::Office.trace_count(), 75);
        assert_eq!(WorkloadCategory::Productivity.trace_count(), 45);
        assert_eq!(WorkloadCategory::Workstation.trace_count(), 49);
        let total: usize = WorkloadCategory::ALL.iter().map(|c| c.trace_count()).sum();
        assert_eq!(total, 409, "Table 2 sums to 409 traces");
    }

    #[test]
    fn apps_within_a_category_differ() {
        let a = WorkloadCategory::Multimedia.app_profile(0, 1_000);
        let b = WorkloadCategory::Multimedia.app_profile(1, 1_000);
        assert_ne!(a.seed, b.seed);
        assert!(
            (a.narrow_bias - b.narrow_bias).abs() > 1e-9
                || a.data_len != b.data_len
                || a.mix
                    .iter()
                    .zip(&b.mix)
                    .any(|(x, y)| (x.1 - y.1).abs() > 1e-9),
            "per-app jitter should differentiate apps"
        );
    }

    #[test]
    fn app_profiles_generate() {
        let p = WorkloadCategory::Kernels.app_profile(3, 2_000);
        let t = p.generate();
        assert_eq!(t.len(), 2_000);
        assert_eq!(t.category.as_deref(), Some("kernels"));
    }

    #[test]
    fn category_metadata_is_stable() {
        for c in WorkloadCategory::ALL {
            assert!(!c.abbrev().is_empty());
            assert!(!c.description().is_empty());
        }
    }
}
