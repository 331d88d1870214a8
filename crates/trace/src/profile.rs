//! Workload profiles: recipes that mix kernels into benchmark-like traces.
//!
//! A [`WorkloadProfile`] names a workload, lists the kernels it is made of
//! (with weights), and sets the data-size / narrow-bias / length parameters.
//! Generating the profile interprets each kernel and interleaves the resulting
//! µop segments in phases, which mimics how real applications alternate
//! between different inner loops.

use crate::interp::{InterpConfig, Interpreter};
use crate::kernels::KernelKind;
use crate::trace::Trace;
use serde::{Deserialize, Serialize};

/// Number of alternating phases used when interleaving kernel segments.
const PHASES: usize = 4;

/// A recipe for generating one workload trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadProfile {
    /// Workload name (e.g. `gcc`, `enc_03`).
    pub name: String,
    /// Workload category label (Table 2), if any.
    pub category: Option<String>,
    /// Kernel mix: `(kernel, weight)`; weights need not sum to 1.
    pub mix: Vec<(KernelKind, f64)>,
    /// Working-set elements per kernel instance.
    pub data_len: usize,
    /// Bias of generated data towards narrow byte values, in `[0, 1]`.
    pub narrow_bias: f64,
    /// Total dynamic µops to generate.
    pub trace_len: usize,
    /// Seed for deterministic generation.
    pub seed: u64,
}

impl WorkloadProfile {
    /// Create a profile with sensible defaults (overridable via the builder
    /// methods).
    pub fn new(name: impl Into<String>, mix: Vec<(KernelKind, f64)>) -> WorkloadProfile {
        WorkloadProfile {
            name: name.into(),
            category: None,
            mix,
            data_len: 512,
            narrow_bias: 0.7,
            trace_len: 50_000,
            seed: 0xC0FFEE,
        }
    }

    /// Set the workload category label.
    pub fn with_category(mut self, category: impl Into<String>) -> Self {
        self.category = Some(category.into());
        self
    }

    /// Set the total trace length in µops.
    pub fn with_trace_len(mut self, len: usize) -> Self {
        self.trace_len = len;
        self
    }

    /// Set the narrow-value bias of the generated data.
    pub fn with_narrow_bias(mut self, bias: f64) -> Self {
        self.narrow_bias = bias.clamp(0.0, 1.0);
        self
    }

    /// Set the per-kernel working-set size.
    pub fn with_data_len(mut self, len: usize) -> Self {
        self.data_len = len;
        self
    }

    /// Set the generation seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Why [`WorkloadProfile::generate`] cannot run this profile, if it
    /// cannot: the mix names no kernel, or no kernel has a positive weight.
    pub fn check(&self) -> Result<(), &'static str> {
        if self.mix.is_empty() {
            return Err("profile must contain at least one kernel");
        }
        if self.total_weight() <= 0.0 {
            return Err("profile weights must be positive");
        }
        Ok(())
    }

    /// The sum of the positive kernel weights.
    fn total_weight(&self) -> f64 {
        self.mix.iter().map(|(_, w)| w.max(0.0)).sum()
    }

    /// Generate the trace described by this profile.
    ///
    /// Each kernel in the mix is interpreted long enough to supply its share
    /// of the requested µop count; the per-kernel segments are then
    /// interleaved over a fixed number of rounds so the trace alternates between
    /// "phases" like a real program.
    ///
    /// # Panics
    ///
    /// Panics when [`WorkloadProfile::check`] refuses the profile.
    pub fn generate(&self) -> Trace {
        if let Err(reason) = self.check() {
            panic!("{reason}");
        }
        let total_weight = self.total_weight();

        // Compute integer shares that sum exactly to the requested length:
        // floor each share and hand the rounding remainder to the heaviest kernel.
        let mut shares: Vec<usize> = self
            .mix
            .iter()
            .map(|(_, w)| ((w.max(0.0) / total_weight) * self.trace_len as f64).floor() as usize)
            .collect();
        let assigned: usize = shares.iter().sum();
        if let Some(max_idx) = self
            .mix
            .iter()
            .enumerate()
            .max_by(|a, b| {
                a.1 .1
                    .partial_cmp(&b.1 .1)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i)
        {
            shares[max_idx] += self.trace_len.saturating_sub(assigned);
        }

        // Generate each kernel's full contribution once.
        let mut segments: Vec<(Vec<hc_isa::DynUop>, usize)> = Vec::with_capacity(self.mix.len());
        for (idx, (kind, _weight)) in self.mix.iter().enumerate() {
            let share = shares[idx];
            if share == 0 {
                continue;
            }
            let kernel = kind.build(
                self.data_len,
                self.narrow_bias,
                self.seed.wrapping_add(idx as u64 * 0x9E37_79B9),
            );
            let mut interp = Interpreter::new(
                kernel.mem,
                InterpConfig {
                    max_uops: share,
                    loop_program: true,
                    // Separate PC regions per kernel, as if they were separate
                    // functions of one program.
                    pc_base: (idx as u64 + 1) * 0x4000,
                },
            );
            for (r, v) in &kernel.presets {
                interp.set_reg(*r, *v);
            }
            let t = interp
                .run(&kernel.program)
                .expect("kernel programs are validated by construction");
            segments.push((t.uops, share));
        }

        // Interleave the segments phase by phase.
        let mut uops = Vec::with_capacity(self.trace_len);
        for phase in 0..PHASES {
            for (seg, share) in &segments {
                let chunk = share / PHASES;
                let start = phase * chunk;
                let end = if phase == PHASES - 1 {
                    seg.len()
                } else {
                    (start + chunk).min(seg.len())
                };
                if start < seg.len() {
                    uops.extend_from_slice(&seg[start..end]);
                }
            }
        }
        uops.truncate(self.trace_len);

        let mut trace = Trace::from_uops(self.name.clone(), uops);
        trace.category = self.category.clone();
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_length() {
        let p = WorkloadProfile::new(
            "test",
            vec![(KernelKind::ByteHistogram, 1.0), (KernelKind::WordSum, 1.0)],
        )
        .with_trace_len(10_000);
        let t = p.generate();
        assert_eq!(t.len(), 10_000);
        assert_eq!(t.name, "test");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let p = WorkloadProfile::new("d", vec![(KernelKind::RleCompress, 1.0)])
            .with_trace_len(5_000)
            .with_seed(99);
        let a = p.generate();
        let b = p.generate();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.uop.pc, y.uop.pc);
            assert_eq!(x.result, y.result);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let base =
            WorkloadProfile::new("d", vec![(KernelKind::RleCompress, 1.0)]).with_trace_len(5_000);
        let a = base.clone().with_seed(1).generate();
        let b = base.with_seed(2).generate();
        let same = a
            .iter()
            .zip(b.iter())
            .filter(|(x, y)| x.result == y.result)
            .count();
        assert!(same < a.len(), "different seeds should give different data");
    }

    #[test]
    fn narrow_bias_moves_narrow_fraction() {
        let narrow_frac = |t: &Trace| {
            let vals: Vec<_> = t.iter().filter_map(|d| d.result).collect();
            vals.iter().filter(|v| v.is_narrow()).count() as f64 / vals.len().max(1) as f64
        };
        let lo = WorkloadProfile::new("lo", vec![(KernelKind::WordSum, 1.0)])
            .with_trace_len(8_000)
            .with_narrow_bias(0.05)
            .generate();
        let hi = WorkloadProfile::new("hi", vec![(KernelKind::WordSum, 1.0)])
            .with_trace_len(8_000)
            .with_narrow_bias(0.95)
            .generate();
        assert!(narrow_frac(&hi) > narrow_frac(&lo));
    }

    #[test]
    fn mix_includes_all_kernels_pc_regions() {
        let p = WorkloadProfile::new(
            "mix",
            vec![
                (KernelKind::ByteHistogram, 1.0),
                (KernelKind::PointerChase, 1.0),
                (KernelKind::TokenScan, 1.0),
            ],
        )
        .with_trace_len(9_000);
        let t = p.generate();
        let regions: std::collections::HashSet<u64> = t.iter().map(|d| d.uop.pc / 0x4000).collect();
        assert!(regions.len() >= 3, "each kernel occupies its own PC region");
    }

    #[test]
    #[should_panic(expected = "at least one kernel")]
    fn empty_mix_panics() {
        let _ = WorkloadProfile::new("bad", vec![]).generate();
    }

    #[test]
    fn check_refuses_exactly_what_generate_panics_on() {
        let profile = |mix| WorkloadProfile::new("p", mix).with_trace_len(64);
        let refused = [
            vec![],
            vec![(KernelKind::WordSum, 0.0)],
            vec![(KernelKind::WordSum, -1.0), (KernelKind::Checksum, 0.0)],
        ];
        for mix in refused {
            let p = profile(mix);
            assert!(p.check().is_err(), "{p:?}");
            assert!(std::panic::catch_unwind(|| p.generate()).is_err(), "{p:?}");
        }
        let accepted = [
            vec![(KernelKind::WordSum, 1.0)],
            vec![(KernelKind::WordSum, 0.0), (KernelKind::Checksum, 1e-9)],
            vec![(KernelKind::WordSum, f64::INFINITY)],
            vec![(KernelKind::WordSum, -1.0), (KernelKind::Checksum, 2.0)],
        ];
        for mix in accepted {
            let p = profile(mix);
            assert_eq!(p.check(), Ok(()), "{p:?}");
            assert_eq!(p.generate().len(), 64, "{p:?}");
        }
    }

    #[test]
    fn zero_weight_kernels_are_skipped() {
        let p = WorkloadProfile::new(
            "zw",
            vec![
                (KernelKind::ByteHistogram, 1.0),
                (KernelKind::FpStream, 0.0),
            ],
        )
        .with_trace_len(4_000);
        let t = p.generate();
        assert!(!t
            .iter()
            .any(|d| matches!(d.uop.kind, hc_isa::uop::UopKind::Fp)));
    }
}
