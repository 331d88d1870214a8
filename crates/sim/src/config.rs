//! Simulator configuration — Table 1 of the paper plus the helper-cluster
//! parameters of §2 — and the typed [`ConfigError`] produced when a
//! configuration is rejected.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Helper datapath widths the execution model supports: the paper's 8-bit
/// design point plus the half- and double-width sensitivity neighbours.
pub const SUPPORTED_HELPER_WIDTHS: [u32; 3] = [4, 8, 16];

/// Largest helper clock ratio the tick-based clocking model accepts.  Beyond
/// this every wide-cycle latency times out the cycle-bucketed event wheel
/// (and no silicon ships a 64× faster narrow backend anyway).
pub const MAX_HELPER_CLOCK_RATIO: u32 = 64;

/// Largest worst-case completion latency (in ticks) a configuration may
/// produce.  The execution engine's event wheel is sized at run start to the
/// next power of two covering [`SimConfig::worst_case_completion_ticks`], so
/// this cap bounds the wheel at 2²⁰ buckets (~24 MB of empty buckets per
/// context at the extreme — the paper machine needs 2¹⁰); a configuration whose
/// single longest µop latency exceeds a million helper cycles is a typo, not
/// a machine.
pub const MAX_COMPLETION_LATENCY_TICKS: u64 = 1 << 20;

/// Why a [`SimConfig`] was rejected by [`SimConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConfigError {
    /// One of `fetch_width`, `rename_width` or `commit_width` is zero.
    ZeroFrontendWidth,
    /// The reorder buffer cannot hold one full commit group.
    RobSmallerThanCommitGroup {
        /// Configured ROB entries.
        rob_entries: usize,
        /// Configured commit width.
        commit_width: usize,
    },
    /// A cache line size is not a power of two.
    CacheLineNotPowerOfTwo {
        /// Offending line size in bytes.
        line_bytes: u32,
    },
    /// A cache's size, associativity and line size do not produce a non-zero
    /// power-of-two set count (the index function needs one).
    CacheGeometryNotPowerOfTwo {
        /// Configured capacity in bytes.
        size_bytes: u32,
        /// Configured associativity.
        ways: u32,
        /// Configured line size in bytes.
        line_bytes: u32,
    },
    /// The helper cluster is enabled with a clock ratio of zero.
    ZeroHelperClockRatio,
    /// The helper clock ratio exceeds [`MAX_HELPER_CLOCK_RATIO`]: wide-cycle
    /// latencies expressed in ticks would overflow the clocking model's
    /// event-wheel horizon.
    HelperClockRatioTooLarge {
        /// Configured ratio.
        ratio: u32,
        /// Largest supported ratio.
        max: u32,
    },
    /// The helper datapath width is not one of
    /// [`SUPPORTED_HELPER_WIDTHS`]; the narrowness detectors and the IR
    /// split-chunk machinery only model widths that divide 32 evenly.
    UnsupportedHelperWidth {
        /// Configured width in bits.
        width_bits: u32,
    },
    /// The worst-case completion latency of a single µop (a full cache-miss
    /// load at the configured clock ratio) exceeds
    /// [`MAX_COMPLETION_LATENCY_TICKS`]: the event wheel cannot be sized to
    /// cover the configuration's scheduling horizon.
    CompletionLatencyBeyondHorizon {
        /// The configuration's worst-case single-µop latency in ticks.
        worst_case_ticks: u64,
        /// The supported maximum.
        max: u64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroFrontendWidth => {
                write!(f, "frontend/commit widths must be non-zero")
            }
            ConfigError::RobSmallerThanCommitGroup {
                rob_entries,
                commit_width,
            } => write!(
                f,
                "ROB must hold at least one commit group ({rob_entries} entries < commit width {commit_width})"
            ),
            ConfigError::CacheLineNotPowerOfTwo { line_bytes } => {
                write!(f, "cache line sizes must be powers of two (got {line_bytes})")
            }
            ConfigError::CacheGeometryNotPowerOfTwo {
                size_bytes,
                ways,
                line_bytes,
            } => write!(
                f,
                "cache geometry {size_bytes}B / {ways}-way / {line_bytes}B lines does not \
                 yield a power-of-two set count"
            ),
            ConfigError::ZeroHelperClockRatio => {
                write!(f, "helper clock ratio must be at least 1")
            }
            ConfigError::HelperClockRatioTooLarge { ratio, max } => {
                write!(f, "helper clock ratio {ratio} exceeds the supported maximum {max}")
            }
            ConfigError::UnsupportedHelperWidth { width_bits } => write!(
                f,
                "helper datapath width {width_bits} is unsupported (must be one of {SUPPORTED_HELPER_WIDTHS:?})"
            ),
            ConfigError::CompletionLatencyBeyondHorizon {
                worst_case_ticks,
                max,
            } => write!(
                f,
                "worst-case completion latency of {worst_case_ticks} ticks exceeds the \
                 event-wheel horizon cap of {max} (check memory/functional-unit latencies \
                 against the helper clock ratio)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Cache geometry and latency for one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Associativity (ways).
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Access latency in wide-cluster cycles.
    pub latency: u32,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> u32 {
        (self.size_bytes / (self.ways * self.line_bytes)).max(1)
    }
}

/// Full simulator configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Level-1 data cache (DL0 in the paper: 32KB, 8-way, 3 cycles).
    pub dl0: CacheConfig,
    /// Level-2 cache (UL1: 4MB, 16-way, 13 cycles).
    pub ul1: CacheConfig,
    /// Main memory latency in wide cycles (450 in Table 1).
    pub memory_latency: u32,
    /// Integer scheduler (issue queue) entries per cluster (32 in Table 1).
    pub int_iq_entries: usize,
    /// Integer issue width per cluster per *its own* cycle (3 in Table 1).
    pub int_issue_width: usize,
    /// FP scheduler entries (wide cluster only).
    pub fp_iq_entries: usize,
    /// FP issue width (wide cluster only).
    pub fp_issue_width: usize,
    /// Commit width in µops per wide cycle (6 in Table 1).
    pub commit_width: usize,
    /// Rename/dispatch width in µops per wide cycle.
    pub rename_width: usize,
    /// Fetch width in µops per wide cycle (trace cache delivery).
    pub fetch_width: usize,
    /// Reorder buffer entries.
    pub rob_entries: usize,
    /// Whether the helper cluster exists at all (false = monolithic baseline).
    pub helper_enabled: bool,
    /// Helper cluster datapath width in bits (8 in the paper).
    pub helper_width_bits: u32,
    /// Helper-cluster clock multiplier relative to the wide cluster (2 in §2.2).
    pub helper_clock_ratio: u32,
    /// Helper cluster integer issue width per *helper* cycle.
    pub helper_issue_width: usize,
    /// Helper cluster issue-queue entries.
    pub helper_iq_entries: usize,
    /// Latency of an inter-cluster copy µop in helper ticks (half wide
    /// cycles), once its source is ready: the transfer plus the write into the
    /// consumer's register file over the synchronised inter-cluster bypass.
    pub copy_latency: u32,
    /// Branch misprediction frontend redirect penalty in wide cycles.
    pub branch_mispredict_penalty: u32,
    /// Width (fatal) misprediction flush penalty in wide cycles.
    pub width_flush_penalty: u32,
    /// Integer multiply latency in wide cycles.
    pub mul_latency: u32,
    /// Integer divide latency in wide cycles.
    pub div_latency: u32,
    /// FP operation latency in wide cycles.
    pub fp_latency: u32,
    /// Store-to-load forwarding latency in wide cycles.
    pub forward_latency: u32,
}

impl SimConfig {
    /// The baseline processor parameters of Table 1, with the §2 helper
    /// cluster attached (8 bits wide, clocked 2×).
    pub fn paper_baseline() -> SimConfig {
        SimConfig {
            dl0: CacheConfig {
                size_bytes: 32 * 1024,
                ways: 8,
                line_bytes: 64,
                latency: 3,
            },
            ul1: CacheConfig {
                size_bytes: 4 * 1024 * 1024,
                ways: 16,
                line_bytes: 64,
                latency: 13,
            },
            memory_latency: 450,
            int_iq_entries: 32,
            int_issue_width: 3,
            fp_iq_entries: 32,
            fp_issue_width: 3,
            commit_width: 6,
            rename_width: 6,
            fetch_width: 6,
            rob_entries: 128,
            helper_enabled: true,
            helper_width_bits: 8,
            helper_clock_ratio: 2,
            helper_issue_width: 3,
            helper_iq_entries: 32,
            copy_latency: 1,
            branch_mispredict_penalty: 10,
            width_flush_penalty: 4,
            mul_latency: 4,
            div_latency: 20,
            fp_latency: 4,
            forward_latency: 1,
        }
    }

    /// The monolithic baseline: identical frontend and wide backend, no helper
    /// cluster (the comparison point for every speedup in the paper).
    pub fn monolithic_baseline() -> SimConfig {
        SimConfig {
            helper_enabled: false,
            ..SimConfig::paper_baseline()
        }
    }

    /// Number of helper ticks per wide cycle.
    pub fn ticks_per_wide_cycle(&self) -> u64 {
        self.helper_clock_ratio.max(1) as u64
    }

    /// Convert a latency expressed in wide cycles to ticks.
    pub fn wide_cycles_to_ticks(&self, cycles: u32) -> u64 {
        cycles as u64 * self.ticks_per_wide_cycle()
    }

    /// The helper datapath width the narrowness detectors check against.
    pub fn narrow_bits(&self) -> u32 {
        self.helper_width_bits
    }

    /// Number of chunks the IR scheme splits a wide (32-bit) instruction
    /// into: one per helper-datapath slice (4 at the paper's 8-bit design
    /// point, 2 at 16 bits, 8 at 4 bits).
    pub fn split_chunks(&self) -> usize {
        (32 / self.helper_width_bits.clamp(1, 32)) as usize
    }

    /// Worst-case completion latency of a single µop in ticks: the upper
    /// bound on how far ahead of the current tick the issue stage can ever
    /// schedule a completion event.  The execution engine sizes its event
    /// wheel to cover this, so no reachable latency wraps a wheel bucket.
    ///
    /// The bound is a wide-cluster µop's own issue cycle plus the longest
    /// latency class — a load missing every cache level (`dl0 + ul1 + main
    /// memory`, the levels are additive on a full miss) or the slowest
    /// functional unit — converted to ticks at the configured clock ratio.
    pub fn worst_case_completion_ticks(&self) -> u64 {
        let own_cycle = self.ticks_per_wide_cycle();
        let full_miss =
            self.dl0.latency as u64 + self.ul1.latency as u64 + self.memory_latency as u64;
        let slowest_unit = (self.mul_latency as u64)
            .max(self.div_latency as u64)
            .max(self.fp_latency as u64)
            .max(self.forward_latency as u64);
        let longest_wide_cycles = full_miss.max(slowest_unit);
        let copy = (self.copy_latency as u64).max(1);
        (own_cycle + longest_wide_cycles.saturating_mul(own_cycle)).max(copy)
    }

    /// Basic sanity validation.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.commit_width == 0 || self.rename_width == 0 || self.fetch_width == 0 {
            return Err(ConfigError::ZeroFrontendWidth);
        }
        if self.rob_entries < self.commit_width {
            return Err(ConfigError::RobSmallerThanCommitGroup {
                rob_entries: self.rob_entries,
                commit_width: self.commit_width,
            });
        }
        for cache in [&self.dl0, &self.ul1] {
            if !cache.line_bytes.is_power_of_two() {
                return Err(ConfigError::CacheLineNotPowerOfTwo {
                    line_bytes: cache.line_bytes,
                });
            }
            // The index function needs a non-zero power-of-two set count:
            // capacity must divide evenly into power-of-two-many sets.
            let geometry_error = ConfigError::CacheGeometryNotPowerOfTwo {
                size_bytes: cache.size_bytes,
                ways: cache.ways,
                line_bytes: cache.line_bytes,
            };
            if cache.ways == 0 {
                return Err(geometry_error);
            }
            let way_bytes = cache.ways * cache.line_bytes;
            if cache.size_bytes == 0
                || cache.size_bytes % way_bytes != 0
                || !(cache.size_bytes / way_bytes).is_power_of_two()
            {
                return Err(geometry_error);
            }
        }
        if self.helper_enabled {
            if self.helper_clock_ratio == 0 {
                return Err(ConfigError::ZeroHelperClockRatio);
            }
            if self.helper_clock_ratio > MAX_HELPER_CLOCK_RATIO {
                return Err(ConfigError::HelperClockRatioTooLarge {
                    ratio: self.helper_clock_ratio,
                    max: MAX_HELPER_CLOCK_RATIO,
                });
            }
            if !SUPPORTED_HELPER_WIDTHS.contains(&self.helper_width_bits) {
                return Err(ConfigError::UnsupportedHelperWidth {
                    width_bits: self.helper_width_bits,
                });
            }
        }
        let worst_case_ticks = self.worst_case_completion_ticks();
        if worst_case_ticks > MAX_COMPLETION_LATENCY_TICKS {
            return Err(ConfigError::CompletionLatencyBeyondHorizon {
                worst_case_ticks,
                max: MAX_COMPLETION_LATENCY_TICKS,
            });
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::paper_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_baseline_matches_table_1() {
        let c = SimConfig::paper_baseline();
        assert_eq!(c.dl0.size_bytes, 32 * 1024);
        assert_eq!(c.dl0.ways, 8);
        assert_eq!(c.dl0.latency, 3);
        assert_eq!(c.ul1.size_bytes, 4 * 1024 * 1024);
        assert_eq!(c.ul1.ways, 16);
        assert_eq!(c.ul1.latency, 13);
        assert_eq!(c.memory_latency, 450);
        assert_eq!(c.int_iq_entries, 32);
        assert_eq!(c.int_issue_width, 3);
        assert_eq!(c.fp_iq_entries, 32);
        assert_eq!(c.fp_issue_width, 3);
        assert_eq!(c.commit_width, 6);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn helper_parameters_match_section_2() {
        let c = SimConfig::paper_baseline();
        assert!(c.helper_enabled);
        assert_eq!(c.helper_width_bits, 8);
        assert_eq!(c.helper_clock_ratio, 2);
        assert_eq!(c.ticks_per_wide_cycle(), 2);
        assert_eq!(c.wide_cycles_to_ticks(3), 6);
    }

    #[test]
    fn monolithic_baseline_disables_helper() {
        let c = SimConfig::monolithic_baseline();
        assert!(!c.helper_enabled);
        // Everything else identical to the helper configuration.
        let p = SimConfig::paper_baseline();
        assert_eq!(c.dl0, p.dl0);
        assert_eq!(c.commit_width, p.commit_width);
    }

    #[test]
    fn cache_sets_computed() {
        let c = SimConfig::paper_baseline();
        assert_eq!(c.dl0.sets(), 32 * 1024 / (8 * 64));
        assert_eq!(c.ul1.sets(), 4 * 1024 * 1024 / (16 * 64));
    }

    #[test]
    fn validation_rejects_nonsense() {
        let mut c = SimConfig::paper_baseline();
        c.commit_width = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroFrontendWidth));

        let mut c = SimConfig::paper_baseline();
        c.dl0.line_bytes = 48;
        assert_eq!(
            c.validate(),
            Err(ConfigError::CacheLineNotPowerOfTwo { line_bytes: 48 })
        );

        let mut c = SimConfig::paper_baseline();
        c.rob_entries = 2;
        assert_eq!(
            c.validate(),
            Err(ConfigError::RobSmallerThanCommitGroup {
                rob_entries: 2,
                commit_width: 6
            })
        );

        let mut c = SimConfig::paper_baseline();
        c.helper_clock_ratio = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroHelperClockRatio));
    }

    #[test]
    fn validation_rejects_overflowing_clock_ratios() {
        let mut c = SimConfig::paper_baseline();
        c.helper_clock_ratio = MAX_HELPER_CLOCK_RATIO;
        assert!(c.validate().is_ok(), "the cap itself is legal");
        c.helper_clock_ratio = MAX_HELPER_CLOCK_RATIO + 1;
        assert_eq!(
            c.validate(),
            Err(ConfigError::HelperClockRatioTooLarge {
                ratio: MAX_HELPER_CLOCK_RATIO + 1,
                max: MAX_HELPER_CLOCK_RATIO,
            })
        );
        // The clock knobs only matter while the helper cluster exists.
        c.helper_enabled = false;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_unsupported_helper_widths() {
        for width_bits in [0, 1, 2, 3, 5, 12, 24, 32, 64] {
            let mut c = SimConfig::paper_baseline();
            c.helper_width_bits = width_bits;
            assert_eq!(
                c.validate(),
                Err(ConfigError::UnsupportedHelperWidth { width_bits }),
                "width {width_bits} must be rejected"
            );
            c.helper_enabled = false;
            assert!(
                c.validate().is_ok(),
                "monolithic machines ignore the helper width"
            );
        }
        for width_bits in SUPPORTED_HELPER_WIDTHS {
            let mut c = SimConfig::paper_baseline();
            c.helper_width_bits = width_bits;
            assert!(c.validate().is_ok(), "width {width_bits} is a sweep point");
        }
    }

    #[test]
    fn validation_rejects_non_power_of_two_cache_geometry() {
        // 48KB / 8-way / 64B lines -> 96 sets: line size is a power of two
        // but the set count is not.
        let mut c = SimConfig::paper_baseline();
        c.dl0.size_bytes = 48 * 1024;
        assert_eq!(
            c.validate(),
            Err(ConfigError::CacheGeometryNotPowerOfTwo {
                size_bytes: 48 * 1024,
                ways: 8,
                line_bytes: 64,
            })
        );

        // Zero ways would divide by zero in the set computation.
        let mut c = SimConfig::paper_baseline();
        c.ul1.ways = 0;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::CacheGeometryNotPowerOfTwo { ways: 0, .. })
        ));

        // Capacity smaller than one way's worth of lines.
        let mut c = SimConfig::paper_baseline();
        c.dl0.size_bytes = 256;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::CacheGeometryNotPowerOfTwo { .. })
        ));
    }

    #[test]
    fn split_chunks_track_helper_width() {
        let mut c = SimConfig::paper_baseline();
        assert_eq!(c.split_chunks(), 4);
        c.helper_width_bits = 4;
        assert_eq!(c.split_chunks(), 8);
        c.helper_width_bits = 16;
        assert_eq!(c.split_chunks(), 2);
    }

    #[test]
    fn config_errors_display_and_implement_error() {
        let e: Box<dyn std::error::Error> = Box::new(ConfigError::ZeroHelperClockRatio);
        assert!(e.to_string().contains("clock ratio"));
    }

    #[test]
    fn worst_case_latency_covers_a_full_miss_load() {
        let c = SimConfig::paper_baseline();
        // Wide own cycle (2 ticks at ratio 2) + (3 + 13 + 450) wide cycles
        // of memory, converted to ticks.
        assert_eq!(c.worst_case_completion_ticks(), 2 + (3 + 13 + 450) * 2);
        // The monolithic baseline disables the helper but keeps the same
        // tick clocking (ratio 2), so its bound is identical.
        let mono = SimConfig::monolithic_baseline();
        assert_eq!(mono.worst_case_completion_ticks(), 2 + 466 * 2);
    }

    #[test]
    fn validation_rejects_latencies_beyond_the_event_horizon() {
        // Every in-range clock ratio keeps the paper latencies well inside
        // the horizon — the new check must not reject previously valid
        // machines.
        for ratio in [1, 2, 4, 8, MAX_HELPER_CLOCK_RATIO] {
            let mut c = SimConfig::paper_baseline();
            c.helper_clock_ratio = ratio;
            assert!(c.validate().is_ok(), "ratio {ratio} stays valid");
        }
        // A pathological memory latency overflows the wheel horizon and is
        // rejected with the typed error instead of silently degrading.
        let mut c = SimConfig::paper_baseline();
        c.memory_latency = 3_000_000;
        let worst = c.worst_case_completion_ticks();
        assert!(worst > MAX_COMPLETION_LATENCY_TICKS);
        assert_eq!(
            c.validate(),
            Err(ConfigError::CompletionLatencyBeyondHorizon {
                worst_case_ticks: worst,
                max: MAX_COMPLETION_LATENCY_TICKS,
            })
        );
        let msg = c.validate().unwrap_err().to_string();
        assert!(msg.contains("event-wheel horizon"));
    }
}
