//! Architectural and physical register identifiers.
//!
//! The IA-32 µop machine state is larger than the eight architected GPRs: the
//! frontend introduces temporary registers when cracking complex macro
//! instructions, and the condition codes live in EFLAGS.  We model the integer
//! architectural state as the 8 GPRs, the instruction pointer, the flags
//! register and 8 µop temporaries — 18 renameable names in total.

use serde::{Deserialize, Serialize};

/// Number of IA-32 general purpose registers.
pub const NUM_GPRS: usize = 8;
/// Number of µop temporary registers introduced by instruction cracking.
pub const NUM_TEMPS: usize = 8;
/// Total number of renameable architectural registers (GPRs + EIP + EFLAGS + temps).
pub const NUM_ARCH_REGS: usize = NUM_GPRS + 2 + NUM_TEMPS;

/// An architectural (logical) register name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ArchReg {
    /// General purpose register EAX.
    Eax,
    /// General purpose register EBX.
    Ebx,
    /// General purpose register ECX.
    Ecx,
    /// General purpose register EDX.
    Edx,
    /// General purpose register ESI.
    Esi,
    /// General purpose register EDI.
    Edi,
    /// General purpose register EBP.
    Ebp,
    /// General purpose register ESP.
    Esp,
    /// Instruction pointer (used by the frontend branch-address resolution of §3.3).
    Eip,
    /// The flags / condition-code register.
    Eflags,
    /// µop temporary register.
    Temp(u8),
}

impl ArchReg {
    /// All general purpose registers, in encoding order.
    pub const GPRS: [ArchReg; NUM_GPRS] = [
        ArchReg::Eax,
        ArchReg::Ebx,
        ArchReg::Ecx,
        ArchReg::Edx,
        ArchReg::Esi,
        ArchReg::Edi,
        ArchReg::Ebp,
        ArchReg::Esp,
    ];

    /// Dense index of this register in `[0, NUM_ARCH_REGS)`, suitable for
    /// indexing rename tables.
    pub fn index(self) -> usize {
        match self {
            ArchReg::Eax => 0,
            ArchReg::Ebx => 1,
            ArchReg::Ecx => 2,
            ArchReg::Edx => 3,
            ArchReg::Esi => 4,
            ArchReg::Edi => 5,
            ArchReg::Ebp => 6,
            ArchReg::Esp => 7,
            ArchReg::Eip => 8,
            ArchReg::Eflags => 9,
            ArchReg::Temp(t) => 10 + (t as usize % NUM_TEMPS),
        }
    }

    /// Inverse of [`ArchReg::index`].
    pub fn from_index(idx: usize) -> ArchReg {
        match idx {
            0 => ArchReg::Eax,
            1 => ArchReg::Ebx,
            2 => ArchReg::Ecx,
            3 => ArchReg::Edx,
            4 => ArchReg::Esi,
            5 => ArchReg::Edi,
            6 => ArchReg::Ebp,
            7 => ArchReg::Esp,
            8 => ArchReg::Eip,
            9 => ArchReg::Eflags,
            n => ArchReg::Temp(((n - 10) % NUM_TEMPS) as u8),
        }
    }

    /// Whether this is the flags register.
    pub fn is_flags(self) -> bool {
        matches!(self, ArchReg::Eflags)
    }
}

impl std::fmt::Display for ArchReg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchReg::Eax => write!(f, "eax"),
            ArchReg::Ebx => write!(f, "ebx"),
            ArchReg::Ecx => write!(f, "ecx"),
            ArchReg::Edx => write!(f, "edx"),
            ArchReg::Esi => write!(f, "esi"),
            ArchReg::Edi => write!(f, "edi"),
            ArchReg::Ebp => write!(f, "ebp"),
            ArchReg::Esp => write!(f, "esp"),
            ArchReg::Eip => write!(f, "eip"),
            ArchReg::Eflags => write!(f, "eflags"),
            ArchReg::Temp(t) => write!(f, "t{t}"),
        }
    }
}

/// A physical register identifier inside one backend's register file.
///
/// Physical registers are cluster-local: the wide backend and the helper
/// backend each own a register file (the paper's design does *not* replicate
/// the register file across clusters, unlike the related ICS'05 proposal).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PhysReg(pub u16);

impl PhysReg {
    /// Raw index into the owning register file.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for PhysReg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        for idx in 0..NUM_ARCH_REGS {
            assert_eq!(ArchReg::from_index(idx).index(), idx);
        }
    }

    #[test]
    fn gpr_indices_are_dense_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for r in ArchReg::GPRS {
            assert!(r.index() < NUM_GPRS);
            assert!(seen.insert(r.index()));
        }
    }

    #[test]
    fn temp_wraps_modulo_num_temps() {
        assert_eq!(
            ArchReg::Temp(0).index(),
            ArchReg::Temp(NUM_TEMPS as u8).index()
        );
    }

    #[test]
    fn flags_detection() {
        assert!(ArchReg::Eflags.is_flags());
        assert!(!ArchReg::Eax.is_flags());
    }

    #[test]
    fn display_names() {
        assert_eq!(ArchReg::Eax.to_string(), "eax");
        assert_eq!(ArchReg::Temp(3).to_string(), "t3");
        assert_eq!(PhysReg(42).to_string(), "p42");
    }
}
