//! Interpreter that executes a kernel [`Program`] and records the resulting
//! dynamic µop trace.
//!
//! The interpreter is *functional*, not timed: it computes real values,
//! addresses, flags and branch outcomes and records one [`DynUop`] per lowered
//! µop.  Timing is the job of the `hc-sim` cycle simulator, which replays the
//! trace.

use crate::program::{Inst, Operand, Program};
use crate::trace::Trace;
use hc_isa::flags::Flags;
use hc_isa::mem::MemAccess;
use hc_isa::reg::{ArchReg, NUM_ARCH_REGS};
use hc_isa::uop::{AluOp, MemSize, Uop, UopKind};
use hc_isa::value::Value;
use hc_isa::DynUop;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A sparse byte-addressable memory image.
///
/// Kernels initialise their working set through [`MemImage::fill`] /
/// [`MemImage::write_u32`]; untouched locations read as a deterministic
/// address-derived pattern so loads never return "surprising" wide garbage.
#[derive(Debug, Clone, Default)]
pub struct MemImage {
    bytes: HashMap<u32, u8, BuildHasherDefault<AddrHasher>>,
}

/// Hashes a byte address with one multiply.  The image is only probed by
/// address, never iterated, and its addresses come from the built-in
/// kernels, never from outside the program, so the default collision-proof
/// hasher bought nothing but a third of trace synthesis time.
#[derive(Debug, Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u32(&mut self, addr: u32) {
        // Fibonacci hashing.  The product's high half depends on every
        // address bit; the rotation moves it to the low bits the table
        // indexes with, so regions a power of two apart do not collide.
        self.0 = (addr as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(32);
    }
}

impl MemImage {
    /// Create an empty image.
    pub fn new() -> MemImage {
        MemImage::default()
    }

    /// Read one byte.
    pub fn read_u8(&self, addr: u32) -> u8 {
        match self.bytes.get(&addr) {
            Some(b) => *b,
            // Deterministic background pattern: small values, so uninitialised
            // reads behave like zero-ish heap memory rather than noise.
            None => (addr & 0x3) as u8,
        }
    }

    /// Write one byte.
    pub fn write_u8(&mut self, addr: u32, val: u8) {
        self.bytes.insert(addr, val);
    }

    /// Read `size` bytes little-endian.
    pub fn read(&self, addr: u32, size: MemSize) -> u32 {
        let mut v = 0u32;
        for i in 0..size.bytes() {
            v |= (self.read_u8(addr.wrapping_add(i)) as u32) << (8 * i);
        }
        v
    }

    /// Write `size` bytes little-endian.
    pub fn write(&mut self, addr: u32, size: MemSize, val: u32) {
        for i in 0..size.bytes() {
            self.write_u8(addr.wrapping_add(i), ((val >> (8 * i)) & 0xFF) as u8);
        }
    }

    /// Read a 32-bit little-endian word.
    pub fn read_u32(&self, addr: u32) -> u32 {
        self.read(addr, MemSize::DWord)
    }

    /// Write a 32-bit little-endian word.
    pub fn write_u32(&mut self, addr: u32, val: u32) {
        self.write(addr, MemSize::DWord, val);
    }

    /// Fill `[addr, addr+data.len())` with the given bytes.
    pub fn fill(&mut self, addr: u32, data: &[u8]) {
        for (i, b) in data.iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), *b);
        }
    }

    /// Number of explicitly written bytes.
    pub fn touched(&self) -> usize {
        self.bytes.len()
    }
}

/// Interpreter configuration.
#[derive(Debug, Clone)]
pub struct InterpConfig {
    /// Stop after emitting this many dynamic µops.
    pub max_uops: usize,
    /// When the program halts before `max_uops` µops have been emitted,
    /// restart it from instruction 0 (registers and memory are preserved so
    /// later iterations see warmed-up state).
    pub loop_program: bool,
    /// Base added to every static µop PC, so different kernels occupy
    /// different predictor-index regions like separate functions would.
    pub pc_base: u64,
}

impl Default for InterpConfig {
    fn default() -> Self {
        InterpConfig {
            max_uops: 100_000,
            loop_program: true,
            pc_base: 0,
        }
    }
}

/// Error produced when interpretation cannot proceed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// The program failed validation.
    InvalidProgram(String),
    /// The program has no instructions.
    EmptyProgram,
}

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpError::InvalidProgram(m) => write!(f, "invalid program: {m}"),
            InterpError::EmptyProgram => write!(f, "empty program"),
        }
    }
}

impl std::error::Error for InterpError {}

/// The interpreter itself.  Construct one per kernel execution.
#[derive(Debug, Clone)]
pub struct Interpreter {
    regs: [Value; NUM_ARCH_REGS],
    flags: Flags,
    mem: MemImage,
    config: InterpConfig,
}

impl Interpreter {
    /// Create an interpreter over the given initial memory image.
    pub fn new(mem: MemImage, config: InterpConfig) -> Interpreter {
        Interpreter {
            regs: [Value::ZERO; NUM_ARCH_REGS],
            flags: Flags::default(),
            mem,
            config,
        }
    }

    /// Pre-set a register before running (kernel builders use this to pass
    /// base addresses and sizes).
    pub fn set_reg(&mut self, reg: ArchReg, val: Value) {
        self.regs[reg.index()] = val;
    }

    /// Read a register (after running, for tests).
    pub fn reg(&self, reg: ArchReg) -> Value {
        self.regs[reg.index()]
    }

    /// Access the memory image (after running, for tests).
    pub fn mem(&self) -> &MemImage {
        &self.mem
    }

    fn operand_value(&self, op: Operand) -> (Value, Option<Value>, Option<ArchReg>) {
        // Returns (value, immediate-if-any, register-if-any).
        match op {
            Operand::Reg(r) => (self.regs[r.index()], None, Some(r)),
            Operand::Imm(i) => (Value::from_i32(i), Some(Value::from_i32(i)), None),
        }
    }

    fn alu_compute(&self, op: AluOp, a: Value, b: Value) -> (Value, Flags) {
        match op {
            AluOp::Add | AluOp::Inc => {
                let r = a + b;
                (r, Flags::from_add(a, b, r))
            }
            AluOp::Sub | AluOp::Dec | AluOp::Cmp | AluOp::Neg => {
                let r = a - b;
                (r, Flags::from_sub(a, b, r))
            }
            AluOp::And | AluOp::Test => {
                let r = Value::new(a.bits() & b.bits());
                (r, Flags::from_logic(r))
            }
            AluOp::Or => {
                let r = Value::new(a.bits() | b.bits());
                (r, Flags::from_logic(r))
            }
            AluOp::Xor => {
                let r = Value::new(a.bits() ^ b.bits());
                (r, Flags::from_logic(r))
            }
            AluOp::Shl => {
                let r = Value::new(a.bits().wrapping_shl(b.bits() & 31));
                (r, Flags::from_logic(r))
            }
            AluOp::Shr => {
                let r = Value::new(a.bits().wrapping_shr(b.bits() & 31));
                (r, Flags::from_logic(r))
            }
            AluOp::Sar => {
                let r = Value::new(((a.bits() as i32).wrapping_shr(b.bits() & 31)) as u32);
                (r, Flags::from_logic(r))
            }
            AluOp::Mov => (b, Flags::from_logic(b)),
            AluOp::Not => {
                let r = Value::new(!a.bits());
                (r, Flags::from_logic(r))
            }
        }
    }

    /// Run `program` and return the recorded trace.
    pub fn run(&mut self, program: &Program) -> Result<Trace, InterpError> {
        if program.is_empty() {
            return Err(InterpError::EmptyProgram);
        }
        program.validate().map_err(InterpError::InvalidProgram)?;

        let mut uops: Vec<DynUop> = Vec::with_capacity(self.config.max_uops.min(1 << 20));
        let mut ip = 0usize;

        while uops.len() < self.config.max_uops {
            if ip >= program.len() {
                if self.config.loop_program {
                    ip = 0;
                    continue;
                }
                break;
            }
            let inst = program.insts[ip];
            // Two static µop PC slots per IR instruction: slot 0 for the main
            // µop, slot 1 for the branch half of CmpBranch.
            let pc = self.config.pc_base + (ip as u64) * 2;
            let mut next_ip = ip + 1;

            match inst {
                Inst::Halt => {
                    if self.config.loop_program {
                        ip = 0;
                        continue;
                    }
                    break;
                }
                Inst::MovImm { dst, val } => {
                    let imm = Value::from_i32(val);
                    let u = Uop::new(pc, UopKind::Alu(AluOp::Mov))
                        .with_dest(dst)
                        .with_imm(imm);
                    let mut d = DynUop::from_uop(u);
                    d.result = Some(imm);
                    self.regs[dst.index()] = imm;
                    uops.push(d);
                }
                Inst::Mov { dst, src } => {
                    let v = self.regs[src.index()];
                    let u = Uop::new(pc, UopKind::Alu(AluOp::Mov))
                        .with_src(src)
                        .with_dest(dst);
                    let mut d = DynUop::from_uop(u);
                    d.src_vals[0] = Some(v);
                    d.result = Some(v);
                    self.regs[dst.index()] = v;
                    uops.push(d);
                }
                Inst::Alu { op, dst, a, b } => {
                    let av = self.regs[a.index()];
                    let (bv, imm, breg) = self.operand_value(b);
                    let (result, flags) = self.alu_compute(op, av, bv);
                    let mut u = Uop::new(pc, UopKind::Alu(op)).with_src(a).with_dest(dst);
                    if let Some(imm) = imm {
                        u = u.with_imm(imm);
                    }
                    if let Some(r) = breg {
                        u = u.with_src(r);
                    }
                    u = u.writing_flags();
                    let mut d = DynUop::from_uop(u);
                    d.src_vals[0] = Some(av);
                    if breg.is_some() {
                        d.src_vals[1] = Some(bv);
                    }
                    d.result = Some(result);
                    d.flags_out = Some(flags);
                    self.regs[dst.index()] = result;
                    self.flags = flags;
                    uops.push(d);
                }
                Inst::Mul { dst, a, b } => {
                    let av = self.regs[a.index()];
                    let (bv, imm, breg) = self.operand_value(b);
                    let result = Value::new(av.bits().wrapping_mul(bv.bits()));
                    let flags = Flags::from_logic(result);
                    let mut u = Uop::new(pc, UopKind::Mul).with_src(a).with_dest(dst);
                    if let Some(imm) = imm {
                        u = u.with_imm(imm);
                    }
                    if let Some(r) = breg {
                        u = u.with_src(r);
                    }
                    u = u.writing_flags();
                    let mut d = DynUop::from_uop(u);
                    d.src_vals[0] = Some(av);
                    if breg.is_some() {
                        d.src_vals[1] = Some(bv);
                    }
                    d.result = Some(result);
                    d.flags_out = Some(flags);
                    self.regs[dst.index()] = result;
                    self.flags = flags;
                    uops.push(d);
                }
                Inst::Load {
                    dst,
                    base,
                    offset,
                    size,
                } => {
                    let basev = self.regs[base.index()];
                    let (offv, imm, offreg) = self.operand_value(offset);
                    let addr = basev.bits().wrapping_add(offv.bits());
                    let loaded = Value::new(self.mem.read(addr, size));
                    let mut u = Uop::new(pc, UopKind::Load(size))
                        .with_src(base)
                        .with_dest(dst);
                    if let Some(imm) = imm {
                        u = u.with_imm(imm);
                    }
                    if let Some(r) = offreg {
                        u = u.with_src(r);
                    }
                    let mut d = DynUop::from_uop(u);
                    d.src_vals[0] = Some(basev);
                    if offreg.is_some() {
                        d.src_vals[1] = Some(offv);
                    }
                    d.result = Some(loaded);
                    d.mem = Some(MemAccess::load(addr, size));
                    self.regs[dst.index()] = loaded;
                    uops.push(d);
                }
                Inst::Store {
                    src,
                    base,
                    offset,
                    size,
                } => {
                    let datav = self.regs[src.index()];
                    let basev = self.regs[base.index()];
                    let (offv, imm, offreg) = self.operand_value(offset);
                    let addr = basev.bits().wrapping_add(offv.bits());
                    self.mem.write(addr, size, datav.bits());
                    let mut u = Uop::new(pc, UopKind::Store(size))
                        .with_src(src)
                        .with_src(base);
                    if let Some(imm) = imm {
                        u = u.with_imm(imm);
                    }
                    if let Some(r) = offreg {
                        u = u.with_src(r);
                    }
                    let mut d = DynUop::from_uop(u);
                    d.src_vals[0] = Some(datav);
                    d.src_vals[1] = Some(basev);
                    if offreg.is_some() {
                        d.src_vals[2] = Some(offv);
                    }
                    d.mem = Some(MemAccess::store(addr, size));
                    uops.push(d);
                }
                Inst::CmpBranch { cond, a, b, target } => {
                    // cmp µop.
                    let av = self.regs[a.index()];
                    let (bv, imm, breg) = self.operand_value(b);
                    let (result, flags) = self.alu_compute(AluOp::Cmp, av, bv);
                    let mut u = Uop::new(pc, UopKind::Alu(AluOp::Cmp)).with_src(a);
                    if let Some(imm) = imm {
                        u = u.with_imm(imm);
                    }
                    if let Some(r) = breg {
                        u = u.with_src(r);
                    }
                    u = u.writing_flags();
                    let mut d = DynUop::from_uop(u);
                    d.src_vals[0] = Some(av);
                    if breg.is_some() {
                        d.src_vals[1] = Some(bv);
                    }
                    // cmp does not write a register but the comparison result
                    // width is what the flag semantically reflects.
                    d.result = Some(result);
                    d.flags_out = Some(flags);
                    self.flags = flags;
                    uops.push(d);

                    if uops.len() >= self.config.max_uops {
                        break;
                    }

                    // conditional branch µop.
                    let taken = cond.eval(flags);
                    let target_pc = self.config.pc_base + (target.0 as u64) * 2;
                    let bu = Uop::new(pc + 1, UopKind::CondBranch(cond)).reading_flags();
                    let mut bd = DynUop::from_uop(bu);
                    bd.flags_in = Some(flags);
                    bd.taken = Some(taken);
                    bd.target = Some(target_pc);
                    uops.push(bd);
                    if taken {
                        next_ip = target.0;
                    }
                }
                Inst::BranchFlags { cond, target } => {
                    let taken = cond.eval(self.flags);
                    let target_pc = self.config.pc_base + (target.0 as u64) * 2;
                    let bu = Uop::new(pc, UopKind::CondBranch(cond)).reading_flags();
                    let mut bd = DynUop::from_uop(bu);
                    bd.flags_in = Some(self.flags);
                    bd.taken = Some(taken);
                    bd.target = Some(target_pc);
                    uops.push(bd);
                    if taken {
                        next_ip = target.0;
                    }
                }
                Inst::Jump { target } => {
                    let target_pc = self.config.pc_base + (target.0 as u64) * 2;
                    let mut bd = DynUop::from_uop(Uop::new(pc, UopKind::Jump));
                    bd.taken = Some(true);
                    bd.target = Some(target_pc);
                    uops.push(bd);
                    next_ip = target.0;
                }
                Inst::Fp { dst, src } => {
                    let v = self.regs[src.index()];
                    // A stand-in FP transform; the exact value is irrelevant
                    // (FP µops always execute in the wide backend), but keep it
                    // wide-looking so width predictors see realistic behaviour.
                    let result = Value::new(v.bits().rotate_left(13) ^ 0x3F80_0000);
                    let u = Uop::new(pc, UopKind::Fp).with_src(src).with_dest(dst);
                    let mut d = DynUop::from_uop(u);
                    d.src_vals[0] = Some(v);
                    d.result = Some(result);
                    self.regs[dst.index()] = result;
                    uops.push(d);
                }
            }

            ip = next_ip;
        }

        Ok(Trace::from_uops(program.name.clone(), uops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Label;
    use hc_isa::uop::BranchCond;

    fn counting_loop(n: i32) -> Program {
        // ecx = 0; loop: ecx += 1; cmp ecx, n; jl loop; halt
        let mut p = Program::new("count");
        p.push(Inst::MovImm {
            dst: ArchReg::Ecx,
            val: 0,
        });
        let body = p.next_label();
        p.push(Inst::Alu {
            op: AluOp::Add,
            dst: ArchReg::Ecx,
            a: ArchReg::Ecx,
            b: Operand::Imm(1),
        });
        p.push(Inst::CmpBranch {
            cond: BranchCond::Lt,
            a: ArchReg::Ecx,
            b: Operand::Imm(n),
            target: body,
        });
        p.push(Inst::Halt);
        p
    }

    #[test]
    fn counting_loop_terminates_with_expected_value() {
        let p = counting_loop(10);
        let mut i = Interpreter::new(
            MemImage::new(),
            InterpConfig {
                max_uops: 10_000,
                loop_program: false,
                pc_base: 0,
            },
        );
        let trace = i.run(&p).unwrap();
        assert_eq!(i.reg(ArchReg::Ecx).bits(), 10);
        // 1 movimm + 10 * (add + cmp + branch) = 31 µops.
        assert_eq!(trace.len(), 31);
    }

    #[test]
    fn branch_outcomes_recorded() {
        let p = counting_loop(3);
        let mut i = Interpreter::new(
            MemImage::new(),
            InterpConfig {
                max_uops: 10_000,
                loop_program: false,
                pc_base: 0,
            },
        );
        let trace = i.run(&p).unwrap();
        let branches: Vec<_> = trace
            .iter()
            .filter(|d| d.uop.kind.is_cond_branch())
            .collect();
        assert_eq!(branches.len(), 3);
        assert_eq!(branches[0].taken, Some(true));
        assert_eq!(branches[1].taken, Some(true));
        assert_eq!(branches[2].taken, Some(false));
    }

    #[test]
    fn loop_counter_values_are_narrow() {
        let p = counting_loop(50);
        let mut i = Interpreter::new(
            MemImage::new(),
            InterpConfig {
                max_uops: 10_000,
                loop_program: false,
                pc_base: 0,
            },
        );
        let trace = i.run(&p).unwrap();
        let adds: Vec<_> = trace
            .iter()
            .filter(|d| matches!(d.uop.kind, UopKind::Alu(AluOp::Add)))
            .collect();
        assert!(adds.iter().all(|d| d.is_all_narrow()));
    }

    #[test]
    fn memory_roundtrip_through_loads_and_stores() {
        let mut p = Program::new("memtest");
        p.push(Inst::MovImm {
            dst: ArchReg::Eax,
            val: 0x42,
        });
        p.push(Inst::Store {
            src: ArchReg::Eax,
            base: ArchReg::Ebx,
            offset: Operand::Imm(4),
            size: MemSize::DWord,
        });
        p.push(Inst::Load {
            dst: ArchReg::Ecx,
            base: ArchReg::Ebx,
            offset: Operand::Imm(4),
            size: MemSize::DWord,
        });
        p.push(Inst::Halt);
        let mut i = Interpreter::new(
            MemImage::new(),
            InterpConfig {
                max_uops: 100,
                loop_program: false,
                pc_base: 0,
            },
        );
        i.set_reg(ArchReg::Ebx, Value::new(0x1000_0000));
        let trace = i.run(&p).unwrap();
        assert_eq!(i.reg(ArchReg::Ecx).bits(), 0x42);
        let load = trace.iter().find(|d| d.uop.kind.is_load()).unwrap();
        assert_eq!(load.mem.unwrap().addr, 0x1000_0004);
        assert_eq!(load.result.unwrap().bits(), 0x42);
    }

    #[test]
    fn byte_loads_zero_extend() {
        let mut mem = MemImage::new();
        mem.fill(0x2000, &[0xAB]);
        let mut p = Program::new("byteload");
        p.push(Inst::Load {
            dst: ArchReg::Eax,
            base: ArchReg::Ebx,
            offset: Operand::Imm(0),
            size: MemSize::Byte,
        });
        p.push(Inst::Halt);
        let mut i = Interpreter::new(
            MemImage::new(),
            InterpConfig {
                max_uops: 10,
                loop_program: false,
                pc_base: 0,
            },
        );
        i.mem = mem;
        i.set_reg(ArchReg::Ebx, Value::new(0x2000));
        i.run(&p).unwrap();
        assert_eq!(i.reg(ArchReg::Eax).bits(), 0xAB);
        assert!(i.reg(ArchReg::Eax).is_narrow());
    }

    #[test]
    fn max_uops_bounds_looping_programs() {
        let p = counting_loop(1_000_000);
        let mut i = Interpreter::new(
            MemImage::new(),
            InterpConfig {
                max_uops: 500,
                loop_program: true,
                pc_base: 0,
            },
        );
        let trace = i.run(&p).unwrap();
        assert_eq!(trace.len(), 500);
    }

    #[test]
    fn program_restart_when_looping() {
        let p = counting_loop(2);
        let mut i = Interpreter::new(
            MemImage::new(),
            InterpConfig {
                max_uops: 100,
                loop_program: true,
                pc_base: 0,
            },
        );
        let trace = i.run(&p).unwrap();
        assert_eq!(trace.len(), 100);
        // The MovImm at pc 0 appears more than once because the program wraps.
        let mov_count = trace.iter().filter(|d| d.uop.pc == 0).count();
        assert!(mov_count > 1);
    }

    #[test]
    fn empty_program_is_an_error() {
        let p = Program::new("empty");
        let mut i = Interpreter::new(MemImage::new(), InterpConfig::default());
        assert!(matches!(i.run(&p), Err(InterpError::EmptyProgram)));
    }

    #[test]
    fn invalid_branch_target_is_an_error() {
        let mut p = Program::new("bad");
        p.push(Inst::Jump { target: Label(17) });
        let mut i = Interpreter::new(MemImage::new(), InterpConfig::default());
        assert!(matches!(i.run(&p), Err(InterpError::InvalidProgram(_))));
    }

    #[test]
    fn pc_base_offsets_all_pcs() {
        let p = counting_loop(1);
        let mut i = Interpreter::new(
            MemImage::new(),
            InterpConfig {
                max_uops: 100,
                loop_program: false,
                pc_base: 0x1000,
            },
        );
        let trace = i.run(&p).unwrap();
        assert!(trace.iter().all(|d| d.uop.pc >= 0x1000));
    }

    #[test]
    fn mem_image_background_pattern_is_deterministic_and_narrow() {
        let m = MemImage::new();
        assert_eq!(m.read_u8(0x123), m.read_u8(0x123));
        assert!(Value::new(m.read(0x5555, MemSize::DWord)).bits() < 0x0404_0404);
    }
}
