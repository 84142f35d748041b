//! Superinstruction fusion — stage 2 of the staged engine rebuild.
//!
//! [`FusedProgram::fuse`] runs once per decoded image and rewrites the hot
//! adjacent pairs the ia-obs histograms surface (`cmp`+conditional-branch,
//! `li r7,n`+`sys`, `addi`+branch loop edges, load+ALU) into single
//! [`FusedOp`] superinstructions. [`run_slice_fused`] then executes the
//! rewritten program with one flat `match` per dispatch — the
//! threaded-dispatch inner loop — while keeping the pc and retired count in
//! locals for the whole burst. [`run_burst_fused`] extends one turn to a
//! whole run of back-to-back turns in a single call, so the scheduler can
//! amortise its per-turn round over uninterruptible compute stretches; with
//! a [`TrapLane`] it also answers `getpid`/`gettimeofday` traps in the loop
//! (DESIGN §11), so a trap nobody interposes on does not end the burst.
//!
//! Two invariants make the rewrite invisible:
//!
//! * **Accounting is by constituent count.** A fused pair retires 2, so the
//!   virtual clock, slice boundaries, itimer firings and BENCH numbers are
//!   bit-identical to the plain interpreter. When fewer than 2 instructions
//!   of budget remain, the pair is split and only its first constituent
//!   executes (through [`exec_insn`], the reference stepper) — exactly where
//!   the plain engine's slice would have expired.
//! * **Indexes are independent.** `ops[i]` is the best fusion *starting* at
//!   raw pc `i`; a branch into the second instruction of a fused pair lands
//!   on that index's own (plain) entry. Jump targets stay raw code indexes,
//!   so `FusedProgram` is a derived view, never an observable one — which is
//!   also why `ia-analyze` keeps consuming raw images.
//!
//! Only a pair's *first* constituent can fault (`Div`/`Rem` and memory ops
//! are never fused as the second half), so a faulting superinstruction
//! parks the pc at its start with zero constituents retired — the same
//! state the plain engine leaves.

use ia_abi::Signal;

use crate::insn::{Insn, NREGS, SP};
use crate::machine::{
    apply_sysret_regs, exec_insn, LaneAnswers, SliceEnd, SliceResult, StepEvent, TrapLane, VmState,
    SYS_NR_REG,
};
use crate::mem::AddressSpace;

/// The superinstruction families, in hit-counter order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedKind {
    /// `seq|sltu|slt rd,a,b` + `jz|jnz rd,t`.
    CmpBranch = 0,
    /// `addi rd,rs,imm` + `jz|jnz rd,t` — countdown loop edges.
    AddiBranch = 1,
    /// `addi rd,rs,imm` + `jmp t` — the compute-loop back edge.
    AddiJmp = 2,
    /// `li r7,n` + `sys` — the canonical trap sequence.
    LiSys = 3,
    /// `ld rd,[rs+off]` + register-only ALU op.
    LdAlu = 4,
}

/// Number of [`FusedKind`] families — the length of a hit-counter array.
pub const FUSED_KINDS: usize = 5;

/// Report names, indexed by `FusedKind as usize`.
pub const FUSED_KIND_NAMES: [&str; FUSED_KINDS] =
    ["cmp+branch", "addi+branch", "addi+jmp", "li+sys", "ld+alu"];

/// Register-only ALU second halves of an [`FusedOp::LdAlu`] pair. All are
/// non-faulting, so only the leading load can fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alu {
    /// Wrapping add.
    Add,
    /// Wrapping subtract.
    Sub,
    /// Wrapping multiply.
    Mul,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
}

/// One slot of a fused program: either a mirror of the plain [`Insn`] at
/// that index, or a two-instruction superinstruction starting there.
///
/// Superinstruction payloads are packed (`u32` targets, `i32` immediates);
/// a pair whose fields don't fit simply stays plain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // plain variants mirror `Insn` one-for-one
pub enum FusedOp {
    // -- plain mirrors, same payloads and semantics as `Insn` --
    Li(u8, u64),
    Mov(u8, u8),
    Ld(u8, u8, i64),
    St(u8, u8, i64),
    Ldb(u8, u8, i64),
    Stb(u8, u8, i64),
    Add(u8, u8, u8),
    Sub(u8, u8, u8),
    Mul(u8, u8, u8),
    Div(u8, u8, u8),
    Rem(u8, u8, u8),
    Addi(u8, u8, i64),
    And(u8, u8, u8),
    Or(u8, u8, u8),
    Xor(u8, u8, u8),
    Shl(u8, u8, u8),
    Shr(u8, u8, u8),
    Sltu(u8, u8, u8),
    Slt(u8, u8, u8),
    Seq(u8, u8, u8),
    Jmp(u64),
    Jz(u8, u64),
    Jnz(u8, u64),
    Call(u64),
    Ret,
    Sys,
    Halt,
    Nop,
    // -- superinstructions (each retires 2 constituents) --
    /// `seq rd,a,b; jz rd,t`.
    SeqJz {
        rd: u8,
        a: u8,
        b: u8,
        t: u32,
    },
    /// `seq rd,a,b; jnz rd,t`.
    SeqJnz {
        rd: u8,
        a: u8,
        b: u8,
        t: u32,
    },
    /// `sltu rd,a,b; jz rd,t`.
    SltuJz {
        rd: u8,
        a: u8,
        b: u8,
        t: u32,
    },
    /// `sltu rd,a,b; jnz rd,t`.
    SltuJnz {
        rd: u8,
        a: u8,
        b: u8,
        t: u32,
    },
    /// `slt rd,a,b; jz rd,t`.
    SltJz {
        rd: u8,
        a: u8,
        b: u8,
        t: u32,
    },
    /// `slt rd,a,b; jnz rd,t`.
    SltJnz {
        rd: u8,
        a: u8,
        b: u8,
        t: u32,
    },
    /// `addi rd,rs,imm; jz rd,t`.
    AddiJz {
        rd: u8,
        rs: u8,
        imm: i32,
        t: u32,
    },
    /// `addi rd,rs,imm; jnz rd,t`.
    AddiJnz {
        rd: u8,
        rs: u8,
        imm: i32,
        t: u32,
    },
    /// `addi rd,rs,imm; jmp t`.
    AddiJmp {
        rd: u8,
        rs: u8,
        imm: i32,
        t: u32,
    },
    /// `li r7,nr; sys`.
    LiSys(u64),
    /// `ld rd,[rs+off]; <alu> rd2,a,b`.
    LdAlu {
        alu: Alu,
        rd: u8,
        rs: u8,
        off: i32,
        rd2: u8,
        a: u8,
        b: u8,
    },
}

impl FusedOp {
    /// The family of a superinstruction, or `None` for a plain mirror.
    #[must_use]
    pub fn kind(self) -> Option<FusedKind> {
        use FusedOp as F;
        match self {
            F::SeqJz { .. }
            | F::SeqJnz { .. }
            | F::SltuJz { .. }
            | F::SltuJnz { .. }
            | F::SltJz { .. }
            | F::SltJnz { .. } => Some(FusedKind::CmpBranch),
            F::AddiJz { .. } | F::AddiJnz { .. } => Some(FusedKind::AddiBranch),
            F::AddiJmp { .. } => Some(FusedKind::AddiJmp),
            F::LiSys(..) => Some(FusedKind::LiSys),
            F::LdAlu { .. } => Some(FusedKind::LdAlu),
            _ => None,
        }
    }

    /// The first constituent of a superinstruction, or `None` for a plain
    /// mirror — what executes when the slice budget can't cover the pair.
    #[must_use]
    fn first_constituent(self) -> Option<Insn> {
        use FusedOp as F;
        match self {
            F::SeqJz { rd, a, b, .. } | F::SeqJnz { rd, a, b, .. } => Some(Insn::Seq(rd, a, b)),
            F::SltuJz { rd, a, b, .. } | F::SltuJnz { rd, a, b, .. } => Some(Insn::Sltu(rd, a, b)),
            F::SltJz { rd, a, b, .. } | F::SltJnz { rd, a, b, .. } => Some(Insn::Slt(rd, a, b)),
            F::AddiJz { rd, rs, imm, .. }
            | F::AddiJnz { rd, rs, imm, .. }
            | F::AddiJmp { rd, rs, imm, .. } => Some(Insn::Addi(rd, rs, i64::from(imm))),
            F::LiSys(nr) => Some(Insn::Li(SYS_NR_REG as u8, nr)),
            F::LdAlu { rd, rs, off, .. } => Some(Insn::Ld(rd, rs, i64::from(off))),
            _ => None,
        }
    }
}

/// A plain instruction's one-for-one mirror.
fn mirror(insn: Insn) -> FusedOp {
    use FusedOp as F;
    use Insn as I;
    match insn {
        I::Li(rd, v) => F::Li(rd, v),
        I::Mov(rd, rs) => F::Mov(rd, rs),
        I::Ld(rd, rs, off) => F::Ld(rd, rs, off),
        I::St(rd, rs, off) => F::St(rd, rs, off),
        I::Ldb(rd, rs, off) => F::Ldb(rd, rs, off),
        I::Stb(rd, rs, off) => F::Stb(rd, rs, off),
        I::Add(rd, a, b) => F::Add(rd, a, b),
        I::Sub(rd, a, b) => F::Sub(rd, a, b),
        I::Mul(rd, a, b) => F::Mul(rd, a, b),
        I::Div(rd, a, b) => F::Div(rd, a, b),
        I::Rem(rd, a, b) => F::Rem(rd, a, b),
        I::Addi(rd, rs, imm) => F::Addi(rd, rs, imm),
        I::And(rd, a, b) => F::And(rd, a, b),
        I::Or(rd, a, b) => F::Or(rd, a, b),
        I::Xor(rd, a, b) => F::Xor(rd, a, b),
        I::Shl(rd, a, b) => F::Shl(rd, a, b),
        I::Shr(rd, a, b) => F::Shr(rd, a, b),
        I::Sltu(rd, a, b) => F::Sltu(rd, a, b),
        I::Slt(rd, a, b) => F::Slt(rd, a, b),
        I::Seq(rd, a, b) => F::Seq(rd, a, b),
        I::Jmp(t) => F::Jmp(t),
        I::Jz(rs, t) => F::Jz(rs, t),
        I::Jnz(rs, t) => F::Jnz(rs, t),
        I::Call(t) => F::Call(t),
        I::Ret => F::Ret,
        I::Sys => F::Sys,
        I::Halt => F::Halt,
        I::Nop => F::Nop,
    }
}

/// The ALU tag for an instruction usable as an `LdAlu` second half.
fn alu_of(insn: Insn) -> Option<(Alu, u8, u8, u8)> {
    use Insn as I;
    match insn {
        I::Add(rd, a, b) => Some((Alu::Add, rd, a, b)),
        I::Sub(rd, a, b) => Some((Alu::Sub, rd, a, b)),
        I::Mul(rd, a, b) => Some((Alu::Mul, rd, a, b)),
        I::And(rd, a, b) => Some((Alu::And, rd, a, b)),
        I::Or(rd, a, b) => Some((Alu::Or, rd, a, b)),
        I::Xor(rd, a, b) => Some((Alu::Xor, rd, a, b)),
        _ => None,
    }
}

/// The best op starting at one index: a superinstruction over `(a, b)` when
/// the pair is a known-hot shape whose fields pack, else `a`'s mirror.
fn fuse_pair(a: Insn, b: Option<Insn>) -> FusedOp {
    use Insn as I;
    let Some(b) = b else { return mirror(a) };
    let narrow = |t: u64| u32::try_from(t).ok();
    let fused = match (a, b) {
        (I::Seq(rd, x, y), I::Jz(rs, t)) if rs == rd => {
            narrow(t).map(|t| FusedOp::SeqJz { rd, a: x, b: y, t })
        }
        (I::Seq(rd, x, y), I::Jnz(rs, t)) if rs == rd => {
            narrow(t).map(|t| FusedOp::SeqJnz { rd, a: x, b: y, t })
        }
        (I::Sltu(rd, x, y), I::Jz(rs, t)) if rs == rd => {
            narrow(t).map(|t| FusedOp::SltuJz { rd, a: x, b: y, t })
        }
        (I::Sltu(rd, x, y), I::Jnz(rs, t)) if rs == rd => {
            narrow(t).map(|t| FusedOp::SltuJnz { rd, a: x, b: y, t })
        }
        (I::Slt(rd, x, y), I::Jz(rs, t)) if rs == rd => {
            narrow(t).map(|t| FusedOp::SltJz { rd, a: x, b: y, t })
        }
        (I::Slt(rd, x, y), I::Jnz(rs, t)) if rs == rd => {
            narrow(t).map(|t| FusedOp::SltJnz { rd, a: x, b: y, t })
        }
        (I::Addi(rd, rs, imm), I::Jz(r, t)) if r == rd => match (i32::try_from(imm), narrow(t)) {
            (Ok(imm), Some(t)) => Some(FusedOp::AddiJz { rd, rs, imm, t }),
            _ => None,
        },
        (I::Addi(rd, rs, imm), I::Jnz(r, t)) if r == rd => match (i32::try_from(imm), narrow(t)) {
            (Ok(imm), Some(t)) => Some(FusedOp::AddiJnz { rd, rs, imm, t }),
            _ => None,
        },
        (I::Addi(rd, rs, imm), I::Jmp(t)) => match (i32::try_from(imm), narrow(t)) {
            (Ok(imm), Some(t)) => Some(FusedOp::AddiJmp { rd, rs, imm, t }),
            _ => None,
        },
        (I::Li(rd, nr), I::Sys) if rd as usize == SYS_NR_REG => Some(FusedOp::LiSys(nr)),
        (I::Ld(rd, rs, off), second) => match (alu_of(second), i32::try_from(off)) {
            (Some((alu, rd2, x, y)), Ok(off)) => Some(FusedOp::LdAlu {
                alu,
                rd,
                rs,
                off,
                rd2,
                a: x,
                b: y,
            }),
            _ => None,
        },
        _ => None,
    };
    fused.unwrap_or_else(|| mirror(a))
}

/// A program rewritten for the fused engine: one [`FusedOp`] per raw code
/// index, built once per decoded image and shared (`Arc`) by every process
/// executing those bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusedProgram {
    ops: Vec<FusedOp>,
    sites: [u64; FUSED_KINDS],
}

impl FusedProgram {
    /// Rewrites `code`, fusing every hot adjacent pair independently per
    /// start index.
    #[must_use]
    pub fn fuse(code: &[Insn]) -> FusedProgram {
        let mut ops = Vec::with_capacity(code.len());
        let mut sites = [0u64; FUSED_KINDS];
        for (i, &insn) in code.iter().enumerate() {
            let op = fuse_pair(insn, code.get(i + 1).copied());
            if let Some(k) = op.kind() {
                sites[k as usize] += 1;
            }
            ops.push(op);
        }
        FusedProgram { ops, sites }
    }

    /// Number of slots (equals the raw code length).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the program has no code.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Fusion sites discovered per family, indexed like
    /// [`FUSED_KIND_NAMES`].
    #[must_use]
    pub fn sites(&self) -> &[u64; FUSED_KINDS] {
        &self.sites
    }

    /// Total fusion sites across all families.
    #[must_use]
    pub fn fused_sites(&self) -> u64 {
        self.sites.iter().sum()
    }

    /// The op at a raw pc, for tests and disassembly.
    #[must_use]
    pub fn op_at(&self, pc: usize) -> Option<FusedOp> {
        self.ops.get(pc).copied()
    }
}

/// One multi-turn fused burst: the exact totals of N consecutive
/// [`run_slice_fused`] turns executed back to back without syncing the
/// machine state between them, with the traps its lane answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusedBurst {
    /// Constituents retired across the whole burst, answered traps
    /// included.
    pub retired: u64,
    /// Turns consumed, including the final (ending) one. Only slice expiry
    /// and answered traps continue a burst.
    pub turns: u64,
    /// Turns before the final one that ran a whole slice — the involuntary
    /// switches their own rounds would have charged. Every expired turn is
    /// full; an answered trap's turn is full only if the trap was its last
    /// slot.
    pub full_turns: u64,
    /// Constituents retired by the final turn alone.
    pub end_turn_retired: u64,
    /// Why the burst stopped, in [`run_slice_fused`]'s terms, or
    /// [`SliceEnd::Answered`].
    pub end: SliceEnd,
    /// What the trap lane answered (empty without a lane).
    pub answers: LaneAnswers,
}

/// [`run_slice`](crate::machine::run_slice) over a fused program: same
/// contract, same accounting, one flat dispatch per (super)instruction.
///
/// `hits` accumulates executed superinstructions per family (indexed like
/// [`FUSED_KIND_NAMES`]); each hit stands for two retired constituents.
pub fn run_slice_fused(
    vm: &mut VmState,
    mem: &mut AddressSpace,
    prog: &FusedProgram,
    max: u64,
    hits: &mut [u64; FUSED_KINDS],
) -> SliceResult {
    let b = run_burst_fused(vm, mem, prog, max, max, None, hits);
    SliceResult {
        retired: b.retired,
        end: b.end,
    }
}

/// Runs up to `max` constituents as consecutive `slice`-sized turns in one
/// call, keeping the pc and register file in host locals across turn
/// boundaries. Bit-identical to calling [`run_slice_fused`] in a loop with
/// budget `min(slice, max - retired_so_far)` until a turn ends in anything
/// but [`SliceEnd::Expired`]: turn boundaries land on the same retired
/// counts, so a superinstruction pair straddling a boundary still splits
/// and retires through [`exec_insn`] exactly as the one-turn-per-call path
/// would (and, like there, a split pair is not a fusion hit).
///
/// With a `lane`, a trap its answer table covers does not end the burst:
/// it is answered in the loop exactly as the kernel handler would answer
/// it, ends its turn as a dispatched trap would, and execution goes on in
/// the next turn. The burst stops after an answered trap only at `max` or
/// when the collected batch is full, with [`SliceEnd::Answered`].
///
/// The scheduler uses this to amortise its per-turn round (runnable pick,
/// process-table lookup, clock and rusage bookkeeping) over whole compute
/// bursts when nothing — timer, wakeup, other runnable process, observer —
/// could preempt between turns.
#[allow(clippy::too_many_lines)]
pub fn run_burst_fused(
    vm: &mut VmState,
    mem: &mut AddressSpace,
    prog: &FusedProgram,
    slice: u64,
    max: u64,
    lane: Option<&TrapLane>,
    hits: &mut [u64; FUSED_KINDS],
) -> FusedBurst {
    let mut answers = LaneAnswers::default();
    if vm.halted {
        return FusedBurst {
            retired: 0,
            turns: 1,
            full_turns: 0,
            end_turn_retired: 0,
            end: SliceEnd::Halted,
            answers,
        };
    }
    let mut pc = vm.pc;
    let mut retired = 0u64;
    // Turn bookkeeping: the current turn expires when `retired` reaches
    // `turn_end`; `synced` counts constituents already recorded in
    // `vm.insns_retired` by split-pair fallbacks to `exec_insn`.
    let mut turns = 1u64;
    let mut full_turns = 0u64;
    let mut turn_start = 0u64;
    let mut turn_end = slice.min(max);
    let mut synced = 0u64;
    // Local hit counters, flushed into `hits` on every exit, so the hot
    // arms bump a register instead of writing through the borrow.
    let mut h = [0u64; FUSED_KINDS];
    // Local register file: masked constant-width indexing (decode
    // guarantees every register number is < NREGS) lets the host keep
    // registers in registers instead of re-checking bounds per access.
    let mut regs = vm.regs;
    macro_rules! reg {
        ($i:expr) => {
            regs[usize::from($i) & (NREGS - 1)]
        };
    }

    // Syncs the locals back into `vm` and returns. On a fault the pc stays
    // parked at the faulting (super)instruction, which at that point has
    // retired none of its constituents — identical to the plain engine.
    macro_rules! finish {
        ($end:expr) => {{
            vm.pc = pc;
            vm.regs = regs;
            vm.insns_retired += retired - synced;
            for (total, local) in hits.iter_mut().zip(h.iter()) {
                *total += local;
            }
            return FusedBurst {
                retired,
                turns,
                full_turns,
                end_turn_retired: retired - turn_start,
                end: $end,
                answers,
            };
        }};
    }
    macro_rules! memop {
        ($e:expr) => {
            match $e {
                Ok(v) => v,
                Err(_) => finish!(SliceEnd::Fault(Signal::SIGSEGV)),
            }
        };
    }
    // A retired `sys` (the pc already past it): the lane answers it and the
    // next turn begins, or the burst ends for the scheduler to dispatch it.
    macro_rules! trap {
        () => {{
            let nr = regs[SYS_NR_REG] as u32;
            let args = [regs[0], regs[1], regs[2], regs[3], regs[4], regs[5]];
            let Some(lane) = lane else {
                finish!(SliceEnd::Syscall { nr, args })
            };
            let Some(ret) = lane.answer(&mut answers, mem, nr, args, retired) else {
                finish!(SliceEnd::Syscall { nr, args })
            };
            apply_sysret_regs(&mut regs, ret);
            if retired >= max || lane.batch_full(&answers) {
                finish!(SliceEnd::Answered);
            }
            full_turns += u64::from(retired - turn_start == slice);
            turns += 1;
            turn_start = retired;
            turn_end = retired + slice.min(max - retired);
        }};
    }

    loop {
        // One headroom compare guards the whole cold edge: turn rollover
        // (no budget left) and pair splitting (one left). The hot path
        // falls through with at least two constituents of headroom, so the
        // dispatch arms below never re-check the budget.
        if turn_end - retired < 2 {
            if retired >= turn_end {
                // The turn expired: end the burst when the total budget is
                // spent, else roll straight into the next turn.
                if retired >= max {
                    finish!(SliceEnd::Expired);
                }
                full_turns += 1;
                turns += 1;
                turn_start = retired;
                turn_end = retired + slice.min(max - retired);
                continue;
            }
            // Exactly one constituent of budget left in this turn.
            let Some(&op) = prog.ops.get(pc as usize) else {
                finish!(SliceEnd::Fault(Signal::SIGSEGV));
            };
            if let Some(insn) = op.first_constituent() {
                // The turn's budget can't cover the pair: retire exactly
                // its first constituent through the reference stepper and
                // expire the turn — the same split point the plain engine's
                // slice hits.
                vm.pc = pc;
                vm.regs = regs;
                vm.insns_retired += retired - synced;
                synced = retired;
                match exec_insn(vm, mem, insn) {
                    StepEvent::Continue => {
                        // `exec_insn` advanced the pc and recorded the
                        // constituent; reload the locals and let the loop
                        // head roll the turn (or finish the burst).
                        retired += 1;
                        synced = retired;
                        pc = vm.pc;
                        regs = vm.regs;
                        continue;
                    }
                    StepEvent::Fault(sig) => finish!(SliceEnd::Fault(sig)),
                    StepEvent::Syscall { .. } | StepEvent::Halted => {
                        unreachable!("superinstructions never start with sys or halt")
                    }
                }
            }
            // A plain mirror with one budget left dispatches normally.
        }
        let Some(&op) = prog.ops.get(pc as usize) else {
            finish!(SliceEnd::Fault(Signal::SIGSEGV));
        };
        use FusedOp as F;
        match op {
            F::Li(rd, v) => {
                reg!(rd) = v;
                pc += 1;
                retired += 1;
            }
            F::Mov(rd, rs) => {
                reg!(rd) = reg!(rs);
                pc += 1;
                retired += 1;
            }
            F::Ld(rd, rs, off) => {
                let addr = reg!(rs).wrapping_add(off as u64);
                reg!(rd) = memop!(mem.read_u64(addr));
                pc += 1;
                retired += 1;
            }
            F::St(rd, rs, off) => {
                let addr = reg!(rd).wrapping_add(off as u64);
                memop!(mem.write_u64(addr, reg!(rs)));
                pc += 1;
                retired += 1;
            }
            F::Ldb(rd, rs, off) => {
                let addr = reg!(rs).wrapping_add(off as u64);
                reg!(rd) = u64::from(memop!(mem.read_u8(addr)));
                pc += 1;
                retired += 1;
            }
            F::Stb(rd, rs, off) => {
                let addr = reg!(rd).wrapping_add(off as u64);
                memop!(mem.write_u8(addr, reg!(rs) as u8));
                pc += 1;
                retired += 1;
            }
            F::Add(rd, a, b) => {
                reg!(rd) = reg!(a).wrapping_add(reg!(b));
                pc += 1;
                retired += 1;
            }
            F::Sub(rd, a, b) => {
                reg!(rd) = reg!(a).wrapping_sub(reg!(b));
                pc += 1;
                retired += 1;
            }
            F::Mul(rd, a, b) => {
                reg!(rd) = reg!(a).wrapping_mul(reg!(b));
                pc += 1;
                retired += 1;
            }
            F::Div(rd, a, b) => {
                let d = reg!(b);
                if d == 0 {
                    finish!(SliceEnd::Fault(Signal::SIGFPE));
                }
                reg!(rd) = reg!(a) / d;
                pc += 1;
                retired += 1;
            }
            F::Rem(rd, a, b) => {
                let d = reg!(b);
                if d == 0 {
                    finish!(SliceEnd::Fault(Signal::SIGFPE));
                }
                reg!(rd) = reg!(a) % d;
                pc += 1;
                retired += 1;
            }
            F::Addi(rd, rs, imm) => {
                reg!(rd) = reg!(rs).wrapping_add(imm as u64);
                pc += 1;
                retired += 1;
            }
            F::And(rd, a, b) => {
                reg!(rd) = reg!(a) & reg!(b);
                pc += 1;
                retired += 1;
            }
            F::Or(rd, a, b) => {
                reg!(rd) = reg!(a) | reg!(b);
                pc += 1;
                retired += 1;
            }
            F::Xor(rd, a, b) => {
                reg!(rd) = reg!(a) ^ reg!(b);
                pc += 1;
                retired += 1;
            }
            F::Shl(rd, a, b) => {
                reg!(rd) = reg!(a) << (reg!(b) & 63);
                pc += 1;
                retired += 1;
            }
            F::Shr(rd, a, b) => {
                reg!(rd) = reg!(a) >> (reg!(b) & 63);
                pc += 1;
                retired += 1;
            }
            F::Sltu(rd, a, b) => {
                reg!(rd) = u64::from(reg!(a) < reg!(b));
                pc += 1;
                retired += 1;
            }
            F::Slt(rd, a, b) => {
                reg!(rd) = u64::from((reg!(a) as i64) < (reg!(b) as i64));
                pc += 1;
                retired += 1;
            }
            F::Seq(rd, a, b) => {
                reg!(rd) = u64::from(reg!(a) == reg!(b));
                pc += 1;
                retired += 1;
            }
            F::Jmp(t) => {
                pc = t;
                retired += 1;
            }
            F::Jz(rs, t) => {
                pc = if reg!(rs) == 0 { t } else { pc + 1 };
                retired += 1;
            }
            F::Jnz(rs, t) => {
                pc = if reg!(rs) != 0 { t } else { pc + 1 };
                retired += 1;
            }
            F::Call(t) => {
                let sp = reg!(SP).wrapping_sub(8);
                memop!(mem.write_u64(sp, pc + 1));
                reg!(SP) = sp;
                pc = t;
                retired += 1;
            }
            F::Ret => {
                let sp = reg!(SP);
                let ra = memop!(mem.read_u64(sp));
                reg!(SP) = sp + 8;
                pc = ra;
                retired += 1;
            }
            F::Sys => {
                pc += 1;
                retired += 1;
                trap!();
            }
            F::Halt => {
                // `step` counts the halt in `insns_retired` but not in the
                // slice's `retired`, and leaves the pc on the halt.
                vm.halted = true;
                vm.insns_retired += 1;
                finish!(SliceEnd::Halted);
            }
            F::Nop => {
                pc += 1;
                retired += 1;
            }
            F::SeqJz { rd, a, b, t } => {
                let v = u64::from(reg!(a) == reg!(b));
                reg!(rd) = v;
                pc = if v == 0 { u64::from(t) } else { pc + 2 };
                retired += 2;
                h[FusedKind::CmpBranch as usize] += 1;
            }
            F::SeqJnz { rd, a, b, t } => {
                let v = u64::from(reg!(a) == reg!(b));
                reg!(rd) = v;
                pc = if v != 0 { u64::from(t) } else { pc + 2 };
                retired += 2;
                h[FusedKind::CmpBranch as usize] += 1;
            }
            F::SltuJz { rd, a, b, t } => {
                let v = u64::from(reg!(a) < reg!(b));
                reg!(rd) = v;
                pc = if v == 0 { u64::from(t) } else { pc + 2 };
                retired += 2;
                h[FusedKind::CmpBranch as usize] += 1;
            }
            F::SltuJnz { rd, a, b, t } => {
                let v = u64::from(reg!(a) < reg!(b));
                reg!(rd) = v;
                pc = if v != 0 { u64::from(t) } else { pc + 2 };
                retired += 2;
                h[FusedKind::CmpBranch as usize] += 1;
            }
            F::SltJz { rd, a, b, t } => {
                let v = u64::from((reg!(a) as i64) < (reg!(b) as i64));
                reg!(rd) = v;
                pc = if v == 0 { u64::from(t) } else { pc + 2 };
                retired += 2;
                h[FusedKind::CmpBranch as usize] += 1;
            }
            F::SltJnz { rd, a, b, t } => {
                let v = u64::from((reg!(a) as i64) < (reg!(b) as i64));
                reg!(rd) = v;
                pc = if v != 0 { u64::from(t) } else { pc + 2 };
                retired += 2;
                h[FusedKind::CmpBranch as usize] += 1;
            }
            F::AddiJz { rd, rs, imm, t } => {
                let v = reg!(rs).wrapping_add(imm as i64 as u64);
                reg!(rd) = v;
                pc = if v == 0 { u64::from(t) } else { pc + 2 };
                retired += 2;
                h[FusedKind::AddiBranch as usize] += 1;
            }
            F::AddiJnz { rd, rs, imm, t } => {
                let v = reg!(rs).wrapping_add(imm as i64 as u64);
                reg!(rd) = v;
                pc = if v != 0 { u64::from(t) } else { pc + 2 };
                retired += 2;
                h[FusedKind::AddiBranch as usize] += 1;
            }
            F::AddiJmp { rd, rs, imm, t } => {
                reg!(rd) = reg!(rs).wrapping_add(imm as i64 as u64);
                pc = u64::from(t);
                retired += 2;
                h[FusedKind::AddiJmp as usize] += 1;
            }
            F::LiSys(nr) => {
                regs[SYS_NR_REG] = nr;
                pc += 2;
                retired += 2;
                h[FusedKind::LiSys as usize] += 1;
                trap!();
            }
            F::LdAlu {
                alu,
                rd,
                rs,
                off,
                rd2,
                a,
                b,
            } => {
                let addr = reg!(rs).wrapping_add(off as i64 as u64);
                reg!(rd) = memop!(mem.read_u64(addr));
                let (x, y) = (reg!(a), reg!(b));
                reg!(rd2) = match alu {
                    Alu::Add => x.wrapping_add(y),
                    Alu::Sub => x.wrapping_sub(y),
                    Alu::Mul => x.wrapping_mul(y),
                    Alu::And => x & y,
                    Alu::Or => x | y,
                    Alu::Xor => x ^ y,
                };
                pc += 2;
                retired += 2;
                h[FusedKind::LdAlu as usize] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::Reg;
    use crate::machine::run_slice;
    use Insn::*;

    /// Runs `code` to completion (halt/fault) under both engines with the
    /// given slice budget, dispatching every trap with a canned `Ok([7, 0])`
    /// sysret, and asserts the full machine state and every slice result
    /// agree — the vm-level differential oracle.
    fn assert_engines_agree(code: &[Insn], budget: u64) -> [u64; FUSED_KINDS] {
        let prog = FusedProgram::fuse(code);
        let mut hits = [0u64; FUSED_KINDS];
        let mut vm_p = VmState::new(0, 4096);
        let mut mem_p = AddressSpace::new(4096, 64);
        let mut vm_f = VmState::new(0, 4096);
        let mut mem_f = AddressSpace::new(4096, 64);
        for turn in 0..100_000 {
            let rp = run_slice(&mut vm_p, &mut mem_p, code, budget);
            let rf = run_slice_fused(&mut vm_f, &mut mem_f, &prog, budget, &mut hits);
            assert_eq!(
                rp, rf,
                "slice result diverged at turn {turn} (budget {budget})"
            );
            assert_eq!(
                vm_p, vm_f,
                "vm state diverged at turn {turn} (budget {budget})"
            );
            for addr in (0..4096).step_by(8) {
                assert_eq!(
                    mem_p.read_u64(addr),
                    mem_f.read_u64(addr),
                    "memory diverged at {addr} on turn {turn}"
                );
            }
            match rp.end {
                SliceEnd::Expired => {}
                SliceEnd::Syscall { .. } => {
                    vm_p.apply_sysret(Ok([7, 0]));
                    vm_f.apply_sysret(Ok([7, 0]));
                }
                SliceEnd::Halted | SliceEnd::Fault(_) => return hits,
                SliceEnd::Answered => unreachable!("no lane"),
            }
        }
        panic!("program did not finish in 100k turns");
    }

    fn diff_all_budgets(code: &[Insn]) -> [u64; FUSED_KINDS] {
        let mut last = [0; FUSED_KINDS];
        for budget in [1, 2, 3, 5, 7, 100] {
            last = assert_engines_agree(code, budget);
        }
        last
    }

    /// The BENCH_1 compute loop: countdown with an `addi`+`jmp` back edge.
    fn compute_loop(iters: u64) -> Vec<Insn> {
        vec![
            Li(13, iters),
            Jz(13, 4),
            Addi(13, 13, -1),
            Jmp(1),
            Li(7, 1), // exit
            Sys,
            Halt,
        ]
    }

    #[test]
    fn fusion_finds_the_expected_sites() {
        let prog = FusedProgram::fuse(&compute_loop(10));
        // addi+jmp back edge and li r7 + sys both fuse.
        assert_eq!(prog.sites()[FusedKind::AddiJmp as usize], 1);
        assert_eq!(prog.sites()[FusedKind::LiSys as usize], 1);
        assert_eq!(prog.fused_sites(), 2);
        assert_eq!(
            prog.op_at(2),
            Some(FusedOp::AddiJmp {
                rd: 13,
                rs: 13,
                imm: -1,
                t: 1
            })
        );
        assert_eq!(prog.op_at(4), Some(FusedOp::LiSys(1)));
        // The slot after a pair start still holds its own plain mirror.
        assert_eq!(prog.op_at(3), Some(FusedOp::Jmp(1)));
        assert_eq!(prog.op_at(5), Some(FusedOp::Sys));
    }

    #[test]
    fn li_to_other_register_does_not_fuse_with_sys() {
        let prog = FusedProgram::fuse(&[Li(0, 1), Sys, Halt]);
        assert_eq!(prog.fused_sites(), 0);
        assert_eq!(prog.op_at(0), Some(FusedOp::Li(0, 1)));
    }

    #[test]
    fn out_of_range_fields_fall_back_to_plain() {
        // Branch target beyond u32 and an addi immediate beyond i32.
        let prog = FusedProgram::fuse(&[
            Seq(1, 2, 3),
            Jz(1, u64::from(u32::MAX) + 1),
            Addi(4, 4, i64::from(i32::MAX) + 1),
            Jmp(0),
        ]);
        assert_eq!(prog.fused_sites(), 0);
    }

    #[test]
    fn compute_loop_agrees_and_counts_hits() {
        let hits = diff_all_budgets(&compute_loop(37));
        assert!(hits[FusedKind::AddiJmp as usize] > 0);
    }

    #[test]
    fn cmp_branch_families_agree() {
        type Cmp = fn(Reg, Reg, Reg) -> Insn;
        type Br = fn(Reg, u64) -> Insn;
        let families: [(Cmp, Br); 6] = [
            (Seq, Jz),
            (Seq, Jnz),
            (Sltu, Jz),
            (Sltu, Jnz),
            (Slt, Jz),
            (Slt, Jnz),
        ];
        for (cmp, j) in families {
            // Count r12 from 0 to 9, comparing against r11 = 5 each lap so
            // both branch outcomes of every family are exercised.
            let code = [
                Li(11, 5),
                Li(10, 9),
                Li(12, 0),
                cmp(1, 12, 11),
                j(1, 6),
                Nop,
                Addi(12, 12, 1),
                Seq(2, 12, 10),
                Jnz(2, 10),
                Jmp(3),
                Halt,
            ];
            let hits = diff_all_budgets(&code);
            assert!(hits[FusedKind::CmpBranch as usize] > 0);
        }
    }

    #[test]
    fn addi_branch_countdown_agrees() {
        let code = [Li(13, 8), Addi(13, 13, -1), Jnz(13, 1), Halt];
        let hits = diff_all_budgets(&code);
        assert!(hits[FusedKind::AddiBranch as usize] > 0);
    }

    #[test]
    fn trap_loop_agrees() {
        // getpid-style trap loop: li r7 + sys fused, dispatched per trap.
        let code = [Li(13, 6), Li(7, 2), Sys, Addi(13, 13, -1), Jnz(13, 1), Halt];
        let hits = diff_all_budgets(&code);
        assert!(hits[FusedKind::LiSys as usize] > 0);
    }

    #[test]
    fn ld_alu_agrees_including_fault() {
        // Sum a 4-word array at 64, then fault on a wild load+add pair.
        let code = [
            Li(1, 64),
            Li(2, 0), // sum
            Li(3, 4), // remaining
            Ld(4, 1, 0),
            Add(2, 2, 4),
            Addi(1, 1, 8),
            Addi(3, 3, -1),
            Jnz(3, 3),
            Li(1, 1 << 40),
            Ld(4, 1, 0),
            Add(2, 2, 4),
            Halt,
        ];
        let mut seed_mem = AddressSpace::new(4096, 64);
        for (i, v) in [3u64, 5, 7, 11].iter().enumerate() {
            seed_mem.write_u64(64 + 8 * i as u64, *v).unwrap();
        }
        // Differential harness with its own memory: write the array via code
        // instead, to keep both sides identical.
        let mut full = vec![
            Li(1, 64),
            Li(5, 3),
            St(1, 5, 0),
            Li(5, 5),
            St(1, 5, 8),
            Li(5, 7),
            St(1, 5, 16),
            Li(5, 11),
            St(1, 5, 24),
        ];
        full.extend_from_slice(&code);
        // Fix up jump targets shifted by the 9-insn prologue.
        for insn in &mut full[9..] {
            if let Jnz(r, t) = *insn {
                *insn = Jnz(r, t + 9);
            }
        }
        let hits = diff_all_budgets(&full);
        assert!(hits[FusedKind::LdAlu as usize] > 0);
    }

    #[test]
    fn branch_into_the_middle_of_a_pair_agrees() {
        // `jmp 3` lands on the `jmp` half of the fused addi+jmp at index 2.
        let code = [
            Li(13, 3),
            Jz(13, 6),
            Addi(13, 13, -1),
            Jmp(1),
            Nop,
            Jmp(3), // never reached in this program shape, but fused view must hold
            Halt,
        ];
        let prog = FusedProgram::fuse(&code);
        assert!(matches!(prog.op_at(2), Some(FusedOp::AddiJmp { .. })));
        assert_eq!(prog.op_at(3), Some(FusedOp::Jmp(1)));
        diff_all_budgets(&code);
        // And a program that actually enters at the pair's second half.
        let enter_mid = [
            Li(13, 2),
            Jmp(4), // jump straight to the `jmp` inside the pair below
            Addi(13, 13, -1),
            Jz(13, 6),
            Jmp(2),
            Nop,
            Halt,
        ];
        diff_all_budgets(&enter_mid);
    }

    #[test]
    fn division_by_zero_and_call_ret_agree() {
        let code = [
            Li(0, 10),
            Call(5),
            Li(1, 0),
            Div(2, 0, 1),
            Halt,
            Addi(0, 0, 1),
            Ret,
        ];
        diff_all_budgets(&code);
    }

    #[test]
    fn halt_counts_like_the_plain_engine() {
        let prog = FusedProgram::fuse(&[Halt]);
        let mut vm = VmState::new(0, 256);
        let mut mem = AddressSpace::new(256, 0);
        let mut hits = [0; FUSED_KINDS];
        let r = run_slice_fused(&mut vm, &mut mem, &prog, 100, &mut hits);
        assert_eq!(
            r,
            SliceResult {
                retired: 0,
                end: SliceEnd::Halted
            }
        );
        assert_eq!(vm.insns_retired, 1, "halt retires in insns_retired only");
        // A halted machine stays halted and retires nothing further.
        let r2 = run_slice_fused(&mut vm, &mut mem, &prog, 100, &mut hits);
        assert_eq!(
            r2,
            SliceResult {
                retired: 0,
                end: SliceEnd::Halted
            }
        );
        assert_eq!(vm.insns_retired, 1);
    }

    /// The directed slice-boundary test: a superinstruction pair that
    /// straddles the budget must split, retiring exactly the first
    /// constituent — identical clock charge to the plain engine.
    #[test]
    fn superinstruction_split_at_slice_boundary_charges_identically() {
        // pc 0..=2 are nops; the fused addi+jmp pair starts at pc 3.
        let code = [Nop, Nop, Nop, Addi(13, 13, 5), Jmp(0)];
        let prog = FusedProgram::fuse(&code);
        assert!(matches!(prog.op_at(3), Some(FusedOp::AddiJmp { .. })));

        let mut vm = VmState::new(0, 256);
        let mut mem = AddressSpace::new(256, 0);
        let mut hits = [0; FUSED_KINDS];
        // Budget 4: three nops + only the addi half of the pair.
        let r = run_slice_fused(&mut vm, &mut mem, &prog, 4, &mut hits);
        assert_eq!(
            r,
            SliceResult {
                retired: 4,
                end: SliceEnd::Expired
            }
        );
        assert_eq!(vm.pc, 4, "pc parked on the jmp half");
        assert_eq!(vm.regs[13], 5, "addi half executed");
        assert_eq!(vm.insns_retired, 4);
        assert_eq!(hits, [0; FUSED_KINDS], "a split pair is not a fusion hit");

        // The plain engine lands in the identical state.
        let mut vm_p = VmState::new(0, 256);
        let mut mem_p = AddressSpace::new(256, 0);
        let rp = run_slice(&mut vm_p, &mut mem_p, &code, 4);
        assert_eq!(rp, r);
        assert_eq!(vm_p, vm);

        // Resuming finishes the pair: the jmp half retires on its own.
        let r2 = run_slice_fused(&mut vm, &mut mem, &prog, 1, &mut hits);
        let rp2 = run_slice(&mut vm_p, &mut mem_p, &code, 1);
        assert_eq!(r2, rp2);
        assert_eq!(vm, vm_p);
        assert_eq!(vm.pc, 0);
    }

    #[test]
    fn split_pair_with_faulting_first_constituent_agrees() {
        // Wild ld+add pair at pc 1; budget 2 forces the split path, where
        // the ld faults through the reference stepper.
        let code = [Nop, Ld(4, 9, 1 << 30), Add(2, 2, 4), Halt];
        let prog = FusedProgram::fuse(&code);
        assert!(matches!(prog.op_at(1), Some(FusedOp::LdAlu { .. })));
        let mut vm = VmState::new(0, 256);
        let mut mem = AddressSpace::new(256, 0);
        let mut hits = [0; FUSED_KINDS];
        let r = run_slice_fused(&mut vm, &mut mem, &prog, 2, &mut hits);
        assert_eq!(
            r,
            SliceResult {
                retired: 1,
                end: SliceEnd::Fault(Signal::SIGSEGV)
            }
        );
        assert_eq!(vm.pc, 1, "pc parked on the faulting load");
        assert_eq!(vm.insns_retired, 1);
        let mut vm_p = VmState::new(0, 256);
        let mut mem_p = AddressSpace::new(256, 0);
        assert_eq!(run_slice(&mut vm_p, &mut mem_p, &code, 2), r);
        assert_eq!(vm_p, vm);
    }

    #[test]
    fn running_off_the_end_faults_identically() {
        diff_all_budgets(&[Nop, Nop]);
    }

    /// Runs `code` to the first non-`Expired` end under (a) one
    /// [`run_burst_fused`] call and (b) a loop of [`run_slice_fused`]
    /// turns, asserting identical machine state, totals, hit counters and
    /// turn counts — the burst-vs-turns oracle.
    fn assert_burst_matches_turn_loop(code: &[Insn], slice: u64, max: u64) {
        let prog = FusedProgram::fuse(code);

        let mut vm_b = VmState::new(0, 4096);
        let mut mem_b = AddressSpace::new(4096, 64);
        let mut hits_b = [0u64; FUSED_KINDS];
        let burst = run_burst_fused(&mut vm_b, &mut mem_b, &prog, slice, max, None, &mut hits_b);

        let mut vm_t = VmState::new(0, 4096);
        let mut mem_t = AddressSpace::new(4096, 64);
        let mut hits_t = [0u64; FUSED_KINDS];
        let mut retired = 0u64;
        let mut turns = 0u64;
        let last = loop {
            let budget = slice.min(max - retired);
            let r = run_slice_fused(&mut vm_t, &mut mem_t, &prog, budget, &mut hits_t);
            retired += r.retired;
            turns += 1;
            if r.end != SliceEnd::Expired || retired >= max {
                break r;
            }
        };

        assert_eq!(burst.retired, retired, "total retired diverged");
        assert_eq!(burst.turns, turns, "turn count diverged");
        assert_eq!(burst.end, last.end, "end event diverged");
        assert_eq!(burst.end_turn_retired, last.retired, "final turn diverged");
        assert_eq!(hits_b, hits_t, "fusion hit counters diverged");
        assert_eq!(vm_b, vm_t, "vm state diverged");
        for addr in (0..4096).step_by(8) {
            assert_eq!(mem_b.read_u64(addr), mem_t.read_u64(addr));
        }
    }

    #[test]
    fn burst_matches_a_loop_of_single_turns() {
        // 7 constituents per lap (co-prime with slice 100), so fused pairs
        // straddle turn boundaries and exercise the mid-burst split path.
        let code = [
            Li(13, 5000),
            Ld(4, 14, 64),
            Add(4, 4, 13),
            Addi(13, 13, -1),
            Jnz(13, 1),
            Li(7, 1),
            Sys,
            Halt,
        ];
        assert_burst_matches_turn_loop(&code, 100, u64::MAX);
        // Odd slice lengths shift the boundary phase.
        assert_burst_matches_turn_loop(&code, 7, u64::MAX);
        assert_burst_matches_turn_loop(&code, 3, u64::MAX);
    }

    #[test]
    fn burst_step_budget_cuts_off_mid_run_like_the_turn_loop() {
        let code = [Li(13, 900), Addi(13, 13, -1), Jnz(13, 1), Halt];
        // Budgets that end mid-turn, on a turn edge, and mid-split-pair.
        for max in [1, 2, 99, 100, 101, 150, 199, 200, 1000] {
            assert_burst_matches_turn_loop(&code, 100, max);
        }
    }

    #[test]
    fn burst_to_halt_counts_turns_and_the_trailing_pseudo_step() {
        let code = [Li(13, 149), Addi(13, 13, -1), Jnz(13, 1), Halt];
        let prog = FusedProgram::fuse(&code);
        let mut vm = VmState::new(0, 256);
        let mut mem = AddressSpace::new(256, 0);
        let mut hits = [0u64; FUSED_KINDS];
        let b = run_burst_fused(&mut vm, &mut mem, &prog, 100, u64::MAX, None, &mut hits);
        // 1 li + 149 fused countdown pairs = 299 retired over three turns.
        assert_eq!(b.retired, 299);
        assert_eq!(b.turns, 3);
        assert_eq!(b.end_turn_retired, 99);
        assert_eq!(b.end, SliceEnd::Halted);
        assert!(vm.halted);
        assert_eq!(vm.insns_retired, 300, "halt adds the pseudo-step");
    }
}
