//! The interpreter: registers, stepping, traps and faults — plus the trap
//! lane's answer table ([`FastSpec`], [`TrapLane`]), with which the fused
//! burst answers stateless read-mostly calls (`getpid`, `gettimeofday`)
//! without ever leaving the VM loop.

use ia_abi::{RawArgs, Signal, SysResult, Sysno, Timeval, Timezone};

use crate::insn::{Insn, NREGS, SP};
use crate::mem::AddressSpace;

/// Register carrying the syscall number at a `Sys` trap.
pub const SYS_NR_REG: usize = 7;
/// Register receiving the first result of a syscall.
pub const SYSRET_RV0: usize = 0;
/// Register receiving the errno (0 on success).
pub const SYSRET_ERRNO: usize = 1;
/// Register receiving the second result (`rv[1]`).
pub const SYSRET_RV1: usize = 2;

/// The CPU state of one process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmState {
    /// General-purpose registers. `regs[15]` is the stack pointer.
    pub regs: [u64; NREGS],
    /// Program counter: index into the code segment.
    pub pc: u64,
    /// Set once the machine halts; stepping a halted machine is a no-op.
    pub halted: bool,
    /// Instructions retired, for the virtual clock and `getrusage`.
    pub insns_retired: u64,
}

impl VmState {
    /// A machine at `entry` with the stack pointer at the top of `mem_size`.
    #[must_use]
    pub fn new(entry: u64, mem_size: usize) -> VmState {
        let mut regs = [0u64; NREGS];
        regs[SP as usize] = mem_size as u64;
        VmState {
            regs,
            pc: entry,
            halted: false,
            insns_retired: 0,
        }
    }

    /// Applies a syscall result to the return registers, the inverse of the
    /// trap: `r0 ← rv[0]`, `r1 ← errno` (0 on success), `r2 ← rv[1]`.
    pub fn apply_sysret(&mut self, res: SysResult) {
        apply_sysret_regs(&mut self.regs, res);
    }

    /// The trap arguments at a `Sys` instruction: `(number, r0..r5)`.
    #[must_use]
    pub fn trap_args(&self) -> (u32, RawArgs) {
        (
            self.regs[SYS_NR_REG] as u32,
            [
                self.regs[0],
                self.regs[1],
                self.regs[2],
                self.regs[3],
                self.regs[4],
                self.regs[5],
            ],
        )
    }
}

/// [`VmState::apply_sysret`] on a bare register file.
pub(crate) fn apply_sysret_regs(regs: &mut [u64; NREGS], res: SysResult) {
    let (rv0, errno, rv1) = match res {
        Ok([rv0, rv1]) => (rv0, 0, rv1),
        Err(e) => (u64::MAX, u64::from(e.code()), 0),
    };
    regs[SYSRET_RV0] = rv0;
    regs[SYSRET_ERRNO] = errno;
    regs[SYSRET_RV1] = rv1;
}

/// The observable outcome of executing one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// Ordinary instruction retired.
    Continue,
    /// The program executed `Sys`; the kernel must dispatch `(nr, args)`
    /// and then `apply_sysret`. The pc has already advanced past the trap.
    Syscall {
        /// Raw syscall number from `r7`.
        nr: u32,
        /// Raw argument registers `r0..r5`.
        args: RawArgs,
    },
    /// The program executed `Halt`.
    Halted,
    /// The program faulted; the kernel posts this signal.
    Fault(Signal),
}

/// Why a [`run_slice`] call stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceEnd {
    /// The instruction budget ran out mid-program; the process is still
    /// runnable and the scheduler should round-robin.
    Expired,
    /// The program trapped with `Sys`; the trap instruction is included in
    /// [`SliceResult::retired`]. The kernel must dispatch and `apply_sysret`.
    Syscall {
        /// Raw syscall number from `r7`.
        nr: u32,
        /// Raw argument registers `r0..r5`.
        args: RawArgs,
    },
    /// The program executed `Halt` (not counted in `retired`).
    Halted,
    /// The program faulted (not counted in `retired`); the kernel posts
    /// this signal with the pc parked on the faulting instruction.
    Fault(Signal),
    /// Only from a fused burst with a [`TrapLane`]: the final turn ended in
    /// a trap the lane answered, and the burst stopped there — at the step
    /// allowance, or at the batch capacity so the router can flush. Nothing
    /// is left to dispatch.
    Answered,
}

/// Outcome of running a bounded burst of instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceResult {
    /// Instructions retired this burst — exactly the events the kernel
    /// charges to the virtual clock (`Continue`s plus a trailing `Sys`).
    pub retired: u64,
    /// Why the burst ended.
    pub end: SliceEnd,
}

/// Executes up to `max` instructions in a tight loop, returning to the
/// caller only on a trap, halt, fault, or an exhausted budget.
///
/// This is the interpreter's hot path: the scheduler calls it once per
/// time slice instead of calling [`step`] per instruction, so `vm`, `mem`
/// and `code` stay borrowed (and hot in registers) across the whole burst
/// and the virtual clock can be advanced once by `retired` — bit-identical
/// to `retired` separate advances, since the per-instruction charge is a
/// constant number of nanoseconds.
pub fn run_slice(vm: &mut VmState, mem: &mut AddressSpace, code: &[Insn], max: u64) -> SliceResult {
    let mut retired = 0u64;
    while retired < max {
        match step(vm, mem, code) {
            StepEvent::Continue => retired += 1,
            StepEvent::Syscall { nr, args } => {
                retired += 1;
                return SliceResult {
                    retired,
                    end: SliceEnd::Syscall { nr, args },
                };
            }
            StepEvent::Halted => {
                return SliceResult {
                    retired,
                    end: SliceEnd::Halted,
                }
            }
            StepEvent::Fault(sig) => {
                return SliceResult {
                    retired,
                    end: SliceEnd::Fault(sig),
                }
            }
        }
    }
    SliceResult {
        retired,
        end: SliceEnd::Expired,
    }
}

/// Executes one instruction.
///
/// On [`StepEvent::Fault`] the pc is left *at* the faulting instruction so
/// a handler installed for the signal can inspect it; the kernel's default
/// action terminates the process anyway.
#[inline]
pub fn step(vm: &mut VmState, mem: &mut AddressSpace, code: &[Insn]) -> StepEvent {
    if vm.halted {
        return StepEvent::Halted;
    }
    let Some(&insn) = code.get(vm.pc as usize) else {
        return StepEvent::Fault(Signal::SIGSEGV);
    };
    exec_insn(vm, mem, insn)
}

/// Executes one already-fetched instruction at the current pc — the body of
/// [`step`] after the fetch. Also the reference semantics the fused engine
/// falls back to when the slice budget cannot cover a whole superinstruction
/// pair, so both paths retire a split pair through the same code.
#[inline]
pub(crate) fn exec_insn(vm: &mut VmState, mem: &mut AddressSpace, insn: Insn) -> StepEvent {
    let next_pc = vm.pc + 1;
    vm.insns_retired += 1;

    macro_rules! fault {
        ($sig:expr) => {{
            vm.insns_retired -= 1;
            return StepEvent::Fault($sig);
        }};
    }
    macro_rules! memop {
        ($e:expr) => {
            match $e {
                Ok(v) => v,
                Err(_) => fault!(Signal::SIGSEGV),
            }
        };
    }

    use Insn::*;
    match insn {
        Li(rd, v) => vm.regs[rd as usize] = v,
        Mov(rd, rs) => vm.regs[rd as usize] = vm.regs[rs as usize],
        Ld(rd, rs, off) => {
            let addr = vm.regs[rs as usize].wrapping_add(off as u64);
            vm.regs[rd as usize] = memop!(mem.read_u64(addr));
        }
        St(rd, rs, off) => {
            let addr = vm.regs[rd as usize].wrapping_add(off as u64);
            memop!(mem.write_u64(addr, vm.regs[rs as usize]));
        }
        Ldb(rd, rs, off) => {
            let addr = vm.regs[rs as usize].wrapping_add(off as u64);
            vm.regs[rd as usize] = u64::from(memop!(mem.read_u8(addr)));
        }
        Stb(rd, rs, off) => {
            let addr = vm.regs[rd as usize].wrapping_add(off as u64);
            memop!(mem.write_u8(addr, vm.regs[rs as usize] as u8));
        }
        Add(rd, a, b) => {
            vm.regs[rd as usize] = vm.regs[a as usize].wrapping_add(vm.regs[b as usize])
        }
        Sub(rd, a, b) => {
            vm.regs[rd as usize] = vm.regs[a as usize].wrapping_sub(vm.regs[b as usize])
        }
        Mul(rd, a, b) => {
            vm.regs[rd as usize] = vm.regs[a as usize].wrapping_mul(vm.regs[b as usize])
        }
        Div(rd, a, b) => {
            let d = vm.regs[b as usize];
            if d == 0 {
                fault!(Signal::SIGFPE);
            }
            vm.regs[rd as usize] = vm.regs[a as usize] / d;
        }
        Rem(rd, a, b) => {
            let d = vm.regs[b as usize];
            if d == 0 {
                fault!(Signal::SIGFPE);
            }
            vm.regs[rd as usize] = vm.regs[a as usize] % d;
        }
        Addi(rd, rs, imm) => vm.regs[rd as usize] = vm.regs[rs as usize].wrapping_add(imm as u64),
        And(rd, a, b) => vm.regs[rd as usize] = vm.regs[a as usize] & vm.regs[b as usize],
        Or(rd, a, b) => vm.regs[rd as usize] = vm.regs[a as usize] | vm.regs[b as usize],
        Xor(rd, a, b) => vm.regs[rd as usize] = vm.regs[a as usize] ^ vm.regs[b as usize],
        Shl(rd, a, b) => vm.regs[rd as usize] = vm.regs[a as usize] << (vm.regs[b as usize] & 63),
        Shr(rd, a, b) => vm.regs[rd as usize] = vm.regs[a as usize] >> (vm.regs[b as usize] & 63),
        Sltu(rd, a, b) => {
            vm.regs[rd as usize] = u64::from(vm.regs[a as usize] < vm.regs[b as usize])
        }
        Slt(rd, a, b) => {
            vm.regs[rd as usize] =
                u64::from((vm.regs[a as usize] as i64) < (vm.regs[b as usize] as i64))
        }
        Seq(rd, a, b) => {
            vm.regs[rd as usize] = u64::from(vm.regs[a as usize] == vm.regs[b as usize])
        }
        Jmp(t) => {
            vm.pc = t;
            return StepEvent::Continue;
        }
        Jz(rs, t) => {
            vm.pc = if vm.regs[rs as usize] == 0 {
                t
            } else {
                next_pc
            };
            return StepEvent::Continue;
        }
        Jnz(rs, t) => {
            vm.pc = if vm.regs[rs as usize] != 0 {
                t
            } else {
                next_pc
            };
            return StepEvent::Continue;
        }
        Call(t) => {
            let sp = vm.regs[SP as usize].wrapping_sub(8);
            memop!(mem.write_u64(sp, next_pc));
            vm.regs[SP as usize] = sp;
            vm.pc = t;
            return StepEvent::Continue;
        }
        Ret => {
            let sp = vm.regs[SP as usize];
            let ra = memop!(mem.read_u64(sp));
            vm.regs[SP as usize] = sp + 8;
            vm.pc = ra;
            return StepEvent::Continue;
        }
        Sys => {
            vm.pc = next_pc;
            let (nr, args) = vm.trap_args();
            return StepEvent::Syscall { nr, args };
        }
        Halt => {
            vm.halted = true;
            return StepEvent::Halted;
        }
        Nop => {}
    }
    vm.pc = next_pc;
    StepEvent::Continue
}

/// One fast-answered trap recorded for a deferred vectored upcall: the raw
/// argument registers at the trap and the result that was applied to the
/// return registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchCall {
    /// Raw argument registers `r0..r5` at the trap.
    pub args: RawArgs,
    /// The kernel's result, already applied via [`VmState::apply_sysret`].
    pub ret: SysResult,
}

/// How the trap lane may answer one syscall number for one process — an
/// entry in the per-process vDSO-style answer table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FastMode {
    /// Not answerable in the loop; trap out to the ordinary dispatcher.
    #[default]
    Off,
    /// Answer in the loop with no agent involvement (pay-per-use bypass).
    Direct,
    /// Answer in the loop *and* record a [`BatchCall`] so interested
    /// agents later receive one vectored upcall for the whole burst.
    Collect,
}

/// The per-process answer table for the trap lane — the router's verdict
/// on which fast-answerable numbers may be answered inside the VM loop for
/// one process, computed from the installed agent chain at burst entry
/// (and therefore invalidated for free on any chain mutation: the next
/// burst recomputes it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastSpec {
    /// How `getpid` may be answered.
    pub getpid: FastMode,
    /// How `gettimeofday` may be answered.
    pub gtod: FastMode,
    /// Syscall number of the router's pending vectored batch, if any.
    pub pending_nr: Option<u32>,
    /// Calls already in the router's pending batch.
    pub pending_len: u32,
    /// The router's batch capacity (flush threshold).
    pub batch_cap: u32,
}

impl FastSpec {
    /// Everything off: never answer in the loop.
    pub const OFF: FastSpec = FastSpec {
        getpid: FastMode::Off,
        gtod: FastMode::Off,
        pending_nr: None,
        pending_len: 0,
        batch_cap: u32::MAX,
    };

    /// Everything answered directly with no agent involvement.
    pub const DIRECT: FastSpec = FastSpec {
        getpid: FastMode::Direct,
        gtod: FastMode::Direct,
        pending_nr: None,
        pending_len: 0,
        batch_cap: u32::MAX,
    };

    /// True when at least one number is answerable, i.e. the lane can
    /// make progress.
    #[must_use]
    pub fn lane_enabled(&self) -> bool {
        self.getpid != FastMode::Off || self.gtod != FastMode::Off
    }
}

/// The trap lane of one fused burst (DESIGN §11): the answer table plus
/// everything an in-loop answer depends on, so the burst can answer a trap
/// exactly as the kernel handler would after an ordinary scheduler round.
#[derive(Debug, Clone, Copy)]
pub struct TrapLane {
    /// Which numbers may be answered, and the router's pending batch.
    pub spec: FastSpec,
    /// The process id — the `getpid` answer.
    pub pid: u64,
    /// Virtual nanoseconds charged per retired instruction.
    pub insn_ns: u64,
    /// Virtual-clock reading (elapsed ns) at burst entry.
    pub clock_base_ns: u64,
    /// Virtual epoch in seconds, added to `gettimeofday` answers.
    pub epoch_secs: i64,
    /// Base virtual cost of one `getpid`, from the machine profile.
    pub getpid_cost_ns: u64,
    /// Base virtual cost of one `gettimeofday`, from the machine profile.
    pub gtod_cost_ns: u64,
}

/// The traps a [`TrapLane`] answered during one burst, in the scheduler's
/// units: the totals the equivalent ordinary dispatches would have charged.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LaneAnswers {
    /// Total virtual syscall cost charged (`sys_ns` and clock).
    pub cost_ns: u64,
    /// `getpid` traps answered in [`FastMode::Direct`].
    pub direct_getpid: u64,
    /// `gettimeofday` traps answered in [`FastMode::Direct`].
    pub direct_gtod: u64,
    /// Calls answered in [`FastMode::Collect`], for the router to absorb.
    pub collected: Vec<BatchCall>,
    /// Syscall number of `collected` (meaningful when non-empty).
    pub collected_nr: u32,
}

impl LaneAnswers {
    /// Traps answered (each is one syscall and one voluntary switch).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.direct_getpid + self.direct_gtod + self.collected.len() as u64
    }
}

impl TrapLane {
    /// Answers trap `nr` in the loop if the table allows it, recording the
    /// answer in `answers`; `None` leaves the trap to the dispatcher.
    /// `retired` counts the burst's instructions so far, the trap included.
    ///
    /// `gettimeofday` reads `clock_base_ns + retired·insn_ns + cost`, where
    /// `cost` includes this call's: the scheduler charges a turn's
    /// instructions before dispatching its trap, and the handler charges
    /// the call's base cost before reading the clock.
    pub(crate) fn answer(
        &self,
        answers: &mut LaneAnswers,
        mem: &mut AddressSpace,
        nr: u32,
        args: RawArgs,
        retired: u64,
    ) -> Option<SysResult> {
        let getpid = nr == Sysno::Getpid.number();
        let mode = if getpid {
            self.spec.getpid
        } else if nr == Sysno::Gettimeofday.number() {
            self.spec.gtod
        } else {
            FastMode::Off
        };
        let batch_nr = if answers.collected.is_empty() {
            self.spec.pending_nr
        } else {
            Some(answers.collected_nr)
        };
        // Extending a batch of another number would need a flush at this
        // exact clock point: leave that to the router on the slow path.
        if mode == FastMode::Off || mode == FastMode::Collect && batch_nr.is_some_and(|b| b != nr) {
            return None;
        }
        answers.cost_ns += if getpid {
            self.getpid_cost_ns
        } else {
            self.gtod_cost_ns
        };
        let ret = if getpid {
            Ok([self.pid, 0])
        } else {
            let vns = self.clock_base_ns + retired * self.insn_ns + answers.cost_ns;
            let now = Timeval {
                sec: self.epoch_secs + (vns / 1_000_000_000) as i64,
                usec: ((vns % 1_000_000_000) / 1_000) as i64,
            };
            let write = |mem: &mut AddressSpace| {
                if args[0] != 0 {
                    mem.write_struct(args[0], &now)?;
                }
                if args[1] != 0 {
                    mem.write_struct(args[1], &Timezone::default())?;
                }
                Ok([0, 0])
            };
            write(mem)
        };
        if mode == FastMode::Collect {
            answers.collected.push(BatchCall { args, ret });
            answers.collected_nr = nr;
        } else if getpid {
            answers.direct_getpid += 1;
        } else {
            answers.direct_gtod += 1;
        }
        Some(ret)
    }

    /// True once the collected calls fill the router's batch: the burst
    /// must stop so the router delivers the vectored upcall at the same
    /// virtual-clock point as the slow path.
    #[must_use]
    pub(crate) fn batch_full(&self, answers: &LaneAnswers) -> bool {
        !answers.collected.is_empty()
            && u64::from(self.spec.pending_len) + answers.collected.len() as u64
                >= u64::from(self.spec.batch_cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::AddressSpace;
    use Insn::*;

    fn run(code: &[Insn], max: usize) -> (VmState, AddressSpace, StepEvent) {
        let mut vm = VmState::new(0, 4096);
        let mut mem = AddressSpace::new(4096, 0);
        let mut last = StepEvent::Continue;
        for _ in 0..max {
            last = step(&mut vm, &mut mem, code);
            if last != StepEvent::Continue {
                break;
            }
        }
        (vm, mem, last)
    }

    #[test]
    fn arithmetic_basics() {
        let code = [
            Li(0, 10),
            Li(1, 3),
            Add(2, 0, 1),
            Sub(3, 0, 1),
            Mul(4, 0, 1),
            Div(5, 0, 1),
            Rem(6, 0, 1),
            Halt,
        ];
        let (vm, _, ev) = run(&code, 100);
        assert_eq!(ev, StepEvent::Halted);
        assert_eq!(vm.regs[2], 13);
        assert_eq!(vm.regs[3], 7);
        assert_eq!(vm.regs[4], 30);
        assert_eq!(vm.regs[5], 3);
        assert_eq!(vm.regs[6], 1);
    }

    #[test]
    fn division_by_zero_faults_sigfpe() {
        let code = [Li(0, 1), Li(1, 0), Div(2, 0, 1)];
        let (vm, _, ev) = run(&code, 10);
        assert_eq!(ev, StepEvent::Fault(Signal::SIGFPE));
        assert_eq!(vm.pc, 2, "pc parked on the faulting instruction");
    }

    #[test]
    fn memory_load_store() {
        let code = [
            Li(0, 0xfeed),
            Li(1, 128),
            St(1, 0, 8), // mem[136] = 0xfeed
            Ld(2, 1, 8),
            Halt,
        ];
        let (vm, mem, _) = run(&code, 10);
        assert_eq!(vm.regs[2], 0xfeed);
        assert_eq!(mem.read_u64(136).unwrap(), 0xfeed);
    }

    #[test]
    fn wild_store_faults_sigsegv() {
        let code = [Li(0, 1), Li(1, 1 << 40), St(1, 0, 0)];
        let (_, _, ev) = run(&code, 10);
        assert_eq!(ev, StepEvent::Fault(Signal::SIGSEGV));
    }

    #[test]
    fn running_off_the_code_faults() {
        let code = [Nop];
        let (_, _, ev) = run(&code, 10);
        assert_eq!(ev, StepEvent::Fault(Signal::SIGSEGV));
    }

    #[test]
    fn branches_and_loop() {
        // Sum 1..=5 with a countdown loop.
        let code = [
            Li(0, 5),     // i = 5
            Li(1, 0),     // acc
            Jz(0, 6),     // while i != 0
            Add(1, 1, 0), //   acc += i
            Addi(0, 0, -1),
            Jmp(2),
            Halt,
        ];
        let (vm, _, ev) = run(&code, 100);
        assert_eq!(ev, StepEvent::Halted);
        assert_eq!(vm.regs[1], 15);
    }

    #[test]
    fn call_and_ret_use_the_stack() {
        let code = [
            Call(3), // -> proc
            Li(5, 99),
            Halt,
            Li(4, 7), // proc:
            Ret,
        ];
        let (vm, _, ev) = run(&code, 20);
        assert_eq!(ev, StepEvent::Halted);
        assert_eq!(vm.regs[4], 7);
        assert_eq!(vm.regs[5], 99);
        assert_eq!(vm.regs[SP as usize], 4096, "stack balanced");
    }

    #[test]
    fn sys_raises_trap_with_args_and_advances_pc() {
        let code = [Li(7, 116), Li(0, 11), Li(1, 22), Sys, Halt];
        let mut vm = VmState::new(0, 4096);
        let mut mem = AddressSpace::new(4096, 0);
        let mut ev = StepEvent::Continue;
        while ev == StepEvent::Continue {
            ev = step(&mut vm, &mut mem, &code);
        }
        assert_eq!(
            ev,
            StepEvent::Syscall {
                nr: 116,
                args: [11, 22, 0, 0, 0, 0]
            }
        );
        assert_eq!(vm.pc, 4, "pc past the trap, ready to resume");
        vm.apply_sysret(Ok([5, 6]));
        assert_eq!(vm.regs[0], 5);
        assert_eq!(vm.regs[1], 0);
        assert_eq!(vm.regs[2], 6);
        vm.apply_sysret(Err(ia_abi::Errno::ENOENT));
        assert_eq!(vm.regs[0], u64::MAX);
        assert_eq!(vm.regs[1], 2);
    }

    #[test]
    fn halted_machine_stays_halted() {
        let code = [Halt];
        let mut vm = VmState::new(0, 4096);
        let mut mem = AddressSpace::new(4096, 0);
        assert_eq!(step(&mut vm, &mut mem, &code), StepEvent::Halted);
        assert_eq!(step(&mut vm, &mut mem, &code), StepEvent::Halted);
        assert_eq!(vm.insns_retired, 1);
    }

    #[test]
    fn run_slice_matches_step_by_step() {
        // A loop with a trap in the middle: slice execution must retire
        // exactly the instructions the per-step loop charges, and park the
        // machine in the same state.
        let code = [
            Li(7, 20), // getpid-ish number
            Li(0, 5),  // i = 5
            Jz(0, 7),
            Sys,
            Addi(0, 0, -1),
            Jmp(2),
            Nop,
            Halt,
        ];
        let mut a = VmState::new(0, 4096);
        let mut am = AddressSpace::new(4096, 0);
        let mut b = VmState::new(0, 4096);
        let mut bm = AddressSpace::new(4096, 0);
        let mut a_charged = 0u64;
        let mut b_charged = 0u64;
        loop {
            // Reference: the old per-instruction loop.
            let ev = step(&mut a, &mut am, &code);
            match ev {
                StepEvent::Continue | StepEvent::Syscall { .. } => a_charged += 1,
                _ => {}
            }
            if let StepEvent::Syscall { .. } = ev {
                a.apply_sysret(Ok([1, 0]));
            }
            if matches!(ev, StepEvent::Halted | StepEvent::Fault(_)) {
                break;
            }
        }
        loop {
            let r = run_slice(&mut b, &mut bm, &code, 3);
            b_charged += r.retired;
            match r.end {
                SliceEnd::Syscall { .. } => b.apply_sysret(Ok([1, 0])),
                SliceEnd::Expired => {}
                SliceEnd::Halted | SliceEnd::Fault(_) => break,
                SliceEnd::Answered => unreachable!("run_slice has no lane"),
            }
        }
        assert_eq!(a_charged, b_charged);
        assert_eq!(a, b);
    }

    #[test]
    fn run_slice_stops_on_budget_trap_halt_and_fault() {
        let code = [Nop, Nop, Nop, Nop, Halt];
        let mut vm = VmState::new(0, 4096);
        let mut mem = AddressSpace::new(4096, 0);
        let r = run_slice(&mut vm, &mut mem, &code, 2);
        assert_eq!(r.retired, 2);
        assert_eq!(r.end, SliceEnd::Expired);
        let r = run_slice(&mut vm, &mut mem, &code, 100);
        assert_eq!(r.retired, 2, "halt not counted");
        assert_eq!(r.end, SliceEnd::Halted);

        let code = [Li(7, 9), Sys, Halt];
        let mut vm = VmState::new(0, 4096);
        let r = run_slice(&mut vm, &mut mem, &code, 100);
        assert_eq!(r.retired, 2, "trap instruction counted");
        assert!(matches!(r.end, SliceEnd::Syscall { nr: 9, .. }));

        let code = [Li(0, 1), Li(1, 0), Div(2, 0, 1)];
        let mut vm = VmState::new(0, 4096);
        let r = run_slice(&mut vm, &mut mem, &code, 100);
        assert_eq!(r.retired, 2, "faulting instruction not counted");
        assert_eq!(r.end, SliceEnd::Fault(Signal::SIGFPE));
        assert_eq!(vm.pc, 2, "pc parked on the faulting instruction");
    }

    #[test]
    fn comparison_ops() {
        let code = [
            Li(0, 5),
            Li(1, u64::MAX), // -1 signed
            Sltu(2, 0, 1),   // 5 < huge (unsigned) = 1
            Slt(3, 1, 0),    // -1 < 5 (signed) = 1
            Seq(4, 0, 0),
            Halt,
        ];
        let (vm, _, _) = run(&code, 10);
        assert_eq!(vm.regs[2], 1);
        assert_eq!(vm.regs[3], 1);
        assert_eq!(vm.regs[4], 1);
    }
}
