//! The trap lane folded into the fused burst, against a `step` loop that
//! answers `getpid`/`gettimeofday` by hand: for slices 1..=8 and a spread
//! of step budgets, every burst must leave the same machine and memory and
//! report the same retired count, turns, full turns, end and answers.

use ia_abi::{Errno, SysResult, Sysno, Timeval, Timezone};
use ia_vm::fuse::{run_burst_fused, FusedBurst, FusedProgram};
use ia_vm::machine::{
    step, BatchCall, FastMode, FastSpec, LaneAnswers, SliceEnd, StepEvent, TrapLane, VmState,
};
use ia_vm::{AddressSpace, Insn, FUSED_KINDS};
use Insn::*;

const GETPID: u64 = Sysno::Getpid as u64;
const GTOD: u64 = Sysno::Gettimeofday as u64;

fn lane(spec: FastSpec, clock_base_ns: u64) -> TrapLane {
    TrapLane {
        spec,
        pid: 42,
        insn_ns: 5_000,
        clock_base_ns,
        epoch_secs: 1_000,
        getpid_cost_ns: 25_000,
        gtod_cost_ns: 47_000,
    }
}

/// The folded lane's reference: [`step`] cut into turns the way the
/// scheduler cuts them, answering `getpid`/`gettimeofday` by hand as
/// the kernel handler would, and ending where the burst must end.
fn lane_reference(
    vm: &mut VmState,
    mem: &mut AddressSpace,
    code: &[Insn],
    lane: &TrapLane,
    slice: u64,
    max: u64,
) -> FusedBurst {
    let mut b = FusedBurst {
        retired: 0,
        turns: 1,
        full_turns: 0,
        end_turn_retired: 0,
        end: SliceEnd::Expired,
        answers: LaneAnswers::default(),
    };
    let mut turn = 0;
    let mut budget = slice.min(max);
    let mut batch = (lane.spec.pending_nr, u64::from(lane.spec.pending_len));
    let end = loop {
        if turn == budget {
            if b.retired >= max {
                break SliceEnd::Expired;
            }
            b.full_turns += 1;
            b.turns += 1;
            turn = 0;
            budget = slice.min(max - b.retired);
            continue;
        }
        let (nr, args) = match step(vm, mem, code) {
            StepEvent::Continue => {
                turn += 1;
                b.retired += 1;
                continue;
            }
            StepEvent::Halted => break SliceEnd::Halted,
            StepEvent::Fault(sig) => break SliceEnd::Fault(sig),
            StepEvent::Syscall { nr, args } => (nr, args),
        };
        turn += 1;
        b.retired += 1;
        let mode = match u64::from(nr) {
            GETPID => lane.spec.getpid,
            GTOD => lane.spec.gtod,
            _ => FastMode::Off,
        };
        let foreign_batch = batch.0.is_some_and(|b| b != nr);
        if mode == FastMode::Off || mode == FastMode::Collect && foreign_batch {
            break SliceEnd::Syscall { nr, args };
        }
        let ret: SysResult = if u64::from(nr) == GETPID {
            b.answers.cost_ns += lane.getpid_cost_ns;
            Ok([lane.pid, 0])
        } else {
            b.answers.cost_ns += lane.gtod_cost_ns;
            let ns = lane.clock_base_ns + b.retired * lane.insn_ns + b.answers.cost_ns;
            let tv = Timeval {
                sec: lane.epoch_secs + (ns / 1_000_000_000) as i64,
                usec: ((ns % 1_000_000_000) / 1_000) as i64,
            };
            let tv_ok = args[0] == 0 || mem.write_struct(args[0], &tv).is_ok();
            let tz_ok =
                !tv_ok || args[1] == 0 || mem.write_struct(args[1], &Timezone::default()).is_ok();
            if tv_ok && tz_ok {
                Ok([0, 0])
            } else {
                Err(Errno::EFAULT)
            }
        };
        vm.apply_sysret(ret);
        match (mode, u64::from(nr)) {
            (FastMode::Collect, _) => {
                b.answers.collected.push(BatchCall { args, ret });
                b.answers.collected_nr = nr;
                batch = (Some(nr), batch.1 + 1);
            }
            (_, GETPID) => b.answers.direct_getpid += 1,
            _ => b.answers.direct_gtod += 1,
        }
        let full = mode == FastMode::Collect && batch.1 >= u64::from(lane.spec.batch_cap);
        if b.retired >= max || full {
            break SliceEnd::Answered;
        }
        b.full_turns += u64::from(turn == slice);
        b.turns += 1;
        turn = 0;
        budget = slice.min(max - b.retired);
    };
    b.end_turn_retired = turn;
    b.end = end;
    b
}

/// Runs `code` to halt or fault as a sequence of bursts with `spec`'s
/// lane, against the reference, for slices 1..=8 and a spread of step
/// budgets: every burst must agree on the machine, memory, totals,
/// turns and answers. Unanswered traps get a canned result on both
/// sides. Returns the total traps answered.
fn assert_lane_matches_step_loop(code: &[Insn], spec: FastSpec) -> u64 {
    let prog = FusedProgram::fuse(code);
    let mut answered = 0;
    for slice in 1..=8 {
        for max in [1, 2, 3, 4, 5, 7, 9, 16, 33, 1_000] {
            let mut vm_b = VmState::new(0, 4096);
            let mut mem_b = AddressSpace::new(4096, 64);
            let mut vm_r = vm_b.clone();
            let mut mem_r = mem_b.clone();
            let mut hits = [0; FUSED_KINDS];
            let mut clock = 0;
            for round in 0..10_000 {
                let l = lane(spec, clock);
                let b = run_burst_fused(
                    &mut vm_b,
                    &mut mem_b,
                    &prog,
                    slice,
                    max,
                    Some(&l),
                    &mut hits,
                );
                let r = lane_reference(&mut vm_r, &mut mem_r, code, &l, slice, max);
                let at = format!("slice {slice} max {max} round {round}");
                assert_eq!(b, r, "burst diverged at {at}");
                assert_eq!(vm_b, vm_r, "machine diverged at {at}");
                for addr in (0..4096).step_by(8) {
                    assert_eq!(mem_b.read_u64(addr), mem_r.read_u64(addr), "{at}");
                }
                answered += b.answers.count();
                clock += b.retired * l.insn_ns + b.answers.cost_ns;
                match b.end {
                    SliceEnd::Halted | SliceEnd::Fault(_) => break,
                    SliceEnd::Syscall { .. } => {
                        vm_b.apply_sysret(Ok([7, 0]));
                        vm_r.apply_sysret(Ok([7, 0]));
                    }
                    SliceEnd::Expired | SliceEnd::Answered => {}
                }
            }
        }
    }
    answered
}

#[test]
fn lane_answers_fused_and_split_traps_like_the_step_loop() {
    // `li r7,getpid; sys` fuses, and slice phases split it so the sys
    // also arrives as a plain `Sys`; a foreign trap ends each lap.
    let code = [
        Li(13, 6),
        Li(7, GETPID),
        Sys,
        Li(7, 4),
        Sys,
        Addi(13, 13, -1),
        Jnz(13, 1),
        Halt,
    ];
    assert!(assert_lane_matches_step_loop(&code, FastSpec::DIRECT) > 0);
    // A bare `sys` with r7 set once outside the loop.
    let bare = [
        Li(7, GETPID),
        Li(13, 5),
        Sys,
        Addi(13, 13, -1),
        Jnz(13, 2),
        Halt,
    ];
    assert!(assert_lane_matches_step_loop(&bare, FastSpec::DIRECT) > 0);
    // With the table off nothing is answered.
    assert_eq!(assert_lane_matches_step_loop(&bare, FastSpec::OFF), 0);
}

#[test]
fn lane_gettimeofday_writes_and_faults_like_the_step_loop() {
    let code = [
        Li(0, 1 << 40), // bad tv: EFAULT
        Li(1, 0),
        Li(7, GTOD),
        Sys,
        Li(0, 64), // good tv and a tz
        Li(1, 128),
        Li(7, GTOD),
        Sys,
        Li(0, 64), // good tv, bad tz: EFAULT after the tv write
        Li(1, 1 << 40),
        Li(7, GTOD),
        Sys,
        Mov(9, 1), // keep the errno of the last answer
        Halt,
    ];
    assert!(assert_lane_matches_step_loop(&code, FastSpec::DIRECT) > 0);
    let collect_gtod = FastSpec {
        gtod: FastMode::Collect,
        ..FastSpec::DIRECT
    };
    assert!(assert_lane_matches_step_loop(&code, collect_gtod) > 0);
}

#[test]
fn lane_collects_bails_at_the_cap_and_traps_out_on_a_foreign_batch() {
    let code = [
        Li(13, 12),
        Li(7, GETPID),
        Sys,
        Addi(13, 13, -1),
        Jnz(13, 1),
        Halt,
    ];
    // Pending batch of getpid: collect until pending + collected = cap.
    let cap = FastSpec {
        getpid: FastMode::Collect,
        gtod: FastMode::Off,
        pending_nr: Some(GETPID as u32),
        pending_len: 2,
        batch_cap: 5,
    };
    assert!(assert_lane_matches_step_loop(&code, cap) > 0);
    let prog = FusedProgram::fuse(&code);
    let mut vm = VmState::new(0, 4096);
    let mut mem = AddressSpace::new(4096, 64);
    let b = run_burst_fused(
        &mut vm,
        &mut mem,
        &prog,
        100,
        1_000,
        Some(&lane(cap, 0)),
        &mut [0; FUSED_KINDS],
    );
    assert_eq!(b.end, SliceEnd::Answered);
    assert_eq!(
        b.answers.collected.len(),
        3,
        "pending 2 + 3 collected = cap 5"
    );
    assert!(b.answers.collected.iter().all(|c| c.ret == Ok([42, 0])));
    // A batch of another number pending: getpid must trap out.
    let foreign = FastSpec {
        pending_nr: Some(GTOD as u32),
        ..cap
    };
    assert_eq!(assert_lane_matches_step_loop(&code, foreign), 0);
    let mut vm = VmState::new(0, 4096);
    let b = run_burst_fused(
        &mut vm,
        &mut mem,
        &prog,
        100,
        1_000,
        Some(&lane(foreign, 0)),
        &mut [0; FUSED_KINDS],
    );
    assert!(matches!(b.end, SliceEnd::Syscall { nr, .. } if u64::from(nr) == GETPID));
}

#[test]
fn lane_halt_or_fault_right_after_an_answer() {
    let halt = [Li(7, GETPID), Sys, Halt];
    assert!(assert_lane_matches_step_loop(&halt, FastSpec::DIRECT) > 0);
    let fault = [Li(3, 0), Li(7, GETPID), Sys, Div(2, 0, 3), Halt];
    assert!(assert_lane_matches_step_loop(&fault, FastSpec::DIRECT) > 0);
}

#[test]
fn lane_stops_at_the_step_limit_on_an_answered_trap() {
    // Budget 2 ends exactly on the fused `li r7; sys` pair's trap.
    let code = [Li(7, GETPID), Sys, Jmp(0)];
    let prog = FusedProgram::fuse(&code);
    let mut vm = VmState::new(0, 4096);
    let mut mem = AddressSpace::new(4096, 64);
    let l = lane(FastSpec::DIRECT, 0);
    let b = run_burst_fused(
        &mut vm,
        &mut mem,
        &prog,
        100,
        2,
        Some(&l),
        &mut [0; FUSED_KINDS],
    );
    assert_eq!((b.retired, b.end), (2, SliceEnd::Answered));
    assert_eq!(b.answers.direct_getpid, 1);
    assert_eq!(vm.regs[0], 42);
    assert_lane_matches_step_loop(&code[..2], FastSpec::DIRECT);
}
