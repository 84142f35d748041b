//! The scheduler: runs processes, dispatches traps through a pluggable
//! router, delivers signals, and manages blocking.
//!
//! The [`SyscallRouter`] trait is the seam where interposition attaches.
//! With [`KernelRouter`] every trap goes straight to the kernel — Figure
//! 1-1 of the paper. The `ia-interpose` crate provides a router that sends
//! registered traps through per-process agent chains first — Figures 1-2
//! through 1-4.
//!
//! Two schedulers share all trap/signal machinery:
//!
//! * [`run`] — the hot path. Each turn executes a whole slice with the
//!   process borrowed once, charges the virtual clock once by the batched
//!   retired count (bit-identical to per-insn charging, since the
//!   per-instruction cost is a constant), and finds the next process /
//!   next deadline through the kernel's runnable set and timer heaps
//!   instead of scanning every process. Its one production execution loop
//!   is [`run_burst_fused`]: when nothing can preempt it runs many turns
//!   per call, and with the fast path on its trap lane answers `getpid` /
//!   `gettimeofday` in the loop from the router's [`FastSpec`] (DESIGN
//!   §11). `Engine::Plain` runs one [`run_slice`] turn per round with no
//!   lane — the differential reference.
//! * [`run_legacy`] — the original per-instruction, scan-everything loop,
//!   kept verbatim as the reference implementation. The differential
//!   tests in `crates/bench` run workloads under both and require
//!   identical virtual-clock totals, console output and syscall counts;
//!   `reproduce --json` uses it as the measured baseline.

use std::cmp::Reverse;

use ia_abi::signal::{DefaultAction, SigDisposition, Signal};
use ia_abi::types::SigContext;
use ia_abi::wire::Wire;
use ia_abi::{Errno, RawArgs, Sysno};
use ia_vm::fuse::{run_burst_fused, FusedBurst, FUSED_KINDS};
pub use ia_vm::machine::FastSpec;
use ia_vm::machine::{run_slice, step, BatchCall, LaneAnswers, SliceEnd, StepEvent, TrapLane};

use crate::kernel::{Engine, Kernel, SysOutcome, WakeEvent};
use crate::process::{PendingTrap, Pid, ProcState, WaitChannel};

/// Instructions per scheduling slice.
pub const SLICE: u32 = 100;

/// How a trap reaches an implementation of the system interface.
pub trait SyscallRouter {
    /// Dispatches one trap. `restarts` counts how many times this same
    /// logical call has already been dispatched and blocked (0 on first
    /// delivery) — interposition layers use it to avoid double-counting
    /// restarted calls. The default route is the kernel itself.
    fn route(
        &mut self,
        k: &mut Kernel,
        pid: Pid,
        nr: u32,
        args: RawArgs,
        restarts: u32,
    ) -> SysOutcome;

    /// Filters a signal about to be delivered to the application — the
    /// *upward* interposition path. Returning `false` consumes the signal
    /// without delivering it.
    fn filter_signal(&mut self, _k: &mut Kernel, _pid: Pid, _sig: Signal) -> bool {
        true
    }

    /// Notification that a process has terminated (for per-process state
    /// cleanup, e.g. agent chains).
    fn on_process_exit(&mut self, _k: &mut Kernel, _pid: Pid) {}

    /// The trap lane's answer table for `pid`, consulted at each fused
    /// burst entry. The conservative default keeps everything on the
    /// ordinary dispatch path.
    fn fast_spec(&mut self, _k: &Kernel, _pid: Pid) -> FastSpec {
        FastSpec::OFF
    }

    /// Notification that `count` traps of `nr` from `pid` were answered
    /// in-loop in [`FastMode::Direct`] — the router reconciles its
    /// pay-per-use counters so fast and slow runs report identically.
    fn note_fast_direct(&mut self, _k: &mut Kernel, _pid: Pid, _nr: u32, _count: u64) {}

    /// Hands the router the calls answered in-loop in [`FastMode::Collect`]
    /// so it can extend (and, at capacity, flush) its pending vectored
    /// batch exactly as if each call had been routed individually.
    fn absorb_batch(&mut self, _k: &mut Kernel, _pid: Pid, _nr: u32, _calls: &[BatchCall]) {}
}

/// The identity router: every trap goes directly to the kernel.
#[derive(Debug, Default, Clone, Copy)]
pub struct KernelRouter;

impl SyscallRouter for KernelRouter {
    fn route(
        &mut self,
        k: &mut Kernel,
        pid: Pid,
        nr: u32,
        args: RawArgs,
        _restarts: u32,
    ) -> SysOutcome {
        k.syscall(pid, nr, args)
    }

    fn fast_spec(&mut self, _k: &Kernel, _pid: Pid) -> FastSpec {
        // No agents anywhere: fast-answerable numbers are always direct.
        FastSpec::DIRECT
    }
}

/// Limits on one `run` invocation.
#[derive(Debug, Clone, Copy)]
pub struct RunLimits {
    /// Maximum instructions (across all processes) before giving up.
    pub max_steps: u64,
}

impl Default for RunLimits {
    fn default() -> Self {
        RunLimits {
            max_steps: 2_000_000_000,
        }
    }
}

/// Why `run` returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every process has exited.
    AllExited,
    /// Runnable work exists but the step limit was reached.
    StepLimit,
    /// Processes remain but all are blocked with nothing to wake them.
    Deadlock {
        /// The blocked pids, in ascending order.
        blocked: Vec<Pid>,
    },
    /// Only stopped processes remain (awaiting an external `SIGCONT`).
    Stalled,
}

/// Runs the system until every process exits (or a limit/deadlock).
///
/// Each turn borrows the chosen process once and executes a whole slice
/// through [`run_slice`]; accounting (virtual clock, `user_insns`, total
/// instruction count) is charged once per slice by the batched retired
/// count. Scheduling decisions read the kernel's maintained runnable set
/// and deadline heaps, so a turn costs O(log procs) rather than O(procs).
pub fn run<R: SyscallRouter>(k: &mut Kernel, router: &mut R, limits: RunLimits) -> RunOutcome {
    let mut steps: u64 = 0;
    let mut last_pid: Pid = 0;
    loop {
        k.perf.sched_iterations += 1;
        fire_timers(k);
        apply_wakeups(k);

        let Some(pid) = pick_runnable(k, last_pid) else {
            // Nobody runnable: maybe time just needs to pass.
            if let Some(deadline) = earliest_deadline(k) {
                let now = k.clock.elapsed_ns();
                if deadline > now {
                    k.clock.advance_ns(deadline - now);
                    k.perf.idle_advances += 1;
                }
                fire_timers(k);
                apply_wakeups(k);
                wake_expired_selects(k);
                continue;
            }
            let blocked: Vec<Pid> = k
                .blocked_queue
                .iter()
                .copied()
                .filter(|pid| {
                    matches!(
                        k.procs.get(pid).map(|p| p.state),
                        Some(ProcState::Blocked(_))
                    )
                })
                .collect();
            if !blocked.is_empty() {
                return RunOutcome::Deadlock { blocked };
            }
            if k.procs
                .values()
                .any(|p| matches!(p.state, ProcState::Stopped))
            {
                return RunOutcome::Stalled;
            }
            return RunOutcome::AllExited;
        };
        last_pid = pid;

        // Deliver one pending signal before the process runs.
        deliver_signals(k, router, pid);
        if !is_runnable(k, pid) {
            continue;
        }

        // A restarted trap takes precedence over stepping the machine.
        if let Some(trap) = k.procs.get(&pid).and_then(|p| p.pending_trap) {
            k.procs.get_mut(&pid).expect("exists").pending_trap = None;
            dispatch(k, router, pid, trap.nr, trap.args, trap.restarts + 1);
            steps += 1;
            if steps >= limits.max_steps {
                return RunOutcome::StepLimit;
            }
            continue;
        }

        // Run one slice as a single burst. The budget never exceeds the
        // remaining step allowance, so the legacy mid-slice limit check
        // falls out of the `Expired` arm below.
        //
        // When nothing could preempt between turns — fused engine, a single
        // runnable process, no armed timer or timed select, no pending
        // wakeup, observability off — the whole stretch runs as one
        // [`run_burst_fused`] call of back-to-back turns, and with the fast
        // path on its trap lane answers the traps the router's table covers
        // inside the loop. Per-turn slice boundaries, pair splits and
        // accounting are preserved exactly; only the per-turn scheduler
        // round (and, for answered traps, the dispatcher) is amortised.
        let remaining = limits.max_steps.saturating_sub(steps).max(1);
        let fused_engine = k.engine == Engine::Fused;
        let burst_ok = fused_engine
            && k.run_queue.len() == 1
            && k.timer_heap.is_empty()
            && k.select_heap.is_empty()
            && k.wakeups.is_empty()
            && !k.obs.is_enabled();
        let lane = if burst_ok && k.fast_path {
            let spec = router.fast_spec(k, pid);
            spec.lane_enabled().then(|| TrapLane {
                spec,
                pid: u64::from(pid),
                insn_ns: k.profile.insn_ns,
                clock_base_ns: k.clock.elapsed_ns(),
                epoch_secs: k.clock.epoch_secs(),
                getpid_cost_ns: k.profile.syscall_base_ns(Sysno::Getpid),
                gtod_cost_ns: k.profile.syscall_base_ns(Sysno::Gettimeofday),
            })
        } else {
            None
        };
        let max = if burst_ok {
            remaining
        } else {
            u64::from(SLICE).min(remaining)
        };
        let Some(p) = k.procs.get_mut(&pid) else {
            steps += 1;
            if steps >= limits.max_steps {
                return limit_outcome(k);
            }
            continue;
        };
        let mut fuse_hits = [0u64; FUSED_KINDS];
        let b = if fused_engine {
            run_burst_fused(
                &mut p.vm,
                &mut p.mem,
                &p.fused,
                u64::from(SLICE),
                max,
                lane.as_ref(),
                &mut fuse_hits,
            )
        } else {
            let r = run_slice(&mut p.vm, &mut p.mem, &p.code, max);
            FusedBurst {
                retired: r.retired,
                turns: 1,
                full_turns: 0,
                end_turn_retired: r.retired,
                end: r.end,
                answers: LaneAnswers::default(),
            }
        };
        let answered = b.answers.count();
        p.usage.user_insns += b.retired;
        p.usage.sys_ns += b.answers.cost_ns;
        p.usage.nsyscalls += answered;
        p.usage.nvcsw += answered;
        // Every completed turn before the burst's final one that filled its
        // slice charges one involuntary switch, as its own round would.
        p.usage.nivcsw += b.full_turns;
        if fused_engine {
            k.fusion_stats.add(&fuse_hits);
        }
        k.perf.slices += b.turns;
        k.perf.sched_iterations += b.turns - 1;
        k.total_insns += b.retired;
        k.total_syscalls += answered;
        k.clock
            .advance_ns(b.retired * k.profile.insn_ns + b.answers.cost_ns);
        k.obs.slice(pid, b.retired, k.clock.elapsed_ns());
        if answered > 0 {
            settle_answers(k, router, pid, &b.answers);
        }

        // A trailing halt or fault consumed a scheduler step without
        // retiring an instruction (the legacy loop counted the attempt).
        let iterations =
            b.end_turn_retired + u64::from(matches!(b.end, SliceEnd::Halted | SliceEnd::Fault(_)));
        steps += (b.retired - b.end_turn_retired) + iterations;
        let full_slice = iterations == u64::from(SLICE);

        match b.end {
            SliceEnd::Expired => {
                if steps >= limits.max_steps {
                    // The legacy loop returned from inside the slice here,
                    // before the involuntary-switch accounting.
                    return RunOutcome::StepLimit;
                }
                if let Some(p) = k.procs.get_mut(&pid) {
                    p.usage.nivcsw += 1;
                }
                continue;
            }
            SliceEnd::Syscall { nr, args } => {
                dispatch(k, router, pid, nr, args, 0);
            }
            SliceEnd::Halted => {
                // Halt is treated as exit(r0): convenient for small
                // hand-written programs and tests.
                let status = k
                    .procs
                    .get(&pid)
                    .map(|p| (p.vm.regs[0] & 0xff) as u8)
                    .unwrap_or(0);
                k.terminate(pid, ia_abi::signal::wait_status_exited(status));
                router.on_process_exit(k, pid);
            }
            SliceEnd::Fault(sig) => {
                handle_fault(k, router, pid, sig);
            }
            SliceEnd::Answered => {}
        }
        if full_slice {
            if let Some(p) = k.procs.get_mut(&pid) {
                p.usage.nivcsw += 1;
            }
        }
        if steps >= limits.max_steps {
            return limit_outcome(k);
        }
    }
}

/// The original per-instruction scheduler, kept as the reference
/// implementation: one [`step`] per loop iteration, full process-table
/// scans for picking, timers and wakeups. Differential tests assert that
/// [`run`] is observationally identical to this; `reproduce --json`
/// measures it as the baseline.
pub fn run_legacy<R: SyscallRouter>(
    k: &mut Kernel,
    router: &mut R,
    limits: RunLimits,
) -> RunOutcome {
    let mut steps: u64 = 0;
    let mut last_pid: Pid = 0;
    loop {
        fire_timers_legacy(k);
        apply_wakeups_legacy(k);

        let Some(pid) = pick_runnable_legacy(k, last_pid) else {
            // Nobody runnable: maybe time just needs to pass.
            if let Some(deadline) = earliest_deadline_legacy(k) {
                let now = k.clock.elapsed_ns();
                if deadline > now {
                    k.clock.advance_ns(deadline - now);
                }
                fire_timers_legacy(k);
                apply_wakeups_legacy(k);
                wake_expired_selects_legacy(k);
                continue;
            }
            let mut blocked: Vec<Pid> = k
                .procs
                .values()
                .filter(|p| matches!(p.state, ProcState::Blocked(_)))
                .map(|p| p.pid)
                .collect();
            blocked.sort_unstable();
            if !blocked.is_empty() {
                return RunOutcome::Deadlock { blocked };
            }
            if k.procs
                .values()
                .any(|p| matches!(p.state, ProcState::Stopped))
            {
                return RunOutcome::Stalled;
            }
            return RunOutcome::AllExited;
        };
        last_pid = pid;

        // Deliver one pending signal before the process runs.
        deliver_signals(k, router, pid);
        if !is_runnable(k, pid) {
            continue;
        }

        // A restarted trap takes precedence over stepping the machine.
        if let Some(trap) = k.procs.get(&pid).and_then(|p| p.pending_trap) {
            k.procs.get_mut(&pid).expect("exists").pending_trap = None;
            dispatch(k, router, pid, trap.nr, trap.args, trap.restarts + 1);
            steps += 1;
            if steps >= limits.max_steps {
                return RunOutcome::StepLimit;
            }
            continue;
        }

        // Run one slice, an instruction at a time.
        let mut slice = SLICE;
        while slice > 0 {
            slice -= 1;
            steps += 1;
            let Some(p) = k.procs.get_mut(&pid) else {
                break;
            };
            let code = p.code.clone();
            let ev = step(&mut p.vm, &mut p.mem, &code);
            match ev {
                StepEvent::Continue => {
                    p.usage.user_insns += 1;
                    k.total_insns += 1;
                    k.clock.advance_ns(k.profile.insn_ns);
                }
                StepEvent::Syscall { nr, args } => {
                    p.usage.user_insns += 1;
                    k.total_insns += 1;
                    k.clock.advance_ns(k.profile.insn_ns);
                    dispatch(k, router, pid, nr, args, 0);
                    break; // end of turn after a trap
                }
                StepEvent::Halted => {
                    // Halt is treated as exit(r0): convenient for small
                    // hand-written programs and tests.
                    let status = (p.vm.regs[0] & 0xff) as u8;
                    k.terminate(pid, ia_abi::signal::wait_status_exited(status));
                    router.on_process_exit(k, pid);
                    break;
                }
                StepEvent::Fault(sig) => {
                    handle_fault(k, router, pid, sig);
                    break;
                }
            }
            if steps >= limits.max_steps {
                return RunOutcome::StepLimit;
            }
        }
        if slice == 0 {
            if let Some(p) = k.procs.get_mut(&pid) {
                p.usage.nivcsw += 1;
            }
        }
        if steps >= limits.max_steps {
            return limit_outcome(k);
        }
    }
}

/// Hands the router what the trap lane answered in a burst — the
/// pay-per-use counters of direct answers and the collected batch, which it
/// absorbs (and, at capacity, flushes) as if each call had been routed —
/// and records the hits.
fn settle_answers<R: SyscallRouter>(k: &mut Kernel, router: &mut R, pid: Pid, a: &LaneAnswers) {
    for (nr, n) in [
        (Sysno::Getpid, a.direct_getpid),
        (Sysno::Gettimeofday, a.direct_gtod),
    ] {
        if n > 0 {
            k.fast_stats.note_hits(pid, nr.number(), n);
            router.note_fast_direct(k, pid, nr.number(), n);
        }
    }
    if !a.collected.is_empty() {
        k.fast_stats
            .note_hits(pid, a.collected_nr, a.collected.len() as u64);
        router.absorb_batch(k, pid, a.collected_nr, &a.collected);
    }
}

/// Step-limit epilogue shared by both schedulers: only give up if there is
/// really still work to do.
fn limit_outcome(k: &Kernel) -> RunOutcome {
    if k.procs
        .values()
        .any(|p| matches!(p.state, ProcState::Runnable | ProcState::Blocked(_)))
    {
        return RunOutcome::StepLimit;
    }
    RunOutcome::AllExited
}

fn is_runnable(k: &Kernel, pid: Pid) -> bool {
    matches!(
        k.procs.get(&pid).map(|p| p.state),
        Some(ProcState::Runnable)
    )
}

/// Dispatches one trap through the router and applies the outcome — every
/// trap except those the fused burst's lane answered in the loop.
#[inline(never)]
fn dispatch<R: SyscallRouter>(
    k: &mut Kernel,
    router: &mut R,
    pid: Pid,
    nr: u32,
    args: RawArgs,
    restarts: u32,
) {
    k.perf.trap_dispatches += 1;
    if nr == Sysno::Getpid.number() || nr == Sysno::Gettimeofday.number() {
        // A fast-answerable number took the ordinary path (fast path off,
        // plain engine, burst gate closed, a table entry off, a batch-number
        // change, or a legacy run): a miss.
        k.fast_stats.note_miss(pid, nr);
    }
    k.obs.trap_dispatch(pid, nr, restarts, k.clock.elapsed_ns());
    let outcome = router.route(k, pid, nr, args, restarts);
    let Some(p) = k.procs.get_mut(&pid) else {
        // The process vanished during the call (e.g. killed itself).
        router.on_process_exit(k, pid);
        return;
    };
    if matches!(p.state, ProcState::Zombie(_)) {
        router.on_process_exit(k, pid);
        return;
    }
    match outcome {
        SysOutcome::Done(res) => {
            p.vm.apply_sysret(res);
            p.usage.nvcsw += 1;
        }
        SysOutcome::NoReturn => {}
        SysOutcome::Block(ch) => {
            p.state = ProcState::Blocked(ch);
            p.pending_trap = Some(PendingTrap { nr, args, restarts });
            p.usage.nvcsw += 1;
            k.run_queue.remove(&pid);
            k.blocked_queue.insert(pid);
            if let WaitChannel::Select { deadline_ns } = ch {
                if deadline_ns != u64::MAX {
                    k.select_heap.push(Reverse((deadline_ns, pid)));
                }
            }
        }
    }
}

/// A fault delivers its signal; if the signal cannot be taken (ignored,
/// blocked, or default-ignored), the process is killed anyway — re-running
/// the faulting instruction would spin forever.
fn handle_fault<R: SyscallRouter>(k: &mut Kernel, router: &mut R, pid: Pid, sig: Signal) {
    let Some(p) = k.procs.get(&pid) else { return };
    let action = p.sig.action(sig);
    let catchable =
        matches!(action.disposition, SigDisposition::Handler(_)) && !p.sig.mask.contains(sig);
    if catchable {
        // Skip the faulting instruction so the handler's sigreturn does not
        // re-fault: the pc was left at the faulting instruction.
        let _ = k.post_signal(pid, sig);
        if let Some(p) = k.procs.get_mut(&pid) {
            p.vm.pc += 1;
        }
        deliver_signals(k, router, pid);
    } else {
        k.terminate(pid, ia_abi::signal::wait_status_signaled(sig));
        router.on_process_exit(k, pid);
    }
}

/// Delivers at most one pending unblocked signal to a runnable process.
#[inline(never)]
fn deliver_signals<R: SyscallRouter>(k: &mut Kernel, router: &mut R, pid: Pid) {
    loop {
        let Some(p) = k.procs.get_mut(&pid) else {
            return;
        };
        if matches!(p.state, ProcState::Zombie(_) | ProcState::Stopped) {
            return;
        }
        let Some(sig) = p.sig.deliverable() else {
            return;
        };
        p.sig.pending.remove(sig);

        // The upward interposition path: agents see the signal first.
        if !router.filter_signal(k, pid, sig) {
            continue; // suppressed; look for another pending signal
        }
        k.obs
            .signal_delivered(pid, sig.number(), k.clock.elapsed_ns());
        let Some(p) = k.procs.get_mut(&pid) else {
            return;
        };
        p.usage.nsignals += 1;
        let action = p.sig.action(sig);
        match action.disposition {
            SigDisposition::Ignore => continue,
            SigDisposition::Default => match sig.default_action() {
                DefaultAction::Ignore | DefaultAction::Continue => continue,
                DefaultAction::Stop => {
                    p.state = ProcState::Stopped;
                    k.run_queue.remove(&pid);
                    k.blocked_queue.remove(&pid);
                    return;
                }
                DefaultAction::Terminate => {
                    k.terminate(pid, ia_abi::signal::wait_status_signaled(sig));
                    router.on_process_exit(k, pid);
                    return;
                }
            },
            SigDisposition::Handler(addr) => {
                // An interrupted blocking call returns EINTR beneath the
                // handler frame.
                if p.pending_trap.take().is_some() {
                    p.vm.apply_sysret(Err(Errno::EINTR));
                    p.select_deadline = None;
                }
                if matches!(p.state, ProcState::Blocked(_)) {
                    p.state = ProcState::Runnable;
                    k.blocked_queue.remove(&pid);
                    k.run_queue.insert(pid);
                }
                let p = k.procs.get_mut(&pid).expect("present above");
                // The mask the context restores: a suspended process goes
                // back to its pre-sigsuspend mask.
                let restore_mask = p.sig.suspend_saved.take().unwrap_or(p.sig.mask);
                let ctx = SigContext {
                    pc: p.vm.pc,
                    regs: p.vm.regs,
                    mask: restore_mask,
                };
                let sp = (p.vm.regs[15].saturating_sub(SigContext::WIRE_SIZE as u64)) & !7;
                if p.mem.write_struct(sp, &ctx).is_err() {
                    // No room for the frame: the process dies as if the
                    // signal were uncatchable.
                    k.terminate(pid, ia_abi::signal::wait_status_signaled(sig));
                    router.on_process_exit(k, pid);
                    return;
                }
                let mut mask = p.sig.mask.union(action.mask);
                mask.add(sig);
                p.sig.mask = mask.blockable();
                p.vm.regs[15] = sp;
                p.vm.regs[0] = u64::from(sig.number());
                p.vm.regs[1] = sp;
                p.vm.pc = addr;
                return;
            }
        }
    }
}

/// True while `(deadline, pid)` is the live arming of `pid`'s interval
/// timer; stale heap entries fail this and are discarded lazily.
fn timer_entry_armed(k: &Kernel, deadline: u64, pid: Pid) -> bool {
    k.procs.get(&pid).is_some_and(|p| {
        !matches!(p.state, ProcState::Zombie(_)) && p.itimer.is_some_and(|(d, _)| d == deadline)
    })
}

/// True while `(deadline, pid)` matches a live timed select.
fn select_entry_waiting(k: &Kernel, deadline: u64, pid: Pid) -> bool {
    k.procs.get(&pid).is_some_and(|p| {
        matches!(p.state, ProcState::Blocked(WaitChannel::Select { deadline_ns })
            if deadline_ns == deadline)
    })
}

/// Fires expired interval timers from the deadline heap.
///
/// An overdue periodic timer fires once and is rescheduled *past* `now`,
/// preserving its phase: `next = deadline + interval * periods_elapsed`.
/// (The legacy rearm advanced by a single period regardless of how far
/// behind the timer was, so a long slice could leave the deadline still in
/// the past and refire it once per scheduler pass until it caught up.)
fn fire_timers(k: &mut Kernel) {
    let now = k.clock.elapsed_ns();
    while let Some(&Reverse((deadline, pid))) = k.timer_heap.peek() {
        if !timer_entry_armed(k, deadline, pid) {
            k.timer_heap.pop();
            continue;
        }
        if deadline > now {
            break;
        }
        k.timer_heap.pop();
        let p = k.procs.get_mut(&pid).expect("armed entry");
        let (_, interval) = p.itimer.expect("armed entry");
        if interval > 0 {
            let next = deadline + interval * ((now - deadline) / interval + 1);
            p.itimer = Some((next, interval));
            k.timer_heap.push(Reverse((next, pid)));
        } else {
            p.itimer = None;
        }
        k.perf.timer_fires += 1;
        let _ = k.post_signal(pid, Signal::SIGALRM);
    }
}

/// Legacy timer pass: scans every process; an overdue periodic timer is
/// rearmed one period past its old deadline (possibly still in the past).
fn fire_timers_legacy(k: &mut Kernel) {
    let now = k.clock.elapsed_ns();
    let expired: Vec<Pid> = k
        .procs
        .values()
        .filter(|p| {
            !matches!(p.state, ProcState::Zombie(_))
                && p.itimer.is_some_and(|(deadline, _)| deadline <= now)
        })
        .map(|p| p.pid)
        .collect();
    for pid in expired {
        if let Some(p) = k.procs.get_mut(&pid) {
            if let Some((deadline, interval)) = p.itimer {
                p.itimer = if interval > 0 {
                    let next = deadline + interval.max(1);
                    k.timer_heap.push(Reverse((next, pid)));
                    Some((next, interval))
                } else {
                    None
                };
            }
        }
        let _ = k.post_signal(pid, Signal::SIGALRM);
    }
}

/// Moves blocked processes whose wakeup condition fired back to runnable.
/// Only current waiters (the blocked queue) are examined.
fn apply_wakeups(k: &mut Kernel) {
    let events = k.take_wakeups();
    if events.is_empty() {
        return;
    }
    k.perf.wakeup_scans += 1;
    let blocked: Vec<(Pid, WaitChannel)> = k
        .blocked_queue
        .iter()
        .filter_map(|&pid| match k.procs.get(&pid).map(|p| p.state) {
            Some(ProcState::Blocked(ch)) => Some((pid, ch)),
            _ => None,
        })
        .collect();
    for (pid, ch) in blocked {
        let woken = events.iter().any(|ev| wakes(*ev, ch, pid, k));
        if woken {
            if let Some(p) = k.procs.get_mut(&pid) {
                p.state = ProcState::Runnable;
            }
            k.blocked_queue.remove(&pid);
            k.run_queue.insert(pid);
        }
    }
}

/// Legacy wakeup pass: scans the whole process table for waiters.
fn apply_wakeups_legacy(k: &mut Kernel) {
    let events = k.take_wakeups();
    if events.is_empty() {
        return;
    }
    let blocked: Vec<(Pid, WaitChannel)> = k
        .procs
        .values()
        .filter_map(|p| match p.state {
            ProcState::Blocked(ch) => Some((p.pid, ch)),
            _ => None,
        })
        .collect();
    for (pid, ch) in blocked {
        let woken = events.iter().any(|ev| wakes(*ev, ch, pid, k));
        if woken {
            if let Some(p) = k.procs.get_mut(&pid) {
                p.state = ProcState::Runnable;
            }
            k.blocked_queue.remove(&pid);
            k.run_queue.insert(pid);
        }
    }
}

fn wakes(ev: WakeEvent, ch: WaitChannel, pid: Pid, k: &Kernel) -> bool {
    match (ev, ch) {
        (WakeEvent::Pipe(a), WaitChannel::PipeReadable(b) | WaitChannel::PipeWritable(b)) => a == b,
        (WakeEvent::ChildOf(parent), WaitChannel::Child) => parent == pid,
        (WakeEvent::SignalTo(target), _) => {
            // A deliverable signal interrupts any wait.
            target == pid
                && k.procs
                    .get(&pid)
                    .is_some_and(|p| p.sig.deliverable().is_some())
        }
        (WakeEvent::Tty, WaitChannel::TtyInput) => true,
        (WakeEvent::Sock(_), WaitChannel::SockAccept) => true,
        // Selects wake conservatively on any I/O-ish event and re-poll.
        (WakeEvent::Pipe(_) | WakeEvent::Tty | WakeEvent::Sock(_), WaitChannel::Select { .. }) => {
            true
        }
        _ => false,
    }
}

/// Wakes selects whose deadline has passed, from the deadline heap.
fn wake_expired_selects(k: &mut Kernel) {
    let now = k.clock.elapsed_ns();
    while let Some(&Reverse((deadline, pid))) = k.select_heap.peek() {
        if !select_entry_waiting(k, deadline, pid) {
            k.select_heap.pop();
            continue;
        }
        if deadline > now {
            break;
        }
        k.select_heap.pop();
        if let Some(p) = k.procs.get_mut(&pid) {
            p.state = ProcState::Runnable;
        }
        k.blocked_queue.remove(&pid);
        k.run_queue.insert(pid);
    }
}

/// Legacy variant: scans the whole process table for expired selects.
fn wake_expired_selects_legacy(k: &mut Kernel) {
    let now = k.clock.elapsed_ns();
    let expired: Vec<Pid> = k
        .procs
        .values()
        .filter(|p| {
            matches!(p.state, ProcState::Blocked(WaitChannel::Select { deadline_ns }) if deadline_ns <= now)
        })
        .map(|p| p.pid)
        .collect();
    for pid in expired {
        if let Some(p) = k.procs.get_mut(&pid) {
            p.state = ProcState::Runnable;
        }
        k.blocked_queue.remove(&pid);
        k.run_queue.insert(pid);
    }
}

/// Earliest future event that pure time passage will trigger: the minimum
/// of the valid tops of the timer and select heaps.
fn earliest_deadline(k: &mut Kernel) -> Option<u64> {
    let timer = loop {
        match k.timer_heap.peek() {
            None => break None,
            Some(&Reverse((deadline, pid))) => {
                if timer_entry_armed(k, deadline, pid) {
                    break Some(deadline);
                }
                k.timer_heap.pop();
            }
        }
    };
    let select = loop {
        match k.select_heap.peek() {
            None => break None,
            Some(&Reverse((deadline, pid))) => {
                if select_entry_waiting(k, deadline, pid) {
                    break Some(deadline);
                }
                k.select_heap.pop();
            }
        }
    };
    match (timer, select) {
        (Some(t), Some(s)) => Some(t.min(s)),
        (t, None) => t,
        (None, s) => s,
    }
}

/// Legacy variant: scans every process for timer and select deadlines.
fn earliest_deadline_legacy(k: &Kernel) -> Option<u64> {
    let mut best: Option<u64> = None;
    for p in k.procs.values() {
        if matches!(p.state, ProcState::Zombie(_)) {
            continue;
        }
        if let Some((deadline, _)) = p.itimer {
            best = Some(best.map_or(deadline, |b: u64| b.min(deadline)));
        }
        if let ProcState::Blocked(WaitChannel::Select { deadline_ns }) = p.state {
            if deadline_ns != u64::MAX {
                best = Some(best.map_or(deadline_ns, |b: u64| b.min(deadline_ns)));
            }
        }
    }
    best
}

/// Round-robin pick from the runnable queue: the lowest runnable pid
/// strictly greater than `last`, wrapping to the lowest runnable pid.
/// Entries that are no longer runnable (which the queue invariants should
/// prevent) are discarded rather than spun on.
fn pick_runnable(k: &mut Kernel, last: Pid) -> Option<Pid> {
    use std::ops::Bound;
    loop {
        let cand = k
            .run_queue
            .range((Bound::Excluded(last), Bound::Unbounded))
            .next()
            .copied()
            .or_else(|| k.run_queue.iter().next().copied())?;
        if is_runnable(k, cand) {
            return Some(cand);
        }
        k.run_queue.remove(&cand);
    }
}

/// Legacy round-robin pick: full scan of the process table.
fn pick_runnable_legacy(k: &Kernel, last: Pid) -> Option<Pid> {
    let mut first: Option<Pid> = None;
    let mut next: Option<Pid> = None;
    for p in k.procs.values() {
        if !matches!(p.state, ProcState::Runnable) {
            continue;
        }
        if first.is_none_or(|f| p.pid < f) {
            first = Some(p.pid);
        }
        if p.pid > last && next.is_none_or(|n| p.pid < n) {
            next = Some(p.pid);
        }
    }
    next.or(first)
}

impl Kernel {
    /// Convenience: run with the identity router until completion.
    pub fn run_to_completion(&mut self) -> RunOutcome {
        run(self, &mut KernelRouter, RunLimits::default())
    }

    /// Convenience: run with a custom router until completion.
    pub fn run_with<R: SyscallRouter>(&mut self, router: &mut R) -> RunOutcome {
        run(self, router, RunLimits::default())
    }

    /// Convenience: run under the legacy reference scheduler.
    pub fn run_to_completion_legacy(&mut self) -> RunOutcome {
        run_legacy(self, &mut KernelRouter, RunLimits::default())
    }

    /// Convenience: run a custom router under the legacy reference
    /// scheduler.
    pub fn run_with_legacy<R: SyscallRouter>(&mut self, router: &mut R) -> RunOutcome {
        run_legacy(self, router, RunLimits::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelBuilder;

    fn kernel_with_idle_proc() -> (Kernel, Pid) {
        let mut k = KernelBuilder::new().build();
        let img = ia_vm::assemble("main: halt\n").unwrap();
        let pid = k.spawn_image(&img, &[b"idle"], b"idle");
        (k, pid)
    }

    fn arm_timer(k: &mut Kernel, pid: Pid, deadline: u64, interval: u64) {
        k.procs.get_mut(&pid).unwrap().itimer = Some((deadline, interval));
        k.timer_heap.push(Reverse((deadline, pid)));
    }

    #[test]
    fn overdue_periodic_timer_fires_once_and_reschedules_past_now() {
        let (mut k, pid) = kernel_with_idle_proc();
        arm_timer(&mut k, pid, 1_000, 100);
        // The clock raced 9½ periods past the deadline (e.g. a long slice).
        k.clock.advance_ns(1_950);
        fire_timers(&mut k);
        // One SIGALRM, and the rearm lands on the next phase-aligned tick
        // strictly in the future — not `deadline + interval`, which would
        // still be in the past and refire on every scheduler pass.
        assert_eq!(k.perf.timer_fires, 1);
        assert!(k.proc(pid).unwrap().sig.pending.contains(Signal::SIGALRM));
        assert_eq!(k.proc(pid).unwrap().itimer, Some((2_000, 100)));
        // A second pass at the same instant fires nothing.
        fire_timers(&mut k);
        assert_eq!(k.perf.timer_fires, 1);
    }

    #[test]
    fn on_time_periodic_timer_rearm_matches_legacy() {
        let (mut k, pid) = kernel_with_idle_proc();
        arm_timer(&mut k, pid, 1_000, 250);
        k.clock.advance_ns(1_000); // exactly at the deadline
        fire_timers(&mut k);
        assert_eq!(k.proc(pid).unwrap().itimer, Some((1_250, 250)));
    }

    #[test]
    fn one_shot_timer_fires_and_clears() {
        let (mut k, pid) = kernel_with_idle_proc();
        arm_timer(&mut k, pid, 500, 0);
        k.clock.advance_ns(700);
        fire_timers(&mut k);
        assert_eq!(k.proc(pid).unwrap().itimer, None);
        assert_eq!(k.perf.timer_fires, 1);
        assert!(k.timer_heap.is_empty() || earliest_deadline(&mut k).is_none());
    }

    #[test]
    fn cancelled_timer_entry_is_discarded_lazily() {
        let (mut k, pid) = kernel_with_idle_proc();
        arm_timer(&mut k, pid, 900, 0);
        // The process disarms the timer; the heap entry goes stale.
        k.procs.get_mut(&pid).unwrap().itimer = None;
        k.clock.advance_ns(2_000);
        fire_timers(&mut k);
        assert_eq!(k.perf.timer_fires, 0);
        assert!(!k.proc(pid).unwrap().sig.pending.contains(Signal::SIGALRM));
        assert!(k.timer_heap.is_empty());
    }

    #[test]
    fn run_queue_tracks_process_lifecycle() {
        let (mut k, pid) = kernel_with_idle_proc();
        assert!(k.run_queue.contains(&pid));
        let outcome = k.run_to_completion();
        assert_eq!(outcome, RunOutcome::AllExited);
        assert!(!k.run_queue.contains(&pid));
        assert!(k.blocked_queue.is_empty());
    }

    #[test]
    fn sliced_and_legacy_schedulers_agree_on_accounting() {
        // A compute loop with a couple of traps, run to completion under
        // both schedulers: the virtual clock, instruction totals and
        // rusage-visible counters must be bit-identical.
        let src = "
main:   li r1, 2500
loop:   addi r1, r1, -1
        sys getpid
        jnz r1, loop
        halt
";
        let img = ia_vm::assemble(src).unwrap();
        let run_one = |legacy: bool| {
            let mut k = KernelBuilder::new().build();
            k.spawn_image(&img, &[b"spin"], b"spin");
            let outcome = if legacy {
                k.run_to_completion_legacy()
            } else {
                k.run_to_completion()
            };
            assert_eq!(outcome, RunOutcome::AllExited);
            (k.clock.elapsed_ns(), k.total_insns, k.total_syscalls)
        };
        assert_eq!(run_one(true), run_one(false));
    }
}
