//! Scheduler-focused tests: stop/continue, fairness, run limits, and the
//! terminal outcomes.

use ia_abi::signal::Signal;
use ia_kernel::{run, Engine, KernelBuilder, KernelRouter, ProcState, RunLimits, RunOutcome};

#[test]
fn sigstop_stops_and_sigcont_resumes() {
    // The target spins; the controller stops it, verifies, continues it,
    // then kills it.
    let spin = ia_vm::assemble("main: jmp main\n").unwrap();
    let mut k = KernelBuilder::new().build();
    let target = k.spawn_image(&spin, &[b"spin"], b"spin");

    // Drive manually: run a bounded slice, then stop the target.
    let out = run(&mut k, &mut KernelRouter, RunLimits { max_steps: 500 });
    assert_eq!(out, RunOutcome::StepLimit);
    k.post_signal(target, Signal::SIGSTOP).unwrap();
    let out = run(&mut k, &mut KernelRouter, RunLimits { max_steps: 500 });
    // Only the stopped process remains: the scheduler reports Stalled.
    assert_eq!(out, RunOutcome::Stalled);
    assert_eq!(k.proc(target).unwrap().state, ProcState::Stopped);

    k.post_signal(target, Signal::SIGCONT).unwrap();
    assert_eq!(k.proc(target).unwrap().state, ProcState::Runnable);
    let out = run(&mut k, &mut KernelRouter, RunLimits { max_steps: 500 });
    assert_eq!(out, RunOutcome::StepLimit, "spinning again");

    k.post_signal(target, Signal::SIGKILL).unwrap();
    let out = run(&mut k, &mut KernelRouter, RunLimits { max_steps: 500 });
    assert_eq!(out, RunOutcome::AllExited);
}

#[test]
fn sigkill_kills_even_a_stopped_process() {
    let spin = ia_vm::assemble("main: jmp main\n").unwrap();
    let mut k = KernelBuilder::new().build();
    let target = k.spawn_image(&spin, &[b"spin"], b"spin");
    k.post_signal(target, Signal::SIGSTOP).unwrap();
    let _ = run(&mut k, &mut KernelRouter, RunLimits { max_steps: 500 });
    k.post_signal(target, Signal::SIGKILL).unwrap();
    assert_eq!(
        run(&mut k, &mut KernelRouter, RunLimits { max_steps: 500 }),
        RunOutcome::AllExited
    );
    assert_eq!(
        ia_abi::signal::WaitStatus::decode(k.exit_status(target).unwrap()),
        Some(ia_abi::signal::WaitStatus::Signaled(Signal::SIGKILL))
    );
}

#[test]
fn scheduler_is_fair_between_cpu_hogs() {
    // Two pure-compute processes of equal length must finish in the same
    // run without either starving: both retire all their instructions.
    let prog = ia_vm::assemble(
        r#"
        main:
            li r5, 2000
        l:  addi r5, r5, -1
            jnz r5, l
            li r0, 0
            sys exit
        "#,
    )
    .unwrap();
    let mut k = KernelBuilder::new().build();
    let a = k.spawn_image(&prog, &[b"a"], b"a");
    let b = k.spawn_image(&prog, &[b"b"], b"b");
    assert_eq!(k.run_to_completion(), RunOutcome::AllExited);
    assert_eq!(k.exit_status(a), Some(0));
    assert_eq!(k.exit_status(b), Some(0));
}

#[test]
fn run_limits_cap_runaway_programs() {
    let spin = ia_vm::assemble("main: jmp main\n").unwrap();
    let mut k = KernelBuilder::new().build();
    k.spawn_image(&spin, &[b"s"], b"s");
    let before = std::time::Instant::now();
    let out = run(&mut k, &mut KernelRouter, RunLimits { max_steps: 10_000 });
    assert_eq!(out, RunOutcome::StepLimit);
    assert!(before.elapsed().as_secs() < 5, "bounded promptly");
    assert_eq!(k.total_insns, 10_000);
}

/// The step limit binds on every engine, with or without the trap lane —
/// including a limit that lands on an answered trap and `max_steps: 0`,
/// which runs exactly one instruction everywhere.
#[test]
fn step_limit_binds_identically_with_and_without_the_lane() {
    let prog = ia_vm::assemble(
        r#"
        main:
            li r10, 2000000
        l:  sys getpid
            li r0, 0
            li r1, 0
            sys gettimeofday
            addi r10, r10, -1
            jnz r10, l
            li r0, 0
            sys exit
        "#,
    )
    .unwrap();
    for max_steps in [0, 1, 2, 3, 5, 100, 101, 1_000] {
        let mut runs = Vec::new();
        for engine in [Engine::Plain, Engine::Fused] {
            for fast_path in [true, false] {
                let mut k = KernelBuilder::new()
                    .engine(engine)
                    .fast_path(fast_path)
                    .build();
                k.spawn_image(&prog, &[b"l"], b"l");
                let out = run(&mut k, &mut KernelRouter, RunLimits { max_steps });
                assert_eq!(out, RunOutcome::StepLimit, "{engine:?} fast {fast_path}");
                runs.push((
                    format!("{engine:?} fast {fast_path}"),
                    (
                        k.total_insns,
                        k.total_syscalls,
                        k.clock.elapsed_ns(),
                        k.observable(),
                    ),
                ));
            }
        }
        for (label, r) in &runs[1..] {
            assert_eq!(
                *r, runs[0].1,
                "max_steps {max_steps}: {label} vs {}",
                runs[0].0
            );
        }
        assert_eq!(runs[0].1 .0, max_steps.max(1), "max_steps {max_steps}");
    }
}

#[test]
fn virtual_clock_equals_instructions_plus_syscalls() {
    // For a pure compute + exit program the virtual time decomposes
    // exactly: insns * insn_ns + exit base cost.
    let prog = ia_vm::assemble(
        r#"
        main:
            li r5, 100
        l:  addi r5, r5, -1
            jnz r5, l
            li r0, 0
            sys exit
        "#,
    )
    .unwrap();
    let mut k = KernelBuilder::new().build();
    k.spawn_image(&prog, &[b"c"], b"c");
    assert_eq!(k.run_to_completion(), RunOutcome::AllExited);
    let expected =
        k.total_insns * k.profile.insn_ns + k.profile.syscall_base_ns(ia_abi::Sysno::Exit);
    assert_eq!(k.clock.elapsed_ns(), expected);
}

/// The trap lane lives inside the fused burst, so the fast-path knob is
/// inert under `Engine::Plain`: with it on, a trap-heavy program gets no
/// lane hits at all, and runs exactly as with it off. (The conformance
/// matrix relies on this to run one plain cell, not two.) The fused
/// engine is the control: there the same program does hit the lane.
#[test]
fn fast_path_is_inert_on_the_plain_engine() {
    let prog = ia_vm::assemble(
        r#"
        main:
            li r10, 500
        l:  sys getpid
            li r0, 0
            li r1, 0
            sys gettimeofday
            addi r10, r10, -1
            jnz r10, l
            li r0, 0
            sys exit
        "#,
    )
    .unwrap();
    let go = |engine: Engine, fast_path: bool| {
        let mut k = KernelBuilder::new()
            .engine(engine)
            .fast_path(fast_path)
            .build();
        k.spawn_image(&prog, &[b"l"], b"l");
        assert_eq!(k.run_with(&mut KernelRouter), RunOutcome::AllExited);
        let seen = (k.total_insns, k.clock.elapsed_ns(), k.observable());
        (k.fast_stats.hits(), k.fast_stats.misses(), seen)
    };
    let (hits, misses, plain_fast) = go(Engine::Plain, true);
    assert_eq!(hits, 0, "no lane hits on the plain engine");
    assert_eq!(
        misses, 1000,
        "every getpid/gettimeofday took the dispatcher"
    );
    assert_eq!(go(Engine::Plain, false), (0, 1000, plain_fast.clone()));
    let (fused_hits, _, fused_seen) = go(Engine::Fused, true);
    assert!(fused_hits > 0, "control: the fused engine opens the lane");
    assert_eq!(fused_seen, plain_fast);
}
