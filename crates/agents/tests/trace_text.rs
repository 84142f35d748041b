//! Byte-identity oracle for the `trace` agent's text.
//!
//! The expected strings in `data/trace_text.expected` were produced by the
//! earlier `format!`-based formatter, one allocation per piece. The
//! buffer-reusing `write_call`/`write_result` must reproduce them byte for
//! byte, for every system call number, for unknown numbers, for unreadable
//! path pointers and for every result shape. The make8 build's whole log
//! is pinned by length and digest the same way.

use ia_abi::sysno::ALL_SYSCALLS;
use ia_abi::{Errno, RawArgs, Sysno};
use ia_agents::trace::{format_call, format_result, write_call, write_result};
use ia_agents::TraceAgent;
use ia_interpose::{wrap_process, Agent, InterposedRouter, SysCtx};
use ia_kernel::{content_digest, KernelBuilder, RunOutcome, I486_25};
use ia_toolkit::SymCtx;

/// Client addresses holding readable paths.
const P0: u64 = 0x2_0000;
const P1: u64 = 0x2_0100;
/// An address outside the client's memory.
const BAD: u64 = 0xdead_0000;

/// Every call the oracle formats, in the order of the expected file.
fn calls() -> Vec<(u32, RawArgs)> {
    let sets: [RawArgs; 2] = [
        [P0, P1, 0o644, 3, 5, 7],
        [BAD, BAD + 8, 0x601, u64::MAX, 0x10, 0x20],
    ];
    let mut v = Vec::new();
    for &s in ALL_SYSCALLS {
        for a in sets {
            v.push((s as u32, a));
        }
    }
    for (s, a) in [
        (Sysno::Kill, [7, 9, 0, 0, 0, 0]),
        (Sysno::Kill, [7, 99, 0, 0, 0, 0]),
        (Sysno::Sigaction, [2, P0, P1, 0, 0, 0]),
        (Sysno::Sigaction, [99, 0, 0, 0, 0, 0]),
    ] {
        v.push((s as u32, a));
    }
    for nr in [999u32, 4000, u32::MAX] {
        v.push((nr, sets[0]));
    }
    v
}

const RESULTS: [Result<[u64; 2], Errno>; 6] = [
    Ok([5, 0]),
    Ok([0, 0]),
    Ok([5, 6]),
    Ok([u64::MAX, 0]),
    Err(Errno::ENOENT),
    Err(Errno::EINTR),
];

#[test]
fn call_and_result_text_matches_the_pinned_strings() {
    let mut k = KernelBuilder::new().build();
    let img = ia_vm::assemble("main:\n li r0, 0\n sys exit\n").unwrap();
    let pid = k.spawn_image(&img, &[b"t"], b"t");
    let mem = &mut k.proc_mut(pid).unwrap().mem;
    mem.write_bytes(P0, b"/tmp/a\0").unwrap();
    mem.write_bytes(P1, b"/usr/src/proj/Makefile\0").unwrap();
    let mut below: Vec<Box<dyn Agent>> = Vec::new();
    let mut ctx = SysCtx::new(&mut k, pid, &mut below, 0);
    let mut sym = SymCtx::new(&mut ctx);

    let expected: Vec<&str> = include_str!("data/trace_text.expected").lines().collect();
    let calls = calls();
    assert_eq!(expected.len(), calls.len() + RESULTS.len());
    // One buffer reused across every call, as the agent reuses its own.
    let mut buf = String::new();
    for ((nr, args), want) in calls.iter().zip(&expected) {
        buf.clear();
        write_call(&mut buf, &mut sym, *nr, args).unwrap();
        assert_eq!(buf, *want, "write_call({nr}, {args:x?})");
        assert_eq!(format_call(&mut sym, *nr, args), *want);
    }
    for (res, want) in RESULTS.iter().zip(&expected[calls.len()..]) {
        buf.clear();
        write_result(&mut buf, *res).unwrap();
        assert_eq!(buf, *want, "write_result({res:?})");
        assert_eq!(format_result(*res), *want);
    }
}

#[test]
fn make8_trace_log_is_pinned_and_matches_the_handle() {
    let mut k = KernelBuilder::new().profile(I486_25).build();
    ia_workloads::make8::setup(&mut k);
    let pid = ia_workloads::make8::spawn(&mut k);
    let mut router = InterposedRouter::new();
    let (agent, handle) = TraceAgent::new();
    wrap_process(&mut k, &mut router, pid, Box::new(agent), &[]);
    assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);

    let log = k.read_file(TraceAgent::DEFAULT_LOG).unwrap();
    assert_eq!(log.len(), 870_412);
    assert_eq!(content_digest(&log), 0x72db_263d_50a9_b49e);
    assert_eq!(log, handle.text().into_bytes(), "VFS log equals host text");
    // Virtual time and the kernel's syscall count are unchanged too.
    assert_eq!(k.clock.elapsed_ns(), 31_700_101_460);
    assert_eq!(k.total_syscalls, 41_560);
}
