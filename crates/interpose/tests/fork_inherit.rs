//! Chain inheritance across `fork` when pids leave gaps.
//!
//! The router hands its chain to every child born during a trap. Two
//! cases stress how it finds those children: the highest live pid exits
//! and is reaped before the next fork (so the newest pid is no longer
//! the largest live one), and an agent issues `fork` itself as a downcall
//! (so the child is born inside a trap on another number).

use std::sync::{Arc, Mutex};

use ia_abi::{RawArgs, Sysno};
use ia_interpose::{wrap_process, Agent, InterestSet, InterposedRouter, SysCtx};
use ia_kernel::{KernelBuilder, Pid, RunOutcome, SysOutcome};

/// Records `(pid, nr)` for every trap it sees. With `fork_on` set, it
/// also forks the client (as a downcall) on that number before passing
/// the call down.
struct Recorder {
    seen: Arc<Mutex<Vec<(Pid, u32)>>>,
    fork_on: Option<Sysno>,
}

impl Agent for Recorder {
    fn name(&self) -> &'static str {
        "recorder"
    }
    fn interests(&self) -> InterestSet {
        InterestSet::ALL
    }
    fn syscall(&mut self, ctx: &mut SysCtx<'_>, nr: u32, args: RawArgs) -> SysOutcome {
        self.seen.lock().unwrap().push((ctx.pid, nr));
        if self.fork_on.is_some_and(|s| s.number() == nr) {
            let _ = ctx.down_sys(Sysno::Fork, [0; 6]);
        }
        ctx.down(nr, args)
    }
    fn clone_box(&self) -> Box<dyn Agent> {
        Box::new(Recorder {
            seen: Arc::clone(&self.seen),
            fork_on: self.fork_on,
        })
    }
}

/// Runs `src` as pid 1 under a [`Recorder`], returning the traps it saw,
/// the chains the router forked, and the exit status of each pid.
fn run(src: &str, fork_on: Option<Sysno>) -> (Vec<(Pid, u32)>, u64, Vec<Option<u32>>) {
    let mut k = KernelBuilder::new().build();
    let img = ia_vm::assemble(src).unwrap();
    let pid = k.spawn_image(&img, &[b"t"], b"t");
    assert_eq!(pid, 1);
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut router = InterposedRouter::new();
    let agent = Recorder {
        seen: Arc::clone(&seen),
        fork_on,
    };
    wrap_process(&mut k, &mut router, pid, Box::new(agent), &[]);
    assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
    let statuses = (1..=3).map(|p| k.exit_status(p)).collect();
    let seen = seen.lock().unwrap().clone();
    (seen, router.stats.chains_forked, statuses)
}

fn saw(seen: &[(Pid, u32)], pid: Pid, nr: Sysno) -> bool {
    seen.contains(&(pid, nr.number()))
}

#[test]
fn fork_after_the_highest_live_pid_is_reaped_inherits_the_chain() {
    // Child 2 exits and is reaped before the parent forks child 3: pid 3
    // is then above every live pid by a gap of one reaped pid.
    let (seen, forked, statuses) = run(
        r#"
        main:
            sys fork
            jz r0, child
            li r0, -1
            li r1, 0
            li r2, 0
            li r3, 0
            sys wait4
            sys fork
            jz r0, child
            li r0, -1
            li r1, 0
            li r2, 0
            li r3, 0
            sys wait4
            li r0, 0
            sys exit
        child:
            sys getpid
            li r0, 0
            sys exit
        "#,
        None,
    );
    assert_eq!(forked, 2, "both children got a chain");
    for child in [2, 3] {
        assert!(saw(&seen, child, Sysno::Getpid), "pid {child}: {seen:?}");
        assert!(saw(&seen, child, Sysno::Exit), "pid {child}: {seen:?}");
    }
    assert_eq!(statuses, vec![Some(0); 3]);
}

#[test]
fn fork_issued_by_an_agent_as_a_downcall_inherits_the_chain() {
    // The agent forks the client inside its getppid trap; the child
    // resumes after that trap and must run under the chain too.
    let (seen, forked, statuses) = run(
        r#"
        main:
            sys getppid
            sys getpid
            li r0, 0
            sys exit
        "#,
        Some(Sysno::Getppid),
    );
    assert_eq!(forked, 1, "the downcall's child got a chain");
    assert!(saw(&seen, 2, Sysno::Getpid), "{seen:?}");
    assert!(saw(&seen, 2, Sysno::Exit), "{seen:?}");
    assert!(
        !saw(&seen, 2, Sysno::Getppid),
        "the child starts after the trap"
    );
    assert_eq!(&statuses[..2], &[Some(0), Some(0)]);
}
