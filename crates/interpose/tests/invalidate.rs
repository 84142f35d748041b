//! Directed regression for recompiling the dispatch tables under mid-run
//! chain mutation.
//!
//! The flat dispatch table, the batchable-number set, and the in-loop
//! answer table are all compiled from the chain; every mutation — `push`,
//! `with_chain`, fork-time cloning and snapshot restore — must recompile
//! them, and a mutation must first flush any pending vectored upcall under
//! the *old* configuration. The table is the only dispatch path, so each
//! scenario checks it against counts it cannot influence: per phase, the
//! calls each agent observed must match the traps the kernel executed for
//! that chain configuration. Each scenario must also leave bit-identical
//! observable state with the fast path on, off, and under the legacy
//! scheduler.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ia_abi::{RawArgs, Sysno};
use ia_interpose::{
    restore_world, snapshot_world, wrap_process, Agent, BatchCall, InterestSet, InterposedRouter,
    SysCtx,
};
use ia_kernel::{
    run, run_legacy, Kernel, KernelBuilder, Observable, RunLimits, RunOutcome, SysOutcome,
};

/// Batchable full-coverage observer (counts calls seen, per-call or
/// vectored).
struct Watcher {
    calls: Arc<AtomicU64>,
    batches: Arc<AtomicU64>,
}

impl Agent for Watcher {
    fn name(&self) -> &'static str {
        "watcher"
    }
    fn interests(&self) -> InterestSet {
        InterestSet::ALL
    }
    fn batch_interests(&self) -> InterestSet {
        InterestSet::ALL
    }
    fn syscall(&mut self, ctx: &mut SysCtx<'_>, nr: u32, args: RawArgs) -> SysOutcome {
        self.calls.fetch_add(1, Ordering::Relaxed);
        ctx.down(nr, args)
    }
    fn syscall_batch(&mut self, _ctx: &mut SysCtx<'_>, _nr: u32, calls: &[BatchCall]) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.calls.fetch_add(calls.len() as u64, Ordering::Relaxed);
    }
    fn clone_box(&self) -> Box<dyn Agent> {
        Box::new(Watcher {
            calls: self.calls.clone(),
            batches: self.batches.clone(),
        })
    }
}

/// Non-batchable tap on `getpid` only (counts its calls): stacking it above
/// the watcher must kill vectored upcalls for getpid until it is removed
/// again.
struct PidTap {
    taps: Arc<AtomicU64>,
}

impl Agent for PidTap {
    fn name(&self) -> &'static str {
        "pid-tap"
    }
    fn interests(&self) -> InterestSet {
        InterestSet::of(&[Sysno::Getpid])
    }
    fn syscall(&mut self, ctx: &mut SysCtx<'_>, nr: u32, args: RawArgs) -> SysOutcome {
        self.taps.fetch_add(1, Ordering::Relaxed);
        ctx.down(nr, args)
    }
    fn clone_box(&self) -> Box<dyn Agent> {
        Box::new(PidTap {
            taps: self.taps.clone(),
        })
    }
}

/// Shared agent counters plus the kernel's executed-trap count, read at
/// phase boundaries.
#[derive(Clone, Default)]
struct Counts {
    calls: Arc<AtomicU64>,
    batches: Arc<AtomicU64>,
    taps: Arc<AtomicU64>,
}

/// One reading of every counter: (kernel traps, watcher calls, watcher
/// batches, taps).
type Reading = [u64; 4];

impl Counts {
    fn watcher(&self) -> Box<dyn Agent> {
        Box::new(Watcher {
            calls: self.calls.clone(),
            batches: self.batches.clone(),
        })
    }
    fn tap(&self) -> Box<dyn Agent> {
        Box::new(PidTap {
            taps: self.taps.clone(),
        })
    }
    fn read(&self, k: &Kernel) -> Reading {
        [
            k.total_syscalls,
            self.calls.load(Ordering::Relaxed),
            self.batches.load(Ordering::Relaxed),
            self.taps.load(Ordering::Relaxed),
        ]
    }
}

/// Per-counter change between two readings.
fn delta(from: Reading, to: Reading) -> Reading {
    [0, 1, 2, 3].map(|i| to[i] - from[i])
}

/// Runs under `legacy` or the sliced scheduler.
fn drive(
    k: &mut Kernel,
    router: &mut InterposedRouter,
    max_steps: u64,
    legacy: bool,
) -> RunOutcome {
    let limits = RunLimits { max_steps };
    if legacy {
        run_legacy(k, router, limits)
    } else {
        run(k, router, limits)
    }
}

/// Loops `getpid` 400 times, then exits. The loop counter lives in r10:
/// syscall returns clobber r0..r2.
const GETPID_LOOP: &str = "
main:   li r10, 400
loop:   addi r10, r10, -1
        sys getpid
        jnz r10, loop
        li r0, 0
        sys exit
";

struct MutatedRun {
    obs: Observable,
    /// Counter changes over phases 2, 3 and 4.
    phases: [Reading; 3],
    intercepted: u64,
    unmanaged: u64,
    fast_hits: u64,
}

fn run_mutating(fast: bool, legacy: bool) -> MutatedRun {
    let img = ia_vm::assemble(GETPID_LOOP).unwrap();
    let mut k = KernelBuilder::new().fast_path(fast).build();
    let pid = k.spawn_image(&img, &[b"inv"], b"inv");
    let mut router = InterposedRouter::new();
    let counts = Counts::default();

    // Phase 1: bare — with the fast path on, getpid is answered in-loop.
    assert_eq!(
        drive(&mut k, &mut router, 150, legacy),
        RunOutcome::StepLimit
    );
    // Phase 2: push the batchable observer mid-run.
    wrap_process(&mut k, &mut router, pid, counts.watcher(), &[]);
    let r0 = counts.read(&k);
    assert_eq!(
        drive(&mut k, &mut router, 150, legacy),
        RunOutcome::StepLimit
    );
    // Phase 3: push a non-batchable getpid tap on top — the batchable set
    // must be recompiled without getpid. The loader delivers phase 2's
    // pending vector first.
    wrap_process(&mut k, &mut router, pid, counts.tap(), &[]);
    let r1 = counts.read(&k);
    assert_eq!(
        drive(&mut k, &mut router, 150, legacy),
        RunOutcome::StepLimit
    );
    // Phase 4: remove the tap through `with_chain`. Any pending vector is
    // delivered under the old chain before it changes.
    router.flush_pending(&mut k, pid);
    let removed = router
        .with_chain(pid, |agents| {
            assert_eq!(agents.len(), 2);
            agents.remove(0)
        })
        .expect("chain still installed");
    assert_eq!(removed.name(), "pid-tap");
    let r2 = counts.read(&k);
    assert_eq!(
        drive(&mut k, &mut router, 5_000_000, legacy),
        RunOutcome::AllExited
    );
    let r3 = counts.read(&k);

    MutatedRun {
        obs: k.observable(),
        phases: [delta(r0, r1), delta(r1, r2), delta(r2, r3)],
        intercepted: router.stats.intercepted,
        unmanaged: router.stats.unmanaged,
        fast_hits: k.fast_stats.hits(),
    }
}

struct SnapRun {
    obs: Observable,
    /// Counter changes between the snapshot point and completion, first
    /// (pre-restore) leg.
    first: Reading,
    /// Same span replayed after `restore_world` — must match exactly.
    second: Reading,
    intercepted: u64,
    fast_hits: u64,
}

/// Snapshot mid-run with vectored upcalls in flight, run to completion,
/// rewind, deliberately build a *fresh* pending batch, rewind again (the
/// live batch must be discarded, not replayed), and run the same span a
/// second time.
fn run_snapshot_restore(fast: bool, legacy: bool) -> SnapRun {
    let img = ia_vm::assemble(GETPID_LOOP).unwrap();
    let mut k = KernelBuilder::new().fast_path(fast).build();
    let pid = k.spawn_image(&img, &[b"snap"], b"snap");
    let mut router = InterposedRouter::new();
    let counts = Counts::default();
    wrap_process(&mut k, &mut router, pid, counts.watcher(), &[]);

    // Run into the middle of the loop: with batching on, a partial
    // vectored upcall is pending right now.
    assert_eq!(
        drive(&mut k, &mut router, 150, legacy),
        RunOutcome::StepLimit
    );

    // Capture. The pending batch is flushed into the world first, so the
    // snapshot holds no in-flight vector.
    let world = snapshot_world(&mut k, &mut router);
    let at_snap = counts.read(&k);

    // First future.
    assert_eq!(
        drive(&mut k, &mut router, 5_000_000, legacy),
        RunOutcome::AllExited
    );
    let first = k.observable();
    let first_stats = router.stats;
    let first_delta = delta(at_snap, counts.read(&k));

    // Rewind, then run a short stretch so a *new* pending batch forms
    // under the restored chain...
    restore_world(&mut k, &mut router, &world);
    assert_eq!(
        drive(&mut k, &mut router, 120, legacy),
        RunOutcome::StepLimit
    );
    // ...and rewind again: the live pending batch must be discarded, the
    // dispatch tables recompiled, the vDSO gating recomputed.
    restore_world(&mut k, &mut router, &world);
    let mid = counts.read(&k);

    // Second future: must be bit-identical to the first.
    assert_eq!(
        drive(&mut k, &mut router, 5_000_000, legacy),
        RunOutcome::AllExited
    );
    assert_eq!(k.observable(), first, "replayed future diverged");
    assert_eq!(router.stats, first_stats, "router counters diverged");
    assert!(k.check_quiescent().is_empty(), "{:?}", k.check_quiescent());

    SnapRun {
        obs: first,
        first: first_delta,
        second: delta(mid, counts.read(&k)),
        intercepted: router.stats.intercepted,
        fast_hits: k.fast_stats.hits(),
    }
}

struct ForkRun {
    obs: Observable,
    counts: Reading,
    chains_forked: u64,
    intercepted: u64,
}

/// A client runs 50 `getpid`s under a tap stacked on the watcher, forks,
/// and its child runs 300 more: the child's chain is compiled from the
/// clones at fork time, so the shared tap must see all 350.
fn run_forking(fast: bool, legacy: bool) -> ForkRun {
    let src = "
main:   li r10, 50
ploop:  addi r10, r10, -1
        sys getpid
        jnz r10, ploop
        sys fork
        jz r0, child
        li r0, 0
        li r1, 0
        li r2, 0
        li r3, 0
        sys wait4
        li r0, 0
        sys exit
child:  li r10, 300
cloop:  addi r10, r10, -1
        sys getpid
        jnz r10, cloop
        li r0, 0
        sys exit
";
    let img = ia_vm::assemble(src).unwrap();
    let mut k = KernelBuilder::new().fast_path(fast).build();
    let pid = k.spawn_image(&img, &[b"fork"], b"fork");
    let mut router = InterposedRouter::new();
    let counts = Counts::default();
    wrap_process(&mut k, &mut router, pid, counts.watcher(), &[]);
    wrap_process(&mut k, &mut router, pid, counts.tap(), &[]);
    assert_eq!(
        drive(&mut k, &mut router, 5_000_000, legacy),
        RunOutcome::AllExited
    );
    assert!(k.check_quiescent().is_empty(), "{:?}", k.check_quiescent());
    ForkRun {
        obs: k.observable(),
        counts: counts.read(&k),
        chains_forked: router.stats.chains_forked,
        intercepted: router.stats.intercepted,
    }
}

#[test]
fn snapshot_restore_invalidates_fast_state_identically() {
    let fast = run_snapshot_restore(true, false);
    let slow = run_snapshot_restore(false, false);
    let legacy = run_snapshot_restore(false, true);

    let [sys, calls, batches, _] = fast.first;
    assert!(sys > 0, "snapshot taken after the loop ended");
    // The watcher sees every trap after the snapshot except the exit,
    // which never returns and so never joins a vector.
    assert_eq!(calls, sys - 1, "watcher missed vectored calls");
    assert!(batches > 0, "no vectored upcalls delivered");
    assert_eq!(
        fast.first, fast.second,
        "replay saw different upcalls (stale batch or table leaked?)"
    );
    assert!(fast.fast_hits > 0, "fast run never used the in-loop lane");
    assert_eq!(slow.fast_hits, 0, "slow run must not use the lane");

    for (label, other) in [("fast off", &slow), ("legacy", &legacy)] {
        assert_eq!(fast.obs, other.obs, "observable state diverged vs {label}");
        assert_eq!(fast.first, other.first, "vs {label}");
        assert_eq!(fast.second, other.second, "vs {label}");
        assert_eq!(fast.intercepted, other.intercepted, "vs {label}");
    }
}

#[test]
fn chain_mutation_invalidates_fast_state_identically() {
    let fast = run_mutating(true, false);
    let slow = run_mutating(false, false);
    let legacy = run_mutating(false, true);

    let [pushed, stacked, removed] = fast.phases;
    // Push: the watcher sees every trap, as vectors; no tap yet.
    assert!(pushed[0] > 0);
    assert_eq!(pushed[1], pushed[0], "push: watcher missed calls");
    assert!(pushed[2] > 0, "push: no vectored upcalls delivered");
    assert_eq!(pushed[3], 0);
    // Stacked tap: getpid is no longer batchable, so the tap and the
    // watcher below it see each call individually.
    assert!(stacked[0] > 0);
    assert_eq!(stacked[3], stacked[0], "push: tap missed getpids");
    assert_eq!(stacked[1], stacked[0], "push: watcher missed downcalls");
    assert_eq!(stacked[2], 0, "push: getpid still vectored under the tap");
    // `with_chain` removal: vectors again, and the tap is gone. The exit
    // never returns, so it never joins a vector.
    assert!(removed[0] > 0);
    assert_eq!(
        removed[1],
        removed[0] - 1,
        "with_chain: watcher missed calls"
    );
    assert!(removed[2] > 0, "with_chain: getpid not vectored again");
    assert_eq!(removed[3], 0, "with_chain: removed tap still dispatched");
    assert!(fast.intercepted > 0 && fast.unmanaged > 0);
    assert!(fast.fast_hits > 0, "fast run never used the in-loop lane");
    assert_eq!(slow.fast_hits, 0, "slow run must not use the lane");

    for (label, other) in [("fast off", &slow), ("legacy", &legacy)] {
        assert_eq!(fast.obs, other.obs, "observable state diverged vs {label}");
        assert_eq!(fast.phases, other.phases, "vs {label}");
        assert_eq!(fast.intercepted, other.intercepted, "vs {label}");
        assert_eq!(fast.unmanaged, other.unmanaged, "vs {label}");
    }
}

#[test]
fn fork_invalidates_fast_state_identically() {
    let fast = run_forking(true, false);
    let slow = run_forking(false, false);
    let legacy = run_forking(false, true);

    assert_eq!(fast.chains_forked, 1);
    let [_, calls, _, taps] = fast.counts;
    assert_eq!(taps, 350, "the child's chain missed getpids");
    assert!(calls >= 350, "watcher saw {calls}");

    for (label, other) in [("fast off", &slow), ("legacy", &legacy)] {
        assert_eq!(fast.obs, other.obs, "observable state diverged vs {label}");
        assert_eq!(fast.counts, other.counts, "vs {label}");
        assert_eq!(fast.chains_forked, other.chains_forked, "vs {label}");
        assert_eq!(fast.intercepted, other.intercepted, "vs {label}");
    }
}
