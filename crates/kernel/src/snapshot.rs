//! Observable-state snapshots and kernel invariant checks.
//!
//! The transparency claim of the paper (§3.1) is a statement about what a
//! client — or anyone inspecting the machine afterwards — can observe. This
//! module defines that observation precisely, so differential tests
//! (`ia-conform`, `tests/transparency.rs`) compare a single well-defined
//! value instead of each picking its own ad-hoc subset of kernel state.
//!
//! Two granularities:
//!
//! * [`Observable`] — everything, including the virtual clock and executed
//!   instruction count. Two runs of the *same* configuration under
//!   different schedulers must agree on all of it.
//! * [`ClientView`] — what an application (or user diffing the disk
//!   afterwards) can see: console bytes, exit statuses, and filesystem
//!   content. Runs with and without pass-through agents must agree on
//!   this, while clocks legitimately differ by the interposition overhead.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};

use ia_vfs::{Fs, Ino};

use crate::clock::Clock;
use crate::console::Console;
use crate::files::OpenFiles;
use crate::kernel::{FastPathStats, FlockState, Kernel, PerfCounters, WakeEvent};
use crate::process::{Pid, PidMap, ProcState, Process};
use crate::socket::SocketTable;

/// Complete observable machine state after (or during) a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observable {
    /// Everything a client could observe.
    pub client: ClientView,
    /// Virtual nanoseconds elapsed.
    pub clock_ns: u64,
    /// Client instructions executed.
    pub total_insns: u64,
    /// Syscalls dispatched (including agent downcalls).
    pub total_syscalls: u64,
}

/// The client-visible portion of machine state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientView {
    /// Raw console output bytes.
    pub console: Vec<u8>,
    /// Wait-status word of every process that ever exited, by pid.
    pub exit_statuses: BTreeMap<Pid, u32>,
    /// Content digest of the reachable filesystem tree (timestamp-free;
    /// see `Fs::content_digest`).
    pub vfs_digest: u64,
    /// Regular-file count.
    pub fs_files: usize,
    /// Total regular-file bytes.
    pub fs_bytes: u64,
}

/// A full capture of the kernel's world state: filesystem, process table
/// (including every address space), descriptor and socket tables, console,
/// scheduler queues, timers, clocks and counters.
///
/// The filesystem part shares structure with the live kernel (O(1), see
/// [`ia_vfs::FsSnapshot`]), and process address spaces share their pages
/// copy-on-write ([`ia_vm::AddressSpace::share_clone`]): a capture copies only
/// the pages written since the last capture or fork, and otherwise costs
/// O(pages) refcount bumps, as does a restore. The live side copies a
/// shared page when it next writes to it.
///
/// Deliberately **not** captured:
///
/// * the flight recorder (`Kernel::obs`) — it is an observer of the world,
///   not part of it; a restore rewinds what happened, not the record that
///   it happened (which is exactly what time-travel replay needs);
/// * the exec gate, machine profile, execution engine and fast-path knob —
///   host policy, preserved across [`Kernel::restore`];
/// * the snapshot-id counter — ids must stay unique across restores.
#[derive(Debug, Clone)]
pub struct KernelSnapshot {
    /// Unique id of this capture, for repro artifacts and logs.
    pub id: u64,
    fs: Fs,
    clock: Clock,
    console: Console,
    files: OpenFiles,
    sockets: SocketTable,
    procs: PidMap<Process>,
    next_pid: Pid,
    wakeups: Vec<WakeEvent>,
    exit_log: PidMap<u32>,
    flocks: HashMap<Ino, FlockState>,
    run_queue: BTreeSet<Pid>,
    blocked_queue: BTreeSet<Pid>,
    timer_heap: BinaryHeap<Reverse<(u64, Pid)>>,
    select_heap: BinaryHeap<Reverse<(u64, Pid)>>,
    perf: PerfCounters,
    total_syscalls: u64,
    total_insns: u64,
    fast_stats: FastPathStats,
}

impl Kernel {
    /// Captures the full world state. See [`KernelSnapshot`] for what is
    /// and is not included. Safe at any scheduler boundary (between
    /// `run()` calls, or from inside an agent's syscall hook).
    pub fn snapshot(&mut self) -> KernelSnapshot {
        let id = self.next_snapshot_id;
        self.next_snapshot_id += 1;
        KernelSnapshot {
            id,
            fs: self.fs.clone(),
            clock: self.clock,
            console: self.console.clone(),
            files: self.files.clone(),
            sockets: self.sockets.clone(),
            procs: self
                .procs
                .iter_mut()
                .map(|(&pid, p)| (pid, p.share_clone()))
                .collect(),
            next_pid: self.next_pid,
            wakeups: self.wakeups.clone(),
            exit_log: self.exit_log.clone(),
            flocks: self.flocks.clone(),
            run_queue: self.run_queue.clone(),
            blocked_queue: self.blocked_queue.clone(),
            timer_heap: self.timer_heap.clone(),
            select_heap: self.select_heap.clone(),
            perf: self.perf,
            total_syscalls: self.total_syscalls,
            total_insns: self.total_insns,
            fast_stats: self.fast_stats.clone(),
        }
    }

    /// Rewinds the world to `snap`. The flight recorder, exec gate,
    /// machine profile, execution engine, fast-path knob and snapshot-id
    /// counter persist (they are not world state); everything else —
    /// filesystem, processes, descriptors, sockets, console, queues,
    /// timers, clock, counters — is restored bit-identically.
    ///
    /// Callers holding router state (agent chains, pending upcall batches,
    /// compiled dispatch tables) must invalidate it too; see
    /// `ia_interpose::InterposedRouter::snapshot`/`restore`.
    pub fn restore(&mut self, snap: &KernelSnapshot) {
        self.fs = snap.fs.clone();
        self.clock = snap.clock;
        self.console = snap.console.clone();
        self.files = snap.files.clone();
        self.sockets = snap.sockets.clone();
        self.procs = snap.procs.clone();
        self.next_pid = snap.next_pid;
        self.wakeups = snap.wakeups.clone();
        self.exit_log = snap.exit_log.clone();
        self.flocks = snap.flocks.clone();
        self.run_queue = snap.run_queue.clone();
        self.blocked_queue = snap.blocked_queue.clone();
        self.timer_heap = snap.timer_heap.clone();
        self.select_heap = snap.select_heap.clone();
        self.perf = snap.perf;
        self.total_syscalls = snap.total_syscalls;
        self.total_insns = snap.total_insns;
        self.fast_stats = snap.fast_stats.clone();
    }

    /// Forks the whole world: a new kernel whose state equals this one's,
    /// sharing filesystem structure until either side diverges. The branch
    /// keeps the same machine profile and exec gate but gets a fresh
    /// (disabled) flight recorder — observers are per-kernel.
    pub fn branch(&mut self) -> Kernel {
        let snap = self.snapshot();
        // The branch shares the parent's exec cache: prepared images are
        // host-side bookkeeping, identical under the (shared) gate.
        let mut child = crate::KernelBuilder::new()
            .profile(self.profile)
            .fast_path(self.fast_path)
            .engine(self.engine)
            .exec_cache(self.exec_cache.clone())
            .build();
        child.exec_gate = self.exec_gate.clone();
        child.next_snapshot_id = self.next_snapshot_id;
        child.restore(&snap);
        child
    }

    /// Rewinds *only the filesystem tree* to a [`ia_vfs::FsSnapshot`]
    /// while processes keep running — the transactional-abort primitive.
    ///
    /// Open descriptors survive the rewind: every restored inode's
    /// `open_refs` is re-derived from the live open-file table, file locks
    /// on inodes that no longer exist are dropped, and descriptors whose
    /// inode vanished (created after the capture) dangle harmlessly —
    /// subsequent operations on them fail with `ENOENT`, and close is a
    /// no-op, exactly as for an externally-revoked vnode.
    pub fn rollback_fs(&mut self, snap: &ia_vfs::FsSnapshot) {
        let mut live_refs: BTreeMap<Ino, u32> = BTreeMap::new();
        for (_, f) in self.files.iter() {
            if let crate::files::FileKind::Vnode(ino) = f.kind {
                *live_refs.entry(ino).or_insert(0) += 1;
            }
        }
        self.fs.restore_reconciled(snap, &live_refs);
        let dead: Vec<Ino> = self
            .flocks
            .keys()
            .filter(|ino| !self.fs.exists(**ino))
            .copied()
            .collect();
        for ino in dead {
            self.flocks.remove(&ino);
        }
    }

    /// Snapshots the full observable state.
    #[must_use]
    pub fn observable(&self) -> Observable {
        Observable {
            client: self.client_view(),
            clock_ns: self.clock.elapsed_ns(),
            total_insns: self.total_insns,
            total_syscalls: self.total_syscalls,
        }
    }

    /// Snapshots the client-visible state only.
    #[must_use]
    pub fn client_view(&self) -> ClientView {
        let stats = self.fs.stats();
        ClientView {
            console: self.console.output().to_vec(),
            exit_statuses: self.exit_statuses(),
            vfs_digest: self.fs.content_digest(),
            fs_files: stats.files,
            fs_bytes: stats.bytes,
        }
    }

    /// Wait-status of every exited process (reaped or zombie), by pid.
    #[must_use]
    pub fn exit_statuses(&self) -> BTreeMap<Pid, u32> {
        let mut m: BTreeMap<Pid, u32> = self.exit_log.iter().map(|(&p, &s)| (p, s)).collect();
        for p in self.procs.values() {
            if let ProcState::Zombie(st) = p.state {
                m.insert(p.pid, st);
            }
        }
        m
    }

    /// Structural invariants that must hold at any scheduler quiescent
    /// point, regardless of what programs or agents did. Returns a
    /// description of each violation; an empty vector means consistent.
    #[must_use]
    pub fn check_invariants(&self) -> Vec<String> {
        let mut bad = Vec::new();

        // Scheduler queues and process states must agree.
        for &pid in &self.run_queue {
            match self.procs.get(&pid).map(|p| &p.state) {
                Some(ProcState::Runnable) => {}
                other => bad.push(format!("run_queue pid {pid} has state {other:?}")),
            }
        }
        for &pid in &self.blocked_queue {
            match self.procs.get(&pid).map(|p| &p.state) {
                Some(ProcState::Blocked(_)) => {}
                other => bad.push(format!("blocked_queue pid {pid} has state {other:?}")),
            }
        }
        for p in self.procs.values() {
            match p.state {
                ProcState::Runnable if !self.run_queue.contains(&p.pid) => {
                    bad.push(format!("runnable pid {} missing from run_queue", p.pid));
                }
                ProcState::Blocked(_) if !self.blocked_queue.contains(&p.pid) => {
                    bad.push(format!("blocked pid {} missing from blocked_queue", p.pid));
                }
                ProcState::Zombie(_) if p.fds.iter().count() != 0 => {
                    bad.push(format!("zombie pid {} still holds descriptors", p.pid));
                }
                _ => {}
            }
        }

        // Every descriptor must reference a live open-file entry, and the
        // per-entry refcount must equal the number of descriptors (across
        // all processes) pointing at it.
        let mut referenced: BTreeMap<usize, u32> = BTreeMap::new();
        for p in self.procs.values() {
            for (_, e) in p.fds.iter() {
                *referenced.entry(e.file).or_insert(0) += 1;
                if self.files.get(e.file).is_err() {
                    bad.push(format!("pid {} fd references dead file {}", p.pid, e.file));
                }
            }
        }
        for (idx, f) in self.files.iter() {
            let held = referenced.get(&idx).copied().unwrap_or(0);
            if f.refs != held {
                bad.push(format!(
                    "open file {idx} refcount {} but {held} descriptors point at it",
                    f.refs
                ));
            }
        }
        bad
    }

    /// Invariants that must hold once every process has exited: nothing
    /// may leak. Returns violation descriptions, empty when clean.
    #[must_use]
    pub fn check_quiescent(&self) -> Vec<String> {
        let mut bad = self.check_invariants();
        if self.running_count() != 0 {
            bad.push(format!("{} processes still running", self.running_count()));
        }
        if self.files.live() != 0 {
            bad.push(format!("{} open files leaked", self.files.live()));
        }
        if !self.fs.pipes.is_empty() {
            bad.push(format!("{} pipes leaked", self.fs.pipes.len()));
        }
        if self.sockets.live() != 0 {
            bad.push(format!("{} sockets leaked", self.sockets.live()));
        }
        if !self.run_queue.is_empty() || !self.blocked_queue.is_empty() {
            bad.push(format!(
                "scheduler queues not empty: run={:?} blocked={:?}",
                self.run_queue, self.blocked_queue
            ));
        }
        bad
    }
}

#[cfg(test)]
mod tests {

    use crate::kernel::KernelBuilder;
    use crate::sched::RunOutcome;
    use ia_vm::assemble;

    #[test]
    fn fresh_kernel_is_consistent_and_quiescent() {
        let k = KernelBuilder::new().build();
        assert!(k.check_invariants().is_empty());
        assert!(k.check_quiescent().is_empty());
    }

    #[test]
    fn snapshot_restore_mid_run_replays_identically() {
        // A program that writes, loops and exits; snapshot it mid-flight,
        // run to completion, rewind, run again: the two futures must be
        // bit-identical in every observable dimension.
        let src = r#"
            .data
            path: .asciz "/tmp/log"
            msg:  .asciz "0123456789abcdef"
            .text
            main:
                la r0, path
                li r1, 0x601
                li r2, 420
                sys open
                li r10, 40
            loop:
                li r0, 3
                la r1, msg
                li r2, 16
                sys write
                addi r10, r10, -1
                jnz r10, loop
                li r0, 9
                sys exit
        "#;
        let mut k = KernelBuilder::new().build();
        let img = assemble(src).unwrap();
        k.spawn_image(&img, &[b"t"], b"t");
        let mut router = crate::sched::KernelRouter;
        assert_eq!(
            crate::sched::run(
                &mut k,
                &mut router,
                crate::sched::RunLimits { max_steps: 200 }
            ),
            RunOutcome::StepLimit
        );

        let snap = k.snapshot();
        let mid = k.observable();
        assert_eq!(k.run_to_completion(), RunOutcome::AllExited);
        let first = k.observable();
        assert!(k.check_quiescent().is_empty());

        k.restore(&snap);
        assert_eq!(k.observable(), mid, "restore rewinds to capture time");
        assert!(
            k.check_invariants().is_empty(),
            "{:?}",
            k.check_invariants()
        );
        assert_eq!(k.run_to_completion(), RunOutcome::AllExited);
        assert_eq!(k.observable(), first, "replayed future is identical");
        assert!(k.check_quiescent().is_empty());
    }

    #[test]
    fn branch_is_isolated_from_parent() {
        let src = r#"
            .data
            path: .asciz "/tmp/branchfile"
            msg:  .asciz "payload"
            .text
            main:
                la r0, path
                li r1, 0x601
                li r2, 420
                sys open
                la r1, msg
                li r2, 7
                sys write
                li r0, 0
                sys exit
        "#;
        let mut k = KernelBuilder::new().build();
        let img = assemble(src).unwrap();
        k.spawn_image(&img, &[b"t"], b"t");

        let mut b = k.branch();
        assert_eq!(b.observable(), k.observable());

        // Run the branch to completion: the parent must not move.
        let before = k.observable();
        assert_eq!(b.run_to_completion(), RunOutcome::AllExited);
        assert_eq!(k.observable(), before, "parent untouched by branch run");

        // Mutate the parent's fs: the branch's tree must not see it.
        let b_digest = b.client_view().vfs_digest;
        k.write_file(b"/tmp/parent-only", b"x").unwrap();
        assert_eq!(b.client_view().vfs_digest, b_digest);

        // The parent then reaches the same end state as the branch did.
        assert_eq!(k.run_to_completion(), RunOutcome::AllExited);
        assert_eq!(k.client_view().console, b.client_view().console);
        assert_eq!(k.exit_statuses(), b.exit_statuses());
    }

    #[test]
    fn snapshot_ids_stay_unique_across_restore() {
        let mut k = KernelBuilder::new().build();
        let s1 = k.snapshot();
        k.restore(&s1);
        let s2 = k.snapshot();
        assert_ne!(s1.id, s2.id, "restore must not rewind the id counter");
    }

    #[test]
    fn restore_keeps_host_policy_knobs() {
        let mut k = KernelBuilder::new().build();
        let snap = k.snapshot();
        k.fast_path = false;
        k.engine = crate::kernel::Engine::Plain;
        k.restore(&snap);
        assert!(!k.fast_path, "restore rewound the fast-path knob");
        assert_eq!(
            k.engine,
            crate::kernel::Engine::Plain,
            "restore rewound the engine"
        );
    }

    #[test]
    fn observable_captures_console_exits_and_digest() {
        let src = r#"
            .data
            msg:  .asciz "hi"
            path: .asciz "/tmp/out"
            .text
            main:
                la r0, path
                li r1, 0x601   ; O_WRONLY|O_CREAT|O_TRUNC
                li r2, 420
                sys open
                la r1, msg
                li r2, 2
                sys write
                li r0, 1
                la r1, msg
                li r2, 2
                sys write
                li r0, 7
                sys exit
        "#;
        let mut k = KernelBuilder::new().build();
        k.mkdir_p(b"/tmp").unwrap();
        let img = assemble(src).unwrap();
        let pid = k.spawn_image(&img, &[b"t"], b"t");
        assert_eq!(k.run_to_completion(), RunOutcome::AllExited);
        assert!(k.check_quiescent().is_empty(), "{:?}", k.check_quiescent());

        let obs = k.observable();
        assert_eq!(obs.client.console, b"hi");
        assert_eq!(
            obs.client.exit_statuses.get(&pid),
            Some(&ia_abi::signal::wait_status_exited(7))
        );

        // Same program, fresh kernel: identical client view, and the digest
        // actually covers the file written above.
        let mut k2 = KernelBuilder::new().build();
        k2.mkdir_p(b"/tmp").unwrap();
        k2.spawn_image(&img, &[b"t"], b"t");
        assert_eq!(k2.run_to_completion(), RunOutcome::AllExited);
        assert_eq!(k2.client_view(), obs.client);

        k2.write_file(b"/tmp/out", b"ha").unwrap();
        assert_ne!(k2.client_view().vfs_digest, obs.client.vfs_digest);
        assert_eq!(k2.client_view().fs_bytes, obs.client.fs_bytes);
    }
}
