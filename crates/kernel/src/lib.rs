//! # ia-kernel — the simulated 4.3BSD kernel
//!
//! The lowest instance of the system interface: processes (fork / execve /
//! wait / exit, process groups, credentials), descriptors and system-wide
//! open files, signals with full delivery semantics, pipes, sockets,
//! devices, a round-robin scheduler with blocking channels, and a
//! calibrated virtual clock.
//!
//! The kernel *implements* every system call ([`Kernel::syscall`]) but does
//! not decide how traps reach it: that is the [`sched::SyscallRouter`]
//! seam, where the `ia-interpose` crate attaches agent chains. Running the
//! kernel with the identity router ([`sched::KernelRouter`]) is the paper's
//! Figure 1-1 — "kernel provides all instances of the system interface".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod console;
pub mod exec_cache;
pub mod files;
pub mod kernel;
pub mod process;
pub mod sched;
pub mod snapshot;
pub mod socket;
mod syscalls;

pub use clock::{Clock, MachineProfile, EPOCH_SECS, I486_25, VAX_6250};
pub use console::{Console, DEV_NULL, DEV_TTY, DEV_ZERO};
pub use exec_cache::{content_digest, ExecCache, PreparedImage};
pub use files::{FdEntry, FdTable, FileKind, OpenFile, OpenFiles, SockId, FD_TABLE_SIZE};
pub use ia_obs::{Event as ObsEvent, Obs, Outcome as ObsOutcome, Stamped};
pub use ia_vm::machine::{BatchCall, FastMode};
pub use kernel::{
    push_args, Engine, ExecGate, FastPathStats, FusionStats, Kernel, KernelBuilder, PerfCounters,
    SysOutcome, WakeEvent,
};
pub use process::{
    PendingTrap, Pid, PidHasher, PidMap, ProcState, Process, SigAction, SigState, Usage,
    WaitChannel,
};
pub use sched::{
    run, run_legacy, FastSpec, KernelRouter, RunLimits, RunOutcome, SyscallRouter, SLICE,
};
pub use snapshot::{ClientView, KernelSnapshot, Observable};
pub use socket::{SockState, Socket, SocketTable};
