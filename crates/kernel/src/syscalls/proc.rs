//! Process-management system calls.

use std::sync::Arc;

use ia_abi::signal::WaitStatus;
use ia_abi::types::MAXPATHLEN;
use ia_abi::{Errno, FileMode, RawArgs, Rusage};
use ia_vm::VmState;

use super::{done, SysOutcome};
use crate::kernel::{push_args, Kernel, WakeEvent};
use crate::process::{Pid, ProcState, WaitChannel};

/// `wait4` option: don't block.
pub const WNOHANG: u64 = 1;

impl Kernel {
    /// `fork()` — duplicate the calling process. Returns the child pid to
    /// the parent; the child resumes with 0 in `r0`.
    pub(crate) fn sys_fork(&mut self, pid: Pid) -> SysOutcome {
        if let Err(e) = self.proc(pid) {
            return SysOutcome::err(e);
        }
        let child_pid = {
            let p = self.next_pid;
            self.next_pid += 1;
            p
        };
        // `fork_child` shares the parent's pages copy-on-write and gives
        // the child a 0 return value in its registers.
        let child = self
            .proc_mut(pid)
            .expect("checked above")
            .fork_child(child_pid);
        // Shared open files gain a reference per inherited descriptor.
        let shared: Vec<_> = child.fds.iter().map(|(_, e)| e.file).collect();
        for f in shared {
            self.files.incref(f);
        }
        self.procs.insert(child_pid, child);
        self.run_queue.insert(child_pid);
        SysOutcome::Done(Ok([u64::from(child_pid), 0]))
    }

    /// `execve(path, argv, envp)` — replace the process image.
    ///
    /// This performs the full sequence the paper's toolkit had to
    /// reimplement (§3.5.1.2): read the program file, verify execute
    /// permission, close close-on-exec descriptors, reset caught signals,
    /// clear the address space, load the image, push the arguments, and
    /// transfer control.
    pub(crate) fn sys_execve(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        let r: Result<(), Errno> = (|| {
            let path = self.read_path(pid, args[0])?;
            let ino = self.resolve_for(pid, &path)?;
            let node = self.fs.get(ino)?;
            let cred = self.proc(pid)?.cred();
            if !node.permits(cred, 1) {
                return Err(Errno::EACCES);
            }
            if node.as_file().is_none() {
                return Err(Errno::EACCES);
            }
            let setuid_owner = if node.meta.perm & FileMode::S_ISUID != 0 {
                Some(node.meta.uid)
            } else {
                None
            };
            let setgid_group = if node.meta.perm & FileMode::S_ISGID != 0 {
                Some(node.meta.gid)
            } else {
                None
            };
            let size = node.size() as usize;
            let now = self.clock.now();
            let bytes = self.fs.read_at(ino, 0, size, now)?;
            // Parse + gate + decode + fuse through the digest-keyed cache:
            // an exec storm over the same binary pays for all four once.
            let prepared = self.prepare_exec(&bytes)?;

            // Decode argv (a NULL-terminated pointer array) before the
            // address space is destroyed.
            let mut argv: Vec<Vec<u8>> = Vec::new();
            if args[1] != 0 {
                let mem = &self.proc(pid)?.mem;
                for i in 0..64u64 {
                    let ptr = mem.read_u64(args[1] + i * 8)?;
                    if ptr == 0 {
                        break;
                    }
                    argv.push(mem.read_cstr(ptr, MAXPATHLEN)?);
                }
            }
            if argv.is_empty() {
                argv.push(path.clone());
            }

            // Point of no return.
            let cloexec = self.proc_mut(pid)?.fds.drain_cloexec();
            for e in cloexec {
                self.release_file(e.file);
            }
            let p = self.proc_mut(pid)?;
            p.sig.reset_for_exec();
            p.sig.suspend_saved = None;
            p.select_deadline = None;
            p.itimer = None;
            prepared.image.load_into(&mut p.mem)?;
            p.code = Arc::clone(&prepared.code);
            p.fused = Arc::clone(&prepared.fused);
            p.vm = VmState::new(prepared.image.entry, p.mem.size());
            let argv_refs: Vec<&[u8]> = argv.iter().map(Vec::as_slice).collect();
            push_args(&mut p.vm, &mut p.mem, &argv_refs)?;
            p.name = path.rsplit(|&c| c == b'/').next().unwrap_or(&path).to_vec();
            if let Some(uid) = setuid_owner {
                p.euid = uid;
            }
            if let Some(gid) = setgid_group {
                p.egid = gid;
            }
            Ok(())
        })();
        match r {
            Ok(()) => SysOutcome::NoReturn,
            Err(e) => SysOutcome::err(e),
        }
    }

    /// `_exit(status)`
    pub(crate) fn sys_exit(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        self.terminate(pid, ia_abi::signal::wait_status_exited(args[0] as u8));
        SysOutcome::NoReturn
    }

    /// `wait4(pid, status, options, rusage)` → pid of the reaped child
    pub(crate) fn sys_wait4(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        let want = args[0] as i64;
        let children: Vec<Pid> = self
            .procs
            .values()
            .filter(|p| p.ppid == pid)
            .filter(|p| want <= 0 || p.pid as i64 == want)
            .map(|p| p.pid)
            .collect();
        if children.is_empty() {
            return SysOutcome::err(Errno::ECHILD);
        }
        let mut zombies: Vec<Pid> = children
            .iter()
            .copied()
            .filter(|c| matches!(self.procs[c].state, ProcState::Zombie(_)))
            .collect();
        zombies.sort_unstable();
        let Some(child) = zombies.first().copied() else {
            if args[2] & WNOHANG != 0 {
                return SysOutcome::ok1(0);
            }
            return SysOutcome::Block(WaitChannel::Child);
        };
        let reaped = self.procs.remove(&child).expect("listed");
        let ProcState::Zombie(status) = reaped.state else {
            unreachable!("filtered for zombies")
        };
        self.exit_log.insert(child, status);
        let ru: Rusage = reaped.rusage(self.profile.insn_ns);
        let r = (|| {
            let p = self.proc_mut(pid)?;
            if args[1] != 0 {
                p.mem.write_u64(args[1], u64::from(status))?;
            }
            if args[3] != 0 {
                p.mem.write_struct(args[3], &ru)?;
            }
            Ok([u64::from(child), 0])
        })();
        done(r)
    }

    /// `getpid()`
    pub(crate) fn sys_getpid(&mut self, pid: Pid) -> SysOutcome {
        SysOutcome::ok1(u64::from(pid))
    }

    /// `getppid()`
    pub(crate) fn sys_getppid(&mut self, pid: Pid) -> SysOutcome {
        match self.proc(pid) {
            Ok(p) => SysOutcome::ok1(u64::from(p.ppid)),
            Err(e) => SysOutcome::err(e),
        }
    }

    /// `getuid()`
    pub(crate) fn sys_getuid(&mut self, pid: Pid) -> SysOutcome {
        match self.proc(pid) {
            Ok(p) => SysOutcome::ok1(u64::from(p.uid)),
            Err(e) => SysOutcome::err(e),
        }
    }

    /// `geteuid()`
    pub(crate) fn sys_geteuid(&mut self, pid: Pid) -> SysOutcome {
        match self.proc(pid) {
            Ok(p) => SysOutcome::ok1(u64::from(p.euid)),
            Err(e) => SysOutcome::err(e),
        }
    }

    /// `getgid()`
    pub(crate) fn sys_getgid(&mut self, pid: Pid) -> SysOutcome {
        match self.proc(pid) {
            Ok(p) => SysOutcome::ok1(u64::from(p.gid)),
            Err(e) => SysOutcome::err(e),
        }
    }

    /// `getegid()`
    pub(crate) fn sys_getegid(&mut self, pid: Pid) -> SysOutcome {
        match self.proc(pid) {
            Ok(p) => SysOutcome::ok1(u64::from(p.egid)),
            Err(e) => SysOutcome::err(e),
        }
    }

    /// `setuid(uid)` — the superuser sets both ids; others may only revert
    /// the effective id to the real id.
    pub(crate) fn sys_setuid(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        let uid = args[0] as u32;
        let r = (|| {
            let p = self.proc_mut(pid)?;
            if p.euid == 0 {
                p.uid = uid;
                p.euid = uid;
            } else if uid == p.uid {
                p.euid = uid;
            } else {
                return Err(Errno::EPERM);
            }
            Ok(())
        })();
        super::done0(r)
    }

    /// `setgid(gid)`
    pub(crate) fn sys_setgid(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        let gid = args[0] as u32;
        let r = (|| {
            let p = self.proc_mut(pid)?;
            if p.euid == 0 {
                p.gid = gid;
                p.egid = gid;
            } else if gid == p.gid {
                p.egid = gid;
            } else {
                return Err(Errno::EPERM);
            }
            Ok(())
        })();
        super::done0(r)
    }

    /// `setreuid(ruid, euid)` — `u32::MAX` (-1) leaves a field unchanged.
    pub(crate) fn sys_setreuid(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        let (ruid, euid) = (args[0] as u32, args[1] as u32);
        let r = (|| {
            let p = self.proc_mut(pid)?;
            let privileged = p.euid == 0;
            if ruid != u32::MAX {
                if !privileged && ruid != p.uid && ruid != p.euid {
                    return Err(Errno::EPERM);
                }
                p.uid = ruid;
            }
            if euid != u32::MAX {
                if !privileged && euid != p.uid && euid != p.euid {
                    return Err(Errno::EPERM);
                }
                p.euid = euid;
            }
            Ok(())
        })();
        super::done0(r)
    }

    /// `setregid(rgid, egid)`
    pub(crate) fn sys_setregid(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        let (rgid, egid) = (args[0] as u32, args[1] as u32);
        let r = (|| {
            let p = self.proc_mut(pid)?;
            let privileged = p.euid == 0;
            if rgid != u32::MAX {
                if !privileged && rgid != p.gid && rgid != p.egid {
                    return Err(Errno::EPERM);
                }
                p.gid = rgid;
            }
            if egid != u32::MAX {
                if !privileged && egid != p.gid && egid != p.egid {
                    return Err(Errno::EPERM);
                }
                p.egid = egid;
            }
            Ok(())
        })();
        super::done0(r)
    }

    /// `getpgrp()`
    pub(crate) fn sys_getpgrp(&mut self, pid: Pid) -> SysOutcome {
        match self.proc(pid) {
            Ok(p) => SysOutcome::ok1(u64::from(p.pgrp)),
            Err(e) => SysOutcome::err(e),
        }
    }

    /// `setpgid(pid, pgrp)` — a process may move itself or its children.
    pub(crate) fn sys_setpgid(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        let target = if args[0] == 0 { pid } else { args[0] as Pid };
        let pgrp = if args[1] == 0 { target } else { args[1] as Pid };
        let r = (|| {
            let t = self.procs.get(&target).ok_or(Errno::ESRCH)?;
            if target != pid && t.ppid != pid {
                return Err(Errno::EPERM);
            }
            self.procs.get_mut(&target).expect("checked").pgrp = pgrp;
            Ok(())
        })();
        super::done0(r)
    }

    /// `setsid()` — become a process-group leader with a fresh group.
    pub(crate) fn sys_setsid(&mut self, pid: Pid) -> SysOutcome {
        let r = (|| {
            let p = self.proc_mut(pid)?;
            if p.pgrp == pid {
                return Err(Errno::EPERM);
            }
            p.pgrp = pid;
            Ok([u64::from(pid), 0])
        })();
        done(r)
    }

    /// `getpriority(which, who)` — process scope only.
    pub(crate) fn sys_getpriority(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        let who = if args[1] == 0 { pid } else { args[1] as Pid };
        match self.procs.get(&who) {
            Some(p) => SysOutcome::ok1(p.priority as u64),
            None => SysOutcome::err(Errno::ESRCH),
        }
    }

    /// `setpriority(which, who, prio)` — only the superuser may raise
    /// priority (lower the nice value).
    pub(crate) fn sys_setpriority(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        let who = if args[1] == 0 { pid } else { args[1] as Pid };
        let prio = (args[2] as i64 as i32).clamp(-20, 20);
        let r = (|| {
            let caller_euid = self.proc(pid)?.euid;
            let t = self.procs.get_mut(&who).ok_or(Errno::ESRCH)?;
            if prio < t.priority && caller_euid != 0 {
                return Err(Errno::EACCES);
            }
            t.priority = prio;
            Ok(())
        })();
        super::done0(r)
    }

    /// Decodes a wait-status word, re-exported convenience for tools.
    #[must_use]
    pub fn decode_wait_status(status: u32) -> Option<WaitStatus> {
        WaitStatus::decode(status)
    }
}

// Waking parents is done by `terminate`; wait4's Block(Child) channel is
// matched against `WakeEvent::ChildOf` in the scheduler.
#[allow(unused_imports)]
use WakeEvent as _WakeEventDocAnchor;
