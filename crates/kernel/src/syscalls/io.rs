//! Descriptor I/O system calls.

use std::borrow::Cow;

use ia_abi::signal::Signal;
use ia_abi::types::IoVec;
use ia_abi::{Errno, FcntlCmd, OpenFlags, RawArgs, Timeval, Whence};
use ia_vfs::pipe::PipeIo;
use ia_vfs::InodeKind;
use ia_vm::AddressSpace;

use super::{done, SysOutcome};
use crate::console::DevRead;
use crate::files::{FdEntry, FileKind};
use crate::kernel::{Kernel, WakeEvent};
use crate::process::{Pid, WaitChannel};
use crate::socket::SockState;

/// Upper bound on a single transfer, to keep simulated buffers sane.
const MAX_IO: usize = 1 << 20;

/// Internal outcome of a transfer attempt.
enum Xfer {
    Data(Vec<u8>),
    Wrote(usize),
    Block(WaitChannel),
}

impl Kernel {
    /// Resolves the pipe a connected socket reads from / writes to.
    fn sock_pipes(
        &self,
        sid: crate::files::SockId,
    ) -> Result<(ia_vfs::PipeId, ia_vfs::PipeId), Errno> {
        match self.sockets.get(sid)?.state {
            SockState::Connected { rx, tx } => Ok((rx, tx)),
            _ => Err(Errno::ENOTCONN),
        }
    }

    fn do_read(&mut self, pid: Pid, fd: u64, len: usize) -> Result<Xfer, Errno> {
        let len = len.min(MAX_IO);
        let entry = self.proc(pid)?.fds.get(fd)?;
        let file = self.files.get(entry.file)?;
        if !file.flags.readable() {
            return Err(Errno::EBADF);
        }
        let (kind, flags, offset) = (file.kind, file.flags, file.offset);
        match kind {
            FileKind::Vnode(ino) => {
                match self.fs.get(ino)?.kind {
                    InodeKind::Directory(_) => return Err(Errno::EISDIR),
                    InodeKind::Regular(_) => {}
                    _ => return Err(Errno::EINVAL),
                }
                let now = self.clock.now();
                let data = self.fs.read_at(ino, offset, len, now)?;
                self.files.get_mut(entry.file)?.offset = offset + data.len() as u64;
                self.clock
                    .advance_ns(data.len() as u64 * self.profile.io_byte_ns());
                self.proc_mut(pid)?.usage.inblock += 1;
                Ok(Xfer::Data(data))
            }
            FileKind::PipeRead(id) => self.pipe_read(id, len, flags),
            FileKind::PipeWrite(_) => Err(Errno::EBADF),
            FileKind::Device(dev) => match self.console.device_read(dev, len)? {
                DevRead::Data(d) => Ok(Xfer::Data(d)),
                DevRead::WouldBlock => {
                    if flags.has(OpenFlags::O_NONBLOCK) {
                        Err(Errno::EWOULDBLOCK)
                    } else {
                        Ok(Xfer::Block(WaitChannel::TtyInput))
                    }
                }
            },
            FileKind::Socket(sid) => {
                let (rx, _) = self.sock_pipes(sid)?;
                self.pipe_read(rx, len, flags)
            }
        }
    }

    fn pipe_read(
        &mut self,
        id: ia_vfs::PipeId,
        len: usize,
        flags: OpenFlags,
    ) -> Result<Xfer, Errno> {
        let pipe = self.fs.pipes.get_mut(id).ok_or(Errno::EBADF)?;
        let mut out = Vec::new();
        match pipe.read(&mut out, len) {
            PipeIo::Done(_) => {
                self.wakeups.push(WakeEvent::Pipe(id));
                Ok(Xfer::Data(out))
            }
            PipeIo::Hangup => Ok(Xfer::Data(Vec::new())),
            PipeIo::WouldBlock => {
                if flags.has(OpenFlags::O_NONBLOCK) {
                    Err(Errno::EWOULDBLOCK)
                } else {
                    Ok(Xfer::Block(WaitChannel::PipeReadable(id)))
                }
            }
        }
    }

    /// Writes the bytes `gather` reads from `pid`'s memory to `fd`. The
    /// bytes are read before the descriptor is checked (a bad buffer fails
    /// before a bad descriptor does) and are written straight from the
    /// borrowed pages: `gather` borrows the process table, the write
    /// borrows the filesystem or the console.
    fn do_write(
        &mut self,
        pid: Pid,
        fd: u64,
        gather: impl FnOnce(&AddressSpace) -> Result<Cow<'_, [u8]>, Errno>,
    ) -> Result<Xfer, Errno> {
        let p = self.procs.get(&pid).ok_or(Errno::ESRCH)?;
        let data = gather(&p.mem)?;
        let entry = p.fds.get(fd)?;
        let file = self.files.get(entry.file)?;
        if !file.flags.writable() {
            return Err(Errno::EBADF);
        }
        let (kind, flags, offset) = (file.kind, file.flags, file.offset);
        let pipe = match kind {
            FileKind::Vnode(ino) => {
                let now = self.clock.now();
                let off = if flags.has(OpenFlags::O_APPEND) {
                    self.fs.get(ino)?.size()
                } else {
                    offset
                };
                let n = self.fs.write_at(ino, off, &data, now)?;
                self.files.get_mut(entry.file)?.offset = off + n as u64;
                self.clock.advance_ns(n as u64 * self.profile.io_byte_ns());
                self.proc_mut(pid)?.usage.oublock += 1;
                return Ok(Xfer::Wrote(n));
            }
            FileKind::Device(dev) => {
                let n = self.console.device_write(dev, &data)?;
                self.proc_mut(pid)?.usage.oublock += 1;
                return Ok(Xfer::Wrote(n));
            }
            FileKind::PipeRead(_) => return Err(Errno::EBADF),
            FileKind::PipeWrite(id) => id,
            FileKind::Socket(sid) => self.sock_pipes(sid)?.1,
        };
        let io = self
            .fs
            .pipes
            .get_mut(pipe)
            .ok_or(Errno::EBADF)?
            .write(&data);
        match io {
            PipeIo::Done(n) => {
                self.wakeups.push(WakeEvent::Pipe(pipe));
                Ok(Xfer::Wrote(n))
            }
            PipeIo::Hangup => {
                // Writing with no readers raises SIGPIPE and fails EPIPE.
                let _ = self.post_signal(pid, Signal::SIGPIPE);
                Err(Errno::EPIPE)
            }
            PipeIo::WouldBlock => {
                if flags.has(OpenFlags::O_NONBLOCK) {
                    Err(Errno::EWOULDBLOCK)
                } else {
                    Ok(Xfer::Block(WaitChannel::PipeWritable(pipe)))
                }
            }
        }
    }

    /// `read(fd, buf, nbyte)`
    pub(crate) fn sys_read(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        match self.do_read(pid, args[0], args[2] as usize) {
            Ok(Xfer::Data(d)) => {
                if let Err(e) = self
                    .proc_mut(pid)
                    .and_then(|p| p.mem.write_bytes(args[1], &d))
                {
                    return SysOutcome::err(e);
                }
                SysOutcome::ok1(d.len() as u64)
            }
            Ok(Xfer::Wrote(_)) => unreachable!("read never writes"),
            Ok(Xfer::Block(ch)) => SysOutcome::Block(ch),
            Err(e) => SysOutcome::err(e),
        }
    }

    /// `write(fd, buf, nbyte)`
    pub(crate) fn sys_write(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        let len = (args[2] as usize).min(MAX_IO);
        match self.do_write(pid, args[0], |mem| mem.read_bytes(args[1], len)) {
            Ok(Xfer::Wrote(n)) => SysOutcome::ok1(n as u64),
            Ok(Xfer::Data(_)) => unreachable!("write never reads"),
            Ok(Xfer::Block(ch)) => SysOutcome::Block(ch),
            Err(e) => SysOutcome::err(e),
        }
    }

    fn read_iovecs(&self, pid: Pid, addr: u64, count: usize) -> Result<Vec<IoVec>, Errno> {
        if count > 16 {
            return Err(Errno::EINVAL);
        }
        let mem = &self.proc(pid)?.mem;
        let mut v = Vec::with_capacity(count);
        for i in 0..count {
            v.push(mem.read_struct::<IoVec>(addr + (i * 16) as u64)?);
        }
        Ok(v)
    }

    /// `readv(fd, iov, iovcnt)` — scatter read.
    pub(crate) fn sys_readv(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        let iov = match self.read_iovecs(pid, args[1], args[2] as usize) {
            Ok(v) => v,
            Err(e) => return SysOutcome::err(e),
        };
        let total: usize = iov.iter().map(|v| v.len as usize).sum();
        match self.do_read(pid, args[0], total.min(MAX_IO)) {
            Ok(Xfer::Data(d)) => {
                let mut off = 0usize;
                for v in &iov {
                    if off >= d.len() {
                        break;
                    }
                    let n = (v.len as usize).min(d.len() - off);
                    if let Err(e) = self
                        .proc_mut(pid)
                        .and_then(|p| p.mem.write_bytes(v.base, &d[off..off + n]))
                    {
                        return SysOutcome::err(e);
                    }
                    off += n;
                }
                SysOutcome::ok1(d.len() as u64)
            }
            Ok(Xfer::Block(ch)) => SysOutcome::Block(ch),
            Ok(Xfer::Wrote(_)) => unreachable!(),
            Err(e) => SysOutcome::err(e),
        }
    }

    /// `writev(fd, iov, iovcnt)` — gather write.
    pub(crate) fn sys_writev(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        let iov = match self.read_iovecs(pid, args[1], args[2] as usize) {
            Ok(v) => v,
            Err(e) => return SysOutcome::err(e),
        };
        let gathered = self.do_write(pid, args[0], |mem| {
            let mut data = Vec::new();
            for v in &iov {
                let len = (v.len as usize).min(MAX_IO - data.len());
                data.extend_from_slice(&mem.read_bytes(v.base, len)?);
            }
            Ok(Cow::Owned(data))
        });
        match gathered {
            Ok(Xfer::Wrote(n)) => SysOutcome::ok1(n as u64),
            Ok(Xfer::Block(ch)) => SysOutcome::Block(ch),
            Ok(Xfer::Data(_)) => unreachable!(),
            Err(e) => SysOutcome::err(e),
        }
    }

    /// `lseek(fd, offset, whence)` → new offset
    pub(crate) fn sys_lseek(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        let r = (|| {
            let entry = self.proc(pid)?.fds.get(args[0])?;
            let file = self.files.get(entry.file)?;
            let whence = Whence::from_u32(args[2] as u32)?;
            let delta = args[1] as i64;
            match file.kind {
                FileKind::Vnode(ino) => {
                    let size = self.fs.get(ino)?.size();
                    let base = match whence {
                        Whence::Set => 0,
                        Whence::Cur => file.offset as i64,
                        Whence::End => size as i64,
                    };
                    let new = base + delta;
                    if new < 0 {
                        return Err(Errno::EINVAL);
                    }
                    self.files.get_mut(entry.file)?.offset = new as u64;
                    Ok([new as u64, 0])
                }
                FileKind::Device(_) => Ok([0, 0]),
                _ => Err(Errno::ESPIPE),
            }
        })();
        done(r)
    }

    /// `close(fd)`
    pub(crate) fn sys_close(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        match self.proc_mut(pid).and_then(|p| p.fds.remove(args[0])) {
            Ok(entry) => {
                self.release_file(entry.file);
                SysOutcome::ok()
            }
            Err(e) => SysOutcome::err(e),
        }
    }

    /// `dup(fd)` → lowest free descriptor sharing the open file
    pub(crate) fn sys_dup(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        let r = (|| {
            let entry = self.proc(pid)?.fds.get(args[0])?;
            self.files.get(entry.file)?; // validate
            self.files.incref(entry.file);
            match self.proc_mut(pid)?.fds.alloc(
                0,
                FdEntry {
                    file: entry.file,
                    cloexec: false,
                },
            ) {
                Ok(fd) => Ok([fd, 0]),
                Err(e) => {
                    self.files.decref(entry.file);
                    Err(e)
                }
            }
        })();
        done(r)
    }

    /// `dup2(from, to)`
    pub(crate) fn sys_dup2(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        let r = (|| {
            let entry = self.proc(pid)?.fds.get(args[0])?;
            if args[0] == args[1] {
                return Ok([args[1], 0]);
            }
            self.files.incref(entry.file);
            let displaced = self.proc_mut(pid)?.fds.install(
                args[1],
                FdEntry {
                    file: entry.file,
                    cloexec: false,
                },
            );
            match displaced {
                Ok(old) => {
                    if let Some(o) = old {
                        self.release_file(o.file);
                    }
                    Ok([args[1], 0])
                }
                Err(e) => {
                    self.files.decref(entry.file);
                    Err(e)
                }
            }
        })();
        done(r)
    }

    /// `fcntl(fd, cmd, arg)`
    pub(crate) fn sys_fcntl(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        let r = (|| {
            let fd = args[0];
            let entry = self.proc(pid)?.fds.get(fd)?;
            match FcntlCmd::from_u32(args[1] as u32)? {
                FcntlCmd::DupFd => {
                    self.files.incref(entry.file);
                    match self.proc_mut(pid)?.fds.alloc(
                        args[2] as usize,
                        FdEntry {
                            file: entry.file,
                            cloexec: false,
                        },
                    ) {
                        Ok(nfd) => Ok([nfd, 0]),
                        Err(e) => {
                            self.files.decref(entry.file);
                            Err(e)
                        }
                    }
                }
                FcntlCmd::GetFd => Ok([u64::from(entry.cloexec), 0]),
                FcntlCmd::SetFd => {
                    self.proc_mut(pid)?.fds.set_cloexec(fd, args[2] & 1 != 0)?;
                    Ok([0, 0])
                }
                FcntlCmd::GetFl => Ok([u64::from(self.files.get(entry.file)?.flags.bits()), 0]),
                FcntlCmd::SetFl => {
                    let settable = OpenFlags::O_NONBLOCK | OpenFlags::O_APPEND;
                    let f = self.files.get_mut(entry.file)?;
                    f.flags =
                        OpenFlags::new((f.flags.bits() & !settable) | (args[2] as u32 & settable));
                    Ok([0, 0])
                }
            }
        })();
        done(r)
    }

    /// `pipe()` → (read fd, write fd) in the two return registers
    pub(crate) fn sys_pipe(&mut self, pid: Pid) -> SysOutcome {
        let r = (|| {
            let id = self.fs.pipes.create();
            self.fs.pipes.add_reader(id);
            self.fs.pipes.add_writer(id);
            let rfile = self
                .files
                .insert(FileKind::PipeRead(id), OpenFlags::new(OpenFlags::O_RDONLY));
            let wfile = self
                .files
                .insert(FileKind::PipeWrite(id), OpenFlags::new(OpenFlags::O_WRONLY));
            let p = self.proc_mut(pid)?;
            let rfd = p.fds.alloc(
                0,
                FdEntry {
                    file: rfile,
                    cloexec: false,
                },
            );
            let rfd = match rfd {
                Ok(fd) => fd,
                Err(e) => {
                    self.release_file(rfile);
                    self.release_file(wfile);
                    return Err(e);
                }
            };
            let wfd = match self.proc_mut(pid)?.fds.alloc(
                0,
                FdEntry {
                    file: wfile,
                    cloexec: false,
                },
            ) {
                Ok(fd) => fd,
                Err(e) => {
                    let entry = self.proc_mut(pid)?.fds.remove(rfd).expect("just allocated");
                    self.release_file(entry.file);
                    self.release_file(wfile);
                    return Err(e);
                }
            };
            Ok([rfd, wfd])
        })();
        done(r)
    }

    /// `getdirentries(fd, buf, nbytes, basep)` → bytes transferred
    pub(crate) fn sys_getdirentries(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        let r = (|| {
            let entry = self.proc(pid)?.fds.get(args[0])?;
            let file = self.files.get(entry.file)?;
            let FileKind::Vnode(ino) = file.kind else {
                return Err(Errno::EINVAL);
            };
            let entries = self.fs.readdir(ino)?; // ENOTDIR for non-dirs
            let start = file.offset;
            let cap = (args[2] as usize).min(MAX_IO);
            let mut out = Vec::new();
            let mut cursor = 0u64;
            for e in &entries {
                let reclen = e.reclen() as u64;
                if cursor >= start {
                    if out.len() + reclen as usize > cap {
                        break;
                    }
                    e.encode_to(&mut out);
                }
                cursor += reclen;
            }
            if out.is_empty() && cap < 512 && start < cursor {
                // Buffer too small for even one record.
                return Err(Errno::EINVAL);
            }
            let new_off = start + out.len() as u64;
            self.files.get_mut(entry.file)?.offset = new_off;
            let p = self.proc_mut(pid)?;
            p.mem.write_bytes(args[1], &out)?;
            if args[3] != 0 {
                p.mem.write_u64(args[3], start)?;
            }
            Ok([out.len() as u64, 0])
        })();
        done(r)
    }

    /// `ioctl(fd, request, argp)` — terminals answer, everything else is
    /// `ENOTTY`.
    pub(crate) fn sys_ioctl(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        let r = (|| {
            let entry = self.proc(pid)?.fds.get(args[0])?;
            match self.files.get(entry.file)?.kind {
                FileKind::Device(crate::console::DEV_TTY) => Ok([0, 0]),
                _ => Err(Errno::ENOTTY),
            }
        })();
        done(r)
    }

    /// `fsync(fd)` — everything is already "on disk"; validates the fd.
    pub(crate) fn sys_fsync(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        let r = (|| {
            let entry = self.proc(pid)?.fds.get(args[0])?;
            self.files.get(entry.file)?;
            Ok([0, 0])
        })();
        done(r)
    }

    /// `sbrk(incr)` → previous break
    pub(crate) fn sys_sbrk(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        let r = (|| {
            let p = self.proc_mut(pid)?;
            let old = p.mem.sbrk(args[0] as i64)?;
            Ok([old, 0])
        })();
        done(r)
    }

    /// `getdtablesize()`
    pub(crate) fn sys_getdtablesize(&mut self, pid: Pid) -> SysOutcome {
        match self.proc(pid) {
            Ok(p) => SysOutcome::ok1(p.fds.size() as u64),
            Err(e) => SysOutcome::err(e),
        }
    }

    /// `select(nfds, readfds, writefds, exceptfds, timeout)`.
    ///
    /// Descriptor sets are 64-bit masks in process memory. Except-sets are
    /// accepted and always cleared (no exceptional conditions exist here).
    pub(crate) fn sys_select(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        let read_mask = |k: &Kernel, addr: u64| -> Result<u64, Errno> {
            if addr == 0 {
                Ok(0)
            } else {
                k.proc(pid)?.mem.read_u64(addr)
            }
        };
        let r: Result<SysOutcome, Errno> = (|| {
            let nfds = (args[0] as usize).min(64);
            let want_r = read_mask(self, args[1])?;
            let want_w = read_mask(self, args[2])?;
            let mut got_r = 0u64;
            let mut got_w = 0u64;
            for fd in 0..nfds as u64 {
                let bit = 1u64 << fd;
                if want_r & bit != 0 && self.fd_readable(pid, fd)? {
                    got_r |= bit;
                }
                if want_w & bit != 0 && self.fd_writable(pid, fd)? {
                    got_w |= bit;
                }
            }
            let count = got_r.count_ones() + got_w.count_ones();

            // Deadline management across restarts.
            let deadline = match self.proc(pid)?.select_deadline {
                Some(d) => d,
                None => {
                    let d = if args[4] == 0 {
                        u64::MAX
                    } else {
                        let tv = self.proc(pid)?.mem.read_struct::<Timeval>(args[4])?;
                        self.clock
                            .elapsed_ns()
                            .saturating_add((tv.as_micros().max(0) as u64) * 1_000)
                    };
                    self.proc_mut(pid)?.select_deadline = Some(d);
                    d
                }
            };

            if count > 0 || self.clock.elapsed_ns() >= deadline {
                let p = self.proc_mut(pid)?;
                p.select_deadline = None;
                if args[1] != 0 {
                    p.mem.write_u64(args[1], got_r)?;
                }
                if args[2] != 0 {
                    p.mem.write_u64(args[2], got_w)?;
                }
                if args[3] != 0 {
                    p.mem.write_u64(args[3], 0)?;
                }
                return Ok(SysOutcome::ok1(u64::from(count)));
            }
            Ok(SysOutcome::Block(WaitChannel::Select {
                deadline_ns: deadline,
            }))
        })();
        match r {
            Ok(o) => o,
            Err(e) => {
                if let Ok(p) = self.proc_mut(pid) {
                    p.select_deadline = None;
                }
                SysOutcome::err(e)
            }
        }
    }

    fn fd_readable(&self, pid: Pid, fd: u64) -> Result<bool, Errno> {
        let entry = match self.proc(pid)?.fds.get(fd) {
            Ok(e) => e,
            Err(_) => return Ok(false),
        };
        let file = self.files.get(entry.file)?;
        Ok(match file.kind {
            FileKind::Vnode(_) => true,
            FileKind::PipeRead(id) => self
                .fs
                .pipes
                .get(id)
                .is_none_or(|p| !p.is_empty() || p.writers() == 0),
            FileKind::PipeWrite(_) => false,
            FileKind::Device(crate::console::DEV_TTY) => self.console.readable(),
            FileKind::Device(_) => true,
            FileKind::Socket(sid) => match self.sockets.get(sid)?.state {
                SockState::Connected { rx, .. } => self
                    .fs
                    .pipes
                    .get(rx)
                    .is_none_or(|p| !p.is_empty() || p.writers() == 0),
                SockState::Listening { .. } => self.sockets.acceptable(sid),
                _ => false,
            },
        })
    }

    fn fd_writable(&self, pid: Pid, fd: u64) -> Result<bool, Errno> {
        let entry = match self.proc(pid)?.fds.get(fd) {
            Ok(e) => e,
            Err(_) => return Ok(false),
        };
        let file = self.files.get(entry.file)?;
        Ok(match file.kind {
            FileKind::Vnode(_) | FileKind::Device(_) => true,
            FileKind::PipeWrite(id) => self
                .fs
                .pipes
                .get(id)
                .is_none_or(|p| p.space() > 0 || p.readers() == 0),
            FileKind::PipeRead(_) => false,
            FileKind::Socket(sid) => match self.sockets.get(sid)?.state {
                SockState::Connected { tx, .. } => self
                    .fs
                    .pipes
                    .get(tx)
                    .is_none_or(|p| p.space() > 0 || p.readers() == 0),
                _ => false,
            },
        })
    }
}
