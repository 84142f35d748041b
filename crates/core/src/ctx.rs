//! The toolkit's call context: a typed veneer over the raw downcall
//! context with client-memory accessors.

use ia_abi::types::MAXPATHLEN;
use ia_abi::wire::Wire;
use ia_abi::{Errno, RawArgs, SysResult, Sysno};
use ia_interpose::SysCtx;
use ia_kernel::SysOutcome;

/// Context passed to toolkit-level methods.
///
/// Wraps the mechanism-level [`SysCtx`] with conveniences every layer
/// needs: reading and writing the client's memory (the agent shares the
/// client's address space) and making typed downcalls.
pub struct SymCtx<'a, 'b> {
    /// The raw mechanism context.
    pub raw: &'a mut SysCtx<'b>,
}

impl<'a, 'b> SymCtx<'a, 'b> {
    /// Wraps a raw context.
    pub fn new(raw: &'a mut SysCtx<'b>) -> SymCtx<'a, 'b> {
        SymCtx { raw }
    }

    /// The client pid.
    #[must_use]
    pub fn pid(&self) -> ia_kernel::Pid {
        self.raw.pid
    }

    /// True when this trap is a restart of a call that blocked.
    #[must_use]
    pub fn is_retry(&self) -> bool {
        self.raw.restarts > 0
    }

    /// Current virtual wall-clock time.
    #[must_use]
    pub fn now(&self) -> ia_abi::Timeval {
        self.raw.now()
    }

    /// The active machine cost profile.
    #[must_use]
    pub fn profile(&self) -> ia_kernel::MachineProfile {
        self.raw.kernel.profile
    }

    /// Charges toolkit work to the virtual clock (and the client's system
    /// time) — how layer-crossing costs from Table 3-4 are modelled.
    pub fn charge(&mut self, ns: u64) {
        self.raw.kernel.clock.advance_ns(ns);
        if let Ok(p) = self.raw.kernel.proc_mut(self.raw.pid) {
            p.usage.sys_ns += ns;
        }
    }

    // ---- client memory ---------------------------------------------------

    /// Reads a NUL-terminated pathname from client memory.
    pub fn read_path(&mut self, addr: u64) -> Result<Vec<u8>, Errno> {
        let p = self.raw.kernel.proc(self.raw.pid)?;
        p.mem.read_cstr(addr, MAXPATHLEN)
    }

    /// Reads raw bytes from client memory.
    pub fn read_bytes(&mut self, addr: u64, len: usize) -> Result<Vec<u8>, Errno> {
        let p = self.raw.kernel.proc(self.raw.pid)?;
        Ok(p.mem.read_bytes(addr, len)?.into_owned())
    }

    /// Writes raw bytes into client memory.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) -> Result<(), Errno> {
        let p = self.raw.kernel.proc_mut(self.raw.pid)?;
        p.mem.write_bytes(addr, bytes)
    }

    /// Reads a wire structure from client memory.
    pub fn read_struct<T: Wire>(&mut self, addr: u64) -> Result<T, Errno> {
        let p = self.raw.kernel.proc(self.raw.pid)?;
        p.mem.read_struct(addr)
    }

    /// Writes a wire structure into client memory.
    pub fn write_struct<T: Wire>(&mut self, addr: u64, v: &T) -> Result<(), Errno> {
        let p = self.raw.kernel.proc_mut(self.raw.pid)?;
        p.mem.write_struct(addr, v)
    }

    // ---- downcalls ---------------------------------------------------------

    /// Invokes the next instance of the system interface.
    pub fn down_args(&mut self, nr: Sysno, args: RawArgs) -> SysOutcome {
        self.raw.down(nr.number(), args)
    }

    /// Invokes with a raw (possibly foreign) trap number.
    pub fn down_raw(&mut self, nr: u32, args: RawArgs) -> SysOutcome {
        self.raw.down(nr, args)
    }

    /// Downcall that must complete (agent-internal use where blocking makes
    /// no sense); maps a `Block` outcome to `EAGAIN`.
    pub fn down_done(&mut self, nr: Sysno, args: RawArgs) -> SysResult {
        match self.down_args(nr, args) {
            SysOutcome::Done(r) => r,
            SysOutcome::NoReturn => Ok([0, 0]),
            SysOutcome::Block(_) => Err(Errno::EAGAIN),
        }
    }
}
