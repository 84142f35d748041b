//! Scratch memory inside the client's address space.
//!
//! On Mach 2.5 the agent shares the client's address space, so an agent
//! that rewrites a pathname simply passes a pointer to its own buffer. We
//! reproduce that honestly: the toolkit allocates a scratch region *in the
//! client's address space* with an `sbrk` downcall the first time it needs
//! one, and rewritten strings/structs are staged there before calling down.
//!
//! The region is bump-allocated and reset at the start of every
//! intercepted trap, so nested downcalls within one trap can stage several
//! values. The handle is cheaply cloneable ([`Arc`]) so pathname and
//! directory objects created by the toolkit can stage data too; the mutex
//! keeps the handle `Send` for fleet tenants and is never contended (one
//! thread drives a tenant at a time).

use std::sync::{Arc, Mutex};

use ia_abi::{Errno, Sysno};

use crate::ctx::SymCtx;

/// Size of the per-agent scratch region.
pub const SCRATCH_SIZE: u64 = 16 * 1024;

#[derive(Debug, Default)]
struct Inner {
    base: Option<u64>,
    used: u64,
}

/// A lazily-allocated bump region in the client address space. Clones
/// share the region (they are the same agent's staging area).
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    inner: Arc<Mutex<Inner>>,
}

impl Scratch {
    /// A fresh, unallocated scratch.
    #[must_use]
    pub fn new() -> Scratch {
        Scratch::default()
    }

    /// A scratch for a forked child's copy of the agent: the region base
    /// remains valid (fork copies the address space), but the handle is
    /// independent of the parent's.
    #[must_use]
    pub fn deep_clone(&self) -> Scratch {
        let inner = self.inner.lock().unwrap();
        Scratch {
            inner: Arc::new(Mutex::new(Inner {
                base: inner.base,
                used: inner.used,
            })),
        }
    }

    /// Resets the bump pointer (called at trap entry).
    pub fn reset(&self) {
        self.inner.lock().unwrap().used = 0;
    }

    /// Allocates the region: `sbrk(SCRATCH_SIZE)` in the client, via the
    /// chain below us — an agent allocating memory is itself just a client
    /// of the interface.
    fn allocate(ctx: &mut SymCtx<'_, '_>) -> Result<u64, Errno> {
        match ctx.down_args(Sysno::Sbrk, [SCRATCH_SIZE, 0, 0, 0, 0, 0]) {
            ia_kernel::SysOutcome::Done(Ok([old, _])) => Ok(old),
            ia_kernel::SysOutcome::Done(Err(e)) => Err(e),
            _ => Err(Errno::ENOMEM),
        }
    }

    /// Stages raw bytes in client memory, returning their address. Once
    /// the region exists this takes the lock once; the first call drops
    /// it around the `sbrk` downcall.
    pub fn write(&self, ctx: &mut SymCtx<'_, '_>, bytes: &[u8]) -> Result<u64, Errno> {
        let mut inner = self.inner.lock().unwrap();
        let base = match inner.base {
            Some(b) => b,
            None => {
                drop(inner);
                let b = Self::allocate(ctx)?;
                inner = self.inner.lock().unwrap();
                inner.base = Some(b);
                b
            }
        };
        let len = bytes.len() as u64;
        if inner.used + len > SCRATCH_SIZE {
            return Err(Errno::ENOMEM);
        }
        let addr = base + inner.used;
        inner.used += (len + 7) & !7;
        drop(inner);
        ctx.write_bytes(addr, bytes)?;
        Ok(addr)
    }

    /// Stages a NUL-terminated string, returning its address.
    pub fn write_cstr(&self, ctx: &mut SymCtx<'_, '_>, s: &[u8]) -> Result<u64, Errno> {
        let mut v = Vec::with_capacity(s.len() + 1);
        v.extend_from_slice(s);
        v.push(0);
        self.write(ctx, &v)
    }

    /// Reserves zeroed space (for out-params the agent will read back).
    pub fn reserve(&self, ctx: &mut SymCtx<'_, '_>, len: usize) -> Result<u64, Errno> {
        self.write(ctx, &vec![0u8; len])
    }
}
