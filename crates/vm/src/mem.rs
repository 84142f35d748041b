//! The process address space: a paged, copy-on-write data/stack region.
//!
//! Code lives outside this space (Harvard style) so that image loading and
//! `sbrk` stay simple; everything an application reads or writes — and
//! everything the kernel copies in and out during a system call — goes
//! through these accessors, which fault with `EFAULT` instead of panicking.
//!
//! Programs see one flat range of bytes. Underneath, the space is a table
//! of [`PAGE_SIZE`] pages, each absent (never written; reads as zero),
//! privately owned, or shared by refcount with other copies of the space.
//! [`AddressSpace::share_clone`] shares pages instead of copying bytes, so
//! `fork`, kernel snapshots, restores and branches cost O(pages) refcount
//! bumps; the first write to an absent or shared page allocates or copies
//! that page alone.
//! None of this is observable: every read returns exactly what a flat
//! zero-initialised byte array would.

use std::borrow::Cow;
use std::sync::Arc;

use ia_abi::wire::Wire;
use ia_abi::Errno;

/// Default address-space size: 1 MiB, comfortably larger than any workload
/// in the paper needs. Only pages a process writes are held on the host.
pub const DEFAULT_MEM_SIZE: usize = 1 << 20;

/// Bytes per page: the unit of sharing and of copy-on-write.
pub const PAGE_SIZE: usize = 4096;

type PageBytes = [u8; PAGE_SIZE];

/// What every absent page reads as.
static ZERO_PAGE: PageBytes = [0; PAGE_SIZE];

/// One page-table entry.
#[derive(Debug, Clone)]
enum Page {
    /// Never written since creation or the last `clear`: all zero.
    Absent,
    /// Held by this space alone; stores go straight in, with no atomic.
    Owned(Box<PageBytes>),
    /// Possibly held by other spaces too; copied on the first store.
    Shared(Arc<PageBytes>),
}

/// A process's data/stack address space.
///
/// [`AddressSpace::share_clone`] is the copy that `fork`, snapshots and
/// branches use: it copies no bytes. `Clone` shares the pages that are
/// already shared and copies owned ones, so it is cheap only on a space
/// that came out of `share_clone` and has not been written since, such as
/// one held in a kernel snapshot.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    pages: Vec<Page>,
    /// Size in bytes; the last page may be only partly addressable.
    size: usize,
    /// Current program break (top of the data/heap region).
    brk: u64,
}

impl AddressSpace {
    /// Creates a zeroed address space of `size` bytes with the break at
    /// `brk0`. No page is allocated until it is first written.
    #[must_use]
    pub fn new(size: usize, brk0: u64) -> AddressSpace {
        AddressSpace {
            pages: vec![Page::Absent; size.div_ceil(PAGE_SIZE)],
            size,
            brk: brk0,
        }
    }

    /// Total size in bytes.
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Host bytes of the pages this space holds (owned or shared), a whole
    /// page each. A page shared with another space counts in both.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.pages
            .iter()
            .filter(|p| !matches!(p, Page::Absent))
            .count()
            * PAGE_SIZE
    }

    /// Returns a copy of this space that shares every page with it by
    /// refcount. Pages this space owns move behind an `Arc` first (one
    /// page copy each, only for pages written since the last share); from
    /// then on both sides copy a page on their first store to it.
    #[must_use]
    pub fn share_clone(&mut self) -> AddressSpace {
        for page in &mut self.pages {
            if let Page::Owned(bytes) = page {
                *page = Page::Shared(Arc::new(**bytes));
            }
        }
        self.clone()
    }

    /// The current program break.
    #[must_use]
    pub fn brk(&self) -> u64 {
        self.brk
    }

    /// `sbrk`: moves the break by `incr` (positive or negative), returning
    /// the *old* break. Fails with `ENOMEM` if the break would collide with
    /// the stack region (the top eighth of the space) or go negative.
    pub fn sbrk(&mut self, incr: i64) -> Result<u64, Errno> {
        let old = self.brk;
        let new = old.wrapping_add(incr as u64);
        let ceiling = (self.size - self.size / 8) as u64;
        if incr >= 0 {
            if new > ceiling {
                return Err(Errno::ENOMEM);
            }
        } else if new > old {
            // wrapped below zero
            return Err(Errno::EINVAL);
        }
        self.brk = new;
        Ok(old)
    }

    /// Zeroes the space and resets the break — what `execve` does. Every
    /// page becomes absent again; shared pages are released, not copied.
    pub fn clear(&mut self, brk0: u64) {
        self.pages.fill(Page::Absent);
        self.brk = brk0;
    }

    fn check(&self, addr: u64, len: usize) -> Result<usize, Errno> {
        let a = usize::try_from(addr).map_err(|_| Errno::EFAULT)?;
        let end = a.checked_add(len).ok_or(Errno::EFAULT)?;
        if end > self.size {
            return Err(Errno::EFAULT);
        }
        Ok(a)
    }

    /// The bytes of page `idx`, for reading.
    fn page(&self, idx: usize) -> &PageBytes {
        match &self.pages[idx] {
            Page::Absent => &ZERO_PAGE,
            Page::Owned(p) => p,
            Page::Shared(p) => p,
        }
    }

    /// The bytes of page `idx`, for writing: owned pages directly, others
    /// through the copy-on-write fault.
    fn page_mut(&mut self, idx: usize) -> &mut PageBytes {
        if !matches!(self.pages[idx], Page::Owned(_)) {
            self.fault(idx);
        }
        match &mut self.pages[idx] {
            Page::Owned(p) => p,
            _ => unreachable!("fault leaves the page owned"),
        }
    }

    /// First store to an absent or shared page: allocate a zero page, or
    /// copy the shared one into a page of our own.
    #[cold]
    #[inline(never)]
    fn fault(&mut self, idx: usize) {
        let bytes = match &self.pages[idx] {
            Page::Shared(p) => **p,
            _ => [0; PAGE_SIZE],
        };
        self.pages[idx] = Page::Owned(Box::new(bytes));
    }

    /// Copies `out.len()` bytes at `a` (already bounds-checked) into `out`.
    fn read_into(&self, mut a: usize, out: &mut [u8]) {
        let mut done = 0;
        while done < out.len() {
            let off = a % PAGE_SIZE;
            let n = (out.len() - done).min(PAGE_SIZE - off);
            out[done..done + n].copy_from_slice(&self.page(a / PAGE_SIZE)[off..off + n]);
            done += n;
            a += n;
        }
    }

    /// Reads `len` bytes at `addr`: borrowed when they lie in one page,
    /// copied when they straddle pages.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Result<Cow<'_, [u8]>, Errno> {
        let a = self.check(addr, len)?;
        if len == 0 {
            // `a` may equal the size, one past the last page.
            return Ok(Cow::Borrowed(&[]));
        }
        let off = a % PAGE_SIZE;
        if off + len <= PAGE_SIZE {
            return Ok(Cow::Borrowed(&self.page(a / PAGE_SIZE)[off..off + len]));
        }
        let mut out = vec![0; len];
        self.read_into(a, &mut out);
        Ok(Cow::Owned(out))
    }

    /// Writes `data` at `addr`, page by page.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) -> Result<(), Errno> {
        let mut a = self.check(addr, data.len())?;
        let mut done = 0;
        while done < data.len() {
            let off = a % PAGE_SIZE;
            let n = (data.len() - done).min(PAGE_SIZE - off);
            self.page_mut(a / PAGE_SIZE)[off..off + n].copy_from_slice(&data[done..done + n]);
            done += n;
            a += n;
        }
        Ok(())
    }

    // The four scalar accessors below are the interpreters' loads and
    // stores. They stay out of line: inlined into the fused dispatch loop,
    // their page walk degrades the codegen of the whole loop, even for
    // stretches of code that never touch memory.

    /// Reads one byte.
    #[inline(never)]
    pub fn read_u8(&self, addr: u64) -> Result<u8, Errno> {
        let a = self.check(addr, 1)?;
        Ok(self.page(a / PAGE_SIZE)[a % PAGE_SIZE])
    }

    /// Writes one byte.
    #[inline(never)]
    pub fn write_u8(&mut self, addr: u64, v: u8) -> Result<(), Errno> {
        let a = self.check(addr, 1)?;
        self.page_mut(a / PAGE_SIZE)[a % PAGE_SIZE] = v;
        Ok(())
    }

    /// Reads a little-endian u64.
    #[inline(never)]
    pub fn read_u64(&self, addr: u64) -> Result<u64, Errno> {
        let a = self.check(addr, 8)?;
        let off = a % PAGE_SIZE;
        let mut b = [0; 8];
        if off <= PAGE_SIZE - 8 {
            b.copy_from_slice(&self.page(a / PAGE_SIZE)[off..off + 8]);
        } else {
            self.read_into(a, &mut b);
        }
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a little-endian u64.
    #[inline(never)]
    pub fn write_u64(&mut self, addr: u64, v: u64) -> Result<(), Errno> {
        let a = self.check(addr, 8)?;
        let off = a % PAGE_SIZE;
        if off <= PAGE_SIZE - 8 {
            self.page_mut(a / PAGE_SIZE)[off..off + 8].copy_from_slice(&v.to_le_bytes());
            Ok(())
        } else {
            self.write_bytes(addr, &v.to_le_bytes())
        }
    }

    /// Reads a NUL-terminated string of at most `max` bytes (NUL excluded).
    /// `ENAMETOOLONG` if no NUL appears within the bound.
    pub fn read_cstr(&self, addr: u64, max: usize) -> Result<Vec<u8>, Errno> {
        let a = usize::try_from(addr).map_err(|_| Errno::EFAULT)?;
        if a >= self.size {
            return Err(Errno::EFAULT);
        }
        let end = self.size.min(a.saturating_add(max).saturating_add(1));
        let mut out = Vec::new();
        let mut pos = a;
        while pos < end {
            let off = pos % PAGE_SIZE;
            let n = (end - pos).min(PAGE_SIZE - off);
            let chunk = &self.page(pos / PAGE_SIZE)[off..off + n];
            if let Some(nul) = chunk.iter().position(|&c| c == 0) {
                out.extend_from_slice(&chunk[..nul]);
                return Ok(out);
            }
            out.extend_from_slice(chunk);
            pos += n;
        }
        if end - a < max.saturating_add(1) {
            Err(Errno::EFAULT)
        } else {
            Err(Errno::ENAMETOOLONG)
        }
    }

    /// Writes `s` plus a terminating NUL at `addr`.
    pub fn write_cstr(&mut self, addr: u64, s: &[u8]) -> Result<(), Errno> {
        self.write_bytes(addr, s)?;
        self.write_u8(addr + s.len() as u64, 0)
    }

    /// Reads a wire-encoded structure.
    pub fn read_struct<T: Wire>(&self, addr: u64) -> Result<T, Errno> {
        T::decode(&self.read_bytes(addr, T::WIRE_SIZE)?)
    }

    /// Writes a wire-encoded structure.
    pub fn write_struct<T: Wire>(&mut self, addr: u64, v: &T) -> Result<(), Errno> {
        self.write_bytes(addr, &v.to_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_abi::Timeval;

    fn space() -> AddressSpace {
        AddressSpace::new(4096, 1024)
    }

    #[test]
    fn byte_and_word_round_trips() {
        let mut m = space();
        m.write_u8(10, 0xab).unwrap();
        assert_eq!(m.read_u8(10).unwrap(), 0xab);
        m.write_u64(100, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(m.read_u64(100).unwrap(), 0x1122_3344_5566_7788);
    }

    #[test]
    fn out_of_range_faults() {
        let mut m = space();
        assert_eq!(m.read_u64(4090), Err(Errno::EFAULT));
        assert_eq!(m.write_u8(4096, 1), Err(Errno::EFAULT));
        assert_eq!(m.read_bytes(u64::MAX, 1), Err(Errno::EFAULT));
    }

    #[test]
    fn cstr_round_trip_and_bounds() {
        let mut m = space();
        m.write_cstr(50, b"hello").unwrap();
        assert_eq!(m.read_cstr(50, 64).unwrap(), b"hello");
        // Unterminated within bound.
        m.write_bytes(200, &[b'x'; 20]).unwrap();
        assert_eq!(m.read_cstr(200, 10), Err(Errno::ENAMETOOLONG));
    }

    #[test]
    fn struct_round_trip() {
        let mut m = space();
        let tv = Timeval { sec: 42, usec: 7 };
        m.write_struct(300, &tv).unwrap();
        assert_eq!(m.read_struct::<Timeval>(300).unwrap(), tv);
    }

    #[test]
    fn sbrk_moves_break_and_respects_ceiling() {
        let mut m = space();
        assert_eq!(m.sbrk(100).unwrap(), 1024);
        assert_eq!(m.brk(), 1124);
        assert_eq!(m.sbrk(-100).unwrap(), 1124);
        assert_eq!(m.brk(), 1024);
        // 4096 - 512 = 3584 ceiling.
        assert_eq!(m.sbrk(10_000), Err(Errno::ENOMEM));
        assert_eq!(m.brk(), 1024, "failed sbrk leaves break unchanged");
    }

    #[test]
    fn clear_zeroes_everything() {
        let mut m = space();
        m.write_u64(0, 99).unwrap();
        m.sbrk(64).unwrap();
        m.clear(2048);
        assert_eq!(m.read_u64(0).unwrap(), 0);
        assert_eq!(m.brk(), 2048);
    }
}
