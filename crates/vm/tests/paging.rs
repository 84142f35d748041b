//! Differential test of the paged, copy-on-write [`AddressSpace`] against a
//! flat `Vec<u8>` reference model.
//!
//! Paging is an implementation detail: every access must return exactly
//! what a flat zero-initialised byte array returns, including which
//! accesses fault. Seeded random operation sequences drive both models
//! side by side, with addresses biased towards page boundaries and the end
//! of the space, and with clones (shared or not) that must never see each
//! other's writes.

use ia_abi::wire::Wire;
use ia_abi::{Errno, Timeval};
use ia_prng::{run_cases, Prng};
use ia_vm::{AddressSpace, PAGE_SIZE};

/// The reference: one flat byte array, bounds-checked the way the paged
/// space promises to be.
#[derive(Clone)]
struct Flat {
    mem: Vec<u8>,
    brk: u64,
}

impl Flat {
    fn new(size: usize, brk: u64) -> Flat {
        Flat {
            mem: vec![0; size],
            brk,
        }
    }

    fn range(&self, addr: u64, len: usize) -> Result<std::ops::Range<usize>, Errno> {
        let a = usize::try_from(addr).map_err(|_| Errno::EFAULT)?;
        let end = a.checked_add(len).ok_or(Errno::EFAULT)?;
        if end > self.mem.len() {
            return Err(Errno::EFAULT);
        }
        Ok(a..end)
    }

    fn read_bytes(&self, addr: u64, len: usize) -> Result<Vec<u8>, Errno> {
        Ok(self.mem[self.range(addr, len)?].to_vec())
    }

    fn write_bytes(&mut self, addr: u64, data: &[u8]) -> Result<(), Errno> {
        let r = self.range(addr, data.len())?;
        self.mem[r].copy_from_slice(data);
        Ok(())
    }

    /// String then NUL, as two stores: a string that fits with no room
    /// for its NUL is written and then faults.
    fn write_cstr(&mut self, addr: u64, s: &[u8]) -> Result<(), Errno> {
        self.write_bytes(addr, s)?;
        self.write_bytes(addr + s.len() as u64, &[0])
    }

    fn read_u64(&self, addr: u64) -> Result<u64, Errno> {
        let b = self.read_bytes(addr, 8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn read_cstr(&self, addr: u64, max: usize) -> Result<Vec<u8>, Errno> {
        let a = usize::try_from(addr).map_err(|_| Errno::EFAULT)?;
        if a >= self.mem.len() {
            return Err(Errno::EFAULT);
        }
        let window = &self.mem[a..self.mem.len().min(a + max + 1)];
        match window.iter().position(|&c| c == 0) {
            Some(n) => Ok(window[..n].to_vec()),
            None if window.len() < max + 1 => Err(Errno::EFAULT),
            None => Err(Errno::ENAMETOOLONG),
        }
    }

    fn sbrk(&mut self, incr: i64) -> Result<u64, Errno> {
        let old = self.brk;
        let new = old.wrapping_add(incr as u64);
        let ceiling = (self.mem.len() - self.mem.len() / 8) as u64;
        if incr >= 0 && new > ceiling {
            return Err(Errno::ENOMEM);
        }
        if incr < 0 && new > old {
            return Err(Errno::EINVAL);
        }
        self.brk = new;
        Ok(old)
    }

    fn clear(&mut self, brk: u64) {
        self.mem.fill(0);
        self.brk = brk;
    }
}

/// An address near something interesting: a page boundary, the end of the
/// space, the 4088..4100 straddle window, far out of range, or anywhere.
fn addr(rng: &mut Prng, size: usize) -> u64 {
    let size = size as u64;
    match rng.below(8) {
        0 | 1 => {
            let boundary = rng.below(size / PAGE_SIZE as u64 + 2) * PAGE_SIZE as u64;
            boundary.wrapping_add(rng.range_i64(-12, 12) as u64)
        }
        2 => size.wrapping_add(rng.range_i64(-16, 8) as u64),
        3 if rng.bool() => size,
        3 => rng.range_u64(4088, 4101),
        4 => u64::MAX - rng.below(8),
        _ => rng.below(size + 8),
    }
}

/// A length: short, medium, about a page, zero, or up to two pages.
fn len(rng: &mut Prng) -> usize {
    match rng.below(5) {
        0 => rng.range_usize(0, 16),
        1 => rng.range_usize(0, 300),
        2 => rng.range_usize(PAGE_SIZE - 8, PAGE_SIZE + 200),
        3 => 0,
        _ => rng.range_usize(0, 2 * PAGE_SIZE + 100),
    }
}

fn assert_same(case: u64, step: usize, a: &AddressSpace, f: &Flat) {
    assert_eq!(a.size(), f.mem.len(), "case {case} step {step}: size");
    assert_eq!(a.brk(), f.brk, "case {case} step {step}: brk");
    assert_eq!(
        &*a.read_bytes(0, a.size()).unwrap(),
        &f.mem[..],
        "case {case} step {step}: contents"
    );
    assert!(a.resident_bytes() <= a.size().div_ceil(PAGE_SIZE) * PAGE_SIZE);
}

/// One random operation on one (paged, flat) pair; results must agree.
fn step(case: u64, i: usize, rng: &mut Prng, a: &mut AddressSpace, f: &mut Flat) {
    let size = f.mem.len();
    let at = addr(rng, size);
    let ctx = format!("case {case} step {i} at {at:#x}");
    match rng.below(13) {
        0 => {
            let v = rng.next_u64() as u8;
            let want = f.write_bytes(at, &[v]);
            assert_eq!(a.write_u8(at, v), want, "{ctx}: write_u8");
        }
        1 => {
            let v = rng.next_u64();
            let want = f.write_bytes(at, &v.to_le_bytes());
            assert_eq!(a.write_u64(at, v), want, "{ctx}: write_u64");
        }
        2 => {
            let n = len(rng);
            let data = rng.bytes(n);
            let want = f.write_bytes(at, &data);
            assert_eq!(a.write_bytes(at, &data), want, "{ctx}: write_bytes");
        }
        3 => {
            let n = len(rng) % 40;
            let s: Vec<u8> = rng.bytes(n).iter().map(|b| b | 1).collect();
            let want = f.write_cstr(at, &s);
            assert_eq!(a.write_cstr(at, &s), want, "{ctx}: write_cstr");
        }
        4 => {
            let tv = Timeval {
                sec: rng.range_i64(0, 1 << 40),
                usec: rng.range_i64(0, 1_000_000),
            };
            let want = f.write_bytes(at, &tv.to_bytes());
            assert_eq!(a.write_struct(at, &tv), want, "{ctx}: write_struct");
        }
        5 => {
            let want = f.read_bytes(at, 1).map(|b| b[0]);
            assert_eq!(a.read_u8(at), want, "{ctx}: read_u8");
        }
        6 | 7 => assert_eq!(a.read_u64(at), f.read_u64(at), "{ctx}: read_u64"),
        8 => {
            let n = len(rng);
            let got = a.read_bytes(at, n).map(|c| c.into_owned());
            assert_eq!(got, f.read_bytes(at, n), "{ctx}: read_bytes");
        }
        9 => {
            let max = rng.range_usize(0, 64);
            assert_eq!(
                a.read_cstr(at, max),
                f.read_cstr(at, max),
                "{ctx}: read_cstr"
            );
        }
        10 => {
            let want = f
                .read_bytes(at, Timeval::WIRE_SIZE)
                .and_then(|b| Timeval::decode(&b));
            assert_eq!(a.read_struct::<Timeval>(at), want, "{ctx}: read_struct");
        }
        11 => {
            let incr = rng.range_i64(-(size as i64), size as i64);
            assert_eq!(a.sbrk(incr), f.sbrk(incr), "{ctx}: sbrk {incr}");
        }
        _ => {
            if rng.below(4) == 0 {
                let brk = rng.below(size as u64);
                a.clear(brk);
                f.clear(brk);
            }
        }
    }
}

#[test]
fn paged_space_matches_a_flat_reference() {
    let sizes = [256, PAGE_SIZE, 4196, 3 * PAGE_SIZE + 17, 1 << 16];
    run_cases(64, |case, rng| {
        let size = *rng.pick(&sizes);
        let brk = rng.below(size as u64 / 2);
        // A family of copies: each paged space with its reference twin.
        let mut family = vec![(AddressSpace::new(size, brk), Flat::new(size, brk))];
        for i in 0..400 {
            let k = rng.range_usize(0, family.len());
            if rng.below(25) == 0 && family.len() < 4 {
                // Clone, sharing first or not: either way the copies must
                // be independent from here on.
                let space = if rng.bool() {
                    family[k].0.share_clone()
                } else {
                    family[k].0.clone()
                };
                let flat = family[k].1.clone();
                family.push((space, flat));
                continue;
            }
            if rng.below(30) == 0 && family.len() > 1 {
                family.swap_remove(k);
                continue;
            }
            let (a, f) = &mut family[k];
            step(case, i, rng, a, f);
            if i % 50 == 0 {
                for (a, f) in &family {
                    assert_same(case, i, a, f);
                }
            }
        }
        for (a, f) in &family {
            assert_same(case, usize::MAX, a, f);
        }
    });
}

#[test]
fn accesses_straddling_the_first_page_boundary() {
    for at in 4088..=4100u64 {
        let mut a = AddressSpace::new(3 * PAGE_SIZE, 0);
        let mut f = Flat::new(3 * PAGE_SIZE, 0);
        let v = 0x0102_0304_0506_0708 ^ at;
        a.write_u64(at, v).unwrap();
        f.write_bytes(at, &v.to_le_bytes()).unwrap();
        assert_eq!(a.read_u64(at), Ok(v), "u64 at {at}");
        assert_eq!(a.read_u8(at + 7), Ok((v >> 56) as u8), "top byte at {at}");
        assert_eq!(
            &*a.read_bytes(at - 4, 16).unwrap(),
            &f.mem[at as usize - 4..at as usize + 12]
        );
        a.write_cstr(at, b"straddle").unwrap();
        assert_eq!(a.read_cstr(at, 8).unwrap(), b"straddle");
        let tv = Timeval {
            sec: at as i64,
            usec: 99,
        };
        a.write_struct(at, &tv).unwrap();
        assert_eq!(a.read_struct::<Timeval>(at), Ok(tv));
        // Both pages the access touched are now resident, and no other.
        let pages = if at < 4096 { 2 } else { 1 };
        assert_eq!(a.resident_bytes(), pages * PAGE_SIZE, "at {at}");
    }
}

#[test]
fn faults_at_the_end_of_odd_sized_spaces() {
    for size in [256usize, PAGE_SIZE, 4196, 1 << 20] {
        let mut a = AddressSpace::new(size, 0);
        let last = size as u64 - 8;
        assert_eq!(a.write_u64(last, 7), Ok(()), "size {size}");
        assert_eq!(a.read_u64(last), Ok(7));
        assert_eq!(
            a.read_u64(size as u64 - 7),
            Err(Errno::EFAULT),
            "size {size}"
        );
        assert_eq!(a.write_u64(size as u64 - 7, 1), Err(Errno::EFAULT));
        assert_eq!(a.read_u8(size as u64), Err(Errno::EFAULT));
        assert_eq!(a.write_u8(size as u64 - 1, 1), Ok(()));
        assert_eq!(a.read_bytes(size as u64, 0).map(|c| c.len()), Ok(0));
        assert_eq!(a.read_bytes(size as u64 - 1, 2), Err(Errno::EFAULT));
        assert_eq!(a.read_cstr(size as u64 - 1, 8), Err(Errno::EFAULT));
        // An unterminated string running into the end of the space: EFAULT
        // when the bound reaches past the end, ENAMETOOLONG when it does not.
        a.write_bytes(size as u64 - 4, b"abcd").unwrap();
        assert_eq!(a.read_cstr(size as u64 - 4, 4), Err(Errno::EFAULT));
        assert_eq!(a.read_cstr(size as u64 - 4, 3), Err(Errno::ENAMETOOLONG));
        for probe in [u64::MAX, u64::MAX - 7] {
            assert_eq!(a.read_u64(probe), Err(Errno::EFAULT));
            assert_eq!(a.write_u64(probe, 0), Err(Errno::EFAULT));
            assert_eq!(a.read_u8(probe), Err(Errno::EFAULT));
            assert_eq!(a.read_bytes(probe, 1), Err(Errno::EFAULT));
            assert_eq!(a.read_cstr(probe, 1), Err(Errno::EFAULT));
        }
        // A failed store allocates nothing.
        let mut fresh = AddressSpace::new(size, 0);
        assert_eq!(
            fresh.write_bytes(size as u64 - 4, &[1; 8]),
            Err(Errno::EFAULT)
        );
        assert_eq!(fresh.resident_bytes(), 0);
    }
}

#[test]
fn sbrk_ceiling_is_seven_eighths_of_the_space() {
    for size in [256usize, 4196, 1 << 20] {
        let ceiling = (size - size / 8) as u64;
        let mut a = AddressSpace::new(size, 0);
        assert_eq!(
            a.sbrk(ceiling as i64 + 1),
            Err(Errno::ENOMEM),
            "size {size}"
        );
        assert_eq!(a.sbrk(ceiling as i64), Ok(0));
        assert_eq!(a.brk(), ceiling);
        assert_eq!(a.sbrk(1), Err(Errno::ENOMEM));
        assert_eq!(a.sbrk(-(ceiling as i64) - 1), Err(Errno::EINVAL));
        assert_eq!(a.resident_bytes(), 0, "moving the break touches no page");
    }
}

#[test]
fn clear_after_sharing_zeroes_one_side_only() {
    let mut a = AddressSpace::new(1 << 16, 0);
    a.write_bytes(4000, &[0xff; 200]).unwrap();
    a.write_u8((1 << 16) - 1, 0xee).unwrap();
    let b = a.share_clone();
    a.clear(512);
    assert_eq!(a.brk(), 512);
    assert_eq!(a.resident_bytes(), 0);
    assert!(a.read_bytes(0, 1 << 16).unwrap().iter().all(|&c| c == 0));
    assert_eq!(&*b.read_bytes(4000, 200).unwrap(), &[0xff; 200][..]);
    assert_eq!(b.read_u8((1 << 16) - 1), Ok(0xee));
    assert_eq!(b.resident_bytes(), 3 * PAGE_SIZE);
}

#[test]
fn clones_are_isolated_in_both_directions() {
    for share_first in [false, true] {
        let mut parent = AddressSpace::new(1 << 16, 64);
        parent.write_u64(100, 1).unwrap();
        parent.write_u64((1 << 16) - 8, 2).unwrap();
        let mut child = if share_first {
            parent.share_clone()
        } else {
            parent.clone()
        };
        assert_eq!(child.resident_bytes(), parent.resident_bytes());
        // Same page, both directions.
        parent.write_u64(100, 10).unwrap();
        child.write_u64(108, 20).unwrap();
        assert_eq!(parent.read_u64(100), Ok(10));
        assert_eq!(parent.read_u64(108), Ok(0));
        assert_eq!(child.read_u64(100), Ok(1));
        assert_eq!(child.read_u64(108), Ok(20));
        // Untouched shared page still reads the same on both sides.
        assert_eq!(parent.read_u64((1 << 16) - 8), Ok(2));
        assert_eq!(child.read_u64((1 << 16) - 8), Ok(2));
        // A page neither had before is private to the writer.
        child.write_u8(30_000, 5).unwrap();
        assert_eq!(parent.read_u8(30_000), Ok(0));
        assert_eq!(child.resident_bytes(), parent.resident_bytes() + PAGE_SIZE);
        // Dropping one side leaves the other intact.
        drop(parent);
        assert_eq!(child.read_u64(100), Ok(1));
        assert_eq!(child.read_u64((1 << 16) - 8), Ok(2));
    }
}

#[test]
fn resident_bytes_counts_written_pages_only() {
    let mut a = AddressSpace::new(1 << 20, 0);
    assert_eq!(a.resident_bytes(), 0);
    assert_eq!(a.read_u64(5000), Ok(0));
    assert_eq!(a.resident_bytes(), 0, "reads allocate nothing");
    a.write_u8(5000, 1).unwrap();
    a.write_u8(5001, 1).unwrap();
    assert_eq!(a.resident_bytes(), PAGE_SIZE);
    a.write_bytes(3 * PAGE_SIZE as u64, &[7; 2 * PAGE_SIZE + 1])
        .unwrap();
    assert_eq!(a.resident_bytes(), 4 * PAGE_SIZE);
    let b = a.share_clone();
    assert_eq!(
        a.resident_bytes(),
        4 * PAGE_SIZE,
        "sharing allocates nothing"
    );
    assert_eq!(b.resident_bytes(), 4 * PAGE_SIZE);
}
