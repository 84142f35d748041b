//! The per-seed tenant workload: a small, fully deterministic program
//! whose observable behavior depends only on its seed.
//!
//! Every tenant runs a loop mixing syscall traffic (open/write/getpid)
//! with pure compute, writes a per-seed banner to the console, and exits
//! with a seed-derived status — so the `Observable` (console bytes, exit
//! status, VFS digest, virtual clock, instruction count) differs between
//! seeds but is identical between a solo run and a fleet run of the same
//! seed. That makes these images the currency of the determinism tests,
//! the smoke gate, and the scaling benchmark.

use ia_abi::Sysno;
use ia_agents::{PassThrough, TimeSymbolic};
use ia_interpose::Agent;
use ia_prng::Prng;
use ia_vm::{Image, ProgramBuilder};

/// Builds the deterministic workload image for `seed`.
#[must_use]
pub fn tenant_image(seed: u64) -> Image {
    let mut rng = Prng::new(seed ^ 0xf1ee_7000);
    let iters = rng.range_u64(24, 96);
    let burn = rng.range_u64(64, 512);
    let status = rng.below(64);
    let banner = format!("tenant {seed:016x} iters {iters}\n");

    let mut b = ProgramBuilder::new();
    let msg = b.data_asciz(banner.as_bytes());
    let msg_len = banner.len() as u64;
    let wpath = b.data_asciz(b"/tmp/tenant.out");

    b.entry_here();
    // Private scratch file (COW: the write diverges this tenant's VFS
    // from the shared base).
    b.la(0, wpath);
    b.li(1, 0x601); // O_WRONLY | O_CREAT | O_TRUNC
    b.li(2, 0o644);
    b.sys(Sysno::Open);
    b.mov(12, 0); // fd

    b.li(13, iters);
    let top = b.here();
    let done = b.new_label();
    b.jz(13, done);
    b.mov(0, 12);
    b.la(1, msg);
    b.li(2, msg_len);
    b.sys(Sysno::Write);
    b.sys(Sysno::Getpid);
    b.burn(burn); // seed-sized compute between syscalls
    b.addi(13, 13, -1);
    b.jmp(top);
    b.bind(done);

    // Banner to the console (part of the client-visible Observable).
    b.li(0, 1);
    b.la(1, msg);
    b.li(2, msg_len);
    b.sys(Sysno::Write);
    b.mov(0, 12);
    b.sys(Sysno::Close);
    b.li(0, status);
    b.sys(Sysno::Exit);
    b.build()
}

/// The standard tenant agent chain: a symbolic time agent on top of a
/// batchable full-coverage observer — representative interposition load.
/// `time_symbolic` intercepts every number without batching, so no number
/// is batchable: every trap enters the chain individually, the observer
/// sees each through a downcall, and tenants never take the vectored-upcall
/// path.
#[must_use]
pub fn tenant_agents() -> Vec<Box<dyn Agent>> {
    vec![
        TimeSymbolic::boxed(),
        PassThrough::boxed() as Box<dyn Agent>,
    ]
}

/// An agent-free chain, for measuring the interposition-less floor.
#[must_use]
pub fn bare_agents() -> Vec<Box<dyn Agent>> {
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn images_are_seed_deterministic_and_distinct() {
        let a = tenant_image(7);
        let b = tenant_image(7);
        let c = tenant_image(8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
