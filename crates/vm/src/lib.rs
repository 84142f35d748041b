//! # ia-vm — simulated "binaries" and the machine that runs them
//!
//! The paper's headline property is that agents run *unmodified application
//! binaries*: the same program image executes with or without interposed
//! agents, with no recompilation or relinking. To reproduce that property
//! honestly, applications in this system are not Rust closures — they are
//! *images*: serialized code plus initialized data in a fixed binary format
//! ([`image`]) executed by a small register machine ([`machine`]).
//!
//! * `execve(2)` in the simulated kernel really does read an image file from
//!   the filesystem, clear the address space, load the segments and transfer
//!   control — the work the paper's toolkit had to reimplement from
//!   lower-level primitives (§3.5.1.2).
//! * `fork(2)` really duplicates machine state and memory.
//! * A `SYS` instruction is the trap into the system interface; everything
//!   an application does passes through it, which is exactly where
//!   interposition attaches.
//!
//! Programs are written either in a small assembly language ([`asm`]) or
//! through a builder API ([`builder`]) used by the benchmark workloads.
//!
//! The machine: sixteen 64-bit registers (`r15` is the stack pointer by
//! convention), a flat byte-addressed data/stack space (4 KiB copy-on-write
//! pages underneath, see [`mem`]), Harvard-style code.
//! The syscall ABI: number in `r7`, arguments in `r0..r5`; on return `r0` =
//! first result, `r1` = errno (0 on success), `r2` = second result.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod builder;
pub mod disasm;
pub mod fuse;
pub mod image;
pub mod insn;
pub mod machine;
pub mod mem;

pub use asm::{assemble, AsmError};
pub use builder::ProgramBuilder;
pub use disasm::{disasm_insn, disassemble};
pub use fuse::{run_slice_fused, FusedKind, FusedOp, FusedProgram, FUSED_KINDS, FUSED_KIND_NAMES};
pub use image::{Image, DATA_BASE, IMAGE_MAGIC};
pub use insn::{Insn, Reg};
pub use machine::{
    BatchCall, FastMode, FastSpec, LaneAnswers, SliceEnd, SliceResult, StepEvent, TrapLane,
    VmState, SYSRET_ERRNO, SYSRET_RV0, SYSRET_RV1, SYS_NR_REG,
};
pub use mem::{AddressSpace, DEFAULT_MEM_SIZE, PAGE_SIZE};
