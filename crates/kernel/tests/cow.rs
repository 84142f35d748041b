//! Byte-level isolation of copy-on-write address spaces.
//!
//! `Observable` does not hash address-space bytes, so a page wrongly shared
//! between a snapshot and the live kernel, a parent and its child, or a
//! branch and its trunk would only show when a program happened to read
//! the corrupted byte. These tests read the bytes directly.

use ia_kernel::{run, Kernel, KernelBuilder, KernelRouter, Pid, RunLimits, RunOutcome};

/// Stores an incrementing counter into two adjacent pages, forever.
const COUNTER: &str = r#"
    main:
        li r1, 0x3000
        li r3, 0
    loop:
        addi r3, r3, 1
        st r3, (r1)
        st r3, 4096(r1)
        jmp loop
"#;

fn boot(src: &str) -> (Kernel, Pid) {
    let mut k = KernelBuilder::new().build();
    let img = ia_vm::assemble(src).unwrap();
    let pid = k.spawn_image(&img, &[b"t"], b"t");
    (k, pid)
}

fn steps(k: &mut Kernel, n: u64) {
    let out = run(k, &mut KernelRouter, RunLimits { max_steps: n });
    assert_eq!(out, RunOutcome::StepLimit);
}

fn bytes(k: &Kernel, pid: Pid, addr: u64, len: usize) -> Vec<u8> {
    k.proc(pid)
        .unwrap()
        .mem
        .read_bytes(addr, len)
        .unwrap()
        .into_owned()
}

fn word(k: &Kernel, pid: Pid, addr: u64) -> u64 {
    k.proc(pid).unwrap().mem.read_u64(addr).unwrap()
}

#[test]
fn restore_brings_back_the_bytes_of_capture_time() {
    let (mut k, pid) = boot(COUNTER);
    steps(&mut k, 1_000);
    let captured = bytes(&k, pid, 0x3000, 2 * 4096);
    assert_ne!(word(&k, pid, 0x3000), 0);

    let resident = k.resident_bytes();
    let snap = k.snapshot();
    assert_eq!(
        k.resident_bytes(),
        resident,
        "snapshot adds no resident page"
    );

    // Live writes after the capture: by the program, and directly into a
    // page the snapshot never held.
    steps(&mut k, 1_000);
    k.proc_mut(pid)
        .unwrap()
        .mem
        .write_u64(0x8000, 0xdead)
        .unwrap();
    assert_ne!(bytes(&k, pid, 0x3000, 2 * 4096), captured);

    // Restoring twice proves the live run did not write through into the
    // snapshot's pages either.
    for _ in 0..2 {
        k.restore(&snap);
        assert_eq!(bytes(&k, pid, 0x3000, 2 * 4096), captured);
        assert_eq!(word(&k, pid, 0x8000), 0);
        steps(&mut k, 777);
        k.proc_mut(pid)
            .unwrap()
            .mem
            .write_u64(0x3000, 0xbeef)
            .unwrap();
    }
}

#[test]
fn parent_and_child_writes_to_one_page_stay_private() {
    let (mut k, parent) = boot(
        r#"
        main:
            li r4, 0x3000
            li r5, 1
            st r5, (r4)
            sys fork
            jnz r0, parent
            ld r6, (r4)
            addi r6, r6, 40
            st r6, 24(r4)
            li r5, 2
            st r5, (r4)
            st r5, 16(r4)
        child:
            jmp child
        parent:
            li r5, 3
            st r5, 8(r4)
        spin:
            jmp spin
        "#,
    );
    steps(&mut k, 5_000);
    let pids = k.pids();
    assert_eq!(pids.len(), 2, "{pids:?}");
    let child = pids[1];
    assert_eq!(k.proc(child).unwrap().ppid, parent);

    // Word 0 was written before the fork, then again by the child only;
    // words 1, 2 and 3 by one side each, all in the same page. Word 3 is
    // what the child read of word 0 (inherited 1) plus 40.
    assert_eq!(word(&k, parent, 0x3000), 1);
    assert_eq!(word(&k, parent, 0x3008), 3);
    assert_eq!(word(&k, parent, 0x3010), 0);
    assert_eq!(word(&k, child, 0x3000), 2);
    assert_eq!(word(&k, child, 0x3008), 0);
    assert_eq!(word(&k, child, 0x3010), 2);
    assert_eq!(word(&k, child, 0x3018), 41);
    assert_eq!(word(&k, parent, 0x3018), 0);

    // The same holds for stores from outside the machine.
    k.proc_mut(parent)
        .unwrap()
        .mem
        .write_u64(0x3018, 5)
        .unwrap();
    assert_eq!(word(&k, child, 0x3018), 41);
    k.proc_mut(child).unwrap().mem.write_u64(0x3020, 6).unwrap();
    assert_eq!(word(&k, parent, 0x3020), 0);
}

#[test]
fn branch_writes_never_reach_the_trunk() {
    let (mut trunk, pid) = boot(COUNTER);
    steps(&mut trunk, 500);
    let at_branch = bytes(&trunk, pid, 0x3000, 2 * 4096);

    let mut branch = trunk.branch();
    assert_eq!(bytes(&branch, pid, 0x3000, 2 * 4096), at_branch);
    steps(&mut branch, 1_000);
    branch
        .proc_mut(pid)
        .unwrap()
        .mem
        .write_u64(0x9000, 1)
        .unwrap();
    assert_ne!(bytes(&branch, pid, 0x3000, 2 * 4096), at_branch);
    assert_eq!(
        bytes(&trunk, pid, 0x3000, 2 * 4096),
        at_branch,
        "trunk untouched"
    );
    assert_eq!(word(&trunk, pid, 0x9000), 0);

    // And the other way: the trunk moving on leaves the branch alone.
    let branch_now = bytes(&branch, pid, 0x3000, 2 * 4096);
    steps(&mut trunk, 333);
    assert_eq!(bytes(&branch, pid, 0x3000, 2 * 4096), branch_now);
}
