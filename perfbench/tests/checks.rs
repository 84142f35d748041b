//! Every job is checked: with the true references no job fails, and a
//! corrupted reference makes the failed share nonzero.

use ia_perfbench::bench::run_jobs;
use ia_perfbench::work::{FleetWork, Replay, Solo, Workload, MAKE8_TRACE};

const JOBS: u64 = 3;

#[test]
fn solo_jobs_pass_and_fail_on_a_corrupted_reference() {
    let mut w = Solo::setup(&MAKE8_TRACE);
    assert_eq!(w.prepare(), Vec::<String>::new());
    let s = run_jobs(&mut w, true, 0, |i| i < JOBS);
    assert_eq!((s.attempted, s.failed), (JOBS, 0), "{:?}", s.problems);

    let reference = w.reference.as_mut().expect("prepared");
    reference.plain.client.console.push(b'!');
    let s = run_jobs(&mut w, false, 0, |i| i < JOBS);
    assert_eq!(s.failed_share(), 1.0);
}

#[test]
fn an_engine_path_mismatch_fails_the_job() {
    let mut w = Solo::setup(&MAKE8_TRACE);
    assert!(w.prepare().is_empty());
    w.reference.as_mut().expect("prepared").engine.slices += 1;
    let s = run_jobs(&mut w, true, 0, |i| i < 2);
    assert_eq!(s.failed, 2);
}

#[test]
fn fleet_tenants_are_checked_against_their_solo_runs() {
    let mut w = FleetWork::setup(5, 24, 2);
    assert!(w.prepare().is_empty());
    let s = run_jobs(&mut w, true, 0, |i| i < JOBS);
    assert_eq!((s.attempted, s.failed), (JOBS, 0), "{:?}", s.problems);

    for r in &mut w.references {
        r.clock_ns += 1;
    }
    let s = run_jobs(&mut w, false, 0, |i| i < JOBS);
    assert!(s.failed_share() > 0.0);
}

#[test]
fn replay_seeks_are_checked_against_the_recording() {
    let mut w = Replay::setup(9);
    assert!(w.prepare().is_empty());
    let s = run_jobs(&mut w, true, 0, |i| i < 8);
    assert_eq!((s.attempted, s.failed), (8, 0), "{:?}", s.problems);

    for r in &mut w.recorded {
        r.total_syscalls += 1;
    }
    let s = run_jobs(&mut w, false, 0, |i| i < JOBS);
    assert_eq!(s.failed_share(), 1.0);
}
