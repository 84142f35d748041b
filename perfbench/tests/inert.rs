//! Tracing is inert: a traced job and an untraced job of the same world
//! give the same Observable (both must match the reference) and take the
//! same engine path (lane hits, superinstructions, slices, router stats).

use ia_perfbench::work::{FleetWork, Job, Replay, Solo, Workload, MAKE8_TRACE, SCRIBE_TIMEX};

fn pair(w: &mut impl Workload, untraced: u64, traced: u64) -> (Job, Job) {
    assert_eq!(w.prepare(), Vec::<String>::new());
    let a = w.job(untraced, false);
    let b = w.job(traced, true);
    assert_eq!(a.problem, None);
    assert_eq!(b.problem, None);
    (a, b)
}

#[test]
fn scribe_tracing_is_inert() {
    let (a, b) = pair(&mut Solo::setup(&SCRIBE_TIMEX), 0, 1);
    assert_eq!(a.counts.engine, b.counts.engine);
    assert_eq!(a.counts.engine.lane_hits, 1, "the lane stays in use");
}

#[test]
fn make8_tracing_is_inert() {
    let (a, b) = pair(&mut Solo::setup(&MAKE8_TRACE), 0, 1);
    assert_eq!(a.counts.engine, b.counts.engine);
    assert!(a.counts.engine.fused > 0, "the fused engine stays in use");
}

#[test]
fn replay_tracing_is_inert() {
    let mut w = Replay::setup(3);
    assert!(w.prepare().is_empty());
    let points = w.seek_points();
    assert!(points > 50, "{points} checkpoints");
    for cp in [0, points / 2, points - 1] {
        let a = w.seek_from(cp, false);
        let b = w.seek_from(cp, true);
        assert_eq!(a.problem, None);
        assert_eq!(b.problem, None);
        assert_eq!(a.counts.engine, b.counts.engine, "seek from {cp}");
    }
}

#[test]
fn fleet_tracing_is_inert() {
    let (a, b) = pair(&mut FleetWork::setup(11, 32, 2), 0, 0);
    assert_eq!(a.counts.engine.insns, b.counts.engine.insns);
    assert_eq!(a.counts.turns, b.counts.turns);
}
