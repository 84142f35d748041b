//! An untraced run pools the samples of several processes: what a part
//! prints is what the pooling process reads back.

use ia_perfbench::bench::{measure, report, Measured};

#[test]
fn parts_round_trip_and_pool() {
    let part = measure("make8-trace", 1, 0.01, false, 2, 1).expect("known workload");
    let wire = part.to_wire();
    let back = Measured::from_wire(&wire).expect("parses");
    assert_eq!(back.to_wire(), wire);

    let mut pooled = Measured::default();
    pooled.merge(back);
    pooled.merge(Measured::from_wire(&wire).expect("parses"));
    assert_eq!(pooled.samples.attempted, 2 * part.samples.attempted);
    assert_eq!(
        pooled.samples.plain_ns.len(),
        2 * part.samples.plain_ns.len()
    );
    assert_eq!(pooled.setup_s.len(), 2 * part.setup_s.len());

    let outcome = report(pooled, false);
    assert!(outcome.correct(), "{:?}", outcome.problems);
    assert!(outcome.metrics.iter().all(|(_, v, _)| *v > 0.0));
    assert!(Measured::from_wire("bogus 1").is_err());
}
