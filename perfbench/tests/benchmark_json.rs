//! `BENCHMARK.json` names exactly the workloads and metrics this benchmark
//! reports, with the same units.

use ia_perfbench::bench::{per_layer_names, END_TO_END, WORKLOADS};

#[test]
fn benchmark_json_matches_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let flat: String = text.chars().filter(|c| !c.is_whitespace()).collect();

    let mut names = 0;
    for w in WORKLOADS {
        assert!(flat.contains(&format!(r#"{{"name":"{w}","why":"#)), "{w}");
        names += 1;
    }
    for (n, u) in END_TO_END {
        assert!(
            flat.contains(&format!(r#"{{"name":"{n}","unit":"{u}","better":"#)),
            "{n}"
        );
        names += 1;
    }
    for (n, u) in per_layer_names() {
        assert!(
            flat.contains(&format!(r#"{{"name":"{n}","unit":"{u}","better":"#)),
            "{n}"
        );
        names += 1;
    }
    assert_eq!(flat.matches(r#""name":"#).count(), names);
}
