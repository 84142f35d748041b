//! `reproduce` — prints every table of the paper's evaluation section,
//! regenerated from the simulation.
//!
//! ```text
//! cargo run -p ia-bench --release --bin reproduce            # everything
//! cargo run -p ia-bench --release --bin reproduce table-3-2  # one table
//! cargo run -p ia-bench --release --bin reproduce -- --json  # BENCH_{1,2,3}.json
//! cargo run -p ia-bench --release --bin reproduce -- --json2 # BENCH_2.json only
//! cargo run -p ia-bench --release --bin reproduce -- --json3 # BENCH_3.json only
//! cargo run -p ia-bench --release --bin reproduce -- --smoke # CI gate
//! ```

use ia_bench::{
    ablation_pay_per_use, dfs_trace_comparison, fleetbench, hostbench, overhead, render_ablation,
    render_dfs, render_table_3_1, render_table_3_4, render_table_3_5, render_timing, snapbench,
    table_3_1, table_3_2, table_3_3, table_3_4, table_3_5,
};

/// Largest tolerated drop of the smoke scenario's normalized throughput
/// ratio below the committed baseline before CI fails.
const SMOKE_TOLERANCE: f64 = 0.20;

/// Extracts a committed field of one scenario row — matched by name,
/// scheduler, engine, and fast-path flag — from the `BENCH_1.json` text.
/// Hand-rolled: the workspace builds offline with no serialization
/// dependency, and the document is our own line-per-scenario writer's
/// output.
fn baseline_field(json: &str, name: &str, engine: &str, fast: bool, field: &str) -> Option<f64> {
    json.lines()
        .find(|l| {
            l.contains(&format!("\"name\": \"{name}\""))
                && l.contains("\"sched\": \"sliced\"")
                && l.contains(&format!("\"engine\": \"{engine}\""))
                && l.contains(&format!("\"fast_path\": {fast}"))
        })
        .and_then(|l| {
            let rest = l.split(&format!("\"{field}\": ")).nth(1)?;
            rest.split([',', '}']).next()?.trim().parse().ok()
        })
}

/// One smoke gate: compares the live guarded/reference throughput ratio
/// against the committed one, failing beyond [`SMOKE_TOLERANCE`]. Both
/// sides of each ratio are measured in the same host window, so a slow
/// (or fast) CI host cancels out instead of tripping — or masking — the
/// gate.
fn smoke_gate(json: &str, what: &str, name: &str, fast: bool, field: &str, live: f64) -> bool {
    let committed_guarded = baseline_field(json, name, "fused", fast, field);
    let committed_reference = baseline_field(json, name, "plain", false, field);
    let (Some(guarded), Some(reference)) = (committed_guarded, committed_reference) else {
        eprintln!("smoke: missing {name} fused/plain rows in BENCH_1.json");
        return false;
    };
    if reference <= 0.0 {
        eprintln!("smoke: degenerate {name} plain baseline in BENCH_1.json");
        return false;
    }
    let committed = guarded / reference;
    let floor = committed * (1.0 - SMOKE_TOLERANCE);
    println!(
        "smoke: {name}: live {what} ratio {live:.2}x vs committed {committed:.2}x (floor {floor:.2}x)"
    );
    if live < floor {
        eprintln!(
            "smoke: FAIL — {name} hot-path speedup regressed more than {:.0}% below the committed baseline",
            SMOKE_TOLERANCE * 100.0
        );
        return false;
    }
    true
}

/// Compares fresh runs of the trap and compute smoke scenarios — each
/// normalized by a plain-engine reference measured in the same window —
/// against the committed baseline ratios; exits non-zero on a regression
/// beyond [`SMOKE_TOLERANCE`] on either.
fn smoke() {
    let json = match std::fs::read_to_string("BENCH_1.json") {
        Ok(text) => text,
        Err(e) => {
            eprintln!("smoke: cannot read BENCH_1.json: {e}");
            std::process::exit(1);
        }
    };
    let (traps, traps_ref) = hostbench::run_smoke();
    let (compute, compute_ref) = hostbench::run_smoke_compute();
    let ok = smoke_gate(
        &json,
        "traps/s",
        hostbench::SMOKE_SCENARIO,
        true,
        "traps_per_sec",
        traps.traps_per_sec / traps_ref.traps_per_sec.max(1e-9),
    ) & smoke_gate(
        &json,
        "Minsns/s",
        hostbench::SMOKE_COMPUTE_SCENARIO,
        true,
        "minsns_per_sec",
        compute.minsns_per_sec / compute_ref.minsns_per_sec.max(1e-9),
    );
    if !ok {
        std::process::exit(1);
    }
    println!("smoke: ok");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if args.iter().any(|a| a == "--smoke") {
        smoke();
        return;
    }

    if args.iter().any(|a| a == "--json") {
        // Host-throughput mode: measure the interpreter hot path under both
        // schedulers and emit the machine-readable baseline.
        let json = hostbench::render_json(&hostbench::run_all());
        print!("{json}");
        if let Err(e) = std::fs::write("BENCH_1.json", &json) {
            eprintln!("warning: could not write BENCH_1.json: {e}");
        }
        // Per-agent syscall overhead table (paper §6 shape), from the
        // ia-obs metrics registry.
        let json2 = overhead::render_json(&overhead::run_all());
        if let Err(e) = std::fs::write("BENCH_2.json", &json2) {
            eprintln!("warning: could not write BENCH_2.json: {e}");
        }
        // Snapshot cost vs VFS size, branch-based txn sessions, and the
        // multi-tenant fleet scaling sweep.
        let fleet = fleetbench::run_all();
        let json3 = snapbench::render_json(&snapbench::run_all(), &fleet);
        if let Err(e) = std::fs::write("BENCH_3.json", &json3) {
            eprintln!("warning: could not write BENCH_3.json: {e}");
        }
        return;
    }

    if args.iter().any(|a| a == "--json2") {
        // Just the per-agent overhead table — virtual-time measurement,
        // cheap and deterministic.
        let json2 = overhead::render_json(&overhead::run_all());
        print!("{json2}");
        if let Err(e) = std::fs::write("BENCH_2.json", &json2) {
            eprintln!("warning: could not write BENCH_2.json: {e}");
        }
        return;
    }

    if args.iter().any(|a| a == "--json3") {
        // Just the snapshot-cost + fleet document — much cheaper than the
        // full throughput sweep, and the one CI re-measures per push.
        let fleet = fleetbench::run_all();
        let json3 = snapbench::render_json(&snapbench::run_all(), &fleet);
        print!("{json3}");
        if let Err(e) = std::fs::write("BENCH_3.json", &json3) {
            eprintln!("warning: could not write BENCH_3.json: {e}");
        }
        return;
    }

    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name || a == "all");

    println!("Interposition Agents (Jones, SOSP '93) — reproduction report");
    println!("=============================================================\n");

    if want("table-3-1") {
        println!("{}", render_table_3_1(&table_3_1()));
    }
    if want("table-3-2") {
        println!(
            "{}",
            render_timing(
                "Table 3-2: Time to format my dissertation (VAX 6250 profile)",
                "paper: 151.7 s base; timex +0.5 s, trace +3.5 s (2.5%), union +5.0 s (3.5%)",
                &table_3_2()
            )
        );
    }
    if want("table-3-3") {
        println!(
            "{}",
            render_timing(
                "Table 3-3: Time to make 8 programs (25 MHz i486 profile)",
                "paper: 16.0 s base; timex +19%, union +82%, trace +107%",
                &table_3_3()
            )
        );
    }
    if want("table-3-4") {
        println!("{}", render_table_3_4(&table_3_4()));
    }
    if want("table-3-5") {
        println!("{}", render_table_3_5(&table_3_5()));
    }
    if want("dfs-trace") {
        println!("{}", render_dfs(&dfs_trace_comparison()));
    }
    if want("ablation") {
        println!("{}", render_ablation(&ablation_pay_per_use()));
    }
}
