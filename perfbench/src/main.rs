//! `ia-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]`
//!
//! Prints human-readable notes, then one JSON result line as the last
//! line of standard output. `--trace 0` reports the end-to-end metrics,
//! pooled over [`bench::PARTS`] child processes of this program, run one
//! after the other (`--part I`, which prints raw samples instead). `--trace
//! 1` runs in one process, reports the per-layer metrics and, with
//! `--spans`, writes the spans of the first traced job as JSON lines.

use std::io::Write as _;
use std::process::ExitCode;

use ia_perfbench::bench;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
    part: Option<u64>,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        spans: None,
        part: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--spans" => args.spans = Some(value),
            "--part" => args.part = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} out of (0, 600]", args.seconds));
    }
    Ok(args)
}

/// Runs the untraced measurement as [`bench::PARTS`] child processes, one
/// after the other, and pools their samples.
fn pooled(args: &Args) -> Result<bench::Measured, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let seconds = (args.seconds / bench::PARTS as f64).to_string();
    let mut pooled = bench::Measured::default();
    for part in 0..bench::PARTS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &seconds])
            .args(["--trace", "0", "--part", &part.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("starting part {part}: {e}"))?;
        if !out.status.success() {
            return Err(format!("part {part} exited with {}", out.status));
        }
        let text = String::from_utf8(out.stdout).map_err(|e| format!("part {part}: {e}"))?;
        pooled.merge(bench::Measured::from_wire(&text)?);
    }
    Ok(pooled)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ia-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let measured = if args.trace || args.part.is_some() {
        let part = args.part.unwrap_or(0);
        bench::measure(
            &args.workload,
            args.seed,
            args.seconds,
            args.trace,
            threads,
            part,
        )
    } else {
        pooled(&args)
    };
    let measured = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("ia-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.part.is_some() {
        print!("{}", measured.to_wire());
        return ExitCode::SUCCESS;
    }
    let outcome = bench::report(measured, args.trace);
    println!(
        "workload {} seed {} trace {} host threads {threads}",
        args.workload, args.seed, args.trace as u8
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    for p in &outcome.problems {
        println!("FAILED: {p}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("  {name:<42} {value:>16.6} {unit}");
    }
    if let Some(path) = &args.spans {
        let written = std::fs::File::create(path).and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            ia_perfbench::trace::write_jsonl(&outcome.spans, &mut w)?;
            w.flush()
        });
        if let Err(e) = written {
            eprintln!("ia-perfbench: writing spans to {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("{} spans written to {path}", outcome.spans.len());
    }
    println!("{}", outcome.result_json());
    ExitCode::SUCCESS
}
