//! Host-throughput measurement backing `reproduce --json` (`BENCH_1.json`).
//!
//! Unlike everything else in this crate, these numbers are *host*
//! wall-clock, not virtual time: how many simulated instructions and traps
//! per second the interpreter-plus-scheduler retires on the machine
//! running it. Each scenario runs under both the sliced hot-path scheduler
//! and the per-instruction legacy scheduler in the same process, so the
//! reported speedups are measured in one environment rather than compared
//! across commits.
//!
//! Scenarios, following the paper's low-level methodology (§3.4):
//!
//! * a pure compute loop (no traps) — interpreter + scheduler overhead,
//!   reported in Minsns/s;
//! * a `getpid()` trap loop — trap dispatch overhead, reported in traps/s;
//! * both repeated beneath an ALL-interest symbolic agent, the worst-case
//!   interposition configuration of Table 3-4;
//! * the trap loop beneath a batchable pass-through observer (vectored
//!   upcalls) and beneath a stack of three timex agents (flat dispatch
//!   over a deep chain).
//!
//! Every scenario also runs with the trap fast path disabled, so the
//! committed numbers carry the before/after of the fast-path work.

use std::time::Instant;

use ia_agents::{PassThrough, TimeSymbolic, Timex};
use ia_interpose::InterposedRouter;
use ia_kernel::{Engine, Kernel, KernelBuilder, RunOutcome};
use ia_obs::report::{json_escape, json_header};
use ia_vm::{Image, ProgramBuilder};
use ia_workloads::micro::{self, MicroCall};

/// Iterations of the 2-instruction compute loop (≈ 6M instructions with
/// prologue).
const COMPUTE_ITERS: u64 = 3_000_000;
/// `getpid()` traps per trap-loop run.
const TRAP_ITERS: u64 = 150_000;
/// Timed repetitions per scenario; the best (minimum-time) run is kept.
const REPS: usize = 3;

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario key, e.g. `compute/no_agent`.
    pub name: String,
    /// `"sliced"` or `"legacy"`.
    pub sched: &'static str,
    /// `"fused"` (superinstruction engine) or `"plain"` (single-step
    /// reference). The legacy scheduler is per-instruction by construction
    /// and always reports `"plain"`.
    pub engine: &'static str,
    /// Whether the trap fast path (flat tables, in-loop answers, vectored
    /// upcalls) was enabled for the run.
    pub fast_path: bool,
    /// Simulated instructions retired.
    pub insns: u64,
    /// Traps dispatched at the kernel.
    pub traps: u64,
    /// Best host wall-clock seconds over the repetitions.
    pub host_secs: f64,
    /// Millions of simulated instructions per host second.
    pub minsns_per_sec: f64,
    /// Traps per host second.
    pub traps_per_sec: f64,
}

/// The agent configuration wrapped around a benchmark process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AgentCfg {
    /// Bare process, no chain.
    None,
    /// One ALL-interest symbolic agent (Table 3-4 worst case).
    AllInterest,
    /// One batchable full-coverage observer (vectored upcall floor).
    Observer,
    /// Three stacked timex agents (deep chain, flat dispatch).
    Stacked3,
}

impl AgentCfg {
    fn install(self, k: &mut Kernel, router: &mut InterposedRouter, pid: ia_kernel::Pid) {
        match self {
            AgentCfg::None => {}
            AgentCfg::AllInterest => {
                ia_interpose::wrap_process(k, router, pid, TimeSymbolic::boxed(), &[]);
            }
            AgentCfg::Observer => {
                ia_interpose::wrap_process(k, router, pid, PassThrough::boxed(), &[]);
            }
            AgentCfg::Stacked3 => {
                for off in [60, 120, 180] {
                    ia_interpose::wrap_process(k, router, pid, Timex::boxed(off), &[]);
                }
            }
        }
    }
}

fn compute_image(iters: u64) -> Image {
    let mut b = ProgramBuilder::new();
    b.entry_here();
    b.li(13, iters);
    let top = b.here();
    let done = b.new_label();
    b.jz(13, done);
    b.addi(13, 13, -1);
    b.jmp(top);
    b.bind(done);
    b.li(0, 0);
    b.sys(ia_abi::Sysno::Exit);
    b.build()
}

fn measure_once(
    img: &Image,
    agent: AgentCfg,
    legacy: bool,
    fast: bool,
    fused: bool,
) -> (u64, u64, f64) {
    let mut k = KernelBuilder::new()
        .fast_path(fast)
        .engine(if fused { Engine::Fused } else { Engine::Plain })
        .build();
    micro::setup(&mut k);
    let pid = k.spawn_image(img, &[b"bench"], b"bench");
    let mut router = InterposedRouter::new();
    agent.install(&mut k, &mut router, pid);
    let t0 = Instant::now();
    let outcome = if legacy {
        k.run_with_legacy(&mut router)
    } else {
        k.run_with(&mut router)
    };
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(outcome, RunOutcome::AllExited, "bench workload must finish");
    (k.total_insns, k.total_syscalls, secs)
}

fn scenario(
    name: &str,
    img: &Image,
    agent: AgentCfg,
    legacy: bool,
    fast: bool,
    fused: bool,
) -> Scenario {
    let mut best: Option<(u64, u64, f64)> = None;
    for _ in 0..REPS {
        let r = measure_once(img, agent, legacy, fast, fused);
        if best.as_ref().is_none_or(|b| r.2 < b.2) {
            best = Some(r);
        }
    }
    let (insns, traps, host_secs) = best.expect("REPS > 0");
    Scenario {
        name: name.to_string(),
        sched: if legacy { "legacy" } else { "sliced" },
        engine: if fused && !legacy { "fused" } else { "plain" },
        fast_path: fast,
        insns,
        traps,
        host_secs,
        minsns_per_sec: insns as f64 / host_secs / 1e6,
        traps_per_sec: traps as f64 / host_secs,
    }
}

/// Runs every scenario under both schedulers, the sliced scheduler under
/// both execution engines, and the fused engine both with and without the
/// trap fast path — each later column turning on one stage of the hot
/// path, so the committed numbers carry each stage's before/after.
#[must_use]
pub fn run_all() -> Vec<Scenario> {
    let compute = compute_image(COMPUTE_ITERS);
    let traps = micro::loop_image(MicroCall::Getpid, TRAP_ITERS);
    let mut out = Vec::new();
    for (loop_name, img, agent) in [
        ("compute/no_agent", &compute, AgentCfg::None),
        (
            "compute/all_interest_agent",
            &compute,
            AgentCfg::AllInterest,
        ),
        ("traps/no_agent", &traps, AgentCfg::None),
        ("traps/all_interest_agent", &traps, AgentCfg::AllInterest),
        ("traps/pass_through", &traps, AgentCfg::Observer),
        ("traps/stacked3", &traps, AgentCfg::Stacked3),
    ] {
        for (legacy, fused, fast) in [
            (true, false, false),
            (false, false, false),
            (false, true, false),
            (false, true, true),
        ] {
            out.push(scenario(loop_name, img, agent, legacy, fast, fused));
        }
    }
    out
}

/// The trap scenario the CI smoke check guards: the bare trap loop on the
/// fully-enabled hot path (sliced scheduler, fused engine, fast path on).
pub const SMOKE_SCENARIO: &str = "traps/no_agent";

/// The compute scenario the CI smoke check guards: the bare compute loop
/// on the default configuration (sliced scheduler, fused engine, fast
/// path on), gating interpreter throughput in Minsns/s.
pub const SMOKE_COMPUTE_SCENARIO: &str = "compute/no_agent";

/// Measures [`SMOKE_SCENARIO`] on the guarded hot path (fused engine,
/// fast path on) *and* a plain-engine full-dispatch reference of the same
/// loop, back to back in the same host window. The gate compares the
/// live guarded/reference *ratio* against the committed one: shared CI
/// hosts swing absolute throughput by 2× between frequency windows, and
/// a ratio divides the window out while still catching hot-path
/// regressions. Takes the best of several full measurement rounds: a
/// gate must not trip on a cold cache or a scheduling hiccup.
#[must_use]
pub fn run_smoke() -> (Scenario, Scenario) {
    let traps = micro::loop_image(MicroCall::Getpid, TRAP_ITERS);
    best_pair(|| {
        (
            scenario(SMOKE_SCENARIO, &traps, AgentCfg::None, false, true, true),
            scenario(SMOKE_SCENARIO, &traps, AgentCfg::None, false, false, false),
        )
    })
}

/// Measures [`SMOKE_COMPUTE_SCENARIO`] on the default configuration
/// (fused engine, fast path on) plus its plain-engine reference, same
/// pairing and best-of discipline as [`run_smoke`].
#[must_use]
pub fn run_smoke_compute() -> (Scenario, Scenario) {
    let compute = compute_image(COMPUTE_ITERS);
    best_pair(|| {
        (
            scenario(
                SMOKE_COMPUTE_SCENARIO,
                &compute,
                AgentCfg::None,
                false,
                true,
                true,
            ),
            scenario(
                SMOKE_COMPUTE_SCENARIO,
                &compute,
                AgentCfg::None,
                false,
                false,
                false,
            ),
        )
    })
}

/// Runs `round` three times and keeps the round whose *guarded* scenario
/// was fastest; its reference comes from the same round, so the pair saw
/// the same host window.
fn best_pair(mut round: impl FnMut() -> (Scenario, Scenario)) -> (Scenario, Scenario) {
    (0..3)
        .map(|_| round())
        .min_by(|a, b| a.0.host_secs.total_cmp(&b.0.host_secs))
        .expect("at least one round")
}

/// Renders the scenarios (plus sliced-over-legacy speedups) as the
/// `BENCH_1.json` document. Hand-rolled writer: the workspace is built
/// offline with no serialization dependency.
#[must_use]
pub fn render_json(scenarios: &[Scenario]) -> String {
    let mut s = json_header("bench", "BENCH_1");
    s.push_str("  \"description\": \"host throughput of the simulator hot path, sliced vs legacy scheduler, one environment\",\n");
    s.push_str("  \"machine_profile\": \"i486_25\",\n");
    s.push_str("  \"scenarios\": [\n");
    for (i, sc) in scenarios.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"sched\": \"{}\", \"engine\": \"{}\", \"fast_path\": {}, \"insns\": {}, \"traps\": {}, \"host_secs\": {:.6}, \"minsns_per_sec\": {:.3}, \"traps_per_sec\": {:.1}}}{}\n",
            json_escape(&sc.name),
            sc.sched,
            sc.engine,
            sc.fast_path,
            sc.insns,
            sc.traps,
            sc.host_secs,
            sc.minsns_per_sec,
            sc.traps_per_sec,
            if i + 1 < scenarios.len() { "," } else { "" },
        ));
    }
    let names: Vec<&String> = {
        let mut v: Vec<&String> = scenarios.iter().map(|s| &s.name).collect();
        v.dedup();
        v
    };
    let of = |name: &str, sched: &str, engine: &str, fast: bool| {
        scenarios.iter().find(|s| {
            s.name == name && s.sched == sched && s.engine == engine && s.fast_path == fast
        })
    };
    s.push_str("  ],\n");
    // Each ratio compares runs taken in this same process, turning on one
    // hot-path stage at a time: scheduler, execution engine, trap fast
    // path.
    for (section, num, den) in [
        (
            "speedup_sliced_over_legacy",
            ("legacy", "plain", false),
            ("sliced", "plain", false),
        ),
        (
            "speedup_fused_over_plain",
            ("sliced", "plain", false),
            ("sliced", "fused", false),
        ),
        (
            "speedup_fast_over_nofast",
            ("sliced", "fused", false),
            ("sliced", "fused", true),
        ),
    ] {
        let rows: Vec<(&String, f64)> = names
            .iter()
            .filter_map(|name| {
                let slow = of(name, num.0, num.1, num.2)?;
                let quick = of(name, den.0, den.1, den.2)?;
                Some((*name, slow.host_secs / quick.host_secs))
            })
            .collect();
        s.push_str(&format!("  \"{section}\": {{\n"));
        for (i, (name, speedup)) in rows.iter().enumerate() {
            s.push_str(&format!(
                "    \"{}\": {:.2}{}\n",
                json_escape(name),
                speedup,
                if i + 1 < rows.len() { "," } else { "" },
            ));
        }
        let last = section == "speedup_fast_over_nofast";
        s.push_str(if last { "  }\n" } else { "  },\n" });
    }
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_image_retires_expected_instructions() {
        let mut k = KernelBuilder::new().build();
        micro::setup(&mut k);
        k.spawn_image(&compute_image(50), &[b"c"], b"c");
        assert_eq!(k.run_to_completion(), RunOutcome::AllExited);
        // 1 (li) + 50 × 3 (jz, addi, jmp) + 1 (jz taken) + 1 (li) +
        // 2 (sys expands to li r7 + trap)
        assert_eq!(k.total_insns, 1 + 50 * 3 + 1 + 1 + 2);
    }

    fn fake(sched: &'static str, engine: &'static str, fast: bool, host_secs: f64) -> Scenario {
        Scenario {
            name: "compute/no_agent".into(),
            sched,
            engine,
            fast_path: fast,
            insns: 100,
            traps: 1,
            host_secs,
            minsns_per_sec: 100.0 / host_secs / 1e6,
            traps_per_sec: 1.0 / host_secs,
        }
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let scenarios = vec![
            fake("legacy", "plain", false, 0.2),
            fake("sliced", "plain", false, 0.05),
            fake("sliced", "fused", false, 0.025),
            fake("sliced", "fused", true, 0.0125),
        ];
        let j = render_json(&scenarios);
        assert!(j.starts_with('{') && j.trim_end().ends_with('}'));
        assert!(j.contains("\"schema_version\": 1"));
        assert_eq!(j.matches("\"name\"").count(), 4);
        // legacy (0.2) over sliced plain (0.05) = 4; each later stage
        // (fused engine, fast path) halves the time again.
        assert!(j.contains("\"speedup_sliced_over_legacy\""));
        assert!(j.contains("\"compute/no_agent\": 4.00"));
        assert!(j.contains("\"speedup_fused_over_plain\""));
        assert!(j.contains("\"speedup_fast_over_nofast\""));
        assert_eq!(j.matches("\"compute/no_agent\": 2.00").count(), 2);
        assert!(j.contains("\"engine\": \"fused\""));
        assert!(j.contains("\"fast_path\": true"));
        let opens = j.matches('{').count();
        assert_eq!(opens, j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn json_strings_are_escaped() {
        // Regression: the old local escaper missed control characters
        // entirely (and the shared one must keep handling quotes and
        // backslashes in scenario names).
        let odd = |sched: &'static str| Scenario {
            name: "odd \"name\"\\with\ncontrols".into(),
            sched,
            engine: "plain",
            fast_path: false,
            insns: 1,
            traps: 0,
            host_secs: 0.1,
            minsns_per_sec: 0.0,
            traps_per_sec: 0.0,
        };
        let scenarios = vec![odd("legacy"), odd("sliced")];
        let j = render_json(&scenarios);
        assert!(j.contains(r#"odd \"name\"\\with\ncontrols"#));
        assert!(!j.contains('\u{0}'));
        // No raw newline inside any string literal: every line must end
        // outside a quote run (cheap proxy: the escaped form appears and
        // the raw name does not).
        assert!(!j.contains("odd \"name\"\\with\ncontrols"));
    }
}
