//! `ia-fleet` — drive N tenant kernels across a work-stealing host pool.
//!
//! ```text
//! ia-fleet [--tenants N] [--threads T] [--seed S] [--quantum Q]
//!          [--pool P] [--bare] [--json]
//! ia-fleet --smoke
//! ```
//!
//! The default mode spins up `N` tenants (deterministic per-seed
//! workloads drawn from a pool of `P` distinct images installed in the
//! shared base), drives them to completion, and prints spin-up latency
//! and aggregate throughput.
//!
//! `--smoke` is the CI gate: 256 tenants, solo-vs-fleet determinism spot
//! checks, and a self-calibrating scaling ratio — aggregate throughput at
//! `min(8, host cores)` threads must reach at least `0.7 ×` linear over
//! the single-threaded run of the same fleet.

use std::process::ExitCode;
use std::time::Instant;

use ia_fleet::{solo_observable, workload, Fleet, FleetBase, Tenant};
use ia_interpose::Agent;

/// Tenant agent chains for the run.
fn agents_for(bare: bool) -> Vec<Box<dyn Agent>> {
    if bare {
        workload::bare_agents()
    } else {
        workload::tenant_agents()
    }
}

/// Builds the shared base with `pool` distinct tenant binaries installed.
fn build_base(pool: usize) -> FleetBase {
    let mut base = FleetBase::new();
    for p in 0..pool {
        base.install_image(
            format!("/bin/t{p}").as_bytes(),
            &workload::tenant_image(p as u64),
        );
    }
    base
}

/// Spins up `tenants` tenants over `base` (image `i % pool`), returning
/// them plus the mean spin-up nanoseconds.
fn spawn_all(base: &FleetBase, tenants: usize, pool: usize, bare: bool) -> (Vec<Tenant>, f64) {
    let start = Instant::now();
    let fleet: Vec<Tenant> = (0..tenants)
        .map(|i| {
            let path = format!("/bin/t{}", i % pool);
            Tenant::spawn_path(base, i, path.as_bytes(), &[b"tenant"], agents_for(bare))
        })
        .collect();
    let ns = start.elapsed().as_nanos() as f64 / tenants.max(1) as f64;
    (fleet, ns)
}

fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn smoke() -> ExitCode {
    const TENANTS: usize = 256;
    const POOL: usize = 16;
    let threads = host_threads().min(8);
    let base = build_base(POOL);

    // Determinism spot check: every 32nd tenant solo vs in-fleet. The
    // solo reference runs on a *private* base built identically to the
    // shared one (same image pool, its own exec cache) — base content is
    // part of the Observable (VFS digest, file counts), so it must match.
    let (tenants, _) = spawn_all(&base, TENANTS, POOL, false);
    let (results, par) = Fleet::new(threads).run(tenants);
    for id in (0..TENANTS).step_by(32) {
        let solo_base = build_base(POOL);
        let path = format!("/bin/t{}", id % POOL);
        let (outcome, obs) = solo_observable(
            &solo_base,
            path.as_bytes(),
            &[b"tenant"],
            workload::tenant_agents(),
            u64::MAX,
        );
        if results[id].outcome != outcome || results[id].obs != obs {
            eprintln!("smoke: FAIL tenant {id} diverged from its solo run");
            return ExitCode::FAILURE;
        }
    }

    // Scaling ratio: same fleet at 1 thread vs `threads`.
    let (serial_tenants, _) = spawn_all(&base, TENANTS, POOL, false);
    let (_, ser) = Fleet::new(1).run(serial_tenants);
    let ratio = par.syscalls_per_sec() / ser.syscalls_per_sec().max(1e-9);
    let floor = 0.7 * threads as f64;
    println!(
        "smoke: {} tenants, {} threads, {:.0} syscalls/s parallel vs {:.0} serial (ratio {ratio:.2}, floor {floor:.2})",
        TENANTS,
        threads,
        par.syscalls_per_sec(),
        ser.syscalls_per_sec(),
    );
    if threads > 1 && ratio < floor {
        eprintln!("smoke: FAIL scaling ratio {ratio:.2} under the {floor:.2} floor");
        return ExitCode::FAILURE;
    }
    println!("smoke: ok (determinism x8, scaling gate)");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        return smoke();
    }

    let flag = |name: &str, default: u64| -> u64 {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let tenants = flag("--tenants", 1_000) as usize;
    let threads = flag("--threads", host_threads().min(8) as u64) as usize;
    let seed = flag("--seed", 0x1af1_ee75_eed5);
    let quantum = flag("--quantum", 50_000);
    let pool = (flag("--pool", 16) as usize).clamp(1, tenants.max(1));
    let bare = args.iter().any(|a| a == "--bare");
    let json = args.iter().any(|a| a == "--json");

    let base = build_base(pool);
    let (fleet_tenants, spin_up_ns) = spawn_all(&base, tenants, pool, bare);
    let (results, report) = Fleet::new(threads)
        .seed(seed)
        .quantum(quantum)
        .run(fleet_tenants);

    let exited = results
        .iter()
        .filter(|r| r.outcome == ia_kernel::RunOutcome::AllExited)
        .count();
    let (hits, misses) = (base.exec_cache.hits(), base.exec_cache.misses());
    if json {
        println!(
            "{{\"tenants\": {}, \"threads\": {}, \"spin_up_ns_per_tenant\": {:.0}, \
             \"wall_ms\": {:.1}, \"syscalls_per_sec\": {:.0}, \"insns_per_sec\": {:.0}, \
             \"turns\": {}, \"steals\": {}, \"exec_cache\": {{\"hits\": {hits}, \"misses\": {misses}}}, \
             \"tenant_resident_bytes\": {{\"mean\": {}, \"max\": {}}}}}",
            report.tenants,
            report.threads,
            spin_up_ns,
            report.wall_ns as f64 / 1e6,
            report.syscalls_per_sec(),
            report.insns_per_sec(),
            report.total_turns,
            report.steals,
            report.tenant_resident_mean,
            report.tenant_resident_max,
        );
    } else {
        println!(
            "fleet: {} tenants on {} threads",
            report.tenants, report.threads
        );
        println!("  spin-up:   {spin_up_ns:.0} ns/tenant");
        println!("  wall:      {:.1} ms", report.wall_ns as f64 / 1e6);
        println!(
            "  syscalls:  {} ({:.0}/s)",
            report.total_syscalls,
            report.syscalls_per_sec()
        );
        println!(
            "  insns:     {} ({:.0}/s)",
            report.total_insns,
            report.insns_per_sec()
        );
        println!("  turns:     {} (quantum {quantum})", report.total_turns);
        println!("  steals:    {}", report.steals);
        println!("  exec cache: {hits} hits / {misses} misses");
        println!(
            "  resident:  {} B/tenant mean, {} B max",
            report.tenant_resident_mean, report.tenant_resident_max
        );
        println!("  exited:    {exited}/{}", report.tenants);
    }
    if exited != report.tenants {
        eprintln!(
            "fleet: {} tenants did not run to exit",
            report.tenants - exited
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
