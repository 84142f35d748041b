//! Fleet-scale measurement backing the `BENCH_3.json` fleet section.
//!
//! The multi-tenant fleet claim is twofold: tenants are cheap to spin up
//! (clone-from-base VFS, shared exec cache — no per-tenant decode) and
//! aggregate throughput scales with worker threads while every tenant
//! stays bit-identical to its solo run. This module measures both:
//!
//! * `spin_up_ns_per_tenant` — mean host nanoseconds to build one
//!   tenant world (kernel over the shared base + client spawn through
//!   the shared exec cache + agent wrap), at each fleet size.
//! * `syscalls_per_sec` / `insns_per_sec` — aggregate simulated-syscall
//!   and client-instruction throughput driving the whole fleet to
//!   completion on a work-stealing pool, at 1 thread and at
//!   `min(8, host cores)` threads.
//! * `resident_bytes_mean` / `resident_bytes_max` — the address-space
//!   pages each tenant held at its peak, averaged and maxed over the
//!   fleet (copy-on-write pages: only what a tenant writes is resident).

use std::time::Instant;

use ia_fleet::{workload, Fleet, FleetBase, Tenant};

/// Fleet sizes swept (tenant counts). The top size is the acceptance
/// bar: the pool must sustain 10k+ concurrent tenants.
pub const FLEET_SIZES: [usize; 3] = [100, 1_000, 10_000];

/// Distinct tenant binaries installed in the shared base.
const POOL: usize = 16;

/// One measured fleet configuration.
#[derive(Debug, Clone)]
pub struct FleetSample {
    /// Concurrent tenants driven.
    pub tenants: usize,
    /// Worker threads in the pool.
    pub threads: usize,
    /// Mean host ns to spin up one tenant world.
    pub spin_up_ns_per_tenant: f64,
    /// Wall milliseconds to drive the whole fleet to completion.
    pub wall_ms: f64,
    /// Aggregate simulated syscalls per host second.
    pub syscalls_per_sec: f64,
    /// Aggregate client instructions per host second.
    pub insns_per_sec: f64,
    /// Successful work steals between workers.
    pub steals: u64,
    /// Mean per-tenant peak of resident address-space bytes.
    pub resident_bytes_mean: u64,
    /// Largest per-tenant peak of resident address-space bytes.
    pub resident_bytes_max: u64,
}

fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(8)
}

/// Builds the shared base with the standard tenant binary pool.
fn build_base() -> FleetBase {
    let mut base = FleetBase::new();
    for p in 0..POOL {
        base.install_image(
            format!("/bin/t{p}").as_bytes(),
            &workload::tenant_image(p as u64),
        );
    }
    base
}

/// Measures one (tenants, threads) point: spin-up, then drive.
fn measure(tenants: usize, threads: usize) -> FleetSample {
    let base = build_base();
    let t0 = Instant::now();
    let fleet: Vec<Tenant> = (0..tenants)
        .map(|i| {
            let path = format!("/bin/t{}", i % POOL);
            Tenant::spawn_path(
                &base,
                i,
                path.as_bytes(),
                &[b"tenant"],
                workload::tenant_agents(),
            )
        })
        .collect();
    let spin_up = t0.elapsed().as_nanos() as f64 / tenants.max(1) as f64;
    let (_, report) = Fleet::new(threads).run(fleet);
    FleetSample {
        tenants,
        threads,
        spin_up_ns_per_tenant: spin_up,
        wall_ms: report.wall_ns as f64 / 1e6,
        syscalls_per_sec: report.syscalls_per_sec(),
        insns_per_sec: report.insns_per_sec(),
        steals: report.steals,
        resident_bytes_mean: report.tenant_resident_mean,
        resident_bytes_max: report.tenant_resident_max,
    }
}

/// Sweeps [`FLEET_SIZES`] at 1 thread and at `min(8, host cores)`
/// threads (deduplicated on single-core hosts).
#[must_use]
pub fn run_all() -> Vec<FleetSample> {
    let par = host_threads();
    let mut out = Vec::new();
    for tenants in FLEET_SIZES {
        out.push(measure(tenants, 1));
        if par > 1 {
            out.push(measure(tenants, par));
        }
    }
    out
}

/// Renders the `"fleet"` section body (the JSON array lines, without the
/// key) for splicing into `BENCH_3.json`.
#[must_use]
pub fn render_section(samples: &[FleetSample]) -> String {
    let mut s = String::new();
    for (i, f) in samples.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"tenants\": {}, \"threads\": {}, \"spin_up_ns_per_tenant\": {:.0}, \
             \"wall_ms\": {:.1}, \"syscalls_per_sec\": {:.0}, \"insns_per_sec\": {:.0}, \
             \"steals\": {}, \"resident_bytes_mean\": {}, \"resident_bytes_max\": {}}}{}\n",
            f.tenants,
            f.threads,
            f.spin_up_ns_per_tenant,
            f.wall_ms,
            f.syscalls_per_sec,
            f.insns_per_sec,
            f.steals,
            f.resident_bytes_mean,
            f.resident_bytes_max,
            if i + 1 < samples.len() { "," } else { "" },
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_point_measures_and_renders() {
        let s = measure(32, 1);
        assert_eq!(s.tenants, 32);
        assert!(s.syscalls_per_sec > 0.0);
        assert!(s.spin_up_ns_per_tenant > 0.0);
        assert!(s.resident_bytes_mean > 0 && s.resident_bytes_mean <= s.resident_bytes_max);
        let sect = render_section(&[s]);
        assert!(sect.contains("\"tenants\": 32"));
        assert_eq!(sect.matches('{').count(), sect.matches('}').count());
    }
}
