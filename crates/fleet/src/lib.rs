//! Multi-tenant fleet: N independent kernels on a work-stealing host pool.
//!
//! The paper's agents are per-process; the north star is "millions of
//! users". This crate closes the gap between one single-threaded `Kernel`
//! and a *fleet* of them: every tenant is a whole world — kernel, router,
//! agent chains — that is [`Send`] and cheap to mass-instantiate, and the
//! [`Fleet`] drives thousands of them across host threads in bounded-step
//! quanta.
//!
//! # Sharing (what tenants have in common)
//!
//! Spin-up cost and memory are dominated by what tenants *don't* copy:
//!
//! * **Base VFS** — [`FleetBase`] builds the filesystem skeleton once;
//!   every tenant's kernel starts from an O(1) persistent-trie clone
//!   ([`KernelBuilder::base_vfs`]). Divergent writes copy paths; the
//!   common base stays shared, read-only, behind `Arc`s.
//! * **Exec cache** — one shared [`ExecCache`] handle
//!   ([`KernelBuilder::exec_cache`]): the first tenant to exec an image
//!   parses, lints, decodes and fuses it; every other tenant's exec is a
//!   read-locked lookup returning `Arc`s to the same prepared code.
//!
//! # Determinism (why stealing can't be observed)
//!
//! Each tenant's `Observable` is bit-identical to a solo run of the same
//! configuration, by construction:
//!
//! * All *semantic* state — VFS, process table, virtual clock, console —
//!   is tenant-owned. The work-stealing pool migrates whole tenants
//!   between threads but never runs one tenant on two threads at once, so
//!   there is no intra-tenant interleaving to vary.
//! * The *shared* state is either immutable (the base trie nodes; COW
//!   isolates writers) or host-side bookkeeping outside the virtual-time
//!   model (the exec cache: a hit and a miss produce the same kernel
//!   state, and a cached verdict is identical to a recomputed one under
//!   the — required-identical — gate).
//! * Quantum boundaries ([`RunOutcome::StepLimit`] park/resume) don't
//!   perturb virtual time: the sliced scheduler's state lives entirely in
//!   the kernel, so `run(quantum)` twice equals `run(2*quantum)` once.
//!
//! `conform --fleet` and the 32-seed determinism test hold this claim to
//! account on every CI run.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use ia_interpose::{wrap_process, Agent, InterposedRouter};
use ia_kernel::{run, Clock, ExecCache, Kernel, KernelBuilder, Observable, RunLimits, RunOutcome};
use ia_prng::Prng;
use ia_vfs::Fs;
use ia_vm::Image;

pub mod workload;

/// The read-only state every tenant shares: the prototype filesystem and
/// the warm exec cache. Building one of these is the fleet's only
/// full-price construction; each tenant after that is `Arc` bumps.
#[derive(Debug, Clone)]
pub struct FleetBase {
    /// The prototype filesystem tenants clone from (O(1), structural
    /// sharing).
    pub vfs: Fs,
    /// The shared prepare cache (see [`ExecCache`]'s sharing contract).
    pub exec_cache: ExecCache,
}

impl Default for FleetBase {
    fn default() -> FleetBase {
        FleetBase::new()
    }
}

impl FleetBase {
    /// The standard skeleton at the virtual epoch — byte-identical to what
    /// a solo [`KernelBuilder::build`] constructs, so base-sharing tenants
    /// observe exactly what solo kernels observe.
    #[must_use]
    pub fn new() -> FleetBase {
        FleetBase::with_vfs(KernelBuilder::skeleton_vfs(Clock::new().now()))
    }

    /// A base around a decorated prototype filesystem (e.g. skeleton plus
    /// preloaded workload files).
    #[must_use]
    pub fn with_vfs(vfs: Fs) -> FleetBase {
        FleetBase {
            vfs,
            exec_cache: ExecCache::new(),
        }
    }

    /// A builder pre-wired to this base: shared VFS prototype, shared exec
    /// cache, defaults for everything else.
    pub fn builder(&self) -> KernelBuilder {
        KernelBuilder::new()
            .base_vfs(&self.vfs)
            .exec_cache(self.exec_cache.clone())
    }

    /// Decorates the prototype filesystem in place (preload workload
    /// files, install binaries) by running `f` over a throwaway kernel on
    /// the current base and capturing the resulting tree.
    pub fn decorate(&mut self, f: impl FnOnce(&mut Kernel)) {
        let mut k = self.builder().build();
        f(&mut k);
        self.vfs = k.fs.clone();
    }

    /// Installs `image` into the shared base at `path` (the read-only
    /// base image set). Tenants spawning it by path go through the shared
    /// exec cache: the fleet decodes each distinct binary once.
    pub fn install_image(&mut self, path: &[u8], image: &Image) {
        let bytes = image.to_bytes();
        self.decorate(|k| {
            k.write_file(path, &bytes).expect("install image");
        });
    }
}

/// One tenant: a whole world (kernel + router + agent chains), parked
/// between quanta. `Tenant` is `Send` — the pool migrates it freely.
pub struct Tenant {
    /// Caller-chosen identity (index into the fleet's result vector).
    pub id: usize,
    /// The tenant's kernel.
    pub kernel: Kernel,
    /// The tenant's interposition router.
    pub router: InterposedRouter,
    turns: u64,
    peak_resident: u64,
}

impl Tenant {
    /// Wraps an already-assembled world.
    #[must_use]
    pub fn new(id: usize, kernel: Kernel, router: InterposedRouter) -> Tenant {
        let peak_resident = kernel.resident_bytes() as u64;
        Tenant {
            id,
            kernel,
            router,
            turns: 0,
            peak_resident,
        }
    }

    /// Spins up a tenant from the shared base: clone-from-base kernel, one
    /// client process running `image`, wrapped by `agents` (outermost
    /// last, as with repeated [`wrap_process`]).
    #[must_use]
    pub fn spawn(
        base: &FleetBase,
        id: usize,
        image: &Image,
        argv: &[&[u8]],
        name: &[u8],
        agents: Vec<Box<dyn Agent>>,
    ) -> Tenant {
        let mut kernel = base.builder().build();
        let pid = kernel.spawn_image(image, argv, name);
        let mut router = InterposedRouter::new();
        for a in agents {
            wrap_process(&mut kernel, &mut router, pid, a, &[]);
        }
        Tenant::new(id, kernel, router)
    }

    /// Like [`Tenant::spawn`], but loading the client from `path` in the
    /// shared base (see [`FleetBase::install_image`]) — the spawn goes
    /// through the shared exec cache, so only the fleet's first exec of
    /// these bytes pays decode-and-fuse.
    #[must_use]
    pub fn spawn_path(
        base: &FleetBase,
        id: usize,
        path: &[u8],
        argv: &[&[u8]],
        agents: Vec<Box<dyn Agent>>,
    ) -> Tenant {
        let mut kernel = base.builder().build();
        let pid = kernel.spawn(path, argv).expect("tenant binary installed");
        let mut router = InterposedRouter::new();
        for a in agents {
            wrap_process(&mut kernel, &mut router, pid, a, &[]);
        }
        Tenant::new(id, kernel, router)
    }
}

/// How one tenant's run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantResult {
    /// The tenant's [`Tenant::id`].
    pub id: usize,
    /// Terminal outcome ([`RunOutcome::StepLimit`] only if the fleet's
    /// total step budget ran out).
    pub outcome: RunOutcome,
    /// Full observable state at the end — the determinism currency.
    pub obs: Observable,
    /// Quanta this tenant consumed.
    pub turns: u64,
    /// Largest [`Kernel::resident_bytes`] seen at spawn and at the end of
    /// each quantum: the address-space pages the tenant held on the host.
    pub peak_resident_bytes: u64,
}

/// Aggregate numbers from one [`Fleet::run`].
#[derive(Debug, Clone, Copy)]
pub struct FleetReport {
    /// Tenants driven.
    pub tenants: usize,
    /// Host threads used.
    pub threads: usize,
    /// Wall-clock for the whole run, nanoseconds.
    pub wall_ns: u64,
    /// Syscalls dispatched across all tenants.
    pub total_syscalls: u64,
    /// User instructions retired across all tenants.
    pub total_insns: u64,
    /// Tenant quanta executed (scheduling granularity indicator).
    pub total_turns: u64,
    /// Cross-tenant work-steals (load-balance indicator).
    pub steals: u64,
    /// Mean over tenants of [`TenantResult::peak_resident_bytes`].
    pub tenant_resident_mean: u64,
    /// Largest [`TenantResult::peak_resident_bytes`] of any tenant.
    pub tenant_resident_max: u64,
}

impl FleetReport {
    /// Aggregate syscalls per wall-clock second.
    #[must_use]
    pub fn syscalls_per_sec(&self) -> f64 {
        self.total_syscalls as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }

    /// Aggregate retired instructions per wall-clock second.
    #[must_use]
    pub fn insns_per_sec(&self) -> f64 {
        self.total_insns as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }
}

/// The work-stealing tenant pool.
///
/// Each worker owns a deque of parked tenants; it pops its own front,
/// and when empty steals from the back of a seeded-randomly chosen
/// victim. A tenant runs for one bounded-step quantum per turn, so no
/// tenant can starve the rest, and the seeded victim choice makes host
/// scheduling the *only* nondeterminism — which, per the module docs,
/// tenants cannot observe.
#[derive(Debug, Clone, Copy)]
pub struct Fleet {
    threads: usize,
    seed: u64,
    quantum: u64,
    max_steps_total: u64,
}

impl Fleet {
    /// A pool of `threads` workers with the default quantum (50k steps)
    /// and an effectively unlimited per-tenant step budget.
    #[must_use]
    pub fn new(threads: usize) -> Fleet {
        Fleet {
            threads: threads.max(1),
            seed: 0x1af1_ee75_eed5,
            quantum: 50_000,
            max_steps_total: u64::MAX,
        }
    }

    /// Reseeds the victim-selection PRNG (per-worker streams are split
    /// from this).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Fleet {
        self.seed = seed;
        self
    }

    /// Steps per tenant turn.
    #[must_use]
    pub fn quantum(mut self, steps: u64) -> Fleet {
        self.quantum = steps.max(1);
        self
    }

    /// Total step budget per tenant; a tenant that exhausts it finishes
    /// with [`RunOutcome::StepLimit`] (the conform sweep's runaway guard).
    #[must_use]
    pub fn max_steps_total(mut self, steps: u64) -> Fleet {
        self.max_steps_total = steps.max(1);
        self
    }

    /// Drives every tenant to completion. Returns `(results sorted by
    /// tenant id, aggregate report)`.
    pub fn run(&self, tenants: Vec<Tenant>) -> (Vec<TenantResult>, FleetReport) {
        let n = tenants.len();
        let threads = self.threads.min(n.max(1));
        let live = AtomicUsize::new(n);
        let steals = AtomicUsize::new(0);
        let turns = AtomicUsize::new(0);
        let results: Mutex<Vec<Option<TenantResult>>> = Mutex::new((0..n).map(|_| None).collect());

        // Round-robin initial distribution; deques are the workers'
        // mailboxes thereafter.
        let queues: Vec<Mutex<VecDeque<Tenant>>> =
            (0..threads).map(|_| Mutex::new(VecDeque::new())).collect();
        for (i, t) in tenants.into_iter().enumerate() {
            queues[i % threads].lock().unwrap().push_back(t);
        }

        let start = Instant::now();
        std::thread::scope(|scope| {
            for w in 0..threads {
                let queues = &queues;
                let live = &live;
                let steals = &steals;
                let turns = &turns;
                let results = &results;
                let fleet = *self;
                scope.spawn(move || {
                    let mut rng = Prng::new(fleet.seed ^ (w as u64).wrapping_mul(0x9e37_79b9));
                    let mut idle_spins = 0u32;
                    while live.load(Ordering::Acquire) != 0 {
                        // Own work first, front-to-back.
                        let mut tenant = queues[w].lock().unwrap().pop_front();
                        // Then steal from the back of a random victim.
                        if tenant.is_none() && threads > 1 {
                            let victim = rng.below(threads as u64) as usize;
                            if victim != w {
                                tenant = queues[victim].lock().unwrap().pop_back();
                                if tenant.is_some() {
                                    steals.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                        let Some(mut t) = tenant else {
                            idle_spins += 1;
                            if idle_spins > 64 {
                                std::thread::yield_now();
                            }
                            continue;
                        };
                        idle_spins = 0;
                        let budget_left = fleet
                            .max_steps_total
                            .saturating_sub(t.turns.saturating_mul(fleet.quantum));
                        let outcome = run(
                            &mut t.kernel,
                            &mut t.router,
                            RunLimits {
                                max_steps: fleet.quantum.min(budget_left.max(1)),
                            },
                        );
                        t.turns += 1;
                        t.peak_resident = t.peak_resident.max(t.kernel.resident_bytes() as u64);
                        turns.fetch_add(1, Ordering::Relaxed);
                        if outcome == RunOutcome::StepLimit && budget_left > fleet.quantum {
                            // Parked mid-run: back of the own deque, so
                            // siblings get their turns first.
                            queues[w].lock().unwrap().push_back(t);
                        } else {
                            let res = TenantResult {
                                id: t.id,
                                outcome,
                                obs: t.kernel.observable(),
                                turns: t.turns,
                                peak_resident_bytes: t.peak_resident,
                            };
                            results.lock().unwrap()[t.id] = Some(res);
                            live.fetch_sub(1, Ordering::AcqRel);
                        }
                    }
                });
            }
        });
        let wall_ns = start.elapsed().as_nanos() as u64;

        let results: Vec<TenantResult> = results
            .into_inner()
            .unwrap()
            .into_iter()
            .map(|r| r.expect("every tenant produces a result"))
            .collect();
        let resident = results.iter().map(|r| r.peak_resident_bytes);
        let report = FleetReport {
            tenants: n,
            threads,
            wall_ns,
            total_syscalls: results.iter().map(|r| r.obs.total_syscalls).sum(),
            total_insns: results.iter().map(|r| r.obs.total_insns).sum(),
            total_turns: turns.load(Ordering::Relaxed) as u64,
            steals: steals.load(Ordering::Relaxed) as u64,
            tenant_resident_mean: resident.clone().sum::<u64>() / n.max(1) as u64,
            tenant_resident_max: resident.max().unwrap_or(0),
        };
        (results, report)
    }
}

/// Runs one tenant's configuration solo — on `base`, which must be a
/// *fresh, private* [`FleetBase`] built identically to the fleet's shared
/// one (same decoration, its own exec cache) — in one uninterrupted
/// `run`. This is the reference the determinism tests compare fleet
/// results against: same base content, but nothing shared, no quanta, no
/// stealing.
#[must_use]
pub fn solo_observable(
    base: &FleetBase,
    path: &[u8],
    argv: &[&[u8]],
    agents: Vec<Box<dyn Agent>>,
    max_steps: u64,
) -> (RunOutcome, Observable) {
    let mut t = Tenant::spawn_path(base, 0, path, argv, agents);
    let outcome = run(&mut t.kernel, &mut t.router, RunLimits { max_steps });
    (outcome, t.kernel.observable())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_drives_tenants_to_completion() {
        let base = FleetBase::new();
        let tenants: Vec<Tenant> = (0..16)
            .map(|i| {
                let image = workload::tenant_image(i as u64);
                Tenant::spawn(&base, i, &image, &[b"t"], b"t", workload::tenant_agents())
            })
            .collect();
        let (results, report) = Fleet::new(4).quantum(5_000).run(tenants);
        assert_eq!(results.len(), 16);
        for r in &results {
            assert_eq!(r.outcome, RunOutcome::AllExited, "tenant {}", r.id);
        }
        assert_eq!(report.tenants, 16);
        assert!(report.total_syscalls > 0);
    }

    #[test]
    fn stealing_is_invisible_single_vs_many_threads() {
        let image = workload::tenant_image(3);
        let spawn_all = |base: &FleetBase| -> Vec<Tenant> {
            (0..8)
                .map(|i| Tenant::spawn(base, i, &image, &[b"t"], b"t", workload::tenant_agents()))
                .collect()
        };
        let (serial, _) = Fleet::new(1)
            .quantum(3_000)
            .run(spawn_all(&FleetBase::new()));
        let (parallel, _) = Fleet::new(4)
            .quantum(3_000)
            .run(spawn_all(&FleetBase::new()));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn shared_exec_cache_is_warmed_once() {
        let mut base = FleetBase::new();
        base.install_image(b"/bin/tenant", &workload::tenant_image(0));
        let tenants: Vec<Tenant> = (0..8)
            .map(|i| Tenant::spawn_path(&base, i, b"/bin/tenant", &[b"t"], Vec::new()))
            .collect();
        let _ = Fleet::new(2).run(tenants);
        // 8 tenants spawning the same image: one decode, seven hits.
        assert_eq!(base.exec_cache.misses(), 1);
        assert_eq!(base.exec_cache.hits(), 7);
    }
}
