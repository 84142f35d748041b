//! The four closed-loop workloads. Each has one client that starts a job
//! only after the previous one finished; a job is timed, then checked
//! outside its timed span, then torn down.

use std::time::Instant;

use ia_agents::{Timex, TraceAgent};
use ia_fleet::{solo_observable, workload, Fleet, FleetBase, Tenant};
use ia_interpose::{restore_world, snapshot_world, wrap_process, Agent, InterposedRouter};
use ia_interpose::{RouterStats, WorldSnapshot};
use ia_kernel::{
    run, Engine, Kernel, KernelBuilder, MachineProfile, Observable, RunLimits, RunOutcome,
    SyscallRouter, I486_25, VAX_6250,
};
use ia_prng::Prng;
use ia_workloads::{make8, scribe};

use crate::trace::{set_ambient, span, span_items};
use crate::wrap::{TracedAgent, TracedRouter};

/// Client syscalls of the make8 build (Table 3-3; the paper counts 13,849
/// on its system, the simulated tool chain makes 13,917).
pub const MAKE8_CLIENT_SYSCALLS: u64 = 13_917;
/// Distinct tenant images in the fleet's pool.
pub const FLEET_POOL: usize = 16;
/// Tenants per fleet job.
pub const FLEET_TENANTS: usize = 1_000;
/// Scheduler steps between replay checkpoints.
pub const REPLAY_CHUNK: u64 = 20_000;

/// What one job measured and whether its output was right.
#[derive(Debug, Clone, Default)]
pub struct Job {
    /// Host wall time of the job: spin-up to client exit (or seek end).
    pub job_ns: u64,
    /// Host wall time to drop the job's world afterwards.
    pub teardown_ns: u64,
    /// Spin-up time of each client the job started.
    pub spinup_ns: Vec<u64>,
    /// Counters the program exposes, read after the job.
    pub counts: Counts,
    /// Why the job's output is wrong, if it is.
    pub problem: Option<String>,
}

/// Counters read from the program after a job (deltas where the world
/// outlives the job).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Engine-path counts (compared for inertness).
    pub engine: EnginePath,
    /// Scheduler top-of-loop iterations.
    pub sched_iterations: u64,
    /// Fast-answerable traps that took the ordinary dispatcher.
    pub lane_misses: u64,
    /// Syscalls dispatched at the kernel, agent downcalls included.
    pub kernel_syscalls: u64,
    /// Traps the in-loop lane answered directly (traced jobs only).
    pub lane_direct: u64,
    /// Traps the lane collected for vectored upcalls (traced jobs only).
    pub lane_collected: u64,
    /// Exec-cache hits during the job.
    pub exec_hits: u64,
    /// Exec-cache misses during the job.
    pub exec_misses: u64,
    /// Modelled (virtual) time of the job.
    pub virtual_ns: u64,
    /// Regular files at job end.
    pub vfs_files: u64,
    /// Regular-file bytes at job end.
    pub vfs_bytes: u64,
    /// Fleet work steals.
    pub steals: u64,
    /// Fleet tenant quanta.
    pub turns: u64,
}

/// The counts that show which engine path ran: traced and untraced runs
/// of the same world must agree on all of them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnginePath {
    /// Instructions retired.
    pub insns: u64,
    /// Superinstructions executed (each retires two instructions).
    pub fused: u64,
    /// Execution slices handed to the VM.
    pub slices: u64,
    /// Traps answered inside the VM loop.
    pub lane_hits: u64,
    /// The router's counters.
    pub router: RouterStats,
}

impl EnginePath {
    fn read(k: &Kernel, router: &InterposedRouter) -> EnginePath {
        EnginePath {
            insns: k.total_insns,
            fused: k.fusion_stats.total(),
            slices: k.perf.slices,
            lane_hits: k.fast_stats.hits(),
            router: router.stats,
        }
    }

    fn since(self, before: EnginePath) -> EnginePath {
        let (a, b) = (self.router, before.router);
        EnginePath {
            insns: self.insns - before.insns,
            fused: self.fused - before.fused,
            slices: self.slices - before.slices,
            lane_hits: self.lane_hits - before.lane_hits,
            router: RouterStats {
                intercepted: a.intercepted - b.intercepted,
                passthrough: a.passthrough - b.passthrough,
                unmanaged: a.unmanaged - b.unmanaged,
                signals_filtered: a.signals_filtered - b.signals_filtered,
                chains_forked: a.chains_forked - b.chains_forked,
            },
        }
    }

    /// Traps the clients made (every trap is counted once by the router).
    #[must_use]
    pub fn client_traps(&self) -> u64 {
        self.router.intercepted + self.router.passthrough + self.router.unmanaged
    }
}

/// Reads the counters of a world after a job.
fn kernel_counts(k: &Kernel, router: &InterposedRouter) -> Counts {
    let stats = k.fs.stats();
    Counts {
        engine: EnginePath::read(k, router),
        sched_iterations: k.perf.sched_iterations,
        lane_misses: k.fast_stats.misses(),
        kernel_syscalls: k.total_syscalls,
        virtual_ns: k.clock.elapsed_ns(),
        vfs_files: stats.files as u64,
        vfs_bytes: stats.bytes,
        ..Counts::default()
    }
}

impl Counts {
    /// The counts accrued since `before` (file-system sizes stay as at
    /// the end).
    fn since(self, before: Counts) -> Counts {
        Counts {
            engine: self.engine.since(before.engine),
            sched_iterations: self.sched_iterations - before.sched_iterations,
            lane_misses: self.lane_misses - before.lane_misses,
            kernel_syscalls: self.kernel_syscalls - before.kernel_syscalls,
            virtual_ns: self.virtual_ns - before.virtual_ns,
            ..self
        }
    }
}

/// One benchmark workload.
pub trait Workload {
    /// Computes the references jobs are checked against (untimed). Returns
    /// the problems found; a non-empty list makes the run incorrect.
    fn prepare(&mut self) -> Vec<String>;
    /// Runs job number `index`, traced or not, and checks its output.
    fn job(&mut self, index: u64, traced: bool) -> Job;
}

/// The seed of job (or round) `index` of a run seeded with `seed`.
fn job_seed(seed: u64, index: u64) -> u64 {
    seed ^ (index + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Runs `f` in a span when tracing, else just runs it.
fn maybe_span<R>(traced: bool, name: &'static str, f: impl FnOnce() -> R) -> R {
    if traced {
        span(name, f)
    } else {
        f()
    }
}

fn traced_if(traced: bool, agent: Box<dyn Agent>) -> Box<dyn Agent> {
    if traced {
        TracedAgent::boxed(agent)
    } else {
        agent
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).expect("job shorter than 584 years")
}

fn cache_counts(base: &FleetBase) -> (u64, u64) {
    (base.exec_cache.hits(), base.exec_cache.misses())
}

/// A router as the scheduler sees it, with access to the interposed
/// router inside (for snapshots and stats) and to the lane counts.
trait Routed: SyscallRouter {
    fn interposed(&mut self) -> &mut InterposedRouter;
    fn lane(&self) -> (u64, u64);
}

impl Routed for InterposedRouter {
    fn interposed(&mut self) -> &mut InterposedRouter {
        self
    }
    fn lane(&self) -> (u64, u64) {
        (0, 0)
    }
}

impl Routed for TracedRouter {
    fn interposed(&mut self) -> &mut InterposedRouter {
        &mut self.inner
    }
    fn lane(&self) -> (u64, u64) {
        (self.lane_direct, self.lane_collected)
    }
}

// ---------------------------------------------------------------------------
// The paper's programs, one client world per job.

/// One of the paper's fixed programs under one agent.
pub struct Program {
    /// Machine profile the paper measured it on.
    pub profile: MachineProfile,
    /// Installs inputs and binaries into the base filesystem.
    pub decorate: fn(&mut Kernel),
    /// The client binary.
    pub client: &'static [u8],
    /// Every binary the program execs, the client included (warmed into
    /// the exec cache in set-up).
    pub binaries: fn() -> Vec<Vec<u8>>,
    /// argv of the client.
    pub argv: &'static [&'static [u8]],
    /// The agent wrapped around the client.
    pub agent: fn() -> Box<dyn Agent>,
    /// The paper's invariants over a finished run.
    pub invariants: fn(&Observable, &EnginePath) -> Result<(), String>,
}

fn all_exited_zero(obs: &Observable, expect: usize) -> Result<(), String> {
    let st = &obs.client.exit_statuses;
    if st.len() != expect || st.values().any(|&s| s != 0) {
        return Err(format!("expected {expect} zero exits, got {st:?}"));
    }
    Ok(())
}

/// Scribe (Table 3-2) under `timex`, VAX profile.
pub const SCRIBE_TIMEX: Program = Program {
    profile: VAX_6250,
    decorate: |k| {
        scribe::setup(k);
        k.install_image(b"/bin/scribe", &scribe::image())
            .expect("install scribe");
    },
    client: b"/bin/scribe",
    binaries: || vec![b"/bin/scribe".to_vec()],
    argv: &[b"scribe"],
    agent: || Timex::boxed(3600),
    invariants: |obs, engine| {
        if engine.client_traps() != scribe::expected_syscalls() {
            return Err(format!(
                "scribe made {} syscalls, expected {}",
                engine.client_traps(),
                scribe::expected_syscalls()
            ));
        }
        all_exited_zero(obs, 1)
    },
};

/// The make8 build (Table 3-3) under `trace`, i486 profile.
pub const MAKE8_TRACE: Program = Program {
    profile: I486_25,
    decorate: make8::setup,
    client: b"/bin/make",
    binaries: || {
        ["make", "cc"]
            .iter()
            .chain(&make8::STAGE_NAMES)
            .map(|name| format!("/bin/{name}").into_bytes())
            .collect()
    },
    argv: &[b"make"],
    agent: || Box::new(TraceAgent::new().0),
    invariants: make8_invariants,
};

fn make8_invariants(obs: &Observable, engine: &EnginePath) -> Result<(), String> {
    if engine.client_traps() != MAKE8_CLIENT_SYSCALLS {
        return Err(format!(
            "make8 made {} client syscalls, expected {MAKE8_CLIENT_SYSCALLS}",
            engine.client_traps()
        ));
    }
    if engine.router.chains_forked != make8::fork_exec_pairs() {
        return Err(format!(
            "make8 forked {} clients, expected {}",
            engine.router.chains_forked,
            make8::fork_exec_pairs()
        ));
    }
    all_exited_zero(obs, 1 + make8::fork_exec_pairs() as usize)
}

/// A base filesystem decorated for `prog`, with every binary it execs
/// already in the shared exec cache.
fn prepared_base(prog: &Program) -> FleetBase {
    let mut base = FleetBase::new();
    base.decorate(prog.decorate);
    let mut k = base.builder().profile(prog.profile).build();
    for path in (prog.binaries)() {
        k.spawn(&path, &[b"warm"]).expect("binary installed");
    }
    base
}

/// What a solo job is checked against.
#[derive(Debug, Clone)]
pub struct SoloReference {
    /// The run on the reference engine (`Engine::Plain`, no fast path).
    pub plain: Observable,
    /// Engine-path counts of an untraced run on the default engine.
    pub engine: EnginePath,
}

/// `scribe-timex` and `make8-trace`: each job spins one client up from
/// the prepared base and runs it to exit.
pub struct Solo {
    prog: &'static Program,
    base: FleetBase,
    /// Set by [`Workload::prepare`].
    pub reference: Option<SoloReference>,
}

impl Solo {
    /// Setup: decorate the base and warm the exec cache.
    #[must_use]
    pub fn setup(prog: &'static Program) -> Solo {
        Solo {
            prog,
            base: prepared_base(prog),
            reference: None,
        }
    }

    /// Spins up and runs one world; returns it with its timings.
    fn run_world<R: Routed>(
        &self,
        builder: KernelBuilder,
        mut router: R,
        traced: bool,
    ) -> (Kernel, R, RunOutcome, u64, u64) {
        let prog = self.prog;
        let t0 = Instant::now();
        let mut k = maybe_span(traced, "kernel.build", || builder.build());
        let pid = maybe_span(traced, "kernel.spawn", || {
            k.spawn(prog.client, prog.argv).expect("binary installed")
        });
        let agent = traced_if(traced, (prog.agent)());
        maybe_span(traced, "interpose.wrap", || {
            wrap_process(&mut k, router.interposed(), pid, agent, &[]);
        });
        let spinup_ns = elapsed_ns(t0);
        let outcome = maybe_span(traced, "kernel.run", || k.run_with(&mut router));
        (k, router, outcome, spinup_ns, elapsed_ns(t0))
    }

    fn job_with<R: Routed>(&mut self, router: R, traced: bool) -> Job {
        let (h0, m0) = cache_counts(&self.base);
        let builder = self.base.builder().profile(self.prog.profile);
        let (k, mut router, outcome, spinup_ns, job_ns) =
            maybe_span(traced, "job", || self.run_world(builder, router, traced));
        let (h1, m1) = cache_counts(&self.base);
        let obs = k.observable();
        let (lane_direct, lane_collected) = router.lane();
        let counts = Counts {
            lane_direct,
            lane_collected,
            exec_hits: h1 - h0,
            exec_misses: m1 - m0,
            ..kernel_counts(&k, router.interposed())
        };
        let engine = counts.engine;
        let problem = self.check(&outcome, &obs, &engine);
        let t = Instant::now();
        drop((k, router));
        Job {
            job_ns,
            teardown_ns: elapsed_ns(t),
            spinup_ns: vec![spinup_ns],
            counts,
            problem,
        }
    }

    fn check(&self, outcome: &RunOutcome, obs: &Observable, engine: &EnginePath) -> Option<String> {
        let reference = self.reference.as_ref().expect("prepare() before jobs");
        if *outcome != RunOutcome::AllExited {
            return Some(format!("run ended {outcome:?}"));
        }
        if *obs != reference.plain {
            return Some("observable differs from the reference engine's".into());
        }
        if *engine != reference.engine {
            return Some(format!(
                "engine path {engine:?} differs from the untraced {:?}",
                reference.engine
            ));
        }
        (self.prog.invariants)(obs, engine).err()
    }
}

impl Workload for Solo {
    fn prepare(&mut self) -> Vec<String> {
        let mut problems = Vec::new();
        let plain = KernelBuilder::new()
            .profile(self.prog.profile)
            .base_vfs(&self.base.vfs)
            .engine(Engine::Plain)
            .fast_path(false);
        let (k, _, outcome, _, _) = self.run_world(plain, InterposedRouter::new(), false);
        if outcome != RunOutcome::AllExited {
            problems.push(format!("reference run ended {outcome:?}"));
        }
        let plain = k.observable();
        let default = self.base.builder().profile(self.prog.profile);
        let (k, router, _, _, _) = self.run_world(default, InterposedRouter::new(), false);
        let engine = EnginePath::read(&k, &router);
        if k.observable() != plain {
            problems.push("default engine disagrees with the reference engine".into());
        }
        if let Err(e) = (self.prog.invariants)(&plain, &engine) {
            problems.push(e);
        }
        self.reference = Some(SoloReference { plain, engine });
        problems
    }

    fn job(&mut self, _index: u64, traced: bool) -> Job {
        if traced {
            self.job_with(TracedRouter::new(InterposedRouter::new()), true)
        } else {
            self.job_with(InterposedRouter::new(), false)
        }
    }
}

// ---------------------------------------------------------------------------
// The fleet: a batch of tenants per job.

const TENANT_ARGV: &[&[u8]] = &[b"t"];

/// `fleet-1k`: each job spawns a batch of tenants from one base and
/// drives them with `Fleet::run` on `threads` workers.
pub struct FleetWork {
    seed: u64,
    tenants: usize,
    threads: usize,
    base: FleetBase,
    paths: Vec<Vec<u8>>,
    /// Solo observable of each pool image (set by [`Workload::prepare`]).
    pub references: Vec<Observable>,
}

impl FleetWork {
    /// Setup: install the seeded image pool and warm the exec cache.
    #[must_use]
    pub fn setup(seed: u64, tenants: usize, threads: usize) -> FleetWork {
        let mut rng = Prng::new(seed);
        let mut base = FleetBase::new();
        let paths: Vec<Vec<u8>> = (0..FLEET_POOL)
            .map(|i| format!("/bin/tenant{i}").into_bytes())
            .collect();
        for path in &paths {
            base.install_image(path, &workload::tenant_image(rng.next_u64()));
        }
        let mut k = base.builder().build();
        for path in &paths {
            k.spawn(path, TENANT_ARGV).expect("tenant installed");
        }
        FleetWork {
            seed,
            tenants,
            threads,
            base,
            paths,
            references: Vec::new(),
        }
    }

    fn spawn_traced(&self, id: usize, path: &[u8]) -> Tenant {
        span("fleet.spawn", || {
            let mut k = span("kernel.build", || self.base.builder().build());
            let pid = span("kernel.spawn", || {
                k.spawn(path, TENANT_ARGV).expect("tenant installed")
            });
            let mut router = InterposedRouter::new();
            for agent in workload::tenant_agents() {
                let agent = TracedAgent::boxed(agent);
                span("interpose.wrap", || {
                    wrap_process(&mut k, &mut router, pid, agent, &[]);
                });
            }
            Tenant::new(id, k, router)
        })
    }
}

impl Workload for FleetWork {
    fn prepare(&mut self) -> Vec<String> {
        // A private base with the same content: nothing shared, no quanta.
        let private = FleetBase::with_vfs(self.base.vfs.clone());
        let mut problems = Vec::new();
        self.references = self
            .paths
            .iter()
            .map(|path| {
                let (outcome, obs) = solo_observable(
                    &private,
                    path,
                    TENANT_ARGV,
                    workload::tenant_agents(),
                    u64::MAX,
                );
                if outcome != RunOutcome::AllExited {
                    problems.push(format!("solo tenant ended {outcome:?}"));
                }
                obs
            })
            .collect();
        problems
    }

    fn job(&mut self, index: u64, traced: bool) -> Job {
        let mut rng = Prng::new(job_seed(self.seed, index));
        let picks: Vec<usize> = (0..self.tenants)
            .map(|_| rng.below(FLEET_POOL as u64) as usize)
            .collect();
        let fleet = Fleet::new(self.threads).seed(rng.next_u64());
        let (h0, m0) = cache_counts(&self.base);
        let mut spinup_ns = Vec::with_capacity(self.tenants);
        let t0 = Instant::now();
        let (results, report) = if traced {
            span("job", || {
                let tenants: Vec<Tenant> = picks
                    .iter()
                    .enumerate()
                    .map(|(id, &p)| {
                        let t = Instant::now();
                        let tenant = self.spawn_traced(id, &self.paths[p]);
                        spinup_ns.push(elapsed_ns(t));
                        tenant
                    })
                    .collect();
                span_items("fleet.run", 0, |id| {
                    set_ambient(id);
                    let out = fleet.run(tenants);
                    set_ambient(0);
                    out
                })
            })
        } else {
            let tenants: Vec<Tenant> = picks
                .iter()
                .enumerate()
                .map(|(id, &p)| {
                    let t = Instant::now();
                    let tenant = Tenant::spawn_path(
                        &self.base,
                        id,
                        &self.paths[p],
                        TENANT_ARGV,
                        workload::tenant_agents(),
                    );
                    spinup_ns.push(elapsed_ns(t));
                    tenant
                })
                .collect();
            fleet.run(tenants)
        };
        let job_ns = elapsed_ns(t0);
        let (h1, m1) = cache_counts(&self.base);

        let mut problem = None;
        if results.len() != self.tenants {
            problem = Some(format!(
                "{} results for {} tenants",
                results.len(),
                self.tenants
            ));
        }
        let mut counts = Counts {
            exec_hits: h1 - h0,
            exec_misses: m1 - m0,
            steals: report.steals,
            turns: report.total_turns,
            ..Counts::default()
        };
        for r in &results {
            let o = &r.obs;
            counts.engine.insns += o.total_insns;
            counts.kernel_syscalls += o.total_syscalls;
            counts.virtual_ns += o.clock_ns;
            counts.vfs_files += o.client.fs_files as u64;
            counts.vfs_bytes += o.client.fs_bytes;
            if problem.is_none()
                && (r.outcome != RunOutcome::AllExited || *o != self.references[picks[r.id]])
            {
                problem = Some(format!("tenant {} differs from its solo run", r.id));
            }
        }
        let t = Instant::now();
        drop(results);
        Job {
            job_ns,
            teardown_ns: elapsed_ns(t),
            spinup_ns,
            counts,
            problem,
        }
    }
}

// ---------------------------------------------------------------------------
// Time-travel replay over recorded checkpoints of make8 under timex.

/// One recorded step of the replay: the world before it and what running
/// one chunk from there produced.
struct Checkpoint {
    world: WorldSnapshot,
    outcome: RunOutcome,
    engine: EnginePath,
}

/// `replay-make8`: each job restores a seeded checkpoint, runs one chunk
/// and captures a new branch point.
pub struct Replay {
    seed: u64,
    base: FleetBase,
    k: Kernel,
    router: InterposedRouter,
    checkpoints: Vec<Checkpoint>,
    final_world: WorldSnapshot,
    order: Vec<usize>,
    order_round: Option<u64>,
    /// Observable after each checkpoint's chunk (set by
    /// [`Workload::prepare`]).
    pub recorded: Vec<Observable>,
}

impl Replay {
    /// Setup: prepare the make8 base and record the checkpoints.
    #[must_use]
    pub fn setup(seed: u64) -> Replay {
        let base = prepared_base(&MAKE8_TIMEX);
        let mut k = base.builder().build();
        let pid = k
            .spawn(MAKE8_TIMEX.client, MAKE8_TIMEX.argv)
            .expect("make installed");
        let mut router = InterposedRouter::new();
        wrap_process(&mut k, &mut router, pid, Timex::boxed(3600), &[]);
        let mut checkpoints = Vec::new();
        loop {
            let world = snapshot_world(&mut k, &mut router);
            let before = EnginePath::read(&k, &router);
            let outcome = run(&mut k, &mut router, chunk());
            let engine = EnginePath::read(&k, &router).since(before);
            checkpoints.push(Checkpoint {
                world,
                outcome: outcome.clone(),
                engine,
            });
            if outcome != RunOutcome::StepLimit {
                break;
            }
        }
        let final_world = snapshot_world(&mut k, &mut router);
        Replay {
            seed,
            base,
            k,
            router,
            checkpoints,
            final_world,
            order: Vec::new(),
            order_round: None,
            recorded: Vec::new(),
        }
    }

    /// One seek from checkpoint `cp`, checked against the recording.
    pub fn seek_from(&mut self, cp: usize, traced: bool) -> Job {
        let router = std::mem::take(&mut self.router);
        if traced {
            self.seek(cp, TracedRouter::new(router), true)
        } else {
            self.seek(cp, router, false)
        }
    }

    /// The seek point of job `index`: jobs go through the checkpoints in
    /// rounds, each round a seeded permutation of all of them, so every
    /// run seeks each checkpoint equally often.
    fn seek_point(&mut self, index: u64) -> usize {
        let n = self.checkpoints.len();
        let round = index / n as u64;
        if self.order_round != Some(round) {
            let mut rng = Prng::new(job_seed(self.seed, round));
            self.order = (0..n).collect();
            for i in (1..n).rev() {
                self.order.swap(i, rng.below(i as u64 + 1) as usize);
            }
            self.order_round = Some(round);
        }
        self.order[(index % n as u64) as usize]
    }

    /// Checkpoints a seek can start from.
    #[must_use]
    pub fn seek_points(&self) -> usize {
        self.checkpoints.len()
    }

    fn seek<R: Routed>(&mut self, cp: usize, mut router: R, traced: bool) -> Job {
        let (h0, m0) = cache_counts(&self.base);
        let t0 = Instant::now();
        let (outcome, before, spinup_ns, branch) = maybe_span(traced, "job", || {
            let k = &mut self.k;
            maybe_span(traced, "kernel.restore", || {
                restore_world(k, router.interposed(), &self.checkpoints[cp].world);
            });
            let spinup_ns = elapsed_ns(t0);
            if traced {
                span("bench.rewrap", || rewrap_chains(k, router.interposed()));
            }
            let before = kernel_counts(k, router.interposed());
            let outcome = maybe_span(traced, "kernel.run", || run(k, &mut router, chunk()));
            let branch = maybe_span(traced, "kernel.snapshot", || {
                snapshot_world(k, router.interposed())
            });
            (outcome, before, spinup_ns, branch)
        });
        let job_ns = elapsed_ns(t0);
        let (h1, m1) = cache_counts(&self.base);
        let (lane_direct, lane_collected) = router.lane();
        let counts = Counts {
            lane_direct,
            lane_collected,
            exec_hits: h1 - h0,
            exec_misses: m1 - m0,
            ..kernel_counts(&self.k, router.interposed()).since(before)
        };
        let recorded = &self.checkpoints[cp];
        let problem = if outcome != recorded.outcome {
            Some(format!("seek from {cp} ended {outcome:?}"))
        } else if self.k.observable() != self.recorded[cp] {
            Some(format!("seek from {cp} differs from the recording"))
        } else if counts.engine != recorded.engine {
            Some(format!("seek from {cp} took another engine path"))
        } else {
            None
        };
        // The live world keeps its router; the next restore replaces the
        // (possibly rewrapped) chains anyway.
        self.router = std::mem::take(router.interposed());
        let t = Instant::now();
        drop(branch);
        Job {
            job_ns,
            teardown_ns: elapsed_ns(t),
            spinup_ns: vec![spinup_ns],
            counts,
            problem,
        }
    }
}

/// The step budget of one replay chunk.
fn chunk() -> RunLimits {
    RunLimits {
        max_steps: REPLAY_CHUNK,
    }
}

/// Wraps every agent of every chain in a [`TracedAgent`] (the restored
/// chains are the recorded, untraced ones).
fn rewrap_chains(k: &Kernel, router: &mut InterposedRouter) {
    for pid in k.pids() {
        router.with_chain(pid, |agents| {
            let untraced = std::mem::take(agents);
            agents.extend(untraced.into_iter().map(TracedAgent::boxed));
        });
    }
}

/// make8 under `timex`, the world the replay records.
pub const MAKE8_TIMEX: Program = Program {
    agent: || Timex::boxed(3600),
    ..MAKE8_TRACE
};

impl Workload for Replay {
    fn prepare(&mut self) -> Vec<String> {
        let mut problems = Vec::new();
        self.recorded = (1..self.checkpoints.len())
            .map(|i| &self.checkpoints[i].world)
            .chain([&self.final_world])
            .map(|world| {
                restore_world(&mut self.k, &mut self.router, world);
                self.k.observable()
            })
            .collect();
        // The chunked recording must end where one uninterrupted run on
        // the reference engine ends.
        let mut reference = Solo {
            prog: &MAKE8_TIMEX,
            base: self.base.clone(),
            reference: None,
        };
        problems.extend(reference.prepare());
        let plain = reference.reference.expect("prepared").plain;
        if self.recorded.last() != Some(&plain) {
            problems.push("recording ends away from the reference run".into());
        }
        let last = self.checkpoints.last().expect("at least one chunk");
        if last.outcome != RunOutcome::AllExited {
            problems.push(format!("recording ended {:?}", last.outcome));
        }
        problems
    }

    fn job(&mut self, index: u64, traced: bool) -> Job {
        let cp = self.seek_point(index);
        self.seek_from(cp, traced)
    }
}
