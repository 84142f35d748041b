//! The compiled chain against its oracle: for random chains and trap
//! numbers, the router's install-time flat table must pick exactly the
//! agent that `dispatch_chain`'s interest scan picks (or the kernel), with
//! the fast-path knob on and off and with vectored upcalls engaged; and a
//! chain refuses an agent whose interests are not fixed.

use std::sync::{Arc, Mutex};

use ia_abi::{RawArgs, Sysno};
use ia_interpose::{dispatch_chain, Agent, BatchCall, InterestSet, InterposedRouter, SysCtx};
use ia_kernel::{FastMode, Kernel, KernelBuilder, Pid, SysOutcome, SyscallRouter};
use ia_prng::{run_cases, Prng};

/// How an agent saw a trap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seen {
    Call,
    Batch,
}

type Log = Arc<Mutex<Vec<(usize, Seen)>>>;

/// Answers every intercepted trap itself (never goes down), so the first
/// agent to log a trap is the one the dispatch picked.
#[derive(Clone)]
struct Probe {
    id: usize,
    wants: InterestSet,
    batch: InterestSet,
    log: Log,
}

/// Result tag of a trap that agent `id` answered.
const TAG: u64 = 1 << 40;

impl Agent for Probe {
    fn name(&self) -> &'static str {
        "probe"
    }
    fn interests(&self) -> InterestSet {
        self.wants
    }
    fn batch_interests(&self) -> InterestSet {
        self.batch
    }
    fn syscall(&mut self, _: &mut SysCtx<'_>, _: u32, _: RawArgs) -> SysOutcome {
        self.log.lock().unwrap().push((self.id, Seen::Call));
        SysOutcome::ok1(TAG + self.id as u64)
    }
    fn syscall_batch(&mut self, _: &mut SysCtx<'_>, _: u32, _: &[BatchCall]) {
        self.log.lock().unwrap().push((self.id, Seen::Batch));
    }
    fn clone_box(&self) -> Box<dyn Agent> {
        Box::new(self.clone())
    }
}

fn random_set(rng: &mut Prng) -> InterestSet {
    let mut s = InterestSet::NONE;
    match rng.below(5) {
        0 => {}
        1 => s = InterestSet::ALL,
        2 => {
            let lo = rng.below(256) as u32;
            s.add_range(lo, rng.range_u64(u64::from(lo), 256) as u32);
        }
        _ => {
            for _ in 0..rng.below(12) {
                s.add(rng.below(256) as u32);
            }
        }
    }
    s
}

/// A random chain of 0–6 probes, top first.
fn random_chain(rng: &mut Prng) -> Vec<Probe> {
    (0..rng.range_usize(0, 7))
        .map(|id| {
            let wants = random_set(rng);
            let batch = match rng.below(4) {
                0 => InterestSet::NONE,
                1 => InterestSet::ALL,
                2 => wants,
                _ => random_set(rng),
            };
            Probe {
                id,
                wants,
                batch,
                log: Log::default(),
            }
        })
        .collect()
}

/// Trap numbers worth routing: the edges of the 256-entry table, the two
/// lane numbers, numbers far past the table, random draws, and one number
/// each agent is interested in.
fn numbers(rng: &mut Prng, chain: &[Probe]) -> Vec<u32> {
    let mut nrs = vec![
        0,
        Sysno::Getpid.number(),
        Sysno::Gettimeofday.number(),
        255,
        256,
        257,
        511,
        u32::MAX,
    ];
    nrs.extend((0..8).map(|_| rng.below(400) as u32));
    for p in chain {
        let wanted: Vec<u32> = p.wants.iter().collect();
        if !wanted.is_empty() {
            nrs.push(*rng.pick(&wanted));
        }
    }
    nrs
}

fn world(fast: bool) -> (Kernel, Pid) {
    let mut k = KernelBuilder::new().fast_path(fast).build();
    let img = ia_vm::assemble("main: halt\n").unwrap();
    let pid = k.spawn_image(&img, &[b"t"], b"t");
    (k, pid)
}

/// Probes sharing one fresh log.
fn instantiate(chain: &[Probe], log: &Log) -> Vec<Box<dyn Agent>> {
    chain
        .iter()
        .map(|p| {
            Box::new(Probe {
                log: log.clone(),
                ..p.clone()
            }) as Box<dyn Agent>
        })
        .collect()
}

/// The oracle: the agent `dispatch_chain`'s interest scan enters at, or
/// `None` when it calls the kernel.
fn scan_pick(chain: &[Probe], nr: u32) -> Option<usize> {
    let (mut k, pid) = world(true);
    let log = Log::default();
    let mut agents = instantiate(chain, &log);
    dispatch_chain(&mut k, pid, &mut agents, nr, [0; 6], 0);
    let seen = log.lock().unwrap().clone();
    assert!(seen.len() <= 1, "probes never go down: {seen:?}");
    seen.first().map(|&(id, _)| id)
}

/// A router with `chain` installed around a fresh process.
fn installed(chain: &[Probe], fast: bool, log: &Log) -> (Kernel, Pid, InterposedRouter) {
    let (k, pid) = world(fast);
    let mut r = InterposedRouter::new();
    for agent in instantiate(chain, log).into_iter().rev() {
        r.push_agent(pid, agent);
    }
    (k, pid, r)
}

#[test]
fn route_enters_the_chain_where_the_scan_does() {
    // Routed traps per branch: kernel, vectored, vectored but blocked or
    // not returning, individually intercepted.
    let mut branches = [0u32; 4];
    run_cases(200, |case, rng| {
        let chain = random_chain(rng);
        for nr in numbers(rng, &chain) {
            let pick = scan_pick(&chain, nr);
            let batchable = pick.is_some()
                && chain
                    .iter()
                    .all(|p| !p.wants.contains(nr) || p.batch.contains(nr));
            for fast in [true, false] {
                let at = format!("case {case} nr {nr} fast {fast} pick {pick:?}");
                let log = Log::default();
                let (mut k, pid, mut r) = installed(&chain, fast, &log);
                let out = r.route(&mut k, pid, nr, [0; 6], 0);
                r.flush_pending(&mut k, pid);
                let seen = log.lock().unwrap().clone();
                match pick {
                    None => {
                        branches[0] += 1;
                        assert!(seen.is_empty(), "{at}: kernel call seen by {seen:?}");
                        assert_eq!(r.stats.intercepted, 0, "{at}");
                    }
                    Some(first) if batchable => {
                        // The kernel executes the call now; interested
                        // agents observe it as a vectored upcall, top
                        // first. Calls that block or do not return are
                        // never batched.
                        assert_eq!(r.stats.intercepted, 1, "{at}");
                        if matches!(out, SysOutcome::Done(_)) {
                            branches[1] += 1;
                            assert_eq!(seen.first(), Some(&(first, Seen::Batch)), "{at}");
                            assert!(seen.iter().all(|&(_, s)| s == Seen::Batch), "{at}");
                        } else {
                            branches[2] += 1;
                            assert!(seen.is_empty(), "{at}: {seen:?}");
                        }
                    }
                    Some(first) => {
                        branches[3] += 1;
                        assert_eq!(seen, [(first, Seen::Call)], "{at}");
                        assert_eq!(out, SysOutcome::ok1(TAG + first as u64), "{at}");
                    }
                }
            }
        }

        // The lane's answer table agrees with the scan too.
        for fast in [true, false] {
            let (k, pid, mut r) = installed(&chain, fast, &Log::default());
            let spec = r.fast_spec(&k, pid);
            for (sys, mode) in [
                (Sysno::Getpid, spec.getpid),
                (Sysno::Gettimeofday, spec.gtod),
            ] {
                let nr = sys.number();
                let want = match scan_pick(&chain, nr) {
                    None => FastMode::Direct,
                    Some(_)
                        if chain
                            .iter()
                            .all(|p| !p.wants.contains(nr) || p.batch.contains(nr)) =>
                    {
                        FastMode::Collect
                    }
                    Some(_) => FastMode::Off,
                };
                assert_eq!(mode, want, "case {case} {sys:?} fast {fast}");
            }
        }
    });
    assert!(
        branches.iter().all(|&n| n > 0),
        "a branch went unexercised: {branches:?}"
    );
}

/// Reports interests that may change over its lifetime.
struct Dynamic;

impl Agent for Dynamic {
    fn name(&self) -> &'static str {
        "dynamic"
    }
    fn interests(&self) -> InterestSet {
        InterestSet::ALL
    }
    fn interests_fixed(&self) -> bool {
        false
    }
    fn syscall(&mut self, ctx: &mut SysCtx<'_>, nr: u32, args: RawArgs) -> SysOutcome {
        ctx.down(nr, args)
    }
    fn clone_box(&self) -> Box<dyn Agent> {
        Box::new(Dynamic)
    }
}

#[test]
#[should_panic(expected = "reports dynamic interests")]
fn pushing_a_dynamic_interest_agent_is_refused() {
    let (_k, pid) = world(true);
    InterposedRouter::new().push_agent(pid, Box::new(Dynamic));
}
