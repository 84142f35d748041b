//! The trap lane must not cost fusion: with the default kernel (fused
//! engine, fast path on), the lane answers its traps inside the fused
//! burst, so a workload whose only answerable traps are rare still runs
//! almost entirely as superinstructions — and its `Observable` equals the
//! reference engine's (`Engine::Plain`, fast path off).

use ia_abi::{RawArgs, Sysno};
use ia_agents::Timex;
use ia_fleet::{solo_observable, workload, FleetBase};
use ia_interpose::{wrap_process, Agent, BatchCall, InterestSet, InterposedRouter, SysCtx};
use ia_kernel::{run, Engine, Kernel, KernelBuilder, RunLimits, RunOutcome, SysOutcome, VAX_6250};
use ia_workloads::scribe;

fn scribe_timex(builder: KernelBuilder) -> Kernel {
    let mut k = builder.profile(VAX_6250).build();
    scribe::setup(&mut k);
    let pid = k.spawn_image(&scribe::image(), &[b"scribe"], b"scribe");
    let mut router = InterposedRouter::new();
    wrap_process(&mut k, &mut router, pid, Timex::boxed(3600), &[]);
    let out = run(&mut k, &mut router, RunLimits::default());
    assert_eq!(out, RunOutcome::AllExited);
    k
}

#[test]
fn scribe_under_timex_runs_fused_with_the_lane_on() {
    let k = scribe_timex(KernelBuilder::new());
    let share = 2.0 * k.fusion_stats.total() as f64 / k.total_insns as f64;
    assert!(share >= 0.9, "fused share {share:.3} below 0.9");
    assert_eq!(
        k.fast_stats.hits(),
        1,
        "scribe's one getpid is answered in the loop"
    );

    let reference = scribe_timex(KernelBuilder::new().engine(Engine::Plain).fast_path(false));
    assert_eq!(k.observable(), reference.observable());
}

/// Batch-interested in `getpid` alone, so the lane answers a tenant's
/// `getpid` in Collect mode. (Under `tenant_agents()` the non-batchable
/// `time_symbolic` intercepts it, which keeps the lane off.)
#[derive(Clone)]
struct PidWatcher;

impl Agent for PidWatcher {
    fn name(&self) -> &'static str {
        "pid-watcher"
    }
    fn interests(&self) -> InterestSet {
        InterestSet::of(&[Sysno::Getpid])
    }
    fn batch_interests(&self) -> InterestSet {
        InterestSet::of(&[Sysno::Getpid])
    }
    fn syscall(&mut self, ctx: &mut SysCtx<'_>, nr: u32, args: RawArgs) -> SysOutcome {
        ctx.down(nr, args)
    }
    fn syscall_batch(&mut self, _: &mut SysCtx<'_>, _: u32, _: &[BatchCall]) {}
    fn clone_box(&self) -> Box<dyn Agent> {
        Box::new(self.clone())
    }
}

/// Fleet tenants run fused with the lane on; one whose `getpid` is
/// batch-interested has it collected inside the burst. Either way the
/// tenant's `Observable` equals its solo run and the reference engine's.
#[test]
fn fleet_tenant_collects_in_the_lane_and_runs_fused() {
    let fresh_base = || {
        let mut base = FleetBase::new();
        base.install_image(b"/bin/t", &workload::tenant_image(5));
        base
    };
    let run_tenant = |builder: KernelBuilder, agents: Vec<Box<dyn Agent>>| {
        let mut k = builder.build();
        let pid = k.spawn(b"/bin/t", &[b"t"]).expect("installed");
        let mut router = InterposedRouter::new();
        for a in agents {
            wrap_process(&mut k, &mut router, pid, a, &[]);
        }
        let out = run(&mut k, &mut router, RunLimits::default());
        assert_eq!(out, RunOutcome::AllExited);
        k
    };
    let collect = || vec![Box::new(PidWatcher) as Box<dyn Agent>];
    for (name, agents) in [
        (
            "tenant",
            workload::tenant_agents as fn() -> Vec<Box<dyn Agent>>,
        ),
        ("collect", collect),
    ] {
        let k = run_tenant(fresh_base().builder(), agents());
        assert!(k.fusion_stats.total() > 0, "{name}: tenant never ran fused");
        if name == "collect" {
            assert!(
                k.fast_stats.hits() > 0,
                "Collect-mode getpid never hit the lane"
            );
        }
        let (outcome, solo) = solo_observable(
            &fresh_base(),
            b"/bin/t",
            &[b"t"],
            agents(),
            RunLimits::default().max_steps,
        );
        assert_eq!(outcome, RunOutcome::AllExited);
        assert_eq!(
            k.observable(),
            solo,
            "{name}: tenant diverged from its solo run"
        );
        let plain = fresh_base()
            .builder()
            .engine(Engine::Plain)
            .fast_path(false);
        let plain = run_tenant(plain, agents());
        assert_eq!(
            k.observable(),
            plain.observable(),
            "{name}: vs reference engine"
        );
    }
}
