//! The tracing wrappers forward every trait method, the defaulted ones
//! included, and return exactly what the wrapped object returns.

use std::sync::{Arc, Mutex};

use ia_abi::{RawArgs, Signal, Sysno};
use ia_interpose::{Agent, BatchCall, InterestSet, SignalVerdict, SysCtx};
use ia_kernel::{FastSpec, Kernel, KernelBuilder, Pid, SysOutcome, SyscallRouter};
use ia_perfbench::trace::take_spans;
use ia_perfbench::wrap::{TracedAgent, TracedRouter};

type Log = Arc<Mutex<Vec<&'static str>>>;

fn last(log: &Log) -> &'static str {
    log.lock().unwrap().last().copied().unwrap_or("")
}

/// Overrides every `Agent` method with a non-default answer.
#[derive(Clone, Default)]
struct Probe {
    log: Log,
}

impl Probe {
    fn note(&self, what: &'static str) {
        self.log.lock().unwrap().push(what);
    }
}

impl Agent for Probe {
    fn name(&self) -> &'static str {
        "probe"
    }
    fn interests(&self) -> InterestSet {
        self.note("interests");
        InterestSet::of(&[Sysno::Getpid])
    }
    fn init(&mut self, _: &mut SysCtx<'_>, _: &[Vec<u8>]) {
        self.note("init");
    }
    fn init_child(&mut self, _: &mut SysCtx<'_>) {
        self.note("init_child");
    }
    fn syscall(&mut self, _: &mut SysCtx<'_>, _: u32, _: RawArgs) -> SysOutcome {
        self.note("syscall");
        SysOutcome::ok1(42)
    }
    fn signal_incoming(&mut self, _: &mut SysCtx<'_>, _: Signal) -> SignalVerdict {
        self.note("signal_incoming");
        SignalVerdict::Replace(Signal::SIGUSR2)
    }
    fn interests_fixed(&self) -> bool {
        self.note("interests_fixed");
        false
    }
    fn batch_interests(&self) -> InterestSet {
        self.note("batch_interests");
        InterestSet::of(&[Sysno::Write])
    }
    fn syscall_batch(&mut self, _: &mut SysCtx<'_>, _: u32, _: &[BatchCall]) {
        self.note("syscall_batch");
    }
    fn clone_box(&self) -> Box<dyn Agent> {
        self.note("clone_box");
        Box::new(self.clone())
    }
}

fn world() -> (Kernel, Pid) {
    let mut k = KernelBuilder::new().build();
    let img = ia_vm::assemble("main: halt\n").unwrap();
    let pid = k.spawn_image(&img, &[b"t"], b"t");
    (k, pid)
}

const CALL: BatchCall = BatchCall {
    args: [0; 6],
    ret: Ok([0, 0]),
};

#[test]
fn traced_agent_forwards_every_method() {
    let probe = Probe::default();
    let log = probe.log.clone();
    let mut a = TracedAgent::boxed(Box::new(probe));
    let (mut k, pid) = world();
    let mut below: Vec<Box<dyn Agent>> = Vec::new();
    let mut ctx = SysCtx::new(&mut k, pid, &mut below, 0);

    assert_eq!(a.name(), "probe");
    assert_eq!(a.interests(), InterestSet::of(&[Sysno::Getpid]));
    assert_eq!(last(&log), "interests");
    assert!(!a.interests_fixed());
    assert_eq!(last(&log), "interests_fixed");
    assert_eq!(a.batch_interests(), InterestSet::of(&[Sysno::Write]));
    assert_eq!(last(&log), "batch_interests");
    a.init(&mut ctx, &[]);
    assert_eq!(last(&log), "init");
    a.init_child(&mut ctx);
    assert_eq!(last(&log), "init_child");
    assert_eq!(a.syscall(&mut ctx, 20, [0; 6]), SysOutcome::ok1(42));
    assert_eq!(last(&log), "syscall");
    assert_eq!(
        a.signal_incoming(&mut ctx, Signal::SIGUSR1),
        SignalVerdict::Replace(Signal::SIGUSR2)
    );
    assert_eq!(last(&log), "signal_incoming");
    a.syscall_batch(&mut ctx, 4, &[CALL, CALL, CALL]);
    assert_eq!(last(&log), "syscall_batch");

    // A forked child's copy is traced too.
    let mut child = a.clone_box();
    assert_eq!(last(&log), "clone_box");
    assert_eq!(child.syscall(&mut ctx, 20, [0; 6]), SysOutcome::ok1(42));
    assert_eq!(last(&log), "syscall");

    let spans: Vec<_> = take_spans()
        .into_iter()
        .filter(|s| s.name == "agents.probe")
        .collect();
    // init, init_child, syscall, signal_incoming, syscall_batch, the
    // child's syscall.
    assert_eq!(spans.len(), 6);
    assert_eq!(spans.iter().map(|s| s.items).sum::<u32>(), 3);
}

/// Overrides every `SyscallRouter` method with a non-default answer.
#[derive(Default)]
struct ProbeRouter {
    log: Vec<&'static str>,
}

impl SyscallRouter for ProbeRouter {
    fn route(&mut self, _: &mut Kernel, _: Pid, _: u32, _: RawArgs, _: u32) -> SysOutcome {
        self.log.push("route");
        SysOutcome::ok1(7)
    }
    fn filter_signal(&mut self, _: &mut Kernel, _: Pid, _: Signal) -> bool {
        self.log.push("filter_signal");
        false
    }
    fn on_process_exit(&mut self, _: &mut Kernel, _: Pid) {
        self.log.push("on_process_exit");
    }
    fn fast_spec(&mut self, _: &Kernel, _: Pid) -> FastSpec {
        self.log.push("fast_spec");
        FastSpec::DIRECT
    }
    fn note_fast_direct(&mut self, _: &mut Kernel, _: Pid, _: u32, _: u64) {
        self.log.push("note_fast_direct");
    }
    fn absorb_batch(&mut self, _: &mut Kernel, _: Pid, _: u32, _: &[BatchCall]) {
        self.log.push("absorb_batch");
    }
}

#[test]
fn traced_router_forwards_every_method() {
    let mut r = TracedRouter::new(ProbeRouter::default());
    let (mut k, pid) = world();
    assert_eq!(r.route(&mut k, pid, 20, [0; 6], 0), SysOutcome::ok1(7));
    assert!(!r.filter_signal(&mut k, pid, Signal::SIGUSR1));
    r.on_process_exit(&mut k, pid);
    assert_eq!(r.fast_spec(&k, pid), FastSpec::DIRECT);
    r.note_fast_direct(&mut k, pid, 20, 5);
    r.absorb_batch(&mut k, pid, 20, &[CALL, CALL]);
    assert_eq!(
        r.inner.log,
        [
            "route",
            "filter_signal",
            "on_process_exit",
            "fast_spec",
            "note_fast_direct",
            "absorb_batch"
        ]
    );
    assert_eq!((r.lane_direct, r.lane_collected), (5, 2));
}
