//! Forwarding wrappers that time calls into the interposition layers.
//!
//! [`TracedAgent`] stands in for an installed agent and [`TracedRouter`]
//! for the scheduler's router. Both forward every trait method to the
//! wrapped object, including the ones with default bodies, so a traced
//! world behaves exactly like an untraced one; they only add spans and
//! counters around the calls.

use std::collections::HashMap;
use std::sync::Mutex;

use ia_abi::{RawArgs, Signal};
use ia_interpose::{Agent, BatchCall, InterestSet, InterposedRouter, SignalVerdict, SysCtx};
use ia_kernel::{FastSpec, Kernel, Pid, SysOutcome, SyscallRouter};

use crate::trace::{span, span_items};

/// Span name of the router layer.
pub const ROUTE: &str = "interpose.route";
/// Span name of router hooks that can deliver pending vectored upcalls
/// (`absorb_batch`, `filter_signal`, `on_process_exit`).
pub const ROUTE_HOOK: &str = "interpose.hook";

/// The span name `agents.<name>` for an agent, interned once per name.
#[must_use]
pub fn agent_layer(name: &'static str) -> &'static str {
    static NAMES: Mutex<Option<HashMap<&'static str, &'static str>>> = Mutex::new(None);
    let mut names = NAMES.lock().expect("agent-name table poisoned");
    names
        .get_or_insert_with(HashMap::new)
        .entry(name)
        .or_insert_with(|| Box::leak(format!("agents.{name}").into_boxed_str()))
}

/// An agent wrapped so each upcall into it is a span named
/// `agents.<name>`. Forked children get wrapped clones.
pub struct TracedAgent {
    inner: Box<dyn Agent>,
    layer: &'static str,
}

impl TracedAgent {
    /// Wraps `inner`.
    #[must_use]
    pub fn boxed(inner: Box<dyn Agent>) -> Box<dyn Agent> {
        let layer = agent_layer(inner.name());
        Box::new(TracedAgent { inner, layer })
    }
}

impl Agent for TracedAgent {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn interests(&self) -> InterestSet {
        self.inner.interests()
    }

    fn init(&mut self, ctx: &mut SysCtx<'_>, args: &[Vec<u8>]) {
        span(self.layer, || self.inner.init(ctx, args));
    }

    fn init_child(&mut self, ctx: &mut SysCtx<'_>) {
        span(self.layer, || self.inner.init_child(ctx));
    }

    fn syscall(&mut self, ctx: &mut SysCtx<'_>, nr: u32, args: RawArgs) -> SysOutcome {
        span(self.layer, || self.inner.syscall(ctx, nr, args))
    }

    fn signal_incoming(&mut self, ctx: &mut SysCtx<'_>, sig: Signal) -> SignalVerdict {
        span(self.layer, || self.inner.signal_incoming(ctx, sig))
    }

    fn interests_fixed(&self) -> bool {
        self.inner.interests_fixed()
    }

    fn batch_interests(&self) -> InterestSet {
        self.inner.batch_interests()
    }

    fn syscall_batch(&mut self, ctx: &mut SysCtx<'_>, nr: u32, calls: &[BatchCall]) {
        let items = u32::try_from(calls.len()).expect("batches are capped far below 2^32");
        span_items(self.layer, items, |_| {
            self.inner.syscall_batch(ctx, nr, calls);
        });
    }

    fn clone_box(&self) -> Box<dyn Agent> {
        Box::new(TracedAgent {
            inner: self.inner.clone_box(),
            layer: self.layer,
        })
    }
}

/// A router wrapped so each routed trap is an `interpose.route` span, and
/// the in-loop lane's hand-offs are counted.
pub struct TracedRouter<R = InterposedRouter> {
    /// The wrapped router.
    pub inner: R,
    /// Traps the lane answered directly (`note_fast_direct` counts).
    pub lane_direct: u64,
    /// Traps the lane collected for vectored upcalls (`absorb_batch`).
    pub lane_collected: u64,
}

impl<R> TracedRouter<R> {
    /// Wraps `inner`.
    pub fn new(inner: R) -> TracedRouter<R> {
        TracedRouter {
            inner,
            lane_direct: 0,
            lane_collected: 0,
        }
    }
}

impl<R: SyscallRouter> SyscallRouter for TracedRouter<R> {
    fn route(
        &mut self,
        k: &mut Kernel,
        pid: Pid,
        nr: u32,
        args: RawArgs,
        restarts: u32,
    ) -> SysOutcome {
        span(ROUTE, || self.inner.route(k, pid, nr, args, restarts))
    }

    fn filter_signal(&mut self, k: &mut Kernel, pid: Pid, sig: Signal) -> bool {
        span(ROUTE_HOOK, || self.inner.filter_signal(k, pid, sig))
    }

    fn on_process_exit(&mut self, k: &mut Kernel, pid: Pid) {
        span(ROUTE_HOOK, || self.inner.on_process_exit(k, pid));
    }

    fn fast_spec(&mut self, k: &Kernel, pid: Pid) -> FastSpec {
        self.inner.fast_spec(k, pid)
    }

    fn note_fast_direct(&mut self, k: &mut Kernel, pid: Pid, nr: u32, count: u64) {
        self.lane_direct += count;
        self.inner.note_fast_direct(k, pid, nr, count);
    }

    fn absorb_batch(&mut self, k: &mut Kernel, pid: Pid, nr: u32, calls: &[BatchCall]) {
        self.lane_collected += calls.len() as u64;
        span(ROUTE_HOOK, || self.inner.absorb_batch(k, pid, nr, calls));
    }
}
