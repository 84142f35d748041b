//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer: its name, start and end (nanoseconds
//! since the recorder's epoch), the span that was open when it began (its
//! parent), the job it belongs to, and an item count (calls delivered in
//! a vectored upcall). Spans are recorded only from the benchmark's own
//! code — around calls into the program's public functions and inside the
//! forwarding wrappers of [`crate::wrap`] — so the program under test is
//! unchanged.
//!
//! Each thread appends to its own buffer (the fleet drives agents on
//! worker threads); [`take_spans`] drains every buffer. A worker thread's
//! outermost spans take the *ambient* parent set with [`set_ambient`],
//! which is how agent spans inside `Fleet::run` hang under the `fleet.run`
//! span opened on the main thread.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// The enclosing span's id, or 0 for a root.
    pub parent: u64,
    /// The job this span belongs to.
    pub job: u64,
    /// Layer name, e.g. `kernel.run` or `agents.trace`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder epoch.
    pub end_ns: u64,
    /// Items handled by the call (elements of a vectored upcall), else 0.
    pub items: u32,
}

impl Span {
    /// Wall time covered by the span.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

type Buffer = Arc<Mutex<Vec<Span>>>;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static JOB: AtomicU64 = AtomicU64::new(0);
static AMBIENT: AtomicU64 = AtomicU64::new(0);
static BUFFERS: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).expect("run shorter than 584 years")
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static BUFFER: Buffer = {
        let buf: Buffer = Arc::default();
        BUFFERS.lock().expect("span registry poisoned").push(buf.clone());
        buf
    };
}

/// Sets the job id stamped on spans opened from now on.
pub fn set_job(job: u64) {
    JOB.store(job, Ordering::Relaxed);
}

/// Sets the parent of spans opened with an empty stack on any thread
/// (0 clears it).
pub fn set_ambient(parent: u64) {
    AMBIENT.store(parent, Ordering::Relaxed);
}

/// Runs `f` inside a span named `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    span_items(name, 0, |_| f())
}

/// Runs `f` inside a span named `name` that handles `items` items; `f`
/// receives the span's id (for [`set_ambient`]).
pub fn span_items<R>(name: &'static str, items: u32, f: impl FnOnce(u64) -> R) -> R {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s
            .last()
            .copied()
            .unwrap_or_else(|| AMBIENT.load(Ordering::Relaxed));
        s.push(id);
        parent
    });
    let job = JOB.load(Ordering::Relaxed);
    let start_ns = now_ns();
    let out = f(id);
    let end_ns = now_ns();
    STACK.with(|s| s.borrow_mut().pop());
    BUFFER.with(|b| {
        b.lock().expect("span buffer poisoned").push(Span {
            id,
            parent,
            job,
            name,
            start_ns,
            end_ns,
            items,
        });
    });
    out
}

/// Drains every thread's closed spans, ordered by start time.
#[must_use]
pub fn take_spans() -> Vec<Span> {
    let mut registry = BUFFERS.lock().expect("span registry poisoned");
    let mut out = Vec::new();
    for buf in registry.iter() {
        out.append(&mut buf.lock().expect("span buffer poisoned"));
    }
    // Buffers of threads that have exited are held only here.
    registry.retain(|b| Arc::strong_count(b) > 1);
    out.sort_unstable_by_key(|s| (s.start_ns, s.id));
    out
}

/// Per-layer totals derived from a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    /// Spans with this name.
    pub calls: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed self times: duration minus the part covered by children.
    pub self_ns: u64,
    /// Summed item counts.
    pub items: u64,
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (children on other threads may overlap, so the
/// union is taken, not the sum).
#[must_use]
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if a >= b {
                        continue;
                    }
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Folds spans into per-name totals.
#[must_use]
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += selfs[&s.id];
        t.items += u64::from(s.items);
    }
    out
}

/// Writes spans as JSON lines.
pub fn write_jsonl(spans: &[Span], out: &mut impl std::io::Write) -> std::io::Result<()> {
    for s in spans {
        writeln!(
            out,
            r#"{{"job":{},"id":{},"parent":{},"name":"{}","start_ns":{},"end_ns":{},"items":{}}}"#,
            s.job, s.id, s.parent, s.name, s.start_ns, s.end_ns, s.items
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            job: 0,
            name: "x",
            start_ns,
            end_ns,
            items: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100; children 10..30 and 20..50 overlap (two threads),
        // 60..70 is disjoint: covered = 40 + 10.
        let spans = [
            mk(1, 0, 0, 100),
            mk(2, 1, 10, 30),
            mk(3, 1, 20, 50),
            mk(4, 1, 60, 70),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 50);
        assert_eq!(selfs[&2], 20);
    }

    #[test]
    fn nested_spans_record_their_parent() {
        set_job(7);
        span("outer", || span("inner", || ()));
        let spans: Vec<Span> = take_spans().into_iter().filter(|s| s.job == 7).collect();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
    }
}
