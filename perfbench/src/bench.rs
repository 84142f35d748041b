//! A run: set-up, the closed job loop, and the metrics.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::trace::{self, layer_totals, LayerTotals, Span};
use crate::work::{
    Counts, FleetWork, Job, Replay, Solo, Workload, FLEET_TENANTS, MAKE8_TRACE, SCRIBE_TIMEX,
};
use crate::wrap::{agent_layer, ROUTE, ROUTE_HOOK};

/// The workloads, by name.
pub const WORKLOADS: [&str; 4] = ["scribe-timex", "make8-trace", "fleet-1k", "replay-make8"];

/// Processes an untraced run is split into. Some costs differ between
/// processes running identical work (on the host the benchmark was tuned
/// on, `replay-make8` seeks ran at one of two speeds, 2x apart, fixed for a
/// process's lifetime), so an untraced run pools the samples of several
/// processes, each measuring an equal share of the run's seconds.
pub const PARTS: u64 = 4;

/// Untimed, checked jobs each process runs before it measures.
pub const WARMUP_JOBS: u64 = 2;

/// Set-ups per process; `setup_s` is the median over a run's processes.
pub const SETUP_REPEATS: usize = 4;

/// Spans kept for export: those of the first traced job, up to this many
/// (one make8 job opens about 28k spans, one fleet batch about 240k).
pub const EXPORT_SPANS: usize = 100_000;

/// End-to-end metrics: name and unit (reported with tracing off). The
/// median job time, the throughput and the 90th-percentile spin-up are
/// reported with the per-layer metrics instead, unbounded: on the host the
/// benchmark was tuned on they spread across runs by more than any bound
/// allowed (see README.md).
pub const END_TO_END: [(&str, &str); 4] = [
    ("job_ms_p90", "ms"),
    ("spinup_us_p50", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The agents whose layers are reported.
pub const AGENTS: [&str; 4] = ["timex", "trace", "time_symbolic", "pass_through"];

/// Spans whose single-call durations are reported as medians.
const SPINUP_SPANS: [&str; 5] = [
    "kernel.build",
    "kernel.spawn",
    "interpose.wrap",
    "kernel.snapshot",
    "kernel.restore",
];

/// Spans whose self time per job is reported (the waterfall); agents
/// come on top of these.
const WATERFALL: [&str; 11] = [
    "kernel.run",
    ROUTE,
    ROUTE_HOOK,
    "kernel.build",
    "kernel.spawn",
    "interpose.wrap",
    "kernel.restore",
    "kernel.snapshot",
    "fleet.spawn",
    "fleet.run",
    "bench.rewrap",
];

/// Per-layer metric names and units, in report order.
#[must_use]
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("kernel.run.ns_per_insn", "ns"),
        ("vm.insns_per_job", "count"),
        ("vm.fused_share", "ratio"),
        ("kernel.sched.slices_per_job", "count"),
        ("kernel.sched.iterations_per_job", "count"),
        ("kernel.sched.lane_hits_per_job", "count"),
        ("kernel.sched.lane_hit_ratio", "ratio"),
        ("interpose.route.calls_per_job", "count"),
        ("interpose.route.self_ns_per_call", "ns"),
        ("interpose.intercepted_share", "ratio"),
        ("interpose.lane.direct_calls_per_job", "count"),
        ("interpose.lane.collected_calls_per_job", "count"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for a in AGENTS {
        for (m, u) in [
            ("calls_per_job", "count"),
            ("self_ns_per_call", "ns"),
            ("batch_elems_per_job", "count"),
            ("self_ms_per_job", "ms"),
        ] {
            v.push((format!("agents.{a}.{m}"), u));
        }
    }
    for name in WATERFALL {
        v.push((format!("{name}.self_ms_per_job"), "ms"));
    }
    for (n, u) in [
        ("kernel.syscalls_per_job", "count"),
        ("kernel.exec_cache.hit_ratio", "ratio"),
        ("kernel.exec_cache.misses_per_job", "count"),
        ("kernel.clock.virtual_s_per_job", "s"),
        ("vfs.files", "count"),
        ("vfs.bytes", "bytes"),
    ] {
        v.push((n.to_string(), u));
    }
    for name in SPINUP_SPANS {
        v.push((format!("{name}.us_p50"), "us"));
    }
    for (n, u) in [
        ("fleet.run.ms_per_batch", "ms"),
        ("fleet.steals_per_batch", "count"),
        ("fleet.turns_per_batch", "count"),
        ("bench.jobs_per_s", "1/s"),
        ("bench.job_ms_p50", "ms"),
        ("bench.spinup_us_p90", "us"),
        ("bench.job_ms_traced", "ms"),
        ("bench.unattributed_share", "ratio"),
        ("bench.trace_overhead", "ratio"),
    ] {
        v.push((n.to_string(), u));
    }
    v
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs whose output failed a check.
    pub failed: u64,
    /// Set-up or reference problems, and the first job problems.
    pub problems: Vec<String>,
    /// Metrics in report order: name, value, unit.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines (printed before the result).
    pub notes: Vec<String>,
    /// Spans of the first traced job (at most [`EXPORT_SPANS`]).
    pub spans: Vec<Span>,
}

impl Outcome {
    /// True when the set-up checks held and no job failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The result line: one JSON object.
    #[must_use]
    pub fn result_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                metrics,
                r#"{sep}"{name}": {{"value": {value:?}, "unit": "{unit}"}}"#
            );
        }
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{metrics}}}}}"#,
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// Measures one workload in this process for `seconds` of jobs. `part`
/// numbers the process within a pooled run; its jobs draw their inputs
/// from their own index range.
///
/// # Errors
/// An unknown workload name.
pub fn measure(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    threads: usize,
    part: u64,
) -> Result<Measured, String> {
    let loop_for = Duration::from_secs_f64(seconds);
    let first = part << 32;
    Ok(match workload {
        "scribe-timex" => drive(|| Solo::setup(&SCRIBE_TIMEX), loop_for, traced, first),
        "make8-trace" => drive(|| Solo::setup(&MAKE8_TRACE), loop_for, traced, first),
        "fleet-1k" => drive(
            || FleetWork::setup(seed, FLEET_TENANTS, threads),
            loop_for,
            traced,
            first,
        ),
        "replay-make8" => drive(|| Replay::setup(seed), loop_for, traced, first),
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {WORKLOADS:?}"
            ))
        }
    })
}

/// Sorted-sample percentile (nearest rank).
#[must_use]
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

fn median_f64(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// The host's peak resident set of this process, in MB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("Linux /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Per-layer figures folded over the traced jobs.
#[derive(Default)]
struct Layers {
    jobs: u64,
    totals: BTreeMap<&'static str, LayerTotals>,
    durations: BTreeMap<&'static str, Vec<u64>>,
    counts: Vec<Counts>,
    kept: Vec<Span>,
}

impl Layers {
    fn fold(&mut self, spans: Vec<Span>, counts: Counts) {
        self.jobs += 1;
        self.counts.push(counts);
        for (name, t) in layer_totals(&spans) {
            let acc = self.totals.entry(name).or_default();
            acc.calls += t.calls;
            acc.total_ns += t.total_ns;
            acc.self_ns += t.self_ns;
            acc.items += t.items;
        }
        for s in &spans {
            if SPINUP_SPANS.contains(&s.name) {
                self.durations.entry(s.name).or_default().push(s.dur_ns());
            }
        }
        if self.jobs == 1 {
            self.kept = spans;
            self.kept.truncate(EXPORT_SPANS);
        }
    }

    fn total(&self, name: &str) -> LayerTotals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    fn sum(&self, f: impl Fn(&Counts) -> u64) -> f64 {
        self.counts.iter().map(f).sum::<u64>() as f64
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// What the job loop collected.
#[derive(Default)]
pub struct Samples {
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs whose output failed a check.
    pub failed: u64,
    /// The first job problems.
    pub problems: Vec<String>,
    /// Untraced job times.
    pub plain_ns: Vec<u64>,
    /// Traced job times.
    pub traced_ns: Vec<u64>,
    /// Spin-up times of untraced jobs.
    pub spinup_ns: Vec<u64>,
    /// Untraced job plus teardown time: the measured phase.
    pub phase_ns: u64,
    layers: Layers,
}

impl Samples {
    /// Failed jobs over attempted jobs.
    #[must_use]
    pub fn failed_share(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// The closed job loop: runs jobs numbered from `first` while `more(n)`
/// holds for the `n` jobs run so far; with `traced_run`, every second job
/// is traced.
pub fn run_jobs<W: Workload>(
    w: &mut W,
    traced_run: bool,
    first: u64,
    mut more: impl FnMut(u64) -> bool,
) -> Samples {
    let mut s = Samples::default();
    let mut n = 0u64;
    while more(n) {
        let index = first + n;
        let traced = traced_run && n % 2 == 1;
        trace::set_job(index);
        let job: Job = w.job(index, traced);
        s.attempted += 1;
        if let Some(p) = job.problem {
            s.failed += 1;
            if s.failed <= 3 {
                s.problems.push(format!("job {index}: {p}"));
            }
        }
        if traced {
            s.traced_ns.push(job.job_ns);
            s.layers.fold(trace::take_spans(), job.counts);
        } else {
            s.plain_ns.push(job.job_ns);
            s.spinup_ns.extend(job.spinup_ns);
            s.phase_ns += job.job_ns + job.teardown_ns;
        }
        n += 1;
    }
    s
}

/// What one process measured: set-up, the job loop, peak memory.
#[derive(Default)]
pub struct Measured {
    /// Set-up times, seconds.
    pub setup_s: Vec<f64>,
    /// The job loop's samples (reference problems first).
    pub samples: Samples,
    /// Peak resident set, MB (the largest of the pooled processes).
    pub peak_rss_mb: f64,
}

impl Measured {
    /// The untraced samples as text, for the process pooling them.
    #[must_use]
    pub fn to_wire(&self) -> String {
        fn join<T: ToString>(v: &[T]) -> String {
            v.iter().map(T::to_string).collect::<Vec<_>>().join(" ")
        }
        let s = &self.samples;
        let mut out = format!(
            "attempted {}\nfailed {}\nphase_ns {}\npeak_rss_mb {}\nsetup_s {}\nplain_ns {}\nspinup_ns {}\n",
            s.attempted,
            s.failed,
            s.phase_ns,
            self.peak_rss_mb,
            join(&self.setup_s),
            join(&s.plain_ns),
            join(&s.spinup_ns)
        );
        for p in &s.problems {
            let _ = writeln!(out, "problem {}", p.replace('\n', " "));
        }
        out
    }

    /// Parses [`Measured::to_wire`] output.
    ///
    /// # Errors
    /// A line that is not part of the format.
    pub fn from_wire(text: &str) -> Result<Measured, String> {
        fn nums<T: std::str::FromStr>(v: &str) -> Result<Vec<T>, String> {
            v.split_whitespace()
                .map(|x| x.parse().map_err(|_| format!("bad number {x:?}")))
                .collect()
        }
        fn one<T: std::str::FromStr>(v: &str) -> Result<T, String> {
            v.trim().parse().map_err(|_| format!("bad number {v:?}"))
        }
        let mut m = Measured::default();
        for line in text.lines() {
            let (key, v) = line.split_once(' ').unwrap_or((line, ""));
            let s = &mut m.samples;
            match key {
                "attempted" => s.attempted = one(v)?,
                "failed" => s.failed = one(v)?,
                "phase_ns" => s.phase_ns = one(v)?,
                "peak_rss_mb" => m.peak_rss_mb = one(v)?,
                "setup_s" => m.setup_s = nums(v)?,
                "plain_ns" => s.plain_ns = nums(v)?,
                "spinup_ns" => s.spinup_ns = nums(v)?,
                "problem" => s.problems.push(v.to_string()),
                _ => return Err(format!("unexpected line {line:?}")),
            }
        }
        Ok(m)
    }

    /// Pools another process's untraced samples into these.
    pub fn merge(&mut self, other: Measured) {
        let (s, o) = (&mut self.samples, other.samples);
        s.attempted += o.attempted;
        s.failed += o.failed;
        s.phase_ns += o.phase_ns;
        s.problems.extend(o.problems);
        s.plain_ns.extend(o.plain_ns);
        s.spinup_ns.extend(o.spinup_ns);
        self.setup_s.extend(other.setup_s);
        self.peak_rss_mb = self.peak_rss_mb.max(other.peak_rss_mb);
    }
}

/// Set-up, references, then the closed job loop.
fn drive<W: Workload>(
    setup: impl Fn() -> W,
    loop_for: Duration,
    traced_run: bool,
    first: u64,
) -> Measured {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut w = None;
    for _ in 0..SETUP_REPEATS {
        drop(w.take());
        let t = Instant::now();
        w = Some(setup());
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = w.expect("at least one set-up");
    let mut problems = w.prepare();
    // Untimed jobs first: the allocator settles its thresholds and the
    // process touches its heap for the first time once per process, not
    // once per job (the first two `fleet-1k` batches take 2-4x as long).
    for i in 0..WARMUP_JOBS {
        if let Some(p) = w.job(first | (u64::from(u32::MAX) - i), false).problem {
            problems.push(format!("warm-up job: {p}"));
        }
    }

    let start = Instant::now();
    let mut samples = run_jobs(&mut w, traced_run, first, |n| {
        n < 2 || start.elapsed() < loop_for
    });
    samples.problems.splice(0..0, problems);
    Measured {
        setup_s,
        samples,
        peak_rss_mb: peak_rss_mb(),
    }
}

/// The notes and metrics of a (possibly pooled) measurement.
#[must_use]
pub fn report(m: Measured, traced_run: bool) -> Outcome {
    let s = m.samples;
    let mut out = Outcome {
        attempted: s.attempted,
        failed: s.failed,
        problems: s.problems,
        ..Outcome::default()
    };
    let plain = sorted(s.plain_ns);
    let spin = sorted(s.spinup_ns);
    out.notes.push(format!(
        "{} untraced jobs, {} traced, {} spin-ups, {} set-ups; failed share {}",
        plain.len(),
        s.traced_ns.len(),
        spin.len(),
        m.setup_s.len(),
        ratio(s.failed as f64, s.attempted as f64)
    ));
    if plain.len() < 100 {
        out.notes.push(format!(
            "warning: {} untraced jobs leave fewer than ten beyond p90",
            plain.len()
        ));
    }
    let jobs_per_s = ratio(plain.len() as f64, s.phase_ns as f64 / 1e9);
    if traced_run {
        let unbounded = [
            ("bench.jobs_per_s", jobs_per_s),
            ("bench.job_ms_p50", percentile(&plain, 50.0) / 1e6),
            ("bench.spinup_us_p90", percentile(&spin, 90.0) / 1e3),
        ];
        out.metrics = layer_metrics(&s.layers, &plain, &sorted(s.traced_ns), &unbounded);
        out.notes.extend(waterfall(&s.layers));
        out.spans = s.layers.kept;
    } else {
        out.notes.push(format!(
            "unbounded: job_ms_p50 {:.6} ms, jobs_per_s {jobs_per_s:.6}, spinup_us_p90 {:.3}",
            percentile(&plain, 50.0) / 1e6,
            percentile(&spin, 90.0) / 1e3
        ));
        let values = [
            percentile(&plain, 90.0) / 1e6,
            percentile(&spin, 50.0) / 1e3,
            median_f64(m.setup_s),
            m.peak_rss_mb,
        ];
        out.metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name.to_string(), v, unit))
            .collect();
    }
    out
}

/// The per-layer metrics from the traced jobs.
fn layer_metrics(
    l: &Layers,
    plain: &[u64],
    traced: &[u64],
    unbounded: &[(&str, f64)],
) -> Vec<(String, f64, &'static str)> {
    let jobs = l.jobs.max(1) as f64;
    let per_job = |x: f64| x / jobs;
    let insns = l.sum(|c| c.engine.insns);
    let run = l.total("kernel.run");
    let route = l.total(ROUTE);
    let lane_hits = l.sum(|c| c.engine.lane_hits);
    let lane_misses = l.sum(|c| c.lane_misses);
    let intercepted = l.sum(|c| c.engine.router.intercepted);
    let traps = l.sum(|c| c.engine.client_traps());
    let exec_hits = l.sum(|c| c.exec_hits);
    let exec_misses = l.sum(|c| c.exec_misses);
    let job = l.total("job");

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        values.insert(name.to_string(), v);
    };
    put("kernel.run.ns_per_insn", ratio(run.self_ns as f64, insns));
    put("vm.insns_per_job", per_job(insns));
    put(
        "vm.fused_share",
        ratio(2.0 * l.sum(|c| c.engine.fused), insns),
    );
    put(
        "kernel.sched.slices_per_job",
        per_job(l.sum(|c| c.engine.slices)),
    );
    put(
        "kernel.sched.iterations_per_job",
        per_job(l.sum(|c| c.sched_iterations)),
    );
    put("kernel.sched.lane_hits_per_job", per_job(lane_hits));
    put(
        "kernel.sched.lane_hit_ratio",
        ratio(lane_hits, lane_hits + lane_misses),
    );
    put("interpose.route.calls_per_job", per_job(route.calls as f64));
    put(
        "interpose.route.self_ns_per_call",
        ratio(route.self_ns as f64, route.calls as f64),
    );
    put("interpose.intercepted_share", ratio(intercepted, traps));
    put(
        "interpose.lane.direct_calls_per_job",
        per_job(l.sum(|c| c.lane_direct)),
    );
    put(
        "interpose.lane.collected_calls_per_job",
        per_job(l.sum(|c| c.lane_collected)),
    );
    for a in AGENTS {
        let t = l.total(agent_layer(a));
        put(
            &format!("agents.{a}.calls_per_job"),
            per_job(t.calls as f64),
        );
        put(
            &format!("agents.{a}.self_ns_per_call"),
            ratio(t.self_ns as f64, t.calls as f64),
        );
        put(
            &format!("agents.{a}.batch_elems_per_job"),
            per_job(t.items as f64),
        );
        put(
            &format!("agents.{a}.self_ms_per_job"),
            per_job(t.self_ns as f64) / 1e6,
        );
    }
    for name in WATERFALL {
        put(
            &format!("{name}.self_ms_per_job"),
            per_job(l.total(name).self_ns as f64) / 1e6,
        );
    }
    put(
        "kernel.syscalls_per_job",
        per_job(l.sum(|c| c.kernel_syscalls)),
    );
    put(
        "kernel.exec_cache.hit_ratio",
        ratio(exec_hits, exec_hits + exec_misses),
    );
    put("kernel.exec_cache.misses_per_job", per_job(exec_misses));
    put(
        "kernel.clock.virtual_s_per_job",
        per_job(l.sum(|c| c.virtual_ns)) / 1e9,
    );
    put("vfs.files", per_job(l.sum(|c| c.vfs_files)));
    put("vfs.bytes", per_job(l.sum(|c| c.vfs_bytes)));
    for name in SPINUP_SPANS {
        let d = sorted(l.durations.get(name).cloned().unwrap_or_default());
        put(&format!("{name}.us_p50"), percentile(&d, 50.0) / 1e3);
    }
    put(
        "fleet.run.ms_per_batch",
        per_job(l.total("fleet.run").total_ns as f64) / 1e6,
    );
    put("fleet.steals_per_batch", per_job(l.sum(|c| c.steals)));
    put("fleet.turns_per_batch", per_job(l.sum(|c| c.turns)));
    for &(name, v) in unbounded {
        put(name, v);
    }
    put("bench.job_ms_traced", percentile(traced, 50.0) / 1e6);
    put(
        "bench.unattributed_share",
        ratio(job.self_ns as f64, job.total_ns as f64),
    );
    put(
        "bench.trace_overhead",
        ratio(percentile(traced, 50.0), percentile(plain, 50.0)),
    );

    per_layer_names()
        .into_iter()
        .map(|(name, unit)| {
            let v = values[&name];
            (name, v, unit)
        })
        .collect()
}

/// Human-readable waterfall: each layer's self time per traced job.
fn waterfall(l: &Layers) -> Vec<String> {
    let jobs = l.jobs.max(1) as f64;
    let job = l.total("job");
    let whole = job.total_ns as f64 / jobs;
    let mut rows: Vec<(&str, LayerTotals)> = l
        .totals
        .iter()
        .map(|(&n, &t)| (n, t))
        .filter(|(n, _)| *n != "job")
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1.self_ns));
    let mut lines = vec![format!(
        "waterfall over {} traced jobs ({:.3} ms each):",
        l.jobs,
        whole / 1e6
    )];
    for (name, t) in rows.into_iter().chain([("(unattributed)", job)]) {
        let self_ms = t.self_ns as f64 / jobs / 1e6;
        lines.push(format!(
            "  {name:<24} {self_ms:>10.4} ms self  {:>6.2}%  {:>10.1} calls/job",
            100.0 * ratio(t.self_ns as f64 / jobs, whole),
            t.calls as f64 / jobs
        ));
    }
    lines
}
