//! Load generation, client-observed latency samples and trace spans.
//!
//! Latency is taken from raw per-request samples on the client side, from
//! the moment a request is submitted (closed loop) or was due (open loop)
//! until `EventHandle::wait` returns.  Handles only offer a blocking
//! `wait`, so replies are consumed in submission order: the latency is the
//! one an in-order client observes.

use aeon_api::{EventHandle, Session};
use aeon_types::{AccessMode, Args, ContextId, Result, Value};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// One request of a workload.
pub struct Op {
    pub target: ContextId,
    pub class: &'static str,
    pub method: &'static str,
    pub args: Args,
    pub read: bool,
    /// Workload-defined tag handed back with the reply to the output checks.
    pub tag: u32,
}

impl Op {
    pub fn mode(&self) -> AccessMode {
        if self.read {
            AccessMode::ReadOnly
        } else {
            AccessMode::Exclusive
        }
    }

    fn submit(self, session: &dyn Session) -> Result<EventHandle> {
        let mode = self.mode();
        session.submit_with_mode(self.target, self.method, self.args, mode)
    }
}

/// One completed request of a measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time (tracer clock, ns).
    pub done_ns: u64,
    pub latency_ns: u64,
    pub read: bool,
    /// Whether the request ran in a traced slice of the phase.
    pub traced: bool,
}

/// What one load phase produced.
#[derive(Debug, Default)]
pub struct LoopOutcome {
    pub samples: Vec<Sample>,
    /// Requests submitted in the phase.
    pub attempted: u64,
    /// Requests whose submission or execution returned an error.
    pub failed: u64,
    /// The first of those errors.
    pub first_error: Option<String>,
    /// Open loop only: how late each request was submitted (ns).
    pub late_ns: Vec<u64>,
    /// Certified read-only requests submitted (see [`Phase::certified`]).
    pub certified_reads: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A load phase of fixed length.  In a traced run the phase alternates
/// untraced and traced slices, so the two halves see the same state and
/// their difference is the tracing overhead.
#[derive(Clone, Copy)]
pub struct Phase<'a> {
    pub length: Duration,
    pub tracer: &'a Tracer,
    /// `(class, method)` pairs the analyzer certifies for the read-only fast
    /// path; submissions of these are counted.
    pub certified: &'a [(String, String)],
}

/// Length of one tracing slice.
const SLICE_NS: u64 = 250_000_000;
/// Least time between the starts of two traced requests: a sampled trace
/// keeps the span volume bounded whatever the request rate.
const TRACE_GAP_NS: u64 = 1_000_000;

impl Phase<'_> {
    /// Whether time `t_ns` of a phase started at `start_ns` lies in a
    /// traced slice.
    fn in_traced_slice(&self, start_ns: u64, t_ns: u64) -> bool {
        self.tracer.enabled() && ((t_ns - start_ns) / SLICE_NS) % 2 == 1
    }

    fn is_certified(&self, op: &Op) -> bool {
        op.read
            && self
                .certified
                .iter()
                .any(|(c, m)| c == op.class && m == op.method)
    }
}

struct Pending {
    handle: Result<EventHandle>,
    start_ns: u64,
    read: bool,
    tag: u32,
    /// Started in a traced slice.
    slice: bool,
    /// Trace id of the request, 0 when its spans are not sampled.
    request: u64,
}

/// Waits for one pending request and records its sample, spans and reply.
fn complete(
    pending: Pending,
    tracer: &Tracer,
    out: &mut LoopOutcome,
    on_reply: &mut impl FnMut(u32, &Result<Value>),
) {
    let wait_start = tracer.now();
    let result = pending.handle.and_then(EventHandle::wait);
    let done = tracer.now();
    let request = pending.request;
    if request != 0 {
        tracer.record("api.wait", request, request, wait_start, done, 1);
        tracer.record_with_id(request, "request", 0, request, pending.start_ns, done, 1);
    }
    match &result {
        Ok(_) => out.samples.push(Sample {
            done_ns: done,
            latency_ns: done - pending.start_ns,
            read: pending.read,
            traced: pending.slice,
        }),
        Err(e) => {
            out.failed += 1;
            out.first_error.get_or_insert_with(|| e.to_string());
        }
    }
    on_reply(pending.tag, &result);
}

/// Submits one request that is due at `due_ns`, timing the call into the
/// API layer when the request is sampled for the trace.  `last_traced` is
/// the due time of the previous sampled request.
fn submit(
    op: Op,
    session: &dyn Session,
    phase: &Phase<'_>,
    start_ns: u64,
    due_ns: u64,
    last_traced: &mut u64,
) -> Pending {
    let tracer = phase.tracer;
    let (read, tag) = (op.read, op.tag);
    let slice = phase.in_traced_slice(start_ns, due_ns);
    let request = if slice && due_ns >= *last_traced + TRACE_GAP_NS {
        *last_traced = due_ns;
        tracer.next_id()
    } else {
        0
    };
    let submit_start = tracer.now();
    let handle = op.submit(session);
    if request != 0 {
        tracer.record(
            "api.submit",
            request,
            request,
            submit_start,
            tracer.now(),
            1,
        );
    }
    Pending {
        handle,
        start_ns: due_ns,
        read,
        tag,
        slice,
        request,
    }
}

/// Closed loop from one client thread: keeps `window` requests outstanding,
/// submitting the next one as soon as the oldest completes.
pub fn closed_loop(
    session: &dyn Session,
    window: usize,
    phase: &Phase<'_>,
    mut next: impl FnMut() -> Op,
    mut on_reply: impl FnMut(u32, &Result<Value>),
) -> LoopOutcome {
    let tracer = phase.tracer;
    let start = tracer.now();
    let end = start + phase.length.as_nanos() as u64;
    let mut out = LoopOutcome {
        start_ns: start,
        end_ns: end,
        ..LoopOutcome::default()
    };
    let mut inflight = VecDeque::with_capacity(window);
    let mut last_traced = 0;
    loop {
        let now = tracer.now();
        if now < end && inflight.len() < window {
            let op = next();
            out.attempted += 1;
            out.certified_reads += u64::from(phase.is_certified(&op));
            inflight.push_back(submit(op, session, phase, start, now, &mut last_traced));
            continue;
        }
        match inflight.pop_front() {
            Some(pending) => complete(pending, tracer, &mut out, &mut on_reply),
            None => break,
        }
    }
    out
}

/// Lets the calling thread's sleeps end on time.  The default timer slack
/// (50 µs) would make the open-loop sender that much late on nearly every
/// request, and latency counts from the due time.
#[cfg(target_os = "linux")]
fn tighten_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    // SAFETY: PR_SET_TIMERSLACK reads one unsigned long by value and only
    // changes the calling thread's timer slack; no pointer is passed.  A
    // failure leaves the default slack, which `gen.late_p99_ms` shows.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

#[cfg(not(target_os = "linux"))]
fn tighten_timer_slack() {}

/// Open loop at a fixed offered rate: one sender thread submits `ops[i]`
/// when it is due (`i / rate` seconds into the phase), one reply thread
/// waits for the replies.  Latency counts from the due time, so a stall
/// also charges the requests queued behind it.
pub fn open_loop(
    session: &dyn Session,
    rate: f64,
    phase: &Phase<'_>,
    ops: impl Iterator<Item = Op>,
    mut on_reply: impl FnMut(u32, &Result<Value>) + Send,
) -> LoopOutcome {
    tighten_timer_slack();
    let tracer = phase.tracer;
    let start = tracer.now();
    let end = start + phase.length.as_nanos() as u64;
    let interval = 1e9 / rate;
    let (tx, rx) = mpsc::channel::<Pending>();
    std::thread::scope(|scope| {
        let replies = scope.spawn(move || {
            let mut out = LoopOutcome::default();
            for pending in rx {
                complete(pending, tracer, &mut out, &mut on_reply);
            }
            out
        });
        let (mut attempted, mut certified, mut late, mut last_traced) = (0u64, 0u64, Vec::new(), 0);
        for (i, op) in ops.enumerate() {
            let due = start + (i as f64 * interval) as u64;
            if due >= end {
                break;
            }
            let now = tracer.now();
            if due > now {
                std::thread::sleep(Duration::from_nanos(due - now));
            }
            late.push(tracer.now().saturating_sub(due));
            attempted += 1;
            certified += u64::from(phase.is_certified(&op));
            let pending = submit(op, session, phase, start, due, &mut last_traced);
            tx.send(pending).expect("reply thread outlives the sender");
        }
        drop(tx);
        let mut out = replies.join().expect("reply thread does not panic");
        out.attempted = attempted;
        out.certified_reads = certified;
        out.late_ns = late;
        out.start_ns = start;
        out.end_ns = end;
        out
    })
}

/// Length of the windows the host's CPU steal is read over.
const WINDOW_NS: u64 = 1_000_000_000;

/// A stretch of the measured phase with the host CPU time (jiffies, all
/// CPUs) spent in it and the part of it the hypervisor stole.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub start_ns: u64,
    pub end_ns: u64,
    pub steal: u64,
    pub total: u64,
}

impl Window {
    fn steal_share(&self) -> f64 {
        self.steal as f64 / self.total.max(1) as f64
    }

    pub fn contains(&self, t_ns: u64) -> bool {
        (self.start_ns..self.end_ns).contains(&t_ns)
    }

    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    /// The part of the window that lies in `load`'s phase; `None` for a
    /// sliver of less than half a window at the phase's edges.
    fn clip(&self, load: &LoopOutcome) -> Option<Window> {
        let start_ns = self.start_ns.max(load.start_ns);
        let end_ns = self.end_ns.min(load.end_ns);
        (end_ns >= start_ns + WINDOW_NS / 2).then_some(Window {
            start_ns,
            end_ns,
            ..*self
        })
    }
}

/// `(steal, total)` CPU jiffies of the host so far, from `/proc/stat`.
fn cpu_times() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Cuts the time until `stop` is set into one-second windows, reading the
/// host's CPU counters at each boundary.  Empty where the kernel does not
/// report them.
pub fn cpu_windows(tracer: &Tracer, stop: &AtomicBool) -> Vec<Window> {
    let mut windows = Vec::new();
    let origin = tracer.now();
    let (mut start, mut before) = (origin, cpu_times());
    while !stop.load(Ordering::Relaxed) {
        // Boundaries stay on whole seconds from the origin, so late wake-ups
        // do not add up over the phase.
        let boundary = origin + (windows.len() as u64 + 1) * WINDOW_NS;
        let now = tracer.now();
        if now < boundary {
            std::thread::sleep(Duration::from_nanos(boundary - now).min(Duration::from_millis(50)));
            continue;
        }
        let after = cpu_times();
        if let (Some((s0, t0)), Some((s1, t1))) = (before, after) {
            windows.push(Window {
                start_ns: start,
                end_ns: now,
                steal: s1 - s0,
                total: t1 - t0,
            });
        }
        (start, before) = (now, after);
    }
    windows
}

/// The windows of `load`'s phase, clipped to it.
pub fn phase_windows(windows: &[Window], load: &LoopOutcome) -> Vec<Window> {
    windows.iter().filter_map(|w| w.clip(load)).collect()
}

/// The windows of a phase in which the hypervisor stole no more of the CPU
/// time than in the quieter half of them.  Steal on a shared host comes in
/// bursts of seconds and slows every layer at once; comparing programs over
/// their quietest seconds keeps those bursts out of the comparison.  `None`
/// when that cut keeps every window (as when the kernel reports no steal):
/// then the whole phase counts.
pub fn quiet_windows(inside: &[Window]) -> Option<Vec<Window>> {
    let mut shares: Vec<f64> = inside.iter().map(Window::steal_share).collect();
    shares.sort_by(f64::total_cmp);
    let cutoff = *shares.get(shares.len().div_ceil(2).checked_sub(1)?)?;
    // Every window that ties the cut-off stays, so the choice never depends
    // on the windows' order in time.
    let quiet: Vec<Window> = inside
        .iter()
        .filter(|w| w.steal_share() <= cutoff)
        .copied()
        .collect();
    (quiet.len() < inside.len()).then_some(quiet)
}

/// Share of the CPU time the hypervisor stole over `windows`.
pub fn steal_share(windows: &[Window]) -> f64 {
    let steal: u64 = windows.iter().map(|w| w.steal).sum();
    let total: u64 = windows.iter().map(|w| w.total).sum();
    steal as f64 / total.max(1) as f64
}

/// A named number of the result line.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Exact nearest-rank quantile `q` of `sorted` samples, with the number
/// of samples that lie beyond it (`None` when there are none).
pub fn nearest_rank(sorted: &[u64], q: f64) -> Option<(u64, usize)> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    sorted.get(rank - 1).map(|v| (*v, n - rank))
}

/// [`nearest_rank`]'s value, for layer-level sample sets where a value is
/// useful however few samples lie beyond it (0 when empty).
pub fn quantile_any(sorted: &[u64], q: f64) -> u64 {
    nearest_rank(sorted, q).map_or(0, |(v, _)| v)
}

pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A timed interval around a call into one layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// Span that caused this one (0: none).
    pub parent: u64,
    /// Request the span belongs to (0: not part of a client request).
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Items the span covers (a batch size, or the bytes a migration moved).
    pub n: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The benchmark's clock and, in a traced run, its in-memory span store.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            enabled,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span under a fresh id (nothing when tracing is off).
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: u64,
        end: u64,
        n: u64,
    ) {
        if self.enabled {
            self.record_with_id(self.next_id(), name, parent, request, start, end, n);
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub fn record_with_id(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        request: u64,
        start_ns: u64,
        end_ns: u64,
        n: u64,
    ) {
        if self.enabled {
            self.spans
                .lock()
                .expect("span store is never poisoned")
                .push(Span {
                    id,
                    parent,
                    request,
                    name,
                    start_ns,
                    end_ns,
                    n,
                });
        }
    }

    /// Runs `f`, records it as span `name`, and returns its result with
    /// the elapsed seconds (timed whether or not tracing is on).
    pub fn time<T>(&self, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let start = self.now();
        let value = f();
        let end = self.now();
        self.record(name, parent, 0, start, end, 1);
        (value, (end - start) as f64 / 1e9)
    }

    /// Sorted durations (ns) of the spans called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        let spans = self.spans.lock().expect("span store is never poisoned");
        let mut d: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect();
        d.sort_unstable();
        d
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let spans = self.spans.lock().expect("span store is never poisoned");
        let mut text = String::with_capacity(spans.len() * 96);
        for s in spans.iter() {
            let _ = writeln!(
                text,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"n\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns, s.n
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)?;
        Ok(spans.len())
    }
}
