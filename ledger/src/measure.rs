//! Measurement primitives taken from outside the program: process CPU
//! time and peak memory from `/proc`, quantiles over raw samples, the
//! benchmark's own spans around calls into a layer, and a commit-only
//! probe sink for the threaded driver.

use otp_simnet::{SimTime, SiteId};
use otp_telemetry::{Stage, TraceEvent, TraceSink};
use std::sync::Mutex;
use std::time::Instant;

/// Linux reports `/proc/<pid>/stat` times in `USER_HZ` ticks, which the
/// kernel ABI fixes at 100 per second.
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds of this process so far, every thread
/// included (exited ones too).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields are counted
    // after its closing parenthesis. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields[11].parse().expect("utime");
    let stime: f64 = fields[12].parse().expect("stime");
    (utime + stime) / TICKS_PER_SEC
}

/// The host CPU clock as `(steal, total)` ticks over every CPU, from
/// `/proc/stat`: steal is time the hypervisor ran something else while
/// this machine had work to do.
pub fn host_cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .expect("aggregate cpu line in /proc/stat")
        .split_whitespace()
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user.
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().take(8).sum())
}

/// Share of host CPU time stolen between two [`host_cpu_ticks`] readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    (after.0 - before.0) as f64 / (after.1 - before.1).max(1) as f64
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Nearest-rank quantile of `samples` (sorted in place); 0 when empty.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Median of `values` (sorted in place); 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Wall-clock stopwatch.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        // otp-lint: allow(wall-clock): the benchmark measures wall time.
        Stopwatch(Instant::now())
    }

    /// Seconds since start.
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// The instant the stopwatch started.
    pub fn origin(&self) -> Instant {
        self.0
    }
}

/// One span: a call the benchmark made into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of this span in its recorder.
    pub id: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// What was called (`layer.call`).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// In-memory span recorder; written out once the run ends.
#[derive(Debug)]
pub struct Spans {
    clock: Stopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans { clock: Stopwatch::start(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.clock.origin().elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span { id, parent: self.open.last().copied(), name, start_ns, end_ns: 0 });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one).
    pub fn exit(&mut self, id: usize) {
        let end = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end_ns = end;
    }

    /// Runs `f` inside a span called `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// One JSON object per span.
    pub fn jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 80);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                s.id, parent, s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// Runs `f` inside span `name` when a recorder is given, plainly otherwise.
pub fn spanned<T>(spans: &mut Option<&mut Spans>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match spans {
        Some(s) => s.time(name, f),
        None => f(),
    }
}

/// A sink that keeps only origin-site commits, one `(seq, at)` pair per
/// commit in a per-site vector (each site thread writes only its own
/// vector, so the locks are uncontended). The threaded driver's public
/// report has no per-transaction commit time; this probe is how the
/// benchmark times each request from its due time.
#[derive(Debug)]
pub struct CommitProbe {
    per_site: Vec<Mutex<Vec<(u64, SimTime)>>>,
}

impl CommitProbe {
    /// A probe for `sites` sites.
    pub fn new(sites: usize) -> Self {
        CommitProbe { per_site: (0..sites).map(|_| Mutex::new(Vec::new())).collect() }
    }

    /// Origin commits of `site` as `(seq, nanoseconds since cluster start)`.
    pub fn commits(&self, site: SiteId) -> Vec<(u64, SimTime)> {
        self.per_site[site.index()].lock().expect("probe poisoned").clone()
    }
}

impl TraceSink for CommitProbe {
    fn record(&self, ev: TraceEvent) {
        if ev.stage == Stage::Commit && ev.site == ev.origin {
            self.per_site[ev.site.index()].lock().expect("probe poisoned").push((ev.seq, ev.at));
        }
    }
}

/// A trace sink that forwards every event to two sinks.
pub struct Tee<A, B>(pub std::sync::Arc<A>, pub std::sync::Arc<B>);

impl<A: TraceSink, B: TraceSink> TraceSink for Tee<A, B> {
    fn record(&self, ev: TraceEvent) {
        self.0.record(ev);
        self.1.record(ev);
    }
}
