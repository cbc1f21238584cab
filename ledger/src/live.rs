//! The workload over the threaded [`LiveCluster`]: one open-loop
//! generator (this thread) submits on a fixed, seed-generated schedule
//! with the non-blocking `try_submit`, so a refusal is a failure, and each
//! request is timed from the instant it was due.

use crate::measure::{self, spanned, CommitProbe, Spans, Stopwatch, Tee};
use crate::{tracefold, Outcome, RunArgs};
use otp_bench::perf::stage_breakdown;
use otp_core::runtime::{LiveCluster, LiveConfig, LiveReport};
use otp_core::{EngineKind, Mode};
use otp_simnet::{SimDuration, SimRng, SiteId};
use otp_storage::{ClassId, ObjectId, Value};
use otp_telemetry::{MemSink, Stage, TraceSink};
use otp_workload::StandardProcs;
use std::sync::Arc;
use std::time::Duration;

/// One threaded workload.
#[derive(Debug, Clone)]
pub struct LiveSpec {
    /// Workload name.
    pub name: &'static str,
    /// Site threads.
    pub sites: usize,
    /// Conflict classes (uniform).
    pub classes: usize,
    /// Objects per class.
    pub keys_per_class: u64,
    /// One-way network delay.
    pub net_delay: Duration,
    /// Uniform network jitter on top.
    pub net_jitter: Duration,
    /// Stored-procedure execution time.
    pub exec: Duration,
    /// Offered requests per second (Poisson arrivals).
    pub rate_tps: f64,
    /// Share of the budget the load runs for (the rest is set-up,
    /// shutdown and the checks).
    pub load_share: f64,
}

/// Set-up is timed this many times per run; the median is reported.
const SETUP_SAMPLES: usize = 9;
/// Load length of one session of a timed run.
const SESSION: Duration = Duration::from_secs(1);
/// Sessions a timed run reports on.
const KEEP_SESSIONS: usize = 8;
/// A session during which the host stole less than this share of the
/// CPUs counts towards [`KEEP_SESSIONS`]; a timed run stops early once it
/// has that many.
const MAX_STEAL: f64 = 0.05;
/// Shutdown deadline: generous, since shutdown returns at quiescence.
const SHUTDOWN: Duration = Duration::from_secs(20);
/// Length of the windows (by due time) whose commit-latency quantiles
/// and CPU cost are reported as medians over the run, so a scheduler
/// stall moves the windows it falls in, not the run's figure. At 5k req/s
/// a window holds about 1250 requests: a dozen beyond its p99.
const WINDOW: Duration = Duration::from_millis(250);

impl LiveSpec {
    /// `live-otp4` (see README.md).
    pub fn otp4() -> Self {
        LiveSpec {
            name: "live-otp4",
            sites: 4,
            classes: 8,
            keys_per_class: 64,
            net_delay: Duration::from_micros(50),
            net_jitter: Duration::from_micros(50),
            exec: Duration::from_micros(50),
            rate_tps: 5_000.0,
            load_share: 0.8,
        }
    }

    fn config(&self, seed: u64) -> LiveConfig {
        let mut config = LiveConfig::new(self.sites, self.classes)
            .with_engine(EngineKind::Opt { consensus_timeout: SimDuration::from_millis(100) })
            .with_mode(Mode::Otp)
            .with_exec_time(self.exec)
            .with_seed(seed);
        config.net_delay = self.net_delay;
        config.net_jitter = self.net_jitter;
        config
    }
}

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
pub struct Due {
    /// Due instant, nanoseconds after the load starts.
    pub at_ns: u64,
    /// Site submitted to.
    pub site: SiteId,
    /// Conflict class.
    pub class: ClassId,
    /// Key within the class.
    pub key: u64,
    /// Amount added.
    pub delta: i64,
}

/// The request schedule of `spec` over `load`; the same seed gives the
/// same schedule.
pub fn schedule(spec: &LiveSpec, seed: u64, load: Duration) -> Vec<Due> {
    let mut rng = SimRng::seed_from(seed);
    let mut out = Vec::with_capacity((spec.rate_tps * load.as_secs_f64() * 1.1) as usize);
    let mut t = 0.0f64;
    loop {
        t += rng.exponential(1.0 / spec.rate_tps);
        if t >= load.as_secs_f64() {
            return out;
        }
        out.push(Due {
            at_ns: (t * 1e9) as u64,
            site: SiteId::new(rng.index(spec.sites) as u16),
            class: ClassId::new(rng.index(spec.classes) as u32),
            key: rng.index(spec.keys_per_class as usize) as u64,
            delta: 1 + rng.index(9) as i64,
        });
    }
}

fn initial_data(spec: &LiveSpec) -> Vec<(ObjectId, Value)> {
    (0..spec.classes as u32)
        .flat_map(|c| {
            (0..spec.keys_per_class).map(move |k| (ObjectId::new(c, k), Value::Int(1_000)))
        })
        .collect()
}

/// A started cluster with its schedule.
struct Started {
    cluster: LiveCluster,
    schedule: Vec<Due>,
    probe: Arc<CommitProbe>,
    /// Taken just before the cluster started: the zero of its trace clock.
    anchor: Stopwatch,
    setup_secs: f64,
}

fn start(spec: &LiveSpec, seed: u64, load: Duration, trace: Option<Arc<MemSink>>) -> Started {
    let sw = Stopwatch::start();
    let schedule = schedule(spec, seed, load);
    let (registry, _) = StandardProcs::registry();
    let probe = Arc::new(CommitProbe::new(spec.sites));
    let sink: Arc<dyn TraceSink> = match trace {
        None => probe.clone(),
        Some(mem) => Arc::new(Tee(probe.clone(), mem)),
    };
    let anchor = Stopwatch::start();
    let cluster =
        LiveCluster::start_traced(spec.config(seed), registry, initial_data(spec), Some(sink));
    Started { cluster, schedule, probe, anchor, setup_secs: sw.secs() }
}

/// What one loaded run measured.
struct Loaded {
    report: LiveReport,
    attempted: u64,
    refused: u64,
    /// Due → origin-commit latency per committed request, with its due
    /// instant (ms, ns).
    latencies: Vec<(u64, f64)>,
    late_ms: Vec<f64>,
    cpu_secs: f64,
    load_secs: f64,
}

fn load(
    s: Started,
    procs: &StandardProcs,
    mut spans: Option<&mut Spans>,
) -> Result<Loaded, String> {
    let Started { cluster, schedule, probe, anchor, .. } = s;
    let cpu0 = measure::cpu_seconds();
    let gen = Stopwatch::start();
    let mut accepted: Vec<(SiteId, u64, u64)> = Vec::with_capacity(schedule.len());
    let mut late_ms = Vec::with_capacity(schedule.len());
    let mut refused = 0u64;
    for due in &schedule {
        let at = Duration::from_nanos(due.at_ns);
        loop {
            let now = gen.origin().elapsed();
            if now >= at {
                break;
            }
            std::thread::sleep(at - now);
        }
        late_ms.push((gen.origin().elapsed() - at).as_secs_f64() * 1e3);
        let args = vec![Value::Int(due.key as i64), Value::Int(due.delta)];
        match spanned(&mut spans, "runtime.try_submit", || {
            cluster.try_submit(due.site, due.class, procs.add, args)
        }) {
            Ok(id) => accepted.push((due.site, id.seq, due.at_ns)),
            Err(_) => refused += 1,
        }
    }
    let load_secs = gen.secs();
    let report = spanned(&mut spans, "runtime.shutdown", || cluster.shutdown(SHUTDOWN));
    let cpu_secs = measure::cpu_seconds() - cpu0;

    // Origin-commit instants are on the cluster's clock (zero = `anchor`);
    // due instants are on the generator's (zero = `gen`).
    let offset_ns = gen.origin().duration_since(anchor.origin()).as_nanos() as f64;
    let mut commit_at: Vec<Vec<Option<u64>>> = Vec::new();
    for site in SiteId::all(report.dbs.len()) {
        let mut by_seq = Vec::new();
        for (seq, at) in probe.commits(site) {
            let seq = seq as usize;
            if by_seq.len() <= seq {
                by_seq.resize(seq + 1, None);
            }
            by_seq[seq] = Some(at.as_nanos());
        }
        commit_at.push(by_seq);
    }
    let mut latencies = Vec::with_capacity(accepted.len());
    for (site, seq, due_ns) in &accepted {
        let Some(at) = commit_at[site.index()].get(*seq as usize).copied().flatten() else {
            return Err(format!(
                "request {site}:{seq} was accepted but never committed at its origin"
            ));
        };
        latencies.push((*due_ns, (at as f64 - offset_ns - *due_ns as f64) / 1e6));
    }
    Ok(Loaded {
        report,
        attempted: schedule.len() as u64,
        refused,
        latencies,
        late_ms,
        cpu_secs,
        load_secs,
    })
}

/// The correctness gate of one loaded run.
fn check(l: &Loaded) -> Result<(), String> {
    let r = &l.report;
    if !r.converged {
        return Err("sites did not converge to the same committed state".into());
    }
    if !r.quiesced || r.undelivered_at_stop != 0 {
        return Err(format!(
            "shutdown did not quiesce (quiesced {}, {} wires undelivered)",
            r.quiesced, r.undelivered_at_stop
        ));
    }
    let inv = crate::check_bundle(r.run_histories(), &[]);
    if !inv.is_ok() {
        return Err(format!("invariant bundle failed: {inv}"));
    }
    if r.accepted + l.refused != l.attempted {
        return Err(format!(
            "accounting: {} accepted + {} refused != {} attempted",
            r.accepted, l.refused, l.attempted
        ));
    }
    if let Some((s, c)) = r.committed.iter().enumerate().find(|(_, c)| c.len() as u64 != r.accepted)
    {
        return Err(format!("site {s} committed {} of {} accepted requests", c.len(), r.accepted));
    }
    if l.latencies.len() as u64 != r.accepted {
        return Err(format!(
            "{} origin commits for {} accepted requests",
            l.latencies.len(),
            r.accepted
        ));
    }
    Ok(())
}

/// The `q`-quantile of each [`WINDOW`] of due time.
fn window_quantiles(latencies: &[(u64, f64)], q: f64) -> Vec<f64> {
    let width = WINDOW.as_nanos() as u64;
    let mut per_window = Vec::new();
    let mut i = 0;
    while i < latencies.len() {
        let w = latencies[i].0 / width;
        let mut samples = Vec::new();
        while i < latencies.len() && latencies[i].0 / width == w {
            samples.push(latencies[i].1);
            i += 1;
        }
        per_window.push(measure::quantile(&mut samples, q));
    }
    per_window
}

/// Runs `spec` under `args`.
pub fn run(spec: &LiveSpec, args: &RunArgs) -> Result<Outcome, String> {
    let (_, procs) = StandardProcs::registry();
    if args.trace {
        return traced(spec, args, &procs);
    }
    // Short sessions, each on a fresh cluster with its own schedule. The
    // host may steal the CPUs for seconds at a time, which stalls every
    // thread of the run; the figures come from the least-stolen sessions.
    let budget = args.seconds * spec.load_share;
    let session = SESSION.as_secs_f64().min(budget);
    let max_sessions = ((budget / session).floor() as usize).max(1);
    let mut setups = Vec::new();
    let mut sessions: Vec<(f64, Loaded)> = Vec::new();
    for i in 0..max_sessions {
        let s = start(spec, crate::sub_seed(args.seed, i), Duration::from_secs_f64(session), None);
        setups.push(s.setup_secs);
        let host0 = measure::host_cpu_ticks();
        let l = load(s, &procs, None)?;
        let steal = measure::steal_share(host0, measure::host_cpu_ticks());
        check(&l)?;
        sessions.push((steal, l));
        if sessions.iter().filter(|(steal, _)| *steal < MAX_STEAL).count() >= KEEP_SESSIONS {
            break;
        }
    }
    while setups.len() < SETUP_SAMPLES {
        let s = start(spec, args.seed, Duration::from_secs_f64(session), None);
        setups.push(s.setup_secs);
        drop(s.cluster.shutdown(SHUTDOWN));
    }
    let run = sessions.len();
    let mut steals: Vec<f64> = sessions.iter().map(|(steal, _)| *steal).collect();
    sessions.sort_by(|a, b| a.0.total_cmp(&b.0));
    sessions.truncate(KEEP_SESSIONS);

    let (mut p50s, mut p99s, mut cpus) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut committed, mut load_secs) = (0, 0, 0.0);
    let (mut all, mut late) = (Vec::new(), Vec::new());
    for (_, l) in &sessions {
        p50s.extend(window_quantiles(&l.latencies, 0.5));
        p99s.extend(window_quantiles(&l.latencies, 0.99));
        cpus.push(l.cpu_secs * 1e6 / l.latencies.len().max(1) as f64);
        attempted += l.attempted;
        committed += l.latencies.len() as u64;
        load_secs += l.load_secs;
        all.extend(l.latencies.iter().map(|x| x.1));
        late.extend(&l.late_ms);
    }
    let mut out = Outcome { attempted, failed: attempted - committed, ..Outcome::default() };
    out.push("commit_p50_ms", measure::median(&mut p50s));
    out.push("commit_p99_ms", measure::median(&mut p99s));
    out.push("throughput_tps", committed as f64 / load_secs);
    out.push("cpu_us_per_commit", measure::median(&mut cpus));
    out.push("setup_s", measure::median(&mut setups));
    out.push("peak_rss_mb", measure::peak_rss_mb());
    out.notes.push(format!(
        "kept sessions: CPU µs per commit {:?}; p99 ms {:?}",
        sessions
            .iter()
            .map(|(_, l)| (l.cpu_secs * 1e6 / l.latencies.len().max(1) as f64).round())
            .collect::<Vec<_>>(),
        sessions
            .iter()
            .map(|(_, l)| {
                let mut v: Vec<f64> = l.latencies.iter().map(|x| x.1).collect();
                (measure::quantile(&mut v, 0.99) * 100.0).round() / 100.0
            })
            .collect::<Vec<_>>()
    ));
    out.notes.push(format!(
        "{}: kept the {} least-stolen of {run} sessions ({attempted} requests over {load_secs:.2} s at {} req/s offered); host steal per session {:?}; run-wide p50 {:.3} ms, p99 {:.3} ms; generator late p99 {:.3} ms; {} threads available",
        spec.name,
        sessions.len(),
        spec.rate_tps,
        steals.iter_mut().map(|x| (*x * 1e3).round() / 1e3).collect::<Vec<_>>(),
        measure::quantile(&mut all.clone(), 0.5),
        measure::quantile(&mut all, 0.99),
        measure::quantile(&mut late, 0.99),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));
    Ok(out)
}

fn traced(spec: &LiveSpec, args: &RunArgs, procs: &StandardProcs) -> Result<Outcome, String> {
    let window = Duration::from_secs_f64(args.seconds * spec.load_share / 2.0);
    let plain = load(start(spec, args.seed, window, None), procs, None)?;
    check(&plain)?;
    let plain_us = plain.cpu_secs * 1e6 / plain.latencies.len().max(1) as f64;

    let sink = Arc::new(MemSink::new());
    let mut spans = Spans::new();
    let root = spans.enter("live.run");
    let started =
        spans.time("runtime.start", || start(spec, args.seed, window, Some(sink.clone())));
    let traced = load(started, procs, Some(&mut spans))?;
    spans.exit(root);
    check(&traced)?;
    let commits = traced.latencies.len().max(1) as f64;
    let traced_us = traced.cpu_secs * 1e6 / commits;
    let events = sink.events();
    let fold = tracefold::fold(&events);
    let stages = stage_breakdown(&sink);
    let stage_ms =
        |id: &str| stages.iter().find(|s| s.stage == id).map_or(0.0, |s| s.p50_ns as f64 / 1e6);
    let mut submit_us = spans.durations_us("runtime.try_submit");

    // Opt- versus TO-delivery order per site, as the trace recorded them.
    let (mut mismatched, mut positions) = (0u64, 0u64);
    for site in SiteId::all(spec.sites) {
        let order = |stage: Stage| -> Vec<(SiteId, u64)> {
            events
                .iter()
                .filter(|e| e.site == site && e.stage == stage)
                .map(|e| (e.origin, e.seq))
                .collect()
        };
        let (opt, to) = (order(Stage::OptDeliver), order(Stage::ToDeliver));
        mismatched += crate::replay::out_of_order(&opt, &to);
        positions += to.len() as u64;
    }

    let counters = &traced.report.counters;
    let per_commit = |name: &str| counters.get(name) as f64 / commits;
    let mut late = plain.late_ms.clone();
    let mut out = Outcome {
        attempted: plain.attempted,
        failed: plain.attempted - plain.latencies.len() as u64,
        ..Outcome::default()
    };
    out.push("broadcast.order_mismatch_frac", mismatched as f64 / positions.max(1) as f64);
    out.push("broadcast.to_lag_p50_ms", fold.to_lag_p50_ms);
    out.push("replica.reorders_per_commit", per_commit("reorder"));
    out.push("replica.aborts_per_commit", per_commit("abort"));
    out.push("replica.stale_exec_per_commit", per_commit("stale_exec_done"));
    out.push("replica.queue_wait_p50_ms", fold.queue_wait_p50_ms);
    out.push("runtime.submit_us_p50", measure::quantile(&mut submit_us, 0.5));
    out.push("runtime.submit_us_p99", measure::quantile(&mut submit_us, 0.99));
    out.push("runtime.refused_frac", plain.refused as f64 / plain.attempted.max(1) as f64);
    out.push("runtime.opt_deliver_p50_ms", stage_ms("opt_deliver"));
    out.push("runtime.to_deliver_p50_ms", stage_ms("to_deliver"));
    out.push("runtime.execute_p50_ms", stage_ms("execute"));
    out.push("telemetry.trace_overhead_frac", traced_us / plain_us - 1.0);
    out.push("telemetry.events_per_commit", events.len() as f64 / commits);
    out.push("loadgen.late_p99_ms", measure::quantile(&mut late, 0.99));
    let commits_all = (counters.get("commit") + counters.get("abort")).max(1) as f64;
    out.push("e2e.abort_rate", counters.get("abort") as f64 / commits_all);
    out.push("e2e.failed_frac", out.failed as f64 / out.attempted.max(1) as f64);
    out.notes.push(format!(
        "{}: untraced {plain_us:.1} µs/commit, traced {traced_us:.1} µs/commit over {} requests each",
        spec.name, plain.attempted
    ));
    out.fill_per_layer();
    tracefold::write_artifacts(spec.name, &spans, &events);
    Ok(out)
}
