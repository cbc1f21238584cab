//! The two workloads over the deterministic simulated [`Cluster`].
//!
//! Latencies are on the simulated clock, so for a given seed and budget
//! they repeat exactly; what the wall clock measures is the CPU the code
//! spends producing them. A timed run repeats the same deterministic job
//! until the budget is spent, checks that every repetition produced the
//! identical simulated outcome, and reports the median CPU cost.

use crate::measure::{self, spanned, Spans, Stopwatch};
use crate::{replay, tracefold, Outcome, RunArgs};
use otp_core::{
    Cluster, ClusterBuilder, ClusterConfig, DurationDist, EngineKind, InvariantViolation, Mode,
    RunStats,
};
use otp_simnet::{NetConfig, SimDuration, SimRng, SimTime, SiteId};
use otp_storage::{ClassId, ObjectId, Value};
use otp_telemetry::{MemSink, TraceSink};
use otp_txn::txn::{TxnId, TxnRequest};
use otp_workload::{ClassSelection, StandardProcs};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// A crash of one site mid-run, recovered by state transfer.
#[derive(Debug, Clone, Copy)]
pub struct Crash {
    /// The site that crashes (never site 0, the recovery donor).
    pub site: SiteId,
    /// When, as a fraction of the load window (rounded to a whole ms).
    pub at_frac: f64,
    /// How long the site stays down before recovery starts.
    pub down: SimDuration,
}

/// One simulated workload.
#[derive(Debug, Clone)]
pub struct SimSpec {
    /// Workload name.
    pub name: &'static str,
    /// Sites.
    pub sites: usize,
    /// Conflict classes.
    pub classes: usize,
    /// Sequencing groups.
    pub groups: usize,
    /// Broadcast engine.
    pub engine: EngineKind,
    /// Replica algorithm.
    pub mode: Mode,
    /// LAN model of the whole cluster.
    pub net: NetConfig,
    /// LAN model of one group's segment (the ordering replay's network).
    pub group_net: NetConfig,
    /// Stored-procedure execution time.
    pub exec: SimDuration,
    /// Snapshot-query execution time.
    pub query_time: SimDuration,
    /// Class skew of the updates.
    pub selection: ClassSelection,
    /// Objects per class.
    pub keys_per_class: u64,
    /// Offered client requests per simulated second (Poisson arrivals).
    pub rate_tps: f64,
    /// Share of requests that are cross-group updates.
    pub cross_frac: f64,
    /// Share of requests that are group-local snapshot queries.
    pub query_frac: f64,
    /// Optional mid-run crash.
    pub crash: Option<Crash>,
    /// Interval between the benchmark's `collect_versions` calls.
    pub gc_every: SimDuration,
    /// Simulated load window of one repetition at full size (a budget of
    /// [`FULL_SIZE_BUDGET`] seconds or more): about 3 s of CPU on a 2-core
    /// x86-64 box. Smaller budgets shrink it in proportion.
    pub load: SimDuration,
}

/// Sites `0..sites` start with this balance in every object.
const INITIAL_BALANCE: i64 = 1_000;
/// Simulated time between the benchmark's feeding slices.
const SLICE: SimDuration = SimDuration::from_millis(1);
/// Feeding slice while waiting for the first commit after a crash: the
/// resolution of `outage_ms`.
const FINE_SLICE: SimDuration = SimDuration::from_micros(50);
/// Simulated time allowed for in-flight requests after the last arrival.
const DRAIN: SimDuration = SimDuration::from_secs(2);
/// Sub-jobs of a timed run, each generated from its own sub-seed.
const SUB_JOBS: usize = 5;
/// Setup is timed this many times per run; the median is reported.
const SETUP_SAMPLES: usize = 9;
/// Budget (seconds) from which repetitions run at full size.
pub const FULL_SIZE_BUDGET: f64 = 10.0;
/// Requests at the end of the load checked for liveness at every site.
const PROBES: usize = 8;

impl SimSpec {
    /// `sim-order16`: ordering dominates (see README.md).
    pub fn order16() -> Self {
        SimSpec {
            name: "sim-order16",
            sites: 16,
            classes: 16,
            groups: 1,
            engine: EngineKind::Opt { consensus_timeout: SimDuration::from_millis(20) },
            mode: Mode::Conservative,
            net: NetConfig::lan_fast(16),
            group_net: NetConfig::lan_fast(16),
            exec: SimDuration::from_micros(50),
            query_time: SimDuration::from_millis(2),
            selection: ClassSelection::Uniform,
            keys_per_class: 64,
            rate_tps: 8_000.0,
            cross_frac: 0.0,
            query_frac: 0.0,
            crash: Some(Crash {
                site: SiteId::new(5),
                at_frac: 0.4,
                down: SimDuration::from_millis(100),
            }),
            gc_every: SimDuration::from_millis(20),
            load: SimDuration::from_millis(800),
        }
    }

    /// `sim-contended`: replica, class queues and storage dominate.
    pub fn contended() -> Self {
        SimSpec {
            name: "sim-contended",
            sites: 8,
            classes: 16,
            groups: 2,
            engine: EngineKind::SequencerBatched { order_delay: SimDuration::from_millis(1) },
            mode: Mode::Otp,
            net: NetConfig::lan_10mbps(8),
            group_net: NetConfig::lan_10mbps(4),
            exec: SimDuration::from_micros(500),
            query_time: SimDuration::from_millis(2),
            selection: ClassSelection::HotSpot { hot_fraction: 0.125, hot_probability: 0.3 },
            keys_per_class: 32,
            rate_tps: 7_500.0,
            cross_frac: 0.1,
            query_frac: 0.1,
            crash: None,
            gc_every: SimDuration::from_millis(20),
            load: SimDuration::from_secs(6),
        }
    }

    /// The crash instant and recovery instant for a load window.
    pub fn crash_plan(&self, load: SimDuration) -> Option<(SiteId, SimTime, SimTime)> {
        self.crash.map(|c| {
            let at = SimTime::from_millis((load.as_secs_f64() * c.at_frac * 1e3).round() as u64);
            (c.site, at, at + c.down)
        })
    }
}

/// What a client request does.
#[derive(Debug, Clone)]
pub enum Kind {
    /// `add(key, delta)` in one class.
    Update {
        /// Conflict class.
        class: ClassId,
        /// Key within the class.
        key: u64,
        /// Amount added.
        delta: i64,
    },
    /// One `add` per group, serialized through the relay stream.
    Cross {
        /// `(class, key, delta)` per group.
        parts: Vec<(ClassId, u64, i64)>,
    },
    /// Snapshot read of objects of the submitting site's group.
    Query {
        /// Objects read.
        reads: Vec<ObjectId>,
    },
}

/// One generated client request.
#[derive(Debug, Clone)]
pub struct Req {
    /// Due time (simulated).
    pub at: SimTime,
    /// The site the client talks to.
    pub site: SiteId,
    /// What it asks for.
    pub kind: Kind,
}

/// Generates the request stream of `spec` for `load` of simulated time.
/// The same seed gives the same requests.
pub fn generate(spec: &SimSpec, seed: u64, load: SimDuration) -> Vec<Req> {
    let mut rng = SimRng::seed_from(seed);
    let sampler = spec.selection.sampler(spec.classes);
    let per_group = spec.sites / spec.groups;
    let classes_per_group = spec.classes / spec.groups;
    let class_of_group = |g: usize, rng: &mut SimRng| {
        ClassId::new((g + spec.groups * rng.index(classes_per_group)) as u32)
    };
    let mut out = Vec::with_capacity((spec.rate_tps * load.as_secs_f64() * 1.1) as usize);
    let mut t = 0.0f64;
    loop {
        t += rng.exponential(1.0 / spec.rate_tps);
        if t >= load.as_secs_f64() {
            break;
        }
        let at = SimTime::from_nanos((t * 1e9) as u64);
        let u = rng.uniform_f64();
        let (site, kind) = if u < spec.query_frac {
            let site = rng.index(spec.sites);
            let class = class_of_group(site / per_group, &mut rng);
            let reads = (0..2)
                .map(|_| ObjectId::new(class.raw(), rng.index(spec.keys_per_class as usize) as u64))
                .collect();
            (site, Kind::Query { reads })
        } else if u < spec.query_frac + spec.cross_frac {
            let parts = (0..spec.groups)
                .map(|g| {
                    let class = class_of_group(g, &mut rng);
                    (class, rng.index(spec.keys_per_class as usize) as u64, 1 + rng.index(9) as i64)
                })
                .collect();
            (rng.index(spec.sites), Kind::Cross { parts })
        } else {
            let class = sampler.pick(&mut rng);
            // Clients address a member of the class's group directly.
            let g = class.index() % spec.groups;
            let site = g * per_group + rng.index(per_group);
            let key = rng.index(spec.keys_per_class as usize) as u64;
            (site, Kind::Update { class, key, delta: 1 + rng.index(9) as i64 })
        };
        out.push(Req { at, site: SiteId::new(site as u16), kind });
    }
    out
}

/// The objects every site starts with.
pub fn initial_data(spec: &SimSpec) -> Vec<(ObjectId, Value)> {
    (0..spec.classes as u32)
        .flat_map(|c| {
            (0..spec.keys_per_class)
                .map(move |k| (ObjectId::new(c, k), Value::Int(INITIAL_BALANCE)))
        })
        .collect()
}

/// Builds the cluster of `spec` (tracing off unless a sink is given).
pub fn build(
    spec: &SimSpec,
    seed: u64,
    trace: Option<Arc<dyn TraceSink>>,
) -> (Cluster, StandardProcs) {
    let (registry, procs) = StandardProcs::registry();
    let config = ClusterConfig::new(spec.sites, spec.classes)
        .with_engine(spec.engine)
        .with_mode(spec.mode)
        .with_net(spec.net.clone())
        .with_exec_time(DurationDist::Fixed(spec.exec))
        .with_query_time(DurationDist::Fixed(spec.query_time))
        .with_groups(spec.groups)
        .with_seed(seed);
    let mut builder =
        ClusterBuilder::from_config(config).registry(registry).initial_data(initial_data(spec));
    if let Some(sink) = trace {
        builder = builder.trace_sink(sink);
    }
    (builder.build(), procs)
}

/// The ids the cluster gave one request.
#[derive(Debug, Clone)]
pub enum Ids {
    /// A single-class update.
    Txn(TxnId),
    /// The sub-transactions of a cross-group update, in part order.
    Cross(Vec<TxnId>),
    /// A query.
    Query(TxnId),
}

/// One driven run.
pub struct Driven {
    /// The cluster after the drain.
    pub cluster: Cluster,
    /// Ids per request, in request order.
    pub ids: Vec<Ids>,
    /// Seconds spent in `collect_versions` (wall time around each call;
    /// the simulated driver is single-threaded).
    pub gc_secs: f64,
    /// Versions dropped by `collect_versions`.
    pub gc_dropped: u64,
    /// Crash → first origin commit of a request submitted after it.
    pub outage: Option<SimDuration>,
    /// When recovery was scheduled to start and when the site served again.
    pub recovery: Option<(SiteId, SimTime, SimTime)>,
    /// Updates checked for liveness at every live site of their group.
    pub probes: Vec<TxnId>,
    /// Process CPU seconds of the whole drive.
    pub cpu_secs: f64,
}

fn submit(cluster: &mut Cluster, procs: &StandardProcs, req: &Req, site: SiteId) -> Ids {
    let args = |key: u64, delta: i64| vec![Value::Int(key as i64), Value::Int(delta)];
    match &req.kind {
        Kind::Update { class, key, delta } => {
            Ids::Txn(cluster.schedule_update(req.at, site, *class, procs.add, args(*key, *delta)))
        }
        Kind::Cross { parts } => Ids::Cross(cluster.schedule_cross_update(
            req.at,
            site,
            parts.iter().map(|(c, k, d)| (*c, procs.add, args(*k, *d))).collect(),
        )),
        Kind::Query { reads } => Ids::Query(cluster.schedule_query(req.at, site, reads.clone())),
    }
}

/// Feeds `reqs` into `cluster` slice by slice, calling
/// `collect_versions` every `spec.gc_every`, then drains.
pub fn drive(
    spec: &SimSpec,
    reqs: &[Req],
    mut cluster: Cluster,
    procs: &StandardProcs,
    load: SimDuration,
    mut spans: Option<&mut Spans>,
) -> Driven {
    let cpu0 = measure::cpu_seconds();
    let plan = spec.crash_plan(load);
    if let Some((site, at, recover)) = plan {
        cluster.schedule_crash(at, site);
        cluster.schedule_recover(recover, site, SiteId::new(0));
    }
    let end = SimTime::ZERO + load;
    let mut ids = Vec::with_capacity(reqs.len());
    let (mut gc_secs, mut gc_dropped) = (0.0, 0u64);
    let mut next_gc = SimTime::ZERO + spec.gc_every;
    let mut post_crash: Vec<TxnId> = Vec::new();
    let mut outage = None;
    let mut served_again = None;
    let mut t = SimTime::ZERO;
    let mut next = 0;
    while t < end {
        let waiting = plan.is_some_and(|(_, at, _)| t >= at) && outage.is_none();
        let stop = t + if waiting { FINE_SLICE } else { SLICE };
        while next < reqs.len() && reqs[next].at < stop {
            let req = &reqs[next];
            // Clients of a down site are sent to the next site.
            let site = if cluster.is_live(req.site) {
                req.site
            } else {
                SiteId::new(((req.site.index() + 1) % spec.sites) as u16)
            };
            let id = submit(&mut cluster, procs, req, site);
            if let (true, Ids::Txn(txn)) = (waiting, &id) {
                post_crash.push(*txn);
            }
            ids.push(id);
            next += 1;
        }
        spanned(&mut spans, "cluster.run_until", || cluster.run_until(stop));
        if waiting && post_crash.iter().any(|id| cluster.txn_outputs.contains_key(id)) {
            let (_, at, _) = plan.expect("waiting implies a crash plan");
            outage = Some(stop.saturating_since(at));
        }
        if let Some((site, _, recover)) = plan {
            if served_again.is_none() && stop > recover && cluster.is_live(site) {
                served_again = Some(stop);
            }
        }
        if stop >= next_gc {
            let sw = Stopwatch::start();
            gc_dropped +=
                spanned(&mut spans, "storage.collect_versions", || cluster.collect_versions())
                    as u64;
            gc_secs += sw.secs();
            next_gc += spec.gc_every;
        }
        t = stop;
    }
    // A recovery still pending when the load ends is watched through the
    // drain, slice by slice.
    if let Some((site, _, recover)) = plan {
        while served_again.is_none() && t < end + DRAIN {
            let stop = t + SLICE;
            spanned(&mut spans, "cluster.run_until", || cluster.run_until(stop));
            if stop > recover && cluster.is_live(site) {
                served_again = Some(stop);
            }
            t = stop;
        }
    }
    spanned(&mut spans, "cluster.run_until", || cluster.run_until(end + DRAIN));
    let recovery = plan.zip(served_again).map(|((site, _, recover), back)| (site, recover, back));
    // Liveness probes: the last updates submitted once every site served
    // (none when the crashed site came back only after the load).
    let quiet_from = match plan {
        None => Some(SimTime::ZERO),
        Some(_) => served_again,
    };
    let probes = reqs
        .iter()
        .zip(&ids)
        .rev()
        .filter(|(req, _)| quiet_from.is_some_and(|q| req.at >= q))
        .filter_map(|(_, ids)| if let Ids::Txn(id) = ids { Some(*id) } else { None })
        .take(PROBES)
        .collect();
    Driven {
        cluster,
        ids,
        gc_secs,
        gc_dropped,
        outage,
        recovery,
        probes,
        cpu_secs: measure::cpu_seconds() - cpu0,
    }
}

/// Committed requests of a driven run: updates and cross-group updates
/// committed at their origin (every sub), queries answered. A request
/// whose origin crashed before committing it counts when site 0 (the
/// recovery donor, which never crashes) committed it: its client learns
/// the outcome from the site it was sent to.
pub fn committed(d: &Driven) -> u64 {
    let c = &d.cluster;
    let crashed = d.recovery.map(|(site, _, _)| site);
    let at_donor: BTreeSet<TxnId> = match crashed {
        Some(_) => c.replicas[0].commit_log().iter().map(|(id, _)| *id).collect(),
        None => BTreeSet::new(),
    };
    let done = |id: &TxnId| {
        c.txn_outputs.contains_key(id) || (Some(id.origin) == crashed && at_donor.contains(id))
    };
    d.ids
        .iter()
        .filter(|ids| match ids {
            Ids::Txn(id) => done(id),
            Ids::Cross(subs) => subs.iter().all(done),
            Ids::Query(q) => c.query_results.contains_key(q),
        })
        .count() as u64
}

/// The correctness gate of one driven run.
pub fn check(d: &Driven) -> Result<(), String> {
    let c = &d.cluster;
    if !c.converged() {
        return Err("sites did not converge to the same committed state".into());
    }
    let report = crate::check_bundle(c.run_histories(), &d.probes);
    let strict: Vec<&InvariantViolation> = report
        .violations
        .iter()
        .filter(|v| !matches!(v, InvariantViolation::CrossOrderMismatch { .. }))
        .collect();
    if !strict.is_empty() {
        return Err(format!("invariant bundle failed: {report}"));
    }
    if report.violations.len() > strict.len() {
        // The bundle compares cross-group transactions in *commit* order.
        // In OTP mode a group with several classes commits non-conflicting
        // subs out of their definitive order, so that comparison also
        // flags runs the relay serialized correctly. What the relay
        // guarantees is the definitive order; every such report is
        // re-checked on it and fails the run if it holds there too.
        cross_order_in_definitive_order(c)?;
    }
    // The cluster's own completion count must match the benchmark's
    // per-request view of the same run.
    let stats = c.stats();
    let by_id: u64 = d
        .ids
        .iter()
        .map(|ids| match ids {
            Ids::Txn(id) => c.txn_outputs.contains_key(id) as u64,
            Ids::Cross(subs) => {
                subs.iter().filter(|id| c.txn_outputs.contains_key(id)).count() as u64
            }
            Ids::Query(_) => 0,
        })
        .sum();
    if stats.completed != by_id {
        return Err(format!(
            "accounting: the cluster counts {} origin commits, its outputs show {by_id}",
            stats.completed
        ));
    }
    let queries = d
        .ids
        .iter()
        .filter(|i| matches!(i, Ids::Query(q) if c.query_results.contains_key(q)))
        .count();
    if stats.query_latency.len() != queries {
        return Err(format!(
            "accounting: {} query latencies for {queries} answered queries",
            stats.query_latency.len()
        ));
    }
    Ok(())
}

/// Every pair of live sites must agree on the relative definitive order
/// of the cross-group transactions both committed.
fn cross_order_in_definitive_order(c: &Cluster) -> Result<(), String> {
    let run = c.run_histories();
    let seqs: Vec<(SiteId, Vec<u64>)> = run
        .live
        .iter()
        .map(|s| {
            let mut log = run.commit_logs[s.index()].clone();
            log.sort_by_key(|(_, index)| *index);
            (*s, log.iter().filter_map(|(txn, _)| run.cross_of.get(txn).copied()).collect())
        })
        .collect();
    for (i, (site, seq)) in seqs.iter().enumerate() {
        for (other, other_seq) in &seqs[i + 1..] {
            let theirs: BTreeSet<u64> = other_seq.iter().copied().collect();
            let shared: BTreeSet<u64> =
                seq.iter().filter(|x| theirs.contains(x)).copied().collect();
            let a: Vec<u64> = seq.iter().filter(|x| shared.contains(x)).copied().collect();
            let b: Vec<u64> = other_seq.iter().filter(|x| shared.contains(x)).copied().collect();
            if a != b {
                return Err(format!(
                    "cross-group transactions in another definitive order at {site} than at {other}"
                ));
            }
        }
    }
    Ok(())
}

/// The simulated outcome a repetition must reproduce exactly.
fn digest(stats: &RunStats, committed: u64) -> [u64; 7] {
    let mut lat = stats.commit_latency.clone();
    [
        stats.completed,
        committed,
        lat.quantile(0.5).as_nanos(),
        lat.quantile(0.99).as_nanos(),
        stats.counters.get("abort"),
        stats.network_frames,
        stats.now.as_nanos(),
    ]
}

fn ms(d: SimDuration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `spec` under `args`.
pub fn run(spec: &SimSpec, args: &RunArgs) -> Result<Outcome, String> {
    let load = spec.load.mul_f64((args.seconds / FULL_SIZE_BUDGET).min(1.0));
    if args.trace {
        traced(spec, args, load)
    } else {
        timed(spec, args, load)
    }
}

fn setup(
    spec: &SimSpec,
    seed: u64,
    load: SimDuration,
    trace: Option<Arc<dyn TraceSink>>,
) -> (Vec<Req>, Cluster, StandardProcs) {
    let reqs = generate(spec, seed, load);
    let (cluster, procs) = build(spec, seed, trace);
    (reqs, cluster, procs)
}

/// What one execution of a sub-job measured.
struct Job {
    digest: [u64; 7],
    attempted: u64,
    committed: u64,
    p50_ms: f64,
    p99_ms: f64,
    throughput: f64,
    abort_rate: f64,
    cpu_us: f64,
    secs: f64,
}

/// Sets up and drives sub-job `seed` once; the first execution of a
/// sub-job also passes the correctness gate.
fn job(
    spec: &SimSpec,
    seed: u64,
    load: SimDuration,
    gate: bool,
    setups: &mut Vec<f64>,
) -> Result<Job, String> {
    let sw = Stopwatch::start();
    let (reqs, cluster, procs) = setup(spec, seed, load, None);
    setups.push(sw.secs());
    let d = drive(spec, &reqs, cluster, &procs, load, None);
    let secs = sw.secs();
    if gate {
        check(&d)?;
    }
    let stats = d.cluster.stats();
    let committed = committed(&d);
    let mut lat = stats.commit_latency.clone();
    Ok(Job {
        digest: digest(&stats, committed),
        attempted: reqs.len() as u64,
        committed,
        p50_ms: ms(lat.quantile(0.5)),
        p99_ms: ms(lat.quantile(0.99)),
        throughput: stats.completed as f64 / load.as_secs_f64(),
        abort_rate: stats.abort_rate(),
        cpu_us: d.cpu_secs * 1e6 / stats.completed.max(1) as f64,
        secs,
    })
}

fn timed(spec: &SimSpec, args: &RunArgs, load: SimDuration) -> Result<Outcome, String> {
    let budget = Stopwatch::start();
    let mut setups = Vec::new();
    // A fixed set of sub-jobs, each from its own sub-seed, sets the
    // simulated-clock figures: medians over sub-jobs, so one crash or one
    // unlucky arrival pattern moves one sub-job, and the figures depend
    // only on the seed.
    let mut jobs = Vec::with_capacity(SUB_JOBS);
    for k in 0..SUB_JOBS {
        jobs.push(job(spec, crate::sub_seed(args.seed, k), load, true, &mut setups)?);
    }
    // The rest of the budget repeats them round robin: more CPU samples,
    // and each repetition must reproduce its sub-job exactly.
    let mut cpu: Vec<f64> = jobs.iter().map(|j| j.cpu_us).collect();
    let longest = jobs.iter().map(|j| j.secs).fold(0.0, f64::max);
    let mut k = 0;
    while budget.secs() + longest <= args.seconds {
        let again = job(spec, crate::sub_seed(args.seed, k), load, false, &mut setups)?;
        if again.digest != jobs[k].digest {
            return Err(format!(
                "sub-job {k} diverged on repetition: {:?} != {:?}",
                again.digest, jobs[k].digest
            ));
        }
        cpu.push(again.cpu_us);
        k = (k + 1) % SUB_JOBS;
    }
    while setups.len() < SETUP_SAMPLES {
        let sw = Stopwatch::start();
        let built = setup(spec, args.seed, load, None);
        setups.push(sw.secs());
        drop(built);
    }
    let attempted: u64 = jobs.iter().map(|j| j.attempted).sum();
    let committed: u64 = jobs.iter().map(|j| j.committed).sum();
    let mut out = Outcome { attempted, failed: attempted - committed, ..Outcome::default() };
    let of = |f: fn(&Job) -> f64| measure::median(&mut jobs.iter().map(f).collect::<Vec<_>>());
    out.push("commit_p50_ms", of(|j| j.p50_ms));
    out.push("commit_p99_ms", of(|j| j.p99_ms));
    out.push("throughput_tps", of(|j| j.throughput));
    out.push("cpu_us_per_commit", measure::median(&mut cpu));
    out.push("setup_s", measure::median(&mut setups));
    out.push("peak_rss_mb", measure::peak_rss_mb());
    out.notes.push(format!(
        "{}: {SUB_JOBS} sub-jobs of {:.3} s simulated at {} req/s offered, {} executions in all (each repetition identical); {attempted} requests, {} failed",
        spec.name,
        load.as_secs_f64(),
        spec.rate_tps,
        cpu.len(),
        out.failed
    ));
    out.notes.push(format!(
        "per sub-job p50 ms {:?}; p99 ms {:?}; abort rate {:?}",
        jobs.iter().map(|j| round3(j.p50_ms)).collect::<Vec<_>>(),
        jobs.iter().map(|j| round3(j.p99_ms)).collect::<Vec<_>>(),
        jobs.iter().map(|j| round3(j.abort_rate)).collect::<Vec<_>>()
    ));
    Ok(out)
}

fn round3(x: f64) -> f64 {
    (x * 1e3).round() / 1e3
}

/// Every request as the replica receives it, by transaction id.
fn request_map(reqs: &[Req], ids: &[Ids], procs: &StandardProcs) -> HashMap<TxnId, TxnRequest> {
    let args = |key: u64, delta: i64| vec![Value::Int(key as i64), Value::Int(delta)];
    let mut map = HashMap::with_capacity(reqs.len() * 2);
    for (req, ids) in reqs.iter().zip(ids) {
        match (&req.kind, ids) {
            (Kind::Update { class, key, delta }, Ids::Txn(id)) => {
                map.insert(*id, TxnRequest::new(*id, *class, procs.add, args(*key, *delta)));
            }
            (Kind::Cross { parts }, Ids::Cross(subs)) => {
                for ((class, key, delta), id) in parts.iter().zip(subs) {
                    map.insert(*id, TxnRequest::new(*id, *class, procs.add, args(*key, *delta)));
                }
            }
            _ => {}
        }
    }
    map
}

fn traced(spec: &SimSpec, args: &RunArgs, load: SimDuration) -> Result<Outcome, String> {
    // The traced run measures the timed run's first sub-job.
    let seed = crate::sub_seed(args.seed, 0);
    // The untraced reference: what the timed run measures.
    let (reqs, cluster, procs) = setup(spec, seed, load, None);
    let plain = drive(spec, &reqs, cluster, &procs, load, None);
    check(&plain)?;
    let stats = plain.cluster.stats();
    let commits = stats.completed.max(1) as f64;
    let full_us = plain.cpu_secs * 1e6 / commits;
    let gc_us = plain.gc_secs * 1e6 / commits;
    let attempted = reqs.len() as u64;
    let failed = attempted - committed(&plain);
    let want = digest(&stats, committed(&plain));
    drop(plain);

    // The traced run: lifecycle events plus the benchmark's spans.
    let sink = Arc::new(MemSink::new());
    let mut spans = Spans::new();
    let (reqs, cluster, procs) = setup(spec, seed, load, Some(sink.clone() as Arc<dyn TraceSink>));
    let root = spans.enter("sim.run");
    let traced = drive(spec, &reqs, cluster, &procs, load, Some(&mut spans));
    spans.exit(root);
    check(&traced)?;
    if digest(&traced.cluster.stats(), committed(&traced)) != want {
        return Err("the traced run diverged from the untraced run".into());
    }
    let events = sink.events();
    let fold = tracefold::fold(&events);

    let requests = request_map(&reqs, &traced.ids, &procs);
    let crash = spec.crash_plan(load).map(|(site, at, _)| {
        let back = traced.recovery.map_or(at, |(_, recover, _)| recover);
        (site, at, back)
    });
    let bcast = spans
        .time("broadcast.replay", || replay::broadcast(spec, seed, &events, &requests, crash))?;
    let skip = spec.crash.map(|c| c.site);
    let replica = spans.time("replica.replay", || {
        replay::replicas(spec, &events, &requests, &traced.cluster, skip)
    })?;
    let bcast_us = bcast.cpu_secs * 1e6 / commits;
    let replica_us = replica.cpu_secs * 1e6 / commits * spec.sites as f64 / replica.sites as f64;
    let residual_us = full_us - bcast_us - replica_us - gc_us;
    if residual_us < -0.05 * full_us {
        return Err(format!(
            "the layer replays ({bcast_us:.1} + {replica_us:.1} µs) plus GC ({gc_us:.1} µs) cost more than the full run ({full_us:.1} µs per commit)"
        ));
    }

    let counters = &stats.counters;
    let per_commit = |name: &str| counters.get(name) as f64 / commits;
    let traced_us = traced.cpu_secs * 1e6 / commits;
    let mut query = stats.query_latency.clone();
    let recover_ms = traced
        .recovery
        .and_then(|(site, recover, _)| {
            fold.first_commit_at(site, recover).map(|t| ms(t.saturating_since(recover)))
        })
        .unwrap_or(0.0);

    let mut out = Outcome { attempted, failed, ..Outcome::default() };
    out.push("broadcast.replay_us_per_msg", bcast.cpu_secs * 1e6 / bcast.msgs.max(1) as f64);
    out.push("broadcast.frames_per_commit", stats.network_frames as f64 / commits);
    out.push("broadcast.order_mismatch_frac", bcast.mismatch_frac);
    out.push("broadcast.to_lag_p50_ms", fold.to_lag_p50_ms);
    out.push("replica.replay_us_per_commit", replica_us);
    out.push("replica.reorders_per_commit", per_commit("reorder"));
    out.push("replica.aborts_per_commit", per_commit("abort"));
    out.push("replica.stale_exec_per_commit", per_commit("stale_exec_done"));
    out.push("replica.queue_wait_p50_ms", fold.queue_wait_p50_ms);
    out.push("storage.gc_us_per_commit", gc_us);
    out.push("storage.versions_dropped_per_commit", traced.gc_dropped as f64 / commits);
    out.push("cluster.residual_us_per_commit", residual_us);
    out.push("cluster.cross_group_frames_per_commit", stats.cross_group_frames as f64 / commits);
    out.push("cluster.relay_wait_p50_ms", fold.relay_wait_p50_ms);
    out.push("view.installs", counters.get("view_install") as f64);
    out.push("view.recover_to_first_commit_ms", recover_ms);
    out.push("telemetry.trace_overhead_frac", traced_us / full_us - 1.0);
    out.push("telemetry.events_per_commit", events.len() as f64 / commits);
    out.push("e2e.abort_rate", stats.abort_rate());
    out.push("e2e.failed_frac", failed as f64 / attempted.max(1) as f64);
    out.push("e2e.query_p50_ms", if query.is_empty() { 0.0 } else { ms(query.quantile(0.5)) });
    out.push("e2e.outage_ms", traced.outage.map_or(0.0, ms));
    out.notes.push(format!(
        "{}: full run {full_us:.1} µs/commit = ordering replay {bcast_us:.1} + replica replay {replica_us:.1} + GC {gc_us:.1} + residual {residual_us:.1}",
        spec.name
    ));
    out.notes.push(format!(
        "self-checks: ordering replay TO-delivered {} messages in one order at every site; replica replay matched the committed state of {} of {} sites",
        bcast.msgs, replica.sites, spec.sites
    ));
    out.fill_per_layer();
    crate::tracefold::write_artifacts(spec.name, &spans, &events);
    Ok(out)
}
