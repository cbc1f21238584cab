//! # otp-ledger — the OTP cost ledger
//!
//! One benchmark over both drivers of the OTP stack: the deterministic
//! simulated [`otp_core::Cluster`] and the threaded
//! [`otp_core::runtime::LiveCluster`]. A timed run (`--trace 0`) reports
//! the end-to-end metrics a client of the system sees; a traced run
//! (`--trace 1`) reports what each layer costs, measured from outside
//! the program: spans around the benchmark's own calls into each layer,
//! replays of one layer alone through its public driver, public counters,
//! and the lifecycle trace. See `README.md` in this directory for the
//! metric table and the reasoning behind each workload.
//!
//! Every run is also a correctness gate: convergence, the driver-agnostic
//! invariant bundle (1-copy serializability, uniform commit order),
//! quiescence of the threaded driver, and exact accounting of attempted
//! versus committed requests. A violation is an [`Err`], never numbers.

pub mod live;
pub mod measure;
pub mod replay;
pub mod sim;
pub mod tracefold;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
}

/// What one run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every metric of the run, in reporting order.
    pub metrics: Vec<Metric>,
    /// Client requests the load generator attempted.
    pub attempted: u64,
    /// Attempted requests that did not commit at their origin (refusals
    /// included).
    pub failed: u64,
    /// Free-form lines printed above the result (calibration inputs,
    /// self-check results).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Appends metric `name` (listed in [`END_TO_END`] or [`PER_LAYER`],
    /// which give its unit).
    pub fn push(&mut self, name: &str, value: f64) {
        let (name, unit) = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|(n, _)| *n == name)
            .copied()
            .unwrap_or_else(|| panic!("metric {name} is not in the metric tables"));
        self.metrics.push(Metric { name, value, unit });
    }

    /// Completes a traced run's metrics: every [`PER_LAYER`] metric in
    /// table order, 0 where the layer has no such work on this workload.
    pub fn fill_per_layer(&mut self) {
        self.metrics = PER_LAYER
            .iter()
            .map(|(name, unit)| Metric { name, unit, value: self.get(name).unwrap_or(0.0) })
            .collect();
    }

    /// The value of metric `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, num(m.value), m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust keeps (finite values only).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 16 sites, consensus engine, conservative mode, one crash.
    SimOrder16,
    /// 8 sites in 2 sequencing groups, OTP mode, hot-spot skew.
    SimContended,
    /// 4 threaded sites, consensus engine, OTP mode, open-loop load.
    LiveOtp4,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] =
        [Workload::SimOrder16, Workload::SimContended, Workload::LiveOtp4];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimOrder16 => "sim-order16",
            Workload::SimContended => "sim-contended",
            Workload::LiveOtp4 => "live-otp4",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Parameters of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Wall-clock measuring budget.
    pub seconds: f64,
    /// `false`: timed end-to-end run; `true`: traced per-layer run.
    pub trace: bool,
}

/// Runs one workload. `Err` carries a correctness violation.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    match args.workload {
        Workload::SimOrder16 => sim::run(&sim::SimSpec::order16(), args),
        Workload::SimContended => sim::run(&sim::SimSpec::contended(), args),
        Workload::LiveOtp4 => live::run(&live::LiveSpec::otp4(), args),
    }
}

/// Seed of sub-job (or session) `k` of a run seeded with `seed`.
pub fn sub_seed(seed: u64, k: usize) -> u64 {
    seed ^ ((k as u64) << 48)
}

/// Committed transactions per site the 1-copy-serializability check of
/// the invariant bundle covers. That check compares every pair of a
/// site's transactions, so its cost is quadratic in history length: a
/// full benchmark run (tens of thousands of commits per site) would take
/// minutes. It covers each site's first commits; every other check of the
/// bundle covers the whole run.
pub const SERIALIZABILITY_PREFIX: usize = 2_000;

/// Runs the driver-agnostic invariant bundle over `run`, with each site's
/// history cut to its first [`SERIALIZABILITY_PREFIX`] commits.
pub fn check_bundle(
    mut run: otp_core::RunHistories,
    probes: &[otp_txn::txn::TxnId],
) -> otp_core::InvariantReport {
    for h in &mut run.histories {
        h.truncate(SERIALIZABILITY_PREFIX);
    }
    otp_core::check_invariants(&run, probes)
}

/// End-to-end metrics and their units, in reporting order (`--trace 0`).
pub const END_TO_END: [(&str, &str); 6] = [
    ("commit_p50_ms", "ms"),
    ("commit_p99_ms", "ms"),
    ("throughput_tps", "1/s"),
    ("cpu_us_per_commit", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and their units, in reporting order (`--trace 1`).
pub const PER_LAYER: [(&str, &str); 29] = [
    ("broadcast.replay_us_per_msg", "us"),
    ("broadcast.frames_per_commit", "frames"),
    ("broadcast.order_mismatch_frac", "frac"),
    ("broadcast.to_lag_p50_ms", "ms"),
    ("replica.replay_us_per_commit", "us"),
    ("replica.reorders_per_commit", "count"),
    ("replica.aborts_per_commit", "count"),
    ("replica.stale_exec_per_commit", "count"),
    ("replica.queue_wait_p50_ms", "ms"),
    ("storage.gc_us_per_commit", "us"),
    ("storage.versions_dropped_per_commit", "count"),
    ("cluster.residual_us_per_commit", "us"),
    ("cluster.cross_group_frames_per_commit", "frames"),
    ("cluster.relay_wait_p50_ms", "ms"),
    ("view.installs", "count"),
    ("view.recover_to_first_commit_ms", "ms"),
    ("runtime.submit_us_p50", "us"),
    ("runtime.submit_us_p99", "us"),
    ("runtime.refused_frac", "frac"),
    ("runtime.opt_deliver_p50_ms", "ms"),
    ("runtime.to_deliver_p50_ms", "ms"),
    ("runtime.execute_p50_ms", "ms"),
    ("telemetry.trace_overhead_frac", "frac"),
    ("telemetry.events_per_commit", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("e2e.abort_rate", "frac"),
    ("e2e.failed_frac", "frac"),
    ("e2e.query_p50_ms", "ms"),
    ("e2e.outage_ms", "ms"),
];
