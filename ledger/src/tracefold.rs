//! Reductions of the lifecycle trace: per-transaction, per-site waits
//! between stages, and the trace artifacts written when a run ends.

use crate::measure::{self, Spans};
use otp_simnet::{SimTime, SiteId};
use otp_telemetry::{Stage, TraceEvent};

/// Directory (relative to the working directory) the traced run writes to.
pub const TRACE_DIR: &str = ".ledger_trace";

/// Stage waits folded out of one trace.
#[derive(Debug, Clone, Default)]
pub struct Fold {
    /// Median Opt-delivery → TO-delivery lag at a site.
    pub to_lag_p50_ms: f64,
    /// Median Opt-delivery → first execution start at a site.
    pub queue_wait_p50_ms: f64,
    /// Median client submit → relay admission of a cross-group sub.
    pub relay_wait_p50_ms: f64,
    /// Every commit as `(site, instant)`, sorted.
    commits: Vec<(u16, u64)>,
}

impl Fold {
    /// First commit observed at `site` at or after `after`.
    pub fn first_commit_at(&self, site: SiteId, after: SimTime) -> Option<SimTime> {
        let from = self.commits.partition_point(|c| *c < (site.raw(), after.as_nanos()));
        self.commits.get(from).filter(|c| c.0 == site.raw()).map(|c| SimTime::from_nanos(c.1))
    }
}

/// Folds `events` into stage waits.
pub fn fold(events: &[TraceEvent]) -> Fold {
    // Sorted by (transaction, site, stage, instant): the first entry of
    // each (transaction, site, stage) run is that stage's first instant.
    let mut keyed: Vec<(u16, u64, u16, usize, u64)> = events
        .iter()
        .map(|e| (e.origin.raw(), e.seq, e.site.raw(), e.stage.rank(), e.at.as_nanos()))
        .collect();
    keyed.sort_unstable();
    let (mut to_lag, mut queue_wait, mut relay_wait) = (Vec::new(), Vec::new(), Vec::new());
    let mut commits = Vec::new();
    let mut i = 0;
    while i < keyed.len() {
        let (origin, seq) = (keyed[i].0, keyed[i].1);
        let mut j = i;
        while j < keyed.len() && (keyed[j].0, keyed[j].1) == (origin, seq) {
            j += 1;
        }
        let txn = &keyed[i..j];
        let submit = txn.iter().find(|e| e.2 == origin && e.3 == Stage::Submit.rank()).map(|e| e.4);
        let mut k = 0;
        while k < txn.len() {
            let site = txn[k].2;
            let mut first = [None; 9];
            while k < txn.len() && txn[k].2 == site {
                first[txn[k].3].get_or_insert(txn[k].4);
                if txn[k].3 == Stage::Commit.rank() {
                    commits.push((site, txn[k].4));
                }
                k += 1;
            }
            let at = |s: Stage| first[s.rank()];
            if let (Some(o), Some(t)) = (at(Stage::OptDeliver), at(Stage::ToDeliver)) {
                to_lag.push(t.saturating_sub(o) as f64 / 1e6);
            }
            if let (Some(o), Some(x)) = (at(Stage::OptDeliver), at(Stage::Execute)) {
                queue_wait.push(x.saturating_sub(o) as f64 / 1e6);
            }
            if let (Some(s), Some(r)) = (submit, at(Stage::RelayWait)) {
                relay_wait.push(r.saturating_sub(s) as f64 / 1e6);
            }
        }
        i = j;
    }
    commits.sort_unstable();
    Fold {
        to_lag_p50_ms: measure::median(&mut to_lag),
        queue_wait_p50_ms: measure::median(&mut queue_wait),
        relay_wait_p50_ms: measure::median(&mut relay_wait),
        commits,
    }
}

/// Writes the spans (JSONL) and the lifecycle events keyed by
/// transaction (CSV) of workload `name` under [`TRACE_DIR`]. A write
/// failure is reported and does not fail the run.
pub fn write_artifacts(name: &str, spans: &Spans, events: &[TraceEvent]) {
    let mut rows: Vec<(u16, u64, u64, u16, usize)> = events
        .iter()
        .map(|e| (e.origin.raw(), e.seq, e.at.as_nanos(), e.site.raw(), e.stage.rank()))
        .collect();
    rows.sort_unstable();
    let mut csv = String::with_capacity(rows.len() * 32 + 64);
    csv.push_str("origin,seq,at_ns,site,stage\n");
    let stages = Stage::all();
    for (origin, seq, at, site, rank) in rows {
        csv.push_str(&format!("{origin},{seq},{at},{site},{}\n", stages[rank].id()));
    }
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(TRACE_DIR)?;
        std::fs::write(format!("{TRACE_DIR}/{name}.spans.jsonl"), spans.jsonl())?;
        std::fs::write(format!("{TRACE_DIR}/{name}.events.csv"), csv)
    };
    if let Err(e) = write() {
        eprintln!("warning: could not write the trace of {name} to {TRACE_DIR}: {e}");
    }
}
