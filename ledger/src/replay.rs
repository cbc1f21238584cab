//! One layer alone, replayed through its public driver from a traced
//! full run: the ordering layer through
//! [`otp_broadcast::harness::LanCluster`], the execution layer through
//! [`Replica`] / [`ConservativeReplica`] fed the recorded Opt/TO orders.
//! Each replay checks that it did the same work as the full run.

use crate::measure;
use crate::sim::{self, SimSpec};
use otp_broadcast::harness::LanCluster;
use otp_broadcast::{AtomicBroadcast, OptAbcast, OptAbcastConfig, PayloadSize, SeqAbcast};
use otp_core::{
    Cluster, ConservativeReplica, CrossTag, EngineKind, ExecToken, Mode, Replica, ReplicaAction,
    TxnPayload,
};
use otp_simnet::{NetConfig, SimDuration, SimTime, SiteId};
use otp_storage::{ClassId, Database};
use otp_telemetry::{Stage, TraceEvent};
use otp_txn::txn::{TxnId, TxnRequest};
use otp_workload::StandardProcs;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

/// Simulated time the ordering replay runs past its last broadcast.
const DRAIN: SimDuration = SimDuration::from_secs(2);

/// Result of the ordering replay.
#[derive(Debug, Clone)]
pub struct BroadcastReplay {
    /// Process CPU seconds of the replay.
    pub cpu_secs: f64,
    /// Messages broadcast (every stream).
    pub msgs: u64,
    /// Share of TO-deliveries that overtook an earlier Opt-delivery
    /// ([`out_of_order`]).
    pub mismatch_frac: f64,
}

/// One broadcast to replay: when, from which member (index within its
/// stream), and what.
type Send = (SimTime, SiteId, TxnPayload);

fn txn_id(e: &TraceEvent) -> TxnId {
    TxnId::new(e.origin, e.seq)
}

/// Replays every ordering stream of the traced run alone: each group
/// stream gets the broadcasts the trace shows (client submits and relay
/// injections of cross-group subs, at the instant and member recorded),
/// the relay stream gets one descriptor per cross-group update, and a
/// crash of the full run is replayed at the same instants.
pub fn broadcast(
    spec: &SimSpec,
    seed: u64,
    events: &[TraceEvent],
    requests: &HashMap<TxnId, TxnRequest>,
    crash: Option<(SiteId, SimTime, SimTime)>,
) -> Result<BroadcastReplay, String> {
    let per_group = spec.sites / spec.groups;
    let mut streams: Vec<Vec<Send>> = vec![Vec::new(); spec.groups];
    // Cross-group subs: origin/instant of the client submit → its subs.
    let mut cross: BTreeMap<(u64, u16), Vec<Arc<TxnRequest>>> = BTreeMap::new();
    let cross_ids: BTreeSet<TxnId> =
        events.iter().filter(|e| e.stage == Stage::RelayWait).map(txn_id).collect();
    for e in events {
        let id = txn_id(e);
        let req = || Arc::new(requests.get(&id).expect("every traced txn was generated").clone());
        let g = e.group as usize;
        let member = SiteId::new((e.site.index() - g * per_group) as u16);
        match e.stage {
            Stage::Broadcast => {
                streams[g].push((e.at, member, TxnPayload::Txn { req: req(), cross: None }))
            }
            // The payload's cross id only labels the sub; it does not
            // change the frame size.
            Stage::RelayWait => {
                streams[g].push((e.at, member, TxnPayload::Txn { req: req(), cross: Some(0) }))
            }
            Stage::Submit if cross_ids.contains(&id) && e.site == e.origin => {
                let key = (e.at.as_nanos(), e.site.raw());
                cross.entry(key).or_default().push(req());
            }
            _ => {}
        }
    }
    let relay: Vec<Send> = cross
        .into_iter()
        .enumerate()
        .map(|(x, ((at, site), subs))| {
            (
                SimTime::from_nanos(at),
                SiteId::new(site),
                TxnPayload::Cross(Arc::new(CrossTag { cross: x as u64, subs })),
            )
        })
        .collect();

    let cpu0 = measure::cpu_seconds();
    let mut checked = Vec::new();
    for (g, sends) in streams.into_iter().enumerate() {
        let group_crash = crash
            .filter(|(s, _, _)| s.index() / per_group == g)
            .map(|(s, at, back)| (SiteId::new((s.index() - g * per_group) as u16), at, back));
        checked.push(match spec.engine {
            EngineKind::Opt { consensus_timeout } => {
                let cfg = OptAbcastConfig::new(per_group, consensus_timeout);
                replay_stream(
                    spec.group_net.clone(),
                    seed,
                    Box::new(move |_| OptAbcast::new(cfg)),
                    &sends,
                    group_crash,
                )
            }
            EngineKind::SequencerBatched { order_delay } => replay_stream(
                spec.group_net.clone(),
                seed,
                Box::new(move |_| SeqAbcast::new(SiteId::new(0)).with_order_batching(order_delay)),
                &sends,
                group_crash,
            ),
            EngineKind::Sequencer => replay_stream(
                spec.group_net.clone(),
                seed,
                Box::new(|_| SeqAbcast::new(SiteId::new(0))),
                &sends,
                group_crash,
            ),
            other => return Err(format!("no ordering replay for engine {other:?}")),
        });
    }
    if !relay.is_empty() {
        let net = NetConfig { sites: spec.sites, ..spec.net.clone() };
        checked.push(replay_stream(
            net,
            seed,
            Box::new(|_| SeqAbcast::new(SiteId::new(0))),
            &relay,
            None,
        ));
    }
    let cpu_secs = measure::cpu_seconds() - cpu0;
    let mut msgs = 0;
    let (mut mismatched, mut positions) = (0u64, 0u64);
    for c in checked {
        let c = c?;
        msgs += c.0;
        mismatched += c.1;
        positions += c.2;
    }
    Ok(BroadcastReplay {
        cpu_secs,
        msgs,
        mismatch_frac: mismatched as f64 / positions.max(1) as f64,
    })
}

/// Replays one stream; returns `(messages, mismatched positions,
/// positions)` after checking every site TO-delivered every message in
/// one order.
fn replay_stream<E: AtomicBroadcast<TxnPayload>>(
    net: NetConfig,
    seed: u64,
    factory: Box<dyn Fn(SiteId) -> E>,
    sends: &[Send],
    crash: Option<(SiteId, SimTime, SimTime)>,
) -> Result<(u64, u64, u64), String> {
    let sites = net.sites;
    let mut lan: LanCluster<TxnPayload, E> = LanCluster::new(net, seed, factory);
    let mut last = SimTime::ZERO;
    for (at, site, payload) in sends {
        let size = payload.size_bytes();
        lan.schedule_broadcast(*at, *site, payload.clone(), size);
        last = last.max(*at);
    }
    if let Some((site, at, back)) = crash {
        lan.schedule_crash(at, site);
        lan.schedule_recover(back, site, SiteId::new(0));
    }
    lan.run_until(last + DRAIN);
    let n = lan.broadcasts.len();
    if n != sends.len() {
        return Err(format!("ordering replay: {n} of {} broadcasts happened", sends.len()));
    }
    let (mut mismatched, mut positions) = (0u64, 0u64);
    for s in 0..sites {
        if lan.to_logs[s].len() != n || lan.to_logs[s] != lan.to_logs[0] {
            return Err(format!(
                "ordering replay: site {s} TO-delivered {} of {n} messages or in another order",
                lan.to_logs[s].len()
            ));
        }
        mismatched += out_of_order(&lan.opt_logs[s], &lan.to_logs[s]);
        positions += n as u64;
    }
    Ok((n as u64, mismatched, positions))
}

/// Messages TO-delivered ahead of an earlier Opt-delivered message that
/// was still undelivered: each is an order mismatch the replica has to
/// repair (one displaced message counts once, not once per shifted
/// position).
pub fn out_of_order<T: Ord + Copy>(opt: &[T], to: &[T]) -> u64 {
    let mut delivered = BTreeSet::new();
    let mut next = 0;
    let mut mismatched = 0;
    for m in to {
        while next < opt.len() && delivered.contains(&opt[next]) {
            next += 1;
        }
        if opt.get(next) != Some(m) {
            mismatched += 1;
        }
        delivered.insert(*m);
    }
    mismatched
}

/// Result of the execution replay.
#[derive(Debug, Clone)]
pub struct ReplicaReplay {
    /// Process CPU seconds of the replay.
    pub cpu_secs: f64,
    /// Sites replayed.
    pub sites: usize,
}

enum AnyRep {
    Otp(Replica),
    Conservative(ConservativeReplica),
}

impl AnyRep {
    fn opt(&mut self, r: TxnRequest) -> Vec<ReplicaAction> {
        match self {
            AnyRep::Otp(x) => x.on_opt_deliver(r),
            AnyRep::Conservative(x) => x.on_opt_deliver(r),
        }
    }
    fn to(&mut self, b: &[(TxnId, ClassId)]) -> Vec<ReplicaAction> {
        match self {
            AnyRep::Otp(x) => x.on_to_deliver_batch(b),
            AnyRep::Conservative(x) => x.on_to_deliver_batch(b),
        }
    }
    fn done(&mut self, t: ExecToken) -> Vec<ReplicaAction> {
        match self {
            AnyRep::Otp(x) => x.on_exec_done(t),
            AnyRep::Conservative(x) => x.on_exec_done(t),
        }
    }
    fn db(&self) -> &Database {
        match self {
            AnyRep::Otp(x) => x.db(),
            AnyRep::Conservative(x) => x.db(),
        }
    }
}

/// Feeds every site's replica the Opt- and TO-deliveries the trace
/// recorded there, in recorded order, completing each execution the
/// configured execution time after it started (the full run's fixed
/// execution time). Sites in `skip` (a crashed and restored site, whose
/// replica was replaced mid-run) are left out. Checks each replayed
/// replica ends in the full run's committed state.
pub fn replicas(
    spec: &SimSpec,
    events: &[TraceEvent],
    requests: &HashMap<TxnId, TxnRequest>,
    full: &Cluster,
    skip: Option<SiteId>,
) -> Result<ReplicaReplay, String> {
    let (registry, _) = StandardProcs::registry();
    let mut base = Database::new(spec.classes);
    for (oid, v) in sim::initial_data(spec) {
        base.load(oid, v);
    }
    let sites: Vec<SiteId> = SiteId::all(spec.sites).filter(|s| Some(*s) != skip).collect();
    let mut inputs: Vec<Vec<(SimTime, bool, TxnId)>> = vec![Vec::new(); spec.sites];
    for e in events {
        let opt = match e.stage {
            Stage::OptDeliver => true,
            Stage::ToDeliver => false,
            _ => continue,
        };
        inputs[e.site.index()].push((e.at, opt, txn_id(e)));
    }
    let mut reps: Vec<(SiteId, AnyRep)> = sites
        .iter()
        .map(|s| {
            let rep = match spec.mode {
                Mode::Otp => AnyRep::Otp(Replica::new(*s, base.clone(), registry.clone())),
                Mode::Conservative => AnyRep::Conservative(ConservativeReplica::new(
                    *s,
                    base.clone(),
                    registry.clone(),
                )),
            };
            (*s, rep)
        })
        .collect();

    let cpu0 = measure::cpu_seconds();
    for (site, rep) in reps.iter_mut() {
        let input = &inputs[site.index()];
        let mut running: VecDeque<(SimTime, ExecToken)> = VecDeque::new();
        let apply = |actions: Vec<ReplicaAction>,
                     now: SimTime,
                     running: &mut VecDeque<(SimTime, ExecToken)>| {
            for a in actions {
                if let ReplicaAction::StartExecution { token } = a {
                    running.push_back((now + spec.exec, token));
                }
            }
        };
        let mut i = 0;
        while i < input.len() {
            let (at, opt, id) = input[i];
            while let Some(&(done, token)) = running.front().filter(|(d, _)| *d <= at) {
                running.pop_front();
                let actions = rep.done(token);
                apply(actions, done, &mut running);
            }
            if opt {
                let req = requests.get(&id).expect("every traced txn was generated").clone();
                let actions = rep.opt(req);
                apply(actions, at, &mut running);
                i += 1;
            } else {
                let mut batch = Vec::new();
                while i < input.len() && !input[i].1 && input[i].0 == at {
                    let id = input[i].2;
                    batch.push((
                        id,
                        requests.get(&id).expect("every traced txn was generated").class,
                    ));
                    i += 1;
                }
                let actions = rep.to(&batch);
                apply(actions, at, &mut running);
            }
        }
        while let Some((done, token)) = running.pop_front() {
            let actions = rep.done(token);
            apply(actions, done, &mut running);
        }
    }
    let cpu_secs = measure::cpu_seconds() - cpu0;
    for (site, rep) in &reps {
        if !rep.db().committed_state_eq(full.replicas[site.index()].db()) {
            return Err(format!(
                "replica replay: site {site} ended in another committed state than the full run"
            ));
        }
    }
    Ok(ReplicaReplay { cpu_secs, sites: reps.len() })
}
