//! Delta view-change digests lose nothing a recovery needs.
//!
//! A view-change digest is a member's snapshot minus its own delivered
//! prefix (`EngineSnapshot::into_delta`); the recovering driver merges the
//! digests into a *full* local snapshot of the member with the longest
//! log. For random histories — every sender's log a prefix of that
//! primary's, as Global Order guarantees — restoring from
//! `primary ∪ delta digests` must be indistinguishable from restoring
//! from `primary ∪ full digests`: the same definitive log, the same
//! re-emitted Opt-deliveries, and, fed the same later wires, the same
//! TO-deliveries.

use otp_broadcast::harness::LanCluster;
use otp_broadcast::{
    AtomicBroadcast, EngineAction, EngineCtx, EngineSnapshot, MsgId, OptAbcast, OptAbcastConfig,
    OrderDomain, SeqAbcast, Wire,
};
use otp_simnet::{NetConfig, SimDuration, SimTime, SiteId};
use proptest::prelude::*;
use std::sync::Arc;

/// What a restored engine did: its definitive log right after the
/// restore, every Opt-delivery and every TO-delivery it emitted (restore
/// and later wires), and its final definitive log.
#[derive(Debug, PartialEq)]
struct Recovered {
    restored_log: Vec<MsgId>,
    opt: Vec<MsgId>,
    to: Vec<MsgId>,
    final_log: Vec<MsgId>,
}

fn recover<E: AtomicBroadcast<u64>>(
    mut fresh: E,
    ctx: &EngineCtx<'_>,
    snapshot: EngineSnapshot<u64>,
    later: &[(SiteId, Wire<u64>)],
) -> Recovered {
    let (mut opt, mut to) = (Vec::new(), Vec::new());
    let mut note = |actions: Vec<EngineAction<u64>>| {
        for a in actions {
            match a {
                EngineAction::OptDeliver(m) => opt.push(m.id),
                EngineAction::ToDeliver(ids) => to.extend(ids),
                _ => {}
            }
        }
    };
    note(fresh.restore(ctx, snapshot));
    let restored_log = fresh.definitive_log().to_vec();
    for (from, wire) in later {
        note(fresh.on_receive(ctx, *from, wire.clone()));
    }
    let final_log = fresh.definitive_log().to_vec();
    Recovered { restored_log, opt, to, final_log }
}

/// Runs `cluster` to `cut`, restores the recovering site `me` twice —
/// from the primary's full snapshot merged with every other member's full
/// snapshot, and merged with their delta digests — and compares both
/// restores, then feeds both the same later wires (built by `later` from
/// the primary's snapshot once the run has finished).
fn check_delta_equals_full<E: AtomicBroadcast<u64>>(
    mut cluster: LanCluster<u64, E>,
    me: SiteId,
    cut: SimTime,
    fresh: impl Fn() -> E,
    later: impl Fn(&EngineSnapshot<u64>) -> Vec<(SiteId, Wire<u64>)>,
) -> Result<(), TestCaseError> {
    let n = cluster.sites();
    cluster.run_until(cut);
    let others: Vec<SiteId> = SiteId::all(n).filter(|s| *s != me).collect();
    let primary = *others
        .iter()
        .max_by_key(|s| (cluster.engine(**s).definitive_log().len(), std::cmp::Reverse(**s)))
        .expect("at least two sites");
    let primary_log = cluster.engine(primary).definitive_log().to_vec();
    let mut full = cluster.engine(primary).snapshot();
    let mut delta = full.clone();
    for s in others.iter().filter(|s| **s != primary) {
        let log = cluster.engine(*s).definitive_log();
        prop_assert!(
            primary_log.starts_with(log),
            "{} is not a prefix of the primary {}",
            s,
            primary
        );
        full.merge(cluster.engine(*s).snapshot());
        delta.merge(cluster.engine(*s).snapshot().into_delta());
    }
    prop_assert_eq!(&delta, &full, "the primary already holds every dropped prefix");
    cluster.run_until(SimTime::from_secs(120));
    let later = later(&cluster.engine(primary).snapshot());
    let dom = OrderDomain::global(n);
    let ctx = EngineCtx::new(me, &dom);
    let from_full = recover(fresh(), &ctx, full, &later);
    let from_delta = recover(fresh(), &ctx, delta, &later);
    prop_assert_eq!(&from_delta, &from_full);
    prop_assert_eq!(&from_delta.final_log, cluster.engine(primary).definitive_log());
    Ok(())
}

/// Every payload the finished primary holds, as data wires from their
/// origins.
fn data_wires(done: &EngineSnapshot<u64>) -> Vec<(SiteId, Wire<u64>)> {
    done.received.iter().map(|m| (m.id.origin, Wire::Data(m.clone()))).collect()
}

/// A LAN of `n` sites with `msgs` broadcasts `spacing_us` apart, from
/// every site in turn, under jitter scaled by `jitter_scale`.
fn lan<E: AtomicBroadcast<u64>>(
    n: usize,
    seed: u64,
    msgs: usize,
    spacing_us: u64,
    jitter_scale: u64,
    factory: Box<dyn Fn(SiteId) -> E>,
) -> LanCluster<u64, E> {
    let net = NetConfig::lan_10mbps(n).with_jitter(
        SimDuration::from_micros(50 * jitter_scale),
        SimDuration::from_micros(80 * jitter_scale),
    );
    let mut cluster = LanCluster::new(net, seed, factory);
    let mut t = SimTime::from_millis(1);
    for k in 0..msgs {
        cluster.schedule_broadcast(t, SiteId::new((k % n) as u16), k as u64, 128);
        t += SimDuration::from_micros(spacing_us);
    }
    cluster
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Optimistic engine: later wires are every payload plus one decision
    /// help-out carrying every decided instance.
    #[test]
    fn prop_opt_delta_digest_restores_like_full(
        seed in 0u64..5_000,
        n in 3usize..6,
        msgs in 5usize..40,
        spacing_us in 100u64..2_000,
        jitter_scale in 1u64..6,
        cut_pct in 5u64..100,
        me_raw in 0u16..6,
    ) {
        let cfg = OptAbcastConfig::new(n, SimDuration::from_millis(60));
        let cluster = lan(n, seed, msgs, spacing_us, jitter_scale, Box::new(move |_| OptAbcast::new(cfg)));
        let span_us = msgs as u64 * spacing_us;
        let cut = SimTime::from_millis(1) + SimDuration::from_micros(span_us * cut_pct / 100);
        let me = SiteId::new(me_raw % n as u16);
        check_delta_equals_full(cluster, me, cut, || OptAbcast::new(cfg), |done| {
            let mut wires = data_wires(done);
            let decides =
                done.decided.iter().map(|(k, batch)| (*k, Arc::new(batch.clone()))).collect();
            wires.push((SiteId::new(0), Wire::DecideBatch { decides }));
            wires
        })?;
    }

    /// Sequencer engine (site 0 sequences; it is never the recovering
    /// site here): later wires are every payload plus every assignment.
    #[test]
    fn prop_seq_delta_digest_restores_like_full(
        seed in 0u64..5_000,
        n in 3usize..6,
        msgs in 5usize..40,
        spacing_us in 100u64..2_000,
        jitter_scale in 1u64..6,
        cut_pct in 5u64..100,
        me_raw in 1u16..6,
    ) {
        let seq = SiteId::new(0);
        let cluster = lan(n, seed, msgs, spacing_us, jitter_scale, Box::new(move |_| SeqAbcast::new(seq)));
        let span_us = msgs as u64 * spacing_us;
        let cut = SimTime::from_millis(1) + SimDuration::from_micros(span_us * cut_pct / 100);
        let me = SiteId::new(1 + me_raw % (n as u16 - 1));
        check_delta_equals_full(cluster, me, cut, || SeqAbcast::new(seq), |done| {
            let mut wires = data_wires(done);
            wires.extend(
                done.order_tags
                    .iter()
                    .map(|(id, seqno)| (seq, Wire::SeqOrder { epoch: 0, seqno: *seqno, id: *id })),
            );
            wires
        })?;
    }
}
