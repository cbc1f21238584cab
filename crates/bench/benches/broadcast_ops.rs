//! T2 — broadcast primitive costs: optimistic engine vs sequencer engine
//! message round (lock-step, no simulated latency), and one consensus
//! instance reaching a decision.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use otp_broadcast::{
    AtomicBroadcast, EngineAction, EngineCtx, OptAbcast, OptAbcastConfig, OrderDomain, SeqAbcast,
    Wire,
};
use otp_consensus::{Action, ConsensusMsg, Instance, InstanceConfig};
use otp_simnet::{SimDuration, SiteId};

/// Drives a set of engines until no wires remain (zero-latency lock-step).
fn pump<E: AtomicBroadcast<u32>>(
    engines: &mut [E],
    start: Vec<(SiteId, Option<SiteId>, Wire<u32>)>,
) {
    let n = engines.len();
    let domain = OrderDomain::global(n);
    let mut wires = start;
    while let Some((from, to, wire)) = wires.pop() {
        let targets: Vec<SiteId> = match to {
            Some(t) => vec![t],
            None => SiteId::all(n).collect(),
        };
        for t in targets {
            let ctx = EngineCtx::new(t, &domain);
            for a in engines[t.index()].on_receive(&ctx, from, wire.clone()) {
                match a {
                    EngineAction::Multicast(w) => wires.push((t, None, w)),
                    EngineAction::Send(d, w) => wires.push((t, Some(d), w)),
                    _ => {}
                }
            }
        }
    }
}

fn opt_engines(n: usize) -> Vec<OptAbcast<u32>> {
    let cfg = OptAbcastConfig::new(n, SimDuration::from_millis(50));
    (0..n).map(|_| OptAbcast::new(cfg)).collect()
}

fn seq_engines(n: usize) -> Vec<SeqAbcast<u32>> {
    (0..n).map(|_| SeqAbcast::new(SiteId::new(0))).collect()
}

fn bench_opt_round(c: &mut Criterion) {
    c.bench_function("broadcast/opt_abcast_10_msgs_4_sites", |b| {
        b.iter_batched(
            || opt_engines(4),
            |mut es| {
                let domain = OrderDomain::global(4);
                let mut wires = Vec::new();
                for k in 0..10u32 {
                    let me = SiteId::new((k % 4) as u16);
                    let (_, actions) = es[me.index()].broadcast(&EngineCtx::new(me, &domain), k);
                    for a in actions {
                        if let EngineAction::Multicast(w) = a {
                            wires.push((me, None, w));
                        }
                    }
                }
                pump(&mut es, wires);
                assert_eq!(es[0].definitive_log().len(), 10);
                es
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_seq_round(c: &mut Criterion) {
    c.bench_function("broadcast/seq_abcast_10_msgs_4_sites", |b| {
        b.iter_batched(
            || seq_engines(4),
            |mut es| {
                let domain = OrderDomain::global(4);
                let mut wires = Vec::new();
                for k in 0..10u32 {
                    let me = SiteId::new((k % 4) as u16);
                    let (_, actions) = es[me.index()].broadcast(&EngineCtx::new(me, &domain), k);
                    for a in actions {
                        if let EngineAction::Multicast(w) = a {
                            wires.push((me, None, w));
                        }
                    }
                }
                pump(&mut es, wires);
                assert_eq!(es[0].definitive_log().len(), 10);
                es
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_consensus_instance(c: &mut Criterion) {
    c.bench_function("broadcast/consensus_decide_5_sites", |b| {
        b.iter_batched(
            || {
                let cfg = InstanceConfig::new(5, SimDuration::from_millis(10));
                let mut instances = Vec::new();
                let mut msgs: Vec<(SiteId, SiteId, ConsensusMsg<u32>)> = Vec::new();
                for s in SiteId::all(5) {
                    let (inst, actions) = Instance::new(s, cfg, s.raw() as u32);
                    for a in actions {
                        match a {
                            Action::Send(to, m) => msgs.push((s, to, m)),
                            Action::Broadcast(m) => {
                                msgs.extend(SiteId::all(5).map(|to| (s, to, m.clone())));
                            }
                            _ => {}
                        }
                    }
                    instances.push(inst);
                }
                (instances, msgs)
            },
            |(mut instances, mut msgs)| {
                while let Some((from, to, m)) = msgs.pop() {
                    for a in instances[to.index()].on_message(from, m) {
                        match a {
                            Action::Send(d, m2) => msgs.push((to, d, m2)),
                            Action::Broadcast(m2) => {
                                for d in SiteId::all(5) {
                                    msgs.push((to, d, m2.clone()));
                                }
                            }
                            _ => {}
                        }
                    }
                }
                assert!(instances[0].decided().is_some());
                instances
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_opt_round, bench_seq_round, bench_consensus_instance
}
criterion_main!(benches);
