//! Adversarial message-level tests for the consensus instance: duplicated
//! and reordered traffic, late joiners, and byzantine-free worst-case
//! scheduling must never break agreement or validity.

use otp_consensus::{Action, ConsensusMsg, Instance, InstanceConfig};
use otp_simnet::{SimDuration, SimRng, SiteId};

type Msg = (SiteId, SiteId, ConsensusMsg<u32>);

/// Drives instances to quiescence with a mutable delivery policy.
struct Net {
    instances: Vec<Instance<u32>>,
    queue: Vec<Msg>,
    timers: Vec<(SiteId, u64)>,
}

impl Net {
    fn new(proposals: &[u32]) -> Self {
        let n = proposals.len();
        let cfg = InstanceConfig::new(n, SimDuration::from_millis(10));
        let mut net = Net { instances: Vec::new(), queue: Vec::new(), timers: Vec::new() };
        // Build every instance before absorbing any initial action: a
        // broadcast addresses `net.instances`, so a round-0 `Propose`
        // absorbed mid-construction would miss the later sites.
        let initial: Vec<_> = proposals
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let me = SiteId::new(i as u16);
                let (inst, actions) = Instance::new(me, cfg, p);
                net.instances.push(inst);
                (me, actions)
            })
            .collect();
        for (me, actions) in initial {
            net.absorb(me, actions);
        }
        net
    }

    fn absorb(&mut self, from: SiteId, actions: Vec<Action<u32>>) {
        for a in actions {
            match a {
                Action::Send(to, m) => self.queue.push((from, to, m)),
                Action::Broadcast(m) => {
                    for to in SiteId::all(self.instances.len()) {
                        self.queue.push((from, to, m.clone()));
                    }
                }
                Action::SetTimer { round, .. } => self.timers.push((from, round)),
                Action::Decided(_) => {}
            }
        }
    }

    fn deliver(&mut self, idx: usize) {
        let (from, to, m) = self.queue.remove(idx);
        let actions = self.instances[to.index()].on_message(from, m);
        self.absorb(to, actions);
    }

    fn decisions(&self) -> Vec<Option<u32>> {
        self.instances.iter().map(|i| i.decided().copied()).collect()
    }

    fn run_fifo(&mut self) {
        let mut guard = 0;
        while !self.queue.is_empty() {
            guard += 1;
            assert!(guard < 100_000);
            self.deliver(0);
        }
    }
}

#[test]
fn duplicated_messages_change_nothing() {
    // Deliver every message twice (each original is duplicated exactly
    // once — duplicating duplicates would be an infinite channel, which
    // even reliable channels do not model).
    let mut net = Net::new(&[7, 8, 9]);
    let mut delivered_once: Vec<Msg> = Vec::new();
    let mut guard = 0;
    while !net.queue.is_empty() {
        guard += 1;
        assert!(guard < 100_000);
        let msg = net.queue[0].clone();
        let fresh = !delivered_once.contains(&msg);
        if fresh {
            delivered_once.push(msg.clone());
            net.queue.insert(1, msg);
        }
        net.deliver(0);
    }
    let ds = net.decisions();
    assert!(ds.iter().all(Option::is_some), "{ds:?}");
    assert!(ds.iter().all(|d| *d == ds[0]));
    assert!([7, 8, 9].contains(&ds[0].unwrap()));
}

#[test]
fn lifo_delivery_still_agrees() {
    let mut net = Net::new(&[1, 2, 3, 4]);
    let mut guard = 0;
    while !net.queue.is_empty() {
        guard += 1;
        assert!(guard < 100_000);
        let last = net.queue.len() - 1;
        net.deliver(last);
    }
    let ds = net.decisions();
    assert!(ds.iter().all(Option::is_some), "{ds:?}");
    assert!(ds.iter().all(|d| *d == ds[0]));
}

#[test]
fn random_interleavings_agree() {
    for seed in 0..30u64 {
        let mut rng = SimRng::seed_from(seed);
        let mut net = Net::new(&[10, 20, 30, 40, 50]);
        let mut guard = 0;
        while !net.queue.is_empty() {
            guard += 1;
            assert!(guard < 200_000);
            let idx = rng.index(net.queue.len());
            net.deliver(idx);
        }
        let ds = net.decisions();
        assert!(ds.iter().all(Option::is_some), "seed {seed}: {ds:?}");
        assert!(ds.iter().all(|d| *d == ds[0]), "seed {seed}: {ds:?}");
        assert!([10, 20, 30, 40, 50].contains(&ds[0].unwrap()), "seed {seed}");
    }
}

#[test]
fn timeouts_firing_after_decision_are_inert() {
    let mut net = Net::new(&[5, 6, 7]);
    net.run_fifo();
    let before = net.decisions();
    // Fire every armed timer post-decision.
    let timers = std::mem::take(&mut net.timers);
    for (site, round) in timers {
        let actions = net.instances[site.index()].on_timeout(round);
        net.absorb(site, actions);
    }
    net.run_fifo();
    assert_eq!(net.decisions(), before, "decisions immutable");
}

#[test]
fn spurious_future_round_traffic_is_safe() {
    let mut net = Net::new(&[1, 2, 3]);
    // Inject a forged proposal for a far-future round before normal
    // traffic: sites may adopt it (it is a valid proposal value in the
    // crash-stop model — validity is per-proposer), but agreement must
    // still hold.
    let forged = ConsensusMsg::Propose { round: 50, value: 2 };
    let actions = net.instances[0].on_message(SiteId::new(1), forged);
    net.absorb(SiteId::new(0), actions);
    net.run_fifo();
    // Drive timers until everyone decides (round 50's coordinator needs
    // nudging since site 0 jumped ahead).
    let mut guard = 0;
    while !net.decisions().iter().all(Option::is_some) {
        guard += 1;
        assert!(guard < 1_000, "stuck: {:?}", net.decisions());
        let timers = std::mem::take(&mut net.timers);
        assert!(!timers.is_empty(), "no timers left but undecided");
        for (site, round) in timers {
            let actions = net.instances[site.index()].on_timeout(round);
            net.absorb(site, actions);
        }
        net.run_fifo();
    }
    let ds = net.decisions();
    assert!(ds.iter().all(|d| *d == ds[0]), "{ds:?}");
}
