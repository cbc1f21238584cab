//! # otp-consensus — rotating-coordinator consensus
//!
//! The optimistic atomic broadcast of Pedone & Schiper (DISC'98), which the
//! ICDCS'99 OTP paper builds on, reaches agreement on the *definitive* total
//! order by running a sequence of consensus instances. This crate provides
//! that agreement substrate: a crash-tolerant, Chandra–Toueg-style consensus
//! with a rotating coordinator and a timeout-based (◇S-like) failure
//! detector, implemented as a pure event-driven state machine so it runs
//! unchanged inside the deterministic simulator or a threaded runtime.
//!
//! The protocol tolerates `f < n/2` crash failures and satisfies:
//!
//! * **Validity** — a decided value was proposed by some site;
//! * **Agreement** — no two sites decide differently;
//! * **Termination** — every correct site eventually decides (given that
//!   eventually some correct coordinator is not suspected — the ◇S
//!   assumption, realized here by exponentially growing round timeouts).
//!
//! # Protocol sketch (one instance)
//!
//! Rounds rotate through the sites: coordinator of round `r` is site
//! `r mod n`.
//!
//! 1. every site sends its current estimate (with the round it was last
//!    adopted in) to the round's coordinator;
//! 2. the coordinator collects a majority of estimates, picks the one with
//!    the highest adoption round, and proposes it to all;
//! 3. a site that receives the proposal adopts it and acknowledges; a site
//!    whose round timer fires first moves to the next round instead;
//! 4. on a majority of acks the coordinator decides and broadcasts
//!    *decide*; receivers decide without re-broadcasting it.
//!
//! Round 0 has no phase 1: its coordinator proposes its own initial value
//! at once, and every other site only arms the round-0 timer. That is
//! safe because no site can have adopted a value before round 0: every
//! round-0 estimate carries adoption round 0, so the locking rule of step
//! 2 would accept any of them, the coordinator's own included. Rounds
//! ≥ 1 run all four steps, so a value a quorum adopted in round 0 is
//! still the one a later coordinator must pick. In the failure-free case
//! an instance costs one propose multicast, `n` acks and one decide
//! multicast: one hop and `n` estimate frames fewer than a full first
//! round.
//!
//! The shortcut needs one thing the estimate phase used to give for free:
//! a coordinator proposes at most once per round. (An estimate quorum
//! cannot form twice for one round, because each site sends one estimate
//! per round.) A coordinator that crashed and restarted without its state
//! therefore starts such instances with [`Instance::rejoin`], which makes
//! no round-0 proposal.
//!
//! Only the coordinator broadcasts a decision: `n` decide frames per
//! instance, not `n²`. The drivers' channels are reliable (a wire to a
//! crashed or partitioned site is held, not dropped), so a receiver's
//! relay would never deliver a decision the coordinator's own broadcast
//! does not. A site that still misses the decision — the coordinator
//! crashed mid-broadcast — keeps running rounds, and a decided site
//! answers its next `Estimate` with the decision.
//!
//! # Example
//!
//! ```
//! use otp_consensus::{Action, Instance, InstanceConfig};
//! use otp_simnet::{SimDuration, SiteId};
//!
//! // A single-site "cluster" decides on its own proposal immediately after
//! // the self-addressed messages are looped back.
//! let cfg = InstanceConfig::new(1, SimDuration::from_millis(10));
//! let (mut inst, actions) = Instance::new(SiteId::new(0), cfg, "value");
//! // Drive the self-messages back into the instance until it decides.
//! let mut pending: Vec<_> = actions;
//! while inst.decided().is_none() {
//!     let mut next = Vec::new();
//!     for a in pending.drain(..) {
//!         match a {
//!             Action::Send(_, m) | Action::Broadcast(m) => {
//!                 next.extend(inst.on_message(SiteId::new(0), m));
//!             }
//!             _ => {}
//!         }
//!     }
//!     pending = next;
//! }
//! assert_eq!(inst.decided(), Some(&"value"));
//! ```

use otp_simnet::{SimDuration, SiteId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Wire messages exchanged by a consensus instance.
///
/// `V` is the proposal type; the broadcast layer instantiates it with a
/// batch of message identifiers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConsensusMsg<V> {
    /// Phase 1: a site's current estimate for round `round`, tagged with
    /// the round in which the estimate was last adopted.
    Estimate {
        /// Round this estimate is sent for.
        round: u64,
        /// The sender's current estimate.
        est: V,
        /// Round in which `est` was last adopted (0 if initial).
        ts: u64,
    },
    /// Phase 2: the coordinator's proposal for `round`.
    Propose {
        /// Round of the proposal.
        round: u64,
        /// Proposed value.
        value: V,
    },
    /// Phase 3: acknowledgment that the sender adopted the proposal.
    Ack {
        /// Acknowledged round.
        round: u64,
    },
    /// Phase 3 (negative): the sender suspected the coordinator and moved
    /// on; the coordinator should abandon the round.
    Nack {
        /// Rejected round.
        round: u64,
    },
    /// Phase 4: the decision, broadcast by the deciding coordinator (and
    /// by any decided site answering a late `Estimate`).
    Decide {
        /// Decided value.
        value: V,
    },
}

/// Output of feeding an event into an [`Instance`].
///
/// The caller (simulation driver or runtime) is responsible for delivering
/// `Send`/`Broadcast` through its transport — including messages a site
/// addresses to itself — and for scheduling `SetTimer` callbacks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action<V> {
    /// Send a message to one site (possibly the sender itself).
    Send(SiteId, ConsensusMsg<V>),
    /// Send a message to every site, including the sender.
    Broadcast(ConsensusMsg<V>),
    /// Arm a timer: deliver [`Instance::on_timeout`] with this round after
    /// the delay, unless the instance has decided.
    SetTimer {
        /// Round the timer guards.
        round: u64,
        /// How long to wait.
        delay: SimDuration,
    },
    /// The instance decided; emitted exactly once.
    Decided(V),
}

/// Static parameters of a consensus instance.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct InstanceConfig {
    /// Number of participating sites.
    pub sites: usize,
    /// Base round timeout; doubles each round (capped at 64× base) so that
    /// eventually a correct coordinator has enough time — the ◇S
    /// assumption made operational.
    pub base_timeout: SimDuration,
}

impl InstanceConfig {
    /// Creates a configuration for `sites` participants.
    ///
    /// # Panics
    ///
    /// Panics if `sites == 0`.
    pub fn new(sites: usize, base_timeout: SimDuration) -> Self {
        assert!(sites > 0, "consensus needs at least one site");
        InstanceConfig { sites, base_timeout }
    }

    /// Majority quorum size: `⌊n/2⌋ + 1`.
    pub fn quorum(&self) -> usize {
        self.sites / 2 + 1
    }

    /// Coordinator of a round: sites rotate by round number.
    pub fn coordinator(&self, round: u64) -> SiteId {
        SiteId::new((round % self.sites as u64) as u16)
    }

    /// Timeout used for `round`, with exponential backoff.
    pub fn timeout_for(&self, round: u64) -> SimDuration {
        let factor = 1u64 << round.min(6); // cap at 64×
        self.base_timeout.mul_u64(factor)
    }
}

/// Per-round coordinator bookkeeping. Senders are tracked so duplicated
/// messages (a retransmitting channel) can never double-count towards a
/// quorum — quorum intersection arguments need *distinct* processes.
#[derive(Debug, Clone)]
struct CoordState<V> {
    estimates: Vec<(u64, V)>,
    est_from: std::collections::HashSet<SiteId>,
    proposal: Option<V>,
    acks: std::collections::HashSet<SiteId>,
    abandoned: bool,
}

impl<V> Default for CoordState<V> {
    fn default() -> Self {
        CoordState {
            estimates: Vec::new(),
            est_from: std::collections::HashSet::new(),
            proposal: None,
            acks: std::collections::HashSet::new(),
            abandoned: false,
        }
    }
}

/// A single consensus instance at one site.
///
/// Drive it with [`Instance::on_message`] and [`Instance::on_timeout`];
/// execute the returned [`Action`]s. The instance is silent after deciding
/// except for answering late `Estimate`s with the decision, which lets
/// stragglers catch up without a reliable-broadcast layer.
#[derive(Debug, Clone)]
pub struct Instance<V> {
    me: SiteId,
    cfg: InstanceConfig,
    round: u64,
    est: V,
    ts: u64,
    decided: Option<V>,
    /// Coordinator state for rounds where this site is coordinator.
    coord: HashMap<u64, CoordState<V>>,
    /// The round this site last acked, to suppress duplicate acks.
    acked_round: Option<u64>,
}

impl<V: Clone + fmt::Debug> Instance<V> {
    /// Starts an instance with this site's `initial` proposal.
    ///
    /// Returns the instance plus the initial actions: the round-0 timer,
    /// preceded at the round-0 coordinator by its `Propose` of `initial`
    /// (see the crate docs on the fast first round).
    pub fn new(me: SiteId, cfg: InstanceConfig, initial: V) -> (Self, Vec<Action<V>>) {
        let mut inst = Self::idle(me, cfg, initial);
        let actions = inst.enter_round(0);
        (inst, actions)
    }

    /// Starts an instance whose round 0 an earlier incarnation of this
    /// site may already have coordinated, with its state since lost in a
    /// crash. The site makes no round-0 proposal and ignores round-0
    /// estimates and acks: a second round-0 proposal could differ from the
    /// first, and one round must never carry two values. Every site moves
    /// on to round 1 when its round-0 timer fires, and the locking rule
    /// keeps whatever a quorum adopted from the lost proposal.
    ///
    /// Returns the instance plus its only initial action, the round-0
    /// timer.
    pub fn rejoin(me: SiteId, cfg: InstanceConfig, initial: V) -> (Self, Vec<Action<V>>) {
        let mut inst = Self::idle(me, cfg, initial);
        inst.coord.entry(0).or_default().abandoned = true;
        (inst, vec![Action::SetTimer { round: 0, delay: cfg.timeout_for(0) }])
    }

    /// An instance in round 0 that has sent nothing yet.
    fn idle(me: SiteId, cfg: InstanceConfig, initial: V) -> Self {
        Instance {
            me,
            cfg,
            round: 0,
            est: initial,
            ts: 0,
            decided: None,
            coord: HashMap::new(),
            acked_round: None,
        }
    }

    /// The decision, if this instance has decided.
    pub fn decided(&self) -> Option<&V> {
        self.decided.as_ref()
    }

    /// Current round (for observability/tests).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Feeds a message from `from` into the state machine.
    pub fn on_message(&mut self, from: SiteId, msg: ConsensusMsg<V>) -> Vec<Action<V>> {
        match msg {
            ConsensusMsg::Decide { value } => self.on_decide(value),
            ConsensusMsg::Estimate { round, est, ts } => self.on_estimate(from, round, est, ts),
            ConsensusMsg::Propose { round, value } => self.on_propose(round, value),
            ConsensusMsg::Ack { round } => self.on_ack(from, round),
            ConsensusMsg::Nack { round } => self.on_nack(round),
        }
    }

    /// Fires the round timer armed by a previous [`Action::SetTimer`].
    ///
    /// If the instance is still undecided and still in `round`, the site
    /// suspects the coordinator, notifies it (so it can abandon the round)
    /// and advances to the next round.
    pub fn on_timeout(&mut self, round: u64) -> Vec<Action<V>> {
        if self.decided.is_some() || round != self.round {
            return Vec::new();
        }
        let coord = self.cfg.coordinator(round);
        let mut actions = vec![Action::Send(coord, ConsensusMsg::Nack { round })];
        actions.extend(self.advance_to(round + 1));
        actions
    }

    fn enter_round(&mut self, round: u64) -> Vec<Action<V>> {
        self.round = round;
        let coord = self.cfg.coordinator(round);
        let timer = Action::SetTimer { round, delay: self.cfg.timeout_for(round) };
        if round == 0 {
            // Fast first round: every round-0 estimate has ts = 0, so the
            // coordinator's own is as valid a pick as any quorum's.
            if coord != self.me {
                return vec![timer];
            }
            let value = self.est.clone();
            self.coord.entry(0).or_default().proposal = Some(value.clone());
            return vec![Action::Broadcast(ConsensusMsg::Propose { round, value }), timer];
        }
        vec![
            Action::Send(
                coord,
                ConsensusMsg::Estimate { round, est: self.est.clone(), ts: self.ts },
            ),
            timer,
        ]
    }

    fn advance_to(&mut self, round: u64) -> Vec<Action<V>> {
        if round <= self.round {
            return Vec::new();
        }
        self.enter_round(round)
    }

    fn on_estimate(&mut self, from: SiteId, round: u64, est: V, ts: u64) -> Vec<Action<V>> {
        if let Some(v) = &self.decided {
            // Help a straggler that is still running rounds.
            return vec![Action::Broadcast(ConsensusMsg::Decide { value: v.clone() })];
        }
        if self.cfg.coordinator(round) != self.me {
            return Vec::new();
        }
        let quorum = self.cfg.quorum();
        let state = self.coord.entry(round).or_default();
        if state.proposal.is_some() || state.abandoned || !state.est_from.insert(from) {
            return Vec::new();
        }
        state.estimates.push((ts, est));
        if state.estimates.len() >= quorum {
            // Pick the estimate with the highest adoption round — the
            // locking rule that makes agreement safe across rounds.
            let (_, value) = state
                .estimates
                .iter()
                .max_by_key(|(ts, _)| *ts)
                .expect("quorum is non-empty")
                .clone();
            state.proposal = Some(value.clone());
            return vec![Action::Broadcast(ConsensusMsg::Propose { round, value })];
        }
        Vec::new()
    }

    fn on_propose(&mut self, round: u64, value: V) -> Vec<Action<V>> {
        if self.decided.is_some() || round < self.round {
            return Vec::new();
        }
        let mut actions = Vec::new();
        if round > self.round {
            // We lagged; jump to the proposal's round first.
            actions.extend(self.advance_to(round));
        }
        if self.acked_round == Some(round) {
            return actions;
        }
        self.est = value;
        self.ts = round + 1; // adopted in this round; +1 keeps initial ts=0 distinct
        self.acked_round = Some(round);
        actions.push(Action::Send(self.cfg.coordinator(round), ConsensusMsg::Ack { round }));
        actions
    }

    fn on_ack(&mut self, from: SiteId, round: u64) -> Vec<Action<V>> {
        if self.decided.is_some() || self.cfg.coordinator(round) != self.me {
            return Vec::new();
        }
        let quorum = self.cfg.quorum();
        let state = self.coord.entry(round).or_default();
        if state.abandoned {
            return Vec::new();
        }
        let Some(proposal) = state.proposal.clone() else {
            return Vec::new();
        };
        state.acks.insert(from);
        if state.acks.len() >= quorum {
            // The coordinator's own quorum decided: it alone tells everyone.
            let mut actions =
                vec![Action::Broadcast(ConsensusMsg::Decide { value: proposal.clone() })];
            actions.extend(self.on_decide(proposal));
            return actions;
        }
        Vec::new()
    }

    fn on_nack(&mut self, round: u64) -> Vec<Action<V>> {
        if self.cfg.coordinator(round) == self.me {
            self.coord.entry(round).or_default().abandoned = true;
        }
        Vec::new()
    }

    /// Records a decision, from a `Decide` frame or the coordinator's own
    /// ack quorum. Never re-broadcasts it: see the crate docs.
    fn on_decide(&mut self, value: V) -> Vec<Action<V>> {
        if self.decided.is_some() {
            return Vec::new();
        }
        self.decided = Some(value.clone());
        vec![Action::Decided(value)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otp_simnet::{EventQueue, SimTime};

    /// Minimal deterministic driver: delivers every Send/Broadcast with a
    /// fixed per-hop delay plus a per-sender skew, supports crashed sites.
    /// Timers fire via the same queue.
    struct Driver {
        instances: Vec<Instance<u32>>,
        queue: EventQueue<Ev>,
        crashed: Vec<bool>,
        hop: SimDuration,
        skew: Vec<SimDuration>,
        /// When set, the first `Decide` broadcast reaches only this site
        /// and its sender crashes right after sending it.
        decide_reaches_only: Option<SiteId>,
        /// When set, the round-0 `Propose` reaches only these sites.
        round0_propose_reaches: Option<Vec<SiteId>>,
        /// When set, this site crashes instead of handling the `Ack` that
        /// would complete its quorum (so every earlier ack is handled).
        crash_on_quorum_ack: Option<SiteId>,
        acks_seen: usize,
    }

    enum Ev {
        Msg { from: SiteId, to: SiteId, msg: ConsensusMsg<u32> },
        Timer { site: SiteId, round: u64 },
    }

    impl Driver {
        fn new(n: usize, proposals: &[u32]) -> Self {
            let cfg = InstanceConfig::new(n, SimDuration::from_millis(20));
            let mut d = Driver {
                instances: Vec::new(),
                queue: EventQueue::new(),
                crashed: vec![false; n],
                hop: SimDuration::from_micros(100),
                skew: vec![SimDuration::ZERO; n],
                decide_reaches_only: None,
                round0_propose_reaches: None,
                crash_on_quorum_ack: None,
                acks_seen: 0,
            };
            // Build every instance before applying any initial action: a
            // broadcast addresses `self.instances`, so a round-0 `Propose`
            // applied mid-construction would miss the later sites.
            let initial: Vec<_> = proposals
                .iter()
                .enumerate()
                .map(|(i, &p)| {
                    let me = SiteId::new(i as u16);
                    let (inst, actions) = Instance::new(me, cfg, p);
                    d.instances.push(inst);
                    (me, actions)
                })
                .collect();
            for (me, actions) in initial {
                d.apply_actions(me, actions);
            }
            d
        }

        fn apply_actions(&mut self, me: SiteId, actions: Vec<Action<u32>>) {
            let now = self.queue.now();
            for a in actions {
                match a {
                    Action::Send(to, msg) => {
                        self.queue.schedule(
                            now + self.hop + self.skew[me.index()],
                            Ev::Msg { from: me, to, msg },
                        );
                    }
                    Action::Broadcast(msg @ ConsensusMsg::Decide { .. })
                        if self.decide_reaches_only.is_some() =>
                    {
                        let to = self.decide_reaches_only.take().expect("checked");
                        self.queue.schedule(now + self.hop, Ev::Msg { from: me, to, msg });
                        self.crashed[me.index()] = true;
                    }
                    Action::Broadcast(msg @ ConsensusMsg::Propose { round: 0, .. })
                        if self.round0_propose_reaches.is_some() =>
                    {
                        for &to in self.round0_propose_reaches.as_ref().expect("checked") {
                            self.queue.schedule(
                                now + self.hop + self.skew[me.index()],
                                Ev::Msg { from: me, to, msg: msg.clone() },
                            );
                        }
                    }
                    Action::Broadcast(msg) => {
                        for to in SiteId::all(self.instances.len()) {
                            self.queue.schedule(
                                now + self.hop + self.skew[me.index()],
                                Ev::Msg { from: me, to, msg: msg.clone() },
                            );
                        }
                    }
                    Action::SetTimer { round, delay } => {
                        self.queue.schedule(now + delay, Ev::Timer { site: me, round });
                    }
                    Action::Decided(_) => {}
                }
            }
        }

        fn run(&mut self, deadline: SimTime) {
            while let Some(t) = self.queue.peek_time() {
                if t > deadline {
                    break;
                }
                let (_, ev) = self.queue.pop().unwrap();
                match ev {
                    Ev::Msg { from, to, msg } => {
                        if self.crashed[to.index()] {
                            continue;
                        }
                        if matches!(msg, ConsensusMsg::Ack { .. })
                            && self.crash_on_quorum_ack == Some(to)
                        {
                            self.acks_seen += 1;
                            if self.acks_seen == self.instances.len() / 2 + 1 {
                                self.crashed[to.index()] = true;
                                continue;
                            }
                        }
                        let actions = self.instances[to.index()].on_message(from, msg);
                        self.apply_actions(to, actions);
                    }
                    Ev::Timer { site, round } => {
                        if self.crashed[site.index()] {
                            continue;
                        }
                        let actions = self.instances[site.index()].on_timeout(round);
                        self.apply_actions(site, actions);
                    }
                }
            }
        }

        fn decisions(&self) -> Vec<Option<u32>> {
            self.instances.iter().map(|i| i.decided().copied()).collect()
        }
    }

    #[test]
    fn quorum_and_coordinator() {
        let cfg = InstanceConfig::new(4, SimDuration::from_millis(1));
        assert_eq!(cfg.quorum(), 3);
        assert_eq!(cfg.coordinator(0), SiteId::new(0));
        assert_eq!(cfg.coordinator(5), SiteId::new(1));
        let cfg3 = InstanceConfig::new(3, SimDuration::from_millis(1));
        assert_eq!(cfg3.quorum(), 2);
    }

    #[test]
    fn timeout_backoff_caps() {
        let cfg = InstanceConfig::new(3, SimDuration::from_millis(10));
        assert_eq!(cfg.timeout_for(0), SimDuration::from_millis(10));
        assert_eq!(cfg.timeout_for(1), SimDuration::from_millis(20));
        assert_eq!(cfg.timeout_for(6), SimDuration::from_millis(640));
        assert_eq!(cfg.timeout_for(60), SimDuration::from_millis(640));
    }

    #[test]
    fn all_decide_same_value_no_failures() {
        let mut d = Driver::new(4, &[10, 20, 30, 40]);
        d.run(SimTime::from_secs(10));
        let ds = d.decisions();
        assert!(ds.iter().all(|x| x.is_some()), "all decide: {ds:?}");
        let v = ds[0].unwrap();
        assert!(ds.iter().all(|x| x.unwrap() == v), "agreement: {ds:?}");
        assert!([10, 20, 30, 40].contains(&v), "validity: {v}");
    }

    #[test]
    fn single_site_decides_own_value() {
        let mut d = Driver::new(1, &[99]);
        d.run(SimTime::from_secs(1));
        assert_eq!(d.decisions(), vec![Some(99)]);
    }

    #[test]
    fn coordinator_crash_rotates_round() {
        let mut d = Driver::new(3, &[1, 2, 3]);
        d.crashed[0] = true; // round-0 coordinator is dead from the start
        d.run(SimTime::from_secs(30));
        let ds = d.decisions();
        assert!(ds[1].is_some() && ds[2].is_some(), "survivors decide: {ds:?}");
        assert_eq!(ds[1], ds[2]);
        assert!(d.instances[1].round() >= 1, "must have advanced past round 0");
    }

    #[test]
    fn minority_crash_does_not_block() {
        let mut d = Driver::new(5, &[5, 6, 7, 8, 9]);
        d.crashed[1] = true;
        d.crashed[3] = true;
        d.run(SimTime::from_secs(30));
        let ds = d.decisions();
        for i in [0usize, 2, 4] {
            assert!(ds[i].is_some(), "site {i} must decide: {ds:?}");
            assert_eq!(ds[i], ds[0]);
        }
    }

    #[test]
    fn skewed_links_still_agree() {
        let mut d = Driver::new(4, &[100, 200, 300, 400]);
        d.skew = vec![
            SimDuration::from_micros(0),
            SimDuration::from_millis(3),
            SimDuration::from_micros(500),
            SimDuration::from_millis(1),
        ];
        d.run(SimTime::from_secs(30));
        let ds = d.decisions();
        assert!(ds.iter().all(|x| x.is_some()), "{ds:?}");
        assert!(ds.iter().all(|x| *x == ds[0]));
    }

    #[test]
    fn decided_instance_ignores_further_traffic() {
        let mut d = Driver::new(3, &[1, 2, 3]);
        d.run(SimTime::from_secs(10));
        let v = d.decisions()[0];
        let a = d.instances[0]
            .on_message(SiteId::new(1), ConsensusMsg::Propose { round: 99, value: 777 });
        assert!(a.is_empty());
        let b = d.instances[0].on_timeout(0);
        assert!(b.is_empty());
        assert_eq!(d.instances[0].decided().copied(), v);
    }

    #[test]
    fn late_estimate_gets_decision_replay() {
        let mut d = Driver::new(3, &[1, 2, 3]);
        d.run(SimTime::from_secs(10));
        let actions = d.instances[0]
            .on_message(SiteId::new(2), ConsensusMsg::Estimate { round: 50, est: 9, ts: 0 });
        assert!(
            actions.iter().any(|a| matches!(a, Action::Broadcast(ConsensusMsg::Decide { .. }))),
            "decided site should replay the decision: {actions:?}"
        );
    }

    #[test]
    fn received_decide_is_recorded_not_relayed() {
        let cfg = InstanceConfig::new(3, SimDuration::from_millis(10));
        let (mut inst, _) = Instance::new(SiteId::new(1), cfg, 7u32);
        let actions = inst.on_message(SiteId::new(0), ConsensusMsg::Decide { value: 8 });
        assert_eq!(actions, vec![Action::Decided(8)]);
        assert_eq!(inst.decided(), Some(&8));
    }

    /// The coordinator crashes right after its `Decide` reached a single
    /// site: the survivors still decide its value, by rotating to a new
    /// coordinator that either is the decided site (it answers their
    /// estimates with the decision) or re-proposes the locked value.
    #[test]
    fn coordinator_crash_mid_decide_broadcast_still_agrees() {
        for only in 1..5u16 {
            let mut d = Driver::new(5, &[10, 20, 30, 40, 50]);
            d.decide_reaches_only = Some(SiteId::new(only));
            d.run(SimTime::from_secs(30));
            assert!(d.crashed[0], "round-0 coordinator decided and crashed");
            let v = d.instances[0].decided().copied().expect("coordinator decided");
            for i in 1..5 {
                assert_eq!(d.decisions()[i], Some(v), "site {i}, decide sent to {only}");
            }
        }
    }

    /// Round 0 has no estimate phase: its coordinator proposes its own
    /// value at once, every other site only arms the round-0 timer.
    #[test]
    fn round_zero_coordinator_proposes_without_estimates() {
        let cfg = InstanceConfig::new(3, SimDuration::from_millis(10));
        let timer = Action::SetTimer { round: 0, delay: cfg.timeout_for(0) };
        let (_, actions) = Instance::new(SiteId::new(0), cfg, 7u32);
        assert_eq!(
            actions,
            vec![Action::Broadcast(ConsensusMsg::Propose { round: 0, value: 7 }), timer.clone()]
        );
        for site in 1..3u16 {
            let (_, actions) = Instance::new(SiteId::new(site), cfg, 7u32);
            assert_eq!(actions, vec![timer.clone()], "site {site}");
        }
    }

    /// Later rounds keep the estimate phase: a site whose round-0 timer
    /// fires nacks round 0 and sends its estimate to the round-1
    /// coordinator.
    #[test]
    fn later_rounds_keep_the_estimate_phase() {
        let cfg = InstanceConfig::new(3, SimDuration::from_millis(10));
        let (mut inst, _) = Instance::new(SiteId::new(2), cfg, 7u32);
        let actions = inst.on_timeout(0);
        assert_eq!(
            actions,
            vec![
                Action::Send(SiteId::new(0), ConsensusMsg::Nack { round: 0 }),
                Action::Send(SiteId::new(1), ConsensusMsg::Estimate { round: 1, est: 7, ts: 0 }),
                Action::SetTimer { round: 1, delay: cfg.timeout_for(1) },
            ]
        );
    }

    /// The round-0 coordinator crashes after a quorum acked its proposal
    /// but before it could decide. The proposal reached only that quorum,
    /// and the round-1 coordinator is not in it: every round-1 estimate
    /// quorum still holds an adopted copy, so the locking rule makes the
    /// survivors decide the dead coordinator's value.
    #[test]
    fn round_zero_value_acked_by_a_quorum_survives_coordinator_crash() {
        let mut d = Driver::new(5, &[10, 20, 30, 40, 50]);
        d.round0_propose_reaches = Some(vec![SiteId::new(0), SiteId::new(3), SiteId::new(4)]);
        d.crash_on_quorum_ack = Some(SiteId::new(0));
        d.run(SimTime::from_secs(30));
        assert!(d.crashed[0], "the coordinator crashed on its quorum ack");
        assert!(d.instances[0].decided().is_none(), "it never decided");
        for i in 1..5 {
            assert_eq!(d.decisions()[i], Some(10), "site {i}");
        }
        assert!(d.instances[1].round() >= 1, "decided in a later round");
    }

    /// The round-0 coordinator crashes after a quorum acked its proposal
    /// and restarts without its state, with another value. Rejoining, it
    /// proposes nothing in round 0 and ignores the replayed acks of its
    /// lost proposal; the survivors' locking rule then decides the lost
    /// proposal everywhere. (Through `Instance::new` it would propose 99
    /// and decide it on those very acks, while round 1 locks 10.)
    #[test]
    fn restarted_round_zero_coordinator_rejoins_without_a_proposal() {
        let mut d = Driver::new(4, &[10, 20, 30, 40]);
        d.round0_propose_reaches = Some(vec![SiteId::new(0), SiteId::new(2), SiteId::new(3)]);
        d.crash_on_quorum_ack = Some(SiteId::new(0));
        d.run(SimTime::from_millis(1));
        assert!(d.crashed[0], "the coordinator crashed on its quorum ack");
        d.crash_on_quorum_ack = None;
        let cfg = InstanceConfig::new(4, SimDuration::from_millis(20));
        let (inst, actions) = Instance::rejoin(SiteId::new(0), cfg, 99);
        assert_eq!(actions, vec![Action::SetTimer { round: 0, delay: cfg.timeout_for(0) }]);
        d.instances[0] = inst;
        d.crashed[0] = false;
        d.apply_actions(SiteId::new(0), actions);
        for from in [0u16, 2, 3] {
            let replayed =
                d.instances[0].on_message(SiteId::new(from), ConsensusMsg::Ack { round: 0 });
            assert!(replayed.is_empty(), "ack from {from}: {replayed:?}");
        }
        d.run(SimTime::from_secs(30));
        assert_eq!(d.decisions(), vec![Some(10); 4]);
    }

    #[test]
    fn nack_abandons_round_for_coordinator() {
        let cfg = InstanceConfig::new(3, SimDuration::from_millis(10));
        // Site 1 coordinates round 1 (round 0 has no estimates to gather).
        let (mut inst, _) = Instance::new(SiteId::new(1), cfg, 7u32);
        inst.on_timeout(0);
        assert_eq!(inst.round(), 1);
        // Coordinator gathers a quorum and proposes.
        let a1 =
            inst.on_message(SiteId::new(1), ConsensusMsg::Estimate { round: 1, est: 7, ts: 0 });
        assert!(a1.is_empty());
        let a2 =
            inst.on_message(SiteId::new(2), ConsensusMsg::Estimate { round: 1, est: 8, ts: 0 });
        assert!(a2.iter().any(|a| matches!(a, Action::Broadcast(ConsensusMsg::Propose { .. }))));
        // A nack arrives before the acks; the acks must then be ignored.
        inst.on_message(SiteId::new(0), ConsensusMsg::Nack { round: 1 });
        let a3 = inst.on_message(SiteId::new(2), ConsensusMsg::Ack { round: 1 });
        let a4 = inst.on_message(SiteId::new(0), ConsensusMsg::Ack { round: 1 });
        assert!(a3.is_empty() && a4.is_empty());
        assert!(inst.decided().is_none());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Agreement + validity + termination under random minority crash
        /// sets and random link skews.
        #[test]
        fn prop_agreement_under_crashes(
            seed in 0u64..1000,
            n in 3usize..7,
        ) {
            use otp_simnet::SimRng;
            let mut rng = SimRng::seed_from(seed);
            let proposals: Vec<u32> = (0..n).map(|i| (i as u32 + 1) * 11).collect();
            let mut d = Driver::new(n, &proposals);
            // Crash a strict minority.
            let max_crash = (n - 1) / 2;
            let crash_count = (rng.next_u64() as usize) % (max_crash + 1);
            let mut order: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut order);
            for &i in order.iter().take(crash_count) {
                d.crashed[i] = true;
            }
            // Random skews up to 2ms.
            for s in &mut d.skew {
                *s = SimDuration::from_micros(rng.uniform_range(0, 2000));
            }
            d.run(SimTime::from_secs(60));
            let ds = d.decisions();
            let alive: Vec<usize> = (0..n).filter(|&i| !d.crashed[i]).collect();
            let first = ds[alive[0]];
            proptest::prop_assert!(first.is_some(), "termination failed: {:?}", ds);
            for &i in &alive {
                proptest::prop_assert_eq!(ds[i], first, "agreement failed");
            }
            proptest::prop_assert!(proposals.contains(&first.unwrap()), "validity failed");
        }
    }
}
