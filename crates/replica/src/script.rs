//! Scripted deterministic scenarios.
//!
//! The stochastic simulator answers statistical questions; protocol
//! *walkthroughs* (like the §2.2 safety narrative) want exact control:
//! fail these links, submit this access, reassign, heal, observe. A
//! [`Scenario`] replays an explicit step list against the same machinery
//! the stochastic simulator uses — `NetworkState`, `ComponentCache`, the
//! 1SR checker, and any [`ConsistencyProtocol`].

use crate::object::SerializabilityChecker;
use quorum_core::protocol::{ConsistencyProtocol, Decision};
use quorum_core::{Access, VoteAssignment};
use quorum_graph::{ComponentCache, NetworkState, Topology, TopologyEvent};

/// One scripted step.
#[derive(Debug, Clone)]
pub enum Step {
    /// Take a site down.
    FailSite(usize),
    /// Bring a site back.
    RepairSite(usize),
    /// Take a link down.
    FailLink(usize),
    /// Bring a link back.
    RepairLink(usize),
    /// Submit an access at a site.
    Access(Access, usize),
}

/// Result of one access step.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessOutcome {
    /// The step index in the script.
    pub step: usize,
    /// Access kind.
    pub kind: Access,
    /// Submitting site.
    pub site: usize,
    /// Votes reachable at submission time.
    pub votes: u64,
    /// Protocol decision.
    pub decision: Decision,
    /// Whether the access was consistent (fresh read / aware write);
    /// `true` for denied accesses.
    pub consistent: bool,
}

/// A deterministic scenario executor.
pub struct Scenario<'a> {
    topology: &'a Topology,
    votes: VoteAssignment,
    state: NetworkState,
    cache: ComponentCache,
    checker: SerializabilityChecker,
    outcomes: Vec<AccessOutcome>,
    steps_run: usize,
}

impl<'a> Scenario<'a> {
    /// Starts with every site/link up and uniform votes.
    pub fn new(topology: &'a Topology) -> Self {
        Self::with_votes(topology, VoteAssignment::uniform(topology.num_sites()))
    }

    /// Starts with an explicit vote assignment.
    pub fn with_votes(topology: &'a Topology, votes: VoteAssignment) -> Self {
        assert_eq!(votes.num_sites(), topology.num_sites());
        Self {
            topology,
            state: NetworkState::all_up(topology),
            cache: ComponentCache::new(),
            checker: SerializabilityChecker::new(topology.num_sites()),
            votes,
            outcomes: Vec::new(),
            steps_run: 0,
        }
    }

    /// Current network state (for assertions).
    pub fn state(&self) -> &NetworkState {
        &self.state
    }

    /// Votes reachable from `site` right now.
    pub fn votes_of(&mut self, site: usize) -> u64 {
        self.cache
            .view(self.topology, &self.state, self.votes.as_slice())
            .votes_of(site)
    }

    /// Members of `site`'s component right now.
    pub fn members_of(&mut self, site: usize) -> Vec<usize> {
        self.cache
            .view(self.topology, &self.state, self.votes.as_slice())
            .members_of(site)
            .collect()
    }

    /// Executes one step against `protocol`.
    pub fn step<P: ConsistencyProtocol>(&mut self, protocol: &mut P, step: Step) {
        let idx = self.steps_run;
        self.steps_run += 1;
        match step {
            Step::FailSite(site) => self.set_site(site, false),
            Step::RepairSite(site) => self.set_site(site, true),
            Step::FailLink(link) => self.set_link(link, false),
            Step::RepairLink(link) => self.set_link(link, true),
            Step::Access(kind, site) => {
                let view = self
                    .cache
                    .view(self.topology, &self.state, self.votes.as_slice());
                let votes = view.votes_of(site);
                let members: Vec<usize> = if votes > 0 {
                    view.members_of(site).collect()
                } else {
                    Vec::new()
                };
                let decision = protocol.decide(kind, &members, votes);
                for refreshed in protocol.drain_refreshes() {
                    self.checker.on_refresh(&refreshed);
                }
                let consistent = if decision.is_granted() {
                    match kind {
                        Access::Write => self.checker.on_write_granted(&members),
                        Access::Read => self.checker.on_read_granted(&members),
                    }
                } else {
                    true
                };
                self.outcomes.push(AccessOutcome {
                    step: idx,
                    kind,
                    site,
                    votes,
                    decision,
                    consistent,
                });
            }
        }
    }

    /// Sets `site` to `up`, feeding a real transition to the kernel.
    fn set_site(&mut self, site: usize, up: bool) {
        if self.state.set_site(site, up) {
            self.cache.apply_event(
                self.topology,
                &self.state,
                self.votes.as_slice(),
                TopologyEvent::Site { site, up },
            );
        }
    }

    /// Sets `link` to `up`, feeding a real transition to the kernel.
    fn set_link(&mut self, link: usize, up: bool) {
        if self.state.set_link(link, up) {
            self.cache.apply_event(
                self.topology,
                &self.state,
                self.votes.as_slice(),
                TopologyEvent::Link { link, up },
            );
        }
    }

    /// Executes a whole script.
    pub fn run<P: ConsistencyProtocol>(&mut self, protocol: &mut P, steps: Vec<Step>) {
        for s in steps {
            self.step(protocol, s);
        }
    }

    /// All access outcomes so far.
    pub fn outcomes(&self) -> &[AccessOutcome] {
        &self.outcomes
    }

    /// The last access outcome.
    ///
    /// # Panics
    /// Panics if no access has been submitted.
    pub fn last(&self) -> &AccessOutcome {
        self.outcomes.last().expect("no access submitted yet")
    }

    /// True iff every granted access was consistent.
    pub fn all_consistent(&self) -> bool {
        self.outcomes.iter().all(|o| o.consistent)
    }

    /// Applies a protocol-driven data refresh directly (used when a test
    /// drives the protocol outside [`Scenario::step`]).
    pub fn apply_refresh(&mut self, members: &[usize]) {
        self.checker.on_refresh(members);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum_core::{QrProtocol, QuorumConsensus, QuorumSpec};

    #[test]
    fn partition_denies_minority_writes() {
        // 5-ring: cut links (0,1) and (2,3) → components {1,2} and {3,4,0}.
        let topo = Topology::ring(5);
        let mut sc = Scenario::new(&topo);
        let mut proto = QuorumConsensus::majority(5);
        sc.run(
            &mut proto,
            vec![
                Step::FailLink(0),
                Step::FailLink(2),
                Step::Access(Access::Write, 1), // minority: 2 votes < 3
                Step::Access(Access::Write, 3), // majority: 3 votes ≥ 3
            ],
        );
        assert_eq!(sc.outcomes()[0].decision, Decision::Denied);
        assert_eq!(sc.outcomes()[0].votes, 2);
        assert_eq!(sc.outcomes()[1].decision, Decision::Granted);
        assert!(sc.all_consistent());
    }

    #[test]
    fn healed_partition_reads_latest_write() {
        let topo = Topology::ring(5);
        let mut sc = Scenario::new(&topo);
        let mut proto = QuorumConsensus::majority(5);
        sc.run(
            &mut proto,
            vec![
                Step::FailLink(0),
                Step::FailLink(2),
                Step::Access(Access::Write, 3), // granted in {3,4,0}
                Step::RepairLink(0),
                Step::RepairLink(2),
                Step::Access(Access::Read, 1), // must see that write
            ],
        );
        let read = sc.last();
        assert_eq!(read.decision, Decision::Granted);
        assert!(read.consistent, "healed read must be fresh");
    }

    #[test]
    fn qr_reassignment_narrative_from_section_2_2() {
        // The paper's §2.2 story, under the corrected joint-quorum install
        // rule: change the assignment inside a component holding both the
        // old and new write quorums; the other side cannot access until it
        // learns of the change by re-joining.
        let topo = Topology::ring(5); // links: 0:(0,1) 1:(1,2) 2:(2,3) 3:(3,4) 4:(4,0)
        let mut sc = Scenario::new(&topo);
        let mut qr = QrProtocol::new(VoteAssignment::uniform(5), QuorumSpec::majority(5));

        // Isolate site 1: {1} vs {2,3,4,0}.
        sc.step(&mut qr, Step::FailLink(0));
        sc.step(&mut qr, Step::FailLink(1));

        // Reassign inside the 4-vote side to (q_r=2, q_w=4):
        // max(q_w_old, q_w_new) = max(3, 4) = 4 votes — exactly available.
        let members = sc.members_of(3);
        assert_eq!(members.len(), 4);
        let new = QuorumSpec::from_read_quorum(2, 5).unwrap();
        qr.try_reassign(&members, new)
            .expect("4-vote side holds both write quorums");

        // The isolated site is stale (version 1) with 1 vote — below the
        // old q_r = 3, so it cannot access (the §2.2 invariant).
        sc.step(&mut qr, Step::Access(Access::Read, 1));
        assert_eq!(sc.last().decision, Decision::Denied);

        // The installing side writes and reads under the new assignment.
        sc.step(&mut qr, Step::Access(Access::Write, 4));
        assert_eq!(sc.last().decision, Decision::Granted);
        sc.step(&mut qr, Step::Access(Access::Read, 2));
        assert_eq!(sc.last().decision, Decision::Granted);

        // Heal: the joining site adopts version 2 on first contact.
        sc.step(&mut qr, Step::RepairLink(0));
        sc.step(&mut qr, Step::RepairLink(1));
        sc.step(&mut qr, Step::Access(Access::Read, 1));
        assert_eq!(sc.last().decision, Decision::Granted);
        assert_eq!(qr.site(1).version, qr.global_max_version());
        assert!(sc.all_consistent());
    }

    #[test]
    fn paper_install_rule_produces_stale_read() {
        // The demonstration the joint rule exists for: install ROWA from a
        // 3-vote component (the paper's literal §2.2 rule allows it), then
        // a 1-vote read under the loosened q_r = 1 misses the only current
        // copies.
        let topo = Topology::ring(5);
        let mut sc = Scenario::new(&topo);
        let mut qr = QrProtocol::new(VoteAssignment::uniform(5), QuorumSpec::majority(5));

        // Partition {1,2} vs {3,4,0}; write lands on the majority side.
        sc.step(&mut qr, Step::FailLink(0));
        sc.step(&mut qr, Step::FailLink(2));
        sc.step(&mut qr, Step::Access(Access::Write, 3));
        assert_eq!(sc.last().decision, Decision::Granted);

        // Paper-rule install of ROWA from the same 3-vote side. (The value
        // refresh still happens, but covers only 3 of 5 sites.)
        let members = sc.members_of(3);
        qr.try_reassign_paper_rule(&members, QuorumSpec::read_one_write_all(5))
            .expect("paper rule needs only old q_w = 3");
        for refreshed in quorum_core::protocol::ConsistencyProtocol::drain_refreshes(&mut qr) {
            sc.apply_refresh(&refreshed);
        }

        // Heal only site 1's side partially: connect 1 to the *other*
        // stale site 2 — and crucially let site 1 first hear about v2
        // via a brief contact with site 0.
        sc.step(&mut qr, Step::RepairLink(0)); // 0-1 back: {0,1} joins... full ring still cut at link 2
                                               // Now {3,4,0,1} is one component; sync happens on next access.
        sc.step(&mut qr, Step::Access(Access::Read, 1));
        assert_eq!(sc.last().decision, Decision::Granted);
        assert!(sc.last().consistent, "this read reaches current copies");

        // Re-partition so that {1,2} is alone: site 1 now knows v2
        // (q_r = 1) but neither 1 nor 2 holds the current value.
        sc.step(&mut qr, Step::FailLink(0));
        sc.step(&mut qr, Step::RepairLink(2)); // 2-3 back? keep it simple:
        sc.step(&mut qr, Step::FailLink(2));
        // Components: {1,2} (via link 1) and {3,4,0}.
        sc.step(&mut qr, Step::Access(Access::Write, 0));
        assert_eq!(
            sc.last().decision,
            Decision::Denied,
            "ROWA writes need all 5"
        );
        sc.step(&mut qr, Step::Access(Access::Read, 2));
        // Site 2 is stale on versions? Site 2 synced v2 through site 1.
        // The read is granted with q_r = 1 — and it is STALE: the current
        // value lives only on {3,4,0} (write) ∪ refresh {3,4,0}.
        if sc.last().decision == Decision::Granted {
            assert!(
                !sc.last().consistent,
                "paper-rule install must produce a stale read here"
            );
        }
        assert!(!sc.all_consistent());
    }

    #[test]
    fn down_site_accesses_are_denied() {
        let topo = Topology::ring(4);
        let mut sc = Scenario::new(&topo);
        let mut proto = QuorumConsensus::read_one_write_all(4);
        sc.run(
            &mut proto,
            vec![
                Step::FailSite(2),
                Step::Access(Access::Read, 2), // down site: 0 votes
            ],
        );
        assert_eq!(sc.last().votes, 0);
        assert_eq!(sc.last().decision, Decision::Denied);
    }

    #[test]
    fn scripted_stale_read_with_invalid_protocol() {
        // Hand-drive the condition-1 violation: write lands on one side
        // of a partition, an over-permissive read on the other misses it.
        struct Unsafe;
        impl ConsistencyProtocol for Unsafe {
            fn decide(&mut self, _k: Access, _m: &[usize], votes: u64) -> Decision {
                if votes >= 2 {
                    Decision::Granted
                } else {
                    Decision::Denied
                }
            }
            fn can_grant(&self, _k: Access, _m: &[usize], votes: u64) -> bool {
                votes >= 2
            }
            fn effective_spec(&self, _m: &[usize]) -> QuorumSpec {
                QuorumSpec::majority(5)
            }
            fn total_votes(&self) -> u64 {
                5
            }
        }
        let topo = Topology::ring(5);
        let mut sc = Scenario::new(&topo);
        let mut proto = Unsafe;
        sc.run(
            &mut proto,
            vec![
                Step::FailLink(0),
                Step::FailLink(2),
                Step::Access(Access::Write, 3), // granted in {3,4,0}
                Step::Access(Access::Read, 1),  // granted in {1,2}: stale!
            ],
        );
        assert!(!sc.outcomes()[1].consistent, "read must be stale");
        assert!(!sc.all_consistent());
    }

    #[test]
    fn repeated_toggles_keep_cache_coherent() {
        let topo = Topology::ring_with_chords(9, 3);
        let mut sc = Scenario::new(&topo);
        let mut proto = QuorumConsensus::majority(9);
        for i in 0..9 {
            sc.step(&mut proto, Step::FailSite(i % 9));
            sc.step(&mut proto, Step::Access(Access::Read, (i + 1) % 9));
            sc.step(&mut proto, Step::RepairSite(i % 9));
        }
        // After all repairs the full component is back.
        assert_eq!(sc.votes_of(0), 9);
        assert!(sc.all_consistent());
    }
}
