//! The cluster protocol core, factored out of the event loop so that it
//! can run under *any* scheduler — the stochastic [`crate::engine`]
//! event loop or the bounded exhaustive explorer in `quorum-mc`.
//!
//! ## Why this split exists
//!
//! The engine's per-site state machines (vote gathering, two-phase
//! writes, timeouts/retries, §2.2 install adoption) used to live inside
//! the batch event loop, welded to the RNG-driven transport. That made
//! the *protocol rules* testable only through stochastic schedules. This
//! module extracts every protocol decision into [`ProtocolCore`], which
//! talks to its environment exclusively through the [`Scheduler`] trait:
//!
//! * the stochastic engine implements [`Scheduler`] on top of
//!   [`quorum_des::EventQueue`] (Bernoulli loss, sampled latency,
//!   cancellable timers);
//! * a model checker implements it as a bag of in-flight messages and a
//!   set of pending timers, turning every delivery, drop, and timeout
//!   into an enumerable choice point.
//!
//! Both drivers run the *same* compiled protocol code, so a property
//! verified by exhaustive exploration is a property of the shipping
//! engine, not of a re-model.
//!
//! ## Cross-epoch vote accumulation (the bug this module fixes)
//!
//! A session gathers pledges under one assignment epoch. Two channels
//! used to let pledges from an older epoch count toward a quorum
//! evaluated against a newer spec:
//!
//! 1. **Timeout adoption** — [`ProtocolCore::session_timeout`] adopts
//!    the coordinator's newest assignment on retry but kept the
//!    `votes`/`contributed` accumulators from the old epoch;
//! 2. **Late pledges** — a `ReadValue`/`VoteGrant` sent before an
//!    install could arrive after the session had adopted the new epoch
//!    and still be counted.
//!
//! With spec-only, pairwise jointly-safe installs this mixing happens to
//! be benign for freshness (per-site weights are static, so any set
//! reaching the new threshold is a valid quorum under the new spec), but
//! it silently violates the §2.2 contract that a quorum is gathered
//! under a *single* assignment — the contract weight-changing
//! reassignment (ROADMAP item 5) depends on. The fix: timeouts that
//! adopt a different epoch reset the accumulators and re-seed the
//! coordinator's own pledge, and pledges are epoch-tagged and filtered.
//! [`crate::ClusterConfig::mix_epoch_votes`] restores the pre-fix
//! behavior as an ablation so the model checker can demonstrate it
//! *finds* the bug.

use crate::checker::FreshnessChecker;
use crate::config::ClusterConfig;
use crate::message::{Message, Payload, SessionId, Version, NO_SESSION};
use crate::stats::{ClusterStats, Outcome};
use quorum_core::reassign::SiteAssignment;
use quorum_core::{Access, QuorumSpec, VoteAssignment};
use quorum_des::SimTime;

/// Opaque handle to a pending session timer, issued by a [`Scheduler`].
///
/// The stochastic scheduler wraps a [`quorum_des::EventKey`]; a model
/// checker mints its own values. The core never inspects the contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TimerToken(u64);

impl TimerToken {
    /// Wraps a scheduler-chosen raw value.
    pub fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// The raw value this token was created with.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Everything the protocol core asks of its environment.
///
/// The contract mirrors the §5.2 message world: `send` hands a message
/// to the transport (which may lose it immediately, delay it, or — in a
/// model checker — hold it as an enumerable choice), and timers drive
/// the bounded-retry machinery. Implementations decide *when* (or
/// *whether*) sent messages come back via
/// [`ProtocolCore::handle_message`] and when armed timers come back via
/// [`ProtocolCore::session_timeout`].
pub trait Scheduler {
    /// Current simulated time; labels session latencies. A model checker
    /// with no clock may return [`SimTime::ZERO`] everywhere.
    fn now(&self) -> SimTime;

    /// Accepts `msg` for eventual (possibly never) delivery. Returns
    /// `false` iff the transport dropped it at send time (Bernoulli
    /// loss); the caller counts the drop.
    fn send(&mut self, msg: Message) -> bool;

    /// Arms the timer for session `id` to fire after `timeout` simulated
    /// time units (a model checker may ignore the duration and treat the
    /// firing instant as a nondeterministic choice).
    fn arm_timer(&mut self, id: SessionId, timeout: f64) -> TimerToken;

    /// Cancels a previously armed timer; `true` iff it was still
    /// pending.
    fn cancel_timer(&mut self, token: TimerToken) -> bool;
}

/// Which part of a session is gathering votes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionPhase {
    /// Phase 1: gathering `ReadValue`/`VoteGrant` pledges.
    Gather,
    /// Phase 2 (writes only): gathering `CommitAck`s.
    Commit,
}

/// Coordinator-side state of one in-flight session.
#[derive(Debug, Clone)]
struct Session {
    origin: usize,
    kind: Access,
    submitted_at: SimTime,
    measured_index: Option<u64>,
    round: u32,
    phase: SessionPhase,
    votes: u64,
    contributed: Vec<bool>,
    max_version: Version,
    new_version: Version,
    floor: Version,
    spec: QuorumSpec,
    epoch: u64,
    timer: TimerToken,
}

/// The open sessions, sorted by id.
///
/// Ids are issued in increasing order, so opening a session appends;
/// only a session re-inserted after a guarded remove lands mid-table.
/// Iteration is in id order (quorum-lint `no-unordered-iteration`):
/// drains and sweeps over open sessions feed stats and canonical
/// encodings. A sorted `Vec` instead of a `BTreeMap` because a core
/// holds a handful of sessions and the model checker clones one core
/// per explored state; an almost empty B-tree leaf costs ~1.4 KB each.
#[derive(Debug, Clone, Default)]
struct SessionTable(Vec<(SessionId, Session)>);

impl SessionTable {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn ids(&self) -> impl Iterator<Item = SessionId> + '_ {
        self.0.iter().map(|&(id, _)| id)
    }

    fn position(&self, id: SessionId) -> Result<usize, usize> {
        self.0.binary_search_by_key(&id, |&(k, _)| k)
    }

    fn get(&self, id: SessionId) -> Option<&Session> {
        self.position(id).ok().map(|i| &self.0[i].1)
    }

    fn get_mut(&mut self, id: SessionId) -> Option<&mut Session> {
        self.position(id).ok().map(|i| &mut self.0[i].1)
    }

    /// Inserts `session` under `id` at its sorted position, replacing
    /// any session already stored there.
    fn insert(&mut self, id: SessionId, session: Session) {
        match self.position(id) {
            Ok(i) => self.0[i].1 = session,
            Err(i) => self.0.insert(i, (id, session)),
        }
    }

    fn remove(&mut self, id: SessionId) -> Option<Session> {
        self.position(id).ok().map(|i| self.0.remove(i).1)
    }
}

/// Durable per-site replica state.
#[derive(Debug, Clone, Copy)]
struct SiteState {
    version: Version,
    assignment: SiteAssignment,
}

/// Read-only snapshot of one open session, for invariant checkers and
/// schedulers that need to reason about protocol state (e.g. the model
/// checker's partial-order reduction asks whether a delivery can
/// resolve the session).
#[derive(Debug, Clone, Copy)]
pub struct SessionView<'s> {
    /// Coordinator site.
    pub origin: usize,
    /// Read or write.
    pub kind: Access,
    /// Gathering pledges or gathering commit acks.
    pub phase: SessionPhase,
    /// Retry round (0 = first attempt).
    pub round: u32,
    /// Votes accumulated in the current phase.
    pub votes: u64,
    /// Which sites contributed to the current phase.
    pub contributed: &'s [bool],
    /// Assignment epoch the session is gathering under.
    pub epoch: u64,
    /// Quorum spec of that epoch.
    pub spec: QuorumSpec,
    /// Highest version among phase-1 replies.
    pub max_version: Version,
    /// Version a write will install (0 until phase 2).
    pub new_version: Version,
}

/// Read-only snapshot of one site's durable replica state.
#[derive(Debug, Clone, Copy)]
pub struct SiteView {
    /// Stored version of the replicated value.
    pub version: Version,
    /// Installed assignment epoch.
    pub epoch: u64,
    /// Quorum spec installed at that epoch.
    pub spec: QuorumSpec,
}

/// The protocol state machines of every site plus all coordinator-side
/// session state, independent of any particular scheduler.
///
/// The engine's event loop owns one per batch; the model checker clones
/// it freely (cloning is cheap at model-checking scale — a few sites and
/// sessions). All statistics accumulate into [`ProtocolCore::stats`];
/// violation counting lives in the embedded [`FreshnessChecker`].
#[derive(Debug, Clone)]
pub struct ProtocolCore<'a> {
    config: &'a ClusterConfig,
    votes: &'a VoteAssignment,
    num_sites: usize,
    sites: Vec<SiteState>,
    sessions: SessionTable,
    next_session: SessionId,
    checker: FreshnessChecker,
    stats: ClusterStats,
}

impl<'a> ProtocolCore<'a> {
    /// Creates a core with every site at version 0 under `initial_spec`
    /// (epoch 0).
    pub fn new(
        config: &'a ClusterConfig,
        votes: &'a VoteAssignment,
        initial_spec: QuorumSpec,
    ) -> Self {
        let num_sites = votes.num_sites();
        Self {
            config,
            votes,
            num_sites,
            sites: vec![
                SiteState {
                    version: 0,
                    assignment: SiteAssignment {
                        version: 0,
                        spec: initial_spec,
                    },
                };
                num_sites
            ],
            sessions: SessionTable::default(),
            next_session: NO_SESSION + 1,
            checker: FreshnessChecker::new(),
            stats: ClusterStats::new(&config.latency_bounds),
        }
    }

    /// Number of sites.
    pub fn num_sites(&self) -> usize {
        self.num_sites
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &ClusterStats {
        &self.stats
    }

    /// Mutable statistics — the driving loop owns submission accounting
    /// (measured reads/writes, unavailability), which depends on
    /// batch-level warm-up state the core does not know about.
    pub fn stats_mut(&mut self) -> &mut ClusterStats {
        &mut self.stats
    }

    /// Moves the accumulated statistics out, leaving empty ones.
    pub fn take_stats(&mut self) -> ClusterStats {
        std::mem::replace(
            &mut self.stats,
            ClusterStats::new(&self.config.latency_bounds),
        )
    }

    /// The freshness checker (floor and violation counts).
    pub fn checker(&self) -> &FreshnessChecker {
        &self.checker
    }

    /// Number of unresolved sessions.
    pub fn open_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Ids of unresolved sessions, ascending.
    pub fn session_ids(&self) -> impl Iterator<Item = SessionId> + '_ {
        self.sessions.ids()
    }

    /// Coordinator of session `id`, if the session is still open.
    pub fn session_origin(&self, id: SessionId) -> Option<usize> {
        self.sessions.get(id).map(|s| s.origin)
    }

    /// Snapshot of session `id`, if still open.
    pub fn session_view(&self, id: SessionId) -> Option<SessionView<'_>> {
        self.sessions.get(id).map(|s| SessionView {
            origin: s.origin,
            kind: s.kind,
            phase: s.phase,
            round: s.round,
            votes: s.votes,
            contributed: &s.contributed,
            epoch: s.epoch,
            spec: s.spec,
            max_version: s.max_version,
            new_version: s.new_version,
        })
    }

    /// Snapshot of site `site`'s durable state.
    ///
    /// # Panics
    /// Panics if `site` is out of range.
    pub fn site_view(&self, site: usize) -> SiteView {
        let s = &self.sites[site];
        SiteView {
            version: s.version,
            epoch: s.assignment.version,
            spec: s.assignment.spec,
        }
    }

    /// Sends a message, counting the send and an immediate transport
    /// drop.
    fn send(&mut self, sched: &mut impl Scheduler, msg: Message) {
        self.stats.messages_sent += 1;
        if !sched.send(msg) {
            self.stats.messages_dropped += 1;
        }
    }

    fn record_outcome(&mut self, index: Option<u64>, kind: Access, outcome: Outcome) {
        if self.config.record_outcomes {
            if let Some(i) = index {
                self.stats.outcomes[i as usize] = Some((kind, outcome));
            }
        }
    }

    /// Opens a session at an up coordinator: pledge the coordinator's
    /// own votes, arm the round-0 timer, broadcast
    /// [`Payload::VoteRequest`], and resolve immediately if the
    /// coordinator alone already holds a quorum. Returns the session id
    /// (the session may already be resolved on return).
    ///
    /// The caller is responsible for submission accounting and for the
    /// coordinator-down (`Unavailable`) path — both depend on
    /// batch-level measurement state.
    pub fn open_session(
        &mut self,
        origin: usize,
        kind: Access,
        measured_index: Option<u64>,
        sched: &mut impl Scheduler,
    ) -> SessionId {
        let id = self.next_session;
        self.next_session += 1;
        self.stats.sessions_opened += 1;
        let assignment = self.sites[origin].assignment;
        let own = self.votes.votes_of(origin);
        let n = self.num_sites;
        let mut contributed = vec![false; n];
        contributed[origin] = true;
        let timer = sched.arm_timer(id, self.config.timeout_for(0));
        self.sessions.insert(
            id,
            Session {
                origin,
                kind,
                submitted_at: sched.now(),
                measured_index,
                round: 0,
                phase: SessionPhase::Gather,
                votes: own,
                contributed,
                max_version: self.sites[origin].version,
                new_version: 0,
                floor: self.checker.floor(),
                spec: assignment.spec,
                epoch: assignment.version,
                timer,
            },
        );
        for peer in (0..n).filter(|&p| p != origin) {
            self.send(
                sched,
                Message {
                    from: origin,
                    to: peer,
                    session: id,
                    payload: Payload::VoteRequest {
                        kind,
                        epoch: assignment.version,
                        epoch_spec: assignment.spec,
                    },
                },
            );
        }
        // Single-site quorum (e.g. ROWA reads, weighted coordinators).
        if own >= assignment.spec.threshold(kind) {
            self.quorum_reached(id, sched);
        }
        id
    }

    /// Runs the receiving actor's step for a delivered message. The
    /// caller has already decided deliverability (connectivity at the
    /// delivery instant) and counted the delivery.
    pub fn handle_message(&mut self, msg: Message, sched: &mut impl Scheduler) {
        let site = msg.to;
        match msg.payload {
            Payload::VoteRequest {
                kind,
                epoch,
                epoch_spec,
            } => {
                let known = self.sites[site].assignment.version;
                if epoch > known {
                    // Piggybacked propagation: lagging sites catch up
                    // from ordinary traffic.
                    self.sites[site].assignment = SiteAssignment {
                        version: epoch,
                        spec: epoch_spec,
                    };
                    self.stats.installs_applied += 1;
                } else if known > epoch {
                    let a = self.sites[site].assignment;
                    self.send(
                        sched,
                        Message {
                            from: site,
                            to: msg.from,
                            session: msg.session,
                            payload: Payload::VoteDeny {
                                epoch: a.version,
                                epoch_spec: a.spec,
                            },
                        },
                    );
                    return;
                }
                let votes = self.votes.votes_of(site);
                let version = self.sites[site].version;
                // After the catch-up above the replier is exactly on the
                // request's epoch, so the pledge is tagged with it.
                let epoch = self.sites[site].assignment.version;
                let reply = match kind {
                    Access::Read => Payload::ReadValue {
                        votes,
                        version,
                        epoch,
                    },
                    Access::Write => Payload::VoteGrant {
                        votes,
                        version,
                        epoch,
                    },
                };
                self.send(
                    sched,
                    Message {
                        from: site,
                        to: msg.from,
                        session: msg.session,
                        payload: reply,
                    },
                );
            }
            Payload::ReadValue {
                votes,
                version,
                epoch,
            }
            | Payload::VoteGrant {
                votes,
                version,
                epoch,
            } => {
                self.vote_received(msg.session, msg.from, votes, version, epoch, sched);
            }
            Payload::VoteDeny { epoch, epoch_spec } => {
                if epoch > self.sites[site].assignment.version {
                    self.sites[site].assignment = SiteAssignment {
                        version: epoch,
                        spec: epoch_spec,
                    };
                    self.stats.installs_applied += 1;
                }
            }
            Payload::WriteCommit { version } => {
                if version > self.sites[site].version {
                    self.sites[site].version = version;
                }
                let votes = self.votes.votes_of(site);
                self.send(
                    sched,
                    Message {
                        from: site,
                        to: msg.from,
                        session: msg.session,
                        payload: Payload::CommitAck { votes },
                    },
                );
            }
            Payload::CommitAck { votes } => {
                self.ack_received(msg.session, msg.from, votes, sched);
            }
            Payload::Install { epoch, epoch_spec } => {
                if epoch > self.sites[site].assignment.version {
                    self.sites[site].assignment = SiteAssignment {
                        version: epoch,
                        spec: epoch_spec,
                    };
                    self.stats.installs_applied += 1;
                }
            }
        }
    }

    /// A phase-1 pledge arrived at the coordinator.
    fn vote_received(
        &mut self,
        id: SessionId,
        from: usize,
        votes: u64,
        version: Version,
        epoch: u64,
        sched: &mut impl Scheduler,
    ) {
        let Some(s) = self.sessions.get_mut(id) else {
            return; // session already resolved; stale reply
        };
        if s.phase != SessionPhase::Gather || s.contributed[from] {
            return;
        }
        if epoch != s.epoch && !self.config.mix_epoch_votes {
            // A pledge granted under a different assignment epoch must
            // not count toward this session's quorum: the session's
            // threshold belongs to *its* epoch. (Pre-install pledges
            // arriving after a timeout adopted a newer assignment land
            // here.) The retry machinery re-requests the pledge under
            // the session's current epoch.
            self.stats.stale_grants_ignored += 1;
            return;
        }
        s.contributed[from] = true;
        s.votes += votes;
        s.max_version = s.max_version.max(version);
        if s.votes >= s.spec.threshold(s.kind) {
            self.quorum_reached(id, sched);
        }
    }

    /// A phase-2 ack arrived at the coordinator.
    fn ack_received(&mut self, id: SessionId, from: usize, votes: u64, sched: &mut impl Scheduler) {
        // Single guarded lookup: remove, accumulate, and re-insert if
        // the session stays open. A stale ack for a resolved session is
        // silently ignored rather than a panic path.
        let Some(mut s) = self.sessions.remove(id) else {
            return;
        };
        if s.phase != SessionPhase::Commit || s.contributed[from] {
            self.sessions.insert(id, s);
            return;
        }
        s.contributed[from] = true;
        s.votes += votes;
        if s.votes >= s.spec.q_w() {
            self.resolve_committed(s, sched);
        } else {
            self.sessions.insert(id, s);
        }
    }

    /// Phase-1 votes reached the threshold: reads commit, writes enter
    /// (or — under the unsafe ablation — skip) the commit phase.
    ///
    /// A single guarded lookup removes the session up front and
    /// re-inserts it only if it stays open, so a call for an
    /// already-resolved session is a no-op instead of a panic.
    fn quorum_reached(&mut self, id: SessionId, sched: &mut impl Scheduler) {
        let Some(mut s) = self.sessions.remove(id) else {
            return;
        };
        match s.kind {
            Access::Read => self.resolve_committed(s, sched),
            Access::Write if self.config.commit_on_grant => {
                // UNSAFE ablation: client told "committed" before any
                // replica durably holds the new version. The freshness
                // checker exists to catch exactly this.
                s.new_version = s.max_version + 1;
                let (origin, version) = (s.origin, s.new_version);
                self.sites[origin].version = self.sites[origin].version.max(version);
                let n = self.num_sites;
                for peer in (0..n).filter(|&p| p != origin) {
                    self.send(
                        sched,
                        Message {
                            from: origin,
                            to: peer,
                            session: id,
                            payload: Payload::WriteCommit { version },
                        },
                    );
                }
                self.resolve_committed(s, sched);
            }
            Access::Write => {
                s.new_version = s.max_version + 1;
                s.phase = SessionPhase::Commit;
                let origin = s.origin;
                let own = self.votes.votes_of(origin);
                s.votes = own;
                s.contributed.fill(false);
                s.contributed[origin] = true;
                let version = s.new_version;
                let q_w = s.spec.q_w();
                // The coordinator is a replica too: it adopts first.
                self.sites[origin].version = self.sites[origin].version.max(version);
                let n = self.num_sites;
                for peer in (0..n).filter(|&p| p != origin) {
                    self.send(
                        sched,
                        Message {
                            from: origin,
                            to: peer,
                            session: id,
                            payload: Payload::WriteCommit { version },
                        },
                    );
                }
                if own >= q_w {
                    self.resolve_committed(s, sched);
                } else {
                    self.sessions.insert(id, s);
                }
            }
        }
    }

    /// Session timer fired: retry (with backoff and a refreshed
    /// assignment) or resolve `TimedOut`. `origin_up` is the liveness of
    /// the session's coordinator at the firing instant (the core does
    /// not track the failure world).
    ///
    /// Adopting an assignment from a *different* epoch resets the
    /// accumulators (`votes`, `contributed`, and the version gathered
    /// from replies) and re-seeds the coordinator's own pledge: pledges
    /// granted under the old epoch must not count toward the new spec's
    /// threshold. Under [`ClusterConfig::mix_epoch_votes`] the pre-fix
    /// mixing behavior is restored as an ablation.
    pub fn session_timeout(&mut self, id: SessionId, origin_up: bool, sched: &mut impl Scheduler) {
        let Some(s) = self.sessions.get_mut(id) else {
            return; // cancelled timers never fire; defensive only
        };
        let origin = s.origin;
        if s.round >= self.config.max_retries || !origin_up {
            let s = self
                .sessions
                .remove(id)
                .expect("session looked up just above");
            self.resolve_timed_out(s, sched);
            return;
        }
        s.round += 1;
        // Adopt whatever assignment the coordinator has learned since —
        // VoteDeny replies and Install broadcasts carrying newer epochs
        // land here.
        let assignment = self.sites[origin].assignment;
        if assignment.version != s.epoch && !self.config.mix_epoch_votes {
            s.votes = self.votes.votes_of(origin);
            s.contributed.fill(false);
            s.contributed[origin] = true;
            s.max_version = self.sites[origin].version;
            self.stats.cross_epoch_resets += 1;
        }
        s.epoch = assignment.version;
        s.spec = assignment.spec;
        s.timer = sched.arm_timer(id, self.config.timeout_for(s.round));
        let (phase, kind, epoch, spec, version) = (s.phase, s.kind, s.epoch, s.spec, s.new_version);
        let pending: Vec<usize> = s
            .contributed
            .iter()
            .enumerate()
            .filter(|&(p, &c)| !c && p != origin)
            .map(|(p, _)| p)
            .collect();
        self.stats.retries += 1;
        for peer in pending {
            let payload = match phase {
                SessionPhase::Gather => Payload::VoteRequest {
                    kind,
                    epoch,
                    epoch_spec: spec,
                },
                SessionPhase::Commit => Payload::WriteCommit { version },
            };
            self.send(
                sched,
                Message {
                    from: origin,
                    to: peer,
                    session: id,
                    payload,
                },
            );
        }
    }

    /// Executes an install at an up `origin`: adopt `spec` at `epoch` if
    /// newer, then broadcast [`Payload::Install`] to every other site.
    /// The caller has already checked the origin's liveness (a down
    /// origin skips its install).
    pub fn apply_install(
        &mut self,
        origin: usize,
        epoch: u64,
        spec: QuorumSpec,
        sched: &mut impl Scheduler,
    ) {
        if epoch > self.sites[origin].assignment.version {
            self.sites[origin].assignment = SiteAssignment {
                version: epoch,
                spec,
            };
            self.stats.installs_applied += 1;
        }
        let n = self.num_sites;
        for peer in (0..n).filter(|&p| p != origin) {
            self.send(
                sched,
                Message {
                    from: origin,
                    to: peer,
                    session: NO_SESSION,
                    payload: Payload::Install {
                        epoch,
                        epoch_spec: spec,
                    },
                },
            );
        }
    }

    fn resolve_committed(&mut self, s: Session, sched: &mut impl Scheduler) {
        sched.cancel_timer(s.timer);
        let latency = sched.now() - s.submitted_at;
        match s.kind {
            Access::Read => {
                self.checker.on_read_committed(s.floor, s.max_version);
                if s.measured_index.is_some() {
                    self.stats.reads_committed += 1;
                    self.stats.read_latency.record(latency);
                }
            }
            Access::Write => {
                self.checker.on_write_committed(s.new_version);
                if s.measured_index.is_some() {
                    self.stats.writes_committed += 1;
                    self.stats.write_latency.record(latency);
                }
            }
        }
        self.record_outcome(s.measured_index, s.kind, Outcome::Committed);
    }

    fn resolve_timed_out(&mut self, s: Session, sched: &mut impl Scheduler) {
        sched.cancel_timer(s.timer);
        if s.measured_index.is_some() {
            match s.kind {
                Access::Read => self.stats.reads_timed_out += 1,
                Access::Write => self.stats.writes_timed_out += 1,
            }
        }
        self.record_outcome(s.measured_index, s.kind, Outcome::TimedOut);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum_des::SimParams;
    use std::collections::BTreeMap;

    /// A minimal deterministic scheduler: sent messages pile up in a
    /// vector, timers in a map. Tests deliver and fire by hand.
    #[derive(Debug, Default)]
    struct BagScheduler {
        in_flight: Vec<Message>,
        timers: BTreeMap<u64, SessionId>,
        next_token: u64,
    }

    impl Scheduler for BagScheduler {
        fn now(&self) -> SimTime {
            SimTime::ZERO
        }
        fn send(&mut self, msg: Message) -> bool {
            self.in_flight.push(msg);
            true
        }
        fn arm_timer(&mut self, id: SessionId, _timeout: f64) -> TimerToken {
            let raw = self.next_token;
            self.next_token += 1;
            self.timers.insert(raw, id);
            TimerToken::new(raw)
        }
        fn cancel_timer(&mut self, token: TimerToken) -> bool {
            self.timers.remove(&token.raw()).is_some()
        }
    }

    fn test_config(mix: bool) -> ClusterConfig {
        let mut cfg = ClusterConfig::new(SimParams::quick());
        cfg.max_retries = 2;
        cfg.mix_epoch_votes = mix;
        cfg
    }

    /// Regression for the headline bug: a scripted install lands between
    /// retry rounds and flips the spec; the retry must discard the
    /// pledges gathered under the old epoch and re-seed the
    /// coordinator's own vote.
    #[test]
    fn timeout_across_epochs_resets_accumulators() {
        let cfg = test_config(false);
        let votes = VoteAssignment::uniform(3);
        let initial = QuorumSpec::new(2, 3, 3).unwrap();
        let mut core = ProtocolCore::new(&cfg, &votes, initial);
        let mut sched = BagScheduler::default();

        let id = core.open_session(0, Access::Write, None, &mut sched);
        // Site 1 pledges under epoch 0: votes 1 (own) + 1 = 2 < q_w 3.
        core.handle_message(
            Message {
                from: 1,
                to: 0,
                session: id,
                payload: Payload::VoteGrant {
                    votes: 1,
                    version: 0,
                    epoch: 0,
                },
            },
            &mut sched,
        );
        assert_eq!(core.session_view(id).unwrap().votes, 2);

        // Install epoch 1 at site 2, then its broadcast reaches the
        // coordinator before the retry fires.
        let new_spec = QuorumSpec::new(2, 2, 3).unwrap();
        core.apply_install(2, 1, new_spec, &mut sched);
        let install = Message {
            from: 2,
            to: 0,
            session: NO_SESSION,
            payload: Payload::Install {
                epoch: 1,
                epoch_spec: new_spec,
            },
        };
        core.handle_message(install, &mut sched);
        assert_eq!(core.site_view(0).epoch, 1);

        core.session_timeout(id, true, &mut sched);
        let v = core
            .session_view(id)
            .expect("session retries, not resolves");
        assert_eq!(v.epoch, 1, "retry adopts the new epoch");
        assert_eq!(v.spec, new_spec);
        assert_eq!(v.votes, 1, "old-epoch pledge discarded, own vote re-seeded");
        assert_eq!(v.contributed, &[true, false, false]);
        assert_eq!(core.stats().cross_epoch_resets, 1);
    }

    /// The ablation restores the pre-fix mixing: the old-epoch pledge
    /// survives the adoption and counts toward the new threshold.
    #[test]
    fn mix_epoch_votes_ablation_keeps_stale_accumulators() {
        let cfg = test_config(true);
        let votes = VoteAssignment::uniform(3);
        let initial = QuorumSpec::new(2, 3, 3).unwrap();
        let mut core = ProtocolCore::new(&cfg, &votes, initial);
        let mut sched = BagScheduler::default();

        let id = core.open_session(0, Access::Write, None, &mut sched);
        core.handle_message(
            Message {
                from: 1,
                to: 0,
                session: id,
                payload: Payload::VoteGrant {
                    votes: 1,
                    version: 0,
                    epoch: 0,
                },
            },
            &mut sched,
        );
        let new_spec = QuorumSpec::new(2, 2, 3).unwrap();
        core.handle_message(
            Message {
                from: 2,
                to: 0,
                session: NO_SESSION,
                payload: Payload::Install {
                    epoch: 1,
                    epoch_spec: new_spec,
                },
            },
            &mut sched,
        );
        core.session_timeout(id, true, &mut sched);
        let v = core.session_view(id).unwrap();
        assert_eq!(v.epoch, 1);
        assert_eq!(v.votes, 2, "ablation keeps the epoch-0 pledge");
        assert_eq!(core.stats().cross_epoch_resets, 0);
    }

    /// A pledge granted under an older epoch arriving *after* the
    /// session adopted a newer one is ignored — the late-grant channel
    /// of the same bug, which needs no timeout to fire.
    #[test]
    fn stale_epoch_pledge_is_ignored() {
        let cfg = test_config(false);
        let votes = VoteAssignment::uniform(3);
        let initial = QuorumSpec::new(2, 3, 3).unwrap();
        let mut core = ProtocolCore::new(&cfg, &votes, initial);
        let mut sched = BagScheduler::default();

        let id = core.open_session(0, Access::Write, None, &mut sched);
        let new_spec = QuorumSpec::new(2, 2, 3).unwrap();
        core.handle_message(
            Message {
                from: 2,
                to: 0,
                session: NO_SESSION,
                payload: Payload::Install {
                    epoch: 1,
                    epoch_spec: new_spec,
                },
            },
            &mut sched,
        );
        core.session_timeout(id, true, &mut sched); // adopts epoch 1, resets
        assert_eq!(core.session_view(id).unwrap().epoch, 1);

        // The epoch-0 grant from round 0 finally lands.
        core.handle_message(
            Message {
                from: 1,
                to: 0,
                session: id,
                payload: Payload::VoteGrant {
                    votes: 1,
                    version: 0,
                    epoch: 0,
                },
            },
            &mut sched,
        );
        let v = core.session_view(id).unwrap();
        assert_eq!(v.votes, 1, "stale-epoch pledge must not count");
        assert!(!v.contributed[1]);
        assert_eq!(core.stats().stale_grants_ignored, 1);

        // Re-granted under the current epoch it counts: 2 votes reach
        // q_w = 2 and the write advances to its commit phase.
        core.handle_message(
            Message {
                from: 1,
                to: 0,
                session: id,
                payload: Payload::VoteGrant {
                    votes: 1,
                    version: 0,
                    epoch: 1,
                },
            },
            &mut sched,
        );
        let v = core.session_view(id).unwrap();
        assert_eq!(v.phase, SessionPhase::Commit);
    }

    /// Stale deliveries for resolved sessions are ignored, not panics:
    /// the old `expect("session present")` chains are gone.
    #[test]
    fn stale_deliveries_for_resolved_sessions_are_ignored() {
        let cfg = test_config(false);
        let votes = VoteAssignment::uniform(3);
        let initial = QuorumSpec::majority(3); // (2, 2)
        let mut core = ProtocolCore::new(&cfg, &votes, initial);
        let mut sched = BagScheduler::default();

        let id = core.open_session(0, Access::Read, None, &mut sched);
        core.handle_message(
            Message {
                from: 1,
                to: 0,
                session: id,
                payload: Payload::ReadValue {
                    votes: 1,
                    version: 0,
                    epoch: 0,
                },
            },
            &mut sched,
        );
        assert!(core.session_view(id).is_none(), "read committed");

        // Late replies of every session-directed kind: all ignored.
        for payload in [
            Payload::ReadValue {
                votes: 1,
                version: 0,
                epoch: 0,
            },
            Payload::VoteGrant {
                votes: 1,
                version: 0,
                epoch: 0,
            },
            Payload::CommitAck { votes: 1 },
        ] {
            core.handle_message(
                Message {
                    from: 2,
                    to: 0,
                    session: id,
                    payload,
                },
                &mut sched,
            );
        }
        assert_eq!(core.open_sessions(), 0);
        assert_eq!(core.stats().reads_committed, 0, "unmeasured session");
        // Firing a stale timer for the resolved session is also a no-op.
        core.session_timeout(id, true, &mut sched);
        assert_eq!(core.open_sessions(), 0);
    }

    fn grant(from: usize, session: SessionId) -> Message {
        Message {
            from,
            to: 0,
            session,
            payload: Payload::VoteGrant {
                votes: 1,
                version: 0,
                epoch: 0,
            },
        }
    }

    fn ack(from: usize, session: SessionId) -> Message {
        Message {
            from,
            to: 0,
            session,
            payload: Payload::CommitAck { votes: 1 },
        }
    }

    /// The session table stays sorted by id when the middle session
    /// leaves and re-enters it through `quorum_reached` (gather →
    /// commit) and both of `ack_received`'s re-insert paths (duplicate
    /// ack, ack short of the quorum), and when it finally resolves.
    #[test]
    fn session_table_keeps_id_order_across_reinserts() {
        let cfg = test_config(false);
        let votes = VoteAssignment::uniform(3);
        let mut core = ProtocolCore::new(&cfg, &votes, QuorumSpec::new(2, 3, 3).unwrap());
        let mut sched = BagScheduler::default();
        let ids: Vec<SessionId> = (0..3)
            .map(|_| core.open_session(0, Access::Write, None, &mut sched))
            .collect();
        let mid = ids[1];
        let open = |core: &ProtocolCore<'_>| core.session_ids().collect::<Vec<_>>();
        assert_eq!(open(&core), ids);

        core.handle_message(grant(1, mid), &mut sched);
        core.handle_message(grant(2, mid), &mut sched);
        assert_eq!(core.session_view(mid).unwrap().phase, SessionPhase::Commit);
        assert_eq!(open(&core), ids);

        core.handle_message(ack(1, mid), &mut sched);
        assert_eq!(core.session_view(mid).unwrap().votes, 2);
        core.handle_message(ack(1, mid), &mut sched);
        assert_eq!(
            core.session_view(mid).unwrap().votes,
            2,
            "duplicate ack ignored"
        );
        assert_eq!(open(&core), ids);

        core.handle_message(ack(2, mid), &mut sched);
        assert!(core.session_view(mid).is_none(), "write committed");
        assert_eq!(open(&core), vec![ids[0], ids[2]]);
        for &id in &[ids[0], ids[2]] {
            assert_eq!(core.session_view(id).unwrap().phase, SessionPhase::Gather);
        }
    }
}
