//! The actor-style cluster engine: one deterministic event loop in which
//! every site is a state machine exchanging typed messages.
//!
//! ## Execution model
//!
//! Each batch runs the same §5.2 stochastic environment as the
//! instantaneous simulator — identical failure renewal processes,
//! identical Poisson access stream, identical workload sampling, all on
//! the same derived RNG streams — but resolves each access through a
//! multi-message quorum-gathering *session*:
//!
//! 1. the submitting site (coordinator) opens a session, pledges its own
//!    votes, and broadcasts [`Payload::VoteRequest`];
//! 2. reachable sites answer with [`Payload::ReadValue`] /
//!    [`Payload::VoteGrant`] (or [`Payload::VoteDeny`] if they hold a
//!    newer assignment epoch);
//! 3. reads commit when pledged votes reach `q_r`; writes additionally
//!    run a commit phase ([`Payload::WriteCommit`] →
//!    [`Payload::CommitAck`]) and commit when acks reach `q_w`;
//! 4. a cancellable per-session timer drives bounded exponential-backoff
//!    retries; exhausted retries resolve [`Outcome::TimedOut`], a down
//!    coordinator resolves [`Outcome::Unavailable`].
//!
//! The protocol rules themselves live in [`crate::protocol`]: the state
//! machines are a [`ProtocolCore`] driven through the
//! [`Scheduler`](crate::protocol::Scheduler) trait. This event loop
//! supplies the stochastic environment — Bernoulli loss, sampled
//! latencies, failure processes, the Poisson access stream — while the
//! `quorum-mc` model checker drives the *same* core through an
//! exhaustive scheduler.
//!
//! Messages cross the topology's connectivity: a message is delivered
//! iff sender and receiver are up and mutually reachable *at the
//! delivery instant* (see [`crate::net`]).
//!
//! ## Degeneracy
//!
//! Under [`ClusterConfig::ideal`] (zero latency, zero loss, no retries)
//! the whole cascade of a session collapses onto its dispatch instant:
//! the FIFO tie-break of the event queue processes every request and
//! reply before simulated time advances, so a session commits exactly
//! when the instantaneous simulator would grant — access for access,
//! not merely in distribution. `tests/cluster_degeneracy.rs` asserts
//! this against [`quorum_replica::Simulation`] on ring, fully-connected,
//! and bus topologies.

use crate::config::ClusterConfig;
use crate::message::{Message, SessionId};
use crate::net::NetConfig;
use crate::protocol::{ProtocolCore, Scheduler, TimerToken};
use crate::stats::{ClusterStats, Outcome};
use quorum_core::{Access, QuorumSpec, VoteAssignment};
use quorum_des::{EventKey, EventQueue, PoissonProcess, SimTime};
use quorum_graph::{ComponentCache, NetworkState, Topology, TopologyEvent};
use quorum_replica::failure::FailureProcesses;
use quorum_replica::Workload;
use quorum_stats::rng::{derive_seed, rng_from_seed};
use rand::rngs::StdRng;
use rand::Rng;

/// One scheduled event of the cluster event loop.
///
/// Public so alternative drivers (e.g. the demonstration
/// [`Scheduler`] impl on [`EventQueue<Event>`]) can name the queue's
/// payload type; the engine itself constructs and consumes these
/// internally.
#[derive(Debug, Clone, Copy)]
pub enum Event {
    /// Site `i` flips up/down (failure renewal process).
    SiteTransition(usize),
    /// Link `i` flips up/down.
    LinkTransition(usize),
    /// The next Poisson access arrives.
    Access,
    /// An in-flight message reaches its destination.
    Deliver(Message),
    /// The session's retry timer fires.
    SessionTimeout(SessionId),
    /// Scripted install step `i` executes at its origin.
    Install(usize),
}

/// The trivial ideal-network driver: an [`EventQueue`] over [`Event`]
/// *is* a scheduler — sends become zero-latency, loss-free deliveries
/// and timers become plain cancellable entries.
///
/// The engine itself layers loss and latency on top via [`NetScheduler`];
/// this impl exists so a [`ProtocolCore`] can be driven directly off a
/// bare queue (unit tests, examples) with no stochastic machinery at all.
impl Scheduler for EventQueue<Event> {
    fn now(&self) -> SimTime {
        EventQueue::now(self)
    }

    fn send(&mut self, msg: Message) -> bool {
        self.schedule_in(0.0, Event::Deliver(msg));
        true
    }

    fn arm_timer(&mut self, id: SessionId, timeout: f64) -> TimerToken {
        TimerToken::new(
            self.schedule_cancellable_in(timeout, Event::SessionTimeout(id))
                .raw(),
        )
    }

    fn cancel_timer(&mut self, token: TimerToken) -> bool {
        self.cancel(EventKey::from_raw(token.raw()))
    }
}

/// The stochastic transport: Bernoulli loss at the sender, sampled
/// latency otherwise, timers as cancellable queue entries. Borrows the
/// batch's queue and network RNG for the duration of one protocol step.
struct NetScheduler<'q> {
    queue: &'q mut EventQueue<Event>,
    net: &'q NetConfig,
    rng: &'q mut StdRng,
}

impl Scheduler for NetScheduler<'_> {
    fn now(&self) -> SimTime {
        self.queue.now()
    }

    fn send(&mut self, msg: Message) -> bool {
        if self.net.loss > 0.0 && self.rng.random::<f64>() < self.net.loss {
            return false;
        }
        let latency = self.net.latency.sample(self.rng);
        self.queue.schedule_in(latency, Event::Deliver(msg));
        true
    }

    fn arm_timer(&mut self, id: SessionId, timeout: f64) -> TimerToken {
        TimerToken::new(
            self.queue
                .schedule_cancellable_in(timeout, Event::SessionTimeout(id))
                .raw(),
        )
    }

    fn cancel_timer(&mut self, token: TimerToken) -> bool {
        self.queue.cancel(EventKey::from_raw(token.raw()))
    }
}

/// The message-level cluster simulation of one topology.
///
/// Mirrors [`quorum_replica::Simulation`]'s construction and batching
/// surface so callers can run both against identical environments.
pub struct ClusterEngine<'a> {
    topology: &'a Topology,
    config: ClusterConfig,
    votes: VoteAssignment,
    initial_spec: QuorumSpec,
    workload: Workload,
    master_seed: u64,
    batches_run: u64,
    site_reliabilities: Option<Vec<f64>>,
    link_reliabilities: Option<Vec<f64>>,
}

impl<'a> ClusterEngine<'a> {
    /// Creates an engine with uniform one-vote-per-site assignment.
    pub fn new(
        topology: &'a Topology,
        config: ClusterConfig,
        spec: QuorumSpec,
        workload: Workload,
        master_seed: u64,
    ) -> Self {
        Self::with_votes(
            topology,
            config,
            spec,
            VoteAssignment::uniform(topology.num_sites()),
            workload,
            master_seed,
        )
    }

    /// Creates an engine with an explicit vote assignment.
    ///
    /// # Panics
    /// Panics on inconsistent dimensions, an invalid configuration, or a
    /// spec/install script that is not jointly safe (see
    /// [`crate::config::jointly_safe`]).
    pub fn with_votes(
        topology: &'a Topology,
        config: ClusterConfig,
        spec: QuorumSpec,
        votes: VoteAssignment,
        workload: Workload,
        master_seed: u64,
    ) -> Self {
        config.validate(spec, topology.num_sites());
        assert_eq!(
            votes.num_sites(),
            topology.num_sites(),
            "vote assignment must cover every site"
        );
        assert_eq!(
            workload.num_sites(),
            topology.num_sites(),
            "workload must cover every site"
        );
        assert_eq!(
            spec.total(),
            votes.total(),
            "quorum spec must match the vote total"
        );
        Self {
            topology,
            config,
            votes,
            initial_spec: spec,
            workload,
            master_seed,
            batches_run: 0,
            site_reliabilities: None,
            link_reliabilities: None,
        }
    }

    /// Overrides per-site reliabilities (same semantics as
    /// [`quorum_replica::Simulation::with_site_reliabilities`]).
    ///
    /// # Panics
    /// Panics on length mismatch or probabilities outside `(0, 1)`.
    pub fn with_site_reliabilities(mut self, reliabilities: Vec<f64>) -> Self {
        assert_eq!(
            reliabilities.len(),
            self.topology.num_sites(),
            "one reliability per site"
        );
        for &p in &reliabilities {
            assert!(p > 0.0 && p < 1.0, "site reliability must lie in (0,1)");
        }
        self.site_reliabilities = Some(reliabilities);
        self
    }

    /// Overrides per-link reliabilities.
    ///
    /// # Panics
    /// Panics on length mismatch or probabilities outside `(0, 1)`.
    pub fn with_link_reliabilities(mut self, reliabilities: Vec<f64>) -> Self {
        assert_eq!(
            reliabilities.len(),
            self.topology.num_links(),
            "one reliability per link"
        );
        for &p in &reliabilities {
            assert!(p > 0.0 && p < 1.0, "link reliability must lie in (0,1)");
        }
        self.link_reliabilities = Some(reliabilities);
        self
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Runs the next batch (auto-incrementing batch index).
    pub fn run_batch(&mut self) -> ClusterStats {
        let i = self.batches_run;
        self.batches_run += 1;
        self.run_indexed_batch(i)
    }

    /// Runs one warm-up + measurement batch with an explicit index. The
    /// batch dispatches `warmup + batch_accesses` accesses, then keeps
    /// processing events until every open session has resolved.
    pub fn run_indexed_batch(&mut self, batch_index: u64) -> ClusterStats {
        let n = self.topology.num_sites();
        let m = self.topology.num_links();
        let seed = derive_seed(self.master_seed, batch_index);

        // Streams 1–3 are identical to the instantaneous simulator's;
        // stream 4 is new and feeds only the network (loss/latency), so
        // an ideal network leaves the shared streams bit-for-bit aligned.
        let fail_rng: StdRng = rng_from_seed(derive_seed(seed, 1));
        let access_rng: StdRng = rng_from_seed(derive_seed(seed, 2));
        let workload_rng: StdRng = rng_from_seed(derive_seed(seed, 3));
        let net_rng: StdRng = rng_from_seed(derive_seed(seed, 4));

        let mut procs = FailureProcesses::new(
            &self.config.params,
            n,
            m,
            self.site_reliabilities.as_deref(),
            self.link_reliabilities.as_deref(),
        );
        let mut queue: EventQueue<Event> = EventQueue::new();
        let mut fail_rng = fail_rng;
        procs.schedule_initial(
            &mut queue,
            &mut fail_rng,
            Event::SiteTransition,
            Event::LinkTransition,
        );
        let access_proc = PoissonProcess::new(n as f64 / self.config.params.mu_access);
        let mut access_rng = access_rng;
        queue.schedule(
            SimTime::new(access_proc.next_gap(&mut access_rng)),
            Event::Access,
        );
        for (i, step) in self.config.installs.iter().enumerate() {
            queue.schedule(SimTime::new(step.at), Event::Install(i));
        }

        let mut core = ProtocolCore::new(&self.config, &self.votes, self.initial_spec);
        if self.config.record_outcomes {
            core.stats_mut().outcomes = vec![None; self.config.params.batch_accesses as usize];
        }

        let warmup = self.config.params.warmup_accesses;
        let target = warmup + self.config.params.batch_accesses;

        let mut batch = Batch {
            topology: self.topology,
            votes: &self.votes,
            config: &self.config,
            queue,
            state: NetworkState::all_up(self.topology),
            cache: ComponentCache::new(),
            procs,
            fail_rng,
            access_rng,
            workload_rng,
            net_rng,
            access_proc,
            workload: self.workload.clone(),
            core,
            warmup,
            target,
            accesses_seen: 0,
            measured_start: None,
            now: SimTime::ZERO,
        };

        while batch.accesses_seen < target || batch.core.open_sessions() > 0 {
            let (t, ev) = batch.queue.pop().expect("regenerative streams never drain");
            batch.now = t;
            match ev {
                Event::SiteTransition(i) => {
                    batch.core.stats_mut().site_transitions += 1;
                    let (up, gap) = batch.procs.site_transition(i, &mut batch.fail_rng);
                    if batch.state.set_site(i, up) {
                        batch.cache.apply_event(
                            batch.topology,
                            &batch.state,
                            batch.votes.as_slice(),
                            TopologyEvent::Site { site: i, up },
                        );
                    }
                    batch.queue.schedule_in(gap, Event::SiteTransition(i));
                }
                Event::LinkTransition(i) => {
                    batch.core.stats_mut().link_transitions += 1;
                    let (up, gap) = batch.procs.link_transition(i, &mut batch.fail_rng);
                    if batch.state.set_link(i, up) {
                        batch.cache.apply_event(
                            batch.topology,
                            &batch.state,
                            batch.votes.as_slice(),
                            TopologyEvent::Link { link: i, up },
                        );
                    }
                    batch.queue.schedule_in(gap, Event::LinkTransition(i));
                }
                Event::Access => batch.dispatch_access(),
                Event::Deliver(msg) => batch.deliver(msg),
                Event::SessionTimeout(id) => batch.session_timeout(id),
                Event::Install(idx) => batch.scripted_install(idx),
            }
        }

        let delta = batch.cache.delta_counters();
        let violations = batch.core.checker().violations();
        let mut stats = batch.core.take_stats();
        stats.delta_merges = delta.merges;
        stats.delta_rescans = delta.rescans;
        stats.delta_noops = delta.noops;
        stats.full_recomputes = delta.full_recomputes;
        stats.events_processed = batch.queue.popped();
        stats.timers_cancelled = batch.queue.cancelled();
        stats.freshness_violations = violations;
        if let Some(start) = batch.measured_start {
            stats.measured_duration = batch.now - start;
        }
        stats
    }
}

/// All mutable state of one running batch: the stochastic environment
/// (failure processes, access stream, transport RNG) wrapped around the
/// scheduler-agnostic [`ProtocolCore`].
struct Batch<'a> {
    topology: &'a Topology,
    votes: &'a VoteAssignment,
    config: &'a ClusterConfig,
    queue: EventQueue<Event>,
    state: NetworkState,
    cache: ComponentCache,
    procs: FailureProcesses,
    fail_rng: StdRng,
    access_rng: StdRng,
    workload_rng: StdRng,
    net_rng: StdRng,
    access_proc: PoissonProcess,
    workload: Workload,
    core: ProtocolCore<'a>,
    warmup: u64,
    target: u64,
    accesses_seen: u64,
    measured_start: Option<SimTime>,
    now: SimTime,
}

impl Batch<'_> {
    /// Handles an access arrival: sample the workload and either resolve
    /// `Unavailable` (origin down — no session opened) or hand the
    /// access to the protocol core.
    fn dispatch_access(&mut self) {
        self.accesses_seen += 1;
        if self.accesses_seen < self.target {
            let gap = self.access_proc.next_gap(&mut self.access_rng);
            self.queue.schedule_in(gap, Event::Access);
        }
        let (kind, origin) = self.workload.sample(&mut self.workload_rng);
        let measured = self.accesses_seen > self.warmup;
        let measured_index = measured.then(|| self.accesses_seen - self.warmup - 1);
        if measured {
            if self.measured_start.is_none() {
                self.measured_start = Some(self.now);
            }
            match kind {
                Access::Read => self.core.stats_mut().reads_submitted += 1,
                Access::Write => self.core.stats_mut().writes_submitted += 1,
            }
        }
        if !self.state.site_up(origin) {
            if measured {
                match kind {
                    Access::Read => self.core.stats_mut().reads_unavailable += 1,
                    Access::Write => self.core.stats_mut().writes_unavailable += 1,
                }
            }
            if self.config.record_outcomes {
                if let Some(i) = measured_index {
                    self.core.stats_mut().outcomes[i as usize] = Some((kind, Outcome::Unavailable));
                }
            }
            return;
        }
        let mut sched = NetScheduler {
            queue: &mut self.queue,
            net: &self.config.net,
            rng: &mut self.net_rng,
        };
        self.core
            .open_session(origin, kind, measured_index, &mut sched);
    }

    /// Processes a delivery: drop if the endpoints are not mutually
    /// reachable at this instant, else run the receiving actor's step.
    fn deliver(&mut self, msg: Message) {
        let connected = {
            let view = self
                .cache
                .view(self.topology, &self.state, self.votes.as_slice());
            view.connected(msg.from, msg.to)
        };
        if !connected {
            self.core.stats_mut().messages_dropped += 1;
            return;
        }
        self.core.stats_mut().messages_delivered += 1;
        let mut sched = NetScheduler {
            queue: &mut self.queue,
            net: &self.config.net,
            rng: &mut self.net_rng,
        };
        self.core.handle_message(msg, &mut sched);
    }

    /// Session timer fired: the core retries or resolves `TimedOut`,
    /// given the coordinator's liveness at this instant.
    fn session_timeout(&mut self, id: SessionId) {
        let Some(origin) = self.core.session_origin(id) else {
            return; // cancelled timers never fire; defensive only
        };
        let origin_up = self.state.site_up(origin);
        let mut sched = NetScheduler {
            queue: &mut self.queue,
            net: &self.config.net,
            rng: &mut self.net_rng,
        };
        self.core.session_timeout(id, origin_up, &mut sched);
    }

    /// Executes a scripted install: the origin (if up) adopts the new
    /// assignment and broadcasts it. Epochs follow script order.
    fn scripted_install(&mut self, idx: usize) {
        let step = self.config.installs[idx];
        if !self.state.site_up(step.origin) {
            return; // a down origin skips its install
        }
        let epoch = (idx + 1) as u64;
        let mut sched = NetScheduler {
            queue: &mut self.queue,
            net: &self.config.net,
            rng: &mut self.net_rng,
        };
        self.core
            .apply_install(step.origin, epoch, step.spec, &mut sched);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InstallStep;
    use crate::net::{LatencyDist, NetConfig};
    use quorum_des::SimParams;

    fn quick_params() -> SimParams {
        SimParams {
            warmup_accesses: 300,
            batch_accesses: 3_000,
            ..SimParams::paper()
        }
    }

    #[test]
    fn ideal_cluster_matches_high_availability() {
        let topo = Topology::fully_connected(9);
        let mut eng = ClusterEngine::new(
            &topo,
            ClusterConfig::ideal(quick_params()),
            QuorumSpec::majority(9),
            Workload::uniform(9, 0.5),
            3,
        );
        let stats = eng.run_batch();
        assert_eq!(stats.submitted(), 3_000);
        assert!(stats.availability() > 0.9, "{}", stats.availability());
        assert_eq!(stats.freshness_violations, 0);
        assert_eq!(stats.retries, 0, "no retries configured");
        assert!(stats.messages_sent > 0);
        // Messages still queued when the batch drains (late replies to
        // already-resolved sessions) are neither delivered nor dropped.
        assert!(stats.messages_delivered + stats.messages_dropped <= stats.messages_sent);
    }

    #[test]
    fn deterministic_given_seed() {
        let topo = Topology::ring(9);
        let run = |seed| {
            let mut eng = ClusterEngine::new(
                &topo,
                ClusterConfig::new(quick_params()),
                QuorumSpec::majority(9),
                Workload::uniform(9, 0.5),
                seed,
            );
            let s = eng.run_batch();
            (
                s.reads_committed,
                s.writes_committed,
                s.messages_sent,
                s.events_processed,
            )
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn latency_shows_up_in_histograms() {
        let topo = Topology::fully_connected(7);
        let mut cfg = ClusterConfig::new(quick_params());
        cfg.net = NetConfig {
            latency: LatencyDist::Constant(0.05),
            loss: 0.0,
        };
        // Bucket edges chosen off the exact hop sums (0.10, 0.20), which
        // float rounding can land on either side of.
        cfg.latency_bounds = vec![0.09, 0.15, 0.3];
        let mut eng = ClusterEngine::new(
            &topo,
            cfg,
            QuorumSpec::majority(7),
            Workload::uniform(7, 0.5),
            5,
        );
        let stats = eng.run_batch();
        // A retry-free read needs request + reply: 2 hops of 0.05, the
        // [0.09, 0.15) bucket; retried sessions add timeout-sized
        // latencies but are a small minority.
        let reads = stats.read_latency.observations();
        assert!(reads > 0);
        assert!(stats.read_latency.counts()[1] as f64 > 0.8 * reads as f64);
        assert!(stats.read_latency.mean() >= 0.099);
        // A retry-free write needs request + grant + commit + ack: 4 hops
        // of 0.05, the [0.15, 0.3) bucket.
        let writes = stats.write_latency.observations();
        assert!(stats.write_latency.counts()[2] as f64 > 0.8 * writes as f64);
        assert!(stats.write_latency.mean() >= 0.199);
        assert!(stats.goodput() > 0.0);
    }

    #[test]
    fn loss_triggers_retries_and_safe_commits() {
        let topo = Topology::fully_connected(9);
        let mut cfg = ClusterConfig::new(quick_params());
        cfg.net = NetConfig {
            latency: LatencyDist::Constant(0.02),
            loss: 0.25,
        };
        let mut eng = ClusterEngine::new(
            &topo,
            cfg,
            QuorumSpec::majority(9),
            Workload::uniform(9, 0.5),
            7,
        );
        let stats = eng.run_batch();
        assert!(stats.retries > 0, "25% loss must force retries");
        assert!(stats.messages_dropped > 0);
        assert!(stats.availability() > 0.5, "{}", stats.availability());
        assert_eq!(
            stats.freshness_violations, 0,
            "two-phase commit keeps reads fresh under loss"
        );
        assert!(stats.timers_cancelled > 0, "commits void their timers");
    }

    #[test]
    fn installs_propagate_and_stay_safe() {
        let topo = Topology::fully_connected(10);
        let mut cfg = ClusterConfig::new(quick_params());
        cfg.net = NetConfig {
            latency: LatencyDist::Constant(0.02),
            loss: 0.10,
        };
        cfg.installs = vec![InstallStep {
            at: 50.0,
            origin: 0,
            spec: QuorumSpec::new(5, 7, 10).unwrap(),
        }];
        let mut eng = ClusterEngine::new(
            &topo,
            cfg,
            QuorumSpec::majority(10),
            Workload::uniform(10, 0.5),
            9,
        );
        let stats = eng.run_batch();
        assert!(
            stats.installs_applied >= 5,
            "install must reach most sites (got {})",
            stats.installs_applied
        );
        assert_eq!(stats.freshness_violations, 0);
    }

    #[test]
    fn commit_on_grant_ablation_is_caught_by_the_checker() {
        // Lossy network + unsafe early commit: the client hears
        // "committed" while WriteCommits are still dropping. Later reads
        // land on stale replicas and the checker must notice.
        let topo = Topology::fully_connected(9);
        let mut cfg = ClusterConfig::new(quick_params());
        cfg.net = NetConfig {
            latency: LatencyDist::Constant(0.05),
            loss: 0.4,
        };
        cfg.commit_on_grant = true;
        let mut eng = ClusterEngine::new(
            &topo,
            cfg,
            QuorumSpec::majority(9),
            Workload::uniform(9, 0.5),
            13,
        );
        let stats = eng.run_batch();
        assert!(
            stats.freshness_violations > 0,
            "unsafe commit under 40% loss must produce stale reads"
        );
    }

    #[test]
    fn retries_across_installs_reset_cross_epoch_accumulators() {
        // Lossy network with an install mid-run: some sessions time out
        // with an old-epoch accumulator, adopt the new assignment on
        // retry, and must discard their stale pledges. The dedicated
        // counter proves the path is exercised at stochastic scale (the
        // unit- and model-level evidence lives in `protocol` and
        // `quorum-mc`).
        let topo = Topology::fully_connected(10);
        let mut cfg = ClusterConfig::new(quick_params());
        cfg.net = NetConfig {
            latency: LatencyDist::Constant(0.08),
            loss: 0.35,
        };
        cfg.session_timeout = 0.2;
        cfg.installs = vec![InstallStep {
            at: 30.0,
            origin: 3,
            spec: QuorumSpec::new(5, 7, 10).unwrap(),
        }];
        let mut eng = ClusterEngine::new(
            &topo,
            cfg,
            QuorumSpec::majority(10),
            Workload::uniform(10, 0.5),
            21,
        );
        let stats = eng.run_batch();
        assert!(stats.retries > 0);
        assert!(
            stats.cross_epoch_resets > 0,
            "an install under heavy loss must catch sessions mid-retry"
        );
        assert_eq!(stats.freshness_violations, 0);
    }

    #[test]
    fn outcome_sequence_covers_every_measured_access() {
        let topo = Topology::ring(9);
        let mut cfg = ClusterConfig::ideal(quick_params());
        cfg.record_outcomes = true;
        let mut eng = ClusterEngine::new(
            &topo,
            cfg,
            QuorumSpec::majority(9),
            Workload::uniform(9, 0.5),
            17,
        );
        let stats = eng.run_batch();
        assert_eq!(stats.outcomes.len(), 3_000);
        assert!(stats.outcomes.iter().all(Option::is_some));
        let committed = stats
            .outcomes
            .iter()
            .filter(|o| matches!(o, Some((_, Outcome::Committed))))
            .count() as u64;
        assert_eq!(committed, stats.committed());
    }

    #[test]
    fn batches_are_independent_streams() {
        let topo = Topology::ring(9);
        let mut eng = ClusterEngine::new(
            &topo,
            ClusterConfig::ideal(quick_params()),
            QuorumSpec::majority(9),
            Workload::uniform(9, 0.5),
            3,
        );
        let a = eng.run_batch();
        let b = eng.run_batch();
        assert_ne!(
            (a.reads_committed, a.writes_committed),
            (b.reads_committed, b.writes_committed)
        );
    }

    #[test]
    fn bare_event_queue_is_an_ideal_scheduler() {
        // The demonstration impl: drive the protocol core directly off
        // an EventQueue with no loss/latency machinery.
        let cfg = ClusterConfig::ideal(SimParams::quick());
        let votes = VoteAssignment::uniform(3);
        let mut core = ProtocolCore::new(&cfg, &votes, QuorumSpec::majority(3));
        let mut queue: EventQueue<Event> = EventQueue::new();
        let id = core.open_session(0, Access::Write, Some(0), &mut queue);
        // Drain deliveries until the session resolves: request → grant →
        // commit → ack, all at time zero.
        while core.session_view(id).is_some() {
            let (_, ev) = queue.pop().expect("protocol must make progress");
            match ev {
                Event::Deliver(msg) => core.handle_message(msg, &mut queue),
                Event::SessionTimeout(_) => unreachable!("timer was cancelled"),
                _ => unreachable!("no other events scheduled"),
            }
        }
        assert_eq!(core.stats().writes_committed, 1);
        assert_eq!(core.checker().violations(), 0);
    }
}
