//! `cluster_lossy`: the message-level engine on a lossy, slow network.
//!
//! It drives the same `quorum-des` event queue as the paper pipeline,
//! but with message deliveries, cancellable session timers and retries
//! instead of failure and access events, so a queue change that helps
//! one and costs the other shows on one of the two workloads.

use crate::harness::{Metrics, Outcome, Workload};
use crate::trace::Tracer;
use quorum_cluster::{run_cluster_observed, ClusterConfig, ClusterEngine, LatencyDist, RunOptions};
use quorum_core::{QuorumSpec, VoteAssignment};
use quorum_des::SimParams;
use quorum_graph::Topology;
use quorum_obs::Registry;
use quorum_replica::Workload as AccessMix;

/// The lossy ring-9 cluster at a pinned batch count.
#[derive(Debug, Clone)]
pub struct ClusterLossy {
    /// Sites on the ring.
    pub sites: usize,
    /// Read fraction of the access mix.
    pub alpha: f64,
    /// Read quorum (the write quorum is `sites − q_r + 1`).
    pub q_r: u64,
    /// Mean of the exponential per-message latency.
    pub latency_mean: f64,
    /// Per-message loss probability.
    pub loss: f64,
    /// First-round session timeout.
    pub timeout: f64,
    /// Retry rounds after a timeout.
    pub retries: u32,
    /// Simulation parameters; `min_batches == max_batches`.
    pub params: SimParams,
}

impl ClusterLossy {
    /// The benchmark's size: medium-scale batches, pinned.
    pub fn bench() -> Self {
        Self::with_batches(20_000, 150_000, 3)
    }

    /// A size small enough for unit tests.
    #[cfg(test)]
    pub fn tiny() -> Self {
        Self::with_batches(200, 2_000, 2)
    }

    fn with_batches(warmup: u64, accesses: u64, batches: u64) -> Self {
        Self {
            sites: 9,
            alpha: 0.7,
            q_r: 4,
            latency_mean: 0.02,
            loss: 0.02,
            timeout: 0.25,
            retries: 3,
            params: SimParams {
                warmup_accesses: warmup,
                batch_accesses: accesses,
                min_batches: batches,
                max_batches: batches,
                ci_half_width: 0.01,
                ..SimParams::paper()
            },
        }
    }
}

/// What set-up builds.
pub struct Prepared {
    seed: u64,
    topology: Topology,
    config: ClusterConfig,
    spec: QuorumSpec,
    votes: VoteAssignment,
    mix: AccessMix,
}

const LAYER_METRICS: &[&str] = &[
    "stats.batches",
    "des.events",
    "des.transitions",
    "des.events_per_access",
    "cluster.run_s",
    "cluster.messages_sent",
    "cluster.messages_per_access",
    "cluster.retry_ratio",
    "cluster.drop_ratio",
    "cluster.timers_cancelled",
];

impl Workload for ClusterLossy {
    type State = Prepared;

    fn params(&self) -> Vec<(&'static str, String)> {
        let p = &self.params;
        vec![
            ("topology", format!("ring-{}", self.sites)),
            ("alpha", self.alpha.to_string()),
            ("q_r", self.q_r.to_string()),
            ("latency", format!("exponential mean {}", self.latency_mean)),
            ("loss", self.loss.to_string()),
            ("timeout", self.timeout.to_string()),
            ("retries", self.retries.to_string()),
            ("warmup_accesses", p.warmup_accesses.to_string()),
            ("batch_accesses", p.batch_accesses.to_string()),
            ("batches", p.min_batches.to_string()),
            ("threads", "1".to_string()),
        ]
    }

    fn setup_batch(&self) -> usize {
        5_000
    }

    fn layer_metrics(&self) -> &'static [&'static str] {
        LAYER_METRICS
    }

    fn setup(&self, seed: u64, _tracer: &mut Tracer) -> Prepared {
        let topology = Topology::ring(self.sites);
        let votes = VoteAssignment::uniform(self.sites);
        let spec = QuorumSpec::from_read_quorum(self.q_r, votes.total())
            .expect("q_r is legal for the ring's vote total");
        let mix = AccessMix::uniform(self.sites, self.alpha);
        let mut config = ClusterConfig::new(self.params);
        config.net.latency = LatencyDist::Exponential {
            mean: self.latency_mean,
        };
        config.net.loss = self.loss;
        config.session_timeout = self.timeout;
        config.max_retries = self.retries;
        // Building an engine validates the configuration against the
        // topology, votes and spec, as every batch's engine will.
        std::hint::black_box(ClusterEngine::with_votes(
            &topology,
            config.clone(),
            spec,
            votes.clone(),
            mix.clone(),
            seed,
        ));
        Prepared {
            seed,
            topology,
            config,
            spec,
            votes,
            mix,
        }
    }

    fn iterate(&self, st: &Prepared, tracer: &mut Tracer) -> Outcome {
        let registry = Registry::new();
        let res = tracer.span("quorum-cluster", "cluster.run_s", |_| {
            run_cluster_observed(
                &st.topology,
                &st.config,
                st.spec,
                st.votes.clone(),
                st.mix.clone(),
                RunOptions::sequential(st.seed),
                &registry,
            )
        });
        let c = &res.combined;
        let check = if !res.is_fresh() {
            Err(format!("{} stale committed reads", c.freshness_violations))
        } else if c.messages_delivered + c.messages_dropped > c.messages_sent {
            Err("more messages delivered and dropped than sent".to_string())
        } else {
            Ok(())
        };
        let accesses = c.reads_submitted + c.writes_submitted;
        let per_access = |x: u64| x as f64 / accesses.max(1) as f64;
        let counters = Metrics::from([
            ("stats.batches".to_string(), res.batches as f64),
            ("des.events".to_string(), c.events_processed as f64),
            (
                "des.transitions".to_string(),
                (c.site_transitions + c.link_transitions) as f64,
            ),
            (
                "des.events_per_access".to_string(),
                per_access(c.events_processed),
            ),
            ("cluster.messages_sent".to_string(), c.messages_sent as f64),
            (
                "cluster.messages_per_access".to_string(),
                per_access(c.messages_sent),
            ),
            (
                "cluster.retry_ratio".to_string(),
                c.retries as f64 / c.sessions_opened.max(1) as f64,
            ),
            (
                "cluster.drop_ratio".to_string(),
                c.messages_dropped as f64 / c.messages_sent.max(1) as f64,
            ),
            (
                "cluster.timers_cancelled".to_string(),
                c.timers_cancelled as f64,
            ),
        ]);
        Outcome {
            work: accesses,
            fixed_work: vec![
                ("cluster.accesses_submitted", accesses),
                ("cluster.messages_sent", c.messages_sent),
                ("stats.batches", res.batches),
            ],
            check,
            counters,
        }
    }

    fn layers(&self, outcome: &Outcome, tracer: &Tracer, mark: usize, _peak_rss: f64) -> Metrics {
        let mut m = outcome.counters.clone();
        m.insert(
            "cluster.run_s".into(),
            tracer.self_secs(mark, "cluster.run_s"),
        );
        m
    }
}
