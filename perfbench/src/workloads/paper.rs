//! `paper_pipeline`: the paper's §5 pipeline on its seven topologies.
//!
//! For each 101-site ring with 0, 1, 2, 4, 16, 256 or 4949 chords:
//! simulate the failure world (`run_static_observed`), estimate the
//! component-vote densities (`CurveSet::from_run`), and run the
//! Figure-1 optimizer at the five paper read fractions plus the
//! CI-indistinguishable optimum set. On the rings the access loop
//! dominates; on the 4949-chord topology link transitions do, so both
//! uses of the connectivity kernel are timed next to each other.

use crate::harness::{Metrics, Outcome, Workload};
use crate::trace::Tracer;
use quorum_core::metrics::AvailabilityMetric;
use quorum_core::optimal::optimal_set;
use quorum_core::{QuorumSpec, SearchStrategy, VoteAssignment};
use quorum_des::SimParams;
use quorum_graph::Topology;
use quorum_obs::{keys, Registry};
use quorum_replica::scenario::{PaperScenario, PAPER_ALPHAS, PAPER_CHORDS, PAPER_SITES};
use quorum_replica::{run_static_observed, CurveSet, RunConfig, Workload as AccessMix};

/// `tests/paper_shape.rs`'s tolerance on `A(α = 1, q_r = 1) ≈ 0.96`.
const A11_TOLERANCE: f64 = 0.02;

/// The §5.3 CI half-width `optimal_set` uses as its tolerance.
const OPTIMUM_TOLERANCE: f64 = 5e-3;

/// The paper pipeline at a pinned batch count.
#[derive(Debug, Clone)]
pub struct PaperPipeline {
    /// Simulation parameters; `min_batches == max_batches`.
    pub params: SimParams,
}

impl PaperPipeline {
    /// The benchmark's size: medium-scale batches, pinned at two.
    pub fn bench() -> Self {
        Self::with_batches(20_000, 150_000, 2)
    }

    /// A size small enough for unit tests.
    #[cfg(test)]
    pub fn tiny() -> Self {
        Self::with_batches(200, 2_000, 2)
    }

    fn with_batches(warmup: u64, accesses: u64, batches: u64) -> Self {
        Self {
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

/// One prepared topology.
pub struct Scenario {
    chords: usize,
    topology: Topology,
    votes: VoteAssignment,
    spec: QuorumSpec,
    mix: AccessMix,
}

const LAYER_METRICS: &[&str] = &[
    "stats.batches",
    "replica.simulate_s",
    "replica.simulate_s.c0",
    "replica.simulate_s.c1",
    "replica.simulate_s.c2",
    "replica.simulate_s.c4",
    "replica.simulate_s.c16",
    "replica.simulate_s.c256",
    "replica.simulate_s.c4949",
    "replica.ns_per_access",
    "des.events",
    "des.transitions",
    "des.events_per_access",
    "graph.cache_hit_ratio.c0",
    "graph.cache_hit_ratio.c1",
    "graph.cache_hit_ratio.c2",
    "graph.cache_hit_ratio.c4",
    "graph.cache_hit_ratio.c16",
    "graph.cache_hit_ratio.c256",
    "graph.cache_hit_ratio.c4949",
    "graph.delta_merges.c0",
    "graph.delta_merges.c1",
    "graph.delta_merges.c2",
    "graph.delta_merges.c4",
    "graph.delta_merges.c16",
    "graph.delta_merges.c256",
    "graph.delta_merges.c4949",
    "graph.delta_rescans.c0",
    "graph.delta_rescans.c1",
    "graph.delta_rescans.c2",
    "graph.delta_rescans.c4",
    "graph.delta_rescans.c16",
    "graph.delta_rescans.c256",
    "graph.delta_rescans.c4949",
    "graph.delta_noops.c0",
    "graph.delta_noops.c1",
    "graph.delta_noops.c2",
    "graph.delta_noops.c4",
    "graph.delta_noops.c16",
    "graph.delta_noops.c256",
    "graph.delta_noops.c4949",
    "core.curves_s",
    "core.optimize_s",
    "core.optimizer_evaluations",
];

impl Workload for PaperPipeline {
    type State = (u64, Vec<Scenario>);

    fn params(&self) -> Vec<(&'static str, String)> {
        let p = &self.params;
        vec![
            ("sites", PAPER_SITES.to_string()),
            ("chords", format!("{PAPER_CHORDS:?}")),
            ("alphas", format!("{PAPER_ALPHAS:?}")),
            ("q_r", (PAPER_SITES / 2).to_string()),
            ("warmup_accesses", p.warmup_accesses.to_string()),
            ("batch_accesses", p.batch_accesses.to_string()),
            ("batches", p.min_batches.to_string()),
            ("threads", "1".to_string()),
        ]
    }

    fn setup_batch(&self) -> usize {
        20
    }

    fn layer_metrics(&self) -> &'static [&'static str] {
        LAYER_METRICS
    }

    fn setup(&self, seed: u64, _tracer: &mut Tracer) -> Self::State {
        let scenarios = PAPER_CHORDS
            .iter()
            .map(|&chords| {
                let topology = PaperScenario::new(chords).topology();
                let n = topology.num_sites();
                let total = n as u64;
                Scenario {
                    chords,
                    topology,
                    votes: VoteAssignment::uniform(n),
                    spec: QuorumSpec::from_read_quorum(total / 2, total)
                        .expect("majority read quorum is legal"),
                    mix: AccessMix::uniform(n, 0.5),
                }
            })
            .collect();
        (seed, scenarios)
    }

    fn iterate(&self, (seed, scenarios): &Self::State, tracer: &mut Tracer) -> Outcome {
        let mut counters = Metrics::new();
        let mut check = Ok(());
        let (mut accesses, mut batches, mut events, mut transitions, mut evaluations) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        for sc in scenarios {
            let registry = Registry::new();
            let cfg = RunConfig {
                params: self.params,
                seed: *seed,
                threads: 1,
            };
            let results = tracer.span(
                "quorum-replica",
                format!("replica.simulate_s.c{}", sc.chords),
                |_| {
                    run_static_observed(
                        &sc.topology,
                        sc.votes.clone(),
                        sc.spec,
                        sc.mix.clone(),
                        cfg,
                        &registry,
                    )
                },
            );
            let curves = tracer.span("quorum-core", "core.curves_s", |_| {
                CurveSet::from_run(&results)
            });
            tracer.span("quorum-core", "core.optimize_s", |_| {
                for &alpha in &PAPER_ALPHAS {
                    evaluations += curves
                        .optimal(alpha, SearchStrategy::Exhaustive)
                        .evaluations as u64;
                }
                let model = curves.model(AvailabilityMetric::Accessibility);
                std::hint::black_box(optimal_set(model, 0.5, OPTIMUM_TOLERANCE));
            });

            let a11 = curves.availability(AvailabilityMetric::Accessibility, 1.0, 1);
            if !results.is_one_copy_serializable() {
                check = Err(format!("c{}: one-copy serializability violated", sc.chords));
            } else if (a11 - 0.96).abs() > A11_TOLERANCE {
                check = Err(format!("c{}: A(1, 1) = {a11}, expected 0.96", sc.chords));
            }

            let snap = registry.snapshot();
            let hits = snap.counter(keys::CACHE_HITS) as f64;
            let recomputes = snap.counter(keys::CACHE_RECOMPUTATIONS) as f64;
            let c = sc.chords;
            counters.insert(
                format!("graph.cache_hit_ratio.c{c}"),
                hits / (hits + recomputes).max(1.0),
            );
            for (metric, key) in [
                ("graph.delta_merges", keys::DELTA_MERGES),
                ("graph.delta_rescans", keys::DELTA_RESCANS),
                ("graph.delta_noops", keys::DELTA_NOOPS),
            ] {
                counters.insert(format!("{metric}.c{c}"), snap.counter(key) as f64);
            }
            accesses += snap.counter(keys::DES_ACCESSES);
            batches += snap.counter(keys::RUN_BATCHES);
            events += snap.counter(keys::DES_EVENTS);
            transitions +=
                snap.counter(keys::DES_SITE_TRANSITIONS) + snap.counter(keys::DES_LINK_TRANSITIONS);
        }
        counters.insert("stats.batches".into(), batches as f64);
        counters.insert("des.events".into(), events as f64);
        counters.insert("des.transitions".into(), transitions as f64);
        counters.insert(
            "des.events_per_access".into(),
            events as f64 / accesses.max(1) as f64,
        );
        counters.insert("core.optimizer_evaluations".into(), evaluations as f64);
        Outcome {
            work: accesses,
            fixed_work: vec![("des.accesses", accesses), ("stats.batches", batches)],
            check,
            counters,
        }
    }

    fn layers(&self, outcome: &Outcome, tracer: &Tracer, mark: usize, _peak_rss: f64) -> Metrics {
        let mut m = outcome.counters.clone();
        let mut simulate = 0.0;
        for c in PAPER_CHORDS {
            let name = format!("replica.simulate_s.c{c}");
            let secs = tracer.self_secs(mark, &name);
            simulate += secs;
            m.insert(name, secs);
        }
        m.insert("replica.simulate_s".into(), simulate);
        m.insert(
            "replica.ns_per_access".into(),
            simulate * 1e9 / outcome.work.max(1) as f64,
        );
        m.insert(
            "core.curves_s".into(),
            tracer.self_secs(mark, "core.curves_s"),
        );
        m.insert(
            "core.optimize_s".into(),
            tracer.self_secs(mark, "core.optimize_s"),
        );
        m
    }
}
