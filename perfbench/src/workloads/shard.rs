//! `shard_steady`: the million-object stripe walk over a long failure
//! timeline, single-threaded.
//!
//! The horizon is long enough (50 time units: thousands of epochs and
//! dozens of site transitions on full-101) that the all-up start is a
//! small share of the walk. The stripe kernel does almost all the work
//! and the replica access loop none, so a kernel change shows here and
//! not on `paper_pipeline`.

use crate::harness::{Metrics, Outcome, Workload};
use crate::trace::Tracer;
use quorum_core::analytic::fully_connected_density;
use quorum_des::SimParams;
use quorum_graph::Topology;
use quorum_shard::{FailureTimeline, ObjectCatalog, ShardEngine};

/// Sites of the full-101 topology.
const SITES: usize = 101;

/// Objects of the reduced catalog the once-per-run engine cross-check
/// walks with the naive binary-heap reference.
const CHECK_OBJECTS: u64 = 20_000;

/// The steady shard walk at a pinned object count and horizon.
#[derive(Debug, Clone)]
pub struct ShardSteady {
    /// Objects in the catalog.
    pub objects: u64,
    /// Simulated horizon of the failure timeline.
    pub horizon: f64,
    /// Contiguous object shards walked one after another.
    pub shards: u64,
    /// Read-fraction buckets per object class.
    pub alpha_buckets: usize,
    /// Spread of the buckets around each class's read fraction.
    pub alpha_spread: f64,
    /// Objects of the reduced catalog used by [`Workload::check_once`].
    pub check_objects: u64,
}

impl ShardSteady {
    /// The benchmark's size.
    pub fn bench() -> Self {
        Self {
            objects: 1_000_000,
            horizon: 50.0,
            shards: 64,
            alpha_buckets: 4,
            alpha_spread: 0.2,
            check_objects: CHECK_OBJECTS,
        }
    }

    /// A size small enough for unit tests.
    #[cfg(test)]
    pub fn tiny() -> Self {
        Self {
            objects: 2_000,
            horizon: 2.0,
            shards: 4,
            check_objects: 300,
            ..Self::bench()
        }
    }

    fn catalog(&self, objects: u64) -> ObjectCatalog {
        let r = SimParams::paper().reliability;
        let density = fully_connected_density(SITES, r, r);
        ObjectCatalog::paper_mix(SITES, objects).with_optimized_assignments(
            &density,
            self.alpha_buckets,
            self.alpha_spread,
        )
    }
}

/// What set-up builds. The engine itself only borrows these, so binding
/// one per call costs nothing.
pub struct Prepared {
    seed: u64,
    topology: Topology,
    catalog: ObjectCatalog,
    timeline: FailureTimeline,
}

impl Prepared {
    fn engine(&self, horizon: f64) -> ShardEngine<'_> {
        ShardEngine::new(
            &self.topology,
            &self.catalog,
            &self.timeline,
            horizon,
            self.seed,
        )
    }
}

const LAYER_METRICS: &[&str] = &[
    "stats.batches",
    "core.catalog_s",
    "core.optimizer_evaluations",
    "shard.timeline_build_s",
    "shard.epochs",
    "shard.walk_s",
    "shard.ns_per_access",
    "shard.accesses_per_epoch",
];

impl Workload for ShardSteady {
    type State = Prepared;

    fn params(&self) -> Vec<(&'static str, String)> {
        vec![
            ("topology", format!("full-{SITES}")),
            ("objects", self.objects.to_string()),
            ("horizon", self.horizon.to_string()),
            ("shards", self.shards.to_string()),
            ("alpha_buckets", self.alpha_buckets.to_string()),
            ("alpha_spread", self.alpha_spread.to_string()),
            ("check_objects", self.check_objects.to_string()),
            ("threads", "1".to_string()),
        ]
    }

    fn layer_metrics(&self) -> &'static [&'static str] {
        LAYER_METRICS
    }

    fn setup(&self, seed: u64, tracer: &mut Tracer) -> Prepared {
        let topology = Topology::fully_connected(SITES);
        let catalog = tracer.span("quorum-core", "core.catalog_s", |_| {
            self.catalog(self.objects)
        });
        let timeline = tracer.span("quorum-shard", "shard.timeline_build_s", |_| {
            FailureTimeline::build(&topology, &catalog, &SimParams::paper(), self.horizon, seed)
        });
        Prepared {
            seed,
            topology,
            catalog,
            timeline,
        }
    }

    /// The batched walk equals the naive binary-heap reference on a
    /// reduced catalog, and its counters do not depend on the shard
    /// count.
    fn check_once(&self, st: &Prepared) -> Result<(), String> {
        let catalog = self.catalog(self.check_objects);
        let timeline = FailureTimeline::build(
            &st.topology,
            &catalog,
            &SimParams::paper(),
            self.horizon,
            st.seed,
        );
        let small = Prepared {
            seed: st.seed,
            topology: st.topology.clone(),
            catalog,
            timeline,
        };
        let engine = small.engine(self.horizon);
        let (sharded, _) = engine.run_sharded(self.shards, 1);
        let (other, _) = engine.run_sharded(7, 1);
        let naive = engine.run_naive();
        if sharded != naive {
            return Err("batched walk and naive heap disagree".into());
        }
        if sharded != other {
            return Err(format!(
                "counters differ between {} and 7 shards",
                self.shards
            ));
        }
        Ok(())
    }

    fn iterate(&self, st: &Prepared, tracer: &mut Tracer) -> Outcome {
        let (stats, conv) = tracer.span("quorum-shard", "shard.walk_s", |_| {
            st.engine(self.horizon).run_sharded(self.shards, 1)
        });
        let check = if stats.accesses != stats.reads_submitted + stats.writes_submitted {
            Err("accesses != reads + writes submitted".to_string())
        } else if stats.reads_granted > stats.reads_submitted
            || stats.writes_granted > stats.writes_submitted
        {
            Err("more accesses granted than submitted".to_string())
        } else {
            Ok(())
        };
        let epochs = st.timeline.num_epochs() as f64;
        let counters = Metrics::from([
            ("stats.batches".to_string(), conv.batches as f64),
            ("shard.epochs".to_string(), epochs),
            (
                "shard.accesses_per_epoch".to_string(),
                stats.accesses as f64 / epochs,
            ),
            (
                "core.optimizer_evaluations".to_string(),
                st.catalog.optimizer_evaluations() as f64,
            ),
        ]);
        Outcome {
            work: stats.accesses,
            fixed_work: vec![
                ("shard.accesses", stats.accesses),
                ("stats.batches", conv.batches),
            ],
            check,
            counters,
        }
    }

    fn layers(&self, outcome: &Outcome, tracer: &Tracer, mark: usize, _peak_rss: f64) -> Metrics {
        let mut m = outcome.counters.clone();
        let walk = tracer.self_secs(mark, "shard.walk_s");
        m.insert("shard.walk_s".into(), walk);
        m.insert(
            "shard.ns_per_access".into(),
            walk * 1e9 / outcome.work.max(1) as f64,
        );
        m.insert(
            "core.catalog_s".into(),
            tracer.median_self_secs("core.catalog_s"),
        );
        m.insert(
            "shard.timeline_build_s".into(),
            tracer.median_self_secs("shard.timeline_build_s"),
        );
        m
    }
}
