//! `model_check`: the bounded explorer on the standard universe, capped
//! at a fixed state count.
//!
//! It is the only workload that canonicalizes and deduplicates states,
//! and it touches no event queue, no connectivity kernel and no RNG, so
//! it is the predicts-no-change control for every simulator change. The
//! seed changes nothing here; the run records it all the same.

use crate::harness::{Metrics, Outcome, Workload};
use crate::trace::Tracer;
use quorum_mc::{explore, ExploreOptions, Universe};

/// The capped exploration.
#[derive(Debug, Clone)]
pub struct ModelCheck {
    /// States explored before the cap stops the search.
    pub max_states: u64,
}

impl ModelCheck {
    /// The benchmark's size.
    pub fn bench() -> Self {
        Self {
            max_states: 250_000,
        }
    }

    /// A size small enough for unit tests.
    #[cfg(test)]
    pub fn tiny() -> Self {
        Self { max_states: 2_000 }
    }

    fn options(&self) -> ExploreOptions {
        ExploreOptions {
            reduction: true,
            symmetry: true,
            max_states: Some(self.max_states),
            ..ExploreOptions::default()
        }
    }
}

const LAYER_METRICS: &[&str] = &[
    "mc.explore_s",
    "mc.states",
    "mc.transitions_per_state",
    "mc.reduction_ratio",
    "mc.bytes_per_state",
];

impl Workload for ModelCheck {
    type State = Universe;

    fn params(&self) -> Vec<(&'static str, String)> {
        vec![
            ("universe", "standard".to_string()),
            ("max_states", self.max_states.to_string()),
            ("reduction", "true".to_string()),
            ("symmetry", "true".to_string()),
            ("threads", "1".to_string()),
        ]
    }

    fn setup_batch(&self) -> usize {
        20_000
    }

    fn layer_metrics(&self) -> &'static [&'static str] {
        LAYER_METRICS
    }

    fn setup(&self, _seed: u64, _tracer: &mut Tracer) -> Universe {
        let universe = Universe::standard();
        universe.validate();
        universe
    }

    fn iterate(&self, universe: &Universe, tracer: &mut Tracer) -> Outcome {
        let report = tracer.span("quorum-mc", "mc.explore_s", |_| {
            explore(universe, &self.options())
        });
        let check = if report.violations() != 0 {
            Err(format!("{} invariant violations", report.violations()))
        } else if report.truncated != 0 {
            Err(format!("{} states depth-truncated", report.truncated))
        } else if !report.capped || report.states_explored != self.max_states {
            Err(format!(
                "explored {} states, expected exactly the cap of {}",
                report.states_explored, self.max_states
            ))
        } else {
            Ok(())
        };
        let states = report.states_explored;
        let counters = Metrics::from([
            ("mc.states".to_string(), states as f64),
            (
                "mc.transitions_per_state".to_string(),
                report.transitions as f64 / states.max(1) as f64,
            ),
            (
                "mc.reduction_ratio".to_string(),
                (report.por_skips + report.noop_skips) as f64 / report.transitions.max(1) as f64,
            ),
        ]);
        Outcome {
            work: states,
            fixed_work: vec![
                ("mc.states_explored", states),
                ("mc.transitions", report.transitions),
            ],
            check,
            counters,
        }
    }

    fn layers(&self, outcome: &Outcome, tracer: &Tracer, mark: usize, peak_rss: f64) -> Metrics {
        let mut m = outcome.counters.clone();
        m.insert(
            "mc.explore_s".into(),
            tracer.self_secs(mark, "mc.explore_s"),
        );
        m.insert(
            "mc.bytes_per_state".into(),
            peak_rss / outcome.work.max(1) as f64,
        );
        m
    }
}
