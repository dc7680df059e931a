//! The measurement loop every workload shares, the declared metric
//! schema, and the order statistics the report uses.
//!
//! One run of one workload:
//!
//! 1. **Set-up**, timed; the state it builds is the one the body uses.
//! 2. The once-per-run check ([`Workload::check_once`]), untimed.
//! 3. One untimed **warm-up** iteration; its fixed-work counters become
//!    the reference every later iteration must repeat exactly. The
//!    process's peak resident set is read here: timed iterations repeat
//!    the same work, and the extra set-up samples below would otherwise
//!    count a second copy of the state.
//! 4. Timed iterations of identical, pinned work until the time budget
//!    is spent. `wall_s` is their median. With tracing on, traced and
//!    untraced iterations alternate; end-to-end numbers come only from
//!    the untraced ones. After each iteration one more set-up is timed
//!    and thrown away, so `setup_s`, the median set-up sample, is
//!    sampled across the same stretch of time as the body rather than
//!    in one burst that a momentary slow-down of the host would skew.
//!
//! A set-up sample times [`Workload::setup_batch`] consecutive set-ups
//! and divides, so microsecond set-ups are not lost in clock noise; all
//! but the last of a sample's states are freed inside the timed loop.

use crate::host;
use crate::trace::Tracer;
use quorum_obs::JsonValue;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Metric name → value.
pub type Metrics = BTreeMap<String, f64>;

/// End-to-end metrics: every untraced run reports each of them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, with their units. A workload
/// measures the subset it declares in [`Workload::layer_metrics`]; the
/// two `harness` metrics are measured on every workload.
pub const PER_LAYER: [(&str, &str); 63] = [
    // harness
    ("proc.cpu_s", "s"),
    ("trace.overhead", "ratio"),
    // quorum-stats
    ("stats.batches", "count"),
    // quorum-replica
    ("replica.simulate_s", "s"),
    ("replica.simulate_s.c0", "s"),
    ("replica.simulate_s.c1", "s"),
    ("replica.simulate_s.c2", "s"),
    ("replica.simulate_s.c4", "s"),
    ("replica.simulate_s.c16", "s"),
    ("replica.simulate_s.c256", "s"),
    ("replica.simulate_s.c4949", "s"),
    ("replica.ns_per_access", "ns"),
    // quorum-des
    ("des.events", "count"),
    ("des.transitions", "count"),
    ("des.events_per_access", "ratio"),
    // quorum-graph, one set per paper topology
    ("graph.cache_hit_ratio.c0", "ratio"),
    ("graph.cache_hit_ratio.c1", "ratio"),
    ("graph.cache_hit_ratio.c2", "ratio"),
    ("graph.cache_hit_ratio.c4", "ratio"),
    ("graph.cache_hit_ratio.c16", "ratio"),
    ("graph.cache_hit_ratio.c256", "ratio"),
    ("graph.cache_hit_ratio.c4949", "ratio"),
    ("graph.delta_merges.c0", "count"),
    ("graph.delta_merges.c1", "count"),
    ("graph.delta_merges.c2", "count"),
    ("graph.delta_merges.c4", "count"),
    ("graph.delta_merges.c16", "count"),
    ("graph.delta_merges.c256", "count"),
    ("graph.delta_merges.c4949", "count"),
    ("graph.delta_rescans.c0", "count"),
    ("graph.delta_rescans.c1", "count"),
    ("graph.delta_rescans.c2", "count"),
    ("graph.delta_rescans.c4", "count"),
    ("graph.delta_rescans.c16", "count"),
    ("graph.delta_rescans.c256", "count"),
    ("graph.delta_rescans.c4949", "count"),
    ("graph.delta_noops.c0", "count"),
    ("graph.delta_noops.c1", "count"),
    ("graph.delta_noops.c2", "count"),
    ("graph.delta_noops.c4", "count"),
    ("graph.delta_noops.c16", "count"),
    ("graph.delta_noops.c256", "count"),
    ("graph.delta_noops.c4949", "count"),
    // quorum-core
    ("core.curves_s", "s"),
    ("core.optimize_s", "s"),
    ("core.catalog_s", "s"),
    ("core.optimizer_evaluations", "count"),
    // quorum-shard
    ("shard.timeline_build_s", "s"),
    ("shard.epochs", "count"),
    ("shard.walk_s", "s"),
    ("shard.ns_per_access", "ns"),
    ("shard.accesses_per_epoch", "ratio"),
    // quorum-cluster
    ("cluster.run_s", "s"),
    ("cluster.messages_sent", "count"),
    ("cluster.messages_per_access", "ratio"),
    ("cluster.retry_ratio", "ratio"),
    ("cluster.drop_ratio", "ratio"),
    ("cluster.timers_cancelled", "count"),
    // quorum-mc
    ("mc.explore_s", "s"),
    ("mc.states", "count"),
    ("mc.transitions_per_state", "ratio"),
    ("mc.reduction_ratio", "ratio"),
    ("mc.bytes_per_state", "B"),
];

/// Per-layer metrics measured on every workload.
pub const HARNESS_LAYER: [&str; 2] = ["proc.cpu_s", "trace.overhead"];

/// Bytes per MB as `peak_rss_mb` counts them.
const MIB: f64 = 1024.0 * 1024.0;

/// What one iteration of a workload body produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Units of work the program itself counted (accesses, or explored
    /// states); `work_per_s` divides it by the body's median wall time.
    pub work: u64,
    /// Counters that pin the amount of work. Every iteration of a run
    /// must repeat the warm-up's values exactly.
    pub fixed_work: Vec<(&'static str, u64)>,
    /// The iteration's output check.
    pub check: Result<(), String>,
    /// Per-layer counts and ratios read from the program's registry
    /// and returned stats (times come from spans, see
    /// [`Workload::layers`]).
    pub counters: Metrics,
}

/// A benchmark workload: set-up, one body iteration, and how its trace
/// maps onto per-layer metrics.
pub trait Workload {
    /// What set-up builds and every iteration reads.
    type State;

    /// The workload's parameters, recorded in the run metadata.
    fn params(&self) -> Vec<(&'static str, String)>;

    /// Set-ups timed back to back in one set-up sample (about 10 ms of
    /// work per sample).
    fn setup_batch(&self) -> usize {
        1
    }

    /// The per-layer metrics this workload measures, besides
    /// [`HARNESS_LAYER`].
    fn layer_metrics(&self) -> &'static [&'static str];

    /// One-time preparation the body needs; its time is `setup_s`.
    fn setup(&self, seed: u64, tracer: &mut Tracer) -> Self::State;

    /// A check run once per run, outside the timed body.
    fn check_once(&self, _state: &Self::State) -> Result<(), String> {
        Ok(())
    }

    /// One iteration of the body, with spans around each layer call.
    fn iterate(&self, state: &Self::State, tracer: &mut Tracer) -> Outcome;

    /// Per-layer metrics of one traced iteration: its outcome, the
    /// tracer (spans since `mark` belong to the iteration; earlier ones
    /// to set-up), and the process's peak resident bytes.
    fn layers(&self, outcome: &Outcome, tracer: &Tracer, mark: usize, peak_rss: f64) -> Metrics;
}

/// Everything one run reports.
#[derive(Debug)]
pub struct Report {
    /// No check failed: the once-per-run check, the warm-up, and every
    /// timed iteration.
    pub correct: bool,
    /// Timed iterations run.
    pub attempted: u64,
    /// Timed iterations whose output check failed or whose fixed-work
    /// counters differed from the warm-up's.
    pub failed: u64,
    /// End-to-end metrics, from untraced iterations only.
    pub end_to_end: Metrics,
    /// Per-layer metrics (empty unless traced).
    pub per_layer: Metrics,
    /// Run metadata: timings behind the medians and the fixed-work
    /// counters.
    pub meta: JsonValue,
    /// Every span, when traced.
    pub spans: Option<JsonValue>,
}

/// Runs `workload` for about `seconds` of timed body.
pub fn run<W: Workload>(workload: &W, seed: u64, seconds: f64, traced: bool) -> Report {
    let rss_start = host::rss_bytes();
    let mut tracer = if traced { Tracer::on() } else { Tracer::off() };
    let mut off = Tracer::off();
    let mut correct = true;

    let batch = workload.setup_batch().max(1);
    let mut setup_samples = Vec::new();
    let mut timed_setup = |tracer: &mut Tracer| {
        let started = Instant::now();
        for _ in 1..batch {
            std::hint::black_box(workload.setup(seed, tracer));
        }
        let state = workload.setup(seed, tracer);
        setup_samples.push(started.elapsed().as_secs_f64() / batch as f64);
        state
    };
    let state = timed_setup(&mut tracer);

    if let Err(e) = workload.check_once(&state) {
        eprintln!("once-per-run check failed: {e}");
        correct = false;
    }
    let reference = workload.iterate(&state, &mut off);
    if let Err(e) = &reference.check {
        eprintln!("warm-up check failed: {e}");
        correct = false;
    }
    let peak_rss = host::peak_rss_bytes();

    let min_iterations = if traced { 4 } else { 3 };
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut cpu = Vec::new();
    let mut layer_samples: Vec<Metrics> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let body_started = Instant::now();
    loop {
        let trace_this = traced && attempted % 2 == 1;
        let mark = tracer.mark();
        let cpu_before = host::cpu_secs();
        let started = Instant::now();
        let outcome = if trace_this {
            tracer.span("harness", "harness.iteration", |t| {
                workload.iterate(&state, t)
            })
        } else {
            workload.iterate(&state, &mut off)
        };
        let wall = started.elapsed().as_secs_f64();
        attempted += 1;
        let mut ok = true;
        if let Err(e) = &outcome.check {
            eprintln!("iteration {attempted}: check failed: {e}");
            ok = false;
        }
        if outcome.fixed_work != reference.fixed_work {
            eprintln!(
                "iteration {attempted}: fixed-work counters {:?} differ from the warm-up's {:?}",
                outcome.fixed_work, reference.fixed_work
            );
            ok = false;
        }
        if !ok {
            failed += 1;
            correct = false;
        }
        if trace_this {
            traced_walls.push(wall);
            cpu.push(host::cpu_secs() - cpu_before);
            layer_samples.push(workload.layers(&outcome, &tracer, mark, peak_rss as f64));
        } else {
            untraced_walls.push(wall);
        }
        drop(timed_setup(&mut tracer));

        let elapsed = body_started.elapsed().as_secs_f64();
        let walls: Vec<f64> = untraced_walls
            .iter()
            .chain(&traced_walls)
            .copied()
            .collect();
        let typical = median(&walls);
        let enough = attempted >= min_iterations && (!traced || attempted % 2 == 0);
        if enough && elapsed + typical > seconds {
            break;
        }
    }

    let wall_s = median(&untraced_walls);
    let mut end_to_end = Metrics::new();
    end_to_end.insert("wall_s".into(), wall_s);
    end_to_end.insert("setup_s".into(), median(&setup_samples));
    end_to_end.insert("work_per_s".into(), reference.work as f64 / wall_s);
    // The whole process's peak: it runs this one workload and nothing
    // else. Subtracting the start-up resident set instead leaves a
    // sub-megabyte figure on cluster_lossy whose page-level allocator
    // noise alone moves it by 10-20 % between runs of one seed.
    end_to_end.insert("peak_rss_mb".into(), peak_rss as f64 / MIB);

    let mut per_layer = Metrics::new();
    if traced {
        per_layer = median_by_key(&layer_samples);
        per_layer.insert("proc.cpu_s".into(), median(&cpu));
        per_layer.insert(
            "trace.overhead".into(),
            median(&traced_walls) / wall_s - 1.0,
        );
        let declared = workload.layer_metrics().iter().chain(&HARNESS_LAYER);
        if !per_layer
            .keys()
            .map(String::as_str)
            .eq(declared.copied().collect::<BTreeSet<_>>())
        {
            eprintln!(
                "measured per-layer metrics {:?} differ from the declared ones",
                per_layer.keys()
            );
            correct = false;
        }
    }

    let mut meta = JsonValue::object();
    meta.insert("setup_samples_s", numbers(&setup_samples));
    meta.insert(
        "rss_before_setup_mb",
        JsonValue::Num(rss_start as f64 / MIB),
    );
    meta.insert("untraced_walls_s", numbers(&untraced_walls));
    meta.insert("traced_walls_s", numbers(&traced_walls));
    if untraced_walls.len() >= 2 {
        let (q1, q2, q3) = quartiles(&untraced_walls);
        meta.insert("untraced_wall_quartiles_s", numbers(&[q1, q2, q3]));
    }
    let mut fixed = JsonValue::object();
    for (name, value) in &reference.fixed_work {
        fixed.insert(name, JsonValue::Int(*value));
    }
    meta.insert("fixed_work", fixed);
    meta.insert("work", JsonValue::Int(reference.work));

    Report {
        correct,
        attempted,
        failed,
        end_to_end,
        per_layer,
        meta,
        spans: traced.then(|| tracer.to_json()),
    }
}

fn numbers(values: &[f64]) -> JsonValue {
    JsonValue::Array(values.iter().map(|&v| JsonValue::Num(v)).collect())
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First, second and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the default `exclusive`
/// method), so spreads read the same here as in the acceptance check.
///
/// # Panics
/// Panics on fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Per-key median over samples that each carry the same keys.
pub fn median_by_key(samples: &[Metrics]) -> Metrics {
    let mut keys: Vec<&String> = samples.iter().flat_map(|s| s.keys()).collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .map(|k| {
            let values: Vec<f64> = samples.iter().filter_map(|s| s.get(k).copied()).collect();
            (k.clone(), median(&values))
        })
        .collect()
}

#[cfg(test)]
/// A metric name the benchmark's output format accepts: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn median_by_key_takes_each_keys_median() {
        let s = |a: f64, b: f64| Metrics::from([("a".to_string(), a), ("b".to_string(), b)]);
        let m = median_by_key(&[s(1.0, 10.0), s(3.0, 30.0), s(2.0, 20.0)]);
        assert_eq!(m["a"], 2.0);
        assert_eq!(m["b"], 20.0);
    }

    #[test]
    fn metric_names_are_well_formed() {
        for (name, _) in END_TO_END.into_iter().chain(PER_LAYER) {
            assert!(valid_metric_name(name), "{name}");
        }
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name(".hidden"));
        assert!(!valid_metric_name("a b"));
        assert!(!valid_metric_name(&"x".repeat(65)));
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "metric names are used once");
    }
}
