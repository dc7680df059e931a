//! Generic parallel batch orchestrator for §5.2-style convergence loops.
//!
//! Every multi-batch runner in the workspace follows the same shape: run
//! `min_batches` independent batches, then keep adding rounds of batches
//! until the confidence interval on the primary statistic is tight
//! enough (or `max_batches` is hit). Batches are independent by
//! construction — each derives its RNG streams from `(seed, index)` — so
//! rounds can fan out over worker threads, as long as results are merged
//! back **in batch-index order** so thread count never changes a single
//! reported number.
//!
//! [`converge`] implements that loop once, generically: the caller
//! supplies a job factory (`Fn(batch_index) -> S`), an extractor for the
//! statistic the stopping rule watches, and a consumer that receives
//! every batch result in index order (for merging histograms, feeding
//! registries, and so on). The orchestrator owns the round structure,
//! the worker threads, the [`BatchMeans`] stopping rule, the CI trace,
//! and busy-time/utilization accounting.
//!
//! ## Determinism contract
//!
//! The stopping rule is evaluated after **every** batch, in index order
//! — never at a thread-dependent round boundary. Worker threads only
//! *speculate*: a round dispatches up to `threads` batches concurrently,
//! and if the interval converges partway through the round, the batches
//! past the convergence point are discarded (their wall-clock still
//! counts as busy time, but they touch no statistic and `consume` never
//! sees them). Hence, for a fixed `(job, min_batches, max_batches,
//! target)`, the counted batches, the order `consume` observes them,
//! every [`BatchMeans`] push, and the CI trace are identical for every
//! `threads` value. Threads only change wall-clock time.
//!
//! ## Utilization accounting
//!
//! `busy` sums the wall-clock of every batch job; the denominator sums,
//! per round, `min(threads, batches-in-round) × round wall-clock` —
//! the thread-seconds actually *available* that round. A first round of
//! `min_batches = 5` on 8 configured threads only ever had 5 workers, so
//! charging 8 would understate (and charging partial rounds with the
//! whole-run wall can overstate) saturation. With per-round accounting
//! the ratio is ≤ 1 up to clock-read noise.

use crate::batch::BatchMeans;
use crate::parallel::par_map;
use std::time::{Duration, Instant};

/// Stopping rule and execution shape of one convergence loop.
#[derive(Debug, Clone, Copy)]
pub struct ConvergeParams {
    /// Confidence level of the stopping interval (e.g. 0.95).
    pub confidence: f64,
    /// Target half-width of the interval on the primary statistic.
    pub target_half_width: f64,
    /// Batches always run (first round), `>= 2`.
    pub min_batches: u64,
    /// Hard cap on batches.
    pub max_batches: u64,
    /// Worker threads (clamped to ≥ 1). Rounds after the first add
    /// `threads` batches at a time.
    pub threads: usize,
}

/// One point of the per-round convergence trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Batches accumulated when the point was recorded.
    pub batches: u64,
    /// Point estimate of the primary statistic.
    pub mean: f64,
    /// Confidence-interval half-width.
    pub half_width: f64,
}

/// Outcome of a [`converge`] run (batch payloads are delivered through
/// the `consume` callback; this holds the orchestration-level results).
#[derive(Debug, Clone)]
pub struct Convergence {
    /// Batch-means accumulator over the primary statistic.
    pub acc: BatchMeans,
    /// Batches counted toward the statistics (speculative batches
    /// discarded after convergence are excluded).
    pub batches: u64,
    /// One trace point per counted batch from the second on (the first
    /// batch count at which an interval exists).
    pub trace: Vec<TracePoint>,
    /// Summed wall-clock of every batch job, discarded speculative
    /// batches included — their workers were genuinely busy.
    pub busy: Duration,
    /// Thread-seconds available, summed per round as
    /// `min(threads, round size) × round wall-clock`.
    pub available_thread_seconds: f64,
    /// Wall-clock of the whole loop.
    pub wall: Duration,
}

impl Convergence {
    /// Busy batch-seconds over available thread-seconds, in `[0, 1]` up
    /// to clock-read noise (0 if nothing ran). 1.0 means every worker
    /// the round structure could use stayed saturated.
    pub fn utilization(&self) -> f64 {
        if self.available_thread_seconds <= 0.0 {
            0.0
        } else {
            self.busy.as_secs_f64() / self.available_thread_seconds
        }
    }
}

/// Runs one round of batch indices across up to `threads` scoped
/// workers, returning `(stats, elapsed)` pairs aligned with `indices`
/// (via [`par_map`], so the order is independent of the thread count).
fn run_round<S, J>(indices: &[u64], threads: usize, job: &J) -> Vec<(S, Duration)>
where
    S: Send,
    J: Fn(u64) -> S + Sync,
{
    par_map(indices, threads, |&i| {
        let started = Instant::now();
        let stats = job(i);
        (stats, started.elapsed())
    })
}

/// Runs batches until the confidence interval on `primary` converges.
///
/// * `job` — produces the stats of batch `index`; must depend only on
///   the index (derive RNG streams from `(seed, index)`), never on
///   execution order, so parallel runs stay bit-identical to sequential
///   ones. Called from worker threads.
/// * `primary` — extracts the statistic the stopping rule watches
///   (e.g. per-batch availability).
/// * `consume` — receives `(index, stats, job wall-clock)` for every
///   **counted** batch, in strictly increasing index order, on the
///   calling thread. Merge combined totals and feed observability here.
///
/// The first round runs `min_batches`; each later round speculatively
/// adds up to `threads` batches. Convergence is checked after every
/// batch in index order, so batches dispatched past the convergence
/// point are discarded and the outcome is thread-count-invariant.
///
/// # Panics
/// Panics if `min_batches < 2`, `max_batches < min_batches`, or the
/// confidence/half-width parameters are out of range (via
/// [`BatchMeans::new`]).
pub fn converge<S, J, P, C>(
    params: &ConvergeParams,
    job: J,
    primary: P,
    mut consume: C,
) -> Convergence
where
    S: Send,
    J: Fn(u64) -> S + Sync,
    P: Fn(&S) -> f64,
    C: FnMut(u64, S, Duration),
{
    assert!(
        params.max_batches >= params.min_batches,
        "max_batches {} < min_batches {}",
        params.max_batches,
        params.min_batches
    );
    let wall_start = Instant::now();
    let threads = params.threads.max(1);
    let mut acc = BatchMeans::new(
        params.confidence,
        params.target_half_width,
        params.min_batches,
    );
    let mut trace = Vec::new();
    let mut busy = Duration::ZERO;
    let mut available = 0.0;
    let mut next_index = 0u64;
    let mut converged = false;

    while !converged && next_index < params.max_batches {
        let goal = if next_index == 0 {
            params.min_batches
        } else {
            (next_index + threads as u64).min(params.max_batches)
        };
        let indices: Vec<u64> = (next_index..goal).collect();
        next_index = goal;

        let round_start = Instant::now();
        let results = run_round(&indices, threads, &job);
        let round_wall = round_start.elapsed().as_secs_f64();
        available += threads.min(indices.len()) as f64 * round_wall;

        for (&index, (stats, elapsed)) in indices.iter().zip(results) {
            busy += elapsed;
            if converged {
                // Speculative batch past the convergence point: the
                // work happened (and is charged as busy time), but it
                // must not influence any statistic — a sequential run
                // would never have executed it.
                continue;
            }
            acc.push_batch(primary(&stats));
            consume(index, stats, elapsed);
            if let Some(ci) = acc.interval() {
                trace.push(TracePoint {
                    batches: acc.batches(),
                    mean: acc.mean(),
                    half_width: ci.half_width,
                });
            }
            converged = acc.is_converged();
        }
    }

    Convergence {
        batches: acc.batches(),
        acc,
        trace,
        busy,
        available_thread_seconds: available,
        wall: wall_start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(threads: usize) -> ConvergeParams {
        ConvergeParams {
            confidence: 0.95,
            target_half_width: 0.005,
            min_batches: 3,
            max_batches: 9,
            threads,
        }
    }

    /// A deterministic pseudo-batch: the "stats" are a function of the
    /// index alone, like real derived-seed batches.
    fn fake_batch(i: u64) -> f64 {
        0.8 + ((i * 2_654_435_761) % 1000) as f64 * 1e-5
    }

    #[test]
    fn thread_count_never_changes_results() {
        let run = |threads| {
            let mut seen = Vec::new();
            let conv = converge(
                &params(threads),
                fake_batch,
                |&x| x,
                |i, x, _| seen.push((i, x)),
            );
            (conv.batches, conv.acc.mean(), conv.trace.clone(), seen)
        };
        let seq = run(1);
        for threads in [2, 4, 7] {
            assert_eq!(run(threads), seq, "threads = {threads}");
        }
        // Consumption order is the index order.
        let indices: Vec<u64> = seq.3.iter().map(|&(i, _)| i).collect();
        assert_eq!(indices, (0..seq.0).collect::<Vec<_>>());
    }

    #[test]
    fn zero_variance_converges_at_min_batches() {
        let conv = converge(&params(4), |_| 0.5, |&x| x, |_, _, _| {});
        assert_eq!(conv.batches, 3);
        // One trace point per counted batch once an interval exists.
        assert_eq!(conv.trace.len(), 2);
        assert_eq!(conv.trace[0].batches, 2);
        assert_eq!(conv.trace[1].batches, 3);
        assert_eq!(conv.trace[1].half_width, 0.0);
    }

    #[test]
    fn unreachable_target_stops_at_max_batches() {
        let mut p = params(4);
        p.target_half_width = 1e-12;
        let mut seen: Vec<u64> = Vec::new();
        let conv = converge(
            &p,
            |i| if i % 2 == 0 { 0.0 } else { 1.0 },
            |&x| x,
            |i, _, _| seen.push(i),
        );
        assert_eq!(conv.batches, p.max_batches);
        assert_eq!(seen, (0..p.max_batches).collect::<Vec<_>>());
        let trace_batches: Vec<u64> = conv.trace.iter().map(|t| t.batches).collect();
        assert_eq!(trace_batches, (2..=p.max_batches).collect::<Vec<_>>());
    }

    #[test]
    fn speculative_batches_past_convergence_are_discarded() {
        // fake_batch converges at 5 counted batches under the 0.005
        // target (see the sequential run). A 4-thread run dispatches a
        // second round of indices 3..7, converging after index 4 — the
        // speculative batches 5 and 6 must never reach `consume`.
        let mut seen: Vec<u64> = Vec::new();
        let conv = converge(&params(4), fake_batch, |&x| x, |i, _, _| seen.push(i));
        assert_eq!(conv.batches, 5);
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert_eq!(conv.trace.last().unwrap().batches, 5);
    }

    #[test]
    fn utilization_is_a_fraction() {
        let conv = converge(
            &params(2),
            |i| {
                std::thread::sleep(Duration::from_millis(2));
                fake_batch(i)
            },
            |&x| x,
            |_, _, _| {},
        );
        let u = conv.utilization();
        assert!(u > 0.0, "busy work must register: {u}");
        assert!(
            u <= 1.0 + 0.01,
            "cannot exceed available thread-seconds: {u}"
        );
        assert!(conv.busy.as_secs_f64() > 0.0);
        assert!(conv.available_thread_seconds > 0.0);
        assert!(conv.wall >= Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "max_batches")]
    fn max_below_min_rejected() {
        let mut p = params(1);
        p.max_batches = 2;
        converge(&p, |_| 0.0, |&x| x, |_, _, _| {});
    }
}
