//! Result containers for simulation batches and multi-batch runs.

use quorum_obs::CiPoint;
use quorum_stats::{BatchMeans, ConfidenceInterval, CountingHistogram};

/// Everything measured during one batch.
#[derive(Debug, Clone)]
pub struct BatchStats {
    /// Read accesses submitted (after warm-up).
    pub reads_submitted: u64,
    /// Read accesses granted.
    pub reads_granted: u64,
    /// Write accesses submitted.
    pub writes_submitted: u64,
    /// Write accesses granted.
    pub writes_granted: u64,
    /// Histogram of votes reachable from the submitting site at each
    /// access instant (0 for a down site) — the on-line sample of the
    /// mixture `r(v) = w(v)` under uniform access.
    pub access_votes: CountingHistogram,
    /// Same observation split by access kind: the sample of `r(v)`.
    /// Differs from `write_votes` exactly when `r_i ≠ w_i`.
    pub read_votes: CountingHistogram,
    /// The sample of `w(v)`.
    pub write_votes: CountingHistogram,
    /// Histogram of the *largest* component's votes at each access
    /// instant — drives the SURV variant (§3, footnote 3).
    pub largest_votes: CountingHistogram,
    /// Per-site histograms (the estimator bank each site would keep).
    pub per_site_votes: Vec<CountingHistogram>,
    /// Time-weighted mass over component votes (one entry per vote count,
    /// averaged over sites), populated only when the simulation enables
    /// time weighting. Lets tests verify PASTA: Poisson access instants
    /// see time averages, so this must match `access_votes`.
    pub time_weighted_votes: Vec<f64>,
    /// Total measured simulated time backing `time_weighted_votes`.
    pub measured_time: f64,
    /// Measured accesses for which *some* component could have granted the
    /// access — the SURV numerator (§3). Only counted when the run enables
    /// survivability probing.
    pub surv_possible: u64,
    /// Sites contacted by measured accesses: a granted access contacts the
    /// cheapest member set reaching its quorum; a denied access polls the
    /// whole component before giving up. (Vote-collection messages; the
    /// reply leg doubles it.)
    pub contact_messages: u64,
    /// Granted reads that missed the most recent write (0 under valid
    /// quorums — condition 1).
    pub stale_reads: u64,
    /// Granted writes that did not see the most recent write — lost
    /// updates (0 under valid quorums — condition 2).
    pub write_conflicts: u64,
    /// Component view refreshes performed.
    pub cache_recomputations: u64,
    /// Accesses served without recomputation.
    pub cache_hits: u64,
    /// Topology events the incremental kernel absorbed by merging
    /// components.
    pub delta_merges: u64,
    /// Topology events absorbed by re-scanning one component.
    pub delta_rescans: u64,
    /// Topology events filtered as partition-preserving no-ops.
    pub delta_noops: u64,
    /// Topology events absorbed by a from-scratch kernel rebuild.
    pub full_recomputes: u64,
    /// DES events popped from the future-event list (all kinds,
    /// including warm-up).
    pub events_processed: u64,
    /// Site up/down transitions applied.
    pub site_transitions: u64,
    /// Link up/down transitions applied.
    pub link_transitions: u64,
    /// Accesses dispatched, warm-up included (`submitted()` counts only
    /// the measured ones).
    pub accesses_dispatched: u64,
}

impl BatchStats {
    /// Creates empty stats for a system of `n_sites` sites and `total`
    /// votes.
    pub fn new(n_sites: usize, total_votes: usize) -> Self {
        Self {
            reads_submitted: 0,
            reads_granted: 0,
            writes_submitted: 0,
            writes_granted: 0,
            access_votes: CountingHistogram::new(total_votes),
            read_votes: CountingHistogram::new(total_votes),
            write_votes: CountingHistogram::new(total_votes),
            largest_votes: CountingHistogram::new(total_votes),
            per_site_votes: (0..n_sites)
                .map(|_| CountingHistogram::new(total_votes))
                .collect(),
            time_weighted_votes: vec![0.0; total_votes + 1],
            measured_time: 0.0,
            surv_possible: 0,
            contact_messages: 0,
            stale_reads: 0,
            write_conflicts: 0,
            cache_recomputations: 0,
            cache_hits: 0,
            delta_merges: 0,
            delta_rescans: 0,
            delta_noops: 0,
            full_recomputes: 0,
            events_processed: 0,
            site_transitions: 0,
            link_transitions: 0,
            accesses_dispatched: 0,
        }
    }

    /// Total accesses submitted.
    pub fn submitted(&self) -> u64 {
        self.reads_submitted + self.writes_submitted
    }

    /// Total accesses granted.
    pub fn granted(&self) -> u64 {
        self.reads_granted + self.writes_granted
    }

    /// ACC estimate: fraction of all accesses granted.
    pub fn availability(&self) -> f64 {
        if self.submitted() == 0 {
            0.0
        } else {
            self.granted() as f64 / self.submitted() as f64
        }
    }

    /// Fraction of reads granted.
    pub fn read_availability(&self) -> f64 {
        if self.reads_submitted == 0 {
            0.0
        } else {
            self.reads_granted as f64 / self.reads_submitted as f64
        }
    }

    /// Time-weighted density of component votes (PASTA cross-check).
    ///
    /// # Panics
    /// Panics if time weighting was not enabled (no measured time).
    pub fn time_weighted_density(&self) -> quorum_stats::DiscreteDist {
        assert!(
            self.measured_time > 0.0,
            "time weighting was not enabled on this run"
        );
        let norm = self.measured_time * self.per_site_votes.len() as f64;
        quorum_stats::DiscreteDist::from_pmf(
            self.time_weighted_votes.iter().map(|&m| m / norm).collect(),
        )
    }

    /// SURV estimate: fraction of accesses some component could serve
    /// (0 when probing was disabled).
    pub fn surv_availability(&self) -> f64 {
        if self.submitted() == 0 {
            0.0
        } else {
            self.surv_possible as f64 / self.submitted() as f64
        }
    }

    /// Mean vote-collection contacts per measured access.
    pub fn contacts_per_access(&self) -> f64 {
        if self.submitted() == 0 {
            0.0
        } else {
            self.contact_messages as f64 / self.submitted() as f64
        }
    }

    /// Fraction of writes granted.
    pub fn write_availability(&self) -> f64 {
        if self.writes_submitted == 0 {
            0.0
        } else {
            self.writes_granted as f64 / self.writes_submitted as f64
        }
    }

    /// Merges another batch's raw observations into this one.
    pub fn merge(&mut self, other: &BatchStats) {
        self.reads_submitted += other.reads_submitted;
        self.reads_granted += other.reads_granted;
        self.writes_submitted += other.writes_submitted;
        self.writes_granted += other.writes_granted;
        self.access_votes.merge(&other.access_votes);
        self.read_votes.merge(&other.read_votes);
        self.write_votes.merge(&other.write_votes);
        self.largest_votes.merge(&other.largest_votes);
        assert_eq!(self.per_site_votes.len(), other.per_site_votes.len());
        for (a, b) in self.per_site_votes.iter_mut().zip(&other.per_site_votes) {
            a.merge(b);
        }
        assert_eq!(
            self.time_weighted_votes.len(),
            other.time_weighted_votes.len()
        );
        for (a, b) in self
            .time_weighted_votes
            .iter_mut()
            .zip(&other.time_weighted_votes)
        {
            *a += b;
        }
        self.measured_time += other.measured_time;
        self.surv_possible += other.surv_possible;
        self.contact_messages += other.contact_messages;
        self.stale_reads += other.stale_reads;
        self.write_conflicts += other.write_conflicts;
        self.cache_recomputations += other.cache_recomputations;
        self.cache_hits += other.cache_hits;
        self.delta_merges += other.delta_merges;
        self.delta_rescans += other.delta_rescans;
        self.delta_noops += other.delta_noops;
        self.full_recomputes += other.full_recomputes;
        self.events_processed += other.events_processed;
        self.site_transitions += other.site_transitions;
        self.link_transitions += other.link_transitions;
        self.accesses_dispatched += other.accesses_dispatched;
    }

    /// Records the batch's event and cache totals into an observability
    /// registry under the [`quorum_obs::keys`] names.
    pub fn observe_into(&self, registry: &quorum_obs::Registry) {
        use quorum_obs::keys;
        registry.add(keys::DES_EVENTS, self.events_processed);
        registry.add(keys::DES_SITE_TRANSITIONS, self.site_transitions);
        registry.add(keys::DES_LINK_TRANSITIONS, self.link_transitions);
        registry.add(keys::DES_ACCESSES, self.accesses_dispatched);
        registry.add(keys::CACHE_HITS, self.cache_hits);
        registry.add(keys::CACHE_RECOMPUTATIONS, self.cache_recomputations);
        registry.add(keys::DELTA_MERGES, self.delta_merges);
        registry.add(keys::DELTA_RESCANS, self.delta_rescans);
        registry.add(keys::DELTA_NOOPS, self.delta_noops);
        registry.add(keys::FULL_RECOMPUTES, self.full_recomputes);
    }
}

/// Aggregated outcome of a multi-batch run.
#[derive(Debug, Clone)]
pub struct RunResults {
    /// Batch-means accumulator over per-batch ACC.
    pub acc: BatchMeans,
    /// Batch-means accumulator over per-batch read availability.
    pub read_acc: BatchMeans,
    /// Batch-means accumulator over per-batch write availability.
    pub write_acc: BatchMeans,
    /// Union of all batches' raw observations.
    pub combined: BatchStats,
    /// Number of batches executed.
    pub batches: u64,
    /// Convergence trace: the ACC estimate and CI half-width after each
    /// round of batches the runner added (§5.2's stop-when-tight loop,
    /// made visible for run manifests).
    pub ci_trace: Vec<CiPoint>,
}

impl RunResults {
    /// Point estimate of ACC.
    pub fn availability(&self) -> f64 {
        self.acc.mean()
    }

    /// Confidence interval on ACC (if ≥ 2 batches).
    pub fn interval(&self) -> Option<ConfidenceInterval> {
        self.acc.interval()
    }

    /// True if every granted access saw the latest write in every batch
    /// (no stale reads, no lost updates).
    pub fn is_one_copy_serializable(&self) -> bool {
        self.combined.stale_reads == 0 && self.combined.write_conflicts == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn availability_ratios() {
        let mut b = BatchStats::new(3, 3);
        b.reads_submitted = 80;
        b.reads_granted = 60;
        b.writes_submitted = 20;
        b.writes_granted = 5;
        assert!((b.availability() - 0.65).abs() < 1e-12);
        assert!((b.read_availability() - 0.75).abs() < 1e-12);
        assert!((b.write_availability() - 0.25).abs() < 1e-12);
        assert_eq!(b.submitted(), 100);
        assert_eq!(b.granted(), 65);
    }

    #[test]
    fn empty_stats_are_zero() {
        let b = BatchStats::new(2, 2);
        assert_eq!(b.availability(), 0.0);
        assert_eq!(b.read_availability(), 0.0);
        assert_eq!(b.write_availability(), 0.0);
    }

    #[test]
    fn surv_and_contact_accounting() {
        let mut b = BatchStats::new(2, 3);
        b.reads_submitted = 10;
        b.writes_submitted = 10;
        b.surv_possible = 15;
        b.contact_messages = 60;
        assert!((b.surv_availability() - 0.75).abs() < 1e-12);
        assert!((b.contacts_per_access() - 3.0).abs() < 1e-12);
        let empty = BatchStats::new(2, 3);
        assert_eq!(empty.surv_availability(), 0.0);
        assert_eq!(empty.contacts_per_access(), 0.0);
    }

    #[test]
    fn time_weighted_density_requires_enablement() {
        let b = BatchStats::new(2, 3);
        let r = std::panic::catch_unwind(|| b.time_weighted_density());
        assert!(r.is_err(), "must panic without measured time");
    }

    #[test]
    fn merge_accumulates() {
        use quorum_stats::VoteHistogram;
        let mut a = BatchStats::new(2, 4);
        let mut b = BatchStats::new(2, 4);
        a.reads_submitted = 10;
        a.reads_granted = 5;
        a.access_votes.record(3);
        b.reads_submitted = 10;
        b.reads_granted = 10;
        b.access_votes.record(3);
        b.access_votes.record(0);
        b.per_site_votes[1].record(2);
        a.merge(&b);
        assert_eq!(a.reads_submitted, 20);
        assert_eq!(a.reads_granted, 15);
        assert_eq!(a.access_votes.observations(), 3);
        assert_eq!(a.per_site_votes[1].observations(), 1);
    }

    #[test]
    fn event_totals_merge_and_observe() {
        let mut a = BatchStats::new(1, 2);
        let mut b = BatchStats::new(1, 2);
        a.events_processed = 100;
        a.site_transitions = 10;
        a.cache_hits = 70;
        a.cache_recomputations = 30;
        b.events_processed = 50;
        b.link_transitions = 5;
        b.accesses_dispatched = 45;
        a.merge(&b);
        assert_eq!(a.events_processed, 150);
        assert_eq!(a.site_transitions, 10);
        assert_eq!(a.link_transitions, 5);
        assert_eq!(a.accesses_dispatched, 45);
        let r = quorum_obs::Registry::new();
        a.observe_into(&r);
        let snap = r.snapshot();
        assert_eq!(snap.counter(quorum_obs::keys::DES_EVENTS), 150);
        assert_eq!(snap.counter(quorum_obs::keys::CACHE_HITS), 70);
        assert_eq!(snap.counter(quorum_obs::keys::CACHE_RECOMPUTATIONS), 30);
    }

    #[test]
    fn merge_accumulates_kind_histograms_and_time() {
        use quorum_stats::VoteHistogram;
        let mut a = BatchStats::new(1, 2);
        let mut b = BatchStats::new(1, 2);
        a.read_votes.record(2);
        b.read_votes.record(1);
        b.write_votes.record(0);
        a.time_weighted_votes[2] = 1.5;
        b.time_weighted_votes[2] = 0.5;
        a.measured_time = 3.0;
        b.measured_time = 1.0;
        a.merge(&b);
        assert_eq!(a.read_votes.observations(), 2);
        assert_eq!(a.write_votes.observations(), 1);
        assert!((a.time_weighted_votes[2] - 2.0).abs() < 1e-12);
        assert!((a.measured_time - 4.0).abs() < 1e-12);
    }
}
